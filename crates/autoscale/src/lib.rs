//! # mcs-autoscale — autoscalers and elasticity metrics
//!
//! The adaptation substrate of the paper's challenge C7: the autoscaler
//! portfolio of the cited experimental comparison (React, Adapt, Hist, Reg,
//! EWMA/ConPaaS-style), an elastic-service simulator to exercise them, and
//! the SPEC RG elasticity metrics \[32\] the paper names as the vocabulary of
//! sophisticated non-functional requirements (C3).
//!
//! ## Example
//! ```
//! use mcs_autoscale::prelude::*;
//! use mcs_simcore::prelude::*;
//!
//! let rate = |t: SimTime| 200.0 + 100.0 * (t.as_secs_f64() / 600.0).sin();
//! let mut scaler = React::default();
//! let out = simulate_service(
//!     &rate, SimTime::from_secs(3_600), ServiceConfig::default(), &mut scaler,
//! );
//! assert!(out.elasticity.score() > 0.0 && out.instance_hours > 0.0);
//! ```

pub mod autoscalers;
pub mod elasticity;
pub mod governor;
pub mod service;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::autoscalers::{
        standard_autoscalers, Adapt, AutoscaleObservation, Autoscaler, Ewma, Hist, React, Reg,
        StaticAutoscaler,
    };
    pub use crate::elasticity::{unserved_fraction, ElasticityMetrics};
    pub use crate::governor::{GovernorActor, GovernorMsg};
    pub use crate::service::{simulate_service, ServiceConfig, ServiceOutcome};
}
