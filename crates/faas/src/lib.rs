//! # mcs-faas — the serverless platform of Figure 5
//!
//! The paper's §6.5 FaaS reference architecture (developed with the SPEC RG
//! Cloud group), as working layers:
//!
//! - **Function Management Layer** ([`platform`]): instance pools, cold and
//!   warm starts, keep-alive policies, LIFO routing, and fine-grained
//!   GB-second billing for both the customer and the provider.
//! - **Function Composition Layer** ([`composition`]): chains and parallel
//!   fan-outs of functions with per-step meta-scheduling overhead.
//!
//! The Resource and Resource-Orchestration layers of Figure 5 are provided
//! by `mcs-infra` and `mcs-rms` in full-stack experiments.
//!
//! ## Example
//! ```
//! use mcs_faas::prelude::*;
//! use mcs_simcore::prelude::*;
//!
//! let mut platform = FaasPlatform::new(
//!     KeepAlivePolicy::Fixed(SimDuration::from_secs(600)), 42,
//! );
//! platform.deploy(FunctionSpec::api_handler("hello"));
//! let (report, latency) = platform.run(poisson_invocations(
//!     "hello", 1.0, SimTime::from_secs(600), 42,
//! ));
//! assert!(report.cold_fraction < 0.2);
//! assert_eq!(latency.map(|l| l.count), Some(report.invocations));
//! ```

pub mod actor;
pub mod composition;
pub mod platform;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::actor::{CongestionConfig, FaasActor, FaasFault, FaasMsg, FaasObserver};
    pub use crate::composition::{
        execute_composition, Composition, CompositionResult, Stage,
    };
    pub use crate::platform::{
        poisson_invocations, FaasPlatform, FunctionSpec, Invocation, InvocationResult,
        KeepAlivePolicy, PlatformReport,
    };
}
