//! # mcs-core — the Massivizing Computer Systems contribution, formalized
//!
//! The paper's primary contribution is conceptual: ecosystems as the unit
//! of study, NFRs as first-class citizens, self-awareness and RM&S as the
//! key building blocks, and a methodology spanning measurement, simulation,
//! and formal models. This crate turns each concept into an executable
//! artifact:
//!
//! - [`nfr`] — the P3 calculus: typed NFR targets, measured profiles,
//!   serial/parallel composition, time-varying requirement schedules (C3).
//! - [`sla`] — SLOs/SLAs with penalties evaluated against measured profiles.
//! - [`ecosystem`] — recursive, multi-owner ecosystems with collective
//!   functions and quorum semantics (P5 super-distribution, §2.1).
//! - [`selfaware`] — MAPE-K loops, anomaly detection, and an emergence
//!   detector (P4, P9, C6).
//! - [`navigation`] — the C9 Ecosystem Navigation challenge: select and
//!   compose components against NFR targets, with plain-text explanations.
//! - [`refarch`] — Figures 1/3/4/5 encoded as validated reference
//!   architectures with deployment-coverage checking.
//! - [`evolution`] — §3.2's Darwinian vs non-Darwinian technology dynamics
//!   and the component-evolution mechanisms.
//! - [`methods`] — the formal-model leg of Table 1: M/M/1, Erlang-C M/M/c,
//!   Little's Law.
//!
//! ## Example
//! ```
//! use mcs_core::prelude::*;
//!
//! let db = NfrProfile::new()
//!     .with(NfrKind::Availability, 0.99)
//!     .with(NfrKind::LatencyP95, 0.02);
//! // Triple replication: availability composes to three nines and beyond.
//! let replicated = db.compose_parallel(&db).compose_parallel(&db);
//! assert!(replicated.get(NfrKind::Availability).unwrap() > 0.999_99);
//! ```

pub mod ecosystem;
pub mod evolution;
pub mod methods;
pub mod navigation;
pub mod nfr;
pub mod refarch;
pub mod scenario;
pub mod selfaware;
pub mod sla;
pub mod subsystem;
pub mod transparency;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::ecosystem::{
        Capability, CollectiveFunction, Constituent, Ecosystem, SystemNode,
    };
    pub use crate::evolution::{
        evolve_inventory, simulate_adoption, upset_probability, AdoptionOutcome, Mechanism,
        Regime, Technology,
    };
    pub use crate::methods::{littles_law, mm1, mmc, QueueingPrediction, Roofline};
    pub use crate::navigation::{
        navigate, navigate_best_effort, Catalog, CatalogEntry, NavigationError, Selection,
    };
    pub use crate::nfr::{NfrKind, NfrProfile, NfrSchedule, NfrTarget};
    pub use crate::refarch::{
        all_refarchs, bigdata_refarch, datacenter_refarch, faas_refarch, gaming_refarch,
        Layer, ReferenceArchitecture,
    };
    pub use crate::scenario::{
        BatchConfig, EcosystemMsg, FaasConfig, FailureConfig, NetworkConfig,
        ObservabilityConfig, Scenario, ScenarioConfig, ScenarioOutcome,
    };
    pub use crate::selfaware::{Action, Analysis, EmergenceDetector, Knowledge, MapeLoop};
    pub use crate::sla::{Sla, SlaReport, Slo, SloOutcome};
    pub use crate::subsystem::{tenant_reports, SubsystemReport};
    pub use crate::transparency::{Audience, OperationalReport};
}
