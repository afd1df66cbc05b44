//! # mcs-workload — workload models, generators, and traces
//!
//! The workload substrate of the MCS workspace: tasks, jobs, bursty/diurnal
//! arrival processes, GWA-style traces, and per-domain workload generators
//! (grid batch, deadline transactions). Workflow DAGs live in `mcs-dag`,
//! which lowers them onto this crate's [`task::Job`].
//!
//! The paper's challenges C3 (vicissitude: workload mixes changing
//! arbitrarily over time) and C7 (drastically changing workloads over short
//! and long periods) are exercised by combining these generators.
//!
//! ## Example
//! ```
//! use mcs_workload::generator::{BatchWorkloadConfig, BatchWorkloadGenerator};
//! use mcs_simcore::prelude::*;
//!
//! let mut generator = BatchWorkloadGenerator::new(BatchWorkloadConfig::default());
//! let mut rng = RngStream::new(42, "example");
//! let jobs = generator.generate(SimTime::from_secs(3_600), 100, &mut rng);
//! assert!(jobs.iter().all(|j| j.submit < SimTime::from_secs(3_600)));
//! ```

pub mod actor;
pub mod arrival;
pub mod generator;
pub mod task;
pub mod trace;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::actor::{ArrivalActor, ArrivalMsg};
    pub use crate::arrival::{ArrivalProcess, Diurnal, Mmpp2, Poisson};
    pub use crate::generator::{
        BatchWorkloadConfig, BatchWorkloadGenerator, TransactionWorkloadGenerator,
    };
    pub use crate::task::{Job, JobId, JobKind, Task, TaskCompletion, TaskId, UserId};
    pub use crate::trace::{Trace, TraceRecord, TraceStats};
}
