//! # mcs-dag — workflows with portfolio scheduling
//!
//! The paper's portfolio-scheduling evidence (Table 4, C6 approach iv) is
//! about *workflows*: jobs whose tasks form a DAG with data flowing along
//! the precedence edges. This crate adds that workload model to the
//! ecosystem:
//!
//! - [`job::DagJob`] — a validated workflow (acyclic, weakly connected,
//!   in-range edges) of [`job::DagTask`]s joined by byte-annotated
//!   [`job::DagEdge`]s, with HEFT upward ranks and a critical-path bound.
//! - [`generate`](mod@generate) — deterministic generators for the
//!   canonical science shapes: chains, fork-join bags, Montage-like mosaics, LIGO-like
//!   inspiral pipelines; [`generate::poisson_workflows`] strings them into
//!   a Poisson arrival stream, and [`job::DagJob::to_job`] lowers each
//!   onto the batch scheduler's `Job`. This is the workspace's only
//!   workflow model.
//! - [`portfolio`] — [`portfolio::lookahead_makespan`], a pure simulate-ahead
//!   list scheduler, and [`portfolio::DagPortfolio`], which races candidate
//!   policies per workflow class under the batch scheduler's selection rule
//!   (`mcs_rms::portfolio::Portfolio`) and caches the winner.
//! - [`actor::DagActor`] — the workflow engine on the shared simulation:
//!   tasks become ready as parents finish, a [`SchedulingPolicy`] orders and
//!   places them, and edge payloads either take `bytes / reference
//!   bandwidth` (standalone) or become `mcs-net` flows via
//!   [`actor::EdgeHook`] so makespans feel contention and locality.
//!
//! The scheduling policies themselves live in `mcs_rms::policy` — the same
//! [`SchedulingPolicy`] trait drives both the batch scheduler queue and the
//! workflow engine, which is the point of the redesign.
//!
//! ```
//! use mcs_dag::prelude::*;
//! use mcs_simcore::rng::RngStream;
//!
//! let mut rng = RngStream::new(42, "dag-gen");
//! let shape = DagShape { width: 4, work: 100.0, cores: 2.0, memory_gb: 4.0, edge_bytes: 1 << 20 };
//! let dag = generate(DagClass::Montage, &shape, &mut rng);
//! let spec = DagClusterSpec { machines: 8, cores_per_machine: 8.0, memory_per_machine_gb: 32.0 };
//! let mut portfolio = DagPortfolio::standard(4);
//! let winner = portfolio.choose(DagClass::Montage, &dag, &spec, 100.0 * 1024.0 * 1024.0);
//! let name = portfolio.candidates()[winner].name();
//! assert!(["heft", "greedy", "locality"].contains(&name));
//! ```
//!
//! [`SchedulingPolicy`]: mcs_rms::policy::SchedulingPolicy

pub mod actor;
pub mod generate;
pub mod job;
pub mod portfolio;

pub use actor::{DagActor, DagConfig, DagMsg, DagPolicy, EdgeHook, EdgeTransfer, DAG_COMPONENT};
pub use generate::{generate, poisson_workflows, DagClass, DagShape};
pub use job::{DagEdge, DagError, DagJob, DagTask};
pub use portfolio::{data_home, lookahead_makespan, DagClusterSpec, DagPortfolio};

/// Convenient glob-import surface: `use mcs_dag::prelude::*;`.
pub mod prelude {
    pub use crate::actor::{DagActor, DagConfig, DagMsg, DagPolicy, EdgeTransfer};
    pub use crate::generate::{generate, poisson_workflows, DagClass, DagShape};
    pub use crate::job::{DagEdge, DagJob, DagTask};
    pub use crate::portfolio::{lookahead_makespan, DagClusterSpec, DagPortfolio};
}
