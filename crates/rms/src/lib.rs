//! # mcs-rms — resource management and scheduling
//!
//! Principle P4 of the paper makes Resource Management & Scheduling "the key
//! building block without which MCS is not sustainable or often even
//! achievable". This crate implements the paper's *dual problem* of
//! scheduling (C7):
//!
//! - **allocation** — placing tasks on provisioned machines
//!   ([`allocation`], [`scheduler`]), with queue disciplines, EASY
//!   backfilling, failure-driven requeues, and checkpoint-restart;
//! - **provisioning** — acquiring machines on the user's behalf
//!   ([`provisioning`]) and routing work across a federation of clusters
//!   ([`multicluster`]), including overload offloading (C10);
//! - **adaptation** — portfolio scheduling ([`portfolio`]): simulate the
//!   policy candidates at runtime and adopt the current winner (C6); the
//!   workflow engine's portfolio shares its selection rule.
//!
//! ## Example
//! ```
//! use mcs_rms::prelude::*;
//! use mcs_infra::prelude::*;
//! use mcs_workload::prelude::*;
//! use mcs_simcore::prelude::*;
//!
//! let cluster = Cluster::homogeneous(
//!     ClusterId(0), "batch", MachineSpec::commodity("std-8", 8.0, 32.0), 4,
//! );
//! let mut generator = BatchWorkloadGenerator::new(BatchWorkloadConfig::default());
//! let mut rng = RngStream::new(1, "example");
//! let jobs = generator.generate(SimTime::from_secs(3_600), 50, &mut rng);
//! let mut scheduler = ClusterScheduler::new(cluster, SchedulerConfig::default(), 1);
//! let outcome = scheduler.run(jobs, SimTime::from_secs(100_000));
//! assert!(outcome.mean_utilization <= 1.0);
//! ```

pub mod allocation;
pub mod multicluster;
pub mod policy;
pub mod portfolio;
pub mod provisioning;
pub mod scavenge;
pub mod scheduler;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::allocation::AllocationPolicy;
    pub use crate::multicluster::{Federation, FederationOutcome, RoutingPolicy};
    pub use crate::policy::{
        GreedyReadyPolicy, HeftPolicy, LocalityFirstPolicy, QueuedTaskView, SchedulingPolicy,
    };
    pub use crate::portfolio::{default_portfolio, Objective, PortfolioSelector};
    pub use crate::scavenge::{
        apply_scavenge, plan_scavenge, release_scavenge, ScavengeConfig, ScavengePlacement,
    };
    pub use crate::provisioning::{
        plan_provisioning, BacklogDriven, ProvisioningObservation, ProvisioningPlan,
        ProvisioningPolicy, StaticProvisioning,
    };
    pub use crate::scheduler::{
        ClusterScheduler, QueuePolicy, RmsMsg, ScheduleOutcome, SchedulerActor, SchedulerConfig,
    };
}
