//! # mcs — Massivizing Computer Systems
//!
//! A computer-ecosystem simulation and resource-management platform: the
//! reproduction of *"Massivizing Computer Systems: a Vision to Understand,
//! Design, and Engineer Computer Ecosystems through and beyond Modern
//! Distributed Systems"* (Iosup et al., ICDCS 2018).
//!
//! This facade crate re-exports every subsystem of the workspace:
//!
//! | Module | Crate | Implements |
//! |---|---|---|
//! | [`simcore`] | `mcs-simcore` | Deterministic discrete-event kernel, RNG streams, distributions, metrics |
//! | [`infra`] | `mcs-infra` | Heterogeneous machines, clusters, datacenters, WAN topology, power/cost |
//! | [`workload`] | `mcs-workload` | Tasks, jobs, bursty/diurnal arrivals, GWA-style traces, generators |
//! | [`failure`] | `mcs-failure` | Independent / space- / time-correlated failure models, availability analysis |
//! | [`net`] | `mcs-net` | Flow-level network model: rack topology, max-min fair sharing, cut/degraded links |
//! | [`rms`] | `mcs-rms` | The dual scheduling problem: allocation, provisioning, federation, portfolio |
//! | [`dag`] | `mcs-dag` | DAG workflows: science-shape generators, HEFT ranks, per-class portfolio scheduling |
//! | [`autoscale`] | `mcs-autoscale` | Autoscaler portfolio, elastic-service simulator, SPEC elasticity metrics |
//! | [`faas`] | `mcs-faas` | Serverless platform: cold/warm starts, keep-alive, composition (Fig. 5) |
//! | [`graph`] | `mcs-graph` | BSP/Pregel engine, Graphalytics-six algorithms, generators (§6.6) |
//! | [`bigdata`] | `mcs-bigdata` | Fig. 1 stack: block store, MapReduce, dataflow, Pregel sub-ecosystem |
//! | [`gaming`] | `mcs-gaming` | Fig. 4: virtual world, social analytics, procedural content (§6.3) |
//! | [`core`] | `mcs-core` | NFR calculus, SLAs, recursive ecosystems, MAPE-K, navigation, evolution |
//! | [`chaos`] | `mcs-chaos` | Scripted fault schedules, trace invariants, campaigns, ddmin shrinking |
//!
//! ## Quickstart
//! ```
//! use mcs::prelude::*;
//!
//! // Build a small heterogeneous cluster.
//! let cluster = Cluster::homogeneous(
//!     ClusterId(0), "batch", MachineSpec::commodity("std-8", 8.0, 32.0), 8,
//! );
//! // Generate a bursty grid workload.
//! let mut generator = BatchWorkloadGenerator::new(BatchWorkloadConfig::default());
//! let mut rng = RngStream::new(42, "quickstart");
//! let jobs = generator.generate(SimTime::from_secs(4 * 3600), 200, &mut rng);
//! // Schedule it.
//! let mut scheduler = ClusterScheduler::new(cluster, SchedulerConfig::default(), 42);
//! let outcome = scheduler.run(jobs, SimTime::from_secs(7 * 86_400));
//! assert_eq!(outcome.unfinished, 0);
//! ```

pub mod experiment;

pub use mcs_autoscale as autoscale;
pub use mcs_bigdata as bigdata;
pub use mcs_chaos as chaos;
pub use mcs_core as core;
pub use mcs_dag as dag;
pub use mcs_faas as faas;
pub use mcs_failure as failure;
pub use mcs_gaming as gaming;
pub use mcs_graph as graph;
pub use mcs_infra as infra;
pub use mcs_net as net;
pub use mcs_rms as rms;
pub use mcs_simcore as simcore;
pub use mcs_workload as workload;

/// One-stop prelude combining every subsystem prelude.
pub mod prelude {
    pub use crate::experiment::{Experiment, Report, Section};
    pub use mcs_autoscale::prelude::*;
    pub use mcs_bigdata::prelude::*;
    pub use mcs_core::prelude::*;
    pub use mcs_dag::prelude::*;
    pub use mcs_faas::prelude::*;
    pub use mcs_failure::prelude::*;
    pub use mcs_gaming::prelude::*;
    pub use mcs_graph::prelude::*;
    pub use mcs_infra::prelude::*;
    pub use mcs_net::prelude::*;
    pub use mcs_rms::prelude::*;
    pub use mcs_simcore::prelude::*;
    pub use mcs_workload::prelude::*;
}
