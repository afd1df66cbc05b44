//! One shape for every subsystem: report from the trace.
//!
//! Before this module, each subsystem kept its own legacy driver with its
//! own signature — `faas::platform::FaasPlatform::run(Vec<Invocation>)`,
//! `rms::scheduler::ClusterScheduler::run(Vec<Job>, SimTime)`,
//! `rms::multicluster::Federation::run(Vec<Job>, SimTime)` — and its own
//! bespoke outcome struct. Composed and standalone runs therefore had
//! nothing in common: you could not take the batch slice of an ecosystem
//! run and compare it like-for-like with a standalone scheduler run.
//!
//! [`Subsystem`] is the unified surface: [`Subsystem::report`] reduces the
//! shared [`TraceBus`] to a [`SubsystemReport`], a flat list of named
//! metrics. A composed run is built with `ScenarioConfig`'s `with_*`
//! methods and validated once by `Scenario::try_new`; nothing changes its
//! configuration afterwards.
//!
//! Because `report` reads only the trace (never a subsystem-private
//! outcome), the same reporting code serves a standalone single-actor run
//! and a composed full-stack run. What a subsystem did is exactly what it
//! emitted; there is no side channel.
//!
//! Reports read only the mode-agnostic bus queries (`count`,
//! `field_stats`), so a streaming bus reports the same values as a
//! full-retention one. A metric no rollup can answer is left out of a
//! streaming report rather than read as 0.

use mcs_simcore::codec::Json;
use mcs_simcore::trace::TraceBus;

/// What one subsystem measured, reduced from the shared trace: a flat list
/// of named metrics, uniform across subsystems so reports can be tabulated,
/// diffed, and asserted on without knowing which subsystem produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsystemReport {
    /// The reporting subsystem (its trace component name).
    pub name: &'static str,
    /// `(metric, value)` rows, in presentation order.
    pub metrics: Vec<(String, f64)>,
}

impl SubsystemReport {
    /// The value of `metric`, when present.
    pub fn get(&self, metric: &str) -> Option<f64> {
        self.metrics.iter().find(|(m, _)| m == metric).map(|&(_, v)| v)
    }
}

/// The unified subsystem surface: report from the shared trace.
pub trait Subsystem {
    /// The subsystem's name — also its component name on the trace bus.
    fn name(&self) -> &'static str;

    /// Reduces the shared trace to this subsystem's metrics. Works on any
    /// trace that carries the subsystem's component records: a composed
    /// run or a standalone wrapper run.
    fn report(&self, trace: &TraceBus) -> SubsystemReport;
}

/// The batch-computing subsystem (the legacy
/// `ClusterScheduler::run(jobs, horizon)` surface).
#[derive(Debug, Clone, Copy, Default)]
pub struct Batch;

impl Subsystem for Batch {
    fn name(&self) -> &'static str {
        "rms"
    }

    fn report(&self, trace: &TraceBus) -> SubsystemReport {
        SubsystemReport {
            name: self.name(),
            metrics: vec![
                ("jobs_arrived".to_owned(), trace.count("rms", "job_arrival") as f64),
                ("tasks_started".to_owned(), trace.count("rms", "task_start") as f64),
                ("tasks_finished".to_owned(), trace.count("rms", "task_finish") as f64),
                ("machine_fails".to_owned(), trace.count("rms", "machine_fail") as f64),
                (
                    "failure_requeues".to_owned(),
                    trace.count("rms", "requeue_scheduled") as f64,
                ),
                ("policy_ticks".to_owned(), trace.count("rms", "policy_tick") as f64),
            ],
        }
    }
}

/// The serverless subsystem (the legacy
/// `FaasPlatform::run(invocations)` surface).
#[derive(Debug, Clone, Copy, Default)]
pub struct Serverless;

impl Subsystem for Serverless {
    fn name(&self) -> &'static str {
        "faas"
    }

    fn report(&self, trace: &TraceBus) -> SubsystemReport {
        let latency = trace.field_stats("faas", "invoke", "latency_secs");
        SubsystemReport {
            name: self.name(),
            metrics: vec![
                ("invocations".to_owned(), trace.count("faas", "invoke") as f64),
                ("mean_latency_secs".to_owned(), latency.map_or(0.0, |s| s.mean())),
                ("rejected".to_owned(), trace.count("faas", "reject") as f64),
                ("failed".to_owned(), trace.count("faas", "invoke_failed") as f64),
                ("warm_pool_kills".to_owned(), trace.count("faas", "kill_warm") as f64),
                ("scale_actions".to_owned(), trace.count("faas", "scale") as f64),
            ],
        }
    }
}

/// The correlated-failure subsystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failures;

impl Subsystem for Failures {
    fn name(&self) -> &'static str {
        "failure"
    }

    fn report(&self, trace: &TraceBus) -> SubsystemReport {
        SubsystemReport {
            name: self.name(),
            metrics: vec![
                ("outages".to_owned(), trace.count("failure", "outage") as f64),
                ("repairs".to_owned(), trace.count("failure", "repair") as f64),
            ],
        }
    }
}

/// The MapReduce/dataflow subsystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bigdata;

impl Subsystem for Bigdata {
    fn name(&self) -> &'static str {
        "bigdata"
    }

    fn report(&self, trace: &TraceBus) -> SubsystemReport {
        let makespan = trace.field_stats("bigdata", "job_finish", "makespan_secs");
        let stage = trace.field_stats("bigdata", "stage_finish", "secs");
        SubsystemReport {
            name: self.name(),
            metrics: vec![
                ("jobs_finished".to_owned(), trace.count("bigdata", "job_finish") as f64),
                ("mean_job_makespan_secs".to_owned(), makespan.map_or(0.0, |s| s.mean())),
                ("mean_stage_secs".to_owned(), stage.map_or(0.0, |s| s.mean())),
                ("node_fails".to_owned(), trace.count("bigdata", "node_fail") as f64),
                (
                    "re_replications".to_owned(),
                    trace.count("bigdata", "re_replicate") as f64,
                ),
            ],
        }
    }
}

/// The graph-analytics subsystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphAnalytics;

impl Subsystem for GraphAnalytics {
    fn name(&self) -> &'static str {
        "graph"
    }

    fn report(&self, trace: &TraceBus) -> SubsystemReport {
        let makespan = trace.field_stats("graph", "query_finish", "makespan_secs");
        let mut metrics = vec![
            ("queries_finished".to_owned(), trace.count("graph", "query_finish") as f64),
            ("mean_query_makespan_secs".to_owned(), makespan.map_or(0.0, |s| s.mean())),
            ("supersteps".to_owned(), trace.count("graph", "superstep_start") as f64),
        ];
        // `straggler` is a Bool field, which no streaming rollup keeps.
        if !trace.is_streaming() {
            let stragglers = trace
                .select("graph", "superstep_start")
                .iter()
                .filter(|e| matches!(e.payload.get("straggler"), Some(Json::Bool(true))))
                .count();
            metrics.push(("straggler_supersteps".to_owned(), stragglers as f64));
        }
        metrics.push(("worker_fails".to_owned(), trace.count("graph", "worker_fail") as f64));
        SubsystemReport { name: self.name(), metrics }
    }
}

/// The gaming virtual-world subsystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gaming;

impl Subsystem for Gaming {
    fn name(&self) -> &'static str {
        "gaming"
    }

    fn report(&self, trace: &TraceBus) -> SubsystemReport {
        let overload = trace.field_stats("gaming", "overload_end", "secs");
        SubsystemReport {
            name: self.name(),
            metrics: vec![
                ("players_admitted".to_owned(), trace.count("gaming", "join") as f64),
                ("players_rejected".to_owned(), trace.count("gaming", "reject") as f64),
                (
                    "players_disconnected".to_owned(),
                    trace.count("gaming", "disconnect") as f64,
                ),
                (
                    "overload_minutes".to_owned(),
                    overload.map_or(0.0, |s| s.mean() * s.count() as f64 / 60.0),
                ),
                ("zone_fails".to_owned(), trace.count("gaming", "zone_fail") as f64),
            ],
        }
    }
}

/// Every subsystem of the full-stack scenario. Convenience for experiments
/// that want the whole ecosystem reported uniformly.
pub fn full_stack() -> Vec<Box<dyn Subsystem>> {
    vec![
        Box::new(Batch),
        Box::new(Serverless),
        Box::new(Failures),
        Box::new(Bigdata),
        Box::new(GraphAnalytics),
        Box::new(Gaming),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        BatchConfig, BigdataConfig, FaasConfig, FailureConfig, GamingConfig, GraphConfig,
        ObservabilityConfig, Scenario, ScenarioConfig,
    };
    use mcs_simcore::time::SimTime;

    fn full_stack_scenario() -> Scenario {
        Scenario::new(
            ScenarioConfig::bare(11, SimTime::from_secs(2 * 3600), 12)
                .with_batch(BatchConfig::default())
                .with_faas(FaasConfig::default())
                .with_failures(FailureConfig::default())
                .with_bigdata(BigdataConfig::default())
                .with_graph(GraphConfig::default())
                .with_gaming(GamingConfig::default()),
        )
    }

    #[test]
    fn every_subsystem_reports_from_the_shared_trace() {
        let out = full_stack_scenario().run();
        for subsystem in full_stack() {
            let report = subsystem.report(&out.trace);
            assert!(
                !report.metrics.is_empty(),
                "{} reported no metrics",
                report.name
            );
        }
        let batch = Batch.report(&out.trace);
        assert!(batch.get("tasks_finished").unwrap_or(0.0) > 0.0);
        let faas = Serverless.report(&out.trace);
        assert!(faas.get("invocations").unwrap_or(0.0) > 0.0);
        let gaming = Gaming.report(&out.trace);
        assert!(gaming.get("players_admitted").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn standalone_and_composed_reports_share_one_shape() {
        // A standalone single-subsystem run and the same subsystem's slice
        // of a composed run report through the identical code path.
        let standalone = mcs_gaming::actor::run_gaming_standalone(
            &GamingConfig::default(),
            11,
            SimTime::from_secs(2 * 3600),
        );
        let solo = Gaming.report(&standalone);
        let composed = Gaming.report(&full_stack_scenario().run().trace);
        let names =
            |r: &SubsystemReport| r.metrics.iter().map(|(m, _)| m.clone()).collect::<Vec<_>>();
        assert_eq!(names(&solo), names(&composed));
        assert!(solo.get("players_admitted").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn reports_agree_across_trace_sinks() {
        // The ecosystem_full experiment's composition at seed 42.
        let config = ScenarioConfig::default()
            .with_bigdata(BigdataConfig::default())
            .with_graph(GraphConfig { vertices: 1_000, edges: 4_000, ..GraphConfig::default() })
            .with_gaming(GamingConfig::default());
        let full = Scenario::new(config.clone()).run().trace;
        let streaming =
            Scenario::new(config.with_observability(ObservabilityConfig::default())).run().trace;
        assert!(streaming.is_streaming() && !full.is_streaming());
        for subsystem in full_stack() {
            let (a, b) = (subsystem.report(&full), subsystem.report(&streaming));
            for (metric, value) in &a.metrics {
                match b.get(metric) {
                    Some(v) => assert_eq!(v.to_bits(), value.to_bits(), "{}/{metric}", a.name),
                    // The one row no rollup can answer is absent, never 0.
                    None => {
                        assert_eq!((a.name, metric.as_str()), ("graph", "straggler_supersteps"))
                    }
                }
            }
            assert!(b.metrics.iter().all(|(m, _)| a.get(m).is_some()), "{}", a.name);
        }
    }
}
