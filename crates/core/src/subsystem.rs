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
//! outcome), the same reporting code serves a standalone single-actor run,
//! a composed full-stack run, and — for the wide-area federation, whose
//! router remains a fluid model rather than an engine actor — a synthesized
//! trace produced by [`Federated::record_outcome`]. What a subsystem did is
//! exactly what it emitted; there is no side channel.

use mcs_rms::multicluster::FederationOutcome;
use mcs_simcore::time::SimTime;
use mcs_simcore::codec::Json;
use mcs_simcore::trace::{payload, TraceBus, TraceEvent};

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
    /// run, a standalone wrapper run, or a synthesized bus.
    fn report(&self, trace: &TraceBus) -> SubsystemReport;
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn mean_field(events: &[&TraceEvent], key: &str) -> f64 {
    mean(events.iter().filter_map(|e| e.field_f64(key)))
}

fn sum_field(events: &[&TraceEvent], key: &str) -> f64 {
    events.iter().filter_map(|e| e.field_f64(key)).sum()
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
        let invokes = trace.select("faas", "invoke");
        SubsystemReport {
            name: self.name(),
            metrics: vec![
                ("invocations".to_owned(), invokes.len() as f64),
                ("mean_latency_secs".to_owned(), mean_field(&invokes, "latency_secs")),
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
        let stages = trace.select("bigdata", "stage_finish");
        let jobs = trace.select("bigdata", "job_finish");
        SubsystemReport {
            name: self.name(),
            metrics: vec![
                ("jobs_finished".to_owned(), jobs.len() as f64),
                ("mean_job_makespan_secs".to_owned(), mean_field(&jobs, "makespan_secs")),
                ("mean_stage_secs".to_owned(), mean_field(&stages, "secs")),
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
        let queries = trace.select("graph", "query_finish");
        let supersteps = trace.select("graph", "superstep_start");
        let stragglers = supersteps
            .iter()
            .filter(|e| matches!(e.payload.get("straggler"), Some(Json::Bool(true))))
            .count();
        SubsystemReport {
            name: self.name(),
            metrics: vec![
                ("queries_finished".to_owned(), queries.len() as f64),
                (
                    "mean_query_makespan_secs".to_owned(),
                    mean_field(&queries, "makespan_secs"),
                ),
                ("supersteps".to_owned(), supersteps.len() as f64),
                ("straggler_supersteps".to_owned(), stragglers as f64),
                ("worker_fails".to_owned(), trace.count("graph", "worker_fail") as f64),
            ],
        }
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
        let overload_windows = trace.select("gaming", "overload_end");
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
                    sum_field(&overload_windows, "secs") / 60.0,
                ),
                ("zone_fails".to_owned(), trace.count("gaming", "zone_fail") as f64),
            ],
        }
    }
}

/// The wide-area federation (the legacy `Federation::run(jobs, horizon)`
/// surface).
///
/// The federation's router is a *fluid* backlog model, not an engine actor,
/// so a composed run never hosts it. Standalone federated runs go through
/// [`Federated::record_outcome`] to synthesize `federation` trace records
/// from a [`FederationOutcome`], after which [`Subsystem::report`] reads
/// them like any other subsystem's records.
#[derive(Debug, Clone, Copy, Default)]
pub struct Federated;

impl Federated {
    /// Synthesizes `federation` trace records from a fluid-model outcome,
    /// so standalone federated runs and composed engine runs share the
    /// [`Subsystem::report`] path.
    pub fn record_outcome(outcome: &FederationOutcome, trace: &mut TraceBus) {
        for (cluster, (per, jobs)) in
            outcome.per_cluster.iter().zip(&outcome.jobs_per_cluster).enumerate()
        {
            trace.record(
                SimTime::ZERO,
                "federation",
                "cluster_outcome",
                payload(vec![
                    ("cluster", Json::UInt(cluster as u64)),
                    ("jobs", Json::UInt(*jobs as u64)),
                    ("completions", Json::UInt(per.completions.len() as u64)),
                    ("makespan_secs", Json::Float(per.makespan.as_secs_f64())),
                    ("mean_utilization", Json::Float(per.mean_utilization)),
                ]),
            );
        }
        trace.record(
            SimTime::ZERO,
            "federation",
            "routing",
            payload(vec![
                ("offloaded_jobs", Json::UInt(outcome.offloaded_jobs as u64)),
                ("transfer_delay_secs", Json::Float(outcome.transfer_delay_secs)),
            ]),
        );
    }
}

impl Subsystem for Federated {
    fn name(&self) -> &'static str {
        "federation"
    }

    fn report(&self, trace: &TraceBus) -> SubsystemReport {
        let clusters = trace.select("federation", "cluster_outcome");
        let routing = trace.select("federation", "routing");
        SubsystemReport {
            name: self.name(),
            metrics: vec![
                ("clusters".to_owned(), clusters.len() as f64),
                ("jobs_routed".to_owned(), sum_field(&clusters, "jobs")),
                ("completions".to_owned(), sum_field(&clusters, "completions")),
                ("mean_utilization".to_owned(), mean_field(&clusters, "mean_utilization")),
                ("offloaded_jobs".to_owned(), sum_field(&routing, "offloaded_jobs")),
                (
                    "transfer_delay_secs".to_owned(),
                    sum_field(&routing, "transfer_delay_secs"),
                ),
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
        Scenario, ScenarioConfig,
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
    fn federation_outcomes_synthesize_onto_the_bus() {
        use mcs_rms::multicluster::FederationOutcome;
        let outcome = FederationOutcome {
            per_cluster: vec![],
            jobs_per_cluster: vec![],
            offloaded_jobs: 7,
            transfer_delay_secs: 12.5,
        };
        let mut trace = TraceBus::default();
        Federated::record_outcome(&outcome, &mut trace);
        let report = Federated.report(&trace);
        assert_eq!(report.get("offloaded_jobs"), Some(7.0));
        assert_eq!(report.get("transfer_delay_secs"), Some(12.5));
    }
}
