//! One report per tenant, reduced from the shared trace.
//!
//! [`tenant_reports`] reduces the shared [`TraceBus`] to one
//! [`SubsystemReport`] per tenant: a flat list of named metrics. It reads
//! only the trace, never a tenant-private outcome, so the same code reports
//! a standalone single-actor run and a composed full-stack run. What a
//! tenant did is exactly what it emitted; there is no side channel.
//!
//! Reports read only the mode-agnostic bus queries (`count`,
//! `field_stats`), so a streaming bus reports the same values as a
//! full-retention one. A metric no rollup can answer is left out of a
//! streaming report rather than read as 0.

use mcs_simcore::codec::Json;
use mcs_simcore::trace::TraceBus;

/// What one tenant measured, reduced from the shared trace: a flat list of
/// named metrics, uniform across tenants so reports can be tabulated,
/// diffed, and asserted on without knowing which tenant produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsystemReport {
    /// The reporting tenant (its trace component name).
    pub name: &'static str,
    /// `(metric, value)` rows, in presentation order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl SubsystemReport {
    /// The value of `metric`, when present.
    pub fn get(&self, metric: &str) -> Option<f64> {
        self.metrics.iter().find(|(m, _)| *m == metric).map(|&(_, v)| v)
    }
}

/// Reduces the shared trace to one report per tenant of the full stack, in
/// presentation order: batch, serverless, failures, bigdata, graph
/// analytics and gaming. A tenant absent from the run reports zeros.
pub fn tenant_reports(trace: &TraceBus) -> Vec<SubsystemReport> {
    let count = |component, event| trace.count(component, event) as f64;
    let mean = |component, event, field| {
        trace.field_stats(component, event, field).map_or(0.0, |s| s.mean())
    };
    let report = |name, metrics| SubsystemReport { name, metrics };

    let mut graph = vec![
        ("queries_finished", count("graph", "query_finish")),
        ("mean_query_makespan_secs", mean("graph", "query_finish", "makespan_secs")),
        ("supersteps", count("graph", "superstep_start")),
    ];
    // `straggler` is a Bool field, which no streaming rollup keeps.
    if !trace.is_streaming() {
        let stragglers = trace
            .select("graph", "superstep_start")
            .iter()
            .filter(|e| matches!(e.payload.get("straggler"), Some(Json::Bool(true))))
            .count();
        graph.push(("straggler_supersteps", stragglers as f64));
    }
    graph.push(("worker_fails", count("graph", "worker_fail")));

    let overload = trace.field_stats("gaming", "overload_end", "secs");
    vec![
        report(
            "rms",
            vec![
                ("jobs_arrived", count("rms", "job_arrival")),
                ("tasks_started", count("rms", "task_start")),
                ("tasks_finished", count("rms", "task_finish")),
                ("machine_fails", count("rms", "machine_fail")),
                ("failure_requeues", count("rms", "requeue_scheduled")),
                ("policy_ticks", count("rms", "policy_tick")),
            ],
        ),
        report(
            "faas",
            vec![
                ("invocations", count("faas", "invoke")),
                ("mean_latency_secs", mean("faas", "invoke", "latency_secs")),
                ("rejected", count("faas", "reject")),
                ("failed", count("faas", "invoke_failed")),
                ("warm_pool_kills", count("faas", "kill_warm")),
                ("scale_actions", count("faas", "scale")),
            ],
        ),
        report(
            "failure",
            vec![
                ("outages", count("failure", "outage")),
                ("repairs", count("failure", "repair")),
            ],
        ),
        report(
            "bigdata",
            vec![
                ("jobs_finished", count("bigdata", "job_finish")),
                ("mean_job_makespan_secs", mean("bigdata", "job_finish", "makespan_secs")),
                ("mean_stage_secs", mean("bigdata", "stage_finish", "secs")),
                ("node_fails", count("bigdata", "node_fail")),
                ("re_replications", count("bigdata", "re_replicate")),
            ],
        ),
        report("graph", graph),
        report(
            "gaming",
            vec![
                ("players_admitted", count("gaming", "join")),
                ("players_rejected", count("gaming", "reject")),
                ("players_disconnected", count("gaming", "disconnect")),
                (
                    "overload_minutes",
                    overload.map_or(0.0, |s| s.mean() * s.count() as f64 / 60.0),
                ),
                ("zone_fails", count("gaming", "zone_fail")),
            ],
        ),
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

    /// The report named `name` among `reports`.
    fn tenant<'r>(reports: &'r [SubsystemReport], name: &str) -> &'r SubsystemReport {
        reports.iter().find(|r| r.name == name).expect("every tenant reports")
    }

    #[test]
    fn every_subsystem_reports_from_the_shared_trace() {
        let reports = tenant_reports(&full_stack_scenario().run().trace);
        let names: Vec<&str> = reports.iter().map(|r| r.name).collect();
        assert_eq!(names, ["rms", "faas", "failure", "bigdata", "graph", "gaming"]);
        for report in &reports {
            assert!(!report.metrics.is_empty(), "{} reported no metrics", report.name);
        }
        assert!(tenant(&reports, "rms").get("tasks_finished").unwrap_or(0.0) > 0.0);
        assert!(tenant(&reports, "faas").get("invocations").unwrap_or(0.0) > 0.0);
        assert!(tenant(&reports, "gaming").get("players_admitted").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn standalone_and_composed_reports_share_one_shape() {
        // A standalone single-tenant run and the same tenant's slice of a
        // composed run report through the identical code path.
        let standalone = mcs_gaming::actor::run_gaming_standalone(
            &GamingConfig::default(),
            11,
            SimTime::from_secs(2 * 3600),
        );
        let solo = tenant_reports(&standalone);
        let composed = tenant_reports(&full_stack_scenario().run().trace);
        let names = |r: &[SubsystemReport]| {
            r.iter().map(|r| r.metrics.iter().map(|(m, _)| *m).collect::<Vec<_>>()).collect::<Vec<_>>()
        };
        assert_eq!(names(&solo), names(&composed));
        assert!(tenant(&solo, "gaming").get("players_admitted").unwrap_or(0.0) > 0.0);
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
        let (full, streaming) = (tenant_reports(&full), tenant_reports(&streaming));
        assert_eq!(full.len(), streaming.len());
        for (a, b) in full.iter().zip(&streaming) {
            assert_eq!(a.name, b.name);
            for &(metric, value) in &a.metrics {
                match b.get(metric) {
                    Some(v) => assert_eq!(v.to_bits(), value.to_bits(), "{}/{metric}", a.name),
                    // The one row no rollup can answer is absent, never 0.
                    None => assert_eq!((a.name, metric), ("graph", "straggler_supersteps")),
                }
            }
            assert!(b.metrics.iter().all(|(m, _)| a.get(m).is_some()), "{}", a.name);
        }
    }
}
