//! The full-stack ecosystem experiment: every subsystem the repo models —
//! batch scheduling, autoscaled FaaS, MapReduce/dataflow, graph analytics,
//! the gaming virtual world, and correlated failures — composed on one
//! engine run (the paper's Fig. 1 full stack plus the Fig. 4 gaming
//! world). Every report row is computed from the shared trace bus through
//! [`tenant_reports`](mcs::core::subsystem::tenant_reports), one report per
//! tenant; the cross-tenant section quantifies the interference channel
//! (big-data shuffle windows pressuring graph supersteps and gaming zone
//! capacity) that only exists because the subsystems share a simulation.

use crate::f;
use mcs::core::scenario::{
    BigdataConfig, GamingConfig, GraphConfig, Scenario, ScenarioConfig, ScenarioOutcome,
};
use mcs::prelude::*;
use mcs::simcore::par;

/// The full-stack composed run as an [`Experiment`].
pub struct EcosystemFull;

fn config(seed: u64) -> ScenarioConfig {
    ScenarioConfig { seed, ..ScenarioConfig::default() }
        .with_bigdata(BigdataConfig::default())
        .with_graph(GraphConfig { vertices: 1_000, edges: 4_000, ..GraphConfig::default() })
        .with_gaming(GamingConfig::default())
}

fn run(seed: u64) -> ScenarioOutcome {
    Scenario::new(config(seed)).run()
}

/// Virtual minutes of big-data shuffle pressure, from paired
/// `shuffle_start`/`shuffle_end` records. `None` on a streaming bus, which
/// keeps no event times to pair.
fn shuffle_minutes(trace: &TraceBus) -> Option<f64> {
    if trace.is_streaming() {
        return None;
    }
    let starts = trace.select("bigdata", "shuffle_start");
    let ends = trace.select("bigdata", "shuffle_end");
    let open: f64 = starts.iter().map(|e| e.at.as_secs_f64()).sum();
    let close: f64 = ends.iter().map(|e| e.at.as_secs_f64()).sum();
    Some((close - open).max(0.0) / 60.0)
}

/// Graph supersteps that started inside a shuffle-pressure window vs
/// outside, with the straggler count for each population. `None` on a
/// streaming bus, which keeps no event times to place supersteps by.
fn straggler_split(trace: &TraceBus) -> Option<(usize, usize, usize, usize)> {
    if trace.is_streaming() {
        return None;
    }
    // Reconstruct the pressure windows the graph actor saw from its own
    // `pressure` records (windows > 0 means under pressure).
    let mut windows: Vec<(f64, bool)> = trace
        .select("graph", "pressure")
        .iter()
        .map(|e| (e.at.as_secs_f64(), e.field_f64("windows").unwrap_or(0.0) > 0.0))
        .collect();
    windows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let under_pressure_at = |t: f64| -> bool {
        windows.iter().take_while(|(at, _)| *at <= t).last().is_some_and(|&(_, on)| on)
    };
    let (mut inside, mut inside_straggler, mut outside, mut outside_straggler) = (0, 0, 0, 0);
    for e in trace.select("graph", "superstep_start") {
        let straggler = e.field_f64("slowdown").unwrap_or(1.0) > 1.0;
        if under_pressure_at(e.at.as_secs_f64()) {
            inside += 1;
            inside_straggler += usize::from(straggler);
        } else {
            outside += 1;
            outside_straggler += usize::from(straggler);
        }
    }
    Some((inside, inside_straggler, outside, outside_straggler))
}

/// Renders a trace-derived figure, or says that a streaming bus cannot
/// give it rather than printing a silent zero.
fn or_streaming(value: Option<String>) -> String {
    value.unwrap_or_else(|| "n/a (streaming trace)".to_owned())
}

/// Stragglers per superstep of one population, at least one superstep.
fn rate(stragglers: usize, supersteps: usize) -> String {
    f(stragglers as f64 / supersteps.max(1) as f64, 3)
}

impl Experiment for EcosystemFull {
    fn name(&self) -> &'static str {
        "ecosystem_full"
    }

    fn run(&self, seed: u64) -> Report {
        let mut report = Report::new(
            self.name(),
            "Full-stack ecosystem — batch + FaaS + bigdata + graph + gaming + failures on one engine",
        )
        .with_seed(seed);

        let out = run(seed);

        // One uniform section per tenant, all reduced from the same trace.
        for r in tenant_reports(&out.trace) {
            let rows: Vec<Vec<String>> =
                r.metrics.into_iter().map(|(m, v)| vec![m.to_owned(), f(v, 3)]).collect();
            report = report.with_section(
                Section::new(format!("{} (from the shared trace bus)", r.name))
                    .table(&["metric", "value"], rows),
            );
        }

        // Cross-tenant interference: the channel that only exists because
        // all tenants share one simulation and one fleet.
        let split = straggler_split(&out.trace);
        report = report.with_section(
            Section::new("cross-tenant interference (bigdata shuffle vs co-tenants)")
                .table(
                    &["metric", "value"],
                    vec![
                        vec![
                            "shuffle pressure minutes".to_owned(),
                            or_streaming(shuffle_minutes(&out.trace).map(|m| f(m, 1))),
                        ],
                        vec![
                            "graph supersteps under pressure".to_owned(),
                            or_streaming(split.map(|(inside, ..)| inside.to_string())),
                        ],
                        vec![
                            "straggler rate under pressure".to_owned(),
                            or_streaming(split.map(|(ins, ins_s, ..)| rate(ins_s, ins))),
                        ],
                        vec![
                            "straggler rate outside pressure".to_owned(),
                            or_streaming(split.map(|(.., outs, outs_s)| rate(outs_s, outs))),
                        ],
                        vec![
                            "gaming pressure windows".to_owned(),
                            (out.trace.count("gaming", "pressure") / 2).to_string(),
                        ],
                        vec![
                            "gaming rejections".to_owned(),
                            out.gaming_rejected.to_string(),
                        ],
                    ],
                )
                .line(
                    "supersteps that land inside a shuffle window run slowed; gaming zones\n\
                     lose effective capacity over the same windows — one tenant's shuffle\n\
                     is every tenant's problem.",
                ),
        );

        // Seed sweep (parallel fan-out; results independent of
        // MCS_PAR_WORKERS): does the interference signal survive workload
        // randomness?
        let seeds: Vec<u64> = (0..4).map(|i| seed.wrapping_add(i)).collect();
        let rows: Vec<Vec<String>> = par::run_seeds(&seeds, |s| {
            let o = run(s);
            let split = straggler_split(&o.trace);
            vec![
                s.to_string(),
                o.bigdata_jobs.to_string(),
                o.graph_queries.to_string(),
                or_streaming(split.map(|(ins, ins_s, ..)| rate(ins_s, ins))),
                or_streaming(split.map(|(.., outs, outs_s)| rate(outs_s, outs))),
                o.gaming_admitted.to_string(),
                o.gaming_disconnected.to_string(),
            ]
        });
        report.with_section(
            Section::new("seed sweep (one composed run per worker)")
                .table(
                    &[
                        "seed",
                        "bd-jobs",
                        "gq",
                        "straggler-in",
                        "straggler-out",
                        "admitted",
                        "disconnected",
                    ],
                    rows,
                )
                .line(format!(
                    "engine delivered {} messages across 8 actors in {} h of virtual time",
                    out.events_handled,
                    f(config(seed).horizon.as_secs_f64() / 3600.0, 1),
                )),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs::simcore::trace::{Field, StreamConfig};

    #[test]
    fn event_time_rows_are_none_on_a_streaming_bus() {
        let mut full = TraceBus::new();
        let mut stream = TraceBus::streaming(StreamConfig::default());
        for bus in [&mut full, &mut stream] {
            bus.record_fields(SimTime::from_secs(60), "bigdata", "shuffle_start", &[]);
            bus.record_fields(SimTime::from_secs(180), "bigdata", "shuffle_end", &[]);
            let windows = [("windows", Field::U64(1))];
            bus.record_fields(SimTime::from_secs(60), "graph", "pressure", &windows);
            bus.record_fields(
                SimTime::from_secs(90),
                "graph",
                "superstep_start",
                &[("slowdown", Field::F64(1.5))],
            );
            bus.record_fields(SimTime::from_secs(30), "graph", "superstep_start", &[]);
        }
        assert_eq!(shuffle_minutes(&full), Some(2.0));
        assert_eq!(straggler_split(&full), Some((1, 1, 1, 0)));
        assert_eq!(shuffle_minutes(&stream), None);
        assert_eq!(straggler_split(&stream), None);
        assert_eq!(or_streaming(None), "n/a (streaming trace)");
    }
}
