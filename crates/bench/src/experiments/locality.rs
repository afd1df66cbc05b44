//! Locality-aware vs locality-blind batch placement under shuffle
//! contention, on the flow-level network model (`mcs-net`).
//!
//! Six overlapping MapReduce jobs run on a bare scenario whose only other
//! tenant is the shared fabric. With locality-aware map placement almost
//! every block is read node-locally and only the shuffles contend for
//! uplinks; with locality-blind placement the map phases ship most of the
//! input across the fabric, the shuffle flows inherit the congestion, and
//! the makespan stretches. The experiment quantifies the gap — the paper's
//! point that the network layer the programmer never sees sets the
//! performance envelope — with every metric computed from the shared trace
//! bus (`bigdata job_finish` records and `net flow_end` records).

use crate::f;
use mcs::bigdata::locality::MapPhaseConfig;
use mcs::core::scenario::{BigdataConfig, NetworkConfig, Scenario, ScenarioConfig};
use mcs::prelude::*;
use mcs::simcore::par;

/// The placement-under-contention comparison as an [`Experiment`].
pub struct LocalityContention;

/// A bare scenario: the big-data stack and the fabric, nothing else, so the
/// only contention is the contention under study.
fn config(seed: u64, locality_aware: bool) -> ScenarioConfig {
    ScenarioConfig::bare(seed, SimTime::from_secs(4 * 3600), 24)
        .with_bigdata(BigdataConfig {
            jobs: 6,
            stages_per_job: 2,
            submit_interval_secs: 120.0,
            input_mb: 4_096,
            map: MapPhaseConfig { locality_aware, ..MapPhaseConfig::default() },
        })
        .with_network(NetworkConfig {
            node_bandwidth_mbs: 25.0,
            rack_bandwidth_mbs: 100.0,
            ..NetworkConfig::default()
        })
}

/// Everything one placement policy measures, all derived from the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PlacementRow {
    jobs_finished: usize,
    makespan_secs: f64,
    flows: usize,
    gib_moved: f64,
    transfer_secs: f64,
    stall_secs: f64,
}

fn measure(trace: &TraceBus) -> PlacementRow {
    let finishes = trace.select("bigdata", "job_finish");
    let makespan_secs =
        finishes.iter().map(|e| e.at.as_secs_f64()).fold(0.0, f64::max);
    let ends = trace.select("net", "flow_end");
    let sum = |key: &str| -> f64 { ends.iter().filter_map(|e| e.field_f64(key)).sum() };
    PlacementRow {
        jobs_finished: finishes.len(),
        makespan_secs,
        flows: ends.len(),
        gib_moved: sum("bytes") / (1024.0 * 1024.0 * 1024.0),
        transfer_secs: sum("secs"),
        stall_secs: sum("stall_secs"),
    }
}

fn run(seed: u64, locality_aware: bool) -> PlacementRow {
    measure(&Scenario::new(config(seed, locality_aware)).run().trace)
}

impl Experiment for LocalityContention {
    fn name(&self) -> &'static str {
        "locality_contention"
    }

    fn run(&self, seed: u64) -> Report {
        let aware = run(seed, true);
        let blind = run(seed, false);

        let row = |name: &str, r: PlacementRow| -> Vec<String> {
            vec![
                name.to_owned(),
                r.jobs_finished.to_string(),
                f(r.makespan_secs / 60.0, 1),
                r.flows.to_string(),
                f(r.gib_moved, 2),
                f(r.transfer_secs / 60.0, 1),
                f(r.stall_secs / 60.0, 1),
            ]
        };

        let mut report = Report::new(
            self.name(),
            "Locality-aware vs locality-blind map placement under shuffle contention on the shared fabric",
        )
        .with_seed(seed)
        .with_section(
            Section::new("placement policies, same fabric, same seed")
                .table(
                    &[
                        "placement",
                        "jobs",
                        "makespan-min",
                        "flows",
                        "GiB-moved",
                        "transfer-min",
                        "stall-min",
                    ],
                    vec![row("locality-aware", aware), row("locality-blind", blind)],
                )
                .line(
                    "blind placement ships most map input across the fabric; the extra\n\
                     flows crowd the same links the shuffles need, so transfers stall\n\
                     and the job makespan stretches — locality is a network property.",
                ),
        );

        // Seed sweep (parallel fan-out; results independent of
        // MCS_PAR_WORKERS): does the aware-beats-blind gap survive workload
        // randomness?
        let seeds: Vec<u64> = (0..4).map(|i| seed.wrapping_add(i)).collect();
        let rows: Vec<Vec<String>> = par::run_seeds(&seeds, |s| {
            let a = run(s, true);
            let b = run(s, false);
            vec![
                s.to_string(),
                f(a.makespan_secs / 60.0, 1),
                f(b.makespan_secs / 60.0, 1),
                f(b.makespan_secs / a.makespan_secs.max(1e-9), 2),
                f(a.stall_secs / 60.0, 1),
                f(b.stall_secs / 60.0, 1),
            ]
        });
        report = report.with_section(
            Section::new("seed sweep (aware vs blind per seed)")
                .table(
                    &[
                        "seed",
                        "aware-min",
                        "blind-min",
                        "blind/aware",
                        "aware-stall-min",
                        "blind-stall-min",
                    ],
                    rows,
                )
                .line("makespans in virtual minutes; blind/aware > 1 means locality won"),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_aware_beats_blind_under_contention_at_seed_42() {
        let aware = run(42, true);
        let blind = run(42, false);
        assert_eq!(aware.jobs_finished, 6, "aware run must finish all jobs");
        assert!(
            aware.makespan_secs < blind.makespan_secs,
            "aware {:.0}s should beat blind {:.0}s",
            aware.makespan_secs,
            blind.makespan_secs
        );
        assert!(
            aware.stall_secs < blind.stall_secs,
            "aware stall {:.0}s should undercut blind stall {:.0}s",
            aware.stall_secs,
            blind.stall_secs
        );
        assert!(blind.gib_moved > aware.gib_moved, "blind must ship more bytes");
    }

    #[test]
    fn report_carries_both_policies() {
        let report = LocalityContention.run(42);
        let text = report.render();
        assert!(text.contains("locality-aware"));
        assert!(text.contains("locality-blind"));
    }
}
