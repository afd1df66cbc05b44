//! Deterministic chaos campaign over the composed ecosystem (E6): a
//! seed-derived grid of fault schedules replayed against the networked,
//! resilience-on stack, every run checked by the trace-invariant suite,
//! plus a seeded known-violation that is detected and ddmin-shrunk to a
//! minimal JSON reproducer.
//!
//! The paper's robustness claim is ecosystem-level: retries, breakers,
//! restarts, and flow aborts must compose into "nothing is silently lost"
//! under adversarial fault timing, not just under the average-case outage
//! process. This experiment makes the claim adversarial and machine-checked:
//! schedules are explicit (crash / slowdown / gray / partition windows),
//! runs are deterministic, invariants are evaluated over the shared trace
//! bus, and any violation is reduced to the smallest schedule that still
//! trips it — a hand-editable JSON artifact that replays forever.

use crate::f;
use mcs::chaos::campaign::{run_one, shrink_violation};
use mcs::chaos::{builtin_suite, Campaign, FaultSchedule, ScheduledFault};
use mcs::core::scenario::{BigdataConfig, NetworkConfig, ScenarioConfig};
use mcs::prelude::*;
use mcs::simcore::resilience::ResilienceConfig;
use mcs::simcore::rng::RngStream;

/// The chaos campaign as an [`Experiment`].
pub struct ChaosSweep;

/// The campaign target: batch + FaaS + bigdata on the shared fabric with
/// the full resilience portfolio on and a 30 s flow-abort timeout — the
/// configuration whose robustness the invariants certify.
fn campaign_base(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default()
        .with_resilience(ResilienceConfig::all_on())
        .with_bigdata(BigdataConfig::default());
    cfg.seed = seed;
    cfg.horizon = SimTime::from_secs(2 * 3600);
    cfg.machines = 16;
    cfg.network = Some(NetworkConfig {
        flow_timeout: Some(SimDuration::from_secs(30)),
        ..NetworkConfig::default()
    });
    cfg
}

/// A seed-derived schedule grid: the fault-free control plus `count` random
/// schedules mixing all four fault kinds over the first two-thirds of the
/// horizon (so every window can close and recovery is observable).
fn schedule_grid(seed: u64, machines: usize, horizon_secs: f64, count: usize) -> Vec<FaultSchedule> {
    let mut rng = RngStream::new(seed, "chaos-schedules");
    let mut schedules = vec![FaultSchedule::empty()];
    for _ in 0..count {
        let faults = (0..3 + rng.uniform_usize(3))
            .map(|_| {
                let at = rng.uniform_f64(60.0, horizon_secs * 2.0 / 3.0);
                let duration = rng.uniform_f64(60.0, 600.0);
                let target = rng.uniform_usize(machines) as u32;
                match rng.uniform_usize(4) {
                    0 => ScheduledFault::crash(at, duration, target),
                    1 => ScheduledFault::slowdown(at, duration, target, rng.uniform_f64(2.0, 8.0)),
                    2 => ScheduledFault::gray(at, duration, target, rng.uniform_f64(0.1, 0.8)),
                    _ => ScheduledFault::partition(at, duration, target),
                }
            })
            .collect();
        schedules.push(FaultSchedule::new(faults));
    }
    schedules
}

/// The seeded known-violation target: the same fabric with the flow-abort
/// timeout disabled, so a partition that never heals strands its flows
/// silently — exactly what `flow-conservation` exists to catch.
fn violation_base(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::bare(seed, SimTime::from_secs(4 * 3600), 16)
        .with_bigdata(BigdataConfig::default());
    cfg.network = Some(NetworkConfig { flow_timeout: None, ..NetworkConfig::default() });
    cfg
}

/// Crash noise plus horizon-length partitions across the data nodes: the
/// partitions strand flows, the crashes are irrelevant — shrinking must
/// keep (some of) the former and drop the latter.
fn violation_schedule() -> FaultSchedule {
    let mut faults = vec![
        ScheduledFault::crash(400.0, 120.0, 9),
        ScheduledFault::crash(2_000.0, 120.0, 10),
    ];
    for node in 0..8 {
        faults.push(ScheduledFault::partition(5.0, 4.0 * 3600.0, node));
    }
    FaultSchedule::new(faults)
}

impl Experiment for ChaosSweep {
    fn name(&self) -> &'static str {
        "chaos_sweep"
    }

    fn run(&self, seed: u64) -> Report {
        // ── The campaign grid ───────────────────────────────────────────
        let base = campaign_base(seed);
        let horizon_secs = base.horizon.as_secs_f64();
        let schedules = schedule_grid(seed, base.machines, horizon_secs, 4);
        let campaign = Campaign::new(base, schedules.clone(), vec![seed, seed.wrapping_add(1)]);
        let report = campaign.run().expect("campaign grid is valid by construction");

        let suite = builtin_suite();
        let fired = report.violations_by_invariant();
        let invariant_rows: Vec<Vec<String>> = suite
            .iter()
            .map(|inv| {
                let (cells, total) = fired
                    .iter()
                    .find(|(name, _, _)| *name == inv.name())
                    .map_or((0, 0), |&(_, cells, total)| (cells, total));
                vec![
                    inv.name().to_owned(),
                    format!("{}/{}", report.total_runs() - cells, report.total_runs()),
                    total.to_string(),
                ]
            })
            .collect();

        let run_rows: Vec<Vec<String>> = report
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.schedule_index.to_string(),
                    schedules[r.schedule_index].len().to_string(),
                    r.seed.to_string(),
                    r.violations.len().to_string(),
                    r.flows_aborted.to_string(),
                    f(r.stall_secs / 60.0, 1),
                    f(r.worst_flow_wait_secs, 1),
                    f(r.worst_breaker_open_secs, 1),
                ]
            })
            .collect();

        // ── The seeded known violation, detected and shrunk ─────────────
        let bad_base = violation_base(seed);
        let bad_schedule = violation_schedule();
        let bad_run = run_one(&bad_base, &bad_schedule, seed)
            .expect("violation schedule is valid by construction");
        let stranded: Vec<_> = bad_run
            .violations
            .iter()
            .filter(|v| v.invariant == "flow-conservation")
            .collect();
        let minimal = shrink_violation(&bad_base, &bad_schedule, seed, "flow-conservation")
            .expect("violating schedule shrinks");
        let replayed = run_one(&bad_base, &minimal, seed)
            .expect("minimal reproducer is a valid schedule");
        let reproduces = replayed
            .violations
            .iter()
            .any(|v| v.invariant == "flow-conservation");

        Report::new(
            self.name(),
            "Chaos campaign: scripted fault schedules vs the trace-invariant suite, with ddmin-shrunk reproducers",
        )
        .with_seed(seed)
        .with_section(
            Section::new("invariant suite over the campaign grid")
                .table(&["invariant", "runs-clean", "violations"], invariant_rows)
                .line(format!(
                    "{} schedules x 2 seeds on the networked resilient stack \
                     (batch+faas+bigdata, flow abort 30s); {} of {} runs clean",
                    schedules.len(),
                    report.clean_runs(),
                    report.total_runs()
                )),
        )
        .with_section(
            Section::new("per-run recovery statistics")
                .table(
                    &[
                        "schedule",
                        "faults",
                        "seed",
                        "violations",
                        "aborted",
                        "stall-min",
                        "worst-wait-s",
                        "worst-breaker-s",
                    ],
                    run_rows,
                )
                .line(
                    "worst-wait-s is the longest any single transfer waited on the fabric;\n\
                     worst-breaker-s the longest any circuit stayed open before re-closing",
                ),
        )
        .with_section(
            Section::new("seeded violation: stranded flows without abort")
                .table(
                    &["stage", "faults", "flow-conservation violations"],
                    vec![
                        vec![
                            "seeded (timeout off)".to_owned(),
                            bad_schedule.len().to_string(),
                            stranded.len().to_string(),
                        ],
                        vec![
                            "ddmin-shrunk".to_owned(),
                            minimal.len().to_string(),
                            replayed
                                .violations
                                .iter()
                                .filter(|v| v.invariant == "flow-conservation")
                                .count()
                                .to_string(),
                        ],
                    ],
                )
                .line(format!(
                    "reproducer replays to the same violation: {}",
                    if reproduces { "yes" } else { "NO — shrinking is broken" }
                ))
                .line(format!("minimal reproducer JSON: {}", minimal.to_json_string())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs::chaos::campaign::scripted_config;
    use mcs::chaos::{check_all, InvariantCx};
    use mcs::core::scenario::{ObservabilityConfig, Scenario};
    use mcs::simcore::error::McsError;

    #[test]
    fn campaign_runs_clean_and_catches_the_seeded_violation_at_seed_42() {
        let report = ChaosSweep.run(42);
        let text = report.render();
        // Every built-in invariant appears and the grid is clean.
        for inv in builtin_suite() {
            assert!(text.contains(inv.name()), "missing invariant row {}", inv.name());
        }
        assert!(text.contains("10 of 10 runs clean"), "campaign not clean:\n{text}");
        // The seeded violation is detected, shrunk, and replays.
        assert!(text.contains("reproducer replays to the same violation: yes"), "{text}");
        assert!(text.contains("minimal reproducer JSON: {\"faults\":["));
    }

    #[test]
    fn chaos_sweep_same_seed_is_byte_identical() {
        assert_eq!(ChaosSweep.run(7).to_json_string(), ChaosSweep.run(7).to_json_string());
    }

    #[test]
    fn invariant_suite_passes_on_the_golden_default_config() {
        // The same gate `chaos_sweep --check-invariants` runs in verify.sh:
        // the legacy default composition must satisfy every monitor.
        let cfg = ScenarioConfig::default();
        let cx = InvariantCx::from_config(&cfg);
        let outcome = Scenario::new(cfg).run();
        let violations = check_all(&outcome.trace, &cx);
        assert!(violations.is_empty(), "default-config violations: {violations:?}");
    }

    /// The seeded violation's base on the streaming trace sink, which
    /// retains no records for the invariants to read.
    fn streaming_violation_base(seed: u64) -> ScenarioConfig {
        violation_base(seed).with_observability(ObservabilityConfig::default())
    }

    #[test]
    #[should_panic(expected = "full-retention trace")]
    fn check_all_refuses_a_streaming_trace() {
        let cfg = scripted_config(&streaming_violation_base(42), &violation_schedule(), 42)
            .expect("violation schedule is valid by construction");
        let cx = InvariantCx::from_config(&cfg);
        let outcome = Scenario::new(cfg).run();
        check_all(&outcome.trace, &cx);
    }

    #[test]
    fn run_one_refuses_a_streaming_config() {
        let result = run_one(&streaming_violation_base(42), &violation_schedule(), 42);
        assert!(matches!(result, Err(McsError::Config(_))), "{result:?}");
    }
}
