//! The chaos campaign driver: a seed-swept grid of fault schedules, run in
//! parallel, checked against the invariant suite, with violating schedules
//! shrunk to minimal reproducers.
//!
//! A [`Campaign`] is `schedules × seeds` scripted scenario runs. Each run
//! replaces the base configuration's stochastic failure generator with one
//! explicit [`FaultSchedule`] (everything else — workload, topology,
//! resilience budgets — stays as configured), replays it deterministically,
//! and evaluates the full built-in invariant suite over the resulting
//! trace. The grid fans out over `mcs_simcore::par`, which returns results
//! in grid order regardless of worker count, so a campaign report is
//! byte-stable for a given `(base, schedules, seeds)` triple.
//!
//! When a run violates an invariant, [`shrink_violation`] delta-debugs the
//! schedule down to a 1-minimal reproducer: the smallest sub-schedule that
//! still trips the same invariant under the same seed. Because runs are
//! deterministic, the reproducer's JSON form replays the violation exactly.

use crate::invariant::{check_all, InvariantCx, Violation};
use crate::schedule::FaultSchedule;
use crate::shrink::ddmin;
use mcs_core::scenario::{FailureConfig, Scenario, ScenarioConfig};
use mcs_simcore::error::McsError;
use mcs_simcore::par;
use std::collections::BTreeMap;

/// The base configuration with one scripted schedule swapped in: the seed is
/// replaced, the failure slice replays exactly `schedule`, and every other
/// knob (including the stochastic generator's parameters, which scripted
/// mode ignores) is preserved.
pub fn scripted_config(
    base: &ScenarioConfig,
    schedule: &FaultSchedule,
    seed: u64,
) -> Result<ScenarioConfig, McsError> {
    let faults = schedule.to_faults()?;
    let mut cfg = base.clone();
    cfg.seed = seed;
    cfg.failure = Some(match &base.failure {
        Some(failure) => FailureConfig { schedule: Some(faults), ..failure.clone() },
        None => FailureConfig::scripted(faults),
    });
    Ok(cfg)
}

/// One grid cell's outcome: the violations found plus the recovery
/// statistics the campaign report aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Index of the schedule in the campaign's grid.
    pub schedule_index: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Invariant violations found on the trace (empty: a clean run).
    pub violations: Vec<Violation>,
    /// Flows the fabric aborted after stalling on a cut endpoint.
    pub flows_aborted: u64,
    /// Total seconds flows lost to contention, faults, and degraded links.
    pub stall_secs: f64,
    /// Longest single-flow wait observed (seconds): worst-case transfer
    /// recovery time.
    pub worst_flow_wait_secs: f64,
    /// Longest breaker open→closed gap observed (seconds): worst-case
    /// service recovery time.
    pub worst_breaker_open_secs: f64,
}

/// Runs one scripted scenario and checks the invariant suite over its trace.
///
/// The `schedule_index` of the returned result is `0`; the campaign grid
/// overwrites it with the cell's position. A base with `observability` set
/// is a configuration error: the checks read retained records, which a
/// streaming trace does not keep.
pub fn run_one(
    base: &ScenarioConfig,
    schedule: &FaultSchedule,
    seed: u64,
) -> Result<RunResult, McsError> {
    if base.observability.is_some() {
        return Err(McsError::Config(
            "chaos runs need a full-retention trace; unset observability".into(),
        ));
    }
    let cfg = scripted_config(base, schedule, seed)?;
    let cx = InvariantCx::from_config(&cfg);
    let outcome = Scenario::try_new(cfg)?.run();
    let violations = check_all(&outcome.trace, &cx);

    let worst_flow_wait_secs = ["flow_end", "flow_aborted"]
        .iter()
        .flat_map(|event| outcome.trace.select("net", event))
        .filter_map(|e| e.field_f64("waited_secs"))
        .fold(0.0f64, f64::max);

    // Worst open→closed gap per breaker: how long any function's circuit
    // stayed tripped before recovering.
    let mut open_since: BTreeMap<String, f64> = BTreeMap::new();
    let mut worst_breaker_open_secs = 0.0f64;
    for e in outcome.trace.select("faas", "breaker") {
        let Some(function) = e.field_str("function") else { continue };
        match e.field_str("state") {
            Some("open") => {
                open_since.entry(function.to_owned()).or_insert(e.at.as_secs_f64());
            }
            Some("closed") => {
                if let Some(opened) = open_since.remove(function) {
                    worst_breaker_open_secs =
                        worst_breaker_open_secs.max(e.at.as_secs_f64() - opened);
                }
            }
            _ => {}
        }
    }

    Ok(RunResult {
        schedule_index: 0,
        seed,
        violations,
        flows_aborted: outcome.net_flows_aborted,
        stall_secs: outcome.net_stall_secs,
        worst_flow_wait_secs,
        worst_breaker_open_secs,
    })
}

/// A seed-swept grid of fault schedules over one base configuration.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The configuration every cell starts from.
    pub base: ScenarioConfig,
    /// The fault schedules to sweep (the grid's rows).
    pub schedules: Vec<FaultSchedule>,
    /// The master seeds to replay each schedule under (the grid's columns).
    pub seeds: Vec<u64>,
}

impl Campaign {
    /// A campaign over the given grid.
    pub fn new(base: ScenarioConfig, schedules: Vec<FaultSchedule>, seeds: Vec<u64>) -> Self {
        Campaign { base, schedules, seeds }
    }

    /// Runs the whole grid in parallel and collects the report.
    ///
    /// Results arrive in grid order (schedule-major, then seed) regardless
    /// of `MCS_PAR_WORKERS`, so the report is deterministic.
    pub fn run(&self) -> Result<CampaignReport, McsError> {
        self.base.validate()?;
        self.schedules.iter().try_for_each(FaultSchedule::validate)?;
        if self.seeds.is_empty() {
            return Err(McsError::invalid_config("campaign.seeds", "must be non-empty"));
        }
        let cells = self.schedules.len() * self.seeds.len();
        let runs = par::run_indexed(cells, |i| {
            let schedule_index = i / self.seeds.len();
            let seed = self.seeds[i % self.seeds.len()];
            let mut run = run_one(&self.base, &self.schedules[schedule_index], seed)
                .expect("campaign grid validated up front");
            run.schedule_index = schedule_index;
            run
        });
        Ok(CampaignReport { runs })
    }
}

/// The collected outcome of a campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// One result per grid cell, in grid order.
    pub runs: Vec<RunResult>,
}

impl CampaignReport {
    /// Grid cells executed.
    pub fn total_runs(&self) -> usize {
        self.runs.len()
    }

    /// Cells whose trace satisfied the whole invariant suite.
    pub fn clean_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.violations.is_empty()).count()
    }

    /// Per-invariant `(violating cells, total violations)` rows, sorted by
    /// invariant name — only invariants that fired appear.
    pub fn violations_by_invariant(&self) -> Vec<(&'static str, usize, usize)> {
        let mut rows: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for run in &self.runs {
            let mut fired: Vec<&'static str> =
                run.violations.iter().map(|v| v.invariant).collect();
            fired.sort_unstable();
            fired.dedup();
            for name in fired {
                rows.entry(name).or_default().0 += 1;
            }
            for v in &run.violations {
                rows.entry(v.invariant).or_default().1 += 1;
            }
        }
        rows.into_iter().map(|(name, (cells, total))| (name, cells, total)).collect()
    }

    /// The runs that violated the named invariant, in grid order.
    pub fn violating(&self, invariant: &str) -> Vec<&RunResult> {
        self.runs
            .iter()
            .filter(|r| r.violations.iter().any(|v| v.invariant == invariant))
            .collect()
    }

    /// Worst single-flow wait across the grid, seconds.
    pub fn worst_flow_wait_secs(&self) -> f64 {
        self.runs.iter().map(|r| r.worst_flow_wait_secs).fold(0.0, f64::max)
    }

    /// Worst breaker open→closed gap across the grid, seconds.
    pub fn worst_breaker_open_secs(&self) -> f64 {
        self.runs.iter().map(|r| r.worst_breaker_open_secs).fold(0.0, f64::max)
    }

    /// Flows aborted across the grid.
    pub fn flows_aborted(&self) -> u64 {
        self.runs.iter().map(|r| r.flows_aborted).sum()
    }
}

/// Shrinks a violating schedule to a 1-minimal reproducer of the named
/// invariant violation under the given seed.
///
/// The returned schedule still trips `invariant` when replayed with
/// [`run_one`] (the caller can serialize it with
/// [`FaultSchedule::to_json_string`] as a standalone reproducer). If the
/// input schedule does not actually violate the invariant, it is returned
/// unchanged.
pub fn shrink_violation(
    base: &ScenarioConfig,
    schedule: &FaultSchedule,
    seed: u64,
    invariant: &str,
) -> Result<FaultSchedule, McsError> {
    schedule.validate()?;
    let trips = |candidate: &FaultSchedule| -> bool {
        run_one(base, candidate, seed)
            .map(|run| run.violations.iter().any(|v| v.invariant == invariant))
            .unwrap_or(false)
    };
    let minimal = ddmin(&schedule.faults, |subset| trips(&FaultSchedule::new(subset.to_vec())));
    Ok(FaultSchedule::new(minimal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduledFault;
    use mcs_core::scenario::{BigdataConfig, NetworkConfig};
    use mcs_simcore::time::{SimDuration, SimTime};

    /// A small networked bigdata tenant: map-input and shuffle flows ride
    /// the fabric, so partitions have something to strand.
    fn networked_base(flow_timeout: Option<SimDuration>) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::bare(11, SimTime::from_secs(4 * 3600), 16)
            .with_bigdata(BigdataConfig::default());
        cfg.network = Some(NetworkConfig { flow_timeout, ..NetworkConfig::default() });
        cfg
    }

    #[test]
    fn campaign_grid_is_deterministic_and_ordered() {
        let campaign = Campaign::new(
            networked_base(Some(SimDuration::from_secs(30))),
            vec![
                FaultSchedule::empty(),
                FaultSchedule::new(vec![ScheduledFault::crash(600.0, 300.0, 3)]),
            ],
            vec![1, 2],
        );
        let report = campaign.run().unwrap();
        assert_eq!(report.total_runs(), 4);
        let cells: Vec<(usize, u64)> =
            report.runs.iter().map(|r| (r.schedule_index, r.seed)).collect();
        assert_eq!(cells, vec![(0, 1), (0, 2), (1, 1), (1, 2)]);
        // Same grid, same report — byte-stable across reruns.
        assert_eq!(campaign.run().unwrap(), report);
        // With aborts enabled and short faults, the suite holds everywhere.
        assert_eq!(report.clean_runs(), 4, "{:?}", report.violations_by_invariant());
    }

    #[test]
    fn empty_seed_grid_is_rejected() {
        let campaign =
            Campaign::new(networked_base(None), vec![FaultSchedule::empty()], Vec::new());
        assert!(campaign.run().is_err());
    }

    #[test]
    fn scripted_config_preserves_base_failure_knobs() {
        let mut base = networked_base(None);
        base.failure = Some(FailureConfig { kill_fraction: 0.9, ..FailureConfig::default() });
        let schedule = FaultSchedule::new(vec![ScheduledFault::crash(10.0, 5.0, 0)]);
        let cfg = scripted_config(&base, &schedule, 77).unwrap();
        assert_eq!(cfg.seed, 77);
        let failure = cfg.failure.unwrap();
        assert_eq!(failure.kill_fraction, 0.9);
        assert_eq!(failure.schedule.as_ref().map(Vec::len), Some(1));
    }

    /// The acceptance path: a schedule that strands flows with the abort
    /// machinery disabled violates flow conservation, and ddmin shrinks it
    /// to a partition-only reproducer that replays to the same violation.
    #[test]
    fn stranded_flows_are_detected_and_shrunk_to_a_minimal_reproducer() {
        let base = networked_base(None); // no flow timeout: strandings are silent
        let mut faults = vec![
            // Crash noise that contributes nothing to the violation.
            ScheduledFault::crash(400.0, 120.0, 9),
            ScheduledFault::crash(2_000.0, 120.0, 10),
        ];
        // Long partitions across the data nodes, never healing before the
        // horizon's grace window.
        for node in 0..8 {
            faults.push(ScheduledFault::partition(5.0, 4.0 * 3600.0, node));
        }
        let schedule = FaultSchedule::new(faults);

        let run = run_one(&base, &schedule, base.seed).unwrap();
        assert!(
            run.violations.iter().any(|v| v.invariant == "flow-conservation"),
            "expected a stranded-flow violation, got {:?}",
            run.violations
        );
        assert_eq!(run.flows_aborted, 0, "aborts are disabled in this config");

        let minimal =
            shrink_violation(&base, &schedule, base.seed, "flow-conservation").unwrap();
        assert!(!minimal.is_empty());
        assert!(minimal.len() < schedule.len(), "nothing was shrunk: {minimal:?}");
        assert!(
            minimal.faults.iter().all(|f| f.kind == "partition"),
            "crash noise survived shrinking: {minimal:?}"
        );

        // The serialized reproducer replays deterministically to the same
        // violation.
        let replayed = FaultSchedule::from_json_str(&minimal.to_json_string()).unwrap();
        let rerun = run_one(&base, &replayed, base.seed).unwrap();
        assert!(rerun.violations.iter().any(|v| v.invariant == "flow-conservation"));
        // And the matching run with aborts enabled is clean: the satellite
        // fix (flow timeouts) is exactly what the invariant demands.
        let fixed = networked_base(Some(SimDuration::from_secs(30)));
        let fixed_run = run_one(&fixed, &replayed, fixed.seed).unwrap();
        assert!(
            fixed_run.violations.is_empty(),
            "abort-enabled run still violates: {:?}",
            fixed_run.violations
        );
        assert!(fixed_run.flows_aborted > 0);
    }
}
