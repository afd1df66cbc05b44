//! The resilience-ablation experiment: the composed ecosystem under
//! space-correlated failures with a mixed fault vocabulary (crashes,
//! slowdowns, gray failures, partitions), run once with no resilience, once
//! per mechanism, and once with everything on. Every report row is computed
//! from the shared trace bus — SLO attainment, goodput, availability, and
//! wasted work all come from the same records the mechanisms emit.

use crate::f;
use mcs::core::scenario::{Scenario, ScenarioConfig, ScenarioOutcome};
use mcs::prelude::*;
use mcs::simcore::par;

/// End-to-end invocation latency budget: an invocation that lands within
/// this many (virtual) seconds counts toward SLO attainment and goodput.
pub(crate) const SLO_SECS: f64 = 8.0;

/// The resilience-ablation run as an [`Experiment`].
pub struct ResilienceAblation;

/// A harsher-than-default composed scenario: short MTBF, a mixed fault
/// vocabulary, a congested service, and a capacity cap low enough that the
/// governor's raw target can exceed it. Identical for every variant — only
/// the resilience mechanisms differ.
fn config(seed: u64, resilience: ResilienceConfig) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        horizon: SimTime::from_secs(4 * 3600),
        machines: 24,
        resilience,
        ..ScenarioConfig::default()
    }
    .with_batch(BatchConfig { jobs: 120, ..BatchConfig::default() })
    .with_faas(FaasConfig {
        arrival_rate: 1.2,
        initial_capacity: 8,
        service: ServiceConfig {
            scaling_interval: SimDuration::from_secs(300),
            provisioning_delay_intervals: 1,
            min_instances: 6,
            max_instances: 12,
        },
        congestion: Some(CongestionConfig { knee: 0.8, max_penalty: 2.5 }),
        ..FaasConfig::default()
    })
    .with_failures(FailureConfig {
        // Dense enough that every mechanism gets exercised, sparse enough
        // that the service has healthy stretches for retries to land in.
        mtbf_secs: 3.0 * 3600.0,
        // Service blips are transient (~45 s), unlike machine repairs.
        service_fault_secs: Some(45.0),
        failure_domain: 8,
        kill_fraction: 0.3,
        fault_mix: FaultMix {
            crash: 0.45,
            slowdown: 0.10,
            gray: 0.30,
            partition: 0.15,
            // Hard gray failures: every invocation in the window fails (but
            // still burns its execution time). This keeps the ablation
            // honest — a breaker can only avoid doomed work, never block a
            // would-be success.
            gray_error_rate: 1.0,
        },
        schedule: None,
    })
}

/// The ablation grid: baseline, one variant per mechanism, the recovery trio
/// the acceptance shape names (retries + checkpoint-restart + breaker), and
/// everything on.
pub(crate) fn variants() -> Vec<(&'static str, ResilienceConfig)> {
    let mut all = ResilienceConfig::all_on();
    // Longer-reach retries than the library default: fault windows run for
    // minutes, so the backoff chain must be able to span a window tail.
    all.retry = Some(RetryPolicy {
        backoff: Backoff::DecorrelatedJitter {
            base: SimDuration::from_secs(2),
            cap: SimDuration::from_secs(60),
        },
        max_attempts: 6,
    });
    vec![
        ("baseline", ResilienceConfig::none()),
        (
            "retry",
            ResilienceConfig {
                retry: all.retry,
                retry_bulkhead: all.retry_bulkhead,
                ..ResilienceConfig::none()
            },
        ),
        ("breaker", ResilienceConfig { breaker: all.breaker, ..ResilienceConfig::none() }),
        ("shedder", ResilienceConfig { shedder: all.shedder, ..ResilienceConfig::none() }),
        ("restart", ResilienceConfig { restart: all.restart, ..ResilienceConfig::none() }),
        (
            "recovery-trio",
            ResilienceConfig {
                retry: all.retry,
                retry_bulkhead: all.retry_bulkhead,
                breaker: all.breaker,
                restart: all.restart,
                ..ResilienceConfig::none()
            },
        ),
        ("all-on", all),
    ]
}

/// Everything one ablation row reports, computed from the trace bus alone.
#[derive(Debug, Clone, Copy)]
pub struct AblationMetrics {
    pub arrivals: usize,
    pub ok: usize,
    pub within_slo: usize,
    pub failed: usize,
    pub shed: usize,
    pub retries: usize,
    pub breaker_events: usize,
    pub wasted_core_secs: f64,
    pub batch_finishes: usize,
    pub restores: usize,
    pub horizon_hours: f64,
}

impl AblationMetrics {
    /// Fraction of arrivals served within the latency SLO.
    pub fn slo_attainment(&self) -> f64 {
        self.within_slo as f64 / self.arrivals.max(1) as f64
    }

    /// Within-SLO completions per virtual hour.
    pub fn goodput_per_hour(&self) -> f64 {
        self.within_slo as f64 / self.horizon_hours
    }

    /// Fraction of arrivals that received *any* successful response.
    pub fn availability(&self) -> f64 {
        self.ok as f64 / self.arrivals.max(1) as f64
    }
}

/// Reduces one composed run to its ablation row, straight off the bus.
pub fn measure(out: &ScenarioOutcome, horizon_hours: f64) -> AblationMetrics {
    let invokes = out.trace.select("faas", "invoke");
    let within_slo = invokes
        .iter()
        .filter(|e| e.field_f64("latency_secs").is_some_and(|l| l <= SLO_SECS))
        .count();
    let wasted_faas: f64 = out
        .trace
        .select("faas", "invoke_failed")
        .iter()
        .filter_map(|e| e.field_f64("wasted_exec_secs"))
        .sum();
    let wasted_batch: f64 = out
        .trace
        .select("rms", "machine_fail")
        .iter()
        .filter_map(|e| e.field_f64("lost_core_secs"))
        .sum();
    AblationMetrics {
        arrivals: out.trace.count("workload", "arrival"),
        ok: invokes.len(),
        within_slo,
        failed: out.trace.count("faas", "invoke_failed"),
        shed: out.trace.count("faas", "shed"),
        retries: out.trace.count("faas", "retry_scheduled"),
        breaker_events: out.trace.count("faas", "breaker"),
        wasted_core_secs: wasted_faas + wasted_batch,
        batch_finishes: out.trace.count("rms", "task_finish"),
        restores: out.trace.count("rms", "checkpoint_restore"),
        horizon_hours,
    }
}

/// Runs the full ablation grid at one seed, one variant per fan-out worker
/// (see [`par::run_scenarios`]; `MCS_PAR_WORKERS` sets the width). Rows come
/// back in grid order whatever the worker count, and each variant owns its
/// own `Simulation`, RNG streams, and trace bus, so the rows are identical
/// to a serial sweep's.
pub fn run_ablation(seed: u64) -> Vec<(&'static str, AblationMetrics, ScenarioOutcome)> {
    let grid = variants();
    par::run_scenarios(&grid, |(name, resilience)| {
        let cfg = config(seed, *resilience);
        let horizon_hours = cfg.horizon.as_secs_f64() / 3600.0;
        let out = Scenario::new(cfg).run();
        let metrics = measure(&out, horizon_hours);
        (*name, metrics, out)
    })
}

impl Experiment for ResilienceAblation {
    fn name(&self) -> &'static str {
        "resilience_ablation"
    }

    fn run(&self, seed: u64) -> Report {
        let mut report = Report::new(
            self.name(),
            "Resilience ablation — baseline vs each mechanism vs all-on under \
             space-correlated mixed faults",
        )
        .with_seed(seed);

        let rows_data = run_ablation(seed);

        let rows: Vec<Vec<String>> = rows_data
            .iter()
            .map(|(name, m, _)| {
                vec![
                    (*name).to_owned(),
                    m.arrivals.to_string(),
                    m.ok.to_string(),
                    m.failed.to_string(),
                    m.shed.to_string(),
                    f(m.slo_attainment(), 3),
                    f(m.goodput_per_hour(), 1),
                    f(m.availability(), 3),
                    f(m.wasted_core_secs, 0),
                    m.batch_finishes.to_string(),
                ]
            })
            .collect();
        report = report.with_section(
            Section::new(format!(
                "ablation grid (SLO = {} s end-to-end; identical faults, congestion, and seed)",
                f(SLO_SECS, 1)
            ))
            .table(
                &[
                    "variant",
                    "arrivals",
                    "ok",
                    "failed",
                    "shed",
                    "slo-att",
                    "goodput/h",
                    "avail",
                    "wasted-core-s",
                    "batch-done",
                ],
                rows,
            )
            .line(
                "baseline absorbs every fault; retry recovers gray/partition windows;\n\
                 the breaker converts repeated failures into fast-fails; the shedder\n\
                 drops load the governor cannot provision for; restart preserves\n\
                 batch progress across crashes.",
            ),
        );

        // Per-variant resilience action census: the mechanisms narrate
        // themselves onto the bus.
        let census_rows: Vec<Vec<String>> = rows_data
            .iter()
            .map(|(name, m, out)| {
                vec![
                    (*name).to_owned(),
                    m.retries.to_string(),
                    m.breaker_events.to_string(),
                    m.shed.to_string(),
                    out.trace.count("rms", "requeue_scheduled").to_string(),
                    m.restores.to_string(),
                    out.trace.count("faas", "fault").to_string(),
                ]
            })
            .collect();
        report = report.with_section(
            Section::new("resilience actions observed on the trace bus")
                .table(
                    &[
                        "variant",
                        "retries",
                        "breaker-transitions",
                        "shed",
                        "requeues-scheduled",
                        "checkpoint-restores",
                        "fault-windows",
                    ],
                    census_rows,
                ),
        );

        let baseline = rows_data[0].1;
        let trio = rows_data
            .iter()
            .find(|(n, _, _)| *n == "recovery-trio")
            .map(|(_, m, _)| *m)
            .expect("recovery-trio variant present");
        report.with_section(Section::new("shape check").line(format!(
            "recovery trio vs baseline: SLO attainment {} -> {}, goodput/h {} -> {};\n\
             the all-on row must dominate every single-mechanism row on >=1 metric\n\
             (asserted by the crate's shape test).",
            f(baseline.slo_attainment(), 3),
            f(trio.slo_attainment(), 3),
            f(baseline.goodput_per_hour(), 1),
            f(trio.goodput_per_hour(), 1),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_shape_holds_at_default_seed() {
        let rows = run_ablation(crate::DEFAULT_SEED);
        let metric =
            |name: &str| rows.iter().find(|(n, _, _)| *n == name).map(|(_, m, _)| *m).unwrap();
        let baseline = metric("baseline");

        // Retries + checkpoint-restart + circuit breaking strictly improve
        // SLO attainment and goodput over the no-resilience baseline.
        let trio = metric("recovery-trio");
        assert!(
            trio.slo_attainment() > baseline.slo_attainment(),
            "trio SLO attainment {} !> baseline {}",
            trio.slo_attainment(),
            baseline.slo_attainment()
        );
        assert!(
            trio.goodput_per_hour() > baseline.goodput_per_hour(),
            "trio goodput {} !> baseline {}",
            trio.goodput_per_hour(),
            baseline.goodput_per_hour()
        );

        // The all-on row dominates every single-mechanism row on >=1 metric.
        let all = metric("all-on");
        for single in ["retry", "breaker", "shedder", "restart"] {
            let m = metric(single);
            let dominates = all.slo_attainment() > m.slo_attainment()
                || all.goodput_per_hour() > m.goodput_per_hour()
                || all.availability() > m.availability()
                || all.wasted_core_secs < m.wasted_core_secs;
            assert!(dominates, "all-on does not beat {single} on any metric: {all:?} vs {m:?}");
        }
    }

    #[test]
    fn invariant_suite_holds_on_every_ablation_variant() {
        // The chaos monitors must hold on every healthy trace this
        // experiment produces — all mechanisms, all fault kinds, no network.
        use mcs::chaos::{check_all, InvariantCx};
        for (name, resilience) in variants() {
            let cfg = config(crate::DEFAULT_SEED, resilience);
            let cx = InvariantCx::from_config(&cfg);
            let out = Scenario::new(cfg).run();
            let violations = check_all(&out.trace, &cx);
            assert!(violations.is_empty(), "variant {name}: {violations:?}");
        }
    }

    #[test]
    fn every_mechanism_leaves_trace_evidence() {
        let rows = run_ablation(crate::DEFAULT_SEED);
        let get = |name: &str| rows.iter().find(|(n, _, _)| *n == name).unwrap();
        assert!(get("retry").1.retries > 0, "retry variant scheduled no retries");
        assert!(get("breaker").1.breaker_events > 0, "breaker never transitioned");
        assert!(get("restart").1.restores > 0, "restart never restored a checkpoint");
        // The baseline emits none of them.
        let (_, b, out) = get("baseline");
        assert_eq!(b.retries + b.breaker_events + b.shed + b.restores, 0);
        assert_eq!(out.trace.count("rms", "requeue_scheduled"), 0);
    }
}
