//! The four benchmark workloads.
//!
//! Every configuration is written out here rather than imported from the
//! experiments, so editing an experiment never changes a workload. A
//! workload is a list of scenario configurations derived from one seed plus
//! the read queries its users run on each finished trace; one *rep* builds
//! the scenarios (set-up), runs them in order and queries every trace (run).

use mcs::autoscale::service::ServiceConfig;
use mcs::core::scenario::{
    BatchConfig, DagConfig, DagPolicy, FaasConfig, FailureConfig, GamingConfig, NetworkConfig,
    ObservabilityConfig, ScenarioConfig, ScenarioOutcome,
};
use mcs::faas::actor::CongestionConfig;
use mcs::failure::model::FaultMix;
use mcs::gaming::world::{PlayerModel, ZoneProvisioning};
use mcs::simcore::resilience::{Backoff, ResilienceConfig, RetryPolicy};
use mcs::simcore::time::{SimDuration, SimTime};
use mcs::simcore::trace::TraceBus;

/// One benchmark workload; `BENCHMARK.json` says why each exists.
pub struct Workload {
    /// Stable name, as `--workload` takes it.
    pub name: &'static str,
    /// Host seconds one rep took on the reference machine; a run of
    /// `--seconds s` does `s / nominal_rep_s` reps, so two commits run the
    /// same number of reps.
    pub nominal_rep_s: f64,
    /// Outcome digest of the rep at seed 42.
    pub pinned_digest: u64,
    /// The scenario configurations of one rep, in run order.
    pub configs: fn(u64) -> Vec<ScenarioConfig>,
    /// The read queries run on each finished trace; the answers join the
    /// outcome digest.
    pub queries: fn(&TraceBus) -> Vec<f64>,
    /// Sanity conditions every outcome must meet, whatever the seed.
    pub check: fn(&ScenarioOutcome) -> Result<(), String>,
}

/// The seed at which every workload's digest is pinned.
pub const PINNED_SEED: u64 = 42;

/// All workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "composed_batch",
        nominal_rep_s: 0.007,
        pinned_digest: 8_468_097_966_483_471_589,
        configs: composed_batch,
        queries: composed_queries,
        check: composed_check,
    },
    Workload {
        name: "resilience_sweep",
        nominal_rep_s: 0.145,
        pinned_digest: 8_086_832_548_529_940_196,
        configs: resilience_sweep,
        queries: resilience_queries,
        check: resilience_check,
    },
    Workload {
        name: "fabric_stress",
        nominal_rep_s: 0.55,
        pinned_digest: 3_260_025_901_376_849_869,
        configs: fabric_stress,
        queries: fabric_queries,
        check: fabric_check,
    },
    Workload {
        name: "dag_backlog",
        nominal_rep_s: 1.05,
        pinned_digest: 1_500_055_855_074_669_714,
        configs: dag_backlog,
        queries: dag_queries,
        check: dag_check,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `ScenarioConfig::default()`: 60 batch jobs, FaaS at 0.5/s, correlated
/// failures, full trace, no fabric — the composition the golden digest pins.
fn composed_batch(seed: u64) -> Vec<ScenarioConfig> {
    vec![ScenarioConfig {
        seed,
        ..ScenarioConfig::default()
    }]
}

/// The census and FaaS service quality a composed-ecosystem report reads.
fn composed_queries(trace: &TraceBus) -> Vec<f64> {
    let counts = trace.counts();
    let latency = trace.field_stats("faas", "invoke", "latency_secs");
    vec![
        counts.len() as f64,
        counts.iter().map(|(_, _, n)| *n as f64).sum(),
        latency.as_ref().map_or(0.0, |s| s.mean()),
        latency.as_ref().and_then(|s| s.max()).unwrap_or(0.0),
        trace
            .field_quantile("faas", "invoke", "latency_secs", 0.99)
            .unwrap_or(0.0),
        trace.count("rms", "task_finish") as f64,
    ]
}

fn composed_check(out: &ScenarioOutcome) -> Result<(), String> {
    ensure(out.arrivals > 0, "no FaaS arrivals")?;
    ensure(
        !out.schedule.completions.is_empty(),
        "no batch task finished",
    )
}

/// The end-to-end latency budget the resilience queries count against.
const SLO_SECS: f64 = 8.0;

/// A harsher-than-default composition (short MTBF, mixed faults, a
/// congested capped service) under one set of resilience mechanisms.
fn resilience_config(seed: u64, resilience: ResilienceConfig) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        horizon: SimTime::from_secs(4 * 3600),
        machines: 24,
        resilience,
        ..ScenarioConfig::default()
    }
    .with_batch(BatchConfig {
        jobs: 120,
        ..BatchConfig::default()
    })
    .with_faas(FaasConfig {
        arrival_rate: 1.2,
        initial_capacity: 8,
        service: ServiceConfig {
            scaling_interval: SimDuration::from_secs(300),
            provisioning_delay_intervals: 1,
            min_instances: 6,
            max_instances: 12,
            ..ServiceConfig::default()
        },
        congestion: Some(CongestionConfig {
            knee: 0.8,
            max_penalty: 2.5,
        }),
        ..FaasConfig::default()
    })
    .with_failures(FailureConfig {
        mtbf_secs: 3.0 * 3600.0,
        service_fault_secs: Some(45.0),
        failure_domain: 8,
        kill_fraction: 0.3,
        fault_mix: FaultMix {
            crash: 0.45,
            slowdown: 0.10,
            gray: 0.30,
            partition: 0.15,
            gray_error_rate: 1.0,
            ..FaultMix::crash_only()
        },
        schedule: None,
    })
}

/// Baseline, one variant per mechanism, the recovery trio, and all-on.
fn resilience_sweep(seed: u64) -> Vec<ScenarioConfig> {
    let mut all = ResilienceConfig::all_on();
    all.retry = Some(RetryPolicy {
        backoff: Backoff::DecorrelatedJitter {
            base: SimDuration::from_secs(2),
            cap: SimDuration::from_secs(60),
        },
        max_attempts: 6,
    });
    let none = ResilienceConfig::none;
    [
        none(),
        ResilienceConfig {
            retry: all.retry,
            retry_bulkhead: all.retry_bulkhead,
            ..none()
        },
        ResilienceConfig {
            breaker: all.breaker,
            ..none()
        },
        ResilienceConfig {
            shedder: all.shedder,
            ..none()
        },
        ResilienceConfig {
            restart: all.restart,
            ..none()
        },
        ResilienceConfig {
            retry: all.retry,
            retry_bulkhead: all.retry_bulkhead,
            breaker: all.breaker,
            restart: all.restart,
            ..none()
        },
        all,
    ]
    .into_iter()
    .map(|resilience| resilience_config(seed, resilience))
    .collect()
}

/// SLO attainment, goodput, availability and wasted work, read per event
/// off the retained trace.
fn resilience_queries(trace: &TraceBus) -> Vec<f64> {
    let invokes = trace.select("faas", "invoke");
    let within_slo = invokes
        .iter()
        .filter(|e| e.field_f64("latency_secs").is_some_and(|l| l <= SLO_SECS))
        .count();
    let wasted = |component: &str, event: &str, field: &str| -> f64 {
        trace
            .select(component, event)
            .iter()
            .filter_map(|e| e.field_f64(field))
            .sum()
    };
    let mut answers = vec![
        invokes.len() as f64,
        within_slo as f64,
        wasted("faas", "invoke_failed", "wasted_exec_secs"),
        wasted("rms", "machine_fail", "lost_core_secs"),
    ];
    for (component, event) in [
        ("workload", "arrival"),
        ("faas", "invoke_failed"),
        ("faas", "shed"),
        ("faas", "retry_scheduled"),
        ("faas", "breaker"),
        ("faas", "fault"),
        ("rms", "task_finish"),
        ("rms", "checkpoint_restore"),
        ("rms", "requeue_scheduled"),
    ] {
        answers.push(trace.count(component, event) as f64);
    }
    answers
}

fn resilience_check(out: &ScenarioOutcome) -> Result<(), String> {
    ensure(out.arrivals > 0, "no FaaS arrivals")?;
    ensure(out.outages_delivered > 0, "no fault struck")
}

/// The E7 scale composition at 4x: FaaS at 8/s and 1.5 players/s on the
/// default 32-node fabric, streaming trace with 600 s windows.
fn fabric_stress(seed: u64) -> Vec<ScenarioConfig> {
    const FACTOR: f64 = 4.0;
    let cfg = ScenarioConfig::bare(seed, SimTime::from_secs(4 * 3600), 32)
        .with_faas(FaasConfig {
            arrival_rate: 2.0 * FACTOR,
            max_arrivals: usize::MAX,
            initial_capacity: 64,
            service: ServiceConfig {
                scaling_interval: SimDuration::from_secs(300),
                provisioning_delay_intervals: 1,
                min_instances: 1,
                max_instances: 512,
                ..ServiceConfig::default()
            },
            ..FaasConfig::default()
        })
        .with_gaming(GamingConfig {
            players: PlayerModel {
                base_rate: 0.375 * FACTOR,
                ..PlayerModel::default()
            },
            provisioning: ZoneProvisioning::Elastic {
                min_zones: 2,
                max_zones: 2048,
                high_watermark: 0.8,
                low_watermark: 0.3,
                boot_delay: SimDuration::from_secs(60),
            },
            ..GamingConfig::default()
        })
        .with_network(NetworkConfig::default())
        .with_observability(ObservabilityConfig {
            window: Some(SimDuration::from_secs(600)),
            ..ObservabilityConfig::default()
        });
    vec![cfg]
}

/// Quantiles from the sketches, load over time from the windows, and the
/// fabric's stall, as the scale report reads them.
fn fabric_queries(trace: &TraceBus) -> Vec<f64> {
    let q = |q: f64| {
        trace
            .field_quantile("faas", "invoke", "latency_secs", q)
            .unwrap_or(0.0)
    };
    let windows = trace
        .window_counts("workload", "arrival")
        .unwrap_or_default();
    let stall = trace.field_stats("net", "flow_end", "stall_secs");
    vec![
        q(0.5),
        q(0.99),
        windows.len() as f64,
        windows.iter().copied().max().unwrap_or(0) as f64,
        stall.as_ref().map_or(0.0, |s| s.mean()),
        trace.recorded() as f64,
        trace.approx_retained_bytes() as f64,
    ]
}

fn fabric_check(out: &ScenarioOutcome) -> Result<(), String> {
    ensure(out.net_flows_delivered > 0, "the fabric delivered no flow")?;
    ensure(
        out.net_flows_delivered + out.net_flows_aborted <= out.net_flows_started,
        "the fabric finished more flows than it started",
    )
}

/// Workflows in the backlog workload.
pub const DAG_JOBS: usize = 800;

/// 800 mixed-class workflows of width 16, one every 15 s, under the
/// per-class portfolio, with every edge payload a flow on the fabric. The
/// horizon leaves room for the backlog to drain.
fn dag_backlog(seed: u64) -> Vec<ScenarioConfig> {
    let cfg = ScenarioConfig::bare(seed, SimTime::from_secs(12 * 3600), 32)
        .with_dag(DagConfig {
            jobs: DAG_JOBS,
            width: 16,
            submit_interval_secs: 15.0,
            policy: DagPolicy::Portfolio,
            ..DagConfig::default()
        })
        .with_network(NetworkConfig::default());
    vec![cfg]
}

/// The workflow report's aggregates: completions, makespan, time on wire.
fn dag_queries(trace: &TraceBus) -> Vec<f64> {
    let total = |event: &str, field: &str| {
        trace
            .field_stats("dag", event, field)
            .map_or(0.0, |s| s.mean() * s.count() as f64)
    };
    vec![
        trace.count("dag", "job_finish") as f64,
        trace.count("dag", "task_finish") as f64,
        trace
            .field_stats("dag", "job_finish", "makespan_secs")
            .map_or(0.0, |s| s.mean()),
        total("edge_xfer", "secs"),
        total("edge_xfer", "stall_secs"),
    ]
}

fn dag_check(out: &ScenarioOutcome) -> Result<(), String> {
    ensure(
        out.dag_jobs_finished == DAG_JOBS as u64,
        "not every workflow finished",
    )
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_owned())
    }
}
