//! Scale stress: the streaming observability fast path at volumes the
//! full-retention trace cannot hold.
//!
//! Three sections, all derived from simulated quantities (so same-seed
//! reruns are byte-identical and `MCS_PAR_WORKERS` never shows in the
//! output):
//!
//! 1. **Equivalence (1x)** — the same composed scenario run with the
//!    full-retention bus and the streaming bus: every aggregate query
//!    (counts, per-field statistics, time spans) must agree, with the
//!    streaming bus retaining a fraction of the bytes.
//! 2. **Scale ladder** — streaming runs at 1x/4x/10x the arrival volume
//!    (fanned out over `mcs::simcore::par` workers): events grow linearly,
//!    retained bytes stay flat.
//! 3. **Headline** — one streaming run driving 10M+ trace events from 2M+
//!    simulated users (FaaS invocations + game players) through the
//!    composed networked scenario. Wall-clock throughput goes to *stderr*
//!    (it is the one non-deterministic number here).

use crate::f;
use mcs::autoscale::service::ServiceConfig;
use mcs::core::scenario::{
    FaasConfig, GamingConfig, NetworkConfig, ObservabilityConfig, Scenario, ScenarioConfig,
    ScenarioOutcome,
};
use mcs::gaming::world::{PlayerModel, ZoneProvisioning};
use mcs::prelude::*;
use mcs::simcore::par;

/// The streaming-vs-full scale comparison as an [`Experiment`].
pub struct ScaleStress;

/// FaaS arrivals/second at 1x.
const BASE_FAAS_RATE: f64 = 2.0;
/// Player arrivals/second at 1x.
const BASE_PLAYER_RATE: f64 = 0.375;
/// Virtual horizon of every run.
const HORIZON_SECS: u64 = 4 * 3600;
/// Ladder rungs, as multiples of the 1x volume.
const LADDER: [f64; 3] = [1.0, 4.0, 10.0];
/// Headline volume: 30x the arrival rates over a doubled horizon puts
/// ~1.7M FaaS invocations and ~320k players (2M+ simulated users) on the
/// engine, for 10M+ trace events. Volume beyond 30x is added via the
/// horizon, not the rate: rate sets the *concurrency* the flow-level
/// fabric must fair-share (which is super-linear in overlapping flows),
/// horizon adds events at fixed concurrency.
const HEADLINE_FACTOR: f64 = 30.0;
/// Headline horizon multiplier (see [`HEADLINE_FACTOR`]).
const HEADLINE_HORIZON_MULT: u64 = 2;

/// The composed networked scenario at `factor` times the 1x volume.
/// `streaming` picks the trace sink; everything else is identical, which is
/// exactly what makes the equivalence section meaningful.
pub fn scale_config(seed: u64, factor: f64, streaming: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::bare(seed, SimTime::from_secs(HORIZON_SECS), 32)
        .with_faas(FaasConfig {
            arrival_rate: BASE_FAAS_RATE * factor,
            max_arrivals: usize::MAX,
            initial_capacity: 64,
            service: ServiceConfig {
                scaling_interval: SimDuration::from_secs(300),
                provisioning_delay_intervals: 1,
                min_instances: 1,
                max_instances: 512,
            },
            ..FaasConfig::default()
        })
        .with_gaming(GamingConfig {
            players: PlayerModel {
                base_rate: BASE_PLAYER_RATE * factor,
                ..PlayerModel::default()
            },
            provisioning: ZoneProvisioning::Elastic {
                min_zones: 2,
                max_zones: 2048,
                high_watermark: 0.8,
                low_watermark: 0.3,
                boot_delay: SimDuration::from_secs(60),
            },
        })
        .with_network(NetworkConfig::default());
    if streaming {
        cfg = cfg.with_observability(ObservabilityConfig {
            window: Some(SimDuration::from_secs(600)),
            ..ObservabilityConfig::default()
        });
    }
    cfg
}

/// What one run contributes to the tables, all simulated quantities.
struct ScaleRow {
    users: u64,
    recorded: u64,
    retained_bytes: u64,
    invoke_p50_ms: f64,
    invoke_p99_ms: f64,
}

fn measure(out: &ScenarioOutcome) -> ScaleRow {
    let q = |q: f64| -> f64 {
        out.trace.field_quantile("faas", "invoke", "latency_secs", q).unwrap_or(0.0) * 1e3
    };
    ScaleRow {
        users: out.arrivals as u64 + out.gaming_admitted + out.gaming_rejected,
        recorded: out.trace.recorded(),
        retained_bytes: out.trace.approx_retained_bytes(),
        invoke_p50_ms: q(0.5),
        invoke_p99_ms: q(0.99),
    }
}

impl Experiment for ScaleStress {
    fn name(&self) -> &'static str {
        "scale_stress"
    }

    fn run(&self, seed: u64) -> Report {
        // 1. Equivalence: same scenario, both sinks.
        let full = Scenario::new(scale_config(seed, 1.0, false)).run();
        let streamed = Scenario::new(scale_config(seed, 1.0, true)).run();
        let stats = |out: &ScenarioOutcome| {
            out.trace.field_stats("faas", "invoke", "latency_secs").expect("invocations ran")
        };
        let (fs, ss) = (stats(&full), stats(&streamed));
        let eq_row = |metric: &str, a: String, b: String| -> Vec<String> {
            let verdict = if a == b { "yes" } else { "NO" };
            vec![metric.to_owned(), a, b, verdict.to_owned()]
        };
        let equivalence = Section::new("streaming vs full retention, same run (1x)")
            .table(
                &["aggregate", "full", "streaming", "equal"],
                vec![
                    eq_row(
                        "events recorded",
                        full.trace.recorded().to_string(),
                        streamed.trace.recorded().to_string(),
                    ),
                    eq_row(
                        "distinct (component, event) pairs",
                        full.trace.counts().len().to_string(),
                        streamed.trace.counts().len().to_string(),
                    ),
                    eq_row("count(faas, invoke)", fs.count().to_string(), ss.count().to_string()),
                    eq_row(
                        "mean invoke latency (ms)",
                        f(fs.mean() * 1e3, 6),
                        f(ss.mean() * 1e3, 6),
                    ),
                    eq_row(
                        "stddev invoke latency (ms)",
                        f(fs.std_dev() * 1e3, 6),
                        f(ss.std_dev() * 1e3, 6),
                    ),
                ],
            )
            .line(format!(
                "retained bytes: full {} vs streaming {} — the aggregates above are\n\
                 computed by the streaming sink at record() time, after which the\n\
                 events themselves are dropped.",
                full.trace.approx_retained_bytes(),
                streamed.trace.approx_retained_bytes(),
            ));

        // 2. Ladder: linear event growth, flat retained bytes (parallel
        // fan-out; byte-identical at any MCS_PAR_WORKERS).
        let rungs: Vec<(f64, ScaleRow)> = par::run_indexed(LADDER.len(), |i| {
            let factor = LADDER[i];
            (factor, measure(&Scenario::new(scale_config(seed, factor, true)).run()))
        });
        let ladder_rows: Vec<Vec<String>> = rungs
            .iter()
            .map(|(factor, r)| {
                vec![
                    format!("{factor}x"),
                    r.users.to_string(),
                    r.recorded.to_string(),
                    (r.retained_bytes / 1024).to_string(),
                    f(r.invoke_p50_ms, 3),
                    f(r.invoke_p99_ms, 3),
                ]
            })
            .collect();
        let ladder = Section::new("streaming scale ladder")
            .table(
                &["volume", "users", "events", "retained-KiB", "invoke-p50-ms", "invoke-p99-ms"],
                ladder_rows,
            )
            .line(
                "events grow with the workload; retained-KiB is the streaming\n\
                 sink's bounded rollup state and stays flat.",
            );

        // 3. Headline: 10M+ events, 2M+ users, one engine run.
        let mut headline_cfg = scale_config(seed, HEADLINE_FACTOR, true);
        headline_cfg.horizon = SimTime::from_secs(HEADLINE_HORIZON_MULT * HORIZON_SECS);
        let wall = std::time::Instant::now();
        let out = Scenario::new(headline_cfg).run();
        let elapsed = wall.elapsed().as_secs_f64();
        let r = measure(&out);
        eprintln!(
            "scale_stress headline: {} engine events in {:.2}s wall ({:.2}M events/s)",
            out.events_handled,
            elapsed,
            out.events_handled as f64 / elapsed / 1e6,
        );
        let windows = out
            .trace
            .window_counts("workload", "arrival")
            .expect("headline runs the streaming sink with windowing on");
        let headline = Section::new(format!(
            "headline ({HEADLINE_FACTOR}x rate, {HEADLINE_HORIZON_MULT}x horizon)"
        ))
            .table(
                &["users", "events", "retained-KiB", "invoke-p50-ms", "invoke-p99-ms"],
                vec![vec![
                    r.users.to_string(),
                    r.recorded.to_string(),
                    (r.retained_bytes / 1024).to_string(),
                    f(r.invoke_p50_ms, 3),
                    f(r.invoke_p99_ms, 3),
                ]],
            )
            .line(format!(
                "arrival windows (600s): {} windows, peak {} arrivals — load-over-time\n\
                 without retaining a single event; wall-clock throughput is on stderr.",
                windows.len(),
                windows.iter().copied().max().unwrap_or(0),
            ));

        Report::new(
            self.name(),
            "Streaming trace sinks at 10M+ events: aggregate equivalence, flat memory, quantiles from sketches",
        )
        .with_seed(seed)
        .with_section(equivalence)
        .with_section(ladder)
        .with_section(headline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_matches_full_aggregates_at_small_scale() {
        let full = Scenario::new(scale_config(42, 0.25, false)).run();
        let streamed = Scenario::new(scale_config(42, 0.25, true)).run();
        assert_eq!(full.trace.counts(), streamed.trace.counts());
        assert_eq!(
            full.trace.field_stats("faas", "invoke", "latency_secs"),
            streamed.trace.field_stats("faas", "invoke", "latency_secs")
        );
        assert_eq!(
            (full.arrivals, full.invoked, full.events_handled),
            (streamed.arrivals, streamed.invoked, streamed.events_handled)
        );
        assert!(streamed.trace.approx_retained_bytes() < full.trace.approx_retained_bytes());
    }

    #[test]
    fn retained_bytes_stay_flat_as_volume_grows() {
        let small = Scenario::new(scale_config(42, 0.25, true)).run();
        let large = Scenario::new(scale_config(42, 2.5, true)).run();
        assert!(
            large.trace.recorded() > 5 * small.trace.recorded(),
            "10x the arrival volume must record several times the events \
             ({} vs {})",
            large.trace.recorded(),
            small.trace.recorded(),
        );
        let (sb, lb) = (small.trace.approx_retained_bytes(), large.trace.approx_retained_bytes());
        assert!(
            lb < 2 * sb,
            "streaming retention must stay flat: {sb} bytes at 1x vs {lb} at 10x"
        );
    }
}
