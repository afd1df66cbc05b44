//! Host-time instrumentation that lives outside the program: an actor
//! adapter that times every `handle` call, and the bounded histogram its
//! per-call durations go into.

use mcs::simcore::codec::Json;
use mcs::simcore::engine::{Actor, Context};
use std::time::Instant;

/// Sub-buckets per power of two: bucket bounds are exact below 16 ns and
/// within 12.5% above.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
const LINEAR: u64 = 2 * SUB;
const BUCKETS: usize = (LINEAR + (64 - SUB_BITS as u64 - 1) * SUB) as usize;

/// Log-linear histogram of nanosecond durations, fixed size whatever the
/// call count, so a traced run's memory stays bounded.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        if ns < LINEAR {
            return ns as usize;
        }
        let exp = 63 - u64::from(ns.leading_zeros());
        let sub = (ns >> (exp - u64::from(SUB_BITS))) & (SUB - 1);
        (LINEAR + (exp - u64::from(SUB_BITS) - 1) * SUB + sub) as usize
    }

    /// The smallest duration that falls into bucket `b`.
    fn lower_bound(b: usize) -> u64 {
        let b = b as u64;
        if b < LINEAR {
            return b;
        }
        let exp = (b - LINEAR) / SUB + u64::from(SUB_BITS) + 1;
        let sub = (b - LINEAR) % SUB;
        (1 << exp) | (sub << (exp - u64::from(SUB_BITS)))
    }

    /// Adds one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Adds every duration of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q`-quantile, as the lower bound of the bucket holding it; `0`
    /// when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::lower_bound(b);
            }
        }
        unreachable!("rank {rank} exceeds the {} recorded durations", self.total)
    }

    /// The non-empty buckets as `[[lower_bound_ns, count], ...]`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(b, &n)| Json::Arr(vec![Json::UInt(Self::lower_bound(b)), Json::UInt(n)]))
                .collect(),
        )
    }
}

/// Wraps an actor and times each of its `handle` calls; messages pass
/// through unchanged, so the wrapped run is the unwrapped run.
pub struct Timed<A> {
    /// The wrapped actor.
    pub inner: A,
    calls: u64,
    busy_ns: u64,
    hist: Histogram,
    gauge: Option<fn(&A) -> u64>,
    gauge_peak: u64,
}

impl<A> Timed<A> {
    pub fn new(inner: A) -> Self {
        Timed {
            inner,
            calls: 0,
            busy_ns: 0,
            hist: Histogram::default(),
            gauge: None,
            gauge_peak: 0,
        }
    }

    /// Reads `gauge` off the actor after every call (outside the timed
    /// region) and keeps its peak.
    pub fn with_gauge(mut self, gauge: fn(&A) -> u64) -> Self {
        self.gauge = Some(gauge);
        self
    }

    /// `handle` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Host seconds spent inside `handle`.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    /// Per-call durations.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Peak of the gauge (0 without one).
    pub fn gauge_peak(&self) -> u64 {
        self.gauge_peak
    }
}

impl<M, A: Actor<M>> Actor<M> for Timed<A> {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        let start = Instant::now();
        self.inner.handle(ctx, msg);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
        self.busy_ns = self.busy_ns.saturating_add(ns);
        self.hist.record(ns);
        if let Some(gauge) = self.gauge {
            self.gauge_peak = self.gauge_peak.max(gauge(&self.inner));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::Fnv;
    use mcs::dag::{DagActor, DagConfig, DagMsg};
    use mcs::simcore::engine::Simulation;
    use mcs::simcore::rng::RngStream;
    use mcs::simcore::time::{SimDuration, SimTime};

    #[test]
    fn histogram_buckets_bound_their_durations() {
        for ns in [
            0,
            1,
            15,
            16,
            17,
            100,
            1_000,
            123_456,
            9_999_999_999,
            u64::MAX,
        ] {
            let b = Histogram::bucket(ns);
            assert!(Histogram::lower_bound(b) <= ns, "{ns} below its bucket");
            if b + 1 < BUCKETS {
                assert!(ns < Histogram::lower_bound(b + 1), "{ns} above its bucket");
            }
        }
        let mut h = Histogram::default();
        for ns in 1..=1000 {
            h.record(ns * 1000);
        }
        let p50 = h.quantile_ns(0.5) as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.13, "p50 {p50}");
    }

    /// Logs every message it receives and forwards a countdown to itself.
    struct Echo {
        seen: Vec<(SimTime, u32)>,
    }

    impl Actor<u32> for Echo {
        fn handle(&mut self, ctx: &mut Context<'_, u32>, msg: u32) {
            self.seen.push((ctx.now(), msg));
            if msg > 0 {
                ctx.send_self(SimDuration::from_millis(u64::from(msg)), msg - 1);
            }
        }
    }

    #[test]
    fn timed_forwards_every_message_unchanged_and_counts_each_call() {
        let run = |wrap: bool| {
            let mut echo = Echo { seen: Vec::new() };
            let mut timed = Timed::new(Echo { seen: Vec::new() });
            let mut sim: Simulation<'_, u32> = Simulation::new(1);
            let id = if wrap {
                sim.add_actor(&mut timed)
            } else {
                sim.add_actor(&mut echo)
            };
            sim.schedule(SimTime::ZERO, id, 40);
            sim.schedule(SimTime::from_secs(1), id, 7);
            let handled = sim.run();
            drop(sim);
            if wrap {
                assert_eq!(timed.calls(), handled);
                timed.inner.seen
            } else {
                echo.seen
            }
        };
        let plain = run(false);
        assert_eq!(plain.len(), 49);
        assert_eq!(run(true), plain);
    }

    #[test]
    fn timed_run_keeps_the_trace_digest() {
        let digest = |wrap: bool| {
            let cfg = DagConfig {
                jobs: 6,
                width: 4,
                ..DagConfig::default()
            };
            let mut rng = RngStream::new(42, "dag");
            let actor: DagActor<'_, DagMsg> = DagActor::new(16, cfg, &mut rng);
            let mut timed = Timed::new(actor);
            let mut sim: Simulation<'_, DagMsg> = Simulation::new(42);
            let id = if wrap {
                sim.add_actor(&mut timed)
            } else {
                sim.add_actor(&mut timed.inner)
            };
            sim.schedule(SimTime::ZERO, id, DagMsg::Start);
            let handled = sim.run();
            let json = sim.trace().to_json_string();
            drop(sim);
            assert_eq!(timed.calls(), if wrap { handled } else { 0 });
            let mut digest = Fnv::default();
            digest.write(json.as_bytes());
            digest.finish()
        };
        assert_eq!(digest(true), digest(false));
    }
}
