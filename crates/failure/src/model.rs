//! Failure models for large-scale distributed systems.
//!
//! The paper's second fundamental problem (§2.2) is maintaining ecosystems
//! under failures, and it cites the authors' own failure-modelling work:
//! *space-correlated* failures (Gallet et al., Euro-Par 2010 \[26\]) where one
//! trigger takes down groups of machines, and *time-correlated* failures
//! (Yigitbasi et al., GRID 2010 \[27\]) where failure rates have strong
//! autocorrelation (failures cluster in time). Both are implemented here
//! alongside the classic independent-failure baseline, so experiments can
//! show how much correlation changes availability at identical MTBF.

use mcs_simcore::dist::{Dist, Sample};
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::{SimDuration, SimTime};

/// One machine outage: the machine fails at `fail_at` and is repaired at
/// `repair_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Index of the affected machine in the modelled population.
    pub machine: usize,
    /// Failure instant.
    pub fail_at: SimTime,
    /// Repair instant (strictly after `fail_at`).
    pub repair_at: SimTime,
}

impl Outage {
    /// Downtime of this outage.
    pub fn duration(&self) -> SimDuration {
        self.repair_at.saturating_since(self.fail_at)
    }
}

/// What a fault *does* to its victim — the vocabulary beyond crash-stop.
///
/// Real failure studies (and the SimGrid line of simulators) show that
/// crash-stop is only one corner of the fault space: machines also *limp*
/// (stragglers), *lie* (gray failures that fail work without dying), and
/// get *cut off* (network partitions). Each kind is delivered through the
/// same injector cursor, so mixed-fault schedules stay one sorted list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Classic crash-stop: the machine is down until repair.
    Crash,
    /// A straggler window: the victim's work runs `factor`× slower
    /// (`factor > 1`).
    Slowdown {
        /// Latency multiplier while the fault is active.
        factor: f64,
    },
    /// A gray failure: the machine looks alive but fails work with this
    /// probability until repair.
    Gray {
        /// Probability that a unit of work fails, in `[0, 1]`.
        error_rate: f64,
    },
    /// A network-partition window: requests to the victim never arrive.
    Partition,
}

impl FaultKind {
    /// A stable lowercase name for trace payloads.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Slowdown { .. } => "slowdown",
            FaultKind::Gray { .. } => "gray",
            FaultKind::Partition => "partition",
        }
    }
}

/// One scheduled fault: an [`Outage`] window plus what happens inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// The affected machine and the `[fail_at, repair_at)` window.
    pub outage: Outage,
    /// What the fault does during the window.
    pub kind: FaultKind,
}

impl Fault {
    /// A crash-stop fault over `outage` (the legacy behaviour).
    pub fn crash(outage: Outage) -> Self {
        Fault { outage, kind: FaultKind::Crash }
    }
}

/// A probability mix over fault kinds, used to lift a crash-only outage
/// schedule into a mixed-fault schedule deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMix {
    /// Weight of crash-stop faults.
    pub crash: f64,
    /// Weight of slowdown (straggler) windows.
    pub slowdown: f64,
    /// Weight of gray-failure windows.
    pub gray: f64,
    /// Weight of partition windows.
    pub partition: f64,
    /// Per-unit-of-work failure probability of gray windows.
    pub gray_error_rate: f64,
}

/// The default is [`FaultMix::crash_only`]: the `partition` (and `gray`,
/// `slowdown`) weights are `0.0`, so **topology faults are silently
/// disabled** — a default-mix schedule never cuts or degrades a network
/// link, even when a scenario attaches a network model. Opt into
/// partitions by giving `partition` a positive weight; conversely, a
/// positive `partition` weight without a network model attached falls back
/// to service-level fault windows (composed scenarios print a stderr
/// warning for that combination).
impl Default for FaultMix {
    fn default() -> Self {
        FaultMix::crash_only()
    }
}

/// Latency multiplier of slowdown windows.
const SLOWDOWN_FACTOR: f64 = 4.0;

impl FaultMix {
    /// Every fault is a crash (the legacy, crash-stop-only vocabulary).
    pub fn crash_only() -> Self {
        FaultMix {
            crash: 1.0,
            slowdown: 0.0,
            gray: 0.0,
            partition: 0.0,
            gray_error_rate: 0.8,
        }
    }

    /// Assigns a kind to every outage by a weighted draw from this mix
    /// (weights are normalized; all-zero weights degrade to crash-only).
    pub fn assign(&self, outages: Vec<Outage>, rng: &mut RngStream) -> Vec<Fault> {
        let total = self.crash + self.slowdown + self.gray + self.partition;
        outages
            .into_iter()
            .map(|outage| {
                let kind = if total <= 0.0 {
                    FaultKind::Crash
                } else {
                    let x = rng.next_f64() * total;
                    if x < self.crash {
                        FaultKind::Crash
                    } else if x < self.crash + self.slowdown {
                        FaultKind::Slowdown { factor: SLOWDOWN_FACTOR }
                    } else if x < self.crash + self.slowdown + self.gray {
                        FaultKind::Gray { error_rate: self.gray_error_rate.clamp(0.0, 1.0) }
                    } else {
                        FaultKind::Partition
                    }
                };
                Fault { outage, kind }
            })
            .collect()
    }
}

/// A generator of outage schedules over a machine population.
pub trait FailureModel {
    /// Generates all outages for `machines` machines in `[0, horizon)`,
    /// sorted by failure instant. Overlapping outages of the *same* machine
    /// are merged by the caller-facing helpers in [`crate::analysis`].
    fn generate(&self, machines: usize, horizon: SimTime, rng: &mut RngStream) -> Vec<Outage>;
}

fn sort_outages(mut v: Vec<Outage>) -> Vec<Outage> {
    v.sort_by_key(|o| (o.fail_at, o.machine));
    v
}

/// Independent failures: each machine fails on its own renewal process.
#[derive(Debug, Clone)]
pub struct IndependentFailures {
    /// Time-between-failures distribution, seconds (Weibull with shape < 1
    /// matches the decreasing hazard rates observed on real grids).
    pub tbf: Dist,
    /// Repair-time distribution, seconds (lognormal in the cited studies).
    pub repair: Dist,
}

impl IndependentFailures {
    /// A model with the Weibull/lognormal fits typical of grid traces, with
    /// the given mean time between failures (seconds).
    pub fn with_mtbf(mtbf_secs: f64) -> Self {
        // Weibull shape 0.7: scale chosen so the mean equals mtbf.
        let shape = 0.7;
        let scale = mtbf_secs / gamma_mean_factor(shape);
        IndependentFailures {
            tbf: Dist::Weibull { shape, scale },
            repair: Dist::LogNormal { mu: 6.0, sigma: 1.0 }, // median ~6.7 min
        }
    }
}

/// `E[Weibull(shape, 1)] = Γ(1 + 1/shape)`; helper to invert the mean.
fn gamma_mean_factor(shape: f64) -> f64 {
    Dist::Weibull { shape, scale: 1.0 }.mean().unwrap_or(1.0)
}

impl FailureModel for IndependentFailures {
    fn generate(&self, machines: usize, horizon: SimTime, rng: &mut RngStream) -> Vec<Outage> {
        let mut out = Vec::new();
        for m in 0..machines {
            let mut rng_m = rng.derive(&format!("machine-{m}"));
            let mut t = SimTime::ZERO;
            loop {
                let gap = SimDuration::from_secs_f64(self.tbf.sample(&mut rng_m).max(1.0));
                let Some(fail_at) = t.checked_add(gap) else { break };
                if fail_at >= horizon {
                    break;
                }
                let down = SimDuration::from_secs_f64(self.repair.sample(&mut rng_m).max(1.0));
                let repair_at = fail_at + down;
                out.push(Outage { machine: m, fail_at, repair_at });
                t = repair_at;
            }
        }
        sort_outages(out)
    }
}

/// Space-correlated failures (Gallet et al.): failures arrive as *bursts*;
/// each burst takes down a group of machines that are near each other in the
/// population order (a rack, a power domain, a network segment).
#[derive(Debug, Clone)]
pub struct SpaceCorrelatedFailures {
    /// Inter-burst time distribution, seconds.
    pub inter_burst: Dist,
    /// Burst-size distribution (number of machines; heavy-tailed in the
    /// measured traces).
    pub burst_size: Dist,
    /// Repair-time distribution, seconds.
    pub repair: Dist,
    /// Size of the correlation domain (e.g. machines per rack): the burst
    /// hits consecutive machines within one randomly chosen domain.
    pub domain_size: usize,
}

impl SpaceCorrelatedFailures {
    /// A model tuned so the *per-machine* MTBF matches `mtbf_secs` for the
    /// given population size, concentrating failures in bursts.
    pub fn with_mtbf(mtbf_secs: f64, machines: usize, domain_size: usize) -> Self {
        // Mean burst size under Pareto(1.5) truncated at domain_size:
        // approximate by its untruncated mean (alpha/(alpha-1) = 3).
        let mean_burst = 3.0f64.min(domain_size as f64);
        let burst_rate = machines as f64 / (mtbf_secs * mean_burst);
        SpaceCorrelatedFailures {
            inter_burst: Dist::Exponential { rate: burst_rate },
            burst_size: Dist::Pareto { x_min: 1.0, alpha: 1.5 },
            repair: Dist::LogNormal { mu: 6.0, sigma: 1.0 },
            domain_size: domain_size.max(1),
        }
    }
}

impl FailureModel for SpaceCorrelatedFailures {
    fn generate(&self, machines: usize, horizon: SimTime, rng: &mut RngStream) -> Vec<Outage> {
        let mut out = Vec::new();
        if machines == 0 {
            return out;
        }
        let mut t = SimTime::ZERO;
        loop {
            let gap = SimDuration::from_secs_f64(self.inter_burst.sample(rng).max(1.0));
            let Some(burst_at) = t.checked_add(gap) else { break };
            if burst_at >= horizon {
                break;
            }
            t = burst_at;
            let size = (self.burst_size.sample(rng).round() as usize)
                .clamp(1, self.domain_size.min(machines));
            // Pick a correlation domain and fail `size` consecutive machines.
            let domains = machines.div_ceil(self.domain_size);
            let domain = rng.uniform_usize(domains);
            let base = domain * self.domain_size;
            let span = self.domain_size.min(machines - base);
            let start = base + rng.uniform_usize(span.saturating_sub(size).max(1).min(span));
            for m in start..(start + size).min(machines) {
                let down = SimDuration::from_secs_f64(self.repair.sample(rng).max(1.0));
                out.push(Outage { machine: m, fail_at: burst_at, repair_at: burst_at + down });
            }
        }
        sort_outages(out)
    }
}

/// Time-correlated failures (Yigitbasi et al.): the failure rate itself
/// switches between a calm and a stormy regime (high autocorrelation), so
/// failures cluster in time even though each failure hits a random machine.
#[derive(Debug, Clone)]
pub struct TimeCorrelatedFailures {
    /// Failure rate in the calm regime, failures/second over the population.
    pub calm_rate: f64,
    /// Failure rate in the stormy regime.
    pub storm_rate: f64,
    /// Mean sojourn in calm, seconds.
    pub calm_sojourn: f64,
    /// Mean sojourn in storm, seconds.
    pub storm_sojourn: f64,
    /// Repair-time distribution, seconds.
    pub repair: Dist,
}

impl TimeCorrelatedFailures {
    /// A model whose long-run per-machine MTBF matches `mtbf_secs` while
    /// concentrating most failures in storms.
    pub fn with_mtbf(mtbf_secs: f64, machines: usize) -> Self {
        let avg_rate = machines as f64 / mtbf_secs;
        // Storms are 5% of time but carry 10x rate.
        let p_storm = 0.05;
        let storm_rate = avg_rate * 10.0;
        let calm_rate =
            ((avg_rate - p_storm * storm_rate) / (1.0 - p_storm)).max(avg_rate * 0.01);
        TimeCorrelatedFailures {
            calm_rate,
            storm_rate,
            calm_sojourn: 19.0 * 3600.0,
            storm_sojourn: 3600.0,
            repair: Dist::LogNormal { mu: 6.0, sigma: 1.0 },
        }
    }
}

impl FailureModel for TimeCorrelatedFailures {
    fn generate(&self, machines: usize, horizon: SimTime, rng: &mut RngStream) -> Vec<Outage> {
        let mut out = Vec::new();
        if machines == 0 {
            return out;
        }
        let mut t = SimTime::ZERO;
        let mut stormy = false;
        let mut regime_until = SimTime::ZERO
            + SimDuration::from_secs_f64(
                Dist::exponential_mean(self.calm_sojourn).sample(rng).max(1.0),
            );
        loop {
            let rate = if stormy { self.storm_rate } else { self.calm_rate };
            let gap =
                SimDuration::from_secs_f64(Dist::Exponential { rate }.sample(rng).max(1e-3));
            let Some(candidate) = t.checked_add(gap) else { break };
            if candidate >= horizon {
                break;
            }
            if candidate > regime_until {
                // Switch regime at the boundary and continue from there.
                t = regime_until;
                stormy = !stormy;
                let mean = if stormy { self.storm_sojourn } else { self.calm_sojourn };
                regime_until =
                    t + SimDuration::from_secs_f64(Dist::exponential_mean(mean).sample(rng).max(1.0));
                continue;
            }
            t = candidate;
            let m = rng.uniform_usize(machines);
            let down = SimDuration::from_secs_f64(self.repair.sample(rng).max(1.0));
            out.push(Outage { machine: m, fail_at: t, repair_at: t + down });
        }
        sort_outages(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: f64 = 3600.0;

    fn horizon_days(d: u64) -> SimTime {
        SimTime::from_secs(d * 24 * 3600)
    }

    #[test]
    fn outage_duration() {
        let o = Outage {
            machine: 0,
            fail_at: SimTime::from_secs(10),
            repair_at: SimTime::from_secs(70),
        };
        assert_eq!(o.duration(), SimDuration::from_secs(60));
    }

    #[test]
    fn default_mix_zero_partition_weight_disables_topology_faults() {
        // The documented contract of `FaultMix::default()`: with the
        // partition weight at 0.0, a schedule of any size contains no
        // partition (and no slowdown/gray) windows — topology faults are
        // silently off unless opted into.
        let mix = FaultMix::default();
        assert_eq!(mix.partition, 0.0);
        let model = IndependentFailures::with_mtbf(20.0 * HOUR);
        let mut rng = RngStream::new(9, "mix-outages");
        let outages = model.generate(100, horizon_days(120), &mut rng);
        assert!(outages.len() > 500, "need a large schedule to trust the sweep");
        let mut mix_rng = RngStream::new(9, "mix-assign");
        let faults = mix.assign(outages, &mut mix_rng);
        assert!(faults.iter().all(|f| f.kind == FaultKind::Crash));
    }

    #[test]
    fn independent_mtbf_approximately_met() {
        let mtbf = 100.0 * HOUR;
        let model = IndependentFailures::with_mtbf(mtbf);
        let mut rng = RngStream::new(1, "ind");
        let machines = 200;
        let horizon = horizon_days(365);
        let outages = model.generate(machines, horizon, &mut rng);
        let expected = machines as f64 * horizon.as_secs_f64() / mtbf;
        let got = outages.len() as f64;
        assert!(
            (got / expected - 1.0).abs() < 0.2,
            "got {got} outages, expected ~{expected}"
        );
    }

    #[test]
    fn outages_sorted_and_positive() {
        let model = IndependentFailures::with_mtbf(50.0 * HOUR);
        let mut rng = RngStream::new(2, "ind");
        let outages = model.generate(50, horizon_days(60), &mut rng);
        for w in outages.windows(2) {
            assert!(w[0].fail_at <= w[1].fail_at);
        }
        for o in &outages {
            assert!(o.repair_at > o.fail_at);
        }
    }

    #[test]
    fn space_correlated_fails_in_groups() {
        let model = SpaceCorrelatedFailures::with_mtbf(100.0 * HOUR, 100, 10);
        let mut rng = RngStream::new(3, "space");
        let outages = model.generate(100, horizon_days(365), &mut rng);
        assert!(!outages.is_empty());
        // Count simultaneous failures (same fail instant): correlated model
        // must produce multi-machine bursts.
        let mut bursts = std::collections::HashMap::new();
        for o in &outages {
            *bursts.entry(o.fail_at).or_insert(0usize) += 1;
        }
        let max_burst = bursts.values().copied().max().unwrap();
        assert!(max_burst >= 3, "largest burst only {max_burst}");
        // All bursts stay within one 10-machine domain.
        let mut by_time: std::collections::HashMap<SimTime, Vec<usize>> =
            std::collections::HashMap::new();
        for o in &outages {
            by_time.entry(o.fail_at).or_default().push(o.machine);
        }
        for members in by_time.values() {
            let domains: std::collections::HashSet<usize> =
                members.iter().map(|m| m / 10).collect();
            assert!(domains.len() <= 2, "burst spans domains {domains:?}");
        }
    }

    #[test]
    fn time_correlated_clusters_in_time() {
        let machines = 100;
        let mtbf = 200.0 * HOUR;
        let model = TimeCorrelatedFailures::with_mtbf(mtbf, machines);
        let mut rng = RngStream::new(4, "time");
        let horizon = horizon_days(365);
        let outages = model.generate(machines, horizon, &mut rng);
        assert!(outages.len() > 50, "got {}", outages.len());
        // Bin failures per day; time correlation shows as high variance of
        // daily counts relative to a Poisson baseline (index of dispersion).
        let days = 365;
        let mut daily = vec![0f64; days];
        for o in &outages {
            let d = (o.fail_at.as_secs_f64() / 86_400.0) as usize;
            if d < days {
                daily[d] += 1.0;
            }
        }
        let mut st = mcs_simcore::metrics::OnlineStats::new();
        for c in &daily {
            st.record(*c);
        }
        let dispersion = st.variance() / st.mean().max(1e-9);
        assert!(dispersion > 2.0, "index of dispersion {dispersion} too Poisson-like");
    }

    #[test]
    fn zero_machines_yield_no_outages() {
        let mut rng = RngStream::new(5, "zero");
        let m1 = IndependentFailures::with_mtbf(HOUR);
        assert!(m1.generate(0, horizon_days(1), &mut rng).is_empty());
        let m2 = SpaceCorrelatedFailures::with_mtbf(HOUR, 10, 5);
        assert!(m2.generate(0, horizon_days(1), &mut rng).is_empty());
        let m3 = TimeCorrelatedFailures::with_mtbf(HOUR, 10);
        assert!(m3.generate(0, horizon_days(1), &mut rng).is_empty());
    }
}
