//! Composable, deterministic resilience policies.
//!
//! The paper treats maintaining ecosystems under correlated failures as a
//! fundamental problem (§2.2) and names self-awareness (P4, C6) as the cure:
//! systems must *react* to faults, not just suffer them. This module is the
//! reaction vocabulary, shared by every subsystem of the workspace:
//!
//! - [`RetryPolicy`] — bounded retries with fixed, exponential, or
//!   decorrelated-jitter backoff, drawn from a seeded [`RngStream`] so
//!   jittered schedules are bit-identical across same-seed runs;
//! - [`Timeout`] — a latency budget that turns slow successes into failures;
//! - [`CircuitBreaker`] — the classic closed → open → half-open state
//!   machine that fast-fails callers while a dependency is unhealthy;
//! - [`Bulkhead`] — a concurrency compartment bounding in-flight work;
//! - [`ShedderConfig`] — utilization-threshold load shedding for overload;
//! - [`RestartConfig`] — checkpoint-restart with backoff for batch tasks;
//! - [`ResilienceConfig`] — the per-mechanism toggle set a composed
//!   [`Scenario`](../../mcs_core/scenario/index.html) run is built from.
//!
//! Policies hold no clocks and spawn no events themselves: actors consult
//! them with the current [`SimTime`] and emit the resulting decisions onto
//! the [`TraceBus`](crate::trace::TraceBus), so every resilience action is
//! observable in the run's structured record.

use crate::rng::RngStream;
use crate::time::{SimDuration, SimTime};

/// Backoff families for [`RetryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backoff {
    /// The same delay before every attempt.
    Fixed(SimDuration),
    /// `base * 2^(attempt-1)`, capped at `cap` (deterministic, no jitter).
    Exponential {
        /// Delay before the first retry.
        base: SimDuration,
        /// Upper bound on any single delay.
        cap: SimDuration,
    },
    /// Decorrelated jitter (the AWS Architecture Blog family):
    /// `d_1 = base`, `d_n = min(cap, uniform(base, 3 * d_(n-1)))`. The chain
    /// is re-derived from the stream on each call, so a fixed seed yields a
    /// fixed schedule.
    DecorrelatedJitter {
        /// Lower bound (and first delay).
        base: SimDuration,
        /// Upper bound on any single delay.
        cap: SimDuration,
    },
}

/// A bounded-attempt retry policy over a [`Backoff`] family.
///
/// # Examples
/// ```
/// use mcs_simcore::resilience::{Backoff, RetryPolicy};
/// use mcs_simcore::rng::RngStream;
/// use mcs_simcore::time::SimDuration;
///
/// let policy = RetryPolicy {
///     backoff: Backoff::Exponential {
///         base: SimDuration::from_secs(1),
///         cap: SimDuration::from_secs(60),
///     },
///     max_attempts: 3,
/// };
/// let mut rng = RngStream::new(1, "retry");
/// assert_eq!(policy.delay_after(1, &mut rng), Some(SimDuration::from_secs(1)));
/// assert_eq!(policy.delay_after(2, &mut rng), Some(SimDuration::from_secs(2)));
/// assert_eq!(policy.delay_after(3, &mut rng), None); // attempts exhausted
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// The delay family.
    pub backoff: Backoff,
    /// Total attempt budget, including the first try (so `max_attempts: 3`
    /// allows two retries).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// Backoff before the retry that follows failure number `failures`
    /// (1-based), or `None` when the attempt budget is spent.
    pub fn delay_after(&self, failures: u32, rng: &mut RngStream) -> Option<SimDuration> {
        if failures == 0 || failures >= self.max_attempts {
            return None;
        }
        Some(match self.backoff {
            Backoff::Fixed(d) => d,
            Backoff::Exponential { base, cap } => {
                // Saturate: a large base times 2^30 overflows u64 nanos.
                let factor = 1u64 << (failures - 1).min(30);
                SimDuration::from_nanos(base.as_nanos().saturating_mul(factor)).min(cap)
            }
            Backoff::DecorrelatedJitter { base, cap } => {
                let mut d = base;
                for _ in 1..failures {
                    let lo = base.as_secs_f64();
                    let hi = (d.as_secs_f64() * 3.0).max(lo);
                    d = SimDuration::from_secs_f64(rng.uniform_f64(lo, hi)).min(cap);
                }
                d.min(cap)
            }
        })
    }
}

/// A latency budget: a success slower than the budget counts as a failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeout {
    /// The budget.
    pub limit: SimDuration,
}

impl Timeout {
    /// A timeout of `secs` seconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        Timeout { limit: SimDuration::from_secs_f64(secs) }
    }

    /// Whether an operation that took `elapsed` blew the budget.
    pub fn exceeded_by(&self, elapsed: SimDuration) -> bool {
        elapsed > self.limit
    }
}

/// Parameters of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before probing.
    pub open_for: SimDuration,
    /// Consecutive half-open successes required to close again.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_for: SimDuration::from_secs(30),
            half_open_successes: 2,
        }
    }
}

/// The observable states of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, failures are counted.
    Closed,
    /// Tripped: requests fast-fail until the open window elapses.
    Open,
    /// Probing: a bounded number of trial requests decide the next state.
    HalfOpen,
}

impl BreakerState {
    /// A stable lowercase name for trace payloads.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// The closed → open → half-open → closed state machine.
///
/// All transitions are driven by the caller: [`CircuitBreaker::allow`]
/// before each request, then [`CircuitBreaker::on_success`] or
/// [`CircuitBreaker::on_failure`] with the outcome. Each call returns the
/// transition it caused (if any) so the caller can emit it onto the trace
/// bus.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    half_open_successes: u32,
    open_until: SimTime,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            half_open_successes: 0,
            open_until: SimTime::ZERO,
        }
    }

    /// Current state (as of the last interaction; an elapsed open window
    /// only becomes half-open on the next [`CircuitBreaker::allow`]).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a request may proceed at `now`. Returns the transition this
    /// check caused (open → half-open once the open window elapses).
    pub fn allow(&mut self, now: SimTime) -> (bool, Option<BreakerState>) {
        match self.state {
            BreakerState::Closed => (true, None),
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    self.half_open_successes = 0;
                    (true, Some(BreakerState::HalfOpen))
                } else {
                    (false, None)
                }
            }
            BreakerState::HalfOpen => (true, None),
        }
    }

    /// Records a successful request; returns the transition it caused
    /// (half-open → closed after enough probe successes).
    pub fn on_success(&mut self) -> Option<BreakerState> {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = 0;
                None
            }
            BreakerState::HalfOpen => {
                self.half_open_successes += 1;
                if self.half_open_successes >= self.config.half_open_successes {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    Some(BreakerState::Closed)
                } else {
                    None
                }
            }
            // A success while open (e.g. a late completion) is ignored.
            BreakerState::Open => None,
        }
    }

    /// Records a failed request at `now`; returns the transition it caused
    /// (closed → open at the threshold, half-open → open on any failure).
    pub fn on_failure(&mut self, now: SimTime) -> Option<BreakerState> {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip(now);
                    Some(BreakerState::Open)
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                self.trip(now);
                Some(BreakerState::Open)
            }
            BreakerState::Open => None,
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.consecutive_failures = 0;
        self.open_until = now + self.config.open_for;
    }
}

/// A concurrency compartment: at most `capacity` units in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bulkhead {
    capacity: usize,
    in_use: usize,
}

impl Bulkhead {
    /// A bulkhead admitting at most `capacity` concurrent holders.
    pub fn new(capacity: usize) -> Self {
        Bulkhead { capacity: capacity.max(1), in_use: 0 }
    }

    /// Takes one slot; `false` (and no slot) when the compartment is full.
    pub fn try_acquire(&mut self) -> bool {
        if self.in_use < self.capacity {
            self.in_use += 1;
            true
        } else {
            false
        }
    }

    /// Returns one slot (saturating; releasing an unheld slot is a no-op).
    pub fn release(&mut self) {
        self.in_use = self.in_use.saturating_sub(1);
    }

    /// Slots currently held.
    pub fn in_use(&self) -> usize {
        self.in_use
    }
}

/// Utilization-threshold load shedding.
///
/// When the governing autoscaler reports the service is over capacity, the
/// platform engages shedding: requests arriving while
/// `busy / capacity >= max_utilization` are dropped at admission, keeping
/// the survivors inside the congestion knee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedderConfig {
    /// Utilization at or above which new requests are shed while shedding
    /// is engaged, in `(0, 1]`.
    pub max_utilization: f64,
}

impl Default for ShedderConfig {
    fn default() -> Self {
        ShedderConfig { max_utilization: 0.8 }
    }
}

impl ShedderConfig {
    /// Whether a request arriving at `busy` of `capacity` is admitted while
    /// shedding is engaged.
    pub fn admits(&self, busy: usize, capacity: usize) -> bool {
        (busy as f64) < (capacity.max(1) as f64) * self.max_utilization.clamp(0.0, 1.0)
    }
}

/// Checkpoint-restart for batch tasks killed by machine failures: requeue
/// after a backoff instead of instantly, preserving a checkpointed fraction
/// of progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartConfig {
    /// Backoff between a kill and the requeue; the attempt budget bounds how
    /// often one task may be restarted before it is abandoned.
    pub backoff: RetryPolicy,
    /// Fraction of completed work preserved across the restart, in `[0, 1]`
    /// (out-of-range values are clamped, NaN keeps nothing).
    pub checkpoint_factor: f64,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            backoff: RetryPolicy {
                backoff: Backoff::Exponential {
                    base: SimDuration::from_secs(30),
                    cap: SimDuration::from_secs(600),
                },
                max_attempts: 16,
            },
            checkpoint_factor: 0.9,
        }
    }
}

/// The per-mechanism toggle set of a composed run: `None` disables a
/// mechanism, so `ResilienceConfig::default()` reproduces the legacy
/// fail-and-suffer behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResilienceConfig {
    /// Retry failed service invocations with backoff.
    pub retry: Option<RetryPolicy>,
    /// Per-function circuit breaking of service invocations.
    pub breaker: Option<BreakerConfig>,
    /// Latency budget; slower successes count as failures.
    pub timeout: Option<Timeout>,
    /// Cap on concurrently pending retries (per service).
    pub retry_bulkhead: Option<usize>,
    /// Load shedding when the autoscaler reports over-capacity.
    pub shedder: Option<ShedderConfig>,
    /// Checkpoint-restart with backoff for batch tasks.
    pub restart: Option<RestartConfig>,
}

impl ResilienceConfig {
    /// Every mechanism disabled (the legacy behaviour).
    pub fn none() -> Self {
        ResilienceConfig::default()
    }

    /// The default retry policy used by the all-on preset.
    pub fn default_retry() -> RetryPolicy {
        RetryPolicy {
            backoff: Backoff::DecorrelatedJitter {
                base: SimDuration::from_millis(500),
                cap: SimDuration::from_secs(30),
            },
            max_attempts: 4,
        }
    }

    /// Every mechanism enabled with its default tuning.
    pub fn all_on() -> Self {
        ResilienceConfig {
            retry: Some(Self::default_retry()),
            breaker: Some(BreakerConfig::default()),
            timeout: Some(Timeout::from_secs_f64(30.0)),
            retry_bulkhead: Some(64),
            shedder: Some(ShedderConfig::default()),
            restart: Some(RestartConfig::default()),
        }
    }

    /// Whether any mechanism is enabled.
    pub fn any_enabled(&self) -> bool {
        self.retry.is_some()
            || self.breaker.is_some()
            || self.timeout.is_some()
            || self.retry_bulkhead.is_some()
            || self.shedder.is_some()
            || self.restart.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Check;
    use crate::prop_assert;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn fixed_backoff_is_constant_until_budget_spent() {
        let p = RetryPolicy { backoff: Backoff::Fixed(secs(5)), max_attempts: 3 };
        let mut rng = RngStream::new(1, "fixed");
        assert_eq!(p.delay_after(1, &mut rng), Some(secs(5)));
        assert_eq!(p.delay_after(2, &mut rng), Some(secs(5)));
        assert_eq!(p.delay_after(3, &mut rng), None);
        assert_eq!(p.delay_after(0, &mut rng), None);
    }

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let p = RetryPolicy {
            backoff: Backoff::Exponential { base: secs(1), cap: secs(5) },
            max_attempts: 10,
        };
        let mut rng = RngStream::new(1, "exp");
        let delays: Vec<u64> = (1..6)
            .map(|n| p.delay_after(n, &mut rng).unwrap().as_secs_f64() as u64)
            .collect();
        assert_eq!(delays, vec![1, 2, 4, 5, 5]);
    }

    #[test]
    fn exponential_backoff_saturates_at_the_cap_instead_of_overflowing() {
        // 30 s * 2^30 overflows u64 nanoseconds.
        let p = RetryPolicy {
            backoff: Backoff::Exponential { base: secs(30), cap: secs(600) },
            max_attempts: 64,
        };
        let mut rng = RngStream::new(1, "exp");
        assert_eq!(p.delay_after(31, &mut rng), Some(secs(600)));
    }

    #[test]
    fn decorrelated_jitter_is_deterministic_under_a_fixed_seed() {
        let p = RetryPolicy {
            backoff: Backoff::DecorrelatedJitter { base: secs(1), cap: secs(60) },
            max_attempts: 8,
        };
        let schedule = |seed: u64| -> Vec<SimDuration> {
            let mut rng = RngStream::new(seed, "jitter");
            (1..8).filter_map(|n| p.delay_after(n, &mut rng)).collect()
        };
        assert_eq!(schedule(42), schedule(42), "same seed, same jittered schedule");
        assert_ne!(schedule(42), schedule(43), "different seeds diverge");
    }

    #[test]
    fn decorrelated_jitter_stays_in_bounds() {
        let p = RetryPolicy {
            backoff: Backoff::DecorrelatedJitter { base: secs(2), cap: secs(20) },
            max_attempts: 32,
        };
        Check::new("jitter_bounds").cases(64).run(|rng| {
            let n = 1 + rng.uniform_usize(30) as u32;
            if let Some(d) = p.delay_after(n, rng) {
                prop_assert!(d >= secs(2), "delay {d} below base");
                prop_assert!(d <= secs(20), "delay {d} above cap");
            }
            Ok(())
        });
    }

    #[test]
    fn timeout_flags_only_slower_operations() {
        let t = Timeout::from_secs_f64(1.5);
        assert!(!t.exceeded_by(SimDuration::from_millis(1500)));
        assert!(t.exceeded_by(SimDuration::from_millis(1501)));
    }

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            open_for: secs(10),
            half_open_successes: 2,
        })
    }

    #[test]
    fn breaker_trips_open_at_the_failure_threshold() {
        let mut b = breaker();
        let now = SimTime::from_secs(100);
        assert_eq!(b.on_failure(now), None);
        assert_eq!(b.on_failure(now), None);
        assert_eq!(b.on_failure(now), Some(BreakerState::Open));
        assert_eq!(b.state(), BreakerState::Open);
        // While open, requests fast-fail.
        assert_eq!(b.allow(SimTime::from_secs(105)), (false, None));
    }

    #[test]
    fn breaker_success_resets_the_consecutive_count() {
        let mut b = breaker();
        let now = SimTime::from_secs(1);
        b.on_failure(now);
        b.on_failure(now);
        assert_eq!(b.on_success(), None);
        // The streak restarted: two more failures do not trip it...
        assert_eq!(b.on_failure(now), None);
        assert_eq!(b.on_failure(now), None);
        // ...but the third does.
        assert_eq!(b.on_failure(now), Some(BreakerState::Open));
    }

    #[test]
    fn breaker_half_opens_after_the_window_and_closes_on_probe_successes() {
        let mut b = breaker();
        let t0 = SimTime::from_secs(0);
        for _ in 0..3 {
            b.on_failure(t0);
        }
        // Open window is 10 s: at 10 s the next check half-opens.
        assert_eq!(b.allow(SimTime::from_secs(10)), (true, Some(BreakerState::HalfOpen)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.on_success(), None, "one probe success is not enough");
        assert_eq!(b.on_success(), Some(BreakerState::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_half_open_failure_reopens() {
        let mut b = breaker();
        let t0 = SimTime::from_secs(0);
        for _ in 0..3 {
            b.on_failure(t0);
        }
        assert!(b.allow(SimTime::from_secs(10)).0);
        assert_eq!(b.on_failure(SimTime::from_secs(10)), Some(BreakerState::Open));
        // The open window restarts from the half-open failure.
        assert_eq!(b.allow(SimTime::from_secs(15)), (false, None));
        assert_eq!(b.allow(SimTime::from_secs(20)).1, Some(BreakerState::HalfOpen));
    }

    #[test]
    fn breaker_state_names_are_stable() {
        assert_eq!(BreakerState::Closed.name(), "closed");
        assert_eq!(BreakerState::Open.name(), "open");
        assert_eq!(BreakerState::HalfOpen.name(), "half_open");
    }

    #[test]
    fn bulkhead_bounds_concurrency() {
        let mut bh = Bulkhead::new(2);
        assert!(bh.try_acquire());
        assert!(bh.try_acquire());
        assert!(!bh.try_acquire());
        bh.release();
        assert_eq!(bh.in_use(), 1);
        assert!(bh.try_acquire());
        // Releasing more than held saturates at zero.
        bh.release();
        bh.release();
        bh.release();
        assert_eq!(bh.in_use(), 0);
    }

    #[test]
    fn shedder_admits_below_the_utilization_knee() {
        let s = ShedderConfig { max_utilization: 0.75 };
        assert!(s.admits(2, 4));
        assert!(!s.admits(3, 4));
        assert!(!s.admits(10, 4));
        // Zero capacity never divides by zero.
        assert!(!s.admits(1, 0));
    }

    #[test]
    fn resilience_config_presets() {
        assert!(!ResilienceConfig::none().any_enabled());
        let all = ResilienceConfig::all_on();
        assert!(all.retry.is_some() && all.breaker.is_some() && all.restart.is_some());
        assert!(all.any_enabled());
        let only_retry =
            ResilienceConfig { retry: Some(ResilienceConfig::default_retry()), ..Default::default() };
        assert!(only_retry.any_enabled());
    }
}
