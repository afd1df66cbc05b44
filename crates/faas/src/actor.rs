//! The FaaS platform as a discrete-event actor.
//!
//! [`FaasActor`] wraps a [`FaasPlatform`] so the platform can participate in
//! a composed [`Simulation`](mcs_simcore::engine::Simulation) alongside a
//! scheduler, an autoscaling governor, and a failure injector. Standalone
//! replay ([`FaasPlatform::run`]) uses the same actor with no capacity cap
//! and no observer, so both paths share one code path through the engine.
//!
//! With [`FaasActor::with_resilience`], invocations gain failure outcomes
//! (partition fast-fails, gray-failure draws, timeout breaches, straggler
//! slowdowns — see [`FaasFault`]) and the full resilience stack from
//! [`mcs_simcore::resilience`]: per-function circuit breaking, bounded
//! retry with backoff behind a bulkhead, and utilization-threshold load
//! shedding engaged by the autoscaling governor. Every resilience action is
//! emitted onto the trace bus (`faas/invoke_failed`, `faas/retry_scheduled`,
//! `faas/breaker`, `faas/shed`, …). The actor keeps no outcome counters:
//! scenarios and experiments count invocations, rejections, failures, sheds
//! and retries off the bus.

use crate::platform::FaasPlatform;
use mcs_simcore::engine::{Actor, Context, MessageEnvelope};
use mcs_simcore::resilience::{Bulkhead, CircuitBreaker, ResilienceConfig};
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::SimDuration;
use mcs_simcore::trace::Field;
use std::collections::HashMap;

/// A service-level fault window affecting the platform (the FaaS-side view
/// of the injector's non-crash fault kinds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaasFault {
    /// Executions run `factor`× slower while active (stragglers).
    Slowdown {
        /// Execution-time multiplier (≥ 1).
        factor: f64,
    },
    /// Invocations fail with this probability while active, after doing
    /// (and billing) their work — the gray-failure signature.
    Gray {
        /// Per-invocation failure probability, in `[0, 1]`.
        error_rate: f64,
    },
    /// Requests never reach the platform while active.
    Partition,
}

impl FaasFault {
    fn name(&self) -> &'static str {
        match self {
            FaasFault::Slowdown { .. } => "slowdown",
            FaasFault::Gray { .. } => "gray",
            FaasFault::Partition => "partition",
        }
    }
}

/// Optional congestion model: when the platform runs above a utilization
/// knee, executions stretch — the queueing-delay stand-in that makes
/// overload (and hence load shedding) consequential.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionConfig {
    /// Utilization (including the arriving request) above which latency
    /// degrades, in `(0, 1)`.
    pub knee: f64,
    /// Execution-time multiplier at 100 % utilization; the penalty ramps
    /// linearly from 1 at the knee.
    pub max_penalty: f64,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig { knee: 0.75, max_penalty: 6.0 }
    }
}

impl CongestionConfig {
    fn multiplier(&self, busy: usize, capacity: usize) -> f64 {
        let util = (busy as f64 + 1.0) / capacity.max(1) as f64;
        if util <= self.knee || self.knee >= 1.0 {
            1.0
        } else {
            let x = ((util - self.knee) / (1.0 - self.knee)).clamp(0.0, 1.0);
            1.0 + x * (self.max_penalty - 1.0).max(0.0)
        }
    }
}

/// The FaaS platform's message vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum FaasMsg {
    /// An invocation request arrives for `function`.
    Invoke {
        /// Target function name.
        function: String,
    },
    /// A self-scheduled retry of a failed invocation (attempt is 1-based;
    /// the original request was attempt 1).
    Retry {
        /// Target function name.
        function: String,
        /// Which attempt this delivery is.
        attempt: u32,
    },
    /// Adjust the concurrent-instance capacity by a signed delta (from the
    /// autoscaling governor). Ignored when the actor has no capacity cap.
    Scale(i64),
    /// A correlated failure kills this fraction of the idle warm pool,
    /// least-recently-used instances first.
    KillWarm {
        /// Fraction of idle instances to kill, in `[0, 1]`.
        fraction: f64,
    },
    /// A service-level fault window opens.
    Fault(FaasFault),
    /// A previously opened fault window closes.
    FaultClear(FaasFault),
    /// The governor engages (`true`) or disengages (`false`) load shedding.
    SetShedding(bool),
    /// Periodic self-scheduled demand observation (drives the observer
    /// callback, typically toward an autoscaling governor).
    Report,
}

/// Callback invoked on each [`FaasMsg::Report`] with the interval's measured
/// demand (instances needed) and current supply (the capacity cap).
pub type FaasObserver<'a, M> = Box<dyn FnMut(&mut Context<'_, M>, f64, usize) + 'a>;

/// Callback invoked after each *successful* invocation with its latency in
/// seconds. Composed scenarios use it to push the response payload onto the
/// flow-level network model, so FaaS answers contend for bandwidth with
/// every other tenant.
pub type FaasResponseHook<'a, M> = Box<dyn FnMut(&mut Context<'_, M>, f64) + 'a>;

/// Drives a [`FaasPlatform`] from engine messages.
///
/// Without a capacity cap the actor admits every invocation, exactly like
/// the platform's standalone replay. With [`FaasActor::with_capacity`], an
/// invocation arriving while `busy >= capacity` is rejected (traced, not
/// executed) — the signal the autoscaling governor reacts to.
pub struct FaasActor<'a, M = FaasMsg> {
    platform: &'a mut FaasPlatform,
    capacity: Option<usize>,
    report_every: Option<SimDuration>,
    observer: Option<FaasObserver<'a, M>>,
    on_response: Option<FaasResponseHook<'a, M>>,
    window_peak: usize,
    window_rejected: usize,
    resilience: ResilienceConfig,
    res_rng: RngStream,
    breakers: HashMap<String, CircuitBreaker>,
    retry_bulkhead: Option<Bulkhead>,
    active_faults: Vec<FaasFault>,
    shedding: bool,
    congestion: Option<CongestionConfig>,
}

impl<'a, M> FaasActor<'a, M> {
    /// Wraps `platform` with no capacity cap, no observer, and every
    /// resilience mechanism disabled.
    pub fn new(platform: &'a mut FaasPlatform) -> Self {
        let res_rng = RngStream::new(platform.seed(), "faas-resilience");
        FaasActor {
            platform,
            capacity: None,
            report_every: None,
            observer: None,
            on_response: None,
            window_peak: 0,
            window_rejected: 0,
            resilience: ResilienceConfig::none(),
            res_rng,
            breakers: HashMap::new(),
            retry_bulkhead: None,
            active_faults: Vec::new(),
            shedding: false,
            congestion: None,
        }
    }

    /// Enables the given resilience mechanisms. Gray-failure draws and
    /// jittered backoff use a stream derived from the platform seed, so
    /// runs stay deterministic per seed.
    #[must_use]
    pub fn with_resilience(mut self, config: ResilienceConfig) -> Self {
        self.retry_bulkhead = config.retry_bulkhead.map(Bulkhead::new);
        self.resilience = config;
        self
    }

    /// Enables the utilization-congestion model: executions stretch when
    /// the platform runs above the knee.
    #[must_use]
    pub fn with_congestion(mut self, congestion: CongestionConfig) -> Self {
        self.congestion = Some(congestion);
        self
    }

    /// Caps concurrent instances; excess invocations are rejected.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity.max(1));
        self
    }

    /// Installs a periodic demand observer. The first [`FaasMsg::Report`]
    /// must be scheduled externally; the actor re-arms subsequent ones.
    #[must_use]
    pub fn with_observer(
        mut self,
        report_every: SimDuration,
        observer: impl FnMut(&mut Context<'_, M>, f64, usize) + 'a,
    ) -> Self {
        assert!(!report_every.is_zero(), "report interval must be positive");
        self.report_every = Some(report_every);
        self.observer = Some(Box::new(observer));
        self
    }

    /// Installs the per-success response hook (see [`FaasResponseHook`]).
    #[must_use]
    pub fn with_response_hook(
        mut self,
        hook: impl FnMut(&mut Context<'_, M>, f64) + 'a,
    ) -> Self {
        self.on_response = Some(Box::new(hook));
        self
    }

    /// Current capacity cap, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn emit_breaker(ctx: &mut Context<'_, M>, function: &str, state: &'static str) {
        ctx.emit_fields(
            "faas",
            "breaker",
            &[("function", Field::Str(function)), ("state", Field::Str(state))],
        );
    }

    fn emit_failed(
        ctx: &mut Context<'_, M>,
        function: &str,
        reason: &'static str,
        attempt: u32,
        wasted_exec_secs: f64,
    ) {
        ctx.emit_fields(
            "faas",
            "invoke_failed",
            &[
                ("function", Field::Str(function)),
                ("reason", Field::Str(reason)),
                ("attempt", Field::U64(attempt as u64)),
                ("wasted_exec_secs", Field::F64(wasted_exec_secs)),
            ],
        );
    }

    /// Schedules a backoff retry after failure number `attempt` of a
    /// request, if the policy's budget and the retry bulkhead allow one.
    fn schedule_retry(&mut self, ctx: &mut Context<'_, M>, function: &str, attempt: u32)
    where
        M: MessageEnvelope<FaasMsg>,
    {
        let Some(policy) = self.resilience.retry else { return };
        let Some(delay) = policy.delay_after(attempt, &mut self.res_rng) else {
            ctx.emit_fields(
                "faas",
                "retry_exhausted",
                &[("function", Field::Str(function)), ("attempt", Field::U64(attempt as u64))],
            );
            return;
        };
        if let Some(bh) = &mut self.retry_bulkhead {
            if !bh.try_acquire() {
                ctx.emit_fields(
                    "faas",
                    "retry_dropped",
                    &[("function", Field::Str(function)), ("attempt", Field::U64(attempt as u64))],
                );
                return;
            }
        }
        ctx.emit_fields(
            "faas",
            "retry_scheduled",
            &[
                ("function", Field::Str(function)),
                ("attempt", Field::U64(attempt as u64)),
                ("delay_secs", Field::F64(delay.as_secs_f64())),
            ],
        );
        ctx.send_self(
            delay,
            M::wrap(FaasMsg::Retry { function: function.to_owned(), attempt: attempt + 1 }),
        );
    }

    fn breaker_on_failure(&mut self, ctx: &mut Context<'_, M>, function: &str) {
        if let Some(b) = self.breakers.get_mut(function) {
            let now = ctx.now();
            if let Some(state) = b.on_failure(now) {
                Self::emit_breaker(ctx, function, state.name());
            }
        }
    }

    fn invoke(&mut self, ctx: &mut Context<'_, M>, function: &str, attempt: u32)
    where
        M: MessageEnvelope<FaasMsg>,
    {
        let now = ctx.now();

        // Per-function circuit breaker: fast-fail while open.
        if let Some(cfg) = self.resilience.breaker {
            let breaker = self
                .breakers
                .entry(function.to_owned())
                .or_insert_with(|| CircuitBreaker::new(cfg));
            let (allowed, transition) = breaker.allow(now);
            if let Some(state) = transition {
                Self::emit_breaker(ctx, function, state.name());
            }
            if !allowed {
                Self::emit_failed(ctx, function, "breaker_open", attempt, 0.0);
                self.schedule_retry(ctx, function, attempt);
                return;
            }
        }

        let busy = self.platform.busy_instances(now);

        // Governor-engaged load shedding: drop at admission while over the
        // utilization knee, instead of queueing into congestion.
        if self.shedding {
            if let (Some(shedder), Some(cap)) = (self.resilience.shedder, self.capacity) {
                if !shedder.admits(busy, cap) {
                    self.window_rejected += 1;
                    ctx.emit_fields(
                        "faas",
                        "shed",
                        &[
                            ("function", Field::Str(function)),
                            ("busy", Field::U64(busy as u64)),
                            ("capacity", Field::U64(cap as u64)),
                        ],
                    );
                    return;
                }
            }
        }

        if let Some(cap) = self.capacity {
            if busy >= cap {
                self.window_rejected += 1;
                self.window_peak = self.window_peak.max(busy + 1);
                ctx.emit_fields(
                    "faas",
                    "reject",
                    &[
                        ("function", Field::Str(function)),
                        ("busy", Field::U64(busy as u64)),
                        ("capacity", Field::U64(cap as u64)),
                    ],
                );
                self.schedule_retry(ctx, function, attempt);
                return;
            }
        }

        // Partition windows fast-fail before any work is done.
        if self.active_faults.iter().any(|f| matches!(f, FaasFault::Partition)) {
            self.breaker_on_failure(ctx, function);
            Self::emit_failed(ctx, function, "partition", attempt, 0.0);
            self.schedule_retry(ctx, function, attempt);
            return;
        }

        // Execute, stretched by active stragglers and congestion.
        let slow_factor = self
            .active_faults
            .iter()
            .filter_map(|f| match f {
                FaasFault::Slowdown { factor } => Some(*factor),
                _ => None,
            })
            .fold(1.0_f64, f64::max);
        let congestion = match (self.congestion, self.capacity) {
            (Some(c), Some(cap)) => c.multiplier(busy, cap),
            _ => 1.0,
        };
        let result = self.platform.invoke_scaled(function, now, slow_factor * congestion);
        self.window_peak = self.window_peak.max(busy + 1);

        // Gray windows fail the work after it ran (and was billed).
        let gray_rate = self
            .active_faults
            .iter()
            .filter_map(|f| match f {
                FaasFault::Gray { error_rate } => Some(*error_rate),
                _ => None,
            })
            .fold(0.0_f64, f64::max);
        if gray_rate > 0.0 && self.res_rng.next_f64() < gray_rate {
            self.breaker_on_failure(ctx, function);
            Self::emit_failed(ctx, function, "gray", attempt, result.exec_secs);
            self.schedule_retry(ctx, function, attempt);
            return;
        }

        // A success slower than the latency budget counts as a failure.
        if let Some(timeout) = self.resilience.timeout {
            if timeout.exceeded_by(SimDuration::from_secs_f64(result.latency_secs)) {
                self.breaker_on_failure(ctx, function);
                Self::emit_failed(ctx, function, "timeout", attempt, result.exec_secs);
                self.schedule_retry(ctx, function, attempt);
                return;
            }
        }

        if let Some(b) = self.breakers.get_mut(function) {
            if let Some(state) = b.on_success() {
                Self::emit_breaker(ctx, function, state.name());
            }
        }
        ctx.emit_fields(
            "faas",
            "invoke",
            &[
                ("function", Field::Str(function)),
                ("cold", Field::Bool(result.cold)),
                ("latency_secs", Field::F64(result.latency_secs)),
            ],
        );
        if let Some(hook) = self.on_response.as_mut() {
            hook(ctx, result.latency_secs);
        }
    }

    fn scale(&mut self, ctx: &mut Context<'_, M>, delta: i64) {
        let Some(cap) = self.capacity else { return };
        let next = (cap as i64 + delta).max(1) as usize;
        self.capacity = Some(next);
        ctx.emit_fields(
            "faas",
            "scale",
            &[("delta", Field::I64(delta)), ("capacity", Field::U64(next as u64))],
        );
    }

    fn kill_warm(&mut self, ctx: &mut Context<'_, M>, fraction: f64) {
        let now = ctx.now();
        let idle = self.platform.idle_instances(now);
        let victims = (idle as f64 * fraction.clamp(0.0, 1.0)).ceil() as usize;
        let killed = self.platform.kill_idle(now, victims);
        ctx.emit_fields(
            "faas",
            "kill_warm",
            &[("idle", Field::U64(idle as u64)), ("killed", Field::U64(killed as u64))],
        );
    }

    fn report(&mut self, ctx: &mut Context<'_, M>)
    where
        M: MessageEnvelope<FaasMsg>,
    {
        let demand = (self.window_peak + self.window_rejected) as f64;
        let supply = self.capacity.unwrap_or_else(|| self.platform.busy_instances(ctx.now()));
        self.window_peak = 0;
        self.window_rejected = 0;
        if let Some(observer) = self.observer.as_mut() {
            observer(ctx, demand, supply);
        }
        if let Some(every) = self.report_every {
            ctx.send_self(every, M::wrap(FaasMsg::Report));
        }
    }
}

impl<M: MessageEnvelope<FaasMsg>> Actor<M> for FaasActor<'_, M> {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        let Some(msg) = msg.unwrap() else { return };
        match msg {
            FaasMsg::Invoke { function } => self.invoke(ctx, &function, 1),
            FaasMsg::Retry { function, attempt } => {
                if let Some(bh) = &mut self.retry_bulkhead {
                    bh.release();
                }
                self.invoke(ctx, &function, attempt);
            }
            FaasMsg::Scale(delta) => self.scale(ctx, delta),
            FaasMsg::KillWarm { fraction } => self.kill_warm(ctx, fraction),
            FaasMsg::Fault(fault) => {
                self.active_faults.push(fault);
                ctx.emit_fields("faas", "fault", &[("kind", Field::Str(fault.name()))]);
            }
            FaasMsg::FaultClear(fault) => {
                if let Some(idx) = self.active_faults.iter().position(|f| *f == fault) {
                    self.active_faults.remove(idx);
                    ctx.emit_fields("faas", "fault_clear", &[("kind", Field::Str(fault.name()))]);
                }
            }
            FaasMsg::SetShedding(on) => self.shedding = on,
            FaasMsg::Report => self.report(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_simcore::codec::Json;
    use crate::platform::{FunctionSpec, KeepAlivePolicy};
    use mcs_simcore::engine::Simulation;
    use mcs_simcore::time::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn platform() -> FaasPlatform {
        let mut p = FaasPlatform::new(KeepAlivePolicy::Fixed(SimDuration::from_secs(600)), 1);
        p.deploy(FunctionSpec::api_handler("api"));
        p
    }

    #[test]
    fn capacity_cap_rejects_excess_invocations() {
        let mut p = platform();
        let mut actor = FaasActor::new(&mut p).with_capacity(2);
        let mut sim: Simulation<'_, FaasMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut actor);
        for _ in 0..5 {
            sim.schedule(SimTime::from_secs(1), id, FaasMsg::Invoke { function: "api".into() });
        }
        sim.run();
        assert_eq!(sim.trace().count("faas", "invoke"), 2);
        assert_eq!(sim.trace().count("faas", "reject"), 3);
    }

    #[test]
    fn kill_warm_forces_cold_restart() {
        let mut p = platform();
        let mut actor = FaasActor::new(&mut p);
        let mut sim: Simulation<'_, FaasMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::from_secs(1), id, FaasMsg::Invoke { function: "api".into() });
        sim.schedule(SimTime::from_secs(100), id, FaasMsg::KillWarm { fraction: 1.0 });
        sim.schedule(SimTime::from_secs(200), id, FaasMsg::Invoke { function: "api".into() });
        sim.run();
        let colds: Vec<bool> = sim
            .trace()
            .select("faas", "invoke")
            .iter()
            .filter_map(|e| match e.payload.get("cold") {
                Some(Json::Bool(b)) => Some(*b),
                _ => None,
            })
            .collect();
        assert_eq!(colds, vec![true, true], "warm kill must force a second cold start");
        assert_eq!(sim.trace().count("faas", "kill_warm"), 1);
    }

    #[test]
    fn report_observer_sees_demand_and_rearms() {
        let seen: Rc<RefCell<Vec<(f64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut p = platform();
        let mut actor = FaasActor::new(&mut p).with_capacity(1).with_observer(
            SimDuration::from_secs(60),
            move |_ctx, demand, supply| sink.borrow_mut().push((demand, supply)),
        );
        let mut sim: Simulation<'_, FaasMsg> = Simulation::new(0);
        sim.set_horizon(SimTime::from_secs(150));
        let id = sim.add_actor(&mut actor);
        // Two simultaneous arrivals against capacity 1: one rejected.
        sim.schedule(SimTime::from_secs(1), id, FaasMsg::Invoke { function: "api".into() });
        sim.schedule(SimTime::from_secs(1), id, FaasMsg::Invoke { function: "api".into() });
        sim.schedule(SimTime::from_secs(60), id, FaasMsg::Report);
        sim.run();
        // First window: peak 2 (one admitted + one over cap) + 1 reject = 3.
        // Second window (re-armed at 120 s): no traffic.
        assert_eq!(*seen.borrow(), vec![(3.0, 1), (0.0, 1)]);
    }

    #[test]
    fn partition_fault_fast_fails_and_schedules_jittered_retries() {
        use mcs_simcore::resilience::{Backoff, RetryPolicy};

        let mut p = platform();
        let mut actor = FaasActor::new(&mut p).with_resilience(ResilienceConfig {
            retry: Some(RetryPolicy {
                backoff: Backoff::Fixed(SimDuration::from_secs(10)),
                max_attempts: 3,
            }),
            ..ResilienceConfig::none()
        });
        let mut sim: Simulation<'_, FaasMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::from_secs(1), id, FaasMsg::Fault(FaasFault::Partition));
        sim.schedule(SimTime::from_secs(2), id, FaasMsg::Invoke { function: "api".into() });
        sim.run();
        // Attempt 1 at 2 s, retry at 12 s, retry at 22 s, budget spent.
        assert_eq!(sim.trace().count("faas", "invoke_failed"), 3);
        assert_eq!(sim.trace().count("faas", "retry_scheduled"), 2);
        assert_eq!(sim.trace().count("faas", "retry_exhausted"), 1);
        assert_eq!(sim.trace().count("faas", "invoke"), 0);
    }

    #[test]
    fn retry_succeeds_once_the_partition_clears() {
        use mcs_simcore::resilience::{Backoff, RetryPolicy};

        let mut p = platform();
        let mut actor = FaasActor::new(&mut p).with_resilience(ResilienceConfig {
            retry: Some(RetryPolicy {
                backoff: Backoff::Fixed(SimDuration::from_secs(10)),
                max_attempts: 4,
            }),
            ..ResilienceConfig::none()
        });
        let mut sim: Simulation<'_, FaasMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::from_secs(1), id, FaasMsg::Fault(FaasFault::Partition));
        sim.schedule(SimTime::from_secs(2), id, FaasMsg::Invoke { function: "api".into() });
        sim.schedule(SimTime::from_secs(5), id, FaasMsg::FaultClear(FaasFault::Partition));
        sim.run();
        assert_eq!(sim.trace().count("faas", "invoke_failed"), 1, "only the first attempt");
        assert_eq!(sim.trace().count("faas", "invoke"), 1, "the 12 s retry lands");
        assert_eq!(sim.trace().count("faas", "fault"), 1);
        assert_eq!(sim.trace().count("faas", "fault_clear"), 1);
    }

    #[test]
    fn gray_failures_trip_the_per_function_breaker() {
        use mcs_simcore::resilience::BreakerConfig;

        let mut p = platform();
        let mut actor = FaasActor::new(&mut p).with_resilience(ResilienceConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 3,
                open_for: SimDuration::from_secs(1_000),
                half_open_successes: 1,
            }),
            ..ResilienceConfig::none()
        });
        let mut sim: Simulation<'_, FaasMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut actor);
        // error_rate 1.0: every invocation fails deterministically.
        sim.schedule(
            SimTime::from_secs(1),
            id,
            FaasMsg::Fault(FaasFault::Gray { error_rate: 1.0 }),
        );
        for t in 2..8 {
            sim.schedule(SimTime::from_secs(t), id, FaasMsg::Invoke { function: "api".into() });
        }
        sim.run();
        // Three gray failures trip the breaker; the remaining three arrivals
        // fast-fail without touching the platform.
        let gray = sim
            .trace()
            .select("faas", "invoke_failed")
            .iter()
            .filter(|e| e.payload.get("reason") == Some(&Json::Str("gray".into())))
            .count();
        let fast = sim
            .trace()
            .select("faas", "invoke_failed")
            .iter()
            .filter(|e| e.payload.get("reason") == Some(&Json::Str("breaker_open".into())))
            .count();
        assert_eq!((gray, fast), (3, 3));
        assert_eq!(sim.trace().count("faas", "breaker"), 1, "one closed→open transition");
    }

    #[test]
    fn engaged_shedding_drops_above_the_knee() {
        let mut p = platform();
        let mut actor = FaasActor::new(&mut p).with_capacity(4).with_resilience(
            ResilienceConfig {
                shedder: Some(mcs_simcore::resilience::ShedderConfig { max_utilization: 0.5 }),
                ..ResilienceConfig::none()
            },
        );
        let mut sim: Simulation<'_, FaasMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::from_secs(1), id, FaasMsg::SetShedding(true));
        for _ in 0..5 {
            sim.schedule(SimTime::from_secs(2), id, FaasMsg::Invoke { function: "api".into() });
        }
        sim.run();
        // Knee at 0.5 of 4 = 2 busy: two admitted, the rest shed.
        assert_eq!(sim.trace().count("faas", "invoke"), 2);
        assert_eq!(sim.trace().count("faas", "shed"), 3);
        assert_eq!(sim.trace().count("faas", "reject"), 0, "shed, not capacity-rejected");
    }

    #[test]
    fn slowdown_and_timeout_turn_stragglers_into_failures() {
        use mcs_simcore::resilience::Timeout;

        let mut p = platform();
        let mut actor = FaasActor::new(&mut p).with_resilience(ResilienceConfig {
            timeout: Some(Timeout::from_secs_f64(2.0)),
            ..ResilienceConfig::none()
        });
        let mut sim: Simulation<'_, FaasMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::from_secs(1), id, FaasMsg::Invoke { function: "api".into() });
        // A 1000× straggler window makes the ~20 ms handler blow a 2 s budget.
        sim.schedule(
            SimTime::from_secs(10),
            id,
            FaasMsg::Fault(FaasFault::Slowdown { factor: 1_000.0 }),
        );
        sim.schedule(SimTime::from_secs(11), id, FaasMsg::Invoke { function: "api".into() });
        sim.run();
        assert_eq!(sim.trace().count("faas", "invoke"), 1, "pre-fault invocation is fine");
        let reasons: Vec<&Json> = sim
            .trace()
            .select("faas", "invoke_failed")
            .iter()
            .filter_map(|e| e.payload.get("reason"))
            .collect();
        assert_eq!(reasons, vec![&Json::Str("timeout".into())]);
    }

    #[test]
    fn resilient_runs_are_deterministic_per_seed() {
        let run = |seed: u64| -> String {
            let mut p = FaasPlatform::new(KeepAlivePolicy::Fixed(SimDuration::from_secs(600)), seed);
            p.deploy(FunctionSpec::api_handler("api"));
            let mut actor = FaasActor::new(&mut p)
                .with_capacity(2)
                .with_resilience(ResilienceConfig::all_on());
            let mut sim: Simulation<'_, FaasMsg> = Simulation::new(seed);
            let id = sim.add_actor(&mut actor);
            sim.schedule(
                SimTime::from_secs(1),
                id,
                FaasMsg::Fault(FaasFault::Gray { error_rate: 0.5 }),
            );
            for t in 0..50 {
                sim.schedule(
                    SimTime::from_secs(2 + t / 4),
                    id,
                    FaasMsg::Invoke { function: "api".into() },
                );
            }
            sim.run();
            sim.take_trace().to_json_string()
        };
        assert_eq!(run(9), run(9), "same seed, byte-identical trace");
        assert_ne!(run(9), run(10), "different seeds diverge");
    }

    #[test]
    fn scale_message_moves_the_cap() {
        let mut p = platform();
        let mut actor = FaasActor::new(&mut p).with_capacity(2);
        let mut sim: Simulation<'_, FaasMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::from_secs(1), id, FaasMsg::Scale(3));
        sim.schedule(SimTime::from_secs(2), id, FaasMsg::Scale(-10));
        sim.run();
        drop(sim);
        // 2 + 3 = 5, then floored at 1.
        assert_eq!(actor.capacity(), Some(1));
    }
}
