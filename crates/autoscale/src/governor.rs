//! The autoscaling governor for composed simulations, and the scaling
//! decision it shares with the service simulator.
//!
//! [`GovernorActor`] governs *another* actor in the same simulation: it
//! receives [`GovernorMsg::Observe`] messages carrying the governed
//! subsystem's measured demand and supply, takes one scaling decision per
//! observation, and applies capacity deltas back through a caller-provided
//! callback: a scale-up `provisioning_delay_intervals` intervals after the
//! decision (a [`GovernorMsg::Provisioned`] self-message), a scale-down
//! immediately. This is the wiring the composed "ecosystem" scenario uses to
//! autoscale the FaaS platform.
//!
//! The decision itself (demand history, [`AutoscaleObservation`], autoscaler
//! call, clamp to `[min_instances, max_instances]`, `autoscale/decision`
//! trace record) is the crate-private `ScalingStep`, which
//! [`crate::service::simulate_service`] runs too. The two differ only in how
//! a target becomes capacity.

use crate::autoscalers::{AutoscaleObservation, Autoscaler};
use crate::service::ServiceConfig;
use mcs_simcore::engine::{Actor, Context, MessageEnvelope};
use mcs_simcore::trace::Field;

/// One autoscaling decision per interval: records the interval's demand,
/// asks the autoscaler for a target, clamps it to the configured bounds and
/// traces it as `autoscale/decision`.
pub(crate) struct ScalingStep<'a> {
    autoscaler: &'a mut dyn Autoscaler,
    config: ServiceConfig,
    history: Vec<f64>,
}

impl<'a> ScalingStep<'a> {
    /// # Panics
    /// Panics when the scaling interval of `config` is zero.
    pub(crate) fn new(autoscaler: &'a mut dyn Autoscaler, config: ServiceConfig) -> Self {
        assert!(!config.scaling_interval.is_zero(), "scaling interval must be positive");
        ScalingStep { autoscaler, config, history: Vec::new() }
    }

    /// Decides on `demand` observed at `supply` active instances. Returns
    /// the autoscaler's raw target and the target clamped to
    /// `[min_instances, max_instances]`.
    pub(crate) fn decide<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        demand: f64,
        supply: usize,
    ) -> (usize, usize) {
        self.history.push(demand);
        // The history moves into the observation and back: no copy per call.
        let obs = AutoscaleObservation {
            interval_index: self.history.len() - 1,
            demand_history: std::mem::take(&mut self.history),
            supply,
            intervals_per_day: self.config.intervals_per_day(),
        };
        let raw = self.autoscaler.decide(&obs);
        self.history = obs.demand_history;
        let target = raw.clamp(self.config.min_instances, self.config.max_instances);
        ctx.emit_fields(
            "autoscale",
            "decision",
            &[
                ("demand", Field::F64(demand)),
                ("supply", Field::U64(supply as u64)),
                ("target", Field::U64(target as u64)),
            ],
        );
        (raw, target)
    }
}

/// The governor's message vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GovernorMsg {
    /// A periodic measurement of the governed subsystem.
    Observe {
        /// Instances needed over the last interval.
        demand: f64,
        /// Instances currently active.
        supply: usize,
    },
    /// Self-scheduled: instances requested one provisioning delay ago are
    /// ready.
    Provisioned(usize),
}

/// Callback applying a capacity delta to the governed actor.
pub type CapacityDelta<'a, M> = Box<dyn FnMut(&mut Context<'_, M>, i64) + 'a>;

/// Callback engaging (`true`) or disengaging (`false`) load shedding on the
/// governed actor (see [`GovernorActor::with_shedding`]).
pub type ShedSignal<'a, M> = Box<dyn FnMut(&mut Context<'_, M>, bool) + 'a>;

/// Governs another actor's capacity through an [`Autoscaler`].
///
/// The `apply` callback receives a signed instance delta: negative for
/// immediate scale-down, positive when provisioned instances arrive. It
/// runs inside the simulation, so it may send messages (typically to the
/// governed actor).
pub struct GovernorActor<'a, M> {
    step: ScalingStep<'a>,
    config: ServiceConfig,
    in_flight: usize,
    apply: CapacityDelta<'a, M>,
    on_shed: Option<ShedSignal<'a, M>>,
    shedding: bool,
}

impl<'a, M> GovernorActor<'a, M> {
    /// Builds a governor applying capacity deltas through `apply`.
    ///
    /// # Panics
    /// Panics when the scaling interval of `config` is zero.
    pub fn new(
        autoscaler: &'a mut dyn Autoscaler,
        config: ServiceConfig,
        apply: impl FnMut(&mut Context<'_, M>, i64) + 'a,
    ) -> Self {
        GovernorActor {
            step: ScalingStep::new(autoscaler, config),
            config,
            in_flight: 0,
            apply: Box::new(apply),
            on_shed: None,
            shedding: false,
        }
    }

    /// Installs a load-shedding signal: when the autoscaler's raw (unclamped)
    /// target exceeds `max_instances` — demand the service cannot provision
    /// its way out of — the governor engages shedding on the governed actor,
    /// and disengages it once the target falls back inside the bounds.
    #[must_use]
    pub fn with_shedding(
        mut self,
        on_shed: impl FnMut(&mut Context<'_, M>, bool) + 'a,
    ) -> Self {
        self.on_shed = Some(Box::new(on_shed));
        self
    }

    /// Whether load shedding is currently engaged.
    pub fn shedding(&self) -> bool {
        self.shedding
    }

    fn observe(&mut self, ctx: &mut Context<'_, M>, demand: f64, supply: usize)
    where
        M: MessageEnvelope<GovernorMsg>,
    {
        let (raw, target) = self.step.decide(ctx, demand, supply);
        if let Some(on_shed) = self.on_shed.as_mut() {
            let over_capacity = raw > self.config.max_instances;
            if over_capacity != self.shedding {
                self.shedding = over_capacity;
                ctx.emit_fields(
                    "autoscale",
                    if over_capacity { "shed_on" } else { "shed_off" },
                    &[
                        ("raw_target", Field::U64(raw as u64)),
                        ("max_instances", Field::U64(self.config.max_instances as u64)),
                    ],
                );
                on_shed(ctx, over_capacity);
            }
        }
        if target > supply + self.in_flight {
            let extra = target - supply - self.in_flight;
            self.in_flight += extra;
            let delay =
                self.config.scaling_interval * self.config.provisioning_delay_intervals as u64;
            ctx.send_self(delay, M::wrap(GovernorMsg::Provisioned(extra)));
        } else if target < supply {
            // Scale-down is immediate; the clamp keeps it at or above
            // min_instances.
            (self.apply)(ctx, target as i64 - supply as i64);
        }
    }

    fn provisioned(&mut self, ctx: &mut Context<'_, M>, n: usize) {
        self.in_flight = self.in_flight.saturating_sub(n);
        ctx.emit_fields("autoscale", "provisioned", &[("instances", Field::U64(n as u64))]);
        (self.apply)(ctx, n as i64);
    }
}

impl<M: MessageEnvelope<GovernorMsg>> Actor<M> for GovernorActor<'_, M> {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        let Some(msg) = msg.unwrap() else { return };
        match msg {
            GovernorMsg::Observe { demand, supply } => self.observe(ctx, demand, supply),
            GovernorMsg::Provisioned(n) => self.provisioned(ctx, n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_simcore::engine::Simulation;
    use mcs_simcore::time::{SimDuration, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Fixed(usize);
    impl Autoscaler for Fixed {
        fn decide(&mut self, _obs: &AutoscaleObservation) -> usize {
            self.0
        }
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            scaling_interval: SimDuration::from_secs(60),
            provisioning_delay_intervals: 2,
            min_instances: 1,
            max_instances: 100,
        }
    }

    #[test]
    fn scale_up_arrives_after_provisioning_delay() {
        let deltas: Rc<RefCell<Vec<(SimTime, i64)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&deltas);
        let mut scaler = Fixed(5);
        let mut gov = GovernorActor::new(&mut scaler, config(), move |ctx, d| {
            sink.borrow_mut().push((ctx.now(), d));
        });
        let mut sim: Simulation<'_, GovernorMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut gov);
        sim.schedule(SimTime::ZERO, id, GovernorMsg::Observe { demand: 5.0, supply: 1 });
        sim.run();
        // +4 instances, 2 intervals (120 s) later.
        assert_eq!(*deltas.borrow(), vec![(SimTime::from_secs(120), 4)]);
        assert_eq!(sim.trace().count("autoscale", "decision"), 1);
    }

    #[test]
    fn scale_down_is_immediate_and_floored() {
        let deltas: Rc<RefCell<Vec<(SimTime, i64)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&deltas);
        let mut scaler = Fixed(0);
        let mut cfg = config();
        cfg.min_instances = 2;
        let mut gov = GovernorActor::new(&mut scaler, cfg, move |ctx, d| {
            sink.borrow_mut().push((ctx.now(), d));
        });
        let mut sim: Simulation<'_, GovernorMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut gov);
        sim.schedule(
            SimTime::from_secs(60),
            id,
            GovernorMsg::Observe { demand: 0.0, supply: 10 },
        );
        sim.run();
        // Down to the min_instances floor (2), immediately.
        assert_eq!(*deltas.borrow(), vec![(SimTime::from_secs(60), -8)]);
    }

    #[test]
    fn shedding_engages_over_capacity_and_disengages_after() {
        let signals: Rc<RefCell<Vec<bool>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&signals);
        struct Ramp(Vec<usize>);
        impl Autoscaler for Ramp {
            fn decide(&mut self, _obs: &AutoscaleObservation) -> usize {
                self.0.remove(0)
            }
            fn name(&self) -> &'static str {
                "ramp"
            }
        }
        // max_instances is 100: 150 is over capacity, 80 and 90 are not.
        let mut scaler = Ramp(vec![80, 150, 150, 90]);
        let mut gov = GovernorActor::new(&mut scaler, config(), |_ctx, _d| {})
            .with_shedding(move |_ctx, on| sink.borrow_mut().push(on));
        let mut sim: Simulation<'_, GovernorMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut gov);
        for t in 0..4 {
            sim.schedule(
                SimTime::from_secs(t * 60),
                id,
                GovernorMsg::Observe { demand: 1.0, supply: 100 },
            );
        }
        sim.run();
        // One engage at the first over-capacity tick (no repeat while it
        // persists), one disengage when the target returns in bounds.
        assert_eq!(*signals.borrow(), vec![true, false]);
        assert_eq!(sim.trace().count("autoscale", "shed_on"), 1);
        assert_eq!(sim.trace().count("autoscale", "shed_off"), 1);
        drop(sim);
        assert!(!gov.shedding());
    }

    #[test]
    fn in_flight_instances_are_not_rerequested() {
        let deltas: Rc<RefCell<Vec<i64>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&deltas);
        let mut scaler = Fixed(5);
        let mut gov = GovernorActor::new(&mut scaler, config(), move |_ctx, d| {
            sink.borrow_mut().push(d);
        });
        let mut sim: Simulation<'_, GovernorMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut gov);
        // Two observations before the first provisioning completes: the
        // second must not double-request.
        sim.schedule(SimTime::ZERO, id, GovernorMsg::Observe { demand: 5.0, supply: 1 });
        sim.schedule(
            SimTime::from_secs(60),
            id,
            GovernorMsg::Observe { demand: 5.0, supply: 1 },
        );
        sim.run();
        assert_eq!(*deltas.borrow(), vec![4]);
    }
}
