//! Replays an outage schedule into a live discrete-event simulation.
//!
//! The models in [`crate::model`] generate outage *schedules* up front; the
//! [`FailureInjector`] actor turns such a schedule into engine messages, so
//! failures and repairs interleave with scheduler, autoscaler, and platform
//! events in one [`Simulation`](mcs_simcore::engine::Simulation). A
//! caller-provided `deliver` callback fans each event out to the affected
//! subsystems (e.g. a `MachineFail` to the scheduler, a warm-pool kill to
//! the FaaS platform).
//!
//! The injector keeps a cursor into the pre-sorted schedule and arms only
//! the *next* outage, so a year-long schedule costs one pending event, not
//! thousands.

use crate::model::{Fault, Outage};
use mcs_simcore::engine::{Actor, Context, MessageEnvelope};
use mcs_simcore::time::SimTime;
use mcs_simcore::trace::Field;

/// The injector's message vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectorMsg {
    /// Kick-off: arm the first outage.
    Start,
    /// The fault under the cursor strikes now.
    Fail,
    /// The fault at this schedule index is repaired now.
    Repair(usize),
}

/// One failure-domain event delivered to the scenario callback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureEvent {
    /// This fault's window just opened (crash, straggler, gray, partition).
    Fail(Fault),
    /// This fault's window just closed.
    Repair(Fault),
}

/// Callback receiving each [`FailureEvent`] as it fires.
pub type FailureSink<'a, M> = Box<dyn FnMut(&mut Context<'_, M>, FailureEvent) + 'a>;

/// Replays a sorted fault schedule as engine messages.
pub struct FailureInjector<'a, M> {
    faults: Vec<Fault>,
    cursor: usize,
    horizon: Option<SimTime>,
    deliver: FailureSink<'a, M>,
}

impl<'a, M: MessageEnvelope<InjectorMsg>> FailureInjector<'a, M> {
    /// Builds an injector over crash-stop `outages` (sorted internally by
    /// `(fail_at, machine)`, the order the models already emit).
    pub fn new(
        outages: Vec<Outage>,
        deliver: impl FnMut(&mut Context<'_, M>, FailureEvent) + 'a,
    ) -> Self {
        Self::with_faults(outages.into_iter().map(Fault::crash).collect(), deliver)
    }

    /// Builds an injector over a mixed-kind fault schedule (e.g. from
    /// [`FaultMix::assign`](crate::model::FaultMix::assign)).
    pub fn with_faults(
        mut faults: Vec<Fault>,
        deliver: impl FnMut(&mut Context<'_, M>, FailureEvent) + 'a,
    ) -> Self {
        faults.sort_by_key(|f| (f.outage.fail_at, f.outage.machine));
        FailureInjector {
            faults,
            cursor: 0,
            horizon: None,
            deliver: Box::new(deliver),
        }
    }

    /// Ignores outages failing at or after `horizon` and clamps repair
    /// instants to it.
    #[must_use]
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    fn arm_next(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(f) = self.faults.get(self.cursor) {
            if self.horizon.is_some_and(|h| f.outage.fail_at >= h) {
                // The schedule is sorted: everything from here on is late too.
                self.cursor = self.faults.len();
            } else {
                ctx.send_at(ctx.self_id(), f.outage.fail_at, M::wrap(InjectorMsg::Fail));
            }
        }
    }

    fn fail(&mut self, ctx: &mut Context<'_, M>) {
        let idx = self.cursor;
        let f = self.faults[idx];
        self.cursor += 1;
        ctx.emit_fields(
            "failure",
            "outage",
            &[
                ("machine", Field::U64(f.outage.machine as u64)),
                ("kind", Field::Str(f.kind.name())),
                ("downtime_secs", Field::F64(f.outage.duration().as_secs_f64())),
            ],
        );
        (self.deliver)(ctx, FailureEvent::Fail(f));
        let repair_at = match self.horizon {
            Some(h) => f.outage.repair_at.min(h),
            None => f.outage.repair_at,
        };
        ctx.send_at(ctx.self_id(), repair_at, M::wrap(InjectorMsg::Repair(idx)));
        self.arm_next(ctx);
    }

    fn repair(&mut self, ctx: &mut Context<'_, M>, idx: usize) {
        let f = self.faults[idx];
        ctx.emit_fields(
            "failure",
            "repair",
            &[
                ("machine", Field::U64(f.outage.machine as u64)),
                ("kind", Field::Str(f.kind.name())),
            ],
        );
        (self.deliver)(ctx, FailureEvent::Repair(f));
    }
}

impl<M: MessageEnvelope<InjectorMsg>> Actor<M> for FailureInjector<'_, M> {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        let Some(msg) = msg.unwrap() else { return };
        match msg {
            InjectorMsg::Start => self.arm_next(ctx),
            InjectorMsg::Fail => self.fail(ctx),
            InjectorMsg::Repair(idx) => self.repair(ctx, idx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_simcore::engine::Simulation;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn outage(machine: usize, fail: u64, repair: u64) -> Outage {
        Outage {
            machine,
            fail_at: SimTime::from_secs(fail),
            repair_at: SimTime::from_secs(repair),
        }
    }

    fn run_injector(
        outages: Vec<Outage>,
        horizon: Option<SimTime>,
    ) -> (Vec<(SimTime, FailureEvent)>, usize, usize) {
        let log: Rc<RefCell<Vec<(SimTime, FailureEvent)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&log);
        let mut inj: FailureInjector<'_, InjectorMsg> =
            FailureInjector::new(outages, move |ctx, ev| {
                sink.borrow_mut().push((ctx.now(), ev));
            });
        if let Some(h) = horizon {
            inj = inj.with_horizon(h);
        }
        let mut sim: Simulation<'_, InjectorMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut inj);
        sim.schedule(SimTime::ZERO, id, InjectorMsg::Start);
        sim.run();
        let fails = sim.trace().count("failure", "outage");
        let repairs = sim.trace().count("failure", "repair");
        drop(sim);
        let events = log.borrow().clone();
        (events, fails, repairs)
    }

    #[test]
    fn delivers_fails_and_repairs_in_time_order() {
        let (events, fails, repairs) =
            run_injector(vec![outage(0, 10, 50), outage(1, 20, 30)], None);
        assert_eq!((fails, repairs), (2, 2));
        let kinds: Vec<(u64, bool)> = events
            .iter()
            .map(|(t, ev)| (t.as_secs_f64() as u64, matches!(ev, FailureEvent::Fail(_))))
            .collect();
        assert_eq!(kinds, vec![(10, true), (20, true), (30, false), (50, false)]);
    }

    #[test]
    fn burst_at_same_instant_delivers_in_machine_order() {
        let (events, ..) =
            run_injector(vec![outage(7, 10, 40), outage(3, 10, 20), outage(5, 10, 30)], None);
        let fail_machines: Vec<usize> = events
            .iter()
            .filter_map(|(_, ev)| match ev {
                FailureEvent::Fail(f) => Some(f.outage.machine),
                FailureEvent::Repair(_) => None,
            })
            .collect();
        assert_eq!(fail_machines, vec![3, 5, 7]);
    }

    #[test]
    fn horizon_skips_late_outages_and_clamps_repairs() {
        let (events, fails, ..) = run_injector(
            vec![outage(0, 10, 500), outage(1, 200, 300)],
            Some(SimTime::from_secs(100)),
        );
        assert_eq!(fails, 1, "outage at 200 s is past the 100 s horizon");
        let repair_times: Vec<u64> = events
            .iter()
            .filter_map(|(t, ev)| match ev {
                FailureEvent::Repair(_) => Some(t.as_secs_f64() as u64),
                FailureEvent::Fail(_) => None,
            })
            .collect();
        assert_eq!(repair_times, vec![100], "repair clamped to the horizon");
    }

    #[test]
    fn mixed_fault_kinds_flow_through_the_cursor() {
        use crate::model::{FaultKind, FaultMix};
        use mcs_simcore::rng::RngStream;

        let outages = (0..40).map(|i| outage(i, 10 + i as u64 * 5, 20 + i as u64 * 5)).collect();
        let mix = FaultMix {
            crash: 0.25,
            slowdown: 0.25,
            gray: 0.25,
            partition: 0.25,
            ..FaultMix::crash_only()
        };
        let faults = mix.assign(outages, &mut RngStream::new(11, "mix"));
        let non_crash = faults.iter().filter(|f| f.kind != FaultKind::Crash).count();
        assert!(non_crash > 0, "an even mix over 40 outages yields non-crash kinds");

        let log: Rc<RefCell<Vec<FailureEvent>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&log);
        let mut inj: FailureInjector<'_, InjectorMsg> =
            FailureInjector::with_faults(faults.clone(), move |_, ev| {
                sink.borrow_mut().push(ev);
            });
        let mut sim: Simulation<'_, InjectorMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut inj);
        sim.schedule(SimTime::ZERO, id, InjectorMsg::Start);
        sim.run();
        drop(sim);
        let delivered_kinds: Vec<&'static str> = log
            .borrow()
            .iter()
            .filter_map(|ev| match ev {
                FailureEvent::Fail(f) => Some(f.kind.name()),
                FailureEvent::Repair(_) => None,
            })
            .collect();
        let scheduled_kinds: Vec<&'static str> = faults.iter().map(|f| f.kind.name()).collect();
        assert_eq!(delivered_kinds, scheduled_kinds, "kinds survive the cursor verbatim");
    }

    /// Satellite property: under an arbitrary schedule and horizon, the
    /// injector never delivers a `Fail` at/after the horizon and every
    /// repair instant is clamped to it.
    #[test]
    fn prop_horizon_bounds_all_deliveries() {
        use mcs_simcore::check::Check;
        use mcs_simcore::prop_assert;

        Check::new("injector_horizon_bounds").cases(64).run(|rng| {
            use mcs_simcore::time::SimDuration;
            let at = |secs: f64| SimTime::ZERO + SimDuration::from_secs_f64(secs);
            let n = 1 + rng.uniform_usize(30);
            let outages: Vec<Outage> = (0..n)
                .map(|i| {
                    let fail = rng.uniform_f64(0.0, 1_000.0);
                    Outage {
                        machine: i % 8,
                        fail_at: at(fail),
                        repair_at: at(fail + rng.uniform_f64(0.1, 400.0)),
                    }
                })
                .collect();
            let horizon = at(rng.uniform_f64(1.0, 1_200.0));
            let (events, ..) = run_injector(outages, Some(horizon));
            for (t, ev) in &events {
                match ev {
                    FailureEvent::Fail(f) => {
                        prop_assert!(
                            *t < horizon && f.outage.fail_at < horizon,
                            "Fail delivered at {t:?} with horizon {horizon:?}"
                        );
                    }
                    FailureEvent::Repair(_) => {
                        prop_assert!(
                            *t <= horizon,
                            "Repair delivered at {t:?} past horizon {horizon:?}"
                        );
                    }
                }
            }
            Ok(())
        });
    }
}
