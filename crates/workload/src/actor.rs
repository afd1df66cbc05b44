//! Workload arrival as a discrete-event actor.
//!
//! [`ArrivalActor`] drives any [`ArrivalProcess`] *online*: instead of
//! materialising the arrival schedule up front, it samples the next arrival
//! when the previous one fires, keeping exactly one pending event in the
//! simulation regardless of workload length. A caller-provided `deliver`
//! callback injects each arrival into the rest of the scenario (invoke a
//! function, submit a job, ...).

use crate::arrival::ArrivalProcess;
use mcs_simcore::engine::{Actor, Context, MessageEnvelope};
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::SimTime;
use mcs_simcore::trace::Field;

/// The arrival actor's message vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalMsg {
    /// Kick-off: sample and arm the first arrival.
    Start,
    /// One arrival fires now.
    Arrive,
}

/// Callback receiving each arrival (with its zero-based index) as it fires.
pub type ArrivalSink<'a, M> = Box<dyn FnMut(&mut Context<'_, M>, usize) + 'a>;

/// Emits workload arrivals from an [`ArrivalProcess`] into a simulation.
pub struct ArrivalActor<'a, M> {
    process: &'a mut dyn ArrivalProcess,
    rng: RngStream,
    horizon: SimTime,
    max: usize,
    count: usize,
    deliver: ArrivalSink<'a, M>,
}

impl<'a, M: MessageEnvelope<ArrivalMsg>> ArrivalActor<'a, M> {
    /// Builds an arrival actor over `process`, stopping at `horizon` (and
    /// after `max` arrivals, whichever comes first). `deliver` receives the
    /// zero-based arrival index.
    pub fn new(
        process: &'a mut dyn ArrivalProcess,
        rng: RngStream,
        horizon: SimTime,
        max: usize,
        deliver: impl FnMut(&mut Context<'_, M>, usize) + 'a,
    ) -> Self {
        ArrivalActor { process, rng, horizon, max, count: 0, deliver: Box::new(deliver) }
    }

    fn arm_next(&mut self, ctx: &mut Context<'_, M>) {
        if self.count >= self.max {
            return;
        }
        match self.process.next_after(ctx.now(), &mut self.rng) {
            Some(t) if t < self.horizon => {
                ctx.send_at(ctx.self_id(), t, M::wrap(ArrivalMsg::Arrive));
            }
            _ => {}
        }
    }

    fn arrive(&mut self, ctx: &mut Context<'_, M>) {
        let index = self.count;
        self.count += 1;
        ctx.emit_fields("workload", "arrival", &[("index", Field::U64(index as u64))]);
        (self.deliver)(ctx, index);
        self.arm_next(ctx);
    }
}

impl<M: MessageEnvelope<ArrivalMsg>> Actor<M> for ArrivalActor<'_, M> {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        let Some(msg) = msg.unwrap() else { return };
        match msg {
            ArrivalMsg::Start => self.arm_next(ctx),
            ArrivalMsg::Arrive => self.arrive(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{arrivals_between, Poisson};
    use mcs_simcore::engine::Simulation;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn online_arrivals_match_offline_schedule() {
        let horizon = SimTime::from_secs(500);
        // Offline reference: materialise the schedule with the same stream.
        let mut reference_rng = RngStream::new(9, "arrivals");
        let mut reference_process = Poisson::new(0.2);
        let expected = arrivals_between(
            &mut reference_process,
            SimTime::ZERO,
            horizon,
            usize::MAX,
            &mut reference_rng,
        );

        let seen: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut process = Poisson::new(0.2);
        let mut actor: ArrivalActor<'_, ArrivalMsg> = ArrivalActor::new(
            &mut process,
            RngStream::new(9, "arrivals"),
            horizon,
            usize::MAX,
            move |ctx, _index| sink.borrow_mut().push(ctx.now()),
        );
        let mut sim: Simulation<'_, ArrivalMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, ArrivalMsg::Start);
        sim.run();
        let traced = sim.trace().count("workload", "arrival");
        drop(sim);

        assert!(!expected.is_empty());
        assert_eq!(*seen.borrow(), expected);
        assert_eq!(traced, expected.len());
    }

    #[test]
    fn max_arrivals_caps_the_stream() {
        let mut process = Poisson::new(10.0);
        let mut actor: ArrivalActor<'_, ArrivalMsg> = ArrivalActor::new(
            &mut process,
            RngStream::new(1, "arrivals"),
            SimTime::from_secs(1_000_000),
            5,
            |_ctx, _index| {},
        );
        let mut sim: Simulation<'_, ArrivalMsg> = Simulation::new(0);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, ArrivalMsg::Start);
        sim.run();
        assert_eq!(sim.trace().count("workload", "arrival"), 5);
    }
}
