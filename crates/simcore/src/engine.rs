//! The discrete-event simulation engine.
//!
//! The engine is deliberately minimal and deterministic: a binary-heap event
//! queue over virtual [`SimTime`], a set of actors addressed by [`ActorId`],
//! and a [`Context`] through which actors schedule future events. Events that
//! share a timestamp are delivered in scheduling order (a monotone sequence
//! number breaks ties), which — together with the per-component RNG streams
//! of [`crate::rng`] — makes every run bit-for-bit reproducible.
//!
//! Every subsystem simulation in the workspace drives this engine: the RMS
//! scheduler, the autoscaled service, the FaaS platform, and the failure
//! injector each define a message enum and an [`Actor`] impl, and composed
//! scenarios (see `mcs-core`) run several of them in one [`Simulation`].
//! While handling messages, actors emit structured records into the
//! simulation's [`TraceBus`] via [`Context::emit_fields`]; the bus is the
//! single observable artifact of a run.
//!
//! Scheduling calls return an [`EventToken`]; pending events can be revoked
//! with [`Context::cancel`] / [`Simulation::cancel`], which timer-driven
//! actors (autoscalers, repair processes) use to retract obsolete wake-ups.
//!
//! # Examples
//! ```
//! use mcs_simcore::engine::{Actor, Context, Simulation};
//! use mcs_simcore::time::{SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Msg { Ping(u32) }
//!
//! struct Counter { seen: u32 }
//! impl Actor<Msg> for Counter {
//!     fn handle(&mut self, ctx: &mut Context<'_, Msg>, msg: Msg) {
//!         let Msg::Ping(n) = msg;
//!         self.seen += n;
//!         if n < 3 {
//!             ctx.send_self(SimDuration::from_secs(1), Msg::Ping(n + 1));
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let id = sim.add_actor(Counter { seen: 0 });
//! sim.schedule(SimTime::ZERO, id, Msg::Ping(1));
//! sim.run();
//! assert_eq!(sim.now(), SimTime::from_secs(2));
//! ```

use std::fmt;
use std::ptr;

use crate::error::McsError;
use crate::intern::FastHashSet;
use crate::rng::RngStream;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Field, TraceBus};

/// Identifies an actor registered with a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(usize);

impl ActorId {
    /// The id an actor will receive if it is the `index`-th registration
    /// (0-based) of its simulation.
    ///
    /// Needed when actors must know each other's ids before any of them is
    /// registered (mutually-referencing scenario wiring); pair with a
    /// `debug_assert_eq!` against the id [`Simulation::add_actor`] returns.
    pub fn from_index(index: usize) -> Self {
        ActorId(index)
    }

    /// The raw index of the actor in registration order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// A handle to one scheduled event, returned by every scheduling call.
///
/// Passing it to [`Context::cancel`] or [`Simulation::cancel`] revokes the
/// event if it has not been delivered yet; cancelling an already-delivered
/// (or already-cancelled) event is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken(u64);

/// A simulation participant: receives messages at virtual instants.
pub trait Actor<M> {
    /// Handles one message delivered at `ctx.now()`.
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M);
}

/// Mutable borrows participate directly, so callers can register
/// `&mut actor`, run the simulation, and inspect the actor afterwards.
impl<M, A: Actor<M> + ?Sized> Actor<M> for &mut A {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        (**self).handle(ctx, msg)
    }
}

impl<M, A: Actor<M> + ?Sized> Actor<M> for Box<A> {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        (**self).handle(ctx, msg)
    }
}

/// Embeds a subsystem's message enum into a composed simulation's message
/// type, so one `Actor` impl serves both the subsystem's own single-actor
/// wrapper (where `Self == Inner`) and any scenario that unions several
/// subsystem enums.
///
/// Laws: `M::wrap(x).unwrap() == Some(x)`, and `unwrap` returns `None`
/// exactly for variants belonging to other subsystems.
pub trait MessageEnvelope<Inner>: Sized {
    /// Wraps a subsystem message into the envelope type.
    fn wrap(inner: Inner) -> Self;
    /// Extracts the subsystem message, or `None` if the envelope carries a
    /// different subsystem's message.
    fn unwrap(self) -> Option<Inner>;
}

/// Every message type trivially envelopes itself.
impl<T> MessageEnvelope<T> for T {
    fn wrap(inner: T) -> T {
        inner
    }
    fn unwrap(self) -> Option<T> {
        Some(self)
    }
}

struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    target: ActorId,
    msg: M,
}

impl<M> Scheduled<M> {
    /// Delivery order: earliest first, then scheduling order. `seq` is
    /// unique, so this is a strict total order.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// The pending events: a binary min-heap in delivery order.
///
/// It is defined here rather than taken from `std::collections::BinaryHeap`
/// so that rustc always places its `push` and `pop` in the same codegen
/// unit as [`Simulation::step`], where they inline. std's heap methods get
/// a unit of their own in the crate that instantiates the engine, and
/// whether rustc merged that unit with `step`'s depended on the size of
/// unrelated code in that crate. The sifts follow std's: each level moves
/// one entry into a hole instead of swapping two.
struct EventQueue<M> {
    heap: Vec<Scheduled<M>>,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue { heap: Vec::new() }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// The next event to deliver.
    fn peek(&self) -> Option<&Scheduled<M>> {
        self.heap.first()
    }

    #[inline]
    fn push(&mut self, ev: Scheduled<M>) {
        self.heap.push(ev);
        // SAFETY: the index is that of the entry just pushed.
        unsafe { self.sift_up(self.heap.len() - 1) };
    }

    #[inline]
    fn pop(&mut self) -> Option<Scheduled<M>> {
        let mut next = self.heap.pop()?;
        if !self.heap.is_empty() {
            std::mem::swap(&mut next, &mut self.heap[0]);
            // SAFETY: the heap is not empty.
            unsafe { self.sift_down_to_bottom() };
        }
        Some(next)
    }

    /// Moves the entry at `i` up for as long as it comes before its parent.
    ///
    /// The entry is held aside while ancestors move down into its slot.
    /// Nothing in between can panic (`before` compares integers), so the
    /// slot left open is always filled before returning.
    ///
    /// # Safety
    /// `i` must be in bounds.
    #[inline]
    unsafe fn sift_up(&mut self, mut i: usize) {
        let base = self.heap.as_mut_ptr();
        let entry = ptr::read(base.add(i));
        while i > 0 {
            let parent = (i - 1) / 2;
            if !entry.before(&*base.add(parent)) {
                break;
            }
            ptr::copy_nonoverlapping(base.add(parent), base.add(i), 1);
            i = parent;
        }
        ptr::write(base.add(i), entry);
    }

    /// Moves the root down along the earlier child all the way to the
    /// bottom, then back up to its place: one comparison per level, since
    /// the entry that replaced the root is a leaf and usually belongs near
    /// the bottom again.
    ///
    /// # Safety
    /// The heap must not be empty.
    #[inline]
    unsafe fn sift_down_to_bottom(&mut self) {
        let len = self.heap.len();
        let base = self.heap.as_mut_ptr();
        let entry = ptr::read(base);
        let (mut i, mut child) = (0, 1);
        while child + 1 < len {
            child += usize::from((*base.add(child + 1)).before(&*base.add(child)));
            ptr::copy_nonoverlapping(base.add(child), base.add(i), 1);
            i = child;
            child = 2 * i + 1;
        }
        if child == len - 1 {
            ptr::copy_nonoverlapping(base.add(child), base.add(i), 1);
            i = child;
        }
        ptr::write(base.add(i), entry);
        self.sift_up(i);
    }
}

/// The scheduling surface handed to actors while they handle a message.
pub struct Context<'a, M> {
    now: SimTime,
    self_id: ActorId,
    outbox: &'a mut Vec<(SimTime, ActorId, M, u64)>,
    seq: &'a mut u64,
    cancelled: &'a mut FastHashSet<u64>,
    trace: &'a mut TraceBus,
    rng: &'a mut RngStream,
    stop_requested: &'a mut bool,
}

impl<'a, M> Context<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor currently handling a message.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    fn push(&mut self, at: SimTime, target: ActorId, msg: M) -> EventToken {
        let seq = *self.seq;
        *self.seq += 1;
        self.outbox.push((at, target, msg, seq));
        EventToken(seq)
    }

    /// Schedules `msg` for `target` after `delay`.
    pub fn send(&mut self, target: ActorId, delay: SimDuration, msg: M) -> EventToken {
        let at = self.now + delay;
        self.push(at, target, msg)
    }

    /// Schedules `msg` for the current actor after `delay`.
    pub fn send_self(&mut self, delay: SimDuration, msg: M) -> EventToken {
        let id = self.self_id;
        self.send(id, delay, msg)
    }

    /// Schedules `msg` for `target` at an absolute instant.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past.
    pub fn send_at(&mut self, target: ActorId, at: SimTime, msg: M) -> EventToken {
        assert!(at >= self.now, "cannot schedule into the past");
        self.push(at, target, msg)
    }

    /// Revokes a pending event; a no-op if it was already delivered or
    /// cancelled.
    pub fn cancel(&mut self, token: EventToken) {
        self.cancelled.insert(token.0);
    }

    /// Emits a structured record onto the simulation's [`TraceBus`] at the
    /// current instant, from a stack slice of scalar [`Field`]s. The
    /// default full-retention bus retains the object
    /// [`crate::trace::payload`] builds from the same pairs; a streaming bus
    /// folds the fields into rollups without building a payload at all.
    pub fn emit_fields(
        &mut self,
        component: &str,
        event: &str,
        fields: &[(&'static str, Field<'_>)],
    ) {
        self.trace.record_fields(self.now, component, event, fields);
    }

    /// The simulation-wide RNG stream (actors with their own stochastic
    /// behaviour should hold their own [`RngStream`] instead).
    pub fn rng(&mut self) -> &mut RngStream {
        self.rng
    }

    /// Asks the engine to stop after the current message is handled.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// A deterministic discrete-event simulation over message type `M`.
///
/// The lifetime `'a` bounds the actors: owned actors are `'static`, while
/// `&mut actor` registrations borrow from the caller, who regains access to
/// the actor (for outcome extraction) once the simulation is dropped.
pub struct Simulation<'a, M> {
    now: SimTime,
    seq: u64,
    queue: EventQueue<M>,
    actors: Vec<Box<dyn Actor<M> + 'a>>,
    rng: RngStream,
    events_handled: u64,
    horizon: Option<SimTime>,
    cancelled: FastHashSet<u64>,
    trace: TraceBus,
    /// Reused across `step` calls so dispatch does not allocate per event.
    outbox_scratch: Vec<(SimTime, ActorId, M, u64)>,
}

impl<M> fmt::Debug for Simulation<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("actors", &self.actors.len())
            .field("events_handled", &self.events_handled)
            .field("trace_len", &self.trace.len())
            .finish()
    }
}

impl<'a, M> Simulation<'a, M> {
    /// Creates an empty simulation with the given experiment seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            actors: Vec::new(),
            rng: RngStream::new(seed, "simulation"),
            events_handled: 0,
            horizon: None,
            cancelled: FastHashSet::default(),
            trace: TraceBus::new(),
            outbox_scratch: Vec::new(),
        }
    }

    /// Registers an actor and returns its id.
    pub fn add_actor<A: Actor<M> + 'a>(&mut self, actor: A) -> ActorId {
        self.actors.push(Box::new(actor));
        ActorId(self.actors.len() - 1)
    }

    /// Stops the run when virtual time would pass `at` (events at later
    /// instants remain queued but are not delivered).
    pub fn set_horizon(&mut self, at: SimTime) {
        self.horizon = Some(at);
    }

    /// Schedules `msg` for `target` at absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past or `target` is unknown; use
    /// [`Simulation::try_schedule`] for a fallible version.
    pub fn schedule(&mut self, at: SimTime, target: ActorId, msg: M) -> EventToken {
        self.try_schedule(at, target, msg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible scheduling: rejects past instants and unknown actors
    /// instead of panicking.
    ///
    /// # Errors
    /// Returns [`McsError::SchedulePast`] when `at` precedes the current
    /// virtual time and [`McsError::UnknownActor`] when `target` was never
    /// registered.
    pub fn try_schedule(
        &mut self,
        at: SimTime,
        target: ActorId,
        msg: M,
    ) -> Result<EventToken, McsError> {
        if at < self.now {
            return Err(McsError::SchedulePast { at, now: self.now });
        }
        if target.0 >= self.actors.len() {
            return Err(McsError::UnknownActor {
                actor: target.0,
                registered: self.actors.len(),
            });
        }
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, target, msg });
        Ok(EventToken(seq))
    }

    /// Revokes a pending event; a no-op if it was already delivered or
    /// cancelled.
    pub fn cancel(&mut self, token: EventToken) {
        self.cancelled.insert(token.0);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Number of events still queued (cancelled-but-unpopped events count
    /// until the queue reaches them).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The structured record of everything actors emitted so far.
    pub fn trace(&self) -> &TraceBus {
        &self.trace
    }

    /// Takes ownership of the trace, leaving an empty bus behind.
    pub fn take_trace(&mut self) -> TraceBus {
        std::mem::take(&mut self.trace)
    }

    /// Replaces the trace bus — how a scenario installs a streaming
    /// (bounded-memory) bus before the run starts.
    ///
    /// # Panics
    /// Panics if records were already emitted onto the current bus; swapping
    /// the sink mid-run would silently drop them.
    pub fn set_trace(&mut self, bus: TraceBus) {
        assert!(self.trace.is_empty(), "cannot replace a trace bus that already has records");
        self.trace = bus;
    }

    /// Drops cancelled events from the head of the queue so `peek` sees the
    /// next live event.
    fn discard_cancelled_head(&mut self) {
        while let Some(head) = self.queue.peek() {
            let seq = head.seq;
            if self.cancelled.contains(&seq) {
                self.queue.pop();
                self.cancelled.remove(&seq);
            } else {
                break;
            }
        }
    }

    /// Delivers the single earliest live event. Returns `false` when the
    /// queue is empty or the horizon has been reached.
    pub fn step(&mut self) -> bool {
        let ev = loop {
            let Some(ev) = self.queue.pop() else { return false };
            // Most runs never cancel anything; skip the hash probe entirely
            // until the first cancellation arrives.
            if !self.cancelled.is_empty() && self.cancelled.remove(&ev.seq) {
                continue;
            }
            break ev;
        };
        if let Some(h) = self.horizon {
            if ev.at > h {
                self.now = h;
                // Event is dropped: the run is over.
                return false;
            }
        }
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.events_handled += 1;

        let mut outbox = std::mem::take(&mut self.outbox_scratch);
        debug_assert!(outbox.is_empty());
        let mut stop = false;
        {
            let actor = &mut self.actors[ev.target.0];
            let mut ctx = Context {
                now: self.now,
                self_id: ev.target,
                outbox: &mut outbox,
                seq: &mut self.seq,
                cancelled: &mut self.cancelled,
                trace: &mut self.trace,
                rng: &mut self.rng,
                stop_requested: &mut stop,
            };
            actor.handle(&mut ctx, ev.msg);
        }
        for (at, target, msg, seq) in outbox.drain(..) {
            assert!(target.0 < self.actors.len(), "unknown actor {target}");
            self.queue.push(Scheduled { at, seq, target, msg });
        }
        self.outbox_scratch = outbox;
        !stop
    }

    /// Runs until the queue drains, the horizon passes, or an actor stops the
    /// run. Returns the number of events delivered.
    pub fn run(&mut self) -> u64 {
        let start = self.events_handled;
        while self.step() {}
        self.events_handled - start
    }

    /// Runs while delivering at most `max_events` further events; a safety
    /// valve for simulations that may not quiesce.
    pub fn run_bounded(&mut self, max_events: u64) -> u64 {
        let start = self.events_handled;
        while self.events_handled - start < max_events && self.step() {}
        self.events_handled - start
    }

    /// Delivers every event up to and including instant `until`, then
    /// advances virtual time to `until` (clamped to the horizon) even if no
    /// event sits exactly there. Later events stay queued, so runs can be
    /// interleaved with external inspection or scheduling. Returns the number
    /// of events delivered.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let start = self.events_handled;
        loop {
            self.discard_cancelled_head();
            match self.queue.peek() {
                Some(head) if head.at <= until => {
                    if !self.step() {
                        // Stopped by an actor or clipped by the horizon.
                        return self.events_handled - start;
                    }
                }
                _ => break,
            }
        }
        let target = match self.horizon {
            Some(h) => until.min(h),
            None => until,
        };
        if self.now < target {
            self.now = target;
        }
        self.events_handled - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Check;
    use crate::prop_assert;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn event_queue_pops_in_the_order_of_a_std_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        Check::new("event_queue_pops_in_the_order_of_a_std_heap").run(|rng| {
            let mut queue = EventQueue::new();
            let mut oracle = BinaryHeap::new();
            let mut seq = 0u64;
            for _ in 0..1 + rng.uniform_usize(400) {
                if rng.next_f64() < 0.6 {
                    // Few distinct instants, so same-time ties are common.
                    let at = SimTime::from_secs(rng.uniform_usize(20) as u64);
                    queue.push(Scheduled { at, seq, target: ActorId(0), msg: seq });
                    oracle.push(Reverse((at, seq)));
                    seq += 1;
                } else {
                    let got = queue.pop().map(|ev| (ev.at, ev.seq, ev.msg));
                    let want = oracle.pop().map(|Reverse((at, seq))| (at, seq, seq));
                    prop_assert!(got == want, "popped {got:?}, want {want:?}");
                }
                let head = queue.peek().map(|ev| (ev.at, ev.seq));
                prop_assert!(head == oracle.peek().map(|r| r.0), "head {head:?}");
                prop_assert!(queue.len() == oracle.len());
            }
            while let Some(Reverse((at, seq))) = oracle.pop() {
                let got = queue.pop().map(|ev| (ev.at, ev.seq));
                prop_assert!(got == Some((at, seq)), "drained {got:?}, want {:?}", (at, seq));
            }
            prop_assert!(queue.pop().is_none());
            Ok(())
        });
    }

    #[derive(Debug, PartialEq, Clone)]
    enum Msg {
        Tick(u32),
        Fwd,
    }

    struct Recorder {
        log: Rc<RefCell<Vec<(SimTime, u32)>>>,
    }
    impl Actor<Msg> for Recorder {
        fn handle(&mut self, ctx: &mut Context<'_, Msg>, msg: Msg) {
            if let Msg::Tick(n) = msg {
                self.log.borrow_mut().push((ctx.now(), n));
            }
        }
    }

    #[test]
    fn events_delivered_in_time_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Recorder { log: Rc::clone(&log) });
        sim.schedule(SimTime::from_secs(3), id, Msg::Tick(3));
        sim.schedule(SimTime::from_secs(1), id, Msg::Tick(1));
        sim.schedule(SimTime::from_secs(2), id, Msg::Tick(2));
        sim.run();
        let log = log.borrow();
        assert_eq!(
            *log,
            vec![
                (SimTime::from_secs(1), 1),
                (SimTime::from_secs(2), 2),
                (SimTime::from_secs(3), 3)
            ]
        );
    }

    #[test]
    fn ties_broken_by_scheduling_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Recorder { log: Rc::clone(&log) });
        for n in 0..10 {
            sim.schedule(SimTime::from_secs(5), id, Msg::Tick(n));
        }
        sim.run();
        let ns: Vec<u32> = log.borrow().iter().map(|(_, n)| *n).collect();
        assert_eq!(ns, (0..10).collect::<Vec<_>>());
    }

    struct Chain {
        next: Option<ActorId>,
        hops: Rc<RefCell<u32>>,
    }
    impl Actor<Msg> for Chain {
        fn handle(&mut self, ctx: &mut Context<'_, Msg>, _msg: Msg) {
            *self.hops.borrow_mut() += 1;
            if let Some(next) = self.next {
                ctx.send(next, SimDuration::from_millis(10), Msg::Fwd);
            }
        }
    }

    #[test]
    fn actors_can_message_each_other() {
        let hops = Rc::new(RefCell::new(0));
        let mut sim = Simulation::new(1);
        let tail = sim.add_actor(Chain { next: None, hops: Rc::clone(&hops) });
        let head = sim.add_actor(Chain { next: Some(tail), hops: Rc::clone(&hops) });
        sim.schedule(SimTime::ZERO, head, Msg::Fwd);
        sim.run();
        assert_eq!(*hops.borrow(), 2);
        assert_eq!(sim.now(), SimTime::from_nanos(10_000_000));
    }

    struct Ticker {
        period: SimDuration,
        count: u32,
        limit: u32,
    }
    impl Actor<Msg> for Ticker {
        fn handle(&mut self, ctx: &mut Context<'_, Msg>, _msg: Msg) {
            self.count += 1;
            if self.count < self.limit {
                ctx.send_self(self.period, Msg::Fwd);
            }
        }
    }

    #[test]
    fn horizon_cuts_off_run() {
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Ticker {
            period: SimDuration::from_secs(1),
            count: 0,
            limit: u32::MAX,
        });
        sim.set_horizon(SimTime::from_secs(10));
        sim.schedule(SimTime::ZERO, id, Msg::Fwd);
        let delivered = sim.run();
        // Events at t = 0..=10 fit the horizon: 11 deliveries.
        assert_eq!(delivered, 11);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    struct Stopper;
    impl Actor<Msg> for Stopper {
        fn handle(&mut self, ctx: &mut Context<'_, Msg>, _msg: Msg) {
            ctx.stop();
        }
    }

    #[test]
    fn actor_can_stop_simulation() {
        let mut sim = Simulation::new(1);
        let s = sim.add_actor(Stopper);
        sim.schedule(SimTime::ZERO, s, Msg::Fwd);
        sim.schedule(SimTime::from_secs(1), s, Msg::Fwd);
        sim.run();
        assert_eq!(sim.events_handled(), 1);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn run_bounded_limits_events() {
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Ticker {
            period: SimDuration::from_secs(1),
            count: 0,
            limit: u32::MAX,
        });
        sim.schedule(SimTime::ZERO, id, Msg::Fwd);
        let delivered = sim.run_bounded(100);
        assert_eq!(delivered, 100);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl Actor<Msg> for Bad {
            fn handle(&mut self, ctx: &mut Context<'_, Msg>, _msg: Msg) {
                ctx.send_at(ctx.self_id(), SimTime::ZERO, Msg::Fwd);
            }
        }
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Bad);
        sim.schedule(SimTime::from_secs(1), id, Msg::Fwd);
        sim.run();
    }

    #[test]
    fn try_schedule_rejects_bad_requests() {
        let mut sim: Simulation<'_, Msg> = Simulation::new(1);
        let id = sim.add_actor(Stopper);
        assert!(sim.try_schedule(SimTime::from_secs(1), id, Msg::Fwd).is_ok());
        let unknown = ActorId(99);
        assert_eq!(
            sim.try_schedule(SimTime::from_secs(1), unknown, Msg::Fwd).unwrap_err(),
            crate::error::McsError::UnknownActor { actor: 99, registered: 1 }
        );
        sim.run();
        assert_eq!(
            sim.try_schedule(SimTime::ZERO, id, Msg::Fwd).unwrap_err(),
            crate::error::McsError::SchedulePast { at: SimTime::ZERO, now: sim.now() }
        );
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn trace(seed: u64) -> Vec<(SimTime, u32)> {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulation::new(seed);
            let id = sim.add_actor(Recorder { log: Rc::clone(&log) });
            // Random-delay ticks driven through the shared sim RNG.
            struct Rand { target: ActorId, left: u32 }
            impl Actor<Msg> for Rand {
                fn handle(&mut self, ctx: &mut Context<'_, Msg>, _msg: Msg) {
                    if self.left == 0 {
                        return;
                    }
                    self.left -= 1;
                    let jitter = ctx.rng().uniform_usize(1000) as u64;
                    ctx.send(self.target, SimDuration::from_millis(jitter), Msg::Tick(self.left));
                    ctx.send_self(SimDuration::from_millis(1), Msg::Fwd);
                }
            }
            let r = sim.add_actor(Rand { target: id, left: 50 });
            sim.schedule(SimTime::ZERO, r, Msg::Fwd);
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(trace(99), trace(99));
        assert_ne!(trace(99), trace(100));
    }

    #[test]
    fn run_until_advances_time_and_leaves_later_events() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Recorder { log: Rc::clone(&log) });
        sim.schedule(SimTime::from_secs(1), id, Msg::Tick(1));
        sim.schedule(SimTime::from_secs(5), id, Msg::Tick(5));
        sim.schedule(SimTime::from_secs(9), id, Msg::Tick(9));

        // Boundary event at exactly `until` is delivered.
        let delivered = sim.run_until(SimTime::from_secs(5));
        assert_eq!(delivered, 2);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.pending(), 1);

        // No event at t = 7: time still advances there.
        assert_eq!(sim.run_until(SimTime::from_secs(7)), 0);
        assert_eq!(sim.now(), SimTime::from_secs(7));

        sim.run_until(SimTime::from_secs(100));
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.now(), SimTime::from_secs(100));
        assert_eq!(log.borrow().len(), 3);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim: Simulation<'_, Msg> = Simulation::new(1);
        let _ = sim.add_actor(Stopper);
        sim.set_horizon(SimTime::from_secs(4));
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_secs(4));
    }

    #[test]
    fn cancelled_event_is_not_delivered() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Recorder { log: Rc::clone(&log) });
        let keep = sim.schedule(SimTime::from_secs(1), id, Msg::Tick(1));
        let drop_ = sim.schedule(SimTime::from_secs(2), id, Msg::Tick(2));
        sim.schedule(SimTime::from_secs(3), id, Msg::Tick(3));
        sim.cancel(drop_);
        let delivered = sim.run();
        assert_eq!(delivered, 2);
        let ns: Vec<u32> = log.borrow().iter().map(|(_, n)| *n).collect();
        assert_eq!(ns, vec![1, 3]);
        // Cancelling a delivered event is a harmless no-op.
        sim.cancel(keep);
    }

    #[test]
    fn actor_can_cancel_its_own_pending_event() {
        // A timer that reschedules itself and retracts the stale wake-up,
        // the pattern autoscalers and repair processes use.
        struct Retracting {
            pending: Option<EventToken>,
            fired: Rc<RefCell<u32>>,
        }
        impl Actor<Msg> for Retracting {
            fn handle(&mut self, ctx: &mut Context<'_, Msg>, msg: Msg) {
                match msg {
                    Msg::Fwd => {
                        // Cancel the old timer, arm a new one.
                        if let Some(tok) = self.pending.take() {
                            ctx.cancel(tok);
                        }
                        self.pending =
                            Some(ctx.send_self(SimDuration::from_secs(10), Msg::Tick(0)));
                    }
                    Msg::Tick(_) => *self.fired.borrow_mut() += 1,
                }
            }
        }
        let fired = Rc::new(RefCell::new(0));
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Retracting { pending: None, fired: Rc::clone(&fired) });
        // Three re-arms: only the final timer may fire.
        sim.schedule(SimTime::ZERO, id, Msg::Fwd);
        sim.schedule(SimTime::from_secs(1), id, Msg::Fwd);
        sim.schedule(SimTime::from_secs(2), id, Msg::Fwd);
        sim.run();
        assert_eq!(*fired.borrow(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(12));
    }

    #[test]
    fn borrowed_actor_state_outlives_simulation() {
        let mut ticker = Ticker { period: SimDuration::from_secs(1), count: 0, limit: 5 };
        {
            let mut sim = Simulation::new(1);
            let id = sim.add_actor(&mut ticker);
            sim.schedule(SimTime::ZERO, id, Msg::Fwd);
            sim.run();
        }
        assert_eq!(ticker.count, 5);
    }

    #[test]
    fn context_emit_lands_on_trace_bus() {
        struct Emitter;
        impl Actor<Msg> for Emitter {
            fn handle(&mut self, ctx: &mut Context<'_, Msg>, msg: Msg) {
                if let Msg::Tick(n) = msg {
                    ctx.emit_fields("emitter", "tick", &[("n", Field::U64(u64::from(n)))]);
                }
            }
        }
        let mut sim = Simulation::new(1);
        let id = sim.add_actor(Emitter);
        sim.schedule(SimTime::from_secs(1), id, Msg::Tick(7));
        sim.schedule(SimTime::from_secs(2), id, Msg::Tick(8));
        sim.run();
        assert_eq!(sim.trace().count("emitter", "tick"), 2);
        let events = sim.take_trace();
        assert_eq!(events.events()[0].at, SimTime::from_secs(1));
        assert_eq!(events.events()[0].field_f64("n"), Some(7.0));
        assert!(sim.trace().is_empty());
    }

    #[test]
    fn message_envelope_identity_round_trips() {
        let m = Msg::Tick(3);
        let wrapped: Msg = MessageEnvelope::<Msg>::wrap(m.clone());
        assert_eq!(MessageEnvelope::<Msg>::unwrap(wrapped), Some(m));
        assert_eq!(ActorId::from_index(2), ActorId(2));
    }
}
