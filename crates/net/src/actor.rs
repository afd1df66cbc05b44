//! The network as an actor on the shared simulation.
//!
//! [`NetActor`] owns a [`NetTopology`] and a set of *active flows*. Every
//! event that can change the bandwidth allocation — a flow starting, a flow
//! draining its last byte, a link being cut, degraded, or healed — advances
//! each flow's remaining bytes at its old rate, recomputes the max-min fair
//! shares, and reschedules the single pending completion event for the new
//! earliest finisher (cancel + re-send, the engine's retiming idiom). That
//! makes transfer times *emergent*: a shuffle that once took
//! `bytes / nominal_bandwidth` now takes however long its fair share allows
//! under whatever else the ecosystem is pushing through the same links.
//!
//! Tenants never talk to the topology directly. They send
//! [`NetMsg::Transfer`] with a [`FlowTag`] naming the owner, and the
//! scenario installs a completion hook that routes each [`FlowDone`] back to
//! the right actor — bigdata map/shuffle barriers, FaaS invocation
//! payloads, RMS checkpoint restores, gaming state sync.

use crate::flow::MaxMin;
use crate::topology::{LinkId, NetTopology};
use mcs_simcore::engine::{Actor, Context, EventToken, MessageEnvelope};
use mcs_simcore::time::{SimDuration, SimTime};
use mcs_simcore::trace::Field;

/// Trace component under which all flow and link events are recorded.
pub const NET_COMPONENT: &str = "net";

/// Residual bytes below which a flow counts as drained (absorbs the ≤1 ns
/// quantization of completion scheduling).
const DRAIN_EPS: f64 = 0.5;

/// The subsystem that owns a flow. Typed (rather than a string) so routing
/// matches in completion hooks are exhaustive: a new tenant that forgets a
/// match arm is a compile error, not a silently dropped completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowOwner {
    /// FaaS invocation payload (gateway → worker).
    Faas,
    /// FaaS response payload (worker → gateway).
    FaasResp,
    /// RMS checkpoint restore.
    Rms,
    /// Bigdata map-input fetch.
    BdMap,
    /// Bigdata shuffle wave.
    BdShuffle,
    /// Gaming state-sync burst.
    Game,
    /// DAG workflow edge transfer (task output → dependent task input).
    Dag,
    /// Tests and documentation examples.
    Test,
}

impl FlowOwner {
    /// Stable wire name, used verbatim in trace `owner` fields.
    pub fn name(self) -> &'static str {
        match self {
            FlowOwner::Faas => "faas",
            FlowOwner::FaasResp => "faas-resp",
            FlowOwner::Rms => "rms",
            FlowOwner::BdMap => "bd-map",
            FlowOwner::BdShuffle => "bd-shuffle",
            FlowOwner::Game => "game",
            FlowOwner::Dag => "dag",
            FlowOwner::Test => "test",
        }
    }
}

/// Identifies who started a flow and which of their transfers it is; echoed
/// back verbatim on completion so the scenario can route the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowTag {
    /// The owning subsystem.
    pub owner: FlowOwner,
    /// Owner-scoped transfer id (job index, invocation sequence, ...).
    pub id: u64,
}

/// A request to move `bytes` from node `src` to node `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferReq {
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Completion-routing tag.
    pub tag: FlowTag,
}

/// A topology fault, as mapped from the failure model's `FaultKind`:
/// partitions cut a node's access link, gray failures degrade it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetFault {
    /// Cut `node`'s access link (a network partition).
    Cut {
        /// The partitioned node.
        node: u32,
    },
    /// Scale `node`'s access capacity by `factor` (a gray failure).
    Degrade {
        /// The degraded node.
        node: u32,
        /// Capacity multiplier in `[0, 1]`.
        factor: f64,
    },
}

/// Messages understood by [`NetActor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetMsg {
    /// Start a flow.
    Transfer(TransferReq),
    /// Self-scheduled: the predicted earliest flow completion.
    Complete,
    /// Self-scheduled: a drained flow has crossed its propagation latency
    /// and is delivered to the completion hook.
    Deliver(u64),
    /// Self-scheduled: the earliest stalled-flow abort deadline (only armed
    /// when a flow timeout is configured and some flow has rate zero).
    Abort,
    /// Apply a topology fault.
    Fault(NetFault),
    /// Lift a topology fault (must mirror an earlier [`NetMsg::Fault`]).
    FaultClear(NetFault),
}

/// A finished transfer, handed to the completion hook.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowDone {
    /// The tag from the originating [`TransferReq`].
    pub tag: FlowTag,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Wall time the transfer took, including propagation latency.
    pub secs: f64,
    /// What the transfer would have taken alone on a healthy fabric:
    /// `bytes / base_bottleneck + latency`. `secs - ideal_secs` is stall.
    pub ideal_secs: f64,
    /// Whether the flow was aborted after stalling on a cut link for the
    /// configured timeout instead of draining its bytes.
    pub aborted: bool,
}

impl FlowDone {
    /// Seconds lost to contention, faults, or degraded links (≥ 0).
    pub fn stall_secs(&self) -> f64 {
        (self.secs - self.ideal_secs).max(0.0)
    }
}

/// Completion callback: routes a [`FlowDone`] back into the simulation.
pub type CompletionHook<'a, M> = Box<dyn FnMut(&mut Context<'_, M>, &FlowDone) + 'a>;

struct ActiveFlow {
    id: u64,
    tag: FlowTag,
    src: u32,
    dst: u32,
    bytes: u64,
    remaining: f64,
    rate: f64,
    links: Vec<LinkId>,
    latency: SimDuration,
    started: SimTime,
    ideal_secs: f64,
    /// When the flow's fair share last dropped to zero (a cut on its path);
    /// cleared as soon as any reallocation gives it a positive rate again.
    stalled_since: Option<SimTime>,
}

/// The flow-level network model as a simulation actor.
pub struct NetActor<'a, M = NetMsg> {
    topo: NetTopology,
    /// `topo.effective_capacities()`, refreshed by `apply_fault`, the only
    /// place the topology changes.
    capacities: Vec<f64>,
    solver: MaxMin,
    flows: Vec<ActiveFlow>,
    /// Flows that drained their bytes and are riding out propagation latency.
    in_delivery: Vec<(u64, FlowDone)>,
    next_id: u64,
    last_update: SimTime,
    pending: Option<EventToken>,
    abort_pending: Option<EventToken>,
    flow_timeout: Option<SimDuration>,
    on_complete: Option<CompletionHook<'a, M>>,
    delivered: u64,
    aborted: u64,
    stall_secs: f64,
}

impl<'a, M: MessageEnvelope<NetMsg>> NetActor<'a, M> {
    /// Creates a network actor over `topo` with no completion hook.
    pub fn new(topo: NetTopology) -> Self {
        NetActor {
            capacities: topo.effective_capacities(),
            topo,
            solver: MaxMin::default(),
            flows: Vec::new(),
            in_delivery: Vec::new(),
            next_id: 0,
            last_update: SimTime::ZERO,
            pending: None,
            abort_pending: None,
            flow_timeout: None,
            on_complete: None,
            delivered: 0,
            aborted: 0,
            stall_secs: 0.0,
        }
    }

    /// Installs the completion hook that routes [`FlowDone`]s to tenants.
    pub fn with_completion(
        mut self,
        hook: impl FnMut(&mut Context<'_, M>, &FlowDone) + 'a,
    ) -> Self {
        self.on_complete = Some(Box::new(hook));
        self
    }

    /// Aborts any flow whose fair share stays at zero (its path holds a cut
    /// link) for `timeout`, emitting a `net/flow_aborted` record and handing
    /// the owner an aborted [`FlowDone`] so it can retry or fail fast.
    /// `None` (the default) keeps the legacy stall-until-restore behaviour.
    pub fn with_flow_timeout(mut self, timeout: Option<SimDuration>) -> Self {
        self.flow_timeout = timeout;
        self
    }

    /// The underlying topology.
    pub fn topology(&self) -> &NetTopology {
        &self.topo
    }

    /// Flows delivered to the completion hook so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Flows aborted after stalling past the configured timeout.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Flows currently moving bytes or riding out latency.
    pub fn in_flight(&self) -> usize {
        self.flows.len() + self.in_delivery.len()
    }

    /// Total seconds completed flows spent beyond their uncontended ideal.
    pub fn stall_secs(&self) -> f64 {
        self.stall_secs
    }

    /// Drains remaining bytes at the rates in force since the last event.
    fn advance(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_update).as_secs_f64();
        if elapsed > 0.0 {
            for f in &mut self.flows {
                f.remaining = (f.remaining - f.rate * elapsed).max(0.0);
            }
        }
        self.last_update = now;
    }

    /// Completes drained flows, then recomputes rates and retimes the
    /// pending completion event. Call after every allocation-changing event
    /// (with `advance` already done).
    fn settle(&mut self, ctx: &mut Context<'_, M>) {
        let now = ctx.now();
        let mut i = 0;
        while i < self.flows.len() {
            if self.flows[i].remaining <= DRAIN_EPS {
                let f = self.flows.remove(i);
                let latency_secs = f.latency.as_secs_f64();
                let secs = now.saturating_since(f.started).as_secs_f64() + latency_secs;
                let done = FlowDone {
                    tag: f.tag,
                    src: f.src,
                    dst: f.dst,
                    bytes: f.bytes,
                    secs,
                    ideal_secs: f.ideal_secs,
                    aborted: false,
                };
                self.stall_secs += done.stall_secs();
                ctx.emit_fields(
                    NET_COMPONENT,
                    "flow_end",
                    &[
                        ("owner", Field::Str(f.tag.owner.name())),
                        ("id", Field::U64(f.tag.id)),
                        ("src", Field::U64(u64::from(f.src))),
                        ("dst", Field::U64(u64::from(f.dst))),
                        ("bytes", Field::U64(f.bytes)),
                        ("secs", Field::F64(secs)),
                        ("ideal_secs", Field::F64(done.ideal_secs)),
                        ("stall_secs", Field::F64(done.stall_secs())),
                    ],
                );
                ctx.send_self(f.latency, M::wrap(NetMsg::Deliver(f.id)));
                self.in_delivery.push((f.id, done));
            } else {
                i += 1;
            }
        }
        self.reallocate(ctx);
    }

    /// Recomputes max-min rates and reschedules the earliest completion.
    fn reallocate(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(token) = self.pending.take() {
            ctx.cancel(token);
        }
        if self.flows.is_empty() {
            return;
        }
        let flows = &self.flows;
        let rates = self.solver.solve(flows.len(), |i| &flows[i].links, &self.capacities);
        let now = ctx.now();
        let mut earliest = f64::INFINITY;
        for (f, &rate) in self.flows.iter_mut().zip(rates) {
            f.rate = rate;
            if rate > 0.0 {
                f.stalled_since = None;
                earliest = earliest.min(f.remaining / rate);
            } else if f.stalled_since.is_none() {
                f.stalled_since = Some(now);
            }
        }
        // Round the prediction *up* one nanosecond so the argmin flow is
        // fully drained when the event fires. Flows on cut links have no
        // finite prediction; they wait for the next allocation change (or
        // their abort deadline, when a flow timeout is configured).
        if let Some(dt) = SimDuration::try_from_secs_f64(earliest) {
            self.pending = Some(ctx.send_self(
                dt + SimDuration::from_nanos(1),
                M::wrap(NetMsg::Complete),
            ));
        }
        self.reschedule_aborts(ctx);
    }

    /// Retimes the single pending abort event to the earliest stalled-flow
    /// deadline (cancel + re-send, same idiom as the completion event).
    fn reschedule_aborts(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(token) = self.abort_pending.take() {
            ctx.cancel(token);
        }
        let Some(timeout) = self.flow_timeout else { return };
        let mut earliest: Option<SimTime> = None;
        for f in &self.flows {
            if let Some(since) = f.stalled_since {
                let deadline = since + timeout;
                earliest = Some(earliest.map_or(deadline, |e: SimTime| e.min(deadline)));
            }
        }
        if let Some(at) = earliest {
            let delay = at.saturating_since(ctx.now());
            self.abort_pending = Some(ctx.send_self(delay, M::wrap(NetMsg::Abort)));
        }
    }

    /// Aborts every flow that has been stalled for at least the timeout,
    /// then resettles the allocation (which re-arms the next deadline).
    fn abort_due(&mut self, ctx: &mut Context<'_, M>) {
        let Some(timeout) = self.flow_timeout else { return };
        let now = ctx.now();
        let mut i = 0;
        while i < self.flows.len() {
            let due = self.flows[i]
                .stalled_since
                .is_some_and(|since| since + timeout <= now);
            if !due {
                i += 1;
                continue;
            }
            let f = self.flows.remove(i);
            let secs = now.saturating_since(f.started).as_secs_f64();
            let waited = now
                .saturating_since(f.stalled_since.unwrap_or(f.started))
                .as_secs_f64();
            let done = FlowDone {
                tag: f.tag,
                src: f.src,
                dst: f.dst,
                bytes: f.bytes,
                secs,
                ideal_secs: f.ideal_secs,
                aborted: true,
            };
            self.aborted += 1;
            ctx.emit_fields(
                NET_COMPONENT,
                "flow_aborted",
                &[
                    ("owner", Field::Str(f.tag.owner.name())),
                    ("id", Field::U64(f.tag.id)),
                    ("src", Field::U64(u64::from(f.src))),
                    ("dst", Field::U64(u64::from(f.dst))),
                    ("bytes", Field::U64(f.bytes)),
                    ("secs", Field::F64(secs)),
                    ("waited_secs", Field::F64(waited)),
                ],
            );
            if let Some(hook) = self.on_complete.as_mut() {
                hook(ctx, &done);
            }
        }
        self.settle(ctx);
    }

    fn start_flow(&mut self, ctx: &mut Context<'_, M>, req: TransferReq) {
        self.advance(ctx.now());
        let id = self.next_id;
        self.next_id += 1;
        ctx.emit_fields(
            NET_COMPONENT,
            "flow_start",
            &[
                ("owner", Field::Str(req.tag.owner.name())),
                ("id", Field::U64(req.tag.id)),
                ("src", Field::U64(u64::from(req.src))),
                ("dst", Field::U64(u64::from(req.dst))),
                ("bytes", Field::U64(req.bytes)),
            ],
        );
        let latency = self.topo.latency(req.src, req.dst);
        let links = self.topo.path(req.src, req.dst);
        let ideal_xfer = if links.is_empty() {
            0.0
        } else {
            req.bytes as f64 / self.topo.base_bottleneck(&links)
        };
        let ideal_secs = ideal_xfer + latency.as_secs_f64();
        self.flows.push(ActiveFlow {
            id,
            tag: req.tag,
            src: req.src,
            dst: req.dst,
            bytes: req.bytes,
            // Node-local (or empty) transfers drain immediately: latency only.
            remaining: if links.is_empty() { 0.0 } else { req.bytes as f64 },
            rate: 0.0,
            links,
            latency,
            started: ctx.now(),
            ideal_secs,
            stalled_since: None,
        });
        self.settle(ctx);
    }

    fn deliver(&mut self, ctx: &mut Context<'_, M>, id: u64) {
        let Some(pos) = self.in_delivery.iter().position(|(fid, _)| *fid == id) else {
            return;
        };
        let (_, done) = self.in_delivery.remove(pos);
        self.delivered += 1;
        if let Some(hook) = self.on_complete.as_mut() {
            hook(ctx, &done);
        }
    }

    fn apply_fault(&mut self, ctx: &mut Context<'_, M>, fault: NetFault, clear: bool) {
        self.advance(ctx.now());
        match (fault, clear) {
            (NetFault::Cut { node }, false) => {
                self.topo.cut_node(node);
                ctx.emit_fields(NET_COMPONENT, "link_cut", &[("node", Field::U64(u64::from(node)))]);
            }
            (NetFault::Cut { node }, true) => {
                self.topo.restore_node(node);
                ctx.emit_fields(
                    NET_COMPONENT,
                    "link_restored",
                    &[("node", Field::U64(u64::from(node)))],
                );
            }
            (NetFault::Degrade { node, factor }, false) => {
                self.topo.degrade_node(node, factor);
                ctx.emit_fields(
                    NET_COMPONENT,
                    "link_degraded",
                    &[("node", Field::U64(u64::from(node))), ("factor", Field::F64(factor))],
                );
            }
            (NetFault::Degrade { node, factor }, true) => {
                self.topo.undegrade_node(node, factor);
                ctx.emit_fields(
                    NET_COMPONENT,
                    "link_healed",
                    &[("node", Field::U64(u64::from(node)))],
                );
            }
        }
        self.capacities = self.topo.effective_capacities();
        self.settle(ctx);
    }
}

impl<M: MessageEnvelope<NetMsg>> Actor<M> for NetActor<'_, M> {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        let Some(msg) = msg.unwrap() else { return };
        match msg {
            NetMsg::Transfer(req) => self.start_flow(ctx, req),
            NetMsg::Complete => {
                self.pending = None;
                self.advance(ctx.now());
                self.settle(ctx);
            }
            NetMsg::Deliver(id) => self.deliver(ctx, id),
            NetMsg::Abort => {
                self.abort_pending = None;
                self.advance(ctx.now());
                self.abort_due(ctx);
            }
            NetMsg::Fault(fault) => self.apply_fault(ctx, fault, false),
            NetMsg::FaultClear(fault) => self.apply_fault(ctx, fault, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_simcore::check::Check;
    use mcs_simcore::engine::Simulation;
    use mcs_simcore::prop_assert;
    use mcs_simcore::rng::RngStream;

    fn topo() -> NetTopology {
        NetTopology::new(
            8,
            4,
            100.0 * MB,
            400.0 * MB,
            SimDuration::from_micros(500),
            SimDuration::from_millis(2),
        )
    }

    const MB: f64 = 1024.0 * 1024.0;

    fn req(src: u32, dst: u32, bytes: u64, id: u64) -> TransferReq {
        TransferReq { src, dst, bytes, tag: FlowTag { owner: FlowOwner::Test, id } }
    }

    /// Runs transfers scheduled at t=0 plus optional extra events, returning
    /// (completion times by tag id, trace json).
    fn run(
        events: Vec<(SimTime, NetMsg)>,
    ) -> (Vec<(u64, f64)>, String) {
        let done = std::cell::RefCell::new(Vec::new());
        let mut sim: Simulation<'_, NetMsg> = Simulation::new(7);
        let actor = NetActor::new(topo()).with_completion(|ctx, fd: &FlowDone| {
            done.borrow_mut().push((fd.tag.id, ctx.now().as_secs_f64()));
        });
        let id = sim.add_actor(actor);
        for (at, msg) in events {
            sim.schedule(at, id, msg);
        }
        sim.run();
        let trace = sim.trace().to_json_string();
        drop(sim);
        (done.into_inner(), trace)
    }

    #[test]
    fn lone_flow_finishes_at_ideal_time() {
        let bytes = (100.0 * MB) as u64;
        let (done, _) = run(vec![(SimTime::ZERO, NetMsg::Transfer(req(0, 1, bytes, 0)))]);
        assert_eq!(done.len(), 1);
        // 100 MiB over a 100 MiB/s access pair: drains at 1 s, delivers one
        // same-rack latency (0.5 ms) later.
        let t = done[0].1;
        assert!((t - 1.0005).abs() < 1e-3, "t = {t}");
    }

    #[test]
    fn two_flows_share_their_bottleneck() {
        let bytes = (100.0 * MB) as u64;
        // Both flows leave node 0: its access link halves each rate.
        let (done, _) = run(vec![
            (SimTime::ZERO, NetMsg::Transfer(req(0, 1, bytes, 0))),
            (SimTime::ZERO, NetMsg::Transfer(req(0, 2, bytes, 1))),
        ]);
        assert_eq!(done.len(), 2);
        for &(_, t) in &done {
            assert!((t - 2.0005).abs() < 1e-2, "t = {t}");
        }
    }

    #[test]
    fn late_arrival_slows_the_first_flow() {
        let bytes = (100.0 * MB) as u64;
        // Flow 0 runs alone for 0.5 s (50 MiB done), then shares: the
        // remaining 50 MiB takes 1 s more.
        let (done, _) = run(vec![
            (SimTime::ZERO, NetMsg::Transfer(req(0, 1, bytes, 0))),
            (SimTime::from_nanos(500_000_000), NetMsg::Transfer(req(0, 2, bytes, 1))),
        ]);
        let t0 = done.iter().find(|(id, _)| *id == 0).unwrap().1;
        let t1 = done.iter().find(|(id, _)| *id == 1).unwrap().1;
        assert!((t0 - 1.5005).abs() < 1e-2, "t0 = {t0}");
        assert!((t1 - 2.0005).abs() < 1e-2, "t1 = {t1}");
    }

    #[test]
    fn node_local_transfer_pays_latency_only() {
        let (done, _) = run(vec![(
            SimTime::ZERO,
            NetMsg::Transfer(req(3, 3, u64::MAX, 0)),
        )]);
        assert_eq!(done.len(), 1);
        assert!(done[0].1 < 1e-9, "t = {}", done[0].1);
    }

    #[test]
    fn cut_link_stalls_until_restored() {
        let bytes = (10.0 * MB) as u64;
        let (done, trace) = run(vec![
            (SimTime::ZERO, NetMsg::Fault(NetFault::Cut { node: 0 })),
            (SimTime::ZERO, NetMsg::Transfer(req(0, 1, bytes, 0))),
            (SimTime::from_secs(5), NetMsg::FaultClear(NetFault::Cut { node: 0 })),
        ]);
        assert_eq!(done.len(), 1);
        let t = done[0].1;
        assert!((t - 5.1005).abs() < 1e-2, "t = {t}");
        assert!(trace.contains("link_cut") && trace.contains("link_restored"));
    }

    #[test]
    fn degraded_link_slows_proportionally() {
        let bytes = (100.0 * MB) as u64;
        let (done, _) = run(vec![
            (SimTime::ZERO, NetMsg::Fault(NetFault::Degrade { node: 0, factor: 0.25 })),
            (SimTime::ZERO, NetMsg::Transfer(req(0, 1, bytes, 0))),
        ]);
        let t = done[0].1;
        assert!((t - 4.0005).abs() < 1e-2, "t = {t}");
    }

    #[test]
    fn cross_rack_flows_contend_on_uplinks() {
        let bytes = (400.0 * MB) as u64;
        // Four cross-rack flows from distinct sources saturate the 400 MiB/s
        // uplink pair: each gets a 100 MiB/s fair share.
        let events: Vec<_> = (0..4)
            .map(|i| {
                (SimTime::ZERO, NetMsg::Transfer(req(i, 4 + i, bytes, u64::from(i))))
            })
            .collect();
        let (done, _) = run(events);
        assert_eq!(done.len(), 4);
        for &(_, t) in &done {
            assert!((t - 4.002).abs() < 1e-2, "t = {t}");
        }
    }

    /// Like [`run`] but with a flow timeout armed; also records abort flags.
    fn run_with_timeout(
        timeout: Option<SimDuration>,
        events: Vec<(SimTime, NetMsg)>,
    ) -> (Vec<(u64, f64, bool)>, String, u64) {
        let done = std::cell::RefCell::new(Vec::new());
        let mut actor = NetActor::new(topo()).with_flow_timeout(timeout).with_completion(
            |ctx, fd: &FlowDone| {
                done.borrow_mut().push((fd.tag.id, ctx.now().as_secs_f64(), fd.aborted));
            },
        );
        let mut sim: Simulation<'_, NetMsg> = Simulation::new(7);
        let id = sim.add_actor(&mut actor);
        for (at, msg) in events {
            sim.schedule(at, id, msg);
        }
        sim.run();
        let trace = sim.trace().to_json_string();
        drop(sim);
        let aborted = actor.aborted();
        drop(actor);
        (done.into_inner(), trace, aborted)
    }

    #[test]
    fn stalled_flow_aborts_after_timeout() {
        let bytes = (10.0 * MB) as u64;
        // Node 0 is cut before the transfer starts and never restored: with a
        // 10 s timeout the flow must abort at t = 10 s instead of stalling
        // forever.
        let (done, trace, aborted) = run_with_timeout(
            Some(SimDuration::from_secs(10)),
            vec![
                (SimTime::ZERO, NetMsg::Fault(NetFault::Cut { node: 0 })),
                (SimTime::ZERO, NetMsg::Transfer(req(0, 1, bytes, 7))),
            ],
        );
        assert_eq!(aborted, 1);
        assert_eq!(done.len(), 1);
        let (id, t, was_aborted) = done[0];
        assert_eq!(id, 7);
        assert!(was_aborted);
        assert!((t - 10.0).abs() < 1e-6, "t = {t}");
        assert!(trace.contains("flow_aborted"));
        assert!(!trace.contains("flow_end"), "aborted flow must not also end");
    }

    #[test]
    fn restore_before_timeout_prevents_abort() {
        let bytes = (10.0 * MB) as u64;
        let (done, trace, aborted) = run_with_timeout(
            Some(SimDuration::from_secs(10)),
            vec![
                (SimTime::ZERO, NetMsg::Fault(NetFault::Cut { node: 0 })),
                (SimTime::ZERO, NetMsg::Transfer(req(0, 1, bytes, 0))),
                (SimTime::from_secs(5), NetMsg::FaultClear(NetFault::Cut { node: 0 })),
            ],
        );
        assert_eq!(aborted, 0);
        assert_eq!(done.len(), 1);
        assert!(!done[0].2, "flow must complete, not abort");
        assert!((done[0].1 - 5.1005).abs() < 1e-2, "t = {}", done[0].1);
        assert!(!trace.contains("flow_aborted"));
    }

    #[test]
    fn healthy_flows_never_hit_the_timeout() {
        let bytes = (100.0 * MB) as u64;
        // A short timeout must not fire for flows that are merely slow: the
        // deadline clock only runs while the fair share is zero.
        let (done, trace, aborted) = run_with_timeout(
            Some(SimDuration::from_millis(100)),
            vec![(SimTime::ZERO, NetMsg::Transfer(req(0, 1, bytes, 0)))],
        );
        assert_eq!(aborted, 0);
        assert_eq!(done.len(), 1);
        assert!(!trace.contains("flow_aborted"));
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let mk = || {
            run(vec![
                (SimTime::ZERO, NetMsg::Transfer(req(0, 5, 123_456_789, 0))),
                (SimTime::from_nanos(250_000_000), NetMsg::Transfer(req(1, 5, 987_654, 1))),
                (SimTime::from_secs(1), NetMsg::Fault(NetFault::Degrade { node: 5, factor: 0.5 })),
                (SimTime::from_secs(2), NetMsg::FaultClear(NetFault::Degrade { node: 5, factor: 0.5 })),
            ])
        };
        let (d1, t1) = mk();
        let (d2, t2) = mk();
        assert_eq!(d1, d2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn stall_accounting_is_positive_under_contention() {
        let bytes = (100.0 * MB) as u64;
        let mut actor = NetActor::<NetMsg>::new(topo());
        let mut sim: Simulation<'_, NetMsg> = Simulation::new(7);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, NetMsg::Transfer(req(0, 1, bytes, 0)));
        sim.schedule(SimTime::ZERO, id, NetMsg::Transfer(req(0, 2, bytes, 1)));
        sim.run();
        assert_eq!(sim.trace().count(NET_COMPONENT, "flow_start"), 2);
        drop(sim);
        assert_eq!(actor.delivered(), 2);
        assert_eq!(actor.in_flight(), 0);
        // Each flow took ~2 s against a ~1 s ideal.
        assert!(actor.stall_secs() > 1.5, "stall = {}", actor.stall_secs());
    }

    /// A `NetActor` that, after every message it handles, checks its cached
    /// capacities against the topology and its flows' rates against a fresh
    /// reference solve over the topology as it now stands.
    struct Audited<'a> {
        net: NetActor<'a, NetMsg>,
        mismatches: Vec<String>,
        solved: usize,
    }

    impl Actor<NetMsg> for Audited<'_> {
        fn handle(&mut self, ctx: &mut Context<'_, NetMsg>, msg: NetMsg) {
            self.net.handle(ctx, msg);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let caps = self.net.topo.effective_capacities();
            if bits(&self.net.capacities) != bits(&caps) {
                let cached = &self.net.capacities;
                self.mismatches.push(format!("after {msg:?}: capacities {cached:?} vs {caps:?}"));
            }
            if self.net.flows.is_empty() {
                return;
            }
            let paths: Vec<Vec<LinkId>> = self.net.flows.iter().map(|f| f.links.clone()).collect();
            let want = crate::flow::reference_max_min_rates(&paths, &caps);
            let got: Vec<f64> = self.net.flows.iter().map(|f| f.rate).collect();
            if bits(&got) != bits(&want) {
                self.mismatches.push(format!("after {msg:?}: rates {got:?} vs {want:?}"));
            }
            self.solved += 1;
        }
    }

    #[test]
    fn cached_capacities_and_reused_solver_match_a_fresh_solve() {
        Check::new("net_cached_solve").cases(32).run(|rng| {
            let timeout =
                rng.bernoulli(0.5).then(|| SimDuration::from_secs(1 + rng.uniform_usize(5) as u64));
            let mut audited = Audited {
                net: NetActor::new(topo()).with_flow_timeout(timeout),
                mismatches: Vec::new(),
                solved: 0,
            };
            let mut sim: Simulation<'_, NetMsg> = Simulation::new(7);
            let id = sim.add_actor(&mut audited);
            let nanos = |rng: &mut RngStream, below: usize| rng.uniform_usize(below) as u64;
            for n in 0..80u64 {
                let at = SimTime::from_nanos(nanos(rng, 20_000_000_000));
                let node = rng.uniform_usize(8) as u32;
                match rng.uniform_usize(8) {
                    0 => {
                        let fault = NetFault::Cut { node };
                        let until = at + SimDuration::from_nanos(nanos(rng, 3_000_000_000));
                        sim.schedule(at, id, NetMsg::Fault(fault));
                        sim.schedule(until, id, NetMsg::FaultClear(fault));
                    }
                    1 => {
                        let factors = [0.0, 0.25, 0.5, rng.uniform_f64(0.0, 1.0)];
                        let factor = factors[rng.uniform_usize(4)];
                        let fault = NetFault::Degrade { node, factor };
                        let until = at + SimDuration::from_nanos(nanos(rng, 3_000_000_000));
                        sim.schedule(at, id, NetMsg::Fault(fault));
                        sim.schedule(until, id, NetMsg::FaultClear(fault));
                    }
                    _ => {
                        let dst = rng.uniform_usize(8) as u32;
                        let bytes = 1 + rng.uniform_usize((300.0 * MB) as usize) as u64;
                        sim.schedule(at, id, NetMsg::Transfer(req(node, dst, bytes, n)));
                    }
                }
            }
            sim.run();
            drop(sim);
            prop_assert!(audited.mismatches.is_empty(), "{}", audited.mismatches.join("\n"));
            prop_assert!(audited.solved > 0, "no solve was audited");
            Ok(())
        });
    }
}
