//! The big-data stack as a discrete-event actor.
//!
//! [`DataflowActor`] drives MapReduce-style jobs over the replicated
//! [`BlockStore`]: each job runs `stages` rounds of map → shuffle → reduce,
//! with the map phase scheduled through the real
//! locality-aware list scheduler of [`crate::locality`] and the shuffle
//! charged against a fixed network bandwidth. Node failures (fanned
//! in from a scenario-level injector) degrade compute capacity and trigger
//! re-replication, reproducing the Figure 1 claim that layers the developer
//! does not control — storage, network — set the performance envelope.
//!
//! The actor emits every transition onto the shared trace under component
//! `"bigdata"`, so stage makespans and re-replication traffic are computed
//! from traces alone. An optional *shuffle hook* lets a composed scenario
//! propagate shuffle windows to co-tenants (graph supersteps slow down,
//! gaming zones lose headroom) — the cross-tenant interference channel.

use crate::locality::{schedule_map_phase, MapPhaseConfig};
use crate::storage::{BlockStore, NodeId, StoredFile};
use mcs_simcore::engine::{Actor, Context, MessageEnvelope, Simulation};
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::{SimDuration, SimTime};
use mcs_simcore::trace::{Field, TraceBus};

/// Bytes per mebibyte.
const MIB: u64 = 1024 * 1024;

/// Block size, MiB.
const BLOCK_MB: u64 = 128;
/// Replication factor of the block store. A composed scenario rejects a
/// fleet smaller than this.
pub const REPLICATION: usize = 3;
/// Nodes per rack in the storage topology.
const NODES_PER_RACK: u32 = 8;
/// Aggregate shuffle bandwidth, MiB/s — used only when no transfer hook is
/// installed (legacy fixed-delay shuffles).
const SHUFFLE_BANDWIDTH_MBS: f64 = 400.0;
/// Fraction of stage input that crosses the network in the shuffle.
const SHUFFLE_RATIO: f64 = 0.4;
/// Parallel flows a phase's network traffic is split into when routed
/// through the flow-level network model.
const SHUFFLE_FANOUT: usize = 4;
/// Reduce duration as a fraction of the (healthy) map makespan.
const REDUCE_FACTOR: f64 = 0.5;
/// Delay before a failed node's blocks are re-replicated, seconds.
const RECOVERY_DELAY_SECS: f64 = 60.0;

/// Configuration of the big-data subsystem inside a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BigdataConfig {
    /// MapReduce jobs to submit.
    pub jobs: usize,
    /// Map→shuffle→reduce rounds per job.
    pub stages_per_job: usize,
    /// Seconds between successive job submissions.
    pub submit_interval_secs: f64,
    /// Input size per job, MiB.
    pub input_mb: u64,
    /// Map-phase scheduling parameters.
    pub map: MapPhaseConfig,
}

impl Default for BigdataConfig {
    fn default() -> Self {
        BigdataConfig {
            jobs: 4,
            stages_per_job: 2,
            submit_interval_secs: 600.0,
            input_mb: 2_048,
            map: MapPhaseConfig::default(),
        }
    }
}

/// The big-data actor's message vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BigdataMsg {
    /// Kick-off: submit all jobs on the configured cadence.
    Start,
    /// Job `.0` enters the system: store its input, start stage 0's map.
    Submit(usize),
    /// Job `.0`'s current map phase finished computing.
    MapDone(usize),
    /// One of job `.0`'s map-input network flows was delivered (flow-level
    /// network mode only).
    MapXferDone(usize),
    /// Job `.0`'s current shuffle finished (legacy fixed-delay mode).
    ShuffleDone(usize),
    /// One of job `.0`'s shuffle flows was delivered (flow-level network
    /// mode only).
    ShuffleXferDone(usize),
    /// Job `.0`'s current reduce finished.
    ReduceDone(usize),
    /// A storage/compute node died (from the scenario failure injector).
    NodeFail(u32),
    /// A node came back (compute only; its replicas are rebuilt elsewhere).
    NodeRepair(u32),
    /// Deferred re-replication pass after a failure.
    Recover,
}

/// Hook invoked when a shuffle starts (`active = true`) or ends
/// (`active = false`), used by composed scenarios to propagate network
/// pressure to co-tenant subsystems.
pub type ShuffleHook<'a, M> = Box<dyn FnMut(&mut Context<'_, M>, usize, bool) + 'a>;

/// Which phase of a job a network transfer belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BdPhase {
    /// Remote map-input reads (locality misses).
    Map,
    /// The all-to-all shuffle.
    Shuffle,
}

/// One network transfer the dataflow engine wants carried by the flow-level
/// network model. The scenario's transfer hook turns it into an `mcs-net`
/// flow and later delivers [`BigdataMsg::MapXferDone`] /
/// [`BigdataMsg::ShuffleXferDone`] back to the actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BdTransfer {
    /// The owning job.
    pub job: usize,
    /// Map-input read or shuffle traffic.
    pub phase: BdPhase,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Bytes to move.
    pub bytes: u64,
}

/// Hook that carries a [`BdTransfer`] onto the network model. When absent,
/// phases fall back to the legacy fixed-delay cost model, byte-identically.
pub type TransferHook<'a, M> = Box<dyn FnMut(&mut Context<'_, M>, BdTransfer) + 'a>;

struct JobState {
    file: StoredFile,
    stage: usize,
    submitted: SimTime,
    stage_started: SimTime,
    healthy_map_secs: f64,
    /// Map-input flows still in the air (flow-level network mode).
    map_xfers_pending: usize,
    /// The map phase is still computing.
    map_compute_pending: bool,
    /// Shuffle flows still in the air (flow-level network mode).
    shuffle_xfers_pending: usize,
}

/// Runs the MapReduce/dataflow stack as one engine actor.
pub struct DataflowActor<'a, M> {
    config: BigdataConfig,
    store: BlockStore,
    rng: RngStream,
    machines: u32,
    dead_nodes: u64,
    jobs: Vec<Option<JobState>>,
    on_shuffle: Option<ShuffleHook<'a, M>>,
    on_transfer: Option<TransferHook<'a, M>>,
}

impl<'a, M: MessageEnvelope<BigdataMsg>> DataflowActor<'a, M> {
    /// Builds the actor over a fresh `machines`-node block store. The RNG
    /// stream must be dedicated to this actor (label `"bigdata"` by
    /// convention) so composition does not perturb other subsystems.
    pub fn new(config: BigdataConfig, machines: u32, mut rng: RngStream) -> Self {
        let store_seed = rng.next_u64();
        let store = BlockStore::new(machines.max(1), NODES_PER_RACK, REPLICATION, store_seed);
        DataflowActor {
            config,
            store,
            rng,
            machines: machines.max(1),
            dead_nodes: 0,
            jobs: Vec::new(),
            on_shuffle: None,
            on_transfer: None,
        }
    }

    /// Installs the cross-tenant shuffle hook.
    pub fn with_shuffle_hook(
        mut self,
        hook: impl FnMut(&mut Context<'_, M>, usize, bool) + 'a,
    ) -> Self {
        self.on_shuffle = Some(Box::new(hook));
        self
    }

    /// Routes map-input and shuffle traffic through the flow-level network
    /// model instead of the fixed-delay cost model. Whoever installs the
    /// hook must deliver [`BigdataMsg::MapXferDone`] /
    /// [`BigdataMsg::ShuffleXferDone`] once per completed transfer.
    pub fn with_transfer_hook(
        mut self,
        hook: impl FnMut(&mut Context<'_, M>, BdTransfer) + 'a,
    ) -> Self {
        self.on_transfer = Some(Box::new(hook));
        self
    }

    /// Splits `bytes` of `phase` traffic for `job` into fan-out flows with
    /// rng-chosen distinct endpoints and hands them to the transfer hook.
    /// Returns how many flows were started (0 without a hook or bytes).
    fn launch_transfers(
        &mut self,
        ctx: &mut Context<'_, M>,
        job: usize,
        phase: BdPhase,
        bytes: u64,
    ) -> usize {
        if self.on_transfer.is_none() || bytes == 0 {
            return 0;
        }
        let fanout = SHUFFLE_FANOUT.clamp(1, bytes as usize);
        let per_flow = bytes / fanout as u64;
        let mut sent = 0;
        for i in 0..fanout {
            // The last flow carries the rounding remainder.
            let flow_bytes =
                if i + 1 == fanout { bytes - per_flow * (fanout as u64 - 1) } else { per_flow };
            let src = self.rng.uniform_usize(self.machines as usize) as u32;
            let dst = if self.machines > 1 {
                (src + 1 + self.rng.uniform_usize(self.machines as usize - 1) as u32)
                    % self.machines
            } else {
                src
            };
            let xfer = BdTransfer { job, phase, src, dst, bytes: flow_bytes };
            if let Some(hook) = self.on_transfer.as_mut() {
                hook(ctx, xfer);
            }
            sent += 1;
        }
        sent
    }

    /// Compute slowdown from dead nodes: losing a fraction `f` of the fleet
    /// stretches compute phases by `1 / (1 - f)`, capped at 4x.
    fn degradation(&self) -> f64 {
        let alive = (self.machines as f64 - self.dead_nodes as f64).max(1.0);
        (self.machines as f64 / alive).min(4.0)
    }

    fn start(&mut self, ctx: &mut Context<'_, M>) {
        for job in 0..self.config.jobs {
            let at = ctx.now()
                + SimDuration::from_secs_f64(self.config.submit_interval_secs * job as f64);
            ctx.send_at(ctx.self_id(), at, M::wrap(BigdataMsg::Submit(job)));
        }
    }

    fn submit(&mut self, ctx: &mut Context<'_, M>, job: usize) {
        let name = format!("job-{job}");
        let file = self
            .store
            .put(&name, self.config.input_mb * MIB, BLOCK_MB * MIB)
            .clone();
        ctx.emit_fields(
            "bigdata",
            "job_submit",
            &[
                ("job", Field::U64(job as u64)),
                ("input_mb", Field::U64(self.config.input_mb)),
                ("blocks", Field::U64(file.blocks.len() as u64)),
            ],
        );
        if self.jobs.len() <= job {
            self.jobs.resize_with(job + 1, || None);
        }
        self.jobs[job] = Some(JobState {
            file,
            stage: 0,
            submitted: ctx.now(),
            stage_started: ctx.now(),
            healthy_map_secs: 0.0,
            map_xfers_pending: 0,
            map_compute_pending: false,
            shuffle_xfers_pending: 0,
        });
        self.start_map(ctx, job);
    }

    fn start_map(&mut self, ctx: &mut Context<'_, M>, job: usize) {
        let degradation = self.degradation();
        let Some(state) = self.jobs.get_mut(job).and_then(Option::as_mut) else { return };
        state.stage_started = ctx.now();
        let outcome = schedule_map_phase(&self.store, &state.file, self.config.map, &mut self.rng);
        state.healthy_map_secs = outcome.makespan_secs;
        let slowed = outcome.makespan_secs * degradation;
        let (local, rack, remote) = outcome.locality_counts;
        ctx.emit_fields(
            "bigdata",
            "map_start",
            &[
                ("job", Field::U64(job as u64)),
                ("stage", Field::U64(state.stage as u64)),
                ("makespan_secs", Field::F64(slowed)),
                ("node_local", Field::U64(local as u64)),
                ("rack_local", Field::U64(rack as u64)),
                ("remote", Field::U64(remote as u64)),
                ("network_bytes", Field::U64(outcome.network_bytes)),
                ("degradation", Field::F64(degradation)),
            ],
        );
        ctx.send_self(SimDuration::from_secs_f64(slowed), M::wrap(BigdataMsg::MapDone(job)));
        // In flow-level network mode the locality misses are real transfers:
        // the map barrier opens only when compute *and* every flow finish.
        let net_bytes = outcome.network_bytes;
        let flows = self.launch_transfers(ctx, job, BdPhase::Map, net_bytes);
        if let Some(state) = self.jobs.get_mut(job).and_then(Option::as_mut) {
            state.map_compute_pending = true;
            state.map_xfers_pending = flows;
        }
    }

    /// The map barrier: compute finished. In legacy mode this is the whole
    /// barrier; in flow-level network mode the in-flight map flows must land
    /// too.
    fn map_done(&mut self, ctx: &mut Context<'_, M>, job: usize) {
        let Some(state) = self.jobs.get_mut(job).and_then(Option::as_mut) else { return };
        state.map_compute_pending = false;
        if state.map_xfers_pending == 0 {
            self.start_shuffle(ctx, job);
        }
    }

    /// One map-input flow delivered (flow-level network mode).
    fn map_xfer_done(&mut self, ctx: &mut Context<'_, M>, job: usize) {
        let Some(state) = self.jobs.get_mut(job).and_then(Option::as_mut) else { return };
        state.map_xfers_pending = state.map_xfers_pending.saturating_sub(1);
        if state.map_xfers_pending == 0 && !state.map_compute_pending {
            self.start_shuffle(ctx, job);
        }
    }

    fn start_shuffle(&mut self, ctx: &mut Context<'_, M>, job: usize) {
        let Some(state) = self.jobs.get(job).and_then(Option::as_ref) else { return };
        let stage = state.stage;
        let shuffle_bytes = (self.config.input_mb as f64 * MIB as f64 * SHUFFLE_RATIO) as u64;
        let secs = shuffle_bytes as f64 / (SHUFFLE_BANDWIDTH_MBS * MIB as f64);
        ctx.emit_fields(
            "bigdata",
            "shuffle_start",
            &[
                ("job", Field::U64(job as u64)),
                ("stage", Field::U64(stage as u64)),
                ("bytes", Field::U64(shuffle_bytes)),
                ("secs", Field::F64(secs)),
            ],
        );
        if let Some(hook) = self.on_shuffle.as_mut() {
            hook(ctx, job, true);
        }
        if self.on_transfer.is_some() {
            // Contended mode: the shuffle lasts as long as its flows do.
            let flows = self.launch_transfers(ctx, job, BdPhase::Shuffle, shuffle_bytes);
            if let Some(state) = self.jobs.get_mut(job).and_then(Option::as_mut) {
                state.shuffle_xfers_pending = flows;
            }
            if flows == 0 {
                self.shuffle_done(ctx, job);
            }
        } else {
            ctx.send_self(SimDuration::from_secs_f64(secs), M::wrap(BigdataMsg::ShuffleDone(job)));
        }
    }

    /// One shuffle flow delivered (flow-level network mode).
    fn shuffle_xfer_done(&mut self, ctx: &mut Context<'_, M>, job: usize) {
        let Some(state) = self.jobs.get_mut(job).and_then(Option::as_mut) else { return };
        state.shuffle_xfers_pending = state.shuffle_xfers_pending.saturating_sub(1);
        if state.shuffle_xfers_pending == 0 {
            self.shuffle_done(ctx, job);
        }
    }

    fn shuffle_done(&mut self, ctx: &mut Context<'_, M>, job: usize) {
        let degradation = self.degradation();
        let Some(state) = self.jobs.get(job).and_then(Option::as_ref) else { return };
        ctx.emit_fields(
            "bigdata",
            "shuffle_end",
            &[("job", Field::U64(job as u64)), ("stage", Field::U64(state.stage as u64))],
        );
        if let Some(hook) = self.on_shuffle.as_mut() {
            hook(ctx, job, false);
        }
        let state = self.jobs[job].as_ref().expect("job state checked above");
        let secs = state.healthy_map_secs * REDUCE_FACTOR * degradation;
        ctx.send_self(SimDuration::from_secs_f64(secs), M::wrap(BigdataMsg::ReduceDone(job)));
    }

    fn reduce_done(&mut self, ctx: &mut Context<'_, M>, job: usize) {
        let now = ctx.now();
        let Some(state) = self.jobs.get_mut(job).and_then(Option::as_mut) else { return };
        ctx.emit_fields(
            "bigdata",
            "stage_finish",
            &[
                ("job", Field::U64(job as u64)),
                ("stage", Field::U64(state.stage as u64)),
                ("secs", Field::F64((now - state.stage_started).as_secs_f64())),
            ],
        );
        state.stage += 1;
        if state.stage < self.config.stages_per_job {
            self.start_map(ctx, job);
        } else {
            let makespan = (now - state.submitted).as_secs_f64();
            let stages = state.stage;
            self.jobs[job] = None;
            ctx.emit_fields(
                "bigdata",
                "job_finish",
                &[
                    ("job", Field::U64(job as u64)),
                    ("makespan_secs", Field::F64(makespan)),
                    ("stages", Field::U64(stages as u64)),
                ],
            );
        }
    }

    fn node_fail(&mut self, ctx: &mut Context<'_, M>, node: u32) {
        if node >= self.machines {
            return;
        }
        self.dead_nodes += 1;
        let under = self.store.fail_node(NodeId(node));
        ctx.emit_fields(
            "bigdata",
            "node_fail",
            &[("node", Field::U64(node as u64)), ("under_replicated", Field::U64(under as u64))],
        );
        if under > 0 {
            ctx.send_self(
                SimDuration::from_secs_f64(RECOVERY_DELAY_SECS),
                M::wrap(BigdataMsg::Recover),
            );
        }
    }

    fn node_repair(&mut self, ctx: &mut Context<'_, M>, node: u32) {
        if node >= self.machines || self.dead_nodes == 0 {
            return;
        }
        // The node rejoins as compute capacity; its disk comes back empty
        // (replicas were already rebuilt elsewhere), so the store keeps it
        // out of placement decisions.
        self.dead_nodes -= 1;
        ctx.emit_fields("bigdata", "node_repair", &[("node", Field::U64(node as u64))]);
    }

    fn recover(&mut self, ctx: &mut Context<'_, M>) {
        let created = self.store.re_replicate();
        ctx.emit_fields("bigdata", "re_replicate", &[("created", Field::U64(created as u64))]);
    }
}

impl<M: MessageEnvelope<BigdataMsg>> Actor<M> for DataflowActor<'_, M> {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        let Some(msg) = msg.unwrap() else { return };
        match msg {
            BigdataMsg::Start => self.start(ctx),
            BigdataMsg::Submit(job) => self.submit(ctx, job),
            BigdataMsg::MapDone(job) => self.map_done(ctx, job),
            BigdataMsg::MapXferDone(job) => self.map_xfer_done(ctx, job),
            BigdataMsg::ShuffleDone(job) => self.shuffle_done(ctx, job),
            BigdataMsg::ShuffleXferDone(job) => self.shuffle_xfer_done(ctx, job),
            BigdataMsg::ReduceDone(job) => self.reduce_done(ctx, job),
            BigdataMsg::NodeFail(node) => self.node_fail(ctx, node),
            BigdataMsg::NodeRepair(node) => self.node_repair(ctx, node),
            BigdataMsg::Recover => self.recover(ctx),
        }
    }
}

/// Runs the big-data stack standalone on a single-actor simulation — the
/// thin wrapper equivalent of composing [`DataflowActor`] into a scenario.
/// Returns the trace; every metric is derived from it.
pub fn run_bigdata_standalone(
    config: &BigdataConfig,
    machines: u32,
    seed: u64,
    horizon: SimTime,
) -> TraceBus {
    let mut actor: DataflowActor<'_, BigdataMsg> =
        DataflowActor::new(config.clone(), machines, RngStream::new(seed, "bigdata"));
    let mut sim: Simulation<'_, BigdataMsg> = Simulation::new(seed);
    sim.set_horizon(horizon);
    let id = sim.add_actor(&mut actor);
    sim.schedule(SimTime::ZERO, id, BigdataMsg::Start);
    sim.run();
    sim.take_trace()
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: u64 = 3600;

    #[test]
    fn standalone_run_completes_all_jobs_and_traces_stages() {
        let config = BigdataConfig::default();
        let trace = run_bigdata_standalone(&config, 32, 7, SimTime::from_secs(8 * HOUR));
        assert_eq!(trace.count("bigdata", "job_submit"), config.jobs);
        assert_eq!(trace.count("bigdata", "job_finish"), config.jobs);
        assert_eq!(
            trace.count("bigdata", "stage_finish"),
            config.jobs * config.stages_per_job
        );
        assert_eq!(
            trace.count("bigdata", "shuffle_start"),
            trace.count("bigdata", "shuffle_end")
        );
    }

    #[test]
    fn standalone_run_is_deterministic() {
        let config = BigdataConfig::default();
        let a = run_bigdata_standalone(&config, 24, 11, SimTime::from_secs(6 * HOUR));
        let b = run_bigdata_standalone(&config, 24, 11, SimTime::from_secs(6 * HOUR));
        assert_eq!(a.to_json_string(), b.to_json_string());
    }

    #[test]
    fn node_failures_degrade_makespan_and_trigger_re_replication() {
        let config = BigdataConfig { jobs: 2, ..Default::default() };
        let horizon = SimTime::from_secs(8 * HOUR);

        let healthy = run_bigdata_standalone(&config, 16, 3, horizon);

        // Same run, but a third of the fleet dies just after job 0's input
        // lands (so blocks exist to re-replicate).
        let mut actor: DataflowActor<'_, BigdataMsg> =
            DataflowActor::new(config.clone(), 16, RngStream::new(3, "bigdata"));
        let mut sim: Simulation<'_, BigdataMsg> = Simulation::new(3);
        sim.set_horizon(horizon);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, BigdataMsg::Start);
        for node in 0..5 {
            sim.schedule(SimTime::from_secs(1), id, BigdataMsg::NodeFail(node));
        }
        sim.run();
        let degraded = sim.take_trace();

        assert_eq!(degraded.count("bigdata", "node_fail"), 5);
        assert!(degraded.count("bigdata", "re_replicate") >= 1);
        let last_finish = |t: &TraceBus| {
            t.select("bigdata", "job_finish").last().map(|e| e.at).unwrap()
        };
        assert!(
            last_finish(&degraded) > last_finish(&healthy),
            "failures must stretch the critical path"
        );
    }
}
