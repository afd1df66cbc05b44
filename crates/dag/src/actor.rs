//! The workflow engine as an actor on the shared simulation.
//!
//! [`DagActor`] drives a stream of generated [`DagJob`]s: tasks become
//! ready when their parents finish, are ordered and placed by a
//! [`SchedulingPolicy`](mcs_rms::policy::SchedulingPolicy) (per-job, chosen
//! by the configured [`DagPolicy`] — fixed, or per-class via the
//! simulate-ahead [`DagPortfolio`]), occupy
//! machine resources while their inputs cross the fabric and their work
//! burns down, and release them on completion.
//!
//! Edge data movement is pluggable: standalone, a transfer takes
//! `bytes / REFERENCE_BANDWIDTH`; composed, the scenario installs an
//! [`EdgeHook`] that turns each transfer into an `mcs-net` flow, and the
//! flow's (contended, fault-exposed) completion delivers
//! [`DagMsg::EdgeDone`] — so workflow makespans inherit network contention
//! and locality for free.

use crate::generate::{generate, DagClass, DagShape};
use crate::job::DagJob;
use crate::portfolio::{data_home, DagClusterSpec, DagPortfolio, PlacementPass};
use mcs_infra::cluster::Cluster;
use mcs_infra::machine::MachineId;
use mcs_infra::resource::ResourceVector;
use mcs_rms::policy::QueuedTaskView;
use mcs_simcore::engine::{Actor, Context, MessageEnvelope};
use mcs_simcore::error::McsError;
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::{SimDuration, SimTime};
use mcs_simcore::trace::Field;
use mcs_workload::task::TaskId;

/// Trace component under which all workflow events are recorded.
pub const DAG_COMPONENT: &str = "dag";

const MIB: f64 = 1024.0 * 1024.0;

/// Base per-task demand, core-seconds.
const TASK_WORK: f64 = 120.0;
/// Cores per task.
const TASK_CORES: f64 = 2.0;
/// Memory per task, GiB.
const TASK_MEMORY_GB: f64 = 4.0;
/// Locality domains the workload is laid out for; a composed scenario
/// warns when the fabric has fewer racks than this (placement degrades to
/// blind best-fit beyond the rack count).
pub const LOCALITY_DOMAINS: u32 = 4;
/// Reference bandwidth for ranks and standalone transfers, bytes/s
/// (100 MiB/s).
const REFERENCE_BANDWIDTH: f64 = 100.0 * MIB;
/// Cores per machine of the workflow pool.
const CORES_PER_MACHINE: f64 = 8.0;
/// Memory per machine of the workflow pool, GiB.
const MEMORY_PER_MACHINE_GB: f64 = 32.0;

/// Which policy schedules each workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DagPolicy {
    /// HEFT-like rank-based list scheduling.
    Heft,
    /// Greedy ready-task, first fit.
    Greedy,
    /// Locality-first: run tasks where their inputs live.
    Locality,
    /// Per-class portfolio: simulate the fixed candidates ahead, run the
    /// winner (the paper's C6 approach iv, applied to workflows).
    Portfolio,
}

impl DagPolicy {
    /// All modes, for sweeps.
    pub const ALL: [DagPolicy; 4] =
        [DagPolicy::Heft, DagPolicy::Greedy, DagPolicy::Locality, DagPolicy::Portfolio];

    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DagPolicy::Heft => "heft",
            DagPolicy::Greedy => "greedy",
            DagPolicy::Locality => "locality",
            DagPolicy::Portfolio => "portfolio",
        }
    }
}

/// Workflow-workload configuration. Jobs cycle through [`DagClass::ALL`].
#[derive(Debug, Clone, PartialEq)]
pub struct DagConfig {
    /// Number of workflows submitted over the run.
    pub jobs: usize,
    /// Parallel width of each workflow (chain length for chains).
    pub width: usize,
    /// Base payload per precedence edge, MiB.
    pub edge_mb: f64,
    /// Seconds between successive workflow submissions.
    pub submit_interval_secs: f64,
    /// Scheduling mode.
    pub policy: DagPolicy,
}

impl Default for DagConfig {
    fn default() -> Self {
        DagConfig {
            jobs: 12,
            width: 6,
            edge_mb: 32.0,
            submit_interval_secs: 120.0,
            policy: DagPolicy::Portfolio,
        }
    }
}

impl DagConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), McsError> {
        if self.jobs == 0 {
            return Err(McsError::invalid_config("dag.jobs", "must be at least 1"));
        }
        if self.width == 0 {
            return Err(McsError::invalid_config("dag.width", "must be at least 1"));
        }
        if !self.edge_mb.is_finite() || self.edge_mb < 0.0 {
            return Err(McsError::invalid_config("dag.edge_mb", "must be non-negative and finite"));
        }
        if !self.submit_interval_secs.is_finite() || self.submit_interval_secs < 0.0 {
            return Err(McsError::invalid_config(
                "dag.submit_interval_secs",
                "must be non-negative and finite",
            ));
        }
        Ok(())
    }
}

/// Messages understood by [`DagActor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagMsg {
    /// Bootstraps the run: schedules every workflow submission.
    Start,
    /// Workflow `j` submits.
    Submit(u32),
    /// A running task's work burned down.
    TaskDone {
        /// Workflow index.
        job: u32,
        /// Task index within the workflow.
        task: u32,
    },
    /// An edge transfer delivered its bytes (self-scheduled standalone, or
    /// routed back by the scenario's flow-completion hook).
    EdgeDone {
        /// Workflow index.
        job: u32,
        /// Edge index within the workflow.
        edge: u32,
    },
}

/// One edge transfer the scenario must route over the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeTransfer {
    /// Workflow index.
    pub job: u32,
    /// Edge index within the workflow.
    pub edge: u32,
    /// Source node (the producer's machine).
    pub src: u32,
    /// Destination node (the consumer's machine).
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u64,
}

/// Transfer callback: turns an [`EdgeTransfer`] into a network flow whose
/// completion must eventually deliver the matching [`DagMsg::EdgeDone`].
pub type EdgeHook<'a, M> = Box<dyn FnMut(&mut Context<'_, M>, EdgeTransfer) + 'a>;

struct JobState {
    dag: DagJob,
    class: DagClass,
    policy_idx: Option<usize>,
    submit_at: SimTime,
    reqs: Vec<ResourceVector>,
    ranks: Vec<f64>,
    deps_left: Vec<usize>,
    placed_on: Vec<Option<MachineId>>,
    pending_inputs: Vec<usize>,
    done: Vec<bool>,
    remaining: usize,
    xfer_started: Vec<Option<SimTime>>,
    transfer_secs: f64,
    stall_secs: f64,
}

#[derive(Debug, Clone, Copy)]
struct ReadyTask {
    job: u32,
    task: u32,
    ready_at: SimTime,
    /// Fixed on arrival: every parent is placed by then.
    data_home: Option<u32>,
}

/// The workflow engine as a simulation actor.
pub struct DagActor<'a, M = DagMsg> {
    cfg: DagConfig,
    cluster: Cluster,
    spec: DagClusterSpec,
    portfolio: DagPortfolio,
    jobs: Vec<JobState>,
    ready: Vec<ReadyTask>,
    /// Whether a task joined the ready queue or capacity freed since the
    /// last placement pass; until then every ready task is known not to fit.
    dirty: bool,
    rng: RngStream,
    edge_hook: Option<EdgeHook<'a, M>>,
    jobs_finished: u64,
    makespan_sum_secs: f64,
    transfer_secs: f64,
    stall_secs: f64,
}

impl<'a, M: MessageEnvelope<DagMsg>> DagActor<'a, M> {
    /// Builds the actor: generates every workflow up front from `rng` (so
    /// the job set is a pure function of seed and configuration) over a
    /// pool of `machines` nodes — node ids align 1:1 with fabric nodes.
    pub fn new(machines: u32, cfg: DagConfig, rng: &mut RngStream) -> Self {
        let nodes_per_rack = machines.div_ceil(LOCALITY_DOMAINS).max(1);
        Self::with_rack_width(machines, cfg, rng, nodes_per_rack)
    }

    /// Like [`DagActor::new`] with an explicit rack width, for composed
    /// scenarios whose fabric dictates the locality structure.
    pub fn with_rack_width(
        machines: u32,
        cfg: DagConfig,
        rng: &mut RngStream,
        nodes_per_rack: u32,
    ) -> Self {
        let spec = DagClusterSpec {
            machines: machines.max(1),
            cores_per_machine: CORES_PER_MACHINE,
            memory_per_machine_gb: MEMORY_PER_MACHINE_GB,
        };
        let shape = DagShape {
            width: cfg.width,
            work: TASK_WORK,
            cores: TASK_CORES,
            memory_gb: TASK_MEMORY_GB,
            edge_bytes: (cfg.edge_mb * MIB) as u64,
        };
        let jobs: Vec<JobState> = (0..cfg.jobs)
            .map(|j| {
                let class = DagClass::ALL[j % DagClass::ALL.len()];
                let dag = generate(class, &shape, rng);
                let n = dag.len();
                let reqs =
                    dag.tasks().iter().map(|t| ResourceVector::new(t.cores, t.memory_gb)).collect();
                let ranks = dag.upward_ranks(REFERENCE_BANDWIDTH);
                let deps_left = (0..n).map(|t| dag.in_edges(t).len()).collect();
                let pending_inputs = vec![0; n];
                let xfer_started = vec![None; dag.edges().len()];
                JobState {
                    dag,
                    class,
                    policy_idx: None,
                    submit_at: SimTime::ZERO,
                    reqs,
                    ranks,
                    deps_left,
                    placed_on: vec![None; n],
                    pending_inputs,
                    done: vec![false; n],
                    remaining: n,
                    xfer_started,
                    transfer_secs: 0.0,
                    stall_secs: 0.0,
                }
            })
            .collect();
        DagActor {
            cluster: spec.build("dag-pool"),
            spec,
            portfolio: DagPortfolio::standard(nodes_per_rack),
            jobs,
            ready: Vec::new(),
            dirty: false,
            rng: rng.derive("dag-place"),
            edge_hook: None,
            cfg,
            jobs_finished: 0,
            makespan_sum_secs: 0.0,
            transfer_secs: 0.0,
            stall_secs: 0.0,
        }
    }

    /// Installs the transfer hook that routes edge payloads over a network
    /// model instead of the reference-bandwidth constant.
    #[must_use]
    pub fn with_edge_hook(
        mut self,
        hook: impl FnMut(&mut Context<'_, M>, EdgeTransfer) + 'a,
    ) -> Self {
        self.edge_hook = Some(Box::new(hook));
        self
    }

    /// Workflows completed so far.
    pub fn jobs_finished(&self) -> u64 {
        self.jobs_finished
    }

    /// Mean makespan over completed workflows, seconds.
    pub fn mean_makespan_secs(&self) -> f64 {
        if self.jobs_finished == 0 {
            return 0.0;
        }
        self.makespan_sum_secs / self.jobs_finished as f64
    }

    /// Total seconds edge payloads spent in flight.
    pub fn transfer_secs(&self) -> f64 {
        self.transfer_secs
    }

    /// Total transfer seconds beyond the reference-bandwidth ideal.
    pub fn stall_secs(&self) -> f64 {
        self.stall_secs
    }

    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let interval = SimDuration::from_secs_f64(self.cfg.submit_interval_secs.max(0.0));
        let mut at = ctx.now();
        for j in 0..self.jobs.len() {
            ctx.send_at(ctx.self_id(), at, M::wrap(DagMsg::Submit(j as u32)));
            at += interval;
        }
    }

    fn resolve_policy(&mut self, j: usize) -> usize {
        match self.cfg.policy {
            DagPolicy::Heft => 0,
            DagPolicy::Greedy => 1,
            DagPolicy::Locality => 2,
            DagPolicy::Portfolio => {
                let job = &self.jobs[j];
                self.portfolio.choose(job.class, &job.dag, &self.spec, REFERENCE_BANDWIDTH)
            }
        }
    }

    fn on_submit(&mut self, ctx: &mut Context<'_, M>, j: usize) {
        let now = ctx.now();
        let policy_idx = self.resolve_policy(j);
        let job = &mut self.jobs[j];
        job.submit_at = now;
        job.policy_idx = Some(policy_idx);
        ctx.emit_fields(
            DAG_COMPONENT,
            "job_submit",
            &[
                ("job", Field::U64(j as u64)),
                ("class", Field::Str(job.class.name())),
                ("tasks", Field::U64(job.dag.len() as u64)),
                ("policy", Field::Str(self.portfolio.candidates()[policy_idx].name())),
            ],
        );
        let sources: Vec<u32> =
            (0..self.jobs[j].dag.len() as u32).filter(|&t| self.jobs[j].deps_left[t as usize] == 0).collect();
        for t in sources {
            self.make_ready(ctx, j as u32, t, now);
        }
    }

    fn make_ready(&mut self, ctx: &mut Context<'_, M>, job: u32, task: u32, now: SimTime) {
        ctx.emit_fields(
            DAG_COMPONENT,
            "task_ready",
            &[("job", Field::U64(u64::from(job))), ("task", Field::U64(u64::from(task)))],
        );
        let job_state = &self.jobs[job as usize];
        let data_home = data_home(&job_state.dag, &job_state.placed_on, task as usize);
        self.ready.push(ReadyTask { job, task, ready_at: now, data_home });
        self.dirty = true;
    }

    /// Orders the ready queue (FCFS across workflows, each workflow's own
    /// policy within it) and places whatever fits right now.
    ///
    /// A clean queue skips the pass: every task left by the last one failed
    /// to fit, and nothing has freed capacity or joined since.
    fn dispatch(&mut self, ctx: &mut Context<'_, M>) {
        if !std::mem::take(&mut self.dirty) {
            return;
        }
        let Self { jobs, ready, portfolio, cluster, rng, .. } = self;
        let policy_of = |r: &ReadyTask| {
            let i = jobs[r.job as usize].policy_idx.expect("ready task in an unsubmitted job");
            portfolio.candidates()[i].as_ref()
        };
        ready.sort_by(|a, b| {
            a.job
                .cmp(&b.job)
                .then_with(|| policy_of(a).compare(&ready_view(jobs, a), &ready_view(jobs, b)))
        });
        let mut pass = PlacementPass::default();
        let mut placements: Vec<(u32, u32, MachineId)> = Vec::new();
        ready.retain(|r| {
            let placed = pass.place(policy_of(r), cluster, &ready_view(jobs, r), rng);
            if let Some(mid) = placed {
                placements.push((r.job, r.task, mid));
            }
            placed.is_none()
        });
        for (job, task, mid) in placements {
            self.begin_task(ctx, job, task, mid);
        }
    }

    /// A freshly placed task pulls its inputs, then computes.
    fn begin_task(&mut self, ctx: &mut Context<'_, M>, j: u32, t: u32, mid: MachineId) {
        let now = ctx.now();
        ctx.emit_fields(
            DAG_COMPONENT,
            "task_placed",
            &[
                ("job", Field::U64(u64::from(j))),
                ("task", Field::U64(u64::from(t))),
                ("machine", Field::U64(u64::from(mid.0))),
            ],
        );
        let job = &mut self.jobs[j as usize];
        job.placed_on[t as usize] = Some(mid);
        let in_edges: Vec<usize> = job.dag.in_edges(t as usize).to_vec();
        let mut transfers: Vec<EdgeTransfer> = Vec::new();
        for ei in in_edges {
            let e = job.dag.edges()[ei];
            let src = job.placed_on[e.from].expect("parent of a ready task is placed").0;
            if src == mid.0 || e.bytes == 0 {
                continue; // data already local
            }
            job.pending_inputs[t as usize] += 1;
            job.xfer_started[ei] = Some(now);
            transfers.push(EdgeTransfer {
                job: j,
                edge: ei as u32,
                src,
                dst: mid.0,
                bytes: e.bytes,
            });
        }
        if job.pending_inputs[t as usize] == 0 {
            self.start_compute(ctx, j, t, mid);
            return;
        }
        let ideal = |bytes: u64| SimDuration::from_secs_f64(bytes as f64 / REFERENCE_BANDWIDTH);
        for x in transfers {
            match self.edge_hook.as_mut() {
                Some(hook) => hook(ctx, x),
                None => {
                    ctx.send_self(ideal(x.bytes), M::wrap(DagMsg::EdgeDone { job: j, edge: x.edge }));
                }
            }
        }
    }

    fn on_edge_done(&mut self, ctx: &mut Context<'_, M>, j: u32, e: u32) {
        let now = ctx.now();
        let job = &mut self.jobs[j as usize];
        let Some(started) = job.xfer_started[e as usize].take() else {
            return; // stale or duplicate delivery
        };
        let edge = job.dag.edges()[e as usize];
        let secs = now.saturating_since(started).as_secs_f64();
        let ideal = edge.bytes as f64 / REFERENCE_BANDWIDTH;
        let stall = (secs - ideal).max(0.0);
        job.transfer_secs += secs;
        job.stall_secs += stall;
        self.transfer_secs += secs;
        self.stall_secs += stall;
        ctx.emit_fields(
            DAG_COMPONENT,
            "edge_xfer",
            &[
                ("job", Field::U64(u64::from(j))),
                ("edge", Field::U64(u64::from(e))),
                ("bytes", Field::U64(edge.bytes)),
                ("secs", Field::F64(secs)),
                ("stall_secs", Field::F64(stall)),
            ],
        );
        let t = edge.to;
        job.pending_inputs[t] -= 1;
        if job.pending_inputs[t] == 0 {
            let mid = job.placed_on[t].expect("transfer target is placed");
            self.start_compute(ctx, j, t as u32, mid);
        }
    }

    fn start_compute(&mut self, ctx: &mut Context<'_, M>, j: u32, t: u32, mid: MachineId) {
        let job = &self.jobs[j as usize];
        let task = job.dag.tasks()[t as usize];
        let req = &job.reqs[t as usize];
        let speed = self.cluster.machine(mid).speedup_for(req).max(1e-9);
        let runtime =
            SimDuration::from_secs_f64(task.work / (req.cpu_cores.max(1e-9) * speed));
        ctx.emit_fields(
            DAG_COMPONENT,
            "task_start",
            &[
                ("job", Field::U64(u64::from(j))),
                ("task", Field::U64(u64::from(t))),
                ("machine", Field::U64(u64::from(mid.0))),
            ],
        );
        ctx.send_self(runtime, M::wrap(DagMsg::TaskDone { job: j, task: t }));
    }

    fn on_task_done(&mut self, ctx: &mut Context<'_, M>, j: u32, t: u32) {
        let now = ctx.now();
        let job = &mut self.jobs[j as usize];
        if job.done[t as usize] {
            return;
        }
        job.done[t as usize] = true;
        job.remaining -= 1;
        let mid = job.placed_on[t as usize].expect("finished task was placed");
        self.cluster.machine_mut(mid).release(&job.reqs[t as usize]);
        self.dirty = true;
        ctx.emit_fields(
            DAG_COMPONENT,
            "task_finish",
            &[("job", Field::U64(u64::from(j))), ("task", Field::U64(u64::from(t)))],
        );
        let out_edges: Vec<usize> = job.dag.out_edges(t as usize).to_vec();
        let mut newly_ready: Vec<u32> = Vec::new();
        for ei in out_edges {
            let c = job.dag.edges()[ei].to;
            job.deps_left[c] -= 1;
            if job.deps_left[c] == 0 {
                newly_ready.push(c as u32);
            }
        }
        let job_complete = job.remaining == 0;
        if job_complete {
            let makespan = now.saturating_since(job.submit_at).as_secs_f64();
            let policy_idx = job.policy_idx.expect("completed job was submitted");
            self.jobs_finished += 1;
            self.makespan_sum_secs += makespan;
            let job = &self.jobs[j as usize];
            ctx.emit_fields(
                DAG_COMPONENT,
                "job_finish",
                &[
                    ("job", Field::U64(u64::from(j))),
                    ("class", Field::Str(job.class.name())),
                    ("policy", Field::Str(self.portfolio.candidates()[policy_idx].name())),
                    ("tasks", Field::U64(job.dag.len() as u64)),
                    ("makespan_secs", Field::F64(makespan)),
                    ("transfer_secs", Field::F64(job.transfer_secs)),
                    ("stall_secs", Field::F64(job.stall_secs)),
                ],
            );
        }
        for c in newly_ready {
            self.make_ready(ctx, j, c, now);
        }
    }
}

/// Policy view of one ready queue entry.
fn ready_view<'j>(jobs: &'j [JobState], r: &ReadyTask) -> QueuedTaskView<'j> {
    let job = &jobs[r.job as usize];
    let t = r.task as usize;
    QueuedTaskView {
        id: TaskId((u64::from(r.job) << 32) | u64::from(r.task)),
        submit: job.submit_at,
        ready_at: r.ready_at,
        demand_left: job.dag.tasks()[t].work,
        req: &job.reqs[t],
        deadline: None,
        rank: job.ranks[t],
        data_home: r.data_home,
    }
}

impl<M: MessageEnvelope<DagMsg>> Actor<M> for DagActor<'_, M> {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        let Some(msg) = msg.unwrap() else { return };
        match msg {
            DagMsg::Start => self.on_start(ctx),
            DagMsg::Submit(j) => self.on_submit(ctx, j as usize),
            DagMsg::TaskDone { job, task } => self.on_task_done(ctx, job, task),
            DagMsg::EdgeDone { job, edge } => self.on_edge_done(ctx, job, edge),
        }
        // A placement pass after every event, like the RMS scheduler; it
        // returns at once unless the event readied a task or freed capacity.
        self.dispatch(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_simcore::engine::Simulation;

    fn cfg(policy: DagPolicy) -> DagConfig {
        DagConfig {
            jobs: 4,
            width: 4,
            submit_interval_secs: 30.0,
            policy,
            ..Default::default()
        }
    }

    fn run(policy: DagPolicy, seed: u64) -> (u64, u64, f64, String) {
        let mut rng = RngStream::new(seed, "dag");
        let mut actor: DagActor<'_, DagMsg> = DagActor::new(16, cfg(policy), &mut rng);
        let mut sim: Simulation<'_, DagMsg> = Simulation::new(seed);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, DagMsg::Start);
        sim.run();
        let tasks = sim.trace().count(DAG_COMPONENT, "task_finish") as u64;
        let trace = sim.trace().to_json_string();
        drop(sim);
        let out = (actor.jobs_finished(), tasks, actor.mean_makespan_secs(), trace);
        drop(actor);
        out
    }

    #[test]
    fn all_jobs_complete_under_every_policy() {
        for policy in DagPolicy::ALL {
            let (jobs, tasks, mean, trace) = run(policy, 7);
            assert_eq!(jobs, 4, "{}", policy.name());
            assert!(tasks > 4);
            assert!(mean > 0.0);
            assert!(trace.contains("job_finish"));
            assert!(trace.contains("edge_xfer"));
        }
    }

    #[test]
    fn standalone_runs_are_deterministic() {
        let a = run(DagPolicy::Portfolio, 42);
        let b = run(DagPolicy::Portfolio, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let mut rng = RngStream::new(5, "dag");
        let config = cfg(DagPolicy::Heft);
        let actor: DagActor<'_, DagMsg> = DagActor::new(16, config.clone(), &mut rng);
        // Compute-only bound: co-located tasks skip their edge transfers.
        let cps: Vec<f64> =
            actor.jobs.iter().map(|j| j.dag.critical_path_secs(f64::INFINITY)).collect();
        drop(actor);
        let mut rng = RngStream::new(5, "dag");
        let mut actor: DagActor<'_, DagMsg> = DagActor::new(16, config, &mut rng);
        let mut sim: Simulation<'_, DagMsg> = Simulation::new(5);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, DagMsg::Start);
        sim.run();
        // Jobs finish out of submission order: pair each makespan with its
        // own job's critical path.
        let finished = sim.trace().select(DAG_COMPONENT, "job_finish");
        assert_eq!(finished.len(), cps.len());
        for e in finished {
            let cp = cps[e.field_f64("job").expect("job id") as usize];
            let makespan = e.field_f64("makespan_secs").expect("makespan");
            // SimTime is nanosecond-resolution; allow for truncation.
            assert!(makespan + 1e-6 >= cp, "makespan {makespan} < critical path {cp}");
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(DagConfig::default().validate().is_ok());
        for bad in [
            DagConfig { jobs: 0, ..Default::default() },
            DagConfig { width: 0, ..Default::default() },
            DagConfig { edge_mb: -1.0, ..Default::default() },
            DagConfig { submit_interval_secs: f64::NAN, ..Default::default() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }
}
