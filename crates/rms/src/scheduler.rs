//! The cluster scheduler: an event-driven allocation engine.
//!
//! Implements the allocation half of the paper's dual scheduling problem
//! (C7): jobs arrive over virtual time, their tasks wait for dependencies,
//! queue under a [`QueuePolicy`], are placed by an
//! `AllocationPolicy`, optionally
//! backfilled (EASY-style, with clairvoyant runtimes), and may be killed and
//! requeued by injected machine failures.
//!
//! The scheduler is an engine actor: [`SchedulerActor`] implements
//! [`Actor`] over any message type enveloping [`RmsMsg`], so the same code
//! drives both the single-actor wrappers ([`ClusterScheduler::run`],
//! [`ClusterScheduler::run_adaptive`]) and composed multi-subsystem
//! scenarios (`mcs_core::scenario`), where machine failures arrive as
//! messages from a failure-injector actor instead of a self-scheduled
//! outage cursor. Every state change is emitted onto the simulation's
//! trace bus under component `"rms"`.

use crate::allocation::AllocationPolicy;
use crate::policy::{QueuedTaskView, SchedulingPolicy};
use crate::portfolio::PortfolioSelector;
use mcs_failure::model::Outage;
use mcs_infra::cluster::Cluster;
use mcs_infra::machine::MachineId;
use mcs_infra::resource::ResourceVector;
use mcs_simcore::engine::{Actor, Context, MessageEnvelope, Simulation};
use mcs_simcore::metrics::TimeWeighted;
use mcs_simcore::resilience::RestartConfig;
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::{SimDuration, SimTime};
use mcs_simcore::trace::Field;
use mcs_workload::task::{Job, TaskCompletion, TaskId};
use std::collections::{HashMap, HashSet};

/// Queue-ordering disciplines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueuePolicy {
    /// First come, first served (by job submit time).
    Fcfs,
    /// Shortest job first (by task demand).
    Sjf,
    /// Largest job first (by task demand).
    Ljf,
    /// Earliest deadline first; tasks without deadlines sort last.
    EarliestDeadline,
}

impl QueuePolicy {
    /// All disciplines, for sweeps.
    pub const ALL: [QueuePolicy; 4] = [
        QueuePolicy::Fcfs,
        QueuePolicy::Sjf,
        QueuePolicy::Ljf,
        QueuePolicy::EarliestDeadline,
    ];

    /// A short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            QueuePolicy::Fcfs => "fcfs",
            QueuePolicy::Sjf => "sjf",
            QueuePolicy::Ljf => "ljf",
            QueuePolicy::EarliestDeadline => "edf",
        }
    }
}

/// Scheduler configuration: one point in the policy space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedulerConfig {
    /// Queue discipline.
    pub queue: QueuePolicy,
    /// Machine-selection policy.
    pub allocation: AllocationPolicy,
    /// EASY backfilling: tasks behind a blocked queue head may run early if
    /// (clairvoyantly) they finish before the head's earliest start.
    pub backfill: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            queue: QueuePolicy::Fcfs,
            allocation: AllocationPolicy::BestFit,
            backfill: true,
        }
    }
}

/// What the scheduler measured over one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleOutcome {
    /// Per-task completion records.
    pub completions: Vec<TaskCompletion>,
    /// Finish of the last task (virtual time).
    pub makespan: SimDuration,
    /// Time-averaged cluster utilization (dominant share) in `[0, 1]`.
    pub mean_utilization: f64,
    /// Time-averaged queue length.
    pub mean_queue_length: f64,
    /// Peak queue length.
    pub peak_queue_length: f64,
    /// Tasks whose deadline was missed.
    pub deadline_misses: usize,
    /// Task kills caused by machine failures (each leads to a requeue).
    pub failure_requeues: usize,
    /// Tasks rejected because no machine in the cluster can ever satisfy
    /// their resource request (admission control).
    pub rejected: usize,
    /// Tasks abandoned after exhausting their checkpoint-restart budget
    /// (only under [`SchedulerActor::with_restart`]).
    pub abandoned: usize,
    /// Tasks still unfinished when the run ended (excluding rejected ones).
    pub unfinished: usize,
}

impl ScheduleOutcome {
    /// Mean bounded slowdown over completed tasks.
    pub fn mean_slowdown(&self) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        self.completions.iter().map(TaskCompletion::bounded_slowdown).sum::<f64>()
            / self.completions.len() as f64
    }

    /// Mean response time in seconds over completed tasks.
    pub fn mean_response_secs(&self) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        self.completions
            .iter()
            .map(|c| c.response_time().as_secs_f64())
            .sum::<f64>()
            / self.completions.len() as f64
    }
}

#[derive(Debug, Clone)]
struct PendingTask {
    task_idx: usize,
    ready_at: SimTime,
}

#[derive(Debug, Clone)]
struct RunningTask {
    machine: MachineId,
    req: ResourceVector,
    started: SimTime,
    ends: SimTime,
}

/// The scheduler's message vocabulary on the simulation engine.
///
/// `Start`, `TaskFinish`, `PolicyTick`, and `NextOutage` are self-scheduled;
/// `JobArrival` comes from `Start` (single-actor runs) or a workload actor,
/// and `MachineFail` / `MachineRepair` from the outage cursor (single-actor
/// runs) or a failure-injector actor (composed scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmsMsg {
    /// Bootstraps a run: schedules arrivals, outages, and policy ticks.
    Start,
    /// Job `jobs[idx]` submits; its dependency-free tasks join the queue.
    JobArrival(usize),
    /// A placed task's (clairvoyant) runtime elapsed. Stale if `generation`
    /// no longer matches (the task was killed and requeued meanwhile).
    TaskFinish {
        /// Index into the flattened task table.
        task_idx: usize,
        /// Placement generation the finish belongs to.
        generation: u32,
    },
    /// Machine `m` fails; running tasks there are killed and requeued.
    MachineFail(u32),
    /// Machine `m` comes back.
    MachineRepair(u32),
    /// Consult the [`PortfolioSelector`] and adopt its configuration.
    PolicyTick,
    /// Apply the next entry of the sorted outage schedule.
    NextOutage,
    /// A checkpoint-restart backoff elapsed: the killed task re-enters the
    /// queue now (only under [`SchedulerActor::with_restart`]).
    Requeue(usize),
}

#[derive(Debug, Clone)]
struct FlatTask {
    id: TaskId,
    job_idx: usize,
    demand_left: f64,
    req: ResourceVector,
    deps_left: usize,
    children: Vec<usize>,
    deadline: Option<SimDuration>,
    submit: SimTime,
    done: bool,
    feasible: bool,
    /// Upward rank: critical-path core-seconds from this task to a sink
    /// (its own demand included). Feeds rank-ordering policies (HEFT);
    /// equals plain demand for independent tasks.
    rank: f64,
}

/// Computes upward ranks over the flattened DAG: a task's rank is its own
/// demand plus the largest child rank. Sinks seed the reverse-topological
/// sweep; each task is ranked exactly once, so the result is independent of
/// traversal order.
fn compute_upward_ranks(flat: &mut [FlatTask]) {
    let n = flat.len();
    let mut parents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pending_children: Vec<usize> = vec![0; n];
    for (i, t) in flat.iter().enumerate() {
        pending_children[i] = t.children.len();
        for &c in &t.children {
            parents[c].push(i);
        }
    }
    let mut stack: Vec<usize> = (0..n).filter(|&i| pending_children[i] == 0).collect();
    while let Some(i) = stack.pop() {
        let max_child = flat[i].children.iter().map(|&c| flat[c].rank).fold(0.0, f64::max);
        flat[i].rank = flat[i].demand_left + max_child;
        for &p in &parents[i] {
            pending_children[p] -= 1;
            if pending_children[p] == 0 {
                stack.push(p);
            }
        }
    }
}

/// An event-driven single-cluster scheduler.
///
/// # Examples
/// ```
/// use mcs_rms::scheduler::{ClusterScheduler, SchedulerConfig};
/// use mcs_infra::prelude::*;
/// use mcs_workload::prelude::*;
/// use mcs_simcore::prelude::*;
///
/// let cluster = Cluster::homogeneous(
///     ClusterId(0), "c", MachineSpec::commodity("std-4", 4.0, 16.0), 4,
/// );
/// let job = Job {
///     id: JobId(0), user: UserId(0), kind: JobKind::BagOfTasks,
///     submit: SimTime::ZERO,
///     tasks: vec![Task::independent(
///         TaskId(0), JobId(0), 40.0,
///         mcs_infra::resource::ResourceVector::new(4.0, 4.0),
///     )],
/// };
/// let mut sched = ClusterScheduler::new(cluster, SchedulerConfig::default(), 42);
/// let outcome = sched.run(vec![job], SimTime::from_secs(3_600));
/// assert_eq!(outcome.completions.len(), 1);
/// assert_eq!(outcome.makespan, SimDuration::from_secs(10));
/// ```
#[derive(Debug)]
pub struct ClusterScheduler {
    cluster: Cluster,
    config: SchedulerConfig,
    rng: RngStream,
    outages: Vec<Outage>,
    seed: u64,
}

impl ClusterScheduler {
    /// Creates a scheduler over a cluster.
    pub fn new(cluster: Cluster, config: SchedulerConfig, seed: u64) -> Self {
        ClusterScheduler {
            cluster,
            config,
            rng: RngStream::new(seed, "scheduler"),
            outages: Vec::new(),
            seed,
        }
    }

    /// Injects an outage schedule (machines indexed within the cluster).
    pub fn with_outages(mut self, outages: Vec<Outage>) -> Self {
        self.outages = outages;
        self
    }

    /// The cluster after the run (or before, if not yet run).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Builds the engine actor for this scheduler over one workload, for
    /// embedding in a composed [`Simulation`] (see `mcs_core::scenario`).
    /// The actor borrows the scheduler; extract results with
    /// [`SchedulerActor::outcome`] after the simulation is dropped.
    pub fn actor<M: MessageEnvelope<RmsMsg>>(
        &mut self,
        jobs: Vec<Job>,
        horizon: SimTime,
    ) -> SchedulerActor<'_, M> {
        SchedulerActor::new(&mut self.cluster, &mut self.config, &mut self.rng, jobs, horizon)
    }

    /// Runs the workload to completion or until `horizon`, whichever comes
    /// first, and returns the measured outcome.
    ///
    /// A thin wrapper: builds a single-actor [`Simulation`] around
    /// [`SchedulerActor`] (with the outage schedule self-applied) and runs
    /// it to quiescence.
    pub fn run(&mut self, jobs: Vec<Job>, horizon: SimTime) -> ScheduleOutcome {
        self.run_single(jobs, horizon, None)
    }

    /// Like [`ClusterScheduler::run`], but consults `selector` every
    /// `interval` of virtual time and adopts whatever configuration it
    /// returns — the runtime half of portfolio scheduling.
    pub fn run_adaptive(
        &mut self,
        jobs: Vec<Job>,
        horizon: SimTime,
        selector: &mut PortfolioSelector,
        interval: SimDuration,
    ) -> ScheduleOutcome {
        self.run_single(jobs, horizon, Some((selector, interval)))
    }

    /// Drives the actor, with the outage schedule self-applied, through a
    /// dedicated single-actor simulation.
    fn run_single(
        &mut self,
        jobs: Vec<Job>,
        horizon: SimTime,
        selector: Option<(&mut PortfolioSelector, SimDuration)>,
    ) -> ScheduleOutcome {
        let mut actor =
            SchedulerActor::new(&mut self.cluster, &mut self.config, &mut self.rng, jobs, horizon)
                .with_outages(self.outages.clone());
        actor.selector = selector;
        let mut sim: Simulation<'_, RmsMsg> = Simulation::new(self.seed);
        sim.set_horizon(horizon);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, RmsMsg::Start);
        sim.run();
        drop(sim);
        actor.outcome()
    }
}

/// The scheduler as a simulation actor.
///
/// Generic over any envelope of [`RmsMsg`], so it runs unchanged inside the
/// single-actor wrappers and inside composed scenarios. Borrows the
/// cluster, configuration, and RNG stream from its [`ClusterScheduler`] so
/// the owner observes post-run state (adopted policy, machine health).
/// Callback fired instead of the fixed backoff delay when a killed task's
/// checkpoint image must be fetched before it can re-enter the queue:
/// `(ctx, task_index, attempt)`. The installer (a composed scenario with a
/// network model) must eventually deliver [`RmsMsg::Requeue`] with the same
/// task index — typically when the restore transfer's flow completes, so
/// recovery time is a function of network contention, not a constant.
pub type CheckpointHook<'a, M> = Box<dyn FnMut(&mut Context<'_, M>, usize, u32) + 'a>;

pub struct SchedulerActor<'a, M = RmsMsg> {
    cluster: &'a mut Cluster,
    config: &'a mut SchedulerConfig,
    rng: &'a mut RngStream,
    jobs: Vec<Job>,
    horizon: SimTime,
    selector: Option<(&'a mut PortfolioSelector, SimDuration)>,
    // Outage schedule, pre-sorted by start time; `next_outage` is the cursor
    // so each `NextOutage` event applies one entry and arms the next,
    // keeping the event queue small regardless of schedule length.
    outages: Vec<Outage>,
    next_outage: usize,
    flat: Vec<FlatTask>,
    index: HashMap<TaskId, usize>,
    queue: Vec<PendingTask>,
    queue_dirty: bool,
    running: HashMap<usize, RunningTask>,
    on_machine: HashMap<u32, HashSet<usize>>,
    generation: Vec<u32>,
    completions: Vec<TaskCompletion>,
    failure_requeues: usize,
    deadline_misses: usize,
    rejected: HashSet<usize>,
    restart: Option<RestartConfig>,
    /// Fraction of progress a killed task keeps; 0 without restart.
    checkpoint_factor: f64,
    restart_attempts: Vec<u32>,
    checkpoint_hook: Option<CheckpointHook<'a, M>>,
    abandoned: HashSet<usize>,
    core_capacity: f64,
    used_cores: f64,
    util: TimeWeighted,
    qlen: TimeWeighted,
    last_finish: SimTime,
}

impl<'a, M: MessageEnvelope<RmsMsg>> SchedulerActor<'a, M> {
    /// Builds the actor: flattens tasks, indexes dependencies, and decides
    /// admission per task (no machine can ever host an oversized request).
    pub fn new(
        cluster: &'a mut Cluster,
        config: &'a mut SchedulerConfig,
        rng: &'a mut RngStream,
        jobs: Vec<Job>,
        horizon: SimTime,
    ) -> Self {
        let mut flat: Vec<FlatTask> = Vec::new();
        let mut index: HashMap<TaskId, usize> = HashMap::new();
        for (j, job) in jobs.iter().enumerate() {
            for t in &job.tasks {
                let idx = flat.len();
                let prev = index.insert(t.id, idx);
                assert!(prev.is_none(), "duplicate task id {} in the workload", t.id);
                let feasible = cluster.machines().iter().any(|m| t.req.fits_in(&m.capacity()));
                flat.push(FlatTask {
                    id: t.id,
                    job_idx: j,
                    demand_left: t.demand_core_seconds,
                    req: t.req,
                    deps_left: 0,
                    children: Vec::new(),
                    deadline: t.deadline,
                    submit: job.submit,
                    done: false,
                    feasible,
                    rank: 0.0,
                });
            }
        }
        for job in &jobs {
            for t in &job.tasks {
                let ti = index[&t.id];
                for d in &t.dependencies {
                    let di = *index.get(d).expect("dependency must be within the workload");
                    flat[di].children.push(ti);
                    flat[ti].deps_left += 1;
                }
            }
        }
        compute_upward_ranks(&mut flat);
        let generation = vec![0; flat.len()];
        let restart_attempts = vec![0; flat.len()];
        let core_capacity = cluster.capacity().cpu_cores.max(1e-9);
        SchedulerActor {
            cluster,
            config,
            rng,
            jobs,
            horizon,
            selector: None,
            outages: Vec::new(),
            next_outage: 0,
            flat,
            index,
            queue: Vec::new(),
            queue_dirty: false,
            running: HashMap::new(),
            on_machine: HashMap::new(),
            generation,
            completions: Vec::new(),
            failure_requeues: 0,
            deadline_misses: 0,
            rejected: HashSet::new(),
            restart: None,
            checkpoint_factor: 0.0,
            restart_attempts,
            checkpoint_hook: None,
            abandoned: HashSet::new(),
            core_capacity,
            used_cores: 0.0,
            util: TimeWeighted::new(SimTime::ZERO, 0.0),
            qlen: TimeWeighted::new(SimTime::ZERO, 0.0),
            last_finish: SimTime::ZERO,
        }
    }

    /// Self-applies an outage schedule (sorted by start time internally).
    /// Composed scenarios leave this empty and route failures through a
    /// failure-injector actor instead.
    pub fn with_outages(mut self, mut outages: Vec<Outage>) -> Self {
        outages.sort_by_key(|o| (o.fail_at, o.machine));
        self.outages = outages;
        self
    }

    /// Enables checkpoint-restart with backoff: a task killed by a machine
    /// failure re-enters the queue only after the policy's backoff delay
    /// (instead of instantly), keeps `restart.checkpoint_factor` of its
    /// progress, and is abandoned once the attempt budget is spent.
    #[must_use]
    pub fn with_restart(mut self, restart: RestartConfig) -> Self {
        // `RestartConfig` arrives unvalidated: clamp into [0, 1], NaN to 0.
        let factor = restart.checkpoint_factor;
        self.checkpoint_factor = if factor.is_nan() { 0.0 } else { factor.clamp(0.0, 1.0) };
        self.restart = Some(restart);
        self
    }

    /// Routes checkpoint-restore images over the network model: the backoff
    /// draw still happens (so RNG streams stay aligned with legacy runs),
    /// but the requeue is delivered by the restore transfer's completion
    /// instead of the drawn delay. See [`CheckpointHook`].
    #[must_use]
    pub fn with_checkpoint_hook(
        mut self,
        hook: impl FnMut(&mut Context<'_, M>, usize, u32) + 'a,
    ) -> Self {
        self.checkpoint_hook = Some(Box::new(hook));
        self
    }

    /// Consults `selector` every `interval` of virtual time.
    pub fn with_selector(
        mut self,
        selector: &'a mut PortfolioSelector,
        interval: SimDuration,
    ) -> Self {
        self.selector = Some((selector, interval));
        self
    }

    /// The measured outcome; call after the simulation has run (consumes
    /// the completion log).
    pub fn outcome(&mut self) -> ScheduleOutcome {
        let end = self.last_finish;
        let unfinished = self
            .flat
            .iter()
            .enumerate()
            .filter(|(i, t)| !t.done && !self.rejected.contains(i))
            .count();
        ScheduleOutcome {
            makespan: end.saturating_since(SimTime::ZERO),
            mean_utilization: self.util.average_until(end.max(SimTime::from_nanos(1))),
            mean_queue_length: self.qlen.average_until(end.max(SimTime::from_nanos(1))),
            peak_queue_length: self.qlen.peak(),
            deadline_misses: self.deadline_misses,
            failure_requeues: self.failure_requeues,
            rejected: self.rejected.len(),
            abandoned: self.abandoned.len(),
            unfinished,
            completions: std::mem::take(&mut self.completions),
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        for (j, job) in self.jobs.iter().enumerate() {
            ctx.send_at(ctx.self_id(), job.submit, M::wrap(RmsMsg::JobArrival(j)));
        }
        self.arm_next_outage(ctx);
        if let Some((_, interval)) = &self.selector {
            let first = SimTime::ZERO + *interval;
            if first <= self.horizon {
                ctx.send_at(ctx.self_id(), first, M::wrap(RmsMsg::PolicyTick));
            }
        }
    }

    /// Schedules the outage at the cursor, if any starts before the horizon.
    fn arm_next_outage(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(o) = self.outages.get(self.next_outage) {
            if o.fail_at < self.horizon {
                ctx.send_at(ctx.self_id(), o.fail_at, M::wrap(RmsMsg::NextOutage));
            }
        }
    }

    fn on_next_outage(&mut self, ctx: &mut Context<'_, M>) {
        let o = self.outages[self.next_outage];
        self.next_outage += 1;
        self.machine_fail(ctx, o.machine as u32);
        ctx.send_at(
            ctx.self_id(),
            o.repair_at.min(self.horizon),
            M::wrap(RmsMsg::MachineRepair(o.machine as u32)),
        );
        self.arm_next_outage(ctx);
    }

    fn on_job_arrival(&mut self, ctx: &mut Context<'_, M>, j: usize) {
        let now = ctx.now();
        ctx.emit_fields("rms", "job_arrival", &[("job", Field::U64(j as u64))]);
        let task_ids: Vec<TaskId> = self.jobs[j].tasks.iter().map(|t| t.id).collect();
        for tid in task_ids {
            let ti = self.index[&tid];
            if self.flat[ti].deps_left == 0 {
                self.make_ready(ctx, ti, now);
            }
        }
    }

    /// Queues a dependency-free task, or rejects it if infeasible.
    fn make_ready(
        &mut self,
        ctx: &mut Context<'_, M>,
        ti: usize,
        now: SimTime,
    ) {
        if self.flat[ti].feasible {
            self.queue.push(PendingTask { task_idx: ti, ready_at: now });
            self.queue_dirty = true;
        } else {
            self.rejected.insert(ti);
            ctx.emit_fields("rms", "task_reject", &[("task", Field::U64(self.flat[ti].id.0))]);
        }
    }

    fn on_task_finish(
        &mut self,
        ctx: &mut Context<'_, M>,
        task_idx: usize,
        g: u32,
    ) {
        if self.generation[task_idx] != g {
            return; // stale: the task was killed and requeued
        }
        let Some(rt) = self.running.remove(&task_idx) else { return };
        let now = ctx.now();
        self.on_machine.entry(rt.machine.0).or_default().remove(&task_idx);
        self.cluster.machine_mut(rt.machine).release(&rt.req);
        self.used_cores -= rt.req.cpu_cores;
        self.util.set(now, self.used_cores / self.core_capacity);
        let ft = &mut self.flat[task_idx];
        ft.done = true;
        ft.demand_left = 0.0;
        self.last_finish = self.last_finish.max(now);
        let comp = TaskCompletion {
            task: ft.id,
            job: self.jobs[ft.job_idx].id,
            submit: ft.submit,
            start: rt.started,
            finish: now,
        };
        let mut missed = false;
        if let Some(dl) = ft.deadline {
            if comp.response_time() > dl {
                self.deadline_misses += 1;
                missed = true;
            }
        }
        ctx.emit_fields(
            "rms",
            "task_finish",
            &[
                ("task", Field::U64(comp.task.0)),
                ("wait_secs", Field::F64((comp.start - comp.submit).as_secs_f64())),
                ("response_secs", Field::F64(comp.response_time().as_secs_f64())),
                ("missed_deadline", Field::Bool(missed)),
            ],
        );
        self.completions.push(comp);
        let children = self.flat[task_idx].children.clone();
        for c in children {
            self.flat[c].deps_left -= 1;
            if self.flat[c].deps_left == 0 && !self.flat[c].done {
                self.make_ready(ctx, c, now);
            }
        }
    }

    fn machine_fail(&mut self, ctx: &mut Context<'_, M>, m: u32) {
        let mid = MachineId(m);
        if (mid.0 as usize) >= self.cluster.len() {
            return;
        }
        let now = ctx.now();
        self.cluster.machine_mut(mid).fail();
        // Kill and requeue everything that was running there.
        let mut requeued = 0u64;
        let mut lost_core_secs = 0.0_f64;
        if let Some(victims) = self.on_machine.remove(&m) {
            // Fixed kill order: backoff draws must not depend on hash order.
            let mut victims: Vec<usize> = victims.into_iter().collect();
            victims.sort_unstable();
            for ti in victims {
                if let Some(rt) = self.running.remove(&ti) {
                    self.used_cores -= rt.req.cpu_cores;
                    self.failure_requeues += 1;
                    requeued += 1;
                    self.generation[ti] += 1;
                    // Keep checkpointed progress; the rest is wasted work.
                    let elapsed_core_secs = (now - rt.started).as_secs_f64() * rt.req.cpu_cores;
                    let progressed = elapsed_core_secs * self.checkpoint_factor;
                    lost_core_secs += elapsed_core_secs - progressed;
                    self.flat[ti].demand_left = (self.flat[ti].demand_left - progressed).max(0.01);
                    match self.restart {
                        None => {
                            // Legacy behaviour: requeue instantly.
                            self.queue.push(PendingTask { task_idx: ti, ready_at: now });
                            self.queue_dirty = true;
                        }
                        Some(rc) => {
                            self.restart_attempts[ti] += 1;
                            let attempt = self.restart_attempts[ti];
                            match rc.backoff.delay_after(attempt, self.rng) {
                                Some(delay) if self.checkpoint_hook.is_none() => {
                                    ctx.emit_fields(
                                        "rms",
                                        "requeue_scheduled",
                                        &[
                                            ("task", Field::U64(self.flat[ti].id.0)),
                                            ("attempt", Field::U64(u64::from(attempt))),
                                            ("delay_secs", Field::F64(delay.as_secs_f64())),
                                        ],
                                    );
                                    ctx.send_at(
                                        ctx.self_id(),
                                        now + delay,
                                        M::wrap(RmsMsg::Requeue(ti)),
                                    );
                                }
                                Some(_) => {
                                    // Flow-level network mode: the restore
                                    // image travels the fabric, and *that*
                                    // transfer's completion delivers the
                                    // requeue — recovery time is contended
                                    // bandwidth, not a drawn constant. (The
                                    // draw above still happened, keeping
                                    // RNG streams aligned with legacy runs.)
                                    ctx.emit_fields(
                                        "rms",
                                        "checkpoint_xfer_start",
                                        &[
                                            ("task", Field::U64(self.flat[ti].id.0)),
                                            ("attempt", Field::U64(u64::from(attempt))),
                                        ],
                                    );
                                    if let Some(hook) = self.checkpoint_hook.as_mut() {
                                        hook(ctx, ti, attempt);
                                    }
                                }
                                None => {
                                    self.abandoned.insert(ti);
                                    ctx.emit_fields(
                                        "rms",
                                        "task_abandoned",
                                        &[
                                            ("task", Field::U64(self.flat[ti].id.0)),
                                            ("attempts", Field::U64(u64::from(attempt))),
                                        ],
                                    );
                                }
                            }
                        }
                    }
                }
            }
            self.util.set(now, self.used_cores / self.core_capacity);
        }
        ctx.emit_fields(
            "rms",
            "machine_fail",
            &[
                ("machine", Field::U64(u64::from(m))),
                ("requeued", Field::U64(requeued)),
                ("lost_core_secs", Field::F64(lost_core_secs)),
            ],
        );
    }

    /// Delivers a checkpoint-restart: the task re-enters the queue with its
    /// checkpointed remaining demand.
    fn on_requeue(&mut self, ctx: &mut Context<'_, M>, ti: usize) {
        let now = ctx.now();
        if self.flat[ti].done || self.abandoned.contains(&ti) {
            return;
        }
        ctx.emit_fields(
            "rms",
            "checkpoint_restore",
            &[
                ("task", Field::U64(self.flat[ti].id.0)),
                ("demand_left", Field::F64(self.flat[ti].demand_left)),
            ],
        );
        self.queue.push(PendingTask { task_idx: ti, ready_at: now });
        self.queue_dirty = true;
    }

    fn machine_repair(&mut self, ctx: &mut Context<'_, M>, m: u32) {
        let mid = MachineId(m);
        if (mid.0 as usize) < self.cluster.len() {
            self.cluster.machine_mut(mid).repair();
            ctx.emit_fields("rms", "machine_repair", &[("machine", Field::U64(u64::from(m)))]);
        }
    }

    fn on_policy_tick(&mut self, ctx: &mut Context<'_, M>) {
        let now = ctx.now();
        let Some((selector, interval)) = &mut self.selector else { return };
        // An empty queue leaves nothing to optimize: keep the configuration.
        if !self.queue.is_empty() {
            let queued: Vec<(f64, ResourceVector)> = self
                .queue
                .iter()
                .map(|p| (self.flat[p.task_idx].demand_left, self.flat[p.task_idx].req))
                .collect();
            let new_config = selector.select(now, &queued, self.cluster);
            if new_config != *self.config {
                *self.config = new_config;
                self.queue_dirty = true;
            }
        }
        ctx.emit_fields(
            "rms",
            "policy_tick",
            &[
                ("queue_policy", Field::Str(self.config.queue.name())),
                ("queued", Field::U64(self.queue.len() as u64)),
            ],
        );
        let next = now + *interval;
        if next <= self.horizon {
            ctx.send_at(ctx.self_id(), next, M::wrap(RmsMsg::PolicyTick));
        }
    }

    fn dispatch(&mut self, ctx: &mut Context<'_, M>) {
        if self.queue_dirty {
            self.sort_queue();
            self.queue_dirty = false;
        }
        let now = ctx.now();
        let mut i = 0;
        let mut head_blocked = false;
        let mut shadow: Option<SimTime> = None;
        while i < self.queue.len() {
            let ti = self.queue[i].task_idx;
            let ready_at = self.queue[i].ready_at;
            let req = self.flat[ti].req;
            if head_blocked {
                if !self.config.backfill {
                    break;
                }
                // EASY backfill: only tasks that (clairvoyantly) finish before
                // the head's earliest possible start may jump the queue.
                let Some(shadow_t) = shadow else { break };
                if self.try_place(ctx, ti, ready_at, Some(shadow_t)) {
                    self.used_cores += req.cpu_cores;
                    self.util.set(now, self.used_cores / self.core_capacity);
                    self.queue.remove(i);
                } else {
                    i += 1;
                }
                continue;
            }
            if self.try_place(ctx, ti, ready_at, None) {
                self.used_cores += req.cpu_cores;
                self.util.set(now, self.used_cores / self.core_capacity);
                self.queue.remove(i);
            } else {
                head_blocked = true;
                shadow = self.shadow_time(now, &req);
                i += 1;
            }
        }
    }

    /// Earliest instant at which `req` could start, assuming running tasks
    /// end as predicted and nothing new arrives: replay releases in end
    /// order on a copy of the availability state.
    fn shadow_time(&self, now: SimTime, req: &ResourceVector) -> Option<SimTime> {
        let mut avail: Vec<ResourceVector> =
            self.cluster.machines().iter().map(|m| m.available()).collect();
        if avail.iter().any(|a| req.fits_in(a)) {
            return Some(now);
        }
        let mut frees: Vec<(&RunningTask, usize)> =
            self.running.values().map(|rt| (rt, rt.machine.0 as usize)).collect();
        frees.sort_by_key(|(rt, _)| rt.ends);
        for (rt, m) in frees {
            avail[m] += rt.req;
            if req.fits_in(&avail[m]) {
                return Some(rt.ends);
            }
        }
        None
    }

    fn try_place(
        &mut self,
        ctx: &mut Context<'_, M>,
        ti: usize,
        ready_at: SimTime,
        must_finish_by: Option<SimTime>,
    ) -> bool {
        let now = ctx.now();
        let req = self.flat[ti].req;
        let view = task_view(&self.flat[ti], ready_at);
        let Some(mid) = self.config.select_machine(self.cluster, &view, self.rng) else {
            return false;
        };
        let machine = self.cluster.machine(mid);
        let speedup = machine.speedup_for(&req);
        let runtime = SimDuration::from_secs_f64(
            self.flat[ti].demand_left / (req.cpu_cores.max(1e-9) * speedup.max(1e-9)),
        );
        let ends = now + runtime;
        if let Some(limit) = must_finish_by {
            if ends > limit {
                return false;
            }
        }
        let ok = self.cluster.machine_mut(mid).try_allocate(&req);
        debug_assert!(ok, "allocation policy selected an infeasible machine");
        if !ok {
            return false;
        }
        let g = self.generation[ti];
        self.running.insert(ti, RunningTask { machine: mid, req, started: now, ends });
        self.on_machine.entry(mid.0).or_default().insert(ti);
        ctx.send_at(
            ctx.self_id(),
            ends,
            M::wrap(RmsMsg::TaskFinish { task_idx: ti, generation: g }),
        );
        ctx.emit_fields(
            "rms",
            "task_start",
            &[
                ("task", Field::U64(self.flat[ti].id.0)),
                ("machine", Field::U64(u64::from(mid.0))),
            ],
        );
        true
    }

    /// One sort, any policy: the per-discipline branches live behind
    /// [`SchedulingPolicy::compare`] now.
    fn sort_queue(&mut self) {
        let Self { queue, flat, config, .. } = self;
        queue.sort_by(|a, b| {
            config.compare(
                &task_view(&flat[a.task_idx], a.ready_at),
                &task_view(&flat[b.task_idx], b.ready_at),
            )
        });
    }
}

/// Projects a flattened task into the policy-facing view. Batch tasks have
/// no data home; their rank is the precedence-derived upward rank.
fn task_view(flat: &FlatTask, ready_at: SimTime) -> QueuedTaskView<'_> {
    QueuedTaskView {
        id: flat.id,
        submit: flat.submit,
        ready_at,
        demand_left: flat.demand_left,
        req: &flat.req,
        deadline: flat.deadline,
        rank: flat.rank,
        data_home: None,
    }
}

impl<M: MessageEnvelope<RmsMsg>> Actor<M> for SchedulerActor<'_, M> {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        let Some(msg) = msg.unwrap() else { return };
        match msg {
            RmsMsg::Start => self.on_start(ctx),
            RmsMsg::JobArrival(j) => self.on_job_arrival(ctx, j),
            RmsMsg::TaskFinish { task_idx, generation } => {
                self.on_task_finish(ctx, task_idx, generation)
            }
            RmsMsg::MachineFail(m) => self.machine_fail(ctx, m),
            RmsMsg::MachineRepair(m) => self.machine_repair(ctx, m),
            RmsMsg::PolicyTick => self.on_policy_tick(ctx),
            RmsMsg::NextOutage => self.on_next_outage(ctx),
            RmsMsg::Requeue(ti) => self.on_requeue(ctx, ti),
        }
        // A dispatch pass after every event, mirroring the queue-length
        // gauge at the same instant.
        self.dispatch(ctx);
        let now = ctx.now();
        self.qlen.set(now, self.queue.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_infra::cluster::ClusterId;
    use mcs_infra::machine::MachineSpec;
    use mcs_workload::task::{JobId, JobKind, Task, UserId};

    fn cluster(machines: u32, cores: f64) -> Cluster {
        Cluster::homogeneous(
            ClusterId(0),
            "test",
            MachineSpec::commodity("std", cores, cores * 4.0),
            machines,
        )
    }

    fn bag(job_id: u64, submit: u64, tasks: &[(f64, f64)]) -> Job {
        // tasks: (demand, cores)
        Job {
            id: JobId(job_id),
            user: UserId(0),
            kind: JobKind::BagOfTasks,
            submit: SimTime::from_secs(submit),
            tasks: tasks
                .iter()
                .enumerate()
                .map(|(i, &(demand, cores))| {
                    Task::independent(
                        TaskId(job_id * 1000 + i as u64),
                        JobId(job_id),
                        demand,
                        ResourceVector::new(cores, cores),
                    )
                })
                .collect(),
        }
    }

    fn run(
        cluster: Cluster,
        config: SchedulerConfig,
        jobs: Vec<Job>,
    ) -> ScheduleOutcome {
        ClusterScheduler::new(cluster, config, 1).run(jobs, SimTime::from_secs(1_000_000))
    }

    #[test]
    fn single_task_runtime_exact() {
        let out = run(cluster(1, 4.0), SchedulerConfig::default(), vec![bag(0, 0, &[(40.0, 4.0)])]);
        assert_eq!(out.completions.len(), 1);
        assert_eq!(out.makespan, SimDuration::from_secs(10));
        assert_eq!(out.unfinished, 0);
    }

    #[test]
    fn parallel_tasks_share_cluster() {
        // 4 machines x 4 cores; 4 tasks of 4 cores, 10 s each: all parallel.
        let out = run(
            cluster(4, 4.0),
            SchedulerConfig::default(),
            vec![bag(0, 0, &[(40.0, 4.0), (40.0, 4.0), (40.0, 4.0), (40.0, 4.0)])],
        );
        assert_eq!(out.makespan, SimDuration::from_secs(10));
    }

    #[test]
    fn serialization_when_cluster_too_small() {
        // 1 machine; 2 tasks that each need the whole machine: serial.
        let out = run(
            cluster(1, 4.0),
            SchedulerConfig::default(),
            vec![bag(0, 0, &[(40.0, 4.0), (40.0, 4.0)])],
        );
        assert_eq!(out.makespan, SimDuration::from_secs(20));
    }

    #[test]
    fn dependencies_respected() {
        let mut job = bag(0, 0, &[(40.0, 4.0), (40.0, 4.0)]);
        job.kind = JobKind::Workflow;
        let dep = job.tasks[0].id;
        job.tasks[1].dependencies.push(dep);
        // Plenty of machines, but the chain forces 20 s.
        let out = run(cluster(4, 4.0), SchedulerConfig::default(), vec![job]);
        assert_eq!(out.makespan, SimDuration::from_secs(20));
        let c0 = out.completions.iter().find(|c| c.task == TaskId(0)).unwrap();
        let c1 = out.completions.iter().find(|c| c.task == TaskId(1)).unwrap();
        assert!(c1.start >= c0.finish);
    }

    #[test]
    #[should_panic(expected = "duplicate task id")]
    fn duplicate_task_ids_are_rejected() {
        // Job 1's task reuses job 0's id, and would silently take over its
        // dependency edges if the index overwrote it.
        let mut clash = bag(1, 0, &[(10.0, 1.0)]);
        clash.tasks[0].id = TaskId(0);
        run(cluster(1, 4.0), SchedulerConfig::default(), vec![bag(0, 0, &[(10.0, 1.0)]), clash]);
    }

    #[test]
    fn sjf_reduces_mean_response_vs_ljf() {
        // One 1-core machine, one long and many short tasks at t=0.
        let mut tasks = vec![(1000.0, 1.0)];
        for _ in 0..10 {
            tasks.push((10.0, 1.0));
        }
        let mk = |queue| SchedulerConfig { queue, backfill: false, ..Default::default() };
        let sjf = run(cluster(1, 1.0), mk(QueuePolicy::Sjf), vec![bag(0, 0, &tasks)]);
        let ljf = run(cluster(1, 1.0), mk(QueuePolicy::Ljf), vec![bag(0, 0, &tasks)]);
        assert!(sjf.mean_response_secs() < ljf.mean_response_secs() / 2.0);
        // Same makespan either way.
        assert_eq!(sjf.makespan, ljf.makespan);
    }

    #[test]
    fn backfill_improves_utilization() {
        // Machine of 4 cores. Queue: [4-core 10 s] [4-core 10 s] [1-core 5 s].
        // FCFS w/o backfill: the 1-core task waits; with backfill it cannot
        // help here (head fits). Use a blocking pattern instead:
        // t0: 3-core 100 s running; head needs 4 cores (blocked until 100);
        // backfill candidate: 1-core 50 s fits and finishes before 100.
        let jobs = vec![
            bag(0, 0, &[(300.0, 3.0)]), // occupies 3 cores until t=100
            bag(1, 1, &[(400.0, 4.0)]), // head, blocked until t=100
            bag(2, 2, &[(50.0, 1.0)]),  // backfill candidate
        ];
        let with = run(
            cluster(1, 4.0),
            SchedulerConfig { backfill: true, queue: QueuePolicy::Fcfs, ..Default::default() },
            jobs.clone(),
        );
        let without = run(
            cluster(1, 4.0),
            SchedulerConfig { backfill: false, queue: QueuePolicy::Fcfs, ..Default::default() },
            jobs,
        );
        let bf_with = with.completions.iter().find(|c| c.job == JobId(2)).unwrap();
        let bf_without = without.completions.iter().find(|c| c.job == JobId(2)).unwrap();
        assert!(
            bf_with.finish < bf_without.finish,
            "backfill should finish the small task earlier ({} vs {})",
            bf_with.finish,
            bf_without.finish
        );
        // Backfill must not delay the blocked head.
        let head_with = with.completions.iter().find(|c| c.job == JobId(1)).unwrap();
        let head_without = without.completions.iter().find(|c| c.job == JobId(1)).unwrap();
        assert_eq!(head_with.finish, head_without.finish);
    }

    #[test]
    fn failure_requeues_task() {
        let outage = Outage {
            machine: 0,
            fail_at: SimTime::from_secs(5),
            repair_at: SimTime::from_secs(6),
        };
        let mut sched = ClusterScheduler::new(cluster(1, 4.0), SchedulerConfig::default(), 1)
            .with_outages(vec![outage]);
        let out = sched.run(vec![bag(0, 0, &[(40.0, 4.0)])], SimTime::from_secs(10_000));
        assert_eq!(out.failure_requeues, 1);
        assert_eq!(out.unfinished, 0);
        // Restarted from scratch at t=6: finishes at 16.
        assert_eq!(out.makespan, SimDuration::from_secs(16));
    }

    #[test]
    fn restart_requeues_after_backoff_not_instantly() {
        use mcs_simcore::resilience::{Backoff, RetryPolicy};

        // Factor 5.0 is clamped to 1.0, perfect checkpointing.
        for checkpoint_factor in [1.0, 5.0] {
            let outage = Outage {
                machine: 0,
                fail_at: SimTime::from_secs(5),
                repair_at: SimTime::from_secs(6),
            };
            let restart = RestartConfig {
                backoff: RetryPolicy {
                    backoff: Backoff::Fixed(SimDuration::from_secs(10)),
                    max_attempts: 4,
                },
                checkpoint_factor,
            };
            let mut cl = cluster(1, 4.0);
            let mut cfg = SchedulerConfig::default();
            let mut rng = RngStream::new(1, "scheduler");
            let horizon = SimTime::from_secs(10_000);
            let jobs = vec![bag(0, 0, &[(40.0, 4.0)])];
            let mut actor = SchedulerActor::new(&mut cl, &mut cfg, &mut rng, jobs, horizon)
                .with_outages(vec![outage])
                .with_restart(restart);
            let mut sim: Simulation<'_, RmsMsg> = Simulation::new(1);
            sim.set_horizon(horizon);
            let id = sim.add_actor(&mut actor);
            sim.schedule(SimTime::ZERO, id, RmsMsg::Start);
            sim.run();
            assert_eq!(sim.trace().count("rms", "requeue_scheduled"), 1);
            assert_eq!(sim.trace().count("rms", "checkpoint_restore"), 1);
            drop(sim);
            let out = actor.outcome();
            // Killed at 5 s with 5 s of work left (perfect checkpoint); the
            // requeue lands at 5 + 10 = 15 s, so the task finishes at 20 s —
            // not 11 s as with an instant requeue.
            assert_eq!(out.makespan, SimDuration::from_secs(20), "factor {checkpoint_factor}");
            assert_eq!(out.failure_requeues, 1);
            assert_eq!(out.abandoned, 0);
        }
    }

    #[test]
    fn restart_budget_exhaustion_abandons_the_task() {
        use mcs_simcore::resilience::{Backoff, RetryPolicy};

        // max_attempts 1: the first kill already exhausts the budget.
        let restart = RestartConfig {
            backoff: RetryPolicy {
                backoff: Backoff::Fixed(SimDuration::from_secs(1)),
                max_attempts: 1,
            },
            checkpoint_factor: 0.0,
        };
        let outage = Outage {
            machine: 0,
            fail_at: SimTime::from_secs(5),
            repair_at: SimTime::from_secs(6),
        };
        let mut cl = cluster(1, 4.0);
        let mut cfg = SchedulerConfig::default();
        let mut rng = RngStream::new(1, "scheduler");
        let horizon = SimTime::from_secs(10_000);
        let mut actor =
            SchedulerActor::new(&mut cl, &mut cfg, &mut rng, vec![bag(0, 0, &[(40.0, 4.0)])], horizon)
                .with_outages(vec![outage])
                .with_restart(restart);
        let mut sim: Simulation<'_, RmsMsg> = Simulation::new(1);
        sim.set_horizon(horizon);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, RmsMsg::Start);
        sim.run();
        assert_eq!(sim.trace().count("rms", "task_abandoned"), 1);
        assert_eq!(sim.trace().count("rms", "requeue_scheduled"), 0);
        drop(sim);
        let out = actor.outcome();
        assert_eq!(out.abandoned, 1);
        assert_eq!(out.unfinished, 1, "the abandoned task never completes");
        assert!(out.completions.is_empty());
    }

    #[test]
    fn restart_budget_spends_every_attempt_before_abandoning() {
        use mcs_simcore::resilience::{Backoff, RetryPolicy};

        // max_attempts 3 with no checkpointing: each kill restarts the task
        // from scratch after a 10 s fixed delay; the third kill exhausts the
        // budget. The 40 core-sec task runs 10 s on the 4-core machine, so
        // outages at 5, 20, and 35 s each catch it mid-run (requeues land at
        // 15 and 30 s).
        let restart = RestartConfig {
            backoff: RetryPolicy {
                backoff: Backoff::Fixed(SimDuration::from_secs(10)),
                max_attempts: 3,
            },
            checkpoint_factor: 0.0,
        };
        let outages: Vec<Outage> = [5u64, 20, 35]
            .iter()
            .map(|&s| Outage {
                machine: 0,
                fail_at: SimTime::from_secs(s),
                repair_at: SimTime::from_secs(s + 1),
            })
            .collect();
        let mut cl = cluster(1, 4.0);
        let mut cfg = SchedulerConfig::default();
        let mut rng = RngStream::new(1, "scheduler");
        let horizon = SimTime::from_secs(10_000);
        let mut actor =
            SchedulerActor::new(&mut cl, &mut cfg, &mut rng, vec![bag(0, 0, &[(40.0, 4.0)])], horizon)
                .with_outages(outages)
                .with_restart(restart);
        let mut sim: Simulation<'_, RmsMsg> = Simulation::new(1);
        sim.set_horizon(horizon);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, RmsMsg::Start);
        sim.run();

        // Attempts 1 and 2 restart; attempt 3 abandons.
        assert_eq!(sim.trace().count("rms", "requeue_scheduled"), 2);
        assert_eq!(sim.trace().count("rms", "checkpoint_restore"), 2);
        let abandoned = sim.trace().select("rms", "task_abandoned");
        assert_eq!(abandoned.len(), 1);
        assert_eq!(
            abandoned[0].field_f64("attempts"),
            Some(3.0),
            "the abandon event records the exhausted budget"
        );
        // The budget is terminal: nothing is scheduled after the abandon,
        // and the only task never finishes.
        let abandon_at = abandoned[0].at;
        for event in ["requeue_scheduled", "checkpoint_restore"] {
            for e in sim.trace().select("rms", event) {
                assert!(e.at < abandon_at, "{event} after task_abandoned");
            }
        }
        assert_eq!(sim.trace().count("rms", "task_finish"), 0);
        drop(sim);
        let out = actor.outcome();
        assert_eq!(out.failure_requeues, 3, "all three kills are counted");
        assert_eq!(out.abandoned, 1);
        assert_eq!(out.unfinished, 1, "the abandoned task is permanently failed");
        assert!(out.completions.is_empty());
    }

    #[test]
    fn portfolio_ticks_keep_the_restart_checkpoint_factor() {
        use crate::portfolio::{default_portfolio, Objective, PortfolioSelector};

        // Twenty 1000 s tasks on two 4-core machines keep the queue full, so
        // every 60 s tick adopts a portfolio candidate. The kill at 500 s
        // must still keep 90% of the 2000 core-s done by then.
        let outage = Outage {
            machine: 0,
            fail_at: SimTime::from_secs(500),
            repair_at: SimTime::from_secs(600),
        };
        let jobs = (0..20).map(|j| bag(j, 0, &[(4000.0, 4.0)])).collect();
        let mut selector = PortfolioSelector::new(default_portfolio(), Objective::Makespan, 1);
        let mut cl = cluster(2, 4.0);
        let mut cfg = SchedulerConfig::default();
        let mut rng = RngStream::new(1, "scheduler");
        let horizon = SimTime::from_secs(20_000);
        let mut actor = SchedulerActor::new(&mut cl, &mut cfg, &mut rng, jobs, horizon)
            .with_outages(vec![outage])
            .with_restart(RestartConfig::default())
            .with_selector(&mut selector, SimDuration::from_secs(60));
        let mut sim: Simulation<'_, RmsMsg> = Simulation::new(1);
        sim.set_horizon(horizon);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, RmsMsg::Start);
        sim.run();
        let restores = sim.trace().select("rms", "checkpoint_restore");
        assert_eq!(restores.len(), 1);
        assert_eq!(restores[0].field_f64("demand_left"), Some(2200.0));
        drop(sim);
        assert_eq!(actor.outcome().unfinished, 0);
        drop(actor);
        assert!(selector.decisions().len() > 100);
    }

    #[test]
    fn deadline_misses_counted() {
        let mut job = bag(0, 0, &[(40.0, 4.0), (40.0, 4.0)]);
        for t in &mut job.tasks {
            t.deadline = Some(SimDuration::from_secs(15));
        }
        // 1 machine: second task finishes at 20 > 15.
        let out = run(cluster(1, 4.0), SchedulerConfig::default(), vec![job]);
        assert_eq!(out.deadline_misses, 1);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        // One 4-core machine busy 10 of 20 s at full width.
        let jobs = vec![bag(0, 0, &[(40.0, 4.0)]), bag(1, 10, &[(0.04, 4.0)])];
        let out = run(cluster(1, 4.0), SchedulerConfig::default(), jobs);
        assert!(out.mean_utilization > 0.9, "util = {}", out.mean_utilization);
    }

    #[test]
    fn deterministic_given_seed() {
        let jobs: Vec<Job> = (0..20).map(|i| bag(i, i, &[(30.0, 2.0), (20.0, 1.0)])).collect();
        let cfg = SchedulerConfig { allocation: AllocationPolicy::Random, ..Default::default() };
        let a = ClusterScheduler::new(cluster(3, 4.0), cfg, 5)
            .run(jobs.clone(), SimTime::from_secs(100_000));
        let b = ClusterScheduler::new(cluster(3, 4.0), cfg, 5)
            .run(jobs, SimTime::from_secs(100_000));
        assert_eq!(a, b);
    }

    #[test]
    fn horizon_leaves_tasks_unfinished() {
        let out = ClusterScheduler::new(cluster(1, 1.0), SchedulerConfig::default(), 1)
            .run(vec![bag(0, 0, &[(1_000_000.0, 1.0)])], SimTime::from_secs(10));
        assert_eq!(out.unfinished, 1);
        assert!(out.completions.is_empty());
    }

    #[test]
    fn scheduler_emits_lifecycle_trace() {
        // Drive the actor through an explicit Simulation to observe the bus.
        let mut cl = cluster(1, 4.0);
        let mut cfg = SchedulerConfig::default();
        let mut rng = RngStream::new(1, "scheduler");
        let horizon = SimTime::from_secs(1_000);
        let mut actor = SchedulerActor::new(
            &mut cl,
            &mut cfg,
            &mut rng,
            vec![bag(0, 0, &[(40.0, 4.0)])],
            horizon,
        );
        let mut sim: Simulation<'_, RmsMsg> = Simulation::new(1);
        sim.set_horizon(horizon);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, RmsMsg::Start);
        sim.run();
        assert_eq!(sim.trace().count("rms", "job_arrival"), 1);
        assert_eq!(sim.trace().count("rms", "task_start"), 1);
        assert_eq!(sim.trace().count("rms", "task_finish"), 1);
        let finish = sim.trace().select("rms", "task_finish")[0];
        assert_eq!(finish.at, SimTime::from_secs(10));
        assert_eq!(finish.field_f64("response_secs"), Some(10.0));
        drop(sim);
        assert_eq!(actor.outcome().completions.len(), 1);
    }
}
