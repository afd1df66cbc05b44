//! Per-class portfolio scheduling for workflows.
//!
//! The paper's portfolio approach (C6, approach iv) applied to DAGs: keep a
//! portfolio of scheduling policies, forward-simulate each candidate on the
//! workflow, and run the winner. [`lookahead_makespan`] is the simulator —
//! a pure, engine-free list scheduler over an idle cluster at reference
//! bandwidth (contention-free, like every practical lookahead) — and
//! [`DagPortfolio`] picks with the batch scheduler's [`Portfolio`] rule,
//! caching one decision per [`DagClass`], since jobs of a class share their
//! shape and the first lookahead answers for all.

use crate::generate::DagClass;
use crate::job::DagJob;
use mcs_infra::cluster::{Cluster, ClusterId};
use mcs_infra::machine::{MachineId, MachineSpec};
use mcs_infra::resource::ResourceVector;
use mcs_rms::policy::{
    GreedyReadyPolicy, HeftPolicy, LocalityFirstPolicy, QueuedTaskView, SchedulingPolicy,
};
use mcs_rms::portfolio::Portfolio;
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::{SimDuration, SimTime};
use mcs_workload::task::TaskId;
use std::collections::HashMap;

/// The cluster the lookahead (and the DAG driver) schedules onto.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagClusterSpec {
    /// Number of machines (one per fabric node).
    pub machines: u32,
    /// Cores per machine.
    pub cores_per_machine: f64,
    /// Memory per machine, GiB.
    pub memory_per_machine_gb: f64,
}

impl DagClusterSpec {
    /// Materializes an idle cluster of this shape.
    pub fn build(&self, name: &str) -> Cluster {
        Cluster::homogeneous(
            ClusterId(0),
            name,
            MachineSpec::commodity(
                "dag-node",
                self.cores_per_machine,
                self.memory_per_machine_gb,
            ),
            self.machines.max(1),
        )
    }
}

/// Predicted makespan of `dag` under `policy` on an idle cluster, seconds.
///
/// List-schedules the whole workflow: ready tasks are ordered by the
/// policy's `compare`, placed by its `select_machine`, charged their
/// cross-machine input transfers at `ref_bandwidth`, and released on
/// completion. Returns `f64::INFINITY` when some task can never be placed.
pub fn lookahead_makespan(
    dag: &DagJob,
    cluster_spec: &DagClusterSpec,
    ref_bandwidth: f64,
    policy: &dyn SchedulingPolicy,
) -> f64 {
    let mut cluster = cluster_spec.build("dag-lookahead");
    let mut rng = RngStream::new(0x5EED, "dag-lookahead");
    let bw = ref_bandwidth.max(1e-9);
    let n = dag.len();
    let ranks = dag.upward_ranks(bw);
    let reqs: Vec<ResourceVector> =
        dag.tasks().iter().map(|t| ResourceVector::new(t.cores, t.memory_gb)).collect();
    let mut deps_left: Vec<usize> = (0..n).map(|t| dag.in_edges(t).len()).collect();
    let mut placed_on: Vec<Option<MachineId>> = vec![None; n];
    let mut ready: Vec<LookaheadTask> = (0..n)
        .filter(|&t| deps_left[t] == 0)
        .map(|t| LookaheadTask { task: t, ready_at: 0.0, data_home: None })
        .collect();
    let mut running: Vec<(f64, usize, MachineId)> = Vec::new();
    let mut now = 0.0f64;
    let mut makespan = 0.0f64;
    let mut done = 0usize;
    while done < n {
        // Placement pass in policy order.
        let view = |r: &LookaheadTask| r.view(dag, &reqs, &ranks);
        ready.sort_by(|a, b| policy.compare(&view(a), &view(b)));
        let mut pass = PlacementPass::default();
        ready.retain(|r| {
            let t = r.task;
            let Some(mid) = pass.place(policy, &mut cluster, &view(r), &mut rng) else {
                return true;
            };
            let xfer = dag
                .in_edges(t)
                .iter()
                .map(|&ei| {
                    let e = &dag.edges()[ei];
                    if placed_on[e.from] == Some(mid) {
                        0.0
                    } else {
                        e.bytes as f64 / bw
                    }
                })
                .fold(0.0, f64::max);
            let speed = cluster.machine(mid).speedup_for(&reqs[t]).max(1e-9);
            let exec = dag.tasks()[t].work / (reqs[t].cpu_cores.max(1e-9) * speed);
            placed_on[t] = Some(mid);
            running.push((now.max(r.ready_at) + xfer + exec, t, mid));
            false
        });
        if running.is_empty() {
            return f64::INFINITY; // some ready task can never be placed
        }
        // Advance to the earliest completion (ties break on task index).
        let next = running
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            })
            .map(|(i, _)| i)
            .expect("running set is non-empty");
        let (end, t, mid) = running.remove(next);
        now = end;
        makespan = makespan.max(end);
        cluster.machine_mut(mid).release(&reqs[t]);
        done += 1;
        for &ei in dag.out_edges(t) {
            let c = dag.edges()[ei].to;
            deps_left[c] -= 1;
            if deps_left[c] == 0 {
                let data_home = data_home(dag, &placed_on, c);
                ready.push(LookaheadTask { task: c, ready_at: now, data_home });
            }
        }
    }
    makespan
}

/// One ready task of the lookahead, its `data_home` fixed on arrival:
/// every parent is placed by then.
struct LookaheadTask {
    task: usize,
    ready_at: f64,
    data_home: Option<u32>,
}

impl LookaheadTask {
    fn view<'a>(
        &self,
        dag: &DagJob,
        reqs: &'a [ResourceVector],
        ranks: &[f64],
    ) -> QueuedTaskView<'a> {
        let t = self.task;
        QueuedTaskView {
            id: TaskId(t as u64),
            submit: SimTime::ZERO,
            ready_at: SimTime::ZERO + SimDuration::from_secs_f64(self.ready_at.max(0.0)),
            demand_left: dag.tasks()[t].work,
            req: &reqs[t],
            deadline: None,
            rank: ranks[t],
            data_home: self.data_home,
        }
    }
}

/// The node holding the task's largest input: the placed parent with the
/// heaviest in-edge (ties go to the lowest edge index).
pub fn data_home(dag: &DagJob, placed_on: &[Option<MachineId>], task: usize) -> Option<u32> {
    dag.in_edges(task)
        .iter()
        .filter_map(|&ei| {
            let e = &dag.edges()[ei];
            placed_on[e.from].map(|mid| (e.bytes, std::cmp::Reverse(ei), mid))
        })
        .max()
        .map(|(_, _, mid)| mid.0)
}

/// One placement pass over a ready queue, shared by the lookahead and
/// [`DagActor`](crate::actor::DagActor) so the skip rule lives in one place.
///
/// The pass remembers every request that found no machine. Within a pass
/// the cluster only loses capacity, so a later request at least as large
/// in every dimension cannot fit either, and by the
/// [`SchedulingPolicy::select_machine`] contract probing it would return
/// `None` and draw nothing: skipping the probe is exact, whichever policy
/// would have made it. The comparison is exact too, with no `fits_in`
/// epsilon, and a request is remembered only when no machine was offered,
/// never when the offered machine's allocation failed.
#[derive(Default)]
pub(crate) struct PlacementPass {
    blocked: Vec<ResourceVector>,
}

impl PlacementPass {
    /// Places `task` where `policy` chooses and allocates its request
    /// there; `None` when it does not fit now.
    pub(crate) fn place(
        &mut self,
        policy: &dyn SchedulingPolicy,
        cluster: &mut Cluster,
        task: &QueuedTaskView<'_>,
        rng: &mut RngStream,
    ) -> Option<MachineId> {
        let req = task.req;
        if self.blocked.iter().any(|b| at_least(req, b)) {
            debug_assert!(
                {
                    let mut probe = rng.clone();
                    policy.select_machine(cluster, task, &mut probe).is_none()
                        && probe.next_u64() == rng.clone().next_u64()
                },
                "{} placed or drew for a request a smaller one could not fit",
                policy.name()
            );
            return None;
        }
        match policy.select_machine(cluster, task, rng) {
            Some(mid) => cluster.machine_mut(mid).try_allocate(req).then_some(mid),
            None => {
                self.blocked.push(*req);
                None
            }
        }
    }
}

/// Whether `a` asks for at least as much as `b` in every dimension.
fn at_least(a: &ResourceVector, b: &ResourceVector) -> bool {
    a.cpu_cores >= b.cpu_cores
        && a.memory_gb >= b.memory_gb
        && a.accelerators >= b.accelerators
        && a.storage_gb >= b.storage_gb
        && a.network_gbps >= b.network_gbps
}

/// Simulate-ahead portfolio over workflow scheduling policies, one cached
/// decision per workflow class.
pub struct DagPortfolio {
    portfolio: Portfolio<Box<dyn SchedulingPolicy>>,
    chosen: HashMap<DagClass, usize>,
}

impl DagPortfolio {
    /// The standard portfolio: HEFT, greedy ready-task, locality-first.
    pub fn standard(nodes_per_rack: u32) -> Self {
        DagPortfolio::new(vec![
            Box::new(HeftPolicy),
            Box::new(GreedyReadyPolicy),
            Box::new(LocalityFirstPolicy { nodes_per_rack }),
        ])
    }

    /// A portfolio over arbitrary candidates.
    ///
    /// # Panics
    /// Panics when `candidates` is empty.
    pub fn new(candidates: Vec<Box<dyn SchedulingPolicy>>) -> Self {
        DagPortfolio { portfolio: Portfolio::new(candidates), chosen: HashMap::new() }
    }

    /// The candidate policies.
    pub fn candidates(&self) -> &[Box<dyn SchedulingPolicy>] {
        self.portfolio.candidates()
    }

    /// Index into [`DagPortfolio::candidates`] of the policy for `dag` of
    /// `class`: the first job of a class pays one lookahead per candidate;
    /// subsequent jobs reuse the cached winner.
    pub fn choose(
        &mut self,
        class: DagClass,
        dag: &DagJob,
        cluster_spec: &DagClusterSpec,
        ref_bandwidth: f64,
    ) -> usize {
        let portfolio = &self.portfolio;
        *self.chosen.entry(class).or_insert_with(|| {
            portfolio.best(|policy| {
                lookahead_makespan(dag, cluster_spec, ref_bandwidth, policy.as_ref())
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, DagShape};

    fn spec() -> DagClusterSpec {
        DagClusterSpec { machines: 8, cores_per_machine: 8.0, memory_per_machine_gb: 32.0 }
    }

    fn shape() -> DagShape {
        DagShape { width: 6, work: 120.0, cores: 2.0, memory_gb: 4.0, edge_bytes: 32 << 20 }
    }

    #[test]
    fn lookahead_bounds_below_by_critical_path() {
        let mut rng = RngStream::new(11, "dag-gen");
        let bw = 100.0 * 1024.0 * 1024.0;
        for class in DagClass::ALL {
            let dag = generate(class, &shape(), &mut rng);
            // Co-located tasks skip their transfers, so the compute-only
            // critical path (infinite bandwidth) is the valid lower bound.
            let cp = dag.critical_path_secs(f64::INFINITY);
            for policy in [&HeftPolicy as &dyn SchedulingPolicy, &GreedyReadyPolicy] {
                let m = lookahead_makespan(&dag, &spec(), bw, policy);
                assert!(m.is_finite());
                assert!(m >= cp - 1e-9, "{}: {m} < critical path {cp}", class.name());
            }
        }
    }

    #[test]
    fn infeasible_task_yields_infinite_makespan() {
        let dag = crate::job::DagJob::new(
            vec![
                crate::job::DagTask { work: 10.0, cores: 64.0, memory_gb: 1.0 },
                crate::job::DagTask { work: 10.0, cores: 1.0, memory_gb: 1.0 },
            ],
            vec![crate::job::DagEdge { from: 0, to: 1, bytes: 0 }],
        )
        .unwrap();
        let m = lookahead_makespan(&dag, &spec(), 1e6, &HeftPolicy);
        assert!(m.is_infinite());
    }

    #[test]
    fn portfolio_caches_per_class() {
        let mut rng = RngStream::new(3, "dag-gen");
        let bw = 100.0 * 1024.0 * 1024.0;
        let mut p = DagPortfolio::standard(8);
        let a = generate(DagClass::Montage, &shape(), &mut rng);
        let b = generate(DagClass::Montage, &shape(), &mut rng);
        let first = p.choose(DagClass::Montage, &a, &spec(), bw);
        let second = p.choose(DagClass::Montage, &b, &spec(), bw);
        assert_eq!(first, second);
        assert_eq!(p.chosen.len(), 1, "one lookahead per class");
    }
}
