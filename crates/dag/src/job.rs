//! Workflow jobs: tasks, data-annotated edges, and validation.
//!
//! A [`DagJob`] is the GWA-style workflow unit the paper's portfolio claim
//! (Table 4) is about: tasks carrying work/cores/memory, connected by
//! precedence edges annotated with the bytes the parent must ship to the
//! child. Construction validates the structure — in-range endpoints, no
//! self-loops, acyclic (Kahn's algorithm), weakly connected — so every
//! `DagJob` in circulation is schedulable by construction.
//!
//! [`DagJob::to_job`] lowers a workflow onto the batch scheduler's
//! [`Job`], so `ClusterScheduler` and the federation run the same model.

use mcs_infra::resource::ResourceVector;
use mcs_simcore::time::SimTime;
use mcs_workload::task::{Job, JobId, JobKind, Task, TaskId, UserId};
use std::fmt;

/// One task of a workflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagTask {
    /// Total demand in core-seconds.
    pub work: f64,
    /// Cores the task occupies while running.
    pub cores: f64,
    /// Memory the task occupies while running, GiB.
    pub memory_gb: f64,
}

impl DagTask {
    /// Uncontended execution time on a unit-speed machine, seconds.
    pub fn exec_secs(&self) -> f64 {
        self.work / self.cores.max(1e-9)
    }
}

/// A precedence edge: `to` may not start before `from` finishes and its
/// `bytes` of output have arrived at `to`'s machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagEdge {
    /// Producing task index.
    pub from: usize,
    /// Consuming task index.
    pub to: usize,
    /// Data shipped along the edge.
    pub bytes: u64,
}

/// Why a task/edge set is not a valid workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagError {
    /// No tasks.
    Empty,
    /// An edge endpoint names a task outside `0..tasks.len()`.
    EdgeOutOfRange {
        /// Index of the offending edge.
        edge: usize,
    },
    /// An edge connects a task to itself.
    SelfLoop {
        /// The looping task.
        task: usize,
    },
    /// The precedence relation contains a cycle.
    Cycle,
    /// The DAG splits into disconnected components (treated as separate
    /// jobs, which the generator should have emitted separately).
    Disconnected,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Empty => write!(f, "workflow has no tasks"),
            DagError::EdgeOutOfRange { edge } => {
                write!(f, "edge {edge} references a task out of range")
            }
            DagError::SelfLoop { task } => write!(f, "task {task} depends on itself"),
            DagError::Cycle => write!(f, "precedence relation contains a cycle"),
            DagError::Disconnected => write!(f, "workflow is not weakly connected"),
        }
    }
}

impl std::error::Error for DagError {}

/// A validated workflow: acyclic, weakly connected, in-range edges.
#[derive(Debug, Clone, PartialEq)]
pub struct DagJob {
    tasks: Vec<DagTask>,
    edges: Vec<DagEdge>,
    /// Per task: indices into `edges` arriving at it.
    in_edges: Vec<Vec<usize>>,
    /// Per task: indices into `edges` leaving it.
    out_edges: Vec<Vec<usize>>,
}

impl DagJob {
    /// Builds and validates a workflow.
    pub fn new(tasks: Vec<DagTask>, edges: Vec<DagEdge>) -> Result<Self, DagError> {
        if tasks.is_empty() {
            return Err(DagError::Empty);
        }
        let n = tasks.len();
        let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            if e.from >= n || e.to >= n {
                return Err(DagError::EdgeOutOfRange { edge: i });
            }
            if e.from == e.to {
                return Err(DagError::SelfLoop { task: e.from });
            }
            out_edges[e.from].push(i);
            in_edges[e.to].push(i);
        }
        let job = DagJob { tasks, edges, in_edges, out_edges };
        if job.kahn_order().is_none() {
            return Err(DagError::Cycle);
        }
        if !job.weakly_connected() {
            return Err(DagError::Disconnected);
        }
        Ok(job)
    }

    /// The tasks, by index.
    pub fn tasks(&self) -> &[DagTask] {
        &self.tasks
    }

    /// The edges, by index.
    pub fn edges(&self) -> &[DagEdge] {
        &self.edges
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always false: an empty task set fails validation.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Edge indices arriving at `task`.
    pub fn in_edges(&self, task: usize) -> &[usize] {
        &self.in_edges[task]
    }

    /// Edge indices leaving `task`.
    pub fn out_edges(&self, task: usize) -> &[usize] {
        &self.out_edges[task]
    }

    /// Total bytes crossing edges.
    pub fn total_edge_bytes(&self) -> u64 {
        self.edges.iter().map(|e| e.bytes).sum()
    }

    /// Kahn's algorithm; `None` on a cycle. Ties resolve in index order, so
    /// the order is deterministic.
    fn kahn_order(&self) -> Option<Vec<usize>> {
        let n = self.tasks.len();
        let mut indeg: Vec<usize> = (0..n).map(|t| self.in_edges[t].len()).collect();
        let mut order = Vec::with_capacity(n);
        let mut frontier: Vec<usize> = (0..n).filter(|&t| indeg[t] == 0).collect();
        while let Some(t) = frontier.pop() {
            order.push(t);
            for &ei in &self.out_edges[t] {
                let c = self.edges[ei].to;
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    frontier.push(c);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// A topological order of the task indices.
    pub fn topo_order(&self) -> Vec<usize> {
        self.kahn_order().expect("validated DAG cannot have a cycle")
    }

    fn weakly_connected(&self) -> bool {
        let n = self.tasks.len();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(t) = stack.pop() {
            let neighbours = self
                .out_edges[t]
                .iter()
                .map(|&ei| self.edges[ei].to)
                .chain(self.in_edges[t].iter().map(|&ei| self.edges[ei].from));
            for nb in neighbours {
                if !seen[nb] {
                    seen[nb] = true;
                    count += 1;
                    stack.push(nb);
                }
            }
        }
        count == n
    }

    /// Upward ranks at a reference bandwidth (bytes/second): a task's rank
    /// is its execution time plus the largest `(edge transfer + child
    /// rank)` over its out-edges — the classic HEFT priority. Parents
    /// strictly outrank their children.
    pub fn upward_ranks(&self, ref_bandwidth: f64) -> Vec<f64> {
        let bw = ref_bandwidth.max(1e-9);
        let mut rank = vec![0.0f64; self.tasks.len()];
        for &t in self.topo_order().iter().rev() {
            let downstream = self.out_edges[t]
                .iter()
                .map(|&ei| {
                    let e = &self.edges[ei];
                    e.bytes as f64 / bw + rank[e.to]
                })
                .fold(0.0, f64::max);
            rank[t] = self.tasks[t].exec_secs() + downstream;
        }
        rank
    }

    /// Length of the critical path (compute + reference-bandwidth
    /// transfers), seconds: the best possible makespan on infinite
    /// uncontended machines.
    pub fn critical_path_secs(&self, ref_bandwidth: f64) -> f64 {
        self.upward_ranks(ref_bandwidth).into_iter().fold(0.0, f64::max)
    }

    /// Lowers the workflow to a batch [`Job`] of kind
    /// [`JobKind::Workflow`]: task `i` becomes `TaskId((id << 32) | i)`, so
    /// ids stay unique across a workload of lowered jobs, and depends on
    /// the sources of its in-edges. Edge bytes are dropped — the batch
    /// scheduler has no network.
    pub fn to_job(&self, id: JobId, user: UserId, submit: SimTime) -> Job {
        let task_id = |i: usize| TaskId((id.0 << 32) | i as u64);
        let tasks = self
            .tasks
            .iter()
            .zip(&self.in_edges)
            .enumerate()
            .map(|(i, (t, ins))| Task {
                id: task_id(i),
                job: id,
                demand_core_seconds: t.work,
                req: ResourceVector::new(t.cores, t.memory_gb),
                dependencies: ins.iter().map(|&e| task_id(self.edges[e].from)).collect(),
                deadline: None,
            })
            .collect();
        Job { id, user, kind: JobKind::Workflow, submit, tasks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(work: f64) -> DagTask {
        DagTask { work, cores: 1.0, memory_gb: 1.0 }
    }

    fn edge(from: usize, to: usize, bytes: u64) -> DagEdge {
        DagEdge { from, to, bytes }
    }

    #[test]
    fn diamond_validates_and_ranks() {
        // 0 -> {1, 2} -> 3, unit bandwidth so bytes are seconds.
        let dag = DagJob::new(
            vec![task(10.0), task(20.0), task(5.0), task(10.0)],
            vec![edge(0, 1, 4), edge(0, 2, 4), edge(1, 3, 2), edge(2, 3, 2)],
        )
        .unwrap();
        let ranks = dag.upward_ranks(1.0);
        // rank(3)=10, rank(1)=20+2+10=32, rank(2)=5+2+10=17, rank(0)=10+4+32=46.
        assert_eq!(ranks, vec![46.0, 32.0, 17.0, 10.0]);
        assert_eq!(dag.critical_path_secs(1.0), 46.0);
        assert_eq!(dag.total_edge_bytes(), 12);
    }

    #[test]
    fn parents_outrank_children() {
        let dag = DagJob::new(
            vec![task(1.0), task(1.0), task(1.0)],
            vec![edge(0, 1, 0), edge(1, 2, 0)],
        )
        .unwrap();
        let ranks = dag.upward_ranks(1e6);
        for e in dag.edges() {
            assert!(ranks[e.from] > ranks[e.to]);
        }
    }

    #[test]
    fn invalid_structures_rejected() {
        assert_eq!(DagJob::new(vec![], vec![]), Err(DagError::Empty));
        assert_eq!(
            DagJob::new(vec![task(1.0)], vec![edge(0, 5, 0)]),
            Err(DagError::EdgeOutOfRange { edge: 0 })
        );
        assert_eq!(
            DagJob::new(vec![task(1.0)], vec![edge(0, 0, 0)]),
            Err(DagError::SelfLoop { task: 0 })
        );
        assert_eq!(
            DagJob::new(
                vec![task(1.0), task(1.0)],
                vec![edge(0, 1, 0), edge(1, 0, 0)]
            ),
            Err(DagError::Cycle)
        );
        assert_eq!(
            DagJob::new(vec![task(1.0), task(1.0)], vec![]),
            Err(DagError::Disconnected)
        );
    }

    #[test]
    fn to_job_lowers_every_class() {
        use crate::generate::{generate, DagClass, DagShape};
        use mcs_simcore::rng::RngStream;
        let shape = DagShape { width: 5, work: 100.0, cores: 2.0, memory_gb: 4.0, edge_bytes: 1 };
        for class in DagClass::ALL {
            let mut rng = RngStream::new(3, "to-job");
            let dag = generate(class, &shape, &mut rng);
            let jobs: Vec<Job> = (0..2)
                .map(|j| dag.to_job(JobId(j), UserId(7), SimTime::from_secs(j)))
                .collect();
            for job in &jobs {
                assert_eq!(job.kind, JobKind::Workflow);
                let deps: usize = job.tasks.iter().map(|t| t.dependencies.len()).sum();
                assert_eq!(deps, dag.edges().len(), "{}", class.name());
                for e in dag.edges() {
                    assert!(job.tasks[e.to].dependencies.contains(&job.tasks[e.from].id));
                }
                for (t, d) in job.tasks.iter().zip(dag.tasks()) {
                    assert_eq!(t.job, job.id);
                    assert_eq!(t.demand_core_seconds, d.work);
                    assert_eq!((t.req.cpu_cores, t.req.memory_gb), (d.cores, d.memory_gb));
                }
            }
            let mut ids: Vec<TaskId> =
                jobs.iter().flat_map(|j| j.tasks.iter().map(|t| t.id)).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 2 * dag.len(), "{}", class.name());
        }
    }

    #[test]
    fn topo_order_respects_edges() {
        let dag = DagJob::new(
            vec![task(1.0); 5],
            vec![edge(0, 2, 0), edge(1, 2, 0), edge(2, 3, 0), edge(2, 4, 0)],
        )
        .unwrap();
        let order = dag.topo_order();
        let pos: Vec<usize> =
            (0..5).map(|t| order.iter().position(|&x| x == t).unwrap()).collect();
        for e in dag.edges() {
            assert!(pos[e.from] < pos[e.to]);
        }
    }
}
