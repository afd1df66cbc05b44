//! Deterministic workflow generators for the canonical science shapes.
//!
//! Four classes, mirroring the workloads the Grid Workloads Archive and the
//! workflow-simulation literature lean on: plain chains, fork-join bags,
//! Montage-like layered mosaics (wide projection layer, pairwise overlap
//! diffs, a background fit, per-tile correction, one co-add), and LIGO-like
//! inspiral pipelines (parallel match-filter chains between a split and a
//! coincidence merge). All randomness comes from the caller's
//! [`RngStream`], so a `(seed, class, parameters)` triple always produces
//! the identical [`DagJob`]. [`poisson_workflows`] strings them into an
//! open arrival stream.

use crate::job::{DagEdge, DagJob, DagTask};
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::SimTime;
use mcs_workload::arrival::{ArrivalProcess, Poisson};

/// The workflow classes the generators cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DagClass {
    /// A linear chain of dependent tasks.
    Chain,
    /// One source fanning out to a bag, joined by one sink.
    ForkJoin,
    /// Montage-like layered mosaic pipeline.
    Montage,
    /// LIGO-like parallel inspiral chains between split and merge.
    Ligo,
}

impl DagClass {
    /// All classes, for sweeps and mixed-class workloads.
    pub const ALL: [DagClass; 4] =
        [DagClass::Chain, DagClass::ForkJoin, DagClass::Montage, DagClass::Ligo];

    /// A short stable name for reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            DagClass::Chain => "chain",
            DagClass::ForkJoin => "fork-join",
            DagClass::Montage => "montage",
            DagClass::Ligo => "ligo",
        }
    }
}

/// Shape parameters shared by every generator: per-task work and footprint
/// are jittered uniformly in `[0.5, 1.5]` × the base value, edge payloads
/// in `[0.5, 1.5]` × `edge_bytes`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagShape {
    /// Parallel width (chain length for [`DagClass::Chain`]).
    pub width: usize,
    /// Base per-task demand, core-seconds.
    pub work: f64,
    /// Cores per task.
    pub cores: f64,
    /// Memory per task, GiB.
    pub memory_gb: f64,
    /// Base bytes per edge.
    pub edge_bytes: u64,
}

impl DagShape {
    fn task(&self, rng: &mut RngStream) -> DagTask {
        DagTask {
            work: self.work * rng.uniform_f64(0.5, 1.5),
            cores: self.cores,
            memory_gb: self.memory_gb,
        }
    }

    fn bytes(&self, rng: &mut RngStream) -> u64 {
        (self.edge_bytes as f64 * rng.uniform_f64(0.5, 1.5)) as u64
    }
}

/// Generates one workflow of `class`. Panics never: every shape the
/// generators emit passes [`DagJob::new`] validation by construction.
pub fn generate(class: DagClass, shape: &DagShape, rng: &mut RngStream) -> DagJob {
    let dag = match class {
        DagClass::Chain => chain(shape, rng),
        DagClass::ForkJoin => fork_join(shape, rng),
        DagClass::Montage => montage_like(shape, rng),
        DagClass::Ligo => ligo_like(shape, rng),
    };
    dag.expect("generator emitted an invalid DAG")
}

/// Workflows arriving as a Poisson process at `rate` per second in
/// `[0, horizon)`, at most `max`, cycling [`DagClass::ALL`]: `(submit,
/// workflow)` pairs in submission order. Arrival gaps and workflows draw
/// from the one `rng`, so a `(seed, rate, shape)` triple is the stream.
pub fn poisson_workflows(
    rate: f64,
    shape: &DagShape,
    horizon: SimTime,
    max: usize,
    rng: &mut RngStream,
) -> Vec<(SimTime, DagJob)> {
    let mut arrivals = Poisson::new(rate);
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    while out.len() < max {
        let Some(at) = arrivals.next_after(now, rng) else { break };
        if at >= horizon {
            break;
        }
        now = at;
        let class = DagClass::ALL[out.len() % DagClass::ALL.len()];
        out.push((at, generate(class, shape, rng)));
    }
    out
}

fn chain(shape: &DagShape, rng: &mut RngStream) -> Result<DagJob, crate::job::DagError> {
    let n = shape.width.max(1);
    let tasks: Vec<DagTask> = (0..n).map(|_| shape.task(rng)).collect();
    let edges: Vec<DagEdge> = (1..n)
        .map(|i| DagEdge { from: i - 1, to: i, bytes: shape.bytes(rng) })
        .collect();
    DagJob::new(tasks, edges)
}

fn fork_join(shape: &DagShape, rng: &mut RngStream) -> Result<DagJob, crate::job::DagError> {
    let w = shape.width.max(1);
    // Task 0 = source, 1..=w = bag, w+1 = sink.
    let tasks: Vec<DagTask> = (0..w + 2).map(|_| shape.task(rng)).collect();
    let mut edges = Vec::with_capacity(2 * w);
    for i in 1..=w {
        edges.push(DagEdge { from: 0, to: i, bytes: shape.bytes(rng) });
        edges.push(DagEdge { from: i, to: w + 1, bytes: shape.bytes(rng) });
    }
    DagJob::new(tasks, edges)
}

/// Montage-like: `w` projection tasks, `w-1` pairwise overlap diffs, one
/// background model fed by every diff, `w` per-tile corrections, one
/// final co-add.
fn montage_like(shape: &DagShape, rng: &mut RngStream) -> Result<DagJob, crate::job::DagError> {
    let w = shape.width.max(2);
    let mut tasks: Vec<DagTask> = Vec::new();
    let mut edges: Vec<DagEdge> = Vec::new();
    let project: Vec<usize> = (0..w).map(|_| push(&mut tasks, shape.task(rng))).collect();
    let diffs: Vec<usize> = (0..w - 1)
        .map(|i| {
            let d = push(&mut tasks, shape.task(rng));
            edges.push(DagEdge { from: project[i], to: d, bytes: shape.bytes(rng) });
            edges.push(DagEdge { from: project[i + 1], to: d, bytes: shape.bytes(rng) });
            d
        })
        .collect();
    let model = push(&mut tasks, shape.task(rng));
    for &d in &diffs {
        edges.push(DagEdge { from: d, to: model, bytes: shape.bytes(rng) });
    }
    let correct: Vec<usize> = (0..w)
        .map(|i| {
            let c = push(&mut tasks, shape.task(rng));
            edges.push(DagEdge { from: model, to: c, bytes: shape.bytes(rng) });
            edges.push(DagEdge { from: project[i], to: c, bytes: shape.bytes(rng) });
            c
        })
        .collect();
    let coadd = push(&mut tasks, shape.task(rng));
    for &c in &correct {
        edges.push(DagEdge { from: c, to: coadd, bytes: shape.bytes(rng) });
    }
    DagJob::new(tasks, edges)
}

/// LIGO-like: a split task fans out to `w` three-stage match-filter chains
/// that a coincidence task merges.
fn ligo_like(shape: &DagShape, rng: &mut RngStream) -> Result<DagJob, crate::job::DagError> {
    let w = shape.width.max(1);
    let mut tasks: Vec<DagTask> = Vec::new();
    let mut edges: Vec<DagEdge> = Vec::new();
    let split = push(&mut tasks, shape.task(rng));
    let mut chain_tails = Vec::with_capacity(w);
    for _ in 0..w {
        let mut prev = split;
        for _ in 0..3 {
            let t = push(&mut tasks, shape.task(rng));
            edges.push(DagEdge { from: prev, to: t, bytes: shape.bytes(rng) });
            prev = t;
        }
        chain_tails.push(prev);
    }
    let merge = push(&mut tasks, shape.task(rng));
    for &t in &chain_tails {
        edges.push(DagEdge { from: t, to: merge, bytes: shape.bytes(rng) });
    }
    DagJob::new(tasks, edges)
}

fn push(tasks: &mut Vec<DagTask>, t: DagTask) -> usize {
    tasks.push(t);
    tasks.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> DagShape {
        DagShape { width: 5, work: 100.0, cores: 2.0, memory_gb: 4.0, edge_bytes: 1 << 20 }
    }

    #[test]
    fn all_classes_generate_valid_dags() {
        for class in DagClass::ALL {
            let mut rng = RngStream::new(7, "dag-gen");
            let dag = generate(class, &shape(), &mut rng);
            assert!(!dag.is_empty(), "{} is empty", class.name());
            // Validation already ran in DagJob::new; spot-check shape sizes.
            match class {
                DagClass::Chain => assert_eq!(dag.len(), 5),
                DagClass::ForkJoin => assert_eq!(dag.len(), 7),
                DagClass::Montage => assert_eq!(dag.len(), 5 + 4 + 1 + 5 + 1),
                DagClass::Ligo => assert_eq!(dag.len(), 1 + 15 + 1),
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for class in DagClass::ALL {
            let mut a = RngStream::new(42, "dag-gen");
            let mut b = RngStream::new(42, "dag-gen");
            assert_eq!(generate(class, &shape(), &mut a), generate(class, &shape(), &mut b));
            let mut c = RngStream::new(43, "dag-gen");
            assert_ne!(
                generate(class, &shape(), &mut c).tasks()[0].work,
                generate(class, &shape(), &mut a).tasks()[0].work,
            );
        }
    }

    #[test]
    fn poisson_workflows_cycle_classes_within_the_horizon() {
        let mut rng = RngStream::new(5, "dag-stream");
        let horizon = SimTime::from_secs(3_600);
        let stream = poisson_workflows(0.01, &shape(), horizon, 9, &mut rng);
        assert!(stream.len() >= 4, "got {}", stream.len());
        assert!(stream.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(stream.iter().all(|(at, _)| *at < horizon));
        let sizes: Vec<usize> = stream.iter().take(4).map(|(_, dag)| dag.len()).collect();
        assert_eq!(sizes, vec![5, 7, 16, 17]);
    }

    #[test]
    fn class_names_are_stable() {
        let names: Vec<&str> = DagClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["chain", "fork-join", "montage", "ligo"]);
    }
}
