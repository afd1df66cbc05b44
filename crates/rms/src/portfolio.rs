//! Portfolio scheduling: simulate the candidates, run the winner.
//!
//! The paper lists portfolio scheduling among the proven self-adaptation
//! approaches (C6, approach iv; applied to business-critical workloads in
//! van Beek et al. \[112\]). [`Portfolio`] holds the candidate list and the
//! one selection rule; the batch scheduler and the workflow engine
//! (`mcs_dag::DagPortfolio`) each supply only a predictor.
//!
//! At every decision tick the [`PortfolioSelector`] forward-simulates the
//! *currently queued work* under each candidate configuration on an idle
//! copy of the cluster, and adopts the configuration with the best
//! predicted objective. The idle-clone lookahead is an approximation
//! (running tasks keep their machines in reality); it is the standard
//! simulation-based selector and is cheap enough to run inside the decision
//! loop.

use crate::scheduler::{ClusterScheduler, SchedulerConfig};
use mcs_infra::cluster::{Cluster, ClusterId};
use mcs_infra::resource::ResourceVector;
use mcs_simcore::time::SimTime;
use mcs_workload::task::{Job, JobId, JobKind, Task, TaskId, UserId};

/// A non-empty candidate list and the selection rule every portfolio
/// shares.
#[derive(Debug)]
pub struct Portfolio<C> {
    candidates: Vec<C>,
}

impl<C> Portfolio<C> {
    /// A portfolio over `candidates`.
    ///
    /// # Panics
    /// Panics when `candidates` is empty.
    pub fn new(candidates: Vec<C>) -> Self {
        assert!(!candidates.is_empty(), "portfolio needs at least one candidate");
        Portfolio { candidates }
    }

    /// The candidate list.
    pub fn candidates(&self) -> &[C] {
        &self.candidates
    }

    /// Index of the candidate with the lowest prediction. `predict` runs
    /// once per candidate, in order; the first of tied candidates wins, and
    /// index 0 wins when every prediction is infinite.
    pub fn best(&self, mut predict: impl FnMut(&C) -> f64) -> usize {
        let mut best = 0;
        let mut best_score = f64::INFINITY;
        for (i, candidate) in self.candidates.iter().enumerate() {
            let score = predict(candidate);
            if score < best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }
}

/// What the portfolio optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize predicted makespan of the queued work.
    Makespan,
    /// Minimize predicted mean response time.
    MeanResponse,
}

/// How far ahead each candidate's lookahead simulates.
const LOOKAHEAD: SimTime = SimTime::from_secs(24 * 3600);

/// A simulation-based portfolio selector over scheduler configurations.
#[derive(Debug)]
pub struct PortfolioSelector {
    portfolio: Portfolio<SchedulerConfig>,
    objective: Objective,
    seed: u64,
    /// History of `(decision instant, chosen candidate index)`.
    decisions: Vec<(SimTime, usize)>,
}

impl PortfolioSelector {
    /// Creates a selector over `candidates`.
    ///
    /// # Panics
    /// Panics when `candidates` is empty.
    pub fn new(candidates: Vec<SchedulerConfig>, objective: Objective, seed: u64) -> Self {
        PortfolioSelector {
            portfolio: Portfolio::new(candidates),
            objective,
            seed,
            decisions: Vec::new(),
        }
    }

    /// The decision log: when each candidate was chosen (ticks with an
    /// empty queue keep the current configuration and are not logged).
    pub fn decisions(&self) -> &[(SimTime, usize)] {
        &self.decisions
    }

    /// Forward-simulates the `(demand_left, request)` queue under every
    /// candidate on an idle clone of `cluster`, logs the winner at `now`,
    /// and returns it.
    pub fn select(
        &mut self,
        now: SimTime,
        queued: &[(f64, ResourceVector)],
        cluster: &Cluster,
    ) -> SchedulerConfig {
        // Re-materialize the queue as an immediate bag of tasks.
        let job_id = JobId(u64::MAX);
        let jobs = vec![Job {
            id: job_id,
            user: UserId(0),
            kind: JobKind::BagOfTasks,
            submit: SimTime::ZERO,
            tasks: queued
                .iter()
                .enumerate()
                .map(|(i, (demand, req))| {
                    Task::independent(TaskId(i as u64), job_id, *demand, *req)
                })
                .collect(),
        }];
        let best = self.portfolio.best(|&c| self.evaluate(idle_clone(cluster), c, jobs.clone()));
        self.decisions.push((now, best));
        self.portfolio.candidates()[best]
    }

    fn evaluate(&self, cluster: Cluster, config: SchedulerConfig, jobs: Vec<Job>) -> f64 {
        let mut sim = ClusterScheduler::new(cluster, config, self.seed ^ 0xF0F0);
        let out = sim.run(jobs, LOOKAHEAD);
        match self.objective {
            Objective::Makespan => {
                if out.unfinished > 0 {
                    f64::INFINITY
                } else {
                    out.makespan.as_secs_f64()
                }
            }
            Objective::MeanResponse => {
                if out.completions.is_empty() {
                    f64::INFINITY
                } else {
                    out.mean_response_secs() + out.unfinished as f64 * 1e6
                }
            }
        }
    }
}

/// Builds an idle cluster with the same machine specs as `cluster`.
fn idle_clone(cluster: &Cluster) -> Cluster {
    let mut c = Cluster::new(ClusterId(0), "portfolio-lookahead");
    for m in cluster.machines() {
        // Preserve Down machines as failed so the lookahead sees true capacity.
        let id = c.add_machine(m.spec().clone());
        if m.state() != mcs_infra::machine::MachineState::Up {
            c.machine_mut(id).fail();
        }
    }
    c
}

/// A portfolio of the standard policy corners: FCFS+backfill/best-fit (the
/// grid default), SJF/worst-fit (interactive), LJF/best-fit (throughput),
/// and FCFS/fastest-first (heterogeneity).
pub fn default_portfolio() -> Vec<SchedulerConfig> {
    use crate::allocation::AllocationPolicy as A;
    use crate::scheduler::QueuePolicy as Q;
    vec![
        SchedulerConfig { queue: Q::Fcfs, allocation: A::BestFit, backfill: true },
        SchedulerConfig { queue: Q::Sjf, allocation: A::WorstFit, backfill: false },
        SchedulerConfig { queue: Q::Ljf, allocation: A::BestFit, backfill: true },
        SchedulerConfig { queue: Q::Fcfs, allocation: A::FastestFirst, backfill: true },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_infra::machine::MachineSpec;
    use mcs_infra::resource::ResourceVector;
    use mcs_simcore::time::SimDuration;

    fn cluster() -> Cluster {
        Cluster::homogeneous(
            ClusterId(0),
            "c",
            MachineSpec::commodity("std-4", 4.0, 16.0),
            4,
        )
    }

    fn bag(id: u64, submit: u64, tasks: &[(f64, f64)]) -> Job {
        Job {
            id: JobId(id),
            user: UserId(0),
            kind: JobKind::BagOfTasks,
            submit: SimTime::from_secs(submit),
            tasks: tasks
                .iter()
                .enumerate()
                .map(|(i, &(d, c))| {
                    Task::independent(
                        TaskId(id * 1000 + i as u64),
                        JobId(id),
                        d,
                        ResourceVector::new(c, c),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn best_takes_the_first_strictly_lowest_prediction() {
        let p = Portfolio::new(vec![3.0, 1.0, 1.0, 2.0]);
        let mut seen = Vec::new();
        let best = p.best(|&c| {
            seen.push(c);
            c
        });
        assert_eq!(best, 1, "a tie goes to the lowest index");
        assert_eq!(seen, [3.0, 1.0, 1.0, 2.0], "one prediction per candidate, in order");
        assert_eq!(p.best(|_| f64::INFINITY), 0);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_portfolio_rejected() {
        let _ = PortfolioSelector::new(vec![], Objective::Makespan, 1);
    }

    #[test]
    fn portfolio_runs_and_records_decisions() {
        let jobs: Vec<Job> = (0..50)
            .map(|i| bag(i, i * 20, &[(200.0, 2.0), (10.0, 1.0), (10.0, 1.0)]))
            .collect();
        let mut selector =
            PortfolioSelector::new(default_portfolio(), Objective::MeanResponse, 7);
        let mut sched = ClusterScheduler::new(cluster(), SchedulerConfig::default(), 7);
        let out = sched.run_adaptive(
            jobs,
            SimTime::from_secs(1_000_000),
            &mut selector,
            SimDuration::from_secs(60),
        );
        assert_eq!(out.unfinished, 0);
    }

    #[test]
    fn portfolio_not_much_worse_than_best_fixed() {
        // A mixed workload in which no single policy dominates.
        let mut jobs: Vec<Job> = Vec::new();
        for i in 0..30 {
            jobs.push(bag(i, i * 30, &[(600.0, 4.0)])); // long wide
            jobs.push(bag(100 + i, i * 30 + 1, &[(5.0, 1.0), (5.0, 1.0)])); // short
        }
        jobs.sort_by_key(|j| j.submit);
        let horizon = SimTime::from_secs(1_000_000);

        let mut fixed_scores = Vec::new();
        for cand in default_portfolio() {
            let out = ClusterScheduler::new(cluster(), cand, 3).run(jobs.clone(), horizon);
            fixed_scores.push(out.mean_response_secs());
        }
        let best_fixed = fixed_scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let worst_fixed = fixed_scores.iter().cloned().fold(0.0, f64::max);

        let mut selector =
            PortfolioSelector::new(default_portfolio(), Objective::MeanResponse, 3);
        let out = ClusterScheduler::new(cluster(), SchedulerConfig::default(), 3)
            .run_adaptive(jobs, horizon, &mut selector, SimDuration::from_secs(120));
        let portfolio_score = out.mean_response_secs();

        // The portfolio must beat the worst fixed policy and stay within 2x
        // of the best fixed policy (selection overhead is approximation).
        assert!(
            portfolio_score < worst_fixed,
            "portfolio {portfolio_score} vs worst fixed {worst_fixed}"
        );
        assert!(
            portfolio_score < best_fixed * 2.0,
            "portfolio {portfolio_score} vs best fixed {best_fixed}"
        );
    }

    #[test]
    fn default_portfolio_is_diverse() {
        let p = default_portfolio();
        assert!(p.len() >= 3);
        let queues: std::collections::HashSet<_> = p.iter().map(|c| c.queue.name()).collect();
        assert!(queues.len() >= 2);
    }
}
