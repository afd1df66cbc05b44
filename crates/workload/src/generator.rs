//! Domain workload generators.
//!
//! Each generator produces the statistically realistic workload of one of
//! the paper's application domains (§6): grid/batch bags-of-tasks,
//! interactive services, ML/accelerator jobs, serverless function
//! invocations, and deadline-bound transactions. Parameters follow the fits
//! published in the workload-characterization literature the paper cites
//! (lognormal/Weibull runtimes, Zipf users, bursty arrivals). E-science
//! workflows come from `mcs-dag`'s generators.

use crate::arrival::{ArrivalProcess, Mmpp2, Poisson};
use crate::task::{Job, JobId, JobKind, Task, TaskId, UserId};
use crate::trace::{Trace, TraceRecord};
use mcs_infra::resource::ResourceVector;
use mcs_simcore::dist::{Dist, Sample};
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::SimTime;

/// Configuration of the synthetic grid/batch workload (GWA-style).
#[derive(Debug, Clone)]
pub struct BatchWorkloadConfig {
    /// Mean arrival rate, jobs/second.
    pub arrival_rate: f64,
    /// Use bursty MMPP-2 arrivals instead of Poisson.
    pub bursty: bool,
    /// Runtime distribution, seconds.
    pub runtime: Dist,
    /// Processor-count distribution (rounded up to ≥ 1).
    pub cpus: Dist,
    /// Memory per core, GiB.
    pub memory_per_core_gb: f64,
    /// Number of distinct users; activity is Zipf-distributed (the dominant
    /// users the paper's social-awareness work identifies, C5).
    pub users: u32,
    /// Fraction of jobs requesting one accelerator.
    pub accelerator_fraction: f64,
}

impl Default for BatchWorkloadConfig {
    fn default() -> Self {
        BatchWorkloadConfig {
            arrival_rate: 0.05,
            bursty: true,
            // Lognormal runtimes: median ~5.5 min, heavy right tail.
            runtime: Dist::LogNormal { mu: 5.8, sigma: 1.4 },
            // Power-of-two-ish CPU counts via a discretized lognormal.
            cpus: Dist::LogNormal { mu: 0.7, sigma: 0.9 },
            memory_per_core_gb: 2.0,
            users: 32,
            accelerator_fraction: 0.0,
        }
    }
}

/// Generates single-task batch jobs following the configuration.
#[derive(Debug)]
pub struct BatchWorkloadGenerator {
    config: BatchWorkloadConfig,
    user_pick: Dist,
    next_job: u64,
}

impl BatchWorkloadGenerator {
    /// Creates a generator for the given configuration.
    ///
    /// # Panics
    /// Panics if `config.users == 0`.
    pub fn new(config: BatchWorkloadConfig) -> Self {
        assert!(config.users > 0, "need at least one user");
        let user_pick = Dist::Zipf { n: config.users as u64, s: 1.1 };
        BatchWorkloadGenerator { config, user_pick, next_job: 0 }
    }

    /// Generates jobs arriving in `[0, horizon)`, at most `max_jobs`.
    pub fn generate(&mut self, horizon: SimTime, max_jobs: usize, rng: &mut RngStream) -> Vec<Job> {
        let mut arrivals: Box<dyn ArrivalProcess> = if self.config.bursty {
            Box::new(Mmpp2::new(
                self.config.arrival_rate * 0.5,
                self.config.arrival_rate * 8.0,
                600.0,
                40.0,
            ))
        } else {
            Box::new(Poisson::new(self.config.arrival_rate))
        };
        let mut jobs = Vec::new();
        let mut now = SimTime::ZERO;
        while jobs.len() < max_jobs {
            let Some(at) = arrivals.next_after(now, rng) else { break };
            if at >= horizon {
                break;
            }
            now = at;
            jobs.push(self.one_job(at, rng));
        }
        jobs
    }

    fn one_job(&mut self, submit: SimTime, rng: &mut RngStream) -> Job {
        let id = JobId(self.next_job);
        self.next_job += 1;
        let runtime = self.config.runtime.sample(rng).max(1.0);
        let cpus = self.config.cpus.sample(rng).ceil().clamp(1.0, 1024.0);
        let mut req = ResourceVector::new(cpus, cpus * self.config.memory_per_core_gb);
        if rng.bernoulli(self.config.accelerator_fraction) {
            req = req.with_accelerators(1.0);
        }
        let user = UserId(self.user_pick.sample(rng) as u32 - 1);
        Job {
            id,
            user,
            kind: JobKind::BagOfTasks,
            submit,
            tasks: vec![Task::independent(TaskId(id.0), id, runtime * cpus, req)],
        }
    }

    /// Generates a [`Trace`] instead of jobs (for archive round-trips).
    pub fn generate_trace(
        &mut self,
        horizon: SimTime,
        max_jobs: usize,
        rng: &mut RngStream,
    ) -> Trace {
        let jobs = self.generate(horizon, max_jobs, rng);
        Trace::from_records(
            jobs.iter()
                .map(|j| {
                    let t = &j.tasks[0];
                    TraceRecord {
                        job_id: j.id.0,
                        submit_secs: j.submit.as_secs_f64(),
                        runtime_secs: t.demand_core_seconds / t.req.cpu_cores,
                        cpus: t.req.cpu_cores,
                        memory_gb: t.req.memory_gb,
                        user: j.user.0,
                        kind: j.kind,
                    }
                })
                .collect(),
        )
    }
}

/// Generates deadline-bound transaction jobs (banking, §6.4): short, small,
/// and each carrying a hard completion deadline.
#[derive(Debug)]
pub struct TransactionWorkloadGenerator {
    /// Arrival rate, transactions/second.
    pub arrival_rate: f64,
    /// Service-demand distribution, core-seconds.
    pub demand: Dist,
    /// Deadline after submission, seconds.
    pub deadline_secs: f64,
    next_job: u64,
}

impl TransactionWorkloadGenerator {
    /// A generator with typical clearing-system parameters.
    pub fn new(arrival_rate: f64, deadline_secs: f64) -> Self {
        TransactionWorkloadGenerator {
            arrival_rate,
            demand: Dist::Gamma { shape: 2.0, scale: 0.05 },
            deadline_secs,
            next_job: 0,
        }
    }

    /// Generates transactions arriving in `[0, horizon)`, at most `max`.
    pub fn generate(&mut self, horizon: SimTime, max: usize, rng: &mut RngStream) -> Vec<Job> {
        let mut arrivals = Poisson::new(self.arrival_rate);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        while out.len() < max {
            let Some(at) = arrivals.next_after(now, rng) else { break };
            if at >= horizon {
                break;
            }
            now = at;
            let id = JobId(self.next_job);
            self.next_job += 1;
            let mut task = Task::independent(
                TaskId(id.0),
                id,
                self.demand.sample(rng).max(0.001),
                ResourceVector::new(1.0, 0.5),
            );
            task.deadline =
                Some(mcs_simcore::time::SimDuration::from_secs_f64(self.deadline_secs));
            out.push(Job { id, user: UserId(0), kind: JobKind::Transaction, submit: at, tasks: vec![task] });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_generator_produces_plausible_jobs() {
        let mut g = BatchWorkloadGenerator::new(BatchWorkloadConfig::default());
        let mut rng = RngStream::new(42, "batch");
        let jobs = g.generate(SimTime::from_secs(100_000), 500, &mut rng);
        assert!(jobs.len() >= 100, "got {} jobs", jobs.len());
        for w in jobs.windows(2) {
            assert!(w[0].submit <= w[1].submit);
        }
        for j in &jobs {
            assert_eq!(j.tasks.len(), 1);
            let t = &j.tasks[0];
            assert!(t.demand_core_seconds >= 1.0);
            assert!(t.req.cpu_cores >= 1.0);
            assert!(j.user.0 < 32);
        }
        // Distinct job ids.
        let mut ids: Vec<u64> = jobs.iter().map(|j| j.id.0).collect();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
    }

    #[test]
    fn batch_generator_is_deterministic() {
        let run = |seed| {
            let mut g = BatchWorkloadGenerator::new(BatchWorkloadConfig::default());
            let mut rng = RngStream::new(seed, "batch");
            g.generate(SimTime::from_secs(10_000), 100, &mut rng)
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn zipf_users_dominate() {
        let mut g = BatchWorkloadGenerator::new(BatchWorkloadConfig {
            arrival_rate: 1.0,
            bursty: false,
            ..Default::default()
        });
        let mut rng = RngStream::new(7, "batch");
        let jobs = g.generate(SimTime::from_secs(5_000), 5_000, &mut rng);
        let mut counts = vec![0usize; 32];
        for j in &jobs {
            counts[j.user.0 as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let total: usize = counts.iter().sum();
        // The top user should own a disproportionate share (Zipf 1.1).
        assert!(max as f64 / total as f64 > 0.15, "top share {}", max as f64 / total as f64);
    }

    #[test]
    fn trace_round_trip_preserves_stats() {
        let mut g = BatchWorkloadGenerator::new(BatchWorkloadConfig::default());
        let mut rng = RngStream::new(3, "batch");
        let trace = g.generate_trace(SimTime::from_secs(50_000), 300, &mut rng);
        assert!(!trace.is_empty());
        let bytes = trace.to_jsonl().unwrap();
        let back = Trace::from_jsonl(&bytes).unwrap();
        let (a, b) = (trace.stats().unwrap(), back.stats().unwrap());
        // JSON may lose the last ULP of a float; compare with tolerance.
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.users, b.users);
        assert!((a.runtime.mean - b.runtime.mean).abs() < 1e-9);
        assert!((a.total_core_seconds - b.total_core_seconds).abs() < 1e-6);
    }

    #[test]
    fn transactions_carry_deadlines() {
        let mut g = TransactionWorkloadGenerator::new(10.0, 2.0);
        let mut rng = RngStream::new(11, "txn");
        let jobs = g.generate(SimTime::from_secs(100), 1_000, &mut rng);
        assert!(jobs.len() > 500);
        for j in &jobs {
            assert_eq!(j.kind, JobKind::Transaction);
            assert!(j.tasks[0].deadline.is_some());
        }
    }
}
