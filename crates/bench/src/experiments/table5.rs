//! Table 5 — comparison of fields/paradigms: the same ecosystem workload
//! operated under cluster-, grid-, cloud-, and MCS-era operating models.
//!
//! The paper's Table 5 places MCS as the successor of its ancestor
//! paradigms; the measurable counterpart is that each era's operating model
//! (static partitions → batch queues with backfilling → elastic leases →
//! elastic + portfolio + admission) improves the response/cost frontier on
//! a modern mixed workload. Every column is simulated time, so reports are
//! byte-identical across same-seed reruns — the determinism test target.

use crate::{batch_day, drain_horizon, f};
use mcs::prelude::*;

const MACHINES: usize = 32;
const CORES: f64 = 8.0;

/// Table 5 as an [`Experiment`].
pub struct Table5Paradigms;

fn cluster() -> Cluster {
    Cluster::homogeneous(
        ClusterId(0),
        "t5",
        MachineSpec::commodity("std-8", CORES, 32.0),
        MACHINES as u32,
    )
}

struct ParadigmResult {
    name: &'static str,
    mean_response: f64,
    machine_hours: f64,
    slowdown: f64,
    unfinished: usize,
}

impl Experiment for Table5Paradigms {
    fn name(&self) -> &'static str {
        "table5_paradigms"
    }

    fn run(&self, seed: u64) -> Report {
        let jobs = batch_day(seed, 1_500);
        let day = SimTime::from_secs(86_400);
        let horizon = drain_horizon();
        let static_hours = MACHINES as f64 * 24.0;
        let mut results: Vec<ParadigmResult> = Vec::new();

        // Cluster era: static machines, plain FCFS, no backfilling.
        {
            let config = SchedulerConfig {
                queue: QueuePolicy::Fcfs,
                allocation: AllocationPolicy::FirstFit,
                backfill: false,
            };
            let out = ClusterScheduler::new(cluster(), config, seed).run(jobs.clone(), horizon);
            results.push(ParadigmResult {
                name: "cluster (1990s)",
                mean_response: out.mean_response_secs(),
                machine_hours: static_hours,
                slowdown: out.mean_slowdown(),
                unfinished: out.unfinished,
            });
        }

        // Grid era: batch queue with EASY backfilling, still static hardware.
        {
            let config = SchedulerConfig {
                queue: QueuePolicy::Fcfs,
                allocation: AllocationPolicy::BestFit,
                backfill: true,
            };
            let out = ClusterScheduler::new(cluster(), config, seed).run(jobs.clone(), horizon);
            results.push(ParadigmResult {
                name: "grid (2000s)",
                mean_response: out.mean_response_secs(),
                machine_hours: static_hours,
                slowdown: out.mean_slowdown(),
                unfinished: out.unfinished,
            });
        }

        // Cloud era: elastic leases (pay for what the backlog needs).
        {
            let mut policy = BacklogDriven { drain_target_secs: 1_200.0 };
            let plan = plan_provisioning(
                &jobs,
                CORES,
                2,
                MACHINES,
                SimDuration::from_mins(15),
                day,
                &mut policy,
            );
            let config = SchedulerConfig { backfill: true, ..Default::default() };
            let out = ClusterScheduler::new(cluster(), config, seed)
                .with_outages(plan.outages.clone())
                .run(jobs.clone(), horizon);
            results.push(ParadigmResult {
                name: "cloud (2010s)",
                mean_response: out.mean_response_secs(),
                machine_hours: plan.machine_hours,
                slowdown: out.mean_slowdown(),
                unfinished: out.unfinished,
            });
        }

        // MCS era: elastic leases + runtime portfolio scheduling + admission.
        {
            let mut policy = BacklogDriven { drain_target_secs: 1_200.0 };
            let plan = plan_provisioning(
                &jobs,
                CORES,
                2,
                MACHINES,
                SimDuration::from_mins(15),
                day,
                &mut policy,
            );
            let mut selector =
                PortfolioSelector::new(default_portfolio(), Objective::MeanResponse, seed);
            let out = ClusterScheduler::new(cluster(), SchedulerConfig::default(), seed)
                .with_outages(plan.outages.clone())
                .run_adaptive(jobs.clone(), horizon, &mut selector, SimDuration::from_mins(30));
            results.push(ParadigmResult {
                name: "MCS (late 2010s)",
                mean_response: out.mean_response_secs(),
                machine_hours: plan.machine_hours,
                slowdown: out.mean_slowdown(),
                unfinished: out.unfinished,
            });
        }

        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                vec![
                    r.name.into(),
                    f(r.mean_response, 0),
                    f(r.slowdown, 2),
                    f(r.machine_hours, 0),
                    f(r.mean_response * r.machine_hours / 1e6, 3),
                    r.unfinished.to_string(),
                ]
            })
            .collect();
        Report::new(self.name(), "Table 5 — operating-model comparison on one mixed workload")
            .with_seed(seed)
            .with_section(
                Section::new("")
                    .table(
                        &["paradigm", "mean-resp-s", "slowdown", "machine-h", "resp×cost (norm)", "unfinished"],
                        rows,
                    )
                    .line(
                        "shape check: grid backfilling improves on plain FCFS; cloud elasticity slashes\n\
                         machine-hours at a bounded response cost; MCS recovers response via portfolio\n\
                         scheduling while keeping the elastic cost — the paradigm frontier of Table 5.",
                    ),
            )
    }
}
