//! Table 3 — the systems research challenges C1–C10, one measured scenario
//! per challenge, reporting the improvement MCS machinery delivers over a
//! non-MCS baseline.

use crate::{batch_day, f, standard_cluster};
use mcs::prelude::*;

/// Table 3 as an [`Experiment`].
pub struct Table3Challenges;

fn bag(id: u64, submit: u64, demand: f64, cores: f64, accel: f64) -> Job {
    let req = mcs::infra::resource::ResourceVector::new(cores, cores * 2.0)
        .with_accelerators(accel);
    Job {
        id: JobId(id),
        user: UserId((id % 4) as u32),
        kind: JobKind::BagOfTasks,
        submit: SimTime::from_secs(submit),
        tasks: vec![Task::independent(TaskId(id), JobId(id), demand, req)],
    }
}

impl Experiment for Table3Challenges {
    fn name(&self) -> &'static str {
        "table3_challenges"
    }

    fn run(&self, seed: u64) -> Report {
        let mut rows: Vec<Vec<String>> = Vec::new();
        let horizon = SimTime::from_secs(60 * 86_400);

        // C1: ecosystem-wide view — the full stack completes a mixed day.
        {
            let jobs = batch_day(seed.wrapping_add(1), 1_500);
            let n: usize = jobs.iter().map(|j| j.tasks.len()).sum();
            let out = ClusterScheduler::new(standard_cluster(), SchedulerConfig::default(), seed)
                .run(jobs, horizon);
            rows.push(vec![
                "C1 ecosystems".into(),
                "full-stack day: tasks completed".into(),
                format!("{}/{}", out.completions.len(), n),
                format!("util {:.0}%", out.mean_utilization * 100.0),
            ]);
        }

        // C2: software-defined — lease plan vs static hardware.
        {
            let jobs = batch_day(seed.wrapping_add(2), 800);
            let mut policy = BacklogDriven { drain_target_secs: 1800.0 };
            let plan = plan_provisioning(
                &jobs, 8.0, 2, 32, SimDuration::from_mins(15), SimTime::from_secs(86_400), &mut policy,
            );
            rows.push(vec![
                "C2 software-defined".into(),
                "machine-hours saved by lease plan".into(),
                f(32.0 * 24.0, 0),
                f(plan.machine_hours, 0),
            ]);
        }

        // C3: fine-grained NFRs — mixed deadline classes through an
        // overload burst; EDF protects the urgent class where FCFS cannot.
        {
            let mut generator = TransactionWorkloadGenerator::new(50.0, 3.0);
            let mut rng = RngStream::new(seed, "t3-c3");
            let mut jobs = generator.generate(SimTime::from_secs(1_800), 200_000, &mut rng);
            for (i, job) in jobs.iter_mut().enumerate() {
                if i % 2 == 1 {
                    job.tasks[0].deadline = Some(SimDuration::from_mins(10));
                }
            }
            let small = || {
                Cluster::homogeneous(ClusterId(0), "c3", MachineSpec::commodity("std-4", 4.0, 16.0), 2)
            };
            let outage = mcs::failure::model::Outage {
                machine: 0,
                fail_at: SimTime::from_secs(600),
                repair_at: SimTime::from_secs(1_000),
            };
            let run = |queue| {
                ClusterScheduler::new(
                    small(),
                    SchedulerConfig { queue, backfill: false, ..Default::default() },
                    seed,
                )
                .with_outages(vec![outage])
                .run(jobs.clone(), horizon)
            };
            let fcfs = run(QueuePolicy::Fcfs);
            let edf = run(QueuePolicy::EarliestDeadline);
            rows.push(vec![
                "C3 NFRs first-class".into(),
                "deadline misses under outage, FCFS vs EDF".into(),
                fcfs.deadline_misses.to_string(),
                edf.deadline_misses.to_string(),
            ]);
        }

        // C4: extreme heterogeneity — half the machines are 2x-speed; a
        // heterogeneity-blind allocator wastes them on nothing.
        {
            let hetero = || {
                let mut c = Cluster::new(ClusterId(0), "c4");
                for _ in 0..8 {
                    c.add_machine(MachineSpec::commodity("slow-8", 8.0, 32.0));
                }
                for _ in 0..8 {
                    let mut spec = MachineSpec::commodity("fast-8", 8.0, 32.0);
                    spec.core_speed = 2.0;
                    c.add_machine(spec);
                }
                c
            };
            let jobs: Vec<Job> = (0..150).map(|i| bag(i, i * 40, 2_400.0, 4.0, 0.0)).collect();
            let run = |allocation| {
                ClusterScheduler::new(
                    hetero(),
                    SchedulerConfig { allocation, ..Default::default() },
                    seed,
                )
                .run(jobs.clone(), horizon)
            };
            let blind = run(AllocationPolicy::FirstFit);
            let aware = run(AllocationPolicy::FastestFirst);
            rows.push(vec![
                "C4 heterogeneity".into(),
                "mean response (s), first-fit vs fastest-first".into(),
                f(blind.mean_response_secs(), 0),
                f(aware.mean_response_secs(), 0),
            ]);
        }

        // C5: socially aware — community recovery with vs without signal.
        {
            let strong = PopulationModel { party_probability: 0.8, ..Default::default() };
            let noise = PopulationModel { party_probability: 0.0, ..Default::default() };
            let f1_strong =
                community_recovery_f1(&generate_matches(&strong, 20_000, seed), strong.players, 10);
            let f1_noise =
                community_recovery_f1(&generate_matches(&noise, 20_000, seed), noise.players, 10);
            rows.push(vec![
                "C5 socially aware".into(),
                "community F1, no-signal vs strong-signal".into(),
                f(f1_noise, 2),
                f(f1_strong, 2),
            ]);
        }

        // C6: adaptation — MAPE-K loop converges a mis-provisioned plant.
        {
            let mut mape = MapeLoop::new(0.4, 0.8);
            let load = 120.0;
            let mut capacity = 20.0f64;
            let mut steps = 0;
            for i in 0..100 {
                let util = load / capacity;
                if (0.4..=0.8).contains(&util) {
                    steps = i;
                    break;
                }
                match mape.observe(util) {
                    Action::ScaleUp(s) => capacity += s as f64 * 20.0,
                    Action::ScaleDown(s) => capacity = (capacity - s as f64 * 20.0).max(20.0),
                    _ => {}
                }
            }
            rows.push(vec![
                "C6 self-awareness".into(),
                "MAPE-K steps to reach target band".into(),
                "∞ (static)".into(),
                steps.to_string(),
            ]);
        }

        // C7: the dual problem — portfolio vs worst fixed policy.
        {
            let jobs = batch_day(seed.wrapping_add(7), 1_000);
            let mut worst: f64 = 0.0;
            for config in default_portfolio() {
                let out =
                    ClusterScheduler::new(standard_cluster(), config, seed).run(jobs.clone(), horizon);
                worst = worst.max(out.mean_response_secs());
            }
            let mut selector =
                PortfolioSelector::new(default_portfolio(), Objective::MeanResponse, seed);
            let portfolio = ClusterScheduler::new(standard_cluster(), SchedulerConfig::default(), seed)
                .run_adaptive(jobs, horizon, &mut selector, SimDuration::from_mins(30));
            rows.push(vec![
                "C7 dual scheduling".into(),
                "mean response (s), worst-fixed vs portfolio".into(),
                f(worst, 0),
                f(portfolio.mean_response_secs(), 0),
            ]);
        }

        // C8: XaaS — cold-start fraction without vs with a warm pool.
        {
            let invs = poisson_invocations("api", 0.1, SimTime::from_secs(4 * 3600), seed);
            let mut none = FaasPlatform::new(KeepAlivePolicy::None, seed);
            none.deploy(FunctionSpec::api_handler("api"));
            let (r_none, _) = none.run(invs.clone());
            let mut pool =
                FaasPlatform::new(KeepAlivePolicy::Fixed(SimDuration::from_mins(10)), seed);
            pool.deploy(FunctionSpec::api_handler("api"));
            let (r_pool, _) = pool.run(invs);
            rows.push(vec![
                "C8 XaaS".into(),
                "FaaS cold-start fraction, no pool vs 10-min keep-alive".into(),
                f(r_none.cold_fraction, 2),
                f(r_pool.cold_fraction, 2),
            ]);
        }

        // C9: navigation — requirements met by selected composition.
        {
            let catalog = Catalog::new()
                .with(
                    "cache-a",
                    "cache",
                    NfrProfile::new().with(NfrKind::LatencyP95, 0.002).with(NfrKind::CostPerHour, 2.0),
                )
                .with(
                    "cache-b",
                    "cache",
                    NfrProfile::new().with(NfrKind::LatencyP95, 0.02).with(NfrKind::CostPerHour, 0.2),
                )
                .with(
                    "db-a",
                    "db",
                    NfrProfile::new().with(NfrKind::LatencyP95, 0.01).with(NfrKind::CostPerHour, 1.0),
                );
            let targets =
                [NfrTarget::new(NfrKind::LatencyP95, 0.02), NfrTarget::new(NfrKind::CostPerHour, 3.5)];
            let sel = navigate(&catalog, &["cache", "db"], &targets);
            rows.push(vec![
                "C9 navigation".into(),
                "pipeline satisfying all NFR targets found".into(),
                "manual".into(),
                sel.is_ok().to_string(),
            ]);
        }

        // C10: federation — offloading vs isolated home cluster.
        {
            let cluster = || {
                Cluster::homogeneous(ClusterId(0), "c10", MachineSpec::commodity("std-8", 8.0, 32.0), 4)
            };
            let jobs: Vec<Job> = (0..80)
                .map(|i| {
                    let mut j = bag(i, i * 20, 3_000.0, 4.0, 0.0);
                    j.user = UserId(0); // everyone's home is cluster 0
                    j
                })
                .collect();
            let mut topology = Topology::new(2);
            topology.connect(
                DatacenterId(0),
                DatacenterId(1),
                Link { latency: SimDuration::from_millis(30), bandwidth_gbps: 10.0 },
            );
            let home = Federation::new(
                vec![cluster(), cluster()],
                vec![DatacenterId(0), DatacenterId(1)],
                topology.clone(),
                SchedulerConfig::default(),
                RoutingPolicy::HomeOnly,
                seed,
            )
            .run(jobs.clone(), horizon);
            let offload = Federation::new(
                vec![cluster(), cluster()],
                vec![DatacenterId(0), DatacenterId(1)],
                topology,
                SchedulerConfig::default(),
                RoutingPolicy::LocalFirstOffload { threshold_secs: 300.0 },
                seed,
            )
            .run(jobs, horizon);
            rows.push(vec![
                "C10 federation".into(),
                "mean response (s), home-only vs offload".into(),
                f(home.mean_response_secs(), 0),
                f(offload.mean_response_secs(), 0),
            ]);
        }

        Report::new(self.name(), "Table 3 — challenge matrix (systems challenges C1–C10)")
            .with_seed(seed)
            .with_section(
                Section::new("")
                    .table(&["challenge", "scenario", "baseline", "mcs"], rows)
                    .line(
                        "shape check: each challenge's MCS mechanism improves on its baseline, in the\n\
                         direction the paper argues.",
                    ),
            )
    }
}
