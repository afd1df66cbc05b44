//! Table 4 — the six use-case domains of §6, one measured scenario each,
//! reporting the domain's headline metric, a cost proxy, and SLO
//! attainment. The §6.6 graph-suite row reports wall-clock runtimes; all
//! other rows are seed-deterministic.

use crate::{batch_day, standard_cluster};
use mcs::prelude::*;

/// Table 4 as an [`Experiment`].
pub struct Table4UseCases;

impl Experiment for Table4UseCases {
    fn name(&self) -> &'static str {
        "table4_use_cases"
    }

    fn run(&self, seed: u64) -> Report {
        let mut rows: Vec<Vec<String>> = Vec::new();
        let horizon = SimTime::from_secs(60 * 86_400);

        // §6.1 Datacenter management (endogenous).
        {
            let jobs = batch_day(seed.wrapping_add(1), 1_200);
            let out = ClusterScheduler::new(standard_cluster(), SchedulerConfig::default(), seed)
                .run(jobs, horizon);
            let spec = MachineSpec::commodity("std-8", 8.0, 32.0);
            let kwh = 32.0 * spec.power.watts(out.mean_utilization) * 24.0 / 1000.0;
            rows.push(vec![
                "§6.1 datacenter".into(),
                format!("mean slowdown {:.2}", out.mean_slowdown()),
                format!("{kwh:.0} kWh/day"),
                format!("{:.1}% util", out.mean_utilization * 100.0),
            ]);
        }

        // §6.2 e-science workflows (exogenous).
        {
            let shape =
                DagShape { width: 10, work: 150.0, cores: 1.0, memory_gb: 2.0, edge_bytes: 0 };
            let mut rng = RngStream::new(seed, "t4-escience");
            let wfs = poisson_workflows(0.003, &shape, SimTime::from_secs(86_400), 60, &mut rng);
            // Compute only: the batch scheduler ships no edge bytes.
            let cp: f64 =
                wfs.iter().map(|(_, dag)| dag.critical_path_secs(f64::INFINITY)).sum::<f64>()
                    / wfs.len() as f64;
            let jobs: Vec<Job> = wfs
                .iter()
                .enumerate()
                .map(|(i, (at, dag))| dag.to_job(JobId(i as u64), UserId(0), *at))
                .collect();
            let out = ClusterScheduler::new(standard_cluster(), SchedulerConfig::default(), seed)
                .run(jobs, horizon);
            rows.push(vec![
                "§6.2 e-science".into(),
                format!("mean response {:.0}s", out.mean_response_secs()),
                format!("cp lower-bound {cp:.0}s"),
                format!("{} tasks done", out.completions.len()),
            ]);
        }

        // §6.3 online gaming (exogenous).
        {
            let model = PlayerModel {
                base_rate: 0.8,
                flash: Some((SimTime::from_secs(6 * 3600), SimDuration::from_hours(2), 3.0)),
                ..Default::default()
            };
            let config = GamingConfig {
                players: model,
                provisioning: ZoneProvisioning::Elastic {
                    min_zones: 4,
                    max_zones: 80,
                    high_watermark: 0.8,
                    low_watermark: 0.3,
                    boot_delay: SimDuration::from_secs(90),
                },
            };
            let out = simulate_world(&config, SimTime::from_secs(86_400), seed);
            rows.push(vec![
                "§6.3 gaming".into(),
                format!("reject {:.2}%", out.rejection_rate * 100.0),
                format!("{:.0} zone-hours", out.zone_hours),
                format!("peak {:.0} online", out.peak_concurrent),
            ]);
        }

        // §6.4 banking (exogenous).
        {
            let mut generator = TransactionWorkloadGenerator::new(40.0, 2.0);
            let mut rng = RngStream::new(seed, "t4-banking");
            let jobs = generator.generate(SimTime::from_secs(3_600), 200_000, &mut rng);
            let n = jobs.len();
            let cluster = Cluster::homogeneous(
                ClusterId(0),
                "bank",
                MachineSpec::commodity("std-4", 4.0, 16.0),
                2,
            );
            let config = SchedulerConfig {
                queue: QueuePolicy::EarliestDeadline,
                backfill: false,
                ..Default::default()
            };
            let out = ClusterScheduler::new(cluster, config, seed).run(jobs, horizon);
            rows.push(vec![
                "§6.4 banking".into(),
                format!("{n} txns cleared"),
                format!("mean {:.0}ms", out.mean_response_secs() * 1e3),
                format!("misses {:.3}%", 100.0 * out.deadline_misses as f64 / n as f64),
            ]);
        }

        // §6.5 serverless (endogenous).
        {
            let mut platform =
                FaasPlatform::new(KeepAlivePolicy::Fixed(SimDuration::from_mins(10)), seed);
            platform.deploy(FunctionSpec::api_handler("api"));
            let (report, latency) =
                platform.run(poisson_invocations("api", 0.2, SimTime::from_secs(4 * 3600), seed));
            rows.push(vec![
                "§6.5 serverless".into(),
                format!("cold {:.1}%", report.cold_fraction * 100.0),
                format!("{:.0} GB-s billed", report.billed_gb_secs),
                format!("p95 {:.0}ms", latency.as_ref().map(|l| l.p95).unwrap_or(0.0) * 1e3),
            ]);
        }

        // §6.6 graph processing (endogenous).
        {
            let mut rng = RngStream::new(seed, "t4-graph");
            let g = rmat(13, 12, (0.57, 0.19, 0.19), &mut rng);
            let suite = run_suite(&g, 4);
            let total: f64 = suite.iter().map(|r| r.runtime_secs).sum();
            let best_evps = suite.iter().map(|r| r.evps).fold(0.0, f64::max);
            rows.push(vec![
                "§6.6 graphs".into(),
                format!("6 algorithms in {total:.1}s"),
                format!("peak {best_evps:.2e} EVPS"),
                format!("{}v/{}e", g.vertex_count(), g.edge_count()),
            ]);
        }

        Report::new(self.name(), "Table 4 — use cases (endogenous and exogenous)")
            .with_seed(seed)
            .with_section(
                Section::new("")
                    .table(&["use case", "headline", "cost/scale", "slo/quality"], rows)
                    .line(
                        "shape check: every §6 domain runs end-to-end on the platform with the\n\
                         metrics the paper's discussion calls for.",
                    ),
            )
    }
}
