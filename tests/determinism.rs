//! Reproducibility as an essential service (P8): identical seeds must yield
//! bit-identical results across every stochastic subsystem.

use mcs::prelude::*;

#[test]
fn scheduler_runs_are_bit_identical() {
    let run = || {
        let cluster = Cluster::homogeneous(
            ClusterId(0),
            "det",
            MachineSpec::commodity("std-8", 8.0, 32.0),
            8,
        );
        let mut generator = BatchWorkloadGenerator::new(BatchWorkloadConfig::default());
        let mut rng = RngStream::new(1234, "determinism");
        let jobs = generator.generate(SimTime::from_secs(6 * 3600), 300, &mut rng);
        let config = SchedulerConfig {
            allocation: AllocationPolicy::Random, // stresses the RNG path
            ..Default::default()
        };
        ClusterScheduler::new(cluster, config, 1234).run(jobs, SimTime::from_secs(30 * 86_400))
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let run = |seed: u64| {
        let mut generator = BatchWorkloadGenerator::new(BatchWorkloadConfig::default());
        let mut rng = RngStream::new(seed, "determinism");
        generator.generate(SimTime::from_secs(3_600), 100, &mut rng)
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn failure_schedules_are_reproducible() {
    let gen = |seed: u64| {
        SpaceCorrelatedFailures::with_mtbf(100.0 * 3600.0, 64, 8).generate(
            64,
            SimTime::from_secs(30 * 86_400),
            &mut RngStream::new(seed, "failures"),
        )
    };
    assert_eq!(gen(5), gen(5));
    assert_ne!(gen(5), gen(6));
}

#[test]
fn graph_pipeline_is_reproducible_across_thread_counts() {
    let mut rng = RngStream::new(9, "graph");
    let g = rmat(10, 8, (0.57, 0.19, 0.19), &mut rng);
    let serial = pagerank(&g, 15, &BspEngine::serial());
    for threads in [2, 4, 8] {
        // Same configuration twice: bit-identical.
        let a = pagerank(&g, 15, &BspEngine::parallel(threads));
        let b = pagerank(&g, 15, &BspEngine::parallel(threads));
        assert_eq!(a, b, "PageRank must be bit-identical at {threads} threads");
        // Across thread counts the float summation order changes, so only
        // numerical equality is promised.
        for (x, y) in a.iter().zip(&serial) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y} at {threads} threads");
        }
    }
}

#[test]
fn faas_platform_is_reproducible() {
    let run = || {
        let mut p = FaasPlatform::new(KeepAlivePolicy::Fixed(SimDuration::from_mins(5)), 3);
        p.deploy(FunctionSpec::api_handler("f"));
        p.run(poisson_invocations("f", 0.5, SimTime::from_secs(3_600), 3))
    };
    assert_eq!(run(), run());
}

#[test]
fn virtual_world_is_reproducible() {
    let world = GamingConfig {
        players: PlayerModel::default(),
        provisioning: ZoneProvisioning::Static { zones: 10 },
    };
    let run = || simulate_world(&world, SimTime::from_secs(6 * 3600), 77);
    assert_eq!(run(), run());
}

#[test]
fn bigdata_re_replication_under_failures_is_reproducible() {
    // Crashes make the block store re-replicate, drawing one RNG value per
    // under-replicated block; the draw order must not follow hash order.
    let run = || {
        let cfg = ScenarioConfig::bare(54, SimTime::from_secs(1800), 16)
            .with_bigdata(BigdataConfig {
                jobs: 3,
                submit_interval_secs: 60.0,
                ..BigdataConfig::default()
            })
            .with_failures(FailureConfig { mtbf_secs: 1800.0, ..FailureConfig::default() });
        Scenario::new(cfg).run().trace.to_json_string()
    };
    let first = run();
    for rerun in 1..10 {
        assert!(run() == first, "rerun {rerun} diverged from the first run");
    }
}
