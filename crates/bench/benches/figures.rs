//! Benches for the figure experiments: one group per figure, timing the
//! kernel behind each artifact on the in-house wall-clock harness. Setup
//! (generator/scheduler construction) runs inside the timed closure; it is
//! negligible next to the kernels, and every variant pays it equally, so
//! relative comparisons stand.

use mcs::prelude::*;
use mcs_bench::harness::{black_box, Harness};

fn main() {
    let mut h = Harness::new("figures");

    // Figure 1: the two sub-ecosystems' PageRank kernels.
    let mut rng = RngStream::new(1, "bench-fig1");
    let graph = rmat(11, 8, (0.57, 0.19, 0.19), &mut rng);
    h.bench("fig1/pagerank_pregel_10it", |b| {
        b.iter(|| black_box(pagerank(&graph, 10, &BspEngine::parallel(4))))
    });
    let adjacency: Vec<(u32, Vec<u32>)> =
        graph.vertices().map(|v| (v, graph.neighbors(v).to_vec())).collect();
    h.bench("fig1/mapreduce_one_round", |b| {
        let engine = MapReduceEngine { threads: 4, combine: false };
        b.iter(|| {
            let (out, _) = engine.run(
                &adjacency,
                |(_, neigh): &(u32, Vec<u32>), out: &mut Vec<(u32, f64)>| {
                    for &t in neigh {
                        out.push((t, 1.0));
                    }
                },
                |_k, vs: &[f64]| vs.iter().sum::<f64>(),
            );
            black_box(out)
        })
    });

    // Figure 2: adoption-dynamics simulation.
    let techs = vec![
        Technology { name: "a".into(), fitness: 1.2 },
        Technology { name: "b".into(), fitness: 1.0 },
    ];
    h.bench("fig2/adoption_3000_steps", |b| {
        b.iter(|| {
            let mut rng = RngStream::new(2, "bench-fig2");
            black_box(simulate_adoption(
                &techs,
                Regime::NonDarwinian { lock_in: 1.5 },
                3_000,
                &mut rng,
            ))
        })
    });

    // Figure 3: the datacenter scheduler's event throughput.
    let mut generator = BatchWorkloadGenerator::new(BatchWorkloadConfig {
        arrival_rate: 0.05,
        ..Default::default()
    });
    let mut rng = RngStream::new(3, "bench-fig3");
    let jobs = generator.generate(SimTime::from_secs(6 * 3600), 500, &mut rng);
    h.bench("fig3/schedule_500_jobs", |b| {
        b.iter(|| {
            let mut sched = ClusterScheduler::new(
                Cluster::homogeneous(
                    ClusterId(0),
                    "b",
                    MachineSpec::commodity("std-8", 8.0, 32.0),
                    32,
                ),
                SchedulerConfig::default(),
                3,
            );
            black_box(sched.run(jobs.clone(), SimTime::from_secs(30 * 86_400)))
        })
    });

    // Figure 4: a virtual-world day and a PCG batch.
    let world = GamingConfig {
        players: PlayerModel { base_rate: 0.3, ..Default::default() },
        provisioning: ZoneProvisioning::Static { zones: 10 },
    };
    h.bench("fig4/world_day_static", |b| {
        b.iter(|| black_box(simulate_world(&world, SimTime::from_secs(86_400), 4)))
    });
    h.bench("fig4/pcg_10_instances", |b| {
        let generator = PuzzleGenerator { side: 3, scramble_moves: 20 };
        b.iter(|| {
            let mut rng = RngStream::new(4, "bench-pcg");
            black_box(generator.generate_batch(10, 100_000, &mut rng))
        })
    });

    // Figure 5: the FaaS platform's invocation throughput.
    let invocations = poisson_invocations("api", 1.0, SimTime::from_secs(3_600), 5);
    h.bench("fig5/run_3600s_of_invocations", |b| {
        b.iter(|| {
            let mut p =
                FaasPlatform::new(KeepAlivePolicy::Fixed(SimDuration::from_mins(10)), 5);
            p.deploy(FunctionSpec::api_handler("api"));
            black_box(p.run(invocations.clone()))
        })
    });

    h.finish();
}
