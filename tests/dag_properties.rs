//! Property-based tests on the workflow substrate (`mcs-dag`): generator
//! validity, HEFT rank monotonicity, fan-out determinism, and the E8
//! portfolio-dominance shape. Randomized properties run on the in-house
//! seeded harness ([`mcs::simcore::check::Check`]), so a failure prints the
//! exact seed needed to replay it.

use mcs::core::scenario::{DagConfig, DagPolicy, NetworkConfig, Scenario, ScenarioConfig};
use mcs::prelude::*;
use mcs::simcore::par;
use mcs_simcore::prop_assert;

/// Every generated workflow is a valid DAG: a complete topological order
/// exists (acyclic), every edge points forward in it, and regeneration from
/// the same seed is bit-identical — for arbitrary classes, widths, and
/// shape parameters. Weak connectivity is enforced by `DagJob::new` at
/// construction, so merely returning is already half the property.
#[test]
fn generated_workflows_are_valid_and_deterministic() {
    Check::new("generated_workflows_are_valid_and_deterministic").cases(96).run(|rng| {
        let class = DagClass::ALL[rng.uniform_usize(DagClass::ALL.len())];
        let shape = DagShape {
            width: 1 + rng.uniform_usize(12),
            work: rng.uniform_f64(10.0, 500.0),
            cores: rng.uniform_f64(0.5, 4.0),
            memory_gb: rng.uniform_f64(0.5, 8.0),
            edge_bytes: 1 + rng.uniform_usize(64 << 20) as u64,
        };
        let seed = rng.uniform_usize(1 << 20) as u64;
        let dag = generate(class, &shape, &mut RngStream::new(seed, "dag-prop"));

        // Acyclic: Kahn's algorithm covered every task.
        let order = dag.topo_order();
        prop_assert!(order.len() == dag.len(), "topo order misses tasks: cycle");
        let mut position = vec![0usize; dag.len()];
        for (pos, &task) in order.iter().enumerate() {
            position[task] = pos;
        }
        for edge in dag.edges() {
            prop_assert!(
                position[edge.from] < position[edge.to],
                "edge {}->{} points backward in topo order",
                edge.from,
                edge.to
            );
        }
        for task in dag.tasks() {
            prop_assert!(task.work > 0.0 && task.cores > 0.0 && task.memory_gb > 0.0);
        }

        // Deterministic: the (seed, class, shape) triple pins the workflow.
        let again = generate(class, &shape, &mut RngStream::new(seed, "dag-prop"));
        prop_assert!(dag == again, "same seed produced a different workflow");
        Ok(())
    });
}

/// HEFT upward ranks are strictly monotone along every edge: a parent's
/// rank exceeds its child's by at least the parent's own execution time,
/// for every class and arbitrary shapes/bandwidths.
#[test]
fn heft_upward_ranks_strictly_dominate_children() {
    Check::new("heft_upward_ranks_strictly_dominate_children").cases(64).run(|rng| {
        let class = DagClass::ALL[rng.uniform_usize(DagClass::ALL.len())];
        let shape = DagShape {
            width: 1 + rng.uniform_usize(10),
            work: rng.uniform_f64(10.0, 300.0),
            cores: rng.uniform_f64(0.5, 4.0),
            memory_gb: 2.0,
            edge_bytes: 1 + rng.uniform_usize(32 << 20) as u64,
        };
        let seed = rng.uniform_usize(1 << 20) as u64;
        let dag = generate(class, &shape, &mut RngStream::new(seed, "dag-rank"));
        let ref_bandwidth = rng.uniform_f64(1.0, 1_000.0) * 1024.0 * 1024.0;
        let ranks = dag.upward_ranks(ref_bandwidth);
        for edge in dag.edges() {
            let parent_exec = dag.tasks()[edge.from].exec_secs();
            prop_assert!(
                ranks[edge.from] >= ranks[edge.to] + parent_exec - 1e-9,
                "rank({}) = {} does not dominate rank({}) = {} + exec {}",
                edge.from,
                ranks[edge.from],
                edge.to,
                ranks[edge.to],
                parent_exec
            );
            prop_assert!(ranks[edge.from] > ranks[edge.to], "parent must strictly outrank child");
        }
        // The rank of a source bounds the compute-only critical path from
        // below once transfers are free (infinite bandwidth ranks ignore
        // edges entirely).
        let free = dag.upward_ranks(f64::INFINITY);
        let top = free.iter().cloned().fold(0.0, f64::max);
        prop_assert!(
            (top - dag.critical_path_secs(f64::INFINITY)).abs() < 1e-6,
            "max upward rank {} must equal the compute-only critical path {}",
            top,
            dag.critical_path_secs(f64::INFINITY)
        );
        Ok(())
    });
}

/// A DAG-tenant scenario — workflows whose edges ride the shared fabric —
/// is deterministic and worker-count independent: sweeping seeds at any
/// `MCS_PAR_WORKERS` width returns identical traces in identical order.
#[test]
fn dag_scenario_fanout_is_worker_count_independent() {
    fn replicate(seed: u64) -> (u64, u64, String) {
        let config = ScenarioConfig::bare(seed, SimTime::from_secs(2 * 3600), 16)
            .with_dag(DagConfig { jobs: 4, ..DagConfig::default() })
            .with_network(NetworkConfig::default());
        let out = Scenario::new(config).run();
        (out.events_handled, out.dag_tasks_finished, out.trace.to_json_string())
    }

    let seeds: Vec<u64> = (42..46).collect();
    let reference: Vec<(u64, u64, String)> = seeds.iter().map(|&s| replicate(s)).collect();
    for (seed, (_, tasks, _)) in seeds.iter().zip(&reference) {
        assert!(*tasks > 0, "seed {seed} finished no workflow tasks");
    }
    for workers in [1, 2, 4] {
        let got = par::run_indexed_with(workers, seeds.len(), |i| replicate(seeds[i]));
        assert!(got == reference, "dag sweep diverged at workers={workers}");
    }
}

/// The E8 dominance shape at the pinned seed: the per-class portfolio's
/// mixed-class mean makespan meets or beats every fixed policy, with the
/// same jobs finished, on the same fabric.
#[test]
fn portfolio_meets_or_beats_every_fixed_policy_at_seed_42() {
    fn run(policy: DagPolicy) -> (u64, f64) {
        let config = ScenarioConfig::bare(42, SimTime::from_secs(4 * 3600), 32)
            .with_dag(DagConfig { edge_mb: 128.0, policy, ..DagConfig::default() })
            .with_network(NetworkConfig {
                node_bandwidth_mbs: 50.0,
                rack_bandwidth_mbs: 200.0,
                ..NetworkConfig::default()
            });
        let out = Scenario::new(config).run();
        (out.dag_jobs_finished, out.dag_mean_makespan_secs)
    }

    let (jobs, portfolio) = run(DagPolicy::Portfolio);
    assert!(jobs > 0, "portfolio run must finish workflows");
    for fixed in [DagPolicy::Heft, DagPolicy::Greedy, DagPolicy::Locality] {
        let (fixed_jobs, makespan) = run(fixed);
        assert_eq!(fixed_jobs, jobs, "{} finished a different job count", fixed.name());
        assert!(
            portfolio <= makespan + 1e-9,
            "portfolio {portfolio:.1}s must meet or beat {} {makespan:.1}s",
            fixed.name()
        );
    }
}

/// Digest of the rendered trace JSON under simcore's `FastHasher`, an
/// FxHash-style multiply-rotate hash (not FNV-1a): a change to that hasher
/// moves the pinned values.
fn trace_digest(trace: &TraceBus) -> u64 {
    use std::hash::Hasher;
    let mut h = mcs_simcore::intern::FastHasher::default();
    h.write(trace.to_json_string().as_bytes());
    h.finish()
}

/// Runs a standalone `DagActor` on a saturated 8-machine pool — 40 mixed
/// 16-wide workflows, one every 5 s, so the ready queue backs up far past
/// the 32 task slots — and digests its trace.
fn saturated_dag_digest(policy: DagPolicy, seed: u64) -> u64 {
    use mcs::simcore::engine::Simulation;
    let cfg = DagConfig {
        jobs: 40,
        width: 16,
        submit_interval_secs: 5.0,
        policy,
        ..DagConfig::default()
    };
    let mut rng = RngStream::new(seed, "dag");
    let mut actor: DagActor<'_, DagMsg> = DagActor::new(8, cfg, &mut rng);
    let mut sim: Simulation<'_, DagMsg> = Simulation::new(seed);
    let id = sim.add_actor(&mut actor);
    sim.schedule(SimTime::ZERO, id, DagMsg::Start);
    sim.run();
    let digest = trace_digest(sim.trace());
    drop(sim);
    assert_eq!(actor.jobs_finished(), 40, "{} seed {seed}", policy.name());
    digest
}

/// A hand-built fan-out whose tasks ask for different, partly incomparable
/// core/memory footprints, so a placement pass sees requests that are
/// larger in one dimension and smaller in the other.
fn mixed_request_dag() -> DagJob {
    let mut tasks = vec![DagTask { work: 30.0, cores: 1.0, memory_gb: 1.0 }];
    let footprints = [
        (4.0, 8.0),
        (6.0, 4.0),
        (2.0, 24.0),
        (8.0, 16.0),
        (3.0, 3.0),
        (5.0, 30.0),
        (1.0, 1.0),
        (7.0, 7.0),
        (2.0, 2.0),
        (6.0, 20.0),
        (1.5, 12.0),
        (4.0, 4.0),
    ];
    for (i, &(cores, memory_gb)) in footprints.iter().enumerate() {
        tasks.push(DagTask { work: 40.0 + 15.0 * i as f64, cores, memory_gb });
    }
    tasks.push(DagTask { work: 20.0, cores: 2.0, memory_gb: 2.0 });
    let sink = tasks.len() - 1;
    let mut edges = Vec::new();
    for t in 1..sink {
        edges.push(DagEdge { from: 0, to: t, bytes: (t as u64) << 22 });
        edges.push(DagEdge { from: t, to: sink, bytes: (sink as u64 - t as u64) << 21 });
    }
    DagJob::new(tasks, edges).expect("valid fan-out")
}

/// Every predicted makespan, as bits: each `DagClass` at width 16, then the
/// mixed-request fan-out, under each standard portfolio candidate.
fn pinned_lookahead_bits() -> Vec<u64> {
    let spec = DagClusterSpec { machines: 8, cores_per_machine: 8.0, memory_per_machine_gb: 32.0 };
    let shape =
        DagShape { width: 16, work: 120.0, cores: 2.0, memory_gb: 4.0, edge_bytes: 32 << 20 };
    let bw = 100.0 * 1024.0 * 1024.0;
    let mut rng = RngStream::new(42, "dag-pin");
    let mut cases: Vec<(DagJob, DagClusterSpec)> =
        DagClass::ALL.iter().map(|&c| (generate(c, &shape, &mut rng), spec)).collect();
    // Two machines, so the fan-out's footprints contend for room.
    cases.push((mixed_request_dag(), DagClusterSpec { machines: 2, ..spec }));
    let portfolio = DagPortfolio::standard(4);
    let mut bits = Vec::new();
    for (dag, spec) in &cases {
        for policy in portfolio.candidates() {
            bits.push(lookahead_makespan(dag, spec, bw, policy.as_ref()).to_bits());
        }
    }
    bits
}

/// Placement passes must stay exactly as they were when they only did work
/// that mattered: these traces and predicted makespans were captured from
/// the pass that re-sorted and re-probed the whole ready queue after every
/// message, and any change to what gets placed where, or when, moves them.
#[test]
fn dag_dispatch_and_lookahead_match_pinned_values() {
    const DIGESTS: [(DagPolicy, u64, u64); 8] = [
        (DagPolicy::Heft, 3, 3552793705539526887),
        (DagPolicy::Heft, 42, 8445725738016366576),
        (DagPolicy::Greedy, 3, 13299397750361149006),
        (DagPolicy::Greedy, 42, 12862776299424536192),
        (DagPolicy::Locality, 3, 5379637570310653382),
        (DagPolicy::Locality, 42, 11210776220047309941),
        (DagPolicy::Portfolio, 3, 12614467827541200826),
        (DagPolicy::Portfolio, 42, 2582246096213658823),
    ];
    const LOOKAHEAD_BITS: [u64; 15] = [
        // chain: heft, greedy, locality
        4651380130579084292, 4651380130579084292, 4651380130579084292,
        // fork_join: heft, greedy, locality
        4640214328832378864, 4640227403551017599, 4640214250458285409,
        // montage: heft, greedy, locality
        4646010361484383788, 4646010557169636907, 4646006915632961067,
        // ligo: heft, greedy, locality
        4644858341409197967, 4644863818270124329, 4644858249133167790,
        // mixed fan-out: heft, greedy, locality
        4640417434262193471, 4640712279300297882, 4640416730574751694,
    ];
    let digests: Vec<(DagPolicy, u64, u64)> = DIGESTS
        .iter()
        .map(|&(policy, seed, _)| (policy, seed, saturated_dag_digest(policy, seed)))
        .collect();
    assert_eq!(digests, DIGESTS, "standalone DagActor traces drifted");
    assert_eq!(pinned_lookahead_bits(), LOOKAHEAD_BITS, "lookahead makespans drifted");
}
