//! # mcs-bench — experiment harness for every figure and table of the paper
//!
//! One binary per paper artifact regenerates its rows/series
//! (`cargo run -p mcs-bench --release --bin <experiment>`):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1_bigdata_ecosystem` | Figure 1 — big-data stack, MapReduce vs Pregel sub-ecosystems |
//! | `fig2_evolution_timeline` | Figure 2 — technology evolution / lock-in dynamics |
//! | `fig3_datacenter_refarch` | Figure 3 — datacenter layers, full-stack run |
//! | `fig4_gaming_ecosystem` | Figure 4 — gaming functions |
//! | `fig5_faas_refarch` | Figure 5 — FaaS layers |
//! | `table1_methods` | Table 1 — measurement vs simulation vs formal model |
//! | `table2_principles` | Table 2 — the systems principles quantified |
//! | `table3_challenges` | Table 3 — one scenario per systems challenge |
//! | `table4_use_cases` | Table 4 — the six use-case domains |
//! | `table5_paradigms` | Table 5 — cluster/grid/cloud/MCS operating models |
//! | `ecosystem_composed` | Composed ecosystem — failures vs autoscaled FaaS vs portfolio batch (one engine run) |
//! | `resilience_ablation` | Resilience ablation — baseline vs retry/breaker/shedder/restart vs all-on under mixed faults |
//! | `ecosystem_full` | Full stack — the composed run plus bigdata + graph + gaming on one engine |
//! | `locality_contention` | Locality-aware vs blind placement contending on the `mcs-net` fabric |
//! | `chaos_sweep` | Chaos campaign — scripted fault schedules vs the trace-invariant suite, ddmin-shrunk reproducers (`--check-invariants` gates the golden default trace) |
//! | `scale_stress` | Streaming observability at scale — bounded-memory trace sinks vs full retention at 10M+ events |
//! | `dag_portfolio` | DAG workflow portfolio scheduling — per-class simulate-ahead vs every fixed policy on the shared fabric |
//!
//! Each binary is a thin wrapper over an [`experiments`] type implementing
//! [`mcs::experiment::Experiment`]; [`run_cli`] handles seed selection and
//! rendering, so `<experiment> [seed]` reruns any artifact at any seed.
//!
//! The sweep-shaped experiments (`ecosystem_composed`'s autoscaler
//! portfolio, `resilience_ablation`'s grid, `chaos_sweep`'s schedule×seed
//! campaign) fan replications out over
//! `mcs::simcore::par` worker threads; `MCS_PAR_WORKERS` sets the width and
//! the output is byte-identical at any setting.
//!
//! In-house benches (`cargo bench -p mcs-bench`) time the kernels behind
//! each artifact plus the ablations called out in DESIGN.md, using the
//! wall-clock [`harness`]. End-to-end and per-layer performance is measured
//! by the repository benchmark (`benchmark/`, contract in `BENCHMARK.json`),
//! which reads peak heap from [`peakmem`].

use mcs::experiment::Experiment;
use mcs::prelude::*;

pub mod experiments;
pub mod harness;
pub mod peakmem;

/// The seed every experiment binary uses unless overridden.
pub const DEFAULT_SEED: u64 = 42;

/// Runs one experiment as a command-line program: the seed comes from the
/// first CLI argument if present, else the `MCS_SEED` environment variable,
/// else [`DEFAULT_SEED`]; the rendered report goes to stdout.
pub fn run_cli(experiment: &dyn Experiment) {
    let seed = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("MCS_SEED").ok())
        .map(|s| {
            s.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("invalid seed {s:?}: expected a u64");
                std::process::exit(2);
            })
        })
        .unwrap_or(DEFAULT_SEED);
    print!("{}", experiment.run(seed).render());
}

/// A standard 32-machine commodity cluster.
pub fn standard_cluster() -> Cluster {
    Cluster::homogeneous(
        ClusterId(0),
        "bench",
        MachineSpec::commodity("std-8", 8.0, 32.0),
        32,
    )
}

/// A heterogeneous cluster: commodity plus GPU machines (C4).
pub fn mixed_cluster() -> Cluster {
    let mut c = Cluster::new(ClusterId(0), "mixed");
    for _ in 0..24 {
        c.add_machine(MachineSpec::commodity("std-8", 8.0, 32.0));
    }
    for _ in 0..8 {
        c.add_machine(MachineSpec::gpu("gpu-8", 8.0, 64.0, 2.0));
    }
    c
}

/// A day of bursty batch jobs at moderate load.
pub fn batch_day(seed: u64, max_jobs: usize) -> Vec<Job> {
    let mut generator = BatchWorkloadGenerator::new(BatchWorkloadConfig {
        arrival_rate: 0.08,
        cpus: mcs::simcore::dist::Dist::LogNormal { mu: 0.5, sigma: 0.7 },
        ..Default::default()
    });
    let mut rng = RngStream::new(seed, "bench-batch");
    generator.generate(SimTime::from_secs(86_400), max_jobs, &mut rng)
}

/// The long horizon used to drain bench workloads.
pub fn drain_horizon() -> SimTime {
    SimTime::from_secs(60 * 86_400)
}

/// Formats a float with the given precision.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}
