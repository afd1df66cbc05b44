//! e-Science across a federation (§6.2 + C10): Montage-like workflow
//! ensembles from multiple labs, scheduled across geo-distributed clusters
//! with overload offloading.
//!
//! Run with: `cargo run --example escience_federation`

use mcs::prelude::*;

fn make_clusters() -> (Vec<Cluster>, Vec<DatacenterId>, Topology) {
    let big = Cluster::homogeneous(
        ClusterId(0),
        "university-hpc",
        MachineSpec::commodity("std-16", 16.0, 64.0),
        16,
    );
    let small = Cluster::homogeneous(
        ClusterId(0),
        "lab-cluster",
        MachineSpec::commodity("std-8", 8.0, 32.0),
        4,
    );
    let ams = GeoLocation { lat_deg: 52.37, lon_deg: 4.89 };
    let lyon = GeoLocation { lat_deg: 45.76, lon_deg: 4.84 };
    let mut topology = Topology::new(2);
    topology.connect(DatacenterId(0), DatacenterId(1), Link::wan_between(ams, lyon, 10.0));
    (vec![big, small], vec![DatacenterId(0), DatacenterId(1)], topology)
}

fn workflows(seed: u64) -> Vec<Job> {
    let shape = DagShape { width: 12, work: 600.0, cores: 1.0, memory_gb: 2.0, edge_bytes: 0 };
    let mut rng = RngStream::new(seed, "escience");
    poisson_workflows(0.01, &shape, SimTime::from_secs(86_400), 240, &mut rng)
        .into_iter()
        .enumerate()
        // Every lab submits from the small campus cluster (home = 1): the
        // C10 question is whether the federation relieves it.
        .map(|(i, (at, dag))| dag.to_job(JobId(i as u64), UserId(1), at))
        .collect()
}

fn main() {
    let jobs = workflows(11);
    let tasks: usize = jobs.iter().map(|j| j.tasks.len()).sum();
    println!("== e-science federation: {} workflows, {} tasks ==", jobs.len(), tasks);

    let horizon = SimTime::from_secs(14 * 86_400);
    for policy in [
        RoutingPolicy::HomeOnly,
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastBacklog,
        RoutingPolicy::LocalFirstOffload { threshold_secs: 900.0 },
    ] {
        let (clusters, sites, topology) = make_clusters();
        let mut federation = Federation::new(
            clusters,
            sites,
            topology,
            SchedulerConfig::default(),
            policy,
            11,
        );
        let out = federation.run(jobs.clone(), horizon);
        println!(
            "routing[{:>13}]: mean response {:>8.1}s, offloaded {:>3} jobs, transfer delay {:>6.1}s, split {:?}",
            policy.name(),
            out.mean_response_secs(),
            out.offloaded_jobs,
            out.transfer_delay_secs,
            out.jobs_per_cluster,
        );
    }

    // Critical-path analysis of one ensemble member (the e-science
    // scheduling lower bound).
    let shape = DagShape { width: 12, work: 120.0, cores: 1.0, memory_gb: 2.0, edge_bytes: 0 };
    let dag = generate(DagClass::Montage, &shape, &mut RngStream::new(3, "cp"));
    println!(
        "example montage-like DAG: {} tasks, {} edges, critical path {:.0}s",
        dag.len(),
        dag.edges().len(),
        dag.critical_path_secs(f64::INFINITY),
    );
}
