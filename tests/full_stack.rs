//! Full-stack integration: scenarios that cross three or more crates, the
//! ecosystem-wide view of challenge C1.

use mcs::prelude::*;

/// Workload → RMS → failures: a grid day survives correlated failures with
/// every admitted task completing.
#[test]
fn grid_day_with_correlated_failures_completes() {
    let machines = 24u32;
    let horizon = SimTime::from_secs(86_400);
    let cluster = Cluster::homogeneous(
        ClusterId(0),
        "grid",
        MachineSpec::commodity("std-8", 8.0, 32.0),
        machines,
    );
    let mut generator = BatchWorkloadGenerator::new(BatchWorkloadConfig {
        arrival_rate: 0.03,
        ..Default::default()
    });
    let mut rng = RngStream::new(42, "fullstack");
    let jobs = generator.generate(horizon, 800, &mut rng);
    let submitted_tasks: usize = jobs.iter().map(|j| j.tasks.len()).sum();

    let outages = SpaceCorrelatedFailures::with_mtbf(50.0 * 3600.0, machines as usize, 8)
        .generate(machines as usize, horizon, &mut RngStream::new(42, "fs-fail"));
    let mut sched =
        ClusterScheduler::new(cluster, SchedulerConfig::default(), 42).with_outages(outages);
    let out = sched.run(jobs, SimTime::from_secs(30 * 86_400));

    assert_eq!(out.unfinished, 0, "all feasible tasks must finish");
    assert_eq!(out.completions.len() + out.rejected, submitted_tasks);
    assert!(out.mean_utilization > 0.0 && out.mean_utilization <= 1.0);
}

/// Workflows of every `DagClass` respect dependencies end-to-end through the
/// batch scheduler once lowered with `DagJob::to_job`.
#[test]
fn workflow_dependencies_hold_under_load() {
    let cluster = Cluster::homogeneous(
        ClusterId(0),
        "wf",
        MachineSpec::commodity("std-4", 4.0, 16.0),
        8,
    );
    let shape = DagShape { width: 6, work: 90.0, cores: 1.0, memory_gb: 2.0, edge_bytes: 0 };
    let mut rng = RngStream::new(7, "wf-int");
    let workflows = poisson_workflows(0.01, &shape, SimTime::from_secs(4 * 3600), 30, &mut rng);
    // The stream cycles DagClass::ALL, so four workflows cover every class.
    assert!(workflows.len() >= DagClass::ALL.len(), "only {} workflows", workflows.len());
    let jobs: Vec<Job> = workflows
        .iter()
        .enumerate()
        .map(|(i, (at, dag))| dag.to_job(JobId(i as u64), UserId(0), *at))
        .collect();
    // Record dependency pairs for post-hoc verification.
    let mut dep_pairs = Vec::new();
    for j in &jobs {
        for t in &j.tasks {
            for d in &t.dependencies {
                dep_pairs.push((*d, t.id));
            }
        }
    }
    let mut sched = ClusterScheduler::new(cluster, SchedulerConfig::default(), 7);
    let out = sched.run(jobs, SimTime::from_secs(90 * 86_400));
    assert_eq!(out.unfinished, 0);
    let finish_of = |id: TaskId| {
        out.completions.iter().find(|c| c.task == id).map(|c| c.finish)
    };
    let start_of = |id: TaskId| {
        out.completions.iter().find(|c| c.task == id).map(|c| c.start)
    };
    for (dep, dependent) in dep_pairs {
        let (Some(f), Some(s)) = (finish_of(dep), start_of(dependent)) else {
            panic!("missing completion records");
        };
        assert!(s >= f, "task started before its dependency finished");
    }
}

/// Provisioning plan + scheduler + cost: elasticity saves machine-hours
/// without losing work.
#[test]
fn elastic_provisioning_preserves_work_and_saves_hours() {
    let horizon = SimTime::from_secs(86_400);
    let mut generator = BatchWorkloadGenerator::new(BatchWorkloadConfig {
        arrival_rate: 0.02,
        bursty: true,
        ..Default::default()
    });
    let mut rng = RngStream::new(5, "elastic");
    let jobs = generator.generate(horizon, 600, &mut rng);

    let mut policy = BacklogDriven { drain_target_secs: 3_600.0 };
    let plan = plan_provisioning(
        &jobs,
        8.0,
        2,
        32,
        SimDuration::from_mins(15),
        horizon,
        &mut policy,
    );
    let cluster = Cluster::homogeneous(
        ClusterId(0),
        "elastic",
        MachineSpec::commodity("std-8", 8.0, 32.0),
        32,
    );
    let mut sched = ClusterScheduler::new(cluster, SchedulerConfig::default(), 5)
        .with_outages(plan.outages.clone());
    let out = sched.run(jobs, SimTime::from_secs(30 * 86_400));
    assert_eq!(out.unfinished, 0);
    let static_hours = 32.0 * horizon.as_secs_f64() / 3600.0;
    assert!(plan.machine_hours < static_hours, "elastic must not exceed static");
}

/// NFR calculus + ecosystem + SLA: an SLA that a single system violates is
/// met by the ecosystem's collective (replicated) profile.
#[test]
fn ecosystem_collective_meets_sla_single_system_cannot() {
    let single = NfrProfile::new()
        .with(NfrKind::Availability, 0.99)
        .with(NfrKind::Throughput, 500.0);
    let eco = Ecosystem::new("pair")
        .with_system(SystemNode::new("a", "org1", "serve", single.clone()))
        .with_system(SystemNode::new("b", "org2", "serve", single.clone()));
    let sla = Sla {
        name: "three-nines".into(),
        slos: vec![Slo {
            name: "availability".into(),
            target: NfrTarget::new(NfrKind::Availability, 0.999),
            penalty: 1.0,
        }],
        penalty_cap: 1.0,
    };
    assert!(!sla.evaluate(&single).compliant);
    let collective = eco.collective_profile("serve").unwrap();
    assert!(sla.evaluate(&collective).compliant);
}

/// Autoscaling + workload: every standard autoscaler beats static-minimum
/// provisioning on unserved demand under a diurnal load.
#[test]
fn autoscalers_beat_static_minimum() {
    let rate = |t: SimTime| {
        200.0 + 150.0 * (t.as_secs_f64() / 86_400.0 * std::f64::consts::TAU).sin()
    };
    let config = ServiceConfig::default();
    let horizon = SimTime::from_secs(2 * 86_400);
    let mut static_min = StaticAutoscaler(1);
    let baseline = simulate_service(&rate, horizon, config, &mut static_min);
    for mut scaler in standard_autoscalers(24 * 60) {
        let out = simulate_service(&rate, horizon, config, scaler.as_mut());
        assert!(
            out.unserved_fraction < baseline.unserved_fraction / 2.0,
            "{} unserved {} vs static {}",
            scaler.name(),
            out.unserved_fraction,
            baseline.unserved_fraction
        );
    }
}

/// Graph + gaming: the analytics pipeline consumes the game's match logs.
#[test]
fn gaming_analytics_over_graph_substrate() {
    let model = PopulationModel { players: 200, communities: 4, ..Default::default() };
    let log = generate_matches(&model, 10_000, 3);
    let g = implicit_social_graph(&log, model.players, 3);
    // The implicit graph is a real mcs-graph Graph: run WCC on it.
    let components = wcc(&g, &BspEngine::parallel(2));
    assert_eq!(components.len(), model.players as usize);
    // The giant component should cover most active players.
    let mut counts = std::collections::HashMap::new();
    for c in &components {
        *counts.entry(*c).or_insert(0usize) += 1;
    }
    let giant = counts.values().copied().max().unwrap();
    assert!(giant > model.players as usize / 2);
}

/// Reference architectures validate the workspace's own deployments.
#[test]
fn workspace_deployments_cover_refarchs() {
    assert!(bigdata_refarch().is_executable(&["mcs-mapreduce", "mcs-mapreduce-engine", "mcs-blockstore"]));
    assert!(faas_refarch().is_executable(&["mcs-faas-platform", "mcs-rms", "mcs-infra"]));
    assert!(gaming_refarch().is_executable(&["mcs-world"]));
    assert!(datacenter_refarch()
        .is_executable(&["api-gateway", "mcs-scheduler", "mcs-provisioner", "mcs-infra"]));
}
