//! Datacenter management (§6.1): operating the "digital factory" — elastic
//! provisioning, portfolio scheduling, correlated failures, and the
//! power/cost bill.
//!
//! Run with: `cargo run --example datacenter_operations`

use mcs::prelude::*;

const MACHINES: u32 = 32;
const CORES: f64 = 8.0;

fn cluster() -> Cluster {
    Cluster::homogeneous(
        ClusterId(0),
        "factory",
        MachineSpec::commodity("std-8", CORES, 32.0),
        MACHINES,
    )
}

fn main() {
    let horizon = SimTime::from_secs(86_400);
    let mut generator = BatchWorkloadGenerator::new(BatchWorkloadConfig {
        arrival_rate: 0.1,
        cpus: mcs::simcore::dist::Dist::LogNormal { mu: 0.5, sigma: 0.7 },
        ..Default::default()
    });
    let mut rng = RngStream::new(7, "dc-ops");
    let jobs = generator.generate(horizon, 4_000, &mut rng);
    println!("== datacenter operations: {} jobs over 1 day on {MACHINES} machines ==", jobs.len());

    // -- Failures: space-correlated bursts vs independent, equal MTBF (C1/C2).
    let mtbf = 200.0 * 3600.0;
    for (name, outages) in [
        (
            "independent",
            IndependentFailures::with_mtbf(mtbf).generate(
                MACHINES as usize,
                horizon,
                &mut RngStream::new(7, "fail-ind"),
            ),
        ),
        (
            "space-correlated",
            SpaceCorrelatedFailures::with_mtbf(mtbf, MACHINES as usize, 8).generate(
                MACHINES as usize,
                horizon,
                &mut RngStream::new(7, "fail-space"),
            ),
        ),
    ] {
        let report = analyze(&outages, MACHINES as usize, horizon);
        let mut sched = ClusterScheduler::new(cluster(), SchedulerConfig::default(), 7)
            .with_outages(outages);
        let outcome = sched.run(jobs.clone(), horizon + SimDuration::from_hours(48));
        println!(
            "failures[{name:>16}]: availability {:.4}, peak concurrent down {}, requeues {}, mean slowdown {:.2}",
            report.availability,
            report.peak_concurrent_failures,
            outcome.failure_requeues,
            outcome.mean_slowdown(),
        );
    }

    // -- Portfolio scheduling vs fixed policies (C6 approach iv).
    println!("-- scheduling policies --");
    for config in default_portfolio() {
        let out = ClusterScheduler::new(cluster(), config, 7)
            .run(jobs.clone(), horizon + SimDuration::from_hours(48));
        println!(
            "fixed[{:>5}/{:<13}]: mean response {:>8.1}s, utilization {:.1}%",
            config.queue.name(),
            config.allocation.name(),
            out.mean_response_secs(),
            out.mean_utilization * 100.0,
        );
    }
    let mut selector = PortfolioSelector::new(default_portfolio(), Objective::MeanResponse, 7);
    let out = ClusterScheduler::new(cluster(), SchedulerConfig::default(), 7).run_adaptive(
        jobs.clone(),
        horizon + SimDuration::from_hours(48),
        &mut selector,
        SimDuration::from_mins(30),
    );
    println!(
        "portfolio          : mean response {:>8.1}s, utilization {:.1}%, {} portfolio decisions",
        out.mean_response_secs(),
        out.mean_utilization * 100.0,
        selector.decisions().len(),
    );

    // -- Elastic provisioning vs static (the dual problem's first half).
    println!("-- provisioning --");
    let mut backlog_policy = BacklogDriven { drain_target_secs: 1800.0 };
    let plan = plan_provisioning(
        &jobs,
        CORES,
        2,
        MACHINES as usize,
        SimDuration::from_mins(15),
        horizon,
        &mut backlog_policy,
    );
    let mut sched = ClusterScheduler::new(cluster(), SchedulerConfig::default(), 7)
        .with_outages(plan.outages.clone());
    let elastic = sched.run(jobs.clone(), horizon + SimDuration::from_hours(48));
    let static_hours = MACHINES as f64 * horizon.as_secs_f64() / 3600.0;
    println!(
        "static : {:>8.0} machine-hours, mean response baseline",
        static_hours
    );
    println!(
        "elastic: {:>8.0} machine-hours ({:.0}% of static), mean response {:.1}s, requeue-kills {}",
        plan.machine_hours,
        100.0 * plan.machine_hours / static_hours,
        elastic.mean_response_secs(),
        elastic.failure_requeues,
    );

    // -- The bill (power + machine-hours).
    let cost_model = CostModel::default_cloud();
    let spec = MachineSpec::commodity("std-8", CORES, 32.0);
    let mean_util = elastic.mean_utilization;
    let kwh = plan.machine_hours * spec.power.watts(mean_util) / 1000.0;
    let money = cost_model.cost(
        kwh,
        SimDuration::from_secs_f64(plan.machine_hours * 3600.0),
        spec.cost_per_hour,
    );
    println!("bill   : {kwh:.0} kWh, {money:.2} currency units over the day");
}
