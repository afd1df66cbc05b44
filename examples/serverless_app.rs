//! Serverless application operation (§6.5, Figure 5): deploy a function
//! pipeline, sweep the keep-alive policy, and read the provider-vs-customer
//! cost trade-off.
//!
//! Run with: `cargo run --example serverless_app`

use mcs::prelude::*;

fn deploy(platform: &mut FaasPlatform) {
    platform.deploy(FunctionSpec::api_handler("validate"));
    platform.deploy(FunctionSpec::api_handler("enrich"));
    platform.deploy(FunctionSpec::data_processor("transcode"));
}

fn main() {
    println!("== serverless image pipeline (Fig. 5 layers) ==");

    // Function Composition Layer: validate -> enrich -> transcode.
    let workflow = Composition::chain("image-pipeline", &["validate", "enrich", "transcode"]);
    let mut platform = FaasPlatform::new(
        KeepAlivePolicy::Fixed(SimDuration::from_mins(10)),
        5,
    );
    deploy(&mut platform);
    let cold_run = execute_composition(&mut platform, &workflow, SimTime::ZERO);
    let warm_run =
        execute_composition(&mut platform, &workflow, SimTime::from_secs(60));
    println!(
        "workflow depth {}: cold run {:.2}s ({} cold starts), warm run {:.2}s ({} cold starts)",
        workflow.depth(),
        cold_run.latency_secs,
        cold_run.cold_starts,
        warm_run.latency_secs,
        warm_run.cold_starts,
    );

    // Function Management Layer: keep-alive sweep under Poisson traffic.
    println!("-- keep-alive sweep (rate 0.05/s for 8 h) --");
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>14}",
        "keep-alive", "cold-frac", "p95 latency", "billed GB-s", "provider GB-s"
    );
    for window_secs in [0u64, 60, 300, 1800, 7200] {
        let policy = if window_secs == 0 {
            KeepAlivePolicy::None
        } else {
            KeepAlivePolicy::Fixed(SimDuration::from_secs(window_secs))
        };
        let mut p = FaasPlatform::new(policy, 5);
        deploy(&mut p);
        let invocations =
            poisson_invocations("transcode", 0.05, SimTime::from_secs(8 * 3600), 5);
        let (report, latency) = p.run(invocations);
        println!(
            "{:>11}s {:>12.3} {:>11.2}s {:>14.1} {:>14.1}",
            window_secs,
            report.cold_fraction,
            latency.as_ref().map(|l| l.p95).unwrap_or(0.0),
            report.billed_gb_secs,
            report.provider_gb_secs,
        );
    }

    // The Fig. 5 coverage check: which layers does this deployment cover?
    let arch = faas_refarch();
    let deployment =
        ["workflow-engine", "mcs-faas-platform", "kubernetes", "vms"];
    println!(
        "reference architecture '{}': executable = {}",
        arch.name,
        arch.is_executable(&deployment),
    );
}
