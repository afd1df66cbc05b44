//! Figure 5 — the FaaS reference architecture, measured: keep-alive
//! economics in the Function Management Layer and composition-depth
//! overhead in the Function Composition Layer.

use crate::f;
use mcs::prelude::*;

/// Figure 5 as an [`Experiment`].
pub struct Fig5FaasRefarch;

fn deploy(platform: &mut FaasPlatform) {
    platform.deploy(FunctionSpec::api_handler("api"));
    platform.deploy(FunctionSpec::data_processor("proc"));
}

impl Experiment for Fig5FaasRefarch {
    fn name(&self) -> &'static str {
        "fig5_faas_refarch"
    }

    fn run(&self, seed: u64) -> Report {
        let mut report =
            Report::new(self.name(), "Figure 5 — FaaS reference architecture").with_seed(seed);

        // Function Management Layer: keep-alive sweep (the paper's isolation
        // vs performance trade-off made concrete as cold-starts vs provider
        // cost).
        let mut rows = Vec::new();
        for window_secs in [0u64, 30, 120, 600, 1800, 7200] {
            let policy = if window_secs == 0 {
                KeepAlivePolicy::None
            } else {
                KeepAlivePolicy::Fixed(SimDuration::from_secs(window_secs))
            };
            let mut platform = FaasPlatform::new(policy, seed);
            deploy(&mut platform);
            let invocations = poisson_invocations("proc", 0.05, SimTime::from_secs(8 * 3600), seed);
            let (r, latency) = platform.run(invocations);
            rows.push(vec![
                window_secs.to_string(),
                f(r.cold_fraction, 3),
                f(latency.as_ref().map(|l| l.p50).unwrap_or(0.0), 2),
                f(latency.as_ref().map(|l| l.p95).unwrap_or(0.0), 2),
                f(r.billed_gb_secs, 0),
                f(r.provider_gb_secs, 0),
                r.peak_instances.to_string(),
            ]);
        }
        report = report.with_section(
            Section::new("Function Management Layer: keep-alive sweep (proc @ 0.05/s, 8 h)").table(
                &["keepalive-s", "cold-frac", "p50-s", "p95-s", "billed-GBs", "provider-GBs", "peak-inst"],
                rows,
            ),
        );

        // Burst behaviour: concurrency forces instance fan-out.
        let mut rows = Vec::new();
        for burst in [1usize, 4, 16, 64] {
            let mut platform =
                FaasPlatform::new(KeepAlivePolicy::Fixed(SimDuration::from_mins(5)), seed);
            deploy(&mut platform);
            let invocations: Vec<Invocation> = (0..burst)
                .map(|_| Invocation { function: "api".into(), at: SimTime::from_secs(1) })
                .collect();
            let (r, _) = platform.run(invocations);
            rows.push(vec![
                burst.to_string(),
                r.peak_instances.to_string(),
                f(r.cold_fraction, 2),
            ]);
        }
        report = report.with_section(
            Section::new("burst fan-out (N simultaneous invocations)")
                .table(&["burst", "peak-instances", "cold-frac"], rows),
        );

        // Function Composition Layer: overhead vs workflow depth.
        let mut rows = Vec::new();
        for depth in [1usize, 2, 4, 8, 16] {
            let mut platform =
                FaasPlatform::new(KeepAlivePolicy::Fixed(SimDuration::from_mins(10)), seed);
            deploy(&mut platform);
            let names: Vec<&str> = std::iter::repeat_n("api", depth).collect();
            let workflow =
                Composition { step_overhead_secs: 0.015, ..Composition::chain("wf", &names) };
            // Warm it, then measure.
            let _ = execute_composition(&mut platform, &workflow, SimTime::ZERO);
            let warm = execute_composition(&mut platform, &workflow, SimTime::from_secs(60));
            rows.push(vec![
                depth.to_string(),
                f(warm.latency_secs, 3),
                f(warm.exec_secs, 3),
                f(warm.overhead_secs, 3),
                f(100.0 * warm.overhead_secs / warm.latency_secs.max(1e-12), 1),
            ]);
        }
        report.with_section(
            Section::new("Function Composition Layer: latency vs depth (warm)")
                .table(&["depth", "latency-s", "exec-s", "overhead-s", "overhead-%"], rows)
                .line(
                    "shape check: longer keep-alive trades provider GB-s for cold-start fraction;\n\
                     bursts fan out instances 1:1; composition overhead grows linearly with depth.",
                ),
        )
    }
}
