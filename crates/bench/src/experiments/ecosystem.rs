//! The composed-ecosystem experiment: correlated failures striking an
//! autoscaled FaaS platform while a portfolio-governed batch scheduler
//! shares the same virtual timeline — all five subsystem actors in one
//! engine run, with every report row computed from the shared trace bus.

use crate::f;
use mcs::core::scenario::{Scenario, ScenarioConfig, ScenarioOutcome};
use mcs::prelude::*;
use mcs::simcore::metrics::{summarize_trace, trace_gauge};
use mcs::simcore::par;

/// The composed "ecosystem" run as an [`Experiment`].
pub struct EcosystemComposed;

fn config(seed: u64) -> ScenarioConfig {
    ScenarioConfig { seed, ..ScenarioConfig::default() }
}

fn run_with(seed: u64, autoscaler: Box<dyn Autoscaler>) -> ScenarioOutcome {
    Scenario::new(config(seed)).with_autoscaler(autoscaler).run()
}

impl Experiment for EcosystemComposed {
    fn name(&self) -> &'static str {
        "ecosystem_composed"
    }

    fn run(&self, seed: u64) -> Report {
        let mut report = Report::new(
            self.name(),
            "Composed ecosystem — failures vs autoscaled FaaS vs portfolio batch scheduling",
        )
        .with_seed(seed);

        let cfg = config(seed);
        let horizon = cfg.horizon;
        let faas_cfg = cfg.faas.clone().expect("default scenario attaches FaaS");
        let out = Scenario::new(cfg.clone()).run();

        // Cross-component event census, straight off the trace bus.
        let rows: Vec<Vec<String>> = out
            .trace
            .counts()
            .into_iter()
            .map(|(component, event, n)| vec![component, event, n.to_string()])
            .collect();
        report = report.with_section(
            Section::new("event census (one shared trace bus, all subsystems)")
                .table(&["component", "event", "count"], rows)
                .line(format!(
                    "engine delivered {} messages across 5 actors in {} h of virtual time",
                    out.events_handled,
                    f(horizon.as_secs_f64() / 3600.0, 1),
                )),
        );

        // FaaS service quality, aggregated from per-invocation trace records.
        let latency = summarize_trace(&out.trace, "faas", "invoke", "latency_secs");
        let capacity = trace_gauge(
            &out.trace,
            "faas",
            "scale",
            "capacity",
            faas_cfg.initial_capacity as f64,
        );
        let mut rows = vec![vec![
            "arrivals".to_owned(),
            out.arrivals.to_string(),
            "delivered by the workload actor".to_owned(),
        ]];
        rows.push(vec![
            "admitted".to_owned(),
            out.invoked.to_string(),
            "within the autoscaled capacity cap".to_owned(),
        ]);
        rows.push(vec![
            "rejected".to_owned(),
            out.rejected.to_string(),
            f(out.rejected as f64 / (out.arrivals.max(1)) as f64, 3) + " of arrivals",
        ]);
        if let Some(l) = &latency {
            rows.push(vec!["latency p50 (s)".to_owned(), f(l.p50, 3), "from trace".to_owned()]);
            rows.push(vec!["latency p95 (s)".to_owned(), f(l.p95, 3), "from trace".to_owned()]);
        }
        rows.push(vec![
            "cold fraction".to_owned(),
            f(out.faas.cold_fraction, 3),
            "warm pool repeatedly killed by failures".to_owned(),
        ]);
        rows.push(vec![
            "mean capacity".to_owned(),
            f(capacity.average_until(horizon), 2),
            format!("started at {}", faas_cfg.initial_capacity),
        ]);
        rows.push(vec![
            "governor decisions".to_owned(),
            out.governor_decisions.to_string(),
            format!("every {} s", faas_cfg.service.scaling_interval.as_secs_f64()),
        ]);
        report = report.with_section(
            Section::new("FaaS under autoscaling (aggregates from the trace bus)")
                .table(&["metric", "value", "note"], rows),
        );

        // Failure propagation: one injector event fans out to two subsystems.
        let rows = vec![
            vec![
                "outages generated".to_owned(),
                out.outages_generated.to_string(),
                "space-correlated model".to_owned(),
            ],
            vec![
                "outages delivered".to_owned(),
                out.outages_delivered.to_string(),
                "before the horizon".to_owned(),
            ],
            vec![
                "rms machine_fail".to_owned(),
                out.trace.count("rms", "machine_fail").to_string(),
                "scheduler saw every failure".to_owned(),
            ],
            vec![
                "faas kill_warm".to_owned(),
                out.trace.count("faas", "kill_warm").to_string(),
                "warm pool hit by the same failures".to_owned(),
            ],
            vec![
                "failure requeues".to_owned(),
                out.schedule.failure_requeues.to_string(),
                "batch tasks restarted".to_owned(),
            ],
            vec![
                "batch completions".to_owned(),
                out.schedule.completions.len().to_string(),
                format!("portfolio-governed, util {}", f(out.schedule.mean_utilization, 3)),
            ],
        ];
        report = report.with_section(
            Section::new("correlated failures fan out across subsystems")
                .table(&["metric", "value", "note"], rows),
        );

        // Autoscaler portfolio sweep over the identical composed scenario,
        // one scaler per fan-out worker (`MCS_PAR_WORKERS` sets the width).
        // Boxed scalers are not `Send`, so each worker rebuilds the portfolio
        // and takes its scaler by index; rows come back in portfolio order
        // whatever the worker count.
        let intervals_per_day = faas_cfg.service.intervals_per_day();
        let portfolio_len = standard_autoscalers(intervals_per_day).len();
        let rows: Vec<Vec<String>> = par::run_indexed(portfolio_len, |i| {
            let scaler = standard_autoscalers(intervals_per_day)
                .into_iter()
                .nth(i)
                .expect("portfolio index in range");
            let name = scaler.name().to_owned();
            let o = run_with(seed, scaler);
            let cap = trace_gauge(&o.trace, "faas", "scale", "capacity", 4.0);
            vec![
                name,
                o.rejected.to_string(),
                f(o.rejected as f64 / (o.arrivals.max(1)) as f64, 3),
                f(cap.average_until(horizon), 2),
                f(o.faas.provider_gb_secs, 0),
                o.governor_decisions.to_string(),
            ]
        });
        report.with_section(
            Section::new("autoscaler portfolio under identical failure pressure")
                .table(
                    &["autoscaler", "rejected", "rej-frac", "mean-cap", "provider-GBs", "decisions"],
                    rows,
                )
                .line(
                    "shape check: every subsystem emits onto one trace bus; failure events\n\
                     count identically at the injector, the scheduler, and the FaaS platform;\n\
                     reactive scalers trade rejections against provisioned capacity.",
                ),
        )
    }
}
