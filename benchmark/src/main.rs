//! The repository benchmark: end-to-end host time and memory of four
//! workloads with tracing off, and a separate per-layer run that replays
//! each layer's recorded inputs. See `README.md`.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced]
//!           [--json OUT] [--spans OUT]
//! benchmark --compare BASE.json NEW.json
//! ```
//!
//! Every line but the last reads `<workload> <metric> <value> <unit>`; the
//! last is one JSON object with `correct`, `attempted`, `failed` and the
//! contract's metrics (prefixed `<workload>/` when several workloads ran).

mod compare;
mod e2e;
mod layers;
mod spans;
mod stats;
mod timed;
mod workloads;

use compare::Contract;
use mcs::simcore::codec::Json;
use spans::Spans;
use stats::Samples;
use workloads::{Workload, WORKLOADS};

/// Default run length per workload and mode, seconds.
const DEFAULT_SECONDS: f64 = 16.0;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    end_to_end: bool,
    per_layer: bool,
    json: Option<String>,
    spans: Option<String>,
}

fn usage(problem: &str) -> ! {
    eprintln!("benchmark: {problem}");
    eprintln!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced] \
         [--json OUT] [--spans OUT]\n       benchmark --compare BASE.json NEW.json"
    );
    std::process::exit(2);
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        workload: None,
        seed: workloads::PINNED_SEED,
        seconds: DEFAULT_SECONDS,
        end_to_end: true,
        per_layer: false,
        json: None,
        spans: None,
    };
    while let Some(flag) = raw.next() {
        let mut value = || {
            raw.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a u64"))
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && (0.0..=3600.0).contains(s))
                    .unwrap_or_else(|| usage("--seconds takes a number in 0..=3600"))
            }
            "--trace" => match value().as_str() {
                "0" => (args.end_to_end, args.per_layer) = (true, false),
                "1" => (args.end_to_end, args.per_layer) = (false, true),
                _ => usage("--trace takes 0 or 1"),
            },
            "--traced" => (args.end_to_end, args.per_layer) = (true, true),
            "--json" => args.json = Some(value()),
            "--spans" => args.spans = Some(value()),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    args
}

/// One measured metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// First and third quartiles of the per-rep samples, where there are
    /// samples.
    quartiles: Option<(f64, f64)>,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            quartiles: None,
        }
    }

    fn of(name: &'static str, unit: &'static str, samples: &Samples) -> Self {
        Metric {
            quartiles: Some(samples.quartiles()),
            ..Metric::new(name, unit, samples.median())
        }
    }

    /// `{"value": .., "unit": ..}`, plus the quartiles when `quartiles`.
    fn to_json(&self, quartiles: bool) -> Json {
        let mut fields = vec![
            ("value".into(), Json::Float(self.value)),
            ("unit".into(), Json::Str(self.unit.into())),
        ];
        if let (true, Some((q1, q3))) = (quartiles, self.quartiles) {
            fields.push(("q1".into(), Json::Float(q1)));
            fields.push(("q3".into(), Json::Float(q3)));
        }
        Json::Obj(fields)
    }
}

/// One run's metrics, as printed and written.
struct Run {
    workload: &'static str,
    kind: &'static str,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl Run {
    fn print(&self) {
        for m in &self.metrics {
            println!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        for e in &self.errors {
            eprintln!("{} {}: {e}", self.workload, self.kind);
        }
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name.into(), m.to_json(true)))
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.into())),
            ("kind".into(), Json::Str(self.kind.into())),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

fn end_to_end(workload: &'static Workload, args: &Args) -> Run {
    let reps = e2e::rep_count(workload, args.seconds);
    let r = e2e::run(workload, args.seed, reps, 1.75 * args.seconds + 2.0);
    if let Some((p, value, beyond)) = r.run_s.tail() {
        eprintln!(
            "{} run_s p{p} {value} s ({beyond} of {} reps beyond; not gated)",
            workload.name,
            r.run_s.len()
        );
    }
    Run {
        workload: workload.name,
        kind: "end_to_end",
        attempted: r.tally.attempted,
        failed: r.tally.failed,
        errors: r.tally.errors.clone(),
        metrics: vec![
            Metric::of("run_s", "s", &r.run_s),
            Metric::new("peak_heap_mib", "MiB", r.peak_heap_bytes as f64 / MIB),
            Metric::of("setup_s", "s", &r.setup_s),
            Metric::new("failed_frac", "frac", r.tally.failed_frac()),
        ],
    }
}

/// The per-layer run stops after half the run length: its numbers are
/// medians over replays, which settle in fewer reps, and the whole default
/// run then stays under two minutes.
fn per_layer(workload: &'static Workload, args: &Args, spans: &mut Spans) -> Run {
    let r = layers::run(workload, args.seed, args.seconds / 2.0, spans);
    let metrics = layers::METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, unit, layers::value(&r.values, name)))
        .collect();
    Run {
        workload: workload.name,
        kind: "per_layer",
        attempted: r.attempted,
        failed: r.failed,
        errors: r.errors,
        metrics,
    }
}

/// The last line: the contract's metrics of every run, checked present.
fn summary(runs: &[Run], contract: &Contract, prefix: bool) -> Json {
    let mut correct = runs.iter().all(|r| r.failed == 0);
    let mut metrics = Vec::new();
    for run in runs {
        let specs = if run.kind == "end_to_end" {
            &contract.end_to_end
        } else {
            &contract.per_layer
        };
        for spec in specs {
            let found = run
                .metrics
                .iter()
                .find(|m| m.name == spec.name && m.unit == spec.unit);
            let Some(metric) = found else {
                eprintln!("{}: no metric {} in {}", run.workload, spec.name, spec.unit);
                correct = false;
                continue;
            };
            let key = if prefix {
                format!("{}/{}", run.workload, spec.name)
            } else {
                spec.name.clone()
            };
            metrics.push((key.into(), metric.to_json(false)));
        }
    }
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::UInt(runs.iter().map(|r| r.attempted).sum()),
        ),
        (
            "failed".into(),
            Json::UInt(runs.iter().map(|r| r.failed).sum()),
        ),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

fn write(path: &str, doc: &Json) {
    if let Err(e) = std::fs::write(path, doc.encode() + "\n") {
        eprintln!("benchmark: write {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("--compare") {
        let (Some(base), Some(new), None) = (raw.nth(1), raw.next(), raw.next()) else {
            usage("--compare takes BASE.json NEW.json");
        };
        match compare::compare(&base, &new) {
            Ok(rows) => rows.iter().for_each(|row| println!("{row}")),
            Err(e) => {
                eprintln!("benchmark: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = parse_args(raw);
    let contract = compare::contract().unwrap_or_else(|e| usage(&e));
    let selected: Vec<&'static Workload> = match &args.workload {
        Some(name) => {
            vec![workloads::find(name).unwrap_or_else(|| usage(&format!("no workload {name:?}")))]
        }
        None => WORKLOADS.iter().collect(),
    };

    let mut spans = Spans::default();
    let mut runs = Vec::new();
    for &workload in &selected {
        if args.end_to_end {
            runs.push(end_to_end(workload, &args));
            runs.last().expect("just pushed").print();
        }
        if args.per_layer {
            runs.push(per_layer(workload, &args, &mut spans));
            runs.last().expect("just pushed").print();
        }
    }
    if let Some(path) = &args.json {
        let doc = Json::Obj(vec![
            ("seed".into(), Json::UInt(args.seed)),
            ("seconds".into(), Json::Float(args.seconds)),
            (
                "runs".into(),
                Json::Arr(runs.iter().map(Run::to_json).collect()),
            ),
        ]);
        write(path, &doc);
    }
    if let Some(path) = &args.spans {
        write(path, &spans.to_json());
    }
    println!("{}", summary(&runs, &contract, selected.len() > 1).encode());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract names exactly the workloads and metrics the benchmark
    /// measures, with the same units.
    #[test]
    fn contract_matches_the_benchmark() {
        let contract = compare::contract().unwrap();
        let doc = Json::parse(compare::CONTRACT).unwrap();
        let Some(Json::Arr(listed)) = doc.get("workloads") else {
            panic!("no workloads")
        };
        let listed: Vec<String> = listed.iter().map(|w| w.field("name").unwrap()).collect();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, names);
        let e2e = [("run_s", "s"), ("peak_heap_mib", "MiB"), ("setup_s", "s")];
        let got: Vec<(&str, &str)> = contract
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(got, e2e);
        for m in &contract.per_layer {
            assert!(
                layers::METRICS.contains(&(m.name.as_str(), m.unit.as_str())),
                "{} ({}) is not measured",
                m.name,
                m.unit
            );
        }
        let setup_bound = contract.end_to_end[2].bound.unwrap();
        assert!(contract
            .end_to_end
            .iter()
            .all(|m| m.bound.unwrap() <= setup_bound));
    }
}
