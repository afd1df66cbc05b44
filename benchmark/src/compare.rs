//! The metric contract in `BENCHMARK.json`, and `--compare` of two result
//! files against its bounds.

use mcs::simcore::codec::Json;

/// `BENCHMARK.json`, compiled in so the benchmark and its contract cannot
/// drift apart.
pub const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// One metric of the contract.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base median the metric may worsen by; end-to-end only.
    pub bound: Option<f64>,
}

/// The parsed contract.
pub struct Contract {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        return Err(format!("BENCHMARK.json: `{key}` is not a list"));
    };
    items
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.field::<String>(k)
                    .map_err(|e| format!("BENCHMARK.json {key}: {e}"))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Parses the compiled-in contract.
pub fn contract() -> Result<Contract, String> {
    let doc = Json::parse(CONTRACT).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(Contract {
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

/// A metric's verdict, from best to most worrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Unchanged,
    Improved,
    Unresolved,
    Worse,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// A metric as a result file records it: median and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Measured {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Judges `new` against `base` for a metric: unresolved when either run's
/// quartile spread is wider than the bound, otherwise worse or improved when
/// the medians differ by more than the bound, else unchanged.
pub fn judge(spec: &MetricSpec, base: Measured, new: Measured) -> (Verdict, f64) {
    let bound = spec.bound.unwrap_or(0.0);
    let change = if base.median == 0.0 {
        if new.median == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new.median - base.median) / base.median
    };
    let worsening = if spec.lower_is_better {
        change
    } else {
        -change
    };
    let verdict = if base.spread() > bound || new.spread() > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, change)
}

/// The end-to-end metrics of one workload in a result file.
fn measured(run: &Json, name: &str) -> Option<Measured> {
    let m = run.get("metrics")?.get(name)?;
    let median = m.get("value")?.as_f64()?;
    let q = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(median);
    Some(Measured {
        median,
        q1: q("q1"),
        q3: q("q3"),
    })
}

fn end_to_end_runs(path: &str) -> Result<Vec<(String, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let Some(Json::Arr(runs)) = doc.get("runs") else {
        return Err(format!("{path}: no `runs` list"));
    };
    Ok(runs
        .iter()
        .filter(|r| r.get("kind") == Some(&Json::Str("end_to_end".to_owned())))
        .filter_map(|r| Some((r.field::<String>("workload").ok()?, r.clone())))
        .collect())
}

/// Compares two result files and returns one row per workload of `new`.
pub fn compare(base_path: &str, new_path: &str) -> Result<Vec<String>, String> {
    let contract = contract()?;
    let base = end_to_end_runs(base_path)?;
    let new = end_to_end_runs(new_path)?;
    let mut rows = Vec::new();
    for (workload, new_run) in &new {
        let Some((_, base_run)) = base.iter().find(|(w, _)| w == workload) else {
            rows.push(format!("{workload:<18} unresolved  (not in {base_path})"));
            continue;
        };
        let mut worst = Verdict::Unchanged;
        let mut details = Vec::new();
        for spec in &contract.end_to_end {
            let (Some(b), Some(n)) = (
                measured(base_run, &spec.name),
                measured(new_run, &spec.name),
            ) else {
                worst = worst.max(Verdict::Unresolved);
                details.push(format!("{} missing", spec.name));
                continue;
            };
            let (verdict, change) = judge(spec, b, n);
            worst = worst.max(verdict);
            details.push(format!(
                "{} {} {:+.1}%",
                spec.name,
                verdict.name(),
                change * 100.0
            ));
        }
        let failed = |run: &Json| measured(run, "failed_frac").map_or(0.0, |m| m.median);
        if failed(new_run) > failed(base_run) {
            worst = Verdict::Worse;
            details.push(format!(
                "failed_frac {} -> {}",
                failed(base_run),
                failed(new_run)
            ));
        }
        rows.push(format!(
            "{workload:<18} {:<10}  {}",
            worst.name(),
            details.join(", ")
        ));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "run_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    fn at(median: f64) -> Measured {
        Measured {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
        }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        assert_eq!(judge(&spec(0.1), at(1.0), at(1.05)).0, Verdict::Unchanged);
        assert_eq!(judge(&spec(0.1), at(1.0), at(1.2)).0, Verdict::Worse);
        assert_eq!(judge(&spec(0.1), at(1.0), at(0.8)).0, Verdict::Improved);
        let wide = Measured {
            median: 1.0,
            q1: 0.8,
            q3: 1.3,
        };
        assert_eq!(judge(&spec(0.1), wide, at(1.5)).0, Verdict::Unresolved);
        let higher = MetricSpec {
            lower_is_better: false,
            ..spec(0.1)
        };
        assert_eq!(judge(&higher, at(1.0), at(0.8)).0, Verdict::Worse);
    }
}
