//! Machine-checked invariants over the composed ecosystem's trace bus.
//!
//! Each [`Invariant`] is a pure function of one finished run's
//! [`TraceBus`] plus a small amount of configuration context
//! ([`InvariantCx`]). The built-ins ([`builtin_suite`]) encode the safety
//! and liveness claims the resilience machinery makes across subsystem
//! boundaries — exactly the claims that hold trivially in per-crate unit
//! tests but can break under composition:
//!
//! - [`FlowConservation`] — every network flow that starts either finishes,
//!   is aborted, or is excusably still in flight at the horizon; flows
//!   stranded by an access-link cut that persists to the end of the run
//!   must have been aborted (no silent strandings), and every abort must be
//!   attributable to an active cut;
//! - [`FaasTermination`] — no invocation is lost: workload arrivals plus
//!   scheduled retries are fully accounted for by terminal FaaS events,
//!   in-flight or aborted invocation payloads, and retries pending past the
//!   horizon;
//! - [`RestartBudget`] — checkpoint-restart never exceeds its attempt
//!   budget, and abandoned tasks stay abandoned;
//! - [`BreakerRecovery`] — circuit breakers re-close once faults clear and
//!   enough probe traffic has flowed;
//! - [`StallDrain`] — after the last link restore, previously stalled flows
//!   drain within a bound;
//! - [`MonotoneTimestamps`] — every component's events carry non-decreasing
//!   instants in bus order;
//! - [`FaultClosure`] — every fault window that opens also closes: machine
//!   outages are matched by repairs and per-node link cuts (degrades) by
//!   restores (heals).
//!
//! All built-ins are designed to pass on every healthy trace the existing
//! experiments produce — violations mean a real robustness bug (or a
//! deliberately seeded one; see the `chaos_sweep` experiment).

use mcs_core::scenario::ScenarioConfig;
use mcs_simcore::trace::{TraceBus, TraceEvent};
use std::collections::BTreeMap;

/// Comparison slack for virtual instants handed around as `f64` seconds.
const EPS: f64 = 1e-6;

/// One invariant violation: which monitor fired, when, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the invariant that fired (see [`Invariant::name`]).
    pub invariant: &'static str,
    /// Virtual instant the violation is anchored to, seconds.
    pub at_secs: f64,
    /// Human-readable account of the broken claim.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] t={:.3}s: {}", self.invariant, self.at_secs, self.message)
    }
}

/// The configuration context invariants evaluate against: the run's horizon
/// plus the resilience budgets whose compliance they check.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantCx {
    /// The run's horizon, seconds (events at the horizon were delivered).
    pub horizon_secs: f64,
    /// Checkpoint-restart attempt budget (`None`: restart not configured,
    /// [`RestartBudget`] is vacuous).
    pub restart_max_attempts: Option<u32>,
    /// Breaker open window, seconds (`None`: no breaker,
    /// [`BreakerRecovery`] is vacuous).
    pub breaker_open_secs: Option<f64>,
    /// Probe successes a healthy breaker needs to re-close.
    pub breaker_close_threshold: u32,
    /// How long after the last link restore stalled flows may take to
    /// drain ([`StallDrain`]).
    pub drain_bound_secs: f64,
    /// Grace window before the horizon: a flow stranded by a cut counts as
    /// a violation only when the cut opened at least this long before the
    /// end of the run (so the abort machinery had time to fire).
    pub flow_grace_secs: f64,
}

impl Default for InvariantCx {
    fn default() -> Self {
        InvariantCx {
            horizon_secs: 0.0,
            restart_max_attempts: None,
            breaker_open_secs: None,
            breaker_close_threshold: 2,
            drain_bound_secs: 600.0,
            flow_grace_secs: 120.0,
        }
    }
}

impl InvariantCx {
    /// The context implied by a scenario configuration: horizon and
    /// resilience budgets are read straight from the config, and the flow
    /// grace window tracks the configured flow-abort timeout (plus slack)
    /// so a working abort path is always faster than the monitor's patience.
    pub fn from_config(cfg: &ScenarioConfig) -> Self {
        let flow_grace_secs = cfg
            .network
            .as_ref()
            .and_then(|net| net.flow_timeout)
            .map_or(120.0, |timeout| timeout.as_secs_f64() + 60.0);
        InvariantCx {
            horizon_secs: cfg.horizon.as_secs_f64(),
            restart_max_attempts: cfg
                .resilience
                .restart
                .as_ref()
                .map(|restart| restart.backoff.max_attempts),
            breaker_open_secs: cfg
                .resilience
                .breaker
                .as_ref()
                .map(|breaker| breaker.open_for.as_secs_f64()),
            breaker_close_threshold: cfg
                .resilience
                .breaker
                .as_ref()
                .map_or(2, |breaker| breaker.half_open_successes.max(1)),
            drain_bound_secs: 600.0,
            flow_grace_secs,
        }
    }
}

/// A machine-checked claim over one finished run's trace.
pub trait Invariant {
    /// Stable identifier used in reports and reproducers.
    fn name(&self) -> &'static str;
    /// Evaluates the claim; an empty vector means the trace satisfies it.
    fn check(&self, trace: &TraceBus, cx: &InvariantCx) -> Vec<Violation>;
}

/// The built-in monitor suite, in a fixed deterministic order.
pub fn builtin_suite() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(FlowConservation),
        Box::new(FaasTermination),
        Box::new(RestartBudget),
        Box::new(BreakerRecovery),
        Box::new(StallDrain),
        Box::new(MonotoneTimestamps),
        Box::new(FaultClosure),
    ]
}

/// Runs the whole built-in suite, concatenating violations in suite order.
///
/// # Panics
/// Panics on a streaming trace: every invariant reads retained records, so
/// a streaming bus would read as clean whatever the run did.
pub fn check_all(trace: &TraceBus, cx: &InvariantCx) -> Vec<Violation> {
    assert!(
        !trace.is_streaming(),
        "check_all needs a full-retention trace; a streaming bus retains no records to check"
    );
    builtin_suite().iter().flat_map(|inv| inv.check(trace, cx)).collect()
}

fn violation(invariant: &'static str, at_secs: f64, message: String) -> Violation {
    Violation { invariant, at_secs, message }
}

/// Per-node cut (or degrade) windows `[start, end]`, paired in emission
/// order; windows still open at the horizon close there.
fn link_windows(trace: &TraceBus, open: &str, close: &str, horizon: f64) -> BTreeMap<u64, Vec<(f64, f64)>> {
    let mut windows: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut opens: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut timeline: Vec<(&TraceEvent, bool)> = trace
        .select("net", open)
        .into_iter()
        .map(|e| (e, true))
        .chain(trace.select("net", close).into_iter().map(|e| (e, false)))
        .collect();
    timeline.sort_by(|(a, a_open), (b, b_open)| {
        a.at.cmp(&b.at).then_with(|| b_open.cmp(a_open)) // opens before closes at ties
    });
    for (e, is_open) in timeline {
        let Some(node) = e.field_f64("node") else { continue };
        let node = node as u64;
        let at = e.at.as_secs_f64();
        if is_open {
            opens.entry(node).or_default().push(at);
        } else if let Some(start) = opens.entry(node).or_default().pop() {
            windows.entry(node).or_default().push((start, at));
        }
    }
    for (node, starts) in opens {
        for start in starts {
            windows.entry(node).or_default().push((start, horizon));
        }
    }
    windows
}

fn window_active(windows: &BTreeMap<u64, Vec<(f64, f64)>>, node: u64, at: f64) -> bool {
    windows
        .get(&node)
        .is_some_and(|w| w.iter().any(|&(s, e)| s - EPS <= at && at <= e + EPS))
}

/// Per-`(owner, id)` flow ledger: start/end/abort instants plus the
/// endpoint nodes seen on starts.
#[derive(Debug, Default)]
struct FlowGroup {
    starts: Vec<f64>,
    ends: Vec<f64>,
    aborts: Vec<f64>,
    endpoints: Vec<u64>,
}

fn flow_groups(trace: &TraceBus) -> BTreeMap<(String, u64), FlowGroup> {
    let mut groups: BTreeMap<(String, u64), FlowGroup> = BTreeMap::new();
    let mut visit = |event: &str, push: fn(&mut FlowGroup, f64, Option<u64>, Option<u64>)| {
        for e in trace.select("net", event) {
            let owner = e.field_str("owner").unwrap_or("?").to_owned();
            let id = e.field_f64("id").unwrap_or(0.0) as u64;
            let src = e.field_f64("src").map(|x| x as u64);
            let dst = e.field_f64("dst").map(|x| x as u64);
            push(groups.entry((owner, id)).or_default(), e.at.as_secs_f64(), src, dst);
        }
    };
    visit("flow_start", |g, at, src, dst| {
        g.starts.push(at);
        g.endpoints.extend(src);
        g.endpoints.extend(dst);
    });
    visit("flow_end", |g, at, _, _| g.ends.push(at));
    visit("flow_aborted", |g, at, _, _| g.aborts.push(at));
    groups
}

/// Every flow that starts either finishes, aborts, or is excusably still in
/// flight at the horizon; silent strandings and unattributable aborts fire.
pub struct FlowConservation;

impl Invariant for FlowConservation {
    fn name(&self) -> &'static str {
        "flow-conservation"
    }

    fn check(&self, trace: &TraceBus, cx: &InvariantCx) -> Vec<Violation> {
        let mut out = Vec::new();
        let horizon = cx.horizon_secs;
        let cuts = link_windows(trace, "link_cut", "link_restored", horizon);
        for ((owner, id), group) in flow_groups(trace) {
            let started = group.starts.len();
            let resolved = group.ends.len() + group.aborts.len();
            if resolved > started {
                out.push(violation(
                    self.name(),
                    horizon,
                    format!(
                        "flow {owner}/{id}: {resolved} completions for {started} starts"
                    ),
                ));
                continue;
            }
            let pending = started - resolved;
            if pending == 0 {
                continue;
            }
            // A recent start proves liveness: either the flow simply began
            // near the horizon, or an abort-and-reissue loop is cycling (each
            // abort re-starts the transfer, so the one pending flow is young).
            let last_start = group.starts.iter().fold(f64::MIN, |a, &b| a.max(b));
            if last_start > horizon - cx.flow_grace_secs {
                continue;
            }
            // Still in flight at the horizon: fine for a merely slow flow,
            // a violation when an endpoint's access link was cut long
            // enough ago that the abort path must have fired, and the cut
            // never lifted before the end of the run.
            let stranding = group.endpoints.iter().find_map(|&node| {
                cuts.get(&node)?.iter().find(|&&(start, end)| {
                    end >= horizon - EPS && start <= horizon - cx.flow_grace_secs
                })
            });
            if let Some(&(cut_start, _)) = stranding {
                out.push(violation(
                    self.name(),
                    cut_start,
                    format!(
                        "flow {owner}/{id}: {pending} flow(s) stranded by a link cut \
                         open since t={cut_start:.1}s, never completed or aborted"
                    ),
                ));
            }
        }
        // Every abort must be attributable to an active cut on an endpoint.
        for e in trace.select("net", "flow_aborted") {
            let at = e.at.as_secs_f64();
            let attributable = [e.field_f64("src"), e.field_f64("dst")]
                .into_iter()
                .flatten()
                .any(|node| window_active(&cuts, node as u64, at));
            if !attributable {
                let owner = e.field_str("owner").unwrap_or("?");
                out.push(violation(
                    self.name(),
                    at,
                    format!(
                        "flow {owner}/{}: aborted with no active cut on either endpoint",
                        e.field_f64("id").unwrap_or(0.0) as u64
                    ),
                ));
            }
        }
        out
    }
}

/// No invocation is lost: arrivals plus scheduled retries equal terminal
/// FaaS events plus in-flight/aborted payloads plus horizon-pending retries.
pub struct FaasTermination;

impl Invariant for FaasTermination {
    fn name(&self) -> &'static str {
        "faas-termination"
    }

    fn check(&self, trace: &TraceBus, cx: &InvariantCx) -> Vec<Violation> {
        let arrivals = trace.count("workload", "arrival");
        let retries = trace.count("faas", "retry_scheduled");
        let terminals = trace.count("faas", "invoke")
            + trace.count("faas", "invoke_failed")
            + trace.count("faas", "shed")
            + trace.count("faas", "reject");
        if arrivals + retries + terminals == 0 {
            return Vec::new(); // FaaS not attached.
        }
        // Invocation payloads still on the wire (or lost to a flow abort,
        // which the scenario routes as a fail-fast) never reach invoke().
        let faas_flow = |event: &str| {
            trace
                .select("net", event)
                .into_iter()
                .filter(|e| e.field_str("owner") == Some("faas"))
                .count()
        };
        let on_wire = faas_flow("flow_start") - faas_flow("flow_end");
        // Retries scheduled to fire past the horizon never re-invoke.
        let retries_pending = trace
            .select("faas", "retry_scheduled")
            .into_iter()
            .filter(|e| {
                let delay = e.field_f64("delay_secs").unwrap_or(0.0);
                e.at.as_secs_f64() + delay > cx.horizon_secs + 1e-9
            })
            .count();
        let issued = arrivals + retries;
        let accounted = terminals + on_wire + retries_pending;
        if issued != accounted {
            return vec![violation(
                self.name(),
                cx.horizon_secs,
                format!(
                    "{issued} invocations issued ({arrivals} arrivals + {retries} retries) \
                     but {accounted} accounted for ({terminals} terminal events + \
                     {on_wire} on the wire + {retries_pending} retries pending past \
                     the horizon)"
                ),
            )];
        }
        Vec::new()
    }
}

/// Checkpoint-restart respects its attempt budget, and abandoned tasks see
/// no further scheduler activity.
pub struct RestartBudget;

impl Invariant for RestartBudget {
    fn name(&self) -> &'static str {
        "restart-budget"
    }

    fn check(&self, trace: &TraceBus, cx: &InvariantCx) -> Vec<Violation> {
        let Some(max_attempts) = cx.restart_max_attempts else {
            return Vec::new();
        };
        let budget = f64::from(max_attempts);
        let mut out = Vec::new();
        for (event, field) in [
            ("requeue_scheduled", "attempt"),
            ("checkpoint_xfer_start", "attempt"),
            ("task_abandoned", "attempts"),
        ] {
            for e in trace.select("rms", event) {
                let attempt = e.field_f64(field).unwrap_or(0.0);
                if attempt > budget + EPS {
                    out.push(violation(
                        self.name(),
                        e.at.as_secs_f64(),
                        format!(
                            "rms/{event} for task {} at attempt {attempt} exceeds the \
                             budget of {max_attempts}",
                            e.field_f64("task").unwrap_or(-1.0) as i64
                        ),
                    ));
                }
            }
        }
        let abandoned: BTreeMap<u64, f64> = trace
            .select("rms", "task_abandoned")
            .into_iter()
            .filter_map(|e| {
                Some((e.field_f64("task")? as u64, e.at.as_secs_f64()))
            })
            .collect();
        for event in ["requeue_scheduled", "checkpoint_xfer_start", "checkpoint_restore"] {
            for e in trace.select("rms", event) {
                let Some(task) = e.field_f64("task").map(|t| t as u64) else { continue };
                let at = e.at.as_secs_f64();
                if abandoned.get(&task).is_some_and(|&gave_up| at > gave_up + EPS) {
                    out.push(violation(
                        self.name(),
                        at,
                        format!("rms/{event} for task {task} after it was abandoned"),
                    ));
                }
            }
        }
        out
    }
}

/// Breakers re-close once faults clear: a breaker left non-closed at the end
/// of the run despite enough post-fault probe traffic is stuck.
pub struct BreakerRecovery;

impl Invariant for BreakerRecovery {
    fn name(&self) -> &'static str {
        "breaker-recovery"
    }

    fn check(&self, trace: &TraceBus, cx: &InvariantCx) -> Vec<Violation> {
        let Some(open_secs) = cx.breaker_open_secs else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let transitions = trace.select("faas", "breaker");
        let mut functions: Vec<&str> =
            transitions.iter().filter_map(|e| e.field_str("function")).collect();
        functions.sort_unstable();
        functions.dedup();
        for function in functions {
            let mine: Vec<&&TraceEvent> = transitions
                .iter()
                .filter(|e| e.field_str("function") == Some(function))
                .collect();
            let last = mine.last().expect("function has transitions");
            let last_state = last.field_str("state").unwrap_or("?");
            if last_state == "closed" {
                continue;
            }
            // Faults "clear" at the last genuine failure; anything after
            // that is the breaker's own rejections or successes.
            let cleared = trace
                .select("faas", "invoke_failed")
                .into_iter()
                .filter(|e| {
                    e.field_str("function") == Some(function)
                        && e.field_str("reason") != Some("breaker_open")
                })
                .map(|e| e.at.as_secs_f64())
                .fold(None, |acc: Option<f64>, at| Some(acc.map_or(at, |a| a.max(at))))
                .unwrap_or_else(|| last.at.as_secs_f64());
            let probe_after = cleared + open_secs + 1.0;
            let probes = ["invoke", "invoke_failed"]
                .iter()
                .map(|event| {
                    trace
                        .select("faas", event)
                        .into_iter()
                        .filter(|e| {
                            e.field_str("function") == Some(function)
                                && e.at.as_secs_f64() > probe_after
                        })
                        .count()
                })
                .sum::<usize>();
            if probes >= cx.breaker_close_threshold as usize {
                out.push(violation(
                    self.name(),
                    last.at.as_secs_f64(),
                    format!(
                        "breaker for {function} ended {last_state} despite {probes} \
                         attempts after faults cleared at t={cleared:.1}s"
                    ),
                ));
            }
        }
        out
    }
}

/// After the last link restore, flows that were stalled drain within
/// [`InvariantCx::drain_bound_secs`].
pub struct StallDrain;

impl Invariant for StallDrain {
    fn name(&self) -> &'static str {
        "stall-drain"
    }

    fn check(&self, trace: &TraceBus, cx: &InvariantCx) -> Vec<Violation> {
        let last_restore = trace
            .select("net", "link_restored")
            .last()
            .map(|e| e.at.as_secs_f64());
        let Some(t_restore) = last_restore else {
            return Vec::new();
        };
        let last_cut =
            trace.select("net", "link_cut").last().map_or(f64::MIN, |e| e.at.as_secs_f64());
        if last_cut > t_restore {
            return Vec::new(); // The fabric is still faulted at the end.
        }
        let deadline = t_restore + cx.drain_bound_secs;
        if deadline > cx.horizon_secs - EPS {
            return Vec::new(); // The drain window is not observable.
        }
        let mut out = Vec::new();
        for ((owner, id), group) in flow_groups(trace) {
            let open_at_restore =
                group.starts.iter().filter(|&&at| at <= t_restore).count();
            let resolved_by_deadline = group
                .ends
                .iter()
                .chain(group.aborts.iter())
                .filter(|&&at| at <= deadline + EPS)
                .count();
            if open_at_restore > resolved_by_deadline {
                let unresolved = open_at_restore - resolved_by_deadline;
                out.push(violation(
                    self.name(),
                    deadline,
                    format!(
                        "flow {owner}/{id}: {unresolved} flow(s) open at the last restore \
                         (t={t_restore:.1}s) still unresolved {:.0}s later",
                        cx.drain_bound_secs
                    ),
                ));
            }
        }
        out
    }
}

/// Every component's events carry non-decreasing virtual instants in bus
/// (delivery) order.
pub struct MonotoneTimestamps;

impl Invariant for MonotoneTimestamps {
    fn name(&self) -> &'static str {
        "monotone-timestamps"
    }

    fn check(&self, trace: &TraceBus, _cx: &InvariantCx) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut last: Vec<Option<mcs_simcore::time::SimTime>> = Vec::new();
        for e in trace.events() {
            let idx = e.component.index();
            if idx >= last.len() {
                last.resize(idx + 1, None);
            }
            if let Some(prev) = last[idx] {
                if e.at < prev {
                    out.push(violation(
                        self.name(),
                        e.at.as_secs_f64(),
                        format!(
                            "component {} went back in time: {:.6}s after {:.6}s",
                            trace.interner().resolve(e.component),
                            e.at.as_secs_f64(),
                            prev.as_secs_f64()
                        ),
                    ));
                }
            }
            last[idx] = Some(e.at);
        }
        out
    }
}

/// Every fault window that opens also closes before (or at) the horizon:
/// outages match repairs, per-node cuts match restores, degrades match heals.
pub struct FaultClosure;

impl Invariant for FaultClosure {
    fn name(&self) -> &'static str {
        "fault-closure"
    }

    fn check(&self, trace: &TraceBus, cx: &InvariantCx) -> Vec<Violation> {
        let mut out = Vec::new();
        let outages = trace.count("failure", "outage");
        let repairs = trace.count("failure", "repair");
        if outages != repairs {
            out.push(violation(
                self.name(),
                cx.horizon_secs,
                format!("{outages} machine outages but {repairs} repairs"),
            ));
        }
        for (open, close) in [("link_cut", "link_restored"), ("link_degraded", "link_healed")] {
            let mut per_node: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
            for e in trace.select("net", open) {
                if let Some(node) = e.field_f64("node") {
                    per_node.entry(node as u64).or_default().0 += 1;
                }
            }
            for e in trace.select("net", close) {
                if let Some(node) = e.field_f64("node") {
                    per_node.entry(node as u64).or_default().1 += 1;
                }
            }
            for (node, (opened, closed)) in per_node {
                if opened != closed {
                    out.push(violation(
                        self.name(),
                        cx.horizon_secs,
                        format!("node {node}: {opened} {open} but {closed} {close}"),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_simcore::time::SimTime;
    use mcs_simcore::trace::Field;

    fn cx(horizon_secs: f64) -> InvariantCx {
        InvariantCx { horizon_secs, ..InvariantCx::default() }
    }

    fn at(secs: f64) -> SimTime {
        SimTime::ZERO + mcs_simcore::time::SimDuration::from_secs_f64(secs)
    }

    fn flow_fields(owner: &str, id: u64, src: u64, dst: u64) -> [(&'static str, Field<'_>); 4] {
        [
            ("owner", Field::Str(owner)),
            ("id", Field::U64(id)),
            ("src", Field::U64(src)),
            ("dst", Field::U64(dst)),
        ]
    }

    #[test]
    fn empty_trace_satisfies_every_builtin() {
        let trace = TraceBus::new();
        assert!(check_all(&trace, &cx(100.0)).is_empty());
    }

    #[test]
    fn stranded_flow_without_abort_fires_flow_conservation() {
        let mut trace = TraceBus::new();
        trace.record_fields(at(1.0), "net", "flow_start", &flow_fields("rms", 7, 3, 0));
        trace.record_fields(at(5.0), "net", "link_cut", &[("node", Field::U64(3))]);
        // The cut never lifts; the flow never ends or aborts.
        let ctx = cx(3600.0);
        let hits = FlowConservation.check(&trace, &ctx);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("stranded"), "{}", hits[0].message);
        // The full suite flags it too (plus the unclosed cut window).
        let all = check_all(&trace, &ctx);
        assert!(all.iter().any(|v| v.invariant == "flow-conservation"));
        assert!(all.iter().any(|v| v.invariant == "fault-closure"));
    }

    #[test]
    fn aborted_stranded_flow_is_clean() {
        let mut trace = TraceBus::new();
        trace.record_fields(at(1.0), "net", "flow_start", &flow_fields("rms", 7, 3, 0));
        trace.record_fields(at(5.0), "net", "link_cut", &[("node", Field::U64(3))]);
        trace.record_fields(at(65.0), "net", "flow_aborted", &flow_fields("rms", 7, 3, 0));
        trace.record_fields(at(3600.0), "net", "link_restored", &[("node", Field::U64(3))]);
        assert!(FlowConservation.check(&trace, &cx(3600.0)).is_empty());
        assert!(FaultClosure.check(&trace, &cx(3600.0)).is_empty());
    }

    #[test]
    fn slow_flow_at_horizon_is_not_a_violation() {
        let mut trace = TraceBus::new();
        trace.record_fields(at(3599.0), "net", "flow_start", &flow_fields("bd-map", 1, 2, 5));
        assert!(FlowConservation.check(&trace, &cx(3600.0)).is_empty());
    }

    #[test]
    fn unattributable_abort_fires() {
        let mut trace = TraceBus::new();
        trace.record_fields(at(1.0), "net", "flow_start", &flow_fields("rms", 2, 4, 0));
        trace.record_fields(at(20.0), "net", "flow_aborted", &flow_fields("rms", 2, 4, 0));
        let hits = FlowConservation.check(&trace, &cx(100.0));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("no active cut"));
    }

    #[test]
    fn lost_invocation_fires_faas_termination() {
        let mut trace = TraceBus::new();
        trace.record_fields(at(1.0), "workload", "arrival", &[("index", Field::U64(0))]);
        trace.record_fields(at(2.0), "workload", "arrival", &[("index", Field::U64(1))]);
        trace.record_fields(at(1.1), "faas", "invoke", &[("function", Field::Str("f"))]);
        // The second arrival vanished: no terminal, no flow, no retry.
        let hits = FaasTermination.check(&trace, &cx(100.0));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("2 invocations issued"), "{}", hits[0].message);
    }

    #[test]
    fn on_wire_and_pending_retries_balance_the_faas_ledger() {
        let mut trace = TraceBus::new();
        trace.record_fields(at(1.0), "workload", "arrival", &[]);
        trace.record_fields(at(1.0), "net", "flow_start", &flow_fields("faas", 0, 1, 0));
        trace.record_fields(at(2.0), "workload", "arrival", &[]);
        trace.record_fields(at(2.0), "net", "flow_start", &flow_fields("faas", 1, 2, 0));
        trace.record_fields(at(2.5), "net", "flow_end", &flow_fields("faas", 1, 2, 0));
        trace.record_fields(at(2.5), "faas", "reject", &[("function", Field::Str("f"))]);
        trace.record_fields(
            at(2.5),
            "faas",
            "retry_scheduled",
            &[("delay_secs", Field::F64(200.0))],
        );
        // arrivals=2 retries=1; terminals=1, on-wire=1, retry pending=1.
        assert!(FaasTermination.check(&trace, &cx(100.0)).is_empty());
    }

    #[test]
    fn over_budget_restart_and_zombie_task_fire() {
        let mut trace = TraceBus::new();
        trace.record_fields(
            at(10.0),
            "rms",
            "requeue_scheduled",
            &[("task", Field::U64(3)), ("attempt", Field::U64(9))],
        );
        trace.record_fields(
            at(20.0),
            "rms",
            "task_abandoned",
            &[("task", Field::U64(4)), ("attempts", Field::U64(5))],
        );
        trace.record_fields(at(30.0), "rms", "checkpoint_restore", &[("task", Field::U64(4))]);
        let ctx = InvariantCx { restart_max_attempts: Some(5), ..cx(100.0) };
        let hits = RestartBudget.check(&trace, &ctx);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits[0].message.contains("exceeds the budget"));
        assert!(hits[1].message.contains("after it was abandoned"));
        // Without a configured budget the monitor is vacuous.
        assert!(RestartBudget.check(&trace, &cx(100.0)).is_empty());
    }

    #[test]
    fn stuck_breaker_fires_and_recovered_breaker_passes() {
        let brk = |state| [("function", Field::Str("f")), ("state", Field::Str(state))];
        let probe = [("function", Field::Str("f"))];
        let mut stuck = TraceBus::new();
        stuck.record_fields(at(10.0), "faas", "breaker", &brk("open"));
        stuck.record_fields(at(100.0), "faas", "invoke", &probe);
        stuck.record_fields(at(110.0), "faas", "invoke", &probe);
        stuck.record_fields(at(120.0), "faas", "invoke", &probe);
        let ctx = InvariantCx { breaker_open_secs: Some(30.0), ..cx(1000.0) };
        let hits = BreakerRecovery.check(&stuck, &ctx);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("ended open"));

        let mut healthy = stuck.clone();
        healthy.record_fields(at(130.0), "faas", "breaker", &brk("closed"));
        assert!(BreakerRecovery.check(&healthy, &ctx).is_empty());
    }

    #[test]
    fn undrained_flow_after_restore_fires_stall_drain() {
        let mut trace = TraceBus::new();
        trace.record_fields(at(1.0), "net", "flow_start", &flow_fields("bd-map", 1, 2, 5));
        trace.record_fields(at(5.0), "net", "link_cut", &[("node", Field::U64(2))]);
        trace.record_fields(at(50.0), "net", "link_restored", &[("node", Field::U64(2))]);
        // Restored at t=50, drain bound 600 — still unresolved at t=650.
        let ctx = InvariantCx { drain_bound_secs: 600.0, ..cx(3600.0) };
        let hits = StallDrain.check(&trace, &ctx);
        assert_eq!(hits.len(), 1, "{hits:?}");
        let mut drained = trace.clone();
        drained.record_fields(at(120.0), "net", "flow_end", &flow_fields("bd-map", 1, 2, 5));
        assert!(StallDrain.check(&drained, &ctx).is_empty());
        // An unobservable drain window is vacuous.
        assert!(StallDrain.check(&trace, &InvariantCx { drain_bound_secs: 600.0, ..cx(100.0) })
            .is_empty());
    }

    #[test]
    fn time_regression_fires_monotone_timestamps() {
        let mut trace = TraceBus::new();
        trace.record_fields(at(10.0), "rms", "machine_fail", &[]);
        trace.record_fields(at(5.0), "rms", "machine_fail", &[]);
        trace.record_fields(at(7.0), "faas", "invoke", &[]); // other component: fine
        let hits = MonotoneTimestamps.check(&trace, &cx(100.0));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("rms"));
    }

    #[test]
    fn unbalanced_fault_windows_fire_fault_closure() {
        let mut trace = TraceBus::new();
        trace.record_fields(at(10.0), "failure", "outage", &[]);
        trace.record_fields(at(12.0), "net", "link_degraded", &[("node", Field::U64(1))]);
        let hits = FaultClosure.check(&trace, &cx(100.0));
        assert_eq!(hits.len(), 2, "{hits:?}");
        trace.record_fields(at(20.0), "failure", "repair", &[]);
        trace.record_fields(at(22.0), "net", "link_healed", &[("node", Field::U64(1))]);
        assert!(FaultClosure.check(&trace, &cx(100.0)).is_empty());
    }

    #[test]
    fn from_config_reads_budgets_and_grace() {
        let bare = InvariantCx::from_config(&ScenarioConfig::default());
        assert_eq!(bare.horizon_secs, ScenarioConfig::default().horizon.as_secs_f64());
        // The default config runs resilience-off: both budgets are vacuous.
        assert!(bare.breaker_open_secs.is_none());
        assert!(bare.restart_max_attempts.is_none());

        let cfg = ScenarioConfig::default()
            .with_resilience(mcs_simcore::resilience::ResilienceConfig::all_on());
        let ctx = InvariantCx::from_config(&cfg);
        assert!(ctx.breaker_open_secs.is_some());
        assert!(ctx.restart_max_attempts.is_some());
        assert!(ctx.breaker_close_threshold >= 1);
    }
}
