//! The per-layer run.
//!
//! The program is never instrumented. Each traced rep first runs the
//! workload exactly as the end-to-end run does, for its wall time; then, per
//! scenario, a full-trace run of the same configuration records every
//! layer's inputs, and the benchmark replays them through that layer's
//! public entry points, timing the calls from here:
//!
//! - `simcore.trace`: the rep's events through `TraceBus::record_fields`,
//!   into a full and a streaming bus, then the workload's read queries;
//! - `simcore.metrics`: every numeric field into its `QuantileSketch`, as a
//!   streaming sink folds it;
//! - `net`: the recorded `net/flow_start` messages into a standalone
//!   `NetActor` under [`Timed`], which must reproduce the run's delivered
//!   and aborted flows and its stall sum exactly;
//! - `dag`: the workload's job set through a standalone `DagActor` under
//!   [`Timed`] (edges at reference bandwidth), which must finish every job;
//! - `rms`: `ClusterScheduler::run` on the rep's own batch jobs.
//!
//! Layer costs that do not depend on the workload — engine dispatch and
//! cancellation, `max_min_rates`, policy placement, the DAG lookahead — are
//! timed once per run on fixed inputs.
//!
//! Tenant handlers (faas, gaming, autoscale, the injector) are not replayed
//! yet; `core.unattributed_frac` is the share of the rep they, and anything
//! else unreplayed, account for.

use crate::e2e::{self, guarded};
use crate::spans::Spans;
use crate::stats::Samples;
use crate::timed::{Histogram, Timed};
use crate::workloads::Workload;
use mcs::core::scenario::{NetworkConfig, Scenario, ScenarioConfig};
use mcs::dag::{
    generate, lookahead_makespan, DagActor, DagClass, DagClusterSpec, DagMsg, DagPortfolio,
    DagShape,
};
use mcs::infra::prelude::{Cluster, ClusterId, MachineSpec};
use mcs::infra::resource::ResourceVector;
use mcs::net::{max_min_rates, FlowOwner, FlowTag, NetActor, NetMsg, NetTopology, TransferReq};
use mcs::rms::policy::QueuedTaskView;
use mcs::rms::scheduler::{ClusterScheduler, SchedulerConfig};
use mcs::simcore::codec::Json;
use mcs::simcore::engine::{Actor, Context, EventToken, Simulation};
use mcs::simcore::metrics::QuantileSketch;
use mcs::simcore::rng::RngStream;
use mcs::simcore::time::{SimDuration, SimTime};
use mcs::simcore::trace::{Field, StreamConfig, TraceBus, TraceEvent};
use mcs::workload::generator::{BatchWorkloadConfig, BatchWorkloadGenerator};
use mcs::workload::task::TaskId;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every per-layer metric the run reports, with its unit. A layer that does
/// not run in a workload reports 0 there.
pub const METRICS: [(&str, &str); 35] = [
    ("engine.events", "count"),
    ("engine.dispatch_ns", "ns"),
    ("engine.cancel_ns", "ns"),
    ("trace.events", "count"),
    ("trace.record_full_ns", "ns"),
    ("trace.record_streaming_ns", "ns"),
    ("trace.retained_mib", "MiB"),
    ("trace.query_s", "s"),
    ("sketch.record_ns", "ns"),
    ("net.flows", "count"),
    ("net.handle_calls", "count"),
    ("net.events_per_flow", "events/flow"),
    ("net.handle_s", "s"),
    ("net.handle_share", "frac"),
    ("net.handle_us_p50", "us"),
    ("net.handle_us_p99", "us"),
    ("net.in_flight_peak", "count"),
    ("net.max_min_us.f100", "us"),
    ("net.max_min_us.f1k", "us"),
    ("net.max_min_us.f16k", "us"),
    ("rms.schedule_s", "s"),
    ("rms.place_us", "us"),
    ("rms.select_us.heft", "us"),
    ("rms.select_us.greedy", "us"),
    ("rms.select_us.locality", "us"),
    ("dag.handle_s", "s"),
    ("dag.handle_share", "frac"),
    ("dag.handle_calls", "count"),
    ("dag.handle_us_p99", "us"),
    ("dag.ready_backlog_peak", "count"),
    ("dag.lookahead_us.chain", "us"),
    ("dag.lookahead_us.fork_join", "us"),
    ("dag.lookahead_us.montage", "us"),
    ("dag.lookahead_us.ligo", "us"),
    ("core.unattributed_frac", "frac"),
];

/// Traced reps stop once the run has used its time, or at this many.
const MAX_TRACED_REPS: usize = 64;
/// Events converted to replay fields at a time, bounding the fields'
/// memory to one chunk.
const CHUNK: usize = 1 << 16;
/// Where a workload keeps a streaming trace, its full-sink replay stops
/// after this many events, so the what-if bus stays small.
const FULL_REPLAY_CAP: usize = 1 << 17;
const MIB: f64 = 1024.0 * 1024.0;

/// Named values of one traced rep, or of a whole run.
pub type Values = Vec<(&'static str, f64)>;

/// What a per-layer run measured.
pub struct LayerRun {
    /// Per-rep medians, then the workload-independent layer costs.
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// The per-layer run of `workload`: workload-independent layer costs, then
/// traced reps of the inputs of `seed` until `seconds` have passed, so every
/// count is that of one input set and every time a median over reps.
pub fn run(workload: &Workload, seed: u64, seconds: f64, spans: &mut Spans) -> LayerRun {
    let started = Instant::now();
    let fixed = fixed_costs(seed, spans);
    let dispatch_ns = value(&fixed, "engine.dispatch_ns");
    let mut reps: Vec<Values> = Vec::new();
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    while reps.len() + (failed as usize) < MAX_TRACED_REPS
        && (attempted == 0 || started.elapsed().as_secs_f64() < seconds)
    {
        attempted += 1;
        match guarded(|| traced_rep(workload, seed, dispatch_ns, spans)) {
            Ok(values) => reps.push(values),
            Err(e) => {
                failed += 1;
                if errors.len() < 8 {
                    errors.push(e);
                }
            }
        }
    }
    let mut values: Values = Vec::new();
    if let Some(first) = reps.first() {
        for (i, &(name, _)) in first.iter().enumerate() {
            values.push((
                name,
                Samples::new(reps.iter().map(|r| r[i].1).collect()).median(),
            ));
        }
    }
    values.extend(fixed);
    LayerRun {
        values,
        attempted,
        failed,
        errors,
    }
}

/// Looks one value up by name.
pub fn value(values: &[(&'static str, f64)], name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Layer totals accumulated over the scenarios of one rep.
#[derive(Default)]
struct Totals {
    engine_events: u64,
    trace_events: u64,
    full: Pass,
    streaming: Pass,
    sketch: Pass,
    /// Record time and events on each scenario's own sink.
    own: Pass,
    retained_bytes: u64,
    query_s: f64,
    net: ActorReplay,
    dag: ActorReplay,
    net_flows: u64,
    ready_backlog_peak: u64,
    rms_schedule_s: f64,
    rms_tasks: u64,
}

/// Timed calls of one replay pass.
#[derive(Default, Clone, Copy)]
struct Pass {
    secs: f64,
    calls: u64,
}

impl Pass {
    fn add(&mut self, other: Pass) {
        self.secs += other.secs;
        self.calls += other.calls;
    }

    fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.calls as f64
        }
    }
}

/// One actor replay under [`Timed`].
#[derive(Default)]
struct ActorReplay {
    calls: u64,
    busy_s: f64,
    hist: Histogram,
    gauge_peak: u64,
    /// Trace events the actor emitted during the replay.
    emitted: u64,
}

impl ActorReplay {
    fn add<A>(&mut self, timed: &Timed<A>, emitted: u64) {
        self.calls += timed.calls();
        self.busy_s += timed.busy_s();
        self.hist.merge(timed.histogram());
        self.gauge_peak = self.gauge_peak.max(timed.gauge_peak());
        self.emitted += emitted;
    }

    /// Handle time less the sink's share of it, at `record_ns` per event.
    fn self_s(&self, record_ns: f64) -> f64 {
        (self.busy_s - self.emitted as f64 * record_ns * 1e-9).max(0.0)
    }
}

/// One traced rep: the untouched rep for its wall time, then every
/// scenario recorded and replayed layer by layer.
fn traced_rep(
    workload: &Workload,
    seed: u64,
    dispatch_ns: f64,
    spans: &mut Spans,
) -> Result<Values, String> {
    let root = spans.open(format!("{}/rep", workload.name), None);
    let rep = e2e::rep(workload, seed)?;
    let mut t = Totals::default();
    for cfg in (workload.configs)(seed) {
        replay_scenario(workload, &cfg, &mut t, spans, root.id())?;
    }
    spans.close(root, 0, None);

    let wall = rep.run_s;
    let share = |secs: f64| secs / wall;
    let us = |ns: u64| ns as f64 * 1e-3;
    let record_ns = t.own.ns_per_call();
    let attributed = t.engine_events as f64 * dispatch_ns * 1e-9
        + t.own.secs
        + t.query_s
        + t.net.self_s(record_ns)
        + t.dag.self_s(record_ns);
    Ok(vec![
        ("engine.events", t.engine_events as f64),
        ("trace.events", t.trace_events as f64),
        ("trace.record_full_ns", t.full.ns_per_call()),
        ("trace.record_streaming_ns", t.streaming.ns_per_call()),
        ("trace.retained_mib", t.retained_bytes as f64 / MIB),
        ("trace.query_s", t.query_s),
        ("sketch.record_ns", t.sketch.ns_per_call()),
        ("net.flows", t.net_flows as f64),
        ("net.handle_calls", t.net.calls as f64),
        (
            "net.events_per_flow",
            if t.net_flows == 0 {
                0.0
            } else {
                t.net.calls as f64 / t.net_flows as f64
            },
        ),
        ("net.handle_s", t.net.busy_s),
        ("net.handle_share", share(t.net.busy_s)),
        ("net.handle_us_p50", us(t.net.hist.quantile_ns(0.5))),
        ("net.handle_us_p99", us(t.net.hist.quantile_ns(0.99))),
        ("net.in_flight_peak", t.net.gauge_peak as f64),
        ("rms.schedule_s", t.rms_schedule_s),
        (
            "rms.place_us",
            if t.rms_tasks == 0 {
                0.0
            } else {
                t.rms_schedule_s * 1e6 / t.rms_tasks as f64
            },
        ),
        ("dag.handle_s", t.dag.busy_s),
        ("dag.handle_share", share(t.dag.busy_s)),
        ("dag.handle_calls", t.dag.calls as f64),
        ("dag.handle_us_p99", us(t.dag.hist.quantile_ns(0.99))),
        ("dag.ready_backlog_peak", t.ready_backlog_peak as f64),
        ("core.unattributed_frac", 1.0 - share(attributed)),
    ])
}

/// Records one scenario's layer inputs from a full-trace run, then
/// replays each layer that runs in it.
fn replay_scenario(
    workload: &Workload,
    cfg: &ScenarioConfig,
    t: &mut Totals,
    spans: &mut Spans,
    parent: usize,
) -> Result<(), String> {
    let own_sink = cfg.observability.as_ref().map(|o| StreamConfig {
        sketch_centroids: o.sketch_centroids,
        window: o.window,
    });
    let mut record_cfg = cfg.clone();
    record_cfg.observability = None;
    let span = spans.open("record", Some(parent));
    let out = Scenario::try_new(record_cfg)
        .map_err(|e| e.to_string())?
        .run();
    spans.close(span, out.events_handled, None);
    t.engine_events += out.events_handled;
    t.trace_events += out.trace.recorded();
    t.ready_backlog_peak = t.ready_backlog_peak.max(ready_backlog_peak(&out.trace));
    let flows = match cfg.network {
        Some(_) => net_inputs(&out.trace)?,
        None => Vec::new(),
    };
    replay_trace(workload, &out.trace, own_sink.clone(), t, spans, parent)?;
    let expected = (
        out.net_flows_delivered,
        out.net_flows_aborted,
        out.net_stall_secs,
    );
    drop(out);

    if let Some(net) = &cfg.network {
        t.net_flows += flows.len() as u64;
        let span = spans.open("net", Some(parent));
        let (timed, emitted, got) = replay_net(cfg, net, &flows, own_sink.clone());
        spans.close(span, timed.calls(), Some(timed.histogram().clone()));
        t.net.add(&timed, emitted);
        if got != expected {
            return Err(format!(
                "{}: net replay delivered/aborted/stall {got:?}, the run {expected:?}",
                workload.name
            ));
        }
    }
    if let Some(dag) = &cfg.dag {
        let span = spans.open("dag", Some(parent));
        let mut rng = RngStream::new(cfg.seed, "dag");
        let machines = cfg.machines as u32;
        let actor: DagActor<'static, DagMsg> = match &cfg.network {
            Some(net) => DagActor::with_rack_width(
                machines,
                dag.clone(),
                &mut rng,
                net.nodes_per_rack as u32,
            ),
            None => DagActor::new(machines, dag.clone(), &mut rng),
        };
        let mut timed = Timed::new(actor);
        let mut sim: Simulation<'_, DagMsg> = Simulation::new(cfg.seed);
        sim.set_horizon(cfg.horizon);
        if let Some(stream) = own_sink {
            sim.set_trace(TraceBus::streaming(stream));
        }
        let id = sim.add_actor(&mut timed);
        sim.schedule(SimTime::ZERO, id, DagMsg::Start);
        sim.run();
        let emitted = sim.trace().recorded();
        drop(sim);
        spans.close(span, timed.calls(), Some(timed.histogram().clone()));
        t.dag.add(&timed, emitted);
        if timed.inner.jobs_finished() != dag.jobs as u64 {
            return Err(format!(
                "{}: standalone DagActor finished {} of {} jobs",
                workload.name,
                timed.inner.jobs_finished(),
                dag.jobs
            ));
        }
    }
    if let Some(batch) = &cfg.batch {
        let jobs = BatchWorkloadGenerator::new(BatchWorkloadConfig::default()).generate(
            cfg.horizon,
            batch.jobs,
            &mut RngStream::new(cfg.seed, "workload"),
        );
        t.rms_tasks += jobs.iter().map(|j| j.tasks.len() as u64).sum::<u64>();
        let cluster = Cluster::homogeneous(
            ClusterId(0),
            "batch",
            MachineSpec::commodity("std-8", 8.0, 32.0),
            cfg.machines as u32,
        );
        let mut scheduler = ClusterScheduler::new(cluster, SchedulerConfig::default(), cfg.seed);
        let span = spans.open("rms", Some(parent));
        let start = Instant::now();
        let outcome = scheduler.run(jobs, cfg.horizon);
        t.rms_schedule_s += start.elapsed().as_secs_f64();
        spans.close(span, outcome.completions.len() as u64, None);
    }
    Ok(())
}

/// The trace layer: the recorded events through both sinks and every
/// numeric field through a sketch, then the workload's queries on a bus of
/// its own sink. A full-sink workload's replayed bus must equal its trace.
fn replay_trace(
    workload: &Workload,
    trace: &TraceBus,
    own_sink: Option<StreamConfig>,
    t: &mut Totals,
    spans: &mut Spans,
    parent: usize,
) -> Result<(), String> {
    let events = trace.events();
    let full_limit = if own_sink.is_some() {
        events.len().min(FULL_REPLAY_CAP)
    } else {
        events.len()
    };

    let span = spans.open("trace.full", Some(parent));
    let mut full = TraceBus::new();
    let full_pass = timed_pass(trace, &events[..full_limit], |items| {
        time(|| items.replay(&mut full))
    })?;
    spans.close(span, full_pass.calls, None);
    t.full.add(full_pass);

    let span = spans.open("trace.streaming", Some(parent));
    let mut streaming = TraceBus::streaming(own_sink.clone().unwrap_or_default());
    let streaming_pass = timed_pass(trace, events, |items| time(|| items.replay(&mut streaming)))?;
    spans.close(span, streaming_pass.calls, None);
    t.streaming.add(streaming_pass);

    let centroids = own_sink
        .as_ref()
        .map_or(QuantileSketch::DEFAULT_CENTROIDS, |s| s.sketch_centroids);
    let span = spans.open("sketch", Some(parent));
    let mut sketches = Sketches::new(centroids);
    let pass = timed_pass(trace, events, |items| sketches.replay(items))?;
    spans.close(span, pass.calls, None);
    t.sketch.add(pass);

    let (own, own_pass) = match own_sink {
        Some(_) => (&streaming, streaming_pass),
        None => {
            if full != *trace {
                return Err(format!(
                    "{}: the replayed trace differs from the run's",
                    workload.name
                ));
            }
            (&full, full_pass)
        }
    };
    t.own.add(own_pass);
    t.retained_bytes += own.approx_retained_bytes();
    let span = spans.open("trace.query", Some(parent));
    let start = Instant::now();
    black_box((workload.queries)(own));
    t.query_s += start.elapsed().as_secs_f64();
    spans.close(span, 1, None);
    Ok(())
}

/// Recorded events as the scalar fields an emitter hands the bus, built
/// before any timer starts.
struct Items<'t> {
    events: Vec<(SimTime, &'t str, &'t str, std::ops::Range<usize>)>,
    fields: Vec<(&'static str, Field<'t>)>,
}

impl<'t> Items<'t> {
    fn build(trace: &'t TraceBus, chunk: &'t [TraceEvent]) -> Result<Self, String> {
        let names = trace.interner();
        let mut items = Items {
            events: Vec::with_capacity(chunk.len()),
            fields: Vec::new(),
        };
        for e in chunk {
            let Json::Obj(entries) = &e.payload else {
                return Err(format!("payload {:?} is not an object", e.payload));
            };
            let first = items.fields.len();
            for (key, value) in entries {
                let Cow::Borrowed(key) = key else {
                    return Err(format!("payload key {key:?} is not static"));
                };
                let field = match value {
                    Json::Float(x) => Field::F64(*x),
                    Json::UInt(x) => Field::U64(*x),
                    Json::Int(x) => Field::I64(*x),
                    Json::Bool(x) => Field::Bool(*x),
                    Json::Str(s) => Field::Str(s),
                    other => return Err(format!("field {key} = {other:?} is not a scalar")),
                };
                items.fields.push((key, field));
            }
            let (component, event) = (names.resolve(e.component), names.resolve(e.event));
            items
                .events
                .push((e.at, component, event, first..items.fields.len()));
        }
        Ok(items)
    }

    fn replay(&self, bus: &mut TraceBus) {
        for (at, component, event, fields) in &self.events {
            bus.record_fields(*at, component, event, &self.fields[fields.clone()]);
        }
    }
}

/// Feeds `events` to `f` a chunk at a time, converting each chunk before
/// `f` runs; `f` returns the time its measured part took. Returns the total
/// time and the events fed.
fn timed_pass<'t>(
    trace: &'t TraceBus,
    events: &'t [TraceEvent],
    mut f: impl FnMut(&Items<'t>) -> Duration,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    for chunk in events.chunks(CHUNK) {
        let items = Items::build(trace, chunk)?;
        pass.secs += f(&items).as_secs_f64();
        pass.calls += chunk.len() as u64;
    }
    Ok(pass)
}

/// How long `f` took.
fn time(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// One sketch per `(component, event, field)`, fed what a streaming sink
/// folds: every finite numeric field value.
struct Sketches<'t> {
    centroids: usize,
    index: HashMap<(&'t str, &'t str, &'static str), usize>,
    sketches: Vec<QuantileSketch>,
    values: Vec<(usize, f64)>,
}

impl<'t> Sketches<'t> {
    fn new(centroids: usize) -> Self {
        Sketches {
            centroids,
            index: HashMap::new(),
            sketches: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Times only the `record` calls; the per-chunk value list is built
    /// first.
    fn replay(&mut self, items: &Items<'t>) -> Duration {
        self.values.clear();
        for (_, component, event, fields) in &items.events {
            for &(key, field) in &items.fields[fields.clone()] {
                let x = match field {
                    Field::F64(x) if x.is_finite() => x,
                    Field::U64(x) => x as f64,
                    Field::I64(x) => x as f64,
                    _ => continue,
                };
                let next = self.sketches.len();
                let i = *self.index.entry((component, event, key)).or_insert(next);
                if i == next {
                    self.sketches.push(QuantileSketch::new(self.centroids));
                }
                self.values.push((i, x));
            }
        }
        let start = Instant::now();
        for &(i, x) in &self.values {
            self.sketches[i].record(x);
        }
        start.elapsed()
    }
}

/// The flows the fabric started, as `(instant, request)` in handling
/// order. Link faults are not replayed: no workload has them.
fn net_inputs(trace: &TraceBus) -> Result<Vec<(SimTime, TransferReq)>, String> {
    const OWNERS: [FlowOwner; 8] = [
        FlowOwner::Faas,
        FlowOwner::FaasResp,
        FlowOwner::Rms,
        FlowOwner::BdMap,
        FlowOwner::BdShuffle,
        FlowOwner::Game,
        FlowOwner::Dag,
        FlowOwner::Test,
    ];
    let names = trace.interner();
    let Some(net) = names.lookup("net") else {
        return Ok(Vec::new());
    };
    let uint = |e: &TraceEvent, key: &str| match e.payload.get(key) {
        Some(Json::UInt(x)) => Ok(*x),
        other => Err(format!("net/flow_start {key} = {other:?}")),
    };
    let mut flows = Vec::new();
    for e in trace.events().iter().filter(|e| e.component == net) {
        match names.resolve(e.event) {
            "flow_start" => {
                let owner = e
                    .field_str("owner")
                    .and_then(|name| OWNERS.into_iter().find(|o| o.name() == name));
                let owner = owner.ok_or_else(|| format!("net/flow_start owner {:?}", e.payload))?;
                let node =
                    |key| uint(e, key).and_then(|x| u32::try_from(x).map_err(|e| e.to_string()));
                flows.push((
                    e.at,
                    TransferReq {
                        src: node("src")?,
                        dst: node("dst")?,
                        bytes: uint(e, "bytes")?,
                        tag: FlowTag {
                            owner,
                            id: uint(e, "id")?,
                        },
                    },
                ));
            }
            "flow_end" | "flow_aborted" => {}
            other => return Err(format!("net/{other} is not replayed")),
        }
    }
    Ok(flows)
}

/// Replays the recorded flows into a standalone `NetActor` on the
/// scenario's fabric. Each instant's flows are scheduled only after every
/// earlier event has run, so they queue behind the actor's own pending
/// events at that instant, as the tenants' zero-delay sends did. Returns
/// the timed actor, the events it emitted, and its delivered and aborted
/// flows and stall sum.
fn replay_net(
    cfg: &ScenarioConfig,
    net: &NetworkConfig,
    flows: &[(SimTime, TransferReq)],
    own_sink: Option<StreamConfig>,
) -> (Timed<NetActor<'static, NetMsg>>, u64, (u64, u64, f64)) {
    let topology = NetTopology::new(
        cfg.machines as u32,
        net.nodes_per_rack as u32,
        net.node_bandwidth_mbs * MIB,
        net.rack_bandwidth_mbs * MIB,
        net.same_rack_latency,
        net.cross_rack_latency,
    );
    let actor = NetActor::new(topology).with_flow_timeout(net.flow_timeout);
    let mut timed = Timed::new(actor).with_gauge(|a| a.in_flight() as u64);
    let mut sim: Simulation<'_, NetMsg> = Simulation::new(cfg.seed);
    sim.set_horizon(cfg.horizon);
    if let Some(stream) = own_sink {
        sim.set_trace(TraceBus::streaming(stream));
    }
    let id = sim.add_actor(&mut timed);
    for (i, &(at, req)) in flows.iter().enumerate() {
        if i == 0 || flows[i - 1].0 != at {
            sim.run_until(SimTime::from_nanos(at.as_nanos().saturating_sub(1)));
        }
        sim.schedule(at, id, NetMsg::Transfer(req));
    }
    sim.run();
    let emitted = sim.trace().recorded();
    drop(sim);
    let a = &timed.inner;
    let outcome = (a.delivered(), a.aborted(), a.stall_secs());
    (timed, emitted, outcome)
}

/// The deepest the DAG ready queue got: tasks made ready but not yet
/// placed, over the recorded trace.
fn ready_backlog_peak(trace: &TraceBus) -> u64 {
    let names = trace.interner();
    let (Some(dag), Some(ready), Some(placed)) = (
        names.lookup("dag"),
        names.lookup("task_ready"),
        names.lookup("task_placed"),
    ) else {
        return 0;
    };
    let (mut depth, mut peak) = (0i64, 0i64);
    for e in trace.events() {
        if e.matches(dag, ready) {
            depth += 1;
            peak = peak.max(depth);
        } else if e.matches(dag, placed) {
            depth -= 1;
        }
    }
    peak as u64
}

/// Median of `reps` runs of `f`, which returns the value of one run.
fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    Samples::new((0..reps).map(|_| f()).collect()).median()
}

/// Ticks through the engine; with `retime`, each tick also re-arms a far
/// completion event and cancels the previous one, as the net actor retimes
/// its pending completion.
struct Ticker {
    left: u32,
    retime: bool,
    pending: Option<EventToken>,
}

#[derive(Clone, Copy)]
enum Tick {
    Tick,
    Complete,
}

impl Actor<Tick> for Ticker {
    fn handle(&mut self, ctx: &mut Context<'_, Tick>, msg: Tick) {
        if let Tick::Complete = msg {
            self.pending = None;
            return;
        }
        if self.retime {
            if let Some(token) = self.pending.take() {
                ctx.cancel(token);
            }
            self.pending = Some(ctx.send_self(SimDuration::from_secs(1), Tick::Complete));
        }
        if self.left > 0 {
            self.left -= 1;
            ctx.send_self(SimDuration::from_millis(1), Tick::Tick);
        }
    }
}

/// Nanoseconds per tick over 200k ticks.
fn tick_ns(retime: bool) -> f64 {
    const TICKS: u32 = 200_000;
    median_of(7, || {
        let mut sim = Simulation::new(7);
        let id = sim.add_actor(Ticker {
            left: TICKS,
            retime,
            pending: None,
        });
        sim.schedule(SimTime::ZERO, id, Tick::Tick);
        let start = Instant::now();
        black_box(sim.run());
        start.elapsed().as_secs_f64() * 1e9 / f64::from(TICKS)
    })
}

/// The layer costs that do not depend on the workload, on fixed inputs
/// derived from `seed`.
fn fixed_costs(seed: u64, spans: &mut Spans) -> Values {
    let span = spans.open("fixed_costs", None);
    let mut values = vec![
        ("engine.dispatch_ns", tick_ns(false)),
        ("engine.cancel_ns", tick_ns(true)),
    ];

    // max_min_rates on a 1024-node fabric, 8 nodes per rack.
    let fabric = NetworkConfig::default();
    let topology = NetTopology::new(
        1024,
        8,
        fabric.node_bandwidth_mbs * MIB,
        fabric.rack_bandwidth_mbs * MIB,
        fabric.same_rack_latency,
        fabric.cross_rack_latency,
    );
    let capacity = topology.effective_capacities();
    let mut rng = RngStream::new(seed, "benchmark-max-min");
    for (name, flows) in [
        ("net.max_min_us.f100", 100),
        ("net.max_min_us.f1k", 1000),
        ("net.max_min_us.f16k", 16_384),
    ] {
        let paths: Vec<_> = (0..flows)
            .map(|_| {
                let src = rng.uniform_usize(1024) as u32;
                let dst = (src + 1 + rng.uniform_usize(1023) as u32) % 1024;
                topology.path(src, dst)
            })
            .collect();
        let reps = (20_000 / flows).clamp(5, 200);
        values.push((
            name,
            median_of(reps, || {
                let start = Instant::now();
                black_box(max_min_rates(&paths, &capacity));
                start.elapsed().as_secs_f64() * 1e6
            }),
        ));
    }

    // Placement on a half-full 32-node pool, as the DAG layer calls it.
    let spec = DagClusterSpec {
        machines: 32,
        cores_per_machine: 8.0,
        memory_per_machine_gb: 32.0,
    };
    let mut cluster = spec.build("benchmark-select");
    let mut rng = RngStream::new(seed, "benchmark-select");
    let req = ResourceVector::new(2.0, 4.0);
    for _ in 0..64 {
        let machine = cluster.machines()[rng.uniform_usize(32)].id();
        cluster.machine_mut(machine).try_allocate(&req);
    }
    let views: Vec<QueuedTaskView<'_>> = (0..1000u64)
        .map(|i| QueuedTaskView {
            id: TaskId(i),
            submit: SimTime::ZERO,
            ready_at: SimTime::ZERO,
            demand_left: 120.0,
            req: &req,
            deadline: None,
            rank: rng.uniform_f64(0.0, 1000.0),
            data_home: Some(rng.uniform_usize(32) as u32),
        })
        .collect();
    let portfolio = DagPortfolio::standard(8);
    for (name, policy) in [
        "rms.select_us.heft",
        "rms.select_us.greedy",
        "rms.select_us.locality",
    ]
    .into_iter()
    .zip(portfolio.candidates())
    {
        values.push((
            name,
            median_of(9, || {
                let start = Instant::now();
                for view in &views {
                    black_box(policy.select_machine(&cluster, view, &mut rng));
                }
                start.elapsed().as_secs_f64() * 1e6 / views.len() as f64
            }),
        ));
    }

    // One portfolio decision per class: every candidate's lookahead on a
    // workflow of the backlog workload's shape.
    let shape = DagShape {
        width: 16,
        work: 120.0,
        cores: 2.0,
        memory_gb: 4.0,
        edge_bytes: 32 << 20,
    };
    for (name, class) in [
        ("dag.lookahead_us.chain", DagClass::Chain),
        ("dag.lookahead_us.fork_join", DagClass::ForkJoin),
        ("dag.lookahead_us.montage", DagClass::Montage),
        ("dag.lookahead_us.ligo", DagClass::Ligo),
    ] {
        let dag = generate(class, &shape, &mut rng);
        let candidates = portfolio.candidates();
        values.push((
            name,
            median_of(7, || {
                let start = Instant::now();
                for policy in candidates {
                    black_box(lookahead_makespan(
                        &dag,
                        &spec,
                        100.0 * MIB,
                        policy.as_ref(),
                    ));
                }
                start.elapsed().as_secs_f64() * 1e6 / candidates.len() as f64
            }),
        ));
    }
    spans.close(span, values.len() as u64, None);
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, PINNED_SEED};

    /// Replays one scenario of `workload` at half its volume: half the
    /// horizon, or half the workflows.
    fn replay_half(workload: &str) -> Totals {
        let w = find(workload).unwrap();
        let mut cfg = (w.configs)(PINNED_SEED).remove(0);
        match &mut cfg.dag {
            Some(dag) => dag.jobs /= 2,
            None => cfg.horizon = SimTime::from_nanos(cfg.horizon.as_nanos() / 2),
        }
        let mut totals = Totals::default();
        replay_scenario(w, &cfg, &mut totals, &mut Spans::default(), 0).unwrap();
        totals
    }

    /// `replay_scenario` fails unless the net replay reproduces the run's
    /// delivered and aborted flows and stall sum exactly, and the standalone
    /// DagActor finishes every job.
    #[test]
    fn net_replay_reproduces_fabric_stress() {
        let t = replay_half("fabric_stress");
        assert!(t.net_flows > 50_000, "{} flows", t.net_flows);
        assert!(t.net.calls > 2 * t.net_flows, "{} calls", t.net.calls);
    }

    #[test]
    fn net_and_dag_replays_reproduce_dag_backlog() {
        let t = replay_half("dag_backlog");
        assert!(t.net_flows > 5_000, "{} flows", t.net_flows);
        assert!(t.dag.calls > 0 && t.ready_backlog_peak > 0);
    }

    #[test]
    fn replayed_full_trace_equals_the_run() {
        let t = replay_half("composed_batch");
        assert_eq!(t.full.calls, t.trace_events);
        assert_eq!(t.net_flows, 0);
    }
}
