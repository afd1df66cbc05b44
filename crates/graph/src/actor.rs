//! Graph analytics as a discrete-event actor.
//!
//! [`BspActor`] runs graphalytics queries on the engine: each query is a
//! real BSP computation (driven through [`BspStepper`], so the per-superstep
//! work profile is exact, not modeled), replayed over virtual time one
//! superstep per engine message. Superstep durations follow the measured
//! active-vertex and message counts, stretched by worker loss (fanned in
//! from a scenario-level failure injector) and by co-tenant network
//! pressure (a big-data shuffle window opened via [`GraphMsg::Pressure`]) —
//! the supersteps that run slowed are the *stragglers* the Graphalytics
//! robustness metric counts.
//!
//! Everything lands on the shared trace under component `"graph"`, so
//! superstep latencies, straggler counts, and query makespans are computed
//! from traces alone.

use crate::algorithms::{BfsProgram, CdlpProgram, PageRankProgram, WccProgram};
use crate::bsp::{BspEngine, BspStepper, StepStats};
use crate::generate::erdos_renyi;
use crate::graph::Graph;
use crate::graphalytics::Algorithm;
use mcs_simcore::engine::{Actor, Context, MessageEnvelope, Simulation};
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::{SimDuration, SimTime};
use mcs_simcore::trace::{Field, TraceBus};

/// Configuration of the graph-analytics subsystem inside a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphConfig {
    /// Analytics queries to submit.
    pub queries: usize,
    /// Seconds between successive query submissions.
    pub submit_interval_secs: f64,
    /// Vertices of the (shared) input graph.
    pub vertices: u32,
    /// Edges of the input graph.
    pub edges: u64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            queries: 8,
            submit_interval_secs: 900.0,
            vertices: 2_000,
            edges: 8_000,
        }
    }
}

/// PageRank power iterations.
const PAGERANK_ITERATIONS: usize = 10;
/// CDLP propagation rounds.
const CDLP_ITERATIONS: usize = 5;
/// Fixed barrier/coordination cost per superstep, seconds.
const BARRIER_SECS: f64 = 2.0;
/// Compute seconds per thousand active vertices.
const SECS_PER_K_ACTIVE: f64 = 6.0;
/// Communication seconds per thousand BSP messages.
const SECS_PER_K_MESSAGES: f64 = 3.0;
/// Superstep slowdown multiplier while co-tenant network pressure (e.g. a
/// big-data shuffle window) is on.
const PRESSURE_SLOWDOWN: f64 = 1.8;

/// The BSP algorithms the actor rotates queries over (the subset of the
/// Graphalytics six with a vertex-centric program).
const ROTATION: [Algorithm; 4] =
    [Algorithm::Bfs, Algorithm::PageRank, Algorithm::Wcc, Algorithm::Cdlp];

/// The graph actor's message vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphMsg {
    /// Kick-off: submit all queries on the configured cadence.
    Start,
    /// Query `.0` enters the system: profile it and start superstep 0.
    Submit(usize),
    /// Query `.0`'s current superstep hit its barrier.
    SuperstepDone(usize),
    /// A BSP worker node died (from the scenario failure injector).
    NodeFail(u32),
    /// A worker came back.
    NodeRepair(u32),
    /// Co-tenant network pressure turned on (`true`) or off (`false`).
    Pressure(bool),
}

struct QueryState {
    algorithm: Algorithm,
    steps: Vec<StepStats>,
    messages: u64,
    next: usize,
    submitted: SimTime,
    step_started: SimTime,
}

/// Runs graphalytics queries as one engine actor.
pub struct BspActor {
    config: GraphConfig,
    graph: Graph,
    workers: u32,
    dead_workers: u64,
    pressure: u32,
    queries: Vec<Option<QueryState>>,
    stragglers: u64,
}

impl BspActor {
    /// Builds the actor over a fresh synthetic graph shared by all queries.
    /// The RNG stream must be dedicated to this actor (label `"graph"` by
    /// convention) so composition does not perturb other subsystems.
    pub fn new(config: GraphConfig, workers: u32, mut rng: RngStream) -> Self {
        let graph = erdos_renyi(config.vertices.max(1), config.edges, &mut rng).undirected();
        BspActor {
            config,
            graph,
            workers: workers.max(1),
            dead_workers: 0,
            pressure: 0,
            queries: Vec::new(),
            stragglers: 0,
        }
    }

    /// Supersteps that executed slowed (worker loss or co-tenant pressure).
    pub fn stragglers(&self) -> u64 {
        self.stragglers
    }

    /// Worker-loss slowdown: losing a fraction `f` of the fleet stretches
    /// supersteps by `1 / (1 - f)`, capped at 4x (mirrors the big-data
    /// degradation model so shared failures hit both tenants comparably).
    fn degradation(&self) -> f64 {
        let alive = (self.workers as f64 - self.dead_workers as f64).max(1.0);
        (self.workers as f64 / alive).min(4.0)
    }

    /// The combined slowdown multiplier for a superstep starting now.
    fn slowdown(&self) -> f64 {
        let pressure = if self.pressure > 0 { PRESSURE_SLOWDOWN } else { 1.0 };
        self.degradation() * pressure
    }

    /// Drives the real BSP computation to completion eagerly, returning its
    /// per-superstep work profile. The *timing* is replayed over virtual
    /// time afterwards, which keeps failures/pressure affecting durations
    /// without perturbing the algorithm's result.
    fn profile(&self, algorithm: Algorithm) -> Vec<StepStats> {
        let engine = BspEngine::serial();
        fn steps<P: crate::bsp::VertexProgram>(
            engine: BspEngine,
            graph: &Graph,
            program: P,
        ) -> Vec<StepStats> {
            let mut stepper = BspStepper::new(engine, graph, program);
            let mut all = Vec::new();
            while let Some(s) = stepper.step() {
                all.push(s);
            }
            all
        }
        match algorithm {
            Algorithm::PageRank => steps(
                engine,
                &self.graph,
                PageRankProgram { iterations: PAGERANK_ITERATIONS },
            ),
            Algorithm::Wcc => steps(engine, &self.graph, WccProgram),
            Algorithm::Cdlp => steps(
                engine,
                &self.graph,
                CdlpProgram { iterations: CDLP_ITERATIONS },
            ),
            // BFS is also the fallback for the non-vertex-centric members
            // of the Graphalytics six (LCC, SSSP) if a caller requests them.
            _ => steps(engine, &self.graph, BfsProgram { source: 0 }),
        }
    }

    fn start<M: MessageEnvelope<GraphMsg>>(&mut self, ctx: &mut Context<'_, M>) {
        for query in 0..self.config.queries {
            let at = ctx.now()
                + SimDuration::from_secs_f64(self.config.submit_interval_secs * query as f64);
            ctx.send_at(ctx.self_id(), at, M::wrap(GraphMsg::Submit(query)));
        }
    }

    fn submit<M: MessageEnvelope<GraphMsg>>(&mut self, ctx: &mut Context<'_, M>, query: usize) {
        let algorithm = ROTATION[query % ROTATION.len()];
        let steps = self.profile(algorithm);
        let messages = steps.iter().map(|s| s.messages_sent).sum();
        ctx.emit_fields(
            "graph",
            "query_submit",
            &[
                ("query", Field::U64(query as u64)),
                ("algorithm", Field::Str(algorithm.name())),
                ("supersteps", Field::U64(steps.len() as u64)),
                ("vertices", Field::U64(u64::from(self.graph.vertex_count()))),
                ("edges", Field::U64(self.graph.edge_count())),
            ],
        );
        if self.queries.len() <= query {
            self.queries.resize_with(query + 1, || None);
        }
        self.queries[query] = Some(QueryState {
            algorithm,
            steps,
            messages,
            next: 0,
            submitted: ctx.now(),
            step_started: ctx.now(),
        });
        self.start_superstep(ctx, query);
    }

    fn start_superstep<M: MessageEnvelope<GraphMsg>>(
        &mut self,
        ctx: &mut Context<'_, M>,
        query: usize,
    ) {
        let slowdown = self.slowdown();
        let Some(state) = self.queries.get_mut(query).and_then(Option::as_mut) else { return };
        let Some(stats) = state.steps.get(state.next).copied() else { return };
        state.step_started = ctx.now();
        let healthy = BARRIER_SECS
            + SECS_PER_K_ACTIVE * stats.active_vertices as f64 / 1_000.0
            + SECS_PER_K_MESSAGES * stats.messages_sent as f64 / 1_000.0;
        let secs = healthy * slowdown;
        let straggler = slowdown > 1.0;
        if straggler {
            self.stragglers += 1;
        }
        ctx.emit_fields(
            "graph",
            "superstep_start",
            &[
                ("query", Field::U64(query as u64)),
                ("superstep", Field::U64(stats.superstep as u64)),
                ("active", Field::U64(stats.active_vertices)),
                ("messages", Field::U64(stats.messages_sent)),
                ("secs", Field::F64(secs)),
                ("slowdown", Field::F64(slowdown)),
                ("straggler", Field::Bool(straggler)),
            ],
        );
        ctx.send_self(SimDuration::from_secs_f64(secs), M::wrap(GraphMsg::SuperstepDone(query)));
    }

    fn superstep_done<M: MessageEnvelope<GraphMsg>>(
        &mut self,
        ctx: &mut Context<'_, M>,
        query: usize,
    ) {
        let now = ctx.now();
        let Some(state) = self.queries.get_mut(query).and_then(Option::as_mut) else { return };
        let stats = state.steps[state.next];
        ctx.emit_fields(
            "graph",
            "superstep_finish",
            &[
                ("query", Field::U64(query as u64)),
                ("superstep", Field::U64(stats.superstep as u64)),
                ("secs", Field::F64((now - state.step_started).as_secs_f64())),
            ],
        );
        state.next += 1;
        if state.next < state.steps.len() {
            self.start_superstep(ctx, query);
        } else {
            let state = self.queries[query].take().expect("query state present");
            ctx.emit_fields(
                "graph",
                "query_finish",
                &[
                    ("query", Field::U64(query as u64)),
                    ("algorithm", Field::Str(state.algorithm.name())),
                    ("makespan_secs", Field::F64((now - state.submitted).as_secs_f64())),
                    ("supersteps", Field::U64(state.steps.len() as u64)),
                    ("bsp_messages", Field::U64(state.messages)),
                ],
            );
        }
    }

    fn node_fail<M: MessageEnvelope<GraphMsg>>(&mut self, ctx: &mut Context<'_, M>, node: u32) {
        if node >= self.workers {
            return;
        }
        self.dead_workers += 1;
        ctx.emit_fields(
            "graph",
            "worker_fail",
            &[
                ("worker", Field::U64(u64::from(node))),
                ("degradation", Field::F64(self.degradation())),
            ],
        );
    }

    fn node_repair<M: MessageEnvelope<GraphMsg>>(&mut self, ctx: &mut Context<'_, M>, node: u32) {
        if node >= self.workers || self.dead_workers == 0 {
            return;
        }
        self.dead_workers -= 1;
        ctx.emit_fields("graph", "worker_repair", &[("worker", Field::U64(u64::from(node)))]);
    }

    fn set_pressure<M: MessageEnvelope<GraphMsg>>(&mut self, ctx: &mut Context<'_, M>, on: bool) {
        if on {
            self.pressure += 1;
        } else {
            self.pressure = self.pressure.saturating_sub(1);
        }
        ctx.emit_fields("graph", "pressure", &[("windows", Field::U64(u64::from(self.pressure)))]);
    }
}

impl<M: MessageEnvelope<GraphMsg>> Actor<M> for BspActor {
    fn handle(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        let Some(msg) = msg.unwrap() else { return };
        match msg {
            GraphMsg::Start => self.start(ctx),
            GraphMsg::Submit(query) => self.submit(ctx, query),
            GraphMsg::SuperstepDone(query) => self.superstep_done(ctx, query),
            GraphMsg::NodeFail(node) => self.node_fail(ctx, node),
            GraphMsg::NodeRepair(node) => self.node_repair(ctx, node),
            GraphMsg::Pressure(on) => self.set_pressure(ctx, on),
        }
    }
}

/// Runs graph analytics standalone on a single-actor simulation — the thin
/// wrapper equivalent of composing [`BspActor`] into a scenario. Returns the
/// trace; every metric is derived from it.
pub fn run_graph_standalone(
    config: &GraphConfig,
    workers: u32,
    seed: u64,
    horizon: SimTime,
) -> TraceBus {
    let mut actor = BspActor::new(config.clone(), workers, RngStream::new(seed, "graph"));
    let mut sim: Simulation<'_, GraphMsg> = Simulation::new(seed);
    sim.set_horizon(horizon);
    let id = sim.add_actor(&mut actor);
    sim.schedule(SimTime::ZERO, id, GraphMsg::Start);
    sim.run();
    sim.take_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_simcore::codec::Json;

    const HOUR: u64 = 3600;

    fn small() -> GraphConfig {
        GraphConfig { queries: 4, vertices: 300, edges: 1_200, ..GraphConfig::default() }
    }

    #[test]
    fn standalone_run_completes_all_queries_and_traces_supersteps() {
        let config = small();
        let trace = run_graph_standalone(&config, 16, 7, SimTime::from_secs(12 * HOUR));
        assert_eq!(trace.count("graph", "query_submit"), config.queries);
        assert_eq!(trace.count("graph", "query_finish"), config.queries);
        assert_eq!(
            trace.count("graph", "superstep_start"),
            trace.count("graph", "superstep_finish")
        );
        assert!(trace.count("graph", "superstep_finish") > config.queries);
        // Healthy standalone run: nothing slows down, so no stragglers.
        let stragglers = trace
            .select("graph", "superstep_start")
            .iter()
            .filter(|e| e.payload.get("straggler") == Some(&Json::Bool(true)))
            .count();
        assert_eq!(stragglers, 0);
    }

    #[test]
    fn standalone_run_is_deterministic() {
        let config = small();
        let a = run_graph_standalone(&config, 8, 11, SimTime::from_secs(8 * HOUR));
        let b = run_graph_standalone(&config, 8, 11, SimTime::from_secs(8 * HOUR));
        assert_eq!(a.to_json_string(), b.to_json_string());
    }

    #[test]
    fn worker_failures_and_pressure_make_stragglers() {
        let config = small();
        let horizon = SimTime::from_secs(12 * HOUR);

        let healthy = run_graph_standalone(&config, 8, 3, horizon);

        let mut actor = BspActor::new(config.clone(), 8, RngStream::new(3, "graph"));
        let mut sim: Simulation<'_, GraphMsg> = Simulation::new(3);
        sim.set_horizon(horizon);
        let id = sim.add_actor(&mut actor);
        sim.schedule(SimTime::ZERO, id, GraphMsg::Start);
        for node in 0..3 {
            sim.schedule(SimTime::from_secs(1), id, GraphMsg::NodeFail(node));
        }
        sim.schedule(SimTime::from_secs(1), id, GraphMsg::Pressure(true));
        sim.run();
        let slowed = sim.take_trace();
        drop(sim);

        assert!(actor.stragglers() > 0);
        let last = |t: &TraceBus| t.select("graph", "query_finish").last().map(|e| e.at).unwrap();
        assert!(last(&slowed) > last(&healthy), "slowdown must stretch the critical path");
    }

    #[test]
    fn queries_rotate_over_the_bsp_algorithms() {
        let config = GraphConfig { queries: 4, ..small() };
        let trace = run_graph_standalone(&config, 8, 5, SimTime::from_secs(24 * HOUR));
        let submitted: Vec<String> = trace
            .select("graph", "query_submit")
            .iter()
            .filter_map(|e| e.field_str("algorithm").map(str::to_owned))
            .collect();
        assert_eq!(submitted, vec!["bfs", "pagerank", "wcc", "cdlp"]);
    }
}
