//! Composed ecosystem scenarios: every subsystem in one simulation.
//!
//! The paper's central claim is that clouds, grids, schedulers, and
//! serverless platforms are not isolated systems but one *ecosystem* whose
//! interesting behaviour is emergent (§2.1, P5). This module is that claim
//! made executable: a [`Scenario`] wires the batch scheduler (`mcs-rms`),
//! the autoscaling governor (`mcs-autoscale`), the FaaS platform
//! (`mcs-faas`), a correlated-failure injector (`mcs-failure`), a workload
//! arrival source (`mcs-workload`), the MapReduce/dataflow stack
//! (`mcs-bigdata`), the graph-analytics BSP engine (`mcs-graph`), and the
//! gaming virtual world (`mcs-gaming`) into a *single* [`Simulation`] over
//! one unified message type, [`EcosystemMsg`].
//!
//! Subsystems are opt-in: [`ScenarioConfig`] nests one sub-config per
//! subsystem (`Option`-gated), so one run can host anything from a single
//! actor (useful for standalone-vs-composed equivalence tests) to the full
//! stack. Cross-subsystem coupling is explicit: machine failures fan out to
//! every tenant of the shared fleet, and big-data shuffle windows exert
//! network pressure on graph supersteps and gaming zone capacity.
//!
//! Every component keeps its own seeded RNG stream (derived from the
//! scenario seed with a distinct label), so the composition is
//! deterministic: two runs with the same [`ScenarioConfig`] produce
//! byte-identical event traces. All cross-component coupling is visible on
//! the shared [`TraceBus`], which [`ScenarioOutcome`] returns for analysis.

use mcs_autoscale::autoscalers::{Autoscaler, React};
use mcs_autoscale::governor::{GovernorActor, GovernorMsg};
use mcs_autoscale::service::ServiceConfig;
use mcs_bigdata::actor::{BdPhase, BigdataMsg, DataflowActor, REPLICATION as BIGDATA_REPLICATION};
use mcs_faas::actor::{CongestionConfig, FaasActor, FaasFault, FaasMsg};
use mcs_faas::platform::{FaasPlatform, FunctionSpec, KeepAlivePolicy, PlatformReport};
use mcs_failure::inject::{FailureEvent, FailureInjector, InjectorMsg};
use mcs_failure::model::{FailureModel, Fault, FaultKind, FaultMix, SpaceCorrelatedFailures};
use mcs_dag::actor::{DagActor, DagMsg, LOCALITY_DOMAINS as DAG_LOCALITY_DOMAINS};
use mcs_gaming::actor::{GamingMsg, WorldActor};
use mcs_net::actor::{FlowDone, FlowOwner, FlowTag, NetActor, NetFault, NetMsg, TransferReq};
use mcs_net::topology::NetTopology;
use mcs_graph::actor::{BspActor, GraphMsg};
use mcs_infra::prelude::{Cluster, ClusterId, MachineSpec};
use mcs_rms::portfolio::{default_portfolio, Objective, PortfolioSelector};
use mcs_rms::scheduler::{ClusterScheduler, RmsMsg, ScheduleOutcome, SchedulerConfig};
use mcs_simcore::engine::{Actor, ActorId, Context, MessageEnvelope, Simulation};
use mcs_simcore::error::McsError;
use mcs_simcore::resilience::ResilienceConfig;
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::{SimDuration, SimTime};
use mcs_simcore::trace::{StreamConfig, TraceBus};
use mcs_workload::actor::{ArrivalActor, ArrivalMsg};
use mcs_workload::arrival::Poisson;
use mcs_workload::generator::{BatchWorkloadConfig, BatchWorkloadGenerator};

pub use mcs_bigdata::actor::BigdataConfig;
pub use mcs_dag::actor::{DagConfig, DagPolicy};
pub use mcs_gaming::actor::GamingConfig;
pub use mcs_graph::actor::GraphConfig;

/// The unified message type of a composed ecosystem simulation: one variant
/// per participating subsystem, each wrapping that subsystem's own message
/// vocabulary unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum EcosystemMsg {
    /// Workload arrival source.
    Arrival(ArrivalMsg),
    /// Batch cluster scheduler.
    Rms(RmsMsg),
    /// Autoscaling governor.
    Governor(GovernorMsg),
    /// FaaS platform.
    Faas(FaasMsg),
    /// Failure injector.
    Injector(InjectorMsg),
    /// MapReduce/dataflow stack.
    Bigdata(BigdataMsg),
    /// Graph-analytics BSP engine.
    Graph(GraphMsg),
    /// Gaming virtual world.
    Gaming(GamingMsg),
    /// DAG workflow engine.
    Dag(DagMsg),
    /// Flow-level network fabric.
    Net(NetMsg),
}

macro_rules! impl_envelope {
    ($variant:ident, $inner:ty) => {
        impl MessageEnvelope<$inner> for EcosystemMsg {
            fn wrap(inner: $inner) -> Self {
                EcosystemMsg::$variant(inner)
            }
            fn unwrap(self) -> Option<$inner> {
                match self {
                    EcosystemMsg::$variant(inner) => Some(inner),
                    _ => None,
                }
            }
        }
    };
}

impl_envelope!(Arrival, ArrivalMsg);
impl_envelope!(Rms, RmsMsg);
impl_envelope!(Governor, GovernorMsg);
impl_envelope!(Faas, FaasMsg);
impl_envelope!(Injector, InjectorMsg);
impl_envelope!(Bigdata, BigdataMsg);
impl_envelope!(Graph, GraphMsg);
impl_envelope!(Gaming, GamingMsg);
impl_envelope!(Dag, DagMsg);
impl_envelope!(Net, NetMsg);

/// One mebibyte, as the byte unit of the network sub-config.
const MIB: u64 = 1 << 20;

/// Keep-alive window of the FaaS warm pool.
const FAAS_KEEP_ALIVE: SimDuration = SimDuration::from_secs(600);
/// FaaS invocation request payload carried caller → platform over the
/// network, bytes.
const FAAS_PAYLOAD_BYTES: u64 = 64 * 1024;
/// FaaS response payload shipped back over the network per successful
/// invocation, bytes.
const FAAS_RESPONSE_BYTES: u64 = 256 * 1024;
/// Checkpoint image fetched over the network before a killed batch task
/// re-enters the queue, MiB (only exercised when restart resilience is on).
const RMS_CHECKPOINT_MB: u64 = 64;
/// A gaming sync burst whose flow takes longer than this, seconds, counts
/// as lagged.
const GAMING_LAG_BUDGET_SECS: f64 = 0.25;

/// The batch-computing slice of a scenario: jobs through the RMS cluster
/// scheduler under portfolio policy selection.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Batch jobs submitted over the horizon.
    pub jobs: usize,
    /// Cadence of portfolio-scheduler policy ticks.
    pub policy_interval: SimDuration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { jobs: 60, policy_interval: SimDuration::from_secs(1800) }
    }
}

/// The serverless slice of a scenario: a Poisson invocation stream into the
/// autoscaled FaaS platform.
#[derive(Debug, Clone, PartialEq)]
pub struct FaasConfig {
    /// FaaS invocation arrival rate, per second.
    pub arrival_rate: f64,
    /// Hard cap on FaaS arrivals (guards pathological configurations).
    pub max_arrivals: usize,
    /// Initial FaaS concurrent-instance capacity.
    pub initial_capacity: usize,
    /// Autoscaling cadence and bounds (the governor's configuration).
    pub service: ServiceConfig,
    /// Optional FaaS congestion model (latency degrades over a utilization
    /// knee). `None` keeps the legacy congestion-free service.
    pub congestion: Option<CongestionConfig>,
}

impl Default for FaasConfig {
    fn default() -> Self {
        FaasConfig {
            arrival_rate: 0.5,
            max_arrivals: 100_000,
            initial_capacity: 4,
            service: ServiceConfig {
                scaling_interval: SimDuration::from_secs(300),
                provisioning_delay_intervals: 1,
                min_instances: 1,
                max_instances: 64,
                ..ServiceConfig::default()
            },
            congestion: None,
        }
    }
}

/// The failure slice of a scenario: a space-correlated outage schedule with
/// a configurable fault-kind mix, fanned out to every subsystem sharing the
/// machine fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureConfig {
    /// Per-machine mean time between failures, seconds.
    pub mtbf_secs: f64,
    /// Machines per failure-correlation domain (rack/power segment).
    pub failure_domain: usize,
    /// Fraction of the idle FaaS warm pool killed per machine failure.
    pub kill_fraction: f64,
    /// Fault-kind mix of the failure schedule. Crash faults strike the batch
    /// cluster, the warm pool, and the bigdata/graph/gaming fleets;
    /// slowdown/gray/partition windows strike the FaaS service. Defaults to
    /// crash-only (the legacy vocabulary).
    pub fault_mix: FaultMix,
    /// Overrides the duration of non-crash (service-level) fault windows.
    /// Machine repairs take minutes, but the blips that slowdown/gray/
    /// partition faults model are typically much shorter; `None` keeps the
    /// outage's own repair instant.
    pub service_fault_secs: Option<f64>,
    /// An explicit, scripted fault schedule. When `Some`, the injector
    /// replays exactly these faults — the stochastic outage generator and
    /// the fault-mix assignment are bypassed entirely (chaos campaigns use
    /// this for reproducible adversarial runs). `None` (the default) keeps
    /// the legacy random schedule byte-identical.
    pub schedule: Option<Vec<Fault>>,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig {
            mtbf_secs: 6.0 * 3600.0,
            failure_domain: 8,
            kill_fraction: 0.5,
            fault_mix: FaultMix::crash_only(),
            service_fault_secs: None,
            schedule: None,
        }
    }
}

impl FailureConfig {
    /// A failure slice that replays exactly `faults` (scripted mode); the
    /// stochastic generator parameters keep their defaults but are unused.
    pub fn scripted(faults: Vec<Fault>) -> Self {
        FailureConfig { schedule: Some(faults), ..FailureConfig::default() }
    }
}

/// The network slice of a scenario: a two-level rack/uplink fabric shared
/// by every tenant, with max-min fair bandwidth allocation.
///
/// When attached (via [`ScenarioConfig::with_network`]), every
/// cross-component byte transfer becomes a flow on the shared fabric: FaaS
/// invocation payloads and responses, big-data map-input reads and shuffle
/// traffic, batch checkpoint restores, and gaming state syncs all contend
/// for the same links, so one tenant's burst is another tenant's stall.
/// Partition and gray faults from the failure mix strike the fabric itself
/// (cut and degraded access links) instead of opening FaaS service windows.
/// When absent (`None`, the default), every subsystem keeps its legacy
/// fixed-delay cost model byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Machines per rack in the two-level topology.
    pub nodes_per_rack: usize,
    /// Access-link capacity per machine, MiB/s.
    pub node_bandwidth_mbs: f64,
    /// Rack-uplink capacity, MiB/s.
    pub rack_bandwidth_mbs: f64,
    /// One-way propagation latency within a rack.
    pub same_rack_latency: SimDuration,
    /// One-way propagation latency across racks.
    pub cross_rack_latency: SimDuration,
    /// How long a flow may sit at a zero fair share (its endpoint cut) before
    /// the fabric aborts it with a `net/flow_aborted` record and the owner is
    /// told to retry or fail fast. `None` restores the pre-timeout behaviour:
    /// stranded flows stall silently until the cut heals (or forever).
    pub flow_timeout: Option<SimDuration>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            nodes_per_rack: 8,
            node_bandwidth_mbs: 100.0,
            rack_bandwidth_mbs: 400.0,
            same_rack_latency: SimDuration::from_micros(200),
            cross_rack_latency: SimDuration::from_millis(1),
            flow_timeout: Some(SimDuration::from_secs(60)),
        }
    }
}

impl NetworkConfig {
    /// Builds the link-capacity topology for a fleet of `machines`.
    fn topology(&self, machines: usize) -> NetTopology {
        NetTopology::new(
            machines as u32,
            self.nodes_per_rack as u32,
            self.node_bandwidth_mbs * MIB as f64,
            self.rack_bandwidth_mbs * MIB as f64,
            self.same_rack_latency,
            self.cross_rack_latency,
        )
    }
}

/// How the run's trace is retained.
///
/// `None` (the default) keeps the legacy full-retention [`TraceBus`]:
/// every event stored, byte-identical traces, unbounded memory. `Some`
/// switches the bus to streaming aggregation *before the first event is
/// emitted*: events are folded into per-`(component, event)` rollups
/// (counts, per-field [`mcs_simcore::metrics::OnlineStats`] and
/// [`mcs_simcore::metrics::QuantileSketch`]s, optional windowed counters)
/// and the events themselves are dropped, so trace memory stays flat no
/// matter how long the run is. Aggregate queries (`count`, `counts`,
/// `field_stats`, `field_quantile`, ...) keep working; per-event queries
/// (`select`, `series`) come back empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservabilityConfig {
    /// Centroid budget of each per-field quantile sketch. Rank error is
    /// ~`2n / sketch_centroids`; memory is ~16 bytes per centroid.
    pub sketch_centroids: usize,
    /// When set, each rollup also counts events into fixed windows of this
    /// width (for load-over-time plots without retaining events).
    pub window: Option<SimDuration>,
}

impl Default for ObservabilityConfig {
    fn default() -> Self {
        let stream = StreamConfig::default();
        ObservabilityConfig { sketch_centroids: stream.sketch_centroids, window: stream.window }
    }
}

impl ObservabilityConfig {
    fn stream_config(&self) -> StreamConfig {
        StreamConfig { sketch_centroids: self.sketch_centroids, window: self.window }
    }
}

/// Parameters of a composed ecosystem run.
///
/// Subsystems are nested, `Option`-gated sub-configs: `Some` attaches the
/// subsystem to the run, `None` leaves it out. [`ScenarioConfig::default`]
/// reproduces the legacy five-actor composition (batch + FaaS + autoscale +
/// workload + failures) byte-for-byte; [`ScenarioConfig::bare`] starts from
/// an empty ecosystem for selective composition.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Master seed; every component derives its own labelled stream.
    pub seed: u64,
    /// Virtual-time horizon of the run.
    pub horizon: SimTime,
    /// Machines in the shared fleet (batch cluster, failure-model
    /// population, and the bigdata/graph worker pool).
    pub machines: usize,
    /// Resilience mechanisms of the run. The default ([`ResilienceConfig::none`])
    /// reproduces the legacy fail-and-suffer behaviour exactly.
    pub resilience: ResilienceConfig,
    /// Batch computing through the RMS scheduler.
    pub batch: Option<BatchConfig>,
    /// Serverless platform plus its arrival stream and autoscaling governor.
    pub faas: Option<FaasConfig>,
    /// Correlated failures striking every subsystem on the fleet.
    pub failure: Option<FailureConfig>,
    /// MapReduce/dataflow stack (opt-in).
    pub bigdata: Option<BigdataConfig>,
    /// Graph-analytics BSP queries (opt-in).
    pub graph: Option<GraphConfig>,
    /// Gaming virtual world (opt-in).
    pub gaming: Option<GamingConfig>,
    /// DAG workflow engine with portfolio scheduling (opt-in).
    pub dag: Option<DagConfig>,
    /// Flow-level network fabric (opt-in). `None` keeps every subsystem's
    /// legacy fixed-delay cost model, byte-identically.
    pub network: Option<NetworkConfig>,
    /// Streaming trace aggregation (opt-in). `None` keeps the legacy
    /// full-retention trace, byte-identically.
    pub observability: Option<ObservabilityConfig>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            horizon: SimTime::from_secs(4 * 3600),
            machines: 32,
            resilience: ResilienceConfig::none(),
            batch: Some(BatchConfig::default()),
            faas: Some(FaasConfig::default()),
            failure: Some(FailureConfig::default()),
            bigdata: None,
            graph: None,
            gaming: None,
            dag: None,
            network: None,
            observability: None,
        }
    }
}

impl ScenarioConfig {
    /// An empty ecosystem: no subsystems attached. Compose with the
    /// `with_*` builders; useful for single-subsystem equivalence runs.
    pub fn bare(seed: u64, horizon: SimTime, machines: usize) -> Self {
        ScenarioConfig {
            seed,
            horizon,
            machines,
            resilience: ResilienceConfig::none(),
            batch: None,
            faas: None,
            failure: None,
            bigdata: None,
            graph: None,
            gaming: None,
            dag: None,
            network: None,
            observability: None,
        }
    }

    /// Attaches (or replaces) the batch-computing subsystem.
    #[must_use]
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Attaches (or replaces) the serverless subsystem.
    #[must_use]
    pub fn with_faas(mut self, faas: FaasConfig) -> Self {
        self.faas = Some(faas);
        self
    }

    /// Attaches (or replaces) the failure schedule.
    #[must_use]
    pub fn with_failures(mut self, failure: FailureConfig) -> Self {
        self.failure = Some(failure);
        self
    }

    /// Attaches (or replaces) the MapReduce/dataflow subsystem.
    #[must_use]
    pub fn with_bigdata(mut self, bigdata: BigdataConfig) -> Self {
        self.bigdata = Some(bigdata);
        self
    }

    /// Attaches (or replaces) the graph-analytics subsystem.
    #[must_use]
    pub fn with_graph(mut self, graph: GraphConfig) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Attaches (or replaces) the gaming virtual world.
    #[must_use]
    pub fn with_gaming(mut self, gaming: GamingConfig) -> Self {
        self.gaming = Some(gaming);
        self
    }

    /// Attaches (or replaces) the DAG workflow engine.
    #[must_use]
    pub fn with_dag(mut self, dag: DagConfig) -> Self {
        self.dag = Some(dag);
        self
    }

    /// Attaches (or replaces) the flow-level network fabric.
    #[must_use]
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = Some(network);
        self
    }

    /// Sets the resilience mechanisms of the run.
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Switches the run's trace to bounded-memory streaming aggregation.
    #[must_use]
    pub fn with_observability(mut self, observability: ObservabilityConfig) -> Self {
        self.observability = Some(observability);
        self
    }

    /// Validates the configuration.
    ///
    /// Hard offences — the checks a mid-run panic or an infinite loop would
    /// otherwise surface (an empty fleet, non-finite or negative rates, a
    /// zero-sized failure-correlation domain) — come back as the first
    /// [`McsError::InvalidConfig`]. A valid configuration returns the list
    /// of *warnings*: legal-but-suspicious combinations (e.g. partition
    /// faults without a network model to cut) that binaries print to stderr
    /// and chaos campaigns assert on. An empty list means a clean config.
    pub fn validate(&self) -> Result<Vec<ScenarioWarning>, McsError> {
        fn finite_positive(field: &'static str, v: f64) -> Result<(), McsError> {
            if !v.is_finite() || v <= 0.0 {
                return Err(McsError::invalid_config(field, "must be finite and positive"));
            }
            Ok(())
        }
        fn finite_non_negative(field: &'static str, v: f64) -> Result<(), McsError> {
            if !v.is_finite() || v < 0.0 {
                return Err(McsError::invalid_config(field, "must be finite and non-negative"));
            }
            Ok(())
        }

        if self.machines == 0 {
            return Err(McsError::invalid_config("machines", "fleet must not be empty"));
        }
        if self.horizon == SimTime::ZERO {
            return Err(McsError::invalid_config("horizon", "must be positive"));
        }
        if let Some(batch) = &self.batch {
            if batch.policy_interval.is_zero() {
                return Err(McsError::invalid_config("batch.policy_interval", "must be positive"));
            }
        }
        if let Some(faas) = &self.faas {
            finite_positive("faas.arrival_rate", faas.arrival_rate)?;
            if faas.service.scaling_interval.is_zero() {
                return Err(McsError::invalid_config(
                    "faas.service.scaling_interval",
                    "must be positive",
                ));
            }
        }
        if let Some(failure) = &self.failure {
            finite_positive("failure.mtbf_secs", failure.mtbf_secs)?;
            if failure.failure_domain == 0 {
                return Err(McsError::invalid_config(
                    "failure.failure_domain",
                    "correlation domain must hold at least one machine",
                ));
            }
            if !failure.kill_fraction.is_finite()
                || !(0.0..=1.0).contains(&failure.kill_fraction)
            {
                return Err(McsError::invalid_config(
                    "failure.kill_fraction",
                    "must lie in [0, 1]",
                ));
            }
            if let Some(secs) = failure.service_fault_secs {
                finite_positive("failure.service_fault_secs", secs)?;
            }
        }
        if let Some(bigdata) = &self.bigdata {
            if BIGDATA_REPLICATION > self.machines {
                return Err(McsError::invalid_config(
                    "bigdata.replication",
                    "must not exceed the fleet size",
                ));
            }
            finite_non_negative("bigdata.submit_interval_secs", bigdata.submit_interval_secs)?;
        }
        if let Some(graph) = &self.graph {
            if graph.vertices == 0 {
                return Err(McsError::invalid_config("graph.vertices", "graph must not be empty"));
            }
            finite_non_negative("graph.submit_interval_secs", graph.submit_interval_secs)?;
        }
        if let Some(gaming) = &self.gaming {
            finite_non_negative("gaming.players.base_rate", gaming.players.base_rate)?;
        }
        if let Some(dag) = &self.dag {
            dag.validate()?;
        }
        if let Some(network) = &self.network {
            if network.nodes_per_rack == 0 {
                return Err(McsError::invalid_config(
                    "network.nodes_per_rack",
                    "racks must hold at least one machine",
                ));
            }
            finite_positive("network.node_bandwidth_mbs", network.node_bandwidth_mbs)?;
            finite_positive("network.rack_bandwidth_mbs", network.rack_bandwidth_mbs)?;
            if !network.topology(self.machines).is_connected() {
                return Err(McsError::invalid_config(
                    "network",
                    "topology must be connected (every link needs positive capacity)",
                ));
            }
        }
        if let Some(obs) = &self.observability {
            if obs.sketch_centroids < 8 {
                return Err(McsError::invalid_config(
                    "observability.sketch_centroids",
                    "sketch needs at least 8 centroids",
                ));
            }
            if obs.window.is_some_and(|w| w.is_zero()) {
                return Err(McsError::invalid_config(
                    "observability.window",
                    "must be positive",
                ));
            }
        }
        Ok(self.warnings())
    }

    /// The legal-but-suspicious combinations in this configuration; see
    /// [`ScenarioConfig::validate`].
    fn warnings(&self) -> Vec<ScenarioWarning> {
        let mut warnings = Vec::new();
        if let (Some(failure), None) = (&self.failure, &self.network) {
            let scripted_partitions = failure.schedule.as_ref().is_some_and(|faults| {
                faults.iter().any(|f| matches!(f.kind, FaultKind::Partition))
            });
            if failure.schedule.is_none() && failure.fault_mix.partition > 0.0 {
                warnings.push(ScenarioWarning::new(
                    "failure.fault_mix.partition",
                    format!(
                        "fault_mix.partition = {} but no network model is attached; \
                         partition windows fall back to FaaS service faults — attach a \
                         NetworkConfig (with_network) to cut topology links instead",
                        failure.fault_mix.partition
                    ),
                ));
            }
            if scripted_partitions {
                warnings.push(ScenarioWarning::new(
                    "failure.schedule",
                    "scripted schedule contains partition faults but no network model \
                     is attached; they fall back to FaaS service faults — attach a \
                     NetworkConfig (with_network) to cut topology links instead"
                        .to_string(),
                ));
            }
        }
        if let (Some(_), Some(network)) = (&self.dag, &self.network) {
            let racks = self.machines.div_ceil(network.nodes_per_rack.max(1));
            if racks < DAG_LOCALITY_DOMAINS as usize {
                warnings.push(ScenarioWarning::new(
                    "dag.locality_domains",
                    format!(
                        "workload is laid out for {DAG_LOCALITY_DOMAINS} locality domains \
                         but the fabric has only {racks} rack(s); locality-first placement \
                         degrades to blind best-fit beyond the rack count — widen the \
                         fleet or lower nodes_per_rack"
                    ),
                ));
            }
        }
        if let (Some(failure), Some(network)) = (&self.failure, &self.network) {
            let has_partitions = failure.fault_mix.partition > 0.0
                || failure.schedule.as_ref().is_some_and(|faults| {
                    faults.iter().any(|f| matches!(f.kind, FaultKind::Partition))
                });
            if has_partitions && network.flow_timeout.is_none() {
                warnings.push(ScenarioWarning::new(
                    "network.flow_timeout",
                    "partition faults can strand in-flight flows and flow_timeout is \
                     None: a cut endpoint stalls its flows silently until the cut \
                     heals — set a timeout so owners are told to retry or fail fast"
                        .to_string(),
                ));
            }
        }
        warnings
    }
}

/// A legal-but-suspicious configuration combination surfaced by
/// [`ScenarioConfig::validate`]: binaries print these to stderr, chaos
/// campaigns assert on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioWarning {
    /// Dotted path of the field (combination) the warning is about.
    pub field: &'static str,
    /// Human-readable advice.
    pub message: String,
}

impl ScenarioWarning {
    fn new(field: &'static str, message: String) -> Self {
        ScenarioWarning { field, message }
    }
}

impl std::fmt::Display for ScenarioWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "warning: {}: {}", self.field, self.message)
    }
}

/// What a composed run measured, per subsystem and across them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioOutcome {
    /// The batch scheduler's outcome (empty when batch is not attached).
    pub schedule: ScheduleOutcome,
    /// The FaaS platform's report (empty when FaaS is not attached).
    pub faas: PlatformReport,
    /// FaaS arrivals delivered by the workload source.
    pub arrivals: usize,
    /// Invocations admitted by the capacity cap.
    pub invoked: u64,
    /// Invocations rejected by the capacity cap.
    pub rejected: u64,
    /// Invocations that ended in failure (partition, gray, timeout, open
    /// breaker); zero in crash-only runs.
    pub invocations_failed: u64,
    /// Requests dropped by engaged load shedding.
    pub shed: u64,
    /// Retries scheduled by the FaaS retry policy.
    pub retries_scheduled: u64,
    /// FaaS capacity at the end of the run.
    pub final_capacity: usize,
    /// Outages in the generated schedule.
    pub outages_generated: usize,
    /// Outages that actually struck before the horizon.
    pub outages_delivered: usize,
    /// Scaling decisions the governor took.
    pub governor_decisions: usize,
    /// MapReduce jobs that ran all their stages to completion.
    pub bigdata_jobs: usize,
    /// Graph-analytics queries that ran to completion.
    pub graph_queries: usize,
    /// Graph supersteps executed slowed (worker loss or shuffle pressure).
    pub graph_stragglers: u64,
    /// Players admitted into the virtual world.
    pub gaming_admitted: u64,
    /// Players turned away at the door.
    pub gaming_rejected: u64,
    /// Players dropped mid-session by zone failures.
    pub gaming_disconnected: u64,
    /// Gaming state syncs that blew the lag budget (network runs only).
    pub gaming_laggy_syncs: u64,
    /// Workflows the DAG engine ran to completion.
    pub dag_jobs_finished: u64,
    /// Workflow tasks completed.
    pub dag_tasks_finished: u64,
    /// Mean workflow makespan (submit to last task), seconds.
    pub dag_mean_makespan_secs: f64,
    /// Total seconds workflow edge payloads spent in flight.
    pub dag_transfer_secs: f64,
    /// Workflow transfer seconds beyond the reference-bandwidth ideal.
    pub dag_stall_secs: f64,
    /// Flows started on the network fabric (zero without a network).
    pub net_flows_started: u64,
    /// Flows delivered by the network fabric.
    pub net_flows_delivered: u64,
    /// Flows aborted after stalling on a cut endpoint past the flow timeout.
    pub net_flows_aborted: u64,
    /// Total seconds flows lost to contention, faults, and degraded links.
    pub net_stall_secs: f64,
    /// Engine messages delivered across all actors.
    pub events_handled: u64,
    /// The cross-cutting event trace of the whole run.
    pub trace: TraceBus,
}

/// Builds and runs a composed ecosystem simulation.
///
/// ```
/// use mcs_core::scenario::{BatchConfig, Scenario, ScenarioConfig};
/// use mcs_simcore::time::SimTime;
///
/// let config = ScenarioConfig {
///     horizon: SimTime::from_secs(1800),
///     machines: 8,
///     ..ScenarioConfig::default()
/// }
/// .with_batch(BatchConfig { jobs: 10, ..BatchConfig::default() });
/// let outcome = Scenario::new(config).run();
/// assert!(outcome.arrivals > 0 && outcome.events_handled > 0);
/// ```
pub struct Scenario {
    config: ScenarioConfig,
    autoscaler: Box<dyn Autoscaler>,
}

impl Scenario {
    /// A scenario with the given configuration, a `React` autoscaler, and a
    /// two-function FaaS deployment (an API handler and a data processor).
    ///
    /// # Panics
    /// Panics when the configuration is invalid; use [`Scenario::try_new`]
    /// to handle the error instead.
    pub fn new(config: ScenarioConfig) -> Self {
        Scenario::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A scenario with the given configuration, validated at build time.
    ///
    /// # Errors
    /// Returns [`McsError::InvalidConfig`] when the configuration fails
    /// [`ScenarioConfig::validate`] (empty fleet, non-finite rates, ...).
    pub fn try_new(config: ScenarioConfig) -> Result<Self, McsError> {
        let warnings = config.validate()?;
        if !warnings.is_empty() {
            // Once per process: sweeps build hundreds of scenarios and the
            // advice does not change between them. Callers that want every
            // instance (chaos campaigns) call `validate()` themselves.
            static CONFIG_WARNINGS: std::sync::Once = std::sync::Once::new();
            CONFIG_WARNINGS.call_once(|| {
                for w in &warnings {
                    eprintln!("{w}");
                }
            });
        }
        Ok(Scenario {
            config,
            autoscaler: Box::new(React::default()),
        })
    }

    /// The scenario's configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Replaces the autoscaler governing the FaaS platform.
    #[must_use]
    pub fn with_autoscaler(mut self, autoscaler: Box<dyn Autoscaler>) -> Self {
        self.autoscaler = autoscaler;
        self
    }

    /// Runs the composed simulation to its horizon and returns the outcome.
    pub fn run(self) -> ScenarioOutcome {
        self.simulate().count_events()
    }

    /// Runs the composed simulation to its horizon and returns what the
    /// actors kept, with the event counts left at zero.
    fn simulate(mut self) -> ScenarioOutcome {
        let cfg = self.config.clone();
        let peers = Peers::of(&cfg);
        let machines = cfg.machines as u32;

        // Per-component RNG streams, all derived from the master seed. The
        // streams (and their draw order) are identical whether a subsystem
        // runs standalone or composed.
        let mut workload_rng = RngStream::new(cfg.seed, "workload");
        let mut failure_rng = RngStream::new(cfg.seed, "failures");

        // Subsystem state (owned here; actors borrow it below).
        let mut batch = cfg.batch.as_ref().map(|batch| {
            let jobs = BatchWorkloadGenerator::new(BatchWorkloadConfig::default()).generate(
                cfg.horizon,
                batch.jobs,
                &mut workload_rng,
            );
            let cluster = Cluster::homogeneous(
                ClusterId(0),
                "batch",
                MachineSpec::commodity("std-8", 8.0, 32.0),
                machines,
            );
            let scheduler = ClusterScheduler::new(cluster, SchedulerConfig::default(), cfg.seed);
            let selector =
                PortfolioSelector::new(default_portfolio(), Objective::Makespan, cfg.seed);
            (batch.policy_interval, jobs, scheduler, selector)
        });

        let mut outages_generated = 0;
        let faults = cfg.failure.as_ref().map(|failure| match &failure.schedule {
            // Scripted mode: replay exactly the given faults; the stochastic
            // generator and the fault-mix assignment (and their RNG streams)
            // are never consulted.
            Some(scripted) => {
                outages_generated = scripted.len();
                scripted.clone()
            }
            None => {
                let outages = SpaceCorrelatedFailures::with_mtbf(
                    failure.mtbf_secs,
                    cfg.machines,
                    failure.failure_domain,
                )
                .generate(cfg.machines, cfg.horizon, &mut failure_rng);
                outages_generated = outages.len();
                let mut mix_rng = RngStream::new(cfg.seed, "fault-mix");
                failure.fault_mix.assign(outages, &mut mix_rng)
            }
        });

        let mut platform = cfg.faas.is_some().then(|| {
            let mut platform = FaasPlatform::new(KeepAlivePolicy::Fixed(FAAS_KEEP_ALIVE), cfg.seed);
            platform.deploy(FunctionSpec::api_handler(FUNCTIONS[0]));
            platform.deploy(FunctionSpec::data_processor(FUNCTIONS[1]));
            platform
        });
        let mut process = cfg.faas.as_ref().map(|faas| Poisson::new(faas.arrival_rate));

        // With a network attached, the invocation payload travels as a flow
        // from the caller's node to the platform front-end (node 0); the
        // flow router issues the Invoke on delivery.
        let mut arrival = cfg.faas.as_ref().zip(process.as_mut()).map(|(faas, process)| {
            ArrivalActor::new(
                process,
                RngStream::new(cfg.seed, "arrivals"),
                cfg.horizon,
                faas.max_arrivals,
                move |ctx, index| {
                    if peers.net.is_some() {
                        let tag = FlowTag { owner: FlowOwner::Faas, id: index as u64 };
                        let src = index as u32 % machines;
                        transfer(ctx, peers.net, src, 0, FAAS_PAYLOAD_BYTES, tag);
                    } else {
                        send(ctx, peers.faas, invoke(index));
                    }
                },
            )
        });

        let mut scheduler_actor = batch.as_mut().map(|(interval, jobs, scheduler, selector)| {
            let mut actor = scheduler
                .actor(std::mem::take(jobs), cfg.horizon)
                .with_selector(selector, *interval);
            if let Some(restart) = cfg.resilience.restart {
                actor = actor.with_restart(restart);
            }
            // With a network attached, a killed task's checkpoint image is
            // fetched over the fabric before it re-enters the queue, so
            // recovery time tracks contention instead of a fixed backoff.
            if cfg.network.is_some() {
                let bytes = RMS_CHECKPOINT_MB * MIB;
                actor = actor.with_checkpoint_hook(move |ctx, task, attempt| {
                    let (src, dst) =
                        (task as u32 % machines, (task as u32 + 1 + attempt) % machines);
                    let tag = FlowTag { owner: FlowOwner::Rms, id: task as u64 };
                    transfer(ctx, peers.net, src, dst, bytes, tag);
                });
            }
            actor
        });

        let autoscaler = self.autoscaler.as_mut();
        let mut governor = cfg.faas.as_ref().map(|faas| {
            let governor = GovernorActor::new(autoscaler, faas.service, move |ctx, delta| {
                send(ctx, peers.faas, FaasMsg::Scale(delta));
            });
            match cfg.resilience.shedder {
                Some(_) => governor.with_shedding(move |ctx, on| {
                    send(ctx, peers.faas, FaasMsg::SetShedding(on));
                }),
                None => governor,
            }
        });

        let mut faas_actor = cfg.faas.as_ref().zip(platform.as_mut()).map(|(faas, platform)| {
            let mut actor = FaasActor::new(platform)
                .with_capacity(faas.initial_capacity)
                .with_resilience(cfg.resilience)
                .with_observer(faas.service.scaling_interval, move |ctx, demand, supply| {
                    send(ctx, peers.governor, GovernorMsg::Observe { demand, supply });
                });
            if let Some(congestion) = faas.congestion {
                actor = actor.with_congestion(congestion);
            }
            // Response payloads ride the fabric back to the callers; they
            // are fire-and-forget but still contend for bandwidth.
            if cfg.network.is_some() {
                let mut seq = 0u64;
                actor = actor.with_response_hook(move |ctx, _latency_secs| {
                    let tag = FlowTag { owner: FlowOwner::FaasResp, id: seq };
                    transfer(ctx, peers.net, 0, worker(seq, machines), FAAS_RESPONSE_BYTES, tag);
                    seq += 1;
                });
            }
            actor
        });

        // Crash faults strike every tenant of the shared fleet — the batch
        // cluster, the warm pool, and the bigdata/graph/gaming actors; the
        // other kinds open service-level fault windows. With a network
        // attached, partition and gray windows strike the fabric itself (cut
        // and degraded access links); without one they fall back to FaaS
        // service-fault windows.
        let mut injector = cfg.failure.as_ref().zip(faults).map(|(failure, faults)| {
            let kill_fraction = failure.kill_fraction;
            let window_secs = failure.service_fault_secs;
            let has_net = peers.net.is_some();
            FailureInjector::with_faults(faults, move |ctx, event| {
                let (fault, repaired) = match event {
                    FailureEvent::Fail(fault) => (fault, false),
                    FailureEvent::Repair(fault) => (fault, true),
                };
                let node = fault.outage.machine as u32;
                let net_window = |ctx: &mut Context<'_, EcosystemMsg>, f| {
                    let (open, clear) = (NetMsg::Fault(f), NetMsg::FaultClear(f));
                    fault_window(ctx, peers.net, open, clear, repaired, window_secs);
                };
                let faas_window = |ctx: &mut Context<'_, EcosystemMsg>, f| {
                    let (open, clear) = (FaasMsg::Fault(f), FaasMsg::FaultClear(f));
                    fault_window(ctx, peers.faas, open, clear, repaired, window_secs);
                };
                match fault.kind {
                    FaultKind::Partition if has_net => net_window(ctx, NetFault::Cut { node }),
                    FaultKind::Gray { error_rate } if has_net => {
                        let factor = (1.0 - error_rate).clamp(0.0, 1.0);
                        net_window(ctx, NetFault::Degrade { node, factor });
                    }
                    FaultKind::Partition => faas_window(ctx, FaasFault::Partition),
                    FaultKind::Gray { error_rate } => {
                        faas_window(ctx, FaasFault::Gray { error_rate })
                    }
                    FaultKind::Slowdown { factor } => {
                        faas_window(ctx, FaasFault::Slowdown { factor })
                    }
                    FaultKind::Crash if repaired => {
                        send(ctx, peers.scheduler, RmsMsg::MachineRepair(node));
                        send(ctx, peers.bigdata, BigdataMsg::NodeRepair(node));
                        send(ctx, peers.graph, GraphMsg::NodeRepair(node));
                        send(ctx, peers.gaming, GamingMsg::NodeRepair(node));
                    }
                    FaultKind::Crash => {
                        send(ctx, peers.scheduler, RmsMsg::MachineFail(node));
                        send(ctx, peers.faas, FaasMsg::KillWarm { fraction: kill_fraction });
                        send(ctx, peers.bigdata, BigdataMsg::NodeFail(node));
                        send(ctx, peers.graph, GraphMsg::NodeFail(node));
                        send(ctx, peers.gaming, GamingMsg::NodeFail(node));
                    }
                }
            })
            .with_horizon(cfg.horizon)
        });

        let mut bigdata_actor = cfg.bigdata.as_ref().map(|bigdata| {
            let mut actor: DataflowActor<'_, EcosystemMsg> =
                DataflowActor::new(bigdata.clone(), machines, RngStream::new(cfg.seed, "bigdata"));
            // The cross-tenant interference channel: each shuffle window
            // opens network pressure on the co-tenant subsystems.
            if peers.graph.is_some() || peers.gaming.is_some() {
                actor = actor.with_shuffle_hook(move |ctx, _job, active| {
                    send(ctx, peers.graph, GraphMsg::Pressure(active));
                    send(ctx, peers.gaming, GamingMsg::Pressure(active));
                });
            }
            // With a network attached, map-input reads and shuffle traffic
            // become flows; the flow router delivers the phase barriers.
            if peers.net.is_some() {
                actor = actor.with_transfer_hook(move |ctx, t| {
                    let owner = match t.phase {
                        BdPhase::Map => FlowOwner::BdMap,
                        BdPhase::Shuffle => FlowOwner::BdShuffle,
                    };
                    let tag = FlowTag { owner, id: t.job as u64 };
                    transfer(ctx, peers.net, t.src, t.dst, t.bytes, tag);
                });
            }
            actor
        });

        let mut graph_actor = cfg
            .graph
            .as_ref()
            .map(|graph| BspActor::new(graph.clone(), machines, RngStream::new(cfg.seed, "graph")));

        let mut gaming_actor = cfg.gaming.as_ref().map(|gaming| {
            let actor: WorldActor<'_, EcosystemMsg> =
                WorldActor::new(gaming.clone(), cfg.horizon, RngStream::new(cfg.seed, "gaming"));
            // With a network attached, world-state syncs ride the fabric and
            // lag whenever co-tenant traffic crowds their links.
            if cfg.network.is_none() {
                return actor;
            }
            actor.with_sync(move |ctx, seq, bytes| {
                let tag = FlowTag { owner: FlowOwner::Game, id: seq };
                transfer(ctx, peers.net, worker(seq, machines), 0, bytes, tag);
            })
        });

        let mut dag_actor = cfg.dag.as_ref().map(|dag| {
            let mut rng = RngStream::new(cfg.seed, "dag");
            // With a network attached, the fabric's rack width dictates the
            // locality structure the locality-first policy reasons over, and
            // edge payloads ride the fabric; the flow router delivers the
            // EdgeDone barriers.
            let Some(net) = cfg.network.as_ref() else {
                return DagActor::new(machines, dag.clone(), &mut rng);
            };
            let rack_width = net.nodes_per_rack as u32;
            DagActor::with_rack_width(machines, dag.clone(), &mut rng, rack_width).with_edge_hook(
                move |ctx, t| {
                    let id = (u64::from(t.job) << 32) | u64::from(t.edge);
                    let tag = FlowTag { owner: FlowOwner::Dag, id };
                    transfer(ctx, peers.net, t.src, t.dst, t.bytes, tag);
                },
            )
        });

        // The shared fabric, with the router that turns finished (or
        // aborted) flows back into tenant messages.
        let mut net_actor = cfg.network.as_ref().map(|net| {
            NetActor::new(net.topology(cfg.machines))
                .with_flow_timeout(net.flow_timeout)
                .with_completion(move |ctx, done| route_flow(ctx, peers, done))
        });

        let mut sim: Simulation<'_, EcosystemMsg> = Simulation::new(cfg.seed);
        sim.set_horizon(cfg.horizon);
        if let Some(obs) = &cfg.observability {
            // Must happen before the first emission: the sink folds events
            // as they are recorded, so a late switch would lose history.
            sim.set_trace(TraceBus::streaming(obs.stream_config()));
        }
        // Each actor's start message is queued as it registers. Only the
        // FaaS report is not at time zero, and `validate` keeps the scaling
        // interval positive, so its place in the queue never breaks a tie.
        let report = cfg.faas.as_ref().map(|faas| {
            (SimTime::ZERO + faas.service.scaling_interval, EcosystemMsg::Faas(FaasMsg::Report))
        });
        register(&mut sim, arrival.as_mut(), peers.arrival, at_zero(ArrivalMsg::Start));
        register(&mut sim, scheduler_actor.as_mut(), peers.scheduler, at_zero(RmsMsg::Start));
        register(&mut sim, governor.as_mut(), peers.governor, None);
        register(&mut sim, faas_actor.as_mut(), peers.faas, report);
        register(&mut sim, injector.as_mut(), peers.injector, at_zero(InjectorMsg::Start));
        register(&mut sim, bigdata_actor.as_mut(), peers.bigdata, at_zero(BigdataMsg::Start));
        register(&mut sim, graph_actor.as_mut(), peers.graph, at_zero(GraphMsg::Start));
        register(&mut sim, gaming_actor.as_mut(), peers.gaming, at_zero(GamingMsg::Start));
        register(&mut sim, dag_actor.as_mut(), peers.dag, at_zero(DagMsg::Start));
        register(&mut sim, net_actor.as_mut(), peers.net, None);
        sim.run();

        let events_handled = sim.events_handled();
        let trace = sim.take_trace();
        drop(sim);

        let dag = dag_actor.as_ref();
        let net = net_actor.as_ref();
        ScenarioOutcome {
            schedule: scheduler_actor.as_mut().map(|a| a.outcome()).unwrap_or_default(),
            final_capacity: faas_actor.as_ref().and_then(|a| a.capacity()).unwrap_or(0),
            outages_generated,
            graph_stragglers: graph_actor.as_ref().map_or(0, |a| a.stragglers()),
            gaming_laggy_syncs: gaming_actor.as_ref().map_or(0, |a| a.laggy_syncs()),
            dag_mean_makespan_secs: dag.map_or(0.0, |a| a.mean_makespan_secs()),
            dag_transfer_secs: dag.map_or(0.0, |a| a.transfer_secs()),
            dag_stall_secs: dag.map_or(0.0, |a| a.stall_secs()),
            net_flows_delivered: net.map_or(0, |a| a.delivered()),
            net_stall_secs: net.map_or(0.0, |a| a.stall_secs()),
            events_handled,
            trace,
            // Last: the FaaS actor borrows the platform until it is dropped.
            faas: {
                drop(faas_actor);
                platform.as_mut().map(FaasPlatform::finish).unwrap_or_default()
            },
            ..ScenarioOutcome::default()
        }
    }
}

impl ScenarioOutcome {
    /// Fills the event counts from the trace, which both sinks count
    /// exactly. It runs once every actor of the run is dropped, so the
    /// query index a full trace builds here never sits beside them.
    fn count_events(self) -> Self {
        let count = |component, event| self.trace.count(component, event);
        let n = |component, event| count(component, event) as u64;
        ScenarioOutcome {
            arrivals: count("workload", "arrival"),
            invoked: n("faas", "invoke"),
            rejected: n("faas", "reject"),
            invocations_failed: n("faas", "invoke_failed"),
            shed: n("faas", "shed"),
            retries_scheduled: n("faas", "retry_scheduled"),
            outages_delivered: count("failure", "outage"),
            governor_decisions: count("autoscale", "decision"),
            bigdata_jobs: count("bigdata", "job_finish"),
            graph_queries: count("graph", "query_finish"),
            gaming_admitted: n("gaming", "join"),
            gaming_rejected: n("gaming", "reject"),
            gaming_disconnected: n("gaming", "disconnect"),
            dag_jobs_finished: n("dag", "job_finish"),
            dag_tasks_finished: n("dag", "task_finish"),
            net_flows_started: n("net", "flow_start"),
            net_flows_aborted: n("net", "flow_aborted"),
            ..self
        }
    }
}

/// The reserved actor id of every participant (`None` when absent).
///
/// Actor ids are assigned in registration order; fixing that order up front
/// (skipping absent subsystems) lets cross-actor callbacks address their
/// peers before anything is registered. The legacy quintet keeps ids 0..=4,
/// and the network registers last so attaching it never renumbers the
/// tenants.
#[derive(Clone, Copy)]
struct Peers {
    arrival: Option<ActorId>,
    scheduler: Option<ActorId>,
    governor: Option<ActorId>,
    faas: Option<ActorId>,
    injector: Option<ActorId>,
    bigdata: Option<ActorId>,
    graph: Option<ActorId>,
    gaming: Option<ActorId>,
    dag: Option<ActorId>,
    net: Option<ActorId>,
}

impl Peers {
    fn of(cfg: &ScenarioConfig) -> Self {
        let mut next = 0;
        let mut reserve = |present: bool| {
            present.then(|| {
                next += 1;
                ActorId::from_index(next - 1)
            })
        };
        // Field initialisers run in the order written: this is the
        // registration order.
        Peers {
            arrival: reserve(cfg.faas.is_some()),
            scheduler: reserve(cfg.batch.is_some()),
            governor: reserve(cfg.faas.is_some()),
            faas: reserve(cfg.faas.is_some()),
            injector: reserve(cfg.failure.is_some()),
            bigdata: reserve(cfg.bigdata.is_some()),
            graph: reserve(cfg.graph.is_some()),
            gaming: reserve(cfg.gaming.is_some()),
            dag: reserve(cfg.dag.is_some()),
            net: reserve(cfg.network.is_some()),
        }
    }
}

/// Registers a present `actor`, which must land on its `reserved` id, and
/// queues its `start` message.
fn register<'a, A: Actor<EcosystemMsg> + 'a>(
    sim: &mut Simulation<'a, EcosystemMsg>,
    actor: Option<&'a mut A>,
    reserved: Option<ActorId>,
    start: Option<(SimTime, EcosystemMsg)>,
) {
    let Some(actor) = actor else { return };
    let id = sim.add_actor(actor);
    debug_assert_eq!(Some(id), reserved, "registration order must match the reserved ids");
    if let Some((at, msg)) = start {
        sim.schedule(at, id, msg);
    }
}

/// `msg` as a [`register`] start message at time zero.
fn at_zero<T>(msg: T) -> Option<(SimTime, EcosystemMsg)>
where
    EcosystemMsg: MessageEnvelope<T>,
{
    Some((SimTime::ZERO, EcosystemMsg::wrap(msg)))
}

/// Delivers `msg` to `peer` now, when that participant is attached.
fn send<T>(ctx: &mut Context<'_, EcosystemMsg>, peer: Option<ActorId>, msg: T)
where
    EcosystemMsg: MessageEnvelope<T>,
{
    if let Some(id) = peer {
        ctx.send(id, SimDuration::ZERO, EcosystemMsg::wrap(msg));
    }
}

/// Starts a flow of (at least one) `bytes` from `src` to `dst` on the fabric.
fn transfer(
    ctx: &mut Context<'_, EcosystemMsg>,
    net: Option<ActorId>,
    src: u32,
    dst: u32,
    bytes: u64,
    tag: FlowTag,
) {
    send(ctx, net, NetMsg::Transfer(TransferReq { src, dst, bytes: bytes.max(1), tag }));
}

/// The `seq`-th worker node, spreading round-robin over every node but the
/// front-end (node 0); a one-node fleet has only the front-end.
fn worker(seq: u64, machines: u32) -> u32 {
    if machines > 1 {
        1 + (seq % u64::from(machines - 1)) as u32
    } else {
        0
    }
}

/// The FaaS deployment: an API handler and a data processor.
const FUNCTIONS: [&str; 2] = ["api", "etl"];

/// The invocation of arrival `index`, round-robin over the deployment.
fn invoke(index: usize) -> FaasMsg {
    FaasMsg::Invoke { function: FUNCTIONS[index % FUNCTIONS.len()].to_owned() }
}

/// Opens a service-level fault window on `peer` at a strike, and closes it
/// at the repair. When the window length is overridden (`window_secs`), the
/// clear is scheduled at strike time instead and the repair sends nothing.
fn fault_window<T>(
    ctx: &mut Context<'_, EcosystemMsg>,
    peer: Option<ActorId>,
    open: T,
    clear: T,
    repaired: bool,
    window_secs: Option<f64>,
) where
    EcosystemMsg: MessageEnvelope<T>,
{
    let Some(id) = peer else { return };
    match (repaired, window_secs) {
        (false, secs) => {
            ctx.send(id, SimDuration::ZERO, EcosystemMsg::wrap(open));
            if let Some(secs) = secs {
                ctx.send(id, SimDuration::from_secs_f64(secs), EcosystemMsg::wrap(clear));
            }
        }
        (true, None) => {
            ctx.send(id, SimDuration::ZERO, EcosystemMsg::wrap(clear));
        }
        (true, Some(_)) => {}
    }
}

/// Turns a finished flow back into its owner's message. Aborted flows
/// (stranded on a cut endpoint past the flow timeout) retry or fail fast.
fn route_flow(ctx: &mut Context<'_, EcosystemMsg>, peers: Peers, done: &FlowDone) {
    let id = done.tag.id;
    match done.tag.owner {
        // A lost invocation payload fails fast: nothing retries it.
        FlowOwner::Faas if done.aborted => {}
        FlowOwner::Faas => send(ctx, peers.faas, invoke(id as usize)),
        // Responses only contend for bandwidth; nothing waits on them.
        FlowOwner::FaasResp => {}
        // Fetched or abandoned, the checkpoint is done with: the task
        // re-enters the queue (and restarts from scratch when abandoned).
        FlowOwner::Rms => send(ctx, peers.scheduler, RmsMsg::Requeue(id as usize)),
        // Barriers would hang forever on a lost transfer: retry it (bounded
        // by the timeout cadence until the cut heals or the run ends).
        // Workflow input edges are barriers too — the consumer task cannot
        // start without its bytes.
        FlowOwner::BdMap | FlowOwner::BdShuffle | FlowOwner::Dag if done.aborted => {
            transfer(ctx, peers.net, done.src, done.dst, done.bytes, done.tag);
        }
        FlowOwner::BdMap => send(ctx, peers.bigdata, BigdataMsg::MapXferDone(id as usize)),
        FlowOwner::BdShuffle => send(ctx, peers.bigdata, BigdataMsg::ShuffleXferDone(id as usize)),
        FlowOwner::Dag => {
            let (job, edge) = ((id >> 32) as u32, id as u32);
            send(ctx, peers.dag, DagMsg::EdgeDone { job, edge });
        }
        // A lost world-state sync counts as (very) lagged.
        FlowOwner::Game => {
            let lagged = done.aborted || done.secs > GAMING_LAG_BUDGET_SECS;
            send(ctx, peers.gaming, GamingMsg::SyncDone(lagged));
        }
        FlowOwner::Test => debug_assert!(false, "test flows never reach a scenario"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_failure::model::Outage;

    fn small_config() -> ScenarioConfig {
        ScenarioConfig {
            seed: 7,
            horizon: SimTime::from_secs(3600),
            machines: 16,
            ..ScenarioConfig::default()
        }
        .with_batch(BatchConfig { jobs: 20, ..BatchConfig::default() })
        .with_faas(FaasConfig { arrival_rate: 0.4, ..FaasConfig::default() })
        .with_failures(FailureConfig { mtbf_secs: 1.5 * 3600.0, ..FailureConfig::default() })
    }

    #[test]
    fn composed_run_is_deterministic() {
        let a = Scenario::new(small_config()).run();
        let b = Scenario::new(small_config()).run();
        assert_eq!(a.trace.to_json_string(), b.trace.to_json_string());
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.faas, b.faas);
        assert_eq!(
            (a.arrivals, a.invoked, a.rejected, a.events_handled),
            (b.arrivals, b.invoked, b.rejected, b.events_handled)
        );
    }

    #[test]
    fn streaming_observability_matches_full_retention_aggregates() {
        let full = Scenario::new(small_config()).run();
        let streamed =
            Scenario::new(small_config().with_observability(ObservabilityConfig::default())).run();

        // Everything the simulation *did* is untouched by the sink choice.
        assert!(streamed.trace.is_streaming() && !full.trace.is_streaming());
        assert_eq!(streamed.schedule, full.schedule);
        assert_eq!(streamed.faas, full.faas);
        assert_eq!(
            (streamed.arrivals, streamed.invoked, streamed.rejected, streamed.events_handled),
            (full.arrivals, full.invoked, full.rejected, full.events_handled)
        );

        // Aggregate queries agree exactly; stats are bit-identical because
        // the streaming fold visits events in emission order.
        assert_eq!(streamed.trace.counts(), full.trace.counts());
        assert_eq!(streamed.trace.components(), full.trace.components());
        assert_eq!(
            streamed.trace.field_stats("faas", "invoke", "latency_secs"),
            full.trace.field_stats("faas", "invoke", "latency_secs")
        );
        assert_eq!(
            streamed.trace.time_span("workload", "arrival"),
            full.trace.time_span("workload", "arrival")
        );
        // The streaming bus dropped the events themselves.
        assert!(streamed.trace.select("faas", "invoke").is_empty());
        assert!(streamed.trace.approx_retained_bytes() < full.trace.approx_retained_bytes());
    }

    #[test]
    fn observability_config_is_validated() {
        let bad_centroids = small_config()
            .with_observability(ObservabilityConfig { sketch_centroids: 2, window: None });
        assert!(Scenario::try_new(bad_centroids).is_err());
        let bad_window = small_config().with_observability(ObservabilityConfig {
            sketch_centroids: 64,
            window: Some(SimDuration::ZERO),
        });
        assert!(Scenario::try_new(bad_window).is_err());
        let windowed = small_config().with_observability(ObservabilityConfig {
            sketch_centroids: 64,
            window: Some(SimDuration::from_secs(600)),
        });
        let out = Scenario::new(windowed).run();
        let windows = out.trace.window_counts("workload", "arrival").expect("windowed counters");
        assert_eq!(windows.iter().sum::<u64>() as usize, out.arrivals);
    }

    #[test]
    fn every_subsystem_emits_onto_the_shared_trace() {
        let out = Scenario::new(small_config()).run();
        let components = out.trace.components();
        for expected in ["autoscale", "faas", "failure", "rms", "workload"] {
            assert!(
                components.iter().any(|c| c == expected),
                "missing component {expected} in {components:?}"
            );
        }
        assert!(out.arrivals > 0);
        assert!(out.invoked > 0);
        assert!(out.outages_delivered > 0, "MTBF too long for the horizon?");
        assert!(out.governor_decisions > 0);
        assert!(!out.schedule.completions.is_empty());
    }

    #[test]
    fn failures_reach_both_scheduler_and_faas() {
        let out = Scenario::new(small_config()).run();
        let fails = out.trace.count("failure", "outage");
        assert_eq!(fails, out.outages_delivered);
        assert_eq!(out.trace.count("faas", "kill_warm"), fails);
        assert_eq!(out.trace.count("rms", "machine_fail"), fails);
    }

    #[test]
    fn resilient_run_with_mixed_faults_is_deterministic_and_traced() {
        let config = || {
            // Harsh failure regime so every fault kind gets drawn.
            small_config()
                .with_faas(FaasConfig {
                    arrival_rate: 0.4,
                    congestion: Some(CongestionConfig::default()),
                    ..FaasConfig::default()
                })
                .with_failures(FailureConfig {
                    mtbf_secs: 600.0,
                    fault_mix: FaultMix {
                        crash: 0.4,
                        slowdown: 0.2,
                        gray: 0.2,
                        partition: 0.2,
                        ..FaultMix::crash_only()
                    },
                    ..FailureConfig::default()
                })
                .with_resilience(ResilienceConfig::all_on())
        };
        let a = Scenario::new(config()).run();
        let b = Scenario::new(config()).run();
        assert_eq!(a.trace.to_json_string(), b.trace.to_json_string());
        // Non-crash fault windows reach the FaaS platform…
        assert!(a.trace.count("faas", "fault") > 0, "no service fault windows struck");
        // …and the resilience machinery leaves structured evidence behind.
        assert!(
            a.invocations_failed > 0 || a.retries_scheduled > 0,
            "mixed faults under all-on resilience produced no failures or retries"
        );
        assert_eq!(
            a.retries_scheduled,
            a.trace.count("faas", "retry_scheduled") as u64
        );
        assert_eq!(
            a.invocations_failed,
            a.trace.count("faas", "invoke_failed") as u64
        );
    }

    #[test]
    fn crash_only_defaults_leave_resilience_silent() {
        let out = Scenario::new(small_config()).run();
        assert_eq!(out.invocations_failed, 0);
        assert_eq!(out.shed, 0);
        assert_eq!(out.retries_scheduled, 0);
        assert_eq!(out.trace.count("faas", "fault"), 0);
        assert_eq!(out.trace.count("rms", "requeue_scheduled"), 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = Scenario::new(small_config()).run();
        let mut cfg = small_config();
        cfg.seed = 8;
        let b = Scenario::new(cfg).run();
        assert_ne!(a.trace.to_json_string(), b.trace.to_json_string());
    }

    #[test]
    fn full_stack_composes_every_subsystem_on_one_simulation() {
        let out = Scenario::new(
            small_config()
                .with_bigdata(BigdataConfig { jobs: 2, ..BigdataConfig::default() })
                .with_graph(GraphConfig {
                    queries: 2,
                    vertices: 300,
                    edges: 1_200,
                    ..GraphConfig::default()
                })
                .with_gaming(GamingConfig::default()),
        )
        .run();
        let components = out.trace.components();
        for expected in
            ["autoscale", "bigdata", "faas", "failure", "gaming", "graph", "rms", "workload"]
        {
            assert!(
                components.iter().any(|c| c == expected),
                "missing component {expected} in {components:?}"
            );
        }
        // Crash faults fan out to every fleet tenant.
        let fails = out.trace.count("failure", "outage");
        assert!(fails > 0);
        assert_eq!(out.trace.count("bigdata", "node_fail"), fails);
        assert_eq!(out.trace.count("graph", "worker_fail"), fails);
        // Shuffle windows exert pressure on both co-tenants.
        let shuffles = out.trace.count("bigdata", "shuffle_start");
        assert!(shuffles > 0);
        assert_eq!(out.trace.count("graph", "pressure"), 2 * shuffles);
        assert_eq!(out.trace.count("gaming", "pressure"), 2 * shuffles);
        assert!(out.gaming_admitted > 0);
    }

    #[test]
    fn bare_config_composes_selectively() {
        let out = Scenario::new(
            ScenarioConfig::bare(3, SimTime::from_secs(3600), 8)
                .with_gaming(GamingConfig::default()),
        )
        .run();
        assert_eq!(out.trace.components(), vec!["gaming".to_owned()]);
        assert_eq!(out.arrivals, 0);
        assert!(out.gaming_admitted > 0);
        assert!(out.schedule.completions.is_empty());
    }

    #[test]
    fn network_attached_run_is_deterministic_and_carries_flows() {
        let config = || small_config().with_network(NetworkConfig::default());
        let a = Scenario::new(config()).run();
        let b = Scenario::new(config()).run();
        assert_eq!(a.trace.to_json_string(), b.trace.to_json_string());
        assert!(a.net_flows_started > 0, "no flows reached the fabric");
        assert!(a.net_flows_delivered > 0);
        assert!(a.net_flows_delivered <= a.net_flows_started);
        assert!(a.invoked > 0, "invocations must still arrive through the fabric");
        assert!(a.trace.components().iter().any(|c| c == "net"));
        assert_eq!(a.trace.count("net", "flow_start") as u64, a.net_flows_started);
    }

    #[test]
    fn every_tenant_ships_bytes_on_the_shared_fabric() {
        let out = Scenario::new(
            small_config()
                .with_bigdata(BigdataConfig { jobs: 2, ..BigdataConfig::default() })
                .with_graph(GraphConfig {
                    queries: 2,
                    vertices: 300,
                    edges: 1_200,
                    ..GraphConfig::default()
                })
                .with_gaming(GamingConfig::default())
                .with_resilience(ResilienceConfig::all_on())
                .with_network(NetworkConfig::default()),
        )
        .run();
        // FaaS payloads, bigdata phases, and gaming syncs all became flows…
        assert!(out.invoked > 0);
        assert!(out.bigdata_jobs > 0, "bigdata jobs must finish over the fabric");
        assert!(out.trace.count("gaming", "sync_done") > 0);
        // …and the fabric accounted for all of them.
        assert!(out.net_flows_delivered > 100);
    }

    #[test]
    fn partition_faults_cut_fabric_links_when_network_attached() {
        let out = Scenario::new(
            small_config()
                .with_failures(FailureConfig {
                    mtbf_secs: 900.0,
                    fault_mix: FaultMix {
                        crash: 0.0,
                        partition: 1.0,
                        ..FaultMix::crash_only()
                    },
                    ..FailureConfig::default()
                })
                .with_network(NetworkConfig::default()),
        )
        .run();
        assert!(out.trace.count("net", "link_cut") > 0, "no partitions struck the fabric");
        assert!(out.trace.count("net", "link_restored") > 0, "cuts were never repaired");
        // Partitions no longer open FaaS service windows.
        assert_eq!(out.trace.count("faas", "fault"), 0);
    }

    #[test]
    fn scripted_schedule_replays_exactly_and_deterministically() {
        let fault = |machine: usize, fail: u64, repair: u64, kind: FaultKind| Fault {
            outage: Outage {
                machine,
                fail_at: SimTime::from_secs(fail),
                repair_at: SimTime::from_secs(repair),
            },
            kind,
        };
        let schedule = vec![
            fault(3, 600, 1200, FaultKind::Crash),
            fault(7, 1800, 1860, FaultKind::Slowdown { factor: 4.0 }),
            fault(1, 2400, 2460, FaultKind::Crash),
        ];
        let mk = || {
            Scenario::new(
                small_config().with_failures(FailureConfig::scripted(schedule.clone())),
            )
            .run()
        };
        let out = mk();
        // Exactly the scripted faults strike — no stochastic extras.
        assert_eq!(out.outages_generated, 3);
        assert_eq!(out.outages_delivered, 3);
        let outages = out.trace.select("failure", "outage");
        assert_eq!(outages.len(), 3);
        let strike_secs: Vec<f64> = outages.iter().map(|e| e.at.as_secs_f64()).collect();
        assert_eq!(strike_secs, vec![600.0, 1800.0, 2400.0]);
        assert_eq!(out.trace.count("rms", "machine_fail"), 2, "crashes only");
        // Scripted runs replay byte-identically.
        assert_eq!(out.trace.to_json_string(), mk().trace.to_json_string());
    }

    #[test]
    fn scripted_partition_strands_flows_which_abort_on_timeout() {
        // A partition window over the whole bigdata transfer phase, with a
        // short flow timeout: stranded flows must abort (and the barrier
        // retries keep the run live until the cut heals).
        let schedule: Vec<Fault> = (0u32..8)
            .map(|m| Fault {
                outage: Outage {
                    machine: m as usize,
                    fail_at: SimTime::from_secs(5),
                    repair_at: SimTime::from_secs(3000),
                },
                kind: FaultKind::Partition,
            })
            .collect();
        let cfg = ScenarioConfig::bare(11, SimTime::from_secs(4 * 3600), 16)
            .with_bigdata(BigdataConfig::default())
            .with_failures(FailureConfig::scripted(schedule))
            .with_network(NetworkConfig {
                flow_timeout: Some(SimDuration::from_secs(30)),
                ..NetworkConfig::default()
            });
        let out = Scenario::new(cfg).run();
        assert!(out.trace.count("net", "link_cut") > 0, "partitions must cut links");
        assert!(out.net_flows_aborted > 0, "stranded flows must abort");
        assert_eq!(
            out.trace.count("net", "flow_aborted") as u64,
            out.net_flows_aborted
        );
        // Every abort is also visible to the flow-accounting identity:
        // started = delivered + aborted + still-in-flight-at-horizon.
        assert!(out.net_flows_delivered + out.net_flows_aborted <= out.net_flows_started);
    }

    #[test]
    fn validate_returns_structured_warnings() {
        // A clean default config warns about nothing.
        assert_eq!(ScenarioConfig::default().validate().unwrap(), Vec::new());

        // Partition weight without a network model.
        let cfg = ScenarioConfig::default().with_failures(FailureConfig {
            fault_mix: FaultMix { crash: 0.5, partition: 0.5, ..FaultMix::crash_only() },
            ..FailureConfig::default()
        });
        let warnings = cfg.validate().unwrap();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].field, "failure.fault_mix.partition");

        // A scripted schedule with partitions but no network.
        let scripted = ScenarioConfig::default().with_failures(FailureConfig::scripted(vec![
            Fault {
                outage: Outage {
                    machine: 0,
                    fail_at: SimTime::from_secs(1),
                    repair_at: SimTime::from_secs(2),
                },
                kind: FaultKind::Partition,
            },
        ]));
        let warnings = scripted.validate().unwrap();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].field, "failure.schedule");

        // Partitions plus a network, but flow aborts disabled: stranded
        // flows would stall silently — exactly the chaos-campaign seeded
        // violation, so the config warns about it.
        let stranded = scripted.with_network(NetworkConfig {
            flow_timeout: None,
            ..NetworkConfig::default()
        });
        let warnings = stranded.validate().unwrap();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].field, "network.flow_timeout");
    }

    #[test]
    fn checkpoint_restores_ride_the_fabric_under_restart_resilience() {
        let out = Scenario::new(
            small_config()
                .with_failures(FailureConfig {
                    mtbf_secs: 900.0,
                    ..FailureConfig::default()
                })
                .with_resilience(ResilienceConfig::all_on())
                .with_network(NetworkConfig::default()),
        )
        .run();
        let xfers = out.trace.count("rms", "checkpoint_xfer_start");
        assert!(xfers > 0, "no checkpoint traffic despite restarts and failures");
        // The fixed-backoff requeue path is fully replaced by flows.
        assert_eq!(out.trace.count("rms", "requeue_scheduled"), 0);
        assert!(out.schedule.failure_requeues > 0);
    }

    #[test]
    fn invalid_configs_are_rejected_at_build_time() {
        let invalid: Vec<(&str, ScenarioConfig)> = vec![
            ("machines", ScenarioConfig { machines: 0, ..ScenarioConfig::default() }),
            (
                "faas.arrival_rate",
                ScenarioConfig::default()
                    .with_faas(FaasConfig { arrival_rate: f64::NAN, ..FaasConfig::default() }),
            ),
            (
                "faas.arrival_rate",
                ScenarioConfig::default()
                    .with_faas(FaasConfig { arrival_rate: -1.0, ..FaasConfig::default() }),
            ),
            (
                "faas.arrival_rate",
                ScenarioConfig::default()
                    .with_faas(FaasConfig { arrival_rate: 0.0, ..FaasConfig::default() }),
            ),
            (
                "faas.service.scaling_interval",
                ScenarioConfig::default().with_faas(FaasConfig {
                    service: ServiceConfig {
                        scaling_interval: SimDuration::ZERO,
                        ..FaasConfig::default().service
                    },
                    ..FaasConfig::default()
                }),
            ),
            (
                "batch.policy_interval",
                ScenarioConfig::default().with_batch(BatchConfig {
                    policy_interval: SimDuration::ZERO,
                    ..BatchConfig::default()
                }),
            ),
            (
                "bigdata.replication",
                ScenarioConfig::bare(1, SimTime::from_secs(3600), 2)
                    .with_bigdata(BigdataConfig::default()),
            ),
            (
                "failure.mtbf_secs",
                ScenarioConfig::default().with_failures(FailureConfig {
                    mtbf_secs: f64::INFINITY,
                    ..FailureConfig::default()
                }),
            ),
            (
                "failure.failure_domain",
                ScenarioConfig::default().with_failures(FailureConfig {
                    failure_domain: 0,
                    ..FailureConfig::default()
                }),
            ),
            (
                "network.nodes_per_rack",
                ScenarioConfig::default().with_network(NetworkConfig {
                    nodes_per_rack: 0,
                    ..NetworkConfig::default()
                }),
            ),
            (
                "network.node_bandwidth_mbs",
                ScenarioConfig::default().with_network(NetworkConfig {
                    node_bandwidth_mbs: -1.0,
                    ..NetworkConfig::default()
                }),
            ),
            (
                "network.rack_bandwidth_mbs",
                ScenarioConfig::default().with_network(NetworkConfig {
                    rack_bandwidth_mbs: f64::NAN,
                    ..NetworkConfig::default()
                }),
            ),
        ];
        for (field, cfg) in invalid {
            match Scenario::try_new(cfg) {
                Err(McsError::InvalidConfig { field: f, .. }) => {
                    assert_eq!(f, field, "wrong field reported");
                }
                Err(other) => panic!("expected InvalidConfig for {field}, got {other:?}"),
                Ok(_) => panic!("expected InvalidConfig for {field}, got Ok"),
            }
        }
        assert!(ScenarioConfig::default().validate().is_ok());
    }
}
