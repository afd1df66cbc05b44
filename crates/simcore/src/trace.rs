//! The cross-cutting event-trace bus.
//!
//! The paper's methodology (C11, C15) treats *observation* of a whole
//! ecosystem as a first-class concern: when several subsystems share one
//! virtual timeline, understanding the run means replaying one structured,
//! seed-deterministic record of everything that happened. This module is
//! that record: every actor in a [`crate::engine::Simulation`] emits
//! `(SimTime, component, event, payload)` tuples into a [`TraceBus`] via
//! [`crate::engine::Context::emit_fields`], and [`crate::metrics`] aggregates
//! the bus into summaries and time-weighted gauges.
//!
//! # Schema
//! - `at` — the virtual instant of the event (nanoseconds, exact);
//! - `component` — the emitting subsystem (`"rms"`, `"faas"`,
//!   `"autoscale"`, `"failure"`, `"workload"`, …);
//! - `event` — the event kind within the component (`"task_finish"`,
//!   `"invoke"`, `"outage"`, …);
//! - `payload` — a small JSON object of event-specific fields, handed over
//!   as a stack slice of `(&'static str, `[`Field`]`)` pairs.
//!
//! # One write path
//! [`TraceBus::record_fields`] is the only way to write a record. The sink
//! decides what the field slice becomes: a full-retention bus materializes
//! the JSON object [`payload`] builds from the same pairs, and a streaming
//! bus folds the numeric fields into its rollups without building one.
//! Component and event names are interned: the bus owns a per-simulation
//! [`Interner`] and each [`TraceEvent`] stores two copyable [`Symbol`]s, so
//! a record allocates nothing for identity (only a retained payload is
//! owned). Queries ([`TraceBus::count`], [`TraceBus::select`],
//! [`TraceBus::series`], …) run against a lazily built
//! `(component, event) -> indices` index instead of rescanning the whole
//! bus; once built, the index is maintained incrementally by later records.
//! Serialization resolves symbols back to strings, so the encodings are
//! bit-for-bit what the un-interned bus produced.
//!
//! Because the engine is deterministic, the JSON encodings
//! ([`TraceBus::to_json_string`], [`TraceBus::to_jsonl`]) are byte-identical
//! across same-seed runs — the property the composed-ecosystem determinism
//! gate in `scripts/verify.sh` checks.
//!
//! # Examples
//! ```
//! use mcs_simcore::trace::{Field, TraceBus};
//! use mcs_simcore::time::SimTime;
//!
//! let mut bus = TraceBus::new();
//! bus.record_fields(SimTime::from_secs(1), "faas", "invoke",
//!                   &[("latency_secs", Field::F64(0.02))]);
//! assert_eq!(bus.count("faas", "invoke"), 1);
//! assert_eq!(bus.events()[0].field_f64("latency_secs"), Some(0.02));
//! ```

use crate::codec::{self, Json, ToJson};
use crate::error::McsError;
use crate::intern::{FastHashMap, Interner, Symbol};
use crate::metrics::{OnlineStats, QuantileSketch};
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;

/// One structured record on the bus.
///
/// `component` and `event` are [`Symbol`]s into the owning bus's
/// [`Interner`]; resolve them with [`TraceBus::interner`] (or use the
/// string-keyed query methods on [`TraceBus`], which do it for you).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual instant the event was emitted.
    pub at: SimTime,
    /// Emitting subsystem (interned stable short name, e.g. `"rms"`).
    pub component: Symbol,
    /// Event kind within the component (interned, e.g. `"task_finish"`).
    pub event: Symbol,
    /// Event-specific fields as a JSON object (see [`payload`]).
    pub payload: Json,
}

impl TraceEvent {
    /// Whether this record has the given component and event symbols.
    pub fn matches(&self, component: Symbol, event: Symbol) -> bool {
        self.component == component && self.event == event
    }

    /// A numeric payload field, accepting any JSON number; `None` when the
    /// field is absent or non-numeric.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        self.payload.get(key)?.as_f64().filter(|x| x.is_finite())
    }

    /// A string payload field; `None` when absent or not a string.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        match self.payload.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Builds a JSON object payload from `(key, value)` pairs, preserving order —
/// the object a full-retention bus retains for the same pairs passed as
/// [`Field`]s, and the reference tests compare recorded payloads against.
///
/// Payload keys are the fixed per-event field names actors emit, so they are
/// `&'static str` and carried as borrowed [`codec::JsonKey`]s — building a
/// payload allocates for the values only, never the keys.
pub fn payload(fields: Vec<(&'static str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (codec::JsonKey::Borrowed(k), v)).collect())
}

/// One payload value of a trace record ([`TraceBus::record_fields`],
/// `Context::emit_fields`).
///
/// A `Field` is a plain copyable scalar: emitters hand the bus a stack
/// slice of `(&'static str, Field)` pairs and the bus decides what to do
/// with it — a full-retention sink materializes the exact [`Json`] object
/// [`payload`] would have built (so serialized traces stay byte-identical),
/// while a streaming sink folds the numeric fields into its rollups without
/// ever allocating a payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Field<'v> {
    /// A float value, materialized as `Json::Float`.
    F64(f64),
    /// A non-negative integer, materialized as `Json::UInt`.
    U64(u64),
    /// A signed integer, materialized as `Json::Int`.
    I64(i64),
    /// A boolean, materialized as `Json::Bool`.
    Bool(bool),
    /// A borrowed string, materialized as `Json::Str` (owned) only when a
    /// full-retention sink actually keeps the event.
    Str(&'v str),
}

impl Field<'_> {
    /// The owned JSON value this field materializes to on the full path.
    fn to_json(self) -> Json {
        match self {
            Field::F64(x) => Json::Float(x),
            Field::U64(x) => Json::UInt(x),
            Field::I64(x) => Json::Int(x),
            Field::Bool(x) => Json::Bool(x),
            Field::Str(s) => Json::Str(s.to_owned()),
        }
    }

    /// The numeric view a streaming sink folds — exactly the values
    /// [`TraceEvent::field_f64`] would read back off a retained event.
    fn fold_f64(self) -> Option<f64> {
        match self {
            Field::F64(x) if x.is_finite() => Some(x),
            Field::F64(_) | Field::Bool(_) | Field::Str(_) => None,
            Field::U64(x) => Some(x as f64),
            Field::I64(x) => Some(x as f64),
        }
    }
}

/// The `(component, event) -> event indices` query index.
type QueryIndex = FastHashMap<(Symbol, Symbol), Vec<u32>>;

/// Tuning for a streaming (bounded-memory) trace sink; see
/// [`TraceBus::streaming`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Centroid budget of each per-field [`QuantileSketch`]; clamped to at
    /// least 8. Larger budgets tighten quantile error (~2n/budget ranks) at
    /// ~16 bytes per centroid.
    pub sketch_centroids: usize,
    /// When set, each rollup also keeps a per-window event counter over
    /// fixed windows of this width (capped at [`MAX_WINDOWS`] windows; later
    /// events saturate into the last window). `None` disables windowing.
    pub window: Option<SimDuration>,
}

/// The ceiling on per-rollup window counters a streaming sink will allocate.
pub const MAX_WINDOWS: usize = 1 << 16;

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { sketch_centroids: QuantileSketch::DEFAULT_CENTROIDS, window: None }
    }
}

/// Online aggregation of one numeric payload field within a rollup.
#[derive(Debug, Clone, PartialEq)]
struct FieldAgg {
    /// The field name, interned in the owning bus's table.
    key: Symbol,
    stats: OnlineStats,
    sketch: QuantileSketch,
}

/// The per-`(component, event)` aggregate a streaming sink maintains in
/// place of retained events.
#[derive(Debug, Clone, PartialEq)]
struct Rollup {
    count: u64,
    first_at: SimTime,
    last_at: SimTime,
    /// One aggregate per numeric payload field, in first-seen order (the
    /// per-event field vocabulary is tiny, so a linear scan beats a map).
    fields: Vec<FieldAgg>,
    /// Event counts per time window (empty unless the sink is windowed).
    windows: Vec<u64>,
}

impl Rollup {
    fn new(at: SimTime) -> Self {
        Rollup { count: 0, first_at: at, last_at: at, fields: Vec::new(), windows: Vec::new() }
    }

    /// The index of `key`'s aggregate, appending a fresh one on first sight.
    fn field_index(&mut self, key: Symbol, sketch_centroids: usize) -> usize {
        if let Some(i) = self.fields.iter().position(|f| f.key == key) {
            return i;
        }
        self.fields.push(FieldAgg {
            key,
            stats: OnlineStats::new(),
            sketch: QuantileSketch::new(sketch_centroids),
        });
        self.fields.len() - 1
    }

    fn field(&self, key: Symbol) -> Option<&FieldAgg> {
        self.fields.iter().find(|f| f.key == key)
    }
}

/// The bounded-memory aggregation state behind a streaming bus. Every
/// record reaches it through one fold, [`StreamingSink::fold_fields`].
#[derive(Debug, Clone, PartialEq)]
struct StreamingSink {
    config: StreamConfig,
    rollups: FastHashMap<(Symbol, Symbol), Rollup>,
    total: u64,
}

impl StreamingSink {
    fn new(config: StreamConfig) -> Self {
        let config = StreamConfig {
            sketch_centroids: config.sketch_centroids.max(8),
            window: config.window.filter(|w| *w > SimDuration::ZERO),
        };
        StreamingSink { config, rollups: FastHashMap::default(), total: 0 }
    }

    /// Advances the event-level counters and returns the rollup to fold
    /// field values into.
    fn touch(&mut self, at: SimTime, component: Symbol, event: Symbol) -> &mut Rollup {
        self.total += 1;
        let window = self.config.window;
        let rollup = self.rollups.entry((component, event)).or_insert_with(|| Rollup::new(at));
        rollup.count += 1;
        rollup.first_at = rollup.first_at.min(at);
        rollup.last_at = rollup.last_at.max(at);
        if let Some(w) = window {
            let idx = (at.as_nanos() / w.as_nanos()) as usize;
            let idx = idx.min(MAX_WINDOWS - 1);
            if idx >= rollup.windows.len() {
                rollup.windows.resize(idx + 1, 0);
            }
            rollup.windows[idx] += 1;
        }
        rollup
    }

    /// Folds one record's field slice — no JSON object is ever built.
    ///
    /// An emitter sends the same keys in the same order every time, so the
    /// `n`-th numeric field of a record is usually the rollup's `n`-th
    /// aggregate: that one is tried first, by name, and only a miss pays
    /// for interning the key and scanning. A hit's key is already interned,
    /// so symbols are still issued in first-seen order.
    fn fold_fields(
        &mut self,
        at: SimTime,
        component: Symbol,
        event: Symbol,
        fields: &[(&'static str, Field<'_>)],
        interner: &mut Interner,
    ) {
        let centroids = self.config.sketch_centroids;
        let rollup = self.touch(at, component, event);
        let mut hint = 0;
        for &(key, value) in fields {
            let Some(x) = value.fold_f64() else { continue };
            let i = match rollup.fields.get(hint) {
                Some(agg) if interner.resolve(agg.key) == key => hint,
                _ => rollup.field_index(interner.intern(key), centroids),
            };
            hint += 1;
            let agg = &mut rollup.fields[i];
            agg.stats.record(x);
            agg.sketch.record(x);
        }
    }

    /// Approximate heap bytes this sink retains — the "flat memory" number
    /// the scale benchmarks track.
    fn approx_bytes(&self) -> u64 {
        let mut bytes = std::mem::size_of::<Self>() as u64;
        for rollup in self.rollups.values() {
            bytes += std::mem::size_of::<((Symbol, Symbol), Rollup)>() as u64;
            bytes += (rollup.windows.len() * std::mem::size_of::<u64>()) as u64;
            for agg in &rollup.fields {
                bytes += std::mem::size_of::<FieldAgg>() as u64;
                bytes += (agg.sketch.retained_points() * 16) as u64;
            }
        }
        bytes
    }
}

/// How a [`TraceBus`] treats records as they arrive.
#[derive(Debug, Clone, PartialEq)]
enum Sink {
    /// Retain every event (the default; serialized traces are golden-pinned).
    Full,
    /// Fold each event into bounded-memory rollups and drop it.
    Streaming(Box<StreamingSink>),
}

/// The append-only, seed-deterministic record of one simulation run.
///
/// Owned by [`crate::engine::Simulation`]; actors append through
/// [`crate::engine::Context::emit_fields`], and the experiment harness reads
/// it back after the run (or takes it with
/// [`crate::engine::Simulation::take_trace`]).
#[derive(Debug)]
pub struct TraceBus {
    events: Vec<TraceEvent>,
    interner: Interner,
    sink: Sink,
    /// Built on first query, maintained incrementally by later records.
    /// Purely derived state: ignored by `Clone`/`PartialEq`.
    index: RefCell<Option<QueryIndex>>,
}

impl Default for TraceBus {
    fn default() -> Self {
        TraceBus {
            events: Vec::new(),
            interner: Interner::new(),
            sink: Sink::Full,
            index: RefCell::new(None),
        }
    }
}

impl Clone for TraceBus {
    fn clone(&self) -> Self {
        TraceBus {
            events: self.events.clone(),
            interner: self.interner.clone(),
            sink: self.sink.clone(),
            index: RefCell::new(None),
        }
    }
}

impl PartialEq for TraceBus {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events && self.interner == other.interner && self.sink == other.sink
    }
}

impl TraceBus {
    /// An empty full-retention bus (every record kept; serialized traces are
    /// byte-identical across same-seed runs).
    pub fn new() -> Self {
        TraceBus::default()
    }

    /// An empty streaming bus: records are folded into bounded-memory
    /// per-`(component, event)` rollups — counts, per-field [`OnlineStats`]
    /// and [`QuantileSketch`]es, and optional per-window counters — at
    /// [`record_fields`] time, then dropped.
    ///
    /// In this mode [`events`] stays empty and [`select`]/[`series`]/the
    /// serializers return nothing; use the mode-agnostic aggregate queries
    /// ([`count`], [`counts`], [`recorded`], [`field_stats`],
    /// [`field_quantile`], [`window_counts`]) instead.
    ///
    /// [`record_fields`]: TraceBus::record_fields
    /// [`events`]: TraceBus::events
    /// [`select`]: TraceBus::select
    /// [`series`]: TraceBus::series
    /// [`count`]: TraceBus::count
    /// [`counts`]: TraceBus::counts
    /// [`recorded`]: TraceBus::recorded
    /// [`field_stats`]: TraceBus::field_stats
    /// [`field_quantile`]: TraceBus::field_quantile
    /// [`window_counts`]: TraceBus::window_counts
    pub fn streaming(config: StreamConfig) -> Self {
        TraceBus { sink: Sink::Streaming(Box::new(StreamingSink::new(config))), ..TraceBus::default() }
    }

    /// Whether this bus aggregates instead of retaining events.
    pub fn is_streaming(&self) -> bool {
        matches!(self.sink, Sink::Streaming(_))
    }

    /// Records one event from a stack slice of scalar fields, interning
    /// `component` and `event` (allocation-free after each name's first
    /// appearance). A full-retention bus retains exactly the [`Json`] object
    /// [`payload`] builds from the same pairs; a streaming bus folds the
    /// numeric fields into its rollups without building any payload at all.
    pub fn record_fields(
        &mut self,
        at: SimTime,
        component: &str,
        event: &str,
        fields: &[(&'static str, Field<'_>)],
    ) {
        let component = self.interner.intern(component);
        let event = self.interner.intern(event);
        match &mut self.sink {
            Sink::Full => {
                let payload = Json::Obj(
                    fields
                        .iter()
                        .map(|&(k, v)| (codec::JsonKey::Borrowed(k), v.to_json()))
                        .collect(),
                );
                self.push(at, component, event, payload);
            }
            Sink::Streaming(sink) => {
                sink.fold_fields(at, component, event, fields, &mut self.interner);
            }
        }
    }

    /// Retains one event on a full bus, keeping a built query index current.
    fn push(&mut self, at: SimTime, component: Symbol, event: Symbol, payload: Json) {
        let idx = u32::try_from(self.events.len()).expect("trace bus overflow");
        self.events.push(TraceEvent { at, component, event, payload });
        if let Some(index) = self.index.get_mut().as_mut() {
            index.entry((component, event)).or_default().push(idx);
        }
    }

    /// Interns a name in this bus's string table (see [`Interner::intern`]).
    pub fn intern(&mut self, name: &str) -> Symbol {
        self.interner.intern(name)
    }

    /// The bus's string table, for resolving [`TraceEvent`] symbols.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// All retained records, in emission order (which equals delivery order,
    /// so it is identical across same-seed runs). Always empty on a
    /// streaming bus — use [`TraceBus::recorded`] for the events-seen count.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of retained records (0 on a streaming bus).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Total records ever offered to the bus, whatever the sink did with
    /// them — the mode-agnostic event counter.
    pub fn recorded(&self) -> u64 {
        match &self.sink {
            Sink::Full => self.events.len() as u64,
            Sink::Streaming(sink) => sink.total,
        }
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded() == 0
    }

    /// Drops all records and rollups (the string table and its symbols stay
    /// valid, and the sink keeps its mode and configuration).
    pub fn clear(&mut self) {
        self.events.clear();
        if let Sink::Streaming(sink) = &mut self.sink {
            sink.rollups.clear();
            sink.total = 0;
        }
        *self.index.get_mut() = None;
    }

    /// Runs `f` over the query index, building it on first use.
    fn with_index<R>(&self, f: impl FnOnce(&QueryIndex) -> R) -> R {
        let mut slot = self.index.borrow_mut();
        let index = slot.get_or_insert_with(|| {
            let mut index = QueryIndex::default();
            for (i, e) in self.events.iter().enumerate() {
                index.entry((e.component, e.event)).or_default().push(i as u32);
            }
            index
        });
        f(index)
    }

    /// Looks up the symbols of a `(component, event)` pair without interning.
    fn lookup_pair(&self, component: &str, event: &str) -> Option<(Symbol, Symbol)> {
        Some((self.interner.lookup(component)?, self.interner.lookup(event)?))
    }

    /// The records matching one `(component, event)` pair, in order. The
    /// query folds inside the index borrow — no index clone, one output
    /// allocation. Always empty on a streaming bus.
    pub fn select(&self, component: &str, event: &str) -> Vec<&TraceEvent> {
        let Some(key) = self.lookup_pair(component, event) else { return Vec::new() };
        let events = &self.events;
        self.with_index(|index| {
            index.get(&key).map_or_else(Vec::new, |indices| {
                indices.iter().map(|&i| &events[i as usize]).collect()
            })
        })
    }

    /// Number of records matching one `(component, event)` pair (works in
    /// both retention modes).
    pub fn count(&self, component: &str, event: &str) -> usize {
        let Some(key) = self.lookup_pair(component, event) else { return 0 };
        match &self.sink {
            Sink::Full => self.with_index(|index| index.get(&key).map_or(0, Vec::len)),
            Sink::Streaming(sink) => {
                sink.rollups.get(&key).map_or(0, |r| r.count as usize)
            }
        }
    }

    /// Event counts per `(component, event)`, sorted for deterministic
    /// report rows (works in both retention modes). Each name is resolved
    /// once per distinct pair, not once per event.
    pub fn counts(&self) -> Vec<(String, String, u64)> {
        let mut rows: Vec<(String, String, u64)> = match &self.sink {
            Sink::Full => self.with_index(|index| {
                index
                    .iter()
                    .map(|(&(c, e), indices)| {
                        (
                            self.interner.resolve(c).to_owned(),
                            self.interner.resolve(e).to_owned(),
                            indices.len() as u64,
                        )
                    })
                    .collect()
            }),
            Sink::Streaming(sink) => sink
                .rollups
                .iter()
                .map(|(&(c, e), rollup)| {
                    (
                        self.interner.resolve(c).to_owned(),
                        self.interner.resolve(e).to_owned(),
                        rollup.count,
                    )
                })
                .collect(),
        };
        rows.sort_unstable();
        rows
    }

    /// The sorted distinct component names on the bus (works in both
    /// retention modes).
    pub fn components(&self) -> Vec<String> {
        let mut symbols: Vec<Symbol> = match &self.sink {
            Sink::Full => self.with_index(|index| index.keys().map(|&(c, _)| c).collect()),
            Sink::Streaming(sink) => sink.rollups.keys().map(|&(c, _)| c).collect(),
        };
        symbols.sort_unstable();
        symbols.dedup();
        let mut names: Vec<String> =
            symbols.into_iter().map(|c| self.interner.resolve(c).to_owned()).collect();
        names.sort_unstable();
        names
    }

    /// The `(instant, value)` series of a numeric payload field across
    /// matching records (records without the field are skipped). The filter
    /// folds inside the index borrow — no index clone. Always empty on a
    /// streaming bus (the per-event series is exactly what streaming gives
    /// up; use [`TraceBus::field_stats`] / [`TraceBus::field_quantile`]).
    pub fn series(&self, component: &str, event: &str, field: &str) -> Vec<(SimTime, f64)> {
        let Some(key) = self.lookup_pair(component, event) else { return Vec::new() };
        let events = &self.events;
        self.with_index(|index| {
            index.get(&key).map_or_else(Vec::new, |indices| {
                indices
                    .iter()
                    .filter_map(|&i| {
                        let e = &events[i as usize];
                        e.field_f64(field).map(|x| (e.at, x))
                    })
                    .collect()
            })
        })
    }

    /// Online statistics of a numeric payload field across matching records;
    /// `None` when no matching record carries the field. On a full bus this
    /// folds the retained series (exact); on a streaming bus it reads the
    /// rollup, which folded the same values in the same order — the two
    /// modes agree bit-for-bit.
    pub fn field_stats(&self, component: &str, event: &str, field: &str) -> Option<OnlineStats> {
        let key = self.lookup_pair(component, event)?;
        match &self.sink {
            Sink::Full => {
                let mut stats = OnlineStats::new();
                for (_, x) in self.series(component, event, field) {
                    stats.record(x);
                }
                if stats.count() == 0 { None } else { Some(stats) }
            }
            Sink::Streaming(sink) => {
                let field = self.interner.lookup(field)?;
                let agg = sink.rollups.get(&key)?.field(field)?;
                Some(agg.stats.clone())
            }
        }
    }

    /// The `q`-quantile of a numeric payload field across matching records;
    /// `None` when no matching record carries the field. Exact (sort-based)
    /// on a full bus; within the sketch's rank-error bound on a streaming
    /// bus.
    pub fn field_quantile(&self, component: &str, event: &str, field: &str, q: f64) -> Option<f64> {
        match &self.sink {
            Sink::Full => {
                let xs: Vec<f64> =
                    self.series(component, event, field).into_iter().map(|(_, x)| x).collect();
                crate::metrics::quantile(&xs, q)
            }
            Sink::Streaming(sink) => {
                let key = self.lookup_pair(component, event)?;
                let field = self.interner.lookup(field)?;
                sink.rollups.get(&key)?.field(field)?.sketch.quantile(q)
            }
        }
    }

    /// Per-window event counts of one `(component, event)` pair, from window
    /// 0 up to the last populated window. `None` unless this is a streaming
    /// bus configured with a [`StreamConfig::window`]; empty when the pair
    /// never recorded.
    pub fn window_counts(&self, component: &str, event: &str) -> Option<Vec<u64>> {
        let Sink::Streaming(sink) = &self.sink else { return None };
        sink.config.window?;
        let Some(key) = self.lookup_pair(component, event) else { return Some(Vec::new()) };
        Some(sink.rollups.get(&key).map_or_else(Vec::new, |r| r.windows.clone()))
    }

    /// The `[first, last]` instants of one `(component, event)` pair, in
    /// either retention mode; `None` when the pair never recorded.
    pub fn time_span(&self, component: &str, event: &str) -> Option<(SimTime, SimTime)> {
        let key = self.lookup_pair(component, event)?;
        match &self.sink {
            Sink::Full => {
                let events = &self.events;
                self.with_index(|index| {
                    let indices = index.get(&key)?;
                    let first = events[*indices.first()? as usize].at;
                    let last = events[*indices.last()? as usize].at;
                    Some((first, last))
                })
            }
            Sink::Streaming(sink) => {
                sink.rollups.get(&key).map(|r| (r.first_at, r.last_at))
            }
        }
    }

    /// Approximate heap bytes the bus retains: event storage plus payload
    /// heap on a full bus, rollup state on a streaming bus (plus the string
    /// table in both). Deterministic for a deterministic run — the memory
    /// column the scale benchmarks and `scale_stress` report.
    pub fn approx_retained_bytes(&self) -> u64 {
        let mut bytes: u64 = self.interner.names().map(|n| n.len() as u64 + 16).sum();
        match &self.sink {
            Sink::Full => {
                bytes += (self.events.len() * std::mem::size_of::<TraceEvent>()) as u64;
                for e in &self.events {
                    bytes += json_heap_bytes(&e.payload);
                }
            }
            Sink::Streaming(sink) => {
                bytes += sink.approx_bytes();
            }
        }
        bytes
    }

    /// Appends one event's JSON object form (symbols resolved back to
    /// strings — the exact encoding of the pre-interning bus).
    fn encode_event_into(&self, e: &TraceEvent, out: &mut String) {
        out.push_str("{\"at\":");
        e.at.to_json().encode_into(out);
        out.push_str(",\"component\":");
        codec::encode_str(self.interner.resolve(e.component), out);
        out.push_str(",\"event\":");
        codec::encode_str(self.interner.resolve(e.event), out);
        out.push_str(",\"payload\":");
        e.payload.encode_into(out);
        out.push('}');
    }

    /// The whole bus as one deterministic JSON array.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        out.push('[');
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.encode_event_into(e, &mut out);
        }
        out.push(']');
        out
    }

    /// The bus as JSON-lines (one record per line), the format used by the
    /// determinism diff gate.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            self.encode_event_into(e, &mut out);
            out.push('\n');
        }
        out
    }

    /// Rebuilds a bus from the array form [`TraceBus::to_json_string`]
    /// writes, re-interning every name.
    ///
    /// # Errors
    /// Returns [`McsError::Json`] for malformed text and
    /// [`McsError::Decode`] when a record lacks the trace schema.
    pub fn from_json_str(text: &str) -> Result<TraceBus, McsError> {
        let doc = Json::parse(text)?;
        let Json::Arr(items) = doc else {
            return Err(McsError::decode("a trace event array", "non-array document"));
        };
        let mut bus = TraceBus::new();
        for item in items {
            let at: SimTime = item.field("at")?;
            let component: String = item.field("component")?;
            let event: String = item.field("event")?;
            let payload = item.get("payload").cloned().unwrap_or(Json::Null);
            let (component, event) = (bus.intern(&component), bus.intern(&event));
            bus.push(at, component, event, payload);
        }
        Ok(bus)
    }
}

/// Rough heap footprint of one payload value: string bytes plus vector
/// slots, recursively. An estimate (allocator overhead and spare capacity
/// are ignored), but a deterministic one.
fn json_heap_bytes(value: &Json) -> u64 {
    match value {
        Json::Str(s) => s.len() as u64,
        Json::Arr(items) => items
            .iter()
            .map(|v| std::mem::size_of::<Json>() as u64 + json_heap_bytes(v))
            .sum(),
        Json::Obj(fields) => fields
            .iter()
            .map(|(k, v)| {
                let key_bytes = match k {
                    codec::JsonKey::Owned(s) => s.len() as u64,
                    codec::JsonKey::Borrowed(_) => 0,
                };
                std::mem::size_of::<(codec::JsonKey, Json)>() as u64
                    + key_bytes
                    + json_heap_bytes(v)
            })
            .sum(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Check;
    use crate::{prop_assert, prop_assert_eq};

    fn bus() -> TraceBus {
        let mut b = TraceBus::new();
        b.record_fields(
            SimTime::from_secs(1),
            "rms",
            "task_finish",
            &[("wait_secs", Field::F64(2.5))],
        );
        b.record_fields(
            SimTime::from_secs(2),
            "faas",
            "invoke",
            &[("latency_secs", Field::F64(0.1)), ("cold", Field::Bool(true))],
        );
        b.record_fields(
            SimTime::from_secs(3),
            "rms",
            "task_finish",
            &[("wait_secs", Field::F64(0.5))],
        );
        b
    }

    #[test]
    fn counts_are_sorted_and_complete() {
        let counts = bus().counts();
        assert_eq!(
            counts,
            vec![
                ("faas".into(), "invoke".into(), 1),
                ("rms".into(), "task_finish".into(), 2),
            ]
        );
    }

    #[test]
    fn select_and_series_filter_by_kind() {
        let b = bus();
        assert_eq!(b.select("rms", "task_finish").len(), 2);
        assert_eq!(b.count("faas", "invoke"), 1);
        let series = b.series("rms", "task_finish", "wait_secs");
        assert_eq!(series, vec![(SimTime::from_secs(1), 2.5), (SimTime::from_secs(3), 0.5)]);
    }

    #[test]
    fn queries_on_unknown_names_are_empty_not_panics() {
        let b = bus();
        assert_eq!(b.count("nope", "invoke"), 0);
        assert_eq!(b.count("faas", "nope"), 0);
        assert!(b.select("nope", "nope").is_empty());
        assert!(b.series("nope", "nope", "x").is_empty());
    }

    #[test]
    fn index_stays_correct_across_interleaved_records() {
        let mut b = bus();
        // Force the index to exist, then keep recording.
        assert_eq!(b.count("faas", "invoke"), 1);
        b.record_fields(SimTime::from_secs(4), "faas", "invoke", &[]);
        b.record_fields(SimTime::from_secs(5), "new-component", "boot", &[]);
        assert_eq!(b.count("faas", "invoke"), 2);
        assert_eq!(b.count("new-component", "boot"), 1);
        assert_eq!(b.select("faas", "invoke").len(), 2);
        b.clear();
        assert_eq!(b.count("faas", "invoke"), 0);
    }

    #[test]
    fn field_accessors_handle_missing_fields() {
        let b = bus();
        let e = &b.events()[1];
        assert_eq!(e.field_f64("latency_secs"), Some(0.1));
        assert_eq!(e.field_f64("nope"), None);
        assert_eq!(e.field_str("nope"), None);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let b = bus();
        let json = b.to_json_string();
        let back = TraceBus::from_json_str(&json).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.to_json_string(), json);
        assert_eq!(b.to_jsonl().lines().count(), b.len());
    }

    #[test]
    fn serialization_matches_the_un_interned_encoding() {
        // The reference encoding the pre-interning bus produced via
        // `impl_json!(struct TraceEvent { at, component, event, payload })`.
        let b = bus();
        let reference: Vec<Json> = b
            .events()
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("at".into(), e.at.to_json()),
                    ("component".into(), Json::Str(b.interner().resolve(e.component).into())),
                    ("event".into(), Json::Str(b.interner().resolve(e.event).into())),
                    ("payload".into(), e.payload.clone()),
                ])
            })
            .collect();
        assert_eq!(b.to_json_string(), Json::Arr(reference).encode());
    }

    #[test]
    fn components_sorted_unique() {
        assert_eq!(bus().components(), vec!["faas".to_owned(), "rms".to_owned()]);
    }

    /// The same record stream sent to either sink mode.
    fn drive(bus: &mut TraceBus) {
        for i in 0..500u64 {
            let at = SimTime::from_secs(i);
            bus.record_fields(
                at,
                "faas",
                "invoke",
                &[
                    ("latency_secs", Field::F64(0.01 * (i % 37) as f64)),
                    ("cold", Field::Bool(i % 10 == 0)),
                ],
            );
            if i % 3 == 0 {
                bus.record_fields(
                    at,
                    "rms",
                    "task_finish",
                    &[("wait_secs", Field::F64(0.5 * (i % 11) as f64)), ("job", Field::Str("j"))],
                );
            }
        }
    }

    #[test]
    fn streaming_counts_match_full_retention() {
        let mut full = TraceBus::new();
        let mut stream = TraceBus::streaming(StreamConfig::default());
        drive(&mut full);
        drive(&mut stream);
        assert!(stream.is_streaming() && !full.is_streaming());
        assert_eq!(stream.len(), 0);
        assert!(stream.events().is_empty());
        assert_eq!(stream.recorded(), full.recorded());
        assert_eq!(stream.counts(), full.counts());
        assert_eq!(stream.components(), full.components());
        assert_eq!(stream.count("faas", "invoke"), full.count("faas", "invoke"));
        assert_eq!(stream.count("nope", "invoke"), 0);
        assert_eq!(stream.time_span("faas", "invoke"), full.time_span("faas", "invoke"));
        assert_eq!(full.time_span("nope", "x"), None);
    }

    #[test]
    fn streaming_field_stats_are_bit_identical_to_full() {
        let mut full = TraceBus::new();
        let mut stream = TraceBus::streaming(StreamConfig::default());
        drive(&mut full);
        drive(&mut stream);
        let a = full.field_stats("faas", "invoke", "latency_secs").unwrap();
        let b = stream.field_stats("faas", "invoke", "latency_secs").unwrap();
        assert_eq!(a, b); // same values folded in the same order
        assert!(full.field_stats("faas", "invoke", "nope").is_none());
        assert!(stream.field_stats("faas", "invoke", "nope").is_none());
        // Bool and Str fields are not numeric in either mode.
        assert!(stream.field_stats("faas", "invoke", "cold").is_none());
        assert!(stream.field_stats("rms", "task_finish", "job").is_none());
    }

    #[test]
    fn streaming_quantiles_stay_within_sketch_bounds() {
        let mut full = TraceBus::new();
        let mut stream = TraceBus::streaming(StreamConfig::default());
        drive(&mut full);
        drive(&mut stream);
        for q in [0.0, 0.5, 0.95, 1.0] {
            let exact = full.field_quantile("faas", "invoke", "latency_secs", q).unwrap();
            let est = stream.field_quantile("faas", "invoke", "latency_secs", q).unwrap();
            // 500 samples over a 0.36-wide range at 128 centroids: generous.
            assert!((est - exact).abs() < 0.05, "q={q}: {est} vs {exact}");
        }
        assert!(full.field_quantile("faas", "invoke", "nope", 0.5).is_none());
        assert!(stream.field_quantile("faas", "invoke", "nope", 0.5).is_none());
    }

    #[test]
    fn streaming_windows_count_events_per_interval() {
        let config =
            StreamConfig { window: Some(SimDuration::from_secs(100)), ..StreamConfig::default() };
        let mut bus = TraceBus::streaming(config);
        drive(&mut bus);
        // 500 one-per-second invokes over 100 s windows: five full windows.
        assert_eq!(bus.window_counts("faas", "invoke"), Some(vec![100; 5]));
        assert_eq!(bus.window_counts("never", "seen"), Some(Vec::new()));
        // No window configured (or full retention): no window counters.
        assert_eq!(TraceBus::streaming(StreamConfig::default()).window_counts("a", "b"), None);
        assert_eq!(TraceBus::new().window_counts("faas", "invoke"), None);
    }

    #[test]
    fn streaming_retained_bytes_stay_flat() {
        let mut small = TraceBus::streaming(StreamConfig::default());
        let mut big = TraceBus::streaming(StreamConfig::default());
        let mut full = TraceBus::new();
        drive(&mut small);
        for _ in 0..20 {
            drive(&mut big);
            drive(&mut full);
        }
        // 20x the events: full retention grows ~20x, streaming stays put.
        assert!(full.approx_retained_bytes() > 10 * small.approx_retained_bytes());
        assert!(big.approx_retained_bytes() < 2 * small.approx_retained_bytes());
    }

    #[test]
    fn record_fields_matches_payload_bytes_in_full_mode() {
        let reference = payload(vec![
            ("owner", Json::Str("faas".to_owned())),
            ("id", Json::UInt(7)),
            ("delta", Json::Int(-2)),
            ("stalled", Json::Bool(false)),
            ("secs", Json::Float(0.25)),
        ]);
        let mut via_fields = TraceBus::new();
        via_fields.record_fields(
            SimTime::from_secs(1),
            "net",
            "flow_end",
            &[
                ("owner", Field::Str("faas")),
                ("id", Field::U64(7)),
                ("delta", Field::I64(-2)),
                ("stalled", Field::Bool(false)),
                ("secs", Field::F64(0.25)),
            ],
        );
        assert_eq!(via_fields.events()[0].payload, reference);
        let expected = format!(
            r#"[{{"at":1000000000,"component":"net","event":"flow_end","payload":{}}}]"#,
            reference.encode()
        );
        assert_eq!(via_fields.to_json_string(), expected);
    }

    #[test]
    fn streaming_clear_resets_rollups_but_keeps_mode() {
        let mut bus = TraceBus::streaming(StreamConfig::default());
        drive(&mut bus);
        assert!(!bus.is_empty());
        bus.clear();
        assert!(bus.is_empty() && bus.is_streaming());
        assert_eq!(bus.recorded(), 0);
        assert!(bus.counts().is_empty());
        drive(&mut bus);
        assert_eq!(bus.count("faas", "invoke"), 500);
    }

    /// The streaming fold as it was before position lookup: intern every
    /// numeric field's key, then scan the rollup for it.
    fn record_by_interning(
        bus: &mut TraceBus,
        at: SimTime,
        component: &str,
        event: &str,
        fields: &[(&'static str, Field<'_>)],
    ) {
        let component = bus.interner.intern(component);
        let event = bus.interner.intern(event);
        let Sink::Streaming(sink) = &mut bus.sink else { panic!("streaming bus expected") };
        let centroids = sink.config.sketch_centroids;
        let rollup = sink.touch(at, component, event);
        for &(key, value) in fields {
            let Some(x) = value.fold_f64() else { continue };
            let i = rollup.field_index(bus.interner.intern(key), centroids);
            rollup.fields[i].stats.record(x);
            rollup.fields[i].sketch.record(x);
        }
    }

    #[test]
    fn position_lookup_folds_like_per_key_interning() {
        const KEYS: [&str; 5] = ["id", "bytes", "secs", "owner", "late"];
        const PAIRS: [(&str, &str); 3] =
            [("net", "flow_end"), ("net", "flow_start"), ("faas", "invoke")];
        // Fixed shapes first, so every miss kind happens whatever the draw:
        // a Str between numbers, a non-finite first sighting, a key that
        // first appears later, and the same keys reordered.
        let nan = f64::NAN;
        let fixed: [&[(&'static str, Field<'static>)]; 5] = [
            &[("id", Field::U64(1)), ("owner", Field::Str("faas")), ("bytes", Field::U64(10))],
            &[("id", Field::U64(2)), ("secs", Field::F64(nan)), ("bytes", Field::U64(20))],
            &[("id", Field::U64(3)), ("secs", Field::F64(0.5)), ("bytes", Field::U64(30))],
            &[("late", Field::I64(-4)), ("bytes", Field::U64(40)), ("id", Field::U64(4))],
            &[("bytes", Field::U64(50)), ("id", Field::U64(5)), ("secs", Field::F64(0.25))],
        ];
        Check::new("trace_position_lookup").cases(48).run(|rng| {
            let config = StreamConfig { sketch_centroids: 8 + rng.uniform_usize(24), window: None };
            let mut got = TraceBus::streaming(config.clone());
            let mut want = TraceBus::streaming(config);
            for (n, shape) in fixed.iter().enumerate() {
                let at = SimTime::from_secs(n as u64);
                got.record_fields(at, "net", "flow_end", shape);
                record_by_interning(&mut want, at, "net", "flow_end", shape);
            }
            for n in 0..400u64 {
                let (component, event) = PAIRS[rng.uniform_usize(PAIRS.len())];
                let mut keys = KEYS;
                if rng.bernoulli(0.2) {
                    rng.shuffle(&mut keys);
                }
                let len =
                    if rng.bernoulli(0.7) { KEYS.len() } else { rng.uniform_usize(KEYS.len() + 1) };
                let fields: Vec<(&'static str, Field<'static>)> = keys[..len]
                    .iter()
                    .map(|&k| {
                        let v = match rng.uniform_usize(8) {
                            0 => Field::Str("s"),
                            1 => Field::Bool(true),
                            2 => Field::F64([nan, f64::INFINITY][rng.uniform_usize(2)]),
                            3 => Field::I64(-(rng.uniform_usize(100) as i64)),
                            4 => Field::U64(rng.next_u64() >> 40),
                            _ => Field::F64(rng.uniform_f64(-1e3, 1e3)),
                        };
                        (k, v)
                    })
                    .collect();
                let at = SimTime::from_secs(10 + n);
                got.record_fields(at, component, event, &fields);
                record_by_interning(&mut want, at, component, event, &fields);
            }
            prop_assert!(got.interner == want.interner, "interner order differs");
            prop_assert_eq!(got.approx_retained_bytes(), want.approx_retained_bytes());
            for (component, event) in PAIRS {
                for key in KEYS {
                    prop_assert_eq!(
                        got.field_stats(component, event, key),
                        want.field_stats(component, event, key)
                    );
                    for q in [0.0, 0.3, 0.5, 0.99, 1.0] {
                        prop_assert_eq!(
                            got.field_quantile(component, event, key, q).map(f64::to_bits),
                            want.field_quantile(component, event, key, q).map(f64::to_bits)
                        );
                    }
                }
            }
            prop_assert!(got == want, "sink state differs");
            Ok(())
        });
    }
}
