//! In-memory spans of a traced run, written out once at exit.
//!
//! Spans are recorded from the benchmark's own files around its calls into
//! each layer: one root span per workload rep, one child per layer replay.

use crate::timed::Histogram;
use mcs::simcore::codec::Json;
use std::time::Instant;

/// One finished span.
struct Span {
    id: usize,
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    dur_ns: u64,
    /// Calls the span made into its layer.
    calls: u64,
    /// Per-call durations, when each call was timed.
    hist: Option<Histogram>,
}

/// The spans of one run, with times relative to its start.
pub struct Spans {
    epoch: Instant,
    next_id: usize,
    spans: Vec<Span>,
}

/// A span that has started but not ended.
pub struct Open {
    id: usize,
    parent: Option<usize>,
    name: String,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Starts a span; ids are handed out in start order.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            name: name.into(),
            start: Instant::now(),
        }
    }

    /// Ends a span with its call count and optional per-call histogram.
    pub fn close(&mut self, open: Open, calls: u64, hist: Option<Histogram>) {
        let as_ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: as_ns(open.start.duration_since(self.epoch)),
            dur_ns: as_ns(open.start.elapsed()),
            calls,
            hist,
        });
    }

    /// All spans, in id order.
    pub fn to_json(&self) -> Json {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| s.id);
        Json::Arr(
            spans
                .into_iter()
                .map(|s| {
                    let mut fields = vec![
                        ("id".into(), Json::UInt(s.id as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("name".into(), Json::Str(s.name.clone())),
                        ("start_ns".into(), Json::UInt(s.start_ns)),
                        ("dur_ns".into(), Json::UInt(s.dur_ns)),
                        ("calls".into(), Json::UInt(s.calls)),
                    ];
                    if let Some(h) = &s.hist {
                        fields.push(("call_ns_histogram".into(), h.to_json()));
                    }
                    Json::Obj(fields)
                })
                .collect(),
        )
    }
}
