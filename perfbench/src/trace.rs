//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public API; the
//! program itself is not instrumented. Every span carries a name, a
//! layer, start and end, its parent and the operation it belongs to.
//! Aggregates (count, total and self time per span name) are kept for
//! every span; at most [`STORED_SPAN_CAP`] spans are also kept verbatim
//! for the Chrome `trace_event` export, so a long run's memory stays
//! bounded.

use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept verbatim for the Chrome export.
pub const STORED_SPAN_CAP: usize = 200_000;

/// Layer of the spans that wrap one whole user-facing operation. Their
/// self time is the part of the operation no layer span covers.
pub const OP_LAYER: &str = "op";

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// What was called.
    pub name: &'static str,
    /// Which layer the call enters.
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The operation the span belongs to (0: work between operations).
    pub op: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Layer of the name.
    pub layer: &'static str,
    /// Spans finished.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times: duration minus the time direct children cover.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per span in milliseconds (0 without spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

struct Open {
    id: u64,
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    child_ns: u64,
    parent: Option<u64>,
}

/// An in-memory span recorder; a disabled recorder does nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    next_id: u64,
    open: Vec<Open>,
    stored: Vec<Span>,
    truncated: u64,
    totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// A recorder, recording only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            next_id: 1,
            open: Vec::new(),
            stored: Vec::new(),
            truncated: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Switches recording on or off between operations.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    /// Sets the operation id new spans are attributed to.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) {
        if self.enabled {
            self.begin_at(self.now_ns(), layer, name);
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if self.enabled {
            self.end_at(self.now_ns());
        }
    }

    fn begin_at(&mut self, start_ns: u64, layer: &'static str, name: &'static str) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|o| o.id);
        self.open.push(Open {
            id,
            name,
            layer,
            start_ns,
            child_ns: 0,
            parent,
        });
    }

    fn end_at(&mut self, end_ns: u64) {
        let open = self.open.pop().expect("end() without begin()");
        let duration = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += duration;
        }
        let totals = self.totals.entry(open.name).or_insert(Totals {
            layer: open.layer,
            ..Totals::default()
        });
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(open.child_ns);
        if self.stored.len() < STORED_SPAN_CAP {
            self.stored.push(Span {
                id: open.id,
                name: open.name,
                layer: open.layer,
                start_ns: open.start_ns,
                end_ns,
                parent: open.parent,
                op: self.op,
            });
        } else {
            self.truncated += 1;
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(layer, name);
        let out = f();
        self.end();
        out
    }

    /// Totals for one span name (zeroes when it never ran).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Self time summed per layer, in nanoseconds. The [`OP_LAYER`]
    /// entry is the unattributed remainder of the operations.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for totals in self.totals.values() {
            *out.entry(totals.layer).or_insert(0) += totals.self_ns;
        }
        out
    }

    /// The spans kept verbatim, and how many were not kept.
    pub fn stored(&self) -> (&[Span], u64) {
        (&self.stored, self.truncated)
    }

    /// The stored spans as Chrome `trace_event` JSON (Perfetto opens
    /// it): complete events in microseconds, ids in `args`.
    pub fn chrome_json(&self) -> String {
        let events: Vec<serde_json::Value> = self
            .stored
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "cat": s.layer,
                    "ph": "X",
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "span_id": s.id,
                        "parent_id": s.parent.unwrap_or(0),
                        "op": s.op,
                    },
                })
            })
            .collect();
        serde_json::json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": { "spans_not_stored": self.truncated },
        })
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        // op [0,100) holds feeds [10,40) and core [50,90); core holds
        // misp [60,70).
        t.begin_at(0, OP_LAYER, "op");
        t.begin_at(10, "feeds", "feeds.parse");
        t.end_at(40);
        t.begin_at(50, "core", "core.ingest");
        t.begin_at(60, "misp", "misp.write");
        t.end_at(70);
        t.end_at(90);
        t.end_at(100);

        assert_eq!(t.totals("op").self_ns, 100 - 30 - 40);
        assert_eq!(t.totals("core.ingest").total_ns, 40);
        assert_eq!(t.totals("core.ingest").self_ns, 30);
        assert_eq!(t.totals("misp.write").self_ns, 10);
        let by_layer = t.self_ns_by_layer();
        assert_eq!(by_layer[OP_LAYER], 30);
        assert_eq!(by_layer["feeds"], 30);
        assert_eq!(by_layer["core"], 30);
        assert_eq!(by_layer["misp"], 10);
        // Self times partition the root's duration exactly.
        assert_eq!(by_layer.values().sum::<u64>(), 100);

        let (spans, truncated) = t.stored();
        assert_eq!(truncated, 0);
        let misp = spans.iter().find(|s| s.name == "misp.write").unwrap();
        let core = spans.iter().find(|s| s.name == "core.ingest").unwrap();
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        assert_eq!(misp.parent, Some(core.id));
        assert_eq!(core.parent, Some(op.id));
        assert_eq!(op.parent, None);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin(OP_LAYER, "op");
        let v = t.span("feeds", "feeds.parse", || 7);
        t.end();
        assert_eq!(v, 7);
        assert_eq!(t.totals("op").count, 0);
        assert!(t.stored().0.is_empty());
    }

    #[test]
    fn chrome_export_parses_and_links_parents() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        t.begin(OP_LAYER, "op");
        t.span("search", "search.query", || ());
        t.end();
        let doc: serde_json::Value = serde_json::from_str(&t.chrome_json()).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["name"], "search.query");
        assert_eq!(events[0]["args"]["op"], 3);
        assert_eq!(events[0]["args"]["parent_id"], events[1]["args"]["span_id"]);
    }
}
