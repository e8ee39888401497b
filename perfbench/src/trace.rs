//! In-memory spans recorded by the benchmark around each call into a
//! layer, written out as Chrome trace-event JSON when the run ends.
//!
//! A span has a name, start, end, parent and operation id. A traced run
//! records the spans of every odd-numbered operation and leaves the even
//! ones untraced, so the two halves of one run give the tracing
//! overhead. An untraced run records nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Handle of a recorded span; `NONE` when tracing is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    pub const NONE: SpanId = SpanId(None);
}

/// One completed (or still open) span. Times are seconds since the
/// tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: Option<f64>,
}

impl Span {
    /// Duration in milliseconds (0 while open).
    pub fn ms(&self) -> f64 {
        self.end.map_or(0.0, |e| (e - self.start) * 1e3)
    }
}

/// Operation id for set-up and probe calls: odd, so traced whenever
/// tracing is on, and far above any workload operation.
pub const PROBE_OP: u64 = (1 << 40) + 1;

pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records odd operations when `on`, nothing otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether operation `op` is traced.
    pub fn traces(&self, op: u64) -> bool {
        self.on && op % 2 == 1
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span starting now.
    pub fn begin(&self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        self.begin_at(name, op, parent, Instant::now())
    }

    /// Opens a span that started at `start` (e.g. a request's due time).
    pub fn begin_at(&self, name: &'static str, op: u64, parent: SpanId, start: Instant) -> SpanId {
        if !self.traces(op) {
            return SpanId::NONE;
        }
        let span = Span {
            name,
            op,
            parent: parent.0,
            start: self.secs(start),
            end: None,
        };
        let mut spans = self.spans.lock().unwrap();
        spans.push(span);
        SpanId(Some(spans.len() - 1))
    }

    /// Closes a span now.
    pub fn end(&self, id: SpanId) {
        self.end_at(id, Instant::now());
    }

    pub fn end_at(&self, id: SpanId, end: Instant) {
        if let SpanId(Some(i)) = id {
            let end = self.secs(end);
            self.spans.lock().unwrap()[i].end = Some(end);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, op: u64, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) {
        let id = self.begin_at(name, op, parent, start);
        self.end_at(id, end);
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap().clone()
    }
}

/// Durations (ms) of every closed span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.end.is_some())
        .map(Span::ms)
        .collect()
}

/// Length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

/// Children of each span, clipped to their parent's interval.
fn child_intervals(spans: &[Span]) -> Vec<Vec<(f64, f64)>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for s in spans {
        if let (Some(p), Some(e)) = (s.parent, s.end) {
            if let Some(pe) = spans[p].end {
                let (ps, lo, hi) = (spans[p].start, s.start.max(spans[p].start), e.min(pe));
                if hi > lo && lo >= ps {
                    kids[p].push((lo, hi));
                }
            }
        }
    }
    kids
}

/// Self time per span name (ms, summed): each span's duration minus the
/// part of it its children cover.
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let kids = child_intervals(spans);
    let mut out = BTreeMap::new();
    for (s, k) in spans.iter().zip(kids) {
        if s.end.is_some() {
            *out.entry(s.name).or_insert(0.0) += s.ms() - union_len(k) * 1e3;
        }
    }
    out
}

/// For every root span called `root`, the share of its interval its
/// direct children cover.
pub fn child_coverage(spans: &[Span], root: &str) -> Vec<f64> {
    let kids = child_intervals(spans);
    spans
        .iter()
        .zip(kids)
        .filter(|(s, _)| s.name == root && s.parent.is_none() && s.ms() > 0.0)
        .map(|(s, k)| union_len(k) * 1e3 / s.ms())
        .collect()
}

/// Chrome trace-event JSON ("X" complete events, one track per
/// operation), readable by chrome://tracing and Perfetto.
pub fn chrome_json(spans: &[Span], meta: Json) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.end.is_some())
        .map(|(i, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start * 1e6)),
                ("dur", Json::Num(s.ms() * 1e3)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(s.op as i64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Int(i as i64)),
                        ("op", Json::Int(s.op as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events)), ("metadata", meta)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end: Some(end),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_them() {
        let spans = vec![
            span("op", None, 0.0, 1.0),
            span("a", Some(0), 0.0, 0.5),
            span("b", Some(0), 0.4, 0.9),
        ];
        let st = self_time_ms(&spans);
        assert!((st["op"] - 100.0).abs() < 1e-9);
        assert!((st["a"] - 500.0).abs() < 1e-9);
        let cov = child_coverage(&spans, "op");
        assert_eq!(cov.len(), 1);
        assert!((cov[0] - 0.9).abs() < 1e-9);
    }

    #[test]
    fn only_odd_operations_of_a_traced_run_are_recorded() {
        let off = Tracer::new(false);
        let id = off.begin("x", 1, SpanId::NONE);
        assert_eq!(id, SpanId::NONE);
        off.end(id);
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        on.span("even", 2, SpanId::NONE, || ());
        on.span("odd", 3, SpanId::NONE, || ());
        on.span("probe", PROBE_OP, SpanId::NONE, || ());
        let names: Vec<_> = on.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["odd", "probe"]);
    }
}
