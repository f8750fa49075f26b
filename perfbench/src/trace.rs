//! In-memory span tracing around the calls the benchmark makes into
//! each layer.
//!
//! A span has a name, a start and end (ns since the tracer's origin),
//! the span that caused it and a request id (the query's index in the
//! stream). Spans stay in memory until the run ends; then
//! [`Tracer::write_jsonl`] writes them out and [`self_times`] folds them
//! into per-layer self time. A disabled tracer records nothing and
//! never reads the clock, so untraced passes pay one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Identifier of a recorded span (its index in the tracer).
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `engine.optimize`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The query (by index in the stream) the span serves.
    pub request: u64,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `enter` returned; it must be the innermost open one.
    pub fn exit(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Rename a span after the fact (the executor's span is named for
    /// its plan class, known only once the plan is in hand).
    pub fn rename(&mut self, id: Option<SpanId>, name: &'static str) {
        if let Some(id) = id {
            self.spans[id].name = name;
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Self time per span name, in ns: each span's duration minus the part
/// its direct children cover. `spans` is a closed run of a tracer's
/// spans (no child without its parent) whose first span has id
/// `first_id`, such as one pass's spans.
pub fn self_times(spans: &[Span], first_id: SpanId) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(first_id)) {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            span("pass", 0, 100, None),
            span("query", 10, 60, Some(0)),
            span("exec", 20, 50, Some(1)),
            span("query", 60, 90, Some(0)),
        ];
        let st = self_times(&spans, 0);
        assert_eq!(st["pass"], 100 - 50 - 30);
        assert_eq!(st["query"], (50 - 30) + 30);
        assert_eq!(st["exec"], 30);
        assert_eq!(st.values().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", 0);
        t.exit(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_follows_open_spans() {
        let mut t = Tracer::new(true);
        let a = t.enter("a", 0);
        let b = t.enter("b", 0);
        t.exit(b);
        t.exit(a);
        assert_eq!(t.spans()[1].parent, a);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0"));
    }
}
