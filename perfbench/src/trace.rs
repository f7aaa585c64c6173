//! In-memory spans recorded from outside the program, around each call the
//! benchmark makes into a layer's public functions.
//!
//! A span has a name (the layer), a start, an end, the index of the span
//! that caused it, and a trace id (the job). Spans of one trace are recorded
//! on one thread, so child intervals never overlap and a span's self time is
//! exactly its duration minus its children's durations.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub trace_id: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

/// Records the spans of one trace.
#[derive(Debug)]
pub struct Tracer {
    trace_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(trace_id: u64) -> Self {
        Tracer { trace_id, spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span under the innermost open span and returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start: now, end: now, parent, trace_id: self.trace_id });
        self.open.push(index);
        index
    }

    /// Closes span `index`, which must be the innermost open one.
    pub fn exit(&mut self, index: usize) {
        self.spans[index].end = Instant::now();
        assert_eq!(self.open.pop(), Some(index), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = self.enter(name);
        let result = f();
        self.exit(index);
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "trace {} ended with open spans", self.trace_id);
        self.spans
    }
}

/// Calls and self time of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_nanos: u64,
}

/// Adds the per-name calls and self times of one trace's `spans` to
/// `totals`, and returns the trace's summed self time.
pub fn accumulate(spans: &[Span], totals: &mut BTreeMap<&'static str, LayerTotals>) -> u64 {
    assert!(spans.iter().all(|s| s.trace_id == spans[0].trace_id), "spans of several traces");
    let mut child_nanos = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_nanos[parent] += span.nanos();
        }
    }
    let mut sum = 0;
    for (span, children) in spans.iter().zip(child_nanos) {
        let self_nanos = span.nanos().saturating_sub(children);
        let entry = totals.entry(span.name).or_default();
        entry.calls += 1;
        entry.self_nanos += self_nanos;
        sum += self_nanos;
    }
    sum
}
