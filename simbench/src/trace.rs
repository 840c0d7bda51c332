//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the simulator is
//! instrumented. Spans stay in memory and are written out as JSON lines
//! when the run ends. Every span of one run shares the run's trace id.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Counts recorded at the same boundary (events, allocations, …).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans for one run.
#[derive(Debug)]
pub struct Tracer {
    trace_id: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose spans all carry `trace_id`.
    pub fn new(trace_id: String) -> Tracer {
        Tracer {
            trace_id,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, attaching counts measured across it, and
    /// returns its duration in nanoseconds.
    pub fn end(&mut self, id: usize, counts: &[(&'static str, f64)]) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.counts.extend_from_slice(counts);
        span.dur_ns()
    }

    /// Sets span `id`'s interval from instants measured by the caller
    /// and closes it.
    pub fn set_interval(&mut self, id: usize, start_ns: u64, end_ns: u64) {
        let span = &mut self.spans[id];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id, &[]);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans with the given name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Span `id`'s self time: its duration minus the part of its
    /// interval that its child spans cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        span.dur_ns().saturating_sub(children)
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"trace\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
                self.trace_id,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(id)
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new("t".into());
        let root = t.begin("root", None);
        let child = t.begin("child", Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child, &[("n", 3.0)]);
        t.end(root, &[]);
        assert!(t.self_ns(root) < t.spans()[root].dur_ns());
        assert_eq!(t.self_ns(child), t.spans()[child].dur_ns());
        assert_eq!(t.spans()[child].counts, vec![("n", 3.0)]);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"parent\":0"));
    }
}
