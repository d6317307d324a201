//! In-memory span recorder for the traced run.
//!
//! Spans wrap the calls the benchmark makes into a layer's public
//! function: a name, start and end, the span that caused it, and the
//! request (or run) it belongs to. Nothing is recorded inside the
//! program under test. Spans stay in memory and are written as JSON
//! lines once the run ends, so the run pays no I/O while measuring.
//! With tracing off, [`Tracer::span`] only calls its closure.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Request or run the span belongs to.
    pub request: u64,
    /// Layer and call, e.g. `handlers.handle`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// True for intervals laid out from a result's own timings (the
    /// Leiden phase split) rather than timed around a call.
    pub derived: bool,
}

/// Span sink shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `on`, and only runs closures otherwise.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn next_id(&self) -> u32 {
        // Relaxed: the counter only hands out unique ids; spans are
        // published through the mutex.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`, handing it the span's id so
    /// calls it makes can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(Option<u32>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.next_id();
        let start = Instant::now();
        let result = f(Some(id));
        let end = Instant::now();
        self.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            derived: false,
        });
        result
    }

    /// Records an interval the caller timed itself (or laid out from a
    /// result, when `derived`). Returns its id, `None` when off.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: Instant,
        end: Instant,
        derived: bool,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.next_id();
        self.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            derived,
        });
        Some(id)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span sink poisoned").len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every span as one JSON object per line after `header`
    /// (itself one JSON line, e.g. the provenance record).
    pub fn write_jsonl(&self, out: &mut impl Write, header: &str) -> std::io::Result<()> {
        writeln!(out, "{header}")?;
        for s in self.spans.lock().expect("span sink poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns, s.derived
            )?;
        }
        Ok(())
    }
}

/// Measured cost of recording one span around an empty call.
pub fn span_cost() -> Duration {
    const SPANS: u32 = 20_000;
    let tracer = Tracer::new(true);
    let started = Instant::now();
    for i in 0..SPANS {
        tracer.span("trace.calibrate", None, u64::from(i), |_| ());
    }
    started.elapsed() / SPANS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render_as_json_lines() {
        let tracer = Tracer::new(true);
        tracer.span("outer", None, 7, |outer| {
            tracer.span("inner", outer, 7, |_| ());
        });
        assert_eq!(tracer.len(), 2);
        let spans = tracer.spans.lock().unwrap().clone();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let mut out = Vec::new();
        tracer.write_jsonl(&mut out, "{\"header\":true}").unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            gve_serve::json::parse(line).expect("each line is JSON");
        }
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let value = tracer.span("x", None, 0, |id| {
            assert_eq!(id, None);
            5
        });
        assert_eq!(value, 5);
        assert!(tracer.is_empty());
        let now = Instant::now();
        assert_eq!(tracer.record("y", None, 0, now, now, false), None);
    }
}
