//! Structured run tracing: one JSON object per line (JSONL).
//!
//! A [`Tracer`] records *events* — a name plus typed fields — with a
//! microsecond timestamp relative to tracer creation. The algorithm
//! core emits one event per phase of every pass (`phase` events with
//! `pass`, `phase`, `dur_us`) plus per-pass summaries, which is exactly
//! the data behind the paper's Figure 7 runtime split; see
//! `EXPERIMENTS.md` for how to reproduce that split from a trace file.
//!
//! The format is deliberately boring: every line is a flat JSON object
//! with an `event` string and a `ts_us` integer, so `grep` + any JSON
//! parser (including [`crate::json`]) can consume it. Strings go
//! through [`json::write_string`]; numbers keep their own formatting
//! here, because a [`Value::U64`] must print exactly even past 2^53,
//! where the `f64`-backed [`crate::json::Json`] would round.

use crate::json;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The environment variable checked by [`Tracer::from_env`]: when set
/// to a non-empty path, a tracer writing to that path is created.
pub const TRACE_ENV_VAR: &str = "GVE_TRACE";

/// A typed field value in a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (non-finite values are emitted as `null`).
    F64(f64),
    /// String (JSON-escaped on write).
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) if x.is_finite() => out.push_str(&format!("{x}")),
        Value::F64(_) => out.push_str("null"),
        Value::Str(s) => json::write_string(s, out),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// A thread-safe JSONL event writer with a monotonic clock.
///
/// Dropping the tracer flushes the underlying writer; I/O errors after
/// construction are swallowed (tracing must never take down a run).
pub struct Tracer {
    start: Instant,
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Tracer {
    /// Creates a tracer writing to (truncating) the file at `path`.
    pub fn to_path(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::to_writer(Box::new(file)))
    }

    /// Creates a tracer writing to an arbitrary sink (used by tests and
    /// in-memory consumers).
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Self {
        Self {
            start: Instant::now(),
            out: Mutex::new(BufWriter::new(writer)),
        }
    }

    /// Creates a tracer from the `GVE_TRACE` environment variable:
    /// `Some` if the variable names a writable path, `None` if unset or
    /// empty. A set-but-unwritable path is reported on stderr and
    /// treated as unset.
    pub fn from_env() -> Option<Self> {
        let path = std::env::var(TRACE_ENV_VAR).ok()?;
        if path.is_empty() {
            return None;
        }
        match Self::to_path(&path) {
            Ok(tracer) => Some(tracer),
            Err(e) => {
                eprintln!("gve-obs: cannot open {TRACE_ENV_VAR}={path}: {e}");
                None
            }
        }
    }

    /// Microseconds since the tracer was created.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Records one event: a line `{"event":name,"ts_us":...,fields...}`.
    ///
    /// Field names must be plain identifiers (they are not escaped);
    /// values are escaped. Duplicate field names and the reserved names
    /// `event`/`ts_us` are the caller's responsibility to avoid.
    pub fn event(&self, name: &str, fields: &[(&str, Value)]) {
        let ts = self.elapsed_us();
        let mut line = String::with_capacity(64 + fields.len() * 24);
        line.push_str("{\"event\":");
        json::write_string(name, &mut line);
        line.push_str(&format!(",\"ts_us\":{ts}"));
        for (key, value) in fields {
            line.push(',');
            line.push('"');
            line.push_str(key);
            line.push_str("\":");
            write_value(&mut line, value);
        }
        line.push_str("}\n");
        if let Ok(mut out) = self.out.lock() {
            let _ = out.write_all(line.as_bytes());
        }
    }

    /// Flushes buffered events to the sink.
    pub fn flush(&self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` sink tests can read back after the tracer flushed.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn events_are_one_json_object_per_line() {
        let buf = SharedBuf::default();
        let tracer = Tracer::to_writer(Box::new(buf.clone()));
        tracer.event("run_start", &[("vertices", Value::U64(10))]);
        tracer.event(
            "phase",
            &[
                ("pass", Value::U64(0)),
                ("phase", Value::from("local_move")),
                ("dur_us", Value::U64(1234)),
                ("gain", Value::F64(0.5)),
                ("moved", Value::Bool(true)),
            ],
        );
        tracer.flush();
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\":\"run_start\",\"ts_us\":"));
        assert!(lines[0].ends_with(",\"vertices\":10}"));
        assert!(lines[1].contains("\"phase\":\"local_move\""));
        assert!(lines[1].contains("\"gain\":0.5"));
        assert!(lines[1].contains("\"moved\":true"));
    }

    #[test]
    fn strings_are_escaped_and_nonfinite_floats_are_null() {
        let buf = SharedBuf::default();
        let tracer = Tracer::to_writer(Box::new(buf.clone()));
        tracer.event(
            "weird",
            &[
                ("s", Value::from("a\"b\\c\nd\u{1}")),
                ("nan", Value::F64(f64::NAN)),
                ("inf", Value::F64(f64::INFINITY)),
                ("neg", Value::I64(-3)),
            ],
        );
        tracer.flush();
        let text = buf.contents();
        assert!(text.contains("\"s\":\"a\\\"b\\\\c\\nd\\u0001\""));
        assert!(text.contains("\"nan\":null"));
        assert!(text.contains("\"inf\":null"));
        assert!(text.contains("\"neg\":-3"));
    }

    #[test]
    fn drop_flushes() {
        let buf = SharedBuf::default();
        {
            let tracer = Tracer::to_writer(Box::new(buf.clone()));
            tracer.event("end", &[]);
        }
        assert!(buf.contents().contains("\"event\":\"end\""));
    }

    #[test]
    fn tracer_is_share_safe() {
        let buf = SharedBuf::default();
        let tracer = Arc::new(Tracer::to_writer(Box::new(buf.clone())));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let tracer = Arc::clone(&tracer);
                scope.spawn(move || {
                    for i in 0..50 {
                        tracer.event("tick", &[("t", Value::U64(t)), ("i", Value::U64(i))]);
                    }
                });
            }
        });
        tracer.flush();
        assert_eq!(buf.contents().lines().count(), 200);
    }
}
