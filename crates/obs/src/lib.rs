//! `gve-obs`: a zero-dependency observability substrate.
//!
//! The paper's whole evaluation is built on per-phase/per-pass
//! measurement (Figure 7 runtime splits, Figure 9 strong scaling);
//! diagnosing a parallel community-detection deployment needs the same
//! numbers *at runtime* — pruning hit-rates, aggregation shrink ratios,
//! threshold-scaling schedules, request latencies. This crate provides
//! the plumbing, nothing domain-specific:
//!
//! * [`metrics`] — atomic [`Counter`]/[`FloatCounter`]/[`Gauge`] and
//!   fixed-bucket [`Histogram`] handles, collected by a global-free
//!   [`MetricsRegistry`] that renders Prometheus text exposition
//!   format. Handles are the source of truth (plain `Arc`-backed
//!   atomics, usable from any thread with no registry in sight); the
//!   registry only holds clones for rendering.
//! * [`trace`] — a structured run [`Tracer`] writing JSONL span events
//!   (phase/pass labels, microsecond timestamps and durations), gated
//!   by the `GVE_TRACE` environment variable or an explicit path.
//! * [`json`] — the workspace's one JSON value type, parser and string
//!   escaper. It lives here, the lowest crate that the serving tier,
//!   the reactor and the audit all depend on; the tracer writes its
//!   strings through it too.
//!
//! No third-party dependencies, no global state, no `unsafe`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::Json;
pub use metrics::{
    Counter, FloatCounter, Gauge, Histogram, MetricsRegistry, DEFAULT_LATENCY_BUCKETS,
};
pub use trace::{Tracer, Value};
