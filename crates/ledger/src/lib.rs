//! `gve-ledger`: one benchmark for static detect, served reads and
//! durable churn, with a per-layer breakdown.
//!
//! Each workload runs in one process from a seed: it builds its inputs,
//! measures for a fixed time, checks the program's outputs, and returns
//! the end-to-end metrics of [`catalog`] (untraced run) or the
//! per-layer metrics (traced run, [`trace`]). See `README.md` beside
//! this crate for the metric catalog and how to compare two commits.

#![warn(missing_docs)]

pub mod catalog;
pub mod check;
pub mod churn;
pub mod detect;
pub mod load;
pub mod phases;
pub mod provenance;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use trace::Tracer;

/// Metric values by name, in the order they were first set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets (or replaces) a value.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Names in order.
    pub fn names(&self) -> Vec<&str> {
        self.0.iter().map(|(n, _)| n.as_str()).collect()
    }
}

/// What one run measured and found.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// End-to-end metrics.
    pub end_to_end: Metrics,
    /// Per-layer metrics; layers the workload never calls are absent
    /// and print as 0.
    pub per_layer: Metrics,
    /// Operations attempted (runs, requests, batches, boots).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Every failed check, and any measurement the run could not make.
    pub problems: Vec<String>,
    /// Human-readable lines for the summary.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one failed operation.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        self.problem(problem);
    }

    /// Records a problem that is not an operation's failure.
    pub fn problem(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Adds a summary line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Directory for the durable workload's data (created and removed
    /// by the run).
    pub work_dir: PathBuf,
}

/// A workload's full specification.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// Static detect.
    Detect(detect::DetectSpec),
    /// Reads against a warmed server.
    Read(serve::ReadSpec),
    /// Updates against a durable server.
    Churn(churn::ChurnSpec),
}

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["detect_web", "detect_road", "serve_read", "serve_churn"];

/// The committed specification of a workload. Each modularity floor
/// sits 0.005 to 0.01 below the lowest modularity the workload reached
/// over the seeds measured in `README.md`.
pub fn spec(workload: &str) -> Option<Spec> {
    let detect = |graph, modularity_floor| {
        Spec::Detect(detect::DetectSpec {
            graph,
            modularity_floor,
            setup_reps: 3,
        })
    };
    Some(match workload {
        "detect_web" => detect(
            detect::GraphSpec::RmatWeb {
                scale: 17,
                edge_factor: 8.0,
            },
            0.096,
        ),
        "detect_road" => detect(
            detect::GraphSpec::Suite {
                name: "road-europe",
                scale: 4.0,
            },
            0.986,
        ),
        "serve_read" => Spec::Read(serve::ReadSpec::default()),
        "serve_churn" => Spec::Churn(churn::ChurnSpec::default()),
        _ => return None,
    })
}

/// The spec and the constants its kind of workload runs with, for the
/// provenance record.
pub fn describe(spec: &Spec) -> String {
    match spec {
        Spec::Detect(s) => format!(
            "{s:?} threads={} single_every={} planned_runs={} check_every={}",
            detect::THREADS,
            detect::SINGLE_EVERY,
            detect::PLANNED_RUNS,
            detect::CHECK_EVERY
        ),
        Spec::Read(s) => format!(
            "{s:?} connections={} closed_share={}",
            serve::CONNECTIONS,
            serve::CLOSED_SHARE
        ),
        Spec::Churn(s) => format!(
            "{s:?} window_seconds={} read_rate={}",
            churn::WINDOW_SECONDS,
            churn::READ_RATE
        ),
    }
}

/// Runs a workload, recording spans into `tracer` when it is enabled.
pub fn run(spec: &Spec, opts: &RunOptions, tracer: &Tracer) -> Report {
    match spec {
        Spec::Detect(spec) => detect::run(spec, opts, tracer),
        Spec::Read(spec) => serve::run(spec, opts, tracer),
        Spec::Churn(spec) => churn::run(spec, opts, tracer),
    }
}
