//! Observability hooks for the algorithm core.
//!
//! Two consumers, one data source ([`crate::LeidenResult`]):
//!
//! * [`CoreMetrics`] — a bundle of `gve-obs` handles mirroring the
//!   paper's evaluation axes (per-phase wall time for the Figure 7
//!   split, local-move iterations, pruning hit/skip tallies,
//!   refinement moves, aggregation shrink ratio, tolerance-skip
//!   decisions). Attach it to a [`MetricsRegistry`] once and call
//!   [`CoreMetrics::record`] after every run; gve-serve does exactly
//!   this and exposes the result on `GET /metrics`.
//! * a [`Tracer`] — [`trace_run`] replays the recorded per-pass
//!   statistics as JSONL span events (`run_start`, `iteration`,
//!   `phase`, `pass`, `run_end`), so `gve detect --trace`
//!   leaves a file from which the Figure 7 runtime split can be
//!   reproduced offline (see EXPERIMENTS.md).
//!
//! Everything here runs *after* the algorithm finishes: the hot loops
//! stay untouched, and observation can never perturb the measurement
//! it reports.

use crate::{LeidenResult, StopReason};
use gve_obs::{Counter, FloatCounter, Gauge, MetricsRegistry, Tracer, Value};

/// Metric handles covering one Leiden (or Louvain-style) run. All
/// handles are cheap `Arc` clones; the default value is a free-standing
/// bundle that can be attached to a registry with
/// [`CoreMetrics::attach_to`] at any point.
#[derive(Debug, Clone, Default)]
pub struct CoreMetrics {
    /// Completed runs.
    pub runs: Counter,
    /// Passes across all runs (`Σ l_p`).
    pub passes: Counter,
    /// Local-moving iterations across all runs (`Σ l_i`).
    pub move_iterations: Counter,
    /// Vertices processed by the pruning bitset.
    pub pruning_processed: Counter,
    /// Vertices the pruning flags skipped (avoided work).
    pub pruning_skipped: Counter,
    /// Vertices moved by the refinement phase (`Σ l_j`).
    pub refine_moves: Counter,
    /// Runs that stopped because the aggregation tolerance said another
    /// pass would not pay off.
    pub tolerance_skips: Counter,
    /// Shrink ratio `|Γ| / |V'|` of the most recent run's first pass —
    /// the paper's headline aggregation figure (how hard the first,
    /// dominant pass compresses the graph).
    pub aggregation_shrink_ratio: Gauge,
    /// Seconds in the local-moving phase.
    pub local_move_seconds: FloatCounter,
    /// Seconds in the refinement phase.
    pub refinement_seconds: FloatCounter,
    /// Seconds in the aggregation phase.
    pub aggregation_seconds: FloatCounter,
    /// Seconds in everything else (init, renumbering, resets).
    pub other_seconds: FloatCounter,
    /// Chunks claimed by the local-moving and refinement loops.
    pub chunks: Counter,
}

impl CoreMetrics {
    /// Creates an unattached bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers every handle under its canonical `gve_leiden_*` name.
    pub fn attach_to(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "gve_leiden_runs_total",
            "Completed community-detection runs.",
            &[],
            &self.runs,
        );
        registry.register_counter(
            "gve_leiden_passes_total",
            "Algorithm passes across all runs.",
            &[],
            &self.passes,
        );
        registry.register_counter(
            "gve_leiden_move_iterations_total",
            "Local-moving iterations across all runs.",
            &[],
            &self.move_iterations,
        );
        registry.register_counter(
            "gve_leiden_pruning_processed_total",
            "Vertices claimed and processed via the pruning bitset.",
            &[],
            &self.pruning_processed,
        );
        registry.register_counter(
            "gve_leiden_pruning_skipped_total",
            "Vertices skipped by the pruning flags (avoided work).",
            &[],
            &self.pruning_skipped,
        );
        registry.register_counter(
            "gve_leiden_refine_moves_total",
            "Vertices moved by the refinement phase.",
            &[],
            &self.refine_moves,
        );
        registry.register_counter(
            "gve_leiden_tolerance_skips_total",
            "Runs stopped early by the aggregation tolerance.",
            &[],
            &self.tolerance_skips,
        );
        registry.register_gauge(
            "gve_leiden_aggregation_shrink_ratio",
            "First-pass communities/vertices ratio of the latest run.",
            &[],
            &self.aggregation_shrink_ratio,
        );
        for (phase, handle) in [
            ("local_move", &self.local_move_seconds),
            ("refinement", &self.refinement_seconds),
            ("aggregation", &self.aggregation_seconds),
            ("other", &self.other_seconds),
        ] {
            registry.register_float_counter(
                "gve_leiden_phase_seconds_total",
                "Wall-clock seconds per algorithm phase.",
                &[("phase", phase)],
                handle,
            );
        }
        registry.register_counter(
            "gve_core_chunks_total",
            "Chunks claimed by the local-moving and refinement phases.",
            &[],
            &self.chunks,
        );
    }

    /// Folds one finished run into the handles.
    pub fn record(&self, result: &LeidenResult) {
        self.runs.inc();
        self.passes.add(result.passes as u64);
        self.move_iterations.add(result.move_iterations as u64);
        for stats in &result.pass_stats {
            self.pruning_processed.add(stats.pruning_processed);
            self.pruning_skipped.add(stats.pruning_skipped);
            self.refine_moves.add(stats.refine_moves);
            self.chunks.add(stats.sched_chunks);
        }
        if result.stop == StopReason::AggregationTolerance {
            self.tolerance_skips.inc();
        }
        if let Some(first) = result.pass_stats.first() {
            self.aggregation_shrink_ratio.set(first.shrink_ratio());
        }
        self.local_move_seconds
            .add_duration(result.timings.local_move);
        self.refinement_seconds
            .add_duration(result.timings.refinement);
        self.aggregation_seconds
            .add_duration(result.timings.aggregation);
        self.other_seconds.add_duration(result.timings.other);
    }
}

const US_PER_SEC: f64 = 1e6;

/// Replays a finished run as JSONL span events: `run_start`, then per
/// pass an `iteration` event per local-moving iteration, a `phase`
/// event for each of local_move / refinement / aggregation, and a
/// `pass` summary; finally `run_end`.
pub fn trace_run(tracer: &Tracer, result: &LeidenResult) {
    let vertices = result.membership.len();
    tracer.event(
        "run_start",
        &[
            ("vertices", Value::from(vertices)),
            ("passes", Value::from(result.passes)),
        ],
    );
    for stats in &result.pass_stats {
        for (i, &gain) in stats.iteration_gains.iter().enumerate() {
            tracer.event(
                "iteration",
                &[
                    ("pass", Value::from(stats.pass)),
                    ("iteration", Value::from(i)),
                    ("gain", Value::F64(gain)),
                ],
            );
        }
        for (phase, duration) in [
            ("local_move", stats.local_move_time),
            ("refinement", stats.refinement_time),
            ("aggregation", stats.aggregation_time),
        ] {
            tracer.event(
                "phase",
                &[
                    ("pass", Value::from(stats.pass)),
                    ("phase", Value::from(phase)),
                    (
                        "dur_us",
                        Value::U64((duration.as_secs_f64() * US_PER_SEC) as u64),
                    ),
                ],
            );
        }
        tracer.event(
            "pass",
            &[
                ("pass", Value::from(stats.pass)),
                ("vertices", Value::from(stats.vertices)),
                ("arcs", Value::from(stats.arcs)),
                ("move_iterations", Value::from(stats.move_iterations)),
                ("refine_moves", Value::from(stats.refine_moves)),
                ("communities", Value::from(stats.communities)),
                ("shrink_ratio", Value::F64(stats.shrink_ratio())),
                ("pruning_processed", Value::from(stats.pruning_processed)),
                ("pruning_skipped", Value::from(stats.pruning_skipped)),
                ("tolerance", Value::F64(stats.tolerance)),
                ("sched_chunks", Value::from(stats.sched_chunks)),
                (
                    "dur_us",
                    Value::U64((stats.duration.as_secs_f64() * US_PER_SEC) as u64),
                ),
            ],
        );
    }
    tracer.event(
        "run_end",
        &[
            ("passes", Value::from(result.passes)),
            ("communities", Value::from(result.num_communities)),
            ("move_iterations", Value::from(result.move_iterations)),
            ("stop", Value::from(result.stop.label())),
            (
                "dur_us",
                Value::U64((result.timings.total().as_secs_f64() * US_PER_SEC) as u64),
            ),
        ],
    );
    tracer.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Leiden, LeidenConfig};
    use gve_graph::CsrGraph;
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    fn sample_graph() -> CsrGraph {
        gve_generate::sbm::PlantedPartition::new(600, 6, 12.0, 1.0)
            .seed(21)
            .generate()
            .graph
    }

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn record_fills_metrics() {
        let graph = sample_graph();
        let metrics = CoreMetrics::new();
        let result = Leiden::default().run(&graph);
        metrics.record(&result);

        assert_eq!(metrics.runs.get(), 1);
        assert_eq!(metrics.passes.get(), result.passes as u64);
        assert_eq!(metrics.move_iterations.get(), result.move_iterations as u64);
        assert!(metrics.pruning_processed.get() >= graph.num_vertices() as u64);
        assert!(metrics.local_move_seconds.get() > 0.0);
        let ratio = metrics.aggregation_shrink_ratio.get();
        assert!(ratio > 0.0 && ratio <= 1.0, "shrink ratio {ratio}");

        // Second run accumulates.
        metrics.record(&Leiden::default().run(&graph));
        assert_eq!(metrics.runs.get(), 2);
    }

    #[test]
    fn attach_to_renders_all_core_names() {
        let registry = MetricsRegistry::new();
        let metrics = CoreMetrics::new();
        metrics.attach_to(&registry);
        let result = Leiden::default().run(&sample_graph());
        metrics.record(&result);
        let text = registry.render();
        for name in [
            "gve_leiden_runs_total",
            "gve_leiden_passes_total",
            "gve_leiden_move_iterations_total",
            "gve_leiden_pruning_processed_total",
            "gve_leiden_pruning_skipped_total",
            "gve_leiden_refine_moves_total",
            "gve_leiden_tolerance_skips_total",
            "gve_leiden_aggregation_shrink_ratio",
            "gve_leiden_phase_seconds_total",
            "gve_core_chunks_total",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("gve_leiden_phase_seconds_total{phase=\"local_move\"}"));
        assert!(text.contains("gve_leiden_phase_seconds_total{phase=\"aggregation\"}"));
        // One unlabelled chunk counter carrying the run's claims; no
        // policy label and no steal counter beside it.
        let chunks: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("gve_core_chunks_total "))
            .unwrap_or_else(|| panic!("no unlabelled gve_core_chunks_total in:\n{text}"))
            .trim()
            .parse()
            .unwrap();
        assert!(chunks > 0);
        let expected: u64 = result.pass_stats.iter().map(|p| p.sched_chunks).sum();
        assert_eq!(chunks, expected);
        assert!(!text.contains("policy="), "{text}");
        assert!(!text.contains("gve_core_steals_total"), "{text}");
    }

    #[test]
    fn trace_covers_every_phase_of_every_pass() {
        let buf = SharedBuf::default();
        let tracer = Tracer::to_writer(Box::new(buf.clone()));
        let result = Leiden::new(LeidenConfig::default()).run(&sample_graph());
        trace_run(&tracer, &result);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();

        assert!(text.lines().count() >= 2 + 4 * result.passes);
        assert!(text.contains("\"event\":\"run_start\""));
        assert!(text.contains("\"event\":\"run_end\""));
        for pass in 0..result.passes {
            for phase in ["local_move", "refinement", "aggregation"] {
                let span = text.lines().any(|l| {
                    l.contains("\"event\":\"phase\"")
                        && l.contains(&format!("\"pass\":{pass},"))
                        && l.contains(&format!("\"phase\":\"{phase}\""))
                });
                assert!(
                    span,
                    "missing phase span pass={pass} phase={phase}:\n{text}"
                );
            }
            assert!(
                text.lines().any(|l| l.contains("\"event\":\"pass\"")
                    && l.contains(&format!("\"pass\":{pass},"))),
                "missing pass summary for pass {pass}"
            );
        }
        // Per-iteration gains are present.
        assert!(text.contains("\"event\":\"iteration\""));
        assert!(text.contains("\"gain\":"));
        assert!(text.contains(&format!("\"stop\":\"{}\"", result.stop.label())));
        // Per-pass chunk counts are traced; the retired policy label and
        // steal counter are not.
        assert!(text.contains("\"sched_chunks\":"));
        assert!(!text.contains("\"chunking\""));
        assert!(!text.contains("\"sched_steals\""));
    }
}
