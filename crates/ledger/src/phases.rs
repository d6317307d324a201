//! The Leiden layer's per-phase split, read from the `PhaseTimings` and
//! `PassStats` every run already returns (the paper's Fig. 7 and 8 axes).

use crate::stats::median;
use crate::trace::Tracer;
use crate::Metrics;
use gve_graph::CsrGraph;
use gve_leiden::{Leiden, LeidenResult, PassWorkspace};
use gve_prim::alloc_count;
use std::time::{Duration, Instant};

/// Phase names in `PhaseTimings` order.
const PHASES: [&str; 4] = ["local_move", "refine", "aggregate", "other"];

/// A pool of `threads` workers.
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the rayon shim cannot fail to build a pool")
}

/// One timed Leiden call.
#[derive(Debug, Clone)]
struct Run {
    /// Wall time of the timed call, seconds.
    wall: f64,
    /// Arcs of the input graph.
    arcs: f64,
    /// Phase seconds in `PHASES` order.
    phases: [f64; 4],
    first_pass: f64,
    passes: f64,
    move_iterations: f64,
    refine_moves: f64,
    pruning_processed: f64,
    pruning_skipped: f64,
    sched_chunks: f64,
    sched_steals: f64,
    allocs: f64,
    alloc_bytes: f64,
}

/// Every timed Leiden call of a run, split by thread count.
#[derive(Debug, Clone, Default)]
pub struct PhaseLog {
    multi: Vec<Run>,
    single: Vec<Run>,
}

impl PhaseLog {
    /// Records one call: `wall` is the time around the call that
    /// produced `result` on a graph with `arcs` arcs, `allocs` the
    /// allocator calls and bytes it made.
    pub fn push(
        &mut self,
        threads: usize,
        wall: Duration,
        arcs: usize,
        result: &LeidenResult,
        allocs: (u64, u64),
    ) {
        let t = &result.timings;
        let stats = &result.pass_stats;
        let sum = |f: fn(&gve_leiden::PassStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        let run = Run {
            wall: wall.as_secs_f64(),
            arcs: arcs as f64,
            phases: [
                t.local_move.as_secs_f64(),
                t.refinement.as_secs_f64(),
                t.aggregation.as_secs_f64(),
                t.other.as_secs_f64(),
            ],
            first_pass: stats.first().map_or(0.0, |p| p.duration.as_secs_f64()),
            passes: result.passes as f64,
            move_iterations: result.move_iterations as f64,
            refine_moves: sum(|p| p.refine_moves),
            pruning_processed: sum(|p| p.pruning_processed),
            pruning_skipped: sum(|p| p.pruning_skipped),
            sched_chunks: sum(|p| p.sched_chunks),
            sched_steals: sum(|p| p.sched_steals),
            allocs: allocs.0 as f64,
            alloc_bytes: allocs.1 as f64,
        };
        match threads {
            1 => self.single.push(run),
            _ => self.multi.push(run),
        }
    }

    /// Times one `run_in` on `pool` inside a span, with the pass split
    /// laid out beneath it, and logs it. Returns the result and the wall
    /// time of the call.
    pub fn run(
        &mut self,
        leiden: &Leiden,
        graph: &CsrGraph,
        workspace: &mut PassWorkspace,
        pool: &rayon::ThreadPool,
        tracer: &Tracer,
        request: u64,
    ) -> (LeidenResult, Duration) {
        let name = match pool.current_num_threads() {
            1 => "leiden.run_in_1t",
            _ => "leiden.run_in",
        };
        let before = alloc_count::snapshot();
        let started = Instant::now();
        let result = tracer.span(name, None, request, |id| {
            let result = pool.install(|| leiden.run_in(graph, workspace));
            trace_passes(tracer, id, request, started, &result);
            result
        });
        let wall = started.elapsed();
        let after = alloc_count::snapshot();
        self.push(
            pool.current_num_threads(),
            wall,
            graph.num_arcs(),
            &result,
            (after.allocs_since(&before), after.bytes_since(&before)),
        );
        (result, wall)
    }

    /// Fills the `leiden.*` per-layer metrics. The multi-thread runs give
    /// the split; the single-thread runs only the speedups.
    pub fn fill(&self, layers: &mut Metrics) {
        let runs = &self.multi;
        if runs.is_empty() {
            return;
        }
        let med =
            |f: &dyn Fn(&Run) -> f64, runs: &[Run]| median(&runs.iter().map(f).collect::<Vec<_>>());
        for (i, phase) in PHASES.iter().enumerate() {
            layers.set(
                &format!("leiden.{phase}_ns_per_arc"),
                med(&|r| r.phases[i] * 1e9 / r.arcs, runs),
            );
            if !self.single.is_empty() {
                let speedup = med(&|r| r.phases[i], &self.single) / med(&|r| r.phases[i], runs);
                layers.set(&format!("leiden.{phase}_speedup_2t"), speedup);
            }
        }
        if !self.single.is_empty() {
            layers.set(
                "leiden.speedup_2t",
                med(&|r| r.wall, &self.single) / med(&|r| r.wall, runs),
            );
        }
        let cover = runs
            .iter()
            .chain(&self.single)
            .map(|r| r.phases.iter().sum::<f64>() / r.wall)
            .fold(f64::INFINITY, f64::min);
        layers.set("leiden.phase_cover", cover);
        layers.set(
            "leiden.first_pass_share",
            med(&|r| r.first_pass / r.phases.iter().sum::<f64>(), runs),
        );
        layers.set("leiden.passes", med(&|r| r.passes, runs));
        layers.set("leiden.move_iterations", med(&|r| r.move_iterations, runs));
        layers.set("leiden.refine_moves", med(&|r| r.refine_moves, runs));
        layers.set(
            "leiden.pruning_skip_ratio",
            med(
                &|r| r.pruning_skipped / (r.pruning_processed + r.pruning_skipped).max(1.0),
                runs,
            ),
        );
        layers.set("leiden.sched_chunks", med(&|r| r.sched_chunks, runs));
        layers.set("leiden.sched_steals", med(&|r| r.sched_steals, runs));
        layers.set("leiden.allocs_per_run", med(&|r| r.allocs, runs));
        layers.set("leiden.alloc_bytes_per_run", med(&|r| r.alloc_bytes, runs));
    }
}

/// Lays a run's phase split out as derived child spans of `parent`:
/// each pass's local-move, refine and aggregate back to back from the
/// pass start, the rest of the pass being "other". The passes' own
/// timings are exact; only the order inside a pass is reconstructed.
fn trace_passes(
    tracer: &Tracer,
    parent: Option<u32>,
    request: u64,
    start: Instant,
    result: &LeidenResult,
) {
    if !tracer.enabled() {
        return;
    }
    let mut pass_start = start;
    for pass in &result.pass_stats {
        let pass_id = tracer.record(
            "leiden.pass",
            parent,
            request,
            pass_start,
            pass_start + pass.duration,
            true,
        );
        let mut phase_start = pass_start;
        for (name, duration) in [
            ("leiden.local_move", pass.local_move_time),
            ("leiden.refine", pass.refinement_time),
            ("leiden.aggregate", pass.aggregation_time),
        ] {
            tracer.record(
                name,
                pass_id,
                request,
                phase_start,
                phase_start + duration,
                true,
            );
            phase_start += duration;
        }
        pass_start += pass.duration;
    }
}
