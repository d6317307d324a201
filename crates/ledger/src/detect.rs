//! Static detect workloads: repeated `Leiden::run_in` on one resident
//! graph and workspace, at two threads with a one-thread run after every
//! few, so one run yields both the parallel time and its speedup.

use crate::phases::{pool, PhaseLog};
use crate::stats::{latency, median};
use crate::trace::Tracer;
use crate::{check, Metrics, Report, RunOptions};
use gve_graph::CsrGraph;
use gve_leiden::{Leiden, LeidenConfig, PassWorkspace};
use gve_prim::alloc_count;
use std::time::{Duration, Instant};

/// The input graph of a detect workload.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// `Rmat::web(scale, edge_factor)`.
    RmatWeb {
        /// log2 of the vertex count.
        scale: u32,
        /// Edges per vertex before deduplication.
        edge_factor: f64,
    },
    /// A named dataset of `gve_generate::suite()`.
    Suite {
        /// Dataset name, e.g. `road-europe`.
        name: &'static str,
        /// Vertex-count multiplier.
        scale: f64,
    },
}

impl GraphSpec {
    /// Generates the graph for `seed`.
    pub fn generate(&self, seed: u64) -> CsrGraph {
        match *self {
            GraphSpec::RmatWeb { scale, edge_factor } => {
                gve_generate::rmat::Rmat::web(scale, edge_factor)
                    .seed(seed)
                    .generate()
            }
            GraphSpec::Suite { name, scale } => gve_generate::suite::suite()
                .into_iter()
                .find(|d| d.name == name)
                .expect("GraphSpec::Suite names a dataset of the suite")
                .generate(scale, seed),
        }
    }
}

/// Thread count of the timed runs.
pub const THREADS: usize = 2;
/// A one-thread run follows every this many timed runs.
pub const SINGLE_EVERY: usize = 4;
/// Timed runs the measured phase completes at the least; it fixes the
/// tail percentile.
pub const PLANNED_RUNS: usize = 100;
/// Every this many timed runs, and the last, are checked.
pub const CHECK_EVERY: usize = 10;

/// A detect workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectSpec {
    /// Input graph.
    pub graph: GraphSpec,
    /// Lowest modularity a checked run may reach.
    pub modularity_floor: f64,
    /// Set-ups timed for `setup_s`.
    pub setup_reps: usize,
}

/// Runs the workload.
pub fn run(spec: &DetectSpec, opts: &RunOptions, tracer: &Tracer) -> Report {
    let leiden = Leiden::new(LeidenConfig::default());
    let (multi, single) = (pool(THREADS), pool(1));
    let mut report = Report::default();

    // Set-up: generate, then one warm-up run per thread count so the
    // workspace holds every buffer before timing starts.
    let (mut setups, mut generates) = (Vec::new(), Vec::new());
    let mut resident = None;
    for rep in 0..spec.setup_reps {
        drop(resident.take());
        let started = Instant::now();
        let graph = tracer.span("generate", None, rep as u64, |_| {
            spec.graph.generate(opts.seed)
        });
        generates.push(started.elapsed().as_secs_f64());
        let mut workspace = PassWorkspace::new();
        single.install(|| leiden.run_in(&graph, &mut workspace));
        multi.install(|| leiden.run_in(&graph, &mut workspace));
        setups.push(started.elapsed().as_secs_f64());
        resident = Some((graph, workspace));
    }
    let (graph, mut workspace) = resident.expect("at least one set-up");
    report.note(format!(
        "graph: {} vertices, {} arcs",
        graph.num_vertices(),
        graph.num_arcs()
    ));

    alloc_count::reset_watermarks();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut log = PhaseLog::default();
    let (mut times, mut modularity) = (Vec::new(), Vec::new());
    let (mut disconnected, mut unchecked) = (0, None);
    while times.len() < PLANNED_RUNS || Instant::now() < deadline {
        let request = report.attempted;
        let (result, wall) = log.run(&leiden, &graph, &mut workspace, &multi, tracer, request);
        report.attempted += 1;
        times.push(wall.as_secs_f64() * 1e3);
        unchecked = Some(result.membership);
        if times.len() % CHECK_EVERY == 0 {
            let membership = unchecked.take().expect("set just above");
            disconnected += check_run(spec, &graph, &membership, &mut report, &mut modularity);
        }
        if times.len() % SINGLE_EVERY == 0 {
            let request = report.attempted;
            log.run(&leiden, &graph, &mut workspace, &single, tracer, request);
            report.attempted += 1;
        }
    }
    if let Some(membership) = unchecked {
        disconnected += check_run(spec, &graph, &membership, &mut report, &mut modularity);
    }
    let peak = alloc_count::snapshot().peak;

    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&setups));
    e2e.set("peak_heap_mb", peak as f64 / (1 << 20) as f64);
    report.end_to_end = e2e;

    let mut layers = Metrics::default();
    match latency(&times, PLANNED_RUNS) {
        Ok(summary) => {
            layers.set("op_ms_p50", summary.p50);
            layers.set("op_ms_tail", summary.tail);
            report.note(format!(
                "op: {THREADS}-thread detect, {} runs, quartiles {:.3?} ms, p{} {:.3} ms",
                summary.samples, summary.quartiles, summary.tail_percentile, summary.tail
            ));
        }
        Err(e) => report.problem(e),
    }
    let busy_s = times.iter().sum::<f64>() / 1e3;
    let work_per_s = (graph.num_arcs() * times.len()) as f64 / busy_s;
    layers.set("work_per_s", work_per_s);
    layers.set("modularity", median(&modularity));
    report.note(format!(
        "{work_per_s:.4e} arcs/s of {THREADS}-thread run time; modularity median {:.6} over {} checked runs",
        median(&modularity),
        modularity.len()
    ));
    layers.set("generate.s", median(&generates));
    layers.set("quality.disconnected", disconnected as f64);
    log.fill(&mut layers);
    report.per_layer = layers;
    report
}

/// Checks one run's partition; returns its disconnected-community count.
fn check_run(
    spec: &DetectSpec,
    graph: &CsrGraph,
    membership: &[u32],
    report: &mut Report,
    modularity: &mut Vec<f64>,
) -> usize {
    let checked = check::partition(graph, membership, spec.modularity_floor);
    modularity.push(checked.modularity);
    if let Some(problem) = checked.problem {
        report.fail(problem);
    }
    checked.disconnected
}
