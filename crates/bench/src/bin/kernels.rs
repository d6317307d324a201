//! Scan-kernel runner — the reproducible counterpart of
//! `benches/kernels.rs`. Runs full GVE-Leiden under each vertex
//! ordering on an R-MAT web graph (skewed degrees), a
//! planted-partition SBM (near-uniform degrees), a Barabási–Albert
//! power-law graph (heavy hub skew), and the suite's `road-europe`
//! grid (average degree 2.1, where fixed per-vertex costs outweigh the
//! arc scans), takes the **minimum** wall time over `--reps`
//! repetitions (the stable statistic on a shared box), and emits a
//! machine-readable JSON report.
//!
//! ```text
//! cargo run --release -p gve-bench --bin kernels -- --reps 5
//! cargo run --release -p gve-bench --bin kernels -- --quick --reps 2 --json BENCH_kernels.json
//! ```
//!
//! Without `--json` the report is written to `BENCH_kernels.json` in the
//! working directory; it records the rayon thread count and the
//! checkout's `git describe --always --dirty`. Variants (all on the one
//! scan kernel and the split CSR layout; the kernel's own speed is
//! guarded end to end by the benchmark ledger's detect workloads):
//!
//! * `default` — the default configuration (original vertex order);
//! * `degree` — degree-descending vertex relabeling;
//! * `bfs` — BFS vertex relabeling.
//!
//! This binary installs the counting global allocator and runs every
//! variant inside one pass-resident [`PassWorkspace`], so the report
//! also carries the preallocation discipline's receipts: allocations
//! and bytes of the first (cold) run vs the steady state, plus the
//! live-byte high-water mark. `--assert-steady-allocs <n>` turns the
//! steady-state column into a hard gate (exit 1 on violation). It holds
//! at any thread count: the worker pool spawns its threads once, before
//! the first timed run, and starting a parallel loop allocates nothing.

use gve_bench::{report, report::Table, BenchArgs};
use gve_graph::CsrGraph;
use gve_leiden::{Leiden, LeidenConfig, PassWorkspace, VertexOrdering};
use gve_prim::alloc_count::{self, CountingAllocator};
use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn variants() -> Vec<(&'static str, LeidenConfig)> {
    let base = LeidenConfig::default();
    vec![
        ("default", base.clone()),
        ("degree", base.clone().ordering(VertexOrdering::DegreeDesc)),
        ("bfs", base.ordering(VertexOrdering::Bfs)),
    ]
}

fn graphs(args: &BenchArgs) -> Vec<(String, CsrGraph)> {
    // --quick halves the R-MAT scale and the SBM size on top of --scale.
    let rmat_scale = if args.quick { 12 } else { 14 } + (args.scale.log2().round() as i32).max(-8);
    let sbm_n = (((if args.quick { 20_000 } else { 100_000 }) as f64) * args.scale) as usize;
    let pld_n = (((if args.quick { 15_000 } else { 75_000 }) as f64) * args.scale) as usize;
    // The ledger's `detect_road` graph is road-europe at scale 4.
    let road_scale = if args.quick { 1.0 } else { 4.0 } * args.scale;
    let road = gve_generate::suite::suite()
        .into_iter()
        .find(|d| d.name == "road-europe")
        .expect("the suite has road-europe")
        .generate(road_scale, args.seed);
    vec![
        (
            format!("rmat_web_{rmat_scale}"),
            gve_generate::rmat::Rmat::web(rmat_scale.max(8) as u32, 8.0)
                .seed(args.seed)
                .generate(),
        ),
        (
            format!("sbm_{sbm_n}"),
            gve_generate::PlantedPartition::new(sbm_n.max(1000), sbm_n.max(1000) / 250, 8.0, 2.0)
                .seed(args.seed)
                .generate()
                .graph,
        ),
        // Power-law-degree graph with heavy hub skew: preferential
        // attachment concentrates a large fraction of the arcs on a few
        // early vertices, which is what the kernel's hub table tier is
        // built for.
        (
            format!("pld_cross_web_{pld_n}"),
            gve_generate::ba::barabasi_albert(pld_n.max(1000), 8, args.seed),
        ),
        (format!("road_europe_{}", road.num_vertices()), road),
    ]
}

struct Row {
    graph: String,
    vertices: usize,
    arcs: usize,
    variant: &'static str,
    seconds: f64,
    modularity: f64,
    passes: usize,
    phases: [f64; 4], // local_move, refinement, aggregation, other
    allocs_fresh: u64,
    allocs_steady: u64,
    alloc_bytes_fresh: u64,
    alloc_bytes_steady: u64,
    peak_bytes: u64,
}

fn main() {
    let args = BenchArgs::parse();
    args.install_threads();

    let mut rows: Vec<Row> = Vec::new();
    let mut table = Table::new(
        "Scan kernel: vertex ordering variants (min wall time over reps)",
        &[
            "Graph",
            "Variant",
            "Time",
            "vs default",
            "Modularity",
            "Passes",
            "Allocs fresh\u{2192}steady",
        ],
    );

    for (graph_name, graph) in graphs(&args) {
        // Round-robin the repetitions across variants (after one warmup
        // run each) so slow drift on a shared box biases every variant
        // equally instead of whichever ran last. Every variant owns one
        // pass-resident arena for the whole graph, so the warmup run is
        // the *cold* allocation measurement and every timed rep is a
        // *steady-state* one.
        let runners: Vec<(&'static str, Leiden)> = variants()
            .into_iter()
            .map(|(name, config)| (name, Leiden::new(config)))
            .collect();
        let mut workspaces: Vec<PassWorkspace> =
            runners.iter().map(|_| PassWorkspace::new()).collect();
        let mut best = vec![f64::INFINITY; runners.len()];
        // (allocs, bytes) of the cold run; (allocs, bytes, peak) of the
        // quietest steady rep.
        let mut fresh = vec![(0u64, 0u64); runners.len()];
        let mut steady = vec![(u64::MAX, 0u64, 0u64); runners.len()];
        let mut results = Vec::new();
        for (i, (_, runner)) in runners.iter().enumerate() {
            let before = alloc_count::snapshot();
            results.push(runner.run_in(&graph, &mut workspaces[i])); // warmup, keep the result
            let after = alloc_count::snapshot();
            fresh[i] = (after.allocs_since(&before), after.bytes_since(&before));
        }
        for _ in 0..args.reps {
            for (i, (_, runner)) in runners.iter().enumerate() {
                // Scope the live-byte high-water mark to this rep. The
                // base includes whatever is resident (the graph and all
                // variants' arenas), which is exactly the footprint a
                // resident service would carry.
                alloc_count::reset_watermarks();
                let before = alloc_count::snapshot();
                let start = Instant::now();
                let result = runner.run_in(&graph, &mut workspaces[i]);
                let seconds = start.elapsed().as_secs_f64();
                let after = alloc_count::snapshot();
                if seconds < best[i] {
                    best[i] = seconds;
                    results[i] = result; // keep the min-time rep's stats
                }
                let allocs = after.allocs_since(&before);
                if allocs < steady[i].0 {
                    steady[i] = (allocs, after.bytes_since(&before), after.peak);
                }
            }
        }
        let mut default_seconds = f64::NAN;
        for (i, (variant, _)) in runners.iter().enumerate() {
            let variant = *variant;
            let best = best[i];
            let result = &results[i];
            if variant == "default" {
                default_seconds = best;
            }
            let modularity = gve_quality::modularity(&graph, &result.membership);
            table.push(vec![
                graph_name.clone(),
                variant.to_string(),
                report::fmt_secs(best),
                report::fmt_speedup(default_seconds / best),
                format!("{modularity:.4}"),
                result.passes.to_string(),
                format!("{}\u{2192}{}", fresh[i].0, steady[i].0),
            ]);
            rows.push(Row {
                graph: graph_name.clone(),
                vertices: graph.num_vertices(),
                arcs: graph.num_arcs(),
                variant,
                seconds: best,
                modularity,
                passes: result.passes,
                phases: [
                    result.timings.local_move.as_secs_f64(),
                    result.timings.refinement.as_secs_f64(),
                    result.timings.aggregation.as_secs_f64(),
                    result.timings.other.as_secs_f64(),
                ],
                allocs_fresh: fresh[i].0,
                allocs_steady: steady[i].0,
                alloc_bytes_fresh: fresh[i].1,
                alloc_bytes_steady: steady[i].1,
                peak_bytes: steady[i].2,
            });
        }
    }
    table.print();
    if let Some(csv) = &args.csv {
        table.write_csv(csv).expect("failed to write CSV");
    }

    // Hand-rolled JSON (the dependency set has no serde).
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"suite\": \"kernels\",");
    let _ = writeln!(json, "  \"reps\": {},", args.reps);
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"scale\": {},", args.scale);
    let _ = writeln!(json, "  \"quick\": {},", args.quick);
    let _ = writeln!(json, "  \"threads\": {},", rayon::current_num_threads());
    let _ = writeln!(json, "  \"commit\": \"{}\",", report::commit());
    let _ = writeln!(json, "  \"statistic\": \"min\",");
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"graph\": \"{}\", \"vertices\": {}, \"arcs\": {}, \"variant\": \"{}\", \
             \"seconds\": {:.6}, \"modularity\": {:.6}, \"passes\": {}, \
             \"local_move\": {:.6}, \"refinement\": {:.6}, \"aggregation\": {:.6}, \
             \"other\": {:.6}, \
             \"allocs_fresh\": {}, \"allocs_steady\": {}, \
             \"alloc_bytes_fresh\": {}, \"alloc_bytes_steady\": {}, \
             \"peak_bytes\": {}}}{comma}",
            row.graph,
            row.vertices,
            row.arcs,
            row.variant,
            row.seconds,
            row.modularity,
            row.passes,
            row.phases[0],
            row.phases[1],
            row.phases[2],
            row.phases[3],
            row.allocs_fresh,
            row.allocs_steady,
            row.alloc_bytes_fresh,
            row.alloc_bytes_steady,
            row.peak_bytes,
        );
    }
    json.push_str("  ]\n}\n");

    let path = args.json.as_deref().unwrap_or("BENCH_kernels.json");
    std::fs::write(path, json).expect("failed to write JSON report");
    eprintln!("wrote {path}");

    // The zero-steady-state-allocation regression gate (CI bench-smoke).
    if let Some(bound) = args.assert_steady_allocs {
        let mut violated = false;
        for row in &rows {
            if row.allocs_steady > bound {
                violated = true;
                eprintln!(
                    "alloc gate FAILED: {}/{} performed {} steady-state allocations \
                     (bound {bound}, cold run {})",
                    row.graph, row.variant, row.allocs_steady, row.allocs_fresh
                );
            }
        }
        if violated {
            std::process::exit(1);
        }
        eprintln!(
            "alloc gate passed: every steady-state run stayed within \
             {bound} allocations"
        );
    }
}
