//! Extension experiment: Dynamic Frontier Leiden on a stream of edge
//! batches (the paper's §4.1 future-work direction, evaluated in the
//! style of the DF-Leiden follow-up: batch sizes swept in powers of ten,
//! quality and runtime vs a full static rerun).
//!
//! ```text
//! cargo run --release -p gve-bench --bin dynamic_batches -- --reps 3
//! ```

use gve_bench::{report, report::Table, BenchArgs};
use gve_dynamic::{apply_batch, BatchUpdate, DynamicLeiden, DynamicStrategy};
use gve_leiden::LeidenConfig;
use gve_prim::Xorshift32;
use std::time::Instant;

fn make_batch(graph: &gve_graph::CsrGraph, size: usize, seed: u32) -> BatchUpdate {
    let mut rng = Xorshift32::new(seed);
    let n = graph.num_vertices() as u32;
    let mut batch = BatchUpdate::new();
    // 60% insertions, 40% deletions — typical churn mix.
    for _ in 0..(size * 6 / 10) {
        let u = rng.next_bounded(n);
        let v = rng.next_bounded(n);
        if u != v {
            batch.insert(u, v, 1.0);
        }
    }
    for _ in 0..(size * 4 / 10) {
        let u = rng.next_bounded(n);
        let nb = graph.neighbors(u);
        if !nb.is_empty() {
            let v = nb[rng.next_bounded(nb.len() as u32) as usize];
            if u != v {
                batch.delete(u, v);
            }
        }
    }
    batch
}

fn main() {
    let args = BenchArgs::parse();
    args.install_threads();
    let strategies = [
        ("full-static", DynamicStrategy::FullStatic),
        ("dynamic-frontier", DynamicStrategy::DynamicFrontier),
    ];
    let batch_sizes = [100usize, 1000, 10_000];

    let mut table = Table::new(
        "Dynamic Leiden: per-batch update time and quality vs full static rerun",
        &[
            "Graph",
            "Batch",
            "Strategy",
            "Time/batch",
            "Rel. time",
            "Modularity",
            "Q gap",
        ],
    );

    for dataset in args.suite() {
        let base = dataset.generate(args.scale, args.seed);
        for &batch_size in &batch_sizes {
            // Pre-generate a fixed stream of batches so both rows see
            // identical updates.
            let mut stream = Vec::new();
            let mut graph = base.clone();
            for step in 0..args.reps.max(3) {
                let batch = make_batch(&graph, batch_size, 7000 + step as u32);
                graph = apply_batch(&graph, &batch);
                stream.push(batch);
            }
            let final_graph = graph;
            let q_static =
                gve_quality::modularity(&final_graph, &gve_leiden::leiden(&final_graph).membership);

            let mut static_time = None;
            for (name, strategy) in strategies {
                let mut detector =
                    DynamicLeiden::new(base.clone(), LeidenConfig::default(), strategy);
                let start = Instant::now();
                for batch in &stream {
                    detector.apply(batch);
                }
                let per_batch = start.elapsed().as_secs_f64() / stream.len() as f64;
                let static_time = *static_time.get_or_insert(per_batch);
                let q = gve_quality::modularity(&final_graph, detector.membership());
                table.push(vec![
                    dataset.name.to_string(),
                    batch_size.to_string(),
                    name.to_string(),
                    report::fmt_secs(per_batch),
                    format!("{:.2}", per_batch / static_time),
                    format!("{q:.4}"),
                    format!("{:+.4}", q - q_static),
                ]);
            }
        }
    }
    table.print();

    if let Some(csv) = &args.csv {
        table.write_csv(csv).expect("failed to write CSV");
    }
}
