//! Criterion microbenchmarks of the neighbourhood-scan kernel, on an
//! R-MAT web graph (skewed degrees — exercises both tiers of the degree
//! dispatch), a planted-partition SBM (near-uniform degrees — almost
//! every vertex rides the stack tier) and the suite's `road-europe`
//! grid (degree 2.1 — a visit's fixed costs outweigh its arcs). Also
//! measures one `best_move` per vertex on frozen singleton state and the
//! full pipeline. The machine-readable counterpart of this suite is the
//! `kernels` binary, which emits `BENCH_kernels.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use gve_graph::props::vertex_weights;
use gve_graph::CsrGraph;
use gve_leiden::kernel::best_move;
use gve_leiden::{localmove, Leiden, LeidenConfig, Objective};
use gve_prim::atomics::atomic_f64_from_slice;
use gve_prim::{AtomicBitset, CommunityMap, HashScanMap, PerThread};
use std::hint::black_box;
use std::sync::atomic::AtomicU32;

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "rmat13",
            gve_generate::rmat::Rmat::web(13, 8.0).seed(1).generate(),
        ),
        (
            "sbm10k",
            gve_generate::PlantedPartition::new(10_000, 40, 8.0, 2.0)
                .seed(1)
                .generate()
                .graph,
        ),
        (
            "road_europe",
            gve_generate::suite::suite()
                .into_iter()
                .find(|d| d.name == "road-europe")
                .expect("the suite has road-europe")
                .generate(1.0, 1),
        ),
    ]
}

/// One `kernel::best_move` per vertex on frozen singleton state (every
/// vertex its own community, the first local-moving iteration's view),
/// per graph: the scan kernel's cost without pruning or commits.
fn bench_best_move(c: &mut Criterion) {
    for (graph_name, graph) in graphs() {
        let n = graph.num_vertices();
        let weights = vertex_weights(&graph);
        let coeffs = Objective::default().coeffs(graph.total_arc_weight() / 2.0);
        let membership: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
        let sigma = atomic_f64_from_slice(&weights);
        let mut ht = CommunityMap::new(n);
        let mut hash = HashScanMap::new();
        c.bench_function(format!("kernel/best_move/{graph_name}"), |b| {
            b.iter(|| {
                let mut moves = 0u32;
                for i in 0..n as u32 {
                    let got = best_move(
                        &mut ht,
                        &mut hash,
                        &graph,
                        &membership,
                        None,
                        i,
                        i,
                        weights[i as usize],
                        &sigma,
                        coeffs,
                    );
                    moves += u32::from(got.is_some());
                }
                black_box(moves)
            });
        });
    }
}

/// One full local-moving phase from singletons, per graph.
fn bench_local_move(c: &mut Criterion) {
    let config = LeidenConfig::default();
    for (graph_name, graph) in graphs() {
        let n = graph.num_vertices();
        let weights = vertex_weights(&graph);
        let coeffs = Objective::default().coeffs(graph.total_arc_weight() / 2.0);
        let tables = PerThread::new(move || CommunityMap::new(n));
        c.bench_function(format!("kernel/local_move/{graph_name}"), |b| {
            b.iter(|| {
                let membership: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
                let sigma = atomic_f64_from_slice(&weights);
                let unprocessed = AtomicBitset::new_all_set(n);
                black_box(localmove::local_move(
                    &graph,
                    &membership,
                    &weights,
                    &sigma,
                    coeffs,
                    config.initial_tolerance,
                    &config,
                    &tables,
                    &unprocessed,
                ))
            });
        });
    }
}

/// Full detection runs in the default configuration, per graph.
fn bench_full_runs(c: &mut Criterion) {
    let runner = Leiden::default();
    for (graph_name, graph) in graphs() {
        c.bench_function(format!("kernel/full/{graph_name}"), |b| {
            b.iter(|| black_box(runner.run(&graph)));
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_best_move, bench_local_move, bench_full_runs
}
criterion_main!(benches);
