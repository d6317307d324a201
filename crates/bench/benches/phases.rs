//! Criterion benchmarks of the individual Leiden phases on a fixed
//! R-MAT graph: the local-moving phase (Algorithm 2), the aggregation
//! phase (Algorithm 4), and full single-pass vs multi-pass runs.

use criterion::{criterion_group, criterion_main, Criterion};
use gve_graph::props::vertex_weights;
use gve_leiden::{aggregate, localmove, Leiden, LeidenConfig, Objective};
use gve_prim::atomics::atomic_f64_from_slice;
use gve_prim::{AtomicBitset, CommunityMap, PerThread};
use std::hint::black_box;
use std::sync::atomic::AtomicU32;

fn bench_local_move(c: &mut Criterion) {
    let graph = gve_generate::rmat::Rmat::web(13, 8.0).seed(1).generate();
    let n = graph.num_vertices();
    let weights = vertex_weights(&graph);
    let coeffs = Objective::default().coeffs(graph.total_arc_weight() / 2.0);
    let config = LeidenConfig::default();
    let tables = PerThread::new(move || CommunityMap::new(n));
    c.bench_function("phase/local_move/web13", |b| {
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

fn bench_aggregate(c: &mut Criterion) {
    let graph = gve_generate::rmat::Rmat::web(13, 8.0).seed(1).generate();
    let n = graph.num_vertices();
    // A realistic post-refinement partition, obtained from one Leiden
    // pass.
    let config = LeidenConfig {
        max_passes: 1,
        ..LeidenConfig::default()
    };
    let partition = Leiden::new(config).run(&graph).membership;
    let k = gve_quality::community_count(&partition);
    let tables = PerThread::new(move || CommunityMap::new(n));
    c.bench_function("phase/aggregate/web13", |b| {
        b.iter(|| {
            let atomic: Vec<AtomicU32> = partition.iter().map(|&c| AtomicU32::new(c)).collect();
            black_box(aggregate::aggregate(
                &graph, &atomic, &partition, k, &tables, None,
            ))
        });
    });
}

fn bench_full_runs(c: &mut Criterion) {
    let graph = gve_generate::rmat::Rmat::web(13, 8.0).seed(1).generate();
    c.bench_function("leiden/full/web13", |b| {
        b.iter(|| black_box(gve_leiden::leiden(&graph)));
    });
    let one_pass = LeidenConfig {
        max_passes: 1,
        ..LeidenConfig::default()
    };
    let runner = Leiden::new(one_pass);
    c.bench_function("leiden/single_pass/web13", |b| {
        b.iter(|| black_box(runner.run(&graph)));
    });
    c.bench_function("louvain/full/web13", |b| {
        b.iter(|| black_box(gve_louvain::louvain(&graph)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_local_move, bench_aggregate, bench_full_runs
}
criterion_main!(benches);
