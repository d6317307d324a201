//! Criterion benchmark of the dynamic refresh: per-batch cost of
//! Dynamic Frontier against a full static rerun at a fixed batch size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gve_dynamic::{apply_batch, BatchUpdate, DynamicLeiden, DynamicStrategy};
use gve_leiden::LeidenConfig;
use gve_prim::Xorshift32;
use std::hint::black_box;

fn make_batch(graph: &gve_graph::CsrGraph, size: usize, seed: u32) -> BatchUpdate {
    let mut rng = Xorshift32::new(seed);
    let n = graph.num_vertices() as u32;
    let mut batch = BatchUpdate::new();
    for _ in 0..size {
        let u = rng.next_bounded(n);
        let v = rng.next_bounded(n);
        if u != v {
            batch.insert(u, v, 1.0);
        }
    }
    batch
}

fn bench_strategies(c: &mut Criterion) {
    let base = gve_generate::PlantedPartition::new(8000, 20, 14.0, 1.0)
        .seed(1)
        .generate()
        .graph;
    let batch = make_batch(&base, 500, 7);
    let mut group = c.benchmark_group("dynamic_refresh");
    group.sample_size(10);
    for (name, strategy) in [
        ("full_static", DynamicStrategy::FullStatic),
        ("dynamic_frontier", DynamicStrategy::DynamicFrontier),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &strategy, |b, &s| {
            b.iter_batched(
                || DynamicLeiden::new(base.clone(), LeidenConfig::default(), s),
                |mut detector| black_box(detector.apply(&batch)),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();

    c.bench_function("dynamic_refresh/apply_batch_only", |b| {
        b.iter(|| black_box(apply_batch(&base, &batch)));
    });
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
