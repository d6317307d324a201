//! Serve-side workspace pooling, proven with an allocation-counting
//! global allocator: two detect jobs through one [`WorkspacePool`]
//! produce identical partitions, reuse one arena, and the second job's
//! allocator traffic collapses to a small constant share of the first.
//!
//! This binary installs [`CountingAllocator`] process-wide, so every
//! assertion about "allocations" below is measured, not inferred.

use gve_generate::PlantedPartition;
use gve_leiden::Scheduling;
use gve_prim::alloc_count::{self, CountingAllocator};
use gve_serve::cache::PartitionCache;
use gve_serve::jobs::{DetectRequest, JobEngine, JobState};
use gve_serve::registry::{GraphRegistry, GraphSource};
use gve_serve::WorkspacePool;
use std::sync::Arc;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The allocator counters are process-global; serialize the tests.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn planted() -> gve_graph::CsrGraph {
    PlantedPartition::new(30_000, 25, 12.0, 0.8)
        .seed(17)
        .generate()
        .graph
}

/// Direct measurement of the pool's steady state: after a warm-up run
/// has grown the arena to the graph size, a further run through the
/// same pool performs no Leiden-hot-path allocations — the only heap
/// traffic left is the returned result (membership vector and per-pass
/// stats) plus small constant scheduler overhead.
#[test]
fn pooled_runs_reach_zero_hot_path_allocations() {
    let _guard = LOCK.lock().unwrap();
    let graph = planted();
    let leiden = gve_leiden::Leiden::default();
    let pool = Arc::new(WorkspacePool::new());

    let thread_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    thread_pool.install(|| {
        // Warm-up: grows the arena (and the aggregation slot sets)
        // to this graph's size.
        let warm = {
            let mut ws = pool.checkout();
            leiden.run_in(&graph, &mut ws)
        };

        let before = alloc_count::snapshot();
        let steady = {
            let mut ws = pool.checkout();
            leiden.run_in(&graph, &mut ws)
        };
        let after = alloc_count::snapshot();

        assert_eq!(warm.membership, steady.membership, "1-thread determinism");
        let allocs = after.allocs_since(&before);
        let bytes = after.bytes_since(&before);
        // The result itself costs a handful of allocations (membership
        // vector, top-level labels, pass stats). Anything past a small
        // constant means a per-pass buffer escaped the arena.
        assert!(
            allocs <= 64,
            "steady-state run performed {allocs} allocations ({bytes} bytes); \
             a pass-resident buffer is leaking out of the workspace arena"
        );
        // Result vectors are O(n) u32s; the arena itself (atomics,
        // scratch, aggregation CSRs) is far larger. A generous 3×n×4
        // byte bound still catches any arena buffer being reallocated.
        let n = graph.num_vertices() as u64;
        assert!(
            bytes <= 3 * n * 4 + (1 << 16),
            "steady-state run allocated {bytes} bytes (n = {n})"
        );
    });
}

/// End-to-end through the job engine: two detect jobs against the same
/// graph registered under two names (so the partition cache cannot
/// short-circuit the second one) share one pooled workspace and yield
/// identical partitions; the second job's allocator traffic is a small
/// fraction of the first's.
#[test]
fn two_detect_jobs_share_one_workspace_and_match() {
    let _guard = LOCK.lock().unwrap();
    let graph = planted();
    let registry = Arc::new(GraphRegistry::new());
    let cache = Arc::new(PartitionCache::new());
    registry
        .register("a", graph.clone(), GraphSource::Generated("sbm".into()))
        .unwrap();
    registry
        .register("b", graph, GraphSource::Generated("sbm".into()))
        .unwrap();
    // One worker: both jobs run on the same thread, through one pool.
    let engine = JobEngine::start(Arc::clone(&registry), Arc::clone(&cache), 1);

    // Color-synchronous scheduling is reproducible across runs and
    // thread counts, so "identical partitions" is exact, not luck.
    let request = DetectRequest {
        scheduling: Scheduling::ColorSynchronous,
        ..DetectRequest::default()
    };

    let before_first = alloc_count::snapshot();
    let first = engine.submit("a", request.clone()).unwrap();
    let first = engine.wait(first.id, Duration::from_secs(120)).unwrap();
    assert_eq!(first.state, JobState::Done, "error: {:?}", first.error);

    let before_second = alloc_count::snapshot();
    let second = engine.submit("b", request).unwrap();
    let second = engine.wait(second.id, Duration::from_secs(120)).unwrap();
    assert_eq!(second.state, JobState::Done, "error: {:?}", second.error);
    let after = alloc_count::snapshot();

    // Identical partitions out of one reused arena.
    let partition_a = cache.peek(first.key.as_ref().unwrap()).unwrap();
    let partition_b = cache.peek(second.key.as_ref().unwrap()).unwrap();
    assert_eq!(
        partition_a.membership, partition_b.membership,
        "reused workspace changed the partition"
    );
    assert!(!second.cached, "second job must be a real detection");

    // This binary *does* install the counting allocator, so the
    // gve_core_allocs_total export must have recorded real traffic.
    assert!(
        engine.stats.core_allocs.get() > 0,
        "core-alloc counter not fed by detections"
    );

    // The pool built exactly one workspace and parked it between jobs
    // (both graphs share the engine's one pool).
    let pool = engine.workspaces();
    assert_eq!(pool.created.get(), 1, "one arena built");
    assert_eq!(pool.checkouts.get(), 2, "both jobs pooled");
    assert_eq!(pool.idle_len(), 1, "arena parked after use");

    // The second job skips the arena + aggregation-buffer allocations;
    // its heap traffic (result vectors, cache entry, job bookkeeping)
    // must be a small fraction of the cold first job's.
    let fresh_bytes = before_second.bytes_since(&before_first);
    let steady_bytes = after.bytes_since(&before_second);
    assert!(
        steady_bytes * 2 < fresh_bytes,
        "steady job allocated {steady_bytes} bytes vs {fresh_bytes} cold — pool not reused?"
    );
    engine.stop();
}
