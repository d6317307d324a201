//! Footprint budget of the pass-resident workspace arena, measured with
//! an allocation-counting global allocator.
//!
//! `PassWorkspace::with_capacity(n, m)` must allocate at most
//! `60.2·n + 8·m` bytes plus a constant. The per-vertex figure is the sum
//! of the buffers the default asynchronous pass loop needs (see the
//! table in DESIGN.md §10); the per-arc figure is the holey super-CSR's
//! target and weight slots. A buffer added to `ensure` must raise this
//! budget in the same diff.

use gve_graph::GraphBuilder;
use gve_leiden::{Leiden, LeidenConfig, PassWorkspace, Scheduling};
use gve_prim::alloc_count::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The allocator counters are process-global; serialize the tests.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Bytes per vertex the default arena may hold (60 B of buffers plus
/// the pruning bitset's bit).
const BYTES_PER_VERTEX: f64 = 60.2;
/// Bytes per arc: the holey slot targets and f32 weight bits.
const BYTES_PER_ARC: f64 = 8.0;
/// Size-independent overhead (the shared table-capacity cell and
/// rounding of the bitset to whole words).
const CONSTANT_BYTES: f64 = 1024.0;

fn budget(n: usize, m: usize) -> f64 {
    BYTES_PER_VERTEX * n as f64 + BYTES_PER_ARC * m as f64 + CONSTANT_BYTES
}

#[test]
fn with_capacity_stays_within_the_budget() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    for (n, m) in [(1_000, 4_000), (100_000, 210_000), (400_000, 840_000)] {
        // The counters are process-wide, so the test harness's own
        // threads can add a few bytes to one reading; they only ever
        // add, so the least of three readings is the workspace's.
        let bytes = (0..3)
            .map(|_| {
                let before = alloc_count::snapshot();
                let ws = PassWorkspace::with_capacity(n, m);
                let bytes = alloc_count::snapshot().bytes_since(&before);
                drop(ws);
                bytes
            })
            .min()
            .unwrap() as f64;
        assert!(
            bytes <= budget(n, m),
            "with_capacity({n}, {m}) allocated {bytes} B = {:.2} B/vertex + 8 B/arc; budget {:.0} B",
            (bytes - BYTES_PER_ARC * m as f64) / n as f64,
            budget(n, m)
        );
    }
}

#[test]
fn default_runs_leave_color_sync_state_unallocated() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let graph = gve_generate::sbm::PlantedPartition::new(5_000, 10, 12.0, 1.0)
        .seed(8)
        .generate()
        .graph;
    let n = graph.num_vertices();
    let mut ws = PassWorkspace::with_capacity(n, graph.num_arcs());
    Leiden::default().run_in(&graph, &mut ws);
    Leiden::default().run_in(&GraphBuilder::from_edges(3, &[(0, 1, 1.0)]), &mut ws);
    assert_eq!(ws.sync_capacity(), 0, "default runs sized the sync state");

    // The first color-synchronous run grows it, by at least its 12 B
    // per vertex of plain membership and Σ'.
    let sync = Leiden::new(LeidenConfig::default().scheduling(Scheduling::ColorSynchronous));
    let before = alloc_count::snapshot();
    sync.run_in(&graph, &mut ws);
    let grown = alloc_count::snapshot().bytes_since(&before);
    assert_eq!(ws.sync_capacity(), n);
    assert!(grown >= 12 * n as u64, "sync run allocated only {grown} B");
}
