//! Allocation budget of `apply_batch`, measured with an
//! allocation-counting global allocator.
//!
//! A batch must be applied with at most [`MAX_ALLOCS`] allocations, and
//! request at most the bytes of the output CSR it reserves (offsets for
//! N + 1 vertices, targets and weights for the old arcs plus the
//! directed insertions), plus [`BYTES_PER_EDIT`] per edit, plus
//! [`CONSTANT_BYTES`]. The per-edit figure is the two directed edit
//! lists: 2 × 12 B per insertion and 2 × 8 B per deletion. A row-by-row
//! rebuild allocates per vertex and fails this by four orders of
//! magnitude.

use gve_dynamic::{apply_batch, collect_windows, BatchUpdate, ChurnStream};
use gve_generate::PlantedPartition;
use gve_graph::CsrGraph;
use gve_prim::alloc_count::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Output offsets, targets and weights, plus the two edit lists.
const MAX_ALLOCS: u64 = 8;
/// The larger of a directed insertion pair (24 B) and a directed
/// deletion pair (16 B).
const BYTES_PER_EDIT: u64 = 24;
/// Size-independent slack.
const CONSTANT_BYTES: u64 = 1024;

/// Bytes of the output CSR as `apply_batch` reserves it.
fn reserved_csr_bytes(graph: &CsrGraph, batch: &BatchUpdate) -> u64 {
    let n = graph
        .num_vertices()
        .max(batch.max_inserted_vertex().map_or(0, |v| v as usize + 1));
    let inserted_arcs: usize = batch
        .insertions
        .iter()
        .map(|&(u, v, _)| if u == v { 1 } else { 2 })
        .sum();
    (8 * (n + 1) + 8 * (graph.num_arcs() + inserted_arcs)) as u64
}

#[test]
fn apply_batch_allocates_only_the_output_and_the_edit_lists() {
    // The served churn graph: a 20k-vertex SBM with about 214k arcs,
    // and 0.5 s windows of 400 insertions/s and 100 deletions/s.
    let mut graph = PlantedPartition::new(20_000, 10, 10.0, 0.8)
        .seed(42)
        .generate()
        .graph;
    let windows = collect_windows(ChurnStream::new(&graph, 400.0, 100.0, 42), 0.5, 4);
    for (i, batch) in windows.iter().enumerate() {
        assert!(batch.len() > 100, "window {i} holds {} edits", batch.len());
        let budget = reserved_csr_bytes(&graph, batch)
            + BYTES_PER_EDIT * batch.len() as u64
            + CONSTANT_BYTES;
        // The counters are process-wide, so the test harness's own
        // threads can add to one reading; they only ever add, so the
        // least of three readings is apply_batch's.
        let (allocs, bytes) = (0..3)
            .map(|_| {
                let before = alloc_count::snapshot();
                let updated = apply_batch(&graph, batch);
                let after = alloc_count::snapshot();
                drop(updated);
                (after.allocs_since(&before), after.bytes_since(&before))
            })
            .min()
            .unwrap();
        assert!(
            allocs <= MAX_ALLOCS,
            "window {i}: {allocs} allocations, budget {MAX_ALLOCS}"
        );
        assert!(
            bytes <= budget,
            "window {i}: {bytes} B requested for {} edits, budget {budget} B",
            batch.len()
        );
        graph = apply_batch(&graph, batch);
    }
}
