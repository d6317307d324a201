//! Differential test: `apply_batch`'s single merge into the output CSR
//! against the row-by-row rebuild it replaced, kept below verbatim as
//! the oracle. The two must agree bit for bit: offsets, targets, and
//! the bits of every weight.

use gve_dynamic::{apply_batch, BatchUpdate};
use gve_graph::{CsrGraph, EdgeWeight, GraphBuilder, VertexId};
use proptest::prelude::*;
use std::collections::HashMap;

/// The previous `apply_batch`: per-vertex edit lists in hash maps, one
/// `Vec` per output row, then a `GraphBuilder` pass to assemble the CSR.
fn row_merge_apply_batch(graph: &CsrGraph, batch: &BatchUpdate) -> CsrGraph {
    if batch.is_empty() {
        return graph.clone();
    }
    let n = graph
        .num_vertices()
        .max(batch.max_inserted_vertex().map_or(0, |v| v as usize + 1));

    // Group directed edits per source vertex, then sort each vertex's
    // edit list so the per-row rebuild below is a linear merge against
    // the (already sorted) CSR row instead of a scan per edge. The
    // insertion sort is *stable*: repeated insertions of one pair keep
    // batch order, so their weights accumulate left-to-right exactly as
    // they would applying the batch one edge at a time.
    let mut inserts: HashMap<VertexId, Vec<(VertexId, EdgeWeight)>> = HashMap::new();
    for &(u, v, w) in &batch.insertions {
        inserts.entry(u).or_default().push((v, w));
        if u != v {
            inserts.entry(v).or_default().push((u, w));
        }
    }
    for row in inserts.values_mut() {
        row.sort_by_key(|&(v, _)| v);
    }
    let mut deletes: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
    for &(u, v) in &batch.deletions {
        deletes.entry(u).or_default().push(v);
        if u != v {
            deletes.entry(v).or_default().push(u);
        }
    }
    for row in deletes.values_mut() {
        row.sort_unstable();
    }

    // Rebuild every row independently: one pass over old ∪ inserted
    // targets, skipping deleted pairs — O(d + k log k) per row instead
    // of the old O(d·k) contains/find scans.
    let rows: Vec<Vec<(VertexId, EdgeWeight)>> = (0..n as VertexId)
        .map(|u| {
            let dels: &[VertexId] = deletes.get(&u).map_or(&[], Vec::as_slice);
            let ins: &[(VertexId, EdgeWeight)] = inserts.get(&u).map_or(&[], Vec::as_slice);
            let old_degree = if (u as usize) < graph.num_vertices() {
                graph.degree(u)
            } else {
                0
            };
            let mut row: Vec<(VertexId, EdgeWeight)> = Vec::with_capacity(old_degree + ins.len());
            // Append an insertion, folding its weight into the previous
            // entry when it targets the same vertex (sorted input makes
            // duplicates adjacent).
            let push_ins =
                |row: &mut Vec<(VertexId, EdgeWeight)>, v: VertexId, w: EdgeWeight| match row
                    .last_mut()
                {
                    Some(slot) if slot.0 == v => slot.1 += w,
                    _ => row.push((v, w)),
                };
            let (mut di, mut ii) = (0usize, 0usize);
            if old_degree > 0 {
                for (v, w) in graph.edges(u) {
                    // Deleted pair? (dels may hold duplicates; advance past
                    // everything smaller first.)
                    while di < dels.len() && dels[di] < v {
                        di += 1;
                    }
                    if di < dels.len() && dels[di] == v {
                        continue;
                    }
                    // Insertions targeting ids before v land first…
                    while ii < ins.len() && ins[ii].0 < v {
                        let (t, w_ins) = ins[ii];
                        push_ins(&mut row, t, w_ins);
                        ii += 1;
                    }
                    row.push((v, w));
                    // …and insertions over the existing arc add weight.
                    while ii < ins.len() && ins[ii].0 == v {
                        push_ins(&mut row, v, ins[ii].1);
                        ii += 1;
                    }
                }
            }
            while ii < ins.len() {
                let (t, w_ins) = ins[ii];
                push_ins(&mut row, t, w_ins);
                ii += 1;
            }
            row
        })
        .collect();

    let mut builder = GraphBuilder::new()
        .with_vertices(n)
        .symmetrize(false)
        .dedup(false);
    for (u, row) in rows.iter().enumerate() {
        for &(v, w) in row {
            builder.add_edge(u as VertexId, v, w);
        }
    }
    builder.build()
}

/// Offsets, targets, and weight bits.
fn bits(graph: &CsrGraph) -> (Vec<u64>, Vec<VertexId>, Vec<u32>) {
    (
        graph.offsets().to_vec(),
        graph.targets().to_vec(),
        graph.weights().iter().map(|w| w.to_bits()).collect(),
    )
}

/// Weights whose sums depend on the order they are added in, so a
/// merge that folds repeated insertions in another order shows up in
/// the bits.
const WEIGHTS: [f32; 6] = [1.0, 0.1, 0.7, 3.3e-3, 1.0e4, 2.9];

/// A graph on `n` vertices, a batch over ids up to `n + 6` (growing the
/// vertex set and deleting edges of unknown vertices), and an optional
/// vertex floor.
fn arb_batch(n: u32) -> impl Strategy<Value = BatchUpdate> {
    // Pairs drawn from a small id range repeat often, so one batch
    // inserts some pair twice and inserts over existing arcs.
    let pair = (0..n + 6, 0..n + 6);
    (
        proptest::collection::vec((pair.clone(), 0..WEIGHTS.len()), 0..30),
        proptest::collection::vec(pair, 0..15),
        (0u32..2, 0..n + 10),
    )
        .prop_map(|(inserts, deletes, (has_floor, floor))| {
            let mut batch = BatchUpdate::new();
            for ((u, v), w) in inserts {
                batch.insert(u, v, WEIGHTS[w]);
            }
            for (u, v) in deletes {
                batch.delete(u, v);
            }
            batch.vertex_floor = (has_floor == 1).then_some(floor);
            batch
        })
}

fn arb_graph_and_batches() -> impl Strategy<Value = (CsrGraph, BatchUpdate, BatchUpdate)> {
    (2u32..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 0..WEIGHTS.len()), 0..70);
        (
            edges.prop_map(move |edges| {
                let typed: Vec<(u32, u32, f32)> = edges
                    .into_iter()
                    .map(|(u, v, w)| (u, v, WEIGHTS[w]))
                    .collect();
                GraphBuilder::from_edges(n as usize, &typed)
            }),
            arb_batch(n),
            arb_batch(n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One batch, then a second on the result, then the two merged
    /// into one: each step agrees with the row-merge oracle bit for bit.
    #[test]
    fn merge_matches_the_row_merge_oracle((graph, first, second) in arb_graph_and_batches()) {
        let once = apply_batch(&graph, &first);
        prop_assert_eq!(bits(&once), bits(&row_merge_apply_batch(&graph, &first)));
        let twice = apply_batch(&once, &second);
        prop_assert_eq!(bits(&twice), bits(&row_merge_apply_batch(&once, &second)));
        let mut merged = first.clone();
        merged.merge(&second);
        prop_assert_eq!(
            bits(&apply_batch(&graph, &merged)),
            bits(&row_merge_apply_batch(&graph, &merged))
        );
    }
}

/// Each rule the merge keeps from the row rebuild, on one small case
/// apiece, so a failure names the rule.
#[test]
fn every_row_rule_matches_the_oracle() {
    let graph = GraphBuilder::from_edges(5, &[(0, 1, 1.0), (1, 2, 0.1), (2, 3, 0.7), (3, 3, 2.9)]);
    let mut cases: Vec<(&str, BatchUpdate)> = Vec::new();
    let mut batch = BatchUpdate::new();
    batch
        .insert(0, 4, 0.1)
        .insert(4, 0, 0.7)
        .insert(0, 4, 1.0e4);
    cases.push(("repeated insertions of one pair", batch));
    let mut batch = BatchUpdate::new();
    batch.insert(1, 2, 3.3e-3).insert(2, 1, 0.1);
    cases.push(("insertions over an existing arc", batch));
    let mut batch = BatchUpdate::new();
    batch.insert(3, 3, 0.1).insert(4, 4, 0.7).insert(4, 4, 0.1);
    cases.push(("self-loops, old and new", batch));
    let mut batch = BatchUpdate::new();
    batch.delete(0, 4).delete(0, 9).delete(12, 13).delete(1, 2);
    cases.push(("deletions of missing edges and unknown vertices", batch));
    let mut batch = BatchUpdate::new();
    batch.delete(1, 2).insert(2, 1, 0.7);
    cases.push(("deletion and reinsertion of one pair", batch));
    let mut batch = BatchUpdate::new();
    batch.insert(2, 8, 1.0);
    cases.push(("vertex growth", batch));
    let mut batch = BatchUpdate::new();
    batch.vertex_floor = Some(9);
    cases.push(("vertex floor alone", batch));
    for (rule, batch) in cases {
        assert_eq!(
            bits(&apply_batch(&graph, &batch)),
            bits(&row_merge_apply_batch(&graph, &batch)),
            "{rule}"
        );
    }
}
