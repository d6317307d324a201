//! `GraphBuilder::build` against a sequential `BTreeMap` reference, bit
//! for bit, at 1 and 2 threads.
//!
//! The reference collects each source's arcs in edge order, sorts every
//! row with the same unstable sort, and sums duplicate weights in the
//! sorted order. The parallel builder must reproduce it exactly, so the
//! weights here are chosen for f32 sums that depend on the order of
//! their terms.

use gve_graph::{EdgeWeight, GraphBuilder, VertexId};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Edge = (VertexId, VertexId, EdgeWeight);

/// Weights whose f32 sums round differently in different orders.
const WEIGHTS: [EdgeWeight; 6] = [1.0, 3.0e-8, 0.1, 1.0e8, 0.7, 2.5e-3];

/// Raw CSR arrays, weights as bits.
type Arrays = (Vec<u64>, Vec<VertexId>, Vec<u32>);

#[derive(Debug, Clone, Copy)]
struct Policy {
    symmetrize: bool,
    dedup: bool,
    drop_self_loops: bool,
}

fn policies() -> impl Iterator<Item = Policy> {
    (0..8).map(|bits| Policy {
        symmetrize: bits & 1 != 0,
        dedup: bits & 2 != 0,
        drop_self_loops: bits & 4 != 0,
    })
}

fn reference(vertices: Option<usize>, edges: &[Edge], policy: Policy) -> Arrays {
    let inferred = edges
        .iter()
        .map(|&(u, v, _)| u.max(v) as usize + 1)
        .max()
        .unwrap_or(0);
    let n = vertices.unwrap_or(inferred).max(inferred);
    let mut rows: BTreeMap<VertexId, Vec<(VertexId, EdgeWeight)>> = BTreeMap::new();
    for &(u, v, w) in edges {
        if u == v {
            if !policy.drop_self_loops {
                rows.entry(u).or_default().push((v, w));
            }
            continue;
        }
        rows.entry(u).or_default().push((v, w));
        if policy.symmetrize {
            rows.entry(v).or_default().push((u, w));
        }
    }
    let (mut offsets, mut targets, mut weights) =
        (vec![0u64], Vec::new(), Vec::<EdgeWeight>::new());
    for u in 0..n as VertexId {
        let mut row = rows.remove(&u).unwrap_or_default();
        row.sort_unstable_by_key(|&(t, _)| t);
        let start = targets.len();
        for (t, w) in row {
            if policy.dedup && targets.len() > start && targets.last() == Some(&t) {
                *weights.last_mut().unwrap() += w;
            } else {
                targets.push(t);
                weights.push(w);
            }
        }
        offsets.push(targets.len() as u64);
    }
    (
        offsets,
        targets,
        weights.iter().map(|w| w.to_bits()).collect(),
    )
}

fn built(vertices: Option<usize>, edges: &[Edge], policy: Policy, threads: usize) -> Arrays {
    let mut builder = GraphBuilder::new()
        .symmetrize(policy.symmetrize)
        .dedup(policy.dedup)
        .drop_self_loops(policy.drop_self_loops);
    if let Some(n) = vertices {
        builder = builder.with_vertices(n);
    }
    builder.extend(edges.iter().copied());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    let (offsets, targets, weights) = pool.install(|| builder.build()).into_raw();
    assert_eq!(offsets.capacity(), offsets.len(), "offsets capacity");
    assert_eq!(targets.capacity(), targets.len(), "targets capacity");
    assert_eq!(weights.capacity(), weights.len(), "weights capacity");
    (
        offsets,
        targets,
        weights.iter().map(|w| w.to_bits()).collect(),
    )
}

/// Checks every policy at 1 and 2 threads; returns the first mismatch.
fn mismatch(vertices: Option<usize>, edges: &[Edge]) -> Option<String> {
    for policy in policies() {
        let expected = reference(vertices, edges, policy);
        for threads in [1, 2] {
            let got = built(vertices, edges, policy, threads);
            if got != expected {
                return Some(format!(
                    "{policy:?} at {threads} thread(s), vertices {vertices:?}:\n\
                     got      {got:?}\nexpected {expected:?}"
                ));
            }
        }
    }
    None
}

/// Up to 40 sources, rows long enough for the sort to leave insertion
/// sort, duplicates and self-loops common, and up to three isolated
/// trailing vertices (or an inferred count).
fn arb_input() -> impl Strategy<Value = (Option<usize>, Vec<Edge>)> {
    (1u32..40, 0usize..5).prop_flat_map(|(n, extra)| {
        proptest::collection::vec((0..n, 0..n, 0usize..WEIGHTS.len()), 0..400).prop_map(
            move |raw| {
                let edges: Vec<Edge> = raw
                    .into_iter()
                    .map(|(u, v, w)| (u, v, WEIGHTS[w]))
                    .collect();
                let vertices = (extra < 4).then_some(n as usize + extra);
                (vertices, edges)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn build_matches_reference_bit_for_bit((vertices, edges) in arb_input()) {
        if let Some(message) = mismatch(vertices, &edges) {
            prop_assert!(false, "{}", message);
        }
    }
}

#[test]
fn empty_list_matches_reference() {
    for vertices in [None, Some(0), Some(3)] {
        assert_eq!(mismatch(vertices, &[]), None);
    }
}

/// A hub row far longer than the sort's small-slice cutoff, whose
/// duplicate weights only sum the same in the sorted order.
#[test]
fn long_duplicate_rows_match_reference() {
    let edges: Vec<Edge> = (0..3000u32)
        .map(|i| (0, 1 + i % 7, WEIGHTS[(i as usize * 5) % WEIGHTS.len()]))
        .collect();
    assert_eq!(mismatch(None, &edges), None);
}
