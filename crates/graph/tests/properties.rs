//! Property-based tests of the graph substrate.

use gve_graph::holey::{AggregateHosts, AggregateScratch, GroupedCsr};
use gve_graph::{io, CsrGraph, GraphBuilder};
use gve_prim::parfor::static_for;
use proptest::prelude::*;

fn arb_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32, f32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 1u32..5), 0..max_m).prop_map(move |edges| {
            (
                n,
                edges
                    .into_iter()
                    .map(|(u, v, w)| (u, v, w as f32))
                    .collect(),
            )
        })
    })
}

/// One element of an aggregation epoch: its group, its degree (its
/// share of the group's slot capacity) and the arcs it emits, at most
/// its degree.
#[derive(Debug, Clone)]
struct Element {
    key: u32,
    degree: u32,
    emit: u32,
    target: u32,
    weight: u32,
}

#[derive(Debug, Clone)]
struct Epoch {
    num_groups: usize,
    elements: Vec<Element>,
    /// Arc count of a dirty foreign graph recycled before the epoch,
    /// relative to what the epoch needs.
    foreign: Option<i64>,
}

fn arb_epochs() -> impl Strategy<Value = Vec<Epoch>> {
    let epoch = (1usize..12).prop_flat_map(|num_groups| {
        let element = (0..num_groups as u32, 0u32..5, 0u32..5, 0u32..64, 1u32..5).prop_map(
            |(key, degree, emit, target, weight)| Element {
                key,
                degree,
                emit: emit.min(degree),
                target,
                weight,
            },
        );
        (proptest::collection::vec(element, 0..40), 0u32..2, 0i64..7).prop_map(
            move |(elements, has_foreign, delta)| Epoch {
                num_groups,
                elements,
                foreign: (has_foreign == 1).then_some(delta - 3),
            },
        )
    });
    proptest::collection::vec(epoch, 3..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The builder always yields a structurally valid, symmetric,
    /// sorted-and-deduplicated CSR.
    #[test]
    fn builder_output_is_clean((n, edges) in arb_edges(80, 300)) {
        let g = GraphBuilder::from_edges(n as usize, &edges);
        g.validate().unwrap();
        prop_assert!(g.is_symmetric());
        for u in 0..g.num_vertices() as u32 {
            let nb = g.neighbors(u);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "vertex {} not clean", u);
        }
        // Total weight = 2 × Σ non-loop weights + Σ loop weights.
        let loops: f64 = edges.iter().filter(|&&(u, v, _)| u == v).map(|&(_, _, w)| w as f64).sum();
        let nonloops: f64 = edges.iter().filter(|&&(u, v, _)| u != v).map(|&(_, _, w)| w as f64).sum();
        prop_assert!((g.total_arc_weight() - (2.0 * nonloops + loops)).abs() < 1e-6);
    }

    /// Matrix Market and binary formats round-trip any built graph.
    #[test]
    fn io_roundtrips((n, edges) in arb_edges(50, 150)) {
        let g = GraphBuilder::from_edges(n as usize, &edges);
        let mut mtx = Vec::new();
        io::write_matrix_market(&g, &mut mtx).unwrap();
        prop_assert_eq!(io::read_matrix_market(mtx.as_slice()).unwrap(), g.clone());
        let bin = io::binary::encode(&g);
        prop_assert_eq!(io::binary::decode(&bin).unwrap(), g);
    }

    /// The in-place squeeze reproduces a naive per-row build exactly
    /// (row order and weight bits), epoch after epoch, whatever dirty
    /// buffers the scratch was handed back: retired supergraphs kept
    /// live for one epoch as in the pass loop, and foreign graphs
    /// smaller than, equal to or larger than the next epoch needs. Each
    /// epoch fills the smallest spare set that holds it, or one grown to
    /// exactly its size. The borrowed hosts are reused too, so every
    /// epoch after the first starts on the last one's leftovers.
    #[test]
    fn squeeze_matches_naive_rows_across_epochs(epochs in arb_epochs()) {
        let mut scratch = AggregateScratch::new();
        let mut live: Option<CsrGraph> = None;
        let (mut cursors, mut members, mut holey_offsets) = (Vec::new(), Vec::new(), Vec::new());
        for Epoch { num_groups, elements, foreign } in epochs {
            let keys: Vec<u32> = elements.iter().map(|e| e.key).collect();
            let need: usize = elements.iter().map(|e| e.degree as usize).sum();
            if let Some(delta) = foreign {
                let arcs = (need as i64 + delta).max(0) as usize;
                scratch.recycle(CsrGraph::from_raw(vec![0, arcs as u64], vec![0; arcs], vec![9.5; arcs]));
            }
            let fitting = scratch.spare_capacities().into_iter().find(|&c| c >= need);

            cursors.resize_with(cursors.len().max(num_groups), Default::default);
            members.resize(members.len().max(keys.len()), 0);
            holey_offsets.resize_with(holey_offsets.len().max(num_groups + 1), Default::default);
            let hosts = AggregateHosts {
                cursors: &mut cursors,
                members: &mut members,
                holey_offsets: &mut holey_offsets,
            };
            let epoch = scratch.prepare(hosts, &keys, num_groups, |i| elements[i].degree as u64);
            let mut rows: Vec<Vec<(u32, f32)>> = vec![Vec::new(); num_groups];
            for (i, e) in elements.iter().enumerate() {
                for j in 0..e.emit {
                    let target = (e.target + j) % num_groups as u32;
                    let weight = e.weight as f32 + j as f32 * 0.25 + i as f32;
                    rows[e.key as usize].push((target, weight));
                }
            }
            // One writer per row, rows written concurrently, as the
            // aggregation's per-community workers do.
            let written: Vec<std::sync::Mutex<(usize, f64)>> =
                (0..num_groups).map(|_| std::sync::Mutex::new((0, 0.0))).collect();
            static_for(num_groups, |u| {
                *written[u].lock().unwrap() = epoch.write_row(u as u32, rows[u].iter().copied());
            });
            let graph = epoch.squeeze();
            // Each row's length and weighted degree come back from its
            // write, bit-identical to what the squeezed graph reports.
            for (u, cell) in written.iter().enumerate() {
                let (len, weighted) = *cell.lock().unwrap();
                prop_assert_eq!(len, graph.degree(u as u32));
                prop_assert_eq!(weighted.to_bits(), graph.weighted_degree(u as u32).to_bits());
            }
            let rows: Vec<Vec<(u32, u32)>> = rows
                .iter()
                .map(|row| row.iter().map(|&(v, w)| (v, w.to_bits())).collect())
                .collect();

            graph.validate().unwrap();
            prop_assert_eq!(graph.num_vertices(), num_groups);
            for (u, row) in rows.iter().enumerate() {
                let got: Vec<_> = graph.edges(u as u32).map(|(v, w)| (v, w.to_bits())).collect();
                prop_assert_eq!(&got, row, "row {} differs", u);
            }
            let (offsets, targets, weights) = graph.into_raw();
            if need > 0 {
                prop_assert_eq!(targets.capacity(), fitting.unwrap_or(need));
            }
            let graph = CsrGraph::from_raw(offsets, targets, weights);
            if let Some(retired) = live.replace(graph) {
                scratch.recycle(retired);
            }
        }
    }

    /// group_by produces an exact partition of the elements.
    #[test]
    fn group_by_is_a_partition(keys in proptest::collection::vec(0u32..20, 0..500)) {
        let groups = GroupedCsr::group_by(&keys, 20);
        prop_assert_eq!(groups.num_members(), keys.len());
        let mut seen = vec![false; keys.len()];
        for g in 0..20u32 {
            for &member in groups.members(g) {
                prop_assert_eq!(keys[member as usize], g);
                prop_assert!(!seen[member as usize], "member {} twice", member);
                seen[member as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Connected components agree with BFS reachability from every
    /// component representative.
    #[test]
    fn components_agree_with_bfs((n, edges) in arb_edges(60, 120)) {
        let g = GraphBuilder::from_edges(n as usize, &edges);
        let (comp, count) = gve_graph::traversal::connected_components(&g);
        prop_assert_eq!(comp.len(), g.num_vertices());
        if g.num_vertices() > 0 {
            prop_assert_eq!(*comp.iter().max().unwrap() as usize + 1, count);
            let dist = gve_graph::traversal::bfs_distances(&g, 0);
            for v in 0..g.num_vertices() {
                prop_assert_eq!(comp[v] == comp[0], dist[v] != u32::MAX);
            }
        }
    }

    /// Vertex weights sum to the total arc weight.
    #[test]
    fn weights_are_consistent((n, edges) in arb_edges(60, 200)) {
        let g = GraphBuilder::from_edges(n as usize, &edges);
        let k = gve_graph::props::vertex_weights(&g);
        let total: f64 = k.iter().sum();
        prop_assert!((total - g.total_arc_weight()).abs() < 1e-6);
        prop_assert!(
            (gve_graph::props::total_edge_weight(&g) - total / 2.0).abs() < 1e-9
        );
    }
}

#[test]
fn empty_graph_edge_cases() {
    let g = CsrGraph::empty(0);
    assert!(g.is_symmetric());
    let (comp, count) = gve_graph::traversal::connected_components(&g);
    assert!(comp.is_empty());
    assert_eq!(count, 0);
}
