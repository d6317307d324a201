//! The aggregation phase (Algorithm 4 of the paper).
//!
//! Collapses each refined community into a super-vertex. Two CSRs are
//! built per pass:
//!
//! 1. the community-vertices CSR `G'_{C'}` (exact counts + prefix sum +
//!    atomic scatter) — [`gve_graph::GroupedCsr`];
//! 2. the super-vertex graph `G''` in a *holey* CSR whose per-community
//!    capacity is overestimated by the community's total degree, skipping
//!    an exact counting pass. Its slot arrays are squeezed in place and
//!    become the returned graph ([`gve_graph::AggregateScratch`]).
//!
//! Cross-community weights are tallied in the per-thread collision-free
//! hashtable, then flushed as super-arcs (including the `(c, c)`
//! self-loop carrying the intra-community weight `σ_c`).

use crate::localmove::scan_communities;
use gve_graph::{AggregateScratch, CsrGraph, VertexId};
use gve_prim::parfor::{dynamic_workers, DEFAULT_CHUNK};
use gve_prim::scan::parallel_offsets_from_counts;
use gve_prim::{CommunityMap, HashScanMap, PerThread};
use std::sync::atomic::{AtomicU32, Ordering};

/// Communities per claim of the per-community scan: a quarter of the
/// phase loops' chunk, since a community carries several vertices'
/// arcs.
const AGGREGATE_CHUNK: usize = DEFAULT_CHUNK / 4;

/// Builds the super-vertex graph for a dense membership in
/// `0..num_communities`.
///
/// One-shot convenience wrapper over [`aggregate_into`] with a
/// throwaway scratch; the pass loop holds a [`AggregateScratch`] in its
/// workspace and calls [`aggregate_into`] directly. The returned
/// graph's arrays keep the holey slot capacity (the input's arcs).
pub fn aggregate(
    graph: &CsrGraph,
    membership: &[AtomicU32],
    membership_plain: &[VertexId],
    num_communities: usize,
    tables: &PerThread<CommunityMap>,
    small_threshold: Option<usize>,
) -> CsrGraph {
    let mut scratch = AggregateScratch::new();
    aggregate_into(
        graph,
        membership,
        membership_plain,
        num_communities,
        tables,
        small_threshold,
        &mut scratch,
    )
}

/// Builds the super-vertex graph into (and out of) a reusable
/// [`AggregateScratch`]: the grouped-CSR counting sweep also folds each
/// community's total degree (the holey capacity), and the holey slot
/// arrays, taken from a previously retired supergraph, are squeezed in
/// place into the result — zero steady-state allocation.
///
/// `small_threshold` enables the two-tier scan: communities whose total
/// degree (the holey-CSR capacity) fits the bound are tallied in a
/// stack-resident [`HashScanMap`] instead of the per-thread table —
/// total degree bounds the distinct neighbour communities, so a bound
/// ≤ [`gve_prim::HASH_SCAN_CAP`] cannot overflow the map. Both maps
/// flush in insertion order, so the tier changes no row's arc order or
/// weight bits. `None` keeps every community on the table path.
#[allow(clippy::too_many_arguments)]
pub fn aggregate_into(
    graph: &CsrGraph,
    membership: &[AtomicU32],
    membership_plain: &[VertexId],
    num_communities: usize,
    tables: &PerThread<CommunityMap>,
    small_threshold: Option<usize>,
    scratch: &mut AggregateScratch,
) -> CsrGraph {
    // Community-vertices CSR fused with the capacity overestimates
    // (Algorithm 4, lines 3–6 and 8–9 in one sweep). A community of
    // isolated vertices has total degree 0 and emits no arcs, so 0
    // capacity is fine.
    scratch.prepare(membership_plain, num_communities, |i| {
        graph.degree(i as VertexId) as u64
    });

    // Per-community scans (lines 11–16), dynamically scheduled since
    // community sizes are wildly skewed.
    let small_cap = small_threshold.map(|t| t as u64);
    let shared = &*scratch;
    dynamic_workers(num_communities, AGGREGATE_CHUNK, |claims| {
        tables.with(|ht| {
            let mut small = HashScanMap::new();
            for range in claims {
                for c in range {
                    let c = c as VertexId;
                    let cap = shared.capacity(c);
                    if small_cap.is_some_and(|t| cap <= t) {
                        // Low-degree tier: the community's total degree
                        // bounds the arcs scanned, hence the distinct
                        // target communities.
                        small.clear();
                        for &i in shared.members(c) {
                            for (j, w) in graph.edges(i) {
                                // Relaxed: membership is frozen here —
                                // the join ending refine/local-move
                                // already published every store.
                                let d = membership[j as usize].load(Ordering::Relaxed);
                                small.add_with(d, w as f64, |_| 0.0);
                            }
                        }
                        for (&d, &w) in small.keys().iter().zip(small.weights()) {
                            shared.add_arc(c, d, w as f32);
                        }
                        continue;
                    }
                    ht.clear();
                    for &i in shared.members(c) {
                        // include_self = true: self-loops carry intra
                        // weight into the super-vertex self-loop.
                        scan_communities(ht, graph, membership, i, true);
                    }
                    for (d, w) in ht.iter() {
                        shared.add_arc(c, d, w as f32);
                    }
                }
            }
        })
    });

    scratch.squeeze()
}

/// Sort-reduce aggregation: the alternative design the paper's related
/// work cites (Cheong et al. \[4\]). Every arc is rewritten as a
/// community-pair record, the records are parallel-sorted, and equal
/// pairs are reduced into super-arcs in a single pass. No per-thread
/// hashtables, no holey CSR — at the cost of materializing and sorting
/// all |E| records.
pub fn aggregate_sort_reduce(
    graph: &CsrGraph,
    membership_plain: &[VertexId],
    num_communities: usize,
) -> CsrGraph {
    // 1. Rewrite arcs as (src community, dst community, weight).
    let mut records: Vec<(VertexId, VertexId, f32)> = (0..graph.num_vertices() as VertexId)
        .flat_map(|u| {
            let cu = membership_plain[u as usize];
            graph
                .edges(u)
                .map(move |(v, w)| (cu, membership_plain[v as usize], w))
        })
        .collect();

    // 2. Sort by community pair.
    records.sort_unstable_by_key(|&(s, d, _)| ((s as u64) << 32) | d as u64);

    // 3. Reduce equal runs; accumulate per-community arc counts as we go.
    let mut counts = vec![0u64; num_communities];
    let mut reduced: Vec<(VertexId, VertexId, f32)> = Vec::new();
    for &(s, d, w) in &records {
        match reduced.last_mut() {
            Some(last) if last.0 == s && last.1 == d => last.2 += w,
            _ => {
                counts[s as usize] += 1;
                reduced.push((s, d, w));
            }
        }
    }

    // 4. Assemble the CSR directly — the reduced records are already in
    // row order.
    let offsets = parallel_offsets_from_counts(&counts);
    let mut targets = Vec::with_capacity(reduced.len());
    let mut weights = Vec::with_capacity(reduced.len());
    for (_, d, w) in reduced {
        targets.push(d);
        weights.push(w);
    }
    CsrGraph::from_raw(offsets, targets, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gve_graph::GraphBuilder;
    use gve_prim::PerThread;

    fn atomic_membership(plain: &[u32]) -> Vec<AtomicU32> {
        plain.iter().map(|&c| AtomicU32::new(c)).collect()
    }

    fn run_aggregate(graph: &CsrGraph, membership: &[u32], k: usize) -> CsrGraph {
        let atomic = atomic_membership(membership);
        let tables = PerThread::new({
            let n = graph.num_vertices().max(k);
            move || CommunityMap::new(n)
        });
        aggregate(graph, &atomic, membership, k, &tables, None)
    }

    /// The stack tier emits every row exactly as the table path does:
    /// same arcs, same order, same weight bits.
    #[test]
    fn two_tier_matches_table_only_aggregation() {
        let graph = gve_generate::sbm::PlantedPartition::new(500, 8, 10.0, 1.5)
            .seed(21)
            .generate()
            .graph;
        // Fine partition → plenty of low-total-degree communities that
        // take the stack tier.
        let membership: Vec<u32> = (0..500u32).map(|v| v % 100).collect();
        let atomic = atomic_membership(&membership);
        let tables = PerThread::new(|| CommunityMap::new(500));
        let table = aggregate(&graph, &atomic, &membership, 100, &tables, None);
        let two_tier = aggregate(
            &graph,
            &atomic,
            &membership,
            100,
            &tables,
            Some(gve_prim::HASH_SCAN_CAP),
        );
        assert_eq!(table.num_vertices(), two_tier.num_vertices());
        assert_eq!(table.num_arcs(), two_tier.num_arcs());
        let mut stacked = 0;
        for c in 0..100u32 {
            let a: Vec<_> = table.edges(c).map(|(d, w)| (d, w.to_bits())).collect();
            let b: Vec<_> = two_tier.edges(c).map(|(d, w)| (d, w.to_bits())).collect();
            assert_eq!(a, b, "community {c}");
            let total_degree: usize = (0..500u32)
                .filter(|&v| membership[v as usize] == c)
                .map(|v| graph.degree(v))
                .sum();
            stacked += usize::from(total_degree <= gve_prim::HASH_SCAN_CAP);
        }
        assert!(stacked > 0, "no community took the stack tier");
    }

    /// One membership yields one supergraph — offsets, targets and
    /// weight bits — at every thread count: `prepare` lists members in
    /// ascending order, and each community's row is built by one worker
    /// in member order.
    #[test]
    fn supergraph_is_identical_at_every_thread_count() {
        let graph = gve_generate::rmat::Rmat::social(12, 8.0).seed(5).generate();
        let n = graph.num_vertices();
        let membership: Vec<u32> = (0..n as u32).map(|v| (v * 7919) % 613).collect();
        let atomic = atomic_membership(&membership);
        let build = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let tables = PerThread::new(move || CommunityMap::new(n));
                let mut scratch = AggregateScratch::new();
                let sup = aggregate_into(
                    &graph,
                    &atomic,
                    &membership,
                    613,
                    &tables,
                    Some(crate::SMALL_DEGREE_THRESHOLD),
                    &mut scratch,
                );
                let (offsets, targets, weights) = sup.into_raw();
                let bits: Vec<u32> = weights.iter().map(|w| w.to_bits()).collect();
                (offsets, targets, bits)
            })
        };
        let one = build(1);
        assert_eq!(build(2), one);
        assert_eq!(build(3), one);
    }

    #[test]
    fn two_triangles_collapse_to_two_super_vertices() {
        let graph = GraphBuilder::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 3, 1.0),
                (2, 3, 1.0),
            ],
        );
        let sup = run_aggregate(&graph, &[0, 0, 0, 1, 1, 1], 2);
        assert_eq!(sup.num_vertices(), 2);
        // Self-loops carry σ_c = 6 (each triangle's arcs), bridge = 1.
        let mut e0: Vec<_> = sup.edges(0).collect();
        e0.sort_by_key(|&(v, _)| v);
        assert_eq!(e0, vec![(0, 6.0), (1, 1.0)]);
        let mut e1: Vec<_> = sup.edges(1).collect();
        e1.sort_by_key(|&(v, _)| v);
        assert_eq!(e1, vec![(0, 1.0), (1, 6.0)]);
    }

    #[test]
    fn total_weight_is_preserved() {
        let graph = gve_generate::rmat::Rmat::social(9, 6.0).seed(4).generate();
        let n = graph.num_vertices();
        // Arbitrary 7-way partition.
        let membership: Vec<u32> = (0..n as u32).map(|v| v % 7).collect();
        let sup = run_aggregate(&graph, &membership, 7);
        assert_eq!(sup.num_vertices(), 7);
        assert!(
            (sup.total_arc_weight() - graph.total_arc_weight()).abs() < 1e-6,
            "2m changed: {} vs {}",
            sup.total_arc_weight(),
            graph.total_arc_weight()
        );
    }

    #[test]
    fn modularity_invariant_under_aggregation() {
        // Q(partition on G) == Q(singletons on aggregated G) — the
        // correctness condition Louvain/Leiden rely on.
        let graph = gve_generate::sbm::PlantedPartition::new(300, 6, 8.0, 1.0)
            .seed(2)
            .generate()
            .graph;
        let membership: Vec<u32> = (0..300u32).map(|v| v % 6).collect();
        let sup = run_aggregate(&graph, &membership, 6);
        let q_fine = gve_quality::modularity(&graph, &membership);
        let singleton: Vec<u32> = (0..6).collect();
        let q_coarse = gve_quality::modularity(&sup, &singleton);
        assert!(
            (q_fine - q_coarse).abs() < 1e-9,
            "Q not preserved: {q_fine} vs {q_coarse}"
        );
    }

    #[test]
    fn weighted_degrees_sum_per_community() {
        let graph = GraphBuilder::from_edges(4, &[(0, 1, 2.0), (2, 3, 3.0), (1, 2, 1.0)]);
        let sup = run_aggregate(&graph, &[0, 0, 1, 1], 2);
        assert_eq!(
            sup.weighted_degree(0),
            graph.weighted_degree(0) + graph.weighted_degree(1)
        );
        assert_eq!(
            sup.weighted_degree(1),
            graph.weighted_degree(2) + graph.weighted_degree(3)
        );
    }

    #[test]
    fn singleton_partition_reproduces_graph_weights() {
        let graph = GraphBuilder::from_edges(3, &[(0, 1, 1.5), (1, 2, 2.5)]);
        let membership: Vec<u32> = (0..3).collect();
        let sup = run_aggregate(&graph, &membership, 3);
        assert_eq!(sup.num_vertices(), 3);
        assert_eq!(sup.num_arcs(), graph.num_arcs());
        assert_eq!(sup.total_arc_weight(), graph.total_arc_weight());
    }

    #[test]
    fn sort_reduce_matches_hashtable_aggregation() {
        let graph = gve_generate::sbm::PlantedPartition::new(500, 8, 10.0, 1.5)
            .seed(7)
            .generate()
            .graph;
        let membership: Vec<u32> = (0..500u32).map(|v| v % 8).collect();
        let by_hash = run_aggregate(&graph, &membership, 8);
        let by_sort = aggregate_sort_reduce(&graph, &membership, 8);
        assert_eq!(by_sort.num_vertices(), by_hash.num_vertices());
        assert_eq!(by_sort.num_arcs(), by_hash.num_arcs());
        assert!((by_sort.total_arc_weight() - by_hash.total_arc_weight()).abs() < 1e-6);
        // Same rows up to arc order.
        for c in 0..8u32 {
            let mut a: Vec<_> = by_sort.edges(c).collect();
            let mut b: Vec<_> = by_hash.edges(c).collect();
            a.sort_by_key(|&(v, _)| v);
            b.sort_by_key(|&(v, _)| v);
            assert_eq!(a.len(), b.len(), "community {c}");
            for ((va, wa), (vb, wb)) in a.iter().zip(&b) {
                assert_eq!(va, vb);
                assert!((wa - wb).abs() < 1e-4, "community {c}: {wa} vs {wb}");
            }
        }
    }

    #[test]
    fn sort_reduce_preserves_modularity() {
        let graph = gve_generate::rmat::Rmat::web(9, 6.0).seed(2).generate();
        let n = graph.num_vertices();
        let membership: Vec<u32> = (0..n as u32).map(|v| v % 11).collect();
        let sup = aggregate_sort_reduce(&graph, &membership, 11);
        let singleton: Vec<u32> = (0..11).collect();
        let q_fine = gve_quality::modularity(&graph, &membership);
        let q_coarse = gve_quality::modularity(&sup, &singleton);
        assert!((q_fine - q_coarse).abs() < 1e-9);
    }

    #[test]
    fn isolated_community_gets_no_arcs() {
        let graph = GraphBuilder::from_edges(3, &[(0, 1, 1.0)]);
        let sup = run_aggregate(&graph, &[0, 0, 1], 2);
        assert_eq!(sup.num_vertices(), 2);
        assert_eq!(sup.degree(1), 0);
        assert_eq!(sup.edges(0).collect::<Vec<_>>(), vec![(0, 2.0)]);
    }
}
