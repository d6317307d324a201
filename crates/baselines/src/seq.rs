//! Sequential comparators: Leiden in the style of the original
//! `libleidenalg`, and textbook Louvain (Blondel et al. 2008).
//!
//! [`sequential_leiden`]: single-threaded, queue-driven local moving
//! (vertices re-enter the queue when a neighbour moves), randomized
//! proportional refinement (the original paper's constrained merge),
//! sequential aggregation, move-based aggregate partition.
//!
//! [`sequential_louvain`]: the unoptimized single-threaded reference —
//! plain arrays, in-order vertex sweeps, no pruning, no threshold
//! scaling, sequential aggregation.
//!
//! Both are deterministic, which makes them the reference the parallel
//! tests compare quality against, and the speedup denominator for
//! Table 1.

use crate::BaselineResult;
use gve_graph::{CsrGraph, GraphBuilder, VertexId};
use gve_leiden::delta_modularity;
use gve_prim::{CommunityMap, Xorshift32};
use std::collections::VecDeque;

/// Safety cap on sequential Leiden's passes ("run until convergence" in
/// practice).
const LEIDEN_MAX_PASSES: usize = 30;
/// RNG seed for sequential Leiden's randomized refinement.
const LEIDEN_SEED: u32 = 0;
/// Sequential Louvain stops sweeping once an iteration gains no more
/// than this.
const LOUVAIN_TOLERANCE: f64 = 1e-6;
/// Cap on sequential Louvain's passes.
const LOUVAIN_MAX_PASSES: usize = 10;

/// Runs sequential Leiden.
pub fn sequential_leiden(graph: &CsrGraph) -> BaselineResult {
    let n = graph.num_vertices();
    let mut top: Vec<VertexId> = (0..n as VertexId).collect();
    let m = graph.total_arc_weight() / 2.0;
    if n == 0 || m <= 0.0 {
        return BaselineResult {
            num_communities: n,
            membership: top,
            passes: 0,
        };
    }

    let mut rng = Xorshift32::new(LEIDEN_SEED);
    let mut current: Option<CsrGraph> = None;
    let mut init_labels: Option<Vec<VertexId>> = None;
    let mut passes = 0;

    for _ in 0..LEIDEN_MAX_PASSES {
        let g = current.as_ref().unwrap_or(graph);
        let n_cur = g.num_vertices();
        let weights: Vec<f64> = (0..n_cur as VertexId)
            .map(|u| g.weighted_degree(u))
            .collect();

        // ---- Local moving (queue-driven) ----
        let mut membership: Vec<VertexId> = match init_labels.take() {
            Some(labels) => labels,
            None => (0..n_cur as VertexId).collect(),
        };
        let mut sigma = vec![0.0f64; n_cur];
        for (v, &c) in membership.iter().enumerate() {
            sigma[c as usize] += weights[v];
        }
        let mut ht = CommunityMap::new(n_cur);
        let mut queue: VecDeque<VertexId> = (0..n_cur as VertexId).collect();
        let mut in_queue = vec![true; n_cur];
        let mut any_move = false;
        while let Some(i) = queue.pop_front() {
            in_queue[i as usize] = false;
            let current_c = membership[i as usize];
            ht.clear();
            for (j, w) in g.edges(i) {
                if j != i {
                    ht.add(membership[j as usize], w as f64);
                }
            }
            let k_i = weights[i as usize];
            let k_to_current = ht.weight(current_c);
            let mut best: Option<(VertexId, f64)> = None;
            for (d, k_to_d) in ht.iter() {
                if d == current_c {
                    continue;
                }
                let gain = delta_modularity(
                    k_to_d,
                    k_to_current,
                    k_i,
                    sigma[d as usize],
                    sigma[current_c as usize],
                    m,
                );
                if gain > 0.0
                    && best
                        .map(|(bd, bg)| gain > bg || (gain == bg && d < bd))
                        .unwrap_or(true)
                {
                    best = Some((d, gain));
                }
            }
            if let Some((target, _)) = best {
                sigma[current_c as usize] -= k_i;
                sigma[target as usize] += k_i;
                membership[i as usize] = target;
                any_move = true;
                for &j in g.neighbors(i) {
                    if !in_queue[j as usize] && membership[j as usize] != target {
                        in_queue[j as usize] = true;
                        queue.push_back(j);
                    }
                }
            }
        }

        // ---- Randomized constrained-merge refinement ----
        let bounds = membership.clone();
        let mut refined: Vec<VertexId> = (0..n_cur as VertexId).collect();
        let mut refined_sigma = weights.clone();
        let mut candidates: Vec<(VertexId, f64)> = Vec::new();
        let mut any_refine = false;
        for i in 0..n_cur as VertexId {
            let c = refined[i as usize];
            let k_i = weights[i as usize];
            if refined_sigma[c as usize] != k_i {
                continue; // not isolated
            }
            ht.clear();
            for (j, w) in g.edges(i) {
                if j != i && bounds[j as usize] == bounds[i as usize] {
                    ht.add(refined[j as usize], w as f64);
                }
            }
            candidates.clear();
            let k_to_current = ht.weight(c);
            for (d, k_to_d) in ht.iter() {
                if d == c {
                    continue;
                }
                let gain = delta_modularity(
                    k_to_d,
                    k_to_current,
                    k_i,
                    refined_sigma[d as usize],
                    refined_sigma[c as usize],
                    m,
                );
                if gain > 0.0 {
                    candidates.push((d, gain));
                }
            }
            if candidates.is_empty() {
                continue;
            }
            let total: f64 = candidates.iter().map(|&(_, g)| g).sum();
            let mut roll = rng.next_f64() * total;
            let mut target = candidates.last().unwrap().0;
            for &(d, g) in &candidates {
                roll -= g;
                if roll < 0.0 {
                    target = d;
                    break;
                }
            }
            refined_sigma[c as usize] -= k_i;
            refined_sigma[target as usize] += k_i;
            refined[i as usize] = target;
            any_refine = true;
        }

        // ---- Dendrogram + convergence ----
        let (dense, k) = gve_leiden::dendrogram::renumber(&refined);
        for c in top.iter_mut() {
            *c = dense[*c as usize];
        }
        passes += 1;
        if !any_move && !any_refine {
            break;
        }
        if k == n_cur {
            break;
        }

        // ---- Sequential aggregation + move-based labels ----
        current = Some(aggregate_sequential(g, &dense, k));
        let mut label_of = vec![VertexId::MAX; k];
        for v in 0..n_cur {
            label_of[dense[v] as usize] = bounds[v];
        }
        let (next_init, _) = gve_leiden::dendrogram::renumber(&label_of);
        init_labels = Some(next_init);
    }

    let (final_membership, num_communities) = gve_leiden::dendrogram::renumber(&top);
    BaselineResult {
        membership: final_membership,
        num_communities,
        passes,
    }
}

/// Runs sequential Louvain with the classic stopping rule: sweep until
/// an iteration produces no improvement above the tolerance, aggregate,
/// repeat until a pass changes nothing or the pass cap is hit.
pub fn sequential_louvain(graph: &CsrGraph) -> BaselineResult {
    let n = graph.num_vertices();
    let mut top: Vec<VertexId> = (0..n as VertexId).collect();
    let m = graph.total_arc_weight() / 2.0;
    if n == 0 || m <= 0.0 {
        return BaselineResult {
            num_communities: n,
            membership: top,
            passes: 0,
        };
    }

    let mut current: Option<CsrGraph> = None;
    let mut passes = 0;
    for _ in 0..LOUVAIN_MAX_PASSES {
        let g = current.as_ref().unwrap_or(graph);
        let n_cur = g.num_vertices();
        let weights: Vec<f64> = (0..n_cur as VertexId)
            .map(|u| g.weighted_degree(u))
            .collect();
        let mut membership: Vec<VertexId> = (0..n_cur as VertexId).collect();
        let mut sigma = weights.clone();
        let mut ht = CommunityMap::new(n_cur);

        // Local-moving sweeps.
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            let mut delta_q = 0.0;
            for i in 0..n_cur as VertexId {
                let current_c = membership[i as usize];
                ht.clear();
                for (j, w) in g.edges(i) {
                    if j != i {
                        ht.add(membership[j as usize], w as f64);
                    }
                }
                let k_i = weights[i as usize];
                let k_to_current = ht.weight(current_c);
                let mut best: Option<(VertexId, f64)> = None;
                for (d, k_to_d) in ht.iter() {
                    if d == current_c {
                        continue;
                    }
                    let gain = delta_modularity(
                        k_to_d,
                        k_to_current,
                        k_i,
                        sigma[d as usize],
                        sigma[current_c as usize],
                        m,
                    );
                    if best
                        .map(|(bd, bg)| gain > bg || (gain == bg && d < bd))
                        .unwrap_or(true)
                    {
                        best = Some((d, gain));
                    }
                }
                if let Some((target, gain)) = best {
                    if gain > 0.0 {
                        sigma[current_c as usize] -= k_i;
                        sigma[target as usize] += k_i;
                        membership[i as usize] = target;
                        delta_q += gain;
                    }
                }
            }
            if delta_q <= LOUVAIN_TOLERANCE {
                break;
            }
        }

        // Renumber, update the dendrogram.
        let (dense, k) = gve_leiden::dendrogram::renumber(&membership);
        for c in top.iter_mut() {
            *c = dense[*c as usize];
        }
        passes += 1;
        if iterations <= 1 || k == n_cur {
            break;
        }

        // Sequential aggregation via the same collision-free map.
        current = Some(aggregate_sequential(g, &dense, k));
    }

    let (final_membership, num_communities) = gve_leiden::dendrogram::renumber(&top);
    BaselineResult {
        membership: final_membership,
        num_communities,
        passes,
    }
}

/// Sequentially collapses communities into super-vertices (same weight
/// conventions as the parallel aggregation).
fn aggregate_sequential(
    graph: &CsrGraph,
    membership: &[VertexId],
    num_communities: usize,
) -> CsrGraph {
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); num_communities];
    for (v, &c) in membership.iter().enumerate() {
        members[c as usize].push(v as VertexId);
    }
    let mut ht = CommunityMap::new(num_communities);
    let mut builder = GraphBuilder::new()
        .with_vertices(num_communities)
        .symmetrize(false)
        .dedup(false);
    for (c, group) in members.iter().enumerate() {
        ht.clear();
        for &i in group {
            for (j, w) in graph.edges(i) {
                ht.add(membership[j as usize], w as f64);
            }
        }
        for (d, w) in ht.iter() {
            builder.add_edge(c as VertexId, d, w as f32);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles() -> CsrGraph {
        GraphBuilder::from_edges(
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
        )
    }

    #[test]
    fn finds_the_triangles() {
        let r = sequential_leiden(&two_triangles());
        assert_eq!(r.num_communities, 2);
        assert_eq!(r.membership[0], r.membership[2]);
        assert_ne!(r.membership[0], r.membership[3]);
    }

    #[test]
    fn is_deterministic() {
        let g = gve_generate::rmat::Rmat::web(9, 4.0).seed(3).generate();
        let a = sequential_leiden(&g);
        let b = sequential_leiden(&g);
        assert_eq!(a.membership, b.membership);
    }

    #[test]
    fn communities_are_connected() {
        let g = gve_generate::rmat::Rmat::social(10, 5.0).seed(6).generate();
        let r = sequential_leiden(&g);
        let report = gve_quality::disconnected_communities(&g, &r.membership);
        assert!(report.all_connected(), "{report:?}");
    }

    #[test]
    fn recovers_planted_partition() {
        let planted = gve_generate::sbm::PlantedPartition::new(1000, 8, 12.0, 1.0)
            .seed(1)
            .generate();
        let r = sequential_leiden(&planted.graph);
        let nmi = gve_quality::normalized_mutual_information(&r.membership, &planted.labels);
        assert!(nmi > 0.85, "NMI {nmi}");
    }

    #[test]
    fn quality_matches_parallel_leiden() {
        let g = gve_generate::rmat::Rmat::web(10, 6.0).seed(2).generate();
        let q_seq = gve_quality::modularity(&g, &sequential_leiden(&g).membership);
        let q_par = gve_quality::modularity(&g, &gve_leiden::leiden(&g).membership);
        assert!(
            (q_seq - q_par).abs() < 0.05,
            "seq {q_seq} vs parallel {q_par}"
        );
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(sequential_leiden(&CsrGraph::empty(0)).passes, 0);
        let r = sequential_leiden(&CsrGraph::empty(3));
        assert_eq!(r.membership, vec![0, 1, 2]);
        assert_eq!(sequential_louvain(&CsrGraph::empty(0)).passes, 0);
        let r = sequential_louvain(&CsrGraph::empty(4));
        assert_eq!(r.membership, vec![0, 1, 2, 3]);
    }

    #[test]
    fn louvain_finds_the_triangles() {
        let r = sequential_louvain(&two_triangles());
        assert_eq!(r.num_communities, 2);
        assert_eq!(r.membership[0], r.membership[1]);
        assert_ne!(r.membership[0], r.membership[5]);
    }

    #[test]
    fn louvain_is_deterministic() {
        let g = gve_generate::rmat::Rmat::web(9, 4.0).seed(8).generate();
        let a = sequential_louvain(&g);
        let b = sequential_louvain(&g);
        assert_eq!(a.membership, b.membership);
    }

    #[test]
    fn louvain_quality_matches_parallel_ballpark() {
        let g = gve_generate::sbm::PlantedPartition::new(800, 8, 12.0, 1.0)
            .seed(2)
            .generate()
            .graph;
        let q_seq = gve_quality::modularity(&g, &sequential_louvain(&g).membership);
        let q_par = gve_quality::modularity(&g, &gve_leiden::louvain(&g).membership);
        assert!((q_seq - q_par).abs() < 0.1, "seq {q_seq} vs par {q_par}");
    }

    #[test]
    fn sequential_aggregation_preserves_weight() {
        let g = two_triangles();
        let sup = aggregate_sequential(&g, &[0, 0, 0, 1, 1, 1], 2);
        assert_eq!(sup.num_vertices(), 2);
        assert_eq!(sup.total_arc_weight(), g.total_arc_weight());
    }
}
