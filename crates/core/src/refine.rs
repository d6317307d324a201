//! The refinement phase (Algorithm 3 of the paper).
//!
//! After the local-moving phase, every vertex is reset to a singleton
//! community and allowed one *constrained merge*: it may only join a
//! community inside its local-moving community (its *community bound*
//! `C'_B`), and only while it is still *isolated* — i.e. nothing has
//! merged into it. Isolation is claimed with the exact compare-and-swap
//! `Σ'[c]: K'[i] → 0` from the paper, which is what splits
//! internally-disconnected local-moving communities and prevents new
//! ones from forming.
//!
//! Two strategies are implemented (§4.1): *greedy* (maximum
//! delta-modularity, the paper's recommendation) and *random*
//! (probability proportional to delta-modularity via xorshift32, the
//! original Leiden behaviour).

use crate::config::{LeidenConfig, RefinementStrategy};
use crate::objective::GainCoeffs;
use gve_graph::{CsrGraph, VertexId};
use gve_prim::atomics::AtomicF64;
use gve_prim::parfor::{dynamic_workers, DEFAULT_CHUNK};
use gve_prim::{CommunityMap, HashScanMap, PerThread, Xorshift32};
use std::sync::atomic::{AtomicU32, Ordering};

/// Scans the communities adjacent to `i` *within the same community
/// bound* (`scanBounded` of Algorithm 3).
#[inline]
fn scan_bounded(
    ht: &mut CommunityMap,
    graph: &CsrGraph,
    bounds: &[VertexId],
    membership: &[AtomicU32],
    i: VertexId,
) {
    let bound = bounds[i as usize];
    for (j, w) in graph.edges(i) {
        if j == i || bounds[j as usize] != bound {
            continue;
        }
        // Relaxed: stale neighbor communities are tolerated by the
        // asynchronous design; the CAS claim below is what isolates
        // the actual merge.
        ht.add(membership[j as usize].load(Ordering::Relaxed), w as f64);
    }
}

/// Runs the refinement phase; returns the number of vertices that
/// changed community (the paper's `l_j`) plus the chunks the phase
/// claimed (`n.div_ceil(DEFAULT_CHUNK)`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine(
    graph: &CsrGraph,
    bounds: &[VertexId],
    membership: &[AtomicU32],
    penalty: &[f64],
    sigma: &[AtomicF64],
    coeffs: GainCoeffs,
    config: &LeidenConfig,
    tables: &PerThread<CommunityMap>,
    pass_seed: u64,
) -> (u64, u64) {
    let n = graph.num_vertices();

    let results = dynamic_workers(n, DEFAULT_CHUNK, |claims| {
        tables.with(|ht| {
            let mut hash = HashScanMap::new();
            let mut candidates: Vec<(VertexId, f64)> = Vec::new();
            let mut moves = 0u64;
            for range in claims {
                for i in range {
                    // Relaxed: `i` moves only via this worker; the Σ'
                    // CAS below carries the cross-thread claim.
                    let current = membership[i].load(Ordering::Relaxed);
                    let p_i = penalty[i];
                    // Only isolated vertices may merge (constrained
                    // merge); bit-exact equality is intended — Σ' was
                    // stored from this same value.
                    if sigma[current as usize].load() != p_i {
                        continue;
                    }
                    let i = i as VertexId;
                    let target = match config.refinement {
                        // Greedy goes through the degree-aware dispatch
                        // (stack tier for low-degree vertices); random
                        // stays on the table path, whose proportional
                        // draw needs the full candidate set.
                        RefinementStrategy::Greedy => crate::kernel::best_move(
                            ht,
                            &mut hash,
                            graph,
                            membership,
                            Some(bounds),
                            i,
                            current,
                            p_i,
                            sigma,
                            coeffs,
                        )
                        .map(|(t, _)| t),
                        RefinementStrategy::Random => {
                            ht.clear();
                            scan_bounded(ht, graph, bounds, membership, i);
                            choose_proportional(
                                ht,
                                current,
                                p_i,
                                sigma,
                                coeffs,
                                &mut candidates,
                                &mut Xorshift32::new(crate::stream_seed(
                                    pass_seed ^ config.seed,
                                    i as u64,
                                )),
                            )
                        }
                    };
                    let Some(target) = target else { continue };
                    if target == current {
                        continue;
                    }
                    // Claim isolation: Σ'[current] goes K_i → 0 exactly
                    // once; a concurrent joiner breaks the claim.
                    if sigma[current as usize].compare_exchange(p_i, 0.0).is_ok() {
                        let previous = sigma[target as usize].fetch_add(p_i);
                        if previous == 0.0 {
                            // The target community's founder left in the
                            // same instant; joining would strand us in an
                            // empty community. Undo both sides (adds, not
                            // stores, so concurrent joiners of *our*
                            // community stay consistent) and remain
                            // singleton.
                            sigma[target as usize].fetch_sub(p_i);
                            sigma[current as usize].fetch_add(p_i);
                        } else {
                            // Relaxed: scanners tolerate staleness; the
                            // end-of-phase join publishes final values.
                            membership[i as usize].store(target, Ordering::Relaxed);
                            moves += 1;
                        }
                    }
                }
            }
            moves
        })
    });
    (results.into_iter().sum(), n.div_ceil(DEFAULT_CHUNK) as u64)
}

/// Random-proportional community choice over positive-gain candidates.
#[inline]
fn choose_proportional(
    ht: &CommunityMap,
    current: VertexId,
    p_i: f64,
    sigma: &[AtomicF64],
    coeffs: GainCoeffs,
    candidates: &mut Vec<(VertexId, f64)>,
    rng: &mut Xorshift32,
) -> Option<VertexId> {
    candidates.clear();
    let k_to_current = ht.weight(current);
    let sigma_current = sigma[current as usize].load();
    for (d, k_to_d) in ht.iter() {
        if d == current {
            continue;
        }
        let gain = coeffs.gain(
            k_to_d,
            k_to_current,
            p_i,
            sigma[d as usize].load(),
            sigma_current,
        );
        if gain > 0.0 {
            candidates.push((d, gain));
        }
    }
    if candidates.is_empty() {
        return None;
    }
    // Proportional selection without allocating a separate weight array.
    let total: f64 = candidates.iter().map(|&(_, g)| g).sum();
    let mut roll = rng.next_f64() * total;
    for &(d, g) in candidates.iter() {
        roll -= g;
        if roll < 0.0 {
            return Some(d);
        }
    }
    candidates.last().map(|&(d, _)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use gve_graph::GraphBuilder;
    use gve_prim::atomics::atomic_f64_from_slice;

    fn identity_membership(n: usize) -> Vec<AtomicU32> {
        (0..n as u32).map(AtomicU32::new).collect()
    }

    fn snapshot(membership: &[AtomicU32]) -> Vec<u32> {
        membership
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Barbell: two triangles bridged, all in ONE bound community —
    /// refinement must split it into the two triangles.
    #[test]
    fn splits_weakly_connected_bound() {
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
        let bounds = vec![0u32; 6]; // everything in one bound
        let membership = identity_membership(6);
        let weights: Vec<f64> = (0..6u32).map(|u| graph.weighted_degree(u)).collect();
        let sigma = atomic_f64_from_slice(&weights);
        let m = graph.total_arc_weight() / 2.0;
        let config = LeidenConfig::default();
        let tables = PerThread::new(|| CommunityMap::new(6));
        let (moved, chunks) = refine(
            &graph,
            &bounds,
            &membership,
            &weights,
            &sigma,
            Objective::default().coeffs(m),
            &config,
            &tables,
            0,
        );
        assert!(moved > 0);
        assert_eq!(chunks, 1, "six vertices fit in one chunk");
        let mem = snapshot(&membership);
        // Refinement merges isolated vertices into sub-communities; the
        // partition must be strictly coarser than singletons and every
        // sub-community must stay within the bound (trivially true here)
        // and be internally connected.
        let report = gve_quality::disconnected_communities(&graph, &mem);
        assert!(report.all_connected(), "disconnected: {report:?}");
        assert!(report.communities < 6, "no merges happened");
    }

    #[test]
    fn never_crosses_community_bounds() {
        let graph = GraphBuilder::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 3, 1.0),
                (2, 3, 5.0), // heavy bridge, tempting to cross
            ],
        );
        let bounds = vec![0, 0, 0, 1, 1, 1];
        let membership = identity_membership(6);
        let weights: Vec<f64> = (0..6u32).map(|u| graph.weighted_degree(u)).collect();
        let sigma = atomic_f64_from_slice(&weights);
        let m = graph.total_arc_weight() / 2.0;
        let config = LeidenConfig::default();
        let tables = PerThread::new(|| CommunityMap::new(6));
        refine(
            &graph,
            &bounds,
            &membership,
            &weights,
            &sigma,
            Objective::default().coeffs(m),
            &config,
            &tables,
            0,
        );
        let mem = snapshot(&membership);
        for v in 0..6usize {
            // The community id a vertex adopts is another vertex's id in
            // the same bound.
            assert_eq!(
                bounds[mem[v] as usize], bounds[v],
                "vertex {v} escaped its bound: {mem:?}"
            );
        }
    }

    #[test]
    fn sigma_conserved_and_consistent_after_refine() {
        let graph = gve_generate::sbm::PlantedPartition::new(600, 12, 10.0, 1.0)
            .seed(5)
            .generate()
            .graph;
        let n = graph.num_vertices();
        let bounds: Vec<u32> = (0..n as u32).map(|v| v % 12).collect();
        let membership = identity_membership(n);
        let weights: Vec<f64> = (0..n as u32).map(|u| graph.weighted_degree(u)).collect();
        let sigma = atomic_f64_from_slice(&weights);
        let m = graph.total_arc_weight() / 2.0;
        let config = LeidenConfig::default();
        let tables = PerThread::new(move || CommunityMap::new(n));
        refine(
            &graph,
            &bounds,
            &membership,
            &weights,
            &sigma,
            Objective::default().coeffs(m),
            &config,
            &tables,
            1,
        );
        let mem = snapshot(&membership);
        let mut expect = vec![0.0f64; n];
        for (v, &c) in mem.iter().enumerate() {
            expect[c as usize] += weights[v];
        }
        for (c, s) in sigma.iter().enumerate() {
            assert!(
                (s.load() - expect[c]).abs() < 1e-6,
                "Σ[{c}] = {} expected {}",
                s.load(),
                expect[c]
            );
        }
    }

    #[test]
    fn random_strategy_is_seed_deterministic_sequentially() {
        // With one rayon thread the random refinement is reproducible.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let run = |seed: u64| {
            pool.install(|| {
                let graph = GraphBuilder::from_edges(
                    6,
                    &[
                        (0, 1, 1.0),
                        (1, 2, 1.0),
                        (2, 0, 1.0),
                        (3, 4, 1.0),
                        (4, 5, 1.0),
                        (5, 3, 1.0),
                    ],
                );
                let bounds = vec![0, 0, 0, 1, 1, 1];
                let membership = identity_membership(6);
                let weights: Vec<f64> = (0..6u32).map(|u| graph.weighted_degree(u)).collect();
                let sigma = atomic_f64_from_slice(&weights);
                let m = graph.total_arc_weight() / 2.0;
                let config = LeidenConfig::default()
                    .refinement(RefinementStrategy::Random)
                    .seed(seed);
                let tables = PerThread::new(|| CommunityMap::new(6));
                refine(
                    &graph,
                    &bounds,
                    &membership,
                    &weights,
                    &sigma,
                    Objective::default().coeffs(m),
                    &config,
                    &tables,
                    0,
                );
                snapshot(&membership)
            })
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn empty_and_isolated_graphs_do_nothing() {
        let graph = CsrGraph::empty(3);
        let bounds = vec![0, 1, 2];
        let membership = identity_membership(3);
        let weights = vec![0.0; 3];
        let sigma = atomic_f64_from_slice(&weights);
        let config = LeidenConfig::default();
        let tables = PerThread::new(|| CommunityMap::new(3));
        let (moved, _) = refine(
            &graph,
            &bounds,
            &membership,
            &weights,
            &sigma,
            Objective::default().coeffs(1.0),
            &config,
            &tables,
            0,
        );
        assert_eq!(moved, 0);
        assert_eq!(snapshot(&membership), vec![0, 1, 2]);
    }
}
