//! Color-synchronous (deterministic) local moving and refinement.
//!
//! The paper's GVE-Leiden is *asynchronous*: threads observe each
//! other's partial updates, which converges fast but makes results vary
//! run to run (§4.1). Its related work lists the alternative: "ordering
//! vertices via graph coloring" (Grappolo \[11\]). Vertices of one color
//! class form an independent set, so the whole class can decide moves
//! simultaneously against a *frozen* state — no member reads another
//! member's community — and the decisions are then applied in vertex
//! order. The result is reproducible across runs **and thread counts**
//! (bitwise for integral edge weights; up to floating-point summation
//! order otherwise), at the cost of extra rounds.
//!
//! Selected with [`crate::config::Scheduling::ColorSynchronous`].

use crate::config::{LeidenConfig, RefinementStrategy};
use crate::localmove::MoveOutcome;
use crate::objective::GainCoeffs;
use crate::workspace::Decision;
use gve_graph::coloring::Coloring;
use gve_graph::{CsrGraph, VertexId};
use gve_prim::parfor::static_for_mut;
use gve_prim::{AtomicBitset, CommunityMap, PerThread, Xorshift32};
use std::sync::atomic::{AtomicU64, Ordering};

/// Scans `i`'s neighbour communities against plain (frozen) state and
/// picks the best move.
#[allow(clippy::too_many_arguments)]
fn decide(
    graph: &CsrGraph,
    membership: &[VertexId],
    bounds: Option<&[VertexId]>,
    penalty: &[f64],
    sigma: &[f64],
    coeffs: GainCoeffs,
    ht: &mut CommunityMap,
    i: VertexId,
    strategy: RefinementStrategy,
    rng_seed: Option<u64>,
) -> Decision {
    ht.clear();
    for (j, w) in graph.edges(i) {
        if j == i {
            continue;
        }
        if let Some(bounds) = bounds {
            if bounds[j as usize] != bounds[i as usize] {
                continue;
            }
        }
        ht.add(membership[j as usize], w as f64);
    }
    let current = membership[i as usize];
    let p_i = penalty[i as usize];
    let k_to_current = ht.weight(current);
    let sigma_current = sigma[current as usize];
    match strategy {
        RefinementStrategy::Greedy => {
            let mut best: Decision = None;
            for (d, k_to_d) in ht.iter() {
                if d == current {
                    continue;
                }
                let gain = coeffs.gain(k_to_d, k_to_current, p_i, sigma[d as usize], sigma_current);
                best = match best {
                    Some((bd, bg)) if gain < bg || (gain == bg && d >= bd) => Some((bd, bg)),
                    _ => Some((d, gain)),
                };
            }
            best.filter(|&(_, g)| g > 0.0)
        }
        RefinementStrategy::Random => {
            let mut candidates: Vec<(VertexId, f64)> = Vec::new();
            for (d, k_to_d) in ht.iter() {
                if d == current {
                    continue;
                }
                let gain = coeffs.gain(k_to_d, k_to_current, p_i, sigma[d as usize], sigma_current);
                if gain > 0.0 {
                    candidates.push((d, gain));
                }
            }
            if candidates.is_empty() {
                return None;
            }
            let mut rng = Xorshift32::new(crate::stream_seed(rng_seed.unwrap_or(0), i as u64));
            let total: f64 = candidates.iter().map(|&(_, g)| g).sum();
            let mut roll = rng.next_f64() * total;
            let mut pick = *candidates.last().unwrap();
            for &(d, g) in &candidates {
                roll -= g;
                if roll < 0.0 {
                    pick = (d, g);
                    break;
                }
            }
            Some(pick)
        }
    }
}

/// Color-synchronous local-moving phase over plain state. Returns the
/// per-iteration objective gains plus pruning tallies (see
/// [`MoveOutcome`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn local_move_sync(
    graph: &CsrGraph,
    membership: &mut [VertexId],
    penalty: &[f64],
    sigma: &mut [f64],
    coeffs: GainCoeffs,
    tolerance: f64,
    config: &LeidenConfig,
    tables: &PerThread<CommunityMap>,
    coloring: &Coloring,
    unprocessed: &AtomicBitset,
    decisions: &mut Vec<Decision>,
) -> MoveOutcome {
    let classes = coloring.classes();
    let mut outcome = MoveOutcome::default();
    // Pruning tallies, bumped from inside the per-class parallel decide.
    // Relaxed: reporting-only counters read after the loop ends.
    let processed = AtomicU64::new(0);
    let skipped = AtomicU64::new(0);
    while outcome.gains.len() < config.max_iterations {
        let mut delta_q = 0.0;
        for class in &classes {
            // Decide in parallel against frozen state; class members are
            // pairwise non-adjacent, so no decision reads another
            // member's community. Decisions land in a grow-only prefix
            // of the workspace buffer — no per-class allocation.
            if decisions.len() < class.len() {
                decisions.resize(class.len(), None);
            }
            let slots = &mut decisions[..class.len()];
            static_for_mut(slots, |j, slot| {
                let i = class[j];
                *slot = {
                    if config.pruning && !unprocessed.take(i as usize) {
                        // Relaxed: reporting-only tally, as above.
                        skipped.fetch_add(1, Ordering::Relaxed);
                        None
                    } else {
                        // Relaxed: reporting-only tally, as above.
                        processed.fetch_add(1, Ordering::Relaxed);
                        tables.with(|ht| {
                            decide(
                                graph,
                                membership,
                                None,
                                penalty,
                                sigma,
                                coeffs,
                                ht,
                                i,
                                RefinementStrategy::Greedy,
                                None,
                            )
                        })
                    }
                };
            });
            // Apply sequentially in vertex order: deterministic Σ'.
            for (&i, decision) in class.iter().zip(slots.iter()) {
                if let Some((target, gain)) = *decision {
                    let p_i = penalty[i as usize];
                    let current = membership[i as usize];
                    sigma[current as usize] -= p_i;
                    sigma[target as usize] += p_i;
                    membership[i as usize] = target;
                    delta_q += gain;
                    if config.pruning {
                        for &j in graph.neighbors(i) {
                            unprocessed.set(j as usize);
                        }
                    }
                }
            }
        }
        outcome.gains.push(delta_q);
        if delta_q <= tolerance {
            break;
        }
    }
    // Relaxed: post-join read-back of the tallies.
    outcome.pruning_processed = processed.load(Ordering::Relaxed);
    outcome.pruning_skipped = skipped.load(Ordering::Relaxed);
    outcome
}

/// Color-synchronous refinement: single sweep over the color classes,
/// merging isolated vertices within their bounds. Returns the number of
/// vertices that moved.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_sync(
    graph: &CsrGraph,
    bounds: &[VertexId],
    membership: &mut [VertexId],
    penalty: &[f64],
    sigma: &mut [f64],
    coeffs: GainCoeffs,
    config: &LeidenConfig,
    tables: &PerThread<CommunityMap>,
    coloring: &Coloring,
    pass_seed: u64,
    decisions: &mut Vec<Decision>,
) -> u64 {
    let mut moved = 0u64;
    for class in &coloring.classes() {
        if decisions.len() < class.len() {
            decisions.resize(class.len(), None);
        }
        let slots = &mut decisions[..class.len()];
        static_for_mut(slots, |j, slot| {
            let i = class[j];
            // Constrained merge: only isolated vertices move.
            *slot = if sigma[membership[i as usize] as usize] != penalty[i as usize] {
                None
            } else {
                tables.with(|ht| {
                    decide(
                        graph,
                        membership,
                        Some(bounds),
                        penalty,
                        sigma,
                        coeffs,
                        ht,
                        i,
                        config.refinement,
                        Some(pass_seed ^ config.seed),
                    )
                })
            };
        });
        for (&i, decision) in class.iter().zip(slots.iter()) {
            if let Some((target, _)) = *decision {
                let current = membership[i as usize];
                let p_i = penalty[i as usize];
                // Re-check isolation at apply time (a same-class sibling
                // may have merged into us) and that the target is still
                // occupied; sequential order makes this deterministic.
                if sigma[current as usize] != p_i || sigma[target as usize] == 0.0 {
                    continue;
                }
                sigma[current as usize] = 0.0;
                sigma[target as usize] += p_i;
                membership[i as usize] = target;
                moved += 1;
            }
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use gve_graph::coloring::jones_plassmann;
    use gve_graph::GraphBuilder;

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
    fn sync_local_move_finds_triangles() {
        let graph = two_triangles();
        let coloring = jones_plassmann(&graph, 0);
        let weights: Vec<f64> = (0..6u32).map(|u| graph.weighted_degree(u)).collect();
        let mut membership: Vec<u32> = (0..6).collect();
        let mut sigma = weights.clone();
        let coeffs = Objective::default().coeffs(graph.total_arc_weight() / 2.0);
        let config = LeidenConfig::default();
        let tables = PerThread::new(|| CommunityMap::new(6));
        let unprocessed = AtomicBitset::new_all_set(6);
        let outcome = local_move_sync(
            &graph,
            &mut membership,
            &weights,
            &mut sigma,
            coeffs,
            0.0,
            &config,
            &tables,
            &coloring,
            &unprocessed,
            &mut Vec::new(),
        );
        assert!(!outcome.gains.is_empty() && outcome.gains[0] > 0.0);
        assert!(outcome.pruning_processed >= 6);
        assert_eq!(membership[0], membership[1]);
        assert_eq!(membership[1], membership[2]);
        assert_eq!(membership[3], membership[4]);
        assert_ne!(membership[0], membership[3]);
        // Σ stays consistent with the final membership.
        let mut expect = vec![0.0; 6];
        for (v, &c) in membership.iter().enumerate() {
            expect[c as usize] += weights[v];
        }
        assert_eq!(sigma, expect);
    }

    #[test]
    fn sync_refine_respects_bounds_and_isolation() {
        let graph = two_triangles();
        let coloring = jones_plassmann(&graph, 1);
        let weights: Vec<f64> = (0..6u32).map(|u| graph.weighted_degree(u)).collect();
        let bounds = vec![0, 0, 0, 1, 1, 1];
        let mut membership: Vec<u32> = (0..6).collect();
        let mut sigma = weights.clone();
        let coeffs = Objective::default().coeffs(graph.total_arc_weight() / 2.0);
        let config = LeidenConfig::default();
        let tables = PerThread::new(|| CommunityMap::new(6));
        let moved = refine_sync(
            &graph,
            &bounds,
            &mut membership,
            &weights,
            &mut sigma,
            coeffs,
            &config,
            &tables,
            &coloring,
            0,
            &mut Vec::new(),
        );
        assert!(moved > 0);
        for v in 0..6usize {
            assert_eq!(
                bounds[membership[v] as usize], bounds[v],
                "bound escape at {v}"
            );
        }
    }
}
