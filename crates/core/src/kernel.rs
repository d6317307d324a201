//! The neighbourhood-scan kernel shared by local-moving and greedy
//! refinement: `scanCommunities` plus the best-gain choice of the
//! paper's Algorithms 2–3, split into two tiers by vertex degree.
//!
//! * **Stack tier** (degree ≤ [`SMALL_DEGREE_THRESHOLD`], most vertices
//!   of every input): an accumulate-only pass over the CSR row tallies
//!   `K_{i→c}` into a [`HashScanMap`] on the worker's stack. Its aux slot
//!   *prefetches* each candidate's `Σ'` on first touch, so the scattered
//!   sigma load is issued while the edge scan still has misses to hide
//!   behind. The choose pass then folds once over the map's dense
//!   key/weight/aux slices via [`gve_prim::simd::choose_prefetched`],
//!   with no scattered loads at all.
//! * **Table tier** (hubs): [`two_pass_best_move`] scans into the
//!   per-thread collision-free [`CommunityMap`] and picks the target with
//!   [`choose_best`]. Measured head-to-head, the dense table plus that
//!   choose loop beats a gathered fold once the candidate set is large.
//!   The same routine is the frozen-state oracle of the tests.
//!
//! Both tiers pick bit-identical `(community, gain)` on frozen state:
//! the score `lin·K_{i→c} − (quad·p_i)·Σ'_c` (see [`GainCoeffs::score`])
//! is evaluated with the same association, `K_{i→c}` is accumulated in
//! the same edge order, the argmax is order-independent (max score, ties
//! to the smaller id), and the gain is evaluated once at the end with
//! the winner's saved `Σ'`. So the tier cutoff changes speed only, never
//! a move — `tests/kernels.rs` checks this move for move.

use crate::config::SMALL_DEGREE_THRESHOLD;
use crate::localmove::choose_best;
use crate::objective::GainCoeffs;
use gve_graph::{CsrGraph, VertexId};
use gve_prim::atomics::AtomicF64;
use gve_prim::{simd, CommunityMap, HashScanMap};
use std::sync::atomic::{AtomicU32, Ordering};

/// The two-pass table tier: scan into the per-thread table, then pick
/// the best community with [`choose_best`]. The hub path of
/// [`best_move`] and the reference the tests compare the stack tier to.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn two_pass_best_move(
    ht: &mut CommunityMap,
    graph: &CsrGraph,
    membership: &[AtomicU32],
    bounds: Option<&[VertexId]>,
    i: VertexId,
    current: VertexId,
    p_i: f64,
    sigma: &[AtomicF64],
    coeffs: GainCoeffs,
) -> Option<(VertexId, f64)> {
    ht.clear();
    scan(graph, membership, bounds, i, |c, w| ht.add(c, w));
    choose_best(ht, current, p_i, sigma, coeffs)
}

/// Accumulate-only edge scan: feeds each retained `(community, weight)`
/// contribution of `i`'s row to `acc` — self-loops skipped, and only
/// neighbours inside `i`'s community bound when `bounds` is given. The
/// bound check is branched on once per vertex, so the unbounded loop is
/// a bare load → accumulate the compiler keeps tight.
#[inline]
fn scan<F: FnMut(u32, f64)>(
    graph: &CsrGraph,
    membership: &[AtomicU32],
    bounds: Option<&[VertexId]>,
    i: VertexId,
    mut acc: F,
) {
    // Relaxed membership loads throughout: the asynchronous local-moving
    // design (paper §4.1) tolerates reading a neighbor's stale community;
    // convergence is driven by the outer iteration, not per-load
    // freshness.
    match bounds {
        None => {
            for (j, w) in graph.edges(i) {
                if j != i {
                    // Relaxed: asynchronous design, see above.
                    acc(membership[j as usize].load(Ordering::Relaxed), w as f64);
                }
            }
        }
        Some(b) => {
            let bound = b[i as usize];
            for (j, w) in graph.edges(i) {
                if j != i && b[j as usize] == bound {
                    // Relaxed: asynchronous design, see above.
                    acc(membership[j as usize].load(Ordering::Relaxed), w as f64);
                }
            }
        }
    }
}

/// The two tiers behind one call: accumulate-only scan into the stack
/// map, then one lane-chunked choose pass, when `use_small` is set;
/// [`two_pass_best_move`] otherwise.
///
/// `use_small` is the caller's degree dispatch (see [`best_move`]); when
/// set, `i`'s distinct neighbour communities must fit
/// [`gve_prim::HASH_SCAN_CAP`] — guaranteed by any degree bound ≤ the
/// cap, and debug-asserted by the map itself. The final
/// `(community, gain)` is bit-identical to the table tier on frozen
/// state (see the module docs).
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn v3_best_move(
    ht: &mut CommunityMap,
    hash: &mut HashScanMap,
    graph: &CsrGraph,
    membership: &[AtomicU32],
    bounds: Option<&[VertexId]>,
    i: VertexId,
    current: VertexId,
    p_i: f64,
    sigma: &[AtomicF64],
    coeffs: GainCoeffs,
    use_small: bool,
) -> Option<(VertexId, f64)> {
    if !use_small {
        // Hub tier: the dense table plus the two-pass choose loop.
        // Measured head-to-head against a lane-gathered fold over the
        // table's key list, the loop wins on hubs — the fold's weight
        // re-gather buffer costs more than its batched Σ' loads save —
        // so hubs keep the reference path and the stack tier's
        // structure goes where most vertices are.
        return two_pass_best_move(
            ht, graph, membership, bounds, i, current, p_i, sigma, coeffs,
        );
    }
    hash.clear();
    // `K_{i→current}` stays in a register instead of the map, so the
    // choose pass never meets `current` and nothing re-probes for it.
    // `-0.0` is the exact additive identity: the sum starts from the
    // first weight and adds the rest in edge order, as the map would.
    // With no arc into `current` it stays `-0.0` where the table reads
    // `0.0`; `K_c − K_current` then differs only in the sign of a zero
    // difference, which changes no gain that can be positive.
    let mut k_to_current = -0.0;
    scan(graph, membership, bounds, i, |c, w| {
        if c == current {
            k_to_current += w;
        } else {
            // Σ' prefetch: the aux callback runs on a candidate's first
            // touch, issuing its scattered load while the edge scan
            // still has misses to hide behind, so the choose pass below
            // touches only the stack.
            hash.add_with(c, w, |key| sigma[key as usize].load());
        }
    });
    let best = simd::choose_prefetched(
        hash.keys(),
        hash.weights(),
        hash.aux(),
        current,
        coeffs.lin,
        coeffs.quad * p_i,
    )?;
    let sigma_current = sigma[current as usize].load();
    let gain = coeffs.gain(best.weight, k_to_current, p_i, best.sigma, sigma_current);
    (gain > 0.0).then_some((best.key, gain))
}

/// Degree-aware dispatch: the stack tier for vertices of degree ≤
/// [`SMALL_DEGREE_THRESHOLD`], the table tier for hubs. This is the
/// single entry point the local-moving and greedy-refinement loops use.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn best_move(
    ht: &mut CommunityMap,
    hash: &mut HashScanMap,
    graph: &CsrGraph,
    membership: &[AtomicU32],
    bounds: Option<&[VertexId]>,
    i: VertexId,
    current: VertexId,
    p_i: f64,
    sigma: &[AtomicF64],
    coeffs: GainCoeffs,
) -> Option<(VertexId, f64)> {
    let use_small = graph.degree(i) <= SMALL_DEGREE_THRESHOLD;
    v3_best_move(
        ht, hash, graph, membership, bounds, i, current, p_i, sigma, coeffs, use_small,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use gve_graph::GraphBuilder;
    use gve_prim::atomics::atomic_f64_from_slice;

    fn setup(
        graph: &CsrGraph,
        membership: &[u32],
    ) -> (Vec<AtomicU32>, Vec<f64>, Vec<AtomicF64>, GainCoeffs) {
        let n = graph.num_vertices();
        let atomic: Vec<AtomicU32> = membership.iter().map(|&c| AtomicU32::new(c)).collect();
        let penalty: Vec<f64> = (0..n as u32).map(|u| graph.weighted_degree(u)).collect();
        let mut sigma = vec![0.0f64; n];
        for (v, &c) in membership.iter().enumerate() {
            sigma[c as usize] += penalty[v];
        }
        let m = graph.total_arc_weight() / 2.0;
        let coeffs = Objective::default().coeffs(m.max(f64::MIN_POSITIVE));
        (atomic, penalty, atomic_f64_from_slice(&sigma), coeffs)
    }

    /// With bounds, both tiers see the same restricted candidate set,
    /// and no move leaves the vertex's bound.
    #[test]
    fn bounded_dispatch_agrees_and_stays_in_bound() {
        let graph = GraphBuilder::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 3, 1.0),
                (2, 3, 5.0),
            ],
        );
        let bounds = [0u32, 0, 0, 1, 1, 1];
        let singleton: Vec<u32> = (0..6).collect();
        let (membership, penalty, sigma, coeffs) = setup(&graph, &singleton);
        let mut ht = CommunityMap::new(6);
        let mut hash = HashScanMap::new();
        for i in 0..6u32 {
            let reference = two_pass_best_move(
                &mut ht,
                &graph,
                &membership,
                Some(&bounds),
                i,
                i,
                penalty[i as usize],
                &sigma,
                coeffs,
            );
            let got = best_move(
                &mut ht,
                &mut hash,
                &graph,
                &membership,
                Some(&bounds),
                i,
                i,
                penalty[i as usize],
                &sigma,
                coeffs,
            );
            assert_eq!(reference, got, "vertex {i}");
            if let Some((target, _)) = got {
                assert_eq!(
                    bounds[target as usize], bounds[i as usize],
                    "vertex {i} escaped its bound"
                );
            }
        }
    }

    /// Regression: a degree-64 vertex over singleton memberships fills
    /// the stack hash completely, and the kernel then looks up its own —
    /// absent — community. The map's half-loaded slot table must
    /// terminate that probe (it used to spin forever when slots ==
    /// entries).
    #[test]
    fn v3_full_stack_hash_at_threshold_cap() {
        let cap = gve_prim::HASH_SCAN_CAP as u32;
        // Star: hub 0 with exactly `cap` leaves, every membership a
        // singleton — the normal first local-moving iteration.
        let edges: Vec<(u32, u32, f32)> = (1..=cap).map(|v| (0, v, 1.0)).collect();
        let graph = GraphBuilder::from_edges(cap as usize + 1, &edges);
        assert_eq!(graph.degree(0), gve_prim::HASH_SCAN_CAP);
        let singleton: Vec<u32> = (0..=cap).collect();
        let (membership, penalty, sigma, coeffs) = setup(&graph, &singleton);
        let mut ht = CommunityMap::new(cap as usize + 1);
        let mut hash = HashScanMap::new();
        let got = v3_best_move(
            &mut ht,
            &mut hash,
            &graph,
            &membership,
            None,
            0,
            0,
            penalty[0],
            &sigma,
            coeffs,
            true,
        );
        let reference = two_pass_best_move(
            &mut ht,
            &graph,
            &membership,
            None,
            0,
            0,
            penalty[0],
            &sigma,
            coeffs,
        );
        assert_eq!(got, reference, "full-occupancy hub");
    }

    /// Isolated vertices and vertices whose only neighbour shares their
    /// community yield no move on either tier.
    #[test]
    fn no_candidates_is_none() {
        let graph = GraphBuilder::from_edges(3, &[(0, 1, 1.0)]);
        let labels = [0u32, 0, 2];
        let (membership, penalty, sigma, coeffs) = setup(&graph, &labels);
        let mut ht = CommunityMap::new(3);
        let mut hash = HashScanMap::new();
        for i in 0..3u32 {
            for use_small in [false, true] {
                let got = v3_best_move(
                    &mut ht,
                    &mut hash,
                    &graph,
                    &membership,
                    None,
                    i,
                    labels[i as usize],
                    penalty[i as usize],
                    &sigma,
                    coeffs,
                    use_small,
                );
                assert_eq!(got, None, "vertex {i} use_small={use_small}");
            }
        }
    }

    /// The stack tier must agree bit-for-bit with the table tier on
    /// frozen state, with and without refinement bounds.
    #[test]
    fn v3_matches_two_pass_on_frozen_state() {
        let edges: Vec<(u32, u32, f32)> = (1..12u32)
            .map(|v| (0, v, 0.5 + v as f32))
            .chain([(1, 2, 1.0), (3, 4, 2.0), (5, 6, 1.5), (7, 8, 0.25)])
            .collect();
        let graph = GraphBuilder::from_edges(12, &edges);
        let labels = [0u32, 0, 0, 3, 3, 3, 6, 6, 6, 9, 9, 9];
        let bounds = [0u32, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1];
        let (membership, penalty, sigma, coeffs) = setup(&graph, &labels);
        let mut ht = CommunityMap::new(12);
        let mut hash = HashScanMap::new();
        for bound in [None, Some(&bounds[..])] {
            for i in 0..12u32 {
                let current = labels[i as usize];
                let reference = two_pass_best_move(
                    &mut ht,
                    &graph,
                    &membership,
                    bound,
                    i,
                    current,
                    penalty[i as usize],
                    &sigma,
                    coeffs,
                );
                let got = v3_best_move(
                    &mut ht,
                    &mut hash,
                    &graph,
                    &membership,
                    bound,
                    i,
                    current,
                    penalty[i as usize],
                    &sigma,
                    coeffs,
                    true,
                );
                assert_eq!(reference, got, "vertex {i} bounded={}", bound.is_some());
            }
        }
    }

    /// The dispatcher routes a hub above the threshold to the table tier
    /// and its leaves to the stack tier, and both equal the reference.
    #[test]
    fn dispatch_matches_reference_on_both_sides_of_the_threshold() {
        let leaves = SMALL_DEGREE_THRESHOLD as u32 + 4;
        let edges: Vec<(u32, u32, f32)> = (1..=leaves).map(|v| (0, v, v as f32)).collect();
        let graph = GraphBuilder::from_edges(leaves as usize + 1, &edges);
        assert!(graph.degree(0) > SMALL_DEGREE_THRESHOLD);
        let singleton: Vec<u32> = (0..=leaves).collect();
        let (membership, penalty, sigma, coeffs) = setup(&graph, &singleton);
        let mut ht = CommunityMap::new(leaves as usize + 1);
        let mut hash = HashScanMap::new();
        for i in 0..=leaves {
            let got = best_move(
                &mut ht,
                &mut hash,
                &graph,
                &membership,
                None,
                i,
                i,
                penalty[i as usize],
                &sigma,
                coeffs,
            );
            let reference = two_pass_best_move(
                &mut ht,
                &graph,
                &membership,
                None,
                i,
                i,
                penalty[i as usize],
                &sigma,
                coeffs,
            );
            assert_eq!(got, reference, "vertex {i}");
        }
    }
}
