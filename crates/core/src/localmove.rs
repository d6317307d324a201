//! The local-moving phase (Algorithm 2 of the paper).
//!
//! Iteratively moves vertices to the neighbouring community with the
//! highest delta-modularity, asynchronously: threads read and write the
//! shared membership (`C'`) and community-weight (`Σ'`) arrays without
//! barriers inside an iteration, tolerating stale values — the paper's
//! asynchronous design, which converges faster at the cost of run-to-run
//! variability (§4.1).
//!
//! Vertex pruning is flag-based: a vertex is claimed ("marked processed")
//! via an atomic test-and-clear on the `unprocessed` bitset, and a moved
//! vertex re-marks its neighbours. This replaces NetworKit's global
//! queues and is one of the paper's named optimizations. The visit loop
//! reads a flag word before it writes one
//! ([`AtomicBitset::take_next`]): a word of processed vertices is jumped
//! over with one load, and only a flag that reads as set pays the
//! `fetch_and`. At one thread this visits exactly the vertices a
//! bit-by-bit test-and-clear does — nothing moves between the read and
//! the jump, so no skipped flag can have been set meanwhile.
//!
//! Each iteration is one `schedule(dynamic, 2048)` loop: workers claim
//! [`DEFAULT_CHUNK`] vertices at a time from a shared cursor
//! ([`dynamic_workers`]), so an iteration makes `n.div_ceil(2048)`
//! claims — the count [`MoveOutcome::chunks`] sums. Refinement runs the
//! same loop.

use crate::config::LeidenConfig;
use crate::objective::GainCoeffs;
use gve_graph::{CsrGraph, VertexId};
use gve_prim::atomics::AtomicF64;
use gve_prim::parfor::{dynamic_workers, DEFAULT_CHUNK};
use gve_prim::{AtomicBitset, CommunityMap, HashScanMap, PerThread};
use std::sync::atomic::{AtomicU32, Ordering};

/// Picks the best community for `i` among the scanned candidates:
/// maximum objective gain (delta-modularity under the default
/// objective), ties to the smaller id. Returns `(community, gain)` when
/// a strictly positive gain exists.
///
/// `p_i` is the vertex's penalty weight — its weighted degree `K_i` for
/// modularity, its size for CPM — and `sigma` tracks the per-community
/// penalty totals (`Σ'` of the paper).
/// The argmax runs over candidate *scores* (see [`GainCoeffs::score`]):
/// scores differ from gains by a candidate-independent constant, so the
/// winner is the same, and the kernel's stack tier
/// ([`crate::kernel::v3_best_move`]) uses the identical score arithmetic
/// — which is what makes the two tiers agree bit-for-bit on frozen
/// state.
#[inline]
pub fn choose_best(
    ht: &CommunityMap,
    current: VertexId,
    p_i: f64,
    sigma: &[AtomicF64],
    coeffs: GainCoeffs,
) -> Option<(VertexId, f64)> {
    // A branchy argmax, unlike the stack tier's branch-free fold: over
    // a hub's many candidates the leader rarely changes, so the branch
    // predicts and the scattered Σ' loads of later candidates overlap.
    // The branch-free fold here cost about 40% more per hub arc
    // (EXPERIMENTS.md, "Per-vertex overhead").
    // (candidate, score, K_{i→d}, Σ'_d)
    let mut best: Option<(VertexId, f64, f64, f64)> = None;
    for (d, k_to_d) in ht.iter() {
        if d == current {
            continue;
        }
        let sigma_d = sigma[d as usize].load();
        let score = coeffs.score(k_to_d, sigma_d, p_i);
        best = match best {
            Some((bd, bs, ..)) if score < bs || (score == bs && d >= bd) => best,
            _ => Some((d, score, k_to_d, sigma_d)),
        };
    }
    let (d, _, k_to_d, sigma_d) = best?;
    let k_to_current = ht.weight(current);
    let sigma_current = sigma[current as usize].load();
    let gain = coeffs.gain(k_to_d, k_to_current, p_i, sigma_d, sigma_current);
    (gain > 0.0).then_some((d, gain))
}

/// Outcome of the local-moving phase: the per-iteration gain trace plus
/// the pruning-flag tallies behind the paper's "vertex pruning" rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MoveOutcome {
    /// Total objective gain of each iteration performed (`l_i` = the
    /// vector's length) — the raw convergence curve.
    pub gains: Vec<f64>,
    /// Vertices claimed and processed across all iterations.
    pub pruning_processed: u64,
    /// Vertices skipped because their unprocessed flag was already
    /// clear — work the pruning optimization avoided.
    pub pruning_skipped: u64,
    /// Chunks claimed from the shared cursor, summed over all
    /// iterations: `n.div_ceil(DEFAULT_CHUNK)` per iteration, since
    /// every claim starts on a chunk boundary.
    pub chunks: u64,
}

/// Runs the local-moving phase; see [`MoveOutcome`] for what comes back
/// (`outcome.gains.len()` is the paper's `l_i`).
///
/// `penalty` holds each vertex's penalty weight (see [`choose_best`]);
/// the caller prepares the `unprocessed` bitset — all bits set for a
/// full run, or only a frontier for incremental (dynamic-graph) runs.
#[allow(clippy::too_many_arguments)]
pub fn local_move(
    graph: &CsrGraph,
    membership: &[AtomicU32],
    penalty: &[f64],
    sigma: &[AtomicF64],
    coeffs: GainCoeffs,
    tolerance: f64,
    config: &LeidenConfig,
    tables: &PerThread<CommunityMap>,
    unprocessed: &AtomicBitset,
) -> MoveOutcome {
    let n = graph.num_vertices();
    let mut outcome = MoveOutcome::default();
    while outcome.gains.len() < config.max_iterations {
        let results = dynamic_workers(n, DEFAULT_CHUNK, |claims| {
            tables.with(|ht| {
                // Stack tier of the two-tier scan kernel.
                let mut hash = HashScanMap::new();
                let mut local_dq = 0.0;
                let mut local_processed = 0u64;
                let mut local_skipped = 0u64;
                for range in claims {
                    let mut next = range.start;
                    loop {
                        // Vertex pruning: claim the next unprocessed
                        // vertex, jumping over clear flag words whole;
                        // every index jumped over was already processed.
                        let i = if config.pruning {
                            let i = unprocessed.take_next(next, range.end);
                            local_skipped += (i - next) as u64;
                            i
                        } else {
                            next
                        };
                        if i >= range.end {
                            break;
                        }
                        next = i + 1;
                        local_processed += 1;
                        let i = i as VertexId;
                        // Relaxed: only this worker moves `i` (the bitset
                        // claim makes it exclusive this iteration), and
                        // racing readers tolerate staleness by design.
                        let current = membership[i as usize].load(Ordering::Relaxed);
                        let p_i = penalty[i as usize];
                        if let Some((target, gain)) = crate::kernel::best_move(
                            ht, &mut hash, graph, membership, None, i, current, p_i, sigma, coeffs,
                        ) {
                            // Asynchronous commit: weight transfer is
                            // atomic per community, membership is a
                            // Relaxed store — concurrent scanners accept
                            // stale ids, and the end of the phase's loop
                            // provides the happens-before for readers
                            // that need the final values.
                            sigma[current as usize].fetch_sub(p_i);
                            sigma[target as usize].fetch_add(p_i);
                            membership[i as usize].store(target, Ordering::Relaxed);
                            local_dq += gain;
                            if config.pruning {
                                for &j in graph.neighbors(i) {
                                    unprocessed.set(j as usize);
                                }
                            }
                        }
                    }
                }
                (local_dq, local_processed, local_skipped)
            })
        });
        let (delta_q, processed, skipped) =
            results.into_iter().fold((0.0, 0u64, 0u64), |acc, w| {
                (acc.0 + w.0, acc.1 + w.1, acc.2 + w.2)
            });
        outcome.gains.push(delta_q);
        outcome.pruning_processed += processed;
        outcome.pruning_skipped += skipped;
        outcome.chunks += n.div_ceil(DEFAULT_CHUNK) as u64;
        if delta_q <= tolerance {
            break;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use gve_graph::GraphBuilder;
    use gve_prim::atomics::atomic_f64_from_slice;

    fn setup(graph: &CsrGraph) -> (Vec<AtomicU32>, Vec<f64>, Vec<AtomicF64>, GainCoeffs) {
        let n = graph.num_vertices();
        let membership: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
        let weights: Vec<f64> = (0..n as u32).map(|u| graph.weighted_degree(u)).collect();
        let sigma = atomic_f64_from_slice(&weights);
        let m = graph.total_arc_weight() / 2.0;
        (
            membership,
            weights,
            sigma,
            Objective::default().coeffs(m.max(f64::MIN_POSITIVE)),
        )
    }

    fn snapshot(membership: &[AtomicU32]) -> Vec<u32> {
        membership
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    #[test]
    fn merges_two_triangles_into_their_communities() {
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
        let (membership, weights, sigma, coeffs) = setup(&graph);
        let config = LeidenConfig::default();
        let tables = PerThread::new(move || CommunityMap::new(6));
        let unprocessed = AtomicBitset::new_all_set(6);
        let outcome = local_move(
            &graph,
            &membership,
            &weights,
            &sigma,
            coeffs,
            0.0,
            &config,
            &tables,
            &unprocessed,
        );
        assert!(!outcome.gains.is_empty());
        // Iteration gains are the summed move deltas: first iteration
        // must be strictly positive here.
        assert!(outcome.gains[0] > 0.0);
        // Every vertex was examined at least once, and pruning tallies
        // cover every claim attempt.
        assert!(outcome.pruning_processed >= 6);
        let mem = snapshot(&membership);
        // Each triangle must be in one community; bridge endpoints may
        // differ but triangles never merge across the single bridge.
        assert_eq!(mem[0], mem[1]);
        assert_eq!(mem[1], mem[2]);
        assert_eq!(mem[3], mem[4]);
        assert_eq!(mem[4], mem[5]);
        assert_ne!(mem[0], mem[3]);
    }

    #[test]
    fn sigma_is_conserved() {
        let graph = gve_generate::rmat::Rmat::social(9, 4.0).seed(3).generate();
        let (membership, weights, sigma, coeffs) = setup(&graph);
        let total_before: f64 = sigma.iter().map(|s| s.load()).sum();
        let config = LeidenConfig::default();
        let tables = PerThread::new({
            let n = graph.num_vertices();
            move || CommunityMap::new(n)
        });
        let unprocessed = AtomicBitset::new_all_set(graph.num_vertices());
        local_move(
            &graph,
            &membership,
            &weights,
            &sigma,
            coeffs,
            1e-2,
            &config,
            &tables,
            &unprocessed,
        );
        let total_after: f64 = sigma.iter().map(|s| s.load()).sum();
        assert!(
            (total_before - total_after).abs() < 1e-6 * total_before.max(1.0),
            "Σ drifted: {total_before} -> {total_after}"
        );
        // Σ must also equal the scatter of K over the final membership.
        let mem = snapshot(&membership);
        let mut expect = vec![0.0; graph.num_vertices()];
        for (v, &c) in mem.iter().enumerate() {
            expect[c as usize] += weights[v];
        }
        for (c, s) in sigma.iter().enumerate() {
            assert!(
                (s.load() - expect[c]).abs() < 1e-6,
                "community {c}: {} vs {}",
                s.load(),
                expect[c]
            );
        }
    }

    #[test]
    fn moves_increase_modularity() {
        let graph = gve_generate::sbm::PlantedPartition::new(400, 8, 12.0, 1.0)
            .seed(7)
            .generate()
            .graph;
        let (membership, weights, sigma, coeffs) = setup(&graph);
        let before = gve_quality::modularity(&graph, &snapshot(&membership));
        let config = LeidenConfig::default();
        let tables = PerThread::new({
            let n = graph.num_vertices();
            move || CommunityMap::new(n)
        });
        let unprocessed = AtomicBitset::new_all_set(graph.num_vertices());
        local_move(
            &graph,
            &membership,
            &weights,
            &sigma,
            coeffs,
            1e-6,
            &config,
            &tables,
            &unprocessed,
        );
        let after = gve_quality::modularity(&graph, &snapshot(&membership));
        assert!(after > before + 0.1, "Q {before} -> {after}");
    }

    #[test]
    fn iteration_cap_respected() {
        let graph = gve_generate::rmat::Rmat::web(8, 4.0).seed(1).generate();
        let (membership, weights, sigma, coeffs) = setup(&graph);
        let config = LeidenConfig {
            max_iterations: 1,
            ..LeidenConfig::default()
        };
        let tables = PerThread::new({
            let n = graph.num_vertices();
            move || CommunityMap::new(n)
        });
        let unprocessed = AtomicBitset::new_all_set(graph.num_vertices());
        // Zero tolerance would keep iterating; the cap must stop it.
        let outcome = local_move(
            &graph,
            &membership,
            &weights,
            &sigma,
            coeffs,
            -1.0,
            &config,
            &tables,
            &unprocessed,
        );
        assert_eq!(outcome.gains.len(), 1);
    }

    #[test]
    fn empty_graph_converges_immediately() {
        let graph = CsrGraph::empty(4);
        let (membership, weights, sigma, coeffs) = setup(&graph);
        let config = LeidenConfig::default();
        let tables = PerThread::new(|| CommunityMap::new(4));
        let unprocessed = AtomicBitset::new_all_set(4);
        let outcome = local_move(
            &graph,
            &membership,
            &weights,
            &sigma,
            coeffs,
            1e-2,
            &config,
            &tables,
            &unprocessed,
        );
        assert_eq!(outcome.gains, vec![0.0]);
        assert_eq!(outcome.pruning_processed, 4);
        assert_eq!(outcome.pruning_skipped, 0);
        assert_eq!(snapshot(&membership), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pruning_off_still_converges() {
        let graph =
            GraphBuilder::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let (membership, weights, sigma, coeffs) = setup(&graph);
        let config = LeidenConfig {
            pruning: false,
            ..LeidenConfig::default()
        };
        let tables = PerThread::new(|| CommunityMap::new(4));
        let unprocessed = AtomicBitset::new_all_set(4);
        let outcome = local_move(
            &graph,
            &membership,
            &weights,
            &sigma,
            coeffs,
            1e-2,
            &config,
            &tables,
            &unprocessed,
        );
        assert!(!outcome.gains.is_empty());
        // Pruning disabled: every vertex counts as processed each
        // iteration, nothing is ever skipped.
        assert_eq!(outcome.pruning_skipped, 0);
        assert_eq!(outcome.pruning_processed, 4 * outcome.gains.len() as u64);
    }
}
