//! NetworKit-style parallel Leiden: global queues + locking.
//!
//! The paper contrasts its flag-based pruning and lock-free commits with
//! the parallel Leiden in NetworKit \[19\], which distributes work through
//! *global queues* and serializes community updates with *vertex and
//! community locks*, and which (like other prior work) leaves the
//! aggregation phase unoptimized. This module reproduces that design
//! point: a shared mutex-guarded frontier queue, per-community mutexes
//! around every weight transfer, and a lock-guarded hash-map
//! aggregation. It produces partitions of comparable quality while
//! paying the synchronization costs GVE-Leiden avoids — the Figure
//! 6(a)/(b) contrast. Its loops are plain sequential iterators (only
//! `gve_prim::parfor` loops run on the worker pool), so its times
//! measure those synchronization costs on one thread.

use crate::BaselineResult;
use gve_graph::{CsrGraph, GraphBuilder, VertexId};
use gve_leiden::delta_modularity;
use gve_prim::atomics::{atomic_f64_from_slice, AtomicF64};
use gve_prim::{CommunityMap, PerThread, Xorshift32};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Cap on local-moving rounds per pass.
const MAX_ROUNDS: usize = 20;
/// Cap on passes.
const MAX_PASSES: usize = 10;
/// Seed for the randomized refinement.
const SEED: u64 = 0;

/// Locks `mutex`, recovering the data if a panicking holder poisoned it:
/// every critical section here leaves its data consistent.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lock table guarding community weight transfers. Locks are acquired in
/// id order to avoid deadlock.
struct CommunityLocks {
    locks: Vec<Mutex<()>>,
}

impl CommunityLocks {
    fn new(n: usize) -> Self {
        Self {
            locks: (0..n.max(1)).map(|_| Mutex::new(())).collect(),
        }
    }

    /// Runs `f` while holding the locks of both communities.
    fn with_pair<R>(&self, a: VertexId, b: VertexId, f: impl FnOnce() -> R) -> R {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let _first = lock(&self.locks[lo as usize]);
        let _second = if lo != hi {
            Some(lock(&self.locks[hi as usize]))
        } else {
            None
        };
        f()
    }
}

/// Runs the NetworKit-style parallel Leiden.
pub fn nk_leiden(graph: &CsrGraph) -> BaselineResult {
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

    let tables: PerThread<CommunityMap> = PerThread::new(move || CommunityMap::new(n));
    let coeffs = gve_leiden::Objective::default().coeffs(m);
    let mut current: Option<CsrGraph> = None;
    let mut init_labels: Option<Vec<VertexId>> = None;
    let mut passes = 0;

    for pass in 0..MAX_PASSES {
        let g = current.as_ref().unwrap_or(graph);
        let n_cur = g.num_vertices();
        let weights: Vec<f64> = (0..n_cur as VertexId)
            .map(|u| g.weighted_degree(u))
            .collect();

        // ---- Local moving with a global frontier queue ----
        let membership: Vec<AtomicU32> = match init_labels.take() {
            Some(labels) => labels.into_iter().map(AtomicU32::new).collect(),
            None => (0..n_cur as u32).map(AtomicU32::new).collect(),
        };
        let sigma: Vec<AtomicF64> = {
            let mut s = vec![0.0f64; n_cur];
            for v in 0..n_cur {
                // Relaxed: single-threaded setup loop, nothing to order.
                s[membership[v].load(Ordering::Relaxed) as usize] += weights[v];
            }
            atomic_f64_from_slice(&s)
        };
        let locks = CommunityLocks::new(n_cur);
        let in_queue: Vec<AtomicBool> = (0..n_cur).map(|_| AtomicBool::new(true)).collect();
        let mut frontier: Vec<VertexId> = (0..n_cur as VertexId).collect();
        let mut any_move = false;

        for _round in 0..MAX_ROUNDS {
            if frontier.is_empty() {
                break;
            }
            // The next round's frontier, in push order.
            let next = Mutex::new(Vec::new());
            let moves: usize = frontier
                .iter()
                .map(|&i| {
                    // Relaxed throughout this worker: queue flags and
                    // membership tolerate staleness (asynchronous local
                    // moving); the lock below orders the actual commit.
                    in_queue[i as usize].store(false, Ordering::Relaxed);
                    let moved = tables.with(|ht| {
                        let current_c = membership[i as usize].load(Ordering::Relaxed);
                        ht.clear();
                        for (j, w) in g.edges(i) {
                            if j != i {
                                // Relaxed: stale labels tolerated.
                                ht.add(membership[j as usize].load(Ordering::Relaxed), w as f64);
                            }
                        }
                        let k_i = weights[i as usize];
                        let target =
                            gve_leiden::localmove::choose_best(ht, current_c, k_i, &sigma, coeffs)
                                .map(|(t, _)| t)?;
                        // Lock-guarded weight transfer (the NetworKit
                        // contrast with GVE's lock-free commit). The
                        // mutex pair orders the commit; Relaxed on the
                        // membership cells themselves suffices.
                        locks.with_pair(current_c, target, || {
                            if membership[i as usize].load(Ordering::Relaxed) == current_c {
                                sigma[current_c as usize].fetch_sub(k_i);
                                sigma[target as usize].fetch_add(k_i);
                                membership[i as usize].store(target, Ordering::Relaxed);
                                Some(target)
                            } else {
                                None
                            }
                        })
                    });
                    if moved.is_some() {
                        for &j in g.neighbors(i) {
                            // Relaxed: the swap is the dedup itself; a
                            // lost race only re-queues a vertex.
                            if !in_queue[j as usize].swap(true, Ordering::Relaxed) {
                                lock(&next).push(j);
                            }
                        }
                        1
                    } else {
                        0
                    }
                })
                .sum();
            any_move |= moves > 0;
            frontier = next.into_inner().unwrap_or_else(PoisonError::into_inner);
        }

        // ---- Randomized refinement with locks ----
        // Relaxed: these run on one thread between the phases — no
        // concurrent readers of the cells being rewritten.
        let bounds: Vec<VertexId> = membership
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        membership
            .iter()
            .enumerate()
            // Relaxed: between-phases reset, as above.
            .for_each(|(v, c)| c.store(v as u32, Ordering::Relaxed));
        sigma.iter().zip(&weights).for_each(|(s, &k)| s.store(k));
        let seed = SEED ^ ((pass as u64) << 32);
        // Every vertex gets its turn: count the moves rather than stop
        // at the first.
        let any_refine: bool = (0..n_cur as VertexId)
            .map(|i| {
                tables.with(|ht| {
                    // Relaxed membership loads: stale values are
                    // tolerated; the lock re-checks before committing.
                    let c = membership[i as usize].load(Ordering::Relaxed);
                    let k_i = weights[i as usize];
                    if sigma[c as usize].load() != k_i {
                        return false;
                    }
                    ht.clear();
                    for (j, w) in g.edges(i) {
                        if j != i && bounds[j as usize] == bounds[i as usize] {
                            // Relaxed: stale labels tolerated.
                            ht.add(membership[j as usize].load(Ordering::Relaxed), w as f64);
                        }
                    }
                    // Proportional selection over positive gains.
                    let k_to_current = ht.weight(c);
                    let sigma_current = sigma[c as usize].load();
                    let mut candidates: Vec<(VertexId, f64)> = Vec::new();
                    for (d, k_to_d) in ht.iter() {
                        if d == c {
                            continue;
                        }
                        let gain = delta_modularity(
                            k_to_d,
                            k_to_current,
                            k_i,
                            sigma[d as usize].load(),
                            sigma_current,
                            m,
                        );
                        if gain > 0.0 {
                            candidates.push((d, gain));
                        }
                    }
                    if candidates.is_empty() {
                        return false;
                    }
                    let mut rng = Xorshift32::new((seed as u32) ^ (i.wrapping_mul(0x9E37_79B9)));
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
                    locks.with_pair(c, target, || {
                        // Re-check isolation under the lock; the target
                        // must also still be occupied.
                        if sigma[c as usize].load() == k_i && sigma[target as usize].load() > 0.0 {
                            sigma[c as usize].store(0.0);
                            sigma[target as usize].fetch_add(k_i);
                            // Relaxed: commit is ordered by the lock pair.
                            membership[i as usize].store(target, Ordering::Relaxed);
                            true
                        } else {
                            false
                        }
                    })
                })
            })
            .filter(|&moved| moved)
            .count()
            > 0;

        // ---- Dendrogram + convergence ----
        // Relaxed: post-join read-back of the refinement results.
        let refined: Vec<VertexId> = membership
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let (dense, k) = gve_leiden::dendrogram::renumber(&refined);
        for c in top.iter_mut() {
            *c = dense[*c as usize];
        }
        passes += 1;
        if (!any_move && !any_refine) || k == n_cur {
            break;
        }

        // ---- Unoptimized aggregation: lock-guarded hash maps ----
        current = Some(aggregate_locked(g, &dense, k));
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

/// Aggregation through per-community `Mutex<HashMap>` accumulators — the
/// unoptimized design the paper calls out in prior parallel Leidens.
fn aggregate_locked(graph: &CsrGraph, membership: &[VertexId], num_communities: usize) -> CsrGraph {
    let maps: Vec<Mutex<HashMap<VertexId, f64>>> = (0..num_communities)
        .map(|_| Mutex::new(HashMap::new()))
        .collect();
    (0..graph.num_vertices() as VertexId).for_each(|i| {
        let c = membership[i as usize];
        let mut map = lock(&maps[c as usize]);
        for (j, w) in graph.edges(i) {
            *map.entry(membership[j as usize]).or_insert(0.0) += w as f64;
        }
    });
    let mut builder = GraphBuilder::new()
        .with_vertices(num_communities)
        .symmetrize(false)
        .dedup(false);
    for (c, map) in maps.into_iter().enumerate() {
        for (d, w) in map.into_inner().unwrap_or_else(PoisonError::into_inner) {
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
        let r = nk_leiden(&two_triangles());
        assert_eq!(r.num_communities, 2);
        assert_eq!(r.membership[0], r.membership[2]);
        assert_ne!(r.membership[0], r.membership[3]);
    }

    #[test]
    fn quality_comparable_to_gve_leiden() {
        let g = gve_generate::rmat::Rmat::web(10, 6.0).seed(3).generate();
        let q_nk = gve_quality::modularity(&g, &nk_leiden(&g).membership);
        let q_gve = gve_quality::modularity(&g, &gve_leiden::leiden(&g).membership);
        assert!((q_nk - q_gve).abs() < 0.1, "nk {q_nk} vs gve {q_gve}");
    }

    #[test]
    fn recovers_planted_partition() {
        let planted = gve_generate::sbm::PlantedPartition::new(1200, 10, 12.0, 1.0)
            .seed(9)
            .generate();
        let r = nk_leiden(&planted.graph);
        let nmi = gve_quality::normalized_mutual_information(&r.membership, &planted.labels);
        assert!(nmi > 0.85, "NMI {nmi}");
    }

    #[test]
    fn partition_is_valid() {
        let g = gve_generate::kmer::kmer_chains(5_000, 16, 0.05, 2);
        let r = nk_leiden(&g);
        gve_quality::validate_membership(&r.membership, g.num_vertices()).unwrap();
        assert!(r.num_communities >= 1);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(nk_leiden(&CsrGraph::empty(0)).passes, 0);
        assert_eq!(nk_leiden(&CsrGraph::empty(2)).membership, vec![0, 1]);
    }
}
