//! GVE-Louvain: the optimized parallel Louvain method the paper's Leiden
//! implementation extends (\[23\] in the paper), plus a textbook sequential
//! Louvain baseline.
//!
//! Louvain is Leiden without the refinement phase: local-moving then
//! aggregation, repeated on the shrinking super-vertex graph. It is both
//! a performance comparator (same optimization stack, one phase fewer)
//! and the honest producer of *internally-disconnected communities* for
//! Figure 6(d) — the defect Leiden's refinement exists to fix.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod seq;

use gve_graph::{props::vertex_weights, CsrGraph, VertexId};
use gve_leiden::config::LeidenConfig;
use gve_leiden::dendrogram;
use gve_leiden::timing::{PassStats, PhaseTimings};
use gve_leiden::{aggregate, localmove};
use gve_prim::atomics::{atomic_f64_from_slice, AtomicF64};
use gve_prim::{AtomicBitset, CommunityMap, PerThread};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Configuration for GVE-Louvain. Reuses the Leiden parameter set; the
/// refinement-specific fields are ignored.
pub type LouvainConfig = LeidenConfig;

/// Outcome of a GVE-Louvain run.
#[derive(Debug, Clone)]
pub struct LouvainResult {
    /// Community of every vertex, dense `0..k`.
    pub membership: Vec<VertexId>,
    /// Number of communities.
    pub num_communities: usize,
    /// Passes performed.
    pub passes: usize,
    /// Total local-moving iterations.
    pub move_iterations: usize,
    /// Per-phase wall time (refinement always zero).
    pub timings: PhaseTimings,
    /// Per-pass statistics.
    pub pass_stats: Vec<PassStats>,
}

/// The GVE-Louvain runner.
#[derive(Debug, Clone, Default)]
pub struct Louvain {
    config: LouvainConfig,
}

/// Runs GVE-Louvain with default configuration.
pub fn louvain(graph: &CsrGraph) -> LouvainResult {
    Louvain::default().run(graph)
}

impl Louvain {
    /// Creates a runner with the given configuration.
    ///
    /// # Panics
    /// Panics when the configuration is invalid, or when a CPM objective
    /// is requested — this Louvain tracks weighted degrees only; use
    /// `gve-leiden` for CPM.
    pub fn new(config: LouvainConfig) -> Self {
        config.validate().expect("invalid Louvain configuration");
        assert!(
            !config.objective.penalty_is_size(),
            "GVE-Louvain supports the modularity objective only"
        );
        Self { config }
    }

    /// Runs the Louvain method: local-moving + aggregation per pass.
    pub fn run(&self, graph: &CsrGraph) -> LouvainResult {
        let config = &self.config;
        let n = graph.num_vertices();
        let mut timings = PhaseTimings::default();
        let mut pass_stats = Vec::new();
        let mut top: Vec<VertexId> = (0..n as VertexId).collect();
        let m = graph.total_arc_weight() / 2.0;
        if n == 0 || m <= 0.0 {
            return LouvainResult {
                num_communities: n,
                membership: top,
                passes: 0,
                move_iterations: 0,
                timings,
                pass_stats,
            };
        }

        let tables: PerThread<CommunityMap> = PerThread::new(move || CommunityMap::new(n));
        let coeffs = config.objective.coeffs(m);
        let mut current: Option<CsrGraph> = None;
        let mut tolerance = config.initial_tolerance;
        let mut move_iterations = 0usize;
        let mut passes = 0usize;

        for pass in 0..config.max_passes {
            let g: &CsrGraph = current.as_ref().unwrap_or(graph);
            let n_cur = g.num_vertices();
            let t_pass = Instant::now();

            let t0 = Instant::now();
            let weights = vertex_weights(g);
            let membership: Vec<AtomicU32> = (0..n_cur as u32).map(AtomicU32::new).collect();
            let sigma: Vec<AtomicF64> = atomic_f64_from_slice(&weights);
            let unprocessed = AtomicBitset::new_all_set(n_cur);
            timings.other += t0.elapsed();

            let t1 = Instant::now();
            let outcome = localmove::local_move(
                g,
                &membership,
                &weights,
                &sigma,
                coeffs,
                tolerance,
                config,
                &tables,
                &unprocessed,
            );
            let local_move_time = t1.elapsed();
            timings.local_move += local_move_time;
            let li = outcome.gains.len();
            move_iterations += li;

            let t2 = Instant::now();
            // Relaxed: post-join read-back of local_move's stores.
            let moved_membership: Vec<VertexId> = membership
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect();
            let (dense, k) = dendrogram::renumber(&moved_membership);
            dendrogram::lookup(&mut top, &dense);
            timings.other += t2.elapsed();

            passes += 1;
            pass_stats.push(PassStats {
                pass,
                vertices: n_cur,
                arcs: g.num_arcs(),
                move_iterations: li,
                iteration_gains: outcome.gains,
                refine_moves: 0, // Louvain has no refinement phase
                communities: k,
                pruning_processed: outcome.pruning_processed,
                pruning_skipped: outcome.pruning_skipped,
                tolerance,
                sched_chunks: outcome.chunks,
                sched_steals: 0,
                local_move_time,
                refinement_time: Duration::ZERO,
                aggregation_time: Duration::ZERO,
                duration: t_pass.elapsed(),
            });

            if li <= 1 {
                break; // converged: a single quiet iteration
            }
            if config.use_aggregation_tolerance
                && (k as f64) > config.aggregation_tolerance * (n_cur as f64)
            {
                break;
            }
            if pass + 1 == config.max_passes {
                break;
            }

            let t3 = Instant::now();
            let dense_atomic: Vec<AtomicU32> = dense.iter().map(|&c| AtomicU32::new(c)).collect();
            let supergraph = aggregate::aggregate(
                g,
                &dense_atomic,
                &dense,
                k,
                &tables,
                Some(gve_leiden::SMALL_DEGREE_THRESHOLD),
            );
            let aggregation_time = t3.elapsed();
            timings.aggregation += aggregation_time;
            if let Some(ps) = pass_stats.last_mut() {
                ps.aggregation_time = aggregation_time;
                ps.duration = t_pass.elapsed();
            }

            current = Some(supergraph);
            if config.threshold_scaling {
                tolerance /= config.tolerance_drop;
            }
        }

        let (final_membership, num_communities) = dendrogram::renumber(&top);
        LouvainResult {
            membership: final_membership,
            num_communities,
            passes,
            move_iterations,
            timings,
            pass_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gve_graph::GraphBuilder;

    #[test]
    fn detects_two_triangles() {
        let g = GraphBuilder::from_edges(
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
        let r = louvain(&g);
        assert_eq!(r.num_communities, 2);
        assert_eq!(r.membership[0], r.membership[2]);
        assert_ne!(r.membership[0], r.membership[4]);
    }

    #[test]
    fn recovers_planted_partition() {
        let planted = gve_generate::sbm::PlantedPartition::new(1500, 10, 14.0, 1.0)
            .seed(3)
            .generate();
        let r = louvain(&planted.graph);
        let nmi = gve_quality::normalized_mutual_information(&r.membership, &planted.labels);
        assert!(nmi > 0.85, "NMI {nmi}");
    }

    #[test]
    fn modularity_comparable_to_leiden() {
        let g = gve_generate::rmat::Rmat::web(10, 8.0).seed(4).generate();
        let q_louvain = gve_quality::modularity(&g, &louvain(&g).membership);
        let q_leiden = gve_quality::modularity(&g, &gve_leiden::leiden(&g).membership);
        // Louvain should land in the same quality ballpark (Fig. 6(c)).
        assert!(
            q_louvain > q_leiden - 0.1,
            "Louvain {q_louvain} far below Leiden {q_leiden}"
        );
    }

    #[test]
    fn refinement_time_is_zero() {
        let g = gve_generate::rmat::Rmat::web(9, 4.0).seed(5).generate();
        let r = louvain(&g);
        assert_eq!(r.timings.refinement.as_nanos(), 0);
        assert!(r.timings.local_move.as_nanos() > 0);
    }

    #[test]
    fn empty_and_edgeless_inputs() {
        assert_eq!(louvain(&CsrGraph::empty(0)).num_communities, 0);
        let r = louvain(&CsrGraph::empty(3));
        assert_eq!(r.membership, vec![0, 1, 2]);
    }
}
