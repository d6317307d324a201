//! GVE-Louvain: the optimized parallel Louvain method the paper's Leiden
//! implementation extends (\[23\] in the paper), plus a textbook sequential
//! Louvain baseline.
//!
//! Louvain is Leiden without the refinement phase: local-moving then
//! aggregation, repeated on the shrinking super-vertex graph. It runs on
//! GVE-Leiden's own pass loop ([`Leiden::run_louvain_in`]) with that
//! phase skipped, so it shares every optimization and buffer of the
//! Leiden implementation. It is both a performance comparator (same
//! optimization stack, one phase fewer) and the honest producer of
//! *internally-disconnected communities* for Figure 6(d) — the defect
//! Leiden's refinement exists to fix.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod seq;

use gve_graph::CsrGraph;
use gve_leiden::{Leiden, LeidenResult, PassWorkspace};

/// Runs GVE-Louvain with the default configuration (the paper's
/// parameters; `timings.refinement` is always zero).
pub fn louvain(graph: &CsrGraph) -> LeidenResult {
    Leiden::default().run_louvain_in(graph, &mut PassWorkspace::new())
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
        for pass in &r.pass_stats {
            assert_eq!(pass.refinement_time.as_nanos(), 0);
            assert_eq!(pass.refine_moves, 0);
        }
    }

    #[test]
    fn empty_and_edgeless_inputs() {
        assert_eq!(louvain(&CsrGraph::empty(0)).num_communities, 0);
        let r = louvain(&CsrGraph::empty(3));
        assert_eq!(r.membership, vec![0, 1, 2]);
    }
}
