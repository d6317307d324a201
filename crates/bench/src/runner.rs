//! Uniform measurement of every community-detection implementation.

use gve_graph::CsrGraph;
use gve_graph::VertexId;
use std::time::Instant;

/// Boxed detection routine: graph in, membership vector out.
pub type DetectFn = Box<dyn Fn(&CsrGraph) -> Vec<VertexId> + Sync>;

/// A community-detection implementation under test.
pub struct Implementation {
    /// Display name used in tables.
    pub name: &'static str,
    /// Whether the implementation is parallel (for Table 1's column).
    pub parallel: bool,
    /// Runs detection and returns the membership vector.
    pub run: DetectFn,
}

/// The five implementations of the Figure 6 comparison, in the paper's
/// order. The external systems map to local stand-ins as documented in
/// DESIGN.md (cuGraph has none):
///
/// * *Original Leiden* → `seq-leiden` (queue-driven, randomized refine)
/// * *igraph Leiden* → `seq-louvain`-style sequential engine is not a
///   Leiden, so igraph's role is also covered by `seq-leiden`; we keep
///   sequential Louvain in the matrix as the disconnected-communities
///   producer
/// * *NetworKit Leiden* → `nk-leiden` (global queues + locks)
/// * plus the paper's own substrate `gve-louvain` (`gve_leiden::louvain`)
///   and the contribution `gve-leiden`.
pub fn implementations() -> Vec<Implementation> {
    vec![
        Implementation {
            name: "seq-leiden",
            parallel: false,
            run: Box::new(|g| gve_baselines::seq::sequential_leiden(g).membership),
        },
        Implementation {
            name: "seq-louvain",
            parallel: false,
            run: Box::new(|g| gve_baselines::seq::sequential_louvain(g).membership),
        },
        Implementation {
            name: "nk-leiden",
            parallel: true,
            run: Box::new(|g| gve_baselines::nk::nk_leiden(g).membership),
        },
        Implementation {
            name: "gve-louvain",
            parallel: true,
            run: Box::new(|g| gve_leiden::louvain(g).membership),
        },
        Implementation {
            name: "gve-leiden",
            parallel: true,
            run: Box::new(|g| gve_leiden::leiden(g).membership),
        },
    ]
}

/// One measured run: averaged wall time plus quality metrics.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Implementation name.
    pub name: &'static str,
    /// Mean wall-clock seconds over the repetitions.
    pub seconds: f64,
    /// Modularity of the last repetition's partition (Figure 6(c)).
    pub modularity: f64,
    /// Number of communities (last repetition).
    pub communities: usize,
    /// Worst fraction of internally-disconnected communities observed
    /// over the repetitions (Figure 6(d)): a correct Leiden must keep
    /// this at exactly zero on every run, so the maximum is the honest
    /// statistic.
    pub disconnected_fraction: f64,
}

/// Times `imp` on `graph` over `reps` repetitions (the paper averages
/// over five) and evaluates every resulting partition.
pub fn measure(graph: &CsrGraph, imp: &Implementation, reps: usize) -> Measured {
    assert!(reps >= 1);
    let mut total = 0.0;
    let mut membership = Vec::new();
    let mut worst_disconnected = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        membership = (imp.run)(graph);
        total += start.elapsed().as_secs_f64();
        let report = gve_quality::disconnected_communities(graph, &membership);
        worst_disconnected = worst_disconnected.max(report.fraction());
    }
    let modularity = gve_quality::modularity(graph, &membership);
    Measured {
        name: imp.name,
        seconds: total / reps as f64,
        modularity,
        communities: gve_quality::community_count(&membership),
        disconnected_fraction: worst_disconnected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_five_in_paper_order() {
        let imps = implementations();
        let names: Vec<_> = imps.iter().map(|i| i.name).collect();
        assert_eq!(
            names,
            vec![
                "seq-leiden",
                "seq-louvain",
                "nk-leiden",
                "gve-louvain",
                "gve-leiden"
            ]
        );
        assert!(!imps[0].parallel);
        assert!(imps[4].parallel);
    }

    #[test]
    fn measure_produces_consistent_metrics() {
        let g = gve_generate::sbm::PlantedPartition::new(400, 4, 10.0, 1.0)
            .seed(3)
            .generate()
            .graph;
        for imp in implementations() {
            let m = measure(&g, &imp, 1);
            assert!(m.seconds > 0.0, "{}", imp.name);
            assert!(
                (-0.5..=1.0).contains(&m.modularity),
                "{}: Q = {}",
                imp.name,
                m.modularity
            );
            assert!(m.communities >= 1, "{}", imp.name);
            assert!((0.0..=1.0).contains(&m.disconnected_fraction));
            // Well-separated SBM: everything should find decent structure.
            assert!(m.modularity > 0.3, "{}: Q = {}", imp.name, m.modularity);
        }
    }
}
