//! Cross-crate end-to-end tests: generator → detector → quality, over
//! every dataset class, every implementation, and several seeds.

use gve::generate::{suite, PlantedPartition};
use gve::leiden::{Labeling, Leiden, LeidenConfig, RefinementStrategy, Variant};
use gve::quality;

/// Every implementation must produce a valid partition with sane quality
/// on each dataset class.
#[test]
fn all_implementations_on_all_classes() {
    for dataset in suite::quick_suite() {
        let graph = dataset.generate(0.25, 11);
        let n = graph.num_vertices();
        let runs: Vec<(&str, Vec<u32>)> = vec![
            ("gve-leiden", gve::leiden::leiden(&graph).membership),
            ("gve-louvain", gve::leiden::louvain(&graph).membership),
            (
                "seq-leiden",
                gve::baselines::seq::sequential_leiden(&graph).membership,
            ),
            (
                "seq-louvain",
                gve::baselines::seq::sequential_louvain(&graph).membership,
            ),
            (
                "nk-leiden",
                gve::baselines::nk::nk_leiden(&graph).membership,
            ),
        ];
        let q_reference = quality::modularity(&graph, &runs[2].1); // seq-leiden
        for (name, membership) in &runs {
            quality::validate_membership(membership, n)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", dataset.name));
            let q = quality::modularity(&graph, membership);
            assert!(
                (-0.5..=1.0).contains(&q),
                "{name} on {}: Q = {q}",
                dataset.name
            );
            // Everyone lands within 0.1 of the sequential Leiden
            // reference (the paper reports ≤ 0.3% gaps; our band is
            // loose to absorb asynchronous nondeterminism).
            assert!(
                (q - q_reference).abs() < 0.1,
                "{name} on {}: Q = {q} vs reference {q_reference}",
                dataset.name
            );
        }
    }
}

/// The Leiden implementations must uphold the connectivity guarantee on
/// every class and multiple seeds.
#[test]
fn leiden_connectivity_guarantee_across_seeds() {
    for dataset in suite::quick_suite() {
        for seed in [1u64, 7, 23] {
            let graph = dataset.generate(0.2, seed);
            let result = gve::leiden::leiden(&graph);
            let report = quality::disconnected_communities(&graph, &result.membership);
            assert!(
                report.all_connected(),
                "{} seed {seed}: {} of {} disconnected",
                dataset.name,
                report.disconnected,
                report.communities
            );
        }
    }
}

/// All 2 × 3 strategy/variant combinations and both labelings run and
/// produce comparable quality.
#[test]
fn config_matrix_is_consistent() {
    let planted = PlantedPartition::new(1200, 8, 12.0, 1.5).seed(5).generate();
    let graph = &planted.graph;
    let reference = quality::modularity(graph, &gve::leiden::leiden(graph).membership);
    for strategy in [RefinementStrategy::Greedy, RefinementStrategy::Random] {
        for variant in [Variant::Default, Variant::Medium, Variant::Heavy] {
            for labeling in [Labeling::MoveBased, Labeling::RefineBased] {
                let config = LeidenConfig::default()
                    .refinement(strategy)
                    .variant(variant)
                    .labeling(labeling)
                    .seed(3);
                let result = Leiden::new(config).run(graph);
                let q = quality::modularity(graph, &result.membership);
                assert!(
                    (q - reference).abs() < 0.1,
                    "{strategy:?}/{variant:?}/{labeling:?}: Q = {q} vs {reference}"
                );
                let report = quality::disconnected_communities(graph, &result.membership);
                assert!(
                    report.all_connected(),
                    "{strategy:?}/{variant:?}/{labeling:?} violated connectivity"
                );
            }
        }
    }
}

/// Strong planted structure must be recovered almost exactly by every
/// implementation (NMI vs ground truth).
#[test]
fn ground_truth_recovery_by_all() {
    let planted = PlantedPartition::new(2000, 10, 16.0, 1.0)
        .seed(2)
        .generate();
    let graph = &planted.graph;
    let check = |name: &str, membership: &[u32]| {
        let nmi = quality::normalized_mutual_information(membership, &planted.labels);
        assert!(nmi > 0.9, "{name}: NMI {nmi}");
    };
    check("gve-leiden", &gve::leiden::leiden(graph).membership);
    check("gve-louvain", &gve::leiden::louvain(graph).membership);
    check(
        "seq-leiden",
        &gve::baselines::seq::sequential_leiden(graph).membership,
    );
    check(
        "nk-leiden",
        &gve::baselines::nk::nk_leiden(graph).membership,
    );
}

/// Modularity of the Leiden result must never be (meaningfully) below
/// the starting singleton partition, and the pass stats must describe a
/// shrinking graph.
#[test]
fn passes_shrink_and_quality_grows() {
    let dataset = &suite::suite()[0];
    let graph = dataset.generate(0.5, 3);
    let result = gve::leiden::leiden(&graph);
    let singletons: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    assert!(
        quality::modularity(&graph, &result.membership) > quality::modularity(&graph, &singletons)
    );
    for window in result.pass_stats.windows(2) {
        assert!(
            window[1].vertices <= window[0].vertices,
            "graph grew between passes: {:?}",
            result.pass_stats
        );
        assert!(window[1].vertices == window[0].communities);
    }
    if let Some(last) = result.pass_stats.last() {
        assert_eq!(last.communities, result.num_communities);
    }
}

/// Erdős–Rényi noise: no implementation should report strong community
/// structure where none exists.
#[test]
fn no_phantom_communities_on_noise() {
    let graph = gve::generate::er::erdos_renyi(2000, 16_000, 9);
    let q = quality::modularity(&graph, &gve::leiden::leiden(&graph).membership);
    // Sparse ER graphs do admit weak partitions (Q ~ 0.2-0.3); strong
    // structure (Q > 0.6) would signal a broken optimizer.
    assert!(q < 0.6, "phantom structure on ER noise: Q = {q}");
}
