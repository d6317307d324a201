//! Exhaustive configuration-matrix sweep: every combination of
//! scheduling × refinement × labeling × aggregation × objective runs on
//! representative graphs of each class and upholds the core invariants —
//! valid dense partition, bounded quality, connectivity guarantee, and
//! quality parity with the default configuration.

use gve_graph::CsrGraph;
use gve_leiden::{
    AggregationStrategy, Labeling, Leiden, LeidenConfig, Objective, RefinementStrategy, Scheduling,
};

fn test_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "planted",
            gve_generate::sbm::PlantedPartition::new(600, 6, 12.0, 1.5)
                .seed(3)
                .generate()
                .graph,
        ),
        (
            "rmat-web",
            gve_generate::rmat::Rmat::web(9, 6.0).seed(4).generate(),
        ),
        ("kmer", gve_generate::kmer::kmer_chains(2000, 12, 0.05, 5)),
        ("ring", gve_generate::ring::ring_of_cliques(6, 5)),
    ]
}

fn all_configs() -> Vec<(String, LeidenConfig)> {
    let mut configs = Vec::new();
    for scheduling in [Scheduling::Asynchronous, Scheduling::ColorSynchronous] {
        for refinement in [RefinementStrategy::Greedy, RefinementStrategy::Random] {
            for labeling in [Labeling::MoveBased, Labeling::RefineBased] {
                for aggregation in [
                    AggregationStrategy::Hashtable,
                    AggregationStrategy::SortReduce,
                ] {
                    let config = LeidenConfig::default()
                        .scheduling(scheduling)
                        .refinement(refinement)
                        .labeling(labeling)
                        .aggregation(aggregation)
                        .seed(11);
                    configs.push((
                        format!("{scheduling:?}/{refinement:?}/{labeling:?}/{aggregation:?}"),
                        config,
                    ));
                }
            }
        }
    }
    configs
}

#[test]
fn every_configuration_upholds_invariants_on_every_class() {
    for (graph_name, graph) in test_graphs() {
        let reference_q = gve_quality::modularity(&graph, &gve_leiden::leiden(&graph).membership);
        for (config_name, config) in all_configs() {
            let result = Leiden::new(config).run(&graph);
            let label = format!("{graph_name} × {config_name}");

            gve_quality::validate_membership(&result.membership, graph.num_vertices())
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let max = result.membership.iter().copied().max().unwrap_or(0) as usize;
            assert_eq!(
                max + 1,
                result.num_communities.max(1),
                "{label}: ids not dense"
            );

            let q = gve_quality::modularity(&graph, &result.membership);
            assert!((-0.5..=1.0 + 1e-9).contains(&q), "{label}: Q = {q}");
            assert!(
                q > reference_q - 0.12,
                "{label}: Q {q} far below reference {reference_q}"
            );

            let report = gve_quality::disconnected_communities(&graph, &result.membership);
            assert!(
                report.all_connected(),
                "{label}: {} of {} disconnected",
                report.disconnected,
                report.communities
            );

            assert!(result.passes >= 1 && result.passes <= 10, "{label}");
            assert_eq!(result.pass_stats.len(), result.passes, "{label}");
        }
    }
}

#[test]
fn cpm_objective_composes_with_every_scheduling_and_aggregation() {
    let planted = gve_generate::sbm::PlantedPartition::new(800, 8, 12.0, 1.0)
        .seed(9)
        .generate();
    for scheduling in [Scheduling::Asynchronous, Scheduling::ColorSynchronous] {
        for aggregation in [
            AggregationStrategy::Hashtable,
            AggregationStrategy::SortReduce,
        ] {
            let config = LeidenConfig::default()
                .objective(Objective::Cpm { resolution: 0.05 })
                .scheduling(scheduling)
                .aggregation(aggregation);
            let result = Leiden::new(config).run(&planted.graph);
            let nmi =
                gve_quality::normalized_mutual_information(&result.membership, &planted.labels);
            assert!(nmi > 0.85, "{scheduling:?}/{aggregation:?}: CPM NMI {nmi}");
        }
    }
}

#[test]
fn seeded_and_frontier_runs_compose_with_variants() {
    let graph = gve_generate::rmat::Rmat::web(9, 6.0).seed(6).generate();
    let base = gve_leiden::leiden(&graph);
    for aggregation in [
        AggregationStrategy::Hashtable,
        AggregationStrategy::SortReduce,
    ] {
        let runner = Leiden::new(LeidenConfig::default().aggregation(aggregation));
        let every: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        let seeded = runner.run_frontier(&graph, &base.membership, &every);
        gve_quality::validate_membership(&seeded.membership, graph.num_vertices()).unwrap();
        let frontier: Vec<u32> = (0..16).collect();
        let frontier_run = runner.run_frontier(&graph, &base.membership, &frontier);
        gve_quality::validate_membership(&frontier_run.membership, graph.num_vertices()).unwrap();
        let q_base = gve_quality::modularity(&graph, &base.membership);
        let q_frontier = gve_quality::modularity(&graph, &frontier_run.membership);
        assert!(
            q_frontier > q_base - 0.03,
            "{aggregation:?}: frontier Q {q_frontier} vs {q_base}"
        );
    }
}
