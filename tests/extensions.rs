//! Integration tests of the extension surface through the facade crate:
//! CPM, scheduling, hierarchy, dynamic updates, LFR, subgraphs, reports.

use gve::dynamic::{BatchUpdate, DynamicLeiden, DynamicStrategy};
use gve::generate::{Lfr, PlantedPartition};
use gve::graph::subgraph::community_subgraph;
use gve::leiden::{Leiden, LeidenConfig, Objective, Scheduling};
use gve::quality;

#[test]
fn cpm_and_modularity_agree_on_planted_structure() {
    let planted = PlantedPartition::new(1500, 10, 14.0, 1.0)
        .seed(21)
        .generate();
    let graph = &planted.graph;
    let q_members = gve::leiden::leiden(graph).membership;
    let cpm_members =
        Leiden::new(LeidenConfig::default().objective(Objective::Cpm { resolution: 0.05 }))
            .run(graph)
            .membership;
    let agreement = quality::normalized_mutual_information(&q_members, &cpm_members);
    assert!(agreement > 0.9, "NMI between objectives: {agreement}");
    // Both recover the plant.
    assert!(quality::normalized_mutual_information(&cpm_members, &planted.labels) > 0.9);
}

#[test]
fn deterministic_mode_is_reproducible_through_facade() {
    let lfr = Lfr::new(2000, 12.0, 0.2).seed(9).generate();
    let config = LeidenConfig::default().scheduling(Scheduling::ColorSynchronous);
    let a = Leiden::new(config.clone()).run(&lfr.graph).membership;
    let b = Leiden::new(config).run(&lfr.graph).membership;
    assert_eq!(a, b);
}

#[test]
fn hierarchy_subgraph_report_workflow() {
    let lfr = Lfr::new(3000, 12.0, 0.2).seed(4).generate();
    let config = LeidenConfig {
        record_dendrogram: true,
        ..LeidenConfig::default()
    };
    let result = Leiden::new(config).run(&lfr.graph);

    // Hierarchy levels coarsen monotonically.
    let mut previous = usize::MAX;
    for level in 0..=result.dendrogram.len() {
        let k = quality::community_count(&result.membership_at_level(level));
        assert!(k <= previous, "level {level} grew: {k} > {previous}");
        previous = k;
    }

    // Per-community report covers every vertex and flags nothing.
    let report = quality::community_report(&lfr.graph, &result.membership);
    assert_eq!(
        report.iter().map(|d| d.size).sum::<usize>(),
        lfr.graph.num_vertices()
    );
    assert!(report.iter().all(|d| d.connected));

    // Drill into the largest community: the subgraph is self-consistent.
    let sub = community_subgraph(&lfr.graph, &result.membership, report[0].id);
    assert_eq!(sub.graph.num_vertices(), report[0].size);
    assert!((sub.graph.total_arc_weight() - report[0].internal_weight).abs() < 1e-6);
    assert!(gve::graph::traversal::is_connected(&sub.graph));
}

#[test]
fn dynamic_detector_with_cpm_objective() {
    // The dynamic layer composes with non-default objectives.
    let planted = PlantedPartition::new(1200, 8, 14.0, 1.0).seed(6).generate();
    let config = LeidenConfig::default().objective(Objective::Cpm { resolution: 0.05 });
    let mut detector = DynamicLeiden::new(
        planted.graph.clone(),
        config,
        DynamicStrategy::DynamicFrontier,
    );
    let mut batch = BatchUpdate::new();
    for i in 0..50u32 {
        batch.insert(i, (i + 37) % 1200, 1.0);
    }
    detector.apply(&batch);
    quality::validate_membership(detector.membership(), detector.graph().num_vertices()).unwrap();
    let nmi = quality::normalized_mutual_information(detector.membership(), &planted.labels);
    assert!(nmi > 0.85, "NMI {nmi}");
}

#[test]
fn dot_export_of_detected_communities() {
    let g = gve::graph::GraphBuilder::from_edges(
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
    let result = gve::leiden::leiden(&g);
    let mut buf = Vec::new();
    gve::graph::io::dot::write_dot(&g, Some(&result.membership), &mut buf).unwrap();
    let dot = String::from_utf8(buf).unwrap();
    assert!(
        dot.contains("style=dashed"),
        "bridge must be dashed:\n{dot}"
    );
    assert_eq!(dot.matches("--").count(), 7);
}
