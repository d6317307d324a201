//! Differential tests of the pass-resident workspace arena: a run that
//! reuses a dirty [`PassWorkspace`] — stale contents from previous runs
//! on other (bigger and smaller) graphs — must be **bit-identical** to
//! a fresh run. `Leiden::run` itself delegates to `run_in` with a
//! throwaway workspace, so both sides share one code path; what these
//! tests pin down is that no stale buffer state ever leaks into a
//! result.
//!
//! All comparisons run inside a 1-thread rayon pool: the parallel fills
//! and scatters then execute in index order, making even the
//! asynchronous scheduling deterministic and the comparison exact.

use gve_graph::{CsrGraph, GraphBuilder};
use gve_leiden::{Labeling, Leiden, LeidenConfig, Objective, PassWorkspace, Scheduling};
use proptest::prelude::*;

fn arb_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32, f32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 1u32..6), 1..max_m).prop_map(move |edges| {
            (
                n,
                edges
                    .into_iter()
                    .map(|(u, v, w)| (u, v, w as f32))
                    .collect(),
            )
        })
    })
}

/// A workspace pre-dirtied by full runs on unrelated graphs: one larger
/// than any proptest case (so every prefix view has a stale suffix
/// behind it) and one tiny (so grow-only growth is exercised too).
///
/// The runs also cover every buffer that hosts another's data: a
/// refine-based run leaves refined snapshots rather than next-pass
/// labels in `init_labels`, the default move-based runs leave `label_of`
/// staging in `bounds` and fill counts in the aggregation cursors, and
/// the color-synchronous run on the tiny graph sizes the lazily grown
/// plain state smaller than later cases need.
fn dirty_workspace() -> PassWorkspace {
    let mut ws = PassWorkspace::new();
    let big = gve_generate::sbm::PlantedPartition::new(800, 8, 10.0, 1.0)
        .seed(5)
        .generate()
        .graph;
    let small = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
    let leiden = Leiden::default();
    let refine_based = Leiden::new(LeidenConfig::default().labeling(Labeling::RefineBased));
    let color_sync = Leiden::new(LeidenConfig::default().scheduling(Scheduling::ColorSynchronous));
    refine_based.run_in(&big, &mut ws);
    leiden.run_in(&big, &mut ws);
    color_sync.run_in(&small, &mut ws);
    leiden.run_in(&small, &mut ws);
    ws
}

fn assert_identical(
    fresh: &gve_leiden::LeidenResult,
    reused: &gve_leiden::LeidenResult,
    label: &str,
) {
    assert_eq!(fresh.membership, reused.membership, "{label}: membership");
    assert_eq!(
        fresh.num_communities, reused.num_communities,
        "{label}: num_communities"
    );
    assert_eq!(fresh.passes, reused.passes, "{label}: passes");
    assert_eq!(
        fresh.move_iterations, reused.move_iterations,
        "{label}: move iterations"
    );
    assert_eq!(fresh.dendrogram, reused.dendrogram, "{label}: dendrogram");
    assert_eq!(fresh.stop, reused.stop, "{label}: stop reason");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random graphs × objective × scheduling × labeling × dendrogram
    /// recording:
    /// reused-workspace runs (including back-to-back reuse of the same
    /// workspace) match fresh runs exactly.
    #[test]
    fn reused_workspace_is_bit_identical_to_fresh(
        (n, edges) in arb_graph(64, 200),
        cpm in 0u32..2,
        color_sync in 0u32..2,
        refine_based in 0u32..2,
        record in 0u32..2,
    ) {
        let graph = GraphBuilder::from_edges(n as usize, &edges);
        let mut config = LeidenConfig::default().seed(42);
        if cpm == 1 {
            config = config.objective(Objective::Cpm { resolution: 0.5 });
        }
        if color_sync == 1 {
            config = config.scheduling(Scheduling::ColorSynchronous);
        }
        if refine_based == 1 {
            config = config.labeling(Labeling::RefineBased);
        }
        config.record_dendrogram = record == 1;
        let leiden = Leiden::new(config);

        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        pool.install(|| {
            let fresh = leiden.run(&graph);
            let mut ws = dirty_workspace();
            let reused = leiden.run_in(&graph, &mut ws);
            assert_identical(&fresh, &reused, "first reuse");
            // Same workspace again: steady-state reuse.
            let again = leiden.run_in(&graph, &mut ws);
            assert_identical(&fresh, &again, "second reuse");
        });
    }
}

/// Paper-shaped inputs at realistic scale: RMAT (web-like skew) and a
/// planted SBM, both objectives, shared workspace across all of them in
/// shrinking-then-growing order.
#[test]
fn rmat_and_sbm_runs_share_one_workspace() {
    let rmat = gve_generate::rmat::Rmat::web(10, 6.0).seed(11).generate();
    let sbm = gve_generate::sbm::PlantedPartition::new(2500, 12, 14.0, 1.0)
        .seed(12)
        .generate()
        .graph;
    let modularity = {
        let mut c = LeidenConfig::default().seed(7);
        c.record_dendrogram = true;
        Leiden::new(c)
    };
    let cpm = {
        let mut c = LeidenConfig::default()
            .seed(7)
            .objective(Objective::Cpm { resolution: 0.8 });
        c.record_dendrogram = true;
        Leiden::new(c)
    };

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        let mut ws = PassWorkspace::new();
        for (label, graph) in [("rmat", &rmat), ("sbm", &sbm)] {
            for (objective, leiden) in [("modularity", &modularity), ("cpm", &cpm)] {
                let fresh = leiden.run(graph);
                let reused = leiden.run_in(graph, &mut ws);
                assert_identical(&fresh, &reused, &format!("{label}/{objective}"));
            }
        }
    });
}

/// Seeded and frontier runs through a reused workspace match their
/// fresh-workspace equivalents (the dynamic-update path of gve-serve).
#[test]
fn seeded_and_frontier_runs_reuse_workspace() {
    let graph: CsrGraph = gve_generate::sbm::PlantedPartition::new(1200, 10, 12.0, 1.0)
        .seed(33)
        .generate()
        .graph;
    let n = graph.num_vertices();
    let previous: Vec<u32> = (0..n as u32).map(|v| v % 97).collect();
    let frontier: Vec<u32> = (0..n as u32).step_by(13).collect();
    let leiden = Leiden::new(LeidenConfig::default().seed(3));

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        let mut ws = dirty_workspace();
        let every: Vec<u32> = (0..n as u32).collect();
        let fresh_seeded = leiden.run_frontier(&graph, &previous, &every);
        let reused_seeded = leiden.run_frontier_in(&graph, &previous, &every, &mut ws);
        assert_identical(&fresh_seeded, &reused_seeded, "seeded");

        let fresh_frontier = leiden.run_frontier(&graph, &previous, &frontier);
        let reused_frontier = leiden.run_frontier_in(&graph, &previous, &frontier, &mut ws);
        assert_identical(&fresh_frontier, &reused_frontier, "frontier");
    });
}
