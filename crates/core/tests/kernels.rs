//! Differential tests of the neighbourhood-scan kernel: both tiers and
//! the degree dispatch must pick exactly the same `(community, gain)` as
//! the two-pass table tier on any frozen state; 1-thread asynchronous
//! runs must reproduce pinned digests end to end; cache-aware relabeling
//! must be invisible in the reported result. Running this suite with
//! `--features gve-prim/scalar-scan` swaps the lane fold for its scalar
//! reference, covering both code paths.

use gve_graph::{CsrGraph, GraphBuilder};
use gve_leiden::kernel::{best_move, two_pass_best_move, v3_best_move};
use gve_leiden::{
    Labeling, Leiden, LeidenConfig, Objective, RefinementStrategy, Scheduling, VertexOrdering,
};
use gve_prim::atomics::{atomic_f64_from_slice, AtomicF64};
use gve_prim::{CommunityMap, HashScanMap};
use proptest::prelude::*;
use std::sync::atomic::AtomicU32;

/// Random small weighted graphs: fewer than 48 vertices, so no vertex
/// has more distinct neighbours than the stack map holds
/// ([`gve_prim::HASH_SCAN_CAP`]) and the stack tier is callable for
/// all of them, while degrees still straddle the dispatch threshold.
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

/// A frozen Leiden state for a membership labeling: atomic labels, the
/// per-vertex penalty (weighted degree), and the community totals Σ.
fn frozen_state(
    graph: &CsrGraph,
    membership: &[u32],
) -> (Vec<AtomicU32>, Vec<f64>, Vec<AtomicF64>) {
    let n = graph.num_vertices();
    let atomic: Vec<AtomicU32> = membership.iter().map(|&c| AtomicU32::new(c)).collect();
    let penalty: Vec<f64> = (0..n as u32).map(|u| graph.weighted_degree(u)).collect();
    let mut sigma = vec![0.0f64; n];
    for (v, &c) in membership.iter().enumerate() {
        sigma[c as usize] += penalty[v];
    }
    (atomic, penalty, atomic_f64_from_slice(&sigma))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On every vertex of any random weighted graph, under any
    /// membership, both tiers and the degree dispatch return
    /// bit-identical `(community, gain)` to the two-pass reference —
    /// with and without refinement bounds, for both objectives.
    #[test]
    fn v3_agrees_with_two_pass(
        (n, edges) in arb_graph(48, 220),
        labels_seed in 0u64..1000,
        cpm in 0u32..2,
    ) {
        let graph = GraphBuilder::from_edges(n as usize, &edges);
        // Deterministic pseudo-random labels from the seed.
        let labels: Vec<u32> = (0..n)
            .map(|v| {
                let mut x = labels_seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (x % n as u64) as u32
            })
            .collect();
        let bounds: Vec<u32> = labels.iter().map(|&c| c % 3).collect();
        let (membership, penalty, sigma) = frozen_state(&graph, &labels);
        let m = graph.total_arc_weight() / 2.0;
        let objective = if cpm == 1 {
            Objective::Cpm { resolution: 0.25 }
        } else {
            Objective::default()
        };
        let coeffs = objective.coeffs(m.max(f64::MIN_POSITIVE));
        let mut ht = CommunityMap::new(n as usize);
        let mut hash = HashScanMap::new();
        for i in 0..n {
            let current = labels[i as usize];
            let p_i = penalty[i as usize];
            for bound in [None, Some(bounds.as_slice())] {
                let reference = two_pass_best_move(
                    &mut ht, &graph, &membership, bound, i, current, p_i, &sigma, coeffs,
                );
                for use_small in [false, true] {
                    let v3 = v3_best_move(
                        &mut ht, &mut hash, &graph, &membership, bound, i, current, p_i,
                        &sigma, coeffs, use_small,
                    );
                    prop_assert_eq!(
                        reference, v3,
                        "vertex {} (bounded: {}, small: {})",
                        i, bound.is_some(), use_small
                    );
                }
                let dispatched = best_move(
                    &mut ht, &mut hash, &graph, &membership, bound, i, current, p_i, &sigma,
                    coeffs,
                );
                prop_assert_eq!(
                    reference, dispatched,
                    "vertex {} degree {} (bounded: {})",
                    i, graph.degree(i), bound.is_some()
                );
            }
        }
    }
}

/// Relabel → detect → inverse-map must be invisible: the membership is
/// reported in original vertex ids, with the same modularity and the
/// same community-size multiset as the un-relabeled run.
#[test]
fn relabeling_round_trips_through_detection() {
    let planted = gve_generate::PlantedPartition::new(2000, 20, 12.0, 0.5)
        .seed(7)
        .generate();
    let graph = &planted.graph;
    let base = LeidenConfig::default().scheduling(Scheduling::ColorSynchronous);

    let sizes = |membership: &[u32]| -> Vec<usize> {
        let k = membership.iter().copied().max().unwrap_or(0) as usize + 1;
        let mut counts = vec![0usize; k];
        for &c in membership {
            counts[c as usize] += 1;
        }
        counts.retain(|&c| c > 0);
        counts.sort_unstable();
        counts
    };

    let reference = Leiden::new(base.clone()).run(graph);
    let q_reference = gve_quality::modularity(graph, &reference.membership);
    assert!(q_reference > 0.5, "weak reference partition: {q_reference}");

    for ordering in [VertexOrdering::DegreeDesc, VertexOrdering::Bfs] {
        let config = base.clone().ordering(ordering);
        let result = Leiden::new(config).run(graph);
        assert_eq!(
            result.membership.len(),
            graph.num_vertices(),
            "{ordering:?}: membership length"
        );
        let q = gve_quality::modularity(graph, &result.membership);
        assert!(
            (q - q_reference).abs() < 1e-9,
            "{ordering:?}: modularity {q} != reference {q_reference}"
        );
        assert_eq!(
            sizes(&result.membership),
            sizes(&reference.membership),
            "{ordering:?}: community sizes differ"
        );
        // On this strongly separated SBM the planted communities are
        // recovered exactly, so co-membership must match ground truth.
        for (v, &c) in result.membership.iter().enumerate() {
            let rep = planted.labels[v];
            let first = planted.labels.iter().position(|&l| l == rep).unwrap();
            assert_eq!(
                c, result.membership[first],
                "vertex {v} not grouped with its planted community"
            );
        }
    }
}

/// FNV-1a over a membership vector's little-endian bytes.
fn membership_fnv(membership: &[u32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in membership.iter().flat_map(|c| c.to_le_bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// 1-thread asynchronous runs reproduce pinned digests — membership
/// FNV, pass count, local-moving iterations, modularity bits and
/// claimed chunks — on
/// R-MAT, SBM and road graphs under the default, refine-based, CPM and
/// random-refinement configurations. At one thread the asynchronous
/// schedule is deterministic, and every move goes through
/// `kernel::best_move`, so this pins the kernel's decisions end to end.
/// The digests were captured from the earlier fused stack-map kernel
/// (the previous default), which the single kernel must reproduce bit
/// for bit.
/// The graphs and configurations whose 1-thread runs are pinned.
fn pinned_graphs() -> [(&'static str, CsrGraph); 3] {
    [
        (
            "rmat_web",
            gve_generate::rmat::Rmat::web(11, 8.0).seed(42).generate(),
        ),
        (
            "sbm",
            gve_generate::sbm::PlantedPartition::new(3000, 30, 10.0, 2.0)
                .seed(5)
                .generate()
                .graph,
        ),
        ("road", gve_generate::grid::road_grid(60, 50, 2.1, 7)),
    ]
}

fn pinned_configs() -> [(&'static str, LeidenConfig); 4] {
    [
        ("default", LeidenConfig::default()),
        (
            "refine_based",
            LeidenConfig::default().labeling(Labeling::RefineBased),
        ),
        (
            "cpm",
            LeidenConfig::default().objective(Objective::Cpm { resolution: 0.05 }),
        ),
        (
            "random",
            LeidenConfig::default()
                .refinement(RefinementStrategy::Random)
                .seed(7),
        ),
    ]
}

#[test]
fn async_one_thread_digests_are_pinned() {
    let graphs = pinned_graphs();
    let configs = pinned_configs();
    // (graph, config, membership FNV, passes, iterations, modularity
    // bits, chunks claimed over all passes)
    #[rustfmt::skip]
    const PINNED: [(&str, &str, u64, usize, usize, u64, u64); 12] = [
        ("rmat_web", "default", 0xd80e95c6d66ac7fe, 3, 7, 0x3fc32ec858c91c81, 10),
        ("rmat_web", "refine_based", 0x441a394dfceeafe0, 3, 9, 0x3fc30ce9f1f26a92, 12),
        ("rmat_web", "cpm", 0xd4e9db6528e5badc, 2, 5, 0x3fa2947c9e824810, 7),
        ("rmat_web", "random", 0x81959e0c586b04ba, 3, 8, 0x3fc255a88ad3c3ce, 11),
        ("sbm", "default", 0xa59b66bd0a69155b, 4, 18, 0x3fe9ae9ed622a922, 33),
        ("sbm", "refine_based", 0xa59b66bd0a69155b, 4, 21, 0x3fe9ae9ed622a922, 36),
        ("sbm", "cpm", 0xdd64f3942df33d09, 5, 21, 0x3fe82c2f9cff2cd6, 35),
        ("sbm", "random", 0xa59b66bd0a69155b, 5, 18, 0x3fe9ae9ed622a922, 34),
        ("road", "default", 0x62b3a56555ee5c21, 5, 18, 0x3feea209df21772c, 27),
        ("road", "refine_based", 0xf9d773d9bacb9200, 5, 20, 0x3feea244b20a07b3, 29),
        ("road", "cpm", 0xbfbe22b36fbd4bf5, 3, 9, 0x3fea792f2e66d11d, 15),
        ("road", "random", 0xd67e70b77ff8a296, 5, 18, 0x3feea1e243a5dcb6, 27),
    ];
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let mut checked = 0;
    for (graph_name, graph) in &graphs {
        for (config_name, config) in &configs {
            let result = pool.install(|| Leiden::new(config.clone()).run(graph));
            let q = gve_quality::modularity(graph, &result.membership);
            let got = (
                membership_fnv(&result.membership),
                result.passes,
                result.move_iterations,
                q.to_bits(),
                result
                    .pass_stats
                    .iter()
                    .map(|p| p.sched_chunks)
                    .sum::<u64>(),
            );
            let &(.., fnv, passes, iterations, q_bits, chunks) = PINNED
                .iter()
                .find(|p| p.0 == *graph_name && p.1 == *config_name)
                .expect("digest pinned");
            assert_eq!(
                got,
                (fnv, passes, iterations, q_bits, chunks),
                "{graph_name}/{config_name}: (membership FNV, passes, iterations, Q bits, chunks)"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, PINNED.len());
}

/// Local-moving and refinement claim `DEFAULT_CHUNK`-vertex chunks, so
/// every pass reports exactly `vertices.div_ceil(DEFAULT_CHUNK)` chunks
/// per local-moving iteration plus one refinement's worth, at any
/// thread count, and never a steal.
#[test]
fn async_chunk_counts_follow_the_vertex_count() {
    let planted = gve_generate::PlantedPartition::new(6000, 30, 14.0, 1.0)
        .seed(23)
        .generate();
    let g = &planted.graph;
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let result = pool.install(|| Leiden::new(LeidenConfig::default()).run(g));
        assert!(result.passes > 1, "want a multi-pass run");
        for stats in &result.pass_stats {
            let per_loop = stats.vertices.div_ceil(gve_prim::parfor::DEFAULT_CHUNK) as u64;
            assert_eq!(
                stats.sched_chunks,
                per_loop * (stats.move_iterations as u64 + 1),
                "{threads} threads, pass {}",
                stats.pass
            );
            assert_eq!(stats.sched_steals, 0);
        }
        let report = gve_quality::disconnected_communities(g, &result.membership);
        assert!(
            report.all_connected(),
            "{threads} threads: disconnected output"
        );
    }
}

/// Per-pass pruning tallies of the same 1-thread runs: vertices
/// processed, vertices skipped on a clear flag, and local-moving
/// iterations. The visit loop jumps over clear flag words without
/// touching each bit, so these pin that it visits exactly the vertices
/// a bit-by-bit test-and-clear would, and that every jumped index is
/// still counted as skipped (the ledger's `leiden.pruning_skip_ratio`
/// reads the two counts).
#[test]
fn async_one_thread_pruning_tallies_are_pinned() {
    /// Per pass: (processed, skipped, move iterations).
    type Tallies = &'static [(u64, u64, usize)];
    #[rustfmt::skip]
    const PINNED: [(&str, &str, Tallies); 12] = [
        ("rmat_web", "default", &[(3561, 2583, 3), (967, 531, 2), (558, 508, 2)]),
        ("rmat_web", "refine_based", &[(3561, 2583, 3), (1152, 1095, 3), (585, 1011, 3)]),
        ("rmat_web", "cpm", &[(3203, 2941, 3), (1470, 1138, 2)]),
        ("rmat_web", "random", &[(3561, 2583, 3), (1236, 1146, 3), (628, 496, 2)]),
        ("sbm", "default", &[(17548, 12452, 10), (1814, 3022, 4), (371, 436, 3), (35, 0, 1)]),
        ("sbm", "refine_based", &[(17548, 12452, 10), (4175, 3079, 6), (612, 198, 3), (64, 2, 2)]),
        ("sbm", "cpm", &[(17591, 6409, 8), (3551, 3451, 6), (768, 528, 4), (157, 39, 2), (62, 0, 1)]),
        ("sbm", "random", &[(17548, 12452, 10), (1644, 2108, 4), (341, 209, 2), (79, 0, 1), (31, 0, 1)]),
        ("road", "default", &[(5070, 3930, 3), (2785, 2743, 4), (1267, 2023, 5), (576, 800, 4), (267, 173, 2)]),
        ("road", "refine_based", &[(5070, 3930, 3), (2800, 2728, 4), (1293, 1997, 5), (599, 1121, 5), (280, 380, 3)]),
        ("road", "cpm", &[(4282, 1718, 2), (2865, 2863, 4), (894, 1143, 3)]),
        ("road", "random", &[(5070, 3930, 3), (2785, 2731, 4), (1263, 1982, 5), (558, 786, 4), (251, 179, 2)]),
    ];
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let mut checked = 0;
    for (graph_name, graph) in &pinned_graphs() {
        for (config_name, config) in &pinned_configs() {
            let result = pool.install(|| Leiden::new(config.clone()).run(graph));
            let got: Vec<(u64, u64, usize)> = result
                .pass_stats
                .iter()
                .map(|p| (p.pruning_processed, p.pruning_skipped, p.move_iterations))
                .collect();
            let &(.., expected) = PINNED
                .iter()
                .find(|p| p.0 == *graph_name && p.1 == *config_name)
                .expect("tallies pinned");
            assert_eq!(
                got, expected,
                "{graph_name}/{config_name}: per pass (processed, skipped, iterations)"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, PINNED.len());
}
