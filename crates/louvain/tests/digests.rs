//! 1-thread GVE-Louvain runs reproduce pinned digests on the three
//! graphs whose GVE-Leiden runs `gve-leiden`'s `tests/kernels.rs` pins:
//! membership FNV, pass count, local-moving iterations and modularity
//! bits. At one thread the asynchronous schedule is deterministic, so
//! any change to the pass loop GVE-Louvain runs on (initial state,
//! pruning flags, renumbering, aggregation, convergence test) that
//! changes a single decision fails here.

use gve_graph::CsrGraph;
use gve_louvain::louvain;

/// FNV-1a over a membership vector's little-endian bytes.
fn membership_fnv(membership: &[u32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in membership.iter().flat_map(|c| c.to_le_bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

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

#[test]
fn one_thread_louvain_digests_are_pinned() {
    // (graph, membership FNV, passes, iterations, modularity bits)
    #[rustfmt::skip]
    const PINNED: [(&str, u64, usize, usize, u64); 3] = [
        ("rmat_web", 0x8344bf7269ffc3c9, 2, 5, 0x3fc30272b98fea4c),
        ("sbm", 0xa59b66bd0a69155b, 3, 14, 0x3fe9ae9ed622a922),
        ("road", 0xbc360c5ad30a986f, 5, 19, 0x3feea64370cda1b3),
    ];
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    for ((name, graph), &(pinned_name, fnv, passes, iterations, q_bits)) in
        pinned_graphs().iter().zip(&PINNED)
    {
        assert_eq!(*name, pinned_name);
        let result = pool.install(|| louvain(graph));
        let q = gve_quality::modularity(graph, &result.membership);
        assert_eq!(
            (
                membership_fnv(&result.membership),
                result.passes,
                result.move_iterations,
                q.to_bits(),
            ),
            (fnv, passes, iterations, q_bits),
            "{name}: (membership FNV, passes, iterations, Q bits)"
        );
    }
}
