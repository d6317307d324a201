//! The NetworKit-style baseline reproduces pinned 1-thread memberships
//! on two suite graphs. Its frontier queue and community locks decide
//! the order of moves, so this pins them end to end: a change of lock
//! or queue type that reorders a single move changes a digest.

use gve_baselines::nk::nk_leiden;
use gve_graph::CsrGraph;

fn membership_fnv(membership: &[u32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in membership.iter().flat_map(|c| c.to_le_bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn suite_graph(name: &str) -> CsrGraph {
    gve_generate::suite::suite()
        .into_iter()
        .find(|d| d.name == name)
        .expect("suite dataset")
        .generate(0.25, 42)
}

#[test]
fn one_thread_memberships_are_pinned() {
    // (dataset, membership FNV, communities, passes, modularity bits)
    #[rustfmt::skip]
    const PINNED: [(&str, u64, usize, usize, u64); 2] = [
        ("web-indochina", 0x04649fd7b81295a5, 11, 6, 0x3fe8a6d903540723),
        ("road-europe", 0x0f69b9eca5f0968b, 1388, 8, 0x3fef76d260787f04),
    ];
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let got: Vec<(&str, u64, usize, usize, u64)> = PINNED
        .iter()
        .map(|&(name, ..)| {
            let graph = suite_graph(name);
            let result = pool.install(|| nk_leiden(&graph));
            let q = gve_quality::modularity(&graph, &result.membership);
            (
                name,
                membership_fnv(&result.membership),
                result.num_communities,
                result.passes,
                q.to_bits(),
            )
        })
        .collect();
    assert_eq!(
        got, PINNED,
        "(dataset, membership FNV, communities, passes, Q bits)"
    );
}
