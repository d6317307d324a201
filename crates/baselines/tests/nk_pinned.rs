//! The NetworKit-style baseline reproduces pinned 1-thread memberships
//! on two suite graphs. Its frontier queue and community locks decide
//! the order of moves, so this pins them end to end: a change of lock
//! or queue type that reorders a single move changes a digest. The
//! sequential Leiden and Louvain baselines are pinned on the same
//! graphs.

use gve_baselines::nk::nk_leiden;
use gve_baselines::seq::{sequential_leiden, sequential_louvain};
use gve_baselines::BaselineResult;
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

/// (dataset, membership FNV, communities, passes, modularity bits)
type Pin = (&'static str, u64, usize, usize, u64);

/// Runs `detect` at one thread on each pinned dataset and returns the
/// digests in the pins' order.
fn digests(pins: &[Pin], detect: fn(&CsrGraph) -> BaselineResult) -> Vec<Pin> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pins.iter()
        .map(|&(name, ..)| {
            let graph = suite_graph(name);
            let result = pool.install(|| detect(&graph));
            let q = gve_quality::modularity(&graph, &result.membership);
            (
                name,
                membership_fnv(&result.membership),
                result.num_communities,
                result.passes,
                q.to_bits(),
            )
        })
        .collect()
}

#[test]
fn one_thread_memberships_are_pinned() {
    #[rustfmt::skip]
    const PINNED: [Pin; 2] = [
        ("web-indochina", 0x04649fd7b81295a5, 11, 6, 0x3fe8a6d903540723),
        ("road-europe", 0x0f69b9eca5f0968b, 1388, 8, 0x3fef76d260787f04),
    ];
    assert_eq!(
        digests(&PINNED, nk_leiden),
        PINNED,
        "(dataset, membership FNV, communities, passes, Q bits)"
    );
}

#[test]
fn one_thread_sequential_leiden_memberships_are_pinned() {
    #[rustfmt::skip]
    const PINNED: [Pin; 2] = [
        ("web-indochina", 0x04649fd7b81295a5, 11, 6, 0x3fe8a6d903540723),
        ("road-europe", 0x71955a8b119aa41e, 1391, 8, 0x3fef758343fa8cdc),
    ];
    assert_eq!(
        digests(&PINNED, sequential_leiden),
        PINNED,
        "(dataset, membership FNV, communities, passes, Q bits)"
    );
}

#[test]
fn one_thread_sequential_louvain_memberships_are_pinned() {
    #[rustfmt::skip]
    const PINNED: [Pin; 2] = [
        ("web-indochina", 0x04649fd7b81295a5, 11, 2, 0x3fe8a6d903540723),
        ("road-europe", 0x87c34c530d544bff, 1386, 7, 0x3fef748588e6cf4b),
    ];
    assert_eq!(
        digests(&PINNED, sequential_louvain),
        PINNED,
        "(dataset, membership FNV, communities, passes, Q bits)"
    );
}
