//! Pinned digests of every generator's CSR output.
//!
//! Graph construction runs on all workers, so its output must not depend
//! on the thread count: each generator derives edge `i` from its own
//! stream, and the builder places each row's arcs in edge order before
//! sorting. These digests were captured from the sequential generators
//! and builder, and must hold bit for bit at 1 and 2 threads.

use gve_generate::{ba, er, grid, kmer, Lfr, PlantedPartition, Rmat};
use gve_graph::{CsrGraph, GraphBuilder};

/// FNV-1a over the little-endian bytes of the offsets, the targets and
/// the weight bits, in that order.
fn csr_fnv(graph: &CsrGraph) -> u64 {
    let offsets = graph.offsets().iter().flat_map(|o| o.to_le_bytes());
    let targets = graph.targets().iter().flat_map(|t| t.to_le_bytes());
    let weights = graph
        .weights()
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in offsets.chain(targets).chain(weights) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A weighted edge list whose duplicate arcs carry weights whose f32
/// sum depends on the order they are added in, with rows long enough
/// that the per-row sort is not a plain insertion sort.
fn weighted_edges() -> Vec<(u32, u32, f32)> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..6000)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state % 97) as u32;
            let v = ((state >> 20) % 131) as u32;
            let w = 1.0 + ((state >> 40) % 1000) as f32 * 1.0e-3 + 1.0e-7;
            (u, v, w)
        })
        .collect()
}

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    let weighted = weighted_edges();
    let mut no_dedup = GraphBuilder::new().dedup(false).drop_self_loops(true);
    no_dedup.extend(weighted.iter().copied());
    vec![
        ("rmat_web", Rmat::web(12, 8.0).seed(42).generate()),
        // m = 3737, so m % 8 == 1: the sampler's one-stream tail runs.
        ("rmat_web_tail", Rmat::web(9, 7.3).seed(1).generate()),
        ("rmat_social", Rmat::social(11, 6.0).seed(3).generate()),
        (
            "sbm",
            PlantedPartition::new(3000, 30, 10.0, 2.0)
                .seed(5)
                .generate()
                .graph,
        ),
        ("road", grid::road_grid(60, 50, 2.1, 7)),
        ("road_odd", grid::road_grid(37, 23, 2.6, 9)),
        ("er", er::erdos_renyi(2000, 9001, 11)),
        ("kmer", kmer::kmer_chains(5000, 12, 0.1, 3)),
        ("lfr", Lfr::new(1000, 10.0, 0.3).seed(2).generate().graph),
        ("ring", gve_generate::ring_of_cliques(16, 8)),
        ("ba", ba::barabasi_albert(2000, 3, 4)),
        ("weighted", GraphBuilder::from_edges(150, &weighted)),
        ("weighted_no_dedup", no_dedup.build()),
    ]
}

#[test]
fn generator_digests_are_pinned_at_one_and_two_threads() {
    #[rustfmt::skip]
    const PINNED: [(&str, u64); 13] = [
        ("rmat_web", 0xfdd37a01063c2a87),
        ("rmat_web_tail", 0xf299d24538748ee4),
        ("rmat_social", 0x35397e41125344e6),
        ("sbm", 0x45684a0d29122c1d),
        ("road", 0xb9b5a775f8553ba4),
        ("road_odd", 0x60606ee4351d64f4),
        ("er", 0xb7a27d7f64361938),
        ("kmer", 0xbab98afd72a9c5aa),
        ("lfr", 0x61a54cd5af98f065),
        ("ring", 0x95368ecdb4160b79),
        ("ba", 0xfacb02c3e4283966),
        ("weighted", 0xf9322024548b5bdd),
        ("weighted_no_dedup", 0x79361335e5c94919),
    ];
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let got: Vec<(&str, u64)> = pool.install(|| {
            graphs()
                .iter()
                .map(|(name, graph)| (*name, csr_fnv(graph)))
                .collect()
        });
        let listing: String = got
            .iter()
            .map(|(name, fnv)| format!("(\"{name}\", {fnv:#018x}),\n"))
            .collect();
        assert_eq!(got, PINNED, "{threads} thread(s); got:\n{listing}");
    }
}
