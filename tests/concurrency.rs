//! Concurrency tests: run the parallel implementations inside explicit
//! multi-thread rayon pools (regardless of the host's core count, this
//! creates real OS threads and real interleavings) and assert the
//! invariants that must survive races: valid partitions, conserved
//! weights, the connectivity guarantee, and quality stability.

use gve::generate::{rmat::Rmat, PlantedPartition};
use gve::quality;

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

#[test]
fn leiden_under_heavy_thread_oversubscription() {
    let graph = Rmat::web(11, 8.0).seed(13).generate();
    for threads in [2, 4, 8] {
        let result = in_pool(threads, || gve::leiden::leiden(&graph));
        quality::validate_membership(&result.membership, graph.num_vertices()).unwrap();
        let report = quality::disconnected_communities(&graph, &result.membership);
        assert!(
            report.all_connected(),
            "{threads} threads: {} disconnected",
            report.disconnected
        );
        let q = quality::modularity(&graph, &result.membership);
        assert!(q > 0.0, "{threads} threads: Q = {q}");
    }
}

#[test]
fn quality_is_stable_across_thread_counts() {
    let planted = PlantedPartition::new(3000, 12, 14.0, 1.0)
        .seed(4)
        .generate();
    let graph = &planted.graph;
    let mut scores = Vec::new();
    for threads in [1, 2, 4] {
        let result = in_pool(threads, || gve::leiden::leiden(graph));
        scores.push(quality::modularity(graph, &result.membership));
        let nmi = quality::normalized_mutual_information(&result.membership, &planted.labels);
        assert!(nmi > 0.9, "{threads} threads: NMI {nmi}");
    }
    let spread = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - scores.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        spread < 0.05,
        "asynchronous variability too large across thread counts: {scores:?}"
    );
}

#[test]
fn repeated_parallel_runs_conserve_invariants() {
    // The asynchronous design is nondeterministic; hammer it and check
    // the invariants every time.
    let graph = Rmat::social(10, 6.0).seed(21).generate();
    in_pool(4, || {
        for _ in 0..10 {
            let result = gve::leiden::leiden(&graph);
            quality::validate_membership(&result.membership, graph.num_vertices()).unwrap();
            let report = quality::disconnected_communities(&graph, &result.membership);
            assert!(report.all_connected());
        }
    });
}

#[test]
fn louvain_and_nk_run_multithreaded() {
    let graph = Rmat::web(10, 6.0).seed(5).generate();
    in_pool(4, || {
        let louvain = gve::leiden::louvain(&graph);
        quality::validate_membership(&louvain.membership, graph.num_vertices()).unwrap();
        let nk = gve::baselines::nk::nk_leiden(&graph);
        quality::validate_membership(&nk.membership, graph.num_vertices()).unwrap();
        // NetworKit-style locking must not lose weight either: the
        // quality of both is in the usual band.
        let q_l = quality::modularity(&graph, &louvain.membership);
        let q_n = quality::modularity(&graph, &nk.membership);
        assert!((q_l - q_n).abs() < 0.15, "Q {q_l} vs {q_n}");
    });
}

#[test]
fn concurrent_detections_on_shared_graph() {
    // Multiple detections over the same shared graph from different
    // scopes must not interfere (no hidden global state).
    let graph = std::sync::Arc::new(Rmat::web(10, 6.0).seed(17).generate());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let graph = std::sync::Arc::clone(&graph);
            std::thread::spawn(move || {
                let result = gve::leiden::leiden(&graph);
                quality::validate_membership(&result.membership, graph.num_vertices()).unwrap();
                quality::modularity(&graph, &result.membership)
            })
        })
        .collect();
    for h in handles {
        let q = h.join().expect("detection thread panicked");
        assert!(q > 0.0);
    }
}
