//! Every update refresh is Dynamic Frontier: `strategy` on
//! `POST /graphs/{name}/updates` is a retired field, accepted whatever
//! its value and ignored, also when a batch coalesces into a queued
//! one. The tests run on a 1-thread default pool, where a refresh is
//! deterministic, so a served membership can be compared exactly.

use gve_dynamic::{refresh_in, BatchUpdate, DynamicStrategy};
use gve_leiden::{Leiden, PassWorkspace};
use gve_serve::json::{parse, Json};
use gve_serve::{client_request, ServeConfig, Server};
use std::sync::Once;
use std::time::{Duration, Instant};

/// Sizes the process's default pool, which every refresh runs on, to
/// one thread.
fn one_thread() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build_global()
            .expect("the default pool is built once, here");
    });
    assert_eq!(rayon::current_num_threads(), 1);
}

/// A memory-only server with a 3 000-vertex Erdős–Rényi graph `g` and
/// its default partition cached at epoch 0. The graph has no planted
/// structure, so a static rerun and a frontier refresh of one batch
/// land on different partitions.
fn boot_detected() -> (Server, String) {
    one_thread();
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = format!("127.0.0.1:{}", server.port());
    let register = r#"{"name":"g","generate":{"class":"er","vertices":3000,"seed":5}}"#;
    let (status, body) = client_request(&addr, "POST", "/graphs", Some(register)).unwrap();
    assert_eq!(status, 201, "{body}");
    let (status, body) = client_request(&addr, "POST", "/graphs/g/detect", Some("{}")).unwrap();
    assert!(status == 200 || status == 202, "{status} {body}");
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.state().cache.latest("g").is_none() {
        assert!(Instant::now() < deadline, "the detect never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    (server, addr)
}

fn post_update(addr: &str, body: &str) -> (u16, Json) {
    let (status, body) = client_request(addr, "POST", "/graphs/g/updates", Some(body)).unwrap();
    (status, parse(&body).expect("JSON response"))
}

/// An unknown `strategy` value is ignored, not a 400, and the 200 body
/// names no strategy.
#[test]
fn an_unknown_strategy_is_applied() {
    let (server, addr) = boot_detected();
    let (status, body) = post_update(&addr, r#"{"insertions":[[0,1500,1.0]],"strategy":"bogus"}"#);
    assert_eq!(status, 200, "{}", body.render());
    assert_eq!(body.get("epoch").and_then(Json::as_u64), Some(1));
    assert_eq!(body.get("refreshed").and_then(Json::as_bool), Some(true));
    assert!(body.get("strategy").is_none(), "{}", body.render());
    server.stop();
}

/// A batch naming `full-static` that coalesces into a queued batch
/// naming no strategy is refreshed as the merged batch's Dynamic
/// Frontier. The queue used to keep the last submitter's strategy, so
/// this drain ran a full static detection.
#[test]
fn a_coalesced_batch_is_refreshed_by_dynamic_frontier() {
    let (server, addr) = boot_detected();
    let state = server.state();
    let graph = state.registry.snapshot("g").unwrap().graph;
    let (_, partition) = state.cache.latest("g").unwrap();

    let cell = state.registry.entry("g").expect("cell");
    let gate = cell.begin_update();
    let first = r#"{"insertions":[[0,1500,1.0],[10,2500,1.0]],"deletions":[[1,2]]}"#;
    let (status, body) = post_update(&addr, first);
    assert_eq!(status, 202, "{}", body.render());
    let second = r#"{"insertions":[[20,1000,1.0]],"deletions":[[3,4]],"strategy":"full-static"}"#;
    let (status, body) = post_update(&addr, second);
    assert_eq!(status, 202, "{}", body.render());
    assert_eq!(body.get("coalesced").and_then(Json::as_bool), Some(true));
    drop(gate);
    assert!(state.ingest.wait_idle(Duration::from_secs(30)));
    let deadline = Instant::now() + Duration::from_secs(30);
    let served = loop {
        match state.cache.latest("g") {
            Some((key, served)) if key.epoch == 1 => break served,
            _ => {
                assert!(Instant::now() < deadline, "the merged batch never applied");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };

    let mut merged = BatchUpdate::new();
    merged.insert(0, 1500, 1.0);
    merged.insert(10, 2500, 1.0);
    merged.delete(1, 2);
    let mut tail = BatchUpdate::new();
    tail.insert(20, 1000, 1.0);
    tail.delete(3, 4);
    merged.merge(&tail);
    let (_, expected) = refresh_in(
        &Leiden::new(partition.request.to_config().unwrap()),
        DynamicStrategy::DynamicFrontier,
        &graph,
        &partition.membership,
        &merged,
        &mut PassWorkspace::new(),
    )
    .unwrap();
    assert_eq!(*served.membership, expected.membership);
    server.stop();
}
