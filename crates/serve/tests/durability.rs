//! Crash-consistency tests for the durable serve tier: a server
//! restarted on the same `--data-dir` must come back with the same
//! graphs, epochs, memberships, and cache keys it had before — and the
//! empty-batch / deferred-ingest / delta endpoints must honor their
//! contracts over real HTTP.

use gve_serve::{client_request, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gve-serve-durability-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot(data_dir: Option<&PathBuf>) -> Server {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        data_dir: data_dir.map(|d| d.display().to_string()),
        ..ServeConfig::default()
    })
    .expect("server start")
}

fn register_ring(addr: &str, name: &str) {
    let body = format!(
        "{{\"name\":\"{name}\",\"generate\":{{\"class\":\"ring\",\"cliques\":8,\
         \"clique_size\":6}}}}"
    );
    let (status, response) = client_request(addr, "POST", "/graphs", Some(&body)).unwrap();
    assert_eq!(status, 201, "register failed: {response}");
}

fn json_u64(body: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let start = body.find(&key)? + key.len();
    let digits: String = body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn wait_job_done(addr: &str, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = client_request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        if body.contains("\"done\"") || body.contains("\"failed\"") {
            return body;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn detect_and_wait(addr: &str, name: &str) {
    let (status, body) =
        client_request(addr, "POST", &format!("/graphs/{name}/detect"), Some("{}")).unwrap();
    assert!(status == 200 || status == 202, "{status} {body}");
    if status == 202 {
        let id = json_u64(&body, "id").expect("job id");
        let done = wait_job_done(addr, id);
        assert!(done.contains("\"done\""), "{done}");
    }
}

fn membership_body(addr: &str, name: &str) -> String {
    let (status, body) =
        client_request(addr, "GET", &format!("/graphs/{name}/membership"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    body
}

fn apply_update(addr: &str, name: &str, body: &str) -> (u16, String) {
    client_request(addr, "POST", &format!("/graphs/{name}/updates"), Some(body)).unwrap()
}

/// The tentpole acceptance check: register + detect + update batches,
/// drop the server without graceful shutdown of its state dir, restart
/// on the same directory, and observe bit-identical epoch, vertex
/// count, and membership — and the partition cache already warm (the
/// second membership GET needs no new detect job).
#[test]
fn restart_recovers_epoch_membership_and_cache() {
    let dir = temp_dir("restart");
    let (epoch_before, graph_before, membership_before);
    {
        let server = boot(Some(&dir));
        let addr = format!("127.0.0.1:{}", server.port());
        register_ring(&addr, "g");
        detect_and_wait(&addr, "g");

        for i in 0..3u32 {
            let a = 2 * i;
            let body = format!("{{\"insertions\":[[{a},{},2.0]]}}", a + 1);
            let (status, response) = apply_update(&addr, "g", &body);
            assert!(status == 200 || status == 202, "{status} {response}");
        }
        // Let any deferred batch drain before sampling the final state.
        assert!(server.state().ingest.wait_idle(Duration::from_secs(30)));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (status, body) = client_request(&addr, "GET", "/graphs/g", None).unwrap();
            assert_eq!(status, 200, "{body}");
            if json_u64(&body, "batches_applied") == Some(3) {
                break;
            }
            assert!(Instant::now() < deadline, "batches never drained: {body}");
            std::thread::sleep(Duration::from_millis(10));
        }

        let (status, info) = client_request(&addr, "GET", "/graphs/g", None).unwrap();
        assert_eq!(status, 200, "{info}");
        epoch_before = json_u64(&info, "epoch").expect("epoch");
        graph_before = json_u64(&info, "vertices").expect("vertices");
        assert_eq!(epoch_before, 3, "{info}");
        membership_before = membership_body(&addr, "g");
        // No graceful flush beyond the per-record fsync: stop the HTTP
        // front end and drop everything.
        server.stop();
    }

    let server = boot(Some(&dir));
    let addr = format!("127.0.0.1:{}", server.port());
    let (status, info) = client_request(&addr, "GET", "/graphs/g", None).unwrap();
    assert_eq!(status, 200, "graph did not survive restart: {info}");
    assert_eq!(json_u64(&info, "epoch"), Some(epoch_before), "{info}");
    assert_eq!(json_u64(&info, "vertices"), Some(graph_before), "{info}");

    // The recovered cache must serve the refreshed partition at the
    // current epoch without a new detect job.
    let membership_after = membership_body(&addr, "g");
    assert_eq!(
        membership_before, membership_after,
        "membership changed across restart"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A memory-only server (no --data-dir) keeps the old lifecycle: state
/// dies with the process.
#[test]
fn memory_only_server_forgets_on_restart() {
    let server = boot(None);
    let addr = format!("127.0.0.1:{}", server.port());
    register_ring(&addr, "ephemeral");
    server.stop();
    drop(server);

    let server = boot(None);
    let addr = format!("127.0.0.1:{}", server.port());
    let (status, _) = client_request(&addr, "GET", "/graphs/ephemeral", None).unwrap();
    assert_eq!(status, 404);
    server.stop();
}

/// Satellite regression: an empty update batch must be a no-op 200
/// reporting the current epoch — not a 400, and crucially NOT an epoch
/// bump that would evict a perfectly current cached partition.
#[test]
fn empty_batch_is_a_noop_and_cache_survives() {
    let server = boot(None);
    let addr = format!("127.0.0.1:{}", server.port());
    register_ring(&addr, "g");
    detect_and_wait(&addr, "g");
    let before = membership_body(&addr, "g");

    for body in ["{}", "{\"insertions\":[],\"deletions\":[]}"] {
        let (status, response) = apply_update(&addr, "g", body);
        assert_eq!(status, 200, "{response}");
        assert_eq!(json_u64(&response, "epoch"), Some(0), "{response}");
        assert!(response.contains("\"noop\":true"), "{response}");
        assert!(response.contains("\"refreshed\":false"), "{response}");
    }

    // The cached partition is still served: same epoch, same payload,
    // no "rerun detect" 404.
    let after = membership_body(&addr, "g");
    assert_eq!(before, after);
    server.stop();
}

/// Delta endpoint contract: up-to-date polls return no changes, polls
/// from an older epoch return only changed vertices, and an epoch that
/// fell off the bounded ring (or never existed) forces a resync.
#[test]
fn delta_endpoint_reports_changes_and_resync() {
    let server = boot(None);
    let addr = format!("127.0.0.1:{}", server.port());
    register_ring(&addr, "g");

    // Before any partition exists: 404.
    let (status, body) = client_request(&addr, "GET", "/graphs/g/delta?since=0", None).unwrap();
    assert_eq!(status, 404, "{body}");

    detect_and_wait(&addr, "g");
    let (status, body) = client_request(&addr, "GET", "/graphs/g/delta?since=0", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"resync\":false"), "{body}");
    assert!(body.contains("\"changes\":[]"), "{body}");

    // A refreshing update publishes a new epoch; since=0 now yields the
    // diff (possibly empty if no vertex moved), never a resync.
    let (status, response) = apply_update(&addr, "g", "{\"insertions\":[[0,6,5.0]]}");
    assert!(status == 200 || status == 202, "{status} {response}");
    assert!(server.state().ingest.wait_idle(Duration::from_secs(30)));
    let deadline = Instant::now() + Duration::from_secs(30);
    let body = loop {
        let (status, body) = client_request(&addr, "GET", "/graphs/g/delta?since=0", None).unwrap();
        assert_eq!(status, 200, "{body}");
        if json_u64(&body, "epoch") == Some(1) {
            break body;
        }
        assert!(Instant::now() < deadline, "delta never advanced: {body}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(body.contains("\"resync\":false"), "{body}");

    // Polling from the future (a client that outlived a server wipe)
    // must resync rather than error.
    let (status, body) = client_request(&addr, "GET", "/graphs/g/delta?since=99", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"resync\":true"), "{body}");

    // Missing/garbage since is a client error.
    let (status, _) = client_request(&addr, "GET", "/graphs/g/delta", None).unwrap();
    assert_eq!(status, 400);
    let (status, _) = client_request(&addr, "GET", "/graphs/g/delta?since=xyz", None).unwrap();
    assert_eq!(status, 400);
    server.stop();
}

/// Deferred ingest: while a graph's update gate is held, a POSTed batch
/// is accepted as 202 with queue metadata, a second batch coalesces
/// into the first, and both apply once the gate frees.
#[test]
fn busy_graph_defers_and_coalesces_updates() {
    let server = boot(None);
    let addr = format!("127.0.0.1:{}", server.port());
    register_ring(&addr, "g");

    let cell = server.state().registry.entry("g").expect("cell");
    let gate = cell.begin_update();

    let (status, body) = apply_update(&addr, "g", "{\"insertions\":[[0,6,1.0]]}");
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"deferred\":true"), "{body}");
    assert_eq!(json_u64(&body, "queue_depth"), Some(1), "{body}");
    assert!(body.contains("\"coalesced\":false"), "{body}");

    let (status, body) = apply_update(&addr, "g", "{\"insertions\":[[1,7,1.0]]}");
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"coalesced\":true"), "{body}");
    // Coalesced into the same pending entry: depth stays 1.
    assert_eq!(json_u64(&body, "queue_depth"), Some(1), "{body}");

    drop(gate);
    assert!(server.state().ingest.wait_idle(Duration::from_secs(30)));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, info) = client_request(&addr, "GET", "/graphs/g", None).unwrap();
        assert_eq!(status, 200, "{info}");
        // One merged batch: epoch advances exactly once.
        if json_u64(&info, "epoch") == Some(1) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "deferred batch never applied: {info}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.stop();
}

/// The ingest queue's edit cap turns overload into 429, not unbounded
/// memory growth.
#[test]
fn full_ingest_queue_rejects_with_429() {
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ingest_max_queued_edits: 3,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = format!("127.0.0.1:{}", server.port());
    register_ring(&addr, "g");

    let cell = server.state().registry.entry("g").expect("cell");
    let gate = cell.begin_update();

    let (status, body) = apply_update(&addr, "g", "{\"insertions\":[[0,6,1.0],[1,7,1.0]]}");
    assert_eq!(status, 202, "{body}");
    // 2 queued + 2 more would cross the cap of 3.
    let (status, body) = apply_update(&addr, "g", "{\"insertions\":[[2,8,1.0],[3,9,1.0]]}");
    assert_eq!(status, 429, "{body}");

    drop(gate);
    assert!(server.state().ingest.wait_idle(Duration::from_secs(30)));
    server.stop();
}
