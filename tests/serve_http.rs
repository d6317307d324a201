//! End-to-end exercise of the `gve-serve` service over real HTTP:
//! register → detect → poll → read → cache hit → dynamic update with
//! incremental refresh, all against a server on an ephemeral port.

use gve::serve::json::{parse, Json};
use gve::serve::{client_request, ServeConfig, Server};
use std::time::{Duration, Instant};

struct TestServer {
    server: Server,
    addr: String,
}

impl TestServer {
    fn boot() -> Self {
        let server = Server::start(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        Self { server, addr }
    }

    fn request(&self, method: &str, path: &str, body: Option<&str>) -> (u16, Json) {
        let (status, text) = client_request(&self.addr, method, path, body)
            .unwrap_or_else(|e| panic!("{method} {path} failed: {e}"));
        let json = parse(&text).unwrap_or_else(|e| panic!("{method} {path}: bad JSON {text}: {e}"));
        (status, json)
    }

    fn get(&self, path: &str) -> (u16, Json) {
        self.request("GET", path, None)
    }

    fn post(&self, path: &str, body: &str) -> (u16, Json) {
        self.request("POST", path, Some(body))
    }

    /// Polls `GET /jobs/{id}` until it leaves queued/running.
    fn await_job(&self, id: u64) -> Json {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (status, job) = self.get(&format!("/jobs/{id}"));
            assert_eq!(status, 200, "job poll failed: {}", job.render());
            match job.get("state").and_then(Json::as_str) {
                Some("queued") | Some("running") => {
                    assert!(Instant::now() < deadline, "job {id} never finished");
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => return job,
            }
        }
    }

    fn stat(&self, section: &str, counter: &str) -> u64 {
        let (status, stats) = self.get("/stats");
        assert_eq!(status, 200);
        stats
            .get(section)
            .and_then(|s| s.get(counter))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing /stats {section}.{counter}: {}", stats.render()))
    }
}

#[test]
fn full_service_loop_over_http() {
    let ts = TestServer::boot();

    // Health first.
    let (status, health) = ts.get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    // Register a planted-partition (SBM) graph.
    let (status, graph) = ts.post(
        "/graphs",
        r#"{"name":"sbm","generate":{"class":"sbm","vertices":3000,"communities":12,
            "intra_degree":12.0,"inter_degree":1.0,"seed":42}}"#,
    );
    assert_eq!(status, 201, "{}", graph.render());
    assert_eq!(graph.get("epoch").and_then(Json::as_u64), Some(0));
    let vertices = graph.get("vertices").and_then(Json::as_u64).unwrap() as usize;
    assert_eq!(vertices, 3000);
    // Duplicate registration is a conflict, not a crash.
    let (status, _) = ts.post("/graphs", r#"{"name":"sbm","generate":{"class":"ring"}}"#);
    assert_eq!(status, 409);

    // Submit a detect job and poll it to completion.
    let detect_body = r#"{"objective":"modularity","resolution":1.0,"seed":5}"#;
    let (status, submitted) = ts.post("/graphs/sbm/detect", detect_body);
    assert_eq!(status, 202, "{}", submitted.render());
    assert_eq!(submitted.get("cached").and_then(Json::as_bool), Some(false));
    let job_id = submitted.get("id").and_then(Json::as_u64).unwrap();
    let job = ts.await_job(job_id);
    assert_eq!(
        job.get("state").and_then(Json::as_str),
        Some("done"),
        "{}",
        job.render()
    );
    let communities = job.get("num_communities").and_then(Json::as_u64).unwrap();
    assert!(communities >= 2, "implausible partition: {}", job.render());
    assert!(job.get("modularity").and_then(Json::as_f64).unwrap() > 0.3);
    assert_eq!(ts.stat("jobs", "full_detections"), 1);

    // Membership queries come from the cached partition.
    let (status, member) = ts.get("/graphs/sbm/membership?vertex=17");
    assert_eq!(status, 200);
    let community = member.get("community").and_then(Json::as_u64).unwrap();
    let (status, listing) = ts.get(&format!("/graphs/sbm/communities/{community}"));
    assert_eq!(status, 200);
    let members = listing.get("vertices").and_then(Json::as_array).unwrap();
    assert!(
        members.iter().any(|v| v.as_u64() == Some(17)),
        "vertex 17 missing from its own community: {}",
        listing.render()
    );

    // Full membership is a valid partition of the graph.
    let (status, full) = ts.get("/graphs/sbm/membership");
    assert_eq!(status, 200);
    let membership: Vec<u32> = full
        .get("membership")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap() as u32)
        .collect();
    assert_eq!(membership.len(), vertices);
    gve::quality::validate_membership(&membership, vertices).unwrap();

    // A second identical detect is answered from the cache: no new full
    // detection, and /stats shows the hit.
    let hits_before = ts.stat("cache", "hits");
    let (status, second) = ts.post("/graphs/sbm/detect", detect_body);
    assert_eq!(status, 200, "{}", second.render());
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(second.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(ts.stat("cache", "hits"), hits_before + 1);
    assert_eq!(
        ts.stat("jobs", "full_detections"),
        1,
        "cache hit must not recompute"
    );

    // Ingest an edge batch: epoch bumps, stale cache entries go away,
    // and the partition is refreshed incrementally — still without a
    // second full detection.
    let (status, update) = ts.post(
        "/graphs/sbm/updates",
        r#"{"insertions":[[1,2,1.0],[10,11,1.0],[100,200,1.0]],
            "deletions":[[0,1]],"strategy":"dynamic-frontier"}"#,
    );
    assert_eq!(status, 200, "{}", update.render());
    assert_eq!(update.get("epoch").and_then(Json::as_u64), Some(1));
    assert_eq!(update.get("refreshed").and_then(Json::as_bool), Some(true));
    // `strategy` is retired: accepted, ignored, and not echoed.
    assert!(update.get("strategy").is_none(), "{}", update.render());
    assert_eq!(ts.stat("updates", "incremental_refreshes"), 1);
    assert_eq!(
        ts.stat("jobs", "full_detections"),
        1,
        "refresh must be incremental"
    );
    assert!(
        ts.stat("cache", "evictions") >= 1,
        "old-epoch partition must be evicted"
    );

    // The refreshed partition serves reads at the new epoch and still
    // satisfies the quality invariants on the *updated* graph.
    let (status, refreshed) = ts.get("/graphs/sbm/membership");
    assert_eq!(status, 200, "{}", refreshed.render());
    assert_eq!(refreshed.get("epoch").and_then(Json::as_u64), Some(1));
    assert_eq!(
        refreshed.get("origin").and_then(Json::as_str),
        Some("incremental-refresh")
    );
    let new_membership: Vec<u32> = refreshed
        .get("membership")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap() as u32)
        .collect();
    gve::quality::validate_membership(&new_membership, vertices).unwrap();
    let updated_graph = ts.server.state().registry.snapshot("sbm").unwrap().graph;
    let q = gve::quality::modularity(&updated_graph, &new_membership);
    assert!(q > 0.3, "refreshed modularity collapsed: {q}");
    let report = gve::quality::disconnected_communities(&updated_graph, &new_membership);
    assert!(
        report.all_connected(),
        "refresh produced {} disconnected communities",
        report.disconnected
    );

    ts.server.stop();
}

#[test]
fn errors_are_json_with_meaningful_statuses() {
    let ts = TestServer::boot();

    let (status, body) = ts.get("/graphs/ghost");
    assert_eq!(status, 404);
    assert!(body.get("error").is_some(), "{}", body.render());

    let (status, _) = ts.post("/graphs/ghost/detect", "{}");
    assert_eq!(status, 404);

    let (status, _) = ts.post("/graphs", r#"{"name":"bad/slash","edges":[[0,1]]}"#);
    assert_eq!(status, 400);

    let (status, _) = ts.post("/graphs", "not json at all");
    assert_eq!(status, 400);

    let (status, _) = ts.get("/jobs/999");
    assert_eq!(status, 404);

    // Inline edge-list registration works and detect rejects a bad
    // objective with a 400 rather than enqueueing garbage.
    let (status, _) = ts.post(
        "/graphs",
        r#"{"name":"tiny","edges":[[0,1,1.0],[1,2,1.0],[2,0,1.0]]}"#,
    );
    assert_eq!(status, 201);
    let (status, body) = ts.post("/graphs/tiny/detect", r#"{"objective":"louvain"}"#);
    assert_eq!(status, 400, "{}", body.render());

    // Updates on an empty batch are a no-op 200 reporting the current
    // epoch, not an error.
    let (status, body) = ts.post("/graphs/tiny/updates", "{}");
    assert_eq!(status, 200, "{}", body.render());
    assert_eq!(body.get("noop").and_then(Json::as_bool), Some(true));
    assert_eq!(body.get("refreshed").and_then(Json::as_bool), Some(false));

    // Error bodies survive messages with JSON-hostile characters: the
    // raw request line below lands in the error message and must come
    // back as parseable JSON, not Debug-escaped pseudo-JSON.
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(&ts.addr).unwrap();
    stream
        .write_all("GET /x BAD\u{1f}λ\r\n\r\n".as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let body = raw.split("\r\n\r\n").nth(1).unwrap_or("");
    let parsed = parse(body).unwrap_or_else(|e| panic!("error body is not JSON: {e}\n{body}"));
    assert!(
        parsed.get("error").and_then(Json::as_str).is_some(),
        "{body}"
    );

    ts.server.stop();
}

/// Graph sizes outside the `VertexId` range are rejected with a 400
/// before anything is allocated: a grid side product that overflows, a
/// generator vertex count ids cannot reach, and an inline `vertices`
/// past the builder's limit.
#[test]
fn out_of_range_graph_sizes_are_bad_requests() {
    let ts = TestServer::boot();
    let side = (1u64 << 32) + 1;
    for generate in [
        format!(r#"{{"class":"grid","width":{side},"height":{side}}}"#),
        format!(r#"{{"class":"grid","width":{},"height":2}}"#, 1u64 << 31),
        format!(r#"{{"class":"grid","width":{side},"height":1}}"#),
        format!(r#"{{"class":"sbm","vertices":{side}}}"#),
        format!(r#"{{"class":"er","vertices":{side},"edges":1}}"#),
    ] {
        let (status, body) = ts.post(
            "/graphs",
            &format!(r#"{{"name":"big","generate":{generate}}}"#),
        );
        assert_eq!(status, 400, "{generate}: {}", body.render());
    }
    let (status, body) = ts.post(
        "/graphs",
        &format!(r#"{{"name":"big","vertices":{side},"edges":[[0,1]]}}"#),
    );
    assert_eq!(status, 400, "{}", body.render());
    let (status, _) = ts.get("/graphs/big");
    assert_eq!(status, 404);
    ts.server.stop();
}

/// The service must shut down promptly: `stop()` returns quickly and
/// unparks any thread blocked in `join()` (no sleep-loop stragglers),
/// and idle workers must not keep the process awake.
#[test]
fn stop_is_fast_and_unblocks_join() {
    let ts = TestServer::boot();
    let server = std::sync::Arc::new(ts.server);

    let joiner = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || {
            let start = Instant::now();
            server.join();
            start.elapsed()
        })
    };
    // Give the joiner time to actually block in join().
    std::thread::sleep(Duration::from_millis(100));

    let start = Instant::now();
    server.stop();
    let stop_elapsed = start.elapsed();
    let join_elapsed = joiner.join().expect("joiner panicked");

    assert!(
        stop_elapsed < Duration::from_secs(5),
        "stop() took {stop_elapsed:?}; workers or accept loop not unblocking"
    );
    assert!(
        join_elapsed < Duration::from_secs(5),
        "join() took {join_elapsed:?} to observe stop(); condvar wakeup missing"
    );
}

/// `/metrics` exposes the core algorithm families after one detect, in
/// Prometheus text format with cumulative (monotone) histogram buckets.
#[test]
fn metrics_endpoint_covers_core_and_service_families() {
    let ts = TestServer::boot();
    let (status, _) = ts.post(
        "/graphs",
        r#"{"name":"m","generate":{"class":"sbm","vertices":600,"communities":6,
            "intra_degree":12.0,"inter_degree":1.0,"seed":7}}"#,
    );
    assert_eq!(status, 201);
    let (status, submitted) = ts.post("/graphs/m/detect", r#"{"objective":"modularity"}"#);
    assert_eq!(status, 202, "{}", submitted.render());
    let job = ts.await_job(submitted.get("id").and_then(Json::as_u64).unwrap());
    assert_eq!(job.get("state").and_then(Json::as_str), Some("done"));

    let (status, text) = client_request(&ts.addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    for name in [
        "gve_leiden_runs_total",
        "gve_leiden_passes_total",
        "gve_leiden_move_iterations_total",
        "gve_leiden_pruning_processed_total",
        "gve_leiden_pruning_skipped_total",
        "gve_leiden_refine_moves_total",
        "gve_leiden_aggregation_shrink_ratio",
        "gve_leiden_phase_seconds_total{phase=\"local_move\"}",
        "gve_leiden_phase_seconds_total{phase=\"refinement\"}",
        "gve_leiden_phase_seconds_total{phase=\"aggregation\"}",
        "gve_cache_hits_total",
        "gve_cache_misses_total",
        "gve_jobs_submitted_total",
        "gve_jobs_completed_total",
        "gve_jobs_queue_depth",
        "gve_jobs_queue_wait_seconds_bucket",
        "gve_jobs_run_seconds_bucket",
        "gve_http_connections_total",
        "gve_http_rejected_connections_total",
        "gve_http_request_seconds_bucket",
        "gve_updates_batches_total",
    ] {
        assert!(text.contains(name), "missing {name} in /metrics:\n{text}");
    }
    assert!(
        text.contains("gve_leiden_runs_total 1"),
        "exactly one run expected:\n{text}"
    );
    assert!(text.contains("# TYPE gve_jobs_run_seconds histogram"));

    // Histogram buckets must be cumulative: counts never decrease as le
    // grows, and the +Inf bucket equals the family _count.
    let buckets: Vec<u64> = text
        .lines()
        .filter(|l| l.starts_with("gve_jobs_run_seconds_bucket"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(!buckets.is_empty());
    assert!(
        buckets.windows(2).all(|w| w[0] <= w[1]),
        "non-monotone buckets: {buckets:?}"
    );
    let count: u64 = text
        .lines()
        .find(|l| l.starts_with("gve_jobs_run_seconds_count"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("missing gve_jobs_run_seconds_count");
    assert_eq!(*buckets.last().unwrap(), count, "+Inf bucket != _count");
    assert_eq!(count, 1, "one full detection ran");

    ts.server.stop();
}
