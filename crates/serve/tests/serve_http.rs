//! End-to-end HTTP tests over the `gve-net` event-loop reactor, on
//! both of its backends (epoll and the portable `poll(2)` fallback).

use gve_serve::{client_request, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn boot(force_portable_poll: bool) -> Server {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shards: 2,
        force_portable_poll,
        ..ServeConfig::default()
    })
    .expect("server start")
}

fn register_sbm(addr: &str, name: &str, vertices: usize) {
    let body = format!(
        "{{\"name\":\"{name}\",\"generate\":{{\"class\":\"sbm\",\"vertices\":{vertices},\
         \"communities\":10,\"intra_degree\":10.0,\"inter_degree\":0.8,\"seed\":42}}}}"
    );
    let (status, response) = client_request(addr, "POST", "/graphs", Some(&body)).unwrap();
    assert_eq!(status, 201, "register failed: {response}");
}

/// Pulls `"field":<integer>` out of a JSON response without a parser.
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

fn metric_value(addr: &str, name: &str) -> f64 {
    let (status, body) = client_request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    body.lines()
        .find(|line| line.starts_with(name) && !line.starts_with('#'))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|value| value.parse().ok())
        .unwrap_or(0.0)
}

/// The full service flow — register, detect, poll, membership — over
/// the event loop's default backend.
#[test]
fn detect_flow_end_to_end() {
    let server = boot(false);
    assert!(
        server.backend() == "epoll" || server.backend() == "poll",
        "unexpected backend {}",
        server.backend()
    );
    let addr = format!("127.0.0.1:{}", server.port());

    register_sbm(&addr, "flow", 500);
    let (status, body) = client_request(&addr, "POST", "/graphs/flow/detect", Some("{}")).unwrap();
    assert!(status == 200 || status == 202, "{status} {body}");
    let id = json_u64(&body, "id").expect("job id in detect response");

    let done = wait_job_done(&addr, id);
    assert!(done.contains("\"done\""), "{done}");
    assert!(
        json_u64(&done, "num_communities").unwrap_or(0) > 0,
        "{done}"
    );

    let (status, membership) =
        client_request(&addr, "GET", "/graphs/flow/membership", None).unwrap();
    assert_eq!(status, 200);
    assert!(membership.contains("\"membership\""), "{membership}");
    server.stop();
}

/// `kernel`, `layout`, `chunking` and `chunk_size` are no longer detect
/// options: a body naming them fingerprints like `{}`, so once `{}` is
/// cached it is answered with the same 200 cache hit, and no second
/// detection runs — also for a chunk size that would overflow a chunk
/// cursor, and for one that used to be rejected.
#[test]
fn retired_detect_fields_hit_the_default_partition() {
    let server = boot(false);
    let addr = format!("127.0.0.1:{}", server.port());
    register_sbm(&addr, "retired", 400);
    let (status, body) =
        client_request(&addr, "POST", "/graphs/retired/detect", Some("{}")).unwrap();
    assert!(status == 200 || status == 202, "{status} {body}");
    let done = wait_job_done(&addr, json_u64(&body, "id").expect("job id"));
    assert!(done.contains("\"done\""), "{done}");

    let (status, plain) =
        client_request(&addr, "POST", "/graphs/retired/detect", Some("{}")).unwrap();
    assert_eq!(status, 200, "{plain}");
    let request_echo = |body: &str| body[body.find("\"request\"").unwrap()..].to_string();
    for retired_body in [
        r#"{"kernel":"v1","layout":"interleaved"}"#,
        r#"{"chunking":"stealing","chunk_size":18446744073709551615}"#,
        r#"{"chunking":"guided","chunk_size":0}"#,
    ] {
        let (status, retired) =
            client_request(&addr, "POST", "/graphs/retired/detect", Some(retired_body)).unwrap();
        assert_eq!(status, 200, "{retired_body}: {retired}");
        assert!(
            retired.contains("\"cached\":true"),
            "{retired_body}: {retired}"
        );
        assert_eq!(request_echo(&retired), request_echo(&plain));
        for field in ["kernel", "layout", "chunking", "chunk_size"] {
            assert!(!retired.contains(field), "{field} in {retired}");
        }
    }
    assert_eq!(metric_value(&addr, "gve_jobs_full_detections_total"), 1.0);
    server.stop();
}

/// The portable `poll(2)` reactor backend answers requests like epoll.
#[test]
fn portable_poll_backend_serves() {
    let server = boot(true);
    assert_eq!(server.backend(), "poll");
    let addr = format!("127.0.0.1:{}", server.port());
    let (status, body) = client_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    server.stop();
}

/// Regression test for `Server::stop` vs in-flight keep-alive
/// connections: an idle persistent connection must not wedge shutdown.
/// Stop drains within its bounded budget and the port stops accepting.
#[test]
fn stop_drains_inflight_keepalive_connections() {
    let server = Arc::new(boot(false));
    let addr = format!("127.0.0.1:{}", server.port());

    // Park several idle keep-alive connections on the reactor, with one
    // request served on each so they are fully established.
    let mut parked = Vec::new();
    for _ in 0..4 {
        let mut conn = gve_net::ClientConn::connect(addr.as_str()).unwrap();
        let (status, _) = conn.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        parked.push(conn);
    }

    let started = Instant::now();
    server.stop();
    let stop_elapsed = started.elapsed();
    // Bounded drain: well under the reactor's drain budget plus slack,
    // never a hang on the idle connections.
    assert!(
        stop_elapsed < Duration::from_secs(20),
        "stop took {stop_elapsed:?} with idle keep-alive connections parked"
    );

    // The listener is gone: new connections are refused (or, at worst,
    // accepted by the OS backlog and immediately closed).
    match gve_net::ClientConn::connect(addr.as_str()) {
        Err(_) => {}
        Ok(mut conn) => {
            assert!(
                conn.request("GET", "/healthz", None).is_err(),
                "server answered after stop"
            );
        }
    }

    // Parked connections observe the close rather than hanging forever.
    for conn in parked.iter_mut() {
        assert!(
            conn.request("GET", "/healthz", None).is_err(),
            "drained connection still served a request after stop"
        );
    }
}

/// N identical concurrent detects over HTTP collapse onto one Leiden
/// run: every response carries the same job key, the coalesced counter
/// advances, and exactly one full detection executes.
#[test]
fn identical_concurrent_detects_coalesce_over_http() {
    let server = Arc::new(boot(false));
    let addr = format!("127.0.0.1:{}", server.port());
    register_sbm(&addr, "shared", 2500);

    let full_before = metric_value(&addr, "gve_jobs_full_detections_total");

    const CLIENTS: usize = 8;
    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    let ids: Vec<u64> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = addr.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let (status, body) = client_request(
                        &addr,
                        "POST",
                        "/graphs/shared/detect",
                        Some("{\"seed\":7}"),
                    )
                    .unwrap();
                    assert!(status == 200 || status == 202, "{status} {body}");
                    json_u64(&body, "id").expect("job id")
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    for &id in &ids {
        let done = wait_job_done(&addr, id);
        assert!(done.contains("\"done\""), "{done}");
    }

    let full_after = metric_value(&addr, "gve_jobs_full_detections_total");
    let coalesced = metric_value(&addr, "gve_jobs_coalesced_total");
    assert_eq!(
        (full_after - full_before) as u64,
        1,
        "identical concurrent detects ran more than one Leiden pass"
    );
    assert!(
        coalesced >= 1.0,
        "expected coalesced jobs, counter = {coalesced}"
    );
    server.stop();
}

/// Regression test for the reactor-stall review finding: inline
/// handlers (graph info, detect submit) snapshot the registry entry on
/// the reactor thread, and an update batch mid-refresh must not block
/// them. Holding the cell's update gate simulates the longest possible
/// refresh; a request that blocked behind it would hang this test.
#[test]
fn inline_requests_answer_while_an_update_holds_the_gate() {
    let server = boot(false);
    let addr = format!("127.0.0.1:{}", server.port());
    register_sbm(&addr, "busy", 400);

    let cell = server.state().registry.entry("busy").unwrap();
    let gate = cell.begin_update(); // an update batch is "in flight"

    // Inline GET on the same graph answers immediately off the old
    // snapshot instead of freezing the reactor (and with it every
    // other connection) until the gate drops.
    let (status, body) = client_request(&addr, "GET", "/graphs/busy", None).unwrap();
    assert_eq!(status, 200, "{body}");
    // Inline detect submit also only needs the snapshot.
    let (status, body) = client_request(&addr, "POST", "/graphs/busy/detect", Some("{}")).unwrap();
    assert!(status == 200 || status == 202, "{status} {body}");
    // Unrelated inline routes (served by the same single reactor
    // thread) must be alive too.
    let (status, _) = client_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    drop(gate);
    server.stop();
}

/// Keep-alive reuse over the reactor: many requests on one connection,
/// confirmed by the reuse counter.
#[test]
fn keepalive_connection_serves_many_requests() {
    let server = boot(false);
    let addr = format!("127.0.0.1:{}", server.port());
    let mut conn = gve_net::ClientConn::connect(addr.as_str()).unwrap();
    for _ in 0..32 {
        let (status, _) = conn.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
    }
    let reuses = metric_value(&addr, "gve_net_keepalive_reuses_total");
    assert!(reuses >= 31.0, "keep-alive reuses = {reuses}");
    server.stop();
}
