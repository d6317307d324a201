//! The update path over HTTP: reads beside updates, and an update
//! seeded from a cached membership that does not fit the graph.

use gve_serve::cache::{CachedPartition, PartitionKey, PartitionOrigin};
use gve_serve::jobs::DetectRequest;
use gve_serve::{client_request, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const UPDATES: u32 = 50;
const VERTICES: u32 = 3000;

/// Every membership read beside 50 updates finds the partition of the
/// epoch it sees. An update used to publish its new epoch before the
/// refreshed partition reached the cache, and a read in between
/// answered 404 "rerun detect".
#[test]
fn membership_reads_never_meet_a_stale_epoch_during_updates() {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gve-serve-stale-reads-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // Durable with fsync on, as served in production: the partition
    // record's append lengthens the window the old order left open.
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        data_dir: Some(dir.display().to_string()),
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = format!("127.0.0.1:{}", server.port());
    let register = format!(
        "{{\"name\":\"g\",\"generate\":{{\"class\":\"sbm\",\"vertices\":{VERTICES},\"seed\":5}}}}"
    );
    let (status, body) = client_request(&addr, "POST", "/graphs", Some(&register)).unwrap();
    assert_eq!(status, 201, "{body}");
    let (status, body) = client_request(&addr, "POST", "/graphs/g/detect", Some("{}")).unwrap();
    assert!(status == 200 || status == 202, "{status} {body}");
    let deadline = Instant::now() + Duration::from_secs(60);
    while client_request(&addr, "GET", "/graphs/g/membership?vertex=0", None)
        .unwrap()
        .0
        != 200
    {
        assert!(Instant::now() < deadline, "the detect never finished");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Relaxed: a stop flag only; the join publishes the reader's counts.
    let done = AtomicBool::new(false);
    let (reads, stale) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let (mut reads, mut stale) = (0u64, Vec::new());
            while !done.load(Ordering::Relaxed) {
                let target = format!("/graphs/g/membership?vertex={}", reads % VERTICES as u64);
                let (status, body) = client_request(&addr, "GET", &target, None).unwrap();
                reads += 1;
                if status != 200 {
                    stale.push(format!("{status} {body}"));
                }
            }
            (reads, stale)
        });
        for i in 0..UPDATES {
            let (u, v) = (i % VERTICES, (i * 7 + 1500) % VERTICES);
            let body = format!("{{\"insertions\":[[{u},{v},1.0]],\"deletions\":[[{v},{u}]]}}");
            let (status, response) =
                client_request(&addr, "POST", "/graphs/g/updates", Some(&body)).unwrap();
            assert!(status == 200 || status == 202, "{status} {response}");
        }
        assert!(server.state().ingest.wait_idle(Duration::from_secs(60)));
        done.store(true, Ordering::Relaxed);
        reader.join().expect("reader panicked")
    });
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        reads > UPDATES as u64,
        "only {reads} reads beside the updates"
    );
    assert!(
        stale.is_empty(),
        "{} of {reads} reads failed, first: {}",
        stale.len(),
        stale[0]
    );
}

/// A cached membership shorter than the graph cannot seed a refresh:
/// the update answers 400 and publishes nothing.
#[test]
fn a_membership_that_does_not_cover_the_graph_answers_400() {
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = format!("127.0.0.1:{}", server.port());
    let register = r#"{"name":"g","edges":[[0,1],[1,2],[2,3],[3,0]]}"#;
    let (status, body) = client_request(&addr, "POST", "/graphs", Some(register)).unwrap();
    assert_eq!(status, 201, "{body}");
    let request = DetectRequest::default();
    server.state().cache.insert(
        PartitionKey {
            graph: "g".into(),
            epoch: 0,
            fingerprint: request.fingerprint(),
        },
        CachedPartition {
            membership: Arc::new(vec![0, 0, 1]),
            num_communities: 2,
            modularity: 0.0,
            seconds: 0.0,
            origin: PartitionOrigin::Detection,
            request,
        },
    );

    let (status, body) = client_request(
        &addr,
        "POST",
        "/graphs/g/updates",
        Some(r#"{"insertions":[[0,2]]}"#),
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("membership covers 3 vertices"), "{body}");
    let (status, info) = client_request(&addr, "GET", "/graphs/g", None).unwrap();
    assert_eq!(status, 200, "{info}");
    assert!(info.contains("\"epoch\":0"), "{info}");
    server.stop();
}
