//! Dynamic-service benchmark: sustained churn through the serving
//! tier's update path against a full static rerun, plus recovery-time
//! scaling.
//!
//! Phase 1 drives [`ChurnStream`] windows through a resident server's
//! `POST /graphs/{name}/updates` endpoint (the partition is pre-warmed,
//! so every batch takes the Dynamic Frontier refresh) and reports
//! sustained updates/sec plus latency p50/p99. The `full-static` row is
//! the recompute-from-scratch baseline: the same windows from the same
//! warmed membership, refreshed in-process by [`refresh_in`] with
//! [`DynamicStrategy::FullStatic`] on the default pool the server's
//! refreshes also run on. It pays neither HTTP nor the ingest queue.
//!
//! Phase 2 measures durability: boot on a data dir, apply N batches,
//! drop the server, and time a cold [`Server::start`] that recovers the
//! graph from snapshot + WAL replay, for increasing WAL lengths.
//!
//! ```text
//! cargo run --release -p gve-bench --bin dynamic_service -- \
//!     --vertices 2000 --windows 16 --json BENCH_dynamic.json
//! ```
//!
//! Gates (used by the CI `dynamic-bench-smoke` job):
//! * `--assert-speedup <f>` — fail unless the served frontier p50
//!   beats the in-process full-static p50 by a factor of f.
//! * `--assert-recovery-ms <f>` — fail if the longest measured recovery
//!   exceeds the floor.

use gve_bench::report::Table;
use gve_dynamic::{collect_windows, refresh_in, BatchUpdate, ChurnStream, DynamicStrategy};
use gve_leiden::{Leiden, PassWorkspace};
use gve_serve::jobs::DetectRequest;
use gve_serve::registry::GraphSource;
use gve_serve::{client_request, ServeConfig, Server};
use std::fmt::Write as _;
use std::process::exit;
use std::time::{Duration, Instant};

struct Args {
    vertices: usize,
    windows: usize,
    insert_rate: f64,
    delete_rate: f64,
    window_seconds: f64,
    wal_lengths: Vec<usize>,
    json: String,
    assert_speedup: Option<f64>,
    assert_recovery_ms: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        vertices: 2000,
        windows: 16,
        insert_rate: 400.0,
        delete_rate: 100.0,
        window_seconds: 0.5,
        wal_lengths: vec![8, 32, 128],
        json: "BENCH_dynamic.json".to_string(),
        assert_speedup: None,
        assert_recovery_ms: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .clone()
        };
        match flag.as_str() {
            "--vertices" => args.vertices = value("--vertices").parse().expect("bad --vertices"),
            "--windows" => args.windows = value("--windows").parse().expect("bad --windows"),
            "--insert-rate" => {
                args.insert_rate = value("--insert-rate").parse().expect("bad --insert-rate")
            }
            "--delete-rate" => {
                args.delete_rate = value("--delete-rate").parse().expect("bad --delete-rate")
            }
            "--window-seconds" => {
                args.window_seconds = value("--window-seconds")
                    .parse()
                    .expect("bad --window-seconds")
            }
            "--wal-lengths" => {
                args.wal_lengths = value("--wal-lengths")
                    .split(',')
                    .map(|c| c.trim().parse().expect("bad --wal-lengths"))
                    .collect();
            }
            "--json" => args.json = value("--json"),
            "--assert-speedup" => {
                args.assert_speedup = Some(value("--assert-speedup").parse().expect("bad float"))
            }
            "--assert-recovery-ms" => {
                args.assert_recovery_ms =
                    Some(value("--assert-recovery-ms").parse().expect("bad float"))
            }
            other => {
                eprintln!("unknown flag {other}");
                exit(2);
            }
        }
    }
    args
}

fn boot(data_dir: Option<&str>) -> Server {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        data_dir: data_dir.map(str::to_string),
        ..ServeConfig::default()
    })
    .expect("bind bench server")
}

/// Registers the planted graph and pre-warms its default partition so
/// every update batch takes the incremental-refresh path.
fn seed_graph(server: &Server, vertices: usize) {
    let planted = gve_generate::PlantedPartition::new(vertices, 10, 10.0, 0.8)
        .seed(42)
        .generate();
    server
        .state()
        .registry
        .register("bench", planted.graph, GraphSource::Generated("sbm".into()))
        .expect("register bench graph");
    if let Some(store) = &server.state().durability {
        let entry = server.state().registry.snapshot("bench").expect("entry");
        store
            .register_graph("bench", &entry.graph, &entry.source.label())
            .expect("persist bench graph");
    }
    let job = server
        .state()
        .jobs
        .submit("bench", DetectRequest::default())
        .expect("warm submit");
    let deadline = Instant::now() + Duration::from_secs(120);
    while server.state().cache.latest("bench").is_none() {
        assert!(Instant::now() < deadline, "warm detect never finished");
        assert!(
            server.state().jobs.job(job.id).is_some(),
            "warm job disappeared"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn batch_body(batch: &BatchUpdate) -> String {
    let mut body = String::with_capacity(batch.len() * 16 + 64);
    body.push_str("{\"insertions\":[");
    for (i, &(u, v, w)) in batch.insertions.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "[{u},{v},{w}]");
    }
    body.push_str("],\"deletions\":[");
    for (i, &(u, v)) in batch.deletions.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "[{u},{v}]");
    }
    body.push_str("]}");
    body
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

struct RowReport {
    strategy: &'static str,
    path: &'static str,
    updates_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    total_edits: usize,
}

impl RowReport {
    /// Times `refresh` on every non-empty window, one call per window.
    fn measure(
        strategy: &'static str,
        path: &'static str,
        windows: &[BatchUpdate],
        mut refresh: impl FnMut(&BatchUpdate),
    ) -> Self {
        let mut latencies: Vec<f64> = Vec::with_capacity(windows.len());
        let mut total_edits = 0usize;
        let started = Instant::now();
        for window in windows.iter().filter(|w| !w.is_empty()) {
            total_edits += window.len();
            let sent = Instant::now();
            refresh(window);
            latencies.push(sent.elapsed().as_secs_f64() * 1e3);
        }
        let elapsed = started.elapsed().as_secs_f64();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Self {
            strategy,
            path,
            updates_per_sec: total_edits as f64 / elapsed,
            p50_ms: percentile(&latencies, 0.50),
            p99_ms: percentile(&latencies, 0.99),
            total_edits,
        }
    }

    /// How many times faster than a `static_p50` baseline this row's
    /// p50 is (0 when the row measured nothing).
    fn speedup_over(&self, static_p50: f64) -> f64 {
        if self.p50_ms > 0.0 {
            static_p50 / self.p50_ms
        } else {
            0.0
        }
    }
}

/// The served row: every window through `POST /updates` on a fresh
/// memory-only server.
fn run_served(args: &Args, windows: &[BatchUpdate]) -> RowReport {
    let server = boot(None);
    seed_graph(&server, args.vertices);
    let addr = format!("127.0.0.1:{}", server.port());
    let report = RowReport::measure("dynamic-frontier", "POST /updates", windows, |window| {
        let (status, response) = client_request(
            &addr,
            "POST",
            "/graphs/bench/updates",
            Some(&batch_body(window)),
        )
        .expect("update request");
        assert!(status == 200 || status == 202, "{status} {response}");
    });
    assert!(
        server.state().ingest.wait_idle(Duration::from_secs(120)),
        "ingest queue never drained"
    );
    server.stop();
    report
}

/// The full-static baseline: the served row's windows and warmed
/// membership, refreshed in-process on the default pool.
fn run_full_static(args: &Args, windows: &[BatchUpdate]) -> RowReport {
    let server = boot(None);
    seed_graph(&server, args.vertices);
    let (_, warm) = server
        .state()
        .cache
        .latest("bench")
        .expect("warm partition");
    let mut graph = server
        .state()
        .registry
        .snapshot("bench")
        .expect("bench graph")
        .graph
        .as_ref()
        .clone();
    server.stop();
    let runner = Leiden::new(warm.request.to_config().expect("warm config"));
    let mut membership = warm.membership.as_ref().clone();
    let mut workspace = PassWorkspace::new();
    RowReport::measure("full-static", "in-process", windows, |window| {
        let (next, result) = refresh_in(
            &runner,
            DynamicStrategy::FullStatic,
            &graph,
            &membership,
            window,
            &mut workspace,
        )
        .expect("membership covers the graph");
        graph = next;
        membership = result.membership;
    })
}

struct RecoveryReport {
    wal_records: usize,
    recovery_ms: f64,
}

/// Applies `batches` update batches against a durable server, then
/// times a cold boot that recovers the graph from snapshot + WAL.
fn run_recovery(args: &Args, windows: &[BatchUpdate], batches: usize) -> RecoveryReport {
    let dir = std::env::temp_dir().join(format!(
        "gve-bench-dynamic-{}-{batches}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.display().to_string();
    {
        let server = boot(Some(&dir_str));
        seed_graph(&server, args.vertices);
        let addr = format!("127.0.0.1:{}", server.port());
        for i in 0..batches {
            let window = &windows[i % windows.len()];
            if window.is_empty() {
                continue;
            }
            let body = batch_body(window);
            let (status, response) =
                client_request(&addr, "POST", "/graphs/bench/updates", Some(&body))
                    .expect("update request");
            assert!(status == 200 || status == 202, "{status} {response}");
        }
        assert!(server.state().ingest.wait_idle(Duration::from_secs(120)));
        server.stop();
    }
    let started = Instant::now();
    let server = boot(Some(&dir_str));
    let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        server.state().registry.snapshot("bench").is_ok(),
        "bench graph did not recover"
    );
    server.stop();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    RecoveryReport {
        wal_records: batches,
        recovery_ms,
    }
}

fn main() {
    let args = parse_args();

    // One fixed window stream so both rows see identical churn.
    let planted = gve_generate::PlantedPartition::new(args.vertices, 10, 10.0, 0.8)
        .seed(42)
        .generate();
    let stream = ChurnStream::new(&planted.graph, args.insert_rate, args.delete_rate, 7);
    let windows = collect_windows(stream, args.window_seconds, args.windows);

    let mut table = Table::new(
        "Dynamic service tier: sustained churn through POST /updates",
        &[
            "Strategy",
            "Path",
            "Updates/s",
            "p50 ms",
            "p99 ms",
            "Speedup vs static",
        ],
    );
    let reports = [
        run_full_static(&args, &windows),
        run_served(&args, &windows),
    ];
    let static_p50 = reports[0].p50_ms;
    let frontier_speedup = reports[1].speedup_over(static_p50);
    for report in &reports {
        let speedup = report.speedup_over(static_p50);
        table.push(vec![
            report.strategy.to_string(),
            report.path.to_string(),
            format!("{:.0}", report.updates_per_sec),
            format!("{:.2}", report.p50_ms),
            format!("{:.2}", report.p99_ms),
            format!("{speedup:.2}x"),
        ]);
    }
    table.print();

    let mut recovery_table = Table::new(
        "Recovery time vs WAL length (snapshot + replay)",
        &["WAL records", "Recovery ms"],
    );
    let recoveries: Vec<RecoveryReport> = args
        .wal_lengths
        .iter()
        .map(|&n| run_recovery(&args, &windows, n))
        .collect();
    for r in &recoveries {
        recovery_table.push(vec![
            r.wal_records.to_string(),
            format!("{:.1}", r.recovery_ms),
        ]);
    }
    recovery_table.print();

    // ------------------------------------------------------------ JSON
    let mut json = String::from("{\n  \"bench\": \"dynamic_service\",\n");
    let _ = writeln!(json, "  \"vertices\": {},", args.vertices);
    let _ = writeln!(json, "  \"windows\": {},", args.windows);
    json.push_str("  \"strategies\": [\n");
    for (i, report) in reports.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"strategy\": \"{}\", \"path\": \"{}\", \"updates_per_sec\": {:.1}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"total_edits\": {}, \
             \"speedup_vs_full_static\": {:.3}}}",
            report.strategy,
            report.path,
            report.updates_per_sec,
            report.p50_ms,
            report.p99_ms,
            report.total_edits,
            report.speedup_over(static_p50)
        );
        json.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"recovery\": [\n");
    for (i, r) in recoveries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"wal_records\": {}, \"recovery_ms\": {:.2}}}",
            r.wal_records, r.recovery_ms
        );
        json.push_str(if i + 1 < recoveries.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.json, &json).expect("write json");
    eprintln!("wrote {}", args.json);

    // ------------------------------------------------------------ gates
    let mut failed = false;
    if let Some(floor) = args.assert_speedup {
        if frontier_speedup < floor {
            eprintln!(
                "GATE FAIL: served frontier speedup {frontier_speedup:.2}x < required {floor:.2}x"
            );
            failed = true;
        } else {
            eprintln!("gate ok: served frontier speedup {frontier_speedup:.2}x >= {floor:.2}x");
        }
    }
    if let Some(floor) = args.assert_recovery_ms {
        let worst = recoveries.iter().map(|r| r.recovery_ms).fold(0.0, f64::max);
        if worst > floor {
            eprintln!("GATE FAIL: worst recovery {worst:.1} ms > allowed {floor:.1} ms");
            failed = true;
        } else {
            eprintln!("gate ok: worst recovery {worst:.1} ms <= {floor:.1} ms");
        }
    }
    if failed {
        exit(1);
    }
}
