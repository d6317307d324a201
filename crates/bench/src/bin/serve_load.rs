//! Serving-tier load benchmark: the `gve-net` event-loop reactor on a
//! cached-partition detect workload over keep-alive connections, plus
//! an in-flight coalescing burst measurement.
//!
//! The server holds a resident graph whose default partition is
//! pre-warmed into the cache, so every `POST /graphs/bench/detect` is
//! answered from memory and the measurement isolates the *serving*
//! tier, not Leiden itself. The coalescing phase then bursts identical
//! never-seen detect configs from all clients at once and reads the
//! `gve_jobs_coalesced_total` / `gve_jobs_full_detections_total`
//! counters back out of `/metrics`.
//!
//! ```text
//! cargo run --release -p gve-bench --bin serve_load -- \
//!     --clients 8,64 --requests 200 --json BENCH_serve.json
//! ```
//!
//! Gates (used by the CI `serve-load-smoke` job):
//! * `--assert-min-rps <f>`  — fail unless req/s at the highest client
//!   count reaches the floor.
//! * `--assert-p99-ms <f>`   — fail if the p99 at the highest client
//!   count exceeds the ceiling.
//! * `--assert-coalesce-rate <f>` — fail if the burst coalesce hit-rate
//!   at the highest client count falls below the floor.

use gve_bench::report::{self, Table};
use gve_net::{run_load, LoadReport, LoadSpec, Target};
use gve_serve::jobs::{DetectRequest, JobState};
use gve_serve::registry::GraphSource;
use gve_serve::{client_request, ServeConfig, Server};
use std::fmt::Write as _;
use std::process::exit;
use std::time::Duration;

struct Args {
    clients: Vec<usize>,
    requests: usize,
    rounds: usize,
    json: String,
    assert_min_rps: Option<f64>,
    assert_p99_ms: Option<f64>,
    assert_coalesce_rate: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: vec![8, 64],
        requests: 200,
        rounds: 8,
        json: "BENCH_serve.json".to_string(),
        assert_min_rps: None,
        assert_p99_ms: None,
        assert_coalesce_rate: None,
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
            "--clients" => {
                args.clients = value("--clients")
                    .split(',')
                    .map(|c| c.trim().parse().expect("bad --clients"))
                    .collect();
            }
            "--requests" => args.requests = value("--requests").parse().expect("bad --requests"),
            "--rounds" => args.rounds = value("--rounds").parse().expect("bad --rounds"),
            "--json" => args.json = value("--json"),
            "--assert-min-rps" => {
                args.assert_min_rps = Some(value("--assert-min-rps").parse().expect("bad float"))
            }
            "--assert-p99-ms" => {
                args.assert_p99_ms = Some(value("--assert-p99-ms").parse().expect("bad float"))
            }
            "--assert-coalesce-rate" => {
                args.assert_coalesce_rate =
                    Some(value("--assert-coalesce-rate").parse().expect("bad float"))
            }
            other => {
                eprintln!("unknown flag {other}");
                exit(2);
            }
        }
    }
    assert!(!args.clients.is_empty(), "--clients must be nonempty");
    args
}

/// Boots a server on an ephemeral port with the bench graph loaded and
/// its default partition pre-warmed into the cache.
fn boot() -> Server {
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_connections: 512,
        ..ServeConfig::default()
    })
    .expect("bind bench server");
    let planted = gve_generate::PlantedPartition::new(5000, 10, 10.0, 0.8)
        .seed(42)
        .generate();
    server
        .state()
        .registry
        .register("bench", planted.graph, GraphSource::Generated("sbm".into()))
        .expect("register bench graph");
    let job = server
        .state()
        .jobs
        .submit("bench", DetectRequest::default())
        .expect("warm submit");
    let record = server
        .state()
        .jobs
        .wait(job.id, Duration::from_secs(120))
        .expect("warm job");
    assert_eq!(record.state, JobState::Done, "warm-up detection failed");
    server
}

/// Reads one un-labeled counter/gauge sample out of `/metrics`.
fn metric(addr: &str, name: &str) -> f64 {
    let (status, body) = client_request(addr, "GET", "/metrics", None).expect("GET /metrics");
    assert_eq!(status, 200);
    body.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (sample, value) = line.rsplit_once(' ')?;
            (sample == name).then(|| value.parse().ok())?
        })
        .unwrap_or(0.0)
}

fn measure(addr: &str, clients: usize, requests: usize) -> LoadReport {
    run_load(&LoadSpec {
        addr: addr.to_string(),
        clients,
        requests_per_client: requests,
        targets: vec![Target::post("/graphs/bench/detect", "{}")],
    })
}

struct CoalesceSample {
    clients: usize,
    rounds: usize,
    submitted: u64,
    full_detections: u64,
    coalesced: u64,
    hit_rate: f64,
}

/// Bursts `rounds` never-before-seen identical detect configs from
/// `clients` concurrent connections and reports how many submits rode
/// an in-flight run instead of executing their own.
fn measure_coalesce(addr: &str, clients: usize, rounds: usize, seed_base: u64) -> CoalesceSample {
    let submitted0 = metric(addr, "gve_jobs_submitted_total");
    let full0 = metric(addr, "gve_jobs_full_detections_total");
    let coalesced0 = metric(addr, "gve_jobs_coalesced_total");
    for round in 0..rounds {
        let body = format!("{{\"seed\": {}}}", seed_base + round as u64);
        run_load(&LoadSpec {
            addr: addr.to_string(),
            clients,
            requests_per_client: 1,
            targets: vec![Target::post("/graphs/bench/detect", &body)],
        });
    }
    let submitted = (metric(addr, "gve_jobs_submitted_total") - submitted0) as u64;
    let full_detections = (metric(addr, "gve_jobs_full_detections_total") - full0) as u64;
    let coalesced = (metric(addr, "gve_jobs_coalesced_total") - coalesced0) as u64;
    CoalesceSample {
        clients,
        rounds,
        submitted,
        full_detections,
        coalesced,
        hit_rate: if submitted > 0 {
            coalesced as f64 / submitted as f64
        } else {
            0.0
        },
    }
}

fn main() {
    let args = parse_args();
    let max_clients = *args.clients.iter().max().expect("nonempty clients");

    let mut table = Table::new(
        "Serving tier: cached-partition detect throughput (keep-alive event loop)",
        &["Clients", "Req/s", "p50 ms", "p99 ms", "Failed", "5xx"],
    );
    let mut rows: Vec<(usize, LoadReport)> = Vec::new();

    let server = boot();
    let addr = format!("127.0.0.1:{}", server.port());
    let backend = server.backend();
    eprintln!("serving on {addr} ({backend} backend)");
    for &clients in &args.clients {
        let report = measure(&addr, clients, args.requests);
        table.push(vec![
            clients.to_string(),
            format!("{:.0}", report.requests_per_second),
            format!("{:.3}", report.p50_ms),
            format!("{:.3}", report.p99_ms),
            report.failed.to_string(),
            report.server_errors.to_string(),
        ]);
        rows.push((clients, report));
    }
    server.stop();

    // Coalescing burst against a fresh server.
    let server = boot();
    let addr = format!("127.0.0.1:{}", server.port());
    let mut coalesce: Vec<CoalesceSample> = Vec::new();
    for (index, &clients) in args.clients.iter().enumerate() {
        coalesce.push(measure_coalesce(
            &addr,
            clients,
            args.rounds,
            90_000 + (index as u64) * 1_000,
        ));
    }
    server.stop();

    table.print();
    println!(
        "Coalescing bursts ({} rounds of identical fresh configs):",
        args.rounds
    );
    for sample in &coalesce {
        println!(
            "  {} clients: {} submits -> {} full detections, {} coalesced \
             (hit rate {:.1}%)",
            sample.clients,
            sample.submitted,
            sample.full_detections,
            sample.coalesced,
            sample.hit_rate * 100.0,
        );
    }
    let at_max = rows
        .iter()
        .find(|(clients, _)| *clients == max_clients)
        .map(|(_, report)| report)
        .expect("a row at the highest client count");

    // ------------------------------------------------- JSON report
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"suite\": \"serve\",");
    let _ = writeln!(json, "  \"requests_per_client\": {},", args.requests);
    let _ = writeln!(json, "  \"workload\": \"cached-partition detect\",");
    let _ = writeln!(json, "  \"backend\": \"{backend}\",");
    let _ = writeln!(json, "  \"threads\": {},", rayon::current_num_threads());
    let _ = writeln!(json, "  \"commit\": \"{}\",", report::commit());
    json.push_str("  \"results\": [\n");
    for (index, (clients, report)) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"clients\": {}, \"completed\": {}, \
             \"failed\": {}, \"server_errors\": {}, \"elapsed_seconds\": {:.6}, \
             \"requests_per_second\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"mean_ms\": {:.3}, \"max_ms\": {:.3}}}{}",
            clients,
            report.completed,
            report.failed,
            report.server_errors,
            report.elapsed_seconds,
            report.requests_per_second,
            report.p50_ms,
            report.p99_ms,
            report.mean_ms,
            report.max_ms,
            if index + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"coalesce\": [\n");
    for (index, sample) in coalesce.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"clients\": {}, \"rounds\": {}, \"submitted\": {}, \
             \"full_detections\": {}, \"coalesced\": {}, \"hit_rate\": {:.4}}}{}",
            sample.clients,
            sample.rounds,
            sample.submitted,
            sample.full_detections,
            sample.coalesced,
            sample.hit_rate,
            if index + 1 < coalesce.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"max_clients\": {max_clients}");
    json.push_str("}\n");
    std::fs::write(&args.json, json).expect("failed to write JSON report");
    println!("report written to {}", args.json);

    // -------------------------------------------------- regression gates
    let mut failures = Vec::new();
    if let Some(floor) = args.assert_min_rps {
        let rps = at_max.requests_per_second;
        if rps < floor {
            failures.push(format!(
                "{rps:.0} req/s at {max_clients} clients below the {floor:.0} req/s floor"
            ));
        }
    }
    if let Some(ceiling) = args.assert_p99_ms {
        let p99 = at_max.p99_ms;
        if p99 > ceiling {
            failures.push(format!(
                "p99 {p99:.3} ms at {max_clients} clients above the {ceiling:.3} ms ceiling"
            ));
        }
    }
    if let Some(floor) = args.assert_coalesce_rate {
        let rate = coalesce
            .iter()
            .find(|s| s.clients == max_clients)
            .map(|s| s.hit_rate)
            .unwrap_or(0.0);
        if rate < floor {
            failures.push(format!(
                "coalesce hit-rate {rate:.3} at {max_clients} clients below the {floor:.3} floor"
            ));
        }
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("REGRESSION: {failure}");
        }
        exit(1);
    }
}
