//! Closed-loop HTTP load generator.
//!
//! Spawns `clients` threads, each issuing `requests_per_client`
//! requests back-to-back over one persistent keep-alive connection
//! (closed loop: the next request starts when the previous response
//! lands), and reports throughput plus latency percentiles. Used by
//! `crates/bench/src/bin/serve_load.rs`.

use crate::http::ClientConn;
use std::time::Instant;

/// One request shape; clients cycle through the list round-robin.
#[derive(Debug, Clone)]
pub struct Target {
    /// HTTP method.
    pub method: String,
    /// Path and query, e.g. `/graphs/g/membership`.
    pub path: String,
    /// Optional body.
    pub body: Option<String>,
}

impl Target {
    /// A GET target.
    pub fn get(path: impl Into<String>) -> Target {
        Target {
            method: "GET".into(),
            path: path.into(),
            body: None,
        }
    }

    /// A POST target with a body.
    pub fn post(path: impl Into<String>, body: impl Into<String>) -> Target {
        Target {
            method: "POST".into(),
            path: path.into(),
            body: Some(body.into()),
        }
    }
}

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Server address, e.g. `127.0.0.1:8080`.
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests issued per client.
    pub requests_per_client: usize,
    /// Request shapes, cycled per request.
    pub targets: Vec<Target>,
}

/// Aggregated result of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Concurrent clients that ran.
    pub clients: usize,
    /// Successfully answered requests (any HTTP status).
    pub completed: u64,
    /// Requests that failed at the transport level.
    pub failed: u64,
    /// Responses with status >= 500.
    pub server_errors: u64,
    /// Wall time of the whole run, seconds.
    pub elapsed_seconds: f64,
    /// completed / elapsed.
    pub requests_per_second: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Mean request latency, milliseconds.
    pub mean_ms: f64,
    /// Slowest request, milliseconds.
    pub max_ms: f64,
}

/// Nearest-rank percentile over an already **sorted** slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-client worker outcome.
struct ClientOutcome {
    latencies_ms: Vec<f64>,
    failed: u64,
    server_errors: u64,
}

fn run_client(spec: &LoadSpec, client_index: usize) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        latencies_ms: Vec::with_capacity(spec.requests_per_client),
        failed: 0,
        server_errors: 0,
    };
    let mut conn: Option<ClientConn> = None;
    for i in 0..spec.requests_per_client {
        let target = &spec.targets[(client_index + i) % spec.targets.len()];
        let t0 = Instant::now();
        // Lazily (re)connect; one transport error costs one request and
        // a reconnect, not the whole client.
        if conn.is_none() {
            conn = ClientConn::connect(&spec.addr).ok();
        }
        let result = match conn.as_mut() {
            Some(c) => {
                let r = c.request(&target.method, &target.path, target.body.as_deref());
                if r.is_err() {
                    conn = None;
                }
                r
            }
            None => Err(std::io::Error::other("connect failed")),
        };
        match result {
            Ok((status, _body)) => {
                outcome.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if status >= 500 {
                    outcome.server_errors += 1;
                }
            }
            Err(_) => outcome.failed += 1,
        }
    }
    outcome
}

/// Runs the closed-loop load and aggregates the report.
pub fn run_load(spec: &LoadSpec) -> LoadReport {
    let t0 = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..spec.clients)
            .map(|c| scope.spawn(move || run_client(spec, c)))
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join().unwrap_or(ClientOutcome {
                    latencies_ms: Vec::new(),
                    failed: spec.requests_per_client as u64,
                    server_errors: 0,
                })
            })
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = Vec::new();
    let mut failed = 0u64;
    let mut server_errors = 0u64;
    for outcome in outcomes {
        latencies.extend(outcome.latencies_ms);
        failed += outcome.failed;
        server_errors += outcome.server_errors;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let completed = latencies.len() as u64;
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    LoadReport {
        clients: spec.clients,
        completed,
        failed,
        server_errors,
        elapsed_seconds: elapsed,
        requests_per_second: if elapsed > 0.0 {
            completed as f64 / elapsed
        } else {
            0.0
        },
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        mean_ms: mean,
        max_ms: latencies.last().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{EventLoopServer, NetOptions};
    use crate::Response;

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn load_run_against_live_server_counts_every_request() {
        let server = EventLoopServer::start(
            "127.0.0.1:0",
            NetOptions {
                handler_threads: 2,
                ..NetOptions::default()
            },
            |_req| Response::json(200, "{\"ok\":true}"),
        )
        .unwrap();
        let report = run_load(&LoadSpec {
            addr: format!("127.0.0.1:{}", server.port()),
            clients: 4,
            requests_per_client: 25,
            targets: vec![Target::get("/ping")],
        });
        assert_eq!(report.completed, 100, "failed={}", report.failed);
        assert_eq!(report.failed, 0);
        assert_eq!(report.server_errors, 0);
        assert!(report.requests_per_second > 0.0);
        assert!(report.p50_ms <= report.p99_ms);
        assert!(report.p99_ms <= report.max_ms + 1e-9);
        assert_eq!(report.clients, 4);
        server.stop();
    }
}
