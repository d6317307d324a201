//! The read workload: an in-process server holding one warmed SBM
//! partition, driven open-loop at a fixed rate with a read mix and then
//! closed-loop for its capacity. No Leiden work happens while measuring.
//!
//! Also the pieces the churn workload shares: booting and warming a
//! server over its HTTP API, and the traced run's layer probes.

use crate::load::{self, closed_loop, open_loop, Sample};
use crate::phases::{pool, PhaseLog};
use crate::stats::{latency, median, windowed_tail};
use crate::trace::Tracer;
use crate::{check, Metrics, Report, RunOptions};
use gve_graph::CsrGraph;
use gve_leiden::{Leiden, LeidenConfig, PassWorkspace};
use gve_net::ClientConn;
use gve_prim::{alloc_count, Xorshift32};
use gve_serve::json::Json;
use gve_serve::{ServeConfig, Server, ServerState};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Name the workloads register their graph under.
pub(crate) const GRAPH: &str = "ledger";

/// The planted-partition graph both serve workloads hold.
#[derive(Debug, Clone, PartialEq)]
pub struct SbmSpec {
    /// Vertices.
    pub vertices: usize,
    /// Planted blocks.
    pub communities: usize,
    /// Expected neighbours inside a vertex's block.
    pub intra_degree: f64,
    /// Expected neighbours outside it.
    pub inter_degree: f64,
}

impl Default for SbmSpec {
    fn default() -> Self {
        Self {
            vertices: 20_000,
            communities: 10,
            intra_degree: 10.0,
            inter_degree: 0.8,
        }
    }
}

impl SbmSpec {
    fn generate(&self, seed: u64) -> CsrGraph {
        gve_generate::PlantedPartition::new(
            self.vertices,
            self.communities,
            self.intra_degree,
            self.inter_degree,
        )
        .seed(seed)
        .generate()
        .graph
    }

    /// `POST /graphs` body asking the server to generate the same graph.
    fn register_body(&self, seed: u64) -> String {
        format!(
            "{{\"name\":\"{GRAPH}\",\"generate\":{{\"class\":\"sbm\",\"vertices\":{},\"communities\":{},\"intra_degree\":{},\"inter_degree\":{},\"seed\":{seed}}}}}",
            self.vertices, self.communities, self.intra_degree, self.inter_degree
        )
    }
}

/// Keep-alive connections of the read workload, one client thread each.
pub const CONNECTIONS: usize = 2;
/// Closed-loop phase length as a share of the measured phase.
pub const CLOSED_SHARE: f64 = 0.5;

/// The read workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadSpec {
    /// The served graph.
    pub graph: SbmSpec,
    /// Open-loop requests per second, split evenly over the connections.
    pub rate: f64,
    /// Set-ups timed for `setup_s`.
    pub setup_reps: usize,
    /// Probes per request kind in the traced run.
    pub probes: usize,
    /// Leiden runs per thread count the traced run replays.
    pub replays: usize,
    /// Lowest modularity the served partition may have.
    pub modularity_floor: f64,
}

impl Default for ReadSpec {
    fn default() -> Self {
        Self {
            graph: SbmSpec::default(),
            rate: 2_000.0,
            setup_reps: 9,
            probes: 200,
            replays: 5,
            modularity_floor: 0.76,
        }
    }
}

/// One keep-alive connection that reconnects after a transport error.
pub(crate) struct Conn {
    addr: String,
    inner: Option<ClientConn>,
}

impl Conn {
    pub(crate) fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            inner: None,
        }
    }

    /// Sends one request; a transport error drops the connection so the
    /// next call reconnects.
    pub(crate) fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        if self.inner.is_none() {
            self.inner = Some(ClientConn::connect(self.addr.as_str()).map_err(|e| e.to_string())?);
        }
        let conn = self.inner.as_mut().expect("connected above");
        conn.request(method, target, body).map_err(|e| {
            self.inner = None;
            format!("{method} {target}: {e}")
        })
    }

    /// Sends a request that must answer `status`.
    pub(crate) fn expect(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
        status: u16,
    ) -> Result<String, String> {
        match self.request(method, target, body)? {
            (s, body) if s == status => Ok(body),
            (s, body) => Err(format!("{method} {target}: status {s}: {body}")),
        }
    }
}

/// A booted server holding the warmed partition.
pub(crate) struct Warm {
    pub(crate) server: Server,
    pub(crate) conn: Conn,
    pub(crate) graph: CsrGraph,
    pub(crate) served: check::Served,
    pub(crate) full_body: String,
    pub(crate) generate_s: f64,
}

impl Warm {
    pub(crate) fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.server.port())
    }

    pub(crate) fn state(&self) -> &ServerState {
        self.server.state()
    }
}

/// Boots a server on `data_dir` (memory-only when `None`), registers
/// the graph through the HTTP API, runs the default detect and fetches
/// the partition it publishes.
pub(crate) fn boot_warm(
    graph: &SbmSpec,
    seed: u64,
    data_dir: Option<&Path>,
    tracer: &Tracer,
) -> Result<Warm, String> {
    let server = boot(data_dir)?;
    let mut conn = Conn::new(&format!("127.0.0.1:{}", server.port()));
    let started = Instant::now();
    let local = tracer.span("generate", None, 0, |_| graph.generate(seed));
    let generate_s = started.elapsed().as_secs_f64();
    conn.expect("POST", "/graphs", Some(&graph.register_body(seed)), 201)?;
    let body = conn.expect("POST", &format!("/graphs/{GRAPH}/detect"), Some("{}"), 202)?;
    let job = gve_serve::json::parse(&body)
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_u64))
        .ok_or_else(|| format!("detect answered without a job id: {body}"))?;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let body = conn.expect("GET", &format!("/jobs/{job}"), None, 200)?;
        if body.contains("\"state\":\"done\"") {
            break;
        }
        if body.contains("\"state\":\"failed\"") || Instant::now() > deadline {
            return Err(format!("warm-up detect did not finish: {body}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let full_body = conn.expect("GET", &format!("/graphs/{GRAPH}/membership"), None, 200)?;
    let served = check::served(&full_body)?;
    if served.membership.len() != local.num_vertices() {
        return Err(format!(
            "server holds {} vertices, the local copy {}",
            served.membership.len(),
            local.num_vertices()
        ));
    }
    Ok(Warm {
        server,
        conn,
        graph: local,
        served,
        full_body,
        generate_s,
    })
}

/// Boots and warms a server `reps` times, each from scratch (a fresh
/// data directory when durable), and keeps the last. Also returns each
/// set-up's wall time and graph generation time, in seconds.
pub(crate) fn warm_reps(
    graph: &SbmSpec,
    seed: u64,
    data_dir: Option<&Path>,
    reps: usize,
    tracer: &Tracer,
) -> Result<(Warm, Vec<f64>, Vec<f64>), String> {
    let (mut setups, mut generates, mut warm) = (Vec::new(), Vec::new(), None);
    for _ in 0..reps {
        drop(warm.take());
        if let Some(dir) = data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let started = Instant::now();
        let warmed = boot_warm(graph, seed, data_dir, tracer)?;
        setups.push(started.elapsed().as_secs_f64());
        generates.push(warmed.generate_s);
        warm = Some(warmed);
    }
    let warm = warm.ok_or("no set-up ran")?;
    Ok((warm, setups, generates))
}

/// Boots a server on an ephemeral port with the default configuration.
pub(crate) fn boot(data_dir: Option<&Path>) -> Result<Server, String> {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: data_dir.map(|d| d.display().to_string()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

/// A read of the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Read {
    DetectHit,
    Vertex(u32),
    Community(u32),
    Delta,
    Full,
}

impl Read {
    fn target(self, since: u64) -> (&'static str, String) {
        match self {
            Read::DetectHit => ("POST", format!("/graphs/{GRAPH}/detect")),
            Read::Vertex(v) => ("GET", format!("/graphs/{GRAPH}/membership?vertex={v}")),
            Read::Community(c) => ("GET", format!("/graphs/{GRAPH}/communities/{c}")),
            Read::Delta => ("GET", format!("/graphs/{GRAPH}/delta?since={since}")),
            Read::Full => ("GET", format!("/graphs/{GRAPH}/membership")),
        }
    }

    fn body(self) -> Option<&'static str> {
        (self == Read::DetectHit).then_some("{}")
    }
}

/// The read mix: 40% cache-hit detect, 40% one vertex's community, 15%
/// one community's members, 4% delta, 1% the full membership.
fn plan(count: usize, vertices: u32, communities: u32, seed: u32) -> Vec<Read> {
    let mut rng = Xorshift32::new(seed | 1);
    (0..count)
        .map(|_| match rng.next_bounded(100) {
            0..=39 => Read::DetectHit,
            40..=79 => Read::Vertex(rng.next_bounded(vertices)),
            80..=94 => Read::Community(rng.next_bounded(communities)),
            95..=98 => Read::Delta,
            _ => Read::Full,
        })
        .collect()
}

/// What each read must answer.
struct Expected {
    membership: Vec<u32>,
    full_body: String,
    community_bodies: Vec<String>,
    delta_body: String,
    epoch: u64,
}

impl Expected {
    fn judge(&self, read: Read, status: u16, body: &str) -> bool {
        status == 200
            && match read {
                Read::DetectHit => body.contains("\"cached\":true"),
                Read::Vertex(v) => {
                    check::vertex_community(body) == Ok(u64::from(self.membership[v as usize]))
                }
                Read::Community(c) => body == self.community_bodies[c as usize],
                Read::Delta => body == self.delta_body,
                Read::Full => body == self.full_body,
            }
    }
}

/// Runs the workload.
pub fn run(spec: &ReadSpec, opts: &RunOptions, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let (mut warm, setups, generates) =
        match warm_reps(&spec.graph, opts.seed, None, spec.setup_reps, tracer) {
            Ok(warmed) => warmed,
            Err(e) => {
                report.problem(e);
                return report;
            }
        };
    let checked = check::partition(&warm.graph, &warm.served.membership, spec.modularity_floor);
    report.attempted += 1;
    if let Some(problem) = checked.problem {
        report.fail(format!("served partition: {problem}"));
    }
    let communities = warm.served.membership.iter().max().map_or(0, |&c| c + 1);
    let mut expected = Expected {
        membership: warm.served.membership.clone(),
        full_body: warm.full_body.clone(),
        community_bodies: Vec::new(),
        delta_body: String::new(),
        epoch: warm.served.epoch,
    };
    let fetched = (0..communities)
        .map(|c| {
            warm.conn
                .expect("GET", &Read::Community(c).target(0).1, None, 200)
        })
        .collect::<Result<Vec<_>, _>>()
        .and_then(|bodies| {
            expected.community_bodies = bodies;
            warm.conn
                .expect("GET", &Read::Delta.target(expected.epoch).1, None, 200)
        });
    match fetched {
        Ok(body) => expected.delta_body = body,
        Err(e) => {
            report.problem(e);
            return report;
        }
    }
    report.note(format!(
        "graph: {} vertices, {} arcs, {communities} communities",
        warm.graph.num_vertices(),
        warm.graph.num_arcs()
    ));

    // Open loop, then closed loop, on the same connections.
    alloc_count::reset_watermarks();
    let addr = warm.addr();
    let per_conn_rate = spec.rate / CONNECTIONS as f64;
    let count = (per_conn_rate * opts.seconds).round() as usize;
    let plans: Vec<Vec<Read>> = (0..CONNECTIONS)
        .map(|c| {
            plan(
                count,
                warm.graph.num_vertices() as u32,
                communities,
                (opts.seed as u32) ^ (c as u32).wrapping_mul(0x9E37_79B9),
            )
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let closed_for = Duration::from_secs_f64(opts.seconds * CLOSED_SHARE);
    // The heap peak is read between the loops: the open loop serves a
    // fixed number of requests, the closed loop as many as it can, and
    // every cache-hit detect adds a record to the job table.
    let between = Barrier::new(CONNECTIONS + 1);
    let (results, peak) = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let (addr, expected, between) = (&addr, &expected, &between);
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut send = |i: usize| {
                        let read = plan[i % plan.len()];
                        let (method, target) = read.target(expected.epoch);
                        let request = (c * count + i) as u64;
                        tracer
                            .span("net.request", None, request, |_| {
                                conn.request(method, &target, read.body())
                            })
                            .is_ok_and(|(status, body)| expected.judge(read, status, &body))
                    };
                    // Connections interleave their schedules, so requests
                    // arrive evenly spaced at the total rate.
                    let first = start + Duration::from_secs_f64(c as f64 / spec.rate);
                    let samples = open_loop(first, per_conn_rate, plan.len(), &mut send);
                    between.wait();
                    between.wait();
                    let closed = closed_loop(Instant::now() + closed_for, plan.len(), &mut send);
                    let vertex_ms = samples
                        .iter()
                        .zip(plan)
                        .filter(|(_, r)| matches!(r, Read::Vertex(_)))
                        .map(|(s, _)| s.latency.as_secs_f64() * 1e3)
                        .collect();
                    (samples, closed, vertex_ms)
                })
            })
            .collect();
        between.wait();
        let peak = alloc_count::snapshot().peak;
        between.wait();
        let results: Vec<(Vec<Sample>, load::Closed, Vec<f64>)> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (results, peak)
    });

    let mut samples_ms = Vec::new();
    let mut all_samples = Vec::new();
    let (mut closed_ok, mut closed_elapsed) = (0, 0.0f64);
    let mut vertex_ms = Vec::new();
    for (samples, closed, vertex) in results {
        for s in &samples {
            report.attempted += 1;
            if !s.ok {
                report.fail("a read answered wrongly");
            }
            samples_ms.push(s.latency.as_secs_f64() * 1e3);
        }
        all_samples.extend(samples);
        report.attempted += closed.ok + closed.failed;
        for _ in 0..closed.failed {
            report.fail("a closed-loop read answered wrongly");
        }
        closed_ok += closed.ok;
        closed_elapsed = closed_elapsed.max(closed.elapsed.as_secs_f64());
        vertex_ms.extend(vertex);
    }

    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&setups));
    e2e.set("peak_heap_mb", peak as f64 / (1 << 20) as f64);
    report.end_to_end = e2e;

    let mut layers = Metrics::default();
    // The tail is taken per second of each connection's stream, so a
    // host stall confined to a second or two cannot decide it.
    let window = per_conn_rate.round() as usize;
    match latency(&samples_ms, count * CONNECTIONS)
        .and_then(|summary| Ok((summary, windowed_tail(&samples_ms, window)?)))
    {
        Ok((summary, (p, tail))) => {
            layers.set("op_ms_p50", summary.p50);
            layers.set("op_ms_tail", tail);
            report.note(format!(
                "op: read at {} req/s open loop, {} samples, quartiles {:.4?} ms; median over one-second windows of each window's p{p} {tail:.4} ms (p{} over the run: {:.4} ms)",
                spec.rate, summary.samples, summary.quartiles, summary.tail_percentile, summary.tail
            ));
        }
        Err(e) => report.problem(e),
    }
    let work_per_s = closed_ok as f64 / closed_elapsed;
    layers.set("work_per_s", work_per_s);
    layers.set("modularity", warm.served.modularity);
    report.note(format!(
        "closed loop: {work_per_s:.1} reads/s; served modularity {:.6}",
        warm.served.modularity
    ));
    report.note(load::lag_note(&all_samples));
    layers.set("generate.s", median(&generates));
    layers.set("quality.disconnected", checked.disconnected as f64);
    layers.set(
        "loadgen.late_frac",
        load::late_frac(&all_samples, Duration::from_millis(1)),
    );
    if tracer.enabled() {
        let idle_vertex_ms = probe(&warm, &mut report, spec.probes, tracer, &mut layers);
        layers.set("loadgen.read_slowdown", median(&vertex_ms) / idle_vertex_ms);
        replay(&warm.graph, spec.replays, tracer, &mut layers);
    }
    report.per_layer = layers;
    warm.server.stop();
    report
}

/// Times each read kind over HTTP and through `handlers::handle` in
/// process, and the layer calls the handlers make, filling the serve
/// layers' shares. Returns the HTTP p50 of a one-vertex read in ms.
pub(crate) fn probe(
    warm: &Warm,
    report: &mut Report,
    reps: usize,
    tracer: &Tracer,
    layers: &mut Metrics,
) -> f64 {
    let state = warm.state();
    let epoch = warm.served.epoch;
    let mut conn = Conn::new(&warm.addr());
    let mut http = |read: Read, i: usize| -> f64 {
        let (method, target) = read.target(epoch);
        let started = Instant::now();
        let answer = tracer.span("probe.http", None, i as u64, |_| {
            conn.request(method, &target, read.body())
        });
        let elapsed = started.elapsed().as_secs_f64();
        if !matches!(answer, Ok((200, _))) {
            report.problem(format!("probe {method} {target} failed: {answer:?}"));
        }
        elapsed
    };
    let handle = |read: Read, i: usize| -> f64 {
        let (method, target) = read.target(epoch);
        let (path, query) = target.split_once('?').unwrap_or((&target, ""));
        let request = gve_net::Request {
            method: method.to_string(),
            path: path.to_string(),
            query: gve_net::parse_query(query),
            headers: Vec::new(),
            body: read.body().unwrap_or("").as_bytes().to_vec(),
            keep_alive: true,
        };
        let started = Instant::now();
        tracer.span("handlers.handle", None, i as u64, |_| {
            gve_serve::handlers::handle(state, &request)
        });
        started.elapsed().as_secs_f64()
    };
    let reads = [
        ("detect_hit", Read::DetectHit),
        ("membership_vertex", Read::Vertex(1)),
        ("communities", Read::Community(0)),
        ("delta", Read::Delta),
        ("membership_full", Read::Full),
    ];
    let mut http_p50 = Vec::new();
    let mut handle_p50 = Vec::new();
    for (_, read) in reads {
        let (mut over_http, mut in_process) = (Vec::new(), Vec::new());
        for i in 0..reps {
            over_http.push(http(read, i));
            in_process.push(handle(read, i));
        }
        http_p50.push(median(&over_http));
        handle_p50.push(median(&in_process));
    }
    for (i, (name, _)) in reads.iter().enumerate() {
        if *name == "membership_vertex" {
            layers.set("net.overhead_share", 1.0 - handle_p50[i] / http_p50[i]);
        } else {
            layers.set(
                &format!("handlers.{name}_share"),
                handle_p50[i] / http_p50[i],
            );
        }
    }

    // The layer calls inside three of those handlers, as shares of the
    // handler's own time.
    let timed = |name: &'static str, f: &mut dyn FnMut()| {
        let mut seconds = Vec::new();
        for i in 0..reps {
            let started = Instant::now();
            tracer.span(name, None, i as u64, |_| f());
            seconds.push(started.elapsed().as_secs_f64());
        }
        median(&seconds)
    };
    let submit = timed("jobs.submit", &mut || {
        let _ = state
            .jobs
            .submit(GRAPH, gve_serve::jobs::DetectRequest::default());
    });
    layers.set("jobs.submit_hit_share", submit / handle_p50[0]);
    let latest = timed("cache.latest", &mut || {
        let _ = state.cache.latest(GRAPH);
    });
    layers.set("cache.latest_share", latest / handle_p50[1]);
    let since = timed("delta.since", &mut || {
        let _ = state.delta.since(GRAPH, epoch);
    });
    layers.set("delta.since_share", since / handle_p50[3]);
    let membership = &warm.served.membership;
    let render = timed("json.render", &mut || {
        let listed = Json::Arr(membership.iter().map(|&c| Json::from(c)).collect());
        let _ = Json::obj([("graph", Json::from(GRAPH)), ("membership", listed)]).render();
    });
    layers.set("json.render_membership_share", render / handle_p50[4]);
    http_p50[1] * 1e3
}

/// Replays the default detect on `graph` at two threads and one, for
/// the Leiden layer split behind a served partition.
pub(crate) fn replay(graph: &CsrGraph, runs: usize, tracer: &Tracer, layers: &mut Metrics) {
    let leiden = Leiden::new(LeidenConfig::default());
    let mut workspace = PassWorkspace::new();
    let mut log = PhaseLog::default();
    leiden.run_in(graph, &mut workspace);
    for i in 0..runs as u64 {
        for pool in [pool(2), pool(1)] {
            log.run(&leiden, graph, &mut workspace, &pool, tracer, i);
        }
    }
    log.fill(layers);
}
