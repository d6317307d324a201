//! The write workload: edge-churn batches posted open-loop to a durable
//! server (WAL fsync on) while a second connection reads beside them,
//! then a closed loop for capacity, then cold boots on the same data.

use crate::load::{self, open_loop, Sample};
use crate::phases::{pool, PhaseLog};
use crate::serve::{boot, probe, warm_reps, Conn, SbmSpec, Warm, GRAPH};
use crate::stats::{latency, median};
use crate::trace::Tracer;
use crate::{check, Metrics, Report, RunOptions};
use gve_dynamic::{
    apply_batch, collect_windows, dynamic_frontier, BatchUpdate, ChurnStream, DynamicLeiden,
    DynamicStrategy,
};
use gve_graph::CsrGraph;
use gve_leiden::{LeidenConfig, PassWorkspace};
use gve_prim::{alloc_count, Xorshift32};
use gve_serve::cache::{CachedPartition, PartitionKey, PartitionOrigin};
use gve_serve::jobs::DetectRequest;
use gve_serve::wal::{DurabilityConfig, DurabilityStore};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stream time one batch covers.
pub const WINDOW_SECONDS: f64 = 0.5;
/// Open-loop reads per second on the second connection.
pub const READ_RATE: f64 = 200.0;
/// How long a read keeps retrying the stale-epoch 404 before the 404
/// stands as its answer. A refresh closes that window in tens of
/// milliseconds; a server that never publishes the partition of its
/// current epoch must fail the read, not hang the run.
const STALE_DEADLINE: Duration = Duration::from_secs(2);

/// The churn workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// The served graph.
    pub graph: SbmSpec,
    /// `ChurnStream` insertions per second of stream time.
    pub insert_rate: f64,
    /// `ChurnStream` deletions per second of stream time.
    pub delete_rate: f64,
    /// Open-loop batches per second.
    pub batch_rate: f64,
    /// Batches posted back to back after the open loop.
    pub closed_batches: usize,
    /// The full membership is fetched this many batches before the
    /// end; the final delta must rebuild the final membership from it.
    pub delta_depth: usize,
    /// Cold boots timed on the data directory after the stop.
    pub cold_boots: usize,
    /// Set-ups timed for `setup_s`.
    pub setup_reps: usize,
    /// Batches the traced run replays on a private detector and WAL.
    pub replay_batches: usize,
    /// Probes per request kind in the traced run.
    pub probes: usize,
    /// Lowest modularity the final partition may have.
    pub modularity_floor: f64,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        Self {
            graph: SbmSpec::default(),
            insert_rate: 400.0,
            delete_rate: 100.0,
            batch_rate: 10.0,
            closed_batches: 100,
            delta_depth: 8,
            cold_boots: 5,
            setup_reps: 9,
            replay_batches: 40,
            probes: 200,
            modularity_floor: 0.54,
        }
    }
}

/// `POST /graphs/{name}/updates` body of one batch.
fn batch_body(batch: &BatchUpdate) -> String {
    let mut body = String::with_capacity(batch.len() * 16 + 64);
    body.push_str("{\"strategy\":\"dynamic-frontier\",\"insertions\":[");
    for (i, &(u, v, w)) in batch.insertions.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(body, "{sep}[{u},{v},{w}]");
    }
    body.push_str("],\"deletions\":[");
    for (i, &(u, v)) in batch.deletions.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(body, "{sep}[{u},{v}]");
    }
    body.push_str("]}");
    body
}

/// Reads `target` until the answer is not the 404 a read meets between
/// the registry publishing a new epoch and the cache publishing that
/// epoch's refreshed partition, retrying every 0.2 ms for up to
/// [`STALE_DEADLINE`]. Returns the last answer and whether it met that
/// 404.
fn read_fresh(conn: &mut Conn, target: &str) -> (Result<(u16, String), String>, bool) {
    let deadline = Instant::now() + STALE_DEADLINE;
    let mut stale = false;
    loop {
        match conn.request("GET", target, None) {
            Ok((404, body)) if body.contains("rerun detect") && Instant::now() < deadline => {
                stale = true;
                std::thread::sleep(Duration::from_micros(200));
            }
            answer => return (answer, stale),
        }
    }
}

fn updates_target() -> String {
    format!("/graphs/{GRAPH}/updates")
}

fn membership(conn: &mut Conn) -> Result<check::Served, String> {
    match read_fresh(conn, &format!("/graphs/{GRAPH}/membership")).0? {
        (200, body) => check::served(&body),
        (status, body) => Err(format!("membership answered {status}: {body}")),
    }
}

/// The open loop's outcome.
struct Open {
    updates: Vec<Sample>,
    statuses: Vec<u16>,
    reads: Vec<Sample>,
    vertex_ms: Vec<f64>,
    stale_reads: u64,
}

/// Batches on one connection and reads on another, both open loop.
fn open_phase(
    spec: &ChurnSpec,
    warm: &Warm,
    bodies: &[String],
    seed: u64,
    reads: usize,
    tracer: &Tracer,
) -> Open {
    let addr = warm.addr();
    let vertices = warm.graph.num_vertices() as u32;
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut conn = Conn::new(&addr);
            let mut statuses = Vec::with_capacity(bodies.len());
            let samples = open_loop(start, spec.batch_rate, bodies.len(), |i| {
                let answer = tracer.span("net.request", None, i as u64, |_| {
                    conn.request("POST", &updates_target(), Some(&bodies[i]))
                });
                let status = answer.map_or(0, |(status, _)| status);
                statuses.push(status);
                status == 200 || status == 202
            });
            (samples, statuses)
        });
        let reader = scope.spawn(|| {
            let mut conn = Conn::new(&addr);
            let mut rng = Xorshift32::new((seed as u32) | 1);
            let (mut since, mut stale_reads) = (warm.served.epoch, 0);
            let mut vertex = Vec::new();
            let samples = open_loop(start, READ_RATE, reads, |i| {
                let request = (bodies.len() + i) as u64;
                if i % 2 == 0 {
                    let target = format!(
                        "/graphs/{GRAPH}/membership?vertex={}",
                        rng.next_bounded(vertices)
                    );
                    let (answer, stale) = tracer.span("net.request", None, request, |_| {
                        read_fresh(&mut conn, &target)
                    });
                    stale_reads += u64::from(stale);
                    vertex.push(i);
                    answer.is_ok_and(|(status, body)| {
                        status == 200
                            && check::vertex_community(&body).is_ok_and(|c| c < u64::from(vertices))
                    })
                } else {
                    let target = format!("/graphs/{GRAPH}/delta?since={since}");
                    let answer = tracer.span("net.request", None, request, |_| {
                        conn.request("GET", &target, None)
                    });
                    match answer.map(|(status, body)| (status, check::delta(&body))) {
                        Ok((200, Ok(delta))) => {
                            since = delta.epoch;
                            true
                        }
                        _ => false,
                    }
                }
            });
            let vertex_ms = vertex
                .iter()
                .map(|&i| samples[i].latency.as_secs_f64() * 1e3)
                .collect();
            (samples, vertex_ms, stale_reads)
        });
        let (updates, statuses) = writer.join().expect("writer thread panicked");
        let (reads, vertex_ms, stale_reads) = reader.join().expect("reader thread panicked");
        Open {
            updates,
            statuses,
            reads,
            vertex_ms,
            stale_reads,
        }
    })
}

/// Waits until no batch is queued or being applied.
fn drain(state: &gve_serve::ServerState) -> Result<(), String> {
    if !state.ingest.wait_idle(Duration::from_secs(60)) {
        return Err("the ingest queue did not drain".into());
    }
    let cell = state.registry.entry(GRAPH).map_err(|e| e.to_string())?;
    drop(cell.begin_update());
    Ok(())
}

/// Runs the workload.
pub fn run(spec: &ChurnSpec, opts: &RunOptions, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let data_dir = opts.work_dir.join("churn");
    let (warm, setups, generates) = match warm_reps(
        &spec.graph,
        opts.seed,
        Some(&data_dir),
        spec.setup_reps,
        tracer,
    ) {
        Ok(warmed) => warmed,
        Err(e) => {
            report.problem(e);
            return report;
        }
    };
    let open_batches = (spec.batch_rate * opts.seconds).round() as usize;
    let reads = (READ_RATE * opts.seconds).round() as usize;
    let stream = ChurnStream::new(&warm.graph, spec.insert_rate, spec.delete_rate, opts.seed);
    let windows = collect_windows(stream, WINDOW_SECONDS, open_batches + spec.closed_batches);
    let bodies: Vec<String> = windows.iter().map(batch_body).collect();
    report.note(format!(
        "graph: {} vertices, {} arcs; {} edits per batch on average",
        warm.graph.num_vertices(),
        warm.graph.num_arcs(),
        windows.iter().map(BatchUpdate::len).sum::<usize>() / windows.len()
    ));

    alloc_count::reset_watermarks();
    let state = warm.state();
    let coalesced_before = state.ingest.stats.coalesced.get();
    let open = open_phase(
        spec,
        &warm,
        &bodies[..open_batches],
        opts.seed,
        reads,
        tracer,
    );
    for s in open.updates.iter().chain(&open.reads) {
        report.attempted += 1;
        if !s.ok {
            report.fail("an open-loop request answered wrongly");
        }
    }

    let mut conn = Conn::new(&warm.addr());
    let mut statuses = open.statuses.clone();
    let closed_start = Instant::now();
    let (closed_edits, base) = closed_phase(
        spec,
        &mut conn,
        &windows[open_batches..],
        &bodies[open_batches..],
        &mut statuses,
        &mut report,
    );
    if let Err(e) = drain(state) {
        report.problem(e);
    }
    let closed_s = closed_start.elapsed().as_secs_f64();
    let peak = alloc_count::snapshot().peak;
    let coalesced = state.ingest.stats.coalesced.get() - coalesced_before;

    let last = membership(&mut conn);
    let disconnected = check_final(spec, state, &mut conn, base, &last, &mut report);
    let mut layers = Metrics::default();
    if tracer.enabled() {
        let idle_vertex_ms = probe(&warm, &mut report, spec.probes, tracer, &mut layers);
        layers.set(
            "loadgen.read_slowdown",
            median(&open.vertex_ms) / idle_vertex_ms,
        );
    }
    drop(warm.server);

    // The traced run also times the store's recovery alone, as a share
    // of a cold boot.
    let recover_s = tracer.enabled().then(|| {
        let started = Instant::now();
        let recovered = tracer.span("wal.recover", None, 0, |_| {
            DurabilityStore::open(DurabilityConfig::new(&data_dir)).and_then(|s| s.recover())
        });
        if let Err(e) = recovered {
            report.problem(format!("recovering the data directory: {e}"));
        }
        started.elapsed().as_secs_f64()
    });
    let boots = cold_boots(spec.cold_boots, &data_dir, &last, tracer, &mut report);

    let update_ms: Vec<f64> = open
        .updates
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    let read_ms: Vec<f64> = open
        .reads
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&setups));
    e2e.set("peak_heap_mb", peak as f64 / (1 << 20) as f64);
    report.end_to_end = e2e;

    let mut update_p50_s = f64::NAN;
    match latency(&update_ms, open_batches) {
        Ok(summary) => {
            update_p50_s = summary.p50 / 1e3;
            layers.set("op_ms_p50", summary.p50);
            layers.set("op_ms_tail", summary.tail);
            report.note(format!(
                "op: update ack at {} batches/s open loop, {} samples, quartiles {:.3?} ms, p{} {:.3} ms",
                spec.batch_rate,
                summary.samples,
                summary.quartiles,
                summary.tail_percentile,
                summary.tail
            ));
        }
        Err(e) => report.problem(e),
    }
    let work_per_s = closed_edits as f64 / closed_s;
    let modularity = last.as_ref().map_or(f64::NAN, |s| s.modularity);
    layers.set("work_per_s", work_per_s);
    layers.set("modularity", modularity);
    report.note(format!(
        "closed loop: {work_per_s:.1} edits/s until drained; final modularity {modularity:.6}"
    ));
    report.note(format!(
        "reads beside the writes: p50 {:.4} ms over {} reads; {} met a stale 404 and retried",
        median(&read_ms),
        read_ms.len(),
        open.stale_reads
    ));
    report.note(load::lag_note(&open.updates));
    report.note(load::lag_note(&open.reads));
    report.note(format!(
        "cold boot (recovery): median {:.4} s over {} boots",
        median(&boots),
        boots.len()
    ));

    let posts = statuses.len() as f64;
    layers.set("generate.s", median(&generates));
    layers.set("quality.disconnected", disconnected as f64);
    layers.set("handlers.stale_reads", open.stale_reads as f64);
    layers.set(
        "ingest.deferred_frac",
        statuses.iter().filter(|&&s| s == 202).count() as f64 / posts,
    );
    layers.set("ingest.coalesced_frac", coalesced as f64 / posts);
    layers.set(
        "ingest.rejected",
        statuses.iter().filter(|&&s| s == 429).count() as f64,
    );
    let all: Vec<Sample> = open.updates.iter().chain(&open.reads).copied().collect();
    layers.set(
        "loadgen.late_frac",
        load::late_frac(&all, Duration::from_millis(1)),
    );
    if let Some(recover_s) = recover_s {
        layers.set("wal.recover_share", recover_s / median(&boots));
        let batches = &windows[..spec.replay_batches.min(windows.len())];
        match replay(
            &warm.graph,
            &warm.served,
            batches,
            &bodies,
            &opts.work_dir,
            tracer,
        ) {
            Ok(replayed) => replayed.fill(&mut layers, update_p50_s),
            Err(e) => report.problem(format!("replay: {e}")),
        }
    }
    report.per_layer = layers;
    let _ = std::fs::remove_dir_all(&data_dir);
    report
}

/// Posts the closed-loop batches back to back on `conn`. The full
/// membership fetched `delta_depth` batches before the end is returned
/// as the delta check's base, with the edits acknowledged.
fn closed_phase(
    spec: &ChurnSpec,
    conn: &mut Conn,
    windows: &[BatchUpdate],
    bodies: &[String],
    statuses: &mut Vec<u16>,
    report: &mut Report,
) -> (usize, Option<Result<check::Served, String>>) {
    let (mut edits, mut base) = (0, None);
    for (j, (window, body)) in windows.iter().zip(bodies).enumerate() {
        if j + spec.delta_depth == spec.closed_batches {
            base = Some(membership(conn));
        }
        report.attempted += 1;
        let status = conn
            .request("POST", &updates_target(), Some(body))
            .map_or(0, |(status, _)| status);
        statuses.push(status);
        if status == 200 || status == 202 {
            edits += window.len();
        } else {
            report.fail(format!("closed-loop batch {j} answered {status}"));
        }
    }
    (edits, base)
}

/// Checks that the final membership is the base plus the delta since
/// it, that the base lies within the last 16 epochs, and that the final
/// membership is a connected partition of the final graph above the
/// floor: three operations, each failing at most once. Returns the
/// disconnected communities found.
fn check_final(
    spec: &ChurnSpec,
    state: &gve_serve::ServerState,
    conn: &mut Conn,
    base: Option<Result<check::Served, String>>,
    last: &Result<check::Served, String>,
    report: &mut Report,
) -> usize {
    report.attempted += 3;
    let (base, last) = match (base, last) {
        (Some(Ok(base)), Ok(last)) => (base, last),
        (base, last) => {
            report.fail(format!(
                "cannot fetch the memberships: base {:?}, final {:?}",
                base.map(|b| b.map(|s| s.epoch)),
                last.as_ref().map(|s| s.epoch)
            ));
            return 0;
        }
    };
    let delta = conn
        .expect(
            "GET",
            &format!("/graphs/{GRAPH}/delta?since={}", base.epoch),
            None,
            200,
        )
        .and_then(|body| check::delta(&body))
        .and_then(|delta| check::delta_rebuilds(&base.membership, &delta, last));
    if let Err(e) = delta {
        report.fail(format!("delta since epoch {}: {e}", base.epoch));
    }
    if last.epoch > base.epoch + 16 {
        report.fail(format!(
            "base epoch {} is not among the last 16 of {}",
            base.epoch, last.epoch
        ));
    }
    match state.registry.snapshot(GRAPH) {
        Ok(entry) => {
            let checked = check::partition(&entry.graph, &last.membership, spec.modularity_floor);
            if let Some(problem) = checked.problem {
                report.fail(format!("final partition: {problem}"));
            }
            checked.disconnected
        }
        Err(e) => {
            report.fail(e.to_string());
            0
        }
    }
}

/// Boots a server on `data_dir` `count` times; each boot must recover
/// the epoch and membership served before the stop. Returns the boot
/// times in seconds.
fn cold_boots(
    count: usize,
    data_dir: &Path,
    last: &Result<check::Served, String>,
    tracer: &Tracer,
    report: &mut Report,
) -> Vec<f64> {
    let mut boots = Vec::new();
    for _ in 0..count {
        report.attempted += 1;
        let started = Instant::now();
        let server = match tracer.span("serve.cold_boot", None, 0, |_| boot(Some(data_dir))) {
            Ok(server) => server,
            Err(e) => {
                report.fail(e);
                continue;
            }
        };
        boots.push(started.elapsed().as_secs_f64());
        check_recovered(&format!("127.0.0.1:{}", server.port()), last, report);
        server.stop();
    }
    boots
}

/// Fails one operation unless the server at `addr` serves `last`.
fn check_recovered(addr: &str, last: &Result<check::Served, String>, report: &mut Report) {
    let recovered = membership(&mut Conn::new(addr));
    match (&recovered, last) {
        (Ok(got), Ok(want)) if got == want => {}
        _ => report.fail(format!(
            "a cold boot recovered {:?}, expected epoch {:?}",
            recovered.map(|s| s.epoch),
            last.as_ref().map(|s| s.epoch)
        )),
    }
}

/// Medians of the write path's layers, from private replays.
struct Replayed {
    log: PhaseLog,
    apply_s: f64,
    refresh_s: f64,
    frontier: f64,
    parse_s: f64,
    wal_batch_s: f64,
    wal_partition_s: f64,
}

impl Replayed {
    /// Fills the write path's shares of the update's median ack.
    fn fill(&self, layers: &mut Metrics, update_s: f64) {
        self.log.fill(layers);
        layers.set("dynamic.apply_batch_share", self.apply_s / update_s);
        layers.set("dynamic.refresh_share", self.refresh_s / update_s);
        layers.set("dynamic.frontier_frac", self.frontier);
        layers.set("json.parse_update_share", self.parse_s / update_s);
        layers.set("wal.append_batch_share", self.wal_batch_s / update_s);
        layers.set(
            "wal.append_partition_share",
            self.wal_partition_s / update_s,
        );
    }
}

/// Replays `batches` from the warmed state on a private detector (at two
/// threads, and one for the speedups), through the JSON parser, and into
/// a private store with fsync on, timing each layer call.
fn replay(
    graph: &CsrGraph,
    served: &check::Served,
    batches: &[BatchUpdate],
    bodies: &[String],
    work_dir: &Path,
    tracer: &Tracer,
) -> Result<Replayed, String> {
    let mut log = PhaseLog::default();
    let (mut apply_s, mut refresh_s, mut frontier) = (Vec::new(), Vec::new(), Vec::new());
    for threads in [2, 1] {
        let pool = pool(threads);
        let mut detector = DynamicLeiden::from_state(
            graph.clone(),
            served.membership.clone(),
            LeidenConfig::default(),
            DynamicStrategy::DynamicFrontier,
        )?;
        let mut workspace = PassWorkspace::new();
        for (i, batch) in batches.iter().enumerate() {
            let started = Instant::now();
            let updated = tracer.span("dynamic.apply_batch", None, i as u64, |_| {
                apply_batch(detector.graph(), batch)
            });
            let applied = started.elapsed();
            let touched = dynamic_frontier(&updated, detector.membership(), batch).len();
            drop(updated);
            let before = alloc_count::snapshot();
            let started = Instant::now();
            let result = tracer.span("dynamic.apply_in", None, i as u64, |_| {
                pool.install(|| detector.apply_in(batch, &mut workspace))
            });
            let refresh = started.elapsed().saturating_sub(applied);
            let after = alloc_count::snapshot();
            let arcs = detector.graph().num_arcs();
            let allocs = (after.allocs_since(&before), after.bytes_since(&before));
            log.push(threads, refresh, arcs, &result, allocs);
            if threads > 1 {
                apply_s.push(applied.as_secs_f64());
                refresh_s.push(refresh.as_secs_f64());
                frontier.push(touched as f64 / detector.graph().num_vertices() as f64);
            }
        }
    }

    let mut parse_s = Vec::new();
    for (i, body) in bodies[..batches.len()].iter().enumerate() {
        let started = Instant::now();
        tracer
            .span("json.parse", None, i as u64, |_| {
                gve_serve::json::parse(body)
            })
            .map_err(|e| format!("batch body {i}: {e}"))?;
        parse_s.push(started.elapsed().as_secs_f64());
    }

    let root = work_dir.join("wal-replay");
    let (wal_batch_s, wal_partition_s) = wal_replay(graph, served, batches, &root, tracer)
        .map_err(|e| format!("private WAL: {e}"))?;
    let _ = std::fs::remove_dir_all(&root);
    Ok(Replayed {
        log,
        apply_s: median(&apply_s),
        refresh_s: median(&refresh_s),
        frontier: median(&frontier),
        parse_s: median(&parse_s),
        wal_batch_s,
        wal_partition_s,
    })
}

/// Appends each batch and a partition record after it to a fresh store
/// under `root`; returns the median append times in seconds.
fn wal_replay(
    graph: &CsrGraph,
    served: &check::Served,
    batches: &[BatchUpdate],
    root: &Path,
    tracer: &Tracer,
) -> std::io::Result<(f64, f64)> {
    let _ = std::fs::remove_dir_all(root);
    let store = DurabilityStore::open(DurabilityConfig::new(root))?;
    store.register_graph(GRAPH, graph, "sbm")?;
    let request = DetectRequest::default();
    let partition = CachedPartition {
        membership: Arc::new(served.membership.clone()),
        num_communities: served
            .membership
            .iter()
            .max()
            .map_or(0, |&c| c as usize + 1),
        modularity: served.modularity,
        seconds: 0.0,
        origin: PartitionOrigin::IncrementalRefresh,
        request: request.clone(),
    };
    let (mut batch_s, mut partition_s) = (Vec::new(), Vec::new());
    let mut current = graph.clone();
    for (i, batch) in batches.iter().enumerate() {
        current = apply_batch(&current, batch);
        let epoch = i as u64 + 1;
        let started = Instant::now();
        tracer.span("wal.append_batch", None, epoch, |_| {
            store.append_batch(GRAPH, epoch, batch, &current)
        })?;
        batch_s.push(started.elapsed().as_secs_f64());
        let key = PartitionKey {
            graph: GRAPH.to_string(),
            epoch,
            fingerprint: request.fingerprint(),
        };
        let started = Instant::now();
        tracer.span("wal.append_partition", None, epoch, |_| {
            store.append_partition(&key, &partition)
        })?;
        partition_s.push(started.elapsed().as_secs_f64());
    }
    Ok((median(&batch_s), median(&partition_s)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gve_net::{EventLoopServer, NetOptions, Response};

    /// A cold boot that recovers a newer epoch than its newest logged
    /// partition answers every membership read with the stale-epoch 404.
    /// The recovery check gives up after the deadline and fails the run
    /// instead of retrying forever.
    #[test]
    fn a_partition_that_never_arrives_fails_the_run() {
        let server = EventLoopServer::start("127.0.0.1:0", NetOptions::default(), |_| {
            Response::json(
                404,
                r#"{"error":"latest partition for 'ledger' is for epoch 3 but the graph is at 4 — rerun detect"}"#,
            )
        })
        .expect("start stub server");
        let addr = format!("127.0.0.1:{}", server.port());
        let want = Ok(check::Served {
            epoch: 4,
            membership: vec![0, 0, 1],
            modularity: 0.5,
        });

        let mut report = Report::default();
        report.attempted += 1;
        let started = Instant::now();
        check_recovered(&addr, &want, &mut report);
        let waited = started.elapsed();
        let (answer, stale) = read_fresh(&mut Conn::new(&addr), "/graphs/ledger/membership");
        server.stop();

        assert!(
            waited >= STALE_DEADLINE && waited < 3 * STALE_DEADLINE,
            "{waited:?}"
        );
        assert!(!report.correct());
        assert_eq!((report.attempted, report.failed), (1, 1));
        assert!(stale);
        assert!(matches!(answer, Ok((404, _))), "{answer:?}");
    }
}
