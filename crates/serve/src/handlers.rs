//! HTTP route handlers.
//!
//! Stateless dispatch from a parsed [`Request`] to the service state:
//! registry for graph lifecycle, job engine for detection, partition
//! cache for reads, and `gve-dynamic` for update ingestion. Every
//! response body is JSON; errors come back as `{"error": "..."}` with a
//! meaningful status code.

use crate::cache::{CachedPartition, PartitionKey, PartitionOrigin};
use crate::delta::DeltaAnswer;
use crate::ingest::IngestOutcome;
use crate::jobs::{DetectRequest, JobState};
use crate::json::Json;
use crate::registry::{validate_name, GraphCell, GraphSource, RegistryError};
use crate::ServerState;
use gve_dynamic::{apply_batch, refresh_in, BatchUpdate, DynamicStrategy};
use gve_graph::{CsrGraph, GraphBuilder, VertexId};
use gve_leiden::Leiden;
use gve_net::{Request, Response};
use gve_obs::DEFAULT_LATENCY_BUCKETS;
use std::sync::{Arc, MutexGuard};
use std::time::Instant;

/// Largest community membership list returned inline.
const MAX_INLINE_VERTICES: usize = 100_000;

pub(crate) struct ApiError {
    pub(crate) status: u16,
    pub(crate) message: String,
}

impl ApiError {
    pub(crate) fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }

    fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, message)
    }
}

impl From<RegistryError> for ApiError {
    fn from(error: RegistryError) -> Self {
        let status = match error {
            RegistryError::AlreadyExists(_) => 409,
            RegistryError::NotFound(_) => 404,
            RegistryError::Load(_) => 400,
        };
        ApiError::new(status, error.to_string())
    }
}

fn ok(status: u16, body: Json) -> Response {
    Response::json(status, body.render())
}

/// Top-level dispatch. Never panics a connection thread: route errors
/// become JSON error responses. Every request lands one observation in
/// the per-endpoint latency histogram.
pub fn handle(state: &ServerState, request: &Request) -> Response {
    let started = Instant::now();
    let response = match route(state, request) {
        Ok(response) => response,
        Err(e) => ok(e.status, Json::obj([("error", Json::from(e.message))])),
    };
    let endpoint = endpoint_label(request.method.as_str(), &request.segments());
    state
        .metrics
        .histogram_or_register(
            "gve_http_request_seconds",
            "Request latency by endpoint.",
            &[("endpoint", endpoint)],
            DEFAULT_LATENCY_BUCKETS,
        )
        .observe_duration(started.elapsed());
    response
}

/// Coarse endpoint label for the latency histogram — route patterns,
/// not raw paths, so label cardinality stays bounded.
fn endpoint_label(method: &str, segments: &[&str]) -> &'static str {
    match (method, segments) {
        ("GET", []) | ("GET", ["healthz"]) => "healthz",
        ("GET", ["stats"]) => "stats",
        ("GET", ["metrics"]) => "metrics",
        ("GET", ["graphs"]) => "graphs_list",
        ("POST", ["graphs"]) => "graphs_register",
        ("GET", ["graphs", _]) => "graph_info",
        ("DELETE", ["graphs", _]) => "graph_remove",
        ("POST", ["graphs", _, "detect"]) => "detect",
        ("GET", ["graphs", _, "membership"]) => "membership",
        ("GET", ["graphs", _, "communities", _]) => "communities",
        ("POST", ["graphs", _, "updates"]) => "updates",
        ("GET", ["graphs", _, "delta"]) => "delta",
        ("GET", ["jobs", _]) => "job_status",
        ("POST", ["jobs", _, "cancel"]) => "job_cancel",
        _ => "unrouted",
    }
}

fn route(state: &ServerState, request: &Request) -> Result<Response, ApiError> {
    let segments = request.segments();
    let method = request.method.as_str();
    match (method, segments.as_slice()) {
        ("GET", []) | ("GET", ["healthz"]) => Ok(ok(
            200,
            Json::obj([
                ("status", Json::from("ok")),
                ("service", Json::from("gve-serve")),
            ]),
        )),
        ("GET", ["stats"]) => Ok(stats(state)),
        ("GET", ["metrics"]) => Ok(metrics(state)),
        ("GET", ["graphs"]) => Ok(list_graphs(state)),
        ("POST", ["graphs"]) => register_graph(state, request),
        ("GET", ["graphs", name]) => graph_info(state, name),
        ("DELETE", ["graphs", name]) => remove_graph(state, name),
        ("POST", ["graphs", name, "detect"]) => detect(state, name, request),
        ("GET", ["graphs", name, "membership"]) => membership(state, name, request),
        ("GET", ["graphs", name, "communities", community]) => communities(state, name, community),
        ("POST", ["graphs", name, "updates"]) => updates(state, name, request),
        ("GET", ["graphs", name, "delta"]) => delta(state, name, request),
        ("GET", ["jobs", id]) => job_status(state, id),
        ("POST", ["jobs", id, "cancel"]) => job_cancel(state, id),
        (_, _) => Err(ApiError::new(
            404,
            format!("no route for {method} {}", request.path),
        )),
    }
}

fn parse_body(request: &Request) -> Result<Json, ApiError> {
    let text = request
        .body_utf8()
        .map_err(|e| ApiError::new(e.status, e.message))?;
    if text.trim().is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    crate::json::parse(text).map_err(|e| ApiError::bad_request(format!("invalid JSON body: {e}")))
}

fn require_u64(body: &Json, field: &str) -> Result<u64, ApiError> {
    body.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| ApiError::bad_request(format!("missing numeric field '{field}'")))
}

fn optional_u64(body: &Json, field: &str, default: u64) -> u64 {
    body.get(field).and_then(Json::as_u64).unwrap_or(default)
}

fn optional_f64(body: &Json, field: &str, default: f64) -> f64 {
    body.get(field).and_then(Json::as_f64).unwrap_or(default)
}

// ---------------------------------------------------------------- graphs

fn graph_json(state: &ServerState, name: &str) -> Result<Json, ApiError> {
    let entry = state.registry.snapshot(name)?;
    let mut fields = vec![
        ("name".to_string(), Json::from(name)),
        ("epoch".to_string(), Json::from(entry.epoch)),
        (
            "vertices".to_string(),
            Json::from(entry.graph.num_vertices()),
        ),
        ("arcs".to_string(), Json::from(entry.graph.num_arcs())),
        ("source".to_string(), Json::from(entry.source.label())),
        (
            "batches_applied".to_string(),
            Json::from(entry.batches_applied),
        ),
    ];
    if let Some((key, partition)) = state.cache.latest(name) {
        fields.push((
            "latest_partition".to_string(),
            Json::obj([
                ("epoch", Json::from(key.epoch)),
                ("current", Json::from(key.epoch == entry.epoch)),
                ("num_communities", Json::from(partition.num_communities)),
                ("modularity", Json::from(partition.modularity)),
                ("origin", Json::from(partition.origin.label())),
            ]),
        ));
    }
    Ok(Json::Obj(fields))
}

fn list_graphs(state: &ServerState) -> Response {
    let graphs: Vec<Json> = state
        .registry
        .names()
        .iter()
        .filter_map(|name| graph_json(state, name).ok())
        .collect();
    ok(200, Json::obj([("graphs", Json::Arr(graphs))]))
}

fn graph_info(state: &ServerState, name: &str) -> Result<Response, ApiError> {
    Ok(ok(200, graph_json(state, name)?))
}

fn remove_graph(state: &ServerState, name: &str) -> Result<Response, ApiError> {
    if !state.registry.remove(name) {
        return Err(RegistryError::NotFound(name.to_string()).into());
    }
    state.cache.forget_graph(name);
    state.delta.forget(name);
    if let Some(durability) = &state.durability {
        if let Err(e) = durability.remove_graph(name) {
            eprintln!("gve-serve: failed to remove durable state for '{name}': {e}");
        }
    }
    Ok(ok(200, Json::obj([("removed", Json::from(name))])))
}

fn parse_vertex_id(value: &Json) -> Result<VertexId, ApiError> {
    let id = value
        .as_u64()
        .ok_or_else(|| ApiError::bad_request("vertex ids must be non-negative integers"))?;
    VertexId::try_from(id).map_err(|_| ApiError::bad_request(format!("vertex id {id} too large")))
}

fn parse_edge_list(edges: &Json) -> Result<Vec<(VertexId, VertexId, f32)>, ApiError> {
    let items = edges
        .as_array()
        .ok_or_else(|| ApiError::bad_request("'edges' must be an array of [u, v, w?]"))?;
    let mut parsed = Vec::with_capacity(items.len());
    for item in items {
        let parts = item
            .as_array()
            .ok_or_else(|| ApiError::bad_request("each edge must be [u, v] or [u, v, w]"))?;
        if parts.len() != 2 && parts.len() != 3 {
            return Err(ApiError::bad_request(
                "each edge must be [u, v] or [u, v, w]",
            ));
        }
        let u = parse_vertex_id(&parts[0])?;
        let v = parse_vertex_id(&parts[1])?;
        let w = parts.get(2).and_then(Json::as_f64).unwrap_or(1.0) as f32;
        parsed.push((u, v, w));
    }
    Ok(parsed)
}

/// A generator's vertex count (or side length) from `field`: the
/// samplers draw ids below it as a `VertexId`, so it must fit one.
fn generated_vertices(spec: &Json, field: &str) -> Result<usize, ApiError> {
    let count = require_u64(spec, field)?;
    if count > VertexId::MAX as u64 {
        return Err(ApiError::bad_request(format!(
            "'{field}' {count} exceeds {} vertices",
            VertexId::MAX
        )));
    }
    Ok(count as usize)
}

fn generate_graph(spec: &Json) -> Result<(CsrGraph, String), ApiError> {
    let class = spec
        .get("class")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("'generate' needs a 'class' field"))?;
    let seed = optional_u64(spec, "seed", 42);
    let graph = match class {
        "sbm" | "planted" => {
            let vertices = generated_vertices(spec, "vertices")?;
            let communities = optional_u64(spec, "communities", 10) as usize;
            let intra = optional_f64(spec, "intra_degree", 10.0);
            let inter = optional_f64(spec, "inter_degree", 1.0);
            gve_generate::PlantedPartition::new(vertices, communities, intra, inter)
                .seed(seed)
                .generate()
                .graph
        }
        "er" => {
            let vertices = generated_vertices(spec, "vertices")?;
            let edges = optional_u64(spec, "edges", (vertices as u64) * 8) as usize;
            gve_generate::er::erdos_renyi(vertices, edges, seed)
        }
        "ring" => {
            let cliques = optional_u64(spec, "cliques", 16) as usize;
            let clique_size = optional_u64(spec, "clique_size", 8) as usize;
            if cliques < 3 || clique_size < 3 {
                return Err(ApiError::bad_request(
                    "ring needs cliques >= 3 and clique_size >= 3",
                ));
            }
            gve_generate::ring_of_cliques(cliques, clique_size)
        }
        "grid" => {
            let width = generated_vertices(spec, "width")?;
            let height = generated_vertices(spec, "height")?;
            let avg_degree = optional_f64(spec, "avg_degree", 2.5);
            match width.checked_mul(height) {
                Some(0) => return Err(ApiError::bad_request("grid needs width * height > 0")),
                Some(n) if n <= VertexId::MAX as usize => {}
                _ => {
                    return Err(ApiError::bad_request(format!(
                        "grid width * height exceeds {} vertices",
                        VertexId::MAX
                    )))
                }
            }
            gve_generate::grid::road_grid(width, height, avg_degree, seed)
        }
        other => {
            return Err(ApiError::bad_request(format!(
                "unknown generator class '{other}' (sbm|er|ring|grid)"
            )))
        }
    };
    Ok((graph, class.to_string()))
}

fn register_graph(state: &ServerState, request: &Request) -> Result<Response, ApiError> {
    let body = parse_body(request)?;
    let name = body
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("missing 'name'"))?
        .to_string();
    validate_name(&name).map_err(ApiError::bad_request)?;

    if let Some(path) = body.get("path").and_then(Json::as_str) {
        state.registry.register_from_path(&name, path)?;
    } else if let Some(spec) = body.get("generate") {
        let (graph, class) = generate_graph(spec)?;
        state
            .registry
            .register(&name, graph, GraphSource::Generated(class))?;
    } else if let Some(edges) = body.get("edges") {
        let edges = parse_edge_list(edges)?;
        let max_endpoint = edges
            .iter()
            .map(|&(u, v, _)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0);
        let vertices =
            optional_u64(&body, "vertices", max_endpoint as u64).max(max_endpoint as u64);
        // Vertex ids run below the count, so it may reach one past the
        // largest `VertexId`, which is as far as the builder goes.
        if vertices > VertexId::MAX as u64 + 1 {
            return Err(ApiError::bad_request(format!(
                "'vertices' {vertices} exceeds {} vertices",
                VertexId::MAX as u64 + 1
            )));
        }
        let graph = GraphBuilder::from_edges(vertices as usize, &edges);
        state.registry.register(&name, graph, GraphSource::Inline)?;
    } else {
        return Err(ApiError::bad_request(
            "provide one of 'path', 'generate', or 'edges'",
        ));
    }
    if let Some(durability) = &state.durability {
        let entry = state.registry.snapshot(&name)?;
        if let Err(e) = durability.register_graph(&name, &entry.graph, &entry.source.label()) {
            // Roll back: a graph the server cannot persist must not be
            // half-registered in memory only when durability was asked for.
            state.registry.remove(&name);
            return Err(ApiError::new(
                500,
                format!("failed to persist graph '{name}': {e}"),
            ));
        }
    }
    Ok(ok(201, graph_json(state, &name)?))
}

// ---------------------------------------------------------------- detect

fn detect(state: &ServerState, name: &str, request: &Request) -> Result<Response, ApiError> {
    let body = parse_body(request)?;
    let detect_request = DetectRequest::from_json(&body).map_err(ApiError::bad_request)?;
    let record = state.jobs.submit(name, detect_request).map_err(|e| {
        match state.registry.snapshot(name) {
            Err(registry_error) => registry_error.into(),
            Ok(_) => ApiError::bad_request(e),
        }
    })?;
    let status = if record.cached { 200 } else { 202 };
    Ok(ok(status, record.to_json(&state.cache)))
}

fn job_status(state: &ServerState, id: &str) -> Result<Response, ApiError> {
    let id: u64 = id
        .parse()
        .map_err(|_| ApiError::bad_request("job ids are integers"))?;
    let record = state
        .jobs
        .job(id)
        .ok_or_else(|| ApiError::new(404, format!("job {id} not found")))?;
    Ok(ok(200, record.to_json(&state.cache)))
}

fn job_cancel(state: &ServerState, id: &str) -> Result<Response, ApiError> {
    let id: u64 = id
        .parse()
        .map_err(|_| ApiError::bad_request("job ids are integers"))?;
    let new_state = state
        .jobs
        .cancel(id)
        .ok_or_else(|| ApiError::new(404, format!("job {id} not found")))?;
    Ok(ok(
        200,
        Json::obj([
            ("id", Json::from(id)),
            ("state", Json::from(new_state.label())),
            ("cancelled", Json::from(new_state == JobState::Cancelled)),
        ]),
    ))
}

// ----------------------------------------------------------------- reads

/// The partition current at the graph's epoch. An update inserts its
/// refreshed partition, then publishes the new epoch, then evicts the
/// old partition; a reader whose epoch went stale between its two
/// lookups retries at the epoch now published.
fn latest_partition(
    state: &ServerState,
    name: &str,
) -> Result<(u64, Arc<CachedPartition>), ApiError> {
    let cell = state.registry.entry(name)?;
    let mut epoch = cell.lock().epoch;
    loop {
        if let Some(partition) = state.cache.current(name, epoch) {
            return Ok((epoch, partition));
        }
        let published = cell.lock().epoch;
        if published == epoch {
            break;
        }
        epoch = published;
    }
    Err(match state.cache.latest(name) {
        None => ApiError::new(
            404,
            format!("no partition computed for '{name}' yet — POST a detect job"),
        ),
        Some((key, _)) => ApiError::new(
            404,
            format!(
                "latest partition for '{name}' is for epoch {} but the graph is at {epoch} — rerun detect",
                key.epoch
            ),
        ),
    })
}

fn membership(state: &ServerState, name: &str, request: &Request) -> Result<Response, ApiError> {
    let (epoch, partition) = latest_partition(state, name)?;
    let mut fields = vec![
        ("graph".to_string(), Json::from(name)),
        ("epoch".to_string(), Json::from(epoch)),
        (
            "num_communities".to_string(),
            Json::from(partition.num_communities),
        ),
        ("modularity".to_string(), Json::from(partition.modularity)),
        ("origin".to_string(), Json::from(partition.origin.label())),
    ];
    match request.query_param("vertex") {
        Some(raw) => {
            let vertex: usize = raw
                .parse()
                .map_err(|_| ApiError::bad_request("'vertex' must be an integer"))?;
            let community = *partition.membership.get(vertex).ok_or_else(|| {
                ApiError::new(
                    404,
                    format!(
                        "vertex {vertex} out of range (graph has {})",
                        partition.membership.len()
                    ),
                )
            })?;
            fields.push(("vertex".to_string(), Json::from(vertex)));
            fields.push(("community".to_string(), Json::from(community)));
        }
        None => {
            if partition.membership.len() > MAX_INLINE_VERTICES {
                return Err(ApiError::bad_request(format!(
                    "membership has {} entries; query per-vertex with ?vertex=",
                    partition.membership.len()
                )));
            }
            fields.push((
                "membership".to_string(),
                Json::Arr(
                    partition
                        .membership
                        .iter()
                        .map(|&c| Json::from(c))
                        .collect(),
                ),
            ));
        }
    }
    Ok(ok(200, Json::Obj(fields)))
}

fn communities(state: &ServerState, name: &str, community: &str) -> Result<Response, ApiError> {
    let (epoch, partition) = latest_partition(state, name)?;
    let community: VertexId = community
        .parse()
        .map_err(|_| ApiError::bad_request("community ids are integers"))?;
    let members: Vec<usize> = partition
        .membership
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c == community)
        .map(|(v, _)| v)
        .collect();
    if members.is_empty() {
        return Err(ApiError::new(
            404,
            format!("community {community} is empty or unknown"),
        ));
    }
    let truncated = members.len() > MAX_INLINE_VERTICES;
    let listed: Vec<Json> = members
        .iter()
        .take(MAX_INLINE_VERTICES)
        .map(|&v| Json::from(v))
        .collect();
    Ok(ok(
        200,
        Json::obj([
            ("graph", Json::from(name)),
            ("epoch", Json::from(epoch)),
            ("community", Json::from(community)),
            ("size", Json::from(members.len())),
            ("vertices", Json::Arr(listed)),
            ("truncated", Json::from(truncated)),
        ]),
    ))
}

// --------------------------------------------------------------- updates

fn parse_batch(body: &Json) -> Result<BatchUpdate, ApiError> {
    let mut batch = BatchUpdate::new();
    if let Some(insertions) = body.get("insertions") {
        for (u, v, w) in parse_edge_list(insertions)? {
            batch.insert(u, v, w);
        }
    }
    if let Some(deletions) = body.get("deletions") {
        let items = deletions
            .as_array()
            .ok_or_else(|| ApiError::bad_request("'deletions' must be an array of [u, v]"))?;
        for item in items {
            let parts = item
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| ApiError::bad_request("each deletion must be [u, v]"))?;
            batch.delete(parse_vertex_id(&parts[0])?, parse_vertex_id(&parts[1])?);
        }
    }
    Ok(batch)
}

/// Routes an edge batch through the ingest queue: applied inline when
/// the graph is idle (200), deferred behind a busy graph (202), or
/// rejected at the queue's edit cap (429). An empty batch is a no-op
/// that reports the current epoch without bumping it or touching the
/// cache. `strategy` is a retired field: every refresh is Dynamic
/// Frontier, and a body that names it is accepted with the field
/// ignored, whatever its value.
fn updates(state: &ServerState, name: &str, request: &Request) -> Result<Response, ApiError> {
    let body = parse_body(request)?;
    let batch = parse_batch(&body)?;
    if batch.is_empty() {
        let cell = state.registry.entry(name)?;
        let epoch = cell.lock().epoch;
        return Ok(ok(
            200,
            Json::obj([
                ("graph", Json::from(name)),
                ("epoch", Json::from(epoch)),
                ("insertions", Json::from(0usize)),
                ("deletions", Json::from(0usize)),
                ("refreshed", Json::from(false)),
                ("noop", Json::from(true)),
            ]),
        ));
    }
    match state.ingest.submit(state, name, batch)? {
        IngestOutcome::Applied(body) => Ok(ok(200, body)),
        IngestOutcome::Deferred {
            queue_depth,
            queued_edits,
            coalesced,
        } => Ok(ok(
            202,
            Json::obj([
                ("graph", Json::from(name)),
                ("deferred", Json::from(true)),
                ("queue_depth", Json::from(queue_depth)),
                ("queued_edits", Json::from(queued_edits)),
                ("coalesced", Json::from(coalesced)),
            ]),
        )),
        IngestOutcome::Rejected { queued_edits } => Err(ApiError::new(
            429,
            format!("ingest queue full ({queued_edits} edits queued); retry later"),
        )),
    }
}

/// Applies an edge batch: bumps the graph epoch and, when a current
/// partition is cached, refreshes it with `gve-dynamic`'s Dynamic
/// Frontier instead of forcing clients to re-detect from scratch.
/// The caller holds the cell's update gate (witnessed by `_gate`), so
/// at most one apply per graph is in flight. Returns the JSON body the
/// synchronous 200 response carries.
pub(crate) fn apply_update(
    state: &ServerState,
    name: &str,
    cell: &GraphCell,
    _gate: &MutexGuard<'_, ()>,
    batch: &BatchUpdate,
) -> Result<Json, ApiError> {
    // Updates to one graph are serialized through the cell's update
    // gate, NOT by holding the entry lock across the apply: the entry
    // lock is taken only to snapshot the graph and to publish the
    // result, so readers — including the event-loop reactor's inline
    // handlers, which must never block — wait microseconds at most
    // even while a seconds-long incremental refresh is in flight.
    let (old_graph, old_epoch) = {
        let entry = cell.lock();
        (Arc::clone(&entry.graph), entry.epoch)
    };
    let new_epoch = old_epoch + 1;
    let seeded = state
        .cache
        .latest(name)
        .filter(|(key, _)| key.epoch == old_epoch)
        .map(|(_, partition)| partition);

    // The refresh borrows the registry's graph and the cached
    // membership, so the only new copy of the graph is the one it
    // returns.
    let started = Instant::now();
    let (new_graph, refreshed) = match &seeded {
        Some(partition) => {
            let config = partition
                .request
                .to_config()
                .map_err(ApiError::bad_request)?;
            // Incremental refreshes reuse the same pooled arenas as the
            // detection workers, so update batches stay allocation-free
            // on the Leiden hot path too.
            let mut workspace = state.jobs.workspaces().checkout();
            let alloc_before = gve_prim::alloc_count::snapshot();
            let (graph, result) = refresh_in(
                &Leiden::new(config),
                DynamicStrategy::DynamicFrontier,
                &old_graph,
                &partition.membership,
                batch,
                &mut workspace,
            )
            .map_err(ApiError::bad_request)?;
            state
                .jobs
                .stats
                .core_allocs
                .add(gve_prim::alloc_count::snapshot().allocs_since(&alloc_before));
            (graph, Some((result, partition.request.clone())))
        }
        None => (apply_batch(&old_graph, batch), None),
    };
    // Let the publish below free the old graph.
    drop(old_graph);
    let seconds = started.elapsed().as_secs_f64();
    let refreshed = refreshed.map(|(result, request)| {
        let modularity = gve_quality::modularity(&new_graph, &result.membership);
        let key = PartitionKey {
            graph: name.to_string(),
            epoch: new_epoch,
            fingerprint: request.fingerprint(),
        };
        let partition = CachedPartition {
            membership: Arc::new(result.membership),
            num_communities: result.num_communities,
            modularity,
            seconds,
            origin: PartitionOrigin::IncrementalRefresh,
            request,
        };
        (key, partition)
    });

    // Write-ahead ordering: the batch is made durable BEFORE the new
    // epoch or its partition is published. A crash after the fsync
    // replays the batch on restart; a crash before it leaves the old
    // epoch visible — either way memory and disk agree.
    if let Some(durability) = &state.durability {
        if let Err(e) = durability.append_batch(name, new_epoch, batch, &new_graph) {
            return Err(ApiError::new(
                500,
                format!("WAL append failed for '{name}': {e}"),
            ));
        }
    }

    // Publish order: the refreshed partition, then the epoch, then the
    // eviction of the old epoch's partitions. Readers look up the
    // partition at the epoch they read (`latest_partition`), so one that
    // reads either epoch finds its partition.
    let summary = refreshed
        .as_ref()
        .map(|(_, partition)| (partition.num_communities, partition.modularity));
    if let Some((key, partition)) = refreshed {
        state.cache.insert(key, partition);
    }
    let (vertices, arcs) = (new_graph.num_vertices(), new_graph.num_arcs());
    {
        let mut entry = cell.lock();
        entry.graph = Arc::new(new_graph);
        entry.epoch = new_epoch;
        entry.batches_applied += 1;
    }
    state.cache.evict_stale(name, new_epoch);

    state.updates.batches_applied.inc();
    state
        .updates
        .edges_inserted
        .add(batch.insertions.len() as u64);
    state
        .updates
        .edges_deleted
        .add(batch.deletions.len() as u64);

    let mut fields = vec![
        ("graph".to_string(), Json::from(name)),
        ("epoch".to_string(), Json::from(new_epoch)),
        ("vertices".to_string(), Json::from(vertices)),
        ("arcs".to_string(), Json::from(arcs)),
        ("insertions".to_string(), Json::from(batch.insertions.len())),
        ("deletions".to_string(), Json::from(batch.deletions.len())),
        ("seconds".to_string(), Json::from(seconds)),
    ];
    if let Some((num_communities, modularity)) = summary {
        state.updates.incremental_refreshes.inc();
        fields.push(("refreshed".to_string(), Json::from(true)));
        fields.push(("num_communities".to_string(), Json::from(num_communities)));
        fields.push(("modularity".to_string(), Json::from(modularity)));
    } else {
        fields.push(("refreshed".to_string(), Json::from(false)));
    }
    Ok(Json::Obj(fields))
}

// ----------------------------------------------------------------- delta

/// `GET /graphs/{name}/delta?since=E` — membership changes since epoch
/// `E`, or `resync: true` when `E` fell off the bounded delta ring.
fn delta(state: &ServerState, name: &str, request: &Request) -> Result<Response, ApiError> {
    let since: u64 = request
        .query_param("since")
        .ok_or_else(|| ApiError::bad_request("missing required query parameter 'since'"))?
        .parse()
        .map_err(|_| ApiError::bad_request("'since' must be a non-negative integer epoch"))?;
    // Distinguish "unknown graph" (404) from "no partition yet".
    state.registry.entry(name)?;
    match state.delta.since(name, since) {
        DeltaAnswer::NoPartition => Err(ApiError::new(
            404,
            format!("no partition has been published for graph '{name}'"),
        )),
        DeltaAnswer::UpToDate { epoch } => Ok(ok(
            200,
            Json::obj([
                ("graph", Json::from(name)),
                ("epoch", Json::from(epoch)),
                ("since", Json::from(since)),
                ("resync", Json::from(false)),
                ("changes", Json::Arr(Vec::new())),
            ]),
        )),
        DeltaAnswer::Changes { epoch, changes } => {
            let listed: Vec<Json> = changes
                .iter()
                .map(|&(v, community)| {
                    Json::Arr(vec![Json::from(v as usize), Json::from(community as usize)])
                })
                .collect();
            Ok(ok(
                200,
                Json::obj([
                    ("graph", Json::from(name)),
                    ("epoch", Json::from(epoch)),
                    ("since", Json::from(since)),
                    ("resync", Json::from(false)),
                    ("changes", Json::Arr(listed)),
                ]),
            ))
        }
        DeltaAnswer::Resync { epoch } => Ok(ok(
            200,
            Json::obj([
                ("graph", Json::from(name)),
                ("epoch", Json::from(epoch)),
                ("since", Json::from(since)),
                ("resync", Json::from(true)),
                ("changes", Json::Arr(Vec::new())),
            ]),
        )),
    }
}

// ----------------------------------------------------------------- stats

fn stats(state: &ServerState) -> Response {
    let graphs: Vec<Json> = state
        .registry
        .names()
        .iter()
        .filter_map(|name| graph_json(state, name).ok())
        .collect();
    let body = Json::obj([
        (
            "uptime_seconds",
            Json::from(state.started.elapsed().as_secs_f64()),
        ),
        ("graphs", Json::Arr(graphs)),
        (
            "jobs",
            Json::obj([
                ("submitted", Json::from(state.jobs.stats.submitted.get())),
                ("completed", Json::from(state.jobs.stats.completed.get())),
                ("failed", Json::from(state.jobs.stats.failed.get())),
                (
                    "full_detections",
                    Json::from(state.jobs.stats.full_detections.get()),
                ),
                (
                    "queue_depth",
                    Json::from(state.jobs.stats.queue_depth.get()),
                ),
                ("records", Json::from(state.jobs.len())),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("hits", Json::from(state.cache.stats.hits.get())),
                ("misses", Json::from(state.cache.stats.misses.get())),
                ("insertions", Json::from(state.cache.stats.insertions.get())),
                ("evictions", Json::from(state.cache.stats.evictions.get())),
                ("resident", Json::from(state.cache.len())),
            ]),
        ),
        (
            "updates",
            Json::obj([
                (
                    "batches_applied",
                    Json::from(state.updates.batches_applied.get()),
                ),
                (
                    "incremental_refreshes",
                    Json::from(state.updates.incremental_refreshes.get()),
                ),
                (
                    "edges_inserted",
                    Json::from(state.updates.edges_inserted.get()),
                ),
                (
                    "edges_deleted",
                    Json::from(state.updates.edges_deleted.get()),
                ),
            ]),
        ),
    ]);
    ok(200, body)
}

/// Prometheus text exposition (format 0.0.4) of every metric the
/// subsystems registered at boot, plus the per-endpoint latency
/// histograms `handle` creates on first use.
fn metrics(state: &ServerState) -> Response {
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: state.metrics.render().into_bytes(),
    }
}
