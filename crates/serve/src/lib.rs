//! `gve-serve`: a resident community-detection service.
//!
//! The batch CLI answers one question per process: load a graph, run
//! GVE-Leiden, print. This crate keeps the expensive state *resident*
//! instead — graphs stay loaded, partitions stay cached, and edge
//! updates are folded in incrementally through `gve-dynamic` — behind a
//! deliberately dependency-free HTTP/1.1 + JSON surface served by the
//! `gve-net` event loop:
//!
//! * [`registry`] — named graphs held as `Arc<CsrGraph>` snapshots with
//!   a monotone **epoch** bumped on every update batch;
//! * [`jobs`] — asynchronous detection: submit, poll, cancel, with a
//!   worker pool doing the computing;
//! * [`cache`] — partitions memoized by `(graph, epoch, config
//!   fingerprint)`; identical requests are instant cache hits;
//! * [`handlers`] — the routes, from a [`gve_net::Request`] to a
//!   [`gve_net::Response`] whose body is rendered through [`json`] (the
//!   shared `gve_obs::json` codec).
//!
//! [`Server`] runs the handlers behind the `gve-net` reactor, which is
//! `cfg(unix)`: serving needs a unix target. [`ServerState`] and
//! [`handlers::handle`] stay portable, so in-process callers work on
//! any target.
//!
//! Every subsystem registers its counters, gauges, and histograms with
//! one `gve_obs::MetricsRegistry`, served in Prometheus text format at
//! `GET /metrics` (the JSON `/stats` endpoint reads the same handles).
//!
//! ```no_run
//! let server = gve_serve::Server::start(&gve_serve::ServeConfig::default()).unwrap();
//! println!("listening on 127.0.0.1:{}", server.port());
//! server.join();
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod cache;
pub mod delta;
pub mod handlers;
pub mod ingest;
pub mod jobs;
pub mod pool;
pub mod registry;
pub mod wal;

pub use gve_net::client_request;
pub use gve_obs::json;
pub use pool::{PooledWorkspace, WorkspacePool};

use cache::PartitionCache;
use delta::DeltaRing;
use gve_obs::{Counter, MetricsRegistry};
use ingest::IngestQueue;
use jobs::JobEngine;
use registry::{GraphRegistry, GraphSource};
use std::sync::Arc;
#[cfg(unix)]
use std::sync::{Condvar, Mutex};
use std::time::Instant;
use wal::{DurabilityConfig, DurabilityStore};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Detection worker threads.
    pub workers: usize,
    /// Concurrent connection cap (further connections get 503).
    pub max_connections: usize,
    /// Directory for the write-ahead log + snapshots. `None` (default)
    /// keeps the server memory-only; `Some` makes registered graphs,
    /// applied batches, and published partitions survive restarts.
    pub data_dir: Option<String>,
    /// WAL records between snapshot compactions (per graph).
    pub snapshot_every: usize,
    /// fsync the WAL after every appended record. Turning this off
    /// trades the durability of the latest acked batches for latency.
    pub fsync_wal: bool,
    /// Cap on edits queued in the ingest queue, summed over all graphs
    /// (429 past it).
    pub ingest_max_queued_edits: usize,
    /// Membership deltas retained per graph for `GET .../delta`.
    pub delta_capacity: usize,
}

/// Default cap on concurrently open connections.
const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// Largest request body the event-loop inline fast path will handle on
/// the reactor thread; bigger bodies route to the worker pool so their
/// JSON parse cannot stall unrelated connections.
#[cfg(unix)]
const MAX_INLINE_BODY_BYTES: usize = 4 << 10;

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7461".to_string(),
            workers: 2,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            data_dir: None,
            snapshot_every: 64,
            fsync_wal: true,
            ingest_max_queued_edits: 1 << 20,
            delta_capacity: 32,
        }
    }
}

/// Counters for the dynamic-update path, exported through `/stats` and
/// `/metrics`.
#[derive(Debug, Clone, Default)]
pub struct UpdateStats {
    /// Edge batches applied.
    pub batches_applied: Counter,
    /// Batches that also refreshed a cached partition incrementally.
    pub incremental_refreshes: Counter,
    /// Total edge insertions ingested.
    pub edges_inserted: Counter,
    /// Total edge deletions ingested.
    pub edges_deleted: Counter,
}

impl UpdateStats {
    /// Registers the counters with `registry` under `gve_updates_*`.
    pub fn attach_to(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "gve_updates_batches_total",
            "Dynamic edge batches applied.",
            &[],
            &self.batches_applied,
        );
        registry.register_counter(
            "gve_updates_incremental_refreshes_total",
            "Update batches that refreshed a cached partition incrementally.",
            &[],
            &self.incremental_refreshes,
        );
        registry.register_counter(
            "gve_updates_edges_inserted_total",
            "Edge insertions ingested through update batches.",
            &[],
            &self.edges_inserted,
        );
        registry.register_counter(
            "gve_updates_edges_deleted_total",
            "Edge deletions ingested through update batches.",
            &[],
            &self.edges_deleted,
        );
    }
}

/// Shared state behind every request handler.
pub struct ServerState {
    /// Named graphs.
    pub registry: Arc<GraphRegistry>,
    /// Memoized partitions.
    pub cache: Arc<PartitionCache>,
    /// Detection job engine.
    pub jobs: JobEngine,
    /// Bounded coalescing queue in front of the update path.
    pub ingest: IngestQueue,
    /// Per-epoch membership diffs for `GET .../delta`.
    pub delta: Arc<DeltaRing>,
    /// WAL + snapshot store; `None` when running memory-only.
    pub durability: Option<Arc<DurabilityStore>>,
    /// Update-path counters.
    pub updates: UpdateStats,
    /// Every subsystem's metric handles, rendered by `GET /metrics`.
    pub metrics: MetricsRegistry,
    /// Server start time (for `/stats` uptime).
    pub started: Instant,
}

impl ServerState {
    /// Builds memory-only state with `workers` detection workers
    /// (embedded/test convenience).
    pub fn new(workers: usize) -> Arc<Self> {
        let config = ServeConfig {
            workers,
            data_dir: None,
            ..ServeConfig::default()
        };
        Self::with_config(&config).expect("memory-only state construction cannot do IO")
    }

    /// Builds the state, starts the job engine's `workers` detection
    /// workers and the ingest drainer, and wires every subsystem's
    /// metrics into one registry.
    ///
    /// When `config.data_dir` is set, opens (or creates) the durability
    /// store there and **recovers**: every graph directory's newest
    /// valid snapshot is loaded and its WAL replayed, restoring graphs,
    /// epochs, and cached partitions to the pre-crash state before the
    /// listener starts logging new activity.
    pub fn with_config(config: &ServeConfig) -> std::io::Result<Arc<Self>> {
        let registry = Arc::new(GraphRegistry::new());
        let cache = Arc::new(PartitionCache::new());
        let jobs = JobEngine::start(Arc::clone(&registry), Arc::clone(&cache), config.workers);
        let ingest = IngestQueue::new(config.ingest_max_queued_edits);
        let delta = Arc::new(DeltaRing::new(config.delta_capacity));
        let updates = UpdateStats::default();
        let metrics = MetricsRegistry::new();
        cache.stats.attach_to(&metrics);
        jobs.attach_to(&metrics);
        updates.attach_to(&metrics);
        ingest.stats.attach_to(&metrics);

        let durability = match &config.data_dir {
            None => None,
            Some(dir) => {
                let store = Arc::new(DurabilityStore::open(DurabilityConfig {
                    root: dir.into(),
                    snapshot_every: config.snapshot_every,
                    fsync: config.fsync_wal,
                })?);
                store.stats.attach_to(&metrics);
                // Recovery seeds registry, cache, and delta ring BEFORE
                // the insert listener exists, so recovered partitions
                // are not re-appended to the WAL they came from.
                for recovered in store.recover()? {
                    let source = GraphSource::parse_label(&recovered.source);
                    if let Err(e) = registry.install(
                        &recovered.name,
                        recovered.graph,
                        recovered.epoch,
                        source,
                        recovered.epoch,
                    ) {
                        eprintln!(
                            "gve-serve: skipping recovered graph '{}': {e}",
                            recovered.name
                        );
                        continue;
                    }
                    for item in recovered.partitions {
                        delta.record(&item.key.graph, item.key.epoch, &item.partition.membership);
                        cache.insert(item.key, item.partition);
                    }
                }
                Some(store)
            }
        };

        // Single choke point for partition publications: every cache
        // insert — detect jobs, incremental refreshes, nothing else —
        // feeds both the delta ring and (when durable) the WAL. The
        // partition record is written AFTER the cache publish and is
        // best-effort: partitions are derived state, recomputable from
        // the durable graph.
        {
            let delta = Arc::clone(&delta);
            let durability = durability.clone();
            cache.set_listener(move |key, partition| {
                delta.record(&key.graph, key.epoch, &partition.membership);
                if let Some(store) = &durability {
                    if let Err(e) = store.append_partition(key, partition) {
                        eprintln!(
                            "gve-serve: partition WAL append failed for '{}': {e}",
                            key.graph
                        );
                    }
                }
            });
        }

        let state = Arc::new(Self {
            registry,
            cache,
            jobs,
            ingest,
            delta,
            durability,
            updates,
            metrics,
            started: Instant::now(),
        });
        state.ingest.start_drainer(&state);
        Ok(state)
    }
}

/// A running service: the `gve-net` event loop plus the worker pools.
#[cfg(unix)]
pub struct Server {
    net: gve_net::EventLoopServer,
    state: Arc<ServerState>,
    /// `join` parks on this pair; `stop` flips the flag and notifies,
    /// so shutdown is immediate instead of waiting out a sleep.
    stopping: Arc<(Mutex<bool>, Condvar)>,
}

#[cfg(unix)]
impl Server {
    /// Binds and starts serving.
    pub fn start(config: &ServeConfig) -> std::io::Result<Server> {
        let state = ServerState::with_config(config)?;
        let handler_state = Arc::clone(&state);
        let handler = move |request| handlers::handle(&handler_state, &request);
        // Routes whose handlers are strictly non-blocking and
        // microsecond-scale run inline on the reactor thread (no
        // worker-pool round trip). Everything that computes or does IO
        // — graph registration, update batches with incremental
        // refresh, large membership/community dumps — goes to workers.
        // The locks these inline routes do take are all short-hold by
        // construction: update batches serialize on the registry cell's
        // update gate and touch the entry mutex only to snapshot and to
        // publish, so a snapshot on the reactor thread never waits out
        // a refresh. Oversized bodies are parsed on workers too — JSON
        // parsing is linear in the body and the body cap is 64 MiB.
        let inline: gve_net::InlinePredicate = Arc::new(|request: &gve_net::Request| {
            if request.body.len() > MAX_INLINE_BODY_BYTES {
                return false;
            }
            match request.method.as_str() {
                "GET" => {
                    !request.path.contains("/membership") && !request.path.contains("/communities")
                }
                // Detect submits only queue a job (or hit the cache);
                // cancel flips a record state.
                "POST" => request.path.contains("/detect") || request.path.contains("/cancel"),
                _ => false,
            }
        });
        let net = gve_net::EventLoopServer::start(
            config.addr.as_str(),
            gve_net::NetOptions {
                max_connections: config.max_connections,
                inline: Some(inline),
                metrics: Some(state.metrics.clone()),
                ..gve_net::NetOptions::default()
            },
            handler,
        )?;
        Ok(Server {
            net,
            state,
            stopping: Arc::new((Mutex::new(false), Condvar::new())),
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.net.port()
    }

    /// Which reactor backend is serving: `"epoll"` or `"poll"`.
    pub fn backend(&self) -> &'static str {
        self.net.backend()
    }

    /// The shared state (tests inspect counters directly).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Blocks the calling thread until [`Server::stop`] runs (the
    /// accept loop and workers run on their own threads). Used by
    /// `gve serve`. Returns promptly on stop — no polling sleep.
    pub fn join(&self) {
        let (flag, signal) = &*self.stopping;
        let mut stopped = flag.lock().expect("stop flag poisoned");
        while !*stopped {
            stopped = signal.wait(stopped).expect("stop flag poisoned");
        }
    }

    /// Stops the event loop and the worker pool, releasing any
    /// thread parked in [`Server::join`]. Idempotent.
    pub fn stop(&self) {
        {
            let (flag, signal) = &*self.stopping;
            let mut stopped = flag.lock().expect("stop flag poisoned");
            *stopped = true;
            signal.notify_all();
        }
        self.net.stop();
        // Drain deferred batches before the job engine goes away so
        // acked (202) work is applied — and WAL-logged — on shutdown.
        self.state.ingest.stop();
        self.state.jobs.stop();
    }
}

#[cfg(unix)]
impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn server_boots_on_ephemeral_port_and_answers_health() {
        let server = Server::start(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let (status, body) = client_request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""), "{body}");
        let (status, _) = client_request(&addr, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        server.stop();
    }

    /// Regression test for the old `join()` that slept in one-hour
    /// slices: a joined thread must unpark as soon as `stop` runs.
    #[test]
    fn join_returns_promptly_after_stop() {
        let server = Arc::new(
            Server::start(&ServeConfig {
                addr: "127.0.0.1:0".into(),
                workers: 1,
                ..ServeConfig::default()
            })
            .unwrap(),
        );
        let joiner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.join())
        };
        // Give the joiner time to park.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let started = Instant::now();
        server.stop();
        joiner.join().expect("joiner panicked");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "join did not unpark promptly after stop"
        );
    }
}
