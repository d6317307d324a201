//! Bounded, coalescing ingest queue in front of the update path.
//!
//! One POST at a time per graph is the update gate's invariant; under
//! sustained ingest that would make every client wait out the refresh
//! ahead of it. The queue changes the contract: when a graph's gate is
//! free and nothing is queued, the batch applies inline and the client
//! gets the classic synchronous 200. When the graph is busy, the batch
//! is **deferred** (202 + queue depth) into a per-shard queue where all
//! queued batches for the same graph coalesce into one merged batch via
//! [`BatchUpdate::merge`] — insertions concatenate, deletions cancel
//! queued insertions of the same pair. Coalescing is what makes the
//! queue rate-adaptive: the longer an apply takes, the more batches
//! fold into the single pending entry behind it, so the refresh rate
//! degrades gracefully instead of the queue growing without bound.
//! A hard cap on queued edits ([`IngestConfig::max_queued_edits`])
//! still backstops it: past the cap, clients get 429 and retry later.
//!
//! One drainer thread per registry shard applies deferred batches in
//! FIFO order per shard. Drainers hold only a `Weak<ServerState>` so
//! they never keep a stopped server alive.

use crate::handlers::{apply_update, ApiError};
use crate::json::Json;
use crate::registry::shard_hash;
use crate::ServerState;
use gve_dynamic::BatchUpdate;
use gve_obs::{Counter, Gauge, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;

/// Ingest tuning, carried from `ServeConfig`.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Cap on edits (insertions + deletions) queued per shard; batches
    /// that would cross it are rejected with 429.
    pub max_queued_edits: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            max_queued_edits: 1 << 20,
        }
    }
}

/// Counters and gauges exported under `gve_ingest_*`.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Deferred batches currently queued (post-coalescing: one entry
    /// per busy graph).
    pub queue_depth: Gauge,
    /// Deferred batches folded into an already-queued batch.
    pub coalesced: Counter,
    /// Batches accepted as deferred (202).
    pub deferred: Counter,
    /// Batches rejected because the queue was full (429).
    pub rejected: Counter,
    /// Deferred batches applied by drainer threads.
    pub drained: Counter,
    /// Deferred batches whose apply failed (graph removed, WAL error).
    pub failed: Counter,
}

impl IngestStats {
    /// Registers the handles with `registry`.
    pub fn attach_to(&self, registry: &MetricsRegistry) {
        registry.register_gauge(
            "gve_ingest_queue_depth",
            "Deferred update batches queued (one per busy graph after coalescing).",
            &[],
            &self.queue_depth,
        );
        registry.register_counter(
            "gve_ingest_coalesced_total",
            "Deferred batches folded into an already-queued batch.",
            &[],
            &self.coalesced,
        );
        registry.register_counter(
            "gve_ingest_deferred_total",
            "Update batches accepted as deferred (202).",
            &[],
            &self.deferred,
        );
        registry.register_counter(
            "gve_ingest_rejected_total",
            "Update batches rejected because the ingest queue was full (429).",
            &[],
            &self.rejected,
        );
        registry.register_counter(
            "gve_ingest_drained_total",
            "Deferred batches applied by drainer threads.",
            &[],
            &self.drained,
        );
        registry.register_counter(
            "gve_ingest_failures_total",
            "Deferred batches whose apply failed.",
            &[],
            &self.failed,
        );
    }
}

/// What happened to a submitted batch.
pub enum IngestOutcome {
    /// Applied synchronously; the 200 response body.
    Applied(Json),
    /// Queued behind a busy graph.
    Deferred {
        /// Pending batches on this shard after the enqueue.
        queue_depth: usize,
        /// Edits queued on this shard after the enqueue.
        queued_edits: usize,
        /// Whether this batch merged into an already-queued one.
        coalesced: bool,
    },
    /// The shard's edit cap was reached.
    Rejected {
        /// Edits queued on the shard at rejection time.
        queued_edits: usize,
    },
}

#[derive(Default)]
struct ShardInner {
    /// Pending batch per graph (coalescing target).
    pending: HashMap<String, BatchUpdate>,
    /// FIFO of graph names with a pending batch.
    order: VecDeque<String>,
    /// Total edits across `pending`.
    queued_edits: usize,
    stopping: bool,
}

struct IngestShard {
    inner: Mutex<ShardInner>,
    /// Signals the shard's drainer that work (or a stop) arrived.
    work: Condvar,
}

fn lock_shard(shard: &IngestShard) -> MutexGuard<'_, ShardInner> {
    match shard.inner.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The sharded ingest queue plus its drainer threads.
pub struct IngestQueue {
    config: IngestConfig,
    shards: Vec<Arc<IngestShard>>,
    drainers: Mutex<Vec<JoinHandle<()>>>,
    /// Counter block (public for `/stats` reporting).
    pub stats: IngestStats,
}

impl IngestQueue {
    /// Builds the queue with `shards` shards (min 1). Drainers start
    /// separately via [`IngestQueue::start_drainers`], once the owning
    /// `ServerState` exists.
    pub fn new(shards: usize, config: IngestConfig) -> Self {
        Self {
            config,
            shards: (0..shards.max(1))
                .map(|_| {
                    Arc::new(IngestShard {
                        inner: Mutex::new(ShardInner::default()),
                        work: Condvar::new(),
                    })
                })
                .collect(),
            drainers: Mutex::new(Vec::new()),
            stats: IngestStats::default(),
        }
    }

    /// Spawns one drainer thread per shard. Drainers hold a `Weak`
    /// reference so the queue never keeps a dropped server alive.
    pub fn start_drainers(&self, state: &Arc<ServerState>) {
        let mut drainers = self.drainers.lock().expect("drainer list poisoned");
        for (index, shard) in self.shards.iter().enumerate() {
            let shard = Arc::clone(shard);
            let state: Weak<ServerState> = Arc::downgrade(state);
            let stats = self.stats.clone();
            drainers.push(
                std::thread::Builder::new()
                    .name(format!("gve-serve-ingest-{index}"))
                    .spawn(move || drain_loop(&shard, &state, &stats))
                    .expect("spawn ingest drainer"),
            );
        }
    }

    fn shard(&self, name: &str) -> &Arc<IngestShard> {
        &self.shards[(shard_hash(name) % self.shards.len() as u64) as usize]
    }

    /// Routes one update batch: inline apply when the graph is idle and
    /// nothing is queued ahead of it, otherwise defer (or reject at the
    /// edit cap). FIFO per graph: a batch never jumps ahead of edits
    /// already queued for the same graph.
    pub(crate) fn submit(
        &self,
        state: &ServerState,
        name: &str,
        batch: BatchUpdate,
    ) -> Result<IngestOutcome, ApiError> {
        let cell = state.registry.entry(name)?;
        let shard = self.shard(name);
        // Fast path: graph idle and nothing queued for it. The gate is
        // claimed with a try-lock BEFORE the shard lock (lock order:
        // update_gate before ingest shard) and the pending check happens
        // under the shard lock, so a queued batch can never be overtaken
        // by this inline apply.
        if let Some(gate) = cell.try_begin_update() {
            let queued_behind = {
                let inner = lock_shard(shard);
                inner.pending.contains_key(name)
            };
            if !queued_behind {
                let body = apply_update(state, name, &cell, &gate, &batch)?;
                return Ok(IngestOutcome::Applied(body));
            }
            // Something is queued ahead; fall through and join it.
            drop(gate);
        }
        let mut inner = lock_shard(shard);
        if inner.queued_edits.saturating_add(batch.len()) > self.config.max_queued_edits {
            let queued_edits = inner.queued_edits;
            drop(inner);
            self.stats.rejected.inc();
            return Ok(IngestOutcome::Rejected { queued_edits });
        }
        inner.queued_edits += batch.len();
        let coalesced = match inner.pending.get_mut(name) {
            Some(pending) => {
                let before = pending.len();
                pending.merge(&batch);
                // Deletions cancelling queued insertions can shrink the
                // merged batch; keep the edit accounting exact.
                inner.queued_edits -= (before + batch.len()) - pending.len();
                true
            }
            None => {
                inner.pending.insert(name.to_string(), batch);
                inner.order.push_back(name.to_string());
                self.stats.queue_depth.inc();
                false
            }
        };
        let depth = inner.pending.len();
        let queued_edits = inner.queued_edits;
        drop(inner);
        shard.work.notify_one();
        self.stats.deferred.inc();
        if coalesced {
            self.stats.coalesced.inc();
        }
        Ok(IngestOutcome::Deferred {
            queue_depth: depth,
            queued_edits,
            coalesced,
        })
    }

    /// Edits currently queued on the shard `name` routes to.
    pub fn queued_edits(&self, name: &str) -> usize {
        lock_shard(self.shard(name)).queued_edits
    }

    /// True when no shard has a pending batch (brief per-shard locks).
    fn all_idle(&self) -> bool {
        self.shards
            .iter()
            .all(|shard| lock_shard(shard).pending.is_empty())
    }

    /// Blocks until every shard's queue is empty (test aid; drainers
    /// may still be mid-apply on the final batch's gate).
    pub fn wait_idle(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.all_idle() {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    /// Stops and joins the drainers after letting them drain whatever
    /// is already queued. Idempotent.
    pub fn stop(&self) {
        for shard in &self.shards {
            lock_shard(shard).stopping = true;
            shard.work.notify_all();
        }
        let handles = {
            let mut drainers = match self.drainers.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::take(&mut *drainers)
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for IngestQueue {
    fn drop(&mut self) {
        self.stop();
    }
}

fn drain_loop(shard: &IngestShard, state: &Weak<ServerState>, stats: &IngestStats) {
    loop {
        let name = {
            let mut inner = lock_shard(shard);
            loop {
                if let Some(name) = inner.order.pop_front() {
                    break name;
                }
                if inner.stopping {
                    return;
                }
                inner = match shard.work.wait(inner) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        // A dead upgrade means the server is shutting down and nothing
        // can observe the result anyway.
        let Some(state) = state.upgrade() else { return };
        // The pending batch stays in the map — still coalescing late
        // arrivals — until this drainer actually holds the graph's
        // update gate. Lock order matches the inline path: update_gate
        // BEFORE ingest shard.
        let cell = match state.registry.entry(&name) {
            Ok(cell) => cell,
            Err(e) => {
                // Graph deregistered while its batch was queued: drop
                // the pending entry, keeping the accounting exact.
                let mut inner = lock_shard(shard);
                if let Some(pending) = inner.pending.remove(&name) {
                    inner.queued_edits -= pending.len();
                    stats.queue_depth.dec();
                }
                drop(inner);
                stats.failed.inc();
                eprintln!("gve-serve: deferred batch for '{name}' dropped: {e}");
                continue;
            }
        };
        let gate = cell.begin_update();
        let pending = {
            let mut inner = lock_shard(shard);
            let pending = inner.pending.remove(&name);
            if let Some(pending) = &pending {
                inner.queued_edits -= pending.len();
            }
            pending
        };
        // Raced with a removal that cleared it — nothing to do.
        let Some(pending) = pending else { continue };
        stats.queue_depth.dec();
        match apply_update(&state, &name, &cell, &gate, &pending) {
            Ok(_) => stats.drained.inc(),
            Err(e) => {
                stats.failed.inc();
                eprintln!(
                    "gve-serve: deferred batch for '{name}' failed: {}",
                    e.message
                );
            }
        }
    }
}
