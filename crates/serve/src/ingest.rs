//! Bounded, coalescing ingest queue in front of the update path.
//!
//! One POST at a time per graph is the update gate's invariant; under
//! sustained ingest that would make every client wait out the refresh
//! ahead of it. The queue changes the contract: when a graph's gate is
//! free and nothing is queued, the batch applies inline and the client
//! gets the classic synchronous 200. When the graph is busy, the batch
//! is **deferred** (202 + queue depth) into the queue, where all
//! queued batches for the same graph coalesce into one merged batch via
//! [`BatchUpdate::merge`] — insertions concatenate, deletions cancel
//! queued insertions of the same pair. Coalescing is what makes the
//! queue rate-adaptive: the longer an apply takes, the more batches
//! fold into the single pending entry behind it, so the refresh rate
//! degrades gracefully instead of the queue growing without bound.
//! A hard cap on edits queued across all graphs still backstops it:
//! past the cap, clients get 429 and retry later.
//!
//! One drainer thread applies deferred batches in FIFO order across
//! graphs. It holds only a `Weak<ServerState>` so it never keeps a
//! stopped server alive.

use crate::handlers::{apply_update, ApiError};
use crate::json::Json;
use crate::ServerState;
use gve_dynamic::BatchUpdate;
use gve_obs::{Counter, Gauge, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;

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
        /// Pending batches after the enqueue.
        queue_depth: usize,
        /// Edits queued after the enqueue.
        queued_edits: usize,
        /// Whether this batch merged into an already-queued one.
        coalesced: bool,
    },
    /// The edit cap was reached.
    Rejected {
        /// Edits queued at rejection time.
        queued_edits: usize,
    },
}

#[derive(Default)]
struct Pending {
    /// Pending batch per graph (coalescing target).
    batches: HashMap<String, BatchUpdate>,
    /// FIFO of graph names with a pending batch.
    order: VecDeque<String>,
    /// Total edits across `batches`.
    queued_edits: usize,
    stopping: bool,
}

/// The pending map and FIFO plus the signal that wakes the drainer.
#[derive(Default)]
struct Shared {
    pending: Mutex<Pending>,
    /// Signals the drainer that work (or a stop) arrived.
    work: Condvar,
}

fn lock_queue(shared: &Shared) -> MutexGuard<'_, Pending> {
    match shared.pending.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The ingest queue plus its drainer thread.
pub struct IngestQueue {
    /// Cap on edits (insertions + deletions) queued across all graphs;
    /// batches that would cross it are rejected with 429.
    max_queued_edits: usize,
    shared: Arc<Shared>,
    drainer: Mutex<Option<JoinHandle<()>>>,
    /// Counter block (public for `/stats` reporting).
    pub stats: IngestStats,
}

impl IngestQueue {
    /// Builds the queue with a cap of `max_queued_edits` queued edits.
    /// The drainer starts separately via [`IngestQueue::start_drainer`],
    /// once the owning `ServerState` exists.
    pub fn new(max_queued_edits: usize) -> Self {
        Self {
            max_queued_edits,
            shared: Arc::default(),
            drainer: Mutex::new(None),
            stats: IngestStats::default(),
        }
    }

    /// Spawns the drainer thread. It holds a `Weak` reference so the
    /// queue never keeps a dropped server alive.
    pub fn start_drainer(&self, state: &Arc<ServerState>) {
        let shared = Arc::clone(&self.shared);
        let state: Weak<ServerState> = Arc::downgrade(state);
        let stats = self.stats.clone();
        let handle = std::thread::Builder::new()
            .name("gve-serve-ingest".to_string())
            .spawn(move || drain_loop(&shared, &state, &stats))
            .expect("spawn ingest drainer");
        *self.drainer.lock().expect("drainer slot poisoned") = Some(handle);
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
        // Fast path: graph idle and nothing queued for it. The gate is
        // claimed with a try-lock BEFORE the queue lock (lock order:
        // update_gate before ingest_queue) and the pending check happens
        // under the queue lock, so a queued batch can never be overtaken
        // by this inline apply.
        if let Some(gate) = cell.try_begin_update() {
            let queued_behind = lock_queue(&self.shared).batches.contains_key(name);
            if !queued_behind {
                let body = apply_update(state, name, &cell, &gate, &batch)?;
                return Ok(IngestOutcome::Applied(body));
            }
            // Something is queued ahead; fall through and join it.
            drop(gate);
        }
        let mut inner = lock_queue(&self.shared);
        if inner.queued_edits.saturating_add(batch.len()) > self.max_queued_edits {
            let queued_edits = inner.queued_edits;
            drop(inner);
            self.stats.rejected.inc();
            return Ok(IngestOutcome::Rejected { queued_edits });
        }
        inner.queued_edits += batch.len();
        let coalesced = match inner.batches.get_mut(name) {
            Some(pending) => {
                let before = pending.len();
                pending.merge(&batch);
                // Deletions cancelling queued insertions can shrink the
                // merged batch; keep the edit accounting exact.
                inner.queued_edits -= (before + batch.len()) - pending.len();
                true
            }
            None => {
                inner.batches.insert(name.to_string(), batch);
                inner.order.push_back(name.to_string());
                self.stats.queue_depth.inc();
                false
            }
        };
        let depth = inner.batches.len();
        let queued_edits = inner.queued_edits;
        drop(inner);
        self.shared.work.notify_one();
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

    /// Blocks until the queue is empty (test aid; the drainer may still
    /// be mid-apply on the final batch's gate).
    pub fn wait_idle(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if lock_queue(&self.shared).batches.is_empty() {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    /// Stops and joins the drainer after letting it drain whatever is
    /// already queued. Idempotent.
    pub fn stop(&self) {
        lock_queue(&self.shared).stopping = true;
        self.shared.work.notify_all();
        let handle = {
            let mut drainer = match self.drainer.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            drainer.take()
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for IngestQueue {
    fn drop(&mut self) {
        self.stop();
    }
}

fn drain_loop(shared: &Shared, state: &Weak<ServerState>, stats: &IngestStats) {
    loop {
        let name = {
            let mut inner = lock_queue(shared);
            loop {
                if let Some(name) = inner.order.pop_front() {
                    break name;
                }
                if inner.stopping {
                    return;
                }
                inner = match shared.work.wait(inner) {
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
        // BEFORE ingest_queue.
        let cell = match state.registry.entry(&name) {
            Ok(cell) => cell,
            Err(e) => {
                // Graph deregistered while its batch was queued: drop
                // the pending entry, keeping the accounting exact.
                let mut inner = lock_queue(shared);
                if let Some(pending) = inner.batches.remove(&name) {
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
            let mut inner = lock_queue(shared);
            let pending = inner.batches.remove(&name);
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
