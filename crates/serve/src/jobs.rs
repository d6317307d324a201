//! Asynchronous detection jobs.
//!
//! Detect requests do not block the HTTP connection: the handler
//! submits a job, the client gets an id back immediately and polls
//! `GET /jobs/{id}` until the state reaches `done` (or `failed`). A
//! small pool of worker threads drains the queue; each worker runs
//! static GVE-Leiden on the graph's current snapshot and publishes the
//! partition into the [`PartitionCache`],
//! so an identical request against the same graph epoch is a cache hit
//! and never reaches the queue.

use crate::cache::{CachedPartition, PartitionCache, PartitionKey, PartitionOrigin};
use crate::json::Json;
use crate::pool::WorkspacePool;
use crate::registry::GraphRegistry;
use gve_leiden::{CoreMetrics, Leiden, LeidenConfig, Objective, RunObserver, Scheduling};
use gve_obs::{Counter, Gauge, Histogram, MetricsRegistry, DEFAULT_LATENCY_BUCKETS};
use gve_prim::alloc_count;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A parsed, validated detect request — the unit the cache fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectRequest {
    /// `"modularity"` or `"cpm"`.
    pub objective: String,
    /// Resolution parameter γ.
    pub resolution: f64,
    /// RNG seed for randomized refinement.
    pub seed: u64,
    /// Cap on passes (default: library default).
    pub max_passes: usize,
    /// Phase scheduling: fast `async` (default) or reproducible
    /// `color-sync`.
    pub scheduling: Scheduling,
}

impl Default for DetectRequest {
    fn default() -> Self {
        let defaults = LeidenConfig::default();
        Self {
            objective: "modularity".to_string(),
            resolution: 1.0,
            seed: defaults.seed,
            max_passes: defaults.max_passes,
            scheduling: defaults.scheduling,
        }
    }
}

impl DetectRequest {
    /// Parses the JSON body of `POST /graphs/{name}/detect`. Absent
    /// fields keep their defaults; unknown objectives are rejected.
    pub fn from_json(body: &Json) -> Result<Self, String> {
        let mut request = DetectRequest::default();
        if let Some(objective) = body.get("objective").and_then(Json::as_str) {
            match objective {
                "modularity" | "cpm" => request.objective = objective.to_string(),
                other => return Err(format!("unknown objective '{other}' (modularity|cpm)")),
            }
        }
        if let Some(resolution) = body.get("resolution").and_then(Json::as_f64) {
            request.resolution = resolution;
        }
        if let Some(seed) = body.get("seed").and_then(Json::as_u64) {
            request.seed = seed;
        }
        if let Some(max_passes) = body.get("max_passes").and_then(Json::as_u64) {
            request.max_passes = max_passes as usize;
        }
        if let Some(scheduling) = body.get("scheduling").and_then(Json::as_str) {
            request.scheduling = Scheduling::parse(scheduling)?;
        }
        request.to_config()?; // surface invalid configs at submit time
        Ok(request)
    }

    /// The equivalent `LeidenConfig`.
    pub fn to_config(&self) -> Result<LeidenConfig, String> {
        let objective = match self.objective.as_str() {
            "modularity" => Objective::Modularity {
                resolution: self.resolution,
            },
            "cpm" => Objective::Cpm {
                resolution: self.resolution,
            },
            other => return Err(format!("unknown objective '{other}'")),
        };
        let mut config = LeidenConfig::default()
            .objective(objective)
            .seed(self.seed)
            .scheduling(self.scheduling);
        config.max_passes = self.max_passes;
        config.validate()?;
        Ok(config)
    }

    /// Stable fingerprint for cache keying (FNV-1a over the canonical
    /// textual form, so semantically equal requests collide on purpose).
    pub fn fingerprint(&self) -> u64 {
        let canonical = format!(
            "objective={};resolution={};seed={};max_passes={};scheduling={}",
            self.objective,
            self.resolution,
            self.seed,
            self.max_passes,
            self.scheduling.label(),
        );
        crate::wal::fnv1a(canonical.as_bytes())
    }

    /// JSON echo of the request (reported in job records).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("objective", Json::from(self.objective.as_str())),
            ("resolution", Json::from(self.resolution)),
            ("seed", Json::from(self.seed)),
            ("max_passes", Json::from(self.max_passes)),
            ("scheduling", Json::from(self.scheduling.label())),
        ])
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is computing.
    Running,
    /// Finished; the partition is in the cache.
    Done,
    /// The computation errored.
    Failed,
    /// Cancelled while still queued.
    Cancelled,
}

impl JobState {
    /// Wire label.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// One detect job, as reported by `GET /jobs/{id}`.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id.
    pub id: u64,
    /// Target graph.
    pub graph: String,
    /// The request that created the job.
    pub request: DetectRequest,
    /// Current state.
    pub state: JobState,
    /// Whether the answer came straight from the cache.
    pub cached: bool,
    /// Whether this job attached as a waiter to an identical job that
    /// was already queued/running (in-flight coalescing).
    pub coalesced: bool,
    /// Cache key of the resulting partition (set once known).
    pub key: Option<PartitionKey>,
    /// Error message for failed jobs.
    pub error: Option<String>,
    /// Compute seconds for completed jobs.
    pub seconds: Option<f64>,
    /// Submission instant, for the queue-wait histogram.
    pub queued_at: Instant,
}

impl JobRecord {
    /// JSON form for the API (includes partition summary when done).
    pub fn to_json(&self, cache: &PartitionCache) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::from(self.id)),
            ("graph".to_string(), Json::from(self.graph.as_str())),
            ("state".to_string(), Json::from(self.state.label())),
            ("cached".to_string(), Json::from(self.cached)),
            ("coalesced".to_string(), Json::from(self.coalesced)),
            ("request".to_string(), self.request.to_json()),
        ];
        if let Some(error) = &self.error {
            fields.push(("error".to_string(), Json::from(error.as_str())));
        }
        if let Some(seconds) = self.seconds {
            fields.push(("seconds".to_string(), Json::from(seconds)));
        }
        if let (JobState::Done, Some(key)) = (self.state, &self.key) {
            if let Some(partition) = cache.peek(key) {
                fields.push(("epoch".to_string(), Json::from(key.epoch)));
                fields.push((
                    "num_communities".to_string(),
                    Json::from(partition.num_communities),
                ));
                fields.push(("modularity".to_string(), Json::from(partition.modularity)));
                fields.push(("origin".to_string(), Json::from(partition.origin.label())));
            }
        }
        Json::Obj(fields)
    }
}

/// Counters and queue metrics exported through `/stats` and `/metrics`.
#[derive(Debug, Clone)]
pub struct JobStats {
    /// Jobs accepted (including instant cache hits).
    pub submitted: Counter,
    /// Jobs that finished successfully (cache hits count).
    pub completed: Counter,
    /// Jobs that failed.
    pub failed: Counter,
    /// Full static detections actually executed by workers.
    pub full_detections: Counter,
    /// Jobs that attached as waiters to an identical in-flight job
    /// instead of executing their own detection.
    pub coalesced: Counter,
    /// Jobs currently queued (pushed but not yet taken by a worker).
    pub queue_depth: Gauge,
    /// Times a worker woke for work: once per job it takes off the
    /// queue, and once per return from its wait that found nothing to
    /// take. Stays flat while the pool is idle — the regression signal
    /// for the old 20 ms busy-poll loop.
    pub worker_wakeups: Counter,
    /// Seconds jobs spent queued before a worker claimed them.
    pub queue_wait_seconds: Histogram,
    /// Seconds full detections took to compute.
    pub run_seconds: Histogram,
    /// Heap allocations performed inside Leiden hot-path runs (full
    /// detections and incremental refreshes). Reads zero unless the
    /// binary installed [`alloc_count::CountingAllocator`] as the
    /// global allocator; flat-lining after warm-up is the observable
    /// proof that the workspace pool reached zero steady-state
    /// allocation.
    pub core_allocs: Counter,
}

impl Default for JobStats {
    fn default() -> Self {
        Self {
            submitted: Counter::new(),
            completed: Counter::new(),
            failed: Counter::new(),
            full_detections: Counter::new(),
            coalesced: Counter::new(),
            queue_depth: Gauge::new(),
            worker_wakeups: Counter::new(),
            queue_wait_seconds: Histogram::with_buckets(DEFAULT_LATENCY_BUCKETS),
            run_seconds: Histogram::with_buckets(DEFAULT_LATENCY_BUCKETS),
            core_allocs: Counter::new(),
        }
    }
}

impl JobStats {
    /// Registers the handles with `registry` under `gve_jobs_*` names.
    pub fn attach_to(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "gve_jobs_submitted_total",
            "Detect jobs accepted, including instant cache hits.",
            &[],
            &self.submitted,
        );
        registry.register_counter(
            "gve_jobs_completed_total",
            "Detect jobs that finished successfully.",
            &[],
            &self.completed,
        );
        registry.register_counter(
            "gve_jobs_failed_total",
            "Detect jobs that failed.",
            &[],
            &self.failed,
        );
        registry.register_counter(
            "gve_jobs_full_detections_total",
            "Full static detections executed by workers.",
            &[],
            &self.full_detections,
        );
        registry.register_counter(
            "gve_jobs_coalesced_total",
            "Detect jobs coalesced onto an identical in-flight job.",
            &[],
            &self.coalesced,
        );
        registry.register_gauge(
            "gve_jobs_queue_depth",
            "Jobs pushed to the worker queue and not yet taken.",
            &[],
            &self.queue_depth,
        );
        registry.register_counter(
            "gve_jobs_worker_wakeups_total",
            "Worker wake-ups: jobs taken off the queue plus empty returns from the wait.",
            &[],
            &self.worker_wakeups,
        );
        registry.register_histogram(
            "gve_jobs_queue_wait_seconds",
            "Seconds jobs spent queued before a worker claimed them.",
            &[],
            &self.queue_wait_seconds,
        );
        registry.register_histogram(
            "gve_jobs_run_seconds",
            "Seconds full detections took to compute.",
            &[],
            &self.run_seconds,
        );
        registry.register_counter(
            "gve_core_allocs_total",
            "Heap allocations inside Leiden hot-path runs (zero unless \
             the binary installs the counting global allocator).",
            &[],
            &self.core_allocs,
        );
    }
}

/// One in-flight detection: the job actually computing (`primary`) plus
/// every identical job that attached as a waiter while it was
/// queued/running. Keyed by the **submit-time** [`PartitionKey`] in
/// [`JobTable::inflight`].
struct Inflight {
    primary: u64,
    waiters: Vec<u64>,
}

/// Job records, the in-flight coalescing table and the worker queue,
/// under ONE mutex.
///
/// Keeping both maps behind a single lock is what makes the coalescing
/// protocol race-free: a submitter checks the cache and the in-flight
/// table in one critical section, and a finishing worker publishes to
/// the cache *before* it removes the in-flight entry — so there is no
/// interleaving in which a submitter misses the cache, misses the
/// in-flight entry, and starts a duplicate run. The queue lives under
/// the same lock, so a submitter enqueues in the critical section that
/// creates the record, and a worker takes an id and claims its record
/// in one critical section too.
#[derive(Default)]
struct JobTable {
    records: HashMap<u64, JobRecord>,
    inflight: HashMap<PartitionKey, Inflight>,
    /// Ids of finished (done, failed or cancelled) records, oldest
    /// first; bounded by [`MAX_FINISHED_JOBS`].
    finished: VecDeque<u64>,
    /// Ids of primary jobs waiting for a worker, oldest first.
    queue: VecDeque<u64>,
    /// Set by `stop`: workers exit instead of taking more jobs.
    closed: bool,
}

/// Finished job records the table keeps for polling. Older ones are
/// evicted first, so a stream of cache-hit detects cannot grow the heap
/// with requests served; queued and running jobs are never evicted.
pub const MAX_FINISHED_JOBS: usize = 1024;

impl JobTable {
    /// Notes that `id` reached a final state and evicts the oldest
    /// finished records beyond [`MAX_FINISHED_JOBS`].
    fn finish(&mut self, id: u64) {
        self.finished.push_back(id);
        while self.finished.len() > MAX_FINISHED_JOBS {
            if let Some(oldest) = self.finished.pop_front() {
                self.records.remove(&oldest);
            }
        }
    }
}

/// The background worker pool plus the job table.
pub struct JobEngine {
    registry: Arc<GraphRegistry>,
    cache: Arc<PartitionCache>,
    table: Arc<Mutex<JobTable>>,
    /// Signalled on `table` when a job is queued or the engine stops.
    ready: Arc<Condvar>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    workspaces: Arc<WorkspacePool>,
    next_id: AtomicU64,
    core_metrics: Arc<CoreMetrics>,
    /// Counter block (public for `/stats` reporting).
    pub stats: Arc<JobStats>,
}

/// Panic-free lock that recovers the data from a poisoned mutex. Job
/// state is a map of plain records — a panicking peer cannot leave it
/// logically torn in a way a reader could misinterpret.
fn lock_table(table: &Mutex<JobTable>) -> MutexGuard<'_, JobTable> {
    table.lock().unwrap_or_else(PoisonError::into_inner)
}

impl JobEngine {
    /// Starts `worker_count` worker threads (minimum 1) on one queue,
    /// sharing one [`WorkspacePool`].
    pub fn start(
        registry: Arc<GraphRegistry>,
        cache: Arc<PartitionCache>,
        worker_count: usize,
    ) -> Self {
        let table = Arc::new(Mutex::new(JobTable::default()));
        let ready = Arc::new(Condvar::new());
        let stats = Arc::new(JobStats::default());
        let core_metrics = Arc::new(CoreMetrics::default());
        let workspaces = Arc::new(WorkspacePool::new());
        let workers = (0..worker_count.max(1))
            .map(|worker| {
                let registry = Arc::clone(&registry);
                let cache = Arc::clone(&cache);
                let table = Arc::clone(&table);
                let ready = Arc::clone(&ready);
                let stats = Arc::clone(&stats);
                let core_metrics = Arc::clone(&core_metrics);
                let workspaces = Arc::clone(&workspaces);
                std::thread::Builder::new()
                    .name(format!("gve-serve-worker-{worker}"))
                    .spawn(move || {
                        worker_loop(
                            &registry,
                            &cache,
                            &table,
                            &ready,
                            &stats,
                            &core_metrics,
                            &workspaces,
                        )
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            registry,
            cache,
            table,
            ready,
            workers: Mutex::new(workers),
            workspaces,
            next_id: AtomicU64::new(1),
            core_metrics,
            stats,
        }
    }

    /// Registers the job counters, queue metrics, the workspace pool,
    /// and the algorithm core's metrics (fed by every worker detection)
    /// with `registry`.
    pub fn attach_to(&self, registry: &MetricsRegistry) {
        self.stats.attach_to(registry);
        self.core_metrics.attach_to(registry);
        self.workspaces.attach_to(registry);
    }

    /// The workspace pool — everything that runs Leiden (workers, the
    /// incremental update path) checks out from here so arenas stay
    /// warm.
    pub fn workspaces(&self) -> &Arc<WorkspacePool> {
        &self.workspaces
    }

    /// Submits a detect request against `graph`. Returns the job record:
    /// already `Done` (with `cached = true`) on a cache hit; `coalesced`
    /// (attached to an identical queued/running job) when one is in
    /// flight; otherwise `Queued` for the worker pool.
    pub fn submit(&self, graph: &str, request: DetectRequest) -> Result<JobRecord, String> {
        let entry = self.registry.snapshot(graph).map_err(|e| e.to_string())?;
        let key = PartitionKey {
            graph: graph.to_string(),
            epoch: entry.epoch,
            fingerprint: request.fingerprint(),
        };
        self.stats.submitted.inc();
        // Relaxed: `next_id` needs only uniqueness, which fetch_add
        // provides on its own — the record itself is published via the
        // table mutex below.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut table = lock_table(&self.table);
        // (a) Completed-work dedup: the cache already has this key.
        // Checked under the table lock so a concurrent completion
        // (cache insert → inflight removal, in that order) can never
        // slip between this check and the in-flight check below.
        if self.cache.get(&key).is_some() {
            let record = JobRecord {
                id,
                graph: graph.to_string(),
                request,
                state: JobState::Done,
                cached: true,
                coalesced: false,
                key: Some(key),
                error: None,
                seconds: Some(0.0),
                queued_at: Instant::now(),
            };
            table.records.insert(id, record.clone());
            table.finish(id);
            self.stats.completed.inc();
            return Ok(record);
        }
        // (b) Running-work dedup: an identical job is queued or running
        // — attach as a waiter instead of queueing a duplicate run.
        if let Some(primary) = table.inflight.get(&key).map(|inflight| inflight.primary) {
            let state = match table.records.get(&primary).map(|record| record.state) {
                Some(JobState::Running) => JobState::Running,
                _ => JobState::Queued,
            };
            let record = JobRecord {
                id,
                graph: graph.to_string(),
                request,
                state,
                cached: false,
                coalesced: true,
                key: Some(key.clone()),
                error: None,
                seconds: None,
                queued_at: Instant::now(),
            };
            table.records.insert(id, record.clone());
            if let Some(inflight) = table.inflight.get_mut(&key) {
                inflight.waiters.push(id);
            }
            self.stats.coalesced.inc();
            return Ok(record);
        }
        // (c) Fresh work: become the primary and enqueue.
        let record = JobRecord {
            id,
            graph: graph.to_string(),
            request,
            state: JobState::Queued,
            cached: false,
            coalesced: false,
            key: Some(key.clone()),
            error: None,
            seconds: None,
            queued_at: Instant::now(),
        };
        table.records.insert(id, record.clone());
        table.inflight.insert(
            key.clone(),
            Inflight {
                primary: id,
                waiters: Vec::new(),
            },
        );
        table.queue.push_back(id);
        self.stats.queue_depth.inc();
        drop(table);
        self.ready.notify_one();
        Ok(record)
    }

    /// Looks up a job record.
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        lock_table(&self.table).records.get(&id).cloned()
    }

    /// Cancels a job if it is still queued. Returns the new state, or
    /// `None` for unknown ids. A queued **waiter** detaches from its
    /// primary; a queued **primary with waiters** refuses to cancel
    /// (other jobs depend on its run) and stays queued.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut table = lock_table(&self.table);
        let (state, key) = {
            let record = table.records.get(&id)?;
            (record.state, record.key.clone())
        };
        if state != JobState::Queued {
            return Some(state);
        }
        if let Some(key) = key {
            if let Some(inflight) = table.inflight.get_mut(&key) {
                if inflight.primary == id {
                    if !inflight.waiters.is_empty() {
                        // Coalesced jobs ride on this run; cancelling it
                        // would strand them. Keep it queued.
                        return Some(JobState::Queued);
                    }
                    // Sole occupant: drop the in-flight entry so a later
                    // identical submit starts fresh. The worker that
                    // eventually dequeues this id sees `Cancelled` and
                    // skips it.
                    table.inflight.remove(&key);
                } else {
                    inflight.waiters.retain(|&waiter| waiter != id);
                }
            }
        }
        if let Some(record) = table.records.get_mut(&id) {
            record.state = JobState::Cancelled;
        }
        table.finish(id);
        Some(JobState::Cancelled)
    }

    /// Number of job records retained (every queued or running job plus
    /// at most [`MAX_FINISHED_JOBS`] finished ones).
    pub fn len(&self) -> usize {
        lock_table(&self.table).records.len()
    }

    /// True when no job has been submitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until `id` leaves the queued/running states or `timeout`
    /// elapses. Test/CLI convenience — the HTTP API itself only polls.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobRecord> {
        let deadline = Instant::now() + timeout;
        loop {
            let record = self.job(id)?;
            match record.state {
                JobState::Queued | JobState::Running => {
                    if Instant::now() >= deadline {
                        return Some(record);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Some(record),
            }
        }
    }

    /// Stops the worker pool (idempotent). A worker finishes the job it
    /// is running first; jobs still queued, and jobs submitted after
    /// `stop`, stay `Queued`.
    pub fn stop(&self) {
        // Closing under the table lock and notifying after it is
        // released loses no wake-up: a worker either sees `closed`
        // before it waits or is already waiting when `notify_all` runs.
        lock_table(&self.table).closed = true;
        self.ready.notify_all();
        // Take the handles out under the lock, then join with it
        // released: joining while holding `workers` would hold the
        // mutex for the whole drain.
        let handles = {
            let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *workers)
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for JobEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(
    registry: &GraphRegistry,
    cache: &PartitionCache,
    table: &Mutex<JobTable>,
    ready: &Condvar,
    stats: &JobStats,
    core_metrics: &CoreMetrics,
    workspaces: &Arc<WorkspacePool>,
) {
    loop {
        // Take the next queued id and claim its record in one critical
        // section. An idle worker blocks in the wait — no timeout, no
        // CPU burn; `submit` wakes one worker, `stop` wakes them all.
        let mut guard = lock_table(table);
        let id = loop {
            if guard.closed {
                return;
            }
            if let Some(id) = guard.queue.pop_front() {
                stats.worker_wakeups.inc();
                break id;
            }
            guard = ready.wait(guard).unwrap_or_else(PoisonError::into_inner);
            if guard.queue.is_empty() {
                stats.worker_wakeups.inc();
            }
        };
        stats.queue_depth.dec();
        // Claim the primary: mark it (and every already-attached
        // waiter) Running. The submit-time key is kept so the in-flight
        // entry can be resolved on completion even though the run may
        // land on a newer epoch.
        let Some(record) = guard.records.get_mut(&id) else {
            continue;
        };
        if record.state != JobState::Queued {
            continue; // cancelled while waiting (in-flight entry already popped)
        }
        record.state = JobState::Running;
        let (graph_name, request, queued_at, submit_key) = (
            record.graph.clone(),
            record.request.clone(),
            record.queued_at,
            record.key.clone(),
        );
        if let Some(key) = &submit_key {
            let waiters = guard
                .inflight
                .get(key)
                .map(|inflight| inflight.waiters.clone())
                .unwrap_or_default();
            for waiter in waiters {
                if let Some(waiting) = guard.records.get_mut(&waiter) {
                    waiting.state = JobState::Running;
                }
            }
        }
        drop(guard);
        stats
            .queue_wait_seconds
            .observe_duration(queued_at.elapsed());
        let outcome = run_detection(
            registry,
            cache,
            &graph_name,
            &request,
            stats,
            core_metrics,
            workspaces,
        );
        // Completion: the partition is already in the cache (inserted by
        // `run_detection` BEFORE this lock is taken), so the moment the
        // in-flight entry disappears, any concurrent submitter hits the
        // cache instead. Resolve the primary and every waiter together.
        let mut guard = lock_table(table);
        let waiters = submit_key
            .as_ref()
            .and_then(|key| guard.inflight.remove(key))
            .map(|inflight| inflight.waiters)
            .unwrap_or_default();
        for job_id in std::iter::once(id).chain(waiters) {
            let Some(record) = guard.records.get_mut(&job_id) else {
                continue;
            };
            match &outcome {
                Ok((key, seconds)) => {
                    record.state = JobState::Done;
                    record.key = Some(key.clone());
                    record.seconds = Some(*seconds);
                    stats.completed.inc();
                }
                Err(message) => {
                    record.state = JobState::Failed;
                    record.error = Some(message.clone());
                    stats.failed.inc();
                }
            }
            guard.finish(job_id);
        }
    }
}

/// Runs one full static detection and publishes it into the cache.
/// Re-snapshots the graph so the partition is keyed to the epoch it was
/// actually computed against (the graph may have advanced since submit).
/// The detection runs inside a pooled [`PassWorkspace`], so steady-state
/// requests reuse the arenas grown by earlier jobs instead of
/// reallocating them.
#[allow(clippy::too_many_arguments)]
fn run_detection(
    registry: &GraphRegistry,
    cache: &PartitionCache,
    graph_name: &str,
    request: &DetectRequest,
    stats: &JobStats,
    core_metrics: &CoreMetrics,
    workspaces: &Arc<WorkspacePool>,
) -> Result<(PartitionKey, f64), String> {
    let entry = registry.snapshot(graph_name).map_err(|e| e.to_string())?;
    let key = PartitionKey {
        graph: graph_name.to_string(),
        epoch: entry.epoch,
        fingerprint: request.fingerprint(),
    };
    // Another worker may have raced us to the same key.
    if cache.peek(&key).is_some() {
        return Ok((key, 0.0));
    }
    let config = request.to_config()?;
    let graph = Arc::clone(&entry.graph);
    let observer = RunObserver::with_metrics(core_metrics);
    let mut workspace = workspaces.checkout();
    let started = Instant::now();
    let alloc_before = alloc_count::snapshot();
    // A panicking run may leave the arena partially written; that is
    // fine to return to the pool (hence AssertUnwindSafe) because every
    // run reinitializes the prefixes it reads before using them.
    let result = catch_unwind(AssertUnwindSafe(|| {
        Leiden::new(config).run_observed_in(&graph, &mut workspace, &observer)
    }))
    .map_err(|_| "detection panicked".to_string())?;
    stats
        .core_allocs
        .add(alloc_count::snapshot().allocs_since(&alloc_before));
    drop(workspace); // park the arena for the next job
    let seconds = started.elapsed().as_secs_f64();
    stats.full_detections.inc();
    stats.run_seconds.observe(seconds);
    let modularity = gve_quality::modularity(&graph, &result.membership);
    cache.insert(
        key.clone(),
        CachedPartition {
            membership: Arc::new(result.membership),
            num_communities: result.num_communities,
            modularity,
            seconds,
            origin: PartitionOrigin::Detection,
            request: request.clone(),
        },
    );
    Ok((key, seconds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::GraphSource;
    use gve_generate::PlantedPartition;

    fn engine_with_graph(name: &str) -> (JobEngine, Arc<PartitionCache>) {
        let registry = Arc::new(GraphRegistry::new());
        let cache = Arc::new(PartitionCache::new());
        let planted = PlantedPartition::new(300, 6, 10.0, 0.5).seed(11).generate();
        registry
            .register(name, planted.graph, GraphSource::Generated("sbm".into()))
            .unwrap();
        (
            JobEngine::start(Arc::clone(&registry), Arc::clone(&cache), 2),
            cache,
        )
    }

    #[test]
    fn detect_request_parsing_and_fingerprint() {
        let body = crate::json::parse(r#"{"objective":"cpm","resolution":0.05,"seed":7}"#).unwrap();
        let request = DetectRequest::from_json(&body).unwrap();
        assert_eq!(request.objective, "cpm");
        assert_eq!(request.seed, 7);
        assert_eq!(request.fingerprint(), request.clone().fingerprint());
        assert_ne!(
            request.fingerprint(),
            DetectRequest::default().fingerprint()
        );
        let bad = crate::json::parse(r#"{"objective":"louvain"}"#).unwrap();
        assert!(DetectRequest::from_json(&bad).is_err());
    }

    /// Scheduling is part of the fingerprint, so the partition cache
    /// never serves one configuration's result for another, and bad
    /// tokens are rejected at parse time.
    #[test]
    fn detect_knobs_fingerprint_and_validate() {
        let body = crate::json::parse(r#"{"scheduling":"color-sync"}"#).unwrap();
        let request = DetectRequest::from_json(&body).unwrap();
        assert_eq!(request.scheduling, Scheduling::ColorSynchronous);

        let defaults = DetectRequest::default();
        let other = DetectRequest {
            scheduling: Scheduling::ColorSynchronous,
            ..defaults.clone()
        };
        assert_ne!(other.fingerprint(), defaults.fingerprint());

        let body = crate::json::parse(r#"{"scheduling":"chaotic"}"#).unwrap();
        assert!(DetectRequest::from_json(&body).is_err());
    }

    /// `kernel`, `layout`, `chunking`, `chunk_size` and `ordering` are
    /// no longer request fields: a body naming them — even with values
    /// that were never valid, or that would overflow a chunk cursor —
    /// parses to the defaults, fingerprints like `{}`, and is served
    /// from the default request's cached partition; the echo omits
    /// them.
    #[test]
    fn retired_detect_fields_are_ignored() {
        let empty = DetectRequest::from_json(&crate::json::parse("{}").unwrap()).unwrap();
        assert_eq!(empty, DetectRequest::default());
        let (engine, _cache) = engine_with_graph("sbm");
        let first = engine.submit("sbm", empty.clone()).unwrap();
        let record = engine.wait(first.id, Duration::from_secs(30)).unwrap();
        assert_eq!(record.state, JobState::Done, "error: {:?}", record.error);
        for body in [
            r#"{"kernel":"v1","layout":"interleaved"}"#,
            r#"{"kernel":"v9","layout":"columnar"}"#,
            r#"{"chunking":"stealing","chunk_size":18446744073709551615}"#,
            r#"{"chunking":"guided","chunk_size":0}"#,
            r#"{"ordering":"degree"}"#,
            r#"{"ordering":"random"}"#,
        ] {
            let request = DetectRequest::from_json(&crate::json::parse(body).unwrap()).unwrap();
            assert_eq!(request, empty, "{body}");
            assert_eq!(request.fingerprint(), empty.fingerprint(), "{body}");
            let submitted = engine.submit("sbm", request).unwrap();
            assert!(submitted.cached, "{body}");
        }
        assert_eq!(engine.stats.full_detections.get(), 1);
        let echo = empty.to_json();
        for retired in ["kernel", "layout", "chunking", "chunk_size", "ordering"] {
            assert!(echo.get(retired).is_none(), "{retired}");
        }
    }

    #[test]
    fn job_runs_to_done_and_second_submit_hits_cache() {
        let (engine, cache) = engine_with_graph("sbm");
        let first = engine.submit("sbm", DetectRequest::default()).unwrap();
        assert!(!first.cached);
        let record = engine.wait(first.id, Duration::from_secs(30)).unwrap();
        assert_eq!(record.state, JobState::Done, "error: {:?}", record.error);
        let partition = cache.peek(record.key.as_ref().unwrap()).unwrap();
        assert!(partition.num_communities > 1);
        assert!(partition.modularity > 0.2);

        let second = engine.submit("sbm", DetectRequest::default()).unwrap();
        assert!(second.cached);
        assert_eq!(second.state, JobState::Done);
        assert_eq!(engine.stats.full_detections.get(), 1);
        assert_eq!(engine.stats.run_seconds.count(), 1);
        assert!(engine.stats.queue_wait_seconds.count() >= 1);

        // Different config → different fingerprint → real work again.
        let other = DetectRequest {
            seed: 99,
            ..DetectRequest::default()
        };
        let third = engine.submit("sbm", other).unwrap();
        assert!(!third.cached);
        let third = engine.wait(third.id, Duration::from_secs(30)).unwrap();
        assert_eq!(third.state, JobState::Done);
        engine.stop();
    }

    /// Cache-hit detects leave a finished record each; the table keeps
    /// at most `MAX_FINISHED_JOBS` of them, evicting the oldest, and the
    /// job that just finished stays readable.
    #[test]
    fn cache_hit_records_are_bounded() {
        let (engine, _cache) = engine_with_graph("sbm");
        let first = engine.submit("sbm", DetectRequest::default()).unwrap();
        let done = engine.wait(first.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done, "error: {:?}", done.error);
        let mut last = None;
        for _ in 0..10_000 {
            let hit = engine.submit("sbm", DetectRequest::default()).unwrap();
            assert!(hit.cached);
            last = Some(hit.id);
        }
        assert!(
            engine.len() <= MAX_FINISHED_JOBS,
            "{} records retained",
            engine.len()
        );
        let last = engine.job(last.unwrap()).expect("newest record kept");
        assert_eq!(last.state, JobState::Done);
        assert!(engine.job(first.id).is_none(), "oldest record evicted");
        engine.stop();
    }

    #[test]
    fn unknown_graph_fails_at_submit_and_cancel_works_on_queued() {
        let (engine, _cache) = engine_with_graph("sbm");
        assert!(engine.submit("nope", DetectRequest::default()).is_err());
        assert!(engine.cancel(424242).is_none());
        engine.stop();
        assert!(engine.is_empty());
    }

    /// Regression test for the busy-poll worker loop: workers used to
    /// spin on `recv_timeout(20ms)`, waking ~50×/s each while idle. Now
    /// they block in `recv`, so the wakeup counter must stay flat over
    /// an idle window, and the queue must drain to depth zero.
    #[test]
    fn idle_workers_have_no_wakeups() {
        let (engine, _cache) = engine_with_graph("sbm");
        let job = engine.submit("sbm", DetectRequest::default()).unwrap();
        let record = engine.wait(job.id, Duration::from_secs(30)).unwrap();
        assert_eq!(record.state, JobState::Done);
        assert_eq!(engine.stats.queue_depth.get(), 0.0);

        let wakeups = engine.stats.worker_wakeups.get();
        assert!(wakeups >= 1, "the job itself must have woken a worker");
        // An idle window several times the old poll interval: the old
        // loop would log ~15 wakeups here, a blocking receive logs none.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(
            engine.stats.worker_wakeups.get(),
            wakeups,
            "idle workers woke up"
        );
        engine.stop();
    }

    /// Acceptance: N identical concurrent detects execute exactly ONE
    /// Leiden run. Threads race the submit across the whole
    /// queued → running → done window; every outcome must be either a
    /// cache hit (submitted after completion) or a coalesced waiter —
    /// never a duplicate detection — and all jobs resolve to the same
    /// partition key.
    #[test]
    fn concurrent_identical_submits_run_exactly_once() {
        let registry = Arc::new(GraphRegistry::new());
        let cache = Arc::new(PartitionCache::new());
        let planted = PlantedPartition::new(2000, 8, 10.0, 0.8).seed(7).generate();
        registry
            .register("sbm", planted.graph, GraphSource::Generated("sbm".into()))
            .unwrap();
        let engine = Arc::new(JobEngine::start(
            Arc::clone(&registry),
            Arc::clone(&cache),
            2,
        ));
        const CLIENTS: usize = 16;
        let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
        let records: Vec<JobRecord> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let submitted = engine.submit("sbm", DetectRequest::default()).unwrap();
                        engine
                            .wait(submitted.id, Duration::from_secs(60))
                            .expect("job record")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        assert_eq!(
            engine.stats.full_detections.get(),
            1,
            "exactly one Leiden run for {CLIENTS} identical submits"
        );
        let first_key = records[0].key.clone().unwrap();
        let mut cached = 0u64;
        for record in &records {
            assert_eq!(record.state, JobState::Done, "error: {:?}", record.error);
            assert_eq!(record.key.as_ref(), Some(&first_key), "keys diverged");
            if record.cached {
                cached += 1;
                assert!(!record.coalesced);
            }
        }
        assert_eq!(
            engine.stats.coalesced.get() + cached,
            (CLIENTS - 1) as u64,
            "every non-primary submit must be a cache hit or a waiter"
        );
        assert_eq!(engine.stats.submitted.get(), CLIENTS as u64);
        assert_eq!(engine.stats.completed.get(), CLIENTS as u64);
        // One partition in the cache serves everyone.
        assert!(cache.peek(&first_key).is_some());
        engine.stop();
    }

    /// Cancel semantics under coalescing: a queued waiter detaches; a
    /// queued primary with waiters refuses to cancel; once all waiters
    /// are gone the primary cancels and pops the in-flight entry so the
    /// next identical submit starts fresh.
    #[test]
    fn cancel_respects_coalesced_waiters() {
        let registry = Arc::new(GraphRegistry::new());
        let cache = Arc::new(PartitionCache::new());
        let blocker = PlantedPartition::new(4000, 8, 10.0, 0.8).seed(3).generate();
        let small = PlantedPartition::new(300, 6, 10.0, 0.5).seed(11).generate();
        registry
            .register(
                "blocker",
                blocker.graph,
                GraphSource::Generated("sbm".into()),
            )
            .unwrap();
        registry
            .register("small", small.graph, GraphSource::Generated("sbm".into()))
            .unwrap();
        // One worker: everything funnels through one queue.
        let engine = JobEngine::start(Arc::clone(&registry), Arc::clone(&cache), 1);
        // Keep the sole worker busy long enough to exercise queued-state
        // cancels deterministically: several distinct detections ahead.
        for seed in 0..3 {
            let request = DetectRequest {
                seed: 1000 + seed,
                ..DetectRequest::default()
            };
            engine.submit("blocker", request).unwrap();
        }
        let primary = engine.submit("small", DetectRequest::default()).unwrap();
        assert_eq!(primary.state, JobState::Queued);
        let waiter = engine.submit("small", DetectRequest::default()).unwrap();
        assert!(waiter.coalesced, "identical queued submit must coalesce");

        // Waiter cancels cleanly.
        assert_eq!(engine.cancel(waiter.id), Some(JobState::Cancelled));
        // New identical submit re-attaches to the still-queued primary.
        let waiter2 = engine.submit("small", DetectRequest::default()).unwrap();
        assert!(waiter2.coalesced);
        // Primary with a live waiter refuses to cancel.
        assert_eq!(engine.cancel(primary.id), Some(JobState::Queued));
        // Detach the waiter, then the primary cancels.
        assert_eq!(engine.cancel(waiter2.id), Some(JobState::Cancelled));
        assert_eq!(engine.cancel(primary.id), Some(JobState::Cancelled));
        // In-flight entry is gone: the next identical submit is a fresh
        // primary, not a waiter on a cancelled job.
        let fresh = engine.submit("small", DetectRequest::default()).unwrap();
        assert!(!fresh.coalesced, "cancelled run must not accrete waiters");
        let fresh = engine.wait(fresh.id, Duration::from_secs(60)).unwrap();
        assert_eq!(fresh.state, JobState::Done, "error: {:?}", fresh.error);
        assert_eq!(engine.stats.coalesced.get(), 2);
        engine.stop();
        // The cancelled jobs stayed cancelled.
        assert_eq!(engine.job(waiter.id).unwrap().state, JobState::Cancelled);
        assert_eq!(engine.job(primary.id).unwrap().state, JobState::Cancelled);
    }

    /// The workers check out from the engine's one pool and return the
    /// arena after the run; the pool and queue gauge export unlabeled.
    #[test]
    fn detect_returns_its_workspace_to_the_pool() {
        let (engine, _cache) = engine_with_graph("sbm");
        let metrics = MetricsRegistry::new();
        engine.attach_to(&metrics);
        let job = engine.submit("sbm", DetectRequest::default()).unwrap();
        let record = engine.wait(job.id, Duration::from_secs(60)).unwrap();
        assert_eq!(record.state, JobState::Done, "error: {:?}", record.error);
        assert_eq!(engine.workspaces().idle_len(), 1);
        engine.stop();
        let text = metrics.render();
        for sample in [
            "gve_jobs_queue_depth 0",
            "gve_workspace_checkouts_total 1",
            "gve_workspace_idle 1",
        ] {
            assert!(
                text.lines().any(|line| line == sample),
                "missing `{sample}` in:\n{text}"
            );
        }
    }

    #[test]
    fn attach_to_exports_job_and_core_metrics() {
        let (engine, _cache) = engine_with_graph("sbm");
        let registry = MetricsRegistry::new();
        engine.attach_to(&registry);
        let job = engine.submit("sbm", DetectRequest::default()).unwrap();
        engine.wait(job.id, Duration::from_secs(30)).unwrap();
        engine.stop();
        let text = registry.render();
        for name in [
            "gve_jobs_submitted_total 1",
            "gve_jobs_full_detections_total 1",
            "gve_jobs_queue_depth 0",
            "gve_jobs_queue_wait_seconds_count 1",
            "gve_jobs_run_seconds_count 1",
            "gve_leiden_runs_total 1",
            "gve_leiden_phase_seconds_total{phase=\"local_move\"}",
            // Zero here: the test binary does not install the counting
            // global allocator, so the counter must exist but stay flat.
            "gve_core_allocs_total 0",
        ] {
            assert!(text.contains(name), "missing `{name}` in:\n{text}");
        }
    }
}
