//! Partition cache.
//!
//! Detection results are memoized under `(graph name, graph epoch,
//! config fingerprint)`. Identical queries against an unchanged graph
//! are answered without touching the job engine; an epoch bump (dynamic
//! update) naturally misses, and stale epochs are evicted eagerly so
//! the cache never grows with graph history. A per-graph **latest**
//! pointer backs the membership/community read endpoints, which want
//! "the current partition" without restating a config.
//!
//! The entry table and the latest pointers live under **one** mutex:
//! with two, an `insert` that had stored its entry but not yet updated
//! `latest` could interleave with `evict_stale`, leaving `latest`
//! pointing at an evicted key forever (the read endpoints would then
//! 404 on a graph that has a perfectly good partition).

use crate::jobs::DetectRequest;
use gve_graph::VertexId;
use gve_obs::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key: which graph state and which detection config.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PartitionKey {
    /// Registered graph name.
    pub graph: String,
    /// Graph epoch the partition was computed against.
    pub epoch: u64,
    /// Fingerprint of the detection config.
    pub fingerprint: u64,
}

/// How a cached partition was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionOrigin {
    /// Full detection by a job-engine worker.
    Detection,
    /// Incremental refresh after a dynamic-update batch.
    IncrementalRefresh,
}

impl PartitionOrigin {
    /// Wire label.
    pub fn label(&self) -> &'static str {
        match self {
            PartitionOrigin::Detection => "detection",
            PartitionOrigin::IncrementalRefresh => "incremental-refresh",
        }
    }
}

/// A memoized detection result.
#[derive(Debug, Clone)]
pub struct CachedPartition {
    /// Dense community membership.
    pub membership: Arc<Vec<VertexId>>,
    /// Number of communities.
    pub num_communities: usize,
    /// Modularity at computation time.
    pub modularity: f64,
    /// Wall-clock seconds the computation took.
    pub seconds: f64,
    /// Full detection or incremental refresh.
    pub origin: PartitionOrigin,
    /// The request that produced this partition — kept so dynamic
    /// updates can refresh under the same configuration.
    pub request: DetectRequest,
}

/// Monotonic counters exported through `/stats` and `/metrics`.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Detect requests answered from cache.
    pub hits: Counter,
    /// Detect requests that had to compute.
    pub misses: Counter,
    /// Partitions inserted (jobs + refreshes).
    pub insertions: Counter,
    /// Entries evicted because their epoch went stale.
    pub evictions: Counter,
}

impl CacheStats {
    /// Registers the counters with `registry` under `gve_cache_*` names.
    pub fn attach_to(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "gve_cache_hits_total",
            "Detect requests answered from the partition cache.",
            &[],
            &self.hits,
        );
        registry.register_counter(
            "gve_cache_misses_total",
            "Detect requests that had to compute.",
            &[],
            &self.misses,
        );
        registry.register_counter(
            "gve_cache_insertions_total",
            "Partitions inserted into the cache (jobs + refreshes).",
            &[],
            &self.insertions,
        );
        registry.register_counter(
            "gve_cache_evictions_total",
            "Cache entries evicted because their epoch went stale.",
            &[],
            &self.evictions,
        );
    }
}

/// Entry table + latest pointers, guarded together so every public
/// operation is atomic with respect to both maps.
#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<PartitionKey, Arc<CachedPartition>>,
    latest: HashMap<String, PartitionKey>,
}

/// Callback invoked after every [`PartitionCache::insert`] publish —
/// the single choke point through which both producers (detect jobs and
/// incremental refreshes) flow, so durability logging and the delta
/// ring see every partition without either producer knowing they exist.
type InsertListener = Box<dyn Fn(&PartitionKey, &Arc<CachedPartition>) + Send + Sync>;

/// The shared partition cache.
#[derive(Default)]
pub struct PartitionCache {
    inner: Mutex<CacheInner>,
    /// Set at most once, at boot, *after* recovery has re-seeded the
    /// cache — recovered partitions must not be re-logged. Invoked
    /// outside the inner lock, so a listener doing IO (the WAL append)
    /// never blocks cache readers.
    listener: OnceLock<InsertListener>,
    /// Counter block (public for `/stats` reporting).
    pub stats: CacheStats,
}

impl std::fmt::Debug for PartitionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionCache")
            .field("resident", &self.len())
            .field("has_listener", &self.listener.get().is_some())
            .finish()
    }
}

impl PartitionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache lookup, counting a hit or miss.
    pub fn get(&self, key: &PartitionKey) -> Option<Arc<CachedPartition>> {
        let found = self
            .inner
            .lock()
            .expect("cache lock poisoned")
            .entries
            .get(key)
            .cloned();
        match &found {
            Some(_) => self.stats.hits.inc(),
            None => self.stats.misses.inc(),
        };
        found
    }

    /// Lookup without counting (used by read endpoints and the job
    /// engine's double-check, which are not "detect requests").
    pub fn peek(&self, key: &PartitionKey) -> Option<Arc<CachedPartition>> {
        self.inner
            .lock()
            .expect("cache lock poisoned")
            .entries
            .get(key)
            .cloned()
    }

    /// Installs the insert listener. At most one listener may ever be
    /// installed; later calls are ignored (`OnceLock` semantics).
    pub fn set_listener(
        &self,
        listener: impl Fn(&PartitionKey, &Arc<CachedPartition>) + Send + Sync + 'static,
    ) {
        let _ = self.listener.set(Box::new(listener));
    }

    /// Inserts a partition and makes it the graph's latest, unless the
    /// latest is already at a newer epoch (a detect that finishes after
    /// an update's refresh must not move `latest` back). The entry and
    /// the latest pointer are published under one lock, so readers
    /// never observe a `latest` that does not resolve. The insert
    /// listener (durability + delta ring), when installed, runs after
    /// the lock releases.
    pub fn insert(&self, key: PartitionKey, partition: CachedPartition) -> Arc<CachedPartition> {
        let partition = Arc::new(partition);
        {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            inner.entries.insert(key.clone(), Arc::clone(&partition));
            let newer = inner
                .latest
                .get(&key.graph)
                .is_some_and(|latest| latest.epoch > key.epoch);
            if !newer {
                inner.latest.insert(key.graph.clone(), key.clone());
            }
        }
        self.stats.insertions.inc();
        if let Some(listener) = self.listener.get() {
            listener(&key, &partition);
        }
        partition
    }

    /// The most recent partition for `graph`, with its key.
    pub fn latest(&self, graph: &str) -> Option<(PartitionKey, Arc<CachedPartition>)> {
        let inner = self.inner.lock().expect("cache lock poisoned");
        let key = inner.latest.get(graph)?.clone();
        let partition = inner.entries.get(&key).cloned()?;
        Some((key, partition))
    }

    /// The partition `graph`'s read endpoints serve at `epoch`: the
    /// latest one when it is at `epoch`, else the entry at `epoch` under
    /// the latest one's fingerprint. An update inserts its refreshed
    /// partition before it publishes the new epoch, and evicts the old
    /// epoch only after, so a reader that still sees the old epoch finds
    /// the old partition here.
    pub fn current(&self, graph: &str, epoch: u64) -> Option<Arc<CachedPartition>> {
        let inner = self.inner.lock().expect("cache lock poisoned");
        let latest = inner.latest.get(graph)?;
        if latest.epoch == epoch {
            return inner.entries.get(latest).cloned();
        }
        let key = PartitionKey {
            graph: graph.to_string(),
            epoch,
            fingerprint: latest.fingerprint,
        };
        inner.entries.get(&key).cloned()
    }

    /// Evicts every entry of `graph` whose epoch predates
    /// `current_epoch`. Called after an update batch bumps the epoch.
    pub fn evict_stale(&self, graph: &str, current_epoch: u64) -> usize {
        let evicted = {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            let before = inner.entries.len();
            inner
                .entries
                .retain(|key, _| key.graph != graph || key.epoch >= current_epoch);
            let evicted = before - inner.entries.len();
            if let Some(key) = inner.latest.get(graph) {
                if key.epoch < current_epoch {
                    inner.latest.remove(graph);
                }
            }
            evicted
        };
        self.stats.evictions.add(evicted as u64);
        evicted
    }

    /// Drops every entry of `graph` (graph deregistered).
    pub fn forget_graph(&self, graph: &str) {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.entries.retain(|key, _| key.graph != graph);
        inner.latest.remove(graph);
    }

    /// Number of resident partitions.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("cache lock poisoned")
            .entries
            .len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Invariant check: the latest pointer for `graph`, when present,
    /// resolves to a live entry. Always true with the single-lock
    /// layout; the old two-mutex layout could violate it permanently.
    #[cfg(test)]
    fn latest_resolves(&self, graph: &str) -> bool {
        let inner = self.inner.lock().expect("cache lock poisoned");
        match inner.latest.get(graph) {
            Some(key) => inner.entries.contains_key(key),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(graph: &str, epoch: u64, fingerprint: u64) -> PartitionKey {
        PartitionKey {
            graph: graph.to_string(),
            epoch,
            fingerprint,
        }
    }

    fn partition(communities: usize) -> CachedPartition {
        CachedPartition {
            membership: Arc::new(vec![0; 4]),
            num_communities: communities,
            modularity: 0.5,
            seconds: 0.01,
            origin: PartitionOrigin::Detection,
            request: DetectRequest::default(),
        }
    }

    #[test]
    fn hit_and_miss_counters() {
        let cache = PartitionCache::new();
        assert!(cache.get(&key("g", 0, 7)).is_none());
        cache.insert(key("g", 0, 7), partition(2));
        assert!(cache.get(&key("g", 0, 7)).is_some());
        assert!(
            cache.get(&key("g", 1, 7)).is_none(),
            "epoch is part of the key"
        );
        assert!(
            cache.get(&key("g", 0, 8)).is_none(),
            "fingerprint is part of the key"
        );
        assert_eq!(cache.stats.hits.get(), 1);
        assert_eq!(cache.stats.misses.get(), 3);
    }

    #[test]
    fn latest_tracks_most_recent_insert() {
        let cache = PartitionCache::new();
        cache.insert(key("g", 0, 1), partition(2));
        cache.insert(key("g", 0, 2), partition(3));
        let (k, p) = cache.latest("g").unwrap();
        assert_eq!(k.fingerprint, 2);
        assert_eq!(p.num_communities, 3);
        assert!(cache.latest("other").is_none());
    }

    #[test]
    fn stale_epochs_are_evicted() {
        let cache = PartitionCache::new();
        cache.insert(key("g", 0, 1), partition(2));
        cache.insert(key("g", 0, 2), partition(2));
        cache.insert(key("h", 0, 1), partition(2));
        cache.insert(key("g", 1, 1), partition(4));
        assert_eq!(cache.evict_stale("g", 1), 2);
        assert_eq!(cache.len(), 2);
        assert!(
            cache.peek(&key("h", 0, 1)).is_some(),
            "other graphs untouched"
        );
        let (k, p) = cache.latest("g").unwrap();
        assert_eq!((k.epoch, p.num_communities), (1, 4));
    }

    #[test]
    fn latest_cleared_when_its_epoch_goes_stale() {
        let cache = PartitionCache::new();
        cache.insert(key("g", 0, 1), partition(2));
        cache.evict_stale("g", 5);
        assert!(cache.latest("g").is_none());
        cache.insert(key("g", 5, 1), partition(2));
        cache.forget_graph("g");
        assert!(cache.latest("g").is_none());
        assert!(cache.is_empty());
    }

    /// An update inserts its refreshed partition before it publishes
    /// the new epoch: readers of either epoch find their partition until
    /// the old one is evicted.
    #[test]
    fn current_serves_the_epoch_a_reader_saw() {
        let cache = PartitionCache::new();
        cache.insert(key("g", 0, 1), partition(2));
        cache.insert(key("g", 0, 2), partition(3));
        cache.insert(key("g", 1, 2), partition(4));
        assert_eq!(cache.current("g", 0).unwrap().num_communities, 3);
        assert_eq!(cache.current("g", 1).unwrap().num_communities, 4);
        assert!(cache.current("g", 2).is_none());
        assert!(cache.current("h", 0).is_none());

        // A detect of epoch 0 that finishes late is cached but does not
        // move the latest pointer back.
        cache.insert(key("g", 0, 3), partition(5));
        assert_eq!(cache.latest("g").unwrap().0, key("g", 1, 2));

        cache.evict_stale("g", 1);
        assert!(cache.current("g", 0).is_none());
        assert_eq!(cache.current("g", 1).unwrap().num_communities, 4);
    }

    #[test]
    fn attach_to_exports_cache_counters() {
        let cache = PartitionCache::new();
        let registry = MetricsRegistry::new();
        cache.stats.attach_to(&registry);
        cache.insert(key("g", 0, 1), partition(2));
        let _ = cache.get(&key("g", 0, 1));
        let text = registry.render();
        assert!(text.contains("gve_cache_hits_total 1"), "{text}");
        assert!(text.contains("gve_cache_insertions_total 1"), "{text}");
    }

    /// Regression test for the two-mutex race: `insert` used to publish
    /// the entry and the latest pointer under separate locks, so a
    /// concurrent `evict_stale` could land in the window, evict the
    /// just-inserted entry, and then have `insert` install a latest
    /// pointer at the evicted key — permanently, if a competing insert
    /// for a newer epoch had already finished. With the single-lock
    /// layout `latest_resolves` holds at every instant.
    #[test]
    fn latest_never_points_at_an_evicted_key() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const ROUNDS: u64 = 2000;
        let cache = Arc::new(PartitionCache::new());
        let done = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();

        // Inserter: one partition per epoch, epochs strictly rising.
        {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    cache.insert(key("g", i, i), partition(2));
                }
            }));
        }
        // Evictor: races the update-batch eviction sweep against the
        // inserter, repeatedly bumping the stale horizon.
        {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for e in 0..ROUNDS {
                    cache.evict_stale("g", e);
                    cache.latest("g");
                }
            }));
        }
        // Checker: the latest pointer must resolve at every instant.
        {
            let cache = Arc::clone(&cache);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                // Relaxed: test-only stop flag, no data guarded by it.
                while !done.load(Ordering::Relaxed) {
                    assert!(
                        cache.latest_resolves("g"),
                        "latest points at an evicted key"
                    );
                }
            }));
        }

        let checker = handles.pop().expect("checker handle");
        for h in handles {
            h.join().expect("cache race thread panicked");
        }
        done.store(true, Ordering::Relaxed);
        checker.join().expect("checker panicked");

        // Quiesced end state: the newest insert survived the sweeps and
        // is reachable through `latest`.
        assert!(cache.latest_resolves("g"));
        let (k, _) = cache.latest("g").expect("latest after quiesce");
        assert_eq!(k.epoch, ROUNDS - 1);
    }
}
