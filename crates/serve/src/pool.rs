//! Per-engine pooling of [`PassWorkspace`] arenas.
//!
//! Every full detection needs a workspace — membership/sigma atomics,
//! renumbering scratch, aggregation CSR buffers — sized to the largest
//! graph it has seen. Allocating one per request would throw away the
//! whole point of the pass-resident arena, so the job engine keeps a
//! small free list here: a worker checks a workspace out for the
//! duration of one detection and the RAII guard returns it on drop
//! (including on panic, which is safe because every run reinitializes
//! the prefixes it reads). Steady state is one resident workspace per
//! concurrently active worker and **zero** Leiden-hot-path allocations
//! per request once the arenas have grown to the serving graph sizes.

use gve_leiden::PassWorkspace;
use gve_obs::{Counter, Gauge, MetricsRegistry};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

/// A free list of pass-resident workspaces shared by the worker pool.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<PassWorkspace>>,
    /// Workspaces handed out (reuses + fresh builds).
    pub checkouts: Counter,
    /// Workspaces built because the free list was empty.
    pub created: Counter,
    /// Workspaces currently parked in the free list.
    pub idle: Gauge,
    /// Heap bytes the parked workspaces hold
    /// ([`PassWorkspace::resident_bytes`] summed over the free list).
    pub resident_bytes: Gauge,
}

impl WorkspacePool {
    /// An empty pool; workspaces are built lazily on first checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks a workspace out, reusing a parked one when available.
    /// The guard returns it to the pool on drop.
    pub fn checkout(self: &Arc<Self>) -> PooledWorkspace {
        self.checkouts.inc();
        let reused = {
            let mut free = self.free.lock().expect("workspace pool poisoned");
            let reused = free.pop();
            self.publish_resident(&free);
            reused
        };
        if reused.is_some() {
            self.idle.dec();
        }
        let workspace = reused.unwrap_or_else(|| {
            self.created.inc();
            PassWorkspace::new()
        });
        PooledWorkspace {
            pool: Arc::clone(self),
            workspace: Some(workspace),
        }
    }

    /// Number of workspaces currently parked.
    pub fn idle_len(&self) -> usize {
        self.free.lock().expect("workspace pool poisoned").len()
    }

    /// Sets the resident gauge to what the parked workspaces `free` hold.
    fn publish_resident(&self, free: &[PassWorkspace]) {
        let bytes: usize = free.iter().map(PassWorkspace::resident_bytes).sum();
        self.resident_bytes.set(bytes as f64);
    }

    /// Registers the pool's counters with `registry`.
    pub fn attach_to(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "gve_workspace_checkouts_total",
            "Workspace checkouts by detection workers.",
            &[],
            &self.checkouts,
        );
        registry.register_counter(
            "gve_workspace_created_total",
            "Workspaces built because the free list was empty.",
            &[],
            &self.created,
        );
        registry.register_gauge(
            "gve_workspace_idle",
            "Workspaces currently parked in the free list.",
            &[],
            &self.idle,
        );
        registry.register_gauge(
            "gve_workspace_resident_bytes",
            "Heap bytes held by the workspaces parked in the free list.",
            &[],
            &self.resident_bytes,
        );
    }
}

/// RAII checkout of one [`PassWorkspace`]; derefs to the workspace and
/// returns it to its pool on drop.
#[derive(Debug)]
pub struct PooledWorkspace {
    pool: Arc<WorkspacePool>,
    workspace: Option<PassWorkspace>,
}

impl Deref for PooledWorkspace {
    type Target = PassWorkspace;
    fn deref(&self) -> &PassWorkspace {
        self.workspace.as_ref().expect("workspace taken")
    }
}

impl DerefMut for PooledWorkspace {
    fn deref_mut(&mut self) -> &mut PassWorkspace {
        self.workspace.as_mut().expect("workspace taken")
    }
}

impl Drop for PooledWorkspace {
    fn drop(&mut self) {
        if let Some(workspace) = self.workspace.take() {
            let mut free = self.pool.free.lock().expect("workspace pool poisoned");
            free.push(workspace);
            self.pool.publish_resident(&free);
            drop(free);
            self.pool.idle.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_returned_workspaces() {
        let pool = Arc::new(WorkspacePool::new());
        {
            let mut first = pool.checkout();
            first.ensure(100, 400);
            assert!(first.capacity() >= 100);
        } // returned here
        assert_eq!(pool.idle_len(), 1);
        let second = pool.checkout();
        assert!(
            second.capacity() >= 100,
            "second checkout must reuse the grown arena"
        );
        assert_eq!(pool.created.get(), 1, "only one workspace ever built");
        assert_eq!(pool.checkouts.get(), 2);
        drop(second);
        assert_eq!(pool.idle.get(), 1.0);
    }

    #[test]
    fn concurrent_checkouts_build_distinct_workspaces() {
        let pool = Arc::new(WorkspacePool::new());
        let a = pool.checkout();
        let b = pool.checkout();
        assert_eq!(pool.created.get(), 2);
        drop(a);
        drop(b);
        assert_eq!(pool.idle_len(), 2);
        // Both parked arenas are reusable.
        let _c = pool.checkout();
        let _d = pool.checkout();
        assert_eq!(pool.created.get(), 2, "no new builds after returns");
    }

    #[test]
    fn attach_to_exports_pool_metrics() {
        let pool = Arc::new(WorkspacePool::new());
        let registry = MetricsRegistry::new();
        pool.attach_to(&registry);
        let _ws = pool.checkout();
        let text = registry.render();
        assert!(text.contains("gve_workspace_checkouts_total 1"), "{text}");
        assert!(text.contains("gve_workspace_created_total 1"), "{text}");
        assert!(text.contains("gve_workspace_idle 0"), "{text}");
        assert!(text.contains("gve_workspace_resident_bytes 0"), "{text}");
    }

    #[test]
    fn resident_gauge_sums_the_parked_workspaces() {
        let pool = Arc::new(WorkspacePool::new());
        let (mut a, mut b) = (pool.checkout(), pool.checkout());
        a.ensure(100, 400);
        b.ensure(50, 100);
        let (bytes_a, bytes_b) = (a.resident_bytes(), b.resident_bytes());
        drop(a);
        assert_eq!(pool.resident_bytes.get(), bytes_a as f64);
        drop(b);
        assert_eq!(pool.resident_bytes.get(), (bytes_a + bytes_b) as f64);
        // A checkout takes the last parked workspace out of the sum.
        let again = pool.checkout();
        assert_eq!(again.resident_bytes(), bytes_b);
        assert_eq!(pool.resident_bytes.get(), bytes_a as f64);
    }
}
