//! Dynamic Leiden: community detection on evolving graphs.
//!
//! The paper closes §4.1 noting that its refine-based variant "may be
//! more suitable for the design of dynamic Leiden algorithm (for dynamic
//! graphs)" — the extension its authors pursued in follow-up work. This
//! crate builds that extension on top of `gve-leiden`:
//!
//! * [`BatchUpdate`] — a batch of edge insertions and deletions,
//!   applied to a CSR graph with [`apply_batch`];
//! * [`DynamicStrategy`] — how much prior work is reused per batch:
//!   - `DynamicFrontier` (the default, and the one refresh `gve-serve`
//!     runs): seed with the previous membership and mark only the
//!     endpoints of changed edges (plus their neighbours); the pruning
//!     flags spread the wave exactly as far as it needs to go;
//!   - `FullStatic`: rerun from scratch, kept as the correctness
//!     reference and the comparator the benches measure against;
//! * [`DynamicLeiden`] — a stateful detector that owns the evolving
//!   graph and its current membership and processes batches;
//! * [`refresh_in`] — the same batch step on borrowed state, for callers
//!   that keep the graph and membership themselves.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod frontier;
pub mod stream;
pub mod update;

pub use frontier::dynamic_frontier;
pub use stream::{collect_windows, ChurnStream, TimedUpdate, UpdateKind};
pub use update::{apply_batch, BatchUpdate};

use gve_graph::{CsrGraph, VertexId};
use gve_leiden::{Leiden, LeidenConfig, LeidenResult, PassWorkspace};
use std::borrow::Cow;

/// How a batch update is propagated into the community structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DynamicStrategy {
    /// Rerun static GVE-Leiden from scratch on the updated graph.
    FullStatic,
    /// Seed with the previous membership and restrict initial processing
    /// to the batch's frontier (Dynamic Frontier).
    #[default]
    DynamicFrontier,
}

/// Stateful dynamic community detector over an evolving graph.
#[derive(Debug, Clone)]
pub struct DynamicLeiden {
    runner: Leiden,
    strategy: DynamicStrategy,
    graph: CsrGraph,
    membership: Vec<VertexId>,
    batches_applied: usize,
}

impl DynamicLeiden {
    /// Creates the detector and runs an initial static detection.
    pub fn new(graph: CsrGraph, config: LeidenConfig, strategy: DynamicStrategy) -> Self {
        let runner = Leiden::new(config);
        let initial = runner.run(&graph);
        Self {
            runner,
            strategy,
            graph,
            membership: initial.membership,
            batches_applied: 0,
        }
    }

    /// Creates the detector from an **existing** partition, without
    /// re-running static detection.
    ///
    /// This is the stateful refresh handle long-lived consumers (e.g.
    /// `gve-serve`'s partition cache) use: they already paid for a
    /// detection, and only want incremental batch refreshes from here
    /// on. Returns an error when `membership` does not cover the
    /// graph's vertices.
    pub fn from_state(
        graph: CsrGraph,
        membership: Vec<VertexId>,
        config: LeidenConfig,
        strategy: DynamicStrategy,
    ) -> Result<Self, String> {
        check_covers(&graph, &membership)?;
        config.validate()?;
        Ok(Self {
            runner: Leiden::new(config),
            strategy,
            graph,
            membership,
            batches_applied: 0,
        })
    }

    /// The current graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The current community membership (dense ids).
    pub fn membership(&self) -> &[VertexId] {
        &self.membership
    }

    /// Number of batches processed so far.
    pub fn batches_applied(&self) -> usize {
        self.batches_applied
    }

    /// The update strategy in use.
    pub fn strategy(&self) -> DynamicStrategy {
        self.strategy
    }

    /// Applies a batch of edge updates and refreshes the communities
    /// according to the configured strategy. Returns the full result of
    /// the refresh run.
    pub fn apply(&mut self, batch: &BatchUpdate) -> LeidenResult {
        self.apply_in(batch, &mut PassWorkspace::new())
    }

    /// [`apply`](Self::apply) through a caller-provided workspace arena,
    /// so long-lived consumers (the serve worker pool) refresh batches
    /// with zero steady-state hot-path allocations.
    pub fn apply_in(&mut self, batch: &BatchUpdate, workspace: &mut PassWorkspace) -> LeidenResult {
        let (graph, result) = refresh_in(
            &self.runner,
            self.strategy,
            &self.graph,
            &self.membership,
            batch,
            workspace,
        )
        .expect("the detector's membership covers its graph");
        self.graph = graph;
        self.membership.clone_from(&result.membership);
        self.batches_applied += 1;
        result
    }
}

/// Fails unless `membership` has one entry per vertex of `graph`.
fn check_covers(graph: &CsrGraph, membership: &[VertexId]) -> Result<(), String> {
    if membership.len() != graph.num_vertices() {
        return Err(format!(
            "membership covers {} vertices but the graph has {}",
            membership.len(),
            graph.num_vertices()
        ));
    }
    Ok(())
}

/// The borrowing core of [`DynamicLeiden::apply_in`]: applies `batch` to
/// `graph`, refreshes `membership` (the partition current on `graph`)
/// by `strategy`, and returns the new graph with the refresh result.
/// Neither input is copied, so a caller that keeps its state elsewhere
/// (the serve registry and partition cache) holds one copy of each.
/// Returns an error when `membership` does not cover `graph`'s vertices.
pub fn refresh_in(
    runner: &Leiden,
    strategy: DynamicStrategy,
    graph: &CsrGraph,
    membership: &[VertexId],
    batch: &BatchUpdate,
    workspace: &mut PassWorkspace,
) -> Result<(CsrGraph, LeidenResult), String> {
    check_covers(graph, membership)?;
    let new_graph = apply_batch(graph, batch);
    // Vertices appended by the batch join as singletons.
    let grown = new_graph.num_vertices() - membership.len();
    let previous: Cow<'_, [VertexId]> = if grown == 0 {
        Cow::Borrowed(membership)
    } else {
        let next_id = membership.iter().map(|&c| c + 1).max().unwrap_or(0);
        Cow::Owned(
            membership
                .iter()
                .copied()
                .chain((next_id..).take(grown))
                .collect(),
        )
    };

    let result = match strategy {
        DynamicStrategy::FullStatic => runner.run_in(&new_graph, workspace),
        DynamicStrategy::DynamicFrontier => {
            let frontier = dynamic_frontier(&new_graph, &previous, batch);
            runner.run_frontier_in(&new_graph, &previous, &frontier, workspace)
        }
    };
    Ok((new_graph, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gve_generate::PlantedPartition;
    use gve_prim::Xorshift32;

    fn random_batch(
        graph: &CsrGraph,
        insertions: usize,
        deletions: usize,
        seed: u32,
    ) -> BatchUpdate {
        let mut rng = Xorshift32::new(seed);
        let n = graph.num_vertices() as u32;
        let mut batch = BatchUpdate::new();
        for _ in 0..insertions {
            let u = rng.next_bounded(n);
            let v = rng.next_bounded(n);
            if u != v {
                batch.insert(u, v, 1.0);
            }
        }
        let mut attempts = 0;
        while batch.deletions.len() < deletions && attempts < deletions * 20 {
            attempts += 1;
            let u = rng.next_bounded(n);
            let neighbors = graph.neighbors(u);
            if neighbors.is_empty() {
                continue;
            }
            let v = neighbors[rng.next_bounded(neighbors.len() as u32) as usize];
            if u != v {
                batch.delete(u, v);
            }
        }
        batch
    }

    fn planted_graph(seed: u64) -> (CsrGraph, Vec<u32>) {
        let planted = PlantedPartition::new(1500, 10, 14.0, 1.0)
            .seed(seed)
            .generate();
        (planted.graph, planted.labels)
    }

    #[test]
    fn every_strategy_tracks_static_quality() {
        let (graph, _) = planted_graph(5);
        let static_detector = Leiden::default();
        for strategy in [
            DynamicStrategy::FullStatic,
            DynamicStrategy::DynamicFrontier,
        ] {
            let mut dynamic = DynamicLeiden::new(graph.clone(), LeidenConfig::default(), strategy);
            let mut current = graph.clone();
            for step in 0..3 {
                let batch = random_batch(&current, 60, 40, 100 + step);
                dynamic.apply(&batch);
                current = apply_batch(&current, &batch);
                let q_dynamic = gve_quality::modularity(&current, dynamic.membership());
                let q_static =
                    gve_quality::modularity(&current, &static_detector.run(&current).membership);
                assert!(
                    q_dynamic > q_static - 0.03,
                    "{strategy:?} step {step}: dynamic Q {q_dynamic} vs static {q_static}"
                );
            }
            assert_eq!(dynamic.batches_applied(), 3);
        }
    }

    #[test]
    fn dynamic_communities_stay_connected() {
        let (graph, _) = planted_graph(9);
        let mut dynamic = DynamicLeiden::new(
            graph.clone(),
            LeidenConfig::default(),
            DynamicStrategy::DynamicFrontier,
        );
        for step in 0..4 {
            let batch = random_batch(dynamic.graph(), 40, 30, 500 + step);
            dynamic.apply(&batch);
            let report =
                gve_quality::disconnected_communities(dynamic.graph(), dynamic.membership());
            assert!(
                report.all_connected(),
                "step {step}: {} disconnected",
                report.disconnected
            );
        }
    }

    #[test]
    fn batch_can_grow_the_vertex_set() {
        let (graph, _) = planted_graph(3);
        let n = graph.num_vertices() as u32;
        let mut dynamic = DynamicLeiden::new(
            graph,
            LeidenConfig::default(),
            DynamicStrategy::DynamicFrontier,
        );
        let mut batch = BatchUpdate::new();
        batch.insert(0, n, 1.0); // brand-new vertex n
        batch.insert(n, n + 1, 1.0); // and n + 1
        dynamic.apply(&batch);
        assert_eq!(dynamic.graph().num_vertices(), n as usize + 2);
        assert_eq!(dynamic.membership().len(), n as usize + 2);
        gve_quality::validate_membership(dynamic.membership(), n as usize + 2).unwrap();
    }

    #[test]
    fn empty_batch_is_a_noop_refresh() {
        let (graph, _) = planted_graph(7);
        let mut dynamic = DynamicLeiden::new(
            graph.clone(),
            LeidenConfig::default(),
            DynamicStrategy::DynamicFrontier,
        );
        let before = gve_quality::modularity(&graph, dynamic.membership());
        dynamic.apply(&BatchUpdate::new());
        let after = gve_quality::modularity(&graph, dynamic.membership());
        assert!(
            after > before - 0.01,
            "refresh lost quality: {before} -> {after}"
        );
        assert_eq!(dynamic.graph(), &graph);
    }

    #[test]
    fn default_strategy_is_dynamic_frontier() {
        assert_eq!(DynamicStrategy::default(), DynamicStrategy::DynamicFrontier);
    }

    /// `refresh_in` on borrowed state gives the graph and result
    /// `apply` gives, including when the batch grows the vertex set, and
    /// rejects a membership that does not cover the graph.
    #[test]
    fn refresh_in_matches_apply_and_checks_coverage() {
        let (graph, _) = planted_graph(17);
        let n = graph.num_vertices() as VertexId;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        pool.install(|| {
            let mut dynamic = DynamicLeiden::new(
                graph.clone(),
                LeidenConfig::default(),
                DynamicStrategy::DynamicFrontier,
            );
            let membership = dynamic.membership().to_vec();
            let mut batch = random_batch(&graph, 40, 20, 77);
            batch.insert(0, n + 1, 1.0);
            let runner = Leiden::new(LeidenConfig::default());
            let mut ws = PassWorkspace::new();
            let (refreshed, result) = refresh_in(
                &runner,
                DynamicStrategy::DynamicFrontier,
                &graph,
                &membership,
                &batch,
                &mut ws,
            )
            .unwrap();
            let applied = dynamic.apply(&batch);
            assert_eq!(&refreshed, dynamic.graph());
            assert_eq!(result.membership, applied.membership);
            assert_eq!(result.membership.len(), n as usize + 2);

            let short = refresh_in(
                &runner,
                DynamicStrategy::DynamicFrontier,
                &graph,
                &membership[1..],
                &batch,
                &mut ws,
            );
            assert!(short.unwrap_err().contains("membership covers"));
        });
    }

    /// `apply_in` through one reused workspace matches `apply` with a
    /// fresh workspace bit-for-bit (1-thread pool for determinism).
    #[test]
    fn apply_in_reused_workspace_matches_apply() {
        let (graph, _) = planted_graph(13);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        pool.install(|| {
            let mut fresh = DynamicLeiden::new(
                graph.clone(),
                LeidenConfig::default(),
                DynamicStrategy::DynamicFrontier,
            );
            let mut reused = fresh.clone();
            let mut ws = PassWorkspace::new();
            for step in 0..3 {
                let batch = random_batch(fresh.graph(), 50, 30, 900 + step);
                let a = fresh.apply(&batch);
                let b = reused.apply_in(&batch, &mut ws);
                assert_eq!(a.membership, b.membership, "step {step}");
                assert_eq!(a.passes, b.passes, "step {step}");
            }
        });
    }
}
