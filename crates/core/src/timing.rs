//! Phase and pass timing instrumentation.
//!
//! Figure 7 of the paper splits GVE-Leiden's runtime by phase
//! (local-moving / refinement / aggregation / others) and by pass (first
//! vs rest); Figure 9 splits the strong-scaling curves the same way.
//! Every run records enough to regenerate those plots.

use std::time::Duration;

/// Accumulated time per algorithm phase across all passes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTimings {
    /// Local-moving phase (Algorithm 2).
    pub local_move: Duration,
    /// Refinement phase (Algorithm 3).
    pub refinement: Duration,
    /// Aggregation phase (Algorithm 4).
    pub aggregation: Duration,
    /// Everything else: initialization, renumbering, dendrogram lookup,
    /// membership resets.
    pub other: Duration,
}

impl PhaseTimings {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.local_move + self.refinement + self.aggregation + self.other
    }

    /// Per-phase fractions `(local, refine, aggregate, other)` of the
    /// total — the Figure 7(a) split. All zeros for a zero total.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.local_move.as_secs_f64() / total,
            self.refinement.as_secs_f64() / total,
            self.aggregation.as_secs_f64() / total,
            self.other.as_secs_f64() / total,
        )
    }

    /// Element-wise sum, for averaging across repetitions.
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.local_move += other.local_move;
        self.refinement += other.refinement;
        self.aggregation += other.aggregation;
        self.other += other.other;
    }
}

/// Statistics of one pass of the algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct PassStats {
    /// Pass index (0-based).
    pub pass: usize,
    /// Vertices in the graph this pass operated on.
    pub vertices: usize,
    /// Directed arcs in that graph.
    pub arcs: usize,
    /// Local-moving iterations performed (`l_i`).
    pub move_iterations: usize,
    /// Total objective gain of each local-moving iteration — the raw
    /// convergence curve (its length equals `move_iterations`).
    pub iteration_gains: Vec<f64>,
    /// Vertices the refinement phase moved (`l_j`; a Louvain pass,
    /// which has no refinement, reports 0).
    pub refine_moves: u64,
    /// Communities after refinement.
    pub communities: usize,
    /// Vertices claimed (processed) by the pruning bitset across all
    /// local-moving iterations of this pass.
    pub pruning_processed: u64,
    /// Vertices skipped because their pruning flag was already clear —
    /// work the flag-based pruning optimization avoided.
    pub pruning_skipped: u64,
    /// Per-iteration gain tolerance this pass ran with (the threshold
    /// scaling schedule: `initial_tolerance / tolerance_drop^pass`).
    pub tolerance: f64,
    /// Chunks claimed by the local-moving and refinement loops this
    /// pass: `vertices.div_ceil(DEFAULT_CHUNK)` per loop, 0 on the
    /// color-synchronous path.
    pub sched_chunks: u64,
    /// Always 0: every chunk is claimed from the one shared cursor, so
    /// none is stolen. Kept only because the benchmark ledger reads it
    /// (as `leiden.sched_steals`); remove it together with that reader.
    pub sched_steals: u64,
    /// Wall time of the local-moving phase of this pass.
    pub local_move_time: Duration,
    /// Wall time of the refinement phase of this pass.
    pub refinement_time: Duration,
    /// Wall time of the aggregation phase run *after* this pass (zero
    /// for the final pass, which is never aggregated).
    pub aggregation_time: Duration,
    /// Wall time of the whole pass, aggregation included.
    pub duration: Duration,
}

impl PassStats {
    /// Whether refinement moved at least one vertex.
    pub fn refine_moved(&self) -> bool {
        self.refine_moves > 0
    }

    /// Aggregation shrink ratio: communities after refinement over
    /// vertices before (`|Γ| / |V'|`, lower = stronger shrink). 1.0 for
    /// an empty pass graph.
    pub fn shrink_ratio(&self) -> f64 {
        if self.vertices == 0 {
            1.0
        } else {
            self.communities as f64 / self.vertices as f64
        }
    }

    /// Fraction of pruning-flag claims that skipped an already-processed
    /// vertex — the hit rate of the paper's flag-based pruning. `None`
    /// when nothing was examined (pruning disabled or an empty graph).
    pub fn pruning_hit_rate(&self) -> Option<f64> {
        let examined = self.pruning_processed + self.pruning_skipped;
        (examined > 0).then(|| self.pruning_skipped as f64 / examined as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_and_fractions() {
        let t = PhaseTimings {
            local_move: Duration::from_millis(40),
            refinement: Duration::from_millis(20),
            aggregation: Duration::from_millis(30),
            other: Duration::from_millis(10),
        };
        assert_eq!(t.total(), Duration::from_millis(100));
        let (l, r, a, o) = t.fractions();
        assert!((l - 0.4).abs() < 1e-9);
        assert!((r - 0.2).abs() < 1e-9);
        assert!((a - 0.3).abs() < 1e-9);
        assert!((o - 0.1).abs() < 1e-9);
    }

    #[test]
    fn zero_total_gives_zero_fractions() {
        let t = PhaseTimings::default();
        assert_eq!(t.fractions(), (0.0, 0.0, 0.0, 0.0));
    }

    fn stats(vertices: usize, communities: usize, processed: u64, skipped: u64) -> PassStats {
        PassStats {
            pass: 0,
            vertices,
            arcs: 0,
            move_iterations: 0,
            iteration_gains: Vec::new(),
            refine_moves: 0,
            communities,
            pruning_processed: processed,
            pruning_skipped: skipped,
            tolerance: 1e-2,
            sched_chunks: 0,
            sched_steals: 0,
            local_move_time: Duration::ZERO,
            refinement_time: Duration::ZERO,
            aggregation_time: Duration::ZERO,
            duration: Duration::ZERO,
        }
    }

    #[test]
    fn shrink_ratio_and_hit_rate() {
        let s = stats(100, 25, 300, 100);
        assert!((s.shrink_ratio() - 0.25).abs() < 1e-12);
        assert!((s.pruning_hit_rate().unwrap() - 0.25).abs() < 1e-12);
        assert!(!s.refine_moved());

        let empty = stats(0, 0, 0, 0);
        assert_eq!(empty.shrink_ratio(), 1.0);
        assert_eq!(empty.pruning_hit_rate(), None);
    }

    #[test]
    fn accumulate_adds() {
        let mut a = PhaseTimings {
            local_move: Duration::from_millis(1),
            ..Default::default()
        };
        let b = PhaseTimings {
            local_move: Duration::from_millis(2),
            refinement: Duration::from_millis(3),
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.local_move, Duration::from_millis(3));
        assert_eq!(a.refinement, Duration::from_millis(3));
    }
}
