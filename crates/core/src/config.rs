//! Configuration of the GVE-Leiden algorithm.
//!
//! Defaults are the paper's published parameters (§4.1): initial
//! tolerance 0.01, tolerance drop rate 10 (threshold scaling), iteration
//! cap 20, pass cap 10, aggregation tolerance 0.8, greedy refinement and
//! move-based super-vertex labeling, optimizing modularity.
//!
//! The neighbourhood scan itself has no settings: there is one kernel
//! and one edge layout, and its degree cutoff is the constant
//! [`SMALL_DEGREE_THRESHOLD`]. Nor does the loop schedule: local-moving
//! and refinement claim chunks of
//! [`gve_prim::parfor::DEFAULT_CHUNK`] vertices from a shared cursor,
//! the paper's `schedule(dynamic, 2048)`. What remains here are the
//! paper's parameters, its ablation comparators (random refinement,
//! color-synchronous scheduling, sort-reduce aggregation).

use crate::objective::Objective;

/// Degree cutoff of the scan kernel's stack tier
/// ([`crate::kernel::best_move`]): vertices of degree ≤ this scan into a
/// [`gve_prim::HashScanMap`], hubs into the per-thread table. The
/// aggregation applies the same bound to a community's total degree.
/// Kept at the previous default's value; retuning is a separate change.
pub const SMALL_DEGREE_THRESHOLD: usize = 16;

// Degree bounds the distinct candidates, so a stack-tier scan can never
// overflow the map.
const _: () = assert!(SMALL_DEGREE_THRESHOLD <= gve_prim::HASH_SCAN_CAP);

/// How the refinement phase picks the target sub-community.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinementStrategy {
    /// Pick the community with maximum delta-modularity (the paper's
    /// best-performing variant).
    Greedy,
    /// Pick proportionally to delta-modularity using xorshift32 streams,
    /// as in the original Leiden algorithm.
    Random,
}

/// How super-vertices are labeled after aggregation, i.e. which
/// partition seeds the next pass's local-moving phase (Figures 3 and 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Labeling {
    /// Super-vertices start grouped by their local-moving community —
    /// the variant recommended by Traag et al. and used by default.
    MoveBased,
    /// Super-vertices start as singletons (each refined community its
    /// own community).
    RefineBased,
}

/// How the parallel phases are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Asynchronous (the paper's design): threads observe each other's
    /// partial updates. Fast convergence; results vary run to run.
    #[default]
    Asynchronous,
    /// Color-synchronous (Grappolo-style, the paper's related work
    /// \[11\]): graph-coloring rounds with frozen state, reproducible
    /// across runs and thread counts. Slower.
    ColorSynchronous,
}

impl Scheduling {
    /// Parses a scheduling token (CLI flags, serve API).
    pub fn parse(token: &str) -> Result<Self, String> {
        match token {
            "async" => Ok(Self::Asynchronous),
            "color-sync" => Ok(Self::ColorSynchronous),
            other => Err(format!(
                "unknown scheduling '{other}' (expected async|color-sync)"
            )),
        }
    }

    /// Canonical token.
    pub fn label(self) -> &'static str {
        match self {
            Self::Asynchronous => "async",
            Self::ColorSynchronous => "color-sync",
        }
    }
}

/// How the aggregation phase combines arcs between super-vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationStrategy {
    /// Per-thread collision-free hashtables over a holey CSR — the
    /// paper's optimized design (Algorithm 4).
    #[default]
    Hashtable,
    /// Sort-reduce: materialize all community arcs, parallel-sort, and
    /// reduce runs — the alternative the paper's related work cites
    /// (Cheong et al. \[4\]). Simpler, more memory traffic.
    SortReduce,
}

/// Optimization level of the run (§4.1's default / medium / heavy
/// variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// All optimizations on.
    Default,
    /// Threshold scaling disabled.
    Medium,
    /// Threshold scaling *and* aggregation tolerance disabled.
    Heavy,
}

/// Full parameter set for a GVE-Leiden run.
#[derive(Debug, Clone)]
pub struct LeidenConfig {
    /// Maximum number of passes (local-move → refine → aggregate).
    pub max_passes: usize,
    /// Maximum local-moving iterations per pass.
    pub max_iterations: usize,
    /// Initial per-iteration convergence tolerance `τ` on the summed
    /// delta-modularity.
    pub initial_tolerance: f64,
    /// Divisor applied to `τ` after each pass when threshold scaling is
    /// enabled (`TOLERANCE_DROP`).
    pub tolerance_drop: f64,
    /// Enables threshold scaling (disabled by the medium/heavy
    /// variants).
    pub threshold_scaling: bool,
    /// Community-count shrink ratio above which further aggregation is
    /// deemed useless and the algorithm stops (`τ_agg`).
    pub aggregation_tolerance: f64,
    /// Enables the aggregation-tolerance early exit (disabled by the
    /// heavy variant).
    pub use_aggregation_tolerance: bool,
    /// Refinement strategy.
    pub refinement: RefinementStrategy,
    /// Super-vertex labeling.
    pub labeling: Labeling,
    /// Quality function to optimize (modularity by default; CPM is the
    /// resolution-limit-free alternative the paper cites in §2).
    pub objective: Objective,
    /// Enables flag-based vertex pruning in the local-moving phase
    /// (ablation toggle; the paper always runs with it on).
    pub pruning: bool,
    /// Records the per-pass dendrogram levels in the result (off by
    /// default — costs one `Vec<u32>` clone per pass).
    pub record_dendrogram: bool,
    /// Parallel scheduling discipline.
    pub scheduling: Scheduling,
    /// Aggregation-phase algorithm.
    pub aggregation: AggregationStrategy,
    /// Seed for the randomized refinement streams.
    pub seed: u64,
}

impl Default for LeidenConfig {
    fn default() -> Self {
        Self {
            max_passes: 10,
            max_iterations: 20,
            initial_tolerance: 1e-2,
            tolerance_drop: 10.0,
            threshold_scaling: true,
            aggregation_tolerance: 0.8,
            use_aggregation_tolerance: true,
            refinement: RefinementStrategy::Greedy,
            labeling: Labeling::MoveBased,
            objective: Objective::default(),
            pruning: true,
            record_dendrogram: false,
            scheduling: Scheduling::default(),
            aggregation: AggregationStrategy::default(),
            seed: 0,
        }
    }
}

impl LeidenConfig {
    /// Applies one of the paper's optimization variants.
    pub fn variant(mut self, variant: Variant) -> Self {
        match variant {
            Variant::Default => {
                self.threshold_scaling = true;
                self.use_aggregation_tolerance = true;
            }
            Variant::Medium => {
                self.threshold_scaling = false;
                self.use_aggregation_tolerance = true;
            }
            Variant::Heavy => {
                self.threshold_scaling = false;
                self.use_aggregation_tolerance = false;
            }
        }
        self
    }

    /// Sets the refinement strategy.
    pub fn refinement(mut self, strategy: RefinementStrategy) -> Self {
        self.refinement = strategy;
        self
    }

    /// Sets the super-vertex labeling.
    pub fn labeling(mut self, labeling: Labeling) -> Self {
        self.labeling = labeling;
        self
    }

    /// Sets the RNG seed used by randomized refinement.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the quality function to optimize.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the scheduling discipline.
    pub fn scheduling(mut self, scheduling: Scheduling) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Sets the aggregation strategy.
    pub fn aggregation(mut self, aggregation: AggregationStrategy) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_passes == 0 {
            return Err("max_passes must be at least 1".into());
        }
        if self.max_iterations == 0 {
            return Err("max_iterations must be at least 1".into());
        }
        if self.initial_tolerance < 0.0 {
            return Err("initial_tolerance must be nonnegative".into());
        }
        if self.tolerance_drop < 1.0 {
            return Err("tolerance_drop must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.aggregation_tolerance) {
            return Err("aggregation_tolerance must be in [0, 1]".into());
        }
        // partial_cmp keeps NaN resolutions rejected alongside <= 0.
        if self.objective.resolution().partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("objective resolution must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = LeidenConfig::default();
        assert_eq!(c.max_passes, 10);
        assert_eq!(c.max_iterations, 20);
        assert_eq!(c.initial_tolerance, 1e-2);
        assert_eq!(c.tolerance_drop, 10.0);
        assert_eq!(c.aggregation_tolerance, 0.8);
        assert_eq!(c.refinement, RefinementStrategy::Greedy);
        assert_eq!(c.labeling, Labeling::MoveBased);
        assert!(c.threshold_scaling);
        assert!(c.use_aggregation_tolerance);
        assert!(c.pruning);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn variants_toggle_the_right_flags() {
        let medium = LeidenConfig::default().variant(Variant::Medium);
        assert!(!medium.threshold_scaling);
        assert!(medium.use_aggregation_tolerance);
        let heavy = LeidenConfig::default().variant(Variant::Heavy);
        assert!(!heavy.threshold_scaling);
        assert!(!heavy.use_aggregation_tolerance);
        let back = heavy.variant(Variant::Default);
        assert!(back.threshold_scaling && back.use_aggregation_tolerance);
    }

    #[test]
    fn validate_rejects_nonsense() {
        let c = LeidenConfig {
            max_passes: 0,
            ..LeidenConfig::default()
        };
        assert!(c.validate().is_err());
        let c = LeidenConfig {
            tolerance_drop: 0.5,
            ..LeidenConfig::default()
        };
        assert!(c.validate().is_err());
        let c = LeidenConfig {
            aggregation_tolerance: 1.5,
            ..LeidenConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn objective_resolution_validated() {
        let mut c = LeidenConfig {
            objective: Objective::Cpm { resolution: 0.0 },
            ..LeidenConfig::default()
        };
        assert!(c.validate().is_err());
        c.objective = Objective::Modularity { resolution: -1.0 };
        assert!(c.validate().is_err());
        c.objective = Objective::Cpm { resolution: 0.05 };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods_chain() {
        let c = LeidenConfig::default()
            .refinement(RefinementStrategy::Random)
            .labeling(Labeling::RefineBased)
            .seed(99);
        assert_eq!(c.refinement, RefinementStrategy::Random);
        assert_eq!(c.labeling, Labeling::RefineBased);
        assert_eq!(c.seed, 99);
        assert!(c.validate().is_ok());
    }
}
