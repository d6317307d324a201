//! GVE-Leiden: fast parallel Leiden community detection in shared memory.
//!
//! Reproduction of *"Fast Leiden Algorithm for Community Detection in
//! Shared Memory Setting"* (Sahu, Kothapalli, Banerjee — ICPP 2024).
//! The Leiden algorithm (Traag et al. 2019) fixes the Louvain method's
//! tendency to produce internally-disconnected communities by inserting a
//! *refinement* phase between local moving and aggregation. GVE-Leiden is
//! the paper's heavily optimized multicore implementation; this crate is
//! a faithful Rust port of Algorithms 1–4 with all the published
//! optimizations:
//!
//! * asynchronous local moving with flag-based vertex pruning;
//! * collision-free per-thread hashtables (`H_t`);
//! * greedy (default) or randomized constrained-merge refinement;
//! * CSR-based aggregation with parallel prefix sums and a holey
//!   super-vertex CSR;
//! * threshold scaling, iteration/pass caps and aggregation tolerance;
//! * move-based (default) or refine-based super-vertex labeling.
//!
//! # Pipeline (Figure 5 of the paper)
//!
//! Each pass: the **local-moving phase** greedily reassigns vertices to
//! neighbouring communities until the per-iteration modularity gain drops
//! below the tolerance; the resulting communities become *bounds* for the
//! **refinement phase**, which restarts every vertex as a singleton and
//! merges isolated vertices within their bound; the **aggregation phase**
//! collapses each refined community into a super-vertex. Passes repeat on
//! the shrinking super-vertex graph until convergence, the pass cap, or
//! until aggregation stops shrinking the graph.
//!
//! # Example
//!
//! ```
//! use gve_leiden::{Leiden, LeidenConfig};
//! use gve_graph::GraphBuilder;
//!
//! // Two triangles joined by a bridge.
//! let graph = GraphBuilder::from_edges(6, &[
//!     (0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
//!     (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0),
//!     (2, 3, 1.0),
//! ]);
//! let result = Leiden::new(LeidenConfig::default()).run(&graph);
//! assert_eq!(result.num_communities, 2);
//! assert_eq!(result.membership[0], result.membership[1]);
//! assert_ne!(result.membership[0], result.membership[5]);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod aggregate;
#[cfg(feature = "analysis")]
pub mod analysis;
pub mod config;
pub mod dendrogram;
pub mod kernel;
pub mod localmove;
mod math;
pub mod objective;
pub mod obs;
mod refine;
mod sync;
pub mod timing;
pub mod workspace;

pub use config::{
    AggregationStrategy, Labeling, LeidenConfig, RefinementStrategy, Scheduling, Variant,
    SMALL_DEGREE_THRESHOLD,
};
pub use localmove::MoveOutcome;
pub use math::delta_modularity;
pub use objective::{GainCoeffs, Objective};
pub use obs::CoreMetrics;
pub use timing::{PassStats, PhaseTimings};
pub use workspace::PassWorkspace;

use gve_graph::{CsrGraph, VertexId};
use gve_prim::parfor::{static_blocks_mut, static_for, static_for_mut};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Why the pass loop of a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Global convergence (Algorithm 1, line 8): local-moving settled in
    /// a single quiet iteration and refinement moved nothing.
    Converged,
    /// The aggregation tolerance fired (line 10): communities shrank too
    /// little for another pass to pay off, so aggregation was skipped.
    AggregationTolerance,
    /// The configured pass cap was reached.
    PassCap,
}

impl StopReason {
    /// Stable lowercase label (used in traces and metrics).
    pub fn label(&self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::AggregationTolerance => "aggregation_tolerance",
            StopReason::PassCap => "pass_cap",
        }
    }
}

/// Outcome of a GVE-Leiden run.
#[derive(Debug, Clone)]
pub struct LeidenResult {
    /// Community of every input vertex, renumbered to dense `0..k`.
    pub membership: Vec<VertexId>,
    /// Number of communities `k` (the `|Γ|` column of Table 2).
    pub num_communities: usize,
    /// Passes performed (`l_p`).
    pub passes: usize,
    /// Total local-moving iterations across passes (`Σ l_i`).
    pub move_iterations: usize,
    /// Accumulated per-phase wall time (Figure 7(a)).
    pub timings: PhaseTimings,
    /// Per-pass statistics (Figure 7(b)).
    pub pass_stats: Vec<PassStats>,
    /// Why the pass loop ended.
    pub stop: StopReason,
    /// Dendrogram levels, recorded only when
    /// [`LeidenConfig::record_dendrogram`] is set: level `l` maps each
    /// vertex of the pass-`l` graph to its refined community (a vertex
    /// of the pass-`l+1` graph). Composing all levels yields
    /// `membership` up to renumbering.
    pub dendrogram: Vec<Vec<VertexId>>,
}

impl LeidenResult {
    /// Number of communities in the final partition.
    pub fn community_count(&self) -> usize {
        self.num_communities
    }

    /// Membership of the original vertices after the first `level`
    /// passes (requires [`LeidenConfig::record_dendrogram`]):
    /// `level = 0` is the singleton partition, `level = passes` equals
    /// the final membership up to renumbering. Intermediate levels are
    /// the coarsening hierarchy — useful for multi-resolution views.
    ///
    /// # Panics
    /// Panics when `level > dendrogram.len()` or the dendrogram was not
    /// recorded (and `level > 0`).
    pub fn membership_at_level(&self, level: usize) -> Vec<VertexId> {
        assert!(
            level <= self.dendrogram.len(),
            "level {level} exceeds recorded depth {}",
            self.dendrogram.len()
        );
        let n = self.membership.len();
        let mut out: Vec<VertexId> = (0..n as VertexId).collect();
        for step in &self.dendrogram[..level] {
            for c in out.iter_mut() {
                *c = step[*c as usize];
            }
        }
        out
    }
}

/// The GVE-Leiden runner. Construct once, run on any number of graphs.
#[derive(Debug, Clone)]
pub struct Leiden {
    config: LeidenConfig,
}

impl Default for Leiden {
    fn default() -> Self {
        Self::new(LeidenConfig::default())
    }
}

/// Runs GVE-Leiden with default configuration.
pub fn leiden(graph: &CsrGraph) -> LeidenResult {
    Leiden::default().run(graph)
}

/// Runs GVE-Louvain with default configuration: the same pass loop with
/// the refinement phase skipped ([`Leiden::run_louvain_in`]), so
/// `timings.refinement` is always zero.
pub fn louvain(graph: &CsrGraph) -> LeidenResult {
    Leiden::default().run_louvain_in(graph, &mut PassWorkspace::new())
}

/// Derives a per-vertex RNG stream seed (splitmix64 mixing).
#[inline]
pub(crate) fn stream_seed(seed: u64, index: u64) -> u32 {
    let mut z =
        (seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 32) as u32
}

impl Leiden {
    /// Creates a runner with the given configuration.
    ///
    /// # Panics
    /// Panics when the configuration is invalid (see
    /// [`LeidenConfig::validate`]).
    pub fn new(config: LeidenConfig) -> Self {
        config.validate().expect("invalid Leiden configuration");
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &LeidenConfig {
        &self.config
    }

    /// Runs the algorithm (Algorithm 1 of the paper) and returns the
    /// top-level community membership of every vertex.
    ///
    /// Equivalent to [`Leiden::run_in`] with a throwaway workspace;
    /// callers running repeatedly should keep a [`PassWorkspace`] and
    /// use `run_in` to skip steady-state allocation.
    pub fn run(&self, graph: &CsrGraph) -> LeidenResult {
        self.run_in(graph, &mut PassWorkspace::new())
    }

    /// Runs the algorithm using a caller-provided [`PassWorkspace`] for
    /// every per-pass buffer. The workspace grows on first use and is
    /// reused afterwards: repeat runs on graphs no larger than the
    /// workspace's capacity perform no allocation in the Leiden hot
    /// path. Results are bit-identical to [`Leiden::run`] — both share
    /// this code path.
    pub fn run_in(&self, graph: &CsrGraph, workspace: &mut PassWorkspace) -> LeidenResult {
        self.run_core(graph, None, None, false, workspace)
    }

    /// Runs GVE-Louvain, the paper's prior substrate (\[23\]): the same
    /// pass loop with the refinement phase skipped. Each pass
    /// local-moves, aggregates the local-moving communities directly,
    /// and the next pass starts from singletons; the refinement-specific
    /// configuration fields are ignored and `timings.refinement` stays
    /// zero. Louvain may leave communities internally disconnected —
    /// the defect the refinement phase exists to repair (Figure 6(d)).
    pub fn run_louvain_in(&self, graph: &CsrGraph, workspace: &mut PassWorkspace) -> LeidenResult {
        self.run_core(graph, None, None, true, workspace)
    }

    /// Runs the algorithm seeded with a previous membership *and* an
    /// initial frontier: only the frontier vertices are initially
    /// unprocessed in the first pass's local-moving phase, and the wave
    /// expands outward through the pruning flags — the *Dynamic
    /// Frontier* strategy for batch updates. A frontier holding every
    /// vertex is a plain seeded run.
    ///
    /// `previous` need not use dense ids; it is renumbered internally.
    ///
    /// # Panics
    /// Panics when `previous.len() != graph.num_vertices()` or a
    /// frontier vertex is out of range.
    pub fn run_frontier(
        &self,
        graph: &CsrGraph,
        previous: &[VertexId],
        frontier: &[VertexId],
    ) -> LeidenResult {
        self.run_frontier_in(graph, previous, frontier, &mut PassWorkspace::new())
    }

    /// Workspace-reusing variant of [`Leiden::run_frontier`].
    ///
    /// # Panics
    /// Panics when `previous.len() != graph.num_vertices()` or a
    /// frontier vertex is out of range.
    pub fn run_frontier_in(
        &self,
        graph: &CsrGraph,
        previous: &[VertexId],
        frontier: &[VertexId],
        workspace: &mut PassWorkspace,
    ) -> LeidenResult {
        assert_eq!(previous.len(), graph.num_vertices());
        assert!(frontier
            .iter()
            .all(|&v| (v as usize) < graph.num_vertices()));
        let (dense, _) = dendrogram::renumber(previous);
        self.run_core(
            graph,
            Some(dense),
            Some(frontier.to_vec()),
            false,
            workspace,
        )
    }

    fn run_core(
        &self,
        graph: &CsrGraph,
        first_init: Option<Vec<VertexId>>,
        first_frontier: Option<Vec<VertexId>>,
        skip_refinement: bool,
        workspace: &mut PassWorkspace,
    ) -> LeidenResult {
        let config = &self.config;
        let n = graph.num_vertices();
        let mut timings = PhaseTimings::default();
        let mut pass_stats = Vec::new();

        let t_init = Instant::now();
        let mut top: Vec<VertexId> = vec![0; n];
        static_for_mut(&mut top, |v, c| *c = v as VertexId);
        let m = graph.total_arc_weight() / 2.0;
        timings.other += t_init.elapsed();

        // Degenerate inputs: no vertices or no edges → singletons.
        if n == 0 || m <= 0.0 {
            return LeidenResult {
                num_communities: n,
                membership: top,
                passes: 0,
                move_iterations: 0,
                timings,
                pass_stats,
                stop: StopReason::Converged,
                dendrogram: Vec::new(),
            };
        }

        let coeffs = config.objective.coeffs(m);
        // CPM penalizes by community *size*; vertex sizes must then be
        // carried across aggregations (a super-vertex's size is the
        // number of original vertices it represents).
        let use_sizes = config.objective.penalty_is_size();

        // Size the arena once for the input graph: every per-pass buffer
        // below is a shrinking prefix view of workspace memory, so the
        // pass loop itself performs no steady-state allocation.
        let t_ws = Instant::now();
        workspace.ensure(n, graph.num_arcs());
        if use_sizes {
            workspace.ensure_sizes(n);
        }
        if config.scheduling == Scheduling::ColorSynchronous {
            workspace.ensure_sync(n);
        }
        let PassWorkspace {
            membership,
            sigma,
            penalty,
            bounds,
            init_labels: init_buf,
            first_seen,
            sizes,
            sizes_next,
            plain_membership,
            plain_sigma,
            sync_decisions,
            unprocessed,
            aggregate: agg,
            // The per-worker collision-free hashtables live in the arena
            // too, reused across phases, passes, and runs. Each phase
            // grows them to the keys it can meet, on the caller, before
            // it starts.
            tables,
            ..
        } = &mut *workspace;
        if use_sizes {
            static_for_mut(&mut sizes[..n], |_, s| *s = 1.0);
        }
        // Initial labels live in the workspace too; `has_init` tracks
        // whether the prefix holds seeds for the upcoming pass.
        let mut has_init = match &first_init {
            Some(seed) => {
                init_buf[..n].copy_from_slice(seed);
                true
            }
            None => false,
        };
        timings.other += t_ws.elapsed();

        let mut current: Option<CsrGraph> = None;
        let mut tolerance = config.initial_tolerance;
        let mut move_iterations = 0usize;
        let mut passes = 0usize;
        let mut dendrogram: Vec<Vec<VertexId>> = Vec::new();
        let mut stop = StopReason::PassCap;
        // The current graph's largest degree when the aggregation that
        // built it also wrote its weighted degrees into `penalty`.
        let mut carried: Option<usize> = None;

        for pass in 0..config.max_passes {
            let g: &CsrGraph = current.as_ref().unwrap_or(graph);
            let n_cur = g.num_vertices();
            let t_pass = Instant::now();

            // Stale-suffix poisoning (requires `--features analysis`):
            // everything past this pass's prefix is sentinel-filled, and
            // re-checked after the phases — proof that the shrinking
            // prefix views never read or write stale suffix state.
            #[cfg(feature = "analysis")]
            workspace::poison_suffix(&membership[n_cur..], &sigma[n_cur..]);

            // Initialization: K', C', Σ' (Algorithm 1, line 4). With
            // move-based labeling, later passes start from the mapped
            // parent communities instead of singletons.
            let t0 = Instant::now();
            // Penalty weights: weighted degrees K' for modularity,
            // carried vertex sizes for CPM — refreshed in place, unless
            // the hashtable aggregation already wrote a supergraph's K'.
            // The same loop finds the largest degree, which decides
            // whether any scan reaches the tables below.
            let max_degree = match carried.take() {
                Some(max_degree) if !use_sizes => max_degree,
                _ => {
                    let sizes = &sizes[..];
                    static_blocks_mut(&mut penalty[..n_cur], |start, block| {
                        let mut widest = 0;
                        for (offset, p) in block.iter_mut().enumerate() {
                            let v = (start + offset) as VertexId;
                            *p = if use_sizes {
                                sizes[v as usize]
                            } else {
                                g.weighted_degree(v)
                            };
                            widest = widest.max(g.degree(v));
                        }
                        widest
                    })
                    .into_iter()
                    .max()
                    .unwrap_or(0)
                }
            };
            let pen = &penalty[..n_cur];
            // Key bound of the scans: community ids `< n_cur`, met only
            // by hubs (the stack tier takes every other vertex) and by
            // the color-synchronous decisions; random refinement scans
            // every vertex through a table.
            let sync = config.scheduling == Scheduling::ColorSynchronous;
            let move_keys = if sync || max_degree > SMALL_DEGREE_THRESHOLD {
                n_cur
            } else {
                0
            };
            let refine_keys = match config.refinement {
                config::RefinementStrategy::Random => n_cur,
                config::RefinementStrategy::Greedy => move_keys,
            };
            // Pruning flags: everything unprocessed, or only the given
            // frontier on the first pass of a dynamic run. One bitset,
            // prefix-reset per pass (set_first clears the tail).
            match (&first_frontier, pass) {
                (Some(frontier), 0) => {
                    unprocessed.clear_all();
                    for &v in frontier {
                        unprocessed.set(v as usize);
                    }
                }
                _ => unprocessed.set_first(n_cur),
            }
            timings.other += t0.elapsed();

            // Per-pass phase times fall out of the accumulated timings:
            // snapshot before, subtract after.
            let lm_before = timings.local_move;
            let rf_before = timings.refinement;

            // Local-moving (Algorithm 2) and refinement (Algorithm 3,
            // skipped for Louvain), under the configured scheduling.
            // Bounds land in their workspace prefix; the refined (or,
            // for Louvain, the local-moving) membership lands in the
            // `init_buf` prefix, whose seeds were consumed above; the
            // renumber below turns it into the dense ranks in place.
            let (outcome, refine_moves, refine_chunks) = match config.scheduling {
                Scheduling::Asynchronous => {
                    // Reinitialize the atomic prefix in place (static-block
                    // fills — no fresh atomic vectors). Relaxed stores:
                    // bulk reinit between loops; each loop's end publishes
                    // them.
                    let t0 = Instant::now();
                    let membership = &membership[..n_cur];
                    let sigma = &sigma[..n_cur];
                    if has_init {
                        let seeds = &init_buf[..n_cur];
                        static_for(n_cur, |v| {
                            // Relaxed: bulk reinit between loops, as above.
                            membership[v].store(seeds[v], Ordering::Relaxed);
                            sigma[v].store(0.0);
                        });
                        // Σ' scatter: exact f64 `fetch_add`s of each
                        // community's member penalties. Commutative per
                        // slot only up to rounding — matching the async
                        // phases' own summation-order freedom; at one
                        // thread the adds run in vertex order.
                        static_for(n_cur, |v| {
                            sigma[seeds[v] as usize].fetch_add(pen[v]);
                        });
                    } else {
                        static_for(n_cur, |v| {
                            // Relaxed: bulk reinit between loops, as above.
                            membership[v].store(v as u32, Ordering::Relaxed);
                            sigma[v].store(pen[v]);
                        });
                    }
                    timings.other += t0.elapsed();

                    let t1 = Instant::now();
                    let outcome = localmove::local_move(
                        g,
                        membership,
                        pen,
                        sigma,
                        coeffs,
                        tolerance,
                        config,
                        tables.reach(move_keys),
                        unprocessed,
                    );
                    timings.local_move += t1.elapsed();

                    // Invariant check (requires `--features analysis`):
                    // the racy incremental bookkeeping must agree with
                    // a from-scratch recompute once the phase joined.
                    #[cfg(feature = "analysis")]
                    {
                        // Relaxed: post-join read-back.
                        let snapshot: Vec<VertexId> = membership
                            .iter()
                            .map(|c| c.load(Ordering::Relaxed))
                            .collect();
                        let totals = gve_prim::atomics::atomic_f64_snapshot(&sigma);
                        analysis::assert_phase_state(
                            "local-moving",
                            pass,
                            n_cur,
                            &snapshot,
                            pen,
                            &totals,
                        );
                    }

                    let (refine_moves, refine_chunks) = if skip_refinement {
                        (0, 0)
                    } else {
                        // Reset to singletons within bounds (line 6), one
                        // fused loop: vertex v reads and rewrites only its
                        // own slots. Relaxed loads/stores throughout: the
                        // ends of the parallel loops are the
                        // synchronization points; no store here races
                        // with a reader.
                        let t2 = Instant::now();
                        let bounds = &mut bounds[..n_cur];
                        static_for_mut(bounds, |v, b| {
                            // Relaxed: between-loops reset, as above.
                            *b = membership[v].load(Ordering::Relaxed);
                            membership[v].store(v as u32, Ordering::Relaxed);
                            sigma[v].store(pen[v]);
                        });
                        timings.other += t2.elapsed();

                        let t3 = Instant::now();
                        let refined = refine::refine(
                            g,
                            bounds,
                            membership,
                            pen,
                            sigma,
                            coeffs,
                            config,
                            tables.reach(refine_keys),
                            pass as u64,
                        );
                        timings.refinement += t3.elapsed();
                        refined
                    };

                    // Relaxed: the end of the last phase's loops already
                    // published all membership stores.
                    static_for_mut(&mut init_buf[..n_cur], |v, r| {
                        *r = membership[v].load(Ordering::Relaxed);
                    });

                    #[cfg(feature = "analysis")]
                    if !skip_refinement {
                        let totals = gve_prim::atomics::atomic_f64_snapshot(sigma);
                        analysis::assert_phase_state(
                            "refinement",
                            pass,
                            n_cur,
                            &init_buf[..n_cur],
                            pen,
                            &totals,
                        );
                    }
                    (outcome, refine_moves, refine_chunks)
                }
                Scheduling::ColorSynchronous => {
                    // Deterministic path: plain state, decisions per
                    // color class against frozen Σ'. The Σ' scatter
                    // stays **serial** so its summation order is fixed
                    // across thread counts.
                    let t0 = Instant::now();
                    let coloring = gve_graph::coloring::jones_plassmann(g, config.seed);
                    let membership = &mut plain_membership[..n_cur];
                    let sigma = &mut plain_sigma[..n_cur];
                    if has_init {
                        let seeds = &init_buf[..n_cur];
                        membership.copy_from_slice(seeds);
                        sigma.fill(0.0);
                        for (v, &c) in seeds.iter().enumerate() {
                            sigma[c as usize] += pen[v];
                        }
                    } else {
                        static_for_mut(membership, |v, c| *c = v as VertexId);
                        sigma.copy_from_slice(pen);
                    }
                    timings.other += t0.elapsed();

                    let t1 = Instant::now();
                    let outcome = sync::local_move_sync(
                        g,
                        membership,
                        pen,
                        sigma,
                        coeffs,
                        tolerance,
                        config,
                        tables.reach(move_keys),
                        &coloring,
                        unprocessed,
                        sync_decisions,
                    );
                    timings.local_move += t1.elapsed();

                    #[cfg(feature = "analysis")]
                    analysis::assert_phase_state(
                        "local-moving",
                        pass,
                        n_cur,
                        membership,
                        pen,
                        sigma,
                    );

                    let refine_moves = if skip_refinement {
                        0
                    } else {
                        let t2 = Instant::now();
                        let bounds = &mut bounds[..n_cur];
                        bounds.copy_from_slice(membership);
                        static_for_mut(membership, |v, c| *c = v as VertexId);
                        sigma.copy_from_slice(pen);
                        timings.other += t2.elapsed();

                        let t3 = Instant::now();
                        let refine_moves = sync::refine_sync(
                            g,
                            bounds,
                            membership,
                            pen,
                            sigma,
                            coeffs,
                            config,
                            tables.reach(refine_keys),
                            &coloring,
                            pass as u64,
                            sync_decisions,
                        );
                        timings.refinement += t3.elapsed();

                        #[cfg(feature = "analysis")]
                        analysis::assert_phase_state(
                            "refinement",
                            pass,
                            n_cur,
                            membership,
                            pen,
                            sigma,
                        );
                        refine_moves
                    };
                    init_buf[..n_cur].copy_from_slice(membership);
                    // The color-synchronous path schedules per color
                    // class; the chunk counter covers the async path
                    // only.
                    (outcome, refine_moves, 0)
                }
            };
            let li = outcome.gains.len();
            move_iterations += li;

            // The phases may only have touched this pass's prefix: the
            // poisoned suffix must be byte-for-byte intact.
            #[cfg(feature = "analysis")]
            workspace::assert_suffix_poisoned(&membership[n_cur..], &sigma[n_cur..], pass, n_cur);

            // Renumber refined communities and update the dendrogram
            // (lines 11–12 / 16) — serial first-seen renumber of the
            // snapshot in place, then a static-block lookup. The dense
            // ranks stay in `init_buf` until the labeling step, their
            // last reader, overwrites them.
            let t4 = Instant::now();
            let k = dendrogram::renumber_in_place(&mut init_buf[..n_cur], n_cur, first_seen);
            let dense = &init_buf[..n_cur];
            dendrogram::lookup(&mut top, dense);
            if config.record_dendrogram {
                dendrogram.push(dense.to_vec());
            }
            timings.other += t4.elapsed();

            passes += 1;
            pass_stats.push(PassStats {
                pass,
                vertices: n_cur,
                arcs: g.num_arcs(),
                move_iterations: li,
                iteration_gains: outcome.gains,
                refine_moves,
                communities: k,
                pruning_processed: outcome.pruning_processed,
                pruning_skipped: outcome.pruning_skipped,
                tolerance,
                sched_chunks: outcome.chunks + refine_chunks,
                sched_steals: 0,
                local_move_time: timings.local_move - lm_before,
                refinement_time: timings.refinement - rf_before,
                aggregation_time: Duration::ZERO,
                duration: t_pass.elapsed(),
            });

            // Global convergence (line 8): local-moving converged in one
            // iteration and refinement moved nothing.
            if li + usize::from(refine_moves > 0) <= 1 {
                stop = StopReason::Converged;
                break;
            }
            // Aggregation tolerance (line 10): communities shrank too
            // little for another pass to pay off.
            if config.use_aggregation_tolerance
                && (k as f64) > config.aggregation_tolerance * (n_cur as f64)
            {
                stop = StopReason::AggregationTolerance;
                break;
            }
            if pass + 1 == config.max_passes {
                break;
            }

            // Aggregation phase (Algorithm 4, or the sort-reduce
            // alternative).
            let t5 = Instant::now();
            let supergraph = match config.aggregation {
                config::AggregationStrategy::Hashtable => {
                    // The aggregation reads the dense ids from the ranks
                    // and borrows its scratch from buffers that are dead
                    // until the labeling step or the next pass start.
                    // Every community whose capacity fits the stack map
                    // takes it; the tables grow to the dense ids `< k`
                    // only when a wider one needs them. Each row's
                    // writer hands the next pass its K'.
                    let (supergraph, max_degree) = aggregate::aggregate_into(
                        g,
                        &init_buf[..n_cur],
                        k,
                        |bound| tables.reach(bound),
                        Some(gve_prim::HASH_SCAN_CAP),
                        agg,
                        workspace::aggregate_hosts(first_seen, membership, sigma),
                        &mut penalty[..k],
                    );
                    carried = Some(max_degree);
                    supergraph
                }
                config::AggregationStrategy::SortReduce => {
                    aggregate::aggregate_sort_reduce(g, &init_buf[..n_cur], k)
                }
            };
            let aggregation_time = t5.elapsed();
            timings.aggregation += aggregation_time;
            // The pass's stats were pushed before aggregation (the break
            // conditions sit between); fold the aggregation that this
            // pass triggered back into its record.
            if let Some(ps) = pass_stats.last_mut() {
                ps.aggregation_time = aggregation_time;
                ps.duration = t_pass.elapsed();
            }

            #[cfg(feature = "analysis")]
            analysis::assert_aggregate_state(pass, g, &supergraph, k);

            // Fold vertex sizes into the super-vertices (CPM only) via
            // the free Σ' atomics: the addends are integral vertex
            // counts, so the `fetch_add`s are exact and the result is
            // independent of thread interleaving. Double-buffer swap
            // replaces the old per-pass clone. It reads the dense ranks,
            // so it runs before the labeling step overwrites them.
            if use_sizes {
                let acc = &sigma[..k];
                static_for(k, |c| acc[c].store(0.0));
                let (sz, dense) = (&sizes[..n_cur], &init_buf[..n_cur]);
                static_for(n_cur, |v| {
                    acc[dense[v] as usize].fetch_add(sz[v]);
                });
                static_for_mut(&mut sizes_next[..k], |c, o| *o = acc[c].load());
                std::mem::swap(sizes, sizes_next);
            }

            // Super-vertex labeling for the next pass (line 14). Without
            // refinement each super-vertex is a whole local-moving
            // community, so the next pass starts from singletons, as
            // Louvain's does.
            let t6 = Instant::now();
            has_init = match config.labeling {
                Labeling::MoveBased if !skip_refinement => {
                    // Every member of a refined community shares the same
                    // bound, so any member defines the mapping — the
                    // concurrent stores per slot all carry the same
                    // value. `first_seen` serves as the scatter target;
                    // the values are copied out over the dense ranks
                    // (read for the last time by the scatter) before the
                    // renumber reclaims the scratch.
                    let fs = &first_seen[..k];
                    {
                        let (dense, bounds) = (&init_buf[..n_cur], &bounds[..n_cur]);
                        static_for(n_cur, |v| {
                            // Relaxed: same-value stores, published by the
                            // end of the loop.
                            fs[dense[v] as usize].store(bounds[v], Ordering::Relaxed);
                        });
                    }
                    let labels = &mut init_buf[..k];
                    static_for_mut(labels, |c, l| *l = fs[c].load(Ordering::Relaxed));
                    dendrogram::renumber_in_place(labels, n_cur, first_seen);
                    true
                }
                _ => false,
            };
            timings.other += t6.elapsed();

            // Swap in the super-vertex graph; the displaced one's
            // buffers go back to the aggregation scratch as a spare slot
            // set, so steady state ping-pongs between at most two sets.
            if let Some(old) = current.replace(supergraph) {
                agg.recycle(old);
            }
            // Threshold scaling (line 15).
            if config.threshold_scaling {
                tolerance /= config.tolerance_drop;
            }
        }

        // Recycle the last super-vertex graph for the next run.
        if let Some(last) = current.take() {
            agg.recycle(last);
        }

        // Final dense renumbering of the top-level membership, in place:
        // `top` is the one vertex-sized vector the result owns.
        let t7 = Instant::now();
        let num_communities = dendrogram::renumber_in_place(&mut top, n, first_seen);
        timings.other += t7.elapsed();

        LeidenResult {
            membership: top,
            num_communities,
            passes,
            move_iterations,
            timings,
            pass_stats,
            stop,
            dendrogram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gve_graph::GraphBuilder;

    fn two_triangles() -> CsrGraph {
        GraphBuilder::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 3, 1.0),
                (2, 3, 1.0),
            ],
        )
    }

    #[test]
    fn detects_two_triangles() {
        let result = leiden(&two_triangles());
        assert_eq!(result.num_communities, 2);
        assert_eq!(result.membership[0], result.membership[1]);
        assert_eq!(result.membership[1], result.membership[2]);
        assert_eq!(result.membership[3], result.membership[4]);
        assert_ne!(result.membership[0], result.membership[3]);
        assert!(result.passes >= 1);
    }

    #[test]
    fn membership_is_dense() {
        let result = leiden(&two_triangles());
        let max = *result.membership.iter().max().unwrap() as usize;
        assert_eq!(max + 1, result.num_communities);
    }

    #[test]
    fn empty_graph() {
        let result = leiden(&CsrGraph::empty(0));
        assert!(result.membership.is_empty());
        assert_eq!(result.num_communities, 0);
        assert_eq!(result.passes, 0);
    }

    #[test]
    fn edgeless_graph_yields_singletons() {
        let result = leiden(&CsrGraph::empty(5));
        assert_eq!(result.membership, vec![0, 1, 2, 3, 4]);
        assert_eq!(result.num_communities, 5);
    }

    #[test]
    fn single_self_loop_vertex() {
        let g = GraphBuilder::from_edges(1, &[(0, 0, 2.0)]);
        let result = leiden(&g);
        assert_eq!(result.membership, vec![0]);
        assert_eq!(result.num_communities, 1);
    }

    #[test]
    fn recovers_planted_partition() {
        let planted = gve_generate::sbm::PlantedPartition::new(2000, 10, 16.0, 1.0)
            .seed(11)
            .generate();
        let result = leiden(&planted.graph);
        let nmi = gve_quality::normalized_mutual_information(&result.membership, &planted.labels);
        assert!(nmi > 0.9, "NMI {nmi}, k = {}", result.num_communities);
    }

    #[test]
    fn modularity_beats_trivial_partitions() {
        let g = gve_generate::rmat::Rmat::web(11, 8.0).seed(2).generate();
        let result = leiden(&g);
        let q = gve_quality::modularity(&g, &result.membership);
        let singletons: Vec<u32> = (0..g.num_vertices() as u32).collect();
        assert!(q > gve_quality::modularity(&g, &singletons));
        assert!(q > gve_quality::modularity(&g, &vec![0; g.num_vertices()]) + 0.05);
        assert!((-0.5..=1.0).contains(&q));
    }

    #[test]
    fn communities_are_internally_connected() {
        // The Leiden guarantee (Figure 6(d) shows zero disconnected
        // communities for GVE-Leiden).
        for seed in [1u64, 2, 3] {
            let g = gve_generate::rmat::Rmat::social(11, 6.0)
                .seed(seed)
                .generate();
            let result = leiden(&g);
            let report = gve_quality::disconnected_communities(&g, &result.membership);
            assert!(
                report.all_connected(),
                "seed {seed}: {} of {} disconnected",
                report.disconnected,
                report.communities
            );
        }
    }

    #[test]
    fn refine_based_labeling_also_works() {
        let g = two_triangles();
        let result = Leiden::new(LeidenConfig::default().labeling(Labeling::RefineBased)).run(&g);
        assert_eq!(result.num_communities, 2);
    }

    #[test]
    fn random_refinement_also_recovers_structure() {
        let planted = gve_generate::sbm::PlantedPartition::new(1000, 8, 14.0, 1.0)
            .seed(4)
            .generate();
        let config = LeidenConfig::default()
            .refinement(RefinementStrategy::Random)
            .seed(7);
        let result = Leiden::new(config).run(&planted.graph);
        let nmi = gve_quality::normalized_mutual_information(&result.membership, &planted.labels);
        assert!(nmi > 0.85, "NMI {nmi}");
    }

    #[test]
    fn variants_run_to_completion() {
        let g = gve_generate::rmat::Rmat::web(9, 6.0).seed(9).generate();
        for variant in [Variant::Default, Variant::Medium, Variant::Heavy] {
            let result = Leiden::new(LeidenConfig::default().variant(variant)).run(&g);
            assert!(result.num_communities >= 1, "{variant:?}");
            gve_quality::validate_membership(&result.membership, g.num_vertices()).unwrap();
        }
    }

    #[test]
    fn pass_cap_is_respected() {
        let config = LeidenConfig {
            max_passes: 1,
            ..LeidenConfig::default()
        };
        let g = gve_generate::rmat::Rmat::web(9, 6.0).seed(1).generate();
        let result = Leiden::new(config).run(&g);
        assert_eq!(result.passes, 1);
        assert_eq!(result.pass_stats.len(), 1);
    }

    #[test]
    fn timings_cover_all_phases() {
        let g = gve_generate::rmat::Rmat::web(10, 8.0).seed(6).generate();
        let result = leiden(&g);
        assert!(result.timings.local_move.as_nanos() > 0);
        assert!(result.timings.refinement.as_nanos() > 0);
        assert!(result.timings.other.as_nanos() > 0);
        // Pass stats mirror the pass count.
        assert_eq!(result.pass_stats.len(), result.passes);
        // First pass operates on the input graph.
        assert_eq!(result.pass_stats[0].vertices, g.num_vertices());
    }

    #[test]
    #[should_panic(expected = "invalid Leiden configuration")]
    fn invalid_config_panics() {
        let config = LeidenConfig {
            max_passes: 0,
            ..LeidenConfig::default()
        };
        Leiden::new(config);
    }

    #[test]
    fn cpm_objective_recovers_planted_partition() {
        let planted = gve_generate::sbm::PlantedPartition::new(1500, 10, 14.0, 1.0)
            .seed(6)
            .generate();
        // CPM resolution ≈ the planted intra-block density keeps the
        // blocks optimal.
        let config = LeidenConfig::default().objective(Objective::Cpm { resolution: 0.02 });
        let result = Leiden::new(config).run(&planted.graph);
        let nmi = gve_quality::normalized_mutual_information(&result.membership, &planted.labels);
        assert!(nmi > 0.9, "CPM NMI {nmi}, k = {}", result.num_communities);
        let report = gve_quality::disconnected_communities(&planted.graph, &result.membership);
        assert!(report.all_connected());
    }

    #[test]
    fn density_scale_cpm_agrees_with_modularity_on_planted_graph() {
        // With the resolution at the graph's inter/intra density
        // crossover, CPM and modularity should find essentially the same
        // planted partition.
        let planted = gve_generate::sbm::PlantedPartition::new(1000, 8, 12.0, 1.0)
            .seed(3)
            .generate();
        let g = &planted.graph;
        let mod_members = leiden(g).membership;
        // Intra-block density ≈ intra_degree / block_size = 12 / 125.
        let cpm_cfg = LeidenConfig::default().objective(Objective::Cpm { resolution: 0.05 });
        let cpm_members = Leiden::new(cpm_cfg).run(g).membership;
        let agreement = gve_quality::normalized_mutual_information(&mod_members, &cpm_members);
        assert!(agreement > 0.9, "objectives disagree: NMI {agreement}");
    }

    #[test]
    fn cpm_resolution_controls_granularity() {
        let g = gve_generate::sbm::PlantedPartition::new(800, 8, 12.0, 1.0)
            .seed(9)
            .generate()
            .graph;
        let run = |resolution: f64| {
            Leiden::new(LeidenConfig::default().objective(Objective::Cpm { resolution }))
                .run(&g)
                .num_communities
        };
        let coarse = run(0.001);
        let fine = run(0.2);
        assert!(
            fine > coarse,
            "higher CPM resolution must give more communities: {coarse} vs {fine}"
        );
    }

    #[test]
    fn modularity_resolution_controls_granularity() {
        let g = gve_generate::sbm::PlantedPartition::new(800, 8, 12.0, 1.0)
            .seed(10)
            .generate()
            .graph;
        let run = |resolution: f64| {
            Leiden::new(LeidenConfig::default().objective(Objective::Modularity { resolution }))
                .run(&g)
                .num_communities
        };
        assert!(run(4.0) >= run(1.0), "γ=4 coarser than γ=1?");
        assert!(run(1.0) >= run(0.25), "γ=1 coarser than γ=0.25?");
    }

    #[test]
    fn seeded_run_reaches_same_quality() {
        let planted = gve_generate::sbm::PlantedPartition::new(1200, 10, 14.0, 1.0)
            .seed(12)
            .generate();
        let g = &planted.graph;
        let from_scratch = leiden(g);
        let every: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        let seeded = Leiden::default().run_frontier(g, &from_scratch.membership, &every);
        let q0 = gve_quality::modularity(g, &from_scratch.membership);
        let q1 = gve_quality::modularity(g, &seeded.membership);
        assert!(q1 > q0 - 0.02, "seeded Q {q1} vs scratch {q0}");
        // Seeding with the converged answer should converge quickly.
        assert!(seeded.passes <= from_scratch.passes.max(2));
    }

    #[test]
    fn frontier_run_matches_full_quality() {
        let planted = gve_generate::sbm::PlantedPartition::new(1200, 10, 14.0, 1.0)
            .seed(13)
            .generate();
        let g = &planted.graph;
        let base = leiden(g);
        // Tiny frontier: pretend only a handful of vertices changed.
        let frontier: Vec<u32> = (0..20).collect();
        let result = Leiden::default().run_frontier(g, &base.membership, &frontier);
        gve_quality::validate_membership(&result.membership, g.num_vertices()).unwrap();
        let q_base = gve_quality::modularity(g, &base.membership);
        let q_frontier = gve_quality::modularity(g, &result.membership);
        assert!(
            q_frontier > q_base - 0.02,
            "frontier Q {q_frontier} vs base {q_base}"
        );
        let report = gve_quality::disconnected_communities(g, &result.membership);
        assert!(report.all_connected());
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn seeded_run_rejects_wrong_length() {
        let g = two_triangles();
        Leiden::default().run_frontier(&g, &[0, 1], &[0, 1]);
    }

    #[test]
    fn dendrogram_recording_composes_to_membership() {
        let g = gve_generate::sbm::PlantedPartition::new(800, 8, 12.0, 1.0)
            .seed(14)
            .generate()
            .graph;
        let config = LeidenConfig {
            record_dendrogram: true,
            ..LeidenConfig::default()
        };
        let result = Leiden::new(config).run(&g);
        assert_eq!(result.dendrogram.len(), result.passes);
        // Level 0 covers the input graph; each level's ids index the
        // next level.
        assert_eq!(result.dendrogram[0].len(), g.num_vertices());
        for window in result.dendrogram.windows(2) {
            let max = *window[0].iter().max().unwrap() as usize;
            assert_eq!(max + 1, window[1].len());
        }
        // Composing all levels reproduces the final membership (the
        // final renumbering preserves first-appearance order, so the
        // composition matches exactly after densification).
        let mut composed: Vec<u32> = (0..g.num_vertices() as u32).collect();
        for level in &result.dendrogram {
            for c in composed.iter_mut() {
                *c = level[*c as usize];
            }
        }
        let (composed_dense, _) = dendrogram::renumber(&composed);
        assert_eq!(composed_dense, result.membership);
    }

    #[test]
    fn dendrogram_not_recorded_by_default() {
        let g = two_triangles();
        assert!(leiden(&g).dendrogram.is_empty());
    }

    #[test]
    fn color_synchronous_is_deterministic_across_thread_counts() {
        // Unit weights → integral Σ' sums → bitwise determinism.
        let g = gve_generate::sbm::PlantedPartition::new(1000, 8, 12.0, 1.0)
            .seed(17)
            .generate()
            .graph;
        let config = LeidenConfig::default().scheduling(Scheduling::ColorSynchronous);
        let run_in = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| Leiden::new(config.clone()).run(&g).membership)
        };
        let reference = run_in(1);
        assert_eq!(run_in(2), reference, "2 threads diverged");
        assert_eq!(run_in(4), reference, "4 threads diverged");
        // And across repeated runs in the same pool.
        assert_eq!(run_in(4), reference);
    }

    #[test]
    fn color_synchronous_matches_async_quality() {
        let planted = gve_generate::sbm::PlantedPartition::new(1500, 10, 14.0, 1.0)
            .seed(18)
            .generate();
        let g = &planted.graph;
        let async_q = gve_quality::modularity(g, &leiden(g).membership);
        let sync_result =
            Leiden::new(LeidenConfig::default().scheduling(Scheduling::ColorSynchronous)).run(g);
        let sync_q = gve_quality::modularity(g, &sync_result.membership);
        assert!(
            (async_q - sync_q).abs() < 0.05,
            "async {async_q} vs color-sync {sync_q}"
        );
        let nmi =
            gve_quality::normalized_mutual_information(&sync_result.membership, &planted.labels);
        assert!(nmi > 0.9, "NMI {nmi}");
        let report = gve_quality::disconnected_communities(g, &sync_result.membership);
        assert!(report.all_connected());
    }

    #[test]
    fn sort_reduce_aggregation_end_to_end() {
        let planted = gve_generate::sbm::PlantedPartition::new(1200, 10, 14.0, 1.0)
            .seed(19)
            .generate();
        let g = &planted.graph;
        let result =
            Leiden::new(LeidenConfig::default().aggregation(AggregationStrategy::SortReduce))
                .run(g);
        let nmi = gve_quality::normalized_mutual_information(&result.membership, &planted.labels);
        assert!(nmi > 0.9, "NMI {nmi}");
        let q_default = gve_quality::modularity(g, &leiden(g).membership);
        let q_sort = gve_quality::modularity(g, &result.membership);
        assert!((q_default - q_sort).abs() < 0.05, "{q_default} vs {q_sort}");
    }

    #[test]
    fn color_synchronous_supports_random_refinement() {
        let g = gve_generate::rmat::Rmat::web(9, 6.0).seed(3).generate();
        let config = LeidenConfig::default()
            .scheduling(Scheduling::ColorSynchronous)
            .refinement(RefinementStrategy::Random)
            .seed(5);
        let a = Leiden::new(config.clone()).run(&g).membership;
        let b = Leiden::new(config).run(&g).membership;
        assert_eq!(a, b, "seeded random refinement must be reproducible");
        gve_quality::validate_membership(&a, g.num_vertices()).unwrap();
    }
}
