//! Quality objectives: modularity and the Constant Potts Model.
//!
//! The paper optimizes modularity throughout its evaluation but notes
//! (§2) that modularity maximization suffers from the *resolution
//! limit*, which "can be overcome by using an alternative quality
//! function, such as the Constant Potts Model (CPM)" (Traag, Van Dooren
//! & Nesterov 2011). CPM's meaningful resolutions sit at the *edge
//! density* scale: communities are kept together when their internal
//! density exceeds `γ`.
//!
//! Both objectives share one delta shape, which is what lets a single
//! local-moving/refinement code path serve both:
//!
//! * modularity (Eq. 2, with resolution `γ`):
//!   `ΔQ = (K_{i→c} − K_{i→d})/m − γ·K_i (K_i + Σ_c − Σ_d)/(2m²)`
//! * CPM (normalized by `m` so the tolerances keep their scale):
//!   `ΔH/m = (K_{i→c} − K_{i→d})/m − γ·s_i (s_i + N_c − N_d)/m`
//!
//! i.e. `gain = lin·(K_{i→c} − K_{i→d}) − quad·p_i (p_i + P_c − P_d)`,
//! where the *penalty weight* `p` is the weighted degree `K` for
//! modularity and the vertex size `s` (number of original vertices a
//! super-vertex represents) for CPM, and `P` is the per-community sum of
//! `p` — the quantity the `Σ'` array tracks.

/// The quality function a Leiden/Louvain run optimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Newman modularity (Equation 1) with a resolution parameter;
    /// `resolution = 1` is the paper's default objective.
    Modularity {
        /// Resolution `γ`; larger favours smaller communities.
        resolution: f64,
    },
    /// Constant Potts Model with resolution `γ` (expected edge density
    /// between community members). Resolution-limit-free.
    Cpm {
        /// Resolution `γ`.
        resolution: f64,
    },
}

impl Default for Objective {
    fn default() -> Self {
        Objective::Modularity { resolution: 1.0 }
    }
}

impl Objective {
    /// The resolution parameter.
    pub fn resolution(&self) -> f64 {
        match *self {
            Objective::Modularity { resolution } | Objective::Cpm { resolution } => resolution,
        }
    }

    /// Whether the penalty weight is the vertex *size* (CPM) rather than
    /// the weighted degree (modularity).
    pub fn penalty_is_size(&self) -> bool {
        matches!(self, Objective::Cpm { .. })
    }

    /// Gain coefficients for a graph with total edge weight `m`.
    pub fn coeffs(&self, m: f64) -> GainCoeffs {
        match *self {
            Objective::Modularity { resolution } => GainCoeffs {
                lin: 1.0 / m,
                quad: resolution / (2.0 * m * m),
            },
            Objective::Cpm { resolution } => GainCoeffs {
                lin: 1.0 / m,
                quad: resolution / m,
            },
        }
    }
}

/// Precomputed coefficients of the shared gain formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GainCoeffs {
    /// Coefficient of the edge-weight difference term.
    pub lin: f64,
    /// Coefficient of the quadratic penalty term.
    pub quad: f64,
}

impl GainCoeffs {
    /// Gain of moving a vertex with penalty weight `p_i` from community
    /// `d` to `c`, given its edge weight towards each and the
    /// communities' penalty totals (`P_d` including the vertex, `P_c`
    /// not).
    #[inline(always)]
    pub fn gain(&self, k_i_to_c: f64, k_i_to_d: f64, p_i: f64, p_c: f64, p_d: f64) -> f64 {
        self.lin * (k_i_to_c - k_i_to_d) - self.quad * p_i * (p_i + p_c - p_d)
    }

    /// Per-candidate *score* `lin·K_{i→c} − quad·p_i·P_c`.
    ///
    /// The gain decomposes as
    /// `gain(c) = score(c) − score(d) − quad·p_i²`, and the subtracted
    /// terms are the same for every candidate `c`, so an argmax over
    /// scores is an argmax over gains. This is what lets the scan
    /// kernel's stack tier fold one score per candidate over its map and
    /// evaluate the full gain only for the winner.
    #[inline(always)]
    pub fn score(&self, k_i_to_c: f64, p_c: f64, p_i: f64) -> f64 {
        self.lin * k_i_to_c - self.quad * p_i * p_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unit_modularity() {
        assert_eq!(
            Objective::default(),
            Objective::Modularity { resolution: 1.0 }
        );
        assert_eq!(Objective::default().resolution(), 1.0);
        assert!(!Objective::default().penalty_is_size());
    }

    #[test]
    fn modularity_coeffs_match_equation_2() {
        let m = 7.0;
        let coeffs = Objective::Modularity { resolution: 1.0 }.coeffs(m);
        let gain = coeffs.gain(2.0, 1.0, 3.0, 5.0, 8.0);
        let expected = (2.0 - 1.0) / m - 3.0 * (3.0 + 5.0 - 8.0) / (2.0 * m * m);
        assert!((gain - expected).abs() < 1e-15);
    }

    #[test]
    fn cpm_uses_sizes_and_normalizes_by_m() {
        let objective = Objective::Cpm { resolution: 0.5 };
        assert!(objective.penalty_is_size());
        let m = 10.0;
        let coeffs = objective.coeffs(m);
        // ΔH = (kc − kd) − γ s (s + Nc − Nd); normalized by m.
        let raw = (3.0 - 1.0) - 0.5 * 2.0 * (2.0 + 4.0 - 3.0);
        assert!((coeffs.gain(3.0, 1.0, 2.0, 4.0, 3.0) - raw / m).abs() < 1e-15);
    }

    #[test]
    fn score_decomposition_matches_gain() {
        let coeffs = Objective::Modularity { resolution: 1.3 }.coeffs(7.0);
        let (k_c, k_d, p_i, p_c, p_d) = (2.0, 1.0, 3.0, 5.0, 8.0);
        let via_scores =
            coeffs.score(k_c, p_c, p_i) - coeffs.score(k_d, p_d, p_i) - coeffs.quad * p_i * p_i;
        let direct = coeffs.gain(k_c, k_d, p_i, p_c, p_d);
        assert!((via_scores - direct).abs() < 1e-15);
    }

    #[test]
    fn higher_resolution_penalizes_merges_more() {
        let m = 5.0;
        let low = Objective::Modularity { resolution: 0.5 }.coeffs(m);
        let high = Objective::Modularity { resolution: 2.0 }.coeffs(m);
        assert!(low.gain(1.0, 0.0, 2.0, 3.0, 2.0) > high.gain(1.0, 0.0, 2.0, 3.0, 2.0));
    }
}
