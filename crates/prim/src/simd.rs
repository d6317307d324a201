//! Lane-chunked candidate evaluation — the "choose" half of the scan
//! kernel's stack tier.
//!
//! The stack tier *prefetches* each candidate's `Σ'` into the scan map's
//! aux slot on first touch (while the edge scan still has misses to
//! hide behind), so [`choose_prefetched`] folds over three parallel
//! dense slices in lane-sized blocks of [`LANES`] candidates — a
//! branch-free multiply/subtract the compiler autovectorizes, then an
//! in-register argmax reduction through [`RunningBest::offer`], itself
//! branch-free. The arithmetic is *exactly* the table tier's
//! `GainCoeffs::score` with the vertex-constant `quad · p_i` factor
//! hoisted: `score = lin · K_{i→c} − (quad · p_i) · Σ'_c`, which is
//! bit-identical because `quad * p_i * sigma` already associates left
//! to right in the scalar kernel. The unit tests pit the blocked fold
//! against a plain per-candidate loop with the same arithmetic.

use std::hint::select_unpredictable;

/// Candidates evaluated per block: wide enough to fill two AVX2 `f64`
/// vectors and to keep eight independent `Σ'` loads in flight, small
/// enough that the gather buffers live in registers / one cache line.
pub const LANES: usize = 8;

/// The winning candidate of a choose pass: its community id, the
/// accumulated edge weight `K_{i→c}` towards it, and the `Σ'` value the
/// score was computed from (callers feed both into the gain formula).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Choice {
    /// Winning community id.
    pub key: u32,
    /// Accumulated `K_{i→key}`.
    pub weight: f64,
    /// The `Σ'_key` value loaded during evaluation.
    pub sigma: f64,
}

/// Running argmax state, foldable over any number of candidate blocks.
///
/// Selection rule — identical to the table tier's `choose_best`: maximum
/// score, ties broken towards the smaller community id. Because every
/// candidate key appears at most once and its score is a pure function
/// of the inputs, the winner is independent of fold order.
#[derive(Debug, Clone, Copy)]
pub struct RunningBest {
    found: bool,
    key: u32,
    /// [`rank`] of the leading score.
    rank: u64,
    weight: f64,
    sigma: f64,
}

impl Default for RunningBest {
    fn default() -> Self {
        Self::new()
    }
}

/// A score as an unsigned integer in the score's own order: `a > b`
/// exactly when `rank(a) > rank(b)`, and equal scores — `-0.0` and
/// `0.0` included — have equal ranks. NaN, which compares with nothing,
/// ranks 0, below every number (`-∞` ranks above 0).
#[inline(always)]
fn rank(score: f64) -> u64 {
    // `+ 0.0` turns `-0.0` into `0.0` and leaves every other value as
    // it is; then a negative score's bits flip whole and a positive
    // one's sign bit is set, the usual order-preserving map.
    let bits = (score + 0.0).to_bits();
    let ordered = bits ^ (((bits as i64 >> 63) as u64) | (1 << 63));
    select_unpredictable(score.is_nan(), 0, ordered)
}

impl RunningBest {
    /// Empty state: no candidate seen yet.
    #[inline]
    pub fn new() -> Self {
        Self {
            found: false,
            key: u32::MAX,
            rank: 0,
            weight: 0.0,
            sigma: 0.0,
        }
    }

    /// Offers one candidate to the running argmax, unless `key` is
    /// `skip` (the vertex's current community). The first candidate
    /// offered always takes the lead — even with a NaN score, which no
    /// later candidate beats.
    ///
    /// Branch-free: the score becomes an integer `rank`, the
    /// comparisons fold into one flag, and every field is a select on
    /// it, so the loop-carried chain is a few integer operations and a
    /// run of near-equal scores costs no mispredicted branch.
    #[inline(always)]
    pub fn offer(&mut self, key: u32, score: f64, weight: f64, sigma: f64, skip: u32) {
        let rank = rank(score);
        let wins = (key != skip)
            & (!self.found | (rank > self.rank) | ((rank == self.rank) & (key < self.key)));
        // A NaN leader ranks above everything, so nothing displaces it.
        let lead = select_unpredictable(score.is_nan(), u64::MAX, rank);
        self.rank = select_unpredictable(wins, lead, self.rank);
        self.key = select_unpredictable(wins, key, self.key);
        // Selected as integers: an `f64` select lowers to a branch.
        let (weight, sigma) = (weight.to_bits(), sigma.to_bits());
        self.weight = f64::from_bits(select_unpredictable(wins, weight, self.weight.to_bits()));
        self.sigma = f64::from_bits(select_unpredictable(wins, sigma, self.sigma.to_bits()));
        self.found |= wins;
    }

    /// The winner, or `None` if no candidate was ever offered (all keys
    /// matched `skip`, or the slices were empty).
    #[inline]
    pub fn finish(self) -> Option<Choice> {
        self.found.then_some(Choice {
            key: self.key,
            weight: self.weight,
            sigma: self.sigma,
        })
    }
}

/// Folds candidates whose `Σ'` values were already gathered — the
/// scan kernel's stack tier caches each candidate's `Σ'` in its map's aux
/// slot on first touch *during* the edge scan, so this pass reads three
/// parallel dense slices: the score block is branch-free arithmetic the
/// compiler autovectorizes, and the serial argmax only walks registers.
/// Same arithmetic, same tie-break as a per-candidate loop.
#[inline]
pub fn fold_prefetched(
    best: &mut RunningBest,
    keys: &[u32],
    weights: &[f64],
    sig: &[f64],
    skip: u32,
    lin: f64,
    qp: f64,
) {
    let len = keys.len().min(weights.len()).min(sig.len());
    let keys = &keys[..len];
    let weights = &weights[..len];
    let sig = &sig[..len];
    let mut score = [0.0f64; LANES];
    let mut idx = 0;
    while idx + LANES <= len {
        // Evaluate: branch-free over the whole block (autovectorizes).
        for k in 0..LANES {
            score[k] = lin * weights[idx + k] - qp * sig[idx + k];
        }
        // Reduce: in-register argmax with `choose_best`'s exact tie-break.
        for k in 0..LANES {
            best.offer(
                keys[idx + k],
                score[k],
                weights[idx + k],
                sig[idx + k],
                skip,
            );
        }
        idx += LANES;
    }
    for k in idx..len {
        let s = lin * weights[k] - qp * sig[k];
        best.offer(keys[k], s, weights[k], sig[k], skip);
    }
}

/// One-shot prefetched choose over parallel candidate slices (the
/// low-degree path: keys, weights, and cached `Σ'` all sit in the stack
/// scan map).
#[inline]
pub fn choose_prefetched(
    keys: &[u32],
    weights: &[f64],
    sig: &[f64],
    skip: u32,
    lin: f64,
    qp: f64,
) -> Option<Choice> {
    let mut best = RunningBest::new();
    fold_prefetched(&mut best, keys, weights, sig, skip, lin, qp);
    best.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn choose(
        keys: &[u32],
        weights: &[f64],
        sig: &[f64],
        skip: u32,
        lin: f64,
        qp: f64,
    ) -> Option<Choice> {
        choose_prefetched(keys, weights, sig, skip, lin, qp)
    }

    /// Reference fold: one candidate at a time, same arithmetic.
    fn choose_scalar(
        keys: &[u32],
        weights: &[f64],
        sig: &[f64],
        skip: u32,
        lin: f64,
        qp: f64,
    ) -> Option<Choice> {
        let mut best = RunningBest::new();
        let len = keys.len().min(weights.len()).min(sig.len());
        for k in 0..len {
            let score = lin * weights[k] - qp * sig[k];
            best.offer(keys[k], score, weights[k], sig[k], skip);
        }
        best.finish()
    }

    #[test]
    fn empty_candidates_yield_none() {
        assert_eq!(choose(&[], &[], &[], 0, 1.0, 0.5), None);
    }

    #[test]
    fn all_skipped_yields_none() {
        assert_eq!(choose(&[2], &[3.0], &[1.0], 2, 1.0, 0.5), None);
    }

    #[test]
    fn picks_max_score_with_tie_to_smaller_key() {
        // lin=1, qp=0 ⇒ score = weight. Keys 5 and 1 tie on weight.
        let got = choose(&[5, 1, 3], &[2.0, 2.0, 1.0], &[0.0; 3], 7, 1.0, 0.0);
        assert_eq!(
            got,
            Some(Choice {
                key: 1,
                weight: 2.0,
                sigma: 0.0
            })
        );
    }

    #[test]
    fn sigma_penalty_flips_winner() {
        // Key 0 has more weight but a huge Σ'; key 1 wins on score.
        let got = choose(&[0, 1], &[5.0, 4.0], &[100.0, 1.0], 9, 1.0, 1.0).unwrap();
        assert_eq!(got.key, 1);
        assert_eq!(got.sigma, 1.0);
    }

    #[test]
    fn first_candidate_leads_even_with_a_nan_score() {
        let got = choose(&[4, 2], &[f64::NAN, 1.0], &[0.0; 2], 9, 1.0, 0.0).unwrap();
        assert_eq!(got.key, 4);
        let got = choose(&[4, 2], &[1.0, f64::NAN], &[0.0; 2], 9, 1.0, 0.0).unwrap();
        assert_eq!(got.key, 4);
    }

    #[test]
    fn tail_shorter_than_lanes_is_covered() {
        // 11 candidates: one full block of 8 plus a tail of 3, with the
        // overall winner sitting in the tail.
        let keys: Vec<u32> = (0..11).collect();
        let mut weights = vec![1.0f64; 11];
        weights[10] = 9.0;
        let got = choose(&keys, &weights, &[0.0; 11], 99, 1.0, 0.0).unwrap();
        assert_eq!(got.key, 10);
        assert_eq!(got.weight, 9.0);
    }

    #[test]
    fn blockwise_fold_matches_one_shot() {
        // Fold the same candidates in two chunks.
        let keys: Vec<u32> = (0..20).collect();
        let weights: Vec<f64> = (0..20).map(|k| ((k * 7) % 13) as f64).collect();
        let sig: Vec<f64> = (0..20).map(|k| (k % 5) as f64).collect();
        let whole = choose(&keys, &weights, &sig, 3, 0.25, 0.125);
        let mut best = RunningBest::new();
        fold_prefetched(
            &mut best,
            &keys[..9],
            &weights[..9],
            &sig[..9],
            3,
            0.25,
            0.125,
        );
        fold_prefetched(
            &mut best,
            &keys[9..],
            &weights[9..],
            &sig[9..],
            3,
            0.25,
            0.125,
        );
        assert_eq!(best.finish(), whole);
    }

    #[test]
    fn lanes_match_scalar_reference_exactly() {
        // Deterministic pseudo-random candidate sets across lengths that
        // exercise full blocks, tails, and the skip key in every slot.
        let mut state = 0x9e3779b9u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for len in 0..40usize {
            let keys: Vec<u32> = (0..len).map(|_| next() % 64).collect();
            // Dedup keys (the kernel contract): keep first occurrence.
            let mut seen = [false; 64];
            let keys: Vec<u32> = keys
                .into_iter()
                .filter(|&k| !std::mem::replace(&mut seen[k as usize], true))
                .collect();
            let weights: Vec<f64> = keys.iter().map(|_| (next() % 1000) as f64 / 17.0).collect();
            let sig: Vec<f64> = keys.iter().map(|_| (next() % 1000) as f64 / 3.0).collect();
            for &skip in &[0u32, 5, 63, 99] {
                let a = choose(&keys, &weights, &sig, skip, 0.01, 0.003);
                let b = choose_scalar(&keys, &weights, &sig, skip, 0.01, 0.003);
                assert_eq!(a, b, "len={} skip={skip}", keys.len());
            }
        }
    }
}
