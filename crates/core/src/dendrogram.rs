//! Dendrogram bookkeeping: renumbering and top-level lookup.
//!
//! Each pass coarsens the graph; the top-level membership `C` maps every
//! *original* vertex to its current super-vertex. After a pass produces a
//! child membership `C'` over the current super-vertices, the dendrogram
//! lookup composes the two: `C[v] ← C'[C[v]]` (Algorithm 1, lines 12 and
//! 16).

use gve_graph::VertexId;
use gve_prim::SharedSlice;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Below this length the parallel renumber falls back to the serial
/// single-sweep algorithm (four parallel passes don't pay for tiny
/// inputs).
const PARALLEL_RENUMBER_THRESHOLD: usize = 1 << 15;

/// Renumbers community ids to dense `0..k` in first-seen order; returns
/// the dense vector and `k`. Sequential — the remap table is tiny
/// relative to the scatter that follows.
pub fn renumber(membership: &[VertexId]) -> (Vec<VertexId>, usize) {
    let max = membership
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);
    let mut remap = vec![VertexId::MAX; max];
    let mut next: VertexId = 0;
    let mut out = Vec::with_capacity(membership.len());
    for &c in membership {
        let slot = &mut remap[c as usize];
        if *slot == VertexId::MAX {
            *slot = next;
            next += 1;
        }
        out.push(*slot);
    }
    (out, next as usize)
}

/// Allocation-free, parallel variant of [`renumber`]: densifies `src`
/// into `out` (same length) in **exactly** the serial first-seen order
/// and returns `k`. Caller-provided scratch makes it workspace-friendly:
///
/// * `id_bound` — exclusive upper bound on the values in `src`
///   (`first.len() >= id_bound` required);
/// * `first` — first-occurrence scratch, at least `id_bound` slots.
///
/// Four data-parallel passes reproduce the serial semantics: (1) a
/// `fetch_min` race finds each community's first occurrence, (2) flag
/// those positions in `out`, (3) an exclusive prefix sum over `out`
/// turns the flags into dense first-seen ranks — a first occurrence's
/// rank is its community's dense id — and (4) every other element
/// copies the rank at its community's first occurrence. `out` doubles
/// as the rank buffer, so no `src.len()` scratch is needed. Step
/// outputs are deterministic — the `fetch_min` is commutative and
/// everything else is a pure map — so the result is bit-identical to
/// [`renumber`] at any thread count.
///
/// # Panics
/// Panics (via index checks) when a value of `src` is `>= id_bound` or
/// `first` is too short.
pub fn renumber_into(
    src: &[VertexId],
    out: &mut [VertexId],
    id_bound: usize,
    first: &[AtomicU32],
) -> usize {
    assert_eq!(src.len(), out.len());
    if src.len() < PARALLEL_RENUMBER_THRESHOLD {
        // Serial fallback: the classic single sweep, using `first` as
        // the remap table. Relaxed throughout — single-threaded here.
        let first = &first[..id_bound];
        for slot in first {
            slot.store(VertexId::MAX, Ordering::Relaxed);
        }
        let mut next: VertexId = 0;
        for (o, &c) in out.iter_mut().zip(src) {
            let slot = &first[c as usize];
            // Relaxed: single-threaded fallback, no concurrent access.
            let mut dense = slot.load(Ordering::Relaxed);
            if dense == VertexId::MAX {
                dense = next;
                slot.store(dense, Ordering::Relaxed);
                next += 1;
            }
            *o = dense;
        }
        return next as usize;
    }

    let first = &first[..id_bound];
    // (1) First occurrence of every community id. Relaxed: commutative
    // min-race between joins, published by the join.
    first
        .par_iter()
        .for_each(|slot| slot.store(VertexId::MAX, Ordering::Relaxed));
    src.par_iter().enumerate().for_each(|(v, &c)| {
        first[c as usize].fetch_min(v as u32, Ordering::Relaxed);
    });
    // (2) Flag first occurrences, (3) prefix-sum into first-seen ranks
    // (`k <= src.len() < 2^32`, so the u32 scan cannot overflow).
    // Relaxed: pure read of values published by the preceding join.
    out.par_iter_mut().enumerate().for_each(|(v, slot)| {
        *slot = VertexId::from(first[src[v] as usize].load(Ordering::Relaxed) == v as u32);
    });
    let k = gve_prim::parallel_exclusive_scan(out);
    // (4) Each element copies its community's rank from the first
    // occurrence. First occurrences already hold their own rank and are
    // exactly the positions this step leaves alone. Relaxed: pure read
    // of values published by the preceding join.
    let ranks = SharedSlice::new(out);
    (0..src.len()).into_par_iter().for_each(|v| {
        let at = first[src[v] as usize].load(Ordering::Relaxed) as usize;
        if at != v {
            // SAFETY: slot `v` is written by this task only, and slot
            // `at` is a first occurrence, which no task writes.
            unsafe { ranks.write(v, ranks.read(at)) };
        }
    });
    k as usize
}

/// Composes the top-level membership with a child membership, in
/// parallel: `top[v] = child[top[v]]`.
pub fn lookup(top: &mut [VertexId], child: &[VertexId]) {
    top.par_iter_mut().for_each(|c| {
        *c = child[*c as usize];
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renumber_first_seen_order() {
        let (out, k) = renumber(&[5, 2, 5, 0]);
        assert_eq!(out, vec![0, 1, 0, 2]);
        assert_eq!(k, 3);
    }

    #[test]
    fn renumber_empty() {
        let (out, k) = renumber(&[]);
        assert!(out.is_empty());
        assert_eq!(k, 0);
    }

    fn renumber_into_checked(src: &[VertexId], id_bound: usize) -> (Vec<VertexId>, usize) {
        let first: Vec<AtomicU32> = (0..id_bound).map(|_| AtomicU32::new(0)).collect();
        let mut out = vec![0; src.len()];
        let k = renumber_into(src, &mut out, id_bound, &first);
        (out, k)
    }

    #[test]
    fn renumber_into_matches_serial_small() {
        let src = vec![5, 2, 5, 0];
        assert_eq!(renumber_into_checked(&src, 6), renumber(&src));
        assert_eq!(renumber_into_checked(&[], 0), (vec![], 0));
    }

    #[test]
    fn renumber_into_matches_serial_above_parallel_threshold() {
        // Pseudo-random ids exercise the 4-pass parallel path.
        let n = PARALLEL_RENUMBER_THRESHOLD * 2;
        let src: Vec<u32> = (0..n as u64)
            .map(|i| ((i.wrapping_mul(2_654_435_761)) % 4099) as u32)
            .collect();
        let expected = renumber(&src);
        assert_eq!(renumber_into_checked(&src, 4099), expected);
        // Scratch larger than needed is fine too (workspace reuse).
        assert_eq!(renumber_into_checked(&src, 10_000), expected);
    }

    #[test]
    fn lookup_composes() {
        // Original 5 vertices currently in super-vertices [0,0,1,2,1];
        // pass merges super-vertices 0,1 → 0 and 2 → 1.
        let mut top = vec![0, 0, 1, 2, 1];
        lookup(&mut top, &[0, 0, 1]);
        assert_eq!(top, vec![0, 0, 0, 1, 0]);
    }

    #[test]
    fn lookup_identity_is_noop() {
        let mut top = vec![2, 0, 1];
        lookup(&mut top, &[0, 1, 2]);
        assert_eq!(top, vec![2, 0, 1]);
    }
}
