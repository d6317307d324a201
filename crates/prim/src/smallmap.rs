//! Fixed-capacity stack-resident scan map — the low-degree tier of the
//! neighbourhood-scan kernel and of the aggregation's per-community scan.
//!
//! The collision-free [`CommunityMap`](crate::CommunityMap) buys O(1)
//! insert at the price of an O(N)-slot backing array per thread: every
//! scan of a degree-`d` vertex touches up to `d` cache lines scattered
//! across that array. For the overwhelming majority of vertices in
//! power-law graphs `d` is tiny, and a map over at most
//! [`HASH_SCAN_CAP`] entries that lives entirely on the worker's stack
//! beats the big table: every probe walks the same handful of cache
//! lines, nothing is heap-resident, and clearing touches only the live
//! entries. Hubs (degree above the caller's dispatch threshold) keep
//! using the big table.
//!
//! Entries are stored densely in insertion order — the same iteration
//! contract as [`CommunityMap::iter`](crate::CommunityMap::iter) — so a
//! caller that flushes the map row by row emits the same arcs, in the
//! same order and with the same weight bits, as the table path.

/// Capacity of [`HashScanMap`]: the maximum number of *distinct* keys a
/// single scan may touch. Callers dispatch on a degree bound at or below
/// this cap, so the map must stay correct at full occupancy: its hash
/// index has [`HASH_SLOTS`] (= 2×) slots, guaranteeing a free slot — and
/// hence probe termination — even with all 64 entries live.
pub const HASH_SCAN_CAP: usize = 64;

/// Power-of-two hash-slot count of [`HashScanMap`]'s open-addressed
/// index. Twice [`HASH_SCAN_CAP`] keeps the load factor ≤ 1/2 at full
/// entry occupancy, so every probe sequence reaches a free slot and
/// terminates — including lookups for absent keys on a full map.
pub const HASH_SLOTS: usize = 2 * HASH_SCAN_CAP;

/// Stack-resident open-addressing accumulator map — the low-degree scan
/// tier.
///
/// Three dense, insertion-ordered arrays (`keys`/`weights`/`aux` — the
/// kernel's choose pass folds straight over them as parallel slices)
/// plus a half-loaded 128-slot open-addressed index that finds a key's
/// entry in O(1) probes, like the big [`CommunityMap`](crate::CommunityMap)
/// table — without that table's O(N) heap arrays, scattered clears, or
/// choose-time gathers. (A linear search over the live entries would
/// cost O(live) compares per edge: quadratic over a row whose
/// neighbours all sit in distinct communities, exactly the first
/// local-moving iteration over singleton memberships.)
///
/// The aux slot is filled by the `aux_of` callback on a key's first
/// touch; the scan kernel uses it to issue each candidate's `Σ'` load
/// during the edge scan, while there are still misses to hide behind.
#[derive(Debug, Clone)]
pub struct HashScanMap {
    len: usize,
    /// Hash slot → dense entry index + 1; 0 marks a free slot.
    idx: [u8; HASH_SLOTS],
    /// Dense entry → its hash slot, for O(live) clearing.
    hslot: [u8; HASH_SCAN_CAP],
    keys: [u32; HASH_SCAN_CAP],
    weights: [f64; HASH_SCAN_CAP],
    aux: [f64; HASH_SCAN_CAP],
}

impl Default for HashScanMap {
    fn default() -> Self {
        Self::new()
    }
}

impl HashScanMap {
    /// Creates an empty map. Cheap: no heap allocation.
    pub fn new() -> Self {
        Self {
            len: 0,
            idx: [0; HASH_SLOTS],
            hslot: [0; HASH_SCAN_CAP],
            keys: [0; HASH_SCAN_CAP],
            weights: [0.0; HASH_SCAN_CAP],
            aux: [0.0; HASH_SCAN_CAP],
        }
    }

    /// Multiply-shift hash to a slot index: avalanches clustered
    /// community ids (post-aggregation ids are dense) across the table.
    #[inline]
    fn slot_of(key: u32) -> usize {
        (key.wrapping_mul(0x9E37_79B9) >> 25) as usize
    }

    /// Number of live keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `weight` to `key`'s accumulator; on the key's first touch,
    /// fills its aux slot with `aux_of(key)`.
    ///
    /// Callers must keep the distinct-key count at or below
    /// [`HASH_SCAN_CAP`] — the kernel dispatches on vertex degree against
    /// a threshold asserted at compile time to be within the cap, and a
    /// degree-≤64 vertex can fill the map completely. That is safe: the
    /// slot index holds [`HASH_SLOTS`] = 2× entries, so even a full map
    /// keeps free slots and every probe loop (insert *and* absent-key
    /// lookup) terminates. A fresh key past the cap is a caller bug:
    /// debug builds assert, release builds hit the dense arrays' bounds
    /// check.
    #[inline]
    pub fn add_with<F: FnOnce(u32) -> f64>(&mut self, key: u32, weight: f64, aux_of: F) {
        let mut h = Self::slot_of(key);
        loop {
            let d = self.idx[h] as usize;
            if d == 0 {
                let e = self.len;
                debug_assert!(
                    e < HASH_SCAN_CAP,
                    "HashScanMap overflow: dispatch must bound distinct keys by degree"
                );
                self.idx[h] = (e + 1) as u8;
                self.hslot[e] = h as u8;
                self.keys[e] = key;
                self.weights[e] = weight;
                self.aux[e] = aux_of(key);
                self.len = e + 1;
                return;
            }
            if self.keys[d - 1] == key {
                self.weights[d - 1] += weight;
                return;
            }
            h = (h + 1) & (HASH_SLOTS - 1);
        }
    }

    /// Accumulated weight for `key`, `0.0` if untouched.
    #[inline]
    pub fn weight(&self, key: u32) -> f64 {
        let mut h = Self::slot_of(key);
        loop {
            let d = self.idx[h] as usize;
            if d == 0 {
                return 0.0;
            }
            if self.keys[d - 1] == key {
                return self.weights[d - 1];
            }
            h = (h + 1) & (HASH_SLOTS - 1);
        }
    }

    /// Live keys in insertion order.
    #[inline]
    pub fn keys(&self) -> &[u32] {
        &self.keys[..self.len]
    }

    /// Live accumulated weights, parallel to [`HashScanMap::keys`].
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights[..self.len]
    }

    /// Live aux values, parallel to [`HashScanMap::keys`].
    #[inline]
    pub fn aux(&self) -> &[f64] {
        &self.aux[..self.len]
    }

    /// Resets the map in O(live) stack stores.
    #[inline]
    pub fn clear(&mut self) {
        for e in 0..self.len {
            self.idx[self.hslot[e] as usize] = 0;
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn accumulates_and_matches_model() {
        let mut m = HashScanMap::new();
        let mut model: HashMap<u32, f64> = HashMap::new();
        // Adversarial ids: stride-64 clusters that collide under cheap
        // masks, 48 distinct keys (below the 64-entry capacity).
        let ops: Vec<(u32, f64)> = (0..200u32)
            .map(|i| ((i % 48) * 64 + (i % 3), 0.5 + (i % 7) as f64))
            .collect();
        for &(k, w) in &ops {
            m.add_with(k, w, |_| 0.0);
            *model.entry(k).or_insert(0.0) += w;
        }
        assert_eq!(m.len(), model.len());
        for (&k, &w) in &model {
            assert!((m.weight(k) - w).abs() < 1e-9, "key {k}");
        }
        assert_eq!(m.weight(999_999), 0.0, "absent key reads zero");
    }

    #[test]
    fn aux_computed_once_on_first_touch() {
        let mut m = HashScanMap::new();
        let mut calls = 0;
        m.add_with(7, 1.0, |_| {
            calls += 1;
            42.0
        });
        m.add_with(7, 2.0, |_| {
            calls += 1;
            -1.0
        });
        assert_eq!(calls, 1, "aux_of runs only on first touch");
        assert_eq!(m.keys(), &[7]);
        assert_eq!(m.weights(), &[3.0]);
        assert_eq!(m.aux(), &[42.0]);
    }

    /// Regression: a degree-64 vertex whose neighbours all sit in
    /// distinct communities (the normal first local-moving iteration
    /// over singleton memberships, scanned on the stack tier) fills the
    /// map completely, and the kernel then looks up the
    /// vertex's own — absent — community. With a slot table equal in
    /// size to the entry count that lookup never terminated; the 2×
    /// slot table guarantees a free slot ends the probe.
    #[test]
    fn full_occupancy_absent_lookup_terminates() {
        let mut m = HashScanMap::new();
        for k in 0..HASH_SCAN_CAP as u32 {
            m.add_with(k * 64, 1.0 + k as f64, |key| key as f64);
        }
        assert_eq!(m.len(), HASH_SCAN_CAP);
        for k in 0..HASH_SCAN_CAP as u32 {
            assert_eq!(m.weight(k * 64), 1.0 + k as f64, "key {}", k * 64);
        }
        assert_eq!(m.weight(7), 0.0, "absent key on a full map reads zero");
        // Accumulating into an existing key of a full map is also legal.
        m.add_with(0, 2.0, |_| -1.0);
        assert_eq!(m.weight(0), 3.0);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.weight(0), 0.0);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut m = HashScanMap::new();
        for k in 0..(HASH_SCAN_CAP - 1) as u32 {
            m.add_with(k, 1.0, |_| 1.0);
        }
        assert_eq!(m.len(), HASH_SCAN_CAP - 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.weight(3), 0.0);
        m.add_with(3, 2.5, |_| 0.5);
        assert_eq!(m.keys(), &[3]);
        assert_eq!(m.weights(), &[2.5]);
        assert_eq!(m.aux(), &[0.5]);
    }

    #[test]
    fn insertion_order_is_preserved() {
        let mut m = HashScanMap::new();
        for &k in &[90, 5, 33, 5, 90, 2] {
            m.add_with(k, 1.0, |_| 0.0);
        }
        assert_eq!(m.keys(), &[90, 5, 33, 2]);
    }
}
