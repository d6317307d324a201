//! The collision-free per-thread hashtable (`H_t` in Algorithms 2–4).
//!
//! The paper allocates, per thread, a dense array with one slot per
//! possible community id plus a list of the keys actually touched. Because
//! community ids are bounded by the vertex count, the "hash" is the
//! identity function — hence *collision-free*. Insertion and lookup are a
//! single array access; clearing walks only the touched keys, so a scan of
//! a degree-`d` vertex costs O(d) regardless of the table size.
//!
//! The table is one `f64` array: a slot nobody touched since the last
//! clear holds `EMPTY_BITS`, a NaN whose low 29 payload bits are set.
//! An `f32` weight widened to `f64` keeps its payload in the high 23
//! mantissa bits and zeroes the low 29, and arithmetic on NaNs yields
//! either the default NaN or an operand's payload, so no accumulated
//! edge weight — NaN weights included — can read as empty. A first
//! touch, a later add and a lookup each read the slot once.
//!
//! This trades memory for the removal of all hashing and probing from
//! the innermost loop: 8 B per possible key per thread, the `T·N` term
//! in the paper's space complexity. The Leiden pass loop sizes the
//! tables by the keys a phase can actually meet (see
//! `gve_leiden::workspace`), which is often far below `N`.

use crate::workspace::resize_exact;

/// Bit pattern of an untouched slot: a quiet NaN whose low 29 payload
/// bits are nonzero, which no `f32` weight widened to `f64`, and no
/// NaN computed from such weights, can carry.
const EMPTY_BITS: u64 = 0x7FF8_0000_0DEA_D5ED;

/// Value of an untouched slot (compared by bits, never by `==`).
const EMPTY: f64 = f64::from_bits(EMPTY_BITS);

/// Dense accumulator map from community id (`u32`) to accumulated weight.
///
/// Used to tally `K_{i→c}` — the total edge weight from a vertex `i` to
/// each neighbouring community `c` — in the local-moving and refinement
/// phases, and the total weight between super-vertices in the aggregation
/// phase.
#[derive(Debug, Clone)]
pub struct CommunityMap {
    /// values[c] = accumulated weight towards community c, or
    /// `EMPTY_BITS` when c is not live.
    values: Vec<f64>,
    /// List of live keys, for O(touched) iteration and clearing.
    keys: Vec<u32>,
}

impl CommunityMap {
    /// Creates a map able to hold keys in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            values: vec![EMPTY; capacity],
            keys: Vec::new(),
        }
    }

    /// Number of key slots (maximum community id + 1).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.values.len()
    }

    /// Heap bytes the map holds: its slots and its key list.
    pub fn resident_bytes(&self) -> usize {
        8 * self.values.capacity() + 4 * self.keys.capacity()
    }

    /// Number of live keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no key is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Grows the table to hold keys in `0..capacity`. Growth empties
    /// the table: it frees the old slots before it allocates exactly
    /// `capacity` new ones, so the two never coexist, and keeps the key
    /// list's capacity. A table that is large enough is left as it is.
    ///
    /// A Leiden run grows its tables to the largest key bound its phases
    /// meet, between phases, and every scan clears its table before use;
    /// later passes and runs reuse the same tables.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if capacity > self.values.len() {
            self.keys.clear();
            self.values = Vec::new();
            resize_exact(&mut self.values, capacity, || EMPTY);
        }
    }

    /// Adds `weight` to key `key`'s accumulator.
    ///
    /// `weight` must not carry the empty-slot NaN pattern (see the
    /// module docs); no weight derived from `f32` edge weights can.
    #[inline]
    pub fn add(&mut self, key: u32, weight: f64) {
        debug_assert!(
            weight.to_bits() != EMPTY_BITS,
            "weight carries the empty-slot pattern"
        );
        let slot = &mut self.values[key as usize];
        if slot.to_bits() == EMPTY_BITS {
            *slot = weight;
            self.keys.push(key);
        } else {
            *slot += weight;
        }
    }

    /// Returns the accumulated weight for `key`, or `None` if untouched.
    #[inline]
    pub fn get(&self, key: u32) -> Option<f64> {
        let value = *self.values.get(key as usize)?;
        (value.to_bits() != EMPTY_BITS).then_some(value)
    }

    /// Returns the accumulated weight for `key`, `0.0` if untouched.
    #[inline]
    pub fn weight(&self, key: u32) -> f64 {
        self.get(key).unwrap_or(0.0)
    }

    /// Whether `key` has been touched since the last clear.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        self.get(key).is_some()
    }

    /// Iterates over live `(key, weight)` pairs in insertion order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.keys.iter().map(move |&k| (k, self.values[k as usize]))
    }

    /// Live keys in insertion order.
    #[inline]
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Clears the map in O(touched) time, writing the empty pattern back
    /// into each live slot.
    #[inline]
    pub fn clear(&mut self) {
        for &k in &self.keys {
            self.values[k as usize] = EMPTY;
        }
        self.keys.clear();
    }

    /// Returns the key with the maximum weight, breaking ties towards the
    /// smallest key, or `None` when empty.
    ///
    /// The smallest-key tie-break makes the greedy choice deterministic for
    /// a fixed scan content, which stabilizes tests.
    pub fn max_key(&self) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        for (k, w) in self.iter() {
            best = match best {
                None => Some((k, w)),
                Some((bk, bw)) if w > bw || (w == bw && k < bk) => Some((k, w)),
                other => other,
            };
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let mut m = CommunityMap::new(8);
        m.add(3, 1.0);
        m.add(3, 2.5);
        m.add(5, 4.0);
        assert_eq!(m.get(3), Some(3.5));
        assert_eq!(m.get(5), Some(4.0));
        assert_eq!(m.get(4), None);
        assert_eq!(m.weight(4), 0.0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn zero_weight_keys_are_still_live() {
        // A key inserted with weight 0 must be visible: self-loop-free
        // scans can legitimately produce zero accumulations.
        let mut m = CommunityMap::new(4);
        m.add(1, 0.0);
        assert!(m.contains(1));
        assert_eq!(m.get(1), Some(0.0));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn clear_resets_only_touched() {
        let mut m = CommunityMap::new(1000);
        for k in (0..1000).step_by(7) {
            m.add(k, 1.0);
        }
        m.clear();
        assert!(m.is_empty());
        for k in 0..1000 {
            assert_eq!(m.get(k), None, "key {k}");
        }
        // Reusable after clear.
        m.add(999, 2.0);
        assert_eq!(m.get(999), Some(2.0));
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let mut m = CommunityMap::new(10);
        m.add(9, 1.0);
        m.add(0, 2.0);
        m.add(9, 1.0);
        m.add(4, 3.0);
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(9, 2.0), (0, 2.0), (4, 3.0)]);
        assert_eq!(m.keys(), &[9, 0, 4]);
    }

    #[test]
    fn max_key_breaks_ties_to_smaller_key() {
        let mut m = CommunityMap::new(10);
        m.add(7, 5.0);
        m.add(2, 5.0);
        m.add(4, 1.0);
        assert_eq!(m.max_key(), Some((2, 5.0)));
    }

    #[test]
    fn max_key_empty_is_none() {
        let m = CommunityMap::new(4);
        assert_eq!(m.max_key(), None);
    }

    #[test]
    fn ensure_capacity_grows_exactly_and_empties() {
        let mut m = CommunityMap::new(2);
        m.add(1, 1.5);
        m.ensure_capacity(100);
        assert_eq!(m.capacity(), 100);
        assert_eq!(m.get(1), None, "growth empties the table");
        m.add(99, 2.0);
        let keys = m.keys.capacity();
        m.ensure_capacity(101);
        assert_eq!(m.values.capacity(), 101, "growth must be exact");
        assert_eq!(m.keys.capacity(), keys, "growth keeps the key list");
        assert_all_empty(&m);
        // A large enough table, live entries and all, is left alone.
        m.add(99, 2.0);
        m.ensure_capacity(10);
        assert_eq!(m.capacity(), 101);
        assert_eq!(m.get(99), Some(2.0));
    }

    /// Every slot of a fresh, cleared or grown table holds the empty
    /// pattern, so a key reads as absent exactly until its first add.
    fn assert_all_empty(m: &CommunityMap) {
        assert!(m.is_empty());
        for (k, v) in m.values.iter().enumerate() {
            assert_eq!(v.to_bits(), EMPTY_BITS, "slot {k}");
        }
    }

    #[test]
    fn empty_pattern_round_trips_through_clear_and_growth() {
        let mut m = CommunityMap::new(16);
        assert_all_empty(&m);
        for k in [0, 7, 15, 7] {
            m.add(k, -0.0);
        }
        assert_eq!(m.keys(), &[0, 7, 15]);
        m.clear();
        assert_all_empty(&m);
        // Growth leaves every slot empty, even over a live entry.
        m.add(3, 1.0);
        m.ensure_capacity(40);
        assert_all_empty(&m);
        m.add(39, 2.0);
        assert_eq!(m.get(39), Some(2.0));
        assert_eq!(m.get(40), None, "keys past the capacity are absent");
    }

    #[test]
    fn nan_edge_weights_are_live_values_not_empty_slots() {
        // Every f32 NaN, widened as the scans widen edge weights, and
        // every NaN arithmetic on them yields, keeps the low payload
        // bits clear — so a NaN accumulation stays a live key.
        let nans = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_0001),
            f32::from_bits(0x7FFF_FFFF),
            f32::from_bits(0xFFBF_FFFF),
        ];
        let mut m = CommunityMap::new(8);
        for (k, &nan) in nans.iter().enumerate() {
            let (k, w) = (k as u32, nan as f64);
            assert_ne!(w.to_bits(), EMPTY_BITS);
            m.add(k, 1.0);
            m.add(k, w);
            m.add(k, 2.0);
            // A NaN on the first touch is live too.
            m.add(7, w);
            m.add(7, 3.0);
            assert_eq!(m.keys(), &[k, 7]);
            for key in [k, 7] {
                assert!(m.get(key).is_some_and(f64::is_nan), "key {key}");
                assert_ne!(m.values[key as usize].to_bits(), EMPTY_BITS);
            }
            m.clear();
            assert_all_empty(&m);
        }
        let inf = f64::INFINITY;
        m.add(6, inf);
        m.add(6, -inf);
        assert!(m.contains(6), "inf - inf is a live NaN");
        assert_ne!(m.values[6].to_bits(), EMPTY_BITS);
    }

    #[test]
    fn negative_weights_accumulate() {
        let mut m = CommunityMap::new(4);
        m.add(0, 2.0);
        m.add(0, -3.0);
        assert_eq!(m.get(0), Some(-1.0));
        assert_eq!(m.max_key(), Some((0, -1.0)));
    }
}
