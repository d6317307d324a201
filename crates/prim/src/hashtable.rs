//! The collision-free per-thread hashtable (`H_t` in Algorithms 2–4).
//!
//! The paper allocates, per thread, a dense array with one slot per
//! possible community id plus a list of the keys actually touched. Because
//! community ids are bounded by the vertex count, the "hash" is the
//! identity function — hence *collision-free*. Insertion and lookup are a
//! single array access; clearing walks only the touched keys, so a scan of
//! a degree-`d` vertex costs O(d) regardless of the table size.
//!
//! This trades memory (O(N) per thread, the `T·N` term in the paper's
//! space complexity) for the removal of all hashing and probing from the
//! innermost loop of the algorithm.

use crate::workspace::resize_exact;

/// Dense accumulator map from community id (`u32`) to accumulated weight.
///
/// Used to tally `K_{i→c}` — the total edge weight from a vertex `i` to
/// each neighbouring community `c` — in the local-moving and refinement
/// phases, and the total weight between super-vertices in the aggregation
/// phase.
#[derive(Debug, Clone)]
pub struct CommunityMap {
    /// values[c] = accumulated weight towards community c.
    values: Vec<f64>,
    /// Whether slot c currently holds live data.
    touched: Vec<bool>,
    /// List of live keys, for O(touched) iteration and clearing.
    keys: Vec<u32>,
}

impl CommunityMap {
    /// Creates a map able to hold keys in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            values: vec![0.0; capacity],
            touched: vec![false; capacity],
            keys: Vec::new(),
        }
    }

    /// Number of key slots (maximum community id + 1).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.values.len()
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

    /// Grows the table to hold keys in `0..capacity`, keeping live
    /// entries. Growth allocates exactly `capacity` slots.
    ///
    /// Capacity only ever needs to grow to the vertex count of the first
    /// (largest) graph in a Leiden run; later passes reuse the same tables.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if capacity > self.values.len() {
            resize_exact(&mut self.values, capacity, || 0.0);
            resize_exact(&mut self.touched, capacity, || false);
        }
    }

    /// Adds `weight` to key `key`'s accumulator.
    #[inline]
    pub fn add(&mut self, key: u32, weight: f64) {
        let slot = key as usize;
        debug_assert!(slot < self.values.len(), "key {key} exceeds capacity");
        if !self.touched[slot] {
            debug_assert!(
                self.values[slot] == 0.0,
                "untouched slot {key} must be zero on entry"
            );
            self.touched[slot] = true;
            self.values[slot] = weight;
            self.keys.push(key);
        } else {
            self.values[slot] += weight;
        }
    }

    /// Returns the accumulated weight for `key`, or `None` if untouched.
    #[inline]
    pub fn get(&self, key: u32) -> Option<f64> {
        let slot = key as usize;
        self.touched
            .get(slot)
            .copied()
            .unwrap_or(false)
            .then(|| self.values[slot])
    }

    /// Returns the accumulated weight for `key`, `0.0` if untouched.
    #[inline]
    pub fn weight(&self, key: u32) -> f64 {
        self.get(key).unwrap_or(0.0)
    }

    /// Whether `key` has been touched since the last clear.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        self.touched.get(key as usize).copied().unwrap_or(false)
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

    /// Clears the map in O(touched) time.
    ///
    /// Only the `touched` flags are reset: zeroing `values` here would
    /// duplicate the store [`CommunityMap::add`] performs on a slot's
    /// first touch, so the value write is kept in exactly one place. In
    /// debug builds the values *are* zeroed so `add` can assert that
    /// untouched slots hold zero on entry.
    #[inline]
    pub fn clear(&mut self) {
        for &k in &self.keys {
            self.touched[k as usize] = false;
            #[cfg(debug_assertions)]
            {
                self.values[k as usize] = 0.0;
            }
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
    fn ensure_capacity_grows_preserving_content() {
        let mut m = CommunityMap::new(2);
        m.add(1, 1.5);
        m.ensure_capacity(100);
        assert_eq!(m.capacity(), 100);
        m.ensure_capacity(101);
        assert_eq!(m.values.capacity(), 101, "growth must be exact");
        assert_eq!(m.get(1), Some(1.5));
        m.add(99, 2.0);
        assert_eq!(m.get(99), Some(2.0));
        // Shrinking is a no-op.
        m.ensure_capacity(10);
        assert_eq!(m.capacity(), 101);
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
