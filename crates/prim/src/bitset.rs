//! Atomic bitset used for flag-based vertex pruning.
//!
//! GVE-Leiden replaces NetworKit's global work queues with a per-vertex
//! "unprocessed" flag (Algorithm 2, lines 2, 6 and 14): a vertex is marked
//! processed when visited and its neighbours are re-marked unprocessed when
//! it moves. A `Vec<AtomicU64>` bitset keeps this O(N/8) bytes and lets
//! many threads flip flags without locks.

use std::sync::atomic::{AtomicU64, Ordering};

const BITS: usize = u64::BITS as usize;

/// A fixed-size bitset whose bits can be set/cleared/tested concurrently.
#[derive(Debug)]
pub struct AtomicBitset {
    words: Vec<AtomicU64>,
    len: usize,
}

impl Default for AtomicBitset {
    /// An empty (zero-length) bitset.
    fn default() -> Self {
        Self::new(0)
    }
}

impl AtomicBitset {
    /// Creates a bitset of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(BITS)).map(|_| AtomicU64::new(0)).collect();
        Self { words, len }
    }

    /// Creates a bitset of `len` bits, all set.
    pub fn new_all_set(len: usize) -> Self {
        let set = Self::new(len);
        set.set_all();
        set
    }

    /// Heap bytes the set holds.
    pub fn resident_bytes(&self) -> usize {
        8 * self.words.capacity()
    }

    /// Number of bits in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitset holds no bits at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn split(&self, index: usize) -> (usize, u64) {
        debug_assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (index / BITS, 1u64 << (index % BITS))
    }

    /// Tests bit `index`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        let (word, mask) = self.split(index);
        // Relaxed: flag reads tolerate staleness (pruning hints).
        self.words[word].load(Ordering::Relaxed) & mask != 0
    }

    /// Sets bit `index`; returns the previous value.
    ///
    /// A bit that already reads as set costs one load and no RMW: the
    /// pruning loops mark every neighbour of a moved vertex, and most of
    /// those flags are still set.
    #[inline]
    pub fn set(&self, index: usize) -> bool {
        let (word, mask) = self.split(index);
        let word = &self.words[word];
        // Relaxed: a set bit stays set until its owner takes it, so the
        // load alone answers; otherwise the RMW atomicity carries the
        // claim semantics. No payload is published through the bit.
        word.load(Ordering::Relaxed) & mask != 0
            || word.fetch_or(mask, Ordering::Relaxed) & mask != 0
    }

    /// Clears bit `index`; returns the previous value.
    #[inline]
    pub fn clear(&self, index: usize) -> bool {
        let (word, mask) = self.split(index);
        // Relaxed: as in `set` — RMW atomicity is the claim.
        self.words[word].fetch_and(!mask, Ordering::Relaxed) & mask != 0
    }

    /// Atomically tests-and-clears bit `index`; returns `true` when the bit
    /// was set and this call cleared it.
    ///
    /// This is the pruning primitive: "if unprocessed { mark processed }"
    /// becomes a single `fetch_and`, so two threads racing on the same
    /// vertex cannot both claim it within one iteration. A bit that
    /// reads as clear costs one load and no RMW.
    #[inline]
    pub fn take(&self, index: usize) -> bool {
        let (word, mask) = self.split(index);
        // Relaxed: a clear read means no claim, exactly as a losing RMW.
        self.words[word].load(Ordering::Relaxed) & mask != 0 && self.clear(index)
    }

    /// Takes the first set bit in `[from, end)` and returns its index,
    /// or `end` when no bit in the range is set; `end` must not exceed
    /// [`AtomicBitset::len`].
    ///
    /// Reads a word before it writes one: a word with no set bit in the
    /// range is skipped with one load, and only a bit that reads as set
    /// pays the `fetch_and` that claims it. A bit lost to a concurrent
    /// `take` is passed over like a clear one. Every index in
    /// `[from, result)` was clear (or lost) when it was passed, which is
    /// what a loop of single-bit [`AtomicBitset::take`]s from `from`
    /// would have found at the same moments.
    #[inline]
    pub fn take_next(&self, from: usize, end: usize) -> usize {
        debug_assert!(end <= self.len, "range end {end} out of range {}", self.len);
        let mut index = from;
        while index < end {
            let (w, base) = (index / BITS, index - index % BITS);
            // Bits at and after `index`, and before `end`, of word `w`.
            let mut live = u64::MAX << (index % BITS);
            if end - base < BITS {
                live &= (1u64 << (end - base)) - 1;
            }
            // Relaxed: flag reads tolerate staleness; the claim below is
            // the RMW.
            let bits = self.words[w].load(Ordering::Relaxed) & live;
            if bits == 0 {
                index = base + BITS;
                continue;
            }
            let found = base + bits.trailing_zeros() as usize;
            let mask = 1u64 << (found % BITS);
            // Relaxed: as in `clear` — RMW atomicity is the claim.
            if self.words[w].fetch_and(!mask, Ordering::Relaxed) & mask != 0 {
                return found;
            }
            index = found + 1;
        }
        end
    }

    /// Sets every bit.
    ///
    /// Relaxed stores: bulk (re)initialization between parallel phases;
    /// the phase-boundary join publishes the words.
    pub fn set_all(&self) {
        if self.len == 0 {
            return;
        }
        let full_words = self.len / BITS;
        for word in &self.words[..full_words] {
            word.store(u64::MAX, Ordering::Relaxed);
        }
        let tail = self.len % BITS;
        if tail != 0 {
            // Relaxed: bulk reset between phases, as above.
            self.words[full_words].store((1u64 << tail) - 1, Ordering::Relaxed);
        }
    }

    /// Sets bits `[0, n)` and clears bits `[n, len)`.
    ///
    /// This is the prefix-reset primitive behind workspace reuse: one
    /// capacity-`len` bitset serves every (shrinking) pass by marking
    /// exactly the current pass's vertices unprocessed. Relaxed stores,
    /// as in [`AtomicBitset::set_all`] — bulk reinitialization between
    /// parallel phases, published by the phase-boundary join.
    ///
    /// # Panics
    /// Panics when `n > len`.
    pub fn set_first(&self, n: usize) {
        assert!(n <= self.len, "prefix {n} out of range {}", self.len);
        let full_words = n / BITS;
        for word in &self.words[..full_words] {
            // Relaxed: bulk reset between phases, as in `set_all`.
            word.store(u64::MAX, Ordering::Relaxed);
        }
        let tail = n % BITS;
        if tail != 0 {
            // Relaxed: bulk reset between phases, as above.
            self.words[full_words].store((1u64 << tail) - 1, Ordering::Relaxed);
        }
        let first_clear = full_words + usize::from(tail != 0);
        for word in &self.words[first_clear..] {
            word.store(0, Ordering::Relaxed);
        }
    }

    /// Clears every bit.
    pub fn clear_all(&self) {
        for word in &self.words {
            // Relaxed: bulk reset between phases, as in `set_all`.
            word.store(0, Ordering::Relaxed);
        }
    }

    /// Counts the set bits (not atomic with respect to concurrent updates).
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            // Relaxed: advisory snapshot by documented contract.
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// True when no bit is set (not atomic with respect to updates).
    pub fn none_set(&self) -> bool {
        // Relaxed: advisory snapshot by documented contract.
        self.words.iter().all(|w| w.load(Ordering::Relaxed) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn new_is_all_clear() {
        let b = AtomicBitset::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert!(b.none_set());
    }

    #[test]
    fn empty_bitset() {
        let b = AtomicBitset::new(0);
        assert!(b.is_empty());
        b.set_all(); // must not panic
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let b = AtomicBitset::new(100);
        assert!(!b.set(63));
        assert!(b.get(63));
        assert!(b.set(63)); // second set reports previously-set
        assert!(b.clear(63));
        assert!(!b.get(63));
        assert!(!b.clear(63));
    }

    #[test]
    fn set_all_respects_tail_bits() {
        let b = AtomicBitset::new(70);
        b.set_all();
        assert_eq!(b.count_ones(), 70);
        for i in 0..70 {
            assert!(b.get(i), "bit {i}");
        }
        b.clear_all();
        assert!(b.none_set());
    }

    #[test]
    fn set_all_exact_word_boundary() {
        let b = AtomicBitset::new(128);
        b.set_all();
        assert_eq!(b.count_ones(), 128);
    }

    #[test]
    fn new_all_set() {
        let b = AtomicBitset::new_all_set(65);
        assert_eq!(b.count_ones(), 65);
    }

    #[test]
    fn set_first_prefix_and_suffix() {
        let b = AtomicBitset::new(200);
        b.set_all();
        b.set_first(70);
        assert_eq!(b.count_ones(), 70);
        for i in 0..70 {
            assert!(b.get(i), "prefix bit {i}");
        }
        for i in 70..200 {
            assert!(!b.get(i), "suffix bit {i}");
        }
        // Word-aligned prefix and the degenerate cases.
        b.set_first(128);
        assert_eq!(b.count_ones(), 128);
        b.set_first(0);
        assert!(b.none_set());
        b.set_first(200);
        assert_eq!(b.count_ones(), 200);
    }

    #[test]
    #[should_panic(expected = "prefix")]
    fn set_first_rejects_overlong_prefix() {
        AtomicBitset::new(10).set_first(11);
    }

    #[test]
    fn take_claims_exactly_once() {
        let b = AtomicBitset::new(1);
        b.set(0);
        assert!(b.take(0));
        assert!(!b.take(0));
    }

    /// `take_next` claims exactly the bits a bit-by-bit `take` loop
    /// claims, in the same order, and stops at `end` — across whole
    /// clear words, ranges that start and end mid-word, and the tail.
    #[test]
    fn take_next_matches_a_take_loop() {
        let len = 300;
        let pattern = |i: usize| i % 7 == 3 || (130..140).contains(&i) || i == 299;
        for (from, end) in [
            (0, 300),
            (5, 64),
            (64, 128),
            (70, 250),
            (128, 192),
            (299, 300),
            (9, 9),
        ] {
            let (fast, slow) = (AtomicBitset::new(len), AtomicBitset::new(len));
            for i in (0..len).filter(|&i| pattern(i)) {
                fast.set(i);
                slow.set(i);
            }
            let expected: Vec<usize> = (from..end).filter(|&i| slow.take(i)).collect();
            let mut got = Vec::new();
            let mut i = from;
            loop {
                i = fast.take_next(i, end);
                if i == end {
                    break;
                }
                got.push(i);
                i += 1;
            }
            assert_eq!(got, expected, "range {from}..{end}");
            assert_eq!(fast.count_ones(), slow.count_ones(), "range {from}..{end}");
        }
    }

    #[test]
    fn concurrent_take_claims_each_bit_once() {
        let n = 4096;
        let b = Arc::new(AtomicBitset::new_all_set(n));
        let claimed: Vec<_> = (0..8)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || (0..n).filter(|&i| b.take(i)).count())
            })
            .map(|t| t.join().unwrap())
            .collect();
        assert_eq!(claimed.iter().sum::<usize>(), n);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn out_of_range_panics_in_debug() {
        let b = AtomicBitset::new(10);
        b.get(10);
    }
}
