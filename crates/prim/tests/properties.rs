//! Property-based tests of the primitive substrate against reference
//! models.

use gve_prim::parfor::dynamic_workers;
use gve_prim::scan::{
    exclusive_scan_in_place, inclusive_scan_in_place, offsets_from_counts, parallel_exclusive_scan,
    parallel_offsets_from_counts,
};
use gve_prim::{AtomicBitset, CommunityMap, Xorshift32};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

/// 1-, 2- and 3-thread pools, built once for every proptest case.
fn pools() -> &'static [rayon::ThreadPool; 3] {
    static POOLS: OnceLock<[rayon::ThreadPool; 3]> = OnceLock::new();
    POOLS.get_or_init(|| {
        [1, 2, 3].map(|threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Parallel scan ≡ sequential scan ≡ naive model.
    #[test]
    fn scans_match_reference(values in proptest::collection::vec(0u64..1000, 0..2000)) {
        let mut expected = Vec::with_capacity(values.len());
        let mut running = 0u64;
        for &v in &values {
            expected.push(running);
            running += v;
        }
        let mut seq = values.clone();
        let total_seq = exclusive_scan_in_place(&mut seq);
        prop_assert_eq!(&seq, &expected);
        prop_assert_eq!(total_seq, running);

        let mut par = values.clone();
        let total_par = parallel_exclusive_scan(&mut par);
        prop_assert_eq!(&par, &expected);
        prop_assert_eq!(total_par, running);
    }

    /// Inclusive scan is the exclusive scan shifted by each element.
    #[test]
    fn inclusive_is_shifted_exclusive(values in proptest::collection::vec(0u64..1000, 1..500)) {
        let mut inc = values.clone();
        inclusive_scan_in_place(&mut inc);
        let mut exc = values.clone();
        exclusive_scan_in_place(&mut exc);
        for i in 0..values.len() {
            prop_assert_eq!(inc[i], exc[i] + values[i]);
        }
    }

    /// Offsets arrays have the CSR shape: monotone, one extra slot.
    #[test]
    fn offsets_shape(counts in proptest::collection::vec(0u64..100, 0..1000)) {
        let offsets = offsets_from_counts(&counts);
        prop_assert_eq!(offsets.len(), counts.len() + 1);
        prop_assert_eq!(offsets[0], 0);
        for (i, w) in offsets.windows(2).enumerate() {
            prop_assert_eq!(w[1] - w[0], counts[i]);
        }
        prop_assert_eq!(parallel_offsets_from_counts(&counts), offsets);
    }

    /// CommunityMap behaves as a HashMap<u32, f64> accumulator.
    #[test]
    fn community_map_matches_hashmap_model(
        ops in proptest::collection::vec((0u32..64, 0.1f64..10.0), 0..300),
    ) {
        let mut map = CommunityMap::new(64);
        let mut model: HashMap<u32, f64> = HashMap::new();
        for &(k, w) in &ops {
            map.add(k, w);
            *model.entry(k).or_insert(0.0) += w;
        }
        prop_assert_eq!(map.len(), model.len());
        for (&k, &w) in &model {
            let got = map.get(k).unwrap();
            prop_assert!((got - w).abs() < 1e-9, "key {}: {} vs {}", k, got, w);
        }
        // max_key agrees with the model (modulo tie-breaks on equal
        // weights, which the float sums make vanishingly unlikely here).
        if let Some((mk, mw)) = map.max_key() {
            let best_model = model.values().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((mw - best_model).abs() < 1e-9);
            prop_assert!((model[&mk] - best_model).abs() < 1e-9);
        } else {
            prop_assert!(model.is_empty());
        }
        // clear() really clears.
        map.clear();
        prop_assert!(map.is_empty());
        for &k in model.keys() {
            prop_assert_eq!(map.get(k), None);
        }
    }

    /// AtomicBitset behaves as a Vec<bool> model under set/clear/take.
    #[test]
    fn bitset_matches_model(
        len in 1usize..300,
        ops in proptest::collection::vec((0u8..3, 0usize..300), 0..200),
    ) {
        let bits = AtomicBitset::new(len);
        let mut model = vec![false; len];
        for &(op, raw_index) in &ops {
            let index = raw_index % len;
            match op {
                0 => {
                    let prev = bits.set(index);
                    prop_assert_eq!(prev, model[index]);
                    model[index] = true;
                }
                1 => {
                    let prev = bits.clear(index);
                    prop_assert_eq!(prev, model[index]);
                    model[index] = false;
                }
                _ => {
                    let took = bits.take(index);
                    prop_assert_eq!(took, model[index]);
                    model[index] = false;
                }
            }
        }
        prop_assert_eq!(bits.count_ones(), model.iter().filter(|&&b| b).count());
        for (i, &b) in model.iter().enumerate() {
            prop_assert_eq!(bits.get(i), b);
        }
    }

    /// Xorshift32 streams from different seeds are (pairwise) different
    /// and stay within bounds.
    #[test]
    fn rng_bounded_and_distinct(seed in 1u32.., bound in 1u32..10_000) {
        let mut a = Xorshift32::new(seed);
        let mut b = Xorshift32::new(seed.wrapping_add(1));
        let mut same = 0;
        for _ in 0..64 {
            let x = a.next_bounded(bound);
            prop_assert!(x < bound);
            if a.next_u32() == b.next_u32() {
                same += 1;
            }
        }
        prop_assert!(same < 8, "streams nearly identical");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `dynamic_workers` claims every index exactly once under 1-, 2-
    /// and 3-thread pools, in exactly `len.div_ceil(chunk)` claims —
    /// every claim starts on a chunk boundary, which is why
    /// `PassStats::sched_chunks` can report that count without a
    /// counter.
    #[test]
    fn dynamic_workers_claim_each_index_once(
        len in 0usize..5_000,
        chunk in 1usize..300,
    ) {
        for pool in pools() {
            let per_worker = pool.install(|| {
                dynamic_workers(len, chunk, |claims| claims.collect::<Vec<_>>())
            });
            prop_assert_eq!(per_worker.len(), pool.current_num_threads());
            let ranges: Vec<_> = per_worker.into_iter().flatten().collect();
            prop_assert_eq!(ranges.len(), len.div_ceil(chunk));
            let mut all: Vec<usize> = ranges.into_iter().flatten().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..len).collect::<Vec<_>>());
        }
    }
}
