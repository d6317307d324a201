//! Loom models for the inter-thread protocols the Leiden core relies
//! on: two claim protocols and the worker pool's handoff.
//!
//! Each model re-implements the protocol on `loom::sync::atomic` types
//! (the standard loom methodology: the model *is* the specification of
//! the protocol, kept line-for-line close to the production code it
//! mirrors) and asserts its invariant under perturbed schedules. With
//! the offline `shims/loom` stand-in these run as seeded stress
//! iterations; swap in crates.io loom and the same sources become
//! exhaustive model checks.
//!
//! The protocols, and the production sites they mirror:
//!
//! 1. **Dynamic-scheduler cursor** — `ChunkClaims::next` in
//!    `crates/prim/src/parfor.rs`: a saturating compare-exchange claim
//!    over a shared cursor. Invariants: every index claimed exactly
//!    once, and the cursor never runs past `len` (the regression the
//!    saturating CX fixed).
//! 2. **Σ′ isolation claim** — `AtomicF64::compare_exchange` in
//!    `crates/prim/src/atomics.rs`, used by refinement (Algorithm 3) to
//!    claim an isolated vertex by swapping its community weight from
//!    exactly `K'[i]` to `0`. Invariants: at most one claimant wins,
//!    and weight is conserved when the winner re-deposits.
//! 3. **Worker-pool handoff** — the wake and completion edges of the
//!    persistent pool every parallel loop runs on (`Registry::run` and
//!    `Registry::work` in `shims/rayon/src/lib.rs`): the caller posts a
//!    job with a Release epoch bump the workers Acquire, and each worker
//!    reports with an AcqRel decrement of a pending count the caller
//!    Acquires. Invariants, over repeated epochs with a share panicking
//!    in some of them: a Relaxed store the caller made before the
//!    broadcast is seen by every worker, and every worker's Relaxed
//!    store (and panic payload) is seen by the caller once the
//!    broadcast returns.

use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;
use std::panic::{self, AssertUnwindSafe};

/// Model 1 helper: one worker's claim loop, verbatim from
/// `ChunkClaims::next` (saturating compare-exchange; Relaxed is the
/// production ordering — the cursor carries no payload and the model's
/// joins provide the cross-thread ordering, exactly like the rayon
/// broadcast join does in production).
fn claim_chunks(cursor: &AtomicUsize, len: usize, chunk: usize, claims: &mut Vec<usize>) {
    // Relaxed: mirrors the production cursor protocol; see above.
    let mut start = cursor.load(Ordering::Relaxed);
    loop {
        if start >= len {
            return;
        }
        let end = (start + chunk).min(len);
        match cursor.compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                claims.extend(start..end);
                // Relaxed: re-poll after a successful claim, as above.
                start = cursor.load(Ordering::Relaxed);
            }
            Err(observed) => start = observed,
        }
    }
}

#[test]
fn chunk_cursor_claims_each_index_once_and_saturates() {
    loom::model(|| {
        const LEN: usize = 5;
        let cursor = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let cursor = Arc::clone(&cursor);
                thread::spawn(move || {
                    let mut claims = Vec::new();
                    claim_chunks(&cursor, LEN, 2, &mut claims);
                    claims
                })
            })
            .collect();
        let mut seen = [0u32; LEN];
        for h in handles {
            for i in h.join().unwrap() {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "each index claimed exactly once, got {seen:?}"
        );
        // The regression the saturating CX fixed: exhausted pollers must
        // not push the shared cursor past `len`.
        assert_eq!(cursor.load(Ordering::Relaxed), LEN);
    });
}

/// Model 2 helper: the refinement isolation claim from
/// `AtomicF64::compare_exchange` — bit-pattern CAS from exactly `k` to
/// `0.0`, with the production AcqRel/Acquire orderings.
fn try_claim(sigma: &AtomicU64, k: f64) -> bool {
    sigma
        .compare_exchange(
            k.to_bits(),
            0.0f64.to_bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        )
        .is_ok()
}

/// Model 2 helper: the Σ′ deposit, a bit-CAS `fetch_add` loop mirroring
/// `AtomicF64::fetch_add` (Relaxed: production ordering — only the
/// add's atomicity matters, totals are value-published at phase joins).
fn deposit(sigma: &AtomicU64, delta: f64) {
    // Relaxed: mirrors the production fetch_add protocol; see above.
    let mut current = sigma.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + delta).to_bits();
        match sigma.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

#[test]
fn sigma_isolation_claim_has_single_winner_and_conserves_weight() {
    loom::model(|| {
        const K: f64 = 4.25; // the vertex's weighted degree K'[i]
        const TARGET: f64 = 1.5; // Σ′ of the community being joined
        let source = Arc::new(AtomicU64::new(K.to_bits()));
        let target = Arc::new(AtomicU64::new(TARGET.to_bits()));
        let wins = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let source = Arc::clone(&source);
                let target = Arc::clone(&target);
                let wins = Arc::clone(&wins);
                thread::spawn(move || {
                    if try_claim(&source, K) {
                        // Winner moves the vertex: deposit K into the
                        // target community, as refinement does after the
                        // isolation CAS succeeds.
                        deposit(&target, K);
                        // Relaxed: win tally is assertion bookkeeping.
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            wins.load(Ordering::Relaxed),
            1,
            "exactly one thread may claim the isolated vertex"
        );
        // Relaxed: post-join read-back.
        let src = f64::from_bits(source.load(Ordering::Relaxed));
        let tgt = f64::from_bits(target.load(Ordering::Relaxed));
        assert_eq!(src, 0.0, "claimed community weight must be zeroed");
        assert_eq!(src + tgt, K + TARGET, "total weight conserved");
    });
}

/// Model 3 helper: one pool worker's loop, mirroring `Registry::work`:
/// wait for the epoch to move (the production worker parks after a
/// bounded spin; a yield stands in for the park), run its share under
/// `catch_unwind`, record a panic payload in its own slot, then
/// decrement `pending`.
fn pool_worker(
    me: usize,
    epochs: usize,
    epoch: &AtomicUsize,
    pending: &AtomicUsize,
    input: &AtomicUsize,
    outputs: &[AtomicUsize],
    panic_slots: &[AtomicUsize],
) {
    let mut seen = 0;
    for _ in 0..epochs {
        while epoch.load(Ordering::Acquire) == seen {
            thread::yield_now();
        }
        seen = epoch.load(Ordering::Acquire);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            // Relaxed: the payload rides on the epoch's Release/Acquire.
            let got = input.load(Ordering::Relaxed);
            // Relaxed: published by the decrement below.
            outputs[me].store(got * 10 + me + 1, Ordering::Relaxed);
            if (me + seen).is_multiple_of(3) {
                // `resume_unwind` skips the panic hook: a quiet panic.
                panic::resume_unwind(Box::new(seen * 10 + me));
            }
        }));
        if let Err(payload) = outcome {
            let payload = *payload.downcast::<usize>().expect("usize payload");
            // Relaxed: published by the decrement below, as in production,
            // where each worker writes its own slot before it.
            panic_slots[me].store(payload, Ordering::Relaxed);
        }
        pending.fetch_sub(1, Ordering::AcqRel);
    }
}

#[test]
fn pool_handoff_publishes_across_every_broadcast() {
    loom::model(|| {
        const WORKERS: usize = 2;
        const EPOCHS: usize = 3;
        const NO_PANIC: usize = usize::MAX;
        let epoch = Arc::new(AtomicUsize::new(0));
        let pending = Arc::new(AtomicUsize::new(0));
        let input = Arc::new(AtomicUsize::new(0));
        let outputs: Arc<Vec<AtomicUsize>> =
            Arc::new((0..WORKERS).map(|_| AtomicUsize::new(0)).collect());
        let panic_slots: Arc<Vec<AtomicUsize>> =
            Arc::new((0..WORKERS).map(|_| AtomicUsize::new(NO_PANIC)).collect());
        let handles: Vec<_> = (0..WORKERS)
            .map(|me| {
                let (epoch, pending, input) =
                    (Arc::clone(&epoch), Arc::clone(&pending), Arc::clone(&input));
                let (outputs, panic_slots) = (Arc::clone(&outputs), Arc::clone(&panic_slots));
                thread::spawn(move || {
                    pool_worker(me, EPOCHS, &epoch, &pending, &input, &outputs, &panic_slots);
                })
            })
            .collect();
        for e in 1..=EPOCHS {
            // The caller's store before the broadcast (Relaxed: the
            // epoch bump below publishes it).
            input.store(e * 7, Ordering::Relaxed);
            // Relaxed: published by the epoch bump, as in production.
            pending.store(WORKERS, Ordering::Relaxed);
            epoch.fetch_add(1, Ordering::Release);
            while pending.load(Ordering::Acquire) != 0 {
                thread::yield_now();
            }
            for (me, output) in outputs.iter().enumerate() {
                // Relaxed: ordered by the Acquire load that saw zero.
                let got = output.load(Ordering::Relaxed);
                assert_eq!(got, e * 70 + me + 1, "epoch {e}, worker {me}");
            }
            for (me, slot) in panic_slots.iter().enumerate() {
                let panicked = (me + e).is_multiple_of(3);
                // Relaxed: ordered by the Acquire load that saw zero; the
                // caller empties the slot before the next bump publishes
                // it, as production takes it under the gate.
                let payload = slot.swap(NO_PANIC, Ordering::Relaxed);
                assert_eq!(payload, if panicked { e * 10 + me } else { NO_PANIC });
            }
        }
        for h in handles {
            h.join().unwrap();
        }
    });
}
