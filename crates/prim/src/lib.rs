//! Parallel primitives underpinning the GVE-Leiden reproduction.
//!
//! The paper's implementation leans on a small set of building blocks that
//! are independent of the Leiden algorithm itself:
//!
//! * [`scan`] — sequential and parallel exclusive/inclusive prefix sums,
//!   used to build CSR offset arrays during the aggregation phase
//!   (Algorithm 4, lines 3–4 and 8–9 of the paper);
//! * [`hashtable`] — the *collision-free per-thread hashtable* (`H_t` in
//!   Algorithms 2–4): a direct-indexed accumulator (one `f64` array whose
//!   empty slots hold a reserved NaN) with a touched-key list, giving
//!   O(1) insert/lookup and O(touched) clear;
//! * [`atomics`] — an atomic `f64` add/CAS built on `AtomicU64` bit games,
//!   used for the asynchronously updated community weights `Σ'`;
//! * [`smallmap`] — a fixed-capacity, stack-resident open-addressed map:
//!   the low-degree tier of the two-tier neighbourhood scan;
//! * [`bitset`] — an atomic bitset used for flag-based vertex pruning;
//! * [`rng`] — the xorshift32 generator the paper uses for randomized
//!   refinement;
//! * [`workspace`] — per-worker scratch buffers reused across passes
//!   (the paper's `O(T·N)` memory term; the Leiden pass loop sizes its
//!   tables by the keys a phase can meet);
//! * [`parfor`] — OpenMP's `schedule(dynamic, chunk)` and
//!   `schedule(static)` loops on the persistent worker pool;
//! * [`simd`] — lane-chunked candidate scoring, the "choose" half of
//!   the scan kernel's stack tier;
//! * [`alloc_count`] — an allocation-counting global allocator that lets
//!   the benchmarks prove the preallocation discipline (zero steady-state
//!   allocation in the Leiden hot path).

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod alloc_count;
pub mod atomics;
pub mod bitset;
pub mod hashtable;
pub mod parfor;
pub mod rng;
pub mod scan;
pub mod shared_slice;
pub mod simd;
pub mod smallmap;
pub mod workspace;

pub use alloc_count::{AllocSnapshot, CountingAllocator};
pub use atomics::AtomicF64;
pub use bitset::AtomicBitset;
pub use hashtable::CommunityMap;
pub use rng::Xorshift32;
pub use scan::{exclusive_scan_in_place, parallel_exclusive_scan};
pub use shared_slice::SharedSlice;
pub use smallmap::{HashScanMap, HASH_SCAN_CAP};
pub use workspace::PerThread;
