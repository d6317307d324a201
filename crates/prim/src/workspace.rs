//! Per-worker scratch buffers.
//!
//! GVE-Leiden allocates one collision-free hashtable per thread, reused
//! across iterations and passes (the paper's `O(T·N)` space term, which
//! the Leiden pass loop narrows to the keys a phase can meet). [`PerThread`]
//! is the ownership story for that: a fixed array of slots, one per pool
//! worker index, each claimed by the worker for the duration of a parallel
//! region. Slots are aligned to cache-line boundaries so the per-thread
//! state is "well separated in memory addresses" as the paper puts it —
//! the headers never false-share (the bulk of each scratch object lives in
//! its own heap allocations anyway).

use std::sync::{Mutex, PoisonError};

/// Resizes `v` to `len` like [`Vec::resize_with`], except that growth
/// allocates exactly `len` elements: `resize_with` alone may round the
/// capacity up to twice the old one, which a grow-only arena then holds
/// for good.
pub fn resize_exact<T>(v: &mut Vec<T>, len: usize, fill: impl FnMut() -> T) {
    v.reserve_exact(len.saturating_sub(v.len()));
    v.resize_with(len, fill);
}

/// Cache-line-aligned wrapper to keep neighbouring slots off the same line.
#[repr(align(64))]
struct Padded<T>(Mutex<Option<T>>);

/// A pool of lazily created per-worker values of type `T`.
///
/// `with` hands the calling pool worker exclusive access to "its" slot,
/// creating the value on first use. A worker keeps its index for the
/// pool's lifetime, so it finds the same slot loop after loop. Access
/// from outside a parallel loop (or from oversubscribed contexts) falls
/// back to an overflow list, so the abstraction is always safe, merely
/// fastest on the happy path.
pub struct PerThread<T> {
    slots: Vec<Padded<T>>,
    overflow: Mutex<Vec<T>>,
    make: Box<dyn Fn() -> T + Send + Sync>,
}

impl<T: Send> PerThread<T> {
    /// Creates a pool sized for the current thread pool, using
    /// `make` to lazily construct each worker's value.
    pub fn new(make: impl Fn() -> T + Send + Sync + 'static) -> Self {
        Self::with_capacity(rayon::current_num_threads(), make)
    }

    /// Creates a pool with an explicit number of fast-path slots.
    pub fn with_capacity(slots: usize, make: impl Fn() -> T + Send + Sync + 'static) -> Self {
        Self {
            slots: (0..slots.max(1))
                .map(|_| Padded(Mutex::new(None)))
                .collect(),
            overflow: Mutex::new(Vec::new()),
            make: Box::new(make),
        }
    }

    /// Runs `f` with exclusive access to this worker's scratch value.
    ///
    /// Do not call `with` reentrantly from within `f` on the same pool —
    /// the inner call would see the slot busy and construct a fresh
    /// overflow value, which is correct but wasteful.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let index = rayon::current_thread_index().unwrap_or(0);
        if let Some(slot) = self.slots.get(index) {
            if let Ok(mut guard) = slot.0.try_lock() {
                let value = guard.get_or_insert_with(|| self.pop_overflow());
                return f(value);
            }
        }
        // Slow path: slot busy (nested call / foreign thread). Use a
        // pooled overflow value so repeated slow paths don't reallocate.
        let mut value = self.pop_overflow();
        let result = f(&mut value);
        self.overflow.lock().unwrap().push(value);
        result
    }

    fn pop_overflow(&self) -> T {
        self.overflow
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_else(|| (self.make)())
    }

    /// Mutable sweep over every value materialized so far. The
    /// exclusive borrow guarantees no worker holds a slot concurrently.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(&mut T)) {
        for slot in &mut self.slots {
            if let Some(value) = slot.0.get_mut().expect("slot poisoned").as_mut() {
                f(value);
            }
        }
        for value in self
            .overflow
            .get_mut()
            .expect("overflow poisoned")
            .iter_mut()
        {
            f(value);
        }
    }

    /// Shared sweep over every value materialized so far. Waits for any
    /// worker that holds a slot to release it. A value whose worker
    /// panicked is still visited: callers only read it, and a pooled
    /// workspace is measured on its way back even while a panic unwinds,
    /// where a second panic would abort.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        for slot in &self.slots {
            let guard = slot.0.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(value) = guard.as_ref() {
                f(value);
            }
        }
        let overflow = self.overflow.lock().unwrap_or_else(PoisonError::into_inner);
        for value in overflow.iter() {
            f(value);
        }
    }

    /// Consumes the pool and returns every value that was materialized.
    pub fn into_values(self) -> Vec<T> {
        let mut values: Vec<T> = self
            .slots
            .into_iter()
            .filter_map(|s| s.0.into_inner().unwrap())
            .collect();
        values.extend(self.overflow.into_inner().unwrap());
        values
    }
}

impl<T: Send> std::fmt::Debug for PerThread<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerThread")
            .field("slots", &self.slots.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn resize_exact_grows_to_exactly_the_length() {
        let mut v: Vec<u64> = Vec::with_capacity(100);
        v.resize(100, 1);
        resize_exact(&mut v, 101, || 2);
        assert_eq!((v.len(), v.capacity()), (101, 101));
        assert_eq!(v[100], 2);
        // Shrinking truncates and keeps the allocation.
        resize_exact(&mut v, 10, || 3);
        assert_eq!((v.len(), v.capacity()), (10, 101));
    }

    #[test]
    fn with_reuses_value_on_same_thread() {
        let pool = PerThread::with_capacity(1, Vec::<u32>::new);
        pool.with(|v| v.push(1));
        pool.with(|v| v.push(2));
        let values = pool.into_values();
        assert_eq!(values, vec![vec![1, 2]]);
    }

    #[test]
    fn lazily_constructs_at_most_once_per_worker() {
        let constructed = std::sync::Arc::new(AtomicUsize::new(0));
        let c = std::sync::Arc::clone(&constructed);
        let pool = PerThread::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
            0u64
        });
        crate::parfor::static_for(10_000, |_| {
            pool.with(|v| *v += 1);
        });
        let values = pool.into_values();
        assert_eq!(values.iter().sum::<u64>(), 10_000);
        assert!(constructed.load(Ordering::SeqCst) <= rayon::current_num_threads() + 1);
    }

    #[test]
    fn nested_with_falls_back_safely() {
        let pool = PerThread::with_capacity(1, || 0u32);
        pool.with(|outer| {
            *outer += 1;
            // Reentrant call must not deadlock; it gets an overflow value.
            pool.with(|inner| *inner += 10);
        });
        let mut values = pool.into_values();
        values.sort_unstable();
        assert_eq!(values, vec![1, 10]);
    }

    #[test]
    fn for_each_visits_slot_and_overflow_values() {
        let pool = PerThread::with_capacity(2, || 0u32);
        let mut seen = Vec::new();
        pool.for_each(|&v| seen.push(v));
        assert!(seen.is_empty(), "nothing materialized yet");
        pool.with(|outer| {
            *outer = 1;
            pool.with(|inner| *inner = 10);
        });
        pool.for_each(|&v| seen.push(v));
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 10]);
        // A worker that panicked leaves its value readable.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.with(|_| panic!("worker failed"));
        }));
        assert!(caught.is_err());
        let mut count = 0;
        pool.for_each(|_| count += 1);
        assert_eq!(count, 2);
    }

    #[test]
    fn overflow_values_are_pooled() {
        let made = std::sync::Arc::new(AtomicUsize::new(0));
        let m = std::sync::Arc::clone(&made);
        let pool = PerThread::with_capacity(1, move || {
            m.fetch_add(1, Ordering::SeqCst);
            0u32
        });
        pool.with(|_| {
            pool.with(|_| {});
            pool.with(|_| {});
        });
        // One slot value + one reused overflow value.
        assert_eq!(made.load(Ordering::SeqCst), 2);
    }
}
