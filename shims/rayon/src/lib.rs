//! Offline stand-in for the subset of the `rayon` API this workspace
//! uses, so the repo builds and tests in network-less containers where
//! the real crates.io `rayon` is unavailable. It is also the workspace's
//! one parallel runtime: `gve_prim::parfor` builds every OpenMP-style
//! loop on [`broadcast`].
//!
//! * A [`ThreadPool`] of `n` threads spawns its `n - 1` workers **once**,
//!   when it is built; the default pool does so on its first
//!   [`broadcast`]. Worker `i` keeps index `i` for the pool's lifetime,
//!   which is what `gve_prim::PerThread` keys its slots on.
//! * [`broadcast`] runs the closure once per worker index: the calling
//!   thread runs index 0 and the parked workers run `1..n`. The caller
//!   posts the job and bumps an epoch counter (a Release store the
//!   workers Acquire); each worker's completion is a Release decrement
//!   of a pending count the caller Acquires. Everything a caller wrote
//!   before `broadcast` is visible to every worker, and everything a
//!   worker wrote is visible to the caller after `broadcast` returns.
//! * An idle worker spins for at most [`SPIN_LIMIT`] before it parks, so
//!   back-to-back loops skip the wake-up but an idle pool holds no core.
//!   The caller waits for its workers the same way. The spin yields its
//!   time slice on every check, so a spinning thread does not starve
//!   the one it waits for when both land on one core.
//! * A one-thread broadcast runs inline on the caller and touches no
//!   worker.
//! * Concurrent callers on one pool (the server's detect workers and
//!   update path share the default pool) take turns through a per-pool
//!   gate, one whole broadcast at a time, so a worker never holds two
//!   jobs. A broadcast nested in a job of the same pool runs its
//!   indices one after another on the calling thread instead of waiting
//!   for the gate it holds.
//! * A panic in any share is re-raised on the caller with its own
//!   payload, after every worker has finished; the pool stays usable.
//!   Each worker parks its payload in a slot of its own, so the caller
//!   collects it without taking a second lock under the gate.
//! * [`ThreadPool::install`] makes a pool current for the calling
//!   thread, so thread-count sweeps (`fig9_scaling`, the deterministic
//!   tests) choose the pool their loops run on.
//!
//! There are no parallel iterator adapters: a loop is either a
//! `gve_prim::parfor` loop over [`broadcast`] or a plain `std` iterator.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::mem::{ManuallyDrop, MaybeUninit};
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Longest a waiting thread spins before it parks: an idle worker
/// between two loops, or a caller waiting for its workers.
///
/// It must sit well above the host's wake-up latency. A park costs its
/// waker a wake-up of some tens of µs; with a bound just below that
/// latency, a worker parks just before each broadcast arrives and the
/// caller parks just before the workers finish, so every loop pays the
/// wake-up twice. A pass's loops follow each other well within 1 ms.
pub const SPIN_LIMIT: Duration = Duration::from_millis(1);

thread_local! {
    /// Worker index inside a `broadcast`, `None` outside one.
    static THREAD_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
    /// Pool made current by `ThreadPool::install` (or a worker's own
    /// pool); null means the default pool.
    static CURRENT: Cell<*const Registry> = const { Cell::new(std::ptr::null()) };
    /// Pool whose job this thread is running, null outside any job.
    static RUNNING: Cell<*const Registry> = const { Cell::new(std::ptr::null()) };
}

/// Restores a thread-local cell when dropped, on return or unwind.
struct Restore<T: Copy + 'static> {
    key: &'static std::thread::LocalKey<Cell<T>>,
    previous: T,
}

impl<T: Copy + 'static> Restore<T> {
    fn set(key: &'static std::thread::LocalKey<Cell<T>>, value: T) -> Self {
        let previous = key.with(|cell| cell.replace(value));
        Self { key, previous }
    }
}

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        let previous = self.previous;
        self.key.with(|cell| cell.set(previous));
    }
}

fn hardware_threads() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Number of worker threads of the current pool.
pub fn current_num_threads() -> usize {
    let current = CURRENT.with(Cell::get);
    if current.is_null() {
        GLOBAL
            .get()
            .map_or_else(hardware_threads, |r| r.num_threads)
    } else {
        // SAFETY: a non-null `CURRENT` is a live registry: `install`
        // borrows its pool for as long as the pointer is set, and a
        // worker holds an `Arc` to its own registry.
        unsafe { (*current).num_threads }
    }
}

/// Index of the current worker inside a [`broadcast`], if any.
pub fn current_thread_index() -> Option<usize> {
    THREAD_INDEX.with(Cell::get)
}

/// Context handed to every [`broadcast`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct BroadcastContext {
    index: usize,
    num_threads: usize,
}

impl BroadcastContext {
    /// This worker's index in `0..num_threads()`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of workers participating in the broadcast.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }
}

/// A posted job, type-erased: `call(data, index)` runs share `index`.
#[derive(Clone, Copy)]
struct JobRef {
    data: *const (),
    // SAFETY: `call` is `call_broadcast` instantiated for the type that
    // `data` points to, and may be called only while that job is live
    // and with an index whose result slot no other share writes (the
    // contract of `call_broadcast`). `run` calls it once per index while
    // the broadcasting caller keeps the job alive.
    call: unsafe fn(*const (), usize),
}

/// What a panicking share unwound with.
type PanicPayload = Box<dyn Any + Send>;

/// The state a pool's caller and workers share.
struct Registry {
    num_threads: usize,
    /// Held for a whole broadcast: concurrent callers take turns.
    gate: Mutex<()>,
    /// Bumped (Release) once per posted job; workers Acquire it.
    epoch: AtomicUsize,
    /// The posted job. Written by the gate holder before the epoch
    /// bump, read by each worker after it sees the bump.
    job: UnsafeCell<Option<JobRef>>,
    /// The thread waiting for the job, written with `job`.
    caller: UnsafeCell<Option<Thread>>,
    /// Workers still running the posted job.
    pending: AtomicUsize,
    /// Panic payload of each worker's share of the posted job. Slot `i`
    /// is written only by worker `i`, before its Release decrement of
    /// `pending`, and emptied by the gate holder after its Acquire wait
    /// has seen `pending` reach zero. Slot 0 (the caller's share) stays
    /// empty: the caller keeps its own payload.
    panics: Box<[UnsafeCell<Option<PanicPayload>>]>,
    /// Worker handles, for waking them; set once, after spawning.
    workers: OnceLock<Vec<Thread>>,
    shutdown: AtomicBool,
}

// SAFETY: `job` and `caller` are written only by the gate holder while
// no worker runs (pending is zero and the epoch has not moved yet), and
// read by workers only between the epoch bump and their pending
// decrement, ordered by that Release/Acquire pair. A `panics` slot is
// written by its one worker before that decrement and read by the gate
// holder only after every decrement, ordered by the same decrement and
// the caller's Acquire wait. The job data itself is `Sync` (see
// `broadcast`'s bounds).
unsafe impl Sync for Registry {}
// SAFETY: as above; every field is owned data or synchronized.
unsafe impl Send for Registry {}

impl Registry {
    fn new(num_threads: usize) -> Arc<Self> {
        Arc::new(Self {
            num_threads,
            gate: Mutex::new(()),
            epoch: AtomicUsize::new(0),
            job: UnsafeCell::new(None),
            caller: UnsafeCell::new(None),
            pending: AtomicUsize::new(0),
            panics: (0..num_threads).map(|_| UnsafeCell::new(None)).collect(),
            workers: OnceLock::new(),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Spawns workers `1..num_threads` and records their handles.
    fn spawn(self: &Arc<Self>) -> Vec<JoinHandle<()>> {
        let handles: Vec<JoinHandle<()>> = (1..self.num_threads)
            .map(|index| {
                let registry = Arc::clone(self);
                thread::Builder::new()
                    .name(format!("gve-pool-{index}"))
                    .spawn(move || registry.work(index))
                    .expect("failed to spawn a pool worker")
            })
            .collect();
        let threads = handles.iter().map(|h| h.thread().clone()).collect();
        let _ = self.workers.set(threads);
        handles
    }

    /// A worker's loop: wait for the epoch to move, run its share of
    /// the posted job, report completion.
    fn work(&self, index: usize) {
        CURRENT.with(|c| c.set(self));
        let mut seen = 0usize;
        loop {
            wait_for(|| {
                self.shutdown.load(Ordering::Acquire) || self.epoch.load(Ordering::Acquire) != seen
            });
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            seen = self.epoch.load(Ordering::Acquire);
            // SAFETY: the Acquire load above saw the bump that published
            // `job` and `caller`; neither changes until this worker's
            // decrement below.
            let (job, caller) = unsafe { (*self.job.get(), (*self.caller.get()).clone()) };
            let job = job.expect("an epoch bump always posts a job");
            let outcome = {
                let _index = Restore::set(&THREAD_INDEX, Some(index));
                let _running = Restore::set(&RUNNING, self as *const Registry);
                // SAFETY: the job's data lives until the caller has seen
                // every decrement, which happens after this call.
                panic::catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, index) }))
            };
            if let Err(payload) = outcome {
                // SAFETY: slot `index` is this worker's alone until its
                // decrement below; the gate holder reads it only after.
                unsafe { *self.panics[index].get() = Some(payload) };
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                if let Some(caller) = caller {
                    caller.unpark();
                }
            }
        }
    }

    /// Runs `job` on every index: 0 on the calling thread, the rest on
    /// the workers. Returns once every share has finished, re-raising
    /// the first panic.
    fn run(&self, job: JobRef) {
        if std::ptr::eq(RUNNING.with(Cell::get), self) {
            // Nested in one of this pool's own jobs: the gate is ours
            // already, so run every share here, in index order.
            for index in 0..self.num_threads {
                let _index = Restore::set(&THREAD_INDEX, Some(index));
                // SAFETY: the job's data outlives this call.
                unsafe { (job.call)(job.data, index) };
            }
            return;
        }
        let gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        // SAFETY: the gate is held and every worker has finished the
        // previous job (pending is zero), so nobody reads these now.
        unsafe {
            *self.job.get() = Some(job);
            *self.caller.get() = Some(thread::current());
        }
        // Relaxed: no worker reads `pending` before the Release epoch
        // bump below publishes this store, and every worker's last
        // decrement of the previous job was Acquired by its gate holder.
        self.pending.store(self.num_threads - 1, Ordering::Relaxed);
        // Release: publishes the job, the caller and everything this
        // thread wrote before the broadcast to the workers.
        self.epoch.fetch_add(1, Ordering::Release);
        for worker in self.workers.get().into_iter().flatten() {
            worker.unpark();
        }
        let own = {
            let _index = Restore::set(&THREAD_INDEX, Some(0));
            let _running = Restore::set(&RUNNING, self as *const Registry);
            // SAFETY: the job's data outlives this call.
            panic::catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, 0) }))
        };
        // Acquire: pairs with each worker's Release decrement, so their
        // writes are visible once the count reads zero.
        wait_for(|| self.pending.load(Ordering::Acquire) == 0);
        // Empty every slot, so the next job starts clean, and keep the
        // lowest-indexed worker's payload.
        let mut worker_panic = None;
        for slot in &self.panics[1..] {
            // SAFETY: the Acquire wait above saw every worker's
            // decrement, which follows its last write to its slot, and
            // no worker runs again before the next epoch bump, which only
            // the gate holder makes.
            let payload = unsafe { (*slot.get()).take() };
            worker_panic = worker_panic.or(payload);
        }
        drop(gate);
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            panic::resume_unwind(payload);
        }
    }

    fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
        for worker in self.workers.get().into_iter().flatten() {
            worker.unpark();
        }
    }
}

/// Spins until `done` holds or [`SPIN_LIMIT`] has passed, then parks
/// between checks. Whoever makes `done` true unparks this thread, and a
/// spurious or stale wake-up only costs one more check.
///
/// Each spin yields the time slice. With nothing else runnable a yield
/// returns at once, so the hand-off still takes about a microsecond.
/// When the awaited thread shares this core — a busy host, or a pool
/// larger than the hardware — the yield hands the core over; a pure
/// spin would hold it until the bound, so each side would wait
/// [`SPIN_LIMIT`] for the other and a broadcast would cost two bounds.
fn wait_for(mut done: impl FnMut() -> bool) {
    let mut spins = 0u32;
    let mut started: Option<Instant> = None;
    while !done() {
        if spins < u32::MAX {
            spins += 1;
            thread::yield_now();
            if spins.is_multiple_of(64)
                && started.get_or_insert_with(Instant::now).elapsed() >= SPIN_LIMIT
            {
                spins = u32::MAX;
            }
        } else {
            thread::park();
        }
    }
}

/// The default pool, sized to the hardware (or by `build_global`).
static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

fn global_registry() -> &'static Registry {
    GLOBAL.get_or_init(|| {
        let registry = Registry::new(hardware_threads());
        // The default pool's workers live as long as the process.
        drop(registry.spawn());
        registry
    })
}

/// Types a broadcast shares with its workers: the closure and the
/// result slots.
struct BroadcastJob<'a, F, R> {
    f: &'a F,
    results: *mut MaybeUninit<R>,
    num_threads: usize,
}

/// Runs share `index` of the [`BroadcastJob`] at `data`.
///
/// # Safety
/// `data` points to a live `BroadcastJob<F, R>` whose result slot
/// `index` no other share writes.
unsafe fn call_broadcast<F, R>(data: *const (), index: usize)
where
    F: Fn(BroadcastContext) -> R + Sync,
{
    // SAFETY: the caller's contract.
    let job = unsafe { &*data.cast::<BroadcastJob<'_, F, R>>() };
    let result = (job.f)(BroadcastContext {
        index,
        num_threads: job.num_threads,
    });
    // SAFETY: slot `index` is in bounds and written by this share only.
    unsafe { job.results.add(index).write(MaybeUninit::new(result)) };
}

/// Runs `f` once on every worker of the current pool and collects the
/// results in worker order. Index 0 runs on the calling thread.
pub fn broadcast<F, R>(f: F) -> Vec<R>
where
    F: Fn(BroadcastContext) -> R + Sync,
    R: Send,
{
    let current = CURRENT.with(Cell::get);
    let registry: &Registry = if current.is_null() {
        global_registry()
    } else {
        // SAFETY: see `current_num_threads`.
        unsafe { &*current }
    };
    let n = registry.num_threads;
    if n <= 1 {
        let _index = Restore::set(&THREAD_INDEX, Some(0));
        return vec![f(BroadcastContext {
            index: 0,
            num_threads: 1,
        })];
    }
    // Zero-sized results (the common `()`) allocate nothing here.
    let mut results: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
    results.resize_with(n, MaybeUninit::uninit);
    let job = BroadcastJob {
        f: &f,
        results: results.as_mut_ptr(),
        num_threads: n,
    };
    // On a panic the results already written leak; they are not dropped.
    registry.run(JobRef {
        data: (&job as *const BroadcastJob<'_, F, R>).cast(),
        call: call_broadcast::<F, R>,
    });
    let mut results = ManuallyDrop::new(results);
    // SAFETY: `run` returned normally, so every share wrote its slot,
    // and `MaybeUninit<R>` has the layout of `R`.
    unsafe { Vec::from_raw_parts(results.as_mut_ptr().cast::<R>(), n, results.capacity()) }
}

/// Error type produced by [`ThreadPoolBuilder::build_global`] when the
/// default pool already exists.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the global thread pool has already been initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (hardware) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the thread count; `0` means the hardware default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    fn resolved_threads(&self) -> usize {
        if self.num_threads == 0 {
            hardware_threads()
        } else {
            self.num_threads
        }
    }

    /// Builds a pool and spawns its workers.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let registry = Registry::new(self.resolved_threads());
        let handles = registry.spawn();
        Ok(ThreadPool { registry, handles })
    }

    /// Sizes the default pool. Fails when the default pool already
    /// exists, which its first [`broadcast`] brings about.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let mut created = false;
        GLOBAL.get_or_init(|| {
            created = true;
            let registry = Registry::new(self.resolved_threads());
            drop(registry.spawn());
            registry
        });
        if created {
            Ok(())
        } else {
            Err(ThreadPoolBuildError(()))
        }
    }
}

/// A pool of parked worker threads. Dropping it stops and joins them.
pub struct ThreadPool {
    registry: Arc<Registry>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.registry.num_threads)
            .finish()
    }
}

impl ThreadPool {
    /// Runs `f` on the calling thread with this pool current, so the
    /// loops inside it run on this pool's workers.
    pub fn install<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        let _current = Restore::set(&CURRENT, Arc::as_ptr(&self.registry));
        f()
    }

    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.registry.num_threads
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.stop();
        for handle in self.handles.drain(..) {
            // A worker never unwinds: shares run under `catch_unwind`.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    fn message(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn broadcast_runs_once_per_worker_with_distinct_indices() {
        let hits = AtomicUsize::new(0);
        let indices = broadcast(|ctx| {
            hits.fetch_add(1, Ordering::Relaxed);
            assert_eq!(current_thread_index(), Some(ctx.index()));
            ctx.index()
        });
        assert_eq!(hits.load(Ordering::Relaxed), current_num_threads());
        assert_eq!(indices, (0..current_num_threads()).collect::<Vec<_>>());
        assert_eq!(current_thread_index(), None);
    }

    #[test]
    fn pool_install_scopes_thread_count() {
        let pool = pool(3);
        assert_eq!(pool.install(current_num_threads), 3);
        let results = pool.install(|| broadcast(|ctx| ctx.num_threads()));
        assert_eq!(results, vec![3, 3, 3]);
    }

    #[test]
    fn workers_are_spawned_once_and_keep_their_index() {
        let pool = pool(3);
        let first = pool.install(|| broadcast(|_| thread::current().id()));
        for _ in 0..100 {
            let again = pool.install(|| broadcast(|_| thread::current().id()));
            assert_eq!(again, first);
        }
        assert_eq!(first[0], thread::current().id(), "the caller runs index 0");
    }

    #[test]
    fn nested_broadcast_runs_every_index_in_order() {
        let pool = pool(2);
        let nested = pool.install(|| broadcast(|_| broadcast(|ctx| ctx.index())));
        assert_eq!(nested, vec![vec![0, 1], vec![0, 1]]);
    }

    #[test]
    fn install_restores_the_pool_after_a_panic() {
        let before = current_num_threads();
        let pool = pool(7);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| pool.install(|| panic!("inside"))));
        assert!(caught.is_err());
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn one_thread_broadcast_restores_the_index_after_a_panic() {
        let pool = pool(1);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| broadcast(|_| panic!("share")))
        }));
        assert!(caught.is_err());
        assert_eq!(current_thread_index(), None);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_message() {
        let pool = pool(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                broadcast(|ctx| {
                    if ctx.index() == 1 {
                        panic!("worker one failed");
                    }
                })
            })
        }));
        let payload = caught.expect_err("the worker's panic must propagate");
        assert_eq!(message(payload.as_ref()), "worker one failed");
        assert_eq!(current_thread_index(), None);
    }

    #[test]
    fn broadcast_runs_on_every_worker_after_a_worker_panic() {
        let pool = pool(3);
        for round in 0..5 {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.install(|| {
                    broadcast(|ctx| {
                        if ctx.index() == 1 + round % 2 {
                            panic!("round {round}");
                        }
                    })
                })
            }));
            assert_eq!(
                message(caught.unwrap_err().as_ref()),
                format!("round {round}")
            );
            let hits = AtomicUsize::new(0);
            let indices = pool.install(|| {
                broadcast(|ctx| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    ctx.index()
                })
            });
            assert_eq!(indices, vec![0, 1, 2]);
            assert_eq!(hits.load(Ordering::Relaxed), 3);
        }
    }

    #[test]
    fn concurrent_callers_on_one_pool_get_their_own_results() {
        let pool = pool(2);
        thread::scope(|scope| {
            let callers: Vec<_> = (0..2u64)
                .map(|caller| {
                    let pool = &pool;
                    scope.spawn(move || {
                        for round in 0..500u64 {
                            let tag = caller * 1_000_000 + round;
                            let sum = AtomicU64::new(0);
                            let got = pool.install(|| {
                                broadcast(|ctx| {
                                    sum.fetch_add(tag, Ordering::Relaxed);
                                    (tag, ctx.index())
                                })
                            });
                            assert_eq!(got, vec![(tag, 0), (tag, 1)]);
                            assert_eq!(sum.load(Ordering::Relaxed), 2 * tag);
                        }
                    })
                })
                .collect();
            for caller in callers {
                caller.join().unwrap();
            }
        });
    }

    #[test]
    fn build_global_fails_once_the_default_pool_exists() {
        broadcast(|_| ());
        assert!(ThreadPoolBuilder::new().build_global().is_err());
    }
}
