//! # edvit-parallel
//!
//! A spawn-once scoped thread pool over `std::thread` — the data-parallel
//! substrate for the hot kernels in `edvit-tensor`, `edvit-nn` and the
//! pipeline crates. The build environment has no registry access, so this is
//! a deliberately small rayon stand-in covering exactly what the kernels
//! need:
//!
//! * [`ParallelPool::global`] — a lazily-initialized process-wide pool sized
//!   from [`std::thread::available_parallelism`], overridable with the
//!   `EDVIT_THREADS` environment variable (`EDVIT_THREADS=1` forces the
//!   deterministic sequential path, e.g. for CI).
//! * [`ParallelPool::scope_chunks`] — the one way into a parallel region:
//!   splits a buffer into disjoint `&mut` chunks that the caller and the
//!   workers claim from a shared atomic counter ("work-stealing-lite": idle
//!   threads keep pulling the next unclaimed chunk, so uneven chunk costs
//!   self-balance without per-thread deques). This is how kernels write
//!   their output rows without locks or unsafe code on the caller's side.
//! * [`ParallelPool::map_indexed`] — a parallel map built on it, collecting
//!   one result per index (per-trial experiment sweeps, one per sub-model of
//!   a pipeline).
//! * [`with_budget`] / [`with_fair_share`] — the per-thread cap on how many
//!   threads a region may use, which is how an outer loop made of plain OS
//!   threads (one per simulated edge device) claims its share of the pool.
//! * [`device_scope`] — that outer loop's threads: a scope like
//!   [`std::thread::scope`] whose every [`DeviceScope::spawn`] runs on a
//!   parked device thread, or a new one when none is idle, never queued
//!   behind another job. Every round executor of the workspace (the
//!   one-shot and each stream or serve epoch) runs its devices here, and no
//!   other crate starts threads.
//!
//! # Who gets the threads
//!
//! Device threads and pool workers are separate sets. A device thread runs
//! one device job at a time and parks between scopes; a pool worker only
//! ever runs chunks of parallel regions. A device job that enters a region
//! is that region's caller, so the rules below apply to it unchanged.
//!
//! The outermost parallel loop wins the threads; everything inside it runs
//! sequentially. Three rules implement that:
//!
//! 1. **Nesting runs inline.** A region entered from inside a chunk of
//!    another region executes on the current thread.
//! 2. **Budgets.** Every OS thread carries a *budget* (default: the pool
//!    size): a region it submits is executed by at most that many threads,
//!    itself included. Under budget 1 [`ParallelPool::is_sequential`] is
//!    true and the pool is never touched — no lock, no wake-up. `D` sibling
//!    threads that are themselves the outer loop (device workers in one
//!    process) each run under [`with_fair_share`]`(D, ..)`, i.e. budget
//!    `max(1, threads / D)`: 2 devices on 2 cores compute inline, 2 devices
//!    on 8 cores use 4 threads each, a lone device keeps the whole pool.
//! 3. **A caller never waits for another caller's region.** Any number of
//!    regions may be open at once; an idle worker helps whichever open
//!    region still wants help. A caller whose region finds every worker
//!    busy simply runs all of its own chunks — it only ever blocks on
//!    helpers that are finishing chunks of *its* region.
//!
//! None of this can change a result: kernels give every output element to
//! exactly one chunk with a fixed loop order, so outputs are bit-identical
//! at every pool size and every budget.
//!
//! # Example
//!
//! ```
//! use edvit_parallel::ParallelPool;
//!
//! let pool = ParallelPool::new(4);
//! let mut out = vec![0u64; 1000];
//! pool.scope_chunks(&mut out, 128, |base, chunk| {
//!     for (i, slot) in chunk.iter_mut().enumerate() {
//!         *slot = (base + i) as u64 * 2;
//!     }
//! });
//! assert_eq!(out[999], 1998);
//! let squares = pool.map_indexed(5, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

mod device;

pub use device::{device_scope, device_threads_started, DeviceScope};

/// Hard cap on pool size so a bogus `EDVIT_THREADS` cannot fork-bomb a box.
const MAX_THREADS: usize = 64;

thread_local! {
    /// Set while the current thread is executing chunks of a parallel region;
    /// nested regions started from such a thread run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Most threads (this one included) a region submitted from the current
    /// thread may use. `usize::MAX` — the default — means "the pool size".
    static BUDGET: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Runs `f` with the current thread's budget capped at `threads` (at least
/// 1): until `f` returns, a parallel region this thread submits to any pool
/// is executed by at most `threads` threads, the caller included. Budgets
/// only narrow — a nested call cannot raise an outer cap — and the previous
/// budget is restored when `f` returns or unwinds.
pub fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|budget| budget.set(self.0));
        }
    }
    let previous = BUDGET.with(Cell::get);
    let _restore = Restore(previous);
    BUDGET.with(|budget| budget.set(threads.clamp(1, previous)));
    f()
}

/// Runs `f` as one of `siblings` threads that together form an outer
/// parallel loop (the device workers of an in-process cluster): the budget
/// is this thread's even share of the global pool,
/// `max(1, ParallelPool::global().threads() / siblings)`. Does not itself
/// start the global pool's workers.
pub fn with_fair_share<R>(siblings: usize, f: impl FnOnce() -> R) -> R {
    with_budget(global_threads() / siblings.max(1), f)
}

/// One parallel region: a type-erased chunk runner plus the claim/completion
/// counters. Each region gets its own `Arc`, so a straggling worker that
/// wakes up late can only ever touch *this* region's counters — by the time
/// it claims, every chunk is taken and it exits without dereferencing `data`.
struct Region {
    /// Runs chunk `i`. `data` points at the caller's closure, which the
    /// caller keeps alive until `pending` hits zero.
    call: unsafe fn(*const (), usize),
    data: *const (),
    chunks: usize,
    /// Next chunk index to claim (work-stealing-lite: shared counter).
    next: AtomicUsize,
    /// Chunks not yet finished; the caller blocks until this reaches zero.
    pending: AtomicUsize,
    /// Set when a chunk panicked; the caller re-raises after joining.
    panicked: AtomicBool,
}

// SAFETY: `data` is only dereferenced while the owning caller is blocked in
// `run`, which guarantees the pointee (a `Sync` closure) outlives all use.
unsafe impl Send for Region {}
// SAFETY: as for `Send`: the pointee is only read, through `&Region`, while
// its owner is blocked in `run`.
unsafe impl Sync for Region {}

impl Region {
    /// Claims and runs chunks until none remain. Returns `true` if this
    /// thread finished the region's last outstanding chunk.
    fn work(&self) -> bool {
        let mut finished_last = false;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return finished_last;
            }
            // SAFETY: `i < self.chunks` (guard above) and `call`/`data` were
            // produced by `erase` from a live `&G`; the submitting caller
            // blocks until `pending` hits zero, so the pointee outlives this
            // call, and distinct chunk indices touch disjoint data.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (self.call)(self.data, i) }));
            if result.is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            // Release pairs with the caller's Acquire load, making all chunk
            // writes visible before the caller observes completion.
            finished_last = self.pending.fetch_sub(1, Ordering::Release) == 1;
        }
    }

    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.chunks
    }

    fn done(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }
}

/// A region some caller is currently inside, as the workers see it.
struct OpenRegion {
    region: Arc<Region>,
    /// How many more workers may join: the submitter's budget minus itself
    /// and minus the workers that already joined.
    helpers_wanted: usize,
}

#[derive(Default)]
struct PoolState {
    /// Regions whose callers have not returned yet. Callers add and remove
    /// their own entry; they never wait on anyone else's.
    open: Vec<OpenRegion>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers sleep here while no open region wants help.
    work_ready: Condvar,
    /// Callers sleep here while helpers drain the last chunks of their own
    /// region.
    region_done: Condvar,
}

/// A spawn-once pool of worker threads executing chunked parallel regions.
///
/// The pool owns `threads - 1` background workers; the thread that submits a
/// region always participates too, so `threads == 1` means "no workers,
/// everything runs inline on the caller" — the deterministic sequential path.
pub struct ParallelPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Regions handed to the workers so far (a statistic: tests use it to
    /// show that sequential callers never touch the pool).
    dispatched: AtomicUsize,
}

impl std::fmt::Debug for ParallelPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl ParallelPool {
    /// Creates a pool that uses `threads` threads in total (the submitting
    /// thread plus `threads - 1` spawned workers). `threads` is clamped to
    /// `1..=64`. Should the OS refuse to start a worker, the pool stops
    /// spawning there and runs with the threads that did start
    /// ([`ParallelPool::threads`] reports them); results are bit-identical at
    /// every pool size, so only speed changes.
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState::default()),
            work_ready: Condvar::new(),
            region_done: Condvar::new(),
        });
        let workers = (1..threads)
            .map_while(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("edvit-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .ok()
            })
            .collect();
        ParallelPool {
            shared,
            workers,
            dispatched: AtomicUsize::new(0),
        }
    }

    /// The process-wide pool, created on first use. Sized from
    /// `EDVIT_THREADS` when set (and ≥ 1), otherwise from
    /// [`std::thread::available_parallelism`].
    pub fn global() -> &'static ParallelPool {
        static GLOBAL: OnceLock<ParallelPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ParallelPool::new(global_threads()))
    }

    /// Total threads this pool can bring to bear (workers that started +
    /// caller). The calling thread's budget does not change this number.
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Threads a region submitted right now, from this thread, may use: the
    /// pool size capped by the thread's budget, or 1 inside another region.
    fn width(&self) -> usize {
        if IN_POOL.with(Cell::get) {
            1
        } else {
            self.threads().min(BUDGET.with(Cell::get))
        }
    }

    /// `true` when a region submitted from the current thread would run
    /// inline: a single-thread pool, a budget of 1 (see [`with_budget`]), or
    /// a caller that is already inside a parallel region.
    pub fn is_sequential(&self) -> bool {
        self.width() == 1
    }

    /// Core submission: runs `chunks` invocations of `call(data, i)` on the
    /// caller plus up to `width - 1` workers, blocking until all complete.
    /// `call`/`data` must together form a `Sync` closure that outlives this
    /// call — guaranteed by the typed wrappers below, which keep the closure
    /// on the caller's stack.
    fn run_region(
        &self,
        chunks: usize,
        width: usize,
        call: unsafe fn(*const (), usize),
        data: *const (),
    ) {
        debug_assert!(chunks > 1 && width > 1);
        let region = Arc::new(Region {
            call,
            data,
            chunks,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(chunks),
            panicked: AtomicBool::new(false),
        });
        let helpers = width.min(chunks) - 1;
        lock(&self.shared.state).open.push(OpenRegion {
            region: Arc::clone(&region),
            helpers_wanted: helpers,
        });
        self.dispatched.fetch_add(1, Ordering::Relaxed);
        if helpers >= self.workers.len() {
            self.shared.work_ready.notify_all();
        } else {
            for _ in 0..helpers {
                self.shared.work_ready.notify_one();
            }
        }

        // The caller claims chunks like any worker — and claims all of them
        // when every worker is busy in somebody else's region.
        IN_POOL.with(|flag| flag.set(true));
        region.work();
        IN_POOL.with(|flag| flag.set(false));

        // Close the region, then wait for helpers still draining chunks they
        // claimed from it. (The Acquire load in `done` is also what makes
        // the helpers' writes visible, so it is not skipped even when this
        // thread ran the last chunk.)
        let mut state = lock(&self.shared.state);
        state
            .open
            .retain(|open| !Arc::ptr_eq(&open.region, &region));
        while !region.done() {
            state = self
                .shared
                .region_done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        if region.panicked.load(Ordering::Acquire) {
            panic!("a parallel region chunk panicked");
        }
    }

    /// Splits `items` into disjoint `&mut` chunks of `chunk_size` elements
    /// and applies `f(base_index, chunk)` to each in parallel. This is the
    /// safe way for a kernel to parallelize writes: every invocation owns its
    /// sub-slice exclusively.
    pub fn scope_chunks<T, F>(&self, items: &mut [T], chunk_size: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let len = items.len();
        if len == 0 {
            return;
        }
        let chunk_size = chunk_size.clamp(1, len);
        let chunks = len.div_ceil(chunk_size);
        let width = self.width();
        if chunks <= 1 || width == 1 {
            for (c, chunk) in items.chunks_mut(chunk_size).enumerate() {
                f(c * chunk_size, chunk);
            }
            return;
        }
        let base_ptr = SendPtr(items.as_mut_ptr());
        let runner = move |i: usize| {
            let lo = i * chunk_size;
            let hi = (lo + chunk_size).min(len);
            // SAFETY: chunk `i` exclusively covers `items[lo..hi]`; regions
            // never overlap and `items` outlives the blocking `run_region`.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base_ptr.get().add(lo), hi - lo) };
            f(lo, chunk);
        };
        let (call, data) = erase(&runner);
        self.run_region(chunks, width, call, data);
    }

    /// Parallel map: computes `f(i)` for `i in 0..n` and collects the results
    /// in index order.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut indices: Vec<usize> = (0..n).collect();
        self.map_mut(&mut indices, |&mut i| f(i))
    }

    /// Parallel map over exclusive borrows: computes `f(item)` for every
    /// element of `items` and collects the results in order.
    fn map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut T) -> R + Sync,
    {
        let mut slots: Vec<(&mut T, Option<R>)> =
            items.iter_mut().map(|item| (item, None)).collect();
        self.scope_chunks(&mut slots, 1, |_, chunk| {
            for (item, out) in chunk {
                *out = Some(f(item));
            }
        });
        // `scope_chunks` re-raises a chunk's panic, so every slot is filled.
        slots.into_iter().map_while(|(_, out)| out).collect()
    }
}

impl Drop for ParallelPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Locks a pool mutex, shrugging off poisoning: a panic inside a chunk is
/// re-raised on the submitting thread, and every invariant the mutex guards
/// (plain data plus atomics) stays consistent across that unwind.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Type-erases a chunk-runner closure into a `(fn, data)` pair for
/// [`ParallelPool::run_region`]. The returned pointer borrows `runner`, which
/// the caller keeps alive on its stack for the duration of the region.
fn erase<G: Fn(usize) + Sync>(runner: &G) -> (unsafe fn(*const (), usize), *const ()) {
    /// # Safety
    ///
    /// `data` must be the pointer `erase` derived from a `&G` that is still
    /// alive — the pool upholds this by keeping the submitting caller
    /// blocked until the region completes.
    unsafe fn call<G: Fn(usize) + Sync>(data: *const (), i: usize) {
        // SAFETY: `data` was produced from `&G` by `erase` and outlives the
        // region (the submitting caller blocks until every chunk completes).
        unsafe { (*data.cast::<G>())(i) }
    }
    (call::<G>, (runner as *const G).cast())
}

/// Raw pointer wrapper that may cross thread boundaries; soundness is
/// guaranteed by the disjoint-chunk construction in [`ParallelPool::scope_chunks`].
struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the pointer is only dereferenced inside `scope_chunks`, where each
// worker writes a distinct `chunks[i]` slot (disjoint &mut borrows carved by
// `from_raw_parts_mut`) while the owner is blocked in the scope — no aliasing
// and no use-after-free are possible through a `SendPtr` copy.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as for `Send`: a shared `SendPtr` only hands out its pointer, and
// each copy writes its own disjoint slot.
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(self) -> *mut T {
        self.0
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let region = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                // Join the first open region that still has chunks to claim
                // and room under its submitter's budget.
                if let Some(open) = state
                    .open
                    .iter_mut()
                    .find(|open| open.helpers_wanted > 0 && open.region.has_unclaimed())
                {
                    open.helpers_wanted -= 1;
                    break Arc::clone(&open.region);
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        IN_POOL.with(|flag| flag.set(true));
        let finished_last = region.work();
        IN_POOL.with(|flag| flag.set(false));
        if finished_last {
            // Wake the region's caller; taking the lock orders the wake
            // after the caller's wait registration. Other callers waiting on
            // their own regions re-check and go back to sleep.
            let _guard = lock(&shared.state);
            shared.region_done.notify_all();
        }
    }
}

/// Thread count of the global pool, resolved once: `EDVIT_THREADS` when set
/// to a positive integer, otherwise the machine's available parallelism.
fn global_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| match std::env::var("EDVIT_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_THREADS),
            _ => detected_threads(),
        },
        Err(_) => detected_threads(),
    })
}

fn detected_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .min(MAX_THREADS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = ParallelPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.is_sequential());
        // Every chunk runs inline, in order, on the calling thread.
        let caller = std::thread::current().id();
        let mut out = vec![0usize; 100];
        pool.scope_chunks(&mut out, 1, |base, chunk| {
            assert_eq!(std::thread::current().id(), caller);
            chunk[0] = base;
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert_eq!(pool.dispatched.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_single_chunk_region_runs_inline_on_a_wide_pool() {
        // The row kernels hand a sub-threshold slice over as one chunk and
        // rely on it running here, without waking a worker.
        let pool = ParallelPool::new(4);
        assert!(!pool.is_sequential());
        let caller = std::thread::current().id();
        let calls = AtomicUsize::new(0);
        let mut out = vec![0usize; 100];
        pool.scope_chunks(&mut out, 100, |base, chunk| {
            assert_eq!(std::thread::current().id(), caller);
            assert_eq!((base, chunk.len()), (0, 100));
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(pool.dispatched.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn scope_chunks_writes_disjoint_slices() {
        let pool = ParallelPool::new(4);
        let mut out = vec![0usize; 500];
        pool.scope_chunks(&mut out, 37, |base, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = base + i + 1;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i + 1);
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        let pool = ParallelPool::new(3);
        let values = pool.map_indexed(64, |i| i * 3);
        assert_eq!(values.len(), 64);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
        // `map_mut` hands each item out once, mutably, and keeps the order.
        let mut items: Vec<usize> = (0..64).collect();
        let doubled = pool.map_mut(&mut items, |item| {
            *item += 1;
            *item * 2
        });
        assert_eq!(items, (1..=64).collect::<Vec<_>>());
        assert_eq!(doubled, (1..=64).map(|i| i * 2).collect::<Vec<_>>());
        // One result per item: the collect stops at no slot.
        for pool in [ParallelPool::new(1), pool] {
            for n in [0, 1, 2, 63] {
                assert_eq!(pool.map_indexed(n, |i| i).len(), n);
            }
        }
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        let pool = ParallelPool::new(4);
        let mut outer = vec![0usize; 8];
        pool.scope_chunks(&mut outer, 1, |_, slot| {
            // Nested call: must run inline on this thread.
            let here = std::thread::current().id();
            let mut inner = vec![0usize; 10];
            ParallelPool::global().scope_chunks(&mut inner, 1, |_, chunk| {
                assert_eq!(std::thread::current().id(), here);
                chunk[0] = 1;
            });
            slot[0] = inner.iter().sum();
        });
        assert_eq!(outer.iter().sum::<usize>(), 80);
    }

    #[test]
    fn pools_of_different_sizes_agree() {
        let work = |pool: &ParallelPool| -> Vec<usize> {
            let mut out = vec![0usize; 256];
            pool.scope_chunks(&mut out, 10, |base, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = (base + i) * 7;
                }
            });
            out
        };
        let seq = work(&ParallelPool::new(1));
        let par = work(&ParallelPool::new(8));
        assert_eq!(seq, par);
    }

    #[test]
    fn chunk_panic_propagates_to_caller() {
        let pool = ParallelPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut out = vec![0usize; 100];
            pool.scope_chunks(&mut out, 1, |base, _| {
                if base == 50 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must still be usable after a panic.
        let mut out = vec![0usize; 10];
        pool.scope_chunks(&mut out, 1, |base, chunk| chunk[0] = base + 1);
        assert_eq!(out.iter().sum::<usize>(), 55);
    }

    #[test]
    fn empty_inputs_are_noops() {
        let pool = ParallelPool::new(2);
        let mut empty: Vec<u8> = Vec::new();
        pool.scope_chunks(&mut empty, 4, |_, _| panic!("must not run"));
        let mapped: Vec<u8> = pool.map_indexed(0, |_| panic!("must not run"));
        assert!(mapped.is_empty());
    }

    #[test]
    fn global_pool_respects_env_contract() {
        // The global pool is process-wide; we can only assert invariants.
        let pool = ParallelPool::global();
        assert!(pool.threads() >= 1);
        assert!(pool.threads() <= MAX_THREADS);
    }

    #[test]
    fn threads_clamped() {
        assert_eq!(ParallelPool::new(0).threads(), 1);
        assert_eq!(ParallelPool::new(10_000).threads(), MAX_THREADS);
    }

    #[test]
    fn a_caller_never_waits_for_another_callers_region() {
        // Caller A's two chunks park on a barrier — one on A, one on the pool's
        // only worker — so A's region stays open with every thread of the pool
        // inside it. Caller B must still get a region through the same pool
        // (a pool that serialized regions would leave B asleep forever).
        let pool = ParallelPool::new(2);
        let release = Barrier::new(3);
        let parked = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                pool.scope_chunks(&mut [0u8; 2], 1, |_, _| {
                    parked.fetch_add(1, Ordering::SeqCst);
                    release.wait();
                });
            });
            while parked.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            let mut out = vec![0usize; 64];
            pool.scope_chunks(&mut out, 8, |base, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = base + i;
                }
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i));
            release.wait();
        });
    }

    #[test]
    fn budget_one_never_touches_the_pool() {
        let pool = ParallelPool::new(4);
        with_budget(1, || {
            assert!(pool.is_sequential());
            assert_eq!(pool.threads(), 4, "a budget does not resize the pool");
            let caller = std::thread::current().id();
            let mut out = vec![0usize; 100];
            pool.scope_chunks(&mut out, 7, |base, chunk| {
                assert_eq!(std::thread::current().id(), caller);
                chunk.fill(base);
            });
            assert_eq!(pool.map_indexed(9, |i| i + 1)[8], 9);
        });
        assert_eq!(pool.dispatched.load(Ordering::Relaxed), 0);
        // The same calls without a budget do go through the workers.
        pool.scope_chunks(&mut [0u8; 1000], 1, |_, _| {});
        assert_eq!(pool.dispatched.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_region_uses_at_most_its_budget_of_threads() {
        let pool = ParallelPool::new(8);
        for budget in [2usize, 3, 8] {
            let seen = Mutex::new(HashSet::new());
            with_budget(budget, || {
                assert!(!pool.is_sequential());
                pool.scope_chunks(&mut vec![0u8; 4 * budget], 1, |_, _| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    // Hold the first chunks until `budget` threads have joined,
                    // so the cap is what bounds the count, not luck.
                    while seen.lock().unwrap().len() < budget {
                        std::thread::yield_now();
                    }
                });
            });
            assert_eq!(seen.lock().unwrap().len(), budget);
        }
    }

    #[test]
    fn budgets_only_narrow_and_are_restored_after_unwinding() {
        let pool = ParallelPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_budget(1, || {
                assert!(pool.is_sequential());
                panic!("boom");
            });
        }));
        assert!(result.is_err());
        assert!(!pool.is_sequential(), "budget leaked out of the unwind");
        with_budget(2, || {
            with_budget(4, || assert_eq!(pool.width(), 2));
            with_budget(0, || assert_eq!(pool.width(), 1));
            assert_eq!(pool.width(), 2);
        });
        assert_eq!(pool.width(), 4);
    }

    #[test]
    fn fair_share_divides_the_global_pool() {
        let pool = ParallelPool::global();
        with_fair_share(1, || assert_eq!(pool.width(), pool.threads()));
        with_fair_share(2, || assert_eq!(pool.width(), (pool.threads() / 2).max(1)));
        with_fair_share(MAX_THREADS + 1, || assert!(pool.is_sequential()));
        with_fair_share(0, || assert_eq!(pool.width(), pool.threads()));
    }
}
