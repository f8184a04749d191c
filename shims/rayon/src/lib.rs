//! Offline shim for `rayon`: the build environment cannot reach a crates
//! registry, so this crate implements the subset of the rayon API the
//! workspace uses on top of `std::thread::scope`. Code written against
//! it keeps the upstream source shape (`use rayon::prelude::*`,
//! `par_iter().map(..).collect()`, `ThreadPoolBuilder`) and can move to
//! real rayon unchanged when registry access is available.
//!
//! Design notes, and deliberate differences from upstream:
//!
//! - **Index-evaluated pipelines.** Every adapter (`map`, `enumerate`)
//!   evaluates one element from its index, so execution is a single
//!   chunked sweep: the index range is split into at most one contiguous
//!   chunk per worker thread and results are concatenated in chunk
//!   order. `collect` is therefore **order-preserving and bit-identical
//!   for any thread count**, which the secure-memory datapath relies on.
//! - **No work stealing.** Contiguous static chunking is enough for the
//!   uniform per-block crypto work this workspace parallelizes.
//! - **Thread count.** `ThreadPoolBuilder::num_threads(n).build_global()`
//!   pins the count; otherwise the `RAYON_NUM_THREADS` environment
//!   variable (upstream-compatible) and finally
//!   `std::thread::available_parallelism()` decide.

use std::sync::OnceLock;

/// Global thread-count override installed by [`ThreadPoolBuilder::build_global`].
static GLOBAL_THREADS: OnceLock<usize> = OnceLock::new();

/// Minimum items per spawned worker: below this, threading overhead
/// dwarfs the per-item crypto work and the sweep runs inline.
const MIN_ITEMS_PER_THREAD: usize = 16;

/// Number of worker threads parallel sweeps use.
///
/// Resolution order: explicit [`ThreadPoolBuilder`] global, the
/// `RAYON_NUM_THREADS` environment variable, then the machine's
/// available parallelism.
#[must_use]
pub fn current_num_threads() -> usize {
    if let Some(n) = GLOBAL_THREADS.get() {
        return (*n).max(1);
    }
    // Like real rayon, the environment and machine parallelism are read
    // once, not per parallel call — the env lookup plus the
    // `available_parallelism` syscall would otherwise dominate small
    // sweeps (an explicit `build_global` still takes precedence above).
    static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();
    *DEFAULT_THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Error returned when the global pool is configured twice.
#[derive(Debug, Clone)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the global thread pool has already been initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for the global "pool" (a thread-count setting in this shim).
#[derive(Debug, Clone, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (auto) thread count.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count; `0` keeps the automatic default,
    /// matching upstream rayon's convention.
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Installs the setting globally.
    ///
    /// Re-installing the *same* thread count is an idempotent success,
    /// so initialization order (library warm-up vs. an explicit CLI
    /// `--threads` flag) cannot silently drop an agreeing request. Only
    /// a genuinely *conflicting* count fails, and callers must treat
    /// that error as fatal rather than discard it: the requested count
    /// is not in effect.
    ///
    /// # Errors
    ///
    /// [`ThreadPoolBuildError`] if a global pool was already built with
    /// a different thread count.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            // Freeze the auto default so later env changes cannot skew it.
            current_num_threads()
        } else {
            self.num_threads
        };
        match GLOBAL_THREADS.set(n) {
            Ok(()) => Ok(()),
            Err(_) if *GLOBAL_THREADS.get().expect("set failed, so present") == n => Ok(()),
            Err(_) => Err(ThreadPoolBuildError),
        }
    }
}

/// Runs both closures, on two threads when the pool allows it, and
/// returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("join closure panicked"))
    })
}

/// The traits user code imports with `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelIterator};
}

/// A parallel pipeline evaluated by index: `at(i)` produces element `i`,
/// and the executor sweeps `0..len()` in contiguous per-thread chunks.
pub trait ParallelIterator: Sized + Sync {
    /// Element type produced by this stage of the pipeline.
    type Item: Send;

    /// Number of elements in the pipeline.
    fn len(&self) -> usize;

    /// True when the pipeline has no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produces element `index` (side-effect free; may run on any worker).
    fn at(&self, index: usize) -> Self::Item;

    /// Maps each element through `f`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { inner: self, f }
    }

    /// Pairs each element with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { inner: self }
    }

    /// Accepted for upstream compatibility; chunking here is already
    /// bounded by `MIN_ITEMS_PER_THREAD` (16 items), so this is a no-op.
    fn with_min_len(self, _min: usize) -> Self {
        self
    }

    /// Collects all elements in index order. `C` is typically
    /// `Vec<Self::Item>`.
    fn collect<C: From<Vec<Self::Item>>>(self) -> C {
        C::from(execute(&self))
    }

    /// Reduces the elements with `op`, seeding every sub-reduction with
    /// `identity()`. As with upstream rayon, the grouping is
    /// unspecified, so `op` should be associative (and, for results
    /// independent of the thread count, commutative — XOR-MAC folds
    /// are both).
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync,
    {
        execute_reduce(&self, &identity, &op)
    }
}

/// Borrowing conversion into a parallel iterator (`slice.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed parallel iterator type.
    type Iter: ParallelIterator;

    /// Returns a parallel iterator over borrowed elements.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = ParSlice<'a, T>;

    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = ParSlice<'a, T>;

    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

/// Parallel iterator over a borrowed slice.
#[derive(Debug, Clone, Copy)]
pub struct ParSlice<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParSlice<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn at(&self, index: usize) -> &'a T {
        &self.slice[index]
    }
}

/// `map` adapter.
#[derive(Debug, Clone, Copy)]
pub struct Map<P, F> {
    inner: P,
    f: F,
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Sync,
{
    type Item = R;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn at(&self, index: usize) -> R {
        (self.f)(self.inner.at(index))
    }
}

/// `enumerate` adapter.
#[derive(Debug, Clone, Copy)]
pub struct Enumerate<P> {
    inner: P,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn at(&self, index: usize) -> (usize, P::Item) {
        (index, self.inner.at(index))
    }
}

/// Splits `0..len` into at most `threads` contiguous chunks of nearly
/// equal size.
fn chunk_bounds(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let workers = threads.min(len.div_ceil(MIN_ITEMS_PER_THREAD)).max(1);
    let base = len / workers;
    let extra = len % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// Sweeps the pipeline and returns every element in index order.
fn execute<P: ParallelIterator>(p: &P) -> Vec<P::Item> {
    let len = p.len();
    let threads = current_num_threads();
    if threads <= 1 || len < 2 * MIN_ITEMS_PER_THREAD {
        return (0..len).map(|i| p.at(i)).collect();
    }
    let bounds = chunk_bounds(len, threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| s.spawn(move || (lo..hi).map(|i| p.at(i)).collect::<Vec<_>>()))
            .collect();
        let mut out = Vec::with_capacity(len);
        for h in handles {
            out.extend(h.join().expect("parallel worker panicked"));
        }
        out
    })
}

/// Sweeps the pipeline and reduces each chunk locally, then folds the
/// chunk results in chunk order.
fn execute_reduce<P, ID, OP>(p: &P, identity: &ID, op: &OP) -> P::Item
where
    P: ParallelIterator,
    ID: Fn() -> P::Item + Sync,
    OP: Fn(P::Item, P::Item) -> P::Item + Sync,
{
    let len = p.len();
    let threads = current_num_threads();
    if threads <= 1 || len < 2 * MIN_ITEMS_PER_THREAD {
        return (0..len).map(|i| p.at(i)).fold(identity(), op);
    }
    let bounds = chunk_bounds(len, threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| s.spawn(move || (lo..hi).map(|i| p.at(i)).fold(identity(), op)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .fold(identity(), op)
    })
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    /// One test owns the whole `build_global` lifecycle: the global is
    /// process-wide, so splitting these assertions across tests would
    /// race. No other shim test calls `build_global`.
    #[test]
    fn build_global_is_idempotent_for_agreeing_counts_only() {
        assert!(ThreadPoolBuilder::new()
            .num_threads(3)
            .build_global()
            .is_ok());
        assert_eq!(current_num_threads(), 3);
        // Same count again: idempotent success, count unchanged.
        assert!(ThreadPoolBuilder::new()
            .num_threads(3)
            .build_global()
            .is_ok());
        assert_eq!(current_num_threads(), 3);
        // Conflicting count: loud failure, original count stays.
        assert!(ThreadPoolBuilder::new()
            .num_threads(5)
            .build_global()
            .is_err());
        assert_eq!(current_num_threads(), 3);
    }

    #[test]
    fn collect_preserves_index_order() {
        let data: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = data.par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_matches_sequential() {
        let data: Vec<u8> = (0..200).map(|i| (i % 251) as u8).collect();
        let out: Vec<(usize, u8)> = data.par_iter().enumerate().map(|(i, b)| (i, *b)).collect();
        for (i, (j, b)) in out.iter().enumerate() {
            assert_eq!(i, *j);
            assert_eq!(*b, data[i]);
        }
    }

    #[test]
    fn reduce_xor_is_split_independent() {
        let data: Vec<u64> = (0..777u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let seq = data.iter().fold(0u64, |a, b| a ^ b);
        let par = data.par_iter().map(|x| *x).reduce(|| 0, |a, b| a ^ b);
        assert_eq!(seq, par);
    }

    #[test]
    fn small_inputs_run_inline() {
        let data = [1u32, 2, 3];
        let out: Vec<u32> = data.par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 6 * 7, || "ok");
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn chunk_bounds_cover_the_range_exactly() {
        for len in [0usize, 1, 15, 16, 17, 100, 1000] {
            for threads in [1usize, 2, 3, 8] {
                let bounds = chunk_bounds(len, threads);
                let mut expect = 0;
                for (lo, hi) in &bounds {
                    assert_eq!(*lo, expect);
                    assert!(hi >= lo);
                    expect = *hi;
                }
                assert_eq!(expect, len);
            }
        }
    }
}
