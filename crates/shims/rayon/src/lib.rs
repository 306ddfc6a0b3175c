//! Offline stand-in for the subset of `rayon` this workspace uses.
//!
//! The build container has no crates.io access, so parallel sweeps run on a
//! scoped-thread fork/join implemented with the standard library. The API
//! mirrors the `rayon` calls used by `plaid-explore` (`par_iter().map(..)
//! .collect()`, `current_num_threads`) so the shim can be swapped for the
//! real crate by flipping one `[workspace.dependencies]` entry.
//!
//! Work is self-scheduled: each worker thread claims the next unclaimed item
//! from a shared cursor until none are left, so a worker that draws cheap
//! items keeps going while another is busy with an expensive one (sweep
//! points differ in cost by orders of magnitude). Every result is tagged
//! with its item's index and put back in input order, so `collect()` is
//! order-preserving exactly like rayon's indexed parallel iterators.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::thread;

/// Returns the number of worker threads the shim will use.
pub fn current_num_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(4)
        })
}

/// The traits user code imports with `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::iter::{IntoParallelRefIterator, ParallelIterator};
}

/// Parallel iterator adaptors.
pub mod iter {
    use super::current_num_threads;
    use std::panic;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    /// Conversion of `&collection` into a parallel iterator.
    pub trait IntoParallelRefIterator<'a> {
        /// Item yielded by the iterator.
        type Item: 'a;
        /// Concrete iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;

        /// Creates a parallel iterator over borrowed items.
        fn par_iter(&'a self) -> Self::Iter;
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = &'a T;
        type Iter = ParSlice<'a, T>;

        fn par_iter(&'a self) -> ParSlice<'a, T> {
            ParSlice { items: self }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = &'a T;
        type Iter = ParSlice<'a, T>;

        fn par_iter(&'a self) -> ParSlice<'a, T> {
            self.as_slice().par_iter()
        }
    }

    /// Minimal parallel-iterator interface: `map` then `collect`.
    pub trait ParallelIterator: Sized {
        /// Item type.
        type Item: Send;

        /// Runs the pipeline, returning results in input order.
        fn run(self) -> Vec<Self::Item>;

        /// Maps each item through `f` in parallel.
        fn map<R, F>(self, f: F) -> ParMap<Self, F>
        where
            R: Send,
            F: Fn(Self::Item) -> R + Sync,
        {
            ParMap { base: self, f }
        }

        /// Collects results in input order.
        fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
            C::from_par_vec(self.run())
        }
    }

    /// Collection types a parallel iterator can collect into.
    pub trait FromParallelIterator<T> {
        /// Builds the collection from the ordered result vector.
        fn from_par_vec(v: Vec<T>) -> Self;
    }

    impl<T> FromParallelIterator<T> for Vec<T> {
        fn from_par_vec(v: Vec<T>) -> Self {
            v
        }
    }

    /// Parallel iterator over a slice.
    pub struct ParSlice<'a, T> {
        items: &'a [T],
    }

    impl<'a, T: Sync> ParallelIterator for ParSlice<'a, T> {
        type Item = &'a T;

        fn run(self) -> Vec<&'a T> {
            self.items.iter().collect()
        }
    }

    /// A mapped parallel iterator.
    pub struct ParMap<B, F> {
        base: B,
        f: F,
    }

    impl<'a, T, R, F> ParallelIterator for ParMap<ParSlice<'a, T>, F>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        type Item = R;

        fn run(self) -> Vec<R> {
            run_on(current_num_threads(), self.base.items, &self.f)
        }
    }

    /// Maps `items` through `f` on at most `workers` scoped threads and
    /// returns the results in input order.
    ///
    /// Workers claim one item at a time from a shared cursor. The cursor is
    /// `Relaxed`: `fetch_add` alone makes every index go to exactly one
    /// worker, and results reach the caller through `join`, which
    /// synchronizes with the worker's exit. A worker's panic is re-raised
    /// on the caller with its original payload.
    pub(crate) fn run_on<'a, T, R, F>(workers: usize, items: &'a [T], f: &F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        let workers = workers.min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let claim_until_empty = || {
            let mut done = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return done;
                };
                done.push((i, f(item)));
            }
        };
        let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items.len());
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(claim_until_empty))
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(done) => tagged.extend(done),
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
        });
        tagged.sort_unstable_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, r)| r).collect()
    }

    // One level of nesting (`par_iter().map(f).map(g)`) is enough for this
    // workspace; deeper pipelines should fuse their closures.
    impl<'a, T, R, R2, F, G> ParallelIterator for ParMap<ParMap<ParSlice<'a, T>, F>, G>
    where
        T: Sync,
        R: Send,
        R2: Send,
        F: Fn(&'a T) -> R + Sync,
        G: Fn(R) -> R2 + Sync,
    {
        type Item = R2;

        fn run(self) -> Vec<R2> {
            let g = &self.f;
            let inner = self.base;
            let f = &inner.f;
            let fused = ParMap {
                base: inner.base,
                f: move |t: &'a T| g(f(t)),
            };
            fused.run()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::iter::run_on;
    use super::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;
    use std::time::{Duration, Instant};

    /// Spins until `done()` holds; fails the test after 10 s instead of
    /// hanging it.
    fn wait_for(done: impl Fn() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::yield_now();
        }
    }

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<u64> = (0..997).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..997).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let input: Vec<u32> = Vec::new();
        let out: Vec<u32> = input.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn chained_maps_fuse() {
        let input: Vec<u32> = (0..100).collect();
        let out: Vec<u32> = input.par_iter().map(|&x| x + 1).map(|x| x * 3).collect();
        assert_eq!(out[10], 33);
    }

    #[test]
    fn par_iter_runs_on_multiple_threads() {
        // Same hand-off as below, but through the public `par_iter` path:
        // it only finishes if `run` starts a second worker to take item 1.
        if super::current_num_threads() < 2 {
            return;
        }
        let item_1_ran = AtomicBool::new(false);
        let input: Vec<u32> = (0..4).collect();
        let out: Vec<u32> = input
            .par_iter()
            .map(|&x| {
                match x {
                    0 => wait_for(|| item_1_ran.load(Ordering::Acquire), "item 1"),
                    1 => item_1_ran.store(true, Ordering::Release),
                    _ => {}
                }
                x * 10
            })
            .collect();
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn an_idle_worker_takes_over_pending_items() {
        // Item 0 blocks until item 1 has run. A contiguous split would give
        // both to the same worker and never finish; self-scheduling hands
        // item 1 to the other worker.
        let item_1_ran = AtomicBool::new(false);
        let input: Vec<u32> = (0..4).collect();
        let out = run_on(2, &input, &|&x| {
            match x {
                0 => wait_for(|| item_1_ran.load(Ordering::Acquire), "item 1"),
                1 => item_1_ran.store(true, Ordering::Release),
                _ => {}
            }
            x * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn order_survives_skewed_item_costs() {
        // Item 0 finishes last of all: it waits until every other item is
        // done, so results complete in an order far from input order.
        for workers in [2, 3, 4] {
            let finished = AtomicUsize::new(0);
            let input: Vec<u64> = (0..64).collect();
            let out = run_on(workers, &input, &|&x| {
                if x == 0 {
                    wait_for(|| finished.load(Ordering::Acquire) == 63, "items 1..64");
                } else {
                    finished.fetch_add(1, Ordering::Release);
                }
                x * x
            });
            assert_eq!(out, input.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn a_panicking_item_panics_the_caller() {
        let input: Vec<u32> = (0..16).collect();
        run_on(2, &input, &|&x| {
            assert!(x != 5, "item {x} failed");
            x
        });
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let input: Vec<u32> = (0..8).collect();
        let ids = run_on(1, &input, &|_| thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn fewer_items_than_workers() {
        let input = [10u32, 20, 30];
        assert_eq!(run_on(8, &input, &|&x| x + 1), vec![11, 21, 31]);
        let none: [u32; 0] = [];
        assert!(run_on(8, &none, &|&x| x).is_empty());
    }
}
