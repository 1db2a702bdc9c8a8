//! Host-side execution strategies for the simulator's structural parallelism.
//!
//! The SNE is parallel by construction: independent slices behind a crossbar,
//! independent engine instances behind a batcher. The simulator mirrors that
//! decomposition — per-slice worker units inside [`crate::Engine`], one
//! engine per lane in a batch — and [`ExecStrategy`] decides whether those
//! units run on the calling thread ([`ExecStrategy::Sequential`]) or are
//! fanned out over host worker threads ([`ExecStrategy::Threaded`]) with
//! [`std::thread::scope`].
//!
//! The strategy never changes results: work items are disjoint (`&mut`
//! borrows handed out per unit), every item is processed exactly once, and
//! results are gathered back in item order, so `Threaded(n)` is bit-identical
//! to `Sequential` for every `n`. The choice only affects wall-clock time on
//! the host.

use serde::{Deserialize, Serialize};

/// How the simulator's independent work units are executed on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ExecStrategy {
    /// Run every unit on the calling thread, in item order. The default.
    #[default]
    Sequential,
    /// Fan the units out over (up to) the given number of worker threads
    /// using [`std::thread::scope`]. `Threaded(1)` behaves like
    /// [`ExecStrategy::Sequential`] without spawning; a count of zero is
    /// treated as one.
    Threaded(usize),
}

impl ExecStrategy {
    /// A threaded strategy with at least one worker.
    #[must_use]
    pub fn threaded(workers: usize) -> Self {
        Self::Threaded(workers.max(1))
    }

    /// The canonical threads-knob mapping used by CLIs and benches: `n <= 1`
    /// is [`ExecStrategy::Sequential`], anything larger is `Threaded(n)`.
    #[must_use]
    pub fn from_threads(threads: usize) -> Self {
        if threads <= 1 {
            Self::Sequential
        } else {
            Self::Threaded(threads)
        }
    }

    /// The self-tuning strategy behind the `--threads auto` knob: resolves to
    /// [`ExecStrategy::Sequential`] when [`std::thread::available_parallelism`]
    /// reports a single hardware thread (where worker threads can only add
    /// spawn overhead — the low-core regression `BENCH_parallel.json`
    /// documents), and to `Threaded(available)` otherwise. Like every
    /// strategy, the resolution only moves host wall-clock time; results are
    /// bit-identical.
    #[must_use]
    pub fn auto() -> Self {
        Self::from_threads(
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
    }

    /// Number of worker threads the strategy uses (1 for sequential).
    #[must_use]
    pub fn threads(&self) -> usize {
        match self {
            Self::Sequential => 1,
            Self::Threaded(n) => (*n).max(1),
        }
    }

    /// Returns `true` if more than one worker thread would be used.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.threads() > 1
    }

    /// Worker-thread count for a scheduler driving a pool of `lanes` engines:
    /// the strategy's thread budget, clamped to the lane count (more workers
    /// than engines would only queue on the pool) and never below one.
    #[must_use]
    pub fn pool_workers(&self, lanes: usize) -> usize {
        self.threads().min(lanes.max(1)).max(1)
    }

    /// Applies `f` to every item exactly once, returning the results in item
    /// order. Under [`ExecStrategy::Threaded`] the items are split into
    /// contiguous chunks, one scoped worker thread per chunk; the closure
    /// receives the item's global index.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` (a panicking worker thread aborts the map).
    pub fn map<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let workers = self.threads().min(items.len());
        if workers <= 1 {
            return items
                .iter_mut()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let chunk_len = items.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = items
                .chunks_mut(chunk_len)
                .enumerate()
                .map(|(chunk_index, chunk)| {
                    scope.spawn(move || {
                        chunk
                            .iter_mut()
                            .enumerate()
                            .map(|(offset, item)| f(chunk_index * chunk_len + offset, item))
                            .collect::<Vec<R>>()
                    })
                })
                .collect();
            // Joining in spawn order concatenates the per-chunk results back
            // into item order — the deterministic reduction.
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("executor worker thread panicked"))
                .collect()
        })
    }

    /// Applies `f` to every item exactly once (no results gathered). Same
    /// ordering and threading guarantees as [`ExecStrategy::map`].
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`.
    pub fn run<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        // `Vec<()>` never allocates, so this adds no overhead over a
        // dedicated for-each implementation.
        let _: Vec<()> = self.map(items, |i, item| f(i, item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_the_default_single_thread() {
        assert_eq!(ExecStrategy::default(), ExecStrategy::Sequential);
        assert_eq!(ExecStrategy::Sequential.threads(), 1);
        assert!(!ExecStrategy::Sequential.is_parallel());
    }

    #[test]
    fn thread_counts_are_clamped_to_one() {
        assert_eq!(ExecStrategy::threaded(0).threads(), 1);
        assert_eq!(ExecStrategy::Threaded(0).threads(), 1);
        assert_eq!(ExecStrategy::threaded(4).threads(), 4);
        assert!(ExecStrategy::threaded(2).is_parallel());
        assert_eq!(ExecStrategy::from_threads(0), ExecStrategy::Sequential);
        assert_eq!(ExecStrategy::from_threads(1), ExecStrategy::Sequential);
        assert_eq!(ExecStrategy::from_threads(4), ExecStrategy::Threaded(4));
    }

    #[test]
    fn auto_resolves_to_the_host_parallelism() {
        let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let auto = ExecStrategy::auto();
        if available <= 1 {
            // On a single-core host worker threads can only add overhead.
            assert_eq!(auto, ExecStrategy::Sequential);
        } else {
            assert_eq!(auto, ExecStrategy::Threaded(available));
        }
    }

    #[test]
    fn pool_workers_clamp_to_lanes_and_one() {
        assert_eq!(ExecStrategy::Sequential.pool_workers(8), 1);
        assert_eq!(ExecStrategy::threaded(4).pool_workers(8), 4);
        assert_eq!(ExecStrategy::threaded(16).pool_workers(3), 3);
        assert_eq!(ExecStrategy::threaded(16).pool_workers(0), 1);
    }

    #[test]
    fn map_preserves_item_order_for_every_strategy() {
        let strategies = [
            ExecStrategy::Sequential,
            ExecStrategy::threaded(1),
            ExecStrategy::threaded(2),
            ExecStrategy::threaded(3),
            ExecStrategy::threaded(16),
        ];
        for strategy in strategies {
            let mut items: Vec<u64> = (0..37).collect();
            let doubled = strategy.map(&mut items, |i, v| {
                *v += 1;
                (i as u64, *v * 2)
            });
            assert_eq!(doubled.len(), 37);
            for (i, (index, value)) in doubled.iter().enumerate() {
                assert_eq!(*index, i as u64);
                assert_eq!(*value, (i as u64 + 1) * 2);
            }
            assert_eq!(items[36], 37);
        }
    }

    #[test]
    fn run_mutates_every_item_exactly_once() {
        let mut items = vec![0u32; 100];
        ExecStrategy::threaded(8).run(&mut items, |i, v| *v += i as u32 + 1);
        for (i, v) in items.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let mut items = vec![1u8, 2];
        let out = ExecStrategy::threaded(64).map(&mut items, |_, v| *v * 10);
        assert_eq!(out, vec![10, 20]);
        let mut empty: Vec<u8> = Vec::new();
        assert!(ExecStrategy::threaded(4)
            .map(&mut empty, |_, v| *v)
            .is_empty());
    }

    #[test]
    fn strategies_are_send_and_the_results_deterministic() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExecStrategy>();
        let mut a: Vec<u64> = (0..1000).collect();
        let mut b = a.clone();
        let seq = ExecStrategy::Sequential.map(&mut a, |i, v| *v * i as u64);
        let par = ExecStrategy::threaded(7).map(&mut b, |i, v| *v * i as u64);
        assert_eq!(seq, par);
    }
}
