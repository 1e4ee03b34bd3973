//! Host-side worker pool that executes simulated-device blocks in
//! parallel.
//!
//! The paper's headline speed-ups come from running one block per net
//! concurrently on the GPU's SM array. The simulated device used to invoke
//! every block sequentially on one host thread, so the *modeled* time was
//! parallel but the *wall-clock* time never was. [`HostPool`] closes that
//! gap: block indices are handed out in contiguous chunks through an
//! atomic cursor to scoped worker threads, so conflict-free blocks (and
//! any other index-parallel host work, such as Steiner-tree planning)
//! execute with real CPU parallelism while remaining deterministic —
//! every index is processed exactly once and results land in
//! index-addressed slots, never depending on thread interleaving.
//!
//! Worker count resolution (see [`HostPool::resolve`]): an explicit
//! request wins, then the `FASTGR_WORKERS` environment variable, then the
//! machine's available parallelism. `FASTGR_WORKERS=1` forces fully
//! serial, in-order execution — useful for reproducing runs and for
//! debugging.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use fastgr_telemetry::WorkerHooks;

/// A pool of host worker threads executing index-parallel work.
///
/// The pool is a lightweight descriptor (worker count); workers are
/// scoped threads spawned per run, so closures may freely borrow from the
/// caller's stack. Chunked dispatch keeps the per-index overhead small:
/// a shared atomic cursor hands out contiguous index ranges, which also
/// preserves cache locality for index-adjacent work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostPool {
    workers: usize,
}

impl HostPool {
    /// A pool with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Resolves an effective worker count: `requested` if positive, else
    /// the `FASTGR_WORKERS` environment variable if set to a positive
    /// integer, else the machine's available parallelism.
    pub fn resolve(requested: usize) -> usize {
        if requested > 0 {
            return requested;
        }
        if let Some(n) = std::env::var("FASTGR_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// A pool sized by [`HostPool::resolve`] from `requested`.
    pub fn resolved(requested: usize) -> Self {
        Self::new(Self::resolve(requested))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(i)` for every `i in 0..n`, distributing indices over the
    /// pool. With one worker (or at most one index) this degenerates to a
    /// serial in-order loop with no thread spawn at all.
    pub fn for_each<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.for_each_tapped(n, f, &());
    }

    /// [`HostPool::for_each`] reporting a start and a finish
    /// [`WorkerHooks`] event around every block (a launch has no handoffs).
    /// On the serial path all events come from worker 0 in index order.
    pub fn for_each_tapped<F, H>(&self, n: usize, f: F, hooks: &H)
    where
        F: Fn(usize) + Sync,
        H: WorkerHooks,
    {
        if self.workers == 1 || n <= 1 {
            for i in 0..n {
                hooks.on_start(i, 0);
                f(i);
                hooks.on_finish(i, 0);
            }
            return;
        }
        // Chunk size balances dispatch overhead against load balance:
        // roughly 8 chunks per worker, capped so huge runs still rotate.
        let chunk = (n / (self.workers * 8)).clamp(1, 1024);
        let cursor = AtomicUsize::new(0);
        let threads = self.workers.min(n);
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let f = &f;
                let cursor = &cursor;
                scope.spawn(move || loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + chunk).min(n) {
                        hooks.on_start(i, worker);
                        f(i);
                        hooks.on_finish(i, worker);
                    }
                });
            }
        });
    }

    /// Maps `f` over `0..n` in parallel, returning results in index order.
    /// Deterministic: the output depends only on `f`, never on thread
    /// interleaving.
    pub fn map<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send + Sync,
        F: Fn(usize) -> R + Sync,
    {
        if self.workers == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
        self.for_each(n, |i| {
            let _ = slots[i].set(f(i));
        });
        slots
            .into_iter()
            .map(|v| v.into_inner().expect("every index produced a value"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn for_each_visits_every_index_once() {
        for workers in [1, 2, 8] {
            let n = 1000;
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            HostPool::new(workers).for_each(n, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn map_is_ordered_and_worker_count_independent() {
        let f = |i: usize| (i * i) as u64;
        let serial = HostPool::new(1).map(4096, f);
        let parallel = HostPool::new(7).map(4096, f);
        assert_eq!(serial, parallel);
        assert_eq!(serial[9], 81);
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let total = AtomicU64::new(0);
        HostPool::new(4).for_each(100_000, |i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), 100_000u64 * 99_999 / 2);
    }

    #[test]
    fn zero_and_one_index_runs_inline() {
        let pool = HostPool::new(8);
        pool.for_each(0, |_| panic!("no indices to run"));
        let one = pool.map(1, |i| i + 41);
        assert_eq!(one, vec![41]);
    }

    #[test]
    fn tap_sees_balanced_start_end_events_for_every_block() {
        struct Counter {
            starts: Vec<AtomicUsize>,
            ends: Vec<AtomicUsize>,
        }
        impl WorkerHooks for Counter {
            fn on_start(&self, block: usize, _worker: usize) {
                self.starts[block].fetch_add(1, Ordering::Relaxed);
            }
            fn on_finish(&self, block: usize, _worker: usize) {
                // An end must follow its start.
                assert_eq!(self.starts[block].load(Ordering::Relaxed), 1);
                self.ends[block].fetch_add(1, Ordering::Relaxed);
            }
        }
        for workers in [1, 4] {
            let n = 100;
            let tap = Counter {
                starts: (0..n).map(|_| AtomicUsize::new(0)).collect(),
                ends: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            };
            HostPool::new(workers).for_each_tapped(n, |_| {}, &tap);
            assert!(tap.starts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            assert!(tap.ends.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn resolve_prefers_explicit_request() {
        assert_eq!(HostPool::resolve(3), 3);
        assert!(HostPool::resolve(0) >= 1);
        assert_eq!(HostPool::new(0).workers(), 1);
    }
}
