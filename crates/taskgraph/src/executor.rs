//! Taskflow-substitute dependency-graph executor.
//!
//! The paper executes its ordered task graph with Taskflow [30], a C++
//! library that runs a task as soon as all its dependencies completed, using
//! a pool of CPU workers. This module reimplements that execution semantics
//! on top of a mutex-guarded ready queue with atomic dependency counters.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use fastgr_telemetry::WorkerHooks;

use crate::schedule::Schedule;

/// FIFO queue of ready task ids shared by the workers; `pop` blocks until a
/// task is pushed. Task code never runs under the lock, so it cannot be
/// poisoned by a panicking task; a poisoned lock is recovered regardless.
#[derive(Default)]
struct ReadyQueue {
    tasks: Mutex<VecDeque<u32>>,
    ready: Condvar,
}

impl ReadyQueue {
    fn push(&self, task: u32) {
        self.tasks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(task);
        self.ready.notify_one();
    }

    fn pop(&self) -> u32 {
        let mut tasks = self.tasks.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(task) = tasks.pop_front() {
                return task;
            }
            tasks = self
                .ready
                .wait(tasks)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A dependency-graph executor with a fixed worker pool.
///
/// Tasks become *ready* when their last predecessor completes; ready tasks
/// are distributed to workers through a shared ready queue, so independent tasks
/// run with maximum parallelism while every conflict edge of the
/// [`Schedule`] is honoured.
///
/// # Example
///
/// ```
/// use fastgr_grid::{Point2, Rect};
/// use fastgr_taskgraph::{ConflictGraph, Executor, Schedule};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let boxes = vec![Rect::new(Point2::new(0, 0), Point2::new(1, 1)); 1];
/// let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
/// let schedule = Schedule::build(&[0], &conflicts);
/// let counter = AtomicUsize::new(0);
/// Executor::new(4).run(
///     &schedule,
///     |_task, _worker| {
///         counter.fetch_add(1, Ordering::Relaxed);
///     },
///     &(),
/// );
/// assert_eq!(counter.into_inner(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// Creates an executor with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Runs every task of `schedule`, calling `task_fn(task_id, worker)`
    /// with all dependencies already completed, and reports the run's
    /// start, finish and handoff events to `hooks` (`&()` observes
    /// nothing). `worker` is the index, in `0..workers`, of the thread
    /// running the task, the same index `hooks` receive; state kept per
    /// worker can be indexed by it. Blocks until the whole graph has
    /// executed.
    ///
    /// `task_fn` runs concurrently from multiple threads; share state via
    /// interior mutability (the schedule guarantees conflicting tasks never
    /// overlap, so per-net state needs no locking — only globally shared
    /// accumulators do). Each handoff is reported before the successor's
    /// dependency counter is decremented.
    ///
    /// # Panics
    ///
    /// If `task_fn` panics for some task, the run shuts down (remaining
    /// tasks are abandoned, in-flight tasks finish), all workers are
    /// joined, and the first panic is re-raised on the calling thread — a
    /// panicking task can never deadlock the pool.
    pub fn run<F, H>(&self, schedule: &Schedule, task_fn: F, hooks: &H)
    where
        F: Fn(u32, usize) + Sync,
        H: WorkerHooks,
    {
        let n = schedule.task_count();
        if n == 0 {
            return;
        }

        const SHUTDOWN: u32 = u32::MAX;
        let pending: Vec<AtomicU32> = (0..n as u32)
            .map(|t| AtomicU32::new(schedule.in_degree(t)))
            .collect();
        let completed = AtomicUsize::new(0);
        // First panic payload of any worker; later panics are dropped.
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let queue = ReadyQueue::default();
        for t in 0..n as u32 {
            if schedule.in_degree(t) == 0 {
                queue.push(t);
            }
        }

        std::thread::scope(|scope| {
            for worker in 0..self.workers {
                let queue = &queue;
                let pending = &pending;
                let completed = &completed;
                let panic_slot = &panic_slot;
                let task_fn = &task_fn;
                scope.spawn(move || loop {
                    let t = queue.pop();
                    if t == SHUTDOWN {
                        break;
                    }
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        hooks.on_start(t as usize, worker);
                        task_fn(t, worker);
                        hooks.on_finish(t as usize, worker);
                    }));
                    if let Err(payload) = outcome {
                        // Keep the first payload, wake every worker
                        // (including this one's siblings blocked in `pop`)
                        // and stop making progress: successors of the
                        // failed task must not run.
                        let mut slot = panic_slot.lock().unwrap_or_else(PoisonError::into_inner);
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        drop(slot);
                        for _ in 0..self.workers {
                            queue.push(SHUTDOWN);
                        }
                        break;
                    }
                    for &s in schedule.successors(t) {
                        hooks.on_handoff(t as usize, s as usize);
                        if pending[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                            queue.push(s);
                        }
                    }
                    if completed.fetch_add(1, Ordering::AcqRel) + 1 == n {
                        for _ in 0..self.workers {
                            queue.push(SHUTDOWN);
                        }
                    }
                });
            }
        });

        let payload = panic_slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::ConflictGraph;
    use fastgr_grid::{Point2, Rect};
    use fastgr_telemetry::{Recorder, TraceHooks, TRACK_WORKER_BASE};

    fn rect(x0: u16, y0: u16, x1: u16, y1: u16) -> Rect {
        Rect::new(Point2::new(x0, y0), Point2::new(x1, y1))
    }

    fn schedule_of(boxes: &[Rect]) -> Schedule {
        let conflicts = ConflictGraph::from_bounding_boxes(boxes);
        let order: Vec<u32> = (0..boxes.len() as u32).collect();
        Schedule::build(&order, &conflicts)
    }

    #[test]
    fn runs_every_task_exactly_once() {
        // An overlapping chain, and 2,000 seeded boxes of up to 6×6 G-cells
        // on a 140×140 grid: a wide, deep schedule whose ready queue is
        // contended at every worker count.
        let chain: Vec<Rect> = (0..50).map(|i| rect(i * 2, 0, i * 2 + 3, 3)).collect();
        let mut state = 42u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % bound) as u16
        };
        let random: Vec<Rect> = (0..2000)
            .map(|_| {
                let (x, y) = (next(134), next(134));
                rect(x, y, x + 1 + next(6), y + 1 + next(6))
            })
            .collect();
        for (boxes, workers) in [(chain, &[4][..]), (random, &[1, 2, 4][..])] {
            let schedule = schedule_of(&boxes);
            for &w in workers {
                // Each task takes a ticket from one clock. The executor's
                // AcqRel handoff makes a predecessor's `fetch_add` happen
                // before its successor's, so even a relaxed clock must give
                // every edge's predecessor the earlier ticket.
                let clock = AtomicUsize::new(0);
                let ticket: Vec<AtomicUsize> = boxes.iter().map(|_| AtomicUsize::new(0)).collect();
                Executor::new(w).run(
                    &schedule,
                    |t, _| {
                        let now = clock.fetch_add(1, Ordering::Relaxed) + 1;
                        assert_eq!(ticket[t as usize].swap(now, Ordering::Relaxed), 0);
                    },
                    &(),
                );
                assert_eq!(clock.into_inner(), boxes.len(), "{w} workers");
                for (pred, succ) in schedule.edges() {
                    let (a, b) = (&ticket[pred as usize], &ticket[succ as usize]);
                    assert!(a.load(Ordering::Relaxed) < b.load(Ordering::Relaxed));
                }
            }
        }
    }

    #[test]
    fn dependencies_are_honoured() {
        // Chain 0 <- 1 <- 2 (all overlap): record completion order.
        let boxes = vec![rect(0, 0, 9, 9), rect(1, 1, 8, 8), rect(2, 2, 7, 7)];
        let schedule = schedule_of(&boxes);
        let log = Mutex::new(Vec::new());
        Executor::new(4).run(&schedule, |t, _| log.lock().unwrap().push(t), &());
        assert_eq!(log.into_inner().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn parallel_run_matches_sequential_result() {
        // Each task adds its id to a per-task slot; conflicting tasks share
        // a slot and must serialise — result is order-independent because
        // the schedule fixes the order.
        let boxes: Vec<Rect> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    rect(0, 0, 5, 5)
                } else {
                    rect(20, 20, 25, 25)
                }
            })
            .collect();
        let schedule = schedule_of(&boxes);
        let run = |workers: usize| {
            let acc = Mutex::new(vec![0u64; 2]);
            Executor::new(workers).run(
                &schedule,
                |t, _| {
                    let slot = (t % 2) as usize;
                    let mut g = acc.lock().unwrap();
                    g[slot] = g[slot] * 31 + t as u64;
                },
                &(),
            );
            acc.into_inner().unwrap()
        };
        // Within one conflict class execution order is fixed by the
        // schedule, so the fold value must be identical.
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn empty_schedule_returns_immediately() {
        let schedule = schedule_of(&[]);
        Executor::new(4).run(&schedule, |_, _| panic!("no tasks to run"), &());
    }

    #[test]
    fn single_worker_is_a_valid_degenerate_pool() {
        let boxes = vec![rect(0, 0, 1, 1), rect(5, 5, 6, 6)];
        let schedule = schedule_of(&boxes);
        let count = AtomicUsize::new(0);
        Executor::new(0).run(
            &schedule,
            |_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            },
            &(),
        );
        assert_eq!(count.into_inner(), 2);
    }

    /// Regression (PR 2): a panicking task used to leave the other workers
    /// blocked on the queue forever — `thread::scope` then deadlocked the
    /// run instead of surfacing the panic.
    #[test]
    fn panicking_task_propagates_without_deadlock() {
        let boxes: Vec<Rect> = (0..20).map(|i| rect(i * 2, 0, i * 2 + 3, 3)).collect();
        let schedule = schedule_of(&boxes);
        for workers in [1, 4] {
            let result = std::panic::catch_unwind(|| {
                Executor::new(workers).run(
                    &schedule,
                    |t, _| {
                        if t == 7 {
                            panic!("task 7 exploded");
                        }
                    },
                    &(),
                );
            });
            let payload = result.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "task 7 exploded", "workers={workers}");
        }
    }

    #[test]
    fn successors_of_a_panicked_task_never_run() {
        // Chain 0 -> 1 -> 2: task 0 panics, so 1 and 2 must not execute.
        let boxes = vec![rect(0, 0, 9, 9), rect(1, 1, 8, 8), rect(2, 2, 7, 7)];
        let schedule = schedule_of(&boxes);
        let ran = Mutex::new(Vec::new());
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Executor::new(4).run(
                &schedule,
                |t, _| {
                    if t == 0 {
                        panic!("root failed");
                    }
                    ran.lock().unwrap().push(t);
                },
                &(),
            );
        }));
        assert!(result.is_err());
        assert!(
            ran.into_inner().unwrap().is_empty(),
            "successors must be abandoned"
        );
    }

    #[test]
    fn trace_hooks_report_tasks_and_handoffs() {
        // All three boxes mutually overlap: edges 0→1, 0→2, 1→2.
        let boxes = vec![rect(0, 0, 9, 9), rect(1, 1, 8, 8), rect(2, 2, 7, 7)];
        let schedule = schedule_of(&boxes);
        let recorder = Recorder::enabled();
        Executor::new(2).run(
            &schedule,
            |_, _| {},
            &TraceHooks::new(&recorder, "task", "task"),
        );
        let trace = recorder.take_trace();
        let begins: Vec<&str> = trace
            .events()
            .iter()
            .filter(|e| e.begin)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(begins.len(), 3);
        assert!(begins.contains(&"task0"));
        // Each event sits on its worker's track, in category `task`.
        assert!(trace
            .events()
            .iter()
            .all(|e| e.cat == "task"
                && (TRACK_WORKER_BASE..TRACK_WORKER_BASE + 2).contains(&e.track)));
        assert_eq!(trace.counter("sched.handoffs"), Some(3.0));
        // Disabled recorder: the same hooks record nothing.
        let off = Recorder::disabled();
        Executor::new(2).run(&schedule, |_, _| {}, &TraceHooks::new(&off, "task", "task"));
        assert!(off.take_trace().events().is_empty());
    }

    #[test]
    fn hooks_observe_starts_finishes_and_handoffs() {
        struct Log {
            starts: AtomicUsize,
            finishes: AtomicUsize,
            handoffs: Mutex<Vec<(u32, u32)>>,
        }
        impl WorkerHooks for Log {
            fn on_start(&self, _task: usize, _worker: usize) {
                self.starts.fetch_add(1, Ordering::Relaxed);
            }
            fn on_finish(&self, _task: usize, _worker: usize) {
                self.finishes.fetch_add(1, Ordering::Relaxed);
            }
            fn on_handoff(&self, pred: usize, succ: usize) {
                self.handoffs
                    .lock()
                    .unwrap()
                    .push((pred as u32, succ as u32));
            }
        }
        let boxes = vec![rect(0, 0, 4, 4), rect(3, 3, 8, 8), rect(7, 7, 9, 9)];
        let schedule = schedule_of(&boxes);
        let log = Log {
            starts: AtomicUsize::new(0),
            finishes: AtomicUsize::new(0),
            handoffs: Mutex::new(Vec::new()),
        };
        Executor::new(2).run(&schedule, |_, _| {}, &log);
        assert_eq!(log.starts.load(Ordering::Relaxed), 3);
        assert_eq!(log.finishes.load(Ordering::Relaxed), 3);
        let mut handoffs = log.handoffs.into_inner().unwrap();
        handoffs.sort_unstable();
        let mut expected: Vec<(u32, u32)> = schedule.edges().collect();
        expected.sort_unstable();
        assert_eq!(handoffs, expected, "one handoff per dependency edge");
    }

    #[test]
    fn tasks_see_the_worker_index_their_hooks_see() {
        /// The worker index `on_start` saw for each task.
        struct Started(Vec<AtomicUsize>);
        impl WorkerHooks for Started {
            fn on_start(&self, task: usize, worker: usize) {
                self.0[task].store(worker, Ordering::Relaxed);
            }
        }
        let boxes: Vec<Rect> = (0..200)
            .map(|i| rect(i % 40 * 3, i / 40 * 3, i % 40 * 3 + 3, i / 40 * 3 + 3))
            .collect();
        let schedule = schedule_of(&boxes);
        for workers in [1, 2, 4] {
            let started = Started(boxes.iter().map(|_| AtomicUsize::new(usize::MAX)).collect());
            let seen: Vec<AtomicUsize> =
                boxes.iter().map(|_| AtomicUsize::new(usize::MAX)).collect();
            Executor::new(workers).run(
                &schedule,
                |t, worker| {
                    assert!(worker < workers, "worker {worker} of {workers}");
                    let at_start = started.0[t as usize].load(Ordering::Relaxed);
                    assert_eq!(worker, at_start, "task {t}");
                    seen[t as usize].store(worker, Ordering::Relaxed);
                },
                &started,
            );
            assert!(seen.iter().all(|w| w.load(Ordering::Relaxed) < workers));
        }
    }
}
