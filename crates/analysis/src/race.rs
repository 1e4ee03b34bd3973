//! Dynamic happens-before race checker.
//!
//! The static validator proves the *schedule* is sound; this module checks
//! that an *execution* actually honoured it. [`RaceChecker`] observes a
//! run through [`WorkerHooks`], the one observation contract of both
//! parallel runners — the dependency-counting executor and the simulated
//! device's block pool — and builds classic vector clocks:
//!
//! * each worker thread owns one clock component, incremented at every
//!   observed event (so two events of one worker are always ordered —
//!   program order);
//! * a reported handoff `pred -> succ` (the executor's dependency-counter
//!   decrement) joins `pred`'s finish clock into `succ`'s acquire set, so
//!   `succ`'s start happens-after `pred`'s finish — but **only** if the
//!   executor really performed that decrement. The happens-before relation
//!   is derived from what the run *did*, never from what the schedule
//!   *claims*.
//!
//! After the run, [`RaceChecker::report`] takes the conflict graph and
//! flags every conflicting pair whose executions were not strictly
//! ordered by the observed happens-before relation: a real race window,
//! with the unordered pair as the witness. A block-pool launch is simply
//! a run with no handoffs: the only ordering is per-worker program order,
//! so conflicting blocks of one launch are flagged unless they serialised
//! onto one worker by luck — check launches over independent sets only.

use std::sync::{Mutex, MutexGuard, PoisonError};

use fastgr_taskgraph::ConflictGraph;
use fastgr_telemetry::WorkerHooks;

use crate::diagnostics::{Diagnostic, ValidationReport};

/// A vector clock: one logical-time component per worker thread.
type Clock = Vec<u64>;

/// `a` happens-before-or-equals `b`, component-wise (missing components are
/// zero).
fn clock_le(a: &Clock, b: &Clock) -> bool {
    a.iter()
        .enumerate()
        .all(|(w, &t)| t <= b.get(w).copied().unwrap_or(0))
}

/// Joins `src` into `dst` (component-wise max).
fn clock_join(dst: &mut Clock, src: &Clock) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        if s > *d {
            *d = s;
        }
    }
}

/// Locks a checker's clock table. A panicking hook cannot leave the table
/// half-updated in a way that matters (the executor re-raises the panic
/// and the run is abandoned), so a poisoned lock is simply recovered.
fn lock(table: &Mutex<ClockTable>) -> MutexGuard<'_, ClockTable> {
    table.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The checker's event-recording core.
#[derive(Debug)]
struct ClockTable {
    /// Current clock of each worker thread (grown on first sight).
    workers: Vec<Clock>,
    /// Per item: join of the finish clocks released to it via handoffs.
    acquired: Vec<Clock>,
    /// Per item: clock snapshot at its start event.
    start: Vec<Option<Clock>>,
    /// Per item: clock snapshot at its finish event.
    finish: Vec<Option<Clock>>,
    /// Items that started twice / finished twice / finished unstarted.
    anomalies: Vec<Diagnostic>,
}

impl ClockTable {
    fn new(items: usize) -> Self {
        Self {
            workers: Vec::new(),
            acquired: vec![Clock::new(); items],
            start: vec![None; items],
            finish: vec![None; items],
            anomalies: Vec::new(),
        }
    }

    fn worker_clock(&mut self, worker: usize) -> &mut Clock {
        if self.workers.len() <= worker {
            self.workers.resize(worker + 1, Clock::new());
        }
        let clock = &mut self.workers[worker];
        if clock.len() <= worker {
            clock.resize(worker + 1, 0);
        }
        clock
    }

    fn record_start(&mut self, item: usize, worker: usize) {
        if item >= self.start.len() {
            self.anomalies.push(Diagnostic::error(
                "event-out-of-range",
                format!("task {item} started but only {} exist", self.start.len()),
            ));
            return;
        }
        // Acquire everything released to this item, then tick.
        let acquired = std::mem::take(&mut self.acquired[item]);
        let clock = self.worker_clock(worker);
        clock_join(clock, &acquired);
        clock[worker] += 1;
        let snapshot = clock.clone();
        if self.start[item].is_some() {
            self.anomalies.push(Diagnostic::error(
                "duplicate-start",
                format!("task {item} started twice"),
            ));
        }
        self.start[item] = Some(snapshot);
    }

    fn record_finish(&mut self, item: usize, worker: usize) {
        if item >= self.finish.len() {
            self.anomalies.push(Diagnostic::error(
                "event-out-of-range",
                format!("task {item} finished but only {} exist", self.finish.len()),
            ));
            return;
        }
        let clock = self.worker_clock(worker);
        clock[worker] += 1;
        let snapshot = clock.clone();
        if self.start[item].is_none() {
            self.anomalies.push(Diagnostic::error(
                "finish-without-start",
                format!("task {item} finished without a start event"),
            ));
        }
        if self.finish[item].is_some() {
            self.anomalies.push(Diagnostic::error(
                "duplicate-finish",
                format!("task {item} finished twice"),
            ));
        }
        self.finish[item] = Some(snapshot);
    }

    fn record_handoff(&mut self, pred: usize, succ: usize) {
        if succ >= self.acquired.len() {
            return;
        }
        // Release pred's finish clock to succ. A handoff reported before
        // pred's finish event carries no ordering — leave the acquire set
        // alone and let the race check fire.
        if let Some(finish) = self.finish.get(pred).and_then(|f| f.clone()) {
            clock_join(&mut self.acquired[succ], &finish);
        } else {
            self.anomalies.push(Diagnostic::error(
                "handoff-before-finish",
                format!("handoff {pred} -> {succ} reported before {pred} finished"),
            ));
        }
    }

    /// The race check: every conflicting pair must be strictly ordered by
    /// the observed happens-before relation.
    fn report(&self, conflicts: &ConflictGraph) -> ValidationReport {
        let n = self.start.len();
        let mut report = ValidationReport {
            tasks_checked: n,
            conflict_edges_checked: conflicts.edge_count(),
            ..Default::default()
        };
        for d in &self.anomalies {
            report.push(d.clone());
        }
        if n != conflicts.task_count() {
            report.push(Diagnostic::error(
                "task-count-mismatch",
                format!(
                    "checker observed {n} tasks but the conflict graph has {}",
                    conflicts.task_count()
                ),
            ));
            return report;
        }
        for (t, (s, f)) in self.start.iter().zip(self.finish.iter()).enumerate() {
            if s.is_none() || f.is_none() {
                report.push(Diagnostic::error(
                    "unobserved-task",
                    format!("task {t} never produced both a start and a finish event"),
                ));
            }
        }
        for a in 0..n as u32 {
            for &b in conflicts.neighbors(a) {
                if b <= a {
                    continue;
                }
                let (Some(sa), Some(fa), Some(sb), Some(fb)) = (
                    self.start[a as usize].as_ref(),
                    self.finish[a as usize].as_ref(),
                    self.start[b as usize].as_ref(),
                    self.finish[b as usize].as_ref(),
                ) else {
                    continue; // already reported as unobserved
                };
                let a_before_b = clock_le(fa, sb);
                let b_before_a = clock_le(fb, sa);
                if !a_before_b && !b_before_a {
                    report.push(
                        Diagnostic::error(
                            "task-race",
                            format!(
                                "conflicting tasks {a} and {b} ran unordered: \
                                 no happens-before edge separates their executions"
                            ),
                        )
                        .with_tasks(a, b)
                        .with_witness(vec![a, b]),
                    );
                }
            }
        }
        report
    }
}

/// Vector-clock race checker for executor runs and block-pool launches.
///
/// Pass it as the [`WorkerHooks`] of [`fastgr_taskgraph::Executor::run`]
/// or `fastgr_gpu::HostPool::for_each_tapped`, then call
/// [`RaceChecker::report`] with the conflict graph over the run's task (or
/// block) indices. The happens-before relation joins per-worker program
/// order with the handoffs the run actually performed, so a schedule (or
/// an executor bug) that lets two conflicting tasks run without
/// synchronisation yields incomparable clocks and a `task-race` finding.
///
/// # Example
///
/// ```
/// use fastgr_analysis::RaceChecker;
/// use fastgr_grid::{Point2, Rect};
/// use fastgr_taskgraph::{ConflictGraph, Executor, Schedule};
///
/// let boxes = vec![
///     Rect::new(Point2::new(0, 0), Point2::new(4, 4)),
///     Rect::new(Point2::new(3, 3), Point2::new(8, 8)),
/// ];
/// let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
/// let schedule = Schedule::build(&[0, 1], &conflicts);
/// let checker = RaceChecker::new(schedule.task_count());
/// Executor::new(2).run(&schedule, |_task, _worker| {}, &checker);
/// checker.report(&conflicts).assert_clean("executor run");
/// ```
#[derive(Debug)]
pub struct RaceChecker {
    table: Mutex<ClockTable>,
}

impl RaceChecker {
    /// A checker expecting `task_count` tasks (or blocks).
    pub fn new(task_count: usize) -> Self {
        Self {
            table: Mutex::new(ClockTable::new(task_count)),
        }
    }

    /// Checks the observed execution against `conflicts`; every conflicting
    /// pair must have been strictly ordered.
    pub fn report(&self, conflicts: &ConflictGraph) -> ValidationReport {
        lock(&self.table).report(conflicts)
    }
}

impl WorkerHooks for RaceChecker {
    fn on_start(&self, task: usize, worker: usize) {
        lock(&self.table).record_start(task, worker);
    }

    fn on_finish(&self, task: usize, worker: usize) {
        lock(&self.table).record_finish(task, worker);
    }

    fn on_handoff(&self, pred: usize, succ: usize) {
        lock(&self.table).record_handoff(pred, succ);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_gpu::HostPool;
    use fastgr_grid::{Point2, Rect};
    use fastgr_taskgraph::{Executor, Schedule};

    fn rect(x0: u16, y0: u16, x1: u16, y1: u16) -> Rect {
        Rect::new(Point2::new(x0, y0), Point2::new(x1, y1))
    }

    fn conflicting_pair() -> ConflictGraph {
        ConflictGraph::from_bounding_boxes(&[rect(0, 0, 5, 5), rect(4, 4, 9, 9)])
    }

    #[test]
    fn ordered_execution_via_handoff_is_clean() {
        let conflicts = conflicting_pair();
        let chk = RaceChecker::new(2);
        // Worker 0 runs task 0, hands off to task 1 on worker 1.
        chk.on_start(0, 0);
        chk.on_finish(0, 0);
        chk.on_handoff(0, 1);
        chk.on_start(1, 1);
        chk.on_finish(1, 1);
        let report = chk.report(&conflicts);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn same_worker_program_order_is_clean_without_handoff() {
        let conflicts = conflicting_pair();
        let chk = RaceChecker::new(2);
        chk.on_start(1, 3);
        chk.on_finish(1, 3);
        chk.on_start(0, 3);
        chk.on_finish(0, 3);
        assert!(chk.report(&conflicts).is_clean());
    }

    #[test]
    fn forced_unordered_conflicting_tasks_are_flagged() {
        // Mutation: two conflicting tasks run on different workers with no
        // handoff between them — a real race window the checker must catch.
        let conflicts = conflicting_pair();
        let chk = RaceChecker::new(2);
        chk.on_start(0, 0);
        chk.on_finish(0, 0);
        chk.on_start(1, 1);
        chk.on_finish(1, 1);
        let report = chk.report(&conflicts);
        assert!(!report.is_clean());
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == "task-race" && d.tasks == Some((0, 1))),
            "{report}"
        );
    }

    #[test]
    fn handoff_chain_through_middle_task_orders_endpoints() {
        // 0 and 2 conflict; ordering goes 0 -> 1 -> 2 through handoffs.
        let boxes = [rect(0, 0, 5, 5), rect(20, 0, 25, 5), rect(4, 4, 9, 9)];
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let chk = RaceChecker::new(3);
        chk.on_start(0, 0);
        chk.on_finish(0, 0);
        chk.on_handoff(0, 1);
        chk.on_start(1, 1);
        chk.on_finish(1, 1);
        chk.on_handoff(1, 2);
        chk.on_start(2, 2);
        chk.on_finish(2, 2);
        assert!(chk.report(&conflicts).is_clean());
    }

    #[test]
    fn handoff_reported_before_finish_carries_no_ordering() {
        let conflicts = conflicting_pair();
        let chk = RaceChecker::new(2);
        chk.on_start(0, 0);
        chk.on_handoff(0, 1); // bogus: pred has not finished
        chk.on_finish(0, 0);
        chk.on_start(1, 1);
        chk.on_finish(1, 1);
        let report = chk.report(&conflicts);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "handoff-before-finish"));
        assert!(report.diagnostics.iter().any(|d| d.rule == "task-race"));
    }

    #[test]
    fn missing_events_are_reported() {
        let conflicts = conflicting_pair();
        let chk = RaceChecker::new(2);
        chk.on_start(0, 0);
        chk.on_finish(0, 0);
        // Task 1 never runs.
        let report = chk.report(&conflicts);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "unobserved-task"));
    }

    #[test]
    fn real_executor_runs_are_race_free() {
        // A clique plus satellites, executed for real on several worker
        // counts: the checker must find the run clean every time.
        let boxes = vec![
            rect(0, 0, 9, 9),
            rect(1, 1, 8, 8),
            rect(2, 2, 7, 7),
            rect(20, 0, 22, 2),
            rect(21, 1, 24, 4),
            rect(40, 40, 41, 41),
        ];
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let order: Vec<u32> = (0..boxes.len() as u32).collect();
        let schedule = Schedule::build(&order, &conflicts);
        for workers in [1, 2, 4] {
            let chk = RaceChecker::new(schedule.task_count());
            Executor::new(workers).run(&schedule, |_t, _| {}, &chk);
            let report = chk.report(&conflicts);
            assert!(report.is_clean(), "workers={workers}: {report}");
        }
    }

    #[test]
    fn block_pool_launch_over_independent_blocks_is_clean() {
        // Blocks far apart: no conflicts at all.
        let boxes: Vec<Rect> = (0..32).map(|i| rect(10 * i, 0, 10 * i + 3, 3)).collect();
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        for workers in [1, 4] {
            let chk = RaceChecker::new(boxes.len());
            HostPool::new(workers).for_each_tapped(boxes.len(), |_i| {}, &chk);
            let report = chk.report(&conflicts);
            assert!(report.is_clean(), "workers={workers}: {report}");
        }
    }

    #[test]
    fn block_pool_launch_over_conflicting_blocks_is_flagged() {
        use std::sync::Barrier;
        // Mutation: launch two conflicting blocks in one launch. A barrier
        // both blocks must reach forces them onto the pool's two workers
        // at the same time, so the checker must flag them.
        let conflicts = conflicting_pair();
        let chk = RaceChecker::new(2);
        let meet = Barrier::new(2);
        HostPool::new(2).for_each_tapped(
            2,
            |_b| {
                meet.wait();
            },
            &chk,
        );
        let report = chk.report(&conflicts);
        assert!(!report.is_clean());
        assert!(report.diagnostics.iter().any(|d| d.rule == "task-race"));
    }
}
