//! The two-stage task graph scheduler (paper Section III-B, Fig. 6).

use std::fmt;

use crate::batch::extract_batches;
use crate::conflict::ConflictGraph;

/// An execution-ordered task graph: every conflict edge oriented into a
/// dependency, forming a DAG by construction.
///
/// Stage 1 extracts the **root task batch** (a maximal independent set in
/// the given order); stage 2 orients each conflict edge:
///
/// 1. root task vs non-root task → root task first;
/// 2. two non-root tasks → the task earlier in the sorted order first
///    ("smaller task id", where the id reflects the sorting result).
///
/// Because both rules follow one global priority (root batch first, then
/// sorted position), the orientation is acyclic, so the executor can run it
/// with dependency counting and no deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Tasks in the root batch, in order.
    root_batch: Vec<u32>,
    /// successors[t] = tasks that must wait for `t`.
    successors: Vec<Vec<u32>>,
    /// predecessor count per task.
    in_degree: Vec<u32>,
    /// Global priority of each task (position in root-first order).
    priority: Vec<u32>,
}

impl Schedule {
    /// Builds the schedule for tasks listed in `order` (the sorted net
    /// order) over the given conflict graph.
    ///
    /// # Panics
    ///
    /// Panics if `order` does not cover every task of `conflicts` exactly
    /// once (propagated from [`extract_batches`]).
    pub fn build(order: &[u32], conflicts: &ConflictGraph) -> Self {
        let n = conflicts.task_count();
        assert_eq!(order.len(), n, "order must cover every task");
        let batches = extract_batches(order, conflicts);
        let root_batch = batches.first().cloned().unwrap_or_default();

        // Global priority: root batch first (in order), then everything
        // else in the sorted order.
        let mut priority = vec![u32::MAX; n];
        let mut next = 0u32;
        for &t in &root_batch {
            priority[t as usize] = next;
            next += 1;
        }
        for &t in order {
            if priority[t as usize] == u32::MAX {
                priority[t as usize] = next;
                next += 1;
            }
        }

        let mut successors = vec![Vec::new(); n];
        let mut in_degree = vec![0u32; n];
        for t in 0..n as u32 {
            for &nb in conflicts.neighbors(t) {
                if nb <= t {
                    continue; // handle each edge once
                }
                let (first, second) = if priority[t as usize] < priority[nb as usize] {
                    (t, nb)
                } else {
                    (nb, t)
                };
                successors[first as usize].push(second);
                in_degree[second as usize] += 1;
            }
        }
        for s in &mut successors {
            s.sort_unstable();
        }
        Self {
            root_batch,
            successors,
            in_degree,
            priority,
        }
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.successors.len()
    }

    /// The root task batch (stage 1 of the scheduler).
    pub fn root_batch(&self) -> &[u32] {
        &self.root_batch
    }

    /// The tasks that must wait for `t`.
    pub fn successors(&self, t: u32) -> &[u32] {
        &self.successors[t as usize]
    }

    /// Number of tasks `t` waits for.
    pub fn in_degree(&self, t: u32) -> u32 {
        self.in_degree[t as usize]
    }

    /// The global priority used to orient edges (root batch first, then
    /// sorted order).
    pub fn priority(&self, t: u32) -> u32 {
        self.priority[t as usize]
    }

    /// A topological order (by construction: ascending priority).
    pub fn topo_order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.task_count() as u32).collect();
        order.sort_by_key(|&t| self.priority[t as usize]);
        order
    }

    /// Every oriented dependency edge `(predecessor, successor)`, each
    /// conflict edge exactly once. The order is by predecessor, then by
    /// ascending successor id.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.successors
            .iter()
            .enumerate()
            .flat_map(|(t, succs)| succs.iter().map(move |&s| (t as u32, s)))
    }

    /// The execution frontiers of the DAG: level 0 holds every task with no
    /// predecessors, level `k + 1` the tasks released once level `k`
    /// completed (Kahn peeling). Tasks inside one level share no dependency
    /// edge, so — with every conflict edge oriented — each level is an
    /// independent set of the conflict graph. Within a level, tasks are in
    /// ascending id order.
    pub fn levels(&self) -> Vec<Vec<u32>> {
        let n = self.task_count();
        let mut in_deg = self.in_degree.clone();
        let mut frontier: Vec<u32> = (0..n as u32).filter(|&t| in_deg[t as usize] == 0).collect();
        let mut levels = Vec::new();
        let mut done = 0usize;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &t in &frontier {
                for &s in self.successors(t) {
                    in_deg[s as usize] -= 1;
                    if in_deg[s as usize] == 0 {
                        next.push(s);
                    }
                }
            }
            done += frontier.len();
            next.sort_unstable();
            levels.push(std::mem::replace(&mut frontier, next));
        }
        debug_assert_eq!(done, n, "schedule is a DAG by construction");
        levels
    }

    /// Total work and critical-path span for per-task `costs` (seconds, or
    /// any additive unit). The span is what an ideal parallel machine
    /// achieves; `work / span` bounds the parallel speedup of the schedule.
    ///
    /// # Panics
    ///
    /// Panics if `costs.len() != task_count()`.
    pub fn work_and_span(&self, costs: &[f64]) -> (f64, f64) {
        assert_eq!(costs.len(), self.task_count(), "one cost per task");
        let work: f64 = costs.iter().sum();
        let mut finish = vec![0.0f64; costs.len()];
        for &t in &self.topo_order() {
            let start = finish[t as usize]; // max over predecessors, accumulated below
            let end = start + costs[t as usize];
            for &s in self.successors(t) {
                if end > finish[s as usize] {
                    finish[s as usize] = end;
                }
            }
            finish[t as usize] = end;
        }
        let span = finish.into_iter().fold(0.0, f64::max);
        (work, span)
    }

    /// Simulated wall-clock of running the schedule greedily on `workers`
    /// identical workers (list scheduling by priority): the executor's
    /// theoretical runtime on a `workers`-core machine.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `costs.len() != task_count()`.
    pub fn simulate_workers(&self, costs: &[f64], workers: usize) -> f64 {
        assert!(workers > 0, "need at least one worker");
        assert_eq!(costs.len(), self.task_count(), "one cost per task");
        let n = self.task_count();
        if n == 0 {
            return 0.0;
        }
        // Event-driven list scheduling: ready tasks by priority, workers by
        // next-free time.
        let mut in_deg = self.in_degree.clone();
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<(u32, u32)>> =
            std::collections::BinaryHeap::new();
        for t in 0..n as u32 {
            if in_deg[t as usize] == 0 {
                ready.push(std::cmp::Reverse((self.priority[t as usize], t)));
            }
        }
        // (finish time, task) min-heap of running tasks; worker pool size.
        let mut running: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>> =
            std::collections::BinaryHeap::new();
        let to_fixed = |x: f64| (x * 1e9) as u64;
        let mut now = 0u64;
        let mut done = 0usize;
        let mut makespan = 0u64;
        while done < n {
            while running.len() < workers {
                let Some(std::cmp::Reverse((_, t))) = ready.pop() else {
                    break;
                };
                running.push(std::cmp::Reverse((now + to_fixed(costs[t as usize]), t)));
            }
            let std::cmp::Reverse((finish, t)) =
                running.pop().expect("progress requires a running task");
            now = finish;
            makespan = makespan.max(finish);
            done += 1;
            for &s in self.successors(t) {
                in_deg[s as usize] -= 1;
                if in_deg[s as usize] == 0 {
                    ready.push(std::cmp::Reverse((self.priority[s as usize], s)));
                }
            }
        }
        makespan as f64 / 1e9
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let edges: usize = self.successors.iter().map(Vec::len).sum();
        write!(
            f,
            "schedule: {} tasks, {} dependencies, root batch {}",
            self.task_count(),
            edges,
            self.root_batch.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_grid::{Point2, Rect};
    use proptest::prelude::*;

    fn rect(x0: u16, y0: u16, x1: u16, y1: u16) -> Rect {
        Rect::new(Point2::new(x0, y0), Point2::new(x1, y1))
    }

    fn schedule_of(boxes: &[Rect]) -> Schedule {
        let conflicts = ConflictGraph::from_bounding_boxes(boxes);
        let order: Vec<u32> = (0..boxes.len() as u32).collect();
        Schedule::build(&order, &conflicts)
    }

    #[test]
    fn fig6_style_example_orients_root_first() {
        // 0 and 2 independent (root batch), 1 conflicts with both.
        let s = schedule_of(&[rect(0, 0, 4, 4), rect(3, 3, 8, 8), rect(7, 7, 9, 9)]);
        assert_eq!(s.root_batch(), &[0, 2]);
        assert_eq!(s.successors(0), &[1]);
        assert_eq!(s.successors(2), &[1]);
        assert_eq!(s.in_degree(1), 2);
    }

    #[test]
    fn nonroot_pairs_follow_task_id_order() {
        // 0 is root; 1, 2, 3 all conflict with 0 and each other.
        let boxes = vec![
            rect(0, 0, 9, 9),
            rect(1, 1, 8, 8),
            rect(2, 2, 7, 7),
            rect(3, 3, 6, 6),
        ];
        let s = schedule_of(&boxes);
        assert_eq!(s.root_batch(), &[0]);
        // Non-root pair (1, 2): 1 has smaller sorted position -> 1 before 2.
        assert!(s.successors(1).contains(&2));
        assert!(s.successors(2).contains(&3));
        assert!(!s.successors(3).contains(&1));
    }

    #[test]
    fn work_and_span_on_a_chain() {
        let boxes = vec![rect(0, 0, 9, 9), rect(1, 1, 8, 8), rect(2, 2, 7, 7)];
        let s = schedule_of(&boxes);
        let (work, span) = s.work_and_span(&[1.0, 2.0, 3.0]);
        assert_eq!(work, 6.0);
        assert_eq!(span, 6.0); // full chain: no parallelism
    }

    #[test]
    fn work_and_span_on_independent_tasks() {
        let boxes = vec![rect(0, 0, 1, 1), rect(5, 5, 6, 6), rect(10, 10, 11, 11)];
        let s = schedule_of(&boxes);
        let (work, span) = s.work_and_span(&[1.0, 2.0, 3.0]);
        assert_eq!(work, 6.0);
        assert_eq!(span, 3.0);
    }

    #[test]
    fn simulate_workers_interpolates_work_and_span() {
        let boxes = vec![rect(0, 0, 1, 1), rect(5, 5, 6, 6), rect(10, 10, 11, 11)];
        let s = schedule_of(&boxes);
        let costs = [1.0, 2.0, 3.0];
        let one = s.simulate_workers(&costs, 1);
        let many = s.simulate_workers(&costs, 8);
        assert!((one - 6.0).abs() < 1e-6);
        assert!((many - 3.0).abs() < 1e-6);
    }

    #[test]
    fn edges_list_every_dependency_once() {
        let s = schedule_of(&[rect(0, 0, 4, 4), rect(3, 3, 8, 8), rect(7, 7, 9, 9)]);
        let edges: Vec<(u32, u32)> = s.edges().collect();
        assert_eq!(edges, vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn levels_are_kahn_frontiers() {
        // 0 and 2 independent (root batch), 1 conflicts with both.
        let s = schedule_of(&[rect(0, 0, 4, 4), rect(3, 3, 8, 8), rect(7, 7, 9, 9)]);
        assert_eq!(s.levels(), vec![vec![0, 2], vec![1]]);
        // A full chain peels one task per level.
        let chain = schedule_of(&[rect(0, 0, 9, 9), rect(1, 1, 8, 8), rect(2, 2, 7, 7)]);
        assert_eq!(chain.levels(), vec![vec![0], vec![1], vec![2]]);
        // Empty schedule: no levels.
        assert!(schedule_of(&[]).levels().is_empty());
    }

    #[test]
    fn empty_schedule_is_fine() {
        let s = schedule_of(&[]);
        assert_eq!(s.task_count(), 0);
        assert_eq!(s.work_and_span(&[]), (0.0, 0.0));
        assert_eq!(s.simulate_workers(&[], 4), 0.0);
    }

    proptest! {
        /// The orientation must be acyclic: priorities strictly increase
        /// along every dependency edge.
        #[test]
        fn orientation_is_acyclic(
            raw in proptest::collection::vec((0u16..25, 0u16..25, 0u16..10, 0u16..10), 1..40)
        ) {
            let boxes: Vec<Rect> = raw
                .iter()
                .map(|&(x, y, w, h)| rect(x, y, x + w, y + h))
                .collect();
            let s = schedule_of(&boxes);
            for t in 0..s.task_count() as u32 {
                for &succ in s.successors(t) {
                    prop_assert!(s.priority(t) < s.priority(succ));
                }
            }
            // Every conflict edge is oriented exactly once.
            let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
            let edges: usize = (0..s.task_count() as u32)
                .map(|t| s.successors(t).len())
                .sum();
            prop_assert_eq!(edges, conflicts.edge_count());
            prop_assert_eq!(s.edges().count(), conflicts.edge_count());

            // Levels partition the tasks and never split a dependency edge
            // into the same level.
            let levels = s.levels();
            let mut level_of = vec![usize::MAX; s.task_count()];
            for (k, level) in levels.iter().enumerate() {
                for &t in level {
                    prop_assert_eq!(level_of[t as usize], usize::MAX);
                    level_of[t as usize] = k;
                }
            }
            prop_assert!(level_of.iter().all(|&k| k != usize::MAX));
            for (a, b) in s.edges() {
                prop_assert!(level_of[a as usize] < level_of[b as usize]);
            }

            // Span <= work and simulated 1-worker time == work.
            let costs: Vec<f64> = (0..s.task_count()).map(|i| 1.0 + (i % 3) as f64).collect();
            let (work, span) = s.work_and_span(&costs);
            prop_assert!(span <= work + 1e-9);
            let t1 = s.simulate_workers(&costs, 1);
            prop_assert!((t1 - work).abs() < 1e-6);
            let t8 = s.simulate_workers(&costs, 8);
            prop_assert!(t8 + 1e-9 >= span - 1e-6);
            prop_assert!(t8 <= work + 1e-6);
        }
    }
}
