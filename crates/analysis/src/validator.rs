//! Static schedule soundness validator.
//!
//! The scheduler (paper Section III-B, Algorithm 1) claims its output is a
//! DAG in which no two conflicting tasks can ever run concurrently. This
//! module *proves* that claim for a concrete [`Schedule`] instead of
//! assuming it:
//!
//! 1. **acyclicity** — a topological order exists (witnessed by Kahn
//!    peeling; on failure the report carries a minimal witness cycle);
//! 2. **orientation** — every conflict edge is oriented into exactly one
//!    dependency edge, and every dependency edge follows the scheduler's
//!    global priority (root batch first, then sorted order), so a single
//!    reversed edge is always detected even when it happens not to close a
//!    cycle;
//! 3. **independence** — the root batch and every execution frontier
//!    ([`Schedule::levels`]) are independent sets of the conflict graph;
//! 4. **accounting** — work and critical-path span are recomputed from
//!    scratch and cross-checked against [`Schedule::work_and_span`] and
//!    [`Schedule::simulate_workers`].
//!
//! Mutation testing is first-class: [`ScheduleView`] is a plain-data copy
//! of a schedule that tests deliberately break —
//! reverse an edge, drop an edge, merge a conflicting task into the root
//! batch — to prove the validator rejects each corruption.

use fastgr_taskgraph::{ConflictGraph, Schedule};

use crate::diagnostics::{Diagnostic, ValidationReport};

/// A plain-data copy of a schedule's oriented task graph, open to deliberate
/// corruption for mutation tests.
///
/// [`Schedule`] is correct by construction and immutable; the validator
/// therefore checks this view, which can also represent *broken* schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleView {
    successors: Vec<Vec<u32>>,
    root_batch: Vec<u32>,
    priority: Vec<u32>,
}

impl ScheduleView {
    /// Copies the oriented task graph out of a schedule.
    pub fn from_schedule(schedule: &Schedule) -> Self {
        let n = schedule.task_count() as u32;
        Self {
            successors: (0..n).map(|t| schedule.successors(t).to_vec()).collect(),
            root_batch: schedule.root_batch().to_vec(),
            priority: (0..n).map(|t| schedule.priority(t)).collect(),
        }
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.successors.len()
    }

    /// The tasks that must wait for `t`.
    pub fn successors(&self, t: u32) -> &[u32] {
        &self.successors[t as usize]
    }

    /// The root task batch.
    pub fn root_batch(&self) -> &[u32] {
        &self.root_batch
    }

    /// Whether the dependency edge `from -> to` exists.
    pub fn has_edge(&self, from: u32, to: u32) -> bool {
        self.successors[from as usize].contains(&to)
    }

    /// Mutation: reverses the dependency edge `from -> to` (mis-orienting
    /// the underlying conflict edge). Returns whether the edge existed.
    pub fn reverse_edge(&mut self, from: u32, to: u32) -> bool {
        if !self.drop_edge(from, to) {
            return false;
        }
        self.successors[to as usize].push(from);
        self.successors[to as usize].sort_unstable();
        true
    }

    /// Mutation: removes the dependency edge `from -> to`, leaving the
    /// underlying conflict edge unoriented — the two tasks then share an
    /// execution frontier, i.e. their batches merge. Returns whether the
    /// edge existed.
    pub fn drop_edge(&mut self, from: u32, to: u32) -> bool {
        let succ = &mut self.successors[from as usize];
        match succ.iter().position(|&s| s == to) {
            Some(i) => {
                succ.remove(i);
                true
            }
            None => false,
        }
    }

    /// Mutation: forces `t` into the root batch (merging it with a batch it
    /// may conflict with).
    pub fn push_root(&mut self, t: u32) {
        self.root_batch.push(t);
    }
}

/// Validates a schedule against the conflict graph it was built from.
///
/// Checks the view invariants (see [`validate_view`]) plus the schedule's
/// work/span accounting. Clean means the schedule is sound: executing it
/// with any executor that honours the dependency edges can never run two
/// conflicting tasks concurrently.
pub fn validate_schedule(schedule: &Schedule, conflicts: &ConflictGraph) -> ValidationReport {
    let mut report = validate_view(&ScheduleView::from_schedule(schedule), conflicts);

    // Accounting cross-check: recompute work and span from scratch over an
    // irregular deterministic cost vector and compare.
    let n = schedule.task_count();
    let costs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let (work, span) = schedule.work_and_span(&costs);
    let (expect_work, expect_span) = recompute_work_and_span(schedule, &costs);
    if (work - expect_work).abs() > 1e-9 {
        report.push(Diagnostic::error(
            "work-mismatch",
            format!("Schedule::work_and_span work {work} != recomputed {expect_work}"),
        ));
    }
    if (span - expect_span).abs() > 1e-9 {
        report.push(Diagnostic::error(
            "span-mismatch",
            format!("Schedule::work_and_span span {span} != recomputed {expect_span}"),
        ));
    }
    // One worker realises exactly the total work; infinitely many realise
    // the span (list scheduling on a DAG).
    if n > 0 {
        let t1 = schedule.simulate_workers(&costs, 1);
        if (t1 - expect_work).abs() > 1e-6 {
            report.push(Diagnostic::error(
                "simulate-mismatch",
                format!("simulate_workers(1) {t1} != total work {expect_work}"),
            ));
        }
        let t_inf = schedule.simulate_workers(&costs, n);
        if (t_inf - expect_span).abs() > 1e-6 {
            report.push(Diagnostic::error(
                "simulate-mismatch",
                format!("simulate_workers(n) {t_inf} != span {expect_span}"),
            ));
        }
    }
    report
}

/// Validates a (possibly corrupted) schedule view against the conflict
/// graph: acyclicity, conflict-edge orientation, priority consistency, and
/// independence of the root batch and of every execution frontier.
pub fn validate_view(view: &ScheduleView, conflicts: &ConflictGraph) -> ValidationReport {
    let n = view.task_count();
    let mut report = ValidationReport {
        tasks_checked: n,
        conflict_edges_checked: conflicts.edge_count(),
        ..Default::default()
    };
    if n != conflicts.task_count() {
        report.push(Diagnostic::error(
            "task-count-mismatch",
            format!(
                "schedule has {n} tasks but the conflict graph has {}",
                conflicts.task_count()
            ),
        ));
        return report;
    }

    // --- 1. Acyclicity (Kahn peeling; witness cycle on failure). ---
    let levels = kahn_levels(view, &mut report);

    // --- 2. Every conflict edge oriented into exactly one dependency. ---
    for a in 0..n as u32 {
        for &b in conflicts.neighbors(a) {
            if b <= a {
                continue; // one check per undirected conflict edge
            }
            let fwd = view.has_edge(a, b);
            let bwd = view.has_edge(b, a);
            match (fwd, bwd) {
                (false, false) => report.push(
                    Diagnostic::error(
                        "conflict-edge-unoriented",
                        format!(
                            "conflicting tasks {a} and {b} share no dependency edge; \
                             an executor may run them concurrently"
                        ),
                    )
                    .with_tasks(a, b)
                    .with_witness(vec![a, b]),
                ),
                (true, true) => report.push(
                    Diagnostic::error(
                        "conflict-edge-doubly-oriented",
                        format!("tasks {a} and {b} depend on each other (2-cycle)"),
                    )
                    .with_tasks(a, b)
                    .with_witness(vec![a, b, a]),
                ),
                _ => {}
            }
        }
    }

    // --- 3. Dependency edges follow the scheduler's global priority. ---
    // This catches a reversed edge even when the reversal happens not to
    // close a cycle (e.g. an isolated conflicting pair).
    for t in 0..n as u32 {
        for &s in view.successors(t) {
            if (s as usize) >= n {
                report.push(Diagnostic::error(
                    "edge-out-of-range",
                    format!("edge {t} -> {s} references a task out of range"),
                ));
                continue;
            }
            if view.priority[t as usize] >= view.priority[s as usize] {
                report.push(
                    Diagnostic::error(
                        "edge-against-priority",
                        format!(
                            "edge {t} -> {s} runs against the global priority \
                             ({} >= {}); the orientation rule was not applied",
                            view.priority[t as usize], view.priority[s as usize]
                        ),
                    )
                    .with_tasks(t, s)
                    .with_witness(vec![t, s]),
                );
            }
        }
    }

    // --- 4. Root batch: declared tasks exist, appear once, have no
    //        predecessors, and form an independent set. ---
    let mut in_degree = vec![0u32; n];
    for t in 0..n as u32 {
        for &s in view.successors(t) {
            if (s as usize) < n {
                in_degree[s as usize] += 1;
            }
        }
    }
    let mut in_root = vec![false; n];
    for &t in view.root_batch() {
        if (t as usize) >= n {
            report.push(Diagnostic::error(
                "root-out-of-range",
                format!("root batch lists task {t}, which does not exist"),
            ));
            continue;
        }
        if in_root[t as usize] {
            report.push(Diagnostic::error(
                "root-duplicate",
                format!("root batch lists task {t} twice"),
            ));
        }
        in_root[t as usize] = true;
        if in_degree[t as usize] != 0 {
            report.push(Diagnostic::error(
                "root-has-predecessors",
                format!(
                    "root-batch task {t} waits on {} predecessor(s)",
                    in_degree[t as usize]
                ),
            ));
        }
    }
    check_independent_set(
        view.root_batch(),
        &in_root,
        conflicts,
        "root-batch-conflict",
        "root batch",
        &mut report,
    );

    // --- 5. Every execution frontier is an independent set. ---
    let mut in_level = vec![false; n];
    for (k, level) in levels.iter().enumerate() {
        for &t in level {
            in_level[t as usize] = true;
        }
        check_independent_set(
            level,
            &in_level,
            conflicts,
            "frontier-conflict",
            &format!("execution frontier {k}"),
            &mut report,
        );
        for &t in level {
            in_level[t as usize] = false;
        }
    }

    report
}

/// Validates the raw output of `extract_batches` (Algorithm 1): the batches
/// must partition `0..conflicts.task_count()` (every task exactly once) and
/// each batch must be an independent set of the conflict graph.
pub fn validate_batches(batches: &[Vec<u32>], conflicts: &ConflictGraph) -> ValidationReport {
    let n = conflicts.task_count();
    let mut report = ValidationReport {
        tasks_checked: n,
        conflict_edges_checked: conflicts.edge_count(),
        ..Default::default()
    };
    let mut seen = vec![false; n];
    let mut in_batch = vec![false; n];
    for (k, batch) in batches.iter().enumerate() {
        for &t in batch {
            if (t as usize) >= n {
                report.push(Diagnostic::error(
                    "batch-out-of-range",
                    format!("batch {k} lists task {t}, which does not exist"),
                ));
                continue;
            }
            if seen[t as usize] {
                report.push(Diagnostic::error(
                    "batch-duplicate",
                    format!("task {t} appears in more than one batch (again in batch {k})"),
                ));
            }
            seen[t as usize] = true;
            in_batch[t as usize] = true;
        }
        check_independent_set(
            batch,
            &in_batch,
            conflicts,
            "batch-conflict",
            &format!("batch {k}"),
            &mut report,
        );
        for &t in batch {
            if (t as usize) < n {
                in_batch[t as usize] = false;
            }
        }
    }
    for (t, &covered) in seen.iter().enumerate() {
        if !covered {
            report.push(Diagnostic::error(
                "batch-missing-task",
                format!("task {t} is in no batch"),
            ));
        }
    }
    report
}

/// Reports every conflicting pair inside `members` (membership given by the
/// `included` bitmap) once, as `rule`.
fn check_independent_set(
    members: &[u32],
    included: &[bool],
    conflicts: &ConflictGraph,
    rule: &'static str,
    what: &str,
    report: &mut ValidationReport,
) {
    for &a in members {
        if (a as usize) >= included.len() {
            continue;
        }
        for &b in conflicts.neighbors(a) {
            if b > a && included[b as usize] {
                report.push(
                    Diagnostic::error(
                        rule,
                        format!("{what} contains the conflicting tasks {a} and {b}"),
                    )
                    .with_tasks(a, b)
                    .with_witness(vec![a, b]),
                );
            }
        }
    }
}

/// Kahn peeling over the view. Returns the execution frontiers; if peeling
/// stalls before covering every task, pushes a `dependency-cycle` error
/// carrying a minimal witness cycle.
fn kahn_levels(view: &ScheduleView, report: &mut ValidationReport) -> Vec<Vec<u32>> {
    let n = view.task_count();
    let mut in_deg = vec![0u32; n];
    for t in 0..n as u32 {
        for &s in view.successors(t) {
            if (s as usize) < n {
                in_deg[s as usize] += 1;
            }
        }
    }
    let mut frontier: Vec<u32> = (0..n as u32).filter(|&t| in_deg[t as usize] == 0).collect();
    let mut levels = Vec::new();
    let mut peeled = 0usize;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &t in &frontier {
            for &s in view.successors(t) {
                if (s as usize) >= n {
                    continue;
                }
                in_deg[s as usize] -= 1;
                if in_deg[s as usize] == 0 {
                    next.push(s);
                }
            }
        }
        peeled += frontier.len();
        next.sort_unstable();
        levels.push(std::mem::replace(&mut frontier, next));
    }
    if peeled < n {
        let alive: Vec<bool> = in_deg.iter().map(|&d| d > 0).collect();
        let witness = find_cycle(view, &alive);
        let pair = match witness.as_slice() {
            [a, .., b] => Some((*a, *b)),
            _ => None,
        };
        let mut d = Diagnostic::error(
            "dependency-cycle",
            format!(
                "no topological order exists: {} task(s) are stuck on a cycle",
                n - peeled
            ),
        )
        .with_witness(witness);
        if let Some((a, b)) = pair {
            d = d.with_tasks(a, b);
        }
        report.push(d);
    }
    levels
}

/// Finds one cycle among the `alive` tasks (every alive task lies on or
/// leads into a cycle, so a DFS from any of them must close one). Returns
/// the cycle as a path `v -> ... -> v`.
fn find_cycle(view: &ScheduleView, alive: &[bool]) -> Vec<u32> {
    let n = view.task_count();
    // 0 = white, 1 = on the current DFS path, 2 = finished.
    let mut color = vec![0u8; n];
    for start in 0..n as u32 {
        if !alive[start as usize] || color[start as usize] != 0 {
            continue;
        }
        // Iterative DFS keeping the current path for witness extraction.
        let mut path: Vec<u32> = vec![start];
        let mut iter_stack: Vec<usize> = vec![0];
        color[start as usize] = 1;
        while let Some(&v) = path.last() {
            let i = *iter_stack.last().unwrap_or(&0);
            let succs = view.successors(v);
            if i < succs.len() {
                *iter_stack.last_mut().expect("in sync with path") += 1;
                let s = succs[i];
                if (s as usize) >= n || !alive[s as usize] {
                    continue;
                }
                match color[s as usize] {
                    0 => {
                        color[s as usize] = 1;
                        path.push(s);
                        iter_stack.push(0);
                    }
                    1 => {
                        // Found: the cycle is the path suffix from s.
                        let from = path.iter().position(|&p| p == s).unwrap_or(0);
                        let mut cycle: Vec<u32> = path[from..].to_vec();
                        cycle.push(s);
                        return cycle;
                    }
                    _ => {}
                }
            } else {
                color[v as usize] = 2;
                path.pop();
                iter_stack.pop();
            }
        }
    }
    Vec::new()
}

/// Independent recomputation of total work and critical-path span (reverse
/// topological longest path over the *schedule's* claimed order).
fn recompute_work_and_span(schedule: &Schedule, costs: &[f64]) -> (f64, f64) {
    let work: f64 = costs.iter().sum();
    let order = schedule.topo_order();
    // Forward longest-path relaxation in topological order: finish[t] is
    // the earliest time t can complete on an ideal machine.
    let mut finish: Vec<f64> = costs.to_vec();
    for &t in &order {
        let end = finish[t as usize];
        for &s in schedule.successors(t) {
            let candidate = end + costs[s as usize];
            if candidate > finish[s as usize] {
                finish[s as usize] = candidate;
            }
        }
    }
    let span = finish.into_iter().fold(0.0, f64::max);
    (work, span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_grid::{Point2, Rect};

    fn rect(x0: u16, y0: u16, x1: u16, y1: u16) -> Rect {
        Rect::new(Point2::new(x0, y0), Point2::new(x1, y1))
    }

    fn fixture() -> (Vec<Rect>, ConflictGraph, Schedule) {
        // 0 and 2 independent (root batch); 1 conflicts with both; 3 is a
        // free-standing task; 4 conflicts with 3 only.
        let boxes = vec![
            rect(0, 0, 4, 4),
            rect(3, 3, 8, 8),
            rect(7, 7, 9, 9),
            rect(20, 0, 22, 2),
            rect(21, 1, 24, 4),
        ];
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let order: Vec<u32> = (0..boxes.len() as u32).collect();
        let schedule = Schedule::build(&order, &conflicts);
        (boxes, conflicts, schedule)
    }

    #[test]
    fn built_schedules_validate_clean() {
        let (_, conflicts, schedule) = fixture();
        let report = validate_schedule(&schedule, &conflicts);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.tasks_checked, 5);
        assert_eq!(report.conflict_edges_checked, 3);
    }

    #[test]
    fn empty_schedule_validates_clean() {
        let conflicts = ConflictGraph::from_bounding_boxes(&[]);
        let schedule = Schedule::build(&[], &conflicts);
        assert!(validate_schedule(&schedule, &conflicts).is_clean());
    }

    #[test]
    fn reversed_conflict_edge_is_rejected() {
        let (_, conflicts, schedule) = fixture();
        // Edge 3 -> 4 is an isolated pair: reversing it keeps the graph
        // acyclic, so only the priority rule can catch it.
        let mut view = ScheduleView::from_schedule(&schedule);
        assert!(view.reverse_edge(3, 4));
        let report = validate_view(&view, &conflicts);
        assert!(!report.is_clean());
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == "edge-against-priority" && d.tasks == Some((4, 3))),
            "{report}"
        );
    }

    #[test]
    fn reversal_closing_a_cycle_yields_a_witness_path() {
        // Chain 0 -> 1 -> 2 (clique): reversing 0 -> 1 leaves 1 -> 2 and
        // 0 -> 2 and adds 1 -> 0? No — reverse 0 -> 2 so 1 -> 2 -> 0 with
        // 0 -> 1 closes the 3-cycle 0 -> 1 -> 2 -> 0.
        let boxes = vec![rect(0, 0, 9, 9), rect(1, 1, 8, 8), rect(2, 2, 7, 7)];
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let schedule = Schedule::build(&[0, 1, 2], &conflicts);
        let mut view = ScheduleView::from_schedule(&schedule);
        assert!(view.reverse_edge(0, 2));
        let report = validate_view(&view, &conflicts);
        let cycle = report
            .diagnostics
            .iter()
            .find(|d| d.rule == "dependency-cycle")
            .expect("cycle detected");
        assert!(cycle.witness.len() >= 4, "witness: {:?}", cycle.witness);
        assert_eq!(cycle.witness.first(), cycle.witness.last());
        // Each witness hop is a real edge of the (mutated) view.
        for pair in cycle.witness.windows(2) {
            assert!(view.has_edge(pair[0], pair[1]), "{:?}", cycle.witness);
        }
    }

    #[test]
    fn dropped_conflict_edge_is_rejected_as_unoriented_and_frontier_merge() {
        let (_, conflicts, schedule) = fixture();
        let mut view = ScheduleView::from_schedule(&schedule);
        assert!(view.drop_edge(0, 1));
        let report = validate_view(&view, &conflicts);
        assert!(!report.is_clean());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "conflict-edge-unoriented" && d.tasks == Some((0, 1))));
    }

    #[test]
    fn conflicting_task_forced_into_root_batch_is_rejected() {
        let (_, conflicts, schedule) = fixture();
        let mut view = ScheduleView::from_schedule(&schedule);
        view.push_root(1); // conflicts with root tasks 0 and 2
        let report = validate_view(&view, &conflicts);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "root-batch-conflict"));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "root-has-predecessors"));
    }

    #[test]
    fn batches_from_extract_batches_validate_clean() {
        let (boxes, conflicts, _) = fixture();
        let order: Vec<u32> = (0..boxes.len() as u32).collect();
        let batches = fastgr_taskgraph::extract_batches(&order, &conflicts);
        assert!(validate_batches(&batches, &conflicts).is_clean());
    }

    #[test]
    fn merged_conflicting_batches_are_rejected() {
        let (boxes, conflicts, _) = fixture();
        let order: Vec<u32> = (0..boxes.len() as u32).collect();
        let mut batches = fastgr_taskgraph::extract_batches(&order, &conflicts);
        assert!(batches.len() >= 2, "fixture produces multiple batches");
        // Merge the second batch into the first: tasks that were split
        // *because* they conflict now share a batch.
        let merged = batches.remove(1);
        batches[0].extend(merged);
        let report = validate_batches(&batches, &conflicts);
        assert!(!report.is_clean());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "batch-conflict"));
    }

    #[test]
    fn incomplete_batch_cover_is_rejected() {
        let (_, conflicts, _) = fixture();
        let batches = vec![vec![0, 2], vec![1, 1], vec![3]]; // 4 missing, 1 duplicated
        let report = validate_batches(&batches, &conflicts);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "batch-duplicate"));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "batch-missing-task"));
    }

    #[test]
    fn task_count_mismatch_short_circuits() {
        let (_, conflicts, _) = fixture();
        let view = ScheduleView {
            successors: vec![Vec::new(); 2],
            root_batch: vec![0, 1],
            priority: vec![0, 1],
        };
        let report = validate_view(&view, &conflicts);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule, "task-count-mismatch");
    }
}
