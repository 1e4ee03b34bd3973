//! Property, differential and mutation tests tying the analysis layer to
//! the real scheduler over the synthetic design suite.
//!
//! The acceptance bar: the swept conflict graph equals the all-pairs oracle
//! on real net boxes, first-fit batches equal Algorithm 1's on the suite's
//! nets and on RRR-style windows, the static validator and the race checker
//! pass clean on every `Schedule::build` output over design-suite nets, and
//! each deliberately corrupted schedule is rejected.

use fastgr_analysis::{
    validate_batches, validate_schedule, validate_view, RaceChecker, ScheduleView,
};
use fastgr_design::{BenchmarkSpec, Design, Generator, GeneratorParams};
use fastgr_grid::{Point2, Rect};
use fastgr_maze::MazeConfig;
use fastgr_taskgraph::{extract_batches, first_fit_batches, ConflictGraph, Executor, Schedule};
use fastgr_telemetry::WorkerHooks;
use proptest::prelude::*;

/// The nets' bounding boxes.
fn net_boxes(design: &Design) -> Vec<Rect> {
    design.nets().iter().map(|n| n.bounding_box()).collect()
}

/// Conflict graph + identity net order for a design, as the pattern stage
/// builds them (net bounding boxes, sorted net order).
fn conflicts_of(design: &Design) -> (ConflictGraph, Vec<u32>) {
    let bboxes = net_boxes(design);
    let order: Vec<u32> = (0..bboxes.len() as u32).collect();
    (ConflictGraph::from_bounding_boxes(&bboxes), order)
}

/// The design-suite nets every schedule-level test runs over: a few tiny
/// seeds plus two mid-size congested designs.
fn design_suite() -> Vec<Design> {
    let mut designs: Vec<Design> = [1u64, 7, 42]
        .iter()
        .map(|&s| Generator::tiny(s).generate())
        .collect();
    for (nets, seed) in [(200usize, 9u64), (400, 33)] {
        designs.push(
            Generator::new(GeneratorParams {
                name: format!("props-{nets}"),
                width: 32,
                height: 32,
                layers: 5,
                num_nets: nets,
                capacity: 4.0,
                hotspots: 3,
                hotspot_affinity: 0.4,
                blockages: 2,
                seed,
            })
            .generate(),
        );
    }
    designs
}

/// Differential check: the swept conflict graph equals the all-pairs
/// `from_bounding_boxes_naive` oracle on `boxes`.
fn assert_conflicts_match_naive(name: &str, boxes: &[Rect]) {
    assert!(
        ConflictGraph::from_bounding_boxes(boxes)
            == ConflictGraph::from_bounding_boxes_naive(boxes),
        "{name}: swept conflict graph of {} boxes differs from all-pairs",
        boxes.len()
    );
}

/// The full-size `s19t9m` design, the congested benchmark workload.
fn s19t9m() -> Design {
    BenchmarkSpec::find("s19t9m")
        .expect("suite benchmark s19t9m")
        .generate()
}

#[test]
fn conflict_graph_matches_naive_on_design_suite() {
    for design in design_suite() {
        assert_conflicts_match_naive(design.name(), &net_boxes(&design));
    }
}

/// The pattern stage's conflict boxes on a full-size design.
#[test]
fn conflict_graph_matches_naive_on_s19t9m_nets() {
    assert_conflicts_match_naive("s19t9m", &net_boxes(&s19t9m()));
}

/// The RRR stage's conflict boxes (maze windows) on a full-size design.
#[test]
fn conflict_graph_matches_naive_on_s19t9m_maze_windows() {
    let design = s19t9m();
    let maze = MazeConfig::default();
    let windows: Vec<Rect> = net_boxes(&design)
        .into_iter()
        .map(|b| maze.window(b, design.width(), design.height()))
        .collect();
    assert_conflicts_match_naive("s19t9m maze windows", &windows);
}

/// Net ids in ascending half-perimeter order, ties by id: the pattern
/// stage's default net order.
fn hpwl_order(boxes: &[Rect]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..boxes.len() as u32).collect();
    order.sort_by_key(|&i| {
        let b = &boxes[i as usize];
        (b.hi.x - b.lo.x + b.hi.y - b.lo.y, i)
    });
    order
}

/// Differential check: first fit over the G-cells gives Algorithm 1's
/// batches on the conflict graph of `boxes`.
fn assert_first_fit_matches_algorithm_1(
    name: &str,
    design: &Design,
    boxes: &[Rect],
    order: &[u32],
) {
    let expected = extract_batches(order, &ConflictGraph::from_bounding_boxes(boxes));
    let batches = first_fit_batches(order, boxes, design.width(), design.height());
    assert!(
        batches == expected,
        "{name}: first-fit batches of {} boxes differ from Algorithm 1",
        boxes.len()
    );
}

/// The pattern stage's batches on every suite netlist (each `m` variant
/// shares its base design's netlist).
#[test]
fn first_fit_batches_match_algorithm_1_on_suite_nets() {
    for spec in fastgr_design::suite() {
        if spec.is_m_variant() {
            continue;
        }
        let design = spec.generate();
        let boxes = net_boxes(&design);
        assert_first_fit_matches_algorithm_1(spec.name, &design, &boxes, &hpwl_order(&boxes));
    }
}

/// The batch-barrier RRR stage's batches on RRR-style tasks: the maze
/// windows of every fifth net of `s19t9m` in half-perimeter order (about
/// as many tasks as its first RRR iteration), in task order.
#[test]
fn first_fit_batches_match_algorithm_1_on_s19t9m_rrr_windows() {
    let design = s19t9m();
    let maze = MazeConfig::default();
    let boxes = net_boxes(&design);
    let windows: Vec<Rect> = hpwl_order(&boxes)
        .into_iter()
        .step_by(5)
        .map(|i| maze.window(boxes[i as usize], design.width(), design.height()))
        .collect();
    let order: Vec<u32> = (0..windows.len() as u32).collect();
    assert_first_fit_matches_algorithm_1("s19t9m rrr windows", &design, &windows, &order);
}

#[test]
fn every_design_suite_schedule_validates_clean() {
    for design in design_suite() {
        let (conflicts, order) = conflicts_of(&design);
        let schedule = Schedule::build(&order, &conflicts);
        let report = validate_schedule(&schedule, &conflicts);
        assert!(report.is_clean(), "{}: {report}", design.name());
        assert_eq!(report.tasks_checked, design.nets().len());

        let batches = extract_batches(&order, &conflicts);
        let report = validate_batches(&batches, &conflicts);
        assert!(report.is_clean(), "{}: {report}", design.name());
    }
}

#[test]
fn mutation_reversed_or_dropped_conflict_edge_is_always_rejected() {
    for design in design_suite() {
        let (conflicts, order) = conflicts_of(&design);
        let schedule = Schedule::build(&order, &conflicts);
        let Some((a, b)) = schedule.edges().next() else {
            panic!(
                "{}: design suite nets must conflict somewhere",
                design.name()
            );
        };
        let mut view = ScheduleView::from_schedule(&schedule);
        assert!(view.reverse_edge(a, b));
        let report = validate_view(&view, &conflicts);
        assert!(
            !report.is_clean(),
            "{}: reversed edge {a} -> {b} not caught",
            design.name()
        );

        // A dropped edge leaves the conflict unoriented: the two tasks
        // share an execution frontier.
        let mut view = ScheduleView::from_schedule(&schedule);
        assert!(view.drop_edge(a, b));
        let report = validate_view(&view, &conflicts);
        assert!(
            !report.is_clean(),
            "{}: dropped edge {a} -> {b} not caught",
            design.name()
        );
    }
}

#[test]
fn mutation_merged_conflicting_batches_are_always_rejected() {
    for design in design_suite() {
        let (conflicts, order) = conflicts_of(&design);
        let mut batches = extract_batches(&order, &conflicts);
        assert!(batches.len() >= 2, "{}: needs two batches", design.name());
        // The root batch is a *maximal* independent set: every task outside
        // it conflicts with at least one member, so merging any later batch
        // into it must trip the independence check.
        let merged = batches.remove(1);
        batches[0].extend(merged);
        let report = validate_batches(&batches, &conflicts);
        assert!(
            !report.is_clean(),
            "{}: merged conflicting batch not caught",
            design.name()
        );
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "batch-conflict"));
    }
}

#[test]
fn executor_runs_over_design_suite_are_race_free() {
    for design in design_suite() {
        let (conflicts, order) = conflicts_of(&design);
        let schedule = Schedule::build(&order, &conflicts);
        for workers in [1, 4] {
            let checker = RaceChecker::new(schedule.task_count());
            Executor::new(workers).run(&schedule, |_t, _| {}, &checker);
            let report = checker.report(&conflicts);
            assert!(
                report.is_clean(),
                "{} workers={workers}: {report}",
                design.name()
            );
        }
    }
}

#[test]
fn race_checker_flags_forced_unordered_conflicting_pair() {
    // Acceptance mutation: take a real conflicting pair from each design
    // and replay an execution where the two tasks ran on different workers
    // with no handoff — the checker must flag exactly that pair.
    for design in design_suite() {
        let (conflicts, _) = conflicts_of(&design);
        let (a, b) = (0..conflicts.task_count() as u32)
            .find_map(|t| {
                conflicts
                    .neighbors(t)
                    .first()
                    .map(|&n| (t.min(n), t.max(n)))
            })
            .expect("design suite nets conflict somewhere");
        let checker = RaceChecker::new(conflicts.task_count());
        // Every other task runs ordered on worker 0; a and b race on 1 and 2.
        for t in 0..conflicts.task_count() as u32 {
            if t == a || t == b {
                continue;
            }
            checker.on_start(t as usize, 0);
            checker.on_finish(t as usize, 0);
        }
        checker.on_start(a as usize, 1);
        checker.on_finish(a as usize, 1);
        checker.on_start(b as usize, 2);
        checker.on_finish(b as usize, 2);
        let report = checker.report(&conflicts);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == "task-race" && d.tasks == Some((a, b))),
            "{}: expected ({a}, {b}) flagged: {report}",
            design.name()
        );
    }
}

/// A cross of a wide and a tall box: the intersection's lower-left corner,
/// (10, 10), is neither box's `lo` corner, and the tall box arrives in the
/// sweep while the wide one is still active. The pair must be emitted once.
#[test]
fn conflict_of_a_cross_is_emitted_once() {
    let mut boxes = vec![
        Rect::new(Point2::new(0, 10), Point2::new(20, 12)),
        Rect::new(Point2::new(10, 0), Point2::new(12, 20)),
    ];
    boxes.extend((0..10).map(|k| Rect::new(Point2::new(30 + k, 30), Point2::new(30 + k, 30))));
    let graph = ConflictGraph::from_bounding_boxes(&boxes);
    assert_eq!(graph.neighbors(0), &[1]);
    assert_eq!(graph.neighbors(1), &[0]);
    assert_eq!(graph, ConflictGraph::from_bounding_boxes_naive(&boxes));
}

proptest! {
    /// Random rectangle sets: batches are always independent sets covering
    /// every task once, and the built schedule always validates clean.
    #[test]
    fn random_rectangles_always_validate(
        raw in proptest::collection::vec((0u16..30, 0u16..30, 0u16..12, 0u16..12), 0..60)
    ) {
        let boxes: Vec<Rect> = raw
            .iter()
            .map(|&(x, y, w, h)| Rect::new(Point2::new(x, y), Point2::new(x + w, y + h)))
            .collect();
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let order: Vec<u32> = (0..boxes.len() as u32).collect();

        let batches = extract_batches(&order, &conflicts);
        prop_assert!(validate_batches(&batches, &conflicts).is_clean());

        let schedule = Schedule::build(&order, &conflicts);
        let report = validate_schedule(&schedule, &conflicts);
        prop_assert!(report.is_clean(), "{}", report);
    }

    /// Differential: the swept conflict graph equals the naive all-pairs
    /// reference on random inputs. Coordinates up to ~300 and extents up
    /// to 40 give long active lists; `kind` mixes in point boxes (0) and
    /// exact duplicates of the previous box (1).
    #[test]
    fn swept_conflict_graph_matches_naive(
        raw in proptest::collection::vec(
            (0u16..300, 0u16..300, 0u16..=40, 0u16..=40, 0u8..6),
            0..80
        )
    ) {
        let mut boxes: Vec<Rect> = Vec::with_capacity(raw.len());
        for &(x, y, w, h, kind) in &raw {
            let b = match (kind, boxes.last()) {
                (0, _) => Rect::new(Point2::new(x, y), Point2::new(x, y)),
                (1, Some(&prev)) => prev,
                _ => Rect::new(Point2::new(x, y), Point2::new(x + w, y + h)),
            };
            boxes.push(b);
        }
        prop_assert_eq!(
            ConflictGraph::from_bounding_boxes(&boxes),
            ConflictGraph::from_bounding_boxes_naive(&boxes)
        );
    }

    /// Random single-edge reversals over random schedules are always
    /// rejected by the validator.
    #[test]
    fn random_edge_reversal_is_always_rejected(
        raw in proptest::collection::vec((0u16..20, 0u16..20, 2u16..10, 2u16..10), 2..30),
        pick in 0usize..1000
    ) {
        let boxes: Vec<Rect> = raw
            .iter()
            .map(|&(x, y, w, h)| Rect::new(Point2::new(x, y), Point2::new(x + w, y + h)))
            .collect();
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let order: Vec<u32> = (0..boxes.len() as u32).collect();
        let schedule = Schedule::build(&order, &conflicts);
        let edges: Vec<(u32, u32)> = schedule.edges().collect();
        if edges.is_empty() {
            return Ok(()); // nothing to mutate
        }
        let (a, b) = edges[pick % edges.len()];
        let mut view = ScheduleView::from_schedule(&schedule);
        prop_assert!(view.reverse_edge(a, b));
        prop_assert!(!validate_view(&view, &conflicts).is_clean());
    }
}
