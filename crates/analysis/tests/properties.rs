//! Property, differential and mutation tests tying the analysis layer to
//! the real scheduler over the synthetic design suite.
//!
//! The acceptance bar (ISSUE, PR 2): the static validator and the race
//! checker pass clean on every `Schedule::build` output over design-suite
//! nets, and each deliberately corrupted schedule is rejected.

use fastgr_analysis::{
    validate_batches, validate_schedule, validate_view, RaceChecker, ScheduleView,
};
use fastgr_design::{Design, Generator, GeneratorParams};
use fastgr_grid::{Point2, Rect};
use fastgr_taskgraph::{extract_batches, ConflictGraph, Executor, Schedule};
use fastgr_telemetry::WorkerHooks;
use proptest::prelude::*;

/// Conflict graph + identity net order for a design, as the pattern stage
/// builds them (net bounding boxes, sorted net order).
fn conflicts_of(design: &Design) -> (ConflictGraph, Vec<u32>) {
    let bboxes: Vec<Rect> = design.nets().iter().map(|n| n.bounding_box()).collect();
    let order: Vec<u32> = (0..bboxes.len() as u32).collect();
    (ConflictGraph::from_bounding_boxes(&bboxes), order)
}

/// The design-suite nets the mutation tests run over: a few tiny seeds
/// plus one mid-size congested design.
fn design_suite() -> Vec<Design> {
    let mut designs: Vec<Design> = [1u64, 7, 42]
        .iter()
        .map(|&s| Generator::tiny(s).generate())
        .collect();
    designs.push(
        Generator::new(GeneratorParams {
            name: "props-mid".to_owned(),
            width: 32,
            height: 32,
            layers: 5,
            num_nets: 200,
            capacity: 4.0,
            hotspots: 3,
            hotspot_affinity: 0.4,
            blockages: 2,
            seed: 9,
        })
        .generate(),
    );
    designs
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
fn mutation_reversed_conflict_edge_is_always_rejected() {
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
            Executor::new(workers).run(&schedule, |_t| {}, &checker);
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
    // Acceptance mutation: take a real conflicting pair from a design and
    // replay an execution where the two tasks ran on different workers
    // with no handoff — the checker must flag exactly that pair.
    let design = Generator::tiny(7).generate();
    let (conflicts, _) = conflicts_of(&design);
    let (a, b) = (0..conflicts.task_count() as u32)
        .find_map(|t| {
            conflicts
                .neighbors(t)
                .first()
                .map(|&n| (t.min(n), t.max(n)))
        })
        .expect("tiny designs have conflicting nets");
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
    let raced: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "task-race")
        .collect();
    assert!(
        raced.iter().any(|d| d.tasks == Some((a, b))),
        "expected ({a}, {b}) flagged: {report}"
    );
}

/// A cross of a wide and a tall box: the intersection's lower-left corner,
/// (10, 10), lies in a bucket that holds neither box's `lo` corner, so only
/// that bucket may emit the pair. Point boxes far away shrink the bucket side
/// to a few G-cells.
#[test]
fn conflict_owned_by_a_bucket_holding_neither_lo_corner() {
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

    /// Differential: the bucketised conflict graph equals the naive
    /// all-pairs reference on random inputs. Coordinates up to ~300 and
    /// extents up to 40 make pairs span several multi-cell buckets; `kind`
    /// mixes in point boxes (0) and exact duplicates of the previous box (1).
    #[test]
    fn bucketised_conflict_graph_matches_naive(
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
