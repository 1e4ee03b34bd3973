//! Property-based integration tests of the scheduling pipeline against the
//! router's actual workloads.

use fastgr::design::{Generator, GeneratorParams};
use fastgr::grid::Rect;
use fastgr::taskgraph::{extract_batches, ConflictGraph, Executor, Schedule};
use proptest::prelude::*;

/// Conflict graph and order from a real design's net bounding boxes.
fn real_workload(seed: u64, nets: usize) -> (Vec<Rect>, ConflictGraph, Vec<u32>) {
    let design = Generator::new(GeneratorParams {
        num_nets: nets,
        seed,
        ..GeneratorParams::default()
    })
    .generate();
    let boxes: Vec<Rect> = design.nets().iter().map(|n| n.bounding_box()).collect();
    let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
    let order: Vec<u32> = (0..boxes.len() as u32).collect();
    (boxes, conflicts, order)
}

#[test]
fn batches_of_a_real_design_are_conflict_free() {
    let (_, conflicts, order) = real_workload(11, 400);
    let batches = extract_batches(&order, &conflicts);
    let total: usize = batches.iter().map(Vec::len).sum();
    assert_eq!(total, 400);
    for batch in &batches {
        for (i, &a) in batch.iter().enumerate() {
            for &b in &batch[i + 1..] {
                assert!(!conflicts.conflicts(a, b));
            }
        }
    }
}

#[test]
fn schedule_of_a_real_design_is_acyclic_and_complete() {
    let (_, conflicts, order) = real_workload(13, 400);
    let schedule = Schedule::build(&order, &conflicts);
    // Priorities strictly increase along dependencies.
    for t in 0..schedule.task_count() as u32 {
        for &s in schedule.successors(t) {
            assert!(schedule.priority(t) < schedule.priority(s));
        }
    }
    // Every conflict edge was oriented exactly once.
    let oriented: usize = (0..schedule.task_count() as u32)
        .map(|t| schedule.successors(t).len())
        .sum();
    assert_eq!(oriented, conflicts.edge_count());
}

#[test]
fn executor_respects_every_dependency_under_contention() {
    let (_, conflicts, order) = real_workload(17, 300);
    let schedule = Schedule::build(&order, &conflicts);
    // Record completion stamps; every successor must finish after all its
    // predecessors.
    let stamps: Vec<std::sync::atomic::AtomicU64> = (0..300)
        .map(|_| std::sync::atomic::AtomicU64::new(0))
        .collect();
    let counter = std::sync::atomic::AtomicU64::new(1);
    Executor::new(4).run(
        &schedule,
        |t, _| {
            let stamp = counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            stamps[t as usize].store(stamp, std::sync::atomic::Ordering::SeqCst);
        },
        &(),
    );
    for t in 0..300u32 {
        let own = stamps[t as usize].load(std::sync::atomic::Ordering::SeqCst);
        assert_ne!(own, 0, "task {t} never ran");
        for &s in schedule.successors(t) {
            let succ = stamps[s as usize].load(std::sync::atomic::Ordering::SeqCst);
            assert!(own < succ, "task {t} must complete before successor {s}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn work_span_bounds_hold_for_real_workloads(seed in 0u64..500) {
        let (_, conflicts, order) = real_workload(seed, 150);
        let schedule = Schedule::build(&order, &conflicts);
        let costs: Vec<f64> =
            (0..schedule.task_count()).map(|i| 0.5 + (i % 7) as f64).collect();
        let (work, span) = schedule.work_and_span(&costs);
        prop_assert!(span <= work + 1e-9);
        for w in [1usize, 4, 64] {
            let t = schedule.simulate_workers(&costs, w);
            // Greedy list scheduling obeys Graham's bound.
            prop_assert!(t + 1e-6 >= span.max(work / w as f64));
            prop_assert!(t <= work / w as f64 + span + 1e-6);
        }
    }

    #[test]
    fn executor_and_schedule_agree_on_clique_order(seed in 0u64..100) {
        // All tasks mutually conflicting: the executor must follow the
        // schedule's total order exactly.
        let boxes = vec![Rect::new(
            fastgr::grid::Point2::new(0, 0),
            fastgr::grid::Point2::new(9, 9),
        ); 12];
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let mut order: Vec<u32> = (0..12).collect();
        // An arbitrary seed-derived permutation as the "sorted order".
        let mut rng = fastgr::design::SplitMix64::new(seed);
        for i in (1..order.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let schedule = Schedule::build(&order, &conflicts);
        let log = std::sync::Mutex::new(Vec::new());
        Executor::new(3).run(&schedule, |t, _| log.lock().unwrap().push(t), &());
        let ran = log.lock().unwrap().clone();
        prop_assert_eq!(ran, order);
    }
}
