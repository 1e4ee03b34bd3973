//! Micro-benchmarks of the task graph scheduler pipeline: conflict graph
//! construction, Algorithm 1 batch extraction, schedule building, and the
//! executor's dependency-counting overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fastgr_design::SplitMix64;
use fastgr_grid::{Point2, Rect};
use fastgr_taskgraph::{extract_batches, ConflictGraph, Executor, Schedule};

fn random_boxes(n: usize, side: u16, extent: u16, seed: u64) -> Vec<Rect> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let x = rng.next_below((side - extent) as u64) as u16;
            let y = rng.next_below((side - extent) as u64) as u16;
            let w = 1 + rng.next_below(extent as u64) as u16;
            let h = 1 + rng.next_below(extent as u64) as u16;
            Rect::new(Point2::new(x, y), Point2::new(x + w, y + h))
        })
        .collect()
}

fn bench_conflict_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_graph");
    // The last case is full `s19t9m` scale: 22,400 boxes spanning 2–9
    // G-cells on its 140×140 grid, about a million conflict edges.
    for (n, extent) in [(500usize, 6u16), (2000, 6), (8000, 6), (22_400, 8)] {
        let boxes = random_boxes(n, 140, extent, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(ConflictGraph::from_bounding_boxes(&boxes)));
        });
    }
    group.finish();
}

fn bench_batch_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_extraction");
    for n in [500usize, 2000, 8000] {
        let boxes = random_boxes(n, 140, 6, 42);
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let order: Vec<u32> = (0..n as u32).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(extract_batches(&order, &conflicts)));
        });
    }
    group.finish();
}

fn bench_schedule_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_build");
    for n in [500usize, 2000, 8000] {
        let boxes = random_boxes(n, 140, 6, 42);
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let order: Vec<u32> = (0..n as u32).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(Schedule::build(&order, &conflicts)));
        });
    }
    group.finish();
}

fn bench_executor_overhead(c: &mut Criterion) {
    // Per-task scheduling overhead with trivial task bodies.
    let boxes = random_boxes(2000, 140, 6, 42);
    let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
    let order: Vec<u32> = (0..2000).collect();
    let schedule = Schedule::build(&order, &conflicts);
    let mut group = c.benchmark_group("executor");
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("noop_tasks", workers),
            &workers,
            |b, &w| {
                let executor = Executor::new(w);
                b.iter(|| {
                    executor.run(
                        &schedule,
                        |t| {
                            black_box(t);
                        },
                        &(),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_conflict_graph,
    bench_batch_extraction,
    bench_schedule_build,
    bench_executor_overhead
);
criterion_main!(benches);
