//! Micro-benchmarks of the rip-up-and-reroute stage: strategy comparison
//! on a congested hotspot design, and the incremental overflow recheck
//! against the full rescan it replaces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fastgr_core::{
    PatternEngine, PatternMode, PatternStage, RrrStage, RrrStrategy, SortingScheme,
};
use fastgr_design::{Design, Generator, GeneratorParams};
use fastgr_grid::{CostParams, GridGraph, Route};
use fastgr_maze::MazeConfig;

fn congested() -> (Design, GridGraph, Vec<Route>) {
    let design = Generator::new(GeneratorParams {
        name: "rrr-bench".to_string(),
        width: 24,
        height: 24,
        layers: 5,
        num_nets: 360,
        capacity: 3.0,
        hotspots: 2,
        hotspot_affinity: 0.6,
        blockages: 2,
        seed: 5,
    })
    .generate();
    let mut graph = design.build_graph(CostParams::default()).expect("valid");
    let outcome = PatternStage {
        mode: PatternMode::LShape,
        engine: PatternEngine::SequentialCpu,
        sorting: SortingScheme::HpwlAscending,
        steiner_passes: 4,
        congestion_aware_planning: false,
        cost_probing: true,
        validate: false,
    }
    .run(&design, &mut graph)
    .expect("routable");
    (design, graph, outcome.routes)
}

fn bench_strategies(c: &mut Criterion) {
    let (design, graph, routes) = congested();
    let mut group = c.benchmark_group("rrr_strategy");
    group.sample_size(10);
    for (strategy, name) in [
        (RrrStrategy::TaskGraph, "task_graph"),
        (RrrStrategy::BatchBarrier, "batch_barrier"),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &strategy, |b, &s| {
            let stage = RrrStage {
                iterations: 2,
                strategy: s,
                sorting: SortingScheme::HpwlAscending,
                maze: MazeConfig::default(),
                workers: 4,
                history_increment: 0.0,
                validate: false,
            };
            b.iter(|| {
                let mut g = graph.clone();
                let mut r = routes.clone();
                black_box(stage.run(&design, &mut g, &mut r).expect("ok"));
            });
        });
    }
    group.finish();
}

fn bench_overflow_scan(c: &mut Criterion) {
    // The incremental recheck's two ingredients, measured against the full
    // rescan they replace: with nothing dirty, `route_touches_dirty`
    // rejects every route without walking its segments' demand.
    let (_, mut graph, routes) = congested();
    graph.clear_dirty();
    let mut group = c.benchmark_group("rrr_overflow_scan");
    group.bench_function("full_rescan", |b| {
        b.iter(|| {
            let n = routes
                .iter()
                .filter(|r| graph.route_has_overflow(r))
                .count();
            black_box(n)
        });
    });
    group.bench_function("dirty_filtered", |b| {
        b.iter(|| {
            let n = routes
                .iter()
                .filter(|r| graph.route_touches_dirty(r) && graph.route_has_overflow(r))
                .count();
            black_box(n)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_strategies, bench_overflow_scan);
criterion_main!(benches);
