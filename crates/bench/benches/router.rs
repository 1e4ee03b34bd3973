//! End-to-end router benchmarks: the three presets on a small congested
//! design, plus the pattern-stage host cost in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fastgr_core::{PatternEngine, PatternMode, PatternStage, Router, RouterConfig, SortingScheme};
use fastgr_design::{Design, Generator, GeneratorParams};
use fastgr_grid::CostParams;

fn small_congested() -> Design {
    Generator::new(GeneratorParams {
        name: "bench-e2e".into(),
        width: 24,
        height: 24,
        layers: 6,
        num_nets: 300,
        capacity: 3.0,
        hotspots: 3,
        hotspot_affinity: 0.5,
        blockages: 2,
        seed: 99,
    })
    .generate()
}

fn bench_presets(c: &mut Criterion) {
    let design = small_congested();
    let mut group = c.benchmark_group("router_presets");
    group.sample_size(10);
    for (label, config) in [
        ("cugr", RouterConfig::cugr()),
        ("fastgr_l", RouterConfig::fastgr_l()),
        ("fastgr_h", RouterConfig::fastgr_h()),
    ] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| black_box(Router::new(config).run(&design).expect("routable")));
        });
    }
    group.finish();
}

fn bench_host_pattern_stage(c: &mut Criterion) {
    let design = small_congested();
    let mut group = c.benchmark_group("pattern_stage_host");
    group.sample_size(20);
    for (label, mode) in [
        ("l_shape", PatternMode::LShape),
        ("hybrid_all", PatternMode::HybridAll),
    ] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut graph = design.build_graph(CostParams::default()).expect("valid");
                let stage = PatternStage {
                    mode,
                    engine: PatternEngine::SequentialCpu,
                    sorting: SortingScheme::HpwlAscending,
                    steiner_passes: 4,
                    congestion_aware_planning: false,
                    cost_probing: true,
                    validate: false,
                };
                black_box(stage.run(&design, &mut graph).expect("routable"))
            });
        });
    }
    group.finish();
}

fn bench_congestion_estimate(c: &mut Criterion) {
    let design = small_congested();
    c.bench_function("estimate_congestion", |b| {
        b.iter(|| black_box(fastgr_core::estimate_congestion(&design).expect("routable")));
    });
}

criterion_group!(
    benches,
    bench_presets,
    bench_host_pattern_stage,
    bench_congestion_estimate
);
criterion_main!(benches);
