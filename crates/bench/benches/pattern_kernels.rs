//! Micro-benchmarks of the pattern-routing kernels: the L-shape flow vs
//! the hybrid flow, on two-pin nets of growing size. The absolute host
//! times here are the *sequential scalar* cost — the quantity the paper's
//! GPU kernels divide by.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fastgr_core::{PatternDp, PatternMode, SelectionThresholds};
use fastgr_design::{Net, NetId, Pin};
use fastgr_grid::{CostParams, CostProber, GridGraph, Point2};
use fastgr_steiner::SteinerBuilder;

fn graph(side: u16, layers: u8) -> GridGraph {
    let mut g = GridGraph::new(side, side, layers, CostParams::default()).expect("valid");
    g.fill_capacity(8.0);
    g
}

fn two_pin_net(span: u16) -> Net {
    Net::new(
        NetId(0),
        "bench",
        vec![
            Pin::new(Point2::new(1, 1), 0),
            Pin::new(Point2::new(span, span / 2), 0),
        ],
    )
}

fn bench_kernels(c: &mut Criterion) {
    let g = graph(128, 10);
    let prober = CostProber::build(&g);
    let mut group = c.benchmark_group("pattern_kernels");
    for span in [8u16, 24, 48, 96] {
        let tree = SteinerBuilder::new().build(&two_pin_net(span));
        // Probed: costs are O(1) prefix differences against the prober
        // built once per grid. Direct: the same quantised
        // cost domain summed edge by edge — the O(span) baseline the
        // prober removes. Identical routes, different work.
        group.bench_with_input(BenchmarkId::new("l_shape", span), &span, |b, _| {
            let dp = PatternDp::with_prober(&g, PatternMode::LShape, &prober);
            b.iter(|| black_box(dp.route_net(&tree)));
        });
        group.bench_with_input(BenchmarkId::new("l_shape_direct", span), &span, |b, _| {
            let dp = PatternDp::direct(&g, PatternMode::LShape);
            b.iter(|| black_box(dp.route_net(&tree)));
        });
        group.bench_with_input(BenchmarkId::new("hybrid", span), &span, |b, _| {
            let dp = PatternDp::with_prober(&g, PatternMode::HybridAll, &prober);
            b.iter(|| black_box(dp.route_net(&tree)));
        });
        group.bench_with_input(BenchmarkId::new("hybrid_direct", span), &span, |b, _| {
            let dp = PatternDp::direct(&g, PatternMode::HybridAll);
            b.iter(|| black_box(dp.route_net(&tree)));
        });
        group.bench_with_input(BenchmarkId::new("z_shape", span), &span, |b, _| {
            let dp = PatternDp::with_prober(&g, PatternMode::ZShape, &prober);
            b.iter(|| black_box(dp.route_net(&tree)));
        });
    }
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    // The selection technique's effect on a single medium vs large net.
    let g = graph(128, 10);
    let prober = CostProber::build(&g);
    let mut group = c.benchmark_group("selection");
    let sel = SelectionThresholds::new(10, 50);
    for (label, span) in [("small", 6u16), ("medium", 30), ("large", 100)] {
        let tree = SteinerBuilder::new().build(&two_pin_net(span));
        group.bench_function(BenchmarkId::new("hybrid_selected", label), |b| {
            let dp = PatternDp::with_prober(&g, PatternMode::Hybrid(sel), &prober);
            b.iter(|| black_box(dp.route_net(&tree)));
        });
    }
    group.finish();
}

fn bench_multi_pin(c: &mut Criterion) {
    let g = graph(96, 10);
    let prober = CostProber::build(&g);
    let mut group = c.benchmark_group("multi_pin_dp");
    for pins in [3usize, 8, 16] {
        let net = Net::new(
            NetId(0),
            "bench",
            (0..pins)
                .map(|i| {
                    let t = i as u16;
                    Pin::new(Point2::new((t * 37) % 90 + 1, (t * 53) % 90 + 1), 0)
                })
                .collect(),
        );
        let tree = SteinerBuilder::new().build(&net);
        group.bench_with_input(BenchmarkId::new("l_shape", pins), &pins, |b, _| {
            let dp = PatternDp::with_prober(&g, PatternMode::LShape, &prober);
            b.iter(|| black_box(dp.route_net(&tree)));
        });
    }
    group.finish();
}

fn bench_parallel_launch(c: &mut Criterion) {
    // One simulated-device launch routing a conflict-free batch of 64
    // nets, serial host execution vs the worker pool. The modelled device
    // time is identical in both; only wall-clock differs.
    use fastgr_gpu::{Device, DeviceConfig};

    let g = graph(96, 10);
    let prober = CostProber::build(&g);
    let trees: Vec<_> = (0..64u16)
        .map(|i| {
            let net = Net::new(
                NetId(u32::from(i)),
                "bench",
                vec![
                    Pin::new(Point2::new((i * 31) % 90 + 1, (i * 17) % 90 + 1), 0),
                    Pin::new(Point2::new((i * 53) % 90 + 1, (i * 41) % 90 + 1), 0),
                ],
            );
            SteinerBuilder::new().build(&net)
        })
        .collect();
    let mut group = c.benchmark_group("device_launch");
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("hybrid_batch64", workers),
            &workers,
            |b, &w| {
                let dp = PatternDp::with_prober(&g, PatternMode::HybridAll, &prober);
                let mut device = Device::new(DeviceConfig {
                    host_workers: w,
                    ..DeviceConfig::rtx3090_like()
                });
                b.iter(|| {
                    device.launch("pattern", trees.len(), |t| {
                        black_box(dp.route_net(&trees[t]).expect("routable")).profile
                    })
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_selection,
    bench_multi_pin,
    bench_parallel_launch
);
criterion_main!(benches);
