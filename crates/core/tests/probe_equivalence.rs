//! Full-suite equivalence contract of the prefix-sum cost prober: the
//! pattern stage must emit byte-identical routes whether kernels probe
//! O(1) prefix differences or walk gcells directly, for every engine and
//! candidate-set mode — and, with probing on, byte-identical routes for
//! any host worker count. Both sides evaluate the same Q44.20 quantised
//! cost domain, so these are exact equality tests.

use fastgr_core::{PatternEngine, PatternMode, PatternStage, SelectionThresholds, SortingScheme};
use fastgr_design::{Design, Generator, GeneratorParams};
use fastgr_gpu::DeviceConfig;
use fastgr_grid::{CostParams, Route};

fn congested_design() -> Design {
    Generator::new(GeneratorParams {
        name: "probe-equivalence".into(),
        width: 24,
        height: 24,
        layers: 6,
        num_nets: 240,
        capacity: 4.0,
        hotspots: 2,
        hotspot_affinity: 0.5,
        blockages: 2,
        seed: 33,
    })
    .generate()
}

fn route_once(
    design: &Design,
    engine: PatternEngine,
    mode: PatternMode,
    cost_probing: bool,
) -> (Vec<Route>, f64) {
    let mut graph = design
        .build_graph(CostParams::default())
        .expect("suite designs build");
    let outcome = PatternStage {
        mode,
        engine,
        sorting: SortingScheme::HpwlAscending,
        steiner_passes: 4,
        congestion_aware_planning: false,
        cost_probing,
        validate: true,
    }
    .run(design, &mut graph)
    .expect("routable");
    (outcome.routes, graph.report().total_wire_demand)
}

/// Probed and direct cost evaluation agree bit-for-bit on every
/// engine × mode combination of the full suite.
#[test]
fn probed_routes_match_direct_routes_across_engines_and_modes() {
    let design = congested_design();
    let engines = [
        PatternEngine::SequentialCpu,
        PatternEngine::GpuFlow(DeviceConfig::rtx3090_like()),
    ];
    let modes = [
        PatternMode::LShape,
        PatternMode::ZShape,
        PatternMode::HybridAll,
        PatternMode::Hybrid(SelectionThresholds::default()),
    ];
    for engine in engines {
        for mode in modes {
            let (probed, probed_demand) = route_once(&design, engine, mode, true);
            let (direct, direct_demand) = route_once(&design, engine, mode, false);
            assert_eq!(
                probed, direct,
                "{engine:?} {mode:?}: probed and direct routes diverged"
            );
            assert_eq!(probed_demand, direct_demand);
        }
    }
}

/// With the prober on, routed outputs are byte-identical across host
/// worker counts (the parallel rebuild must not perturb results).
#[test]
fn probed_routes_identical_across_worker_counts() {
    let design = congested_design();
    let baseline = route_once(
        &design,
        PatternEngine::GpuFlow(DeviceConfig {
            host_workers: 1,
            ..DeviceConfig::rtx3090_like()
        }),
        PatternMode::HybridAll,
        true,
    );
    for workers in [2usize, 4] {
        let run = route_once(
            &design,
            PatternEngine::GpuFlow(DeviceConfig {
                host_workers: workers,
                ..DeviceConfig::rtx3090_like()
            }),
            PatternMode::HybridAll,
            true,
        );
        assert_eq!(
            baseline.0, run.0,
            "worker count {workers} changed the routed output"
        );
        assert_eq!(baseline.1, run.1);
    }
}
