//! End-to-end integration tests: the full FastGR flow across every crate.

use fastgr::core::{Router, RouterConfig};
use fastgr::design::{Generator, GeneratorParams};
use fastgr::grid::CostParams;

fn congested_design(seed: u64) -> fastgr::design::Design {
    Generator::new(GeneratorParams {
        name: format!("e2e-{seed}"),
        width: 24,
        height: 24,
        layers: 6,
        num_nets: 320,
        capacity: 3.0,
        hotspots: 3,
        hotspot_affinity: 0.5,
        blockages: 2,
        seed,
    })
    .generate()
}

#[test]
fn every_preset_routes_every_net_connectedly() {
    let design = congested_design(1);
    for config in [
        RouterConfig::cugr(),
        RouterConfig::fastgr_l(),
        RouterConfig::fastgr_h(),
        RouterConfig::fastgr_h_no_selection(),
    ] {
        let outcome = Router::new(config).run(&design).expect("routable");
        assert_eq!(outcome.routes.len(), design.nets().len());
        for (net, route) in design.nets().iter().zip(&outcome.routes) {
            assert!(route.is_connected(), "net {} disconnected", net.name());
            let pins = net.distinct_positions();
            if pins.len() > 1 {
                let touched = route.touched_points();
                for pin in pins {
                    assert!(
                        touched.contains(&pin.on_layer(0)),
                        "net {} misses pin {pin}",
                        net.name()
                    );
                }
            }
        }
    }
}

#[test]
fn committed_demand_matches_stored_routes() {
    let design = congested_design(2);
    let outcome = Router::new(RouterConfig::fastgr_l())
        .run(&design)
        .expect("routable");
    // Recommit all routes onto a fresh graph: identical congestion report.
    let graph = design.build_graph(CostParams::default()).expect("valid");
    for route in &outcome.routes {
        graph.commit(route).expect("valid route");
    }
    let fresh = graph.report();
    assert_eq!(fresh.total_wire_demand, outcome.report.total_wire_demand);
    assert_eq!(fresh.total_via_demand, outcome.report.total_via_demand);
    assert_eq!(fresh.overflow, outcome.report.overflow);
    // And the metrics derive from the same numbers.
    assert_eq!(outcome.metrics.shorts, fresh.shorts());
}

#[test]
fn quality_metrics_are_internally_consistent() {
    let design = congested_design(3);
    let outcome = Router::new(RouterConfig::fastgr_h())
        .run(&design)
        .expect("routable");
    let wl: u64 = outcome.routes.iter().map(|r| r.wirelength()).sum();
    let vias: u64 = outcome.routes.iter().map(|r| r.via_count()).sum();
    assert_eq!(outcome.metrics.wirelength, wl);
    assert_eq!(outcome.metrics.vias, vias);
    let expect = 0.5 * wl as f64 + 4.0 * vias as f64 + 500.0 * outcome.metrics.shorts;
    assert!((outcome.metrics.score() - expect).abs() < 1e-9);
}

#[test]
fn whole_flow_is_deterministic() {
    let design = congested_design(4);
    let a = Router::new(RouterConfig::fastgr_h())
        .run(&design)
        .expect("routable");
    let b = Router::new(RouterConfig::fastgr_h())
        .run(&design)
        .expect("routable");
    assert_eq!(a.routes, b.routes);
    assert_eq!(a.trace.nets_ripped(), b.trace.nets_ripped());
    assert_eq!(
        a.trace.deterministic_signature(),
        b.trace.deterministic_signature()
    );
    assert_eq!(a.metrics.shorts, b.metrics.shorts);
}

#[test]
fn rrr_never_worsens_overflow() {
    let design = congested_design(5);
    let pattern_only = RouterConfig {
        rrr_iterations: 0,
        ..RouterConfig::cugr()
    };
    let rough = Router::new(pattern_only).run(&design).expect("routable");
    let refined = Router::new(RouterConfig::cugr())
        .run(&design)
        .expect("routable");
    assert!(refined.metrics.shorts <= rough.metrics.shorts);
}

#[test]
fn guides_cover_pins_for_all_presets() {
    let design = congested_design(6);
    for config in [
        RouterConfig::cugr(),
        RouterConfig::fastgr_l(),
        RouterConfig::fastgr_h(),
    ] {
        let outcome = Router::new(config).run(&design).expect("routable");
        assert!(outcome.guides.covers_pins(&design));
        assert_eq!(outcome.guides.net_count(), design.nets().len());
    }
}

#[test]
fn suite_benchmark_routes_end_to_end() {
    // The smallest suite benchmark, full flow, FastGR_L.
    let spec = fastgr::design::BenchmarkSpec::find("s18t5").expect("known");
    let design = spec.generate();
    let outcome = Router::new(RouterConfig::fastgr_l())
        .run(&design)
        .expect("routable");
    assert_eq!(outcome.routes.len(), 3200);
    assert!(outcome.metrics.wirelength > 10_000);
    assert!(outcome.guides.covers_pins(&design));
}

#[test]
fn imported_ispd_design_routes_end_to_end() {
    // A miniature ISPD2008-format benchmark, imported and routed fully.
    let text = "grid 12 12 4\n\
        vertical capacity 0 8 0 8\n\
        horizontal capacity 8 0 8 0\n\
        minimum width 1 1 1 1\n\
        minimum spacing 1 1 1 1\n\
        via spacing 1 1 1 1\n\
        0 0 10 10\n\
        num net 3\n\
        a 0 2 1\n5 5 1\n105 85 1\n\
        b 1 3 1\n15 15 1\n95 15 1\n55 105 1\n\
        c 2 2 1\n25 95 1\n85 25 1\n\
        0\n";
    let design = fastgr::design::Design::from_ispd2008("mini", text).expect("valid ispd text");
    assert_eq!(design.layers(), 5);
    let outcome = Router::new(RouterConfig::fastgr_l())
        .run(&design)
        .expect("routable");
    assert_eq!(outcome.routes.len(), 3);
    for route in &outcome.routes {
        assert!(route.is_connected());
    }
    assert_eq!(outcome.metrics.shorts, 0.0);
}
