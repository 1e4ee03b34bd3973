//! Integration tests of the beyond-the-paper extensions: negotiated
//! congestion, congestion-aware planning, per-layer tallies and RUDY
//! estimates.

use fastgr::core::{Router, RouterConfig};
use fastgr::design::{Generator, GeneratorParams};
use fastgr::grid::CostParams;

fn congested_design(seed: u64) -> fastgr::design::Design {
    Generator::new(GeneratorParams {
        name: format!("ext-{seed}"),
        width: 24,
        height: 24,
        layers: 6,
        num_nets: 340,
        capacity: 3.0,
        hotspots: 3,
        hotspot_affinity: 0.55,
        blockages: 2,
        seed,
    })
    .generate()
}

#[test]
fn history_cost_reduces_shorts_with_extra_iterations() {
    let design = congested_design(41);
    let plain = Router::new(RouterConfig::fastgr_l())
        .run(&design)
        .expect("ok");
    let with_history = RouterConfig {
        history_increment: 4.0,
        rrr_iterations: 8,
        ..RouterConfig::fastgr_l()
    };
    let negotiated = Router::new(with_history).run(&design).expect("ok");
    assert!(
        negotiated.metrics.shorts <= plain.metrics.shorts,
        "negotiation must not worsen shorts: {} vs {}",
        negotiated.metrics.shorts,
        plain.metrics.shorts
    );
}

#[test]
fn history_cost_preserves_invariants() {
    let design = congested_design(42);
    let config = RouterConfig {
        history_increment: 2.0,
        ..RouterConfig::fastgr_l()
    };
    let outcome = Router::new(config).run(&design).expect("ok");
    for route in &outcome.routes {
        assert!(route.is_connected());
    }
    // Shorts derive from demand vs capacity only — history must not leak
    // into the congestion report.
    let graph = design
        .build_graph(fastgr::grid::CostParams::default())
        .expect("valid");
    for route in &outcome.routes {
        graph.commit(route).expect("valid");
    }
    assert_eq!(graph.report().overflow, outcome.report.overflow);
}

#[test]
fn congestion_aware_planning_routes_cleanly() {
    let design = congested_design(43);
    let config = RouterConfig {
        congestion_aware_planning: true,
        ..RouterConfig::fastgr_l()
    };
    let outcome = Router::new(config).run(&design).expect("ok");
    assert!(outcome.guides.covers_pins(&design));
    for (net, route) in design.nets().iter().zip(&outcome.routes) {
        assert!(route.is_connected(), "net {} broken", net.name());
    }
    // Deterministic like every other mode.
    let again = Router::new(config).run(&design).expect("ok");
    assert_eq!(outcome.routes, again.routes);
}

#[test]
fn per_layer_tallies_of_a_routed_design_match_the_metrics() {
    let design = congested_design(45);
    let outcome = Router::new(RouterConfig::fastgr_h())
        .run(&design)
        .expect("ok");
    let layers = design.layers() as usize;
    // Wirelength per layer, and single vias per layer boundary `l -> l + 1`.
    let mut wire = vec![0u64; layers];
    let mut vias = vec![0u64; layers - 1];
    for route in &outcome.routes {
        for s in route.segments() {
            wire[s.layer as usize] += u64::from(s.length());
        }
        for v in route.vias() {
            for boundary in v.lo..v.hi {
                vias[boundary as usize] += 1;
            }
        }
    }
    assert_eq!(wire.iter().sum::<u64>(), outcome.metrics.wirelength);
    assert_eq!(vias.iter().sum::<u64>(), outcome.metrics.vias);
    assert_eq!(wire[0], 0, "pin layer carries no wire");
    // Pin access means the lowest boundary carries the most vias.
    assert!(vias[0] >= vias[layers - 2]);
}

#[test]
fn rudy_density_is_higher_on_the_pattern_stage_hot_cells() {
    let design = congested_design(46);
    let rudy = fastgr::core::rudy_map(&design);
    // The pattern stage's congestion picture: a run without rip-up and
    // reroute, its routes replayed onto a fresh graph.
    let config = RouterConfig {
        rrr_iterations: 0,
        ..RouterConfig::cugr()
    };
    let outcome = Router::new(config).run(&design).expect("ok");
    let graph = design.build_graph(CostParams::default()).expect("ok");
    for route in &outcome.routes {
        graph.commit(route).expect("router routes are valid");
    }
    let heatmap = graph.congestion_heatmap();
    assert_eq!(heatmap.len(), rudy.len());
    // Correlation check: the average RUDY density over the routed hot
    // cells must exceed the global average (the estimators agree on where
    // the action is).
    let global_avg: f64 = rudy.iter().sum::<f64>() / rudy.len() as f64;
    let hot: Vec<usize> = heatmap
        .iter()
        .enumerate()
        .filter(|(_, &u)| u > 0.9)
        .map(|(i, _)| i)
        .collect();
    assert!(!hot.is_empty(), "expected some hot cells");
    let hot_avg: f64 = hot.iter().map(|&i| rudy[i]).sum::<f64>() / hot.len() as f64;
    assert!(
        hot_avg > global_avg,
        "hot-cell RUDY {hot_avg:.3} should exceed global {global_avg:.3}"
    );
}
