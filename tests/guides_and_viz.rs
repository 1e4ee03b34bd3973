//! Integration tests for guide-file output and SVG rendering against real
//! router outcomes, and the congestion report an outcome carries.

use fastgr::core::{RouteGuides, Router, RouterConfig};
use fastgr::design::Generator;
use fastgr::grid::CostParams;
use fastgr::viz::SvgRenderer;

fn routed() -> (fastgr::design::Design, fastgr::core::RoutingOutcome) {
    let design = Generator::tiny(31).generate();
    let outcome = Router::new(RouterConfig::fastgr_h())
        .run(&design)
        .expect("routable");
    (design, outcome)
}

#[test]
fn guide_file_round_trips_through_text() {
    let (design, outcome) = routed();
    let text = outcome.guides.to_guide_text(&design);
    // Every net name appears exactly once as a block header.
    for net in design.nets() {
        assert!(
            text.contains(net.name()),
            "missing block for {}",
            net.name()
        );
    }
    let parsed = RouteGuides::from_guide_text(&design, &text).expect("valid guide file");
    assert_eq!(parsed, outcome.guides);
    assert!(parsed.covers_pins(&design));
}

#[test]
fn guide_boxes_cover_every_route_segment() {
    let (design, outcome) = routed();
    for (net, route) in design.nets().iter().zip(&outcome.routes) {
        for seg in route.segments() {
            for (from, _) in seg.unit_edges() {
                assert!(
                    outcome
                        .guides
                        .boxes_at(net.id().0, seg.layer, from)
                        .next()
                        .is_some(),
                    "net {}: segment cell {from} on M{} uncovered",
                    net.name(),
                    seg.layer
                );
            }
        }
    }
}

#[test]
fn svg_renders_routed_outcome() {
    let (design, outcome) = routed();
    let svg = SvgRenderer::new().render_routes(&design, &outcome.routes);
    assert!(svg.starts_with("<svg"));
    assert!(svg.trim_end().ends_with("</svg>"));
    // Every routed wire segment becomes an SVG line.
    let segments: usize = outcome.routes.iter().map(|r| r.segments().len()).sum();
    assert_eq!(svg.matches("<line").count(), segments);
    // Angle brackets balance (cheap well-formedness proxy).
    assert_eq!(svg.matches('<').count(), svg.matches('>').count());
}

#[test]
fn replayed_routes_reproduce_the_reported_congestion() {
    let design = Generator::tiny(31).generate();
    // Both a pattern-only run and a full run: the report an outcome carries
    // must be the congestion of its routes, committed onto a fresh graph.
    let pattern_only = RouterConfig {
        rrr_iterations: 0,
        ..RouterConfig::cugr()
    };
    for config in [pattern_only, RouterConfig::fastgr_h()] {
        let outcome = Router::new(config).run(&design).expect("routable");
        let graph = design.build_graph(CostParams::default()).expect("routable");
        for route in &outcome.routes {
            graph.commit(route).expect("router routes are valid");
        }
        let report = graph.report();
        assert_eq!(report.total_wire_demand, outcome.report.total_wire_demand);
        assert_eq!(report.overflow, outcome.report.overflow);
    }
}
