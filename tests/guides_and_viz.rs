//! Integration tests for guide-file output and SVG rendering against real
//! router outcomes.

use fastgr::core::{RouteGuides, Router, RouterConfig};
use fastgr::design::Generator;
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
fn congestion_estimate_matches_router_pattern_stage() {
    let design = Generator::tiny(31).generate();
    let estimate = fastgr::core::estimate_congestion(&design).expect("routable");
    // The estimate is a pattern-only pass: its demand must be close to the
    // committed demand of a pattern-only router run with the same config.
    let config = RouterConfig {
        rrr_iterations: 0,
        ..RouterConfig::cugr()
    };
    let outcome = Router::new(config).run(&design).expect("routable");
    assert_eq!(
        estimate.report.total_wire_demand,
        outcome.report.total_wire_demand
    );
    assert_eq!(estimate.report.overflow, outcome.report.overflow);
}
