//! Property-based tests of the grid-graph invariants.

#![cfg(test)]

use proptest::prelude::*;

use crate::{CostParams, GridGraph, Point2, Route, Segment, Via};

fn graph(w: u16, h: u16, layers: u8, cap: f64) -> GridGraph {
    let mut g = GridGraph::new(w, h, layers, CostParams::default()).expect("valid dims");
    g.fill_capacity(cap);
    g
}

/// Strategy: a random valid route on a 16x16, 5-layer grid.
fn arb_route() -> impl Strategy<Value = Route> {
    let seg = (1u8..5, 0u16..16, 0u16..16, 0u16..16).prop_map(|(layer, a, fixed, b)| {
        // Respect the layer's preferred direction.
        if layer % 2 == 1 {
            Segment::new(layer, Point2::new(a, fixed), Point2::new(b, fixed))
        } else {
            Segment::new(layer, Point2::new(fixed, a), Point2::new(fixed, b))
        }
    });
    let via = (0u16..16, 0u16..16, 0u8..5, 0u8..5)
        .prop_map(|(x, y, l1, l2)| Via::new(Point2::new(x, y), l1, l2));
    (
        proptest::collection::vec(seg, 0..6),
        proptest::collection::vec(via, 0..4),
    )
        .prop_map(|(segs, vias)| {
            let mut r = Route::new();
            for s in segs {
                r.push_segment(s);
            }
            for v in vias {
                r.push_via(v);
            }
            r
        })
}

proptest! {
    /// Committing and uncommitting any set of valid routes restores the
    /// pristine demand state exactly (exact f64 arithmetic on small ints).
    #[test]
    fn commit_uncommit_round_trips(routes in proptest::collection::vec(arb_route(), 0..8)) {
        let g = graph(16, 16, 5, 4.0);
        let pristine = g.report();
        for r in &routes {
            g.commit(r).expect("valid route");
        }
        for r in routes.iter().rev() {
            g.uncommit(r).expect("valid route");
        }
        let after = g.report();
        prop_assert_eq!(pristine, after);
    }

    /// Demand totals equal the summed geometry of committed routes.
    #[test]
    fn demand_equals_geometry(routes in proptest::collection::vec(arb_route(), 0..8)) {
        let g = graph(16, 16, 5, 4.0);
        for r in &routes {
            g.commit(r).expect("valid route");
        }
        let report = g.report();
        let wl: u64 = routes.iter().map(Route::wirelength).sum();
        let vias: u64 = routes.iter().map(Route::via_count).sum();
        prop_assert_eq!(report.total_wire_demand, wl as f64);
        prop_assert_eq!(report.total_via_demand, vias as f64);
    }

    /// Straight-run costs are additive along a split point.
    #[test]
    fn run_cost_is_additive(x0 in 0u16..14, len1 in 1u16..8, len2 in 1u16..8, y in 0u16..16) {
        let g = graph(32, 16, 5, 4.0);
        let a = Point2::new(x0, y);
        let m = Point2::new((x0 + len1).min(31), y);
        let b = Point2::new((x0 + len1 + len2).min(31), y);
        let whole = g.wire_run_cost(1, a, b);
        let parts = g.wire_run_cost(1, a, m) + g.wire_run_cost(1, m, b);
        // Per-edge quantisation makes the walks exactly additive.
        prop_assert_eq!(whole, parts);
    }

    /// Via stack costs are additive across a middle layer.
    #[test]
    fn via_stack_cost_is_additive(x in 0u16..16, y in 0u16..16, l1 in 0u8..5, l2 in 0u8..5) {
        let g = graph(16, 16, 5, 4.0);
        let p = Point2::new(x, y);
        let (lo, hi) = (l1.min(l2), l1.max(l2));
        for mid in lo..=hi {
            let whole = g.via_stack_cost(p, lo, hi);
            let parts = g.via_stack_cost(p, lo, mid) + g.via_stack_cost(p, mid, hi);
            prop_assert_eq!(whole, parts);
        }
    }

    /// The congestion heat map never reports utilisation on untouched
    /// cells, and reflects every overflowing edge.
    #[test]
    fn heatmap_bounds(routes in proptest::collection::vec(arb_route(), 0..6)) {
        let g = graph(16, 16, 5, 2.0);
        for r in &routes {
            g.commit(r).expect("valid route");
        }
        let heat = g.congestion_heatmap();
        prop_assert!(heat.iter().all(|&u| u >= 0.0));
        let report = g.report();
        let peak = heat.iter().copied().fold(0.0, f64::max);
        // Peak utilisation from the heat map agrees with the report.
        prop_assert!((peak - report.max_utilization).abs() < 1e-9);
    }

    /// `route_cost` is finite for every valid route and increases (weakly)
    /// as unrelated demand accumulates on its edges.
    #[test]
    fn cost_monotone_in_demand(route in arb_route()) {
        let g = graph(16, 16, 5, 4.0);
        let before = g.route_cost(&route);
        prop_assert!(before < u64::MAX);
        g.commit(&route).expect("valid route");
        let after = g.route_cost(&route);
        prop_assert!(after >= before);
    }
}
