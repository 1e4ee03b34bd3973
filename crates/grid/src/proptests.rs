//! Property-based tests of the grid-graph invariants.

#![cfg(test)]

use proptest::prelude::*;

use crate::{cost_to_fixed, CostParams, GridGraph, Point2, Rect, Route, Segment, Via};

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

/// One step of a random edit sequence on the 16x16, 5-layer test grid.
#[derive(Debug, Clone)]
enum Edit {
    Commit(Route),
    /// Uncommits the committed route at this index (modulo their count).
    Uncommit(usize),
    History(f64),
    ScaleRegion(u8, Rect, f64),
    SetLayerCapacity(u8, f64),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    let corners = (0u16..16, 0u16..16, 0u16..16, 0u16..16);
    (0u8..8, arb_route(), 0usize..64, 1u8..5, corners, 0u8..6).prop_map(
        |(kind, route, index, layer, (x0, y0, x1, y1), q)| match kind {
            0..=2 => Edit::Commit(route),
            3..=4 => Edit::Uncommit(index),
            5 => Edit::History(f64::from(q % 4) * 0.75),
            6 => Edit::ScaleRegion(
                layer,
                Rect::new(Point2::new(x0, y0), Point2::new(x1, y1)),
                f64::from(q % 3) * 0.5,
            ),
            _ => Edit::SetLayerCapacity(layer, f64::from(q)),
        },
    )
}

/// Asserts that every cached wire and via cost of `g` is the quantised
/// cost model at the edge's current demand, capacity and history.
#[expect(clippy::disallowed_methods, reason = "checks every edge's cached cost")]
fn assert_costs_match_model(g: &GridGraph) {
    let params = g.params();
    for l in 0..g.num_layers() {
        for y in 0..g.height() {
            for x in 0..g.width() {
                let p = Point2::new(x, y);
                if let Some(cached) = g.wire_edge_cost_fixed(l, p) {
                    let (d, c, h) = (
                        g.wire_demand(l, p).expect("edge exists"),
                        g.wire_capacity(l, p).expect("edge exists"),
                        g.wire_history(l, p).expect("edge exists"),
                    );
                    assert_eq!(cached, cost_to_fixed(params.wire_edge_cost(d, c) + h));
                }
                if let Some(cached) = g.via_edge_cost_fixed(l, p) {
                    let d = g.via_demand(l, p).expect("via exists");
                    assert_eq!(cached, cost_to_fixed(params.via_edge_cost(d)));
                }
            }
        }
    }
    assert_eq!(g.stale_cost_cells(), 0);
}

/// Asserts that two graphs cache the same cost on every wire and via edge.
#[expect(
    clippy::disallowed_methods,
    reason = "compares every edge's cached cost"
)]
fn assert_same_costs(a: &GridGraph, b: &GridGraph) {
    for l in 0..a.num_layers() {
        for y in 0..a.height() {
            for x in 0..a.width() {
                let p = Point2::new(x, y);
                assert_eq!(a.wire_edge_cost_fixed(l, p), b.wire_edge_cost_fixed(l, p));
                assert_eq!(a.via_edge_cost_fixed(l, p), b.via_edge_cost_fixed(l, p));
            }
        }
    }
}

proptest! {
    /// After every step of a random mix of commits, uncommits, history
    /// rounds and capacity edits, every cached edge cost equals the
    /// quantised cost model; a clone carries the cache.
    #[test]
    fn cached_costs_follow_every_edit(edits in proptest::collection::vec(arb_edit(), 1..16)) {
        let mut g = graph(16, 16, 5, 3.0);
        assert_costs_match_model(&g);
        let mut committed: Vec<Route> = Vec::new();
        for edit in edits {
            match edit {
                Edit::Commit(r) => {
                    g.commit(&r).expect("valid route");
                    committed.push(r);
                }
                Edit::Uncommit(i) => {
                    if !committed.is_empty() {
                        let r = committed.swap_remove(i % committed.len());
                        g.uncommit(&r).expect("valid route");
                    }
                }
                Edit::History(increment) => {
                    g.add_history_on_overflow(increment);
                }
                Edit::ScaleRegion(l, region, factor) => g.scale_region_capacity(l, region, factor),
                Edit::SetLayerCapacity(l, capacity) => g.set_layer_capacity(l, capacity),
            }
            assert_costs_match_model(&g);
        }
        let copy = g.clone();
        assert_costs_match_model(&copy);
        assert_same_costs(&g, &copy);
    }

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
