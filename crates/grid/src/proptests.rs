//! Property-based tests of the grid-graph invariants.

#![cfg(test)]

use std::collections::{BTreeMap, BTreeSet};

use fastgr_gpu::HostPool;
use proptest::prelude::*;

use crate::{
    cost_to_fixed, CostParams, CostProber, Direction, GridError, GridGraph, Point2, Rect, Route,
    Segment, Via,
};

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
                    assert_eq!(g.wire_edge_capacity_cost_fixed(l, p), Some((c, cached)));
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

/// Metal layers of the run-walker oracle grids.
const LAYERS: u8 = 5;

/// A coordinate below `dim` drawn from `v`, biased to the first and last
/// cell.
fn coord(v: u16, dim: u16) -> u16 {
    match v % 4 {
        0 => 0,
        1 => dim - 1,
        _ => v / 4 % dim,
    }
}

/// A straight run on layer `l` of a `w x h` grid along the layer's
/// direction, in a grid row or column, drawn from three raw values; the
/// endpoints come in either order.
fn run_on(w: u16, h: u16, l: u8, (row, s, t): (u16, u16, u16)) -> (u8, Point2, Point2) {
    let horizontal = Direction::of_layer(l) == Direction::Horizontal;
    let (len, lines) = if horizontal { (w, h) } else { (h, w) };
    let (row, s, t) = (coord(row, lines), coord(s, len), coord(t, len));
    match horizontal {
        true => (l, Point2::new(s, row), Point2::new(t, row)),
        false => (l, Point2::new(row, s), Point2::new(row, t)),
    }
}

/// A grid size and a group of legal runs on routable layers; with
/// `adjacent`, on two adjacent layers only.
fn arb_runs(adjacent: bool) -> impl Strategy<Value = (u16, u16, Vec<(u8, Point2, Point2)>)> {
    let raw = (0u8..LAYERS, 0u16..1024, 0u16..1024, 0u16..1024);
    (
        2u16..10,
        2u16..10,
        1u8..LAYERS - 1,
        proptest::collection::vec(raw, 1..6),
    )
        .prop_map(move |(w, h, first, raw)| {
            let runs = raw
                .into_iter()
                .map(|(k, row, s, t)| {
                    // Adjacent groups use layers `first` and `first + 1` only.
                    let l = if adjacent {
                        first + k % 2
                    } else {
                        1 + k % (LAYERS - 1)
                    };
                    run_on(w, h, l, (row, s, t))
                })
                .collect();
            (w, h, runs)
        })
}

/// The unit edge after `p` along layer `l`, as a one-edge route.
fn one_edge(l: u8, p: Point2) -> Route {
    let next = match Direction::of_layer(l) {
        Direction::Horizontal => Point2::new(p.x + 1, p.y),
        Direction::Vertical => Point2::new(p.x, p.y + 1),
    };
    let mut r = Route::new();
    r.push_segment(Segment::new(l, p, next));
    r
}

/// Oracle run cost: the sum of the cached costs of the run's unit edges.
#[expect(clippy::disallowed_methods, reason = "the unit-edge oracle")]
fn unit_edge_cost(g: &GridGraph, l: u8, a: Point2, b: Point2) -> u64 {
    Segment::new(l, a, b)
        .unit_edges()
        .map(|(from, _)| g.wire_edge_cost_fixed(l, from).expect("edge exists"))
        .sum()
}

/// Every edge of every layer of `g`, as `(layer, lower endpoint)`.
fn all_edges(g: &GridGraph) -> Vec<(u8, Point2)> {
    let mut edges = Vec::new();
    for l in 0..g.num_layers() {
        for y in 0..g.height() {
            for x in 0..g.width() {
                let p = Point2::new(x, y);
                if g.wire_capacity(l, p).is_some() {
                    edges.push((l, p));
                }
            }
        }
    }
    edges
}

/// Asserts that every legal run of `g` probes in `prober` as the grid's walk.
fn assert_prober_matches_walk(prober: &CostProber, g: &GridGraph) {
    for l in 0..g.num_layers() {
        for y in 0..g.height() {
            for x in 0..g.width() {
                let a = Point2::new(x, y);
                for b in [
                    Point2::new(g.width() - 1, y),
                    Point2::new(x, g.height() - 1),
                ] {
                    assert_eq!(prober.wire_run_cost(l, a, b), g.wire_run_cost(l, a, b));
                    assert_eq!(prober.wire_run_cost(l, b, a), g.wire_run_cost(l, b, a));
                }
            }
        }
    }
}

/// Commits `runs` on a fresh, built prober and checks that the refresh
/// re-sums each dirtied `(layer, row)` once and leaves every probe equal to
/// the grid's walk.
fn check_refresh(w: u16, h: u16, runs: &[(u8, Point2, Point2)]) {
    let mut g = graph(w, h, LAYERS, 1.0);
    let pool = HostPool::new(1);
    let mut prober = CostProber::build_with_pool(&g, &pool);
    let built = prober.rows_rebuilt();
    let mut route = Route::new();
    let mut rows = BTreeSet::new();
    for &(l, a, b) in runs {
        let s = Segment::new(l, a, b);
        for (from, _) in s.unit_edges() {
            let horizontal = Direction::of_layer(l) == Direction::Horizontal;
            rows.insert((l, if horizontal { from.y } else { from.x }));
        }
        route.push_segment(s);
    }
    g.commit(&route).expect("legal runs");
    prober.refresh(&mut g, &pool);
    assert_eq!(prober.rows_rebuilt() - built, rows.len() as u64);
    assert_prober_matches_walk(&prober, &g);
}

/// A refresh after one group dirties the last row of one plane and the
/// first row of the next, or the same row index on two adjacent layers,
/// re-sums each of those rows: the back-to-back dedup compares layer and
/// row.
#[test]
fn refresh_keeps_rows_apart_across_a_layer_boundary() {
    // Layer 1 and 3 rows are grid rows, layer 2 rows grid columns.
    let (w, h) = (9, 7);
    let last_row_1 = (1, Point2::new(0, h - 1), Point2::new(w - 1, h - 1));
    let first_row_2 = (2, Point2::new(0, 0), Point2::new(0, h - 1));
    let same_row_2 = (2, Point2::new(h - 1, 0), Point2::new(h - 1, h - 1));
    let last_row_2 = (2, Point2::new(w - 1, 2), Point2::new(w - 1, 4));
    let first_row_3 = (3, Point2::new(1, 0), Point2::new(5, 0));
    check_refresh(w, h, &[last_row_1, first_row_2]);
    check_refresh(w, h, &[last_row_1, same_row_2]);
    check_refresh(w, h, &[last_row_2, first_row_3]);
}

proptest! {
    /// Every run walker agrees with the unit-edge oracle: run costs in
    /// both endpoint orders, the demand commit and uncommit write, the
    /// dirty bits and the overflow test.
    #[test]
    fn run_walkers_match_unit_edge_oracle((w, h, runs) in arb_runs(false)) {
        let mut g = graph(w, h, LAYERS, 1.0);
        let mut route = Route::new();
        let mut demand: BTreeMap<(u8, Point2), f64> = BTreeMap::new();
        for &(l, a, b) in &runs {
            let s = Segment::new(l, a, b);
            for (from, _) in s.unit_edges() {
                *demand.entry((l, from)).or_default() += 2.0;
            }
            route.push_segment(s);
        }
        g.clear_dirty();
        g.commit(&route).expect("legal runs");
        g.commit(&route).expect("legal runs");
        for &(l, a, b) in &runs {
            let oracle = unit_edge_cost(&g, l, a, b);
            prop_assert_eq!(g.wire_run_cost(l, a, b), oracle);
            prop_assert_eq!(g.wire_run_cost(l, b, a), oracle);
        }
        prop_assert_eq!(g.dirty_edges(), demand.len() as u64);
        prop_assert_eq!(g.route_touches_dirty(&route), !demand.is_empty());
        prop_assert_eq!(g.route_has_overflow(&route), !demand.is_empty());
        for (l, p) in all_edges(&g) {
            let expected = demand.get(&(l, p)).copied().unwrap_or(0.0);
            prop_assert_eq!(g.wire_demand(l, p), Some(expected));
            let edge = one_edge(l, p);
            prop_assert_eq!(g.route_touches_dirty(&edge), expected > 0.0);
            let overflow = expected > g.wire_capacity(l, p).expect("edge exists");
            prop_assert_eq!(g.route_has_overflow(&edge), overflow);
        }
        g.uncommit(&route).expect("legal runs");
        g.uncommit(&route).expect("legal runs");
        prop_assert_eq!(g.report().total_wire_demand, 0.0);
        assert_costs_match_model(&g);
    }

    /// Wrong-direction, off-grid and missing-layer runs keep their errors,
    /// write nothing and price at infinity.
    #[test]
    fn illegal_runs_keep_their_errors(
        (w, h) in (2u16..10, 2u16..10),
        l in 0u8..LAYERS + 2,
        vertical in 0u8..2,
        (row, s, t) in (0u16..12, 0u16..12, 0u16..12),
    ) {
        let g = graph(w, h, LAYERS, 1.0);
        let (a, b) = match vertical == 1 {
            false => (Point2::new(s, row), Point2::new(t, row)),
            true => (Point2::new(row, s), Point2::new(row, t)),
        };
        let seg = Segment::new(l, a, b);
        let on_grid = l < LAYERS && g.contains(a) && g.contains(b);
        let expected = if a == b {
            Ok(())
        } else if !on_grid {
            Err(GridError::OutOfBounds {
                point: if g.contains(seg.from) { seg.to } else { seg.from },
                layer: Some(l),
            })
        } else if seg.is_horizontal() != (Direction::of_layer(l) == Direction::Horizontal) {
            Err(GridError::WrongDirection { segment: seg })
        } else {
            Ok(())
        };
        let mut route = Route::new();
        route.push_segment(seg);
        prop_assert_eq!(g.commit(&route), expected.clone());
        prop_assert_eq!(g.uncommit(&route), expected.clone());
        if expected.is_err() {
            prop_assert_eq!(g.wire_run_cost(l, a, b), u64::MAX);
            prop_assert_eq!(g.wire_run_cost(l, b, a), u64::MAX);
            prop_assert_eq!(g.dirty_edges(), 0);
            prop_assert_eq!(g.report().total_wire_demand, 0.0);
        }
    }

    /// Scaling a region's capacity scales exactly the edges whose lower
    /// endpoint lies in it, also for regions past the grid's edge.
    #[test]
    fn region_scaling_matches_cell_oracle(
        (w, h) in (2u16..10, 2u16..10),
        l in 1u8..LAYERS,
        (x0, y0, x1, y1) in (0u16..12, 0u16..12, 0u16..12, 0u16..12),
    ) {
        let mut g = graph(w, h, LAYERS, 4.0);
        let region = Rect::new(Point2::new(x0, y0), Point2::new(x1, y1));
        g.scale_region_capacity(l, region, 0.5);
        for (k, p) in all_edges(&g) {
            let scaled = k == l && region.contains(p);
            let expected = match (k, scaled) {
                (0, _) => 0.0,
                (_, true) => 2.0,
                (_, false) => 4.0,
            };
            prop_assert_eq!(g.wire_capacity(k, p), Some(expected));
        }
        assert_costs_match_model(&g);
    }

    /// A refresh after one group dirties rows on two adjacent layers —
    /// boundary rows included — re-sums each dirtied row once and matches
    /// the grid's walk everywhere.
    #[test]
    fn refresh_after_adjacent_layer_group_matches_walk((w, h, runs) in arb_runs(true)) {
        check_refresh(w, h, &runs);
    }
}
