//! Cross-crate consistency between the pattern DP and the maze router:
//! both optimise the same cost model, so on an empty grid the maze route of
//! a two-pin net can never cost more than the pattern route (it searches a
//! superset of the pattern paths), and both must connect the same pins.
//!
//! The pattern DP, the maze search and `GridGraph::route_cost` all sum the
//! same per-edge Q44.20 costs, so every comparison is exact.

use fastgr::core::{PatternDp, PatternMode};
use fastgr::design::{Net, NetId, Pin};
use fastgr::grid::{CostParams, CostProber, GridGraph, Point2};
use fastgr::maze::MazeRouter;
use fastgr::steiner::SteinerBuilder;

fn graph() -> GridGraph {
    let mut g = GridGraph::new(24, 24, 6, CostParams::default()).expect("valid");
    g.fill_capacity(6.0);
    g
}

fn two_pin(a: (u16, u16), b: (u16, u16)) -> Net {
    Net::new(
        NetId(0),
        "n",
        vec![
            Pin::new(Point2::new(a.0, a.1), 0),
            Pin::new(Point2::new(b.0, b.1), 0),
        ],
    )
}

#[test]
fn maze_never_loses_to_patterns_on_an_empty_grid() {
    let g = graph();
    let cases = [
        ((1, 1), (20, 15)),
        ((3, 19), (18, 2)),
        ((0, 0), (23, 23)),
        ((5, 5), (5, 18)),
    ];
    for (a, b) in cases {
        let net = two_pin(a, b);
        let tree = SteinerBuilder::new().build(&net);
        let pattern = PatternDp::with_prober(&g, PatternMode::LShape, &CostProber::build(&g))
            .route_net(&tree)
            .expect("routable");
        let maze_route = MazeRouter::default()
            .route(&g, &net.distinct_positions())
            .expect("routable");
        let maze_cost = g.route_cost(&maze_route);
        assert!(
            maze_cost <= pattern.cost,
            "maze {maze_cost} must not exceed pattern {} for {a:?}->{b:?}",
            pattern.cost
        );
    }
}

#[test]
fn hybrid_pattern_closes_the_gap_to_maze() {
    // On an empty grid the best hybrid path cost must lie between the maze
    // optimum and the L-shape cost.
    let g = graph();
    let net = two_pin((2, 3), (21, 17));
    let tree = SteinerBuilder::new().build(&net);
    let l = PatternDp::with_prober(&g, PatternMode::LShape, &CostProber::build(&g))
        .route_net(&tree)
        .expect("ok");
    let h = PatternDp::with_prober(&g, PatternMode::HybridAll, &CostProber::build(&g))
        .route_net(&tree)
        .expect("ok");
    let maze_route = MazeRouter::default()
        .route(&g, &net.distinct_positions())
        .expect("ok");
    let m = g.route_cost(&maze_route);
    assert!(m <= h.cost);
    assert!(h.cost <= l.cost);
}

#[test]
fn pattern_and_maze_agree_on_straight_connections() {
    // A straight two-pin net on an empty grid: both find the same optimum.
    let g = graph();
    let net = two_pin((3, 10), (19, 10));
    let tree = SteinerBuilder::new().build(&net);
    let pattern = PatternDp::with_prober(&g, PatternMode::LShape, &CostProber::build(&g))
        .route_net(&tree)
        .expect("routable");
    let maze_route = MazeRouter::default()
        .route(&g, &net.distinct_positions())
        .expect("routable");
    assert_eq!(g.route_cost(&maze_route), pattern.cost);
    assert_eq!(maze_route.wirelength(), pattern.route.wirelength());
}

#[test]
fn maze_beats_patterns_around_a_blockage() {
    // Block the straight corridor on every horizontal layer: the L pattern
    // is forced through the blockage penalty while the maze detours.
    let mut g = graph();
    use fastgr::grid::Rect;
    for layer in [1u8, 3, 5] {
        g.scale_region_capacity(
            layer,
            Rect::new(Point2::new(8, 8), Point2::new(14, 12)),
            0.0,
        );
    }
    let net = two_pin((2, 10), (21, 10));
    let tree = SteinerBuilder::new().build(&net);
    let pattern = PatternDp::with_prober(&g, PatternMode::LShape, &CostProber::build(&g))
        .route_net(&tree)
        .expect("routable");
    let maze_route = MazeRouter::default()
        .route(&g, &net.distinct_positions())
        .expect("routable");
    assert!(g.route_cost(&maze_route) < pattern.cost);
}
