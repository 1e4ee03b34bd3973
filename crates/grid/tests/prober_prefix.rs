//! Exactness contract of the prefix sums: an O(1) prefix difference (a
//! prober wire-run probe, or two entries of the grid's via-prefix row) is
//! *bit-for-bit equal* to the naive fixed-point gcell walk
//! ([`GridGraph::wire_run_cost`] / [`GridGraph::via_stack_cost`])
//! for arbitrary demand and history states. Costs are quantised per edge
//! before summation, so both sides are exact integer sums — these are
//! equality tests, not epsilon tests.

use fastgr_gpu::HostPool;
use proptest::prelude::*;

use fastgr_grid::{CostParams, CostProber, GridGraph, Point2, Route, Segment, Via};

const W: u16 = 12;
const H: u16 = 10;
const LAYERS: u8 = 5;

fn graph() -> GridGraph {
    let mut g = GridGraph::new(W, H, LAYERS, CostParams::default()).expect("valid dims");
    g.fill_capacity(3.0);
    g
}

/// A random valid route on the test grid (respecting layer directions).
fn arb_route() -> impl Strategy<Value = Route> {
    let seg = (1u8..LAYERS, 0u16..W.min(H), 0u16..W.min(H), 0u16..W.min(H)).prop_map(
        |(layer, a, fixed, b)| {
            if layer % 2 == 1 {
                Segment::new(layer, Point2::new(a, fixed), Point2::new(b, fixed))
            } else {
                Segment::new(layer, Point2::new(fixed, a), Point2::new(fixed, b))
            }
        },
    );
    let via = (0u16..W, 0u16..H, 0u8..LAYERS, 0u8..LAYERS)
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

/// Asserts every legal wire run and via stack probes bit-identically to the
/// naive quantised walk, and so does every difference of two entries of a
/// via-prefix row.
fn assert_probes_match(prober: &CostProber, g: &GridGraph) {
    for l in 0..LAYERS {
        if l % 2 == 1 {
            for y in 0..H {
                for x0 in 0..W {
                    let a = Point2::new(x0, y);
                    let b = Point2::new(W - 1, y);
                    assert_eq!(prober.wire_run_cost(l, a, b), g.wire_run_cost(l, a, b));
                }
            }
        } else {
            for x in 0..W {
                for y0 in 0..H {
                    let a = Point2::new(x, y0);
                    let b = Point2::new(x, H - 1);
                    assert_eq!(prober.wire_run_cost(l, a, b), g.wire_run_cost(l, a, b));
                }
            }
        }
    }
    let mut row = Vec::new();
    for x in 0..W {
        for y in 0..H {
            let p = Point2::new(x, y);
            g.via_prefix_into(p, &mut row);
            assert_eq!(row.len(), LAYERS as usize);
            for lo in 0..LAYERS {
                for hi in lo..LAYERS {
                    let naive = g.via_stack_cost(p, lo, hi);
                    // The row difference the pattern kernels use, both ways
                    // round.
                    assert_eq!(row[hi as usize] - row[lo as usize], naive);
                    assert_eq!(row[lo as usize].abs_diff(row[hi as usize]), naive);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Prefix differences equal the naive fixed-point summation exactly on
    /// random demand/history grids.
    #[test]
    fn prefix_difference_equals_naive_sum(
        routes in proptest::collection::vec(arb_route(), 0..12),
        history_rounds in 0u8..3,
        increment_q in 1u32..16,
    ) {
        let mut g = graph();
        for r in &routes {
            g.commit(r).expect("valid route");
        }
        for _ in 0..history_rounds {
            g.add_history_on_overflow(increment_q as f64 * 0.25);
        }
        let prober = CostProber::build(&g);
        assert_probes_match(&prober, &g);
    }

    /// An incremental refresh after commits/uncommits is indistinguishable
    /// from a from-scratch build, for serial and parallel rebuild pools.
    #[test]
    fn incremental_refresh_equals_fresh_build(
        initial in proptest::collection::vec(arb_route(), 0..6),
        updates in proptest::collection::vec(
            (arb_route(), 0u8..2).prop_map(|(r, u)| (r, u == 1)),
            1..8,
        ),
        workers in 1usize..4,
    ) {
        let mut g = graph();
        for r in &initial {
            g.commit(r).expect("valid route");
        }
        g.clear_dirty();
        let pool = HostPool::new(workers);
        let mut prober = CostProber::build_with_pool(&g, &pool);
        for (r, uncommit) in &updates {
            g.commit(r).expect("valid route");
            if *uncommit {
                g.uncommit(r).expect("valid route");
            }
        }
        prober.refresh(&mut g, &pool);
        assert_probes_match(&prober, &g);
        prop_assert_eq!(g.dirty_edges(), 0);
    }
}
