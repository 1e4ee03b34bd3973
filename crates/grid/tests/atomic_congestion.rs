//! Concurrency contract of the atomic congestion store: any interleaving of
//! `commit` / `uncommit` through a shared `&GridGraph` from many threads
//! leaves the demand state, and the cost cached on every edge, bit-identical
//! to the same multiset of operations applied sequentially. Demand updates
//! are exact fixed-point integer additions, so this is an equality test,
//! not an epsilon test.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use fastgr_grid::{CostParams, GridGraph, Point2, Route, Segment, Via};

const W: u16 = 16;
const H: u16 = 16;
const LAYERS: u8 = 5;

fn graph() -> GridGraph {
    let mut g = GridGraph::new(W, H, LAYERS, CostParams::default()).expect("valid dims");
    g.fill_capacity(4.0);
    g
}

/// A random valid route on the test grid (respecting layer directions).
fn arb_route() -> impl Strategy<Value = Route> {
    let seg = (1u8..LAYERS, 0u16..W, 0u16..H, 0u16..W).prop_map(|(layer, a, fixed, b)| {
        if layer % 2 == 1 {
            Segment::new(layer, Point2::new(a, fixed), Point2::new(b, fixed))
        } else {
            Segment::new(layer, Point2::new(fixed, a), Point2::new(fixed, b))
        }
    });
    let via = (0u16..W, 0u16..H, 0u8..LAYERS, 0u8..LAYERS)
        .prop_map(|(x, y, l1, l2)| Via::new(Point2::new(x, y), l1, l2));
    (
        proptest::collection::vec(seg, 0..5),
        proptest::collection::vec(via, 0..3),
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

/// One thread's worth of work: routes plus a flag for uncommit-after-commit.
type ThreadOps = Vec<(Route, bool)>;

fn arb_thread_ops() -> impl Strategy<Value = ThreadOps> {
    proptest::collection::vec((arb_route(), 0u8..2).prop_map(|(r, u)| (r, u == 1)), 0..8)
}

/// Asserts bit-identical demand on every wire and via edge of two graphs.
fn assert_demand_identical(a: &GridGraph, b: &GridGraph) {
    for l in 0..LAYERS {
        for y in 0..H {
            for x in 0..W {
                let p = Point2::new(x, y);
                assert_eq!(a.wire_demand(l, p), b.wire_demand(l, p), "wire {l} {p:?}");
                if l + 1 < LAYERS {
                    assert_eq!(a.via_demand(l, p), b.via_demand(l, p), "via {l} {p:?}");
                }
            }
        }
    }
    assert_eq!(a.report(), b.report());
}

/// Asserts the same cached cost on every wire and via edge of two graphs.
#[expect(
    clippy::disallowed_methods,
    reason = "compares every edge's cached cost"
)]
fn assert_costs_identical(a: &GridGraph, b: &GridGraph) {
    for l in 0..LAYERS {
        for y in 0..H {
            for x in 0..W {
                let p = Point2::new(x, y);
                assert_eq!(
                    a.wire_edge_cost_fixed(l, p),
                    b.wire_edge_cost_fixed(l, p),
                    "wire cost {l} {p:?}"
                );
                assert_eq!(
                    a.via_edge_cost_fixed(l, p),
                    b.via_edge_cost_fixed(l, p),
                    "via cost {l} {p:?}"
                );
            }
        }
    }
    assert_eq!(a.stale_cost_cells(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleaved atomic commits/uncommits from up to 4 threads end up
    /// bit-identical to a sequential ledger of the same operations.
    #[test]
    fn concurrent_updates_match_sequential_ledger(
        per_thread in proptest::collection::vec(arb_thread_ops(), 1..5),
    ) {
        let shared = graph();
        std::thread::scope(|s| {
            for ops in &per_thread {
                let shared = &shared;
                s.spawn(move || {
                    for (route, uncommit_after) in ops {
                        shared.commit(route).expect("valid route");
                        if *uncommit_after {
                            shared.uncommit(route).expect("valid route");
                        }
                    }
                });
            }
        });

        let ledger = graph();
        for ops in &per_thread {
            for (route, uncommit_after) in ops {
                ledger.commit(route).expect("valid route");
                if *uncommit_after {
                    ledger.uncommit(route).expect("valid route");
                }
            }
        }

        assert_demand_identical(&shared, &ledger);
        // Overlapping concurrent writers leave the last cost store matching
        // the final demand.
        assert_costs_identical(&shared, &ledger);
        // The dirty set is the union of dirtied edges — order independent.
        prop_assert_eq!(shared.dirty_edges(), ledger.dirty_edges());
    }
}

/// Deterministic stress: a balanced mix of commits and uncommits hammering
/// the same few edges from many threads nets out to exactly zero demand.
#[test]
fn balanced_hammering_cancels_exactly() {
    let shared = graph();
    let mut route = Route::new();
    route.push_segment(Segment::new(1, Point2::new(2, 3), Point2::new(9, 3)));
    route.push_via(Via::new(Point2::new(9, 3), 1, 2));
    route.push_segment(Segment::new(2, Point2::new(9, 3), Point2::new(9, 8)));

    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..500 {
                    shared.commit(&route).expect("valid route");
                    shared.uncommit(&route).expect("valid route");
                }
            });
        }
    });

    let report = shared.report();
    assert_eq!(report.total_wire_demand, 0.0);
    assert_eq!(report.total_via_demand, 0.0);
    assert_eq!(report.overflowing_edges, 0);
    assert_costs_identical(&shared, &graph());
    // Every touched edge is in the dirty set exactly once.
    assert_eq!(shared.dirty_edges(), 12);
    assert!(shared.route_touches_dirty(&route));
}

/// Stress of the cost writers: rounds of two threads, released together
/// by a spin start, one committing and one ripping up the same route (15
/// wire edges and a 4-hop via stack) a few times, so the demand stays near
/// capacity where every track changes the cost. A writer that stored the
/// price of its own update without re-checking the demand leaves a stale
/// cost whenever the last two updates of an edge interleave: on a 2-vCPU
/// host, in about one round in 150.
#[test]
fn racing_cost_writers_leave_exact_costs() {
    let shared = graph();
    let mut route = Route::new();
    route.push_segment(Segment::new(1, Point2::new(0, 4), Point2::new(15, 4)));
    route.push_via(Via::new(Point2::new(4, 4), 0, 4));
    for _ in 0..3 {
        shared.commit(&route).expect("valid route");
    }
    for _ in 0..2000 {
        let arrived = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for rip_up in [false, true] {
                let (shared, route, arrived) = (&shared, &route, &arrived);
                s.spawn(move || {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    while arrived.load(Ordering::SeqCst) < 2 {
                        std::hint::spin_loop();
                    }
                    for _ in 0..3 {
                        if rip_up {
                            shared.uncommit(route).expect("valid route");
                        } else {
                            shared.commit(route).expect("valid route");
                        }
                    }
                });
            }
        });
        assert_eq!(shared.stale_cost_cells(), 0);
    }
    assert_eq!(shared.wire_demand(1, Point2::new(4, 4)), Some(3.0));
}
