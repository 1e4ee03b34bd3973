//! Verifies the zero-allocation guarantee of the pattern DP hot path:
//! once a [`DpScratch`] and an output [`Route`] have grown to the largest
//! net (one warm-up pass), [`PatternDp::route_net_into`] must not touch
//! the heap at all.
//!
//! This lives in its own integration-test binary because it installs a
//! counting global allocator. The counter is per thread, so neither the
//! other test of this binary nor the harness's own threads pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fastgr_core::{DpScratch, PatternDp, PatternMode};
use fastgr_design::Generator;
use fastgr_gpu::HostPool;
use fastgr_grid::{CostParams, CostProber, Point2, Route, Segment};
use fastgr_steiner::SteinerBuilder;

/// Counts every allocation and reallocation the calling thread passes to
/// the system allocator. Frees are not counted: releasing memory is
/// allowed (and does not happen on the hot path anyway — buffers are
/// recycled).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn route_net_into_is_allocation_free_in_steady_state() {
    let design = Generator::tiny(7).generate();
    let graph = design.build_graph(CostParams::default()).expect("valid");
    let builder = SteinerBuilder::new().with_passes(4);
    let trees: Vec<_> = design.nets().iter().map(|n| builder.build(n)).collect();
    assert!(!trees.is_empty());

    for mode in [
        PatternMode::LShape,
        PatternMode::ZShape,
        PatternMode::HybridAll,
    ] {
        let prober = CostProber::build(&graph);
        let dp = PatternDp::with_prober(&graph, mode, &prober);
        let mut scratch = DpScratch::new();
        let mut route = Route::new();

        // Warm-up pass: grows every scratch table and the route's
        // geometry buffers to their high-water marks.
        for tree in &trees {
            dp.route_net_into(tree, &mut scratch, &mut route)
                .expect("routable");
        }

        // Steady state: routing the whole design again through the same
        // scratch must perform zero heap allocations.
        let before = allocs();
        for tree in &trees {
            dp.route_net_into(tree, &mut scratch, &mut route)
                .expect("routable");
        }
        let steady = allocs() - before;
        assert_eq!(
            steady, 0,
            "{mode:?}: {steady} allocations on the steady-state pass"
        );
    }
}

#[test]
fn prober_refresh_is_allocation_free_in_steady_state() {
    let mut graph = fastgr_grid::GridGraph::new(16, 16, 5, CostParams::default()).expect("valid");
    graph.fill_capacity(3.0);
    let pool = HostPool::new(1);
    graph.clear_dirty();
    let mut prober = CostProber::build_with_pool(&graph, &pool);

    let mut route = Route::new();
    route.push_segment(Segment::new(1, Point2::new(2, 3), Point2::new(9, 3)));
    route.push_segment(Segment::new(2, Point2::new(9, 3), Point2::new(9, 8)));

    // Warm-up: the first refresh after a commit touches the harvest
    // buffers' high-water marks for this dirty pattern.
    graph.commit(&route).expect("valid route");
    prober.refresh(&mut graph, &pool);

    // Steady state: the same commit shape must rebuild through the
    // pre-sized scratch without heap traffic.
    let before = allocs();
    graph.commit(&route).expect("valid route");
    prober.refresh(&mut graph, &pool);
    let steady = allocs() - before;
    assert_eq!(
        steady, 0,
        "{steady} allocations on the steady-state refresh"
    );
}
