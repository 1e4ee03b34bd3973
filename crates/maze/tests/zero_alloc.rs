//! Verifies the zero-allocation guarantee of the maze-search hot path:
//! once a [`MazeScratch`] and an output [`Route`] have grown to their
//! high-water marks (one warm-up pass over every net), further
//! [`MazeRouter::route_into`] calls must not touch the heap at all — the
//! property that lets the RRR stage run one scratch per worker thread with
//! no allocator traffic in the steady state.
//!
//! This lives in its own integration-test binary because it installs a
//! counting global allocator — unit tests running concurrently in the
//! library binary would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fastgr_grid::{CostParams, GridGraph, Point2, Route};
use fastgr_maze::{MazeRouter, MazeScratch};

/// Counts every allocation and reallocation passed to the system
/// allocator. Frees are not counted: releasing memory is allowed (and
/// does not happen on the hot path anyway — buffers are recycled).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const W: u16 = 24;
const H: u16 = 24;

/// Deterministic multi-pin nets from a splitmix-style generator — enough
/// variety to exercise multi-source searches, rebinds to windows of many
/// sizes, and heavy congestion.
fn synthetic_nets(count: usize) -> Vec<Vec<Point2>> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u16
    };
    (0..count)
        .map(|_| {
            let pins = 2 + (next() % 3) as usize;
            (0..pins)
                .map(|_| Point2::new(next() % W, next() % H))
                .collect()
        })
        .collect()
}

#[test]
fn route_into_is_allocation_free_in_steady_state() {
    let mut graph = GridGraph::new(W, H, 5, CostParams::default()).expect("valid");
    graph.fill_capacity(3.0);
    let nets = synthetic_nets(48);
    let router = MazeRouter::default();

    let mut scratch = MazeScratch::new();
    let mut out = Route::new();

    // Warm-up pass 1: grows the scratch to its high-water mark and commits
    // every route so later passes run against real congestion.
    for pins in &nets {
        router
            .route_into(&graph, pins, &mut scratch, &mut out)
            .expect("routable");
        graph.commit(&out).expect("valid route");
    }
    // Warm-up pass 2: re-route on the congested graph without committing,
    // so the heap and path buffers reach their congested-search sizes too.
    for pins in &nets {
        router
            .route_into(&graph, pins, &mut scratch, &mut out)
            .expect("routable");
    }

    // Steady state: identical searches through the same scratch must
    // perform zero heap allocations.
    let before = ALLOCS.load(Ordering::SeqCst);
    for pins in &nets {
        router
            .route_into(&graph, pins, &mut scratch, &mut out)
            .expect("routable");
    }
    let steady = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(steady, 0, "{steady} allocations on the steady-state pass");
}
