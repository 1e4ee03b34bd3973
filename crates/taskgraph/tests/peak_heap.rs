//! Peak-heap regression test for [`ConflictGraph::from_bounding_boxes`].
//!
//! A conflict graph over a full-size design's net boxes holds about a
//! million edges. The build must not need much more heap than the finished
//! CSR graph itself: no dedup set and no per-task vectors, only the two
//! output arrays, the boxes' ids sorted by `lo.x` and the sweep's active
//! list.
//!
//! This lives in its own integration-test binary, with a single test,
//! because it installs a tracking global allocator whose counters are
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fastgr_grid::{Point2, Rect};
use fastgr_taskgraph::ConflictGraph;

/// Tracks live heap bytes and their high-water mark.
struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// `count` seeded boxes at `s19t9m` density: a 140×140 grid, widths and
/// heights of 1–9 G-cells, from an inline SplitMix64 stream.
fn s19t9m_like_boxes(count: usize) -> Vec<Rect> {
    let mut state = 0x19_09u64;
    let mut next = move |bound: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound) as u16
    };
    (0..count)
        .map(|_| {
            let (x, y) = (next(140 - 8), next(140 - 8));
            let (w, h) = (next(9), next(9));
            Rect::new(Point2::new(x, y), Point2::new(x + w, y + h))
        })
        .collect()
}

#[test]
fn construction_peak_heap_stays_near_the_graph_size() {
    let boxes = s19t9m_like_boxes(22_400);

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let graph = ConflictGraph::from_bounding_boxes(&boxes);
    let peak = PEAK.load(Ordering::SeqCst) - before;

    // The CSR arrays: `first_out` has n + 1 entries, `head` two per edge.
    let graph_bytes = 4 * (graph.task_count() + 1) + 4 * 2 * graph.edge_count();
    let ratio = peak as f64 / graph_bytes as f64;
    println!(
        "{} boxes, {} edges: graph {graph_bytes} B, construction peak {peak} B ({ratio:.2}x)",
        boxes.len(),
        graph.edge_count()
    );
    assert!(
        graph.edge_count() > 500_000,
        "fixture is not at s19t9m density"
    );
    assert!(
        ratio <= 1.5,
        "construction peak {peak} B is {ratio:.2}x the {graph_bytes} B graph (bound 1.5x)"
    );
}
