//! Prefix-sum cost prober: O(1) wire-run cost probes.
//!
//! The pattern kernels (Eqs. 5–14 of the paper) evaluate
//! [`GridGraph::wire_run_cost`]-style straight-run costs inside `L×L` layer
//! loops per candidate bend, which makes every probe an O(run-length) walk
//! over the grid's edge costs. CUGR (whose 3-D cost model this grid
//! inherits) and GAMER-style GPU routers instead hoist congestion costs
//! into per-layer prefix sums so that any run cost is a two-lookup
//! difference. [`CostProber`] is that cache: per layer, the grid's cached
//! Q44.20 fixed-point ([`super::graph::COST_FRAC_BITS`]) cost of every unit
//! edge is prefix-summed along its row (horizontal layers) or column
//! (vertical layers).
//!
//! Via stacks need no cache here: a G-cell's via-stack prefix row is `L`
//! loads of the grid's cached via costs
//! ([`GridGraph::via_prefix_into`]).
//!
//! Because each edge cost is quantised *before* summation, a prefix
//! difference is an exact integer subtraction — bit-identical to the naive
//! quantised walk ([`GridGraph::wire_run_cost`]) and independent of
//! evaluation order, so determinism across worker counts holds by
//! construction rather than by floating-point luck.
//!
//! # Batch-staleness contract
//!
//! Probes reflect the congestion state at the last [`CostProber::build`] /
//! [`CostProber::refresh`], *not* the live cost cells. The pattern stage
//! refreshes the cache between batches (and between nets in sequential
//! mode) and commits a batch's routes only after the whole batch is
//! routed, so within one batch every net sees the same congestion
//! snapshot, matching the paper's batch semantics. [`CostProber::refresh`]
//! consumes the grid's [`DirtyTracker`](GridGraph::dirty_edges) bitset to
//! re-sum only the rows/columns whose demand changed since the last
//! refresh — O(changed rows), not O(grid).
//!
//! **Caveat**: demand commits are dirty-tracked; history and capacity
//! mutations ([`GridGraph::add_history_on_overflow`],
//! [`GridGraph::fill_capacity`], …) rewrite the grid's cached costs but
//! mark no row dirty. After mutating history or capacity, rebuild from
//! scratch with [`CostProber::build`] — the pattern stage never mutates
//! either mid-stage, so its per-batch refresh is sound.

use std::sync::atomic::{AtomicU64, Ordering};

use fastgr_gpu::HostPool;

use crate::layer::Direction;
use crate::{GridGraph, Point2};

/// Reusable dirty-harvest scratch; sized once at build so the steady-state
/// [`CostProber::refresh`] path allocates nothing.
#[derive(Debug)]
struct RebuildScratch {
    /// Global wire-row indices pending rebuild (deduplicated).
    rows: Vec<u32>,
    /// Generation stamp per global wire row.
    row_gen: Vec<u32>,
    /// Current harvest generation (stamps equal to this are "seen").
    generation: u32,
}

/// Prefix-sum cache of quantised wire costs over a [`GridGraph`].
///
/// See the module docs above for the exactness and staleness contracts.
///
/// # Example
///
/// ```
/// use fastgr_grid::{CostParams, CostProber, GridGraph, Point2};
///
/// # fn main() -> Result<(), fastgr_grid::GridError> {
/// let mut g = GridGraph::new(8, 8, 4, CostParams::default())?;
/// g.fill_capacity(4.0);
/// let prober = CostProber::build(&g);
/// let a = Point2::new(0, 2);
/// let b = Point2::new(5, 2);
/// // A probe is an O(1) prefix difference, bit-identical to the naive
/// // quantised walk.
/// assert_eq!(prober.wire_run_cost(1, a, b), g.wire_run_cost(1, a, b));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CostProber {
    width: usize,
    height: usize,
    layers: usize,
    /// `width * height`; one layer's worth of prefix cells.
    wh: usize,
    /// Preferred direction per layer (copied so probes never touch the
    /// graph).
    dirs: Vec<Direction>,
    /// Inclusive-exclusive prefix sums of quantised wire edge costs.
    ///
    /// Horizontal layer `l`, row `y`: `wire_pref[l*wh + y*w + x]` is the sum
    /// of edge costs for `x' < x` in that row. Vertical layer `l`, column
    /// `x`: `wire_pref[l*wh + x*h + y]` sums `y' < y`. Cells are atomics
    /// only so disjoint rows can be rebuilt from pool workers under
    /// `forbid(unsafe_code)`; all accesses are relaxed and the pool's
    /// scoped-thread join supplies the happens-before edge.
    wire_pref: Vec<AtomicU64>,
    /// Per-layer offset into the global wire-row numbering (horizontal
    /// layers contribute `height` rows, vertical layers `width` columns);
    /// length `layers + 1`.
    row_off: Vec<usize>,
    /// Number of builds + refreshes performed.
    builds: u64,
    /// Total rows/columns re-summed across all builds.
    rows_rebuilt: u64,
    scratch: RebuildScratch,
}

impl CostProber {
    /// Builds a full cache of `graph`'s current cost state, serially.
    pub fn build(graph: &GridGraph) -> Self {
        Self::build_with_pool(graph, &HostPool::new(1))
    }

    /// Builds a full cache of `graph`'s current cost state, rebuilding
    /// rows/columns in parallel on `pool`.
    pub fn build_with_pool(graph: &GridGraph, pool: &HostPool) -> Self {
        let (w, h) = (graph.width() as usize, graph.height() as usize);
        let layers = graph.num_layers() as usize;
        let wh = w * h;
        let dirs: Vec<Direction> = (0..layers)
            .map(|l| graph.layer(l as u8).direction)
            .collect();
        let mut row_off = Vec::with_capacity(layers + 1);
        let mut total_rows = 0usize;
        for dir in &dirs {
            row_off.push(total_rows);
            total_rows += match dir {
                Direction::Horizontal => h,
                Direction::Vertical => w,
            };
        }
        row_off.push(total_rows);
        let mut prober = Self {
            width: w,
            height: h,
            layers,
            wh,
            dirs,
            wire_pref: (0..layers * wh).map(|_| AtomicU64::new(0)).collect(),
            row_off,
            builds: 0,
            rows_rebuilt: 0,
            scratch: RebuildScratch {
                rows: Vec::with_capacity(total_rows),
                row_gen: vec![0; total_rows],
                generation: 0,
            },
        };
        prober.rebuild_all(graph, pool);
        prober
    }

    /// Re-sums every row/column (used at build time).
    fn rebuild_all(&mut self, graph: &GridGraph, pool: &HostPool) {
        let total_rows = self.row_off[self.layers];
        let this: &Self = self;
        pool.for_each(total_rows, |r| this.rebuild_wire_row_into(graph, r));
        self.builds += 1;
        self.rows_rebuilt += total_rows as u64;
    }

    /// Incrementally refreshes the cache against `graph`'s current costs,
    /// re-summing only the rows/columns marked dirty since the last
    /// [`GridGraph::clear_dirty`], then clears the dirty bitset.
    ///
    /// Steady-state allocation-free: the harvest buffers are sized at build
    /// time and reused. Rebuilds run in parallel on `pool`.
    pub fn refresh(&mut self, graph: &mut GridGraph, pool: &HostPool) {
        debug_assert_eq!(self.wh, graph.width() as usize * graph.height() as usize);
        // Advance the harvest generation; on wrap, reset the stamp arrays
        // so stale stamps can never collide with a reused generation value.
        self.scratch.generation = self.scratch.generation.wrapping_add(1);
        if self.scratch.generation == 0 {
            self.scratch.row_gen.fill(0);
            self.scratch.generation = 1;
        }
        let generation = self.scratch.generation;
        self.scratch.rows.clear();

        // Harvest dirty wire edges into distinct global rows. Bits arrive
        // in ascending order, so a single layer cursor suffices.
        let (w, h) = (self.width, self.height);
        let mut layer = 0usize;
        for (wi, word) in graph.dirty_words().iter().enumerate() {
            let mut bits = word.load(Ordering::Relaxed);
            while bits != 0 {
                let bit = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                while layer + 1 < self.layers && bit >= graph.edge_offset(layer + 1) {
                    layer += 1;
                }
                let idx = bit - graph.edge_offset(layer);
                let row = match self.dirs[layer] {
                    Direction::Horizontal => idx / (w - 1),
                    Direction::Vertical => idx / (h - 1),
                };
                let global_row = self.row_off[layer] + row;
                if self.scratch.row_gen[global_row] != generation {
                    self.scratch.row_gen[global_row] = generation;
                    self.scratch.rows.push(global_row as u32);
                }
            }
        }

        let this: &Self = self;
        let g: &GridGraph = graph;
        pool.for_each(this.scratch.rows.len(), |i| {
            this.rebuild_wire_row_into(g, this.scratch.rows[i] as usize);
        });
        self.builds += 1;
        self.rows_rebuilt += self.scratch.rows.len() as u64;
        graph.clear_dirty();
    }

    /// Re-sums one global wire row/column's prefix cells from `graph`.
    fn rebuild_wire_row_into(&self, graph: &GridGraph, global_row: usize) {
        let mut layer = self.layers - 1;
        while self.row_off[layer] > global_row {
            layer -= 1;
        }
        let r = global_row - self.row_off[layer];
        let (w, h) = (self.width, self.height);
        let mut acc = 0u64;
        match self.dirs[layer] {
            Direction::Horizontal => {
                let ebase = r * (w - 1);
                let pbase = layer * self.wh + r * w;
                for x in 0..w {
                    self.wire_pref[pbase + x].store(acc, Ordering::Relaxed);
                    if x + 1 < w {
                        acc += graph.wire_edge_cost_fixed_at(layer, ebase + x);
                    }
                }
            }
            Direction::Vertical => {
                let ebase = r * (h - 1);
                let pbase = layer * self.wh + r * h;
                for y in 0..h {
                    self.wire_pref[pbase + y].store(acc, Ordering::Relaxed);
                    if y + 1 < h {
                        acc += graph.wire_edge_cost_fixed_at(layer, ebase + y);
                    }
                }
            }
        }
    }

    /// O(1) probe of the cached cost `cw(a, b, l)` of a straight run on
    /// layer `l` — the prefix-difference equivalent of
    /// [`GridGraph::wire_run_cost`], bit-identical to it whenever the
    /// cache is fresh.
    ///
    /// Returns 0 for `a == b` and `u64::MAX` for runs that leave the grid
    /// or fight the layer's preferred direction, exactly like the naive
    /// walk.
    pub fn wire_run_cost(&self, l: u8, a: Point2, b: Point2) -> u64 {
        if a == b {
            return 0;
        }
        let (w, h) = (self.width, self.height);
        if (l as usize) >= self.layers
            || a.x as usize >= w
            || a.y as usize >= h
            || b.x as usize >= w
            || b.y as usize >= h
        {
            return u64::MAX;
        }
        // The run's row or column in `wire_pref`, and its span.
        let (row, lo, hi) = match self.dirs[l as usize] {
            Direction::Horizontal if a.y == b.y => (a.y as usize * w, a.x.min(b.x), a.x.max(b.x)),
            Direction::Vertical if a.x == b.x => (a.x as usize * h, a.y.min(b.y), a.y.max(b.y)),
            _ => return u64::MAX,
        };
        let pref = |i: u16| {
            self.wire_pref[l as usize * self.wh + row + i as usize].load(Ordering::Relaxed)
        };
        pref(hi) - pref(lo)
    }

    /// Number of cache builds + incremental refreshes performed.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Total rows/columns re-summed across all builds and refreshes (a
    /// full build counts every row and column).
    pub fn rows_rebuilt(&self) -> u64 {
        self.rows_rebuilt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostParams, Route, Segment, Via};

    fn graph() -> GridGraph {
        let mut g = GridGraph::new(10, 8, 5, CostParams::default()).expect("valid dims");
        g.fill_capacity(4.0);
        g
    }

    #[test]
    fn probe_matches_naive_fixed_walk_exactly() {
        let g = graph();
        let prober = CostProber::build(&g);
        for l in 0..5u8 {
            for y in 0..8u16 {
                let a = Point2::new(1, y);
                let b = Point2::new(7, y);
                assert_eq!(prober.wire_run_cost(l, a, b), g.wire_run_cost(l, a, b));
            }
        }
    }

    #[test]
    fn probe_matches_illegal_run_semantics() {
        let g = graph();
        let prober = CostProber::build(&g);
        let probe = |l, (ax, ay), (bx, by)| {
            prober.wire_run_cost(l, Point2::new(ax, ay), Point2::new(bx, by))
        };
        // Wrong direction (layer 1 is horizontal).
        assert_eq!(probe(1, (0, 0), (0, 4)), u64::MAX);
        // Diagonal.
        assert_eq!(probe(1, (0, 0), (3, 3)), u64::MAX);
        // Out of grid / out of layers.
        assert_eq!(probe(1, (0, 0), (40, 0)), u64::MAX);
        assert_eq!(probe(9, (0, 0), (3, 0)), u64::MAX);
        // Degenerate probes are free.
        assert_eq!(probe(1, (2, 2), (2, 2)), 0);
    }

    #[test]
    fn refresh_tracks_commits_incrementally() {
        let mut g = graph();
        g.clear_dirty();
        let pool = HostPool::new(1);
        let mut prober = CostProber::build_with_pool(&g, &pool);
        let full_rows = prober.rows_rebuilt();

        let mut route = Route::new();
        route.push_segment(Segment::new(1, Point2::new(1, 2), Point2::new(6, 2)));
        route.push_via(Via::new(Point2::new(6, 2), 1, 2));
        route.push_segment(Segment::new(2, Point2::new(6, 2), Point2::new(6, 5)));
        g.commit(&route).expect("valid");

        prober.refresh(&mut g, &pool);
        // One wire row on layer 1 and one column on layer 2; the via
        // needs no rebuild.
        assert_eq!(prober.rows_rebuilt(), full_rows + 2);
        assert_eq!(prober.builds(), 2);
        assert_eq!(g.dirty_edges(), 0);

        let a = Point2::new(0, 2);
        let b = Point2::new(9, 2);
        assert_eq!(prober.wire_run_cost(1, a, b), g.wire_run_cost(1, a, b));

        // A refresh with nothing dirty rebuilds nothing.
        prober.refresh(&mut g, &pool);
        assert_eq!(prober.rows_rebuilt(), full_rows + 2);
    }

    #[test]
    fn parallel_build_matches_serial_build() {
        let g = graph();
        let mut route = Route::new();
        route.push_segment(Segment::new(1, Point2::new(0, 3), Point2::new(8, 3)));
        g.commit(&route).expect("valid");
        let serial = CostProber::build(&g);
        let parallel = CostProber::build_with_pool(&g, &HostPool::new(4));
        for y in 0..8u16 {
            let a = Point2::new(0, y);
            let b = Point2::new(9, y);
            assert_eq!(
                serial.wire_run_cost(1, a, b),
                parallel.wire_run_cost(1, a, b)
            );
        }
    }
}
