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
//! edge is prefix-summed along its row of the grid's wire-edge layout (a
//! grid row on horizontal layers, a grid column on vertical ones). A probe
//! maps its run to an edge-index range through the same
//! [`WireLayout::run`] the grid's walks use, and reads the two prefix
//! cells at the range's ends.
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
//! consumes the grid's [dirty bitsets](GridGraph::dirty_edges) to re-sum
//! only the rows whose demand changed since the last refresh —
//! O(changed rows), not O(grid). Dirty edges arrive in ascending plane
//! order and each row is one contiguous index range, so a row's edges
//! arrive back to back and the harvest deduplicates a row by comparing it
//! with the last one pushed. A build is a refresh with every row listed.
//!
//! **Caveat**: demand commits are dirty-tracked; history and capacity
//! mutations ([`GridGraph::add_history_on_overflow`],
//! [`GridGraph::fill_capacity`], …) rewrite the grid's cached costs but
//! mark no row dirty. After mutating history or capacity, rebuild from
//! scratch with [`CostProber::build`] — the pattern stage never mutates
//! either mid-stage, so its per-batch refresh is sound.

use std::sync::atomic::Ordering;

use fastgr_gpu::HostPool;

use crate::graph::{AtomicCells, WireLayout};
use crate::{GridGraph, Point2};

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
    /// The grid's wire-edge layout, copied so probes never touch the graph.
    layout: WireLayout,
    /// Per layer, one prefix cell more per row than the row has edges:
    /// the cell of the plane's edge `i` in row `r` is `i + r` and sums the
    /// costs of the row's edges before it, so a run's cost is the
    /// difference of the cells at its range's two ends. Cells are atomics
    /// only so disjoint rows can be rebuilt from pool workers under
    /// `forbid(unsafe_code)`; all accesses are relaxed and the pool's
    /// scoped-thread join supplies the happens-before edge.
    pref: Vec<AtomicCells>,
    /// `(layer, row)` pairs to re-sum. A build lists every row, so the
    /// vector never grows on a refresh.
    rows: Vec<(usize, usize)>,
    /// Number of builds + refreshes performed.
    builds: u64,
    /// Total rows re-summed across all builds.
    rows_rebuilt: u64,
}

impl CostProber {
    /// Builds a full cache of `graph`'s current cost state, serially.
    pub fn build(graph: &GridGraph) -> Self {
        Self::build_with_pool(graph, &HostPool::new(1))
    }

    /// Builds a full cache of `graph`'s current cost state, rebuilding
    /// rows in parallel on `pool`: a refresh with every row listed.
    pub fn build_with_pool(graph: &GridGraph, pool: &HostPool) -> Self {
        let layout = graph.layout();
        let shapes = (0..layout.layers()).map(|l| layout.plane_shape(l));
        let mut prober = Self {
            layout,
            pref: shapes
                .clone()
                .map(|(rows, row_len)| AtomicCells::new(rows * (row_len + 1), 0))
                .collect(),
            rows: shapes
                .enumerate()
                .flat_map(|(l, (rows, _))| (0..rows).map(move |r| (l, r)))
                .collect(),
            builds: 0,
            rows_rebuilt: 0,
        };
        prober.rebuild_rows(graph, pool);
        prober
    }

    /// Incrementally refreshes the cache against `graph`'s current costs,
    /// re-summing only the rows marked dirty since the last
    /// [`GridGraph::clear_dirty`], then clears the dirty bitsets.
    ///
    /// Steady-state allocation-free: the row list is sized at build time
    /// and reused. Rebuilds run in parallel on `pool`.
    pub fn refresh(&mut self, graph: &mut GridGraph, pool: &HostPool) {
        debug_assert_eq!(self.layout, graph.layout());
        // Dirty edges arrive in ascending plane order and every row is one
        // contiguous index range, so a row's repeats are back to back.
        self.rows.clear();
        for row in graph.dirty_rows() {
            if self.rows.last() != Some(&row) {
                self.rows.push(row);
            }
        }
        self.rebuild_rows(graph, pool);
        graph.clear_dirty();
    }

    /// Re-sums the prefix cells of every listed row from `graph`.
    fn rebuild_rows(&mut self, graph: &GridGraph, pool: &HostPool) {
        let this: &Self = self;
        pool.for_each(this.rows.len(), |k| {
            let (l, r) = this.rows[k];
            let row_len = this.layout.plane_shape(l).1;
            let cells = &this.pref[l][r * (row_len + 1)..(r + 1) * (row_len + 1)];
            cells[0].store(0, Ordering::Relaxed);
            let mut acc = 0u64;
            #[expect(
                clippy::disallowed_methods,
                reason = "the prefix sums are built from every edge's cached cost"
            )]
            for (cell, cost) in cells[1..].iter().zip(graph.wire_row_costs(l, r)) {
                acc += cost;
                cell.store(acc, Ordering::Relaxed);
            }
        });
        self.builds += 1;
        self.rows_rebuilt += self.rows.len() as u64;
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
        let Some((row, edges)) = self.layout.run(l, a, b) else {
            return u64::MAX;
        };
        let pref = &self.pref[l as usize];
        pref[edges.end + row].load(Ordering::Relaxed)
            - pref[edges.start + row].load(Ordering::Relaxed)
    }

    /// Number of cache builds + incremental refreshes performed.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Total rows re-summed across all builds and refreshes (a full build
    /// counts every row of every plane).
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
