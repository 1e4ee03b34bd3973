//! The routing-resource graph: capacities, demands and edge costs.
//!
//! Demand is stored in lock-free fixed-point [`AtomicU64`] cells so that
//! conflict-free rip-up-and-reroute tasks can commit and uncommit routes
//! concurrently through a shared `&GridGraph` — see
//! [`GridGraph::commit`] for the exact contract.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::congestion::CongestionReport;
use crate::cost::CostParams;
use crate::error::GridError;
use crate::geom::{Point2, Rect};
use crate::layer::{Direction, LayerInfo};
use crate::route::Route;

/// Number of fractional bits in the fixed-point demand representation.
///
/// Demand updates are commutative exact-integer additions, so the final
/// state of any concurrent mix of commits and uncommits is bit-identical to
/// the same multiset of updates applied sequentially — the property the
/// atomic-parity proptest pins down. A 2^-20 resolution keeps the common
/// track increments (±1.0 and small dyadic fractions) exactly representable.
const DEMAND_FRAC_BITS: u32 = 20;
const DEMAND_SCALE: f64 = (1u64 << DEMAND_FRAC_BITS) as f64;

/// Converts a (possibly negative) demand amount to its fixed-point form.
fn demand_to_fixed(amount: f64) -> i64 {
    debug_assert!(amount.is_finite());
    (amount * DEMAND_SCALE).round() as i64
}

/// Converts a fixed-point cell (two's-complement `i64` stored in `u64`)
/// back to a demand value.
fn fixed_to_demand(raw: u64) -> f64 {
    raw as i64 as f64 / DEMAND_SCALE
}

/// Number of fractional bits in the fixed-point (Q44.20) *cost* domain
/// shared by [`GridGraph::wire_run_cost`], the prefix-sum
/// [`crate::CostProber`] and the maze router's per-window cost snapshot.
///
/// Edge costs are nonnegative and bounded (the logistic congestion model
/// saturates; the zero-capacity sentinel is `overflow_weight * 16`), so a
/// row-length prefix sum stays far below 2^53 and converts back to `f64`
/// exactly. Because quantisation happens *per edge* before summation,
/// integer prefix differences are bit-identical to naive integer summation
/// — the exactness property the prober's proptests pin down.
pub(crate) const COST_FRAC_BITS: u32 = 20;
const COST_SCALE: f64 = (1u64 << COST_FRAC_BITS) as f64;

/// Quantises a finite nonnegative edge cost to the Q44.20 cost domain —
/// the one float-to-fixed cost conversion of the workspace.
pub fn cost_to_fixed(cost: f64) -> u64 {
    debug_assert!(cost.is_finite() && cost >= 0.0);
    (cost * COST_SCALE).round() as u64
}

/// Converts a Q44.20 cost sum back to `f64` (exact below 2^53).
pub fn fixed_cost_to_f64(raw: u64) -> f64 {
    raw as f64 / COST_SCALE
}

/// Per-layer storage of wire-edge capacity, demand and history cost.
///
/// Demand lives in atomic fixed-point cells (see [`demand_to_fixed`]) so
/// routes can be committed and ripped up from many threads without a lock.
/// Capacity and history stay plain `f64`: they are only mutated between
/// iterations through `&mut self`, so they never race with the shared-state
/// demand updates.
#[derive(Debug)]
struct Plane {
    capacity: Vec<f64>,
    demand: Vec<AtomicU64>,
    /// Accumulated negotiation history (NTHU-Route / Archer style): edges
    /// that keep overflowing accrue extra cost so later iterations learn to
    /// avoid them even when their instantaneous congestion looks tolerable.
    history: Vec<f64>,
}

impl Plane {
    fn demand_at(&self, i: usize) -> f64 {
        fixed_to_demand(self.demand[i].load(Ordering::Relaxed))
    }
}

impl Clone for Plane {
    fn clone(&self) -> Self {
        Self {
            capacity: self.capacity.clone(),
            demand: self
                .demand
                .iter()
                .map(|d| AtomicU64::new(d.load(Ordering::Relaxed)))
                .collect(),
            history: self.history.clone(),
        }
    }
}

fn zeroed_atomics(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// Lock-free tracker of the wire edges whose demand changed since the last
/// [`GridGraph::clear_dirty`].
///
/// One bit per edge (planes concatenated in layer order), set with relaxed
/// atomics; the tracker is only *read* between RRR iterations, after the
/// executor has joined its workers, so the thread join supplies the
/// happens-before edge the relaxed stores rely on.
#[derive(Debug)]
struct DirtyTracker {
    words: Vec<AtomicU64>,
}

impl DirtyTracker {
    fn new(bits: usize) -> Self {
        Self {
            words: zeroed_atomics(bits.div_ceil(64)),
        }
    }

    /// Marks bit `bit` dirty.
    fn mark(&self, bit: usize) {
        self.words[bit >> 6].fetch_or(1u64 << (bit & 63), Ordering::Relaxed);
    }

    fn is_set(&self, bit: usize) -> bool {
        self.words[bit >> 6].load(Ordering::Relaxed) & (1u64 << (bit & 63)) != 0
    }

    fn clear(&mut self) {
        for w in &mut self.words {
            *w.get_mut() = 0;
        }
    }
}

impl Clone for DirtyTracker {
    fn clone(&self) -> Self {
        Self {
            words: self
                .words
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// The 3-D global-routing grid graph `G(V, E)`.
///
/// One vertex per G-cell per metal layer. Wire edges join adjacent G-cells
/// on the same layer *along the layer's preferred direction only*; via edges
/// join vertically stacked G-cells on adjacent layers. Each wire edge tracks
/// a `capacity` (available tracks) and a `demand` (tracks consumed by
/// committed routes); via edges track demand against a per-G-cell via
/// capacity from [`CostParams`].
///
/// Demand is quantised to multiples of 2^-20 tracks and stored in atomic
/// cells, so [`GridGraph::commit`] / [`GridGraph::uncommit`]
/// work through a shared reference and concurrent updates from disjoint
/// tasks never contend on a lock. All read accessors return the quantised
/// value; integral and small dyadic amounts round-trip exactly.
///
/// Layer 0 is the pin layer: it carries no routing capacity by convention
/// (its capacity defaults to 0 and [`GridGraph::fill_capacity`] leaves it
/// untouched), so routes must immediately via up from pins.
///
/// # Example
///
/// ```
/// use fastgr_grid::{CostParams, GridGraph, Point2};
///
/// # fn main() -> Result<(), fastgr_grid::GridError> {
/// let mut g = GridGraph::new(8, 8, 4, CostParams::default())?;
/// g.fill_capacity(4.0);
///
/// // Horizontal run on M1 (horizontal layer): finite cost.
/// let c = g.wire_run_cost(1, Point2::new(0, 0), Point2::new(5, 0));
/// assert!(c.is_finite());
///
/// // A vertical run on a horizontal layer is not a legal pattern leg.
/// let c = g.wire_run_cost(1, Point2::new(0, 0), Point2::new(0, 5));
/// assert!(c.is_infinite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GridGraph {
    width: u16,
    height: u16,
    layers: Vec<LayerInfo>,
    params: CostParams,
    planes: Vec<Plane>,
    /// First dirty-bitset bit of each plane's wire edges (prefix sums of
    /// plane sizes, pin layer included for uniform indexing).
    edge_offsets: Vec<usize>,
    /// Via demand indexed `[boundary * w * h + y * w + x]` where `boundary`
    /// is the lower layer of the hop (0..layers-1).
    via_demand: Vec<AtomicU64>,
    dirty: DirtyTracker,
    /// Dirty bits over `via_demand` cells, same indexing, consumed by the
    /// [`crate::CostProber`] to rebuild only the via columns whose demand
    /// changed since the last [`GridGraph::clear_dirty`].
    via_dirty: DirtyTracker,
}

impl GridGraph {
    /// Creates a grid with `layers` metal layers, all wire capacities zero.
    ///
    /// Layer directions alternate with M1 horizontal
    /// ([`Direction::of_layer`]).
    ///
    /// # Errors
    ///
    /// Returns [`GridError::InvalidDimensions`] when `width < 2`,
    /// `height < 2` or `layers < 2`.
    pub fn new(width: u16, height: u16, layers: u8, params: CostParams) -> Result<Self, GridError> {
        if width < 2 || height < 2 || layers < 2 {
            return Err(GridError::InvalidDimensions {
                width,
                height,
                layers,
            });
        }
        let infos: Vec<LayerInfo> = (0..layers).map(|l| LayerInfo::new(l, 0.0)).collect();
        let mut edge_offsets = Vec::with_capacity(infos.len());
        let mut total_edges = 0usize;
        let planes = infos
            .iter()
            .map(|info| {
                let n = match info.direction {
                    Direction::Horizontal => (width as usize - 1) * height as usize,
                    Direction::Vertical => width as usize * (height as usize - 1),
                };
                edge_offsets.push(total_edges);
                total_edges += n;
                Plane {
                    capacity: vec![0.0; n],
                    demand: zeroed_atomics(n),
                    history: vec![0.0; n],
                }
            })
            .collect();
        let via_cells = (layers as usize - 1) * width as usize * height as usize;
        let via_demand = zeroed_atomics(via_cells);
        Ok(Self {
            width,
            height,
            layers: infos,
            params,
            planes,
            edge_offsets,
            via_demand,
            dirty: DirtyTracker::new(total_edges),
            via_dirty: DirtyTracker::new(via_cells),
        })
    }

    /// Grid width in G-cells.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Grid height in G-cells.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Number of metal layers (including the unroutable pin layer 0).
    pub fn num_layers(&self) -> u8 {
        self.layers.len() as u8
    }

    /// Static description of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn layer(&self, l: u8) -> &LayerInfo {
        &self.layers[l as usize]
    }

    /// The cost-model parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Whether `p` lies on the grid.
    pub fn contains(&self, p: Point2) -> bool {
        p.x < self.width && p.y < self.height
    }

    /// Sets every wire edge on every *routable* layer (1..) to `capacity`.
    pub fn fill_capacity(&mut self, capacity: f64) {
        for (l, plane) in self.planes.iter_mut().enumerate() {
            if l == 0 {
                continue;
            }
            plane.capacity.fill(capacity);
            self.layers[l].default_capacity = capacity;
        }
    }

    /// Sets every wire edge of layer `l` to `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn set_layer_capacity(&mut self, l: u8, capacity: f64) {
        self.planes[l as usize].capacity.fill(capacity);
        self.layers[l as usize].default_capacity = capacity;
    }

    /// Scales the capacity of all wire edges of layer `l` whose *lower*
    /// endpoint lies in `region` — used to model blockages/macros.
    pub fn scale_region_capacity(&mut self, l: u8, region: Rect, factor: f64) {
        let dir = self.layers[l as usize].direction;
        let (w, h) = (self.width, self.height);
        let plane = &mut self.planes[l as usize];
        for y in region.lo.y..=region.hi.y.min(h - 1) {
            for x in region.lo.x..=region.hi.x.min(w - 1) {
                if let Some(idx) = Self::edge_index_raw(dir, w, h, Point2::new(x, y)) {
                    plane.capacity[idx] *= factor;
                }
            }
        }
    }

    /// Index of the wire edge whose lower endpoint is `p`, if it exists.
    fn edge_index_raw(dir: Direction, w: u16, h: u16, p: Point2) -> Option<usize> {
        match dir {
            Direction::Horizontal => {
                (p.x + 1 < w && p.y < h).then(|| p.y as usize * (w as usize - 1) + p.x as usize)
            }
            Direction::Vertical => {
                (p.y + 1 < h && p.x < w).then(|| p.x as usize * (h as usize - 1) + p.y as usize)
            }
        }
    }

    fn edge_index(&self, l: u8, p: Point2) -> Option<usize> {
        Self::edge_index_raw(
            self.layers[l as usize].direction,
            self.width,
            self.height,
            p,
        )
    }

    /// Capacity of the wire edge on layer `l` leaving `p` in the preferred
    /// direction, or `None` if no such edge exists.
    pub fn wire_capacity(&self, l: u8, p: Point2) -> Option<f64> {
        self.edge_index(l, p)
            .map(|i| self.planes[l as usize].capacity[i])
    }

    /// Demand of the wire edge on layer `l` leaving `p` in the preferred
    /// direction, or `None` if no such edge exists.
    pub fn wire_demand(&self, l: u8, p: Point2) -> Option<f64> {
        self.edge_index(l, p)
            .map(|i| self.planes[l as usize].demand_at(i))
    }

    /// Via demand through the boundary between layers `l` and `l + 1` at
    /// G-cell `p`, or `None` when out of range.
    pub fn via_demand(&self, l: u8, p: Point2) -> Option<f64> {
        self.via_index(l, p)
            .map(|i| fixed_to_demand(self.via_demand[i].load(Ordering::Relaxed)))
    }

    fn via_index(&self, lower: u8, p: Point2) -> Option<usize> {
        ((lower as usize) < self.layers.len() - 1 && self.contains(p)).then(|| {
            lower as usize * self.width as usize * self.height as usize
                + p.y as usize * self.width as usize
                + p.x as usize
        })
    }

    /// Q44.20 cost of the single wire edge on layer `l` leaving `p` in the
    /// layer's preferred direction (`cw` of the paper for one unit edge,
    /// history included), or `None` when no such edge exists.
    pub fn wire_edge_cost_fixed(&self, l: u8, p: Point2) -> Option<u64> {
        self.edge_index(l, p)
            .map(|i| self.wire_edge_cost_fixed_at(l as usize, i))
    }

    /// Q44.20 cost of the via edge between layers `l` and `l + 1` at `p`,
    /// or `None` when out of range.
    pub fn via_edge_cost_fixed(&self, l: u8, p: Point2) -> Option<u64> {
        self.via_index(l, p).map(|i| self.via_cost_fixed_at(i))
    }

    /// Accumulated history cost of the wire edge leaving `p` on layer `l`.
    pub fn wire_history(&self, l: u8, p: Point2) -> Option<f64> {
        self.edge_index(l, p)
            .map(|i| self.planes[l as usize].history[i])
    }

    /// Adds `increment` history cost to every currently overflowing wire
    /// edge (one negotiation round). Returns the number of edges penalised.
    pub fn add_history_on_overflow(&mut self, increment: f64) -> usize {
        let mut penalised = 0;
        for plane in self.planes.iter_mut().skip(1) {
            for i in 0..plane.demand.len() {
                if fixed_to_demand(*plane.demand[i].get_mut()) > plane.capacity[i] {
                    plane.history[i] += increment;
                    penalised += 1;
                }
            }
        }
        penalised
    }

    /// Q44.20 quantised cost of the wire edge at flat plane index `i` on
    /// layer `l` (congestion model + history, quantised per edge). Used by
    /// the prefix-sum [`crate::CostProber`], the quantised reference walks
    /// below and [`GridGraph::wire_edge_cost_fixed`]; keeping a single
    /// quantisation site guarantees they agree bit-for-bit.
    pub(crate) fn wire_edge_cost_fixed_at(&self, l: usize, i: usize) -> u64 {
        let plane = &self.planes[l];
        cost_to_fixed(
            self.params
                .wire_edge_cost(plane.demand_at(i), plane.capacity[i])
                + plane.history[i],
        )
    }

    /// Q44.20 quantised cost of the via hop between layers `l` and `l + 1`
    /// at flat G-cell index `pos` (`y * width + x`).
    pub(crate) fn via_edge_cost_fixed_at(&self, l: usize, pos: usize) -> u64 {
        self.via_cost_fixed_at(l * self.width as usize * self.height as usize + pos)
    }

    /// Q44.20 quantised cost of the via cell at flat `via_demand` index `i`.
    fn via_cost_fixed_at(&self, i: usize) -> u64 {
        cost_to_fixed(
            self.params
                .via_edge_cost(fixed_to_demand(self.via_demand[i].load(Ordering::Relaxed))),
        )
    }

    /// First dirty-bitset bit of layer `l`'s wire edges.
    pub(crate) fn edge_offset(&self, l: usize) -> usize {
        self.edge_offsets[l]
    }

    /// Raw words of the wire-edge dirty bitset (for dirty harvesting).
    pub(crate) fn dirty_words(&self) -> &[AtomicU64] {
        &self.dirty.words
    }

    /// Raw words of the via-cell dirty bitset (for dirty harvesting).
    pub(crate) fn via_dirty_words(&self) -> &[AtomicU64] {
        &self.via_dirty.words
    }

    /// Cost `cw(a, b, l)` of a straight run on layer `l` between aligned
    /// G-cells `a` and `b`, in the Q44.20 quantised cost domain: each unit
    /// edge is quantised with `cost_to_fixed` *before* summation and the
    /// integer total converted back to `f64` (exact below 2^53).
    ///
    /// Returns 0 for `a == b`; returns `f64::INFINITY` when the run does not
    /// follow the layer's preferred direction, leaves the grid, or `l` is
    /// out of range — so the value can be fed to the pattern-routing DP
    /// directly, where illegal candidates simply never win the `min`.
    ///
    /// This is the naive walk the prefix-sum [`crate::CostProber`] matches
    /// bit-for-bit, and the arithmetic the pattern DP uses in its direct
    /// (prober-off) mode, so probed and direct routing agree exactly.
    pub fn wire_run_cost(&self, l: u8, a: Point2, b: Point2) -> f64 {
        if a == b {
            return 0.0;
        }
        if (l as usize) >= self.layers.len() || !self.contains(a) || !self.contains(b) {
            return f64::INFINITY;
        }
        let dir = self.layers[l as usize].direction;
        let run_dir = if a.y == b.y {
            Direction::Horizontal
        } else if a.x == b.x {
            Direction::Vertical
        } else {
            return f64::INFINITY;
        };
        if dir != run_dir {
            return f64::INFINITY;
        }
        let mut total = 0u64;
        match dir {
            Direction::Horizontal => {
                let (x0, x1) = (a.x.min(b.x), a.x.max(b.x));
                let base = a.y as usize * (self.width as usize - 1);
                for x in x0..x1 {
                    total += self.wire_edge_cost_fixed_at(l as usize, base + x as usize);
                }
            }
            Direction::Vertical => {
                let (y0, y1) = (a.y.min(b.y), a.y.max(b.y));
                let base = a.x as usize * (self.height as usize - 1);
                for y in y0..y1 {
                    total += self.wire_edge_cost_fixed_at(l as usize, base + y as usize);
                }
            }
        }
        fixed_cost_to_f64(total)
    }

    /// Cost `cv(p, l1, l2)` of a via stack at `p` from layer `l1` to `l2`,
    /// in the Q44.20 quantised cost domain; the naive walk that differences
    /// of [`crate::CostProber::via_prefix_into`] rows match bit-for-bit.
    ///
    /// Returns 0 when `l1 == l2`; `f64::INFINITY` when out of range.
    pub fn via_stack_cost(&self, p: Point2, l1: u8, l2: u8) -> f64 {
        let (lo, hi) = (l1.min(l2), l1.max(l2));
        if hi as usize >= self.layers.len() || !self.contains(p) {
            return f64::INFINITY;
        }
        let pos = p.y as usize * self.width as usize + p.x as usize;
        let mut total = 0u64;
        for l in lo..hi {
            total += self.via_edge_cost_fixed_at(l as usize, pos);
        }
        fixed_cost_to_f64(total)
    }

    /// Adds `amount` demand (may be negative) to every unit wire edge of the
    /// straight run `a -> b` on layer `l`. Rejects out-of-bounds coordinates
    /// and wrong-direction runs.
    fn add_wire_demand(&self, l: u8, a: Point2, b: Point2, amount: f64) -> Result<(), GridError> {
        if a == b {
            return Ok(());
        }
        if (l as usize) >= self.layers.len() || !self.contains(a) || !self.contains(b) {
            return Err(GridError::OutOfBounds {
                point: if self.contains(a) { b } else { a },
                layer: Some(l),
            });
        }
        let seg = crate::route::Segment::new(l, a, b);
        let dir = self.layers[l as usize].direction;
        let seg_dir = if seg.is_horizontal() {
            Direction::Horizontal
        } else {
            Direction::Vertical
        };
        if dir != seg_dir {
            return Err(GridError::WrongDirection { segment: seg });
        }
        let fx = demand_to_fixed(amount) as u64;
        let plane = &self.planes[l as usize];
        let offset = self.edge_offsets[l as usize];
        for (from, _to) in seg.unit_edges() {
            let idx = self.edge_index(l, from).expect("validated in-bounds");
            plane.demand[idx].fetch_add(fx, Ordering::Relaxed);
            self.dirty.mark(offset + idx);
        }
        Ok(())
    }

    /// Adds `amount` via demand for every hop of the stack `l1..l2` at `p`.
    /// Rejects out-of-bounds coordinates and out-of-range spans.
    fn add_via_demand(&self, p: Point2, l1: u8, l2: u8, amount: f64) -> Result<(), GridError> {
        let (lo, hi) = (l1.min(l2), l1.max(l2));
        if !self.contains(p) {
            return Err(GridError::OutOfBounds {
                point: p,
                layer: Some(lo),
            });
        }
        if hi as usize >= self.layers.len() {
            return Err(GridError::InvalidViaSpan { lo, hi });
        }
        let fx = demand_to_fixed(amount) as u64;
        for l in lo..hi {
            let i = self.via_index(l, p).expect("validated in-bounds");
            self.via_demand[i].fetch_add(fx, Ordering::Relaxed);
            self.via_dirty.mark(i);
        }
        Ok(())
    }

    /// Commits the demand of `route` (adds 1 track to every covered edge)
    /// through a shared reference.
    ///
    /// Every covered edge gains one track of demand via a relaxed
    /// `fetch_add` on its fixed-point cell; tasks whose routes touch
    /// disjoint edges never contend, and overlapping updates are exact
    /// commutative integer additions, so the final demand state is
    /// bit-identical to any sequential ordering of the same operations.
    ///
    /// **Benign-race contract**: a concurrent *reader* (a maze search
    /// costing edges inside its window margin) may observe another task's
    /// route half-committed. This is the congestion-staleness approximation
    /// the paper makes for bounding-box-disjoint tasks — the task-graph
    /// schedule serializes tasks whose inflated boxes overlap, and margin
    /// reads outside the box only perturb costs, never correctness.
    /// Aggregate accounting ([`GridGraph::report`],
    /// [`GridGraph::route_has_overflow`], history updates) must only run
    /// between iterations, after worker threads have been joined.
    ///
    /// # Errors
    ///
    /// Fails without partial effects being rolled back if the route contains
    /// out-of-grid or wrong-direction geometry; validate routes first when
    /// that matters (router-produced routes are always valid).
    pub fn commit(&self, route: &Route) -> Result<(), GridError> {
        self.apply_shared(route, 1.0)
    }

    /// Removes the demand of a previously committed `route`; the exact
    /// inverse of [`GridGraph::commit`], with the same contract.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GridGraph::commit`].
    pub fn uncommit(&self, route: &Route) -> Result<(), GridError> {
        self.apply_shared(route, -1.0)
    }

    fn apply_shared(&self, route: &Route, amount: f64) -> Result<(), GridError> {
        for s in route.segments() {
            self.add_wire_demand(s.layer, s.from, s.to, amount)?;
        }
        for v in route.vias() {
            self.add_via_demand(v.at, v.lo, v.hi, amount)?;
        }
        Ok(())
    }

    /// Number of distinct wire edges whose demand changed since the last
    /// [`GridGraph::clear_dirty`] (vias are excluded: they have no capacity
    /// and can never overflow).
    pub fn dirty_edges(&self) -> u64 {
        self.dirty
            .words
            .iter()
            .map(|w| u64::from(w.load(Ordering::Relaxed).count_ones()))
            .sum()
    }

    /// Resets the dirty-edge tracker (wire *and* via bits); subsequent
    /// demand updates start a new dirty set. Requires `&mut self` and
    /// therefore quiescence.
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
        self.via_dirty.clear();
    }

    /// Whether any unit wire edge covered by `route` is in the current
    /// dirty set — i.e. whether the route's overflow status may have
    /// changed since [`GridGraph::clear_dirty`].
    ///
    /// Conservative: may return `true` for a route whose overflow status is
    /// unchanged, never `false` for one whose status changed (every demand
    /// update marks its edge).
    pub fn route_touches_dirty(&self, route: &Route) -> bool {
        for s in route.segments() {
            let offset = self.edge_offsets[s.layer as usize];
            for (from, _to) in s.unit_edges() {
                if let Some(i) = self.edge_index(s.layer, from) {
                    if self.dirty.is_set(offset + i) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Evaluates the current cost of `route` against the present demand
    /// state (counting the route's own demand if committed): the sum of its
    /// quantised wire-run and via-stack walks.
    pub fn route_cost(&self, route: &Route) -> f64 {
        let mut total = 0.0;
        for s in route.segments() {
            total += self.wire_run_cost(s.layer, s.from, s.to);
        }
        for v in route.vias() {
            total += self.via_stack_cost(v.at, v.lo, v.hi);
        }
        total
    }

    /// Whether any unit wire edge covered by `route` is overflowing
    /// (demand > capacity) in the current state.
    pub fn route_has_overflow(&self, route: &Route) -> bool {
        for s in route.segments() {
            let l = s.layer as usize;
            for (from, _) in s.unit_edges() {
                if let Some(i) = self.edge_index(s.layer, from) {
                    if self.planes[l].demand_at(i) > self.planes[l].capacity[i] {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Aggregated congestion statistics over the whole grid.
    pub fn report(&self) -> CongestionReport {
        let mut r = CongestionReport::default();
        for plane in self.planes.iter().skip(1) {
            for (d, &c) in plane.demand.iter().zip(&plane.capacity) {
                let d = fixed_to_demand(d.load(Ordering::Relaxed));
                r.total_wire_demand += d;
                r.total_wire_capacity += c;
                if d > c {
                    r.overflow += d - c;
                    r.overflowing_edges += 1;
                }
                if c > 0.0 {
                    r.max_utilization = r.max_utilization.max(d / c);
                }
            }
        }
        r.total_via_demand = self
            .via_demand
            .iter()
            .map(|d| fixed_to_demand(d.load(Ordering::Relaxed)))
            .sum();
        r
    }

    /// Per-G-cell 2-D congestion heat: for every cell the maximum
    /// utilisation (demand/capacity) over the wire edges leaving it on any
    /// routable layer. Row-major `height x width`.
    pub fn congestion_heatmap(&self) -> Vec<f64> {
        let mut heat = vec![0.0f64; self.width as usize * self.height as usize];
        for (l, plane) in self.planes.iter().enumerate().skip(1) {
            for y in 0..self.height {
                for x in 0..self.width {
                    let p = Point2::new(x, y);
                    if let Some(i) =
                        Self::edge_index_raw(self.layers[l].direction, self.width, self.height, p)
                    {
                        if plane.capacity[i] > 0.0 {
                            let u = plane.demand_at(i) / plane.capacity[i];
                            let cell = y as usize * self.width as usize + x as usize;
                            if u > heat[cell] {
                                heat[cell] = u;
                            }
                        }
                    }
                }
            }
        }
        heat
    }
}

impl Clone for GridGraph {
    fn clone(&self) -> Self {
        Self {
            width: self.width,
            height: self.height,
            layers: self.layers.clone(),
            params: self.params,
            planes: self.planes.clone(),
            edge_offsets: self.edge_offsets.clone(),
            via_demand: self
                .via_demand
                .iter()
                .map(|d| AtomicU64::new(d.load(Ordering::Relaxed)))
                .collect(),
            dirty: self.dirty.clone(),
            via_dirty: self.via_dirty.clone(),
        }
    }
}

impl fmt::Display for GridGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grid {}x{} with {} layers",
            self.width,
            self.height,
            self.layers.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{Segment, Via};

    fn graph() -> GridGraph {
        let mut g = GridGraph::new(10, 10, 5, CostParams::default()).expect("valid dims");
        g.fill_capacity(4.0);
        g
    }

    #[test]
    fn rejects_degenerate_dimensions() {
        assert!(matches!(
            GridGraph::new(1, 10, 5, CostParams::default()),
            Err(GridError::InvalidDimensions { .. })
        ));
        assert!(matches!(
            GridGraph::new(10, 10, 1, CostParams::default()),
            Err(GridError::InvalidDimensions { .. })
        ));
    }

    #[test]
    fn pin_layer_keeps_zero_capacity() {
        let g = graph();
        assert_eq!(g.wire_capacity(0, Point2::new(3, 3)), Some(0.0));
        assert_eq!(g.wire_capacity(1, Point2::new(3, 3)), Some(4.0));
    }

    #[test]
    fn run_cost_respects_preferred_direction() {
        let g = graph();
        // M1 horizontal, M2 vertical.
        assert!(g
            .wire_run_cost(1, Point2::new(0, 0), Point2::new(4, 0))
            .is_finite());
        assert!(g
            .wire_run_cost(1, Point2::new(0, 0), Point2::new(0, 4))
            .is_infinite());
        assert!(g
            .wire_run_cost(2, Point2::new(0, 0), Point2::new(0, 4))
            .is_finite());
        assert!(g
            .wire_run_cost(2, Point2::new(0, 0), Point2::new(4, 0))
            .is_infinite());
        // Diagonal runs are never legal.
        assert!(g
            .wire_run_cost(1, Point2::new(0, 0), Point2::new(3, 3))
            .is_infinite());
        // Zero-length runs are free on any layer.
        assert_eq!(
            g.wire_run_cost(2, Point2::new(5, 5), Point2::new(5, 5)),
            0.0
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "checks the walk against one edge"
    )]
    fn run_cost_scales_with_length_when_uncongested() {
        let g = graph();
        let c1 = g.wire_run_cost(1, Point2::new(0, 0), Point2::new(1, 0));
        let c5 = g.wire_run_cost(1, Point2::new(0, 0), Point2::new(5, 0));
        // Equal edges quantise identically, so the sum is exact.
        assert_eq!(c5, 5.0 * c1);
        // The walk sums the per-edge quantised costs.
        let quantised = g
            .wire_edge_cost_fixed(1, Point2::new(0, 0))
            .expect("edge exists");
        assert_eq!(c1, fixed_cost_to_f64(quantised));
    }

    #[test]
    fn commit_uncommit_is_reversible() {
        let g = graph();
        let mut route = Route::new();
        route.push_segment(Segment::new(1, Point2::new(1, 2), Point2::new(6, 2)));
        route.push_via(Via::new(Point2::new(6, 2), 1, 2));
        route.push_segment(Segment::new(2, Point2::new(6, 2), Point2::new(6, 7)));

        let before = g.report();
        g.commit(&route).expect("valid route");
        let mid = g.report();
        assert_eq!(mid.total_wire_demand, before.total_wire_demand + 10.0);
        assert_eq!(mid.total_via_demand, before.total_via_demand + 1.0);
        g.uncommit(&route).expect("valid route");
        let after = g.report();
        assert_eq!(after.total_wire_demand, before.total_wire_demand);
        assert_eq!(after.total_via_demand, before.total_via_demand);
    }

    #[test]
    fn fixed_point_round_trips_track_amounts() {
        for amount in [1.0, -1.0, 0.5, 2.25, -3.75, 1024.0] {
            let fx = demand_to_fixed(amount);
            assert_eq!(fixed_to_demand(fx as u64), amount);
        }
        // Negative totals round-trip through the two's-complement store.
        let cell = AtomicU64::new(0);
        cell.fetch_add(demand_to_fixed(-2.5) as u64, Ordering::Relaxed);
        cell.fetch_add(demand_to_fixed(1.0) as u64, Ordering::Relaxed);
        assert_eq!(fixed_to_demand(cell.load(Ordering::Relaxed)), -1.5);
    }

    #[test]
    fn dirty_tracking_follows_demand_updates() {
        let mut g = graph();
        assert_eq!(g.dirty_edges(), 0);

        let mut route = Route::new();
        route.push_segment(Segment::new(1, Point2::new(2, 2), Point2::new(5, 2)));
        g.commit(&route).expect("valid");
        assert_eq!(g.dirty_edges(), 3);
        assert!(g.route_touches_dirty(&route));

        // Re-committing the same edges does not grow the dirty count.
        g.commit(&route).expect("valid");
        assert_eq!(g.dirty_edges(), 3);

        // A distant route covers no dirty edge.
        let mut far = Route::new();
        far.push_segment(Segment::new(2, Point2::new(9, 6), Point2::new(9, 9)));
        assert!(!g.route_touches_dirty(&far));

        // A route crossing the dirty run but covering only clean edges.
        let mut near = Route::new();
        near.push_segment(Segment::new(2, Point2::new(3, 1), Point2::new(3, 4)));
        assert!(!g.route_touches_dirty(&near));

        g.clear_dirty();
        assert_eq!(g.dirty_edges(), 0);
        assert!(!g.route_touches_dirty(&route));

        // Uncommits dirty their edges too.
        g.uncommit(&route).expect("valid");
        assert_eq!(g.dirty_edges(), 3);
        assert!(g.route_touches_dirty(&route));
    }

    #[test]
    fn clone_preserves_demand_and_dirty_state() {
        let g = graph();
        let mut route = Route::new();
        route.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(4, 0)));
        g.commit(&route).expect("valid");
        let copy = g.clone();
        assert_eq!(copy.wire_demand(1, Point2::new(1, 0)), Some(1.0));
        assert_eq!(copy.dirty_edges(), g.dirty_edges());
        assert!(copy.route_touches_dirty(&route));
        // The copy's demand cells are independent of the original's.
        copy.commit(&route).expect("valid");
        assert_eq!(g.wire_demand(1, Point2::new(1, 0)), Some(1.0));
        assert_eq!(copy.wire_demand(1, Point2::new(1, 0)), Some(2.0));
    }

    #[test]
    fn committing_raises_cost() {
        let g = graph();
        let from = Point2::new(0, 5);
        let to = Point2::new(7, 5);
        let base = g.wire_run_cost(1, from, to);
        let mut route = Route::new();
        route.push_segment(Segment::new(1, from, to));
        for _ in 0..4 {
            g.commit(&route).expect("valid");
        }
        assert!(g.wire_run_cost(1, from, to) > base);
    }

    #[test]
    fn overflow_detection_tracks_capacity() {
        let g = graph();
        let mut route = Route::new();
        route.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(3, 0)));
        for _ in 0..4 {
            g.commit(&route).expect("valid");
            assert!(!g.route_has_overflow(&route));
        }
        g.commit(&route).expect("valid");
        assert!(g.route_has_overflow(&route));
        let r = g.report();
        assert_eq!(r.overflowing_edges, 3);
        assert!((r.overflow - 3.0).abs() < 1e-9);
        assert!((r.shorts() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn wrong_direction_commit_is_rejected() {
        let g = graph();
        let mut route = Route::new();
        route.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(0, 3)));
        assert!(matches!(
            g.commit(&route),
            Err(GridError::WrongDirection { .. })
        ));
    }

    #[test]
    fn out_of_bounds_demand_is_rejected() {
        let g = graph();
        assert!(g
            .add_wire_demand(1, Point2::new(0, 0), Point2::new(50, 0), 1.0)
            .is_err());
        assert!(g.add_via_demand(Point2::new(50, 0), 1, 2, 1.0).is_err());
        assert!(matches!(
            g.add_via_demand(Point2::new(1, 1), 1, 9, 1.0),
            Err(GridError::InvalidViaSpan { .. })
        ));
    }

    #[test]
    fn via_stack_cost_sums_hops() {
        let g = graph();
        let p = Point2::new(4, 4);
        let one = g.via_stack_cost(p, 1, 2);
        let three = g.via_stack_cost(p, 1, 4);
        assert_eq!(three, 3.0 * one);
        assert_eq!(g.via_stack_cost(p, 2, 2), 0.0);
        assert!(g.via_stack_cost(p, 1, 9).is_infinite());
    }

    #[test]
    fn region_blockage_raises_cost() {
        let mut g = graph();
        let free = g.wire_run_cost(1, Point2::new(0, 8), Point2::new(4, 8));
        g.scale_region_capacity(1, Rect::new(Point2::new(0, 0), Point2::new(5, 5)), 0.0);
        let blocked = g.wire_run_cost(1, Point2::new(0, 3), Point2::new(4, 3));
        assert!(blocked > free * 10.0);
    }

    #[test]
    fn heatmap_reflects_commits() {
        let g = graph();
        let mut route = Route::new();
        route.push_segment(Segment::new(1, Point2::new(2, 2), Point2::new(6, 2)));
        g.commit(&route).expect("valid");
        g.commit(&route).expect("valid");
        let heat = g.congestion_heatmap();
        let idx = 2 * 10 + 3;
        assert!((heat[idx] - 0.5).abs() < 1e-9);
        assert_eq!(heat[0], 0.0);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "reads the cost of one edge")]
    fn history_raises_cost_only_on_overflowed_edges() {
        let mut g = graph();
        let edge_cost = |g: &GridGraph| {
            fixed_cost_to_f64(
                g.wire_edge_cost_fixed(1, Point2::new(0, 0))
                    .expect("edge exists"),
            )
        };
        let quiet = edge_cost(&g);
        // Overflow one edge.
        let mut route = Route::new();
        route.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(1, 0)));
        for _ in 0..5 {
            g.commit(&route).expect("valid");
        }
        let penalised = g.add_history_on_overflow(10.0);
        assert_eq!(penalised, 1);
        assert_eq!(g.wire_history(1, Point2::new(0, 0)), Some(10.0));
        assert_eq!(g.wire_history(1, Point2::new(5, 5)), Some(0.0));
        // The history persists even after the demand is removed.
        for _ in 0..5 {
            g.uncommit(&route).expect("valid");
        }
        let haunted = edge_cost(&g);
        // Both sides are quantised per edge: at most one Q44.20 unit apart.
        assert!((haunted - (quiet + 10.0)).abs() < 1e-5);
    }

    #[test]
    fn history_accumulates_over_rounds() {
        let mut g = graph();
        let mut route = Route::new();
        route.push_segment(Segment::new(2, Point2::new(3, 0), Point2::new(3, 4)));
        for _ in 0..5 {
            g.commit(&route).expect("valid");
        }
        g.add_history_on_overflow(1.5);
        g.add_history_on_overflow(1.5);
        assert_eq!(g.wire_history(2, Point2::new(3, 1)), Some(3.0));
    }

    #[test]
    fn route_cost_matches_manual_sum() {
        let g = graph();
        let mut route = Route::new();
        route.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(4, 0)));
        route.push_via(Via::new(Point2::new(4, 0), 1, 2));
        route.push_segment(Segment::new(2, Point2::new(4, 0), Point2::new(4, 3)));
        let expected = g.wire_run_cost(1, Point2::new(0, 0), Point2::new(4, 0))
            + g.via_stack_cost(Point2::new(4, 0), 1, 2)
            + g.wire_run_cost(2, Point2::new(4, 0), Point2::new(4, 3));
        assert!((g.route_cost(&route) - expected).abs() < 1e-9);
    }
}
