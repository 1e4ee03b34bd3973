//! The routing-resource graph: capacities, demands and edge costs.
//!
//! Demand is stored in lock-free fixed-point [`AtomicU64`] cells so that
//! conflict-free rip-up-and-reroute tasks can commit and uncommit routes
//! concurrently through a shared `&GridGraph` — see
//! [`GridGraph::commit`] for the exact contract.

use std::fmt;
use std::ops::{Deref, DerefMut, Range};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::congestion::CongestionReport;
use crate::cost::CostParams;
use crate::error::GridError;
use crate::geom::{Point2, Rect};
use crate::layer::{Direction, LayerInfo};
use crate::route::{Route, Segment};

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
/// saturates; the zero-capacity sentinel is `overflow_weight * 16`), so
/// every route and DP sum stays far below `u64::MAX`, the domain's
/// infinity. Because quantisation happens *per edge* before summation,
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

/// A vector of `AtomicU64` cells that clones by value (a relaxed load of
/// each cell): the storage of every lock-free grid and prober array.
#[derive(Debug)]
pub(crate) struct AtomicCells(Vec<AtomicU64>);

impl AtomicCells {
    /// `n` cells holding `value`.
    pub(crate) fn new(n: usize, value: u64) -> Self {
        Self((0..n).map(|_| AtomicU64::new(value)).collect())
    }
}

impl Clone for AtomicCells {
    fn clone(&self) -> Self {
        Self(
            self.iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect(),
        )
    }
}

impl Deref for AtomicCells {
    type Target = [AtomicU64];

    fn deref(&self) -> &[AtomicU64] {
        &self.0
    }
}

impl DerefMut for AtomicCells {
    fn deref_mut(&mut self) -> &mut [AtomicU64] {
        &mut self.0
    }
}

/// Where the wire edges of a grid live: the one home of the index
/// arithmetic behind every run walker of [`GridGraph`] and the
/// [`crate::CostProber`].
///
/// Layer `l`'s plane is a stack of rows, each one contiguous range of
/// edge indices: a horizontal layer has one row of `width - 1` edges per
/// grid row, a vertical layer one row of `height - 1` edges per grid
/// column. Edge `k` of row `r` joins G-cells `k` and `k + 1` along the row
/// and has plane index `r * row_len + k`, so a straight run is one index
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WireLayout {
    width: u16,
    height: u16,
    layers: u8,
}

impl WireLayout {
    /// Number of layers, one plane each.
    pub(crate) fn layers(self) -> usize {
        self.layers as usize
    }

    /// Rows of layer `l`'s plane and edges per row.
    pub(crate) fn plane_shape(self, l: usize) -> (usize, usize) {
        let (w, h) = (self.width as usize, self.height as usize);
        match Direction::of_layer(l as u8) {
            Direction::Horizontal => (h, w - 1),
            Direction::Vertical => (w, h - 1),
        }
    }

    fn contains(self, p: Point2) -> bool {
        p.x < self.width && p.y < self.height
    }

    /// The row of G-cell `p` in layer `l`'s plane, its position along the
    /// row and the row's edge count; `None` off the grid or when `l` names
    /// no layer.
    fn locate(self, l: u8, p: Point2) -> Option<(usize, usize, usize)> {
        if l >= self.layers || !self.contains(p) {
            return None;
        }
        let (row, along) = match Direction::of_layer(l) {
            Direction::Horizontal => (p.y, p.x),
            Direction::Vertical => (p.x, p.y),
        };
        Some((row as usize, along as usize, self.plane_shape(l as usize).1))
    }

    /// The row of the straight run `a -> b` on layer `l` and the range of
    /// plane indices of its edges, in either endpoint order; an empty
    /// range when `a == b`. `None` when the run goes against the layer's
    /// direction, leaves the grid or `l` names no layer.
    pub(crate) fn run(self, l: u8, a: Point2, b: Point2) -> Option<(usize, Range<usize>)> {
        let (row, s, row_len) = self.locate(l, a)?;
        let (b_row, t, _) = self.locate(l, b)?;
        let base = row * row_len;
        (row == b_row).then(|| (row, base + s.min(t)..base + s.max(t)))
    }

    /// Plane index of the edge on layer `l` whose lower endpoint is `p`.
    fn edge(self, l: u8, p: Point2) -> Option<usize> {
        let (row, along, row_len) = self.locate(l, p)?;
        (along < row_len).then(|| row * row_len + along)
    }
}

/// Per-layer storage of wire-edge capacity, demand, history, cost and
/// dirty bits, indexed by [`WireLayout`].
///
/// Demand lives in atomic fixed-point cells (see [`demand_to_fixed`]) so
/// routes can be committed and ripped up from many threads without a lock.
/// Capacity and history stay plain `f64`: they are only mutated between
/// iterations through `&mut self`, so they never race with the shared-state
/// demand updates.
#[derive(Debug, Clone)]
struct Plane {
    capacity: Vec<f64>,
    demand: AtomicCells,
    /// Cached Q44.20 cost of each edge, rewritten whenever its demand,
    /// capacity or history changes (see [`GridGraph::commit`]).
    cost: AtomicCells,
    /// Accumulated negotiation history (NTHU-Route / Archer style): edges
    /// that keep overflowing accrue extra cost so later iterations learn to
    /// avoid them even when their instantaneous congestion looks tolerable.
    /// Empty (all zero) until the first nonzero history round.
    history: Vec<f64>,
    /// One bit per edge whose demand changed since the last
    /// [`GridGraph::clear_dirty`], set with relaxed atomics. It is only
    /// *read* between RRR iterations, after the executor has joined its
    /// workers, so the thread join supplies the happens-before edge the
    /// relaxed stores rely on.
    dirty: AtomicCells,
}

impl Plane {
    /// A plane of `n` edges with zero capacity and demand, priced.
    fn new(n: usize, params: &CostParams) -> Self {
        let mut plane = Self {
            capacity: vec![0.0; n],
            demand: AtomicCells::new(n, 0),
            cost: AtomicCells::new(n, 0),
            history: Vec::new(),
            dirty: AtomicCells::new(n.div_ceil(64), 0),
        };
        plane.reprice_all(params);
        plane
    }

    fn demand_at(&self, i: usize) -> f64 {
        fixed_to_demand(self.demand[i].load(Ordering::Relaxed))
    }

    fn history_at(&self, i: usize) -> f64 {
        self.history.get(i).copied().unwrap_or(0.0)
    }

    fn mark_dirty(&self, i: usize) {
        self.dirty[i >> 6].fetch_or(1u64 << (i & 63), Ordering::Relaxed);
    }

    fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i >> 6].load(Ordering::Relaxed) & (1u64 << (i & 63)) != 0
    }

    /// The quantised cost of edge `i` at raw fixed-point demand `raw` —
    /// the one wire-edge quantisation site.
    fn price(&self, params: &CostParams, i: usize, raw: u64) -> u64 {
        cost_to_fixed(
            params.wire_edge_cost(fixed_to_demand(raw), self.capacity[i]) + self.history_at(i),
        )
    }

    /// Rewrites the cached cost of edge `i` from its demand (quiescent).
    fn reprice(&mut self, params: &CostParams, i: usize) {
        let raw = *self.demand[i].get_mut();
        let cost = self.price(params, i, raw);
        *self.cost[i].get_mut() = cost;
    }

    /// Rewrites every cached cost of the plane (quiescent). Runs of edges
    /// with equal demand, capacity and history — a fresh plane is one run
    /// — share one evaluation of the cost model.
    fn reprice_all(&mut self, params: &CostParams) {
        let mut memo = None;
        for i in 0..self.cost.len() {
            let key = (
                *self.demand[i].get_mut(),
                self.capacity[i],
                self.history_at(i),
            );
            let cost = match memo {
                Some((k, c)) if k == key => c,
                _ => self.price(params, i, key.0),
            };
            memo = Some((key, cost));
            *self.cost[i].get_mut() = cost;
        }
    }
}

/// The quantised cost of one via cell at raw fixed-point demand `raw` —
/// the one via quantisation site.
fn via_price(params: &CostParams, raw: u64) -> u64 {
    cost_to_fixed(params.via_edge_cost(fixed_to_demand(raw)))
}

/// Adds `delta` to `demand`, then stores the price of the demand in
/// `cost`, lock-free under concurrent updates of the same cell.
///
/// Each writer stores the price of the demand it loaded, then re-loads the
/// demand and retries if it moved. Every access is `SeqCst`, so the
/// accesses of all writers fall in one total order. No demand change can
/// follow the last cost store in that order, because the writer that made
/// it stores a cost afterwards; so the last store's re-load read the final
/// demand, and that store priced it.
fn add_and_reprice(demand: &AtomicU64, cost: &AtomicU64, delta: u64, price: impl Fn(u64) -> u64) {
    demand.fetch_add(delta, Ordering::SeqCst);
    let mut raw = demand.load(Ordering::SeqCst);
    loop {
        cost.store(price(raw), Ordering::SeqCst);
        let now = demand.load(Ordering::SeqCst);
        if now == raw {
            return;
        }
        raw = now;
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
/// Every wire edge and via cell also caches its Q44.20 cost, rewritten by
/// each update of its demand, capacity or history, so reading a cost is a
/// load rather than a logistic evaluation.
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
/// // Horizontal run on M1 (horizontal layer): finite Q44.20 cost.
/// let c = g.wire_run_cost(1, Point2::new(0, 0), Point2::new(5, 0));
/// assert!(c < u64::MAX);
///
/// // A vertical run on a horizontal layer is not a legal pattern leg.
/// let c = g.wire_run_cost(1, Point2::new(0, 0), Point2::new(0, 5));
/// assert_eq!(c, u64::MAX);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GridGraph {
    layout: WireLayout,
    layers: Vec<LayerInfo>,
    params: CostParams,
    planes: Vec<Plane>,
    /// Via demand indexed `[boundary * w * h + y * w + x]` where `boundary`
    /// is the lower layer of the hop (0..layers-1).
    via_demand: AtomicCells,
    /// Cached Q44.20 cost of each via cell, same indexing.
    via_cost: AtomicCells,
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
        let layout = WireLayout {
            width,
            height,
            layers,
        };
        let planes = (0..layout.layers())
            .map(|l| {
                let (rows, row_len) = layout.plane_shape(l);
                Plane::new(rows * row_len, &params)
            })
            .collect();
        let via_cells = (layers as usize - 1) * width as usize * height as usize;
        Ok(Self {
            layout,
            layers: (0..layers).map(|l| LayerInfo::new(l, 0.0)).collect(),
            params,
            planes,
            via_demand: AtomicCells::new(via_cells, 0),
            via_cost: AtomicCells::new(via_cells, via_price(&params, 0)),
        })
    }

    /// Grid width in G-cells.
    pub fn width(&self) -> u16 {
        self.layout.width
    }

    /// Grid height in G-cells.
    pub fn height(&self) -> u16 {
        self.layout.height
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
        self.layout.contains(p)
    }

    /// The wire-edge layout every run walker indexes through.
    pub(crate) fn layout(&self) -> WireLayout {
        self.layout
    }

    /// Sets every wire edge on every *routable* layer (1..) to `capacity`.
    pub fn fill_capacity(&mut self, capacity: f64) {
        for (l, plane) in self.planes.iter_mut().enumerate() {
            if l == 0 {
                continue;
            }
            plane.capacity.fill(capacity);
            plane.reprice_all(&self.params);
            self.layers[l].default_capacity = capacity;
        }
    }

    /// Sets every wire edge of layer `l` to `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn set_layer_capacity(&mut self, l: u8, capacity: f64) {
        let plane = &mut self.planes[l as usize];
        plane.capacity.fill(capacity);
        plane.reprice_all(&self.params);
        self.layers[l as usize].default_capacity = capacity;
    }

    /// Scales the capacity of all wire edges of layer `l` whose *lower*
    /// endpoint lies in `region` — used to model blockages/macros.
    pub fn scale_region_capacity(&mut self, l: u8, region: Rect, factor: f64) {
        let layout = self.layout;
        let plane = &mut self.planes[l as usize];
        // Each grid row (horizontal layer) or column (vertical layer) of
        // the region is one run, over the edges whose lower endpoint lies
        // in it. `t` swaps a point to `(along, across)` coordinates and back.
        let horizontal = Direction::of_layer(l) == Direction::Horizontal;
        let t = |p: Point2| if horizontal { p } else { Point2::new(p.y, p.x) };
        let dims = t(Point2::new(layout.width, layout.height));
        let (lo, hi) = (t(region.lo), t(region.hi));
        let end = hi.x.saturating_add(1).min(dims.x - 1).max(lo.x);
        for across in lo.y..=hi.y.min(dims.y - 1) {
            let (a, b) = (Point2::new(lo.x, across), Point2::new(end, across));
            if let Some((_, edges)) = layout.run(l, t(a), t(b)) {
                for i in edges {
                    plane.capacity[i] *= factor;
                    plane.reprice(&self.params, i);
                }
            }
        }
    }

    /// Capacity of the wire edge on layer `l` leaving `p` in the preferred
    /// direction, or `None` if no such edge exists.
    pub fn wire_capacity(&self, l: u8, p: Point2) -> Option<f64> {
        self.layout
            .edge(l, p)
            .map(|i| self.planes[l as usize].capacity[i])
    }

    /// Demand of the wire edge on layer `l` leaving `p` in the preferred
    /// direction, or `None` if no such edge exists.
    pub fn wire_demand(&self, l: u8, p: Point2) -> Option<f64> {
        self.layout
            .edge(l, p)
            .map(|i| self.planes[l as usize].demand_at(i))
    }

    /// Via demand through the boundary between layers `l` and `l + 1` at
    /// G-cell `p`, or `None` when out of range.
    pub fn via_demand(&self, l: u8, p: Point2) -> Option<f64> {
        self.via_index(l, p)
            .map(|i| fixed_to_demand(self.via_demand[i].load(Ordering::Relaxed)))
    }

    fn via_index(&self, lower: u8, p: Point2) -> Option<usize> {
        let (w, h) = (self.layout.width as usize, self.layout.height as usize);
        ((lower as usize) < self.layers.len() - 1 && self.contains(p))
            .then(|| lower as usize * w * h + p.y as usize * w + p.x as usize)
    }

    /// Cached Q44.20 cost of the single wire edge on layer `l` leaving `p`
    /// in the layer's preferred direction (`cw` of the paper for one unit
    /// edge, history included), or `None` when no such edge exists.
    pub fn wire_edge_cost_fixed(&self, l: u8, p: Point2) -> Option<u64> {
        self.layout
            .edge(l, p)
            .map(|i| self.planes[l as usize].cost[i].load(Ordering::Relaxed))
    }

    /// Capacity and cached Q44.20 cost of the wire edge on layer `l` leaving
    /// `p` in the layer's preferred direction, from one edge lookup, or
    /// `None` when no such edge exists.
    pub fn wire_edge_capacity_cost_fixed(&self, l: u8, p: Point2) -> Option<(f64, u64)> {
        self.layout.edge(l, p).map(|i| {
            let plane = &self.planes[l as usize];
            (plane.capacity[i], plane.cost[i].load(Ordering::Relaxed))
        })
    }

    /// Cached Q44.20 cost of the via edge between layers `l` and `l + 1` at
    /// `p`, or `None` when out of range.
    pub fn via_edge_cost_fixed(&self, l: u8, p: Point2) -> Option<u64> {
        self.via_index(l, p).map(|i| self.via_cost_fixed_at(i))
    }

    /// Accumulated history cost of the wire edge leaving `p` on layer `l`.
    pub fn wire_history(&self, l: u8, p: Point2) -> Option<f64> {
        self.layout
            .edge(l, p)
            .map(|i| self.planes[l as usize].history_at(i))
    }

    /// Adds `increment` history cost to every currently overflowing wire
    /// edge (one negotiation round). Returns the number of edges penalised.
    pub fn add_history_on_overflow(&mut self, increment: f64) -> usize {
        let mut penalised = 0;
        for plane in self.planes.iter_mut().skip(1) {
            for i in 0..plane.demand.len() {
                if fixed_to_demand(*plane.demand[i].get_mut()) > plane.capacity[i] {
                    penalised += 1;
                    if increment != 0.0 {
                        if plane.history.is_empty() {
                            plane.history = vec![0.0; plane.demand.len()];
                        }
                        plane.history[i] += increment;
                        plane.reprice(&self.params, i);
                    }
                }
            }
        }
        penalised
    }

    /// Cached Q44.20 costs of the edges of row `row` of layer `l`'s plane
    /// (see [`WireLayout`]), in order: the prefix-sum
    /// [`crate::CostProber`] sums these loads, the run walks below the
    /// same cells, so they agree bit-for-bit.
    pub(crate) fn wire_row_costs(&self, l: usize, row: usize) -> impl Iterator<Item = u64> + '_ {
        let row_len = self.layout.plane_shape(l).1;
        self.planes[l].cost[row * row_len..(row + 1) * row_len]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// Cached Q44.20 cost of the via hop between layers `l` and `l + 1` at
    /// flat G-cell index `pos` (`y * width + x`).
    fn via_edge_cost_fixed_at(&self, l: usize, pos: usize) -> u64 {
        self.via_cost_fixed_at(l * self.layout.width as usize * self.layout.height as usize + pos)
    }

    /// Cached Q44.20 cost of the via cell at flat `via_demand` index `i`.
    fn via_cost_fixed_at(&self, i: usize) -> u64 {
        self.via_cost[i].load(Ordering::Relaxed)
    }

    /// Number of cached wire and via costs that differ from a fresh
    /// quantisation of the cost model at the current demand, capacity and
    /// history: always 0 once concurrent updates have been joined. The
    /// cache self-check behind the RRR stage's `validate` mode.
    pub fn stale_cost_cells(&self) -> usize {
        let wires = self.planes.iter().map(|plane| {
            (0..plane.cost.len())
                .filter(|&i| {
                    let raw = plane.demand[i].load(Ordering::Relaxed);
                    plane.cost[i].load(Ordering::Relaxed) != plane.price(&self.params, i, raw)
                })
                .count()
        });
        let vias = self
            .via_demand
            .iter()
            .zip(self.via_cost.iter())
            .filter(|(d, c)| {
                c.load(Ordering::Relaxed) != via_price(&self.params, d.load(Ordering::Relaxed))
            })
            .count();
        wires.sum::<usize>() + vias
    }

    /// Cost `cw(a, b, l)` of a straight run on layer `l` between aligned
    /// G-cells `a` and `b`, in the Q44.20 quantised cost domain: each unit
    /// edge is quantised with `cost_to_fixed` *before* summation.
    ///
    /// Returns 0 for `a == b`; returns `u64::MAX` when the run does not
    /// follow the layer's preferred direction, leaves the grid, or `l` is
    /// out of range — so the value can be fed to the pattern-routing DP
    /// directly, where illegal candidates simply never win the `min`.
    ///
    /// This is the naive walk the prefix-sum [`crate::CostProber`] matches
    /// bit-for-bit, and the arithmetic the pattern DP uses in its direct
    /// (prober-off) mode, so probed and direct routing agree exactly.
    pub fn wire_run_cost(&self, l: u8, a: Point2, b: Point2) -> u64 {
        if a == b {
            return 0;
        }
        match self.layout.run(l, a, b) {
            Some((_, edges)) => self.planes[l as usize].cost[edges]
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum(),
            None => u64::MAX,
        }
    }

    /// Cost `cv(p, l1, l2)` of a via stack at `p` from layer `l1` to `l2`,
    /// in the Q44.20 quantised cost domain; the naive walk that differences
    /// of [`GridGraph::via_prefix_into`] rows match bit-for-bit.
    ///
    /// Returns 0 when `l1 == l2`; `u64::MAX` when out of range.
    pub fn via_stack_cost(&self, p: Point2, l1: u8, l2: u8) -> u64 {
        let (lo, hi) = (l1.min(l2), l1.max(l2));
        if hi as usize >= self.layers.len() || !self.contains(p) {
            return u64::MAX;
        }
        let pos = p.y as usize * self.layout.width as usize + p.x as usize;
        (lo..hi)
            .map(|l| self.via_edge_cost_fixed_at(l as usize, pos))
            .sum()
    }

    /// Fills `out` with the `L` via-stack prefix costs of G-cell `p`:
    /// `out[l]` is the cost of the stack from layer 0 up to `l`, so
    /// `cv(p, a, b) = |out[b] − out[a]|` for every layer pair — one pass
    /// over the cell's `L − 1` cached via costs in place of `L²` via-stack
    /// walks.
    ///
    /// The row is non-decreasing, and its differences are bit-identical to
    /// [`GridGraph::via_stack_cost`]. Off-grid cells fill `out` with
    /// `u64::MAX`. Reuses `out`'s capacity.
    pub fn via_prefix_into(&self, p: Point2, out: &mut Vec<u64>) {
        out.clear();
        let layers = self.layers.len();
        if !self.contains(p) {
            out.resize(layers, u64::MAX);
            return;
        }
        let pos = p.y as usize * self.layout.width as usize + p.x as usize;
        let mut acc = 0u64;
        out.push(acc);
        for l in 0..layers - 1 {
            acc += self.via_edge_cost_fixed_at(l, pos);
            out.push(acc);
        }
    }

    /// Adds `amount` demand (may be negative) to every unit wire edge of the
    /// straight run `a -> b` on layer `l`. Rejects out-of-bounds coordinates
    /// and wrong-direction runs.
    fn add_wire_demand(&self, l: u8, a: Point2, b: Point2, amount: f64) -> Result<(), GridError> {
        let Some((_, edges)) = self.layout.run(l, a, b) else {
            let on_grid = self.contains(a) && self.contains(b);
            return Err(if (l as usize) < self.layers.len() && on_grid {
                GridError::WrongDirection {
                    segment: Segment::new(l, a, b),
                }
            } else {
                GridError::OutOfBounds {
                    point: if self.contains(a) { b } else { a },
                    layer: Some(l),
                }
            });
        };
        let fx = demand_to_fixed(amount) as u64;
        let plane = &self.planes[l as usize];
        for i in edges {
            add_and_reprice(&plane.demand[i], &plane.cost[i], fx, |raw| {
                plane.price(&self.params, i, raw)
            });
            plane.mark_dirty(i);
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
            add_and_reprice(&self.via_demand[i], &self.via_cost[i], fx, |raw| {
                via_price(&self.params, raw)
            });
        }
        Ok(())
    }

    /// Commits the demand of `route` (adds 1 track to every covered edge)
    /// through a shared reference.
    ///
    /// Every covered edge gains one track of demand via a `fetch_add` on
    /// its fixed-point cell, then rewrites its cached cost from the new
    /// demand; tasks whose routes touch disjoint edges never contend, and
    /// overlapping updates are exact commutative integer additions, so the
    /// final demand state is bit-identical to any sequential ordering of
    /// the same operations. Each cost writer re-checks the demand after its
    /// store and retries if it moved, so once every update has returned
    /// the cached costs equal those of the sequential ordering too.
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
        self.planes
            .iter()
            .flat_map(|plane| plane.dirty.iter())
            .map(|w| u64::from(w.load(Ordering::Relaxed).count_ones()))
            .sum()
    }

    /// Resets the dirty-edge tracker; subsequent demand updates start a
    /// new dirty set. Requires `&mut self` and therefore quiescence.
    pub fn clear_dirty(&mut self) {
        for plane in &mut self.planes {
            plane.dirty.iter_mut().for_each(|w| *w.get_mut() = 0);
        }
    }

    /// The `(layer, row)` of every dirty wire edge (see [`WireLayout`]), in
    /// ascending layer and plane-index order, so the dirty edges of one
    /// row arrive back to back.
    pub(crate) fn dirty_rows(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.planes.iter().enumerate().flat_map(move |(l, plane)| {
            let row_len = self.layout.plane_shape(l).1;
            plane.dirty.iter().enumerate().flat_map(move |(w, word)| {
                let mut bits = word.load(Ordering::Relaxed);
                std::iter::from_fn(move || {
                    let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                    bits &= bits - 1;
                    Some((l, ((w << 6) + bit) / row_len))
                })
            })
        })
    }

    /// Every wire edge covered by `route`, as its plane and plane index.
    /// Segments that map to no run (off-grid or wrong-direction) cover
    /// none.
    fn route_edges<'a>(&'a self, route: &'a Route) -> impl Iterator<Item = (&'a Plane, usize)> {
        route.segments().iter().flat_map(move |s| {
            let edges = self.layout.run(s.layer, s.from, s.to);
            let edges = edges.map_or(0..0, |(_, edges)| edges);
            edges.map(move |i| (&self.planes[s.layer as usize], i))
        })
    }

    /// Whether any unit wire edge covered by `route` is in the current
    /// dirty set — i.e. whether the route's overflow status may have
    /// changed since [`GridGraph::clear_dirty`].
    ///
    /// Conservative: may return `true` for a route whose overflow status is
    /// unchanged, never `false` for one whose status changed (every demand
    /// update marks its edge).
    pub fn route_touches_dirty(&self, route: &Route) -> bool {
        self.route_edges(route).any(|(plane, i)| plane.is_dirty(i))
    }

    /// Evaluates the current cost of `route` against the present demand
    /// state (counting the route's own demand if committed): the sum of its
    /// quantised wire-run and via-stack walks (`u64::MAX` if any of them
    /// is illegal).
    pub fn route_cost(&self, route: &Route) -> u64 {
        let wires = route
            .segments()
            .iter()
            .map(|s| self.wire_run_cost(s.layer, s.from, s.to));
        let vias = route
            .vias()
            .iter()
            .map(|v| self.via_stack_cost(v.at, v.lo, v.hi));
        wires.chain(vias).fold(0, u64::saturating_add)
    }

    /// Whether any unit wire edge covered by `route` is overflowing
    /// (demand > capacity) in the current state.
    pub fn route_has_overflow(&self, route: &Route) -> bool {
        self.route_edges(route)
            .any(|(plane, i)| plane.demand_at(i) > plane.capacity[i])
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
        let (w, h) = (self.width(), self.height());
        let mut heat = vec![0.0f64; w as usize * h as usize];
        for (l, plane) in self.planes.iter().enumerate().skip(1) {
            for y in 0..h {
                for x in 0..w {
                    let p = Point2::new(x, y);
                    if let Some(i) = self.layout.edge(l as u8, p) {
                        if plane.capacity[i] > 0.0 {
                            let u = plane.demand_at(i) / plane.capacity[i];
                            let cell = y as usize * w as usize + x as usize;
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

impl fmt::Display for GridGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grid {}x{} with {} layers",
            self.width(),
            self.height(),
            self.layers.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Via;

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
        assert!(g.wire_run_cost(1, Point2::new(0, 0), Point2::new(4, 0)) < u64::MAX);
        assert_eq!(
            g.wire_run_cost(1, Point2::new(0, 0), Point2::new(0, 4)),
            u64::MAX
        );
        assert!(g.wire_run_cost(2, Point2::new(0, 0), Point2::new(0, 4)) < u64::MAX);
        assert_eq!(
            g.wire_run_cost(2, Point2::new(0, 0), Point2::new(4, 0)),
            u64::MAX
        );
        // Diagonal runs are never legal.
        assert_eq!(
            g.wire_run_cost(1, Point2::new(0, 0), Point2::new(3, 3)),
            u64::MAX
        );
        // Zero-length runs are free on any layer.
        assert_eq!(g.wire_run_cost(2, Point2::new(5, 5), Point2::new(5, 5)), 0);
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
        assert_eq!(c5, 5 * c1);
        // The walk sums the per-edge quantised costs.
        let quantised = g
            .wire_edge_cost_fixed(1, Point2::new(0, 0))
            .expect("edge exists");
        assert_eq!(c1, quantised);
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
        assert_eq!(three, 3 * one);
        assert_eq!(g.via_stack_cost(p, 2, 2), 0);
        assert_eq!(g.via_stack_cost(p, 1, 9), u64::MAX);
    }

    #[test]
    fn via_prefix_row_differences_are_stack_probes() {
        let g = graph();
        let mut route = Route::new();
        route.push_via(Via::new(Point2::new(3, 4), 0, 3));
        g.commit(&route).expect("valid");
        let mut row = Vec::new();
        let p = Point2::new(3, 4);
        g.via_prefix_into(p, &mut row);
        assert_eq!(row.len(), 5);
        for a in 0..5u8 {
            for b in 0..5u8 {
                let diff = row[b as usize].abs_diff(row[a as usize]);
                assert_eq!(diff, g.via_stack_cost(p, a, b));
            }
        }
        g.via_prefix_into(Point2::new(40, 0), &mut row);
        assert_eq!(row, vec![u64::MAX; 5]);
    }

    #[test]
    fn region_blockage_raises_cost() {
        let mut g = graph();
        let free = g.wire_run_cost(1, Point2::new(0, 8), Point2::new(4, 8));
        g.scale_region_capacity(1, Rect::new(Point2::new(0, 0), Point2::new(5, 5)), 0.0);
        let blocked = g.wire_run_cost(1, Point2::new(0, 3), Point2::new(4, 3));
        assert!(blocked > free * 10);
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
            g.wire_edge_cost_fixed(1, Point2::new(0, 0))
                .expect("edge exists")
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
        assert!(haunted.abs_diff(quiet + cost_to_fixed(10.0)) <= 1);
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
        assert_eq!(g.route_cost(&route), expected);
    }
}
