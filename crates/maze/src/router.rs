//! The windowed multi-terminal 3-D shortest-path router.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use std::ops::AddAssign;

use fastgr_grid::{cost_to_fixed, Direction, GridGraph, Point2, Point3, Rect, Route, Segment, Via};

/// The bound window's A* cost floors, computed once per bind and shared by
/// every two-pin search of the net.
///
/// Column boundary `c` lies between window columns `c` and `c + 1`. Its
/// floor is the cheapest usable horizontal wire edge that crosses it, over
/// every row and horizontal layer of the window, or `unit_wire` when no
/// usable edge crosses it; row boundaries take the same floor over vertical
/// edges. `cols` and `rows` hold the prefix sums of those floors, so
/// `cols[x] - cols[tx]` is a lower bound on the wire cost of any walk from
/// column `x` to column `tx`. Every array is zero, and so is the potential,
/// for plain Dijkstra.
#[derive(Debug, Default)]
struct Floors {
    /// The window's low corner; `cols` and `rows` are indexed from it.
    lo: Point2,
    /// Q44.20 prefix sums of the column-boundary floors (`cols[0] = 0`).
    cols: Vec<u64>,
    /// Q44.20 prefix sums of the row-boundary floors (`rows[0] = 0`).
    rows: Vec<u64>,
    /// Q44.20 floor of one via.
    via: u64,
    /// Lowest routable layer of each direction (the top layer when none).
    first_horizontal: u64,
    first_vertical: u64,
}

impl Floors {
    /// The potential of a search toward `(target, layer 0)`.
    fn toward(&self, target: Point2) -> Potential {
        Potential {
            target,
            col: self.cols[(target.x - self.lo.x) as usize],
            row: self.rows[(target.y - self.lo.y) as usize],
        }
    }

    /// A lower bound on the cost from `p` to `pot`'s target: the prefix-sum
    /// wire term plus the via term.
    ///
    /// The via term counts the vias down to layer 0 through the lowest layer
    /// `m >= max(l, 1)` such that layers `1..=m` hold a horizontal layer if
    /// `x` differs from the target and a vertical one if `y` does: `2m - l`
    /// vias, or `l` when the vertex lies above the target G-cell. A wire step
    /// across a boundary costs at least that boundary's floor and leaves the
    /// via term as it was, and a via step costs at least the via floor, so
    /// the potential is consistent and admissible on the window's snapshot.
    fn at(&self, pot: &Potential, p: Point3) -> u64 {
        let col = self.cols[(p.x - self.lo.x) as usize];
        let row = self.rows[(p.y - self.lo.y) as usize];
        let wire = col.abs_diff(pot.col) + row.abs_diff(pot.row);
        let (dx, dy) = (p.x != pot.target.x, p.y != pot.target.y);
        let l = p.layer as u64;
        let vias = if !dx && !dy {
            l
        } else {
            let mut m = l.max(1);
            if dx {
                m = m.max(self.first_horizontal);
            }
            if dy {
                m = m.max(self.first_vertical);
            }
            2 * m - l
        };
        wire + vias * self.via
    }
}

/// Goal-oriented A* potential of one two-pin search: the target and its
/// entries in the window's prefix sums. [`Floors::at`] evaluates it.
#[derive(Debug, Clone, Copy)]
struct Potential {
    target: Point2,
    /// `cols[tx]` of the bound [`Floors`].
    col: u64,
    /// `rows[ty]` of the bound [`Floors`].
    row: u64,
}

/// Replaces each boundary floor of `prefix[1..]` (`u64::MAX` when no usable
/// edge crosses the boundary, which then counts at `unit`) by the prefix
/// sum up to it; `prefix[0]` is 0.
fn prefix_sum(prefix: &mut [u64], unit: u64) {
    let mut sum = 0u64;
    for floor in prefix {
        let step = if *floor == u64::MAX { unit } else { *floor };
        sum = sum.saturating_add(step);
        *floor = sum;
    }
}

/// Monotone radix heap over `u64` keys (Ahuja, Mehlhorn, Orlin & Tarjan
/// 1990) that pops in exact `(key, idx)` order: the smallest key first, and
/// among equal keys the smallest index first.
///
/// Every pushed key must be at least `last`, the key popped last; the A*
/// potential is consistent, so the search's keys are. A key equal to `last`
/// waits in `bottom`, a min-heap of indices. Any other key waits in bucket
/// `b`, the highest bit in which it differs from `last`. When `bottom` runs
/// dry, the minimum of the lowest non-empty bucket becomes `last`, and that
/// bucket's entries move to `bottom` or to lower buckets, so an entry moves
/// at most 64 times. Push is O(1) outside `bottom`; pop is amortised
/// O(log C) for keys spanning C.
#[derive(Debug)]
struct RadixHeap {
    /// The key popped last (0 after `clear`).
    last: u64,
    /// Indices whose key equals `last`, smallest first.
    bottom: BinaryHeap<Reverse<u32>>,
    /// `(key, idx)` entries by the highest bit of `key ^ last`.
    buckets: [Vec<(u64, u32)>; 64],
    /// Bit `b` is set when `buckets[b]` is non-empty.
    occupied: u64,
}

impl Default for RadixHeap {
    fn default() -> Self {
        Self {
            last: 0,
            bottom: BinaryHeap::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
        }
    }
}

impl RadixHeap {
    /// Empties the heap and resets `last`, keeping every buffer's capacity.
    fn clear(&mut self) {
        self.last = 0;
        self.bottom.clear();
        while self.occupied != 0 {
            self.buckets[self.occupied.trailing_zeros() as usize].clear();
            self.occupied &= self.occupied - 1;
        }
    }

    fn push(&mut self, key: u64, idx: u32) {
        debug_assert!(
            key >= self.last,
            "key {key} below the last popped key {}",
            self.last
        );
        let diff = key ^ self.last;
        if diff == 0 {
            self.bottom.push(Reverse(idx));
        } else {
            let b = 63 - diff.leading_zeros() as usize;
            self.buckets[b].push((key, idx));
            self.occupied |= 1 << b;
        }
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        if self.bottom.is_empty() && self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << b);
            // Every key of bucket `b` agrees with `last` above bit `b` and
            // differs at it, so against the bucket's minimum each differs
            // below bit `b`: the entries land in `bottom` or lower buckets.
            let mut bucket = std::mem::take(&mut self.buckets[b]);
            self.last = bucket.iter().map(|&(key, _)| key).min()?;
            for (key, idx) in bucket.drain(..) {
                self.push(key, idx);
            }
            self.buckets[b] = bucket;
        }
        self.bottom.pop().map(|Reverse(idx)| (self.last, idx))
    }
}

/// Configuration of the maze router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MazeConfig {
    /// G-cells added around the pin bounding box to form the search window.
    pub window_margin: u16,
    /// Use the admissible A* potential from the window's cost floors
    /// (plain Dijkstra when `false`).
    pub astar: bool,
}

impl Default for MazeConfig {
    fn default() -> Self {
        Self {
            window_margin: 3,
            astar: true,
        }
    }
}

impl MazeConfig {
    /// The search window of a net whose pins span `bbox` on a
    /// `width x height` grid: `bbox` inflated by
    /// [`MazeConfig::window_margin`] and clipped to the grid. Every
    /// segment and via a search emits lies inside it, so two nets whose
    /// windows are disjoint never read or write each other's edges.
    pub fn window(&self, bbox: Rect, width: u16, height: u16) -> Rect {
        bbox.inflated(self.window_margin, width, height)
    }

    /// The configuration of the retry after a search finds no path inside
    /// its window: the margin doubled, and at least 8.
    pub fn widened(&self) -> Self {
        Self {
            window_margin: self.window_margin.saturating_mul(2).max(8),
            ..*self
        }
    }
}

/// Errors from maze routing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MazeError {
    /// A pin lies outside the grid.
    PinOutsideGrid {
        /// The offending pin position.
        pin: Point2,
    },
    /// A net has no pins.
    EmptyNet,
    /// No path exists inside the search window (e.g. fully blocked layers).
    NoPath {
        /// The pin that could not be reached.
        target: Point2,
    },
}

impl fmt::Display for MazeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MazeError::PinOutsideGrid { pin } => write!(f, "pin {pin} is outside the grid"),
            MazeError::EmptyNet => write!(f, "cannot route a net without pins"),
            MazeError::NoPath { target } => {
                write!(f, "no path to pin {target} inside the search window")
            }
        }
    }
}

impl Error for MazeError {}

/// Search statistics of one routing call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MazeStats {
    /// Vertices expanded: priority-queue pops that relaxed their arcs.
    /// Stale entries (a vertex already expanded at a lower key) are
    /// skipped and not counted.
    pub expanded: u64,
    /// Priority-queue pushes (search sources plus improving relaxations).
    pub pushes: u64,
    /// Finite-cost arcs examined by the expanded vertices, improving or
    /// not.
    pub relaxed: u64,
    /// Number of two-pin searches performed.
    pub searches: u32,
    /// Cost of the found paths in the grid's Q44.20 cost domain
    /// ([`fastgr_grid::cost_to_fixed`] units), summed over the two-pin
    /// searches.
    pub path_cost: u64,
}

impl AddAssign for MazeStats {
    fn add_assign(&mut self, other: Self) {
        self.expanded += other.expanded;
        self.pushes += other.pushes;
        self.relaxed += other.relaxed;
        self.searches += other.searches;
        self.path_cost += other.path_cost;
    }
}

/// The windowed multi-terminal 3-D maze router. See the crate docs.
#[derive(Debug, Clone, Default)]
pub struct MazeRouter {
    config: MazeConfig,
}

/// Reusable search state for [`MazeRouter::route_into`].
///
/// Owns the dense per-window arrays (`dist`/`prev`/`gen`), the window's
/// cost snapshot and the A* cost floors taken from it, the monotone
/// radix-heap priority queue, and every intermediate buffer a routing call
/// needs. All buffers grow to a high-water mark and are recycled via
/// generation stamping (the queue's buckets keep their capacity across
/// searches), so after a warm-up call the steady-state search loop
/// performs **zero heap allocation** — keep one scratch per worker thread
/// and route every net through it, mirroring the pattern stage's
/// `DpScratch` discipline.
#[derive(Debug, Default)]
pub struct MazeScratch {
    /// Current search window (set by `bind`, valid for one routing call).
    rect: Rect,
    w: usize,
    h: usize,
    dist: Vec<u64>,
    /// Back-pointer: packed predecessor index + 1, 0 = none/source.
    prev: Vec<u32>,
    /// Visit generation so we can reuse the buffers without clearing.
    gen: Vec<u32>,
    current_gen: u32,
    /// Q44.20 cost of the wire edge leaving each window vertex in its
    /// layer's +x/+y direction; `u64::MAX` when the edge is missing, has no
    /// capacity or leaves the window.
    wire: Vec<u64>,
    /// Q44.20 cost of the via from each window vertex one layer up;
    /// `u64::MAX` on the top layer.
    via: Vec<u64>,
    /// The window's A* cost floors, shared by the net's searches.
    floors: Floors,
    /// Priority queue of (f = g + h, index), popped in exact `(f, index)`
    /// order; pushed keys never fall below the last popped key because the
    /// potential is consistent.
    heap: RadixHeap,
    /// Back-traced vertex path of the most recent two-pin search.
    path: Vec<usize>,
    /// Window indices of the connected component grown so far.
    component: Vec<usize>,
    /// Pins not yet connected to the component.
    remaining: Vec<Point2>,
    /// Deduplicated, sorted copy of the caller's pins.
    distinct: Vec<Point2>,
    /// Statistics of the current or latest routing call.
    stats: MazeStats,
}

impl MazeScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics of the latest [`MazeRouter::route_into`] call through this
    /// scratch, also when that call returned an error.
    pub fn stats(&self) -> MazeStats {
        self.stats
    }

    /// Rebinds the scratch to a new search window, growing the dense
    /// arrays to the high-water mark (never shrinking), and snapshots the
    /// window's edge costs from `graph` — one load of each cached cost.
    /// With `astar`, it records the window's [`Floors`] from the same loads;
    /// without, it zeroes them.
    #[expect(
        clippy::disallowed_methods,
        reason = "the maze prices each unit edge, so it copies their cached costs one by one"
    )]
    fn bind(&mut self, graph: &GridGraph, rect: Rect, astar: bool) {
        self.rect = rect;
        self.w = rect.width() as usize;
        self.h = rect.height() as usize;
        let layers = graph.num_layers();
        let n = self.w * self.h * layers as usize;
        if n > self.dist.len() {
            self.dist.resize(n, u64::MAX);
            self.prev.resize(n, 0);
            self.gen.resize(n, 0);
            self.wire.resize(n, u64::MAX);
            self.via.resize(n, u64::MAX);
        }
        // A boundary floor starts at `u64::MAX` (no usable edge yet); a
        // zero start keeps every floor, and so the potential, at zero.
        let params = graph.params();
        let (start, unit_wire, unit_via) = if astar {
            (
                u64::MAX,
                cost_to_fixed(params.unit_wire),
                cost_to_fixed(params.unit_via),
            )
        } else {
            (0, 0, 0)
        };
        let floors = &mut self.floors;
        floors.lo = rect.lo;
        floors.cols.clear();
        floors.cols.resize(self.w, start);
        floors.cols[0] = 0;
        floors.rows.clear();
        floors.rows.resize(self.h, start);
        floors.rows[0] = 0;
        let mut i = 0;
        for l in 0..layers {
            let horizontal = graph.layer(l).direction == Direction::Horizontal;
            for y in rect.lo.y..=rect.hi.y {
                for x in rect.lo.x..=rect.hi.x {
                    let p = Point2::new(x, y);
                    let leaves_window = if horizontal {
                        x == rect.hi.x
                    } else {
                        y == rect.hi.y
                    };
                    let edge = if l >= 1 && !leaves_window {
                        graph.wire_edge_capacity_cost_fixed(l, p)
                    } else {
                        None
                    };
                    self.wire[i] = match edge {
                        Some((cap, cost)) if cap > 0.0 => {
                            // The edge crosses the boundary after column
                            // `x` (horizontal) or row `y` (vertical).
                            let floor = if horizontal {
                                &mut floors.cols[(x - rect.lo.x) as usize + 1]
                            } else {
                                &mut floors.rows[(y - rect.lo.y) as usize + 1]
                            };
                            *floor = (*floor).min(cost);
                            cost
                        }
                        _ => u64::MAX,
                    };
                    self.via[i] = graph.via_edge_cost_fixed(l, p).unwrap_or(u64::MAX);
                    i += 1;
                }
            }
        }
        prefix_sum(&mut floors.cols, unit_wire);
        prefix_sum(&mut floors.rows, unit_wire);
        let top = layers - 1;
        let first = |dir| {
            (1..=top)
                .find(|&l| graph.layer(l).direction == dir)
                .unwrap_or(top) as u64
        };
        floors.via = unit_via;
        floors.first_horizontal = first(Direction::Horizontal);
        floors.first_vertical = first(Direction::Vertical);
    }

    fn index(&self, p: Point3) -> usize {
        let x = (p.x - self.rect.lo.x) as usize;
        let y = (p.y - self.rect.lo.y) as usize;
        (p.layer as usize * self.h + y) * self.w + x
    }

    fn point(&self, idx: usize) -> Point3 {
        let layer = idx / (self.w * self.h);
        let rem = idx % (self.w * self.h);
        let y = rem / self.w;
        let x = rem % self.w;
        Point3::new(
            self.rect.lo.x + x as u16,
            self.rect.lo.y + y as u16,
            layer as u8,
        )
    }

    fn next_generation(&mut self) {
        if self.current_gen == u32::MAX {
            // Generation counter wrapped: reset the stamps once rather than
            // clearing `dist` on every search.
            self.gen.fill(0);
            self.current_gen = 0;
        }
        self.current_gen += 1;
    }

    fn dist_at(&self, idx: usize) -> u64 {
        if self.gen[idx] == self.current_gen {
            self.dist[idx]
        } else {
            u64::MAX
        }
    }

    fn set(&mut self, idx: usize, dist: u64, prev: Option<usize>) {
        self.gen[idx] = self.current_gen;
        self.dist[idx] = dist;
        self.prev[idx] = prev.map_or(0, |p| p as u32 + 1);
    }

    fn prev_at(&self, idx: usize) -> Option<usize> {
        if self.gen[idx] == self.current_gen && self.prev[idx] != 0 {
            Some(self.prev[idx] as usize - 1)
        } else {
            None
        }
    }

    /// Relaxes the arc `from -> q` with fixed-point cost `step`
    /// (`u64::MAX` = no arc).
    fn relax(&mut self, q: Point3, qi: usize, step: u64, g: u64, from: usize, pot: &Potential) {
        if step == u64::MAX {
            return;
        }
        self.stats.relaxed += 1;
        let ng = g.saturating_add(step);
        if ng < self.dist_at(qi) {
            self.set(qi, ng, Some(from));
            let key = ng.saturating_add(self.floors.at(pot, q));
            self.heap.push(key, qi as u32);
            self.stats.pushes += 1;
        }
    }
}

impl MazeRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: MazeConfig) -> Self {
        Self { config }
    }

    /// Routes a net given its distinct pin G-cells (all pins are assumed to
    /// be on layer 0, the convention of this reproduction's designs).
    ///
    /// Returns a connected [`Route`]; a single-pin net yields an empty one.
    ///
    /// # Errors
    ///
    /// * [`MazeError::EmptyNet`] for zero pins;
    /// * [`MazeError::PinOutsideGrid`] for an out-of-grid pin;
    /// * [`MazeError::NoPath`] when a pin cannot be reached inside the
    ///   window (retry with [`MazeConfig::widened`]).
    ///
    /// Allocating convenience wrapper around [`MazeRouter::route_into`];
    /// hot loops should hold a [`MazeScratch`] and call `route_into`
    /// directly.
    pub fn route(&self, graph: &GridGraph, pins: &[Point2]) -> Result<Route, MazeError> {
        let mut route = Route::new();
        self.route_into(graph, pins, &mut MazeScratch::new(), &mut route)?;
        debug_assert!(route.is_connected(), "maze route must be connected");
        Ok(route)
    }

    /// Routes a net into a caller-provided [`Route`], reusing `scratch`.
    ///
    /// `out` is cleared first and holds the normalized result on success
    /// (its contents are unspecified on error). After a warm-up call that
    /// grows the scratch to its high-water mark, this performs no heap
    /// allocation — the property the counting-allocator tests enforce.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MazeRouter::route`].
    pub fn route_into(
        &self,
        graph: &GridGraph,
        pins: &[Point2],
        scratch: &mut MazeScratch,
        out: &mut Route,
    ) -> Result<MazeStats, MazeError> {
        out.clear();
        if pins.is_empty() {
            return Err(MazeError::EmptyNet);
        }
        for &pin in pins {
            if !graph.contains(pin) {
                return Err(MazeError::PinOutsideGrid { pin });
            }
        }
        scratch.distinct.clear();
        scratch.distinct.extend_from_slice(pins);
        scratch.distinct.sort_unstable();
        scratch.distinct.dedup();

        scratch.stats = MazeStats::default();
        if scratch.distinct.len() == 1 {
            return Ok(scratch.stats);
        }

        let bbox = Rect::bounding(scratch.distinct.iter().copied()).expect("non-empty");
        scratch.bind(
            graph,
            self.config.window(bbox, graph.width(), graph.height()),
            self.config.astar,
        );

        // Component vertices (indices into the window), starting from the
        // first pin on layer 0.
        let anchor = scratch.distinct[0];
        let first = scratch.index(anchor.on_layer(0));
        scratch.component.clear();
        scratch.component.push(first);

        // Connect remaining pins, nearest-first to keep paths short.
        {
            let (remaining, distinct) = (&mut scratch.remaining, &scratch.distinct);
            remaining.clear();
            remaining.extend_from_slice(&distinct[1..]);
        }
        while !scratch.remaining.is_empty() {
            // Pick the unconnected pin closest to the current component bbox
            // (cheap proxy: distance to the first pin).
            let (pick, _) = scratch
                .remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| p.manhattan_distance(anchor))
                .expect("non-empty");
            let target = scratch.remaining.swap_remove(pick);
            self.search_into(graph, scratch, target)?;
            // Merge path vertices into the component and geometry. The
            // path starts at a component vertex, so only its tail is new.
            Self::emit_geometry(scratch, out);
            let (component, path) = (&mut scratch.component, &scratch.path);
            component.extend_from_slice(&path[1..]);
        }
        out.normalize();
        Ok(scratch.stats)
    }

    /// Multi-source Dijkstra/A* from `scratch.component` to `(target,
    /// layer 0)` over the window's cost snapshot. Leaves the path, as
    /// window indices from source side to target, in `scratch.path`.
    fn search_into(
        &self,
        graph: &GridGraph,
        scratch: &mut MazeScratch,
        target: Point2,
    ) -> Result<(), MazeError> {
        scratch.stats.searches += 1;
        scratch.next_generation();
        let target_idx = scratch.index(target.on_layer(0));
        let pot = scratch.floors.toward(target);
        let (w, plane) = (scratch.w, scratch.w * scratch.h);
        let top = graph.num_layers() - 1;

        scratch.heap.clear();
        for i in 0..scratch.component.len() {
            let s = scratch.component[i];
            scratch.set(s, 0, None);
            let h = scratch.floors.at(&pot, scratch.point(s));
            scratch.heap.push(h, s as u32);
            scratch.stats.pushes += 1;
        }

        while let Some((key, idx)) = scratch.heap.pop() {
            let idx = idx as usize;
            let g = scratch.dist_at(idx);
            let p = scratch.point(idx);
            if key != g.saturating_add(scratch.floors.at(&pot, p)) {
                // Stale: `idx` was re-pushed at a lower key and expanded then.
                continue;
            }
            if idx == target_idx {
                scratch.stats.path_cost += g;
                // Back-trace.
                scratch.path.clear();
                scratch.path.push(idx);
                let mut cur = idx;
                while let Some(prev) = scratch.prev_at(cur) {
                    scratch.path.push(prev);
                    cur = prev;
                }
                scratch.path.reverse();
                return Ok(());
            }
            scratch.stats.expanded += 1;

            // Wire moves along the preferred direction; the snapshot holds
            // `u64::MAX` for every missing, blocked or out-of-window edge.
            let (x, y, layer, rect) = (p.x, p.y, p.layer, scratch.rect);
            if layer >= 1 {
                let (lower, upper, stride) = match graph.layer(layer).direction {
                    Direction::Horizontal => (
                        (x > rect.lo.x).then(|| Point3::new(x - 1, y, layer)),
                        Point3::new(x + 1, y, layer),
                        1,
                    ),
                    Direction::Vertical => (
                        (y > rect.lo.y).then(|| Point3::new(x, y - 1, layer)),
                        Point3::new(x, y + 1, layer),
                        w,
                    ),
                };
                if let Some(q) = lower {
                    let qi = idx - stride;
                    scratch.relax(q, qi, scratch.wire[qi], g, idx, &pot);
                }
                // `upper` is outside the window exactly when the arc is
                // `u64::MAX`, which `relax` rejects before touching `qi`.
                scratch.relax(upper, idx + stride, scratch.wire[idx], g, idx, &pot);
            }
            // Via moves.
            if layer < top {
                let q = Point3::new(x, y, layer + 1);
                scratch.relax(q, idx + plane, scratch.via[idx], g, idx, &pot);
            }
            if layer > 0 {
                let (q, qi) = (Point3::new(x, y, layer - 1), idx - plane);
                scratch.relax(q, qi, scratch.via[qi], g, idx, &pot);
            }
        }
        Err(MazeError::NoPath { target })
    }

    /// Converts the back-traced vertex path in `scratch.path` into merged
    /// segments and vias appended to `route`.
    fn emit_geometry(scratch: &MazeScratch, route: &mut Route) {
        let path = &scratch.path;
        if path.len() < 2 {
            return;
        }
        let mut run_start = scratch.point(path[0]);
        // Run-length merge: walk the path, cutting whenever the move kind
        // (wire vs via) changes. Same-layer wire runs are always straight
        // because shortest paths never revisit a vertex.
        let mut i = 1;
        while i < path.len() {
            let dir = step_dir(scratch.point(path[i - 1]), scratch.point(path[i]));
            let mut j = i;
            while j + 1 < path.len()
                && step_dir(scratch.point(path[j]), scratch.point(path[j + 1])) == dir
            {
                j += 1;
            }
            let (from, to) = (run_start, scratch.point(path[j]));
            match dir {
                StepDir::Wire => {
                    route.push_segment(Segment::new(from.layer, from.xy(), to.xy()));
                }
                StepDir::Via => {
                    route.push_via(Via::new(from.xy(), from.layer, to.layer));
                }
            }
            run_start = scratch.point(path[j]);
            i = j + 1;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepDir {
    Wire,
    Via,
}

fn step_dir(a: Point3, b: Point3) -> StepDir {
    if a.layer != b.layer {
        StepDir::Via
    } else {
        StepDir::Wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_grid::CostParams;
    use proptest::prelude::*;

    fn graph(w: u16, h: u16, layers: u8) -> GridGraph {
        let mut g = GridGraph::new(w, h, layers, CostParams::default()).expect("valid");
        g.fill_capacity(4.0);
        g
    }

    #[test]
    fn two_pin_route_is_connected_and_tight() {
        let g = graph(16, 16, 4);
        let r = MazeRouter::default()
            .route(&g, &[Point2::new(1, 1), Point2::new(12, 9)])
            .expect("routable");
        assert!(r.is_connected());
        // Shortest possible wirelength is the Manhattan distance.
        assert_eq!(r.wirelength(), 19);
        // Needs vias: from layer 0 up and between H/V layers.
        assert!(r.via_count() >= 2);
    }

    #[test]
    fn single_pin_net_routes_empty() {
        let g = graph(8, 8, 4);
        let r = MazeRouter::default()
            .route(&g, &[Point2::new(3, 3)])
            .expect("ok");
        assert!(r.is_empty());
    }

    #[test]
    fn duplicate_pins_collapse() {
        let g = graph(8, 8, 4);
        let r = MazeRouter::default()
            .route(&g, &[Point2::new(3, 3), Point2::new(3, 3)])
            .expect("ok");
        assert!(r.is_empty());
    }

    #[test]
    fn empty_net_is_rejected() {
        let g = graph(8, 8, 4);
        assert_eq!(
            MazeRouter::default().route(&g, &[]),
            Err(MazeError::EmptyNet)
        );
    }

    #[test]
    fn out_of_grid_pin_is_rejected() {
        let g = graph(8, 8, 4);
        assert!(matches!(
            MazeRouter::default().route(&g, &[Point2::new(0, 0), Point2::new(99, 0)]),
            Err(MazeError::PinOutsideGrid { .. })
        ));
    }

    #[test]
    fn reused_scratch_reproduces_fresh_results() {
        let g = graph(20, 20, 5);
        let router = MazeRouter::default();
        let nets: Vec<Vec<Point2>> = vec![
            vec![Point2::new(1, 1), Point2::new(12, 9)],
            vec![Point2::new(18, 2), Point2::new(3, 17), Point2::new(9, 9)],
            vec![Point2::new(0, 19), Point2::new(19, 0)],
            vec![Point2::new(5, 5)],
        ];
        let mut scratch = MazeScratch::new();
        let mut out = Route::new();
        for pins in &nets {
            let fresh = router.route(&g, pins).expect("routable");
            let stats = router
                .route_into(&g, pins, &mut scratch, &mut out)
                .expect("routable");
            assert_eq!(&out, &fresh, "scratch reuse changed geometry");
            assert!(stats.searches as usize + 1 >= pins.len());
        }
    }

    #[test]
    fn route_into_reports_errors_with_reused_scratch() {
        let g = graph(8, 8, 4);
        let mut scratch = MazeScratch::new();
        let mut out = Route::new();
        let router = MazeRouter::default();
        // Warm up with a good net, then fail, then route again.
        router
            .route_into(
                &g,
                &[Point2::new(0, 0), Point2::new(7, 7)],
                &mut scratch,
                &mut out,
            )
            .expect("routable");
        assert_eq!(
            router.route_into(&g, &[], &mut scratch, &mut out),
            Err(MazeError::EmptyNet)
        );
        router
            .route_into(
                &g,
                &[Point2::new(2, 2), Point2::new(5, 1)],
                &mut scratch,
                &mut out,
            )
            .expect("routable after error");
        assert!(out.is_connected());
    }

    #[test]
    fn detours_around_congestion() {
        let g = graph(16, 16, 4);
        // Saturate the straight horizontal corridor on M1 at y=5.
        let mut blocker = Route::new();
        blocker.push_segment(Segment::new(1, Point2::new(0, 5), Point2::new(15, 5)));
        for _ in 0..8 {
            g.commit(&blocker).expect("valid");
        }
        let r = MazeRouter::default()
            .route(&g, &[Point2::new(2, 5), Point2::new(13, 5)])
            .expect("routable");
        assert!(r.is_connected());
        // With M3 (horizontal) available, the route should escape the
        // saturated M1 corridor rather than add overflow there.
        let m1_wl: u64 = r
            .segments()
            .iter()
            .filter(|s| s.layer == 1 && s.from.y == 5)
            .map(|s| s.length() as u64)
            .sum();
        assert!(
            m1_wl < 11,
            "expected detour off the congested corridor, m1 wl {m1_wl}"
        );
    }

    #[test]
    fn multi_pin_route_spans_all_pins() {
        let g = graph(20, 20, 5);
        let pins = [
            Point2::new(2, 2),
            Point2::new(17, 3),
            Point2::new(9, 16),
            Point2::new(4, 12),
        ];
        let r = MazeRouter::default().route(&g, &pins).expect("routable");
        assert!(r.is_connected());
        let touched = r.touched_points();
        for pin in pins {
            assert!(
                touched.contains(&pin.on_layer(0)),
                "pin {pin} not reached by the route"
            );
        }
    }

    #[test]
    fn astar_and_dijkstra_agree_on_cost() {
        let g = graph(24, 24, 4);
        let pins = [Point2::new(1, 2), Point2::new(20, 19)];
        let a = MazeRouter::new(MazeConfig {
            astar: true,
            ..MazeConfig::default()
        })
        .route(&g, &pins)
        .expect("ok");
        let d = MazeRouter::new(MazeConfig {
            astar: false,
            ..MazeConfig::default()
        })
        .route(&g, &pins)
        .expect("ok");
        assert_eq!(g.route_cost(&a), g.route_cost(&d));
    }

    #[test]
    fn astar_expands_fewer_nodes() {
        let g = graph(32, 32, 4);
        let pins = [Point2::new(1, 1), Point2::new(30, 30)];
        let stats = |astar| {
            MazeRouter::new(MazeConfig {
                astar,
                window_margin: 16,
            })
            .route_into(&g, &pins, &mut MazeScratch::new(), &mut Route::new())
            .expect("ok")
        };
        let (sa, sd) = (stats(true), stats(false));
        assert!(
            sa.expanded < sd.expanded,
            "a* {} vs dijkstra {}",
            sa.expanded,
            sd.expanded
        );
    }

    /// On a uniformly loaded grid every edge costs far above `unit_wire`,
    /// so a unit-floor potential guides the search little; the window's
    /// cost floors keep A* close to the path.
    #[test]
    fn astar_expands_fewer_nodes_on_a_congested_grid() {
        let mut g = GridGraph::new(32, 32, 4, CostParams::default()).expect("valid");
        g.fill_capacity(2.0);
        let pins = [Point2::new(1, 1), Point2::new(30, 30)];
        let stats = |astar| {
            MazeRouter::new(MazeConfig {
                astar,
                window_margin: 16,
            })
            .route_into(&g, &pins, &mut MazeScratch::new(), &mut Route::new())
            .expect("ok")
        };
        let (sa, sd) = (stats(true), stats(false));
        assert!(
            sa.expanded * 3 < sd.expanded,
            "a* {} vs dijkstra {}",
            sa.expanded,
            sd.expanded
        );
    }

    /// One column boundary saturated on every row and horizontal layer
    /// raises the potential of every vertex left of it, toward a target on
    /// its right, by exactly its cheapest edge's excess over `unit_wire`. A
    /// boundary that no usable edge crosses counts at `unit_wire`.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test reads the saturated edges' costs"
    )]
    fn saturated_boundary_raises_the_potential_by_its_cheapest_edge() {
        // At capacity 16 an empty edge costs `unit_wire` exactly in Q44.20.
        let mut g = graph(16, 8, 4);
        g.fill_capacity(16.0);
        let horizontal = [1u8, 3];
        for l in horizontal {
            // No usable edge crosses the boundary after column 10.
            let column = Rect::new(Point2::new(10, 0), Point2::new(10, 7));
            g.scale_region_capacity(l, column, 0.0);
            // The boundary after column 7 carries 17 to 23 wires per edge.
            for y in 0..8 {
                let mut wire = Route::new();
                wire.push_segment(Segment::new(l, Point2::new(7, y), Point2::new(8, y)));
                for _ in 0..17 + (y + u16::from(l)) % 7 {
                    g.commit(&wire).expect("valid");
                }
            }
        }
        let unit = cost_to_fixed(g.params().unit_wire);
        let cheapest = horizontal
            .iter()
            .flat_map(|&l| (0..8).map(move |y| (l, Point2::new(7, y))))
            .map(|(l, p)| g.wire_edge_cost_fixed(l, p).expect("edge"))
            .min()
            .expect("edges");
        assert!(cheapest > unit);

        let mut scratch = MazeScratch::new();
        scratch.bind(&g, Rect::new(Point2::new(0, 0), Point2::new(15, 7)), true);
        let target = Point2::new(14, 3);
        let pot = scratch.floors.toward(target);
        // `(x, 5, 0)` needs `14 - x + 2` wire steps and 2 vias up to the
        // first horizontal layer and 2 back down: the unit-floor value.
        let via = cost_to_fixed(g.params().unit_via);
        let unit_floor = |x: u16| (14 - u64::from(x) + 2) * unit + 4 * via;
        for x in 0..=7 {
            assert_eq!(
                scratch.floors.at(&pot, Point3::new(x, 5, 0)),
                unit_floor(x) + cheapest - unit,
                "column {x}"
            );
        }
        for x in 8..=14 {
            assert_eq!(
                scratch.floors.at(&pot, Point3::new(x, 5, 0)),
                unit_floor(x),
                "column {x}"
            );
        }
    }

    #[test]
    fn fully_blocked_layer_reports_no_path() {
        let mut g = GridGraph::new(8, 8, 3, CostParams::default()).expect("valid");
        // Only M1 (horizontal) has capacity; M2 stays at 0 so vertical
        // movement is impossible.
        g.set_layer_capacity(1, 4.0);
        let res = MazeRouter::default().route(&g, &[Point2::new(0, 0), Point2::new(0, 7)]);
        assert!(matches!(res, Err(MazeError::NoPath { .. })));
    }

    /// A random congested grid: one routable layer without capacity,
    /// demand from `nets` committed maze routes (each `copies` times) and
    /// history cost on the edges that overflow.
    fn congested_graph(
        side: u16,
        layers: u8,
        blocked: u8,
        nets: &[(u16, u16, u16, u16)],
        copies: usize,
        history: f64,
    ) -> GridGraph {
        let mut g = graph(side, side, layers);
        g.set_layer_capacity(blocked, 0.0);
        let router = MazeRouter::default();
        for &(ax, ay, bx, by) in nets {
            let pins = [
                Point2::new(ax % side, ay % side),
                Point2::new(bx % side, by % side),
            ];
            if let Ok(r) = router.route(&g, &pins) {
                for _ in 0..copies {
                    g.commit(&r).expect("valid route");
                }
            }
        }
        g.add_history_on_overflow(history);
        g
    }

    /// Q44.20 distance from every vertex of `scratch`'s window to `target`
    /// on layer 0, by a plain Dijkstra over live `graph` costs.
    #[expect(
        clippy::disallowed_methods,
        reason = "the oracle reads live edge costs"
    )]
    fn window_distances(graph: &GridGraph, scratch: &MazeScratch, target: Point2) -> Vec<u64> {
        let n = scratch.w * scratch.h * graph.num_layers() as usize;
        let mut dist = vec![u64::MAX; n];
        let mut heap = BinaryHeap::new();
        let t = scratch.index(target.on_layer(0));
        dist[t] = 0;
        heap.push(Reverse((0u64, t)));
        while let Some(Reverse((d, i))) = heap.pop() {
            if d > dist[i] {
                continue;
            }
            let p = scratch.point(i);
            let mut arcs: Vec<(Point3, Option<u64>)> = Vec::new();
            if p.layer >= 1 {
                let (back, fwd) = match graph.layer(p.layer).direction {
                    Direction::Horizontal => (
                        (p.x > scratch.rect.lo.x).then(|| Point3::new(p.x - 1, p.y, p.layer)),
                        (p.x < scratch.rect.hi.x).then(|| Point3::new(p.x + 1, p.y, p.layer)),
                    ),
                    Direction::Vertical => (
                        (p.y > scratch.rect.lo.y).then(|| Point3::new(p.x, p.y - 1, p.layer)),
                        (p.y < scratch.rect.hi.y).then(|| Point3::new(p.x, p.y + 1, p.layer)),
                    ),
                };
                for (q, lower) in [(back, back), (fwd, Some(p))] {
                    if let (Some(q), Some(lower)) = (q, lower) {
                        if graph.wire_capacity(p.layer, lower.xy()).unwrap_or(0.0) > 0.0 {
                            arcs.push((q, graph.wire_edge_cost_fixed(p.layer, lower.xy())));
                        }
                    }
                }
            }
            if p.layer + 1 < graph.num_layers() {
                let q = Point3::new(p.x, p.y, p.layer + 1);
                arcs.push((q, graph.via_edge_cost_fixed(p.layer, p.xy())));
            }
            if p.layer > 0 {
                let q = Point3::new(p.x, p.y, p.layer - 1);
                arcs.push((q, graph.via_edge_cost_fixed(p.layer - 1, p.xy())));
            }
            for (q, cost) in arcs {
                let (qi, nd) = (scratch.index(q), d + cost.expect("edge exists"));
                if nd < dist[qi] {
                    dist[qi] = nd;
                    heap.push(Reverse((nd, qi)));
                }
            }
        }
        dist
    }

    /// The A* snapshot of a two-pin search from `a` to `b` on a 14×14
    /// `congested_graph`: the bound scratch, the target's potential and the
    /// oracle distances to `b`.
    fn bound_search(g: &GridGraph, a: Point2, b: Point2) -> (MazeScratch, Potential, Vec<u64>) {
        let bbox = Rect::bounding([a, b]).expect("two pins");
        let rect = MazeConfig::default().window(bbox, 14, 14);
        let mut scratch = MazeScratch::new();
        scratch.bind(g, rect, true);
        let dist = window_distances(g, &scratch, b);
        let pot = scratch.floors.toward(b);
        (scratch, pot, dist)
    }

    /// One step of a monotone queue workload; keys are offsets from the
    /// last popped key.
    #[derive(Debug, Clone)]
    enum QueueOp {
        Push { offset: u64, idx: u32 },
        Pop,
        Clear,
    }

    /// Ties with the last popped key, small offsets, and offsets whose
    /// highest bit is any of the 64, on a small index range so indices
    /// repeat at different keys and ties arrive below the index just popped.
    fn queue_op() -> impl Strategy<Value = QueueOp> {
        (0u8..13, 0u32..64, 0u64..=u64::MAX, 0u32..16).prop_map(
            |(kind, bit, low, idx)| match kind {
                0..=2 => QueueOp::Push { offset: 0, idx },
                3..=5 => QueueOp::Push {
                    offset: (1 << bit) | (low & ((1 << bit) - 1)),
                    idx,
                },
                6..=7 => QueueOp::Push {
                    offset: low % 4,
                    idx,
                },
                8..=11 => QueueOp::Pop,
                _ => QueueOp::Clear,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The radix heap pops exactly the `(key, idx)` sequence of a binary
        /// min-heap under any monotone workload: pushes at or above the last
        /// popped key (saturating at `u64::MAX`), pops, and clears that
        /// start a new sequence from key 0.
        #[test]
        fn radix_heap_pops_in_binary_heap_order(
            ops in proptest::collection::vec(queue_op(), 0..200),
        ) {
            let mut radix = RadixHeap::default();
            let mut oracle = BinaryHeap::new();
            let mut last = 0u64;
            for op in ops {
                match op {
                    QueueOp::Push { offset, idx } => {
                        let key = last.saturating_add(offset);
                        radix.push(key, idx);
                        oracle.push(Reverse((key, idx as usize)));
                    }
                    QueueOp::Pop => {
                        let want = oracle.pop().map(|Reverse((key, idx))| (key, idx as u32));
                        prop_assert_eq!(radix.pop(), want);
                        if let Some((key, _)) = want {
                            last = key;
                        }
                    }
                    QueueOp::Clear => {
                        radix.clear();
                        oracle.clear();
                        last = 0;
                    }
                }
            }
            while let Some(Reverse((key, idx))) = oracle.pop() {
                prop_assert_eq!(radix.pop(), Some((key, idx as u32)));
            }
            prop_assert_eq!(radix.pop(), None);
        }
    }

    proptest! {
        /// The potential never overestimates: at every window vertex it is
        /// at most the true distance to the target.
        #[test]
        fn potential_is_a_lower_bound_on_every_window_vertex(
            layers in 3u8..7,
            blocked_pick in 0u8..8,
            nets in proptest::collection::vec((0u16..14, 0u16..14, 0u16..14, 0u16..14), 0..12),
            copies in 1usize..6,
            history in 0u8..6,
            (ax, ay, bx, by) in (0u16..14, 0u16..14, 0u16..14, 0u16..14),
        ) {
            let blocked = 1 + blocked_pick % (layers - 1);
            let g = congested_graph(14, layers, blocked, &nets, copies, history as f64);
            let (scratch, pot, dist) = bound_search(&g, Point2::new(ax, ay), Point2::new(bx, by));
            for (i, &d) in dist.iter().enumerate() {
                let (p, h) = (scratch.point(i), scratch.floors.at(&pot, scratch.point(i)));
                prop_assert!(h <= d, "potential {h} > distance {d} at {p}");
            }
        }

        /// The potential is consistent: `h(u) <= c(u, v) + h(v)` on every
        /// arc of the bound snapshot, both ways round, so an A* key never
        /// falls below the last popped key. The oracle distances obey the
        /// same inequality on every arc, which ties the snapshot's arcs to
        /// the live grid.
        #[test]
        fn potential_is_consistent_on_every_snapshot_arc(
            layers in 3u8..7,
            blocked_pick in 0u8..8,
            nets in proptest::collection::vec((0u16..14, 0u16..14, 0u16..14, 0u16..14), 0..12),
            copies in 1usize..6,
            history in 0u8..6,
            (ax, ay, bx, by) in (0u16..14, 0u16..14, 0u16..14, 0u16..14),
        ) {
            let blocked = 1 + blocked_pick % (layers - 1);
            let g = congested_graph(14, layers, blocked, &nets, copies, history as f64);
            let (scratch, pot, dist) = bound_search(&g, Point2::new(ax, ay), Point2::new(bx, by));
            let plane = scratch.w * scratch.h;
            let h = |p| scratch.floors.at(&pot, p);
            for (u, &du) in dist.iter().enumerate() {
                let p = scratch.point(u);
                let stride = match g.layer(p.layer).direction {
                    Direction::Horizontal => 1,
                    Direction::Vertical => scratch.w,
                };
                for (v, c) in [(u + stride, scratch.wire[u]), (u + plane, scratch.via[u])] {
                    if c == u64::MAX {
                        continue;
                    }
                    let (q, dv) = (scratch.point(v), dist[v]);
                    prop_assert!(h(p) <= c + h(q), "h({p}) > {c} + h({q})");
                    prop_assert!(h(q) <= c + h(p), "h({q}) > {c} + h({p})");
                    prop_assert!(du <= c.saturating_add(dv) && dv <= c.saturating_add(du));
                }
            }
        }

        /// A* with the via-aware potential finds two-pin routes of the
        /// same fixed-point cost as plain Dijkstra on congested grids with
        /// history cost and a blocked layer.
        #[test]
        fn astar_matches_dijkstra_cost_on_congested_grids(
            layers in 3u8..7,
            blocked_pick in 0u8..8,
            nets in proptest::collection::vec((0u16..16, 0u16..16, 0u16..16, 0u16..16), 0..16),
            copies in 1usize..6,
            history in 0u8..6,
            (ax, ay, bx, by) in (0u16..16, 0u16..16, 0u16..16, 0u16..16),
        ) {
            let blocked = 1 + blocked_pick % (layers - 1);
            let g = congested_graph(16, layers, blocked, &nets, copies, history as f64);
            let pins = [Point2::new(ax, ay), Point2::new(bx, by)];
            let cost = |astar| {
                let mut scratch = MazeScratch::new();
                MazeRouter::new(MazeConfig { astar, ..MazeConfig::default() })
                    .route_into(&g, &pins, &mut scratch, &mut Route::new())
                    .map(|stats| stats.path_cost)
            };
            prop_assert_eq!(cost(true), cost(false));
        }

        /// The search prices in the grid's Q44.20 domain: a two-pin route's
        /// `path_cost` is exactly the grid's quantised walk over its
        /// geometry.
        #[test]
        fn path_cost_is_the_grid_route_cost(
            layers in 3u8..7,
            blocked_pick in 0u8..8,
            nets in proptest::collection::vec((0u16..16, 0u16..16, 0u16..16, 0u16..16), 0..16),
            copies in 1usize..6,
            history in 0u8..6,
            (ax, ay, bx, by) in (0u16..16, 0u16..16, 0u16..16, 0u16..16),
        ) {
            let blocked = 1 + blocked_pick % (layers - 1);
            let g = congested_graph(16, layers, blocked, &nets, copies, history as f64);
            let pins = [Point2::new(ax, ay), Point2::new(bx, by)];
            let mut route = Route::new();
            if let Ok(stats) =
                MazeRouter::default().route_into(&g, &pins, &mut MazeScratch::new(), &mut route)
            {
                prop_assert_eq!(stats.path_cost, g.route_cost(&route));
            }
        }

        /// Every segment and via of a maze route lies inside
        /// `MazeConfig::window` of the pins' bounding box — the containment
        /// the RRR conflict graph relies on for determinism.
        #[test]
        fn routes_stay_inside_the_window(
            margin in 0u16..5,
            nets in proptest::collection::vec((0u16..16, 0u16..16, 0u16..16, 0u16..16), 0..16),
            copies in 1usize..6,
            pins in proptest::collection::vec((0u16..16, 0u16..16), 1..6),
        ) {
            let g = congested_graph(16, 5, 3, &nets, copies, 1.0);
            let config = MazeConfig { window_margin: margin, ..MazeConfig::default() };
            let pins: Vec<Point2> = pins.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
            let window = config.window(Rect::bounding(pins.iter().copied()).expect("pins"), 16, 16);
            if let Ok(route) = MazeRouter::new(config).route(&g, &pins) {
                for s in route.segments() {
                    prop_assert!(window.contains(s.from) && window.contains(s.to), "{s} leaves {window}");
                }
                for v in route.vias() {
                    prop_assert!(window.contains(v.at), "{v} leaves {window}");
                }
            }
        }

        #[test]
        fn random_two_pin_routes_connect(
            ax in 0u16..20, ay in 0u16..20, bx in 0u16..20, by in 0u16..20
        ) {
            let g = graph(20, 20, 5);
            let r = MazeRouter::default()
                .route(&g, &[Point2::new(ax, ay), Point2::new(bx, by)])
                .expect("routable");
            prop_assert!(r.is_connected());
            let manhattan =
                Point2::new(ax, ay).manhattan_distance(Point2::new(bx, by)) as u64;
            prop_assert!(r.wirelength() >= manhattan);
            if (ax, ay) != (bx, by) {
                let touched = r.touched_points();
                prop_assert!(touched.contains(&Point2::new(ax, ay).on_layer(0)));
                prop_assert!(touched.contains(&Point2::new(bx, by).on_layer(0)));
            }
        }

        /// Routing through a reused scratch is geometry-identical to a
        /// fresh router call, for any pin set.
        #[test]
        fn scratch_reuse_is_transparent(
            pins in proptest::collection::vec((0u16..20, 0u16..20), 1..6)
        ) {
            let g = graph(20, 20, 5);
            let pins: Vec<Point2> = pins.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
            let router = MazeRouter::default();
            let mut scratch = MazeScratch::new();
            let mut out = Route::new();
            // Warm the scratch on an unrelated net first.
            router
                .route_into(&g, &[Point2::new(0, 0), Point2::new(19, 19)], &mut scratch, &mut out)
                .expect("routable");
            let fresh = router.route(&g, &pins).expect("routable");
            router.route_into(&g, &pins, &mut scratch, &mut out).expect("routable");
            prop_assert_eq!(&out, &fresh);
        }
    }
}
