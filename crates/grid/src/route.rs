//! Routed-net geometry: wire segments, vias, and whole routes.

use std::fmt;

use crate::{Point2, Point3};

/// A straight wire on one metal layer between two aligned G-cells.
///
/// Segments are stored with normalised endpoint order (`from <= to` in the
/// running coordinate). A zero-length segment (both endpoints equal) is
/// permitted and consumes no wire resources; it appears when a pattern path
/// degenerates.
///
/// # Example
///
/// ```
/// use fastgr_grid::{Point2, Segment};
///
/// let s = Segment::new(3, Point2::new(7, 2), Point2::new(1, 2));
/// assert_eq!(s.from, Point2::new(1, 2)); // normalised
/// assert_eq!(s.length(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Metal layer the wire runs on.
    pub layer: u8,
    /// Lower endpoint (smaller running coordinate).
    pub from: Point2,
    /// Upper endpoint.
    pub to: Point2,
}

impl Segment {
    /// Creates a segment, normalising endpoint order.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are not aligned on a row or column.
    pub fn new(layer: u8, a: Point2, b: Point2) -> Self {
        assert!(
            a.is_aligned_with(b),
            "segment endpoints {a} and {b} are not aligned"
        );
        let (from, to) = if (a.x, a.y) <= (b.x, b.y) {
            (a, b)
        } else {
            (b, a)
        };
        Self { layer, from, to }
    }

    /// Wirelength of the segment in G-cell edge units.
    pub fn length(&self) -> u32 {
        self.from.manhattan_distance(self.to)
    }

    /// Whether the segment runs along the x axis (or is a point).
    pub fn is_horizontal(&self) -> bool {
        self.from.y == self.to.y
    }

    /// Iterates over the unit edges `(cell, next_cell)` the segment covers.
    pub fn unit_edges(&self) -> impl Iterator<Item = (Point2, Point2)> + '_ {
        let horizontal = self.is_horizontal();
        let len = self.length();
        (0..len).map(move |i| {
            if horizontal {
                let x = self.from.x + i as u16;
                (Point2::new(x, self.from.y), Point2::new(x + 1, self.from.y))
            } else {
                let y = self.from.y + i as u16;
                (Point2::new(self.from.x, y), Point2::new(self.from.x, y + 1))
            }
        })
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{} {} -> {}", self.layer, self.from, self.to)
    }
}

/// A via stack at one G-cell connecting layer `lo` up to layer `hi`.
///
/// A stack spanning `k` layer boundaries counts as `k` vias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Via {
    /// G-cell the stack sits on.
    pub at: Point2,
    /// Lowest layer of the stack.
    pub lo: u8,
    /// Highest layer of the stack.
    pub hi: u8,
}

impl Via {
    /// Creates a via stack, normalising the layer order.
    pub fn new(at: Point2, a: u8, b: u8) -> Self {
        Self {
            at,
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Number of single-layer vias in the stack.
    pub fn count(&self) -> u32 {
        (self.hi - self.lo) as u32
    }
}

impl fmt::Display for Via {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "via {} M{}..M{}", self.at, self.lo, self.hi)
    }
}

/// The routed geometry of one net: wire segments plus via stacks.
///
/// A `Route` is pure geometry — committing its demand to a
/// [`GridGraph`](crate::GridGraph) is a separate, reversible step, which is
/// what rip-up-and-reroute relies on.
///
/// # Example
///
/// ```
/// use fastgr_grid::{Point2, Route, Segment, Via};
///
/// let mut route = Route::new();
/// route.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(3, 0)));
/// route.push_via(Via::new(Point2::new(3, 0), 1, 2));
/// route.push_segment(Segment::new(2, Point2::new(3, 0), Point2::new(3, 4)));
/// assert_eq!(route.wirelength(), 7);
/// assert_eq!(route.via_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Route {
    segments: Vec<Segment>,
    vias: Vec<Via>,
}

impl Route {
    /// Creates an empty route.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a wire segment (zero-length segments are dropped).
    pub fn push_segment(&mut self, s: Segment) {
        if s.length() > 0 {
            self.segments.push(s);
        }
    }

    /// Adds a via stack (empty stacks are dropped).
    pub fn push_via(&mut self, v: Via) {
        if v.count() > 0 {
            self.vias.push(v);
        }
    }

    /// Appends all geometry of `other`.
    pub fn extend(&mut self, other: &Route) {
        self.segments.extend_from_slice(&other.segments);
        self.vias.extend_from_slice(&other.vias);
    }

    /// Removes all geometry, keeping the allocations for reuse. Routing
    /// many nets into one recycled `Route` therefore allocates nothing in
    /// steady state.
    pub fn clear(&mut self) {
        self.segments.clear();
        self.vias.clear();
    }

    /// The wire segments of the route.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The via stacks of the route.
    pub fn vias(&self) -> &[Via] {
        &self.vias
    }

    /// Total wirelength in G-cell edge units.
    pub fn wirelength(&self) -> u64 {
        self.segments.iter().map(|s| s.length() as u64).sum()
    }

    /// Total number of single-layer vias.
    pub fn via_count(&self) -> u64 {
        self.vias.iter().map(|v| v.count() as u64).sum()
    }

    /// Whether the route has no geometry at all.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty() && self.vias.is_empty()
    }

    /// Every 3-D grid vertex touched by the route, without deduplication
    /// guarantees beyond per-element adjacency. Useful for connectivity
    /// checks and guide generation.
    pub fn touched_points(&self) -> Vec<Point3> {
        let mut pts = Vec::new();
        for s in &self.segments {
            if s.is_horizontal() {
                for x in s.from.x..=s.to.x {
                    pts.push(Point3::new(x, s.from.y, s.layer));
                }
            } else {
                for y in s.from.y..=s.to.y {
                    pts.push(Point3::new(s.from.x, y, s.layer));
                }
            }
        }
        for v in &self.vias {
            for l in v.lo..=v.hi {
                pts.push(Point3::new(v.at.x, v.at.y, l));
            }
        }
        pts.sort_unstable();
        pts.dedup();
        pts
    }

    /// Checks that the route forms one connected component in the 3-D grid
    /// graph (adjacent vertices differ by one step in x, y, or layer).
    ///
    /// An empty route is trivially connected.
    pub fn is_connected(&self) -> bool {
        let pts = self.touched_points();
        if pts.len() <= 1 {
            return true;
        }
        use std::collections::{HashMap, VecDeque};
        let index: HashMap<Point3, usize> = pts
            .iter()
            .copied()
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        let mut seen = vec![false; pts.len()];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        let mut reached = 1;
        while let Some(i) = queue.pop_front() {
            let p = pts[i];
            let mut try_nb = |q: Point3| {
                if let Some(&j) = index.get(&q) {
                    if !seen[j] {
                        seen[j] = true;
                        queue.push_back(j);
                        return 1;
                    }
                }
                0
            };
            let mut found = 0;
            if p.x > 0 {
                found += try_nb(Point3::new(p.x - 1, p.y, p.layer));
            }
            found += try_nb(Point3::new(p.x + 1, p.y, p.layer));
            if p.y > 0 {
                found += try_nb(Point3::new(p.x, p.y - 1, p.layer));
            }
            found += try_nb(Point3::new(p.x, p.y + 1, p.layer));
            if p.layer > 0 {
                found += try_nb(Point3::new(p.x, p.y, p.layer - 1));
            }
            found += try_nb(Point3::new(p.x, p.y, p.layer + 1));
            reached += found;
        }
        reached == pts.len()
    }
}

impl Route {
    /// Canonicalises the route in place: overlapping or touching collinear
    /// segments on the same layer merge into one, and via stacks at the
    /// same G-cell merge when their layer ranges overlap or touch.
    ///
    /// A multi-pin net's tree legs can share wire (two children routed
    /// along the same row); the physical net only occupies each track once,
    /// so demand must be committed on the *union* — which is exactly what
    /// the normalised route represents. [`Route::wirelength`] and
    /// [`Route::via_count`] shrink accordingly; connectivity is preserved.
    ///
    /// # Example
    ///
    /// ```
    /// use fastgr_grid::{Point2, Route, Segment};
    ///
    /// let mut r = Route::new();
    /// r.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(5, 0)));
    /// r.push_segment(Segment::new(1, Point2::new(3, 0), Point2::new(9, 0)));
    /// r.normalize();
    /// assert_eq!(r.segments().len(), 1);
    /// assert_eq!(r.wirelength(), 9);
    /// ```
    pub fn normalize(&mut self) {
        // In place with no heap allocation: sort groups segments by
        // (layer, orientation, cross coordinate) with intervals ascending
        // inside each group, then one forward pass merges overlapping or
        // touching intervals through a write cursor. This runs per net in
        // the pattern hot path, so it must not allocate.
        let seg_key = |s: &Segment| {
            let horizontal = s.is_horizontal();
            let (cross, lo) = if horizontal {
                (s.from.y, s.from.x)
            } else {
                (s.from.x, s.from.y)
            };
            (s.layer, horizontal, cross, lo)
        };
        self.segments.sort_unstable_by_key(seg_key);
        let mut w = 0usize;
        for i in 0..self.segments.len() {
            let s = self.segments[i];
            if w > 0 {
                let last = self.segments[w - 1];
                let (kl, kh) = (seg_key(&last), seg_key(&s));
                // Same group and touching/overlapping intervals merge
                // (touching intervals share a G-cell).
                if (kl.0, kl.1, kl.2) == (kh.0, kh.1, kh.2)
                    && kh.3 <= if kl.1 { last.to.x } else { last.to.y }
                {
                    let last = &mut self.segments[w - 1];
                    if kl.1 {
                        last.to.x = last.to.x.max(s.to.x);
                    } else {
                        last.to.y = last.to.y.max(s.to.y);
                    }
                    continue;
                }
            }
            self.segments[w] = s;
            w += 1;
        }
        self.segments.truncate(w);

        // Merge via stacks per G-cell the same way.
        self.vias.sort_unstable_by_key(|v| (v.at, v.lo, v.hi));
        let mut w = 0usize;
        for i in 0..self.vias.len() {
            let v = self.vias[i];
            if w > 0 {
                let last = &mut self.vias[w - 1];
                // Stacks sharing a layer form one stack.
                if last.at == v.at && v.lo <= last.hi {
                    last.hi = last.hi.max(v.hi);
                    continue;
                }
            }
            self.vias[w] = v;
            w += 1;
        }
        self.vias.truncate(w);
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "route: {} segments ({} wl), {} via stacks ({} vias)",
            self.segments.len(),
            self.wirelength(),
            self.vias.len(),
            self.via_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_normalises_and_measures() {
        let s = Segment::new(2, Point2::new(5, 9), Point2::new(5, 3));
        assert_eq!(s.from, Point2::new(5, 3));
        assert_eq!(s.to, Point2::new(5, 9));
        assert_eq!(s.length(), 6);
        assert!(!s.is_horizontal());
        assert_eq!(s.unit_edges().count(), 6);
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn diagonal_segment_panics() {
        let _ = Segment::new(1, Point2::new(0, 0), Point2::new(1, 1));
    }

    #[test]
    fn zero_length_geometry_is_dropped() {
        let mut r = Route::new();
        r.push_segment(Segment::new(1, Point2::new(4, 4), Point2::new(4, 4)));
        r.push_via(Via::new(Point2::new(4, 4), 3, 3));
        assert!(r.is_empty());
    }

    #[test]
    fn unit_edges_cover_segment() {
        let s = Segment::new(1, Point2::new(2, 7), Point2::new(5, 7));
        let edges: Vec<_> = s.unit_edges().collect();
        assert_eq!(
            edges,
            vec![
                (Point2::new(2, 7), Point2::new(3, 7)),
                (Point2::new(3, 7), Point2::new(4, 7)),
                (Point2::new(4, 7), Point2::new(5, 7)),
            ]
        );
    }

    #[test]
    fn l_shaped_route_is_connected() {
        let mut r = Route::new();
        r.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(3, 0)));
        r.push_via(Via::new(Point2::new(3, 0), 1, 2));
        r.push_segment(Segment::new(2, Point2::new(3, 0), Point2::new(3, 4)));
        assert!(r.is_connected());
        assert_eq!(r.wirelength(), 7);
        assert_eq!(r.via_count(), 1);
    }

    #[test]
    fn disconnected_route_is_detected() {
        let mut r = Route::new();
        r.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(2, 0)));
        r.push_segment(Segment::new(1, Point2::new(5, 5), Point2::new(7, 5)));
        assert!(!r.is_connected());
    }

    #[test]
    fn missing_via_breaks_connectivity() {
        let mut r = Route::new();
        r.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(3, 0)));
        r.push_segment(Segment::new(3, Point2::new(3, 0), Point2::new(6, 0)));
        assert!(!r.is_connected());
        r.push_via(Via::new(Point2::new(3, 0), 1, 3));
        assert!(r.is_connected());
    }

    #[test]
    fn normalize_merges_overlapping_segments() {
        let mut r = Route::new();
        r.push_segment(Segment::new(1, Point2::new(0, 4), Point2::new(6, 4)));
        r.push_segment(Segment::new(1, Point2::new(4, 4), Point2::new(9, 4)));
        r.push_segment(Segment::new(1, Point2::new(9, 4), Point2::new(12, 4))); // touching
        r.push_segment(Segment::new(1, Point2::new(0, 7), Point2::new(3, 7))); // other row
        r.normalize();
        assert_eq!(r.segments().len(), 2);
        assert_eq!(r.wirelength(), 12 + 3);
    }

    #[test]
    fn normalize_merges_via_stacks() {
        let p = Point2::new(2, 2);
        let mut r = Route::new();
        r.push_via(Via::new(p, 1, 3));
        r.push_via(Via::new(p, 3, 5));
        r.push_via(Via::new(p, 7, 8)); // disjoint: no hop 5-6 or 6-7
        r.push_via(Via::new(Point2::new(4, 4), 1, 2));
        r.normalize();
        assert_eq!(r.vias().len(), 3);
        assert_eq!(r.via_count(), 4 + 1 + 1);
    }

    #[test]
    fn normalize_preserves_connectivity_and_coverage() {
        let mut r = Route::new();
        r.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(5, 0)));
        r.push_segment(Segment::new(1, Point2::new(2, 0), Point2::new(8, 0)));
        r.push_via(Via::new(Point2::new(8, 0), 1, 2));
        r.push_segment(Segment::new(2, Point2::new(8, 0), Point2::new(8, 3)));
        let before = r.touched_points();
        r.normalize();
        assert!(r.is_connected());
        assert_eq!(r.touched_points(), before);
    }

    #[test]
    fn normalize_is_idempotent() {
        let mut r = Route::new();
        r.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(5, 0)));
        r.push_segment(Segment::new(1, Point2::new(3, 0), Point2::new(9, 0)));
        r.push_via(Via::new(Point2::new(5, 0), 1, 4));
        r.normalize();
        let once = r.clone();
        r.normalize();
        assert_eq!(r, once);
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut r = Route::new();
        r.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(3, 0)));
        r.push_via(Via::new(Point2::new(3, 0), 1, 2));
        r.clear();
        assert!(r.is_empty());
        r.push_segment(Segment::new(2, Point2::new(1, 1), Point2::new(1, 4)));
        assert_eq!(r.wirelength(), 3);
    }

    #[test]
    fn normalize_keeps_unrelated_geometry_sorted_and_intact() {
        let mut r = Route::new();
        r.push_segment(Segment::new(2, Point2::new(4, 1), Point2::new(4, 6))); // vertical
        r.push_segment(Segment::new(1, Point2::new(0, 2), Point2::new(5, 2)));
        r.push_via(Via::new(Point2::new(9, 9), 2, 4));
        r.push_via(Via::new(Point2::new(0, 2), 0, 1));
        r.normalize();
        assert_eq!(r.segments().len(), 2);
        assert_eq!(r.vias().len(), 2);
        assert_eq!(r.wirelength(), 5 + 5);
        assert_eq!(r.via_count(), 2 + 1);
    }

    #[test]
    fn touched_points_deduplicates() {
        let mut r = Route::new();
        r.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(2, 0)));
        r.push_segment(Segment::new(
            1,
            Point2::new(2, 0),
            Point2::new(2, 0).on_layer(0).xy(),
        ));
        r.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(2, 0)));
        let pts = r.touched_points();
        assert_eq!(pts.len(), 3);
    }
}
