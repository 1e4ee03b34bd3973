//! Bounding-box conflict graph construction.
//!
//! The graph is stored in compressed sparse row (CSR) form: `first_out`
//! holds `n + 1` offsets and `head` the neighbour ids, so task `t`'s
//! neighbours are `head[first_out[t]..first_out[t + 1]]`, sorted ascending.
//! Two flat `u32` arrays hold the whole graph: `4·(n + 1) + 8·E` bytes for
//! `n` tasks and `E` conflict edges.
//!
//! Construction ([`ConflictGraph::from_bounding_boxes`]) is serial and keeps
//! no dedup set and no per-task vectors:
//!
//! 1. **Bucket grid.** The boxes' extent is cut into square-ish buckets whose
//!    side is the boxes' mean width and height (never finer than the `√n`
//!    rule that keeps the bucket count near `n`). A typical box then spans
//!    about 2×2 buckets, and each bucket holds few boxes.
//! 2. **Bucket membership by counting sort.** One pass counts how many boxes
//!    cover each bucket, a prefix sum turns the counts into offsets, and a
//!    second pass fills one flat member array.
//! 3. **Corner ownership.** Two intersecting boxes share every bucket their
//!    intersection touches. The pair is emitted only from the bucket holding
//!    the intersection's lower-left corner, `(max lo.x, max lo.y)`, which
//!    both boxes cover; so each edge is emitted exactly once.
//! 4. **Count-then-fill adjacency.** The owned pairs are enumerated twice:
//!    the first pass counts degrees and prefix-sums them into `first_out`,
//!    the second writes `head`. Each row is then sorted.
//!
//! Peak heap during construction is the finished graph plus the bucket
//! arrays (a few bytes per box): about 1.03× the graph at `s19t9m` density,
//! bounded at 1.5× by the `peak_heap` test.

use std::fmt;

use fastgr_grid::Rect;

/// The task conflict graph: tasks are vertices, an edge joins every pair of
/// tasks whose bounding boxes overlap (they would touch the same routing
/// resources and must not execute concurrently).
///
/// Construction uses a uniform bucket grid so the expected cost is close to
/// linear in the number of tasks plus the number of actual conflicts,
/// instead of the all-pairs `O(n^2)`. See the module docs for the layout
/// and the construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictGraph {
    /// `n + 1` offsets into `head`; row `t` is `first_out[t]..first_out[t + 1]`.
    first_out: Vec<u32>,
    /// Neighbour ids, two arcs per conflict edge, each row sorted ascending.
    head: Vec<u32>,
}

impl ConflictGraph {
    /// Builds the conflict graph of `boxes` (task `i` owns `boxes[i]`).
    pub fn from_bounding_boxes(boxes: &[Rect]) -> Self {
        let buckets = Buckets::new(boxes);
        let (first_out, mut head) = csr_from_emitter(boxes.len(), |put| {
            buckets.for_each_owned_pair(boxes, |i, j| {
                put(i as usize, j);
                put(j as usize, i);
            })
        });
        for row in first_out.windows(2) {
            head[row[0] as usize..row[1] as usize].sort_unstable();
        }
        Self { first_out, head }
    }

    /// Builds the conflict graph by the naive all-pairs scan — the `O(n²)`
    /// reference implementation the bucketised construction is checked
    /// against (differentially tested here and in `fastgr-analysis`'s
    /// property tests, on random boxes and on real designs).
    pub fn from_bounding_boxes_naive(boxes: &[Rect]) -> Self {
        let mut first_out = Vec::with_capacity(boxes.len() + 1);
        let mut head = Vec::new();
        first_out.push(0);
        for (a, box_a) in boxes.iter().enumerate() {
            head.extend(
                (0..boxes.len())
                    .filter(|&b| b != a && box_a.intersects(&boxes[b]))
                    .map(|b| b as u32),
            );
            first_out.push(head.len() as u32);
        }
        Self { first_out, head }
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.first_out.len() - 1
    }

    /// Number of conflict edges.
    pub fn edge_count(&self) -> usize {
        self.head.len() / 2
    }

    /// The tasks conflicting with `task`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn neighbors(&self, task: u32) -> &[u32] {
        let t = task as usize;
        &self.head[self.first_out[t] as usize..self.first_out[t + 1] as usize]
    }

    /// Whether tasks `a` and `b` conflict.
    pub fn conflicts(&self, a: u32, b: u32) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }
}

/// Builds a CSR `(first, values)` with `rows` rows from a replayable
/// emitter. `emit` is called twice with a `put(row, value)` sink: the first
/// call only counts each row's length, the second writes the values, which
/// keep their emission order within a row. Nothing but the two output
/// arrays is allocated.
fn csr_from_emitter(
    rows: usize,
    emit: impl Fn(&mut dyn FnMut(usize, u32)),
) -> (Vec<u32>, Vec<u32>) {
    // Pass 1: row lengths, stored one slot to the right.
    let mut first = vec![0u32; rows + 1];
    emit(&mut |row, _| first[row + 1] += 1);
    // Exclusive prefix sum in the same slots: `first[row + 1]` becomes the
    // start of `row`, and the fill below advances it to the row's end.
    let mut total = 0usize;
    for slot in &mut first[1..] {
        let len = *slot as usize;
        *slot = total as u32;
        total += len;
    }
    assert!(
        total <= u32::MAX as usize,
        "conflict graph exceeds u32 offsets"
    );
    // Pass 2: fill.
    let mut values = vec![0u32; total];
    emit(&mut |row, value| {
        let at = &mut first[row + 1];
        values[*at as usize] = value;
        *at += 1;
    });
    (first, values)
}

/// A uniform bucket grid over the boxes, with each bucket's member boxes
/// (ascending ids) in CSR form.
struct Buckets {
    /// Bucket width and height in G-cells.
    w: usize,
    h: usize,
    cols: usize,
    /// `cols * rows + 1` offsets into `members`, row-major by bucket.
    first: Vec<u32>,
    members: Vec<u32>,
}

impl Buckets {
    fn new(boxes: &[Rect]) -> Self {
        let n = boxes.len().max(1);
        let max_x = boxes.iter().map(|b| b.hi.x).max().unwrap_or(0) as usize + 1;
        let max_y = boxes.iter().map(|b| b.hi.y).max().unwrap_or(0) as usize + 1;
        let (sum_w, sum_h) = boxes.iter().fold((0usize, 0usize), |(w, h), b| {
            (w + span(b.lo.x, b.hi.x), h + span(b.lo.y, b.hi.y))
        });
        // Bucket side: the mean box extent, so a typical box covers about
        // 2×2 buckets; but no finer than `extent / (√n + 1)`, which bounds
        // the bucket count near `n` when boxes are tiny on a large grid.
        let target = (n as f64).sqrt().ceil() as usize + 1;
        let w = sum_w.div_ceil(n).max(max_x / target).max(1);
        let h = sum_h.div_ceil(n).max(max_y / target).max(1);
        let (cols, rows) = (max_x.div_ceil(w), max_y.div_ceil(h));
        let (first, members) = csr_from_emitter(cols * rows, |put| {
            for (i, b) in boxes.iter().enumerate() {
                for r in b.lo.y as usize / h..=b.hi.y as usize / h {
                    for c in b.lo.x as usize / w..=b.hi.x as usize / w {
                        put(r * cols + c, i as u32);
                    }
                }
            }
        });
        Self {
            w,
            h,
            cols,
            first,
            members,
        }
    }

    /// The bucket holding G-cell `(x, y)`.
    fn cell(&self, x: u16, y: u16) -> usize {
        y as usize / self.h * self.cols + x as usize / self.w
    }

    /// Calls `f(i, j)` (with `i < j`) once for every intersecting pair of
    /// boxes, from the bucket that holds the pair's intersection corner
    /// `(max lo.x, max lo.y)`. Buckets are visited row-major and pairs within
    /// a bucket in ascending id order, so the sequence is deterministic.
    fn for_each_owned_pair(&self, boxes: &[Rect], mut f: impl FnMut(u32, u32)) {
        for (cell, range) in self.first.windows(2).enumerate() {
            let members = &self.members[range[0] as usize..range[1] as usize];
            for (k, &i) in members.iter().enumerate() {
                let a = &boxes[i as usize];
                for &j in &members[k + 1..] {
                    let b = &boxes[j as usize];
                    if a.intersects(b) && self.cell(a.lo.x.max(b.lo.x), a.lo.y.max(b.lo.y)) == cell
                    {
                        f(i, j);
                    }
                }
            }
        }
    }
}

/// Number of G-cells `lo..=hi` covers (zero for an inverted range).
fn span(lo: u16, hi: u16) -> usize {
    (hi as usize + 1).saturating_sub(lo as usize)
}

impl fmt::Display for ConflictGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conflict graph: {} tasks, {} edges",
            self.task_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_grid::Point2;
    use proptest::prelude::*;

    fn rect(x0: u16, y0: u16, x1: u16, y1: u16) -> Rect {
        Rect::new(Point2::new(x0, y0), Point2::new(x1, y1))
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = ConflictGraph::from_bounding_boxes(&[]);
        assert_eq!(g.task_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g, ConflictGraph::from_bounding_boxes_naive(&[]));
    }

    #[test]
    fn detects_overlaps_and_ignores_disjoint() {
        let g = ConflictGraph::from_bounding_boxes(&[
            rect(0, 0, 4, 4),
            rect(3, 3, 8, 8),
            rect(20, 20, 25, 25),
        ]);
        assert!(g.conflicts(0, 1));
        assert!(g.conflicts(1, 0));
        assert!(!g.conflicts(0, 2));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn edge_touching_counts_as_conflict() {
        let g = ConflictGraph::from_bounding_boxes(&[rect(0, 0, 2, 2), rect(2, 2, 4, 4)]);
        assert!(g.conflicts(0, 1));
    }

    #[test]
    fn no_self_edges() {
        let g = ConflictGraph::from_bounding_boxes(&[rect(0, 0, 4, 4)]);
        assert!(g.neighbors(0).is_empty());
    }

    /// A cross: a wide box and a tall box whose intersection's lower-left
    /// corner falls in a bucket holding neither box's `lo` corner. The pair
    /// must still be emitted, exactly once, from the corner's bucket.
    #[test]
    fn pair_is_owned_by_a_bucket_holding_neither_lo_corner() {
        let mut boxes = vec![rect(0, 10, 20, 12), rect(10, 0, 12, 20)];
        // Point boxes far away pull the mean extent (and so the bucket side)
        // below the cross's arm offsets.
        boxes.extend((0..10).map(|k| rect(30 + k, 30, 30 + k, 30)));
        let buckets = Buckets::new(&boxes);
        let corner = buckets.cell(10, 10);
        assert_ne!(
            corner,
            buckets.cell(0, 10),
            "corner shares the wide box's lo bucket"
        );
        assert_ne!(
            corner,
            buckets.cell(10, 0),
            "corner shares the tall box's lo bucket"
        );

        let mut owned = Vec::new();
        buckets.for_each_owned_pair(&boxes, |i, j| owned.push((i, j)));
        assert_eq!(owned.iter().filter(|&&p| p == (0, 1)).count(), 1);

        let g = ConflictGraph::from_bounding_boxes(&boxes);
        assert!(g.conflicts(0, 1));
        assert_eq!(g, ConflictGraph::from_bounding_boxes_naive(&boxes));
    }

    proptest! {
        /// Bucketised construction must agree exactly with the all-pairs
        /// reference. Coordinates up to ~300 and extents up to 40 make
        /// pairs span several multi-cell buckets; `kind` mixes in point
        /// boxes (0) and exact duplicates of the previous box (1).
        #[test]
        fn matches_all_pairs_reference(
            raw in proptest::collection::vec(
                (0u16..300, 0u16..300, 0u16..=40, 0u16..=40, 0u8..6),
                0..80
            )
        ) {
            let mut boxes: Vec<Rect> = Vec::with_capacity(raw.len());
            for &(x, y, w, h, kind) in &raw {
                let b = match (kind, boxes.last()) {
                    (0, _) => rect(x, y, x, y),
                    (1, Some(&prev)) => prev,
                    _ => rect(x, y, x + w, y + h),
                };
                boxes.push(b);
            }
            let g = ConflictGraph::from_bounding_boxes(&boxes);
            for i in 0..boxes.len() {
                for j in (i + 1)..boxes.len() {
                    let expect = boxes[i].intersects(&boxes[j]);
                    prop_assert_eq!(
                        g.conflicts(i as u32, j as u32),
                        expect,
                        "pair ({}, {}) expected {}", i, j, expect
                    );
                }
            }
            // The whole structure (CSR offsets, sorted rows) must equal the
            // all-pairs reference, not just the membership queries.
            prop_assert_eq!(g, ConflictGraph::from_bounding_boxes_naive(&boxes));
        }
    }
}
