//! Bounding-box conflict graph construction.
//!
//! The graph is stored in compressed sparse row (CSR) form: `first_out`
//! holds `n + 1` offsets and `head` the neighbour ids, so task `t`'s
//! neighbours are `head[first_out[t]..first_out[t + 1]]`, sorted ascending.
//! Two flat `u32` arrays hold the whole graph: `4·(n + 1) + 8·E` bytes for
//! `n` tasks and `E` conflict edges.
//!
//! Construction ([`ConflictGraph::from_bounding_boxes`]) is a serial sweep
//! and prune with no dedup set and no per-task vectors. Task ids are sorted
//! by `lo.x`; walking them in that order, the sweep drops every active box
//! with `hi.x < lo.x` (it ends left of all boxes still to come), pairs the
//! new box with each remaining active box whose y-range overlaps its own,
//! and makes it active. Each pair is met once. The sweep runs twice, to
//! count degrees into `first_out` and then to fill `head`, and each row is
//! then sorted. Peak heap is the finished graph plus the sorted ids and the
//! active list, bounded at 1.5× the graph by the `peak_heap` test.
//!
//! The router builds a graph only for RRR's task-graph schedule, and under
//! `validate` as the oracle for batches, which
//! [`first_fit_batches`](crate::first_fit_batches) computes without one.

use std::fmt;

use fastgr_grid::Rect;

/// The task conflict graph: tasks are vertices, an edge joins every pair of
/// tasks whose bounding boxes overlap (they would touch the same routing
/// resources and must not execute concurrently).
///
/// Construction sweeps the boxes in `lo.x` order, so each box is tested
/// only against the boxes whose x-range still reaches it, instead of the
/// all-pairs `O(n^2)`. See the module docs for the layout and the
/// construction.
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
        let mut by_lo_x: Vec<u32> = (0..boxes.len() as u32).collect();
        by_lo_x.sort_unstable_by_key(|&i| boxes[i as usize].lo.x);
        let (first_out, mut head) = csr_from_emitter(boxes.len(), |put| {
            let mut active: Vec<u32> = Vec::new();
            for &i in &by_lo_x {
                let a = &boxes[i as usize];
                active.retain(|&j| boxes[j as usize].hi.x >= a.lo.x);
                for &j in &active {
                    let b = &boxes[j as usize];
                    if a.lo.y <= b.hi.y && b.lo.y <= a.hi.y {
                        put(i as usize, j);
                        put(j as usize, i);
                    }
                }
                active.push(i);
            }
        });
        for row in first_out.windows(2) {
            head[row[0] as usize..row[1] as usize].sort_unstable();
        }
        Self { first_out, head }
    }

    /// Builds the conflict graph by the naive all-pairs scan — the `O(n²)`
    /// reference implementation the sweep is checked against
    /// (differentially tested here and in `fastgr-analysis`'s property
    /// tests, on random boxes and on real designs).
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

    proptest! {
        /// The sweep must agree exactly with the all-pairs reference.
        /// Coordinates up to ~300 and extents up to 40 give long active
        /// lists; `kind` mixes in point boxes (0) and exact duplicates of
        /// the previous box (1).
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
