//! Algorithm 1: greedy batch extraction, from a conflict graph or straight
//! from the task boxes.

use fastgr_grid::Rect;

use crate::conflict::ConflictGraph;

/// Partitions tasks into conflict-free batches (paper Algorithm 1).
///
/// `order` lists the task ids in the chosen net order (e.g. ascending
/// bounding-box half-perimeter, Section IV-C). The algorithm repeatedly
/// starts a batch with the first remaining task, then scans the remaining
/// tasks in order and pulls in every task that conflicts with nothing
/// already in the batch — a greedy maximal independent set per batch.
///
/// Every task appears in exactly one batch; the first batch is the *root
/// task batch* used by the two-stage scheduler.
///
/// # Panics
///
/// Panics if `order` contains an id out of range of `conflicts`, or lists
/// any task twice.
///
/// # Example
///
/// ```
/// use fastgr_grid::{Point2, Rect};
/// use fastgr_taskgraph::{extract_batches, ConflictGraph};
///
/// // A chain of three mutually overlapping boxes 0-1, 1-2.
/// let boxes = vec![
///     Rect::new(Point2::new(0, 0), Point2::new(4, 4)),
///     Rect::new(Point2::new(3, 3), Point2::new(7, 7)),
///     Rect::new(Point2::new(6, 6), Point2::new(9, 9)),
/// ];
/// let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
/// let batches = extract_batches(&[0, 1, 2], &conflicts);
/// assert_eq!(batches, vec![vec![0, 2], vec![1]]);
/// ```
pub fn extract_batches(order: &[u32], conflicts: &ConflictGraph) -> Vec<Vec<u32>> {
    let n = conflicts.task_count();
    let mut assigned = vec![false; n];
    let mut blocked = vec![u32::MAX; n]; // batch number that blocks the task
    let mut batches: Vec<Vec<u32>> = Vec::new();

    check_order(order, n);
    let mut remaining: Vec<u32> = order.to_vec();

    let mut batch_no = 0u32;
    while !remaining.is_empty() {
        let mut batch = Vec::new();
        let mut rest = Vec::with_capacity(remaining.len());
        for &t in &remaining {
            if assigned[t as usize] {
                continue;
            }
            if blocked[t as usize] == batch_no {
                rest.push(t);
                continue;
            }
            // No conflict with anything already in this batch: take it.
            assigned[t as usize] = true;
            for &nb in conflicts.neighbors(t) {
                if !assigned[nb as usize] {
                    blocked[nb as usize] = batch_no;
                }
            }
            batch.push(t);
        }
        debug_assert!(!batch.is_empty(), "every round must make progress");
        batches.push(batch);
        remaining = rest;
        batch_no += 1;
    }
    batches
}

/// Algorithm 1 without a conflict graph: the same batches as
/// [`extract_batches`] on [`ConflictGraph::from_bounding_boxes`]`(boxes)`.
///
/// Algorithm 1 is first-fit colouring in `order`: a task joins the lowest
/// batch holding no earlier task it conflicts with, and two closed boxes
/// conflict exactly when they share a G-cell. So each G-cell of the
/// `width × height` grid keeps a bitset of the batches present there; a
/// task ORs the bitsets over its box, takes the lowest zero bit and sets it
/// over the box. Word `w` of every G-cell's bitset lives in plane `w`, and a
/// plane is added when batch `64 · w` opens.
///
/// # Panics
///
/// As [`extract_batches`] does, and if a listed task's box leaves the grid.
pub fn first_fit_batches(order: &[u32], boxes: &[Rect], width: u16, height: u16) -> Vec<Vec<u32>> {
    check_order(order, boxes.len());
    let (width, height) = (width as usize, height as usize);
    let cells = width * height;
    let (mut planes, mut bits) = (1, vec![0u64; cells]);
    let mut batches: Vec<Vec<u32>> = Vec::new();
    for &t in order {
        let b = boxes[t as usize];
        let [x0, y0, x1, y1] = [b.lo.x, b.lo.y, b.hi.x, b.hi.y].map(usize::from);
        assert!(x1 < width && y1 < height, "task {t}'s box leaves the grid");
        let covered = || (y0..=y1).flat_map(move |y| y * width + x0..=y * width + x1);
        // The lowest batch free over the whole box, one plane at a time.
        let mut batch = 0;
        while batch < planes * 64 {
            let taken = covered().fold(0, |taken, cell| taken | bits[batch / 64 * cells + cell]);
            if taken != u64::MAX {
                batch += taken.trailing_ones() as usize;
                break;
            }
            batch += 64;
        }
        if batch == planes * 64 {
            planes += 1;
            bits.resize(planes * cells, 0);
        }
        for cell in covered() {
            bits[batch / 64 * cells + cell] |= 1 << (batch % 64);
        }
        if batch == batches.len() {
            batches.push(Vec::new());
        }
        batches[batch].push(t);
    }
    batches
}

/// Panics unless `order` lists distinct task ids below `n`.
fn check_order(order: &[u32], n: usize) {
    let mut seen = vec![false; n];
    for &t in order {
        assert!((t as usize) < n, "task id {t} out of range");
        assert!(!seen[t as usize], "task id {t} listed twice");
        seen[t as usize] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_grid::{Point2, Rect};
    use proptest::prelude::*;

    fn rect(x0: u16, y0: u16, x1: u16, y1: u16) -> Rect {
        Rect::new(Point2::new(x0, y0), Point2::new(x1, y1))
    }

    #[test]
    fn independent_tasks_form_one_batch() {
        let boxes = vec![rect(0, 0, 1, 1), rect(5, 5, 6, 6), rect(10, 10, 11, 11)];
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let batches = extract_batches(&[0, 1, 2], &conflicts);
        assert_eq!(batches, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn clique_serialises_fully() {
        let boxes = vec![rect(0, 0, 9, 9), rect(1, 1, 8, 8), rect(2, 2, 7, 7)];
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let batches = extract_batches(&[2, 0, 1], &conflicts);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0], vec![2]); // order is respected
    }

    #[test]
    fn order_determines_batch_leaders() {
        let boxes = vec![rect(0, 0, 4, 4), rect(3, 3, 7, 7)];
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        assert_eq!(extract_batches(&[0, 1], &conflicts)[0], vec![0]);
        assert_eq!(extract_batches(&[1, 0], &conflicts)[0], vec![1]);
    }

    #[test]
    fn empty_order_gives_no_batches() {
        let conflicts = ConflictGraph::from_bounding_boxes(&[]);
        assert!(extract_batches(&[], &conflicts).is_empty());
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_ids_panic() {
        let boxes = vec![rect(0, 0, 1, 1)];
        let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
        let _ = extract_batches(&[0, 0], &conflicts);
    }

    proptest! {
        #[test]
        fn batches_partition_and_are_conflict_free(
            raw in proptest::collection::vec((0u16..30, 0u16..30, 0u16..8, 0u16..8), 1..30)
        ) {
            let boxes: Vec<Rect> = raw
                .iter()
                .map(|&(x, y, w, h)| rect(x, y, x + w, y + h))
                .collect();
            let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
            let order: Vec<u32> = (0..boxes.len() as u32).collect();
            let batches = extract_batches(&order, &conflicts);

            // Partition: every task exactly once.
            let mut seen = vec![false; boxes.len()];
            for batch in &batches {
                for &t in batch {
                    prop_assert!(!seen[t as usize]);
                    seen[t as usize] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));

            // No conflicts inside a batch.
            for batch in &batches {
                for (i, &a) in batch.iter().enumerate() {
                    for &b in &batch[i + 1..] {
                        prop_assert!(!conflicts.conflicts(a, b));
                    }
                }
            }

            // Maximality of each batch w.r.t. the scan: every task not in
            // batch k conflicts with something in some earlier-or-equal
            // batch... (weaker check: batch count is bounded by max degree + 1)
            let max_deg = (0..boxes.len() as u32)
                .map(|t| conflicts.neighbors(t).len())
                .max()
                .unwrap_or(0);
            prop_assert!(batches.len() <= max_deg + 1);
        }
    }

    #[test]
    fn first_fit_panics_like_extract_batches() {
        let boxes = vec![rect(0, 0, 1, 1)];
        for (order, message) in [(&[0, 0][..], "listed twice"), (&[1][..], "out of range")] {
            let caught = std::panic::catch_unwind(|| first_fit_batches(order, &boxes, 2, 2));
            let payload = caught.expect_err("bad order must panic");
            let text = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(text.contains(message), "{text:?} lacks {message:?}");
        }
    }

    #[test]
    #[should_panic(expected = "box leaves the grid")]
    fn first_fit_rejects_a_box_off_the_grid() {
        let _ = first_fit_batches(&[0], &[rect(0, 0, 2, 1)], 2, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// First fit over G-cells gives exactly Algorithm 1's batches on the
        /// conflict graph, for random boxes in a random order. On a 24 × 24
        /// grid, `kind` mixes in point boxes (0), duplicates of the previous
        /// box (1), boxes sharing only the previous box's right edge (2) or
        /// top-right corner (3), and boxes covering most of the grid (4, 5),
        /// which pile up past 64 and 128 batches so the bitsets widen.
        #[test]
        fn first_fit_matches_extract_batches(
            raw in proptest::collection::vec(
                (0u16..24, 0u16..24, 0u16..=8, 0u16..=8, 0u8..8, 0u32..1000),
                0..480
            )
        ) {
            let mut boxes: Vec<Rect> = Vec::with_capacity(raw.len());
            for &(x, y, w, h, kind, _) in &raw {
                let b = match (kind, boxes.last()) {
                    (0, _) => rect(x, y, x, y),
                    (1, Some(&prev)) => prev,
                    (2, Some(&prev)) => {
                        let y = prev.lo.y + y % (prev.hi.y - prev.lo.y + 1);
                        rect(prev.hi.x, y, (prev.hi.x + w).min(23), (y + h).min(23))
                    }
                    (3, Some(&prev)) => {
                        rect(prev.hi.x, prev.hi.y, (prev.hi.x + w).min(23), (prev.hi.y + h).min(23))
                    }
                    (4 | 5, _) => rect(x % 4, y % 4, 23 - w % 4, 23 - h % 4),
                    _ => rect(x, y, (x + w).min(23), (y + h).min(23)),
                };
                boxes.push(b);
            }
            let mut order: Vec<u32> = (0..boxes.len() as u32).collect();
            order.sort_by_key(|&t| (raw[t as usize].5, t));
            let expected = extract_batches(&order, &ConflictGraph::from_bounding_boxes(&boxes));
            prop_assert_eq!(first_fit_batches(&order, &boxes, 24, 24), expected);
        }
    }
}
