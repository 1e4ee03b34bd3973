//! Min-plus computation-graph flow primitives.
//!
//! The paper reformulates 3-D pattern routing into flows over layer-indexed
//! vectors and matrices (Eqs. 5–7 for the L-shape, Eqs. 11–14 for the
//! Z-shape): every stage is a *min-plus* product — additions followed by a
//! minimum reduction — which maps onto homogeneous GPU threads. These are
//! the exact operations the simulated device executes; every function also
//! returns the argmins needed to reconstruct the winning routing path.
//! [`stack_min_plus_into`] is the host's O(L) form of the one product shape
//! the pattern kernels use, a via stack followed by a wire run; its tests
//! hold it to the brute-force `L x L` product (Eq. 7).
//!
//! Costs are the grid's Q44.20 integers, with `u64::MAX` as infinity ("no
//! path"): sums saturate, so an infinite operand makes its sum infinite,
//! and an infinite value never wins a strict `<`.

/// Via-stack bridge reduction in O(L):
/// `values[b] = min_a (w[a] + |pre[b] − pre[a]|) + run[b]`, with
/// `argmin[b]` the winning `a`.
///
/// This is the min-plus vector–matrix product (Eq. 7) over the matrix
/// `m[a][b] = |pre[b] − pre[a]| + run[b]` — the shape of every
/// pattern-kernel stage whose matrix is a via stack between layers `a` and
/// `b` at one G-cell followed by a wire run on `b` (Eqs. 6, 12 and 13) —
/// without building the matrix. `pre` holds the G-cell's via-stack prefix
/// costs, so it is non-decreasing and `|pre[b] − pre[a]|` splits at
/// `a = b`:
///
/// `values[b] = min(pre[b] + min_{a≤b}(w[a] − pre[a]),
///                  −pre[b] + min_{a≥b}(w[a] + pre[a])) + run[b]`.
///
/// One suffix-minimum pass and one prefix-minimum pass compute it. The
/// `a ≤ b` side adds the offset `top = pre[n−1]`, as
/// `w[a] + (top − pre[a])`, and subtracts it after the compare, so no
/// term underflows. Ties go to the lowest `a`; an infinite lane has
/// argmin 0. Both match the `L x L` product exactly, since the integer
/// sums are exact while they stay below `u64::MAX`. An infinite `pre` row
/// (a G-cell outside the grid) makes every lane infinite.
///
/// # Panics
///
/// Panics if `w`, `pre` and `run` differ in length.
///
/// # Example
///
/// ```
/// use fastgr_gpu::flow::stack_min_plus_into;
///
/// let (w, pre, run) = ([4, 1, 9], [0, 2, 3], [u64::MAX, 0, 1]);
/// let (mut values, mut argmin) = (Vec::new(), Vec::new());
/// stack_min_plus_into(&w, &pre, &run, &mut values, &mut argmin);
/// assert_eq!(values, vec![u64::MAX, 1, 3]);
/// assert_eq!(argmin, vec![0, 1, 1]);
/// ```
pub fn stack_min_plus_into(
    w: &[u64],
    pre: &[u64],
    run: &[u64],
    values: &mut Vec<u64>,
    argmin: &mut Vec<usize>,
) {
    let n = w.len();
    assert!(
        pre.len() == n && run.len() == n,
        "w, pre and run must have equal length"
    );
    values.clear();
    values.resize(n, u64::MAX);
    argmin.clear();
    argmin.resize(n, 0);
    let top = match pre.last() {
        Some(&top) if top != u64::MAX => top,
        _ => return,
    };
    // Suffix pass: values[b] = min_{a≥b}(w[a] + pre[a]), argmin[b] its
    // lowest a (`<=` while walking down keeps the lower index on ties).
    let (mut best, mut arg) = (u64::MAX, 0);
    for a in (0..n).rev() {
        let v = w[a].saturating_add(pre[a]);
        if v <= best {
            best = v;
            arg = a;
        }
        values[a] = best;
        argmin[a] = arg;
    }
    // Prefix pass, merged with the suffix minimum of each lane; both sides
    // carry `+ top`. The prefix argmin is never above b and the suffix
    // argmin never below, so ties go to the prefix side.
    let (mut best, mut arg) = (u64::MAX, 0);
    for b in 0..n {
        let v = w[b].saturating_add(top - pre[b]);
        if v < best {
            best = v;
            arg = b;
        }
        let below = best.saturating_add(pre[b]);
        let above = values[b].saturating_add(top - pre[b]);
        let (v, a) = if below <= above {
            (below, arg)
        } else {
            (above, argmin[b])
        };
        (values[b], argmin[b]) = match v.saturating_add(run[b]) {
            u64::MAX => (u64::MAX, 0),
            v => (v - top, a),
        };
    }
}

/// Elementwise min-merge over candidate flows (Eq. 10), stored as
/// consecutive `lanes`-wide rows of one flat slice: `values[t] =
/// min_i rows[i * lanes + t]`, with `argmin[t]` the winning candidate `i`
/// (ties resolved to the smallest index). The buffers are cleared and
/// resized in place, so repeated calls allocate nothing in steady state.
///
/// # Panics
///
/// Panics if `rows` is empty or its length is not a multiple of `lanes`.
///
/// # Example
///
/// ```
/// use fastgr_gpu::flow::merge_min_rows;
///
/// let (mut values, mut argmin) = (Vec::new(), Vec::new());
/// merge_min_rows(&[3, 9, 5, 1], 2, &mut values, &mut argmin);
/// assert_eq!(values, vec![3, 1]);
/// assert_eq!(argmin, vec![0, 1]);
/// ```
pub fn merge_min_rows(rows: &[u64], lanes: usize, values: &mut Vec<u64>, argmin: &mut Vec<usize>) {
    assert!(
        !rows.is_empty() && rows.len().is_multiple_of(lanes),
        "rows must hold a positive whole number of {lanes}-lane candidates"
    );
    values.clear();
    values.resize(lanes, u64::MAX);
    argmin.clear();
    argmin.resize(lanes, 0);
    for (i, cand) in rows.chunks_exact(lanes).enumerate() {
        for t in 0..lanes {
            if cand[t] < values[t] {
                values[t] = cand[t];
                argmin[t] = i;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A dense row-major `rows x cols` matrix of edge weights.
    #[derive(Debug, Clone, PartialEq)]
    struct Matrix {
        rows: usize,
        cols: usize,
        data: Vec<u64>,
    }

    impl Matrix {
        fn filled(rows: usize, cols: usize, fill: u64) -> Self {
            assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
            Self {
                rows,
                cols,
                data: vec![fill; rows * cols],
            }
        }

        fn row(&self, r: usize) -> &[u64] {
            &self.data[r * self.cols..(r + 1) * self.cols]
        }
    }

    impl std::ops::Index<(usize, usize)> for Matrix {
        type Output = u64;
        fn index(&self, (r, c): (usize, usize)) -> &u64 {
            &self.data[r * self.cols + c]
        }
    }

    impl std::ops::IndexMut<(usize, usize)> for Matrix {
        fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut u64 {
            &mut self.data[r * self.cols + c]
        }
    }

    /// The brute-force oracle of Eq. 7: `values[t] = min_s (w1[s] +
    /// w2[s][t])`, with `argmin[t]` the winning `s` (ties resolved to the
    /// smallest index; 0 for an infinite lane). Two calls in a row, the
    /// second fed the first's values, are the Z-shape chain of Eq. 14.
    fn vec_mat_min_plus_into(
        w1: &[u64],
        w2: &Matrix,
        values: &mut Vec<u64>,
        argmin: &mut Vec<usize>,
    ) {
        assert_eq!(w1.len(), w2.rows, "w1 length must equal w2 row count");
        let cols = w2.cols;
        values.clear();
        values.resize(cols, u64::MAX);
        argmin.clear();
        argmin.resize(cols, 0);
        for (s, &base) in w1.iter().enumerate() {
            let row = w2.row(s);
            for t in 0..cols {
                let v = base.saturating_add(row[t]);
                if v < values[t] {
                    values[t] = v;
                    argmin[t] = s;
                }
            }
        }
    }

    /// The allocating oracle of [`merge_min_rows`] over separate lanes:
    /// `(values, argmin)`.
    fn merge_min(candidates: &[Vec<u64>]) -> (Vec<u64>, Vec<usize>) {
        assert!(!candidates.is_empty(), "merge needs at least one candidate");
        let lanes = candidates[0].len();
        let mut values = vec![u64::MAX; lanes];
        let mut argmin = vec![0usize; lanes];
        for (i, cand) in candidates.iter().enumerate() {
            assert_eq!(cand.len(), lanes, "candidate lanes must have equal length");
            for t in 0..lanes {
                if cand[t] < values[t] {
                    values[t] = cand[t];
                    argmin[t] = i;
                }
            }
        }
        (values, argmin)
    }

    #[test]
    fn vec_mat_handles_infinities() {
        let w1 = [u64::MAX, 2];
        let mut w2 = Matrix::filled(2, 2, 1);
        w2[(1, 1)] = u64::MAX;
        let (mut values, mut argmin) = (Vec::new(), Vec::new());
        vec_mat_min_plus_into(&w1, &w2, &mut values, &mut argmin);
        assert_eq!(values, vec![3, u64::MAX]);
        assert_eq!(argmin, vec![1, 0]);
    }

    #[test]
    fn chain_matches_bruteforce() {
        let l = 4;
        // Deterministic pseudo-random weights.
        let mut next = 1u64;
        let mut rnd = || {
            next = next
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (next >> 33) % 1000
        };
        let w1: Vec<u64> = (0..l).map(|_| rnd()).collect();
        let mut w2 = Matrix::filled(l, l, 0);
        let mut w3 = Matrix::filled(l, l, 0);
        for r in 0..l {
            for c in 0..l {
                w2[(r, c)] = rnd();
                w3[(r, c)] = rnd();
            }
        }
        // The Z-shape chain as the DP runs it: best source per bridge
        // layer, then best bridge per target layer.
        let (mut mid, mut mid_arg) = (Vec::new(), Vec::new());
        let (mut values, mut arg_mid) = (Vec::new(), Vec::new());
        vec_mat_min_plus_into(&w1, &w2, &mut mid, &mut mid_arg);
        vec_mat_min_plus_into(&mid, &w3, &mut values, &mut arg_mid);
        for t in 0..l {
            let mut best = u64::MAX;
            for s in 0..l {
                for b in 0..l {
                    best = best.min(w1[s] + w2[(s, b)] + w3[(b, t)]);
                }
            }
            assert_eq!(values[t], best);
            // Backtracked indices must reproduce the value.
            let b = arg_mid[t];
            let s = mid_arg[b];
            assert_eq!(w1[s] + w2[(s, b)] + w3[(b, t)], best);
        }
    }

    #[test]
    fn merge_prefers_first_on_ties() {
        assert_eq!(merge_min(&[vec![2], vec![2]]).1, vec![0]);
    }

    #[test]
    #[should_panic(expected = "w1 length")]
    fn shape_mismatch_panics() {
        vec_mat_min_plus_into(
            &[1],
            &Matrix::filled(2, 2, 0),
            &mut Vec::new(),
            &mut Vec::new(),
        );
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_merge_panics() {
        let _ = merge_min(&[]);
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        let w1 = [1, 10, 4];
        let mut w2 = Matrix::filled(3, 3, 10);
        w2[(1, 0)] = 0;
        w2[(2, 1)] = 3;
        let (mut values, mut argmin) = (Vec::new(), Vec::new());
        // Two rounds: the second must reuse capacity and still be correct.
        for _ in 0..2 {
            vec_mat_min_plus_into(&w1, &w2, &mut values, &mut argmin);
            assert_eq!(values, vec![10, 7, 11]);
            assert_eq!(argmin, vec![1, 2, 0]);
        }

        let flat = [3, 9, 5, 1, 5, u64::MAX];
        let reference = merge_min(&[vec![3, 9], vec![5, 1], vec![5, u64::MAX]]);
        merge_min_rows(&flat, 2, &mut values, &mut argmin);
        assert_eq!((values, argmin), reference);
    }

    proptest! {
        /// The O(L) bridge reduction is the min-plus product over the
        /// explicit `|pre[b] − pre[a]| + run[b]` matrix, value for value and
        /// argmin for argmin. Small draws force ties between lanes and
        /// repeated prefixes; `shift` scales them up to 2⁴⁴, and a `pick`
        /// of 0 makes a `w` or `run` lane infinite.
        #[test]
        fn stack_reduction_matches_matrix_product(
            lanes in proptest::collection::vec(
                (0u64..24, 0u8..6, 0u64..24, 0u8..6, 0u64..3),
                3..13,
            ),
            shift in 0u32..40,
        ) {
            let inf_or = |pick: u8, k: u64| if pick == 0 { u64::MAX } else { k << shift };
            let w: Vec<u64> = lanes.iter().map(|&(k, pick, ..)| inf_or(pick, k)).collect();
            let run: Vec<u64> = lanes.iter().map(|&(_, _, k, pick, _)| inf_or(pick, k)).collect();
            let mut acc = 0u64;
            let pre: Vec<u64> = lanes
                .iter()
                .map(|&(.., step)| {
                    let p = acc << shift;
                    acc += step;
                    p
                })
                .collect();
            let l = w.len();
            let mut m = Matrix::filled(l, l, 0);
            for a in 0..l {
                for b in 0..l {
                    m[(a, b)] = pre[b].abs_diff(pre[a]).saturating_add(run[b]);
                }
            }
            let (mut want, mut want_arg) = (Vec::new(), Vec::new());
            vec_mat_min_plus_into(&w, &m, &mut want, &mut want_arg);
            let (mut got, mut got_arg) = (Vec::new(), Vec::new());
            stack_min_plus_into(&w, &pre, &run, &mut got, &mut got_arg);
            prop_assert_eq!(got, want);
            prop_assert_eq!(got_arg, want_arg);
        }
    }

    #[test]
    fn stack_reduction_of_an_off_grid_cell_is_infinite() {
        let pre = [u64::MAX; 3];
        let (mut values, mut argmin) = (Vec::new(), Vec::new());
        stack_min_plus_into(&[1, u64::MAX, 0], &pre, &[0; 3], &mut values, &mut argmin);
        assert_eq!(values, vec![u64::MAX; 3]);
        assert_eq!(argmin, vec![0; 3]);
    }

    #[test]
    fn matrix_indexing_round_trips() {
        let mut m = Matrix::filled(3, 4, 0);
        m[(2, 3)] = 9;
        assert_eq!(m[(2, 3)], 9);
        assert_eq!(m.row(2)[3], 9);
    }
}
