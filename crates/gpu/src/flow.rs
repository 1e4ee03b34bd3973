//! Min-plus computation-graph flow primitives.
//!
//! The paper reformulates 3-D pattern routing into flows over layer-indexed
//! vectors and matrices (Eqs. 5–7 for the L-shape, Eqs. 11–14 for the
//! Z-shape): every stage is a *min-plus* product — additions followed by a
//! minimum reduction — which maps onto homogeneous GPU threads. These are
//! the exact operations the simulated device executes; every function also
//! returns the argmins needed to reconstruct the winning routing path.
//! [`stack_min_plus_into`] is the host's O(L) form of the one product shape
//! the pattern kernels use, a via stack followed by a wire run; it is
//! bit-identical to [`vec_mat_min_plus_into`] on that matrix.

use std::fmt;

/// A dense row-major `rows x cols` matrix of edge weights.
///
/// # Example
///
/// ```
/// use fastgr_gpu::flow::Matrix;
///
/// let mut m = Matrix::filled(2, 3, 0.0);
/// m[(1, 2)] = 7.5;
/// assert_eq!(m[(1, 2)], 7.5);
/// assert_eq!(m.rows(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix with every entry set to `fill`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(rows: usize, cols: usize, fill: f64) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![fill; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} weight matrix", self.rows, self.cols)
    }
}

/// Result of a min-plus reduction: values plus the winning indices.
#[derive(Debug, Clone, PartialEq)]
pub struct MinPlus {
    /// The minimised values, one per output lane.
    pub values: Vec<f64>,
    /// For each output lane, the input index that achieved the minimum
    /// (ties resolved to the smallest index; meaningless when the value is
    /// infinite).
    pub argmin: Vec<usize>,
}

/// Min-plus vector–matrix product `values[t] = min_s (w1[s] + w2[s][t])`,
/// with `argmin[t]` the winning `s` (ties resolved to the smallest index).
///
/// This is Eq. 7 of the paper — one L-shape flow computing all `L` target
/// layer costs simultaneously. On the device every `(s, t)` combination is
/// one thread and the reduction is a tree of depth `log L`. Two calls in a
/// row, the second fed the first's values, are the Z-shape chain
/// `w1 ∘ W2 ∘ W3` of Eq. 14. The buffers are cleared and resized in place,
/// so repeated calls reuse their capacity and allocate nothing in steady
/// state.
///
/// # Panics
///
/// Panics if `w1.len() != w2.rows()`.
///
/// # Example
///
/// ```
/// use fastgr_gpu::flow::{vec_mat_min_plus_into, Matrix};
///
/// let w1 = [1.0, 10.0];
/// let mut w2 = Matrix::filled(2, 2, 0.0);
/// w2[(0, 0)] = 5.0;  w2[(0, 1)] = 100.0;
/// w2[(1, 0)] = 0.0;  w2[(1, 1)] = 1.0;
/// let (mut values, mut argmin) = (Vec::new(), Vec::new());
/// vec_mat_min_plus_into(&w1, &w2, &mut values, &mut argmin);
/// assert_eq!(values, vec![6.0, 11.0]);
/// assert_eq!(argmin, vec![0, 1]);
/// ```
pub fn vec_mat_min_plus_into(
    w1: &[f64],
    w2: &Matrix,
    values: &mut Vec<f64>,
    argmin: &mut Vec<usize>,
) {
    assert_eq!(w1.len(), w2.rows(), "w1 length must equal w2 row count");
    let cols = w2.cols();
    values.clear();
    values.resize(cols, f64::INFINITY);
    argmin.clear();
    argmin.resize(cols, 0);
    for (s, &base) in w1.iter().enumerate() {
        let row = w2.row(s);
        for t in 0..cols {
            let v = base + row[t];
            if v < values[t] {
                values[t] = v;
                argmin[t] = s;
            }
        }
    }
}

/// Via-stack bridge reduction in O(L):
/// `values[b] = min_a (w[a] + |pre[b] − pre[a]|) + run[b]`, with
/// `argmin[b]` the winning `a`.
///
/// This is [`vec_mat_min_plus_into`] over the matrix `m[a][b] = |pre[b] −
/// pre[a]| + run[b]` — the shape of every pattern-kernel stage whose
/// matrix is a via stack between layers `a` and `b` at one G-cell followed
/// by a wire run on `b` (Eqs. 6, 12 and 13) — without building the matrix.
/// `pre` holds the G-cell's via-stack prefix costs, so it is
/// non-decreasing and `|pre[b] − pre[a]|` splits at `a = b`:
///
/// `values[b] = min(pre[b] + min_{a≤b}(w[a] − pre[a]),
///                  −pre[b] + min_{a≥b}(w[a] + pre[a])) + run[b]`.
///
/// One suffix-minimum pass and one prefix-minimum pass compute it. Ties
/// go to the lowest `a`, and a lane whose value is infinite keeps argmin
/// 0, both exactly as in [`vec_mat_min_plus_into`].
///
/// # Exactness
///
/// The result is bit-identical to the matrix product when every finite
/// operand is an integer multiple `k · 2⁻²⁰` with `|k| < 2⁵³` and so is
/// every partial sum (the Q44.20 cost domain of the grid crate): then
/// every `+` and `−` above is exact, so regrouping the terms cannot change
/// a value or turn a tie into a non-tie. Infinite `w` or `run` entries
/// never win; a non-finite `pre` (a G-cell outside the grid) makes every
/// lane of that call infinite.
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
/// let (w, pre, run) = ([4.0, 1.0, 9.0], [0.0, 2.0, 3.0], [0.0, 0.0, 0.5]);
/// let (mut values, mut argmin) = (Vec::new(), Vec::new());
/// stack_min_plus_into(&w, &pre, &run, &mut values, &mut argmin);
/// assert_eq!(values, vec![3.0, 1.0, 2.5]);
/// assert_eq!(argmin, vec![1, 1, 1]);
/// ```
pub fn stack_min_plus_into(
    w: &[f64],
    pre: &[f64],
    run: &[f64],
    values: &mut Vec<f64>,
    argmin: &mut Vec<usize>,
) {
    let n = w.len();
    assert!(
        pre.len() == n && run.len() == n,
        "w, pre and run must have equal length"
    );
    values.clear();
    values.resize(n, f64::INFINITY);
    argmin.clear();
    argmin.resize(n, 0);
    // Suffix pass: values[b] = min_{a≥b}(w[a] + pre[a]), argmin[b] its
    // lowest a (`<=` while walking down keeps the lower index on ties).
    let (mut best, mut arg) = (f64::INFINITY, 0);
    for a in (0..n).rev() {
        let v = w[a] + pre[a];
        if v <= best {
            best = v;
            arg = a;
        }
        values[a] = best;
        argmin[a] = arg;
    }
    // Prefix pass, merged with the suffix minimum of each lane. The
    // prefix argmin is never above b and the suffix argmin never below,
    // so ties go to the prefix side.
    let (mut best, mut arg) = (f64::INFINITY, 0);
    for b in 0..n {
        let v = w[b] - pre[b];
        if v < best {
            best = v;
            arg = b;
        }
        let below = pre[b] + best;
        let above = values[b] - pre[b];
        let (v, a) = if below <= above {
            (below, arg)
        } else {
            (above, argmin[b])
        };
        let v = v + run[b];
        if v < f64::INFINITY {
            values[b] = v;
            argmin[b] = a;
        } else {
            values[b] = f64::INFINITY;
            argmin[b] = 0;
        }
    }
}

/// Elementwise min-merge over candidate flows (Eq. 10): `out[t] =
/// min_i cand[i][t]`, remembering the winning candidate per lane.
///
/// # Panics
///
/// Panics if `candidates` is empty or the lanes have unequal lengths.
///
/// # Example
///
/// ```
/// use fastgr_gpu::flow::merge_min;
///
/// let r = merge_min(&[vec![3.0, 9.0], vec![5.0, 1.0]]);
/// assert_eq!(r.values, vec![3.0, 1.0]);
/// assert_eq!(r.argmin, vec![0, 1]);
/// ```
pub fn merge_min(candidates: &[Vec<f64>]) -> MinPlus {
    assert!(!candidates.is_empty(), "merge needs at least one candidate");
    let lanes = candidates[0].len();
    let mut values = vec![f64::INFINITY; lanes];
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
    MinPlus { values, argmin }
}

/// [`merge_min`] over candidates stored as consecutive `lanes`-wide rows
/// of one flat slice, writing into caller-owned buffers (cleared and
/// resized in place — no steady-state allocation). Ties resolve to the
/// smallest candidate index, exactly like [`merge_min`].
///
/// # Panics
///
/// Panics if `rows` is empty or its length is not a multiple of `lanes`.
pub fn merge_min_rows(rows: &[f64], lanes: usize, values: &mut Vec<f64>, argmin: &mut Vec<usize>) {
    assert!(
        !rows.is_empty() && rows.len().is_multiple_of(lanes),
        "rows must hold a positive whole number of {lanes}-lane candidates"
    );
    values.clear();
    values.resize(lanes, f64::INFINITY);
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

    #[test]
    fn vec_mat_handles_infinities() {
        let w1 = [f64::INFINITY, 2.0];
        let mut w2 = Matrix::filled(2, 2, 1.0);
        w2[(1, 1)] = f64::INFINITY;
        let (mut values, mut argmin) = (Vec::new(), Vec::new());
        vec_mat_min_plus_into(&w1, &w2, &mut values, &mut argmin);
        assert_eq!(values[0], 3.0);
        assert_eq!(argmin[0], 1);
        assert!(values[1].is_infinite());
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
            ((next >> 33) % 1000) as f64 / 10.0
        };
        let w1: Vec<f64> = (0..l).map(|_| rnd()).collect();
        let mut w2 = Matrix::filled(l, l, 0.0);
        let mut w3 = Matrix::filled(l, l, 0.0);
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
            let mut best = f64::INFINITY;
            for s in 0..l {
                for b in 0..l {
                    best = best.min(w1[s] + w2[(s, b)] + w3[(b, t)]);
                }
            }
            assert!((values[t] - best).abs() < 1e-12);
            // Backtracked indices must reproduce the value.
            let b = arg_mid[t];
            let s = mid_arg[b];
            assert!((w1[s] + w2[(s, b)] + w3[(b, t)] - best).abs() < 1e-12);
        }
    }

    #[test]
    fn merge_prefers_first_on_ties() {
        let r = merge_min(&[vec![2.0], vec![2.0]]);
        assert_eq!(r.argmin, vec![0]);
    }

    #[test]
    #[should_panic(expected = "w1 length")]
    fn shape_mismatch_panics() {
        vec_mat_min_plus_into(
            &[1.0],
            &Matrix::filled(2, 2, 0.0),
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
        let w1 = [1.0, 10.0, 4.0];
        let mut w2 = Matrix::filled(3, 3, 2.0);
        w2[(1, 0)] = -8.0;
        w2[(2, 1)] = -2.0;
        let (mut values, mut argmin) = (Vec::new(), Vec::new());
        // Two rounds: the second must reuse capacity and still be correct.
        for _ in 0..2 {
            vec_mat_min_plus_into(&w1, &w2, &mut values, &mut argmin);
            assert_eq!(values, vec![2.0, 2.0, 3.0]);
            assert_eq!(argmin, vec![1, 2, 0]);
        }

        let flat = [3.0, 9.0, 5.0, 1.0];
        let reference = merge_min(&[vec![3.0, 9.0], vec![5.0, 1.0]]);
        merge_min_rows(&flat, 2, &mut values, &mut argmin);
        assert_eq!(values, reference.values);
        assert_eq!(argmin, reference.argmin);
    }

    /// `k · 2⁻²⁰`: a value of the Q44.20 cost domain.
    fn q(k: u64) -> f64 {
        k as f64 / (1u64 << 20) as f64
    }

    proptest! {
        /// The O(L) bridge reduction is the min-plus product over the
        /// explicit `|pre[b] − pre[a]| + run[b]` matrix, value for value and
        /// argmin for argmin. Small draws force ties between lanes and
        /// repeated prefixes; `shift` scales them toward the top of the
        /// exact range.
        #[test]
        fn stack_reduction_matches_matrix_product(
            lanes in proptest::collection::vec(
                (0u64..24, 0u8..6, 0u64..24, 0u8..6, 0u64..3),
                3..13,
            ),
            shift in 0u32..28,
        ) {
            let inf_or = |pick: u8, k: u64| if pick == 0 { f64::INFINITY } else { q(k << shift) };
            let w: Vec<f64> = lanes.iter().map(|&(k, pick, ..)| inf_or(pick, k)).collect();
            let run: Vec<f64> = lanes.iter().map(|&(_, _, k, pick, _)| inf_or(pick, k)).collect();
            let mut acc = 0u64;
            let pre: Vec<f64> = lanes
                .iter()
                .map(|&(.., step)| {
                    let p = q(acc << shift);
                    acc += step;
                    p
                })
                .collect();
            let l = w.len();
            let mut m = Matrix::filled(l, l, 0.0);
            for a in 0..l {
                for b in 0..l {
                    m[(a, b)] = (pre[b] - pre[a]).abs() + run[b];
                }
            }
            let (mut want, mut want_arg) = (Vec::new(), Vec::new());
            vec_mat_min_plus_into(&w, &m, &mut want, &mut want_arg);
            let (mut got, mut got_arg) = (Vec::new(), Vec::new());
            stack_min_plus_into(&w, &pre, &run, &mut got, &mut got_arg);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(got_arg, want_arg);
        }
    }

    #[test]
    fn stack_reduction_of_an_off_grid_cell_is_infinite() {
        let pre = [f64::INFINITY; 3];
        let (mut values, mut argmin) = (Vec::new(), Vec::new());
        stack_min_plus_into(
            &[1.0, f64::INFINITY, 0.0],
            &pre,
            &[0.0; 3],
            &mut values,
            &mut argmin,
        );
        assert!(values.iter().all(|v| *v == f64::INFINITY));
        assert_eq!(argmin, vec![0; 3]);
    }

    #[test]
    fn matrix_indexing_round_trips() {
        let mut m = Matrix::filled(3, 4, 0.0);
        m[(2, 3)] = 9.0;
        assert_eq!(m[(2, 3)], 9.0);
        assert_eq!(m.row(2)[3], 9.0);
        assert_eq!(m.to_string(), "3x4 weight matrix");
    }
}
