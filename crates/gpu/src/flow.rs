//! Min-plus computation-graph flow primitives.
//!
//! The paper reformulates 3-D pattern routing into flows over layer-indexed
//! vectors and matrices (Eqs. 5–7 for the L-shape, Eqs. 11–14 for the
//! Z-shape): every stage is a *min-plus* product — additions followed by a
//! minimum reduction — which maps onto homogeneous GPU threads. These are
//! the exact operations the simulated device executes; every function also
//! returns the argmins needed to reconstruct the winning routing path.

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

    /// Reshapes the matrix to `rows x cols` with every entry set to
    /// `fill`, reusing the existing allocation. This is the zero-alloc
    /// (in steady state) counterpart of [`Matrix::filled`] for scratch
    /// matrices that are rebuilt per edge in the pattern DP.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn reset(&mut self, rows: usize, cols: usize, fill: f64) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, fill);
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
pub fn merge_min_rows(
    rows: &[f64],
    lanes: usize,
    values: &mut Vec<f64>,
    argmin: &mut Vec<usize>,
) {
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

    #[test]
    fn matrix_reset_reshapes_and_refills() {
        let mut m = Matrix::filled(2, 2, 1.0);
        m[(0, 1)] = 9.0;
        m.reset(3, 4, f64::INFINITY);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.row(0).iter().all(|v| v.is_infinite()));
        m.reset(1, 1, 0.0);
        assert_eq!(m[(0, 0)], 0.0);
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
