//! Row-major dense matrix block and its kernels.

use rayon::prelude::*;

use crate::error::MatrixError;
use crate::ops::{AggOp, BinaryOp, UnaryOp};
use crate::MatrixCharacteristics;

/// Elementwise map producing `out[i] = f(i)`; chunk-parallel above the
/// cell threshold (each cell depends only on its own index, so the
/// parallel split is trivially bit-identical to the sequential map).
/// Every cell is an independent chunk, so below the threshold the thread
/// count is never consulted.
fn elementwise_map(len: usize, f: impl Fn(usize) -> f64 + Sync) -> Vec<f64> {
    let mut out = vec![0.0; len];
    if crate::par_worthwhile(len, crate::PAR_CELLS_THRESHOLD, len) {
        let chunk = len.div_ceil(rayon::current_num_threads());
        out.par_chunks_mut(chunk).enumerate().for_each(|(ci, c)| {
            let base = ci * chunk;
            for (j, v) in c.iter_mut().enumerate() {
                *v = f(base + j);
            }
        });
    } else {
        for (i, v) in out.iter_mut().enumerate() {
            *v = f(i);
        }
    }
    out
}

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix::filled(rows, cols, 0.0)
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MatrixError> {
        if data.len() != rows * cols {
            return Err(MatrixError::InvalidArgument(format!(
                "data length {} does not match {}x{}",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Build from nested row slices (convenience for tests and examples).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, MatrixError> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(MatrixError::InvalidArgument(
                    "ragged row lengths".to_string(),
                ));
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the row-major backing data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Cell accessor (unchecked in release semantics but panics on OOB
    /// through slice indexing).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Cell mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Count non-zero cells.
    pub fn nnz(&self) -> u64 {
        self.data.iter().filter(|v| **v != 0.0).count() as u64
    }

    /// Metadata view of this block.
    pub fn characteristics(&self) -> MatrixCharacteristics {
        MatrixCharacteristics::known(self.rows as u64, self.cols as u64, self.nnz())
    }

    /// Matrix multiply `self %*% other` with a cache-friendly i-k-j loop
    /// order (the inner loop streams over contiguous rows of `other`).
    pub fn matmult(&self, other: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        if self.cols != other.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "matmult",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0; m * n];
        // Per-output-row kernel shared by the sequential and parallel
        // paths: identical zero-skip and k-ascending accumulation order,
        // so both produce bit-identical results.
        let row_kernel = |a_row: &[f64], out_row: &mut [f64]| {
            if n == 1 {
                // Matrix-vector: accumulate in a register rather than a
                // one-element slice per `k`; same order, same zero skip.
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(&other.data) {
                    if a != 0.0 {
                        acc += a * b;
                    }
                }
                out_row[0] = acc;
                return;
            }
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        };
        if n > 0 && crate::par_worthwhile(m * k * n, crate::PAR_FLOPS_THRESHOLD, m) {
            out.par_chunks_mut(n).enumerate().for_each(|(i, out_row)| {
                row_kernel(&self.data[i * k..(i + 1) * k], out_row);
            });
        } else {
            for i in 0..m {
                let a_row = &self.data[i * k..(i + 1) * k];
                row_kernel(a_row, &mut out[i * n..(i + 1) * n]);
            }
        }
        Ok(DenseMatrix {
            rows: m,
            cols: n,
            data: out,
        })
    }

    /// Transpose-left matrix multiply `t(self) %*% other` without
    /// materializing `t(self)` (SystemML's transpose-fused MapMM and the
    /// second product of MapMMChain). Streams the rows of `self` and
    /// axpys each cell into its output row, so every output cell
    /// accumulates over ascending rows of `self` with the `a == 0` skip of
    /// [`DenseMatrix::matmult`]: bit-identical to
    /// `self.transpose().matmult(other)`, including its error. Above the
    /// parallel threshold the transposed copy is amortized and that
    /// row-partitioned kernel runs instead.
    pub fn tmatmult(&self, other: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        if self.rows != other.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "matmult",
                left: (self.cols, self.rows),
                right: (other.rows, other.cols),
            });
        }
        let (m, k, n) = (self.cols, self.rows, other.cols);
        if m * k * n >= crate::PAR_FLOPS_THRESHOLD {
            return self.transpose().matmult(other);
        }
        let mut out = vec![0.0; m * n];
        for kk in 0..k {
            let x_row = self.row(kk);
            let b_row = &other.data[kk * n..(kk + 1) * n];
            if n == 1 {
                let b = b_row[0];
                for (o, &a) in out.iter_mut().zip(x_row) {
                    if a != 0.0 {
                        *o += a * b;
                    }
                }
                continue;
            }
            for (i, &a) in x_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Ok(DenseMatrix {
            rows: m,
            cols: n,
            data: out,
        })
    }

    /// Transpose-self matrix multiply `t(self) %*% self` exploiting the
    /// symmetry of the result (SystemML's TSMM physical operator).
    pub fn tsmm(&self) -> DenseMatrix {
        let (m, n) = (self.rows, self.cols);
        let mut out = vec![0.0; n * n];
        if n > 0 && crate::par_worthwhile(m * n * n / 2, crate::PAR_FLOPS_THRESHOLD, n) {
            // Partition by output row `a`; each cell still accumulates
            // over ascending `i` with the same `va == 0` skip, so the
            // result is bit-identical to the sequential loop below.
            out.par_chunks_mut(n).enumerate().for_each(|(a, out_row)| {
                for i in 0..m {
                    let row = &self.data[i * n..(i + 1) * n];
                    let va = row[a];
                    if va == 0.0 {
                        continue;
                    }
                    for b in a..n {
                        out_row[b] += va * row[b];
                    }
                }
            });
        } else {
            for i in 0..m {
                let row = &self.data[i * n..(i + 1) * n];
                for a in 0..n {
                    let va = row[a];
                    if va == 0.0 {
                        continue;
                    }
                    for b in a..n {
                        out[a * n + b] += va * row[b];
                    }
                }
            }
        }
        // Mirror the upper triangle.
        for a in 0..n {
            for b in (a + 1)..n {
                out[b * n + a] = out[a * n + b];
            }
        }
        DenseMatrix {
            rows: n,
            cols: n,
            data: out,
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = vec![0.0; self.rows * self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        DenseMatrix {
            rows: self.cols,
            cols: self.rows,
            data: out,
        }
    }

    /// Elementwise binary operation against an equally-shaped matrix, or a
    /// broadcast column/row vector (DML matrix-vector semantics).
    pub fn binary(&self, op: BinaryOp, other: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        if self.rows == other.rows && self.cols == other.cols {
            let data = elementwise_map(self.data.len(), |i| op.apply(self.data[i], other.data[i]));
            return Ok(DenseMatrix {
                rows: self.rows,
                cols: self.cols,
                data,
            });
        }
        // Broadcast a column vector across columns.
        if other.cols == 1 && other.rows == self.rows {
            let mut data = Vec::with_capacity(self.data.len());
            for r in 0..self.rows {
                let b = other.data[r];
                data.extend(self.row(r).iter().map(|&a| op.apply(a, b)));
            }
            return Ok(DenseMatrix {
                rows: self.rows,
                cols: self.cols,
                data,
            });
        }
        // Broadcast a row vector across rows.
        if other.rows == 1 && other.cols == self.cols {
            let mut data = Vec::with_capacity(self.data.len());
            for r in 0..self.rows {
                data.extend(
                    self.row(r)
                        .iter()
                        .zip(&other.data)
                        .map(|(&a, &b)| op.apply(a, b)),
                );
            }
            return Ok(DenseMatrix {
                rows: self.rows,
                cols: self.cols,
                data,
            });
        }
        Err(MatrixError::ShapeMismatch {
            op: "binary",
            left: (self.rows, self.cols),
            right: (other.rows, other.cols),
        })
    }

    /// Elementwise binary with a scalar on the right.
    pub fn binary_scalar(&self, op: BinaryOp, scalar: f64) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: elementwise_map(self.data.len(), |i| op.apply(self.data[i], scalar)),
        }
    }

    /// Elementwise binary with a scalar on the left (`scalar op self`).
    pub fn scalar_binary(&self, op: BinaryOp, scalar: f64) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: elementwise_map(self.data.len(), |i| op.apply(scalar, self.data[i])),
        }
    }

    /// Elementwise unary operation.
    pub fn unary(&self, op: UnaryOp) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: elementwise_map(self.data.len(), |i| op.apply(self.data[i])),
        }
    }

    /// Aggregation. Full reductions return a 1×1 matrix; row/column
    /// aggregates return vectors.
    pub fn aggregate(&self, op: AggOp) -> DenseMatrix {
        match op {
            AggOp::Sum => DenseMatrix {
                rows: 1,
                cols: 1,
                data: vec![self.data.iter().sum()],
            },
            AggOp::Mean => {
                let n = self.data.len().max(1) as f64;
                DenseMatrix {
                    rows: 1,
                    cols: 1,
                    data: vec![self.data.iter().sum::<f64>() / n],
                }
            }
            AggOp::Min => DenseMatrix {
                rows: 1,
                cols: 1,
                data: vec![self.data.iter().copied().fold(f64::INFINITY, f64::min)],
            },
            AggOp::Max => DenseMatrix {
                rows: 1,
                cols: 1,
                data: vec![self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)],
            },
            AggOp::Trace => {
                let n = self.rows.min(self.cols);
                DenseMatrix {
                    rows: 1,
                    cols: 1,
                    data: vec![(0..n).map(|i| self.get(i, i)).sum()],
                }
            }
            AggOp::RowSums => {
                let data = (0..self.rows).map(|r| self.row(r).iter().sum()).collect();
                DenseMatrix {
                    rows: self.rows,
                    cols: 1,
                    data,
                }
            }
            AggOp::ColSums => {
                let mut data = vec![0.0; self.cols];
                for r in 0..self.rows {
                    for (acc, &v) in data.iter_mut().zip(self.row(r)) {
                        *acc += v;
                    }
                }
                DenseMatrix {
                    rows: 1,
                    cols: self.cols,
                    data,
                }
            }
            AggOp::RowMaxs => {
                let data = (0..self.rows)
                    .map(|r| {
                        self.row(r)
                            .iter()
                            .copied()
                            .fold(f64::NEG_INFINITY, f64::max)
                    })
                    .collect();
                DenseMatrix {
                    rows: self.rows,
                    cols: 1,
                    data,
                }
            }
            AggOp::ColMaxs => {
                let mut data = vec![f64::NEG_INFINITY; self.cols];
                for r in 0..self.rows {
                    for (acc, &v) in data.iter_mut().zip(self.row(r)) {
                        *acc = acc.max(v);
                    }
                }
                DenseMatrix {
                    rows: 1,
                    cols: self.cols,
                    data,
                }
            }
        }
    }

    /// Horizontal concatenation (`append`/`cbind`).
    pub fn cbind(&self, other: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        if self.rows != other.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "cbind",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Ok(DenseMatrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    /// Vertical concatenation (`rbind`).
    pub fn rbind(&self, other: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        if self.cols != other.cols {
            return Err(MatrixError::ShapeMismatch {
                op: "rbind",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(DenseMatrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Right indexing `X[r0:r1, c0:c1]` with inclusive 0-based bounds.
    pub fn slice(
        &self,
        r0: usize,
        r1: usize,
        c0: usize,
        c1: usize,
    ) -> Result<DenseMatrix, MatrixError> {
        if r1 >= self.rows || c1 >= self.cols || r0 > r1 || c0 > c1 {
            return Err(MatrixError::IndexOutOfBounds {
                index: (r1, c1),
                shape: (self.rows, self.cols),
            });
        }
        let rows = r1 - r0 + 1;
        let cols = c1 - c0 + 1;
        let mut data = Vec::with_capacity(rows * cols);
        for r in r0..=r1 {
            data.extend_from_slice(&self.data[r * self.cols + c0..r * self.cols + c1 + 1]);
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Extract the main diagonal as a column vector, or expand a column
    /// vector into a diagonal matrix (DML `diag` semantics).
    pub fn diag(&self) -> DenseMatrix {
        if self.cols == 1 {
            let n = self.rows;
            let mut out = DenseMatrix::zeros(n, n);
            for i in 0..n {
                out.set(i, i, self.data[i]);
            }
            out
        } else {
            let n = self.rows.min(self.cols);
            let data = (0..n).map(|i| self.get(i, i)).collect();
            DenseMatrix {
                rows: n,
                cols: 1,
                data,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construct_and_access() {
        let m = m23();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn matmult_small() {
        let a = m23();
        let b = DenseMatrix::from_rows(&[&[1.0], &[0.0], &[-1.0]]).unwrap();
        let c = a.matmult(&b).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 1);
        assert_eq!(c.data(), &[-2.0, -2.0]);
    }

    #[test]
    fn matmult_identity() {
        let a = m23();
        let i = DenseMatrix::identity(3);
        let c = a.matmult(&i).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmult_shape_error() {
        let a = m23();
        let b = DenseMatrix::zeros(2, 2);
        assert!(matches!(
            a.matmult(&b),
            Err(MatrixError::ShapeMismatch { op: "matmult", .. })
        ));
    }

    #[test]
    fn tsmm_matches_explicit() {
        let a = m23();
        let expected = a.transpose().matmult(&a).unwrap();
        assert_eq!(a.tsmm(), expected);
    }

    #[test]
    fn transpose_round_trip() {
        let a = m23();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn binary_same_shape() {
        let a = m23();
        let b = a.binary(BinaryOp::Add, &a).unwrap();
        assert_eq!(b.get(1, 1), 10.0);
    }

    #[test]
    fn binary_broadcast_col_vector() {
        let a = m23();
        let v = DenseMatrix::from_rows(&[&[10.0], &[20.0]]).unwrap();
        let b = a.binary(BinaryOp::Add, &v).unwrap();
        assert_eq!(b.get(0, 2), 13.0);
        assert_eq!(b.get(1, 0), 24.0);
    }

    #[test]
    fn binary_broadcast_row_vector() {
        let a = m23();
        let v = DenseMatrix::from_rows(&[&[10.0, 20.0, 30.0]]).unwrap();
        let b = a.binary(BinaryOp::Mul, &v).unwrap();
        assert_eq!(b.get(1, 2), 180.0);
    }

    #[test]
    fn binary_shape_error() {
        let a = m23();
        let b = DenseMatrix::zeros(3, 3);
        assert!(a.binary(BinaryOp::Add, &b).is_err());
    }

    #[test]
    fn scalar_sides() {
        let a = m23();
        assert_eq!(a.binary_scalar(BinaryOp::Sub, 1.0).get(0, 0), 0.0);
        assert_eq!(a.scalar_binary(BinaryOp::Sub, 1.0).get(0, 0), 0.0);
        assert_eq!(a.scalar_binary(BinaryOp::Sub, 10.0).get(1, 2), 4.0);
    }

    #[test]
    fn unary_ops() {
        let a = DenseMatrix::from_rows(&[&[4.0, -9.0]]).unwrap();
        assert_eq!(a.unary(UnaryOp::Abs).data(), &[4.0, 9.0]);
        assert_eq!(a.unary(UnaryOp::Neg).data(), &[-4.0, 9.0]);
    }

    #[test]
    fn aggregates() {
        let a = m23();
        assert_eq!(a.aggregate(AggOp::Sum).get(0, 0), 21.0);
        assert_eq!(a.aggregate(AggOp::Mean).get(0, 0), 3.5);
        assert_eq!(a.aggregate(AggOp::Min).get(0, 0), 1.0);
        assert_eq!(a.aggregate(AggOp::Max).get(0, 0), 6.0);
        assert_eq!(a.aggregate(AggOp::RowSums).data(), &[6.0, 15.0]);
        assert_eq!(a.aggregate(AggOp::ColSums).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.aggregate(AggOp::RowMaxs).data(), &[3.0, 6.0]);
        assert_eq!(a.aggregate(AggOp::ColMaxs).data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn trace_of_square() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.aggregate(AggOp::Trace).get(0, 0), 5.0);
    }

    #[test]
    fn cbind_rbind() {
        let a = m23();
        let c = a.cbind(&a).unwrap();
        assert_eq!(c.cols(), 6);
        assert_eq!(c.get(1, 5), 6.0);
        let r = a.rbind(&a).unwrap();
        assert_eq!(r.rows(), 4);
        assert_eq!(r.get(3, 0), 4.0);
        assert!(a.cbind(&DenseMatrix::zeros(3, 1)).is_err());
        assert!(a.rbind(&DenseMatrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn slicing() {
        let a = m23();
        let s = a.slice(0, 1, 1, 2).unwrap();
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 2);
        assert_eq!(s.data(), &[2.0, 3.0, 5.0, 6.0]);
        assert!(a.slice(0, 2, 0, 0).is_err());
    }

    #[test]
    fn diag_both_directions() {
        let v = DenseMatrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let d = v.diag();
        assert_eq!(d.rows(), 2);
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
        let back = d.diag();
        assert_eq!(back.data(), &[1.0, 2.0]);
    }

    /// Deterministic cells drawn from a palette of signed zeros, NaN,
    /// infinities and finite values, so every oracle sees `0 * inf`,
    /// NaN propagation and `-0.0` sums.
    fn special_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        const PALETTE: [f64; 10] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.25,
            0.1,
            0.0,
            3.0e-300,
        ];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                PALETTE[(state % PALETTE.len() as u64) as usize]
            })
            .collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    /// Cell bits with every NaN mapped to one canonical pattern: Rust
    /// leaves the sign and payload of an arithmetic NaN unspecified (LLVM
    /// may commute an `fadd`'s operands), so only NaN-ness is comparable.
    /// Signed zeros and infinities still compare by their bits.
    fn bits(d: &DenseMatrix) -> (usize, usize, Vec<u64>) {
        let cell = |v: f64| {
            if v.is_nan() {
                f64::NAN.to_bits()
            } else {
                v.to_bits()
            }
        };
        (
            d.rows(),
            d.cols(),
            d.data().iter().map(|&v| cell(v)).collect(),
        )
    }

    #[test]
    fn tmatmult_is_bit_identical_to_explicit_transpose() {
        let t = crate::PAR_FLOPS_THRESHOLD;
        // (rows of X, cols of X, cols of B); the last four straddle the
        // parallel threshold (flops = cols(X) * rows(X) * cols(B)).
        let shapes = [
            (0, 3, 2),
            (3, 0, 2),
            (3, 2, 0),
            (0, 0, 0),
            (1, 1, 1),
            (7, 5, 1),
            (7, 5, 3),
            (33, 17, 4),
            (2048, 64, 16),
            (2048, 64, 15),
            (t / 512, 512, 1),
            (t / 512 - 1, 512, 1),
        ];
        for (seed, &(r, c, n)) in shapes.iter().enumerate() {
            let x = special_matrix(r, c, seed as u64);
            let b = special_matrix(r, n, seed as u64 + 100);
            let expected = x.transpose().matmult(&b).unwrap();
            assert_eq!(
                bits(&x.tmatmult(&b).unwrap()),
                bits(&expected),
                "{r}x{c} by {n}"
            );
        }
        let err = DenseMatrix::zeros(3, 2).tmatmult(&DenseMatrix::zeros(2, 2));
        let expected = DenseMatrix::zeros(2, 3).matmult(&DenseMatrix::zeros(2, 2));
        assert_eq!(err, expected);
    }

    #[test]
    fn zero_times_inf_is_skipped() {
        let x = DenseMatrix::from_rows(&[&[0.0, -0.0], &[2.0, 0.0]]).unwrap();
        let v = DenseMatrix::from_rows(&[&[f64::INFINITY], &[3.0]]).unwrap();
        // Column 0: 0 * inf skipped, then 2 * 3; column 1: both skipped.
        assert_eq!(x.tmatmult(&v).unwrap().data(), &[6.0, 0.0]);
        let a = DenseMatrix::from_rows(&[&[0.0, 2.0]]).unwrap();
        assert_eq!(a.matmult(&v).unwrap().data(), &[6.0]);
    }

    #[test]
    fn matvec_path_matches_general_kernel() {
        let t = crate::PAR_FLOPS_THRESHOLD;
        // (rows of A, cols of A); the last two straddle the parallel
        // threshold for the unpadded product (flops = rows * cols).
        let shapes = [
            (0, 3),
            (3, 0),
            (1, 1),
            (9, 6),
            (40, 33),
            (t / 1024, 1024),
            (t / 1024 - 1, 1024),
        ];
        for (seed, &(m, k)) in shapes.iter().enumerate() {
            let a = special_matrix(m, k, seed as u64 + 200);
            let v = special_matrix(k, 1, seed as u64 + 300);
            let padded = v.cbind(&special_matrix(k, 1, seed as u64 + 400)).unwrap();
            let general = a.matmult(&padded).unwrap();
            let column0 = (0..m).map(|i| general.get(i, 0)).collect();
            let column0 = DenseMatrix::from_vec(m, 1, column0).unwrap();
            assert_eq!(bits(&a.matmult(&v).unwrap()), bits(&column0), "{m}x{k}");
        }
    }

    #[test]
    fn nnz_counts() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[2.0, 0.0]]).unwrap();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.characteristics(), MatrixCharacteristics::known(2, 2, 2));
    }
}
