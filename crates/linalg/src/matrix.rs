//! Row-major dense `f32` matrix with the kernels a feed-forward network
//! needs.
//!
//! Shapes are validated with `assert!` rather than `Result`: a shape
//! mismatch inside a training loop is a programming error, not a condition
//! to recover from, and panicking keeps the hot-path signatures clean.

use crate::pool::{self, SendPtr};
use crate::simd::{self, NumericMode};

/// Row chunk used by the dispatching matmul entries when they go parallel.
/// Fixed — never derived from the thread count — so the decomposition (and
/// with it every floating-point op order) is a function of shape alone.
const ROW_CHUNK: usize = 64;

/// Multiply-add count below which the pool overhead outweighs the win.
const MIN_PAR_MADDS: usize = 1 << 17;

/// True when a product with `dim` partitionable output rows and `madds`
/// multiply-adds should take the pool path.
fn par_worthwhile(dim: usize, madds: usize) -> bool {
    madds >= MIN_PAR_MADDS && dim > ROW_CHUNK && pool::max_threads() > 1
}

/// `out[j] = ((((out[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]`
/// for every `j`, with each multiply and add individually rounded — the
/// exact op sequence of four consecutive single-term update passes, fused
/// so the running value stays in a register. The `t += x * y` form keeps
/// the multiply and add as two roundings (rustc never contracts to FMA
/// without an explicit intrinsic), so this is bit-identical to the
/// unfused reference loop.
fn axpy4(out: &mut [f32], a: &[f32; 4], b: &[&[f32]; 4]) {
    let n = out.len();
    let (b0, b1, b2, b3) = (&b[0][..n], &b[1][..n], &b[2][..n], &b[3][..n]);
    for j in 0..n {
        let mut t = out[j];
        t += a[0] * b0[j];
        t += a[1] * b1[j];
        t += a[2] * b2[j];
        t += a[3] * b3[j];
        out[j] = t;
    }
}

/// A dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wrap an existing row-major buffer. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build from row slices. Panics if rows are ragged.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Append one row at the bottom, growing the matrix in place (the
    /// row-major buffer makes this a plain `extend`). Panics if `row` does
    /// not match the column count.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(
            row.len(),
            self.cols,
            "row length {} does not match {} columns",
            row.len(),
            self.cols
        );
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Set element at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole buffer, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole buffer, row-major, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self * other` — `[m x k] * [k x n] -> [m x n]`.
    ///
    /// Dispatches between the single-threaded blocked kernel and the
    /// row-partitioned pool path by size; both run the identical per-row
    /// operation sequence, so the results are bit-for-bit the same (see
    /// `crate::pool`).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        if par_worthwhile(self.rows, self.rows * self.cols * other.cols) {
            self.matmul_chunked(other, ROW_CHUNK)
        } else {
            self.matmul_serial(other)
        }
    }

    /// `matmul` forced onto the single-threaded blocked kernel.
    pub fn matmul_serial(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul_serial shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_rows_into(other, 0..self.rows, &mut out.data);
        out
    }

    /// `matmul` forced onto the pool with an explicit row chunk (the
    /// dispatching entry uses `ROW_CHUNK`). Bit-identical to
    /// [`Matrix::matmul_serial`] for every chunk size and thread count:
    /// each output row is produced by the same kernel with the same
    /// operation order no matter which chunk — or thread — owns it.
    pub fn matmul_chunked(&self, other: &Matrix, row_chunk: usize) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul_chunked shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let width = other.cols;
        let base = SendPtr(out.data.as_mut_ptr());
        let _kind = pool::task_kind("matmul");
        pool::for_each_chunk(self.rows, row_chunk, |range| {
            // SAFETY: chunk ranges are disjoint, so each chunk writes a
            // disjoint row slice of `out`, which outlives the call.
            let slice = unsafe {
                std::slice::from_raw_parts_mut(
                    base.get().add(range.start * width),
                    range.len() * width,
                )
            };
            self.matmul_rows_into(other, range, slice);
        });
        out
    }

    /// Blocked ikj kernel for output rows `rows`, writing into `out` (the
    /// row-major slice for exactly those rows). The k loop is tiled for
    /// cache reuse of the streamed `other` panel; tiles are visited in
    /// ascending k order, so each output element sees the exact operation
    /// sequence of the untiled loop.
    fn matmul_rows_into(&self, other: &Matrix, rows: std::ops::Range<usize>, out: &mut [f32]) {
        const KC: usize = 256;
        let n = other.cols;
        debug_assert_eq!(out.len(), rows.len() * n);
        for (oi, i) in rows.enumerate() {
            let a_row = self.row(i);
            let out_row = &mut out[oi * n..(oi + 1) * n];
            let mut k0 = 0;
            while k0 < self.cols {
                let k1 = (k0 + KC).min(self.cols);
                // Non-zero k terms are applied four per pass over the
                // output row. Each output element still accumulates its
                // (mul, add-assign) pairs in ascending-k order with the
                // same zero-skip — grouping only keeps the running value
                // in a register across four terms instead of a memory
                // round-trip per term, which cannot change any bit.
                let mut pend_a = [0.0f32; 4];
                let mut pend_b: [&[f32]; 4] = [&[]; 4];
                let mut np = 0;
                for (k, &a) in a_row[k0..k1].iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    pend_a[np] = a;
                    pend_b[np] = other.row(k0 + k);
                    np += 1;
                    if np == 4 {
                        axpy4(out_row, &pend_a, &pend_b);
                        np = 0;
                    }
                }
                for t in 0..np {
                    let b_row = pend_b[t];
                    let a = pend_a[t];
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
                k0 = k1;
            }
        }
    }

    /// `self * other^T` — `[m x k] * [n x k]^T -> [m x n]`. The inner loop is
    /// a dot product of two contiguous rows. Size-dispatched like
    /// [`Matrix::matmul`]; bit-identical on either path.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        if par_worthwhile(self.rows, self.rows * self.cols * other.rows) {
            self.matmul_nt_chunked(other, ROW_CHUNK)
        } else {
            self.matmul_nt_serial(other)
        }
    }

    /// `matmul_nt` forced onto the single-threaded blocked kernel.
    pub fn matmul_nt_serial(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt_serial shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_rows_into(other, 0..self.rows, &mut out.data);
        out
    }

    /// `matmul_nt` forced onto the pool with an explicit row chunk.
    pub fn matmul_nt_chunked(&self, other: &Matrix, row_chunk: usize) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt_chunked shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        let width = other.rows;
        let base = SendPtr(out.data.as_mut_ptr());
        let _kind = pool::task_kind("matmul_nt");
        pool::for_each_chunk(self.rows, row_chunk, |range| {
            // SAFETY: disjoint row ranges → disjoint output slices.
            let slice = unsafe {
                std::slice::from_raw_parts_mut(
                    base.get().add(range.start * width),
                    range.len() * width,
                )
            };
            self.matmul_nt_rows_into(other, range, slice);
        });
        out
    }

    /// Row-dot kernel for `matmul_nt` over output rows `rows`. A-rows are
    /// processed in small blocks so each streamed B-row is reused across
    /// the block; every (i, j) dot product keeps its single accumulator
    /// and ascending-k order, so blocking cannot change any bit.
    fn matmul_nt_rows_into(&self, other: &Matrix, rows: std::ops::Range<usize>, out: &mut [f32]) {
        const IB: usize = 8;
        let n = other.rows;
        debug_assert_eq!(out.len(), rows.len() * n);
        let mut i0 = rows.start;
        while i0 < rows.end {
            let i1 = (i0 + IB).min(rows.end);
            for j in 0..n {
                let b_row = other.row(j);
                for i in i0..i1 {
                    let a_row = self.row(i);
                    let mut acc = 0.0f32;
                    for (&a, &b) in a_row.iter().zip(b_row) {
                        acc += a * b;
                    }
                    out[(i - rows.start) * n + j] = acc;
                }
            }
            i0 = i1;
        }
    }

    /// `self^T * other` — `[m x k]^T * [m x n] -> [k x n]`, streaming both
    /// operands row by row. Size-dispatched like [`Matrix::matmul`];
    /// parallelism partitions the *output* rows (the k dimension), each
    /// chunk streaming the operands independently.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        if par_worthwhile(self.cols, self.rows * self.cols * other.cols) {
            self.matmul_tn_chunked(other, ROW_CHUNK)
        } else {
            self.matmul_tn_serial(other)
        }
    }

    /// `matmul_tn` forced onto the single-threaded kernel.
    pub fn matmul_tn_serial(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn_serial shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_tn_cols_into(other, 0..self.cols, &mut out.data);
        out
    }

    /// `matmul_tn` forced onto the pool with an explicit output-row chunk.
    pub fn matmul_tn_chunked(&self, other: &Matrix, row_chunk: usize) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn_chunked shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        let width = other.cols;
        let base = SendPtr(out.data.as_mut_ptr());
        let _kind = pool::task_kind("matmul_tn");
        pool::for_each_chunk(self.cols, row_chunk, |range| {
            // SAFETY: disjoint output-row ranges → disjoint output slices.
            let slice = unsafe {
                std::slice::from_raw_parts_mut(
                    base.get().add(range.start * width),
                    range.len() * width,
                )
            };
            self.matmul_tn_cols_into(other, range, slice);
        });
        out
    }

    /// Kernel for `matmul_tn` over output rows `cols` (columns of `self`).
    /// Accumulation over m stays in ascending order for every output
    /// element, identical to the full-range serial sweep.
    fn matmul_tn_cols_into(&self, other: &Matrix, cols: std::ops::Range<usize>, out: &mut [f32]) {
        let n = other.cols;
        debug_assert_eq!(out.len(), cols.len() * n);
        for m in 0..self.rows {
            let a_row = self.row(m);
            let b_row = other.row(m);
            for k in cols.clone() {
                let a = a_row[k];
                if a == 0.0 {
                    continue;
                }
                let o0 = (k - cols.start) * n;
                let out_row = &mut out[o0..o0 + n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// [`Matrix::matmul`] under an explicit [`NumericMode`]:
    /// `Reference` runs the bit-exact dispatching kernel, `Fast` the
    /// explicit-SIMD kernel (see [`crate::simd`] for the tolerance
    /// contract).
    pub fn matmul_mode(&self, other: &Matrix, mode: NumericMode) -> Matrix {
        match mode {
            NumericMode::Reference => self.matmul(other),
            NumericMode::Fast => simd::matmul_fast(self, other),
        }
    }

    /// [`Matrix::matmul_nt`] under an explicit [`NumericMode`].
    pub fn matmul_nt_mode(&self, other: &Matrix, mode: NumericMode) -> Matrix {
        match mode {
            NumericMode::Reference => self.matmul_nt(other),
            NumericMode::Fast => simd::matmul_nt_fast(self, other),
        }
    }

    /// Explicit transpose (used rarely; the `_nt`/`_tn` products avoid it on
    /// hot paths).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// `self += other`, element-wise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_assign shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other` (axpy), element-wise.
    pub fn add_scaled(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_scaled shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiply every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Element-wise product `self *= other` (Hadamard).
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "hadamard shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Column sums as a length-`cols` vector (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for i in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(i)) {
                *s += v;
            }
        }
        sums
    }

    /// Add a row vector to every row (broadcast bias add).
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "broadcast length mismatch");
        for i in 0..self.rows {
            for (a, &b) in self.row_mut(i).iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Reference matmul with the naive jki order — only for tests that check
    /// the optimized kernels.
    #[doc(hidden)]
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += self.get(i, k) * other.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn push_row_grows_in_place() {
        let mut m = Matrix::zeros(0, 3);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(
            m,
            Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        );
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        let mut m = m;
        m.set(0, 0, 9.0);
        assert_eq!(m.get(0, 0), 9.0);
        m.row_mut(1)[0] = -1.0;
        assert_eq!(m.get(1, 0), -1.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn from_rows_builds_matrix() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn matmul_small_known_answer() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[2.0, 1.0, 0.0]]);
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transpose());
        assert!(approx_eq(&via_nt, &via_t, 1e-6));
    }

    #[test]
    fn matmul_tn_equals_transpose_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[0.5], &[-1.0]]);
        let via_tn = a.matmul_tn(&b);
        let via_t = a.transpose().matmul(&b);
        assert!(approx_eq(&via_tn, &via_t, 1e-6));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0]);
        a.add_scaled(0.5, &b);
        assert_eq!(a.as_slice(), &[16.0, 32.0]);
        a.scale(0.25);
        assert_eq!(a.as_slice(), &[4.0, 8.0]);
        a.map_inplace(|x| x - 4.0);
        assert_eq!(a.as_slice(), &[0.0, 4.0]);
        a.hadamard_assign(&b);
        assert_eq!(a.as_slice(), &[0.0, 80.0]);
    }

    #[test]
    fn col_sums_and_broadcast() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.col_sums(), vec![4.0, 6.0]);
        m.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(m.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_matmul_matches_naive(
            m in 1usize..6, k in 1usize..6, n in 1usize..6,
            seed in 0u64..1000) {
            // Deterministic pseudo-random fill from the seed.
            let fill = |r: usize, c: usize, salt: u64| {
                let mut v = Vec::with_capacity(r * c);
                let mut s = seed.wrapping_add(salt).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..r * c {
                    s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                    v.push(((s % 2000) as f32 - 1000.0) / 250.0);
                }
                Matrix::from_vec(r, c, v)
            };
            let a = fill(m, k, 1);
            let b = fill(k, n, 2);
            let fast = a.matmul(&b);
            let slow = a.matmul_naive(&b);
            prop_assert!(approx_eq(&fast, &slow, 1e-4));

            // _nt and _tn agree with explicit transposes.
            let bt = b.transpose();
            prop_assert!(approx_eq(&a.matmul_nt(&bt), &slow, 1e-4));
            let at = a.transpose();
            prop_assert!(approx_eq(&at.matmul_tn(&b), &slow, 1e-4));
        }

        #[test]
        fn prop_transpose_involution(r in 1usize..8, c in 1usize..8) {
            let data: Vec<f32> = (0..r * c).map(|i| i as f32).collect();
            let m = Matrix::from_vec(r, c, data);
            prop_assert_eq!(m.transpose().transpose(), m);
        }
    }
}
