//! A minimal dense `f32` matrix.
//!
//! The logical network needs batched elementwise products, a small linear
//! head and per-layer Jacobian products — nothing that justifies an external
//! tensor dependency (the Rust ML ecosystem is thin, and the paper's model
//! is custom anyway). Row-major storage keeps per-row operations cache
//! friendly.

/// Dense row-major `f32` matrix.
#[derive(Debug, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.clone() }
    }

    /// Reuses `self`'s allocation (the snapshot slots in the training loop
    /// clone every improving epoch; a fresh heap block each time would be
    /// the single largest allocation in the epoch).
    fn clone_from(&mut self, src: &Self) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clone_from(&src.data);
    }
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// In-place element update.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Immutable row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Sets every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshapes in place, reusing the allocation where capacity allows.
    ///
    /// Elements that survive the reshape keep **stale values** (newly grown
    /// tail elements are zero) — callers must fully overwrite the matrix or
    /// [`Self::fill_zero`] it, whichever their kernel requires. Steady-state
    /// training resizes workspace buffers to the final (smaller) batch and
    /// back without touching the allocator.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// `self · other` (`rows×cols` by `cols×k`).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// `self · other` written into a caller-owned buffer (resized to fit,
    /// no allocation once warm).
    ///
    /// Floating-point contract: every output element is the `+0.0`-seeded
    /// sum of all its partial products in ascending inner-index order.
    /// There is no skip of exact-zero LHS entries: for a finite right-hand
    /// side it would change no bit (a `±0.0` product never changes such a
    /// sum), and a NaN or infinite right-hand-side entry must reach every
    /// output it multiplies, as in [`Self::matmul_packed_into`].
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        out.resize(self.rows, other.cols);
        out.fill_zero();
        for r in 0..self.rows {
            let a_row = self.row(r);
            let out_row = out.row_mut(r);
            for (i, &a) in a_row.iter().enumerate() {
                let b_row = other.row(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self · rhs` against a pre-transposed right-hand side.
    ///
    /// Each output element is a k-ascending dot product over one contiguous
    /// LHS row and one contiguous packed column: the additions of
    /// [`Self::matmul`]'s axpy loop in the same order, so the output is
    /// bitwise identical to it (a NaN output may carry another NaN
    /// payload). Rows are processed four at a time: four independent
    /// accumulator chains hide the FP add latency a single running dot is
    /// bound by.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_packed_into(&self, rhs: &PackedRhs, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul inner dimension mismatch");
        out.resize(self.rows, rhs.cols);
        let k = self.cols;
        let mut r = 0;
        while r + 4 <= self.rows {
            let a0 = &self.row(r)[..k];
            let a1 = &self.row(r + 1)[..k];
            let a2 = &self.row(r + 2)[..k];
            let a3 = &self.row(r + 3)[..k];
            for o in 0..rhs.cols {
                let col = &rhs.col(o)[..k];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for i in 0..k {
                    let b = col[i];
                    s0 += a0[i] * b;
                    s1 += a1[i] * b;
                    s2 += a2[i] * b;
                    s3 += a3[i] * b;
                }
                out.set(r, o, s0);
                out.set(r + 1, o, s1);
                out.set(r + 2, o, s2);
                out.set(r + 3, o, s3);
            }
            r += 4;
        }
        while r < self.rows {
            let a_row = &self.row(r)[..k];
            for o in 0..rhs.cols {
                let col = &rhs.col(o)[..k];
                let mut acc = 0.0f32;
                for i in 0..k {
                    acc += a_row[i] * col[i];
                }
                out.set(r, o, acc);
            }
            r += 1;
        }
    }

    /// A new matrix containing the given rows (in order).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::default();
        self.select_rows_into(indices, &mut out);
        out
    }

    /// Gathers the given rows into a caller-owned buffer (resized to fit,
    /// no allocation once warm) — the per-batch minibatch gather.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize(indices.len(), self.cols);
        for (oi, &i) in indices.iter().enumerate() {
            out.row_mut(oi).copy_from_slice(self.row(i));
        }
    }
}

/// A right-hand-side matrix packed transposed (column-major over the
/// original layout), so [`Matrix::matmul_packed_into`] reads each output
/// column contiguously. Packed once per training step, reused for every
/// forward in that step.
#[derive(Debug, Clone, Default)]
pub struct PackedRhs {
    rows: usize,
    cols: usize,
    /// `data[c * rows + r] = m[r][c]`.
    data: Vec<f32>,
}

impl PackedRhs {
    /// Repacks from a source matrix, reusing the allocation.
    pub fn pack_from(&mut self, m: &Matrix) {
        self.rows = m.rows();
        self.cols = m.cols();
        self.data.resize(self.rows * self.cols, 0.0);
        for r in 0..self.rows {
            let src = m.row(r);
            for (c, &v) in src.iter().enumerate() {
                self.data[c * self.rows + r] = v;
            }
        }
    }

    /// Rows of the original (unpacked) matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the original (unpacked) matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One original column as a contiguous slice.
    #[inline]
    pub fn col(&self, c: usize) -> &[f32] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let mut m = Matrix::zeros(2, 3);
        m.set(0, 1, 2.0);
        m.add_at(0, 1, 0.5);
        assert_eq!(m.get(0, 1), 2.5);
        assert_eq!(m.row(0), &[0.0, 2.5, 0.0]);
        m.row_mut(1)[2] = 7.0;
        assert_eq!(m.get(1, 2), 7.0);
        m.fill_zero();
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_skips_zero_entries_correctly() {
        let a = Matrix::from_vec(1, 3, vec![0.0, 1.0, 0.0]);
        let b = Matrix::from_vec(3, 2, vec![5.0, 5.0, 1.0, 2.0, 9.0, 9.0]);
        assert_eq!(a.matmul(&b).data(), &[1.0, 2.0]);
    }

    #[test]
    fn select_rows_copies() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = m.select_rows(&[2, 0, 2]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn resize_reuses_allocation() {
        let mut m = Matrix::zeros(4, 4);
        let cap = |m: &Matrix| m.data.capacity();
        let c0 = cap(&m);
        m.resize(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        m.resize(4, 4);
        assert_eq!(cap(&m), c0, "shrink+regrow must not reallocate");
        let src = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut snap = Matrix::zeros(2, 2);
        snap.clone_from(&src);
        assert_eq!(snap, src);
    }

    #[test]
    fn matmul_into_and_packed_match_naive_bitwise() {
        let a = Matrix::from_vec(
            3,
            4,
            vec![0.0, 1.5, -2.25, 0.0, 3.0, 0.0, 0.125, 7.5, -0.5, 0.75, 0.0, 1.0],
        );
        let b = Matrix::from_vec(4, 2, vec![1.0, -1.0, 0.5, 2.0, 3.0, -0.25, 0.0, 4.0]);
        let naive = a.matmul(&b);
        // Dirty buffers of the wrong shape must be fully reshaped/overwritten.
        let mut out = Matrix::from_vec(1, 1, vec![99.0]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), naive.data());
        let mut packed = PackedRhs::default();
        packed.pack_from(&b);
        assert_eq!((packed.rows(), packed.cols()), (4, 2));
        let mut out2 = Matrix::from_vec(2, 5, vec![5.0; 10]);
        a.matmul_packed_into(&packed, &mut out2);
        assert_eq!(out2.data(), naive.data());
    }

    #[test]
    fn select_rows_into_matches_select_rows() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = Matrix::from_vec(1, 3, vec![9.0, 9.0, 9.0]);
        m.select_rows_into(&[2, 0], &mut out);
        assert_eq!(out, m.select_rows(&[2, 0]));
    }

    #[test]
    #[should_panic(expected = "matmul inner dimension mismatch")]
    fn matmul_packed_dimension_check() {
        let a = Matrix::zeros(2, 3);
        let mut packed = PackedRhs::default();
        packed.pack_from(&Matrix::zeros(2, 3));
        a.matmul_packed_into(&packed, &mut Matrix::default());
    }

    #[test]
    #[should_panic(expected = "matmul inner dimension mismatch")]
    fn matmul_dimension_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "matrix data length mismatch")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }
}
