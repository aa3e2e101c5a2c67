//! A small row-major `f32` matrix.
//!
//! `tinynn` deliberately avoids a general tensor abstraction: the RTS
//! probes are 2-layer MLPs over hidden-state vectors of dimension ≤ 256,
//! so a plain contiguous `Vec<f32>` with `(rows, cols)` bookkeeping plus a
//! handful of fused kernels that write into reused buffers
//! (`matmul_into`, `matmul_at_into`, `matmul_bt_into`) is both the
//! simplest and the fastest thing that works.

use crate::rng::SplitMix64;

/// Dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Build from an existing row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Self { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialisation: U(−√(6/(fan_in+fan_out)), +…).
    /// This is the standard choice for tanh/sigmoid nets and works well
    /// for the shallow ReLU probes we train.
    pub fn xavier(rows: usize, cols: usize, rng: &mut SplitMix64) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        Self::from_fn(rows, cols, |_, _| {
            ((rng.next_f64() * 2.0 - 1.0) * bound) as f32
        })
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Raw buffer access (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Raw mutable buffer access (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshape in place to `rows × cols`, zero-filled, reusing the
    /// existing allocation when it is large enough. This is what makes
    /// the `*_into` kernels allocation-free across calls with varying
    /// batch sizes (traces differ in token count).
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshape in place to `rows × cols` with **unspecified contents**
    /// (the existing prefix is kept, only a grown tail is zeroed).
    /// For destinations the caller fully overwrites — skips the
    /// whole-buffer zero-fill of [`Matrix::resize_zeroed`], halving
    /// memory traffic on the pack/transform hot paths.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// `self @ other` → (self.rows × other.cols). Allocates the output;
    /// see [`Matrix::matmul_into`] for the allocation-free form.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self @ other` written into `out` (resized as needed, allocation
    /// reused). Every output element is summed over `k` in ascending
    /// order from `+0.0`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        // The fixed-width kernels overwrite every output element
        // (register accumulators copied out whole), so they skip the
        // zero-fill; the generic tiled kernel accumulates its ragged
        // tail into `out` and needs zeroed storage.
        if matches!(other.cols, 1 | 8 | 16 | 32 | 64) {
            out.resize_for_overwrite(self.rows, other.cols);
        } else {
            out.resize_zeroed(self.rows, other.cols);
        }
        self.matmul_dense_kernel(other, out);
    }

    /// Branchless ikj kernel. The common probe widths get fully
    /// specialised fixed-size register tiles (the whole output row lives
    /// in registers across the `k` loop, and the compiler unrolls and
    /// vectorises the constant-width inner loop); other widths fall back
    /// to an 8-wide tile. All variants accumulate each output element
    /// over `k` in ascending order — identical results.
    fn matmul_dense_kernel(&self, other: &Matrix, out: &mut Matrix) {
        match other.cols {
            1 => self.matmul_dense_width1(other, out),
            8 => self.matmul_dense_fixed::<8>(other, out),
            16 => self.matmul_dense_fixed::<16>(other, out),
            32 => self.matmul_dense_fixed::<32>(other, out),
            64 => self.matmul_dense_fixed::<64>(other, out),
            _ => self.matmul_dense_tiled(other, out),
        }
    }

    /// Output width 1 (the probes' sigmoid head): one ascending-`k` dot
    /// product per row; `other`'s single column is its contiguous data.
    fn matmul_dense_width1(&self, other: &Matrix, out: &mut Matrix) {
        let b = &other.data;
        for i in 0..self.rows {
            let mut acc = 0.0f32;
            for (&a_ik, &bv) in self.row(i).iter().zip(b.iter()) {
                acc += a_ik * bv;
            }
            out.data[i] = acc;
        }
    }

    /// Fixed output width `W`: whole-row register accumulator.
    fn matmul_dense_fixed<const W: usize>(&self, other: &Matrix, out: &mut Matrix) {
        let b = &other.data;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let mut acc = [0.0f32; W];
            for (&a_ik, b_row) in a_row.iter().zip(b.chunks_exact(W)) {
                let b_row: &[f32; W] = b_row.try_into().expect("chunk width");
                for (o, &bv) in acc.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * bv;
                }
            }
            out.row_mut(i).copy_from_slice(&acc);
        }
    }

    /// Generic-width fallback: 8-wide column tiles.
    fn matmul_dense_tiled(&self, other: &Matrix, out: &mut Matrix) {
        const JB: usize = 8;
        let n_cols = other.cols;
        let full_tiles = n_cols / JB;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for jt in 0..full_tiles {
                let j0 = jt * JB;
                let mut acc = [0.0f32; JB];
                for (k, &a_ik) in a_row.iter().enumerate() {
                    let b_row = &other.row(k)[j0..j0 + JB];
                    for (a, &b) in acc.iter_mut().zip(b_row.iter()) {
                        *a += a_ik * b;
                    }
                }
                out_row[j0..j0 + JB].copy_from_slice(&acc);
            }
            let j0 = full_tiles * JB;
            if j0 < n_cols {
                for (k, &a_ik) in a_row.iter().enumerate() {
                    let b_row = &other.row(k)[j0..];
                    for (o, &b) in out_row[j0..].iter_mut().zip(b_row.iter()) {
                        *o += a_ik * b;
                    }
                }
            }
        }
    }

    /// `selfᵀ @ other` written into `out` (resized as needed,
    /// allocation reused) without materialising the transpose — the
    /// weight gradient `xᵀ · ∂L/∂z` of a dense layer. Every element sums
    /// over the rows of `self` in ascending order from `+0.0`, so the
    /// fixed-width register tiles and the generic loop agree bit for
    /// bit.
    pub fn matmul_at_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_at shape mismatch");
        // Tiled at the widths training meets: the width-1 head, the
        // 16-wide probe hidden layer and the 32-wide ablation layer.
        match other.cols {
            1 => self.matmul_at_fixed::<1>(other, out),
            16 => self.matmul_at_fixed::<16>(other, out),
            32 => self.matmul_at_fixed::<32>(other, out),
            _ => self.matmul_at_generic(other, out),
        }
    }

    /// Fixed width `W`: output-row outer, batch-row inner. Output row
    /// `i` lives in a register accumulator while the batch rows stream
    /// past — the transpose of [`Matrix::matmul_dense_fixed`].
    fn matmul_at_fixed<const W: usize>(&self, other: &Matrix, out: &mut Matrix) {
        out.resize_for_overwrite(self.cols, W);
        for i in 0..self.cols {
            let mut acc = [0.0f32; W];
            let a_rows = self.data.chunks_exact(self.cols);
            for (a_row, b_row) in a_rows.zip(other.data.chunks_exact(W)) {
                let a = a_row[i];
                let b_row: &[f32; W] = b_row.try_into().expect("chunk width");
                for (o, &b) in acc.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
            out.row_mut(i).copy_from_slice(&acc);
        }
    }

    /// Generic-width fallback: an axpy of each batch row into the
    /// output rows, batch rows in ascending order.
    fn matmul_at_generic(&self, other: &Matrix, out: &mut Matrix) {
        out.resize_zeroed(self.cols, other.cols);
        for r in 0..self.rows {
            let b_row = other.row(r);
            for (i, &a) in self.row(r).iter().enumerate() {
                for (o, &b) in out.row_mut(i).iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self @ otherᵀ` written into `out` (resized as needed, allocation
    /// reused) without materialising the transpose — the input gradient
    /// `∂L/∂z · Wᵀ` of a dense layer. Each element is one dot product
    /// over `k` in ascending order from `+0.0`.
    pub fn matmul_bt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_bt shape mismatch");
        out.resize_for_overwrite(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (j, o) in out.row_mut(i).iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(other.row(j)) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// Add a row vector (bias) to every row.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (x, &b) in self.row_mut(r).iter_mut().zip(bias.iter()) {
                *x += b;
            }
        }
    }

    /// Column sums written into `sums` (one per column), rows in
    /// ascending order from `+0.0` — the bias gradient of a dense layer.
    pub fn col_sums_into(&self, sums: &mut [f32]) {
        assert_eq!(sums.len(), self.cols, "col_sums length mismatch");
        sums.fill(0.0);
        for r in 0..self.rows {
            for (s, &x) in sums.iter_mut().zip(self.row(r).iter()) {
                *s += x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let id = m(2, 2, &[1., 0., 0., 1.]);
        assert_eq!(a.matmul(&id).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[1., 1., 2., 2., 3., 3.]);
        let at = Matrix::from_fn(2, 3, |r, c| a.get(c, r));
        let mut out = Matrix::default();
        a.matmul_at_into(&b, &mut out);
        assert_eq!(out.as_slice(), at.matmul(&b).as_slice());
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(2, 3, &[1., 0., 1., 0., 1., 0.]);
        let bt = Matrix::from_fn(3, 2, |r, c| b.get(c, r));
        let mut out = Matrix::default();
        a.matmul_bt_into(&b, &mut out);
        assert_eq!(out.as_slice(), a.matmul(&bt).as_slice());
    }

    #[test]
    fn broadcast_and_col_sums() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, 2.0]);
        let mut sums = [f32::NAN; 2];
        a.col_sums_into(&mut sums);
        assert_eq!(sums, [3.0, 6.0]);
    }

    #[test]
    fn xavier_bound_respected() {
        let mut rng = SplitMix64::new(1);
        let w = Matrix::xavier(10, 20, &mut rng);
        let bound = (6.0_f32 / 30.0).sqrt();
        assert!(w.as_slice().iter().all(|x| x.abs() <= bound + 1e-6));
        // Not all identical (init actually random).
        assert!(w.as_slice().windows(2).any(|p| p[0] != p[1]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_into_reuses_buffer_across_shapes() {
        let a1 = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b1 = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let mut out = Matrix::zeros(8, 8); // larger than needed
        a1.matmul_into(&b1, &mut out);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.cols(), 2);
        assert_eq!(out.as_slice(), &[58., 64., 139., 154.]);
        // Shrink/regrow with stale contents present.
        let a2 = m(1, 2, &[1., 1.]);
        let b2 = m(2, 1, &[2., 3.]);
        a2.matmul_into(&b2, &mut out);
        assert_eq!(out.as_slice(), &[5.]);
    }

    /// A random `rows × cols` matrix; `relu` zeroes the negative half,
    /// like a post-ReLU activation.
    fn random(rows: usize, cols: usize, relu: bool, rng: &mut SplitMix64) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            let v = rng.next_gaussian() as f32;
            if relu && v < 0.0 {
                0.0
            } else {
                v
            }
        })
    }

    fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{what}"
        );
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: {g} vs {w}");
        }
    }

    /// Every kernel equals a naive loop that sums each element in
    /// ascending order from `+0.0` — bit for bit, on dense and on
    /// post-ReLU (half exactly-zero) inputs, written into a reused
    /// buffer holding stale values. Widths 1/8/16/32/64 take the
    /// fixed-width forward tiles (1/16/32 also the `matmul_at_into`
    /// tiles); 8, 64 and the ragged 24 take the generic loops.
    #[test]
    fn kernels_match_naive_loops_bitwise() {
        let mut rng = SplitMix64::new(0xA7);
        let mut out = Matrix::from_vec(3, 3, vec![f32::NAN; 9]);
        for width in [1usize, 8, 16, 32, 64, 24] {
            for relu in [false, true] {
                // `a` is a batch of activations (rows = samples), `w` a
                // weight matrix, `g` the gradient with respect to the
                // layer output.
                let (rows, inner) = (37, 19);
                let a = random(rows, inner, relu, &mut rng);
                let w = random(inner, width, relu, &mut rng);
                let g = random(rows, width, false, &mut rng);
                let what = format!("width {width}, relu {relu}");

                let aw = Matrix::from_fn(rows, width, |r, j| {
                    let mut acc = 0.0f32;
                    for k in 0..inner {
                        acc += a.get(r, k) * w.get(k, j);
                    }
                    acc
                });
                a.matmul_into(&w, &mut out);
                assert_bits_eq(&out, &aw, &format!("matmul, {what}"));

                let at = Matrix::from_fn(inner, width, |i, j| {
                    let mut acc = 0.0f32;
                    for r in 0..rows {
                        acc += a.get(r, i) * g.get(r, j);
                    }
                    acc
                });
                a.matmul_at_into(&g, &mut out);
                assert_bits_eq(&out, &at, &format!("matmul_at, {what}"));

                let bt = Matrix::from_fn(rows, inner, |r, i| {
                    let mut acc = 0.0f32;
                    for k in 0..width {
                        acc += g.get(r, k) * w.get(i, k);
                    }
                    acc
                });
                g.matmul_bt_into(&w, &mut out);
                assert_bits_eq(&out, &bt, &format!("matmul_bt, {what}"));
            }
        }
    }
}
