//! The linear classification head (paper Figure 3, bottom).
//!
//! Aggregates the rule-activation vector into per-class scores:
//! `logits = R · V + b`. Per the paper, the head is **never binarized** —
//! its signed weights become the rule importance weights `w⁺` / `w⁻` during
//! extraction.

// Index-based loops below mirror the textbook formulations; iterator
// rewrites obscure the row/column arithmetic.
#![allow(clippy::needless_range_loop)]
use ctfl_rng::Rng;

use crate::matrix::{Matrix, PackedRhs};

/// Linear head mapping `n_rules` activations to `n_classes` logits.
#[derive(Debug)]
pub struct LinearHead {
    /// `n_rules × n_classes` weights.
    v: Matrix,
    /// Per-class bias.
    bias: Vec<f32>,
}

impl Clone for LinearHead {
    fn clone(&self) -> Self {
        LinearHead { v: self.v.clone(), bias: self.bias.clone() }
    }

    /// Reuses the destination's buffers (best-epoch snapshotting).
    fn clone_from(&mut self, src: &Self) {
        self.v.clone_from(&src.v);
        self.bias.clone_from(&src.bias);
    }
}

impl LinearHead {
    /// Small random initialisation.
    pub fn new<R: Rng>(n_rules: usize, n_classes: usize, rng: &mut R) -> Self {
        let mut v = Matrix::zeros(n_rules, n_classes);
        for val in v.data_mut() {
            *val = (rng.gen::<f32>() - 0.5) * 0.1;
        }
        LinearHead { v, bias: vec![0.0; n_classes] }
    }

    /// Number of input rules.
    pub fn n_rules(&self) -> usize {
        self.v.rows()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.v.cols()
    }

    /// Weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.v
    }

    /// Mutable weight matrix.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.v
    }

    /// Biases.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable biases.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// `logits = r · V + b` for a batch of rule activations.
    pub fn forward(&self, r: &Matrix) -> Matrix {
        let mut logits = r.matmul(&self.v);
        for b in 0..logits.rows() {
            for (l, &bias) in logits.row_mut(b).iter_mut().zip(&self.bias) {
                *l += bias;
            }
        }
        logits
    }

    /// Repacks the weight matrix transposed into `packed` (once per
    /// training step — the weights only move at optimizer steps).
    pub fn pack_weights_into(&self, packed: &mut PackedRhs) {
        packed.pack_from(&self.v);
    }

    /// `logits = r · V + b` into a caller-owned buffer, reading `V` through
    /// its packed transpose. Bit-identical to [`Self::forward`]: the packed
    /// matmul replays the axpy summation order exactly, and the bias is
    /// added afterwards element-by-element as before.
    ///
    /// # Panics
    /// Panics if `packed` does not match the head's weight shape.
    pub fn forward_packed_into(&self, r: &Matrix, packed: &PackedRhs, out: &mut Matrix) {
        assert_eq!(packed.rows(), self.v.rows(), "packed weight shape mismatch");
        assert_eq!(packed.cols(), self.v.cols(), "packed weight shape mismatch");
        r.matmul_packed_into(packed, out);
        for b in 0..out.rows() {
            for (l, &bias) in out.row_mut(b).iter_mut().zip(&self.bias) {
                *l += bias;
            }
        }
    }

    /// Backward into a caller-owned `dr` buffer, filling only its first
    /// `dr_cols` columns (`dr` is resized to `r.rows() × dr_cols` and fully
    /// overwritten): a caller that reads the gradient of the leading rules
    /// only skips the rest. `dv`/`dbias` are accumulated over all rules as
    /// in [`Self::backward`], whose leading `dr` columns this matches bit
    /// for bit.
    ///
    /// # Panics
    /// Panics if the shapes disagree or `dr_cols > n_rules`.
    pub fn backward_into(
        &self,
        r: &Matrix,
        dlogits: &Matrix,
        dv: &mut Matrix,
        dbias: &mut [f32],
        dr: &mut Matrix,
        dr_cols: usize,
    ) {
        assert_eq!(dlogits.cols(), self.n_classes());
        assert_eq!(dv.rows(), self.v.rows());
        assert_eq!(dbias.len(), self.bias.len());
        assert!(dr_cols <= self.v.rows(), "dr_cols exceeds the rule count");
        dr.resize(r.rows(), dr_cols);
        let n_classes = self.n_classes();
        for b in 0..r.rows() {
            let rb = r.row(b);
            let gb = &dlogits.row(b)[..n_classes];
            for (c, &g) in gb.iter().enumerate() {
                dbias[c] += g;
            }
            for j in 0..self.v.rows() {
                let dvj = &mut dv.row_mut(j)[..n_classes];
                let rbj = rb[j];
                for c in 0..n_classes {
                    dvj[c] += rbj * gb[c];
                }
            }
            let drb = dr.row_mut(b);
            for j in 0..dr_cols {
                let vj = &self.v.row(j)[..n_classes];
                let mut d = 0.0;
                for c in 0..n_classes {
                    d += vj[c] * gb[c];
                }
                drb[j] = d;
            }
        }
    }

    /// Backward: given input activations `r` and upstream `dlogits`,
    /// accumulates `dv`/`dbias` and returns `dr`.
    pub fn backward(
        &self,
        r: &Matrix,
        dlogits: &Matrix,
        dv: &mut Matrix,
        dbias: &mut [f32],
    ) -> Matrix {
        assert_eq!(dlogits.cols(), self.n_classes());
        assert_eq!(dv.rows(), self.v.rows());
        assert_eq!(dbias.len(), self.bias.len());
        let mut dr = Matrix::zeros(r.rows(), self.v.rows());
        for b in 0..r.rows() {
            let rb = r.row(b);
            let gb = dlogits.row(b);
            for (c, &g) in gb.iter().enumerate() {
                dbias[c] += g;
            }
            for j in 0..self.v.rows() {
                let vj = self.v.row(j);
                let mut d = 0.0;
                for (c, &g) in gb.iter().enumerate() {
                    dv.add_at(j, c, rb[j] * g);
                    d += vj[c] * g;
                }
                dr.set(b, j, d);
            }
        }
        dr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctfl_rng::rngs::StdRng;
    use ctfl_rng::SeedableRng;

    #[test]
    fn forward_known_values() {
        let mut head = LinearHead::new(2, 2, &mut StdRng::seed_from_u64(0));
        head.v = Matrix::from_vec(2, 2, vec![1.0, -1.0, 0.5, 2.0]);
        head.bias = vec![0.1, -0.1];
        let r = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let logits = head.forward(&r);
        assert!((logits.get(0, 0) - 1.6).abs() < 1e-6);
        assert!((logits.get(0, 1) - 0.9).abs() < 1e-6);
    }

    #[test]
    fn backward_into_fills_the_leading_dr_columns_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        let head = LinearHead::new(5, 3, &mut rng);
        let mut r = Matrix::zeros(4, 5);
        let mut dlogits = Matrix::zeros(4, 3);
        for v in r.data_mut().iter_mut().chain(dlogits.data_mut()) {
            *v = rng.gen::<f32>() - 0.3;
        }
        let mut dv = Matrix::zeros(5, 3);
        let mut dbias = vec![0.0; 3];
        let dr = head.backward(&r, &dlogits, &mut dv, &mut dbias);
        for dr_cols in 0..=5 {
            let mut dv2 = Matrix::zeros(5, 3);
            let mut dbias2 = vec![0.0; 3];
            let mut dr2 = Matrix::from_vec(1, 1, vec![f32::NAN]);
            head.backward_into(&r, &dlogits, &mut dv2, &mut dbias2, &mut dr2, dr_cols);
            assert_eq!(dv2, dv);
            assert_eq!(dbias2, dbias);
            assert_eq!((dr2.rows(), dr2.cols()), (4, dr_cols));
            for b in 0..4 {
                assert_eq!(dr2.row(b), &dr.row(b)[..dr_cols]);
            }
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let head = LinearHead::new(3, 2, &mut rng);
        let r = Matrix::from_vec(2, 3, vec![0.2, 0.9, 0.0, 1.0, 0.3, 0.7]);
        let dlogits = Matrix::from_vec(2, 2, vec![1.0, -0.5, 0.25, 2.0]);
        let mut dv = Matrix::zeros(3, 2);
        let mut dbias = vec![0.0; 2];
        let dr = head.backward(&r, &dlogits, &mut dv, &mut dbias);

        // Scalar objective: sum(logits * dlogits); check d/dV.
        let eps = 1e-3f32;
        let objective = |h: &LinearHead| -> f32 {
            let l = h.forward(&r);
            l.data().iter().zip(dlogits.data()).map(|(a, b)| a * b).sum()
        };
        let mut h2 = head.clone();
        for j in 0..3 {
            for c in 0..2 {
                let orig = h2.v.get(j, c);
                h2.v.set(j, c, orig + eps);
                let fp = objective(&h2);
                h2.v.set(j, c, orig - eps);
                let fm = objective(&h2);
                h2.v.set(j, c, orig);
                let fd = (fp - fm) / (2.0 * eps);
                assert!((fd - dv.get(j, c)).abs() < 1e-2, "dv[{j}][{c}]");
            }
        }
        for c in 0..2 {
            let orig = h2.bias[c];
            h2.bias[c] = orig + eps;
            let fp = objective(&h2);
            h2.bias[c] = orig - eps;
            let fm = objective(&h2);
            h2.bias[c] = orig;
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - dbias[c]).abs() < 1e-2, "dbias[{c}]");
        }
        // dr check.
        let mut r2 = r.clone();
        for b in 0..2 {
            for j in 0..3 {
                let orig = r2.get(b, j);
                r2.set(b, j, orig + eps);
                let lp = head.forward(&r2);
                let fp: f32 = lp.data().iter().zip(dlogits.data()).map(|(a, g)| a * g).sum();
                r2.set(b, j, orig - eps);
                let lm = head.forward(&r2);
                let fm: f32 = lm.data().iter().zip(dlogits.data()).map(|(a, g)| a * g).sum();
                r2.set(b, j, orig);
                let fd = (fp - fm) / (2.0 * eps);
                assert!((fd - dr.get(b, j)).abs() < 1e-2, "dr[{b}][{j}]");
            }
        }
    }
}
