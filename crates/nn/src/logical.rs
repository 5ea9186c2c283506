//! Logical layers (paper Eq. 7).
//!
//! A logical layer contains conjunction and disjunction nodes whose soft
//! activations blend neural learnability with symbolic structure:
//!
//! ```text
//! Conj(x, w) = Π_i F_c(x_i, w_i),        F_c = 1 − w_i (1 − x_i)
//! Disj(x, w) = 1 − Π_i (1 − F_d(x_i, w_i)),  F_d = x_i · w_i
//! ```
//!
//! With binary `x` and binarized `w = 1(θ > 0.5)` these reduce exactly to
//! `∧_{w_i=1} x_i` and `∨_{w_i=1} x_i` — the *discrete* forward used by
//! gradient grafting and rule extraction.

// The hot kernels below index multiple parallel slices by position; the
// iterator forms clippy suggests obscure the lockstep row/column arithmetic.
#![allow(clippy::needless_range_loop)]

use ctfl_rng::Rng;

use crate::matrix::{Matrix, PackedRhs};

/// Node connective kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Conjunction (AND) node.
    Conj,
    /// Disjunction (OR) node.
    Disj,
}

/// Guard against division by a vanishing factor in the product-rule
/// backward pass. Clamping the divisor is the standard stabilisation for
/// soft-logic layers; the bias it introduces vanishes away from saturation.
const FACTOR_EPS: f32 = 1e-6;

/// The binarized execution plan of one layer's discrete forward: per-node
/// CSR lists of the input indices selected by `1(w > 0.5)`.
///
/// The naive discrete forward re-tests every weight against 0.5 for every
/// row of the batch; the plan performs that scan **once per training step**
/// (weights only change at optimizer steps) and the per-row work shrinks to
/// the few selected literals per node. The output is pure boolean logic, so
/// the planned forward is trivially bit-identical to
/// [`LogicalLayer::forward_discrete`].
#[derive(Debug, Clone, Default)]
pub struct DiscretePlan {
    /// `n_nodes + 1` CSR offsets into `indices`.
    offsets: Vec<u32>,
    /// Concatenated selected-input indices of all nodes.
    indices: Vec<u32>,
}

impl DiscretePlan {
    /// The selected input indices of `node`.
    #[inline]
    fn selected(&self, node: usize) -> &[u32] {
        &self.indices[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }
}

/// A layer of `n_nodes` logical nodes over `in_dim` inputs.
///
/// The first half of the nodes are conjunctions, the second half
/// disjunctions (both halves non-empty for `n_nodes >= 2`).
#[derive(Debug)]
pub struct LogicalLayer {
    in_dim: usize,
    kinds: Vec<NodeKind>,
    /// `n_nodes × in_dim` continuous weights in `[0, 1]`.
    w: Matrix,
}

impl Clone for LogicalLayer {
    fn clone(&self) -> Self {
        LogicalLayer { in_dim: self.in_dim, kinds: self.kinds.clone(), w: self.w.clone() }
    }

    /// Reuses the destination's buffers — the training loop's best-epoch
    /// snapshot goes through here instead of allocating a fresh layer.
    fn clone_from(&mut self, src: &Self) {
        self.in_dim = src.in_dim;
        self.kinds.clone_from(&src.kinds);
        self.w.clone_from(&src.w);
    }
}

impl LogicalLayer {
    /// Creates a layer with sparse random initialisation: each node starts
    /// with a few active (binarized-on) input weights, so the discrete model
    /// begins as a random small rule set instead of a constant function.
    pub fn new<R: Rng>(in_dim: usize, n_nodes: usize, rng: &mut R) -> Self {
        assert!(in_dim > 0 && n_nodes > 0, "layer dimensions must be positive");
        let kinds: Vec<NodeKind> = (0..n_nodes)
            .map(|j| if j < n_nodes / 2 { NodeKind::Conj } else { NodeKind::Disj })
            .collect();
        let mut w = Matrix::zeros(n_nodes, in_dim);
        // Expected ~3 initially-active literals per node.
        let p_active = (3.0 / in_dim as f64).min(0.5);
        for j in 0..n_nodes {
            for i in 0..in_dim {
                let v = if rng.gen_bool(p_active) {
                    0.55 + rng.gen::<f32>() * 0.35 // active: in (0.55, 0.9)
                } else {
                    rng.gen::<f32>() * 0.45 // inactive: in (0, 0.45)
                };
                w.set(j, i, v);
            }
        }
        LogicalLayer { in_dim, kinds, w }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Node kinds.
    pub fn kinds(&self) -> &[NodeKind] {
        &self.kinds
    }

    /// Continuous weights (`n_nodes × in_dim`).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Mutable continuous weights.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.w
    }

    /// Indices of the inputs selected by the binarized weights of `node`.
    pub fn selected(&self, node: usize) -> Vec<usize> {
        (0..self.in_dim).filter(|&i| self.w.get(node, i) > 0.5).collect()
    }

    /// Continuous (soft) forward: `x` is `batch × in_dim`, returns
    /// `batch × n_nodes`.
    pub fn forward_soft(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "input width mismatch");
        let mut y = Matrix::zeros(x.rows(), self.n_nodes());
        for b in 0..x.rows() {
            let xr = x.row(b);
            let yr = y.row_mut(b);
            for (j, kind) in self.kinds.iter().enumerate() {
                let wr = self.w.row(j);
                let v = match kind {
                    NodeKind::Conj => {
                        let mut p = 1.0f32;
                        for (xi, wi) in xr.iter().zip(wr) {
                            p *= 1.0 - wi * (1.0 - xi);
                        }
                        p
                    }
                    NodeKind::Disj => {
                        let mut p = 1.0f32;
                        for (xi, wi) in xr.iter().zip(wr) {
                            p *= 1.0 - wi * xi;
                        }
                        1.0 - p
                    }
                };
                yr[j] = v;
            }
        }
        y
    }

    /// Discrete forward with binarized weights `1(w > 0.5)`; inputs are
    /// expected to be (near-)binary.
    pub fn forward_discrete(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "input width mismatch");
        let mut y = Matrix::zeros(x.rows(), self.n_nodes());
        for b in 0..x.rows() {
            let xr = x.row(b);
            let yr = y.row_mut(b);
            for (j, kind) in self.kinds.iter().enumerate() {
                let wr = self.w.row(j);
                let v = match kind {
                    NodeKind::Conj => {
                        // Empty selection: AND over nothing = true.
                        let all = xr
                            .iter()
                            .zip(wr)
                            .filter(|(_, &w)| w > 0.5)
                            .all(|(&x, _)| x > 0.5);
                        if all {
                            1.0
                        } else {
                            0.0
                        }
                    }
                    NodeKind::Disj => {
                        let any = xr
                            .iter()
                            .zip(wr)
                            .filter(|(_, &w)| w > 0.5)
                            .any(|(&x, _)| x > 0.5);
                        if any {
                            1.0
                        } else {
                            0.0
                        }
                    }
                };
                yr[j] = v;
            }
        }
        y
    }

    /// Rebuilds `plan` from the current binarized weights (CSR over
    /// `w > 0.5`), reusing its allocations.
    pub fn plan_discrete_into(&self, plan: &mut DiscretePlan) {
        plan.offsets.clear();
        plan.indices.clear();
        plan.offsets.push(0);
        for j in 0..self.n_nodes() {
            let wr = self.w.row(j);
            for (i, &w) in wr.iter().enumerate() {
                if w > 0.5 {
                    plan.indices.push(i as u32);
                }
            }
            plan.offsets.push(plan.indices.len() as u32);
        }
    }

    /// Discrete forward through a prebuilt [`DiscretePlan`], writing into a
    /// caller-owned buffer. Bit-identical to [`Self::forward_discrete`]
    /// (same boolean semantics, including the empty-AND=true / empty-OR=false
    /// conventions), but touches only the selected inputs per node.
    ///
    /// # Panics
    /// Panics if `x`'s width or the plan's node count disagree with the
    /// layer.
    pub fn forward_discrete_planned_into(&self, x: &Matrix, plan: &DiscretePlan, y: &mut Matrix) {
        assert_eq!(x.cols(), self.in_dim, "input width mismatch");
        assert_eq!(plan.offsets.len(), self.n_nodes() + 1, "plan node count mismatch");
        y.resize(x.rows(), self.n_nodes());
        for b in 0..x.rows() {
            let xr = x.row(b);
            let yr = y.row_mut(b);
            for (j, kind) in self.kinds.iter().enumerate() {
                let sel = plan.selected(j);
                let hit = match kind {
                    NodeKind::Conj => sel.iter().all(|&i| xr[i as usize] > 0.5),
                    NodeKind::Disj => sel.iter().any(|&i| xr[i as usize] > 0.5),
                };
                yr[j] = if hit { 1.0 } else { 0.0 };
            }
        }
    }

    /// Continuous forward into a caller-owned buffer, reading the weights
    /// through a pre-transposed pack.
    ///
    /// Bit-identical to [`Self::forward_soft`], restructured for
    /// instruction-level parallelism: each node's soft product is a serial
    /// FP multiply chain (`p *= …` depends on the previous multiply), so
    /// single-node evaluation is latency-bound. Nodes are therefore
    /// processed eight at a time — eight *independent* chains keep the
    /// multiplier pipeline full — while each chain still multiplies its
    /// factors in the same k-ascending order as the naive loop.
    ///
    /// `wt` must be this layer's weight matrix packed column-major
    /// (`wt.col(i)` holds every node's weight for input `i`, contiguous),
    /// so the eight chains advance on one contiguous load per input
    /// column — the layout the vectorizer needs. Two further identities
    /// keep the blocked lanes exact:
    /// * terms with `w_i == 0` contribute a factor of exactly `1.0`
    ///   (`1 − 0·(1−x) = 1` and `1 − 0·x = 1`), and `p × 1.0 == p` in
    ///   IEEE-754 — so the lanes multiply unconditionally where the scalar
    ///   loop skips;
    /// * hoisting `1 − x_i` out of the eight lanes reuses the identical
    ///   subtraction the scalar loop performs per term.
    ///
    /// # Panics
    /// Panics if `x`'s width or `wt`'s shape disagree with the layer.
    pub fn forward_soft_packed_into(&self, x: &Matrix, wt: &PackedRhs, y: &mut Matrix) {
        assert_eq!(x.cols(), self.in_dim, "input width mismatch");
        assert_eq!(wt.rows(), self.n_nodes(), "packed weight rows mismatch");
        assert_eq!(wt.cols(), self.in_dim, "packed weight cols mismatch");
        y.resize(x.rows(), self.n_nodes());
        let n = self.n_nodes();
        let in_dim = self.in_dim;
        for b in 0..x.rows() {
            let xr = &x.row(b)[..in_dim];
            let yr = y.row_mut(b);
            let mut s = 0;
            while s < n {
                let kind = self.kinds[s];
                let mut e = s + 1;
                while e < n && self.kinds[e] == kind {
                    e += 1;
                }
                let mut j = s;
                while j + 8 <= e {
                    let mut p = [1.0f32; 8];
                    match kind {
                        NodeKind::Conj => {
                            for i in 0..in_dim {
                                let u = 1.0 - xr[i];
                                let w = &wt.col(i)[j..j + 8];
                                for l in 0..8 {
                                    p[l] *= 1.0 - w[l] * u;
                                }
                            }
                            yr[j..j + 8].copy_from_slice(&p);
                        }
                        NodeKind::Disj => {
                            for i in 0..in_dim {
                                let xi = xr[i];
                                let w = &wt.col(i)[j..j + 8];
                                for l in 0..8 {
                                    p[l] *= 1.0 - w[l] * xi;
                                }
                            }
                            for (dst, pk) in yr[j..j + 8].iter_mut().zip(p) {
                                *dst = 1.0 - pk;
                            }
                        }
                    }
                    j += 8;
                }
                for jj in j..e {
                    let wr = self.w.row(jj);
                    yr[jj] = match kind {
                        NodeKind::Conj => {
                            let mut p = 1.0f32;
                            for (xi, wi) in xr.iter().zip(wr) {
                                if *wi == 0.0 {
                                    continue;
                                }
                                p *= 1.0 - wi * (1.0 - xi);
                            }
                            p
                        }
                        NodeKind::Disj => {
                            let mut p = 1.0f32;
                            for (xi, wi) in xr.iter().zip(wr) {
                                if *wi == 0.0 {
                                    continue;
                                }
                                p *= 1.0 - wi * xi;
                            }
                            1.0 - p
                        }
                    };
                }
                s = e;
            }
        }
    }

    /// Backward through the soft forward, writing the input gradient into a
    /// caller-owned buffer (`dx` is zeroed and accumulated here; `dw` is
    /// accumulated into as passed, exactly like [`Self::backward`]).
    ///
    /// Bit-identical to [`Self::backward`]: the arithmetic is the naive
    /// loop's, element for element — same saturation guard, same
    /// per-element accumulation order into `dw` and `dx`. The only changes
    /// are structural: gradients land in caller-owned buffers, and the
    /// inner loop is branch-free straight-line FP over pre-sliced rows so
    /// the compiler can keep the (SIMD) divider busy. In particular there
    /// is deliberately *no* skip of `w_i == 0` terms here — the division
    /// skip would be exact (`y / 1.0 == y`), but a data-dependent branch in
    /// the middle of the division pipeline costs more than the divisions
    /// it saves, and it blocks vectorization of the whole loop.
    pub fn backward_into(
        &self,
        x: &Matrix,
        y: &Matrix,
        dy: &Matrix,
        dw: &mut Matrix,
        dx: &mut Matrix,
    ) {
        assert_eq!(dy.cols(), self.n_nodes());
        assert_eq!(dw.rows(), self.n_nodes());
        assert_eq!(dw.cols(), self.in_dim);
        dx.resize(x.rows(), self.in_dim);
        dx.fill_zero();
        let in_dim = self.in_dim;
        for b in 0..x.rows() {
            let xr = &x.row(b)[..in_dim];
            let yr = y.row(b);
            let dyr = dy.row(b);
            let dxr = &mut dx.row_mut(b)[..in_dim];
            for (j, kind) in self.kinds.iter().enumerate() {
                let g = dyr[j];
                if g == 0.0 {
                    continue;
                }
                let wr = &self.w.row(j)[..in_dim];
                let dwr = &mut dw.row_mut(j)[..in_dim];
                match kind {
                    NodeKind::Conj => {
                        let yj = yr[j];
                        for i in 0..in_dim {
                            let f = (1.0 - wr[i] * (1.0 - xr[i])).max(FACTOR_EPS);
                            let rest = yj / f;
                            dwr[i] += g * (-(1.0 - xr[i])) * rest;
                            dxr[i] += g * wr[i] * rest;
                        }
                    }
                    NodeKind::Disj => {
                        let p = 1.0 - yr[j];
                        for i in 0..in_dim {
                            let gi = (1.0 - wr[i] * xr[i]).max(FACTOR_EPS);
                            let rest = p / gi;
                            dwr[i] += g * xr[i] * rest;
                            dxr[i] += g * wr[i] * rest;
                        }
                    }
                }
            }
        }
    }

    /// Backward through the soft forward.
    ///
    /// Given the cached input `x`, cached soft output `y` and upstream
    /// gradient `dy`, accumulates weight gradients into `dw`
    /// (`n_nodes × in_dim`) and returns the input gradient
    /// (`batch × in_dim`).
    pub fn backward(&self, x: &Matrix, y: &Matrix, dy: &Matrix, dw: &mut Matrix) -> Matrix {
        assert_eq!(dy.cols(), self.n_nodes());
        assert_eq!(dw.rows(), self.n_nodes());
        assert_eq!(dw.cols(), self.in_dim);
        let mut dx = Matrix::zeros(x.rows(), self.in_dim);
        for b in 0..x.rows() {
            let xr = x.row(b);
            let yr = y.row(b);
            let dyr = dy.row(b);
            for (j, kind) in self.kinds.iter().enumerate() {
                let g = dyr[j];
                if g == 0.0 {
                    continue;
                }
                let wr = self.w.row(j);
                match kind {
                    NodeKind::Conj => {
                        // y = Π F_i with F_i = 1 - w_i (1 - x_i)
                        // ∂y/∂w_i = -(1 - x_i) · y / F_i
                        // ∂y/∂x_i = w_i · y / F_i
                        let yj = yr[j];
                        for i in 0..self.in_dim {
                            let f = (1.0 - wr[i] * (1.0 - xr[i])).max(FACTOR_EPS);
                            let rest = yj / f;
                            dw.add_at(j, i, g * (-(1.0 - xr[i])) * rest);
                            dx.add_at(b, i, g * wr[i] * rest);
                        }
                    }
                    NodeKind::Disj => {
                        // y = 1 - Π G_i with G_i = 1 - w_i x_i; P = 1 - y
                        // ∂y/∂w_i = x_i · P / G_i
                        // ∂y/∂x_i = w_i · P / G_i
                        let p = 1.0 - yr[j];
                        for i in 0..self.in_dim {
                            let gi = (1.0 - wr[i] * xr[i]).max(FACTOR_EPS);
                            let rest = p / gi;
                            dw.add_at(j, i, g * xr[i] * rest);
                            dx.add_at(b, i, g * wr[i] * rest);
                        }
                    }
                }
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctfl_rng::rngs::StdRng;
    use ctfl_rng::SeedableRng;

    fn tiny_layer(w: Vec<f32>, kinds: Vec<NodeKind>, in_dim: usize) -> LogicalLayer {
        let n = kinds.len();
        LogicalLayer { in_dim, kinds, w: Matrix::from_vec(n, in_dim, w) }
    }

    #[test]
    fn soft_activations_match_truth_tables_at_binary_points() {
        // One conj and one disj over 2 inputs, both weights 1.
        let layer = tiny_layer(
            vec![1.0, 1.0, 1.0, 1.0],
            vec![NodeKind::Conj, NodeKind::Disj],
            2,
        );
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let x = Matrix::from_vec(1, 2, vec![a, b]);
            let y = layer.forward_soft(&x);
            assert_eq!(y.get(0, 0), if a == 1.0 && b == 1.0 { 1.0 } else { 0.0 }, "AND({a},{b})");
            assert_eq!(y.get(0, 1), if a == 1.0 || b == 1.0 { 1.0 } else { 0.0 }, "OR({a},{b})");
            let yd = layer.forward_discrete(&x);
            assert_eq!(y.data(), yd.data(), "soft == discrete at binary corners");
        }
    }

    #[test]
    fn zero_weight_inputs_are_ignored() {
        let layer = tiny_layer(
            vec![1.0, 0.0, 0.0, 1.0],
            vec![NodeKind::Conj, NodeKind::Disj],
            2,
        );
        let x = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let y = layer.forward_discrete(&x);
        assert_eq!(y.get(0, 0), 1.0); // AND over {x0} = 1
        assert_eq!(y.get(0, 1), 0.0); // OR over {x1} = 0
    }

    #[test]
    fn empty_selection_conventions() {
        let layer = tiny_layer(
            vec![0.0, 0.0, 0.0, 0.0],
            vec![NodeKind::Conj, NodeKind::Disj],
            2,
        );
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = layer.forward_discrete(&x);
        assert_eq!(y.get(0, 0), 1.0, "empty AND = true");
        assert_eq!(y.get(0, 1), 0.0, "empty OR = false");
    }

    #[test]
    fn gradient_check_finite_differences() {
        // Check ∂y/∂w and ∂y/∂x against central finite differences at an
        // interior point (no saturation).
        let mut rng = StdRng::seed_from_u64(11);
        let mut layer = LogicalLayer::new(4, 4, &mut rng);
        // Keep weights away from 0/1 so clamping doesn't bite.
        for v in layer.w.data_mut() {
            *v = 0.3 + 0.4 * (*v);
        }
        let x = Matrix::from_vec(2, 4, vec![0.2, 0.8, 0.5, 0.7, 0.9, 0.1, 0.4, 0.6]);
        let y = layer.forward_soft(&x);
        // Upstream gradient: all ones.
        let dy = Matrix::from_vec(2, 4, vec![1.0; 8]);
        let mut dw = Matrix::zeros(4, 4);
        let dx = layer.backward(&x, &y, &dy, &mut dw);

        let eps = 1e-3f32;
        // Weight gradients.
        for j in 0..4 {
            for i in 0..4 {
                let orig = layer.w.get(j, i);
                layer.w.set(j, i, orig + eps);
                let yp: f32 = layer.forward_soft(&x).data().iter().sum();
                layer.w.set(j, i, orig - eps);
                let ym: f32 = layer.forward_soft(&x).data().iter().sum();
                layer.w.set(j, i, orig);
                let fd = (yp - ym) / (2.0 * eps);
                let an = dw.get(j, i);
                assert!((fd - an).abs() < 2e-2, "dw[{j}][{i}]: fd={fd} an={an}");
            }
        }
        // Input gradients.
        let mut x2 = x.clone();
        for b in 0..2 {
            for i in 0..4 {
                let orig = x2.get(b, i);
                x2.set(b, i, orig + eps);
                let yp: f32 = layer.forward_soft(&x2).data().iter().sum();
                x2.set(b, i, orig - eps);
                let ym: f32 = layer.forward_soft(&x2).data().iter().sum();
                x2.set(b, i, orig);
                let fd = (yp - ym) / (2.0 * eps);
                let an = dx.get(b, i);
                assert!((fd - an).abs() < 2e-2, "dx[{b}][{i}]: fd={fd} an={an}");
            }
        }
    }

    #[test]
    fn init_is_sparse_and_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = LogicalLayer::new(100, 10, &mut rng);
        assert!(layer.w.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let active: usize = (0..10).map(|j| layer.selected(j).len()).sum();
        // ~3 per node in expectation; allow generous slack.
        assert!(active > 5 && active < 100, "active = {active}");
        // Both kinds present.
        assert!(layer.kinds().contains(&NodeKind::Conj));
        assert!(layer.kinds().contains(&NodeKind::Disj));
    }

    #[test]
    fn selected_thresholds_at_half() {
        let layer = tiny_layer(vec![0.49, 0.51, 0.5, 0.9], vec![NodeKind::Conj, NodeKind::Disj], 2);
        assert_eq!(layer.selected(0), vec![1]);
        assert_eq!(layer.selected(1), vec![1]); // 0.5 is NOT > 0.5
    }

    mod properties {
        use super::*;
        use ctfl_testkit::prop::Gen;
        use ctfl_testkit::{check, prop_assert};

        fn binary_layer(g: &mut Gen, in_dim: usize, n_nodes: usize) -> LogicalLayer {
            let bits = g.vec(in_dim * n_nodes, Gen::bool);
            let w = Matrix::from_vec(
                n_nodes,
                in_dim,
                bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect(),
            );
            let kinds = (0..n_nodes)
                .map(|j| if j < n_nodes / 2 { NodeKind::Conj } else { NodeKind::Disj })
                .collect();
            LogicalLayer { in_dim, kinds, w }
        }

        /// With binary weights and binary inputs, Eq. 7's soft activations
        /// reduce exactly to AND/OR — so the soft and discrete forwards
        /// agree.
        #[test]
        fn soft_equals_discrete_at_binary_corners() {
            check(
                "soft_equals_discrete_at_binary_corners",
                128,
                |g| (binary_layer(g, 6, 4), g.vec(12, Gen::bool)),
                |(layer, x_bits)| {
                    let x = Matrix::from_vec(
                        2,
                        6,
                        x_bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect(),
                    );
                    let soft = layer.forward_soft(&x);
                    let disc = layer.forward_discrete(&x);
                    for (a, b) in soft.data().iter().zip(disc.data()) {
                        prop_assert!((a - b).abs() < 1e-6, "soft {a} != discrete {b}");
                    }
                    Ok(())
                },
            );
        }

        /// Soft outputs stay in [0, 1] for any inputs/weights in the unit
        /// box.
        #[test]
        fn soft_outputs_in_unit_interval() {
            check(
                "soft_outputs_in_unit_interval",
                128,
                |g| {
                    let weights = g.vec(24, |g| g.f64_in(0.0, 1.0) as f32);
                    let inputs = g.vec(12, |g| g.f64_in(0.0, 1.0) as f32);
                    (weights, inputs)
                },
                |(weights, inputs)| {
                    let layer = LogicalLayer {
                        in_dim: 6,
                        kinds: vec![NodeKind::Conj, NodeKind::Conj, NodeKind::Disj, NodeKind::Disj],
                        w: Matrix::from_vec(4, 6, weights.clone()),
                    };
                    let x = Matrix::from_vec(2, 6, inputs.clone());
                    let y = layer.forward_soft(&x);
                    for &v in y.data() {
                        prop_assert!((0.0..=1.0).contains(&v), "out of range: {v}");
                    }
                    Ok(())
                },
            );
        }

        /// Monotonicity: raising a conjunction input can only raise the
        /// node output; same for disjunction.
        #[test]
        fn soft_forward_is_monotone_in_inputs() {
            check(
                "soft_forward_is_monotone_in_inputs",
                128,
                |g| {
                    let weights = g.vec(6, |g| g.f64_in(0.0, 1.0) as f32);
                    let base = g.vec(6, |g| g.f64_in(0.0, 0.8) as f32);
                    (weights, base, g.usize_in(0, 5))
                },
                |(weights, base, bump_idx)| {
                    for kind in [NodeKind::Conj, NodeKind::Disj] {
                        let layer = LogicalLayer {
                            in_dim: 6,
                            kinds: vec![kind],
                            w: Matrix::from_vec(1, 6, weights.clone()),
                        };
                        let x0 = Matrix::from_vec(1, 6, base.clone());
                        let mut bumped = base.clone();
                        bumped[*bump_idx] += 0.2;
                        let x1 = Matrix::from_vec(1, 6, bumped);
                        let y0 = layer.forward_soft(&x0).get(0, 0);
                        let y1 = layer.forward_soft(&x1).get(0, 0);
                        prop_assert!(y1 >= y0 - 1e-6, "{kind:?}: {y0} -> {y1}");
                    }
                    Ok(())
                },
            );
        }
    }
}
