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
//!
//! Every fast kernel here is bit-identical to its naive oracle
//! ([`LogicalLayer::forward_soft`], [`LogicalLayer::forward_discrete`],
//! [`LogicalLayer::backward`]). Three kinds of rearrangement keep that
//! exact:
//! 1. instruction-level parallelism across *independent* chains, each
//!    chain keeping the naive k-ascending order;
//! 2. removing data-dependent branches that are IEEE-754 no-ops;
//! 3. skipping terms that a *checked* input property makes exactly `×1.0`
//!    or `±0`. The literal kernels of the first layer
//!    ([`LiteralBatch`], [`LiteralPlan`]) rely on three checks: every
//!    input is bit-exactly `+0.0` or `1.0` (checked once per training call
//!    over the whole shard), every weight lies in `[0, 1]`, and (for the
//!    backward) every upstream gradient is finite (both once per step).
//!    Under them a Conj factor is exactly `1.0` at `x = 1` and a Disj
//!    factor at `x = 0`, and each skipped gradient term is `±0`, which
//!    cannot change a `+0.0`-seeded sum. When a check fails, the step (or,
//!    for a shard that is not 0/1, the whole call) runs the general kernels
//!    instead.

// The hot kernels below index multiple parallel slices by position; the
// iterator forms clippy suggests obscure the lockstep row/column arithmetic.
#![allow(clippy::needless_range_loop)]

use std::ops::Range;

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

/// The bit pattern of `1.0f32`.
const ONE_BITS: u32 = 0x3F80_0000;

/// Node lanes one register-resident block of product chains covers in the
/// literal soft forward: enough independent chains to keep the multiplier
/// busy, few enough to stay in registers.
const CHAIN_LANES: usize = 32;

/// Packs `pred` over up to 64 values into one word, bit `t` for value `t`.
#[inline]
fn pack_bits(values: &[f32], pred: impl Fn(f32) -> bool) -> u64 {
    match <&[f32; 64]>::try_from(values) {
        // A full word unrolls into four independent 16-bit OR chains.
        Ok(full) => {
            let mut acc = [0u64; 4];
            for t in 0..16 {
                for (a, acc) in acc.iter_mut().enumerate() {
                    *acc |= u64::from(pred(full[16 * a + t])) << t;
                }
            }
            acc[0] | acc[1] << 16 | acc[2] << 32 | acc[3] << 48
        }
        Err(_) => values.iter().enumerate().fold(0, |word, (t, &v)| word | u64::from(pred(v)) << t),
    }
}

/// A batch of 0/1 inputs as one bit set per row: bit `i` of row `b` is set
/// when `x[b][i] == 1.0`. The input the first layer's literal kernels
/// read: built once per training call over a whole shard, and gathered
/// from it per step.
#[derive(Debug, Clone, Default)]
pub struct LiteralBatch {
    rows: usize,
    /// Inputs per row.
    width: usize,
    /// `u64` words per row.
    words: usize,
    /// `rows × words` one-bits.
    ones: Vec<u64>,
}

impl LiteralBatch {
    /// Rebuilds the bit sets from `x`, reusing the allocation. Returns
    /// whether every value of `x` is bit-exactly `+0.0` or `1.0`; when it
    /// is not, the bit sets are meaningless and the literal kernels must
    /// not run.
    pub fn rebuild(&mut self, x: &Matrix) -> bool {
        self.rows = x.rows();
        self.width = x.cols();
        self.words = x.cols().div_ceil(64);
        self.ones.clear();
        let exact = x.data().iter().fold(true, |ok, v| {
            let bits = v.to_bits();
            ok & ((bits == 0) | (bits == ONE_BITS))
        });
        if exact {
            for b in 0..x.rows() {
                self.ones.extend(x.row(b).chunks(64).map(|chunk| pack_bits(chunk, |v| v == 1.0)));
            }
        }
        exact
    }

    /// Copies the bit sets of rows `rows` of `src` (built by
    /// [`Self::rebuild`] on a matrix that passed its check), in order:
    /// those of the matrix that selects the same rows.
    pub(crate) fn gather(&mut self, src: &LiteralBatch, rows: &[usize]) {
        self.rows = rows.len();
        self.width = src.width;
        self.words = src.words;
        self.ones.clear();
        for &r in rows {
            self.ones.extend_from_slice(src.ones(r));
        }
    }

    /// The one-bits of row `b`.
    #[inline]
    fn ones(&self, b: usize) -> &[u64] {
        &self.ones[b * self.words..(b + 1) * self.words]
    }

    /// Calls `f(i)` for every input `i` of row `b` that is `1.0` (`one`)
    /// or `0.0` (`!one`), in ascending order.
    #[inline]
    fn for_each(&self, b: usize, one: bool, mut f: impl FnMut(usize)) {
        for (w, &word) in self.ones(b).iter().enumerate() {
            let mut word = if one { word } else { !word };
            let tail = self.width - w * 64;
            if tail < 64 {
                word &= (1u64 << tail) - 1;
            }
            while word != 0 {
                f(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
    }
}

/// The first layer's per-step weight state for [`LiteralBatch`] inputs:
/// each node's selected-literal mask (`w > 0.5`) and the complements
/// `(1 − w)ᵀ`, stored node-contiguous (`comp[i · n_nodes + j] = 1 − w[j][i]`)
/// so the product chains of one node kind advance together on one
/// contiguous load per literal.
#[derive(Debug, Clone, Default)]
pub struct LiteralPlan {
    n_nodes: usize,
    /// `u64` words per mask.
    words: usize,
    /// `n_nodes × words` selected-literal masks.
    masks: Vec<u64>,
    /// `in_dim × n_nodes` complements `1 − w`, transposed.
    comp: Vec<f32>,
}

impl LiteralPlan {
    /// The complements `1 − w[j][i]` of input `i` for the nodes in `nodes`.
    #[inline]
    fn comp(&self, i: usize, nodes: Range<usize>) -> &[f32] {
        &self.comp[i * self.n_nodes + nodes.start..i * self.n_nodes + nodes.end]
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
        let in_dim = self.in_dim;
        for b in 0..x.rows() {
            let xr = &x.row(b)[..in_dim];
            let yr = y.row_mut(b);
            for (kind, nodes) in self.runs() {
                let (s, e) = (nodes.start, nodes.end);
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

    /// Maximal runs of consecutive nodes of one kind, in node order.
    fn runs(&self) -> impl Iterator<Item = (NodeKind, Range<usize>)> + '_ {
        let mut s = 0;
        std::iter::from_fn(move || {
            let kind = *self.kinds.get(s)?;
            let e = s + self.kinds[s..].iter().take_while(|&&k| k == kind).count();
            let run = s..e;
            s = e;
            Some((kind, run))
        })
    }

    /// Rebuilds `plan` from the current weights, reusing its allocations.
    /// Returns whether every weight lies in `[0, 1]` (where
    /// [`crate::optim::ProjectedSgd`] projects them); when one does not,
    /// the literal soft kernels must not run.
    pub fn plan_literals_into(&self, plan: &mut LiteralPlan) -> bool {
        let (n, in_dim) = (self.n_nodes(), self.in_dim);
        plan.n_nodes = n;
        plan.words = in_dim.div_ceil(64);
        plan.masks.clear();
        for j in 0..n {
            plan.masks.extend(self.w.row(j).chunks(64).map(|chunk| pack_bits(chunk, |w| w > 0.5)));
        }
        let w = self.w.data();
        plan.comp.resize(in_dim * n, 0.0);
        for (i, comp) in plan.comp.chunks_exact_mut(n).enumerate() {
            for (j, c) in comp.iter_mut().enumerate() {
                *c = 1.0 - w[j * in_dim + i];
            }
        }
        w.iter().fold(true, |ok, w| ok & (0.0..=1.0).contains(w))
    }

    /// Asserts that `lits` and `plan` were built for this layer.
    fn check_literal_shapes(&self, lits: &LiteralBatch, plan: &LiteralPlan) {
        assert_eq!(lits.width, self.in_dim, "input width mismatch");
        assert_eq!(plan.n_nodes, self.n_nodes(), "plan node count mismatch");
        assert_eq!(plan.comp.len(), self.in_dim * self.n_nodes(), "plan input width mismatch");
    }

    /// Discrete forward on 0/1 inputs, writing into a caller-owned buffer:
    /// a Conj node fires when its selected-literal mask is a subset of the
    /// row's one-bits, a Disj node when the two intersect. Bit-identical to
    /// [`Self::forward_discrete`] whenever [`LiteralBatch::rebuild`]
    /// accepted the batch (then `x > 0.5` is exactly the row's bit), for
    /// any weights.
    ///
    /// # Panics
    /// Panics if `lits` or `plan` disagree with the layer's shape.
    pub fn forward_discrete_literals_into(
        &self,
        lits: &LiteralBatch,
        plan: &LiteralPlan,
        y: &mut Matrix,
    ) {
        self.check_literal_shapes(lits, plan);
        y.resize(lits.rows, self.n_nodes());
        for b in 0..lits.rows {
            let ones = lits.ones(b);
            let yr = y.row_mut(b);
            let masks = plan.masks.chunks_exact(plan.words);
            for ((kind, mask), yj) in self.kinds.iter().zip(masks).zip(yr) {
                // Selected literals that are 0 (Conj) or 1 (Disj).
                let hits =
                    |flip: u64| mask.iter().zip(ones).fold(0, |a, (&m, &o)| a | m & (o ^ flip));
                let fires = match kind {
                    NodeKind::Conj => hits(!0) == 0,
                    NodeKind::Disj => hits(0) != 0,
                };
                *yj = if fires { 1.0 } else { 0.0 };
            }
        }
    }

    /// Soft forward on 0/1 inputs, writing into a caller-owned buffer.
    ///
    /// Bit-identical to [`Self::forward_soft`] when `lits` and `plan` passed
    /// their checks. At `x ∈ {0, 1}` a Conj factor `1 − w(1 − x)` is exactly
    /// `1.0` at `x = 1` and exactly `1 − w` at `x = 0`; a Disj factor
    /// `1 − wx` is `1.0` at `x = 0` and `1 − w` at `x = 1` (`w` finite).
    /// Since `p × 1.0 == p`, each node's product is the product of `1 − w`
    /// over the row's zero literals (Conj) or one literals (Disj), taken in
    /// the same ascending order. The chains of one node run advance
    /// together, one contiguous complement load per literal.
    ///
    /// # Panics
    /// Panics if `lits` or `plan` disagree with the layer's shape.
    pub fn forward_soft_literals_into(
        &self,
        lits: &LiteralBatch,
        plan: &LiteralPlan,
        y: &mut Matrix,
    ) {
        self.check_literal_shapes(lits, plan);
        y.resize(lits.rows, self.n_nodes());
        for b in 0..lits.rows {
            let yr = y.row_mut(b);
            for (kind, nodes) in self.runs() {
                let one = kind == NodeKind::Disj;
                // Full blocks keep their chains in registers; the tail
                // multiplies in place.
                let mut j = nodes.start;
                while j + CHAIN_LANES <= nodes.end {
                    let mut p = [1.0f32; CHAIN_LANES];
                    lits.for_each(b, one, |i| {
                        let c: &[f32; CHAIN_LANES] =
                            plan.comp(i, j..j + CHAIN_LANES).try_into().expect("full block");
                        for l in 0..CHAIN_LANES {
                            p[l] *= c[l];
                        }
                    });
                    yr[j..j + CHAIN_LANES].copy_from_slice(&p);
                    j += CHAIN_LANES;
                }
                let tail = &mut yr[j..nodes.end];
                tail.fill(1.0);
                lits.for_each(b, one, |i| {
                    for (pj, &c) in tail.iter_mut().zip(plan.comp(i, j..nodes.end)) {
                        *pj *= c;
                    }
                });
                if one {
                    for pj in &mut yr[nodes] {
                        *pj = 1.0 - *pj;
                    }
                }
            }
        }
    }

    /// Weight gradient of the soft forward on 0/1 inputs. `dw` is
    /// **overwritten** with the batch's gradient; `dwt` is scratch that
    /// holds it transposed (`in_dim × n_nodes`) while the rows accumulate.
    /// No input gradient is computed: this kernel serves the first layer,
    /// whose inputs are not parameters.
    ///
    /// Bit-identical to [`Self::backward`]'s `dw` on a zero-filled `dw`,
    /// provided every value of `dy` is finite and `lits` and `plan` passed
    /// their checks. Each term the naive loop adds at a literal this kernel
    /// skips (Conj at `x = 1`, Disj at `x = 0`) is `g·(−0.0)·y` or `g·0.0·p`
    /// — `±0` for finite `g`, `y` and `p` — and adding `±0` never changes a
    /// sum seeded at `+0.0`, which can only be `+0.0` or nonzero. The same
    /// holds for the naive `g == 0` skip, which this kernel does not take.
    /// The kept terms are `(g·−1)·(y / max(1 − w, ε))` at `x = 0` and
    /// `(g·1)·(p / max(1 − w, ε))` at `x = 1`, with `p = 1 − y`: the naive
    /// operations exactly, added per element in the same row order.
    ///
    /// # Panics
    /// Panics if `lits`, `plan`, `y` or `dy` disagree with the layer's
    /// shape.
    pub fn backward_literals_into(
        &self,
        lits: &LiteralBatch,
        plan: &LiteralPlan,
        y: &Matrix,
        dy: &Matrix,
        dwt: &mut Matrix,
        dw: &mut Matrix,
    ) {
        self.check_literal_shapes(lits, plan);
        let n = self.n_nodes();
        assert_eq!((y.rows(), y.cols()), (lits.rows, n), "output shape mismatch");
        assert_eq!((dy.rows(), dy.cols()), (lits.rows, n), "gradient shape mismatch");
        dwt.resize(self.in_dim, n);
        dwt.fill_zero();
        for b in 0..lits.rows {
            let yr = y.row(b);
            let gr = dy.row(b);
            for (kind, nodes) in self.runs() {
                let (yk, gk) = (&yr[nodes.clone()], &gr[nodes.clone()]);
                lits.for_each(b, kind == NodeKind::Disj, |i| {
                    let lanes = dwt.row_mut(i)[nodes.clone()]
                        .iter_mut()
                        .zip(plan.comp(i, nodes.clone()))
                        .zip(gk.iter().zip(yk));
                    // `-g` and `g` are `g·(−1.0)` and `g·1.0` bit for bit.
                    match kind {
                        NodeKind::Conj => {
                            for ((d, &c), (&g, &yj)) in lanes {
                                *d += -g * (yj / c.max(FACTOR_EPS));
                            }
                        }
                        NodeKind::Disj => {
                            for ((d, &c), (&g, &yj)) in lanes {
                                *d += g * ((1.0 - yj) / c.max(FACTOR_EPS));
                            }
                        }
                    }
                });
            }
        }
        dw.resize(n, self.in_dim);
        for j in 0..n {
            for (i, d) in dw.row_mut(j).iter_mut().enumerate() {
                *d = dwt.get(i, j);
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
    fn gathered_literal_rows_equal_a_rebuild_of_the_selected_rows() {
        use ctfl_rng::Rng;
        let mut rng = StdRng::seed_from_u64(4);
        for width in [1, 63, 64, 65, 168, 200] {
            let mut x = Matrix::zeros(40, width);
            for v in x.data_mut() {
                *v = if rng.gen_bool(0.4) { 1.0 } else { 0.0 };
            }
            let mut shard = LiteralBatch::default();
            assert!(shard.rebuild(&x));
            let rows: Vec<usize> = (0..25).map(|_| rng.gen_range(0..40usize)).collect();
            let mut gathered = LiteralBatch::default();
            gathered.gather(&shard, &rows);
            let mut rebuilt = LiteralBatch::default();
            assert!(rebuilt.rebuild(&x.select_rows(&rows)));
            let fields = |l: &LiteralBatch| (l.rows, l.width, l.words, l.ones.clone());
            assert_eq!(fields(&gathered), fields(&rebuilt), "width {width}");
        }
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
