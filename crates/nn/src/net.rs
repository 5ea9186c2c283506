//! The logical neural network (paper Figure 3) and its gradient-grafting
//! training loop.
//!
//! Architecture: encoded literals → one or more [`LogicalLayer`]s (each
//! receiving the previous layer's output concatenated with the raw literals
//! — the paper's skip connections) → a [`LinearHead`] over the concatenated
//! outputs of *all* logical layers (optionally plus the literals themselves,
//! yielding single-predicate rules).
//!
//! **Gradient grafting** (paper Section V): each step forwards the
//! *binarized* model to obtain `Ȳ`, evaluates `∂L/∂Ȳ` there, and
//! back-propagates that gradient through the *continuous* model's Jacobian:
//! `θ^{t+1} = θ^t − η · ∂L(Ȳ)/∂Ȳ · ∂Y/∂θ`. Logical weights then take a
//! projected-SGD step (staying in `[0,1]`); the linear head takes an Adam
//! step and is never binarized.

use ctfl_core::data::{Dataset, DatasetView, FeatureSchema};
use ctfl_core::error::{CoreError, Result};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::seq::SliceRandom;
use ctfl_rng::SeedableRng;
use std::sync::Arc;

use crate::encoding::{EncodedData, Encoder};
use crate::linear::LinearHead;
use crate::logical::{DiscretePlan, LiteralBatch, LiteralPlan, LogicalLayer};
use crate::loss::{accuracy, argmax_tie_high, cross_entropy, cross_entropy_grad, cross_entropy_grad_into};
use crate::matrix::{Matrix, PackedRhs};
use crate::optim::{Adam, ProjectedSgd};

/// Hyper-parameters of the logical network.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalNetConfig {
    /// Discretization bounds per continuous feature (`τ_d`; the layer emits
    /// `2·τ_d` literals per feature). Paper default: 10.
    pub tau_d: usize,
    /// Logical layer widths. Paper default: one layer of 64–512 nodes.
    pub layer_sizes: Vec<usize>,
    /// Also feed raw literals into the head (single-predicate rules).
    pub literal_skip: bool,
    /// Learning rate for logical weights (projected SGD).
    pub lr_logical: f32,
    /// Learning rate for the linear head (Adam).
    pub lr_linear: f32,
    /// SGD momentum for logical weights.
    pub momentum: f32,
    /// L1 pull on logical weights (sparser, more interpretable rules).
    pub l1: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// RNG seed (encoder bounds, init, shuffling).
    pub seed: u64,
}

impl Default for LogicalNetConfig {
    fn default() -> Self {
        LogicalNetConfig {
            tau_d: 10,
            layer_sizes: vec![64],
            literal_skip: true,
            lr_logical: 0.05,
            lr_linear: 0.01,
            momentum: 0.9,
            l1: 1e-4,
            epochs: 40,
            batch_size: 64,
            seed: 0xC7F1,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Epochs executed.
    pub epochs: usize,
    /// Best discrete-model training accuracy observed (the kept snapshot).
    pub best_accuracy: f64,
    /// Cross-entropy of the discrete model at the final epoch.
    pub final_loss: f32,
}

/// The trainable logical neural network.
#[derive(Debug)]
pub struct LogicalNet {
    schema: Arc<FeatureSchema>,
    n_classes: usize,
    encoder: Encoder,
    layers: Vec<LogicalLayer>,
    head: LinearHead,
    config: LogicalNetConfig,
    rng: StdRng,
    /// Persistent optimizer state for [`LogicalNet::train_local`] — a
    /// federated client keeps its momentum/Adam moments across rounds
    /// (resetting them every round cripples convergence; FedAvg averages
    /// parameters only, so local state is each client's own business).
    local_optim: Option<OptimState>,
    /// Training scratch buffers, kept across `train`/`train_local` calls so
    /// steady-state batches allocate nothing. Boxed: the struct is large and
    /// most `LogicalNet`s (evaluation copies) never train.
    workspace: Option<Box<TrainWorkspace>>,
}

impl Clone for LogicalNet {
    fn clone(&self) -> Self {
        LogicalNet {
            schema: Arc::clone(&self.schema),
            n_classes: self.n_classes,
            encoder: self.encoder.clone(),
            layers: self.layers.clone(),
            head: self.head.clone(),
            config: self.config.clone(),
            rng: self.rng.clone(),
            local_optim: self.local_optim.clone(),
            // Scratch is rebuilt lazily on the first training step; cloning
            // dead buffers (and a possibly stale snapshot) would only cost.
            workspace: None,
        }
    }
}

#[derive(Debug, Clone)]
struct OptimState {
    sgds: Vec<ProjectedSgd>,
    adam_v: Adam,
    adam_b: Adam,
}

struct ForwardCache {
    /// Input fed to each layer (after skip concatenation).
    layer_inputs: Vec<Matrix>,
    /// Output of each layer.
    layer_outputs: Vec<Matrix>,
    /// Concatenated rule-activation matrix (head input).
    rules: Matrix,
}

/// Buffers for one forward pass (discrete or continuous). All matrices are
/// resized in place and fully overwritten each pass.
#[derive(Debug, Clone, Default)]
struct PassBuffers {
    /// Skip-concatenated input per layer `k >= 1` (layer 0 reads the batch
    /// matrix directly).
    inputs: Vec<Matrix>,
    /// Output per layer.
    outputs: Vec<Matrix>,
    /// Concatenated rule activations (head input).
    rules: Matrix,
}

impl PassBuffers {
    fn ensure(&mut self, n_layers: usize) {
        self.inputs.resize_with(n_layers.saturating_sub(1), Matrix::default);
        self.outputs.resize_with(n_layers, Matrix::default);
    }
}

/// Reusable training scratch: batch staging, per-layer forward/backward
/// intermediates, packed head weights, discrete execution plans, and the
/// best-epoch snapshot slot. Once warm, a training step touches no
/// allocator.
#[derive(Debug, Clone, Default)]
struct TrainWorkspace {
    /// Gathered minibatch rows.
    x: Matrix,
    /// Gathered minibatch labels.
    labels: Vec<u32>,
    /// Shuffled row order for the epoch loop.
    order: Vec<usize>,
    /// Per-layer CSR plans over the binarized weights (rebuilt per step;
    /// layer 0's only when the step cannot take the literal path).
    plans: Vec<DiscretePlan>,
    /// Per-layer weights packed transposed for the continuous forward
    /// (repacked per step; layer 0's only when the step cannot take the
    /// literal path).
    packed_layers: Vec<PackedRhs>,
    /// The batch as per-row literal bit sets (rebuilt per step).
    literals: LiteralBatch,
    /// Layer 0's selected-literal masks and `(1 − w)ᵀ` (rebuilt per step).
    literal_plan: LiteralPlan,
    /// Head weights packed transposed (repacked per step).
    packed_head: PackedRhs,
    /// Discrete-pass intermediates.
    disc: PassBuffers,
    /// Continuous-pass intermediates.
    cont: PassBuffers,
    logits: Matrix,
    dlogits: Matrix,
    /// Per-row softmax scratch for the loss gradient.
    exp_scratch: Vec<f32>,
    dv: Matrix,
    dbias: Vec<f32>,
    dr: Matrix,
    /// Per-layer weight gradients.
    dws: Vec<Matrix>,
    /// Output gradient of the layer currently being back-propagated.
    dy: Matrix,
    /// Input gradient of the layer back-propagated *last* iteration (its
    /// leading columns are the carry into the layer below). Layer 0's
    /// literal backward uses it for its transposed weight gradient.
    dx: Matrix,
    /// Best-epoch parameter snapshot, written with `clone_from` so the
    /// improving-epoch path stops allocating.
    snapshot: Option<(Vec<LogicalLayer>, LinearHead)>,
}

/// The two forward passes a training step runs.
#[derive(Clone, Copy)]
enum Pass<'a> {
    /// Binarized weights and boolean logic, through per-layer CSR plans.
    Discrete(&'a [DiscretePlan]),
    /// Soft logic, through per-layer transposed weight packs.
    Soft(&'a [PackedRhs]),
}

/// Forward pass through `layers` into `buf`, reading the batch from `x`,
/// or layer 0's input from `literals` when the step passed the literal
/// checks. Bit-identical to [`LogicalNet::forward`]: the per-layer kernels
/// replay the naive summation order exactly and the skip/rule concatenation
/// copies the same slices in the same order.
fn forward_ws(
    layers: &[LogicalLayer],
    literal_skip: bool,
    x: &Matrix,
    pass: Pass<'_>,
    literals: Option<(&LiteralBatch, &LiteralPlan)>,
    buf: &mut PassBuffers,
) {
    let batch = x.rows();
    buf.ensure(layers.len());
    for k in 0..layers.len() {
        let (prior, rest) = buf.outputs.split_at_mut(k);
        let out = &mut rest[0];
        let input = if k == 0 {
            x
        } else {
            // Skip connection: previous output ++ literals.
            let prev = &prior[k - 1];
            let input = &mut buf.inputs[k - 1];
            input.resize(batch, prev.cols() + x.cols());
            for b in 0..batch {
                let row = input.row_mut(b);
                row[..prev.cols()].copy_from_slice(prev.row(b));
                row[prev.cols()..].copy_from_slice(x.row(b));
            }
            &*input
        };
        match (pass, literals.filter(|_| k == 0)) {
            (Pass::Discrete(_), Some((lits, plan))) => {
                layers[0].forward_discrete_literals_into(lits, plan, out);
            }
            (Pass::Soft(_), Some((lits, plan))) => {
                layers[0].forward_soft_literals_into(lits, plan, out);
            }
            (Pass::Discrete(plans), None) => {
                layers[k].forward_discrete_planned_into(input, &plans[k], out);
            }
            (Pass::Soft(packs), None) => layers[k].forward_soft_packed_into(input, &packs[k], out),
        }
    }
    // Rule vector: all layer outputs (++ literals if skip).
    let mut width: usize = buf.outputs.iter().map(Matrix::cols).sum();
    if literal_skip {
        width += x.cols();
    }
    buf.rules.resize(batch, width);
    for b in 0..batch {
        let row = buf.rules.row_mut(b);
        let mut off = 0;
        for out in &buf.outputs {
            row[off..off + out.cols()].copy_from_slice(out.row(b));
            off += out.cols();
        }
        if literal_skip {
            row[off..].copy_from_slice(x.row(b));
        }
    }
}

impl LogicalNet {
    /// Builds a network for `schema` with `n_classes` output classes.
    pub fn new(
        schema: Arc<FeatureSchema>,
        n_classes: usize,
        config: LogicalNetConfig,
    ) -> Result<Self> {
        if n_classes < 2 {
            return Err(CoreError::InvalidParameter {
                name: "n_classes",
                message: format!("need at least 2 classes, got {n_classes}"),
            });
        }
        if config.layer_sizes.is_empty() || config.layer_sizes.iter().any(|&s| s < 2) {
            return Err(CoreError::InvalidParameter {
                name: "layer_sizes",
                message: "need at least one layer, each with >= 2 nodes".into(),
            });
        }
        if config.batch_size == 0 {
            return Err(CoreError::InvalidParameter {
                name: "batch_size",
                message: "must be >= 1".into(),
            });
        }
        // The optimizers assert these; reject them here as typed errors
        // instead of panicking at the first training step.
        for (name, lr) in [("lr_logical", config.lr_logical), ("lr_linear", config.lr_linear)] {
            if lr.is_nan() || lr <= 0.0 {
                return Err(CoreError::InvalidParameter {
                    name,
                    message: format!("must be positive, got {lr}"),
                });
            }
        }
        if !(0.0..1.0).contains(&config.momentum) {
            return Err(CoreError::InvalidParameter {
                name: "momentum",
                message: format!("must lie in [0, 1), got {}", config.momentum),
            });
        }
        if config.l1.is_nan() || config.l1 < 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "l1",
                message: format!("must be non-negative, got {}", config.l1),
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let encoder = Encoder::new(&schema, config.tau_d, &mut rng)?;
        let n_literals = encoder.width();
        let mut layers = Vec::with_capacity(config.layer_sizes.len());
        let mut prev = n_literals;
        for (k, &size) in config.layer_sizes.iter().enumerate() {
            let in_dim = if k == 0 { n_literals } else { prev + n_literals };
            layers.push(LogicalLayer::new(in_dim, size, &mut rng));
            prev = size;
        }
        let n_rules: usize = config.layer_sizes.iter().sum::<usize>()
            + if config.literal_skip { n_literals } else { 0 };
        let head = LinearHead::new(n_rules, n_classes, &mut rng);
        Ok(LogicalNet {
            schema,
            n_classes,
            encoder,
            layers,
            head,
            config,
            rng,
            local_optim: None,
            workspace: None,
        })
    }

    /// Builds the encoder a [`LogicalNet::new`] call with this `schema` and
    /// `config` would build, without constructing the network. Replays the
    /// same RNG stream (`seed → Encoder::new` is the first draw), so the
    /// literal bounds are identical — callers can encode shards once and
    /// share them across every net constructed with the same seed.
    pub fn encoder_for(schema: &FeatureSchema, config: &LogicalNetConfig) -> Result<Encoder> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        Encoder::new(schema, config.tau_d, &mut rng)
    }

    /// The feature schema.
    pub fn schema(&self) -> &Arc<FeatureSchema> {
        &self.schema
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The input encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// The logical layers.
    pub fn layers(&self) -> &[LogicalLayer] {
        &self.layers
    }

    /// The linear head.
    pub fn head(&self) -> &LinearHead {
        &self.head
    }

    /// The configuration.
    pub fn config(&self) -> &LogicalNetConfig {
        &self.config
    }

    fn forward(&self, x: &Matrix, discrete: bool) -> ForwardCache {
        let batch = x.rows();
        let mut layer_inputs = Vec::with_capacity(self.layers.len());
        let mut layer_outputs: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        for (k, layer) in self.layers.iter().enumerate() {
            let input = if k == 0 {
                x.clone()
            } else {
                // Skip connection: previous output ++ literals.
                let prev = &layer_outputs[k - 1];
                let mut m = Matrix::zeros(batch, prev.cols() + x.cols());
                for b in 0..batch {
                    let row = m.row_mut(b);
                    row[..prev.cols()].copy_from_slice(prev.row(b));
                    row[prev.cols()..].copy_from_slice(x.row(b));
                }
                m
            };
            let output =
                if discrete { layer.forward_discrete(&input) } else { layer.forward_soft(&input) };
            layer_inputs.push(input);
            layer_outputs.push(output);
        }
        // Rule vector: all layer outputs (++ literals if skip).
        let mut width: usize = layer_outputs.iter().map(Matrix::cols).sum();
        if self.config.literal_skip {
            width += x.cols();
        }
        let mut rules = Matrix::zeros(batch, width);
        for b in 0..batch {
            let row = rules.row_mut(b);
            let mut off = 0;
            for out in &layer_outputs {
                row[off..off + out.cols()].copy_from_slice(out.row(b));
                off += out.cols();
            }
            if self.config.literal_skip {
                row[off..].copy_from_slice(x.row(b));
            }
        }
        ForwardCache { layer_inputs, layer_outputs, rules }
    }

    /// Discrete-model logits for an encoded batch.
    pub fn logits_discrete(&self, x: &Matrix) -> Matrix {
        self.head.forward(&self.forward(x, true).rules)
    }

    /// Discrete-model predictions for an encoded batch.
    pub fn predict_encoded(&self, x: &Matrix) -> Vec<usize> {
        let logits = self.logits_discrete(x);
        (0..logits.rows()).map(|b| argmax_tie_high(logits.row(b))).collect()
    }

    /// Discrete-model accuracy on an encoded batch.
    pub fn accuracy_encoded(&self, data: &EncodedData) -> f64 {
        accuracy(&self.logits_discrete(&data.x), &data.labels)
    }

    /// Encodes a dataset with this network's encoder.
    pub fn encode(&self, data: &Dataset) -> Result<EncodedData> {
        self.encoder.encode(data)
    }

    /// Encodes a zero-copy dataset view with this network's encoder.
    pub fn encode_view(&self, view: &DatasetView<'_>) -> Result<EncodedData> {
        self.encoder.encode_view(view)
    }

    /// One gradient-grafting step reading the batch from `ws.x`/`ws.labels`,
    /// with every intermediate living in `ws`. Returns the discrete
    /// cross-entropy before the step.
    ///
    /// Bit-identical to [`Self::grafted_step_reference`]: the packed/planned
    /// kernels replay the naive floating-point summation order exactly, the
    /// literal kernels skip only terms their checks make exact no-ops, and
    /// the optimizer calls are unchanged.
    fn grafted_step_ws(
        &mut self,
        ws: &mut TrainWorkspace,
        sgds: &mut [ProjectedSgd],
        adam_v: &mut Adam,
        adam_b: &mut Adam,
    ) -> f32 {
        let n_layers = self.layers.len();
        let batch = ws.x.rows();

        // Layer 0 reads the encoder's literals. When the batch is exactly
        // 0/1 and its weights lie in [0, 1], its forwards work from per-row
        // literal sets; otherwise it runs the general kernels.
        let literal = ws.literals.rebuild(&ws.x)
            && self.layers[0].plan_literals_into(&mut ws.literal_plan);

        // Rebuild the discrete plans and head packing — both change at every
        // optimizer step, but once per *step* instead of once per row. On
        // the literal path layer 0 needs neither.
        ws.plans.resize_with(n_layers, DiscretePlan::default);
        ws.packed_layers.resize_with(n_layers, PackedRhs::default);
        let first = usize::from(literal);
        let plans = ws.plans[first..].iter_mut().zip(&mut ws.packed_layers[first..]);
        for (layer, (plan, pw)) in self.layers[first..].iter().zip(plans) {
            layer.plan_discrete_into(plan);
            pw.pack_from(layer.weights());
        }
        self.head.pack_weights_into(&mut ws.packed_head);
        let literals = literal.then_some((&ws.literals, &ws.literal_plan));

        // Discrete forward → loss gradient at the binarized output.
        let disc = Pass::Discrete(&ws.plans);
        forward_ws(&self.layers, self.config.literal_skip, &ws.x, disc, literals, &mut ws.disc);
        self.head.forward_packed_into(&ws.disc.rules, &ws.packed_head, &mut ws.logits);
        let loss = cross_entropy(&ws.logits, &ws.labels);
        cross_entropy_grad_into(&ws.logits, &ws.labels, &mut ws.dlogits, &mut ws.exp_scratch);

        // Continuous forward (cached) → backward with the grafted gradient.
        let soft = Pass::Soft(&ws.packed_layers);
        forward_ws(&self.layers, self.config.literal_skip, &ws.x, soft, literals, &mut ws.cont);
        ws.dv.resize(self.head.n_rules(), self.n_classes);
        ws.dv.fill_zero();
        ws.dbias.clear();
        ws.dbias.resize(self.n_classes, 0.0);
        // Only the layer-output columns of `dr` are read: literals are
        // inputs, not parameters.
        let layer_cols: usize = ws.cont.outputs.iter().map(Matrix::cols).sum();
        self.head.backward_into(
            &ws.cont.rules,
            &ws.dlogits,
            &mut ws.dv,
            &mut ws.dbias,
            &mut ws.dr,
            layer_cols,
        );

        ws.dws.resize_with(n_layers, Matrix::default);
        for (layer, dw) in self.layers.iter().zip(ws.dws.iter_mut()) {
            dw.resize(layer.n_nodes(), layer.in_dim());
            dw.fill_zero();
        }

        // Backprop layers last → first. `ws.dx` holds the input gradient of
        // the layer processed in the previous iteration; its leading columns
        // are the carry into this layer's output (the skip concatenation
        // puts the previous output first).
        for k in (0..n_layers).rev() {
            let out_cols = ws.cont.outputs[k].cols();
            let seg_off: usize = ws.cont.outputs[..k].iter().map(Matrix::cols).sum();
            ws.dy.resize(batch, out_cols);
            for b in 0..batch {
                let src = ws.dr.row(b);
                ws.dy.row_mut(b).copy_from_slice(&src[seg_off..seg_off + out_cols]);
            }
            if k + 1 < n_layers {
                for b in 0..batch {
                    let carry = &ws.dx.row(b)[..out_cols];
                    for (d, &cv) in ws.dy.row_mut(b).iter_mut().zip(carry) {
                        *d += cv;
                    }
                }
            }
            // The third literal check: skipped terms are `±0` only for a
            // finite upstream gradient. Layer 0 needs no input gradient.
            if k == 0 && literal && ws.dy.data().iter().all(|g| g.is_finite()) {
                self.layers[0].backward_literals_into(
                    &ws.literals,
                    &ws.literal_plan,
                    &ws.cont.outputs[0],
                    &ws.dy,
                    &mut ws.dx,
                    &mut ws.dws[0],
                );
                continue;
            }
            let input: &Matrix = if k == 0 { &ws.x } else { &ws.cont.inputs[k - 1] };
            self.layers[k].backward_into(
                input,
                &ws.cont.outputs[k],
                &ws.dy,
                &mut ws.dws[k],
                &mut ws.dx,
            );
        }

        // Parameter updates.
        for (layer, (sgd, dw)) in self.layers.iter_mut().zip(sgds.iter_mut().zip(&ws.dws)) {
            sgd.step(layer.weights_mut().data_mut(), dw.data());
        }
        adam_v.step(self.head.weights_mut().data_mut(), ws.dv.data());
        adam_b.step(self.head.bias_mut(), &ws.dbias);
        loss
    }

    /// Discrete accuracy on `data` through the workspace buffers (plans and
    /// packing are rebuilt first — the optimizer just moved the weights).
    /// Produces logits bit-identical to [`Self::logits_discrete`].
    fn accuracy_ws(&self, data: &EncodedData, ws: &mut TrainWorkspace) -> f64 {
        ws.plans.resize_with(self.layers.len(), DiscretePlan::default);
        for (layer, plan) in self.layers.iter().zip(ws.plans.iter_mut()) {
            layer.plan_discrete_into(plan);
        }
        self.head.pack_weights_into(&mut ws.packed_head);
        let disc = Pass::Discrete(&ws.plans);
        forward_ws(&self.layers, self.config.literal_skip, &data.x, disc, None, &mut ws.disc);
        self.head.forward_packed_into(&ws.disc.rules, &ws.packed_head, &mut ws.logits);
        accuracy(&ws.logits, &data.labels)
    }

    /// Runs one gradient-grafting step on a batch, allocating every
    /// intermediate — the **pinned naive baseline** for the kernel property
    /// tests and the `train_speed` bench. Do not optimize this path.
    fn grafted_step_reference(
        &mut self,
        x: &Matrix,
        labels: &[u32],
        sgds: &mut [ProjectedSgd],
        adam_v: &mut Adam,
        adam_b: &mut Adam,
    ) -> f32 {
        // Discrete forward → loss gradient at the binarized output.
        let disc = self.forward(x, true);
        let logits_d = self.head.forward(&disc.rules);
        let loss = cross_entropy(&logits_d, labels);
        let dlogits = cross_entropy_grad(&logits_d, labels);

        // Continuous forward (cached) → backward with the grafted gradient.
        let cont = self.forward(x, false);
        let mut dv = Matrix::zeros(self.head.n_rules(), self.n_classes);
        let mut dbias = vec![0.0f32; self.n_classes];
        let dr = self.head.backward(&cont.rules, &dlogits, &mut dv, &mut dbias);

        // Split dr into per-layer segments (ignore the literal segment —
        // literals are inputs, not parameters).
        let mut seg_offsets = Vec::with_capacity(self.layers.len());
        let mut off = 0;
        for out in &cont.layer_outputs {
            seg_offsets.push(off);
            off += out.cols();
        }

        let mut dws: Vec<Matrix> = self
            .layers
            .iter()
            .map(|l| Matrix::zeros(l.n_nodes(), l.in_dim()))
            .collect();

        // Backprop layers last → first. `carry` is the gradient flowing into
        // layer k's output from layer k+1's input.
        let mut carry: Option<Matrix> = None;
        for k in (0..self.layers.len()).rev() {
            let out_cols = cont.layer_outputs[k].cols();
            let mut dy = Matrix::zeros(x.rows(), out_cols);
            for b in 0..x.rows() {
                let src = dr.row(b);
                let dst = dy.row_mut(b);
                dst.copy_from_slice(&src[seg_offsets[k]..seg_offsets[k] + out_cols]);
            }
            if let Some(c) = carry.take() {
                for b in 0..x.rows() {
                    for (d, &cv) in dy.row_mut(b).iter_mut().zip(c.row(b)) {
                        *d += cv;
                    }
                }
            }
            let dx = self.layers[k].backward(
                &cont.layer_inputs[k],
                &cont.layer_outputs[k],
                &dy,
                &mut dws[k],
            );
            if k > 0 {
                // Layer k's input = prev_output ++ literals; forward only the
                // prev_output part.
                let prev_cols = cont.layer_outputs[k - 1].cols();
                let mut c = Matrix::zeros(x.rows(), prev_cols);
                for b in 0..x.rows() {
                    c.row_mut(b).copy_from_slice(&dx.row(b)[..prev_cols]);
                }
                carry = Some(c);
            }
        }

        // Parameter updates.
        for (layer, (sgd, dw)) in self.layers.iter_mut().zip(sgds.iter_mut().zip(&dws)) {
            sgd.step(layer.weights_mut().data_mut(), dw.data());
        }
        adam_v.step(self.head.weights_mut().data_mut(), dv.data());
        adam_b.step(self.head.bias_mut(), &dbias);
        loss
    }

    /// Trains on an encoded batch for `config.epochs` epochs, keeping the
    /// snapshot with the best discrete training accuracy.
    ///
    /// Runs the workspace data plane: once the scratch buffers are warm
    /// (first batch of the first call), each step performs zero heap
    /// allocations. The parameter stream is bit-identical to
    /// [`Self::train_reference`].
    pub fn train(&mut self, data: &EncodedData) -> Result<TrainReport> {
        if data.is_empty() {
            return Err(CoreError::Empty { what: "training data" });
        }
        if data.x.cols() != self.encoder.width() {
            return Err(CoreError::LengthMismatch {
                what: "encoded width",
                expected: self.encoder.width(),
                actual: data.x.cols(),
            });
        }
        let mut sgds: Vec<ProjectedSgd> = self
            .layers
            .iter()
            .map(|l| {
                ProjectedSgd::new(
                    l.n_nodes() * l.in_dim(),
                    self.config.lr_logical,
                    self.config.momentum,
                    self.config.l1,
                )
            })
            .collect();
        let mut adam_v = Adam::new(self.head.n_rules() * self.n_classes, self.config.lr_linear);
        let mut adam_b = Adam::new(self.n_classes, self.config.lr_linear);

        // Detach the workspace so `&mut self` stays free for the step; it is
        // reattached (buffers warm) before returning.
        let mut ws = self.workspace.take().unwrap_or_default();
        ws.order.clear();
        ws.order.extend(0..data.len());
        let mut best_acc = -1.0f64;
        // The workspace snapshot slot may hold stale parameters from an
        // earlier `train` call on this instance — only restore what *this*
        // run wrote.
        let mut took_snapshot = false;
        let mut final_loss = f32::NAN;

        for _epoch in 0..self.config.epochs {
            ws.order.shuffle(&mut self.rng);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            let mut start = 0;
            while start < ws.order.len() {
                let end = (start + self.config.batch_size).min(ws.order.len());
                data.x.select_rows_into(&ws.order[start..end], &mut ws.x);
                ws.labels.clear();
                ws.labels.extend(ws.order[start..end].iter().map(|&i| data.labels[i]));
                start = end;
                epoch_loss += self.grafted_step_ws(&mut ws, &mut sgds, &mut adam_v, &mut adam_b);
                batches += 1;
            }
            final_loss = epoch_loss / batches.max(1) as f32;
            let acc = self.accuracy_ws(data, &mut ws);
            if acc > best_acc {
                best_acc = acc;
                match &mut ws.snapshot {
                    Some((layers, head)) => {
                        layers.clone_from(&self.layers);
                        head.clone_from(&self.head);
                    }
                    None => ws.snapshot = Some((self.layers.clone(), self.head.clone())),
                }
                took_snapshot = true;
            }
        }
        if took_snapshot {
            let (layers, head) = ws.snapshot.as_ref().expect("snapshot was recorded");
            self.layers.clone_from(layers);
            self.head.clone_from(head);
        }
        self.workspace = Some(ws);
        Ok(TrainReport { epochs: self.config.epochs, best_accuracy: best_acc, final_loss })
    }

    /// The pre-workspace `train` loop, allocating every intermediate of
    /// every batch. **Pinned naive baseline**: the property tests assert the
    /// workspace path reproduces this parameter stream byte-for-byte, and
    /// `train_speed` measures its speedup against this. Do not optimize.
    pub fn train_reference(&mut self, data: &EncodedData) -> Result<TrainReport> {
        if data.is_empty() {
            return Err(CoreError::Empty { what: "training data" });
        }
        if data.x.cols() != self.encoder.width() {
            return Err(CoreError::LengthMismatch {
                what: "encoded width",
                expected: self.encoder.width(),
                actual: data.x.cols(),
            });
        }
        let mut sgds: Vec<ProjectedSgd> = self
            .layers
            .iter()
            .map(|l| {
                ProjectedSgd::new(
                    l.n_nodes() * l.in_dim(),
                    self.config.lr_logical,
                    self.config.momentum,
                    self.config.l1,
                )
            })
            .collect();
        let mut adam_v = Adam::new(self.head.n_rules() * self.n_classes, self.config.lr_linear);
        let mut adam_b = Adam::new(self.n_classes, self.config.lr_linear);

        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut best_acc = -1.0f64;
        let mut best: Option<(Vec<LogicalLayer>, LinearHead)> = None;
        let mut final_loss = f32::NAN;

        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut self.rng);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let x = data.x.select_rows(chunk);
                let labels: Vec<u32> = chunk.iter().map(|&i| data.labels[i]).collect();
                epoch_loss += self.grafted_step_reference(
                    &x,
                    &labels,
                    &mut sgds,
                    &mut adam_v,
                    &mut adam_b,
                );
                batches += 1;
            }
            final_loss = epoch_loss / batches.max(1) as f32;
            let acc = self.accuracy_encoded(data);
            if acc > best_acc {
                best_acc = acc;
                best = Some((self.layers.clone(), self.head.clone()));
            }
        }
        if let Some((layers, head)) = best {
            self.layers = layers;
            self.head = head;
        }
        Ok(TrainReport { epochs: self.config.epochs, best_accuracy: best_acc, final_loss })
    }

    /// Convenience: encode + train a raw dataset.
    pub fn fit(&mut self, data: &Dataset) -> Result<TrainReport> {
        self.fit_view(&data.view())
    }

    /// Encode + train a zero-copy dataset view: coalition retraining in
    /// `ctfl-valuation` goes through here without materializing the
    /// coalition's rows.
    pub fn fit_view(&mut self, view: &DatasetView<'_>) -> Result<TrainReport> {
        let encoded = self.encode_view(view)?;
        self.train(&encoded)
    }

    /// Total trainable parameter count (the [`Self::params`] length),
    /// computed arithmetically — no allocation.
    pub fn n_params(&self) -> usize {
        let logical: usize = self.layers.iter().map(|l| l.n_nodes() * l.in_dim()).sum();
        logical + self.head.n_rules() * self.n_classes + self.n_classes
    }

    /// Flattened trainable parameters (logical weights, head weights, head
    /// biases) — the unit FedAvg averages.
    pub fn params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.n_params());
        self.params_into(&mut out);
        out
    }

    /// [`Self::params`] into a caller-owned buffer (cleared first). The
    /// FedAvg round loop reuses one buffer per participant across rounds.
    pub fn params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.n_params());
        for layer in &self.layers {
            out.extend_from_slice(layer.weights().data());
        }
        out.extend_from_slice(self.head.weights().data());
        out.extend_from_slice(self.head.bias());
    }

    /// Restores parameters from [`Self::params`] layout.
    pub fn set_params(&mut self, params: &[f32]) -> Result<()> {
        let expected = self.n_params();
        if params.len() != expected {
            return Err(CoreError::LengthMismatch {
                what: "parameter vector",
                expected,
                actual: params.len(),
            });
        }
        let mut off = 0;
        for layer in &mut self.layers {
            let n = layer.n_nodes() * layer.in_dim();
            layer.weights_mut().data_mut().copy_from_slice(&params[off..off + n]);
            off += n;
        }
        let n = self.head.n_rules() * self.n_classes;
        self.head.weights_mut().data_mut().copy_from_slice(&params[off..off + n]);
        off += n;
        self.head.bias_mut().copy_from_slice(&params[off..]);
        Ok(())
    }

    fn fresh_optim_state(&self) -> OptimState {
        OptimState {
            sgds: self
                .layers
                .iter()
                .map(|l| {
                    ProjectedSgd::new(
                        l.n_nodes() * l.in_dim(),
                        self.config.lr_logical,
                        self.config.momentum,
                        self.config.l1,
                    )
                })
                .collect(),
            adam_v: Adam::new(self.head.n_rules() * self.n_classes, self.config.lr_linear),
            adam_b: Adam::new(self.n_classes, self.config.lr_linear),
        }
    }

    /// Runs `epochs` of local training (used by the FedAvg client loop),
    /// without snapshot-keeping — federated rounds keep the server's
    /// aggregate instead. Optimizer state (momentum, Adam moments) persists
    /// across calls on the same instance, as do the workspace buffers — a
    /// client's steady-state round allocates nothing per batch. The
    /// parameter stream is bit-identical to
    /// [`Self::train_local_reference`].
    pub fn train_local(&mut self, data: &EncodedData, epochs: usize) -> Result<()> {
        if data.is_empty() {
            return Err(CoreError::Empty { what: "training data" });
        }
        let mut state = match self.local_optim.take() {
            Some(s) => s,
            None => self.fresh_optim_state(),
        };
        let mut ws = self.workspace.take().unwrap_or_default();
        ws.order.clear();
        ws.order.extend(0..data.len());
        for _ in 0..epochs {
            ws.order.shuffle(&mut self.rng);
            let mut start = 0;
            while start < ws.order.len() {
                let end = (start + self.config.batch_size).min(ws.order.len());
                data.x.select_rows_into(&ws.order[start..end], &mut ws.x);
                ws.labels.clear();
                ws.labels.extend(ws.order[start..end].iter().map(|&i| data.labels[i]));
                start = end;
                self.grafted_step_ws(&mut ws, &mut state.sgds, &mut state.adam_v, &mut state.adam_b);
            }
        }
        self.workspace = Some(ws);
        self.local_optim = Some(state);
        Ok(())
    }

    /// The pre-workspace `train_local` loop — **pinned naive baseline** for
    /// the kernel property tests. Do not optimize.
    pub fn train_local_reference(&mut self, data: &EncodedData, epochs: usize) -> Result<()> {
        if data.is_empty() {
            return Err(CoreError::Empty { what: "training data" });
        }
        let mut state = match self.local_optim.take() {
            Some(s) => s,
            None => self.fresh_optim_state(),
        };
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..epochs {
            order.shuffle(&mut self.rng);
            for chunk in order.chunks(self.config.batch_size) {
                let x = data.x.select_rows(chunk);
                let labels: Vec<u32> = chunk.iter().map(|&i| data.labels[i]).collect();
                self.grafted_step_reference(
                    &x,
                    &labels,
                    &mut state.sgds,
                    &mut state.adam_v,
                    &mut state.adam_b,
                );
            }
        }
        self.local_optim = Some(state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctfl_core::data::FeatureKind;

    fn xor_like_dataset() -> Dataset {
        // Two discrete features; label = f0 XOR f1. Requires compound rules.
        let schema = FeatureSchema::new(vec![
            ("a", FeatureKind::discrete(2)),
            ("b", FeatureKind::discrete(2)),
        ]);
        let mut ds = Dataset::empty(schema, 2);
        for _ in 0..25 {
            for a in 0..2u32 {
                for b in 0..2u32 {
                    ds.push_row(&[a.into(), b.into()], ((a ^ b) == 1) as u32).unwrap();
                }
            }
        }
        ds
    }

    fn threshold_dataset() -> Dataset {
        // Continuous feature; label = x > 0.55.
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let mut ds = Dataset::empty(schema, 2);
        for i in 0..200 {
            let v = i as f32 / 200.0;
            ds.push_row(&[v.into()], (v > 0.55) as u32).unwrap();
        }
        ds
    }

    fn small_config(seed: u64) -> LogicalNetConfig {
        LogicalNetConfig {
            tau_d: 8,
            layer_sizes: vec![16],
            epochs: 60,
            batch_size: 32,
            seed,
            ..LogicalNetConfig::default()
        }
    }

    #[test]
    fn learns_discrete_xor() {
        let ds = xor_like_dataset();
        let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, small_config(1)).unwrap();
        let report = net.fit(&ds).unwrap();
        assert!(report.best_accuracy >= 0.95, "accuracy {}", report.best_accuracy);
    }

    #[test]
    fn learns_continuous_threshold() {
        let ds = threshold_dataset();
        let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, small_config(2)).unwrap();
        let report = net.fit(&ds).unwrap();
        // A random bound near 0.55 may not exist; accept >= 0.9.
        assert!(report.best_accuracy >= 0.9, "accuracy {}", report.best_accuracy);
    }

    #[test]
    fn params_roundtrip() {
        let ds = threshold_dataset();
        let net = LogicalNet::new(Arc::clone(ds.schema()), 2, small_config(3)).unwrap();
        let p = net.params();
        let mut net2 = LogicalNet::new(Arc::clone(ds.schema()), 2, small_config(99)).unwrap();
        assert_eq!(p.len(), net2.params().len());
        net2.set_params(&p).unwrap();
        assert_eq!(net2.params(), p);
        // Same seed -> same encoder; predictions must now agree.
        let mut net3 = LogicalNet::new(Arc::clone(ds.schema()), 2, small_config(3)).unwrap();
        net3.set_params(&p).unwrap();
        let e = net.encode(&ds).unwrap();
        assert_eq!(net.predict_encoded(&e.x), net3.predict_encoded(&e.x));
        // Wrong length rejected.
        assert!(net2.set_params(&p[..p.len() - 1]).is_err());
    }

    #[test]
    fn config_validation() {
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        assert!(LogicalNet::new(Arc::clone(&schema), 1, small_config(0)).is_err());
        let bad = LogicalNetConfig { layer_sizes: vec![], ..small_config(0) };
        assert!(LogicalNet::new(Arc::clone(&schema), 2, bad).is_err());
        let bad = LogicalNetConfig { batch_size: 0, ..small_config(0) };
        assert!(LogicalNet::new(Arc::clone(&schema), 2, bad).is_err());
        let bad = LogicalNetConfig { layer_sizes: vec![1], ..small_config(0) };
        assert!(LogicalNet::new(Arc::clone(&schema), 2, bad).is_err());
        let rejected = |cfg: LogicalNetConfig| {
            matches!(
                LogicalNet::new(Arc::clone(&schema), 2, cfg),
                Err(CoreError::InvalidParameter { .. })
            )
        };
        for lr in [0.0, -0.1, f32::NAN] {
            assert!(rejected(LogicalNetConfig { lr_logical: lr, ..small_config(0) }), "lr {lr}");
            assert!(rejected(LogicalNetConfig { lr_linear: lr, ..small_config(0) }), "lr {lr}");
        }
        for momentum in [-0.1, 1.0, 1.5, f32::NAN] {
            assert!(rejected(LogicalNetConfig { momentum, ..small_config(0) }), "{momentum}");
        }
        for l1 in [-1e-4, f32::NAN] {
            assert!(rejected(LogicalNetConfig { l1, ..small_config(0) }), "l1 {l1}");
        }
        // The edges of each range still build and train.
        let ds = threshold_dataset();
        let edge = LogicalNetConfig { momentum: 0.0, l1: 0.0, epochs: 1, ..small_config(0) };
        let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, edge).unwrap();
        net.fit(&ds).unwrap();
    }

    #[test]
    fn empty_training_data_rejected() {
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let ds = Dataset::empty(Arc::clone(&schema), 2);
        let mut net = LogicalNet::new(schema, 2, small_config(0)).unwrap();
        assert!(net.fit(&ds).is_err());
    }

    #[test]
    fn rule_activations_are_binary_in_discrete_mode() {
        let ds = xor_like_dataset();
        let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, small_config(4)).unwrap();
        net.fit(&ds).unwrap();
        let e = net.encode(&ds).unwrap();
        let r = net.forward(&e.x, true).rules;
        assert!(r.data().iter().all(|&v| v == 0.0 || v == 1.0));
        assert_eq!(r.cols(), net.head.n_rules());
    }

    #[test]
    fn deeper_network_trains() {
        let ds = xor_like_dataset();
        let cfg = LogicalNetConfig {
            layer_sizes: vec![12, 8],
            epochs: 60,
            batch_size: 32,
            seed: 7,
            ..LogicalNetConfig::default()
        };
        let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg).unwrap();
        let report = net.fit(&ds).unwrap();
        assert!(report.best_accuracy >= 0.9, "accuracy {}", report.best_accuracy);
    }

    #[test]
    fn train_local_changes_params() {
        let ds = threshold_dataset();
        let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, small_config(5)).unwrap();
        let before = net.params();
        let e = net.encode(&ds).unwrap();
        net.train_local(&e, 2).unwrap();
        assert_ne!(before, net.params());
    }
}
