//! The logical neural network (paper Figure 3) and its gradient-grafting
//! training loop.
//!
//! Architecture, as the paper trains it: encoded literals → one
//! [`LogicalLayer`] of conjunction and disjunction nodes → a [`LinearHead`]
//! over the layer's outputs followed by the literals themselves (the skip
//! connection that yields single-predicate rules).
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
use std::ops::Range;
use std::sync::Arc;

use crate::encoding::{EncodedData, Encoder};
use crate::linear::LinearHead;
use crate::logical::{LiteralBatch, LiteralPlan, LogicalLayer};
use crate::loss::{accuracy, argmax_tie_high, cross_entropy, cross_entropy_grad, cross_entropy_grad_into};
use crate::matrix::{Matrix, PackedRhs};
use crate::optim::{Adam, ProjectedSgd};

/// L1 pull on logical weights (sparser, more interpretable rules).
const L1: f32 = 1e-4;

/// Hyper-parameters of the logical network.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalNetConfig {
    /// Discretization bounds per continuous feature (`τ_d`; the layer emits
    /// `2·τ_d` literals per feature). Paper default: 10.
    pub tau_d: usize,
    /// The logical layer's width, as a one-element list (paper default: one
    /// layer of 64–512 nodes). Any other length is rejected.
    pub layer_sizes: Vec<usize>,
    /// Learning rate for logical weights (projected SGD).
    pub lr_logical: f32,
    /// Learning rate for the linear head (Adam).
    pub lr_linear: f32,
    /// SGD momentum for logical weights.
    pub momentum: f32,
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
            lr_logical: 0.05,
            lr_linear: 0.01,
            momentum: 0.9,
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
    layer: LogicalLayer,
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
            layer: self.layer.clone(),
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
    sgd: ProjectedSgd,
    adam_v: Adam,
    adam_b: Adam,
}

/// One forward pass's intermediates (discrete or continuous). In the
/// workspace both matrices are fully overwritten each pass, in place unless
/// the pass falls back to a naive forward.
#[derive(Debug, Clone, Default)]
struct PassBuffers {
    /// The layer's output.
    output: Matrix,
    /// The layer's output followed by the literals (head input).
    rules: Matrix,
}

/// Reusable training scratch: batch staging, the literal bit sets and
/// plan, forward/backward intermediates, the packed head weights, and the
/// best-epoch snapshot slot. Once warm, a training step that passes the
/// literal checks touches no allocator.
#[derive(Debug, Clone, Default)]
struct TrainWorkspace {
    /// Gathered minibatch rows.
    x: Matrix,
    /// Gathered minibatch labels.
    labels: Vec<u32>,
    /// Shuffled row order for the epoch loop.
    order: Vec<usize>,
    /// The batch as per-row literal bit sets (gathered from
    /// `shard_literals` per step when the shard is 0/1).
    literals: LiteralBatch,
    /// The training call's whole shard as literal bit sets, built once per
    /// `train`/`train_local` call.
    shard_literals: LiteralBatch,
    /// Whether every shard input is exactly `+0.0` or `1.0`, so that
    /// `shard_literals` holds them.
    shard_is_binary: bool,
    /// The selected-literal masks and `(1 − w)ᵀ` (rebuilt per step and
    /// before each accuracy pass).
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
    /// The head's gradient on the layer's outputs: the layer's upstream
    /// gradient.
    dr: Matrix,
    /// The layer's weight gradient.
    dw: Matrix,
    /// The literal backward's transposed weight gradient.
    dwt: Matrix,
    /// Best-epoch parameter snapshot, written with `clone_from` so the
    /// improving-epoch path stops allocating.
    snapshot: Option<(LogicalLayer, LinearHead)>,
}

impl TrainWorkspace {
    /// Readies the workspace for a training call on `data`: the row order,
    /// and the shard's literal bit sets with their 0/1 check.
    fn start_call(&mut self, data: &EncodedData) {
        self.order.clear();
        self.order.extend(0..data.len());
        self.shard_is_binary = self.shard_literals.rebuild(&data.x);
    }

    /// Gathers the batch of rows `order[range]`: features, labels, and for
    /// a binary shard the literal bit sets.
    fn stage_batch(&mut self, data: &EncodedData, range: Range<usize>) {
        let rows = &self.order[range];
        data.x.select_rows_into(rows, &mut self.x);
        self.labels.clear();
        self.labels.extend(rows.iter().map(|&i| data.labels[i]));
        if self.shard_is_binary {
            self.literals.gather(&self.shard_literals, rows);
        }
    }
}

/// Writes the head input: each row of the layer's output `y` followed by
/// the same row of the literals `x`.
fn rules_into(y: &Matrix, x: &Matrix, rules: &mut Matrix) {
    rules.resize(x.rows(), y.cols() + x.cols());
    for b in 0..x.rows() {
        let (out, lits) = rules.row_mut(b).split_at_mut(y.cols());
        out.copy_from_slice(y.row(b));
        lits.copy_from_slice(x.row(b));
    }
}

/// Discrete or soft forward pass through `layer` into `buf`: from
/// `literals` when the step passed the literal checks, else through the
/// naive oracle on `x`, which allocates a fresh output. Bit-identical to
/// [`LogicalNet::forward`]: the literal kernels replay the naive summation
/// order exactly and the rule concatenation copies the same slices.
fn forward_ws(
    layer: &LogicalLayer,
    x: &Matrix,
    discrete: bool,
    literals: Option<(&LiteralBatch, &LiteralPlan)>,
    buf: &mut PassBuffers,
) {
    let out = &mut buf.output;
    match (literals, discrete) {
        (Some((lits, plan)), true) => layer.forward_discrete_literals_into(lits, plan, out),
        (Some((lits, plan)), false) => layer.forward_soft_literals_into(lits, plan, out),
        (None, true) => *out = layer.forward_discrete(x),
        (None, false) => *out = layer.forward_soft(x),
    }
    rules_into(out, x, &mut buf.rules);
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
        let width = match config.layer_sizes[..] {
            [width] if width >= 2 => width,
            _ => {
                return Err(CoreError::InvalidParameter {
                    name: "layer_sizes",
                    message: format!(
                        "need exactly one layer of >= 2 nodes, got {:?}",
                        config.layer_sizes
                    ),
                })
            }
        };
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
        let mut rng = StdRng::seed_from_u64(config.seed);
        let encoder = Encoder::new(&schema, config.tau_d, &mut rng)?;
        let n_literals = encoder.width();
        let layer = LogicalLayer::new(n_literals, width, &mut rng);
        let head = LinearHead::new(width + n_literals, n_classes, &mut rng);
        Ok(LogicalNet {
            schema,
            n_classes,
            encoder,
            layer,
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

    /// The logical layer.
    pub fn layer(&self) -> &LogicalLayer {
        &self.layer
    }

    /// The linear head.
    pub fn head(&self) -> &LinearHead {
        &self.head
    }

    /// The configuration.
    pub fn config(&self) -> &LogicalNetConfig {
        &self.config
    }

    fn forward(&self, x: &Matrix, discrete: bool) -> PassBuffers {
        let output =
            if discrete { self.layer.forward_discrete(x) } else { self.layer.forward_soft(x) };
        let mut rules = Matrix::default();
        rules_into(&output, x, &mut rules);
        PassBuffers { output, rules }
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
    /// Bit-identical to [`Self::grafted_step_reference`]: the literal
    /// kernels skip only terms their checks make exact no-ops, a step that
    /// fails a check runs the layer's naive oracles, and the optimizer calls
    /// are unchanged. A step that falls back allocates: the naive forwards
    /// return fresh matrices.
    fn grafted_step_ws(&mut self, ws: &mut TrainWorkspace, state: &mut OptimState) -> f32 {
        // The layer reads the encoder's literals. When the shard is exactly
        // 0/1 and the weights lie in [0, 1], its forwards work from the
        // per-row literal sets gathered with the batch; otherwise they run
        // the naive oracles, which give the same bits.
        let literal = ws.shard_is_binary && self.layer.plan_literals_into(&mut ws.literal_plan);
        // The head's packing changes at every optimizer step: once per step
        // instead of once per row.
        self.head.pack_weights_into(&mut ws.packed_head);
        let literals = literal.then_some((&ws.literals, &ws.literal_plan));

        // Discrete forward → loss gradient at the binarized output.
        forward_ws(&self.layer, &ws.x, true, literals, &mut ws.disc);
        self.head.forward_packed_into(&ws.disc.rules, &ws.packed_head, &mut ws.logits);
        let loss = cross_entropy(&ws.logits, &ws.labels);
        cross_entropy_grad_into(&ws.logits, &ws.labels, &mut ws.dlogits, &mut ws.exp_scratch);

        // Continuous forward (cached) → backward with the grafted gradient.
        forward_ws(&self.layer, &ws.x, false, literals, &mut ws.cont);
        ws.dv.resize(self.head.n_rules(), self.n_classes);
        ws.dv.fill_zero();
        ws.dbias.clear();
        ws.dbias.resize(self.n_classes, 0.0);
        // The head fills only the layer-output columns of `dr` (literals
        // are inputs, not parameters): the layer's upstream gradient.
        let n_nodes = self.layer.n_nodes();
        self.head.backward_into(
            &ws.cont.rules,
            &ws.dlogits,
            &mut ws.dv,
            &mut ws.dbias,
            &mut ws.dr,
            n_nodes,
        );

        // The third literal check: skipped terms are `±0` only for a finite
        // upstream gradient.
        if literal && ws.dr.data().iter().all(|g| g.is_finite()) {
            self.layer.backward_literals_into(
                &ws.literals,
                &ws.literal_plan,
                &ws.cont.output,
                &ws.dr,
                &mut ws.dwt,
                &mut ws.dw,
            );
        } else {
            ws.dw.resize(n_nodes, self.layer.in_dim());
            ws.dw.fill_zero();
            self.layer.backward(&ws.x, &ws.cont.output, &ws.dr, &mut ws.dw);
        }

        state.sgd.step(self.layer.weights_mut().data_mut(), ws.dw.data());
        state.adam_v.step(self.head.weights_mut().data_mut(), ws.dv.data());
        state.adam_b.step(self.head.bias_mut(), &ws.dbias);
        loss
    }

    /// Discrete accuracy on `data` (the shard the workspace started the
    /// call on) through the workspace buffers; the literal plan and the head
    /// packing are rebuilt first, as the optimizer just moved the weights.
    /// Produces logits bit-identical to [`Self::logits_discrete`]: the
    /// literal discrete forward is exact for any weights, so only a shard
    /// that is not 0/1 runs the naive one.
    fn accuracy_ws(&self, data: &EncodedData, ws: &mut TrainWorkspace) -> f64 {
        if ws.shard_is_binary {
            self.layer.plan_literals_into(&mut ws.literal_plan);
        }
        self.head.pack_weights_into(&mut ws.packed_head);
        let literals = ws.shard_is_binary.then_some((&ws.shard_literals, &ws.literal_plan));
        forward_ws(&self.layer, &data.x, true, literals, &mut ws.disc);
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
        state: &mut OptimState,
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

        // The layer's upstream gradient: the layer-output columns of `dr`
        // (the literal columns are dropped — literals are inputs, not
        // parameters).
        let n_nodes = self.layer.n_nodes();
        let mut dy = Matrix::zeros(x.rows(), n_nodes);
        for b in 0..x.rows() {
            dy.row_mut(b).copy_from_slice(&dr.row(b)[..n_nodes]);
        }
        let mut dw = Matrix::zeros(n_nodes, self.layer.in_dim());
        self.layer.backward(x, &cont.output, &dy, &mut dw);

        // Parameter updates.
        state.sgd.step(self.layer.weights_mut().data_mut(), dw.data());
        state.adam_v.step(self.head.weights_mut().data_mut(), dv.data());
        state.adam_b.step(self.head.bias_mut(), &dbias);
        loss
    }

    /// Rejects empty training data, data encoded at another width, a label
    /// count that differs from the row count, and a label of a class the
    /// network does not have.
    fn check_training_data(&self, data: &EncodedData) -> Result<()> {
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
        if data.labels.len() != data.len() {
            return Err(CoreError::LengthMismatch {
                what: "training labels",
                expected: data.len(),
                actual: data.labels.len(),
            });
        }
        if let Some(&class) = data.labels.iter().find(|&&l| l as usize >= self.n_classes) {
            return Err(CoreError::ClassOutOfRange {
                class: class as usize,
                n_classes: self.n_classes,
            });
        }
        Ok(())
    }

    /// One shuffled epoch of workspace steps over `data` (the workspace
    /// must have started the call). Returns the mean discrete loss.
    fn epoch_ws(
        &mut self,
        data: &EncodedData,
        ws: &mut TrainWorkspace,
        state: &mut OptimState,
    ) -> f32 {
        ws.order.shuffle(&mut self.rng);
        let mut loss = 0.0f32;
        let mut batches = 0usize;
        let mut start = 0;
        while start < ws.order.len() {
            let end = (start + self.config.batch_size).min(ws.order.len());
            ws.stage_batch(data, start..end);
            start = end;
            loss += self.grafted_step_ws(ws, state);
            batches += 1;
        }
        loss / batches.max(1) as f32
    }

    /// [`Self::epoch_ws`] through the naive step, allocating every batch.
    fn epoch_reference(
        &mut self,
        data: &EncodedData,
        order: &mut [usize],
        state: &mut OptimState,
    ) -> f32 {
        order.shuffle(&mut self.rng);
        let mut loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(self.config.batch_size) {
            let x = data.x.select_rows(chunk);
            let labels: Vec<u32> = chunk.iter().map(|&i| data.labels[i]).collect();
            loss += self.grafted_step_reference(&x, &labels, state);
            batches += 1;
        }
        loss / batches.max(1) as f32
    }

    /// Trains on an encoded batch for `config.epochs` epochs, keeping the
    /// snapshot with the best discrete training accuracy.
    ///
    /// Runs the workspace data plane: once the scratch buffers are warm
    /// (first batch of the first call), each step that passes the literal
    /// checks performs zero heap allocations. The parameter stream is
    /// bit-identical to [`Self::train_reference`].
    pub fn train(&mut self, data: &EncodedData) -> Result<TrainReport> {
        self.check_training_data(data)?;
        let mut state = self.fresh_optim_state();
        // Detach the workspace so `&mut self` stays free for the step; it is
        // reattached (buffers warm) before returning.
        let mut ws = self.workspace.take().unwrap_or_default();
        ws.start_call(data);
        let mut best_acc = -1.0f64;
        // The workspace snapshot slot may hold stale parameters from an
        // earlier `train` call on this instance — only restore what *this*
        // run wrote.
        let mut took_snapshot = false;
        let mut final_loss = f32::NAN;

        for _epoch in 0..self.config.epochs {
            final_loss = self.epoch_ws(data, &mut ws, &mut state);
            let acc = self.accuracy_ws(data, &mut ws);
            if acc > best_acc {
                best_acc = acc;
                match &mut ws.snapshot {
                    Some((layer, head)) => {
                        layer.clone_from(&self.layer);
                        head.clone_from(&self.head);
                    }
                    None => ws.snapshot = Some((self.layer.clone(), self.head.clone())),
                }
                took_snapshot = true;
            }
        }
        if took_snapshot {
            let (layer, head) = ws.snapshot.as_ref().expect("snapshot was recorded");
            self.layer.clone_from(layer);
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
        self.check_training_data(data)?;
        let mut state = self.fresh_optim_state();
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut best_acc = -1.0f64;
        let mut best: Option<(LogicalLayer, LinearHead)> = None;
        let mut final_loss = f32::NAN;

        for _epoch in 0..self.config.epochs {
            final_loss = self.epoch_reference(data, &mut order, &mut state);
            let acc = self.accuracy_encoded(data);
            if acc > best_acc {
                best_acc = acc;
                best = Some((self.layer.clone(), self.head.clone()));
            }
        }
        if let Some((layer, head)) = best {
            self.layer = layer;
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
        self.layer.n_nodes() * self.layer.in_dim()
            + self.head.n_rules() * self.n_classes
            + self.n_classes
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
        out.extend_from_slice(self.layer.weights().data());
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
        let (layer, rest) = params.split_at(self.layer.weights().data().len());
        let (head, bias) = rest.split_at(self.head.weights().data().len());
        self.layer.weights_mut().data_mut().copy_from_slice(layer);
        self.head.weights_mut().data_mut().copy_from_slice(head);
        self.head.bias_mut().copy_from_slice(bias);
        Ok(())
    }

    fn fresh_optim_state(&self) -> OptimState {
        let n_weights = self.layer.n_nodes() * self.layer.in_dim();
        let config = &self.config;
        OptimState {
            sgd: ProjectedSgd::new(n_weights, config.lr_logical, config.momentum, L1),
            adam_v: Adam::new(self.head.n_rules() * self.n_classes, config.lr_linear),
            adam_b: Adam::new(self.n_classes, config.lr_linear),
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
        self.check_training_data(data)?;
        let mut state = self.local_optim.take().unwrap_or_else(|| self.fresh_optim_state());
        let mut ws = self.workspace.take().unwrap_or_default();
        ws.start_call(data);
        for _ in 0..epochs {
            self.epoch_ws(data, &mut ws, &mut state);
        }
        self.workspace = Some(ws);
        self.local_optim = Some(state);
        Ok(())
    }

    /// The pre-workspace `train_local` loop — **pinned naive baseline** for
    /// the kernel property tests. Do not optimize.
    pub fn train_local_reference(&mut self, data: &EncodedData, epochs: usize) -> Result<()> {
        self.check_training_data(data)?;
        let mut state = self.local_optim.take().unwrap_or_else(|| self.fresh_optim_state());
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..epochs {
            self.epoch_reference(data, &mut order, &mut state);
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
        let bad = LogicalNetConfig { batch_size: 0, ..small_config(0) };
        assert!(LogicalNet::new(Arc::clone(&schema), 2, bad).is_err());
        let rejected = |cfg: LogicalNetConfig| {
            matches!(
                LogicalNet::new(Arc::clone(&schema), 2, cfg),
                Err(CoreError::InvalidParameter { .. })
            )
        };
        // The network has exactly one logical layer, of at least 2 nodes.
        for layer_sizes in [vec![], vec![1], vec![12, 8], vec![12, 8, 4]] {
            let cfg = LogicalNetConfig { layer_sizes: layer_sizes.clone(), ..small_config(0) };
            assert!(rejected(cfg), "layer_sizes {layer_sizes:?}");
        }
        for lr in [0.0, -0.1, f32::NAN] {
            assert!(rejected(LogicalNetConfig { lr_logical: lr, ..small_config(0) }), "lr {lr}");
            assert!(rejected(LogicalNetConfig { lr_linear: lr, ..small_config(0) }), "lr {lr}");
        }
        for momentum in [-0.1, 1.0, 1.5, f32::NAN] {
            assert!(rejected(LogicalNetConfig { momentum, ..small_config(0) }), "{momentum}");
        }
        // The edges of each range still build and train.
        let ds = threshold_dataset();
        let edge = LogicalNetConfig { momentum: 0.0, epochs: 1, ..small_config(0) };
        let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, edge).unwrap();
        net.fit(&ds).unwrap();
    }

    #[test]
    fn empty_training_data_rejected() {
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let ds = Dataset::empty(Arc::clone(&schema), 2);
        let mut net = LogicalNet::new(schema, 2, small_config(0)).unwrap();
        assert!(net.fit(&ds).is_err());
        // Every training entry point rejects data encoded at another width.
        let mut wide = net.encode(&threshold_dataset()).unwrap();
        wide.x = Matrix::zeros(wide.x.rows(), wide.x.cols() + 1);
        let mismatch = |r: Result<()>| matches!(r, Err(CoreError::LengthMismatch { .. }));
        assert!(mismatch(net.train(&wide).map(drop)));
        assert!(mismatch(net.train_reference(&wide).map(drop)));
        assert!(mismatch(net.train_local(&wide, 1)));
        assert!(mismatch(net.train_local_reference(&wide, 1)));
    }

    #[test]
    fn mismatched_or_out_of_range_labels_rejected() {
        let ds = threshold_dataset();
        let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, small_config(0)).unwrap();
        let encoded = net.encode(&ds).unwrap();
        let mut short = encoded.clone();
        short.labels.pop();
        let mut third_class = encoded.clone();
        third_class.labels[7] = 2;
        let before = net.params();
        // Every training entry point rejects them before it trains.
        let entry_points: [fn(&mut LogicalNet, &EncodedData) -> Result<()>; 4] = [
            |n, d| n.train(d).map(drop),
            |n, d| n.train_reference(d).map(drop),
            |n, d| n.train_local(d, 1),
            |n, d| n.train_local_reference(d, 1),
        ];
        for train in entry_points {
            assert_eq!(
                train(&mut net, &short),
                Err(CoreError::LengthMismatch {
                    what: "training labels",
                    expected: 200,
                    actual: 199
                })
            );
            assert_eq!(
                train(&mut net, &third_class),
                Err(CoreError::ClassOutOfRange { class: 2, n_classes: 2 })
            );
        }
        assert_eq!(net.params(), before);
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
    fn train_local_changes_params() {
        let ds = threshold_dataset();
        let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, small_config(5)).unwrap();
        let before = net.params();
        let e = net.encode(&ds).unwrap();
        net.train_local(&e, 2).unwrap();
        assert_ne!(before, net.params());
    }
}
