//! Rule-based contribution tracing (paper Section III-C, Eq. 4).
//!
//! For every test instance, CTFL identifies the *related* training data —
//! instances that taught the model the rules it used on that test instance.
//! The four tracing cases of the paper reduce to a single traced class per
//! test instance:
//!
//! * **TP / TN** (correct prediction): trace class `y_te`; related training
//!   data are *beneficial*.
//! * **FP / FN** (wrong prediction): trace the *predicted* (wrong) class;
//!   related training data are *responsible for the loss*.
//!
//! A training instance `(x_tr, y_tr)` is related to `(x_te, y_te)` under
//! threshold `τ_w` iff `y_tr` equals the traced class `c*` and
//!
//! ```text
//!   w* ⊙ r*(x_tr) · r*(x_te)
//!   ------------------------  >= τ_w          (Eq. 4)
//!       w* · r*(x_te)
//! ```
//!
//! where `r*`/`w*` are the activation vector and weights restricted to the
//! rules supporting `c*`.
//!
//! The tracer never touches raw feature values: it consumes only activation
//! matrices, labels and the client assignment — exactly the artifacts the
//! paper's privacy pipeline lets participants upload (Section V).

// Index-based loops below mirror the textbook formulations; iterator
// rewrites obscure the row/column arithmetic.
#![allow(clippy::needless_range_loop)]
use crate::activation::{masked_weight_sum_words, triple_weight_sum_words, ActivationMatrix};
use crate::error::{CoreError, Result};
use crate::model::RuleModel;
use crate::parallel::plan_threads;
use crate::shard::ShardedActivations;
use ctfl_rulemine::{assign_groups, max_miner, MaxMinerConfig, TransactionSet};

/// Strategy for organising the `|D_te| × |D_N|` comparison.
///
/// All strategies produce **identical** [`TraceOutcome`]s; they differ only
/// in speed (verified by property tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupingStrategy {
    /// Compare every test instance against every training instance.
    BruteForce,
    /// Deduplicate test instances with identical activation signatures and
    /// traced class; each unique signature is traced once.
    SignatureDedup,
    /// Paper Section III-C: mine maximal frequent activated-rule sets over
    /// the test activation vectors with Max-Miner, partition test instances
    /// into groups sharing a frequent subset, prefilter candidate training
    /// rows per group with an admissible bound, then refine exactly.
    FrequentRuleSets {
        /// Minimum support as a fraction of the test set size, in `(0, 1]`.
        min_support: f64,
    },
}

/// Tracing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Activation-overlap threshold `τ_w ∈ (0, 1]` of Eq. 4. The paper uses
    /// values in `[0.8, 1.0]`; lower values recognise more contributing
    /// records (useful under data poisoning), higher values are stricter.
    pub tau_w: f64,
    /// Parallelize over test instances with scoped threads (the paper's GPU
    /// map, realised on CPU).
    pub parallel: bool,
    /// Worker-thread count when `parallel` is set. `0` plans automatically
    /// from the workload (`crate::parallel::plan_threads` over the
    /// `|D_te| × |D_N|` pair volume); a positive value pins the count, which
    /// property tests use to force multi-threaded merges on tiny inputs.
    pub threads: usize,
    /// Comparison organisation.
    pub grouping: GroupingStrategy,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            tau_w: 0.9,
            parallel: true,
            threads: 0,
            grouping: GroupingStrategy::SignatureDedup,
        }
    }
}

impl TraceConfig {
    fn validate(&self) -> Result<()> {
        if !(self.tau_w > 0.0 && self.tau_w <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "tau_w",
                message: format!("must be in (0, 1], got {}", self.tau_w),
            });
        }
        if let GroupingStrategy::FrequentRuleSets { min_support } = self.grouping {
            if !(min_support > 0.0 && min_support <= 1.0) {
                return Err(CoreError::InvalidParameter {
                    name: "min_support",
                    message: format!("must be in (0, 1], got {min_support}"),
                });
            }
        }
        Ok(())
    }
}

/// Everything the tracer needs, decoupled from raw features.
///
/// `train_acts` / `test_acts` must have one bit per model rule; rule weights
/// and per-class masks come from the same [`RuleModel`] (or are reproduced
/// by the federation in the privacy-preserving deployment).
pub struct TraceInputs<'a> {
    /// Training activation matrix (`|D_N| × m` bits).
    pub train_acts: &'a ActivationMatrix,
    /// Training labels.
    pub train_labels: &'a [u32],
    /// Owning client of each training row.
    pub client_of: &'a [u32],
    /// Number of clients `n`.
    pub n_clients: usize,
    /// Test activation matrix (`|D_te| × m` bits).
    pub test_acts: &'a ActivationMatrix,
    /// Test labels.
    pub test_labels: &'a [u32],
    /// Model predictions on the test set.
    pub predictions: &'a [usize],
    /// Rule weights (`m` entries).
    pub weights: &'a [f64],
    /// Per-class rule masks.
    pub class_masks: &'a [Vec<u64>],
}

impl<'a> TraceInputs<'a> {
    fn test_side(&self) -> TestSide<'a> {
        TestSide {
            acts: self.test_acts,
            labels: self.test_labels,
            predictions: self.predictions,
            weights: self.weights,
            class_masks: self.class_masks,
        }
    }
}

/// The model-independent half of [`TraceInputs`]: activation matrices,
/// labels, ownership and predictions. Everything except the rule weights
/// and class masks, which [`inputs_from_model`] borrows from the model.
///
/// Borrowed (not owned) so the same parts can be re-traced against several
/// models — e.g. the privacy pipeline re-scoring with quarantined uploads —
/// and `Copy` so call sites can reuse one value freely.
#[derive(Debug, Clone, Copy)]
pub struct TraceParts<'a> {
    /// Training activation matrix (`|D_N| × m` bits).
    pub train_acts: &'a ActivationMatrix,
    /// Training labels.
    pub train_labels: &'a [u32],
    /// Owning client of each training row.
    pub client_of: &'a [u32],
    /// Number of clients `n`.
    pub n_clients: usize,
    /// Test activation matrix (`|D_te| × m` bits).
    pub test_acts: &'a ActivationMatrix,
    /// Test labels.
    pub test_labels: &'a [u32],
    /// Model predictions on the test set.
    pub predictions: &'a [usize],
}

/// Builds [`TraceInputs`] from a model and pre-assembled [`TraceParts`]
/// (the non-private convenience path used by the estimator).
pub fn inputs_from_model<'a>(model: &'a RuleModel, parts: TraceParts<'a>) -> TraceInputs<'a> {
    TraceInputs {
        train_acts: parts.train_acts,
        train_labels: parts.train_labels,
        client_of: parts.client_of,
        n_clients: parts.n_clients,
        test_acts: parts.test_acts,
        test_labels: parts.test_labels,
        predictions: parts.predictions,
        weights: model.weights(),
        class_masks: model.class_masks_all(),
    }
}

/// The trace of a single test instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TestTrace {
    /// Model prediction.
    pub predicted: usize,
    /// Ground-truth label.
    pub actual: usize,
    /// The traced class `c*` (= `actual` when correct, `predicted` when not).
    pub traced_class: usize,
    /// `w* · r*(x_te)` — the weighted activated rules supporting `c*`.
    pub denom: f64,
    /// `|D_i ∩ ct(x_te, y_te, τ_w)|` per client `i`.
    pub related_per_client: Vec<u32>,
}

impl TestTrace {
    /// Whether the model classified this instance correctly.
    pub fn correct(&self) -> bool {
        self.predicted == self.actual
    }

    /// Total related training instances across clients.
    pub fn total_related(&self) -> u64 {
        self.related_per_client.iter().map(|&c| c as u64).sum()
    }
}

/// Full output of the tracing pass: per-test relations plus the aggregate
/// statistics that robustness and interpretation build on.
///
/// `PartialEq` compares every field bit-for-bit (f64 equality), which is
/// exactly what the parallel-vs-serial and sharded-vs-monolithic
/// equivalence tests need.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOutcome {
    /// One entry per test instance.
    pub per_test: Vec<TestTrace>,
    /// Number of clients.
    pub n_clients: usize,
    /// Number of rules.
    pub n_rules: usize,
    /// Per training row: how many *correctly classified* test instances it
    /// was related to (its beneficial match count).
    pub train_benefit_counts: Vec<u32>,
    /// Per training row: how many *misclassified* test instances it was
    /// related to (its harmful match count, used for label-flip detection).
    pub train_harm_counts: Vec<u32>,
    /// `n_clients × n_rules` weighted rule-activation frequencies from
    /// beneficial matches (paper Section IV-B: regularised by rule weights).
    pub(crate) client_rule_benefit: Vec<f64>,
    /// Same, from harmful matches.
    pub(crate) client_rule_harm: Vec<f64>,
}

impl TraceOutcome {
    /// Builds an outcome from per-test traces alone, with zeroed aggregate
    /// statistics. Useful for testing allocation schemes and for consumers
    /// that construct traces externally (e.g. the privacy pipeline).
    pub fn from_per_test(per_test: Vec<TestTrace>, n_clients: usize, n_rules: usize) -> Self {
        TraceOutcome {
            per_test,
            n_clients,
            n_rules,
            train_benefit_counts: Vec::new(),
            train_harm_counts: Vec::new(),
            client_rule_benefit: vec![0.0; n_clients * n_rules],
            client_rule_harm: vec![0.0; n_clients * n_rules],
        }
    }

    /// Weighted beneficial activation frequency of `rule` for `client`.
    pub fn benefit_freq(&self, client: usize, rule: usize) -> f64 {
        self.client_rule_benefit[client * self.n_rules + rule]
    }

    /// Weighted harmful activation frequency of `rule` for `client`.
    pub fn harm_freq(&self, client: usize, rule: usize) -> f64 {
        self.client_rule_harm[client * self.n_rules + rule]
    }

    /// Test accuracy implied by the traced predictions.
    pub fn test_accuracy(&self) -> f64 {
        if self.per_test.is_empty() {
            return 0.0;
        }
        self.per_test.iter().filter(|t| t.correct()).count() as f64 / self.per_test.len() as f64
    }
}

/// Borrowed row-level access to the training side of a trace.
///
/// Implemented by the monolithic [`TraceInputs`] and by
/// [`ShardedActivations`]: the validator and the kernel are generic over
/// this trait, so both stores run the *same* code and therefore produce
/// identical output bytes and errors (pinned by property tests).
pub trait TrainAccess: Sync {
    /// Number of training rows.
    fn n_rows(&self) -> usize;
    /// Activation width (rule count) of every row.
    fn n_bits(&self) -> usize;
    /// Packed activation words of a global row.
    fn row_words(&self, row: usize) -> &[u64];
    /// Label of a global row.
    fn label(&self, row: usize) -> u32;
    /// Owning client of a global row.
    fn client(&self, row: usize) -> u32;
    /// Checks that per-row side arrays supplied apart from the activations
    /// cover every row. A store whose construction guarantees this keeps
    /// the default.
    fn check_lengths(&self) -> Result<()> {
        Ok(())
    }
    /// Every row's `(client, label)`, in row order: the validator's scan.
    /// A store with cheaper sequential access than per-row lookups
    /// overrides it.
    fn owners_and_labels(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n_rows()).map(|r| (self.client(r), self.label(r)))
    }
}

impl TrainAccess for TraceInputs<'_> {
    fn n_rows(&self) -> usize {
        self.train_acts.n_rows()
    }
    fn n_bits(&self) -> usize {
        self.train_acts.n_bits()
    }
    #[inline]
    fn row_words(&self, row: usize) -> &[u64] {
        self.train_acts.row_words(row)
    }
    #[inline]
    fn label(&self, row: usize) -> u32 {
        self.train_labels[row]
    }
    #[inline]
    fn client(&self, row: usize) -> u32 {
        self.client_of[row]
    }
    fn check_lengths(&self) -> Result<()> {
        let n = self.train_acts.n_rows();
        for (what, actual) in
            [("train labels", self.train_labels.len()), ("client assignment", self.client_of.len())]
        {
            if actual != n {
                return Err(CoreError::LengthMismatch { what, expected: n, actual });
            }
        }
        Ok(())
    }
}

impl TrainAccess for ShardedActivations {
    fn n_rows(&self) -> usize {
        ShardedActivations::n_rows(self)
    }
    fn n_bits(&self) -> usize {
        ShardedActivations::n_bits(self)
    }
    #[inline]
    fn row_words(&self, row: usize) -> &[u64] {
        ShardedActivations::row_words(self, row)
    }
    #[inline]
    fn label(&self, row: usize) -> u32 {
        ShardedActivations::label(self, row)
    }
    #[inline]
    fn client(&self, row: usize) -> u32 {
        ShardedActivations::client(self, row)
    }
    fn owners_and_labels(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.shards().iter().flat_map(|s| s.labels.iter().map(move |&l| (s.client, l)))
    }
}

/// The federation-owned test side of a trace plus the model's rule weights
/// and per-class masks.
struct TestSide<'a> {
    acts: &'a ActivationMatrix,
    labels: &'a [u32],
    predictions: &'a [usize],
    weights: &'a [f64],
    class_masks: &'a [Vec<u64>],
}

/// The one input validator, shared by every trace entry point: widths,
/// lengths, class-mask word counts, and every owner, label and prediction
/// in range. Everything the kernel indexes by is checked here, so valid
/// inputs cannot panic it.
fn validate(train: &impl TrainAccess, n_clients: usize, test: &TestSide<'_>) -> Result<()> {
    let m = train.n_bits();
    let n_test = test.acts.n_rows();
    train.check_lengths()?;
    for (what, expected, actual) in [
        ("test activation width", m, test.acts.n_bits()),
        ("test labels", n_test, test.labels.len()),
        ("predictions", n_test, test.predictions.len()),
        ("rule weights", m, test.weights.len()),
    ] {
        if actual != expected {
            return Err(CoreError::LengthMismatch { what, expected, actual });
        }
    }
    let words = m.div_ceil(64);
    if let Some(mask) = test.class_masks.iter().find(|mask| mask.len() != words) {
        return Err(CoreError::LengthMismatch {
            what: "class mask words",
            expected: words,
            actual: mask.len(),
        });
    }
    let n_classes = test.class_masks.len();
    let label_error = |what: &str, l: u32| CoreError::InvalidParameter {
        name: "labels",
        message: format!("{what} {l} >= n_classes {n_classes}"),
    };
    // One pass over the training rows, owner before label.
    let bad = |&(c, l): &(u32, u32)| c as usize >= n_clients || l as usize >= n_classes;
    if let Some((c, l)) = train.owners_and_labels().find(bad) {
        return Err(if c as usize >= n_clients {
            CoreError::InvalidParameter {
                name: "client_of",
                message: format!("client {c} >= n_clients {n_clients}"),
            }
        } else {
            label_error("train label", l)
        });
    }
    if let Some(&l) = test.labels.iter().find(|&&l| l as usize >= n_classes) {
        return Err(label_error("test label", l));
    }
    if let Some(&p) = test.predictions.iter().find(|&&p| p >= n_classes) {
        return Err(CoreError::ClassOutOfRange { class: p, n_classes });
    }
    Ok(())
}

/// Validates both the configuration and the inputs, then runs the kernel.
fn trace_checked<T: TrainAccess>(
    train: &T,
    n_clients: usize,
    test: &TestSide<'_>,
    config: &TraceConfig,
) -> Result<TraceOutcome> {
    config.validate()?;
    validate(train, n_clients, test)?;
    Ok(trace_kernel(train, n_clients, test, config))
}

/// Minimum `|D_te| × |D_N|` pair volume before the kernel spawns worker
/// threads in auto mode (below this, spawn overhead dominates).
const PAIR_FLOOR: usize = 65_536;

/// Runs the tracing pass over monolithic inputs.
///
/// Complexity: `O(|D_te| · |D_N|)` pairwise worst case, reduced by the
/// configured [`GroupingStrategy`] and chunked over scoped worker threads
/// when `config.parallel` is set. Output is identical for every strategy,
/// thread count, and for [`trace_sharded`] over the same rows — the
/// aggregate tables are defined as `weight × exact integer match-count`,
/// so merges are integer sums that no thread interleaving can perturb.
/// Malformed inputs (mismatched widths or lengths, out-of-range owners,
/// labels or predictions, class masks of the wrong word count) are typed
/// errors.
pub fn trace(inputs: &TraceInputs<'_>, config: &TraceConfig) -> Result<TraceOutcome> {
    trace_checked(inputs, inputs.n_clients, &inputs.test_side(), config)
}

/// Inputs for tracing directly over a sharded per-client store: the
/// training side lives in [`ShardedActivations`] (labels and ownership
/// included), only the test side is monolithic.
pub struct ShardedTraceInputs<'a> {
    /// Sharded training activations (labels and client ownership included).
    pub train: &'a ShardedActivations,
    /// Number of clients `n` (may exceed the shard count if some clients
    /// uploaded nothing).
    pub n_clients: usize,
    /// Test activation matrix (`|D_te| × m` bits).
    pub test_acts: &'a ActivationMatrix,
    /// Test labels.
    pub test_labels: &'a [u32],
    /// Model predictions on the test set.
    pub predictions: &'a [usize],
    /// Rule weights (`m` entries).
    pub weights: &'a [f64],
    /// Per-class rule masks.
    pub class_masks: &'a [Vec<u64>],
}

/// Runs the tracing pass zero-copy over a sharded per-client store.
///
/// Bit-identical to flattening the store with
/// [`ShardedActivations::to_matrix`] and calling [`trace`] — both paths
/// run the same validator and generic kernel, and global row order is
/// preserved by construction.
pub fn trace_sharded(inputs: &ShardedTraceInputs<'_>, config: &TraceConfig) -> Result<TraceOutcome> {
    let test = TestSide {
        acts: inputs.test_acts,
        labels: inputs.test_labels,
        predictions: inputs.predictions,
        weights: inputs.weights,
        class_masks: inputs.class_masks,
    };
    trace_checked(inputs.train, inputs.n_clients, &test, config)
}

/// Pinned naive oracle for [`trace`]: pair-by-pair, per-bit matrix reads,
/// no grouping, no parallelism, no word tricks.
///
/// Sums `weights[bit]` in globally ascending bit order — the same f64
/// addition sequence the word-parallel kernels use — so numerators,
/// denominators and therefore related sets match the fast path *bitwise*,
/// not just approximately. Property tests and the `scale_sweep` speedup
/// gate both compare against this function.
pub fn trace_reference(inputs: &TraceInputs<'_>, config: &TraceConfig) -> Result<TraceOutcome> {
    config.validate()?;
    validate(inputs, inputs.n_clients, &inputs.test_side())?;

    let n_test = inputs.test_acts.n_rows();
    let n_train = inputs.train_acts.n_rows();
    let n_rules = inputs.train_acts.n_bits();
    let mask_bit = |mask: &[u64], bit: usize| mask[bit / 64] >> (bit % 64) & 1 == 1;

    let mut per_test = Vec::with_capacity(n_test);
    let mut train_benefit_counts = vec![0u32; n_train];
    let mut train_harm_counts = vec![0u32; n_train];
    let mut benefit_cells = vec![0u64; inputs.n_clients * n_rules];
    let mut harm_cells = vec![0u64; inputs.n_clients * n_rules];

    for t in 0..n_test {
        let actual = inputs.test_labels[t] as usize;
        let predicted = inputs.predictions[t];
        let correct = predicted == actual;
        let c = if correct { actual } else { predicted };
        let mask = &inputs.class_masks[c];
        let mut denom = 0.0;
        for bit in 0..n_rules {
            if mask_bit(mask, bit) && inputs.test_acts.get(t, bit) {
                denom += inputs.weights[bit];
            }
        }
        let mut related_per_client = vec![0u32; inputs.n_clients];
        if denom > 0.0 {
            let threshold = config.tau_w * denom - 1e-12;
            for tr in 0..n_train {
                if inputs.train_labels[tr] as usize != c {
                    continue;
                }
                let mut num = 0.0;
                for bit in 0..n_rules {
                    if mask_bit(mask, bit)
                        && inputs.test_acts.get(t, bit)
                        && inputs.train_acts.get(tr, bit)
                    {
                        num += inputs.weights[bit];
                    }
                }
                if num < threshold {
                    continue;
                }
                related_per_client[inputs.client_of[tr] as usize] += 1;
                let base = inputs.client_of[tr] as usize * n_rules;
                let (row_counts, cells) = if correct {
                    (&mut train_benefit_counts, &mut benefit_cells)
                } else {
                    (&mut train_harm_counts, &mut harm_cells)
                };
                row_counts[tr] += 1;
                for bit in 0..n_rules {
                    if mask_bit(mask, bit)
                        && inputs.test_acts.get(t, bit)
                        && inputs.train_acts.get(tr, bit)
                    {
                        cells[base + bit] += 1;
                    }
                }
            }
        }
        per_test.push(TestTrace {
            predicted,
            actual,
            traced_class: c,
            denom,
            related_per_client,
        });
    }

    Ok(TraceOutcome {
        per_test,
        n_clients: inputs.n_clients,
        n_rules,
        train_benefit_counts,
        train_harm_counts,
        client_rule_benefit: cells_to_table(&benefit_cells, inputs.weights, n_rules),
        client_rule_harm: cells_to_table(&harm_cells, inputs.weights, n_rules),
    })
}

/// Materialises a weighted frequency table from exact integer match
/// counts: `table[client, rule] = weights[rule] × count`.
fn cells_to_table(cells: &[u64], weights: &[f64], n_rules: usize) -> Vec<f64> {
    cells.iter().enumerate().map(|(i, &k)| weights[i % n_rules] * k as f64).collect()
}

/// Per-worker accumulator. Everything in here is an exact integer (or an
/// index-addressed trace), so merging accumulators is order-independent
/// and the parallel kernel's output cannot depend on thread timing.
struct TraceAcc {
    benefit_counts: Vec<u32>,
    harm_counts: Vec<u32>,
    benefit_cells: Vec<u64>,
    harm_cells: Vec<u64>,
    traces: Vec<(u32, TestTrace)>,
}

impl TraceAcc {
    fn new(n_train: usize, n_clients: usize, n_rules: usize) -> Self {
        TraceAcc {
            benefit_counts: vec![0; n_train],
            harm_counts: vec![0; n_train],
            benefit_cells: vec![0; n_clients * n_rules],
            harm_cells: vec![0; n_clients * n_rules],
            traces: Vec::new(),
        }
    }
}

/// The word-parallel trace kernel, generic over the training store.
fn trace_kernel<T: TrainAccess>(
    train: &T,
    n_clients: usize,
    test: &TestSide<'_>,
    config: &TraceConfig,
) -> TraceOutcome {
    let n_test = test.acts.n_rows();
    let n_train = train.n_rows();
    let n_rules = test.acts.n_bits();

    // Traced class and denominator per test row.
    let mut traced_class = vec![0usize; n_test];
    let mut denoms = vec![0f64; n_test];
    for t in 0..n_test {
        let actual = test.labels[t] as usize;
        let predicted = test.predictions[t];
        let c = if predicted == actual { actual } else { predicted };
        traced_class[t] = c;
        denoms[t] = test.acts.masked_weight_sum(t, &test.class_masks[c], test.weights);
    }

    // Pre-group training rows by label so each test row only scans rows of
    // its traced class.
    let n_classes = test.class_masks.len();
    let mut train_by_class: Vec<Vec<u32>> = vec![Vec::new(); n_classes];
    for i in 0..n_train {
        train_by_class[train.label(i) as usize].push(i as u32);
    }

    // Organise test rows into work groups according to the strategy. Each
    // group: (representative handling, member test indices, optional
    // candidate prefilter for training rows).
    let groups: Vec<WorkGroup> = match config.grouping {
        GroupingStrategy::BruteForce => {
            (0..n_test).map(|t| WorkGroup { members: vec![t as u32], candidates: None }).collect()
        }
        GroupingStrategy::SignatureDedup => {
            use std::collections::HashMap;
            let mut map: HashMap<(usize, u64), Vec<u32>> = HashMap::new();
            for t in 0..n_test {
                let key = (traced_class[t], test.acts.row_signature(t));
                map.entry(key).or_default().push(t as u32);
            }
            map.into_values().map(|members| WorkGroup { members, candidates: None }).collect()
        }
        GroupingStrategy::FrequentRuleSets { min_support } => build_frequent_groups(
            train,
            test,
            &traced_class,
            &denoms,
            min_support,
            config.tau_w,
            &train_by_class,
        ),
    };

    // Trace group chunks on scoped threads, each into a private
    // accumulator; merge below is pure integer addition + index placement.
    let n_threads = if config.parallel {
        plan_threads(n_test.saturating_mul(n_train), groups.len(), PAIR_FLOOR, config.threads)
    } else {
        1
    };
    let process_chunk = |gs: &[WorkGroup]| -> TraceAcc {
        let mut acc = TraceAcc::new(n_train, n_clients, n_rules);
        for g in gs {
            trace_group_into(train, test, config, g, &traced_class, &denoms, &train_by_class, n_clients, &mut acc);
        }
        acc
    };
    let accs: Vec<TraceAcc> = if n_threads > 1 && groups.len() > 1 {
        let chunk = groups.len().div_ceil(n_threads).max(1);
        let pc = &process_chunk;
        std::thread::scope(|s| {
            let handles: Vec<_> = groups.chunks(chunk).map(|gs| s.spawn(move || pc(gs))).collect();
            handles.into_iter().map(|h| h.join().expect("trace worker panicked")).collect()
        })
    } else {
        vec![process_chunk(&groups)]
    };

    // Merge worker accumulators in chunk order.
    let mut per_test: Vec<Option<TestTrace>> = vec![None; n_test];
    let mut train_benefit_counts = vec![0u32; n_train];
    let mut train_harm_counts = vec![0u32; n_train];
    let mut benefit_cells = vec![0u64; n_clients * n_rules];
    let mut harm_cells = vec![0u64; n_clients * n_rules];
    for acc in accs {
        for (dst, src) in train_benefit_counts.iter_mut().zip(&acc.benefit_counts) {
            *dst += src;
        }
        for (dst, src) in train_harm_counts.iter_mut().zip(&acc.harm_counts) {
            *dst += src;
        }
        for (dst, src) in benefit_cells.iter_mut().zip(&acc.benefit_cells) {
            *dst += src;
        }
        for (dst, src) in harm_cells.iter_mut().zip(&acc.harm_cells) {
            *dst += src;
        }
        for (t, tt) in acc.traces {
            per_test[t as usize] = Some(tt);
        }
    }

    let per_test: Vec<TestTrace> =
        per_test.into_iter().map(|t| t.expect("every test row belongs to a group")).collect();

    TraceOutcome {
        per_test,
        n_clients,
        n_rules,
        train_benefit_counts,
        train_harm_counts,
        client_rule_benefit: cells_to_table(&benefit_cells, test.weights, n_rules),
        client_rule_harm: cells_to_table(&harm_cells, test.weights, n_rules),
    }
}

struct WorkGroup {
    /// Test rows in this group. All members share the same traced class and
    /// activation signature (SignatureDedup) or a frequent rule subset
    /// (FrequentRuleSets). BruteForce uses singleton groups.
    members: Vec<u32>,
    /// Optional prefiltered candidate training rows (admissible superset of
    /// the related set of every member).
    candidates: Option<Vec<u32>>,
}

/// Traces one work group into the worker's accumulator.
///
/// All members share the representative's traced class and activation
/// signature (construction invariant), so the related set and the
/// per-related-row rule-overlap profile are computed **once** and applied
/// with integer multipliers — `n_correct` members feed the benefit
/// tables, `n_wrong` the harm tables. Under `SignatureDedup` on a skewed
/// test set this removes almost all duplicate pair work.
#[allow(clippy::too_many_arguments)]
fn trace_group_into<T: TrainAccess>(
    train: &T,
    test: &TestSide<'_>,
    config: &TraceConfig,
    group: &WorkGroup,
    traced_class: &[usize],
    denoms: &[f64],
    train_by_class: &[Vec<u32>],
    n_clients: usize,
    acc: &mut TraceAcc,
) {
    let rep = group.members[0] as usize;
    let c = traced_class[rep];
    let denom = denoms[rep];
    let mask = &test.class_masks[c];
    let rep_words = test.acts.row_words(rep);
    let n_rules = test.acts.n_bits();
    let mut related_train = Vec::new();
    let mut related_per_client = vec![0u32; n_clients];

    if denom > 0.0 {
        let threshold = config.tau_w * denom - 1e-12; // tolerate FP rounding at equality
        let scan: &[u32] = match &group.candidates {
            Some(c) => c,
            None => &train_by_class[c],
        };
        for &tr in scan {
            let tr = tr as usize;
            debug_assert_eq!(train.label(tr) as usize, c);
            let num = triple_weight_sum_words(rep_words, train.row_words(tr), mask, test.weights);
            if num >= threshold {
                related_train.push(tr as u32);
                related_per_client[train.client(tr) as usize] += 1;
            }
        }
    }

    let mut n_correct = 0u32;
    let mut n_wrong = 0u32;
    for &t in &group.members {
        if test.predictions[t as usize] == test.labels[t as usize] as usize {
            n_correct += 1;
        } else {
            n_wrong += 1;
        }
    }

    for &tr in &related_train {
        let tr = tr as usize;
        acc.benefit_counts[tr] += n_correct;
        acc.harm_counts[tr] += n_wrong;
        // Rules activated by BOTH the training row and the (shared) test
        // signature within the traced mask, counted once per member via
        // the integer multipliers.
        let base = train.client(tr) as usize * n_rules;
        for (wi, ((aw, bw), mw)) in train.row_words(tr).iter().zip(rep_words).zip(mask).enumerate() {
            let mut bits = aw & bw & mw;
            while bits != 0 {
                let bit = wi * 64 + bits.trailing_zeros() as usize;
                acc.benefit_cells[base + bit] += n_correct as u64;
                acc.harm_cells[base + bit] += n_wrong as u64;
                bits &= bits - 1;
            }
        }
    }

    for &t in &group.members {
        let t = t as usize;
        acc.traces.push((
            t as u32,
            TestTrace {
                predicted: test.predictions[t],
                actual: test.labels[t] as usize,
                traced_class: c,
                denom: denoms[t],
                related_per_client: related_per_client.clone(),
            },
        ));
    }
}

/// Builds work groups for the FrequentRuleSets strategy.
///
/// Within each traced class, test activation vectors (restricted to the
/// class mask) form transactions; Max-Miner yields maximal frequent rule
/// sets; test rows sharing both the heaviest covering set *and* the full
/// activation signature form a group. The frequent set `F` gives an
/// admissible candidate prefilter: a training row can relate to a member
/// `t` only if its weighted overlap with `F` is at least
/// `weight(F) - (1 - τ_w) · denom(t)`.
fn build_frequent_groups<T: TrainAccess>(
    train: &T,
    test: &TestSide<'_>,
    traced_class: &[usize],
    denoms: &[f64],
    min_support: f64,
    tau_w: f64,
    train_by_class: &[Vec<u32>],
) -> Vec<WorkGroup> {
    use std::collections::HashMap;
    let n_test = test.acts.n_rows();
    let n_rules = test.acts.n_bits();
    let n_classes = test.class_masks.len();

    // First dedup by (class, signature) — members of a signature group have
    // identical related sets, so the frequent-set machinery only needs to
    // run per unique signature.
    let mut sig_groups: HashMap<(usize, u64), Vec<u32>> = HashMap::new();
    for t in 0..n_test {
        let key = (traced_class[t], test.acts.row_signature(t));
        sig_groups.entry(key).or_default().push(t as u32);
    }

    let mut out = Vec::new();
    for c in 0..n_classes {
        let reps: Vec<Vec<u32>> = sig_groups
            .iter()
            .filter(|((cls, _), _)| *cls == c)
            .map(|(_, members)| members.clone())
            .collect();
        if reps.is_empty() {
            continue;
        }
        // Transactions: masked activation words of each representative.
        let mask = &test.class_masks[c];
        let mut txs = TransactionSet::new(n_rules.max(1));
        for members in &reps {
            let rep = members[0] as usize;
            let masked: Vec<u64> =
                test.acts.row_words(rep).iter().zip(mask).map(|(a, m)| a & m).collect();
            txs.push_words(&masked);
        }
        let support = ((min_support * reps.len() as f64).ceil() as usize).max(1);
        let mined = max_miner(&txs, MaxMinerConfig { min_support: support, max_expansions: 4096 });
        let sets: Vec<_> = mined.iter().map(|(s, _)| s.clone()).collect();
        let assignment = assign_groups(&txs, &sets, test.weights);

        for (gi, members) in reps.into_iter().enumerate() {
            let rep = members[0] as usize;
            let candidates = assignment[gi].map(|set_idx| {
                let f = &sets[set_idx];
                let f_weight = f.weight(test.weights);
                // Admissible bound (see module docs): overlap(tr, F) >=
                // weight(F) - (1 - τ_w) * denom(rep).
                let bound = f_weight - (1.0 - tau_w) * denoms[rep] - 1e-9;
                let f_mask: Vec<u64> = f.words().to_vec();
                train_by_class[c]
                    .iter()
                    .copied()
                    .filter(|&tr| {
                        let overlap =
                            masked_weight_sum_words(train.row_words(tr as usize), &f_mask, test.weights);
                        overlap >= bound
                    })
                    .collect::<Vec<u32>>()
            });
            out.push(WorkGroup { members, candidates });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ActivationShard;

    type Figure2 =
        (ActivationMatrix, Vec<u32>, Vec<u32>, ActivationMatrix, Vec<u32>, Vec<usize>, Vec<f64>, Vec<Vec<u64>>);

    /// Builds the paper's Figure 2 scenario directly as activation
    /// matrices: 4 rules (r1+, r2+, r1-, r2-) with weights (1, 1, 1, 0.5),
    /// 3 clients, training data per Figure 2-(b).
    fn figure2() -> Figure2 {
        let weights = vec![1.0, 1.0, 1.0, 0.5];
        let class_masks = vec![
            ActivationMatrix::build_mask(4, [2usize, 3]), // class 0 (negative): r1-, r2-
            ActivationMatrix::build_mask(4, [0usize, 1]), // class 1 (positive): r1+, r2+
        ];
        // Training data:
        //  client A: 4 positive rows that learn r2+ (bit 1).
        //  client B: 6 negative rows with r1- and r2- (bits 2,3).
        //  client C: 2 negative rows with only r1- (bit 2),
        //            plus 1 negative row with r2- only (bit 3) for the FN case.
        let mut train = ActivationMatrix::zeros(0, 4);
        let mut labels = Vec::new();
        let mut clients = Vec::new();
        for _ in 0..4 {
            train.push_row(&[false, true, false, false]).unwrap();
            labels.push(1);
            clients.push(0); // A
        }
        for _ in 0..6 {
            train.push_row(&[false, false, true, true]).unwrap();
            labels.push(0);
            clients.push(1); // B
        }
        for _ in 0..2 {
            train.push_row(&[false, false, true, false]).unwrap();
            labels.push(0);
            clients.push(2); // C
        }
        train.push_row(&[false, false, false, true]).unwrap();
        labels.push(0);
        clients.push(2); // C

        // Test data (Figure 2-(b)):
        //  x1: y=1, r2+ active, predicted 1 (TP, matches A).
        //  x2: y=0, r1+ hypothetically... we encode an FP: predicted 1 with
        //      no positive training matches (activates r1+ only, bit 0).
        //  x3: y=0, r1- and r2- active, predicted 0 (TN, matches B fully and
        //      C at tau_w=0.6 via r1-).
        //  x4: y=1, r2- active, predicted 0 (FN, traced to C's r2- row).
        let mut test = ActivationMatrix::zeros(0, 4);
        test.push_row(&[false, true, false, false]).unwrap();
        test.push_row(&[true, false, false, false]).unwrap();
        test.push_row(&[false, false, true, true]).unwrap();
        test.push_row(&[false, false, false, true]).unwrap();
        let test_labels = vec![1, 0, 0, 1];
        let predictions = vec![1, 1, 0, 0];
        (train, labels, clients, test, test_labels, predictions, weights, class_masks)
    }

    fn run(tau_w: f64, grouping: GroupingStrategy) -> TraceOutcome {
        let (train, labels, clients, test, test_labels, preds, weights, masks) = figure2();
        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        trace(&inputs, &TraceConfig { tau_w, parallel: false, threads: 0, grouping }).unwrap()
    }

    #[test]
    fn example_iii3_strict_and_soft_thresholds() {
        // tau_w = 1.0: x3 relates only to B's 6 rows.
        let strict = run(1.0, GroupingStrategy::BruteForce);
        assert_eq!(strict.per_test[2].related_per_client, vec![0, 6, 0]);
        // tau_w = 0.6: C's two r1--only rows also match (2/3 >= 0.6).
        let soft = run(0.6, GroupingStrategy::BruteForce);
        assert_eq!(soft.per_test[2].related_per_client, vec![0, 6, 2]);
    }

    #[test]
    fn four_cases() {
        let out = run(0.6, GroupingStrategy::BruteForce);
        // TP: x1 matches A's 4 rows.
        assert!(out.per_test[0].correct());
        assert_eq!(out.per_test[0].related_per_client, vec![4, 0, 0]);
        // FP: x2 predicted positive, traced class = 1; no training row
        // activates r1+ so nobody is blamed.
        assert!(!out.per_test[1].correct());
        assert_eq!(out.per_test[1].traced_class, 1);
        assert_eq!(out.per_test[1].related_per_client, vec![0, 0, 0]);
        // FN: x4 predicted 0, traced class 0; C's r2--only row matches, and
        // B's rows (r1-+r2-) superset-match too.
        assert!(!out.per_test[3].correct());
        assert_eq!(out.per_test[3].traced_class, 0);
        assert_eq!(out.per_test[3].related_per_client, vec![0, 6, 1]);
        // Harm counts: only rows related to misclassified tests.
        let harm_total: u32 = out.train_harm_counts.iter().sum();
        assert_eq!(harm_total, 7);
    }

    #[test]
    fn strategies_agree() {
        for tau in [0.6, 0.8, 1.0] {
            let bf = run(tau, GroupingStrategy::BruteForce);
            let sig = run(tau, GroupingStrategy::SignatureDedup);
            let frs = run(tau, GroupingStrategy::FrequentRuleSets { min_support: 0.25 });
            assert_eq!(bf.per_test, sig.per_test, "tau={tau}");
            assert_eq!(bf.per_test, frs.per_test, "tau={tau}");
            assert_eq!(bf.train_benefit_counts, sig.train_benefit_counts);
            assert_eq!(bf.train_benefit_counts, frs.train_benefit_counts);
            assert_eq!(bf.train_harm_counts, frs.train_harm_counts);
        }
    }

    #[test]
    fn benefit_frequencies_follow_matches() {
        let out = run(0.6, GroupingStrategy::BruteForce);
        // Client A's beneficial frequency concentrates on rule 1 (r2+):
        // 4 related rows × weight 1.0.
        assert_eq!(out.benefit_freq(0, 1), 4.0);
        assert_eq!(out.benefit_freq(0, 0), 0.0);
        // Client B on rules 2,3 from x3: 6 rows × (1.0 and 0.5).
        assert_eq!(out.benefit_freq(1, 2), 6.0);
        assert_eq!(out.benefit_freq(1, 3), 3.0);
        // Harm: C's r2- row matched FN x4 (weight 0.5), B's rows too.
        assert_eq!(out.harm_freq(2, 3), 0.5);
        assert_eq!(out.harm_freq(1, 3), 3.0);
    }

    #[test]
    fn accuracy_and_denominators() {
        let out = run(1.0, GroupingStrategy::BruteForce);
        assert_eq!(out.test_accuracy(), 0.5);
        assert_eq!(out.per_test[2].denom, 1.5); // r1- (1.0) + r2- (0.5)
        assert_eq!(out.per_test[0].denom, 1.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let (train, labels, clients, test, test_labels, preds, weights, masks) = figure2();
        let mut bad_clients = clients.clone();
        bad_clients[0] = 99;
        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &bad_clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        assert!(trace(&inputs, &TraceConfig::default()).is_err());

        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        let bad_cfg = TraceConfig { tau_w: 0.0, ..TraceConfig::default() };
        assert!(trace(&inputs, &bad_cfg).is_err());
        let bad_cfg = TraceConfig { tau_w: 1.5, ..TraceConfig::default() };
        assert!(trace(&inputs, &bad_cfg).is_err());
        let bad_cfg = TraceConfig {
            grouping: GroupingStrategy::FrequentRuleSets { min_support: 0.0 },
            ..TraceConfig::default()
        };
        assert!(trace(&inputs, &bad_cfg).is_err());

        // A 70-rule model needs two mask words per class. One train and one
        // test row both fire rule 65, which supports class 0: with full
        // masks the test row relates to the train row; a mask cut to one
        // word is a typed error for every entry point, never a silently
        // empty trace or an out-of-bounds panic.
        let mut acts = ActivationMatrix::zeros(0, 70);
        acts.push_row(&(0..70).map(|b| b == 65).collect::<Vec<_>>()).unwrap();
        let full = vec![ActivationMatrix::build_mask(70, [65usize])];
        let cut = vec![vec![full[0][0]]];
        let weights = vec![1.0; 70];
        let store = ShardedActivations::from_shards(vec![ActivationShard {
            client: 0,
            acts: acts.clone(),
            labels: vec![0],
        }])
        .unwrap();
        let cfg = TraceConfig { parallel: false, ..TraceConfig::default() };
        for (masks, ok) in [(&full, true), (&cut, false)] {
            let mono = TraceInputs {
                train_acts: &acts,
                train_labels: &[0],
                client_of: &[0],
                n_clients: 1,
                test_acts: &acts,
                test_labels: &[0],
                predictions: &[0],
                weights: &weights,
                class_masks: masks,
            };
            let sharded = ShardedTraceInputs {
                train: &store,
                n_clients: 1,
                test_acts: &acts,
                test_labels: &[0],
                predictions: &[0],
                weights: &weights,
                class_masks: masks,
            };
            for out in
                [trace(&mono, &cfg), trace_sharded(&sharded, &cfg), trace_reference(&mono, &cfg)]
            {
                if ok {
                    let out = out.unwrap();
                    assert_eq!(out.per_test[0].related_per_client, vec![1]);
                    assert_eq!(out.per_test[0].denom, 1.0);
                } else {
                    let err = CoreError::LengthMismatch {
                        what: "class mask words",
                        expected: 2,
                        actual: 1,
                    };
                    assert_eq!(out.unwrap_err(), err);
                }
            }
        }
    }

    #[test]
    fn multiclass_tracing_follows_traced_class() {
        // 3 classes, one rule per class (bits 0/1/2), unit weights.
        let masks: Vec<Vec<u64>> =
            (0..3).map(|c| ActivationMatrix::build_mask(3, [c])).collect();
        let mut train = ActivationMatrix::zeros(0, 3);
        let mut labels = Vec::new();
        let mut clients = Vec::new();
        // Client c holds 2 rows of class c activating its rule.
        for c in 0..3u32 {
            for _ in 0..2 {
                let bits: Vec<bool> = (0..3).map(|b| b == c as usize).collect();
                train.push_row(&bits).unwrap();
                labels.push(c);
                clients.push(c);
            }
        }
        // Tests: one correct per class, plus one misclassified (true 0,
        // predicted 2).
        let mut test = ActivationMatrix::zeros(0, 3);
        for c in 0..3usize {
            let bits: Vec<bool> = (0..3).map(|b| b == c).collect();
            test.push_row(&bits).unwrap();
        }
        test.push_row(&[false, false, true]).unwrap();
        let test_labels = vec![0, 1, 2, 0];
        let predictions = vec![0usize, 1, 2, 2];
        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &predictions,
            weights: &[1.0, 1.0, 1.0],
            class_masks: &masks,
        };
        let out =
            trace(&inputs, &TraceConfig { tau_w: 1.0, parallel: false, ..Default::default() })
                .unwrap();
        // Each correct test relates only to its class's client.
        for c in 0..3 {
            let mut expect = vec![0u32; 3];
            expect[c] = 2;
            assert_eq!(out.per_test[c].related_per_client, expect, "class {c}");
        }
        // The misclassified test traces the WRONG class (2): client 2 is
        // responsible.
        assert_eq!(out.per_test[3].traced_class, 2);
        assert_eq!(out.per_test[3].related_per_client, vec![0, 0, 2]);
    }

    #[test]
    fn reference_oracle_matches_fast_path_exactly() {
        let (train, labels, clients, test, test_labels, preds, weights, masks) = figure2();
        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        for tau_w in [0.6, 0.8, 0.9, 1.0] {
            let reference =
                trace_reference(&inputs, &TraceConfig { tau_w, ..TraceConfig::default() }).unwrap();
            for grouping in [
                GroupingStrategy::BruteForce,
                GroupingStrategy::SignatureDedup,
                GroupingStrategy::FrequentRuleSets { min_support: 0.25 },
            ] {
                let fast =
                    trace(&inputs, &TraceConfig { tau_w, parallel: false, threads: 0, grouping })
                        .unwrap();
                assert_eq!(fast, reference, "tau_w={tau_w} grouping={grouping:?}");
            }
        }
    }

    #[test]
    fn forced_thread_counts_are_bit_identical() {
        let (train, labels, clients, test, test_labels, preds, weights, masks) = figure2();
        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        let serial = trace(
            &inputs,
            &TraceConfig { tau_w: 0.8, parallel: false, ..TraceConfig::default() },
        )
        .unwrap();
        for threads in 1..=4 {
            let parallel = trace(
                &inputs,
                &TraceConfig { tau_w: 0.8, parallel: true, threads, ..TraceConfig::default() },
            )
            .unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn sharded_trace_matches_monolithic() {
        let (train, labels, clients, test, test_labels, preds, weights, masks) = figure2();
        // Rebuild the training side as per-client shards in client order
        // (figure2 rows already arrive grouped by client).
        let mut shards: Vec<ActivationShard> = Vec::new();
        for tr in 0..train.n_rows() {
            let client = clients[tr];
            if shards.last().map(|s: &ActivationShard| s.client) != Some(client) {
                shards.push(ActivationShard {
                    client,
                    acts: ActivationMatrix::zeros(0, train.n_bits()),
                    labels: Vec::new(),
                });
            }
            let shard = shards.last_mut().unwrap();
            shard.acts.extend_from_words(1, train.row_words(tr)).unwrap();
            shard.labels.push(labels[tr]);
        }
        let store = ShardedActivations::from_shards(shards).unwrap();
        let mono_inputs = TraceInputs {
            train_acts: &train,
            train_labels: &labels,
            client_of: &clients,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        let sharded_inputs = ShardedTraceInputs {
            train: &store,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        for tau_w in [0.6, 1.0] {
            let cfg = TraceConfig { tau_w, parallel: false, ..TraceConfig::default() };
            let mono = trace(&mono_inputs, &cfg).unwrap();
            let sharded = trace_sharded(&sharded_inputs, &cfg).unwrap();
            assert_eq!(sharded, mono, "tau_w={tau_w}");
        }
    }

    #[test]
    fn sharded_inputs_validated() {
        let (train, labels, _clients, test, test_labels, preds, weights, masks) = figure2();
        let store = ShardedActivations::from_shards(vec![ActivationShard {
            client: 7, // >= n_clients
            acts: train.clone(),
            labels: labels.clone(),
        }])
        .unwrap();
        let inputs = ShardedTraceInputs {
            train: &store,
            n_clients: 3,
            test_acts: &test,
            test_labels: &test_labels,
            predictions: &preds,
            weights: &weights,
            class_masks: &masks,
        };
        assert!(trace_sharded(&inputs, &TraceConfig::default()).is_err());
    }

    #[test]
    fn zero_denominator_relates_nothing() {
        // A test row with no activated rules in its traced class.
        let mut train = ActivationMatrix::zeros(0, 2);
        train.push_row(&[true, false]).unwrap();
        let mut test = ActivationMatrix::zeros(0, 2);
        test.push_row(&[false, false]).unwrap();
        let masks =
            vec![ActivationMatrix::build_mask(2, [1usize]), ActivationMatrix::build_mask(2, [0usize])];
        let inputs = TraceInputs {
            train_acts: &train,
            train_labels: &[1],
            client_of: &[0],
            n_clients: 1,
            test_acts: &test,
            test_labels: &[1],
            predictions: &[1],
            weights: &[1.0, 1.0],
            class_masks: &masks,
        };
        let out = trace(&inputs, &TraceConfig { parallel: false, ..TraceConfig::default() }).unwrap();
        assert_eq!(out.per_test[0].related_per_client, vec![0]);
        assert_eq!(out.per_test[0].denom, 0.0);
    }
}
