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
//!
//! # Kernel contract
//!
//! The kernel's related sets are the exact Eq. 4 test's, bit for bit; the
//! pinned per-bit oracle [`trace_reference`] checks this with `==`.
//!
//! * **Class arenas.** Once per trace, each class's training row ids are
//!   gathered in global row order, through [`TrainAccess`], so both row
//!   stores scan the same rows in the same order. A work group scans its
//!   traced class a block of 64 rows at a time; `FrequentRuleSets`
//!   candidates are a per-block mask of arena positions. The first group
//!   that scans a class with a bound also builds the class's rows
//!   bit-major, one `u64` per rule bit per block, by 64 × 64 bit-matrix
//!   transposes; a class no group bounds never pays for them.
//! * **Missing-weight bound.** A work group with at least
//!   `BOUND_MIN_BITS` (12) traced bits `R = rep & mask`, whose weights
//!   quantize to more than twice the budget, first bounds from below the
//!   traced weight each row misses, in integer units of an eighth of a
//!   related row's missing-weight budget. It evaluates the bound on 64
//!   rows at once: a bit-sliced counter over the block's columns, heaviest
//!   weight first, stopping once every row of the block is ruled out. A
//!   row the bound rules out provably fails the exact test, including its
//!   f64 rounding (the argument is on `MissBound`); it needs finite,
//!   non-negative weights, which the validator checks.
//! * **Exact check of survivors.** Every row the bound does not rule out,
//!   and every row of an unbounded group, gets the exact
//!   `triple_weight_sum_words(..) >= threshold` test on its words in the
//!   store, summed in ascending bit order like the oracle, and related
//!   rows come out in ascending order.
//! * **Apply.** A worker applies each group's related rows to the one set
//!   of output tables, under a lock, as soon as it has them, as exact
//!   integer counts: no thread holds a per-client table or a backlog of
//!   related rows of its own.

// Index-based loops below mirror the textbook formulations; iterator
// rewrites obscure the row/column arithmetic.
#![allow(clippy::needless_range_loop)]
use crate::activation::{masked_weight_sum_words, triple_weight_sum_words, ActivationMatrix};
use crate::error::{CoreError, Result};
use crate::model::{check_artifacts, RuleModel};
use crate::parallel::{map_chunks, plan_threads};
use crate::shard::ShardedActivations;
use ctfl_rulemine::{assign_groups, max_miner, MaxMinerConfig, TransactionSet};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Strategy for organising the `|D_te| × |D_N|` comparison.
///
/// All strategies produce **identical** [`TraceOutcome`]s; they differ only
/// in speed (verified by property tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupingStrategy {
    /// Compare every test instance against every training instance.
    BruteForce,
    /// Deduplicate test instances with identical activation rows and
    /// traced class; each unique row is traced once.
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
/// lengths, class-mask word counts, finite non-negative rule weights, and
/// every owner, label and prediction in range. Everything the kernel
/// indexes by is checked here, so valid inputs cannot panic it.
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
    check_artifacts(test.weights, test.class_masks)?;
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

    // Gather training rows by label so each test row only scans rows of
    // its traced class, in ascending order, whichever store they came from.
    let arenas = ClassArena::gather(train, test.class_masks.len(), test.acts.words_per_row());

    // Organise test rows into work groups according to the strategy. Each
    // group: (representative handling, member test indices, optional
    // candidate prefilter for training rows).
    let groups: Vec<WorkGroup> = match config.grouping {
        GroupingStrategy::BruteForce => {
            (0..n_test).map(|t| WorkGroup { members: vec![t as u32], candidates: None }).collect()
        }
        GroupingStrategy::SignatureDedup => signature_groups(test, &traced_class)
            .into_values()
            .map(|members| WorkGroup { members, candidates: None })
            .collect(),
        GroupingStrategy::FrequentRuleSets { min_support } => build_frequent_groups(
            train,
            test,
            &traced_class,
            &denoms,
            min_support,
            config.tau_w,
            &arenas,
        ),
    };

    // Scan group chunks on worker threads, each applying a group's related
    // rows to the one set of tables as soon as it has them. Counts and
    // cells are exact integer sums and traces are placed by test index, so
    // neither the chunking nor the order of the applies can change the
    // output.
    let n_threads = if config.parallel {
        plan_threads(n_test.saturating_mul(n_train), groups.len(), PAIR_FLOOR, config.threads)
    } else {
        1
    };
    let tables = Mutex::new(GroupTables {
        per_test: vec![None; n_test],
        benefit_counts: vec![0; n_train],
        harm_counts: vec![0; n_train],
        benefit_cells: vec![0.0; n_clients * n_rules],
        harm_cells: vec![0.0; n_clients * n_rules],
    });
    map_chunks(&groups, n_threads, |gs| {
        for g in gs {
            let related = related_rows(train, test, config, g, &traced_class, &denoms, &arenas);
            // Only another worker's panic poisons the lock, and
            // `map_chunks` resumes that panic and drops these tables; this
            // worker carries on so that the caller sees that message.
            let mut tables = tables.lock().unwrap_or_else(PoisonError::into_inner);
            tables.apply(train, test, g, &related, &traced_class, &denoms, n_clients);
        }
    });
    let mut out = tables.into_inner().expect("map_chunks resumes any worker's panic");
    // Each cell becomes `weights[rule] × count` in place.
    for cells in [&mut out.benefit_cells, &mut out.harm_cells] {
        for row in cells.chunks_exact_mut(n_rules.max(1)) {
            for (cell, &w) in row.iter_mut().zip(test.weights) {
                *cell *= w;
            }
        }
    }

    let per_test: Vec<TestTrace> =
        out.per_test.into_iter().map(|t| t.expect("every test row belongs to a group")).collect();

    TraceOutcome {
        per_test,
        n_clients,
        n_rules,
        train_benefit_counts: out.benefit_counts,
        train_harm_counts: out.harm_counts,
        client_rule_benefit: out.benefit_cells,
        client_rule_harm: out.harm_cells,
    }
}

/// Test rows keyed by `(traced class, activation words)`: the members of
/// one key are identical rows of one class, so they share their related
/// set and the kernel traces each key once. Keying by the words rather
/// than a hash of them makes that hold for any rows; `ActivationMatrix`
/// keeps every row's tail bits zero, so equal words mean equal rows.
fn signature_groups<'a>(
    test: &TestSide<'a>,
    traced_class: &[usize],
) -> HashMap<(usize, &'a [u64]), Vec<u32>> {
    let mut groups: HashMap<(usize, &[u64]), Vec<u32>> = HashMap::new();
    for (t, &c) in traced_class.iter().enumerate() {
        groups.entry((c, test.acts.row_words(t))).or_default().push(t as u32);
    }
    groups
}

struct WorkGroup {
    /// Test rows in this group. All members share the same traced class and
    /// activation words (SignatureDedup) or a frequent rule subset
    /// (FrequentRuleSets). BruteForce uses singleton groups.
    members: Vec<u32>,
    /// Optional prefiltered candidates: a bit set over the positions of the
    /// traced class's [`ClassArena`], one word per 64-row block (an
    /// admissible superset of the related set of every member).
    candidates: Option<Vec<u64>>,
}

/// One class's training rows, gathered once per trace. Both stores gather
/// through [`TrainAccess`], so the pair scan visits the same rows, in the
/// same order, for either; the exact test and the `FrequentRuleSets`
/// candidate pass read each row's words from the store.
///
/// The first work group that scans the class with a [`MissBound`] also
/// builds the class's rows bit-major, which the bound reads; a trace in
/// which no group of the class is bounded (a planted five-rule model, or
/// τ_w ≤ 0.5) never builds them.
struct ClassArena {
    /// Global row index of each arena row, ascending.
    rows: Vec<u32>,
    words_per_row: usize,
    /// Per 64-row block, `words_per_row × 64` columns: bit `j` of column
    /// `b` is bit `b` of the block's row `j`. A short last block reads as
    /// all-zero rows past its end.
    cols: OnceLock<Vec<u64>>,
}

/// Transposes a 64 × 64 bit matrix in place: bit `c` of word `r` moves to
/// bit `r` of word `c`. Six rounds each swap the off-diagonal `j × j`
/// sub-blocks of every `2j × 2j` block, for `j` = 32, 16, …, 1.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            // Row `k`'s high half of each 2j-bit group trades places with
            // row `k + j`'s low half.
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

impl ClassArena {
    /// One arena per class, in one pass over the labels. The arenas grow
    /// as they fill: reserving each class's exact size up front took a
    /// second pass over the labels and measured 12 ms slower on
    /// `scale_sweep`'s first million-row cell.
    fn gather<T: TrainAccess>(train: &T, n_classes: usize, words_per_row: usize) -> Vec<Self> {
        let mut arenas: Vec<ClassArena> = (0..n_classes)
            .map(|_| ClassArena { rows: Vec::new(), words_per_row, cols: OnceLock::new() })
            .collect();
        for (row, (_, label)) in train.owners_and_labels().enumerate() {
            arenas[label as usize].rows.push(row as u32);
        }
        arenas
    }

    /// The columns of 64-row block `k`, building every block's on first
    /// use: one 64 × 64 transpose per (block, word), a fixed cost per block
    /// whatever the rows hold, which suits a trained model's dense rows.
    fn block<T: TrainAccess>(&self, train: &T, k: usize) -> &[u64] {
        let wpr = self.words_per_row;
        let cols = self.cols.get_or_init(|| {
            let mut cols = vec![0; self.rows.len().div_ceil(64) * wpr * 64];
            let mut tiles = vec![[0u64; 64]; wpr];
            for (block, out) in self.rows.chunks(64).zip(cols.chunks_exact_mut(wpr * 64)) {
                tiles.iter_mut().for_each(|tile| tile.fill(0));
                for (j, &row) in block.iter().enumerate() {
                    for (tile, &word) in tiles.iter_mut().zip(train.row_words(row as usize)) {
                        tile[j] = word;
                    }
                }
                for (tile, out) in tiles.iter_mut().zip(out.chunks_exact_mut(64)) {
                    transpose64(tile);
                    out.copy_from_slice(tile);
                }
            }
            cols
        });
        &cols[k * wpr * 64..(k + 1) * wpr * 64]
    }

    /// Global row indices, ascending, of the arena rows (all of them, or
    /// the `candidates` positions) that `bound` keeps and `related`
    /// accepts. The walk goes 64 positions at a time: the block's live
    /// rows are a mask, the bound clears the rows it rules out, and only
    /// the rest reach `related`.
    fn scan<T: TrainAccess>(
        &self,
        train: &T,
        candidates: Option<&[u64]>,
        bound: Option<&MissBound>,
        related: impl Fn(&[u64]) -> bool,
    ) -> Vec<u32> {
        let n = self.rows.len();
        let mut out = Vec::new();
        for k in 0..n.div_ceil(64) {
            let tail = n - k * 64;
            let mut live = if tail >= 64 { !0 } else { (1u64 << tail) - 1 };
            if let Some(c) = candidates {
                live &= c[k];
            }
            let mut keep = bound.map_or(live, |b| b.survivors(self.block(train, k), live));
            while keep != 0 {
                let row = self.rows[k * 64 + keep.trailing_zeros() as usize];
                if related(train.row_words(row as usize)) {
                    out.push(row);
                }
                keep &= keep - 1;
            }
        }
        out
    }
}

/// Traced-bit count at which a work group builds a [`MissBound`]. Below
/// it the exact sum is a few additions and the bound's popcounts cost
/// about as much as they save: one thread, 50k random rows at 45%
/// density, the bound lost at 8 traced bits in three of four 64- and
/// 230-bit cases at τ_w 0.7–0.8, and won in all eight at 12 (by 6–61%)
/// once the group also quantizes to more than [`MIN_TRACED_UNITS`]. A
/// planted five-rule model never reaches it.
const BOUND_MIN_BITS: u32 = 12;

/// The missing-weight budget of a related row, in [`MissBound`] units.
const BUDGET_UNITS: u32 = 8;

/// Quantized traced weight a group needs before the bound is built. A row
/// is ruled out only when it misses more than [`BUDGET_UNITS`] of the
/// group's units, so at or below twice the budget it must miss more than
/// half the traced weight: measured, 45–100% of the rows then survive
/// and the bound costs up to 1.7× the exact test alone. This is what low
/// τ_w does (the quantized total is about `8 / (1 − τ_w)` units, less
/// rounding).
const MIN_TRACED_UNITS: u32 = 2 * BUDGET_UNITS;

/// The largest quantized weight, in units: what a 4-plane counter holds.
/// Since `15 > BUDGET_UNITS`, one missed weight at the cap already rules a
/// row out, so the cap never changes a verdict.
const Q_CAP: u32 = 15;

/// An admissible integer lower bound on the traced weight a training row
/// misses, which rules out most rows of a wide work group before the
/// exact Eq. 4 test, 64 rows at a time.
///
/// For a group with traced bits `R = rep & mask`, `denom = Σ_{b∈R} w_b`
/// and `threshold`, a related row can miss at most
/// `slack = (denom − threshold) + 4·|R|·ε·denom` of weight (`ε` is
/// `f64::EPSILON`). Each traced weight is quantized down to
/// `q_b = min(⌊w_b / unit⌋, 15)` units of `unit = slack / 8`; a row `x`
/// misses at least `L(x) = Σ_{b∈R, b∉x} q_b` units. A row with `L(x) > 8`
/// is skipped; every other row gets the exact
/// `triple_weight_sum_words(..) >= threshold` test, so the related set is
/// the one the exact test alone finds.
///
/// **Evaluation.** The bound keeps its non-zero `(b, q_b)` terms heaviest
/// first and reads a block of 64 arena rows bit-major, one column word per
/// rule bit ([`ClassArena`]). A term worth more than the budget rules out
/// every live row missing its bit with one OR; a lighter one adds `q_b` to
/// a 4-plane bit-sliced counter of the rows missing it. The counter starts
/// every row at 7, so a carry out of its top plane means `L(x) ≥ 9` and
/// rules the row out. It sums the same `q_b` the row-wise `L(x)` does, so
/// every row gets the row-wise verdict `L(x) > 8`; the walk stops once
/// every live row of the block is ruled out.
///
/// **Why a skipped row is never related.** Weights are finite and
/// non-negative (the validator's check) and `denom` is finite. Write `M`
/// for the exact weight `x` misses, `u = ε/2` for the unit roundoff and
/// `γ = (|R| − 1)·u / (1 − (|R| − 1)·u)`. Both `denom` and the row's
/// numerator `num` add at most `|R|` non-negative terms in one fixed
/// order, so each is within a factor `1 ± γ` of its exact value; hence
/// `num < threshold` whenever `M > (denom − threshold) + 3γ·denom`. The
/// allowance `4|R|ε·denom` exceeds `3γ·denom` with room to spare for the
/// two roundings in computing `slack`. Dividing by 8 is exact while `unit`
/// is a normal number (otherwise no bound is built), and each rounded
/// quotient `w_b / unit` is at most `(1 + u)` times the real one, so
/// `L(x) ≥ 9` means `M ≥ 9·unit/(1 + u) > slack`. The `> 8` test thus
/// leaves a whole unit of margin beyond the rounding allowance.
struct MissBound {
    /// `(bit, q_b)` for every traced bit with `q_b > 0`, by descending
    /// `q_b`, ties in ascending bit order.
    terms: Vec<(u32, u32)>,
}

impl MissBound {
    /// The bound for the traced bits `rep & mask`, or `None` below
    /// [`BOUND_MIN_BITS`] traced bits or [`MIN_TRACED_UNITS`] quantized
    /// units, or when the unit is not a normal `f64` (an infinite `denom`,
    /// or a subnormal slack).
    fn new(rep: &[u64], mask: &[u64], weights: &[f64], denom: f64, threshold: f64) -> Option<Self> {
        let traced = rep.iter().zip(mask).map(|(r, m)| r & m);
        let n_traced: u32 = traced.clone().map(|w| w.count_ones()).sum();
        if n_traced < BOUND_MIN_BITS {
            return None;
        }
        let unit = Self::unit(n_traced, denom, threshold);
        if !unit.is_normal() {
            return None;
        }
        let mut terms = Vec::new();
        for (wi, word) in traced.enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = wi * 64 + bits.trailing_zeros() as usize;
                // A float-to-int cast saturates, so an infinite quotient
                // (a huge weight over a tiny unit) lands on the cap.
                let q = ((weights[b] / unit).floor() as u32).min(Q_CAP);
                if q > 0 {
                    terms.push((b as u32, q));
                }
                bits &= bits - 1;
            }
        }
        let total: u32 = terms.iter().map(|&(_, q)| q).sum();
        if total <= MIN_TRACED_UNITS {
            return None;
        }
        terms.sort_by_key(|&(_, q)| std::cmp::Reverse(q));
        Some(MissBound { terms })
    }

    /// `slack / 8`: the weight of one unit.
    fn unit(n_traced: u32, denom: f64, threshold: f64) -> f64 {
        let slack = (denom - threshold) + 4.0 * f64::from(n_traced) * f64::EPSILON * denom;
        slack / f64::from(BUDGET_UNITS)
    }

    /// The rows of `live` whose `L(x)` stays within the budget, for a block
    /// of 64 rows given as its `cols` (bit `j` of `cols[b]` is row `j`'s
    /// bit `b`).
    #[inline]
    fn survivors(&self, cols: &[u64], live: u64) -> u64 {
        // The rows ruled out, plus the rows outside `live`.
        let mut out = !live;
        // A 4-plane bit-sliced counter of `7 + units missed` per row, so a
        // carry out of the top plane means more than 8 units.
        let mut count = [!0u64, !0, !0, 0];
        for &(bit, q) in &self.terms {
            if out == !0 {
                break;
            }
            let miss = !cols[bit as usize];
            if q > BUDGET_UNITS {
                out |= miss;
                continue;
            }
            // Add `q` to the count of the rows missing `bit`.
            let mut carry = 0;
            for (p, plane) in count.iter_mut().enumerate() {
                let addend = miss & 0u64.wrapping_sub(u64::from(q >> p & 1));
                let half = *plane ^ addend;
                let next = (*plane & addend) | (carry & half);
                *plane = half ^ carry;
                carry = next;
            }
            out |= carry;
        }
        !out
    }
}

/// Global indices, ascending, of the training rows related to one work
/// group's representative. All members share its traced class and
/// activation words (construction invariant), so the related set is
/// computed **once** per group.
fn related_rows<T: TrainAccess>(
    train: &T,
    test: &TestSide<'_>,
    config: &TraceConfig,
    group: &WorkGroup,
    traced_class: &[usize],
    denoms: &[f64],
    arenas: &[ClassArena],
) -> Vec<u32> {
    let rep = group.members[0] as usize;
    let c = traced_class[rep];
    let denom = denoms[rep];
    if denom <= 0.0 {
        return Vec::new();
    }
    let mask = &test.class_masks[c];
    let rep_words = test.acts.row_words(rep);
    let threshold = config.tau_w * denom - 1e-12; // tolerate FP rounding at equality
    let exact =
        |row: &[u64]| triple_weight_sum_words(rep_words, row, mask, test.weights) >= threshold;
    let bound = MissBound::new(rep_words, mask, test.weights, denom, threshold);
    arenas[c].scan(train, group.candidates.as_deref(), bound.as_ref(), exact)
}

/// The kernel's output under construction: per-test traces by index, and
/// the exact integer counts the tables are made from. The per-(client,
/// rule) cells count in `f64`, which adds integers exactly below `2^53`,
/// so each holds `count as f64` until the weights scale it, as
/// [`cells_to_table`] computes it.
struct GroupTables {
    per_test: Vec<Option<TestTrace>>,
    benefit_counts: Vec<u32>,
    harm_counts: Vec<u32>,
    benefit_cells: Vec<f64>,
    harm_cells: Vec<f64>,
}

impl GroupTables {
    /// Applies one work group's related rows. Each related row's
    /// rule-overlap profile is applied once per group, with integer
    /// multipliers — `n_correct` members feed the benefit tables, `n_wrong`
    /// the harm tables. Under `SignatureDedup` on a skewed test set this
    /// removes almost all duplicate pair work.
    #[allow(clippy::too_many_arguments)]
    fn apply<T: TrainAccess>(
        &mut self,
        train: &T,
        test: &TestSide<'_>,
        group: &WorkGroup,
        related: &[u32],
        traced_class: &[usize],
        denoms: &[f64],
        n_clients: usize,
    ) {
        let rep = group.members[0] as usize;
        let c = traced_class[rep];
        let mask = &test.class_masks[c];
        let rep_words = test.acts.row_words(rep);
        let n_rules = test.acts.n_bits();
        let is_correct = |t: u32| test.predictions[t as usize] == test.labels[t as usize] as usize;
        let n_correct = group.members.iter().filter(|&&t| is_correct(t)).count() as u32;
        let n_wrong = group.members.len() as u32 - n_correct;

        let mut related_per_client = vec![0u32; n_clients];
        for &tr in related {
            let tr = tr as usize;
            self.benefit_counts[tr] += n_correct;
            self.harm_counts[tr] += n_wrong;
            related_per_client[train.client(tr) as usize] += 1;
        }
        // Each related row counts, for its client, the rules activated by
        // BOTH the row and the (shared) test signature within the traced
        // mask. A table whose multiplier is zero is skipped: adding `+0.0`
        // to a non-negative count changes no bit.
        for (cells, n) in [(&mut self.benefit_cells, n_correct), (&mut self.harm_cells, n_wrong)] {
            if n == 0 {
                continue;
            }
            for &tr in related {
                let tr = tr as usize;
                let base = train.client(tr) as usize * n_rules;
                let words = train.row_words(tr).iter().zip(rep_words).zip(mask);
                for (wi, ((aw, bw), mw)) in words.enumerate() {
                    let mut bits = aw & bw & mw;
                    while bits != 0 {
                        cells[base + wi * 64 + bits.trailing_zeros() as usize] += f64::from(n);
                        bits &= bits - 1;
                    }
                }
            }
        }

        for &t in &group.members {
            let t = t as usize;
            self.per_test[t] = Some(TestTrace {
                predicted: test.predictions[t],
                actual: test.labels[t] as usize,
                traced_class: c,
                denom: denoms[t],
                related_per_client: related_per_client.clone(),
            });
        }
    }
}

/// Builds work groups for the FrequentRuleSets strategy.
///
/// Within each traced class, test activation vectors (restricted to the
/// class mask) form transactions; Max-Miner yields maximal frequent rule
/// sets; test rows sharing both the heaviest covering set *and* the full
/// activation row form a group. The frequent set `F` gives an
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
    arenas: &[ClassArena],
) -> Vec<WorkGroup> {
    let n_rules = test.acts.n_bits();
    let n_classes = test.class_masks.len();

    // First dedup by (class, row words) — members of a signature group have
    // identical related sets, so the frequent-set machinery only needs to
    // run per unique row.
    let sig_groups = signature_groups(test, traced_class);

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
                let arena = &arenas[c];
                let mut candidates = vec![0u64; arena.rows.len().div_ceil(64)];
                for (pos, &row) in arena.rows.iter().enumerate() {
                    let row = train.row_words(row as usize);
                    if masked_weight_sum_words(row, f.words(), test.weights) >= bound {
                        candidates[pos / 64] |= 1 << (pos % 64);
                    }
                }
                candidates
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
    fn signature_groups_hold_identical_rows_of_one_class() {
        // 40 rows over 70 bits (two words): the words repeat with period
        // 10 (bit 64 with period 2), and the traced class with period 3, so
        // 30 keys, each the same words under one class.
        let rows: Vec<Vec<bool>> = (0..40)
            .map(|t| (0..70).map(|b| (t % 5 + b) % 7 == 0 || (b == 64 && t % 2 == 0)).collect())
            .collect();
        let acts = ActivationMatrix::from_rows(70, &rows).unwrap();
        let traced_class: Vec<usize> = (0..40).map(|t| t % 3).collect();
        let test =
            TestSide { acts: &acts, labels: &[], predictions: &[], weights: &[], class_masks: &[] };
        let groups = signature_groups(&test, &traced_class);
        assert_eq!(groups.len(), 30);
        let mut seen = [false; 40];
        for (&(class, words), members) in &groups {
            for &t in members {
                let t = t as usize;
                assert_eq!(traced_class[t], class, "row {t}");
                assert_eq!(acts.row_words(t), words, "row {t}");
                assert!(!std::mem::replace(&mut seen[t], true), "row {t} in two groups");
            }
        }
        assert!(seen.iter().all(|&s| s), "every row belongs to a group");
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

        // A NaN, infinite or negative rule weight is a typed error for
        // every entry point: NaN used to trace nothing, and a negative
        // weight let Eq. 4's ratio exceed 1.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut bad_weights = weights.clone();
            bad_weights[65] = bad;
            let mono = TraceInputs {
                train_acts: &acts,
                train_labels: &[0],
                client_of: &[0],
                n_clients: 1,
                test_acts: &acts,
                test_labels: &[0],
                predictions: &[0],
                weights: &bad_weights,
                class_masks: &full,
            };
            let sharded = ShardedTraceInputs {
                train: &store,
                n_clients: 1,
                test_acts: &acts,
                test_labels: &[0],
                predictions: &[0],
                weights: &bad_weights,
                class_masks: &full,
            };
            for out in
                [trace(&mono, &cfg), trace_sharded(&sharded, &cfg), trace_reference(&mono, &cfg)]
            {
                assert!(
                    matches!(out, Err(CoreError::InvalidParameter { name: "rule.weight", .. })),
                    "weight {bad} accepted"
                );
            }
        }

        // A row setting bit 100 of a 70-rule matrix, under a class mask
        // that also holds bit 100, used to panic the kernel indexing the
        // weights; the matrix itself is now refused.
        assert_eq!(
            ActivationMatrix::from_words(1, 70, vec![1, 1 << 36]),
            Err(CoreError::InvalidParameter {
                name: "activation words",
                message: "row 0 sets bit 100, past n_bits 70".into(),
            })
        );
    }

    /// One of six weight families: uniform, all equal (exact ties at
    /// `τ·denom`), powers of two, zeros mixed in, 1e6/1e-6 mixes, and a
    /// Pareto heavy tail.
    fn family_weight(g: &mut ctfl_testkit::prop::Gen, family: usize) -> f64 {
        match family {
            0 => g.f64_in(0.05, 2.0),
            1 => 1.0,
            2 => 2f64.powi(g.usize_in(0, 16) as i32 - 8),
            3 => [0.0, g.f64_in(0.05, 2.0)][g.usize_in(0, 1)],
            4 => [1e6, 1e-6][g.usize_in(0, 1)],
            _ => (1.0 - g.f64_in(0.0, 0.999)).powf(-1.0 / 1.2),
        }
    }

    /// The row-wise `L(x)`: the units of the bound's terms that `row`
    /// misses, summed one row at a time.
    fn units_missed(bound: &MissBound, row: &[u64]) -> u32 {
        let missed = |b: u32| row[b as usize / 64] >> (b % 64) & 1 == 0;
        bound.terms.iter().filter(|&&(b, _)| missed(b)).map(|&(_, q)| q).sum()
    }

    #[test]
    fn miss_bound_is_admissible_and_only_built_for_wide_groups() {
        use ctfl_testkit::{check, prop_assert};
        check(
            "miss_bound_is_admissible",
            256,
            |g| {
                let n_bits = g.usize_in(65, 300);
                let words = n_bits.div_ceil(64);
                let family = g.usize_in(0, 5);
                let weights = g.vec(n_bits, |g| family_weight(g, family));
                let tau_w = [0.5, 0.8, 0.9, 0.95, 1.0][g.usize_in(0, 4)];
                let density = g.f64_in(0.3, 0.95);
                let bits = |g: &mut ctfl_testkit::prop::Gen, p: f64| {
                    let set: Vec<usize> = (0..n_bits).filter(|_| g.f64_in(0.0, 1.0) < p).collect();
                    ActivationMatrix::build_mask(n_bits, set)
                };
                let rep = bits(g, density);
                let mask = bits(g, 0.5);
                // Near-copies of the representative missing a few bits,
                // plus unrelated dense rows.
                let rows = g.vec(48, |g| {
                    let mut row = if g.bool() { rep.clone() } else { bits(g, density) };
                    for _ in 0..g.usize_in(0, 4) {
                        let b = g.usize_in(0, n_bits - 1);
                        row[b / 64] &= !(1 << (b % 64));
                    }
                    row
                });
                assert_eq!(rep.len(), words);
                (weights, tau_w, rep, mask, rows)
            },
            |(weights, tau_w, rep, mask, rows)| {
                let traced: Vec<u64> = rep.iter().zip(mask).map(|(r, m)| r & m).collect();
                let n_traced: u32 = traced.iter().map(|w| w.count_ones()).sum();
                let denom = masked_weight_sum_words(rep, mask, weights);
                let threshold = tau_w * denom - 1e-12;
                let bound = MissBound::new(rep, mask, weights, denom, threshold);
                let unit = MissBound::unit(n_traced, denom, threshold);
                let mut units = 0;
                for (wi, &t) in traced.iter().enumerate() {
                    let mut bits = t;
                    while bits != 0 {
                        let w = weights[wi * 64 + bits.trailing_zeros() as usize];
                        units += ((w / unit).floor() as u32).min(15);
                        bits &= bits - 1;
                    }
                }
                let wide = n_traced >= BOUND_MIN_BITS && units > MIN_TRACED_UNITS;
                prop_assert!(bound.is_some() == (wide && unit.is_normal()));
                let Some(bound) = bound else { return Ok(()) };
                for row in rows {
                    let units = units_missed(&bound, row);
                    let mut missing = 0.0;
                    for (wi, (t, x)) in traced.iter().zip(row).enumerate() {
                        let mut bits = t & !x;
                        while bits != 0 {
                            missing += weights[wi * 64 + bits.trailing_zeros() as usize] / unit;
                            bits &= bits - 1;
                        }
                    }
                    prop_assert!(
                        f64::from(units) <= missing,
                        "bound {units} units over the exact {missing}"
                    );
                    if units > BUDGET_UNITS {
                        let num = triple_weight_sum_words(rep, row, mask, weights);
                        prop_assert!(num < threshold, "ruled out a related row: {num}");
                    }
                }
                Ok(())
            },
        );

        // A wide group builds the planes and rules rows out; a group one
        // traced bit short of the cutoff keeps the exact loop. Forty unit
        // weights at τ_w = 0.9 leave a budget of four weights, so a unit is
        // a hair over half a weight (the rounding allowance) and each
        // weight quantizes down to one unit.
        let weights = vec![1.0; 200];
        let dense = ActivationMatrix::build_mask(200, (0..200).filter(|b| b % 5 == 0));
        let mask = ActivationMatrix::build_mask(200, 0..200);
        let denom = masked_weight_sum_words(&dense, &mask, &weights);
        let bound = MissBound::new(&dense, &mask, &weights, denom, 0.9 * denom - 1e-12).unwrap();
        assert!(units_missed(&bound, &[0; 4]) > BUDGET_UNITS);
        assert_eq!(units_missed(&bound, &dense), 0);
        let missing = |n: usize| {
            let mut row = dense.clone();
            (0..n).for_each(|k| row[k * 5 / 64] &= !(1 << (k * 5 % 64)));
            row
        };
        assert_eq!(units_missed(&bound, &missing(5)), 5);
        assert_eq!(units_missed(&bound, &missing(8)), BUDGET_UNITS);
        assert_eq!(units_missed(&bound, &missing(9)), BUDGET_UNITS + 1);
        let narrow = ActivationMatrix::build_mask(200, 0..BOUND_MIN_BITS as usize - 1);
        let denom = masked_weight_sum_words(&narrow, &mask, &weights);
        assert!(MissBound::new(&narrow, &mask, &weights, denom, 0.9 * denom - 1e-12).is_none());
        let edge = ActivationMatrix::build_mask(200, 0..BOUND_MIN_BITS as usize);
        let denom = masked_weight_sum_words(&edge, &mask, &weights);
        assert!(MissBound::new(&edge, &mask, &weights, denom, 0.9 * denom - 1e-12).is_some());
        // At τ_w = 0.5 the forty-weight group's budget is twenty weights:
        // every weight quantizes to zero units, and no bound is built.
        let denom = masked_weight_sum_words(&dense, &mask, &weights);
        assert!(MissBound::new(&dense, &mask, &weights, denom, 0.5 * denom - 1e-12).is_none());
    }

    /// Bare training rows of one class, for building arenas directly.
    struct Rows {
        n_bits: usize,
        words: Vec<Vec<u64>>,
    }

    impl TrainAccess for Rows {
        fn n_rows(&self) -> usize {
            self.words.len()
        }
        fn n_bits(&self) -> usize {
            self.n_bits
        }
        fn row_words(&self, row: usize) -> &[u64] {
            &self.words[row]
        }
        fn label(&self, _: usize) -> u32 {
            0
        }
        fn client(&self, _: usize) -> u32 {
            0
        }
    }

    #[test]
    fn transpose_matches_a_per_bit_reference() {
        // xorshift64: a fixed stream of bits at a chosen density.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut bit = move |density: f64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64) < density * (1u64 << 53) as f64
        };
        for density in [0.0, 0.03, 0.5, 0.97, 1.0] {
            let mut tile = [0u64; 64];
            for word in tile.iter_mut() {
                for c in 0..64 {
                    *word |= u64::from(bit(density)) << c;
                }
            }
            let mut t = tile;
            transpose64(&mut t);
            for r in 0..64 {
                for c in 0..64 {
                    assert_eq!(t[c] >> r & 1, tile[r] >> c & 1, "density {density} ({r}, {c})");
                }
            }
            transpose64(&mut t);
            assert_eq!(t, tile);
        }
        // An arena's columns, per block, against a per-bit reference; rows
        // past a short last block read as zero.
        for n_rows in [1usize, 63, 64, 65, 128, 130] {
            let n_bits = 130;
            let words = (0..n_rows)
                .map(|_| {
                    let set = (0..n_bits).filter(|_| bit(0.4));
                    ActivationMatrix::build_mask(n_bits, set)
                })
                .collect();
            let rows = Rows { n_bits, words };
            let arena = ClassArena::gather(&rows, 1, 3);
            for k in 0..n_rows.div_ceil(64) {
                let cols = arena[0].block(&rows, k);
                assert_eq!(cols.len(), 3 * 64);
                for (b, &col) in cols.iter().enumerate() {
                    for j in 0..64 {
                        let pos = k * 64 + j;
                        let bit = pos < n_rows && rows.words[pos][b / 64] >> (b % 64) & 1 == 1;
                        assert_eq!(col >> j & 1 == 1, bit, "rows {n_rows} block {k} bit {b} row {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn block_scan_matches_the_row_wise_bound() {
        use ctfl_testkit::{check, prop_assert, prop_assert_eq};
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        // What the cases reached: bounds built, live rows missing a term
        // over the budget, rows missing more than 15 units, and blocks
        // whose walk stopped before its last term.
        let seen: [AtomicUsize; 4] = Default::default();
        check(
            "block_scan_matches_the_row_wise_bound",
            192,
            |g| {
                let n_bits = g.usize_in(65, 300);
                let family = g.usize_in(0, 5);
                let weights = g.vec(n_bits, |g| family_weight(g, family));
                let tau_w = [0.5, 0.8, 0.9, 0.95, 1.0][g.usize_in(0, 4)];
                let density = g.f64_in(0.3, 0.95);
                let bits = |g: &mut ctfl_testkit::prop::Gen, p: f64| {
                    let set: Vec<usize> = (0..n_bits).filter(|_| g.f64_in(0.0, 1.0) < p).collect();
                    ActivationMatrix::build_mask(n_bits, set)
                };
                let rep = bits(g, density);
                let mask = bits(g, 0.5);
                // Tail blocks of 1–63 rows, whole blocks, and anything up
                // to 200 rows.
                let n_rows =
                    [g.usize_in(1, 63), 64, 128, g.usize_in(65, 127), g.usize_in(1, 200)]
                        [g.usize_in(0, 4)];
                // Copies of the representative missing a few bits survive
                // or sit at the budget; dense random rows and empty rows
                // miss far more than it.
                let rows = g.vec(n_rows, |g| match g.usize_in(0, 3) {
                    0 | 1 => {
                        let mut row = rep.clone();
                        for _ in 0..g.usize_in(0, 6) {
                            let b = g.usize_in(0, n_bits - 1);
                            row[b / 64] &= !(1 << (b % 64));
                        }
                        row
                    }
                    2 => bits(g, density),
                    _ => vec![0; n_bits.div_ceil(64)],
                });
                // Candidate masks: every row, or a random subset.
                let full = g.bool();
                let candidates = g.vec(n_rows.div_ceil(64), |g| {
                    if full {
                        !0
                    } else {
                        (0..64).fold(0, |w, i| w | u64::from(g.bool()) << i)
                    }
                });
                (weights, tau_w, rep, mask, rows, candidates)
            },
            |(weights, tau_w, rep, mask, rows, candidates)| {
                let n_bits = weights.len();
                let denom = masked_weight_sum_words(rep, mask, weights);
                let threshold = tau_w * denom - 1e-12;
                let Some(bound) = MissBound::new(rep, mask, weights, denom, threshold) else {
                    return Ok(());
                };
                seen[0].fetch_add(1, Relaxed);
                // The row-wise `L(x)` from the weights, and for each row the
                // term at which the walk rules it out.
                let traced: Vec<u64> = rep.iter().zip(mask).map(|(r, m)| r & m).collect();
                let n_traced: u32 = traced.iter().map(|w| w.count_ones()).sum();
                let unit = MissBound::unit(n_traced, denom, threshold);
                let q = |b: usize| ((weights[b] / unit).floor() as u32).min(Q_CAP);
                let missed = |row: &[u64], b: usize| {
                    traced[b / 64] >> (b % 64) & 1 == 1 && row[b / 64] >> (b % 64) & 1 == 0
                };
                let row_units = |row: &[u64]| -> u32 {
                    (0..n_bits).filter(|&b| missed(row, b)).map(q).sum()
                };
                let ruled_out_at = |row: &[u64]| {
                    let mut units = 0;
                    bound.terms.iter().position(|&(b, q)| {
                        if missed(row, b as usize) {
                            units += q;
                        }
                        units > BUDGET_UNITS
                    })
                };

                let words_per_row = n_bits.div_ceil(64);
                let store = Rows { n_bits, words: rows.clone() };
                let arenas = ClassArena::gather(&store, 1, words_per_row);
                let mut expected_related = Vec::new();
                for k in 0..rows.len().div_ceil(64) {
                    let tail = rows.len() - k * 64;
                    let live = candidates[k] & if tail >= 64 { !0 } else { (1u64 << tail) - 1 };
                    let got = bound.survivors(arenas[0].block(&store, k), live);
                    // The term after which every live row is ruled out.
                    let mut exit_at = Some(0);
                    for j in (0..64).filter(|&j| live >> j & 1 == 1) {
                        let row = &rows[k * 64 + j];
                        let units = row_units(row);
                        prop_assert_eq!(got >> j & 1 == 1, units <= BUDGET_UNITS);
                        if units <= BUDGET_UNITS {
                            expected_related.push((k * 64 + j) as u32);
                        }
                        if bound.terms.iter().any(|&(b, q)| q > BUDGET_UNITS && missed(row, b as usize))
                        {
                            seen[1].fetch_add(1, Relaxed);
                        }
                        if units > 15 {
                            seen[2].fetch_add(1, Relaxed);
                        }
                        exit_at = exit_at.zip(ruled_out_at(row)).map(|(a, b)| a.max(b));
                    }
                    prop_assert!(got & !live == 0, "a survivor outside the live rows");
                    if live != 0 && exit_at.is_some_and(|i| i + 1 < bound.terms.len()) {
                        seen[3].fetch_add(1, Relaxed);
                    }
                }
                // The scan keeps the same rows, in ascending order.
                let scanned =
                    arenas[0].scan(&store, Some(candidates), Some(&bound), |_| true);
                prop_assert_eq!(scanned, expected_related);
                Ok(())
            },
        );
        let seen = seen.map(|s| s.into_inner());
        assert!(seen.iter().all(|&n| n > 0), "cases missed a regime: {seen:?}");
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
