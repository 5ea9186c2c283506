//! The privacy-preserving tracing pipeline (paper Section V, "Data Privacy
//! Analysis").
//!
//! In deployment, participants never upload raw features. Instead each
//! client computes its rule **activation vectors** locally (the rules are
//! public federation artifacts) and uploads only those bitsets with its
//! labels. The federation assembles the tracing inputs from the uploads:
//! tracing (Eq. 4) needs nothing else.
//!
//! Uploads may additionally be perturbed by **randomized response** — each
//! activation bit flips independently with probability `p` — giving local
//! differential privacy with `ε = ln((1 − p) / p)` per bit. Perturbation
//! trades tracing precision for privacy; the tests quantify the effect.
//!
//! The flips draw from the client's RNG in a fixed order: one `next_u64`
//! per (row, bit), row-major and bit-ascending, and bit `(r, b)` flips
//! when its draw `k = next_u64() >> 11` is below `⌈p · 2⁵³⌉`
//! ([`ctfl_rng::Bernoulli`]). That is exactly `gen_bool(p)` on the same
//! draw, so an upload is a pure function of the client's seed; the draws
//! of one row word are gathered into one flip mask and XORed in at once.
//!
//! Because uploads are *claims* (the federation never sees the raw data
//! behind them), a rational participant paid by contribution score will
//! game them — see [`crate::score_attack`] for the attack layer. The
//! defense lives in [`PrivateScoring`]: every scoring pass can first run
//! the upload audit (`ctfl-core::robustness::audit_uploads`), quarantine
//! flagged uploads, and score from the clean remainder.

use ctfl_core::activation::ActivationMatrix;
use ctfl_core::data::Dataset;
use ctfl_core::error::{CoreError, Result};
use ctfl_core::model::RuleModel;
use ctfl_core::robustness::{audit_uploads, UploadAuditConfig, UploadAuditInput, UploadAuditReport};
use ctfl_core::shard::{ActivationShard, ShardedActivations};
use ctfl_core::tracing::{trace_sharded, ShardedTraceInputs, TraceConfig};
use ctfl_rng::{Bernoulli, Rng};

/// Local-DP configuration for activation uploads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyConfig {
    /// Per-bit flip probability of randomized response (`0` disables
    /// perturbation). Must be in `[0, 0.5)`.
    pub flip_probability: f64,
}

impl Default for PrivacyConfig {
    fn default() -> Self {
        PrivacyConfig { flip_probability: 0.0 }
    }
}

impl PrivacyConfig {
    /// The per-bit local-DP `ε` of the configured randomized response
    /// (`+∞` when perturbation is off).
    pub fn epsilon(&self) -> f64 {
        if self.flip_probability <= 0.0 {
            f64::INFINITY
        } else {
            ((1.0 - self.flip_probability) / self.flip_probability).ln()
        }
    }

    /// Validates the flip probability: must be in `[0, 0.5)` (at `0.5`
    /// every bit is a fair coin and `ε = 0` carries no signal; NaN and
    /// negatives are rejected too).
    pub fn validate(&self) -> Result<()> {
        if !(0.0..0.5).contains(&self.flip_probability) {
            return Err(CoreError::InvalidParameter {
                name: "flip_probability",
                message: format!("must be in [0, 0.5), got {}", self.flip_probability),
            });
        }
        Ok(())
    }
}

/// A client's upload: activation bitsets + labels, no raw features.
#[derive(Debug, Clone)]
pub struct ActivationUpload {
    /// Client id.
    pub client: usize,
    /// Activation matrix of the client's training rows (one bit per rule).
    pub activations: ActivationMatrix,
    /// The rows' labels.
    pub labels: Vec<u32>,
    /// The randomized-response flip probability the client *claims* it
    /// applied. Honest clients report their actual [`PrivacyConfig`]; the
    /// auditor uses the claim for its feasibility checks (ε-abuse: noise
    /// "at ε" that is really one-sided bias).
    pub claimed_flip_probability: f64,
}

impl ActivationUpload {
    /// Computes the upload locally from the client's private data.
    ///
    /// `model` is the public global rule model; `config` optionally applies
    /// randomized response to every bit before upload.
    pub fn compute<R: Rng + ?Sized>(
        client: usize,
        model: &RuleModel,
        private_data: &Dataset,
        config: &PrivacyConfig,
        rng: &mut R,
    ) -> Result<Self> {
        config.validate()?;
        let mut activations = model.activation_matrix(private_data, false)?;
        if config.flip_probability > 0.0 {
            randomized_response(&mut activations, config.flip_probability, rng);
        }
        Ok(ActivationUpload {
            client,
            activations,
            labels: private_data.labels().to_vec(),
            claimed_flip_probability: config.flip_probability,
        })
    }

    /// The auditor's view of this upload.
    pub fn audit_input(&self) -> UploadAuditInput<'_> {
        UploadAuditInput {
            client: self.client,
            activations: &self.activations,
            labels: &self.labels,
            claimed_flip_probability: self.claimed_flip_probability,
        }
    }
}

/// Flips each bit of `acts` with probability `p`, in the draw order the
/// module documentation fixes.
fn randomized_response<R: Rng + ?Sized>(acts: &mut ActivationMatrix, p: f64, rng: &mut R) {
    let coin = Bernoulli::new(p);
    acts.flip_bits(|| coin.sample(rng));
}

/// Assembles uploads into a [`ShardedActivations`] store — each client's
/// upload arena becomes one shard (a single word-level copy), no per-bit
/// re-packing and no pooled re-layout. [`crate::privacy::PrivateScoring`]
/// traces straight off this store; at 1000-client scale this is the only
/// assembly path that doesn't dominate the scoring cost.
///
/// Every upload is validated (width, label count) in upload order *before*
/// the quarantine filter is consulted — exclusion silences a client's
/// rows, never its malformedness — matching the reference path's error
/// behavior exactly. [`ShardedActivations::to_matrix`] flattens the store
/// into the pooled `(activations, labels, client_of)` triple word for word.
pub fn assemble_sharded(
    uploads: &[ActivationUpload],
    excluded: &[usize],
) -> Result<ShardedActivations> {
    let first = uploads.first().ok_or(CoreError::Empty { what: "uploads" })?;
    let n_bits = first.activations.n_bits();
    let mut shards = Vec::with_capacity(uploads.len());
    for up in uploads {
        if up.activations.n_bits() != n_bits {
            return Err(CoreError::LengthMismatch {
                what: "upload activation width",
                expected: n_bits,
                actual: up.activations.n_bits(),
            });
        }
        if up.labels.len() != up.activations.n_rows() {
            return Err(CoreError::LengthMismatch {
                what: "upload labels",
                expected: up.activations.n_rows(),
                actual: up.labels.len(),
            });
        }
        if excluded.contains(&up.client) {
            continue;
        }
        shards.push(ActivationShard {
            client: up.client as u32,
            acts: up.activations.clone(),
            labels: up.labels.clone(),
        });
    }
    let store = ShardedActivations::from_shards(shards)?;
    if store.n_rows() == 0 {
        return Err(CoreError::Empty { what: "unquarantined uploads" });
    }
    Ok(store)
}

/// Hardened scoring output: the audit that drove the quarantine plus the
/// resulting scores.
#[derive(Debug, Clone)]
pub struct HardenedScores {
    /// Per-client micro scores with every flagged client's uploads
    /// quarantined (flagged clients score exactly 0).
    pub scores: Vec<f64>,
    /// The upload audit that decided the quarantine.
    pub audit: UploadAuditReport,
}

/// The federation-side private scoring service: holds the public model and
/// the federation-owned test artifacts, scores activation uploads — naively
/// or hardened behind the upload audit.
///
/// The key invariant (tested): on an honest cohort the audit flags nobody,
/// so [`PrivateScoring::score_hardened`] is *bit-identical* to
/// [`PrivateScoring::score`] — the defense costs honest federations
/// nothing.
pub struct PrivateScoring<'a> {
    model: &'a RuleModel,
    test_acts: &'a ActivationMatrix,
    test_labels: &'a [u32],
    predictions: &'a [usize],
    n_clients: usize,
    trace_config: TraceConfig,
}

impl<'a> PrivateScoring<'a> {
    /// Wires the scoring service around the federation's artifacts: the
    /// public rule model, the test activations/labels it owns, and the
    /// model's test-set predictions.
    pub fn new(
        model: &'a RuleModel,
        test_acts: &'a ActivationMatrix,
        test_labels: &'a [u32],
        predictions: &'a [usize],
        n_clients: usize,
        trace_config: TraceConfig,
    ) -> Self {
        PrivateScoring { model, test_acts, test_labels, predictions, n_clients, trace_config }
    }

    /// Micro contribution scores from the uploads as claimed (no audit).
    pub fn score(&self, uploads: &[ActivationUpload]) -> Result<Vec<f64>> {
        self.score_excluding(uploads, &[])
    }

    /// Micro scores with `excluded` clients' uploads quarantined (their
    /// scores are exactly 0; everyone else is scored from the remaining
    /// pool).
    ///
    /// Traces straight off the sharded store ([`assemble_sharded`] +
    /// [`trace_sharded`]) — no pooled re-layout of the uploads. The sharded
    /// kernel is bit-identical to the monolithic one by construction (one
    /// generic kernel over both row stores), so scores match the historical
    /// assemble-then-trace path exactly.
    pub fn score_excluding(
        &self,
        uploads: &[ActivationUpload],
        excluded: &[usize],
    ) -> Result<Vec<f64>> {
        let store = assemble_sharded(uploads, excluded)?;
        let inputs = ShardedTraceInputs {
            train: &store,
            n_clients: self.n_clients,
            test_acts: self.test_acts,
            test_labels: self.test_labels,
            predictions: self.predictions,
            weights: self.model.weights(),
            class_masks: self.model.class_masks_all(),
        };
        let outcome = trace_sharded(&inputs, &self.trace_config)?;
        Ok(ctfl_core::allocation::micro_scores(
            &outcome,
            ctfl_core::allocation::CreditDirection::Gain,
        ))
    }

    /// Runs the upload audit against the cohort (`declared_rows[client]` =
    /// shard size declared at enrollment, e.g. the FedAvg example-count
    /// weights; `None` disables row-budget accounting).
    pub fn audit(
        &self,
        uploads: &[ActivationUpload],
        declared_rows: Option<&[usize]>,
        config: &UploadAuditConfig,
    ) -> Result<UploadAuditReport> {
        let inputs: Vec<UploadAuditInput<'_>> =
            uploads.iter().map(ActivationUpload::audit_input).collect();
        audit_uploads(
            &inputs,
            self.model.weights(),
            self.model.class_masks_all(),
            declared_rows,
            config,
        )
    }

    /// Audit, quarantine every flagged client, score the remainder.
    pub fn score_hardened(
        &self,
        uploads: &[ActivationUpload],
        declared_rows: Option<&[usize]>,
        audit_config: &UploadAuditConfig,
    ) -> Result<HardenedScores> {
        let audit = self.audit(uploads, declared_rows, audit_config)?;
        let scores = if audit.flagged.len() >= uploads.len() {
            // Everyone quarantined: nothing left to trace, nobody earns.
            vec![0.0; self.n_clients]
        } else {
            self.score_excluding(uploads, &audit.flagged)?
        };
        Ok(HardenedScores { scores, audit })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctfl_core::data::{FeatureKind, FeatureSchema};
    use ctfl_core::rule::{conjunction, Predicate};
    use ctfl_rng::rngs::StdRng;
    use ctfl_rng::{RngCore, SeedableRng};
    use std::sync::Arc;

    /// Pinned reference for upload assembly: the historical per-bit, per-row
    /// re-pack through `ActivationMatrix::push_row`, which the sharded,
    /// word-level assembly must reproduce bit for bit.
    fn assemble_trace_inputs_reference(
        uploads: &[ActivationUpload],
        excluded: &[usize],
    ) -> Result<(ActivationMatrix, Vec<u32>, Vec<u32>)> {
        let first = uploads.first().ok_or(CoreError::Empty { what: "uploads" })?;
        let n_bits = first.activations.n_bits();
        let mut acts = ActivationMatrix::zeros(0, n_bits);
        let mut labels = Vec::new();
        let mut client_of = Vec::new();
        for up in uploads {
            if up.activations.n_bits() != n_bits {
                return Err(CoreError::LengthMismatch {
                    what: "upload activation width",
                    expected: n_bits,
                    actual: up.activations.n_bits(),
                });
            }
            if up.labels.len() != up.activations.n_rows() {
                return Err(CoreError::LengthMismatch {
                    what: "upload labels",
                    expected: up.activations.n_rows(),
                    actual: up.labels.len(),
                });
            }
            if excluded.contains(&up.client) {
                continue;
            }
            for row in 0..up.activations.n_rows() {
                let bits: Vec<bool> =
                    (0..n_bits).map(|b| up.activations.get(row, b)).collect();
                acts.push_row(&bits)?;
            }
            labels.extend_from_slice(&up.labels);
            client_of.extend(std::iter::repeat_n(up.client as u32, up.activations.n_rows()));
        }
        if acts.n_rows() == 0 {
            return Err(CoreError::Empty { what: "unquarantined uploads" });
        }
        Ok((acts, labels, client_of))
    }

    /// Pinned reference for randomized response: one `gen_bool` per
    /// (row, bit), row-major, flipping through `get`/`set`.
    fn randomized_response_reference(acts: &mut ActivationMatrix, p: f64, rng: &mut StdRng) {
        for row in 0..acts.n_rows() {
            for bit in 0..acts.n_bits() {
                if rng.gen_bool(p) {
                    let v = acts.get(row, bit);
                    acts.set(row, bit, !v);
                }
            }
        }
    }

    #[test]
    fn randomized_response_is_bit_identical_to_the_per_bit_reference() {
        let below_half = f64::from_bits(0.5f64.to_bits() - 1);
        let mut fill = StdRng::seed_from_u64(3);
        for n_rows in [0, 1, 2, 24, 63, 64, 65, 130] {
            for n_bits in [1, 7, 63, 64, 65, 127, 128, 129, 200] {
                let mut start = ActivationMatrix::zeros(0, n_bits);
                for _ in 0..n_rows {
                    let bits: Vec<bool> = (0..n_bits).map(|_| fill.gen()).collect();
                    start.push_row(&bits).unwrap();
                }
                for p in [0.1, 0.25, 1e-17, below_half] {
                    let seed = (n_rows * 1000 + n_bits) as u64;
                    let (mut fast, mut reference) = (start.clone(), start.clone());
                    let mut fast_rng = StdRng::seed_from_u64(seed);
                    let mut reference_rng = StdRng::seed_from_u64(seed);
                    randomized_response(&mut fast, p, &mut fast_rng);
                    randomized_response_reference(&mut reference, p, &mut reference_rng);
                    assert_eq!(fast, reference, "{n_rows} x {n_bits} at p {p}");
                    assert_eq!(fast_rng.next_u64(), reference_rng.next_u64(), "rng state");
                }
            }
        }
    }

    fn model_and_data() -> (RuleModel, Dataset, Dataset) {
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let rules = vec![
            conjunction(vec![Predicate::gt(0, 0.5)], 1, 1.0),
            conjunction(vec![Predicate::le(0, 0.5)], 0, 1.0),
        ];
        let model = RuleModel::new(Arc::clone(&schema), 2, rules).unwrap();
        let mut a = Dataset::empty(Arc::clone(&schema), 2);
        let mut b = Dataset::empty(schema, 2);
        for i in 0..10 {
            a.push_row(&[(i as f32 * 0.04).into()], 0).unwrap();
            b.push_row(&[(0.6 + i as f32 * 0.04).into()], 1).unwrap();
        }
        (model, a, b)
    }

    #[test]
    fn uploads_carry_no_raw_features_and_assemble_correctly() {
        let (model, a, b) = model_and_data();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = PrivacyConfig::default();
        let up_a = ActivationUpload::compute(0, &model, &a, &cfg, &mut rng).unwrap();
        let up_b = ActivationUpload::compute(1, &model, &b, &cfg, &mut rng).unwrap();
        assert_eq!(up_a.claimed_flip_probability, 0.0);
        let (acts, labels, client_of) =
            assemble_sharded(&[up_a, up_b], &[]).unwrap().to_matrix().unwrap();
        assert_eq!(acts.n_rows(), 20);
        assert_eq!(labels.len(), 20);
        assert_eq!(client_of[..10], [0; 10]);
        assert_eq!(client_of[10..], [1; 10]);
        // Assembled activations equal directly-computed pooled activations.
        let pooled = ctfl_core::data::Dataset::concat([&a, &b]).unwrap();
        let direct = model.activation_matrix(&pooled, false).unwrap();
        assert_eq!(acts, direct);
    }

    #[test]
    fn assembly_excluding_quarantines_whole_clients() {
        let (model, a, b) = model_and_data();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = PrivacyConfig::default();
        let ups = vec![
            ActivationUpload::compute(0, &model, &a, &cfg, &mut rng).unwrap(),
            ActivationUpload::compute(1, &model, &b, &cfg, &mut rng).unwrap(),
        ];
        let (acts, _, client_of) = assemble_sharded(&ups, &[0]).unwrap().to_matrix().unwrap();
        assert_eq!(acts.n_rows(), 10);
        assert!(client_of.iter().all(|&c| c == 1));
        // Quarantining everyone is a typed error, not a zero-row trace.
        assert!(assemble_sharded(&ups, &[0, 1]).is_err());
    }

    #[test]
    fn sharded_assembly_is_bit_identical_to_reference() {
        let (model, a, b) = model_and_data();
        let mut rng = StdRng::seed_from_u64(21);
        // Noisy uploads so activation patterns aren't trivially regular.
        let cfg = PrivacyConfig { flip_probability: 0.2 };
        let ups = vec![
            ActivationUpload::compute(0, &model, &a, &cfg, &mut rng).unwrap(),
            ActivationUpload::compute(1, &model, &b, &cfg, &mut rng).unwrap(),
            ActivationUpload::compute(2, &model, &a, &cfg, &mut rng).unwrap(),
        ];
        for excluded in [vec![], vec![1usize], vec![0, 2]] {
            let fast = assemble_sharded(&ups, &excluded).unwrap().to_matrix().unwrap();
            let reference = assemble_trace_inputs_reference(&ups, &excluded).unwrap();
            assert_eq!(fast, reference, "excluded {excluded:?}");
            // The sharded store addresses the same rows without flattening.
            let store = assemble_sharded(&ups, &excluded).unwrap();
            for row in 0..store.n_rows() {
                assert_eq!(store.row_words(row), reference.0.row_words(row));
                assert_eq!(store.label(row), reference.1[row]);
                assert_eq!(store.client(row), reference.2[row]);
            }
        }
        // Error behavior matches too: a malformed excluded upload still errors.
        let mut bad = ups.clone();
        bad[1].labels.pop();
        assert!(assemble_sharded(&bad, &[1]).is_err());
        assert!(assemble_trace_inputs_reference(&bad, &[1]).is_err());
    }

    #[test]
    fn randomized_response_flips_roughly_p_bits() {
        let (model, a, _) = model_and_data();
        let mut rng = StdRng::seed_from_u64(2);
        let clean = ActivationUpload::compute(
            0,
            &model,
            &a,
            &PrivacyConfig::default(),
            &mut rng,
        )
        .unwrap();
        let noisy = ActivationUpload::compute(
            0,
            &model,
            &a,
            &PrivacyConfig { flip_probability: 0.25 },
            &mut rng,
        )
        .unwrap();
        assert_eq!(noisy.claimed_flip_probability, 0.25);
        let total = clean.activations.n_rows() * clean.activations.n_bits();
        let flipped: usize = (0..clean.activations.n_rows())
            .map(|r| {
                (0..clean.activations.n_bits())
                    .filter(|&b| clean.activations.get(r, b) != noisy.activations.get(r, b))
                    .count()
            })
            .sum();
        let rate = flipped as f64 / total as f64;
        assert!((rate - 0.25).abs() < 0.2, "flip rate {rate}");
        assert!(flipped > 0);
    }

    #[test]
    fn epsilon_formula() {
        assert_eq!(PrivacyConfig::default().epsilon(), f64::INFINITY);
        let cfg = PrivacyConfig { flip_probability: 0.25 };
        assert!((cfg.epsilon() - 3.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn p_zero_is_bit_identical_to_non_private() {
        // With p = 0 (ε = ∞) the RNG is never consulted: the upload equals
        // the locally computed activation matrix bit for bit, whatever the
        // RNG state.
        let (model, a, _) = model_and_data();
        let direct = model.activation_matrix(&a, false).unwrap();
        for seed in [0u64, 7, 123_456] {
            let mut rng = StdRng::seed_from_u64(seed);
            let up = ActivationUpload::compute(
                0,
                &model,
                &a,
                &PrivacyConfig { flip_probability: 0.0 },
                &mut rng,
            )
            .unwrap();
            assert_eq!(up.activations, direct, "seed {seed}");
        }
    }

    #[test]
    fn p_near_half_is_valid_but_epsilon_collapses_to_zero() {
        // The open boundary: p → 0.5⁻ stays valid while ε → 0⁺ (no signal
        // left); p = 0.5 itself is rejected.
        let p = 0.5 - 1e-9;
        let cfg = PrivacyConfig { flip_probability: p };
        assert!(cfg.validate().is_ok());
        assert!(cfg.epsilon() > 0.0);
        assert!(cfg.epsilon() < 1e-8, "eps {} should collapse toward 0", cfg.epsilon());
        assert!(PrivacyConfig { flip_probability: 0.5 }.validate().is_err());
    }

    #[test]
    fn invalid_flip_probabilities_are_typed_errors_not_panics() {
        let (model, a, _) = model_and_data();
        for bad in [0.5, 0.7, 1.0, -0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cfg = PrivacyConfig { flip_probability: bad };
            let err = cfg.validate().expect_err(&format!("p = {bad} must be rejected"));
            assert!(
                matches!(err, CoreError::InvalidParameter { name: "flip_probability", .. }),
                "p = {bad} gave {err:?}"
            );
            let mut rng = StdRng::seed_from_u64(3);
            assert!(ActivationUpload::compute(0, &model, &a, &cfg, &mut rng).is_err());
        }
        assert!(assemble_sharded(&[], &[]).is_err());
    }

    /// A 4-rule model whose honest clients carry *distinct* activation
    /// signature profiles (with only 2 rules every same-class row shares one
    /// signature, and honest same-class shards are indistinguishable from
    /// trace-squatting — the audit would rightly quarantine them).
    fn rich_model_and_shards() -> (RuleModel, Vec<Dataset>) {
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let rules = vec![
            conjunction(vec![Predicate::gt(0, 0.5)], 1, 1.0),
            conjunction(vec![Predicate::le(0, 0.5)], 0, 1.0),
            conjunction(vec![Predicate::le(0, 0.25)], 0, 1.0),
            conjunction(vec![Predicate::gt(0, 0.75)], 1, 1.0),
        ];
        let model = RuleModel::new(Arc::clone(&schema), 2, rules).unwrap();
        // Client 0: class 0 across both signature bands {le .5, le .25} and
        // {le .5}. Client 1: class 1 across {gt .5} and {gt .5, gt .75}.
        // Client 2: a weak mixed-class shard living only in the single-rule
        // bands {le .5} / {gt .5} — related to few test rows, so it has
        // something to gain by inflating.
        let mut a = Dataset::empty(Arc::clone(&schema), 2);
        let mut b = Dataset::empty(Arc::clone(&schema), 2);
        let mut c = Dataset::empty(schema, 2);
        for i in 0..10 {
            a.push_row(&[(i as f32 * 0.04).into()], 0).unwrap();
            b.push_row(&[(0.6 + i as f32 * 0.04).into()], 1).unwrap();
        }
        for i in 0..5 {
            c.push_row(&[(0.3 + i as f32 * 0.03).into()], 0).unwrap();
            c.push_row(&[(0.55 + i as f32 * 0.03).into()], 1).unwrap();
        }
        (model, vec![a, b, c])
    }

    #[test]
    fn hardened_scoring_is_identical_on_honest_cohorts_and_zeroes_gamers() {
        let (model, shards) = rich_model_and_shards();
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = PrivacyConfig::default();
        let honest: Vec<ActivationUpload> = shards
            .iter()
            .enumerate()
            .map(|(c, s)| ActivationUpload::compute(c, &model, s, &cfg, &mut rng).unwrap())
            .collect();
        let mut test = Dataset::empty(Arc::clone(shards[0].schema()), 2);
        for i in 0..4 {
            test.push_row(&[(i as f32 * 0.1).into()], 0).unwrap();
            test.push_row(&[(0.6 + i as f32 * 0.1).into()], 1).unwrap();
        }
        let test_acts = model.activation_matrix(&test, false).unwrap();
        let predictions: Vec<usize> =
            (0..test.len()).map(|i| model.classify_from_activations(&test_acts, i)).collect();
        let scoring = PrivateScoring::new(
            &model,
            &test_acts,
            test.labels(),
            &predictions,
            3,
            TraceConfig { parallel: false, ..TraceConfig::default() },
        );
        let naive = scoring.score(&honest).unwrap();
        let hardened =
            scoring.score_hardened(&honest, None, &UploadAuditConfig::default()).unwrap();
        assert!(hardened.audit.flagged.is_empty(), "honest cohort flagged");
        assert_eq!(naive, hardened.scores, "defense must cost honest federations nothing");

        // Client 2 inflates: every bit set on every row.
        let mut gamed = honest.clone();
        for r in 0..gamed[2].activations.n_rows() {
            for bit in 0..gamed[2].activations.n_bits() {
                gamed[2].activations.set(r, bit, true);
            }
        }
        let naive_gamed = scoring.score(&gamed).unwrap();
        assert!(
            naive_gamed[2] > naive[2],
            "inflation must profit against the naive scorer ({} vs {})",
            naive_gamed[2],
            naive[2]
        );
        let hardened_gamed =
            scoring.score_hardened(&gamed, None, &UploadAuditConfig::default()).unwrap();
        assert_eq!(hardened_gamed.audit.flagged, vec![2]);
        assert_eq!(hardened_gamed.scores[2], 0.0, "quarantined gamer earns nothing");
        // Quarantined scoring equals honest scoring with the same client
        // excluded — the gamer can hurt only itself.
        let reference = scoring.score_excluding(&honest, &[2]).unwrap();
        assert_eq!(hardened_gamed.scores, reference);
    }
}
