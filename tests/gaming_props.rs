//! Score-gaming properties: attack injection, upload audit, hardened
//! scoring, slashing, and the cross-layer checks — end to end through the
//! public facade, on a real trained federation.

use std::sync::OnceLock;

use ctfl::core::error::CoreError;
use ctfl::core::robustness::{audit_uploads, slash_scores, SlashPolicy, UploadAuditConfig};
use ctfl::core::tracing::TraceConfig;
use ctfl::data::partition::skew_label;
use ctfl::data::split::train_test_split;
use ctfl::data::tictactoe_endgame;
use ctfl::fl::fedavg::{train_federated, FlConfig};
use ctfl::fl::privacy::{assemble_sharded, ActivationUpload, PrivacyConfig, PrivateScoring};
use ctfl::fl::score_attack::{ScoreAttackInjector, ScoreAttackKind, ScoreAttackPlan};
use ctfl::nn::extract::{extract_rules, ExtractOptions};
use ctfl::nn::net::LogicalNetConfig;
use ctfl_rng::rngs::StdRng;
use ctfl_rng::SeedableRng;

const N_CLIENTS: usize = 5;

struct Fixture {
    model: ctfl::core::model::RuleModel,
    shards: Vec<ctfl::core::data::Dataset>,
    test: ctfl::core::data::Dataset,
}

/// One trained federation shared by every test in this file.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(5);
        let data = tictactoe_endgame();
        let (train, test) = train_test_split(&data, 0.2, true, &mut rng);
        let partition = skew_label(train.labels(), 2, N_CLIENTS, 0.8, &mut rng);
        let shards: Vec<_> =
            (0..N_CLIENTS).map(|c| train.subset(&partition.client_indices(c))).collect();
        let net_config = LogicalNetConfig {
            lr_logical: 0.1,
            lr_linear: 0.3,
            momentum: 0.0,
            seed: 19,
            ..LogicalNetConfig::default()
        };
        let fl = FlConfig { rounds: 20, local_epochs: 4, parallel: true };
        let net = train_federated(&shards, 2, &net_config, &fl).unwrap();
        let model = extract_rules(&net, ExtractOptions::default()).unwrap();
        Fixture { model, shards, test }
    })
}

fn honest_uploads(fx: &Fixture, flip_p: f64, seed: u64) -> Vec<ActivationUpload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let privacy = PrivacyConfig { flip_probability: flip_p };
    fx.shards
        .iter()
        .enumerate()
        .map(|(c, shard)| {
            ActivationUpload::compute(c, &fx.model, shard, &privacy, &mut rng).unwrap()
        })
        .collect()
}

struct Scorer<'a> {
    test_acts: ctfl::core::ActivationMatrix,
    predictions: Vec<usize>,
    fx: &'a Fixture,
}

impl<'a> Scorer<'a> {
    fn new(fx: &'a Fixture) -> Self {
        let test_acts = fx.model.activation_matrix(&fx.test, false).unwrap();
        let predictions = (0..fx.test.len())
            .map(|i| fx.model.classify_from_activations(&test_acts, i))
            .collect();
        Scorer { test_acts, predictions, fx }
    }

    fn scoring(&self) -> PrivateScoring<'_> {
        PrivateScoring::new(
            &self.fx.model,
            &self.test_acts,
            self.fx.test.labels(),
            &self.predictions,
            N_CLIENTS,
            TraceConfig::default(),
        )
    }
}

fn declared_rows(fx: &Fixture) -> Vec<usize> {
    fx.shards.iter().map(|s| s.len()).collect()
}

#[test]
fn injector_is_deterministic() {
    let fx = fixture();
    let uploads = honest_uploads(fx, 0.0, 11);
    let plan = ScoreAttackPlan::generate(
        N_CLIENTS,
        0.4,
        ScoreAttackKind::Inflate { all_classes: false },
        77,
    );
    let mut a = uploads.clone();
    let mut b = uploads.clone();
    ScoreAttackInjector::new(plan.clone(), 9).rewrite_uploads(&mut a, fx.model.class_masks_all());
    ScoreAttackInjector::new(plan, 9).rewrite_uploads(&mut b, fx.model.class_masks_all());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.labels, y.labels);
        assert_eq!(x.activations.n_rows(), y.activations.n_rows());
    }
}

#[test]
fn plan_validation_is_typed() {
    // Squatting on yourself, an out-of-range victim, a non-positive pad
    // factor, and an infeasible claimed flip probability are all typed
    // parameter errors, not panics.
    let squat_self = ScoreAttackPlan::none(N_CLIENTS)
        .try_with_gamer(2, ScoreAttackKind::Squat { victim: 2 });
    assert!(matches!(squat_self, Err(CoreError::InvalidParameter { .. })));
    let oob = ScoreAttackPlan::none(N_CLIENTS)
        .try_with_gamer(0, ScoreAttackKind::Squat { victim: N_CLIENTS });
    assert!(matches!(oob, Err(CoreError::InvalidParameter { .. })));
    let bad_pad = ScoreAttackPlan::none(N_CLIENTS)
        .try_with_gamer(0, ScoreAttackKind::PadRows { factor: 0.0 });
    assert!(matches!(bad_pad, Err(CoreError::InvalidParameter { .. })));
    let bad_claim = ScoreAttackPlan::none(N_CLIENTS).try_with_gamer(
        0,
        ScoreAttackKind::NoiseAbuse { claimed_flip_probability: 0.5, actual_flip_rate: 0.2 },
    );
    assert!(matches!(bad_claim, Err(CoreError::InvalidParameter { .. })));
}

#[test]
fn honest_cohort_is_never_flagged_and_hardening_is_free() {
    let fx = fixture();
    let scorer = Scorer::new(fx);
    let scoring = scorer.scoring();
    let declared = declared_rows(fx);
    for (flip_p, seed) in [(0.0, 21), (0.1, 22)] {
        let uploads = honest_uploads(fx, flip_p, seed);
        let naive = scoring.score(&uploads).unwrap();
        let hardened = scoring.score_hardened(&uploads, Some(&declared), &UploadAuditConfig::default()).unwrap();
        assert!(
            hardened.audit.flagged.is_empty(),
            "honest cohort flagged at p={flip_p}: {:?}",
            hardened.audit.flagged
        );
        assert_eq!(naive, hardened.scores, "hardening must be free at p={flip_p}");
    }
}

#[test]
fn inflation_pays_naive_and_is_quarantined_exactly() {
    let fx = fixture();
    let scorer = Scorer::new(fx);
    let scoring = scorer.scoring();
    let declared = declared_rows(fx);
    let uploads = honest_uploads(fx, 0.0, 31);
    let reference = scoring.score(&uploads).unwrap();

    let plan = ScoreAttackPlan::none(N_CLIENTS)
        .with_gamer(1, ScoreAttackKind::Inflate { all_classes: false });
    let mut gamed = uploads.clone();
    ScoreAttackInjector::new(plan, 3).rewrite_uploads(&mut gamed, fx.model.class_masks_all());

    let naive = scoring.score(&gamed).unwrap();
    assert!(naive[1] > reference[1], "inflation must pay against the naive scorer");

    let hardened =
        scoring.score_hardened(&gamed, Some(&declared), &UploadAuditConfig::default()).unwrap();
    assert_eq!(hardened.audit.flagged, vec![1]);
    assert_eq!(hardened.scores[1], 0.0);
    let excluded = scoring.score_excluding(&uploads, &[1]).unwrap();
    assert_eq!(hardened.scores, excluded, "the gamer only hurts itself");
}

#[test]
fn row_padding_trips_the_budget_detector() {
    let fx = fixture();
    let scorer = Scorer::new(fx);
    let scoring = scorer.scoring();
    let declared = declared_rows(fx);
    let uploads = honest_uploads(fx, 0.0, 41);
    let plan =
        ScoreAttackPlan::none(N_CLIENTS).with_gamer(3, ScoreAttackKind::PadRows { factor: 0.5 });
    let mut gamed = uploads.clone();
    ScoreAttackInjector::new(plan, 4).rewrite_uploads(&mut gamed, fx.model.class_masks_all());
    assert_eq!(
        gamed[3].activations.n_rows(),
        declared[3] + (declared[3] as f64 * 0.5).round() as usize
    );

    let audit = scoring.audit(&gamed, Some(&declared), &UploadAuditConfig::default()).unwrap();
    assert_eq!(audit.suspected_budget_violators, vec![3]);
    assert!(audit.flagged.contains(&3));
    // Without declarations, the budget detector stays silent on padding —
    // row accounting needs the enrollment declaration to bite.
    let blind = scoring.audit(&gamed, None, &UploadAuditConfig::default()).unwrap();
    assert!(blind.suspected_budget_violators.is_empty());
}

#[test]
fn noise_abuse_breaks_the_feasibility_cap() {
    // A client claims randomized response at p = 0.1 but one-sidedly sets
    // its own-label bits at rate 0.9: observed self-support becomes
    // infeasible under the claimed p and the inflation detector names it,
    // even though its claimed privacy level would excuse a lot of noise.
    let fx = fixture();
    let scorer = Scorer::new(fx);
    let scoring = scorer.scoring();
    let declared = declared_rows(fx);
    let uploads = honest_uploads(fx, 0.1, 51);
    let plan = ScoreAttackPlan::none(N_CLIENTS).with_gamer(
        0,
        ScoreAttackKind::NoiseAbuse { claimed_flip_probability: 0.1, actual_flip_rate: 0.9 },
    );
    let mut gamed = uploads.clone();
    ScoreAttackInjector::new(plan, 5).rewrite_uploads(&mut gamed, fx.model.class_masks_all());
    let audit = scoring.audit(&gamed, Some(&declared), &UploadAuditConfig::default()).unwrap();
    assert!(audit.suspected_inflators.contains(&0), "eps-abuse must be named: {audit:?}");
    assert!(!audit.flagged.contains(&1), "honest peers stay clean");
}

#[test]
fn slashing_conserves_the_pot() {
    let fx = fixture();
    let scorer = Scorer::new(fx);
    let scoring = scorer.scoring();
    let uploads = honest_uploads(fx, 0.0, 61);
    let scores = scoring.score(&uploads).unwrap();
    let slashed = slash_scores(&scores, &[0, 2], &SlashPolicy::default()).unwrap();
    assert_eq!(slashed[0], 0.0);
    assert_eq!(slashed[2], 0.0);
    let before: f64 = scores.iter().sum();
    let after: f64 = slashed.iter().sum();
    assert!((before - after).abs() < 1e-12);
    // Out-of-range flags are typed errors.
    assert!(matches!(
        slash_scores(&scores, &[N_CLIENTS], &SlashPolicy::default()),
        Err(CoreError::InvalidParameter { .. })
    ));
}

#[test]
fn quarantine_exclusion_is_exact_and_total_exclusion_is_typed() {
    let fx = fixture();
    let uploads = honest_uploads(fx, 0.0, 71);
    // Excluding a client removes exactly its rows.
    let (acts, _labels, client_of) = assemble_sharded(&uploads, &[2]).unwrap().to_matrix().unwrap();
    assert!(!client_of.contains(&2));
    let expected_rows: usize =
        fx.shards.iter().enumerate().filter(|&(c, _)| c != 2).map(|(_, s)| s.len()).sum();
    assert_eq!(acts.n_rows(), expected_rows);
    // Excluding everyone is a typed Empty error, not a panic.
    let all: Vec<usize> = (0..N_CLIENTS).collect();
    assert!(matches!(
        assemble_sharded(&uploads, &all),
        Err(CoreError::Empty { .. })
    ));
}

#[test]
fn audit_is_reusable_outside_private_scoring() {
    // The core auditor is callable directly on raw audit inputs — the same
    // path the gaming_sweep cross-check uses with a Byzantine-trained model.
    let fx = fixture();
    let uploads = honest_uploads(fx, 0.0, 81);
    let inputs: Vec<_> = uploads.iter().map(ActivationUpload::audit_input).collect();
    let audit = audit_uploads(
        &inputs,
        fx.model.weights(),
        fx.model.class_masks_all(),
        Some(&declared_rows(fx)),
        &UploadAuditConfig::default(),
    )
    .unwrap();
    assert!(audit.flagged.is_empty());
    assert_eq!(audit.profiles.len(), N_CLIENTS);
}
