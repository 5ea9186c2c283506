//! A data-marketplace incentive mechanism on top of CTFL (the paper's
//! stated future work: "devising a systematic incentive mechanism
//! leveraging the capabilities of CTFL").
//!
//! ```text
//! cargo run --release --example marketplace
//! ```
//!
//! The federation distributes a revenue pool proportionally to CTFL micro
//! scores each round. A free-rider (low-quality data) earns ~nothing; a
//! replicator is paid from the replication-robust *macro* scores so
//! duplication doesn't pay; honest clients split the pool by the value
//! their data actually adds.
//!
//! A second act settles the same pool under the *privacy pipeline*: clients
//! submit activation uploads instead of raw data, one of them inflates its
//! claimed activations to capture credit, the upload audit names it, and
//! `slash_scores` confiscates its payout and redistributes the slash pro
//! rata over the unflagged earners — the pot is conserved to the unit.

use ctfl::core::estimator::{CtflConfig, CtflEstimator};
use ctfl::core::robustness::{slash_scores, UploadAuditConfig};
use ctfl::core::tracing::TraceConfig;
use ctfl::fl::privacy::{ActivationUpload, PrivacyConfig, PrivateScoring};
use ctfl::fl::score_attack::{ScoreAttackInjector, ScoreAttackKind, ScoreAttackPlan};
use ctfl::data::adverse::{inject_low_quality, replicate};
use ctfl::data::partition::skew_label;
use ctfl::data::split::train_test_split;
use ctfl::data::synthetic::bank_like;
use ctfl::fl::fedavg::{train_federated, FlConfig};
use ctfl::nn::extract::{extract_rules, ExtractOptions};
use ctfl::nn::net::LogicalNetConfig;
use ctfl_rng::rngs::StdRng;
use ctfl_rng::SeedableRng;

const REVENUE_POOL: f64 = 10_000.0; // currency units per settlement

fn main() {
    let mut rng = StdRng::seed_from_u64(31);
    let (data, _) = bank_like(0.02, 13);
    let (train, test) = train_test_split(&data, 0.2, true, &mut rng);
    let n_clients = 5;
    let partition = skew_label(train.labels(), 2, n_clients, 0.8, &mut rng);

    // Client 3 pads its shard with duplicated rows; client 4 contributes
    // sloppily labelled data.
    let (train, partition, _) = replicate(&train, &partition, &[3], (0.8, 0.8), &mut rng);
    let (train, partition, _) = inject_low_quality(&train, &partition, &[4], (0.5, 0.5), &mut rng);

    let shards: Vec<_> =
        (0..n_clients).map(|c| train.subset(&partition.client_indices(c))).collect();
    let net_config = LogicalNetConfig {
        lr_logical: 0.1,
        lr_linear: 0.3,
        momentum: 0.0,
        seed: 8,
        ..LogicalNetConfig::default()
    };
    let fl = FlConfig { rounds: 30, local_epochs: 5, parallel: true };
    let net = train_federated(&shards, 2, &net_config, &fl).expect("training succeeds");
    let model = extract_rules(&net, ExtractOptions::default()).expect("extraction succeeds");

    let estimator = CtflEstimator::new(model, CtflConfig::default());
    let report = estimator.estimate(&train, &partition.client_of, &test).expect("valid inputs");

    // Settlement policy: pay from macro scores (replication-robust), zero
    // out clients flagged as adverse, renormalize.
    let mut payable = report.macro_.clone();
    for &c in report
        .robustness
        .suspected_label_flippers
        .iter()
        .chain(&report.robustness.suspected_low_quality)
    {
        payable[c] = 0.0;
    }

    let total: f64 = payable.iter().sum();

    println!("federation settlement (pool = {REVENUE_POOL:.0} units)\n");
    println!("client  rows   micro    macro    payout   notes");
    #[allow(clippy::needless_range_loop)]
    for c in 0..n_clients {
        let rows = partition.client_indices(c).len();
        let payout = if total > 0.0 { REVENUE_POOL * payable[c] / total } else { 0.0 };
        let mut notes = Vec::new();
        if report.robustness.suspected_replicators.contains(&c) {
            notes.push("replication detected (paid by macro)");
        }
        if report.robustness.suspected_low_quality.contains(&c) {
            notes.push("low-quality data (payout withheld)");
        }
        if report.robustness.suspected_label_flippers.contains(&c) {
            notes.push("label flipping (payout withheld)");
        }
        println!(
            "{c:>6}  {rows:>5}  {:.4}  {:.4}  {payout:>7.0}  {}",
            report.micro[c],
            report.macro_[c],
            notes.join("; ")
        );
    }
    println!(
        "\nmodel accuracy {:.3}; scores sum to {:.3} (group rationality)",
        report.test_accuracy,
        report.micro.iter().sum::<f64>()
    );

    // --- Act 2: private settlement with a score-gaming inflator ----------
    // The same pool, but clients now submit activation uploads instead of
    // raw data, and client 1 — whose *data* is perfectly honest — inflates
    // its claimed activations to capture micro credit. The upload audit
    // names it from the uploads alone; `slash_scores` confiscates its
    // payout and redistributes pro rata over the unflagged earners.
    println!("\n== private settlement: client 1 inflates its activation upload ==\n");
    let model = estimator.model();
    let shards: Vec<_> =
        (0..n_clients).map(|c| train.subset(&partition.client_indices(c))).collect();
    let declared_rows: Vec<usize> = shards.iter().map(|s| s.len()).collect();
    let test_acts = model.activation_matrix(&test, false).expect("schema matches");
    let predictions: Vec<usize> =
        (0..test.len()).map(|i| model.classify_from_activations(&test_acts, i)).collect();
    let scoring = PrivateScoring::new(
        model,
        &test_acts,
        test.labels(),
        &predictions,
        n_clients,
        TraceConfig::default(),
    );
    let mut up_rng = StdRng::seed_from_u64(32);
    let uploads: Vec<ActivationUpload> = shards
        .iter()
        .enumerate()
        .map(|(c, shard)| {
            ActivationUpload::compute(c, model, shard, &PrivacyConfig::default(), &mut up_rng)
                .expect("upload succeeds")
        })
        .collect();
    let plan = ScoreAttackPlan::none(n_clients)
        .with_gamer(1, ScoreAttackKind::Inflate { all_classes: false });
    let injector = ScoreAttackInjector::new(plan, 33);
    let mut gamed = uploads.clone();
    injector.rewrite_uploads(&mut gamed, model.class_masks_all());

    let naive = scoring.score(&gamed).expect("gamed uploads are well-formed");
    let audit = scoring
        .audit(&gamed, Some(&declared_rows), &UploadAuditConfig::default())
        .expect("gamed uploads are well-formed");
    assert!(
        audit.suspected_inflators.contains(&1),
        "the upload audit must name the inflator: {audit:?}"
    );
    let settled = slash_scores(&naive, &audit.flagged).expect("flags are in range");
    let naive_total: f64 = naive.iter().sum();
    let settled_total: f64 = settled.iter().sum();
    assert!((naive_total - settled_total).abs() < 1e-9, "slashing must conserve the pot");
    assert_eq!(settled[1], 0.0, "the inflator's payout is confiscated");

    println!("client  naive-score  settled   payout   notes");
    for c in 0..n_clients {
        let payout =
            if settled_total > 0.0 { REVENUE_POOL * settled[c] / settled_total } else { 0.0 };
        println!(
            "{c:>6}  {:>11.4}  {:>7.4}  {payout:>7.0}  {}",
            naive[c],
            settled[c],
            if audit.flagged.contains(&c) {
                "flagged by upload audit (slashed, redistributed)"
            } else {
                ""
            }
        );
    }
    println!(
        "\naudit flags {:?}; the slash is redistributed pro rata, so the pool still\n\
         pays out {REVENUE_POOL:.0} units — to the clients whose uploads survived audit.",
        audit.flagged
    );
}
