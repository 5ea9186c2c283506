//! The privacy pipeline (activation uploads, paper Section V) must produce
//! the *same* contribution scores as direct raw-data estimation when no
//! perturbation is applied.

use ctfl::core::allocation::{macro_scores, micro_scores, CreditDirection};
use ctfl::core::estimator::{CtflConfig, CtflEstimator};
use ctfl::core::tracing::{inputs_from_model, trace, TraceConfig, TraceParts};
use ctfl::data::partition::skew_label;
use ctfl::data::split::train_test_split;
use ctfl::data::tictactoe_endgame;
use ctfl::fl::fedavg::{train_federated, FlConfig};
use ctfl::fl::privacy::{assemble_sharded, ActivationUpload, PrivacyConfig};
use ctfl::nn::extract::{extract_rules, ExtractOptions};
use ctfl::nn::net::LogicalNetConfig;
use ctfl_rng::rngs::StdRng;
use ctfl_rng::SeedableRng;

#[test]
fn upload_pipeline_reproduces_raw_estimation_exactly() {
    let mut rng = StdRng::seed_from_u64(3);
    let data = tictactoe_endgame();
    let (train, test) = train_test_split(&data, 0.2, true, &mut rng);
    let n_clients = 3;
    let partition = skew_label(train.labels(), 2, n_clients, 0.8, &mut rng);
    let shards: Vec<_> =
        (0..n_clients).map(|c| train.subset(&partition.client_indices(c))).collect();

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

    // Raw-data reference. Note: the estimator pools shards in client order,
    // so rebuild a pooled dataset in the SAME order the uploads use.
    let pooled = ctfl::core::data::Dataset::concat(shards.iter()).unwrap();
    let client_of: Vec<u32> = shards
        .iter()
        .enumerate()
        .flat_map(|(c, s)| std::iter::repeat_n(c as u32, s.len()))
        .collect();
    let reference = CtflEstimator::new(model.clone(), CtflConfig::default())
        .estimate(&pooled, &client_of, &test)
        .unwrap();

    // Privacy pipeline: per-client local uploads, no perturbation.
    let uploads: Vec<ActivationUpload> = shards
        .iter()
        .enumerate()
        .map(|(c, shard)| {
            ActivationUpload::compute(c, &model, shard, &PrivacyConfig::default(), &mut rng)
                .unwrap()
        })
        .collect();
    let (train_acts, train_labels, upload_client_of) =
        assemble_sharded(&uploads, &[]).unwrap().to_matrix().unwrap();
    assert_eq!(upload_client_of, client_of);

    let test_acts = model.activation_matrix(&test, false).unwrap();
    let predictions: Vec<usize> =
        (0..test.len()).map(|i| model.classify_from_activations(&test_acts, i)).collect();
    let inputs = inputs_from_model(
        &model,
        TraceParts {
            train_acts: &train_acts,
            train_labels: &train_labels,
            client_of: &upload_client_of,
            n_clients,
            test_acts: &test_acts,
            test_labels: test.labels(),
            predictions: &predictions,
        },
    );
    let outcome = trace(&inputs, &TraceConfig::default()).unwrap();

    let micro = micro_scores(&outcome, CreditDirection::Gain);
    let macro_ = macro_scores(&outcome, 2, CreditDirection::Gain).unwrap();
    for (a, b) in micro.iter().zip(&reference.micro) {
        assert!((a - b).abs() < 1e-12, "micro differs: {a} vs {b}");
    }
    for (a, b) in macro_.iter().zip(&reference.macro_) {
        assert!((a - b).abs() < 1e-12, "macro differs: {a} vs {b}");
    }
}
