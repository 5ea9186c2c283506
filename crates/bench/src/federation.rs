//! Federation builders: dataset → skewed partition → trained global model.

use ctfl_core::data::Dataset;
use ctfl_core::model::RuleModel;
use ctfl_data::partition::{skew_label, skew_sample, Partition};
use ctfl_data::split::train_test_split;
use ctfl_fl::engine::FederationEngine;
use ctfl_fl::fedavg::{train_federated, ByzantineSetup, FlConfig};
use ctfl_nn::extract::{extract_rules, ExtractOptions};
use ctfl_nn::net::{LogicalNet, LogicalNetConfig};
use ctfl_valuation::utility::ModelUtility;
use ctfl_rng::rngs::StdRng;
use ctfl_rng::SeedableRng;

use crate::datasets::DatasetSpec;

/// The FedAvg configuration every experiment shares (both CTFL's single
/// global training and the baselines' per-coalition retrainings).
pub fn default_fl() -> FlConfig {
    FlConfig { rounds: 30, local_epochs: 5, parallel: true }
}

/// How client data distributions are skewed (paper Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkewMode {
    /// Skew-sample: varying amounts, same distribution.
    Sample,
    /// Skew-label: varying amounts *and* label mixes.
    Label,
}

impl SkewMode {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SkewMode::Sample => "skew-sample",
            SkewMode::Label => "skew-label",
        }
    }
}

/// Federation construction parameters.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Benchmark dataset.
    pub spec: DatasetSpec,
    /// Dataset scale (1.0 = paper size).
    pub scale: f64,
    /// RNG seed (dataset synthesis, split, partition, model init).
    pub seed: u64,
    /// Number of clients (paper: 8).
    pub n_clients: usize,
    /// Skew mode.
    pub skew: SkewMode,
    /// Dirichlet α (paper: `[0.6, 1.0]`).
    pub alpha: f64,
    /// Fraction reserved as the federation test set.
    pub test_fraction: f64,
    /// Training epochs for the per-coalition utility model (baselines).
    pub utility_epochs: usize,
}

impl FederationConfig {
    /// Defaults mirroring the paper (at a reduced scale for tractability).
    pub fn new(spec: DatasetSpec, scale: f64, seed: u64) -> Self {
        FederationConfig {
            spec,
            scale,
            seed,
            n_clients: 8,
            skew: SkewMode::Label,
            alpha: 0.8,
            test_fraction: 0.2,
            utility_epochs: 12,
        }
    }
}

/// A ready federation: pooled training data with ownership, reserved test
/// set, and the network configuration every scheme shares.
#[derive(Debug, Clone)]
pub struct Federation {
    /// Construction parameters.
    pub config: FederationConfig,
    /// Pooled training data `D_N`.
    pub train: Dataset,
    /// Reserved test set `D_te`.
    pub test: Dataset,
    /// Ownership of training rows.
    pub partition: Partition,
    /// Network hyper-parameters used by every model trained in this
    /// federation (same seed → same encoder everywhere).
    pub net_config: LogicalNetConfig,
}

impl Federation {
    /// Builds the federation: load → split → partition.
    pub fn build(config: FederationConfig) -> Federation {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let data = config.spec.load(config.scale, config.seed);
        let (train, test) = train_test_split(&data, config.test_fraction, true, &mut rng);
        let partition = match config.skew {
            SkewMode::Sample => {
                skew_sample(train.len(), config.n_clients, config.alpha, &mut rng)
            }
            SkewMode::Label => {
                skew_label(train.labels(), train.n_classes(), config.n_clients, config.alpha, &mut rng)
            }
        };
        let net_config = LogicalNetConfig {
            tau_d: 10,
            layer_sizes: vec![config.spec.layer_width()],
            epochs: config.utility_epochs,
            batch_size: 64,
            seed: config.seed ^ 0x5EED,
            // FL-friendly optimization settings (tuned on tic-tac-toe):
            // momentum off (stale velocity fights FedAvg averaging), hot
            // linear head so re-aggregated rule weights re-separate fast.
            lr_logical: 0.1,
            lr_linear: 0.3,
            momentum: 0.0,
        };
        Federation { config, train, test, partition, net_config }
    }

    /// Rebuilds with replaced training data + partition (adverse scenarios).
    pub fn with_modified(&self, train: Dataset, partition: Partition) -> Federation {
        Federation {
            config: self.config.clone(),
            train,
            test: self.test.clone(),
            partition,
            net_config: self.net_config.clone(),
        }
    }

    /// Per-client dataset shards.
    pub fn client_datasets(&self) -> Vec<Dataset> {
        (0..self.partition.n_clients)
            .map(|c| self.train.subset(&self.partition.client_indices(c)))
            .collect()
    }

    /// Trains the single global model with FedAvg (CTFL's one-pass
    /// training) and extracts its rule model.
    pub fn train_global(&self, fl: &FlConfig) -> (LogicalNet, RuleModel) {
        let shards = self.client_datasets();
        let net = train_federated(&shards, self.train.n_classes(), &self.net_config, fl)
            .expect("federation shards are valid");
        let model = extract_rules(&net, ExtractOptions::default()).expect("extraction succeeds");
        (net, model)
    }

    /// Opens a FedAvg session over the client shards under `setup` (faults,
    /// adversaries, guard, aggregation rule). Callers install a schedule or
    /// topology, drive the rounds, and extract rules from the finished run.
    pub fn engine<'a>(&self, fl: &FlConfig, setup: &ByzantineSetup<'a>) -> FederationEngine<'a> {
        let shards = self.client_datasets();
        let n_classes = self.train.n_classes();
        FederationEngine::from_datasets(&shards, n_classes, &self.net_config, fl, setup)
            .expect("federation shards are valid")
    }

    /// The coalition utility function the baselines evaluate (Eq. 1):
    /// retrain the *federated* model on the coalition's shards, measure
    /// test accuracy — the paper's cost model, where every coalition
    /// evaluation is as expensive as the original FL training.
    pub fn utility(&self) -> ModelUtility {
        ModelUtility::new(self.client_datasets(), self.test.clone(), self.net_config.clone())
            .federated(default_fl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FederationConfig {
        let mut cfg = FederationConfig::new(DatasetSpec::TicTacToe, 1.0, 3);
        cfg.n_clients = 4;
        cfg.utility_epochs = 6;
        cfg
    }

    #[test]
    fn build_produces_consistent_shapes() {
        let fed = Federation::build(tiny());
        assert_eq!(fed.partition.len(), fed.train.len());
        assert_eq!(fed.partition.n_clients, 4);
        assert!(fed.test.len() > 100);
        assert_eq!(fed.train.len() + fed.test.len(), 958);
        let shards = fed.client_datasets();
        assert_eq!(shards.len(), 4);
        assert_eq!(shards.iter().map(Dataset::len).sum::<usize>(), fed.train.len());
    }

    #[test]
    fn global_training_beats_majority_class() {
        let fed = Federation::build(tiny());
        let fl = FlConfig { rounds: 10, local_epochs: 3, parallel: true };
        let (_, model) = fed.train_global(&fl);
        let acc = model.accuracy(&fed.test).unwrap();
        let majority = *fed.test.class_counts().iter().max().unwrap() as f64
            / fed.test.len() as f64;
        assert!(acc > majority, "accuracy {acc} <= majority {majority}");
    }

    #[test]
    fn skew_modes_differ() {
        let mut cfg_s = tiny();
        cfg_s.skew = SkewMode::Sample;
        let mut cfg_l = tiny();
        cfg_l.skew = SkewMode::Label;
        let fs = Federation::build(cfg_s);
        let fl = Federation::build(cfg_l);
        // Same rows, (almost surely) different assignments.
        assert_eq!(fs.train.len(), fl.train.len());
        assert_ne!(fs.partition.client_of, fl.partition.client_of);
    }
}
