//! Data-utility functions `v : 2^N → ℝ` (paper Definition II.1).

use ctfl_core::data::{Dataset, DatasetView};
use ctfl_fl::{
    AdversaryPlan, ByzantineSetup, FaultPlan, FederationEngine, FlConfig, GuardConfig,
    WeightedFedAvg,
};
use ctfl_nn::encoding::{EncodedData, Encoder};
use ctfl_nn::extract::{extract_rules, ExtractOptions};
use ctfl_nn::net::{LogicalNet, LogicalNetConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::coalition::Coalition;

/// A coalition utility function. Implementations must be `Sync`: baselines
/// evaluate many coalitions concurrently.
pub trait UtilityFn: Sync {
    /// Number of participants.
    fn n_players(&self) -> usize;
    /// The utility `v(S)` of a coalition's pooled data.
    fn value(&self, coalition: &Coalition) -> f64;
}

/// An explicit `2^n` utility table — the workhorse for tests and the paper's
/// Table II example.
#[derive(Debug, Clone)]
pub struct TableUtility {
    n: usize,
    values: Vec<f64>,
}

impl TableUtility {
    /// Builds a table; `values[mask]` is `v` of the coalition with that
    /// bitmask.
    ///
    /// # Panics
    /// Panics unless `values.len() == 2^n`.
    pub fn new(n: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), 1usize << n, "need one value per coalition");
        TableUtility { n, values }
    }

    /// The paper's Table II example (utilities in accuracy %):
    /// `v(∅)=50, v(A)=v(B)=80, v(C)=65, v(AB)=80, v(AC)=v(BC)=90,
    /// v(ABC)=90`, with players `A=0, B=1, C=2`.
    pub fn paper_table2() -> Self {
        // Index by mask: bit0=A, bit1=B, bit2=C.
        let mut values = vec![0.0; 8];
        values[0b000] = 50.0;
        values[0b001] = 80.0; // A
        values[0b010] = 80.0; // B
        values[0b100] = 65.0; // C
        values[0b011] = 80.0; // AB
        values[0b101] = 90.0; // AC
        values[0b110] = 90.0; // BC
        values[0b111] = 90.0; // ABC
        TableUtility::new(3, values)
    }
}

impl UtilityFn for TableUtility {
    fn n_players(&self) -> usize {
        self.n
    }
    fn value(&self, coalition: &Coalition) -> f64 {
        self.values[coalition.mask() as usize]
    }
}

/// Memoizing wrapper counting distinct evaluations — baselines repeatedly
/// probe the same coalitions, and the benchmark harness reports how many
/// model trainings each scheme actually performed.
pub struct CachedUtility<U> {
    inner: U,
    cache: Mutex<HashMap<u32, f64>>,
    evaluations: AtomicUsize,
}

impl<U: UtilityFn> CachedUtility<U> {
    /// Wraps a utility function.
    pub fn new(inner: U) -> Self {
        CachedUtility { inner, cache: Mutex::new(HashMap::new()), evaluations: AtomicUsize::new(0) }
    }

    /// Distinct coalition evaluations performed so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// The wrapped utility.
    pub fn inner(&self) -> &U {
        &self.inner
    }
}

impl<U: UtilityFn> UtilityFn for CachedUtility<U> {
    fn n_players(&self) -> usize {
        self.inner.n_players()
    }
    fn value(&self, coalition: &Coalition) -> f64 {
        if let Some(&v) = self.cache.lock().expect("cache lock poisoned").get(&coalition.mask()) {
            return v;
        }
        // Compute OUTSIDE the lock: model training takes seconds and other
        // coalitions should proceed concurrently. A duplicate computation of
        // the same mask is possible but harmless (both produce the same
        // deterministic value).
        let v = self.inner.value(coalition);
        self.cache.lock().expect("cache lock poisoned").insert(coalition.mask(), v);
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        v
    }
}

/// How each coalition's model is retrained.
#[derive(Debug, Clone)]
pub enum UtilityMode {
    /// Centralized training on the pooled coalition data with the
    /// configured epoch budget — cheap, useful for quick experiments.
    Centralized,
    /// Federated (FedAvg) training over the coalition members' shards —
    /// what the paper's baselines actually do, and the cost model behind
    /// its "2–3 orders of magnitude" efficiency claim.
    Federated(ctfl_fl::fedavg::FlConfig),
}

/// The real utility of paper Eq. 1: train the task model on the coalition's
/// data, report test accuracy.
///
/// All client shards are pooled **once** at construction; every coalition is
/// then a zero-copy [`DatasetView`] over the pooled columns (an index slice
/// per member range), so evaluating `v(S)` never clones row data.
pub struct ModelUtility {
    /// Client shards concatenated in client order.
    pooled: Dataset,
    /// Contiguous row range of each client inside `pooled`.
    ranges: Vec<std::ops::Range<u32>>,
    test: Dataset,
    net_config: LogicalNetConfig,
    mode: UtilityMode,
    /// Utility of the empty coalition: majority-class accuracy on the test
    /// set (a model trained on nothing predicts the prior).
    empty_value: f64,
    /// The encoder every coalition's net would build (the seed is fixed by
    /// `net_config`), materialized once.
    encoder: Encoder,
    /// `pooled` encoded once — centralized coalition training gathers rows
    /// of this instead of re-encoding the coalition view (encoding is a
    /// pure per-row function, so the gather is bit-identical).
    encoded_pooled: EncodedData,
}

impl ModelUtility {
    /// Creates the utility over per-client datasets and a reserved test set
    /// (centralized retraining; see [`ModelUtility::federated`]).
    ///
    /// # Panics
    /// Panics if `client_data` is empty, any shard/test set is empty, the
    /// shards disagree on schema, or `net_config` is invalid.
    pub fn new(client_data: Vec<Dataset>, test: Dataset, net_config: LogicalNetConfig) -> Self {
        assert!(!client_data.is_empty(), "need at least one client");
        assert!(client_data.iter().all(|d| !d.is_empty()), "clients must hold data");
        assert!(!test.is_empty(), "test set must not be empty");
        let counts = test.class_counts();
        let empty_value =
            *counts.iter().max().expect("at least one class") as f64 / test.len() as f64;
        let mut ranges = Vec::with_capacity(client_data.len());
        let mut start = 0u32;
        for d in &client_data {
            let end = start + d.len() as u32;
            ranges.push(start..end);
            start = end;
        }
        let pooled = Dataset::concat(client_data.iter()).expect("shards share a schema");
        // Encode everything once up front: every coalition's net shares the
        // same seed-fixed encoder, so the per-coalition re-encoding the old
        // path performed always produced these exact bytes.
        let encoder = LogicalNet::encoder_for(pooled.schema(), &net_config)
            .expect("valid net config");
        let encoded_pooled = encoder.encode(&pooled).expect("pooled data encodes");
        ModelUtility {
            pooled,
            ranges,
            test,
            net_config,
            mode: UtilityMode::Centralized,
            empty_value,
            encoder,
            encoded_pooled,
        }
    }

    /// Switches to federated per-coalition retraining (the paper's cost
    /// model: every coalition evaluation is a full FL training run).
    pub fn federated(mut self, fl: ctfl_fl::fedavg::FlConfig) -> Self {
        self.mode = UtilityMode::Federated(fl);
        self
    }

    /// The reserved test set.
    pub fn test(&self) -> &Dataset {
        &self.test
    }

    /// All client shards pooled in client order.
    pub fn pooled(&self) -> &Dataset {
        &self.pooled
    }

    /// Zero-copy view of client `m`'s rows inside the pooled training data.
    pub fn client_view(&self, m: usize) -> DatasetView<'_> {
        self.pooled.view_of_rows(self.ranges[m].clone().collect())
    }

    /// The seed-fixed encoder shared by every coalition's model.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }
}

impl UtilityFn for ModelUtility {
    fn n_players(&self) -> usize {
        self.ranges.len()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        assert_eq!(coalition.n_players(), self.n_players(), "coalition size mismatch");
        if coalition.is_empty() {
            return self.empty_value;
        }
        let net = match &self.mode {
            UtilityMode::Centralized => {
                // The coalition's rows are a gather of the pre-encoded pool:
                // encoding is per-row and the index order matches the old
                // shard concatenation exactly, so training is bit-identical
                // to re-encoding the coalition view.
                let indices: Vec<usize> = coalition
                    .members()
                    .into_iter()
                    .flat_map(|m| self.ranges[m].clone())
                    .map(|i| i as usize)
                    .collect();
                let encoded = EncodedData {
                    x: self.encoded_pooled.x.select_rows(&indices),
                    labels: indices.iter().map(|&i| self.encoded_pooled.labels[i]).collect(),
                    n_classes: self.encoded_pooled.n_classes,
                };
                let mut net = LogicalNet::new(
                    Arc::clone(self.pooled.schema()),
                    self.pooled.n_classes(),
                    self.net_config.clone(),
                )
                .expect("valid net config");
                net.train(&encoded).expect("non-empty pooled data");
                net
            }
            UtilityMode::Federated(fl) => {
                // Each member's shard is a zero-copy view of the pooled
                // columns; the engine's seed-fixed encoder reproduces the
                // same bytes for them every evaluation.
                let views: Vec<DatasetView<'_>> =
                    coalition.members().into_iter().map(|m| self.client_view(m)).collect();
                let n_classes = self.pooled.n_classes();
                // Coalition evaluations already run concurrently; avoid
                // nested thread fan-out inside each FedAvg round.
                let fl = FlConfig { parallel: false, ..*fl };
                let faults = FaultPlan::none(views.len(), fl.rounds);
                let adversary = AdversaryPlan::none(views.len());
                let guard = GuardConfig::strict();
                let setup = ByzantineSetup {
                    faults: &faults,
                    adversary: &adversary,
                    guard: &guard,
                    aggregator: &WeightedFedAvg,
                };
                let mut engine =
                    FederationEngine::from_views(&views, n_classes, &self.net_config, &fl, &setup)
                        .expect("coalition shards are valid");
                engine.run_to_completion().expect("zero-fault rounds commit");
                engine.finish().net
            }
        };
        let model = extract_rules(&net, ExtractOptions::default()).expect("extraction succeeds");
        model.accuracy(&self.test).expect("non-empty test set")
    }
}

/// Evaluates `v` on many coalitions concurrently with scoped threads.
///
/// Results are committed in the order of `coalitions` (chunk boundaries
/// are input positions), so the output never depends on thread timing —
/// only each evaluation's own determinism.
pub fn evaluate_many<U: UtilityFn>(u: &U, coalitions: &[Coalition], parallel: bool) -> Vec<f64> {
    // One coalition evaluation (a model training, usually) dwarfs spawn
    // cost: plan with a floor of one coalition per worker.
    let n_threads = if parallel {
        ctfl_core::parallel::plan_threads(coalitions.len(), coalitions.len(), 1, 0)
    } else {
        1
    };
    if n_threads <= 1 || coalitions.len() < 2 {
        return coalitions.iter().map(|c| u.value(c)).collect();
    }
    let chunk = coalitions.len().div_ceil(n_threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = coalitions
            .chunks(chunk.max(1))
            .map(|cs| s.spawn(move || cs.iter().map(|c| u.value(c)).collect::<Vec<f64>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("utility worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctfl_core::data::{FeatureKind, FeatureSchema};

    #[test]
    fn table_utility_lookup() {
        let t = TableUtility::paper_table2();
        assert_eq!(t.value(&Coalition::empty(3)), 50.0);
        assert_eq!(t.value(&Coalition::from_members(3, &[0])), 80.0);
        assert_eq!(t.value(&Coalition::from_members(3, &[2])), 65.0);
        assert_eq!(t.value(&Coalition::from_members(3, &[0, 2])), 90.0);
        assert_eq!(t.value(&Coalition::grand(3)), 90.0);
    }

    #[test]
    fn cache_avoids_recomputation() {
        let t = CachedUtility::new(TableUtility::paper_table2());
        let c = Coalition::from_members(3, &[0, 1]);
        assert_eq!(t.value(&c), 80.0);
        assert_eq!(t.value(&c), 80.0);
        assert_eq!(t.evaluations(), 1);
        let _ = t.value(&Coalition::grand(3));
        assert_eq!(t.evaluations(), 2);
    }

    #[test]
    fn evaluate_many_matches_serial() {
        let t = TableUtility::paper_table2();
        let coalitions: Vec<Coalition> = Coalition::all(3).collect();
        let serial = evaluate_many(&t, &coalitions, false);
        let parallel = evaluate_many(&t, &coalitions, true);
        assert_eq!(serial, parallel);
        assert_eq!(serial[0], 50.0);
        assert_eq!(serial[7], 90.0);
    }

    #[test]
    fn model_utility_monotone_on_separable_task() {
        // Client 0 holds negatives, client 1 positives; together they enable
        // a perfect model, alone they do worse than together.
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let mut a = Dataset::empty(Arc::clone(&schema), 2);
        let mut b = Dataset::empty(Arc::clone(&schema), 2);
        let mut test = Dataset::empty(Arc::clone(&schema), 2);
        for i in 0..40 {
            let v = i as f32 / 40.0;
            if v <= 0.5 {
                a.push_row(&[v.into()], 0).unwrap();
            } else {
                b.push_row(&[v.into()], 1).unwrap();
            }
            test.push_row(&[v.into()], (v > 0.5) as u32).unwrap();
        }
        let cfg = LogicalNetConfig {
            tau_d: 6,
            layer_sizes: vec![8],
            epochs: 20,
            batch_size: 16,
            seed: 3,
            ..LogicalNetConfig::default()
        };
        let u = ModelUtility::new(vec![a, b], test, cfg);
        let v_empty = u.value(&Coalition::empty(2));
        let v_grand = u.value(&Coalition::grand(2));
        // Test set has 21 negatives (i = 0..=20) and 19 positives.
        assert!((v_empty - 21.0 / 40.0).abs() < 1e-12, "majority prior, got {v_empty}");
        assert!(v_grand >= 0.9, "grand coalition accuracy {v_grand}");
        assert!(v_grand >= v_empty);
    }
}
