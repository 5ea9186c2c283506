//! The benchmark's only contact with APIs that the planned trace and engine
//! refactor replaces (`TraceInputs`, `ShardedTraceInputs`, `trace_sharded`,
//! `inputs_from_model`, the engine's `ByzantineSetup` constructor). The
//! untraced paths call stable entry points only; the traced runs come
//! through here, so a refactor of those APIs changes this file alone.

use ctfl_core::activation::ActivationMatrix;
use ctfl_core::data::Dataset;
use ctfl_core::error::Result;
use ctfl_core::model::RuleModel;
use ctfl_core::shard::ShardedActivations;
use ctfl_core::tracing::{
    inputs_from_model, trace, trace_sharded, ShardedTraceInputs, TraceConfig, TraceOutcome,
    TraceParts,
};
use ctfl_fl::adversary::AdversaryPlan;
use ctfl_fl::aggregate::WeightedFedAvg;
use ctfl_fl::engine::FederationEngine;
use ctfl_fl::faults::FaultPlan;
use ctfl_fl::fedavg::{ByzantineSetup, FlConfig};
use ctfl_fl::guard::GuardConfig;
use ctfl_nn::net::{LogicalNet, LogicalNetConfig};
use std::time::Instant;

/// The training side of a trace: one pooled matrix (the estimator's
/// layout) or the per-client upload store (the private-scoring layout).
pub enum TrainSide<'a> {
    /// Pooled activations with parallel label and owner vectors.
    Pooled {
        acts: &'a ActivationMatrix,
        labels: &'a [u32],
        client_of: &'a [u32],
    },
    /// Client upload arenas, traced in place.
    Sharded(&'a ShardedActivations),
}

/// The federation-owned test side of a trace.
pub struct TestSide<'a> {
    /// Test activations.
    pub acts: &'a ActivationMatrix,
    /// Test labels.
    pub labels: &'a [u32],
    /// The model's test predictions.
    pub predictions: &'a [usize],
}

/// Traces `test` against `train` under `model`'s weights and class masks.
pub fn trace_stage(
    model: &RuleModel,
    train: TrainSide<'_>,
    n_clients: usize,
    test: &TestSide<'_>,
    config: &TraceConfig,
) -> Result<TraceOutcome> {
    match train {
        TrainSide::Pooled {
            acts,
            labels,
            client_of,
        } => {
            let parts = TraceParts {
                train_acts: acts,
                train_labels: labels,
                client_of,
                n_clients,
                test_acts: test.acts,
                test_labels: test.labels,
                predictions: test.predictions,
            };
            trace(&inputs_from_model(model, parts), config)
        }
        TrainSide::Sharded(store) => {
            let inputs = ShardedTraceInputs {
                train: store,
                n_clients,
                test_acts: test.acts,
                test_labels: test.labels,
                predictions: test.predictions,
                weights: model.weights(),
                class_masks: model.class_masks_all(),
            };
            trace_sharded(&inputs, config)
        }
    }
}

/// A zero-fault FedAvg run driven one round at a time.
pub struct SteppedRun {
    /// The trained global network.
    pub net: LogicalNet,
    /// Seconds spent opening the session (replica construction, encoding).
    pub open_s: f64,
    /// Seconds of each `step_round` call, in round order.
    pub round_s: Vec<f64>,
}

/// The session `train_federated` drives internally (no faults, no
/// adversaries, strict guard, weighted FedAvg), stepped and timed per round.
pub fn train_stepped(
    shards: &[Dataset],
    n_classes: usize,
    net_config: &LogicalNetConfig,
    fl: &FlConfig,
) -> Result<SteppedRun> {
    let t = Instant::now();
    let faults = FaultPlan::none(shards.len(), fl.rounds);
    let adversary = AdversaryPlan::none(shards.len());
    let guard = GuardConfig::strict();
    let setup = ByzantineSetup {
        faults: &faults,
        adversary: &adversary,
        guard: &guard,
        aggregator: &WeightedFedAvg,
    };
    let mut engine = FederationEngine::from_datasets(shards, n_classes, net_config, fl, &setup)?;
    let open_s = t.elapsed().as_secs_f64();
    let mut round_s = Vec::with_capacity(fl.rounds);
    while !engine.is_finished() {
        let t = Instant::now();
        engine.step_round()?;
        round_s.push(t.elapsed().as_secs_f64());
    }
    Ok(SteppedRun {
        net: engine.finish().net,
        open_s,
        round_s,
    })
}
