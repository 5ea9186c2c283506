//! FedAvg (McMahan et al. 2017): configuration, run output, and the one
//! convenience entry point.
//!
//! Each round, every live client loads the global parameters, runs local
//! gradient-grafting epochs on its shard, and the server fuses the accepted
//! updates weighted by shard size. The round loop itself lives in one
//! runtime, [`crate::engine::FederationEngine`]: open a session over the
//! client shards under a [`ByzantineSetup`] (a [`crate::faults::FaultPlan`]
//! of system faults, an [`crate::adversary::AdversaryPlan`] of in-flight
//! update rewrites, a [`GuardConfig`] for server-side validation and
//! quorum, and a pluggable [`Aggregator`]), optionally install a
//! [`crate::schedule::Schedule`] and [`crate::topology::Topology`], then
//! step it round by round or call `run_to_completion` and `finish` for the
//! trained model plus its [`FederationLog`].
//!
//! [`train_federated`] is the one shortcut: a zero-fault, strict-guard
//! session driven to completion, returning only the trained network.

use ctfl_core::data::Dataset;
use ctfl_core::error::Result;
use ctfl_nn::net::{LogicalNet, LogicalNetConfig};

use crate::adversary::AdversaryPlan;
use crate::aggregate::{Aggregator, WeightedFedAvg};
use crate::engine::FederationEngine;
use crate::faults::FaultPlan;
use crate::guard::{FederationLog, GuardConfig};

/// Federated-training configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlConfig {
    /// Communication rounds.
    pub rounds: usize,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Run clients on scoped threads within each round.
    pub parallel: bool,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig { rounds: 5, local_epochs: 2, parallel: true }
    }
}

/// Output of a fault-tolerant training run: the global model plus the
/// per-round participation log.
#[derive(Debug, Clone)]
pub struct FederationRun {
    /// The trained global network.
    pub net: LogicalNet,
    /// Who participated, who was rejected and why, retry counts, degraded
    /// rounds.
    pub log: FederationLog,
}

/// The full server-side policy of a Byzantine federation run: which system
/// faults fire, which clients rewrite their updates, how the guard judges
/// candidates, and which rule fuses the survivors.
///
/// `faults: FaultPlan::none + adversary: AdversaryPlan::none + guard:
/// GuardConfig::strict() + aggregator: WeightedFedAvg` is the zero-fault
/// session [`train_federated`] drives.
#[derive(Debug, Clone, Copy)]
pub struct ByzantineSetup<'a> {
    /// System-level fault schedule (dropout, crash, straggle, corrupt,
    /// panic).
    pub faults: &'a FaultPlan,
    /// Update-level attack roles (sign-flip, collusion, free-riding, …).
    pub adversary: &'a AdversaryPlan,
    /// Server-side validation, quorum, and degradation policy.
    pub guard: &'a GuardConfig,
    /// The rule fusing accepted updates into the next global model.
    pub aggregator: &'a dyn Aggregator,
}

/// Trains a global model with FedAvg over per-client datasets — the
/// zero-fault path.
///
/// Drives a [`FederationEngine`] under [`FaultPlan::none`],
/// [`AdversaryPlan::none`], [`GuardConfig::strict`] and [`WeightedFedAvg`]:
/// no faults are injected, every client must report every round, a client
/// panic surfaces as [`ctfl_core::error::CoreError::ClientPanicked`] (never
/// a process abort), and a non-finite upload as
/// [`ctfl_core::error::CoreError::NonFinite`].
///
/// Returns the trained global network.
pub fn train_federated(
    client_data: &[Dataset],
    n_classes: usize,
    net_config: &LogicalNetConfig,
    fl_config: &FlConfig,
) -> Result<LogicalNet> {
    let faults = FaultPlan::none(client_data.len(), fl_config.rounds);
    let adversary = AdversaryPlan::none(client_data.len());
    let guard = GuardConfig::strict();
    let setup = ByzantineSetup {
        faults: &faults,
        adversary: &adversary,
        guard: &guard,
        aggregator: &WeightedFedAvg,
    };
    let mut engine =
        FederationEngine::from_datasets(client_data, n_classes, net_config, fl_config, &setup)?;
    engine.run_to_completion()?;
    Ok(engine.finish().net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{CorruptionKind, FaultKind, FaultSpec};
    use crate::guard::{PanicPolicy, Participation, RejectReason};
    use ctfl_core::data::{FeatureKind, FeatureSchema};
    use ctfl_core::error::CoreError;
    use std::sync::Arc;

    fn shards() -> Vec<Dataset> {
        // label = x > 0.5; client 0 is negative-heavy, client 1 positive-heavy
        // (label skew) but both see both classes.
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let mut a = Dataset::empty(Arc::clone(&schema), 2);
        let mut b = Dataset::empty(Arc::clone(&schema), 2);
        for i in 0..90 {
            let v = i as f32 / 90.0;
            let skewed_to_a = (v <= 0.5) == (i % 4 != 0);
            let target = if skewed_to_a { &mut a } else { &mut b };
            target.push_row(&[v.into()], (v > 0.5) as u32).unwrap();
        }
        vec![a, b]
    }

    fn many_shards(n: usize) -> Vec<Dataset> {
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        (0..n)
            .map(|c| {
                let mut d = Dataset::empty(Arc::clone(&schema), 2);
                for i in 0..40 {
                    let v = ((i * n + c) % 120) as f32 / 120.0;
                    d.push_row(&[v.into()], (v > 0.5) as u32).unwrap();
                }
                d
            })
            .collect()
    }

    fn cfg(seed: u64) -> LogicalNetConfig {
        LogicalNetConfig {
            tau_d: 6,
            layer_sizes: vec![8],
            epochs: 5,
            batch_size: 16,
            seed,
            ..LogicalNetConfig::default()
        }
    }

    /// A fault-only session (no adversaries, weighted FedAvg) driven to
    /// completion.
    fn run_with(
        shards: &[Dataset],
        net_config: &LogicalNetConfig,
        fl: &FlConfig,
        plan: &FaultPlan,
        guard: &GuardConfig,
    ) -> Result<FederationRun> {
        let adversary = AdversaryPlan::none(shards.len());
        let setup = ByzantineSetup {
            faults: plan,
            adversary: &adversary,
            guard,
            aggregator: &WeightedFedAvg,
        };
        let mut engine = FederationEngine::from_datasets(shards, 2, net_config, fl, &setup)?;
        engine.run_to_completion()?;
        Ok(engine.finish())
    }

    #[test]
    fn federated_training_learns_the_joint_task() {
        let shards = shards();
        let fl = FlConfig { rounds: 12, local_epochs: 3, parallel: false };
        let net = train_federated(&shards, 2, &cfg(1), &fl).unwrap();
        // Evaluate on the union.
        let union = Dataset::concat(shards.iter()).unwrap();
        let encoded = net.encode(&union).unwrap();
        let acc = net.accuracy_encoded(&encoded);
        assert!(acc >= 0.85, "federated accuracy {acc}");
    }

    #[test]
    fn parallel_and_serial_have_same_shape() {
        let shards = shards();
        let fl_p = FlConfig { rounds: 2, local_epochs: 1, parallel: true };
        let fl_s = FlConfig { rounds: 2, local_epochs: 1, parallel: false };
        let p = train_federated(&shards, 2, &cfg(2), &fl_p).unwrap();
        let s = train_federated(&shards, 2, &cfg(2), &fl_s).unwrap();
        // Same parameter dimensionality and same encoder.
        assert_eq!(p.params().len(), s.params().len());
        assert_eq!(p.encoder().width(), s.encoder().width());
    }

    #[test]
    fn parallel_and_serial_are_bit_identical_under_faults() {
        let shards = many_shards(4);
        let plan = FaultPlan::none(4, 3)
            .with_event(0, 1, FaultKind::Dropout)
            .with_event(1, 2, FaultKind::Straggler)
            .with_event(2, 0, FaultKind::Corrupt(CorruptionKind::NaN));
        let run = |parallel| {
            let fl = FlConfig { rounds: 3, local_epochs: 1, parallel };
            run_with(&shards, &cfg(4), &fl, &plan, &GuardConfig::default()).unwrap()
        };
        let p = run(true);
        let s = run(false);
        assert_eq!(p.net.params(), s.net.params(), "parallel/serial divergence");
        assert_eq!(p.log, s.log);
        assert_eq!(p.log.render(), s.log.render());
    }

    #[test]
    fn zero_fault_runtime_matches_back_compat_wrapper() {
        let shards = shards();
        let fl = FlConfig { rounds: 3, local_epochs: 1, parallel: true };
        let wrapped = train_federated(&shards, 2, &cfg(5), &fl).unwrap();
        let plan = FaultPlan::none(2, 3);
        let run = run_with(&shards, &cfg(5), &fl, &plan, &GuardConfig::default()).unwrap();
        assert_eq!(wrapped.params(), run.net.params(), "guards must be inert without faults");
        assert_eq!(run.log.rounds.len(), 3);
        assert!(run.log.rounds.iter().all(|r| !r.degraded && r.attempts == 1));
        assert!(run.log.participation().iter().all(|p| p.accepted == 3));
    }

    #[test]
    fn dropout_and_crash_shrink_the_round() {
        let shards = many_shards(4);
        let fl = FlConfig { rounds: 4, local_epochs: 1, parallel: false };
        let plan = FaultPlan::none(4, 4)
            .with_event(1, 0, FaultKind::Dropout)
            .with_event(2, 3, FaultKind::Crash);
        let run = run_with(&shards, &fl_cfg_net(), &fl, &plan, &GuardConfig::default()).unwrap();
        let part = run.log.participation();
        assert_eq!(part[0].accepted, 3, "one dropout round");
        assert_eq!(part[3].accepted, 2, "crashed from round 2 on");
        assert_eq!(part[3].missed, 2);
        // Crash persists in the log.
        for r in &run.log.rounds[2..] {
            assert!(r
                .entries
                .iter()
                .any(|e| e.client == 3 && e.outcome == Participation::Crashed));
        }
    }

    fn fl_cfg_net() -> LogicalNetConfig {
        cfg(6)
    }

    #[test]
    fn corrupted_update_is_rejected_every_round_it_reports() {
        let shards = many_shards(3);
        let fl = FlConfig { rounds: 3, local_epochs: 1, parallel: true };
        let plan = FaultPlan::none(3, 3).with_persistent_corruption(1, CorruptionKind::NaN);
        let run = run_with(&shards, &cfg(7), &fl, &plan, &GuardConfig::default()).unwrap();
        assert!(run.net.params().iter().all(|p| p.is_finite()), "NaN leaked into global model");
        let part = run.log.participation();
        assert_eq!(part[1].rejected, 3);
        assert_eq!(part[1].accepted, 0);
        for r in &run.log.rounds {
            assert!(r.entries.iter().any(|e| e.client == 1
                && matches!(e.outcome, Participation::Rejected(RejectReason::NonFinite { .. }))));
        }
    }

    #[test]
    fn straggler_update_arrives_one_round_late() {
        let shards = many_shards(3);
        let fl = FlConfig { rounds: 3, local_epochs: 1, parallel: false };
        let plan = FaultPlan::none(3, 3).with_event(0, 2, FaultKind::Straggler);
        let run = run_with(&shards, &cfg(8), &fl, &plan, &GuardConfig::default()).unwrap();
        let r0 = &run.log.rounds[0];
        assert!(r0
            .entries
            .iter()
            .any(|e| e.client == 2 && e.outcome == Participation::Straggling));
        let r1 = &run.log.rounds[1];
        let stale: Vec<_> = r1.entries.iter().filter(|e| e.stale).collect();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].client, 2);
        assert!(matches!(stale[0].outcome, Participation::Accepted { .. }));
        // Client 2 also reports fresh in round 1.
        assert!(r1.entries.iter().any(|e| e.client == 2 && !e.stale));
    }

    #[test]
    fn quorum_failure_degrades_gracefully_and_retry_recovers_dropouts() {
        let shards = many_shards(2);
        let fl = FlConfig { rounds: 2, local_epochs: 1, parallel: false };
        // Both clients drop out in round 0: no retry -> degraded round.
        let plan = FaultPlan::none(2, 2)
            .with_event(0, 0, FaultKind::Dropout)
            .with_event(0, 1, FaultKind::Dropout);
        let guard = GuardConfig { max_round_retries: 0, ..GuardConfig::default() };
        let run = run_with(&shards, &cfg(9), &fl, &plan, &guard).unwrap();
        assert!(run.log.rounds[0].degraded);
        assert!(!run.log.rounds[1].degraded);
        assert_eq!(run.log.n_degraded(), 1);

        // With one retry the dropouts (transient) come back and the round
        // commits on the second attempt.
        let guard = GuardConfig { max_round_retries: 1, ..GuardConfig::default() };
        let run = run_with(&shards, &cfg(9), &fl, &plan, &guard).unwrap();
        assert!(!run.log.rounds[0].degraded);
        assert_eq!(run.log.rounds[0].attempts, 2);
    }

    #[test]
    fn injected_panic_is_contained_or_fatal_per_policy() {
        let shards = many_shards(3);
        let plan = FaultPlan::none(3, 2).with_event(0, 1, FaultKind::Panic);
        for parallel in [false, true] {
            let fl = FlConfig { rounds: 2, local_epochs: 1, parallel };
            // Record policy: the panic becomes a logged fault.
            let run = run_with(&shards, &cfg(10), &fl, &plan, &GuardConfig::default()).unwrap();
            assert!(run.log.rounds[0]
                .entries
                .iter()
                .any(|e| e.client == 1 && e.outcome == Participation::Panicked));
            // Error policy: the panic surfaces as a typed error, never an
            // abort.
            let guard = GuardConfig { panic_policy: PanicPolicy::Error, ..GuardConfig::default() };
            let err = run_with(&shards, &cfg(10), &fl, &plan, &guard).unwrap_err();
            assert_eq!(err, CoreError::ClientPanicked { client: 1 });
        }
    }

    #[test]
    fn same_seed_produces_byte_identical_logs() {
        let shards = many_shards(5);
        let spec = FaultSpec {
            dropout: 0.3,
            straggler: 0.1,
            corrupt: 0.1,
            corruption: CorruptionKind::NaN,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(5, 4, &spec, 99);
        let fl = FlConfig { rounds: 4, local_epochs: 1, parallel: true };
        let a = run_with(&shards, &cfg(11), &fl, &plan, &GuardConfig::default()).unwrap();
        let b = run_with(&shards, &cfg(11), &fl, &plan, &GuardConfig::default()).unwrap();
        assert_eq!(a.log, b.log);
        assert_eq!(a.log.render(), b.log.render());
        assert_eq!(a.net.params(), b.net.params());
    }

    #[test]
    fn validation_errors() {
        assert!(train_federated(&[], 2, &cfg(0), &FlConfig::default()).is_err());
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let empty = Dataset::empty(Arc::clone(&schema), 2);
        assert!(train_federated(&[empty], 2, &cfg(0), &FlConfig::default()).is_err());
        // Mismatched schemas.
        let mut a = Dataset::empty(Arc::clone(&schema), 2);
        a.push_row(&[0.5f32.into()], 1).unwrap();
        let other = FeatureSchema::new(vec![("y", FeatureKind::continuous(0.0, 2.0))]);
        let mut b = Dataset::empty(other, 2);
        b.push_row(&[0.5f32.into()], 1).unwrap();
        assert!(train_federated(&[a.clone(), b], 2, &cfg(0), &FlConfig::default()).is_err());
        // Fault plan sized for the wrong federation.
        let plan = FaultPlan::none(3, 2);
        assert!(run_with(&[a], &cfg(0), &FlConfig::default(), &plan, &GuardConfig::default())
            .is_err());
    }
}
