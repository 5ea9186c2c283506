//! Property tests for the fault-tolerant federation runtime: aggregation
//! identity over survivor subsets, guard/quorum transparency on fault-free
//! runs, and byte-level determinism of the federation log.

use std::sync::Arc;

use ctfl::core::data::{Dataset, FeatureKind, FeatureSchema};
use ctfl::fl::faults::{CorruptionKind, FaultPlan, FaultSpec};
use ctfl::core::error::Result;
use ctfl::fl::adversary::AdversaryPlan;
use ctfl::fl::aggregate::WeightedFedAvg;
use ctfl::fl::engine::FederationEngine;
use ctfl::fl::fedavg::{train_federated, ByzantineSetup, FederationRun, FlConfig};
use ctfl::fl::guard::{judge_round, GuardConfig, Participation, PanicPolicy, UpdateCandidate};
use ctfl::fl::server::aggregate;
use ctfl::nn::net::LogicalNetConfig;
use ctfl_testkit::prop::check;
use ctfl_testkit::{prop_assert, prop_assert_eq};

fn net_config(seed: u64) -> LogicalNetConfig {
    LogicalNetConfig {
        tau_d: 6,
        layer_sizes: vec![8],
        epochs: 2,
        batch_size: 16,
        seed,
        ..LogicalNetConfig::default()
    }
}

/// `n` shards of the separable 1-D task `label = x > 0.5`, every shard
/// seeing both classes.
fn shards(n: usize, rows: usize) -> Vec<Dataset> {
    let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
    (0..n)
        .map(|c| {
            let mut d = Dataset::empty(Arc::clone(&schema), 2);
            for i in 0..rows {
                let v = ((i * n + c) % 120) as f32 / 120.0;
                d.push_row(&[v.into()], (v > 0.5) as u32).unwrap();
            }
            d
        })
        .collect()
}

/// Aggregating any survivor subset that all report the *same* parameters is
/// an identity, whatever the subset size or sample weights; and the guard
/// judges every such (finite) update acceptable without clipping.
#[test]
fn survivor_subset_aggregation_is_identity() {
    check(
        "survivor-subset-identity",
        64,
        |g| {
            let dim = g.len_in(1, 32);
            let params = g.vec(dim, |g| g.f64_in(-10.0, 10.0) as f32);
            let global = g.vec(dim, |g| g.f64_in(-10.0, 10.0) as f32);
            let survivors = g.usize_in(1, 6);
            let weights = g.vec(survivors, |g| g.usize_in(1, 500));
            (params, global, weights)
        },
        |(params, global, weights)| {
            let updates: Vec<Vec<f32>> = vec![params.clone(); weights.len()];
            let agg = aggregate(&updates, weights).map_err(|e| e.to_string())?;
            for (a, p) in agg.iter().zip(params) {
                prop_assert!(
                    (a - p).abs() <= 1e-5 * p.abs().max(1.0),
                    "aggregate drifted: {a} vs {p}"
                );
            }
            let candidates: Vec<UpdateCandidate> = weights
                .iter()
                .enumerate()
                .map(|(client, &w)| UpdateCandidate {
                    client,
                    stale: false,
                    params: params.clone(),
                    weight: w,
                })
                .collect();
            let judged = judge_round(global, candidates, &GuardConfig::default())
                .map_err(|e| e.to_string())?;
            prop_assert_eq!(judged.len(), weights.len());
            for j in &judged {
                prop_assert!(
                    matches!(j.outcome, Participation::Accepted { clipped: false }),
                    "identical finite update judged {:?}",
                    j.outcome
                );
            }
            Ok(())
        },
    );
}

/// A fault-only session (no adversaries, weighted FedAvg) driven to
/// completion.
fn run_with(
    shards: &[Dataset],
    cfg: &LogicalNetConfig,
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
    let mut engine = FederationEngine::from_datasets(shards, 2, cfg, fl, &setup)?;
    engine.run_to_completion()?;
    Ok(engine.finish())
}

/// On a fault-free federation, the guard/quorum machinery is transparent:
/// whatever the quorum fraction, retry budget, or (loose) clipping factors,
/// the trained parameters are bit-identical to the plain
/// [`train_federated`] wrapper and no round ever retries or degrades.
#[test]
fn quorum_and_retries_are_noops_without_faults() {
    check(
        "faultless-guard-transparent",
        4,
        |g| {
            let n_clients = g.usize_in(2, 4);
            let guard = GuardConfig {
                clip_factor: g.f64_in(50.0, 100.0),
                reject_factor: g.f64_in(100.0, 200.0),
                quorum_frac: g.f64_in(0.0, 1.0),
                max_round_retries: g.usize_in(0, 3),
                panic_policy: if g.bool() { PanicPolicy::Record } else { PanicPolicy::Error },
                fail_fast: g.bool(),
            };
            (n_clients, g.usize_in(0, 1_000_000) as u64, guard, g.bool())
        },
        |(n_clients, seed, guard, parallel)| {
            let shards = shards(*n_clients, 24);
            let fl = FlConfig { rounds: 2, local_epochs: 1, parallel: *parallel };
            let cfg = net_config(*seed);
            let plain = train_federated(&shards, 2, &cfg, &fl).map_err(|e| e.to_string())?;
            let plan = FaultPlan::none(*n_clients, fl.rounds);
            let run = run_with(&shards, &cfg, &fl, &plan, guard).map_err(|e| e.to_string())?;
            prop_assert_eq!(plain.params(), run.net.params());
            prop_assert_eq!(run.log.n_degraded(), 0);
            for round in &run.log.rounds {
                prop_assert_eq!(round.attempts, 1);
                prop_assert_eq!(round.n_accepted(), *n_clients);
            }
            Ok(())
        },
    );
}

/// Whatever faults a random spec throws at the federation, the same seed
/// reproduces the same run byte-for-byte: equal logs, equal rendered text,
/// equal trained parameters.
#[test]
fn same_seed_reproduces_the_federation_byte_for_byte() {
    check(
        "seeded-chaos-deterministic",
        4,
        |g| {
            let spec = FaultSpec {
                crash: g.f64_in(0.0, 0.1),
                dropout: g.f64_in(0.0, 0.4),
                straggler: g.f64_in(0.0, 0.3),
                corrupt: g.f64_in(0.0, 0.3),
                corruption: match g.usize_in(0, 2) {
                    0 => CorruptionKind::NaN,
                    1 => CorruptionKind::Inf,
                    _ => CorruptionKind::NormExplosion,
                },
            };
            let n_clients = g.usize_in(3, 5);
            (n_clients, g.usize_in(0, 1_000_000) as u64, spec)
        },
        |(n_clients, seed, spec)| {
            let shards = shards(*n_clients, 24);
            let fl = FlConfig { rounds: 3, local_epochs: 1, parallel: true };
            let cfg = net_config(7);
            let plan = FaultPlan::generate(*n_clients, fl.rounds, spec, *seed);
            let guard = GuardConfig::default();
            let a = run_with(&shards, &cfg, &fl, &plan, &guard).map_err(|e| e.to_string())?;
            let b = run_with(&shards, &cfg, &fl, &plan, &guard).map_err(|e| e.to_string())?;
            prop_assert_eq!(&a.log, &b.log);
            prop_assert_eq!(a.log.render(), b.log.render());
            prop_assert_eq!(a.net.params(), b.net.params());
            Ok(())
        },
    );
}
