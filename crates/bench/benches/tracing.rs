//! **E8** — tracing throughput: the `O(|D_te| · |D_N|)` comparison on
//! redundant activation data (paper Section III-C "Efficient Computation of
//! CTFL"), traced once per distinct (traced class, activation row), the
//! kernel's only grouping. The paper groups test rows by Max-Miner frequent
//! rule sets instead, which traced both benchmark pipelines 13–15× slower
//! than this grouping (EXPERIMENTS.md §E8). The group keeps its name so its
//! history continues.
//!
//! The E8 group's 128-bit rows at 12% density never give a work group
//! enough traced bits for the kernel's missing-weight bound. A second group
//! traces `scale_sweep`'s wide cell (dense rows of `WIDE_BITS` = 230 bits,
//! Pareto rule weights) at the `score_1k_clients` scale, 24,000 train × 512
//! test rows over 1,000 clients, where the groups build it; compare its
//! minimum of 60 samples, which spreads far less than the median on a
//! shared host.

use ctfl_bench::wide::{wide_cell, WIDE_BITS};
use ctfl_core::activation::ActivationMatrix;
use ctfl_core::tracing::{trace, TraceConfig, TraceInputs};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::Rng;
use ctfl_rng::SeedableRng;
use ctfl_testkit::Bencher;

struct Setup {
    train: ActivationMatrix,
    train_labels: Vec<u32>,
    client_of: Vec<u32>,
    test: ActivationMatrix,
    test_labels: Vec<u32>,
    predictions: Vec<usize>,
    weights: Vec<f64>,
    masks: Vec<Vec<u64>>,
}

/// Synthetic activation data with realistic redundancy: instances cluster
/// around a handful of archetype activation patterns.
fn setup(n_train: usize, n_test: usize, n_rules: usize) -> Setup {
    let mut rng = StdRng::seed_from_u64(99);
    let n_archetypes = 24;
    let archetypes: Vec<Vec<bool>> = (0..n_archetypes)
        .map(|_| (0..n_rules).map(|_| rng.gen_bool(0.12)).collect())
        .collect();
    let sample = |rng: &mut StdRng| -> (Vec<bool>, u32) {
        let a = rng.gen_range(0..n_archetypes) as usize;
        let mut bits = archetypes[a].clone();
        // Small perturbation keeps some rows unique.
        if rng.gen_bool(0.3) {
            let flip = rng.gen_range(0..n_rules);
            bits[flip] = !bits[flip];
        }
        (bits, (a % 2) as u32)
    };
    let mut train = ActivationMatrix::zeros(0, n_rules);
    let mut train_labels = Vec::new();
    let mut client_of = Vec::new();
    for i in 0..n_train {
        let (bits, label) = sample(&mut rng);
        train.push_row(&bits).unwrap();
        train_labels.push(label);
        client_of.push((i % 8) as u32);
    }
    let mut test = ActivationMatrix::zeros(0, n_rules);
    let mut test_labels = Vec::new();
    let mut predictions = Vec::new();
    for _ in 0..n_test {
        let (bits, label) = sample(&mut rng);
        test.push_row(&bits).unwrap();
        test_labels.push(label);
        predictions.push(if rng.gen_bool(0.9) { label as usize } else { 1 - label as usize });
    }
    let weights: Vec<f64> = (0..n_rules).map(|_| 0.25 + rng.gen::<f64>()).collect();
    let masks = vec![
        ActivationMatrix::build_mask(n_rules, (0..n_rules).filter(|r| r % 2 == 0)),
        ActivationMatrix::build_mask(n_rules, (0..n_rules).filter(|r| r % 2 == 1)),
    ];
    Setup { train, train_labels, client_of, test, test_labels, predictions, weights, masks }
}

fn bench_tracing() {
    let s = setup(4000, 800, 128);
    let inputs = TraceInputs {
        train_acts: &s.train,
        train_labels: &s.train_labels,
        client_of: &s.client_of,
        n_clients: 8,
        test_acts: &s.test,
        test_labels: &s.test_labels,
        predictions: &s.predictions,
        weights: &s.weights,
        class_masks: &s.masks,
    };
    let mut group = Bencher::new("tracing_4000x800");
    group.sample_size(10);
    for parallel in [false, true] {
        let id = format!("signature_dedup/{}", if parallel { "parallel" } else { "serial" });
        let cfg = TraceConfig { tau_w: 0.9, parallel, ..TraceConfig::default() };
        group.bench(&id, || trace(&inputs, &cfg).unwrap());
    }
}

/// Seed of the wide cell's data: `scale_sweep`'s default.
const WIDE_SEED: u64 = 7;

fn bench_wide_tracing() {
    let s = wide_cell(WIDE_SEED, 24_000, 512, 1000);
    let inputs = TraceInputs {
        train_acts: &s.train,
        train_labels: &s.train_labels,
        client_of: &s.client_of,
        n_clients: 1000,
        test_acts: &s.test,
        test_labels: &s.test_labels,
        predictions: &s.predictions,
        weights: &s.weights,
        class_masks: &s.class_masks,
    };
    let mut group = Bencher::new(&format!("tracing_wide_24000x512x{WIDE_BITS}"));
    group.sample_size(60);
    for parallel in [false, true] {
        let id = format!("signature_dedup/{}", if parallel { "parallel" } else { "serial" });
        let cfg = TraceConfig { parallel, ..TraceConfig::default() };
        group.bench(&id, || trace(&inputs, &cfg).unwrap());
    }
}

fn main() {
    bench_tracing();
    bench_wide_tracing();
}
