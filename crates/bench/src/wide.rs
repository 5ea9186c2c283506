//! The wide cell: dense 230-bit activation rows under heavy-tailed rule
//! weights, the shape of a trained model's activations, where the trace's
//! work groups are wide enough to build its missing-weight bound (a
//! planted five-rule model never is). `scale_sweep` checks its trace
//! against the oracle; `benches/tracing.rs` times it.

use ctfl_core::activation::ActivationMatrix;
use ctfl_rng::rngs::StdRng;
use ctfl_rng::{Rng, SeedableRng};

/// Rule bits of a wide row: a trained model's width.
pub const WIDE_BITS: usize = 230;

/// Share of a random wide row's bits that are set.
const WIDE_DENSITY: f64 = 0.45;

/// A seeded row of [`WIDE_BITS`] bits, each set with probability `density`.
fn wide_row(rng: &mut StdRng, density: f64) -> Vec<u64> {
    let bits: Vec<usize> = (0..WIDE_BITS).filter(|_| rng.gen_bool(density)).collect();
    ActivationMatrix::build_mask(WIDE_BITS, bits)
}

/// The wide cell's federation and test side. Rule weights are Pareto
/// (α = 1.5), each rule supports a random one of two classes, a test row
/// is predicted by its heavier class sum and mislabeled 20% of the time,
/// and 30% of the train rows are copies of a test row, labeled with its
/// prediction, that drop each bit with probability 0.05: pairs at the
/// threshold.
pub struct WideCell {
    /// Training activations.
    pub train: ActivationMatrix,
    /// Training labels.
    pub train_labels: Vec<u32>,
    /// Owning client of each training row, in contiguous blocks.
    pub client_of: Vec<u32>,
    /// Test activations.
    pub test: ActivationMatrix,
    /// Test labels.
    pub test_labels: Vec<u32>,
    /// Predictions on the test rows.
    pub predictions: Vec<usize>,
    /// Rule weights.
    pub weights: Vec<f64>,
    /// Per-class rule masks.
    pub class_masks: Vec<Vec<u64>>,
}

/// A seeded wide cell of `n_train` training rows over `n_clients` clients
/// and `n_test` test rows.
pub fn wide_cell(seed: u64, n_train: usize, n_test: usize, n_clients: usize) -> WideCell {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0057_1DE0);
    let weights: Vec<f64> =
        (0..WIDE_BITS).map(|_| (1.0 - rng.gen::<f64>()).powf(-1.0 / 1.5)).collect();
    let rule_class: Vec<usize> = (0..WIDE_BITS).map(|_| rng.gen_range(0..2usize)).collect();
    let class_masks: Vec<Vec<u64>> = (0..2)
        .map(|c| {
            ActivationMatrix::build_mask(WIDE_BITS, (0..WIDE_BITS).filter(|&b| rule_class[b] == c))
        })
        .collect();
    let mut test = ActivationMatrix::with_capacity(n_test, WIDE_BITS);
    let (mut test_labels, mut predictions) = (Vec::new(), Vec::new());
    for _ in 0..n_test {
        let row = wide_row(&mut rng, WIDE_DENSITY);
        test.extend_from_words(1, &row).expect("row width");
        let votes: Vec<f64> = class_masks
            .iter()
            .map(|m| test.masked_weight_sum(test.n_rows() - 1, m, &weights))
            .collect();
        let predicted = usize::from(votes[1] >= votes[0]);
        predictions.push(predicted);
        test_labels.push((predicted ^ usize::from(rng.gen_bool(0.2))) as u32);
    }
    let mut train = ActivationMatrix::with_capacity(n_train, WIDE_BITS);
    let mut train_labels = Vec::with_capacity(n_train);
    for _ in 0..n_train {
        if rng.gen_bool(0.3) {
            let t = rng.gen_range(0..n_test);
            let mut row = test.row_words(t).to_vec();
            for b in 0..WIDE_BITS {
                if rng.gen_bool(0.05) {
                    row[b / 64] &= !(1 << (b % 64));
                }
            }
            train.extend_from_words(1, &row).expect("row width");
            train_labels.push(predictions[t] as u32);
        } else {
            train.extend_from_words(1, &wide_row(&mut rng, WIDE_DENSITY)).expect("row width");
            train_labels.push(rng.gen_range(0..2u32));
        }
    }
    let client_of = (0..n_train).map(|r| (r * n_clients / n_train) as u32).collect();
    WideCell {
        train,
        train_labels,
        client_of,
        test,
        test_labels,
        predictions,
        weights,
        class_masks,
    }
}
