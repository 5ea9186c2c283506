//! Pluggable, Byzantine-robust aggregation rules.
//!
//! The server's combination of accepted client updates is a policy choice,
//! not a fixed formula: FedAvg's weighted mean is statistically efficient
//! but a single colluding coalition can steer it; coordinate-wise median,
//! trimmed mean, and (Multi-)Krum trade a little efficiency for a bounded
//! breakdown point. The [`Aggregator`] trait makes the rule a parameter of
//! the round loop — a [`crate::engine::FederationEngine`] session threads
//! any implementation through the guards, quorum retries, and the
//! parallel/serial bit-identical paths.
//!
//! [`WeightedFedAvg`] is the bit-compatible default: it delegates to the
//! exact [`crate::server::aggregate`] arithmetic, so seeded runs through
//! the trait reproduce the pre-trait outputs byte for byte.
//!
//! The robust rules deliberately **ignore** the data-size weights: a
//! weight is a self-reported row count, and scaling influence by it would
//! hand adversaries a free amplification channel (claim more rows, move
//! the mean further). Rank-based rules use each update once, whatever its
//! weight claims.

use ctfl_core::error::{CoreError, Result};

/// Validates a round's accepted updates before any aggregation rule runs:
/// non-empty, weights aligned, uniform dimensionality, and every vector
/// entirely finite. Returns the common dimension.
///
/// Every [`Aggregator`] shares this error surface, so callers get the same
/// typed [`CoreError`] variants whichever rule is plugged in.
pub fn validate_updates(client_params: &[Vec<f32>], weights: &[usize]) -> Result<usize> {
    if client_params.is_empty() {
        return Err(CoreError::Empty { what: "client parameter list" });
    }
    if client_params.len() != weights.len() {
        return Err(CoreError::LengthMismatch {
            what: "aggregation weights",
            expected: client_params.len(),
            actual: weights.len(),
        });
    }
    let dim = client_params[0].len();
    for (i, p) in client_params.iter().enumerate() {
        if p.len() != dim {
            return Err(CoreError::LengthMismatch {
                what: "client parameter vector",
                expected: dim,
                actual: p.len(),
            });
        }
        if p.iter().any(|v| !v.is_finite()) {
            return Err(CoreError::NonFinite { what: "client parameter vector", index: i });
        }
    }
    Ok(dim)
}

/// A server-side rule combining accepted client parameter vectors into the
/// next global parameter vector.
///
/// Implementations must be deterministic pure functions of their inputs
/// (the round loop relies on that for its byte-identical replay guarantee)
/// and must validate via [`validate_updates`] so the typed error surface is
/// uniform across rules.
pub trait Aggregator: Send + Sync + std::fmt::Debug {
    /// Display name (used in experiment tables and logs).
    fn name(&self) -> &'static str;

    /// Combines the updates. `weights` are the clients' reported row
    /// counts; rank-based rules ignore them (see module docs).
    fn aggregate(&self, client_params: &[Vec<f32>], weights: &[usize]) -> Result<Vec<f32>>;

    /// [`Aggregator::aggregate`] into a caller-owned buffer (cleared
    /// first) — the round loop reuses one buffer across rounds. The default
    /// delegates to `aggregate`; rules with an allocation-free core (like
    /// [`WeightedFedAvg`]) override it. Must produce bytes identical to
    /// `aggregate`.
    fn aggregate_into(
        &self,
        client_params: &[Vec<f32>],
        weights: &[usize],
        out: &mut Vec<f32>,
    ) -> Result<()> {
        *out = self.aggregate(client_params, weights)?;
        Ok(())
    }
}

/// FedAvg's data-size-weighted mean — the bit-compatible default rule,
/// delegating to [`crate::server::aggregate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeightedFedAvg;

impl Aggregator for WeightedFedAvg {
    fn name(&self) -> &'static str {
        "fedavg"
    }

    fn aggregate(&self, client_params: &[Vec<f32>], weights: &[usize]) -> Result<Vec<f32>> {
        crate::server::aggregate(client_params, weights)
    }

    fn aggregate_into(
        &self,
        client_params: &[Vec<f32>],
        weights: &[usize],
        out: &mut Vec<f32>,
    ) -> Result<()> {
        crate::server::aggregate_into(client_params, weights, out)
    }
}

/// Coordinate-wise median: each parameter of the next global model is the
/// median of that coordinate over all accepted updates. Breakdown point
/// 1/2 per coordinate; unweighted by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinateMedian;

impl Aggregator for CoordinateMedian {
    fn name(&self) -> &'static str {
        "median"
    }

    fn aggregate(&self, client_params: &[Vec<f32>], weights: &[usize]) -> Result<Vec<f32>> {
        let dim = validate_updates(client_params, weights)?;
        let n = client_params.len();
        let mut column = vec![0.0f32; n];
        let mut out = Vec::with_capacity(dim);
        for d in 0..dim {
            for (slot, p) in column.iter_mut().zip(client_params) {
                *slot = p[d];
            }
            column.sort_by(f32::total_cmp);
            out.push(if n % 2 == 1 {
                column[n / 2]
            } else {
                (0.5 * (f64::from(column[n / 2 - 1]) + f64::from(column[n / 2]))) as f32
            });
        }
        Ok(out)
    }
}

/// Coordinate-wise trimmed mean: drop the `⌊trim_frac · n⌋` largest and
/// smallest values of each coordinate, average the rest. Robust to up to
/// `trim_frac` adversarial updates per coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrimmedMean {
    /// Fraction trimmed from *each* end, in `[0, 0.5)`.
    pub trim_frac: f64,
}

impl TrimmedMean {
    /// A trimmed mean dropping `trim_frac` of the updates from each end.
    pub fn new(trim_frac: f64) -> Self {
        TrimmedMean { trim_frac }
    }
}

impl Aggregator for TrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed-mean"
    }

    fn aggregate(&self, client_params: &[Vec<f32>], weights: &[usize]) -> Result<Vec<f32>> {
        let dim = validate_updates(client_params, weights)?;
        if !(0.0..0.5).contains(&self.trim_frac) {
            return Err(CoreError::InvalidParameter {
                name: "trim_frac",
                message: format!("must be in [0, 0.5), got {}", self.trim_frac),
            });
        }
        let n = client_params.len();
        let k = (self.trim_frac * n as f64).floor() as usize;
        if 2 * k >= n {
            return Err(CoreError::InvalidParameter {
                name: "trim_frac",
                message: format!("trimming {k} from each end leaves nothing of {n} updates"),
            });
        }
        let mut column = vec![0.0f32; n];
        let mut out = Vec::with_capacity(dim);
        for d in 0..dim {
            for (slot, p) in column.iter_mut().zip(client_params) {
                *slot = p[d];
            }
            column.sort_by(f32::total_cmp);
            let kept = &column[k..n - k];
            let sum: f64 = kept.iter().map(|&v| f64::from(v)).sum();
            out.push((sum / kept.len() as f64) as f32);
        }
        Ok(out)
    }
}

/// (Multi-)Krum (Blanchard et al. 2017): score every update by the sum of
/// squared L2 distances to its `n − f − 2` nearest other updates, then
/// average the `m` lowest-scoring updates. With `m = 1` this is classic
/// Krum (select one update verbatim). Tolerates up to `f` Byzantine
/// updates when `n ≥ f + 3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiKrum {
    /// Assumed number of Byzantine updates per round.
    pub f: usize,
    /// Number of lowest-scoring updates averaged into the result.
    pub m: usize,
}

impl MultiKrum {
    /// Multi-Krum averaging the `m` best-scored updates under `f` assumed
    /// Byzantine clients.
    pub fn new(f: usize, m: usize) -> Self {
        MultiKrum { f, m }
    }

    /// Classic single-selection Krum (`m = 1`).
    pub fn krum(f: usize) -> Self {
        MultiKrum { f, m: 1 }
    }
}

impl Aggregator for MultiKrum {
    fn name(&self) -> &'static str {
        if self.m == 1 {
            "krum"
        } else {
            "multi-krum"
        }
    }

    fn aggregate(&self, client_params: &[Vec<f32>], weights: &[usize]) -> Result<Vec<f32>> {
        let dim = validate_updates(client_params, weights)?;
        let n = client_params.len();
        if n < self.f + 3 {
            return Err(CoreError::InvalidParameter {
                name: "f",
                message: format!("Krum needs n ≥ f + 3 updates, got n = {n} with f = {}", self.f),
            });
        }
        if self.m == 0 || self.m > n {
            return Err(CoreError::InvalidParameter {
                name: "m",
                message: format!("must select between 1 and {n} updates, got {}", self.m),
            });
        }
        let neighbours = n - self.f - 2;
        // Pairwise squared distances (symmetric, computed once).
        let mut dist2 = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let d: f64 = client_params[i]
                    .iter()
                    .zip(&client_params[j])
                    .map(|(&a, &b)| {
                        let d = f64::from(a) - f64::from(b);
                        d * d
                    })
                    .sum();
                dist2[i * n + j] = d;
                dist2[j * n + i] = d;
            }
        }
        let mut scored: Vec<(f64, usize)> = (0..n)
            .map(|i| {
                let mut row: Vec<f64> =
                    (0..n).filter(|&j| j != i).map(|j| dist2[i * n + j]).collect();
                row.sort_by(f64::total_cmp);
                (row[..neighbours].iter().sum(), i)
            })
            .collect();
        // Select the m best; sum in (score, lexicographic params) order so
        // both the selection set and the float accumulation order — hence
        // the result — are independent of the order the updates arrived in.
        // Score ties are structural, not exotic: with `neighbours = 1` a
        // mutual-nearest pair shares the exact same score, so the
        // tie-break must itself be permutation invariant (an index is not).
        let lex = |i: usize, j: usize| {
            client_params[i]
                .iter()
                .zip(&client_params[j])
                .map(|(a, b)| a.total_cmp(b))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| lex(a.1, b.1)));
        let mut acc = vec![0.0f64; dim];
        for &(_, i) in &scored[..self.m] {
            for (a, &p) in acc.iter_mut().zip(&client_params[i]) {
                *a += f64::from(p);
            }
        }
        Ok(acc.into_iter().map(|v| (v / self.m as f64) as f32).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_rules() -> Vec<Box<dyn Aggregator>> {
        vec![
            Box::new(WeightedFedAvg),
            Box::new(CoordinateMedian),
            Box::new(TrimmedMean::new(0.25)),
            Box::new(MultiKrum::krum(0)),
        ]
    }

    #[test]
    fn every_rule_shares_the_typed_error_surface() {
        for rule in all_rules() {
            // Empty client list.
            assert_eq!(
                rule.aggregate(&[], &[]).unwrap_err(),
                CoreError::Empty { what: "client parameter list" },
                "{}: empty slice",
                rule.name()
            );
            // Mismatched weights length.
            assert_eq!(
                rule.aggregate(&vec![vec![1.0]; 3], &[1, 1]).unwrap_err(),
                CoreError::LengthMismatch {
                    what: "aggregation weights",
                    expected: 3,
                    actual: 2
                },
                "{}: weights mismatch",
                rule.name()
            );
            // Ragged dimensions.
            assert!(matches!(
                rule.aggregate(&[vec![1.0], vec![1.0, 2.0], vec![1.0]], &[1, 1, 1]).unwrap_err(),
                CoreError::LengthMismatch { what: "client parameter vector", .. }
            ));
            // Non-finite entries name the offending client.
            assert_eq!(
                rule.aggregate(&[vec![1.0], vec![f32::NAN], vec![1.0]], &[1, 1, 1]).unwrap_err(),
                CoreError::NonFinite { what: "client parameter vector", index: 1 },
                "{}: non-finite",
                rule.name()
            );
        }
    }

    #[test]
    fn fedavg_rule_matches_server_aggregate_bitwise() {
        let updates = vec![vec![1.0, -2.5, 0.125], vec![0.5, 3.0, -1.0], vec![-0.25, 0.0, 7.5]];
        let weights = vec![3, 1, 5];
        assert_eq!(
            WeightedFedAvg.aggregate(&updates, &weights).unwrap(),
            crate::server::aggregate(&updates, &weights).unwrap()
        );
    }

    #[test]
    fn median_is_the_middle_value_and_resists_one_outlier() {
        let updates = vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![1e9, 15.0]];
        let agg = CoordinateMedian.aggregate(&updates, &[1, 1, 1]).unwrap();
        assert_eq!(agg, vec![2.0, 15.0]);
        // Even count: midpoint of the two central values.
        let updates = vec![vec![1.0], vec![2.0], vec![4.0], vec![1e9]];
        assert_eq!(CoordinateMedian.aggregate(&updates, &[1; 4]).unwrap(), vec![3.0]);
    }

    #[test]
    fn trimmed_mean_drops_the_tails() {
        let updates =
            vec![vec![-1e9], vec![1.0], vec![2.0], vec![3.0], vec![1e9]];
        let agg = TrimmedMean::new(0.2).aggregate(&updates, &[1; 5]).unwrap();
        assert!((agg[0] - 2.0).abs() < 1e-6, "{agg:?}");
        // A trim fraction outside [0, 0.5) is a typed error.
        for bad in [0.5, 0.6, -0.1, f64::NAN] {
            assert!(
                matches!(
                    TrimmedMean::new(bad).aggregate(&[vec![1.0], vec![2.0]], &[1, 1]).unwrap_err(),
                    CoreError::InvalidParameter { name: "trim_frac", .. }
                ),
                "trim_frac {bad} must be rejected"
            );
        }
        // In-range trimming that rounds to zero drops nothing: plain mean.
        let agg = TrimmedMean::new(0.4).aggregate(&[vec![1.0], vec![2.0]], &[1, 1]).unwrap();
        assert!((agg[0] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn krum_selects_from_the_dense_cluster() {
        // Three clustered honest updates, one far-away Byzantine one.
        let updates = vec![vec![1.0, 1.0], vec![1.1, 0.9], vec![0.9, 1.1], vec![100.0, -100.0]];
        let agg = MultiKrum::krum(1).aggregate(&updates, &[1; 4]).unwrap();
        assert!(agg[0] < 2.0 && agg[1] < 2.0, "Krum picked the outlier: {agg:?}");
        // Multi-Krum averages the m best — still excludes the outlier.
        let agg = MultiKrum::new(1, 2).aggregate(&updates, &[1; 4]).unwrap();
        assert!((agg[0] - 1.0).abs() < 0.2 && (agg[1] - 1.0).abs() < 0.2, "{agg:?}");
        // Too few updates for the assumed f is a typed error.
        assert!(matches!(
            MultiKrum::krum(2).aggregate(&updates, &[1; 4]).unwrap_err(),
            CoreError::InvalidParameter { name: "f", .. }
        ));
        assert!(matches!(
            MultiKrum::new(0, 0).aggregate(&updates, &[1; 4]).unwrap_err(),
            CoreError::InvalidParameter { name: "m", .. }
        ));
    }

    #[test]
    fn robust_rules_ignore_weights() {
        let updates = vec![vec![1.0], vec![2.0], vec![3.0]];
        for rule in [&CoordinateMedian as &dyn Aggregator, &TrimmedMean::new(0.0)] {
            let a = rule.aggregate(&updates, &[1, 1, 1]).unwrap();
            let b = rule.aggregate(&updates, &[1000, 1, 1]).unwrap();
            assert_eq!(a, b, "{} must be weight-blind", rule.name());
        }
    }
}
