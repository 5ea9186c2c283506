//! The ShapleyValue scheme (paper Section II-B.3).
//!
//! `φ(i) = E_{S ⊆ N∖i}[v(S ∪ {i}) − v(S)]` with the expectation over the
//! positions of `i` in uniformly random orderings. Three estimators:
//!
//! * [`exact_shapley`] — full `2^n` enumeration with the permutation
//!   weights `|S|! (n − |S| − 1)! / n!`.
//! * [`sampled_shapley`] — permutation Monte-Carlo with the paper's
//!   `Θ(n² log n)` budget, optionally **truncated**: a permutation's scan
//!   stops early once the running coalition's utility is within
//!   `truncation_tolerance` of `v(N)` (remaining marginals ≈ 0 — the
//!   GTG-Shapley acceleration the paper applies to this baseline).

use ctfl_core::parallel::{map_chunks, plan_threads};
use ctfl_rng::seq::SliceRandom;
use ctfl_rng::Rng;

use crate::coalition::Coalition;
use crate::utility::UtilityFn;

/// Exact Shapley values by coalition enumeration (`2^n` utility calls; use
/// only for small `n` or table-backed utilities).
pub fn exact_shapley<U: UtilityFn>(u: &U) -> Vec<f64> {
    let n = u.n_players();
    assert!(n <= 20, "exact Shapley beyond n=20 is intractable");
    // Precompute all coalition values once.
    let values: Vec<f64> = Coalition::all(n).map(|c| u.value(&c)).collect();
    // Weight table: w[s] = s! (n-s-1)! / n!
    let mut factorial = vec![1.0f64; n + 1];
    for i in 1..=n {
        factorial[i] = factorial[i - 1] * i as f64;
    }
    let weight = |s: usize| factorial[s] * factorial[n - s - 1] / factorial[n];

    let mut scores = vec![0.0; n];
    for mask in 0..values.len() {
        let c = Coalition::from_mask(n, mask as u32);
        let s = c.len();
        #[allow(clippy::needless_range_loop)] // player index drives both coalition and scores
        for i in 0..n {
            if !c.contains(i) {
                let with_i = c.with(i);
                scores[i] += weight(s) * (values[with_i.mask() as usize] - values[mask]);
            }
        }
    }
    scores
}

/// Configuration for permutation-sampling Shapley.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapleySamplingConfig {
    /// Number of random permutations.
    pub n_permutations: usize,
    /// Truncation: stop scanning a permutation once
    /// `v(N) − v(prefix) <= truncation_tolerance` (remaining players get
    /// zero marginal this round). `0.0` still truncates exactly-saturated
    /// prefixes; use a negative value to disable truncation entirely.
    pub truncation_tolerance: f64,
    /// Scan permutations on a scoped worker pool. Permutations are drawn
    /// up-front from the caller's RNG (the identical stream the serial
    /// path consumes) and their marginals folded in permutation order, so
    /// the scores are byte-identical to a serial run. Disable when an
    /// exact utility-*evaluation count* matters (caching utilities may
    /// evaluate a coalition once per thread instead of once).
    pub parallel: bool,
}

impl Default for ShapleySamplingConfig {
    fn default() -> Self {
        ShapleySamplingConfig { n_permutations: 128, truncation_tolerance: -1.0, parallel: true }
    }
}

/// The marginal contributions one permutation scan produced, in scan
/// order: `(player, v(prefix ∪ player) − v(prefix))`, stopping early at
/// the truncation point.
type PermDeltas = Vec<(usize, f64)>;

/// Permutation Monte-Carlo Shapley estimation.
///
/// With `config.parallel` the permutation scans run on scoped worker
/// threads; results are committed in permutation order, replicating the
/// serial f64 addition sequence per player exactly.
pub fn sampled_shapley<U: UtilityFn, R: Rng + ?Sized>(
    u: &U,
    config: &ShapleySamplingConfig,
    rng: &mut R,
) -> Vec<f64> {
    let n = u.n_players();
    assert!(config.n_permutations > 0, "need at least one permutation");
    let v_empty = u.value(&Coalition::empty(n));
    let v_grand = u.value(&Coalition::grand(n));

    // Draw every permutation up-front by repeatedly shuffling ONE reused
    // order vector — the exact RNG consumption pattern of the historical
    // serial loop (utility evaluation never touches the RNG), so seeds
    // reproduce the same permutations regardless of the parallel flag.
    let mut order: Vec<usize> = (0..n).collect();
    let perms: Vec<Vec<usize>> = (0..config.n_permutations)
        .map(|_| {
            order.shuffle(rng);
            order.clone()
        })
        .collect();

    let scan = |perm: &[usize]| -> PermDeltas {
        let mut prefix = Coalition::empty(n);
        let mut v_prev = v_empty;
        let mut deltas = Vec::with_capacity(n);
        for (pos, &player) in perm.iter().enumerate() {
            // Truncation: if the prefix already achieves (nearly) the grand
            // utility, remaining marginals are ~0 — skip their evaluations.
            if config.truncation_tolerance >= 0.0
                && (v_grand - v_prev) <= config.truncation_tolerance
            {
                break;
            }
            prefix.insert(player);
            let v_now = if pos + 1 == n { v_grand } else { u.value(&prefix) };
            deltas.push((player, v_now - v_prev));
            v_prev = v_now;
        }
        deltas
    };

    // One coalition evaluation dwarfs thread-spawn cost, so the floor is a
    // single permutation per worker.
    let n_threads =
        if config.parallel { plan_threads(perms.len(), perms.len(), 1, 0) } else { 1 };
    let per_chunk =
        map_chunks(&perms, n_threads, |ps| ps.iter().map(|p| scan(p)).collect::<Vec<_>>());

    // Fold marginals in permutation order: per player this is one addition
    // per (non-truncated) permutation, in the same sequence the serial
    // loop performs — byte-identical scores.
    let mut scores = vec![0.0f64; n];
    for deltas in per_chunk.into_iter().flatten() {
        for (player, delta) in deltas {
            scores[player] += delta;
        }
    }
    for s in &mut scores {
        *s /= config.n_permutations as f64;
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::{CachedUtility, TableUtility};
    use ctfl_rng::rngs::StdRng;
    use ctfl_rng::SeedableRng;

    /// Shapley values of the paper's Table II game, computed by hand over
    /// all 6 orderings: φ(A) = φ(B) = 85/6 ≈ 14.17, φ(C) = 70/6 ≈ 11.67.
    ///
    /// (The paper's Example II.1 *states* φ(A)=φ(B)=11.7, φ(C)=16.6; those
    /// numbers are inconsistent with its own Table II under the standard
    /// Shapley formula — see EXPERIMENTS.md E2 for the worked derivation.)
    #[test]
    fn exact_on_paper_table2() {
        let u = TableUtility::paper_table2();
        let phi = exact_shapley(&u);
        assert!((phi[0] - 85.0 / 6.0).abs() < 1e-9, "A = {}", phi[0]);
        assert!((phi[1] - 85.0 / 6.0).abs() < 1e-9, "B = {}", phi[1]);
        assert!((phi[2] - 70.0 / 6.0).abs() < 1e-9, "C = {}", phi[2]);
    }

    #[test]
    fn efficiency_axiom() {
        // Σφ = v(N) − v(∅) on an arbitrary game.
        let values: Vec<f64> =
            (0..16).map(|m: u32| (m.count_ones() as f64).powi(2) + (m % 3) as f64).collect();
        let u = TableUtility::new(4, values.clone());
        let phi = exact_shapley(&u);
        let sum: f64 = phi.iter().sum();
        assert!((sum - (values[15] - values[0])).abs() < 1e-9);
    }

    #[test]
    fn dummy_player_gets_zero() {
        // Player 2 never changes the value.
        let mut values = vec![0.0; 8];
        for m in 0..8u32 {
            values[m as usize] = ((m & 0b011).count_ones() * 10) as f64;
        }
        let u = TableUtility::new(3, values);
        let phi = exact_shapley(&u);
        assert_eq!(phi[2], 0.0);
        assert!(phi[0] > 0.0 && phi[1] > 0.0);
    }

    #[test]
    fn symmetric_players_get_equal_shares() {
        let u = TableUtility::paper_table2(); // A and B symmetric
        let phi = exact_shapley(&u);
        assert!((phi[0] - phi[1]).abs() < 1e-12);
    }

    #[test]
    fn sampling_converges_to_exact() {
        let u = TableUtility::paper_table2();
        let exact = exact_shapley(&u);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = ShapleySamplingConfig {
            n_permutations: 4000,
            truncation_tolerance: -1.0,
            parallel: false,
        };
        let approx = sampled_shapley(&u, &cfg, &mut rng);
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e - a).abs() < 0.6, "exact {e}, approx {a}");
        }
        // Efficiency holds per permutation, so exactly after averaging
        // (when truncation is off).
        let sum: f64 = approx.iter().sum();
        assert!((sum - 40.0).abs() < 1e-9);
    }

    #[test]
    fn truncation_reduces_evaluations_without_wrecking_estimates() {
        let u = CachedUtility::new(TableUtility::paper_table2());
        let mut rng = StdRng::seed_from_u64(2);
        // Evaluation *counts* are only meaningful serially (parallel workers
        // may each evaluate a coalition before the cache fills).
        let full_cfg = ShapleySamplingConfig {
            n_permutations: 500,
            truncation_tolerance: -1.0,
            parallel: false,
        };
        let _ = sampled_shapley(&u, &full_cfg, &mut rng);
        let full_evals = u.evaluations();

        let u2 = CachedUtility::new(TableUtility::paper_table2());
        let trunc_cfg = ShapleySamplingConfig {
            n_permutations: 500,
            truncation_tolerance: 0.0,
            parallel: false,
        };
        let approx = sampled_shapley(&u2, &trunc_cfg, &mut rng);
        // v(AC) = v(BC) = v(ABC) = 90: prefixes saturating at 90 truncate.
        assert!(u2.evaluations() <= full_evals);
        // Estimates stay in a sane range.
        let exact = exact_shapley(&TableUtility::paper_table2());
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e - a).abs() < 3.0, "exact {e}, approx {a}");
        }
    }

    #[test]
    fn parallel_scan_is_byte_identical_to_serial() {
        let u = TableUtility::paper_table2();
        for truncation_tolerance in [-1.0, 0.0] {
            let serial = sampled_shapley(
                &u,
                &ShapleySamplingConfig { n_permutations: 64, truncation_tolerance, parallel: false },
                &mut StdRng::seed_from_u64(9),
            );
            let parallel = sampled_shapley(
                &u,
                &ShapleySamplingConfig { n_permutations: 64, truncation_tolerance, parallel: true },
                &mut StdRng::seed_from_u64(9),
            );
            assert_eq!(serial, parallel, "tolerance={truncation_tolerance}");
        }
    }

    #[test]
    fn single_player_game() {
        let u = TableUtility::new(1, vec![0.0, 7.0]);
        assert_eq!(exact_shapley(&u), vec![7.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let approx = sampled_shapley(&u, &ShapleySamplingConfig::default(), &mut rng);
        assert_eq!(approx, vec![7.0]);
    }
}
