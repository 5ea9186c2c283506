//! Round scheduling: *who trains this round, and when does their update
//! land* (DESIGN.md §13).
//!
//! The engine's historical behaviour — every client, every round, updates
//! landing immediately — is [`Schedule::Full`], the default, and is pinned
//! bit-identical to the pre-scheduler engine by `tests/engine_equivalence.rs`.
//! The other policies open the regimes ROADMAP item 4 asks for:
//!
//! * [`Schedule::UniformSample`] — classic FedAvg client sampling: each
//!   round an independent uniform subset of `⌈frac·n⌉` clients trains.
//! * [`Schedule::WeightedSample`] — the same, but clients are drawn without
//!   replacement with probability proportional to their shard size, the
//!   standard importance-sampling correction for unbalanced federations.
//! * [`Schedule::Async`] — every client trains every round, but each
//!   update's *arrival* is delayed by a bounded per-(round, client) lag, and
//!   late updates are down-weighted by `staleness_decay^age` when they
//!   finally aggregate — bounded-staleness asynchronous FedAvg.
//!
//! A schedule is pure data: [`Schedule::plan_round`] derives the round's
//! [`RoundPlan`] from `(seed, round)` alone, so identical jobs replay
//! identically on any worker, any thread count, any process — the same
//! contract [`crate::faults::FaultPlan`] obeys. The scheduler RNG is a
//! *separate stream* from the fault and adversary RNGs ([`Schedule::Full`]
//! consumes no randomness at all, which is what keeps the default
//! bit-identical to the legacy engine).

use ctfl_core::error::{CoreError, Result};
use ctfl_rng::{rngs::StdRng, Rng, SeedableRng};

/// Mixes a round index into a schedule seed so consecutive rounds get
/// decorrelated RNG streams (splitmix-style odd multiplier).
pub(crate) fn round_seed(seed: u64, round: usize, salt: u64) -> u64 {
    seed ^ salt ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The per-round output of a [`Schedule`]: for every client, whether it is
/// asked to train this round, and how many rounds its update takes to reach
/// the aggregator (0 = lands this round).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPlan {
    /// `scheduled[c]` — is client `c` asked to train this round?
    pub scheduled: Vec<bool>,
    /// `delay[c]` — rounds until client `c`'s update lands (only meaningful
    /// when `scheduled[c]`; 0 means it participates in this round's
    /// aggregation exactly as the synchronous engine always did).
    pub delay: Vec<usize>,
}

impl RoundPlan {
    /// Number of clients asked to train.
    pub fn n_scheduled(&self) -> usize {
        self.scheduled.iter().filter(|s| **s).count()
    }
}

/// A deterministic round-scheduling policy. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Schedule {
    /// Every client, every round, immediate arrival — the bit-identical
    /// legacy default.
    #[default]
    Full,
    /// Each round, a fresh uniform subset of `⌈frac·n⌉` clients (at least
    /// one) trains; the rest sit the round out as
    /// [`crate::guard::Participation::Unscheduled`].
    UniformSample {
        /// Fraction of clients scheduled per round, in `(0, 1]`.
        frac: f64,
        /// Seed for the scheduler's private RNG stream.
        seed: u64,
    },
    /// Like [`Schedule::UniformSample`], but draws without replacement with
    /// probability proportional to shard size (row count).
    WeightedSample {
        /// Fraction of clients scheduled per round, in `(0, 1]`.
        frac: f64,
        /// Seed for the scheduler's private RNG stream.
        seed: u64,
    },
    /// Full participation with asynchronous bounded-staleness arrival: each
    /// `(round, client)` draws a delay in `0..=max_staleness`; a delayed
    /// update aggregates `delay` rounds later with its weight scaled by
    /// `staleness_decay^delay` (floored at 1 so stale updates are
    /// down-weighted, never silently dropped). Updates still in flight when
    /// the federation ends are lost.
    Async {
        /// Largest arrival delay, in rounds (0 degenerates to `Full`).
        max_staleness: usize,
        /// Per-round-of-age weight multiplier, in `(0, 1]`.
        staleness_decay: f64,
        /// Seed for the scheduler's private RNG stream.
        seed: u64,
    },
}

impl Schedule {
    /// Validates the policy's parameters (typed errors, so the service
    /// layer can reject a bad job instead of dying).
    pub fn validate(&self) -> Result<()> {
        match *self {
            Schedule::Full => Ok(()),
            Schedule::UniformSample { frac, .. } | Schedule::WeightedSample { frac, .. } => {
                if !(frac > 0.0 && frac <= 1.0) {
                    return Err(CoreError::InvalidParameter {
                        name: "sample_frac",
                        message: format!("must be in (0, 1], got {frac}"),
                    });
                }
                Ok(())
            }
            Schedule::Async { staleness_decay, .. } => {
                if !(staleness_decay > 0.0 && staleness_decay <= 1.0) {
                    return Err(CoreError::InvalidParameter {
                        name: "staleness_decay",
                        message: format!("must be in (0, 1], got {staleness_decay}"),
                    });
                }
                Ok(())
            }
        }
    }

    /// The weight multiplier applied per round of arrival delay (1.0 for
    /// every synchronous policy).
    pub fn staleness_decay(&self) -> f64 {
        match *self {
            Schedule::Async { staleness_decay, .. } => staleness_decay,
            _ => 1.0,
        }
    }

    /// Derives round `round`'s plan for a federation whose client `c` holds
    /// `weights[c]` rows. Pure in `(self, round, weights)`.
    pub fn plan_round(&self, round: usize, weights: &[usize]) -> RoundPlan {
        let n = weights.len();
        match *self {
            Schedule::Full => {
                RoundPlan { scheduled: vec![true; n], delay: vec![0; n] }
            }
            Schedule::UniformSample { frac, seed } => {
                let k = sample_count(frac, n);
                let mut rng = StdRng::seed_from_u64(round_seed(seed, round, 0x5C8D));
                let mut idx: Vec<usize> = (0..n).collect();
                // Partial Fisher–Yates: the first k slots are a uniform
                // k-subset in uniform order after k swaps.
                for i in 0..k {
                    let j = rng.gen_range(i..n);
                    idx.swap(i, j);
                }
                let mut scheduled = vec![false; n];
                for &c in &idx[..k] {
                    scheduled[c] = true;
                }
                RoundPlan { scheduled, delay: vec![0; n] }
            }
            Schedule::WeightedSample { frac, seed } => {
                let k = sample_count(frac, n);
                let mut rng = StdRng::seed_from_u64(round_seed(seed, round, 0x5C8D));
                let mut scheduled = vec![false; n];
                let mut remaining: usize = weights.iter().sum();
                for _ in 0..k {
                    if remaining == 0 {
                        break;
                    }
                    // Draw a point in the unchosen clients' cumulative mass.
                    let mut t = rng.gen_range(0..remaining);
                    for (c, &w) in weights.iter().enumerate() {
                        if scheduled[c] {
                            continue;
                        }
                        if t < w {
                            scheduled[c] = true;
                            remaining -= w;
                            break;
                        }
                        t -= w;
                    }
                }
                RoundPlan { scheduled, delay: vec![0; n] }
            }
            Schedule::Async { max_staleness, seed, .. } => {
                let mut rng = StdRng::seed_from_u64(round_seed(seed, round, 0xA5F2));
                let delay: Vec<usize> = (0..n)
                    .map(|_| if max_staleness == 0 { 0 } else { rng.gen_range(0..=max_staleness) })
                    .collect();
                RoundPlan { scheduled: vec![true; n], delay }
            }
        }
    }
}

/// `⌈frac·n⌉` clamped to `1..=n` — a round always schedules someone.
fn sample_count(frac: f64, n: usize) -> usize {
    ((frac * n as f64).ceil() as usize).clamp(1, n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_schedules_everyone_immediately() {
        let plan = Schedule::Full.plan_round(3, &[10, 20, 30]);
        assert_eq!(plan.scheduled, vec![true; 3]);
        assert_eq!(plan.delay, vec![0; 3]);
        assert_eq!(plan.n_scheduled(), 3);
    }

    #[test]
    fn uniform_sampling_is_deterministic_and_sized() {
        let s = Schedule::UniformSample { frac: 0.5, seed: 9 };
        let w = vec![10usize; 8];
        for round in 0..20 {
            let a = s.plan_round(round, &w);
            let b = s.plan_round(round, &w);
            assert_eq!(a, b, "same (seed, round) must replan identically");
            assert_eq!(a.n_scheduled(), 4);
            assert_eq!(a.delay, vec![0; 8]);
        }
        // Different rounds actually vary the subset.
        let subsets: std::collections::BTreeSet<Vec<bool>> =
            (0..20).map(|r| s.plan_round(r, &w).scheduled).collect();
        assert!(subsets.len() > 1, "20 rounds of 50% sampling must not repeat one subset");
    }

    #[test]
    fn weighted_sampling_favours_heavy_shards() {
        let s = Schedule::WeightedSample { frac: 0.25, seed: 4 };
        // Client 0 holds ~97% of the data.
        let w = vec![10_000, 100, 100, 100];
        let hits = (0..100).filter(|&r| s.plan_round(r, &w).scheduled[0]).count();
        assert!(hits > 80, "the dominant shard should be scheduled most rounds, got {hits}");
        for r in 0..100 {
            assert_eq!(s.plan_round(r, &w).n_scheduled(), 1);
        }
    }

    #[test]
    fn async_delays_are_bounded_and_deterministic() {
        let s = Schedule::Async { max_staleness: 3, staleness_decay: 0.5, seed: 11 };
        let w = vec![5usize; 6];
        let mut seen_positive = false;
        for round in 0..30 {
            let plan = s.plan_round(round, &w);
            assert_eq!(plan, s.plan_round(round, &w));
            assert_eq!(plan.scheduled, vec![true; 6], "async keeps full participation");
            for &d in &plan.delay {
                assert!(d <= 3, "delay {d} exceeds max_staleness");
                seen_positive |= d > 0;
            }
        }
        assert!(seen_positive, "30 rounds of max_staleness=3 must produce some delay");
        assert_eq!(s.staleness_decay(), 0.5);
        assert_eq!(Schedule::Full.staleness_decay(), 1.0);
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        assert!(Schedule::Full.validate().is_ok());
        assert!(Schedule::UniformSample { frac: 0.5, seed: 0 }.validate().is_ok());
        for bad in [0.0, -0.1, 1.5, f64::NAN] {
            assert!(Schedule::UniformSample { frac: bad, seed: 0 }.validate().is_err());
            assert!(Schedule::WeightedSample { frac: bad, seed: 0 }.validate().is_err());
            assert!(Schedule::Async { max_staleness: 2, staleness_decay: bad, seed: 0 }
                .validate()
                .is_err());
        }
    }

    #[test]
    fn sample_count_always_schedules_at_least_one() {
        assert_eq!(sample_count(0.01, 5), 1);
        assert_eq!(sample_count(0.5, 5), 3); // ceil(2.5)
        assert_eq!(sample_count(1.0, 5), 5);
    }
}
