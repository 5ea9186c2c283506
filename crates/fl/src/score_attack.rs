//! Seeded, deterministic **upload-level** score-gaming adversaries.
//!
//! [`crate::adversary`] rewrites model *updates*; this module rewrites
//! *activation uploads* — the private-scoring pipeline's inputs
//! ([`crate::privacy`]). A participant paid by contribution score has a
//! direct incentive to lie in its upload: the federation never sees the
//! raw data behind the claimed activations, so a gamed upload is
//! indistinguishable from an honest one *locally*. Only cross-upload
//! statistics can catch it, which is exactly what
//! `ctfl-core::robustness::audit_uploads` checks.
//!
//! Mirroring [`crate::adversary::AdversaryPlan`], a [`ScoreAttackPlan`] is
//! inspectable data (hand-built for tests or sampled once with a seed) and
//! a [`ScoreAttackInjector`] replays it between local upload computation
//! and [`crate::privacy::assemble_sharded`]. The same plan and seed
//! always rewrite the same uploads byte for byte.

use ctfl_core::error::{CoreError, Result};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::seq::SliceRandom;
use ctfl_rng::{Rng, SeedableRng};

use crate::privacy::ActivationUpload;

/// How a score-gaming client rewrites its activation upload before
/// submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScoreAttackKind {
    /// Activation inflation: claim activation bits the client's data never
    /// produced. With `all_classes = false` the gamer saturates only the
    /// rules of each row's *own label class* — the stealthy variant, since
    /// every claimed bit is label-consistent; with `true` it saturates the
    /// whole row. Either way each claimed row now matches every traced
    /// test instance of its class with overlap ratio 1 ≥ τ_w.
    Inflate {
        /// Saturate all rule bits (`true`) or only the row label's
        /// class-mask bits (`false`).
        all_classes: bool,
    },
    /// Row padding: append `round(factor · rows)` duplicate rows, cloned
    /// cyclically from the client's own (honest) rows. Claims dataset mass
    /// the client does not hold; every padded row earns related-set credit.
    PadRows {
        /// Padding ratio relative to the honest row count (e.g. `1.0`
        /// doubles the upload).
        factor: f64,
    },
    /// Trace-squatting: discard own rows and submit a copy of `victim`'s
    /// upload pattern instead (cycled to the squatter's original row
    /// count). Piggy-backs on a known high contributor's activation
    /// profile without holding any of the data.
    Squat {
        /// The high-contributor client whose upload the squatter copies.
        victim: usize,
    },
    /// Label-side gaming: keep the activations but re-label every uploaded
    /// row to the cohort's majority class, chasing the largest pool of
    /// traceable test credit.
    RelabelMajority,
    /// ε-abuse: claim randomized response at `claimed_flip_probability`
    /// but actually inject *one-sided* 0→1 flips (at `actual_flip_rate`)
    /// into the row label's class-mask bits. Honest RR noise is symmetric;
    /// this is inflation disguised as privacy noise, hiding inside the
    /// auditor's noise allowance for the claimed ε.
    NoiseAbuse {
        /// The flip probability the client *claims* (its advertised ε).
        claimed_flip_probability: f64,
        /// The one-sided 0→1 flip rate actually applied to own-class bits.
        actual_flip_rate: f64,
    },
}

impl ScoreAttackKind {
    /// Display name (used in experiment tables and logs).
    pub fn name(&self) -> &'static str {
        match self {
            ScoreAttackKind::Inflate { all_classes: true } => "inflate(all)",
            ScoreAttackKind::Inflate { all_classes: false } => "inflate(class)",
            ScoreAttackKind::PadRows { .. } => "pad-rows",
            ScoreAttackKind::Squat { .. } => "squat",
            ScoreAttackKind::RelabelMajority => "relabel-majority",
            ScoreAttackKind::NoiseAbuse { .. } => "noise-abuse",
        }
    }
}

/// A deterministic assignment of score attacks to clients.
///
/// Plans are plain data — build exact scenarios with
/// [`ScoreAttackPlan::with_gamer`], or sample a fraction of gaming clients
/// once with [`ScoreAttackPlan::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreAttackPlan {
    n_clients: usize,
    attacks: Vec<Option<ScoreAttackKind>>,
}

impl ScoreAttackPlan {
    /// A plan with no gamers (the back-compat path).
    pub fn none(n_clients: usize) -> Self {
        ScoreAttackPlan { n_clients, attacks: vec![None; n_clients] }
    }

    /// Assigns `kind` to `client` (replacing any previous role).
    ///
    /// Panics on invalid assignments; untrusted inputs go through
    /// [`ScoreAttackPlan::try_with_gamer`].
    pub fn with_gamer(self, client: usize, kind: ScoreAttackKind) -> Self {
        self.try_with_gamer(client, kind).expect("valid gamer assignment")
    }

    /// [`ScoreAttackPlan::with_gamer`] with typed-error validation instead
    /// of assertions, for plans built from untrusted (wire) input.
    pub fn try_with_gamer(mut self, client: usize, kind: ScoreAttackKind) -> Result<Self> {
        if client >= self.n_clients {
            return Err(CoreError::InvalidParameter {
                name: "gamer",
                message: format!("client {client} outside federation of {}", self.n_clients),
            });
        }
        match kind {
            ScoreAttackKind::Squat { victim } => {
                if victim >= self.n_clients {
                    return Err(CoreError::InvalidParameter {
                        name: "gamer",
                        message: format!(
                            "squat victim {victim} outside federation of {}",
                            self.n_clients
                        ),
                    });
                }
                if victim == client {
                    return Err(CoreError::InvalidParameter {
                        name: "gamer",
                        message: format!("client {client} cannot squat on itself"),
                    });
                }
            }
            ScoreAttackKind::PadRows { factor } => {
                if !factor.is_finite() || factor <= 0.0 {
                    return Err(CoreError::InvalidParameter {
                        name: "gamer",
                        message: format!("pad factor must be finite and positive, got {factor}"),
                    });
                }
            }
            ScoreAttackKind::NoiseAbuse { claimed_flip_probability, actual_flip_rate } => {
                if !(0.0..0.5).contains(&claimed_flip_probability) {
                    return Err(CoreError::InvalidParameter {
                        name: "gamer",
                        message: format!(
                            "claimed flip probability must be in [0, 0.5), got {claimed_flip_probability}"
                        ),
                    });
                }
                if !(0.0..=1.0).contains(&actual_flip_rate) {
                    return Err(CoreError::InvalidParameter {
                        name: "gamer",
                        message: format!(
                            "actual flip rate must be in [0, 1], got {actual_flip_rate}"
                        ),
                    });
                }
            }
            ScoreAttackKind::Inflate { .. } | ScoreAttackKind::RelabelMajority => {}
        }
        self.attacks[client] = Some(kind);
        Ok(self)
    }

    /// Samples a plan where a `frac` fraction of clients (rounded to the
    /// nearest count) play `kind`, chosen by a seeded shuffle — a pure
    /// function of `(n_clients, frac, kind, seed)`.
    ///
    /// For [`ScoreAttackKind::Squat`] the victim is never sampled as a
    /// gamer (a squatter copying another squatter would dilute to noise).
    ///
    /// Panics on a fraction outside `[0, 1]`; untrusted inputs go through
    /// [`ScoreAttackPlan::try_generate`].
    pub fn generate(n_clients: usize, frac: f64, kind: ScoreAttackKind, seed: u64) -> Self {
        Self::try_generate(n_clients, frac, kind, seed).expect("valid gaming fraction")
    }

    /// [`ScoreAttackPlan::generate`] with typed-error validation instead of
    /// an assertion.
    pub fn try_generate(
        n_clients: usize,
        frac: f64,
        kind: ScoreAttackKind,
        seed: u64,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&frac) {
            return Err(CoreError::InvalidParameter {
                name: "score attack plan",
                message: format!("gaming fraction {frac} outside [0, 1]"),
            });
        }
        let k = ((frac * n_clients as f64).round() as usize).min(n_clients);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<usize> = (0..n_clients).collect();
        if let ScoreAttackKind::Squat { victim } = kind {
            ids.retain(|&c| c != victim);
        }
        ids.shuffle(&mut rng);
        let mut chosen: Vec<usize> = ids.into_iter().take(k).collect();
        chosen.sort_unstable();
        let mut plan = ScoreAttackPlan::none(n_clients);
        for c in chosen {
            plan = plan.try_with_gamer(c, kind)?;
        }
        Ok(plan)
    }

    /// Number of clients the plan covers.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// The attack assigned to `client`, if any.
    pub fn gamer_for(&self, client: usize) -> Option<ScoreAttackKind> {
        self.attacks[client]
    }

    /// All gaming clients, ascending.
    pub fn gamers(&self) -> Vec<usize> {
        (0..self.n_clients).filter(|&c| self.attacks[c].is_some()).collect()
    }

    /// True when no client games its upload.
    pub fn is_empty(&self) -> bool {
        self.attacks.iter().all(Option::is_none)
    }
}

/// Replays a [`ScoreAttackPlan`] against a batch of activation uploads.
#[derive(Debug, Clone)]
pub struct ScoreAttackInjector {
    plan: ScoreAttackPlan,
    seed: u64,
}

impl ScoreAttackInjector {
    /// Wraps a plan. The seed drives the stochastic attacks
    /// ([`ScoreAttackKind::NoiseAbuse`]) per client, so the same
    /// `(plan, seed, uploads)` triple rewrites identically.
    pub fn new(plan: ScoreAttackPlan, seed: u64) -> Self {
        ScoreAttackInjector { plan, seed }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &ScoreAttackPlan {
        &self.plan
    }

    /// Rewrites the uploads in-flight, between local computation and
    /// [`crate::privacy::assemble_sharded`].
    ///
    /// `class_masks` is the public model's per-class rule-mask table
    /// (`RuleModel::class_masks_all`) — public knowledge a gamer uses to
    /// fabricate label-consistent activations. Squat copies and the
    /// majority label are taken from a snapshot of the uploads *as
    /// computed*, so squatters replicate their victim's honest upload even
    /// when the victim also appears later in the batch.
    pub fn rewrite_uploads(&self, uploads: &mut [ActivationUpload], class_masks: &[Vec<u64>]) {
        if self.plan.is_empty() {
            return;
        }
        // Snapshot every squat victim's as-computed upload.
        let victim_snapshots: Vec<(usize, ActivationUpload)> = uploads
            .iter()
            .filter(|up| {
                self.plan.attacks.iter().flatten().any(|a| {
                    matches!(a, ScoreAttackKind::Squat { victim } if *victim == up.client)
                })
            })
            .map(|up| (up.client, up.clone()))
            .collect();
        // Majority label across the as-computed cohort (ties → lowest id).
        let majority_label = {
            let mut counts: Vec<(u32, usize)> = Vec::new();
            for up in uploads.iter() {
                for &l in &up.labels {
                    match counts.iter_mut().find(|(label, _)| *label == l) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((l, 1)),
                    }
                }
            }
            counts
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(label, _)| label)
                .unwrap_or(0)
        };
        for up in uploads.iter_mut() {
            let Some(attack) = self.plan.gamer_for(up.client) else { continue };
            match attack {
                ScoreAttackKind::Inflate { all_classes } => {
                    for row in 0..up.activations.n_rows() {
                        if all_classes {
                            for bit in 0..up.activations.n_bits() {
                                up.activations.set(row, bit, true);
                            }
                        } else if let Some(mask) =
                            class_masks.get(up.labels[row] as usize)
                        {
                            set_mask_bits(&mut up.activations, row, mask);
                        }
                    }
                }
                ScoreAttackKind::PadRows { factor } => {
                    let rows = up.activations.n_rows();
                    if rows == 0 {
                        continue;
                    }
                    let extra = (factor * rows as f64).round() as usize;
                    for i in 0..extra {
                        let src = i % rows;
                        let bits: Vec<bool> = (0..up.activations.n_bits())
                            .map(|b| up.activations.get(src, b))
                            .collect();
                        up.activations.push_row(&bits).expect("width preserved");
                        up.labels.push(up.labels[src]);
                    }
                }
                ScoreAttackKind::Squat { victim } => {
                    let Some((_, v)) =
                        victim_snapshots.iter().find(|(c, _)| *c == victim)
                    else {
                        continue; // Victim absent: nothing to copy.
                    };
                    let v_rows = v.activations.n_rows();
                    if v_rows == 0 {
                        continue;
                    }
                    let own_rows = up.activations.n_rows();
                    let n_bits = v.activations.n_bits();
                    let mut acts = ctfl_core::activation::ActivationMatrix::zeros(0, n_bits);
                    let mut labels = Vec::with_capacity(own_rows);
                    for i in 0..own_rows {
                        let src = i % v_rows;
                        let bits: Vec<bool> =
                            (0..n_bits).map(|b| v.activations.get(src, b)).collect();
                        acts.push_row(&bits).expect("width preserved");
                        labels.push(v.labels[src]);
                    }
                    up.activations = acts;
                    up.labels = labels;
                }
                ScoreAttackKind::RelabelMajority => {
                    up.labels.fill(majority_label);
                }
                ScoreAttackKind::NoiseAbuse { claimed_flip_probability, actual_flip_rate } => {
                    let mut rng =
                        StdRng::seed_from_u64(self.seed ^ (up.client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    for row in 0..up.activations.n_rows() {
                        let Some(mask) = class_masks.get(up.labels[row] as usize) else {
                            continue;
                        };
                        for bit in 0..up.activations.n_bits() {
                            let in_mask = mask
                                .get(bit / 64)
                                .is_some_and(|w| w >> (bit % 64) & 1 == 1);
                            if in_mask
                                && !up.activations.get(row, bit)
                                && rng.gen_bool(actual_flip_rate)
                            {
                                up.activations.set(row, bit, true);
                            }
                        }
                    }
                    up.claimed_flip_probability = claimed_flip_probability;
                }
            }
        }
    }
}

/// Sets every bit of `row` that is present in the class-mask words.
fn set_mask_bits(acts: &mut ctfl_core::activation::ActivationMatrix, row: usize, mask: &[u64]) {
    for bit in 0..acts.n_bits() {
        if mask.get(bit / 64).is_some_and(|w| w >> (bit % 64) & 1 == 1) {
            acts.set(row, bit, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctfl_core::activation::ActivationMatrix;

    fn upload(client: usize, rows: &[(&[usize], u32)], n_bits: usize) -> ActivationUpload {
        let mut acts = ActivationMatrix::zeros(0, n_bits);
        let mut labels = Vec::new();
        for (bits, label) in rows {
            let mut row = vec![false; n_bits];
            for &b in *bits {
                row[b] = true;
            }
            acts.push_row(&row).unwrap();
            labels.push(*label);
        }
        ActivationUpload { client, activations: acts, labels, claimed_flip_probability: 0.0 }
    }

    fn masks() -> Vec<Vec<u64>> {
        // 8 bits: class 0 owns bits 0..4, class 1 owns bits 4..8.
        vec![ActivationMatrix::build_mask(8, 0..4), ActivationMatrix::build_mask(8, 4..8)]
    }

    #[test]
    fn generate_is_deterministic_and_excludes_the_squat_victim() {
        let kind = ScoreAttackKind::Squat { victim: 3 };
        let a = ScoreAttackPlan::generate(10, 0.3, kind, 42);
        let b = ScoreAttackPlan::generate(10, 0.3, kind, 42);
        assert_eq!(a, b);
        assert_eq!(a.gamers().len(), 3);
        assert!(!a.gamers().contains(&3), "victim must never game");
        for seed in 0..50 {
            assert!(!ScoreAttackPlan::generate(10, 0.5, kind, seed).gamers().contains(&3));
        }
        assert!(ScoreAttackPlan::generate(
            5,
            0.0,
            ScoreAttackKind::Inflate { all_classes: true },
            1
        )
        .is_empty());
    }

    #[test]
    fn invalid_plans_are_typed_errors() {
        let cases = [
            (9, ScoreAttackKind::RelabelMajority),               // client out of range
            (0, ScoreAttackKind::Squat { victim: 9 }),           // victim out of range
            (0, ScoreAttackKind::Squat { victim: 0 }),           // self-squat
            (0, ScoreAttackKind::PadRows { factor: 0.0 }),       // zero pad
            (0, ScoreAttackKind::PadRows { factor: f64::NAN }),  // NaN pad
            (
                0,
                ScoreAttackKind::NoiseAbuse {
                    claimed_flip_probability: 0.5,
                    actual_flip_rate: 0.1,
                },
            ), // invalid claim
            (
                0,
                ScoreAttackKind::NoiseAbuse {
                    claimed_flip_probability: 0.1,
                    actual_flip_rate: 1.5,
                },
            ), // invalid rate
        ];
        for (client, kind) in cases {
            let err = ScoreAttackPlan::none(3).try_with_gamer(client, kind).unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidParameter { name: "gamer", .. }),
                "{client} {kind:?} gave {err:?}"
            );
        }
        assert!(ScoreAttackPlan::try_generate(
            4,
            1.5,
            ScoreAttackKind::RelabelMajority,
            0
        )
        .is_err());
    }

    #[test]
    fn inflate_saturates_class_mask_or_everything() {
        let plan = ScoreAttackPlan::none(2)
            .with_gamer(0, ScoreAttackKind::Inflate { all_classes: false })
            .with_gamer(1, ScoreAttackKind::Inflate { all_classes: true });
        let inj = ScoreAttackInjector::new(plan, 7);
        let mut ups = vec![
            upload(0, &[(&[0], 0), (&[4], 1)], 8),
            upload(1, &[(&[0], 0)], 8),
        ];
        inj.rewrite_uploads(&mut ups, &masks());
        // Class-targeted: row 0 (label 0) saturates bits 0..4 only.
        assert_eq!(ups[0].activations.row_count(0), 4);
        assert!((0..4).all(|b| ups[0].activations.get(0, b)));
        // Row 1 (label 1) saturates bits 4..8 only.
        assert_eq!(ups[0].activations.row_count(1), 4);
        assert!((4..8).all(|b| ups[0].activations.get(1, b)));
        // All-classes: every bit set.
        assert_eq!(ups[1].activations.row_count(0), 8);
    }

    #[test]
    fn pad_rows_appends_cyclic_copies_with_labels() {
        let plan = ScoreAttackPlan::none(1).with_gamer(0, ScoreAttackKind::PadRows { factor: 1.5 });
        let inj = ScoreAttackInjector::new(plan, 7);
        let mut ups = vec![upload(0, &[(&[0], 0), (&[4], 1)], 8)];
        inj.rewrite_uploads(&mut ups, &masks());
        assert_eq!(ups[0].activations.n_rows(), 5, "2 honest + round(1.5·2) = 3 padded");
        assert_eq!(ups[0].labels, vec![0, 1, 0, 1, 0]);
        assert!(ups[0].activations.get(2, 0) && ups[0].activations.get(4, 0));
        assert!(ups[0].activations.get(3, 4));
    }

    #[test]
    fn squatter_copies_the_victims_as_computed_upload() {
        let plan = ScoreAttackPlan::none(3).with_gamer(2, ScoreAttackKind::Squat { victim: 0 });
        let inj = ScoreAttackInjector::new(plan, 7);
        let mut ups = vec![
            upload(0, &[(&[0, 1], 0), (&[2, 3], 0)], 8),
            upload(1, &[(&[4], 1)], 8),
            upload(2, &[(&[5], 1), (&[6], 1), (&[7], 1)], 8),
        ];
        inj.rewrite_uploads(&mut ups, &masks());
        // Squatter keeps its own row count but fills it with victim rows.
        assert_eq!(ups[2].activations.n_rows(), 3);
        assert_eq!(ups[2].labels, vec![0, 0, 0]);
        assert!(ups[2].activations.get(0, 0) && ups[2].activations.get(0, 1));
        assert!(ups[2].activations.get(1, 2) && ups[2].activations.get(1, 3));
        assert!(ups[2].activations.get(2, 0), "cyclic refill restarts at victim row 0");
        // Victim and bystander untouched.
        assert!(ups[0].activations.get(0, 0));
        assert_eq!(ups[1].labels, vec![1]);
    }

    #[test]
    fn relabel_targets_the_cohort_majority() {
        let plan = ScoreAttackPlan::none(2).with_gamer(1, ScoreAttackKind::RelabelMajority);
        let inj = ScoreAttackInjector::new(plan, 7);
        let mut ups = vec![
            upload(0, &[(&[0], 0), (&[1], 0), (&[2], 0)], 8),
            upload(1, &[(&[4], 1), (&[5], 1)], 8),
        ];
        inj.rewrite_uploads(&mut ups, &masks());
        assert_eq!(ups[1].labels, vec![0, 0], "majority is class 0 (3 vs 2)");
        assert_eq!(ups[0].labels, vec![0, 0, 0], "honest labels untouched");
    }

    #[test]
    fn noise_abuse_is_one_sided_and_rewrites_the_claim() {
        let kind = ScoreAttackKind::NoiseAbuse {
            claimed_flip_probability: 0.05,
            actual_flip_rate: 1.0,
        };
        let plan = ScoreAttackPlan::none(1).with_gamer(0, kind);
        let inj = ScoreAttackInjector::new(plan, 7);
        let mut ups = vec![upload(0, &[(&[0], 0), (&[4, 6], 1)], 8)];
        inj.rewrite_uploads(&mut ups, &masks());
        // Rate 1.0: every own-class zero bit turned on; nothing turned off,
        // nothing outside the class mask touched.
        assert!((0..4).all(|b| ups[0].activations.get(0, b)));
        assert!((4..8).all(|b| !ups[0].activations.get(0, b)));
        assert!((4..8).all(|b| ups[0].activations.get(1, b)));
        assert!((0..4).all(|b| !ups[0].activations.get(1, b)));
        assert_eq!(ups[0].claimed_flip_probability, 0.05);

        // Determinism: same plan + seed reproduce the same rewrite.
        let kind = ScoreAttackKind::NoiseAbuse {
            claimed_flip_probability: 0.05,
            actual_flip_rate: 0.4,
        };
        let plan = ScoreAttackPlan::none(1).with_gamer(0, kind);
        let inj = ScoreAttackInjector::new(plan, 9);
        let mut a = vec![upload(0, &[(&[0], 0), (&[4], 1)], 8)];
        let mut b = vec![upload(0, &[(&[0], 0), (&[4], 1)], 8)];
        inj.rewrite_uploads(&mut a, &masks());
        inj.rewrite_uploads(&mut b, &masks());
        assert_eq!(a[0].activations, b[0].activations);
    }

    #[test]
    fn empty_plan_and_absent_victim_are_no_ops() {
        let inj = ScoreAttackInjector::new(ScoreAttackPlan::none(2), 7);
        let mut ups = vec![upload(0, &[(&[0], 0)], 8)];
        let before = ups[0].activations.clone();
        inj.rewrite_uploads(&mut ups, &masks());
        assert_eq!(ups[0].activations, before);

        // Squat victim not in the batch: squatter keeps its own upload.
        let plan = ScoreAttackPlan::none(3).with_gamer(1, ScoreAttackKind::Squat { victim: 2 });
        let inj = ScoreAttackInjector::new(plan, 7);
        let mut ups = vec![upload(1, &[(&[4], 1)], 8)];
        inj.rewrite_uploads(&mut ups, &masks());
        assert_eq!(ups[0].labels, vec![1]);
        assert!(ups[0].activations.get(0, 4));
    }
}
