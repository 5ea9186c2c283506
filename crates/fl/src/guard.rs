//! Server-side update guards, quorum policy, and the per-round federation
//! log.
//!
//! Every update offered for aggregation passes through [`judge_round`]:
//! a finiteness check (NaN/Inf uploads are rejected outright, never
//! averaged), then a norm check of the update *delta* against the median
//! delta norm of the finite survivors — mildly oversized updates are clipped
//! back to `clip_factor × median`, grossly oversized ones (beyond
//! `reject_factor × median`) are rejected. The [`GuardConfig`] also carries
//! the quorum policy the round loop enforces: when fewer than `quorum_frac`
//! of the live clients produce an accepted update, the round is retried up
//! to `max_round_retries` times and then degrades gracefully (the global
//! parameters carry forward unchanged).
//!
//! Everything that happened is recorded in a [`FederationLog`]: one
//! [`RoundReport`] per round naming who participated, who was rejected and
//! why, who was clipped, retry counts, and whether the round degraded. The
//! log is plain data with a deterministic [`FederationLog::render`] — two
//! runs with the same seed produce byte-identical logs.

use ctfl_core::error::{CoreError, Result};
use ctfl_core::robustness::{ClientParticipation, RoundSignatures, UpdateSignature, NORM_EPS};
use std::fmt::Write as _;

/// What the runtime does when a client thread panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicPolicy {
    /// The panic is contained and recorded as a fault; the round proceeds
    /// without that client (the runtime default).
    Record,
    /// The panic is contained but surfaces as
    /// [`CoreError::ClientPanicked`] — the strict back-compat behaviour of
    /// [`crate::fedavg::train_federated`].
    Error,
}

/// Server-side validation and round-degradation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Updates whose delta norm exceeds `clip_factor × median` are scaled
    /// back to that bound (and recorded as clipped).
    pub clip_factor: f64,
    /// Updates whose delta norm exceeds `reject_factor × median` are
    /// rejected outright.
    pub reject_factor: f64,
    /// Minimum fraction of live (non-crashed) clients that must produce an
    /// accepted update for the round to commit.
    pub quorum_frac: f64,
    /// How many times a round is re-run against the remaining clients when
    /// quorum is not met, before degrading.
    pub max_round_retries: usize,
    /// Panic handling.
    pub panic_policy: PanicPolicy,
    /// When true, any fault or rejected update aborts training with a typed
    /// error instead of degrading — the zero-fault back-compat contract.
    pub fail_fast: bool,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            clip_factor: 3.0,
            reject_factor: 10.0,
            quorum_frac: 0.5,
            max_round_retries: 1,
            panic_policy: PanicPolicy::Record,
            fail_fast: false,
        }
    }
}

impl GuardConfig {
    /// The strict configuration [`crate::fedavg::train_federated`] uses:
    /// no clipping, full quorum, no retries, and every fault fatal.
    pub fn strict() -> Self {
        GuardConfig {
            clip_factor: f64::INFINITY,
            reject_factor: f64::INFINITY,
            quorum_frac: 1.0,
            max_round_retries: 0,
            panic_policy: PanicPolicy::Error,
            fail_fast: true,
        }
    }
}

/// Why the guard rejected an update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// The vector contained NaN or infinite entries.
    NonFinite {
        /// Number of non-finite entries.
        n_bad: usize,
    },
    /// The update delta norm exceeded `reject_factor × median`.
    NormExploded {
        /// The offending delta norm.
        norm: f64,
        /// The rejection bound that was in force.
        limit: f64,
    },
}

/// A client's recorded outcome for one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Participation {
    /// Update accepted into the aggregate (`clipped` marks norm clipping).
    Accepted {
        /// Whether the delta was scaled back to the clip bound.
        clipped: bool,
    },
    /// Update rejected by the guard.
    Rejected(RejectReason),
    /// Skipped the round (transient dropout).
    Dropout,
    /// Permanently out of the federation.
    Crashed,
    /// Missed the deadline; its update will arrive in a later round as
    /// stale (straggler fault or asynchronous-schedule delay).
    Straggling,
    /// Its thread panicked; the panic was contained.
    Panicked,
    /// The round's schedule never asked this client to train (per-round
    /// sampling). Not the client's fault — excluded from the participation
    /// rate's denominator.
    Unscheduled,
}

impl Participation {
    fn describe(&self) -> String {
        match self {
            Participation::Accepted { clipped: false } => "accepted".into(),
            Participation::Accepted { clipped: true } => "accepted(clipped)".into(),
            Participation::Rejected(RejectReason::NonFinite { n_bad }) => {
                format!("rejected(non-finite x{n_bad})")
            }
            Participation::Rejected(RejectReason::NormExploded { norm, limit }) => {
                format!("rejected(norm {norm:.3e} > {limit:.3e})")
            }
            Participation::Dropout => "dropout".into(),
            Participation::Crashed => "crashed".into(),
            Participation::Straggling => "straggling".into(),
            Participation::Panicked => "panicked".into(),
            Participation::Unscheduled => "unscheduled".into(),
        }
    }
}

/// One client's entry in a round report. A client can have two entries in
/// the same round: a fresh one and a stale arrival from the previous round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParticipationEntry {
    /// Client id.
    pub client: usize,
    /// True when this entry judges a stale (one-round-late) arrival.
    pub stale: bool,
    /// What happened.
    pub outcome: Participation,
}

/// Everything that happened in one communication round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Round index.
    pub round: usize,
    /// Attempts used (`1` = no retry).
    pub attempts: usize,
    /// True when quorum was never met and the global parameters carried
    /// forward unchanged (no aggregation happened).
    pub degraded: bool,
    /// Per-client outcomes of the final attempt, sorted by `(client, stale)`.
    pub entries: Vec<ParticipationEntry>,
    /// Update-similarity fingerprints of the final attempt's finite fresh
    /// updates *as submitted* (before clipping), sorted by client — the raw
    /// material for `ctfl-core`'s collusion / free-riding detectors.
    pub signatures: Vec<UpdateSignature>,
}

impl RoundReport {
    /// Number of accepted updates (fresh + stale).
    pub fn n_accepted(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.outcome, Participation::Accepted { .. }))
            .count()
    }
}

/// The full per-round participation record of one federated training run.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationLog {
    /// Federation size.
    pub n_clients: usize,
    /// One report per round.
    pub rounds: Vec<RoundReport>,
}

impl FederationLog {
    /// An empty log.
    pub fn new(n_clients: usize) -> Self {
        FederationLog { n_clients, rounds: Vec::new() }
    }

    /// Per-client participation summaries in the shape
    /// `ctfl-core::robustness` consumes. A round counts as *accepted* for a
    /// client when any of its entries was accepted **and** the round
    /// committed (degraded rounds aggregate nothing, so everything in them
    /// counts as missed); *rejected* when the guard turned at least one of
    /// its updates away; *scheduled-out* when the round's scheduler never
    /// asked it to train (and nothing stale of its landed either);
    /// otherwise *missed*. A stale arrival accepted in a round where the
    /// client was unscheduled counts as accepted — the update shaped that
    /// round's aggregate.
    pub fn participation(&self) -> Vec<ClientParticipation> {
        let mut out = vec![
            ClientParticipation {
                accepted: 0,
                rejected: 0,
                missed: 0,
                scheduled_out: 0,
                rounds: self.rounds.len(),
            };
            self.n_clients
        ];
        for round in &self.rounds {
            let mut accepted = vec![false; self.n_clients];
            let mut rejected = vec![false; self.n_clients];
            let mut unscheduled = vec![false; self.n_clients];
            let mut seen = vec![false; self.n_clients];
            for e in &round.entries {
                seen[e.client] = true;
                match e.outcome {
                    Participation::Accepted { .. } if !round.degraded => {
                        accepted[e.client] = true;
                    }
                    Participation::Rejected(_) => rejected[e.client] = true,
                    Participation::Unscheduled => unscheduled[e.client] = true,
                    _ => {}
                }
            }
            for c in 0..self.n_clients {
                if accepted[c] {
                    out[c].accepted += 1;
                } else if rejected[c] {
                    out[c].rejected += 1;
                } else if unscheduled[c] {
                    out[c].scheduled_out += 1;
                } else if seen[c] {
                    out[c].missed += 1;
                }
            }
        }
        out
    }

    /// Number of degraded (carried-forward) rounds.
    pub fn n_degraded(&self) -> usize {
        self.rounds.iter().filter(|r| r.degraded).count()
    }

    /// The per-round update signatures in the shape
    /// `ctfl-core::robustness::analyze_signatures` consumes.
    pub fn update_signatures(&self) -> Vec<RoundSignatures> {
        self.rounds
            .iter()
            .map(|r| RoundSignatures { round: r.round, entries: r.signatures.clone() })
            .collect()
    }

    /// Deterministic text rendering, suitable for byte-diffing two runs.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "federation log: {} clients, {} rounds, {} degraded",
            self.n_clients,
            self.rounds.len(),
            self.n_degraded()
        );
        for r in &self.rounds {
            let _ = write!(
                s,
                "round {:>3} attempts={} {}:",
                r.round,
                r.attempts,
                if r.degraded { "DEGRADED" } else { "committed" }
            );
            for e in &r.entries {
                let _ = write!(
                    s,
                    " {}{}={}",
                    e.client,
                    if e.stale { "*" } else { "" },
                    e.outcome.describe()
                );
            }
            let _ = writeln!(s);
            if !r.signatures.is_empty() {
                let _ = write!(s, "  sig:");
                for g in &r.signatures {
                    let _ = write!(
                        s,
                        " {}(dn={:.3e} echo={:.3e} peer={} pd={:.3e} cos={:.3})",
                        g.client,
                        g.delta_norm,
                        g.echo_dist,
                        g.nearest_peer.map_or("-".into(), |p| p.to_string()),
                        g.peer_dist,
                        g.peer_cos
                    );
                }
                let _ = writeln!(s);
            }
        }
        let part = self.participation();
        for (c, p) in part.iter().enumerate() {
            let _ = write!(
                s,
                "client {c}: accepted {}/{} rejected {} missed {}",
                p.accepted, p.rounds, p.rejected, p.missed,
            );
            // Only non-full-participation schedules produce this clause, so
            // legacy logs stay byte-identical.
            if p.scheduled_out > 0 {
                let _ = write!(s, " unscheduled {}", p.scheduled_out);
            }
            let _ = writeln!(s, " (rate {:.3})", p.rate());
        }
        s
    }
}

/// An update offered to the server for one round: fresh or stale.
#[derive(Debug, Clone)]
pub struct UpdateCandidate {
    /// Reporting client.
    pub client: usize,
    /// True for a straggler's one-round-late arrival.
    pub stale: bool,
    /// Uploaded parameter vector.
    pub params: Vec<f32>,
    /// Aggregation weight (the client's row count).
    pub weight: usize,
}

/// A judged candidate: the guard's verdict plus the (possibly clipped)
/// parameters.
#[derive(Debug, Clone)]
pub struct JudgedUpdate {
    /// The candidate (parameters clipped in place if the guard clipped it).
    pub candidate: UpdateCandidate,
    /// Verdict.
    pub outcome: Participation,
}

fn l2_dist(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Judges one round's candidates against the guard.
///
/// Order of checks: finiteness first (a NaN poisons any norm computation),
/// then the delta-norm rejection bound, then clipping. The median is taken
/// over the delta norms of the *finite* candidates — the "survivor" norm; a
/// single candidate is its own median and therefore never clipped. A median
/// at or below [`NORM_EPS`] disables the norm checks entirely (see the
/// constant's docs for why).
///
/// Candidates must arrive sorted by `(client, stale)`; the output preserves
/// that order, which in turn fixes the floating-point aggregation order.
pub fn judge_round(
    global: &[f32],
    candidates: Vec<UpdateCandidate>,
    guard: &GuardConfig,
) -> Result<Vec<JudgedUpdate>> {
    // Pass 1: finiteness and raw delta norms.
    let mut norms = Vec::with_capacity(candidates.len());
    let mut n_bad = Vec::with_capacity(candidates.len());
    for c in &candidates {
        let bad = c.params.iter().filter(|p| !p.is_finite()).count();
        n_bad.push(bad);
        if bad == 0 {
            norms.push(l2_dist(&c.params, global));
        } else {
            norms.push(f64::NAN);
        }
    }
    let mut finite: Vec<f64> = norms.iter().copied().filter(|n| n.is_finite()).collect();
    finite.sort_by(f64::total_cmp);
    let median = if finite.is_empty() {
        f64::INFINITY
    } else if finite.len() % 2 == 1 {
        finite[finite.len() / 2]
    } else {
        0.5 * (finite[finite.len() / 2 - 1] + finite[finite.len() / 2])
    };
    let (reject_limit, clip_limit) = if median <= NORM_EPS {
        (f64::INFINITY, f64::INFINITY)
    } else {
        (guard.reject_factor * median, guard.clip_factor * median)
    };

    let mut out = Vec::with_capacity(candidates.len());
    for ((mut cand, norm), bad) in candidates.into_iter().zip(norms).zip(n_bad) {
        let outcome = if bad > 0 {
            if guard.fail_fast {
                return Err(CoreError::NonFinite {
                    what: "client parameter vector",
                    index: cand.client,
                });
            }
            Participation::Rejected(RejectReason::NonFinite { n_bad: bad })
        } else if norm > reject_limit {
            Participation::Rejected(RejectReason::NormExploded { norm, limit: reject_limit })
        } else if norm > clip_limit {
            let scale = (clip_limit / norm) as f32;
            for (p, &g) in cand.params.iter_mut().zip(global) {
                *p = g + (*p - g) * scale;
            }
            Participation::Accepted { clipped: true }
        } else {
            Participation::Accepted { clipped: false }
        };
        out.push(JudgedUpdate { candidate: cand, outcome });
    }
    Ok(out)
}

/// Computes the update-similarity signatures of one round's candidates, as
/// submitted (call it *before* [`judge_round`] clips anything).
///
/// Only finite fresh candidates are signed — stale arrivals were computed
/// against an older global, so their distances are not comparable, and
/// non-finite vectors have no meaningful norm. Peer matching (the collusion
/// signal) skips updates whose delta norm is at or below [`NORM_EPS`]: a
/// zero vector is "near" everything and carries no collusion information.
/// The computation is read-only and RNG-free, so recording signatures never
/// perturbs the training stream.
pub fn sign_updates(
    candidates: &[UpdateCandidate],
    global: &[f32],
    prev_global: &[f32],
) -> Vec<UpdateSignature> {
    let signed: Vec<&UpdateCandidate> = candidates
        .iter()
        .filter(|c| !c.stale && c.params.iter().all(|p| p.is_finite()))
        .collect();
    let norms: Vec<f64> = signed.iter().map(|c| l2_dist(&c.params, global)).collect();
    signed
        .iter()
        .enumerate()
        .map(|(i, cand)| {
            let mut nearest_peer = None;
            let mut peer_dist = f64::INFINITY;
            let mut peer_cos = 0.0;
            if norms[i] > NORM_EPS {
                for (j, peer) in signed.iter().enumerate() {
                    if j == i || norms[j] <= NORM_EPS {
                        continue;
                    }
                    // Relative distance: byte-identical copies land at
                    // exactly 0 no matter the federation's scale.
                    let rel = l2_dist(&cand.params, &peer.params) / norms[i].max(norms[j]);
                    if rel < peer_dist {
                        peer_dist = rel;
                        nearest_peer = Some(peer.client);
                        let dot: f64 = cand
                            .params
                            .iter()
                            .zip(&peer.params)
                            .zip(global)
                            .map(|((&a, &b), &g)| {
                                (f64::from(a) - f64::from(g)) * (f64::from(b) - f64::from(g))
                            })
                            .sum();
                        peer_cos = dot / (norms[i] * norms[j]);
                    }
                }
            }
            UpdateSignature {
                client: cand.client,
                delta_norm: norms[i],
                echo_dist: l2_dist(&cand.params, prev_global),
                nearest_peer,
                peer_dist,
                peer_cos,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(client: usize, params: Vec<f32>) -> UpdateCandidate {
        UpdateCandidate { client, stale: false, params, weight: 1 }
    }

    #[test]
    fn finite_identical_updates_all_pass_unclipped() {
        let global = vec![0.5f32; 8];
        let cands = (0..4).map(|c| cand(c, vec![1.0; 8])).collect();
        let judged = judge_round(&global, cands, &GuardConfig::default()).unwrap();
        assert!(judged
            .iter()
            .all(|j| j.outcome == Participation::Accepted { clipped: false }));
        assert!(judged.iter().all(|j| j.candidate.params == vec![1.0; 8]));
    }

    #[test]
    fn nan_and_inf_are_rejected() {
        let global = vec![0.0f32; 4];
        let cands = vec![
            cand(0, vec![1.0, 1.0, 1.0, 1.0]),
            cand(1, vec![1.0, f32::NAN, 1.0, f32::NAN]),
            cand(2, vec![f32::INFINITY, 1.0, 1.0, 1.0]),
        ];
        let judged = judge_round(&global, cands, &GuardConfig::default()).unwrap();
        assert_eq!(judged[0].outcome, Participation::Accepted { clipped: false });
        assert_eq!(
            judged[1].outcome,
            Participation::Rejected(RejectReason::NonFinite { n_bad: 2 })
        );
        assert!(matches!(
            judged[2].outcome,
            Participation::Rejected(RejectReason::NonFinite { n_bad: 1 })
        ));
    }

    #[test]
    fn fail_fast_turns_rejection_into_typed_error() {
        let global = vec![0.0f32; 2];
        let cands = vec![cand(3, vec![f32::NAN, 0.0])];
        let err = judge_round(&global, cands, &GuardConfig::strict()).unwrap_err();
        assert_eq!(err, CoreError::NonFinite { what: "client parameter vector", index: 3 });
    }

    #[test]
    fn norm_exploded_update_is_rejected_and_oversized_is_clipped() {
        let global = vec![0.0f32; 4];
        // Median delta norm is 2.0 (three honest clients); client 3 is 5×
        // the median (clipped at clip_factor 3), client 4 is 1e4× (rejected
        // at reject_factor 10).
        let cands = vec![
            cand(0, vec![1.0; 4]),
            cand(1, vec![1.0; 4]),
            cand(2, vec![1.0; 4]),
            cand(3, vec![5.0; 4]),
            cand(4, vec![1.0e4; 4]),
        ];
        let judged = judge_round(&global, cands, &GuardConfig::default()).unwrap();
        for j in &judged[..3] {
            assert_eq!(j.outcome, Participation::Accepted { clipped: false });
        }
        assert_eq!(judged[3].outcome, Participation::Accepted { clipped: true });
        let clipped_norm = l2_dist(&judged[3].candidate.params, &global);
        let median = 2.0;
        assert!((clipped_norm - 3.0 * median).abs() < 1e-3, "clipped to bound: {clipped_norm}");
        assert!(matches!(
            judged[4].outcome,
            Participation::Rejected(RejectReason::NormExploded { .. })
        ));
    }

    #[test]
    fn single_candidate_is_its_own_median_and_never_clipped() {
        let global = vec![0.0f32; 4];
        let judged =
            judge_round(&global, vec![cand(0, vec![100.0; 4])], &GuardConfig::default()).unwrap();
        assert_eq!(judged[0].outcome, Participation::Accepted { clipped: false });
    }

    #[test]
    fn log_participation_counts_rounds() {
        let mut log = FederationLog::new(3);
        log.rounds.push(RoundReport {
            round: 0,
            attempts: 1,
            degraded: false,
            entries: vec![
                ParticipationEntry {
                    client: 0,
                    stale: false,
                    outcome: Participation::Accepted { clipped: false },
                },
                ParticipationEntry {
                    client: 1,
                    stale: false,
                    outcome: Participation::Rejected(RejectReason::NonFinite { n_bad: 1 }),
                },
                ParticipationEntry { client: 2, stale: false, outcome: Participation::Dropout },
            ],
            signatures: vec![UpdateSignature {
                client: 0,
                delta_norm: 1.5,
                echo_dist: 2.5,
                nearest_peer: None,
                peer_dist: f64::INFINITY,
                peer_cos: 0.0,
            }],
        });
        log.rounds.push(RoundReport {
            round: 1,
            attempts: 2,
            degraded: true,
            entries: vec![ParticipationEntry {
                client: 0,
                stale: false,
                outcome: Participation::Accepted { clipped: false },
            }],
            signatures: Vec::new(),
        });
        let p = log.participation();
        // Round 1 degraded: client 0's accepted entry counts as missed.
        assert_eq!((p[0].accepted, p[0].rejected, p[0].missed), (1, 0, 1));
        assert_eq!((p[1].accepted, p[1].rejected, p[1].missed), (0, 1, 0));
        assert_eq!((p[2].accepted, p[2].rejected, p[2].missed), (0, 0, 1));
        assert!((p[0].rate() - 0.5).abs() < 1e-12);
        // Rendering is stable and contains the verdicts.
        let r = log.render();
        assert_eq!(r, log.render());
        assert!(r.contains("rejected(non-finite x1)"));
        assert!(r.contains("DEGRADED"));
        assert!(r.contains("sig: 0(dn=1.500e0"), "signatures are rendered: {r}");
        // And they round-trip into the core detector's shape.
        let sigs = log.update_signatures();
        assert_eq!(sigs.len(), 2);
        assert_eq!(sigs[0].entries.len(), 1);
        assert!(sigs[1].entries.is_empty());
    }

    #[test]
    fn zero_median_round_disables_norm_checks() {
        // Majority zero-delta candidates drive the median delta norm to 0.
        // The old MIN_POSITIVE fallback made the rejection bound ~0 and
        // threw the one honest nonzero update away; with explicit epsilon
        // semantics the round has no scale, so no norm check applies.
        let global = vec![1.0f32; 4];
        let cands = vec![
            cand(0, vec![1.0; 4]),
            cand(1, vec![1.0; 4]),
            cand(2, vec![2.0; 4]), // honest nonzero update
        ];
        let judged = judge_round(&global, cands, &GuardConfig::default()).unwrap();
        for j in &judged {
            assert_eq!(j.outcome, Participation::Accepted { clipped: false });
        }
        assert_eq!(judged[2].candidate.params, vec![2.0; 4], "no clipping either");
    }

    #[test]
    fn near_zero_median_uses_the_explicit_epsilon() {
        // Denormal-scale deltas are below NORM_EPS: still "no scale".
        let global = vec![0.0f32; 2];
        let tiny = 1.0e-20f32;
        let cands = vec![cand(0, vec![tiny; 2]), cand(1, vec![tiny; 2]), cand(2, vec![1.0; 2])];
        let judged = judge_round(&global, cands, &GuardConfig::default()).unwrap();
        assert!(judged
            .iter()
            .all(|j| j.outcome == Participation::Accepted { clipped: false }));
        // Just above the epsilon the relative check is live again.
        let small = 1.0e-5f32;
        let cands = vec![
            cand(0, vec![small; 2]),
            cand(1, vec![small; 2]),
            cand(2, vec![1.0e4; 2]),
        ];
        let judged = judge_round(&global, cands, &GuardConfig::default()).unwrap();
        assert!(matches!(
            judged[2].outcome,
            Participation::Rejected(RejectReason::NormExploded { .. })
        ));
    }

    #[test]
    fn sign_updates_fingerprints_copies_and_echoes() {
        let global = vec![0.0f32; 3];
        let prev = vec![-1.0f32; 3];
        let cands = vec![
            cand(0, vec![1.0, 2.0, 3.0]),
            cand(1, vec![1.0, 2.0, 3.0]), // byte-identical copy of 0
            cand(2, vec![-3.0, 1.0, 0.5]),
            cand(3, vec![-1.0; 3]), // stale echo of prev_global
            cand(4, vec![0.0; 3]),  // zero delta: excluded from peer matching
        ];
        let sigs = sign_updates(&cands, &global, &prev);
        assert_eq!(sigs.len(), 5);
        assert_eq!(sigs[0].nearest_peer, Some(1));
        assert_eq!(sigs[0].peer_dist, 0.0);
        assert!((sigs[0].peer_cos - 1.0).abs() < 1e-12);
        assert_eq!(sigs[1].nearest_peer, Some(0));
        assert_eq!(sigs[1].peer_dist, 0.0);
        assert_eq!(sigs[3].echo_dist, 0.0, "stale echo lands at distance 0");
        assert!(sigs[3].delta_norm > 0.0);
        assert_eq!(sigs[4].delta_norm, 0.0);
        assert_eq!(sigs[4].nearest_peer, None, "zero delta carries no collusion signal");
        assert_eq!(sigs[4].peer_dist, f64::INFINITY);
        // No honest pair is a "copy" under the default thresholds.
        assert!(sigs[2].peer_dist > 1e-3);
    }

    #[test]
    fn sign_updates_skips_stale_and_non_finite_candidates() {
        let global = vec![0.0f32; 2];
        let cands = vec![
            cand(0, vec![1.0, 1.0]),
            UpdateCandidate { client: 1, stale: true, params: vec![1.0, 1.0], weight: 1 },
            cand(2, vec![f32::NAN, 1.0]),
        ];
        let sigs = sign_updates(&cands, &global, &global);
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].client, 0);
        assert_eq!(sigs[0].nearest_peer, None, "only candidate: no peer");
    }
}
