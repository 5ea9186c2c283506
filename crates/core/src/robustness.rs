//! Detection of adverse participant behaviours (paper Section IV-A).
//!
//! CTFL's multi-grained tracing yields three complementary signals:
//!
//! * **Data replication** inflates a client's *micro* score (proportional to
//!   matched-instance counts) but not its *macro* score (equal shares above
//!   a threshold). A large micro/macro divergence flags replication.
//! * **Low-quality data** rarely matches test activation vectors under a
//!   strict `τ_w`, so a client's fraction of never-matched training rows
//!   (its *useless-data ratio*) exposes it.
//! * **Label-flipped data** matches *misclassified* test instances with
//!   contradictory labels; the loss-tracing allocation concentrates blame on
//!   the flipping client far above the background rate of honest mistakes.

use crate::activation::ActivationMatrix;
use crate::allocation::{macro_scores, micro_scores, CreditDirection};
use crate::error::{CoreError, Result};
use crate::interpret::useless_ratios;
use crate::model::check_artifacts;
use crate::tracing::TraceOutcome;
use std::cmp::Reverse;
use std::collections::HashMap;

/// A client's run-level participation record, produced by the federation
/// runtime's round log (`ctfl-fl`'s `FederationLog::participation`) and
/// consumed here as a fourth robustness signal: a client whose updates were
/// rejected (or who barely participated) contributed nothing to the global
/// model regardless of what its *data* matches — CTFL's zero-element
/// property demands its effective score reflect that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientParticipation {
    /// Rounds in which the client's update was accepted into a committed
    /// aggregate.
    pub accepted: usize,
    /// Rounds in which the server rejected its update (non-finite,
    /// norm-exploded).
    pub rejected: usize,
    /// Rounds missed entirely (dropout, crash, straggling, degraded round).
    pub missed: usize,
    /// Rounds in which the scheduler never asked the client to train.
    /// Being scheduled out is the *server's* choice, not the client's
    /// fault, so these rounds are excluded from the participation
    /// denominator — a client sampled in half the rounds that delivered
    /// every time it was asked still rates 1.0.
    pub scheduled_out: usize,
    /// Total rounds of the run.
    pub rounds: usize,
}

impl ClientParticipation {
    /// A full-participation record over `rounds` rounds.
    pub fn full(rounds: usize) -> Self {
        ClientParticipation { accepted: rounds, rejected: 0, missed: 0, scheduled_out: 0, rounds }
    }

    /// Rounds in which the client was actually asked to train (total minus
    /// scheduled-out rounds).
    pub fn rounds_scheduled(&self) -> usize {
        self.rounds.saturating_sub(self.scheduled_out)
    }

    /// Fraction of *scheduled* rounds with an accepted update (1.0 when the
    /// client was never scheduled — including the zero-round run — since
    /// nobody could have participated).
    pub fn rate(&self) -> f64 {
        let scheduled = self.rounds_scheduled();
        if scheduled == 0 {
            1.0
        } else {
            self.accepted as f64 / scheduled as f64
        }
    }
}

/// Summary of the robustness signals for one client.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRobustness {
    /// Micro gain score (Eq. 5).
    pub micro: f64,
    /// Macro gain score (Eq. 6).
    pub macro_: f64,
    /// Relative micro-over-macro inflation: `(micro - macro) / macro`
    /// (0 when both are 0; `+inf` never occurs — capped at `micro/epsilon`).
    pub replication_inflation: f64,
    /// Fraction of the client's training rows never related to any test
    /// instance (gain *or* loss direction).
    pub useless_ratio: f64,
    /// Micro loss score: share of blame for misclassified tests.
    pub loss_share: f64,
    /// Fraction of federation rounds with an accepted update (1.0 when no
    /// participation record was supplied).
    pub participation_rate: f64,
    /// Rounds in which the server rejected this client's update.
    pub rejected_rounds: usize,
}

/// Full robustness report.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// Per-client signals.
    pub clients: Vec<ClientRobustness>,
    /// Clients whose loss share exceeds the flagging threshold
    /// (`mean + z · stddev` over clients, and above an absolute floor).
    pub suspected_label_flippers: Vec<usize>,
    /// Clients whose replication inflation exceeds the configured factor.
    pub suspected_replicators: Vec<usize>,
    /// Clients whose useless-data ratio exceeds the configured threshold.
    pub suspected_low_quality: Vec<usize>,
    /// Clients whose participation rate fell below `min_participation` or
    /// whose updates the server ever rejected (empty when no participation
    /// record was supplied).
    pub suspected_unreliable: Vec<usize>,
}

/// Thresholds for flagging clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessConfig {
    /// `δ` for the macro scheme used in the replication check.
    pub macro_delta: u32,
    /// Flag replication when `micro > (1 + factor) · macro` and the client's
    /// micro score is non-trivial.
    pub replication_factor: f64,
    /// Flag low quality when the useless ratio exceeds this.
    pub useless_threshold: f64,
    /// Flag label flipping when a client's loss share exceeds
    /// `mean + z · stddev` of all clients' loss shares.
    pub loss_z: f64,
    /// Absolute floor for the label-flip flag (avoids flagging noise when
    /// every client's loss share is tiny).
    pub loss_floor: f64,
    /// Flag a client as unreliable when its participation rate drops below
    /// this (only applies when a participation record is supplied).
    pub min_participation: f64,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            macro_delta: 2,
            replication_factor: 0.8,
            useless_threshold: 0.6,
            loss_z: 1.0,
            loss_floor: 0.02,
            min_participation: 0.5,
        }
    }
}

/// Computes the robustness report from a trace outcome, the client
/// assignment of training rows and, optionally, the federation runtime's
/// participation record: with a record, each client gains a
/// `participation_rate` signal and clients below `min_participation` (or
/// with any server-rejected update) are flagged unreliable.
///
/// # Errors
/// Returns an error if the record's length differs from the trace's client
/// count, if an owner id in `client_of` is outside the trace, or if
/// `config.macro_delta` is 0.
pub fn analyze_with_participation(
    outcome: &TraceOutcome,
    client_of: &[u32],
    participation: Option<&[ClientParticipation]>,
    config: &RobustnessConfig,
) -> Result<RobustnessReport> {
    let n = outcome.n_clients;
    if let Some(p) = participation {
        if p.len() != n {
            return Err(CoreError::LengthMismatch {
                what: "participation record",
                expected: n,
                actual: p.len(),
            });
        }
    }
    if let Some(&c) = client_of.iter().find(|&&c| c as usize >= n) {
        return Err(CoreError::InvalidParameter {
            name: "client_of",
            message: format!("client {c} >= n_clients {n}"),
        });
    }
    let micro = micro_scores(outcome, CreditDirection::Gain);
    let macro_ = macro_scores(outcome, config.macro_delta, CreditDirection::Gain)?;
    let loss = micro_scores(outcome, CreditDirection::Loss);

    let useless = useless_ratios(outcome, client_of);
    let clients: Vec<ClientRobustness> = (0..n)
        .map(|i| {
            let inflation = if macro_[i] > f64::EPSILON {
                (micro[i] - macro_[i]) / macro_[i]
            } else if micro[i] > f64::EPSILON {
                micro[i] / f64::EPSILON.sqrt()
            } else {
                0.0
            };
            ClientRobustness {
                micro: micro[i],
                macro_: macro_[i],
                replication_inflation: inflation,
                useless_ratio: useless[i],
                loss_share: loss[i],
                participation_rate: participation.map_or(1.0, |p| p[i].rate()),
                rejected_rounds: participation.map_or(0, |p| p[i].rejected),
            }
        })
        .collect();

    // Label-flip flag: loss share above mean + z·std and above the floor.
    let mean = loss.iter().sum::<f64>() / n.max(1) as f64;
    let var = loss.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / n.max(1) as f64;
    let std = var.sqrt();
    let flip_threshold = (mean + config.loss_z * std).max(config.loss_floor);
    let suspected_label_flippers: Vec<usize> = (0..n)
        .filter(|&i| loss[i] > flip_threshold && loss[i] > config.loss_floor)
        .collect();

    let suspected_replicators: Vec<usize> = (0..n)
        .filter(|&i| {
            clients[i].replication_inflation > config.replication_factor
                && clients[i].micro > config.loss_floor
        })
        .collect();

    let suspected_low_quality: Vec<usize> =
        (0..n).filter(|&i| clients[i].useless_ratio > config.useless_threshold).collect();

    let suspected_unreliable: Vec<usize> = match participation {
        Some(p) => (0..n)
            .filter(|&i| p[i].rate() < config.min_participation || p[i].rejected > 0)
            .collect(),
        None => Vec::new(),
    };

    Ok(RobustnessReport {
        clients,
        suspected_label_flippers,
        suspected_replicators,
        suspected_low_quality,
        suspected_unreliable,
    })
}

/// Baseline magnitudes below this are treated as exactly zero by
/// [`relative_change`]: a relative change against a (near-)zero baseline is
/// numerically meaningless (division blows up to ±∞ long before the clamp),
/// so the convention is an explicit 0. The same epsilon covers `before ==
/// 0.0`, `-0.0`, and denormal residue from float cancellation.
pub const RELATIVE_CHANGE_EPS: f64 = 1e-12;

/// Relative score change `(φ(i') - φ(i)) / φ(i)` used by the paper's
/// robustness metric (Section VI-A), clipped to `[-1, 1]`.
///
/// Returns 0 when `|before| <` [`RELATIVE_CHANGE_EPS`], matching the
/// paper's convention that an all-zero baseline has no meaningful relative
/// change (this includes `before == 0.0` itself — never a division by
/// zero). Negative baselines are supported: the change is still measured
/// relative to the baseline's own sign.
pub fn relative_change(before: f64, after: f64) -> f64 {
    if before.abs() < RELATIVE_CHANGE_EPS {
        return 0.0;
    }
    ((after - before) / before).clamp(-1.0, 1.0)
}

// ---------------------------------------------------------------------------
// Update-level signatures (Byzantine-adversarial layer)
// ---------------------------------------------------------------------------

/// Server-side similarity fingerprint of one client's submitted update in
/// one round, computed by the federation runtime (`ctfl-fl`'s round loop)
/// *before* the guard judges the update and accumulated into the
/// `FederationLog`.
///
/// Data-level detectors see what a client's *data* matches; these
/// signatures see what its *updates* look like on the wire — the only place
/// update-level gaming (colluding replication, free-riding) is visible,
/// since such clients' local data can be perfectly honest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateSignature {
    /// Reporting client.
    pub client: usize,
    /// L2 norm of the update delta `‖θᵢ − θ_global‖₂`. (A zero-delta
    /// free-rider submits the global parameters back unchanged: norm 0.)
    pub delta_norm: f64,
    /// L2 distance to the *previous* round's global parameters. (A
    /// stale-echo free-rider replays exactly those: distance 0.)
    pub echo_dist: f64,
    /// The other client whose submitted update is L2-closest to this one
    /// (`None` when this is the round's only update, or when this update's
    /// delta is itself ~zero — a zero vector is "near" everything and
    /// carries no collusion information).
    pub nearest_peer: Option<usize>,
    /// L2 distance to `nearest_peer`, *relative* to the larger of the two
    /// delta norms (0 for byte-identical copies; `INFINITY` when no peer).
    pub peer_dist: f64,
    /// Cosine similarity of the two update *deltas* (0 when no peer or
    /// either delta is ~zero).
    pub peer_cos: f64,
}

/// All update signatures of one committed round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSignatures {
    /// Round index.
    pub round: usize,
    /// One signature per finite fresh update offered that round, sorted by
    /// client id.
    pub entries: Vec<UpdateSignature>,
}

/// A pair of updates counts as a *copy* when their relative L2 distance
/// ([`UpdateSignature::peer_dist`]) is at most this. Colluders submit
/// byte-identical vectors (distance exactly 0); honest clients training on
/// different shards with different RNG streams land orders of magnitude
/// apart.
const COPY_DIST: f64 = 1e-6;

/// ...and the cosine of their deltas is at least this.
const COPY_COS: f64 = 0.999;

/// [`analyze_signatures`] flags a client as colluding when at least this
/// fraction of its signed rounds were copy rounds (and it signed at least
/// one).
pub const COLLUDER_ROUND_FRAC: f64 = 0.5;

/// A round counts as *free-riding* for a client when its delta norm is at
/// most this fraction of the round's median delta norm (zero-delta
/// submission), or its `echo_dist` is at most this fraction of the median
/// (stale echo of the previous global).
const FREE_RIDE_NORM_FRAC: f64 = 1e-3;

/// Flag a client as free-riding when at least this fraction of its signed
/// rounds were free-riding rounds.
const FREE_RIDER_ROUND_FRAC: f64 = 0.5;

/// A round whose median update-delta norm is at or below this has no
/// scale: with no meaningful reference (e.g. a fully converged federation)
/// a small delta is not evidence of anything. [`analyze_signatures`] then
/// counts no free-ride round, and `ctfl-fl`'s round guard skips its
/// relative norm checks, which against a (near-)zero median would reject
/// every honest nonzero update.
pub const NORM_EPS: f64 = 1e-12;

/// Per-client tallies over a run's update signatures.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClientSignatureStats {
    /// Rounds in which this client submitted a (finite, fresh) update.
    pub signed_rounds: usize,
    /// Rounds in which its update was a near-exact copy of another client's.
    pub copy_rounds: usize,
    /// Rounds in which its update was a zero-delta or stale-echo submission.
    pub free_ride_rounds: usize,
    /// Distinct nearest peers over its copy rounds, sorted ascending — the
    /// suspected collusion ring as seen from this client.
    pub copy_peers: Vec<usize>,
}

/// Output of [`analyze_signatures`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureReport {
    /// Per-client tallies.
    pub clients: Vec<ClientSignatureStats>,
    /// Clients whose copy-round fraction exceeds the threshold: the
    /// suspected colluding ring(s), sources and copiers alike (a copy pair
    /// is symmetric — both ends submitted the same bytes).
    pub suspected_colluders: Vec<usize>,
    /// Clients whose free-ride-round fraction exceeds the threshold.
    pub suspected_free_riders: Vec<usize>,
}

/// Runs the update-level detectors over a run's accumulated round
/// signatures (`ctfl-fl`'s `FederationLog::update_signatures`).
///
/// Complements [`analyze_with_participation`]: data-level detectors
/// (replication, low quality, label flips) are blind to clients that game
/// the *updates* they submit while holding perfectly honest data; these
/// detectors are blind to data attacks. Together they cover both sides of
/// the paper's §IV-A threat model plus the update-level gap shown by Pejó
/// et al.
pub fn analyze_signatures(rounds: &[RoundSignatures], n_clients: usize) -> Result<SignatureReport> {
    let mut clients = vec![ClientSignatureStats::default(); n_clients];
    for round in rounds {
        // Median delta norm of the round — the free-ride scale reference.
        let median = median_of(round.entries.iter().map(|s| s.delta_norm).collect());
        for sig in &round.entries {
            if sig.client >= n_clients {
                return Err(CoreError::InvalidParameter {
                    name: "rounds",
                    message: format!(
                        "signature names client {} but the federation has {n_clients}",
                        sig.client
                    ),
                });
            }
            let stats = &mut clients[sig.client];
            stats.signed_rounds += 1;
            if let Some(peer) = sig.nearest_peer {
                if sig.peer_dist <= COPY_DIST && sig.peer_cos >= COPY_COS {
                    stats.copy_rounds += 1;
                    if let Err(pos) = stats.copy_peers.binary_search(&peer) {
                        stats.copy_peers.insert(pos, peer);
                    }
                }
            }
            if median > NORM_EPS {
                let bound = FREE_RIDE_NORM_FRAC * median;
                if sig.delta_norm <= bound || sig.echo_dist <= bound {
                    stats.free_ride_rounds += 1;
                }
            }
        }
    }
    let frac_flag = |hits: usize, total: usize, frac: f64| {
        total > 0 && hits > 0 && hits as f64 >= frac * total as f64
    };
    let suspected_colluders: Vec<usize> = (0..n_clients)
        .filter(|&c| {
            frac_flag(clients[c].copy_rounds, clients[c].signed_rounds, COLLUDER_ROUND_FRAC)
        })
        .collect();
    let suspected_free_riders: Vec<usize> = (0..n_clients)
        .filter(|&c| {
            frac_flag(clients[c].free_ride_rounds, clients[c].signed_rounds, FREE_RIDER_ROUND_FRAC)
        })
        .collect();
    Ok(SignatureReport { clients, suspected_colluders, suspected_free_riders })
}

// ---------------------------------------------------------------------------
// Upload-level audit (score-gaming layer)
// ---------------------------------------------------------------------------

/// One client's activation upload as the auditor sees it: the claimed
/// bitsets and labels, plus the privacy level the client *claims* it
/// applied. Borrowed, because the auditor runs over uploads the federation
/// already holds (`ctfl-fl`'s `ActivationUpload`).
#[derive(Debug, Clone, Copy)]
pub struct UploadAuditInput<'a> {
    /// Uploading client.
    pub client: usize,
    /// Claimed activation bitsets (one row per claimed training instance).
    pub activations: &'a ActivationMatrix,
    /// Claimed labels, one per row.
    pub labels: &'a [u32],
    /// The randomized-response flip probability the client claims it
    /// applied (`0` = no perturbation claimed). Feeds the feasibility cap:
    /// under honest randomized response at `p`, observed self-support
    /// cannot exceed `1 − p` in expectation.
    pub claimed_flip_probability: f64,
}

/// Per-client audit signals derived from an upload alone (no raw data).
#[derive(Debug, Clone, PartialEq)]
pub struct UploadProfile {
    /// Client id.
    pub client: usize,
    /// Claimed rows in the upload.
    pub rows: usize,
    /// Shard size the client declared at enrollment (`None` when the
    /// federation keeps no declaration).
    pub declared_rows: Option<usize>,
    /// Mean fraction of activation bits set per row. Inflation pushes it up.
    pub mean_density: f64,
    /// Mean weighted fraction of own-label class-mask bits set per row —
    /// exactly the quantity Eq. 4 pays for, so it is what a rational gamer
    /// inflates.
    pub self_support: f64,
    /// Fraction of supported rows whose claimed label is *not* the class
    /// their activations support best. Label-side gaming (relabeling toward
    /// the majority class) decouples activations from labels and drives
    /// this up.
    pub label_incoherence: f64,
    /// [`UploadProfile::label_incoherence`] minus the incoherence *expected*
    /// for this client's claimed label mix, where the expectation applies
    /// the cohort's leave-one-out per-class incoherence rates to the
    /// client's own label histogram. Raw incoherence conflates shard label
    /// composition with cheating (on a label-skewed cohort, honest
    /// minority-class holders score high on an imperfect model); the excess
    /// asks the fair question — is this client incoherent *beyond what its
    /// claimed labels predict*?
    pub incoherence_excess: f64,
    /// Largest fraction of this client's rows whose `(signature, label)`
    /// key also appears in some single peer's upload.
    pub peer_match_frac: f64,
    /// The peer achieving `peer_match_frac`, the earliest in upload order on
    /// a tie (`None` with no peers or no matches).
    pub matched_peer: Option<usize>,
    /// Rows duplicated beyond the matched peer's own multiplicities — a
    /// squatter that cyclically refills from a smaller victim shows excess;
    /// the victim never does (0 with no matched peer).
    pub duplicate_excess: usize,
}

/// Thresholds for [`audit_uploads`].
///
/// The outlier tests are *two-gated*: a client is flagged only when its
/// signal sits `z` robust standard deviations above the cohort median
/// (modified z-score, `0.6745 · dev / MAD`) **and** at least `margin`
/// above it in absolute terms. The margin keeps a tight honest cohort
/// (MAD ≈ 0) from flagging harmless jitter; the z-score keeps a wide
/// honest cohort from flagging its own tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UploadAuditConfig {
    /// Modified z-score threshold shared by the outlier tests.
    pub z: f64,
    /// Absolute margin for the mean-density test.
    pub density_margin: f64,
    /// Absolute margin for the self-support test.
    pub support_margin: f64,
    /// Absolute margin for the label-incoherence-excess test. The default
    /// is wider than the other margins because honest excess jitter on
    /// real label-skewed federations (imperfect rules, small shards)
    /// reaches ~0.17 while relabeling attacks land well above 0.25.
    pub incoherence_margin: f64,
    /// Widening of the incoherence-excess margin per unit of the cohort's
    /// mean *claimed* flip probability. Randomized response flips label-
    /// correlated activation bits, so honest excess jitter grows with `p`;
    /// the effective margin is
    /// `incoherence_margin + incoherence_rr_slack · mean(claimed_p)`.
    /// This is exactly the privacy/auditability trade-off: the wider the
    /// claimed privacy noise, the less label-side audit power remains.
    pub incoherence_rr_slack: f64,
    /// Slack over the randomized-response feasibility cap `1 − p`:
    /// observed self-support above `1 − p + cap_slack` is infeasible under
    /// the claimed privacy level regardless of the cohort.
    pub cap_slack: f64,
    /// A client whose row keys are contained in a single peer's upload at
    /// this fraction or higher is a squat suspect.
    pub squat_match_frac: f64,
}

impl Default for UploadAuditConfig {
    fn default() -> Self {
        UploadAuditConfig {
            z: 3.5,
            density_margin: 0.08,
            support_margin: 0.08,
            incoherence_margin: 0.20,
            incoherence_rr_slack: 1.0,
            cap_slack: 0.05,
            squat_match_frac: 0.9,
        }
    }
}

/// Output of [`audit_uploads`].
#[derive(Debug, Clone, PartialEq)]
pub struct UploadAuditReport {
    /// Per-upload signals, in upload order.
    pub profiles: Vec<UploadProfile>,
    /// Clients whose density or self-support is an upper outlier, or whose
    /// self-support exceeds the randomized-response feasibility cap for
    /// their claimed `p` (activation inflation, ε-abuse).
    pub suspected_inflators: Vec<usize>,
    /// Clients whose upload is contained in a single peer's upload
    /// (trace-squatting). When two near-equal uploads mimic each other
    /// perfectly, duplicate excess breaks the tie; a dead-even mimicry
    /// pair is flagged whole — the auditor cannot know which end is honest,
    /// so it quarantines both.
    pub suspected_squatters: Vec<usize>,
    /// Clients whose label-mix-adjusted incoherence excess is an upper
    /// outlier (label-side gaming).
    pub suspected_label_gamers: Vec<usize>,
    /// Clients claiming more rows than their declared shard size
    /// (row-budget accounting; empty when no declarations were supplied).
    pub suspected_budget_violators: Vec<usize>,
    /// Union of all suspect lists, ascending.
    pub flagged: Vec<usize>,
}

fn median_of(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        0.5 * (v[v.len() / 2 - 1] + v[v.len() / 2])
    }
}

/// Indices whose value is an *upper* robust outlier: `margin` above the
/// median in absolute terms and `z` modified z-scores above it (the z test
/// auto-passes when the cohort is so tight that MAD vanishes). Cohorts of
/// fewer than 3 carry no outlier information.
fn upper_outliers(values: &[f64], z: f64, margin: f64) -> Vec<usize> {
    if values.len() < 3 {
        return Vec::new();
    }
    let med = median_of(values.to_vec());
    let mad = median_of(values.iter().map(|x| (x - med).abs()).collect());
    values
        .iter()
        .enumerate()
        .filter(|&(_, &x)| {
            let dev = x - med;
            dev > margin && (mad <= 1e-12 || 0.6745 * dev / mad >= z)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Audits a cohort of activation uploads for score-gaming *before* they are
/// assembled into tracing inputs.
///
/// Four independent detectors, each aimed at one attack family:
///
/// * **density / self-support outliers + RR feasibility cap** — activation
///   inflation and ε-abuse (claiming bits the client never held pushes the
///   Eq. 4 payoff quantity above the cohort, and above what honest
///   randomized response at the claimed `p` could produce);
/// * **peer containment** — trace-squatting (an upload whose rows are a
///   near-subset of one peer's is a copy, not a coincidence — under
///   randomized response honest cross-client signature collisions are
///   vanishingly rare);
/// * **label-incoherence excess** — label-side gaming (relabeled rows keep
///   activations that support their true class; the signal is measured as
///   excess over what the client's claimed label mix predicts, so honest
///   minority-class holders on a label-skewed cohort are not confounded);
/// * **row budget** — claimed activation mass beyond the declared shard
///   size (`declared_rows[client]`, typically from enrollment or the
///   FedAvg example-count weights).
///
/// `weights` / `class_masks` are the public model artifacts every client
/// already has; each class mask must hold `weights.len().div_ceil(64)`
/// words and every weight must be finite and non-negative (the tracer's
/// check). Flags carry *client ids* (not upload positions).
///
/// Peer containment goes through an inverted index from each
/// `(row_signature, label)` key to the uploads holding it, so it costs the
/// total row count plus one visit per shared-key pair (a key and another
/// upload holding it): linear in rows when, as under randomized response,
/// keys are almost never shared, and never more than a pairwise scan's
/// `n² · keys` probes when every upload holds every key. The matched peer
/// holds the most of the upload's rows, ties going to the lowest upload
/// position.
pub fn audit_uploads(
    uploads: &[UploadAuditInput<'_>],
    weights: &[f64],
    class_masks: &[Vec<u64>],
    declared_rows: Option<&[usize]>,
    config: &UploadAuditConfig,
) -> Result<UploadAuditReport> {
    let n_classes = class_masks.len();
    check_artifacts(weights, class_masks)?;
    let mut seen = std::collections::HashSet::new();
    for up in uploads {
        if up.activations.n_bits() != weights.len() {
            return Err(CoreError::LengthMismatch {
                what: "upload activation width",
                expected: weights.len(),
                actual: up.activations.n_bits(),
            });
        }
        if up.labels.len() != up.activations.n_rows() {
            return Err(CoreError::LengthMismatch {
                what: "upload labels",
                expected: up.activations.n_rows(),
                actual: up.labels.len(),
            });
        }
        for &l in up.labels {
            if l as usize >= n_classes {
                return Err(CoreError::InvalidParameter {
                    name: "uploads",
                    message: format!("label {l} >= n_classes {n_classes}"),
                });
            }
        }
        if !seen.insert(up.client) {
            return Err(CoreError::InvalidParameter {
                name: "uploads",
                message: format!("client {} uploaded twice", up.client),
            });
        }
        // The claim feeds the feasibility cap and the cohort-wide
        // incoherence margin, so one out-of-range claim would skew the
        // verdict on every client.
        if !(0.0..0.5).contains(&up.claimed_flip_probability) {
            return Err(CoreError::InvalidParameter {
                name: "claimed_flip_probability",
                message: format!(
                    "client {} claims {}, outside [0, 0.5)",
                    up.client, up.claimed_flip_probability
                ),
            });
        }
        if let Some(d) = declared_rows {
            if up.client >= d.len() {
                return Err(CoreError::InvalidParameter {
                    name: "declared_rows",
                    message: format!("no declaration for client {}", up.client),
                });
            }
        }
    }

    // Total weight behind each class mask (the self-support denominator).
    let mask_totals: Vec<f64> = class_masks
        .iter()
        .map(|mask| {
            weights
                .iter()
                .enumerate()
                .filter(|&(b, _)| mask[b / 64] >> (b % 64) & 1 == 1)
                .map(|(_, &w)| w)
                .sum::<f64>()
        })
        .collect();

    // Per-upload signals + (signature, label) multisets for containment.
    let mut keys: Vec<HashMap<(u64, u32), u32>> = Vec::with_capacity(uploads.len());
    let mut profiles: Vec<UploadProfile> = Vec::with_capacity(uploads.len());
    // Per-upload, per-class coherence tallies (rows judged / rows
    // incoherent) for the leave-one-out incoherence expectation.
    let mut coh_rows_by_class: Vec<Vec<usize>> = Vec::with_capacity(uploads.len());
    let mut incoh_by_class: Vec<Vec<usize>> = Vec::with_capacity(uploads.len());
    // One row's weighted support for every class, reused across rows.
    let mut supports = vec![0.0; n_classes];
    for up in uploads {
        let rows = up.activations.n_rows();
        let n_bits = up.activations.n_bits().max(1);
        let mut density_sum = 0.0;
        let mut support_sum = 0.0;
        let mut supported_rows = 0usize;
        let mut incoherent = 0usize;
        let mut coherence_rows = 0usize;
        let mut class_rows = vec![0usize; n_classes];
        let mut class_incoh = vec![0usize; n_classes];
        let mut map: HashMap<(u64, u32), u32> = HashMap::new();
        for r in 0..rows {
            density_sum += up.activations.row_count(r) as f64 / n_bits as f64;
            let label = up.labels[r] as usize;
            for (support, mask) in supports.iter_mut().zip(class_masks) {
                *support = up.activations.masked_weight_sum(r, mask, weights);
            }
            if mask_totals[label] > 0.0 {
                support_sum += supports[label] / mask_totals[label];
                supported_rows += 1;
            }
            let best = supports.iter().copied().fold(0.0, f64::max);
            if best > 0.0 {
                coherence_rows += 1;
                class_rows[label] += 1;
                if supports[label] + 1e-12 < best {
                    incoherent += 1;
                    class_incoh[label] += 1;
                }
            }
            *map.entry((up.activations.row_signature(r), up.labels[r])).or_insert(0) += 1;
        }
        keys.push(map);
        coh_rows_by_class.push(class_rows);
        incoh_by_class.push(class_incoh);
        profiles.push(UploadProfile {
            client: up.client,
            rows,
            declared_rows: declared_rows.map(|d| d[up.client]),
            mean_density: if rows == 0 { 0.0 } else { density_sum / rows as f64 },
            self_support: if supported_rows == 0 { 0.0 } else { support_sum / supported_rows as f64 },
            label_incoherence: if coherence_rows == 0 {
                0.0
            } else {
                incoherent as f64 / coherence_rows as f64
            },
            incoherence_excess: 0.0,
            peer_match_frac: 0.0,
            matched_peer: None,
            duplicate_excess: 0,
        });
    }

    // Peer containment: fraction of i's rows whose key exists in j, and the
    // rows i holds beyond j's multiplicities for the best-matching peer.
    // An inverted index from each key to the uploads holding it (ascending)
    // lets upload i visit only the peers that share a key with it.
    let n = uploads.len();
    let mut holders: HashMap<(u64, u32), Vec<usize>> = HashMap::new();
    for (j, map) in keys.iter().enumerate() {
        for &key in map.keys() {
            holders.entry(key).or_default().push(j);
        }
    }
    // The matched peer's upload index, for detector 2.
    let mut peer_of: Vec<Option<usize>> = vec![None; n];
    let mut matched = vec![0u32; n];
    let mut touched: Vec<usize> = Vec::new();
    for i in 0..n {
        for (key, &cnt) in &keys[i] {
            for &j in holders[key].iter().filter(|&&j| j != i) {
                if matched[j] == 0 {
                    touched.push(j);
                }
                matched[j] += cnt;
            }
        }
        // Most matched rows, ties to the lowest upload index: `touched`
        // follows the hasher's order, so the rule is spelled out.
        let best = touched.iter().map(|&j| (matched[j], Reverse(j))).max();
        for j in touched.drain(..) {
            matched[j] = 0;
        }
        let Some((rows_matched, Reverse(j))) = best else {
            continue; // no peer shares a key: no matched peer
        };
        let excess: u32 = keys[i]
            .iter()
            .filter_map(|(k, &cnt)| keys[j].get(k).map(|&peer_cnt| cnt.saturating_sub(peer_cnt)))
            .sum();
        profiles[i].peer_match_frac = rows_matched as f64 / profiles[i].rows as f64;
        profiles[i].matched_peer = Some(uploads[j].client);
        profiles[i].duplicate_excess = excess as usize;
        peer_of[i] = Some(j);
    }

    // Detector 1: inflation / ε-abuse.
    let densities: Vec<f64> = profiles.iter().map(|p| p.mean_density).collect();
    let supports: Vec<f64> = profiles.iter().map(|p| p.self_support).collect();
    let mut inflators: Vec<usize> = upper_outliers(&densities, config.z, config.density_margin)
        .into_iter()
        .chain(upper_outliers(&supports, config.z, config.support_margin))
        .map(|i| profiles[i].client)
        .collect();
    for (up, p) in uploads.iter().zip(&profiles) {
        let cap = 1.0 - up.claimed_flip_probability + config.cap_slack;
        if up.claimed_flip_probability > 0.0 && p.self_support > cap {
            inflators.push(p.client);
        }
    }
    inflators.sort_unstable();
    inflators.dedup();

    // Detector 2: trace-squatting via peer containment. A profile with no
    // matched peer is never a suspect.
    let mut squatters: Vec<usize> = Vec::new();
    for i in 0..n {
        let Some(j) = peer_of[i] else { continue };
        if profiles[i].peer_match_frac < config.squat_match_frac {
            continue;
        }
        // Mutual mimicry: excess copies break the tie (the cyclic refiller
        // shows them, the victim cannot); a dead-even pair is flagged whole.
        if profiles[j].peer_match_frac >= config.squat_match_frac
            && peer_of[j] == Some(i)
            && profiles[j].duplicate_excess > profiles[i].duplicate_excess
        {
            continue; // j is the squatter of this pair, not i
        }
        squatters.push(profiles[i].client);
    }
    squatters.sort_unstable();
    squatters.dedup();

    // Detector 4 runs before detector 3 so its flags can clean detector
    // 3's baseline (see below).
    let mut budget_violators: Vec<usize> = profiles
        .iter()
        .filter(|p| p.declared_rows.is_some_and(|d| p.rows > d))
        .map(|p| p.client)
        .collect();
    budget_violators.sort_unstable();

    // Incoherence excess: observed minus the rate the client's own label
    // mix predicts under the cohort's leave-one-out per-class incoherence
    // rates. The baseline excludes clients the *other* detectors already
    // flagged — an inflator's fabricated hyper-coherent rows would
    // otherwise depress the expected rates and push honest clients into
    // apparent excess (one corrupted baseline sheltering another attack).
    let prior_suspects: std::collections::HashSet<usize> = inflators
        .iter()
        .chain(&squatters)
        .chain(&budget_violators)
        .copied()
        .collect();
    let baseline: Vec<usize> = (0..n)
        .filter(|&i| !prior_suspects.contains(&uploads[i].client))
        .collect();
    let tot_rows_by_class: Vec<usize> = (0..n_classes)
        .map(|c| baseline.iter().map(|&i| coh_rows_by_class[i][c]).sum())
        .collect();
    let tot_incoh_by_class: Vec<usize> = (0..n_classes)
        .map(|c| baseline.iter().map(|&i| incoh_by_class[i][c]).sum())
        .collect();
    for (i, p) in profiles.iter_mut().enumerate() {
        let judged: usize = coh_rows_by_class[i].iter().sum();
        if judged == 0 {
            continue;
        }
        let in_baseline = !prior_suspects.contains(&uploads[i].client);
        let mut expected = 0.0;
        for c in 0..n_classes {
            let (mut peer_rows, mut peer_incoh) = (tot_rows_by_class[c], tot_incoh_by_class[c]);
            if in_baseline {
                peer_rows -= coh_rows_by_class[i][c];
                peer_incoh -= incoh_by_class[i][c];
            }
            if peer_rows == 0 {
                continue; // no peer evidence for this class: expect 0
            }
            expected += coh_rows_by_class[i][c] as f64 * peer_incoh as f64 / peer_rows as f64;
        }
        p.incoherence_excess = p.label_incoherence - expected / judged as f64;
    }

    // Detector 3: label-side gaming, on the skew-adjusted excess. Negative
    // excess ("more coherent than the cohort predicts") is clamped to zero
    // before the outlier stats: it is never suspicious in itself, and when
    // a gamer corrupts the leave-one-out baseline its victims' mirrored
    // negative excess would otherwise inflate the MAD and shelter it.
    // The margin widens with the cohort's mean claimed flip probability:
    // randomized response perturbs label-correlated bits, so honest excess
    // jitter grows with p and a fixed margin would false-positive honest
    // clients on noisy draws.
    let mean_claimed_p =
        uploads.iter().map(|u| u.claimed_flip_probability).sum::<f64>() / uploads.len() as f64;
    let margin = config.incoherence_margin + config.incoherence_rr_slack * mean_claimed_p;
    let excesses: Vec<f64> =
        profiles.iter().map(|p| p.incoherence_excess.max(0.0)).collect();
    let mut label_gamers: Vec<usize> =
        upper_outliers(&excesses, config.z, margin)
            .into_iter()
            .map(|i| profiles[i].client)
            .collect();
    label_gamers.sort_unstable();

    let mut flagged: Vec<usize> = inflators
        .iter()
        .chain(&squatters)
        .chain(&label_gamers)
        .chain(&budget_violators)
        .copied()
        .collect();
    flagged.sort_unstable();
    flagged.dedup();

    Ok(UploadAuditReport {
        profiles,
        suspected_inflators: inflators,
        suspected_squatters: squatters,
        suspected_label_gamers: label_gamers,
        suspected_budget_violators: budget_violators,
        flagged,
    })
}

/// Cross-checks claimed uploads against submitted model updates: a client
/// the update-signature detectors identify as a free-rider (zero-delta or
/// stale-echo submissions — no local training happened) that nonetheless
/// claims a non-empty activation upload is lying on at least one side.
/// Data that never trained the model cannot earn credit through it; an
/// empty upload claims nothing.
///
/// Returns the inconsistent clients, ascending.
pub fn cross_check_uploads(audit: &UploadAuditReport, signatures: &SignatureReport) -> Vec<usize> {
    let mut out: Vec<usize> = audit
        .profiles
        .iter()
        .filter(|p| p.rows > 0 && signatures.suspected_free_riders.contains(&p.client))
        .map(|p| p.client)
        .collect();
    out.sort_unstable();
    out
}

/// Modified z-score threshold of [`score_consistency`] on normalized
/// dispersion.
const CONSISTENCY_Z: f64 = 3.5;

/// Absolute margin of [`score_consistency`] above the median dispersion.
const CONSISTENCY_MARGIN: f64 = 0.5;

/// Output of [`score_consistency`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConsistencyReport {
    /// Per-client mean score across runs.
    pub mean: Vec<f64>,
    /// Per-client score dispersion across runs: standard deviation divided
    /// by the cohort's mean absolute score, so dispersions are comparable
    /// across clients and cohorts.
    pub dispersion: Vec<f64>,
    /// Clients whose dispersion is an upper robust outlier.
    pub suspected_inconsistent: Vec<usize>,
}

/// Cross-run consistency scoring (FedRandom, PAPERS.md): a client whose
/// contribution score swings wildly across re-scoring runs (different test
/// subsamples, different seeds) earns its score through brittle,
/// coincidental matches — gamed uploads behave exactly so, honest data
/// scores stay stable.
///
/// `runs` holds one score vector per re-scoring pass (≥ 2, equal lengths).
pub fn score_consistency(runs: &[Vec<f64>]) -> Result<ConsistencyReport> {
    let first = runs.first().ok_or(CoreError::Empty { what: "consistency runs" })?;
    let n = first.len();
    if runs.len() < 2 {
        return Err(CoreError::InvalidParameter {
            name: "runs",
            message: format!("need >= 2 re-scoring runs, got {}", runs.len()),
        });
    }
    for r in runs {
        if r.len() != n {
            return Err(CoreError::LengthMismatch {
                what: "consistency run",
                expected: n,
                actual: r.len(),
            });
        }
    }
    let k = runs.len() as f64;
    let mean: Vec<f64> = (0..n).map(|i| runs.iter().map(|r| r[i]).sum::<f64>() / k).collect();
    let scale = (mean.iter().map(|m| m.abs()).sum::<f64>() / n.max(1) as f64).max(1e-12);
    let dispersion: Vec<f64> = (0..n)
        .map(|i| {
            let var = runs.iter().map(|r| (r[i] - mean[i]).powi(2)).sum::<f64>() / k;
            var.sqrt() / scale
        })
        .collect();
    let suspected_inconsistent = upper_outliers(&dispersion, CONSISTENCY_Z, CONSISTENCY_MARGIN);
    Ok(ConsistencyReport { mean, dispersion, suspected_inconsistent })
}

/// Slashes flagged clients in a score vector: each forfeits its whole
/// positive score, and the pot is redistributed to the unflagged clients
/// pro rata to their positive scores, preserving the score total (group
/// rationality). With no unflagged positive score to receive it, the pot
/// is lost. Negative scores are never slashed further (there is nothing to
/// confiscate).
pub fn slash_scores(scores: &[f64], flagged: &[usize]) -> Result<Vec<f64>> {
    let mut is_flagged = vec![false; scores.len()];
    for &f in flagged {
        if f >= scores.len() {
            return Err(CoreError::InvalidParameter {
                name: "flagged",
                message: format!("client {f} outside score vector of {}", scores.len()),
            });
        }
        is_flagged[f] = true;
    }
    let mut out = scores.to_vec();
    let mut pot = 0.0;
    for (i, s) in out.iter_mut().enumerate() {
        if is_flagged[i] && *s > 0.0 {
            pot += *s;
            *s = 0.0;
        }
    }
    if pot > 0.0 {
        let base: f64 =
            out.iter().enumerate().filter(|&(i, &s)| !is_flagged[i] && s > 0.0).map(|(_, &s)| s).sum();
        if base > 1e-12 {
            for (i, s) in out.iter_mut().enumerate() {
                if !is_flagged[i] && *s > 0.0 {
                    *s += pot * (*s / base);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracing::{TestTrace, TraceOutcome};

    fn trace(entries: Vec<(usize, usize, Vec<u32>)>, n_clients: usize) -> TraceOutcome {
        let per_test = entries
            .into_iter()
            .map(|(predicted, actual, related_per_client)| TestTrace {
                predicted,
                actual,
                traced_class: if predicted == actual { actual } else { predicted },
                denom: 1.0,
                related_per_client,
            })
            .collect();
        TraceOutcome::from_per_test(per_test, n_clients, 0)
    }

    /// The report without a participation record.
    fn analyze(o: &TraceOutcome, owners: &[u32], c: &RobustnessConfig) -> Result<RobustnessReport> {
        analyze_with_participation(o, owners, None, c)
    }

    #[test]
    fn flags_label_flipper_with_concentrated_loss() {
        // Client 2 matches most misclassified tests; 0 and 1 are honest.
        let outcome = trace(
            vec![
                (1, 1, vec![3, 3, 0]),
                (0, 0, vec![2, 4, 0]),
                (1, 0, vec![0, 0, 5]), // wrong, blamed on client 2
                (0, 1, vec![0, 0, 4]), // wrong, blamed on client 2
                (1, 1, vec![1, 1, 0]),
            ],
            3,
        );
        let report = analyze(&outcome, &[0, 1, 2, 0, 1, 2], &RobustnessConfig::default()).unwrap();
        assert_eq!(report.suspected_label_flippers, vec![2]);
        assert!(report.clients[2].loss_share > report.clients[0].loss_share);
    }

    #[test]
    fn flags_replicator_via_micro_macro_divergence() {
        // Client 0 has hugely more matched rows than client 1 on every test,
        // inflating micro while macro splits equally.
        let outcome = trace(
            vec![(1, 1, vec![50, 2]), (1, 1, vec![60, 2]), (0, 0, vec![40, 2])],
            2,
        );
        let report = analyze(&outcome, &[0, 1], &RobustnessConfig::default()).unwrap();
        assert!(report.clients[0].replication_inflation > 0.8);
        assert_eq!(report.suspected_replicators, vec![0]);
        assert!(report.suspected_replicators.iter().all(|&c| c != 1));
    }

    #[test]
    fn useless_ratio_counts_unmatched_training_rows() {
        let mut outcome = trace(vec![(1, 1, vec![1, 0])], 2);
        // 4 training rows: row 0 (client 0) matched once; rows 1-3 never.
        outcome.train_benefit_counts = vec![1, 0, 0, 0];
        outcome.train_harm_counts = vec![0, 0, 0, 0];
        let report = analyze(&outcome, &[0, 0, 1, 1], &RobustnessConfig::default()).unwrap();
        assert_eq!(report.clients[0].useless_ratio, 0.5);
        assert_eq!(report.clients[1].useless_ratio, 1.0);
        assert_eq!(report.suspected_low_quality, vec![1]);
    }

    #[test]
    fn honest_federation_has_no_suspects() {
        let outcome = trace(
            vec![(1, 1, vec![3, 3]), (0, 0, vec![2, 2]), (1, 0, vec![0, 0])],
            2,
        );
        let mut o = outcome;
        o.train_benefit_counts = vec![1, 1, 1, 1];
        o.train_harm_counts = vec![0, 0, 0, 0];
        let report = analyze(&o, &[0, 0, 1, 1], &RobustnessConfig::default()).unwrap();
        assert!(report.suspected_label_flippers.is_empty());
        assert!(report.suspected_replicators.is_empty());
        assert!(report.suspected_low_quality.is_empty());
    }

    #[test]
    fn participation_record_flags_unreliable_clients() {
        let outcome = trace(vec![(1, 1, vec![3, 3, 3]), (0, 0, vec![2, 2, 2])], 3);
        // Client 1: rejected every round; client 2: mostly absent.
        let part = vec![
            ClientParticipation::full(10),
            ClientParticipation { accepted: 0, rejected: 10, missed: 0, scheduled_out: 0, rounds: 10 },
            ClientParticipation { accepted: 3, rejected: 0, missed: 7, scheduled_out: 0, rounds: 10 },
        ];
        let report = analyze_with_participation(
            &outcome,
            &[0, 1, 2],
            Some(&part),
            &RobustnessConfig::default(),
        )
        .unwrap();
        assert_eq!(report.suspected_unreliable, vec![1, 2]);
        assert_eq!(report.clients[0].participation_rate, 1.0);
        assert_eq!(report.clients[1].participation_rate, 0.0);
        assert_eq!(report.clients[1].rejected_rounds, 10);
        assert!((report.clients[2].participation_rate - 0.3).abs() < 1e-12);
        // Length mismatch is a typed error.
        assert!(analyze_with_participation(
            &outcome,
            &[0, 1, 2],
            Some(&part[..2]),
            &RobustnessConfig::default()
        )
        .is_err());
        // An owner id outside the trace is a typed error, not a panic.
        let err = analyze(&outcome, &[0, 1, 5], &RobustnessConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter { name: "client_of", .. }), "{err}");
        // Without a record, nothing is flagged and rates default to 1.
        let plain = analyze(&outcome, &[0, 1, 2], &RobustnessConfig::default()).unwrap();
        assert!(plain.suspected_unreliable.is_empty());
        assert!(plain.clients.iter().all(|c| c.participation_rate == 1.0));
    }

    #[test]
    fn scheduled_out_rounds_do_not_count_against_the_rate() {
        let outcome = trace(vec![(1, 1, vec![3, 3, 3]), (0, 0, vec![2, 2, 2])], 3);
        let part = vec![
            // Sampled out half the time, accepted whenever scheduled: rate 1.
            ClientParticipation { accepted: 5, rejected: 0, missed: 0, scheduled_out: 5, rounds: 10 },
            // Never scheduled at all: rate guards to 1, never flagged.
            ClientParticipation { accepted: 0, rejected: 0, missed: 0, scheduled_out: 10, rounds: 10 },
            // Scheduled 5 times but only showed up twice: genuinely flaky.
            ClientParticipation { accepted: 2, rejected: 0, missed: 3, scheduled_out: 5, rounds: 10 },
        ];
        assert_eq!(part[0].rounds_scheduled(), 5);
        assert_eq!(part[0].rate(), 1.0);
        assert_eq!(part[1].rate(), 1.0);
        assert!((part[2].rate() - 0.4).abs() < 1e-12);
        let report = analyze_with_participation(
            &outcome,
            &[0, 1, 2],
            Some(&part),
            &RobustnessConfig::default(),
        )
        .unwrap();
        // Only the flaky client is suspect; scheduler decisions are not held
        // against the other two.
        assert_eq!(report.suspected_unreliable, vec![2]);
        assert_eq!(report.clients[0].participation_rate, 1.0);
        assert_eq!(report.clients[1].participation_rate, 1.0);
    }

    #[test]
    fn relative_change_clips_and_handles_zero() {
        assert_eq!(relative_change(0.0, 0.5), 0.0);
        assert!((relative_change(0.2, 0.3) - 0.5).abs() < 1e-9);
        assert_eq!(relative_change(0.2, 0.0), -1.0);
        assert_eq!(relative_change(0.1, 0.9), 1.0); // clipped
    }

    #[test]
    fn relative_change_near_zero_baselines_use_explicit_epsilon() {
        // Anything under the epsilon is "zero baseline" — including exact
        // zero, negative zero, and denormal cancellation residue.
        assert_eq!(relative_change(0.0, 1.0e6), 0.0);
        assert_eq!(relative_change(-0.0, -5.0), 0.0);
        assert_eq!(relative_change(RELATIVE_CHANGE_EPS / 2.0, 1.0), 0.0);
        assert_eq!(relative_change(-RELATIVE_CHANGE_EPS / 2.0, 1.0), 0.0);
        // Just above the epsilon, the ratio is live again (and clamped).
        assert_eq!(relative_change(RELATIVE_CHANGE_EPS * 2.0, 1.0), 1.0);
        // Negative baselines measure relative to their own sign.
        assert!((relative_change(-0.2, -0.3) - 0.5).abs() < 1e-9);
        assert!((relative_change(-0.2, -0.1) + 0.5).abs() < 1e-9);
    }

    fn sig(
        client: usize,
        delta_norm: f64,
        echo_dist: f64,
        peer: Option<(usize, f64, f64)>,
    ) -> UpdateSignature {
        let (nearest_peer, peer_dist, peer_cos) = match peer {
            Some((p, d, c)) => (Some(p), d, c),
            None => (None, f64::INFINITY, 0.0),
        };
        UpdateSignature { client, delta_norm, echo_dist, nearest_peer, peer_dist, peer_cos }
    }

    #[test]
    fn signature_analysis_flags_colluders_and_free_riders() {
        // 3 rounds, 5 clients: 1 and 3 submit identical copies every round,
        // 4 free-rides (zero delta in rounds 0/1, stale echo in round 2),
        // 0 and 2 are honest.
        let rounds: Vec<RoundSignatures> = (0..3)
            .map(|round| RoundSignatures {
                round,
                entries: vec![
                    sig(0, 1.0, 2.0, Some((2, 0.4, 0.2))),
                    sig(1, 1.1, 2.1, Some((3, 0.0, 1.0))),
                    sig(2, 0.9, 1.9, Some((0, 0.4, 0.2))),
                    sig(3, 1.1, 2.1, Some((1, 0.0, 1.0))),
                    if round < 2 {
                        sig(4, 0.0, 2.0, None)
                    } else {
                        sig(4, 1.0, 0.0, Some((0, 0.7, 0.1)))
                    },
                ],
            })
            .collect();
        let report = analyze_signatures(&rounds, 5).unwrap();
        assert_eq!(report.suspected_colluders, vec![1, 3]);
        assert_eq!(report.suspected_free_riders, vec![4]);
        assert_eq!(report.clients[1].copy_rounds, 3);
        assert_eq!(report.clients[1].copy_peers, vec![3]);
        assert_eq!(report.clients[3].copy_peers, vec![1]);
        assert_eq!(report.clients[4].free_ride_rounds, 3);
        assert_eq!(report.clients[0].copy_rounds, 0);
        assert_eq!(report.clients[0].free_ride_rounds, 0);
    }

    #[test]
    fn signature_analysis_honest_rounds_are_clean() {
        let rounds = vec![RoundSignatures {
            round: 0,
            entries: vec![
                sig(0, 1.0, 2.0, Some((1, 0.3, 0.5))),
                sig(1, 1.2, 2.2, Some((0, 0.3, 0.5))),
            ],
        }];
        let report = analyze_signatures(&rounds, 2).unwrap();
        assert!(report.suspected_colluders.is_empty());
        assert!(report.suspected_free_riders.is_empty());
        // Empty input: nothing to flag, stats all zero.
        let empty = analyze_signatures(&[], 3).unwrap();
        assert_eq!(empty.clients.len(), 3);
        assert!(empty.suspected_colluders.is_empty() && empty.suspected_free_riders.is_empty());
    }

    #[test]
    fn signature_analysis_converged_rounds_give_no_free_ride_signal() {
        // Every delta norm ~0: the round has no scale, so nobody is flagged
        // even though every norm is "tiny".
        let rounds = vec![RoundSignatures {
            round: 0,
            entries: vec![sig(0, 0.0, 0.0, None), sig(1, 1e-14, 1e-14, None)],
        }];
        let report = analyze_signatures(&rounds, 2).unwrap();
        assert!(report.suspected_free_riders.is_empty());
        assert_eq!(report.clients[0].free_ride_rounds, 0);
    }

    #[test]
    fn signature_analysis_rejects_out_of_range_clients() {
        let rounds =
            vec![RoundSignatures { round: 0, entries: vec![sig(7, 1.0, 1.0, None)] }];
        assert!(analyze_signatures(&rounds, 3).is_err());
    }

    // --- upload audit ---

    /// 8 rules: bits 0..4 support class 0, bits 4..8 class 1, unit weights.
    fn masks_and_weights() -> (Vec<Vec<u64>>, Vec<f64>) {
        let masks = vec![
            ActivationMatrix::build_mask(8, 0..4),
            ActivationMatrix::build_mask(8, 4..8),
        ];
        (masks, vec![1.0; 8])
    }

    /// An upload of `rows` class-`label` rows, each activating `bits`.
    fn upload(rows: usize, label: u32, bits: &[usize]) -> (ActivationMatrix, Vec<u32>) {
        let mut acts = ActivationMatrix::zeros(0, 8);
        for _ in 0..rows {
            let row: Vec<bool> = (0..8).map(|b| bits.contains(&b)).collect();
            acts.push_row(&row).unwrap();
        }
        (acts, vec![label; rows])
    }

    fn inputs<'a>(
        ups: &'a [(ActivationMatrix, Vec<u32>)],
        claimed_p: f64,
    ) -> Vec<UploadAuditInput<'a>> {
        ups.iter()
            .enumerate()
            .map(|(c, (acts, labels))| UploadAuditInput {
                client: c,
                activations: acts,
                labels,
                claimed_flip_probability: claimed_p,
            })
            .collect()
    }

    #[test]
    fn audit_flags_inflated_self_support() {
        let (masks, weights) = masks_and_weights();
        // Five honest clients activate 2 of their 4 class bits; client 5
        // claims all 8 bits on every row.
        let mut ups: Vec<_> = (0..5)
            .map(|i| {
                let label = (i % 2) as u32;
                let base = if label == 0 { 0 } else { 4 };
                upload(6, label, &[base, base + 1 + i % 3])
            })
            .collect();
        ups.push(upload(6, 0, &[0, 1, 2, 3, 4, 5, 6, 7]));
        let report =
            audit_uploads(&inputs(&ups, 0.0), &weights, &masks, None, &UploadAuditConfig::default())
                .unwrap();
        assert_eq!(report.suspected_inflators, vec![5]);
        assert!(report.flagged.contains(&5));
        assert!(report.profiles[5].self_support > report.profiles[0].self_support);
    }

    #[test]
    fn audit_feasibility_cap_catches_epsilon_abuse() {
        let (masks, weights) = masks_and_weights();
        // Claimed flip probability 0.2 caps honest observed self-support at
        // 0.8 (+ slack); a client at support 1.0 is infeasible even if the
        // whole (tiny) cohort can't form a z-score.
        let ups =
            vec![upload(5, 0, &[0, 1]), upload(5, 1, &[4, 5]), upload(5, 0, &[0, 1, 2, 3])];
        let report =
            audit_uploads(&inputs(&ups, 0.2), &weights, &masks, None, &UploadAuditConfig::default())
                .unwrap();
        assert_eq!(report.suspected_inflators, vec![2]);
        // Same uploads with no claimed privacy: cohort outlier logic only.
        let report0 =
            audit_uploads(&inputs(&ups, 0.0), &weights, &masks, None, &UploadAuditConfig::default())
                .unwrap();
        assert_eq!(report0.suspected_inflators, vec![2], "still a cohort outlier at p=0");
    }

    #[test]
    fn audit_flags_squatter_not_victim() {
        let (masks, weights) = masks_and_weights();
        // Victim 0 has 10 distinct rows (all supporting class 0); squatter 2
        // copies the first 6 of them; client 1 is honest and distinct.
        let victim_rows: [&[usize]; 10] = [
            &[0, 1],
            &[0, 2],
            &[0, 3],
            &[1, 2],
            &[1, 3],
            &[2, 3],
            &[0, 1, 2],
            &[0, 1, 3],
            &[0, 2, 3],
            &[1, 2, 3],
        ];
        let mut victim = ActivationMatrix::zeros(0, 8);
        let mut vlabels = Vec::new();
        for bits in victim_rows {
            let row: Vec<bool> = (0..8).map(|b| bits.contains(&b)).collect();
            victim.push_row(&row).unwrap();
            vlabels.push(0u32);
        }
        let mut squat = ActivationMatrix::zeros(0, 8);
        let mut slabels = Vec::new();
        for bits in &victim_rows[..6] {
            let row: Vec<bool> = (0..8).map(|b| bits.contains(&b)).collect();
            squat.push_row(&row).unwrap();
            slabels.push(0u32);
        }
        let honest = upload(8, 1, &[4, 6]);
        let ups = vec![(victim, vlabels), honest, (squat, slabels)];
        let report =
            audit_uploads(&inputs(&ups, 0.0), &weights, &masks, None, &UploadAuditConfig::default())
                .unwrap();
        assert_eq!(report.suspected_squatters, vec![2]);
        assert!(report.profiles[2].peer_match_frac >= 0.9);
        assert_eq!(report.profiles[2].matched_peer, Some(0));
        // The victim's own containment in the squatter is only 6/10.
        assert!(report.profiles[0].peer_match_frac < 0.9);
    }

    #[test]
    fn audit_mutual_mimicry_tie_broken_by_duplicate_excess() {
        let (masks, weights) = masks_and_weights();
        // Victim 0 has 4 distinct rows; squatter 1 cyclically refills those
        // 4 rows to 8 (every key duplicated beyond the victim's counts).
        let mut victim = ActivationMatrix::zeros(0, 8);
        let mut vlabels = Vec::new();
        for r in 0..4 {
            let row: Vec<bool> = (0..8).map(|b| b == r).collect();
            victim.push_row(&row).unwrap();
            vlabels.push(0u32);
        }
        let mut squat = ActivationMatrix::zeros(0, 8);
        let mut slabels = Vec::new();
        for r in 0..8 {
            let row: Vec<bool> = (0..8).map(|b| b == r % 4).collect();
            squat.push_row(&row).unwrap();
            slabels.push(0u32);
        }
        let honest = upload(8, 1, &[5, 7]);
        let ups = vec![(victim, vlabels), (squat, slabels), honest];
        let report =
            audit_uploads(&inputs(&ups, 0.0), &weights, &masks, None, &UploadAuditConfig::default())
                .unwrap();
        // Both ends match fully, but only the squatter shows excess copies.
        assert_eq!(report.profiles[0].peer_match_frac, 1.0);
        assert_eq!(report.profiles[1].peer_match_frac, 1.0);
        assert_eq!(report.suspected_squatters, vec![1]);
    }

    #[test]
    fn audit_flags_label_gamer() {
        let (masks, weights) = masks_and_weights();
        // Client 3 relabels class-0-supported rows as class 1.
        let ups = vec![
            upload(6, 0, &[0, 1]),
            upload(6, 1, &[4, 5]),
            upload(6, 0, &[1, 2]),
            upload(6, 1, &[0, 1]), // activations support class 0, labeled 1
        ];
        let report =
            audit_uploads(&inputs(&ups, 0.0), &weights, &masks, None, &UploadAuditConfig::default())
                .unwrap();
        assert_eq!(report.suspected_label_gamers, vec![3]);
        assert_eq!(report.profiles[3].label_incoherence, 1.0);
        assert_eq!(report.profiles[0].label_incoherence, 0.0);
    }

    #[test]
    fn audit_row_budget_accounting() {
        let (masks, weights) = masks_and_weights();
        let ups = vec![upload(5, 0, &[0, 1]), upload(9, 1, &[4, 5]), upload(5, 0, &[1, 2])];
        let declared = vec![5usize, 5, 5];
        let report = audit_uploads(
            &inputs(&ups, 0.0),
            &weights,
            &masks,
            Some(&declared),
            &UploadAuditConfig::default(),
        )
        .unwrap();
        assert_eq!(report.suspected_budget_violators, vec![1]);
        assert_eq!(report.profiles[1].declared_rows, Some(5));
        // Without declarations nothing is checked.
        let none =
            audit_uploads(&inputs(&ups, 0.0), &weights, &masks, None, &UploadAuditConfig::default())
                .unwrap();
        assert!(none.suspected_budget_violators.is_empty());
    }

    #[test]
    fn audit_honest_cohort_is_clean_and_validation_errors_are_typed() {
        let (masks, weights) = masks_and_weights();
        let ups = vec![
            upload(6, 0, &[0, 1]),
            upload(7, 1, &[4, 5]),
            upload(5, 0, &[1, 2]),
            upload(6, 1, &[5, 6]),
        ];
        let declared = vec![6usize, 7, 5, 6];
        let report = audit_uploads(
            &inputs(&ups, 0.0),
            &weights,
            &masks,
            Some(&declared),
            &UploadAuditConfig::default(),
        )
        .unwrap();
        assert!(report.flagged.is_empty(), "honest cohort flagged: {:?}", report.flagged);
        // Duplicate client ids rejected.
        let mut dup = inputs(&ups, 0.0);
        dup[1].client = 0;
        assert!(audit_uploads(&dup, &weights, &masks, None, &UploadAuditConfig::default()).is_err());
        // Label out of range rejected.
        let bad = vec![upload(3, 7, &[0])];
        assert!(audit_uploads(&inputs(&bad, 0.0), &weights, &masks, None, &UploadAuditConfig::default())
            .is_err());
        // Missing declaration rejected.
        assert!(audit_uploads(
            &inputs(&ups, 0.0),
            &weights,
            &masks,
            Some(&declared[..2]),
            &UploadAuditConfig::default()
        )
        .is_err());
        // A claimed flip probability outside [0, 0.5) rejected: it would
        // move the feasibility cap and every client's incoherence margin.
        for claim in [f64::NAN, -3.0, 5.0, 0.5] {
            let mut bad_claim = inputs(&ups, 0.0);
            bad_claim[3].claimed_flip_probability = claim;
            assert!(
                matches!(
                    audit_uploads(&bad_claim, &weights, &masks, None, &UploadAuditConfig::default()),
                    Err(CoreError::InvalidParameter { name: "claimed_flip_probability", .. })
                ),
                "claim {claim} accepted"
            );
        }
        // Class masks of the wrong word count: one word for 70 rules is too
        // short, two words for 8 rules too long.
        let wide = vec![(ActivationMatrix::zeros(3, 70), vec![0u32; 3])];
        for (uploads, weights, expected, actual) in
            [(&wide, vec![1.0; 70], 2, 1), (&ups, vec![1.0; 8], 1, 2)]
        {
            let masks = vec![vec![u64::MAX; actual]; 2];
            assert_eq!(
                audit_uploads(
                    &inputs(uploads, 0.0),
                    &weights,
                    &masks,
                    None,
                    &UploadAuditConfig::default()
                ),
                Err(CoreError::LengthMismatch { what: "class mask words", expected, actual })
            );
        }
        // A NaN, infinite or negative rule weight is refused, as
        // `RuleModel::new` refuses it.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut bad_weights = weights.clone();
            bad_weights[5] = bad;
            assert!(
                matches!(
                    audit_uploads(
                        &inputs(&ups, 0.0),
                        &bad_weights,
                        &masks,
                        None,
                        &UploadAuditConfig::default()
                    ),
                    Err(CoreError::InvalidParameter { name: "rule.weight", .. })
                ),
                "weight {bad} accepted"
            );
        }
    }

    /// The pairwise containment scan the inverted index replaced, kept as
    /// its oracle. The one change: an upload no peer shares a key with gets
    /// no matched peer. Returns each upload's `(peer_match_frac,
    /// matched_peer, duplicate_excess)`.
    fn containment_reference(uploads: &[UploadAuditInput<'_>]) -> Vec<(f64, Option<usize>, usize)> {
        let keys: Vec<HashMap<(u64, u32), u32>> = uploads
            .iter()
            .map(|up| {
                let mut map = HashMap::new();
                for r in 0..up.activations.n_rows() {
                    *map.entry((up.activations.row_signature(r), up.labels[r])).or_insert(0) += 1;
                }
                map
            })
            .collect();
        let n = uploads.len();
        (0..n)
            .map(|i| {
                let rows = uploads[i].activations.n_rows();
                if rows == 0 {
                    return (0.0, None, 0);
                }
                let mut best: Option<(f64, usize)> = None;
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let matched: u32 = keys[i]
                        .iter()
                        .filter(|(k, _)| keys[j].contains_key(k))
                        .map(|(_, &cnt)| cnt)
                        .sum();
                    let frac = matched as f64 / rows as f64;
                    if best.is_none_or(|(bf, _)| frac > bf) {
                        best = Some((frac, j));
                    }
                }
                match best {
                    Some((frac, j)) if frac > 0.0 => {
                        let excess: u32 = keys[i]
                            .iter()
                            .filter(|(k, _)| keys[j].contains_key(k))
                            .map(|(k, &cnt)| cnt.saturating_sub(*keys[j].get(k).unwrap_or(&0)))
                            .sum();
                        (frac, Some(uploads[j].client), excess as usize)
                    }
                    _ => (0.0, None, 0),
                }
            })
            .collect()
    }

    /// A random cohort for the containment property: one-word rows of 8–16
    /// bits, so most keys are shared and peers tie. Entries are `(client,
    /// row words, labels)`.
    #[derive(Debug)]
    struct ContainmentCase {
        n_bits: usize,
        uploads: Vec<(usize, Vec<u64>, Vec<u32>)>,
    }

    fn containment_case(g: &mut ctfl_testkit::Gen) -> ContainmentCase {
        let n_bits = g.usize_in(8, 16);
        let n = g.len_in(1, 12);
        // Client ids: a shuffle of 0..2n, so they differ from positions.
        let mut clients: Vec<usize> = (0..2 * n).collect();
        for i in (1..clients.len()).rev() {
            clients.swap(i, g.usize_in(0, i));
        }
        let mut uploads: Vec<(usize, Vec<u64>, Vec<u32>)> = Vec::with_capacity(n);
        for &client in &clients[..n] {
            let (mut rows, mut labels) = (Vec::new(), Vec::new());
            if !uploads.is_empty() && g.usize_in(0, 3) == 0 {
                // Squatter: cyclically copies a victim's rows, keys and all.
                let (_, vrows, vlabels) = &uploads[g.usize_in(0, uploads.len() - 1)];
                for r in 0..g.len_in(0, 2 * vrows.len()) {
                    rows.push(vrows[r % vrows.len()]);
                    labels.push(vlabels[r % vrows.len()]);
                }
            } else {
                let sparsity = g.usize_in(0, 2);
                for _ in 0..g.len_in(0, 10) {
                    let mut word = g.usize_in(0, (1 << n_bits) - 1) as u64;
                    for _ in 0..sparsity {
                        word &= g.usize_in(0, (1 << n_bits) - 1) as u64;
                    }
                    rows.push(word);
                    labels.push(g.u32_in(0, 1));
                }
                // Duplicated rows.
                for _ in 0..g.len_in(0, rows.len()) {
                    let r = g.usize_in(0, rows.len() - 1);
                    rows.push(rows[r]);
                    labels.push(labels[r]);
                }
            }
            uploads.push((client, rows, labels));
        }
        ContainmentCase { n_bits, uploads }
    }

    #[test]
    fn inverted_index_containment_matches_the_pairwise_scan() {
        use ctfl_testkit::{check, prop_assert_eq};
        check("inverted_index_containment", 400, containment_case, |case| {
            let n_bits = case.n_bits;
            let matrices: Vec<ActivationMatrix> = case
                .uploads
                .iter()
                .map(|(_, rows, _)| {
                    ActivationMatrix::from_words(rows.len(), n_bits, rows.clone()).unwrap()
                })
                .collect();
            let inputs: Vec<UploadAuditInput<'_>> = case
                .uploads
                .iter()
                .zip(&matrices)
                .map(|((client, _, labels), acts)| UploadAuditInput {
                    client: *client,
                    activations: acts,
                    labels,
                    claimed_flip_probability: 0.0,
                })
                .collect();
            let masks = vec![
                ActivationMatrix::build_mask(n_bits, 0..n_bits / 2),
                ActivationMatrix::build_mask(n_bits, n_bits / 2..n_bits),
            ];
            let report = audit_uploads(
                &inputs,
                &vec![1.0; n_bits],
                &masks,
                None,
                &UploadAuditConfig::default(),
            )
            .map_err(|e| e.to_string())?;
            for (p, (frac, peer, excess)) in
                report.profiles.iter().zip(containment_reference(&inputs))
            {
                prop_assert_eq!(p.peer_match_frac.to_bits(), frac.to_bits());
                prop_assert_eq!(p.matched_peer, peer);
                prop_assert_eq!(p.duplicate_excess, excess);
            }
            Ok(())
        });
    }

    /// SplitMix64: a fixed stream for the golden cohorts, independent of
    /// every crate's RNG.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A seeded cohort of `n` uploads over `n_bits` rules and 3 classes,
    /// each bit set with probability `percent`/100. Every 10th upload
    /// inflates its rows to the whole label mask, the second after it squats
    /// on the honest upload before it (90% of its rows, cyclically refilled
    /// to 1.5×), and the next pads itself with its own rows beyond its
    /// declaration.
    /// Client ids run backwards, so they differ from upload positions.
    #[allow(clippy::type_complexity)]
    fn golden_cohort(
        seed: u64,
        n: usize,
        n_bits: usize,
        percent: usize,
    ) -> (Vec<f64>, Vec<Vec<u64>>, Vec<(usize, ActivationMatrix, Vec<u32>, f64)>, Vec<usize>) {
        let mut rng = Mix(seed);
        let weights: Vec<f64> =
            (0..n_bits).map(|_| 0.5 + rng.below(1000) as f64 / 1000.0).collect();
        let class_of: Vec<usize> = (0..n_bits).map(|_| rng.below(3)).collect();
        let masks: Vec<Vec<u64>> = (0..3)
            .map(|c| {
                ActivationMatrix::build_mask(n_bits, (0..n_bits).filter(|&b| class_of[b] == c))
            })
            .collect();
        let mut ups: Vec<(usize, ActivationMatrix, Vec<u32>, f64)> = Vec::new();
        let mut declared = vec![0; n];
        for u in 0..n {
            let client = n - 1 - u;
            let p = [0.0, 0.1, 0.2][rng.below(3)];
            let (mut acts, mut labels) = (ActivationMatrix::zeros(0, n_bits), Vec::new());
            let row_of = |acts: &ActivationMatrix, r: usize| -> Vec<bool> {
                (0..n_bits).map(|b| acts.get(r, b)).collect()
            };
            match (u % 10, ups.last()) {
                (5, Some((_, victim, vlabels, _))) if victim.n_rows() > 0 => {
                    let keep = (victim.n_rows() * 9).div_ceil(10);
                    for r in 0..keep * 3 / 2 {
                        acts.push_row(&row_of(victim, r % keep)).unwrap();
                        labels.push(vlabels[r % keep]);
                    }
                    declared[client] = acts.n_rows();
                }
                _ => {
                    for _ in 0..rng.below(40) {
                        let label = rng.below(3);
                        let row: Vec<bool> = (0..n_bits)
                            .map(|b| {
                                rng.below(100) < percent || (u % 10 == 3 && class_of[b] == label)
                            })
                            .collect();
                        acts.push_row(&row).unwrap();
                        labels.push(label as u32);
                    }
                    declared[client] = acts.n_rows();
                    if u % 10 == 6 {
                        for r in 0..acts.n_rows() {
                            let row = row_of(&acts, r);
                            acts.push_row(&row).unwrap();
                            labels.push(labels[r]);
                        }
                    }
                }
            }
            ups.push((client, acts, labels, p));
        }
        (weights, masks, ups, declared)
    }

    /// FNV-1a over every field of the report, `f64`s by bits. A matched
    /// peer is hashed only where something matched.
    fn report_hash(report: &UploadAuditReport) -> u64 {
        fn eat(h: &mut u64, x: u64) {
            for b in x.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for p in &report.profiles {
            for x in [
                p.client as u64,
                p.rows as u64,
                p.declared_rows.map_or(u64::MAX, |d| d as u64),
                p.mean_density.to_bits(),
                p.self_support.to_bits(),
                p.label_incoherence.to_bits(),
                p.incoherence_excess.to_bits(),
                p.peer_match_frac.to_bits(),
                p.duplicate_excess as u64,
            ] {
                eat(&mut h, x);
            }
            if p.peer_match_frac > 0.0 {
                eat(&mut h, p.matched_peer.map_or(u64::MAX, |c| c as u64));
            }
        }
        for list in [
            &report.suspected_inflators,
            &report.suspected_squatters,
            &report.suspected_label_gamers,
            &report.suspected_budget_violators,
            &report.flagged,
        ] {
            eat(&mut h, list.len() as u64);
            for &c in list {
                eat(&mut h, c as u64);
            }
        }
        h
    }

    /// Goldens captured from the pairwise containment scan, before the
    /// inverted index replaced it.
    #[test]
    fn audit_report_matches_its_pairwise_scan_golden() {
        for (seed, n, n_bits, percent, golden) in [
            (0xA0D1, 300, 230, 10, 0x21c6_da8c_5fd4_c5e3u64),
            (0xA0D2, 240, 8, 30, 0x8630_2667_ccd1_be99),
        ] {
            let (weights, masks, ups, declared) = golden_cohort(seed, n, n_bits, percent);
            let inputs: Vec<UploadAuditInput<'_>> = ups
                .iter()
                .map(|(client, acts, labels, p)| UploadAuditInput {
                    client: *client,
                    activations: acts,
                    labels,
                    claimed_flip_probability: *p,
                })
                .collect();
            let report = audit_uploads(
                &inputs,
                &weights,
                &masks,
                Some(&declared),
                &UploadAuditConfig::default(),
            )
            .unwrap();
            let planted = [
                &report.suspected_inflators,
                &report.suspected_squatters,
                &report.suspected_budget_violators,
            ];
            assert!(planted.iter().all(|l| !l.is_empty()), "each planted attack family is flagged");
            assert_eq!(report_hash(&report), golden, "n_bits {n_bits}");
        }
    }

    #[test]
    fn cross_check_names_free_riders_with_claimed_uploads() {
        let (masks, weights) = masks_and_weights();
        let ups = vec![upload(6, 0, &[0, 1]), upload(6, 1, &[4, 5]), upload(6, 0, &[1, 2])];
        let audit =
            audit_uploads(&inputs(&ups, 0.0), &weights, &masks, None, &UploadAuditConfig::default())
                .unwrap();
        let signatures = SignatureReport {
            clients: vec![ClientSignatureStats::default(); 3],
            suspected_colluders: vec![],
            suspected_free_riders: vec![1],
        };
        assert_eq!(cross_check_uploads(&audit, &signatures), vec![1]);
        // A free-rider with an empty upload claims nothing.
        let empty_sig = SignatureReport {
            clients: vec![ClientSignatureStats::default(); 3],
            suspected_colluders: vec![],
            suspected_free_riders: vec![],
        };
        assert!(cross_check_uploads(&audit, &empty_sig).is_empty());
    }

    #[test]
    fn consistency_flags_high_dispersion_client() {
        // Client 3's score swings across runs; the rest are stable.
        let runs = vec![
            vec![0.30, 0.25, 0.20, 0.60, 0.22],
            vec![0.31, 0.24, 0.21, 0.05, 0.23],
            vec![0.29, 0.26, 0.19, 0.70, 0.21],
        ];
        let report = score_consistency(&runs).unwrap();
        assert_eq!(report.suspected_inconsistent, vec![3]);
        assert!(report.dispersion[3] > report.dispersion[0]);
        // Stable runs flag nobody.
        let stable = vec![vec![0.3, 0.2, 0.1], vec![0.3, 0.2, 0.1]];
        let clean = score_consistency(&stable).unwrap();
        assert!(clean.suspected_inconsistent.is_empty());
        assert_eq!(clean.mean, vec![0.3, 0.2, 0.1]);
        // Validation: need >= 2 equal-length runs.
        assert!(score_consistency(&[]).is_err());
        assert!(score_consistency(&[vec![1.0]]).is_err());
        assert!(score_consistency(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn slashing_confiscates_and_redistributes() {
        let scores = vec![0.4, 0.3, 0.2, 0.1];
        let out = slash_scores(&scores, &[3]).unwrap();
        assert_eq!(out[3], 0.0);
        let total_before: f64 = scores.iter().sum();
        let total_after: f64 = out.iter().sum();
        assert!((total_before - total_after).abs() < 1e-12, "redistribution preserves the total");
        // Pro-rata: client 0 gains twice what client 2 gains.
        assert!((out[0] - 0.4 - 2.0 * (out[2] - 0.2)).abs() < 1e-12);
        // Negative scores are not slashed below themselves.
        let neg = slash_scores(&[-0.1, 0.5], &[0]).unwrap();
        assert_eq!(neg, vec![-0.1, 0.5]);
        // Everyone flagged: pot has nowhere to go, scores zero out.
        let all = slash_scores(&scores, &[0, 1, 2, 3]).unwrap();
        assert_eq!(all, vec![0.0; 4]);
        // Typed errors.
        assert!(slash_scores(&scores, &[9]).is_err());
    }
}
