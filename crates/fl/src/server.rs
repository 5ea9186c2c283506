//! The federation server: weighted parameter aggregation, plus the service
//! runtime that multiplexes whole federations.
//!
//! The bottom half of this module is the original server primitive —
//! [`aggregate`] / [`aggregate_into`], FedAvg's data-size-weighted mean.
//! On top of it sits the service layer:
//!
//! * `SessionStore` — the service state that survives disconnects: a
//!   bounded registry of finished jobs keyed by *client-chosen* job id,
//!   plus aggregation sessions. Every job carries its own seed, and the
//!   registry remembers each finished job's reply: re-submitting an id with
//!   the same spec bytes replays it, re-submitting with different bytes is
//!   a typed `DuplicateJob`, and polling an id that aged out of the bounded
//!   store a typed `Expired` — graceful degradation, never a panic. A client
//!   that reconnects can resume an open session
//!   ([`Message::ResumeSession`] → [`Message::SessionStatus`]) or fetch a
//!   completed round / job result it never saw the reply for.
//! * [`FederationService`] — the store's only owner. It executes jobs
//!   through [`crate::engine::FederationEngine`] sessions, one at a time
//!   ([`FederationService::execute_job`]) or multiplexed over a
//!   scoped-thread worker pool ([`FederationService::run_jobs`]), with
//!   bit-identical results either way: engines share no mutable state, and
//!   each worker runs one contiguous run of the batch whose results are
//!   joined in batch order, whatever order the workers finish in. Job size
//!   is bounded ([`MAX_JOB_WORK`]), so no request can make the service
//!   allocate or train without limit.
//! * Wire dispatch — [`FederationService::handle_message`] maps each
//!   decoded [`Message`] to its reply, and [`FederationService::serve`]
//!   pumps frames over any `Read`/`Write` transport until shutdown, clean
//!   EOF, or an idle read deadline ([`ServeEnd::IdleReaped`] — how
//!   `ctfl-server` sheds half-open connections). Corrupt frames get a typed
//!   [`crate::wire::RejectCode::BadFrame`] reply; the connection survives.
//!   One service serves its connections one at a time, so a submitted job
//!   finishes before any other request is answered and every record in the
//!   registry is a finished job.

use ctfl_core::data::{Dataset, FeatureKind, FeatureSchema};
use ctfl_core::error::{CoreError, Result};
use ctfl_core::parallel::map_chunks;
use ctfl_nn::net::LogicalNetConfig;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;

use crate::adversary::{AdversaryPlan, AttackKind};
use crate::aggregate::{Aggregator, CoordinateMedian, MultiKrum, TrimmedMean, WeightedFedAvg};
use crate::engine::FederationEngine;
use crate::faults::{CorruptionKind, FaultPlan, FaultSpec};
use crate::fedavg::{ByzantineSetup, FlConfig};
use crate::guard::GuardConfig;
use crate::schedule::Schedule;
use crate::topology::Topology;
use crate::wire::{self, JobSpec, Message, RejectCode, WireError, WireResult};

/// Aggregates client parameter vectors by FedAvg's data-size-weighted mean:
/// `θ = Σ_i (n_i / Σ_j n_j) · θ_i`.
///
/// Every vector must be entirely finite: a single NaN or infinity would
/// silently poison the global model, so non-finite inputs are rejected with
/// [`CoreError::NonFinite`] naming the offending client index. (The round
/// guard filters these earlier; this is the server's last line of defence.)
///
/// Returns the aggregated vector.
pub fn aggregate(client_params: &[Vec<f32>], weights: &[usize]) -> Result<Vec<f32>> {
    let mut out = Vec::new();
    aggregate_into(client_params, weights, &mut out)?;
    Ok(out)
}

/// [`aggregate`] into a caller-owned buffer (cleared first), so the FedAvg
/// round loop reuses one output vector across rounds. Accumulation stays in
/// `f64` — results are bit-identical to [`aggregate`].
pub fn aggregate_into(
    client_params: &[Vec<f32>],
    weights: &[usize],
    out: &mut Vec<f32>,
) -> Result<()> {
    let dim = crate::aggregate::validate_updates(client_params, weights)?;
    let total: f64 = weights.iter().map(|&w| w as f64).sum();
    if total <= 0.0 {
        return Err(CoreError::InvalidParameter {
            name: "weights",
            message: "total weight must be positive".into(),
        });
    }
    let mut acc = vec![0.0f64; dim];
    for (params, &w) in client_params.iter().zip(weights) {
        let frac = w as f64 / total;
        for (o, &p) in acc.iter_mut().zip(params) {
            *o += frac * f64::from(p);
        }
    }
    out.clear();
    out.extend(acc.into_iter().map(|v| v as f32));
    Ok(())
}

// ---- service fingerprints ----------------------------------------------

/// FNV-1a over raw bytes — the service's result fingerprint.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over the little-endian bit patterns of a parameter vector.
pub fn fnv1a_bits(values: &[f32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---- job registry ------------------------------------------------------

/// A finished job's deterministic fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Id of the job.
    pub job: u32,
    /// FNV-1a over the trained global parameter bits.
    pub params_hash: u64,
    /// FNV-1a over the rendered federation log.
    pub log_hash: u64,
    /// Rounds the federation committed.
    pub rounds: u32,
    /// Training accuracy of the final global model on the job's pooled
    /// workload.
    pub accuracy: f64,
}

/// Finished job results the store retains for poll and replay.
const MAX_FINISHED_JOBS: usize = 256;

/// Aggregation sessions (open and completed) the store retains at once.
const MAX_SESSIONS: usize = 64;

/// Evicted ids each eviction ring remembers, so they answer as expired,
/// not unknown.
const MAX_EVICTED: usize = 1024;

/// Fixed-capacity ring remembering the last [`MAX_EVICTED`] ids evicted
/// from a bounded store, so a lookup can answer "expired" instead of
/// "never existed".
#[derive(Debug, Default)]
struct EvictRing {
    ids: VecDeque<u32>,
}

impl EvictRing {
    fn push(&mut self, id: u32) {
        if self.ids.len() == MAX_EVICTED {
            self.ids.pop_front();
        }
        self.ids.push_back(id);
    }

    fn contains(&self, id: u32) -> bool {
        self.ids.contains(&id)
    }
}

#[derive(Debug)]
struct JobRecord {
    /// The spec's canonical wire bytes — the idempotency identity (bit-exact
    /// even for NaN fields that defeat `PartialEq`).
    spec_bytes: Vec<u8>,
    /// The job's reply — [`Message::JobDone`], or the `Invalid` rejection
    /// rendering its error — replayed to re-submissions and polls.
    reply: Message,
}

/// A bounded registry of finished jobs keyed by *client-chosen* job id.
/// Records are retained (at most [`MAX_FINISHED_JOBS`]) so a retrying or
/// reconnecting client can recover a reply it never saw; evicted ids are
/// remembered in a ring so they answer as expired, not unknown.
#[derive(Debug, Default)]
struct JobRegistry {
    records: HashMap<u32, JobRecord>,
    finished: VecDeque<u32>,
    evicted: EvictRing,
}

impl JobRegistry {
    /// The record of `job`, or why there is none: `Expired` if it aged out
    /// of the bounded store, `UnknownJob` if it was never submitted.
    fn lookup(&self, job: u32) -> std::result::Result<&JobRecord, RejectCode> {
        match self.records.get(&job) {
            Some(rec) => Ok(rec),
            None if self.evicted.contains(job) => Err(RejectCode::Expired),
            None => Err(RejectCode::UnknownJob),
        }
    }

    /// Records a fresh job id's outcome. Overflow beyond the retention
    /// bound evicts the oldest record into the expired ring.
    fn record(&mut self, job: u32, record: JobRecord) {
        self.records.insert(job, record);
        self.finished.push_back(job);
        if self.finished.len() > MAX_FINISHED_JOBS {
            if let Some(old) = self.finished.pop_front() {
                self.records.remove(&old);
                self.evicted.push(old);
            }
        }
    }
}

/// A job registry refusal — `DuplicateJob`, `UnknownJob` or `Expired` — as
/// a typed wire rejection.
fn job_reject(code: RejectCode, job: u32) -> Message {
    let detail = match code {
        RejectCode::DuplicateJob => {
            format!("job {job} was already submitted with a different spec")
        }
        RejectCode::Expired => format!("job {job} aged out of the bounded result store"),
        _ => format!("job {job} was never submitted"),
    };
    Message::Reject { code, detail }
}

// ---- session store -----------------------------------------------------

/// One wire-level aggregation round: raw parameter uploads collected per
/// client until every expected participant has reported, then the fused
/// result cached for replay and resumption.
#[derive(Debug)]
struct AggregationSession {
    n_clients: u32,
    dim: usize,
    /// One slot per client; a conflicting second upload is rejected rather
    /// than silently replaced, a bit-identical one replayed.
    updates: Vec<Option<(Vec<f32>, u32)>>,
    /// `Some` once every slot filled: the fused vector, or the rendered
    /// aggregation error.
    fused: Option<std::result::Result<Vec<f32>, String>>,
}

/// Session-level acknowledgements ([`Message::OpenSession`] replies) use
/// this in [`Message::Ack`]'s `client` field — no real client id can
/// collide with it because sessions are capped far below `u32::MAX`.
pub const SESSION_ACK: u32 = u32::MAX;

/// Most participants one aggregation session may expect. The largest
/// session any caller opens has 8; a bigger request is refused before its
/// per-client slot table is allocated.
pub const MAX_SESSION_CLIENTS: u32 = 65_536;

/// The service state that must *survive disconnects*: the job registry and
/// the aggregation sessions. A [`FederationService`] owns one and serves
/// every connection from it, so a client that reconnects can resume its
/// session or poll a result by job id. Everything the store retains is
/// capped, so a hostile or forgetful client degrades service into typed
/// `Busy`/`Expired` rejections instead of unbounded memory.
#[derive(Debug, Default)]
pub(crate) struct SessionStore {
    jobs: JobRegistry,
    sessions: HashMap<u32, AggregationSession>,
    completed_order: VecDeque<u32>,
    evicted_sessions: EvictRing,
}

impl SessionStore {
    /// Handles [`Message::OpenSession`]: registers the round, idempotently
    /// re-acknowledges an existing session of the same shape, and degrades
    /// into typed `Busy` when the bounded table is full of open sessions.
    pub fn open_session(&mut self, session: u32, n_clients: u32, dim: u32) -> Message {
        if n_clients == 0 || dim == 0 {
            return Message::Reject {
                code: RejectCode::Invalid,
                detail: format!("session {session}: need at least one client and one parameter"),
            };
        }
        if n_clients > MAX_SESSION_CLIENTS {
            return Message::Reject {
                code: RejectCode::Invalid,
                detail: format!(
                    "session {session}: {n_clients} clients exceeds the limit of \
                     {MAX_SESSION_CLIENTS}"
                ),
            };
        }
        if let Some(existing) = self.sessions.get(&session) {
            if existing.n_clients == n_clients && existing.dim == dim as usize {
                // Idempotent replay: the original ack was likely lost.
                return Message::Ack { session, client: SESSION_ACK };
            }
            return Message::Reject {
                code: RejectCode::Invalid,
                detail: format!(
                    "session {session} already open with a different shape \
                     ({} clients × {} params)",
                    existing.n_clients, existing.dim
                ),
            };
        }
        if self.evicted_sessions.contains(session) {
            return Message::Reject {
                code: RejectCode::Expired,
                detail: format!("session {session} aged out of the bounded session store"),
            };
        }
        if self.sessions.len() >= MAX_SESSIONS {
            // Prefer evicting the oldest *completed* round over refusing.
            if let Some(old) = self.completed_order.pop_front() {
                self.sessions.remove(&old);
                self.evicted_sessions.push(old);
            } else {
                return Message::Reject {
                    code: RejectCode::Busy,
                    detail: format!(
                        "session table full with {} open sessions",
                        self.sessions.len()
                    ),
                };
            }
        }
        self.sessions.insert(
            session,
            AggregationSession {
                n_clients,
                dim: dim as usize,
                updates: vec![None; n_clients as usize],
                fused: None,
            },
        );
        Message::Ack { session, client: SESSION_ACK }
    }

    /// Handles [`Message::SubmitUpdate`]: records an upload, replays the
    /// original reply for a bit-identical re-submission (open *or*
    /// completed session — a retry after a lost ack or a lost
    /// round-complete), and types every refusal.
    pub fn submit_update(
        &mut self,
        session: u32,
        client: u32,
        weight: u32,
        params: Vec<f32>,
    ) -> Message {
        let Some(open) = self.sessions.get_mut(&session) else {
            return if self.evicted_sessions.contains(session) {
                Message::Reject {
                    code: RejectCode::Expired,
                    detail: format!("session {session} aged out of the bounded session store"),
                }
            } else {
                Message::Reject {
                    code: RejectCode::UnknownSession,
                    detail: format!("session {session} is not open"),
                }
            };
        };
        let c = client as usize;
        if c >= open.updates.len() {
            return Message::Reject {
                code: RejectCode::Invalid,
                detail: format!("client {client} outside session of {}", open.updates.len()),
            };
        }
        if let Some(fused) = &open.fused {
            // The round already completed. A bit-identical re-submission is
            // a retry of a reply the client lost: replay the completion.
            let Some((stored, stored_w)) = &open.updates[c] else {
                return Message::Reject {
                    code: RejectCode::Invalid,
                    detail: format!("client {client} never reported in completed session {session}"),
                };
            };
            if *stored_w == weight && bits_equal(stored, &params) {
                return match fused {
                    Ok(p) => Message::RoundComplete { session, params: p.clone() },
                    Err(d) => Message::Reject { code: RejectCode::Invalid, detail: d.clone() },
                };
            }
            return Message::Reject {
                code: RejectCode::DuplicateUpdate,
                detail: format!(
                    "client {client} already reported different bytes in completed session \
                     {session}"
                ),
            };
        }
        if params.len() != open.dim {
            return Message::Reject {
                code: RejectCode::Invalid,
                detail: CoreError::LengthMismatch {
                    what: "update parameters",
                    expected: open.dim,
                    actual: params.len(),
                }
                .to_string(),
            };
        }
        if params.iter().any(|p| !p.is_finite()) {
            return Message::Reject {
                code: RejectCode::Invalid,
                detail: CoreError::NonFinite { what: "client parameter vector", index: c }
                    .to_string(),
            };
        }
        if let Some((stored, stored_w)) = &open.updates[c] {
            if *stored_w == weight && bits_equal(stored, &params) {
                // Idempotent replay of a recorded (non-completing) upload.
                return Message::Ack { session, client };
            }
            return Message::Reject {
                code: RejectCode::DuplicateUpdate,
                detail: format!("client {client} already reported in session {session}"),
            };
        }
        open.updates[c] = Some((params, weight));
        if !open.updates.iter().all(Option::is_some) {
            return Message::Ack { session, client };
        }
        // Final update: fuse, cache for replay/resumption, keep the session.
        let mut vectors = Vec::with_capacity(open.updates.len());
        let mut weights = Vec::with_capacity(open.updates.len());
        for slot in &open.updates {
            let (p, w) = slot.as_ref().expect("all slots filled");
            vectors.push(p.clone());
            weights.push(*w as usize);
        }
        let fused = aggregate(&vectors, &weights).map_err(|e| e.to_string());
        let reply = match &fused {
            Ok(p) => Message::RoundComplete { session, params: p.clone() },
            Err(d) => Message::Reject { code: RejectCode::Invalid, detail: d.clone() },
        };
        open.fused = Some(fused);
        self.completed_order.push_back(session);
        reply
    }

    /// Handles [`Message::ResumeSession`]: an open session answers with its
    /// progress ([`Message::SessionStatus`]), a completed one replays the
    /// fused round, and a missing one types out as unknown or expired.
    pub fn resume_session(&self, session: u32) -> Message {
        match self.sessions.get(&session) {
            Some(s) => match &s.fused {
                None => Message::SessionStatus {
                    session,
                    n_clients: s.n_clients,
                    dim: s.dim as u32,
                    received: s
                        .updates
                        .iter()
                        .enumerate()
                        .filter_map(|(i, u)| u.as_ref().map(|_| i as u32))
                        .collect(),
                },
                Some(Ok(p)) => Message::RoundComplete { session, params: p.clone() },
                Some(Err(d)) => {
                    Message::Reject { code: RejectCode::Invalid, detail: d.clone() }
                }
            },
            None if self.evicted_sessions.contains(session) => Message::Reject {
                code: RejectCode::Expired,
                detail: format!("session {session} aged out of the bounded session store"),
            },
            None => Message::Reject {
                code: RejectCode::UnknownSession,
                detail: format!("session {session} is not open"),
            },
        }
    }

    /// Handles [`Message::SubmitJob`]: a fresh id runs the job to
    /// completion through [`FederationService::execute_job`] and records its
    /// reply; a bit-identical re-submission replays that reply without
    /// re-running the federation (what makes a retry after a lost reply
    /// safe); the same id with different spec bytes is a typed
    /// `DuplicateJob`, and an aged-out id `Expired`.
    pub fn submit_job(&mut self, job: u32, spec: &JobSpec) -> Message {
        let spec_bytes = spec.canonical_bytes();
        match self.jobs.lookup(job) {
            Ok(rec) if rec.spec_bytes == spec_bytes => rec.reply.clone(),
            Ok(_) => job_reject(RejectCode::DuplicateJob, job),
            Err(RejectCode::UnknownJob) => {
                let reply = match FederationService::execute_job(job, spec) {
                    Ok(r) => Message::JobDone {
                        job: r.job,
                        params_hash: r.params_hash,
                        log_hash: r.log_hash,
                        rounds: r.rounds,
                        accuracy: r.accuracy,
                    },
                    Err(e) => Message::Reject { code: RejectCode::Invalid, detail: e.to_string() },
                };
                self.jobs.record(job, JobRecord { spec_bytes, reply: reply.clone() });
                reply
            }
            Err(code) => job_reject(code, job),
        }
    }

    /// Handles [`Message::PollJob`]: a finished job answers with its
    /// recorded reply, and a missing one types out as unknown or expired.
    pub fn poll_job(&self, job: u32) -> Message {
        match self.jobs.lookup(job) {
            Ok(rec) => rec.reply.clone(),
            Err(code) => job_reject(code, job),
        }
    }
}

// ---- the service -------------------------------------------------------

/// How a [`FederationService::serve`] connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEnd {
    /// The peer closed cleanly at a frame boundary.
    CleanEof,
    /// The peer sent [`Message::Shutdown`].
    Shutdown,
    /// The transport's read deadline expired with no frame in flight —
    /// a half-open or silent peer, reaped instead of leaked.
    IdleReaped,
}

impl fmt::Display for ServeEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ServeEnd::CleanEof => "clean eof",
            ServeEnd::Shutdown => "shutdown",
            ServeEnd::IdleReaped => "idle peer reaped",
        })
    }
}

/// What a served connection amounted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered (including typed rejections).
    pub served: usize,
    /// Why the loop ended.
    pub end: ServeEnd,
}

/// Most work one job may ask for, counted in saturating `u64` as
/// `max(rounds, 1) × n_clients × (rows_per_client × max(local_epochs, 1) +
/// n_clients + in_flight)`: every round visits every client, which trains
/// once per local epoch on its rows; Krum and gossip compare every pair of
/// clients; and the async schedule rescans up to `in_flight =
/// min(max_staleness, rounds)` parked updates per client (0 for the other
/// schedules). A zero round or epoch count still costs one, because the
/// workload of `n_clients × rows_per_client` rows is built either way.
///
/// The service answers one request at a time, so every later request waits
/// for a job. The slowest in-bound shape measured (two one-row clients,
/// 10,922 rounds, `parallel` set, so a thread per client per round) runs
/// for about a second in release on a 2-vCPU x86-64 host, in under 10 MB;
/// the largest job any caller sends costs 675. A bigger request is a typed
/// error before anything is allocated.
pub const MAX_JOB_WORK: u64 = 1 << 16;

/// A job's work, as [`MAX_JOB_WORK`] counts it.
fn job_work(spec: &JobSpec) -> u64 {
    let n = u64::from(spec.n_clients);
    let rounds = u64::from(spec.rounds.max(1));
    let in_flight = match FederationService::schedule(spec) {
        Ok(Schedule::Async { .. }) => u64::from(spec.max_staleness).min(rounds),
        _ => 0,
    };
    let per_client_round = u64::from(spec.rows_per_client)
        .saturating_mul(u64::from(spec.local_epochs.max(1)))
        .saturating_add(n)
        .saturating_add(in_flight);
    rounds.saturating_mul(n).saturating_mul(per_client_round)
}

/// The federation service: the wire dispatcher over the `SessionStore`
/// it owns, plus a worker pool for batches of jobs. One service answers one
/// request at a time, so a submitted job runs to completion before the next
/// request is read.
#[derive(Debug)]
pub struct FederationService {
    workers: usize,
    store: SessionStore,
}

impl FederationService {
    /// A service running at most `workers` federations concurrently in
    /// [`FederationService::run_jobs`] (clamped to at least one), over its
    /// own fresh store.
    pub fn new(workers: usize) -> Self {
        FederationService { workers: workers.max(1), store: SessionStore::default() }
    }

    /// Builds the deterministic synthetic workload of a job: `n_clients`
    /// shards over one continuous feature, a pure function of
    /// `(seed, n_clients, rows_per_client)`.
    pub fn workload(spec: &JobSpec) -> Vec<Dataset> {
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let n = spec.n_clients as usize;
        let offset = (spec.seed % 101) as usize;
        (0..n)
            .map(|c| {
                let mut d = Dataset::empty(Arc::clone(&schema), 2);
                for i in 0..spec.rows_per_client as usize {
                    let v = ((i * n + c + offset) % 120) as f32 / 120.0;
                    d.push_row(&[v.into()], (v > 0.5) as u32).expect("row matches schema");
                }
                d
            })
            .collect()
    }

    /// Resolves a job's attack code into a plan, or a typed error for
    /// unknown codes. Code `0` is the honest federation.
    fn adversary_plan(spec: &JobSpec) -> Result<AdversaryPlan> {
        let n = spec.n_clients as usize;
        let kind = match spec.attack {
            0 => return Ok(AdversaryPlan::none(n)),
            1 => AttackKind::SignFlip { scale: 1.0 },
            2 => AttackKind::ScaleGradient { factor: 4.0 },
            3 => AttackKind::Collude { leader: 0 },
            4 => AttackKind::FreeRideZero,
            5 => AttackKind::FreeRideStale,
            6 => AttackKind::ClassBias { class: 0, boost: 2.0 },
            code => {
                return Err(CoreError::InvalidParameter {
                    name: "attack",
                    message: format!("unknown attack code {code}"),
                })
            }
        };
        AdversaryPlan::try_generate(n, spec.adversary_frac, kind, spec.seed ^ 0xAD5E)
    }

    /// Resolves a job's aggregation-rule code, or a typed error for unknown
    /// codes.
    fn rule(spec: &JobSpec) -> Result<Box<dyn Aggregator>> {
        Ok(match spec.rule {
            0 => Box::new(WeightedFedAvg),
            1 => Box::new(CoordinateMedian),
            2 => Box::new(TrimmedMean::new(0.25)),
            3 => Box::new(MultiKrum::krum(0)),
            code => {
                return Err(CoreError::InvalidParameter {
                    name: "rule",
                    message: format!("unknown aggregation-rule code {code}"),
                })
            }
        })
    }

    /// Resolves a job's schedule code into a policy, or a typed error for
    /// unknown codes or out-of-range parameters. Code `0` is the legacy
    /// full-participation federation.
    fn schedule(spec: &JobSpec) -> Result<Schedule> {
        let schedule = match spec.schedule {
            0 => Schedule::Full,
            1 => Schedule::UniformSample { frac: spec.sample_frac, seed: spec.seed ^ 0x5C8D },
            2 => Schedule::WeightedSample { frac: spec.sample_frac, seed: spec.seed ^ 0x5C8D },
            3 => Schedule::Async {
                max_staleness: spec.max_staleness as usize,
                staleness_decay: spec.stale_decay,
                seed: spec.seed ^ 0xA5F2,
            },
            code => {
                return Err(CoreError::InvalidParameter {
                    name: "schedule",
                    message: format!("unknown schedule code {code}"),
                })
            }
        };
        schedule.validate()?;
        Ok(schedule)
    }

    /// Resolves a job's topology code, or a typed error for unknown codes.
    /// Code `0` is the legacy star topology.
    fn topology(spec: &JobSpec) -> Result<Topology> {
        Ok(match spec.topology {
            0 => Topology::Star,
            1 => Topology::Gossip {
                degree: spec.gossip_degree as usize,
                seed: spec.seed ^ 0x70B0,
            },
            code => {
                return Err(CoreError::InvalidParameter {
                    name: "topology",
                    message: format!("unknown topology code {code}"),
                })
            }
        })
    }

    /// Runs one job to completion through a [`FederationEngine`] session.
    ///
    /// Every invalid spec is a typed [`CoreError`] (bad probabilities, bad
    /// fractions, unknown codes, empty federations, jobs past
    /// [`MAX_JOB_WORK`]) — the wire path renders it
    /// into a [`Message::Reject`] instead of dying.
    pub fn execute_job(job: u32, spec: &JobSpec) -> Result<JobResult> {
        if spec.n_clients == 0 {
            return Err(CoreError::Empty { what: "job federation" });
        }
        if spec.rows_per_client == 0 {
            return Err(CoreError::Empty { what: "job client shard" });
        }
        if job_work(spec) > MAX_JOB_WORK {
            return Err(CoreError::InvalidParameter {
                name: "job size",
                message: format!(
                    "{} clients × {} rows × {} rounds × {} local epochs exceeds the work \
                     limit of {MAX_JOB_WORK}",
                    spec.n_clients, spec.rows_per_client, spec.rounds, spec.local_epochs
                ),
            });
        }
        let fault_spec = FaultSpec {
            dropout: spec.dropout,
            straggler: spec.straggler,
            corrupt: spec.corrupt,
            corruption: CorruptionKind::NaN,
            ..FaultSpec::default()
        };
        let n = spec.n_clients as usize;
        let rounds = spec.rounds as usize;
        let plan = FaultPlan::try_generate(n, rounds, &fault_spec, spec.seed ^ 0xFA17)?;
        let adversary = Self::adversary_plan(spec)?;
        let rule = Self::rule(spec)?;
        let guard = GuardConfig::default();
        let setup = ByzantineSetup {
            faults: &plan,
            adversary: &adversary,
            guard: &guard,
            aggregator: &*rule,
        };
        let fl = FlConfig {
            rounds,
            local_epochs: spec.local_epochs as usize,
            parallel: spec.parallel,
        };
        let net_config = LogicalNetConfig {
            tau_d: 6,
            layer_sizes: vec![8],
            epochs: 5,
            batch_size: 16,
            seed: spec.seed,
            ..LogicalNetConfig::default()
        };
        let shards = Self::workload(spec);
        let mut engine = FederationEngine::from_datasets(&shards, 2, &net_config, &fl, &setup)?
            .with_schedule(Self::schedule(spec)?)?
            .with_topology(Self::topology(spec)?)?;
        engine.run_to_completion()?;
        let run = engine.finish();
        let pooled = Dataset::concat(shards.iter())?;
        let encoded = run.net.encode(&pooled)?;
        let accuracy = run.net.accuracy_encoded(&encoded);
        Ok(JobResult {
            job,
            params_hash: fnv1a_bits(&run.net.params()),
            log_hash: fnv1a_bytes(run.log.render().as_bytes()),
            rounds: run.log.rounds.len() as u32,
            accuracy,
        })
    }

    /// Runs a batch of jobs over the worker pool. Results come back in job
    /// order — position `i` of the output is job `i` of the input — and are
    /// bit-identical to running [`FederationService::execute_job`] over the
    /// slice serially: each engine session is self-contained, each worker
    /// takes one contiguous run of the batch ([`map_chunks`]), and the runs'
    /// results are joined in batch order.
    pub fn run_jobs(&self, jobs: &[(u32, JobSpec)]) -> Vec<Result<JobResult>> {
        map_chunks(jobs, self.workers, |js| {
            js.iter().map(|(id, spec)| Self::execute_job(*id, spec)).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Maps one request to its reply — the transport-free core of the
    /// dispatcher. Invalid requests come back as [`Message::Reject`] with a
    /// typed [`RejectCode`] rendering the cause; the connection survives.
    pub fn handle_message(&mut self, msg: Message) -> Message {
        match msg {
            Message::SubmitJob { job, spec } => self.store.submit_job(job, &spec),
            Message::PollJob { job } => self.store.poll_job(job),
            Message::OpenSession { session, n_clients, dim } => {
                self.store.open_session(session, n_clients, dim)
            }
            Message::SubmitUpdate { session, client, weight, params } => {
                self.store.submit_update(session, client, weight, params)
            }
            Message::ResumeSession { session } => self.store.resume_session(session),
            Message::Ping { nonce } => Message::Pong { nonce },
            Message::Shutdown => Message::Shutdown,
            // Server-to-client messages arriving as requests are protocol
            // violations, not crashes.
            other @ (Message::JobDone { .. }
            | Message::Ack { .. }
            | Message::RoundComplete { .. }
            | Message::Reject { .. }
            | Message::Pong { .. }
            | Message::SessionStatus { .. }) => Message::Reject {
                code: RejectCode::Protocol,
                detail: format!("unexpected server-to-client message: {other:?}"),
            },
        }
    }

    /// Pumps frames on a transport until [`Message::Shutdown`], a clean EOF
    /// at a frame boundary, or an expired read deadline (the transport
    /// returning `WouldBlock`/`TimedOut`, reported as
    /// [`ServeEnd::IdleReaped`] so the caller can log the reaped peer).
    ///
    /// Malformed frames that leave the stream decodable — unknown tags, bad
    /// values, payloads too short or too long for their message, checksum
    /// mismatches — get a typed [`RejectCode::BadFrame`] reply and the loop
    /// continues. Transport failures, oversized length prefixes and
    /// mid-frame peer death end the connection with the typed error. The
    /// store outlives the connection either way.
    pub fn serve(&mut self, r: &mut impl Read, w: &mut impl Write) -> WireResult<ServeSummary> {
        let mut served = 0usize;
        loop {
            let msg = match wire::read_frame_opt(r) {
                Ok(Some(msg)) => msg,
                // EOF before the next frame's first byte is a clean close.
                Ok(None) => return Ok(ServeSummary { served, end: ServeEnd::CleanEof }),
                // A read deadline fired with no frame in flight: reap the
                // idle peer instead of blocking forever.
                Err(WireError::Io {
                    kind: std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut,
                }) => return Ok(ServeSummary { served, end: ServeEnd::IdleReaped }),
                // Payload-level decode errors leave the frame boundary
                // intact: reject and keep serving. (After a checksum
                // mismatch the boundary is best-effort — a corrupted length
                // prefix desyncs the stream — but the client treats
                // BadFrame as a reconnect signal, so the connection winds
                // down either way.)
                Err(e @ (WireError::UnknownTag { .. }
                | WireError::BadValue { .. }
                | WireError::Truncated { .. }
                | WireError::Trailing { .. }
                | WireError::ChecksumMismatch { .. })) => {
                    wire::write_frame(
                        w,
                        &Message::Reject { code: RejectCode::BadFrame, detail: e.to_string() },
                    )?;
                    served += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let reply = self.handle_message(msg);
            let done = reply == Message::Shutdown;
            wire::write_frame(w, &reply)?;
            served += 1;
            if done {
                return Ok(ServeSummary { served, end: ServeEnd::Shutdown });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_mean() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        // Weights 3:1 -> (0.75, 0.25).
        let agg = aggregate(&a, &[3, 1]).unwrap();
        assert!((agg[0] - 0.75).abs() < 1e-6);
        assert!((agg[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn single_client_is_identity() {
        let a = vec![vec![0.5, -0.25, 3.0]];
        assert_eq!(aggregate(&a, &[7]).unwrap(), vec![0.5, -0.25, 3.0]);
    }

    #[test]
    fn equal_weights_is_plain_mean() {
        let a = vec![vec![2.0], vec![4.0], vec![6.0]];
        let agg = aggregate(&a, &[5, 5, 5]).unwrap();
        assert!((agg[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn validation() {
        // An empty client slice is a typed error, never a panic or a silent
        // zero-length result.
        assert_eq!(
            aggregate(&[], &[]).unwrap_err(),
            CoreError::Empty { what: "client parameter list" }
        );
        // Mismatched weights are a typed error naming both lengths.
        assert_eq!(
            aggregate(&[vec![1.0]], &[1, 2]).unwrap_err(),
            CoreError::LengthMismatch { what: "aggregation weights", expected: 1, actual: 2 }
        );
        assert_eq!(
            aggregate(&[vec![1.0], vec![1.0, 2.0]], &[1, 1]).unwrap_err(),
            CoreError::LengthMismatch {
                what: "client parameter vector",
                expected: 1,
                actual: 2
            }
        );
        assert_eq!(
            aggregate(&[vec![1.0]], &[0]).unwrap_err(),
            CoreError::InvalidParameter {
                name: "weights",
                message: "total weight must be positive".into()
            }
        );
    }

    #[test]
    fn non_finite_vectors_are_rejected_with_typed_error() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = aggregate(&[vec![1.0, 1.0], vec![1.0, bad]], &[1, 1]).unwrap_err();
            assert_eq!(
                err,
                CoreError::NonFinite { what: "client parameter vector", index: 1 },
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn bounded_job_registry_expires_the_oldest_record() {
        let mut store = SessionStore::default();
        // Unknown rule codes fail fast; failures are recorded like results.
        let spec = JobSpec { rule: 9, ..JobSpec::clean(1, 2, 1) };
        let newest = MAX_FINISHED_JOBS as u32;
        for j in 0..=newest {
            assert_eq!(reject_code(&store.submit_job(j, &spec)), RejectCode::Invalid);
        }
        // Past the retention bound the oldest record expires: typed, not a
        // re-run and not "never submitted".
        assert_eq!(reject_code(&store.poll_job(0)), RejectCode::Expired);
        assert_eq!(reject_code(&store.submit_job(0, &spec)), RejectCode::Expired);
        assert_eq!(store.poll_job(newest), store.submit_job(newest, &spec));
        assert_eq!(reject_code(&store.poll_job(newest)), RejectCode::Invalid);
        assert_eq!(reject_code(&store.poll_job(newest + 1)), RejectCode::UnknownJob);
    }

    #[test]
    fn eviction_ring_remembers_only_the_newest_evicted_ids() {
        let mut store = SessionStore::default();
        let spec = JobSpec { rule: 9, ..JobSpec::clean(1, 2, 1) };
        let total = (MAX_FINISHED_JOBS + MAX_EVICTED + 1) as u32;
        let replies: Vec<Message> = (0..total).map(|j| store.submit_job(j, &spec)).collect();
        // The newest records replay; the evicted ids before them answer
        // `Expired` while the ring holds them; the one pushed out of the
        // ring is indistinguishable from an id never submitted.
        let first_kept = total - MAX_FINISHED_JOBS as u32;
        for j in first_kept..total {
            assert_eq!(store.poll_job(j), replies[j as usize], "job {j}");
        }
        for j in first_kept - MAX_EVICTED as u32..first_kept {
            assert_eq!(reject_code(&store.poll_job(j)), RejectCode::Expired, "job {j}");
        }
        assert_eq!(reject_code(&store.poll_job(0)), RejectCode::UnknownJob);
    }

    #[test]
    fn submission_is_idempotent_by_spec_bytes() {
        let mut service = FederationService::new(1);
        let spec = JobSpec::clean(5, 3, 2);
        // A made-up record no run of `spec` produces: only a replay of the
        // record can return it, a re-execution cannot.
        let sentinel = Message::Pong { nonce: 1 };
        let record = JobRecord { spec_bytes: spec.canonical_bytes(), reply: sentinel.clone() };
        service.store.jobs.record(9, record);
        let submit = |spec: &JobSpec| Message::SubmitJob { job: 9, spec: spec.clone() };
        assert_eq!(service.handle_message(submit(&spec)), sentinel);
        assert_eq!(service.handle_message(Message::PollJob { job: 9 }), sentinel);
        // Same id, different bytes: typed duplicate, the record untouched.
        let other = JobSpec { dropout: 0.5, ..spec.clone() };
        assert_eq!(reject_code(&service.handle_message(submit(&other))), RejectCode::DuplicateJob);
        assert_eq!(service.handle_message(submit(&spec)), sentinel);
    }

    #[test]
    fn pooled_jobs_match_serial_execution() {
        let service = FederationService::new(4);
        let jobs: Vec<(u32, JobSpec)> = (0..6)
            .map(|i| {
                let mut spec = JobSpec::clean(100 + i as u64, 3, 2);
                if i % 2 == 0 {
                    spec.dropout = 0.3;
                }
                (i, spec)
            })
            .collect();
        let pooled = service.run_jobs(&jobs);
        let serial: Vec<_> =
            jobs.iter().map(|(id, spec)| FederationService::execute_job(*id, spec)).collect();
        assert_eq!(pooled, serial, "worker pool must not change results");
    }

    #[test]
    fn bad_jobs_are_typed_errors_not_panics() {
        let bad_prob = JobSpec { dropout: 1.5, ..JobSpec::clean(1, 3, 2) };
        assert!(matches!(
            FederationService::execute_job(0, &bad_prob).unwrap_err(),
            CoreError::InvalidParameter { name: "fault spec", .. }
        ));
        let bad_frac = JobSpec { adversary_frac: -0.1, attack: 1, ..JobSpec::clean(1, 3, 2) };
        assert!(matches!(
            FederationService::execute_job(0, &bad_frac).unwrap_err(),
            CoreError::InvalidParameter { name: "adversary plan", .. }
        ));
        let bad_attack = JobSpec { attack: 200, ..JobSpec::clean(1, 3, 2) };
        assert!(matches!(
            FederationService::execute_job(0, &bad_attack).unwrap_err(),
            CoreError::InvalidParameter { name: "attack", .. }
        ));
        let bad_rule = JobSpec { rule: 9, ..JobSpec::clean(1, 3, 2) };
        assert!(matches!(
            FederationService::execute_job(0, &bad_rule).unwrap_err(),
            CoreError::InvalidParameter { name: "rule", .. }
        ));
        let empty = JobSpec { n_clients: 0, ..JobSpec::clean(1, 3, 2) };
        assert_eq!(
            FederationService::execute_job(0, &empty).unwrap_err(),
            CoreError::Empty { what: "job federation" }
        );
    }

    fn reject_code(msg: &Message) -> RejectCode {
        match msg {
            Message::Reject { code, .. } => *code,
            other => panic!("expected Reject, got {other:?}"),
        }
    }

    #[test]
    fn aggregation_session_over_the_dispatcher() {
        let mut service = FederationService::new(1);
        let open = service.handle_message(Message::OpenSession { session: 7, n_clients: 2, dim: 2 });
        assert_eq!(open, Message::Ack { session: 7, client: SESSION_ACK });
        // Reopening with the same shape is an idempotent replay of the ack.
        assert_eq!(
            service.handle_message(Message::OpenSession { session: 7, n_clients: 2, dim: 2 }),
            Message::Ack { session: 7, client: SESSION_ACK }
        );
        // Reopening with a different shape is a typed refusal.
        assert_eq!(
            reject_code(&service.handle_message(Message::OpenSession {
                session: 7,
                n_clients: 3,
                dim: 2
            })),
            RejectCode::Invalid
        );
        let first = service.handle_message(Message::SubmitUpdate {
            session: 7,
            client: 0,
            weight: 3,
            params: vec![1.0, 0.0],
        });
        assert_eq!(first, Message::Ack { session: 7, client: 0 });
        // A bit-identical re-submission replays the ack (lost-reply retry)…
        assert_eq!(
            service.handle_message(Message::SubmitUpdate {
                session: 7,
                client: 0,
                weight: 3,
                params: vec![1.0, 0.0],
            }),
            Message::Ack { session: 7, client: 0 }
        );
        // …but different bytes are a typed duplicate, never replaced.
        assert_eq!(
            reject_code(&service.handle_message(Message::SubmitUpdate {
                session: 7,
                client: 0,
                weight: 3,
                params: vec![9.0, 9.0],
            })),
            RejectCode::DuplicateUpdate
        );
        // NaNs never reach aggregation.
        assert_eq!(
            reject_code(&service.handle_message(Message::SubmitUpdate {
                session: 7,
                client: 1,
                weight: 1,
                params: vec![f32::NAN, 0.0],
            })),
            RejectCode::Invalid
        );
        // Mid-round progress is observable by a reconnecting client.
        assert_eq!(
            service.handle_message(Message::ResumeSession { session: 7 }),
            Message::SessionStatus { session: 7, n_clients: 2, dim: 2, received: vec![0] }
        );
        let done = service.handle_message(Message::SubmitUpdate {
            session: 7,
            client: 1,
            weight: 1,
            params: vec![0.0, 1.0],
        });
        let Message::RoundComplete { session, params } = done else {
            panic!("expected RoundComplete, got {done:?}");
        };
        assert_eq!(session, 7);
        assert!((params[0] - 0.75).abs() < 1e-6);
        assert!((params[1] - 0.25).abs() < 1e-6);
        // The completed round survives for replay: the same closing update
        // re-submitted (a lost RoundComplete) fuses to the same bytes…
        assert_eq!(
            service.handle_message(Message::SubmitUpdate {
                session: 7,
                client: 1,
                weight: 1,
                params: vec![0.0, 1.0],
            }),
            Message::RoundComplete { session: 7, params: params.clone() }
        );
        // …resumption replays the fused round…
        assert_eq!(
            service.handle_message(Message::ResumeSession { session: 7 }),
            Message::RoundComplete { session: 7, params },
        );
        // …and a *different* post-completion upload is a typed duplicate.
        assert_eq!(
            reject_code(&service.handle_message(Message::SubmitUpdate {
                session: 7,
                client: 0,
                weight: 1,
                params: vec![0.0, 0.0],
            })),
            RejectCode::DuplicateUpdate
        );
        // Sessions never opened are typed as unknown.
        assert_eq!(
            reject_code(&service.handle_message(Message::ResumeSession { session: 99 })),
            RejectCode::UnknownSession
        );
    }

    /// Frames `requests`, serves them as one connection, and decodes the
    /// replies.
    fn converse(service: &mut FederationService, requests: &[Message]) -> Vec<Message> {
        let mut stream = Vec::new();
        for msg in requests {
            wire::write_frame(&mut stream, msg).unwrap();
        }
        let mut replies = Vec::new();
        let summary = service.serve(&mut stream.as_slice(), &mut replies).unwrap();
        assert_eq!(summary, ServeSummary { served: requests.len(), end: ServeEnd::CleanEof });
        let mut r = replies.as_slice();
        requests.iter().map(|_| wire::read_frame(&mut r).unwrap()).collect()
    }

    #[test]
    fn sessions_survive_across_connections() {
        let mut service = FederationService::new(1);
        // Connection one opens a session and uploads one of two updates,
        // then dies…
        converse(
            &mut service,
            &[
                Message::OpenSession { session: 3, n_clients: 2, dim: 1 },
                Message::SubmitUpdate { session: 3, client: 0, weight: 1, params: vec![2.0] },
            ],
        );
        // …and a reconnecting client resumes where it left off.
        let replies = converse(
            &mut service,
            &[
                Message::ResumeSession { session: 3 },
                Message::SubmitUpdate { session: 3, client: 1, weight: 1, params: vec![4.0] },
            ],
        );
        assert_eq!(
            replies,
            [
                Message::SessionStatus { session: 3, n_clients: 2, dim: 1, received: vec![0] },
                Message::RoundComplete { session: 3, params: vec![3.0] },
            ]
        );
    }

    #[test]
    fn session_table_full_degrades_into_busy_then_evicts_completed() {
        let mut store = SessionStore::default();
        let full = MAX_SESSIONS as u32;
        for session in 0..full {
            assert!(matches!(store.open_session(session, 1, 1), Message::Ack { .. }));
        }
        // All open, table full: typed Busy, never a hang or a panic.
        assert_eq!(reject_code(&store.open_session(full, 1, 1)), RejectCode::Busy);
        // Complete session 0; the next open evicts it to make room.
        assert!(matches!(
            store.submit_update(0, 0, 1, vec![1.0]),
            Message::RoundComplete { .. }
        ));
        assert!(matches!(store.open_session(full, 1, 1), Message::Ack { .. }));
        // The evicted session now answers as expired, not unknown.
        assert_eq!(reject_code(&store.resume_session(0)), RejectCode::Expired);
        assert_eq!(reject_code(&store.submit_update(0, 0, 1, vec![1.0])), RejectCode::Expired);
        assert_eq!(reject_code(&store.open_session(0, 1, 1)), RejectCode::Expired);
    }

    #[test]
    fn oversized_sessions_are_refused_before_allocation() {
        let mut store = SessionStore::default();
        // A 13-byte frame must not be able to ask for a 2^32-slot table.
        for n_clients in [u32::MAX, MAX_SESSION_CLIENTS + 1] {
            assert_eq!(reject_code(&store.open_session(1, n_clients, 1)), RejectCode::Invalid);
        }
        assert!(matches!(store.open_session(1, MAX_SESSION_CLIENTS, 1), Message::Ack { .. }));
    }

    #[test]
    fn heartbeats_echo_the_nonce() {
        let mut service = FederationService::new(1);
        assert_eq!(
            service.handle_message(Message::Ping { nonce: 0xFEED_F00D }),
            Message::Pong { nonce: 0xFEED_F00D }
        );
        // A Pong arriving as a request is a protocol violation, typed.
        assert_eq!(
            reject_code(&service.handle_message(Message::Pong { nonce: 1 })),
            RejectCode::Protocol
        );
    }

    #[test]
    fn serve_pumps_a_full_conversation_in_memory() {
        let mut requests = Vec::new();
        wire::write_frame(&mut requests, &Message::OpenSession { session: 1, n_clients: 1, dim: 1 })
            .unwrap();
        wire::write_frame(
            &mut requests,
            &Message::SubmitUpdate { session: 1, client: 0, weight: 1, params: vec![0.5] },
        )
        .unwrap();
        // A malformed payload in a well-checksummed frame gets a typed
        // BadFrame Reject, not a dropped connection.
        let mut bogus = wire::encode(&Message::Shutdown);
        bogus[0] = 0xEE;
        requests.extend_from_slice(&wire::frame_payload(&bogus).unwrap());
        // A bit-flipped frame (checksum mismatch) likewise.
        let mut flipped = wire::frame(&Message::Ping { nonce: 5 }).unwrap();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        requests.extend_from_slice(&flipped);
        wire::write_frame(&mut requests, &Message::Shutdown).unwrap();

        let mut service = FederationService::new(1);
        let mut replies = Vec::new();
        let summary = service.serve(&mut requests.as_slice(), &mut replies).unwrap();
        assert_eq!(summary, ServeSummary { served: 5, end: ServeEnd::Shutdown });
        let mut r = replies.as_slice();
        assert_eq!(
            wire::read_frame(&mut r).unwrap(),
            Message::Ack { session: 1, client: SESSION_ACK }
        );
        assert_eq!(
            wire::read_frame(&mut r).unwrap(),
            Message::RoundComplete { session: 1, params: vec![0.5] }
        );
        assert_eq!(reject_code(&wire::read_frame(&mut r).unwrap()), RejectCode::BadFrame);
        assert_eq!(reject_code(&wire::read_frame(&mut r).unwrap()), RejectCode::BadFrame);
        assert_eq!(wire::read_frame(&mut r).unwrap(), Message::Shutdown);
    }

    /// A reader that never produces a byte: its deadline always fires.
    struct SilentPeer;
    impl Read for SilentPeer {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "read deadline expired"))
        }
    }

    #[test]
    fn silent_peers_are_reaped_not_leaked() {
        let mut service = FederationService::new(1);
        let mut replies = Vec::new();
        let summary = service.serve(&mut SilentPeer, &mut replies).unwrap();
        assert_eq!(summary, ServeSummary { served: 0, end: ServeEnd::IdleReaped });
        assert!(replies.is_empty(), "a reaped peer gets no parting frame");
    }

    #[test]
    fn submit_job_over_the_wire_matches_direct_execution() {
        let spec = JobSpec { dropout: 0.3, ..JobSpec::clean(42, 3, 2) };
        let direct = FederationService::execute_job(8, &spec).unwrap();
        let mut service = FederationService::new(1);
        let reply = service.handle_message(Message::SubmitJob { job: 8, spec: spec.clone() });
        let expected = Message::JobDone {
            job: direct.job,
            params_hash: direct.params_hash,
            log_hash: direct.log_hash,
            rounds: direct.rounds,
            accuracy: direct.accuracy,
        };
        assert_eq!(reply, expected);
        // Retrying the identical submission replays the recorded result…
        assert_eq!(
            service.handle_message(Message::SubmitJob { job: 8, spec: spec.clone() }),
            expected
        );
        // …polling recovers it from a later connection…
        assert_eq!(converse(&mut service, &[Message::PollJob { job: 8 }])[0], expected);
        // …and the same id with a different spec is a typed duplicate.
        assert_eq!(
            reject_code(&service.handle_message(Message::SubmitJob {
                job: 8,
                spec: JobSpec { dropout: 0.6, ..spec }
            })),
            RejectCode::DuplicateJob
        );
        // Unknown poll ids are typed too.
        assert_eq!(
            reject_code(&service.handle_message(Message::PollJob { job: 99 })),
            RejectCode::UnknownJob
        );
        // A bad spec is a Reject, not a dead service — and the failure is
        // recorded, so polling it replays the rendered error.
        let bad = JobSpec { rule: 77, ..JobSpec::clean(1, 2, 1) };
        let reply =
            service.handle_message(Message::SubmitJob { job: 13, spec: bad });
        assert_eq!(reject_code(&reply), RejectCode::Invalid);
        assert_eq!(
            reject_code(&service.handle_message(Message::PollJob { job: 13 })),
            RejectCode::Invalid
        );
    }

    #[test]
    fn oversized_jobs_are_refused_before_they_run() {
        // The slowest in-bound shape: a thread per client per round.
        let worst = JobSpec { rows_per_client: 1, parallel: true, ..JobSpec::clean(1, 2, 10_922) };
        assert!(job_work(&worst) <= MAX_JOB_WORK);
        // One round more is refused, and so is every hostile shape: each
        // factor alone, zero epochs or rounds that would hide a huge one,
        // a client grid whose pairs Krum and gossip would compare, and
        // async updates that stay in flight for the whole federation.
        let async_unbounded = JobSpec {
            rows_per_client: 1,
            schedule: 3,
            max_staleness: u32::MAX,
            ..JobSpec::clean(1, 1, 256)
        };
        assert!(job_work(&JobSpec { schedule: 0, ..async_unbounded.clone() }) <= MAX_JOB_WORK);
        for spec in [
            JobSpec { rounds: 10_923, ..worst },
            JobSpec { rows_per_client: 65_537, ..JobSpec::clean(1, 1, 1) },
            JobSpec { local_epochs: 4_097, ..JobSpec::clean(1, 2, 1) },
            JobSpec { rounds: u32::MAX, local_epochs: 0, ..JobSpec::clean(1, 1, 1) },
            JobSpec { rows_per_client: 65_536, ..JobSpec::clean(1, 65_536, 0) },
            JobSpec { rows_per_client: 1, ..JobSpec::clean(1, 65_536, 4_096) },
            async_unbounded,
        ] {
            assert!(job_work(&spec) > MAX_JOB_WORK, "{spec:?}");
            assert!(matches!(
                FederationService::execute_job(0, &spec).unwrap_err(),
                CoreError::InvalidParameter { name: "job size", .. }
            ));
        }
        // Hostile wire values: `u32::MAX` clients (× 40 rows) and `u32::MAX`
        // rounds. The refusal is immediate, recorded, and replayed like any
        // failed job.
        let mut service = FederationService::new(1);
        for (job, spec) in [
            (1, JobSpec { n_clients: u32::MAX, ..JobSpec::clean(1, 2, 1) }),
            (2, JobSpec { rounds: u32::MAX, ..JobSpec::clean(1, 2, 1) }),
            (3, JobSpec { rounds: u32::MAX, local_epochs: 0, ..JobSpec::clean(1, 2, 1) }),
        ] {
            let t = std::time::Instant::now();
            let reply = service.handle_message(Message::SubmitJob { job, spec: spec.clone() });
            assert!(t.elapsed().as_secs_f64() < 1.0, "job {job} was not refused fast");
            assert_eq!(reject_code(&reply), RejectCode::Invalid);
            assert_eq!(service.handle_message(Message::SubmitJob { job, spec }), reply);
            assert_eq!(service.handle_message(Message::PollJob { job }), reply);
        }
    }
}
