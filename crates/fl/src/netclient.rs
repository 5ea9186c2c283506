//! The resilient wire client: per-request deadlines, seeded exponential
//! backoff with bounded jitter, bounded retries, and idempotent
//! re-submission.
//!
//! [`NetClient`] wraps any [`Connect`]or (TCP via [`TcpConnector`], the
//! in-memory [`crate::chaos_net::duplex`] pipe in tests) and makes one
//! guarantee the raw protocol cannot: **a request either yields its reply
//! or a typed error, and retrying is always safe**. The pieces:
//!
//! * **Deadlines** — every connection gets the policy's read/write deadline
//!   ([`Transport::set_deadline`]), so a stalled frame surfaces as
//!   `TimedOut` instead of hanging the client forever.
//! * **Seeded backoff** — retry delays come from [`BackoffSchedule`], a
//!   deterministic schedule seeded per request: `delay_k = min(max, base ·
//!   factor^k · (1 + jitter·u_k))` with `u_k` uniform in `[0, 1)` from
//!   [`ctfl_rng`], 1 ms doubling to a 100 ms ceiling with jitter 0.5.
//!   Since `jitter ≤ factor − 1`, every schedule is provably monotone
//!   non-decreasing (see `tests/net_props.rs`), and the same seed always
//!   produces the same schedule.
//! * **Bounded retries** — at most [`RetryPolicy::max_attempts`] tries,
//!   then a typed [`ClientError::Exhausted`] carrying the last failure.
//!   Transport errors and `BadFrame` rejections reconnect first (the
//!   stream may be desynced); `Busy` rejections retry on the live
//!   connection.
//! * **Idempotency** — job submission is keyed by the *client-chosen* job
//!   id, and the server replays recorded results for bit-identical
//!   re-submissions ([`crate::server::FederationService::handle_message`]).
//!   A retry after a lost reply therefore never double-runs a federation,
//!   which is what makes the retry loop safe to run blind.
//!
//! Every decision the client makes is a pure function of `(seed, request
//! counter, transport behaviour)`, so a chaos-driven conversation is
//! byte-reproducible — the property `net_soak` gates.

use ctfl_core::error::{CoreError, Result};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::{Rng, SeedableRng};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

use crate::server::{JobResult, SESSION_ACK};
use crate::wire::{self, JobSpec, Message, RejectCode};

/// A byte transport with a configurable I/O deadline — the little trait
/// that lets the client treat `TcpStream`, the in-memory pipe, and
/// chaos-wrapped versions of either uniformly.
pub trait Transport: Read + Write {
    /// Applies `nanos` as the read *and* write deadline (`None` clears it).
    fn set_deadline(&mut self, nanos: Option<u64>) -> io::Result<()>;
}

impl Transport for std::net::TcpStream {
    fn set_deadline(&mut self, nanos: Option<u64>) -> io::Result<()> {
        let d = nanos.map(Duration::from_nanos);
        self.set_read_timeout(d)?;
        self.set_write_timeout(d)
    }
}

/// Something that can (re)establish a [`Transport`] — the client's
/// reconnect hook.
pub trait Connect {
    /// The transport this connector produces.
    type T: Transport;

    /// Establishes a fresh connection.
    fn connect(&mut self) -> io::Result<Self::T>;
}

/// [`Connect`] over TCP: dials the same address on every (re)connect.
#[derive(Debug, Clone)]
pub struct TcpConnector {
    /// Address to dial, e.g. `127.0.0.1:4714`.
    pub addr: String,
}

impl Connect for TcpConnector {
    type T = std::net::TcpStream;

    fn connect(&mut self) -> io::Result<Self::T> {
        std::net::TcpStream::connect(&self.addr)
    }
}

/// First retry delay: 1 ms.
const BACKOFF_BASE_NANOS: u64 = 1_000_000;

/// Growth of the delay per retry.
const BACKOFF_FACTOR: f64 = 2.0;

/// Delay ceiling: 100 ms.
const BACKOFF_MAX_NANOS: u64 = 100_000_000;

/// Jitter amplitude. It is at most `BACKOFF_FACTOR − 1`, which is what
/// makes every schedule monotone non-decreasing: consecutive raw delays
/// satisfy `d_{k+1}/d_k ≥ factor / (1 + jitter) ≥ 1`, and clamping with
/// `min(max, ·)` preserves the order.
const BACKOFF_JITTER: f64 = 0.5;

/// The (infinite) iterator of one request's retry delays, in nanoseconds:
/// seeded exponential backoff with bounded jitter,
/// `delay_k = min(max, base · factor^k · (1 + jitter · u_k))` with `u_k`
/// uniform in `[0, 1)`.
#[derive(Debug, Clone)]
pub struct BackoffSchedule {
    growth: f64,
    rng: StdRng,
}

impl BackoffSchedule {
    /// The deterministic delay schedule for one request. Same seed →
    /// identical schedule, forever.
    pub fn new(seed: u64) -> Self {
        BackoffSchedule { growth: 1.0, rng: StdRng::seed_from_u64(seed) }
    }
}

impl Iterator for BackoffSchedule {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let u: f64 = self.rng.gen();
        let raw = BACKOFF_BASE_NANOS as f64 * self.growth * (1.0 + BACKOFF_JITTER * u);
        self.growth *= BACKOFF_FACTOR;
        // An overflowed raw is +inf, which clamps to the ceiling.
        Some(if raw >= BACKOFF_MAX_NANOS as f64 { BACKOFF_MAX_NANOS } else { raw as u64 })
    }
}

/// How hard the client tries before giving up on a request. Every retry
/// sleeps its [`BackoffSchedule`] delay first.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Most attempts per request (≥ 1; the first try counts).
    pub max_attempts: u32,
    /// Per-connection I/O deadline in nanoseconds (`None` = block forever).
    pub deadline_nanos: Option<u64>,
}

impl Default for RetryPolicy {
    /// 8 attempts against a 2-second deadline.
    fn default() -> Self {
        RetryPolicy { max_attempts: 8, deadline_nanos: Some(2_000_000_000) }
    }
}

impl RetryPolicy {
    /// Validates the policy: at least one attempt.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(CoreError::InvalidParameter {
                name: "retry policy",
                message: "max_attempts must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Typed client-side failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Every attempt failed; `last` renders the final failure.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The last failure, rendered.
        last: String,
    },
    /// The server refused with a non-retryable [`RejectCode`].
    Rejected {
        /// The typed refusal.
        code: RejectCode,
        /// The server's rendering of the cause.
        detail: String,
    },
    /// The server answered with a message the request cannot accept.
    Unexpected {
        /// The reply, rendered.
        got: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Exhausted { attempts, last } => {
                write!(f, "request exhausted after {attempts} attempts; last failure: {last}")
            }
            ClientError::Rejected { code, detail } => write!(f, "rejected ({code}): {detail}"),
            ClientError::Unexpected { got } => write!(f, "unexpected reply: {got}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Deterministic counters of what a client lived through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests issued through [`NetClient::request`] (and helpers).
    pub requests: u64,
    /// Attempts made (first tries + retries).
    pub attempts: u64,
    /// Connections established (the first connect counts).
    pub connects: u64,
    /// Attempts that died to a transport or framing error.
    pub transport_errors: u64,
    /// Retryable rejections (`Busy`, `BadFrame`) absorbed.
    pub retryable_rejects: u64,
}

/// The reply to a session update upload.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateReply {
    /// Recorded; the session waits for more participants.
    Recorded,
    /// The round completed: the fused parameter vector.
    Complete(Vec<f32>),
}

/// What resuming a session found.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionResume {
    /// Still open: the round's shape and which clients have reported.
    Open {
        /// Updates the round waits for in total.
        n_clients: u32,
        /// Parameter dimensionality of every update.
        dim: u32,
        /// Ids of clients whose updates are recorded, ascending.
        received: Vec<u32>,
    },
    /// Completed: the fused parameter vector, replayed.
    Complete(Vec<f32>),
}

fn mix(seed: u64, i: u64) -> u64 {
    (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x632B_E593_02AA_4C5B)
}

/// The resilient client. See the module docs for the guarantees; see
/// [`NetClient::request`] for the retry loop itself.
#[derive(Debug)]
pub struct NetClient<C: Connect> {
    connector: C,
    conn: Option<C::T>,
    policy: RetryPolicy,
    seed: u64,
    req_counter: u64,
    stats: ClientStats,
}

impl<C: Connect> NetClient<C> {
    /// A client over `connector` with `policy`, seeding every per-request
    /// backoff schedule (and heartbeat nonce) from `seed`.
    pub fn new(connector: C, policy: RetryPolicy, seed: u64) -> Result<Self> {
        policy.validate()?;
        Ok(NetClient { connector, conn: None, policy, seed, req_counter: 0, stats: ClientStats::default() })
    }

    /// A snapshot of the client's counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Drops the current connection (the next request reconnects). Public
    /// so tests and soaks can simulate a client dying mid-session.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    fn attempt(&mut self, msg: &Message) -> wire::WireResult<Message> {
        if self.conn.is_none() {
            let mut t = self.connector.connect()?;
            t.set_deadline(self.policy.deadline_nanos)?;
            self.stats.connects += 1;
            self.conn = Some(t);
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        wire::write_frame(conn, msg)?;
        conn.flush()?;
        wire::read_frame(conn)
    }

    /// Sends one request and returns the server's (non-retryable) reply.
    ///
    /// The loop: try; on a transport or framing error, reconnect and retry;
    /// on a retryable rejection (`Busy` retries in place, `BadFrame`
    /// reconnects first — the stream may be desynced), retry; every retry
    /// waits its scheduled backoff delay. After `max_attempts` failures the
    /// request dies with [`ClientError::Exhausted`]. Safe to call blind for
    /// idempotent requests — which, by design, is all of them.
    pub fn request(&mut self, msg: &Message) -> std::result::Result<Message, ClientError> {
        let mut schedule = BackoffSchedule::new(mix(self.seed, self.req_counter));
        self.req_counter += 1;
        self.stats.requests += 1;
        let mut last = String::new();
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                let delay = schedule.next().expect("schedule is infinite");
                std::thread::sleep(Duration::from_nanos(delay));
            }
            self.stats.attempts += 1;
            match self.attempt(msg) {
                Ok(Message::Reject { code, detail }) if code.retryable() => {
                    self.stats.retryable_rejects += 1;
                    if code == RejectCode::BadFrame {
                        self.disconnect();
                    }
                    last = format!("rejected ({code}): {detail}");
                }
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    self.stats.transport_errors += 1;
                    self.disconnect();
                    last = e.to_string();
                }
            }
        }
        Err(ClientError::Exhausted { attempts: self.policy.max_attempts, last })
    }

    /// Submits a federation job under a client-chosen id and returns its
    /// result fingerprints. Safe to retry: the server replays recorded
    /// results for bit-identical re-submissions instead of re-running.
    pub fn submit_job(
        &mut self,
        job: u32,
        spec: &JobSpec,
    ) -> std::result::Result<JobResult, ClientError> {
        match self.request(&Message::SubmitJob { job, spec: spec.clone() })? {
            Message::JobDone { job, params_hash, log_hash, rounds, accuracy } => {
                Ok(JobResult { job, params_hash, log_hash, rounds, accuracy })
            }
            Message::Reject { code, detail } => Err(ClientError::Rejected { code, detail }),
            other => Err(ClientError::Unexpected { got: format!("{other:?}") }),
        }
    }

    /// Fetches the recorded result of a previously submitted job — how a
    /// reconnecting client recovers a reply it never saw.
    pub fn poll_job(&mut self, job: u32) -> std::result::Result<JobResult, ClientError> {
        match self.request(&Message::PollJob { job })? {
            Message::JobDone { job, params_hash, log_hash, rounds, accuracy } => {
                Ok(JobResult { job, params_hash, log_hash, rounds, accuracy })
            }
            Message::Reject { code, detail } => Err(ClientError::Rejected { code, detail }),
            other => Err(ClientError::Unexpected { got: format!("{other:?}") }),
        }
    }

    /// Heartbeat: sends a seeded nonce, verifies the echo. Distinguishes a
    /// live server from a half-open connection.
    pub fn ping(&mut self) -> std::result::Result<(), ClientError> {
        let nonce = mix(self.seed ^ 0x7169, self.req_counter);
        match self.request(&Message::Ping { nonce })? {
            Message::Pong { nonce: echoed } if echoed == nonce => Ok(()),
            Message::Reject { code, detail } => Err(ClientError::Rejected { code, detail }),
            other => Err(ClientError::Unexpected { got: format!("{other:?}") }),
        }
    }

    /// Opens (or idempotently re-opens) an aggregation session.
    pub fn open_session(
        &mut self,
        session: u32,
        n_clients: u32,
        dim: u32,
    ) -> std::result::Result<(), ClientError> {
        match self.request(&Message::OpenSession { session, n_clients, dim })? {
            Message::Ack { client, .. } if client == SESSION_ACK => Ok(()),
            Message::Reject { code, detail } => Err(ClientError::Rejected { code, detail }),
            other => Err(ClientError::Unexpected { got: format!("{other:?}") }),
        }
    }

    /// Uploads one client update into a session. Bit-identical re-uploads
    /// replay the original reply, so retrying after a lost ack is safe.
    pub fn submit_update(
        &mut self,
        session: u32,
        client: u32,
        weight: u32,
        params: &[f32],
    ) -> std::result::Result<UpdateReply, ClientError> {
        let msg =
            Message::SubmitUpdate { session, client, weight, params: params.to_vec() };
        match self.request(&msg)? {
            Message::Ack { .. } => Ok(UpdateReply::Recorded),
            Message::RoundComplete { params, .. } => Ok(UpdateReply::Complete(params)),
            Message::Reject { code, detail } => Err(ClientError::Rejected { code, detail }),
            other => Err(ClientError::Unexpected { got: format!("{other:?}") }),
        }
    }

    /// Asks what a session already holds — the reconnect recovery path.
    pub fn resume_session(
        &mut self,
        session: u32,
    ) -> std::result::Result<SessionResume, ClientError> {
        match self.request(&Message::ResumeSession { session })? {
            Message::SessionStatus { n_clients, dim, received, .. } => {
                Ok(SessionResume::Open { n_clients, dim, received })
            }
            Message::RoundComplete { params, .. } => Ok(SessionResume::Complete(params)),
            Message::Reject { code, detail } => Err(ClientError::Rejected { code, detail }),
            other => Err(ClientError::Unexpected { got: format!("{other:?}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn schedules_are_seed_deterministic_and_monotone() {
        let a: Vec<u64> = BackoffSchedule::new(7).take(12).collect();
        let b: Vec<u64> = BackoffSchedule::new(7).take(12).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "monotone non-decreasing: {a:?}");
        assert!(a.iter().all(|&d| d <= BACKOFF_MAX_NANOS));
        assert!(a[0] >= BACKOFF_BASE_NANOS);
        let c: Vec<u64> = BackoffSchedule::new(8).take(12).collect();
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn invalid_policies_are_typed_errors() {
        let no_tries = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        assert!(no_tries.validate().is_err());
    }

    /// A transport replaying scripted reply frames; writes are discarded
    /// after capture.
    struct Scripted {
        input: io::Cursor<Vec<u8>>,
        written: Vec<u8>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }
    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl Transport for Scripted {
        fn set_deadline(&mut self, _nanos: Option<u64>) -> io::Result<()> {
            Ok(())
        }
    }

    /// A connector handing out scripted transports; `None` entries fail
    /// the connect itself.
    struct ScriptedConnector {
        conns: VecDeque<Option<Vec<Message>>>,
    }

    impl Connect for ScriptedConnector {
        type T = Scripted;
        fn connect(&mut self) -> io::Result<Scripted> {
            match self.conns.pop_front() {
                Some(Some(replies)) => {
                    let mut input = Vec::new();
                    for m in &replies {
                        wire::write_frame(&mut input, m).unwrap();
                    }
                    Ok(Scripted { input: io::Cursor::new(input), written: Vec::new() })
                }
                Some(None) | None => {
                    Err(io::Error::new(io::ErrorKind::ConnectionRefused, "scripted refusal"))
                }
            }
        }
    }

    fn done(job: u32) -> Message {
        Message::JobDone { job, params_hash: 1, log_hash: 2, rounds: 3, accuracy: 0.5 }
    }

    #[test]
    fn reconnects_after_a_refused_connect() {
        let connector =
            ScriptedConnector { conns: VecDeque::from([None, Some(vec![done(5)])]) };
        let mut client = NetClient::new(connector, RetryPolicy::default(), 11).unwrap();
        let result = client.poll_job(5).unwrap();
        assert_eq!(result.job, 5);
        let stats = client.stats();
        assert_eq!((stats.attempts, stats.connects, stats.transport_errors), (2, 1, 1));
    }

    #[test]
    fn busy_rejections_retry_on_the_same_connection() {
        let busy = Message::Reject { code: RejectCode::Busy, detail: "draining".into() };
        let connector =
            ScriptedConnector { conns: VecDeque::from([Some(vec![busy, done(9)])]) };
        let mut client = NetClient::new(connector, RetryPolicy::default(), 11).unwrap();
        assert_eq!(client.poll_job(9).unwrap().job, 9);
        let stats = client.stats();
        assert_eq!((stats.attempts, stats.connects, stats.retryable_rejects), (2, 1, 1));
    }

    #[test]
    fn bad_frame_rejections_reconnect_to_resync() {
        let bad = Message::Reject { code: RejectCode::BadFrame, detail: "checksum".into() };
        let connector = ScriptedConnector {
            conns: VecDeque::from([Some(vec![bad]), Some(vec![done(3)])]),
        };
        let mut client = NetClient::new(connector, RetryPolicy::default(), 11).unwrap();
        assert_eq!(client.poll_job(3).unwrap().job, 3);
        assert_eq!(client.stats().connects, 2, "BadFrame must force a fresh connection");
    }

    #[test]
    fn non_retryable_rejections_surface_typed() {
        let unknown = Message::Reject { code: RejectCode::UnknownJob, detail: "nope".into() };
        let connector = ScriptedConnector { conns: VecDeque::from([Some(vec![unknown])]) };
        let mut client = NetClient::new(connector, RetryPolicy::default(), 11).unwrap();
        assert_eq!(
            client.poll_job(4).unwrap_err(),
            ClientError::Rejected { code: RejectCode::UnknownJob, detail: "nope".into() }
        );
        assert_eq!(client.stats().attempts, 1, "no retry on a terminal rejection");
    }

    #[test]
    fn exhaustion_is_bounded_and_typed() {
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let connector = ScriptedConnector { conns: VecDeque::new() };
        let mut client = NetClient::new(connector, policy, 11).unwrap();
        let start = std::time::Instant::now();
        let Err(ClientError::Exhausted { attempts, last }) = client.ping() else {
            panic!("expected exhaustion");
        };
        assert_eq!(attempts, 3);
        assert!(!last.is_empty());
        assert_eq!(client.stats().attempts, 3);
        // The two retries slept the first request's two scheduled delays.
        let slept: u64 = BackoffSchedule::new(mix(11, 0)).take(2).sum();
        assert!(start.elapsed() >= Duration::from_nanos(slept), "retries must sleep their backoff");
    }
}
