//! The length-prefixed, checksummed binary wire protocol of the federation
//! service.
//!
//! A frame is `[u32 LE payload length][u32 LE checksum][payload]`; a payload
//! is `[u8 tag][fields…]` with every field in little-endian fixed-width
//! encoding (floats as their IEEE-754 bit patterns, so values — including
//! NaNs a guard must judge — survive the wire bit-for-bit). Variable-length
//! fields (strings, parameter vectors, id lists) carry their own `u32 LE`
//! element count. There is no padding and no alignment: the layout is a pure
//! function of the message, which is what lets the golden byte-layout test
//! pin the format.
//!
//! The checksum is CRC-32C (Castagnoli) over the length prefix followed by
//! the payload, verified before the payload is decoded. It is guaranteed to
//! detect every single-bit error and every error burst of up to 32 bits in
//! the length prefix or payload: such corruption in transit decodes to a
//! typed [`WireError::ChecksumMismatch`], never to a valid message (see
//! `tests/wire_props.rs` for the exhaustive single-bit-flip and burst
//! properties). It is computed slicing-by-16 over tables built at compile
//! time, in safe Rust.
//!
//! CRC-32C is the protocol's third revision; the second checksummed frames
//! with FNV-1a-32 over the same bytes, and every other byte of a frame is
//! unchanged between the two. Peers on different revisions therefore fail
//! closed: each request's checksum mismatches, the server answers
//! [`RejectCode::BadFrame`], and no message is ever decoded from a frame
//! the other side checksummed differently.
//!
//! Decoding is total and typed: every malformed input maps to a
//! [`WireError`] — truncated or oversized frames, checksum mismatches,
//! unknown tags, invalid bools/UTF-8, trailing bytes — never a panic, so the
//! service can reject a bad frame and keep serving.
//!
//! The message set covers the service's entry paths plus the resilience
//! layer introduced with the protocol's second revision:
//!
//! * **Valuation jobs** — [`Message::SubmitJob`] carries a *client-chosen*
//!   job id and a self-contained seeded [`JobSpec`]; the service replies
//!   [`Message::JobDone`] (result hashes + accuracy) or [`Message::Reject`]
//!   with a typed [`RejectCode`]. Re-submitting the same id with the same
//!   spec replays the recorded result instead of re-running the federation,
//!   so a retry after a lost reply is safe; [`Message::PollJob`] retrieves a
//!   recorded result by id from any later connection.
//! * **Client updates** — [`Message::OpenSession`] announces a round's
//!   aggregation session, each participant streams a
//!   [`Message::SubmitUpdate`], and the closing update is answered with
//!   [`Message::RoundComplete`] carrying the fused parameters.
//!   [`Message::ResumeSession`] lets a reconnecting client learn which
//!   updates a session already holds ([`Message::SessionStatus`]) or
//!   recover the fused result of a completed round.
//! * **Liveness** — [`Message::Ping`]/[`Message::Pong`] heartbeats carry a
//!   caller-chosen nonce so a client can distinguish a live server from a
//!   half-open connection.

use std::fmt;
use std::io::{Read, Write};

/// Hard ceiling on a frame's payload length. Anything larger is rejected
/// with [`WireError::Oversized`] *before* allocation — a corrupt or hostile
/// length prefix must not OOM the server.
pub const MAX_FRAME: usize = 1 << 24;

/// Bytes of frame header preceding the payload: `u32` payload length plus
/// `u32` checksum.
pub const FRAME_HEADER: usize = 8;

/// The CRC-32C (Castagnoli) generator polynomial, bit-reflected.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slicing-by-16 tables: `CRC32C_TABLES[0][b]` is the CRC register after
/// shifting byte `b` in, and `CRC32C_TABLES[k][b]` the register after `k`
/// further zero bytes, so one 16-byte block folds in with 16 lookups.
static CRC32C_TABLES: [[u32; 256]; 16] = crc32c_tables();

const fn crc32c_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32C_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Shifts `bytes` through the CRC-32C register `crc` (no init or final
/// XOR): 16 bytes per step, then the tail byte by byte.
fn crc32c_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let at = |k: usize, byte: u8| CRC32C_TABLES[k][usize::from(byte)];
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        let [x0, x1, x2, x3] = (crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
        // Only the first four lookups wait on `crc`. The other twelve are
        // combined on their own, so the chain from one block's `crc` to the
        // next is one load and three XORs deep, not sixteen XORs.
        let rest = (at(11, b[4]) ^ at(10, b[5]) ^ at(9, b[6]) ^ at(8, b[7]))
            ^ (at(7, b[8]) ^ at(6, b[9]) ^ at(5, b[10]) ^ at(4, b[11]))
            ^ (at(3, b[12]) ^ at(2, b[13]) ^ at(1, b[14]) ^ at(0, b[15]));
        crc = (at(15, x0) ^ at(14, x1)) ^ (at(13, x2) ^ at(12, x3)) ^ rest;
    }
    for &b in tail {
        crc = (crc >> 8) ^ at(0, crc as u8 ^ b);
    }
    crc
}

/// CRC-32C over the length prefix (as `u32` LE bytes) followed by the
/// payload — the frame checksum (reflected Castagnoli polynomial
/// `0x82F6_3B78`, init and final XOR `0xFFFF_FFFF`). A CRC of degree 32 is
/// guaranteed to detect every single-bit error and every error burst of up
/// to 32 bits in the hashed bytes.
pub fn frame_checksum(payload: &[u8]) -> u32 {
    let crc = crc32c_update(!0, &(payload.len() as u32).to_le_bytes());
    !crc32c_update(crc, payload)
}

/// Errors produced while encoding, decoding, or transporting frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a field was complete.
    Truncated {
        /// The field being decoded.
        what: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A frame's declared payload length exceeds [`MAX_FRAME`].
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The ceiling it violated.
        max: usize,
    },
    /// The frame checksum did not match its length prefix + payload — bit
    /// corruption in transit.
    ChecksumMismatch {
        /// Checksum declared by the frame header.
        expected: u32,
        /// Checksum recomputed over the received bytes.
        actual: u32,
    },
    /// The payload's leading tag byte names no known message.
    UnknownTag {
        /// The offending tag.
        tag: u8,
    },
    /// A field decoded to an invalid value (non-boolean byte, bad UTF-8,
    /// unknown reject code).
    BadValue {
        /// The field being decoded.
        what: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// The payload held bytes beyond the end of the message.
    Trailing {
        /// Number of undecoded bytes left over.
        extra: usize,
    },
    /// The underlying transport failed.
    Io {
        /// The I/O error kind (the portable, comparable part).
        kind: std::io::ErrorKind,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what, needed, available } => {
                write!(f, "truncated frame: {what} needs {needed} bytes, {available} available")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: declared payload of {len} bytes exceeds {max}")
            }
            WireError::ChecksumMismatch { expected, actual } => {
                write!(f, "frame checksum mismatch: header says {expected:#010X}, bytes hash to {actual:#010X}")
            }
            WireError::UnknownTag { tag } => write!(f, "unknown message tag {tag:#04X}"),
            WireError::BadValue { what, detail } => write!(f, "bad {what}: {detail}"),
            WireError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            WireError::Io { kind } => write!(f, "transport error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io { kind: e.kind() }
    }
}

/// Convenience result alias for wire operations.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// A self-contained federation job: everything the service needs to rebuild
/// and run one seeded federation, with no out-of-band state. Field codes
/// (`attack`, `rule`) are validated by the *service* against its catalogue —
/// the wire layer transports any byte and the executor rejects unknown ones
/// with a typed error, so the protocol doesn't have to change when a rule is
/// added.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Seed deriving the workload, fault plan, and adversary plan.
    pub seed: u64,
    /// Federation size.
    pub n_clients: u32,
    /// Rows in each client's synthetic shard.
    pub rows_per_client: u32,
    /// Communication rounds.
    pub rounds: u32,
    /// Local epochs per round.
    pub local_epochs: u32,
    /// Run clients on scoped threads within each round.
    pub parallel: bool,
    /// Per-round dropout probability.
    pub dropout: f64,
    /// Per-round straggler probability.
    pub straggler: f64,
    /// Per-round corrupted-upload probability.
    pub corrupt: f64,
    /// Fraction of clients rewriting their updates adversarially.
    pub adversary_frac: f64,
    /// Attack code (see [`crate::server`]'s catalogue; `0` = none).
    pub attack: u8,
    /// Aggregation-rule code (`0` = weighted FedAvg).
    pub rule: u8,
    /// Round-schedule code (`0` = full participation, `1` = uniform
    /// sampling, `2` = weighted sampling, `3` = asynchronous arrival).
    pub schedule: u8,
    /// Fraction of clients sampled per round (schedule codes 1-2).
    pub sample_frac: f64,
    /// Largest asynchronous arrival delay in rounds (schedule code 3).
    pub max_staleness: u32,
    /// Per-round-of-age staleness weight decay (schedule code 3).
    pub stale_decay: f64,
    /// Topology code (`0` = star, `1` = gossip neighbor-exchange).
    pub topology: u8,
    /// Peers each node pulls from per round (topology code 1).
    pub gossip_degree: u32,
}

impl JobSpec {
    /// A healthy, attack-free job — the baseline the soak test perturbs.
    pub fn clean(seed: u64, n_clients: u32, rounds: u32) -> Self {
        JobSpec {
            seed,
            n_clients,
            rows_per_client: 40,
            rounds,
            local_epochs: 1,
            parallel: false,
            dropout: 0.0,
            straggler: 0.0,
            corrupt: 0.0,
            adversary_frac: 0.0,
            attack: 0,
            rule: 0,
            schedule: 0,
            sample_frac: 0.5,
            max_staleness: 2,
            stale_decay: 0.5,
            topology: 0,
            gossip_degree: 2,
        }
    }

    /// The spec's canonical wire encoding — what the service compares to
    /// decide whether a re-submitted job id is an idempotent replay (same
    /// bytes) or a conflicting duplicate (different bytes). Byte comparison
    /// is deliberate: it is bit-exact even for NaN probabilities that defeat
    /// `PartialEq`.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_spec(&mut out, self);
        out
    }
}

/// Why the service refused a request. Carried by [`Message::Reject`] so the
/// refusal is *observable on the wire* — a retrying client can tell a
/// transient condition ([`RejectCode::Busy`], [`RejectCode::BadFrame`]) from
/// a terminal one ([`RejectCode::DuplicateJob`], [`RejectCode::Invalid`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectCode {
    /// The request failed validation (the detail renders the typed error).
    Invalid = 0,
    /// The request frame failed to decode (checksum mismatch, unknown tag,
    /// trailing bytes). Retryable: re-send the frame.
    BadFrame = 1,
    /// A job id was re-submitted with a *different* spec. The original
    /// submission stands; pick a fresh id.
    DuplicateJob = 2,
    /// A polled job id was never submitted.
    UnknownJob = 3,
    /// The service cannot take the request right now (its session table is
    /// full of open rounds). Retryable: back off and re-send.
    Busy = 4,
    /// The job or session aged out of the server's bounded store.
    Expired = 5,
    /// A client re-submitted a session update with different bytes than the
    /// recorded one. The recorded update stands.
    DuplicateUpdate = 6,
    /// The session id names no open or completed session.
    UnknownSession = 7,
    /// A server-to-client message arrived as a request.
    Protocol = 8,
}

impl RejectCode {
    /// Display name (used in deterministic log renderings).
    pub fn name(&self) -> &'static str {
        match self {
            RejectCode::Invalid => "invalid",
            RejectCode::BadFrame => "bad-frame",
            RejectCode::DuplicateJob => "duplicate-job",
            RejectCode::UnknownJob => "unknown-job",
            RejectCode::Busy => "busy",
            RejectCode::Expired => "expired",
            RejectCode::DuplicateUpdate => "duplicate-update",
            RejectCode::UnknownSession => "unknown-session",
            RejectCode::Protocol => "protocol",
        }
    }

    /// Whether a client should retry the same request after this rejection.
    /// `Busy` clears when the server drains; `BadFrame` means the request
    /// was corrupted in transit, so a clean re-send can succeed.
    pub fn retryable(&self) -> bool {
        matches!(self, RejectCode::Busy | RejectCode::BadFrame)
    }

    fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0 => RejectCode::Invalid,
            1 => RejectCode::BadFrame,
            2 => RejectCode::DuplicateJob,
            3 => RejectCode::UnknownJob,
            4 => RejectCode::Busy,
            5 => RejectCode::Expired,
            6 => RejectCode::DuplicateUpdate,
            7 => RejectCode::UnknownSession,
            8 => RejectCode::Protocol,
            _ => return None,
        })
    }
}

impl fmt::Display for RejectCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One protocol message. See the module docs for the request/response
/// pairing.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Submit a seeded federation job under a client-chosen id (tag `0x01`).
    /// Re-submitting the same id with the same spec is an idempotent replay.
    SubmitJob {
        /// Client-chosen job id — the idempotency key.
        job: u32,
        /// The job itself.
        spec: JobSpec,
    },
    /// A job finished: deterministic result fingerprints (tag `0x02`).
    JobDone {
        /// Id of the finished job.
        job: u32,
        /// FNV-1a over the trained parameter bits.
        params_hash: u64,
        /// FNV-1a over the rendered federation log.
        log_hash: u64,
        /// Rounds the federation committed.
        rounds: u32,
        /// Training accuracy of the final global model on the job workload.
        accuracy: f64,
    },
    /// Announce an aggregation session expecting `n_clients` updates of
    /// `dim` parameters each (tag `0x03`). Re-opening an existing session
    /// with the same shape is an idempotent replay of the acknowledgement.
    OpenSession {
        /// Caller-chosen session id.
        session: u32,
        /// Updates the round will wait for.
        n_clients: u32,
        /// Parameter dimensionality of every update.
        dim: u32,
    },
    /// One client's parameter upload into an open session (tag `0x04`).
    /// Re-submitting byte-identical parameters replays the original reply.
    SubmitUpdate {
        /// Session the update belongs to.
        session: u32,
        /// Submitting client id.
        client: u32,
        /// FedAvg weight (the client's row count).
        weight: u32,
        /// The parameter vector, bit-exact.
        params: Vec<f32>,
    },
    /// The update was recorded; the session still waits for more (tag
    /// `0x05`).
    Ack {
        /// Session acknowledging.
        session: u32,
        /// Client whose update was recorded.
        client: u32,
    },
    /// The session's final update arrived; here are the aggregated
    /// parameters (tag `0x06`).
    RoundComplete {
        /// The completed session.
        session: u32,
        /// The fused parameter vector.
        params: Vec<f32>,
    },
    /// The request was refused; `code` types the refusal and `detail`
    /// renders it (tag `0x07`).
    Reject {
        /// Machine-readable refusal category.
        code: RejectCode,
        /// Human-readable rendering of the cause.
        detail: String,
    },
    /// Close the connection after draining in-flight replies (tag `0x08`).
    Shutdown,
    /// Liveness probe carrying a caller-chosen nonce (tag `0x09`).
    Ping {
        /// Echoed back verbatim by [`Message::Pong`].
        nonce: u64,
    },
    /// Heartbeat reply echoing the probe's nonce (tag `0x0A`).
    Pong {
        /// The nonce of the [`Message::Ping`] being answered.
        nonce: u64,
    },
    /// Ask for the recorded result of a previously submitted job (tag
    /// `0x0B`). Answered with [`Message::JobDone`], or [`Message::Reject`]
    /// typed `UnknownJob`/`Busy`/`Expired`.
    PollJob {
        /// The job id to look up.
        job: u32,
    },
    /// Ask what an aggregation session already holds, after a reconnect
    /// (tag `0x0C`). Answered with [`Message::SessionStatus`] for an open
    /// session, [`Message::RoundComplete`] for a completed one, or a typed
    /// [`Message::Reject`].
    ResumeSession {
        /// The session id to resume.
        session: u32,
    },
    /// An open session's progress: which clients have reported (tag
    /// `0x0D`).
    SessionStatus {
        /// The session being described.
        session: u32,
        /// Updates the round waits for in total.
        n_clients: u32,
        /// Parameter dimensionality of every update.
        dim: u32,
        /// Ids of clients whose updates are recorded, ascending.
        received: Vec<u32>,
    },
}

const TAG_SUBMIT_JOB: u8 = 0x01;
const TAG_JOB_DONE: u8 = 0x02;
const TAG_OPEN_SESSION: u8 = 0x03;
const TAG_SUBMIT_UPDATE: u8 = 0x04;
const TAG_ACK: u8 = 0x05;
const TAG_ROUND_COMPLETE: u8 = 0x06;
const TAG_REJECT: u8 = 0x07;
const TAG_SHUTDOWN: u8 = 0x08;
const TAG_PING: u8 = 0x09;
const TAG_PONG: u8 = 0x0A;
const TAG_POLL_JOB: u8 = 0x0B;
const TAG_RESUME_SESSION: u8 = 0x0C;
const TAG_SESSION_STATUS: u8 = 0x0D;

// ---- encoding ----------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// A `u32`-counted run of 4-byte little-endian words: the buffer grows
/// once, then each word is written into its own chunk.
fn put_words<T: Copy>(out: &mut Vec<u8>, items: &[T], word: impl Fn(T) -> [u8; 4]) {
    put_u32(out, items.len() as u32);
    let start = out.len();
    out.resize(start + 4 * items.len(), 0);
    for (chunk, &item) in out[start..].as_chunks_mut::<4>().0.iter_mut().zip(items) {
        *chunk = word(item);
    }
}

fn put_params(out: &mut Vec<u8>, params: &[f32]) {
    put_words(out, params, |p| p.to_bits().to_le_bytes());
}

fn put_ids(out: &mut Vec<u8>, ids: &[u32]) {
    put_words(out, ids, u32::to_le_bytes);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_spec(out: &mut Vec<u8>, spec: &JobSpec) {
    put_u64(out, spec.seed);
    put_u32(out, spec.n_clients);
    put_u32(out, spec.rows_per_client);
    put_u32(out, spec.rounds);
    put_u32(out, spec.local_epochs);
    put_bool(out, spec.parallel);
    put_f64(out, spec.dropout);
    put_f64(out, spec.straggler);
    put_f64(out, spec.corrupt);
    put_f64(out, spec.adversary_frac);
    out.push(spec.attack);
    out.push(spec.rule);
    out.push(spec.schedule);
    put_f64(out, spec.sample_frac);
    put_u32(out, spec.max_staleness);
    put_f64(out, spec.stale_decay);
    out.push(spec.topology);
    put_u32(out, spec.gossip_degree);
}

/// Encodes a message into its payload bytes (no frame header).
pub fn encode(msg: &Message) -> Vec<u8> {
    encode_after(Vec::new(), msg)
}

/// Appends a message's payload bytes to `out` and returns it.
fn encode_after(mut out: Vec<u8>, msg: &Message) -> Vec<u8> {
    match msg {
        Message::SubmitJob { job, spec } => {
            out.push(TAG_SUBMIT_JOB);
            put_u32(&mut out, *job);
            put_spec(&mut out, spec);
        }
        Message::JobDone { job, params_hash, log_hash, rounds, accuracy } => {
            out.push(TAG_JOB_DONE);
            put_u32(&mut out, *job);
            put_u64(&mut out, *params_hash);
            put_u64(&mut out, *log_hash);
            put_u32(&mut out, *rounds);
            put_f64(&mut out, *accuracy);
        }
        Message::OpenSession { session, n_clients, dim } => {
            out.push(TAG_OPEN_SESSION);
            put_u32(&mut out, *session);
            put_u32(&mut out, *n_clients);
            put_u32(&mut out, *dim);
        }
        Message::SubmitUpdate { session, client, weight, params } => {
            out.push(TAG_SUBMIT_UPDATE);
            put_u32(&mut out, *session);
            put_u32(&mut out, *client);
            put_u32(&mut out, *weight);
            put_params(&mut out, params);
        }
        Message::Ack { session, client } => {
            out.push(TAG_ACK);
            put_u32(&mut out, *session);
            put_u32(&mut out, *client);
        }
        Message::RoundComplete { session, params } => {
            out.push(TAG_ROUND_COMPLETE);
            put_u32(&mut out, *session);
            put_params(&mut out, params);
        }
        Message::Reject { code, detail } => {
            out.push(TAG_REJECT);
            out.push(*code as u8);
            put_str(&mut out, detail);
        }
        Message::Shutdown => out.push(TAG_SHUTDOWN),
        Message::Ping { nonce } => {
            out.push(TAG_PING);
            put_u64(&mut out, *nonce);
        }
        Message::Pong { nonce } => {
            out.push(TAG_PONG);
            put_u64(&mut out, *nonce);
        }
        Message::PollJob { job } => {
            out.push(TAG_POLL_JOB);
            put_u32(&mut out, *job);
        }
        Message::ResumeSession { session } => {
            out.push(TAG_RESUME_SESSION);
            put_u32(&mut out, *session);
        }
        Message::SessionStatus { session, n_clients, dim, received } => {
            out.push(TAG_SESSION_STATUS);
            put_u32(&mut out, *session);
            put_u32(&mut out, *n_clients);
            put_u32(&mut out, *dim);
            put_ids(&mut out, received);
        }
    }
    out
}

// ---- decoding ----------------------------------------------------------

/// Cursor over a payload; every read names its field so truncation errors
/// say what was being decoded. Reads split fixed-size arrays off the
/// remaining bytes, so no read can index out of bounds.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { rest: buf }
    }

    fn truncated(&self, what: &'static str, needed: usize) -> WireError {
        WireError::Truncated { what, needed, available: self.rest.len() }
    }

    fn take(&mut self, what: &'static str, n: usize) -> WireResult<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or_else(|| self.truncated(what, n))?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> WireResult<[u8; N]> {
        let (head, rest) =
            self.rest.split_first_chunk::<N>().ok_or_else(|| self.truncated(what, N))?;
        self.rest = rest;
        Ok(*head)
    }

    fn u8(&mut self, what: &'static str) -> WireResult<u8> {
        let [b] = self.array(what)?;
        Ok(b)
    }

    fn u32(&mut self, what: &'static str) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    fn u64(&mut self, what: &'static str) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    fn f64(&mut self, what: &'static str) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn bool(&mut self, what: &'static str) -> WireResult<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadValue {
                what,
                detail: format!("boolean byte must be 0 or 1, got {b}"),
            }),
        }
    }

    /// A `u32`-counted run of 4-byte little-endian words.
    fn words(&mut self, what: &'static str) -> WireResult<&'a [[u8; 4]]> {
        let len = self.u32(what)? as usize;
        Ok(self.take(what, len.saturating_mul(4))?.as_chunks::<4>().0)
    }

    fn params(&mut self, what: &'static str) -> WireResult<Vec<f32>> {
        Ok(self.words(what)?.iter().map(|&w| f32::from_le_bytes(w)).collect())
    }

    fn ids(&mut self, what: &'static str) -> WireResult<Vec<u32>> {
        Ok(self.words(what)?.iter().map(|&w| u32::from_le_bytes(w)).collect())
    }

    fn string(&mut self, what: &'static str) -> WireResult<String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(what, len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::BadValue { what, detail: e.to_string() })
    }

    fn reject_code(&mut self, what: &'static str) -> WireResult<RejectCode> {
        let b = self.u8(what)?;
        RejectCode::from_u8(b).ok_or_else(|| WireError::BadValue {
            what,
            detail: format!("unknown reject code {b}"),
        })
    }

    fn spec(&mut self) -> WireResult<JobSpec> {
        Ok(JobSpec {
            seed: self.u64("job seed")?,
            n_clients: self.u32("job n_clients")?,
            rows_per_client: self.u32("job rows_per_client")?,
            rounds: self.u32("job rounds")?,
            local_epochs: self.u32("job local_epochs")?,
            parallel: self.bool("job parallel")?,
            dropout: self.f64("job dropout")?,
            straggler: self.f64("job straggler")?,
            corrupt: self.f64("job corrupt")?,
            adversary_frac: self.f64("job adversary_frac")?,
            attack: self.u8("job attack code")?,
            rule: self.u8("job rule code")?,
            schedule: self.u8("job schedule code")?,
            sample_frac: self.f64("job sample_frac")?,
            max_staleness: self.u32("job max_staleness")?,
            stale_decay: self.f64("job stale_decay")?,
            topology: self.u8("job topology code")?,
            gossip_degree: self.u32("job gossip_degree")?,
        })
    }

    fn finish(self) -> WireResult<()> {
        if !self.rest.is_empty() {
            return Err(WireError::Trailing { extra: self.rest.len() });
        }
        Ok(())
    }

    /// A frame header: the declared payload length, bounded by
    /// [`MAX_FRAME`] before anything is allocated for it, and the declared
    /// checksum.
    fn frame_header(&mut self) -> WireResult<(usize, u32)> {
        let len = self.u32("frame length prefix")? as usize;
        if len > MAX_FRAME {
            return Err(WireError::Oversized { len, max: MAX_FRAME });
        }
        Ok((len, self.u32("frame checksum")?))
    }
}

/// Checks a frame's payload against the checksum its header declared, then
/// decodes it — corruption is reported as such, never as a bad field.
fn decode_checked(declared: u32, payload: &[u8]) -> WireResult<Message> {
    let actual = frame_checksum(payload);
    if actual != declared {
        return Err(WireError::ChecksumMismatch { expected: declared, actual });
    }
    decode(payload)
}

/// Decodes one payload (the bytes after the frame header) into a message.
/// The payload must be consumed exactly; leftover bytes are a typed error.
pub fn decode(payload: &[u8]) -> WireResult<Message> {
    let mut c = Cursor::new(payload);
    let msg = match c.u8("message tag")? {
        TAG_SUBMIT_JOB => Message::SubmitJob { job: c.u32("job id")?, spec: c.spec()? },
        TAG_JOB_DONE => Message::JobDone {
            job: c.u32("job id")?,
            params_hash: c.u64("params hash")?,
            log_hash: c.u64("log hash")?,
            rounds: c.u32("rounds")?,
            accuracy: c.f64("accuracy")?,
        },
        TAG_OPEN_SESSION => Message::OpenSession {
            session: c.u32("session id")?,
            n_clients: c.u32("session n_clients")?,
            dim: c.u32("session dim")?,
        },
        TAG_SUBMIT_UPDATE => Message::SubmitUpdate {
            session: c.u32("session id")?,
            client: c.u32("client id")?,
            weight: c.u32("update weight")?,
            params: c.params("update params")?,
        },
        TAG_ACK => Message::Ack { session: c.u32("session id")?, client: c.u32("client id")? },
        TAG_ROUND_COMPLETE => Message::RoundComplete {
            session: c.u32("session id")?,
            params: c.params("round params")?,
        },
        TAG_REJECT => Message::Reject {
            code: c.reject_code("reject code")?,
            detail: c.string("reject detail")?,
        },
        TAG_SHUTDOWN => Message::Shutdown,
        TAG_PING => Message::Ping { nonce: c.u64("ping nonce")? },
        TAG_PONG => Message::Pong { nonce: c.u64("pong nonce")? },
        TAG_POLL_JOB => Message::PollJob { job: c.u32("job id")? },
        TAG_RESUME_SESSION => Message::ResumeSession { session: c.u32("session id")? },
        TAG_SESSION_STATUS => Message::SessionStatus {
            session: c.u32("session id")?,
            n_clients: c.u32("session n_clients")?,
            dim: c.u32("session dim")?,
            received: c.ids("received client ids")?,
        },
        tag => return Err(WireError::UnknownTag { tag }),
    };
    c.finish()?;
    Ok(msg)
}

/// Frames raw payload bytes: `[u32 LE len][u32 LE checksum][payload]`.
/// Exposed so tests and fault injectors can build frames around arbitrary
/// (even deliberately malformed) payloads with a *valid* header.
pub fn frame_payload(payload: &[u8]) -> WireResult<Vec<u8>> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.extend_from_slice(payload);
    seal(out)
}

/// Encodes a message as a complete frame:
/// `[u32 LE payload len][u32 LE checksum][payload]`. The payload is encoded
/// in place after the header, so the frame is built in one buffer.
pub fn frame(msg: &Message) -> WireResult<Vec<u8>> {
    seal(encode_after(vec![0; FRAME_HEADER], msg))
}

/// Fills in the header of a frame buffer: `FRAME_HEADER` placeholder bytes,
/// then the payload.
fn seal(mut buf: Vec<u8>) -> WireResult<Vec<u8>> {
    let len = buf.len() - FRAME_HEADER;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len, max: MAX_FRAME });
    }
    let checksum = frame_checksum(&buf[FRAME_HEADER..]);
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    buf[4..FRAME_HEADER].copy_from_slice(&checksum.to_le_bytes());
    Ok(buf)
}

/// Decodes one frame from the front of `bytes`, returning the message and
/// the number of bytes consumed. Pure — the in-memory face of
/// [`read_frame`], and what the property tests drive.
///
/// Validation order matters: declared length first (oversized, then
/// truncation against the buffer), checksum second, payload decode last —
/// so a short buffer is always a [`WireError::Truncated`], never
/// misreported as corruption.
pub fn decode_frame(bytes: &[u8]) -> WireResult<(Message, usize)> {
    let mut c = Cursor::new(bytes);
    let (len, declared) = c.frame_header()?;
    let msg = decode_checked(declared, c.take("frame payload", len)?)?;
    Ok((msg, FRAME_HEADER + len))
}

/// Reads one frame from a transport, or `None` on a clean EOF *before the
/// frame's first byte* — the boundary a server uses to tell a politely
/// closed connection from one that died mid-frame (which surfaces as
/// [`WireError::Io`] with `UnexpectedEof`).
pub fn read_frame_opt(r: &mut impl Read) -> WireResult<Option<Message>> {
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0usize;
    while let Some(unread) = header.get_mut(got..).filter(|u| !u.is_empty()) {
        match r.read(unread) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Io { kind: std::io::ErrorKind::UnexpectedEof }),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let (len, declared) = Cursor::new(&header).frame_header()?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    decode_checked(declared, &payload).map(Some)
}

/// Reads one frame from a transport. The length prefix is validated against
/// [`MAX_FRAME`] *before* the payload buffer is allocated, and the checksum
/// before the payload is decoded.
pub fn read_frame(r: &mut impl Read) -> WireResult<Message> {
    match read_frame_opt(r)? {
        Some(msg) => Ok(msg),
        None => Err(WireError::Io { kind: std::io::ErrorKind::UnexpectedEof }),
    }
}

/// Writes one message as a frame to a transport.
pub fn write_frame(w: &mut impl Write, msg: &Message) -> WireResult<()> {
    let bytes = frame(msg)?;
    w.write_all(&bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips() {
        let messages = [
            Message::SubmitJob { job: 3, spec: JobSpec::clean(7, 4, 3) },
            Message::JobDone {
                job: 9,
                params_hash: 0xDEAD_BEEF_0123_4567,
                log_hash: 0x89AB_CDEF_0000_FFFF,
                rounds: 3,
                accuracy: 0.9375,
            },
            Message::OpenSession { session: 1, n_clients: 4, dim: 2 },
            Message::SubmitUpdate {
                session: 1,
                client: 2,
                weight: 40,
                params: vec![1.0, -2.5, f32::NAN, f32::INFINITY],
            },
            Message::Ack { session: 1, client: 2 },
            Message::RoundComplete { session: 1, params: vec![0.25, 0.75] },
            Message::Reject {
                code: RejectCode::Invalid,
                detail: "invalid parameter quorum: …".into(),
            },
            Message::Shutdown,
            Message::Ping { nonce: 0x1234_5678_9ABC_DEF0 },
            Message::Pong { nonce: u64::MAX },
            Message::PollJob { job: 42 },
            Message::ResumeSession { session: 7 },
            Message::SessionStatus { session: 7, n_clients: 4, dim: 9, received: vec![0, 2, 3] },
        ];
        for msg in &messages {
            let bytes = frame(msg).unwrap();
            let (decoded, consumed) = decode_frame(&bytes).unwrap();
            assert_eq!(consumed, bytes.len());
            // NaN != NaN under PartialEq; compare through bit patterns.
            assert_eq!(encode(&decoded), encode(msg), "round trip changed {msg:?}");
        }
    }

    #[test]
    fn streams_carry_frames() {
        let msg = Message::OpenSession { session: 3, n_clients: 2, dim: 8 };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        write_frame(&mut buf, &Message::Shutdown).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), msg);
        assert_eq!(read_frame(&mut r).unwrap(), Message::Shutdown);
        assert_eq!(
            read_frame(&mut r).unwrap_err(),
            WireError::Io { kind: std::io::ErrorKind::UnexpectedEof }
        );
        // The optional face reports the clean boundary as None.
        let mut r = &buf[buf.len()..];
        assert_eq!(read_frame_opt(&mut r).unwrap(), None);
    }

    #[test]
    fn mid_frame_eof_is_not_a_clean_close() {
        let bytes = frame(&Message::Ack { session: 1, client: 2 }).unwrap();
        // Cut inside the header: the reader must report the death, not None.
        let mut r = &bytes[..5];
        assert_eq!(
            read_frame_opt(&mut r).unwrap_err(),
            WireError::Io { kind: std::io::ErrorKind::UnexpectedEof }
        );
        // Cut inside the payload: same.
        let mut r = &bytes[..bytes.len() - 1];
        assert_eq!(
            read_frame_opt(&mut r).unwrap_err(),
            WireError::Io { kind: std::io::ErrorKind::UnexpectedEof }
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, (MAX_FRAME + 1) as u32);
        assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            WireError::Oversized { len: MAX_FRAME + 1, max: MAX_FRAME }
        );
        // The streaming face needs the full header before it can judge.
        bytes.extend_from_slice(&[0u8; 4]);
        let mut r = &bytes[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err(),
            WireError::Oversized { len: MAX_FRAME + 1, max: MAX_FRAME }
        );
    }

    #[test]
    fn payloads_past_max_frame_are_not_framed() {
        let oversized = WireError::Oversized { len: MAX_FRAME + 1, max: MAX_FRAME };
        assert_eq!(frame_payload(&vec![0; MAX_FRAME + 1]).unwrap_err(), oversized);
        // Tag, session and count take 9 bytes, so (MAX_FRAME - 8) / 4
        // floats make a payload of exactly MAX_FRAME + 1 bytes.
        let params = vec![0.5; (MAX_FRAME - 8) / 4];
        assert_eq!(frame(&Message::RoundComplete { session: 1, params }).unwrap_err(), oversized);
    }

    #[test]
    fn corrupted_payload_is_a_checksum_mismatch() {
        let mut bytes = frame(&Message::Ping { nonce: 7 }).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            decode_frame(&bytes).unwrap_err(),
            WireError::ChecksumMismatch { .. }
        ));
        let mut r = &bytes[..];
        assert!(matches!(
            read_frame(&mut r).unwrap_err(),
            WireError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn trailing_bytes_are_a_typed_error() {
        let mut payload = encode(&Message::Shutdown);
        payload.push(0xAA);
        assert_eq!(decode(&payload).unwrap_err(), WireError::Trailing { extra: 1 });
    }

    #[test]
    fn non_boolean_byte_is_a_typed_error() {
        let mut payload = encode(&Message::SubmitJob { job: 0, spec: JobSpec::clean(1, 2, 1) });
        // The `parallel` bool sits after tag(1) + job(4) + seed(8) + 4 u32s(16).
        payload[29] = 7;
        assert!(matches!(
            decode(&payload).unwrap_err(),
            WireError::BadValue { what: "job parallel", .. }
        ));
    }

    #[test]
    fn unknown_reject_codes_are_typed_errors() {
        let mut payload = encode(&Message::Reject { code: RejectCode::Busy, detail: "x".into() });
        payload[1] = 0xEE;
        assert!(matches!(
            decode(&payload).unwrap_err(),
            WireError::BadValue { what: "reject code", .. }
        ));
    }

    #[test]
    fn canonical_spec_bytes_track_every_field() {
        let spec = JobSpec::clean(9, 4, 3);
        let same = JobSpec::clean(9, 4, 3);
        assert_eq!(spec.canonical_bytes(), same.canonical_bytes());
        let other = JobSpec { dropout: 0.5, ..JobSpec::clean(9, 4, 3) };
        assert_ne!(spec.canonical_bytes(), other.canonical_bytes());
        // The scheduling/topology extension fields are tracked too.
        for other in [
            JobSpec { schedule: 1, ..JobSpec::clean(9, 4, 3) },
            JobSpec { sample_frac: 0.25, ..JobSpec::clean(9, 4, 3) },
            JobSpec { max_staleness: 5, ..JobSpec::clean(9, 4, 3) },
            JobSpec { stale_decay: 0.9, ..JobSpec::clean(9, 4, 3) },
            JobSpec { topology: 1, ..JobSpec::clean(9, 4, 3) },
            JobSpec { gossip_degree: 3, ..JobSpec::clean(9, 4, 3) },
        ] {
            assert_ne!(spec.canonical_bytes(), other.canonical_bytes());
        }
    }

    #[test]
    fn scheduled_job_specs_round_trip() {
        // A sampled-gossip job and an async job survive encode -> decode.
        for spec in [
            JobSpec {
                schedule: 1,
                sample_frac: 0.5,
                topology: 1,
                gossip_degree: 2,
                ..JobSpec::clean(11, 6, 4)
            },
            JobSpec {
                schedule: 3,
                max_staleness: 3,
                stale_decay: 0.75,
                ..JobSpec::clean(12, 5, 6)
            },
        ] {
            let msg = Message::SubmitJob { job: 7, spec };
            let decoded = decode(&encode(&msg)).unwrap();
            assert_eq!(decoded, msg);
        }
    }
}
