//! Seeded, deterministic *network* fault injection — [`crate::faults`]'s
//! philosophy applied to the transport layer.
//!
//! A [`NetFaultPlan`] is an explicit, inspectable schedule of transport
//! faults sampled once from a [`NetFaultSpec`] and a seed: the plan decides
//! up front which I/O operation suffers which fault, so a chaos run is a
//! pure function of `(spec, seed)` and every failure is reproducible from
//! the log line that reported it. [`ChaosTransport`] wraps any
//! `Read`/`Write` transport and injects the planned faults:
//!
//! * **Split writes** — a frame leaves in several partial `write` calls,
//!   exercising the reader's short-read loop.
//! * **Bit flips** — one bit of a written or read buffer is inverted; the
//!   frame checksum ([`crate::wire::frame_checksum`]) must catch it as a
//!   typed [`crate::wire::WireError::ChecksumMismatch`].
//! * **Truncated writes** — part of a frame leaves, then the link breaks:
//!   the peer sees a mid-frame disconnect.
//! * **Stalls** — *virtual* latency: a stall of `nanos` beyond the
//!   configured deadline surfaces as a `TimedOut` error exactly as a real
//!   read deadline would, with no wall-clock sleeping — chaos runs stay
//!   fast and byte-deterministic.
//! * **Breaks / EOFs** — the link dies (sticky error) or half-closes
//!   (sticky `Ok(0)`), mid-conversation.
//!
//! The module also provides [`duplex`], an in-memory bidirectional pipe
//! implementing [`crate::netclient::Transport`] (with real read deadlines
//! via condvar timeouts), so a full client/server/chaos conversation runs
//! in one process with no sockets.

use ctfl_core::error::{CoreError, Result};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::netclient::Transport;

/// A fault injected into one `write` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Only part of the buffer leaves this call (a short write); the rest
    /// becomes later calls. `at` seeds where the split lands.
    Split {
        /// Raw split point, reduced modulo the buffer length at use.
        at: u32,
    },
    /// One bit of the written bytes is inverted in flight.
    FlipBit {
        /// Raw bit position, reduced modulo the buffer's bit length.
        pos: u32,
    },
    /// A prefix of the buffer leaves, then the link breaks — the peer sees
    /// a mid-frame disconnect.
    Truncate {
        /// Raw cut point, reduced modulo the buffer length.
        at: u32,
    },
    /// The write stalls for this much *virtual* time; past the configured
    /// deadline it surfaces as `TimedOut`.
    Stall {
        /// Virtual stall duration in nanoseconds.
        nanos: u64,
    },
    /// The link breaks before anything leaves (sticky error).
    Break,
}

/// A fault injected into one `read` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// At most one byte is delivered (a short read).
    Short,
    /// One bit of the delivered bytes is inverted.
    FlipBit {
        /// Raw bit position, reduced modulo the delivered bit length.
        pos: u32,
    },
    /// The read stalls for this much *virtual* time; past the configured
    /// deadline it surfaces as `TimedOut`.
    Stall {
        /// Virtual stall duration in nanoseconds.
        nanos: u64,
    },
    /// The link breaks (sticky error).
    Break,
    /// The link half-closes: this and every later read returns `Ok(0)`.
    Eof,
}

/// Per-operation fault probabilities for [`NetFaultPlan::try_generate`].
/// Each `write`/`read` call rolls its lane's faults in a fixed order
/// (first hit wins), so a plan is a pure function of `(spec, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultSpec {
    /// P(split) per write call.
    pub split_write: f64,
    /// P(bit flip) per write call.
    pub flip_write: f64,
    /// P(truncate-then-break) per write call.
    pub truncate_write: f64,
    /// P(stall) per write call.
    pub stall_write: f64,
    /// P(break) per write call.
    pub break_write: f64,
    /// P(short read) per read call.
    pub short_read: f64,
    /// P(bit flip) per read call.
    pub flip_read: f64,
    /// P(stall) per read call.
    pub stall_read: f64,
    /// P(break) per read call.
    pub break_read: f64,
    /// P(half-close EOF) per read call.
    pub eof_read: f64,
    /// Virtual duration of every injected stall, in nanoseconds.
    pub stall_nanos: u64,
}

impl Default for NetFaultSpec {
    /// The quiet network: no faults, 50ms virtual stalls if any are added.
    fn default() -> Self {
        NetFaultSpec {
            split_write: 0.0,
            flip_write: 0.0,
            truncate_write: 0.0,
            stall_write: 0.0,
            break_write: 0.0,
            short_read: 0.0,
            flip_read: 0.0,
            stall_read: 0.0,
            break_read: 0.0,
            eof_read: 0.0,
            stall_nanos: 50_000_000,
        }
    }
}

impl NetFaultSpec {
    /// Validates every probability into `[0, 1]`, as a typed error.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("split_write", self.split_write),
            ("flip_write", self.flip_write),
            ("truncate_write", self.truncate_write),
            ("stall_write", self.stall_write),
            ("break_write", self.break_write),
            ("short_read", self.short_read),
            ("flip_read", self.flip_read),
            ("stall_read", self.stall_read),
            ("break_read", self.break_read),
            ("eof_read", self.eof_read),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(CoreError::InvalidParameter {
                    name: "net fault spec",
                    message: format!("{name} probability {p} outside [0, 1]"),
                });
            }
        }
        Ok(())
    }
}

/// An explicit schedule of transport faults: which write/read operation
/// (0-based per-transport counters) suffers what. Sorted by operation
/// index; lookups are binary searches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    write: Vec<(u64, WriteFault)>,
    read: Vec<(u64, ReadFault)>,
}

impl NetFaultPlan {
    /// The healthy network: no faults at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Samples a plan covering `ops` write and `ops` read operations.
    ///
    /// Panics on probabilities outside `[0, 1]` — a programming error in
    /// test/experiment code. Untrusted inputs go through
    /// [`NetFaultPlan::try_generate`].
    pub fn generate(ops: u64, spec: &NetFaultSpec, seed: u64) -> Self {
        Self::try_generate(ops, spec, seed).expect("valid net fault spec")
    }

    /// [`NetFaultPlan::generate`] with typed-error validation instead of
    /// assertions.
    pub fn try_generate(ops: u64, spec: &NetFaultSpec, seed: u64) -> Result<Self> {
        spec.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = NetFaultPlan::default();
        for op in 0..ops {
            // Fixed roll order per op; first hit wins; parameters are drawn
            // only on a hit. One sequential RNG stream keeps the plan a
            // pure function of (ops, spec, seed).
            for (p, kind) in [
                (spec.split_write, 0u8),
                (spec.flip_write, 1),
                (spec.truncate_write, 2),
                (spec.stall_write, 3),
                (spec.break_write, 4),
            ] {
                if p > 0.0 && rng.gen_range(0.0..1.0) < p {
                    let fault = match kind {
                        0 => WriteFault::Split { at: rng.gen::<u32>() },
                        1 => WriteFault::FlipBit { pos: rng.gen::<u32>() },
                        2 => WriteFault::Truncate { at: rng.gen::<u32>() },
                        3 => WriteFault::Stall { nanos: spec.stall_nanos },
                        _ => WriteFault::Break,
                    };
                    plan.write.push((op, fault));
                    break;
                }
            }
            for (p, kind) in [
                (spec.short_read, 0u8),
                (spec.flip_read, 1),
                (spec.stall_read, 2),
                (spec.break_read, 3),
                (spec.eof_read, 4),
            ] {
                if p > 0.0 && rng.gen_range(0.0..1.0) < p {
                    let fault = match kind {
                        0 => ReadFault::Short,
                        1 => ReadFault::FlipBit { pos: rng.gen::<u32>() },
                        2 => ReadFault::Stall { nanos: spec.stall_nanos },
                        3 => ReadFault::Break,
                        _ => ReadFault::Eof,
                    };
                    plan.read.push((op, fault));
                    break;
                }
            }
        }
        Ok(plan)
    }

    /// Adds (or replaces) a fault on write operation `op` — the explicit
    /// builder for targeted scenarios.
    pub fn with_write_fault(mut self, op: u64, fault: WriteFault) -> Self {
        match self.write.binary_search_by_key(&op, |(o, _)| *o) {
            Ok(i) => self.write[i] = (op, fault),
            Err(i) => self.write.insert(i, (op, fault)),
        }
        self
    }

    /// Adds (or replaces) a fault on read operation `op`.
    pub fn with_read_fault(mut self, op: u64, fault: ReadFault) -> Self {
        match self.read.binary_search_by_key(&op, |(o, _)| *o) {
            Ok(i) => self.read[i] = (op, fault),
            Err(i) => self.read.insert(i, (op, fault)),
        }
        self
    }

    /// The scheduled write faults, ascending by operation index.
    pub fn write_faults(&self) -> &[(u64, WriteFault)] {
        &self.write
    }

    /// The scheduled read faults, ascending by operation index.
    pub fn read_faults(&self) -> &[(u64, ReadFault)] {
        &self.read
    }

    fn write_fault(&self, op: u64) -> Option<WriteFault> {
        self.write.binary_search_by_key(&op, |(o, _)| *o).ok().map(|i| self.write[i].1)
    }

    fn read_fault(&self, op: u64) -> Option<ReadFault> {
        self.read.binary_search_by_key(&op, |(o, _)| *o).ok().map(|i| self.read[i].1)
    }
}

/// Counters of injected faults, so a harness can report what a run
/// actually exercised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Split writes injected.
    pub splits: u64,
    /// Bits flipped (either direction).
    pub flips: u64,
    /// Truncate-then-break writes injected.
    pub truncates: u64,
    /// Stalls injected (whether or not they timed out).
    pub stalls: u64,
    /// Short reads injected.
    pub shorts: u64,
    /// Link breaks injected (either direction).
    pub breaks: u64,
    /// Half-close EOFs injected.
    pub eofs: u64,
    /// Stalls that exceeded the configured deadline.
    pub timeouts: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    Live,
    /// Half-closed: reads return `Ok(0)` forever.
    Eof,
    /// Dead: every operation fails with this kind.
    Broken(io::ErrorKind),
}

/// A transport wrapper injecting the faults a [`NetFaultPlan`] schedules.
/// Write and read operations are counted independently (0-based, one per
/// `write`/`read` *call*), so the nth operation of a connection always
/// draws the same fault — whatever the payloads were.
#[derive(Debug)]
pub struct ChaosTransport<T> {
    inner: T,
    plan: NetFaultPlan,
    write_op: u64,
    read_op: u64,
    state: LinkState,
    /// The deadline stalls are judged against, in nanoseconds.
    deadline: Option<u64>,
    stats: ChaosStats,
}

impl<T> ChaosTransport<T> {
    /// Wraps `inner` under `plan`, with zeroed fault counters.
    pub fn new(inner: T, plan: NetFaultPlan) -> Self {
        ChaosTransport {
            inner,
            plan,
            write_op: 0,
            read_op: 0,
            state: LinkState::Live,
            deadline: None,
            stats: ChaosStats::default(),
        }
    }

    /// A snapshot of the fault counters.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    fn broken(&mut self, kind: io::ErrorKind) -> io::Error {
        self.state = LinkState::Broken(kind);
        io::Error::new(kind, "chaos: link broken")
    }
}

impl<T: Write> Write for ChaosTransport<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let LinkState::Broken(kind) = self.state {
            return Err(io::Error::new(kind, "chaos: link broken"));
        }
        let op = self.write_op;
        self.write_op += 1;
        match self.plan.write_fault(op) {
            None => self.inner.write(buf),
            Some(WriteFault::Split { at }) => {
                if buf.len() < 2 {
                    return self.inner.write(buf);
                }
                self.stats.splits += 1;
                // Deliver a strict non-empty prefix; the caller's
                // write_all loop re-enters with the rest as a fresh op.
                let n = 1 + (at as usize % (buf.len() - 1));
                self.inner.write_all(&buf[..n])?;
                Ok(n)
            }
            Some(WriteFault::FlipBit { pos }) => {
                if buf.is_empty() {
                    return self.inner.write(buf);
                }
                self.stats.flips += 1;
                let mut corrupted = buf.to_vec();
                let bit = pos as usize % (corrupted.len() * 8);
                corrupted[bit / 8] ^= 1 << (bit % 8);
                self.inner.write_all(&corrupted)?;
                Ok(buf.len())
            }
            Some(WriteFault::Truncate { at }) => {
                self.stats.truncates += 1;
                if !buf.is_empty() {
                    let n = at as usize % buf.len();
                    self.inner.write_all(&buf[..n])?;
                    let _ = self.inner.flush();
                }
                Err(self.broken(io::ErrorKind::ConnectionReset))
            }
            Some(WriteFault::Stall { nanos }) => {
                self.stats.stalls += 1;
                if let Some(deadline) = self.deadline {
                    if nanos >= deadline {
                        // Virtual time: the stall outlives the deadline, so
                        // it surfaces exactly as a real timeout would —
                        // without sleeping.
                        self.stats.timeouts += 1;
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "chaos: write stalled past deadline",
                        ));
                    }
                }
                self.inner.write(buf)
            }
            Some(WriteFault::Break) => {
                self.stats.breaks += 1;
                Err(self.broken(io::ErrorKind::BrokenPipe))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let LinkState::Broken(kind) = self.state {
            return Err(io::Error::new(kind, "chaos: link broken"));
        }
        self.inner.flush()
    }
}

impl<T: Read> Read for ChaosTransport<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.state {
            LinkState::Broken(kind) => return Err(io::Error::new(kind, "chaos: link broken")),
            LinkState::Eof => return Ok(0),
            LinkState::Live => {}
        }
        let op = self.read_op;
        self.read_op += 1;
        match self.plan.read_fault(op) {
            None => self.inner.read(buf),
            Some(ReadFault::Short) => {
                if buf.len() < 2 {
                    return self.inner.read(buf);
                }
                self.stats.shorts += 1;
                self.inner.read(&mut buf[..1])
            }
            Some(ReadFault::FlipBit { pos }) => {
                let n = self.inner.read(buf)?;
                if n > 0 {
                    self.stats.flips += 1;
                    let bit = pos as usize % (n * 8);
                    buf[bit / 8] ^= 1 << (bit % 8);
                }
                Ok(n)
            }
            Some(ReadFault::Stall { nanos }) => {
                self.stats.stalls += 1;
                if let Some(deadline) = self.deadline {
                    if nanos >= deadline {
                        self.stats.timeouts += 1;
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "chaos: read stalled past deadline",
                        ));
                    }
                }
                self.inner.read(buf)
            }
            Some(ReadFault::Break) => {
                self.stats.breaks += 1;
                Err(self.broken(io::ErrorKind::ConnectionReset))
            }
            Some(ReadFault::Eof) => {
                self.stats.eofs += 1;
                self.state = LinkState::Eof;
                Ok(0)
            }
        }
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn set_deadline(&mut self, nanos: Option<u64>) -> io::Result<()> {
        self.deadline = nanos;
        self.inner.set_deadline(nanos)
    }
}

// ---- in-memory duplex pipe ---------------------------------------------

#[derive(Debug, Default)]
struct HalfState {
    buf: VecDeque<u8>,
    closed: bool,
}

#[derive(Debug, Default)]
struct Half {
    state: Mutex<HalfState>,
    arrived: Condvar,
}

impl Half {
    fn close(&self) {
        self.state.lock().expect("pipe half lock").closed = true;
        self.arrived.notify_all();
    }
}

/// One end of an in-memory bidirectional pipe (see [`duplex`]): `Read` +
/// `Write` + [`Transport`] with real blocking reads and condvar-timeout
/// read deadlines — a socket without the socket.
///
/// Cloning shares the underlying channels (like `TcpStream::try_clone`),
/// so a server can hand one clone to its reader and one to its writer.
/// Dropping *any* handle closes both directions: buffered bytes stay
/// readable, then reads return `Ok(0)` and peer writes `BrokenPipe`.
#[derive(Debug)]
pub struct PipeEnd {
    rx: Arc<Half>,
    tx: Arc<Half>,
    deadline: Option<Duration>,
}

impl Clone for PipeEnd {
    fn clone(&self) -> Self {
        PipeEnd { rx: Arc::clone(&self.rx), tx: Arc::clone(&self.tx), deadline: self.deadline }
    }
}

/// A connected pair of in-memory transports: bytes written to one end are
/// read from the other, in order, with blocking reads.
pub fn duplex() -> (PipeEnd, PipeEnd) {
    let a = Arc::new(Half::default());
    let b = Arc::new(Half::default());
    (
        PipeEnd { rx: Arc::clone(&a), tx: Arc::clone(&b), deadline: None },
        PipeEnd { rx: b, tx: a, deadline: None },
    )
}

impl Read for PipeEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut state = self.rx.state.lock().expect("pipe half lock");
        loop {
            if !state.buf.is_empty() {
                let n = buf.len().min(state.buf.len());
                for b in buf.iter_mut().take(n) {
                    *b = state.buf.pop_front().expect("n bytes buffered");
                }
                return Ok(n);
            }
            if state.closed {
                return Ok(0);
            }
            state = match self.deadline {
                None => self.rx.arrived.wait(state).expect("pipe half lock"),
                Some(deadline) => {
                    let (guard, timeout) = self
                        .rx
                        .arrived
                        .wait_timeout(state, deadline)
                        .expect("pipe half lock");
                    if timeout.timed_out() && guard.buf.is_empty() && !guard.closed {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "pipe read deadline expired",
                        ));
                    }
                    guard
                }
            };
        }
    }
}

impl Write for PipeEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.tx.state.lock().expect("pipe half lock");
        if state.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe peer closed"));
        }
        state.buf.extend(buf.iter().copied());
        drop(state);
        self.tx.arrived.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Transport for PipeEnd {
    fn set_deadline(&mut self, nanos: Option<u64>) -> io::Result<()> {
        self.deadline = nanos.map(Duration::from_nanos);
        Ok(())
    }
}

impl Drop for PipeEnd {
    fn drop(&mut self) {
        self.rx.close();
        self.tx.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, Message, WireError};

    #[test]
    fn plans_are_pure_functions_of_spec_and_seed() {
        let spec = NetFaultSpec {
            split_write: 0.3,
            flip_read: 0.2,
            stall_read: 0.1,
            ..NetFaultSpec::default()
        };
        let a = NetFaultPlan::generate(500, &spec, 42);
        let b = NetFaultPlan::generate(500, &spec, 42);
        assert_eq!(a, b, "same (ops, spec, seed) must sample the same plan");
        let c = NetFaultPlan::generate(500, &spec, 43);
        assert_ne!(a, c, "a different seed must sample a different plan");
        assert!(!a.write_faults().is_empty() && !a.read_faults().is_empty());
    }

    #[test]
    fn bad_probabilities_are_typed_errors() {
        let spec = NetFaultSpec { flip_write: 1.5, ..NetFaultSpec::default() };
        assert!(matches!(
            NetFaultPlan::try_generate(10, &spec, 1),
            Err(CoreError::InvalidParameter { name: "net fault spec", .. })
        ));
    }

    #[test]
    fn split_writes_deliver_everything_through_write_all() {
        let plan = NetFaultPlan::none()
            .with_write_fault(0, WriteFault::Split { at: 7 })
            .with_write_fault(1, WriteFault::Split { at: 2 });
        let mut chaos = ChaosTransport::new(Vec::new(), plan);
        chaos.write_all(b"hello, federation").unwrap();
        assert_eq!(&chaos.inner, b"hello, federation");
        assert_eq!(chaos.stats().splits, 2);
    }

    #[test]
    fn flipped_bits_are_caught_by_the_frame_checksum() {
        let plan = NetFaultPlan::none().with_write_fault(0, WriteFault::FlipBit { pos: 77 });
        let mut chaos = ChaosTransport::new(Vec::new(), plan);
        let frame = wire::frame(&Message::Ping { nonce: 9 }).unwrap();
        chaos.write_all(&frame).unwrap();
        assert_ne!(chaos.inner, frame, "one bit must differ");
        assert!(matches!(
            wire::decode_frame(&chaos.inner).unwrap_err(),
            WireError::ChecksumMismatch { .. } | WireError::Truncated { .. }
                | WireError::Oversized { .. }
        ));
    }

    #[test]
    fn truncation_breaks_the_link_mid_frame() {
        let plan = NetFaultPlan::none().with_write_fault(0, WriteFault::Truncate { at: 3 });
        let mut chaos = ChaosTransport::new(Vec::new(), plan);
        let err = chaos.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(chaos.inner.len(), 3, "a prefix escaped before the break");
        // The link stays dead.
        assert!(chaos.write_all(b"x").is_err());
        assert_eq!(chaos.stats().truncates, 1);
    }

    #[test]
    fn stalls_past_the_deadline_are_virtual_timeouts() {
        let plan = NetFaultPlan::none().with_read_fault(0, ReadFault::Stall { nanos: 200 });
        // Without a deadline the stall passes through.
        let mut chaos = ChaosTransport::new(&b"ab"[..], plan.clone());
        let mut buf = [0u8; 2];
        assert_eq!(chaos.read(&mut buf).unwrap(), 2);
        // With a shorter deadline it times out without sleeping.
        let mut chaos = ChaosTransport::new(&b"ab"[..], plan);
        chaos.deadline = Some(100);
        assert_eq!(chaos.read(&mut buf).unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert_eq!(chaos.stats().timeouts, 1);
        // The link itself survives a timeout: the next read succeeds.
        assert_eq!(chaos.read(&mut buf).unwrap(), 2);
    }

    #[test]
    fn eof_faults_half_close_stickily() {
        let plan = NetFaultPlan::none().with_read_fault(1, ReadFault::Eof);
        let mut chaos = ChaosTransport::new(&b"abc"[..], plan);
        let mut buf = [0u8; 1];
        assert_eq!(chaos.read(&mut buf).unwrap(), 1);
        assert_eq!(chaos.read(&mut buf).unwrap(), 0);
        assert_eq!(chaos.read(&mut buf).unwrap(), 0, "EOF must stick");
    }

    #[test]
    fn duplex_carries_frames_both_ways() {
        let (mut a, mut b) = duplex();
        wire::write_frame(&mut a, &Message::Ping { nonce: 4 }).unwrap();
        assert_eq!(wire::read_frame(&mut b).unwrap(), Message::Ping { nonce: 4 });
        wire::write_frame(&mut b, &Message::Pong { nonce: 4 }).unwrap();
        assert_eq!(wire::read_frame(&mut a).unwrap(), Message::Pong { nonce: 4 });
    }

    #[test]
    fn duplex_read_deadline_fires_on_silence() {
        let (mut a, _b) = duplex();
        a.set_deadline(Some(5_000_000)).unwrap(); // 5ms
        let mut buf = [0u8; 1];
        assert_eq!(a.read(&mut buf).unwrap_err().kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn dropping_an_end_closes_the_pipe() {
        let (mut a, mut b) = duplex();
        b.write_all(b"last words").unwrap();
        drop(b);
        // Buffered bytes stay readable, then clean EOF.
        let mut out = Vec::new();
        a.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"last words");
        // Writes to the dead peer fail.
        assert_eq!(a.write_all(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn duplex_blocks_until_bytes_arrive_across_threads() {
        let (mut a, mut b) = duplex();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        a.write_all(b"async").unwrap();
        assert_eq!(&t.join().unwrap(), b"async");
    }
}
