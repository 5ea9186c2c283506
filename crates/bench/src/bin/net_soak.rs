//! **Network soak gate**: the resilience stack must deliver the exact bytes
//! the in-process service produces, through a hostile network.
//!
//! The engine-soak batch of federation jobs — healthy, faulty, adversarial,
//! robust-rule — runs two ways:
//!
//! 1. directly, one [`FederationService::execute_job`] at a time (the
//!    reference fingerprints);
//! 2. through a [`NetClient`] whose every connection is wrapped in a
//!    [`ChaosTransport`] injecting seeded split writes, bit flips (caught by
//!    the frame checksum), truncations, virtual stalls, mid-frame breaks
//!    and half-close EOFs, against one server thread that serves every
//!    connection the chaos forces, one at a time, from one
//!    [`FederationService`] — as `ctfl_server` does.
//!
//! Every job's fingerprints — parameter hash, log hash, committed rounds,
//! accuracy bits — must match the reference exactly. Then the soak proves
//! the recovery paths: a heartbeat survives the chaos; an aggregation
//! session started on one connection is resumed after a deliberate
//! disconnect and completed from another, matching the in-process
//! `aggregate` bit for bit (and replaying idempotently); and a fresh
//! connection retrieves every job's recorded result by id via `PollJob`.
//!
//! Everything on stdout is deterministic — chaos plans, retry schedules,
//! and fault counters are all pure functions of the seed — so
//! `run_experiments.sh --check` double-runs the binary and byte-diffs the
//! output; `NET_OK` prints only if every comparison held.

use ctfl_bench::args::CommonArgs;
use ctfl_fl::chaos_net::{duplex, ChaosTransport, NetFaultPlan, NetFaultSpec, PipeEnd};
use ctfl_fl::netclient::{
    BackoffPolicy, Connect, NetClient, RetryPolicy, SessionResume, UpdateReply,
};
use ctfl_fl::server::{self, FederationService};
use ctfl_fl::wire::JobSpec;
use std::io;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// The soak batch — identical to `engine_soak`'s, so the two gates cover
/// the same federation shapes from opposite ends of the stack.
fn batch(seed: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (i, n) in [2u32, 3, 5].into_iter().enumerate() {
        jobs.push(JobSpec::clean(seed + i as u64, n, 3));
    }
    jobs.push(JobSpec { dropout: 0.3, ..JobSpec::clean(seed + 10, 4, 3) });
    jobs.push(JobSpec { straggler: 0.25, ..JobSpec::clean(seed + 11, 4, 3) });
    jobs.push(JobSpec { corrupt: 0.2, ..JobSpec::clean(seed + 12, 4, 3) });
    jobs.push(JobSpec { adversary_frac: 0.25, attack: 1, rule: 1, ..JobSpec::clean(seed + 20, 4, 3) });
    jobs.push(JobSpec { adversary_frac: 0.25, attack: 2, rule: 2, ..JobSpec::clean(seed + 21, 4, 3) });
    jobs.push(JobSpec { adversary_frac: 0.25, attack: 5, rule: 3, ..JobSpec::clean(seed + 22, 4, 3) });
    jobs.push(JobSpec { parallel: true, dropout: 0.2, ..JobSpec::clean(seed + 30, 4, 3) });
    jobs
}

/// The soak's storm: every fault lane armed at a modest rate, with stalls
/// long enough that the virtual clock — never the wall clock — trips the
/// client deadline.
fn storm() -> NetFaultSpec {
    NetFaultSpec {
        split_write: 0.10,
        flip_write: 0.05,
        truncate_write: 0.04,
        stall_write: 0.04,
        break_write: 0.04,
        short_read: 0.10,
        flip_read: 0.05,
        stall_read: 0.04,
        break_read: 0.04,
        eof_read: 0.04,
        stall_nanos: 10_000_000_000,
    }
}

/// Per-connection deadline: far above any real reply latency (the server
/// is an in-process thread), far below the virtual stall duration.
const DEADLINE_NANOS: u64 = 1_000_000_000;
/// Fault-plan horizon per connection, in I/O calls.
const PLAN_OPS: u64 = 64;

fn mix(seed: u64, i: u64) -> u64 {
    (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x632B_E593_02AA_4C5B)
}

/// Spawns the server thread: it serves every connection whose server end
/// arrives on the returned channel, one at a time, through one
/// [`FederationService`] — as `ctfl_server` serves sockets — and ends once
/// the sender and every connection are gone.
fn spawn_server() -> (mpsc::Sender<PipeEnd>, JoinHandle<()>) {
    let (server, incoming) = mpsc::channel::<PipeEnd>();
    let thread = std::thread::spawn(move || {
        let mut service = FederationService::new(1);
        for conn in incoming {
            let mut writer = conn.clone();
            let mut reader = conn;
            // A chaos-broken connection legitimately dies mid-frame; the
            // server's job is to survive it, not to report it.
            let _ = service.serve(&mut reader, &mut writer);
        }
    });
    (server, thread)
}

/// A [`Connect`]or that sends each connection's server end, an in-memory
/// duplex pipe, to the server thread, and hands back the client end wrapped
/// in a freshly seeded [`ChaosTransport`].
struct ChaosConnector {
    server: mpsc::Sender<PipeEnd>,
    spec: NetFaultSpec,
    seed: u64,
    conns: u64,
}

impl Connect for ChaosConnector {
    type T = ChaosTransport<PipeEnd>;

    fn connect(&mut self) -> io::Result<Self::T> {
        let (client_end, server_end) = duplex();
        self.server
            .send(server_end)
            .map_err(|_| io::Error::new(io::ErrorKind::ConnectionRefused, "server thread gone"))?;
        let plan = NetFaultPlan::generate(PLAN_OPS, &self.spec, mix(self.seed, self.conns));
        self.conns += 1;
        Ok(ChaosTransport::new(client_end, plan))
    }
}

fn main() {
    let args = CommonArgs::parse();
    let specs = batch(args.seed);
    println!("net soak: {} jobs through the chaos transport, seed {}", specs.len(), args.seed);

    // Reference fingerprints, no network anywhere.
    let direct: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            FederationService::execute_job(i as u32, spec)
                .unwrap_or_else(|e| panic!("direct job {i} failed: {e}"))
        })
        .collect();

    let (server, server_thread) = spawn_server();
    let connector =
        ChaosConnector { server, spec: storm(), seed: args.seed ^ 0xC4A05, conns: 0 };
    // Retries sleep their backoff, as a deployed client's would.
    let policy = RetryPolicy {
        max_attempts: 16,
        deadline_nanos: Some(DEADLINE_NANOS),
        backoff: BackoffPolicy::default(),
        sleep: true,
    };
    let mut client =
        NetClient::new(connector, policy, args.seed).expect("soak retry policy is valid");

    // 1. The full mixed batch through the storm: byte-identical results.
    for (i, spec) in specs.iter().enumerate() {
        let got = client
            .submit_job(i as u32, spec)
            .unwrap_or_else(|e| panic!("chaos submission of job {i} failed: {e}"));
        let want = &direct[i];
        assert_eq!(
            (got.job, got.params_hash, got.log_hash, got.rounds),
            (want.job, want.params_hash, want.log_hash, want.rounds),
            "chaos transport diverged on job {i}"
        );
        assert_eq!(got.accuracy.to_bits(), want.accuracy.to_bits(), "accuracy bits drifted");
    }

    // 2. Heartbeats survive the storm.
    client.ping().expect("heartbeat through chaos");

    // 3. Disconnect mid-session, resume from a fresh connection, finish the
    // round, and match the in-process aggregation bit for bit.
    let session = 7u32;
    let uploads: [(u32, u32, Vec<f32>); 2] =
        [(0, 30, vec![1.0, -0.25, 0.5]), (1, 10, vec![0.0, 1.0, 0.5])];
    client.open_session(session, 2, 3).expect("session opens");
    let first = client
        .submit_update(session, uploads[0].0, uploads[0].1, &uploads[0].2)
        .expect("first upload lands");
    assert_eq!(first, UpdateReply::Recorded, "round must still be open after one of two");
    client.disconnect();
    match client.resume_session(session).expect("session resumes after reconnect") {
        SessionResume::Open { n_clients, dim, received } => {
            assert_eq!((n_clients, dim, received), (2, 3, vec![0]), "resume must see the upload");
        }
        SessionResume::Complete(_) => panic!("session cannot be complete yet"),
    }
    let fused = match client
        .submit_update(session, uploads[1].0, uploads[1].1, &uploads[1].2)
        .expect("closing upload lands")
    {
        UpdateReply::Complete(params) => params,
        UpdateReply::Recorded => panic!("second of two uploads must close the round"),
    };
    let params: Vec<Vec<f32>> = uploads.iter().map(|(_, _, p)| p.clone()).collect();
    let weights: Vec<usize> = uploads.iter().map(|(_, w, _)| *w as usize).collect();
    let reference = server::aggregate(&params, &weights).expect("in-process aggregation");
    assert_eq!(fused.len(), reference.len());
    for (a, b) in fused.iter().zip(&reference) {
        assert_eq!(a.to_bits(), b.to_bits(), "fused parameters drifted from aggregate()");
    }
    // A bit-identical re-upload after completion replays the same round.
    match client
        .submit_update(session, uploads[1].0, uploads[1].1, &uploads[1].2)
        .expect("idempotent re-upload")
    {
        UpdateReply::Complete(replay) => assert_eq!(replay, fused, "replay must be identical"),
        UpdateReply::Recorded => panic!("replay must return the completed round"),
    }

    // 4. A fresh connection recovers every recorded result by job id.
    client.disconnect();
    for want in &direct {
        let got = client
            .poll_job(want.job)
            .unwrap_or_else(|e| panic!("polling job {} failed: {e}", want.job));
        assert_eq!(
            (got.params_hash, got.log_hash, got.rounds, got.accuracy.to_bits()),
            (want.params_hash, want.log_hash, want.rounds, want.accuracy.to_bits()),
            "poll replay diverged on job {}",
            want.job
        );
    }

    for res in &direct {
        println!(
            "job {:>2}: params {:#018X} log {:#018X} rounds {} accuracy {:.6}",
            res.job, res.params_hash, res.log_hash, res.rounds, res.accuracy
        );
    }
    // Attempt/reconnect/fault counters are deliberately NOT printed: a
    // wall-clock read deadline can add retries on a slow host, so only the
    // byte-deterministic facts go to stdout.
    println!(
        "client: {} requests completed; session {session} resumed across a disconnect and \
         completed; {} results replayed by id",
        client.stats().requests,
        direct.len()
    );
    // Closing the client ends the server thread; a panic there fails the
    // gate instead of hiding behind retries.
    drop(client);
    server_thread.join().expect("the server thread survives the storm");
    println!("NET_OK");
}
