//! Property tests for the network-resilience layer: backoff schedules are
//! pure functions of their seed and provably monotone under the jitter
//! bound, chaos fault plans are pure functions of (spec, seed), and the
//! client/server recovery paths — idempotent re-submission and
//! cross-connection session resume — hold over a real (in-memory) wire.

use ctfl::fl::chaos_net::{duplex, NetFaultPlan, NetFaultSpec, PipeEnd};
use ctfl::fl::netclient::{
    BackoffSchedule, Connect, NetClient, RetryPolicy, SessionResume, UpdateReply,
};
use ctfl::fl::server::FederationService;
use ctfl::fl::wire::JobSpec;
use ctfl_rng::Rng;
use ctfl_testkit::prop::check;
use ctfl_testkit::{prop_assert, prop_assert_eq};
use std::io;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// Same seed → byte-identical schedule; every delay within the curve's
/// 1 ms base and 100 ms ceiling.
#[test]
fn backoff_schedules_are_pure_functions_of_the_seed() {
    check(
        "backoff-determinism",
        128,
        |g| g.rng().gen::<u64>(),
        |seed| {
            let a: Vec<u64> = BackoffSchedule::new(*seed).take(24).collect();
            let b: Vec<u64> = BackoffSchedule::new(*seed).take(24).collect();
            prop_assert_eq!(&a, &b);
            prop_assert!(
                a.iter().all(|&d| (1_000_000..=100_000_000).contains(&d)),
                "delays {a:?} escape [1 ms, 100 ms]"
            );
            Ok(())
        },
    );
}

/// The monotonicity theorem, empirically: with `jitter ≤ factor − 1` every
/// schedule is non-decreasing — consecutive raw delays satisfy
/// `d_{k+1}/d_k ≥ factor/(1 + jitter) ≥ 1`, and the `min(max, ·)` clamp
/// preserves the ordering.
#[test]
fn bounded_jitter_keeps_schedules_monotone() {
    check(
        "backoff-monotonicity",
        128,
        |g| g.rng().gen::<u64>(),
        |seed| {
            let delays: Vec<u64> = BackoffSchedule::new(*seed).take(24).collect();
            prop_assert!(
                delays.windows(2).all(|w| w[0] <= w[1]),
                "schedule regressed under seed {seed}: {delays:?}"
            );
            Ok(())
        },
    );
}

/// Chaos fault plans are pure functions of (ops, spec, seed): regenerating
/// is byte-identical, a different seed diverges for a fault-prone spec, and
/// the op indices come out strictly ascending (the lookup invariant).
#[test]
fn fault_plans_are_pure_functions_of_spec_and_seed() {
    check(
        "chaos-plan-determinism",
        64,
        |g| {
            let spec = NetFaultSpec {
                split_write: g.f64_in(0.0, 0.5),
                flip_write: g.f64_in(0.0, 0.5),
                truncate_write: g.f64_in(0.0, 0.3),
                stall_write: g.f64_in(0.0, 0.3),
                break_write: g.f64_in(0.0, 0.3),
                short_read: g.f64_in(0.0, 0.5),
                flip_read: g.f64_in(0.0, 0.5),
                stall_read: g.f64_in(0.0, 0.3),
                break_read: g.f64_in(0.0, 0.3),
                eof_read: g.f64_in(0.0, 0.3),
                stall_nanos: g.u32_in(1, 1_000_000) as u64,
            };
            (spec, g.rng().gen::<u64>())
        },
        |(spec, seed)| {
            let a = NetFaultPlan::try_generate(64, spec, *seed).map_err(|e| e.to_string())?;
            let b = NetFaultPlan::try_generate(64, spec, *seed).map_err(|e| e.to_string())?;
            prop_assert_eq!(&a, &b);
            prop_assert!(
                a.write_faults().windows(2).all(|w| w[0].0 < w[1].0)
                    && a.read_faults().windows(2).all(|w| w[0].0 < w[1].0),
                "fault ops not strictly ascending"
            );
            Ok(())
        },
    );
}

/// A [`Connect`]or handing each connection's server end, an in-memory
/// duplex pipe, to one server thread that serves them one at a time through
/// one `FederationService`, as `ctfl_server` does.
struct PipeConnector {
    server: mpsc::Sender<PipeEnd>,
}

impl Connect for PipeConnector {
    type T = PipeEnd;

    fn connect(&mut self) -> io::Result<PipeEnd> {
        let (client_end, server_end) = duplex();
        self.server
            .send(server_end)
            .map_err(|_| io::Error::new(io::ErrorKind::ConnectionRefused, "server thread gone"))?;
        Ok(client_end)
    }
}

/// A client over a fresh server thread, and the thread's handle: dropping
/// the client ends the thread.
fn pipe_client(seed: u64) -> (NetClient<PipeConnector>, JoinHandle<()>) {
    let (server, incoming) = mpsc::channel::<PipeEnd>();
    let thread = std::thread::spawn(move || {
        let mut service = FederationService::new(1);
        for conn in incoming {
            let mut writer = conn.clone();
            let mut reader = conn;
            // A connection ends when the client end drops; that is the
            // signal to serve the next one, not an error worth reporting.
            let _ = service.serve(&mut reader, &mut writer);
        }
    });
    let policy = RetryPolicy { max_attempts: 8, deadline_nanos: Some(5_000_000_000) };
    let client = NetClient::new(PipeConnector { server }, policy, seed).expect("valid test policy");
    (client, thread)
}

/// Re-submitting a job — including from a brand-new connection, the
/// lost-ACK recovery path — replays the recorded fingerprints instead of
/// re-running the federation, and `PollJob` retrieves them too.
#[test]
fn resubmission_replays_across_connections() {
    let (mut client, server) = pipe_client(11);
    let spec = JobSpec::clean(40, 3, 2);
    let first = client.submit_job(1, &spec).expect("submission");
    let again = client.submit_job(1, &spec).expect("same-connection replay");
    assert_eq!(first, again);
    client.disconnect();
    let reconnect = client.submit_job(1, &spec).expect("fresh-connection replay");
    assert_eq!(first, reconnect);
    let polled = client.poll_job(1).expect("poll");
    assert_eq!(first, polled);
    assert_eq!(client.stats().connects, 2, "exactly the deliberate reconnect");
    drop(client);
    server.join().expect("server thread");
}

/// An aggregation session opened on one connection survives the client
/// dying: the reconnect sees the recorded upload via `ResumeSession` and
/// can finish the round; the completed round then replays idempotently.
#[test]
fn sessions_resume_across_connections() {
    let (mut client, server) = pipe_client(13);
    client.open_session(5, 2, 2).expect("open");
    assert_eq!(
        client.submit_update(5, 0, 3, &[1.0, 0.0]).expect("first upload"),
        UpdateReply::Recorded
    );
    client.disconnect();
    match client.resume_session(5).expect("resume") {
        SessionResume::Open { n_clients, dim, received } => {
            assert_eq!((n_clients, dim, received), (2, 2, vec![0]))
        }
        SessionResume::Complete(_) => panic!("round cannot be complete"),
    }
    let UpdateReply::Complete(fused) =
        client.submit_update(5, 1, 1, &[0.0, 1.0]).expect("closing upload")
    else {
        panic!("second of two uploads must close the round")
    };
    assert_eq!(fused, vec![0.75, 0.25]);
    // Idempotent replay of the closing upload, again from a new connection.
    client.disconnect();
    assert_eq!(
        client.submit_update(5, 1, 1, &[0.0, 1.0]).expect("replay"),
        UpdateReply::Complete(fused)
    );
    drop(client);
    server.join().expect("server thread");
}
