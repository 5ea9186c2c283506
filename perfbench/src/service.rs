//! `service_mix`: the shipped `ctfl_server --listen 127.0.0.1:0` over
//! loopback TCP, driven in a closed loop by 2 `NetClient<TcpConnector>`
//! clients.
//!
//! Each conversation opens a fresh connection, runs `OpenSession` (8
//! clients, dim 11,218 — the `federate_adult` model's size), sends the 8
//! `SubmitUpdate` writes (~45 KB each), and reads the finished round back
//! with `ResumeSession`. Every 8th conversation also submits a seeded job
//! (`JobSpec::clean(_, 4, 3)`), re-submits it byte-identically (a replay)
//! and polls it. Writes and reads hit the same `SessionStore`; the server
//! serves one connection at a time, so with 2 clients the second waits
//! behind the first, and the wait shows on its first request.

use crate::report::{latency, mean, median, peak_rss_mb, percentile, Context, Outcome};
use crate::{timed_setup, Args};
use ctfl_fl::netclient::{
    ClientError, NetClient, RetryPolicy, SessionResume, TcpConnector, UpdateReply,
};
use ctfl_fl::server::{aggregate, FederationService, JobResult, SESSION_ACK};
use ctfl_fl::wire::{self, JobSpec, Message};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

/// Workload shape; `tiny` is the smoke-test size.
struct Shape {
    dim: usize,
}

impl Shape {
    fn new(tiny: bool) -> Self {
        Shape {
            dim: if tiny { 512 } else { 11_218 },
        }
    }
}

const CLIENT_THREADS: usize = 2;
const SESSION_CLIENTS: u32 = 8;
const JOB_EVERY: u32 = 8;
const UPDATE_SETS: usize = 4;
const JOB_SPECS: usize = 16;
/// Conversations replayed in-process for the dispatcher and codec timings.
const REPLAY_CONVERSATIONS: u32 = 32;

/// Per-kind dispatcher and codec metrics. Request kinds index
/// `Recorder::latency`: session open, update write, session read, job
/// submission (runs the federation), and job replay (a byte-identical
/// re-submission or a poll, both answered from the recorded result).
const DISPATCH_METRICS: [&str; 5] = [
    "fl.server.dispatch_us.open",
    "fl.server.dispatch_us.update",
    "fl.server.dispatch_us.read",
    "fl.server.dispatch_us.submit_job",
    "fl.server.dispatch_us.job_replay",
];
const CODEC_METRICS: [&str; 5] = [
    "fl.wire.codec_us.open",
    "fl.wire.codec_us.update",
    "fl.wire.codec_us.read",
    "fl.wire.codec_us.submit_job",
    "fl.wire.codec_us.job_replay",
];

/// One round's updates and the fused vector the server must return.
struct UpdateSet {
    params: Vec<Vec<f32>>,
    weights: Vec<u32>,
    fused: Vec<f32>,
}

/// The generated traffic: update sets and job specs with the fingerprints
/// `FederationService::execute_job` gives them in-process.
struct Traffic {
    dim: usize,
    sets: Vec<UpdateSet>,
    jobs: Vec<(JobSpec, JobResult)>,
}

impl Traffic {
    fn build(shape: &Shape, seed: u64) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sets = (0..UPDATE_SETS)
            .map(|_| {
                let params: Vec<Vec<f32>> = (0..SESSION_CLIENTS)
                    .map(|_| {
                        (0..shape.dim)
                            .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
                            .collect()
                    })
                    .collect();
                let weights: Vec<u32> = (0..SESSION_CLIENTS)
                    .map(|_| rng.gen_range(40..400))
                    .collect();
                let w: Vec<usize> = weights.iter().map(|&w| w as usize).collect();
                let fused = aggregate(&params, &w).ctx("aggregate")?;
                Ok(UpdateSet {
                    params,
                    weights,
                    fused,
                })
            })
            .collect::<Result<_, String>>()?;
        let jobs = (0..JOB_SPECS as u64)
            .map(|j| {
                let spec = JobSpec::clean(seed.wrapping_add(j), 4, 3);
                let result = FederationService::execute_job(0, &spec).ctx("execute_job")?;
                Ok((spec, result))
            })
            .collect::<Result<_, String>>()?;
        Ok(Traffic {
            dim: shape.dim,
            sets,
            jobs,
        })
    }

    fn set(&self, k: u32) -> &UpdateSet {
        &self.sets[k as usize % self.sets.len()]
    }

    /// The job of conversation `k`, if it carries one, with the reply the
    /// server must give.
    fn job(&self, k: u32) -> Option<(&JobSpec, JobResult)> {
        k.is_multiple_of(JOB_EVERY).then(|| {
            let (spec, result) = &self.jobs[(k / JOB_EVERY) as usize % self.jobs.len()];
            (
                spec,
                JobResult {
                    job: k,
                    ..result.clone()
                },
            )
        })
    }

    /// Conversation `k` as `(kind, request, expected reply)` triples — the
    /// exact sequence a load client sends.
    fn conversation(&self, k: u32) -> Vec<(usize, Message, Message)> {
        let set = self.set(k);
        let mut msgs = vec![(
            0,
            Message::OpenSession {
                session: k,
                n_clients: SESSION_CLIENTS,
                dim: self.dim as u32,
            },
            Message::Ack {
                session: k,
                client: SESSION_ACK,
            },
        )];
        for c in 0..SESSION_CLIENTS {
            let reply = if c + 1 == SESSION_CLIENTS {
                Message::RoundComplete {
                    session: k,
                    params: set.fused.clone(),
                }
            } else {
                Message::Ack {
                    session: k,
                    client: c,
                }
            };
            let params = set.params[c as usize].clone();
            let request = Message::SubmitUpdate {
                session: k,
                client: c,
                weight: set.weights[c as usize],
                params,
            };
            msgs.push((1, request, reply));
        }
        msgs.push((
            2,
            Message::ResumeSession { session: k },
            Message::RoundComplete {
                session: k,
                params: set.fused.clone(),
            },
        ));
        if let Some((spec, r)) = self.job(k) {
            let done = Message::JobDone {
                job: r.job,
                params_hash: r.params_hash,
                log_hash: r.log_hash,
                rounds: r.rounds,
                accuracy: r.accuracy,
            };
            let submit = Message::SubmitJob {
                job: k,
                spec: spec.clone(),
            };
            msgs.push((3, submit.clone(), done.clone()));
            msgs.push((4, submit, done.clone()));
            msgs.push((4, Message::PollJob { job: k }, done));
        }
        msgs
    }
}

/// The server process and the thread draining its stdout.
struct Server {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    fn start(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .ctx(&format!("spawn {}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("server stdout")?);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not report its address (got {line:?})"));
        };
        // The server logs one line per connection; keep the pipe drained.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stdout.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Server {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// Stops the server and returns its peak resident memory in MiB.
    fn stop(mut self) -> f64 {
        let rss = peak_rss_mb(Some(self.child.id()));
        self.shutdown();
        rss
    }

    fn shutdown(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What one load client saw.
#[derive(Default)]
struct Recorder {
    /// Seconds per request, by kind; a failed request reads +inf.
    latency: [Vec<f64>; 5],
    /// Seconds per conversation.
    conversations: Vec<f64>,
    requests: u64,
    failed: u64,
    rejects: u64,
    retries: u64,
    connects: u64,
}

impl Recorder {
    fn merge(&mut self, other: Recorder) {
        for (a, b) in self.latency.iter_mut().zip(other.latency) {
            a.extend(b);
        }
        self.conversations.extend(other.conversations);
        self.requests += other.requests;
        self.failed += other.failed;
        self.rejects += other.rejects;
        self.retries += other.retries;
        self.connects += other.connects;
    }

    /// Times one request; `check` says whether its reply is the expected one.
    fn request<T>(
        &mut self,
        kind: usize,
        send: impl FnOnce() -> Result<T, ClientError>,
        check: impl FnOnce(&T) -> bool,
    ) {
        let t = Instant::now();
        let reply = send();
        let secs = t.elapsed().as_secs_f64();
        self.requests += 1;
        let ok = match &reply {
            Ok(v) => check(v),
            Err(e) => {
                if matches!(e, ClientError::Rejected { .. }) {
                    self.rejects += 1;
                }
                eprintln!("service_mix: {e}");
                false
            }
        };
        self.failed += u64::from(!ok);
        self.latency[kind].push(if ok { secs } else { f64::INFINITY });
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One conversation on a fresh connection.
fn converse(addr: &str, traffic: &Traffic, k: u32, seed: u64, rec: &mut Recorder) {
    let start = Instant::now();
    let connector = TcpConnector {
        addr: addr.to_string(),
    };
    let mut client = match NetClient::new(connector, RetryPolicy::default(), seed ^ u64::from(k)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("service_mix: client: {e}");
            rec.requests += 1;
            rec.failed += 1;
            return;
        }
    };
    let set = traffic.set(k);
    let dim = traffic.dim as u32;
    rec.request(0, || client.open_session(k, SESSION_CLIENTS, dim), |_| true);
    for c in 0..SESSION_CLIENTS {
        let last = c + 1 == SESSION_CLIENTS;
        rec.request(
            1,
            || client.submit_update(k, c, set.weights[c as usize], &set.params[c as usize]),
            |reply| match reply {
                UpdateReply::Recorded => !last,
                UpdateReply::Complete(p) => last && bits_equal(p, &set.fused),
            },
        );
    }
    rec.request(
        2,
        || client.resume_session(k),
        |r| matches!(r, SessionResume::Complete(p) if bits_equal(p, &set.fused)),
    );
    if let Some((spec, expected)) = traffic.job(k) {
        rec.request(3, || client.submit_job(k, spec), |r| *r == expected);
        rec.request(4, || client.submit_job(k, spec), |r| *r == expected);
        rec.request(4, || client.poll_job(k), |r| *r == expected);
    }
    let stats = client.stats();
    drop(client);
    rec.retries += stats.attempts - stats.requests;
    rec.connects += stats.connects;
    rec.conversations.push(start.elapsed().as_secs_f64());
}

/// The closed loop: `CLIENT_THREADS` clients converse back to back until
/// `seconds` pass. Returns what they saw and the loop's wall seconds.
fn load(
    addr: &str,
    traffic: &Traffic,
    seed: u64,
    seconds: f64,
    next: &AtomicU32,
) -> Result<(Recorder, f64), String> {
    let start = Instant::now();
    let mut total = Recorder::default();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut rec = Recorder::default();
                    while start.elapsed().as_secs_f64() < seconds {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        converse(addr, traffic, k, seed, &mut rec);
                    }
                    rec
                })
            })
            .collect();
        for c in clients {
            total.merge(c.join().map_err(|_| "load client panicked")?);
        }
        Ok::<_, String>(())
    })?;
    Ok((total, start.elapsed().as_secs_f64()))
}

/// Median microseconds per kind of `f` over the replayed conversations,
/// plus whether every reply matched.
fn replay(
    traffic: &Traffic,
    mut f: impl FnMut(Message, &Message) -> (f64, bool),
) -> ([f64; 5], bool) {
    let mut times: [Vec<f64>; 5] = Default::default();
    let mut ok = true;
    for k in 1..=REPLAY_CONVERSATIONS {
        for (kind, request, expected) in traffic.conversation(k) {
            let (secs, good) = f(request, &expected);
            times[kind].push(secs * 1e6);
            ok &= good;
        }
    }
    (times.map(|t| median(&t)), ok)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .server_bin
        .as_deref()
        .ok_or("service_mix needs --server-bin")?;
    let shape = Shape::new(args.tiny);
    let mut data_s = Vec::new();
    let ((traffic, server), setup_s) = timed_setup(args, || {
        let t = Instant::now();
        let traffic = Traffic::build(&shape, args.seed)?;
        data_s.push(t.elapsed().as_secs_f64());
        Ok((traffic, Server::start(bin)?))
    })?;
    let mut out = Outcome::default();
    out.size("dim", traffic.dim as f64);
    out.size("client_threads", CLIENT_THREADS as f64);
    out.size("session_clients", SESSION_CLIENTS);
    out.size("job_every", JOB_EVERY);

    let next = AtomicU32::new(1);
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, untraced_s) = load(&server.addr, &traffic, args.seed, window, &next)?;
    let traced = if args.trace {
        Some(load(&server.addr, &traffic, args.seed, window, &next)?)
    } else {
        None
    };
    let server_rss = server.stop();

    let all: Vec<f64> = untraced.latency.iter().flatten().copied().collect();
    out.tally(untraced.requests, untraced.failed);
    let Some((rec, _)) = traced else {
        out.set("setup_s", setup_s);
        let (p50, p99) = latency(&all);
        out.set("run_s", mean(&untraced.conversations));
        out.set("req_per_s", untraced.requests as f64 / untraced_s);
        out.set("req_p50_ms", p50 * 1e3);
        out.set("req_p99_ms", p99 * 1e3);
        out.set("peak_rss_mb", server_rss);
        let accuracy: Vec<f64> = traffic.jobs.iter().map(|(_, r)| r.accuracy).collect();
        out.set(
            "model_accuracy",
            accuracy.iter().sum::<f64>() / accuracy.len() as f64,
        );
        return Ok(out);
    };
    out.tally(rec.requests, rec.failed);

    // In-process: the dispatcher over a fresh store, and the codec, on the
    // same message sequence the clients sent.
    let mut service = FederationService::new(1);
    let (dispatch_us, dispatch_ok) = replay(&traffic, |request, expected| {
        let t = Instant::now();
        let reply = service.handle_message(request);
        (t.elapsed().as_secs_f64(), reply == *expected)
    });
    let mut sizes = [0usize; 5];
    let (codec_us, codec_ok) = replay(&traffic, |request, expected| {
        let t = Instant::now();
        let req = wire::decode(&wire::encode(&request));
        let rep = wire::decode(&wire::encode(expected));
        let secs = t.elapsed().as_secs_f64();
        (
            secs,
            req.as_ref() == Ok(&request) && rep.as_ref() == Ok(expected),
        )
    });
    for (kind, request, expected) in traffic.conversation(JOB_EVERY) {
        sizes[kind] =
            wire::encode(&request).len() + wire::encode(&expected).len() + 2 * wire::FRAME_HEADER;
    }
    out.tally(2, u64::from(!dispatch_ok) + u64::from(!codec_ok));

    let p = |v: &[f64], q: f64| percentile(v, q) * 1e3;
    let jobs: Vec<f64> = rec.latency[3]
        .iter()
        .chain(&rec.latency[4])
        .copied()
        .collect();
    out.set("data.generate_ms", median(&data_s) * 1e3);
    out.set("fl.netclient.connect_wait_p50_ms", p(&rec.latency[0], 0.5));
    out.set("fl.netclient.connect_wait_p99_ms", p(&rec.latency[0], 0.99));
    out.set("fl.server.update_p50_ms", p(&rec.latency[1], 0.5));
    out.set("fl.server.update_p99_ms", p(&rec.latency[1], 0.99));
    out.set("fl.server.read_p50_ms", p(&rec.latency[2], 0.5));
    out.set("fl.server.read_p99_ms", p(&rec.latency[2], 0.99));
    out.set("fl.server.job_p50_ms", p(&jobs, 0.5));
    out.set("fl.server.job_p99_ms", p(&jobs, 0.99));
    for kind in 0..DISPATCH_METRICS.len() {
        out.set(DISPATCH_METRICS[kind], dispatch_us[kind]);
        out.set(CODEC_METRICS[kind], codec_us[kind]);
    }
    let bytes: usize = sizes
        .iter()
        .zip(&rec.latency)
        .map(|(size, l)| size * l.len())
        .sum();
    out.set("fl.wire.bytes", bytes as f64);
    out.set("fl.netclient.retries", rec.retries as f64);
    out.set("fl.netclient.connects", rec.connects as f64);
    out.set("fl.server.rejects", rec.rejects as f64);
    out.set(
        "trace_overhead_s",
        median(&rec.conversations) - median(&untraced.conversations),
    );
    Ok(out)
}
