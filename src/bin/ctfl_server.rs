//! `ctfl-server` — the federation service over TCP.
//!
//! Speaks the checksummed length-prefixed binary protocol of
//! `ctfl::fl::wire`: clients submit self-contained seeded federation jobs
//! under client-chosen job ids (answered with result fingerprints,
//! idempotently replayed on re-submission) or stream raw parameter updates
//! into aggregation sessions (answered with the fused vector). One
//! `FederationService` owns the session store and serves every connection,
//! one at a time, so a client that disconnects mid-round can reconnect and
//! resume its session or poll a finished job by id. Connections that go
//! silent past the idle deadline are reaped, not leaked. Every run of the
//! same job produces the same bytes, whichever transport delivered it.
//!
//! ```text
//! ctfl-server --demo [--seed <n>]        in-process conversation, no socket
//! ctfl-server --listen 127.0.0.1:4714    serve connections until killed
//! ctfl-server --listen 127.0.0.1:0 --once   one connection, print the port
//! ```

use ctfl::fl::server::{FederationService, ServeEnd};
use ctfl::fl::wire::{self, JobSpec, Message};
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
ctfl-server — contribution-estimation federation service over TCP

USAGE:
  ctfl-server --demo [--seed <n=7>]
  ctfl-server --listen <addr:port> [--once] [--idle-timeout <secs=30>]

--demo runs a scripted conversation (idempotent job submission, polling,
heartbeats, a resumable aggregation session) through the dispatcher
in-process and prints both sides; --listen binds a socket and serves
connections one at a time through one service, whose session store outlives
every connection (--once exits after the first connection, printing the
bound address first — handy with port 0). Connections silent for longer
than --idle-timeout seconds are reaped (0 disables the deadline).
";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag(args, name).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for {name}: {v}");
            std::process::exit(2);
        })
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--demo") {
        return demo(parsed_flag(&args, "--seed", 7));
    }
    if let Some(addr) = flag(&args, "--listen") {
        let idle_secs: u64 = parsed_flag(&args, "--idle-timeout", 30);
        return listen(&addr, args.iter().any(|a| a == "--once"), idle_secs);
    }
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// Frames a scripted request stream through the dispatcher and prints the
/// conversation — the quickstart without a socket. The script exercises the
/// resilience surface: heartbeats, idempotent re-submission, duplicate and
/// unknown ids as typed rejections, and a session resumed mid-round.
fn demo(seed: u64) -> ExitCode {
    let clean = JobSpec::clean(seed, 4, 3);
    let requests = [
        Message::Ping { nonce: seed ^ 0x7169 },
        Message::SubmitJob { job: 0, spec: clean.clone() },
        // Bit-identical re-submission: the recorded result is replayed,
        // never re-run — what makes blind client retries safe.
        Message::SubmitJob { job: 0, spec: clean.clone() },
        // Same id, different spec: a typed DuplicateJob rejection.
        Message::SubmitJob { job: 0, spec: JobSpec::clean(seed + 99, 4, 3) },
        Message::PollJob { job: 0 },
        Message::PollJob { job: 99 },
        Message::SubmitJob { job: 1, spec: JobSpec { dropout: 0.3, ..clean.clone() } },
        Message::SubmitJob {
            job: 2,
            spec: JobSpec {
                adversary_frac: 0.25,
                attack: 1, // sign flip…
                rule: 1,   // …under the coordinate median
                ..JobSpec::clean(seed + 2, 4, 3)
            },
        },
        Message::OpenSession { session: 1, n_clients: 2, dim: 3 },
        Message::SubmitUpdate { session: 1, client: 0, weight: 30, params: vec![1.0, 0.0, 0.5] },
        // What a reconnecting participant sees mid-round.
        Message::ResumeSession { session: 1 },
        Message::SubmitUpdate { session: 1, client: 1, weight: 10, params: vec![0.0, 1.0, 0.5] },
        // Bit-identical re-upload after the round closed: replayed.
        Message::SubmitUpdate { session: 1, client: 1, weight: 10, params: vec![0.0, 1.0, 0.5] },
        Message::Shutdown,
    ];
    let mut stream = Vec::new();
    for msg in &requests {
        if let Err(e) = wire::write_frame(&mut stream, msg) {
            eprintln!("encoding failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut service = FederationService::new(1);
    let mut replies = Vec::new();
    if let Err(e) = service.serve(&mut stream.as_slice(), &mut replies) {
        eprintln!("demo conversation failed: {e}");
        return ExitCode::FAILURE;
    }
    let mut r = replies.as_slice();
    for msg in &requests {
        println!("-> {msg:?}");
        match wire::read_frame(&mut r) {
            Ok(reply) => println!("<- {reply:?}"),
            Err(e) => {
                eprintln!("missing reply: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Binds `addr` and serves connections sequentially through one
/// `FederationService`, whose store keeps sessions and finished jobs across
/// reconnects. Determinism makes concurrency across connections pointless
/// here: any interleaving would produce the same bytes, so the simple loop
/// is the honest one. Each connection carries a read deadline; a peer
/// silent past it is reaped and logged, never leaked.
fn listen(addr: &str, once: bool, idle_secs: u64) -> ExitCode {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(bound) => println!("listening on {bound}"),
        Err(e) => {
            eprintln!("cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut service = FederationService::new(1);
    let idle = (idle_secs > 0).then(|| Duration::from_secs(idle_secs));
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("accept failed: {e}");
                continue;
            }
        };
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
        if let Err(e) = stream.set_read_timeout(idle) {
            eprintln!("{peer}: cannot arm idle deadline: {e}");
            continue;
        }
        let mut reader = stream;
        let mut writer = match reader.try_clone() {
            Ok(w) => w,
            Err(e) => {
                eprintln!("{peer}: cannot clone stream: {e}");
                continue;
            }
        };
        match service.serve(&mut reader, &mut writer) {
            Ok(summary) if summary.end == ServeEnd::IdleReaped => {
                eprintln!("{peer}: idle past deadline, reaped after {} requests", summary.served);
            }
            Ok(summary) => println!("{peer}: served {} requests ({})", summary.served, summary.end),
            Err(e) => eprintln!("{peer}: connection failed: {e}"),
        }
        if once {
            break;
        }
    }
    ExitCode::SUCCESS
}
