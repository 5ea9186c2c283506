//! **Service equivalence goldens**: the wire dispatcher must answer every
//! request with the same bytes it gave when the service still kept its
//! store behind a lock and tracked pending jobs.
//!
//! Both goldens were captured from that implementation, before the
//! dispatcher was rewritten, so they pin today's service to yesterday's
//! rather than to itself:
//!
//! * the full stdout of `ctfl_server --demo` — the scripted quickstart
//!   conversation (heartbeat, idempotent job re-submission, duplicate and
//!   unknown ids, a session resumed mid-round);
//! * an FNV-1a hash over every reply payload of a seeded sequence of 2,000
//!   requests through one [`FederationService::handle_message`], plus a
//!   histogram of reply kinds so a drift names what moved. The sequence
//!   fills the 64-entry session table and forces evictions; sends
//!   duplicate, conflicting, NaN, wrong-length and out-of-range updates;
//!   resumes open, completed, evicted and unknown sessions; runs a few
//!   dozen tiny jobs with re-submissions, conflicting specs, unknown rule
//!   codes and polls; and mixes in pings and server-to-client messages sent
//!   as requests.
//!
//! The reply hash covers payloads (`wire::encode`), not frames, so it pins
//! the dispatcher and not the frame checksum. It was captured over payloads
//! before the frame checksum moved from FNV-1a to CRC-32C, so it still pins
//! today's dispatcher to yesterday's replies;
//! `tests/wire_props.rs::golden_byte_layout` pins the frame bytes.

use ctfl::fl::server::FederationService;
use ctfl::fl::wire::{self, JobSpec, Message, RejectCode};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::process::Command;

/// `ctfl_server --demo` (seed 7), byte for byte.
const DEMO_STDOUT: &str = r#"-> Ping { nonce: 29038 }
<- Pong { nonce: 29038 }
-> SubmitJob { job: 0, spec: JobSpec { seed: 7, n_clients: 4, rows_per_client: 40, rounds: 3, local_epochs: 1, parallel: false, dropout: 0.0, straggler: 0.0, corrupt: 0.0, adversary_frac: 0.0, attack: 0, rule: 0, schedule: 0, sample_frac: 0.5, max_staleness: 2, stale_decay: 0.5, topology: 0, gossip_degree: 2 } }
<- JobDone { job: 0, params_hash: 8973618962788766963, log_hash: 5782912374043531643, rounds: 3, accuracy: 0.75 }
-> SubmitJob { job: 0, spec: JobSpec { seed: 7, n_clients: 4, rows_per_client: 40, rounds: 3, local_epochs: 1, parallel: false, dropout: 0.0, straggler: 0.0, corrupt: 0.0, adversary_frac: 0.0, attack: 0, rule: 0, schedule: 0, sample_frac: 0.5, max_staleness: 2, stale_decay: 0.5, topology: 0, gossip_degree: 2 } }
<- JobDone { job: 0, params_hash: 8973618962788766963, log_hash: 5782912374043531643, rounds: 3, accuracy: 0.75 }
-> SubmitJob { job: 0, spec: JobSpec { seed: 106, n_clients: 4, rows_per_client: 40, rounds: 3, local_epochs: 1, parallel: false, dropout: 0.0, straggler: 0.0, corrupt: 0.0, adversary_frac: 0.0, attack: 0, rule: 0, schedule: 0, sample_frac: 0.5, max_staleness: 2, stale_decay: 0.5, topology: 0, gossip_degree: 2 } }
<- Reject { code: DuplicateJob, detail: "job 0 was already submitted with a different spec" }
-> PollJob { job: 0 }
<- JobDone { job: 0, params_hash: 8973618962788766963, log_hash: 5782912374043531643, rounds: 3, accuracy: 0.75 }
-> PollJob { job: 99 }
<- Reject { code: UnknownJob, detail: "job 99 was never submitted" }
-> SubmitJob { job: 1, spec: JobSpec { seed: 7, n_clients: 4, rows_per_client: 40, rounds: 3, local_epochs: 1, parallel: false, dropout: 0.3, straggler: 0.0, corrupt: 0.0, adversary_frac: 0.0, attack: 0, rule: 0, schedule: 0, sample_frac: 0.5, max_staleness: 2, stale_decay: 0.5, topology: 0, gossip_degree: 2 } }
<- JobDone { job: 1, params_hash: 1089359040248799751, log_hash: 743114996459787310, rounds: 3, accuracy: 0.83125 }
-> SubmitJob { job: 2, spec: JobSpec { seed: 9, n_clients: 4, rows_per_client: 40, rounds: 3, local_epochs: 1, parallel: false, dropout: 0.0, straggler: 0.0, corrupt: 0.0, adversary_frac: 0.25, attack: 1, rule: 1, schedule: 0, sample_frac: 0.5, max_staleness: 2, stale_decay: 0.5, topology: 0, gossip_degree: 2 } }
<- JobDone { job: 2, params_hash: 3358940443265609806, log_hash: 14794792854519902533, rounds: 3, accuracy: 0.8125 }
-> OpenSession { session: 1, n_clients: 2, dim: 3 }
<- Ack { session: 1, client: 4294967295 }
-> SubmitUpdate { session: 1, client: 0, weight: 30, params: [1.0, 0.0, 0.5] }
<- Ack { session: 1, client: 0 }
-> ResumeSession { session: 1 }
<- SessionStatus { session: 1, n_clients: 2, dim: 3, received: [0] }
-> SubmitUpdate { session: 1, client: 1, weight: 10, params: [0.0, 1.0, 0.5] }
<- RoundComplete { session: 1, params: [0.75, 0.25, 0.5] }
-> SubmitUpdate { session: 1, client: 1, weight: 10, params: [0.0, 1.0, 0.5] }
<- RoundComplete { session: 1, params: [0.75, 0.25, 0.5] }
-> Shutdown
<- Shutdown
"#;

#[test]
fn demo_conversation_matches_its_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_ctfl_server"))
        .arg("--demo")
        .output()
        .expect("ctfl_server runs");
    assert!(out.status.success(), "demo failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("demo prints UTF-8");
    assert_eq!(stdout.lines().count(), 28);
    assert_eq!(stdout, DEMO_STDOUT);
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

const REQUESTS: usize = 2_000;
/// Session ids are drawn from `0..SESSION_IDS`, well past the 64-entry
/// session table, so opens run the table full and evict.
const SESSION_IDS: u32 = 160;
/// Job ids are drawn from `0..JOB_IDS`; each runs at most once, every later
/// submission of the same spec is a replay.
const JOB_IDS: u32 = 36;

/// The shape every honest open of `session` uses.
fn shape(session: u32) -> (u32, u32) {
    (1 + session % 3, 1 + (session / 3) % 4)
}

/// The tiny job every honest submission of `job` carries. Every ninth id
/// names an unknown aggregation rule, so its failure is recorded and
/// replayed too.
fn job_spec(job: u32) -> JobSpec {
    JobSpec {
        rows_per_client: 6,
        rule: if job % 9 == 4 { 9 } else { (job % 2) as u8 },
        dropout: if job % 3 == 1 { 0.3 } else { 0.0 },
        ..JobSpec::clean(1_000 + u64::from(job), 2 + job % 3, 1 + job % 2)
    }
}

/// An honest upload of `client` into `session`, a pure function of both,
/// so repeating it is a bit-identical replay.
fn upload(session: u32, client: u32) -> (u32, Vec<f32>) {
    let (_, dim) = shape(session);
    let params =
        (0..dim).map(|k| ((session * 7 + client * 3 + k) % 11) as f32 / 4.0 - 1.0).collect();
    (1 + (session + client) % 50, params)
}

/// The seeded request sequence.
fn requests(seed: u64) -> Vec<Message> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut recent: Vec<u32> = Vec::new();
    let mut out = Vec::with_capacity(REQUESTS);
    while out.len() < REQUESTS {
        let roll = rng.gen_range(0..100u32);
        let msg = match roll {
            0..=21 => {
                let session = rng.gen_range(0..SESSION_IDS);
                recent.push(session);
                if recent.len() > 8 {
                    recent.remove(0);
                }
                let (n_clients, dim) = shape(session);
                match rng.gen_range(0..30u32) {
                    0 => Message::OpenSession { session, n_clients: 0, dim },
                    1..=3 => Message::OpenSession { session, n_clients: n_clients + 1, dim },
                    _ => Message::OpenSession { session, n_clients, dim },
                }
            }
            22..=59 => {
                let session = match recent.len() {
                    n if n > 0 && rng.gen_bool(0.8) => recent[rng.gen_range(0..n)],
                    _ => rng.gen_range(0..SESSION_IDS),
                };
                let (n_clients, _) = shape(session);
                let client = if rng.gen_bool(0.08) {
                    n_clients + rng.gen_range(0..3u32)
                } else {
                    rng.gen_range(0..n_clients)
                };
                let (mut weight, mut params) = upload(session, client);
                match rng.gen_range(0..24u32) {
                    0 => params.push(0.5),
                    1 => params.clear(),
                    2 => params[0] = f32::NAN,
                    3 => params[0] = f32::INFINITY,
                    4 | 5 => params[0] += 1.0,
                    6 => weight += 1,
                    7 => weight = 0,
                    _ => {}
                }
                Message::SubmitUpdate { session, client, weight, params }
            }
            60..=69 => {
                let session = if rng.gen_bool(0.85) {
                    rng.gen_range(0..SESSION_IDS)
                } else {
                    SESSION_IDS + rng.gen_range(0..50u32)
                };
                Message::ResumeSession { session }
            }
            70..=77 => {
                let job = rng.gen_range(0..JOB_IDS);
                let mut spec = job_spec(job);
                if rng.gen_bool(0.15) {
                    spec.seed += 1;
                }
                Message::SubmitJob { job, spec }
            }
            78..=85 => Message::PollJob { job: rng.gen_range(0..JOB_IDS + 8) },
            86..=92 => Message::Ping { nonce: rng.gen::<u64>() },
            93..=98 => match rng.gen_range(0..6u32) {
                0 => Message::Ack { session: 1, client: 2 },
                1 => Message::Pong { nonce: rng.gen::<u64>() },
                2 => Message::JobDone {
                    job: 3,
                    params_hash: rng.gen::<u64>(),
                    log_hash: 5,
                    rounds: 2,
                    accuracy: 0.5,
                },
                3 => Message::RoundComplete { session: 4, params: vec![0.25, -1.0] },
                4 => Message::Reject { code: RejectCode::Busy, detail: "echo".into() },
                _ => Message::SessionStatus { session: 6, n_clients: 3, dim: 2, received: vec![1] },
            },
            _ => Message::Shutdown,
        };
        out.push(msg);
    }
    out
}

/// The reply's kind, with reject codes spelled out.
fn kind(reply: &Message) -> String {
    match reply {
        Message::Reject { code, .. } => format!("reject:{}", code.name()),
        other => format!("{other:?}").split([' ', '{']).next().unwrap_or("").to_lowercase(),
    }
}

#[test]
fn seeded_request_sequence_replies_match_their_golden() {
    let mut service = FederationService::new(1);
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    for request in requests(0x5E55_1014) {
        let reply = service.handle_message(request);
        hash = fnv1a(hash, &wire::encode(&reply));
        *kinds.entry(kind(&reply)).or_default() += 1;
    }
    let histogram: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
    let histogram = histogram.join(" ");
    // Every case the sequence claims to cover must actually occur.
    for needed in [
        "reject:busy",
        "reject:expired",
        "reject:unknown-session",
        "reject:duplicate-update",
        "reject:invalid",
        "reject:duplicate-job",
        "reject:unknown-job",
        "reject:protocol",
        "roundcomplete",
        "sessionstatus",
        "jobdone",
        "pong",
    ] {
        assert!(kinds.contains_key(needed), "sequence never produced {needed}: {histogram}");
    }
    assert_eq!(
        histogram,
        "ack=457 jobdone=216 pong=142 reject:busy=11 reject:duplicate-job=43 \
         reject:duplicate-update=68 reject:expired=339 reject:invalid=175 reject:protocol=136 \
         reject:unknown-job=42 reject:unknown-session=176 roundcomplete=122 sessionstatus=56 \
         shutdown=17"
    );
    assert_eq!(hash, 14248652383473714454, "reply bytes drifted: {histogram}");
}
