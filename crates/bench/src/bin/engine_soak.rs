//! **Engine soak gate**: the federation service must multiplex many engine
//! sessions without perturbing any of them.
//!
//! A seeded batch of jobs — healthy, faulty, adversarial, robust-rule —
//! runs serially, one [`FederationService::execute_job`] at a time, and
//! multiplexed over the scoped-thread worker pool. Both must produce
//! identical `JobResult`s — parameter hash, log hash, committed rounds,
//! accuracy — for every job. Then the whole batch replays through the wire
//! dispatcher ([`Message::SubmitJob`] frames in, [`Message::JobDone`]
//! frames out) and must reproduce the same fingerprints, proving the
//! protocol layer adds nothing to the results.
//!
//! Everything on stdout is deterministic, so `run_experiments.sh --check`
//! double-runs the binary and byte-diffs the output; `ENGINE_OK` prints
//! only if every comparison held.

use ctfl_bench::args::CommonArgs;
use ctfl_fl::server::{FederationService, JobResult};
use ctfl_fl::wire::{self, JobSpec, Message};

/// The soak batch: a spread of federation shapes over the service's fault,
/// attack, and rule catalogues, every job seeded from the CLI seed.
fn batch(seed: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    // Healthy baselines at a few federation sizes.
    for (i, n) in [2u32, 3, 5].into_iter().enumerate() {
        jobs.push(JobSpec::clean(seed + i as u64, n, 3));
    }
    // Faulty: dropout, stragglers, corrupted uploads.
    jobs.push(JobSpec { dropout: 0.3, ..JobSpec::clean(seed + 10, 4, 3) });
    jobs.push(JobSpec { straggler: 0.25, ..JobSpec::clean(seed + 11, 4, 3) });
    jobs.push(JobSpec { corrupt: 0.2, ..JobSpec::clean(seed + 12, 4, 3) });
    // Adversarial: sign flip under the median, scaling under trimmed mean,
    // free riding under Krum.
    jobs.push(JobSpec {
        adversary_frac: 0.25,
        attack: 1,
        rule: 1,
        ..JobSpec::clean(seed + 20, 4, 3)
    });
    jobs.push(JobSpec {
        adversary_frac: 0.25,
        attack: 2,
        rule: 2,
        ..JobSpec::clean(seed + 21, 4, 3)
    });
    jobs.push(JobSpec {
        adversary_frac: 0.25,
        attack: 5,
        rule: 3,
        ..JobSpec::clean(seed + 22, 4, 3)
    });
    // Parallel client execution inside one session, multiplexed among the
    // serial ones.
    jobs.push(JobSpec { parallel: true, dropout: 0.2, ..JobSpec::clean(seed + 30, 4, 3) });
    jobs
}

fn unwrap_all(label: &str, results: Vec<ctfl_core::error::Result<JobResult>>) -> Vec<JobResult> {
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{label}: soak job failed: {e}")))
        .collect()
}

fn main() {
    let args = CommonArgs::parse();
    let specs = batch(args.seed);
    let jobs: Vec<(u32, JobSpec)> =
        specs.into_iter().enumerate().map(|(i, s)| (i as u32, s)).collect();
    println!("soak batch: {} jobs, seed {}", jobs.len(), args.seed);

    // Serial reference.
    let serial = unwrap_all(
        "serial",
        jobs.iter().map(|(id, spec)| FederationService::execute_job(*id, spec)).collect(),
    );

    // Multiplexed.
    let service = FederationService::new(4);
    let pooled = unwrap_all("pooled", service.run_jobs(&jobs));
    assert_eq!(serial, pooled, "worker pool diverged from serial execution");

    // The wire dispatcher must add nothing: frame every job in, decode
    // every JobDone out, compare fingerprints.
    let mut requests = Vec::new();
    for (id, spec) in &jobs {
        wire::write_frame(&mut requests, &Message::SubmitJob { job: *id, spec: spec.clone() })
            .expect("job frames encode");
    }
    wire::write_frame(&mut requests, &Message::Shutdown).expect("shutdown encodes");
    let mut dispatcher = FederationService::new(1);
    let mut replies = Vec::new();
    let served = dispatcher
        .serve(&mut requests.as_slice(), &mut replies)
        .expect("soak conversation survives")
        .served;
    assert_eq!(served, jobs.len() + 1, "one reply per request plus the shutdown echo");
    let mut r = replies.as_slice();
    for expect in &serial {
        let reply = wire::read_frame(&mut r).expect("reply frame decodes");
        let Message::JobDone { job, params_hash, log_hash, rounds, accuracy } = reply else {
            panic!("job {} rejected over the wire: {reply:?}", expect.job);
        };
        assert_eq!(
            (job, params_hash, log_hash, rounds),
            (expect.job, expect.params_hash, expect.log_hash, expect.rounds),
            "wire path diverged on job {}",
            expect.job
        );
        assert_eq!(accuracy.to_bits(), expect.accuracy.to_bits(), "accuracy bits drifted");
    }
    assert_eq!(
        wire::read_frame(&mut r).expect("shutdown echo decodes"),
        Message::Shutdown,
        "conversation must end with the shutdown echo"
    );

    for res in &serial {
        println!(
            "job {:>2}: params {:#018X} log {:#018X} rounds {} accuracy {:.6}",
            res.job, res.params_hash, res.log_hash, res.rounds, res.accuracy
        );
    }
    println!("ENGINE_OK");
}
