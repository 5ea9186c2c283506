//! **Training-speed gate**: the workspace data plane (packed matmul,
//! planned discrete forward, zero-alloc batch loop) against the pinned
//! naive baseline (`LogicalNet::train_reference`), on a fixed synthetic
//! workload.
//!
//! Three gates, all of which must hold for `TRAIN_SPEED_OK` to print:
//!
//! 1. **Bit-identity** — the fast and naive paths must produce the same
//!    trained parameter bits (the FNV hash over them prints on stdout).
//! 2. **Speedup** — median wall-clock of the workspace path must be at
//!    least 2x the naive path's.
//! 3. **Coalition parity** — one federated coalition retraining stepped
//!    round-by-round through a [`FederationEngine`] session must reproduce
//!    the bits and log of a session driven by `run_to_completion` (and
//!    `train_federated`'s timing is reported as the per-coalition figure).
//!
//! Output discipline: everything on **stdout** is deterministic (workload
//! shape, parameter hashes, gate verdicts) so `run_experiments.sh --check`
//! can double-run and byte-diff it; wall-clock numbers go to **stderr** and
//! to `results/BENCH_train.json` (written with `ctfl-testkit`'s JSON
//! writer).

use ctfl_bench::args::CommonArgs;
use ctfl_bench::measure::median_ns;
use ctfl_core::data::{Dataset, FeatureKind, FeatureSchema};
use ctfl_fl::adversary::AdversaryPlan;
use ctfl_fl::aggregate::WeightedFedAvg;
use ctfl_fl::faults::FaultPlan;
use ctfl_fl::engine::FederationEngine;
use ctfl_fl::fedavg::{train_federated, ByzantineSetup, FlConfig};
use ctfl_fl::guard::GuardConfig;
use ctfl_fl::server::fnv1a_bits;
use ctfl_nn::{LogicalNet, LogicalNetConfig};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// The fixed synthetic workload: four continuous features, two classes,
/// a noisy compound rule — enough structure that training does real work.
fn workload(seed: u64, rows: usize) -> Dataset {
    let schema = FeatureSchema::new(vec![
        ("f0", FeatureKind::continuous(0.0, 1.0)),
        ("f1", FeatureKind::continuous(0.0, 1.0)),
        ("f2", FeatureKind::continuous(0.0, 1.0)),
        ("f3", FeatureKind::discrete(4)),
    ]);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7EA1_5EED);
    let mut ds = Dataset::empty(schema, 2);
    for _ in 0..rows {
        let (a, b, c) = (rng.gen::<f32>(), rng.gen::<f32>(), rng.gen::<f32>());
        let d = rng.gen_range(0..4u32);
        let noisy = rng.gen::<f64>() < 0.05;
        let label = u32::from(((a > 0.6) && (b < 0.4)) ^ (d == 3) ^ noisy);
        ds.push_row(&[a.into(), b.into(), c.into(), d.into()], label).unwrap();
    }
    ds
}

fn net_config(seed: u64) -> LogicalNetConfig {
    LogicalNetConfig {
        tau_d: 8,
        layer_sizes: vec![64],
        literal_skip: true,
        epochs: 6,
        batch_size: 64,
        seed,
        ..LogicalNetConfig::default()
    }
}

/// Median wall-clock nanoseconds of `samples` runs of each of `a` and `b`
/// (one untimed warmup each), timed in pairs whose first arm switches every
/// pair. Drift on a shared host then slows both arms alike, where timing
/// all of one arm before the other lets it land on one arm only.
fn interleaved_medians_ns<A, B>(
    samples: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (u128, u128) {
    fn time<T>(f: &mut impl FnMut() -> T) -> u128 {
        let t0 = Instant::now();
        std::hint::black_box(f());
        t0.elapsed().as_nanos()
    }
    std::hint::black_box(a());
    std::hint::black_box(b());
    let (mut a_ns, mut b_ns) = (Vec::with_capacity(samples), Vec::with_capacity(samples));
    for pair in 0..samples {
        if pair % 2 == 0 {
            a_ns.push(time(&mut a));
            b_ns.push(time(&mut b));
        } else {
            b_ns.push(time(&mut b));
            a_ns.push(time(&mut a));
        }
    }
    let median = |mut v: Vec<u128>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    (median(a_ns), median(b_ns))
}

fn main() {
    let args = CommonArgs::parse();
    const ROWS: usize = 1200;
    let ds = workload(args.seed, ROWS);
    let cfg = net_config(args.seed);
    let probe = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg.clone()).expect("valid config");
    let encoded = probe.encode(&ds).expect("workload encodes");
    println!(
        "workload: {} rows x {} literals, layers {:?}, {} epochs, batch {}",
        ROWS,
        probe.encoder().width(),
        cfg.layer_sizes,
        cfg.epochs,
        cfg.batch_size
    );

    // Gate 1: bit-identity of the two training paths.
    let mut fast = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg.clone()).expect("valid config");
    let mut naive = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg.clone()).expect("valid config");
    fast.train(&encoded).expect("training succeeds");
    naive.train_reference(&encoded).expect("training succeeds");
    let fast_hash = fnv1a_bits(&fast.params());
    let naive_hash = fnv1a_bits(&naive.params());
    println!("params hash fast  {fast_hash:#018X}");
    println!("params hash naive {naive_hash:#018X}");
    assert_eq!(fast_hash, naive_hash, "workspace path diverged from the naive baseline");
    println!("bit-identity ok");

    // Gate 2: >= 2x median speedup. Each sample trains a freshly seeded net
    // so both paths pay the same construction cost and start from the same
    // parameters.
    const SAMPLES: usize = 5;
    let (naive_ns, fast_ns) = interleaved_medians_ns(
        SAMPLES,
        || {
            let mut net =
                LogicalNet::new(Arc::clone(ds.schema()), 2, cfg.clone()).expect("valid config");
            net.train_reference(&encoded).expect("training succeeds");
            net
        },
        || {
            let mut net =
                LogicalNet::new(Arc::clone(ds.schema()), 2, cfg.clone()).expect("valid config");
            net.train(&encoded).expect("training succeeds");
            net
        },
    );
    let speedup = naive_ns as f64 / fast_ns as f64;
    let epochs_per_sec = cfg.epochs as f64 / (fast_ns as f64 / 1e9);
    eprintln!("naive train   median {:>10.3} ms", naive_ns as f64 / 1e6);
    eprintln!(
        "fast  train   median {:>10.3} ms   ({epochs_per_sec:.2} epochs/s)",
        fast_ns as f64 / 1e6
    );
    eprintln!("speedup       {speedup:.2}x (gate: >= 2.0x)");

    // Gate 3: per-coalition federated retraining — the one-shot driver vs
    // a FederationEngine session stepped round-by-round, same coalition,
    // byte-equal parameters. Proves the pause/inspect/resume state machine
    // commits exactly the rounds the one-shot path does.
    const CLIENTS: usize = 4;
    let shards: Vec<Dataset> = (0..CLIENTS)
        .map(|c| {
            let mut d = Dataset::empty(Arc::clone(ds.schema()), 2);
            for i in (c..ds.len()).step_by(CLIENTS) {
                d.push_row(&ds.row(i), ds.label(i)).unwrap();
            }
            d
        })
        .collect();
    let fl = FlConfig { rounds: 4, local_epochs: 1, parallel: false };
    let plan = FaultPlan::none(CLIENTS, fl.rounds);
    let adversary = AdversaryPlan::none(CLIENTS);
    let guard = GuardConfig::strict();
    let setup = ByzantineSetup {
        faults: &plan,
        adversary: &adversary,
        guard: &guard,
        aggregator: &WeightedFedAvg,
    };
    let one_shot = {
        let views: Vec<_> = shards.iter().map(Dataset::view).collect();
        let mut engine = FederationEngine::from_views(&views, 2, &cfg, &fl, &setup)
            .expect("engine session opens");
        engine.run_to_completion().expect("federation runs");
        engine.finish()
    };
    let stepped = {
        let views: Vec<_> = shards.iter().map(Dataset::view).collect();
        let mut engine = FederationEngine::from_views(&views, 2, &cfg, &fl, &setup)
            .expect("engine session opens");
        let mut committed = 0usize;
        while engine.step_round().expect("round steps").is_some() {
            committed += 1;
        }
        assert_eq!(committed, fl.rounds, "stepped session committed every round");
        engine.finish()
    };
    let one_shot_hash = fnv1a_bits(&one_shot.net.params());
    let stepped_hash = fnv1a_bits(&stepped.net.params());
    println!("coalition hash one-shot {one_shot_hash:#018X}");
    println!("coalition hash stepped  {stepped_hash:#018X}");
    assert_eq!(one_shot_hash, stepped_hash, "stepped engine diverged from the one-shot driver");
    assert_eq!(
        one_shot.log.render(),
        stepped.log.render(),
        "stepped engine log diverged from the one-shot driver"
    );
    println!("coalition parity ok");

    let coalition_ns =
        median_ns(3, || train_federated(&shards, 2, &cfg, &fl).expect("federation runs"));
    eprintln!("coalition retrain median {:>10.3} ms", coalition_ns as f64 / 1e6);

    let report = ctfl_testkit::json!({
        "bench": "train_speed",
        "seed": args.seed as i64,
        "workload": ctfl_testkit::json!({
            "rows": ROWS,
            "literals": probe.encoder().width(),
            "layers": cfg.layer_sizes.clone(),
            "epochs": cfg.epochs,
            "batch_size": cfg.batch_size,
        }),
        "params_hash": format!("{fast_hash:#018X}"),
        "naive_median_ns": naive_ns as f64,
        "fast_median_ns": fast_ns as f64,
        "speedup": speedup,
        "epochs_per_sec": epochs_per_sec,
        "coalition_median_ns": coalition_ns as f64,
        "gate": "speedup >= 2.0",
    });
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_train.json", report.pretty() + "\n")
        .expect("write BENCH_train.json");

    assert!(
        speedup >= 2.0,
        "workspace training is only {speedup:.2}x the naive baseline (gate: >= 2.0x)"
    );
    println!("TRAIN_SPEED_OK");
}
