//! Property suite for the training data-plane kernels (the head's packed
//! matmul, the logical layer's literal kernels) and the workspace-routed
//! training loops, including the steps that fail a literal check and fall
//! back to the layer's naive oracles.
//!
//! The contract under test is **bitwise identity**: every kernel must
//! reproduce its naive counterpart's floating-point output exactly, and the
//! workspace `train`/`train_local` loops must reproduce the pre-refactor
//! parameter stream byte-for-byte (`train_reference` /
//! `train_local_reference` are the pinned naive baselines). A golden FNV
//! hash over the trained parameter bits additionally pins the stream
//! against *both* paths drifting together.

use ctfl_core::data::{Dataset, FeatureKind, FeatureSchema};
use ctfl_nn::matrix::{Matrix, PackedRhs};
use ctfl_nn::{LiteralBatch, LiteralPlan, LogicalLayer, LogicalNet, LogicalNetConfig};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::{Rng, SeedableRng};
use ctfl_testkit::{check, prop_assert, Gen};
use std::sync::Arc;

/// FNV-1a over the little-endian bit patterns of a float slice.
fn fnv1a_bits(values: &[f32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Asserts two matrices are equal down to the bit pattern, except that a
/// NaN matches any NaN: a NaN's payload follows the operand order of the
/// add that made it, and the compiler may swap the operands of a
/// commutative add.
fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) -> Result<(), String> {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return Err(format!(
            "{what}: shape {}x{} vs {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        ));
    }
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        if x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()) {
            return Err(format!("{what}: element {i} differs: {x:?} vs {y:?}"));
        }
    }
    Ok(())
}

/// A random matrix with a controllable fraction of exact zeros — the
/// naive backward skips zero gradients, so zero-heavy inputs are the hard
/// case.
fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, zero_frac: f64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.data_mut() {
        if rng.gen::<f64>() >= zero_frac {
            *v = rng.gen::<f32>() * 2.0 - 0.5;
        }
    }
    m
}

/// A dirty, wrong-shaped buffer: `_into` kernels must fully overwrite.
fn dirty(rng: &mut StdRng) -> Matrix {
    let rows = rng.gen_range(0..4usize);
    let cols = rng.gen_range(0..5usize);
    let mut m = Matrix::zeros(rows, cols);
    for v in m.data_mut() {
        *v = f32::NAN;
    }
    m
}

#[derive(Debug)]
struct MatmulCase {
    seed: u64,
    m: usize,
    k: usize,
    n: usize,
    zero_frac: f64,
    /// The share of right-hand-side entries set to NaN, `+∞` or `−∞`.
    nonfinite_frac: f64,
}

fn gen_matmul_case(g: &mut Gen) -> MatmulCase {
    MatmulCase {
        seed: g.rng().gen(),
        m: g.len_in(1, 12),
        k: g.len_in(1, 24),
        n: g.len_in(1, 12),
        zero_frac: g.f64_in(0.0, 0.95),
        nonfinite_frac: g.f64_in(0.0, 0.2),
    }
}

/// Every matmul kernel sums every partial product, so a NaN or infinite
/// right-hand-side entry reaches each output it multiplies, a zero
/// left-hand-side entry included.
#[test]
fn matmul_kernels_match_naive_bitwise() {
    check("matmul_kernels_match_naive_bitwise", 64, gen_matmul_case, |c| {
        let mut rng = StdRng::seed_from_u64(c.seed);
        let a = random_matrix(&mut rng, c.m, c.k, c.zero_frac);
        let mut b = random_matrix(&mut rng, c.k, c.n, c.zero_frac);
        for v in b.data_mut() {
            if rng.gen::<f64>() < c.nonfinite_frac {
                *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3usize)];
            }
        }

        // Independent oracle: textbook triple loop in the axpy order
        // (i, k, j), every product added.
        let mut oracle = Matrix::zeros(c.m, c.n);
        for i in 0..c.m {
            for kk in 0..c.k {
                let av = a.get(i, kk);
                for j in 0..c.n {
                    oracle.add_at(i, j, av * b.get(kk, j));
                }
            }
        }

        let plain = a.matmul(&b);
        assert_bits_eq(&plain, &oracle, "matmul vs oracle")?;

        let mut into = dirty(&mut rng);
        a.matmul_into(&b, &mut into);
        assert_bits_eq(&into, &oracle, "matmul_into vs oracle")?;

        let mut packed = PackedRhs::default();
        packed.pack_from(&b);
        let mut packed_out = dirty(&mut rng);
        a.matmul_packed_into(&packed, &mut packed_out);
        assert_bits_eq(&packed_out, &oracle, "matmul_packed_into vs oracle")?;
        Ok(())
    });
}

#[test]
fn select_rows_into_matches_naive() {
    check(
        "select_rows_into_matches_naive",
        64,
        |g| {
            let seed: u64 = g.rng().gen();
            let rows = g.len_in(1, 20);
            let cols = g.len_in(1, 16);
            let n_idx = g.len_in(0, 24);
            (seed, rows, cols, n_idx)
        },
        |&(seed, rows, cols, n_idx)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = random_matrix(&mut rng, rows, cols, 0.3);
            let indices: Vec<usize> =
                (0..n_idx).map(|_| rng.gen_range(0..rows)).collect();
            let naive = m.select_rows(&indices);
            let mut out = dirty(&mut rng);
            m.select_rows_into(&indices, &mut out);
            assert_bits_eq(&out, &naive, "select_rows_into")
        },
    );
}

// ---------------------------------------------------------------------------
// The literal kernels against the naive oracles on 0/1 inputs.
// ---------------------------------------------------------------------------

/// The clamp on the backward's divisor (`max(1 − w, ε)`); weights within it
/// of 1 make the clamp bite.
const FACTOR_EPS: f32 = 1e-6;

#[derive(Debug)]
struct LiteralCase {
    seed: u64,
    /// Up to 200 literals: masks of one, two, three and four words.
    in_dim: usize,
    /// Up to 80 nodes: runs shorter and longer than the 32-lane blocks.
    n_nodes: usize,
    batch: usize,
    ones_frac: f64,
    dy_zero_frac: f64,
}

fn gen_literal_case(g: &mut Gen) -> LiteralCase {
    LiteralCase {
        seed: g.rng().gen(),
        in_dim: g.len_in(1, 200),
        n_nodes: g.len_in(2, 80),
        batch: g.len_in(1, 10),
        ones_frac: g.f64_in(0.0, 1.0),
        dy_zero_frac: g.f64_in(0.0, 0.9),
    }
}

/// A layer whose weights mix the exact values the kernels must get right
/// (0, 0.5, 1 and within `FACTOR_EPS` of 1) with arbitrary ones in
/// `[0, 1]`, and a 0/1 batch that includes an all-zero and an all-one row.
fn literal_layer(c: &LiteralCase, rng: &mut StdRng) -> (LogicalLayer, Matrix) {
    let mut layer = LogicalLayer::new(c.in_dim, c.n_nodes, rng);
    for w in layer.weights_mut().data_mut() {
        *w = match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => 0.5,
            2 => 1.0,
            3 => 1.0 - FACTOR_EPS * rng.gen::<f32>(),
            _ => rng.gen::<f32>(),
        };
    }
    let mut x = Matrix::zeros(c.batch, c.in_dim);
    for b in 0..c.batch {
        for v in x.row_mut(b) {
            let one = match b {
                0 => false,
                1 => true,
                _ => rng.gen::<f64>() < c.ones_frac,
            };
            *v = if one { 1.0 } else { 0.0 };
        }
    }
    (layer, x)
}

fn literal_inputs(
    layer: &LogicalLayer,
    x: &Matrix,
) -> Result<(LiteralBatch, LiteralPlan), String> {
    let mut lits = LiteralBatch::default();
    prop_assert!(lits.rebuild(x), "a 0/1 batch failed the input check");
    let mut plan = LiteralPlan::default();
    prop_assert!(layer.plan_literals_into(&mut plan), "weights in [0, 1] failed the range check");
    Ok((lits, plan))
}

#[test]
fn literal_forwards_match_naive_bitwise() {
    check("literal_forwards_match_naive_bitwise", 96, gen_literal_case, |c| {
        let mut rng = StdRng::seed_from_u64(c.seed);
        let (layer, x) = literal_layer(c, &mut rng);
        let (lits, plan) = literal_inputs(&layer, &x)?;
        let mut out = dirty(&mut rng);
        layer.forward_soft_literals_into(&lits, &plan, &mut out);
        assert_bits_eq(&out, &layer.forward_soft(&x), "forward_soft_literals_into")?;
        let mut out = dirty(&mut rng);
        layer.forward_discrete_literals_into(&lits, &plan, &mut out);
        assert_bits_eq(&out, &layer.forward_discrete(&x), "forward_discrete_literals_into")
    });
}

#[test]
fn literal_backward_matches_naive_dw_bitwise() {
    check("literal_backward_matches_naive_dw_bitwise", 96, gen_literal_case, |c| {
        let mut rng = StdRng::seed_from_u64(c.seed);
        let (layer, x) = literal_layer(c, &mut rng);
        let (lits, plan) = literal_inputs(&layer, &x)?;
        let y = layer.forward_soft(&x);
        // Signed gradients with exact zeros, the naive loop's skip case.
        let dy = random_matrix(&mut rng, c.batch, c.n_nodes, c.dy_zero_frac);
        let mut dw_naive = Matrix::zeros(c.n_nodes, c.in_dim);
        layer.backward(&x, &y, &dy, &mut dw_naive);
        let (mut dwt, mut dw) = (dirty(&mut rng), dirty(&mut rng));
        layer.backward_literals_into(&lits, &plan, &y, &dy, &mut dwt, &mut dw);
        assert_bits_eq(&dw, &dw_naive, "backward_literals_into dw")
    });
}

/// The checks that route a step to the literal kernels accept exactly what
/// they promise: inputs bit-exactly `+0.0` or `1.0`, weights in `[0, 1]`.
#[test]
fn literal_checks_reject_what_the_kernels_cannot_take() {
    let mut lits = LiteralBatch::default();
    let ok = Matrix::from_vec(2, 3, vec![0.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
    assert!(lits.rebuild(&ok));
    for bad in [0.5, -0.0, 2.0, -1.0, f32::NAN, f32::INFINITY, 1.0 + f32::EPSILON] {
        let mut x = ok.clone();
        x.set(1, 2, bad);
        assert!(!lits.rebuild(&x), "input {bad:?} passed the check");
    }
    let mut rng = StdRng::seed_from_u64(3);
    let mut layer = LogicalLayer::new(70, 5, &mut rng);
    let mut plan = LiteralPlan::default();
    assert!(layer.plan_literals_into(&mut plan));
    for edge in [0.0, 1.0, -0.0] {
        layer.weights_mut().set(4, 69, edge);
        assert!(layer.plan_literals_into(&mut plan), "weight {edge:?} failed the check");
    }
    for bad in [1.0 + f32::EPSILON, -1e-7, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        layer.weights_mut().set(4, 69, bad);
        assert!(!layer.plan_literals_into(&mut plan), "weight {bad:?} passed the check");
        layer.weights_mut().set(4, 69, 0.25);
    }
}

// ---------------------------------------------------------------------------
// End-to-end: workspace training replays the naive parameter stream.
// ---------------------------------------------------------------------------

/// A small mixed-schema dataset with label noise, sized by the case.
fn random_dataset(rng: &mut StdRng, n_rows: usize) -> Dataset {
    let schema = FeatureSchema::new(vec![
        ("x", FeatureKind::continuous(0.0, 1.0)),
        ("c", FeatureKind::discrete(3)),
    ]);
    let mut ds = Dataset::empty(schema, 2);
    for _ in 0..n_rows {
        let x = rng.gen::<f32>();
        let c = rng.gen_range(0..3u32);
        let noisy = rng.gen::<f64>() < 0.1;
        let label = u32::from((x > 0.5) ^ (c == 2) ^ noisy);
        ds.push_row(&[x.into(), c.into()], label).unwrap();
    }
    ds
}

/// A dataset of six continuous features and one discrete one: at
/// `tau_d = 6` it encodes to 75 literals, two words a row.
fn wide_dataset(rng: &mut StdRng, n_rows: usize) -> Dataset {
    let mut features: Vec<(String, FeatureKind)> =
        (0..6).map(|f| (format!("x{f}"), FeatureKind::continuous(0.0, 1.0))).collect();
    features.push(("c".to_string(), FeatureKind::discrete(3)));
    let mut ds = Dataset::empty(FeatureSchema::new(features), 2);
    for _ in 0..n_rows {
        let xs: Vec<f32> = (0..6).map(|_| rng.gen::<f32>()).collect();
        let c = rng.gen_range(0..3u32);
        let label = u32::from((xs[0] > 0.5) ^ (xs[3] < 0.3) ^ (c == 1));
        let mut row: Vec<_> = xs.iter().map(|&v| v.into()).collect();
        row.push(c.into());
        ds.push_row(&row, label).unwrap();
    }
    ds
}

#[derive(Debug)]
struct TrainCase {
    seed: u64,
    rows: usize,
    /// The logical layer's width.
    width: usize,
    batch_size: usize,
    epochs: usize,
    /// Train on [`wide_dataset`] (75 literals) instead of
    /// [`random_dataset`] (11).
    wide: bool,
}

fn gen_train_case(g: &mut Gen) -> TrainCase {
    TrainCase {
        seed: g.rng().gen(),
        rows: g.len_in(8, 60),
        width: g.len_in(2, 14),
        batch_size: g.len_in(1, 24),
        epochs: g.len_in(1, 4),
        wide: g.bool(),
    }
}

fn case_dataset(c: &TrainCase) -> Dataset {
    let mut rng = StdRng::seed_from_u64(c.seed);
    if c.wide {
        wide_dataset(&mut rng, c.rows)
    } else {
        random_dataset(&mut rng, c.rows)
    }
}

fn case_config(c: &TrainCase) -> LogicalNetConfig {
    LogicalNetConfig {
        tau_d: if c.wide { 6 } else { 4 },
        layer_sizes: vec![c.width],
        epochs: c.epochs,
        batch_size: c.batch_size,
        seed: c.seed ^ 0xA5A5,
        ..LogicalNetConfig::default()
    }
}

fn params_bits(net: &LogicalNet) -> Vec<u32> {
    net.params().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn train_replays_reference_parameter_stream() {
    check("train_replays_reference_parameter_stream", 12, gen_train_case, |c| {
        let ds = case_dataset(c);
        let cfg = case_config(c);

        let mut fast = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg.clone()).unwrap();
        let mut naive = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg).unwrap();
        let encoded = fast.encode(&ds).unwrap();

        let rf = fast.train(&encoded).unwrap();
        let rn = naive.train_reference(&encoded).unwrap();

        prop_assert!(
            params_bits(&fast) == params_bits(&naive),
            "trained parameter bits diverge"
        );
        prop_assert!(rf == rn, "train reports diverge: {rf:?} vs {rn:?}");

        // A second train call on the same instance reuses the (now warm,
        // snapshot-carrying) workspace — the stale-snapshot guard must hold.
        let rf2 = fast.train(&encoded).unwrap();
        let rn2 = naive.train_reference(&encoded).unwrap();
        prop_assert!(
            params_bits(&fast) == params_bits(&naive),
            "second-train parameter bits diverge"
        );
        prop_assert!(rf2 == rn2, "second-train reports diverge");
        Ok(())
    });
}

#[test]
fn train_local_replays_reference_parameter_stream() {
    check("train_local_replays_reference_parameter_stream", 12, gen_train_case, |c| {
        let ds = case_dataset(c);
        let cfg = case_config(c);

        let mut fast = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg.clone()).unwrap();
        let mut naive = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg).unwrap();
        let encoded = fast.encode(&ds).unwrap();

        // Several rounds: optimizer state and workspace persist across calls.
        for round in 0..3 {
            fast.train_local(&encoded, c.epochs).unwrap();
            naive.train_local_reference(&encoded, c.epochs).unwrap();
            prop_assert!(
                params_bits(&fast) == params_bits(&naive),
                "round {round}: parameter bits diverge"
            );
        }
        Ok(())
    });
}

/// Where a step fails one of the literal checks, it must run the naive
/// oracles and still replay the reference.
#[derive(Debug, Clone, Copy)]
enum Fallback {
    /// A logical weight set to this value.
    Weight(f32),
    /// An encoded input set to this value.
    Input(f32),
    /// Head weights of `±f32::MAX` on the layer's first node, so its
    /// upstream gradient overflows to `±∞` on some rows.
    InfiniteGradient,
}

#[derive(Debug)]
struct FallbackCase {
    train: TrainCase,
    fallback: Fallback,
}

fn gen_fallback_case(g: &mut Gen) -> FallbackCase {
    let train = gen_train_case(g);
    let fallback = match g.usize_in(0, 5) {
        0 => Fallback::Weight(1.0 + f32::EPSILON),
        1 => Fallback::Weight(-f32::EPSILON),
        2 => Fallback::Weight(f32::NAN),
        3 => Fallback::Input(0.5),
        4 => Fallback::Input(-0.0),
        _ => Fallback::InfiniteGradient,
    };
    FallbackCase { train, fallback }
}

/// Writes the case's fallback trigger into both nets' parameters or into
/// the encoded batch.
fn inject(c: &FallbackCase, nets: [&mut LogicalNet; 2], x: &mut Matrix, rng: &mut StdRng) {
    let layer = nets[0].layer();
    let layer_params = layer.n_nodes() * layer.in_dim();
    let mut params = nets[0].params();
    match c.fallback {
        Fallback::Weight(w) => params[rng.gen_range(0..layer_params)] = w,
        Fallback::Input(v) => x.set(rng.gen_range(0..x.rows()), rng.gen_range(0..x.cols()), v),
        Fallback::InfiniteGradient => {
            // Head row 0 (node 0's rule), classes 0 and 1.
            params[layer_params] = f32::MAX;
            params[layer_params + 1] = -f32::MAX;
        }
    }
    for net in nets {
        net.set_params(&params).unwrap();
    }
}

/// One step, a single epoch over a single batch, so the comparison sees
/// the step that took the fallback before NaN or the optimizer's
/// projection spreads over the other parameters: through `train_local`,
/// and through `train`, whose accuracy pass after the step reads the
/// shard through the naive discrete forward when the shard is not 0/1.
#[test]
fn literal_fallback_replays_reference() {
    check("literal_fallback_replays_reference", 48, gen_fallback_case, |c| {
        let ds = case_dataset(&c.train);
        let cfg =
            LogicalNetConfig { batch_size: c.train.rows, epochs: 1, ..case_config(&c.train) };
        let mut fast = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg.clone()).unwrap();
        let mut naive = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg).unwrap();
        let mut encoded = fast.encode(&ds).unwrap();
        let mut rng = StdRng::seed_from_u64(c.train.seed ^ 0xFA11);
        inject(c, [&mut fast, &mut naive], &mut encoded.x, &mut rng);
        let (mut fast_train, mut naive_train) = (fast.clone(), naive.clone());

        fast.train_local(&encoded, 1).unwrap();
        naive.train_local_reference(&encoded, 1).unwrap();
        prop_assert!(params_bits(&fast) == params_bits(&naive), "parameter bits diverge");

        let rf = fast_train.train(&encoded).unwrap();
        let rn = naive_train.train_reference(&encoded).unwrap();
        prop_assert!(
            params_bits(&fast_train) == params_bits(&naive_train),
            "train parameter bits diverge"
        );
        prop_assert!(
            rf.best_accuracy.to_bits() == rn.best_accuracy.to_bits(),
            "train accuracy diverges: {} vs {}",
            rf.best_accuracy,
            rn.best_accuracy
        );
        Ok(())
    });
}

#[test]
fn encoder_for_matches_net_encoder() {
    check(
        "encoder_for_matches_net_encoder",
        16,
        |g| (g.rng().gen::<u64>(), g.len_in(4, 30)),
        |&(seed, rows)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let ds = random_dataset(&mut rng, rows);
            let cfg = LogicalNetConfig { tau_d: 5, seed, ..LogicalNetConfig::default() };
            let net = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg.clone()).unwrap();
            let standalone = LogicalNet::encoder_for(ds.schema(), &cfg).unwrap();
            let a = net.encode(&ds).unwrap();
            let b = standalone.encode(&ds).unwrap();
            assert_bits_eq(&a.x, &b.x, "encoder_for encoding")?;
            prop_assert!(a.labels == b.labels, "labels diverge");
            Ok(())
        },
    );
}

/// Golden pin of the full training parameter stream: if *both* the
/// workspace path and the reference path drift together (so the replay
/// properties above still pass), this hash catches it. Regenerate only for
/// an intentional, understood change to training semantics.
#[test]
fn golden_trained_params_hash() {
    let mut rng = StdRng::seed_from_u64(0xC7F1_601D);
    let ds = random_dataset(&mut rng, 120);
    let cfg = LogicalNetConfig {
        tau_d: 6,
        layer_sizes: vec![12],
        epochs: 5,
        batch_size: 16,
        seed: 0xBEEF,
        ..LogicalNetConfig::default()
    };
    let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg).unwrap();
    let encoded = net.encode(&ds).unwrap();
    net.train(&encoded).unwrap();
    let hash = fnv1a_bits(&net.params());
    assert_eq!(
        hash, 0xCDBA_98F1_30FE_D0E4,
        "golden params hash changed: got {hash:#018X}"
    );
}
