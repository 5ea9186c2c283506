//! Property suite for the training data-plane kernels (packed matmul,
//! planned discrete forward, zero-alloc backward) and the workspace-routed
//! training loops.
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
use ctfl_nn::{DiscretePlan, LogicalLayer, LogicalNet, LogicalNetConfig};
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

/// Asserts two matrices are equal down to the bit pattern.
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
        if x.to_bits() != y.to_bits() {
            return Err(format!("{what}: element {i} differs: {x:?} vs {y:?}"));
        }
    }
    Ok(())
}

/// A random matrix with a controllable fraction of exact zeros — the
/// kernels take sparsity shortcuts, so zero-heavy inputs are the hard case.
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
}

fn gen_matmul_case(g: &mut Gen) -> MatmulCase {
    MatmulCase {
        seed: g.rng().gen(),
        m: g.len_in(1, 12),
        k: g.len_in(1, 24),
        n: g.len_in(1, 12),
        zero_frac: g.f64_in(0.0, 0.95),
    }
}

#[test]
fn matmul_kernels_match_naive_bitwise() {
    check("matmul_kernels_match_naive_bitwise", 64, gen_matmul_case, |c| {
        let mut rng = StdRng::seed_from_u64(c.seed);
        let a = random_matrix(&mut rng, c.m, c.k, c.zero_frac);
        let b = random_matrix(&mut rng, c.k, c.n, c.zero_frac);

        // Independent oracle: textbook triple loop in the axpy order the
        // naive kernel used (i, k, j with the `a == 0` skip).
        let mut oracle = Matrix::zeros(c.m, c.n);
        for i in 0..c.m {
            for kk in 0..c.k {
                let av = a.get(i, kk);
                if av == 0.0 {
                    continue;
                }
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

#[derive(Debug)]
struct LayerCase {
    seed: u64,
    in_dim: usize,
    n_nodes: usize,
    batch: usize,
    zero_frac: f64,
}

fn gen_layer_case(g: &mut Gen) -> LayerCase {
    LayerCase {
        seed: g.rng().gen(),
        in_dim: g.len_in(1, 20),
        n_nodes: g.len_in(2, 16),
        batch: g.len_in(1, 10),
        zero_frac: g.f64_in(0.0, 0.9),
    }
}

fn random_layer(c: &LayerCase, rng: &mut StdRng) -> (LogicalLayer, Matrix) {
    let mut layer = LogicalLayer::new(c.in_dim, c.n_nodes, rng);
    // Push weights toward exact zeros/ones: the planned forward and the
    // zero-skip soft forward special-case both.
    for w in layer.weights_mut().data_mut() {
        let r = rng.gen::<f64>();
        *w = if r < c.zero_frac {
            0.0
        } else if r < c.zero_frac + 0.2 {
            1.0
        } else {
            rng.gen::<f32>()
        };
    }
    let mut x = Matrix::zeros(c.batch, c.in_dim);
    for v in x.data_mut() {
        let r = rng.gen::<f64>();
        *v = if r < 0.35 {
            0.0
        } else if r < 0.7 {
            1.0
        } else {
            rng.gen::<f32>()
        };
    }
    (layer, x)
}

#[test]
fn forward_soft_packed_into_matches_naive_bitwise() {
    check("forward_soft_packed_into_matches_naive_bitwise", 64, gen_layer_case, |c| {
        let mut rng = StdRng::seed_from_u64(c.seed);
        let (layer, x) = random_layer(c, &mut rng);
        let naive = layer.forward_soft(&x);
        let mut packed = PackedRhs::default();
        packed.pack_from(layer.weights());
        let mut out = dirty(&mut rng);
        layer.forward_soft_packed_into(&x, &packed, &mut out);
        assert_bits_eq(&out, &naive, "forward_soft_packed_into")
    });
}

#[test]
fn planned_discrete_forward_matches_naive_bitwise() {
    check("planned_discrete_forward_matches_naive_bitwise", 64, gen_layer_case, |c| {
        let mut rng = StdRng::seed_from_u64(c.seed);
        let (layer, x) = random_layer(c, &mut rng);
        let naive = layer.forward_discrete(&x);
        let mut plan = DiscretePlan::default();
        layer.plan_discrete_into(&mut plan);
        let mut out = dirty(&mut rng);
        layer.forward_discrete_planned_into(&x, &plan, &mut out);
        assert_bits_eq(&out, &naive, "forward_discrete_planned_into")
    });
}

#[test]
fn backward_into_matches_naive_bitwise() {
    check("backward_into_matches_naive_bitwise", 64, gen_layer_case, |c| {
        let mut rng = StdRng::seed_from_u64(c.seed);
        let (layer, x) = random_layer(c, &mut rng);
        let y = layer.forward_soft(&x);
        let dy = random_matrix(&mut rng, c.batch, c.n_nodes, c.zero_frac);

        let mut dw_naive = Matrix::zeros(c.n_nodes, c.in_dim);
        let dx_naive = layer.backward(&x, &y, &dy, &mut dw_naive);

        let mut dw_new = Matrix::zeros(c.n_nodes, c.in_dim);
        let mut dx_new = dirty(&mut rng);
        layer.backward_into(&x, &y, &dy, &mut dw_new, &mut dx_new);

        assert_bits_eq(&dw_new, &dw_naive, "backward_into dw")?;
        assert_bits_eq(&dx_new, &dx_naive, "backward_into dx")
    });
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

#[derive(Debug)]
struct TrainCase {
    seed: u64,
    rows: usize,
    layers: Vec<usize>,
    literal_skip: bool,
    batch_size: usize,
    epochs: usize,
}

fn gen_train_case(g: &mut Gen) -> TrainCase {
    let two_layers = g.bool();
    let layers = if two_layers {
        vec![g.len_in(2, 10), g.len_in(2, 8)]
    } else {
        vec![g.len_in(2, 14)]
    };
    TrainCase {
        seed: g.rng().gen(),
        rows: g.len_in(8, 60),
        layers,
        literal_skip: g.bool(),
        batch_size: g.len_in(1, 24),
        epochs: g.len_in(1, 4),
    }
}

fn case_config(c: &TrainCase) -> LogicalNetConfig {
    LogicalNetConfig {
        tau_d: 4,
        layer_sizes: c.layers.clone(),
        literal_skip: c.literal_skip,
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
        let mut rng = StdRng::seed_from_u64(c.seed);
        let ds = random_dataset(&mut rng, c.rows);
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
        let mut rng = StdRng::seed_from_u64(c.seed);
        let ds = random_dataset(&mut rng, c.rows);
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
        layer_sizes: vec![12, 6],
        literal_skip: true,
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
        hash, 0x81F1_B5D8_5F1D_74C3,
        "golden params hash changed: got {hash:#018X}"
    );
}
