//! Logical-network micro-benchmarks: soft vs. discrete forward, the
//! grafted training step, and rule extraction — the building blocks whose
//! cost dominates CTFL's single training pass. One group times the layer's
//! naive kernels, which a training step that fails a literal check runs,
//! against its literal kernels at the `federate_adult` shape.

use ctfl_core::data::{Dataset, FeatureKind, FeatureSchema};
use ctfl_nn::extract::{extract_rules, ExtractOptions};
use ctfl_nn::logical::{LiteralBatch, LiteralPlan, LogicalLayer};
use ctfl_nn::matrix::Matrix;
use ctfl_nn::net::{LogicalNet, LogicalNetConfig};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::Rng;
use ctfl_rng::SeedableRng;
use ctfl_testkit::Bencher;
use std::sync::Arc;

fn bench_layer_forward() {
    let mut rng = StdRng::seed_from_u64(5);
    let layer = LogicalLayer::new(256, 64, &mut rng);
    let mut x = Matrix::zeros(256, 256);
    for v in x.data_mut() {
        *v = if rng.gen_bool(0.15) { 1.0 } else { 0.0 };
    }
    let mut group = Bencher::new("logical_layer_256x64_batch256");
    group.bench("forward_soft", || layer.forward_soft(&x));
    group.bench("forward_discrete", || layer.forward_discrete(&x));
    let y = layer.forward_soft(&x);
    let dy = Matrix::from_vec(256, 64, vec![1.0; 256 * 64]);
    group.bench("backward", || {
        let mut dw = Matrix::zeros(64, 256);
        layer.backward(&x, &y, &dy, &mut dw)
    });
}

/// The layer at the `federate_adult` shape: 168 literals × 64 nodes,
/// batch 64, 42% of literals set (the adult-like encoding's density). Each
/// naive kernel runs against the literal kernel that replaces it on 0/1
/// batches, so the group shows what a step that falls back costs; the
/// literal kernels' per-step set-up is timed on its own.
fn bench_first_layer_literals() {
    let mut rng = StdRng::seed_from_u64(23);
    let layer = LogicalLayer::new(168, 64, &mut rng);
    let mut x = Matrix::zeros(64, 168);
    for v in x.data_mut() {
        *v = if rng.gen_bool(0.42) { 1.0 } else { 0.0 };
    }
    let mut dy = Matrix::zeros(64, 64);
    for v in dy.data_mut() {
        *v = (rng.gen::<f32>() - 0.5) * 0.1;
    }
    let mut lits = LiteralBatch::default();
    assert!(lits.rebuild(&x));
    let mut lit_plan = LiteralPlan::default();
    assert!(layer.plan_literals_into(&mut lit_plan));
    let y = layer.forward_soft(&x);
    let (mut out, mut dw, mut dwt) = (Matrix::default(), Matrix::zeros(64, 168), Matrix::default());

    let mut group = Bencher::new("layer0_168x64_batch64_ones42");
    group.bench("setup_literals", || lits.rebuild(&x) && layer.plan_literals_into(&mut lit_plan));
    group.bench("forward_soft", || layer.forward_soft(&x));
    group.bench("forward_soft_literals_into", || {
        layer.forward_soft_literals_into(&lits, &lit_plan, &mut out);
    });
    group.bench("forward_discrete", || layer.forward_discrete(&x));
    group.bench("forward_discrete_literals_into", || {
        layer.forward_discrete_literals_into(&lits, &lit_plan, &mut out);
    });
    group.bench("backward", || {
        dw.fill_zero();
        layer.backward(&x, &y, &dy, &mut dw);
    });
    group.bench("backward_literals_into", || {
        layer.backward_literals_into(&lits, &lit_plan, &y, &dy, &mut dwt, &mut dw);
    });
}

fn training_dataset() -> Dataset {
    let schema = FeatureSchema::new(vec![
        ("x", FeatureKind::continuous(0.0, 1.0)),
        ("c", FeatureKind::discrete(4)),
    ]);
    let mut ds = Dataset::empty(schema, 2);
    for i in 0..512 {
        let x = (i % 128) as f32 / 128.0;
        let cat = (i % 4) as u32;
        ds.push_row(&[x.into(), cat.into()], ((x > 0.4) && cat != 3) as u32).unwrap();
    }
    ds
}

fn bench_training_and_extraction() {
    let ds = training_dataset();
    let cfg = LogicalNetConfig {
        tau_d: 8,
        layer_sizes: vec![32],
        epochs: 1,
        batch_size: 64,
        seed: 5,
        ..LogicalNetConfig::default()
    };
    let mut group = Bencher::new("logical_net_512rows");
    group.sample_size(20);
    {
        let net = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg.clone()).unwrap();
        let encoded = net.encode(&ds).unwrap();
        // Clone-per-iteration replaces criterion's iter_batched: training
        // mutates the net, so each sample starts from the same fresh state.
        group.bench("one_grafted_epoch", || {
            let mut n = net.clone();
            n.train(&encoded).unwrap()
        });
    }
    let mut trained = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg).unwrap();
    trained.fit(&ds).unwrap();
    group.bench("extract_rules", || extract_rules(&trained, ExtractOptions::default()).unwrap());
    let model = extract_rules(&trained, ExtractOptions::default()).unwrap();
    group.bench("activation_matrix", || model.activation_matrix(&ds, false).unwrap());
}

fn main() {
    bench_layer_forward();
    bench_first_layer_literals();
    bench_training_and_extraction();
}
