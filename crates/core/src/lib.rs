//! # ctfl-core
//!
//! Core implementation of **CTFL** (*Contribution Tracing for Federated
//! Learning*, Wang et al., ICDE 2024): a fast, robust and interpretable
//! framework for estimating each participant's contribution to a federated
//! learning task in a **single pass** of model training and inference.
//!
//! The crate is organised around the paper's pipeline:
//!
//! 1. [`rule`] / [`model`] — rule-based task models (Definitions III.1/III.2,
//!    Eq. 3): logical rules over mixed discrete/continuous features, combined
//!    by weighted voting.
//! 2. [`activation`] / [`batch`] — bit-packed rule activation matrices and
//!    the compiled columnar evaluator that fills them one predicate column
//!    at a time.
//! 3. [`tracing`] — the rule-based tracing strategy (Eq. 4) that matches each
//!    test instance to the training data that taught the model the rules it
//!    used, covering all four cases (TP/TN/FP/FN).
//! 4. [`allocation`] — the micro (Eq. 5) and macro (Eq. 6) contribution
//!    allocation schemes, plus their loss-tracing variants.
//! 5. [`robustness`] — detectors for data replication, low-quality data and
//!    label-flipping attacks (Section IV-A).
//! 6. [`interpret`] — per-participant beneficial/harmful rule summaries and
//!    guided data collection (Section IV-B).
//! 7. [`properties`] — executable checkers for the theoretical properties of
//!    Section III-D (group rationality, symmetry, zero element, additivity).
//! 8. [`estimator`] — the high-level [`estimator::CtflEstimator`] façade that
//!    glues the pipeline together.
//!
//! The crate deliberately has no heavyweight dependencies: the rule learner
//! (a logical neural network with gradient grafting) lives in `ctfl-nn`, and
//! anything here only needs a trained [`model::RuleModel`].
//!
//! ## Quick example
//!
//! ```
//! use ctfl_core::data::{Dataset, FeatureKind, FeatureSchema};
//! use ctfl_core::model::RuleModel;
//! use ctfl_core::rule::{Predicate, Rule, RuleExpr};
//! use ctfl_core::estimator::{CtflConfig, CtflEstimator};
//!
//! // A one-feature task: positive iff x > 0.5.
//! let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
//! let mut train = Dataset::empty(schema.clone(), 2);
//! for i in 0..20 {
//!     let v = i as f32 / 20.0;
//!     train.push_row(&[v.into()], (v > 0.5) as u32).unwrap();
//! }
//! let test = train.clone();
//!
//! let model = RuleModel::new(schema, 2, vec![
//!     Rule::new(RuleExpr::pred(Predicate::gt(0, 0.5)), 1, 1.0),
//!     Rule::new(RuleExpr::pred(Predicate::le(0, 0.5)), 0, 1.0),
//! ]).unwrap();
//!
//! // Two clients: client 0 holds the first half of the data.
//! let client_of: Vec<u32> = (0..20).map(|i| (i >= 10) as u32).collect();
//! let est = CtflEstimator::new(model, CtflConfig::default());
//! let report = est.estimate(&train, &client_of, &test).unwrap();
//! assert_eq!(report.micro.len(), 2);
//! // Group rationality: scores sum to the model's test accuracy.
//! let sum: f64 = report.micro.iter().sum();
//! assert!((sum - report.test_accuracy).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activation;
pub mod allocation;
pub mod batch;
pub mod data;
pub mod error;
pub mod estimator;
pub mod interpret;
pub mod model;
pub mod parallel;
pub mod properties;
pub mod robustness;
pub mod rule;
pub mod shard;
pub mod tracing;

pub use activation::ActivationMatrix;
pub use batch::CompiledRules;
pub use data::{Column, Dataset, DatasetView, FeatureKind, FeatureSchema, FeatureValue};
pub use error::{CoreError, Result};
pub use estimator::{ContributionReport, CtflConfig, CtflEstimator};
pub use model::RuleModel;
pub use rule::{Predicate, Rule, RuleExpr};
pub use shard::{ActivationShard, ShardedActivations};
pub use tracing::{TraceConfig, TraceOutcome};
