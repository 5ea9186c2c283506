//! Hermetic test & bench substrate for the CTFL workspace.
//!
//! Replaces the three registry dev-dependencies the build environment can
//! never fetch:
//!
//! * [`prop`] — a seeded property-testing harness with shrinking-by-halving
//!   and failure-seed replay (stands in for `proptest`);
//! * [`bench`](mod@bench) — a wall-clock benchmark harness reporting
//!   median/p95 with JSON-lines output (stands in for `criterion`);
//! * [`json`](mod@json) — a tiny JSON value type, writer and [`json!`]
//!   macro (stands in for `serde_json`).
//!
//! Everything is deterministic by construction: the property harness derives
//! every case from an explicit seed, and prints the seed on failure so any
//! run can be replayed exactly with `CTFL_PROP_SEED`.

pub mod bench;
pub mod json;
pub mod prop;

pub use bench::{black_box, Bencher, BenchStats};
pub use prop::{check, Gen, TestResult};
