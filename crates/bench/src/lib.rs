//! # ctfl-bench
//!
//! The experiment harness regenerating every table and figure of the CTFL
//! paper's evaluation (Section VI). Each binary under `src/bin` prints the
//! rows/series of one paper artifact (see DESIGN.md §3 for the mapping);
//! the benches under `benches/` (plain binaries on `ctfl-testkit`'s
//! `Bencher`) cover the micro-performance claims (trace kernel, logical
//! forward/backward and allocation throughput).
//!
//! The library half hosts the shared drivers: dataset specs, federation
//! builders, the six contribution-estimation schemes under one interface,
//! and the remove-top-contributors evaluation protocol.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod datasets;
pub mod federation;
pub mod measure;
pub mod report;
pub mod schemes;
pub mod wide;

pub use args::CommonArgs;
pub use datasets::DatasetSpec;
pub use federation::{Federation, FederationConfig, SkewMode};
pub use schemes::{Scheme, SchemeResult};
