//! Facade crate re-exporting the full CTFL workspace. See README.md.
pub use ctfl_core as core;
pub use ctfl_data as data;
pub use ctfl_fl as fl;
pub use ctfl_lp as lp;
pub use ctfl_nn as nn;
pub use ctfl_valuation as valuation;
