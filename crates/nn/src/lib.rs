//! # ctfl-nn
//!
//! The practical rule-based model of CTFL (paper Section V): a **logical
//! neural network** trained with **gradient grafting** so its binarized form
//! is an exact rule-based classifier suitable for contribution tracing.
//!
//! Pipeline (paper Figure 3):
//!
//! 1. [`encoding`] — discrete features become one-hot literals; continuous
//!    features pass through a *binarization layer* with `2·τ_d` random
//!    lower/upper bounds per feature (`1(c > l_k)`, `1(u_k > c)`), so no
//!    private data is inspected when choosing discretization boundaries.
//! 2. [`logical`] — one logical layer of conjunction and disjunction nodes
//!    over the literals, with the soft activations of Eq. 7:
//!    `Conj(x, w) = Π (1 − wᵢ(1−xᵢ))`, `Disj(x, w) = 1 − Π (1 − wᵢxᵢ)`.
//!    Continuous weights `w ∈ [0,1]` train by gradient descent; binarized
//!    weights `1(w > 0.5)` yield non-fuzzy rules.
//! 3. [`linear`] — a linear head aggregates the layer's outputs and the
//!    literals themselves into class scores (never binarized, per the
//!    paper).
//! 4. [`net`] — [`net::LogicalNet`] assembles encoder, layer and head and
//!    trains with **gradient grafting**: the loss gradient is evaluated at
//!    the *discrete* model's output and back-propagated through the
//!    *continuous* model's Jacobian (`θ^{t+1} = θ^t − η · ∂L(Ȳ)/∂Ȳ · ∂Y/∂θ`).
//! 5. [`extract`] — builds each node's rule from its selected literals into
//!    `ctfl-core` [`Rule`]s;
//!    for binary tasks the extracted [`RuleModel`] classifies **identically**
//!    to the binarized network (verified by tests), which is what makes
//!    CTFL's tracing exact.
//!
//! [`Rule`]: ctfl_core::rule::Rule
//! [`RuleModel`]: ctfl_core::model::RuleModel

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod encoding;
pub mod extract;
pub mod linear;
pub mod logical;
pub mod loss;
pub mod matrix;
pub mod net;
pub mod optim;

pub use encoding::{EncodedData, Encoder, Literal};
pub use logical::{LiteralBatch, LiteralPlan, LogicalLayer};
pub use net::{LogicalNet, LogicalNetConfig, TrainReport};
