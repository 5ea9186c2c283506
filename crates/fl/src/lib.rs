//! # ctfl-fl
//!
//! A horizontal federated-learning simulator for the CTFL reproduction:
//!
//! * [`fedavg`] — the FedAvg protocol (McMahan et al. 2017, the aggregation
//!   CTFL's micro allocation mirrors): clients run local gradient-grafting
//!   epochs on their private shard; the server averages parameters weighted
//!   by shard size.
//! * [`engine`] — the one round loop: a [`engine::FederationEngine`]
//!   session driven by an explicit `step_round()` state machine, so callers
//!   can pause, inspect round reports, and resume mid-federation.
//! * [`wire`] — the length-prefixed binary protocol for submitting
//!   federation jobs and client updates to a running service.
//! * [`client`] / [`server`] — the two roles, separable so tests can drive
//!   each in isolation; [`server`] also hosts the service layer (the
//!   session store with its idempotent job registry, scoped-thread worker
//!   pool, wire-protocol dispatch).
//! * [`faults`] — seeded, deterministic system-level fault injection
//!   (dropout, crash, straggling, corrupted uploads, panics).
//! * [`chaos_net`] — the same philosophy at the transport layer: a seeded
//!   [`chaos_net::ChaosTransport`] wrapper injecting plan-driven network
//!   faults (split/short I/O, bit flips, stalls, truncation, mid-frame
//!   disconnects) over any `Read + Write`, plus an in-memory duplex pipe.
//! * [`netclient`] — the resilient client: per-request deadlines, seeded
//!   exponential backoff with bounded jitter, bounded retries, and
//!   idempotent re-submission keyed by client-chosen job ids.
//! * [`adversary`] — seeded, deterministic *update-level* adversaries
//!   (sign-flip poisoning, scaled gradients, colluding replication,
//!   free-riding, targeted class poisoning), rewriting client submissions
//!   in-flight.
//! * [`aggregate`] — the pluggable [`aggregate::Aggregator`] rule: weighted
//!   FedAvg (the bit-compatible default), coordinate-wise median, trimmed
//!   mean, and (Multi-)Krum for Byzantine-robust fusion.
//! * [`guard`] — server-side update validation (finiteness, norm clipping
//!   against the median survivor norm), update-similarity signatures for
//!   the collusion/free-riding detectors, the quorum/degradation policy,
//!   and the per-round [`guard::FederationLog`].
//! * [`schedule`] — pluggable round scheduling: full participation (the
//!   bit-identical default), per-round uniform/weighted client sampling,
//!   and asynchronous arrival with bounded staleness.
//! * [`topology`] — pluggable aggregation topology: star (one server sees
//!   everything, the bit-identical default) or decentralized gossip where
//!   each node aggregates only its seeded neighborhood.
//! * [`metrics`] — test accuracy and F1 for trained models.
//! * [`privacy`] — the activation-vector upload pipeline of paper Section V:
//!   each participant computes its rule activation bitsets *locally* and
//!   uploads only those (optionally perturbed by randomized response for
//!   local differential privacy); the federation then runs contribution
//!   tracing without ever seeing raw features. [`privacy::PrivateScoring`]
//!   is the federation-side scorer, with an audited/hardened path.
//! * [`score_attack`] — seeded, deterministic *upload-level* score-gaming
//!   adversaries (activation inflation, row padding, trace-squatting,
//!   majority relabeling, ε-abuse), rewriting activation uploads between
//!   local computation and assembly; the arms-race counterpart to the
//!   upload audit in `ctfl-core::robustness`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adversary;
pub mod aggregate;
pub mod chaos_net;
pub mod client;
pub mod engine;
pub mod faults;
pub mod fedavg;
pub mod guard;
pub mod metrics;
pub mod netclient;
pub mod privacy;
pub mod schedule;
pub mod score_attack;
pub mod server;
pub mod topology;
pub mod wire;

pub use adversary::{AdversaryInjector, AdversaryPlan, AttackKind};
pub use aggregate::{Aggregator, CoordinateMedian, MultiKrum, TrimmedMean, WeightedFedAvg};
pub use engine::{EngineState, FederationEngine};
pub use faults::{CorruptionKind, FaultKind, FaultPlan, FaultSpec};
pub use fedavg::{train_federated, ByzantineSetup, FederationRun, FlConfig};
pub use guard::{FederationLog, GuardConfig, PanicPolicy};
pub use metrics::{accuracy_of, f1_binary, f1_macro};
pub use schedule::{RoundPlan, Schedule};
pub use topology::Topology;
pub use privacy::{
    assemble_sharded, ActivationUpload, HardenedScores, PrivacyConfig, PrivateScoring,
};
pub use score_attack::{ScoreAttackInjector, ScoreAttackKind, ScoreAttackPlan};
pub use chaos_net::{
    duplex, ChaosStats, ChaosTransport, NetFaultPlan, NetFaultSpec, PipeEnd, ReadFault, WriteFault,
};
pub use netclient::{
    BackoffPolicy, BackoffSchedule, ClientError, ClientStats, Connect, NetClient, RetryPolicy,
    SessionResume, TcpConnector, Transport, UpdateReply,
};
pub use server::{FederationService, JobResult, ServeEnd, ServeSummary};
pub use wire::{Message, RejectCode, WireError};
