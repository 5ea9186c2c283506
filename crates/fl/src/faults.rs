//! Seeded, deterministic system-level fault injection for the federation
//! runtime.
//!
//! The paper's robustness story (Section IV-A) covers *data-level* adversity
//! — replication, low quality, label flipping. This module adds the *system*
//! level: clients that drop out of a round, crash permanently, straggle past
//! the round deadline, corrupt their parameter uploads, or panic mid-update.
//! A [`FaultPlan`] is an explicit, inspectable schedule of such events
//! (either hand-built for tests or sampled once from a [`FaultSpec`] with a
//! `ctfl-rng` seed); a [`FaultInjector`] replays the plan against the round
//! loop. Everything is deterministic: the same plan always produces the same
//! [`crate::guard::FederationLog`], byte for byte.

use ctfl_core::error::{CoreError, Result};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::{Rng, SeedableRng};

/// How a corrupted client mangles its parameter upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Every fourth parameter becomes NaN.
    NaN,
    /// Every fourth parameter becomes +∞.
    Inf,
    /// The whole update delta is scaled by 10⁴ (finite, but norm-exploded).
    NormExplosion,
}

impl CorruptionKind {
    /// Display name (used in the deterministic log rendering).
    pub fn name(&self) -> &'static str {
        match self {
            CorruptionKind::NaN => "nan",
            CorruptionKind::Inf => "inf",
            CorruptionKind::NormExplosion => "norm-explosion",
        }
    }
}

/// A system-level fault a client can suffer in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The client skips this round (transient: it returns on a round retry
    /// and in later rounds).
    Dropout,
    /// The client leaves the federation permanently from this round on.
    Crash,
    /// The client misses the round deadline; its update (computed against
    /// this round's global parameters) arrives one round late as a stale
    /// update.
    Straggler,
    /// The client reports a corrupted parameter vector.
    Corrupt(CorruptionKind),
    /// The client's thread panics mid-update (transiently, every attempt of
    /// this round). Exercises the runtime's panic containment.
    Panic,
}

/// One scheduled fault: `client` suffers `kind` in `round`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Communication round (0-based).
    pub round: usize,
    /// Client id.
    pub client: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// Per-round fault probabilities for [`FaultPlan::generate`]. At most one
/// fault fires per (round, client); the fields are checked in declaration
/// order (crash first, corrupt last).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Per-round probability of a permanent crash.
    pub crash: f64,
    /// Per-round probability of skipping the round.
    pub dropout: f64,
    /// Per-round probability of straggling (update arrives a round late).
    pub straggler: f64,
    /// Per-round probability of a corrupted upload.
    pub corrupt: f64,
    /// Corruption mode used when `corrupt` fires.
    pub corruption: CorruptionKind,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            crash: 0.0,
            dropout: 0.0,
            straggler: 0.0,
            corrupt: 0.0,
            corruption: CorruptionKind::NaN,
        }
    }
}

impl FaultSpec {
    /// A spec with only per-round dropout.
    pub fn dropout_only(p: f64) -> Self {
        FaultSpec { dropout: p, ..FaultSpec::default() }
    }

    /// Checks every probability lies in `[0, 1]`, as a typed error — the
    /// fallible face of the assertions [`FaultPlan::generate`] enforces, so
    /// a service layer can reject a bad job instead of dying.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("crash", self.crash),
            ("dropout", self.dropout),
            ("straggler", self.straggler),
            ("corrupt", self.corrupt),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(CoreError::InvalidParameter {
                    name: "fault spec",
                    message: format!("{name} probability {p} outside [0, 1]"),
                });
            }
        }
        Ok(())
    }
}

/// A deterministic schedule of fault events over `rounds × n_clients`.
///
/// Plans are data, not behaviour: tests can build exact scenarios with
/// [`FaultPlan::with_event`] / [`FaultPlan::with_persistent_corruption`],
/// and experiments sample one once with [`FaultPlan::generate`]. The round
/// loop never samples randomness of its own, so a plan fully determines the
/// fault behaviour of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    n_clients: usize,
    rounds: usize,
    /// Sorted by `(round, client)`; at most one event per (round, client).
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults (the back-compat path).
    pub fn none(n_clients: usize, rounds: usize) -> Self {
        FaultPlan { n_clients, rounds, events: Vec::new() }
    }

    /// Samples a plan from per-round probabilities with a fixed seed.
    ///
    /// Clients are visited in id order, rounds in order, so the plan is a
    /// pure function of `(n_clients, rounds, spec, seed)`. Once a client
    /// crashes, no further events are generated for it.
    ///
    /// Panics on probabilities outside `[0, 1]` — a programming error in
    /// test/experiment code. Untrusted inputs (wire jobs) go through
    /// [`FaultPlan::try_generate`].
    pub fn generate(n_clients: usize, rounds: usize, spec: &FaultSpec, seed: u64) -> Self {
        Self::try_generate(n_clients, rounds, spec, seed).expect("valid fault spec")
    }

    /// [`FaultPlan::generate`] with typed-error validation instead of
    /// assertions, for plans built from untrusted (wire) input.
    pub fn try_generate(
        n_clients: usize,
        rounds: usize,
        spec: &FaultSpec,
        seed: u64,
    ) -> Result<Self> {
        spec.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for client in 0..n_clients {
            'rounds: for round in 0..rounds {
                for (p, kind) in [
                    (spec.crash, FaultKind::Crash),
                    (spec.dropout, FaultKind::Dropout),
                    (spec.straggler, FaultKind::Straggler),
                    (spec.corrupt, FaultKind::Corrupt(spec.corruption)),
                ] {
                    if p > 0.0 && rng.gen_range(0.0..1.0) < p {
                        events.push(FaultEvent { round, client, kind });
                        if kind == FaultKind::Crash {
                            break 'rounds;
                        }
                        break;
                    }
                }
            }
        }
        events.sort_by_key(|e| (e.round, e.client));
        Ok(FaultPlan { n_clients, rounds, events })
    }

    /// Adds (or replaces) a single scheduled event.
    ///
    /// Panics outside the plan's grid; untrusted inputs go through
    /// [`FaultPlan::try_with_event`].
    pub fn with_event(self, round: usize, client: usize, kind: FaultKind) -> Self {
        self.try_with_event(round, client, kind).expect("event inside the plan grid")
    }

    /// [`FaultPlan::with_event`] with typed-error validation instead of
    /// assertions.
    pub fn try_with_event(
        mut self,
        round: usize,
        client: usize,
        kind: FaultKind,
    ) -> Result<Self> {
        if client >= self.n_clients {
            return Err(CoreError::InvalidParameter {
                name: "fault event",
                message: format!(
                    "client {client} outside federation of {}",
                    self.n_clients
                ),
            });
        }
        if round >= self.rounds {
            return Err(CoreError::InvalidParameter {
                name: "fault event",
                message: format!("round {round} outside plan horizon of {}", self.rounds),
            });
        }
        self.events.retain(|e| !(e.round == round && e.client == client));
        self.events.push(FaultEvent { round, client, kind });
        self.events.sort_by_key(|e| (e.round, e.client));
        Ok(self)
    }

    /// Makes `client` corrupt its upload in **every** round (replacing any
    /// other event scheduled for it) — the persistent-byzantine scenario of
    /// the chaos gate.
    ///
    /// Panics on a client outside the federation; untrusted inputs go
    /// through [`FaultPlan::try_with_persistent_corruption`].
    pub fn with_persistent_corruption(self, client: usize, kind: CorruptionKind) -> Self {
        self.try_with_persistent_corruption(client, kind).expect("client inside federation")
    }

    /// [`FaultPlan::with_persistent_corruption`] with typed-error validation
    /// instead of an assertion.
    pub fn try_with_persistent_corruption(
        mut self,
        client: usize,
        kind: CorruptionKind,
    ) -> Result<Self> {
        if client >= self.n_clients {
            return Err(CoreError::InvalidParameter {
                name: "fault event",
                message: format!(
                    "client {client} outside federation of {}",
                    self.n_clients
                ),
            });
        }
        self.events.retain(|e| e.client != client);
        for round in 0..self.rounds {
            self.events.push(FaultEvent { round, client, kind: FaultKind::Corrupt(kind) });
        }
        self.events.sort_by_key(|e| (e.round, e.client));
        Ok(self)
    }

    /// Number of clients the plan covers.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// Number of rounds the plan covers.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// All scheduled events, sorted by `(round, client)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The event scheduled for `(round, client)`, if any.
    pub fn kind_for(&self, round: usize, client: usize) -> Option<FaultKind> {
        self.events
            .binary_search_by_key(&(round, client), |e| (e.round, e.client))
            .ok()
            .map(|i| self.events[i].kind)
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A client's fate in one `(round, attempt)`, as resolved by the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Participates normally.
    Healthy,
    /// Skips this attempt (transient).
    Dropout,
    /// Has permanently left the federation.
    Crashed,
    /// Computes an update that arrives one round late.
    Straggler,
    /// Reports a corrupted update.
    Corrupt(CorruptionKind),
    /// Its thread panics mid-update.
    Panic,
}

/// Replays a [`FaultPlan`] against the round loop, tracking permanent
/// crashes.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    crashed: Vec<bool>,
}

impl FaultInjector {
    /// Wraps a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let crashed = vec![false; plan.n_clients];
        FaultInjector { plan, crashed }
    }

    /// Resolves a client's fate for `(round, attempt)`. The match below is
    /// the retry rule: dropout and straggling model transient conditions
    /// (network blips, slow links), so they only fire on the first attempt
    /// of a round and a quorum retry gives them a second chance; crash,
    /// corruption and panics are properties of the client itself and
    /// persist within the round.
    pub fn fate(&mut self, round: usize, attempt: usize, client: usize) -> Fate {
        if self.crashed[client] {
            return Fate::Crashed;
        }
        match self.plan.kind_for(round, client) {
            Some(FaultKind::Crash) => {
                self.crashed[client] = true;
                Fate::Crashed
            }
            Some(FaultKind::Dropout) if attempt == 0 => Fate::Dropout,
            Some(FaultKind::Straggler) if attempt == 0 => Fate::Straggler,
            Some(FaultKind::Corrupt(k)) => Fate::Corrupt(k),
            Some(FaultKind::Panic) => Fate::Panic,
            _ => Fate::Healthy,
        }
    }

    /// Applies a corruption mode to a freshly computed parameter vector.
    /// `global` is the round's global parameter vector (norm explosion
    /// scales the *delta* from it, which is what the guard's norm check
    /// measures).
    pub fn corrupt(kind: CorruptionKind, params: &mut [f32], global: &[f32]) {
        match kind {
            CorruptionKind::NaN => {
                for p in params.iter_mut().step_by(4) {
                    *p = f32::NAN;
                }
            }
            CorruptionKind::Inf => {
                for p in params.iter_mut().step_by(4) {
                    *p = f32::INFINITY;
                }
            }
            CorruptionKind::NormExplosion => {
                for (p, &g) in params.iter_mut().zip(global) {
                    *p = g + (*p - g) * 1e4;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_sorted() {
        let spec = FaultSpec { dropout: 0.3, crash: 0.05, straggler: 0.1, corrupt: 0.1, ..FaultSpec::default() };
        let a = FaultPlan::generate(6, 20, &spec, 42);
        let b = FaultPlan::generate(6, 20, &spec, 42);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "30% dropout over 120 cells should fire");
        for w in a.events().windows(2) {
            assert!((w[0].round, w[0].client) < (w[1].round, w[1].client));
        }
        let c = FaultPlan::generate(6, 20, &spec, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn crash_ends_a_clients_schedule() {
        let spec = FaultSpec { crash: 1.0, dropout: 1.0, ..FaultSpec::default() };
        let plan = FaultPlan::generate(3, 10, &spec, 1);
        // Every client crashes in round 0 and has no further events.
        assert_eq!(plan.events().len(), 3);
        assert!(plan.events().iter().all(|e| e.round == 0 && e.kind == FaultKind::Crash));
    }

    #[test]
    fn injector_tracks_permanent_crashes() {
        let plan = FaultPlan::none(2, 5).with_event(1, 0, FaultKind::Crash);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.fate(0, 0, 0), Fate::Healthy);
        assert_eq!(inj.fate(1, 0, 0), Fate::Crashed);
        assert_eq!(inj.fate(3, 0, 0), Fate::Crashed, "crash persists");
        assert_eq!(inj.fate(3, 0, 1), Fate::Healthy);
        assert_eq!(inj.crashed.iter().filter(|&&c| c).count(), 1);
    }

    #[test]
    fn transient_faults_clear_on_retry() {
        let plan = FaultPlan::none(2, 3)
            .with_event(0, 0, FaultKind::Dropout)
            .with_event(0, 1, FaultKind::Corrupt(CorruptionKind::NaN));
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.fate(0, 0, 0), Fate::Dropout);
        assert_eq!(inj.fate(0, 1, 0), Fate::Healthy, "dropout is transient");
        assert_eq!(inj.fate(0, 0, 1), Fate::Corrupt(CorruptionKind::NaN));
        assert_eq!(inj.fate(0, 1, 1), Fate::Corrupt(CorruptionKind::NaN), "corruption persists");
    }

    #[test]
    fn persistent_corruption_covers_every_round() {
        let plan = FaultPlan::none(3, 4).with_persistent_corruption(2, CorruptionKind::NaN);
        for round in 0..4 {
            assert_eq!(plan.kind_for(round, 2), Some(FaultKind::Corrupt(CorruptionKind::NaN)));
            assert_eq!(plan.kind_for(round, 0), None);
        }
    }

    #[test]
    fn corruption_modes_do_what_they_say() {
        let global = vec![0.0f32; 8];
        let mut p = vec![1.0f32; 8];
        FaultInjector::corrupt(CorruptionKind::NaN, &mut p, &global);
        assert!(p[0].is_nan() && p[4].is_nan() && p[1] == 1.0);

        let mut p = vec![1.0f32; 8];
        FaultInjector::corrupt(CorruptionKind::Inf, &mut p, &global);
        assert!(p[0].is_infinite() && p[1] == 1.0);

        let mut p = vec![2.0f32; 4];
        let global = vec![1.0f32; 4];
        FaultInjector::corrupt(CorruptionKind::NormExplosion, &mut p, &global);
        assert!(p.iter().all(|&v| (v - 10001.0).abs() < 1.0), "{p:?}");
    }
}
