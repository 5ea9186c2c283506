//! The federation engine: the one round loop.
//!
//! [`FederationEngine`] is a *session*: it owns the global model, the client
//! replicas, the fault injector, the adversary injector, the guard policy,
//! the borrowed aggregation rule, and the reusable round buffers. Instead
//! of a batch `main()` that rebuilds the world per run, callers drive the
//! session with an explicit state machine:
//!
//! ```text
//! from_views/from_datasets        step_round()*             finish()
//!        │                            │                        │
//!        ▼                            ▼                        ▼
//!    [round 0] ──▶ [round 1] ──▶ … ──▶ [round R-1] ──▶ Finished ──▶ FederationRun
//! ```
//!
//! Each [`FederationEngine::step_round`] call executes exactly one
//! communication round as one phase sequence — plan → compute → interpret
//! → rewrite → guard → fuse — for every [`Schedule`] and [`Topology`], and
//! returns the committed [`RoundReport`] so the caller can pause, inspect,
//! and resume mid-federation. Decentralized (gossip) FL differs from the
//! star only in who fuses the updates, so the topology decides just three
//! things: the round-start reference, whether a late update is parked or
//! lost, and the fuse. [`FederationEngine::run_to_completion`] drives the
//! remaining rounds; [`FederationEngine::finish`] consumes the session into
//! a [`FederationRun`]. Every training entry point — `train_federated`, the
//! service's jobs, the benchmarks' and baselines' retrainings — is such a
//! session.
//!
//! **Determinism contract** (inherited bit-for-bit from the drivers this
//! engine replaced, and pinned by `tests/engine_equivalence.rs`): the same
//! inputs produce bit-identical parameters and a byte-identical
//! [`FederationLog`], with the parallel and serial paths agreeing exactly,
//! however the rounds are interleaved with other sessions. Many engines can
//! run concurrently on a worker pool (`crate::server::FederationService`)
//! and each reproduces its solo run — sessions share no mutable state.

use ctfl_core::data::{Dataset, DatasetView, FeatureSchema};
use ctfl_core::error::{CoreError, Result};
use ctfl_nn::net::{LogicalNet, LogicalNetConfig};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use crate::adversary::AdversaryInjector;
use crate::aggregate::{Aggregator, WeightedFedAvg};
use crate::client::Client;
use crate::faults::{Fate, FaultInjector};
use crate::fedavg::{ByzantineSetup, FederationRun, FlConfig};
use crate::guard::{
    judge_round, sign_updates, FederationLog, GuardConfig, PanicPolicy, Participation,
    ParticipationEntry, RoundReport, UpdateCandidate,
};
use crate::schedule::Schedule;
use crate::topology::Topology;

/// A client's local computation outcome: `Err(())` means its thread
/// panicked (the panic was contained).
type LocalOutcome = std::result::Result<Result<Vec<f32>>, ()>;

fn needs_compute(fate: Fate) -> bool {
    matches!(fate, Fate::Healthy | Fate::Straggler | Fate::Corrupt(_) | Fate::Panic)
}

/// An update in flight: a candidate parked until `deliver_round`, when the
/// server (or no round at all, if the federation ends first) finally sees
/// it. Generalizes the old one-round straggler buffer to arbitrary bounded
/// staleness.
#[derive(Debug, Clone)]
struct DelayedUpdate {
    /// First round that may aggregate this candidate.
    deliver_round: usize,
    /// The candidate, staleness-weighted at deferral time.
    candidate: UpdateCandidate,
}

/// Aggregation weight of an update arriving `age` rounds late under a
/// per-round decay: floored at 1 so stale updates are down-weighted, never
/// silently dropped. `decay >= 1` short-circuits to the exact legacy weight.
fn staleness_weight(weight: usize, age: usize, decay: f64) -> usize {
    if decay >= 1.0 {
        return weight;
    }
    ((weight as f64) * decay.powi(age as i32)).round().max(1.0) as usize
}

/// Runs one client's local work with panic containment. The injected
/// [`Fate::Panic`] fires inside this closure, so it exercises exactly the
/// containment path a genuine client panic would take.
fn run_local(client: &mut Client, fate: Fate, global: &[f32], epochs: usize) -> LocalOutcome {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        if fate == Fate::Panic {
            panic!("injected fault: client {} panicked", client.id);
        }
        client.local_update(global, epochs)
    }))
    .map_err(|_| ())
}

/// Client `c`'s round-start model: its own node model under gossip, the
/// global model under the star (where no node models exist). It is also
/// the reference a corrupted upload is measured from.
fn start_of<'p>(global: &'p [f32], nodes: &'p [Vec<f32>], c: usize) -> &'p [f32] {
    nodes.get(c).map_or(global, Vec::as_slice)
}

/// Where a session is in its round loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineState {
    /// `next_round` is the round [`FederationEngine::step_round`] will run.
    Running {
        /// Index of the next round to execute.
        next_round: usize,
    },
    /// All configured rounds have committed (or degraded); only
    /// [`FederationEngine::finish`] and the inspectors remain useful.
    Finished,
}

/// One federated-training session: global model, client replicas, fault and
/// adversary injectors, guard, aggregation rule, and round buffers, driven
/// round by round. See the module docs for the state machine.
pub struct FederationEngine<'a> {
    global: LogicalNet,
    clients: Vec<Client>,
    weights: Vec<usize>,
    fl: FlConfig,
    injector: FaultInjector,
    adversary: AdversaryInjector,
    guard: GuardConfig,
    aggregator: &'a dyn Aggregator,
    schedule: Schedule,
    topology: Topology,
    log: FederationLog,
    /// In-flight updates (straggler faults and asynchronous-schedule lags),
    /// each parked until its delivery round.
    delayed: Vec<DelayedUpdate>,
    /// Per-node model state under [`Topology::Gossip`] (empty until the
    /// first gossip round splits the global into replicas).
    node_params: Vec<Vec<f32>>,
    /// The previous round's global parameters — the stale-echo reference for
    /// update signatures (round 0: the initial global itself). `prev_global`
    /// and `global_params` are refilled in place each round instead of
    /// reallocated; at round end the buffers swap roles.
    prev_global: Vec<f32>,
    global_params: Vec<f32>,
    aggregated: Vec<f32>,
    next_round: usize,
}

impl std::fmt::Debug for FederationEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederationEngine")
            .field("n_clients", &self.clients.len())
            .field("rounds", &self.fl.rounds)
            .field("next_round", &self.next_round)
            .field("aggregator", &self.aggregator.name())
            .finish_non_exhaustive()
    }
}

impl<'a> FederationEngine<'a> {
    /// Opens a session over zero-copy per-client views, under the full
    /// Byzantine policy (fault plan, adversary plan, guard, aggregation
    /// rule).
    ///
    /// All client views must share a schema and be non-empty; both plans
    /// must cover exactly `client_data.len()` clients. `net_config.seed`
    /// fixes the encoder so every replica agrees on the literal layout.
    /// Every violation is a typed [`CoreError`] — a service layer can reject
    /// a bad job instead of dying.
    pub fn from_views(
        client_data: &[DatasetView<'_>],
        n_classes: usize,
        net_config: &LogicalNetConfig,
        fl_config: &FlConfig,
        setup: &ByzantineSetup<'a>,
    ) -> Result<Self> {
        let plan = setup.faults;
        if client_data.is_empty() {
            return Err(CoreError::Empty { what: "client data" });
        }
        if plan.n_clients() != client_data.len() {
            return Err(CoreError::LengthMismatch {
                what: "fault plan clients",
                expected: client_data.len(),
                actual: plan.n_clients(),
            });
        }
        if setup.adversary.n_clients() != client_data.len() {
            return Err(CoreError::LengthMismatch {
                what: "adversary plan clients",
                expected: client_data.len(),
                actual: setup.adversary.n_clients(),
            });
        }
        let schema = Arc::clone(client_data[0].schema());
        for (i, d) in client_data.iter().enumerate() {
            if d.is_empty() {
                return Err(CoreError::InvalidParameter {
                    name: "client_data",
                    message: format!("client {i} has no data"),
                });
            }
            if d.schema() != &schema {
                return Err(CoreError::InvalidParameter {
                    name: "client_data",
                    message: format!("client {i} has a different schema"),
                });
            }
        }

        // Each client gets a replica with a distinct RNG stream (for
        // minibatch shuffling) but the same encoder seed via set_params +
        // same config — LogicalNet::new derives the encoder from
        // config.seed, so replicas use the SAME seed to keep literal
        // layouts identical.
        let clients: Vec<Client> = client_data
            .iter()
            .enumerate()
            .map(|(id, d)| {
                let net = LogicalNet::new(Arc::clone(&schema), n_classes, net_config.clone())?;
                let encoded = net.encode_view(d)?;
                Ok(Client::new(id, encoded, net))
            })
            .collect::<Result<_>>()?;
        Self::from_clients(&schema, clients, n_classes, net_config, fl_config, setup)
    }

    /// [`FederationEngine::from_views`] over owned datasets.
    pub fn from_datasets(
        client_data: &[Dataset],
        n_classes: usize,
        net_config: &LogicalNetConfig,
        fl_config: &FlConfig,
        setup: &ByzantineSetup<'a>,
    ) -> Result<Self> {
        let views: Vec<DatasetView<'_>> = client_data.iter().map(Dataset::view).collect();
        Self::from_views(&views, n_classes, net_config, fl_config, setup)
    }

    /// Opens a session over pre-built clients (inputs validated, ordered by
    /// id). The shared tail of every constructor.
    fn from_clients(
        schema: &Arc<FeatureSchema>,
        clients: Vec<Client>,
        n_classes: usize,
        net_config: &LogicalNetConfig,
        fl_config: &FlConfig,
        setup: &ByzantineSetup<'a>,
    ) -> Result<Self> {
        let global = LogicalNet::new(Arc::clone(schema), n_classes, net_config.clone())?;
        let n = clients.len();
        let weights: Vec<usize> = clients.iter().map(Client::n_rows).collect();
        let prev_global = global.params();
        Ok(FederationEngine {
            global,
            clients,
            weights,
            fl: *fl_config,
            injector: FaultInjector::new(setup.faults.clone()),
            adversary: AdversaryInjector::new(setup.adversary.clone()),
            guard: *setup.guard,
            aggregator: setup.aggregator,
            schedule: Schedule::Full,
            topology: Topology::Star,
            log: FederationLog::new(n),
            delayed: Vec::new(),
            node_params: Vec::new(),
            prev_global,
            global_params: Vec::new(),
            aggregated: Vec::new(),
            next_round: 0,
        })
    }

    /// Installs a round-scheduling policy ([`Schedule::Full`] is the
    /// default and reproduces the legacy engine bit-for-bit). Validates the
    /// policy; call before the first [`step_round`] — switching schedules
    /// mid-run would break the determinism contract.
    ///
    /// [`step_round`]: FederationEngine::step_round
    pub fn with_schedule(mut self, schedule: Schedule) -> Result<Self> {
        schedule.validate()?;
        self.schedule = schedule;
        Ok(self)
    }

    /// Installs an aggregation topology ([`Topology::Star`] is the default
    /// and reproduces the legacy engine bit-for-bit). Validates it against
    /// the federation size; call before the first [`step_round`].
    ///
    /// [`step_round`]: FederationEngine::step_round
    pub fn with_topology(mut self, topology: Topology) -> Result<Self> {
        topology.validate(self.clients.len())?;
        self.topology = topology;
        Ok(self)
    }

    /// The active round-scheduling policy.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// The active aggregation topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Federation size.
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// Total rounds this session is configured to run.
    pub fn rounds_total(&self) -> usize {
        self.fl.rounds
    }

    /// Rounds committed so far.
    pub fn rounds_done(&self) -> usize {
        self.next_round
    }

    /// Current state of the round-loop state machine.
    pub fn state(&self) -> EngineState {
        if self.next_round >= self.fl.rounds {
            EngineState::Finished
        } else {
            EngineState::Running { next_round: self.next_round }
        }
    }

    /// True once every configured round has run.
    pub fn is_finished(&self) -> bool {
        self.state() == EngineState::Finished
    }

    /// The current global model (mid-federation inspection).
    pub fn global(&self) -> &LogicalNet {
        &self.global
    }

    /// The log so far: one [`RoundReport`] per committed round.
    pub fn log(&self) -> &FederationLog {
        &self.log
    }

    /// The most recent round's report, if any round has run.
    pub fn last_report(&self) -> Option<&RoundReport> {
        self.log.rounds.last()
    }

    /// Per-node model parameters under [`Topology::Gossip`] — one vector
    /// per client, in client order. Empty before the first gossip round and
    /// always empty under [`Topology::Star`], where only the global exists.
    pub fn node_models(&self) -> &[Vec<f32>] {
        &self.node_params
    }

    /// Runs exactly one communication round and returns the committed
    /// report, or `Ok(None)` when the session is already finished.
    ///
    /// The round is one phase sequence for every schedule and topology:
    /// **plan** (round-start reference, schedule, due late arrivals) →
    /// **compute** (local training under injected fates) → **interpret**
    /// (outcomes into fresh, parked and non-reporting entries) →
    /// **rewrite** (in-flight adversaries) → **guard** (signatures,
    /// validation, quorum retries) → **fuse** (aggregation). The topology
    /// decides only three things: the round-start reference (the global
    /// model, or the consensus of the gossip node models), whether a late
    /// update is parked for a later round or lost, and the fuse.
    ///
    /// A genuine local training failure, a panic under
    /// [`PanicPolicy::Error`], a fail-fast guard rejection, or a quorum
    /// failure under `fail_fast` aborts the session with a typed error.
    pub fn step_round(&mut self) -> Result<Option<&RoundReport>> {
        if self.is_finished() {
            return Ok(None);
        }
        let round = self.next_round;
        let n = self.clients.len();

        // Plan. Under gossip the reference is the row-weighted consensus of
        // the node models (a snapshot no real node computes); the guard,
        // the adversaries and the signatures all measure against it.
        if self.topology.is_star() {
            self.global.params_into(&mut self.global_params);
        } else {
            if self.node_params.is_empty() {
                self.node_params = vec![self.global.params(); n];
            }
            let consensus = &mut self.global_params;
            WeightedFedAvg.aggregate_into(&self.node_params, &self.weights, consensus)?;
        }
        let plan = self.schedule.plan_round(round, &self.weights);
        let decay = self.schedule.staleness_decay();
        let stale_arrivals = self.drain_due(round);
        let mut attempt = 0usize;
        loop {
            // Fates are drawn for unscheduled clients too, so persistent
            // crashes register on time.
            let fates: Vec<Fate> =
                (0..n).map(|c| self.injector.fate(round, attempt, c)).collect();
            let outcomes = self.compute(&fates, &plan.scheduled);

            // Interpret.
            let mut entries: Vec<ParticipationEntry> = Vec::new();
            let mut fresh: Vec<UpdateCandidate> = Vec::new();
            let mut deferred: Vec<DelayedUpdate> = Vec::new();
            for (c, ((&fate, outcome), &scheduled)) in
                fates.iter().zip(outcomes).zip(&plan.scheduled).enumerate()
            {
                let absent = |outcome| ParticipationEntry { client: c, stale: false, outcome };
                if !scheduled {
                    entries.push(absent(Participation::Unscheduled));
                    continue;
                }
                match (fate, outcome) {
                    (Fate::Crashed, _) => entries.push(absent(Participation::Crashed)),
                    (Fate::Dropout, _) => entries.push(absent(Participation::Dropout)),
                    (_, Some(Err(()))) => {
                        if self.guard.panic_policy == PanicPolicy::Error {
                            return Err(CoreError::ClientPanicked { client: c });
                        }
                        entries.push(absent(Participation::Panicked));
                    }
                    // A genuine error from local training (not a fault) is a
                    // programming error and always propagates.
                    (_, Some(Ok(Err(e)))) => return Err(e),
                    (fate, Some(Ok(Ok(mut params)))) => {
                        if let Fate::Corrupt(kind) = fate {
                            let start = start_of(&self.global_params, &self.node_params, c);
                            FaultInjector::corrupt(kind, &mut params, start);
                        }
                        // Arrival lag: the schedule's asynchronous delay,
                        // plus one round when the straggler fault fired.
                        let lag = plan.delay[c] + usize::from(fate == Fate::Straggler);
                        if lag == 0 {
                            fresh.push(UpdateCandidate {
                                client: c,
                                stale: false,
                                params,
                                weight: self.weights[c],
                            });
                            continue;
                        }
                        entries.push(absent(Participation::Straggling));
                        // Only a star server buffers a late update; in a
                        // gossip round nobody waits for it and it is lost.
                        if self.topology.is_star() {
                            deferred.push(DelayedUpdate {
                                deliver_round: round + lag,
                                candidate: UpdateCandidate {
                                    client: c,
                                    stale: true,
                                    params,
                                    weight: staleness_weight(self.weights[c], lag, decay),
                                },
                            });
                        }
                    }
                    (_, None) => unreachable!("computing fate without an outcome"),
                }
            }

            // Rewrite: update-level adversaries rewrite their fresh
            // submissions in-flight, between computation and the guard.
            self.adversary.rewrite_round(
                &mut fresh,
                &self.global_params,
                &self.prev_global,
                self.global.n_classes(),
            );

            // Guard: stale arrivals + fresh updates in a fixed order, so
            // aggregation arithmetic is deterministic. Signatures fingerprint
            // the submissions as submitted (pre-clipping, read-only).
            let mut candidates = stale_arrivals.clone();
            candidates.extend(fresh);
            candidates.sort_by_key(|c| (c.client, c.stale));
            let signatures = sign_updates(&candidates, &self.global_params, &self.prev_global);
            let judged = judge_round(&self.global_params, candidates, &self.guard)?;
            for j in &judged {
                entries.push(ParticipationEntry {
                    client: j.candidate.client,
                    stale: j.candidate.stale,
                    outcome: j.outcome,
                });
            }
            entries.sort_by_key(|e| (e.client, e.stale));
            let accepted: Vec<UpdateCandidate> = judged
                .into_iter()
                .filter(|j| matches!(j.outcome, Participation::Accepted { .. }))
                .map(|j| j.candidate)
                .collect();
            let n_accepted = accepted.len();
            // Quorum is measured against the clients actually asked to
            // train: scheduled and not crashed.
            let n_active = fates
                .iter()
                .zip(&plan.scheduled)
                .filter(|(f, s)| **s && **f != Fate::Crashed)
                .count();
            let needed = ((self.guard.quorum_frac * n_active as f64).ceil() as usize).max(1);
            let quorum_met = n_accepted >= needed;
            if !quorum_met && attempt < self.guard.max_round_retries && n_active > 0 {
                // Re-run the round against the remaining clients; the
                // aborted attempt's in-flight packets are lost with it.
                attempt += 1;
                continue;
            }

            if quorum_met {
                self.fuse(round, &fates, accepted)?;
            } else if self.guard.fail_fast {
                return Err(CoreError::InvalidParameter {
                    name: "quorum",
                    message: format!(
                        "round {round}: {n_accepted}/{needed} required updates accepted"
                    ),
                });
            }
            // else: graceful degradation — every model carries forward.

            self.delayed.extend(deferred);
            self.log.rounds.push(RoundReport {
                round,
                attempts: attempt + 1,
                degraded: !quorum_met,
                entries,
                signatures,
            });
            break;
        }
        // This round's starting params become the stale-echo reference; the
        // old `prev_global` allocation is recycled as next round's
        // `global_params` buffer.
        std::mem::swap(&mut self.prev_global, &mut self.global_params);
        self.next_round += 1;
        Ok(self.log.rounds.last())
    }

    /// Pulls every in-flight update whose delivery round has come, in
    /// deferral order. Delivery ignores whether the sender is scheduled
    /// *this* round: the schedule governs who trains, not whose buffered
    /// packet the server drains (see DESIGN.md §13).
    fn drain_due(&mut self, round: usize) -> Vec<UpdateCandidate> {
        let mut due = Vec::new();
        self.delayed.retain_mut(|d| {
            if d.deliver_round <= round {
                due.push(UpdateCandidate {
                    client: d.candidate.client,
                    stale: true,
                    params: std::mem::take(&mut d.candidate.params),
                    weight: d.candidate.weight,
                });
                false
            } else {
                true
            }
        });
        due
    }

    /// Compute phase: local work for every *scheduled* client whose fate
    /// requires it, each from its round-start model, on scoped threads when
    /// `parallel` is set and more than one client computes. `None` marks a
    /// client that did no work.
    fn compute(&mut self, fates: &[Fate], scheduled: &[bool]) -> Vec<Option<LocalOutcome>> {
        let n_computing =
            fates.iter().zip(scheduled).filter(|(f, s)| **s && needs_compute(**f)).count();
        let (global, nodes) = (&self.global_params, &self.node_params);
        let epochs = self.fl.local_epochs;
        let jobs = self.clients.iter_mut().zip(fates).zip(scheduled).enumerate().map(
            move |(c, ((client, &fate), &scheduled))| {
                let start = start_of(global, nodes, c);
                (scheduled && needs_compute(fate)).then_some((client, fate, start))
            },
        );
        if self.fl.parallel && n_computing > 1 {
            std::thread::scope(|s| {
                let handles: Vec<_> = jobs
                    .map(|job| {
                        job.map(|(client, fate, start)| {
                            s.spawn(move || run_local(client, fate, start, epochs))
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.map(|h| h.join().unwrap_or(Err(())))).collect()
            })
        } else {
            jobs.map(|job| job.map(|(client, fate, start)| run_local(client, fate, start, epochs)))
                .collect()
        }
    }

    /// Fuse phase. The star server folds every accepted update into the
    /// global model. Under gossip every live node folds the accepted
    /// updates of its neighborhood (itself plus its pulled peers) into its
    /// own model — a node whose neighborhood produced nothing, or that has
    /// crashed, keeps its model — and the global becomes the new consensus.
    fn fuse(&mut self, round: usize, fates: &[Fate], accepted: Vec<UpdateCandidate>) -> Result<()> {
        if self.topology.is_star() {
            let (updates, weights): (Vec<Vec<f32>>, Vec<usize>) =
                accepted.into_iter().map(|u| (u.params, u.weight)).unzip();
            self.aggregator.aggregate_into(&updates, &weights, &mut self.aggregated)?;
        } else {
            let n = self.clients.len();
            let mut next: Vec<Option<Vec<f32>>> = vec![None; n];
            for (i, next_i) in next.iter_mut().enumerate() {
                if fates[i] == Fate::Crashed {
                    continue;
                }
                let nbrs = self.topology.neighbors(round, i, n);
                let (updates, weights): (Vec<Vec<f32>>, Vec<usize>) = accepted
                    .iter()
                    .filter(|u| u.client == i || nbrs.contains(&u.client))
                    .map(|u| (u.params.clone(), u.weight))
                    .unzip();
                if !updates.is_empty() {
                    let mut out = Vec::new();
                    self.aggregator.aggregate_into(&updates, &weights, &mut out)?;
                    *next_i = Some(out);
                }
            }
            for (slot, fresh_params) in self.node_params.iter_mut().zip(next) {
                if let Some(p) = fresh_params {
                    *slot = p;
                }
            }
            WeightedFedAvg.aggregate_into(&self.node_params, &self.weights, &mut self.aggregated)?;
        }
        self.global.set_params(&self.aggregated)
    }

    /// Drives every remaining round. A no-op on a finished session.
    pub fn run_to_completion(&mut self) -> Result<()> {
        while !self.is_finished() {
            self.step_round()?;
        }
        Ok(())
    }

    /// Consumes the session into a [`FederationRun`]: the trained global
    /// model and the full log. Callable at any point — finishing early
    /// yields the model as of the last committed round.
    pub fn finish(self) -> FederationRun {
        FederationRun { net: self.global, log: self.log }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryPlan;
    use crate::faults::{FaultKind, FaultPlan};
    use ctfl_core::data::{FeatureKind, FeatureSchema};

    fn shards(n: usize) -> Vec<Dataset> {
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        (0..n)
            .map(|c| {
                let mut d = Dataset::empty(Arc::clone(&schema), 2);
                for i in 0..40 {
                    let v = ((i * n + c) % 120) as f32 / 120.0;
                    d.push_row(&[v.into()], (v > 0.5) as u32).unwrap();
                }
                d
            })
            .collect()
    }

    fn cfg(seed: u64) -> LogicalNetConfig {
        LogicalNetConfig {
            tau_d: 6,
            layer_sizes: vec![8],
            epochs: 5,
            batch_size: 16,
            seed,
            ..LogicalNetConfig::default()
        }
    }

    fn one_shot(
        shards: &[Dataset],
        seed: u64,
        fl: &FlConfig,
        setup: &ByzantineSetup<'_>,
    ) -> FederationRun {
        let mut engine =
            FederationEngine::from_datasets(shards, 2, &cfg(seed), fl, setup).unwrap();
        engine.run_to_completion().unwrap();
        engine.finish()
    }

    #[test]
    fn stepping_matches_one_shot_run() {
        let shards = shards(3);
        let fl = FlConfig { rounds: 4, local_epochs: 1, parallel: false };
        let plan = FaultPlan::none(3, 4).with_event(1, 0, FaultKind::Dropout);
        let adversary = AdversaryPlan::none(3);
        let guard = GuardConfig::default();
        let setup = ByzantineSetup {
            faults: &plan,
            adversary: &adversary,
            guard: &guard,
            aggregator: &WeightedFedAvg,
        };
        let solo = one_shot(&shards, 5, &fl, &setup);

        let mut engine = FederationEngine::from_datasets(&shards, 2, &cfg(5), &fl, &setup).unwrap();
        assert_eq!(engine.state(), EngineState::Running { next_round: 0 });
        let mut reports = 0;
        while let Some(report) = engine.step_round().unwrap() {
            assert_eq!(report.round, reports);
            reports += 1;
            // The session is inspectable mid-federation.
            assert_eq!(engine.rounds_done(), reports);
            assert!(engine.global().params().iter().all(|p| p.is_finite()));
        }
        assert_eq!(reports, 4);
        assert!(engine.is_finished());
        assert!(engine.step_round().unwrap().is_none(), "finished sessions stay finished");
        let stepped = engine.finish();
        assert_eq!(stepped.net.params(), solo.net.params());
        assert_eq!(stepped.log, solo.log);
    }

    #[test]
    fn interleaved_sessions_are_independent() {
        // Two sessions stepped in lockstep reproduce their solo runs —
        // the multiplexing guarantee the service layer builds on.
        let shards_a = shards(3);
        let shards_b = shards(4);
        let fl = FlConfig { rounds: 3, local_epochs: 1, parallel: false };
        let plan_a = FaultPlan::none(3, 3);
        let plan_b = FaultPlan::none(4, 3).with_event(0, 2, FaultKind::Straggler);
        let adv_a = AdversaryPlan::none(3);
        let adv_b = AdversaryPlan::none(4);
        let guard = GuardConfig::default();
        let setup_a = ByzantineSetup {
            faults: &plan_a,
            adversary: &adv_a,
            guard: &guard,
            aggregator: &WeightedFedAvg,
        };
        let setup_b = ByzantineSetup {
            faults: &plan_b,
            adversary: &adv_b,
            guard: &guard,
            aggregator: &WeightedFedAvg,
        };
        let solo_a = one_shot(&shards_a, 6, &fl, &setup_a);
        let solo_b = one_shot(&shards_b, 7, &fl, &setup_b);

        let mut a = FederationEngine::from_datasets(&shards_a, 2, &cfg(6), &fl, &setup_a).unwrap();
        let mut b = FederationEngine::from_datasets(&shards_b, 2, &cfg(7), &fl, &setup_b).unwrap();
        while !(a.is_finished() && b.is_finished()) {
            a.step_round().unwrap();
            b.step_round().unwrap();
        }
        let (a, b) = (a.finish(), b.finish());
        assert_eq!(a.net.params(), solo_a.net.params());
        assert_eq!(a.log, solo_a.log);
        assert_eq!(b.net.params(), solo_b.net.params());
        assert_eq!(b.log, solo_b.log);
    }

    #[test]
    fn early_finish_yields_the_partial_model() {
        let shards = shards(3);
        let fl = FlConfig { rounds: 5, local_epochs: 1, parallel: false };
        let plan = FaultPlan::none(3, 5);
        let adversary = AdversaryPlan::none(3);
        let guard = GuardConfig::default();
        let setup = ByzantineSetup {
            faults: &plan,
            adversary: &adversary,
            guard: &guard,
            aggregator: &WeightedFedAvg,
        };
        let mut engine = FederationEngine::from_datasets(&shards, 2, &cfg(8), &fl, &setup).unwrap();
        engine.step_round().unwrap();
        engine.step_round().unwrap();
        assert_eq!(engine.state(), EngineState::Running { next_round: 2 });
        let partial = engine.finish();
        assert_eq!(partial.log.rounds.len(), 2);

        // The two-round prefix equals a two-round federation.
        let fl2 = FlConfig { rounds: 2, ..fl };
        let plan2 = FaultPlan::none(3, 2);
        let setup2 = ByzantineSetup {
            faults: &plan2,
            adversary: &adversary,
            guard: &guard,
            aggregator: &WeightedFedAvg,
        };
        let two = one_shot(&shards, 8, &fl2, &setup2);
        assert_eq!(partial.net.params(), two.net.params());
    }

    #[test]
    fn constructor_rejects_bad_sessions_with_typed_errors() {
        let shards = shards(2);
        let fl = FlConfig { rounds: 1, local_epochs: 1, parallel: false };
        let adversary = AdversaryPlan::none(2);
        let guard = GuardConfig::default();
        // Fault plan sized for a different federation.
        let plan = FaultPlan::none(3, 1);
        let setup = ByzantineSetup {
            faults: &plan,
            adversary: &adversary,
            guard: &guard,
            aggregator: &WeightedFedAvg,
        };
        let err = FederationEngine::from_datasets(&shards, 2, &cfg(9), &fl, &setup).unwrap_err();
        assert_eq!(
            err,
            CoreError::LengthMismatch { what: "fault plan clients", expected: 2, actual: 3 }
        );
        // Adversary plan sized for a different federation.
        let plan = FaultPlan::none(2, 1);
        let adversary3 = AdversaryPlan::none(3);
        let setup = ByzantineSetup {
            faults: &plan,
            adversary: &adversary3,
            guard: &guard,
            aggregator: &WeightedFedAvg,
        };
        let err = FederationEngine::from_datasets(&shards, 2, &cfg(9), &fl, &setup).unwrap_err();
        assert_eq!(
            err,
            CoreError::LengthMismatch { what: "adversary plan clients", expected: 2, actual: 3 }
        );
        // Empty federation.
        let setup = ByzantineSetup {
            faults: &plan,
            adversary: &adversary,
            guard: &guard,
            aggregator: &WeightedFedAvg,
        };
        let err = FederationEngine::from_datasets(&[], 2, &cfg(9), &fl, &setup).unwrap_err();
        assert_eq!(err, CoreError::Empty { what: "client data" });
    }
}
