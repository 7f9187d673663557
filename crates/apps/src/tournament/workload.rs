//! The Fig. 4/5 Tournament workload: 35 % writes, closed-loop clients,
//! entity locality that keeps Indigo reservations mostly resident.

use crate::common::{pick_local, Mode};
use crate::oracle::Oracle;
use crate::soak::{SoakApp, SoakMode};
use crate::tournament::runtime::{OpCost, Tournament};
use ipa_coord::{CoordBackend, LockMode, ReservationTable, StrongCoordinator};
use ipa_sim::{AppWorkload, ClientInfo, OpCtx, OpOutcome};
use ipa_store::{StoreError, Transaction};
use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// One decided tournament operation, fully resolved (entity names, not
/// RNG state), so it serializes into an op-trace line and replays
/// without the workload RNG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TournamentOp {
    Status { t: String },
    Enroll { p: String, t: String },
    Disenroll { p: String, t: String },
    DoMatch { p: String, q: String, t: String },
    Begin { t: String },
    Finish { t: String },
    Remove { t: String },
}

impl TournamentOp {
    /// The metrics label (identical to the pre-split `op()` labels).
    pub fn label(&self) -> &'static str {
        match self {
            TournamentOp::Status { .. } => "Status",
            TournamentOp::Enroll { .. } => "Enroll",
            TournamentOp::Disenroll { .. } => "Disenroll",
            TournamentOp::DoMatch { .. } => "DoMatch",
            TournamentOp::Begin { .. } => "Begin",
            TournamentOp::Finish { .. } => "Finish",
            TournamentOp::Remove { .. } => "Remove",
        }
    }
}

impl fmt::Display for TournamentOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TournamentOp::Status { t } => write!(f, "status {t}"),
            TournamentOp::Enroll { p, t } => write!(f, "enroll {p} {t}"),
            TournamentOp::Disenroll { p, t } => write!(f, "disenroll {p} {t}"),
            TournamentOp::DoMatch { p, q, t } => write!(f, "match {p} {q} {t}"),
            TournamentOp::Begin { t } => write!(f, "begin {t}"),
            TournamentOp::Finish { t } => write!(f, "finish {t}"),
            TournamentOp::Remove { t } => write!(f, "remove {t}"),
        }
    }
}

impl FromStr for TournamentOp {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let tok: Vec<&str> = s.split_whitespace().collect();
        let own = |i: usize| tok[i].to_owned();
        match (tok.first().copied(), tok.len()) {
            (Some("status"), 2) => Ok(TournamentOp::Status { t: own(1) }),
            (Some("enroll"), 3) => Ok(TournamentOp::Enroll {
                p: own(1),
                t: own(2),
            }),
            (Some("disenroll"), 3) => Ok(TournamentOp::Disenroll {
                p: own(1),
                t: own(2),
            }),
            (Some("match"), 4) => Ok(TournamentOp::DoMatch {
                p: own(1),
                q: own(2),
                t: own(3),
            }),
            (Some("begin"), 2) => Ok(TournamentOp::Begin { t: own(1) }),
            (Some("finish"), 2) => Ok(TournamentOp::Finish { t: own(1) }),
            (Some("remove"), 2) => Ok(TournamentOp::Remove { t: own(1) }),
            _ => Err(format!("bad tournament op {s:?}")),
        }
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct TournamentConfig {
    pub num_players: usize,
    pub num_tournaments: usize,
    /// Fraction of write operations (paper: 0.35).
    pub write_fraction: f64,
    /// Probability that a client works on a home-region tournament.
    pub locality: f64,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig {
            num_players: 60,
            num_tournaments: 12,
            write_fraction: 0.35,
            locality: 0.9,
        }
    }
}

/// The simulator workload for one consistency mode.
pub struct TournamentWorkload {
    pub app: Tournament,
    cfg: TournamentConfig,
    players: Vec<String>,
    tournaments: Vec<String>,
    reservations: ReservationTable,
    strong: StrongCoordinator,
    next_id: u64,
}

impl TournamentWorkload {
    pub fn new(mode: Mode, cfg: TournamentConfig) -> Self {
        let players = (0..cfg.num_players).map(|i| format!("p{i}")).collect();
        let tournaments = (0..cfg.num_tournaments).map(|i| format!("t{i}")).collect();
        TournamentWorkload {
            app: Tournament::new(mode),
            cfg,
            players,
            tournaments,
            reservations: ReservationTable::new(),
            strong: StrongCoordinator::new(0),
            next_id: 0,
        }
    }

    pub fn with_defaults(mode: Mode) -> Self {
        Self::new(mode, TournamentConfig::default())
    }

    fn mode(&self) -> Mode {
        self.app.mode
    }

    /// Run the read-side compensations to a fixpoint after a simulation:
    /// every replica performs a `status` read of every tournament (reads
    /// repair observed capacity violations, §3.4/§4.2.2), replicating the
    /// compensations in between. No-op except under IPA.
    pub fn final_repair(&self, sim: &mut ipa_sim::Simulation) {
        crate::soak::repair(self, sim, ipa_sim::Simulation::sync_all);
    }

    /// The typed coordination mechanism guarding one op label under this
    /// workload's mode — the per-op analogue of what
    /// [`ipa_coord::coordination_plan`] emits per flagged pair. Reads
    /// coordinate with nobody; Indigo writes take the per-tournament
    /// reservation (exclusive for structural removal, shared otherwise);
    /// Strong writes forward to the primary.
    pub fn op_backend(&self, label: &str) -> CoordBackend {
        match (self.mode(), label) {
            (_, "Status") => CoordBackend::None,
            (Mode::Indigo, "Remove") => CoordBackend::Reservation(LockMode::Exclusive),
            (Mode::Indigo, _) => CoordBackend::Reservation(LockMode::Shared),
            (Mode::Strong, _) => CoordBackend::Strong,
            _ => CoordBackend::None,
        }
    }
}

impl AppWorkload for TournamentWorkload {
    type Op = TournamentOp;

    /// Seed data + initial reservation placement.
    fn setup<C: OpCtx>(&mut self, ctx: &mut C) {
        let app = self.app;
        let players = self.players.clone();
        let tournaments = self.tournaments.clone();
        ctx.commit(0, |tx| {
            app.ensure_schema(tx)?;
            for p in &players {
                app.add_player(tx, p)?;
            }
            for t in &tournaments {
                app.add_tourn(tx, t)?;
                app.begin_tourn(tx, t)?;
            }
            Ok(())
        })
        .expect("seed data");
        // Indigo: tournament reservations start at their home region.
        let regions = ctx.regions() as u16;
        for (i, t) in self.tournaments.iter().enumerate() {
            self.reservations.grant(
                format!("tourn:{t}"),
                (i % regions as usize) as u16,
                LockMode::Shared,
            );
        }
    }

    /// Draw the next op from the workload RNG. Draw order (is_write,
    /// tournament, player, write-kind) is exactly the pre-split `op()`'s,
    /// so probabilistic schedules — and their digest pins — are
    /// unchanged.
    fn decide<C: OpCtx>(&mut self, ctx: &mut C, client: ClientInfo) -> TournamentOp {
        let regions = ctx.regions();
        let region = client.region;
        let is_write = ctx.rng().gen::<f64>() < self.cfg.write_fraction;
        let ti = pick_local(
            ctx.rng(),
            self.tournaments.len(),
            regions,
            region,
            self.cfg.locality,
        );
        let t = self.tournaments[ti].clone();
        let pi = ctx.rng().gen_range(0..self.players.len());
        let p = self.players[pi].clone();

        // Operation mix (writes sum to 1.0 within the write fraction).
        if !is_write {
            return TournamentOp::Status { t };
        }
        let x = ctx.rng().gen::<f64>();
        match x {
            x if x < 0.28 => TournamentOp::Enroll { p, t },
            x if x < 0.46 => TournamentOp::Disenroll { p, t },
            x if x < 0.70 => {
                let q = self.players[(pi + 1) % self.players.len()].clone();
                TournamentOp::DoMatch { p, q, t }
            }
            x if x < 0.82 => TournamentOp::Begin { t },
            x if x < 0.94 => TournamentOp::Finish { t },
            _ => TournamentOp::Remove { t },
        }
    }

    /// Execute a decided (or replayed) op. Deterministic: the only
    /// context draws are the commit-staging latencies, which replay from
    /// the recorded op trace.
    fn execute<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        client: ClientInfo,
        op: &TournamentOp,
    ) -> OpOutcome {
        let region = client.region;
        let label = op.label();
        let t = match op {
            TournamentOp::Status { t }
            | TournamentOp::Enroll { t, .. }
            | TournamentOp::Disenroll { t, .. }
            | TournamentOp::DoMatch { t, .. }
            | TournamentOp::Begin { t }
            | TournamentOp::Finish { t }
            | TournamentOp::Remove { t } => t.clone(),
        };

        // Coordination cost first (reservations / the primary forward are
        // paid before executing), dispatched on the op's typed backend.
        let mut extra_wan = 0.0;
        let exec_region: u16 = match self.op_backend(label) {
            CoordBackend::Reservation(mode) => {
                match self
                    .reservations
                    .acquire(ctx, &format!("tourn:{t}"), region, mode)
                {
                    Some(c) => {
                        extra_wan += c;
                        region
                    }
                    None => return OpOutcome::unavailable(label),
                }
            }
            CoordBackend::Strong => match self.strong.forward_cost(ctx, region) {
                Some(c) => {
                    extra_wan += c;
                    self.strong.primary()
                }
                None => return OpOutcome::unavailable(label),
            },
            CoordBackend::None | CoordBackend::Escrow => region,
        };

        let app = self.app;
        self.next_id += 1;
        let (cost, _info) = ctx
            .commit(exec_region, |tx| match op {
                TournamentOp::Status { t } => app.status(tx, t),
                TournamentOp::Enroll { p, t } => app.enroll(tx, p, t),
                TournamentOp::Disenroll { p, t } => app.disenroll(tx, p, t),
                TournamentOp::DoMatch { p, q, t } => {
                    // The transaction code establishes the operation's
                    // preconditions locally (§2.2): both players enrolled
                    // and the tournament running.
                    let mut total = OpCost::new(0, 0);
                    if !app.is_active(tx, t)? {
                        let c = app.begin_tourn(tx, t)?;
                        total.objects += c.objects;
                        total.updates += c.updates;
                    }
                    for player in [p, q] {
                        if !tx.contains(
                            crate::tournament::runtime::ENROLLED,
                            &crate::tournament::runtime::enrolled(player.as_str(), t.as_str()),
                        )? {
                            let c = app.enroll(tx, player, t)?;
                            total.objects += c.objects;
                            total.updates += c.updates;
                        }
                    }
                    let c = app.do_match(tx, p, q, t)?;
                    Ok(OpCost::new(
                        (total.objects + c.objects).min(6),
                        total.updates + c.updates,
                    ))
                }
                TournamentOp::Begin { t } => app.begin_tourn(tx, t),
                TournamentOp::Finish { t } => app.finish_tourn(tx, t),
                TournamentOp::Remove { t } => app.rem_tourn(tx, t),
            })
            .expect("tournament op");
        let cost: OpCost = cost;

        // Removed tournaments come back quickly so the workload keeps its
        // entity population (matches the paper's steady-state runs).
        if matches!(op, TournamentOp::Remove { .. }) {
            let app = self.app;
            ctx.commit(exec_region, |tx| app.add_tourn(tx, &t).map(|_| ()))
                .expect("re-add tournament");
        }

        OpOutcome {
            label,
            objects: cost.objects,
            updates: cost.updates,
            extra_wan_ms: extra_wan,
            ok: true,
            violations: 0,
        }
    }
}

impl SoakApp for TournamentWorkload {
    fn fresh(mode: SoakMode) -> Self {
        Self::with_defaults(mode.app_mode())
    }

    fn oracle(&self) -> Oracle {
        Oracle::tournament()
    }

    /// Capacity and match-phase are compensated by the `status` read.
    fn sweep(&self, tx: &mut Transaction<'_>) -> Result<(), StoreError> {
        for t in &self.tournaments {
            self.app.status(tx, t)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_sim::{paper_topology, SimConfig, Simulation};

    fn run(mode: Mode, seed: u64) -> Simulation {
        let cfg = SimConfig {
            clients_per_region: 3,
            warmup_s: 0.5,
            duration_s: 3.0,
            seed,
            ..Default::default()
        };
        let mut sim = Simulation::new(paper_topology(), cfg);
        let mut w = TournamentWorkload::with_defaults(mode);
        sim.run(&mut w);
        sim.quiesce();
        sim
    }

    #[test]
    fn causal_is_fast_but_violates() {
        let sim = run(Mode::Causal, 11);
        let mean = sim.metrics.overall().unwrap().mean_ms;
        assert!(mean < 25.0, "causal ops are local: {mean}ms");
        let v: u64 = (0..3)
            .map(|r| crate::Oracle::tournament().final_violations(sim.replica(r)))
            .sum();
        assert!(v > 0, "contended causal run must violate invariants");
    }

    #[test]
    fn ipa_is_nearly_as_fast_and_never_violates() {
        let cfg = SimConfig {
            clients_per_region: 3,
            warmup_s: 0.5,
            duration_s: 3.0,
            seed: 11,
            ..Default::default()
        };
        let mut sim = Simulation::new(paper_topology(), cfg);
        let mut w = TournamentWorkload::with_defaults(Mode::Ipa);
        sim.run(&mut w);
        sim.quiesce();
        // Capacity is compensated on read (§3.4): a final status sweep
        // settles any residual overshoot before checking.
        w.final_repair(&mut sim);
        let mean = sim.metrics.overall().unwrap().mean_ms;
        assert!(mean < 30.0, "IPA ops stay local: {mean}ms");
        for r in 0..3 {
            assert_eq!(
                crate::Oracle::tournament().final_violations(sim.replica(r)),
                0,
                "replica {r} must satisfy all invariants"
            );
        }
    }

    #[test]
    fn strong_pays_wan_latency() {
        let causal = run(Mode::Causal, 13).metrics.overall().unwrap().mean_ms;
        let strong = run(Mode::Strong, 13).metrics.overall().unwrap().mean_ms;
        assert!(
            strong > causal + 10.0,
            "strong must be clearly slower: causal={causal} strong={strong}"
        );
    }

    #[test]
    fn indigo_sits_between_ipa_and_strong() {
        let ipa = run(Mode::Ipa, 17).metrics.overall().unwrap().mean_ms;
        let indigo = run(Mode::Indigo, 17).metrics.overall().unwrap().mean_ms;
        let strong = run(Mode::Strong, 17).metrics.overall().unwrap().mean_ms;
        assert!(indigo >= ipa * 0.8, "indigo ≥ ipa-ish: {indigo} vs {ipa}");
        assert!(indigo < strong, "indigo < strong: {indigo} vs {strong}");
    }
}
