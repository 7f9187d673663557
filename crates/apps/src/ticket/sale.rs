//! The flagship escrow scenario: a high-contention ticket sale over the
//! [`BoundedCounter`] coordination surface.
//!
//! One hot event (a flash crowd chasing a small capacity) plus a cheap
//! tail, sold through one of four disciplines:
//!
//! * [`SaleBackend::Causal`] — uncoordinated add-wins pools: concurrent
//!   last-ticket purchases oversell silently (the anomaly detector on
//!   the causal soak axis).
//! * [`SaleBackend::IpaRepair`] — the paper's compensation sets: raw
//!   overshoot is allowed and repaired on read (§3.4).
//! * [`SaleBackend::Escrow`] — [`EscrowShard`]:
//!   per-replica rights as *replicated store state*, local decrements
//!   while rights last, asynchronous rights-transfer messages riding
//!   ordinary update batches. Overselling is prevented outright, so the
//!   capacity bound is a **continuous** oracle check.
//! * [`SaleBackend::Strong`] — every purchase forwarded to the primary.
//!
//! Unlike [`TicketWorkload`](crate::ticket::workload::TicketWorkload),
//! events are static (no sold-out generation rolls): the pre-run
//! continuous auditor must know every pool up front, and a sold-out hot
//! event staying sold out is exactly the regime the escrow comparison
//! measures.

use crate::oracle::Oracle;
use crate::soak::{SoakApp, SoakMode};
use crate::ticket::runtime::pool_key;
use crate::ticket::workload::TicketOp;
use ipa_coord::{
    BoundedCounter, CoordError, CounterBackend, EscrowShard, EscrowShardStats, StrongCounter,
};
use ipa_crdt::{ObjectKind, Val};
use ipa_sim::{AppWorkload, ClientInfo, OpCtx, OpOutcome};
use ipa_store::{StoreError, Transaction};
use rand::Rng;

/// Which coordination discipline sells the tickets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SaleBackend {
    Causal,
    IpaRepair,
    Escrow,
    Strong,
}

impl SaleBackend {
    pub fn all() -> [SaleBackend; 4] {
        [
            SaleBackend::Causal,
            SaleBackend::IpaRepair,
            SaleBackend::Escrow,
            SaleBackend::Strong,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            SaleBackend::Causal => "causal",
            SaleBackend::IpaRepair => "ipa",
            SaleBackend::Escrow => "escrow",
            SaleBackend::Strong => "strong",
        }
    }
}

impl std::fmt::Display for SaleBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct SaleConfig {
    /// Event slots; slot 0 is the hot event.
    pub num_events: usize,
    /// Capacity of the hot event (small ⇒ the flash crowd contends).
    pub hot_capacity: usize,
    /// Capacity of every tail event.
    pub tail_capacity: usize,
    /// Fraction of buy operations (the rest are views).
    pub buy_fraction: f64,
    /// Probability an op targets the hot event.
    pub hot_fraction: f64,
}

impl Default for SaleConfig {
    fn default() -> Self {
        SaleConfig {
            num_events: 4,
            hot_capacity: 12,
            tail_capacity: 200,
            buy_fraction: 0.8,
            hot_fraction: 0.6,
        }
    }
}

/// The primary region the strong backend forwards to.
const PRIMARY: u16 = 0;

/// Simulator workload for one sale backend.
pub struct SaleWorkload {
    pub backend: SaleBackend,
    cfg: SaleConfig,
    /// The bounded-counter backend (escrow / strong modes only), built
    /// at setup time.
    counter: Option<CounterBackend>,
    next_user: u64,
}

impl SaleWorkload {
    pub fn new(backend: SaleBackend, cfg: SaleConfig) -> Self {
        SaleWorkload {
            backend,
            cfg,
            counter: None,
            next_user: 0,
        }
    }

    pub fn with_defaults(backend: SaleBackend) -> Self {
        Self::new(backend, SaleConfig::default())
    }

    fn event_name(&self, slot: usize) -> String {
        format!("s{slot}")
    }

    fn capacity(&self, slot: usize) -> usize {
        if slot == 0 {
            self.cfg.hot_capacity
        } else {
            self.cfg.tail_capacity
        }
    }

    fn pool_kind(&self, slot: usize) -> ObjectKind {
        match self.backend {
            SaleBackend::IpaRepair => ObjectKind::CompSet {
                capacity: self.capacity(slot),
            },
            _ => ObjectKind::AWSet,
        }
    }

    /// Every event with its capacity (the oracle's sizing).
    pub fn event_capacities(&self) -> Vec<(String, usize)> {
        (0..self.cfg.num_events)
            .map(|s| (self.event_name(s), self.capacity(s)))
            .collect()
    }

    /// Escrow provisioning statistics (escrow backend only).
    pub fn escrow_stats(&self) -> Option<&EscrowShardStats> {
        match &self.counter {
            Some(CounterBackend::Escrow(shard)) => Some(&shard.stats),
            _ => None,
        }
    }
}

impl AppWorkload for SaleWorkload {
    type Op = TicketOp;

    fn setup<C: OpCtx>(&mut self, ctx: &mut C) {
        let regions = ctx.regions() as u16;
        let pools: Vec<(String, ObjectKind)> = (0..self.cfg.num_events)
            .map(|s| (pool_key(&self.event_name(s)), self.pool_kind(s)))
            .collect();
        // Ensure the pools at *every* region up front. Object creation is
        // deterministic (fixed creation owner), so the independently
        // created replicas are identical and merge idempotently — a buy
        // at a remote region is safe before any batch has replicated.
        for r in 0..regions {
            ctx.commit(r, |tx| {
                for (key, kind) in &pools {
                    tx.ensure(key.as_str(), *kind)?;
                }
                Ok(())
            })
            .expect("seed sale pools");
        }
        let mut counter = match self.backend {
            SaleBackend::Escrow => CounterBackend::Escrow(EscrowShard::default()),
            SaleBackend::Strong => CounterBackend::Strong(StrongCounter::new(PRIMARY)),
            _ => return,
        };
        for slot in 0..self.cfg.num_events {
            let e = self.event_name(slot);
            counter
                .create(ctx, &e, self.capacity(slot) as u64)
                .expect("create sale counter");
        }
        self.counter = Some(counter);
    }

    /// Draw the next op (hot?, tail slot, buy? — in that order).
    fn decide<C: OpCtx>(&mut self, ctx: &mut C, _client: ClientInfo) -> TicketOp {
        let hot = ctx.rng().gen::<f64>() < self.cfg.hot_fraction;
        let slot = if hot || self.cfg.num_events <= 1 {
            0
        } else {
            ctx.rng().gen_range(1..self.cfg.num_events)
        };
        let is_buy = ctx.rng().gen::<f64>() < self.cfg.buy_fraction;
        if is_buy {
            TicketOp::Buy { slot }
        } else {
            TicketOp::View { slot }
        }
    }

    /// Execute a decided (or replayed) op. User ids are execute-time
    /// state, so a replayed trace regenerates them identically.
    fn execute<C: OpCtx>(&mut self, ctx: &mut C, client: ClientInfo, op: &TicketOp) -> OpOutcome {
        let region = client.region;
        let (slot, is_buy) = match *op {
            TicketOp::Buy { slot } => (slot, true),
            TicketOp::View { slot } => (slot, false),
        };
        assert!(
            slot < self.cfg.num_events,
            "op trace slot {slot} out of range (config has {})",
            self.cfg.num_events
        );
        let event = self.event_name(slot);
        let key = pool_key(&event);
        let kind = self.pool_kind(slot);

        if !is_buy {
            let updates = match self.backend {
                SaleBackend::IpaRepair => {
                    let (read, _info) = ctx
                        .commit(region, |tx| {
                            tx.ensure(key.as_str(), kind)?;
                            tx.compset_read(key.as_str())
                        })
                        .expect("sale view");
                    usize::from(!read.cancelled.is_empty())
                }
                _ => {
                    ctx.commit(region, |tx| {
                        tx.ensure(key.as_str(), kind)?;
                        tx.set_len(key.as_str()).map(|_| ())
                    })
                    .expect("sale view");
                    0
                }
            };
            return OpOutcome::ok("View", 1, updates);
        }

        self.next_user += 1;
        let user = format!("u{}", self.next_user);
        match self.backend {
            SaleBackend::Causal | SaleBackend::IpaRepair => {
                let cap = self.capacity(slot);
                let ipa = self.backend == SaleBackend::IpaRepair;
                let (bought, _info) = ctx
                    .commit(region, |tx| {
                        tx.ensure(key.as_str(), kind)?;
                        // Local precondition only: concurrent remote buys
                        // can still oversell — that is the anomaly the
                        // escrow comparison measures.
                        if tx.set_len(key.as_str())? >= cap {
                            return Ok(false);
                        }
                        if ipa {
                            tx.compset_add(key.as_str(), Val::str(user.as_str()))?;
                        } else {
                            tx.aw_add(key.as_str(), Val::str(user.as_str()))?;
                        }
                        Ok(true)
                    })
                    .expect("sale buy");
                if bought {
                    OpOutcome::ok("Buy", 1, 1)
                } else {
                    OpOutcome::ok("SoldOut", 1, 0)
                }
            }
            SaleBackend::Escrow | SaleBackend::Strong => {
                // A decrement right must be consumed *before* the
                // purchase commits; the pool add then lands at the same
                // replica the right was spent at, so no causal state can
                // show more purchases than spent rights.
                let commit_region = match self.backend {
                    SaleBackend::Strong => PRIMARY,
                    _ => region,
                };
                let counter = self.counter.as_mut().expect("setup built the counter");
                match counter.decrement(ctx, &event, region, 1) {
                    Ok(acq) => {
                        ctx.commit(commit_region, |tx| {
                            tx.ensure(key.as_str(), kind)?;
                            tx.aw_add(key.as_str(), Val::str(user.as_str()))
                        })
                        .expect("sale buy");
                        OpOutcome {
                            label: "Buy",
                            objects: 2,
                            updates: 1,
                            extra_wan_ms: acq.wan_ms,
                            ok: true,
                            violations: 0,
                        }
                    }
                    // Correctly sold out everywhere: a completed (and
                    // correct) rejection, not an error.
                    Err(CoordError::WouldOversell { .. }) => OpOutcome::ok("SoldOut", 1, 0),
                    Err(CoordError::PeerUnreachable { .. }) => OpOutcome::unavailable("Buy"),
                }
            }
        }
    }
}

/// Post-run raw oversell count at one replica: total tickets beyond
/// capacity, summed over events (the benchmark's correctness column).
pub fn raw_oversell(sim: &ipa_sim::Simulation, workload: &SaleWorkload) -> u64 {
    let r = sim.replica(0);
    let mut total = 0u64;
    for (e, cap) in workload.event_capacities() {
        let n = r
            .object(&pool_key(&e))
            .map(|o| match o {
                ipa_crdt::Object::AWSet(s) => s.len(),
                ipa_crdt::Object::CompSet(s) => s.raw_len(),
                _ => 0,
            })
            .unwrap_or(0);
        total += n.saturating_sub(cap) as u64;
    }
    total
}

/// IPA mode runs the escrow backend, causal mode the uncoordinated one.
impl SoakApp for SaleWorkload {
    fn fresh(mode: SoakMode) -> Self {
        Self::with_defaults(match mode {
            SoakMode::Ipa => SaleBackend::Escrow,
            SoakMode::Causal => SaleBackend::Causal,
        })
    }

    fn oracle(&self) -> Oracle {
        Oracle::ticket_escrow(self.event_capacities())
    }

    /// Only the compensation-set backend has anything to sweep: the
    /// escrow and strong bounds are continuous by construction.
    fn sweep(&self, tx: &mut Transaction<'_>) -> Result<(), StoreError> {
        if self.backend == SaleBackend::IpaRepair {
            for slot in 0..self.cfg.num_events {
                tx.compset_read(pool_key(&self.event_name(slot)).as_str())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use ipa_sim::{paper_topology, FaultPlan, SimConfig, Simulation};

    fn run(backend: SaleBackend, seed: u64, faults: FaultPlan) -> (Simulation, SaleWorkload) {
        let cfg = SimConfig {
            clients_per_region: 2,
            warmup_s: 0.2,
            duration_s: 1.8,
            seed,
            faults,
            ..Default::default()
        };
        let mut sim = Simulation::new(paper_topology(), cfg);
        let mut w = SaleWorkload::with_defaults(backend);
        sim.run(&mut w);
        sim.quiesce();
        (sim, w)
    }

    #[test]
    fn causal_flash_crowd_oversells_the_hot_event() {
        let (sim, w) = run(SaleBackend::Causal, 7, FaultPlan::none());
        assert!(
            raw_oversell(&sim, &w) > 0,
            "three regions each selling the last tickets locally must oversell"
        );
    }

    #[test]
    fn escrow_never_oversells_and_stays_mostly_local() {
        let (sim, w) = run(SaleBackend::Escrow, 7, FaultPlan::none());
        assert_eq!(raw_oversell(&sim, &w), 0, "rights are spent before adds");
        let stats = w.escrow_stats().expect("escrow backend");
        assert!(
            stats.local_decs > stats.borrows,
            "most purchases ride pre-provisioned local rights: {stats:?}"
        );
        // The continuous oracle agrees on every replica.
        let oracle = Oracle::ticket_escrow(w.event_capacities());
        for r in 0..3 {
            assert_eq!(oracle.continuous_violations(sim.replica(r)), 0);
        }
        assert!(sim.metrics.completed > 100, "the sale actually ran");
    }

    #[test]
    fn escrow_stays_safe_under_a_lossy_nemesis() {
        let (sim, w) = run(SaleBackend::Escrow, 11, FaultPlan::with_intensity(11, 0.6));
        assert_eq!(
            raw_oversell(&sim, &w),
            0,
            "dropped/duplicated/delayed transfer batches never mint rights"
        );
    }

    #[test]
    fn strong_is_safe_but_pays_the_wan_every_time() {
        let (strong_sim, w) = run(SaleBackend::Strong, 7, FaultPlan::none());
        assert_eq!(raw_oversell(&strong_sim, &w), 0);
        let (escrow_sim, _) = run(SaleBackend::Escrow, 7, FaultPlan::none());
        let strong_mean = strong_sim.metrics.overall().unwrap().mean_ms;
        let escrow_mean = escrow_sim.metrics.overall().unwrap().mean_ms;
        assert!(
            strong_mean > escrow_mean,
            "escrow buys are mostly local, strong buys always forward: \
             escrow={escrow_mean}ms strong={strong_mean}ms"
        );
    }

    #[test]
    fn ipa_repair_settles_within_capacity_after_view_sweeps() {
        let (mut sim, w) = run(SaleBackend::IpaRepair, 7, FaultPlan::none());
        // Raw overshoot may exist; the shared repair sweep (constrained
        // reads, replicated, twice) settles every pool within its bound.
        crate::soak::repair(&w, &mut sim, Simulation::sync_all);
        let oracle = Oracle::ticket_escrow(w.event_capacities());
        for r in 0..3 {
            assert_eq!(oracle.final_violations(sim.replica(r)), 0, "replica {r}");
        }
    }

    #[test]
    fn default_config_has_one_contended_hot_event() {
        let caps = SaleWorkload::with_defaults(SaleBackend::Causal).event_capacities();
        assert_eq!(caps.len(), SaleConfig::default().num_events);
        assert!(caps[0].1 < caps[1].1, "slot 0 is the contended hot event");
    }
}
