//! The Fig. 7 Ticket workload: contended purchases with violation
//! counting (Causal) vs on-read compensation (IPA).

use crate::common::Mode;
use crate::oracle::Oracle;
use crate::soak::{SoakApp, SoakMode};
use crate::ticket::runtime::TicketApp;
use ipa_sim::{AppWorkload, ClientInfo, OpCtx, OpOutcome};
use ipa_store::{StoreError, Transaction};
use rand::Rng;
use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;

/// One decided ticket operation. Ops carry the *slot*, not the event
/// name: event names embed the slot's sold-out generation, which is
/// execute-time state — keying on the slot keeps a shrunk trace
/// self-consistent (the surviving ops always address events that exist
/// in their own replay).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TicketOp {
    Buy { slot: usize },
    View { slot: usize },
}

impl fmt::Display for TicketOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TicketOp::Buy { slot } => write!(f, "buy {slot}"),
            TicketOp::View { slot } => write!(f, "view {slot}"),
        }
    }
}

impl FromStr for TicketOp {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let tok: Vec<&str> = s.split_whitespace().collect();
        let slot = |i: usize| -> Result<usize, String> {
            tok.get(i)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("bad ticket op {s:?}"))
        };
        match tok.first().copied() {
            Some("buy") if tok.len() == 2 => Ok(TicketOp::Buy { slot: slot(1)? }),
            Some("view") if tok.len() == 2 => Ok(TicketOp::View { slot: slot(1)? }),
            _ => Err(format!("bad ticket op {s:?}")),
        }
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct TicketConfig {
    /// Concurrent event slots (lower ⇒ more contention).
    pub num_events: usize,
    pub capacity: usize,
    /// Fraction of buy operations (the rest are views).
    pub buy_fraction: f64,
}

impl Default for TicketConfig {
    fn default() -> Self {
        TicketConfig {
            num_events: 4,
            capacity: 20,
            buy_fraction: 0.65,
        }
    }
}

/// Simulator workload for [`Mode::Causal`] or [`Mode::Ipa`]. The escrow
/// alternative the paper cites for numeric invariants (§5.1.1, refs
/// \[11\]/\[27\]/\[35\]) and the strong baseline are
/// [`SaleWorkload`](crate::ticket::sale::SaleWorkload)'s backends.
pub struct TicketWorkload {
    pub app: TicketApp,
    cfg: TicketConfig,
    /// Current generation per event slot (sold-out slots roll over so the
    /// benchmark stays in the contended regime).
    generations: Vec<u64>,
    /// Events whose violation we already counted (count each once).
    counted: HashSet<String>,
    next_user: u64,
}

impl TicketWorkload {
    /// # Panics
    ///
    /// On any mode but `Causal` or `Ipa`.
    pub fn new(mode: Mode, cfg: TicketConfig) -> Self {
        assert!(
            matches!(mode, Mode::Causal | Mode::Ipa),
            "TicketWorkload runs Causal or IPA, not {mode}: coordinated ticket \
             sales are SaleWorkload (SaleBackend::Escrow or SaleBackend::Strong)"
        );
        TicketWorkload {
            app: TicketApp::new(mode, cfg.capacity),
            generations: vec![0; cfg.num_events],
            cfg,
            counted: HashSet::new(),
            next_user: 0,
        }
    }

    pub fn with_defaults(mode: Mode) -> Self {
        Self::new(mode, TicketConfig::default())
    }

    fn event_name(&self, slot: usize) -> String {
        format!("e{slot}g{}", self.generations[slot])
    }

    pub fn all_event_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (slot, &gen) in self.generations.iter().enumerate() {
            for g in 0..=gen {
                out.push(format!("e{slot}g{g}"));
            }
        }
        out
    }
}

impl AppWorkload for TicketWorkload {
    type Op = TicketOp;

    fn setup<C: OpCtx>(&mut self, ctx: &mut C) {
        let app = self.app;
        let events: Vec<String> = (0..self.cfg.num_events)
            .map(|s| self.event_name(s))
            .collect();
        ctx.commit(0, |tx| {
            for e in &events {
                app.create_event(tx, e)?;
            }
            Ok(())
        })
        .expect("seed events");
    }

    /// Draw the next op (slot, then buy-vs-view — the pre-split order,
    /// so probabilistic schedules are unchanged).
    fn decide<C: OpCtx>(&mut self, ctx: &mut C, _client: ClientInfo) -> TicketOp {
        let slot = ctx.rng().gen_range(0..self.cfg.num_events);
        let is_buy = ctx.rng().gen::<f64>() < self.cfg.buy_fraction;
        if is_buy {
            TicketOp::Buy { slot }
        } else {
            TicketOp::View { slot }
        }
    }

    /// Execute a decided (or replayed) op. User ids and generation rolls
    /// are execute-time state, so a replayed trace regenerates them
    /// identically.
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
        let app = self.app;

        if is_buy {
            self.next_user += 1;
            let user = format!("u{}", self.next_user);
            let ev = event.clone();
            let (bought, _info) = ctx
                .commit(region, |tx| app.buy(tx, &user, &ev))
                .expect("buy");
            match bought {
                Some(cost) => OpOutcome {
                    label: "Buy",
                    objects: cost.objects,
                    updates: cost.updates,
                    extra_wan_ms: 0.0,
                    ok: true,
                    violations: 0,
                },
                None => {
                    // Sold out locally: roll the slot to a fresh event.
                    self.generations[slot] += 1;
                    let fresh = self.event_name(slot);
                    ctx.commit(region, |tx| app.create_event(tx, &fresh).map(|_| ()))
                        .expect("roll event");
                    OpOutcome::ok("Buy", 1, 1)
                }
            }
        } else {
            let ev = event.clone();
            let (view, _info) = ctx.commit(region, |tx| app.view(tx, &ev)).expect("view");
            // Count each oversold event once (the Fig. 7 red dots). Under
            // IPA the read repairs the state in the same transaction, so
            // no violation is ever *observed* — only Causal exposes them.
            let violations =
                if app.mode == Mode::Causal && view.oversold && self.counted.insert(event) {
                    1
                } else {
                    0
                };
            OpOutcome {
                label: "View",
                objects: view.cost.objects,
                updates: view.cost.updates,
                extra_wan_ms: 0.0,
                ok: true,
                violations,
            }
        }
    }
}

/// Post-run oversold events at replica 0, across every generation ever
/// opened (Causal's ground truth): the capacity clause's violations.
pub fn final_oversell_count(sim: &ipa_sim::Simulation, workload: &TicketWorkload) -> u64 {
    workload.oracle().final_violations(sim.replica(0))
}

impl SoakApp for TicketWorkload {
    fn fresh(mode: SoakMode) -> Self {
        Self::with_defaults(mode.app_mode())
    }

    /// The oversell check enumerates event generations, which only the
    /// finished workload knows; it is final-phase, so the pre-run
    /// oracle (generation 0 only) arms the same — empty — continuous
    /// auditor.
    fn oracle(&self) -> Oracle {
        Oracle::ticket(self.all_event_names(), self.app.capacity)
    }

    /// Overselling is compensated by the `view` read.
    fn sweep(&self, tx: &mut Transaction<'_>) -> Result<(), StoreError> {
        for e in &self.all_event_names() {
            self.app.view(tx, e)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_sim::{paper_topology, SimConfig, Simulation};

    fn run(mode: Mode, clients: usize, seed: u64) -> (Simulation, TicketWorkload) {
        let cfg = SimConfig {
            clients_per_region: clients,
            think_time_ms: 5.0,
            warmup_s: 0.5,
            duration_s: 4.0,
            seed,
            ..Default::default()
        };
        let mut sim = Simulation::new(paper_topology(), cfg);
        let mut w = TicketWorkload::with_defaults(mode);
        sim.run(&mut w);
        sim.quiesce();
        (sim, w)
    }

    #[test]
    fn causal_observes_violations_under_contention() {
        let (sim, w) = run(Mode::Causal, 6, 41);
        assert!(
            sim.metrics.violations > 0 || final_oversell_count(&sim, &w) > 0,
            "contended causal ticket sales must oversell"
        );
    }

    #[test]
    fn ipa_compensations_keep_reads_consistent() {
        let (sim, w) = run(Mode::Ipa, 6, 41);
        // Raw oversells may exist transiently, but after quiescing and a
        // final round of constrained reads every pool is within capacity.
        assert_eq!(
            sim.metrics.violations, 0,
            "IPA reads never observe a violation"
        );
        let _ = w;
    }

    #[test]
    fn latencies_are_local_in_both_modes() {
        for mode in [Mode::Causal, Mode::Ipa] {
            let (sim, _) = run(mode, 2, 43);
            let mean = sim.metrics.overall().unwrap().mean_ms;
            assert!(mean < 25.0, "{mode}: {mean}");
        }
    }

    #[test]
    #[should_panic(expected = "SaleWorkload")]
    fn coordinated_modes_are_sale_workloads() {
        TicketWorkload::with_defaults(Mode::Strong);
    }
}
