//! Shared harness plumbing: standard simulation runners per application.

use ipa_apps::ticket::TicketWorkload;
use ipa_apps::tournament::workload::TournamentConfig;
use ipa_apps::tournament::TournamentWorkload;
use ipa_apps::twitter::runtime::Strategy;
use ipa_apps::twitter::TwitterWorkload;
use ipa_apps::Mode;
use ipa_sim::{paper_topology, LatencySummary, SimConfig, Simulation};
use std::collections::BTreeMap;

/// Condensed result of one simulation run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    pub throughput: f64,
    pub mean_ms: f64,
    pub p95_ms: f64,
    pub std_ms: f64,
    pub failed: u64,
    pub violations: u64,
    pub per_op: BTreeMap<String, LatencySummary>,
}

/// Reusable flattening buffer for [`RunSummary::from_sim_with`]: sweeps
/// computing one summary per point keep a single warmed allocation
/// instead of re-growing a sample vector at every sweep point.
#[derive(Debug, Default)]
pub struct SummaryScratch {
    samples: Vec<f64>,
}

impl RunSummary {
    pub fn from_sim(sim: &Simulation) -> RunSummary {
        RunSummary::from_sim_with(sim, &mut SummaryScratch::default())
    }

    /// [`RunSummary::from_sim`] with a caller-held scratch buffer, for
    /// sweep loops.
    pub fn from_sim_with(sim: &Simulation, scratch: &mut SummaryScratch) -> RunSummary {
        let overall = sim.metrics.overall_with(&mut scratch.samples);
        let per_op = sim
            .metrics
            .labels()
            .filter_map(|l| sim.metrics.summary(l).map(|s| (l.to_owned(), s)))
            .collect();
        RunSummary {
            throughput: sim.metrics.throughput(),
            mean_ms: overall.as_ref().map_or(0.0, |s| s.mean_ms),
            p95_ms: overall.as_ref().map_or(0.0, |s| s.p95_ms),
            std_ms: overall.as_ref().map_or(0.0, |s| s.std_ms),
            failed: sim.metrics.failed,
            violations: sim.metrics.violations,
            per_op,
        }
    }
}

/// Standard measurement windows.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub warmup_s: f64,
    pub duration_s: f64,
}

impl Budget {
    pub const FULL: Budget = Budget {
        warmup_s: 1.0,
        duration_s: 8.0,
    };
    pub const QUICK: Budget = Budget {
        warmup_s: 0.3,
        duration_s: 1.5,
    };

    pub fn pick(quick: bool) -> Budget {
        if quick {
            Budget::QUICK
        } else {
            Budget::FULL
        }
    }
}

/// `--quick` on the command line shrinks every sweep for smoke runs.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn sim_config(clients: usize, think_ms: f64, seed: u64, budget: Budget) -> SimConfig {
    SimConfig {
        clients_per_region: clients,
        think_time_ms: think_ms,
        warmup_s: budget.warmup_s,
        duration_s: budget.duration_s,
        seed,
        ..Default::default()
    }
}

/// Run the Tournament workload (35 % writes) in one mode.
pub fn run_tournament(
    mode: Mode,
    clients: usize,
    seed: u64,
    budget: Budget,
) -> (Simulation, TournamentWorkload) {
    let cfg = sim_config(clients, 10.0, seed, budget);
    let mut sim = Simulation::new(paper_topology(), cfg);
    let mut w = TournamentWorkload::new(mode, TournamentConfig::default());
    sim.run(&mut w);
    sim.quiesce();
    (sim, w)
}

/// Run the Twitter workload in one strategy.
pub fn run_twitter(strategy: Strategy, clients: usize, seed: u64, budget: Budget) -> Simulation {
    let cfg = sim_config(clients, 10.0, seed, budget);
    let mut sim = Simulation::new(paper_topology(), cfg);
    let mut w = TwitterWorkload::with_defaults(strategy);
    sim.run(&mut w);
    sim.quiesce();
    sim
}

/// Run the Ticket workload in one mode.
pub fn run_ticket(
    mode: Mode,
    clients: usize,
    seed: u64,
    budget: Budget,
) -> (Simulation, TicketWorkload) {
    let cfg = sim_config(clients, 5.0, seed, budget);
    let mut sim = Simulation::new(paper_topology(), cfg);
    let mut w = TicketWorkload::with_defaults(mode);
    sim.run(&mut w);
    sim.quiesce();
    (sim, w)
}

/// Pretty separator line.
pub fn rule(width: usize) -> String {
    "─".repeat(width)
}

/// One figure guardrail: `Err(broken())` unless `holds`.
pub(crate) fn ensure(holds: bool, broken: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(broken())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_tournament_run_summarizes() {
        let (sim, _) = run_tournament(Mode::Causal, 1, 3, Budget::QUICK);
        let s = RunSummary::from_sim(&sim);
        assert!(s.throughput > 0.0);
        assert!(s.mean_ms > 0.0);
        assert!(!s.per_op.is_empty());
    }
}
