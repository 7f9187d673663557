//! **Escrow comparison** (beyond the paper): the flagship
//! high-contention ticket sale over the redesigned `ipa-coord`
//! coordination surface — IPA compensation repair vs escrow-sharded
//! bounded counters vs strong (primary-forwarded) coordination, under a
//! benign and a lossy fault plan.
//!
//! Every cell replays the **same seeded flash-crowd trace** through the
//! open-loop generator machinery the load sweep introduced
//! (`Simulation::set_explicit_ops`): Poisson arrivals per region at a
//! base rate, a spike window in the middle where the arrival rate
//! multiplies and nearly every op chases the hot event, and a large
//! virtual-buyer population multiplexed onto the simulator's client
//! slots. Only the backend and the fault plan vary, so the columns are
//! directly comparable.
//!
//! Reported per cell (all deterministic functions of the seed):
//!
//! * **goodput** — successful purchases per second inside the
//!   measurement window (`SoldOut` rejections and unavailable ops do
//!   not count);
//! * **oversell** — raw tickets beyond capacity at quiescence, summed
//!   over events. Structurally zero for escrow and strong (a decrement
//!   right is consumed before any purchase commits); the IPA column
//!   shows the raw overshoot its read-time repair later cancels;
//! * **latency** — p50/p99/p999 of successful purchases;
//! * **transfer traffic** — rights-transfer messages observed at the
//!   store layer (`ReplicaStats::rights_transfers_out`) plus the escrow
//!   shard's own decision counters, guarded by a fixed ceiling.
//!
//! Results land in `BENCH_escrow.json` at the repo root; [`check`]
//! holds the guardrails on the deterministic counters (zero oversell
//! for escrow/strong, escrow goodput strictly above strong under the
//! lossy plan, transfer volume within the bound) and `--bin escrow`
//! — CI's perf-smoke job — exits non-zero when one is broken.

use crate::runner::ensure;
use ipa_apps::ticket::sale::{raw_oversell, SaleBackend, SaleConfig, SaleWorkload};
use ipa_sim::{paper_topology, AppOp, FaultPlan, OpEvent, OpTrace, SimConfig, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Client slots per region the virtual buyers are multiplexed onto.
const SLOTS_PER_REGION: usize = 8;
const REGIONS: usize = 3;
/// The flash-crowd trace seed (shared by every cell).
const SEED: u64 = 9;
/// Lossy-plan nemesis intensity.
const LOSSY_INTENSITY: f64 = 0.6;
/// Fixed ceiling on rights-transfer messages per cell: the shard may
/// re-shard each event's rights at most this many times per
/// (event, region) pair before the traffic itself becomes the anomaly.
/// [`check`] guards `transfers_issued` against it.
pub const TRANSFERS_PER_EVENT_REGION_BOUND: u64 = 8;

/// One (backend, plan) cell of the comparison grid.
#[derive(Clone, Debug)]
pub struct Cell {
    pub backend: SaleBackend,
    /// `"benign"` or `"lossy"`.
    pub plan: &'static str,
    pub completed: u64,
    pub failed: u64,
    /// Successful purchases inside the window.
    pub buys: u64,
    /// Correct sold-out rejections (completed, not failed).
    pub sold_out: u64,
    /// Successful purchases per second.
    pub goodput_buys_s: f64,
    /// Raw tickets beyond capacity at quiescence (see module doc).
    pub oversell: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    /// Rights-transfer updates applied cluster-wide (store layer).
    pub rights_transfer_msgs: u64,
    /// Rights units those messages moved.
    pub rights_units_moved: u64,
    /// Escrow provisioner decisions (zero for non-escrow backends).
    pub local_decs: u64,
    pub borrows: u64,
    pub transfers_issued: u64,
}

#[derive(Clone, Debug)]
pub struct Report {
    pub quick: bool,
    pub virtual_buyers: u64,
    pub num_events: usize,
    pub hot_capacity: usize,
    pub tail_capacity: usize,
    /// Offered base arrival rate per region (ops/s).
    pub base_rate: f64,
    /// Offered arrival rate per region inside the spike window.
    pub spike_rate: f64,
    pub transfer_bound: u64,
    pub cells: Vec<Cell>,
}

impl Report {
    /// The cell for one (backend, plan) pair.
    pub fn cell(&self, backend: SaleBackend, plan: &str) -> &Cell {
        self.find(backend, plan).expect("grid is complete")
    }

    fn find(&self, backend: SaleBackend, plan: &str) -> Option<&Cell> {
        let wanted = |c: &&Cell| c.backend == backend && c.plan == plan;
        self.cells.iter().find(wanted)
    }
}

/// Shape parameters of one run mode.
struct Shape {
    warmup_s: f64,
    duration_s: f64,
    base_rate: f64,
    spike_rate: f64,
    buyers: u64,
    cfg: SaleConfig,
}

fn shape(quick: bool) -> Shape {
    if quick {
        Shape {
            warmup_s: 0.3,
            duration_s: 1.5,
            base_rate: 60.0,
            spike_rate: 200.0,
            buyers: 200_000,
            cfg: SaleConfig {
                num_events: 6,
                hot_capacity: 60,
                tail_capacity: 600,
                ..SaleConfig::default()
            },
        }
    } else {
        Shape {
            warmup_s: 1.0,
            duration_s: 6.0,
            base_rate: 120.0,
            spike_rate: 400.0,
            buyers: 2_000_000,
            cfg: SaleConfig {
                num_events: 6,
                hot_capacity: 400,
                tail_capacity: 4000,
                ..SaleConfig::default()
            },
        }
    }
}

/// Synthesize the flash-crowd arrival trace: a non-homogeneous Poisson
/// process per region — `base_rate` outside the spike window,
/// `spike_rate` inside it — with each arrival drawn from the
/// virtual-buyer population and multiplexed onto the region's client
/// slots. Inside the spike nearly every op is a purchase of the hot
/// event (the flash crowd); outside it the mix follows the workload's
/// configured fractions over all events.
fn synthesize(s: &Shape) -> OpTrace {
    let horizon_s = s.warmup_s + s.duration_s;
    // The crowd surges through the middle half of the run.
    let spike = (horizon_s * 0.35, horizon_s * 0.70);
    let mut events = Vec::new();
    for region in 0..REGIONS {
        let mut rng = StdRng::seed_from_u64(SEED ^ (0xe5c0 << 16) ^ region as u64);
        let mut t_s = 0.0f64;
        loop {
            let rate = if (spike.0..spike.1).contains(&t_s) {
                s.spike_rate
            } else {
                s.base_rate
            };
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t_s += -u.ln() / rate;
            if t_s >= horizon_s {
                break;
            }
            let in_spike = (spike.0..spike.1).contains(&t_s);
            let hot_p = if in_spike { 0.9 } else { s.cfg.hot_fraction };
            let hot = rng.gen::<f64>() < hot_p;
            let slot = if hot {
                0
            } else {
                rng.gen_range(1..s.cfg.num_events)
            };
            let buy_p = if in_spike { 0.95 } else { s.cfg.buy_fraction };
            let verb = if rng.gen::<f64>() < buy_p {
                "buy"
            } else {
                "view"
            };
            let buyer = rng.gen_range(0..s.buyers);
            let slot_client = region * SLOTS_PER_REGION + (buyer as usize % SLOTS_PER_REGION);
            events.push(OpEvent {
                client: slot_client,
                at_us: (t_s * 1e6) as u64,
                op: AppOp::new(format!("{verb} {slot}")),
            });
        }
    }
    // Replay queues are per client and must be time-ordered.
    events.sort_by_key(|e| (e.client, e.at_us));
    OpTrace {
        events,
        sends: Vec::new(),
    }
}

/// Replay the shared trace through one (backend, plan) cell.
fn run_cell(backend: SaleBackend, plan: &'static str, s: &Shape, trace: &OpTrace) -> Cell {
    let faults = match plan {
        "benign" => FaultPlan::none(),
        "lossy" => FaultPlan::with_intensity(SEED, LOSSY_INTENSITY),
        other => unreachable!("unknown plan {other}"),
    };
    let cfg = SimConfig {
        clients_per_region: SLOTS_PER_REGION,
        warmup_s: s.warmup_s,
        duration_s: s.duration_s,
        seed: SEED,
        faults,
        ..Default::default()
    };
    let mut sim = Simulation::new(paper_topology(), cfg);
    sim.set_explicit_ops(trace);
    let mut w = SaleWorkload::new(backend, s.cfg.clone());
    sim.run(&mut w);
    sim.quiesce();

    let buy = sim.metrics.summary("Buy");
    let sold_out = sim.metrics.summary("SoldOut").map_or(0, |s| s.count as u64);
    let buys = buy.as_ref().map_or(0, |s| s.count as u64);
    let (mut msgs, mut units) = (0u64, 0u64);
    for r in 0..REGIONS as u16 {
        let stats = &sim.replica(r).stats;
        msgs += stats.rights_transfers_out;
        units += stats.rights_units_out;
    }
    let es = w.escrow_stats().cloned().unwrap_or_default();
    Cell {
        backend,
        plan,
        completed: sim.metrics.completed,
        failed: sim.metrics.failed,
        buys,
        sold_out,
        goodput_buys_s: buys as f64 / sim.metrics.window_secs(),
        oversell: raw_oversell(&sim, &w),
        p50_ms: buy.as_ref().map_or(0.0, |s| s.p50_ms),
        p99_ms: buy.as_ref().map_or(0.0, |s| s.p99_ms),
        p999_ms: buy.as_ref().map_or(0.0, |s| s.p999_ms),
        rights_transfer_msgs: msgs,
        rights_units_moved: units,
        local_decs: es.local_decs,
        borrows: es.borrows,
        transfers_issued: es.transfers_issued,
    }
}

/// The backends the comparison grid covers (the causal baseline lives
/// on the soak's anomaly axis, not here).
pub fn backends() -> [SaleBackend; 3] {
    [
        SaleBackend::IpaRepair,
        SaleBackend::Escrow,
        SaleBackend::Strong,
    ]
}

pub fn run(quick: bool) -> Report {
    let s = shape(quick);
    let trace = synthesize(&s);
    let mut cells = Vec::new();
    for plan in ["benign", "lossy"] {
        for backend in backends() {
            cells.push(run_cell(backend, plan, &s, &trace));
        }
    }
    Report {
        quick,
        virtual_buyers: s.buyers,
        num_events: s.cfg.num_events,
        hot_capacity: s.cfg.hot_capacity,
        tail_capacity: s.cfg.tail_capacity,
        base_rate: s.base_rate,
        spike_rate: s.spike_rate,
        transfer_bound: s.cfg.num_events as u64 * REGIONS as u64 * TRANSFERS_PER_EVENT_REGION_BOUND,
        cells,
    }
}

pub fn print(report: &Report) {
    println!(
        "Escrow comparison: {} virtual buyers, {} events (hot cap {}, tail cap {}), \
         flash crowd {:.0}→{:.0} ops/s/region.",
        report.virtual_buyers,
        report.num_events,
        report.hot_capacity,
        report.tail_capacity,
        report.base_rate,
        report.spike_rate
    );
    println!(
        "{:>7} {:>7} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>9}",
        "backend",
        "plan",
        "buys",
        "soldout",
        "goodput/s",
        "oversell",
        "p50 [ms]",
        "p99 [ms]",
        "p999 [ms]",
        "xfers",
        "xfer-units"
    );
    for c in &report.cells {
        println!(
            "{:>7} {:>7} {:>8} {:>8} {:>9.1} {:>9} {:>9.1} {:>9.1} {:>9.1} {:>7} {:>9}",
            c.backend.name(),
            c.plan,
            c.buys,
            c.sold_out,
            c.goodput_buys_s,
            c.oversell,
            c.p50_ms,
            c.p99_ms,
            c.p999_ms,
            c.rights_transfer_msgs,
            c.rights_units_moved
        );
    }
    let (e, s) = (
        report.cell(SaleBackend::Escrow, "lossy"),
        report.cell(SaleBackend::Strong, "lossy"),
    );
    println!(
        "lossy-plan goodput: escrow {:.1}/s vs strong {:.1}/s — local rights keep selling \
         while the primary is unreachable (transfer bound {}).",
        e.goodput_buys_s, s.goodput_buys_s, report.transfer_bound
    );
}

/// Render the machine-readable `BENCH_escrow.json` payload.
pub fn to_json(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"figure\": \"escrow\",\n");
    s.push_str(&format!("  \"quick\": {},\n", report.quick));
    s.push_str(&format!(
        "  \"virtual_buyers\": {},\n  \"num_events\": {},\n  \"hot_capacity\": {},\n  \
         \"tail_capacity\": {},\n  \"base_rate\": {},\n  \"spike_rate\": {},\n  \
         \"transfer_bound\": {},\n",
        report.virtual_buyers,
        report.num_events,
        report.hot_capacity,
        report.tail_capacity,
        report.base_rate,
        report.spike_rate,
        report.transfer_bound
    ));
    s.push_str("  \"cells\": [\n");
    for (i, c) in report.cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"backend\": \"{}\", \"plan\": \"{}\", \"completed\": {}, \
             \"failed\": {}, \"buys\": {}, \"sold_out\": {}, \
             \"goodput_buys_s\": {:.2}, \"oversell\": {}, \"p50_ms\": {:.2}, \
             \"p99_ms\": {:.2}, \"p999_ms\": {:.2}, \"rights_transfer_msgs\": {}, \
             \"rights_units_moved\": {}, \"local_decs\": {}, \"borrows\": {}, \
             \"transfers_issued\": {}}}{}\n",
            c.backend.name(),
            c.plan,
            c.completed,
            c.failed,
            c.buys,
            c.sold_out,
            c.goodput_buys_s,
            c.oversell,
            c.p50_ms,
            c.p99_ms,
            c.p999_ms,
            c.rights_transfer_msgs,
            c.rights_units_moved,
            c.local_decs,
            c.borrows,
            c.transfers_issued,
            if i + 1 < report.cells.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Canonical location of the tracked JSON: the repo root.
pub fn json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_escrow.json")
}

/// Run the grid, print the table, and (re)write the tracked JSON.
pub fn regenerate(quick: bool) -> Report {
    let report = run(quick);
    print(&report);
    let path = json_path();
    std::fs::write(&path, to_json(&report)).expect("write BENCH_escrow.json");
    println!("\nwrote {}", path.display());
    report
}

/// The guardrails on a regenerated report. Every one is on a
/// deterministic counter of the seeded simulation (oversell, buy
/// counts, transfer messages) — never on wall-clock time, so none can
/// flake with runner speed; goodput divides buy counts by the
/// *simulated* window, which is equally deterministic.
pub fn check(report: &Report) -> Result<(), String> {
    let cell = |backend: SaleBackend, plan: &str| {
        let cell = report.find(backend, plan);
        cell.ok_or_else(|| format!("missing cell: {backend}/{plan}"))
    };
    for plan in ["benign", "lossy"] {
        for backend in backends() {
            let c = cell(backend, plan)?;
            ensure(c.buys > 0, || {
                format!("{backend}/{plan}: empty measurement window")
            })?;
            // Safety: the coordinated backends must never oversell — not
            // even one ticket, not even under the lossy fault plan.
            ensure(backend == SaleBackend::IpaRepair || c.oversell == 0, || {
                format!("{backend}/{plan} oversold {} tickets", c.oversell)
            })?;
        }
        // Transfer traffic must stay within the fixed ceiling, or
        // rights are ping-ponging instead of settling; and
        // almost all decrements are local, borrows the rare slow path.
        let esc = cell(SaleBackend::Escrow, plan)?;
        ensure(esc.transfers_issued <= report.transfer_bound, || {
            format!("escrow/{plan}: transfers exceed the bound: {esc:?}")
        })?;
        ensure(esc.local_decs > esc.borrows, || {
            format!("escrow/{plan}: borrows dominate local decrements: {esc:?}")
        })?;
    }
    // The headline claim: under the lossy WAN plan, escrow goodput must
    // strictly beat strong (primary-forwarded) goodput — local rights
    // keep selling while the primary is hard to reach.
    let e = cell(SaleBackend::Escrow, "lossy")?.goodput_buys_s;
    let s = cell(SaleBackend::Strong, "lossy")?.goodput_buys_s;
    ensure(e > s, || {
        format!("escrow lost its edge under loss: {e:.1} vs strong {s:.1} buys/s")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_upholds_the_guardrails() {
        let mut report = run(true);
        assert_eq!(report.cells.len(), 6, "3 backends x 2 plans");
        check(&report).expect("the quick grid is within every guardrail");
        // Strong pays the WAN on every purchase; escrow's median stays
        // on the local fast path.
        let eb = report.cell(SaleBackend::Escrow, "benign");
        let sb = report.cell(SaleBackend::Strong, "benign");
        assert!(
            sb.p50_ms > eb.p50_ms,
            "strong p50 {:.1}ms vs escrow p50 {:.1}ms",
            sb.p50_ms,
            eb.p50_ms
        );

        // A planted violation is refused: one oversold ticket in one
        // coordinated cell.
        let planted = report
            .cells
            .iter_mut()
            .find(|c| c.backend == SaleBackend::Escrow && c.plan == "lossy")
            .unwrap();
        planted.oversell = 1;
        let refused = check(&report).expect_err("an oversold escrow cell must be refused");
        assert!(refused.contains("escrow/lossy oversold 1"), "{refused}");
    }

    #[test]
    fn the_grid_is_deterministic() {
        let a = run(true);
        let b = run(true);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.buys, y.buys);
            assert_eq!(x.oversell, y.oversell);
            assert_eq!(x.rights_transfer_msgs, y.rights_transfer_msgs);
            assert_eq!(x.transfers_issued, y.transfers_issued);
            assert_eq!(x.p99_ms, y.p99_ms);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = Report {
            quick: true,
            virtual_buyers: 200_000,
            num_events: 6,
            hot_capacity: 60,
            tail_capacity: 600,
            base_rate: 60.0,
            spike_rate: 200.0,
            transfer_bound: 144,
            cells: vec![Cell {
                backend: SaleBackend::Escrow,
                plan: "benign",
                completed: 300,
                failed: 0,
                buys: 250,
                sold_out: 12,
                goodput_buys_s: 166.7,
                oversell: 0,
                p50_ms: 3.1,
                p99_ms: 9.8,
                p999_ms: 14.0,
                rights_transfer_msgs: 9,
                rights_units_moved: 120,
                local_decs: 240,
                borrows: 10,
                transfers_issued: 12,
            }],
        };
        let json = to_json(&report);
        assert!(json.contains("\"figure\": \"escrow\""));
        assert!(json.contains("\"backend\": \"escrow\""));
        assert!(json.contains("\"oversell\": 0"));
        assert!(json.contains("\"transfer_bound\": 144"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
