//! `sim_apps`: the four applications on the deterministic simulator,
//! IPA mode, under a seeded fault plan. Wall time is what every soak and
//! CI cell pays; virtual-time numbers are exact functions of the seed.

use super::{overhead_share, peak_rss_mb, spans_on, timed_setup, Ctx, Outcome};
use crate::metrics::{Report, APPS};
use crate::stats::Repeats;
use crate::trace::{Tracer, NO_PARENT};
use ipa_apps::ticket::sale::{raw_oversell, SaleBackend, SaleConfig, SaleWorkload};
use ipa_apps::tournament::workload::TournamentConfig;
use ipa_apps::tournament::TournamentWorkload;
use ipa_apps::tpc::TpcWorkload;
use ipa_apps::twitter::runtime::Strategy;
use ipa_apps::twitter::TwitterWorkload;
use ipa_apps::{Mode, Oracle};
use ipa_sim::{paper_topology, FaultPlan, SimConfig, Simulation, Workload};
use std::time::Instant;

const CLIENTS_PER_REGION: usize = 8;
const FAULT_INTENSITY: f64 = 0.3;
const WARMUP_S: f64 = 0.5;
/// Measured virtual seconds per cell, sized so one pass over the four
/// takes about two seconds of wall. Twitter's cell is short because its
/// wall cost per simulated op grows with the timelines.
const VIRTUAL_S: [f64; 4] = [5.0, 0.8, 6.0, 6.0];
/// Passes over the four cells are repeated until the seconds are up, but
/// at least this often: everything virtual must read the same on each.
const MIN_PASSES: usize = 2;

/// One application's workload with the handles its checks need.
enum Cell {
    Tournament(TournamentWorkload),
    Twitter(TwitterWorkload),
    Ticket(SaleWorkload),
    Tpc(TpcWorkload),
}

impl Cell {
    fn new(app: usize) -> Cell {
        match APPS[app] {
            "tournament" => Cell::Tournament(TournamentWorkload::new(
                Mode::Ipa,
                TournamentConfig::default(),
            )),
            "twitter" => Cell::Twitter(TwitterWorkload::with_defaults(Strategy::AddWins)),
            "ticket" => Cell::Ticket(SaleWorkload::new(
                SaleBackend::Escrow,
                SaleConfig {
                    num_events: 8,
                    hot_capacity: 4_000,
                    tail_capacity: 20_000,
                    ..SaleConfig::default()
                },
            )),
            "tpc" => Cell::Tpc(TpcWorkload::with_defaults(Mode::Ipa)),
            other => unreachable!("unknown app {other}"),
        }
    }

    fn workload(&mut self) -> &mut dyn Workload {
        match self {
            Cell::Tournament(w) => w,
            Cell::Twitter(w) => w,
            Cell::Ticket(w) => w,
            Cell::Tpc(w) => w,
        }
    }

    fn oracle(&self) -> Oracle {
        match self {
            Cell::Tournament(_) => Oracle::tournament(),
            Cell::Twitter(_) => Oracle::twitter(),
            Cell::Ticket(w) => Oracle::ticket_escrow(w.event_capacities()),
            Cell::Tpc(w) => Oracle::tpc(w.products().to_vec()),
        }
    }

    /// The app's read-side compensations, run to a fixpoint (§3.4):
    /// every replica reads every entity, twice, replicating in between.
    /// Add-wins Twitter and the escrow sale have nothing compensable.
    fn final_repair(&self, sim: &mut Simulation) {
        match self {
            Cell::Tournament(w) => w.final_repair(sim),
            Cell::Tpc(w) => {
                for _round in 0..2 {
                    for region in 0..sim.regions() as u16 {
                        let mut tx = sim.replica_mut(region).begin();
                        for p in w.products() {
                            w.app.view(&mut tx, p).expect("view sweep");
                        }
                        tx.commit();
                    }
                    sim.sync_all();
                }
            }
            Cell::Twitter(_) | Cell::Ticket(_) => {}
        }
    }
}

/// What one cell run produced.
#[derive(Clone, Debug, Default, PartialEq)]
struct CellRun {
    // Exact functions of the seed.
    completed: u64,
    failed: u64,
    p50_ms: f64,
    p99_ms: f64,
    digest: u64,
    violations: u64,
    oversell: u64,
    dropped: u64,
    duplicated: u64,
    ae_batches: u64,
    coord: Option<Coord>,
    // Wall clock.
    wall_s: f64,
    quiesce_s: f64,
    repair_ms: f64,
}

#[derive(Clone, Debug, Default, PartialEq)]
struct Coord {
    local_decs: u64,
    borrows: u64,
    transfers_issued: u64,
    rejected_exhausted: u64,
    rejected_unreachable: u64,
    units_moved: u64,
    buy_p99_ms: f64,
}

impl CellRun {
    /// The deterministic part, for the across-passes identity check.
    fn virtual_part(&self) -> CellRun {
        CellRun {
            wall_s: 0.0,
            quiesce_s: 0.0,
            repair_ms: 0.0,
            ..self.clone()
        }
    }
}

fn run_cell(
    report: &mut Report,
    tracer: &mut Tracer,
    app: usize,
    seed: u64,
    virtual_s: f64,
) -> CellRun {
    let mut cell = Cell::new(app);
    let cfg = SimConfig {
        clients_per_region: CLIENTS_PER_REGION,
        warmup_s: WARMUP_S,
        duration_s: virtual_s,
        seed,
        faults: FaultPlan::with_intensity(seed, FAULT_INTENSITY),
        ..Default::default()
    };
    let mut sim = Simulation::new(paper_topology(), cfg);
    sim.set_auditor(0.25, cell.oracle().into_continuous_auditor());
    let op = app as u64;

    let began = Instant::now();
    tracer.span("Simulation::run", NO_PARENT, op, || {
        sim.run(cell.workload())
    });
    let ran = began.elapsed();
    tracer.span("Simulation::quiesce", NO_PARENT, op, || sim.quiesce());
    let quiesced = began.elapsed();
    cell.final_repair(&mut sim);
    let repaired = began.elapsed();

    // Output checks: invariants (continuous during the run, everything
    // after repair), idempotent delivery, convergence, no oversell.
    let name = APPS[app];
    let oracle = cell.oracle();
    let final_violations: u64 = (0..sim.regions() as u16)
        .map(|r| oracle.final_violations(sim.replica(r)))
        .sum();
    let violations = sim.metrics.violations + sim.metrics.audit_violations + final_violations;
    report.check(violations == 0, &format!("{name}: no invariant violation"));
    report.check(
        sim.double_apply_violations().is_empty(),
        &format!("{name}: no batch applied twice"),
    );
    let converged =
        (1..sim.regions() as u16).all(|r| sim.replica(r).clock() == sim.replica(0).clock());
    report.check(converged, &format!("{name}: replicas converged"));
    let (oversell, coord) = match &cell {
        Cell::Ticket(w) => {
            let s = w.escrow_stats().expect("escrow backend keeps stats");
            let units: u64 = (0..sim.regions() as u16)
                .map(|r| sim.replica(r).stats.rights_units_out)
                .sum();
            let buy_p99 = sim.metrics.summary("Buy").map_or(0.0, |s| s.p99_ms);
            (
                raw_oversell(&sim, w),
                Some(Coord {
                    local_decs: s.local_decs,
                    borrows: s.borrows,
                    transfers_issued: s.transfers_issued,
                    rejected_exhausted: s.rejected_exhausted,
                    rejected_unreachable: s.rejected_unreachable,
                    units_moved: units,
                    buy_p99_ms: buy_p99,
                }),
            )
        }
        _ => (0, None),
    };
    report.check(oversell == 0, &format!("{name}: no oversell"));

    let overall = sim
        .metrics
        .overall()
        .expect("the cell completed operations");
    CellRun {
        completed: sim.metrics.completed,
        failed: sim.metrics.failed,
        p50_ms: overall.p50_ms,
        p99_ms: overall.p99_ms,
        digest: sim.schedule_digest(),
        violations,
        oversell,
        dropped: sim.nemesis.batches_dropped,
        duplicated: sim.nemesis.batches_duplicated,
        ae_batches: sim.nemesis.anti_entropy_batches,
        coord,
        wall_s: ran.as_secs_f64(),
        quiesce_s: (quiesced - ran).as_secs_f64(),
        repair_ms: (repaired - quiesced).as_secs_f64() * 1e3,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut report = Report::new("sim_apps");
    let t0 = Instant::now();
    let mut tracer = Tracer::new(t0, false);
    // Smoke runs shrink the cells; full-size runs repeat them.
    let scale = 1.0 / ctx.shrink as f64;
    // Set-up is one short pass: code, allocator and the apps' seed data
    // are warm before the timed passes.
    timed_setup(&mut report, || {
        let mut scratch = Report::new("sim_apps");
        let mut off = Tracer::new(t0, false);
        for app in 0..APPS.len() {
            run_cell(&mut scratch, &mut off, app, ctx.seed, 0.25);
        }
    });

    let mut passes: Vec<Vec<CellRun>> = Vec::new();
    let began = Instant::now();
    while passes.len() < MIN_PASSES || began.elapsed().as_secs_f64() < ctx.workload_seconds() {
        tracer.set_enabled(spans_on(ctx, passes.len()));
        passes.push(
            (0..APPS.len())
                .map(|app| {
                    run_cell(
                        &mut report,
                        &mut tracer,
                        app,
                        ctx.seed,
                        VIRTUAL_S[app] * scale,
                    )
                })
                .collect(),
        );
    }
    let first = &passes[0];
    for later in &passes[1..] {
        let same = first
            .iter()
            .zip(later)
            .all(|(a, b)| a.virtual_part() == b.virtual_part());
        report.check(same, "virtual metrics and schedule digests repeat exactly");
    }

    let completed: u64 = first.iter().map(|c| c.completed).sum();
    let failed: u64 = first.iter().map(|c| c.failed).sum();
    let virtual_s: f64 = VIRTUAL_S.iter().sum::<f64>() * scale;
    let weighted = |f: fn(&CellRun) -> f64| {
        first.iter().map(|c| f(c) * c.completed as f64).sum::<f64>() / completed as f64
    };
    let n = completed as usize;
    report.e2e("virtual_p50_ms", Repeats::single(weighted(|c| c.p50_ms)), n);
    report.e2e("virtual_p99_ms", Repeats::single(weighted(|c| c.p99_ms)), n);
    report.e2e(
        "virtual_goodput_ops_s",
        Repeats::single(completed as f64 / virtual_s),
        n,
    );
    let over_passes = |f: &dyn Fn(&[CellRun]) -> f64| -> Repeats {
        Repeats::of(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let cell_wall = |c: &CellRun| c.wall_s + c.quiesce_s + c.repair_ms / 1e3;
    let wall: f64 = (0..APPS.len())
        .map(|app| over_passes(&|p| cell_wall(&p[app])).quiet(true))
        .sum();
    report.e2e(
        "goodput_ops_s",
        Repeats::single(completed as f64 / wall),
        n * passes.len(),
    );
    if ctx.traced {
        let per_pass: Vec<f64> = passes
            .iter()
            .map(|p| completed as f64 / p.iter().map(cell_wall).sum::<f64>())
            .collect();
        overhead_share(&mut report, &per_pass, true);
    }

    for (app, name) in APPS.iter().enumerate() {
        let c = &first[app];
        report.layer(
            &format!("sim.wall_s.{name}"),
            over_passes(&|p| p[app].wall_s),
            passes.len(),
        );
        report.layer(
            &format!("sim.ops_per_wall_s.{name}"),
            over_passes(&|p| p[app].completed as f64 / p[app].wall_s),
            c.completed as usize,
        );
        // A JSON number holds 53 bits: the low 32 of the digest identify
        // a schedule well enough for a metric table.
        report.count(
            &format!("sim.schedule_digest.{name}"),
            c.digest & 0xffff_ffff,
        );
        report.layer(
            &format!("apps.virtual_p99_ms.{name}"),
            Repeats::single(c.p99_ms),
            c.completed as usize,
        );
    }
    report.layer(
        "sim.quiesce_wall_s",
        over_passes(&|p| p.iter().map(|c| c.quiesce_s).sum()),
        passes.len(),
    );
    report.layer(
        "apps.final_repair_ms",
        over_passes(&|p| p.iter().map(|c| c.repair_ms).sum()),
        passes.len(),
    );
    let sum = |f: fn(&CellRun) -> u64| first.iter().map(f).sum::<u64>();
    report.count("sim.ae_batches_sent", sum(|c| c.ae_batches));
    report.count("sim.dropped", sum(|c| c.dropped));
    report.count("sim.duplicated", sum(|c| c.duplicated));
    report.count("apps.violations", sum(|c| c.violations));
    report.count("apps.oversell", sum(|c| c.oversell));
    let ticket = &first[APPS
        .iter()
        .position(|a| *a == "ticket")
        .expect("ticket cell")];
    let coord = ticket.coord.as_ref().expect("ticket cell runs escrow");
    report.count("coord.local_decs", coord.local_decs);
    report.count("coord.borrows", coord.borrows);
    report.count("coord.transfers_issued", coord.transfers_issued);
    report.count("coord.rejected_exhausted", coord.rejected_exhausted);
    report.count("coord.rejected_unreachable", coord.rejected_unreachable);
    report.count("coord.units_moved", coord.units_moved);
    report.layer(
        "coord.buy_p99_virtual_ms",
        Repeats::single(coord.buy_p99_ms),
        ticket.completed as usize,
    );
    report.layer(
        "coord.failed_share",
        Repeats::single(ticket.failed as f64 / (ticket.completed + ticket.failed).max(1) as f64),
        (ticket.completed + ticket.failed) as usize,
    );

    report.e2e("peak_rss_mb", Repeats::single(peak_rss_mb()), 1);
    report.finish(completed + failed, failed);
    Outcome { report, tracer }
}
