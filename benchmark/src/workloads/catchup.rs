//! `catchup_wide`: crash a node, commit wide batches at the two live
//! ones, then time the restart's pull to convergence. The one workload
//! whose batches are wide enough to reach the shard-worker pool.

use super::threaded::{
    collect_garbage, counters, finish_threaded, run_body, start_bed, Bed, Body, Planned, NODES,
};
use super::{overhead_share, spans_on, timed_setup, Ctx, Outcome};
use crate::gen::SetModel;
use crate::metrics::Report;
use crate::stats::Repeats;
use crate::trace::{Tracer, NO_PARENT};
use crate::{layers, stepped};
use ipa_store::ThreadedConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

const KEYS: usize = 65_536;
/// Elements every key holds throughout.
const WINDOW: usize = 4;
/// Keys one commit slides: an add and a remove each, 1,024 updates.
pub const SLIDES_PER_COMMIT: usize = 512;
/// Wide commits the crashed node misses per cycle.
const COMMITS_PER_CYCLE: usize = 48;
/// Wide commits the stepped replay walks through the stage functions.
const STEPPED_COMMITS: usize = 40;

fn config() -> ThreadedConfig {
    // No ticker: repair happens only inside the timed `quiesce()`.
    ThreadedConfig {
        ae_interval: None,
        ..Default::default()
    }
}

/// `WINDOW` elements in every key, through wide commits: the objects
/// exist everywhere and the shard pools are up before the first timed
/// cycle.
fn populate_plan(model: &mut SetModel) -> Vec<Planned> {
    (0..KEYS as u32)
        .collect::<Vec<_>>()
        .chunks(SLIDES_PER_COMMIT)
        .enumerate()
        .map(|(i, chunk)| Planned {
            at_ns: 0,
            region: i as u16 % NODES,
            body: Body::Wide(
                chunk
                    .iter()
                    .flat_map(|&k| (0..WINDOW).map(move |_| k))
                    .map(|k| (k, model.add(k), None))
                    .collect(),
            ),
        })
        .collect()
}

fn populate(bed: &mut Bed) {
    for p in populate_plan(&mut bed.model) {
        bed.cluster
            .commit_at(p.region, |tx| run_body(tx, &bed.keys, &p.body))
            .expect("populate commit");
    }
    bed.cluster.barrier();
}

/// The wide commits of one cycle, alternating between the live nodes:
/// each slides `SLIDES_PER_COMMIT` keys (add a fresh element, remove the
/// oldest), so objects keep their size and every cycle does the same
/// work. A key is touched at most once per cycle: the element it removes
/// was replicated everywhere by the previous cycle's catch-up, so the
/// remove finds it at whichever live node commits.
fn cycle_plan(bed: &mut Bed, rng: &mut StdRng, victim: u16, commits: usize) -> Vec<Planned> {
    let live: Vec<u16> = (0..NODES).filter(|&n| n != victim).collect();
    let mut keys: Vec<u32> = (0..KEYS as u32).collect();
    keys.shuffle(rng);
    keys.chunks(SLIDES_PER_COMMIT)
        .take(commits)
        .enumerate()
        .map(|(j, chunk)| Planned {
            at_ns: 0,
            region: live[j % live.len()],
            body: Body::Wide(
                chunk
                    .iter()
                    .map(|&k| (k, bed.model.add(k), Some(bed.model.remove_oldest(k))))
                    .collect(),
            ),
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut report = Report::new("catchup_wide");
    let mut bed = timed_setup(&mut report, || {
        let mut bed = start_bed(config(), KEYS, 0);
        populate(&mut bed);
        bed
    });
    let commits = ctx.size(COMMITS_PER_CYCLE, 4);
    let updates = (commits * SLIDES_PER_COMMIT * 2) as f64;
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let before = counters(&bed.cluster);
    let t0 = Instant::now();
    let mut tracer = Tracer::new(t0, false);

    let (mut catchup_s, mut goodput, mut load_rate, mut caught_rate) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut stepped_plan = Vec::new();
    // One repeat crashes each node once: catch-up time depends on which
    // node was down, so single cycles are not like for like.
    while catchup_s.len() < 3 || t0.elapsed().as_secs_f64() < ctx.workload_seconds() {
        tracer.set_enabled(spans_on(ctx, catchup_s.len()));
        let (mut loaded_s, mut caught_s) = (0.0, 0.0);
        for victim in 0..NODES {
            let plan = cycle_plan(&mut bed, &mut rng, victim, commits);
            let began = Instant::now();
            bed.cluster.crash_node(victim);
            let mut cycle_failed = 0;
            for (j, p) in plan.iter().enumerate() {
                let op = attempted + j as u64;
                let r = tracer.span("commit_at", NO_PARENT, op, || {
                    bed.cluster
                        .commit_at(p.region, |tx| run_body(tx, &bed.keys, &p.body))
                });
                cycle_failed += u64::from(r.is_err());
            }
            tracer.span("barrier", NO_PARENT, attempted, || bed.cluster.barrier());
            loaded_s += began.elapsed().as_secs_f64();
            // The timed part: restart and pull to the fixpoint.
            let restart = Instant::now();
            tracer.span("quiesce", NO_PARENT, attempted, || bed.cluster.quiesce());
            let converged = bed.cluster.is_converged();
            caught_s += restart.elapsed().as_secs_f64();
            if !converged {
                cycle_failed = commits as u64;
            }
            attempted += commits as u64;
            failed += cycle_failed;
            if stepped_plan.is_empty() {
                stepped_plan = plan;
            }
            collect_garbage(&bed.cluster);
        }
        let cycles = f64::from(NODES);
        catchup_s.push(caught_s / cycles);
        load_rate.push(cycles * updates / loaded_s);
        caught_rate.push(cycles * updates / caught_s);
        goodput.push(cycles * updates / (loaded_s + caught_s));
    }

    let cycles = catchup_s.len();
    report.e2e("catchup_s", Repeats::of(&catchup_s), cycles);
    report.e2e("goodput_ops_s", Repeats::of(&goodput), cycles);
    report.layer(
        "threaded.wide_commit_updates_s",
        Repeats::of(&load_rate),
        cycles,
    );
    report.layer(
        "threaded.catchup_updates_s",
        Repeats::of(&caught_rate),
        cycles,
    );
    // What the 5 ms ticker pays on a converged cluster.
    let idle: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let applied = tracer.span("anti_entropy_round", NO_PARENT, attempted, || {
                bed.cluster.anti_entropy_round()
            });
            report.check(applied == 0, "idle anti-entropy round applies nothing");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    report.layer("threaded.ae_round_us", Repeats::of(&idle), idle.len());
    if ctx.traced {
        overhead_share(&mut report, &catchup_s, false);
    }

    finish_threaded(&mut report, ctx, &mut bed, before, &mut tracer, false);
    let missed = (cycles * NODES as usize * commits) as f64;
    let sent = report
        .get("threaded.ae_batches_sent")
        .map_or(0.0, |m| m.value);
    report.check(
        sent >= missed,
        "anti-entropy re-sent at least every batch the crashed node missed",
    );
    let pooled = report.get("pool.batches").map_or(0.0, |m| m.value);
    report.check(pooled > 0.0, "wide batches reach the shard pool");
    report.finish(attempted, failed);

    if ctx.traced {
        layers::wide_batches(&mut report, ctx.seed);
        stepped_plan.truncate(STEPPED_COMMITS);
        let setup = populate_plan(&mut SetModel::new(KEYS));
        stepped::replay(&mut report, &mut tracer, &bed.keys, &setup, &stepped_plan);
    }
    Outcome { report, tracer }
}
