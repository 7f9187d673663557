//! `analyze_apps`: the static half. `ipa-spec` → `ipa-solver` →
//! `ipa-core` share no code with the runtime workloads, so a solver
//! change must move this workload and nothing else.

use super::{overhead_share, peak_rss_mb, spans_on, timed_setup, Ctx, Outcome};
use crate::layers;
use crate::metrics::{Report, APPS};
use crate::stats::Repeats;
use crate::trace::{Tracer, NO_PARENT};
use ipa_apps::ticket::ticket_spec;
use ipa_apps::tournament::tournament_spec;
use ipa_apps::tpc::tpc_spec;
use ipa_apps::twitter::twitter_spec;
use ipa_core::{AnalysisReport, Analyzer};
use ipa_spec::AppSpec;
use std::time::Instant;

/// The four specifications, in [`APPS`] order.
pub fn specs() -> [AppSpec; 4] {
    [
        tournament_spec(),
        twitter_spec(false),
        ticket_spec(),
        tpc_spec(),
    ]
}

/// What the analysis of each application must keep producing:
/// `(repairs applied, pairs flagged for coordination)`, in [`APPS`]
/// order. A change that moves these changed the analysis, not its speed.
const EXPECTED: [(usize, usize); 4] = [(4, 1), (2, 0), (0, 0), (1, 1)];

fn analyze(spec: &AppSpec) -> AnalysisReport {
    Analyzer::for_spec(spec)
        .analyze(spec)
        .expect("the shipped specs analyse")
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut report = Report::new("analyze_apps");
    // Set-up builds the specs and analyses the three cheap ones once, so
    // solver code and allocator are warm before the first timed round.
    let specs = timed_setup(&mut report, || {
        let specs = specs();
        for spec in &specs[1..] {
            std::hint::black_box(analyze(spec));
        }
        specs
    });
    let t0 = Instant::now();
    let mut tracer = Tracer::new(t0, false);

    let mut rounds: Vec<f64> = Vec::new();
    let mut per_app: [Vec<f64>; 4] = Default::default();
    let mut last: Vec<AnalysisReport> = Vec::new();
    let min_rounds = if ctx.shrink > 1 { 1 } else { 3 };
    while rounds.len() < min_rounds || t0.elapsed().as_secs_f64() < ctx.workload_seconds() {
        let round = rounds.len();
        tracer.set_enabled(spans_on(ctx, round));
        last.clear();
        let began = Instant::now();
        for (app, spec) in specs.iter().enumerate() {
            let t = Instant::now();
            let r = tracer.span(
                "Analyzer::analyze",
                NO_PARENT,
                (round * 4 + app) as u64,
                || analyze(spec),
            );
            per_app[app].push(t.elapsed().as_secs_f64() * 1e3);
            last.push(r);
        }
        rounds.push(began.elapsed().as_secs_f64());
    }

    let n = rounds.len();
    report.e2e("analysis_s", Repeats::of(&rounds), n);
    // Work per second: one op is one application analysed to its
    // fixpoint.
    let rate: Vec<f64> = rounds.iter().map(|s| APPS.len() as f64 / s).collect();
    report.e2e("goodput_ops_s", Repeats::of(&rate), n * APPS.len());
    if ctx.traced {
        overhead_share(&mut report, &rounds, false);
    }
    let mut failed = 0;
    for (app, name) in APPS.iter().enumerate() {
        report.layer(
            &format!("core.analyze_ms.{name}"),
            Repeats::of(&per_app[app]),
            n,
        );
        let r = &last[app];
        let got = (r.applied.len(), r.flagged.len());
        if !r.converged || got != EXPECTED[app] {
            failed += 1;
            report.fail(format!(
                "{name}: converged={} (repairs, flagged)={got:?}, pinned {:?}",
                r.converged, EXPECTED[app]
            ));
        }
    }
    let total = |f: fn(&AnalysisReport) -> usize| last.iter().map(f).sum::<usize>() as u64;
    report.count("core.repairs_applied", total(|r| r.applied.len()));
    report.count("core.flagged_pairs", total(|r| r.flagged.len()));
    report.count("core.iterations", total(|r| r.iterations));

    report.e2e("peak_rss_mb", Repeats::single(peak_rss_mb()), 1);
    report.finish((n * APPS.len()) as u64, failed);
    if ctx.traced {
        layers::static_half(&mut report, &mut tracer);
    }
    Outcome { report, tracer }
}
