//! The six workloads. Each runs in its own process (so `peak_rss_mb` is
//! per workload), drives its layers only through public functions, checks
//! its outputs, and returns one [`Report`].

pub mod analyze;
pub mod catchup;
pub mod sim;
pub mod threaded;

use crate::metrics::Report;
use crate::stats::{self, Repeats};
use crate::trace::Tracer;
use std::time::Instant;

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// How long the timed section measures.
    pub seconds: f64,
    /// Divisor on fixed work sizes (`--smoke` = 50).
    pub shrink: usize,
    pub traced: bool,
    /// Corrupt the sequential model before the output check, to show
    /// that the check can fail.
    pub plant: bool,
}

impl Ctx {
    /// How long the workload's own timed section runs: a traced run
    /// spends the rest of its seconds on the per-layer probes and the
    /// stepped replay.
    pub fn workload_seconds(&self) -> f64 {
        if self.traced {
            self.seconds * 0.6
        } else {
            self.seconds
        }
    }

    /// A fixed work size, shrunk in smoke mode but never below `floor`.
    pub fn size(&self, full: usize, floor: usize) -> usize {
        (full / self.shrink).max(floor)
    }
}

/// In a traced run spans are recorded on odd repeats only: the even ones
/// are the untraced baseline `trace.overhead_share` is measured against.
pub fn spans_on(ctx: &Ctx, repeat: usize) -> bool {
    ctx.traced && repeat % 2 == 1
}

/// Build the workload's fixture `SETUPS` times, report the quiet quartile
/// of the build times as `setup_s`, and keep the last build: one setup per process
/// reads the same to a tenth only on a quiet machine.
pub fn timed_setup<T>(report: &mut Report, mut build: impl FnMut() -> T) -> T {
    const SETUPS: usize = 5;
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    report.e2e("setup_s", Repeats::of(&times), SETUPS);
    last.expect("SETUPS > 0")
}

/// `trace.overhead_share`: how much worse the headline number read on
/// the repeats that recorded spans than on the ones that did not.
pub fn overhead_share(report: &mut Report, per_repeat: &[f64], higher_is_better: bool) {
    let pick = |odd: bool| -> Vec<f64> {
        per_repeat
            .iter()
            .enumerate()
            .filter(|(i, _)| (i % 2 == 1) == odd)
            .map(|(_, v)| *v)
            .collect()
    };
    let (on, off) = (pick(true), pick(false));
    if on.is_empty() || off.is_empty() {
        return;
    }
    let (on, off) = (stats::median(&on), stats::median(&off));
    let share = if higher_is_better {
        1.0 - on / off
    } else {
        on / off - 1.0
    };
    report.layer(
        "trace.overhead_share",
        Repeats::single(share),
        per_repeat.len(),
    );
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a workload hands back: its report and the spans it recorded.
pub struct Outcome {
    pub report: Report,
    pub tracer: Tracer,
}

pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "steady_mixed" => threaded::steady_mixed(ctx),
        "saturate_small" => threaded::closed_loop(ctx, threaded::Shape::SMALL),
        "hot_large" => threaded::closed_loop(ctx, threaded::Shape::LARGE),
        "catchup_wide" => catchup::run(ctx),
        "sim_apps" => sim::run(ctx),
        "analyze_apps" => analyze::run(ctx),
        _ => return None,
    })
}
