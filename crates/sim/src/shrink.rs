//! Schedule minimization: a deterministic delta-debugger over explicit
//! fault plans.
//!
//! A red nemesis run is reproducible from two integers, but the
//! *probabilistic* [`crate::FaultPlan`] it reproduces materializes
//! hundreds of concrete faults — far too many to reason about. This
//! module makes every failure small:
//!
//! 1. **Record** — re-run the failing `(workload seed, fault seed)` pair
//!    with [`crate::Simulation::record_fault_trace`] enabled. Every fault
//!    the nemesis RNG materializes (per-batch drops/delays/duplicates,
//!    partition windows, crash/restart pairs, anti-entropy send
//!    latencies) is captured as an explicit [`FaultEvent`].
//! 2. **Seal** — replay the trace through
//!    [`crate::Simulation::set_explicit_faults`]: the nemesis RNG is
//!    never drawn, every fault comes from the trace, so the run is a
//!    pure function of `(workload seed, ExplicitPlan)`.
//! 3. **Shrink** — [`shrink_joint`] takes the fault trace together with
//!    the recorded [`OpTrace`] and interleaves a chunked ddmin over op
//!    events with one over fault events (the vendored-proptest discipline
//!    applied to explicit traces instead of a generator tree) to a joint
//!    fixpoint, then halves the surviving faults' numeric fields (delays,
//!    outage windows, downtimes), re-running the sealed simulation after
//!    each candidate and keeping the smallest pair that still fails the
//!    *same* oracle check. The counterexample names the two or three
//!    client operations that matter, not just the faults; with an empty
//!    op trace the same loop is the fault-only shrinker.
//!
//! The minimized plan serializes to a line-oriented text format
//! (`ExplicitPlan::to_string` via [`Display`](std::fmt::Display) /
//! [`ExplicitPlan::from_str`]) that CI
//! uploads as an artifact and `tests/nemesis_soak.rs` replays via
//! `IPA_NEMESIS_REPLAY=<file>`.

use crate::latency::Region;
use crate::trace::OpTrace;
use std::fmt;
use std::str::FromStr;

/// One fault on one staged batch. This is the whole per-batch vocabulary:
/// the nemesis draws it, a plan line spells it, the per-batch table folds
/// it and the shrinker halves its argument.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchFault {
    /// The batch vanishes; nothing else on the same batch applies.
    Drop,
    /// The batch arrives this many ms later than its link latency.
    Delay(f64),
    /// A second clean copy arrives this many ms after the first.
    Duplicate(f64),
    /// The payload is bit-flipped in flight (lamport corrupted, seal not
    /// recomputed) — the receiver quarantines it.
    Flip,
    /// The update vector is truncated to its first `n` updates in flight.
    Truncate(u64),
    /// The sequence number is forged `n` steps stale (and the forgery
    /// resealed — caught structurally, not by checksum).
    Forge(u64),
    /// A *mutated* duplicate arrives this many ms after the clean copy.
    MutDup(f64),
}

impl BatchFault {
    /// The plan-line directive (also the summary label).
    pub fn class(&self) -> &'static str {
        match self {
            BatchFault::Drop => "drop",
            BatchFault::Delay(_) => "delay",
            BatchFault::Duplicate(_) => "dup",
            BatchFault::Flip => "flip",
            BatchFault::Truncate(_) => "trunc",
            BatchFault::Forge(_) => "forge",
            BatchFault::MutDup(_) => "mutdup",
        }
    }
}

/// One concrete, materialized fault. Transport faults are keyed by the
/// batch they hit — `(origin, dest, seq)` — which is stable across
/// replays because the workload RNG stream is independent of the
/// nemesis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// `fault` hits the batch `origin → dest` with origin-sequence `seq`.
    Batch {
        origin: Region,
        dest: Region,
        seq: u64,
        fault: BatchFault,
    },
    /// Link `a ↔ b` is cut at `at_s` and heals `outage_s` later.
    Partition {
        a: Region,
        b: Region,
        at_s: f64,
        outage_s: f64,
    },
    /// Replica `region` crashes at `at_s` (volatile state lost) and
    /// restarts `down_s` later.
    Crash {
        region: Region,
        at_s: f64,
        down_s: f64,
    },
}

impl FaultEvent {
    /// Event-class label (used for summaries and chunk ordering).
    pub fn class(&self) -> &'static str {
        match self {
            FaultEvent::Batch { fault, .. } => fault.class(),
            FaultEvent::Partition { .. } => "cut",
            FaultEvent::Crash { .. } => "crash",
        }
    }

    /// A cut or a crash as `(window, at_s, lasted_s)`; `None` for a
    /// per-batch fault.
    pub fn window(&self) -> Option<(Window, f64, f64)> {
        match *self {
            FaultEvent::Batch { .. } => None,
            FaultEvent::Partition {
                a,
                b,
                at_s,
                outage_s,
            } => Some((Window::Cut(a, b), at_s, outage_s)),
            FaultEvent::Crash {
                region,
                at_s,
                down_s,
            } => Some((Window::Crash(region), at_s, down_s)),
        }
    }
}

/// A cut link or a crashed replica: what a nemesis opens, and closes with
/// the heal or the restart.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Window {
    Cut(Region, Region),
    Crash(Region),
}

impl Window {
    /// The plan event of this window, opened at `at_s` for `lasted_s`.
    pub fn event(self, at_s: f64, lasted_s: f64) -> FaultEvent {
        match self {
            Window::Cut(a, b) => FaultEvent::Partition {
                a,
                b,
                at_s,
                outage_s: lasted_s,
            },
            Window::Crash(region) => FaultEvent::Crash {
                region,
                at_s,
                down_s: lasted_s,
            },
        }
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::Batch {
                origin,
                dest,
                seq,
                fault,
            } => {
                write!(f, "{} {origin}->{dest} {seq}", fault.class())?;
                match fault {
                    BatchFault::Drop | BatchFault::Flip => Ok(()),
                    BatchFault::Delay(ms) | BatchFault::Duplicate(ms) | BatchFault::MutDup(ms) => {
                        write!(f, " {ms}")
                    }
                    BatchFault::Truncate(n) | BatchFault::Forge(n) => write!(f, " {n}"),
                }
            }
            FaultEvent::Partition {
                a,
                b,
                at_s,
                outage_s,
            } => write!(f, "cut {a}-{b} {at_s} {outage_s}"),
            FaultEvent::Crash {
                region,
                at_s,
                down_s,
            } => write!(f, "crash {region} {at_s} {down_s}"),
        }
    }
}

/// A fully explicit nemesis schedule: every fault is an event, nothing
/// is drawn from an RNG. Replaying the same plan under the same workload
/// seed yields the same schedule digest, bit for bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExplicitPlan {
    pub events: Vec<FaultEvent>,
    /// Periodic anti-entropy interval (`None` disables repair — useful
    /// for constructing liveness counterexamples in tests).
    pub anti_entropy_s: Option<f64>,
    /// Recorded anti-entropy send latencies, keyed by
    /// `(round index, src, dst)`. Replay uses the recorded value when
    /// present and the jitter-free base link latency otherwise, so a
    /// full-trace replay reproduces the original arrival times exactly
    /// while shrunk candidates stay deterministic.
    pub ae_latency_ms: Vec<(u64, Region, Region, f64)>,
    /// Per-replica clock skew table `(region, offset_ms)` — plan-level
    /// (not an event: skew is a property of a replica's clock for the
    /// whole run, mirrored from [`crate::FaultPlan::skew_ms`]).
    pub skew_ms: Vec<(Region, f64)>,
}

impl ExplicitPlan {
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events per class, for failure banners.
    pub fn summary(&self) -> String {
        const CLASSES: [&str; 9] = [
            "drop", "delay", "dup", "cut", "crash", "flip", "trunc", "forge", "mutdup",
        ];
        let parts: Vec<String> = CLASSES
            .iter()
            .filter_map(|c| {
                let n = self.events.iter().filter(|e| e.class() == *c).count();
                (n > 0).then(|| format!("{n} {c}"))
            })
            .collect();
        if parts.is_empty() {
            "no faults".to_owned()
        } else {
            format!("{} events: {}", self.events.len(), parts.join(", "))
        }
    }
}

impl fmt::Display for ExplicitPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# ipa-nemesis explicit fault plan v3")?;
        match self.anti_entropy_s {
            Some(s) => writeln!(f, "ae {s}")?,
            None => writeln!(f, "ae off")?,
        }
        for &(region, ms) in &self.skew_ms {
            writeln!(f, "skew {region} {ms}")?;
        }
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        for &(round, src, dst, ms) in &self.ae_latency_ms {
            writeln!(f, "ael {round} {src}->{dst} {ms}")?;
        }
        Ok(())
    }
}

/// A malformed plan line (file + env-var replay paths surface this).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PlanParseError {}

impl FromStr for ExplicitPlan {
    type Err = PlanParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = ExplicitPlan::default();
        for (i, raw) in s.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            parse_line(line, &mut plan).map_err(|message| PlanParseError {
                line: i + 1,
                message,
            })?;
        }
        Ok(plan)
    }
}

/// `a<sep>b` as a region pair; the error names the directive `kind`.
fn link(kind: &str, tok: &str, sep: &str) -> Result<(Region, Region), String> {
    tok.split_once(sep)
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
        .ok_or_else(|| format!("{kind}: bad link {tok:?} (want a{sep}b)"))
}

/// One numeric field of directive `kind`.
fn field<T: FromStr>(kind: &str, what: &str, tok: &str) -> Result<T, String> {
    tok.parse()
        .map_err(|_| format!("{kind}: bad {what} {tok:?}"))
}

/// Parse one non-comment plan line into `plan`.
fn parse_line(line: &str, plan: &mut ExplicitPlan) -> Result<(), String> {
    let mut tok = line.split_whitespace();
    let kind = tok.next().unwrap_or_default();
    let mut next = || tok.next().ok_or_else(|| format!("truncated {kind}"));
    match kind {
        "ae" => {
            let v = next()?;
            plan.anti_entropy_s = match v {
                "off" => None,
                _ => Some(field(kind, "ae interval", v)?),
            };
        }
        "skew" => plan
            .skew_ms
            .push((field(kind, "region", next()?)?, field(kind, "ms", next()?)?)),
        "drop" | "delay" | "dup" | "flip" | "trunc" | "forge" | "mutdup" => {
            let (origin, dest) = link(kind, next()?, "->")?;
            let seq = field(kind, "seq", next()?)?;
            let fault = match kind {
                "drop" => BatchFault::Drop,
                "flip" => BatchFault::Flip,
                "delay" => BatchFault::Delay(field(kind, "ms", next()?)?),
                "dup" => BatchFault::Duplicate(field(kind, "ms", next()?)?),
                "mutdup" => BatchFault::MutDup(field(kind, "ms", next()?)?),
                "trunc" => BatchFault::Truncate(field(kind, "keep", next()?)?),
                _ => BatchFault::Forge(field(kind, "back", next()?)?),
            };
            plan.events.push(FaultEvent::Batch {
                origin,
                dest,
                seq,
                fault,
            });
        }
        "cut" => {
            let (a, b) = link(kind, next()?, "-")?;
            plan.events.push(FaultEvent::Partition {
                a,
                b,
                at_s: field(kind, "time", next()?)?,
                outage_s: field(kind, "outage", next()?)?,
            });
        }
        "crash" => plan.events.push(FaultEvent::Crash {
            region: field(kind, "region", next()?)?,
            at_s: field(kind, "time", next()?)?,
            down_s: field(kind, "down", next()?)?,
        }),
        "ael" => {
            let round = field(kind, "round", next()?)?;
            let (src, dst) = link(kind, next()?, "->")?;
            plan.ae_latency_ms
                .push((round, src, dst, field(kind, "ms", next()?)?));
        }
        other => return Err(format!("unknown directive {other:?}")),
    }
    Ok(())
}

/// What a single sealed run reported: the name of the oracle check that
/// failed and the run's schedule digest.
#[derive(Clone, Debug, PartialEq)]
pub struct RunVerdict {
    pub check: String,
    pub digest: u64,
}

/// Budget for one shrink session: a hard cap on sealed re-runs.
#[derive(Clone, Copy, Debug)]
pub struct ShrinkBudget {
    pub max_runs: usize,
}

impl Default for ShrinkBudget {
    fn default() -> Self {
        // Mirrors the vendored proptest shrink loop's 500-step greedy
        // discipline; each step here is a full sealed simulation.
        ShrinkBudget { max_runs: 500 }
    }
}

/// One chunked-ddmin pass to a fixpoint over `events`: try removing
/// chunks (halving the chunk size down to 1, restarting from the top
/// while whole passes make progress), keeping a removal whenever `fails`
/// still reproduces the target failure on the remainder. Returns the
/// digest of the last kept candidate, if any was kept. `fails` is
/// expected to enforce the run budget (via the shared `runs` counter).
/// Event order inside a trace is semantically irrelevant (transport
/// faults key on batches, windows and crashes on virtual time), so
/// removing any subsequence is a valid candidate.
fn ddmin_events<T: Clone>(
    events: &mut Vec<T>,
    runs: &mut usize,
    max_runs: usize,
    mut fails: impl FnMut(&Vec<T>, &mut usize) -> Option<u64>,
) -> Option<u64> {
    let mut best_digest = None;
    loop {
        let before = events.len();
        let mut chunk = before.div_ceil(2).max(1);
        while chunk >= 1 {
            let mut i = 0;
            while i < events.len() && *runs < max_runs {
                let mut candidate = events.clone();
                let end = (i + chunk).min(candidate.len());
                candidate.drain(i..end);
                if let Some(digest) = fails(&candidate, runs) {
                    *events = candidate;
                    best_digest = Some(digest);
                    // Re-test the same position: the next chunk slid in.
                } else {
                    i += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        if events.len() == before || *runs >= max_runs {
            break;
        }
        // Removing events can unlock further removals (a delay only
        // mattered because a later drop depended on its reordering);
        // iterate to a fixpoint like the proptest loop does.
    }
    best_digest
}

/// Per-event field shrinking: halve the surviving events' magnitudes
/// toward zero while the failure persists (integer-style halving on
/// floats, cut off once the step stops being meaningful).
fn shrink_fault_fields(
    best: &mut ExplicitPlan,
    best_digest: &mut u64,
    runs: &mut usize,
    max_runs: usize,
    try_candidate: &mut impl FnMut(&ExplicitPlan, &mut usize) -> Option<u64>,
) {
    let mut changed = true;
    while changed && *runs < max_runs {
        changed = false;
        for i in 0..best.events.len() {
            loop {
                let mut candidate = best.clone();
                let shrunk = match &mut candidate.events[i] {
                    FaultEvent::Batch { fault, .. } => match fault {
                        BatchFault::Delay(ms)
                        | BatchFault::Duplicate(ms)
                        | BatchFault::MutDup(ms) => halve(ms, 1.0),
                        BatchFault::Truncate(keep) => halve_u64(keep, 0),
                        BatchFault::Forge(back) => halve_u64(back, 1),
                        BatchFault::Drop | BatchFault::Flip => false,
                    },
                    FaultEvent::Partition { outage_s, .. } => halve(outage_s, 0.01),
                    FaultEvent::Crash { down_s, .. } => halve(down_s, 0.01),
                };
                if !shrunk || *runs >= max_runs {
                    break;
                }
                if let Some(digest) = try_candidate(&candidate, runs) {
                    *best = candidate;
                    *best_digest = digest;
                    changed = true;
                } else {
                    break;
                }
            }
        }
    }
}

/// The result of a joint shrink: the minimal `(fault plan, op trace)`
/// pair found, the check it still fails, and the digest of its sealed
/// replay.
#[derive(Clone, Debug)]
pub struct JointOutcome {
    pub faults: ExplicitPlan,
    pub ops: OpTrace,
    /// The oracle check every kept candidate failed (identical to the
    /// original failure's).
    pub check: String,
    /// Schedule digest of the minimized pair's sealed replay.
    pub digest: u64,
    /// Sealed simulations executed (the shrink budget spent).
    pub runs: usize,
    pub original_fault_events: usize,
    pub original_op_events: usize,
}

impl JointOutcome {
    pub fn fault_events(&self) -> usize {
        self.faults.events.len()
    }

    pub fn op_events(&self) -> usize {
        self.ops.events.len()
    }
}

/// Jointly delta-debug a fault plan *and* the op trace that triggered it
/// against the caller's sealed runner: a chunked ddmin over op events
/// interleaved with one over fault events, iterated to a joint fixpoint,
/// then the fault field shrinks and latency-table drops. Only candidates
/// failing the *same* oracle check as the initial pair are kept, so the
/// minimized artifact reproduces the original violation, not a different
/// one.
///
/// Op events go first in every round: each removed op makes all later
/// sealed runs cheaper, and removing ops frequently unlocks fault
/// removals (a drop keyed to a batch the shrunk trace no longer commits
/// can finally go) and vice versa — hence the interleaving.
///
/// Returns `None` when the initial pair does not fail at all. Fully
/// deterministic: same inputs + deterministic runner ⇒ same outcome.
pub fn shrink_joint(
    initial_faults: &ExplicitPlan,
    initial_ops: &OpTrace,
    budget: ShrinkBudget,
    run: impl FnMut(&ExplicitPlan, &OpTrace) -> Option<RunVerdict>,
) -> Option<JointOutcome> {
    shrink_joint_with(initial_faults, initial_ops, budget, |_| Vec::new(), run)
}

/// [`shrink_joint`] plus a *field-level weakening lattice* over op
/// events: `weaken(op)` returns strictly weaker replacement ops (fewer
/// or smaller writes — e.g. tournament's `match p q t` weakens to
/// `enroll p t`, any write weakens to its read-only counterpart), tried
/// in order whenever whole-event removal has hit its fixpoint. A kept
/// weakening often unlocks further event removals (the batch a fault was
/// keyed to no longer exists), so weakening is interleaved with the
/// ddmin rounds until the pair is jointly stable.
///
/// The lattice lives with the caller because the op grammar is
/// app-specific; the shrinker only requires that replacements parse as
/// valid trace lines and are *weaker* (so the minimized counterexample
/// never gains behavior the original schedule lacked).
pub fn shrink_joint_with(
    initial_faults: &ExplicitPlan,
    initial_ops: &OpTrace,
    budget: ShrinkBudget,
    weaken: impl Fn(&str) -> Vec<String>,
    mut run: impl FnMut(&ExplicitPlan, &OpTrace) -> Option<RunVerdict>,
) -> Option<JointOutcome> {
    let mut runs = 1usize;
    let base = run(initial_faults, initial_ops)?;
    let target = base.check.clone();
    let mut best_f = initial_faults.clone();
    let mut best_o = initial_ops.clone();
    let mut best_digest = base.digest;

    let mut try_candidate = |f: &ExplicitPlan, o: &OpTrace, runs: &mut usize| -> Option<u64> {
        if *runs >= budget.max_runs {
            return None;
        }
        *runs += 1;
        match run(f, o) {
            Some(v) if v.check == target => Some(v.digest),
            _ => None,
        }
    };

    // Interleaved event minimization to a joint fixpoint.
    loop {
        let shape = (best_f.events.len(), best_o.events.len());

        {
            let mut op_events = std::mem::take(&mut best_o.events);
            let sends = best_o.sends.clone();
            if let Some(digest) = ddmin_events(
                &mut op_events,
                &mut runs,
                budget.max_runs,
                |candidate, runs| {
                    let ops = OpTrace {
                        events: candidate.clone(),
                        sends: sends.clone(),
                    };
                    try_candidate(&best_f, &ops, runs)
                },
            ) {
                best_digest = digest;
            }
            best_o.events = op_events;
        }

        {
            let mut fault_events = std::mem::take(&mut best_f.events);
            let (ae, latencies) = (best_f.anti_entropy_s, best_f.ae_latency_ms.clone());
            let skew = best_f.skew_ms.clone();
            if let Some(digest) = ddmin_events(
                &mut fault_events,
                &mut runs,
                budget.max_runs,
                |candidate, runs| {
                    let plan = ExplicitPlan {
                        events: candidate.clone(),
                        anti_entropy_s: ae,
                        ae_latency_ms: latencies.clone(),
                        skew_ms: skew.clone(),
                    };
                    try_candidate(&plan, &best_o, runs)
                },
            ) {
                best_digest = digest;
            }
            best_f.events = fault_events;
        }

        // Weakening pass: replace surviving ops with lattice-weaker
        // variants while the same check still fails. A weakened op can
        // itself weaken further (`match` → `enroll` → `status`), so each
        // slot descends its chain to a fixpoint.
        let mut weakened = false;
        for i in 0..best_o.events.len() {
            loop {
                let mut descended = false;
                for w in weaken(best_o.events[i].op.as_str()) {
                    if runs >= budget.max_runs {
                        break;
                    }
                    let mut candidate = best_o.clone();
                    candidate.events[i].op = crate::trace::AppOp::new(w);
                    if let Some(digest) = try_candidate(&best_f, &candidate, &mut runs) {
                        best_o = candidate;
                        best_digest = digest;
                        descended = true;
                        weakened = true;
                        break;
                    }
                }
                if !descended {
                    break;
                }
            }
        }

        if ((best_f.events.len(), best_o.events.len()) == shape && !weakened)
            || runs >= budget.max_runs
        {
            break;
        }
    }

    // Fault field shrinks (delays, outages, downtimes), judged against
    // the current minimal op trace.
    {
        let ops = best_o.clone();
        let mut fails = |f: &ExplicitPlan, runs: &mut usize| try_candidate(f, &ops, runs);
        shrink_fault_fields(
            &mut best_f,
            &mut best_digest,
            &mut runs,
            budget.max_runs,
            &mut fails,
        );
    }

    // Latency-table drops: once events were removed, the recorded tables
    // describe a schedule that no longer exists (AE rounds shift, batch
    // sequences re-pack), so try the jitter-free base latencies. The
    // full-trace case keeps both tables — they are the seal.
    if best_f.events.len() < initial_faults.events.len() && !best_f.ae_latency_ms.is_empty() {
        let mut candidate = best_f.clone();
        candidate.ae_latency_ms.clear();
        if let Some(digest) = try_candidate(&candidate, &best_o, &mut runs) {
            best_f = candidate;
            best_digest = digest;
        }
    }
    if best_o.events.len() < initial_ops.events.len() && !best_o.sends.is_empty() {
        let mut candidate = best_o.clone();
        candidate.sends.clear();
        if let Some(digest) = try_candidate(&best_f, &candidate, &mut runs) {
            best_o = candidate;
            best_digest = digest;
        }
    }

    Some(JointOutcome {
        faults: best_f,
        ops: best_o,
        check: target,
        digest: best_digest,
        runs,
        original_fault_events: initial_faults.events.len(),
        original_op_events: initial_ops.events.len(),
    })
}

/// Halve toward zero; `false` once the value is at or below the floor
/// (no meaningful shrink left).
fn halve(v: &mut f64, floor: f64) -> bool {
    if *v <= floor {
        return false;
    }
    *v /= 2.0;
    if *v < floor {
        *v = floor;
    }
    true
}

/// Integer halving toward `floor` (truncation keep-counts, forgery
/// distances).
fn halve_u64(v: &mut u64, floor: u64) -> bool {
    if *v <= floor {
        return false;
    }
    *v /= 2;
    if *v < floor {
        *v = floor;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> ExplicitPlan {
        ExplicitPlan {
            events: vec![
                FaultEvent::Batch {
                    origin: 0,
                    dest: 2,
                    seq: 17,
                    fault: BatchFault::Drop,
                },
                FaultEvent::Batch {
                    origin: 1,
                    dest: 0,
                    seq: 23,
                    fault: BatchFault::Delay(35.25),
                },
                FaultEvent::Batch {
                    origin: 0,
                    dest: 1,
                    seq: 9,
                    fault: BatchFault::Duplicate(40.0),
                },
                FaultEvent::Partition {
                    a: 0,
                    b: 2,
                    at_s: 1.0,
                    outage_s: 0.3,
                },
                FaultEvent::Crash {
                    region: 1,
                    at_s: 0.9,
                    down_s: 0.8,
                },
                FaultEvent::Batch {
                    origin: 2,
                    dest: 0,
                    seq: 4,
                    fault: BatchFault::Flip,
                },
                FaultEvent::Batch {
                    origin: 1,
                    dest: 2,
                    seq: 6,
                    fault: BatchFault::Truncate(3),
                },
                FaultEvent::Batch {
                    origin: 0,
                    dest: 1,
                    seq: 11,
                    fault: BatchFault::Forge(4),
                },
                FaultEvent::Batch {
                    origin: 2,
                    dest: 1,
                    seq: 8,
                    fault: BatchFault::MutDup(25.5),
                },
            ],
            anti_entropy_s: Some(0.25),
            ae_latency_ms: vec![(3, 0, 2, 40.125)],
            skew_ms: vec![(1, 15.0), (2, -10.0)],
        }
    }

    #[test]
    fn plan_text_roundtrips_exactly() {
        let plan = sample_plan();
        let text = plan.to_string();
        let back: ExplicitPlan = text.parse().expect("parse");
        assert_eq!(back, plan, "text:\n{text}");
        // Idempotent: rendering the parsed plan is byte-identical.
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn ae_off_and_comments_parse() {
        let text = "# comment\n\nae off\ndrop 1->0 4\n";
        let plan: ExplicitPlan = text.parse().expect("parse");
        assert_eq!(plan.anti_entropy_s, None);
        assert_eq!(plan.events.len(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = "ae 0.25\nwarp 9".parse::<ExplicitPlan>().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("warp"), "{err}");
        let err = "drop 0->x 4".parse::<ExplicitPlan>().unwrap_err();
        assert_eq!(err.line, 1);
        // A missing or malformed argument names its directive.
        for (text, line, directive) in [
            ("ae 0.25\ndelay 0->1 4", 2, "delay"),
            ("# c\n\ntrunc 0->1 4 x", 3, "trunc"),
        ] {
            let err = text.parse::<ExplicitPlan>().unwrap_err();
            assert_eq!(err.line, line, "{err}");
            assert!(err.message.contains(directive), "{err}");
        }
    }

    #[test]
    fn summary_counts_classes() {
        assert_eq!(
            sample_plan().summary(),
            "9 events: 1 drop, 1 delay, 1 dup, 1 cut, 1 crash, 1 flip, 1 trunc, 1 forge, 1 mutdup"
        );
        assert_eq!(ExplicitPlan::default().summary(), "no faults");
    }

    #[test]
    fn corruption_field_shrinking_halves_keep_and_back() {
        // Oracle: fails while a trunc keeps ≥ 1 update and the forge
        // reaches ≥ 2 back — both fields must shrink to their smallest
        // failing values (keep 1, back 2).
        let plan = ExplicitPlan {
            events: vec![
                FaultEvent::Batch {
                    origin: 0,
                    dest: 1,
                    seq: 3,
                    fault: BatchFault::Truncate(16),
                },
                FaultEvent::Batch {
                    origin: 1,
                    dest: 2,
                    seq: 9,
                    fault: BatchFault::Forge(8),
                },
            ],
            ..Default::default()
        };
        let out = shrink_joint(&plan, &OpTrace::default(), ShrinkBudget::default(), |p, _| {
            let t = p
                .events
                .iter()
                .any(|e| matches!(e, FaultEvent::Batch { fault: BatchFault::Truncate(keep), .. } if *keep >= 1));
            let g = p
                .events
                .iter()
                .any(|e| matches!(e, FaultEvent::Batch { fault: BatchFault::Forge(back), .. } if *back >= 2));
            (t && g).then(|| RunVerdict {
                check: "corrupt".into(),
                digest: 1,
            })
        })
        .expect("fails");
        let FaultEvent::Batch {
            fault: BatchFault::Truncate(keep),
            ..
        } = out.faults.events[0]
        else {
            panic!("trunc survived: {}", out.faults);
        };
        let FaultEvent::Batch {
            fault: BatchFault::Forge(back),
            ..
        } = out.faults.events[1]
        else {
            panic!("forge survived: {}", out.faults);
        };
        assert_eq!(keep, 1, "16 → 8 → 4 → 2 → 1, then stuck");
        assert_eq!(back, 2, "8 → 4 → 2, then stuck");
    }

    /// A synthetic "oracle": fails iff the plan still contains the
    /// culprit drop; digest = number of events (detectably changing).
    fn culprit_runner(plan: &ExplicitPlan, _: &OpTrace) -> Option<RunVerdict> {
        let has_culprit = plan.events.iter().any(|e| {
            matches!(
                e,
                FaultEvent::Batch {
                    origin: 0,
                    dest: 2,
                    seq: 17,
                    fault: BatchFault::Drop
                }
            )
        });
        has_culprit.then(|| RunVerdict {
            check: "culprit".into(),
            digest: plan.events.len() as u64,
        })
    }

    #[test]
    fn ddmin_isolates_a_single_culprit() {
        let mut plan = ExplicitPlan {
            anti_entropy_s: Some(0.25),
            ..Default::default()
        };
        for seq in 0..60 {
            plan.events.push(FaultEvent::Batch {
                origin: (seq % 3) as Region,
                dest: ((seq + 1) % 3) as Region,
                seq,
                fault: BatchFault::Delay(20.0),
            });
        }
        plan.events.insert(
            37,
            FaultEvent::Batch {
                origin: 0,
                dest: 2,
                seq: 17,
                fault: BatchFault::Drop,
            },
        );
        let out = shrink_joint(
            &plan,
            &OpTrace::default(),
            ShrinkBudget::default(),
            culprit_runner,
        )
        .expect("fails");
        assert_eq!(out.faults.events.len(), 1, "{}", out.faults);
        assert_eq!(
            out.faults.events[0],
            FaultEvent::Batch {
                origin: 0,
                dest: 2,
                seq: 17,
                fault: BatchFault::Drop
            }
        );
        assert_eq!(out.check, "culprit");
        assert_eq!(out.original_fault_events, 61);
        assert!(
            out.runs <= 60,
            "ddmin is logarithmic-ish: {} runs",
            out.runs
        );
    }

    #[test]
    fn shrink_refuses_a_passing_plan() {
        let plan = sample_plan();
        assert!(shrink_joint(
            &plan,
            &OpTrace::default(),
            ShrinkBudget::default(),
            |_, _| None
        )
        .is_none());
    }

    #[test]
    fn field_shrinking_halves_magnitudes_while_failing() {
        // Oracle: fails while the delay is ≥ 4 ms; the culprit event must
        // survive with its delay halved down to the smallest failing step.
        let plan = ExplicitPlan {
            events: vec![FaultEvent::Batch {
                origin: 0,
                dest: 1,
                seq: 5,
                fault: BatchFault::Delay(64.0),
            }],
            ..Default::default()
        };
        let out = shrink_joint(&plan, &OpTrace::default(), ShrinkBudget::default(), |p, _| {
            let failing = p
                .events
                .iter()
                .any(|e| matches!(e, FaultEvent::Batch { fault: BatchFault::Delay(extra_ms), .. } if *extra_ms >= 4.0));
            failing.then(|| RunVerdict {
                check: "delay".into(),
                digest: 1,
            })
        })
        .expect("fails");
        let FaultEvent::Batch {
            fault: BatchFault::Delay(extra_ms),
            ..
        } = out.faults.events[0]
        else {
            panic!("delay survived: {}", out.faults);
        };
        assert_eq!(extra_ms, 4.0, "halved 64 → 32 → 16 → 8 → 4, then stuck");
    }

    #[test]
    fn shrink_is_deterministic() {
        let mut plan = ExplicitPlan::default();
        for seq in 0..40 {
            plan.events.push(if seq % 7 == 3 {
                FaultEvent::Batch {
                    origin: 0,
                    dest: 2,
                    seq: 17,
                    fault: BatchFault::Drop,
                }
            } else {
                FaultEvent::Batch {
                    origin: (seq % 3) as Region,
                    dest: ((seq + 2) % 3) as Region,
                    seq,
                    fault: BatchFault::Duplicate(40.0),
                }
            });
        }
        let a = shrink_joint(
            &plan,
            &OpTrace::default(),
            ShrinkBudget::default(),
            culprit_runner,
        )
        .unwrap();
        let b = shrink_joint(
            &plan,
            &OpTrace::default(),
            ShrinkBudget::default(),
            culprit_runner,
        )
        .unwrap();
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.digest, b.digest);
    }

    /// A synthetic joint oracle: fails iff the culprit drop AND the
    /// culprit op are both present (the shape of a real red cell — the
    /// violating schedule needs the op that commits the batch and the
    /// fault that loses it).
    fn joint_culprit_runner(faults: &ExplicitPlan, ops: &OpTrace) -> Option<RunVerdict> {
        let has_drop = faults.events.iter().any(|e| {
            matches!(
                e,
                FaultEvent::Batch {
                    origin: 0,
                    dest: 2,
                    seq: 17,
                    fault: BatchFault::Drop
                }
            )
        });
        let has_op = ops
            .events
            .iter()
            .any(|e| e.op.as_str() == "enroll p9 t17" && e.client == 4);
        (has_drop && has_op).then(|| RunVerdict {
            check: "joint-culprit".into(),
            digest: (faults.events.len() * 1000 + ops.events.len()) as u64,
        })
    }

    fn noisy_joint_inputs() -> (ExplicitPlan, OpTrace) {
        let mut faults = ExplicitPlan {
            anti_entropy_s: Some(0.25),
            ae_latency_ms: vec![(1, 0, 1, 40.5), (2, 1, 2, 39.25)],
            ..Default::default()
        };
        for seq in 0..50u64 {
            faults.events.push(if seq == 33 {
                FaultEvent::Batch {
                    origin: 0,
                    dest: 2,
                    seq: 17,
                    fault: BatchFault::Drop,
                }
            } else {
                FaultEvent::Batch {
                    origin: (seq % 3) as Region,
                    dest: ((seq + 1) % 3) as Region,
                    seq,
                    fault: BatchFault::Delay(25.0),
                }
            });
        }
        let mut ops = OpTrace::default();
        for i in 0..200u64 {
            ops.events.push(crate::trace::OpEvent {
                client: (i % 6) as usize,
                at_us: 1_000 + i * 97,
                op: crate::trace::AppOp::new(if i == 117 {
                    "enroll p9 t17".to_owned()
                } else {
                    format!("status t{}", i % 12)
                }),
            });
            if i == 117 {
                // Fix the culprit's client so the oracle can key on it.
                ops.events.last_mut().unwrap().client = 4;
            }
        }
        ops.sends = (0..60)
            .map(|i| crate::trace::SendRec {
                client: i % 6,
                at_us: 1_000 + i * 97,
                ordinal: 0,
                delay_us: 40_000 + i,
            })
            .collect();
        (faults, ops)
    }

    #[test]
    fn joint_shrink_isolates_the_op_and_fault_culprits() {
        let (faults, ops) = noisy_joint_inputs();
        let out = shrink_joint(&faults, &ops, ShrinkBudget::default(), joint_culprit_runner)
            .expect("the full pair fails");
        assert_eq!(out.check, "joint-culprit");
        assert_eq!(out.faults.events.len(), 1, "{}", out.faults);
        assert_eq!(out.ops.events.len(), 1, "{}", out.ops);
        assert_eq!(out.ops.events[0].op.as_str(), "enroll p9 t17");
        assert_eq!(out.ops.events[0].client, 4);
        assert_eq!(out.original_fault_events, 50);
        assert_eq!(out.original_op_events, 200);
        // Both recorded latency tables went with the removed events.
        assert!(out.faults.ae_latency_ms.is_empty());
        assert!(out.ops.sends.is_empty());
        assert!(
            out.ops.events.len() * 10 <= out.original_op_events,
            "≤10% of op events survive"
        );
    }

    #[test]
    fn joint_shrink_is_deterministic_and_budgeted() {
        let (faults, ops) = noisy_joint_inputs();
        let shrink = |budget| {
            let out = shrink_joint(&faults, &ops, budget, joint_culprit_runner).unwrap();
            (
                out.faults.to_string(),
                out.ops.to_string(),
                out.digest,
                out.runs,
            )
        };
        let a = shrink(ShrinkBudget::default());
        let b = shrink(ShrinkBudget::default());
        assert_eq!(a, b, "same inputs ⇒ same minimized pair, digest, cost");
        let capped = shrink_joint(
            &faults,
            &ops,
            ShrinkBudget { max_runs: 10 },
            joint_culprit_runner,
        )
        .unwrap();
        assert!(capped.runs <= 10);
    }

    #[test]
    fn weakening_lattice_descends_ops_to_their_weakest_failing_form() {
        // Synthetic oracle: the violation needs p9 *enrolled* in t17 —
        // `match p9 q1 t17` is sufficient but stronger than necessary,
        // `status t17` is too weak. The lattice mirrors the tournament
        // app's: match → enroll (per entity) → status.
        let weaken = |op: &str| -> Vec<String> {
            match op.split_whitespace().collect::<Vec<_>>().as_slice() {
                ["match", p, q, t] => vec![format!("enroll {p} {t}"), format!("enroll {q} {t}")],
                ["enroll", _, t] => vec![format!("status {t}")],
                _ => Vec::new(),
            }
        };
        let fails = |_: &ExplicitPlan, ops: &OpTrace| -> Option<RunVerdict> {
            ops.events
                .iter()
                .any(|e| matches!(e.op.as_str(), "match p9 q1 t17" | "enroll p9 t17"))
                .then(|| RunVerdict {
                    check: "needs-p9".into(),
                    digest: ops.events.len() as u64,
                })
        };
        let mut ops = OpTrace::default();
        for i in 0..24u64 {
            ops.events.push(crate::trace::OpEvent {
                client: (i % 6) as usize,
                at_us: 1_000 + i * 97,
                op: crate::trace::AppOp::new(if i == 13 {
                    "match p9 q1 t17".to_owned()
                } else {
                    format!("status t{}", i % 4)
                }),
            });
        }
        let out = shrink_joint_with(
            &ExplicitPlan::default(),
            &ops,
            ShrinkBudget::default(),
            weaken,
            fails,
        )
        .expect("the full pair fails");
        assert_eq!(out.ops.events.len(), 1, "{}", out.ops);
        assert_eq!(
            out.ops.events[0].op.as_str(),
            "enroll p9 t17",
            "match weakened one rung (enroll q1 and status are too weak)"
        );
        assert_eq!(out.check, "needs-p9");
    }

    #[test]
    fn joint_shrink_refuses_a_passing_pair() {
        let (faults, ops) = noisy_joint_inputs();
        assert!(shrink_joint(&faults, &ops, ShrinkBudget::default(), |_, _| None).is_none());
    }

    #[test]
    fn budget_caps_the_run_count() {
        let mut plan = ExplicitPlan::default();
        for seq in 0..100 {
            plan.events.push(FaultEvent::Batch {
                origin: 0,
                dest: 2,
                seq,
                fault: BatchFault::Drop,
            });
        }
        // Every candidate containing seq 17 fails, so shrinking has many
        // live moves; the budget must still bound total work.
        let budget = ShrinkBudget { max_runs: 10 };
        let out = shrink_joint(&plan, &OpTrace::default(), budget, |p, _| {
            p.events
                .iter()
                .any(|e| {
                    matches!(
                        e,
                        FaultEvent::Batch {
                            seq: 17,
                            fault: BatchFault::Drop,
                            ..
                        }
                    )
                })
                .then(|| RunVerdict {
                    check: "c".into(),
                    digest: p.events.len() as u64,
                })
        })
        .unwrap();
        assert!(out.runs <= 10);
        assert!(out.faults.events.len() < plan.events.len(), "some progress");
    }
}
