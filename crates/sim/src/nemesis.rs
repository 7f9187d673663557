//! The nemesis: the one place the simulator decides what goes wrong.
//!
//! The event loop in [`crate::driver`] asks and applies; it never learns
//! where an answer came from. A [`Nemesis`] has one of two sources —
//! `Drawn`, which draws every decision from its own RNG stream under a
//! probabilistic [`FaultPlan`], or `Explicit`, the indexed form of an
//! [`ExplicitPlan`], where every decision is a table lookup and no RNG is
//! ever drawn — and an optional recorder that writes each decision down
//! as a [`FaultEvent`], so a drawn run can be sealed, replayed and shrunk
//! as an explicit one. Recording is pure observation: it draws no RNG and
//! never perturbs the schedule.

use crate::driver::{RANK_DEFAULT, RANK_WINDOW};
use crate::fault::{skew_of, CrashPlan, FaultPlan, FlapPlan};
use crate::latency::{LatencyModel, Region};
use crate::shrink::{BatchFault, ExplicitPlan, FaultEvent, Window};
use ipa_store::UpdateBatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Duration recorded for a cut or crash whose heal or restart never fired
/// inside the run window (effectively "forever" — quiesce restarts
/// everyone).
const OPEN_ENDED_S: f64 = 1.0e6;

/// What the nemesis decided for one staged batch: the fold of every
/// [`BatchFault`] on it. Drawn or looked up here, applied in one place
/// (`Simulation::flush_staged`), so record and replay cannot drift.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Verdict {
    /// The batch vanishes; every other field is then unset.
    pub drop: bool,
    pub delay_ms: Option<f64>,
    /// A second clean copy arrives this long after the first.
    pub dup_delay_ms: Option<f64>,
    /// A bit-flipped shadow copy arrives this long after the main one.
    pub mutdup_delay_ms: Option<f64>,
    /// The main delivery arrives corrupted: a `Flip`, `Truncate` or
    /// `Forge`, applied with [`BatchFault::mangle`].
    pub corrupt: Option<BatchFault>,
}

impl Verdict {
    /// Fold one more fault on the same batch in. The result is a function
    /// of the *set* of faults, never of their order (ddmin reorders plan
    /// lines): a drop shadows everything else, the main delivery's
    /// corruption is the highest of `flip > trunc > forge`, and of two
    /// faults of one class the larger argument wins.
    fn add(&mut self, fault: BatchFault) {
        fn longer(slot: &mut Option<f64>, ms: f64) {
            *slot = Some(slot.map_or(ms, |old| old.max(ms)));
        }
        fn rank(fault: BatchFault) -> (u8, u64) {
            match fault {
                BatchFault::Flip => (3, 0),
                BatchFault::Truncate(keep) => (2, keep),
                BatchFault::Forge(back) => (1, back),
                // Not a corruption of the main delivery: outranks none.
                _ => (0, 0),
            }
        }
        if self.drop {
            return;
        }
        match fault {
            BatchFault::Drop => {
                *self = Verdict {
                    drop: true,
                    ..Verdict::default()
                }
            }
            BatchFault::Delay(ms) => longer(&mut self.delay_ms, ms),
            BatchFault::Duplicate(ms) => longer(&mut self.dup_delay_ms, ms),
            BatchFault::MutDup(ms) => longer(&mut self.mutdup_delay_ms, ms),
            BatchFault::Flip | BatchFault::Truncate(_) | BatchFault::Forge(_) => {
                if self.corrupt.is_none_or(|old| rank(old) < rank(fault)) {
                    self.corrupt = Some(fault);
                }
            }
        }
    }

    /// The faults that fold back into this verdict, in application order.
    fn faults(self) -> impl Iterator<Item = BatchFault> {
        [
            self.drop.then_some(BatchFault::Drop),
            self.delay_ms.map(BatchFault::Delay),
            self.dup_delay_ms.map(BatchFault::Duplicate),
            self.mutdup_delay_ms.map(BatchFault::MutDup),
            self.corrupt,
        ]
        .into_iter()
        .flatten()
    }
}

impl BatchFault {
    /// The bytes a corrupting fault delivers in place of `batch` (a clean
    /// copy for the classes that do not touch the payload).
    pub(crate) fn mangle(self, batch: &UpdateBatch) -> UpdateBatch {
        let mut b = batch.clone();
        match self {
            // Bit-flip (also the payload of a mutated duplicate): a
            // checksummed envelope field changes without a reseal, so the
            // stored seal no longer matches and the receiver quarantines
            // on the integrity check.
            BatchFault::Flip => b.lamport ^= 1,
            // The tail of the update list is lost without a reseal (the
            // seal covers the update count and keys).
            BatchFault::Truncate(keep) => b.updates.truncate(keep as usize),
            // Forged (stale) sequence number. The forger reseals
            // consistently — a non-equivocating adversary — so the
            // checksum passes and the batch is caught by the structural
            // well-formedness check instead (its own clock still names the
            // original commit number).
            BatchFault::Forge(back) => {
                b.seq = b.seq.saturating_sub(back);
                b.reseal();
            }
            _ => {}
        }
        b
    }
}

/// Where decisions come from.
enum Source {
    /// Drawn from the nemesis's own RNG stream, seeded from
    /// [`FaultPlan::seed`]: fault decisions never perturb the workload's
    /// RNG, so the same `cfg.seed` drives the same client schedule under
    /// any fault plan.
    Drawn { plan: FaultPlan, rng: StdRng },
    /// Looked up in an indexed [`ExplicitPlan`]; the run is a pure
    /// function of `(workload seed, plan)`.
    Explicit {
        /// Every per-batch fault of the plan, folded per `(origin, dest,
        /// seq)` by [`Verdict::add`].
        batches: HashMap<(Region, Region, u64), Verdict>,
        ae_latency_ms: HashMap<(u64, Region, Region), f64>,
    },
}

/// Every fault the nemesis materializes, as it happens.
#[derive(Default)]
struct Recorder {
    events: Vec<FaultEvent>,
    /// Windows awaiting their close, with the time they opened.
    open: Vec<(Window, f64)>,
    ae_latency_ms: Vec<(u64, Region, Region, f64)>,
}

/// The nemesis windows known before the run starts, in the order the
/// event loop must schedule them: each crash with its restart, then the
/// cuts, then the first flap.
#[derive(Clone)]
pub(crate) struct Windows {
    /// Same-microsecond tie-break class for `crashes` and `cuts`. A drawn
    /// plan schedules them like everything else (`RANK_DEFAULT`, in plan
    /// order). An explicit plan schedules them at `RANK_WINDOW` in `(time,
    /// payload)`-sorted order: a stable `(time, class, payload)` tie-break
    /// that mirrors where those events sat in the drawn run's seq order
    /// (windows are scheduled upfront or a full flap period ahead, so they
    /// carry the smallest seq at their timestamp) and — being a pure
    /// function of plan *content* — is immune to ddmin reordering.
    pub rank: u8,
    pub crashes: Vec<CrashPlan>,
    /// `(a, b, at_s, outage_s)`.
    pub cuts: Vec<(Region, Region, f64, f64)>,
    /// The flapping-partition chain's first tick ([`Nemesis::flap`]).
    pub flap_at_s: Option<f64>,
}

pub(crate) struct Nemesis {
    source: Source,
    recorder: Option<Recorder>,
    windows: Windows,
    anti_entropy_s: Option<f64>,
    /// Per-origin honest clock drift in milliseconds.
    skew_ms: Vec<(Region, f64)>,
}

impl Nemesis {
    /// The probabilistic nemesis of `plan`.
    pub(crate) fn drawn(plan: &FaultPlan) -> Nemesis {
        Nemesis {
            source: Source::Drawn {
                plan: plan.clone(),
                rng: StdRng::seed_from_u64(plan.seed ^ 0x6e65_6d65_7369_7321),
            },
            recorder: None,
            windows: Windows {
                rank: RANK_DEFAULT,
                crashes: plan.crashes.clone(),
                cuts: Vec::new(),
                flap_at_s: plan.flap.map(|f| f.period_s),
            },
            anti_entropy_s: plan.effective_anti_entropy_s(),
            skew_ms: plan.skew_ms.clone(),
        }
    }

    /// Replace the source with the indexed form of `plan`.
    pub(crate) fn install(&mut self, plan: &ExplicitPlan) {
        let mut batches: HashMap<_, Verdict> = HashMap::new();
        let mut cuts = Vec::new();
        let mut crashes = Vec::new();
        for e in &plan.events {
            match *e {
                FaultEvent::Batch {
                    origin,
                    dest,
                    seq,
                    fault,
                } => batches.entry((origin, dest, seq)).or_default().add(fault),
                FaultEvent::Partition {
                    a,
                    b,
                    at_s,
                    outage_s,
                } => cuts.push((a, b, at_s, outage_s)),
                FaultEvent::Crash {
                    region,
                    at_s,
                    down_s,
                } => crashes.push(CrashPlan {
                    region,
                    at_s,
                    down_s,
                }),
            }
        }
        cuts.sort_by(|x, y| {
            (x.2, x.0, x.1, x.3)
                .partial_cmp(&(y.2, y.0, y.1, y.3))
                .expect("finite times")
        });
        crashes.sort_by(|x, y| {
            (x.at_s, x.region, x.down_s)
                .partial_cmp(&(y.at_s, y.region, y.down_s))
                .expect("finite times")
        });
        self.windows = Windows {
            rank: RANK_WINDOW,
            crashes,
            cuts,
            flap_at_s: None,
        };
        self.source = Source::Explicit {
            batches,
            ae_latency_ms: plan
                .ae_latency_ms
                .iter()
                .map(|&(r, s, d, ms)| ((r, s, d), ms))
                .collect(),
        };
        self.anti_entropy_s = plan.anti_entropy_s;
        self.skew_ms = plan.skew_ms.clone();
    }

    pub(crate) fn record(&mut self) {
        self.recorder = Some(Recorder::default());
    }

    /// The recording as a replayable plan. Cut windows and crashes still
    /// open at the end of the run are closed with an effectively-infinite
    /// duration (matching their observed behavior: never healed /
    /// restarted inside the window).
    pub(crate) fn take_trace(&mut self) -> ExplicitPlan {
        let rec = self
            .recorder
            .take()
            .expect("record_fault_trace was enabled");
        let mut events = rec.events;
        events.extend(
            rec.open
                .into_iter()
                .map(|(w, at_s)| w.event(at_s, OPEN_ENDED_S)),
        );
        ExplicitPlan {
            events,
            anti_entropy_s: self.anti_entropy_s,
            ae_latency_ms: rec.ae_latency_ms,
            skew_ms: self.skew_ms.clone(),
        }
    }

    /// The verdict for the batch `origin → dest`.
    ///
    /// The draw order is pinned by every schedule digest: drop
    /// (short-circuit), delay and its extra, duplicate; then — strictly
    /// gated behind `corruption_armed()`, so benign plans never touch the
    /// stream here — flip, truncate, forge, mutated duplicate (all four),
    /// and the forge distance only when forge wins the main delivery
    /// (first class drawn wins).
    pub(crate) fn verdict(&mut self, origin: Region, dest: Region, batch: &UpdateBatch) -> Verdict {
        let mut v = Verdict::default();
        match &mut self.source {
            Source::Explicit { batches, .. } => {
                if let Some(found) = batches.get(&(origin, dest, batch.seq)) {
                    v = *found;
                }
            }
            Source::Drawn { plan, rng } => {
                let link = plan.link(origin, dest);
                if !link.is_none() {
                    if rng.gen_bool(link.drop_p) {
                        v.drop = true;
                    } else {
                        if rng.gen_bool(link.delay_p) {
                            v.delay_ms = Some(rng.gen_range(0.0..link.delay_ms.max(0.001)));
                        }
                        if rng.gen_bool(link.dup_p) {
                            v.dup_delay_ms = Some(link.dup_delay_ms);
                        }
                    }
                }
                if !v.drop && plan.corruption_armed() {
                    let c = plan.corruption;
                    let flip = rng.gen_bool(c.flip_p);
                    let trunc = rng.gen_bool(c.truncate_p);
                    let forge = rng.gen_bool(c.forge_seq_p);
                    if rng.gen_bool(c.mutate_dup_p) {
                        v.mutdup_delay_ms = Some(c.mutate_dup_delay_ms);
                    }
                    v.corrupt = if flip {
                        Some(BatchFault::Flip)
                    } else if trunc {
                        Some(BatchFault::Truncate((batch.updates.len() / 2) as u64))
                    } else if forge {
                        Some(BatchFault::Forge(rng.gen_range(1..=4u64)))
                    } else {
                        None
                    };
                }
            }
        }
        if let Some(rec) = &mut self.recorder {
            rec.events.extend(v.faults().map(|fault| FaultEvent::Batch {
                origin,
                dest,
                seq: batch.seq,
                fault,
            }));
        }
        v
    }

    /// The clock-skew offset of `origin` in ms (0 when unlisted).
    pub(crate) fn skew_of(&self, origin: Region) -> f64 {
        skew_of(&self.skew_ms, origin)
    }

    /// The periodic anti-entropy interval.
    pub(crate) fn ae_interval(&self) -> Option<f64> {
        self.anti_entropy_s
    }

    /// One-way latency of anti-entropy round `round`'s send `src → dst`:
    /// drawn, or the recorded one (jitter-free base where a shrunk plan
    /// no longer records it).
    pub(crate) fn ae_one_way(
        &mut self,
        round: u64,
        src: Region,
        dst: Region,
        latency: &LatencyModel,
    ) -> f64 {
        let ow = match &mut self.source {
            Source::Drawn { rng, .. } => latency.one_way(src, dst, rng),
            Source::Explicit { ae_latency_ms, .. } => ae_latency_ms
                .get(&(round, src, dst))
                .copied()
                .unwrap_or_else(|| latency.base_rtt(src, dst) / 2.0),
        };
        if let Some(rec) = &mut self.recorder {
            rec.ae_latency_ms.push((round, src, dst, ow));
        }
        ow
    }

    pub(crate) fn windows(&self) -> Windows {
        self.windows.clone()
    }

    /// One tick of the flapping-partition chain: the random link to cut
    /// now (none in a single-region topology), with the outage to cut it
    /// for and the period to the next tick.
    pub(crate) fn flap(&mut self, regions: u16) -> (Option<(Region, Region)>, FlapPlan) {
        let Source::Drawn { plan, rng } = &mut self.source else {
            panic!("flap tick without a drawn plan");
        };
        let flap = plan.flap.expect("flap tick without a flap plan");
        let link = (regions >= 2).then(|| {
            let a = rng.gen_range(0..regions);
            let mut b = rng.gen_range(0..regions - 1);
            if b >= a {
                b += 1;
            }
            (a, b)
        });
        (link, flap)
    }

    /// Recorder hook: the event loop opened `w` at `now_s`.
    pub(crate) fn opened(&mut self, w: Window, now_s: f64) {
        if let Some(rec) = &mut self.recorder {
            rec.open.push((w, now_s));
        }
    }

    /// Recorder hook: the event loop closed `w` at `now_s`.
    pub(crate) fn closed(&mut self, w: Window, now_s: f64) {
        let Some(rec) = &mut self.recorder else {
            return;
        };
        if let Some(pos) = rec.open.iter().position(|&(open, _)| open == w) {
            let (_, at_s) = rec.open.remove(pos);
            rec.events.push(w.event(at_s, now_s - at_s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-batch table an explicit plan with these events indexes to.
    fn table(events: Vec<FaultEvent>) -> HashMap<(Region, Region, u64), Verdict> {
        let mut nemesis = Nemesis::drawn(&FaultPlan::none());
        nemesis.install(&ExplicitPlan {
            events,
            ..ExplicitPlan::default()
        });
        match nemesis.source {
            Source::Explicit { batches, .. } => batches,
            Source::Drawn { .. } => panic!("install leaves an explicit source"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table is a function of the event *set*: any permutation of
        /// a plan (ddmin reorders) indexes to the same verdicts, a drop
        /// yields a drop-only verdict, and the main delivery's corruption
        /// is the highest of `flip > trunc > forge` present.
        #[test]
        fn batch_table_is_a_function_of_the_event_set(
            // (class, seq, argument, sort key): three seqs on one link, so
            // several faults — same class included — land on one batch.
            drawn in prop::collection::vec((0usize..7, 0u64..3, 1u64..6, 0u32..1000), 1..14),
        ) {
            let event = |&(class, seq, arg, _): &(usize, u64, u64, u32)| FaultEvent::Batch {
                origin: 0,
                dest: 1,
                seq,
                fault: [
                    BatchFault::Drop,
                    BatchFault::Delay(arg as f64 * 7.5),
                    BatchFault::Duplicate(arg as f64 * 7.5),
                    BatchFault::Flip,
                    BatchFault::Truncate(arg),
                    BatchFault::Forge(arg),
                    BatchFault::MutDup(arg as f64 * 7.5),
                ][class],
            };
            let events: Vec<FaultEvent> = drawn.iter().map(event).collect();
            let mut permuted = drawn.clone();
            permuted.sort_by_key(|d| d.3);
            let verdicts = table(events.clone());
            prop_assert_eq!(&table(permuted.iter().map(event).collect()), &verdicts);
            prop_assert_eq!(&table(events.iter().rev().copied().collect()), &verdicts);

            for seq in 0..3u64 {
                let classes: Vec<&str> = events
                    .iter()
                    .filter(|e| matches!(e, FaultEvent::Batch { seq: s, .. } if *s == seq))
                    .map(FaultEvent::class)
                    .collect();
                let verdict = verdicts.get(&(0, 1, seq)).copied();
                prop_assert_eq!(verdict.is_some(), !classes.is_empty());
                let Some(verdict) = verdict else { continue };
                if classes.contains(&"drop") {
                    let drop_only = Verdict { drop: true, ..Verdict::default() };
                    prop_assert_eq!(verdict, drop_only);
                    continue;
                }
                let highest = ["flip", "trunc", "forge"].into_iter().find(|c| classes.contains(c));
                prop_assert_eq!(verdict.corrupt.map(|c| c.class()), highest);
                prop_assert_eq!(verdict.delay_ms.is_some(), classes.contains(&"delay"));
                prop_assert_eq!(verdict.dup_delay_ms.is_some(), classes.contains(&"dup"));
                prop_assert_eq!(verdict.mutdup_delay_ms.is_some(), classes.contains(&"mutdup"));
            }
        }
    }
}
