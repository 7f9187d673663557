//! Deterministic fault injection (the "nemesis"): per-link transport
//! faults, flapping partitions, and replica crash/restart schedules.
//!
//! A [`FaultPlan`] plus the simulation seed fully determines every fault
//! decision — the nemesis draws from its own RNG stream (seeded from
//! [`FaultPlan::seed`]), so pure transport faults leave the *workload's*
//! schedule untouched (crashes and flaps necessarily alter it: they
//! change which ops run and which links are up, but deterministically),
//! and any red run reproduces from the two integers printed with the
//! failure.
//!
//! Fault model:
//!
//! * **drop** — an update batch silently vanishes on one link; the
//!   periodic anti-entropy pass ([`FaultPlan::anti_entropy_s`]) repairs
//!   the gap from the peers' durable logs.
//! * **duplicate** — a batch is delivered twice (possibly far apart);
//!   delivery is idempotent, so state and `ReplicaStats` must not
//!   double-count.
//! * **reorder / delay** — extra per-batch latency beyond the jittered
//!   link RTT, forcing out-of-order arrival into the causal buffer.
//! * **flapping partitions** — the nemesis periodically cuts a random
//!   link and heals it after an outage window.
//! * **crash/restart** — a replica loses its volatile state (outbox and
//!   pending buffer), rejects client operations while down, and on
//!   restart rebuilds through anti-entropy with every reachable peer.

use crate::latency::Region;
use std::fmt;

/// Per-link fault probabilities and magnitudes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability a batch is dropped on this link.
    pub drop_p: f64,
    /// Probability a batch is duplicated (second copy arrives
    /// `dup_delay_ms` later).
    pub dup_p: f64,
    pub dup_delay_ms: f64,
    /// Probability a batch is delayed by up to `delay_ms` extra
    /// (uniform), enough to reorder it behind its successors.
    pub delay_p: f64,
    pub delay_ms: f64,
}

impl LinkFaults {
    pub const NONE: LinkFaults = LinkFaults {
        drop_p: 0.0,
        dup_p: 0.0,
        dup_delay_ms: 40.0,
        delay_p: 0.0,
        delay_ms: 200.0,
    };

    pub fn is_none(&self) -> bool {
        self.drop_p <= 0.0 && self.dup_p <= 0.0 && self.delay_p <= 0.0
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::NONE
    }
}

/// Adversarial (but non-equivocating) corruption faults, applied
/// per-batch on top of the honest link faults. Every class mutates a
/// batch *without* resealing its integrity checksum, so a healthy
/// replica quarantines it on receipt; the honest copy of the data stays
/// in the origin's durable log and anti-entropy repairs the gap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorruptionFaults {
    /// Probability a batch's payload is bit-flipped in flight.
    pub flip_p: f64,
    /// Probability a batch's update vector is truncated in flight.
    pub truncate_p: f64,
    /// Probability a batch's sequence number is forged to a stale value.
    pub forge_seq_p: f64,
    /// Probability a *mutated* duplicate is delivered alongside the
    /// clean batch, `mutate_dup_delay_ms` later.
    pub mutate_dup_p: f64,
    pub mutate_dup_delay_ms: f64,
}

impl CorruptionFaults {
    pub const NONE: CorruptionFaults = CorruptionFaults {
        flip_p: 0.0,
        truncate_p: 0.0,
        forge_seq_p: 0.0,
        mutate_dup_p: 0.0,
        mutate_dup_delay_ms: 40.0,
    };

    pub fn is_none(&self) -> bool {
        self.flip_p <= 0.0
            && self.truncate_p <= 0.0
            && self.forge_seq_p <= 0.0
            && self.mutate_dup_p <= 0.0
    }
}

impl Default for CorruptionFaults {
    fn default() -> Self {
        CorruptionFaults::NONE
    }
}

/// Flapping-partition nemesis: every `period_s` cut one random link for
/// `outage_s` simulated seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlapPlan {
    pub period_s: f64,
    pub outage_s: f64,
}

/// One scheduled replica crash.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashPlan {
    pub region: Region,
    /// Crash time (simulated seconds).
    pub at_s: f64,
    /// Downtime before the restart event.
    pub down_s: f64,
}

/// `region`'s offset in a `(region, offset_ms)` skew table (0 when
/// unlisted).
pub(crate) fn skew_of(table: &[(Region, f64)], region: Region) -> f64 {
    table
        .iter()
        .find(|&&(r, _)| r == region)
        .map_or(0.0, |&(_, ms)| ms)
}

/// The full nemesis schedule for one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the nemesis RNG stream (independent of the workload's).
    pub seed: u64,
    /// Faults applied to every link without an override.
    pub link_defaults: LinkFaults,
    /// Per-link overrides, symmetric: `(a, b, faults)`.
    pub per_link: Vec<(Region, Region, LinkFaults)>,
    pub flap: Option<FlapPlan>,
    pub crashes: Vec<CrashPlan>,
    /// Periodic anti-entropy interval (repairs drops and crash losses).
    /// Defaults on whenever any fault is configured.
    pub anti_entropy_s: Option<f64>,
    /// Adversarial corruption faults (off on every honest plan; arming
    /// any class makes the run hostile and default-enables anti-entropy,
    /// which is what repairs quarantined input).
    pub corruption: CorruptionFaults,
    /// Per-replica clock skew: `(region, offset_ms)` — bounded drift
    /// applied to the region's outbound batch timestamps and arrival
    /// times. Skew is *honest* (the skewed replica reseals what it
    /// sends), so skewed batches must never be quarantined.
    pub skew_ms: Vec<(Region, f64)>,
}

impl FaultPlan {
    /// No faults at all — the benign transport the seed tests assume.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            link_defaults: LinkFaults::NONE,
            per_link: Vec::new(),
            flap: None,
            crashes: Vec::new(),
            anti_entropy_s: None,
            corruption: CorruptionFaults::NONE,
            skew_ms: Vec::new(),
        }
    }

    /// A canonical hostile plan scaled by `intensity` in `[0, 1]`:
    /// intensity 0 is fault-free; intensity 1 drops/dups/delays roughly a
    /// quarter of all batches and flaps a link every simulated second.
    pub fn with_intensity(seed: u64, intensity: f64) -> FaultPlan {
        let i = intensity.clamp(0.0, 1.0);
        if i == 0.0 {
            return FaultPlan::none();
        }
        FaultPlan {
            seed,
            link_defaults: LinkFaults {
                drop_p: 0.25 * i,
                dup_p: 0.25 * i,
                dup_delay_ms: 40.0,
                delay_p: 0.25 * i,
                delay_ms: 150.0 + 250.0 * i,
            },
            per_link: Vec::new(),
            flap: (i >= 0.5).then_some(FlapPlan {
                period_s: 1.0,
                outage_s: 0.3 * i,
            }),
            crashes: Vec::new(),
            anti_entropy_s: Some(0.25),
            corruption: CorruptionFaults::NONE,
            skew_ms: Vec::new(),
        }
    }

    /// A canonical *adversarial* plan: the honest faults of
    /// [`FaultPlan::with_intensity`] plus every corruption class armed at
    /// `intensity`-scaled probabilities and a bounded per-replica clock
    /// skew. This is the plan the adversarial soak cells and the
    /// corruption proptests run.
    pub fn adversarial(seed: u64, intensity: f64) -> FaultPlan {
        let i = intensity.clamp(0.0, 1.0);
        let mut plan = FaultPlan::with_intensity(seed, i);
        plan.seed = seed;
        plan.corruption = CorruptionFaults {
            flip_p: 0.10 * i,
            truncate_p: 0.05 * i,
            forge_seq_p: 0.05 * i,
            mutate_dup_p: 0.05 * i,
            mutate_dup_delay_ms: 40.0,
        };
        // Bounded drift: region 1 runs ~15·i ms fast, region 2 ~10·i ms
        // slow (clamped to zero delay on arrival; lamport shifts track
        // the fast clock).
        plan.skew_ms = vec![(1, 15.0 * i), (2, -10.0 * i)];
        if plan.anti_entropy_s.is_none() {
            plan.anti_entropy_s = Some(0.25);
        }
        plan
    }

    /// Do any transport faults, flaps, crashes, or corruption apply?
    /// (Clock skew alone does not make a plan hostile: it loses nothing,
    /// so it needs no anti-entropy default.)
    pub fn is_none(&self) -> bool {
        self.link_defaults.is_none()
            && self.per_link.iter().all(|(_, _, f)| f.is_none())
            && self.flap.is_none()
            && self.crashes.is_empty()
            && self.corruption.is_none()
    }

    /// Is any corruption class armed? The driver's injection draws are
    /// strictly gated on this, so benign plans leave the nemesis RNG
    /// stream — and with it every schedule digest — untouched.
    pub fn corruption_armed(&self) -> bool {
        !self.corruption.is_none()
    }

    /// The clock-skew offset for `region` (0 when unlisted).
    pub fn skew_of(&self, region: Region) -> f64 {
        skew_of(&self.skew_ms, region)
    }

    /// The faults on link `a → b` (symmetric; last matching override
    /// wins).
    pub fn link(&self, a: Region, b: Region) -> LinkFaults {
        let mut out = self.link_defaults;
        for &(x, y, f) in &self.per_link {
            if (x, y) == (a, b) || (x, y) == (b, a) {
                out = f;
            }
        }
        out
    }

    /// Effective anti-entropy interval: the configured one, or a default
    /// 250 ms whenever any fault could lose a batch.
    pub fn effective_anti_entropy_s(&self) -> Option<f64> {
        match self.anti_entropy_s {
            Some(s) => Some(s),
            None if !self.is_none() => Some(0.25),
            None => None,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl fmt::Display for FaultPlan {
    /// One-line reproduction record: printed with any nemesis failure so
    /// the schedule replays locally from the seed.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "FaultPlan{{none}}");
        }
        let l = self.link_defaults;
        write!(
            f,
            "FaultPlan{{seed={} drop={:.3} dup={:.3} delay={:.3}x{:.0}ms",
            self.seed, l.drop_p, l.dup_p, l.delay_p, l.delay_ms
        )?;
        if let Some(flap) = self.flap {
            write!(f, " flap={}s/{}s", flap.period_s, flap.outage_s)?;
        }
        for c in &self.crashes {
            write!(f, " crash(r{}@{}s+{}s)", c.region, c.at_s, c.down_s)?;
        }
        if !self.corruption.is_none() {
            let c = self.corruption;
            write!(
                f,
                " corrupt(flip={:.3} trunc={:.3} forge={:.3} mutdup={:.3})",
                c.flip_p, c.truncate_p, c.forge_seq_p, c.mutate_dup_p
            )?;
        }
        for &(r, ms) in &self.skew_ms {
            write!(f, " skew(r{r}{ms:+}ms)")?;
        }
        if let Some(ae) = self.effective_anti_entropy_s() {
            write!(f, " ae={ae}s")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::default().is_none());
        assert_eq!(FaultPlan::none().effective_anti_entropy_s(), None);
    }

    #[test]
    fn intensity_scales_probabilities() {
        let low = FaultPlan::with_intensity(1, 0.2);
        let high = FaultPlan::with_intensity(1, 1.0);
        assert!(low.link_defaults.drop_p < high.link_defaults.drop_p);
        assert!(low.flap.is_none());
        assert!(high.flap.is_some());
        assert!(!low.is_none());
        assert!(FaultPlan::with_intensity(1, 0.0).is_none());
    }

    #[test]
    fn per_link_override_wins_symmetrically() {
        let mut plan = FaultPlan::none();
        let hostile = LinkFaults {
            drop_p: 0.5,
            ..LinkFaults::NONE
        };
        plan.per_link.push((0, 1, hostile));
        assert_eq!(plan.link(0, 1).drop_p, 0.5);
        assert_eq!(plan.link(1, 0).drop_p, 0.5);
        assert_eq!(plan.link(0, 2).drop_p, 0.0);
    }

    #[test]
    fn adversarial_plans_arm_corruption_and_skew() {
        assert!(!FaultPlan::none().corruption_armed());
        assert!(!FaultPlan::with_intensity(7, 0.8).corruption_armed());
        let plan = FaultPlan::adversarial(7, 0.8);
        assert!(plan.corruption_armed());
        assert!(!plan.is_none(), "armed corruption is hostile");
        assert_eq!(plan.effective_anti_entropy_s(), Some(0.25));
        assert!(plan.skew_of(1) > 0.0);
        assert!(plan.skew_of(2) < 0.0);
        assert_eq!(plan.skew_of(0), 0.0);
        let s = plan.to_string();
        assert!(s.contains("corrupt(flip="), "{s}");
        assert!(s.contains("skew(r1+12ms)"), "{s}");

        // Corruption alone (no honest link faults) still counts hostile.
        let mut only = FaultPlan::none();
        only.corruption.flip_p = 0.1;
        assert!(!only.is_none());
        assert_eq!(only.effective_anti_entropy_s(), Some(0.25));
    }

    #[test]
    fn crashes_make_the_plan_hostile_and_print() {
        let mut plan = FaultPlan::none();
        plan.crashes.push(CrashPlan {
            region: 1,
            at_s: 0.5,
            down_s: 1.0,
        });
        assert!(!plan.is_none());
        assert_eq!(plan.effective_anti_entropy_s(), Some(0.25));
        let s = plan.to_string();
        assert!(s.contains("crash(r1@0.5s+1s)"), "{s}");
    }
}
