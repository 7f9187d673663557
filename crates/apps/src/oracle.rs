//! The invariant oracle: an explicit, named registry of every invariant
//! each application promises, auditable against any replica at any
//! point of a simulation.
//!
//! The paper distinguishes two repair disciplines, and the registry
//! encodes them as audit phases:
//!
//! * [`Phase::Continuous`] — invariant-preserving effects (touches,
//!   rem-wins resolutions) keep the invariant true in **every** causal
//!   replica state, so these checks must pass at every audit point of an
//!   IPA-mode run — including mid-run under drops, duplicates, reorders,
//!   partitions, and crashes. Under Causal mode they are the anomaly
//!   detectors.
//! * [`Phase::Final`] — compensation-based invariants (§3.4: capacity /
//!   numeric constraints repaired on read) may be transiently violated
//!   by design; they are only required to hold after the compensations
//!   have run to a fixpoint (quiescence + final repair sweep).
//!
//! The sim driver consumes an oracle through
//! [`Oracle::into_continuous_auditor`], which plugs into
//! [`ipa_sim::Simulation::set_auditor`] — so *any* simulation test gets
//! continuous invariant checking for free.

use crate::violations as v;
use ipa_sim::{Auditor, Region, Simulation};
use ipa_store::Replica;
use std::fmt;
use std::sync::Arc;

/// A positively named consistency anomaly — what a violated check
/// *means* in application terms, not just which predicate tripped. The
/// causal (unrepaired) soak axis runs the unpatched applications and
/// **expects** one of these; a hostile run that produces none is the
/// failure there, and gets shrunk to the minimal run that stays
/// anomaly-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Anomaly {
    /// A write observed, then silently unobserved (the default bucket
    /// for transient audit violations that no named check still owns).
    LostUpdate,
    /// A numeric cap exceeded: ticket oversell, tournament
    /// over-capacity, negative TPC stock.
    Oversell,
    /// A reference to an entity that no longer (or never) exists.
    ReferentialOrphan,
    /// A match stranded against the tournament phase machine
    /// (phase-exclusion or match-phase broken).
    StrandedMatch,
}

impl Anomaly {
    pub fn all() -> [Anomaly; 4] {
        [
            Anomaly::LostUpdate,
            Anomaly::Oversell,
            Anomaly::ReferentialOrphan,
            Anomaly::StrandedMatch,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            Anomaly::LostUpdate => "lost-update",
            Anomaly::Oversell => "oversell",
            Anomaly::ReferentialOrphan => "referential-orphan",
            Anomaly::StrandedMatch => "stranded-match",
        }
    }

    /// Classify a violated check identifier (with or without its
    /// `continuous:`/`final:` phase prefix) into a named anomaly.
    pub fn classify(check: &str) -> Anomaly {
        let base = check.rsplit(':').next().unwrap_or(check);
        match base {
            "capacity" | "oversell" | "stock-nonnegative" => Anomaly::Oversell,
            "phase-exclusion" | "match-phase" => Anomaly::StrandedMatch,
            n if n.ends_with("referential") => Anomaly::ReferentialOrphan,
            _ => Anomaly::LostUpdate,
        }
    }
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// When a check is required to hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Must hold in every causal replica state (audited mid-run).
    Continuous,
    /// Compensable: must hold after repair reaches a fixpoint.
    Final,
    /// Whole-simulation liveness: audited against the run, not a single
    /// replica's state (e.g. bounded anti-entropy convergence).
    Liveness,
}

type CheckFn = Arc<dyn Fn(&Replica) -> u64 + Send + Sync>;
type SimCheckFn = Arc<dyn Fn(&Simulation) -> u64 + Send + Sync>;

/// One named whole-simulation check (the [`Phase::Liveness`] class):
/// unlike state checks it sees the run itself — round counts, gap
/// accounting, nemesis statistics.
#[derive(Clone)]
pub struct SimCheck {
    pub name: &'static str,
    f: SimCheckFn,
}

impl SimCheck {
    pub fn count(&self, sim: &Simulation) -> u64 {
        (self.f)(sim)
    }
}

impl fmt::Debug for SimCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimCheck({} @ Liveness)", self.name)
    }
}

/// One named invariant check.
#[derive(Clone)]
pub struct Check {
    pub name: &'static str,
    pub phase: Phase,
    f: CheckFn,
}

impl Check {
    pub fn count(&self, replica: &Replica) -> u64 {
        (self.f)(replica)
    }
}

impl fmt::Debug for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Check({} @ {:?})", self.name, self.phase)
    }
}

/// Per-check audit outcome for one replica.
#[derive(Clone, Debug)]
pub struct AuditReport {
    pub app: &'static str,
    pub per_check: Vec<(&'static str, u64)>,
}

impl AuditReport {
    pub fn total(&self) -> u64 {
        self.per_check.iter().map(|(_, n)| n).sum()
    }

    /// Names of the checks that found violations.
    pub fn violated(&self) -> Vec<&'static str> {
        self.per_check
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(name, _)| *name)
            .collect()
    }
}

/// Anti-entropy convergence bound every application registry ships
/// with: after a fault, each induced causal gap must close within this
/// many rounds of repair opportunity (and quiescence within as many
/// productive rounds). Generous against delivery latency — one pull
/// plus a WAN one-way fits in 2 — while still catching a repair path
/// that loops or starves.
pub const DEFAULT_LIVENESS_BOUND: u64 = 12;

/// The invariant registry of one application.
#[derive(Clone, Debug)]
pub struct Oracle {
    pub app: &'static str,
    checks: Vec<Check>,
    sim_checks: Vec<SimCheck>,
    liveness_bound: Option<u64>,
}

impl Oracle {
    pub fn new(app: &'static str) -> Oracle {
        Oracle {
            app,
            checks: Vec::new(),
            sim_checks: Vec::new(),
            liveness_bound: None,
        }
    }

    pub fn with_check(
        mut self,
        name: &'static str,
        phase: Phase,
        f: impl Fn(&Replica) -> u64 + Send + Sync + 'static,
    ) -> Oracle {
        assert!(
            phase != Phase::Liveness,
            "liveness checks audit the simulation; use with_sim_check"
        );
        self.checks.push(Check {
            name,
            phase,
            f: Arc::new(f),
        });
        self
    }

    /// Register a whole-simulation ([`Phase::Liveness`]) check.
    pub fn with_sim_check(
        mut self,
        name: &'static str,
        f: impl Fn(&Simulation) -> u64 + Send + Sync + 'static,
    ) -> Oracle {
        self.sim_checks.push(SimCheck {
            name,
            f: Arc::new(f),
        });
        self
    }

    /// Arm the bounded-liveness oracle: registers the `bounded-liveness`
    /// sim check (violations reported by the simulation's gap/round
    /// accounting) and remembers the bound the harness must install via
    /// [`ipa_sim::Simulation::set_liveness_bound`] before the run.
    pub fn with_liveness(mut self, bound: u64) -> Oracle {
        self.liveness_bound = Some(bound);
        self.with_sim_check("bounded-liveness", Simulation::liveness_violations)
    }

    /// The convergence bound to install on the simulation (None when
    /// [`Oracle::with_liveness`] was never called).
    pub fn liveness_bound(&self) -> Option<u64> {
        self.liveness_bound
    }

    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    pub fn sim_checks(&self) -> &[SimCheck] {
        &self.sim_checks
    }

    /// Audit the whole-simulation (liveness) checks.
    pub fn audit_sim(&self, sim: &Simulation) -> AuditReport {
        AuditReport {
            app: self.app,
            per_check: self
                .sim_checks
                .iter()
                .map(|c| (c.name, c.count(sim)))
                .collect(),
        }
    }

    /// Audit every check of the given phase (plus, for `Final`, the
    /// continuous ones — a final state must satisfy everything).
    pub fn audit(&self, replica: &Replica, phase: Phase) -> AuditReport {
        let per_check = self
            .checks
            .iter()
            .filter(|c| c.phase == phase || (phase == Phase::Final && c.phase == Phase::Continuous))
            .map(|c| (c.name, c.count(replica)))
            .collect();
        AuditReport {
            app: self.app,
            per_check,
        }
    }

    /// Total violations over the continuous checks only.
    pub fn continuous_violations(&self, replica: &Replica) -> u64 {
        self.audit(replica, Phase::Continuous).total()
    }

    /// Total violations over every check (final + continuous).
    pub fn final_violations(&self, replica: &Replica) -> u64 {
        self.audit(replica, Phase::Final).total()
    }

    /// Adapt the continuous checks into the sim driver's auditor hook.
    pub fn into_continuous_auditor(self) -> Auditor {
        Box::new(move |_region: Region, replica: &Replica| self.continuous_violations(replica))
    }

    // ------------------------------------------------------------------
    // The four applications' registries
    // ------------------------------------------------------------------

    /// Tournament (Fig. 1): referential integrity and phase exclusion
    /// hold continuously under IPA; capacity is compensated on read.
    pub fn tournament() -> Oracle {
        Oracle::new("tournament")
            .with_check("enrollment-referential", Phase::Continuous, |r| {
                v::tournament_enrollment_referential(r)
            })
            .with_check("match-referential", Phase::Continuous, |r| {
                v::tournament_match_referential(r)
            })
            .with_check("phase-exclusion", Phase::Continuous, |r| {
                v::tournament_phase(r)
            })
            // Compensable disjunction: two concurrent finish→begin chains
            // can annihilate both phase marks; the `status` read repair
            // restores the finish-prevails outcome.
            .with_check("match-phase", Phase::Final, |r| {
                v::tournament_match_phase(r)
            })
            .with_check("capacity", Phase::Final, v::tournament_capacity)
            .with_liveness(DEFAULT_LIVENESS_BOUND)
    }

    /// Twitter: pure referential integrity, all continuous.
    pub fn twitter() -> Oracle {
        Oracle::new("twitter")
            .with_check("timeline-referential", Phase::Continuous, |r| {
                v::twitter_timeline_referential(r)
            })
            .with_check("follow-referential", Phase::Continuous, |r| {
                v::twitter_follow_referential(r)
            })
            .with_liveness(DEFAULT_LIVENESS_BOUND)
    }

    /// Ticket: overselling is compensated on read (§3.4), so the
    /// capacity check is final-phase. `events` and `capacity` come from
    /// the workload configuration.
    pub fn ticket(events: Vec<String>, capacity: usize) -> Oracle {
        Oracle::new("ticket")
            .with_check("oversell", Phase::Final, move |r| {
                v::ticket_violations(r, &events, capacity)
            })
            .with_liveness(DEFAULT_LIVENESS_BOUND)
    }

    /// Escrow-sharded ticket sale: rights are consumed *before* a
    /// purchase commits, so the per-event capacity bound holds in every
    /// causal replica state — a continuous check, the strongest claim in
    /// the registry (compare [`Oracle::ticket`], whose compensation-based
    /// bound is final-phase only). On the causal axis the same check is
    /// the oversell anomaly detector.
    pub fn ticket_escrow(events: Vec<(String, usize)>) -> Oracle {
        Oracle::new("ticket-escrow")
            .with_check("oversell", Phase::Continuous, move |r| {
                v::sale_violations(r, &events)
            })
            .with_liveness(DEFAULT_LIVENESS_BOUND)
    }

    /// TPC subset: order referential integrity holds continuously;
    /// stock non-negativity is restocked by compensation.
    pub fn tpc(items: Vec<String>) -> Oracle {
        Oracle::new("tpc")
            .with_check("order-referential", Phase::Continuous, |r| {
                v::tpc_order_referential(r)
            })
            .with_check("stock-nonnegative", Phase::Final, move |r| {
                v::tpc_stock_nonnegative(r, &items)
            })
            .with_liveness(DEFAULT_LIVENESS_BOUND)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tournament::runtime as tourn;
    use ipa_crdt::{ObjectKind, ReplicaId, Val};

    #[test]
    fn every_registered_check_classifies_to_a_named_anomaly() {
        // Each registry check name maps to the anomaly the paper
        // attributes to it; the mapping is total (no panic, no honest
        // check silently landing in the default bucket unintentionally).
        let expect = |check: &str, anomaly: Anomaly| {
            assert_eq!(Anomaly::classify(check), anomaly, "{check}");
            // Phase prefixes never change the classification.
            assert_eq!(
                Anomaly::classify(&format!("continuous:{check}")),
                anomaly,
                "continuous:{check}"
            );
            assert_eq!(
                Anomaly::classify(&format!("final:{check}")),
                anomaly,
                "final:{check}"
            );
        };
        expect("enrollment-referential", Anomaly::ReferentialOrphan);
        expect("match-referential", Anomaly::ReferentialOrphan);
        expect("timeline-referential", Anomaly::ReferentialOrphan);
        expect("follow-referential", Anomaly::ReferentialOrphan);
        expect("order-referential", Anomaly::ReferentialOrphan);
        expect("phase-exclusion", Anomaly::StrandedMatch);
        expect("match-phase", Anomaly::StrandedMatch);
        expect("capacity", Anomaly::Oversell);
        expect("oversell", Anomaly::Oversell);
        expect("stock-nonnegative", Anomaly::Oversell);
        expect("transient", Anomaly::LostUpdate);
        assert_eq!(Anomaly::classify("convergence"), Anomaly::LostUpdate);
        for a in Anomaly::all() {
            assert!(!a.name().is_empty());
        }
    }

    #[test]
    fn clean_replica_passes_every_registry() {
        let r = Replica::new(ReplicaId(0));
        for oracle in [
            Oracle::tournament(),
            Oracle::twitter(),
            Oracle::ticket(vec!["e0".into()], 10),
            Oracle::ticket_escrow(vec![("s0".into(), 10)]),
            Oracle::tpc(vec!["i0".into()]),
        ] {
            assert_eq!(oracle.final_violations(&r), 0, "{}", oracle.app);
            assert_eq!(oracle.continuous_violations(&r), 0, "{}", oracle.app);
        }
    }

    #[test]
    fn orphan_enrollment_is_attributed_to_the_named_check() {
        let mut r = Replica::new(ReplicaId(0));
        let mut tx = r.begin();
        tx.ensure(tourn::ENROLLED, ObjectKind::AWSet).unwrap();
        tx.aw_add(tourn::ENROLLED, Val::pair("p1", "ghost"))
            .unwrap();
        tx.commit();
        let oracle = Oracle::tournament();
        let report = oracle.audit(&r, Phase::Continuous);
        assert_eq!(report.total(), 1);
        assert_eq!(report.violated(), vec!["enrollment-referential"]);
        assert_eq!(oracle.continuous_violations(&r), 1);
    }

    #[test]
    fn capacity_is_final_phase_only() {
        let mut r = Replica::new(ReplicaId(0));
        let mut tx = r.begin();
        tx.ensure(tourn::ENROLLED, ObjectKind::AWSet).unwrap();
        tx.ensure(tourn::PLAYERS, ObjectKind::AWMap).unwrap();
        tx.ensure(tourn::TOURNS, ObjectKind::AWMap).unwrap();
        tx.map_put(tourn::TOURNS, Val::str("t"), Val::str("m"))
            .unwrap();
        for i in 0..=tourn::CAPACITY {
            let p = format!("p{i}");
            tx.map_put(tourn::PLAYERS, Val::str(p.as_str()), Val::str("x"))
                .unwrap();
            tx.aw_add(tourn::ENROLLED, Val::pair(p, "t")).unwrap();
        }
        tx.commit();
        let oracle = Oracle::tournament();
        assert_eq!(
            oracle.continuous_violations(&r),
            0,
            "over-capacity is compensable, not a continuous violation"
        );
        let report = oracle.audit(&r, Phase::Final);
        assert_eq!(report.total(), 1);
        assert!(report.violated().contains(&"capacity"));
    }

    #[test]
    fn every_registry_arms_the_liveness_check() {
        use ipa_sim::{paper_topology, FaultPlan, SimConfig, Simulation};
        let sim = Simulation::new(
            paper_topology(),
            SimConfig {
                faults: FaultPlan::none(),
                ..Default::default()
            },
        );
        for oracle in [
            Oracle::tournament(),
            Oracle::twitter(),
            Oracle::ticket(vec!["e0".into()], 10),
            Oracle::ticket_escrow(vec![("s0".into(), 10)]),
            Oracle::tpc(vec!["i0".into()]),
        ] {
            assert_eq!(
                oracle.liveness_bound(),
                Some(DEFAULT_LIVENESS_BOUND),
                "{}",
                oracle.app
            );
            let report = oracle.audit_sim(&sim);
            assert_eq!(report.per_check, vec![("bounded-liveness", 0)]);
            // Liveness never leaks into the replica-state phases.
            assert!(oracle.checks().iter().all(|c| c.phase != Phase::Liveness));
        }
    }

    #[test]
    fn auditor_adapter_counts_continuous_checks() {
        let mut r = Replica::new(ReplicaId(0));
        let mut tx = r.begin();
        tx.ensure(tourn::ENROLLED, ObjectKind::AWSet).unwrap();
        tx.aw_add(tourn::ENROLLED, Val::pair("p", "ghost")).unwrap();
        tx.commit();
        let auditor = Oracle::tournament().into_continuous_auditor();
        assert_eq!(auditor(0, &r), 1);
    }
}
