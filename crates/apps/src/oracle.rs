//! The invariant oracle: one named check per invariant clause of an
//! application's spec, auditable against any replica at any point of a
//! simulation. No invariant is written here: [`derive_checks`] turns each clause
//! into a check evaluated through the app's layout table
//! ([`crate::layout`]); an app adds only what its workload sizes and its
//! exceptions, each with its reason beside it.
//!
//! The paper's two repair disciplines are two phases. A clause the
//! analysis routes to a compensation (`ipa_core::numeric_conflicts`, §3.4)
//! is [`Phase::Final`]: it must hold once the compensations have run to a
//! fixpoint. Every other clause is [`Phase::Continuous`]: it must hold in
//! every causal replica state of an IPA run, faults included, and under
//! Causal mode it is an anomaly detector. Where an exception gives one
//! conjunct of a consequent another phase, each phase's conjuncts are one
//! check. A check's [`Anomaly`] is `ipa_core::classify` of its clause.

use crate::layout::{Layout, Plan, Sizing};
use crate::ticket::{runtime as ticket_rt, ticket_spec};
use crate::tournament::{runtime as tourn, tournament_spec, CAPACITY};
use crate::tpc::{runtime as tpc_rt, tpc_spec};
use crate::twitter::{runtime as twitter_rt, twitter_spec};
use ipa_core::classify::{classify, InvariantClass};
use ipa_core::numeric_conflicts;
use ipa_sim::{Auditor, Region};
use ipa_spec::{AppSpec, Formula, Interpretation};
use ipa_store::Replica;
use std::fmt;
use std::sync::OnceLock;

/// What a violated check *means* in application terms. The causal
/// (unrepaired) soak axis **expects** one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Anomaly {
    /// A write observed, then silently unobserved: the bucket for
    /// failures no invariant check owns.
    LostUpdate,
    /// A numeric bound broken (oversell, over-capacity, negative stock).
    Oversell,
    /// A reference to an entity that no longer (or never) exists.
    ReferentialOrphan,
    /// A disjunction broken, such as a match stranded against the
    /// tournament phase machine.
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

    /// The anomaly a broken clause of this Table 1 class exhibits.
    pub fn of(class: InvariantClass) -> Anomaly {
        match class {
            InvariantClass::ReferentialIntegrity => Anomaly::ReferentialOrphan,
            InvariantClass::AggregationConstraint | InvariantClass::NumericInvariant => {
                Anomaly::Oversell
            }
            InvariantClass::Disjunction => Anomaly::StrandedMatch,
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
}

/// One named check: a clause of the spec, or the part of one whose
/// conjuncts share a phase.
#[derive(Clone, Debug)]
pub struct Check {
    /// The (sub-)clause in [`compact`] form.
    pub name: String,
    pub phase: Phase,
    pub anomaly: Anomaly,
    /// The (sub-)clause; `ipa_spec::interp` on
    /// [`Oracle::interpretation`] is its reference reading.
    pub clause: Formula,
    plan: Plan,
}

/// The checks derived from one spec and layout, and the clauses over a
/// predicate the layout lists as unmapped, each with its reason.
#[derive(Debug)]
pub struct Derived {
    pub checks: Vec<Check>,
    pub unmapped: Vec<(String, &'static str)>,
}

/// A formula without its quantifiers and whitespace, so that it can name
/// a check in a corpus header: `a(x)=>b(x)&(c(x)|d(x))`, `not(a(t)&b(t))`.
pub fn compact(f: &Formula) -> String {
    let join = |gs: &[Formula], sep: &str| {
        let nested = |g: &Formula| matches!(g, Formula::And(_) | Formula::Or(_));
        let parts: Vec<String> = (gs.iter())
            .map(|g| match nested(g) {
                true => format!("({})", compact(g)),
                false => compact(g),
            })
            .collect();
        parts.join(sep)
    };
    match f {
        Formula::Forall(_, g) => compact(g),
        Formula::Implies(l, r) => format!("{}=>{}", compact(l), compact(r)),
        Formula::And(gs) => join(gs, "&"),
        Formula::Or(gs) => join(gs, "|"),
        Formula::Not(g) => format!("not({})", compact(g)),
        other => other.to_string().replace(' ', ""),
    }
}

/// Derive one check per invariant clause of `spec` through `layout`.
/// Each exception overrides the phase of the clause body, or of the
/// consequent conjunct, whose [`compact`] form it names.
pub fn derive_checks(
    spec: &AppSpec,
    layout: &Layout,
    exceptions: &[(&str, Phase)],
) -> Result<Derived, String> {
    let compensated: Vec<usize> = numeric_conflicts(spec)
        .iter()
        .map(|c| c.clause_idx)
        .collect();
    let mut used = vec![false; exceptions.len()];
    let mut phase_of = |f: &Formula, derived: Phase| {
        let i = exceptions.iter().position(|(n, _)| *n == compact(f));
        i.map_or(derived, |i| {
            used[i] = true;
            exceptions[i].1
        })
    };
    let (mut checks, mut unmapped) = (Vec::new(), Vec::new());
    for (idx, clause) in spec.invariants.iter().enumerate() {
        let preds = clause.predicates();
        let mut skip = layout
            .unmapped
            .iter()
            .filter(|(p, _)| preds.iter().any(|q| q == p));
        if let Some((_, why)) = skip.next() {
            unmapped.push((compact(clause), *why));
            continue;
        }
        let (vars, body) = match clause {
            Formula::Forall(vs, b) => (vs.clone(), b.as_ref()),
            other => (Vec::new(), other),
        };
        let phase = match compensated.contains(&idx) {
            true => phase_of(body, Phase::Final),
            false => phase_of(body, Phase::Continuous),
        };
        // A guarded clause is one part per phase among its conjuncts.
        let mut parts = vec![(phase, body.clone())];
        if let Formula::Implies(g, c) = body {
            let conjuncts = match c.as_ref() {
                Formula::And(cs) => cs.clone(),
                c => vec![c.clone()],
            };
            let phased: Vec<Phase> = conjuncts.iter().map(|c| phase_of(c, phase)).collect();
            parts.clear();
            for p in [Phase::Continuous, Phase::Final] {
                let cs = conjuncts.iter().zip(&phased).filter(|(_, q)| **q == p);
                let cs: Vec<Formula> = cs.map(|(c, _)| c.clone()).collect();
                if !cs.is_empty() {
                    parts.push((p, Formula::implies((**g).clone(), Formula::and(cs))));
                }
            }
        }
        for (phase, part) in parts {
            let sub = Formula::forall(vars.clone(), part);
            let plan = Plan::compile(&sub, spec, layout)
                .map_err(|why| format!("`{}`: {why}", compact(&sub)))?;
            let (name, anomaly) = (compact(&sub), Anomaly::of(classify(&sub)));
            checks.push(Check {
                name,
                phase,
                anomaly,
                clause: sub,
                plan,
            });
        }
    }
    match used.iter().position(|u| !u) {
        Some(i) => Err(format!(
            "`{}`: names no clause or conjunct",
            exceptions[i].0
        )),
        None => Ok(Derived { checks, unmapped }),
    }
}

/// Per-check audit outcome for one replica.
#[derive(Clone, Debug)]
pub struct AuditReport {
    pub per_check: Vec<(&'static Check, u64)>,
}

impl AuditReport {
    pub fn total(&self) -> u64 {
        self.per_check.iter().map(|(_, n)| n).sum()
    }

    /// The checks that found violations, in the oracle's order.
    pub fn violated(&self) -> Vec<&'static Check> {
        let violated = self.per_check.iter().filter(|(_, n)| *n > 0);
        violated.map(|(c, _)| *c).collect()
    }
}

/// Anti-entropy convergence bound the soak judge holds every run to:
/// each fault-induced causal gap must close within this many rounds of
/// repair opportunity (one pull plus a WAN one-way fits in 2).
pub const DEFAULT_LIVENESS_BOUND: u64 = 12;

/// The invariant oracle of one application.
#[derive(Clone, Debug)]
pub struct Oracle {
    pub app: &'static str,
    derived: &'static Derived,
    layout: &'static Layout,
    sizing: Sizing,
}

/// Where an oracle derives its checks from: `(name, spec, layout,
/// exceptions)`; each app's checks are derived once per process.
type Source = (
    &'static str,
    fn() -> AppSpec,
    &'static Layout,
    &'static [(&'static str, Phase)],
);

impl Oracle {
    fn derived(
        cell: &'static OnceLock<Derived>,
        (app, spec, layout, exceptions): Source,
        sizing: Sizing,
    ) -> Oracle {
        let derive = || {
            derive_checks(&spec(), layout, exceptions)
                .unwrap_or_else(|e| panic!("{app} oracle: {e}"))
        };
        let derived = cell.get_or_init(derive);
        Oracle {
            app,
            derived,
            layout,
            sizing,
        }
    }

    pub fn checks(&self) -> &'static [Check] {
        &self.derived.checks
    }

    /// Clauses left unchecked, each with the reason.
    pub fn unmapped(&self) -> &'static [(String, &'static str)] {
        &self.derived.unmapped
    }

    /// The replica read back through the layout as an interpretation of
    /// the spec the checks were derived from.
    pub fn interpretation(&self, spec: &AppSpec, replica: &Replica) -> Interpretation {
        self.layout.interpretation(spec, replica, &self.sizing)
    }

    /// Each check of `phase` (for `Final`, every check: a final state
    /// must satisfy everything) with its violations on `replica`.
    fn counts<'a>(
        &'a self,
        replica: &'a Replica,
        phase: Phase,
    ) -> impl Iterator<Item = (&'static Check, u64)> + 'a {
        let objs = self.layout.resolve(replica);
        let audited = self
            .checks()
            .iter()
            .filter(move |c| c.phase == phase || phase == Phase::Final);
        audited.map(move |c| (c, c.plan.count(self.layout, &objs, replica, &self.sizing)))
    }

    pub fn audit(&self, replica: &Replica, phase: Phase) -> AuditReport {
        let per_check = self.counts(replica, phase).collect();
        AuditReport { per_check }
    }

    /// Total violations over the continuous checks only.
    pub fn continuous_violations(&self, replica: &Replica) -> u64 {
        self.counts(replica, Phase::Continuous)
            .map(|(_, n)| n)
            .sum()
    }

    /// Total violations over every check (final + continuous).
    pub fn final_violations(&self, replica: &Replica) -> u64 {
        self.counts(replica, Phase::Final).map(|(_, n)| n).sum()
    }

    /// Adapt the continuous checks into the sim driver's auditor hook.
    pub fn into_continuous_auditor(self) -> Auditor {
        Box::new(move |_region: Region, replica: &Replica| self.continuous_violations(replica))
    }

    /// Tournament (Fig. 1).
    pub fn tournament() -> Oracle {
        static DERIVED: OnceLock<Derived> = OnceLock::new();
        // Final, though no compensation is derived for it: two concurrent
        // finish→begin chains can annihilate both phase marks (each begin
        // observed-removes its branch's `finished` tag, each rem-wins finish
        // defeats the other's `active` add), and the runtime's `status` read
        // compensation restores the finish-prevails outcome.
        let exceptions = &[("active(t)|finished(t)", Phase::Final)];
        let source: Source = ("tournament", tournament_spec, &tourn::LAYOUT, exceptions);
        let named = vec![("Capacity", vec![CAPACITY as i64])];
        Oracle::derived(&DERIVED, source, Sizing::new(Vec::new(), named))
    }

    /// Twitter, for either repair strategy: the layout is the same.
    pub fn twitter() -> Oracle {
        static DERIVED: OnceLock<Derived> = OnceLock::new();
        let source: Source = ("twitter", || twitter_spec(false), &twitter_rt::LAYOUT, &[]);
        Oracle::derived(&DERIVED, source, Sizing::default())
    }

    /// Ticket, whose events and capacity the workload sizes.
    pub fn ticket(entities: Vec<String>, capacity: usize) -> Oracle {
        static DERIVED: OnceLock<Derived> = OnceLock::new();
        let source: Source = ("ticket", ticket_spec, &ticket_rt::LAYOUT, &[]);
        let named = vec![("Capacity", vec![capacity as i64])];
        Oracle::derived(&DERIVED, source, Sizing::new(entities, named))
    }

    /// The escrow-sharded ticket sale: [`Oracle::ticket`]'s spec and
    /// layout, with two exceptions.
    pub fn ticket_escrow(events: Vec<(String, usize)>) -> Oracle {
        static DERIVED: OnceLock<Derived> = OnceLock::new();
        // Continuous, though compensable: rights are taken before a
        // purchase commits, so no causal replica state may exceed a
        // capacity. On the causal axis it is the oversell detector.
        let exceptions = &[("#sold(*,e)<=Capacity", Phase::Continuous)];
        let source: Source = ("ticket-escrow", ticket_spec, &ticket_rt::LAYOUT, exceptions);
        // The sale gives `Capacity` per event: one contended hot event
        // and a cheap tail.
        let (entities, capacities) = events.into_iter().map(|(e, c)| (e, c as i64)).unzip();
        let named = vec![("Capacity", capacities)];
        Oracle::derived(&DERIVED, source, Sizing::new(entities, named))
    }

    /// TPC subset; `items` are the products whose stock is audited.
    pub fn tpc(entities: Vec<String>) -> Oracle {
        static DERIVED: OnceLock<Derived> = OnceLock::new();
        let source: Source = ("tpc", tpc_spec, &tpc_rt::LAYOUT, &[]);
        Oracle::derived(&DERIVED, source, Sizing::new(entities, Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::{ObjectKind, ReplicaId, Val};

    fn all() -> [Oracle; 5] {
        [
            Oracle::tournament(),
            Oracle::twitter(),
            Oracle::ticket(vec!["e0".into()], 10),
            Oracle::ticket_escrow(vec![("s0".into(), 10)]),
            Oracle::tpc(vec!["i0".into()]),
        ]
    }

    #[test]
    fn clean_replica_passes_every_oracle() {
        let r = Replica::new(ReplicaId(0));
        for oracle in all() {
            assert_eq!(oracle.final_violations(&r), 0, "{}", oracle.app);
            assert_eq!(oracle.continuous_violations(&r), 0, "{}", oracle.app);
        }
    }

    #[test]
    fn an_orphan_enrollment_missing_both_ends_counts_once() {
        let mut r = Replica::new(ReplicaId(0));
        let mut tx = r.begin();
        tx.ensure(tourn::ENROLLED, ObjectKind::AWSet).unwrap();
        let orphan = tourn::LAYOUT.member("enrolled", &[Val::str("p1"), Val::str("ghost")]);
        tx.aw_add(tourn::ENROLLED, orphan.unwrap()).unwrap();
        tx.commit();
        let oracle = Oracle::tournament();
        let report = oracle.audit(&r, Phase::Continuous);
        assert_eq!(report.total(), 1);
        let check = report.violated()[0];
        assert_eq!(check.name, "enrolled(p,t)=>player(p)&tournament(t)");
        assert_eq!(check.anomaly, Anomaly::ReferentialOrphan);
        assert_eq!(oracle.into_continuous_auditor()(0, &r), 1);
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
            let seat = tourn::LAYOUT.member("enrolled", &[Val::str(p), Val::str("t")]);
            tx.aw_add(tourn::ENROLLED, seat.unwrap()).unwrap();
        }
        tx.commit();
        let oracle = Oracle::tournament();
        assert_eq!(
            oracle.continuous_violations(&r),
            0,
            "over-capacity is compensable, not a continuous violation"
        );
        let report = oracle.audit(&r, Phase::Final);
        assert_eq!(report.total(), 1, "one over-capacity tournament");
        assert_eq!(report.violated()[0].name, "#enrolled(*,t)<=Capacity");
    }
}
