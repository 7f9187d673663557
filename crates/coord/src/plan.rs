//! Coordination fallback for unsolvable conflicts (§3, Step 3):
//! "For conflicts flagged as unsolvable by IPA, the programmer can resort
//! to some coordination mechanism to avoid concurrent execution of the
//! offending operations."
//!
//! This module closes that loop mechanically: it converts the analysis'
//! [`FlaggedConflict`](ipa_core::FlaggedConflict)s into a reservation plan — one exclusive
//! reservation per flagged pair, keyed by the entity sorts the two
//! operations share, acquirable through [`crate::ReservationTable`].

use crate::policy::{CoordBackend, LockMode};
use ipa_core::pipeline::AnalysisReport;
use ipa_spec::{Sort, Symbol};
use std::fmt;

/// One planned reservation guarding a flagged operation pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanEntry {
    pub op1: Symbol,
    pub op2: Symbol,
    /// Parameter sorts the two operations share; the reservation is keyed
    /// per entity of these sorts so unrelated entities do not contend.
    pub shared_sorts: Vec<Sort>,
    /// Resource-name prefix (`prefix:arg1:arg2` at runtime).
    pub resource_prefix: String,
    /// The typed mechanism that enforces this entry — for a reservation,
    /// what the runtime hands to [`crate::ReservationTable::acquire`].
    /// The analysis flags pairs it cannot repair, so the default is an
    /// exclusive reservation.
    pub backend: CoordBackend,
}

impl PlanEntry {
    /// The concrete reservation name for a given argument tuple (one
    /// argument per shared sort, in `shared_sorts` order). With no shared
    /// sorts the pair contends on a single global token.
    pub fn resource(&self, args: &[&str]) -> String {
        if self.shared_sorts.is_empty() {
            return self.resource_prefix.clone();
        }
        assert_eq!(
            args.len(),
            self.shared_sorts.len(),
            "one argument per shared sort"
        );
        let mut s = self.resource_prefix.clone();
        for a in args {
            s.push(':');
            s.push_str(a);
        }
        s
    }

    /// Does this entry guard the given operation?
    pub fn guards(&self, op: &Symbol) -> bool {
        self.op1 == *op || self.op2 == *op
    }
}

impl fmt::Display for PlanEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} `{}` (per {}) serializes {} ∥ {}",
            self.backend,
            self.resource_prefix,
            if self.shared_sorts.is_empty() {
                "application".to_owned()
            } else {
                self.shared_sorts
                    .iter()
                    .map(Sort::to_string)
                    .collect::<Vec<_>>()
                    .join("×")
            },
            self.op1,
            self.op2
        )
    }
}

/// The coordination plan for every flagged pair of an analysis report.
#[derive(Clone, Debug, Default)]
pub struct ReservationPlan {
    pub entries: Vec<PlanEntry>,
}

impl ReservationPlan {
    /// All plan entries guarding an operation.
    pub fn entries_for<'a>(&'a self, op: &'a Symbol) -> impl Iterator<Item = &'a PlanEntry> {
        self.entries.iter().filter(move |e| e.guards(op))
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for ReservationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Derive the reservation plan from an analysis report.
pub fn coordination_plan(report: &AnalysisReport) -> ReservationPlan {
    let entries = report
        .flagged
        .iter()
        .map(|flag| {
            let sorts1: Vec<Sort> = report
                .patched
                .operation(flag.op1.as_str())
                .map(|o| o.params.iter().map(|p| p.sort.clone()).collect())
                .unwrap_or_default();
            let shared_sorts: Vec<Sort> = report
                .patched
                .operation(flag.op2.as_str())
                .map(|o| {
                    let mut shared: Vec<Sort> = o
                        .params
                        .iter()
                        .map(|p| p.sort.clone())
                        .filter(|s| sorts1.contains(s))
                        .collect();
                    shared.dedup();
                    shared
                })
                .unwrap_or_default();
            PlanEntry {
                op1: flag.op1.clone(),
                op2: flag.op2.clone(),
                resource_prefix: format!("coord:{}+{}", flag.op1, flag.op2),
                shared_sorts,
                backend: CoordBackend::Reservation(LockMode::Exclusive),
            }
        })
        .collect();
    ReservationPlan { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_core::Analyzer;
    use ipa_spec::{AppSpecBuilder, ConvergencePolicy};

    /// A spec whose only conflict is unsolvable: a mutual-exclusion
    /// invariant with add-wins on both sides and no repair room.
    fn unsolvable_spec() -> ipa_spec::AppSpec {
        AppSpecBuilder::new("mutex")
            .sort("Tournament")
            .predicate_bool("active", &["Tournament"])
            .predicate_bool("finished", &["Tournament"])
            .rule("active", ConvergencePolicy::AddWins)
            .rule("finished", ConvergencePolicy::AddWins)
            .invariant_str("forall(Tournament: t) :- not(active(t) and finished(t))")
            .operation("begin", &[("t", "Tournament")], |op| {
                op.set_true("active", &["t"])
            })
            .operation("finish", &[("t", "Tournament")], |op| {
                op.set_true("finished", &["t"]).set_false("active", &["t"])
            })
            .build()
            .unwrap()
    }

    #[test]
    fn flagged_pairs_become_reservations() {
        let spec = unsolvable_spec();
        let report = Analyzer::for_spec(&spec).analyze(&spec).unwrap();
        if report.flagged.is_empty() {
            // The analysis found a repair after all — nothing to plan.
            assert!(coordination_plan(&report).is_empty());
            return;
        }
        let plan = coordination_plan(&report);
        assert_eq!(plan.entries.len(), report.flagged.len());
        let e = &plan.entries[0];
        assert_eq!(e.backend, CoordBackend::Reservation(LockMode::Exclusive));
        assert_eq!(e.shared_sorts, vec![ipa_spec::Sort::new("Tournament")]);
        assert_eq!(e.resource(&["t1"]), format!("{}:t1", e.resource_prefix));
        assert!(
            e.guards(&ipa_spec::Symbol::new("begin")) || e.guards(&ipa_spec::Symbol::new("finish"))
        );
        let txt = plan.to_string();
        assert!(txt.contains("serializes"), "{txt}");
    }

    #[test]
    fn per_entity_resources_do_not_collide() {
        let e = PlanEntry {
            op1: ipa_spec::Symbol::new("a"),
            op2: ipa_spec::Symbol::new("b"),
            shared_sorts: vec![ipa_spec::Sort::new("T")],
            resource_prefix: "coord:a+b".into(),
            backend: CoordBackend::Reservation(LockMode::Exclusive),
        };
        assert_ne!(e.resource(&["t1"]), e.resource(&["t2"]));
        let global = PlanEntry {
            shared_sorts: vec![],
            ..e.clone()
        };
        assert_eq!(global.resource(&[]), "coord:a+b");
    }
}
