//! Conflict detection: the paper's `isConflicting` (Alg. 1, lines 7–12).
//!
//! A pair of operations conflicts iff there exists an instantiation of
//! their parameters and an `I`-valid state satisfying both operations'
//! weakest preconditions from which the convergence-rule merge of their
//! effects reaches an `I`-invalid state. The existential check is one
//! query per instantiation and merge alternative on the
//! [`AnalysisSession`]'s solver, which already holds `I`: the query adds
//! only the invariant conjuncts the operations change.

use crate::pipeline::AnalysisConfig;
use crate::session::{AnalysisSession, OpId};
use crate::summary::EffectSummary;
use crate::AnalysisError;
use ipa_solver::AtomId;
use ipa_spec::{AppSpec, Constant, Formula, GroundAtom, Interpretation, Operation};

/// A concrete counter-example to `I`-confluence: the paper's Figure 2
/// diagram as data.
#[derive(Clone, Debug)]
pub struct ConflictWitness {
    pub op1: ipa_spec::Symbol,
    pub args1: Vec<Constant>,
    pub op2: ipa_spec::Symbol,
    pub args2: Vec<Constant>,
    /// The `Sinit` state: `I`-valid and satisfying both preconditions.
    pub pre: Interpretation,
    /// The `Sfinal` state after merging both operations' effects.
    pub merged: Interpretation,
    /// The invariant clauses that fail in `merged`.
    pub violated: Vec<Formula>,
    /// Atoms on which the operations wrote opposing values.
    pub contested: Vec<GroundAtom>,
}

impl ConflictWitness {
    /// A short human-readable label `op1(args) ∥ op2(args)`.
    pub fn label(&self) -> String {
        format!(
            "{}({}) ∥ {}({})",
            self.op1,
            join_args(&self.args1),
            self.op2,
            join_args(&self.args2)
        )
    }
}

fn join_args(args: &[Constant]) -> String {
    args.iter()
        .map(|c| c.name.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Decide whether `op1 ∥ op2` can violate the invariant, returning a
/// counter-example if so.
///
/// Builds an [`AnalysisSession`] for the one call; callers with more than
/// one question about the same specification keep a session and use
/// [`AnalysisSession::check_pair`].
pub fn check_pair(
    spec: &AppSpec,
    cfg: &AnalysisConfig,
    op1: &Operation,
    op2: &Operation,
) -> Result<Option<ConflictWitness>, AnalysisError> {
    AnalysisSession::new(spec, cfg)?.check_pair(op1, op2)
}

/// The first conflict of a pair, as the loop of
/// [`AnalysisSession::first_conflict`] finds it. With the model the
/// session's solver found for it, enough to decode a [`ConflictWitness`],
/// and no more.
pub(crate) struct Conflict {
    args1: Vec<Constant>,
    args2: Vec<Constant>,
    contested: Vec<AtomId>,
    merged: EffectSummary,
}

impl AnalysisSession<'_> {
    /// Decide whether `op1 ∥ op2` can violate the invariant, returning a
    /// counter-example if so.
    ///
    /// One instantiation per orbit over the small-scope universe is tested
    /// (rule 5 of the [session](crate::session)); within each, every
    /// deterministic merge alternative (more than one only under
    /// last-writer-wins rules) is one query: `I`, the changed conjuncts of
    /// both weakest preconditions, and the negation of the conjuncts the
    /// merged effects change.
    pub fn check_pair(
        &mut self,
        op1: &Operation,
        op2: &Operation,
    ) -> Result<Option<ConflictWitness>, AnalysisError> {
        let (op1, op2) = (self.intern(op1), self.intern(op2));
        self.witness(op1, op2)
    }

    /// [`AnalysisSession::check_pair`] on operations the session has
    /// named.
    pub(crate) fn witness(
        &mut self,
        op1: OpId,
        op2: OpId,
    ) -> Result<Option<ConflictWitness>, AnalysisError> {
        let Some(c) = self.first_conflict(op1, op2)? else {
            return Ok(None);
        };
        // The last satisfiable query was the conflict's.
        let model = self.solver().model();
        let atoms = &self.atoms;
        let pre = model.to_interpretation(atoms, &self.spec.constants);
        let mut merged = pre.clone();
        for (&a, &v) in &c.merged.assigns {
            merged.set_bool(atoms.atom(a), v);
        }
        for (&a, &d) in &c.merged.deltas {
            merged.add_num(atoms.atom(a), d);
        }
        let violated: Vec<Formula> = self
            .spec
            .invariants
            .iter()
            .filter(|inv| !merged.eval(inv).unwrap_or(true))
            .cloned()
            .collect();
        Ok(Some(ConflictWitness {
            op1: self.op(op1).name.clone(),
            args1: c.args1,
            op2: self.op(op2).name.clone(),
            args2: c.args2,
            pre,
            merged,
            violated,
            contested: c.contested.iter().map(|&a| atoms.atom(a)).collect(),
        }))
    }

    /// Can `op1 ∥ op2` violate the invariant? [`AnalysisSession::check_pair`]
    /// without decoding a witness: what the repair search asks of every
    /// candidate.
    pub fn conflicts(&mut self, op1: &Operation, op2: &Operation) -> Result<bool, AnalysisError> {
        let (op1, op2) = (self.intern(op1), self.intern(op2));
        Ok(self.first_conflict(op1, op2)?.is_some())
    }

    /// The loop behind both questions: the first instantiation and merge
    /// alternative whose query is satisfiable.
    pub(crate) fn first_conflict(
        &mut self,
        op1: OpId,
        op2: OpId,
    ) -> Result<Option<Conflict>, AnalysisError> {
        for case in self.instantiations(op1, op2).iter() {
            let (Some(f1), Some(f2)) = (
                self.footprint_at(op1, case.slot1, &case.args1)?,
                self.footprint_at(op2, case.slot2, &case.args2)?,
            ) else {
                continue;
            };
            if f1.summary.is_empty() && f2.summary.is_empty() {
                continue;
            }
            let alternatives = f1
                .summary
                .merge(&f2.summary, &self.spec.rules, &self.atoms)
                .map_err(|atoms| AnalysisError::TooManyContested {
                    op1: self.op(op1).name.clone(),
                    op2: self.op(op2).name.clone(),
                    atoms,
                })?;
            for merged in alternatives {
                let mut post = std::mem::take(&mut self.post);
                self.image_into(&merged, &mut post);
                let sat = self.ask(f1.wp.iter().chain(&f2.wp), post.iter());
                post.clear();
                self.post = post;
                if sat {
                    return Ok(Some(Conflict {
                        args1: case.args1.clone(),
                        args2: case.args2.clone(),
                        contested: f1.summary.contested_atoms(&f2.summary),
                        merged,
                    }));
                }
            }
        }
        Ok(None)
    }

    /// Does the repaired pair preserve the executability of the original
    /// pair — i.e. `wp(orig1) ∧ wp(orig2) ⇒ wp(cand1) ∧ wp(cand2)` in every
    /// `I`-valid state, for every instantiation? One instantiation per
    /// orbit is asked, as in [`AnalysisSession::check_pair`].
    ///
    /// This is the semantic-preservation side condition of the paper's
    /// repairs ("the additional effect has no impact if there is no
    /// concurrent operation", §3.3): without it the search can "solve" a
    /// conflict degenerately, by adding effects that *narrow* an operation's
    /// weakest precondition until the conflicting pair can no longer legally
    /// co-execute (e.g. giving `enroll` an `inMatch(p,p,t)` effect whose
    /// precondition contradicts `rem_tourn`'s).
    pub fn preserves_executability(
        &mut self,
        orig1: &Operation,
        orig2: &Operation,
        cand1: &Operation,
        cand2: &Operation,
    ) -> Result<bool, AnalysisError> {
        let (cand1, cand2) = (self.intern(cand1), self.intern(cand2));
        let (orig1, orig2) = (self.intern(orig1), self.intern(orig2));
        self.executable(orig1, orig2, cand1, cand2)
    }

    /// [`AnalysisSession::preserves_executability`] on operations the
    /// session has named. A candidate has its original's parameters, so
    /// the two share instantiations and slots.
    pub(crate) fn executable(
        &mut self,
        orig1: OpId,
        orig2: OpId,
        cand1: OpId,
        cand2: OpId,
    ) -> Result<bool, AnalysisError> {
        for case in self.instantiations(orig1, orig2).iter() {
            let (Some(o1), Some(o2)) = (
                self.footprint_at(orig1, case.slot1, &case.args1)?,
                self.footprint_at(orig2, case.slot2, &case.args2)?,
            ) else {
                continue;
            };
            let (Some(c1), Some(c2)) = (
                self.footprint_at(cand1, case.slot1, &case.args1)?,
                self.footprint_at(cand2, case.slot2, &case.args2)?,
            ) else {
                continue;
            };
            // A state where the originals execute but a candidate would not.
            if self.ask(o1.wp.iter().chain(&o2.wp), c1.wp.iter().chain(&c2.wp)) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AnalysisConfig;
    use ipa_spec::{AppSpecBuilder, ConvergencePolicy};

    /// The paper's running example, reduced to the referential-integrity
    /// invariant and the two conflicting operations of Figure 2.
    fn tournament_mini() -> AppSpec {
        AppSpecBuilder::new("tournament-mini")
            .sort("Player")
            .sort("Tournament")
            .predicate_bool("player", &["Player"])
            .predicate_bool("tournament", &["Tournament"])
            .predicate_bool("enrolled", &["Player", "Tournament"])
            .rule("tournament", ConvergencePolicy::AddWins)
            .rule("enrolled", ConvergencePolicy::AddWins)
            .invariant_str(
                "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
            )
            .operation("enroll", &[("p", "Player"), ("t", "Tournament")], |op| {
                op.set_true("enrolled", &["p", "t"])
            })
            .operation("rem_tourn", &[("t", "Tournament")], |op| {
                op.set_false("tournament", &["t"])
            })
            .build()
            .unwrap()
    }

    #[test]
    fn figure_2a_conflict_is_detected() {
        let spec = tournament_mini();
        let cfg = AnalysisConfig::default();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        let w = check_pair(&spec, &cfg, enroll, rem)
            .unwrap()
            .expect("must conflict");
        assert_eq!(w.op1.as_str(), "enroll");
        assert_eq!(w.op2.as_str(), "rem_tourn");
        assert_eq!(w.violated.len(), 1);
        // The pre-state satisfies the invariant, the merged state does not.
        let inv = &spec.invariants[0];
        assert!(w.pre.eval(inv).unwrap());
        assert!(!w.merged.eval(inv).unwrap());
    }

    #[test]
    fn figure_2b_resolution_is_not_conflicting() {
        // enroll extended with tournament(t) := true under add-wins.
        let spec = AppSpecBuilder::new("tournament-fixed")
            .sort("Player")
            .sort("Tournament")
            .predicate_bool("player", &["Player"])
            .predicate_bool("tournament", &["Tournament"])
            .predicate_bool("enrolled", &["Player", "Tournament"])
            .rule("tournament", ConvergencePolicy::AddWins)
            .invariant_str(
                "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
            )
            .operation("enroll", &[("p", "Player"), ("t", "Tournament")], |op| {
                op.set_true("enrolled", &["p", "t"])
                    .set_true("tournament", &["t"])
            })
            .operation("rem_tourn", &[("t", "Tournament")], |op| {
                op.set_false("tournament", &["t"])
            })
            .build()
            .unwrap();
        let cfg = AnalysisConfig::default();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        // enroll ∥ rem_tourn no longer conflicts: the add-wins tournament
        // restore masks the concurrent removal (Fig. 2b).
        assert!(check_pair(&spec, &cfg, enroll, rem).unwrap().is_none());
    }

    #[test]
    fn figure_2c_rem_wins_resolution_is_not_conflicting() {
        // rem_tourn extended with enrolled(*, t) := false under rem-wins.
        let spec = AppSpecBuilder::new("tournament-fixed-rw")
            .sort("Player")
            .sort("Tournament")
            .predicate_bool("player", &["Player"])
            .predicate_bool("tournament", &["Tournament"])
            .predicate_bool("enrolled", &["Player", "Tournament"])
            .rule("enrolled", ConvergencePolicy::RemWins)
            .invariant_str(
                "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
            )
            .operation("enroll", &[("p", "Player"), ("t", "Tournament")], |op| {
                op.set_true("enrolled", &["p", "t"])
            })
            .operation("rem_tourn", &[("t", "Tournament")], |op| {
                op.set_false("tournament", &["t"])
                    .set_false("enrolled", &["*", "t"])
            })
            .build()
            .unwrap();
        let cfg = AnalysisConfig::default();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        assert!(check_pair(&spec, &cfg, enroll, rem).unwrap().is_none());
    }

    #[test]
    fn add_wins_enrolled_does_not_save_wildcard_clear() {
        // Same as 2c but enrolled is add-wins: the wildcard clear loses to
        // the concurrent enroll, so the conflict persists.
        let spec = AppSpecBuilder::new("tournament-broken-aw")
            .sort("Player")
            .sort("Tournament")
            .predicate_bool("player", &["Player"])
            .predicate_bool("tournament", &["Tournament"])
            .predicate_bool("enrolled", &["Player", "Tournament"])
            .rule("enrolled", ConvergencePolicy::AddWins)
            .invariant_str(
                "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
            )
            .operation("enroll", &[("p", "Player"), ("t", "Tournament")], |op| {
                op.set_true("enrolled", &["p", "t"])
            })
            .operation("rem_tourn", &[("t", "Tournament")], |op| {
                op.set_false("tournament", &["t"])
                    .set_false("enrolled", &["*", "t"])
            })
            .build()
            .unwrap();
        let cfg = AnalysisConfig::default();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        assert!(check_pair(&spec, &cfg, enroll, rem).unwrap().is_some());
    }

    #[test]
    fn non_interacting_ops_do_not_conflict() {
        let spec = tournament_mini();
        let cfg = AnalysisConfig::default();
        let enroll = spec.operation("enroll").unwrap();
        assert!(check_pair(&spec, &cfg, enroll, enroll).unwrap().is_none());
    }

    #[test]
    fn mutual_exclusion_invariant_detects_lww_style_race() {
        // not(active(t) and finished(t)) with begin/finish racing.
        let spec = AppSpecBuilder::new("mutex")
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
            .unwrap();
        let cfg = AnalysisConfig::default();
        let begin = spec.operation("begin").unwrap();
        let finish = spec.operation("finish").unwrap();
        // begin ∥ finish: active contested (true vs false), add-wins keeps
        // it true while finished also becomes true → violation.
        let w = check_pair(&spec, &cfg, begin, finish).unwrap();
        assert!(w.is_some());
        assert!(!w.unwrap().contested.is_empty());
    }

    #[test]
    fn value_invariant_conflict_detected_by_sat_path() {
        // stock(i) >= 0 with two concurrent decrements.
        let spec = AppSpecBuilder::new("stock")
            .sort("Item")
            .predicate_num("stock", &["Item"])
            .invariant_str("forall(Item: i) :- stock(i) >= 0")
            .operation("buy", &[("i", "Item")], |op| op.dec("stock", &["i"], 1))
            .build()
            .unwrap();
        let cfg = AnalysisConfig::default();
        let buy = spec.operation("buy").unwrap();
        let w = check_pair(&spec, &cfg, buy, buy)
            .unwrap()
            .expect("buy ∥ buy conflicts");
        // Witness: pre-stock 1, both decrements => -1.
        let inv = &spec.invariants[0];
        assert!(w.pre.eval(inv).unwrap());
        assert!(!w.merged.eval(inv).unwrap());
    }
}
