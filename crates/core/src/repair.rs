//! Conflict repair: the paper's `repairConflicts` (Alg. 1, lines 13–21).

use crate::generate::{generate, CandidatePair};
use crate::pipeline::AnalysisConfig;
use crate::session::AnalysisSession;
use crate::AnalysisError;
use ipa_spec::{AppSpec, Effect, Operation, Symbol};
use std::fmt;

/// A verified repair: the modified pair no longer conflicts.
#[derive(Clone, Debug)]
pub struct Resolution {
    pub op1: Operation,
    pub op2: Operation,
    /// The operation that received new effects.
    pub added_to: Symbol,
    /// The effects added by the repair.
    pub added: Vec<Effect>,
}

impl Resolution {
    /// Which original operation "prevails" under this resolution: adding
    /// restore effects to an operation makes *its* semantics win over the
    /// concurrent one (§3.3).
    pub fn prevailing(&self) -> &Symbol {
        &self.added_to
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "extend {} with ", self.added_to)?;
        for (i, e) in self.added.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, " ({} prevails)", self.added_to)
    }
}

/// How the analysis picks among verified resolutions when running
/// unattended. (Interactively, the paper's tool shows all solutions and
/// lets the programmer choose; [`repair_conflicts`] returns the full list
/// so callers can implement that flow.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResolutionPolicy {
    /// Fewest added effects; ties broken in favour of modifying the first
    /// operation of the pair.
    #[default]
    Minimal,
    /// Prefer resolutions that make the first operation's effects prevail
    /// (i.e. that modify the first operation).
    FirstWins,
    /// Prefer resolutions that make the second operation's effects prevail.
    SecondWins,
}

/// Pick one resolution according to policy. `None` when no resolutions.
pub fn pick_resolution(
    mut sols: Vec<Resolution>,
    policy: ResolutionPolicy,
    op1: &Symbol,
) -> Option<Resolution> {
    if sols.is_empty() {
        return None;
    }
    sols.sort_by_key(|r| r.added.len());
    match policy {
        ResolutionPolicy::Minimal => {
            let min = sols[0].added.len();
            sols.into_iter().find(|r| r.added.len() == min)
        }
        ResolutionPolicy::FirstWins => {
            let preferred = sols.iter().position(|r| r.added_to == *op1);
            match preferred {
                Some(i) => Some(sols.swap_remove(i)),
                None => sols.into_iter().next(),
            }
        }
        ResolutionPolicy::SecondWins => {
            let preferred = sols.iter().position(|r| r.added_to != *op1);
            match preferred {
                Some(i) => Some(sols.swap_remove(i)),
                None => sols.into_iter().next(),
            }
        }
    }
}

/// Find all minimal verified repairs for a conflicting pair.
///
/// Builds an [`AnalysisSession`] for the one call; see
/// [`AnalysisSession::repair_conflicts`].
pub fn repair_conflicts(
    spec: &AppSpec,
    cfg: &AnalysisConfig,
    op1: &Operation,
    op2: &Operation,
) -> Result<Vec<Resolution>, AnalysisError> {
    AnalysisSession::new(spec, cfg)?.repair_conflicts(op1, op2)
}

impl AnalysisSession<'_> {
    /// Find all minimal verified repairs for a conflicting pair.
    ///
    /// Candidates are tested in increasing size; a candidate whose added set
    /// is a superset of an already-verified solution (for the same target
    /// operation) is skipped — the `isPairSubset` minimality pruning of
    /// Alg. 1 line 18.
    pub fn repair_conflicts(
        &mut self,
        op1: &Operation,
        op2: &Operation,
    ) -> Result<Vec<Resolution>, AnalysisError> {
        self.renew_solver();
        let (id1, id2) = (self.intern(op1), self.intern(op2));
        let mut sols: Vec<Resolution> = Vec::new();
        for cand in generate(self.spec, op1, op2, self.cfg.max_added_effects) {
            if is_pair_subset(&cand, &sols) {
                continue;
            }
            // `generate` extends the first operation under its name, and
            // the second only when the names differ; the extended side is
            // the candidate's one owned operation, moved here.
            let (c1, c2, extended) = if cand.added_to == op1.name {
                let c1 = self.extend(id1, cand.op1.into_owned());
                (c1, id2, c1)
            } else {
                let c2 = self.extend(id2, cand.op2.into_owned());
                (id1, c2, c2)
            };
            // Reject degenerate repairs that narrow an operation's weakest
            // precondition (the paper's repairs must preserve the original
            // semantics when no conflict occurs, §3.3).
            if self.executable(id1, id2, c1, c2)? && self.first_conflict(c1, c2)?.is_none() {
                self.keep(extended);
                sols.push(Resolution {
                    op1: self.op(c1).clone(),
                    op2: self.op(c2).clone(),
                    added_to: cand.added_to,
                    added: cand.added,
                });
            } else {
                // A rejected candidate is never asked about again.
                self.forget(extended);
            }
        }
        Ok(sols)
    }
}

/// Does the candidate's added-effect set extend some known solution on the
/// same operation?
fn is_pair_subset(cand: &CandidatePair<'_>, sols: &[Resolution]) -> bool {
    sols.iter()
        .any(|s| s.added_to == cand.added_to && s.added.iter().all(|e| cand.added.contains(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_spec::{AppSpecBuilder, ConvergencePolicy, EffectKind};

    fn tournament_mini() -> AppSpec {
        AppSpecBuilder::new("tournament-mini")
            .sort("Player")
            .sort("Tournament")
            .predicate_bool("player", &["Player"])
            .predicate_bool("tournament", &["Tournament"])
            .predicate_bool("enrolled", &["Player", "Tournament"])
            .rule("player", ConvergencePolicy::AddWins)
            .rule("tournament", ConvergencePolicy::AddWins)
            .rule("enrolled", ConvergencePolicy::RemWins)
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
    fn both_paper_resolutions_are_found() {
        let spec = tournament_mini();
        let cfg = AnalysisConfig::default();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        let sols = repair_conflicts(&spec, &cfg, enroll, rem).unwrap();
        assert!(!sols.is_empty(), "at least one repair must exist");

        // Figure 2b: enroll += tournament(t) := true.
        let fig2b = sols.iter().any(|r| {
            r.added_to.as_str() == "enroll"
                && r.added
                    .iter()
                    .any(|e| e.atom.pred.as_str() == "tournament" && e.kind == EffectKind::SetTrue)
        });
        // Figure 2c: rem_tourn += enrolled(*, t) := false (rem-wins rule).
        let fig2c = sols.iter().any(|r| {
            r.added_to.as_str() == "rem_tourn"
                && r.added.iter().any(|e| {
                    e.atom.pred.as_str() == "enrolled"
                        && e.atom.has_wildcard()
                        && e.kind == EffectKind::SetFalse
                })
        });
        assert!(fig2b, "missing Fig. 2b resolution; got {sols:?}");
        assert!(fig2c, "missing Fig. 2c resolution; got {sols:?}");

        // All returned resolutions genuinely remove the conflict.
        for r in &sols {
            assert!(
                crate::conflict::check_pair(&spec, &cfg, &r.op1, &r.op2)
                    .unwrap()
                    .is_none(),
                "resolution {r} does not fix the pair"
            );
        }
    }

    #[test]
    fn minimality_pruning_keeps_small_solutions() {
        let spec = tournament_mini();
        let cfg = AnalysisConfig::default();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        let sols = repair_conflicts(&spec, &cfg, enroll, rem).unwrap();
        // No solution strictly extends another on the same op.
        for (i, a) in sols.iter().enumerate() {
            for (j, b) in sols.iter().enumerate() {
                if i != j && a.added_to == b.added_to {
                    let subset = a.added.iter().all(|e| b.added.contains(e));
                    assert!(
                        !(subset && a.added.len() < b.added.len()),
                        "{b} is a superset of {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn policies_pick_expected_side() {
        let spec = tournament_mini();
        let cfg = AnalysisConfig::default();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        let sols = repair_conflicts(&spec, &cfg, enroll, rem).unwrap();
        let first =
            pick_resolution(sols.clone(), ResolutionPolicy::FirstWins, &enroll.name).unwrap();
        assert_eq!(first.added_to.as_str(), "enroll");
        let second =
            pick_resolution(sols.clone(), ResolutionPolicy::SecondWins, &enroll.name).unwrap();
        assert_eq!(second.added_to.as_str(), "rem_tourn");
        let minimal = pick_resolution(sols, ResolutionPolicy::Minimal, &enroll.name).unwrap();
        assert_eq!(minimal.added.len(), 1);
    }

    #[test]
    fn empty_solutions_yield_none() {
        assert!(pick_resolution(vec![], ResolutionPolicy::Minimal, &Symbol::new("x")).is_none());
    }
}
