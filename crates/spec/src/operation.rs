//! Operations: named procedures with typed parameters and predicate effects.

use crate::effects::{Effect, EffectKind, GroundEffect};
use crate::formula::{Formula, Substitution};
use crate::sorts::{Constant, Term, Var};
use crate::symbol::Symbol;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An application operation, e.g.
/// `enroll(p: Player, t: Tournament) { enrolled(p,t) := true }`.
///
/// Effects are the abstraction of the operation's transaction code (§2.1):
/// the set of updates produced by executing it at the origin replica. The
/// analysis may *augment* this effect list to make the operation
/// invariant-preserving (§3.2), which is reflected by [`Operation::with_extra_effects`].
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Operation {
    pub name: Symbol,
    pub params: Vec<Var>,
    pub effects: Vec<Effect>,
    /// Effects added by the IPA repair step (kept separate so reports can
    /// show exactly what the analysis changed).
    pub added_effects: Vec<Effect>,
}

impl Operation {
    pub fn new(name: impl Into<Symbol>, params: Vec<Var>, effects: Vec<Effect>) -> Self {
        Operation {
            name: name.into(),
            params,
            effects,
            added_effects: Vec::new(),
        }
    }

    /// All effects: original plus analysis-added, in application order.
    pub fn all_effects(&self) -> impl Iterator<Item = &Effect> {
        self.effects.iter().chain(self.added_effects.iter())
    }

    /// A copy of this operation with extra (repair) effects appended.
    /// Effects already present (same atom and kind) are not duplicated.
    pub fn with_extra_effects(&self, extra: impl IntoIterator<Item = Effect>) -> Operation {
        let mut op = self.clone();
        for e in extra {
            if !op.all_effects().any(|have| *have == e) {
                op.added_effects.push(e);
            }
        }
        op
    }

    /// Total number of effects (used for the minimality ordering of
    /// generated repairs — Alg. 1, line 29).
    pub fn effect_count(&self) -> usize {
        self.effects.len() + self.added_effects.len()
    }

    /// Ground this operation's effects by binding each parameter to the
    /// given constant. Panics if the argument count mismatches; returns
    /// `None` if a sort mismatches.
    pub fn ground(&self, args: &[Constant]) -> Option<Vec<GroundEffect>> {
        assert_eq!(
            args.len(),
            self.params.len(),
            "operation {} expects {} arguments",
            self.name,
            self.params.len()
        );
        let mut subst = Substitution::new();
        for (p, a) in self.params.iter().zip(args) {
            if p.sort != a.sort {
                return None;
            }
            subst.insert(p.clone(), Term::Const(a.clone()));
        }
        let mut out = Vec::with_capacity(self.effects.len() + self.added_effects.len());
        for e in self.all_effects() {
            let ge = GroundEffect::from_effect(&e.substitute(&subst))?;
            out.push(ge);
        }
        Some(out)
    }

    /// The substitution binding the operation's parameters to constants.
    pub fn binding(&self, args: &[Constant]) -> Substitution {
        self.params
            .iter()
            .zip(args)
            .map(|(p, a)| (p.clone(), Term::Const(a.clone())))
            .collect()
    }

    /// Does this operation write (set true/false or inc/dec) the given
    /// predicate?
    pub fn writes_predicate(&self, pred: &Symbol) -> bool {
        self.all_effects().any(|e| e.atom.pred == *pred)
    }

    /// The *naive precondition* of the operation implied by its own effects:
    /// an operation that sets `pred(args) := true` is intended to run in
    /// states where its arguments denote existing entities. The true
    /// weakest precondition w.r.t. an invariant is computed by
    /// `ipa-core::precondition`; this helper only states the effects'
    /// post-state as a formula for reporting.
    pub fn post_formula(&self) -> Formula {
        let mut conjuncts = Vec::new();
        for e in self.all_effects() {
            match e.kind {
                EffectKind::SetTrue => conjuncts.push(Formula::Atom(e.atom.clone())),
                EffectKind::SetFalse => conjuncts.push(Formula::not(Formula::Atom(e.atom.clone()))),
                // Numeric effects do not define a boolean post-state.
                EffectKind::Inc(_) | EffectKind::Dec(_) => {}
            }
        }
        Formula::and(conjuncts)
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", p.name, p.sort)?;
        }
        write!(f, ") {{ ")?;
        for (i, e) in self.all_effects().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, " }}")
    }
}

impl fmt::Debug for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Atom;
    use crate::sorts::Sort;

    fn enroll() -> Operation {
        let p = Var::new("p", Sort::new("Player"));
        let t = Var::new("t", Sort::new("Tournament"));
        Operation::new(
            "enroll",
            vec![p.clone(), t.clone()],
            vec![Effect::set_true(Atom::new(
                "enrolled",
                vec![p.into(), t.into()],
            ))],
        )
    }

    #[test]
    fn ground_binds_parameters() {
        let op = enroll();
        let p1 = Constant::new("P1", Sort::new("Player"));
        let t1 = Constant::new("T1", Sort::new("Tournament"));
        let ges = op.ground(&[p1, t1]).unwrap();
        assert_eq!(ges.len(), 1);
        assert_eq!(ges[0].atom.to_string(), "enrolled(P1, T1)");
    }

    #[test]
    fn ground_rejects_sort_mismatch() {
        let op = enroll();
        let bad = Constant::new("X", Sort::new("Item"));
        let t1 = Constant::new("T1", Sort::new("Tournament"));
        assert!(op.ground(&[bad, t1]).is_none());
    }

    #[test]
    fn extra_effects_are_deduplicated() {
        let op = enroll();
        let t = Var::new("t", Sort::new("Tournament"));
        let extra = Effect::set_true(Atom::new("tournament", vec![t.clone().into()]));
        let patched = op.with_extra_effects([extra.clone(), extra.clone()]);
        assert_eq!(patched.added_effects.len(), 1);
        assert_eq!(patched.effect_count(), 2);
        // Adding an effect that already exists in the original set is a no-op.
        let p = Var::new("p", Sort::new("Player"));
        let original = Effect::set_true(Atom::new("enrolled", vec![p.into(), t.into()]));
        let patched2 = patched.with_extra_effects([original]);
        assert_eq!(patched2.effect_count(), 2);
    }

    #[test]
    fn display_shows_signature_and_effects() {
        let op = enroll();
        assert_eq!(
            op.to_string(),
            "enroll(p: Player, t: Tournament) { enrolled(p, t) := true }"
        );
    }

    #[test]
    fn writes_predicate_query() {
        let op = enroll();
        assert!(op.writes_predicate(&Symbol::new("enrolled")));
        assert!(!op.writes_predicate(&Symbol::new("player")));
    }

    #[test]
    fn post_formula_of_mixed_effects() {
        let t = Var::new("t", Sort::new("Tournament"));
        let op = Operation::new(
            "rem_tourn",
            vec![t.clone()],
            vec![
                Effect::set_false(Atom::new("tournament", vec![t.clone().into()])),
                Effect::dec(Atom::new("tcount", vec![]), 1),
            ],
        );
        assert_eq!(op.post_formula().to_string(), "not(tournament(t))");
    }
}
