//! Operation effects: assignments to predicates (§3.1).
//!
//! The paper models operation semantics as assignments to predicates: an
//! effect either sets a boolean predicate instance to true/false
//! (`@True("player(p)")` / `@False("tournament(t)")`) or
//! increments/decrements a numeric predicate. Effect arguments may include
//! the wildcard `*` for "every element" semantics (`enrolled(*, t) = false`).

use crate::formula::Substitution;
use crate::interp::{GroundAtom, Interpretation};
use crate::predicate::Atom;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What an effect does to its target predicate instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum EffectKind {
    /// Set the boolean predicate instance to true (an "add").
    SetTrue,
    /// Set the boolean predicate instance to false (a "remove").
    SetFalse,
    /// Increment a numeric predicate instance by the given amount.
    Inc(i64),
    /// Decrement a numeric predicate instance by the given amount.
    Dec(i64),
}

impl EffectKind {
    /// Do two effect kinds assign opposing boolean values?
    /// (The trigger for consulting convergence rules — Alg. 1, line 8.)
    pub fn opposes(self, other: EffectKind) -> bool {
        matches!(
            (self, other),
            (EffectKind::SetTrue, EffectKind::SetFalse)
                | (EffectKind::SetFalse, EffectKind::SetTrue)
        )
    }

    pub fn is_boolean(self) -> bool {
        matches!(self, EffectKind::SetTrue | EffectKind::SetFalse)
    }

    /// Net numeric delta (0 for boolean effects).
    pub fn delta(self) -> i64 {
        match self {
            EffectKind::Inc(k) => k,
            EffectKind::Dec(k) => -k,
            _ => 0,
        }
    }
}

/// An effect of an operation: a predicate atom (whose arguments are the
/// operation's parameters, constants, or wildcards) plus the assignment kind.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Effect {
    pub atom: Atom,
    pub kind: EffectKind,
}

impl Effect {
    pub fn set_true(atom: Atom) -> Self {
        Effect {
            atom,
            kind: EffectKind::SetTrue,
        }
    }

    pub fn set_false(atom: Atom) -> Self {
        Effect {
            atom,
            kind: EffectKind::SetFalse,
        }
    }

    pub fn inc(atom: Atom, k: i64) -> Self {
        Effect {
            atom,
            kind: EffectKind::Inc(k),
        }
    }

    pub fn dec(atom: Atom, k: i64) -> Self {
        Effect {
            atom,
            kind: EffectKind::Dec(k),
        }
    }

    /// Ground the effect by substituting operation parameters with constants.
    /// Wildcards are preserved (they are resolved against a universe when
    /// the effect is applied or encoded).
    pub fn substitute(&self, s: &Substitution) -> Effect {
        Effect {
            atom: self.atom.substitute(s),
            kind: self.kind,
        }
    }
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            EffectKind::SetTrue => write!(f, "{} := true", self.atom),
            EffectKind::SetFalse => write!(f, "{} := false", self.atom),
            EffectKind::Inc(k) => write!(f, "{} += {k}", self.atom),
            EffectKind::Dec(k) => write!(f, "{} -= {k}", self.atom),
        }
    }
}

impl fmt::Debug for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A ground effect: all non-wildcard arguments are constants.
///
/// Applying a ground effect with wildcards to an [`Interpretation`] touches
/// every matching element of the universe, which is exactly the semantics of
/// the wildcard-capable CRDT operations of §4.2.1.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct GroundEffect {
    pub atom: Atom,
    pub kind: EffectKind,
}

impl GroundEffect {
    /// Build from an [`Effect`] whose variables have been fully substituted.
    /// Returns `None` if any variable remains.
    pub fn from_effect(e: &Effect) -> Option<GroundEffect> {
        if e.atom.vars().next().is_some() {
            return None;
        }
        Some(GroundEffect {
            atom: e.atom.clone(),
            kind: e.kind,
        })
    }

    /// Enumerate the fully ground atoms this effect writes, resolving
    /// wildcards against the interpretation's universe.
    pub fn targets(&self, m: &Interpretation) -> Vec<GroundAtom> {
        expand_wildcards(&self.atom, m)
    }

    /// Apply this effect to an interpretation in place.
    pub fn apply(&self, m: &mut Interpretation) {
        for ga in self.targets(m) {
            match self.kind {
                EffectKind::SetTrue => m.set_bool(ga, true),
                EffectKind::SetFalse => m.set_bool(ga, false),
                EffectKind::Inc(k) => m.add_num(ga, k),
                EffectKind::Dec(k) => m.add_num(ga, -k),
            }
        }
    }
}

impl fmt::Display for GroundEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}",
            Effect {
                atom: self.atom.clone(),
                kind: self.kind
            }
        )
    }
}

/// Expand an atom pattern (constants + wildcards) into all fully ground
/// atoms over the interpretation's universe. Wildcard positions require the
/// position's sort to be inferable from existing atoms; we conservatively
/// expand wildcards over every sort's elements that already appear in that
/// argument position of the predicate, falling back to all known true atoms
/// of the predicate.
fn expand_wildcards(pattern: &Atom, m: &Interpretation) -> Vec<GroundAtom> {
    if !pattern.has_wildcard() {
        return GroundAtom::from_atom(pattern).into_iter().collect();
    }
    // Wildcard semantics for effects: apply to every *currently true*
    // instance matching the fixed positions (for SetFalse / numeric), and —
    // for SetTrue — also to every combination over the known universe.
    // The analysis only ever uses wildcards with SetFalse ("clear all"),
    // mirroring the paper's rem-wins resolution `enrolled(*, t) = false`.
    let mut out: Vec<GroundAtom> = m
        .true_atoms()
        .filter(|ga| ga.matches_pattern(pattern))
        .cloned()
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorts::{Constant, Sort, Term};

    fn player(n: &str) -> Constant {
        Constant::new(n, Sort::new("Player"))
    }
    fn tourn(n: &str) -> Constant {
        Constant::new(n, Sort::new("Tournament"))
    }

    #[test]
    fn opposing_effects() {
        assert!(EffectKind::SetTrue.opposes(EffectKind::SetFalse));
        assert!(EffectKind::SetFalse.opposes(EffectKind::SetTrue));
        assert!(!EffectKind::SetTrue.opposes(EffectKind::SetTrue));
        assert!(!EffectKind::Inc(1).opposes(EffectKind::Dec(1)));
    }

    #[test]
    fn deltas() {
        assert_eq!(EffectKind::Inc(3).delta(), 3);
        assert_eq!(EffectKind::Dec(2).delta(), -2);
        assert_eq!(EffectKind::SetTrue.delta(), 0);
    }

    #[test]
    fn apply_simple_effect() {
        let mut m = Interpretation::new();
        let e = GroundEffect {
            atom: Atom::new("player", vec![Term::Const(player("P1"))]),
            kind: EffectKind::SetTrue,
        };
        e.apply(&mut m);
        assert!(m.get_bool(&GroundAtom::new("player", vec![player("P1")])));
    }

    #[test]
    fn apply_wildcard_clear() {
        let mut m = Interpretation::new();
        m.set_bool(
            GroundAtom::new("enrolled", vec![player("P1"), tourn("T1")]),
            true,
        );
        m.set_bool(
            GroundAtom::new("enrolled", vec![player("P2"), tourn("T1")]),
            true,
        );
        m.set_bool(
            GroundAtom::new("enrolled", vec![player("P1"), tourn("T2")]),
            true,
        );
        // enrolled(*, T1) := false — the paper's Fig. 2c resolution.
        let e = GroundEffect {
            atom: Atom::new("enrolled", vec![Term::Wildcard, Term::Const(tourn("T1"))]),
            kind: EffectKind::SetFalse,
        };
        e.apply(&mut m);
        assert!(!m.get_bool(&GroundAtom::new(
            "enrolled",
            vec![player("P1"), tourn("T1")]
        )));
        assert!(!m.get_bool(&GroundAtom::new(
            "enrolled",
            vec![player("P2"), tourn("T1")]
        )));
        assert!(m.get_bool(&GroundAtom::new(
            "enrolled",
            vec![player("P1"), tourn("T2")]
        )));
    }

    #[test]
    fn numeric_effects_accumulate() {
        let mut m = Interpretation::new();
        let stock = Atom::new(
            "stock",
            vec![Term::Const(Constant::new("I", Sort::new("Item")))],
        );
        GroundEffect {
            atom: stock.clone(),
            kind: EffectKind::Inc(5),
        }
        .apply(&mut m);
        GroundEffect {
            atom: stock.clone(),
            kind: EffectKind::Dec(2),
        }
        .apply(&mut m);
        let ga = GroundAtom::from_atom(&stock).unwrap();
        assert_eq!(m.get_num(&ga), 3);
    }

    #[test]
    fn display_forms() {
        let e = Effect::set_false(Atom::new(
            "enrolled",
            vec![Term::Wildcard, Term::Const(tourn("T1"))],
        ));
        assert_eq!(e.to_string(), "enrolled(*, T1) := false");
        let i = Effect::inc(Atom::new("stock", vec![]), 4);
        assert_eq!(i.to_string(), "stock() += 4");
    }

    #[test]
    fn ground_effect_rejects_open_atoms() {
        let v = crate::sorts::Var::new("p", Sort::new("Player"));
        let e = Effect::set_true(Atom::new("player", vec![Term::Var(v)]));
        assert!(GroundEffect::from_effect(&e).is_none());
    }
}
