//! Candidate generation: the paper's `generate` function (Alg. 1,
//! lines 22–29).
//!
//! For a conflicting pair, the pool of repair ingredients is the set of
//! atoms of the invariant clauses involved in the conflict, with clause
//! variables mapped to the operation's parameters (by unifying the
//! operation's own effect atoms against the clause atoms) and unmapped
//! variables generalized to the wildcard `*` — exactly how
//! `rem_tourn(t)` acquires `enrolled(*, t) := false` in the paper's
//! Figure 2c. Candidates are enumerated in increasing effect-count order
//! so the first verified repairs are minimal.

use ipa_spec::{
    AppSpec, Atom, Effect, Formula, Operation, PredicateKind, Substitution, Symbol, Term,
};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// A candidate repaired pair: one of the two operations extended with
/// `added` effects. The extended side is owned; the other borrows the
/// operation `generate` was given, so a candidate copies nothing it
/// does not change.
#[derive(Clone, Debug)]
pub struct CandidatePair<'a> {
    pub op1: Cow<'a, Operation>,
    pub op2: Cow<'a, Operation>,
    /// Name of the operation that received the new effects.
    pub added_to: Symbol,
    pub added: Vec<Effect>,
}

impl CandidatePair<'_> {
    pub fn added_count(&self) -> usize {
        self.added.len()
    }
}

/// The invariant clauses that can be involved in a conflict between the
/// two operations: those mentioning at least one predicate written by
/// either operation (Alg. 1, line 15 `invClauses`).
pub fn involved_clauses<'a>(
    spec: &'a AppSpec,
    op1: &Operation,
    op2: &Operation,
) -> Vec<&'a Formula> {
    spec.invariants
        .iter()
        .filter(|inv| {
            let preds = inv.predicates();
            preds
                .iter()
                .any(|p| op1.writes_predicate(p) || op2.writes_predicate(p))
        })
        .collect()
}

/// Map clause variables to an operation's parameters by unifying the
/// operation's effect atoms with same-predicate clause atoms
/// (first match wins — sufficient for the specification patterns of the
/// paper's applications).
pub fn clause_to_op_mapping(clause: &Formula, op: &Operation) -> Substitution {
    let mut mapping = Substitution::new();
    let clause_atoms = clause.atoms();
    for eff in op.all_effects() {
        for ca in &clause_atoms {
            if ca.pred != eff.atom.pred || ca.args.len() != eff.atom.args.len() {
                continue;
            }
            for (cv, et) in ca.args.iter().zip(&eff.atom.args) {
                if let Term::Var(v) = cv {
                    mapping.entry(v.clone()).or_insert_with(|| et.clone());
                }
            }
        }
    }
    mapping
}

/// Candidate repair effects for one operation, drawn from the given
/// clauses.
pub fn candidate_effects(spec: &AppSpec, clauses: &[&Formula], op: &Operation) -> Vec<Effect> {
    let mut atoms: BTreeSet<Atom> = BTreeSet::new();
    for clause in clauses {
        let mapping = clause_to_op_mapping(clause, op);
        for ca in clause.atoms() {
            // Only boolean predicates participate in effect repair; numeric
            // invariants are handled by compensations (§3.4).
            match spec.predicate(&ca.pred) {
                Some(d) if d.kind == PredicateKind::Bool => {}
                _ => continue,
            }
            let atom = Atom::new(
                ca.pred.clone(),
                ca.args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => mapping.get(v).cloned().unwrap_or(Term::Wildcard),
                        other => other.clone(),
                    })
                    .collect(),
            );
            // Skip atoms the operation already writes (Alg. 1: "ignoring
            // any predicates that are already present in the operation").
            // Overlap is checked up to wildcards: an added
            // `enrolled(*, t) := false` on `enroll(p, t)` would override
            // the operation's own `enrolled(p, t) := true` and destroy
            // its semantics.
            if op.all_effects().any(|e| atoms_may_alias(&e.atom, &atom)) {
                continue;
            }
            atoms.insert(atom);
        }
    }
    let mut out = Vec::with_capacity(atoms.len() * 2);
    for atom in atoms {
        // SetTrue with a wildcard would mean "create every element" —
        // excluded; wildcard clears mirror the paper's rem-wins repairs.
        if !atom.has_wildcard() {
            out.push(Effect::set_true(atom.clone()));
        }
        out.push(Effect::set_false(atom));
    }
    out
}

/// Enumerate candidate repaired pairs in increasing added-effect order
/// (Alg. 1 line 29), alternating which operation is modified.
pub fn generate<'a>(
    spec: &AppSpec,
    op1: &'a Operation,
    op2: &'a Operation,
    max_added: usize,
) -> Vec<CandidatePair<'a>> {
    let clauses = involved_clauses(spec, op1, op2);
    let cands1 = candidate_effects(spec, &clauses, op1);
    let cands2 = candidate_effects(spec, &clauses, op2);

    let mut out = Vec::new();
    for size in 1..=max_added {
        for combo in combinations(&cands1, size) {
            out.push(CandidatePair {
                op1: Cow::Owned(op1.with_extra_effects(combo.iter().cloned())),
                op2: Cow::Borrowed(op2),
                added_to: op1.name.clone(),
                added: combo,
            });
        }
        // For self-pairs the two candidate streams coincide.
        if op1.name != op2.name {
            for combo in combinations(&cands2, size) {
                out.push(CandidatePair {
                    op1: Cow::Borrowed(op1),
                    op2: Cow::Owned(op2.with_extra_effects(combo.iter().cloned())),
                    added_to: op2.name.clone(),
                    added: combo,
                });
            }
        }
    }
    out
}

/// Can the two (possibly wildcarded) atoms refer to the same ground atom?
/// Conservative: wildcards match anything; identical terms match; two
/// distinct variables are assumed aliasable only when of the same sort
/// (parameters may be instantiated equal).
fn atoms_may_alias(a: &Atom, b: &Atom) -> bool {
    if a.pred != b.pred || a.args.len() != b.args.len() {
        return false;
    }
    a.args.iter().zip(&b.args).all(|(x, y)| match (x, y) {
        (Term::Wildcard, _) | (_, Term::Wildcard) => true,
        (Term::Var(v), Term::Var(w)) => v.sort == w.sort,
        (Term::Const(c), Term::Const(d)) => c == d,
        (Term::Var(_), Term::Const(_)) | (Term::Const(_), Term::Var(_)) => true,
    })
}

/// All `size`-subsets of `items`, in deterministic order.
fn combinations(items: &[Effect], size: usize) -> Vec<Vec<Effect>> {
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..size).collect();
    if size == 0 || size > items.len() {
        return out;
    }
    loop {
        out.push(idx.iter().map(|&i| items[i].clone()).collect());
        // Advance the combination indices.
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + items.len() - size {
                idx[i] += 1;
                for j in i + 1..size {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
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
            .rule("tournament", ConvergencePolicy::AddWins)
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
    fn mapping_binds_clause_vars_to_op_params() {
        let spec = tournament_mini();
        let enroll = spec.operation("enroll").unwrap();
        let clause = &spec.invariants[0];
        let m = clause_to_op_mapping(clause, enroll);
        // Clause vars p and t both bound (to enroll's own parameters).
        assert_eq!(m.len(), 2);
        for t in m.values() {
            assert!(matches!(t, Term::Var(_)));
        }
    }

    #[test]
    fn rem_tourn_gets_wildcard_candidates() {
        let spec = tournament_mini();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        let clauses = involved_clauses(&spec, enroll, rem);
        assert_eq!(clauses.len(), 1);
        let cands = candidate_effects(&spec, &clauses, rem);
        // enrolled(*, t) := false must be among the candidates (Fig. 2c).
        let wildcard_clear = cands.iter().any(|e| {
            e.atom.pred.as_str() == "enrolled"
                && e.atom.has_wildcard()
                && e.kind == EffectKind::SetFalse
        });
        assert!(wildcard_clear, "candidates: {cands:?}");
        // And no wildcard SetTrue is ever generated.
        assert!(!cands
            .iter()
            .any(|e| e.atom.has_wildcard() && e.kind == EffectKind::SetTrue));
    }

    #[test]
    fn enroll_gets_tournament_restore_candidate() {
        let spec = tournament_mini();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        let clauses = involved_clauses(&spec, enroll, rem);
        let cands = candidate_effects(&spec, &clauses, enroll);
        // tournament(t) := true must be among the candidates (Fig. 2b).
        let restore = cands.iter().any(|e| {
            e.atom.pred.as_str() == "tournament"
                && !e.atom.has_wildcard()
                && e.kind == EffectKind::SetTrue
        });
        assert!(restore, "candidates: {cands:?}");
        // Own effects are excluded from the pool.
        assert!(!cands
            .iter()
            .any(|e| e.atom.pred.as_str() == "enrolled" && !e.atom.has_wildcard()));
    }

    #[test]
    fn generation_order_is_by_size() {
        let spec = tournament_mini();
        let enroll = spec.operation("enroll").unwrap();
        let rem = spec.operation("rem_tourn").unwrap();
        let pairs = generate(&spec, enroll, rem, 2);
        assert!(!pairs.is_empty());
        let sizes: Vec<usize> = pairs.iter().map(CandidatePair::added_count).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(
            sizes, sorted,
            "candidates must be ordered by added-effect count"
        );
    }

    #[test]
    fn combinations_enumerates_subsets() {
        let items: Vec<Effect> = ["a", "b", "c"]
            .iter()
            .map(|n| Effect::set_true(Atom::new(*n, vec![])))
            .collect();
        assert_eq!(combinations(&items, 1).len(), 3);
        assert_eq!(combinations(&items, 2).len(), 3);
        assert_eq!(combinations(&items, 3).len(), 1);
        assert!(combinations(&items, 4).is_empty());
        assert!(combinations(&items, 0).is_empty());
    }
}
