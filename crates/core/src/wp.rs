//! Predicate-transformer machinery: the post-state image of a ground
//! formula under an effect summary.
//!
//! `apply_summary(I, S)` yields a formula over *pre-state* atoms that holds
//! iff `I` holds in the state obtained by applying the summary `S`. Used
//! both for weakest preconditions (`wp(op) = apply_summary(I, effects(op))`
//! — the condition the origin replica establishes, §2.2) and for the
//! invariant evaluated after the concurrent merge (§3.2, Fig. 2).

use crate::summary::EffectSummary;
use ipa_solver::GroundFormula;

/// Substitute assigned atoms by constants and shift counting/numeric atoms
/// by the summary's contributions.
pub fn apply_summary(g: &GroundFormula, s: &EffectSummary) -> GroundFormula {
    match g {
        GroundFormula::True => GroundFormula::True,
        GroundFormula::False => GroundFormula::False,
        GroundFormula::Atom(a) => match s.assigns.get(a) {
            Some(true) => GroundFormula::True,
            Some(false) => GroundFormula::False,
            None => GroundFormula::Atom(*a),
        },
        GroundFormula::Not(inner) => GroundFormula::not(apply_summary(inner, s)),
        GroundFormula::And(gs) => {
            GroundFormula::and(gs.iter().map(|g| apply_summary(g, s)).collect())
        }
        GroundFormula::Or(gs) => {
            GroundFormula::or(gs.iter().map(|g| apply_summary(g, s)).collect())
        }
        GroundFormula::CountCmp {
            atoms,
            offset,
            op,
            rhs,
        } => {
            // Atoms assigned by the summary contribute constants; the rest
            // stay symbolic.
            let mut fixed = 0i64;
            let mut remaining = Vec::with_capacity(atoms.len());
            for a in atoms {
                match s.assigns.get(a) {
                    Some(true) => fixed += 1,
                    Some(false) => {}
                    None => remaining.push(*a),
                }
            }
            GroundFormula::CountCmp {
                atoms: remaining,
                offset: offset + fixed,
                op: *op,
                rhs: *rhs,
            }
        }
        GroundFormula::ValueCmp {
            atom,
            offset,
            op,
            rhs,
        } => {
            let delta = s.deltas.get(atom).copied().unwrap_or(0);
            GroundFormula::ValueCmp {
                atom: *atom,
                offset: offset + delta,
                op: *op,
                rhs: *rhs,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_solver::AtomId;
    use ipa_spec::CmpOp;
    use std::collections::BTreeMap;

    #[test]
    fn assigned_atoms_become_constants() {
        let a = AtomId(0);
        let b = AtomId(1);
        let mut s = EffectSummary::default();
        s.assigns.insert(a, true);
        let g = GroundFormula::and(vec![GroundFormula::Atom(a), GroundFormula::Atom(b)]);
        // `a := true` leaves `True ∧ b`, which the constructor folds.
        let out = apply_summary(&g, &s);
        assert_eq!(out, GroundFormula::Atom(b));
    }

    #[test]
    fn count_atoms_fold_into_offset() {
        let a = AtomId(0);
        let b = AtomId(1);
        let g = GroundFormula::CountCmp {
            atoms: vec![a, b],
            offset: 0,
            op: CmpOp::Le,
            rhs: 1,
        };
        let mut s = EffectSummary::default();
        s.assigns.insert(a, true);
        let out = apply_summary(&g, &s);
        match out {
            GroundFormula::CountCmp { atoms, offset, .. } => {
                assert_eq!(atoms, vec![b]);
                assert_eq!(offset, 1);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Setting the atom false removes it without changing the offset.
        let a = AtomId(0);
        let g = GroundFormula::CountCmp {
            atoms: vec![a],
            offset: 0,
            op: CmpOp::Le,
            rhs: 1,
        };
        let mut s = EffectSummary::default();
        s.assigns.insert(a, false);
        match apply_summary(&g, &s) {
            GroundFormula::CountCmp { atoms, offset, .. } => {
                assert!(atoms.is_empty());
                assert_eq!(offset, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn value_atoms_shift_by_delta() {
        let v = AtomId(2);
        let g = GroundFormula::ValueCmp {
            atom: v,
            offset: 0,
            op: CmpOp::Ge,
            rhs: 0,
        };
        let mut s = EffectSummary::default();
        s.deltas.insert(v, -2);
        match apply_summary(&g, &s) {
            GroundFormula::ValueCmp { offset, .. } => assert_eq!(offset, -2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn post_state_semantics_matches_direct_application() {
        // Reference check: eval(apply_summary(g, s), pre) == eval(g, post)
        let a = AtomId(0);
        let b = AtomId(1);
        let v = AtomId(2);
        let g = GroundFormula::and(vec![
            GroundFormula::Or(vec![GroundFormula::Atom(a), GroundFormula::Atom(b)]),
            GroundFormula::CountCmp {
                atoms: vec![a, b],
                offset: 0,
                op: CmpOp::Le,
                rhs: 1,
            },
            GroundFormula::ValueCmp {
                atom: v,
                offset: 0,
                op: CmpOp::Ge,
                rhs: 1,
            },
        ]);
        let mut s = EffectSummary::default();
        s.assigns.insert(a, true);
        s.deltas.insert(v, 1);

        for bits in 0..4u8 {
            for nv in 0..3i64 {
                let mut pre_b = BTreeMap::new();
                pre_b.insert(a, bits & 1 == 1);
                pre_b.insert(b, bits & 2 == 2);
                let mut pre_n = BTreeMap::new();
                pre_n.insert(v, nv);

                // post state
                let mut post_b = pre_b.clone();
                post_b.insert(a, true);
                let mut post_n = pre_n.clone();
                *post_n.get_mut(&v).unwrap() += 1;

                let lhs = apply_summary(&g, &s).eval(&pre_b, &pre_n);
                let rhs = g.eval(&post_b, &post_n);
                assert_eq!(lhs, rhs, "bits={bits} nv={nv}");
            }
        }
    }
}
