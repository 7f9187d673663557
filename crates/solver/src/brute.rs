//! Brute-force reference solvers used to cross-validate the CDCL solver
//! and the Tseitin encoding in tests and property tests.

use crate::cnf::Cnf;
use crate::ground::{AtomId, GroundFormula};
use std::collections::BTreeMap;

/// Exhaustively decide satisfiability of a CNF (≤ ~24 variables).
pub fn cnf_satisfiable(cnf: &Cnf) -> Option<Vec<bool>> {
    let n = cnf.num_vars() as usize;
    assert!(n <= 24, "brute force limited to 24 variables, got {n}");
    for bits in 0u64..(1u64 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        if cnf.eval(&assignment) {
            return Some(assignment);
        }
    }
    None
}

/// Exhaustively decide satisfiability of a ground formula by enumerating
/// all boolean-atom assignments and numeric-atom values in `[0, num_bound]`.
pub fn formula_satisfiable(
    f: &GroundFormula,
    num_bound: i64,
) -> Option<(BTreeMap<AtomId, bool>, BTreeMap<AtomId, i64>)> {
    let bool_atoms: Vec<AtomId> = f.bool_atoms().into_iter().collect();
    let num_atoms: Vec<AtomId> = f.num_atoms().into_iter().collect();
    let nb = bool_atoms.len();
    assert!(
        nb <= 16,
        "brute force limited to 16 boolean atoms, got {nb}"
    );
    assert!(
        num_atoms.len() <= 3,
        "brute force limited to 3 numeric atoms"
    );
    let dom = (num_bound + 1) as usize;
    let num_combos = dom.pow(num_atoms.len() as u32);

    for bits in 0u64..(1u64 << nb) {
        let bools: BTreeMap<AtomId, bool> = bool_atoms
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, bits >> i & 1 == 1))
            .collect();
        for combo in 0..num_combos {
            let mut rem = combo;
            let mut nums = BTreeMap::new();
            for &a in &num_atoms {
                nums.insert(a, (rem % dom) as i64);
                rem /= dom;
            }
            if f.eval(&bools, &nums) {
                return Some((bools, nums));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::SatVar;

    #[test]
    fn brute_cnf_agrees_on_tiny_cases() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        cnf.add_clause([a.positive(), b.positive()]);
        cnf.add_clause([a.negative(), b.negative()]);
        let m = cnf_satisfiable(&cnf).expect("xor-ish is sat");
        assert!(cnf.eval(&m));

        let mut unsat = Cnf::new();
        let v = unsat.fresh_var();
        unsat.add_clause([v.positive()]);
        unsat.add_clause([v.negative()]);
        assert!(cnf_satisfiable(&unsat).is_none());
        let _ = SatVar(0);
    }

    #[test]
    fn brute_formula_finds_numeric_models() {
        let stock = AtomId(0);
        let f = GroundFormula::and(vec![
            GroundFormula::ValueCmp {
                atom: stock,
                offset: 0,
                op: ipa_spec::CmpOp::Ge,
                rhs: 2,
            },
            GroundFormula::ValueCmp {
                atom: stock,
                offset: 0,
                op: ipa_spec::CmpOp::Le,
                rhs: 2,
            },
        ]);
        let (_, nums) = formula_satisfiable(&f, 4).expect("stock == 2");
        assert_eq!(nums.get(&stock), Some(&2));
    }
}
