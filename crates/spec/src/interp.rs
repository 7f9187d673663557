//! Finite interpretations: explicit models used to evaluate formulas.
//!
//! An [`Interpretation`] pairs a finite universe (constants per sort) with a
//! valuation of ground atoms (boolean) and numeric predicate instances. It is
//! the reference semantics for the language: the SAT-based solver in
//! `ipa-solver` is validated against brute-force enumeration of
//! interpretations, and the analysis uses interpretations to report
//! counter-example states (the `Sinit`/`S1`/`S2`/`Sfinal` diagrams of the
//! paper's Figure 2).

use crate::formula::{Formula, NumExpr, Substitution};
use crate::predicate::Atom;
use crate::sorts::{Constant, Sort, Term, Var};
use crate::symbol::Symbol;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A fully ground atom: predicate applied to constants only.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GroundAtom {
    pub pred: Symbol,
    pub args: Vec<Constant>,
}

impl GroundAtom {
    pub fn new(pred: impl Into<Symbol>, args: Vec<Constant>) -> Self {
        GroundAtom {
            pred: pred.into(),
            args,
        }
    }

    /// Convert an [`Atom`] whose arguments are all constants.
    /// Returns `None` if any argument is a variable or wildcard.
    pub fn from_atom(atom: &Atom) -> Option<GroundAtom> {
        let mut args = Vec::with_capacity(atom.args.len());
        for t in &atom.args {
            match t {
                Term::Const(c) => args.push(c.clone()),
                _ => return None,
            }
        }
        Some(GroundAtom {
            pred: atom.pred.clone(),
            args,
        })
    }

    /// Does this ground atom match an atom pattern that may contain
    /// wildcards (and constants)? Variables in the pattern never match.
    pub fn matches_pattern(&self, pattern: &Atom) -> bool {
        self.pred == pattern.pred
            && self.args.len() == pattern.args.len()
            && self.args.iter().zip(&pattern.args).all(|(c, t)| match t {
                Term::Wildcard => true,
                Term::Const(pc) => pc == c,
                Term::Var(_) => false,
            })
    }

    pub fn to_atom(&self) -> Atom {
        Atom::new(
            self.pred.clone(),
            self.args.iter().cloned().map(Term::Const).collect(),
        )
    }
}

impl fmt::Display for GroundAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, c) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for GroundAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A finite model: universes for each sort plus truth values for ground
/// boolean atoms and integer values for ground numeric atoms.
///
/// Atoms absent from the valuation default to *false* / *0* — the
/// closed-world reading used throughout the analysis.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interpretation {
    universe: BTreeMap<Sort, BTreeSet<Constant>>,
    truth: BTreeMap<GroundAtom, bool>,
    numeric: BTreeMap<GroundAtom, i64>,
    /// Values for named symbolic constants (e.g. `Capacity`).
    named: BTreeMap<Symbol, i64>,
}

impl Interpretation {
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Universe management
    // ------------------------------------------------------------------

    /// Add a constant to its sort's universe.
    pub fn add_element(&mut self, c: Constant) {
        self.universe.entry(c.sort.clone()).or_default().insert(c);
    }

    /// All elements of a sort (empty slice view if unknown sort).
    pub fn elements(&self, sort: &Sort) -> impl Iterator<Item = &Constant> {
        self.universe.get(sort).into_iter().flatten()
    }

    pub fn universe(&self) -> &BTreeMap<Sort, BTreeSet<Constant>> {
        &self.universe
    }

    // ------------------------------------------------------------------
    // Valuation
    // ------------------------------------------------------------------

    pub fn set_bool(&mut self, atom: GroundAtom, value: bool) {
        for c in &atom.args {
            self.add_element(c.clone());
        }
        self.truth.insert(atom, value);
    }

    pub fn get_bool(&self, atom: &GroundAtom) -> bool {
        self.truth.get(atom).copied().unwrap_or(false)
    }

    pub fn set_num(&mut self, atom: GroundAtom, value: i64) {
        for c in &atom.args {
            self.add_element(c.clone());
        }
        self.numeric.insert(atom, value);
    }

    pub fn get_num(&self, atom: &GroundAtom) -> i64 {
        self.numeric.get(atom).copied().unwrap_or(0)
    }

    pub fn add_num(&mut self, atom: GroundAtom, delta: i64) {
        let cur = self.get_num(&atom);
        self.set_num(atom, cur + delta);
    }

    pub fn set_named(&mut self, name: impl Into<Symbol>, value: i64) {
        self.named.insert(name.into(), value);
    }

    pub fn get_named(&self, name: &Symbol) -> Option<i64> {
        self.named.get(name).copied()
    }

    /// Iterate over the atoms currently set to true.
    pub fn true_atoms(&self) -> impl Iterator<Item = &GroundAtom> {
        self.truth.iter().filter(|(_, v)| **v).map(|(a, _)| a)
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Evaluate a closed formula. Returns `Err` if the formula has free
    /// variables or references an unknown named constant.
    pub fn eval(&self, f: &Formula) -> Result<bool, EvalError> {
        match f {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Atom(a) => {
                let ga = GroundAtom::from_atom(a).ok_or_else(|| EvalError::open(a))?;
                Ok(self.get_bool(&ga))
            }
            Formula::Cmp(l, op, r) => Ok(op.eval(self.eval_num(l)?, self.eval_num(r)?)),
            Formula::Not(g) => Ok(!self.eval(g)?),
            Formula::And(gs) => {
                for g in gs {
                    if !self.eval(g)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(gs) => {
                for g in gs {
                    if self.eval(g)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Implies(l, r) => Ok(!self.eval(l)? || self.eval(r)?),
            Formula::Forall(vs, body) => self.eval_quant(vs, body, true),
            Formula::Exists(vs, body) => self.eval_quant(vs, body, false),
        }
    }

    fn eval_quant(&self, vs: &[Var], body: &Formula, universal: bool) -> Result<bool, EvalError> {
        let mut assignment: Vec<(Var, Vec<Constant>)> = Vec::with_capacity(vs.len());
        for v in vs {
            let elems: Vec<Constant> = self.elements(&v.sort).cloned().collect();
            assignment.push((v.clone(), elems));
        }
        let mut subst = Substitution::new();
        self.eval_quant_rec(&assignment, 0, body, universal, &mut subst)
    }

    fn eval_quant_rec(
        &self,
        assignment: &[(Var, Vec<Constant>)],
        idx: usize,
        body: &Formula,
        universal: bool,
        subst: &mut Substitution,
    ) -> Result<bool, EvalError> {
        if idx == assignment.len() {
            return self.eval(&body.substitute(subst));
        }
        let (var, elems) = &assignment[idx];
        // Empty universes: forall is vacuously true, exists is false.
        for c in elems {
            subst.insert(var.clone(), Term::Const(c.clone()));
            let v = self.eval_quant_rec(assignment, idx + 1, body, universal, subst)?;
            subst.remove(var);
            if universal && !v {
                return Ok(false);
            }
            if !universal && v {
                return Ok(true);
            }
        }
        Ok(universal)
    }

    /// Evaluate a numeric expression against this interpretation.
    pub fn eval_num(&self, e: &NumExpr) -> Result<i64, EvalError> {
        match e {
            NumExpr::Const(k) => Ok(*k),
            NumExpr::Named(n) => self
                .get_named(n)
                .ok_or_else(|| EvalError::Unknown(n.clone())),
            NumExpr::Value(a) => {
                let ga = GroundAtom::from_atom(a).ok_or_else(|| EvalError::open(a))?;
                Ok(self.get_num(&ga))
            }
            NumExpr::Count(pattern) => {
                if pattern.vars().next().is_some() {
                    return Err(EvalError::open(pattern));
                }
                Ok(self
                    .true_atoms()
                    .filter(|ga| ga.matches_pattern(pattern))
                    .count() as i64)
            }
            NumExpr::Add(l, r) => Ok(self.eval_num(l)? + self.eval_num(r)?),
            NumExpr::Sub(l, r) => Ok(self.eval_num(l)? - self.eval_num(r)?),
        }
    }
}

/// Errors raised when evaluating formulas against an interpretation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// Formula contains a non-ground atom (free variable or a wildcard in a
    /// boolean position).
    OpenAtom(String),
    /// Unknown named constant.
    Unknown(Symbol),
}

impl EvalError {
    fn open(a: &Atom) -> Self {
        EvalError::OpenAtom(a.to_string())
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::OpenAtom(a) => write!(f, "cannot evaluate open atom {a}"),
            EvalError::Unknown(n) => write!(f, "unknown named constant {n}"),
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::CmpOp;

    fn player(n: &str) -> Constant {
        Constant::new(n, Sort::new("Player"))
    }
    fn tourn(n: &str) -> Constant {
        Constant::new(n, Sort::new("Tournament"))
    }

    fn enrolled(p: &str, t: &str) -> GroundAtom {
        GroundAtom::new("enrolled", vec![player(p), tourn(t)])
    }

    #[test]
    fn closed_world_default() {
        let m = Interpretation::new();
        assert!(!m.get_bool(&enrolled("P1", "T1")));
        assert_eq!(m.get_num(&GroundAtom::new("stock", vec![])), 0);
    }

    #[test]
    fn eval_ground_formulas() {
        let mut m = Interpretation::new();
        m.set_bool(enrolled("P1", "T1"), true);
        m.set_bool(GroundAtom::new("player", vec![player("P1")]), true);
        // enrolled(P1,T1) => player(P1): holds
        let f = Formula::implies(
            Formula::Atom(enrolled("P1", "T1").to_atom()),
            Formula::Atom(GroundAtom::new("player", vec![player("P1")]).to_atom()),
        );
        assert!(m.eval(&f).unwrap());
    }

    #[test]
    fn eval_universal_over_universe() {
        let mut m = Interpretation::new();
        m.set_bool(enrolled("P1", "T1"), true);
        m.set_bool(GroundAtom::new("player", vec![player("P1")]), true);
        m.set_bool(GroundAtom::new("tournament", vec![tourn("T1")]), true);
        let p = Var::new("p", Sort::new("Player"));
        let t = Var::new("t", Sort::new("Tournament"));
        let inv = Formula::forall(
            vec![p.clone(), t.clone()],
            Formula::implies(
                Formula::atom("enrolled", vec![p.clone().into(), t.clone().into()]),
                Formula::and([
                    Formula::atom("player", vec![p.clone().into()]),
                    Formula::atom("tournament", vec![t.clone().into()]),
                ]),
            ),
        );
        assert!(m.eval(&inv).unwrap());
        // Remove the tournament: invariant breaks.
        m.set_bool(GroundAtom::new("tournament", vec![tourn("T1")]), false);
        assert!(!m.eval(&inv).unwrap());
    }

    #[test]
    fn eval_exists() {
        let mut m = Interpretation::new();
        m.set_bool(GroundAtom::new("player", vec![player("P1")]), true);
        m.add_element(player("P2"));
        let p = Var::new("p", Sort::new("Player"));
        let ex = Formula::exists(vec![p.clone()], Formula::atom("player", vec![p.into()]));
        assert!(m.eval(&ex).unwrap());
    }

    #[test]
    fn empty_universe_quantifiers() {
        let m = Interpretation::new();
        let p = Var::new("p", Sort::new("Player"));
        let fa = Formula::forall(
            vec![p.clone()],
            Formula::atom("player", vec![p.clone().into()]),
        );
        let ex = Formula::exists(vec![p.clone()], Formula::atom("player", vec![p.into()]));
        assert!(
            m.eval(&fa).unwrap(),
            "forall over empty universe is vacuous"
        );
        assert!(!m.eval(&ex).unwrap(), "exists over empty universe is false");
    }

    #[test]
    fn count_with_wildcard() {
        let mut m = Interpretation::new();
        m.set_bool(enrolled("P1", "T1"), true);
        m.set_bool(enrolled("P2", "T1"), true);
        m.set_bool(enrolled("P3", "T2"), true);
        let count = NumExpr::count("enrolled", vec![Term::Wildcard, Term::Const(tourn("T1"))]);
        assert_eq!(m.eval_num(&count).unwrap(), 2);
        let all = NumExpr::count("enrolled", vec![Term::Wildcard, Term::Wildcard]);
        assert_eq!(m.eval_num(&all).unwrap(), 3);
    }

    #[test]
    fn numeric_invariant_with_named_constant() {
        let mut m = Interpretation::new();
        m.set_named("Capacity", 2);
        m.set_bool(enrolled("P1", "T1"), true);
        m.set_bool(enrolled("P2", "T1"), true);
        let f = Formula::cmp(
            NumExpr::count("enrolled", vec![Term::Wildcard, Term::Const(tourn("T1"))]),
            CmpOp::Le,
            NumExpr::Named(Symbol::new("Capacity")),
        );
        assert!(m.eval(&f).unwrap());
        m.set_bool(enrolled("P3", "T1"), true);
        assert!(!m.eval(&f).unwrap());
    }

    #[test]
    fn numeric_value_and_arith() {
        let mut m = Interpretation::new();
        let stock = GroundAtom::new("stock", vec![Constant::new("I1", Sort::new("Item"))]);
        m.set_num(stock.clone(), 5);
        m.add_num(stock.clone(), -2);
        assert_eq!(m.get_num(&stock), 3);
        let e = NumExpr::Sub(
            Box::new(NumExpr::Value(stock.to_atom())),
            Box::new(NumExpr::Const(3)),
        );
        assert_eq!(m.eval_num(&e).unwrap(), 0);
    }

    #[test]
    fn open_atom_is_an_error() {
        let m = Interpretation::new();
        let p = Var::new("p", Sort::new("Player"));
        let f = Formula::atom("player", vec![p.into()]);
        assert!(matches!(m.eval(&f), Err(EvalError::OpenAtom(_))));
    }

    #[test]
    fn pattern_matching() {
        let ga = enrolled("P1", "T1");
        let pat_any = Atom::new("enrolled", vec![Term::Wildcard, Term::Const(tourn("T1"))]);
        assert!(ga.matches_pattern(&pat_any));
        let pat_other = Atom::new("enrolled", vec![Term::Wildcard, Term::Const(tourn("T2"))]);
        assert!(!ga.matches_pattern(&pat_other));
    }
}
