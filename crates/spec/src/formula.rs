//! First-order formulas: the invariant language of IPA (§3.1).
//!
//! The language covers every invariant class of the paper's Table 1:
//! referential integrity and disjunctions (boolean structure), aggregation
//! constraints and numeric invariants (comparison atoms over counts and
//! numeric predicates), and uniqueness (expressible with equality-free
//! clauses over pre-partitioned identifier predicates).

use crate::predicate::Atom;
use crate::sorts::{Constant, Term, Var};
use crate::symbol::Symbol;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A variable-to-term mapping used for substitution / grounding.
pub type Substitution = HashMap<Var, Term>;

/// Comparison operators for numeric atoms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CmpOp {
    Le,
    Lt,
    Ge,
    Gt,
    Eq,
    Ne,
}

impl CmpOp {
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Le => lhs <= rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }

    /// The operator with the two sides swapped (`a <= b` ⇔ `b >= a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Le => "<=",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// Numeric expressions usable inside comparison atoms.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum NumExpr {
    /// Integer literal.
    Const(i64),
    /// A named symbolic constant (e.g. `Capacity`) resolved by the
    /// [`crate::AppSpec`]'s constant table.
    Named(Symbol),
    /// `#pred(args)` — the number of true ground instances matching the
    /// argument pattern; wildcard positions range over the universe.
    Count(Atom),
    /// The integer value of a numeric predicate instance, e.g. `stock(i)`.
    Value(Atom),
    /// Sum of two numeric expressions.
    Add(Box<NumExpr>, Box<NumExpr>),
    /// Difference of two numeric expressions.
    Sub(Box<NumExpr>, Box<NumExpr>),
}

impl NumExpr {
    pub fn count(pred: impl Into<Symbol>, args: Vec<Term>) -> Self {
        NumExpr::Count(Atom::new(pred, args))
    }

    pub fn value(pred: impl Into<Symbol>, args: Vec<Term>) -> Self {
        NumExpr::Value(Atom::new(pred, args))
    }

    /// Collect free variables into `out`.
    fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            NumExpr::Const(_) | NumExpr::Named(_) => {}
            NumExpr::Count(a) | NumExpr::Value(a) => out.extend(a.vars().cloned()),
            NumExpr::Add(l, r) | NumExpr::Sub(l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
        }
    }

    pub fn substitute(&self, s: &Substitution) -> NumExpr {
        match self {
            NumExpr::Const(_) | NumExpr::Named(_) => self.clone(),
            NumExpr::Count(a) => NumExpr::Count(a.substitute(s)),
            NumExpr::Value(a) => NumExpr::Value(a.substitute(s)),
            NumExpr::Add(l, r) => {
                NumExpr::Add(Box::new(l.substitute(s)), Box::new(r.substitute(s)))
            }
            NumExpr::Sub(l, r) => {
                NumExpr::Sub(Box::new(l.substitute(s)), Box::new(r.substitute(s)))
            }
        }
    }

    /// All atoms mentioned in this expression (counts and values).
    pub fn atoms(&self) -> Vec<&Atom> {
        match self {
            NumExpr::Const(_) | NumExpr::Named(_) => vec![],
            NumExpr::Count(a) | NumExpr::Value(a) => vec![a],
            NumExpr::Add(l, r) | NumExpr::Sub(l, r) => {
                let mut v = l.atoms();
                v.extend(r.atoms());
                v
            }
        }
    }
}

impl fmt::Display for NumExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumExpr::Const(k) => write!(f, "{k}"),
            NumExpr::Named(n) => write!(f, "{n}"),
            NumExpr::Count(a) => write!(f, "#{a}"),
            NumExpr::Value(a) => write!(f, "{a}"),
            NumExpr::Add(l, r) => write!(f, "({l} + {r})"),
            NumExpr::Sub(l, r) => write!(f, "({l} - {r})"),
        }
    }
}

/// A first-order formula over boolean predicate atoms and numeric
/// comparison atoms.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Formula {
    True,
    False,
    /// Boolean predicate instance.
    Atom(Atom),
    /// Numeric comparison atom.
    Cmp(NumExpr, CmpOp, NumExpr),
    Not(Box<Formula>),
    And(Vec<Formula>),
    Or(Vec<Formula>),
    Implies(Box<Formula>, Box<Formula>),
    Forall(Vec<Var>, Box<Formula>),
    Exists(Vec<Var>, Box<Formula>),
}

impl Formula {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    pub fn atom(pred: impl Into<Symbol>, args: Vec<Term>) -> Formula {
        Formula::Atom(Atom::new(pred, args))
    }

    // An AST constructor (used point-free, e.g. `prop_map(Self::not)`),
    // not a negation of `self`; `ops::Not` would take `self` by value.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    pub fn and(fs: impl IntoIterator<Item = Formula>) -> Formula {
        let v: Vec<_> = fs.into_iter().collect();
        match v.len() {
            0 => Formula::True,
            1 => v.into_iter().next().expect("len checked"),
            _ => Formula::And(v),
        }
    }

    pub fn or(fs: impl IntoIterator<Item = Formula>) -> Formula {
        let v: Vec<_> = fs.into_iter().collect();
        match v.len() {
            0 => Formula::False,
            1 => v.into_iter().next().expect("len checked"),
            _ => Formula::Or(v),
        }
    }

    pub fn implies(lhs: Formula, rhs: Formula) -> Formula {
        Formula::Implies(Box::new(lhs), Box::new(rhs))
    }

    pub fn forall(vars: Vec<Var>, body: Formula) -> Formula {
        if vars.is_empty() {
            body
        } else {
            Formula::Forall(vars, Box::new(body))
        }
    }

    pub fn exists(vars: Vec<Var>, body: Formula) -> Formula {
        if vars.is_empty() {
            body
        } else {
            Formula::Exists(vars, Box::new(body))
        }
    }

    pub fn cmp(lhs: NumExpr, op: CmpOp, rhs: NumExpr) -> Formula {
        Formula::Cmp(lhs, op, rhs)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Free variables of the formula, in deterministic (sorted) order.
    pub fn free_vars(&self) -> Vec<Var> {
        let mut out = BTreeSet::new();
        self.collect_free_vars(&mut BTreeSet::new(), &mut out);
        out.into_iter().collect()
    }

    fn collect_free_vars(&self, bound: &mut BTreeSet<Var>, out: &mut BTreeSet<Var>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => {
                for v in a.vars() {
                    if !bound.contains(v) {
                        out.insert(v.clone());
                    }
                }
            }
            Formula::Cmp(l, _, r) => {
                let mut vs = BTreeSet::new();
                l.collect_vars(&mut vs);
                r.collect_vars(&mut vs);
                for v in vs {
                    if !bound.contains(&v) {
                        out.insert(v);
                    }
                }
            }
            Formula::Not(f) => f.collect_free_vars(bound, out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_free_vars(bound, out);
                }
            }
            Formula::Implies(l, r) => {
                l.collect_free_vars(bound, out);
                r.collect_free_vars(bound, out);
            }
            Formula::Forall(vs, f) | Formula::Exists(vs, f) => {
                let newly: Vec<Var> = vs
                    .iter()
                    .filter(|v| bound.insert((*v).clone()))
                    .cloned()
                    .collect();
                f.collect_free_vars(bound, out);
                for v in newly {
                    bound.remove(&v);
                }
            }
        }
    }

    /// All predicate symbols mentioned anywhere in the formula.
    pub fn predicates(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.visit_atoms(&mut |a| {
            out.insert(a.pred.clone());
        });
        out
    }

    /// All atoms (boolean and numeric) mentioned in the formula.
    pub fn atoms(&self) -> Vec<Atom> {
        let mut out = Vec::new();
        self.visit_atoms(&mut |a| out.push(a.clone()));
        out
    }

    /// Visit every atom in the formula (including numeric Count/Value atoms).
    pub fn visit_atoms(&self, f: &mut impl FnMut(&Atom)) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => f(a),
            Formula::Cmp(l, _, r) => {
                for a in l.atoms() {
                    f(a);
                }
                for a in r.atoms() {
                    f(a);
                }
            }
            Formula::Not(g) => g.visit_atoms(f),
            Formula::And(gs) | Formula::Or(gs) => {
                for g in gs {
                    g.visit_atoms(f);
                }
            }
            Formula::Implies(l, r) => {
                l.visit_atoms(f);
                r.visit_atoms(f);
            }
            Formula::Forall(_, g) | Formula::Exists(_, g) => g.visit_atoms(f),
        }
    }

    /// True iff the formula is a (possibly unquantified) universal clause:
    /// a `Forall` prefix over a quantifier-free body. The analysis accepts
    /// only this fragment, but that alone does not make its fixed small
    /// scope sound: ROADMAP item 17 records a universal clause whose
    /// conflict needs three elements of one sort, missed at two.
    pub fn is_universal_clause(&self) -> bool {
        match self {
            Formula::Forall(_, body) => body.is_quantifier_free(),
            other => other.is_quantifier_free(),
        }
    }

    pub fn is_quantifier_free(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Cmp(..) => true,
            Formula::Not(f) => f.is_quantifier_free(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(Formula::is_quantifier_free),
            Formula::Implies(l, r) => l.is_quantifier_free() && r.is_quantifier_free(),
            Formula::Forall(..) | Formula::Exists(..) => false,
        }
    }

    /// True iff the formula mentions any numeric comparison atom.
    pub fn has_numeric_atom(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => false,
            Formula::Cmp(..) => true,
            Formula::Not(f) => f.has_numeric_atom(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().any(Formula::has_numeric_atom),
            Formula::Implies(l, r) => l.has_numeric_atom() || r.has_numeric_atom(),
            Formula::Forall(_, f) | Formula::Exists(_, f) => f.has_numeric_atom(),
        }
    }

    // ------------------------------------------------------------------
    // Transformations
    // ------------------------------------------------------------------

    /// Capture-avoiding substitution of free variables. Bound variables
    /// shadow the substitution.
    pub fn substitute(&self, s: &Substitution) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => Formula::Atom(a.substitute(s)),
            Formula::Cmp(l, op, r) => Formula::Cmp(l.substitute(s), *op, r.substitute(s)),
            Formula::Not(f) => Formula::not(f.substitute(s)),
            Formula::And(fs) => Formula::And(fs.iter().map(|f| f.substitute(s)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|f| f.substitute(s)).collect()),
            Formula::Implies(l, r) => Formula::implies(l.substitute(s), r.substitute(s)),
            Formula::Forall(vs, f) => {
                let inner = shadowed(s, vs);
                Formula::Forall(vs.clone(), Box::new(f.substitute(&inner)))
            }
            Formula::Exists(vs, f) => {
                let inner = shadowed(s, vs);
                Formula::Exists(vs.clone(), Box::new(f.substitute(&inner)))
            }
        }
    }

    /// Instantiate the outermost universal quantifier (if any) with the given
    /// constants per variable; the caller supplies one constant per bound
    /// variable. Used by tests; the solver's grounder performs the full
    /// cartesian instantiation.
    pub fn instantiate(&self, bindings: &[(Var, Constant)]) -> Formula {
        let s: Substitution = bindings
            .iter()
            .map(|(v, c)| (v.clone(), Term::Const(c.clone())))
            .collect();
        match self {
            Formula::Forall(_, body) => body.substitute(&s),
            other => other.substitute(&s),
        }
    }

    /// Structural simplification: constant folding of `True`/`False` through
    /// the connectives. Does not touch atoms.
    pub fn simplify(&self) -> Formula {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Cmp(..) => self.clone(),
            Formula::Not(f) => match f.simplify() {
                Formula::True => Formula::False,
                Formula::False => Formula::True,
                Formula::Not(inner) => *inner,
                g => Formula::not(g),
            },
            Formula::And(fs) => {
                let mut out = Vec::with_capacity(fs.len());
                for f in fs {
                    match f.simplify() {
                        Formula::True => {}
                        Formula::False => return Formula::False,
                        Formula::And(inner) => out.extend(inner),
                        g => out.push(g),
                    }
                }
                Formula::and(out)
            }
            Formula::Or(fs) => {
                let mut out = Vec::with_capacity(fs.len());
                for f in fs {
                    match f.simplify() {
                        Formula::False => {}
                        Formula::True => return Formula::True,
                        Formula::Or(inner) => out.extend(inner),
                        g => out.push(g),
                    }
                }
                Formula::or(out)
            }
            Formula::Implies(l, r) => match (l.simplify(), r.simplify()) {
                (Formula::False, _) => Formula::True,
                (Formula::True, r) => r,
                (_, Formula::True) => Formula::True,
                (l, Formula::False) => Formula::not(l).simplify(),
                (l, r) => Formula::implies(l, r),
            },
            Formula::Forall(vs, f) => match f.simplify() {
                Formula::True => Formula::True,
                Formula::False => Formula::False,
                g => Formula::Forall(vs.clone(), Box::new(g)),
            },
            Formula::Exists(vs, f) => match f.simplify() {
                Formula::True => Formula::True,
                Formula::False => Formula::False,
                g => Formula::Exists(vs.clone(), Box::new(g)),
            },
        }
    }
}

fn shadowed(s: &Substitution, bound: &[Var]) -> Substitution {
    s.iter()
        .filter(|(v, _)| !bound.contains(v))
        .map(|(v, t)| (v.clone(), t.clone()))
        .collect()
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Cmp(l, op, r) => write!(f, "{l} {op} {r}"),
            Formula::Not(g) => write!(f, "not({g})"),
            Formula::And(gs) => write_joined(f, gs, " and "),
            Formula::Or(gs) => write_joined(f, gs, " or "),
            Formula::Implies(l, r) => write!(f, "({l} => {r})"),
            Formula::Forall(vs, g) => write_quant(f, "forall", vs, g),
            Formula::Exists(vs, g) => write_quant(f, "exists", vs, g),
        }
    }
}

fn write_joined(f: &mut fmt::Formatter<'_>, gs: &[Formula], sep: &str) -> fmt::Result {
    write!(f, "(")?;
    for (i, g) in gs.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        write!(f, "{g}")?;
    }
    write!(f, ")")
}

fn write_quant(f: &mut fmt::Formatter<'_>, q: &str, vs: &[Var], g: &Formula) -> fmt::Result {
    write!(f, "{q}(")?;
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{}: {}", v.sort, v.name)?;
    }
    write!(f, ") :- {g}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorts::Sort;

    fn pv() -> Var {
        Var::new("p", Sort::new("Player"))
    }
    fn tv() -> Var {
        Var::new("t", Sort::new("Tournament"))
    }

    fn ref_integrity() -> Formula {
        // forall p,t. enrolled(p,t) => player(p) and tournament(t)
        Formula::forall(
            vec![pv(), tv()],
            Formula::implies(
                Formula::atom("enrolled", vec![pv().into(), tv().into()]),
                Formula::and([
                    Formula::atom("player", vec![pv().into()]),
                    Formula::atom("tournament", vec![tv().into()]),
                ]),
            ),
        )
    }

    #[test]
    fn display_roundtrip_shape() {
        let f = ref_integrity();
        assert_eq!(
            f.to_string(),
            "forall(Player: p, Tournament: t) :- (enrolled(p, t) => (player(p) and tournament(t)))"
        );
    }

    #[test]
    fn free_and_bound_vars() {
        let f = ref_integrity();
        assert!(f.free_vars().is_empty());
        let open = Formula::atom("enrolled", vec![pv().into(), tv().into()]);
        assert_eq!(open.free_vars(), vec![pv(), tv()]);
    }

    #[test]
    fn predicates_collected() {
        let f = ref_integrity();
        let preds: Vec<String> = f.predicates().iter().map(|s| s.to_string()).collect();
        assert_eq!(preds, vec!["enrolled", "player", "tournament"]);
    }

    #[test]
    fn universal_clause_recognition() {
        assert!(ref_integrity().is_universal_clause());
        let nested = Formula::forall(
            vec![pv()],
            Formula::exists(
                vec![tv()],
                Formula::atom("enrolled", vec![pv().into(), tv().into()]),
            ),
        );
        assert!(!nested.is_universal_clause());
    }

    #[test]
    fn simplify_folds_constants() {
        let f = Formula::and([Formula::True, Formula::atom("p", vec![]), Formula::True]);
        assert_eq!(f.simplify(), Formula::atom("p", vec![]));
        let g = Formula::or([Formula::False, Formula::True]);
        assert_eq!(g.simplify(), Formula::True);
        let h = Formula::implies(Formula::False, Formula::atom("p", vec![]));
        assert_eq!(h.simplify(), Formula::True);
        let dneg = Formula::not(Formula::not(Formula::atom("p", vec![])));
        assert_eq!(dneg.simplify(), Formula::atom("p", vec![]));
    }

    #[test]
    fn simplify_flattens_nested_connectives() {
        let f = Formula::And(vec![
            Formula::atom("a", vec![]),
            Formula::And(vec![Formula::atom("b", vec![]), Formula::atom("c", vec![])]),
        ]);
        match f.simplify() {
            Formula::And(fs) => assert_eq!(fs.len(), 3),
            other => panic!("expected flat And, got {other}"),
        }
    }

    #[test]
    fn substitution_shadowing() {
        let p = pv();
        let inner = Formula::forall(
            vec![p.clone()],
            Formula::atom("player", vec![p.clone().into()]),
        );
        let outer = Formula::and([
            Formula::atom("player", vec![p.clone().into()]),
            inner.clone(),
        ]);
        let mut s = Substitution::new();
        s.insert(
            p.clone(),
            Term::Const(Constant::new("P1", Sort::new("Player"))),
        );
        let result = outer.substitute(&s);
        // Outer occurrence substituted, bound occurrence untouched.
        let txt = result.to_string();
        assert!(txt.contains("player(P1)"), "{txt}");
        assert!(txt.contains("player(p)"), "{txt}");
    }

    #[test]
    fn instantiate_universal() {
        let f = ref_integrity();
        let g = f.instantiate(&[
            (pv(), Constant::new("P1", Sort::new("Player"))),
            (tv(), Constant::new("T1", Sort::new("Tournament"))),
        ]);
        assert_eq!(
            g.to_string(),
            "(enrolled(P1, T1) => (player(P1) and tournament(T1)))"
        );
        assert!(g.free_vars().is_empty());
    }

    #[test]
    fn numeric_atoms() {
        // #enrolled(*, t) <= Capacity
        let f = Formula::forall(
            vec![tv()],
            Formula::cmp(
                NumExpr::count("enrolled", vec![Term::Wildcard, tv().into()]),
                CmpOp::Le,
                NumExpr::Named(Symbol::new("Capacity")),
            ),
        );
        assert!(f.has_numeric_atom());
        assert!(f.is_universal_clause());
        assert_eq!(
            f.to_string(),
            "forall(Tournament: t) :- #enrolled(*, t) <= Capacity"
        );
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Le.eval(3, 3));
        assert!(!CmpOp::Lt.eval(3, 3));
        assert!(CmpOp::Ge.eval(4, 3));
        assert!(CmpOp::Ne.eval(4, 3));
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }
}
