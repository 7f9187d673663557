//! Small-scope grounding: from first-order formulas to quantifier-free
//! ground formulas over a finite universe.
//!
//! Universes are built by the analysis from the parameters of the operation
//! pair under test plus fresh witness elements — the same test-case
//! instantiation the paper delegates to Z3 (§3.2). Counting atoms
//! (`#enrolled(*, t)`) are expanded into explicit ground-atom lists;
//! numeric predicate atoms stay symbolic and are encoded with a bounded
//! order encoding downstream.

use ipa_spec::Symbol;
use ipa_spec::{
    Atom, CmpOp, Constant, Formula, GroundAtom, NumExpr, PredicateDecl, Sort, Substitution, Term,
    Var,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Re-export: substitutions come from `ipa-spec`.
pub use ipa_spec::formula::Substitution as Subst;

/// A finite universe: the elements of each sort.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Universe {
    elems: BTreeMap<Sort, Vec<Constant>>,
}

impl Universe {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an element (idempotent).
    pub fn add(&mut self, c: Constant) {
        let v = self.elems.entry(c.sort.clone()).or_default();
        if !v.contains(&c) {
            v.push(c);
        }
    }

    pub fn with(mut self, c: Constant) -> Self {
        self.add(c);
        self
    }

    pub fn elements(&self, sort: &Sort) -> &[Constant] {
        self.elems.get(sort).map_or(&[], |v| v.as_slice())
    }

    pub fn sorts(&self) -> impl Iterator<Item = &Sort> {
        self.elems.keys()
    }

    pub fn size(&self, sort: &Sort) -> usize {
        self.elements(sort).len()
    }

    pub fn total_size(&self) -> usize {
        self.elems.values().map(Vec::len).sum()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Constant> {
        self.elems.values().flatten()
    }
}

impl FromIterator<Constant> for Universe {
    fn from_iter<T: IntoIterator<Item = Constant>>(iter: T) -> Self {
        let mut u = Universe::new();
        for c in iter {
            u.add(c);
        }
        u
    }
}

/// Quantifier-free ground formula: the encoder's input language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroundFormula {
    True,
    False,
    Atom(GroundAtom),
    Not(Box<GroundFormula>),
    And(Vec<GroundFormula>),
    Or(Vec<GroundFormula>),
    /// `|{a ∈ atoms : a true}| + offset  op  rhs`
    CountCmp {
        atoms: Vec<GroundAtom>,
        offset: i64,
        op: CmpOp,
        rhs: i64,
    },
    /// `value(atom) + offset  op  rhs` for a numeric predicate instance.
    ValueCmp {
        atom: GroundAtom,
        offset: i64,
        op: CmpOp,
        rhs: i64,
    },
}

impl GroundFormula {
    /// `¬g`, with constants folded and double negation removed.
    // An AST constructor (used point-free, e.g. `prop_map(Self::not)`),
    // not a negation of `self`; `ops::Not` would take `self` by value.
    #[allow(clippy::should_implement_trait)]
    pub fn not(g: GroundFormula) -> GroundFormula {
        match g {
            GroundFormula::True => GroundFormula::False,
            GroundFormula::False => GroundFormula::True,
            GroundFormula::Not(inner) => *inner,
            g => GroundFormula::Not(Box::new(g)),
        }
    }

    /// `∧ gs`: `True` members dropped, `False` absorbing, nested
    /// conjunctions flattened.
    pub fn and(gs: Vec<GroundFormula>) -> GroundFormula {
        let mut out = Vec::with_capacity(gs.len());
        for g in gs {
            match g {
                GroundFormula::True => {}
                GroundFormula::False => return GroundFormula::False,
                GroundFormula::And(inner) => out.extend(inner),
                g => out.push(g),
            }
        }
        match out.len() {
            0 => GroundFormula::True,
            1 => out.pop().expect("len checked"),
            _ => GroundFormula::And(out),
        }
    }

    /// `∨ gs`: the dual of [`GroundFormula::and`].
    pub fn or(gs: Vec<GroundFormula>) -> GroundFormula {
        let mut out = Vec::with_capacity(gs.len());
        for g in gs {
            match g {
                GroundFormula::False => {}
                GroundFormula::True => return GroundFormula::True,
                GroundFormula::Or(inner) => out.extend(inner),
                g => out.push(g),
            }
        }
        match out.len() {
            0 => GroundFormula::False,
            1 => out.pop().expect("len checked"),
            _ => GroundFormula::Or(out),
        }
    }

    /// All boolean ground atoms mentioned (including inside counts).
    pub fn bool_atoms(&self) -> BTreeSet<GroundAtom> {
        let mut out = BTreeSet::new();
        self.visit(&mut |g| match g {
            GroundFormula::Atom(a) => {
                out.insert(a.clone());
            }
            GroundFormula::CountCmp { atoms, .. } => out.extend(atoms.iter().cloned()),
            _ => {}
        });
        out
    }

    /// All numeric ground atoms mentioned.
    pub fn num_atoms(&self) -> BTreeSet<GroundAtom> {
        let mut out = BTreeSet::new();
        self.visit(&mut |g| {
            if let GroundFormula::ValueCmp { atom, .. } = g {
                out.insert(atom.clone());
            }
        });
        out
    }

    fn visit(&self, f: &mut impl FnMut(&GroundFormula)) {
        f(self);
        match self {
            GroundFormula::Not(g) => g.visit(f),
            GroundFormula::And(gs) | GroundFormula::Or(gs) => {
                for g in gs {
                    g.visit(f);
                }
            }
            _ => {}
        }
    }

    /// Evaluate under explicit valuations (reference semantics for tests).
    pub fn eval(
        &self,
        bools: &BTreeMap<GroundAtom, bool>,
        nums: &BTreeMap<GroundAtom, i64>,
    ) -> bool {
        match self {
            GroundFormula::True => true,
            GroundFormula::False => false,
            GroundFormula::Atom(a) => bools.get(a).copied().unwrap_or(false),
            GroundFormula::Not(g) => !g.eval(bools, nums),
            GroundFormula::And(gs) => gs.iter().all(|g| g.eval(bools, nums)),
            GroundFormula::Or(gs) => gs.iter().any(|g| g.eval(bools, nums)),
            GroundFormula::CountCmp {
                atoms,
                offset,
                op,
                rhs,
            } => {
                let n = atoms
                    .iter()
                    .filter(|a| bools.get(a).copied().unwrap_or(false))
                    .count() as i64;
                op.eval(n + offset, *rhs)
            }
            GroundFormula::ValueCmp {
                atom,
                offset,
                op,
                rhs,
            } => {
                let v = nums.get(atom).copied().unwrap_or(0);
                op.eval(v + offset, *rhs)
            }
        }
    }
}

/// Errors from grounding / encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroundError {
    UnknownPredicate(String),
    UnknownConstant(String),
    WildcardInBooleanAtom(String),
    OpenAtom(String),
    UnsupportedNumeric(String),
}

impl fmt::Display for GroundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundError::UnknownPredicate(p) => write!(f, "unknown predicate {p}"),
            GroundError::UnknownConstant(c) => write!(f, "unknown named constant {c}"),
            GroundError::WildcardInBooleanAtom(a) => {
                write!(f, "wildcard not allowed in boolean atom {a}")
            }
            GroundError::OpenAtom(a) => write!(f, "atom {a} still has free variables"),
            GroundError::UnsupportedNumeric(m) => {
                write!(f, "numeric expression not in the supported fragment: {m}")
            }
        }
    }
}

impl std::error::Error for GroundError {}

/// Grounds formulas over a [`Universe`], resolving wildcard sorts via the
/// predicate declarations and named constants via the constant table.
pub struct Grounder<'a> {
    pub universe: &'a Universe,
    pub decls: &'a BTreeMap<Symbol, PredicateDecl>,
    pub named: &'a BTreeMap<Symbol, i64>,
}

impl<'a> Grounder<'a> {
    pub fn new(
        universe: &'a Universe,
        decls: &'a BTreeMap<Symbol, PredicateDecl>,
        named: &'a BTreeMap<Symbol, i64>,
    ) -> Self {
        Grounder {
            universe,
            decls,
            named,
        }
    }

    /// Ground a closed formula (its quantifiers expand over the universe).
    pub fn ground(&self, f: &Formula) -> Result<GroundFormula, GroundError> {
        self.ground_inner(f)
    }

    fn ground_inner(&self, f: &Formula) -> Result<GroundFormula, GroundError> {
        Ok(match f {
            Formula::True => GroundFormula::True,
            Formula::False => GroundFormula::False,
            Formula::Atom(a) => GroundFormula::Atom(self.ground_bool_atom(a)?),
            Formula::Not(g) => GroundFormula::not(self.ground_inner(g)?),
            Formula::And(gs) => GroundFormula::and(
                gs.iter()
                    .map(|g| self.ground_inner(g))
                    .collect::<Result<_, _>>()?,
            ),
            Formula::Or(gs) => GroundFormula::or(
                gs.iter()
                    .map(|g| self.ground_inner(g))
                    .collect::<Result<_, _>>()?,
            ),
            Formula::Implies(l, r) => GroundFormula::or(vec![
                GroundFormula::not(self.ground_inner(l)?),
                self.ground_inner(r)?,
            ]),
            Formula::Cmp(l, op, r) => self.ground_cmp(l, *op, r)?,
            Formula::Forall(vars, body) => {
                let mut parts = Vec::new();
                self.expand_quant(vars, body, &mut Substitution::new(), 0, &mut parts)?;
                GroundFormula::and(parts)
            }
            Formula::Exists(vars, body) => {
                let mut parts = Vec::new();
                self.expand_quant(vars, body, &mut Substitution::new(), 0, &mut parts)?;
                GroundFormula::or(parts)
            }
        })
    }

    fn expand_quant(
        &self,
        vars: &[Var],
        body: &Formula,
        subst: &mut Substitution,
        idx: usize,
        out: &mut Vec<GroundFormula>,
    ) -> Result<(), GroundError> {
        if idx == vars.len() {
            out.push(self.ground_inner(&body.substitute(subst))?);
            return Ok(());
        }
        let var = &vars[idx];
        // NOTE: elements() clones to avoid borrowing issues are unnecessary:
        // universe is shared immutably.
        for c in self.universe.elements(&var.sort) {
            subst.insert(var.clone(), Term::Const(c.clone()));
            self.expand_quant(vars, body, subst, idx + 1, out)?;
        }
        subst.remove(var);
        Ok(())
    }

    fn ground_bool_atom(&self, a: &Atom) -> Result<GroundAtom, GroundError> {
        if a.has_wildcard() {
            return Err(GroundError::WildcardInBooleanAtom(a.to_string()));
        }
        GroundAtom::from_atom(a).ok_or_else(|| GroundError::OpenAtom(a.to_string()))
    }

    /// Expand a count pattern (constants + wildcards) into the ground atoms
    /// it ranges over. Wildcard positions enumerate the universe of the
    /// declared sort at that position.
    pub fn expand_count_pattern(&self, pattern: &Atom) -> Result<Vec<GroundAtom>, GroundError> {
        let decl = self
            .decls
            .get(&pattern.pred)
            .ok_or_else(|| GroundError::UnknownPredicate(pattern.pred.to_string()))?;
        let mut acc: Vec<Vec<Constant>> = vec![Vec::new()];
        for (i, t) in pattern.args.iter().enumerate() {
            let choices: Vec<Constant> = match t {
                Term::Const(c) => vec![c.clone()],
                Term::Wildcard => self.universe.elements(&decl.params[i]).to_vec(),
                Term::Var(_) => return Err(GroundError::OpenAtom(pattern.to_string())),
            };
            let mut next = Vec::with_capacity(acc.len() * choices.len());
            for prefix in &acc {
                for c in &choices {
                    let mut p = prefix.clone();
                    p.push(c.clone());
                    next.push(p);
                }
            }
            acc = next;
        }
        Ok(acc
            .into_iter()
            .map(|args| GroundAtom::new(pattern.pred.clone(), args))
            .collect())
    }

    fn ground_cmp(
        &self,
        l: &NumExpr,
        op: CmpOp,
        r: &NumExpr,
    ) -> Result<GroundFormula, GroundError> {
        // Normalize to  lin(l) - lin(r)  op  0.
        let mut lin = Lin::default();
        self.accumulate(l, 1, &mut lin)?;
        self.accumulate(r, -1, &mut lin)?;
        match lin.terms.len() {
            0 => Ok(if op.eval(lin.konst, 0) {
                GroundFormula::True
            } else {
                GroundFormula::False
            }),
            1 => {
                let (coeff, term) = lin.terms.pop().expect("len checked");
                // coeff * T + konst op 0
                let (op, rhs) = match coeff {
                    1 => (op, -lin.konst),
                    -1 => (op.flip(), lin.konst),
                    _ => {
                        return Err(GroundError::UnsupportedNumeric(format!(
                            "coefficient {coeff} on {term:?}"
                        )))
                    }
                };
                Ok(match term {
                    TermRef::Count(atoms) => GroundFormula::CountCmp {
                        atoms,
                        offset: 0,
                        op,
                        rhs,
                    },
                    TermRef::Value(atom) => GroundFormula::ValueCmp {
                        atom,
                        offset: 0,
                        op,
                        rhs,
                    },
                })
            }
            _ => Err(GroundError::UnsupportedNumeric(
                "more than one count/value term in a comparison".into(),
            )),
        }
    }

    fn accumulate(&self, e: &NumExpr, sign: i64, lin: &mut Lin) -> Result<(), GroundError> {
        match e {
            NumExpr::Const(k) => {
                lin.konst += sign * k;
                Ok(())
            }
            NumExpr::Named(n) => {
                let v = self
                    .named
                    .get(n)
                    .copied()
                    .ok_or_else(|| GroundError::UnknownConstant(n.to_string()))?;
                lin.konst += sign * v;
                Ok(())
            }
            NumExpr::Count(pattern) => {
                let atoms = self.expand_count_pattern(pattern)?;
                lin.terms.push((sign, TermRef::Count(atoms)));
                Ok(())
            }
            NumExpr::Value(a) => {
                if a.has_wildcard() {
                    return Err(GroundError::UnsupportedNumeric(format!(
                        "wildcard in numeric value atom {a}"
                    )));
                }
                let ga =
                    GroundAtom::from_atom(a).ok_or_else(|| GroundError::OpenAtom(a.to_string()))?;
                lin.terms.push((sign, TermRef::Value(ga)));
                Ok(())
            }
            NumExpr::Add(l, r) => {
                self.accumulate(l, sign, lin)?;
                self.accumulate(r, sign, lin)
            }
            NumExpr::Sub(l, r) => {
                self.accumulate(l, sign, lin)?;
                self.accumulate(r, -sign, lin)
            }
        }
    }
}

/// Alias kept public for the encoder: a count term expands to ground atoms,
/// a value term is a single numeric ground atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NumTerm {
    Count(Vec<GroundAtom>),
    Value(GroundAtom),
}

#[derive(Default)]
struct Lin {
    terms: Vec<(i64, TermRef)>,
    konst: i64,
}

#[derive(Debug)]
enum TermRef {
    Count(Vec<GroundAtom>),
    Value(GroundAtom),
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_spec::parser::parse_formula;

    fn player(n: &str) -> Constant {
        Constant::new(n, Sort::new("Player"))
    }
    fn tourn(n: &str) -> Constant {
        Constant::new(n, Sort::new("Tournament"))
    }

    fn decls() -> BTreeMap<Symbol, PredicateDecl> {
        let mut m = BTreeMap::new();
        for d in [
            PredicateDecl::boolean("player", vec![Sort::new("Player")]),
            PredicateDecl::boolean("tournament", vec![Sort::new("Tournament")]),
            PredicateDecl::boolean(
                "enrolled",
                vec![Sort::new("Player"), Sort::new("Tournament")],
            ),
            PredicateDecl::numeric("stock", vec![Sort::new("Tournament")]),
        ] {
            m.insert(d.name.clone(), d);
        }
        m
    }

    fn small_universe() -> Universe {
        [player("P1"), player("P2"), tourn("T1")]
            .into_iter()
            .collect()
    }

    #[test]
    fn universe_dedup_and_lookup() {
        let mut u = Universe::new();
        u.add(player("P1"));
        u.add(player("P1"));
        assert_eq!(u.size(&Sort::new("Player")), 1);
        assert_eq!(u.total_size(), 1);
        assert!(u.elements(&Sort::new("Ghost")).is_empty());
    }

    #[test]
    fn forall_expands_to_conjunction() {
        let u = small_universe();
        let d = decls();
        let named = BTreeMap::new();
        let g = Grounder::new(&u, &d, &named);
        let f = parse_formula("forall(Player: p) :- player(p)").unwrap();
        let gf = g.ground(&f).unwrap();
        match gf {
            GroundFormula::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected And over 2 players, got {other:?}"),
        }
    }

    #[test]
    fn referential_integrity_grounds() {
        let u = small_universe();
        let d = decls();
        let named = BTreeMap::new();
        let g = Grounder::new(&u, &d, &named);
        let f = parse_formula(
            "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
        )
        .unwrap();
        let gf = g.ground(&f).unwrap();
        // 2 players × 1 tournament = 2 implications.
        match &gf {
            GroundFormula::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        let atoms = gf.bool_atoms();
        assert_eq!(atoms.len(), 5); // enrolled×2, player×2, tournament×1
    }

    #[test]
    fn count_pattern_expansion() {
        let u = small_universe();
        let d = decls();
        let named = BTreeMap::new();
        let g = Grounder::new(&u, &d, &named);
        let pattern = Atom::new("enrolled", vec![Term::Wildcard, Term::Const(tourn("T1"))]);
        let atoms = g.expand_count_pattern(&pattern).unwrap();
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0].to_string(), "enrolled(P1, T1)");
    }

    #[test]
    fn aggregation_invariant_grounds_to_count_cmp() {
        let u = small_universe();
        let d = decls();
        let mut named = BTreeMap::new();
        named.insert(Symbol::new("Capacity"), 2i64);
        let g = Grounder::new(&u, &d, &named);
        let f = parse_formula("forall(Tournament: t) :- #enrolled(*, t) <= Capacity").unwrap();
        let gf = g.ground(&f).unwrap();
        match gf {
            GroundFormula::CountCmp {
                atoms,
                offset,
                op,
                rhs,
            } => {
                assert_eq!(atoms.len(), 2);
                assert_eq!(offset, 0);
                assert_eq!(op, CmpOp::Le);
                assert_eq!(rhs, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn value_invariant_grounds_to_value_cmp() {
        let u = small_universe();
        let d = decls();
        let named = BTreeMap::new();
        let g = Grounder::new(&u, &d, &named);
        let f = parse_formula("forall(Tournament: t) :- stock(t) >= 0").unwrap();
        let gf = g.ground(&f).unwrap();
        match gf {
            GroundFormula::ValueCmp { atom, op, rhs, .. } => {
                assert_eq!(atom.to_string(), "stock(T1)");
                assert_eq!(op, CmpOp::Ge);
                assert_eq!(rhs, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reversed_comparison_flips() {
        let u = small_universe();
        let d = decls();
        let named = BTreeMap::new();
        let g = Grounder::new(&u, &d, &named);
        // 3 <= stock(t)  ≡  stock(t) >= 3
        let f = parse_formula("forall(Tournament: t) :- 3 <= stock(t)").unwrap();
        match g.ground(&f).unwrap() {
            GroundFormula::ValueCmp { op, rhs, .. } => {
                assert_eq!(op, CmpOp::Ge);
                assert_eq!(rhs, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_named_constant_is_error() {
        let u = small_universe();
        let d = decls();
        let named = BTreeMap::new();
        let g = Grounder::new(&u, &d, &named);
        let f = parse_formula("forall(Tournament: t) :- #enrolled(*, t) <= Capacity").unwrap();
        assert!(matches!(g.ground(&f), Err(GroundError::UnknownConstant(_))));
    }

    #[test]
    fn constant_only_comparison_folds() {
        let u = small_universe();
        let d = decls();
        let named = BTreeMap::new();
        let g = Grounder::new(&u, &d, &named);
        let f = parse_formula("2 <= 3").unwrap();
        assert_eq!(g.ground(&f).unwrap(), GroundFormula::True);
        let f = parse_formula("4 <= 3").unwrap();
        assert_eq!(g.ground(&f).unwrap(), GroundFormula::False);
    }

    #[test]
    fn ground_formula_eval_reference_semantics() {
        let a1 = GroundAtom::new("enrolled", vec![player("P1"), tourn("T1")]);
        let a2 = GroundAtom::new("enrolled", vec![player("P2"), tourn("T1")]);
        let gf = GroundFormula::CountCmp {
            atoms: vec![a1.clone(), a2.clone()],
            offset: 1,
            op: CmpOp::Le,
            rhs: 2,
        };
        let mut bools = BTreeMap::new();
        bools.insert(a1, true);
        assert!(gf.eval(&bools, &BTreeMap::new())); // 1 + 1 <= 2
        bools.insert(a2, true);
        assert!(!gf.eval(&bools, &BTreeMap::new())); // 2 + 1 > 2
    }
}
