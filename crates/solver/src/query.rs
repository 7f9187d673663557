//! High-level satisfiability queries: the interface `ipa-core` uses in
//! place of Z3.

use crate::ground::{AtomId, AtomTable, GroundError, GroundFormula};
use crate::lit::Lit;
use crate::sat::{Solver, Stats};
use crate::tseitin::Encoder;
use ipa_spec::{Interpretation, Symbol};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from building a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverError {
    Ground(GroundError),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Ground(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<GroundError> for SolverError {
    fn from(e: GroundError) -> Self {
        SolverError::Ground(e)
    }
}

/// A satisfying assignment: a value for every atom the encoder has met.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    pub bools: BTreeMap<AtomId, bool>,
    pub nums: BTreeMap<AtomId, i64>,
}

impl Model {
    /// Convert to an [`Interpretation`] over the atoms' universe, each id
    /// turned back into its ground atom (so counter-example states can be
    /// evaluated and pretty-printed).
    pub fn to_interpretation(
        &self,
        atoms: &AtomTable,
        named: &BTreeMap<Symbol, i64>,
    ) -> Interpretation {
        let mut m = Interpretation::new();
        for c in atoms.universe().iter() {
            m.add_element(c.clone());
        }
        for (&a, &v) in &self.bools {
            m.set_bool(atoms.atom(a), v);
        }
        for (&a, &v) in &self.nums {
            m.set_num(atoms.atom(a), v);
        }
        for (n, &v) in named {
            m.set_named(n.clone(), v);
        }
        m
    }
}

/// The result of a satisfiability query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    Sat(Model),
    Unsat,
}

impl Outcome {
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Sat(_))
    }

    pub fn model(&self) -> Option<&Model> {
        match self {
            Outcome::Sat(m) => Some(m),
            Outcome::Unsat => None,
        }
    }
}

/// An incremental satisfiability session: one [`Encoder`] and one
/// [`Solver`] that live as long as the caller keeps asking related
/// questions — the interface `ipa-core` discharges its proof obligations
/// through.
///
/// Formulas asserted outside any scope hold for the rest of the session
/// (the analysis asserts the grounded invariant this way, once). A query
/// opens a scope with [`SolverSession::push`], asserts what is particular
/// to it, solves, and [`SolverSession::pop`]s. Inside a scope a formula
/// that encodes to one literal is simply *assumed* while the scope is
/// open; a disjunction is stored as the clause `¬s ∨ …` under the scope's
/// selector literal `s`, which `solve` assumes too and `pop` retires with
/// the unit clause `¬s`. Tseitin definitions are full equivalences and
/// learnt clauses are consequences of the database, so both outlive the
/// scope that caused them.
///
/// ```
/// use ipa_solver::{Grounder, SolverSession, Universe};
/// use ipa_spec::{parser::parse_formula, Constant, PredicateDecl, Sort};
/// use std::collections::BTreeMap;
///
/// let universe: Universe =
///     [Constant::new("P1", Sort::new("Player"))].into_iter().collect();
/// let mut decls = BTreeMap::new();
/// let d = PredicateDecl::boolean("player", vec![Sort::new("Player")]);
/// decls.insert(d.name.clone(), d);
/// let named = BTreeMap::new();
/// let grounder = Grounder::new(&universe, &decls, &named);
/// let ground = |f: &str| grounder.ground(&parse_formula(f).unwrap()).unwrap();
///
/// let mut s = SolverSession::new(8);
/// s.assert(&ground("forall(Player: p) :- player(p)"));
/// s.push();
/// s.assert(&ground("exists(Player: p) :- not(player(p))"));
/// assert!(!s.solve().is_sat());
/// s.pop();
/// assert!(s.solve().is_sat()); // the scope's assertion is gone
/// ```
pub struct SolverSession {
    encoder: Encoder,
    solver: Solver,
    /// The open scopes, outermost first.
    scopes: Vec<Scope>,
}

#[derive(Default)]
struct Scope {
    /// Guards the scope's clauses; allocated by the first one.
    selector: Option<Lit>,
    /// Literals asserted in the scope.
    assumed: Vec<Lit>,
}

impl SolverSession {
    /// `numeric_bound` is the inclusive upper end of every numeric atom's
    /// domain (see [`Encoder::new`]).
    pub fn new(numeric_bound: i64) -> Self {
        SolverSession {
            encoder: Encoder::new(numeric_bound),
            solver: Solver::new(),
            scopes: Vec::new(),
        }
    }

    /// Open a scope: later assertions hold until the matching `pop`.
    pub fn push(&mut self) {
        self.scopes.push(Scope::default());
    }

    /// Close the innermost scope, retiring everything asserted in it.
    pub fn pop(&mut self) {
        let scope = self.scopes.pop().expect("pop without a matching push");
        if let Some(s) = scope.selector {
            self.solver.add_clause(&[s.negated()]);
        }
    }

    /// Assert a formula in the innermost open scope (for the rest of the
    /// session if none is open). Top-level conjunctions and disjunctions
    /// become clauses directly, without a gate of their own.
    pub fn assert(&mut self, g: &GroundFormula) {
        match g {
            GroundFormula::True => {}
            GroundFormula::And(parts) => parts.iter().for_each(|p| self.assert(p)),
            GroundFormula::Or(parts) => self.assert_any(parts),
            g => {
                let l = self.encoder.encode(g);
                self.add_clause(vec![l]);
            }
        }
    }

    /// Assert the disjunction of `parts` as one clause, as
    /// [`SolverSession::assert`] asserts a `GroundFormula::Or` of them,
    /// without building one.
    pub fn assert_any<'f>(&mut self, parts: impl IntoIterator<Item = &'f GroundFormula>) {
        let clause: Vec<Lit> = parts.into_iter().map(|p| self.encoder.encode(p)).collect();
        self.add_clause(clause);
    }

    fn add_clause(&mut self, mut lits: Vec<Lit>) {
        self.load_definitions();
        match self.scopes.last_mut() {
            None => self.solver.add_clause(&lits),
            Some(scope) if lits.len() == 1 => scope.assumed.push(lits[0]),
            Some(scope) => {
                let s = *scope
                    .selector
                    .get_or_insert_with(|| self.encoder.cnf.fresh_var().positive());
                lits.push(s.negated());
                self.solver.add_clause(&lits);
            }
        }
    }

    /// Move the encoder's pending definition clauses into the solver.
    fn load_definitions(&mut self) {
        for clause in self.encoder.cnf.clauses.drain(..) {
            self.solver.add_clause(&clause.lits);
        }
    }

    /// Decide satisfiability of everything asserted in the session and in
    /// the open scopes, and decode a model if there is one.
    pub fn solve(&mut self) -> Outcome {
        if self.satisfiable() {
            Outcome::Sat(self.model())
        } else {
            Outcome::Unsat
        }
    }

    /// [`SolverSession::solve`] without decoding a model: the answer
    /// alone.
    pub fn satisfiable(&mut self) -> bool {
        self.load_definitions();
        while (self.solver.num_vars() as u32) < self.encoder.cnf.num_vars() {
            self.solver.new_var();
        }
        let assumptions: Vec<Lit> = self
            .scopes
            .iter()
            .flat_map(|s| s.selector.iter().chain(&s.assumed))
            .copied()
            .collect();
        self.solver.solve_under(&assumptions)
    }

    /// The model of the last [`SolverSession::satisfiable`] call that
    /// answered yes, decoded now; a scope popped since does not change
    /// it.
    pub fn model(&self) -> Model {
        let (bools, nums) = self.encoder.decode(&self.solver.model());
        Model { bools, nums }
    }

    /// The solver's counters, accumulated over the session.
    pub fn stats(&self) -> Stats {
        self.solver.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::{Grounder, Universe};
    use ipa_spec::parser::parse_formula;
    use ipa_spec::{Constant, Formula, PredicateDecl, Sort};

    /// The fixed parts of a small tournament problem.
    struct Setup {
        atoms: AtomTable,
        named: BTreeMap<Symbol, i64>,
    }

    impl Setup {
        /// Ground and assert a first-order formula.
        fn assert(&self, s: &mut SolverSession, f: &Formula) -> Result<(), SolverError> {
            let grounder = Grounder::with_atoms(&self.atoms, &self.named);
            s.assert(&grounder.ground(f)?);
            Ok(())
        }

        /// Is some atom of predicate `pred` true in `m`?
        fn any_true(&self, m: &Model, pred: &str) -> bool {
            m.bools
                .iter()
                .any(|(&a, &v)| v && self.atoms.predicate(a).as_str() == pred)
        }
    }

    fn setup() -> (Setup, SolverSession) {
        let universe: Universe = [
            Constant::new("P1", Sort::new("Player")),
            Constant::new("P2", Sort::new("Player")),
            Constant::new("T1", Sort::new("Tournament")),
        ]
        .into_iter()
        .collect();
        let mut decls = BTreeMap::new();
        for d in [
            PredicateDecl::boolean("player", vec![Sort::new("Player")]),
            PredicateDecl::boolean("tournament", vec![Sort::new("Tournament")]),
            PredicateDecl::boolean(
                "enrolled",
                vec![Sort::new("Player"), Sort::new("Tournament")],
            ),
        ] {
            decls.insert(d.name.clone(), d);
        }
        let mut named = BTreeMap::new();
        named.insert(Symbol::new("Capacity"), 1i64);
        let setup = Setup {
            atoms: AtomTable::new(&universe, &decls),
            named,
        };
        (setup, SolverSession::new(8))
    }

    #[test]
    fn referential_integrity_violation_is_found() {
        let (p, mut s) = setup();
        let inv = parse_formula(
            "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
        )
        .unwrap();
        // Assert the NEGATION of the invariant: find a violating state.
        p.assert(&mut s, &Formula::not(inv)).unwrap();
        let out = s.solve();
        let model = out.model().expect("violating state exists");
        // In the found state, someone is enrolled without player/tournament.
        assert!(p.any_true(model, "enrolled"), "model: {model:?}");
    }

    #[test]
    fn invariant_plus_negation_unsat() {
        let (p, mut s) = setup();
        let inv = parse_formula(
            "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
        )
        .unwrap();
        p.assert(&mut s, &inv).unwrap();
        p.assert(&mut s, &Formula::not(inv.clone())).unwrap();
        assert_eq!(s.solve(), Outcome::Unsat);
    }

    #[test]
    fn capacity_constraint_with_named_constant() {
        let (p, mut s) = setup();
        // Capacity = 1; both players enrolled violates it.
        let cap = parse_formula("forall(Tournament: t) :- #enrolled(*, t) <= Capacity").unwrap();
        p.assert(&mut s, &cap).unwrap();
        p.assert(
            &mut s,
            &parse_formula("exists(Player: p, Tournament: t) :- enrolled(p, t)").unwrap(),
        )
        .unwrap();
        let out = s.solve();
        assert!(out.is_sat());
        let m = out.model().unwrap();
        let enrolled_count = m
            .bools
            .iter()
            .filter(|(&a, &v)| v && p.atoms.predicate(a).as_str() == "enrolled")
            .count();
        assert_eq!(enrolled_count, 1);
    }

    #[test]
    fn model_roundtrips_to_interpretation() {
        let (p, mut s) = setup();
        p.assert(
            &mut s,
            &parse_formula("exists(Player: p) :- player(p)").unwrap(),
        )
        .unwrap();
        let out = s.solve();
        let m = out.model().unwrap().clone();
        let interp = m.to_interpretation(&p.atoms, &p.named);
        let f = parse_formula("exists(Player: p) :- player(p)").unwrap();
        assert!(interp.eval(&f).unwrap());
    }

    #[test]
    fn ground_error_surfaces() {
        let (p, mut s) = setup();
        let f = parse_formula("forall(Tournament: t) :- #enrolled(*, t) <= Missing").unwrap();
        assert!(p.assert(&mut s, &f).is_err());
    }

    #[test]
    fn a_popped_scope_constrains_nothing() {
        let (p, mut s) = setup();
        let inv = parse_formula("forall(Player: p) :- player(p)").unwrap();
        p.assert(&mut s, &inv).unwrap();
        for _ in 0..3 {
            s.push();
            p.assert(&mut s, &Formula::not(inv.clone())).unwrap();
            assert_eq!(s.solve(), Outcome::Unsat);
            s.pop();
            assert!(s.solve().is_sat());
        }
        // Nested scopes: the inner one alone is retired by the first pop.
        s.push();
        p.assert(
            &mut s,
            &parse_formula("exists(Tournament: t) :- tournament(t)").unwrap(),
        )
        .unwrap();
        s.push();
        p.assert(
            &mut s,
            &parse_formula("forall(Tournament: t) :- not(tournament(t))").unwrap(),
        )
        .unwrap();
        assert_eq!(s.solve(), Outcome::Unsat);
        s.pop();
        let out = s.solve();
        let m = out.model().expect("outer scope alone is satisfiable");
        assert!(p.any_true(m, "tournament"));
        s.pop();
    }

    #[test]
    fn a_query_decodes_its_model_after_its_scope_is_popped() {
        let (p, mut s) = setup();
        let everyone = parse_formula("forall(Player: p) :- player(p)").unwrap();
        p.assert(&mut s, &everyone).unwrap();
        s.push();
        p.assert(
            &mut s,
            &parse_formula("exists(Tournament: t) :- tournament(t)").unwrap(),
        )
        .unwrap();
        assert!(s.satisfiable());
        s.pop();
        // The model is the scoped query's, which needed a tournament.
        let m = s.model();
        assert!(p.any_true(&m, "tournament"));
        assert!(p.any_true(&m, "player"));
    }
}
