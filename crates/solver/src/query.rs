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
/// A caller that asserts the same formulas in scope after scope can
/// number them and assert them by number
/// ([`SolverSession::assert_numbered`],
/// [`SolverSession::assert_any_numbered`]). The first time a number is
/// asserted, the formula is encoded and what the assertion adds to the
/// scope is recorded: the literals it assumes and the clauses it guards
/// with the selector, in order. Every later time the record is replayed.
/// Encoding is idempotent (see [`crate::tseitin`]): encoding the formula
/// again would allocate no variable, define no gate and return the same
/// literals. So a replay adds exactly the assumptions and clauses a fresh
/// `assert` of the formula would, and the variables, the clause order and
/// every counter are those of asserting the formula each time. A record
/// is valid only in the session that made it.
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
    /// The literals of the clause being added.
    clause: Vec<Lit>,
    /// The assumptions of the solve under way.
    assumptions: Vec<Lit>,
    /// Whether the clauses added are being recorded.
    recording: bool,
    /// What asserting each numbered formula added to its scope, by
    /// number: a run of `pieces`.
    asserted: Vec<Option<Run>>,
    /// The literals of each numbered member list, by number: a run of
    /// `literals`.
    members: Vec<Option<Run>>,
    /// The recorded clauses, each a run of `literals`, one literal for an
    /// assumption.
    pieces: Vec<Run>,
    literals: Vec<Lit>,
}

/// `len` entries from `start` of a table of the session's.
#[derive(Clone, Copy, Debug)]
struct Run {
    start: u32,
    len: u32,
}

impl Run {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The entry of `table` for `key`, grown to hold it.
fn entry<T: Default>(table: &mut Vec<T>, key: u32) -> &mut T {
    let i = key as usize;
    if table.len() <= i {
        table.resize_with(i + 1, T::default);
    }
    &mut table[i]
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
            clause: Vec::new(),
            assumptions: Vec::new(),
            recording: false,
            asserted: Vec::new(),
            members: Vec::new(),
            pieces: Vec::new(),
            literals: Vec::new(),
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
                self.clause.clear();
                self.clause.push(l);
                self.add_clause();
            }
        }
    }

    /// Assert the disjunction of `parts` as one clause, as
    /// [`SolverSession::assert`] asserts a `GroundFormula::Or` of them,
    /// without building one.
    pub fn assert_any<'f>(&mut self, parts: impl IntoIterator<Item = &'f GroundFormula>) {
        let mut clause = std::mem::take(&mut self.clause);
        clause.clear();
        clause.extend(parts.into_iter().map(|p| self.encoder.encode(p)));
        self.clause = clause;
        self.add_clause();
    }

    /// [`SolverSession::assert`] of `g`, a formula the caller numbers
    /// `key`, in the innermost open scope: recorded the first time `key`
    /// is asserted, replayed every later time (see the type's
    /// documentation). The caller gives one number one formula.
    pub fn assert_numbered(&mut self, key: u32, g: &GroundFormula) {
        assert!(
            !self.scopes.is_empty(),
            "a numbered assertion needs a scope"
        );
        if let Some(run) = *entry(&mut self.asserted, key) {
            for k in run.range() {
                let piece = self.pieces[k];
                self.clause.clear();
                self.clause.extend_from_slice(&self.literals[piece.range()]);
                self.add_clause();
            }
            return;
        }
        let start = self.pieces.len() as u32;
        self.recording = true;
        self.assert(g);
        self.recording = false;
        let len = self.pieces.len() as u32 - start;
        self.asserted[key as usize] = Some(Run { start, len });
    }

    /// [`SolverSession::assert_any`] of the members of several lists,
    /// one after the other, each a list the caller numbers: its members'
    /// literals are encoded the first time its number is met and reused
    /// every later time. The caller gives one number one list. Member
    /// numbers and the numbers of [`SolverSession::assert_numbered`] are
    /// apart.
    pub fn assert_any_numbered<'f>(
        &mut self,
        lists: impl IntoIterator<Item = (u32, &'f [GroundFormula])>,
    ) {
        let mut clause = std::mem::take(&mut self.clause);
        clause.clear();
        for (key, members) in lists {
            let run = match *entry(&mut self.members, key) {
                Some(run) => run,
                None => {
                    let start = self.literals.len() as u32;
                    for m in members {
                        let l = self.encoder.encode(m);
                        self.literals.push(l);
                    }
                    let run = Run {
                        start,
                        len: members.len() as u32,
                    };
                    self.members[key as usize] = Some(run);
                    run
                }
            };
            clause.extend_from_slice(&self.literals[run.range()]);
        }
        self.clause = clause;
        self.add_clause();
    }

    /// Add the clause in `self.clause` as asserted in the innermost scope
    /// (for the rest of the session if none is open): one literal is
    /// assumed while the scope is open, more are guarded by its selector.
    fn add_clause(&mut self) {
        self.load_definitions();
        if self.recording {
            let start = self.literals.len() as u32;
            self.literals.extend_from_slice(&self.clause);
            self.pieces.push(Run {
                start,
                len: self.clause.len() as u32,
            });
        }
        match self.scopes.last_mut() {
            None => self.solver.add_clause(&self.clause),
            Some(scope) if self.clause.len() == 1 => scope.assumed.push(self.clause[0]),
            Some(scope) => {
                let s = *scope
                    .selector
                    .get_or_insert_with(|| self.encoder.cnf.fresh_var().positive());
                self.clause.push(s.negated());
                self.solver.add_clause(&self.clause);
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
        self.assumptions.clear();
        self.assumptions.extend(
            self.scopes
                .iter()
                .flat_map(|s| s.selector.iter().chain(&s.assumed)),
        );
        self.solver.solve_under(&self.assumptions)
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

    /// Asserting by number, scope after scope, adds what asserting the
    /// formulas each time adds: the same answers, models and counters,
    /// clauses included, whether a record is made or replayed.
    #[test]
    fn a_numbered_assertion_replays_what_asserting_adds() {
        let (p, mut plain) = setup();
        let mut numbered = SolverSession::new(8);
        let grounder = Grounder::with_atoms(&p.atoms, &p.named);
        let ground = |f: &str| grounder.ground(&parse_formula(f).unwrap()).unwrap();
        // Clauses from a conjunction, one clause from a disjunction, and
        // one assumed literal from a count.
        let asserted = [
            ground(
                "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
            ),
            ground("exists(Player: p) :- player(p)"),
            ground("forall(Tournament: t) :- #enrolled(*, t) <= Capacity"),
        ];
        let GroundFormula::Or(members) =
            ground("exists(Player: p, Tournament: t) :- enrolled(p, t) and not(player(p))")
        else {
            panic!("a disjunction");
        };
        for _ in 0..3 {
            plain.push();
            numbered.push();
            for (key, g) in asserted.iter().enumerate() {
                plain.assert(g);
                numbered.assert_numbered(key as u32, g);
            }
            plain.assert_any(&members);
            numbered.assert_any_numbered([(0, members.as_slice())]);
            assert_eq!(plain.solve(), numbered.solve());
            plain.pop();
            numbered.pop();
            assert_eq!(
                format!("{:?}", plain.stats()),
                format!("{:?}", numbered.stats())
            );
        }
        assert_eq!(plain.solve(), numbered.solve());
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
