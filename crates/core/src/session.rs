//! The analysis session: everything the queries of one analysis share.
//!
//! Algorithm 1 discharges thousands of small proof obligations against one
//! fixed invariant `I`. Within an [`crate::Analyzer::analyze`] run (and
//! within one standalone [`crate::check_pair`] or
//! [`crate::repair_conflicts`] call) the invariants, convergence rules,
//! universe and configuration never change — only the two operations under
//! test do. An [`AnalysisSession`] is built once for that span and owns the
//! universe with its atoms numbered (rule 6), the invariant grounded
//! **once** and flattened to its top-level conjuncts `c₁ … cₙ`, and a
//! [`SolverSession`] with `I = ∧ cᵢ` asserted once. Conflict detection
//! ([`AnalysisSession::check_pair`]), the executability side condition
//! ([`AnalysisSession::preserves_executability`]) and the repair search
//! ([`AnalysisSession::repair_conflicts`]) are methods over it. Six
//! rules, each sound on its own:
//!
//! 1. **Assert only what changed.** For an effect summary `S`, the
//!    *image* `S(cᵢ) = apply_summary(cᵢ, S)` of a conjunct no written atom
//!    occurs in is `cᵢ` itself, which is already asserted. So
//!    `wp(S) = ∧ S(cᵢ)` is asserted as its changed conjuncts only, and in
//!    `¬(∧ S(cᵢ))` an unchanged conjunct is false under `I` and drops:
//!    the negated post-state is the disjunction over *changed* conjuncts.
//!    If that disjunction folds to `False` the query is UNSAT by
//!    construction and the solver is not called. An index from ground atom
//!    to the conjuncts mentioning it finds the changed ones in time
//!    proportional to what the operation writes, not to `|I|`
//!    ([`AnalysisSession::image`]).
//! 2. **Solve incrementally.** Each query opens a scope on the session's
//!    solver, asserts its handful of changed conjuncts, solves and pops;
//!    `I`, every Tseitin definition (gates are hash-consed, so a residue
//!    seen before costs nothing) and every learnt clause are kept. The
//!    solver lives from one repair search to the next: a search defines
//!    the residues of some hundred candidates that are never asked about
//!    again, so it starts on a fresh solver loaded with `I`
//!    (`renew_solver`).
//! 3. **Remember clean pairs.** A "no conflict" verdict depends only on the
//!    session's fixed parts and the two [`Operation`] *values*, so
//!    [`AnalysisSession::detect`] memoises it under those values: a later
//!    detection pass re-checks only pairs involving a repaired operation.
//!    Ground footprints are cached per `(Operation, arguments)` the same
//!    way.
//! 4. **Same answers.** Pair order, candidate order, minimality pruning
//!    and resolution policy are untouched, the instantiations asked are a
//!    subsequence of the full order (rule 5), and every query is
//!    equisatisfiable with asserting `I`, both preconditions and the
//!    negated post-state in full (`tests/query_equivalence.rs` keeps that
//!    reference, over the full product). A witness may be a different
//!    model of the same query; it is still an `I`-valid state satisfying
//!    both preconditions whose merge violates `I`.
//! 5. **One instantiation per orbit.** A per-sort renaming of the
//!    universe's synthetic elements maps the grounded `I` and every ground
//!    effect to themselves up to the renaming, so instantiations in one
//!    orbit pose equisatisfiable queries. Only the orbit's least member in
//!    lexicographic order is asked, its first-occurrence normal form
//!    ([`crate::universe::canonical_instantiations`], enumerated once per
//!    pair of parameter sort lists). The first conflicting instantiation
//!    of the full product is the least of its orbit, so it is also the
//!    first one asked, and witnesses carry the same arguments. A sort an
//!    invariant or effect names an element of by a constant is not
//!    renamed ([`crate::universe::named_sorts`]).
//! 6. **Atoms are numbers.** The session numbers the ground atoms of its
//!    universe once, in an [`AtomTable`]. A
//!    [`GroundAtom`](ipa_spec::GroundAtom) enters only at grounding,
//!    which computes an atom's [`ipa_solver::AtomId`] from its predicate
//!    and constants, and leaves only when [`AnalysisSession::check_pair`]
//!    decodes a witness. In between, conjuncts, effect summaries, images,
//!    the conjunct index and the encoder's variable tables hold ids. The
//!    CNF is clause for clause the one naming atoms by value built: id
//!    order is `GroundAtom` order, so every map iterated by id (an effect
//!    summary, the merge's last-writer-wins alternatives, the contested
//!    atoms) iterates as before, the encoder allocates an atom's
//!    variables when it first meets the atom, not by id, and a count
//!    lists its atoms in the universe's order of elements. Only a witness
//!    decodes a model: the repair search's two questions,
//!    [`AnalysisSession::conflicts`] and
//!    [`AnalysisSession::preserves_executability`], ask for
//!    satisfiability alone.

use crate::conflict::ConflictWitness;
use crate::pipeline::AnalysisConfig;
use crate::summary::EffectSummary;
use crate::universe::{build_universe, canonical_instantiations, named_sorts, Instantiation};
use crate::wp::apply_summary;
use crate::AnalysisError;
use ipa_solver::sat::Stats;
use ipa_solver::{AtomTable, GroundFormula, Grounder, SolverSession};
use ipa_spec::{AppSpec, Constant, Operation, Sort};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A conjunct of the grounded invariant as an effect summary leaves it:
/// `formula = apply_summary(conjuncts[conjunct], S)`, and differs from the
/// conjunct itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Image {
    pub conjunct: usize,
    pub formula: GroundFormula,
}

/// One ground execution `op(args)` as the analysis sees it.
#[derive(Debug)]
pub struct Footprint {
    pub summary: EffectSummary,
    /// The weakest precondition of `summary`, less what `I` already
    /// asserts: the images of the conjuncts it changes (rule 1).
    pub wp: Vec<Image>,
}

/// The parameter sorts of a pair of operations, in order.
type PairSorts = (Vec<Sort>, Vec<Sort>);

/// See the [module documentation](self).
pub struct AnalysisSession<'a> {
    /// Source of the fixed parts: invariants, predicates, constants, rules.
    /// Its operation list is not consulted — operations are arguments.
    pub(crate) spec: &'a AppSpec,
    pub(crate) cfg: &'a AnalysisConfig,
    /// The small-scope universe's ground atoms, numbered (rule 6).
    pub(crate) atoms: AtomTable,
    conjuncts: Vec<GroundFormula>,
    /// Indices of the conjuncts each atom occurs in, by atom id.
    mentions: Vec<Vec<usize>>,
    solver: SolverSession,
    /// Counters of the solvers `renew_solver` dropped.
    retired: Stats,
    /// Solvers loaded with `I` so far, the current one included.
    pub(crate) solvers: u64,
    /// `None` records an instantiation the operation's sorts reject.
    footprints: HashMap<Operation, HashMap<Vec<Constant>, Option<Rc<Footprint>>>>,
    clean: HashMap<Operation, HashSet<Operation>>,
    /// Sorts an invariant or an effect met so far names an element of:
    /// rule 5 does not rename them.
    pinned: BTreeSet<Sort>,
    /// Rule 5's instantiations, per pair of parameter sort lists.
    instantiations: HashMap<PairSorts, Rc<[Instantiation]>>,
    pub(crate) pair_checks: u64,
    pub(crate) memo_hits: u64,
    pub(crate) queries: u64,
    /// Wall time spent asserting into and running the solver.
    pub(crate) sat_time: Duration,
}

/// A solver with the grounded invariant asserted for good.
fn load_solver(cfg: &AnalysisConfig, conjuncts: &[GroundFormula]) -> SolverSession {
    let mut solver = SolverSession::new(cfg.numeric_bound);
    for c in conjuncts {
        solver.assert(c);
    }
    solver
}

impl<'a> AnalysisSession<'a> {
    /// Ground `spec`'s invariants over the small-scope universe and load
    /// them into a fresh solver. The only place either happens.
    pub fn new(spec: &'a AppSpec, cfg: &'a AnalysisConfig) -> Result<Self, AnalysisError> {
        let universe = build_universe(spec, cfg.universe_per_sort);
        let atoms = AtomTable::new(&universe, &spec.predicates);
        let grounder = Grounder::with_atoms(&atoms, &spec.constants);
        let mut conjuncts = Vec::new();
        for inv in &spec.invariants {
            // Grounding builds with the flattening constructors, so a
            // conjunction at the top is all the conjunction there is.
            match grounder.ground(inv)? {
                GroundFormula::And(parts) => conjuncts.extend(parts),
                GroundFormula::True => {}
                g => conjuncts.push(g),
            }
        }
        let mut mentions = vec![Vec::new(); atoms.len()];
        for (i, c) in conjuncts.iter().enumerate() {
            for a in c.bool_atoms().into_iter().chain(c.num_atoms()) {
                mentions[a.index()].push(i);
            }
        }
        Ok(AnalysisSession {
            spec,
            cfg,
            atoms,
            solver: load_solver(cfg, &conjuncts),
            retired: Stats::default(),
            solvers: 1,
            conjuncts,
            mentions,
            footprints: HashMap::new(),
            clean: HashMap::new(),
            pinned: named_sorts(&spec.invariants, &spec.operations),
            instantiations: HashMap::new(),
            pair_checks: 0,
            memo_hits: 0,
            queries: 0,
            sat_time: Duration::ZERO,
        })
    }

    /// The session's solver, with `I` asserted and no scope open between
    /// queries.
    pub fn solver(&mut self) -> &mut SolverSession {
        &mut self.solver
    }

    /// Solver counters summed over the session (see [`Stats`]).
    pub fn solver_stats(&self) -> Stats {
        let mut total = self.retired;
        total += self.solver.stats();
        total
    }

    /// Continue on a fresh solver holding `I` alone. The repair search of
    /// one pair defines the residues of some hundred candidates that are
    /// never asked about again; starting each search from a clean clause
    /// database keeps them from slowing down, and outliving, the next.
    pub(crate) fn renew_solver(&mut self) {
        self.retired += self.solver.stats();
        self.solver = load_solver(self.cfg, &self.conjuncts);
        self.solvers += 1;
    }

    /// Rule 1: the conjuncts `s` changes, with their images, in conjunct
    /// order. Only conjuncts mentioning an atom `s` writes are looked at.
    pub fn image(&self, s: &EffectSummary) -> Vec<Image> {
        let mut touched: Vec<usize> = s
            .assigns
            .keys()
            .chain(s.deltas.keys())
            .filter_map(|a| self.mentions.get(a.index()))
            .flatten()
            .copied()
            .collect();
        touched.sort_unstable();
        touched.dedup();
        touched
            .into_iter()
            .filter_map(|conjunct| {
                let formula = apply_summary(&self.conjuncts[conjunct], s);
                (formula != self.conjuncts[conjunct]).then_some(Image { conjunct, formula })
            })
            .collect()
    }

    /// The footprint of `op(args)`, computed on first use and cached under
    /// the operation's value. `None` when the arguments' sorts do not fit.
    pub fn footprint(
        &mut self,
        op: &Operation,
        args: &[Constant],
    ) -> Result<Option<Rc<Footprint>>, AnalysisError> {
        if let Some(hit) = self.footprints.get(op).and_then(|m| m.get(args)) {
            return Ok(hit.clone());
        }
        let footprint = match op.ground(args) {
            None => None,
            Some(effects) => {
                let grounder = Grounder::with_atoms(&self.atoms, &self.spec.constants);
                let summary = EffectSummary::from_effects(&effects, &grounder)?;
                let wp = self.image(&summary);
                Some(Rc::new(Footprint { summary, wp }))
            }
        };
        self.footprints
            .entry(op.clone())
            .or_default()
            .insert(args.to_vec(), footprint.clone());
        Ok(footprint)
    }

    /// Rule 5: the instantiations of `op1 ∥ op2`, one per orbit, in the
    /// order of the full product. Enumerated once per pair of parameter
    /// sort lists.
    pub(crate) fn instantiations(
        &mut self,
        op1: &Operation,
        op2: &Operation,
    ) -> Rc<[Instantiation]> {
        self.pin(&[op1, op2]);
        let sorts = |op: &Operation| op.params.iter().map(|p| p.sort.clone()).collect();
        let (universe, pinned) = (self.atoms.universe(), &self.pinned);
        self.instantiations
            .entry((sorts(op1), sorts(op2)))
            .or_insert_with_key(|(s1, s2)| {
                canonical_instantiations(s1, s2, universe, pinned).into()
            })
            .clone()
    }

    /// Stop renaming the sorts the effects of `ops` name an element of.
    /// The shipped specifications name none; an operation that does
    /// invalidates the enumerations made without it.
    pub(crate) fn pin(&mut self, ops: &[&Operation]) {
        let named = named_sorts(&[], ops.iter().copied());
        if !named.is_subset(&self.pinned) {
            self.pinned.extend(named);
            self.instantiations.clear();
        }
    }

    /// Drop the cached footprints of an operation value that will not be
    /// met again (a rejected repair candidate).
    pub(crate) fn forget(&mut self, op: &Operation) {
        self.footprints.remove(op);
    }

    /// One query: is there an `I`-valid state in which every image of
    /// `holds` is true and some image of `fails` is false? Both lists are
    /// images (rule 1): a conjunct not listed is unchanged, hence asserted
    /// already on the `holds` side and impossible to falsify on the
    /// `fails` side — as is an image that `holds` asserts. When the answer
    /// is yes, the solver's [`SolverSession::model`] is such a state.
    pub fn query(&mut self, holds: &[&Image], fails: &[&Image]) -> bool {
        self.queries += 1;
        let negated = GroundFormula::or(
            fails
                .iter()
                .filter(|i| !holds.contains(i))
                .map(|i| GroundFormula::not(i.formula.clone()))
                .collect(),
        );
        if negated == GroundFormula::False
            || holds.iter().any(|i| i.formula == GroundFormula::False)
        {
            return false; // UNSAT by construction
        }
        let began = Instant::now();
        self.solver.push();
        for i in holds {
            self.solver.assert(&i.formula);
        }
        self.solver.assert(&negated);
        let sat = self.solver.satisfiable();
        self.solver.pop();
        self.sat_time += began.elapsed();
        sat
    }

    /// Rule 3: [`AnalysisSession::check_pair`] behind the clean-pair memo.
    /// The entry point of the fixpoint's detection passes, where the same
    /// operation values are met again and again.
    pub fn detect(
        &mut self,
        op1: &Operation,
        op2: &Operation,
    ) -> Result<Option<ConflictWitness>, AnalysisError> {
        if self.clean.get(op1).is_some_and(|s| s.contains(op2)) {
            self.memo_hits += 1;
            return Ok(None);
        }
        self.pair_checks += 1;
        let witness = self.check_pair(op1, op2)?;
        if witness.is_none() {
            self.clean
                .entry(op1.clone())
                .or_default()
                .insert(op2.clone());
        }
        Ok(witness)
    }
}
