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
//!    ([`AnalysisSession::image`]). An image reads `S` only at the
//!    conjunct's own atoms, so it is computed once per conjunct and per
//!    what `S` does to those atoms (the value it assigns each, if any,
//!    and the delta it adds), and shared from then on.
//! 2. **Solve incrementally.** Each query opens a scope on the session's
//!    solver, asserts its handful of changed conjuncts, solves and pops;
//!    `I`, every Tseitin definition (gates are hash-consed, so a residue
//!    seen before costs nothing) and every learnt clause are kept. The
//!    solver lives from one repair search to the next: a search defines
//!    the residues of some hundred candidates that are never asked about
//!    again, so it starts on a fresh solver loaded with `I`
//!    (`renew_solver`).
//! 3. **Name operations, not values.** The session names each
//!    operation value it meets by a small `OpId`, once per entry point
//!    (it compares the value with those of the same name it knows), and
//!    an instantiation's arguments by their element numbers: the
//!    arguments' positions within their sorts, read in mixed radix, are
//!    the instantiation's *slot* in each operation's footprint table. A
//!    "no conflict" verdict depends only on the session's fixed parts and
//!    the two operation values, so [`AnalysisSession::detect`] memoises it
//!    under the pair of ids: a later detection pass re-checks only pairs
//!    involving a repaired operation. Ground footprints are cached per
//!    `(OpId, slot)`. No operation or constant is hashed per
//!    instantiation.
//!
//!    A repair candidate is not looked up by value. It is its parent plus
//!    the added effects, which `Operation::with_extra_effects` appends
//!    after the parent's, and its footprint is *extended* from the
//!    parent's at the same slot instead of being rebuilt. The two are
//!    equal. A summary applies ground effects in order, an assignment
//!    overwriting and a delta adding, so the candidate's summary `S'` is
//!    the parent's `S` with the added effects' ground expansion applied
//!    after it, and it differs from `S` only at atoms those effects write.
//!    `apply_summary(cᵢ, S)` reads `S` only at the atoms of `cᵢ`. So for a
//!    conjunct none of the written atoms occurs in, `S'(cᵢ) = S(cᵢ)`: it is
//!    changed under `S'` exactly when it is under `S`, with the same
//!    image, which is reused. Only the conjuncts the written atoms occur
//!    in are recomputed under `S'`, and the two lists are merged in
//!    conjunct order. The result is, image for image, what
//!    [`AnalysisSession::image`] of `S'` returns, and so every query built
//!    from it asserts the same clauses.
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
use crate::universe::{build_universe, canonical_instantiations, named_sorts};
use crate::wp::apply_summary;
use crate::AnalysisError;
use ipa_solver::sat::Stats;
use ipa_solver::{AtomId, AtomTable, GroundFormula, Grounder, SolverSession};
use ipa_spec::{AppSpec, Constant, GroundEffect, Operation, Sort, Symbol};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A conjunct of the grounded invariant as an effect summary leaves it:
/// `formula = apply_summary(conjuncts[conjunct], S)`, and differs from the
/// conjunct itself. The formula is shared: an extended footprint keeps
/// its parent's images of the conjuncts the added effects leave alone.
#[derive(Clone, Debug)]
pub struct Image {
    pub conjunct: usize,
    pub formula: Rc<GroundFormula>,
    /// `¬formula` as the members it adds to a disjunction
    /// ([`GroundFormula::or`] flattens one level), built once for every
    /// query that needs the image to fail; `None` when it is `True`,
    /// which absorbs the disjunction.
    negation: Option<Rc<[GroundFormula]>>,
}

impl PartialEq for Image {
    /// The negation is the formula's, so it is not compared.
    fn eq(&self, other: &Image) -> bool {
        self.conjunct == other.conjunct && self.formula == other.formula
    }
}

impl Eq for Image {}

impl Image {
    fn new(conjunct: usize, formula: GroundFormula) -> Image {
        let negation = match GroundFormula::not(formula.clone()) {
            GroundFormula::True => None,
            GroundFormula::False => Some(Rc::from([])),
            GroundFormula::Or(parts) => Some(parts.into()),
            g => Some(Rc::from([g])),
        };
        Image {
            conjunct,
            formula: Rc::new(formula),
            negation,
        }
    }
}

/// One ground execution `op(args)` as the analysis sees it.
#[derive(Debug)]
pub struct Footprint {
    pub summary: EffectSummary,
    /// The weakest precondition of `summary`, less what `I` already
    /// asserts: the images of the conjuncts it changes (rule 1).
    pub wp: Vec<Image>,
}

/// The session's name for an operation it has met (rule 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct OpId(u32);

/// What the session knows of one operation.
struct Known {
    op: Operation,
    /// Its parameter sorts, as an index into `AnalysisSession::sorts`.
    sorts: usize,
    /// For a repair candidate: the operation it extends, and where in
    /// `op.added_effects` its own added effects start.
    base: Option<(OpId, usize)>,
    /// Footprints by slot, filled on first use. The inner `None` records
    /// an instantiation the operation's sorts reject.
    footprints: Vec<Option<Option<Rc<Footprint>>>>,
}

/// One instantiation of rule 5, with its slot in each operation's
/// footprint table.
pub(crate) struct Case {
    pub args1: Vec<Constant>,
    pub args2: Vec<Constant>,
    pub slot1: usize,
    pub slot2: usize,
}

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
    /// The atoms each conjunct mentions, by conjunct.
    conjunct_atoms: Vec<Vec<AtomId>>,
    /// Images met so far, by conjunct and what the summary does to its
    /// atoms ([`AnalysisSession::image_of`]); `None` for "unchanged".
    images: RefCell<HashMap<Vec<i64>, Option<Image>>>,
    solver: SolverSession,
    /// Counters of the solvers `renew_solver` dropped.
    retired: Stats,
    /// Solvers loaded with `I` so far, the current one included.
    pub(crate) solvers: u64,
    /// Every operation met, by id.
    ops: Vec<Known>,
    /// The ids of the operations that entry points look up by value, by
    /// name. A rejected repair candidate is never among them.
    by_name: HashMap<Symbol, Vec<OpId>>,
    /// The distinct parameter sort lists met, each with the size of a
    /// footprint table over it: the product of its sorts' sizes.
    sorts: Vec<(Vec<Sort>, usize)>,
    /// Pairs of operations found not to conflict.
    clean: HashSet<(OpId, OpId)>,
    /// Sorts an invariant or an effect met so far names an element of:
    /// rule 5 does not rename them.
    pinned: BTreeSet<Sort>,
    /// Rule 5's instantiations, per pair of parameter sort lists.
    instantiations: HashMap<(usize, usize), Rc<[Case]>>,
    pub(crate) pair_checks: u64,
    pub(crate) memo_hits: u64,
    pub(crate) queries: u64,
    /// Footprints computed from an operation's effects.
    pub(crate) footprints_built: u64,
    /// Footprints of repair candidates computed from their parent's.
    pub(crate) footprints_extended: u64,
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
        let conjunct_atoms: Vec<Vec<AtomId>> = conjuncts
            .iter()
            .map(|c| c.bool_atoms().into_iter().chain(c.num_atoms()).collect())
            .collect();
        let mut mentions = vec![Vec::new(); atoms.len()];
        for (i, atoms) in conjunct_atoms.iter().enumerate() {
            for a in atoms {
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
            conjunct_atoms,
            images: RefCell::default(),
            ops: Vec::new(),
            by_name: HashMap::new(),
            sorts: Vec::new(),
            clean: HashSet::new(),
            pinned: named_sorts(&spec.invariants, &spec.operations),
            instantiations: HashMap::new(),
            pair_checks: 0,
            memo_hits: 0,
            queries: 0,
            footprints_built: 0,
            footprints_extended: 0,
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
            .filter_map(|conjunct| self.image_of(conjunct, s))
            .collect()
    }

    /// The image of one conjunct under `s`, if `s` changes it: computed
    /// on first use and shared under the conjunct and, per atom of it,
    /// the value `s` assigns (none, false, true) and the delta it adds
    /// (rule 1).
    fn image_of(&self, conjunct: usize, s: &EffectSummary) -> Option<Image> {
        let atoms = &self.conjunct_atoms[conjunct];
        let mut key = Vec::with_capacity(1 + atoms.len());
        key.push(conjunct as i64);
        key.extend(atoms.iter().map(|a| {
            let assigned = match s.assigns.get(a) {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            };
            3 * s.deltas.get(a).copied().unwrap_or(0) + assigned
        }));
        self.images
            .borrow_mut()
            .entry(key)
            .or_insert_with(|| {
                let formula = apply_summary(&self.conjuncts[conjunct], s);
                (formula != self.conjuncts[conjunct]).then(|| Image::new(conjunct, formula))
            })
            .clone()
    }

    /// The footprint of `op(args)`, computed on first use and cached under
    /// the operation's id. `None` when the arguments' sorts do not fit.
    pub fn footprint(
        &mut self,
        op: &Operation,
        args: &[Constant],
    ) -> Result<Option<Rc<Footprint>>, AnalysisError> {
        let id = self.intern(op);
        match self.slot(&self.sorts[self.known(id).sorts].0, args) {
            Some(slot) => self.footprint_at(id, slot, args),
            // Arguments from outside the universe: nothing to cache under.
            None => Ok(self.build(op, args)?.map(Rc::new)),
        }
    }

    /// The id of `op`'s value, named on first sight.
    pub(crate) fn intern(&mut self, op: &Operation) -> OpId {
        self.lookup(op).unwrap_or_else(|| {
            let id = self.register(op.clone(), None);
            self.by_name.entry(op.name.clone()).or_default().push(id);
            id
        })
    }

    /// The id lookups by value find for `op`, if any.
    fn lookup(&self, op: &Operation) -> Option<OpId> {
        let ids = self.by_name.get(&op.name)?;
        ids.iter().copied().find(|&id| self.known(id).op == *op)
    }

    /// A repair candidate: `base` extended with the effects `cand` adds
    /// to it. Its id is fresh, and no lookup by value finds it unless
    /// [`AnalysisSession::keep`] is called.
    pub(crate) fn extend(&mut self, base: OpId, cand: Operation) -> OpId {
        let parent = &self.known(base).op;
        let from = parent.added_effects.len();
        debug_assert!(
            cand.name == parent.name
                && cand.params == parent.params
                && cand.effects == parent.effects
                && cand.added_effects[..from] == parent.added_effects[..],
            "{} is not an extension of {}",
            cand.name,
            parent.name
        );
        self.register(cand, Some((base, from)))
    }

    /// Let lookups by value find the candidate `id`: it was accepted as a
    /// repair, and the detection passes will meet its value.
    pub(crate) fn keep(&mut self, id: OpId) {
        let op = &self.known(id).op;
        if self.lookup(op).is_none() {
            let name = op.name.clone();
            self.by_name.entry(name).or_default().push(id);
        }
    }

    /// Drop a repair candidate that will not be met again (a rejected
    /// one) with its footprints. The repair search tests one candidate
    /// at a time, so it is the operation named last, and its id goes to
    /// the next.
    pub(crate) fn forget(&mut self, id: OpId) {
        assert_eq!(
            id.0 as usize + 1,
            self.ops.len(),
            "only the candidate named last is forgotten"
        );
        self.ops.pop();
    }

    pub(crate) fn op(&self, id: OpId) -> &Operation {
        &self.known(id).op
    }

    fn known(&self, id: OpId) -> &Known {
        &self.ops[id.0 as usize]
    }

    fn register(&mut self, op: Operation, base: Option<(OpId, usize)>) -> OpId {
        self.pin(&op);
        let params: Vec<Sort> = op.params.iter().map(|p| p.sort.clone()).collect();
        let sorts = match self.sorts.iter().position(|(s, _)| *s == params) {
            Some(i) => i,
            None => {
                let universe = self.atoms.universe();
                let table = params.iter().map(|s| universe.size(s)).product();
                self.sorts.push((params, table));
                self.sorts.len() - 1
            }
        };
        self.ops.push(Known {
            op,
            sorts,
            base,
            footprints: Vec::new(),
        });
        OpId(self.ops.len() as u32 - 1)
    }

    /// The slot of `args` in a footprint table over `sorts`: each
    /// argument's position among its sort's elements, in mixed radix.
    /// `None` when an argument is not an element of the universe of its
    /// parameter's sort.
    fn slot(&self, sorts: &[Sort], args: &[Constant]) -> Option<usize> {
        if args.len() != sorts.len() {
            return None;
        }
        let universe = self.atoms.universe();
        sorts.iter().zip(args).try_fold(0, |slot, (sort, arg)| {
            let elements = universe.elements(sort);
            let digit = elements.iter().position(|e| e == arg)?;
            Some(slot * elements.len() + digit)
        })
    }

    /// The footprint of operation `id` at `slot`, whose arguments are
    /// `args`: cached, extended from its parent's (rule 3), or built.
    pub(crate) fn footprint_at(
        &mut self,
        id: OpId,
        slot: usize,
        args: &[Constant],
    ) -> Result<Option<Rc<Footprint>>, AnalysisError> {
        if let Some(Some(hit)) = self.known(id).footprints.get(slot) {
            return Ok(hit.clone());
        }
        let footprint = match self.known(id).base {
            Some((base, from)) => match self.footprint_at(base, slot, args)? {
                Some(parent) => {
                    self.footprints_extended += 1;
                    self.extended(&parent, &self.known(id).op, from, args)?
                }
                None => None,
            },
            None => {
                self.footprints_built += 1;
                self.build(&self.known(id).op, args)?
            }
        }
        .map(Rc::new);
        let table = self.sorts[self.known(id).sorts].1;
        let footprints = &mut self.ops[id.0 as usize].footprints;
        if footprints.is_empty() {
            footprints.resize(table, None);
        }
        footprints[slot] = Some(footprint.clone());
        Ok(footprint)
    }

    /// The footprint of `op(args)` from its effects.
    fn build(&self, op: &Operation, args: &[Constant]) -> Result<Option<Footprint>, AnalysisError> {
        let Some(effects) = op.ground(args) else {
            return Ok(None);
        };
        let grounder = Grounder::with_atoms(&self.atoms, &self.spec.constants);
        let summary = EffectSummary::from_effects(&effects, &grounder)?;
        let wp = self.image(&summary);
        Ok(Some(Footprint { summary, wp }))
    }

    /// The footprint of `op(args)` from `parent`, the footprint of the
    /// operation `op` extends with `op.added_effects[from..]`, at the same
    /// arguments (rule 3).
    fn extended(
        &self,
        parent: &Footprint,
        op: &Operation,
        from: usize,
        args: &[Constant],
    ) -> Result<Option<Footprint>, AnalysisError> {
        let binding = op.binding(args);
        let Some(added) = op.added_effects[from..]
            .iter()
            .map(|e| GroundEffect::from_effect(&e.substitute(&binding)))
            .collect::<Option<Vec<_>>>()
        else {
            return Ok(None);
        };
        let grounder = Grounder::with_atoms(&self.atoms, &self.spec.constants);
        let mut summary = parent.summary.clone();
        let mut touched: Vec<usize> = Vec::new();
        summary.apply(&added, &grounder, |a| {
            touched.extend(self.mentions.get(a.index()).into_iter().flatten())
        })?;
        touched.sort_unstable();
        touched.dedup();
        let mut kept = parent
            .wp
            .iter()
            .filter(|i| touched.binary_search(&i.conjunct).is_err())
            .peekable();
        let mut wp = Vec::with_capacity(parent.wp.len() + touched.len());
        for &conjunct in &touched {
            while let Some(i) = kept.next_if(|i| i.conjunct < conjunct) {
                wp.push(i.clone());
            }
            wp.extend(self.image_of(conjunct, &summary));
        }
        wp.extend(kept.cloned());
        Ok(Some(Footprint { summary, wp }))
    }

    /// Rule 5: the instantiations of `op1 ∥ op2`, one per orbit, in the
    /// order of the full product. Enumerated once per pair of parameter
    /// sort lists.
    pub(crate) fn instantiations(&mut self, op1: OpId, op2: OpId) -> Rc<[Case]> {
        let key = (self.known(op1).sorts, self.known(op2).sorts);
        if let Some(cases) = self.instantiations.get(&key) {
            return cases.clone();
        }
        let (s1, s2) = (&self.sorts[key.0].0, &self.sorts[key.1].0);
        let cases: Rc<[Case]> =
            canonical_instantiations(s1, s2, self.atoms.universe(), &self.pinned)
                .into_iter()
                .map(|(args1, args2)| Case {
                    slot1: self
                        .slot(s1, &args1)
                        .expect("an instantiation over the universe"),
                    slot2: self
                        .slot(s2, &args2)
                        .expect("an instantiation over the universe"),
                    args1,
                    args2,
                })
                .collect();
        self.instantiations.insert(key, cases.clone());
        cases
    }

    /// Stop renaming the sorts the effects of `op` name an element of.
    /// The shipped specifications name none; an operation that does
    /// invalidates the enumerations made without it.
    fn pin(&mut self, op: &Operation) {
        let named = named_sorts(&[], [op]);
        if !named.is_subset(&self.pinned) {
            self.pinned.extend(named);
            self.instantiations.clear();
        }
    }

    /// One query: is there an `I`-valid state in which every image of
    /// `holds` is true and some image of `fails` is false? Both lists are
    /// images (rule 1): a conjunct not listed is unchanged, hence asserted
    /// already on the `holds` side and impossible to falsify on the
    /// `fails` side — as is an image that `holds` asserts. When the answer
    /// is yes, the solver's [`SolverSession::model`] is such a state.
    pub fn query(&mut self, holds: &[&Image], fails: &[&Image]) -> bool {
        self.queries += 1;
        // The members of `∨ ¬fails`; `None` when it is `True`.
        let negated: Option<Vec<&GroundFormula>> = fails
            .iter()
            .filter(|i| !holds.contains(i))
            .try_fold(Vec::new(), |mut members, i| {
                members.extend(i.negation.as_deref()?);
                Some(members)
            });
        if negated.as_ref().is_some_and(Vec::is_empty)
            || holds.iter().any(|i| *i.formula == GroundFormula::False)
        {
            return false; // UNSAT by construction
        }
        let began = Instant::now();
        self.solver.push();
        for i in holds {
            self.solver.assert(&i.formula);
        }
        // Asserted as `assert` would assert `GroundFormula::or` of them:
        // a lone member as itself (a conjunction splits), more as one
        // clause.
        match negated.as_deref() {
            None => {}
            Some([member]) => self.solver.assert(member),
            Some(members) => self.solver.assert_any(members.iter().copied()),
        }
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
        let pair = (self.intern(op1), self.intern(op2));
        if self.clean.contains(&pair) {
            self.memo_hits += 1;
            return Ok(None);
        }
        self.pair_checks += 1;
        let witness = self.witness(pair.0, pair.1)?;
        if witness.is_none() {
            self.clean.insert(pair);
        }
        Ok(witness)
    }
}
