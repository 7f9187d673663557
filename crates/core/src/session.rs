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
//!    (`renew_solver`). Each distinct image has a number, and a query
//!    asserts its images by number: the first time a solver meets one
//!    it encodes it and records the literals and clauses the assertion
//!    added, every later time it replays them
//!    ([`SolverSession::assert_numbered`]). Encoding is idempotent, so a
//!    replay adds what re-encoding would: the same clauses over the same
//!    variables, and every counter as before. A record is the solver's,
//!    and goes with it.
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
//!    lists its atoms in the universe's order of elements. Effects are
//!    grounded by block arithmetic too: an operation's effects are
//!    compiled once ([`AtomTable::compile`]), and a footprint's atoms come
//!    from its slot's digits, each argument's position in the universe's
//!    order of its sort, mapped to the table's sorted order
//!    ([`AtomTable::expand_compiled`]). Only an effect the blocks do not
//!    number (one naming a constant outside the universe) is grounded by
//!    name. Only a witness decodes a model: the repair search's two
//!    questions,
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
use ipa_solver::{
    AtomId, AtomTable, GroundError, GroundFormula, Grounder, IdMap, IdSet, Pattern, SolverSession,
};
use ipa_spec::{AppSpec, Atom, Constant, Effect, EffectKind, Operation, Sort, Symbol};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
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
    /// The image's number in its session: two images of one session have
    /// one number exactly when they have one conjunct and one formula.
    id: u32,
    /// `¬formula` as the members it adds to a disjunction
    /// ([`GroundFormula::or`] flattens one level), built once for every
    /// query that needs the image to fail; `None` when it is `True`,
    /// which absorbs the disjunction.
    negation: Option<Rc<[GroundFormula]>>,
}

impl PartialEq for Image {
    /// Images of one session are equal when their numbers are.
    fn eq(&self, other: &Image) -> bool {
        self.id == other.id
    }
}

impl Eq for Image {}

impl Image {
    fn new(conjunct: usize, id: u32, formula: GroundFormula) -> Image {
        let negation = match GroundFormula::not(formula.clone()) {
            GroundFormula::True => None,
            GroundFormula::False => Some(Rc::from([])),
            GroundFormula::Or(parts) => Some(parts.into()),
            g => Some(Rc::from([g])),
        };
        Image {
            conjunct,
            formula: Rc::new(formula),
            id,
            negation,
        }
    }
}

/// The images met so far (rule 1), with the scratch space of looking
/// them up.
struct Images {
    /// By conjunct and what the summary does to its atoms
    /// ([`AnalysisSession::image_of`]); `None` for "unchanged".
    by_key: IdMap<Vec<i64>, Option<Image>>,
    /// The distinct images of each conjunct, by conjunct: two keys that
    /// leave a conjunct the same formula share an image and its number.
    distinct: Vec<Vec<Image>>,
    /// Images numbered so far.
    numbered: u32,
    /// The key being looked up.
    key: Vec<i64>,
    /// The conjuncts a summary's written atoms occur in.
    touched: Vec<usize>,
}

impl Images {
    fn new(conjuncts: usize) -> Images {
        Images {
            by_key: IdMap::default(),
            distinct: (0..conjuncts).map(|_| Vec::new()).collect(),
            numbered: 0,
            key: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// The image of `conjunct` that is `formula`: the one met before, or
    /// a new one with the next number.
    fn intern(&mut self, conjunct: usize, formula: GroundFormula) -> Image {
        let distinct = &mut self.distinct[conjunct];
        if let Some(known) = distinct.iter().find(|i| *i.formula == formula) {
            return known.clone();
        }
        let image = Image::new(conjunct, self.numbered, formula);
        self.numbered += 1;
        distinct.push(image.clone());
        image
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
    /// For a repair candidate: the operation it extends.
    base: Option<OpId>,
    /// The effects its footprints apply, compiled (rule 6): all of the
    /// operation's when they are built, the candidate's own added effects
    /// when they are extended. `None` when one names a variable that is
    /// no parameter, so that no instantiation grounds it.
    effects: Option<Box<[Compiled]>>,
    /// Footprints by slot, filled on first use. The inner `None` records
    /// an instantiation the operation's sorts reject.
    footprints: Vec<Option<Option<Rc<Footprint>>>>,
}

/// An effect of an operation, compiled once per session (rule 6).
struct Compiled {
    kind: EffectKind,
    target: Target,
}

/// The atoms a compiled effect writes.
enum Target {
    /// Numbered by block arithmetic from the instantiation's element
    /// positions ([`AtomTable::expand_compiled`]).
    Block(Pattern),
    /// A pattern the blocks do not number (one that names a constant
    /// outside the universe, or does not fit its predicate): substituted
    /// and grounded by name, which numbers its atoms after the
    /// universe's or reports the error.
    Named(Atom),
}

/// A distinct list of parameter sorts, with what numbers a footprint
/// table over it.
struct SortList {
    sorts: Vec<Sort>,
    /// The table's size: the product of the sorts' sizes.
    table: usize,
    /// Per parameter: its sort's size, and the product of the sizes after
    /// it. A slot's digit for parameter `i` is `slot / stride % size`.
    sizes: Vec<usize>,
    strides: Vec<usize>,
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
    images: RefCell<Images>,
    /// Scratch: the post-state images of the query being asked, and the
    /// writes of the footprint being extended.
    pub(crate) post: Vec<Image>,
    writes: Vec<(EffectKind, AtomId)>,
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
    /// The distinct parameter sort lists met.
    sorts: Vec<SortList>,
    /// Pairs of operations found not to conflict.
    clean: IdSet<(OpId, OpId)>,
    /// Sorts an invariant or an effect met so far names an element of:
    /// rule 5 does not rename them.
    pinned: BTreeSet<Sort>,
    /// Rule 5's instantiations, per pair of parameter sort lists.
    instantiations: IdMap<(usize, usize), Rc<[Case]>>,
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
            images: RefCell::new(Images::new(conjuncts.len())),
            conjuncts,
            mentions,
            conjunct_atoms,
            post: Vec::new(),
            writes: Vec::new(),
            ops: Vec::new(),
            by_name: HashMap::new(),
            sorts: Vec::new(),
            clean: IdSet::default(),
            pinned: named_sorts(&spec.invariants, &spec.operations),
            instantiations: IdMap::default(),
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
        let mut out = Vec::new();
        self.image_into(s, &mut out);
        out
    }

    /// [`AnalysisSession::image`], appended to `out`.
    pub(crate) fn image_into(&self, s: &EffectSummary, out: &mut Vec<Image>) {
        let mut images = self.images.borrow_mut();
        let mut touched = std::mem::take(&mut images.touched);
        touched.clear();
        touched.extend(
            s.assigns
                .keys()
                .chain(s.deltas.keys())
                .filter_map(|a| self.mentions.get(a.index()))
                .flatten(),
        );
        touched.sort_unstable();
        touched.dedup();
        out.extend(
            touched
                .iter()
                .filter_map(|&conjunct| self.image_of(&mut images, conjunct, s)),
        );
        images.touched = touched;
    }

    /// The image of one conjunct under `s`, if `s` changes it: computed
    /// on first use and shared under the conjunct and, per atom of it,
    /// the value `s` assigns (none, false, true) and the delta it adds
    /// (rule 1). The key is built in a buffer kept for the purpose and
    /// looked up as a slice; only a new key is copied into the table.
    fn image_of(&self, images: &mut Images, conjunct: usize, s: &EffectSummary) -> Option<Image> {
        images.key.clear();
        images.key.push(conjunct as i64);
        images
            .key
            .extend(self.conjunct_atoms[conjunct].iter().map(|a| {
                let assigned = match s.assigns.get(a) {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                };
                3 * s.deltas.get(a).copied().unwrap_or(0) + assigned
            }));
        if let Some(known) = images.by_key.get(images.key.as_slice()) {
            return known.clone();
        }
        let formula = apply_summary(&self.conjuncts[conjunct], s);
        let image = (formula != self.conjuncts[conjunct]).then(|| images.intern(conjunct, formula));
        images.by_key.insert(images.key.clone(), image.clone());
        image
    }

    /// The footprint of `op(args)`, computed on first use and cached under
    /// the operation's id. `None` when the arguments' sorts do not fit.
    pub fn footprint(
        &mut self,
        op: &Operation,
        args: &[Constant],
    ) -> Result<Option<Rc<Footprint>>, AnalysisError> {
        let id = self.intern(op);
        match self.slot(&self.sorts[self.known(id).sorts].sorts, args) {
            Some(slot) => self.footprint_at(id, slot, args),
            // Arguments from outside the universe: nothing to cache under,
            // and no element positions to number atoms by, so the
            // effects are grounded by name.
            None => {
                let Some(effects) = op.ground(args) else {
                    return Ok(None);
                };
                let grounder = Grounder::with_atoms(&self.atoms, &self.spec.constants);
                let summary = EffectSummary::from_effects(&effects, &grounder)?;
                let wp = self.image(&summary);
                Ok(Some(Rc::new(Footprint { summary, wp })))
            }
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

    /// Name `op`: a repair candidate extending `base` with
    /// `op.added_effects[from..]` when `base` is `Some((base, from))`.
    fn register(&mut self, op: Operation, base: Option<(OpId, usize)>) -> OpId {
        self.pin(&op);
        let (sorts, effects) = match base {
            // A candidate has its original's parameters.
            Some((base, from)) => (
                self.known(base).sorts,
                self.compile(&op, &op.added_effects[from..]),
            ),
            None => (self.sort_list(&op), self.compile(&op, op.all_effects())),
        };
        self.ops.push(Known {
            op,
            sorts,
            base: base.map(|(base, _)| base),
            effects,
            footprints: Vec::new(),
        });
        OpId(self.ops.len() as u32 - 1)
    }

    /// The index of `op`'s parameter sort list in `self.sorts`, added if
    /// new.
    fn sort_list(&mut self, op: &Operation) -> usize {
        if let Some(i) = self
            .sorts
            .iter()
            .position(|l| l.sorts.iter().eq(op.params.iter().map(|p| &p.sort)))
        {
            return i;
        }
        let universe = self.atoms.universe();
        let sorts: Vec<Sort> = op.params.iter().map(|p| p.sort.clone()).collect();
        let sizes: Vec<usize> = sorts.iter().map(|s| universe.size(s)).collect();
        let mut strides = vec![1; sizes.len()];
        for i in (1..sizes.len()).rev() {
            strides[i - 1] = strides[i] * sizes[i];
        }
        self.sorts.push(SortList {
            table: sizes.iter().product(),
            sorts,
            sizes,
            strides,
        });
        self.sorts.len() - 1
    }

    /// Rule 6: `effects`, effects of `op`, compiled against the atom
    /// table. `None` when one names a variable that is no parameter of
    /// `op`, as [`Operation::ground`] refuses it.
    fn compile<'e>(
        &self,
        op: &Operation,
        effects: impl IntoIterator<Item = &'e Effect>,
    ) -> Option<Box<[Compiled]>> {
        effects
            .into_iter()
            .map(|e| {
                if e.atom.vars().any(|v| !op.params.contains(v)) {
                    return None;
                }
                let target = match self.atoms.compile(&e.atom, &op.params) {
                    Some(pattern) => Target::Block(pattern),
                    None => Target::Named(e.atom.clone()),
                };
                Some(Compiled {
                    kind: e.kind,
                    target,
                })
            })
            .collect()
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
            Some(base) => match self.footprint_at(base, slot, args)? {
                Some(parent) => {
                    self.footprints_extended += 1;
                    let mut writes = std::mem::take(&mut self.writes);
                    let extended = self.extended(&parent, id, slot, args, &mut writes);
                    self.writes = writes;
                    extended?
                }
                None => None,
            },
            None => {
                self.footprints_built += 1;
                self.build(id, slot, args)?
            }
        }
        .map(Rc::new);
        let table = self.sorts[self.known(id).sorts].table;
        let footprints = &mut self.ops[id.0 as usize].footprints;
        if footprints.is_empty() {
            footprints.resize(table, None);
        }
        footprints[slot] = Some(footprint.clone());
        Ok(footprint)
    }

    /// The footprint of operation `id` at `slot` from its effects.
    fn build(
        &self,
        id: OpId,
        slot: usize,
        args: &[Constant],
    ) -> Result<Option<Footprint>, AnalysisError> {
        let mut summary = EffectSummary::default();
        if !self.each_write(id, slot, args, |kind, t| summary.write(kind, t))? {
            return Ok(None);
        }
        let wp = self.image(&summary);
        Ok(Some(Footprint { summary, wp }))
    }

    /// The footprint of candidate `id` at `slot` from `parent`, the
    /// footprint of the operation it extends at the same slot (rule 3).
    fn extended(
        &self,
        parent: &Footprint,
        id: OpId,
        slot: usize,
        args: &[Constant],
        writes: &mut Vec<(EffectKind, AtomId)>,
    ) -> Result<Option<Footprint>, AnalysisError> {
        writes.clear();
        if !self.each_write(id, slot, args, |kind, t| writes.push((kind, t)))? {
            return Ok(None);
        }
        let mut summary = parent.summary.clone();
        let mut images = self.images.borrow_mut();
        let mut touched = std::mem::take(&mut images.touched);
        touched.clear();
        for &(kind, t) in writes.iter() {
            summary.write(kind, t);
            touched.extend(self.mentions.get(t.index()).into_iter().flatten());
        }
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
            wp.extend(self.image_of(&mut images, conjunct, &summary));
        }
        wp.extend(kept.cloned());
        images.touched = touched;
        Ok(Some(Footprint { summary, wp }))
    }

    /// Pass `write` each ground effect of operation `id`'s compiled
    /// effects at `slot`, whose arguments are `args`, in order: its kind
    /// and the atom it writes. `false` when the effects name a variable
    /// that is no parameter, so nothing is written.
    fn each_write(
        &self,
        id: OpId,
        slot: usize,
        args: &[Constant],
        mut write: impl FnMut(EffectKind, AtomId),
    ) -> Result<bool, GroundError> {
        let known = self.known(id);
        let Some(effects) = known.effects.as_deref() else {
            return Ok(false);
        };
        let list = &self.sorts[known.sorts];
        // Parameter `i`'s element position within its sort.
        let at = |i: usize| slot / list.strides[i] % list.sizes[i];
        for e in effects {
            match &e.target {
                Target::Block(pattern) => self
                    .atoms
                    .expand_compiled(pattern, &at, &mut |t| write(e.kind, t)),
                Target::Named(atom) => {
                    let grounder = Grounder::with_atoms(&self.atoms, &self.spec.constants);
                    let atom = atom.substitute(&known.op.binding(args));
                    for t in grounder.expand_count_pattern(&atom)? {
                        write(e.kind, t);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Rule 5: the instantiations of `op1 ∥ op2`, one per orbit, in the
    /// order of the full product. Enumerated once per pair of parameter
    /// sort lists.
    pub(crate) fn instantiations(&mut self, op1: OpId, op2: OpId) -> Rc<[Case]> {
        let key = (self.known(op1).sorts, self.known(op2).sorts);
        if let Some(cases) = self.instantiations.get(&key) {
            return cases.clone();
        }
        let (s1, s2) = (&self.sorts[key.0].sorts, &self.sorts[key.1].sorts);
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
        self.ask(holds.iter().copied(), fails.iter().copied())
    }

    /// [`AnalysisSession::query`] over any two runs of images. Rule 2:
    /// the solver asserts each image by its number, so an image asserted
    /// before on the same solver replays the literals and clauses its
    /// first assertion recorded ([`SolverSession::assert_numbered`]).
    /// Image `n`'s formula is solver number `2n` and the lone member of
    /// its negation `2n + 1`; its negation's member list is member list
    /// `n`.
    pub(crate) fn ask<'i>(
        &mut self,
        holds: impl Iterator<Item = &'i Image> + Clone,
        fails: impl Iterator<Item = &'i Image> + Clone,
    ) -> bool {
        self.queries += 1;
        let failing = fails.filter(|i| !holds.clone().any(|h| h.id == i.id));
        // How many members `∨ ¬failing` has; `None` when it is `True`.
        let mut members = Some(0);
        let mut lone = None;
        for i in failing.clone() {
            match (&i.negation, &mut members) {
                (None, _) => members = None,
                (Some(negation), Some(n)) => {
                    *n += negation.len();
                    if negation.len() == 1 {
                        lone = Some(i);
                    }
                }
                (Some(_), None) => {}
            }
        }
        if members == Some(0) || holds.clone().any(|i| *i.formula == GroundFormula::False) {
            return false; // UNSAT by construction
        }
        let began = Instant::now();
        self.solver.push();
        for i in holds.clone() {
            self.solver.assert_numbered(2 * i.id, &i.formula);
        }
        // Asserted as `assert` would assert `GroundFormula::or` of the
        // members: a lone member as itself (a conjunction splits), more
        // as one clause.
        match (members, lone) {
            (None, _) => {}
            (Some(1), Some(i)) => {
                let member = &i.negation.as_deref().expect("a member")[0];
                self.solver.assert_numbered(2 * i.id + 1, member);
            }
            (Some(_), _) => self.solver.assert_any_numbered(
                failing.map(|i| (i.id, i.negation.as_deref().expect("not absorbing"))),
            ),
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
