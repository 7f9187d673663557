//! Small-scope grounding: from first-order formulas to quantifier-free
//! ground formulas over a finite universe.
//!
//! Universes are built by the analysis from the parameters of the operation
//! pair under test plus fresh witness elements — the same test-case
//! instantiation the paper delegates to Z3 (§3.2). Counting atoms
//! (`#enrolled(*, t)`) are expanded into explicit ground-atom lists;
//! numeric predicate atoms stay symbolic and are encoded with a bounded
//! order encoding downstream.
//!
//! A ground atom is named by its [`AtomId`] in an [`AtomTable`], the one
//! numbering of the universe's atoms: grounding computes ids, formulas,
//! effect summaries and the encoder hold them, and [`AtomTable::atom`]
//! turns one back into a [`GroundAtom`] for display.

use ipa_spec::Symbol;
use ipa_spec::{
    Atom, CmpOp, Constant, Formula, GroundAtom, NumExpr, PredicateDecl, Sort, Substitution, Term,
    Var,
};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
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

/// A ground atom's number in an [`AtomTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The id as an index into a table over atoms.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The numbering of the ground atoms over a universe.
///
/// Each declared predicate, in declaration-map order, owns a block of ids;
/// within it an atom's arguments count in mixed radix over each parameter
/// sort's elements, sorted by [`Constant`]'s order. So id order is
/// [`GroundAtom`] order, and an id is computed from the predicate and its
/// arguments without building the atom. An atom the blocks do not cover
/// (it names a constant outside the universe, or an undeclared predicate)
/// is numbered after all of them, when first met.
///
/// A count pattern's atoms are listed in the order the universe holds the
/// sort's elements, as quantifiers enumerate them, not in id order: the
/// encoder sees the same count whatever the elements' names.
///
/// An atom pattern over an operation's parameters compiles to a
/// [`Pattern`] ([`AtomTable::compile`]): the ids it ranges over, for any
/// binding of the parameters to elements, then come from the elements'
/// positions by the same arithmetic ([`AtomTable::expand_compiled`]).
#[derive(Clone, Debug)]
pub struct AtomTable {
    universe: Universe,
    /// The declared predicates, in declaration-map order.
    preds: Vec<Block>,
    by_name: HashMap<Symbol, usize>,
    /// The parameter sorts, one slot each.
    slots: Vec<Slot>,
    /// Ids below this number a block's atoms.
    covered: u32,
    /// Atoms outside every block, from `covered` on.
    extra: RefCell<Extra>,
}

#[derive(Clone, Debug)]
struct Block {
    pred: Symbol,
    base: u32,
    /// Per parameter: its sort's slot.
    params: Vec<usize>,
}

#[derive(Clone, Debug)]
struct Slot {
    sort: Sort,
    /// The sort's elements, sorted: an argument's digit is its position.
    sorted: Vec<Constant>,
    /// The digits of the sort's elements in the universe's order.
    walk: Vec<u32>,
}

impl Slot {
    fn digit(&self, c: &Constant) -> Option<u32> {
        self.sorted.iter().position(|e| e == c).map(|k| k as u32)
    }
}

/// An atom pattern whose arguments are elements, wildcards and an
/// operation's parameters, compiled against an [`AtomTable`]'s blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pattern {
    base: u32,
    /// Per argument: the slot of its position's sort, and what it is.
    args: Box<[(usize, PatternArg)]>,
}

/// One argument of a [`Pattern`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatternArg {
    /// The operation's parameter at this index.
    Param(usize),
    /// The element with this digit, its position among its sort's
    /// elements sorted.
    Element(u32),
    /// Every element of the position's sort, in the universe's order.
    Any,
}

#[derive(Clone, Debug, Default)]
struct Extra {
    ids: HashMap<GroundAtom, AtomId>,
    atoms: Vec<GroundAtom>,
}

impl AtomTable {
    pub fn new(universe: &Universe, decls: &BTreeMap<Symbol, PredicateDecl>) -> Self {
        let mut slots: Vec<Slot> = Vec::new();
        let mut preds = Vec::with_capacity(decls.len());
        let mut base = 0u32;
        for (pred, decl) in decls {
            let params: Vec<usize> = decl
                .params
                .iter()
                .map(|sort| match slots.iter().position(|s| s.sort == *sort) {
                    Some(slot) => slot,
                    None => {
                        let elems = universe.elements(sort);
                        let mut sorted = elems.to_vec();
                        sorted.sort();
                        let walk = elems
                            .iter()
                            .map(|c| sorted.binary_search(c).expect("an element") as u32)
                            .collect();
                        slots.push(Slot {
                            sort: sort.clone(),
                            sorted,
                            walk,
                        });
                        slots.len() - 1
                    }
                })
                .collect();
            let size = params.iter().try_fold(1u32, |n, &slot| {
                n.checked_mul(slots[slot].sorted.len() as u32)
            });
            preds.push(Block {
                pred: pred.clone(),
                base,
                params,
            });
            base = size
                .and_then(|size| base.checked_add(size))
                .expect("ground atoms outnumber u32");
        }
        AtomTable {
            universe: universe.clone(),
            by_name: preds
                .iter()
                .enumerate()
                .map(|(i, b)| (b.pred.clone(), i))
                .collect(),
            preds,
            slots,
            covered: base,
            extra: RefCell::default(),
        }
    }

    /// The universe the atoms range over.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// How many ids are in use: every id is below this.
    pub fn len(&self) -> usize {
        self.covered as usize + self.extra.borrow().atoms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id of `pred(args)`, numbering it first if no block covers it.
    pub fn id(&self, pred: &Symbol, args: &[Constant]) -> AtomId {
        self.covered_id(pred, args.iter())
            .unwrap_or_else(|| self.extra_id(GroundAtom::new(pred.clone(), args.to_vec())))
    }

    /// The id `pred(args)` has in its block, if one covers it.
    fn covered_id<'c>(
        &self,
        pred: &Symbol,
        args: impl ExactSizeIterator<Item = &'c Constant>,
    ) -> Option<AtomId> {
        let block = &self.preds[*self.by_name.get(pred)?];
        if args.len() != block.params.len() {
            return None;
        }
        let mut offset = 0u32;
        for (c, &slot) in args.zip(&block.params) {
            let slot = &self.slots[slot];
            offset = offset * slot.sorted.len() as u32 + slot.digit(c)?;
        }
        Some(AtomId(block.base + offset))
    }

    fn extra_id(&self, atom: GroundAtom) -> AtomId {
        let mut extra = self.extra.borrow_mut();
        if let Some(&id) = extra.ids.get(&atom) {
            return id;
        }
        let id = AtomId(self.covered + extra.atoms.len() as u32);
        extra.atoms.push(atom.clone());
        extra.ids.insert(atom, id);
        id
    }

    /// The block numbering `id`, if one does.
    fn block(&self, id: AtomId) -> Option<&Block> {
        if id.0 >= self.covered {
            return None;
        }
        // A block with no atoms shares its base with the next one.
        let i = self.preds.partition_point(|b| b.base <= id.0);
        Some(&self.preds[i - 1])
    }

    /// The ground atom `id` numbers.
    pub fn atom(&self, id: AtomId) -> GroundAtom {
        let Some(block) = self.block(id) else {
            return self.extra.borrow().atoms[(id.0 - self.covered) as usize].clone();
        };
        let mut offset = id.0 - block.base;
        let mut args = Vec::with_capacity(block.params.len());
        for &slot in block.params.iter().rev() {
            let elems = &self.slots[slot].sorted;
            args.push(elems[(offset % elems.len() as u32) as usize].clone());
            offset /= elems.len() as u32;
        }
        args.reverse();
        GroundAtom::new(block.pred.clone(), args)
    }

    /// The predicate of the atom `id` numbers.
    pub fn predicate(&self, id: AtomId) -> Symbol {
        match self.block(id) {
            Some(block) => block.pred.clone(),
            None => self.extra.borrow().atoms[(id.0 - self.covered) as usize]
                .pred
                .clone(),
        }
    }

    /// The ids of the atoms a pattern of constants and wildcards ranges
    /// over; a wildcard position ranges over the declared sort's elements,
    /// in the universe's order.
    fn expand(&self, pattern: &Atom) -> Result<Vec<AtomId>, GroundError> {
        let block = self
            .by_name
            .get(&pattern.pred)
            .map(|&i| &self.preds[i])
            .ok_or_else(|| GroundError::UnknownPredicate(pattern.pred.to_string()))?;
        if pattern.args.iter().any(|t| matches!(t, Term::Var(_))) {
            return Err(GroundError::OpenAtom(pattern.to_string()));
        }
        if pattern.args.len() != block.params.len() {
            return Ok(self.expand_outside(pattern, block));
        }
        let mut offsets = vec![0u32];
        for (i, t) in pattern.args.iter().enumerate() {
            let slot = &self.slots[block.params[i]];
            let radix = slot.sorted.len() as u32;
            let one;
            let digits: &[u32] = match t {
                Term::Const(c) => match slot.digit(c) {
                    Some(k) => {
                        one = [k];
                        &one
                    }
                    None => return Ok(self.expand_outside(pattern, block)),
                },
                _ => &slot.walk, // a wildcard
            };
            offsets = offsets
                .iter()
                .flat_map(|o| digits.iter().map(move |d| o * radix + d))
                .collect();
        }
        Ok(offsets
            .into_iter()
            .map(|o| AtomId(block.base + o))
            .collect())
    }

    /// `pattern` with its variables standing for the parameters `params`
    /// (the last of equal ones, as a binding of them keeps it), compiled
    /// to block arithmetic. `None` when the blocks do not number
    /// every atom it ranges over under every binding of the parameters
    /// to elements: an undeclared predicate, a wrong number of arguments,
    /// a constant outside the universe, a parameter of another sort than
    /// its position's, or a variable that is no parameter.
    pub fn compile(&self, pattern: &Atom, params: &[Var]) -> Option<Pattern> {
        let block = &self.preds[*self.by_name.get(&pattern.pred)?];
        if pattern.args.len() != block.params.len() {
            return None;
        }
        let args = pattern
            .args
            .iter()
            .zip(&block.params)
            .map(|(t, &slot)| {
                let arg = match t {
                    Term::Const(c) => PatternArg::Element(self.slots[slot].digit(c)?),
                    Term::Var(v) => {
                        let i = params.iter().rposition(|p| p == v)?;
                        (params[i].sort == self.slots[slot].sort).then_some(PatternArg::Param(i))?
                    }
                    Term::Wildcard => PatternArg::Any,
                };
                Some((slot, arg))
            })
            .collect::<Option<_>>()?;
        Some(Pattern {
            base: block.base,
            args,
        })
    }

    /// Pass `f` the ids `pattern` ranges over, with parameter `i` bound
    /// to the element at position `at(i)` of its sort in the universe's
    /// order, in the order [`Grounder::expand_count_pattern`] lists the
    /// atoms of the pattern so bound.
    pub fn expand_compiled(
        &self,
        pattern: &Pattern,
        at: &impl Fn(usize) -> usize,
        f: &mut impl FnMut(AtomId),
    ) {
        self.expand_from(pattern.base, &pattern.args, 0, at, f);
    }

    /// The atoms of `args`, a pattern's arguments from some position on,
    /// after the arguments before it made `offset`: the first argument
    /// varies slowest, as in [`AtomTable::expand`].
    fn expand_from(
        &self,
        base: u32,
        args: &[(usize, PatternArg)],
        offset: u32,
        at: &impl Fn(usize) -> usize,
        f: &mut impl FnMut(AtomId),
    ) {
        let Some((&(slot, arg), rest)) = args.split_first() else {
            f(AtomId(base + offset));
            return;
        };
        let slot = &self.slots[slot];
        let radix = slot.sorted.len() as u32;
        match arg {
            PatternArg::Param(i) => {
                self.expand_from(base, rest, offset * radix + slot.walk[at(i)], at, f)
            }
            PatternArg::Element(d) => self.expand_from(base, rest, offset * radix + d, at, f),
            PatternArg::Any => {
                for &d in &slot.walk {
                    self.expand_from(base, rest, offset * radix + d, at, f);
                }
            }
        }
    }

    /// [`AtomTable::expand`] for a pattern of constants and wildcards that
    /// names a constant outside the universe: its atoms are built and
    /// numbered one by one.
    fn expand_outside(&self, pattern: &Atom, block: &Block) -> Vec<AtomId> {
        let mut acc: Vec<Vec<Constant>> = vec![Vec::new()];
        for (i, t) in pattern.args.iter().enumerate() {
            let choices: &[Constant] = match t {
                Term::Const(c) => std::slice::from_ref(c),
                _ => self.universe.elements(&self.slots[block.params[i]].sort), // a wildcard
            };
            acc = acc
                .iter()
                .flat_map(|prefix| {
                    choices.iter().map(move |c| {
                        let mut p = prefix.clone();
                        p.push(c.clone());
                        p
                    })
                })
                .collect();
        }
        acc.iter()
            .map(|args| self.id(&pattern.pred, args))
            .collect()
    }
}

/// Quantifier-free ground formula: the encoder's input language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroundFormula {
    True,
    False,
    Atom(AtomId),
    Not(Box<GroundFormula>),
    And(Vec<GroundFormula>),
    Or(Vec<GroundFormula>),
    /// `|{a ∈ atoms : a true}| + offset  op  rhs`
    CountCmp {
        atoms: Vec<AtomId>,
        offset: i64,
        op: CmpOp,
        rhs: i64,
    },
    /// `value(atom) + offset  op  rhs` for a numeric predicate instance.
    ValueCmp {
        atom: AtomId,
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
    pub fn bool_atoms(&self) -> BTreeSet<AtomId> {
        let mut out = BTreeSet::new();
        self.visit(&mut |g| match g {
            GroundFormula::Atom(a) => {
                out.insert(*a);
            }
            GroundFormula::CountCmp { atoms, .. } => out.extend(atoms),
            _ => {}
        });
        out
    }

    /// All numeric ground atoms mentioned.
    pub fn num_atoms(&self) -> BTreeSet<AtomId> {
        let mut out = BTreeSet::new();
        self.visit(&mut |g| {
            if let GroundFormula::ValueCmp { atom, .. } = g {
                out.insert(*atom);
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
    pub fn eval(&self, bools: &BTreeMap<AtomId, bool>, nums: &BTreeMap<AtomId, i64>) -> bool {
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

/// Grounds formulas over a [`Universe`], naming atoms by their ids in an
/// [`AtomTable`], resolving wildcard sorts via the predicate declarations
/// and named constants via the constant table.
pub struct Grounder<'a> {
    atoms: Cow<'a, AtomTable>,
    named: &'a BTreeMap<Symbol, i64>,
}

impl<'a> Grounder<'a> {
    /// A grounder with its own [`AtomTable`] over `universe` and `decls`.
    pub fn new(
        universe: &'a Universe,
        decls: &'a BTreeMap<Symbol, PredicateDecl>,
        named: &'a BTreeMap<Symbol, i64>,
    ) -> Self {
        Grounder {
            atoms: Cow::Owned(AtomTable::new(universe, decls)),
            named,
        }
    }

    /// A grounder numbering atoms in a table built once for many.
    pub fn with_atoms(atoms: &'a AtomTable, named: &'a BTreeMap<Symbol, i64>) -> Self {
        Grounder {
            atoms: Cow::Borrowed(atoms),
            named,
        }
    }

    /// The numbering the ground formulas' ids refer to.
    pub fn atoms(&self) -> &AtomTable {
        &self.atoms
    }

    /// Ground a closed formula (its quantifiers expand over the universe).
    pub fn ground(&self, f: &Formula) -> Result<GroundFormula, GroundError> {
        Ok(match f {
            Formula::True => GroundFormula::True,
            Formula::False => GroundFormula::False,
            Formula::Atom(a) => {
                if a.has_wildcard() {
                    return Err(GroundError::WildcardInBooleanAtom(a.to_string()));
                }
                GroundFormula::Atom(self.ground_atom(a)?)
            }
            Formula::Not(g) => GroundFormula::not(self.ground(g)?),
            Formula::And(gs) => GroundFormula::and(
                gs.iter()
                    .map(|g| self.ground(g))
                    .collect::<Result<_, _>>()?,
            ),
            Formula::Or(gs) => GroundFormula::or(
                gs.iter()
                    .map(|g| self.ground(g))
                    .collect::<Result<_, _>>()?,
            ),
            Formula::Implies(l, r) => {
                GroundFormula::or(vec![GroundFormula::not(self.ground(l)?), self.ground(r)?])
            }
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
            out.push(self.ground(&body.substitute(subst))?);
            return Ok(());
        }
        let var = &vars[idx];
        for c in self.atoms.universe().elements(&var.sort) {
            subst.insert(var.clone(), Term::Const(c.clone()));
            self.expand_quant(vars, body, subst, idx + 1, out)?;
        }
        subst.remove(var);
        Ok(())
    }

    /// The id of an atom whose arguments are all constants.
    fn ground_atom(&self, a: &Atom) -> Result<AtomId, GroundError> {
        if !a.args.iter().all(|t| matches!(t, Term::Const(_))) {
            return Err(GroundError::OpenAtom(a.to_string()));
        }
        let args = a.args.iter().map(|t| match t {
            Term::Const(c) => c,
            _ => unreachable!("checked above"),
        });
        Ok(match self.atoms.covered_id(&a.pred, args.clone()) {
            Some(id) => id,
            None => self
                .atoms
                .extra_id(GroundAtom::new(a.pred.clone(), args.cloned().collect())),
        })
    }

    /// Expand a count pattern (constants + wildcards) into the ids of the
    /// ground atoms it ranges over. Wildcard positions enumerate the
    /// universe of the declared sort at that position, in its order.
    pub fn expand_count_pattern(&self, pattern: &Atom) -> Result<Vec<AtomId>, GroundError> {
        self.atoms.expand(pattern)
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
                let atom = self.ground_atom(a)?;
                lin.terms.push((sign, TermRef::Value(atom)));
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

#[derive(Default)]
struct Lin {
    terms: Vec<(i64, TermRef)>,
    konst: i64,
}

#[derive(Debug)]
enum TermRef {
    Count(Vec<AtomId>),
    Value(AtomId),
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
    fn ids_number_the_universe_in_ground_atom_order() {
        // Elements added out of order: ids follow `Constant`'s order.
        let u: Universe = [player("P2"), tourn("T2"), player("P1"), tourn("T1")]
            .into_iter()
            .collect();
        let table = AtomTable::new(&u, &decls());
        // 4 enrolled + 2 player + 2 stock + 2 tournament.
        assert_eq!(table.len(), 10);
        let atoms: Vec<GroundAtom> = (0..10).map(|i| table.atom(AtomId(i))).collect();
        assert!(atoms.windows(2).all(|w| w[0] < w[1]), "{atoms:?}");
        for (i, a) in atoms.iter().enumerate() {
            assert_eq!(table.id(&a.pred, &a.args), AtomId(i as u32));
            assert_eq!(table.predicate(AtomId(i as u32)), a.pred);
        }
        assert_eq!(atoms[0].to_string(), "enrolled(P1, T1)");
        assert_eq!(atoms[9].to_string(), "tournament(T2)");
        // A count ranges over a sort in the universe's order, not by id.
        let named = BTreeMap::new();
        let g = Grounder::with_atoms(&table, &named);
        let pattern = Atom::new("enrolled", vec![Term::Wildcard, Term::Const(tourn("T1"))]);
        let shown: Vec<String> = g
            .expand_count_pattern(&pattern)
            .unwrap()
            .into_iter()
            .map(|a| table.atom(a).to_string())
            .collect();
        assert_eq!(shown, ["enrolled(P2, T1)", "enrolled(P1, T1)"]);
    }

    #[test]
    fn an_atom_outside_the_universe_is_numbered_after_it() {
        let u = small_universe();
        let d = decls();
        let named = BTreeMap::new();
        let g = Grounder::new(&u, &d, &named);
        let covered = g.atoms().len();
        assert_eq!(covered, 2 + 2 + 1 + 1);
        // `T9` is no element of the universe: the atom still grounds.
        let t9 = || Term::Const(tourn("T9"));
        let p = Var::new("p", "Player");
        let f = Formula::forall(
            vec![p.clone()],
            Formula::implies(
                Formula::atom("enrolled", vec![Term::Var(p), t9()]),
                Formula::atom("tournament", vec![t9()]),
            ),
        );
        let gf = g.ground(&f).unwrap();
        let extra: Vec<AtomId> = gf
            .bool_atoms()
            .into_iter()
            .filter(|a| a.index() >= covered)
            .collect();
        assert_eq!(extra.len(), 3, "{gf:?}");
        let shown: Vec<String> = extra
            .iter()
            .map(|&a| g.atoms().atom(a).to_string())
            .collect();
        assert_eq!(
            shown,
            ["enrolled(P1, T9)", "tournament(T9)", "enrolled(P2, T9)"]
        );
        // Met again, such an atom keeps its id; a wildcard over the
        // universe's players finds both.
        let pattern = Atom::new("enrolled", vec![Term::Wildcard, t9()]);
        assert_eq!(
            g.expand_count_pattern(&pattern).unwrap(),
            vec![extra[0], extra[2]]
        );
        assert_eq!(g.atoms().len(), covered + 3);
        assert_eq!(g.atoms().predicate(extra[1]).as_str(), "tournament");
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
        assert_eq!(g.atoms().atom(atoms[0]).to_string(), "enrolled(P1, T1)");
        let ghost = Atom::new("ghost", vec![Term::Wildcard]);
        assert!(matches!(
            g.expand_count_pattern(&ghost),
            Err(GroundError::UnknownPredicate(_))
        ));
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
                assert_eq!(g.atoms().atom(atom).to_string(), "stock(T1)");
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
        let (a1, a2) = (AtomId(0), AtomId(1));
        let gf = GroundFormula::CountCmp {
            atoms: vec![a1, a2],
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
