//! The store↔spec mapping: where an application's runtime keeps each
//! predicate of its spec, and the guard-walking evaluator the invariant
//! oracle ([`crate::oracle`]) derives its checks with.
//!
//! Read backwards, [`Layout::interpretation`] materialises a replica as an
//! `ipa_spec::Interpretation`, the language's reference semantics, which
//! every check is tested against. Read forwards, [`Layout::member`] turns
//! a predicate's arguments into the tuple the store holds: a place may
//! put first the argument its runtime reads by ([`Place::ordered`]), so
//! that such a read is one range of the ordered set. A check's plan
//! walks only what is stored, for three clause shapes:
//!
//! * `G(x̄) ⇒ C` and `¬(G(x̄) ∧ R)`: walk the members of the guard atom
//!   `G`, whose distinct variables bind all others, and test `C` (or
//!   `¬R`) by membership; one violation per member that breaks it.
//! * `#p(…, *, …) op k` (the measure on the left): one violation per group of `p`'s members that
//!   agree on the variables, whose size breaks the bound.
//! * `v(e) op k` and `#p(*, e) op k` on a per-entity place: one
//!   violation per stored entity object whose measure breaks it.
//!
//! A bound must hold of 0, since an empty group or a missing object is
//! never walked. Any other shape is an error when the oracle is built.

use ipa_crdt::{Object, Val};
use ipa_spec::{AppSpec, Atom, CmpOp, Constant, Formula, GroundAtom, Interpretation, NumExpr};
use ipa_spec::{PredicateKind, Term, Var};
use ipa_store::Replica;
use std::collections::HashMap;

/// Where one predicate's true instances are stored.
#[derive(Clone, Copy, Debug)]
pub enum Place {
    /// A set-like object at `key` (set elements, map keys, or a
    /// compensation set's raw view) of `arity`-tuples (bare values when
    /// 1): the predicate's i-th argument is position `args[i]`. A place
    /// whose `args` skip a position can guard a clause but cannot be
    /// tested for membership.
    Members {
        key: &'static str,
        arity: usize,
        args: &'static [usize],
    },
    /// One object per entity the workload sizes, at `{prefix}{entity}`,
    /// the entity being the last argument: a set of the first argument
    /// for a boolean predicate, a counter for a numeric one.
    PerEntity { prefix: &'static str },
}

impl Place {
    /// A set of bare values: a unary predicate.
    pub const fn set(key: &'static str) -> Place {
        Place::tuple(key, 1)
    }

    /// A set of `arity`-tuples in the predicate's argument order.
    pub const fn tuple(key: &'static str, arity: usize) -> Place {
        let orders: [&[usize]; 3] = [&[0], &[0, 1], &[0, 1, 2]];
        Place::ordered(key, orders[arity - 1])
    }

    /// A set of whole tuples holding the predicate's i-th argument at
    /// position `args[i]`: the argument a runtime reads by goes first, so
    /// that its members are one range of the ordered set.
    pub const fn ordered(key: &'static str, args: &'static [usize]) -> Place {
        Place::Members {
            key,
            arity: args.len(),
            args,
        }
    }
}

/// One application's layout table: each predicate its invariants
/// mention, mapped to a [`Place`] or listed as unmapped with the reason.
#[derive(Debug)]
pub struct Layout {
    pub places: &'static [(&'static str, Place)],
    pub unmapped: &'static [(&'static str, &'static str)],
}

/// What the workload sizes: the entities of the per-entity places, and
/// the named constants' values, each one value for every entity or one
/// per entity. A constant not named here keeps the spec's value.
#[derive(Clone, Debug, Default)]
pub struct Sizing {
    pub entities: Vec<String>,
    pub named: Vec<(&'static str, Vec<i64>)>,
}

/// A bound's right-hand side: a literal, or a named constant with the
/// spec's value.
#[derive(Clone, Debug)]
pub(crate) struct Rhs(Option<String>, i64);

impl Sizing {
    pub fn new(entities: Vec<String>, named: Vec<(&'static str, Vec<i64>)>) -> Sizing {
        Sizing { entities, named }
    }

    fn value(&self, rhs: &Rhs, entity: usize) -> i64 {
        let sized = self
            .named
            .iter()
            .find(|(n, _)| Some(*n) == rhs.0.as_deref());
        sized.map_or(rhs.1, |(_, v)| *v.get(entity).unwrap_or(&v[0]))
    }
}

/// A consequent, tested on one guard member's values.
#[derive(Clone, Debug)]
pub(crate) enum Test {
    /// `p(y…)` is stored, `y_i` being the guard's argument `vars[i]`.
    Member(usize, Vec<usize>),
    Not(Box<Test>),
    All(Vec<Test>),
    Any(Vec<Test>),
}

/// One compiled check; each first `usize` indexes [`Layout::places`].
#[derive(Clone, Debug)]
pub(crate) enum Plan {
    Guard(usize, Test),
    /// The argument positions of the count's variables, and the bound.
    Count(usize, Vec<usize>, CmpOp, Rhs),
    /// A bound on each entity object's [`measure`].
    PerEntity(usize, CmpOp, Rhs),
}

/// Call `f` on each member of a set-like object; nothing when missing.
/// In no particular order: every caller counts the members or marks each
/// one's atom true.
fn for_each_member(obj: Option<&Object>, f: impl FnMut(&Val)) {
    match obj {
        Some(Object::AWSet(s)) => s.elements().for_each(f),
        Some(Object::RWSet(s)) => s.elements().for_each(f),
        Some(Object::AWMap(m)) => m.keys().for_each(f),
        // Raw view: includes excess not yet compensated.
        Some(Object::CompSet(s)) => s.raw_elements().for_each(f),
        _ => {}
    }
}

/// A per-entity object's measure: a counter's value, a set's size (its
/// own `len`, O(1) on an add-wins pool; a compensation set's raw size).
fn measure(obj: Option<&Object>) -> Option<i64> {
    let size = match obj? {
        Object::PNCounter(c) => return Some(c.value()),
        Object::AWSet(s) => s.len(),
        Object::RWSet(s) => s.len(),
        Object::AWMap(m) => m.len(),
        Object::CompSet(s) => s.raw_len(),
        _ => 0,
    };
    Some(size as i64)
}

/// A member's values for the predicate's arguments (filler past its
/// arity), or `None` when it is not an `arity`-tuple.
fn project<'v>(m: &'v Val, arity: usize, args: &[usize]) -> Option<[&'v Val; 3]> {
    let pos = match arity {
        1 => [m; 3],
        2 => [m.fst()?, m.snd()?, m],
        _ => [m.fst()?, m.snd()?, m.thd()?],
    };
    let mut out = [m; 3];
    for (i, &j) in args.iter().enumerate() {
        out[i] = pos[j];
    }
    Some(out)
}

/// The stored value of a tuple's components: the bare value when one.
fn tuple(t: &[&Val]) -> Val {
    match *t {
        [a] => a.clone(),
        [a, b] => Val::pair(a.clone(), b.clone()),
        [a, b, c] => Val::triple(a.clone(), b.clone(), c.clone()),
        _ => unreachable!("places hold 1- to 3-tuples"),
    }
}

/// The variables of an atom whose arguments are distinct variables or
/// wildcards.
fn binds(a: &Atom) -> Result<Vec<&Var>, &'static str> {
    let vars: Vec<&Var> = a.args.iter().filter_map(Term::as_var).collect();
    let bare = a.args.iter().filter(|t| !t.is_wildcard()).count() == vars.len();
    match bare && (0..vars.len()).all(|i| !vars[..i].contains(&vars[i])) {
        true => Ok(vars),
        false => Err("an atom whose arguments are not distinct variables"),
    }
}

impl Layout {
    /// The stored member of `pred(args…)`: the layout table read
    /// forwards, the inverse of the read-back's projection. `None` when
    /// the predicate is not placed, `args` does not fit its arity, or its
    /// place holds no whole tuple of the arguments (a place whose `args`
    /// skip a position, a per-entity place).
    pub fn member(&self, pred: &str, args: &[Val]) -> Option<Val> {
        let (_, place) = self.places.iter().find(|(p, _)| *p == pred)?;
        match *place {
            Place::Members {
                arity, args: at, ..
            } if at.len() == arity && args.len() == arity && arity <= 3 => {
                let mut t = [&args[0]; 3];
                for (v, &j) in args.iter().zip(at) {
                    t[j] = v;
                }
                Some(tuple(&t[..arity]))
            }
            _ => None,
        }
    }

    /// The place of an atom's predicate, with an arity that fits it.
    fn place(&self, a: &Atom) -> Result<(usize, Place), &'static str> {
        let found = self.places.iter().position(|(p, _)| *p == a.pred.as_str());
        let i = found.ok_or("a predicate the layout does not place")?;
        match self.places[i].1 {
            Place::Members { arity, args, .. } if args.len() != a.args.len() || arity > 3 => {
                Err("a place whose arity does not fit its predicate")
            }
            place => Ok((i, place)),
        }
    }

    /// The objects of the set-like places, resolved once per audit.
    pub(crate) fn resolve<'r>(&self, replica: &'r Replica) -> Vec<Option<&'r Object>> {
        let object = |place: &Place| match place {
            Place::Members { key, .. } => replica.object(key),
            Place::PerEntity { .. } => None,
        };
        self.places.iter().map(|(_, place)| object(place)).collect()
    }

    /// Call `f` on each entity's index, name and object.
    fn for_each_entity<'r>(
        prefix: &str,
        replica: &'r Replica,
        sizing: &Sizing,
        mut f: impl FnMut(usize, &str, Option<&'r Object>),
    ) {
        let mut key = String::from(prefix);
        for (i, e) in sizing.entities.iter().enumerate() {
            key.truncate(prefix.len());
            key.push_str(e);
            f(i, e, replica.object(&key));
        }
    }

    /// The replica read back as an interpretation of `spec`: each placed
    /// predicate's stored instances (a counter's value for a numeric
    /// one), a value naming the constant it displays as; the spec's
    /// named constants, with the uniform ones `sizing` overrides.
    pub fn interpretation(
        &self,
        spec: &AppSpec,
        replica: &Replica,
        sizing: &Sizing,
    ) -> Interpretation {
        let mut interp = Interpretation::new();
        for (name, value) in &spec.constants {
            interp.set_named(name.clone(), *value);
        }
        for (name, values) in sizing.named.iter().filter(|(_, v)| v.len() == 1) {
            interp.set_named(*name, values[0]);
        }
        for (pred, place) in self.places {
            let Some(decl) = spec.predicates.get(*pred) else {
                continue;
            };
            let atom = |vals: &[&Val]| {
                let args = vals.iter().zip(&decl.params);
                let args = args.map(|(v, sort)| Constant::new(v.to_string(), sort.clone()));
                GroundAtom::new(*pred, args.collect())
            };
            match *place {
                Place::Members { key, arity, args } => for_each_member(replica.object(key), |m| {
                    if let Some(vals) = project(m, arity, args) {
                        interp.set_bool(atom(&vals[..args.len()]), true);
                    }
                }),
                Place::PerEntity { prefix } => {
                    Self::for_each_entity(prefix, replica, sizing, |_, e, obj| {
                        let e = Val::str(e);
                        match (decl.kind, measure(obj)) {
                            (PredicateKind::Numeric, Some(v)) => interp.set_num(atom(&[&e]), v),
                            _ => for_each_member(obj, |u| interp.set_bool(atom(&[u, &e]), true)),
                        }
                    })
                }
            }
        }
        interp
    }
}

impl Test {
    fn compile(f: &Formula, guard: &[&Var], layout: &Layout) -> Result<Test, &'static str> {
        let all = |gs: &[Formula]| -> Result<Vec<Test>, &'static str> {
            gs.iter().map(|g| Test::compile(g, guard, layout)).collect()
        };
        Ok(match f {
            Formula::Atom(a) => match layout.place(a)? {
                (i, Place::Members { arity, args, .. }) if args.len() == arity => {
                    let at = |t: &Term| guard.iter().position(|v| Some(*v) == t.as_var());
                    let vars = a.args.iter().map(at).collect::<Option<_>>();
                    Test::Member(i, vars.ok_or("a variable the guard does not bind")?)
                }
                _ => return Err("a membership test on a place that is not a set of whole tuples"),
            },
            Formula::Not(g) => Test::Not(Box::new(Test::compile(g, guard, layout)?)),
            Formula::And(gs) => Test::All(all(gs)?),
            Formula::Or(gs) => Test::Any(all(gs)?),
            _ => return Err("a consequent that is not built from atoms, not, and, or"),
        })
    }

    fn holds(&self, b: &[&Val; 3], layout: &Layout, objs: &[Option<&Object>]) -> bool {
        match self {
            Test::Member(i, vars) => {
                let (Some(obj), Place::Members { args, .. }) = (objs[*i], layout.places[*i].1)
                else {
                    return false;
                };
                let mut t = [b[0]; 3];
                for (&v, &j) in vars.iter().zip(args) {
                    t[j] = b[v];
                }
                let hit = match args.len() {
                    1 => obj.set_contains(t[0]),
                    n => obj.set_contains(&tuple(&t[..n])),
                };
                hit.unwrap_or(false)
            }
            Test::Not(t) => !t.holds(b, layout, objs),
            Test::All(ts) => ts.iter().all(|t| t.holds(b, layout, objs)),
            Test::Any(ts) => ts.iter().any(|t| t.holds(b, layout, objs)),
        }
    }
}

impl Plan {
    /// Compile one universal clause against `layout`.
    pub(crate) fn compile(
        clause: &Formula,
        spec: &AppSpec,
        layout: &Layout,
    ) -> Result<Plan, &'static str> {
        let body = match clause {
            Formula::Forall(_, b) => b.as_ref(),
            other => other,
        };
        let (guard, test) = match body {
            Formula::Implies(g, c) => (g.as_ref(), c.as_ref().clone()),
            Formula::Not(conj) => match conj.as_ref() {
                Formula::And(gs) if gs.len() > 1 => {
                    (&gs[0], Formula::not(Formula::and(gs[1..].to_vec())))
                }
                _ => return Err("a negation that is not of a conjunction"),
            },
            Formula::Cmp(l, op, r) => return Plan::bound(l, *op, r, spec, layout),
            _ => return Err("not a guarded clause, a negated conjunction or a comparison"),
        };
        let Formula::Atom(a) = guard else {
            return Err("a guard that is not one atom");
        };
        match (layout.place(a)?, binds(a)?) {
            ((i, Place::Members { .. }), vars) if vars.len() == a.args.len() => {
                Ok(Plan::Guard(i, Test::compile(&test, &vars, layout)?))
            }
            _ => Err("a guard that is not a set-like place of variables"),
        }
    }

    fn bound(
        m: &NumExpr,
        op: CmpOp,
        rhs: &NumExpr,
        spec: &AppSpec,
        layout: &Layout,
    ) -> Result<Plan, &'static str> {
        let rhs = match rhs {
            NumExpr::Const(k) => Rhs(None, *k),
            NumExpr::Named(n) => Rhs(
                Some(n.to_string()),
                *spec.constants.get(n).ok_or("an undeclared constant")?,
            ),
            _ => return Err("a bound that is not a literal or a named constant"),
        };
        if !op.eval(0, rhs.1) {
            return Err("a bound 0 breaks: an empty group is never walked");
        }
        let (NumExpr::Count(a) | NumExpr::Value(a)) = m else {
            return Err("a measure that is not one count or value");
        };
        let (i, place) = layout.place(a)?;
        let group: Vec<usize> = (0..a.args.len())
            .filter(|&j| !a.args[j].is_wildcard())
            .collect();
        match (m, place, binds(a)?.len()) {
            (_, _, 0) => Err("a measure with no variable"),
            (NumExpr::Count(_), Place::Members { .. }, _) => Ok(Plan::Count(i, group, op, rhs)),
            (NumExpr::Count(_), _, _) if a.args.len() == 2 && group == [1] => {
                Ok(Plan::PerEntity(i, op, rhs))
            }
            (NumExpr::Value(_), Place::PerEntity { .. }, _) if a.args.len() == 1 => {
                Ok(Plan::PerEntity(i, op, rhs))
            }
            _ => Err("a per-entity measure other than `#p(*, e)` or `v(e)`"),
        }
    }

    /// This check's violations on a replica whose set-like objects
    /// [`Layout::resolve`] gave as `objs`.
    pub(crate) fn count(
        &self,
        layout: &Layout,
        objs: &[Option<&Object>],
        replica: &Replica,
        sizing: &Sizing,
    ) -> u64 {
        let (Plan::Guard(i, ..) | Plan::Count(i, ..) | Plan::PerEntity(i, ..)) = *self;
        let mut n = 0;
        match (self, layout.places[i].1) {
            (Plan::Guard(_, test), Place::Members { arity, args, .. }) => {
                for_each_member(objs[i], |m| {
                    if let Some(b) = project(m, arity, args) {
                        n += u64::from(!test.holds(&b, layout, objs));
                    }
                })
            }
            (Plan::Count(_, group, op, rhs), Place::Members { arity, args, .. }) => {
                let mut sizes: HashMap<[Option<Val>; 3], i64> = HashMap::new();
                for_each_member(objs[i], |m| {
                    if let Some(b) = project(m, arity, args) {
                        let mut key = [None, None, None];
                        for (k, &j) in key.iter_mut().zip(group) {
                            *k = Some(b[j].clone());
                        }
                        *sizes.entry(key).or_default() += 1;
                    }
                });
                let bound = sizing.value(rhs, 0);
                n = sizes.values().filter(|&&s| !op.eval(s, bound)).count() as u64;
            }
            (Plan::PerEntity(_, op, rhs), Place::PerEntity { prefix }) => {
                Layout::for_each_entity(prefix, replica, sizing, |e, _, obj| {
                    if let Some(v) = measure(obj) {
                        n += u64::from(!op.eval(v, sizing.value(rhs, e)));
                    }
                })
            }
            _ => unreachable!("a plan is compiled against its place"),
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layouts() -> [(&'static str, &'static Layout); 4] {
        [
            ("tournament", &crate::tournament::runtime::LAYOUT),
            ("twitter", &crate::twitter::runtime::LAYOUT),
            ("ticket", &crate::ticket::runtime::LAYOUT),
            ("tpc", &crate::tpc::runtime::LAYOUT),
        ]
    }

    /// Every place of every app: a place of whole tuples turns arguments
    /// into the member that its projection reads back as the same
    /// arguments, any other place has no member, and an argument list of
    /// the wrong length has none either.
    #[test]
    fn member_is_the_inverse_of_project_on_every_place() {
        let vals = [Val::str("a"), Val::str("b"), Val::str("c")];
        let mut whole = 0;
        for (app, layout) in layouts() {
            for &(pred, place) in layout.places {
                let arity = match place {
                    Place::Members { arity, args, .. } if args.len() == arity => arity,
                    _ => {
                        for n in 1..=3 {
                            assert_eq!(layout.member(pred, &vals[..n]), None, "{app}: {pred}");
                        }
                        continue;
                    }
                };
                let Place::Members { args, .. } = place else {
                    unreachable!()
                };
                let m = layout.member(pred, &vals[..arity]).expect("a member");
                let back = project(&m, arity, args).expect("a tuple of the place's arity");
                assert!(
                    back[..arity].iter().copied().eq(&vals[..arity]),
                    "{app}: {pred}"
                );
                for n in (1..=3).filter(|&n| n != arity) {
                    assert_eq!(layout.member(pred, &vals[..n]), None, "{app}: {pred}/{n}");
                }
                whole += 1;
            }
            assert_eq!(layout.member("no such predicate", &vals[..1]), None);
        }
        assert!(whole >= 10, "only {whole} places of whole tuples");
    }
}
