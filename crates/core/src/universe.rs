//! Small-scope universe construction and operation-parameter
//! instantiation (the "test cases" the paper generates with Z3).
//!
//! The elements of a sort are interchangeable: `Sort#1 … Sort#n` are
//! synthetic, the grounded invariant and every ground effect are mapped to
//! themselves by any renaming of them, and so two instantiations that
//! differ by a per-sort renaming pose equisatisfiable queries. The
//! analysis therefore tests one instantiation per orbit
//! ([`canonical_instantiations`]). A sort that an invariant or an effect
//! names an element of by a constant breaks that symmetry and is not
//! renamed ([`named_sorts`]).

use ipa_solver::Universe;
use ipa_spec::{AppSpec, Atom, Constant, Formula, Operation, Sort, Term};
use std::collections::BTreeSet;

/// One instantiation of a pair of operations: `(args1, args2)`.
pub type Instantiation = (Vec<Constant>, Vec<Constant>);

/// Build the analysis universe: `per_sort` distinguished elements for every
/// sort of the specification. No fixed `per_sort` is proven enough: a
/// conflict's witness can need more elements than any one pair of
/// parameters, and ROADMAP item 17 records a spec whose conflict needs
/// three distinct elements, so that at two per sort the analysis certifies
/// an application that breaks its invariant. On the four shipped
/// applications a third or a fourth element changes no verdict
/// (`tests/analysis_pipeline.rs::verdicts_are_stable_at_scope_2_3_and_4`);
/// that is evidence about those specs, not a bound.
pub fn build_universe(spec: &AppSpec, per_sort: usize) -> Universe {
    let mut u = Universe::new();
    for sort in &spec.sorts {
        for i in 1..=per_sort {
            u.add(element(sort, i));
        }
    }
    u
}

/// The `i`-th distinguished element of a sort (1-based).
pub fn element(sort: &Sort, i: usize) -> Constant {
    Constant::new(format!("{}#{}", sort.name(), i), sort.clone())
}

/// The sorts that `invariants` or the effects of `ops` name an element of
/// by a [`Term::Const`]: renaming their elements would move the named
/// one, so [`canonical_instantiations`] keeps them whole.
pub fn named_sorts<'o>(
    invariants: &[Formula],
    ops: impl IntoIterator<Item = &'o Operation>,
) -> BTreeSet<Sort> {
    let mut out = BTreeSet::new();
    let mut note = |a: &Atom| {
        for t in &a.args {
            if let Term::Const(c) = t {
                out.insert(c.sort.clone());
            }
        }
    };
    for inv in invariants {
        inv.visit_atoms(&mut note);
    }
    for op in ops {
        op.all_effects().for_each(|e| note(&e.atom));
    }
    out
}

/// The parameter instantiations of two operations with parameter sorts
/// `sorts1` and `sorts2`, one per orbit under per-sort renamings of the
/// universe, in lexicographic order.
///
/// Each is the orbit's lexicographically least member, its
/// *first-occurrence normal form*: along the concatenated
/// `(args1, args2)`, element `#k+1` of a sort appears only after `#k` has.
/// They are generated directly, not filtered from the product, and they
/// are an order-preserving subsequence of the full product — so the first
/// instantiation of the full product with some property that is invariant
/// under renaming is also the first one here. The sorts in `pinned` are
/// not renamed: every position of such a sort ranges over all of its
/// elements. With every sort pinned this is the full product.
///
/// Every aliasing pattern between same-sorted parameters is covered (e.g.
/// `enroll(p, t)` racing `rem_tourn(t')` with `t == t'` and with
/// `t != t'`), each once.
pub fn canonical_instantiations(
    sorts1: &[Sort],
    sorts2: &[Sort],
    universe: &Universe,
    pinned: &BTreeSet<Sort>,
) -> Vec<Instantiation> {
    let sorts: Vec<&Sort> = sorts1.iter().chain(sorts2).collect();
    let mut walk = Walk {
        elements: sorts.iter().map(|s| universe.elements(s)).collect(),
        pinned: sorts.iter().map(|s| pinned.contains(*s)).collect(),
        // Positions of one sort share the first position's counter.
        slot: sorts
            .iter()
            .map(|s| sorts.iter().position(|t| t == s).expect("present"))
            .collect(),
        used: vec![0; sorts.len()],
        prefix: Vec::with_capacity(sorts.len()),
        split: sorts1.len(),
        out: Vec::new(),
    };
    walk.extend();
    walk.out
}

/// The depth-first walk of [`canonical_instantiations`].
struct Walk<'u> {
    /// Per position: its sort's elements, whether the sort is pinned, and
    /// the index of the counter it shares with same-sorted positions.
    elements: Vec<&'u [Constant]>,
    pinned: Vec<bool>,
    slot: Vec<usize>,
    /// Per slot: how many of the sort's elements the prefix has used.
    used: Vec<usize>,
    prefix: Vec<Constant>,
    split: usize,
    out: Vec<Instantiation>,
}

impl Walk<'_> {
    fn extend(&mut self) {
        let i = self.prefix.len();
        if i == self.elements.len() {
            let mut args1 = self.prefix.clone();
            let args2 = args1.split_off(self.split);
            self.out.push((args1, args2));
            return;
        }
        let elements = self.elements[i];
        let slot = self.slot[i];
        let used = self.used[slot];
        // A renamed sort offers the elements used so far and one fresh one.
        let bound = if self.pinned[i] {
            elements.len()
        } else {
            elements.len().min(used + 1)
        };
        for (k, e) in elements[..bound].iter().enumerate() {
            self.used[slot] = used.max(k + 1);
            self.prefix.push(e.clone());
            self.extend();
            self.prefix.pop();
        }
        self.used[slot] = used;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_spec::AppSpecBuilder;

    fn spec() -> AppSpec {
        AppSpecBuilder::new("t")
            .sort("Player")
            .sort("Tournament")
            .predicate_bool("enrolled", &["Player", "Tournament"])
            .predicate_bool("tournament", &["Tournament"])
            .predicate_bool("inMatch", &["Player", "Player", "Tournament"])
            .operation("enroll", &[("p", "Player"), ("t", "Tournament")], |op| {
                op.set_true("enrolled", &["p", "t"])
            })
            .operation("rem_tourn", &[("t", "Tournament")], |op| {
                op.set_false("tournament", &["t"])
            })
            .operation(
                "do_match",
                &[("p", "Player"), ("q", "Player"), ("t", "Tournament")],
                |op| op.set_true("inMatch", &["p", "q", "t"]),
            )
            .build()
            .unwrap()
    }

    fn sorts(s: &AppSpec, op: &str) -> Vec<Sort> {
        let op = s.operation(op).unwrap();
        op.params.iter().map(|p| p.sort.clone()).collect()
    }

    /// The full cartesian product, written out independently.
    fn product(sorts1: &[Sort], sorts2: &[Sort], u: &Universe) -> Vec<Instantiation> {
        let mut combos: Vec<Vec<Constant>> = vec![Vec::new()];
        for sort in sorts1.iter().chain(sorts2) {
            combos = combos
                .iter()
                .flat_map(|p| {
                    u.elements(sort).iter().map(move |e| {
                        let mut p = p.clone();
                        p.push(e.clone());
                        p
                    })
                })
                .collect();
        }
        combos
            .into_iter()
            .map(|mut v| {
                let rest = v.split_off(sorts1.len());
                (v, rest)
            })
            .collect()
    }

    /// Does a per-sort renaming, the identity on `pinned`, map `a` to `b`?
    fn same_orbit(a: &Instantiation, b: &Instantiation, pinned: &BTreeSet<Sort>) -> bool {
        let a: Vec<&Constant> = a.0.iter().chain(&a.1).collect();
        let b: Vec<&Constant> = b.0.iter().chain(&b.1).collect();
        a.len() == b.len()
            && (0..a.len()).all(|i| {
                a[i].sort == b[i].sort
                    && (!pinned.contains(&a[i].sort) || a[i] == b[i])
                    && (0..a.len()).all(|j| (a[i] == a[j]) == (b[i] == b[j]))
            })
    }

    #[test]
    fn universe_has_per_sort_elements() {
        let u = build_universe(&spec(), 2);
        assert_eq!(u.size(&Sort::new("Player")), 2);
        assert_eq!(u.size(&Sort::new("Tournament")), 2);
        assert_eq!(u.total_size(), 4);
    }

    #[test]
    fn one_instantiation_per_orbit() {
        let s = spec();
        let u = build_universe(&s, 2);
        let none = BTreeSet::new();
        let (enroll, rem) = (sorts(&s, "enroll"), sorts(&s, "rem_tourn"));
        let inst = canonical_instantiations(&enroll, &rem, &u, &none);
        // 2 (p) × 2 (t of enroll) × 2 (t of rem) = 8 in the product; up to
        // renaming, only whether the two tournaments alias matters.
        assert_eq!(product(&enroll, &rem, &u).len(), 8);
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.iter().filter(|(a1, a2)| a1[1] == a2[0]).count(), 1);
        let do_match = sorts(&s, "do_match");
        assert_eq!(product(&do_match, &do_match, &u).len(), 64);
        assert_eq!(
            canonical_instantiations(&do_match, &do_match, &u, &none).len(),
            16
        );
    }

    #[test]
    fn canonical_is_an_ordered_subsequence_covering_every_orbit_once() {
        let s = spec();
        let none = BTreeSet::new();
        let names = ["enroll", "rem_tourn", "do_match"];
        for per_sort in 1..=3 {
            let u = build_universe(&s, per_sort);
            for a in names {
                for b in names {
                    let (s1, s2) = (sorts(&s, a), sorts(&s, b));
                    let full = product(&s1, &s2, &u);
                    let canonical = canonical_instantiations(&s1, &s2, &u, &none);
                    // Order-preserving subsequence of the product.
                    let mut rest = full.iter();
                    for c in &canonical {
                        assert!(rest.any(|f| f == c), "{a} × {b}: {c:?} out of order");
                    }
                    // Each instantiation has exactly one canonical image.
                    for f in &full {
                        let images = canonical.iter().filter(|c| same_orbit(f, c, &none));
                        assert_eq!(images.count(), 1, "{a} × {b}: {f:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_sort_named_by_a_constant_keeps_all_its_elements() {
        let s = AppSpecBuilder::new("named")
            .sort("Player")
            .sort("Tournament")
            .predicate_bool("enrolled", &["Player", "Tournament"])
            .predicate_bool("tournament", &["Tournament"])
            .operation("enroll", &[("p", "Player"), ("t", "Tournament")], |op| {
                op.set_true("enrolled", &["p", "t"])
            })
            .build()
            .unwrap();
        let mut op = s.operation("enroll").unwrap().clone();
        let t1 = element(&Sort::new("Tournament"), 1);
        op.effects.push(ipa_spec::Effect::set_false(Atom::new(
            "tournament",
            vec![Term::Const(t1)],
        )));
        let pinned = named_sorts(&s.invariants, [&op]);
        assert_eq!(pinned, BTreeSet::from([Sort::new("Tournament")]));
        assert!(named_sorts(&s.invariants, &s.operations).is_empty());
        let u = build_universe(&s, 2);
        let enroll = sorts(&s, "enroll");
        let inst = canonical_instantiations(&enroll, &enroll, &u, &pinned);
        // Players are renamed (2 patterns), tournaments are not (2 × 2).
        assert_eq!(inst.len(), 8);
        for t in u.elements(&Sort::new("Tournament")) {
            assert!(inst.iter().any(|(a1, _)| a1[1] == *t));
        }
        for f in product(&enroll, &enroll, &u) {
            let images = inst.iter().filter(|c| same_orbit(&f, c, &pinned));
            assert_eq!(images.count(), 1, "{f:?}");
        }
    }

    #[test]
    fn zero_param_operations() {
        let s = spec();
        let u = build_universe(&s, 2);
        let inst = canonical_instantiations(&[], &[], &u, &BTreeSet::new());
        assert_eq!(inst.len(), 1);
        assert!(inst[0].0.is_empty());
        assert!(inst[0].1.is_empty());
    }
}
