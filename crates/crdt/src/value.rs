//! Dynamic element values and wildcard patterns.
//!
//! The store holds heterogeneous CRDT objects whose elements are [`Val`]s:
//! a small dynamic value language (strings, integers, tuples). Applications
//! encode their entities into `Val` — e.g. an enrollment is
//! `Val::pair("alice", "weekly-open")`. [`ValPattern`] is the wildcard
//! language of §4.2.1: a remove can be scoped by a pattern
//! (`("*", "weekly-open")`) and applies to every matching element.
//!
//! A `Val` is immutable and shared: a string is an `Arc<str>`, a tuple is
//! one `Arc` holding its components, so a value is 24 bytes wherever it is
//! stored and `clone` is a reference-count bump that never allocates. A
//! stored element, the update that carried it, a transaction's copy and a
//! read's result all point at the one allocation made when the value was
//! built. Order, equality, hashing and printing go through the `Arc`s to
//! the content. Read tuple components with [`Val::fst`], [`Val::snd`] and
//! [`Val::thd`] rather than by matching on the representation.
//!
//! **Reads by leading component.** The order is the variant's, then the
//! content's, tuples component by component, so every value a pattern
//! with an exact leading component can match lies in one run of the
//! order: it starts at [`ValPattern::first_candidate`] and lasts while
//! [`ValPattern::leads`] holds. A store that puts the component it reads
//! by first reads such a pattern as a range of its ordered sets.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A dynamic value: the element type used by store-resident CRDTs.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Val {
    Str(Arc<str>),
    Int(i64),
    Pair(Arc<(Val, Val)>),
    Triple(Arc<(Val, Val, Val)>),
}

impl Val {
    /// One allocation: the shared string, copied from a `&str` or a `String`.
    pub fn str(s: impl Into<Arc<str>>) -> Val {
        Val::Str(s.into())
    }

    pub fn int(i: i64) -> Val {
        Val::Int(i)
    }

    /// The least value of the order, the empty string, shared: a range
    /// bound built from it allocates only its own tuple.
    pub fn least() -> Val {
        static LEAST: OnceLock<Val> = OnceLock::new();
        LEAST.get_or_init(|| Val::str("")).clone()
    }

    pub fn pair(a: impl Into<Val>, b: impl Into<Val>) -> Val {
        Val::Pair(Arc::new((a.into(), b.into())))
    }

    pub fn triple(a: impl Into<Val>, b: impl Into<Val>, c: impl Into<Val>) -> Val {
        Val::Triple(Arc::new((a.into(), b.into(), c.into())))
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Val::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// First component of a pair/triple.
    pub fn fst(&self) -> Option<&Val> {
        match self {
            Val::Pair(t) => Some(&t.0),
            Val::Triple(t) => Some(&t.0),
            _ => None,
        }
    }

    /// Second component of a pair/triple.
    pub fn snd(&self) -> Option<&Val> {
        match self {
            Val::Pair(t) => Some(&t.1),
            Val::Triple(t) => Some(&t.1),
            _ => None,
        }
    }

    /// Third component of a triple.
    pub fn thd(&self) -> Option<&Val> {
        match self {
            Val::Triple(t) => Some(&t.2),
            _ => None,
        }
    }
}

impl From<&str> for Val {
    fn from(s: &str) -> Val {
        Val::str(s)
    }
}

impl From<String> for Val {
    fn from(s: String) -> Val {
        Val::str(s)
    }
}

impl From<i64> for Val {
    fn from(i: i64) -> Val {
        Val::Int(i)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Str(s) => write!(f, "{s}"),
            Val::Int(i) => write!(f, "{i}"),
            Val::Pair(t) => write!(f, "({}, {})", t.0, t.1),
            Val::Triple(t) => write!(f, "({}, {}, {})", t.0, t.1, t.2),
        }
    }
}

impl fmt::Debug for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A wildcard pattern over [`Val`]s (§4.2.1): `Any` matches everything,
/// `Exact` matches one value, tuple patterns match componentwise.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ValPattern {
    Any,
    Exact(Val),
    Pair(Box<ValPattern>, Box<ValPattern>),
    Triple(Box<ValPattern>, Box<ValPattern>, Box<ValPattern>),
}

impl ValPattern {
    pub fn exact(v: impl Into<Val>) -> ValPattern {
        ValPattern::Exact(v.into())
    }

    pub fn pair(a: ValPattern, b: ValPattern) -> ValPattern {
        ValPattern::Pair(Box::new(a), Box::new(b))
    }

    pub fn triple(a: ValPattern, b: ValPattern, c: ValPattern) -> ValPattern {
        ValPattern::Triple(Box::new(a), Box::new(b), Box::new(c))
    }

    /// Does the pattern match a value?
    pub fn matches(&self, v: &Val) -> bool {
        match (self, v) {
            (ValPattern::Any, _) => true,
            (ValPattern::Exact(p), v) => p == v,
            (ValPattern::Pair(pa, pb), Val::Pair(t)) => pa.matches(&t.0) && pb.matches(&t.1),
            (ValPattern::Triple(pa, pb, pc), Val::Triple(t)) => {
                pa.matches(&t.0) && pb.matches(&t.1) && pc.matches(&t.2)
            }
            _ => false,
        }
    }

    /// The least value this pattern can match, when it fixes the leading
    /// component (or is one exact value): every value it matches lies at
    /// or after it, in the run over which [`ValPattern::leads`] holds.
    /// `None` when the leading component is not exact. A tuple's bound
    /// costs one allocation; an exact value is borrowed.
    pub fn first_candidate(&self) -> Option<Cow<'_, Val>> {
        match self {
            ValPattern::Exact(v) => Some(Cow::Borrowed(v)),
            ValPattern::Pair(a, _) => match &**a {
                ValPattern::Exact(a) => Some(Cow::Owned(Val::pair(a.clone(), Val::least()))),
                _ => None,
            },
            ValPattern::Triple(a, _, _) => match &**a {
                ValPattern::Exact(a) => Some(Cow::Owned(Val::triple(
                    a.clone(),
                    Val::least(),
                    Val::least(),
                ))),
                _ => None,
            },
            ValPattern::Any => None,
        }
    }

    /// Does `v` share what this pattern fixes first: its exact value, or
    /// the shape and exact leading component of its tuple? True of every
    /// value the pattern matches; for a pattern with a
    /// [`ValPattern::first_candidate`], true exactly of the run of the
    /// order that starts there.
    pub fn leads(&self, v: &Val) -> bool {
        match (self, v) {
            (ValPattern::Any, _) => true,
            (ValPattern::Exact(p), v) => p == v,
            (ValPattern::Pair(a, _), Val::Pair(t)) => a.leads(&t.0),
            (ValPattern::Triple(a, _, _), Val::Triple(t)) => a.leads(&t.0),
            _ => false,
        }
    }
}

impl fmt::Display for ValPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValPattern::Any => write!(f, "*"),
            ValPattern::Exact(v) => write!(f, "{v}"),
            ValPattern::Pair(a, b) => write!(f, "({a}, {b})"),
            ValPattern::Triple(a, b, c) => write!(f, "({a}, {b}, {c})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let v = Val::pair("alice", "t1");
        assert_eq!(v.fst().unwrap().as_str(), Some("alice"));
        assert_eq!(v.snd().unwrap().as_str(), Some("t1"));
        assert_eq!(v.to_string(), "(alice, t1)");
        assert_eq!(Val::int(3).as_int(), Some(3));
        assert_eq!(Val::str("x").as_int(), None);
    }

    #[test]
    fn wildcard_matching() {
        let enrolled = Val::pair("alice", "t1");
        // enrolled(*, t1)
        let pat = ValPattern::pair(ValPattern::Any, ValPattern::exact("t1"));
        assert!(pat.matches(&enrolled));
        assert!(!pat.matches(&Val::pair("alice", "t2")));
        assert!(!pat.matches(&Val::str("alice")));
        assert!(ValPattern::Any.matches(&enrolled));
        assert!(ValPattern::exact(enrolled.clone()).matches(&enrolled));
    }

    #[test]
    fn triple_patterns() {
        let m = Val::triple("p", "q", "t");
        let pat = ValPattern::triple(ValPattern::Any, ValPattern::Any, ValPattern::exact("t"));
        assert!(pat.matches(&m));
        assert!(!pat.matches(&Val::triple("p", "q", "u")));
    }

    #[test]
    fn order_is_variant_then_content_with_tuples_lexicographic() {
        // Str < Int < Pair < Triple; strings bytewise; tuples component by
        // component, a nested tuple ordered like any other component.
        let expected = [
            Val::str(""),
            Val::str("a"),
            Val::str("ab"),
            Val::str("b"),
            Val::int(-7),
            Val::int(3),
            Val::pair("a", "z"),
            Val::pair("a", 0),
            Val::pair("b", "a"),
            Val::pair(1, "a"),
            Val::pair(Val::pair("a", "a"), "a"),
            Val::triple("a", "b", "c"),
            Val::triple("a", "b", 0),
            Val::triple("a", 0, "a"),
            Val::triple(0, "a", "a"),
        ];
        for (i, a) in expected.iter().enumerate() {
            for (j, b) in expected.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a} vs {b}");
                assert_eq!(a == b, i == j, "{a} vs {b}");
            }
        }
        let mut shuffled = expected.to_vec();
        shuffled.reverse();
        shuffled.rotate_left(4);
        shuffled.sort();
        assert_eq!(shuffled, expected);
    }

    #[test]
    fn accessors_read_each_component() {
        let t = Val::triple("p", 2, Val::pair("x", "y"));
        assert_eq!(t.fst(), Some(&Val::str("p")));
        assert_eq!(t.snd(), Some(&Val::int(2)));
        assert_eq!(t.thd(), Some(&Val::pair("x", "y")));
        assert_eq!(t.to_string(), "(p, 2, (x, y))");
        assert_eq!(format!("{t:?}"), "(p, 2, (x, y))");
        assert_eq!(Val::pair("a", "b").thd(), None);
        assert_eq!(Val::str("a").fst(), None);
    }

    /// What `ValPattern::matches` means, written against the accessors
    /// only.
    fn matches_by_accessors(p: &ValPattern, v: &Val) -> bool {
        match p {
            ValPattern::Any => true,
            ValPattern::Exact(e) => e == v,
            ValPattern::Pair(a, b) => match (v.fst(), v.snd(), v.thd()) {
                (Some(x), Some(y), None) => {
                    matches_by_accessors(a, x) && matches_by_accessors(b, y)
                }
                _ => false,
            },
            ValPattern::Triple(a, b, c) => match (v.fst(), v.snd(), v.thd()) {
                (Some(x), Some(y), Some(z)) => {
                    matches_by_accessors(a, x)
                        && matches_by_accessors(b, y)
                        && matches_by_accessors(c, z)
                }
                _ => false,
            },
        }
    }

    #[test]
    fn pattern_matching_agrees_with_the_accessor_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn leaf(rng: &mut StdRng) -> Val {
            if rng.gen_bool(0.5) {
                Val::str(["a", "b", "t1"][rng.gen_range(0..3usize)])
            } else {
                Val::int(rng.gen_range(0..3))
            }
        }
        fn val(rng: &mut StdRng, depth: u32) -> Val {
            match rng.gen_range(0..if depth == 0 { 1 } else { 3 }) {
                0 => leaf(rng),
                1 => Val::pair(val(rng, depth - 1), val(rng, depth - 1)),
                _ => Val::triple(val(rng, depth - 1), val(rng, depth - 1), leaf(rng)),
            }
        }
        fn pattern(rng: &mut StdRng, depth: u32) -> ValPattern {
            match rng.gen_range(0..if depth == 0 { 2 } else { 4 }) {
                0 => ValPattern::Any,
                1 => ValPattern::Exact(val(rng, depth)),
                2 => ValPattern::pair(pattern(rng, depth - 1), pattern(rng, depth - 1)),
                _ => ValPattern::triple(
                    pattern(rng, depth - 1),
                    pattern(rng, depth - 1),
                    pattern(rng, depth - 1),
                ),
            }
        }

        let mut rng = StdRng::seed_from_u64(0x1fa);
        let mut matched = 0;
        for _ in 0..20_000 {
            let (p, v) = (pattern(&mut rng, 2), val(&mut rng, 2));
            let got = p.matches(&v);
            assert_eq!(got, matches_by_accessors(&p, &v), "{p} on {v}");
            matched += usize::from(got && p != ValPattern::Any);
        }
        assert!(matched > 100, "only {matched} non-trivial matches drawn");
    }

    #[test]
    fn what_a_pattern_fixes_first_bounds_one_run_of_the_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let leaf = |rng: &mut StdRng| match rng.gen_range(0..3) {
            0 => Val::str(["", "a", "b"][rng.gen_range(0..3usize)]),
            1 => Val::int(rng.gen_range(-1..2)),
            _ => Val::pair("a", rng.gen_range(0..2i64)),
        };
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut values: Vec<Val> = (0..400)
            .map(|_| match rng.gen_range(0..3) {
                0 => leaf(&mut rng),
                1 => Val::pair(leaf(&mut rng), leaf(&mut rng)),
                _ => Val::triple(leaf(&mut rng), leaf(&mut rng), leaf(&mut rng)),
            })
            .collect();
        values.sort();
        values.dedup();
        let exact_or_any = |rng: &mut StdRng| match rng.gen_bool(0.5) {
            true => ValPattern::Exact(leaf(rng)),
            false => ValPattern::Any,
        };
        let mut ranged = 0;
        for _ in 0..2_000 {
            let p = match rng.gen_range(0..4) {
                0 => ValPattern::Exact(values[rng.gen_range(0..values.len())].clone()),
                1 => ValPattern::pair(exact_or_any(&mut rng), exact_or_any(&mut rng)),
                2 => ValPattern::triple(
                    exact_or_any(&mut rng),
                    exact_or_any(&mut rng),
                    exact_or_any(&mut rng),
                ),
                _ => ValPattern::Any,
            };
            let matched: Vec<&Val> = values.iter().filter(|v| p.matches(v)).collect();
            assert!(matched.iter().all(|v| p.leads(v)), "{p}");
            let Some(first) = p.first_candidate() else {
                continue;
            };
            let start = values.partition_point(|v| v < &*first);
            let run: Vec<&Val> = values[start..].iter().take_while(|v| p.leads(v)).collect();
            assert!(values[..start].iter().all(|v| !p.leads(v)), "{p}");
            let after = &values[start + run.len()..];
            assert!(after.iter().all(|v| !p.leads(v)), "{p}");
            let in_run: Vec<&Val> = run.into_iter().filter(|v| p.matches(v)).collect();
            assert_eq!(in_run, matched, "{p}");
            ranged += usize::from(!matched.is_empty());
        }
        assert!(
            ranged > 200,
            "only {ranged} non-empty ranged patterns drawn"
        );
    }

    #[test]
    fn the_least_value_is_shared_and_least() {
        let (a, b) = (Val::least(), Val::least());
        match (&a, &b) {
            (Val::Str(x), Val::Str(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => panic!("the least value is the empty string"),
        }
        for v in [Val::str("\0"), Val::int(i64::MIN), Val::pair("", "")] {
            assert!(a < v, "{v:?}");
        }
    }
}
