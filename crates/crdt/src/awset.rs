//! Add-wins (observed-remove) set.
//!
//! Adds carry unique tags; a remove (prepared at the origin) lists the add
//! tags it *observed*, and only those are deleted. An add concurrent with a
//! remove carries a tag the remove did not observe, so the element
//! survives — add-wins. Under this design the wildcard remove of §4.2.1 is
//! resolved at the origin: it removes the observed matching elements, and
//! concurrent adds still win, which is exactly the add-wins reading of
//! `enrolled(*, t) := false`.
//!
//! No tombstones are kept: state is `O(live tags)`, and no entry ever
//! holds an empty tag set (a remove that empties one deletes it).
//!
//! **Representation.** A set of at most `VEC_MAX` (64) elements keeps its
//! entries in one vector sorted by element; past that it moves them into
//! a `BTreeMap`, and it moves back only once fewer than `VEC_MIN` (32)
//! remain. The vector grows one slot at a time, so its capacity is the
//! most elements it has held. Nothing outside this module can tell the
//! two apart: lookups answer the same, iteration and [`AWSet::range`]
//! visit members in element order either way, and `==` compares contents.
//!
//! Why: the store's sets are small (the benchmark's hold 4 or 16
//! elements), and a B-tree spends a 544-byte leaf on a 4-element set —
//! 102 of the 205 MiB live at `catchup_wide`'s peak — where a vector
//! spends the 48-byte `(Val, TagSet)` slot each element holds. The bound
//! is half the measured crossover: on 48-byte entries a vector's
//! add-and-remove cost less than a B-tree's at every size up to 128
//! elements, and more at 256 when a slide (add the largest, remove the
//! smallest) shifts the whole vector (2-vCPU Xeon, release build). The
//! gap between the two thresholds keeps a set that slides around one of
//! them from converting on every add and remove.

use crate::tag::Tag;
use crate::tagset::TagSet;
use serde::{Deserialize, Serialize};
use std::collections::{btree_map, BTreeMap};
use std::fmt;
use std::ops::{Bound, RangeBounds};

/// The most elements a set keeps in its sorted vector.
const VEC_MAX: usize = 64;
/// A set held in a B-tree moves back to a vector below this many elements.
const VEC_MIN: usize = VEC_MAX / 2;

/// Operation-based add-wins set.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AWSet<E: Ord + Clone> {
    live: Live<E>,
}

/// Each live element with its add tags, in element order.
#[derive(Clone)]
enum Live<E> {
    Vec(Vec<(E, TagSet)>),
    Tree(BTreeMap<E, TagSet>),
}

/// [`Live`]'s entries in a range, in element order, whichever it holds.
enum Iter<'a, E> {
    Vec(std::slice::Iter<'a, (E, TagSet)>),
    Tree(btree_map::Range<'a, E, TagSet>),
}

impl<'a, E> Iterator for Iter<'a, E> {
    type Item = (&'a E, &'a TagSet);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Iter::Vec(entries) => entries.next().map(|(e, tags)| (e, tags)),
            Iter::Tree(entries) => entries.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Iter::Vec(entries) => entries.size_hint(),
            Iter::Tree(entries) => entries.size_hint(),
        }
    }
}

impl<E> Default for Live<E> {
    fn default() -> Self {
        Live::Vec(Vec::new())
    }
}

impl<E: Ord> Live<E> {
    fn iter(&self) -> Iter<'_, E> {
        self.range(..)
    }

    /// The entries whose element lies in `range`: a binary search for
    /// each bound of a vector, a B-tree's own range.
    fn range(&self, range: impl RangeBounds<E>) -> Iter<'_, E> {
        match self {
            Live::Vec(entries) => {
                let at = |bound: Bound<&E>, past_equal: bool| match bound {
                    Bound::Unbounded if past_equal => entries.len(),
                    Bound::Unbounded => 0,
                    Bound::Included(e) if past_equal => entries.partition_point(|(k, _)| k <= e),
                    Bound::Excluded(e) if !past_equal => entries.partition_point(|(k, _)| k <= e),
                    Bound::Included(e) | Bound::Excluded(e) => {
                        entries.partition_point(|(k, _)| k < e)
                    }
                };
                let start = at(range.start_bound(), false);
                let end = at(range.end_bound(), true).max(start);
                Iter::Vec(entries[start..end].iter())
            }
            Live::Tree(entries) => Iter::Tree(entries.range(range)),
        }
    }

    fn len(&self) -> usize {
        match self {
            Live::Vec(entries) => entries.len(),
            Live::Tree(entries) => entries.len(),
        }
    }

    fn get(&self, e: &E) -> Option<&TagSet> {
        match self {
            Live::Vec(entries) => find(entries, e).ok().map(|at| &entries[at].1),
            Live::Tree(entries) => entries.get(e),
        }
    }

    fn get_mut(&mut self, e: &E) -> Option<&mut TagSet> {
        match self {
            Live::Vec(entries) => find(entries, e).ok().map(|at| &mut entries[at].1),
            Live::Tree(entries) => entries.get_mut(e),
        }
    }

    /// Set `e`'s entry to `tags` (non-empty), moving the entries into a
    /// B-tree when a vector would pass [`VEC_MAX`].
    fn insert(&mut self, e: E, tags: TagSet) {
        match self {
            Live::Vec(entries) => match find(entries, &e) {
                Ok(at) => entries[at].1 = tags,
                Err(at) if entries.len() < VEC_MAX => {
                    entries.reserve_exact(1);
                    entries.insert(at, (e, tags));
                }
                Err(_) => {
                    let mut tree: BTreeMap<E, TagSet> =
                        std::mem::take(entries).into_iter().collect();
                    tree.insert(e, tags);
                    *self = Live::Tree(tree);
                }
            },
            Live::Tree(entries) => {
                entries.insert(e, tags);
            }
        }
    }

    /// Delete `tags` from `e`'s entry, and the entry once it is empty,
    /// moving the entries back into a vector when a B-tree falls below
    /// [`VEC_MIN`].
    fn remove_tags(&mut self, e: &E, tags: &TagSet) {
        match self {
            Live::Vec(entries) => {
                if let Ok(at) = find(entries, e) {
                    tags.iter().for_each(|t| entries[at].1.remove(t));
                    if entries[at].1.is_empty() {
                        entries.remove(at);
                    }
                }
            }
            Live::Tree(entries) => {
                if let Some(live) = entries.get_mut(e) {
                    tags.iter().for_each(|t| live.remove(t));
                    if live.is_empty() {
                        entries.remove(e);
                        if entries.len() < VEC_MIN {
                            *self = Live::Vec(std::mem::take(entries).into_iter().collect());
                        }
                    }
                }
            }
        }
    }
}

/// Where `e` is in sorted `entries`, or where it would go.
fn find<E: Ord>(entries: &[(E, TagSet)], e: &E) -> Result<usize, usize> {
    entries.binary_search_by(|(k, _)| k.cmp(e))
}

impl<E: Ord> PartialEq for Live<E> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<E: Ord> Eq for Live<E> {}

impl<E: Ord + fmt::Debug> fmt::Debug for Live<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Effect operations (replicated under causal delivery).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AWSetOp<E> {
    /// Add an element with a fresh unique tag.
    Add { elem: E, tag: Tag },
    /// Remove the listed (element, observed-tags) pairs.
    Remove { victims: Vec<(E, TagSet)> },
}

impl<E: Ord + Clone> AWSet<E> {
    pub fn new() -> Self {
        AWSet {
            live: Live::default(),
        }
    }

    pub fn contains(&self, e: &E) -> bool {
        self.live.get(e).is_some()
    }

    /// The live elements, in element order.
    pub fn elements(&self) -> impl Iterator<Item = &E> {
        self.live.iter().map(|(e, _)| e)
    }

    /// The live elements within `range`, in element order: what
    /// [`AWSet::elements`] yields there, found by a search rather than a
    /// walk from the first element.
    pub fn range(&self, range: impl RangeBounds<E>) -> impl Iterator<Item = &E> {
        self.live.range(range).map(|(e, _)| e)
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live tags of an element (used by the compensation set for its
    /// deterministic excess choice).
    pub fn tags_of(&self, e: &E) -> impl Iterator<Item = &Tag> {
        self.live.get(e).into_iter().flat_map(TagSet::iter)
    }

    /// Copy `e`'s entry (its live tags) into `into`, a partial copy of
    /// this set. Everything this type reads or applies about an element
    /// is decided by that element's entry alone, so `into` then answers
    /// for `e` exactly as `self` does. Returns whether there was an entry.
    pub fn copy_entry(&self, e: &E, into: &mut Self) -> bool {
        match self.live.get(e) {
            Some(tags) => {
                into.live.insert(e.clone(), tags.clone());
                true
            }
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Prepare (origin side)
    // ------------------------------------------------------------------

    /// Prepare an add with the given fresh tag.
    pub fn prepare_add(&self, elem: E, tag: Tag) -> AWSetOp<E> {
        AWSetOp::Add { elem, tag }
    }

    /// Prepare a remove of one element: captures the observed tags.
    /// Returns `None` when the element is not present (removing nothing).
    pub fn prepare_remove(&self, elem: &E) -> Option<AWSetOp<E>> {
        let tags = self.live.get(elem)?;
        Some(AWSetOp::Remove {
            victims: vec![(elem.clone(), tags.clone())],
        })
    }

    /// Prepare a wildcard remove: removes every observed element matching
    /// the predicate (add-wins semantics — concurrent adds survive).
    pub fn prepare_remove_matching(&self, pred: impl Fn(&E) -> bool) -> AWSetOp<E> {
        let victims = self
            .live
            .iter()
            .filter(|(e, _)| pred(e))
            .map(|(e, tags)| (e.clone(), tags.clone()))
            .collect();
        AWSetOp::Remove { victims }
    }

    // ------------------------------------------------------------------
    // Apply (all replicas, causal delivery)
    // ------------------------------------------------------------------

    pub fn apply(&mut self, op: &AWSetOp<E>) {
        match op {
            AWSetOp::Add { elem, tag } => match self.live.get_mut(elem) {
                // Look up first: re-adding a present element clones nothing.
                Some(tags) => tags.insert(*tag),
                None => self
                    .live
                    .insert(elem.clone(), std::iter::once(*tag).collect()),
            },
            AWSetOp::Remove { victims } => {
                for (e, tags) in victims {
                    self.live.remove_tags(e, tags);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::ReplicaId;
    use proptest::prelude::*;

    fn tag(r: u16, s: u64) -> Tag {
        Tag::new(ReplicaId(r), s)
    }

    #[test]
    fn add_then_remove() {
        let mut s: AWSet<&'static str> = AWSet::new();
        s.apply(&s.prepare_add("a", tag(0, 1)));
        assert!(s.contains(&"a"));
        assert_eq!(s.len(), 1);
        let rm = s.prepare_remove(&"a").unwrap();
        s.apply(&rm);
        assert!(!s.contains(&"a"));
        assert!(s.is_empty());
    }

    #[test]
    fn remove_of_absent_element_prepares_nothing() {
        let s: AWSet<&'static str> = AWSet::new();
        assert!(s.prepare_remove(&"ghost").is_none());
    }

    #[test]
    fn concurrent_add_wins_over_remove() {
        // Replica A and B both have {x}. A removes x; concurrently B
        // re-adds x (fresh tag). After exchanging ops, x is present.
        let mut a: AWSet<&'static str> = AWSet::new();
        let mut b: AWSet<&'static str> = AWSet::new();
        let add0 = a.prepare_add("x", tag(0, 1));
        a.apply(&add0);
        b.apply(&add0);

        let rm = a.prepare_remove(&"x").unwrap(); // observes tag(0,1) only
        let add1 = b.prepare_add("x", tag(1, 1)); // concurrent re-add
        a.apply(&rm);
        a.apply(&add1);
        b.apply(&add1);
        b.apply(&rm);
        assert!(a.contains(&"x"), "add must win");
        assert_eq!(a, b, "replicas must converge");
    }

    #[test]
    fn two_tags_shrinking_to_one_compare_equal_in_any_order() {
        // x gains two concurrent tags and a remove that observed only the
        // first. Every causal order must leave the same `{tag(1, 1)}`,
        // whether the entry passed through two tags, none, or neither.
        let add0 = AWSetOp::Add {
            elem: "x",
            tag: tag(0, 1),
        };
        let add1 = AWSetOp::Add {
            elem: "x",
            tag: tag(1, 1),
        };
        let mut observer: AWSet<&'static str> = AWSet::new();
        observer.apply(&add0);
        let rm = observer.prepare_remove(&"x").unwrap();

        let replay = |order: [&AWSetOp<&'static str>; 3]| {
            let mut s = AWSet::new();
            order.into_iter().for_each(|op| s.apply(op));
            s
        };
        let grew_then_shrank = replay([&add0, &add1, &rm]);
        let grew_the_other_way = replay([&add1, &add0, &rm]);
        let emptied_then_refilled = replay([&add0, &rm, &add1]);
        assert_eq!(grew_then_shrank, grew_the_other_way);
        assert_eq!(grew_then_shrank, emptied_then_refilled);
        assert!(grew_then_shrank.tags_of(&"x").eq([&tag(1, 1)]));
    }

    #[test]
    fn wildcard_remove_clears_matching_only() {
        let mut s: AWSet<(String, String)> = AWSet::new();
        let e = |p: &str, t: &str| (p.to_string(), t.to_string());
        s.apply(&s.prepare_add(e("p1", "t1"), tag(0, 1)));
        s.apply(&s.prepare_add(e("p2", "t1"), tag(0, 2)));
        s.apply(&s.prepare_add(e("p1", "t2"), tag(0, 3)));
        // enrolled(*, t1) := false
        let rm = s.prepare_remove_matching(|(_, t)| t == "t1");
        s.apply(&rm);
        assert!(!s.contains(&e("p1", "t1")));
        assert!(!s.contains(&e("p2", "t1")));
        assert!(s.contains(&e("p1", "t2")));
    }

    #[test]
    fn wildcard_remove_loses_to_concurrent_add() {
        let mut a: AWSet<(String, String)> = AWSet::new();
        let mut b = a.clone();
        let e = |p: &str, t: &str| (p.to_string(), t.to_string());
        let add_old = a.prepare_add(e("p1", "t1"), tag(0, 1));
        a.apply(&add_old);
        b.apply(&add_old);
        // A: clear t1; B concurrently enrolls p2 in t1.
        let rm = a.prepare_remove_matching(|(_, t)| t == "t1");
        let add_new = b.prepare_add(e("p2", "t1"), tag(1, 1));
        a.apply(&rm);
        a.apply(&add_new);
        b.apply(&add_new);
        b.apply(&rm);
        assert!(!a.contains(&e("p1", "t1")), "observed enrollment removed");
        assert!(
            a.contains(&e("p2", "t1")),
            "concurrent enrollment survives (add-wins)"
        );
        assert_eq!(a, b);
    }

    #[test]
    fn idempotent_redelivery_of_remove() {
        // Causal delivery gives at-most-once, but removes are idempotent
        // anyway; re-applying must not panic or change state.
        let mut s: AWSet<&'static str> = AWSet::new();
        s.apply(&s.prepare_add("a", tag(0, 1)));
        let rm = s.prepare_remove(&"a").unwrap();
        s.apply(&rm);
        let snapshot = s.clone();
        s.apply(&rm);
        assert_eq!(s, snapshot);
    }

    /// A step of a property script: (kind, element, replica). What the
    /// kind means depends on the phase, and a remove picks the
    /// `element`-th live member, so removes hit whatever the set holds.
    type Step = (u8, u16, u8);

    fn arb_steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec((0u8..10, 0u16..192, 0u8..3), len)
    }

    /// The reference: the same effects applied to a plain `BTreeMap`.
    fn apply_to_model(model: &mut BTreeMap<u32, TagSet>, op: &AWSetOp<u32>) {
        match op {
            AWSetOp::Add { elem, tag } => model.entry(*elem).or_default().insert(*tag),
            AWSetOp::Remove { victims } => {
                for (e, tags) in victims {
                    if let Some(live) = model.get_mut(e) {
                        tags.iter().for_each(|t| live.remove(t));
                        if live.is_empty() {
                            model.remove(e);
                        }
                    }
                }
            }
        }
    }

    /// A set built by adding the model's tags element by element: with at
    /// most `VEC_MAX` members it never leaves its vector.
    fn rebuilt(model: &BTreeMap<u32, TagSet>) -> AWSet<u32> {
        let mut s = AWSet::new();
        for (e, tags) in model {
            tags.iter().for_each(|t| s.apply(&s.prepare_add(*e, *t)));
        }
        s
    }

    /// One set under a property script, beside its model.
    #[derive(Default)]
    struct Run {
        set: AWSet<u32>,
        model: BTreeMap<u32, TagSet>,
        seq: u64,
        /// Conversions seen: vector to B-tree, and back.
        crossings: (usize, usize),
        /// The most members the set has held since it last became a vector.
        high_water: usize,
    }

    impl Run {
        /// Run `steps`, biased towards adds while `growing`, else towards
        /// removes. After every op the set must answer as the model does,
        /// and a vector's capacity must be its high-water mark.
        fn phase(&mut self, steps: &[Step], growing: bool) -> Result<(), TestCaseError> {
            let mut snapshot = self.set.clone();
            for (i, &(kind, elem, replica)) in steps.iter().enumerate() {
                if i.is_multiple_of(16) {
                    snapshot = self.set.clone();
                }
                let set = &self.set;
                let nth =
                    |s: &AWSet<u32>| s.elements().nth(elem as usize % s.len().max(1)).copied();
                let op = match (growing, kind) {
                    (true, 0..=8) | (false, 0..=1) => {
                        self.seq += 1;
                        Some(set.prepare_add(u32::from(elem), tag(u16::from(replica), self.seq)))
                    }
                    (false, 2..=6) => nth(set).and_then(|e| set.prepare_remove(&e)),
                    // A remove prepared on an older state observes only the
                    // tags that state held: a later re-add survives it.
                    (true, _) | (false, 7..=8) => {
                        nth(&snapshot).and_then(|e| snapshot.prepare_remove(&e))
                    }
                    (false, _) => {
                        let modulus = 2 + u32::from(elem) % 5;
                        Some(set.prepare_remove_matching(|e| e % modulus == u32::from(replica)))
                    }
                };
                let Some(op) = op else { continue };
                let was_tree = matches!(self.set.live, Live::Tree(_));
                self.set.apply(&op);
                apply_to_model(&mut self.model, &op);
                self.check(&op, was_tree, i)?;
            }
            Ok(())
        }

        fn check(&mut self, op: &AWSetOp<u32>, was_tree: bool, step: usize) -> TestCaseResult {
            let (set, model) = (&self.set, &self.model);
            prop_assert!(set.elements().eq(model.keys()));
            prop_assert_eq!(set.len(), model.len());
            // Ranges with every kind of bound, at bounds the step picks.
            let (a, b) = (step as u32 * 37 % 200, step as u32 * 91 % 200);
            let (lo, hi) = (a.min(b), a.max(b));
            let ranges = [
                (Bound::Included(lo), Bound::Excluded(hi)),
                (Bound::Excluded(lo), Bound::Included(hi)),
                (Bound::Included(lo), Bound::Unbounded),
                (Bound::Unbounded, Bound::Included(hi)),
            ];
            for range in ranges {
                prop_assert!(set.range(range).eq(model.range(range).map(|(e, _)| e)));
            }
            let named: Vec<u32> = match op {
                AWSetOp::Add { elem, .. } => vec![*elem],
                AWSetOp::Remove { victims } => victims.iter().map(|(e, _)| *e).collect(),
            };
            // Every element the op named, and every eighth step the whole
            // element space.
            let sweep = if step.is_multiple_of(8) { 0..192 } else { 0..0 };
            for e in named.into_iter().chain(sweep) {
                prop_assert_eq!(set.contains(&e), model.contains_key(&e));
                let expected = model.get(&e).into_iter().flat_map(TagSet::iter);
                prop_assert!(set.tags_of(&e).eq(expected));
            }
            match &set.live {
                Live::Vec(entries) => {
                    if was_tree {
                        // Back below `VEC_MIN`, with no slack; a wildcard
                        // remove may have gone on shrinking it.
                        self.crossings.1 += 1;
                        self.high_water = VEC_MIN - 1;
                    }
                    self.high_water = self.high_water.max(entries.len());
                    prop_assert_eq!(entries.capacity(), self.high_water);
                    prop_assert!(entries.len() <= VEC_MAX);
                }
                Live::Tree(entries) => {
                    self.crossings.0 += usize::from(!was_tree);
                    prop_assert!(entries.len() >= VEC_MIN);
                }
            }
            // Same members, possibly another representation: checked after
            // every op in the band where either can hold them, and every
            // eighth step below it.
            if model.len() <= VEC_MAX && (was_tree || step.is_multiple_of(8)) {
                let fresh = rebuilt(model);
                prop_assert!(matches!(fresh.live, Live::Vec(_)));
                prop_assert_eq!(set, &fresh);
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Scripts that take one set past `VEC_MAX` and back below
        /// `VEC_MIN`: no lookup, iteration, length or comparison can tell
        /// which representation the set is in.
        #[test]
        fn the_representation_cannot_be_seen(
            grow in arb_steps(200..260),
            shrink in arb_steps(300..400),
        ) {
            let mut run = Run::default();
            run.phase(&grow, true)?;
            if run.set.len() <= VEC_MAX {
                // Add every element, so that a shrunk script crosses too.
                let fill: Vec<Step> = (0..192).map(|e| (0, e, 0)).collect();
                run.phase(&fill, true)?;
            }
            run.phase(&shrink, false)?;
            if matches!(run.set.live, Live::Tree(_)) {
                // Remove the smallest member until the set is a vector.
                run.phase(&vec![(2, 0, 0); run.set.len() + 1 - VEC_MIN], false)?;
            }
            prop_assert!(run.crossings.0 >= 1 && run.crossings.1 >= 1, "{:?}", run.crossings);
            prop_assert!(matches!(run.set.live, Live::Vec(_)));
            let fresh = rebuilt(&run.model);
            prop_assert_eq!(&run.set, &fresh);
            prop_assert_eq!(format!("{:?}", run.set), format!("{fresh:?}"));
        }
    }

    #[test]
    fn elements_iterates_live_only() {
        let mut s: AWSet<u32> = AWSet::new();
        s.apply(&s.prepare_add(1, tag(0, 1)));
        s.apply(&s.prepare_add(2, tag(0, 2)));
        let rm = s.prepare_remove(&1).unwrap();
        s.apply(&rm);
        let elems: Vec<u32> = s.elements().copied().collect();
        assert_eq!(elems, vec![2]);
    }
}
