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
//! No tombstones are kept: state is `O(live tags)`.

use crate::tag::Tag;
use crate::tagset::TagSet;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Operation-based add-wins set.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AWSet<E: Ord + Clone> {
    live: BTreeMap<E, TagSet>,
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
            live: BTreeMap::new(),
        }
    }

    pub fn contains(&self, e: &E) -> bool {
        self.live.get(e).is_some_and(|tags| !tags.is_empty())
    }

    pub fn elements(&self) -> impl Iterator<Item = &E> {
        self.live
            .iter()
            .filter(|(_, t)| !t.is_empty())
            .map(|(e, _)| e)
    }

    pub fn len(&self) -> usize {
        self.live.values().filter(|t| !t.is_empty()).count()
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
        if tags.is_empty() {
            return None;
        }
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
            .filter(|(e, tags)| !tags.is_empty() && pred(e))
            .map(|(e, tags)| (e.clone(), tags.clone()))
            .collect();
        AWSetOp::Remove { victims }
    }

    // ------------------------------------------------------------------
    // Apply (all replicas, causal delivery)
    // ------------------------------------------------------------------

    pub fn apply(&mut self, op: &AWSetOp<E>) {
        match op {
            AWSetOp::Add { elem, tag } => {
                // Look up first: re-adding a present element clones nothing.
                let tags = match self.live.get_mut(elem) {
                    Some(tags) => tags,
                    None => self.live.entry(elem.clone()).or_default(),
                };
                tags.insert(*tag);
            }
            AWSetOp::Remove { victims } => {
                for (e, tags) in victims {
                    if let Some(live) = self.live.get_mut(e) {
                        tags.iter().for_each(|t| live.remove(t));
                        if live.is_empty() {
                            self.live.remove(e);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::ReplicaId;

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
