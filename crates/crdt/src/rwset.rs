//! Remove-wins set with wildcard (pattern) removes.
//!
//! An element is present iff it has an add that causally dominates *every*
//! remove affecting the element: a remove concurrent with an add defeats
//! it. Removes can be scoped by a [`Pattern`] (§4.2.1): unlike the add-wins
//! wildcard, a pattern remove travels with the operation and also defeats
//! *concurrent* adds of matching elements — this is what lets
//! `rem_tourn(t)` guarantee "no player is enrolled in `t`" against races
//! (Fig. 2c), and what purges a removed Twitter user's history from all
//! timelines (§5.1.2).
//!
//! State is compacted via causal stability ([`RWSet::compact`]).

use crate::clock::VClock;
use crate::tag::Tag;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A (serializable) element predicate used by wildcard removes.
pub trait Pattern<E>: Clone {
    fn matches(&self, e: &E) -> bool;
}

impl Pattern<crate::value::Val> for crate::value::ValPattern {
    fn matches(&self, e: &crate::value::Val) -> bool {
        // Resolves to the inherent method (inherent impls take precedence
        // over trait impls in path resolution).
        crate::value::ValPattern::matches(self, e)
    }
}

/// A pattern that never matches — for uses without wildcard removes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoPattern;

impl<E> Pattern<E> for NoPattern {
    fn matches(&self, _: &E) -> bool {
        false
    }
}

/// Operation-based remove-wins set.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RWSet<E: Ord + Clone, P = NoPattern> {
    adds: BTreeMap<E, Vec<(Tag, VClock)>>,
    removes: BTreeMap<E, Vec<(Tag, VClock)>>,
    /// Wildcard removes: affect every matching element, including
    /// concurrently added ones.
    wild_removes: Vec<(P, Tag, VClock)>,
}

impl<E: Ord + Clone, P> Default for RWSet<E, P> {
    fn default() -> Self {
        RWSet {
            adds: BTreeMap::new(),
            removes: BTreeMap::new(),
            wild_removes: Vec::new(),
        }
    }
}

/// Effect operations. Every op carries the origin's vector clock
/// *including the op itself* so causality between adds and removes is
/// decidable at any replica.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RWSetOp<E, P> {
    Add { elem: E, tag: Tag, clock: VClock },
    Remove { elem: E, tag: Tag, clock: VClock },
    RemoveMatching { pattern: P, tag: Tag, clock: VClock },
}

impl<E: Ord + Clone, P: Pattern<E>> RWSet<E, P> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Is an element present? Present iff some add dominates all its
    /// removes (element-specific and matching wildcards).
    pub fn contains(&self, e: &E) -> bool {
        let Some(adds) = self.adds.get(e) else {
            return false;
        };
        adds.iter().any(|(_, ac)| self.add_visible(e, ac))
    }

    fn add_visible(&self, e: &E, add_clock: &VClock) -> bool {
        let element_removes = self.removes.get(e).into_iter().flatten();
        let wild = self
            .wild_removes
            .iter()
            .filter(|(p, _, _)| p.matches(e))
            .map(|(_, t, c)| (t, c));
        element_removes
            .map(|(t, c)| (t, c))
            .chain(wild)
            .all(|(_, rc)| rc.le(add_clock) && rc != add_clock)
    }

    pub fn elements(&self) -> impl Iterator<Item = &E> {
        self.adds.keys().filter(move |e| self.contains(e))
    }

    pub fn len(&self) -> usize {
        self.elements().count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The start of a partial copy: no element entries, but every
    /// wildcard remove, because a wildcard bears on the membership of any
    /// matching element and so has to travel with whichever entries are
    /// copied later.
    pub fn partial_copy(&self) -> Self {
        RWSet {
            adds: BTreeMap::new(),
            removes: BTreeMap::new(),
            wild_removes: self.wild_removes.clone(),
        }
    }

    /// Copy `e`'s entry (its adds and element removes) into `into`, which
    /// began as [`RWSet::partial_copy`] of this set: `into` then decides
    /// `e`'s membership exactly as `self` does. Returns whether there was
    /// an entry.
    pub fn copy_entry(&self, e: &E, into: &mut Self) -> bool {
        let adds = self.adds.get(e);
        let removes = self.removes.get(e);
        if let Some(adds) = adds {
            into.adds.insert(e.clone(), adds.clone());
        }
        if let Some(removes) = removes {
            into.removes.insert(e.clone(), removes.clone());
        }
        adds.is_some() || removes.is_some()
    }

    // ------------------------------------------------------------------
    // Prepare (origin side)
    // ------------------------------------------------------------------

    pub fn prepare_add(&self, elem: E, tag: Tag, clock: VClock) -> RWSetOp<E, P> {
        RWSetOp::Add { elem, tag, clock }
    }

    pub fn prepare_remove(&self, elem: E, tag: Tag, clock: VClock) -> RWSetOp<E, P> {
        RWSetOp::Remove { elem, tag, clock }
    }

    pub fn prepare_remove_matching(&self, pattern: P, tag: Tag, clock: VClock) -> RWSetOp<E, P> {
        RWSetOp::RemoveMatching {
            pattern,
            tag,
            clock,
        }
    }

    // ------------------------------------------------------------------
    // Apply
    // ------------------------------------------------------------------

    pub fn apply(&mut self, op: &RWSetOp<E, P>) {
        match op {
            RWSetOp::Add { elem, tag, clock } => {
                self.adds
                    .entry(elem.clone())
                    .or_default()
                    .push((*tag, clock.clone()));
            }
            RWSetOp::Remove { elem, tag, clock } => {
                self.removes
                    .entry(elem.clone())
                    .or_default()
                    .push((*tag, clock.clone()));
            }
            RWSetOp::RemoveMatching {
                pattern,
                tag,
                clock,
            } => {
                self.wild_removes
                    .push((pattern.clone(), *tag, clock.clone()));
            }
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    /// Compact entries under a causal-stability frontier.
    ///
    /// Contract (Baquero-style causal stability, provided by the store):
    /// every operation not yet delivered to this replica has a clock that
    /// **dominates** `stable`. Under that contract:
    ///
    /// * a *stable remove* can never defeat a future add (future clocks
    ///   dominate it), so once the presence of an element is decided among
    ///   stable entries, defeated stable adds and spent stable removes can
    ///   be dropped;
    /// * a surviving stable add is kept as a single representative.
    pub fn compact(&mut self, stable: &VClock) {
        // Decide presence per element using the full state first.
        let decided: Vec<E> = self.adds.keys().cloned().collect();
        for e in decided {
            let all_stable = self
                .adds
                .get(&e)
                .into_iter()
                .flatten()
                .chain(self.removes.get(&e).into_iter().flatten())
                .all(|(_, c)| c.le(stable));
            if !all_stable {
                continue;
            }
            let present = self.contains(&e);
            if present {
                // Keep one representative add — the causally latest
                // *visible* one. A defeated add must never become the
                // representative: a still-live wildcard remove would
                // defeat it again after the element's own removes are
                // dropped, flipping observable membership.
                let keep = self
                    .adds
                    .get(&e)
                    .into_iter()
                    .flatten()
                    .filter(|(_, ac)| self.add_visible(&e, ac))
                    .max_by(|a, b| a.1.total().cmp(&b.1.total()).then(a.0.cmp(&b.0)))
                    .cloned();
                if let Some(keep) = keep {
                    self.adds.insert(e.clone(), vec![keep]);
                }
                self.removes.remove(&e);
            } else {
                self.adds.remove(&e);
                self.removes.remove(&e);
            }
        }
        // A stable wildcard remove cannot defeat *future* adds (their
        // clocks dominate the frontier), but it may still be the only
        // thing defeating an already-delivered concurrent add that was
        // too fresh to compact above. Keep it until no retained add
        // depends on it.
        let adds = &self.adds;
        self.wild_removes.retain(|(p, _, rc)| {
            if !rc.le(stable) {
                return true;
            }
            adds.iter().any(|(e, entries)| {
                p.matches(e) && entries.iter().any(|(_, ac)| !(rc.le(ac) && rc != ac))
            })
        });
        // Defensive: drop empty buckets.
        self.adds.retain(|_, v| !v.is_empty());
        self.removes.retain(|_, v| !v.is_empty());
    }

    /// Rough memory footprint in entries (for GC tests/metrics).
    pub fn entry_count(&self) -> usize {
        self.adds.values().map(Vec::len).sum::<usize>()
            + self.removes.values().map(Vec::len).sum::<usize>()
            + self.wild_removes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::ReplicaId;

    fn tag(r: u16, s: u64) -> Tag {
        Tag::new(ReplicaId(r), s)
    }

    fn clock(entries: &[(u16, u64)]) -> VClock {
        entries.iter().map(|&(r, v)| (ReplicaId(r), v)).collect()
    }

    type StrSet = RWSet<&'static str, NoPattern>;

    #[test]
    fn sequential_add_remove_add() {
        let mut s = StrSet::new();
        s.apply(&s.prepare_add("x", tag(0, 1), clock(&[(0, 1)])));
        assert!(s.contains(&"x"));
        s.apply(&s.prepare_remove("x", tag(0, 2), clock(&[(0, 2)])));
        assert!(!s.contains(&"x"));
        s.apply(&s.prepare_add("x", tag(0, 3), clock(&[(0, 3)])));
        assert!(s.contains(&"x"), "a later add dominates the remove");
    }

    #[test]
    fn concurrent_remove_wins_over_add() {
        let mut a = StrSet::new();
        // Both replicas know x (added at clock [0:1]).
        let add0 = a.prepare_add("x", tag(0, 1), clock(&[(0, 1)]));
        a.apply(&add0);
        let mut b = a.clone();
        // A re-adds concurrently with B removing.
        let re_add = a.prepare_add("x", tag(0, 2), clock(&[(0, 2)]));
        let remove = b.prepare_remove("x", tag(1, 1), clock(&[(0, 1), (1, 1)]));
        a.apply(&re_add);
        a.apply(&remove);
        b.apply(&remove);
        b.apply(&re_add);
        assert!(!a.contains(&"x"), "remove must win over the concurrent add");
        assert_eq!(a, b);
    }

    #[test]
    fn wildcard_remove_defeats_concurrent_matching_add() {
        use crate::value::{Val, ValPattern};
        let mut a: RWSet<Val, ValPattern> = RWSet::new();
        let mut b = a.clone();
        // B enrolls p2 in t1 concurrently with A clearing (*, t1).
        let clear = a.prepare_remove_matching(
            ValPattern::pair(ValPattern::Any, ValPattern::exact("t1")),
            tag(0, 1),
            clock(&[(0, 1)]),
        );
        let enroll = b.prepare_add(Val::pair("p2", "t1"), tag(1, 1), clock(&[(1, 1)]));
        a.apply(&clear);
        a.apply(&enroll);
        b.apply(&enroll);
        b.apply(&clear);
        assert!(!a.contains(&Val::pair("p2", "t1")), "wildcard remove wins");
        assert_eq!(a, b);
        // Later (causally after) adds are unaffected.
        let late = a.prepare_add(Val::pair("p3", "t1"), tag(1, 2), clock(&[(0, 1), (1, 2)]));
        a.apply(&late);
        assert!(a.contains(&Val::pair("p3", "t1")));
    }

    /// Regression (found by the nemesis invariant oracle): a stable
    /// wildcard remove must survive compaction while an already-delivered
    /// *concurrent* add it defeats is still too fresh to compact —
    /// dropping the wildcard resurrected the defeated element.
    #[test]
    fn compact_keeps_wildcard_that_defeats_an_unstable_add() {
        use crate::value::{Val, ValPattern};
        let mut s: RWSet<Val, ValPattern> = RWSet::new();
        // Stable wildcard clear of (*, t1) at replica 0.
        s.apply(&s.prepare_remove_matching(
            ValPattern::pair(ValPattern::Any, ValPattern::exact("t1")),
            tag(0, 1),
            clock(&[(0, 1)]),
        ));
        // Concurrent add from replica 1, not yet causally stable.
        s.apply(&s.prepare_add(Val::pair("p", "t1"), tag(1, 1), clock(&[(1, 1)])));
        assert!(!s.contains(&Val::pair("p", "t1")), "remove wins");
        // Frontier covers the wildcard but not the add.
        s.compact(&clock(&[(0, 1)]));
        assert!(
            !s.contains(&Val::pair("p", "t1")),
            "compaction must not resurrect the defeated add"
        );
    }

    /// Regression: the representative add kept for a present element must
    /// be a *visible* one — keeping a defeated add (higher clock total)
    /// while a live wildcard remains flips membership at the next read.
    #[test]
    fn compact_keeps_a_visible_representative_add() {
        use crate::value::{Val, ValPattern};
        let mut s: RWSet<Val, ValPattern> = RWSet::new();
        let e = Val::pair("p", "t1");
        // Wildcard remove at [0:2].
        s.apply(&s.prepare_remove_matching(
            ValPattern::pair(ValPattern::Any, ValPattern::exact("t1")),
            tag(0, 2),
            clock(&[(0, 2)]),
        ));
        // Defeated concurrent add with a *larger* clock total…
        s.apply(&s.prepare_add(e.clone(), tag(1, 3), clock(&[(1, 3), (2, 3)])));
        // …and a surviving add causally after the wildcard.
        s.apply(&s.prepare_add(e.clone(), tag(0, 3), clock(&[(0, 3)])));
        assert!(s.contains(&e));
        // Everything stable: compaction decides the element.
        s.compact(&clock(&[(0, 3), (1, 3), (2, 3)]));
        assert!(
            s.contains(&e),
            "membership must be preserved across compaction"
        );
    }

    #[test]
    fn compact_drops_decided_entries() {
        let mut s = StrSet::new();
        s.apply(&s.prepare_add("gone", tag(0, 1), clock(&[(0, 1)])));
        s.apply(&s.prepare_remove("gone", tag(0, 2), clock(&[(0, 2)])));
        s.apply(&s.prepare_add("kept", tag(0, 3), clock(&[(0, 3)])));
        s.apply(&s.prepare_add("kept", tag(0, 4), clock(&[(0, 4)])));
        assert_eq!(s.entry_count(), 4);
        s.compact(&clock(&[(0, 4)]));
        assert_eq!(s.entry_count(), 1, "one representative add survives");
        assert!(!s.contains(&"gone"));
        assert!(s.contains(&"kept"));
        // Semantics preserved against future ops: a remove after the
        // frontier still removes the survivor.
        s.apply(&s.prepare_remove("kept", tag(1, 1), clock(&[(0, 4), (1, 1)])));
        assert!(!s.contains(&"kept"));
    }

    #[test]
    fn compact_keeps_unstable_entries() {
        let mut s = StrSet::new();
        s.apply(&s.prepare_add("x", tag(0, 5), clock(&[(0, 5)])));
        s.compact(&clock(&[(0, 3)]));
        assert_eq!(s.entry_count(), 1);
        assert!(s.contains(&"x"));
    }

    #[test]
    fn presence_requires_dominating_add() {
        let mut s = StrSet::new();
        // Remove arrives with a concurrent clock before any add: the later
        // concurrent add must lose.
        s.apply(&s.prepare_remove("x", tag(1, 1), clock(&[(1, 1)])));
        s.apply(&s.prepare_add("x", tag(0, 1), clock(&[(0, 1)])));
        assert!(!s.contains(&"x"));
    }
}
