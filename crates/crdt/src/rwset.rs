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
//! **Verdicts are kept, not recomputed.** Each element's add entry holds
//! a flag that always equals that decision over the current entries. The
//! decision is a disjunction over the element's adds of a conjunction over
//! the removes that bear on it, so an effect can flip only the verdicts it
//! names:
//!
//! * an `Add` can only make its element present, and decides just the new
//!   add, and only when the element is not already a member;
//! * a `Remove` can only make its element absent, and re-decides it only
//!   when it was a member;
//! * a `RemoveMatching` can only make elements absent, and re-decides only
//!   the members its pattern matches, read as a range when the pattern
//!   fixes its leading component ([`Pattern::first_candidate`]);
//! * [`RWSet::compact`] changes no verdict (debug-asserted), and a
//!   [`RWSet::copy_entry`] carries the copied entry's.
//!
//! So `contains`, `elements` and `len` read flags and never evaluate a
//! pattern. An `Add` costs at most one check of its clock against the
//! element's removes and the wildcards, a `Remove` or `RemoveMatching`
//! that hits a member a check per add of that member, and a wildcard
//! additionally one pattern test per member. Wherever a wildcard is still
//! tested, its clock is compared first: a wildcard an add dominates cannot
//! defeat it, whatever its pattern matches. Compaction re-checks only
//! members with more than one add (to pick a representative), and tests
//! a stable wildcard only against the adds not strictly above the
//! frontier.
//!
//! State is compacted via causal stability ([`RWSet::compact`]).

use crate::clock::VClock;
use crate::tag::Tag;
use crate::value::{Val, ValPattern};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::RangeBounds;

/// A (serializable) element predicate used by wildcard removes.
pub trait Pattern<E>: Clone {
    fn matches(&self, e: &E) -> bool;

    /// The least element the pattern can match, when every element it
    /// matches lies in the run of the order that starts there and over
    /// which [`Pattern::leads`] holds: a wildcard then reads that range
    /// alone. `None`, the default, when matches can lie anywhere.
    fn first_candidate(&self) -> Option<Cow<'_, E>>
    where
        E: Clone,
    {
        None
    }

    /// Is `e` in the run that starts at [`Pattern::first_candidate`]?
    fn leads(&self, _e: &E) -> bool {
        true
    }
}

impl Pattern<Val> for ValPattern {
    // Each resolves to the inherent method (inherent impls take
    // precedence over trait impls in path resolution).
    fn matches(&self, e: &Val) -> bool {
        ValPattern::matches(self, e)
    }

    fn first_candidate(&self) -> Option<Cow<'_, Val>> {
        ValPattern::first_candidate(self)
    }

    fn leads(&self, e: &Val) -> bool {
        ValPattern::leads(self, e)
    }
}

/// Any predicate is a pattern that walks the whole set.
impl<E, F: Fn(&E) -> bool + Clone> Pattern<E> for F {
    fn matches(&self, e: &E) -> bool {
        self(e)
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

type Removes<E> = BTreeMap<E, Vec<(Tag, VClock)>>;

/// Operation-based remove-wins set.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RWSet<E: Ord + Clone, P = NoPattern> {
    adds: BTreeMap<E, Adds>,
    removes: Removes<E>,
    /// Wildcard removes: affect every matching element, including
    /// concurrently added ones.
    wild_removes: Vec<(P, Tag, VClock)>,
}

/// An element's adds and its membership verdict over the whole state.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Adds {
    tags: Vec<(Tag, VClock)>,
    present: bool,
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

/// Does an add of `e` at `add_clock` strictly dominate every remove that
/// bears on `e`: its element removes and each matching wildcard?
fn visible<E: Ord, P: Pattern<E>>(
    removes: &Removes<E>,
    wild_removes: &[(P, Tag, VClock)],
    e: &E,
    add_clock: &VClock,
) -> bool {
    removes
        .get(e)
        .into_iter()
        .flatten()
        .all(|(_, rc)| rc.lt(add_clock))
        && wild_removes
            .iter()
            .all(|(p, _, rc)| rc.lt(add_clock) || !p.matches(e))
}

/// `e`'s verdict from scratch: does one of its adds survive everything?
fn decide<E: Ord, P: Pattern<E>>(
    removes: &Removes<E>,
    wild_removes: &[(P, Tag, VClock)],
    e: &E,
    adds: &[(Tag, VClock)],
) -> bool {
    adds.iter()
        .any(|(_, ac)| visible(removes, wild_removes, e, ac))
}

/// `e`'s verdict after an effect at `clock` that can only defeat adds:
/// a member still is one iff an add dominating `clock` survives
/// everything.
fn redecide<E: Ord, P: Pattern<E>>(
    removes: &Removes<E>,
    wild_removes: &[(P, Tag, VClock)],
    e: &E,
    adds: &[(Tag, VClock)],
    clock: &VClock,
) -> bool {
    adds.iter()
        .any(|(_, ac)| clock.lt(ac) && visible(removes, wild_removes, e, ac))
}

impl<E: Ord + Clone, P: Pattern<E>> RWSet<E, P> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Is an element present? Present iff some add dominates all its
    /// removes (element-specific and matching wildcards).
    pub fn contains(&self, e: &E) -> bool {
        self.adds.get(e).is_some_and(|a| a.present)
    }

    pub fn elements(&self) -> impl Iterator<Item = &E> {
        self.range(..)
    }

    /// The members within `range`, in element order: what
    /// [`RWSet::elements`] yields there, from a B-tree range of the add
    /// entries, each read by its kept verdict.
    pub fn range(&self, range: impl RangeBounds<E>) -> impl Iterator<Item = &E> {
        self.adds
            .range(range)
            .filter(|(_, a)| a.present)
            .map(|(e, _)| e)
    }

    /// A walk of the add entries: the verdicts are kept per entry, not
    /// counted.
    pub fn len(&self) -> usize {
        self.elements().count()
    }

    pub fn is_empty(&self) -> bool {
        self.elements().next().is_none()
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

    /// Copy `e`'s entry (its adds, element removes and verdict) into
    /// `into`, which began as [`RWSet::partial_copy`] of this set: `into`
    /// then decides `e`'s membership exactly as `self` does, once `into`'s
    /// own wildcards are counted. Those were appended after this set's and
    /// can only defeat adds, so a member's verdict is re-decided when
    /// there are any, and no other. Returns whether there was an entry.
    pub fn copy_entry(&self, e: &E, into: &mut Self) -> bool {
        let adds = self.adds.get(e);
        let removes = self.removes.get(e);
        if let Some(removes) = removes {
            into.removes.insert(e.clone(), removes.clone());
        }
        if let Some(adds) = adds {
            let mut adds = adds.clone();
            if adds.present && into.wild_removes.len() != self.wild_removes.len() {
                adds.present = decide(&into.removes, &into.wild_removes, e, &adds.tags);
            }
            into.adds.insert(e.clone(), adds);
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

    /// Record an effect and bring the verdicts it can flip up to date
    /// (see the module header).
    pub fn apply(&mut self, op: &RWSetOp<E, P>) {
        let RWSet {
            adds,
            removes,
            wild_removes,
        } = self;
        match op {
            RWSetOp::Add { elem, tag, clock } => {
                let entry = adds.entry(elem.clone()).or_default();
                if !entry.present {
                    entry.present = visible(removes, wild_removes, elem, clock);
                }
                entry.tags.push((*tag, clock.clone()));
            }
            RWSetOp::Remove { elem, tag, clock } => {
                removes
                    .entry(elem.clone())
                    .or_default()
                    .push((*tag, clock.clone()));
                if let Some(entry) = adds.get_mut(elem).filter(|a| a.present) {
                    entry.present = redecide(removes, wild_removes, elem, &entry.tags, clock);
                }
            }
            RWSetOp::RemoveMatching {
                pattern,
                tag,
                clock,
            } => {
                wild_removes.push((pattern.clone(), *tag, clock.clone()));
                let from = pattern.first_candidate();
                let entries = match &from {
                    Some(first) => adds.range_mut(&**first..),
                    None => adds.range_mut(..),
                };
                let run = entries.take_while(|(e, _)| from.is_none() || pattern.leads(e));
                for (e, entry) in run {
                    if entry.present && pattern.matches(e) {
                        entry.present = redecide(removes, wild_removes, e, &entry.tags, clock);
                    }
                }
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
    ///
    /// No verdict changes: a kept representative was visible and loses
    /// only removes, an absent element's entries all go, and a wildcard
    /// goes only once every add it matches dominates it.
    pub fn compact(&mut self, stable: &VClock) {
        let RWSet {
            adds,
            removes,
            wild_removes,
        } = self;
        adds.retain(|e, entry| {
            let all_stable = entry
                .tags
                .iter()
                .chain(removes.get(e).into_iter().flatten())
                .all(|(_, c)| c.le(stable));
            if !all_stable {
                return true;
            }
            if !entry.present || entry.tags.len() == 1 {
                removes.remove(e);
                return entry.present;
            }
            // Keep one representative add — the causally latest *visible*
            // one. A defeated add must never become the representative: a
            // still-live wildcard remove would defeat it again after the
            // element's own removes are dropped, flipping observable
            // membership.
            let keep = entry
                .tags
                .iter()
                .enumerate()
                .filter(|(_, (_, ac))| visible(removes, wild_removes, e, ac))
                .max_by(|(_, a), (_, b)| a.1.total().cmp(&b.1.total()).then(a.0.cmp(&b.0)))
                .map(|(i, _)| i);
            if let Some(i) = keep {
                entry.tags = vec![entry.tags.swap_remove(i)];
            }
            removes.remove(e);
            true
        });
        // A stable wildcard remove cannot defeat *future* adds (their
        // clocks dominate the frontier), but it may still be the only
        // thing defeating an already-delivered concurrent add that was
        // too fresh to compact above. Keep it until no retained add
        // depends on it. An add strictly above the frontier dominates
        // every stable wildcard, so only the others are looked at.
        if wild_removes.iter().any(|(_, _, rc)| rc.le(stable)) {
            let below: Vec<(&E, &VClock)> = adds
                .iter()
                .flat_map(|(e, entry)| entry.tags.iter().map(move |(_, ac)| (e, ac)))
                .filter(|(_, ac)| !stable.lt(ac))
                .collect();
            wild_removes.retain(|(p, _, rc)| {
                !rc.le(stable) || below.iter().any(|(e, ac)| !rc.lt(ac) && p.matches(e))
            });
        }
        debug_assert!(
            self.adds
                .iter()
                .all(|(e, a)| a.present == decide(&self.removes, &self.wild_removes, e, &a.tags)),
            "compaction changed a verdict"
        );
    }

    /// Rough memory footprint in entries (for GC tests/metrics).
    pub fn entry_count(&self) -> usize {
        self.adds.values().map(|a| a.tags.len()).sum::<usize>()
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

    // ------------------------------------------------------------------
    // Property: the kept verdicts are the decision made from scratch
    // ------------------------------------------------------------------

    use crate::value::{Val, ValPattern};
    use proptest::prelude::*;

    type ValSet = RWSet<Val, ValPattern>;

    impl<E: Ord + Clone, P: Pattern<E>> RWSet<E, P> {
        /// The reference: `e`'s membership decided from the entries
        /// alone, every remove and every wildcard tested, as reads decided
        /// it before verdicts were kept.
        fn decided(&self, e: &E) -> bool {
            let Some(adds) = self.adds.get(e) else {
                return false;
            };
            adds.tags.iter().any(|(_, ac)| {
                let element = self.removes.get(e).into_iter().flatten();
                let wild = self.wild_removes.iter().filter(|(p, _, _)| p.matches(e));
                element
                    .map(|(_, rc)| rc)
                    .chain(wild.map(|(_, _, rc)| rc))
                    .all(|rc| rc.le(ac) && rc != ac)
            })
        }
    }

    const SITES: usize = 3;
    const ELEMENTS: u8 = 18;

    /// Six pairs `(p, t)` and twelve triples `(p, t, k)`.
    fn element(i: u8) -> Val {
        let i = i % ELEMENTS;
        let (p, t) = (format!("p{}", i % 3), format!("t{}", i / 3 % 2));
        if i < 6 {
            Val::pair(p, t)
        } else {
            Val::triple(p, t, i64::from(i / 6 % 2))
        }
    }

    /// Pair and triple patterns, each matching a few of the elements.
    fn pattern(i: u8) -> ValPattern {
        use ValPattern::Any;
        let p = || ValPattern::exact(format!("p{}", i / 6 % 3));
        let t = || ValPattern::exact(format!("t{}", i / 6 % 2));
        match i % 6 {
            0 => ValPattern::pair(Any, t()),
            1 => ValPattern::pair(p(), Any),
            2 => ValPattern::triple(Any, t(), Any),
            3 => ValPattern::triple(p(), Any, Any),
            4 => ValPattern::triple(Any, Any, ValPattern::exact(i64::from(i / 6 % 2))),
            _ => ValPattern::pair(p(), t()),
        }
    }

    /// Each kept verdict of `s` against the reference.
    fn check_verdicts(s: &ValSet) -> TestCaseResult {
        for i in 0..ELEMENTS {
            let e = element(i);
            prop_assert_eq!(s.contains(&e), s.decided(&e), "{}", e);
        }
        let members: Vec<&Val> = s.adds.keys().filter(|e| s.decided(e)).collect();
        prop_assert!(s.elements().eq(members.iter().copied()));
        prop_assert_eq!(s.len(), members.len());
        prop_assert_eq!(s.is_empty(), members.is_empty());
        // A range from each element on: the members at or after it.
        for i in 0..ELEMENTS {
            let e = element(i);
            let after = members.iter().copied().filter(|m| **m >= e);
            prop_assert!(s.range(&e..).eq(after), "{}..", e);
        }
        Ok(())
    }

    struct Logged {
        origin: ReplicaId,
        op: RWSetOp<Val, ValPattern>,
    }

    impl Logged {
        fn clock(&self) -> &VClock {
            match &self.op {
                RWSetOp::Add { clock, .. }
                | RWSetOp::Remove { clock, .. }
                | RWSetOp::RemoveMatching { clock, .. } => clock,
            }
        }
    }

    #[derive(Default)]
    struct Site {
        set: ValSet,
        /// The same effects, never compacted: compaction under its
        /// contract must not change an answer, now or later.
        whole: ValSet,
        clock: VClock,
        /// By log position: whether the effect has reached this site.
        applied: Vec<bool>,
    }

    /// Three sites issuing effects and delivering each other's in causal
    /// order.
    struct History {
        sites: Vec<Site>,
        log: Vec<Logged>,
    }

    impl History {
        fn issue(&mut self, s: usize, make: impl FnOnce(Tag, VClock) -> RWSetOp<Val, ValPattern>) {
            let r = ReplicaId(s as u16);
            let clock = &mut self.sites[s].clock;
            let seq = clock.tick(r);
            let op = make(tag(r.0, seq), clock.clone());
            self.log.push(Logged { origin: r, op });
            self.deliver(s, self.log.len() - 1);
        }

        fn pending(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
            let applied = &self.sites[s].applied;
            (0..self.log.len()).filter(move |&i| !applied.get(i).copied().unwrap_or(false))
        }

        fn ready(&self, s: usize) -> Vec<usize> {
            let clock = &self.sites[s].clock;
            self.pending(s)
                .filter(|&i| {
                    self.log[i]
                        .clock()
                        .deliverable_from(self.log[i].origin, clock)
                })
                .collect()
        }

        fn deliver(&mut self, s: usize, i: usize) {
            let (site, logged) = (&mut self.sites[s], &self.log[i]);
            site.set.apply(&logged.op);
            site.whole.apply(&logged.op);
            site.clock.merge(logged.clock());
            if site.applied.len() <= i {
                site.applied.resize(i + 1, false);
            }
            site.applied[i] = true;
        }

        /// The greatest frontier meeting compact's contract at `s`: every
        /// effect still to reach `s`, issued or to be issued, dominates
        /// it.
        fn frontier(&self, s: usize) -> VClock {
            let ids: Vec<ReplicaId> = (0..SITES as u16).map(ReplicaId).collect();
            let issued = self.pending(s).map(|i| self.log[i].clock());
            self.sites
                .iter()
                .map(|site| &site.clock)
                .chain(issued)
                .fold(self.sites[s].clock.clone(), |f, c| f.meet(c, &ids))
        }

        fn check(&self) -> TestCaseResult {
            for site in &self.sites {
                check_verdicts(&site.set)?;
                check_verdicts(&site.whole)?;
                prop_assert!(site.set.elements().eq(site.whole.elements()));
            }
            Ok(())
        }
    }

    /// A partial copy of `set` filled element by element, with effects of
    /// its own in between, as a transaction fills one. `picks` names the
    /// elements; `effects` says after which of them an effect comes.
    fn check_copy(site: &Site, id: u16, picks: u8, effects: u8) -> TestCaseResult {
        let (set, mut clock) = (&site.set, site.clock.clone());
        let mut copy = set.partial_copy();
        let mut own = false;
        for k in 0..4u8 {
            let e = element(picks.wrapping_mul(k + 1).wrapping_add(k));
            set.copy_entry(&e, &mut copy);
            if !own {
                prop_assert_eq!(copy.contains(&e), set.contains(&e), "{}", e);
            }
            if effects >> k & 1 == 1 {
                own = true;
                let seq = clock.tick(ReplicaId(id));
                let (tag, clock) = (tag(id, seq), clock.clone());
                let op = match (effects >> 4 >> k) & 1 {
                    0 => copy.prepare_add(e, tag, clock),
                    _ => copy.prepare_remove_matching(pattern(picks ^ effects), tag, clock),
                };
                copy.apply(&op);
            }
            check_verdicts(&copy)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random concurrent histories over three sites, delivered in
        /// random causal orders and compacted at random frontiers that
        /// meet the contract: after every step each site's kept
        /// `contains`, `elements` and `len` are the reference decision
        /// over its entries, and those of a partial copy over its own. A
        /// step is (site, kind, a, b): the kind picks the effect, `a` and
        /// `b` its element or pattern, the effect delivered, the frontier
        /// or the copy.
        #[test]
        fn kept_verdicts_equal_the_decision_from_scratch(
            steps in prop::collection::vec((0u8..3, 0u8..16, 0u8..=255, 0u8..=255), 20..120),
        ) {
            let mut h = History {
                sites: (0..SITES).map(|_| Site::default()).collect(),
                log: Vec::new(),
            };
            for &(s, kind, a, b) in &steps {
                let s = usize::from(s);
                match kind {
                    0..=3 => h.issue(s, |t, c| RWSetOp::Add { elem: element(a), tag: t, clock: c }),
                    4..=5 => h.issue(s, |t, c| RWSetOp::Remove { elem: element(a), tag: t, clock: c }),
                    6..=7 => h.issue(s, |t, c| RWSetOp::RemoveMatching {
                        pattern: pattern(a),
                        tag: t,
                        clock: c,
                    }),
                    8..=11 => {
                        let ready = h.ready(s);
                        if !ready.is_empty() {
                            h.deliver(s, ready[usize::from(a) % ready.len()]);
                        }
                    }
                    12 => {
                        while let Some(&i) = h.ready(s).get(usize::from(a) % 2) {
                            h.deliver(s, i);
                        }
                        while let Some(&i) = h.ready(s).first() {
                            h.deliver(s, i);
                        }
                    }
                    13 | 14 => {
                        // The greatest frontier, or one component lowered.
                        let mut f = h.frontier(s);
                        if kind == 14 {
                            let r = ReplicaId(u16::from(a) % SITES as u16);
                            f.set(r, f.get(r).saturating_sub(u64::from(b % 4)));
                        }
                        h.sites[s].set.compact(&f);
                    }
                    _ => check_copy(&h.sites[s], s as u16, a, b)?,
                }
                h.check()?;
            }
            // Everything delivered everywhere: the sites agree.
            for s in 0..SITES {
                while let Some(&i) = h.ready(s).first() {
                    h.deliver(s, i);
                }
            }
            h.check()?;
            let first: Vec<&Val> = h.sites[0].set.elements().collect();
            for site in &h.sites[1..] {
                prop_assert!(site.set.elements().eq(first.iter().copied()));
            }
        }
    }
}
