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
//! entries in one vector sorted by element, grown one slot at a time, so
//! its capacity is the most elements it has held. Past that the vector
//! becomes the first chunk of a sorted list of chunks: vectors of at most
//! `VEC_MAX` entries, each allocated once at that capacity, beside each
//! chunk's first element. A lookup is a binary search over those first
//! elements, then one within a chunk. The list moves back into one vector
//! only once fewer than `VEC_MIN` (32) elements remain. Nothing outside
//! this module can tell the two apart: lookups answer the same, iteration
//! and [`AWSet::range`] visit members in element order either way, and
//! `==` compares contents.
//!
//! Chunks are kept full. An add past the end of a full last chunk opens a
//! new one, so ascending adds and slides (add the largest, remove the
//! smallest) leave every chunk but the first and the last full. Any other
//! add to a full chunk hands the chunk's edge element to a neighbour with
//! room, and splits the chunk in the middle only when neither has any. A
//! remove merges a chunk into a neighbour when the two fit in `MERGE_MAX`
//! (¾ of a chunk), so a merged chunk has room for a quarter more.
//!
//! Why: the store's sets are mostly small (the benchmark's hold 4 or 16
//! elements), and a B-tree spends a 544-byte leaf on a 4-element set —
//! 102 of the 205 MiB live at `catchup_wide`'s peak — where a vector
//! spends the 48-byte `(Val, TagSet)` slot each element holds. A large
//! set in a B-tree spent 92 B per element after ascending adds, whose
//! leaves stay 6/11 full; the chunk list spends 48 (57 after scattered
//! adds and removes, where the B-tree spent 76). The bound is half the
//! measured crossover: on 48-byte entries a vector's add-and-remove cost
//! less than a B-tree's at every size up to 128 elements, and more at 256
//! when a slide shifts the whole vector (2-vCPU Xeon, release build). The
//! gap between the two thresholds keeps a set that slides around one of
//! them from converting on every add and remove.

use crate::rwset::Pattern;
use crate::tag::Tag;
use crate::tagset::TagSet;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Bound, RangeBounds};

/// The most elements a set keeps in its sorted vector, and in each chunk
/// of its chunk list.
const VEC_MAX: usize = 64;
/// A chunk list moves back to a vector below this many elements.
const VEC_MIN: usize = VEC_MAX / 2;
/// A remove merges two neighbouring chunks that hold at most this many.
const MERGE_MAX: usize = VEC_MAX * 3 / 4;

/// Operation-based add-wins set.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AWSet<E: Ord + Clone> {
    live: Live<E>,
}

/// Each live element with its add tags, in element order.
enum Live<E> {
    Vec(Vec<(E, TagSet)>),
    Chunks(Chunks<E>),
}

/// A large set's entries: non-empty chunks in element order.
struct Chunks<E> {
    list: Vec<Chunk<E>>,
    /// The entries in all chunks.
    len: usize,
}

/// At most [`VEC_MAX`] entries in a vector of that capacity, never empty.
struct Chunk<E> {
    /// `entries[0]`'s element, kept in the list so that finding a chunk
    /// reads no chunk.
    first: E,
    entries: Vec<(E, TagSet)>,
}

impl<E: Clone> Chunk<E> {
    fn new(entry: (E, TagSet)) -> Self {
        let mut entries = Vec::with_capacity(VEC_MAX);
        entries.push(entry);
        Self::of(entries)
    }

    fn of(entries: Vec<(E, TagSet)>) -> Self {
        Chunk {
            first: entries[0].0.clone(),
            entries,
        }
    }

    fn is_full(&self) -> bool {
        self.entries.len() == VEC_MAX
    }

    fn insert(&mut self, at: usize, entry: (E, TagSet)) {
        self.entries.insert(at, entry);
        if at == 0 {
            self.first = self.entries[0].0.clone();
        }
    }
}

/// A cloned chunk gets the full capacity too, so adds to it never
/// reallocate.
impl<E: Clone> Clone for Chunk<E> {
    fn clone(&self) -> Self {
        let mut entries = Vec::with_capacity(VEC_MAX);
        entries.extend_from_slice(&self.entries);
        Chunk {
            first: self.first.clone(),
            entries,
        }
    }
}

impl<E: Clone> Clone for Live<E> {
    fn clone(&self) -> Self {
        match self {
            Live::Vec(entries) => Live::Vec(entries.clone()),
            Live::Chunks(chunks) => Live::Chunks(Chunks {
                list: chunks.list.clone(),
                len: chunks.len,
            }),
        }
    }
}

impl<E: Ord + Clone> Chunks<E> {
    /// Put `entry` at `at` in chunk `c`, where its element belongs, keeping
    /// chunks full (see the module header).
    fn insert(&mut self, c: usize, at: usize, entry: (E, TagSet)) {
        self.len += 1;
        let list = &mut self.list;
        let last = c + 1 == list.len();
        if !list[c].is_full() {
            list[c].insert(at, entry);
        } else if last && at == VEC_MAX {
            list.push(Chunk::new(entry));
        } else if c > 0 && !list[c - 1].is_full() {
            // The chunk's first element is below the new one (`at >= 1`):
            // it moves to the end of the left neighbour, the entries before
            // `at` shift down one, and the new entry takes `at - 1`.
            let (left, right) = list.split_at_mut(c);
            let chunk = &mut right[0];
            chunk.entries[..at].rotate_left(1);
            let head = std::mem::replace(&mut chunk.entries[at - 1], entry);
            chunk.first = chunk.entries[0].0.clone();
            left[c - 1].entries.push(head);
        } else if !last && !list[c + 1].is_full() {
            // The chunk's last element, or the new one past it, moves to
            // the front of the right neighbour.
            let (left, right) = list.split_at_mut(c + 1);
            let chunk = &mut left[c];
            let tail = if at == VEC_MAX {
                entry
            } else {
                chunk.entries[at..].rotate_right(1);
                let tail = std::mem::replace(&mut chunk.entries[at], entry);
                if at == 0 {
                    chunk.first = chunk.entries[0].0.clone();
                }
                tail
            };
            right[0].insert(0, tail);
        } else {
            let mut upper = Vec::with_capacity(VEC_MAX);
            upper.extend(list[c].entries.drain(VEC_MAX / 2..));
            let mut upper = Chunk::of(upper);
            match at.checked_sub(VEC_MAX / 2) {
                Some(at) if at > 0 => upper.insert(at, entry),
                _ => list[c].insert(at, entry),
            }
            list.insert(c + 1, upper);
        }
    }

    /// Remove the entry at `at` in chunk `c`: drop the chunk once empty,
    /// else merge it into a neighbour they fit in together.
    fn remove(&mut self, c: usize, at: usize) {
        self.len -= 1;
        let list = &mut self.list;
        list[c].entries.remove(at);
        let n = list[c].entries.len();
        if n == 0 {
            list.remove(c);
            return;
        }
        if at == 0 {
            list[c].first = list[c].entries[0].0.clone();
        }
        if c > 0 && list[c - 1].entries.len() + n <= MERGE_MAX {
            let chunk = list.remove(c);
            list[c - 1].entries.extend(chunk.entries);
        } else if c + 1 < list.len() && n + list[c + 1].entries.len() <= MERGE_MAX {
            let next = list.remove(c + 1);
            list[c].entries.extend(next.entries);
        }
    }
}

/// [`Live`]'s entries in a range, in element order: the rest of one
/// chunk (or of the vector), whole chunks, then the head of a last one.
struct Iter<'a, E> {
    front: std::slice::Iter<'a, (E, TagSet)>,
    middle: std::slice::Iter<'a, Chunk<E>>,
    back: std::slice::Iter<'a, (E, TagSet)>,
}

impl<'a, E> Iterator for Iter<'a, E> {
    type Item = (&'a E, &'a TagSet);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((e, tags)) = self.front.next() {
                return Some((e, tags));
            }
            match self.middle.next() {
                Some(chunk) => self.front = chunk.entries.iter(),
                None => return self.back.next().map(|(e, tags)| (e, tags)),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let middle: usize = self.middle.as_slice().iter().map(|c| c.entries.len()).sum();
        let n = self.front.len() + middle + self.back.len();
        (n, Some(n))
    }
}

impl<E> Default for Live<E> {
    fn default() -> Self {
        Live::Vec(Vec::new())
    }
}

/// Where an entry is: its chunk (0 for a vector) and its index there.
type At = (usize, usize);

/// How many entries a search within a vector scans rather than halves.
const SCAN: usize = 8;

/// The index of the first of `entries` whose element fails `below`, which
/// holds of a prefix of them: halve down to [`SCAN`] entries, then scan
/// those. A full chunk's 48-byte slots span 48 cache lines; on sets that
/// do not fit in the cache the scan, which reads its lines in order,
/// costs less than the halvings it replaces, each a miss of its own.
/// Random lookups in 64 sets of 4,096 (2-vCPU Xeon, release build) took
/// 0.65–0.8 µs with a binary search within the chunk, 0.25–0.37 µs so,
/// and 0.3–0.37 µs in B-trees; a scan of 16 made a lookup of the last of
/// 16 elements cost twice a binary search's.
fn boundary<E>(entries: &[(E, TagSet)], below: impl Fn(&E) -> bool) -> usize {
    let (mut lo, mut hi) = (0, entries.len());
    while hi - lo > SCAN {
        let mid = lo + (hi - lo) / 2;
        if below(&entries[mid].0) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo + entries[lo..hi].iter().take_while(|(k, _)| below(k)).count()
}

impl<E: Ord> Live<E> {
    fn iter(&self) -> Iter<'_, E> {
        self.range(..)
    }

    /// The entries whose element lies in `range`: a binary search for each
    /// bound, over the chunks' first elements and then within one.
    fn range(&self, range: impl RangeBounds<E>) -> Iter<'_, E> {
        let none = Iter {
            front: [].iter(),
            middle: [].iter(),
            back: [].iter(),
        };
        // Where the first entry not below `bound` is; `past_equal` puts an
        // entry equal to an included bound below it.
        let at = |bound: Bound<&E>, past_equal: bool| match bound {
            Bound::Unbounded if past_equal => self.end(),
            Bound::Unbounded => (0, 0),
            Bound::Included(e) if past_equal => self.partition(|k| k <= e),
            Bound::Excluded(e) if !past_equal => self.partition(|k| k <= e),
            Bound::Included(e) | Bound::Excluded(e) => self.partition(|k| k < e),
        };
        let (sc, si) = at(range.start_bound(), false);
        let (ec, ei) = at(range.end_bound(), true);
        match self {
            Live::Vec(entries) => Iter {
                front: entries[si..ei.max(si)].iter(),
                ..none
            },
            Live::Chunks(chunks) if sc == ec => Iter {
                front: chunks.list[sc].entries[si..ei.max(si)].iter(),
                ..none
            },
            Live::Chunks(chunks) if sc < ec => Iter {
                front: chunks.list[sc].entries[si..].iter(),
                middle: chunks.list[sc + 1..ec].iter(),
                back: chunks.list[ec].entries[..ei].iter(),
            },
            Live::Chunks(_) => none,
        }
    }

    /// Where the first entry whose element fails `below` is, `below`
    /// holding of a prefix of the elements: in the last chunk whose first
    /// element passes, possibly at its end.
    fn partition(&self, below: impl Fn(&E) -> bool) -> At {
        match self {
            Live::Vec(entries) => (0, boundary(entries, &below)),
            Live::Chunks(chunks) => match chunks.list.partition_point(|c| below(&c.first)) {
                0 => (0, 0),
                n => (n - 1, boundary(&chunks.list[n - 1].entries, &below)),
            },
        }
    }

    /// Past the last entry.
    fn end(&self) -> At {
        match self {
            Live::Vec(entries) => (0, entries.len()),
            Live::Chunks(chunks) => {
                let c = chunks.list.len() - 1;
                (c, chunks.list[c].entries.len())
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Live::Vec(entries) => entries.len(),
            Live::Chunks(chunks) => chunks.len,
        }
    }

    /// Where `e`'s entry is, or where it would go: the only search an
    /// effect makes.
    fn locate(&self, e: &E) -> (usize, Result<usize, usize>) {
        let c = match self {
            Live::Vec(_) => 0,
            Live::Chunks(chunks) => chunks
                .list
                .partition_point(|c| c.first <= *e)
                .saturating_sub(1),
        };
        let entries = self.entries(c);
        let at = boundary(entries, |k| k < e);
        match entries.get(at) {
            Some((k, _)) if k == e => (c, Ok(at)),
            _ => (c, Err(at)),
        }
    }

    fn entries(&self, c: usize) -> &[(E, TagSet)] {
        match self {
            Live::Vec(entries) => entries,
            Live::Chunks(chunks) => &chunks.list[c].entries,
        }
    }

    fn get(&self, e: &E) -> Option<&TagSet> {
        let (c, found) = self.locate(e);
        found.ok().map(|at| &self.entries(c)[at].1)
    }

    /// `e`'s tags, found at `at` by [`Live::locate`].
    fn tags_mut(&mut self, (c, at): At) -> &mut TagSet {
        match self {
            Live::Vec(entries) => &mut entries[at].1,
            Live::Chunks(chunks) => &mut chunks.list[c].entries[at].1,
        }
    }
}

impl<E: Ord + Clone> Live<E> {
    /// Remove the entry at `at`, moving the entries back into a vector
    /// when a chunk list falls below [`VEC_MIN`].
    fn remove_at(&mut self, (c, at): At) {
        match self {
            Live::Vec(entries) => {
                entries.remove(at);
            }
            Live::Chunks(chunks) => {
                chunks.remove(c, at);
                if chunks.len < VEC_MIN {
                    let mut entries = Vec::with_capacity(chunks.len);
                    chunks
                        .list
                        .drain(..)
                        .for_each(|c| entries.extend(c.entries));
                    *self = Live::Vec(entries);
                }
            }
        }
    }

    /// Insert `entry` at `at`, where [`Live::locate`] found its element
    /// would go; a full vector becomes the first chunk of a list.
    fn insert_at(&mut self, (c, at): At, entry: (E, TagSet)) {
        match self {
            Live::Vec(entries) if entries.len() < VEC_MAX => {
                entries.reserve_exact(1);
                entries.insert(at, entry);
            }
            Live::Vec(entries) => {
                let list = vec![Chunk::of(std::mem::take(entries))];
                let mut chunks = Chunks { list, len: VEC_MAX };
                chunks.insert(0, at, entry);
                *self = Live::Chunks(chunks);
            }
            Live::Chunks(chunks) => chunks.insert(c, at, entry),
        }
    }
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
        let Some(tags) = self.live.get(e) else {
            return false;
        };
        match into.live.locate(e) {
            (c, Ok(at)) => *into.live.tags_mut((c, at)) = tags.clone(),
            (c, Err(at)) => into.live.insert_at((c, at), (e.clone(), tags.clone())),
        }
        true
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
    /// the pattern (add-wins semantics — concurrent adds survive). A
    /// pattern with a [`Pattern::first_candidate`] reads only the run of
    /// elements it leads, from there; any other tests every member.
    pub fn prepare_remove_matching(&self, pattern: &impl Pattern<E>) -> AWSetOp<E> {
        let from = pattern.first_candidate();
        let entries = match &from {
            Some(first) => self.live.range(&**first..),
            None => self.live.iter(),
        };
        let victims = entries
            .take_while(|(e, _)| from.is_none() || pattern.leads(e))
            .filter(|(e, _)| pattern.matches(e))
            .map(|(e, tags)| (e.clone(), tags.clone()))
            .collect();
        AWSetOp::Remove { victims }
    }

    // ------------------------------------------------------------------
    // Apply (all replicas, causal delivery)
    // ------------------------------------------------------------------

    /// Apply an effect: one search per element it names.
    pub fn apply(&mut self, op: &AWSetOp<E>) {
        match op {
            AWSetOp::Add { elem, tag } => match self.live.locate(elem) {
                // Re-adding a present element clones nothing.
                (c, Ok(at)) => self.live.tags_mut((c, at)).insert(*tag),
                (c, Err(at)) => {
                    let tags = std::iter::once(*tag).collect();
                    self.live.insert_at((c, at), (elem.clone(), tags));
                }
            },
            AWSetOp::Remove { victims } => {
                for (e, tags) in victims {
                    if let (c, Ok(at)) = self.live.locate(e) {
                        let live = self.live.tags_mut((c, at));
                        tags.iter().for_each(|t| live.remove(t));
                        if live.is_empty() {
                            self.live.remove_at((c, at));
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
    use crate::value::{Val, ValPattern};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        let rm = s.prepare_remove_matching(&|(_, t): &(String, String)| t == "t1");
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
        let rm = a.prepare_remove_matching(&|(_, t): &(String, String)| t == "t1");
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

    /// The elements scripts draw from: four full chunks' worth.
    const SPACE: u16 = 4 * VEC_MAX as u16;

    fn arb_steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec((0u8..10, 0u16..SPACE, 0u8..3), len)
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

    /// The chunk list's invariants: no chunk is empty or holds more than
    /// `VEC_MAX`, each is allocated at that capacity, each kept first
    /// element is its chunk's, elements ascend within and across chunks,
    /// and `len` counts them.
    fn check_chunks(live: &Live<u32>) -> TestCaseResult {
        let Live::Chunks(chunks) = live else {
            return Ok(());
        };
        let mut last = None;
        for chunk in &chunks.list {
            prop_assert!(!chunk.entries.is_empty());
            prop_assert!(chunk.entries.len() <= VEC_MAX, "{}", chunk.entries.len());
            prop_assert_eq!(chunk.entries.capacity(), VEC_MAX);
            prop_assert_eq!(chunk.first, chunk.entries[0].0);
            for &(e, _) in &chunk.entries {
                prop_assert!(last < Some(e), "{:?} then {}", last, e);
                last = Some(e);
            }
        }
        let held: usize = chunks.list.iter().map(|c| c.entries.len()).sum();
        prop_assert_eq!(chunks.len, held);
        Ok(())
    }

    /// One set under a property script, beside its model.
    #[derive(Default)]
    struct Run {
        set: AWSet<u32>,
        model: BTreeMap<u32, TagSet>,
        seq: u64,
        /// Conversions seen: vector to chunk list, and back.
        crossings: (usize, usize),
        /// The most members the set has held since it last became a vector.
        high_water: usize,
        /// The most members the set has held.
        peak: usize,
    }

    impl Run {
        /// Run `steps`, biased towards adds while `growing`, else towards
        /// removes. After every op the set must answer as the model does,
        /// a vector's capacity must be its high-water mark, and a chunk
        /// list must keep its invariants, cloned or not.
        fn phase(&mut self, steps: &[Step], growing: bool) -> Result<(), TestCaseError> {
            let mut snapshot = self.set.clone();
            for (i, &(kind, elem, replica)) in steps.iter().enumerate() {
                if i.is_multiple_of(16) {
                    snapshot = self.set.clone();
                    check_chunks(&snapshot.live)?;
                    prop_assert_eq!(&snapshot, &self.set);
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
                        Some(
                            set.prepare_remove_matching(&|e: &u32| {
                                e % modulus == u32::from(replica)
                            }),
                        )
                    }
                };
                let Some(op) = op else { continue };
                let was_chunks = matches!(self.set.live, Live::Chunks(_));
                self.set.apply(&op);
                apply_to_model(&mut self.model, &op);
                self.check(&op, was_chunks, i)?;
            }
            Ok(())
        }

        fn check(&mut self, op: &AWSetOp<u32>, was_chunks: bool, step: usize) -> TestCaseResult {
            let (set, model) = (&self.set, &self.model);
            prop_assert!(set.elements().eq(model.keys()));
            prop_assert_eq!(set.len(), model.len());
            self.peak = self.peak.max(set.len());
            // Ranges with every kind of bound, at bounds the step picks.
            let space = u32::from(SPACE) + 8;
            let (a, b) = (step as u32 * 37 % space, step as u32 * 91 % space);
            let (lo, hi) = (a.min(b), a.max(b));
            let ranges = [
                (Bound::Included(lo), Bound::Excluded(hi)),
                (Bound::Excluded(lo), Bound::Included(hi)),
                (Bound::Included(lo), Bound::Unbounded),
                (Bound::Unbounded, Bound::Included(hi)),
            ];
            for range in ranges {
                prop_assert!(set.range(range).eq(model.range(range).map(|(e, _)| e)));
                let n = model.range(range).count();
                prop_assert_eq!(set.live.range(range).size_hint(), (n, Some(n)));
            }
            let named: Vec<u32> = match op {
                AWSetOp::Add { elem, .. } => vec![*elem],
                AWSetOp::Remove { victims } => victims.iter().map(|(e, _)| *e).collect(),
            };
            // Every element the op named, and every eighth step the whole
            // element space.
            let sweep = if step.is_multiple_of(8) {
                0..SPACE
            } else {
                0..0
            };
            for e in named.into_iter().chain(sweep.map(u32::from)) {
                prop_assert_eq!(set.contains(&e), model.contains_key(&e));
                let expected = model.get(&e).into_iter().flat_map(TagSet::iter);
                prop_assert!(set.tags_of(&e).eq(expected));
            }
            match &set.live {
                Live::Vec(entries) => {
                    if was_chunks {
                        // Back below `VEC_MIN`, with no slack; a wildcard
                        // remove may have gone on shrinking it.
                        self.crossings.1 += 1;
                        self.high_water = VEC_MIN - 1;
                    }
                    self.high_water = self.high_water.max(entries.len());
                    prop_assert_eq!(entries.capacity(), self.high_water);
                    prop_assert!(entries.len() <= VEC_MAX);
                }
                Live::Chunks(chunks) => {
                    self.crossings.0 += usize::from(!was_chunks);
                    prop_assert!(chunks.len >= VEC_MIN);
                    check_chunks(&set.live)?;
                }
            }
            // Same members, possibly another representation: checked after
            // every op in the band where either can hold them, and every
            // eighth step below it.
            if model.len() <= VEC_MAX && (was_chunks || step.is_multiple_of(8)) {
                let fresh = rebuilt(model);
                prop_assert!(matches!(fresh.live, Live::Vec(_)));
                prop_assert_eq!(set, &fresh);
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Scripts that fill one set with every element of `SPACE` (four
        /// chunks) in ascending, descending or scattered order, churn it,
        /// and shrink it back below `VEC_MIN` by removes and wildcard
        /// removes: no lookup, iteration, length or comparison can tell
        /// which representation the set is in, and the chunk list keeps
        /// its invariants after every op.
        #[test]
        fn the_representation_cannot_be_seen(
            order in 0u8..3,
            grow in arb_steps(200..260),
            shrink in arb_steps(300..400),
        ) {
            let mut run = Run::default();
            let fill: Vec<Step> = (0..SPACE)
                .map(|i| match order {
                    0 => i,
                    1 => SPACE - 1 - i,
                    // A stride coprime to the space visits each once.
                    _ => i * 97 % SPACE,
                })
                .map(|e| (0, e, 0))
                .collect();
            run.phase(&fill, true)?;
            run.phase(&grow, true)?;
            run.phase(&shrink, false)?;
            if matches!(run.set.live, Live::Chunks(_)) {
                // Remove the smallest member until the set is a vector.
                run.phase(&vec![(2, 0, 0); run.set.len() + 1 - VEC_MIN], false)?;
            }
            prop_assert!(run.crossings.0 >= 1 && run.crossings.1 >= 1, "{:?}", run.crossings);
            prop_assert!(run.peak >= 3 * VEC_MAX, "{}", run.peak);
            prop_assert!(matches!(run.set.live, Live::Vec(_)));
            let fresh = rebuilt(&run.model);
            prop_assert_eq!(&run.set, &fresh);
            prop_assert_eq!(format!("{:?}", run.set), format!("{fresh:?}"));
        }
    }

    /// Ascending adds, then slides (add the next, remove the oldest),
    /// leave every chunk full but the first and the last.
    #[test]
    fn ascending_adds_and_slides_leave_chunks_full() {
        let mut s: AWSet<u32> = AWSet::new();
        let n = 16 * VEC_MAX as u32;
        for e in 0..n {
            s.apply(&s.prepare_add(e, tag(0, u64::from(e) + 1)));
        }
        for e in n..n + 3 * VEC_MAX as u32 / 2 {
            s.apply(&s.prepare_add(e, tag(0, u64::from(e) + 1)));
            let oldest = *s.elements().next().unwrap();
            s.apply(&s.prepare_remove(&oldest).unwrap());
            let Live::Chunks(chunks) = &s.live else {
                panic!("a vector of {}", s.len());
            };
            let inner = &chunks.list[1..chunks.list.len() - 1];
            assert!(inner.iter().all(Chunk::is_full), "after adding {e}");
        }
        assert_eq!(s.len(), n as usize);
    }

    /// Elements of mixed shapes: pairs and triples led by a few integers,
    /// and bare integers and strings around them in the order.
    fn mixed(i: u16) -> Val {
        let (a, b) = (i64::from(i % 7), i64::from(i / 7));
        match i % 5 {
            0 => Val::int(b),
            1 => Val::str(format!("s{a}")),
            2 => Val::triple(a, b, "x"),
            _ => Val::pair(a, b),
        }
    }

    /// Patterns that fix a leading component and patterns that do not.
    fn mixed_pattern(k: u8) -> ValPattern {
        use ValPattern::Any;
        let lead = || ValPattern::exact(i64::from(k / 8 % 8));
        let second = || ValPattern::exact(i64::from(k / 8 % 60));
        match k % 8 {
            0 => ValPattern::pair(lead(), Any),
            1 => ValPattern::pair(Any, second()),
            2 => ValPattern::triple(lead(), Any, Any),
            3 => ValPattern::pair(lead(), second()),
            4 => ValPattern::exact(mixed(u16::from(k) * 3)),
            5 => Any,
            6 => ValPattern::triple(Any, Any, ValPattern::exact("x")),
            _ => ValPattern::triple(lead(), second(), Any),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A wildcard remove reads the range its pattern leads when the
        /// pattern fixes its leading component: its victims are those of
        /// the walk that tests every member, in the same order, whether
        /// the set is a vector or a chunk list.
        #[test]
        fn wildcard_victims_are_the_filtered_walk(
            members in prop::collection::vec(0u16..420, 0..300),
        ) {
            let mut set = AWSet::new();
            for (i, &m) in members.iter().enumerate() {
                set.apply(&set.prepare_add(mixed(m), tag(0, i as u64 + 1)));
            }
            for k in 0..=u8::MAX {
                let pattern = mixed_pattern(k);
                let walked = set.prepare_remove_matching(&|e: &Val| pattern.matches(e));
                prop_assert_eq!(set.prepare_remove_matching(&pattern), walked, "{}", pattern);
            }
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
