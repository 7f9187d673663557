//! Add-wins map with `touch` (§4.2.1).
//!
//! Keys have add-wins presence (tags, like [`crate::AWSet`]); each key owns
//! a payload register. Removing a key clears its presence tags but **keeps
//! the payload**, so a later `touch` — "an add for determining if the
//! element is in the collection, but preserving the information that was
//! associated with the entity" — restores the entry with its old data.
//! Payloads of removed keys are garbage-collected once causally stable.

use crate::clock::VClock;
use crate::lww::{LWWOp, LWWRegister};
use crate::tag::Tag;
use crate::tagset::TagSet;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::RangeBounds;

/// Per-key entry: presence tags + payload + last-modification clock
/// (for stability-based payload GC).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Entry<V: Clone> {
    tags: TagSet,
    payload: LWWRegister<V>,
    last_clock: VClock,
}

impl<V: Clone> Default for Entry<V> {
    fn default() -> Self {
        Entry {
            tags: TagSet::default(),
            payload: LWWRegister::new(),
            last_clock: VClock::new(),
        }
    }
}

/// Operation-based add-wins map with payload-preserving touch.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AWMap<K: Ord + Clone, V: Clone + PartialEq> {
    entries: BTreeMap<K, Entry<V>>,
}

impl<K: Ord + Clone, V: Clone + PartialEq> Default for AWMap<K, V> {
    fn default() -> Self {
        AWMap {
            entries: BTreeMap::new(),
        }
    }
}

/// Effect operations.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AWMapOp<K, V> {
    /// Add/touch the key (presence) and optionally write the payload.
    Put {
        key: K,
        tag: Tag,
        clock: VClock,
        write: Option<LWWOp<V>>,
    },
    /// Remove observed presence tags (payload is retained for touch).
    Remove {
        key: K,
        observed: TagSet,
        clock: VClock,
    },
}

impl<K: Ord + Clone, V: Clone + PartialEq> AWMap<K, V> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn contains(&self, k: &K) -> bool {
        self.entries.get(k).is_some_and(|e| !e.tags.is_empty())
    }

    /// The payload of a key. Visible only while the key is present.
    pub fn get(&self, k: &K) -> Option<&V> {
        let e = self.entries.get(k)?;
        if e.tags.is_empty() {
            return None;
        }
        e.payload.get()
    }

    /// The retained payload of a key even if removed (what touch would
    /// restore).
    pub fn latent_payload(&self, k: &K) -> Option<&V> {
        self.entries.get(k)?.payload.get()
    }

    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.range(..)
    }

    /// The present keys within `range`, in key order: what
    /// [`AWMap::keys`] yields there, from a B-tree range of the entries.
    pub fn range(&self, range: impl RangeBounds<K>) -> impl Iterator<Item = &K> {
        self.entries
            .range(range)
            .filter(|(_, e)| !e.tags.is_empty())
            .map(|(k, _)| k)
    }

    /// A walk of the entries: a removed key keeps its latent payload.
    pub fn len(&self) -> usize {
        self.entries.values().filter(|e| !e.tags.is_empty()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy `k`'s entry (presence tags, payload — latent or visible — and
    /// last-modification clock) into `into`, a partial copy of this map:
    /// `into` then answers for `k` exactly as `self` does. Returns whether
    /// there was an entry.
    pub fn copy_entry(&self, k: &K, into: &mut Self) -> bool {
        match self.entries.get(k) {
            Some(entry) => {
                into.entries.insert(k.clone(), entry.clone());
                true
            }
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Prepare
    // ------------------------------------------------------------------

    /// Prepare an insert/update: presence + payload write.
    pub fn prepare_put(&self, key: K, tag: Tag, clock: VClock, ts: u64, value: V) -> AWMapOp<K, V> {
        AWMapOp::Put {
            key,
            tag,
            clock,
            write: Some(LWWOp { ts, tag, value }),
        }
    }

    /// Prepare a `touch`: restore presence, keep whatever payload exists
    /// (paper §4.2.1 — used instead of an add when the analysis adds a
    /// restoring effect to an operation).
    pub fn prepare_touch(&self, key: K, tag: Tag, clock: VClock) -> AWMapOp<K, V> {
        AWMapOp::Put {
            key,
            tag,
            clock,
            write: None,
        }
    }

    /// Prepare a remove of the observed presence tags.
    pub fn prepare_remove(&self, key: &K, clock: VClock) -> Option<AWMapOp<K, V>> {
        let e = self.entries.get(key)?;
        if e.tags.is_empty() {
            return None;
        }
        Some(AWMapOp::Remove {
            key: key.clone(),
            observed: e.tags.clone(),
            clock,
        })
    }

    // ------------------------------------------------------------------
    // Apply
    // ------------------------------------------------------------------

    pub fn apply(&mut self, op: &AWMapOp<K, V>) {
        match op {
            AWMapOp::Put {
                key,
                tag,
                clock,
                write,
            } => {
                // Look up first: a put on a present key clones nothing.
                let e = match self.entries.get_mut(key) {
                    Some(e) => e,
                    None => self.entries.entry(key.clone()).or_default(),
                };
                e.tags.insert(*tag);
                e.last_clock.merge(clock);
                if let Some(w) = write {
                    e.payload.apply(w);
                }
            }
            AWMapOp::Remove {
                key,
                observed,
                clock,
            } => {
                if let Some(e) = self.entries.get_mut(key) {
                    observed.iter().for_each(|t| e.tags.remove(t));
                    e.last_clock.merge(clock);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    /// Drop retained payloads of removed keys whose last modification is
    /// causally stable: no in-flight touch can still restore them
    /// (paper §4.2.1 — "keeping removed elements and using SwiftCloud
    /// stability information for garbage-collection").
    pub fn compact(&mut self, stable: &VClock) {
        self.entries
            .retain(|_, e| !e.tags.is_empty() || !e.last_clock.le(stable));
    }

    /// Total entries including retained tombstone payloads.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
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

    #[test]
    fn put_get_remove() {
        let mut m: AWMap<&'static str, i64> = AWMap::new();
        m.apply(&m.prepare_put("alice", tag(0, 1), clock(&[(0, 1)]), 1, 100));
        assert_eq!(m.get(&"alice"), Some(&100));
        let rm = m.prepare_remove(&"alice", clock(&[(0, 2)])).unwrap();
        m.apply(&rm);
        assert!(!m.contains(&"alice"));
        assert_eq!(m.get(&"alice"), None);
    }

    #[test]
    fn touch_restores_payload_after_remove() {
        let mut m: AWMap<&'static str, i64> = AWMap::new();
        m.apply(&m.prepare_put("alice", tag(0, 1), clock(&[(0, 1)]), 1, 100));
        let rm = m.prepare_remove(&"alice", clock(&[(0, 2)])).unwrap();
        m.apply(&rm);
        assert_eq!(m.latent_payload(&"alice"), Some(&100), "payload retained");
        // Touch (e.g. the analysis-added restore effect of ensureEnroll).
        m.apply(&m.prepare_touch("alice", tag(1, 1), clock(&[(0, 2), (1, 1)])));
        assert!(m.contains(&"alice"));
        assert_eq!(m.get(&"alice"), Some(&100), "old payload visible again");
    }

    #[test]
    fn range_yields_the_present_keys_in_it() {
        let mut m: AWMap<u32, i64> = AWMap::new();
        for k in 0..10u32 {
            m.apply(&m.prepare_put(k, tag(0, u64::from(k) + 1), clock(&[(0, 1)]), 1, 0));
        }
        for k in [3, 4, 8] {
            m.apply(&m.prepare_remove(&k, clock(&[(0, 2)])).unwrap());
        }
        assert!(m.range(2..=8).eq(&[2, 5, 6, 7]));
        assert!(m.range(..).eq(m.keys()));
        assert_eq!(
            m.range(4..5).count(),
            0,
            "a removed key keeps only its payload"
        );
    }

    #[test]
    fn concurrent_touch_wins_over_remove() {
        let mut a: AWMap<&'static str, i64> = AWMap::new();
        let put = a.prepare_put("x", tag(0, 1), clock(&[(0, 1)]), 1, 7);
        a.apply(&put);
        let mut b = a.clone();
        let rm = a.prepare_remove(&"x", clock(&[(0, 2)])).unwrap();
        let touch = b.prepare_touch("x", tag(1, 1), clock(&[(0, 1), (1, 1)]));
        a.apply(&rm);
        a.apply(&touch);
        b.apply(&touch);
        b.apply(&rm);
        assert_eq!(a, b);
        assert!(a.contains(&"x"), "touch's fresh tag survives the remove");
        assert_eq!(a.get(&"x"), Some(&7));
    }

    #[test]
    fn two_tags_shrinking_to_one_compare_equal_in_any_order() {
        // A put, a concurrent touch, and a remove that observed only the
        // put: every causal order must leave the same one-tag entry,
        // whether it passed through two tags or through none.
        let mut a: AWMap<&'static str, i64> = AWMap::new();
        let put = a.prepare_put("x", tag(0, 1), clock(&[(0, 1)]), 1, 7);
        a.apply(&put);
        let rm = a.prepare_remove(&"x", clock(&[(0, 2)])).unwrap();
        let touch = a.prepare_touch("x", tag(1, 1), clock(&[(1, 1)]));

        let replay = |order: [&AWMapOp<&'static str, i64>; 3]| {
            let mut m = AWMap::new();
            order.into_iter().for_each(|op| m.apply(op));
            m
        };
        let grew_then_shrank = replay([&put, &touch, &rm]);
        let grew_the_other_way = replay([&touch, &put, &rm]);
        let emptied_then_refilled = replay([&put, &rm, &touch]);
        assert_eq!(grew_then_shrank, grew_the_other_way);
        assert_eq!(grew_then_shrank, emptied_then_refilled);
        assert_eq!(grew_then_shrank.get(&"x"), Some(&7));
    }

    #[test]
    fn compact_drops_stable_tombstones_only() {
        let mut m: AWMap<&'static str, i64> = AWMap::new();
        m.apply(&m.prepare_put("gone", tag(0, 1), clock(&[(0, 1)]), 1, 1));
        m.apply(&m.prepare_put("kept", tag(0, 2), clock(&[(0, 2)]), 2, 2));
        let rm = m.prepare_remove(&"gone", clock(&[(0, 3)])).unwrap();
        m.apply(&rm);
        assert_eq!(m.entry_count(), 2);
        // Not yet stable: tombstone retained.
        m.compact(&clock(&[(0, 2)]));
        assert_eq!(m.entry_count(), 2);
        // Stable: tombstone dropped, live key kept.
        m.compact(&clock(&[(0, 3)]));
        assert_eq!(m.entry_count(), 1);
        assert!(m.contains(&"kept"));
        assert_eq!(m.latent_payload(&"gone"), None);
    }

    #[test]
    fn lww_payload_converges_across_orders() {
        let w1 = AWMapOp::Put {
            key: "k",
            tag: tag(0, 1),
            clock: clock(&[(0, 1)]),
            write: Some(crate::lww::LWWOp {
                ts: 1,
                tag: tag(0, 1),
                value: 10,
            }),
        };
        let w2 = AWMapOp::Put {
            key: "k",
            tag: tag(1, 1),
            clock: clock(&[(1, 1)]),
            write: Some(crate::lww::LWWOp {
                ts: 2,
                tag: tag(1, 1),
                value: 20,
            }),
        };
        let mut a: AWMap<&'static str, i64> = AWMap::new();
        let mut b: AWMap<&'static str, i64> = AWMap::new();
        a.apply(&w1);
        a.apply(&w2);
        b.apply(&w2);
        b.apply(&w1);
        assert_eq!(a, b);
        assert_eq!(a.get(&"k"), Some(&20));
    }
}
