//! Causal stability: the latest clock received from each origin, and the
//! frontier every future delivery dominates. CRDT metadata and log
//! entries at or below the frontier can be compacted. GC
//! (`Replica::run_gc`) reads one cached fold of it.
//!
//! Invariants enforced here, each with the test that checks it:
//!
//! 1. **The frontier is the restricted meet of `last_from`**: the
//!    pointwise minimum of the named replicas' clocks, components outside
//!    the set zeroed, a lone replica's clock verbatim
//!    (`stability_frontier_fold_equals_the_old_meet_chain`).
//! 2. **The cache is valid exactly while the epoch and the replica set
//!    are unchanged**: [`Stability::observe`] is the only writer of
//!    `last_from` and bumps the epoch, and a fold is reused only for the
//!    same `(epoch, set)` (`cached_frontier_refolds_only_on_clock_advance`,
//!    `gc_frontier_fold_is_event_driven`, `one_fold_serves_repeated_gc`).
//!    GC's own marker says whether it already compacted at that
//!    `(epoch, set)`, so a fold made before never stands in for a
//!    compaction (`a_fold_never_stands_in_for_a_compaction`,
//!    `gc_compacts_the_stable_tombstone`).

use crate::replica::ReplicaStats;
use ipa_crdt::{ReplicaId, VClock};
use std::collections::BTreeMap;

/// `(epoch, replica set)`: what a fold or a GC round was made at.
type At = (u64, Vec<ReplicaId>);

#[derive(Debug, Default)]
pub(crate) struct Stability {
    /// Latest received clock per origin, own commits included.
    last_from: BTreeMap<ReplicaId, VClock>,
    /// Bumped whenever a `last_from` clock advances.
    epoch: u64,
    /// The last fold.
    cache: Option<(At, VClock)>,
    /// The last GC round.
    compacted: Option<At>,
}

impl Stability {
    /// A batch from `origin` stamped `clock` applied here.
    pub(crate) fn observe(&mut self, origin: ReplicaId, clock: &VClock) {
        self.last_from
            .entry(origin)
            .and_modify(|c| c.merge(clock))
            .or_insert_with(|| clock.clone());
        self.epoch += 1;
    }

    /// The frontier over `replicas`, folded afresh: one pass over the
    /// dense component slices, no intermediate clock per replica.
    pub(crate) fn frontier(&self, replicas: &[ReplicaId]) -> VClock {
        let mut iter = replicas.iter();
        let Some(first) = iter.next() else {
            return VClock::new();
        };
        let first = self
            .last_from
            .get(first)
            .map(VClock::as_slice)
            .unwrap_or(&[]);
        if replicas.len() == 1 {
            // Single-replica frontier is that replica's clock verbatim
            // (the meet chain never restricted a lone clock).
            return VClock::from_raw(first.to_vec());
        }
        let mut mins = first.to_vec();
        for r in iter {
            let c = self.last_from.get(r).map(VClock::as_slice).unwrap_or(&[]);
            // A missing component is zero, so the min vector can only
            // shrink to the shorter slice.
            mins.truncate(c.len());
            if mins.is_empty() {
                return VClock::new();
            }
            for (m, &v) in mins.iter_mut().zip(c) {
                if v < *m {
                    *m = v;
                }
            }
        }
        // The meet chain only ever set components named in `replicas`;
        // zero everything else to preserve that restriction.
        let mut named = vec![false; mins.len()];
        for &r in replicas {
            if let Some(k) = named.get_mut(r.0 as usize) {
                *k = true;
            }
        }
        for (m, keep) in mins.iter_mut().zip(&named) {
            if !keep {
                *m = 0;
            }
        }
        VClock::from_raw(mins)
    }

    /// [`Stability::frontier`], re-folded only when a clock advanced or
    /// the replica set changed since the last fold.
    pub(crate) fn frontier_cached(
        &mut self,
        replicas: &[ReplicaId],
        stats: &mut ReplicaStats,
    ) -> &VClock {
        match &self.cache {
            Some((at, _)) if self.is_now(at, replicas) => stats.frontier_cache_hits += 1,
            _ => {
                let frontier = self.frontier(replicas);
                stats.frontier_folds += 1;
                self.cache = Some(((self.epoch, replicas.to_vec()), frontier));
            }
        }
        &self.cache.as_ref().expect("filled above").1
    }

    /// Record a GC round over `replicas`; false when the last one was over
    /// the same set at the same epoch. Nothing applied since then, so
    /// compacting again would change nothing.
    pub(crate) fn gc_due(&mut self, replicas: &[ReplicaId]) -> bool {
        match &self.compacted {
            Some(at) if self.is_now(at, replicas) => false,
            _ => {
                self.compacted = Some((self.epoch, replicas.to_vec()));
                true
            }
        }
    }

    fn is_now(&self, (epoch, set): &At, replicas: &[ReplicaId]) -> bool {
        *epoch == self.epoch && set == replicas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Replica;
    use ipa_crdt::{ObjectKind, Val};

    fn r(i: u16) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn stability_frontier_and_gc() {
        let replicas = [r(0), r(1)];
        let mut a = Replica::new(r(0));
        let mut b = Replica::new(r(1));
        // A adds then removes an element from a rem-wins set.
        let mut tx = a.begin();
        tx.ensure("rw", ObjectKind::RWSet).unwrap();
        tx.rw_add("rw", Val::str("x")).unwrap();
        tx.commit();
        let mut tx = a.begin();
        tx.rw_remove("rw", Val::str("x")).unwrap();
        tx.commit();
        for batch in a.take_outbox() {
            b.receive(batch);
        }
        // B acknowledges by committing (its batch clock covers A's ops).
        let mut tx = b.begin();
        tx.ensure("ack", ObjectKind::PNCounter).unwrap();
        tx.counter_add("ack", 1).unwrap();
        tx.commit();
        for batch in b.take_outbox() {
            a.receive(batch);
        }
        let frontier = a.stability_frontier(&replicas);
        assert!(
            frontier.get(r(0)) >= 2,
            "A's two commits are stable: {frontier}"
        );
        let before = a.object("rw").unwrap().as_rwset().unwrap().entry_count();
        assert_eq!(before, 2);
        a.run_gc(&replicas);
        let after = a.object("rw").unwrap().as_rwset().unwrap().entry_count();
        assert_eq!(after, 0, "decided add/remove pair compacted away");
        assert_eq!(a.stats.gc_runs, 1);
    }

    /// The pre-fold frontier: a chain of per-replica `meet` calls, each
    /// allocating an intermediate clock. Kept verbatim as the semantic
    /// reference for the dense-slice fold.
    fn stability_frontier_meet_chain(stability: &Stability, replicas: &[ReplicaId]) -> VClock {
        let mut frontier: Option<VClock> = None;
        for r in replicas {
            let c = stability.last_from.get(r).cloned().unwrap_or_default();
            frontier = Some(match frontier {
                None => c,
                Some(f) => f.meet(&c, replicas),
            });
        }
        frontier.unwrap_or_default()
    }

    #[test]
    fn stability_frontier_fold_equals_the_old_meet_chain() {
        // Exhaustive-ish pin: every shape the meet chain handled — empty
        // replica sets, missing last_from entries, clocks of different
        // lengths, components outside the replica set, duplicates in the
        // set, and the single-replica unrestricted quirk.
        let mut a = Stability::default();
        let clocks: &[&[u64]] = &[
            &[],
            &[3],
            &[2, 7],
            &[5, 1, 9],
            &[0, 4, 2, 8],
            &[1, 1, 1, 1, 6],
        ];
        for (i, c) in clocks.iter().enumerate() {
            a.last_from
                .insert(ReplicaId(i as u16), VClock::from_raw(c.to_vec()));
        }
        // Note r(9) has no last_from entry and r(4)'s clock names r(4)
        // itself — both shapes the chain floored or restricted away.
        let sets: &[&[ReplicaId]] = &[
            &[],
            &[r(0)],
            &[r(2)],
            &[r(9)],
            &[r(0), r(1)],
            &[r(1), r(2), r(3)],
            &[r(0), r(9)],
            &[r(3), r(4)],
            &[r(0), r(1), r(2), r(3), r(4)],
            &[r(2), r(2), r(0)],
            &[r(4), r(3), r(2), r(1), r(0), r(9)],
        ];
        for set in sets {
            assert_eq!(
                a.frontier(set),
                stability_frontier_meet_chain(&a, set),
                "frontier diverged from the meet chain for {set:?}"
            );
        }

        // Non-degenerate frontiers: every clock non-empty, so the fold
        // must reproduce real minima and drop exactly the components the
        // meet chain's restriction dropped.
        let mut b = Stability::default();
        for (i, c) in [[4u64, 5, 6], [2, 9, 3], [8, 1, 7]].iter().enumerate() {
            b.last_from
                .insert(ReplicaId(i as u16), VClock::from_raw(c.to_vec()));
        }
        for set in [
            &[r(0), r(1)][..],
            &[r(0), r(1), r(2)],
            &[r(2), r(0)],
            &[r(1)],
            &[r(0), r(1), r(2), r(3)],
        ] {
            let got = b.frontier(set);
            assert_eq!(
                got,
                stability_frontier_meet_chain(&b, set),
                "frontier diverged for {set:?}"
            );
            if set.len() == 2 && set.contains(&r(0)) && set.contains(&r(1)) {
                assert_eq!(
                    got,
                    VClock::from_raw(vec![2, 5]),
                    "component 2 must be dropped by the replica-set restriction"
                );
            }
        }
    }

    #[test]
    fn cached_frontier_refolds_only_on_clock_advance() {
        let (mut s, mut stats) = (Stability::default(), ReplicaStats::default());
        let replicas = [r(0), r(1)];
        s.observe(r(0), &VClock::from_raw(vec![1]));
        s.observe(r(1), &VClock::from_raw(vec![1, 1]));
        let first = s.frontier_cached(&replicas, &mut stats).clone();
        assert_eq!(first, s.frontier(&replicas));
        assert_eq!(stats.frontier_folds, 1);
        // No clock advanced: repeated reads hit the cache, no re-fold.
        for _ in 0..5 {
            assert_eq!(s.frontier_cached(&replicas, &mut stats), &first);
        }
        assert_eq!((stats.frontier_folds, stats.frontier_cache_hits), (1, 5));
        // A changed replica set re-folds.
        let solo = s.frontier_cached(&[r(0)], &mut stats).clone();
        assert_eq!(solo, s.frontier(&[r(0)]));
        assert_eq!(stats.frontier_folds, 2);
        // A clock advance re-folds on the next read.
        s.observe(r(0), &VClock::from_raw(vec![2, 1]));
        let after = s.frontier_cached(&replicas, &mut stats).clone();
        assert_eq!(after, s.frontier(&replicas));
        assert_eq!(stats.frontier_folds, 3);
    }

    #[test]
    fn a_fold_never_stands_in_for_a_compaction() {
        let (mut s, mut stats) = (Stability::default(), ReplicaStats::default());
        let replicas = [r(0), r(1)];
        s.observe(r(0), &VClock::from_raw(vec![1]));
        // A fold at the epoch GC is about to see leaves GC due.
        s.frontier_cached(&replicas, &mut stats);
        assert!(s.gc_due(&replicas));
        assert!(!s.gc_due(&replicas), "nothing applied since");
        s.observe(r(1), &VClock::from_raw(vec![1, 1]));
        assert!(s.gc_due(&replicas));
    }

    #[test]
    fn gc_frontier_fold_is_event_driven() {
        let replicas = [r(0), r(1)];
        let mut a = Replica::new(r(0));
        let mut b = Replica::new(r(1));
        let mut tx = a.begin();
        tx.ensure("rw", ObjectKind::RWSet).unwrap();
        tx.rw_add("rw", Val::str("x")).unwrap();
        tx.commit();
        for batch in a.take_outbox() {
            b.receive(batch);
        }
        let mut tx = b.begin();
        tx.ensure("ack", ObjectKind::PNCounter).unwrap();
        tx.counter_add("ack", 1).unwrap();
        tx.commit();
        for batch in b.take_outbox() {
            a.receive(batch);
        }
        a.run_gc(&replicas);
        assert_eq!(a.stats.gc_runs, 1);
        assert_eq!(a.stats.frontier_folds, 1);
        // Idle repeats keep the old gc_runs accounting but never re-fold:
        // no clock advanced, so the frontier cannot have moved.
        a.run_gc(&replicas);
        a.run_gc(&replicas);
        assert_eq!(a.stats.gc_runs, 3);
        assert_eq!(a.stats.frontier_folds, 1);
        // A different replica set is a different fold input.
        a.run_gc(&[r(0)]);
        assert_eq!(a.stats.frontier_folds, 2);
        // A new delivery advances a clock and re-arms the fold.
        let mut tx = b.begin();
        tx.counter_add("ack", 1).unwrap();
        tx.commit();
        for batch in b.take_outbox() {
            a.receive(batch);
        }
        a.run_gc(&replicas);
        assert_eq!(a.stats.frontier_folds, 3);
    }

    /// Two replicas where `a` committed an add and a remove of `x` in a
    /// rem-wins set and `b` acknowledged both, so both are stable at `a`.
    fn stable_tombstone() -> Replica {
        let mut a = Replica::new(r(0));
        let mut b = Replica::new(r(1));
        let mut tx = a.begin();
        tx.ensure("rw", ObjectKind::RWSet).unwrap();
        tx.rw_add("rw", Val::str("x")).unwrap();
        tx.commit();
        let mut tx = a.begin();
        tx.rw_remove("rw", Val::str("x")).unwrap();
        tx.commit();
        for batch in a.take_outbox() {
            b.receive(batch);
        }
        let mut tx = b.begin();
        tx.ensure("ack", ObjectKind::PNCounter).unwrap();
        tx.counter_add("ack", 1).unwrap();
        tx.commit();
        for batch in b.take_outbox() {
            a.receive(batch);
        }
        a
    }

    #[test]
    fn one_fold_serves_repeated_gc() {
        let replicas = [r(0), r(1)];
        let mut a = stable_tombstone();
        for _ in 0..3 {
            a.run_gc(&replicas);
        }
        assert_eq!(a.stats.frontier_folds, 1, "one fold for every round");
        assert_eq!(a.stats.frontier_cache_hits, 2);
        assert_eq!(a.stats.gc_runs, 3);
        // A clock advance invalidates it: the next round re-folds.
        let mut tx = a.begin();
        tx.counter_add("ack", 1).unwrap();
        tx.commit();
        a.run_gc(&replicas);
        assert_eq!(a.stats.frontier_folds, 2);
    }

    #[test]
    fn gc_compacts_the_stable_tombstone() {
        let replicas = [r(0), r(1)];
        let mut a = stable_tombstone();
        let log_len = a.log_len();
        let frontier = a.stability_frontier(&replicas);
        assert!(frontier.get(r(0)) >= 2, "the remove is stable: {frontier}");
        a.run_gc(&replicas);
        let tombstones = a.object("rw").unwrap().as_rwset().unwrap().entry_count();
        assert_eq!(tombstones, 0, "the stable tombstone is compacted");
        assert!(a.log_len() < log_len, "the stable log prefix is dropped");
        assert_eq!(a.stats.gc_runs, 1);
    }
}
