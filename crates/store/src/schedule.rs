//! Schedule exploration: seeded sampling and bounded enumeration of
//! causally-consistent delivery interleavings.
//!
//! Weak-consistency bugs hide in *which* causal order a replica happens
//! to apply updates in. This module makes that order a first-class,
//! replayable artifact: a [`Schedule`] is fully determined by its seed,
//! so any failing interleaving reproduces bit-for-bit from one integer.
//! It replaces the ad-hoc "two random orders" shuffles the test suite
//! grew up with:
//!
//! * [`Schedule::sample_order`] — one causally-consistent permutation of
//!   an op/batch log, sampled uniformly-ish from the seed.
//! * [`Schedule::enumerate_orders`] — *all* causal interleavings of a
//!   small log (bounded), for exhaustive checks.
//! * [`Schedule::run`] — drive a [`Cluster`]'s in-flight traffic to
//!   quiescence in a seeded hostile order, with per-batch drop and
//!   duplicate faults, then repair through anti-entropy.

use crate::batch::UpdateBatch;
use crate::cluster::Cluster;
use ipa_crdt::{ReplicaId, VClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Anything with a causal position: an origin replica and the vector
/// clock of its commit. Implemented for [`UpdateBatch`]; test harnesses
/// implement it for their own op-log entry types.
pub trait CausalItem {
    fn origin(&self) -> ReplicaId;
    fn clock(&self) -> &VClock;
}

impl CausalItem for UpdateBatch {
    fn origin(&self) -> ReplicaId {
        self.origin
    }
    fn clock(&self) -> &VClock {
        &self.clock
    }
}

impl<T: CausalItem> CausalItem for Arc<T> {
    fn origin(&self) -> ReplicaId {
        (**self).origin()
    }
    fn clock(&self) -> &VClock {
        (**self).clock()
    }
}

impl<T: CausalItem> CausalItem for &T {
    fn origin(&self) -> ReplicaId {
        (**self).origin()
    }
    fn clock(&self) -> &VClock {
        (**self).clock()
    }
}

/// Standard causal-delivery condition: item `i` is deliverable once its
/// origin component is the next expected and every other component is
/// already covered.
fn deliverable<T: CausalItem>(item: &T, delivered: &VClock) -> bool {
    item.clock().deliverable_from(item.origin(), delivered)
}

/// Per-batch transport faults applied while [`Schedule::run`] drains a
/// cluster. Dropped batches are repaired by the closing anti-entropy
/// pass; duplicates must be absorbed by idempotent delivery.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeliveryFaults {
    /// Probability an in-flight batch is dropped instead of delivered.
    pub drop_p: f64,
    /// Probability an in-flight batch is delivered twice.
    pub dup_p: f64,
}

impl DeliveryFaults {
    pub fn none() -> DeliveryFaults {
        DeliveryFaults::default()
    }
}

/// What one [`Schedule::run`] did — counts plus an order digest, so two
/// runs from the same seed can be asserted identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleReport {
    pub delivered: usize,
    pub dropped: usize,
    pub duplicated: usize,
    /// FNV-1a over the (dest, origin, seq, action) event stream.
    pub digest: u64,
}

/// A seeded, replayable delivery schedule.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    seed: u64,
}

impl Schedule {
    pub fn from_seed(seed: u64) -> Schedule {
        Schedule { seed }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sample one causally-consistent permutation of `log`, returned as
    /// indices into `log`. Panics if the log is not causally closed
    /// (some item's predecessors are missing).
    pub fn sample_order<T: CausalItem>(&self, log: &[T]) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut delivered = VClock::new();
        let mut remaining: Vec<usize> = (0..log.len()).collect();
        let mut out = Vec::with_capacity(log.len());
        while !remaining.is_empty() {
            let ready: Vec<usize> = (0..remaining.len())
                .filter(|&i| deliverable(&log[remaining[i]], &delivered))
                .collect();
            assert!(
                !ready.is_empty(),
                "schedule deadlock: log is not causally closed"
            );
            let pick = ready[rng.gen_range(0..ready.len())];
            let idx = remaining.swap_remove(pick);
            delivered.merge(log[idx].clock());
            out.push(idx);
        }
        out
    }

    /// Enumerate causally-consistent permutations of `log` depth-first,
    /// stopping after `limit` complete orders. With a large enough limit
    /// this is *every* reachable delivery interleaving of the log.
    pub fn enumerate_orders<T: CausalItem>(log: &[T], limit: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut prefix = Vec::with_capacity(log.len());
        let mut used = vec![false; log.len()];
        let mut delivered = VClock::new();
        enumerate_rec(log, &mut used, &mut delivered, &mut prefix, &mut out, limit);
        out
    }

    /// Drain every outbox and all in-flight traffic of `cluster` in a
    /// seeded hostile order: batches are picked at random (reordering),
    /// dropped or duplicated per `faults`, and finally repaired through
    /// anti-entropy so the cluster ends quiescent and causally complete.
    pub fn run(&self, cluster: &mut Cluster, faults: DeliveryFaults) -> ScheduleReport {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut report = ScheduleReport {
            delivered: 0,
            dropped: 0,
            duplicated: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        };
        cluster.collect_outboxes();
        while cluster.in_flight_count() > 0 {
            let idx = rng.gen_range(0..cluster.in_flight_count());
            let (dest, origin, seq) = cluster.in_flight_meta_at(idx).expect("index in range");
            if rng.gen_bool(faults.drop_p) {
                cluster.drop_in_flight(idx);
                report.dropped += 1;
                report.digest = fnv_event(report.digest, dest, origin, seq, 0);
            } else {
                let dup = rng.gen_bool(faults.dup_p);
                if dup {
                    cluster.duplicate_in_flight(idx);
                    report.duplicated += 1;
                }
                cluster.deliver_in_flight(idx);
                report.delivered += 1;
                report.digest = fnv_event(report.digest, dest, origin, seq, 1);
                if dup {
                    // `duplicate_in_flight` pushed the copy last and
                    // `deliver_in_flight`'s swap_remove moved it into
                    // `idx`: deliver it immediately rather than
                    // re-queueing (a re-queued copy could itself be
                    // duplicated, so dup_p = 1.0 would never drain).
                    cluster.deliver_in_flight(idx);
                }
            }
            // Deliveries never commit, but keep the pickup loop anyway so
            // the schedule also covers clusters mutated mid-run.
            cluster.collect_outboxes();
        }
        cluster.anti_entropy_to_fixpoint();
        report
    }
}

fn enumerate_rec<T: CausalItem>(
    log: &[T],
    used: &mut Vec<bool>,
    delivered: &mut VClock,
    prefix: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
    limit: usize,
) {
    if out.len() >= limit {
        return;
    }
    if prefix.len() == log.len() {
        out.push(prefix.clone());
        return;
    }
    for i in 0..log.len() {
        if used[i] || !deliverable(&log[i], delivered) {
            continue;
        }
        used[i] = true;
        let saved = delivered.clone();
        delivered.merge(log[i].clock());
        prefix.push(i);
        enumerate_rec(log, used, delivered, prefix, out, limit);
        prefix.pop();
        *delivered = saved;
        used[i] = false;
        if out.len() >= limit {
            return;
        }
    }
}

fn fnv_event(mut h: u64, dest: ReplicaId, origin: ReplicaId, seq: u64, action: u64) -> u64 {
    for word in [u64::from(dest.0), u64::from(origin.0), seq, action] {
        h ^= word;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::{ObjectKind, Val};

    struct Item {
        origin: ReplicaId,
        clock: VClock,
    }

    impl CausalItem for Item {
        fn origin(&self) -> ReplicaId {
            self.origin
        }
        fn clock(&self) -> &VClock {
            &self.clock
        }
    }

    fn item(origin: u16, entries: &[(u16, u64)]) -> Item {
        Item {
            origin: ReplicaId(origin),
            clock: entries.iter().map(|&(r, v)| (ReplicaId(r), v)).collect(),
        }
    }

    /// Two independent single-op chains at replicas 0 and 1.
    fn concurrent_log() -> Vec<Item> {
        vec![item(0, &[(0, 1)]), item(1, &[(1, 1)])]
    }

    #[test]
    fn sample_order_is_causal_and_deterministic() {
        // r0 commits twice; r1 commits having seen r0's first.
        let log = vec![
            item(0, &[(0, 1)]),
            item(0, &[(0, 2)]),
            item(1, &[(0, 1), (1, 1)]),
        ];
        for seed in 0..50 {
            let order = Schedule::from_seed(seed).sample_order(&log);
            let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
            assert!(pos(0) < pos(1), "r0's commits stay in origin order");
            assert!(pos(0) < pos(2), "causal dependency respected");
        }
        let a = Schedule::from_seed(7).sample_order(&log);
        let b = Schedule::from_seed(7).sample_order(&log);
        assert_eq!(a, b, "replay from seed");
    }

    #[test]
    fn sample_covers_both_orders_of_a_concurrent_pair() {
        let log = concurrent_log();
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..32 {
            seen.insert(Schedule::from_seed(seed).sample_order(&log));
        }
        assert_eq!(seen.len(), 2, "both interleavings reachable: {seen:?}");
    }

    #[test]
    fn enumerate_lists_every_causal_order() {
        // Two concurrent pairs: 0a,0b || 1a — orders = C(3,1) positions
        // for 1a among the fixed 0a<0b chain = 3.
        let log = vec![item(0, &[(0, 1)]), item(0, &[(0, 2)]), item(1, &[(1, 1)])];
        let orders = Schedule::enumerate_orders(&log, 100);
        assert_eq!(orders.len(), 3);
        for o in &orders {
            let pos = |i: usize| o.iter().position(|&x| x == i).unwrap();
            assert!(pos(0) < pos(1));
        }
        // The limit bounds the enumeration.
        assert_eq!(Schedule::enumerate_orders(&log, 2).len(), 2);
    }

    #[test]
    fn run_with_faults_still_converges() {
        let mut cluster = Cluster::new(3);
        for i in 0..3u16 {
            for k in 0..5 {
                let r = cluster.replica_mut(ReplicaId(i));
                let mut tx = r.begin();
                tx.ensure("set", ObjectKind::AWSet).unwrap();
                tx.aw_add("set", Val::str(format!("{i}-{k}"))).unwrap();
                tx.commit();
            }
        }
        let faults = DeliveryFaults {
            drop_p: 0.3,
            dup_p: 0.3,
        };
        let report = Schedule::from_seed(42).run(&mut cluster, faults);
        assert!(report.dropped > 0, "hostile schedule actually dropped");
        assert!(cluster.converged(), "anti-entropy repaired the drops");
        for i in 0..3u16 {
            let n = cluster
                .replica(ReplicaId(i))
                .object("set")
                .unwrap()
                .as_awset()
                .unwrap()
                .len();
            assert_eq!(n, 15, "replica {i} has every element");
            assert!(
                cluster.replica(ReplicaId(i)).applied_consistent(),
                "duplicates must not double-apply"
            );
        }
    }

    /// Regression: dup_p = 1.0 must terminate — a re-queued duplicate
    /// could itself be duplicated forever, so copies deliver immediately.
    #[test]
    fn run_terminates_at_full_duplication() {
        let mut cluster = Cluster::new(3);
        for i in 0..3u16 {
            let r = cluster.replica_mut(ReplicaId(i));
            let mut tx = r.begin();
            tx.ensure("c", ObjectKind::PNCounter).unwrap();
            tx.counter_add("c", 1).unwrap();
            tx.commit();
        }
        let faults = DeliveryFaults {
            drop_p: 0.0,
            dup_p: 1.0,
        };
        let report = Schedule::from_seed(5).run(&mut cluster, faults);
        assert_eq!(report.duplicated, report.delivered);
        assert!(cluster.converged());
        for i in 0..3u16 {
            assert!(cluster.replica(ReplicaId(i)).applied_consistent());
        }
    }

    #[test]
    fn run_report_replays_from_seed() {
        let build = || {
            let mut cluster = Cluster::new(3);
            for i in 0..3u16 {
                let r = cluster.replica_mut(ReplicaId(i));
                let mut tx = r.begin();
                tx.ensure("c", ObjectKind::PNCounter).unwrap();
                tx.counter_add("c", 1).unwrap();
                tx.commit();
            }
            cluster
        };
        let faults = DeliveryFaults {
            drop_p: 0.2,
            dup_p: 0.2,
        };
        let a = Schedule::from_seed(9).run(&mut build(), faults);
        let b = Schedule::from_seed(9).run(&mut build(), faults);
        let c = Schedule::from_seed(10).run(&mut build(), faults);
        assert_eq!(a, b, "same seed ⇒ identical schedule and verdict");
        assert_ne!(a.digest, c.digest, "different seed ⇒ different schedule");
    }
}
