//! The causal buffer: remote batches that arrived ahead of a causal
//! predecessor, held until the applied clock makes them deliverable.
//! Indexed by `(origin, seq)`, so duplicate detection is O(1) and finding
//! the next deliverable batch is O(origins).
//!
//! Invariants enforced here, each with the test that checks it:
//!
//! 1. **Nothing applies ahead of the clock**: [`CausalBuffer::next_ready`]
//!    hands out only a batch deliverable at the clock it is given
//!    (`out_of_order_batches_are_buffered`,
//!    `causal_chain_across_three_replicas`).
//! 2. **One copy per `(origin, seq)`**: `insert` refuses a second copy
//!    and `purge_covered` drops copies the clock already covers
//!    (`duplicate_of_buffered_batch_is_indexed_out`).
//! 3. **The buffer is volatile across a crash**: `clear` empties it, and
//!    the durable log and anti-entropy restore what it held
//!    (`tests/anti_entropy_cursors.rs::crash_mid_pull_recovers_through_later_rounds`).
//!
//! Among ready batches the first by buffer position applies first, and
//! removal is swap-remove: the schedule digests pin this order.

use crate::batch::UpdateBatch;
use crate::hash::FastMap;
use ipa_crdt::{ReplicaId, VClock};
use std::sync::Arc;

const AGREE: &str = "order and index agree";

/// A buffered batch and its current position in the order vector.
#[derive(Debug)]
struct Slot {
    pos: usize,
    batch: Arc<UpdateBatch>,
}

#[derive(Debug, Default)]
pub(crate) struct CausalBuffer {
    slots: FastMap<(ReplicaId, u64), Slot>,
    /// The buffer's positional order.
    order: Vec<(ReplicaId, u64)>,
    /// Buffered batches per origin id: only origins with something
    /// waiting are probed.
    per_origin: Vec<u32>,
}

impl CausalBuffer {
    /// Buffer `batch`; false when a copy of its `(origin, seq)` is
    /// already held.
    pub(crate) fn insert(&mut self, batch: Arc<UpdateBatch>) -> bool {
        let key = (batch.origin, batch.seq);
        if self.slots.contains_key(&key) {
            return false;
        }
        let o = batch.origin.0 as usize;
        if o >= self.per_origin.len() {
            self.per_origin.resize(o + 1, 0);
        }
        self.per_origin[o] += 1;
        self.order.push(key);
        let pos = self.order.len() - 1;
        self.slots.insert(key, Slot { pos, batch });
        true
    }

    /// Remove and return the buffered batch deliverable at `clock`, if
    /// any. Only one batch per origin can be: the one whose sequence is
    /// next after `clock`'s. Those are probed; among the ready ones the
    /// first by position wins.
    pub(crate) fn next_ready(&mut self, clock: &VClock) -> Option<Arc<UpdateBatch>> {
        let mut next: Option<usize> = None;
        for (o, &count) in self.per_origin.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let origin = ReplicaId(o as u16);
            if let Some(slot) = self.slots.get(&(origin, clock.get(origin) + 1)) {
                if slot.batch.clock.deliverable_from(origin, clock)
                    && next.is_none_or(|p| slot.pos < p)
                {
                    next = Some(slot.pos);
                }
            }
        }
        let pos = next?;
        let key = self.order.swap_remove(pos);
        if let Some(moved) = self.order.get(pos) {
            self.slots.get_mut(moved).expect(AGREE).pos = pos;
        }
        self.per_origin[key.0 .0 as usize] -= 1;
        Some(self.slots.remove(&key).expect(AGREE).batch)
    }

    /// Drop buffered copies whose content arrived through another path
    /// (a duplicate, an anti-entropy pull): a batch is stale exactly when
    /// `clock` covers its sequence.
    pub(crate) fn purge_covered(&mut self, clock: &VClock) {
        let CausalBuffer {
            slots,
            order,
            per_origin,
        } = self;
        let before = order.len();
        order.retain(|&(origin, seq)| {
            let stale = seq <= clock.get(origin);
            if stale {
                slots.remove(&(origin, seq));
                per_origin[origin.0 as usize] -= 1;
            }
            !stale
        });
        // `retain` keeps positional order, so only a drop moves a slot.
        if order.len() < before {
            for (pos, key) in order.iter().enumerate() {
                slots.get_mut(key).expect(AGREE).pos = pos;
            }
        }
    }

    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.order.clear();
        self.per_origin.fill(0);
    }

    /// `(origin, seq)` of every buffered batch, in positional order.
    pub(crate) fn ids(&self) -> &[(ReplicaId, u64)] {
        &self.order
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::Replica;
    use ipa_crdt::{ObjectKind, ReplicaId, Val};
    use std::sync::Arc;

    fn r(i: u16) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn out_of_order_batches_are_buffered() {
        let mut a = Replica::new(r(0));
        let mut b = Replica::new(r(1));
        // Two commits at A.
        for v in ["x", "y"] {
            let mut tx = a.begin();
            tx.ensure("set", ObjectKind::AWSet).unwrap();
            tx.aw_add("set", Val::str(v)).unwrap();
            tx.commit();
        }
        let mut batches = a.take_outbox();
        assert_eq!(batches.len(), 2);
        let second = batches.pop().unwrap();
        let first = batches.pop().unwrap();
        // Deliver out of order: the second buffers, then both apply.
        assert_eq!(b.receive(second), 0);
        assert_eq!(b.pending_count(), 1);
        assert_eq!(b.receive(first), 2);
        assert_eq!(b.pending_count(), 0);
        let obj = b.object("set").unwrap();
        assert!(obj.set_contains(&Val::str("x")).unwrap());
        assert!(obj.set_contains(&Val::str("y")).unwrap());
    }

    #[test]
    fn duplicate_of_buffered_batch_is_indexed_out() {
        let mut a = Replica::new(r(0));
        let mut b = Replica::new(r(1));
        for v in ["x", "y"] {
            let mut tx = a.begin();
            tx.ensure("set", ObjectKind::AWSet).unwrap();
            tx.aw_add("set", Val::str(v)).unwrap();
            tx.commit();
        }
        let mut batches = a.take_outbox();
        let second = batches.pop().unwrap();
        let first = batches.pop().unwrap();
        // Buffer the out-of-order batch, then redeliver the same copy.
        assert_eq!(b.receive(Arc::clone(&second)), 0);
        assert_eq!(b.receive(Arc::clone(&second)), 0, "buffered duplicate");
        assert_eq!(b.pending_count(), 1, "the duplicate was not re-buffered");
        assert_eq!(b.receive(first), 2);
        assert!(b.applied_consistent());
    }

    #[test]
    fn causal_chain_across_three_replicas() {
        // A writes, B reads A's write and writes, C must see them in order.
        let mut a = Replica::new(r(0));
        let mut b = Replica::new(r(1));
        let mut c = Replica::new(r(2));

        let mut tx = a.begin();
        tx.ensure("reg", ObjectKind::LWW).unwrap();
        tx.lww_write("reg", Val::int(1)).unwrap();
        tx.commit();
        let batch_a = a.take_outbox().pop().unwrap();
        b.receive(batch_a.clone());

        let mut tx = b.begin();
        tx.ensure("reg", ObjectKind::LWW).unwrap();
        tx.lww_write("reg", Val::int(2)).unwrap();
        tx.commit();
        let batch_b = b.take_outbox().pop().unwrap();

        // C receives B's batch first: it depends causally on A's.
        assert_eq!(c.receive(batch_b), 0);
        assert_eq!(c.pending_count(), 1);
        assert_eq!(c.receive(batch_a), 2);
        assert_eq!(
            c.object("reg").unwrap().as_lww().unwrap().get(),
            Some(&Val::int(2)),
            "the causally later write wins"
        );
    }
}
