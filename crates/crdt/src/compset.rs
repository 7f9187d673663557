//! Compensation Set (§4.2.2): a set with an attached aggregation
//! constraint, repaired lazily *on read*.
//!
//! "Our Compensations Set CRDT allows the programmer to define the
//! constraint that must be maintained at all times, and the compensation
//! that must execute, when it is false. Whenever the object is read, the
//! code is executed automatically, ensuring that any observed state is
//! consistent. [...] In case a compensation has to remove some element
//! from the set, the element is chosen deterministically."
//!
//! The deterministic victim order is *newest tag first* (latest additions
//! are cancelled, as FusionTicket cancels the oversold purchases), so
//! replicas observing the same violation produce the same compensation and
//! the system converges.

use crate::awset::{AWSet, AWSetOp};
use crate::tag::Tag;
use serde::{Deserialize, Serialize};

/// A capacity-constrained add-wins set with on-read compensation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompensationSet<E: Ord + Clone> {
    set: AWSet<E>,
    capacity: usize,
}

/// Effect operations: the underlying set's operations. Compensation
/// removes are ordinary `Remove` effects committed by the reader's
/// transaction (§4.2.2: "committed alongside with the effects of the
/// operation that accessed the customized set").
pub type CompensationSetOp<E> = AWSetOp<E>;

/// The result of a constrained read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompensatedRead<E> {
    /// The elements visible after masking the excess (never more than the
    /// capacity).
    pub elements: Vec<E>,
    /// The compensation to commit, if the read observed a violation.
    pub compensation: Option<CompensationSetOp<E>>,
    /// Elements the compensation cancels (for client notification —
    /// e.g. "reimburse these ticket purchases").
    pub cancelled: Vec<E>,
}

impl<E: Ord + Clone> CompensationSet<E> {
    pub fn new(capacity: usize) -> Self {
        CompensationSet {
            set: AWSet::new(),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Raw (unconstrained) size — may exceed capacity between a violation
    /// and its compensation.
    pub fn raw_len(&self) -> usize {
        self.set.len()
    }

    pub fn contains(&self, e: &E) -> bool {
        self.set.contains(e)
    }

    /// The raw (unconstrained) members, borrowed and in no particular
    /// order: [`CompensationSet::read`]'s elements and cancelled excess
    /// together, without its copy and its sort by tag.
    pub fn raw_elements(&self) -> impl Iterator<Item = &E> {
        self.set.elements()
    }

    pub fn prepare_add(&self, elem: E, tag: Tag) -> CompensationSetOp<E> {
        self.set.prepare_add(elem, tag)
    }

    pub fn prepare_remove(&self, elem: &E) -> Option<CompensationSetOp<E>> {
        self.set.prepare_remove(elem)
    }

    pub fn apply(&mut self, op: &CompensationSetOp<E>) {
        self.set.apply(op);
    }

    /// Constrained read: returns at most `capacity` elements; when the
    /// underlying set exceeds the capacity, the excess — *newest additions
    /// first* by tag order — is masked and a compensation remove is
    /// prepared for the caller to commit.
    pub fn read(&self) -> CompensatedRead<E> {
        // Order elements by their maximum add tag (deterministic across
        // replicas: tags are globally unique and totally ordered).
        let mut ordered: Vec<(Tag, E)> = self
            .set
            .elements()
            .map(|e| {
                let max_tag = self
                    .set
                    .tags_of(e)
                    .max()
                    .copied()
                    .expect("live element has a tag");
                (max_tag, e.clone())
            })
            .collect();
        ordered.sort(); // oldest tag first
        if ordered.len() <= self.capacity {
            return CompensatedRead {
                elements: ordered.into_iter().map(|(_, e)| e).collect(),
                compensation: None,
                cancelled: Vec::new(),
            };
        }
        let keep: Vec<E> = ordered
            .iter()
            .take(self.capacity)
            .map(|(_, e)| e.clone())
            .collect();
        let cancelled: Vec<E> = ordered
            .iter()
            .skip(self.capacity)
            .map(|(_, e)| e.clone())
            .collect();
        let victims = cancelled
            .iter()
            .map(|e| (e.clone(), self.set.tags_of(e).copied().collect()))
            .collect();
        CompensatedRead {
            elements: keep,
            compensation: Some(AWSetOp::Remove { victims }),
            cancelled,
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
    fn read_within_capacity_is_plain() {
        let mut s: CompensationSet<&'static str> = CompensationSet::new(2);
        s.apply(&s.prepare_add("a", tag(0, 1)));
        s.apply(&s.prepare_add("b", tag(0, 2)));
        let r = s.read();
        assert_eq!(r.elements.len(), 2);
        assert!(r.compensation.is_none());
    }

    #[test]
    fn oversell_is_compensated_deterministically() {
        // Two replicas concurrently sell the last ticket: capacity 1,
        // both adds land.
        let mut a: CompensationSet<&'static str> = CompensationSet::new(1);
        let mut b = a.clone();
        let sale_a = a.prepare_add("u1", tag(0, 1));
        let sale_b = b.prepare_add("u2", tag(1, 1));
        for s in [&mut a, &mut b] {
            s.apply(&sale_a);
            s.apply(&sale_b);
        }
        assert_eq!(a.raw_len(), 2, "oversold");
        let ra = a.read();
        let rb = b.read();
        // Deterministic: both replicas cancel the same (newest) sale.
        assert_eq!(ra.elements, rb.elements);
        assert_eq!(ra.cancelled, rb.cancelled);
        assert_eq!(ra.cancelled, vec!["u2"], "newest tag is cancelled");
        // Committing the compensation restores the constraint.
        a.apply(ra.compensation.as_ref().unwrap());
        b.apply(rb.compensation.as_ref().unwrap());
        assert_eq!(a, b);
        assert_eq!(a.raw_len(), 1);
    }

    #[test]
    fn compensation_is_idempotent_across_replicas() {
        // Both replicas independently detect the violation and commit
        // their (identical) compensations; applying both is harmless.
        let mut a: CompensationSet<u32> = CompensationSet::new(1);
        for i in 0..3u64 {
            a.apply(&a.prepare_add(i as u32, tag(0, i + 1)));
        }
        let mut b = a.clone();
        let ca = a.read().compensation.unwrap();
        let cb = b.read().compensation.unwrap();
        assert_eq!(ca, cb);
        a.apply(&ca);
        a.apply(&cb);
        b.apply(&cb);
        b.apply(&ca);
        assert_eq!(a, b);
        assert_eq!(a.raw_len(), 1);
    }

    #[test]
    fn masked_read_never_exceeds_capacity() {
        let mut s: CompensationSet<u32> = CompensationSet::new(3);
        for i in 0..10u64 {
            s.apply(&s.prepare_add(i as u32, tag(0, i + 1)));
        }
        let r = s.read();
        assert_eq!(r.elements.len(), 3);
        assert_eq!(r.cancelled.len(), 7);
    }
}
