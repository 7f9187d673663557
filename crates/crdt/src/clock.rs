//! Vector clocks: the causality metadata for remove-wins semantics,
//! causal delivery and stability tracking.
//!
//! Replica ids are small and contiguous everywhere in this codebase, so
//! the clock is stored *densely*: a `Vec<u64>` indexed by [`ReplicaId`],
//! with missing components implicitly zero. `merge`/`le`/`meet` — the
//! innermost loops of delivery, dedup and stability tracking — become
//! branch-light linear scans over a contiguous array instead of B-tree
//! walks. The vector is kept canonical (no trailing zeros) so derived
//! equality coincides with pointwise equality.

use crate::tag::ReplicaId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A vector clock: per-replica event counters. Missing entries are zero.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VClock {
    /// `entries[i]` is replica `i`'s component; canonical form keeps the
    /// last element non-zero so `==` is pointwise equality.
    ///
    /// Every constructor and mutator preserves canonical form. The serde
    /// derives are forward-compatibility markers (the vendored stub
    /// generates no code); a real `Deserialize` impl MUST route through
    /// [`VClock::from_raw`] so untrusted trailing zeros cannot break the
    /// comparisons that rely on the invariant.
    entries: Vec<u64>,
}

impl VClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a clock from a raw dense component vector, restoring
    /// canonical form (drops trailing zeros). The required entry point
    /// for any deserialization path.
    pub fn from_raw(entries: Vec<u64>) -> Self {
        let mut c = VClock { entries };
        c.normalize();
        c
    }

    #[inline]
    pub fn get(&self, r: ReplicaId) -> u64 {
        self.entries.get(r.0 as usize).copied().unwrap_or(0)
    }

    pub fn set(&mut self, r: ReplicaId, v: u64) {
        let i = r.0 as usize;
        if v == 0 {
            if i < self.entries.len() {
                self.entries[i] = 0;
                self.normalize();
            }
        } else {
            if i >= self.entries.len() {
                self.entries.resize(i + 1, 0);
            }
            self.entries[i] = v;
        }
    }

    /// Drop trailing zeros (restore canonical form).
    fn normalize(&mut self) {
        while self.entries.last() == Some(&0) {
            self.entries.pop();
        }
    }

    /// Advance this replica's component by one and return the new value.
    pub fn tick(&mut self, r: ReplicaId) -> u64 {
        let i = r.0 as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, 0);
        }
        self.entries[i] += 1;
        self.entries[i]
    }

    /// Pointwise maximum (least upper bound).
    pub fn merge(&mut self, other: &VClock) {
        if other.entries.len() > self.entries.len() {
            self.entries.resize(other.entries.len(), 0);
        }
        for (e, &v) in self.entries.iter_mut().zip(&other.entries) {
            if v > *e {
                *e = v;
            }
        }
    }

    /// Pointwise minimum (greatest lower bound) — the stability frontier
    /// operation. Replicas absent from either clock floor to zero, so the
    /// caller must enumerate the full replica set for a meaningful result.
    pub fn meet(&self, other: &VClock, replicas: &[ReplicaId]) -> VClock {
        let mut out = VClock::new();
        for &r in replicas {
            out.set(r, self.get(r).min(other.get(r)));
        }
        out
    }

    /// `self ≤ other` pointwise.
    #[inline]
    pub fn le(&self, other: &VClock) -> bool {
        // Canonical form: a longer vector ends in a non-zero component
        // the other clock lacks, so it cannot be dominated.
        if self.entries.len() > other.entries.len() {
            return false;
        }
        self.entries.iter().zip(&other.entries).all(|(a, b)| a <= b)
    }

    /// Strict domination: `self ≤ other` and `self ≠ other`.
    pub fn lt(&self, other: &VClock) -> bool {
        self.le(other) && self != other
    }

    /// Are the clocks incomparable (concurrent events)?
    pub fn concurrent(&self, other: &VClock) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// Partial-order comparison: `None` when concurrent.
    pub fn partial_cmp_causal(&self, other: &VClock) -> Option<Ordering> {
        match (self.le(other), other.le(self)) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }

    /// The causal-delivery condition for an event stamped with this clock
    /// and originated at `origin`, evaluated against the applied clock
    /// `at`: the origin component must be the next expected sequence and
    /// every other component already covered. Dense single pass — this is
    /// the innermost test of `receive`/`drain_pending`.
    #[inline]
    pub fn deliverable_from(&self, origin: ReplicaId, at: &VClock) -> bool {
        let o = origin.0 as usize;
        for (i, &v) in self.entries.iter().enumerate() {
            if v == 0 {
                continue;
            }
            let have = at.entries.get(i).copied().unwrap_or(0);
            if i == o {
                if v != have + 1 {
                    return false;
                }
            } else if v > have {
                return false;
            }
        }
        true
    }

    /// The dense component vector (canonical form: no trailing zeros).
    /// `as_slice()[i]` is replica `i`'s component; indices past the end
    /// are implicitly zero. Lets batch consumers (stability folds) scan
    /// many clocks without per-clock allocation.
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        &self.entries
    }

    /// Non-zero components, in replica-id order.
    pub fn iter(&self) -> impl Iterator<Item = (ReplicaId, u64)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (ReplicaId(i as u16), v))
    }

    /// Sum of all components (a cheap logical "size" used for LWW ties).
    pub fn total(&self) -> u64 {
        self.entries.iter().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (r, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}:{v}")?;
        }
        write!(f, "⟩")
    }
}

impl FromIterator<(ReplicaId, u64)> for VClock {
    fn from_iter<T: IntoIterator<Item = (ReplicaId, u64)>>(iter: T) -> Self {
        let mut c = VClock::new();
        for (r, v) in iter {
            c.set(r, v);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u16) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn tick_and_get() {
        let mut c = VClock::new();
        assert_eq!(c.get(r(0)), 0);
        assert_eq!(c.tick(r(0)), 1);
        assert_eq!(c.tick(r(0)), 2);
        assert_eq!(c.get(r(0)), 2);
    }

    #[test]
    fn merge_is_pointwise_max() {
        let a: VClock = [(r(0), 3), (r(1), 1)].into_iter().collect();
        let b: VClock = [(r(0), 1), (r(2), 5)].into_iter().collect();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.get(r(0)), 3);
        assert_eq!(m.get(r(1)), 1);
        assert_eq!(m.get(r(2)), 5);
    }

    #[test]
    fn ordering_relations() {
        let a: VClock = [(r(0), 1)].into_iter().collect();
        let b: VClock = [(r(0), 2)].into_iter().collect();
        let c: VClock = [(r(1), 1)].into_iter().collect();
        assert!(a.lt(&b));
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(a.concurrent(&c));
        assert_eq!(a.partial_cmp_causal(&b), Some(Ordering::Less));
        assert_eq!(b.partial_cmp_causal(&a), Some(Ordering::Greater));
        assert_eq!(a.partial_cmp_causal(&a), Some(Ordering::Equal));
        assert_eq!(a.partial_cmp_causal(&c), None);
    }

    #[test]
    fn meet_floors_missing_entries() {
        let a: VClock = [(r(0), 3), (r(1), 2)].into_iter().collect();
        let b: VClock = [(r(0), 1)].into_iter().collect();
        let m = a.meet(&b, &[r(0), r(1)]);
        assert_eq!(m.get(r(0)), 1);
        assert_eq!(m.get(r(1)), 0);
    }

    #[test]
    fn as_slice_is_dense_and_canonical() {
        let c: VClock = [(r(0), 3), (r(2), 5)].into_iter().collect();
        assert_eq!(c.as_slice(), &[3, 0, 5]);
        let mut d = c.clone();
        d.set(r(2), 0);
        assert_eq!(d.as_slice(), &[3], "trailing zeros never appear");
        assert!(VClock::new().as_slice().is_empty());
    }

    #[test]
    fn zero_entries_are_normalized_out() {
        let mut c = VClock::new();
        c.set(r(0), 5);
        c.set(r(0), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn from_raw_normalizes_trailing_zeros() {
        let a = VClock::from_raw(vec![2, 0, 0]);
        let b = VClock::from_raw(vec![2]);
        assert_eq!(a, b);
        assert!(a.le(&b) && b.le(&a));
        assert!(VClock::from_raw(vec![0, 0]).is_empty());
    }

    #[test]
    fn equality_ignores_trailing_zero_components() {
        // A clock that grew a high component and lost it again must equal
        // one that never had it (canonical form).
        let mut a = VClock::new();
        a.set(r(0), 2);
        a.set(r(5), 9);
        a.set(r(5), 0);
        let mut b = VClock::new();
        b.set(r(0), 2);
        assert_eq!(a, b);
        assert!(a.le(&b) && b.le(&a));
        assert_eq!(a.partial_cmp_causal(&b), Some(Ordering::Equal));
    }

    #[test]
    fn deliverable_from_matches_componentwise_definition() {
        let batch: VClock = [(r(0), 3), (r(1), 2)].into_iter().collect();
        let origin = r(1);
        let cases: &[(&[(u16, u64)], bool)] = &[
            (&[(0, 3)], false),         // origin seq not next
            (&[(0, 2), (1, 1)], false), // dependency uncovered
            (&[(0, 3), (1, 1)], true),  // exactly ready
            (&[(0, 5), (1, 1)], true),  // extra knowledge is fine
            (&[(0, 3), (1, 2)], false), // already applied
        ];
        for (at, want) in cases {
            let at: VClock = at.iter().map(|&(i, v)| (r(i), v)).collect();
            assert_eq!(batch.deliverable_from(origin, &at), *want, "at {at}");
        }
    }

    #[test]
    fn lattice_laws_hold() {
        // merge is idempotent, commutative, associative on samples.
        let a: VClock = [(r(0), 1), (r(1), 4)].into_iter().collect();
        let b: VClock = [(r(0), 3)].into_iter().collect();
        let c: VClock = [(r(2), 2)].into_iter().collect();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut aa = a.clone();
        aa.merge(&a);
        assert_eq!(aa, a);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }
}
