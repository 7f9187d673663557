//! Uniform store objects: a closed sum of the library's CRDTs over
//! [`Val`] elements, so the replicated store can hold heterogeneous
//! objects behind one (de)serializable effect type.

use crate::awmap::{AWMap, AWMapOp};
use crate::awset::{AWSet, AWSetOp};
use crate::bcounter::{BCounter, BCounterOp};
use crate::clock::VClock;
use crate::compset::CompensationSet;
use crate::counter::{PNCounter, PNCounterOp};
use crate::lww::{LWWOp, LWWRegister};
use crate::rwset::{RWSet, RWSetOp};
use crate::tag::ReplicaId;
use crate::value::{Val, ValPattern};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The declared type of an object (chosen by the application per key —
/// the paper's per-object conflict-resolution choice, §2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjectKind {
    AWSet,
    RWSet,
    AWMap,
    PNCounter,
    BCounter { floor: i64, initial: i64 },
    LWW,
    CompSet { capacity: usize },
}

/// A store-resident CRDT object.
///
/// The two large, rare kinds are boxed, so a slot costs what the common
/// kinds (sets, maps, counters, registers) hold: 56 bytes, not the 88 a
/// bounded counter's escrow table would make every slot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Object {
    AWSet(AWSet<Val>),
    RWSet(Box<RWSet<Val, ValPattern>>),
    AWMap(AWMap<Val, Val>),
    PNCounter(PNCounter),
    BCounter(Box<BCounter>),
    LWW(LWWRegister<Val>),
    CompSet(CompensationSet<Val>),
}

/// The uniform effect type replicated between data centers.
///
/// A map effect (a put carries a key, a value, a tag, a clock and a
/// timestamp) and a rem-wins effect are boxed, so every logged and
/// shipped update costs what a set add or a counter delta holds: 48
/// bytes, not 112.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ObjectOp {
    AWSet(AWSetOp<Val>),
    RWSet(Box<RWSetOp<Val, ValPattern>>),
    AWMap(Box<AWMapOp<Val, Val>>),
    PNCounter(PNCounterOp),
    BCounter(BCounterOp),
    LWW(LWWOp<Val>),
    CompSet(AWSetOp<Val>),
}

/// Applying an effect of the wrong type to an object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeMismatch {
    pub expected: &'static str,
    pub got: &'static str,
}

impl fmt::Display for TypeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "type mismatch: object is {}, effect is {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for TypeMismatch {}

impl Object {
    /// Instantiate a fresh object of a kind. `owner` seeds escrow rights
    /// for bounded counters.
    pub fn new(kind: ObjectKind, owner: ReplicaId) -> Object {
        match kind {
            ObjectKind::AWSet => Object::AWSet(AWSet::new()),
            ObjectKind::RWSet => Object::RWSet(Box::new(RWSet::new())),
            ObjectKind::AWMap => Object::AWMap(AWMap::new()),
            ObjectKind::PNCounter => Object::PNCounter(PNCounter::new()),
            ObjectKind::BCounter { floor, initial } => {
                Object::BCounter(Box::new(BCounter::new(floor, initial, owner)))
            }
            ObjectKind::LWW => Object::LWW(LWWRegister::new()),
            ObjectKind::CompSet { capacity } => Object::CompSet(CompensationSet::new(capacity)),
        }
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Object::AWSet(_) => "aw-set",
            Object::RWSet(_) => "rw-set",
            Object::AWMap(_) => "aw-map",
            Object::PNCounter(_) => "pn-counter",
            Object::BCounter(_) => "bounded-counter",
            Object::LWW(_) => "lww-register",
            Object::CompSet(_) => "compensation-set",
        }
    }

    fn op_type_name(op: &ObjectOp) -> &'static str {
        match op {
            ObjectOp::AWSet(_) => "aw-set",
            ObjectOp::RWSet(_) => "rw-set",
            ObjectOp::AWMap(_) => "aw-map",
            ObjectOp::PNCounter(_) => "pn-counter",
            ObjectOp::BCounter(_) => "bounded-counter",
            ObjectOp::LWW(_) => "lww-register",
            ObjectOp::CompSet(_) => "compensation-set",
        }
    }

    /// Apply a replicated effect.
    pub fn apply(&mut self, op: &ObjectOp) -> Result<(), TypeMismatch> {
        match (self, op) {
            (Object::AWSet(s), ObjectOp::AWSet(o)) => {
                s.apply(o);
                Ok(())
            }
            (Object::RWSet(s), ObjectOp::RWSet(o)) => {
                s.apply(o);
                Ok(())
            }
            (Object::AWMap(m), ObjectOp::AWMap(o)) => {
                m.apply(o);
                Ok(())
            }
            (Object::PNCounter(c), ObjectOp::PNCounter(o)) => {
                c.apply(o);
                Ok(())
            }
            (Object::BCounter(c), ObjectOp::BCounter(o)) => {
                c.apply(o);
                Ok(())
            }
            (Object::LWW(r), ObjectOp::LWW(o)) => {
                r.apply(o);
                Ok(())
            }
            (Object::CompSet(s), ObjectOp::CompSet(o)) => {
                s.apply(o);
                Ok(())
            }
            (obj, op) => Err(TypeMismatch {
                expected: obj.type_name(),
                got: Object::op_type_name(op),
            }),
        }
    }

    /// Stability-driven garbage collection (forwarded to types that keep
    /// causal metadata).
    pub fn compact(&mut self, stable: &VClock) {
        match self {
            Object::RWSet(s) => s.compact(stable),
            Object::AWMap(m) => m.compact(stable),
            // Tag-based / monotone types carry no tombstones.
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Partial copies (the transaction overlay's copy-on-write)
    // ------------------------------------------------------------------

    /// The start of a partial copy, for the kinds whose state is keyed by
    /// element (add-wins set, rem-wins set, add-wins map): an object of
    /// the same kind holding none of this one's element entries, to be
    /// filled one element at a time by [`Object::copy_entry`]. `None` for
    /// the kinds that are not — counters and registers are O(replicas) or
    /// O(1), a compensation set is bounded by its capacity and is read
    /// whole — which are copied with `clone`.
    pub fn partial_copy(&self) -> Option<Object> {
        match self {
            Object::AWSet(_) => Some(Object::AWSet(AWSet::new())),
            Object::RWSet(s) => Some(Object::RWSet(Box::new(s.partial_copy()))),
            Object::AWMap(_) => Some(Object::AWMap(AWMap::new())),
            _ => None,
        }
    }

    /// Copy element `e`'s entry from this object into `into`, which began
    /// as this object's [`Object::partial_copy`]. Afterwards every
    /// element-level question about `e` (membership, payload, the tags a
    /// remove observes) has the same answer on `into` as on `self`.
    /// Returns whether there was an entry to copy.
    pub fn copy_entry(&self, e: &Val, into: &mut Object) -> bool {
        match (self, into) {
            (Object::AWSet(s), Object::AWSet(into)) => s.copy_entry(e, into),
            (Object::RWSet(s), Object::RWSet(into)) => s.copy_entry(e, into),
            (Object::AWMap(m), Object::AWMap(into)) => m.copy_entry(e, into),
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Typed accessors (used by the application layer)
    // ------------------------------------------------------------------

    pub fn as_awset(&self) -> Option<&AWSet<Val>> {
        match self {
            Object::AWSet(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_rwset(&self) -> Option<&RWSet<Val, ValPattern>> {
        match self {
            Object::RWSet(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_awmap(&self) -> Option<&AWMap<Val, Val>> {
        match self {
            Object::AWMap(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_pncounter(&self) -> Option<&PNCounter> {
        match self {
            Object::PNCounter(c) => Some(c),
            _ => None,
        }
    }

    pub fn as_bcounter(&self) -> Option<&BCounter> {
        match self {
            Object::BCounter(c) => Some(c),
            _ => None,
        }
    }

    pub fn as_lww(&self) -> Option<&LWWRegister<Val>> {
        match self {
            Object::LWW(r) => Some(r),
            _ => None,
        }
    }

    pub fn as_compset(&self) -> Option<&CompensationSet<Val>> {
        match self {
            Object::CompSet(s) => Some(s),
            _ => None,
        }
    }

    /// Set membership across set-like kinds (convenience for invariants
    /// checking in the applications).
    pub fn set_contains(&self, v: &Val) -> Option<bool> {
        match self {
            Object::AWSet(s) => Some(s.contains(v)),
            Object::RWSet(s) => Some(s.contains(v)),
            Object::CompSet(s) => Some(s.contains(v)),
            Object::AWMap(m) => Some(m.contains(v)),
            _ => None,
        }
    }
}

impl ObjectOp {
    /// Call `f` on every element this effect names: the entries of a
    /// partial copy it reads or changes when applied. A rem-wins wildcard
    /// names none (it joins the wildcard list, which a partial copy holds
    /// in full), and neither do effects on kinds not keyed by element.
    pub fn for_each_elem(&self, mut f: impl FnMut(&Val)) {
        match self {
            ObjectOp::AWSet(AWSetOp::Add { elem, .. }) => f(elem),
            ObjectOp::AWSet(AWSetOp::Remove { victims }) => {
                victims.iter().for_each(|(elem, _)| f(elem));
            }
            ObjectOp::RWSet(op) => match &**op {
                RWSetOp::Add { elem, .. } | RWSetOp::Remove { elem, .. } => f(elem),
                _ => {}
            },
            ObjectOp::AWMap(op) => match &**op {
                AWMapOp::Put { key, .. } | AWMapOp::Remove { key, .. } => f(key),
            },
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Tag;

    fn tag(r: u16, s: u64) -> Tag {
        Tag::new(ReplicaId(r), s)
    }

    #[test]
    fn construct_every_kind() {
        let kinds = [
            ObjectKind::AWSet,
            ObjectKind::RWSet,
            ObjectKind::AWMap,
            ObjectKind::PNCounter,
            ObjectKind::BCounter {
                floor: 0,
                initial: 5,
            },
            ObjectKind::LWW,
            ObjectKind::CompSet { capacity: 3 },
        ];
        for k in kinds {
            let o = Object::new(k, ReplicaId(0));
            assert!(!o.type_name().is_empty());
        }
    }

    #[test]
    fn apply_dispatch_and_mismatch() {
        let mut o = Object::new(ObjectKind::AWSet, ReplicaId(0));
        let add = ObjectOp::AWSet(AWSetOp::Add {
            elem: Val::str("x"),
            tag: tag(0, 1),
        });
        o.apply(&add).unwrap();
        assert_eq!(o.set_contains(&Val::str("x")), Some(true));
        let bad = ObjectOp::PNCounter(PNCounterOp {
            origin: ReplicaId(0),
            delta: 1,
        });
        let err = o.apply(&bad).unwrap_err();
        assert_eq!(err.expected, "aw-set");
        assert_eq!(err.got, "pn-counter");
    }

    #[test]
    fn ops_serialize_roundtrip() {
        // Effects must be serializable for the replication path.
        let op = ObjectOp::RWSet(Box::new(RWSetOp::RemoveMatching {
            pattern: ValPattern::pair(ValPattern::Any, ValPattern::exact("t1")),
            tag: tag(0, 1),
            clock: [(ReplicaId(0), 1)].into_iter().collect(),
        }));
        let bytes = bincode_like(&op);
        assert!(!bytes.is_empty());
    }

    // serde_json/bincode are not in the dependency set; round-trip through
    // the debug representation to at least exercise Serialize derives via
    // a no-op serializer is unavailable, so assert the type implements
    // Serialize at compile time instead.
    fn bincode_like<T: serde::Serialize + std::fmt::Debug>(v: &T) -> Vec<u8> {
        format!("{v:?}").into_bytes()
    }

    #[test]
    fn what_every_element_and_update_carries_stays_small() {
        use std::mem::size_of;
        // One add-wins slot and one logged effect; with a `String`/`Box`
        // value they were 32, 56 and 128 bytes, and the effect was 112
        // while a map put and a rem-wins effect were held inline.
        assert!(size_of::<Val>() <= 24, "{}", size_of::<Val>());
        assert!(size_of::<(Val, crate::tagset::TagSet)>() <= 48);
        assert!(size_of::<ObjectOp>() <= 48, "{}", size_of::<ObjectOp>());
        assert!(size_of::<Object>() <= 56, "{}", size_of::<Object>());
    }

    #[test]
    fn bcounter_object_respects_rights() {
        let mut o = Object::new(
            ObjectKind::BCounter {
                floor: 0,
                initial: 1,
            },
            ReplicaId(0),
        );
        let c = o.as_bcounter().unwrap();
        let dec = c.prepare_dec(ReplicaId(0), 1).unwrap();
        o.apply(&ObjectOp::BCounter(dec)).unwrap();
        assert_eq!(o.as_bcounter().unwrap().value(), 0);
        assert!(o
            .as_bcounter()
            .unwrap()
            .prepare_dec(ReplicaId(0), 1)
            .is_none());
    }
}
