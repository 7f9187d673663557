//! Replicated update batches: the atomic unit of transaction effects.

use crate::hash::{mix, mix_bytes};
use crate::key::Key;
use ipa_crdt::{ObjectKind, ObjectOp, ReplicaId, VClock};
use serde::{Deserialize, Serialize};

/// The effects of one committed transaction, replicated asynchronously to
/// every other replica and applied atomically under causal delivery.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UpdateBatch {
    /// Origin replica.
    pub origin: ReplicaId,
    /// Origin commit number: `clock.get(origin)` equals this.
    pub seq: u64,
    /// Origin's vector clock *including* this batch.
    pub clock: VClock,
    /// Lamport timestamp of the commit (drives LWW registers).
    pub lamport: u64,
    /// The object updates; the [`ObjectKind`] lets receivers instantiate
    /// missing objects deterministically.
    pub updates: Vec<(Key, ObjectKind, ObjectOp)>,
    /// Integrity checksum sealed at the origin over the batch envelope
    /// (origin, seq, clock, lamport, update keys/kinds). A *stored*
    /// field, not recomputed on read: a batch mutated in flight keeps
    /// the origin's seal and fails [`UpdateBatch::integrity_ok`].
    pub check: u64,
}

/// Where a seal starts.
const SEAL_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A structural fingerprint of an [`ObjectKind`], folded into the batch
/// checksum so a kind swapped in flight is detected.
fn kind_fingerprint(kind: &ObjectKind) -> u64 {
    match *kind {
        ObjectKind::AWSet => 1,
        ObjectKind::RWSet => 2,
        ObjectKind::AWMap => 3,
        ObjectKind::PNCounter => 4,
        ObjectKind::BCounter { floor, initial } => mix(mix(5, floor as u64), initial as u64),
        ObjectKind::LWW => 6,
        ObjectKind::CompSet { capacity } => mix(8, capacity as u64),
    }
}

/// The seal over an envelope's words, in order: origin, seq and lamport;
/// each clock entry; the update count; each update's key bytes and kind
/// fingerprint. One [`mix`] per word, so a change to any one word (or
/// key byte) always changes the seal.
fn seal<'a>(
    head: [u64; 3],
    clock: impl Iterator<Item = (u64, u64)>,
    count: u64,
    updates: impl Iterator<Item = (&'a [u8], u64)>,
) -> u64 {
    let mut h = head.into_iter().fold(SEAL_SEED, mix);
    for (r, v) in clock {
        h = mix(mix(h, r), v);
    }
    h = mix(h, count);
    for (key, kind) in updates {
        h = mix(mix_bytes(h, key), kind);
    }
    h
}

impl UpdateBatch {
    /// Construct and seal a batch in one step (the only path the store's
    /// commit pipeline uses).
    pub fn sealed(
        origin: ReplicaId,
        seq: u64,
        clock: VClock,
        lamport: u64,
        updates: Vec<(Key, ObjectKind, ObjectOp)>,
    ) -> UpdateBatch {
        let mut b = UpdateBatch {
            origin,
            seq,
            clock,
            lamport,
            updates,
            check: 0,
        };
        b.reseal();
        b
    }

    /// The envelope checksum, folded a word at a step (one rotate, xor
    /// and odd multiply each, the store's `hash` module) over origin,
    /// seq, lamport, the clock's entries, the update count, and each
    /// update's key bytes + kind fingerprint.
    /// Cheap (no op payload walk) but sensitive to every corruption
    /// class the adversarial nemesis injects: bit-flips on seq/lamport,
    /// truncated update vectors, forged sequence numbers, and mutated
    /// duplicate payload keys.
    pub fn envelope_check(&self) -> u64 {
        seal(
            [u64::from(self.origin.0), self.seq, self.lamport],
            self.clock.iter().map(|(r, v)| (u64::from(r.0), v)),
            self.updates.len() as u64,
            self.updates
                .iter()
                .map(|(key, kind, _)| (key.as_str().as_bytes(), kind_fingerprint(kind))),
        )
    }

    /// Re-seal after a *legitimate* envelope change (e.g. the simulator's
    /// honest-but-skewed clock model shifting `lamport`). Adversarial
    /// mutation deliberately does NOT reseal — that is what makes it
    /// detectable.
    pub fn reseal(&mut self) {
        self.check = self.envelope_check();
    }

    /// Does the stored seal match the envelope as received?
    pub fn integrity_ok(&self) -> bool {
        self.check == self.envelope_check()
    }

    /// Structural soundness independent of the seal: the origin sequence
    /// must be positive and agree with the batch's own clock. A forged
    /// seq that was *also* resealed would pass `integrity_ok` but trips
    /// here (non-equivocating adversary: it cannot forge a consistent
    /// clock without being a new, valid batch).
    pub fn well_formed(&self) -> bool {
        self.seq >= 1 && self.clock.get(self.origin) == self.seq
    }

    /// The integrity gate every receiver runs: the seal matches and the
    /// envelope is well-formed. A batch that fails it is quarantined.
    pub fn passes_gate(&self) -> bool {
        self.integrity_ok() && self.well_formed()
    }

    /// Is this batch deliverable at a replica whose applied-clock is
    /// `at`? Standard causal-delivery condition (one dense scan).
    pub fn deliverable_at(&self, at: &VClock) -> bool {
        self.clock.deliverable_from(self.origin, at)
    }

    /// Serialized size in bytes (for the simulator's bandwidth model).
    pub fn encoded_len(&self) -> usize {
        // A cheap structural estimate (we do not need exact wire format).
        64 + self.updates.len() * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(entries: &[(u16, u64)]) -> VClock {
        entries.iter().map(|&(r, v)| (ReplicaId(r), v)).collect()
    }

    #[test]
    fn deliverability_conditions() {
        let b = UpdateBatch::sealed(ReplicaId(1), 2, clock(&[(0, 3), (1, 2)]), 9, vec![]);
        // Needs r1's first batch and r0 up to 3.
        assert!(!b.deliverable_at(&clock(&[(0, 3)])));
        assert!(!b.deliverable_at(&clock(&[(0, 2), (1, 1)])));
        assert!(b.deliverable_at(&clock(&[(0, 3), (1, 1)])));
        assert!(
            b.deliverable_at(&clock(&[(0, 5), (1, 1)])),
            "extra knowledge is fine"
        );
        assert!(
            !b.deliverable_at(&clock(&[(0, 3), (1, 2)])),
            "already applied seq"
        );
    }

    #[test]
    fn encoded_len_scales_with_updates() {
        let empty = UpdateBatch::sealed(ReplicaId(0), 1, clock(&[(0, 1)]), 1, vec![]);
        assert!(empty.encoded_len() >= 64);
    }

    #[test]
    fn seal_detects_envelope_mutation() {
        let mut b = UpdateBatch::sealed(ReplicaId(1), 2, clock(&[(0, 3), (1, 2)]), 9, vec![]);
        assert!(b.integrity_ok());
        assert!(b.well_formed());

        // Bit-flip the lamport in flight: the origin's seal no longer
        // matches.
        b.lamport ^= 1 << 7;
        assert!(!b.integrity_ok());
        // An honest reseal (the skew model) restores integrity.
        b.reseal();
        assert!(b.integrity_ok());

        // Forge the seq without touching the clock: resealing cannot
        // save it — structural soundness fails.
        b.seq = 7;
        b.reseal();
        assert!(b.integrity_ok());
        assert!(!b.well_formed());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Every single-bit flip of an envelope word the seal covers
        /// changes the seal: origin, seq, lamport, each clock entry, the
        /// update count, each key byte and each kind fingerprint.
        #[test]
        fn flipping_any_sealed_bit_changes_the_seal(
            head in (0u64..=u64::from(u16::MAX), 0u64..u64::MAX, 0u64..u64::MAX),
            clock in proptest::collection::vec((0u64..16, 0u64..u64::MAX), 0..5),
            keys in proptest::collection::vec(
                (proptest::collection::vec(0u8..=255, 0..24), 0u64..u64::MAX),
                0..5,
            ),
        ) {
            let head = [head.0, head.1, head.2];
            let sealed = |head: [u64; 3], clock: &[(u64, u64)], count: u64, keys: &[(Vec<u8>, u64)]| {
                seal(head, clock.iter().copied(), count, keys.iter().map(|(k, f)| (&k[..], *f)))
            };
            let count = keys.len() as u64;
            let original = sealed(head, &clock, count, &keys);
            for bit in 0..64 {
                for i in 0..3 {
                    let mut h = head;
                    h[i] ^= 1 << bit;
                    proptest::prop_assert_ne!(sealed(h, &clock, count, &keys), original);
                }
                for i in 0..clock.len() {
                    for side in 0..2 {
                        let mut c = clock.clone();
                        if side == 0 { c[i].0 ^= 1 << bit } else { c[i].1 ^= 1 << bit }
                        proptest::prop_assert_ne!(sealed(head, &c, count, &keys), original);
                    }
                }
                let flipped = sealed(head, &clock, count ^ 1 << bit, &keys);
                proptest::prop_assert_ne!(flipped, original);
                for i in 0..keys.len() {
                    let mut k = keys.clone();
                    k[i].1 ^= 1 << bit;
                    proptest::prop_assert_ne!(sealed(head, &clock, count, &k), original);
                    if bit < 8 {
                        for byte in 0..keys[i].0.len() {
                            let mut k = keys.clone();
                            k[i].0[byte] ^= 1 << bit;
                            proptest::prop_assert_ne!(sealed(head, &clock, count, &k), original);
                        }
                    }
                }
            }
            // Truncated updates, the count sealed as it now reads.
            for n in 0..keys.len() {
                let cut = sealed(head, &clock, n as u64, &keys[..n]);
                proptest::prop_assert_ne!(cut, original);
            }
        }
    }

    #[test]
    fn seal_detects_truncated_updates() {
        use ipa_crdt::PNCounterOp;
        let op = |delta| {
            ObjectOp::PNCounter(PNCounterOp {
                origin: ReplicaId(0),
                delta,
            })
        };
        let updates = vec![
            (Key::from("a"), ObjectKind::PNCounter, op(1)),
            (Key::from("b"), ObjectKind::PNCounter, op(2)),
        ];
        let mut b = UpdateBatch::sealed(ReplicaId(0), 1, clock(&[(0, 1)]), 3, updates);
        assert!(b.integrity_ok());
        b.updates.truncate(1);
        assert!(!b.integrity_ok(), "truncated batch must fail the seal");
    }
}
