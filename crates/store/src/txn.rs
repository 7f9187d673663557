//! Highly-available transactions (§2.1, §4.1).
//!
//! A transaction executes entirely at its origin replica: it reads the
//! replica's committed state through a copy-on-write overlay (giving
//! read-your-writes), buffers update effects, and on commit installs them
//! atomically and stages one [`UpdateBatch`] for asynchronous replication.
//! Dropping the transaction without committing aborts it.
//!
//! # The overlay: a transaction copies what it changes
//!
//! The overlay holds only the keys this transaction created or has
//! written, and of a written set or map only the elements it has touched:
//!
//! 1. **Unwritten, stored key**: never copied. Reads and prepares borrow
//!    the object from [`Replica::object`].
//! 2. **Written key, element-level access** (`aw_add`, `aw_remove`,
//!    `rw_*`, `map_put`/`touch`/`remove`/`get`, `contains`): the first
//!    write to a stored add-wins set, rem-wins set or add-wins map starts
//!    a *partial copy* ([`Object::partial_copy`]); an element's entry is
//!    pulled from the stored object ([`Object::copy_entry`]) on the first
//!    read or effect that names it, and the element is remembered as
//!    covered even when the stored object had no entry. Reads, prepares
//!    and the effect itself then run against the partial copy.
//! 3. **Written key, whole-object access** (`for_each_element`, which
//!    `set_elements` and `set_len` are built on, and
//!    `aw_remove_matching`; `compset_read` and counter or register reads
//!    ask the same way, and by rule 4 always find a whole copy): the copy
//!    is made whole once, as the stored object's clone plus a replay of
//!    this transaction's effects on the key. This is the only O(object)
//!    copy, paired with an O(object) answer.
//! 4. **Kinds not keyed by element** (counters and registers, whose state
//!    is O(replicas) or O(1); the compensation set, bounded by its
//!    capacity) and **objects the transaction created** are held whole.
//! 5. **Commit and abort**: written keys are rebuilt from their effects
//!    by the one apply path (`Replica::commit_batch`), so no copy is ever
//!    installed; created-but-unwritten objects install locally; dropping
//!    the transaction leaves the replica's objects untouched.
//!
//! Cost: O(entries touched) per transaction, whatever the size of the
//! objects it looks at; O(object) only for a whole-object question about
//! a key the transaction has already written.
//! [`ReplicaStats::txn_objects_copied`](crate::ReplicaStats) and
//! [`txn_entries_copied`](crate::ReplicaStats) count both kinds of copy.
//!
//! # Keys are looked up by name
//!
//! Every entry point takes its key as `impl AsRef<str>` (a `&str`, a
//! `String`, a [`Key`]) and probes the overlay and the shard table with
//! the borrowed name. The owned `Key` that an overlay entry and each
//! buffered effect carry is a clone of the shard table's own; only
//! `ensure` of a key stored nowhere needs a new one (`Into<Key>`: built
//! from a name, taken as it is from a caller that holds a `Key`).

use crate::batch::UpdateBatch;
use crate::errors::StoreError;
use crate::key::Key;
use crate::replica::{creation_owner, Replica};
use ipa_crdt::compset::CompensatedRead;
use ipa_crdt::{Object, ObjectKind, ObjectOp, VClock, Val, ValPattern};
use std::collections::HashMap;

/// Result of a successful commit.
#[derive(Clone, Debug)]
pub struct CommitInfo {
    /// The commit's clock (unchanged replica clock for read-only
    /// transactions).
    pub clock: VClock,
    /// Number of update effects committed.
    pub updates: usize,
    /// Number of compensations co-committed by constrained reads.
    pub compensations: usize,
}

/// A buffered effect: the key, its declared kind, the operation.
type Update = (Key, ObjectKind, ObjectOp);

/// The overlay's entry for one key the transaction created or has written.
struct Shadow {
    /// The key as the table that holds it spells it: the shard table's
    /// own for a stored object, built once for a created one. Every
    /// buffered effect on the key carries a clone of it.
    key: Key,
    kind: ObjectKind,
    obj: Object,
    /// `Some` while `obj` is a partial copy of the stored object: the
    /// elements, sorted, whose stored entry (or lack of one) `obj`
    /// already reflects. `None` once `obj` is whole.
    covered: Option<Vec<Val>>,
    /// An effect on this key is buffered, so commit rebuilds the object
    /// from the batch. Unset only on a created object nothing was written
    /// to, which commit installs as it is.
    written: bool,
}

impl Shadow {
    /// Rule 2: bring `e`'s stored entry into a partial copy, once.
    fn cover(&mut self, replica: &mut Replica, e: &Val) {
        let Some(covered) = &mut self.covered else {
            return;
        };
        let Err(at) = covered.binary_search(e) else {
            return;
        };
        covered.insert(at, e.clone());
        let stored = replica
            .object(&self.key)
            .expect("a partial copy is of a stored object");
        if stored.copy_entry(e, &mut self.obj) {
            replica.stats.txn_entries_copied += 1;
        }
    }

    /// Rule 3: turn a partial copy into the whole object, as this
    /// transaction sees it.
    fn make_whole(&mut self, replica: &mut Replica, updates: &[Update]) {
        if self.covered.take().is_none() {
            return;
        }
        self.obj = replica
            .object(&self.key)
            .expect("a partial copy is of a stored object")
            .clone();
        replica.stats.txn_objects_copied += 1;
        for (_, _, op) in updates.iter().filter(|(k, _, _)| *k == self.key) {
            self.obj
                .apply(op)
                .expect("the partial copy took this effect");
        }
    }
}

/// How much of a key's object a read depends on: what has to be in a
/// partial copy before the read may run against it.
enum Reads<'e> {
    /// Only the object's type (a prepare that captures no state).
    Nothing,
    /// One element's entry.
    Element(&'e Val),
    /// Every entry.
    Whole,
}

/// An in-flight transaction on one replica.
pub struct Transaction<'a> {
    replica: &'a mut Replica,
    /// Copy-on-write view of the keys created or written (module docs).
    overlay: HashMap<Key, Shadow>,
    /// Buffered effects, in execution order.
    updates: Vec<Update>,
    /// The clock this commit will carry (replica clock + own tick).
    commit_clock: VClock,
    /// Lamport timestamp for LWW writes.
    ts: u64,
    compensations: usize,
}

impl<'a> Transaction<'a> {
    pub(crate) fn new(replica: &'a mut Replica) -> Self {
        let commit_clock = replica.next_commit_clock();
        let ts = replica.lamport() + 1;
        Transaction {
            replica,
            overlay: HashMap::new(),
            updates: Vec::new(),
            commit_clock,
            ts,
            compensations: 0,
        }
    }

    /// Declare (and lazily create) an object of the given kind. Declaring
    /// a stored object is a lookup; only the creation needs a [`Key`], and
    /// a caller's own `Key` is taken as it is.
    pub fn ensure(
        &mut self,
        key: impl AsRef<str> + Into<Key>,
        kind: ObjectKind,
    ) -> Result<(), StoreError> {
        let name = key.as_ref();
        if self.replica.object(name).is_none() && !self.overlay.contains_key(name) {
            let key: Key = key.into();
            self.overlay.insert(
                key.clone(),
                Shadow {
                    key,
                    kind,
                    obj: Object::new(kind, creation_owner()),
                    covered: None,
                    written: false,
                },
            );
        }
        Ok(())
    }

    /// The object a read of `key` runs against: the stored object while
    /// the transaction has not written the key (rule 1), else its copy
    /// with what the read depends on brought in (rules 2 and 3).
    fn view(&mut self, key: &str, reads: Reads<'_>) -> Result<&Object, StoreError> {
        match self.overlay.get_mut(key) {
            Some(shadow) => {
                match reads {
                    Reads::Nothing => {}
                    Reads::Element(e) => shadow.cover(self.replica, e),
                    Reads::Whole => shadow.make_whole(self.replica, &self.updates),
                }
                Ok(&shadow.obj)
            }
            None => self
                .replica
                .object(key)
                .ok_or_else(|| StoreError::NoSuchObject(Key::new(key))),
        }
    }

    /// Record an effect and apply it to the transaction's copy of the
    /// key, which the first write to a stored key starts: partial for the
    /// kinds keyed by element, whole for the rest (rule 4).
    fn push(&mut self, key: &str, op: ObjectOp) -> Result<(), StoreError> {
        let shadow = match self.overlay.get_mut(key) {
            Some(shadow) => shadow,
            None => {
                let (key, kind, stored) = self
                    .replica
                    .stored(key)
                    .ok_or_else(|| StoreError::NoSuchObject(Key::new(key)))?;
                let key = key.clone();
                let (obj, covered) = match stored.partial_copy() {
                    Some(partial) => (partial, Some(Vec::new())),
                    None => {
                        let whole = stored.clone();
                        self.replica.stats.txn_objects_copied += 1;
                        (whole, None)
                    }
                };
                self.overlay.entry(key.clone()).or_insert(Shadow {
                    key,
                    kind,
                    obj,
                    covered,
                    written: false,
                })
            }
        };
        // The effect's own elements are covered before it is applied.
        op.for_each_elem(|e| shadow.cover(self.replica, e));
        shadow.written = true;
        shadow.obj.apply(&op).map_err(|e| StoreError::WrongType {
            key: shadow.key.clone(),
            expected: e.expected,
        })?;
        self.updates.push((shadow.key.clone(), shadow.kind, op));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Add-wins set
    // ------------------------------------------------------------------

    pub fn aw_add(&mut self, key: impl AsRef<str>, v: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        let obj = self.view(key, Reads::Nothing)?;
        let set = obj.as_awset().ok_or_else(|| wrong(key, "aw-set"))?;
        let op = ObjectOp::AWSet(set.prepare_add(v, tag));
        self.push(key, op)
    }

    pub fn aw_remove(&mut self, key: impl AsRef<str>, v: &Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let obj = self.view(key, Reads::Element(v))?;
        let set = obj.as_awset().ok_or_else(|| wrong(key, "aw-set"))?;
        if let Some(op) = set.prepare_remove(v) {
            let op = ObjectOp::AWSet(op);
            self.push(key, op)?;
        }
        Ok(())
    }

    /// Wildcard remove (add-wins): removes observed matching elements.
    pub fn aw_remove_matching(
        &mut self,
        key: impl AsRef<str>,
        pattern: &ValPattern,
    ) -> Result<(), StoreError> {
        let key = key.as_ref();
        let obj = self.view(key, Reads::Whole)?;
        let set = obj.as_awset().ok_or_else(|| wrong(key, "aw-set"))?;
        let op = ObjectOp::AWSet(set.prepare_remove_matching(|e| pattern.matches(e)));
        self.push(key, op)
    }

    // ------------------------------------------------------------------
    // Rem-wins set
    // ------------------------------------------------------------------

    pub fn rw_add(&mut self, key: impl AsRef<str>, v: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        let clock = self.commit_clock.clone();
        let obj = self.view(key, Reads::Nothing)?;
        let set = obj.as_rwset().ok_or_else(|| wrong(key, "rw-set"))?;
        let op = ObjectOp::RWSet(set.prepare_add(v, tag, clock));
        self.push(key, op)
    }

    pub fn rw_remove(&mut self, key: impl AsRef<str>, v: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        let clock = self.commit_clock.clone();
        let obj = self.view(key, Reads::Nothing)?;
        let set = obj.as_rwset().ok_or_else(|| wrong(key, "rw-set"))?;
        let op = ObjectOp::RWSet(set.prepare_remove(v, tag, clock));
        self.push(key, op)
    }

    /// Wildcard remove (rem-wins): defeats even concurrent matching adds
    /// (§4.2.1 — the `enrolled(*, t) := false` effect).
    pub fn rw_remove_matching(
        &mut self,
        key: impl AsRef<str>,
        pattern: ValPattern,
    ) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        let clock = self.commit_clock.clone();
        let obj = self.view(key, Reads::Nothing)?;
        let set = obj.as_rwset().ok_or_else(|| wrong(key, "rw-set"))?;
        let op = ObjectOp::RWSet(set.prepare_remove_matching(pattern, tag, clock));
        self.push(key, op)
    }

    // ------------------------------------------------------------------
    // Add-wins map (entities with payload; touch support)
    // ------------------------------------------------------------------

    pub fn map_put(&mut self, key: impl AsRef<str>, k: Val, v: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        let clock = self.commit_clock.clone();
        let ts = self.ts;
        let obj = self.view(key, Reads::Nothing)?;
        let map = obj.as_awmap().ok_or_else(|| wrong(key, "aw-map"))?;
        let op = ObjectOp::AWMap(map.prepare_put(k, tag, clock, ts, v));
        self.push(key, op)
    }

    /// Touch: restore presence, preserve payload (§4.2.1).
    pub fn map_touch(&mut self, key: impl AsRef<str>, k: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        let clock = self.commit_clock.clone();
        let obj = self.view(key, Reads::Nothing)?;
        let map = obj.as_awmap().ok_or_else(|| wrong(key, "aw-map"))?;
        let op = ObjectOp::AWMap(map.prepare_touch(k, tag, clock));
        self.push(key, op)
    }

    pub fn map_remove(&mut self, key: impl AsRef<str>, k: &Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let clock = self.commit_clock.clone();
        let obj = self.view(key, Reads::Element(k))?;
        let map = obj.as_awmap().ok_or_else(|| wrong(key, "aw-map"))?;
        if let Some(op) = map.prepare_remove(k, clock) {
            let op = ObjectOp::AWMap(op);
            self.push(key, op)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Counters and registers
    // ------------------------------------------------------------------

    pub fn counter_add(&mut self, key: impl AsRef<str>, delta: i64) -> Result<(), StoreError> {
        let key = key.as_ref();
        let origin = self.replica.id();
        let obj = self.view(key, Reads::Nothing)?;
        let c = obj.as_pncounter().ok_or_else(|| wrong(key, "pn-counter"))?;
        let op = ObjectOp::PNCounter(c.prepare(origin, delta));
        self.push(key, op)
    }

    pub fn bcounter_inc(&mut self, key: impl AsRef<str>, n: u64) -> Result<(), StoreError> {
        let key = key.as_ref();
        let origin = self.replica.id();
        let obj = self.view(key, Reads::Nothing)?;
        let c = obj
            .as_bcounter()
            .ok_or_else(|| wrong(key, "bounded-counter"))?;
        let op = ObjectOp::BCounter(c.prepare_inc(origin, n));
        self.push(key, op)
    }

    /// Escrow decrement: fails with [`StoreError::InsufficientRights`]
    /// when the replica lacks local rights.
    pub fn bcounter_dec(&mut self, key: impl AsRef<str>, n: u64) -> Result<(), StoreError> {
        let key = key.as_ref();
        let origin = self.replica.id();
        let obj = self.view(key, Reads::Whole)?;
        let c = obj
            .as_bcounter()
            .ok_or_else(|| wrong(key, "bounded-counter"))?;
        let Some(op) = c.prepare_dec(origin, n) else {
            self.replica.stats.escrow_dec_denied += 1;
            return Err(StoreError::InsufficientRights { key: Key::new(key) });
        };
        let op = ObjectOp::BCounter(op);
        self.push(key, op)
    }

    pub fn bcounter_transfer(
        &mut self,
        key: impl AsRef<str>,
        to: ipa_crdt::ReplicaId,
        n: u64,
    ) -> Result<(), StoreError> {
        let key = key.as_ref();
        let origin = self.replica.id();
        let obj = self.view(key, Reads::Whole)?;
        let c = obj
            .as_bcounter()
            .ok_or_else(|| wrong(key, "bounded-counter"))?;
        let op = c
            .prepare_transfer(origin, to, n)
            .ok_or_else(|| StoreError::InsufficientRights { key: Key::new(key) })?;
        let op = ObjectOp::BCounter(op);
        self.push(key, op)
    }

    /// Locally-visible escrow rights of `holder` on a bounded counter
    /// (read-your-writes: sees this transaction's own decrements and
    /// transfers).
    pub fn bcounter_rights(
        &mut self,
        key: impl AsRef<str>,
        holder: ipa_crdt::ReplicaId,
    ) -> Result<i64, StoreError> {
        let key = key.as_ref();
        let obj = self.view(key, Reads::Whole)?;
        let c = obj
            .as_bcounter()
            .ok_or_else(|| wrong(key, "bounded-counter"))?;
        Ok(c.local_rights(holder))
    }

    /// Is `clock` at or below this replica's causal-stability frontier
    /// over `replicas`? Provisioning policies use this to wait for an
    /// earlier rights-transfer to stabilize before re-granting; the
    /// underlying fold is cached and only recomputed on clock advance
    /// ([`Replica::stability_frontier_cached`]).
    pub fn clock_stable(&mut self, clock: &VClock, replicas: &[ipa_crdt::ReplicaId]) -> bool {
        clock.le(&self.replica.stability_frontier_cached(replicas))
    }

    pub fn lww_write(&mut self, key: impl AsRef<str>, v: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        let ts = self.ts;
        let obj = self.view(key, Reads::Nothing)?;
        let r = obj.as_lww().ok_or_else(|| wrong(key, "lww-register"))?;
        let op = ObjectOp::LWW(r.prepare_write(ts, tag, v));
        self.push(key, op)
    }

    pub fn mv_write(&mut self, key: impl AsRef<str>, v: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let clock = self.commit_clock.clone();
        let obj = self.view(key, Reads::Nothing)?;
        let r = obj.as_mv().ok_or_else(|| wrong(key, "mv-register"))?;
        let op = ObjectOp::MV(r.prepare_write(clock, v));
        self.push(key, op)
    }

    // ------------------------------------------------------------------
    // Compensation set (§4.2.2)
    // ------------------------------------------------------------------

    pub fn compset_add(&mut self, key: impl AsRef<str>, v: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        let obj = self.view(key, Reads::Nothing)?;
        let s = obj
            .as_compset()
            .ok_or_else(|| wrong(key, "compensation-set"))?;
        let op = ObjectOp::CompSet(s.prepare_add(v, tag));
        self.push(key, op)
    }

    /// Constrained read: any violation observed is compensated and the
    /// compensation is committed alongside this transaction's effects.
    pub fn compset_read(
        &mut self,
        key: impl AsRef<str>,
    ) -> Result<CompensatedRead<Val>, StoreError> {
        let key = key.as_ref();
        let read = self
            .view(key, Reads::Whole)?
            .as_compset()
            .ok_or_else(|| wrong(key, "compensation-set"))?
            .read();
        if let Some(comp) = &read.compensation {
            self.push(key, ObjectOp::CompSet(comp.clone()))?;
            self.compensations += 1;
        }
        Ok(read)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Membership across set-like objects (read-your-writes).
    pub fn contains(&mut self, key: impl AsRef<str>, v: &Val) -> Result<bool, StoreError> {
        let key = key.as_ref();
        let obj = self.view(key, Reads::Element(v))?;
        obj.set_contains(v).ok_or_else(|| wrong(key, "set-like"))
    }

    /// The one whole-set read: call `f` on each element of a set-like
    /// object (the keys of a map), in element order, borrowed from the
    /// object the transaction sees. A read that filters or counts copies
    /// nothing. On a compensation set this is the constrained read, with
    /// its compensation co-committed ([`Transaction::compset_read`]).
    pub fn for_each_element(
        &mut self,
        key: impl AsRef<str>,
        f: impl FnMut(&Val),
    ) -> Result<(), StoreError> {
        let key = key.as_ref();
        match self.view(key, Reads::Whole)? {
            Object::AWSet(s) => s.elements().for_each(f),
            Object::RWSet(s) => s.elements().for_each(f),
            Object::AWMap(m) => m.keys().for_each(f),
            Object::CompSet(_) => self.compset_read(key)?.elements.iter().for_each(f),
            _ => return Err(wrong(key, "set-like")),
        }
        Ok(())
    }

    /// Elements of a set-like object, for a caller that keeps them.
    pub fn set_elements(&mut self, key: impl AsRef<str>) -> Result<Vec<Val>, StoreError> {
        let mut elements = Vec::new();
        self.for_each_element(key, |e| elements.push(e.clone()))?;
        Ok(elements)
    }

    /// Number of elements of a set-like object.
    pub fn set_len(&mut self, key: impl AsRef<str>) -> Result<usize, StoreError> {
        let mut n = 0;
        self.for_each_element(key, |_| n += 1)?;
        Ok(n)
    }

    pub fn counter_value(&mut self, key: impl AsRef<str>) -> Result<i64, StoreError> {
        let key = key.as_ref();
        let obj = self.view(key, Reads::Whole)?;
        match obj {
            Object::PNCounter(c) => Ok(c.value()),
            Object::BCounter(c) => Ok(c.value()),
            _ => Err(wrong(key, "counter")),
        }
    }

    pub fn lww_get(&mut self, key: impl AsRef<str>) -> Result<Option<Val>, StoreError> {
        let key = key.as_ref();
        let obj = self.view(key, Reads::Whole)?;
        let r = obj.as_lww().ok_or_else(|| wrong(key, "lww-register"))?;
        Ok(r.get().cloned())
    }

    pub fn map_get(&mut self, key: impl AsRef<str>, k: &Val) -> Result<Option<Val>, StoreError> {
        let key = key.as_ref();
        let obj = self.view(key, Reads::Element(k))?;
        let m = obj.as_awmap().ok_or_else(|| wrong(key, "aw-map"))?;
        Ok(m.get(k).cloned())
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Commit: stage the buffered effects as one batch and apply it.
    /// Read-only transactions commit without consuming a sequence number.
    pub fn commit(self) -> CommitInfo {
        let Transaction {
            replica,
            overlay,
            updates,
            commit_clock,
            ts,
            compensations,
        } = self;
        // Created objects nothing was written to install locally, so later
        // transactions find them. No other copy is installed: a written
        // key is rebuilt from its effects by the batch application below,
        // and installing both would apply every effect twice.
        for (key, shadow) in overlay {
            if !shadow.written {
                replica.insert_object(key, shadow.kind, shadow.obj);
            }
        }
        if updates.is_empty() {
            // Read-only: nothing replicates.
            return CommitInfo {
                clock: replica.clock().clone(),
                updates: 0,
                compensations,
            };
        }
        let batch = UpdateBatch::sealed(
            replica.id(),
            commit_clock.get(replica.id()),
            commit_clock.clone(),
            ts,
            updates,
        );
        let n = batch.updates.len();
        replica.commit_batch(batch);
        CommitInfo {
            clock: commit_clock,
            updates: n,
            compensations,
        }
    }
}

fn wrong(key: &str, expected: &'static str) -> StoreError {
    StoreError::WrongType {
        key: Key::new(key),
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::ReplicaId;

    fn replica() -> Replica {
        Replica::new(ReplicaId(0))
    }

    #[test]
    fn read_your_writes_within_transaction() {
        let mut r = replica();
        let mut tx = r.begin();
        tx.ensure("s", ObjectKind::AWSet).unwrap();
        assert!(!tx.contains("s", &Val::str("x")).unwrap());
        tx.aw_add("s", Val::str("x")).unwrap();
        assert!(
            tx.contains("s", &Val::str("x")).unwrap(),
            "read-your-writes"
        );
        tx.commit();
        assert!(r.object("s").unwrap().set_contains(&Val::str("x")).unwrap());
    }

    #[test]
    fn abort_discards_buffered_updates() {
        let mut r = replica();
        {
            let mut tx = r.begin();
            tx.ensure("s", ObjectKind::AWSet).unwrap();
            tx.aw_add("s", Val::str("x")).unwrap();
            // dropped without commit
        }
        assert!(r.object("s").is_none(), "aborted txn leaves no trace");
        assert!(r.take_outbox().is_empty());
    }

    #[test]
    fn read_only_commit_consumes_no_seq() {
        let mut r = replica();
        let before = r.clock().clone();
        let mut tx = r.begin();
        tx.ensure("s", ObjectKind::AWSet).unwrap();
        let _ = tx.contains("s", &Val::str("x")).unwrap();
        let info = tx.commit();
        assert_eq!(info.updates, 0);
        assert_eq!(r.clock(), &before);
        assert!(r.take_outbox().is_empty());
        // The ensured object persists locally.
        assert!(r.object("s").is_some());
    }

    #[test]
    fn transaction_batch_is_atomic() {
        let mut a = replica();
        let mut b = Replica::new(ReplicaId(1));
        let mut tx = a.begin();
        tx.ensure("x", ObjectKind::AWSet).unwrap();
        tx.ensure("y", ObjectKind::PNCounter).unwrap();
        tx.aw_add("x", Val::str("e")).unwrap();
        tx.counter_add("y", 7).unwrap();
        let info = tx.commit();
        assert_eq!(info.updates, 2);
        let batch = a.take_outbox().pop().unwrap();
        assert_eq!(batch.updates.len(), 2);
        b.receive(batch);
        assert!(b.object("x").unwrap().set_contains(&Val::str("e")).unwrap());
        assert_eq!(b.object("y").unwrap().as_pncounter().unwrap().value(), 7);
    }

    #[test]
    fn wrong_type_errors() {
        let mut r = replica();
        let mut tx = r.begin();
        tx.ensure("c", ObjectKind::PNCounter).unwrap();
        assert!(matches!(
            tx.aw_add("c", Val::str("x")),
            Err(StoreError::WrongType { .. })
        ));
        assert!(matches!(
            tx.counter_add("ghost", 1),
            Err(StoreError::NoSuchObject(_))
        ));
    }

    #[test]
    fn escrow_dec_rejected_without_rights() {
        let mut r = Replica::new(ReplicaId(1)); // rights live at replica 0
        let mut tx = r.begin();
        tx.ensure(
            "b",
            ObjectKind::BCounter {
                floor: 0,
                initial: 5,
            },
        )
        .unwrap();
        assert!(matches!(
            tx.bcounter_dec("b", 1),
            Err(StoreError::InsufficientRights { .. })
        ));
    }

    #[test]
    fn compset_read_co_commits_compensation() {
        let mut a = replica();
        let mut b = Replica::new(ReplicaId(1));
        // Oversell: capacity 1, two adds in separate transactions.
        for user in ["u1", "u2"] {
            let mut tx = a.begin();
            tx.ensure("tickets", ObjectKind::CompSet { capacity: 1 })
                .unwrap();
            tx.compset_add("tickets", Val::str(user)).unwrap();
            tx.commit();
        }
        let mut tx = a.begin();
        let read = tx.compset_read("tickets").unwrap();
        assert_eq!(read.elements.len(), 1);
        assert_eq!(read.cancelled, vec![Val::str("u2")]);
        let info = tx.commit();
        assert_eq!(info.compensations, 1);
        assert_eq!(info.updates, 1, "the compensation is a real update");
        // The compensation replicates like any effect.
        for batch in a.take_outbox() {
            b.receive(batch);
        }
        assert_eq!(
            b.object("tickets").unwrap().as_compset().unwrap().raw_len(),
            1
        );
    }

    #[test]
    fn lamport_timestamps_order_lww_across_replicas() {
        let mut a = replica();
        let mut b = Replica::new(ReplicaId(1));
        let mut tx = a.begin();
        tx.ensure("reg", ObjectKind::LWW).unwrap();
        tx.lww_write("reg", Val::int(1)).unwrap();
        tx.commit();
        for batch in a.take_outbox() {
            b.receive(batch);
        }
        // B's next write must dominate A's (lamport advanced on receive).
        let mut tx = b.begin();
        tx.lww_write("reg", Val::int(2)).unwrap();
        tx.commit();
        for batch in b.take_outbox() {
            a.receive(batch);
        }
        assert_eq!(
            a.object("reg").unwrap().as_lww().unwrap().get(),
            Some(&Val::int(2))
        );
    }
}
