//! Highly-available transactions (§2.1, §4.1).
//!
//! A transaction executes entirely at its origin replica: it reads the
//! replica's committed state through a copy-on-write overlay (giving
//! read-your-writes), buffers update effects, and on commit installs them
//! atomically and stages one [`UpdateBatch`] for asynchronous replication.
//! Dropping the transaction without committing aborts it.
//!
//! # The overlay: a transaction copies what it reads back
//!
//! The overlay holds only the keys this transaction created or has
//! written, and of a written set or map only the elements it has read
//! back:
//!
//! 1. **Unwritten, stored key**: never copied. Reads and prepares borrow
//!    the object from the replica's shard table.
//! 2. **Written key, element-level access** (`aw_add`, `aw_remove`,
//!    `rw_*`, `map_put`/`touch`/`remove`/`get`, `contains`): *copy on
//!    read-back*. A write to a stored add-wins set, rem-wins set or
//!    add-wins map only buffers its effect, linked to the key's earlier
//!    ones. An element read takes the stored entry in place unless one of
//!    the key's effects names that element ([`ObjectOp::for_each_elem`])
//!    or names none at all (*opaque*: a rem-wins wildcard). Such a read
//!    materializes a *partial copy* ([`Object::partial_copy`]) by
//!    replaying the key's own effects, each after the entries of the
//!    elements it names are copied in ([`Object::copy_entry`]). From then
//!    on an element's entry is copied on the first read or effect that
//!    names it, and the element is remembered as covered even when the
//!    stored object had no entry; reads, prepares and effects run against
//!    the partial copy.
//! 3. **Written key, whole-object access** (`for_each_matching`, which
//!    `for_each_element` and `set_elements` are built on, `set_len`, and
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
//! Cost: O(entries read back) per transaction, whatever the size of the
//! objects it looks at or writes; O(object) only for a whole-object
//! question about a key the transaction has already written. A replay
//! walks the key's own effects, never the whole buffer.
//! [`ReplicaStats::txn_objects_copied`](crate::ReplicaStats) and
//! [`txn_entries_copied`](crate::ReplicaStats) count both kinds of copy.
//!
//! # Keys are looked up by name, once
//!
//! Every entry point takes its key as `impl AsRef<str>` (a `&str`, a
//! `String`, a [`Key`]) and resolves it once: one overlay probe and at
//! most one shard-table lookup, both with the borrowed name. The owned
//! `Key` that an overlay entry and each buffered effect carry is a clone
//! of the shard table's own; only `ensure` of a key stored nowhere needs a
//! new one (`Into<Key>`: built from a name, taken as it is from a caller
//! that holds a `Key`).
//!
//! # A read visits the members it names
//!
//! [`Transaction::for_each_matching`] reads a pattern whose leading
//! component is exact as one range of the ordered set (the members
//! sharing that component), and walks the set only for a pattern that
//! starts with a wildcard; [`Transaction::set_len`] is the object's own
//! `len`. An application stores each tuple with the component it reads
//! by first. Members visited are counted in
//! [`ReplicaStats::read_members_visited`](crate::ReplicaStats).

use crate::batch::UpdateBatch;
use crate::errors::StoreError;
use crate::hash::FastMap;
use crate::key::Key;
use crate::replica::{creation_owner, Replica};
use ipa_crdt::compset::CompensatedRead;
use ipa_crdt::{Object, ObjectKind, ObjectOp, VClock, Val, ValPattern};
use std::ops::Bound;

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

/// The buffered effects, in execution order, each linked to the next
/// effect on the same key so that a key's own effects replay without a
/// walk of the rest.
#[derive(Default)]
struct Buffer {
    updates: Vec<Update>,
    /// `next[i]`: the position of the next effect on `updates[i]`'s key.
    next: Vec<Option<usize>>,
}

/// The first and last positions of one key's effects in the [`Buffer`].
type Ends = Option<(usize, usize)>;

impl Buffer {
    fn push(&mut self, ends: &mut Ends, update: Update) {
        let at = self.updates.len();
        self.updates.push(update);
        self.next.push(None);
        match ends {
            Some((_, last)) => self.next[std::mem::replace(last, at)] = Some(at),
            None => *ends = Some((at, at)),
        }
    }

    /// One key's effects, in execution order.
    fn of(&self, ends: Ends) -> impl Iterator<Item = &ObjectOp> {
        std::iter::successors(ends.map(|(first, _)| first), |&at| self.next[at])
            .map(|at| &self.updates[at].2)
    }
}

/// Copies made while resolving one access, added to the replica's
/// counters once the stored object is no longer borrowed.
#[derive(Default)]
struct Copied {
    objects: u64,
    entries: u64,
}

/// What the overlay holds of one key's object.
enum Held {
    /// Rule 2 before any read-back: no copy; the stored object answers
    /// every element its effects do not name.
    Deferred,
    /// Rule 2 after a read-back.
    Partial(PartialCopy),
    /// Rules 3 and 4: the whole object as this transaction sees it.
    Whole(Object),
}

/// A partial copy of a stored object, and the elements, sorted, whose
/// stored entry (or lack of one) it already reflects.
struct PartialCopy {
    obj: Object,
    covered: Vec<Val>,
}

/// The overlay's entry for one key the transaction created or has written.
struct Shadow {
    /// The key as the table that holds it spells it: the shard table's
    /// own for a stored object, built once for a created one. Every
    /// buffered effect on the key carries a clone of it.
    key: Key,
    kind: ObjectKind,
    held: Held,
    /// Where the key's effects sit in the buffer. `None` only on a created
    /// object nothing was written to, which commit installs as it is.
    effects: Ends,
}

/// The kinds whose state is keyed by element, so that a write to a stored
/// one defers its copy (rule 2); the rest are copied whole (rule 4).
fn keyed_by_element(kind: ObjectKind) -> bool {
    matches!(
        kind,
        ObjectKind::AWSet | ObjectKind::RWSet | ObjectKind::AWMap
    )
}

impl PartialCopy {
    /// Bring `e`'s stored entry in, once.
    fn cover(&mut self, stored: &Object, e: &Val, copied: &mut Copied) {
        let Err(at) = self.covered.binary_search(e) else {
            return;
        };
        self.covered.insert(at, e.clone());
        if stored.copy_entry(e, &mut self.obj) {
            copied.entries += 1;
        }
    }

    /// Apply an effect, the elements it names covered first: an entry
    /// copied in afterwards would overwrite the effect.
    fn apply(&mut self, stored: &Object, op: &ObjectOp, copied: &mut Copied) {
        op.for_each_elem(|e| self.cover(stored, e, copied));
        self.obj
            .apply(op)
            .expect("prepared against this object's kind");
    }
}

impl Shadow {
    /// Whether a read of `e` must see this transaction's effects: one of
    /// them names `e`, or one is opaque (names no element).
    fn read_back(&self, e: &Val, buffer: &Buffer) -> bool {
        buffer.of(self.effects).any(|op| {
            let (mut names_none, mut names_e) = (true, false);
            op.for_each_elem(|x| {
                names_none = false;
                names_e |= x == e;
            });
            names_none || names_e
        })
    }

    /// The object a read runs against, with what the read depends on
    /// brought in (rules 2 and 3). `stored` is `None` only for a whole
    /// copy, which needs nothing from it.
    fn view<'s>(
        &'s mut self,
        stored: Option<&'s Object>,
        reads: Reads<'_>,
        buffer: &Buffer,
        copied: &mut Copied,
    ) -> &'s Object {
        if let Some(stored) = stored {
            match reads {
                Reads::Nothing => {}
                Reads::Element(e) => {
                    if matches!(self.held, Held::Deferred) && self.read_back(e, buffer) {
                        let mut copy = PartialCopy {
                            obj: stored
                                .partial_copy()
                                .expect("a deferred key is keyed by element"),
                            covered: Vec::new(),
                        };
                        for op in buffer.of(self.effects) {
                            copy.apply(stored, op, copied);
                        }
                        self.held = Held::Partial(copy);
                    }
                    if let Held::Partial(copy) = &mut self.held {
                        copy.cover(stored, e, copied);
                    }
                }
                Reads::Whole => {
                    let mut obj = stored.clone();
                    copied.objects += 1;
                    for op in buffer.of(self.effects) {
                        obj.apply(op).expect("prepared against this object's kind");
                    }
                    self.held = Held::Whole(obj);
                }
            }
        }
        match &self.held {
            Held::Deferred => stored.expect("a deferred key is stored"),
            Held::Partial(PartialCopy { obj, .. }) | Held::Whole(obj) => obj,
        }
    }

    /// Buffer an effect on this key and apply it to whatever copy the
    /// overlay holds (none while deferred).
    fn record(
        &mut self,
        op: ObjectOp,
        stored: Option<&Object>,
        buffer: &mut Buffer,
        copied: &mut Copied,
    ) {
        match &mut self.held {
            Held::Deferred => {}
            Held::Partial(copy) => {
                let stored = stored.expect("a partial copy is of a stored object");
                copy.apply(stored, &op, copied);
            }
            Held::Whole(obj) => obj.apply(&op).expect("prepared against this object's kind"),
        }
        buffer.push(&mut self.effects, (self.key.clone(), self.kind, op));
    }
}

/// How much of a key's object a read depends on: what has to be in a
/// copy before the read may run against it.
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
    overlay: FastMap<Key, Shadow>,
    buffer: Buffer,
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
            overlay: FastMap::default(),
            buffer: Buffer::default(),
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
                    held: Held::Whole(Object::new(kind, creation_owner())),
                    effects: None,
                },
            );
        }
        Ok(())
    }

    /// The one path every entry point takes: run `prepare` against the
    /// object a read of `key` sees, then buffer the effect it returns, if
    /// any. The stored object is read in place until the key is written
    /// (rule 1); the first write to a stored key defers its copy or, for
    /// a kind not keyed by element, copies it whole (rules 2 and 4).
    fn access<R>(
        &mut self,
        key: &str,
        reads: Reads<'_>,
        prepare: impl FnOnce(&Object) -> Result<(R, Option<ObjectOp>), StoreError>,
    ) -> Result<R, StoreError> {
        let (replica, buffer) = (&*self.replica, &mut self.buffer);
        let mut copied = Copied::default();
        let out = match self.overlay.get_mut(key) {
            Some(shadow) => {
                let stored = match shadow.held {
                    Held::Whole(_) => None,
                    _ => replica.object(key),
                };
                let obj = shadow.view(stored, reads, buffer, &mut copied);
                prepare(obj).map(|(out, op)| {
                    if let Some(op) = op {
                        shadow.record(op, stored, buffer, &mut copied);
                    }
                    out
                })
            }
            None => match replica.stored(key) {
                None => Err(StoreError::NoSuchObject(Key::new(key))),
                Some((table_key, kind, stored)) => prepare(stored).map(|(out, op)| {
                    if let Some(op) = op {
                        let held = if keyed_by_element(kind) {
                            Held::Deferred
                        } else {
                            copied.objects += 1;
                            Held::Whole(stored.clone())
                        };
                        let mut shadow = Shadow {
                            key: table_key.clone(),
                            kind,
                            held,
                            effects: None,
                        };
                        shadow.record(op, Some(stored), buffer, &mut copied);
                        self.overlay.insert(table_key.clone(), shadow);
                    }
                    out
                }),
            },
        };
        self.replica.stats.txn_objects_copied += copied.objects;
        self.replica.stats.txn_entries_copied += copied.entries;
        out
    }

    /// A read: `f` against the object the transaction sees.
    fn read<R>(
        &mut self,
        key: &str,
        reads: Reads<'_>,
        f: impl FnOnce(&Object) -> Result<R, StoreError>,
    ) -> Result<R, StoreError> {
        self.access(key, reads, |obj| Ok((f(obj)?, None)))
    }

    /// A write: the effect `prepare` returns, if any, is buffered.
    fn write(
        &mut self,
        key: &str,
        reads: Reads<'_>,
        prepare: impl FnOnce(&Object) -> Result<Option<ObjectOp>, StoreError>,
    ) -> Result<(), StoreError> {
        self.access(key, reads, |obj| Ok(((), prepare(obj)?)))
    }

    // ------------------------------------------------------------------
    // Add-wins set
    // ------------------------------------------------------------------

    pub fn aw_add(&mut self, key: impl AsRef<str>, v: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        self.write(key, Reads::Nothing, |obj| {
            let set = obj.as_awset().ok_or_else(|| wrong(key, "aw-set"))?;
            Ok(Some(ObjectOp::AWSet(set.prepare_add(v, tag))))
        })
    }

    pub fn aw_remove(&mut self, key: impl AsRef<str>, v: &Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        self.write(key, Reads::Element(v), |obj| {
            let set = obj.as_awset().ok_or_else(|| wrong(key, "aw-set"))?;
            Ok(set.prepare_remove(v).map(ObjectOp::AWSet))
        })
    }

    /// Wildcard remove (add-wins): removes observed matching elements.
    pub fn aw_remove_matching(
        &mut self,
        key: impl AsRef<str>,
        pattern: &ValPattern,
    ) -> Result<(), StoreError> {
        let key = key.as_ref();
        self.write(key, Reads::Whole, |obj| {
            let set = obj.as_awset().ok_or_else(|| wrong(key, "aw-set"))?;
            let op = set.prepare_remove_matching(pattern);
            Ok(Some(ObjectOp::AWSet(op)))
        })
    }

    // ------------------------------------------------------------------
    // Rem-wins set
    // ------------------------------------------------------------------

    pub fn rw_add(&mut self, key: impl AsRef<str>, v: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        let clock = self.commit_clock.clone();
        self.write(key, Reads::Nothing, |obj| {
            let set = obj.as_rwset().ok_or_else(|| wrong(key, "rw-set"))?;
            Ok(Some(ObjectOp::RWSet(Box::new(
                set.prepare_add(v, tag, clock),
            ))))
        })
    }

    pub fn rw_remove(&mut self, key: impl AsRef<str>, v: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        let clock = self.commit_clock.clone();
        self.write(key, Reads::Nothing, |obj| {
            let set = obj.as_rwset().ok_or_else(|| wrong(key, "rw-set"))?;
            Ok(Some(ObjectOp::RWSet(Box::new(
                set.prepare_remove(v, tag, clock),
            ))))
        })
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
        self.write(key, Reads::Nothing, |obj| {
            let set = obj.as_rwset().ok_or_else(|| wrong(key, "rw-set"))?;
            let op = set.prepare_remove_matching(pattern, tag, clock);
            Ok(Some(ObjectOp::RWSet(Box::new(op))))
        })
    }

    // ------------------------------------------------------------------
    // Add-wins map (entities with payload; touch support)
    // ------------------------------------------------------------------

    pub fn map_put(&mut self, key: impl AsRef<str>, k: Val, v: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        let clock = self.commit_clock.clone();
        let ts = self.ts;
        self.write(key, Reads::Nothing, |obj| {
            let map = obj.as_awmap().ok_or_else(|| wrong(key, "aw-map"))?;
            Ok(Some(ObjectOp::AWMap(Box::new(
                map.prepare_put(k, tag, clock, ts, v),
            ))))
        })
    }

    /// Touch: restore presence, preserve payload (§4.2.1).
    pub fn map_touch(&mut self, key: impl AsRef<str>, k: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        let clock = self.commit_clock.clone();
        self.write(key, Reads::Nothing, |obj| {
            let map = obj.as_awmap().ok_or_else(|| wrong(key, "aw-map"))?;
            Ok(Some(ObjectOp::AWMap(Box::new(
                map.prepare_touch(k, tag, clock),
            ))))
        })
    }

    pub fn map_remove(&mut self, key: impl AsRef<str>, k: &Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let clock = self.commit_clock.clone();
        self.write(key, Reads::Element(k), |obj| {
            let map = obj.as_awmap().ok_or_else(|| wrong(key, "aw-map"))?;
            Ok(map
                .prepare_remove(k, clock)
                .map(|op| ObjectOp::AWMap(Box::new(op))))
        })
    }

    // ------------------------------------------------------------------
    // Counters and registers
    // ------------------------------------------------------------------

    pub fn counter_add(&mut self, key: impl AsRef<str>, delta: i64) -> Result<(), StoreError> {
        let key = key.as_ref();
        let origin = self.replica.id();
        self.write(key, Reads::Nothing, |obj| {
            let c = obj.as_pncounter().ok_or_else(|| wrong(key, "pn-counter"))?;
            Ok(Some(ObjectOp::PNCounter(c.prepare(origin, delta))))
        })
    }

    pub fn bcounter_inc(&mut self, key: impl AsRef<str>, n: u64) -> Result<(), StoreError> {
        let key = key.as_ref();
        let origin = self.replica.id();
        self.write(key, Reads::Nothing, |obj| {
            let c = obj
                .as_bcounter()
                .ok_or_else(|| wrong(key, "bounded-counter"))?;
            Ok(Some(ObjectOp::BCounter(c.prepare_inc(origin, n))))
        })
    }

    /// Escrow decrement: fails with [`StoreError::InsufficientRights`]
    /// when the replica lacks local rights.
    pub fn bcounter_dec(&mut self, key: impl AsRef<str>, n: u64) -> Result<(), StoreError> {
        let key = key.as_ref();
        let origin = self.replica.id();
        let out = self.write(key, Reads::Whole, |obj| {
            let c = obj
                .as_bcounter()
                .ok_or_else(|| wrong(key, "bounded-counter"))?;
            let op = c
                .prepare_dec(origin, n)
                .ok_or_else(|| StoreError::InsufficientRights { key: Key::new(key) })?;
            Ok(Some(ObjectOp::BCounter(op)))
        });
        if let Err(StoreError::InsufficientRights { .. }) = out {
            self.replica.stats.escrow_dec_denied += 1;
        }
        out
    }

    pub fn bcounter_transfer(
        &mut self,
        key: impl AsRef<str>,
        to: ipa_crdt::ReplicaId,
        n: u64,
    ) -> Result<(), StoreError> {
        let key = key.as_ref();
        let origin = self.replica.id();
        self.write(key, Reads::Whole, |obj| {
            let c = obj
                .as_bcounter()
                .ok_or_else(|| wrong(key, "bounded-counter"))?;
            let op = c
                .prepare_transfer(origin, to, n)
                .ok_or_else(|| StoreError::InsufficientRights { key: Key::new(key) })?;
            Ok(Some(ObjectOp::BCounter(op)))
        })
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
        self.read(key, Reads::Whole, |obj| {
            let c = obj
                .as_bcounter()
                .ok_or_else(|| wrong(key, "bounded-counter"))?;
            Ok(c.local_rights(holder))
        })
    }

    pub fn lww_write(&mut self, key: impl AsRef<str>, v: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        let ts = self.ts;
        self.write(key, Reads::Nothing, |obj| {
            let r = obj.as_lww().ok_or_else(|| wrong(key, "lww-register"))?;
            Ok(Some(ObjectOp::LWW(r.prepare_write(ts, tag, v))))
        })
    }

    // ------------------------------------------------------------------
    // Compensation set (§4.2.2)
    // ------------------------------------------------------------------

    pub fn compset_add(&mut self, key: impl AsRef<str>, v: Val) -> Result<(), StoreError> {
        let key = key.as_ref();
        let tag = self.replica.alloc_tag();
        self.write(key, Reads::Nothing, |obj| {
            let s = obj
                .as_compset()
                .ok_or_else(|| wrong(key, "compensation-set"))?;
            Ok(Some(ObjectOp::CompSet(s.prepare_add(v, tag))))
        })
    }

    /// Constrained read: any violation observed is compensated and the
    /// compensation is committed alongside this transaction's effects.
    pub fn compset_read(
        &mut self,
        key: impl AsRef<str>,
    ) -> Result<CompensatedRead<Val>, StoreError> {
        let key = key.as_ref();
        let read = self.access(key, Reads::Whole, |obj| {
            let read = obj
                .as_compset()
                .ok_or_else(|| wrong(key, "compensation-set"))?
                .read();
            let comp = read.compensation.clone().map(ObjectOp::CompSet);
            Ok((read, comp))
        })?;
        self.compensations += usize::from(read.compensation.is_some());
        Ok(read)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Membership across set-like objects (read-your-writes).
    pub fn contains(&mut self, key: impl AsRef<str>, v: &Val) -> Result<bool, StoreError> {
        let key = key.as_ref();
        self.read(key, Reads::Element(v), |obj| {
            obj.set_contains(v).ok_or_else(|| wrong(key, "set-like"))
        })
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
        self.for_each_matching(key, &ValPattern::Any, f)
    }

    /// Call `f` on each element of a set-like object (the keys of a map)
    /// that `pattern` matches, in element order: exactly what
    /// [`Transaction::for_each_element`] followed by `pattern.matches`
    /// yields.
    ///
    /// When the pattern fixes the leading component (or is one exact
    /// value) this visits only the members that share it: a range of the
    /// ordered set from [`ValPattern::first_candidate`] while
    /// [`ValPattern::leads`] holds, at the cost of one bound, built once.
    /// Otherwise it walks the whole set and filters. A compensation set
    /// is read through its constrained read, whose compensation is
    /// co-committed, and filtered. Members visited are counted in
    /// [`ReplicaStats::read_members_visited`](crate::ReplicaStats).
    pub fn for_each_matching(
        &mut self,
        key: impl AsRef<str>,
        pattern: &ValPattern,
        mut f: impl FnMut(&Val),
    ) -> Result<(), StoreError> {
        let key = key.as_ref();
        let mut visited = 0;
        let compensated = self.access(key, Reads::Whole, |obj| {
            let mut visit = |e: &Val| {
                visited += 1;
                if pattern.matches(e) {
                    f(e);
                }
            };
            if let Object::CompSet(s) = obj {
                let read = s.read();
                read.elements.iter().for_each(visit);
                let comp = read.compensation.map(ObjectOp::CompSet);
                return Ok((comp.is_some(), comp));
            }
            let first = pattern.first_candidate();
            let from = first.as_deref().map_or(Bound::Unbounded, Bound::Included);
            let range = (from, Bound::Unbounded);
            // A range ends at the first member past the leading component.
            let ranged = first.is_some();
            let mut in_run = |e: &Val| {
                let go_on = !ranged || pattern.leads(e);
                if go_on {
                    visit(e);
                }
                go_on
            };
            match obj {
                Object::AWSet(s) => s.range(range).all(&mut in_run),
                Object::RWSet(s) => s.range(range).all(&mut in_run),
                Object::AWMap(m) => m.range(range).all(&mut in_run),
                _ => return Err(wrong(key, "set-like")),
            };
            Ok((false, None))
        })?;
        self.replica.stats.read_members_visited += visited;
        self.compensations += usize::from(compensated);
        Ok(())
    }

    /// Elements of a set-like object, for a caller that keeps them.
    pub fn set_elements(&mut self, key: impl AsRef<str>) -> Result<Vec<Val>, StoreError> {
        let mut elements = Vec::new();
        self.for_each_element(key, |e| elements.push(e.clone()))?;
        Ok(elements)
    }

    /// Number of elements of a set-like object: the object's own `len`,
    /// with no member visited (O(1) on an add-wins set). On a
    /// compensation set, the constrained read's, its compensation
    /// co-committed.
    pub fn set_len(&mut self, key: impl AsRef<str>) -> Result<usize, StoreError> {
        let key = key.as_ref();
        let (n, compensated) = self.access(key, Reads::Whole, |obj| {
            let n = match obj {
                Object::AWSet(s) => s.len(),
                Object::RWSet(s) => s.len(),
                Object::AWMap(m) => m.len(),
                Object::CompSet(s) => {
                    let read = s.read();
                    let comp = read.compensation.map(ObjectOp::CompSet);
                    return Ok(((read.elements.len(), comp.is_some()), comp));
                }
                _ => return Err(wrong(key, "set-like")),
            };
            Ok(((n, false), None))
        })?;
        self.compensations += usize::from(compensated);
        Ok(n)
    }

    pub fn counter_value(&mut self, key: impl AsRef<str>) -> Result<i64, StoreError> {
        let key = key.as_ref();
        self.read(key, Reads::Whole, |obj| match obj {
            Object::PNCounter(c) => Ok(c.value()),
            Object::BCounter(c) => Ok(c.value()),
            _ => Err(wrong(key, "counter")),
        })
    }

    pub fn lww_get(&mut self, key: impl AsRef<str>) -> Result<Option<Val>, StoreError> {
        let key = key.as_ref();
        self.read(key, Reads::Whole, |obj| {
            let r = obj.as_lww().ok_or_else(|| wrong(key, "lww-register"))?;
            Ok(r.get().cloned())
        })
    }

    pub fn map_get(&mut self, key: impl AsRef<str>, k: &Val) -> Result<Option<Val>, StoreError> {
        let key = key.as_ref();
        self.read(key, Reads::Element(k), |obj| {
            let m = obj.as_awmap().ok_or_else(|| wrong(key, "aw-map"))?;
            Ok(m.get(k).cloned())
        })
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
            buffer,
            commit_clock,
            ts,
            compensations,
        } = self;
        // Created objects nothing was written to install locally, so later
        // transactions find them. No other copy is installed: a written
        // key is rebuilt from its effects by the batch application below,
        // and installing both would apply every effect twice.
        for (key, shadow) in overlay {
            if let (None, Held::Whole(obj)) = (shadow.effects, shadow.held) {
                replica.insert_object(key, shadow.kind, obj);
            }
        }
        let updates = buffer.updates;
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
    use proptest::prelude::TestCaseError;
    use proptest::prop_assert;
    use proptest::prop_assert_eq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Components of the property test's members: strings and integers
    /// side by side in the order.
    fn leaf(j: u16) -> Val {
        match j % 8 {
            k @ 0..=3 => Val::str(["", "a", "ab", "b"][usize::from(k)]),
            k => Val::int([-1, 0, 1, 7][usize::from(k - 4)]),
        }
    }

    /// One of 8 bare values, 64 pairs and 512 triples, so that a range
    /// meets neighbours of another shape or variant at both ends.
    fn member(rng: &mut StdRng) -> Val {
        let i = rng.gen_range(0..2560u16);
        let (a, b, c) = (leaf(i), leaf(i / 8), leaf(i / 64));
        match i % 5 {
            0 => a,
            1 | 2 => Val::pair(a, b),
            _ => Val::triple(a, b, c),
        }
    }

    fn pattern(rng: &mut StdRng) -> ValPattern {
        let part = |rng: &mut StdRng| match rng.gen_range(0..3) {
            0 => ValPattern::Any,
            _ => ValPattern::Exact(leaf(rng.gen_range(0..8))),
        };
        match rng.gen_range(0..5) {
            0 => ValPattern::Any,
            1 => ValPattern::Exact(member(rng)),
            2 | 3 => ValPattern::pair(part(rng), part(rng)),
            _ => ValPattern::triple(part(rng), part(rng), part(rng)),
        }
    }

    /// One random edit of a set-like object, through the transaction.
    fn edit(tx: &mut Transaction<'_>, key: &str, kind: ObjectKind, rng: &mut StdRng) {
        let v = member(rng);
        let wildcard = rng.gen_bool(1.0 / 12.0);
        match kind {
            ObjectKind::AWSet if wildcard => tx.aw_remove_matching(key, &pattern(rng)),
            ObjectKind::AWSet if rng.gen_bool(1.0 / 4.0) => tx.aw_remove(key, &v),
            ObjectKind::AWSet => tx.aw_add(key, v),
            ObjectKind::RWSet if wildcard => tx.rw_remove_matching(key, pattern(rng)),
            ObjectKind::RWSet if rng.gen_bool(1.0 / 4.0) => tx.rw_remove(key, v),
            ObjectKind::RWSet => tx.rw_add(key, v),
            ObjectKind::AWMap if rng.gen_bool(1.0 / 4.0) => tx.map_remove(key, &v),
            ObjectKind::AWMap if rng.gen_bool(1.0 / 4.0) => tx.map_touch(key, v),
            ObjectKind::AWMap => tx.map_put(key, v, Val::int(0)),
            _ => unreachable!("a set-like kind"),
        }
        .unwrap();
    }

    /// `for_each_matching` against `for_each_element` and the filter, and
    /// `set_len` against the walk, on what `tx` sees of `key`; and the
    /// members a range read visits are the ones sharing the pattern's
    /// leading component.
    fn check_reads(
        tx: &mut Transaction<'_>,
        key: &str,
        rng: &mut StdRng,
    ) -> Result<(), TestCaseError> {
        let all = tx.set_elements(key).unwrap();
        prop_assert_eq!(tx.set_len(key).unwrap(), all.len());
        for _ in 0..6 {
            let p = pattern(rng);
            let expected: Vec<&Val> = all.iter().filter(|e| p.matches(e)).collect();
            let before = tx.replica.stats.read_members_visited;
            let mut got = Vec::new();
            tx.for_each_matching(key, &p, |e| got.push(e.clone()))
                .unwrap();
            prop_assert!(got.iter().eq(expected), "{} on {}", p, key);
            let visited = tx.replica.stats.read_members_visited - before;
            let leading = match p.first_candidate() {
                Some(_) => all.iter().filter(|e| p.leads(e)).count(),
                None => all.len(),
            };
            prop_assert_eq!(visited, leading as u64, "{} on {}", p, key);
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Stored add-wins sets on both sides of the vector/chunk-list
        /// threshold, rem-wins sets with wildcards and maps, read stored
        /// and then with the same transaction's writes buffered: a range
        /// read yields exactly what a whole-set walk and the pattern
        /// filter yield, in the same order, and `set_len` counts the walk.
        #[test]
        fn matching_reads_equal_the_filtered_walk(seed in 0u64..u64::MAX, size in 0usize..240) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut r = replica();
            let kinds = [ObjectKind::AWSet, ObjectKind::RWSet, ObjectKind::AWMap];
            let mut tx = r.begin();
            for (i, kind) in kinds.into_iter().enumerate() {
                let key = format!("k{i}");
                tx.ensure(key.as_str(), kind).unwrap();
                for _ in 0..size {
                    edit(&mut tx, &key, kind, &mut rng);
                }
            }
            tx.commit();
            let mut tx = r.begin();
            for (i, kind) in kinds.into_iter().enumerate() {
                let key = format!("k{i}");
                check_reads(&mut tx, &key, &mut rng)?;
                for _ in 0..rng.gen_range(1..8) {
                    edit(&mut tx, &key, kind, &mut rng);
                }
                check_reads(&mut tx, &key, &mut rng)?;
            }
        }
    }

    #[test]
    fn a_matching_read_of_a_compensation_set_co_commits_its_compensation() {
        let mut a = replica();
        for user in ["u1", "u2", "u3"] {
            let mut tx = a.begin();
            tx.ensure("tickets", ObjectKind::CompSet { capacity: 1 })
                .unwrap();
            tx.compset_add("tickets", Val::str(user)).unwrap();
            tx.commit();
        }
        let mut tx = a.begin();
        let mut seen = Vec::new();
        let u2 = ValPattern::exact("u2");
        tx.for_each_matching("tickets", &u2, |e| seen.push(e.clone()))
            .unwrap();
        assert!(seen.is_empty(), "u2 is excess: masked, then cancelled");
        assert_eq!(tx.set_len("tickets").unwrap(), 1, "read-your-writes");
        let info = tx.commit();
        assert_eq!((info.compensations, info.updates), (1, 1));
        let stored = a.object("tickets").unwrap().as_compset().unwrap();
        assert_eq!(stored.raw_len(), 1);
        // `set_len` on an oversold set compensates too.
        for user in ["u4", "u5"] {
            let mut tx = a.begin();
            tx.compset_add("tickets", Val::str(user)).unwrap();
            tx.commit();
        }
        let mut tx = a.begin();
        assert_eq!(tx.set_len("tickets").unwrap(), 1);
        assert_eq!(tx.commit().compensations, 1);
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
