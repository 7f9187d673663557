//! A single data-center replica: the shard tables and their apply path,
//! the integrity gate's quarantine ledger, and the commit / receive
//! orchestration over the stages a replica owns — the durable log
//! (`origin_log.rs`), the causal buffer (`causal.rs`) and stability
//! (`stability.rs`).
//!
//! The key space is partitioned by a stable hash ([`DEFAULT_SHARDS`] ways
//! by default). `apply_batch` splits a batch into same-key runs, each
//! owned by one shard; wide batches may go to a worker pool
//! ([`ApplyDispatch`]). Shards are disjoint, so both paths produce
//! identical state and counters.

use crate::batch::UpdateBatch;
use crate::causal::CausalBuffer;
use crate::hash::{FastMap, FastSet};
use crate::key::Key;
use crate::origin_log::DurableLog;
use crate::stability::Stability;
use crate::txn::Transaction;
use ipa_crdt::{BCounterOp, Object, ObjectKind, ObjectOp, ReplicaId, Tag, VClock};
use std::sync::Arc;

/// Counters exposed for tests and the benchmark harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaStats {
    pub commits: u64,
    pub batches_received: u64,
    pub batches_applied: u64,
    pub updates_applied: u64,
    pub gc_runs: u64,
    /// Crash/restart cycles this replica went through (nemesis).
    pub crashes: u64,
    /// Batches handed out through anti-entropy pulls.
    pub anti_entropy_sent: u64,
    /// Log entries examined while serving anti-entropy pulls (segment
    /// probes + returned batches).
    pub anti_entropy_scanned: u64,
    /// Object-table hash lookups performed by the apply path (one per
    /// same-key run of a batch, object creation included).
    pub apply_table_lookups: u64,
    /// Stability-frontier folds computed for [`Replica::run_gc`]: only
    /// when a clock advanced or the replica set changed since the last
    /// fold.
    pub frontier_folds: u64,
    /// Batches refused by the integrity gate in [`Replica::receive`]:
    /// never applied, never a panic. Zero on every benign run.
    pub batches_quarantined: u64,
    /// Quarantines whose seal mismatched (bit-flip, truncation, mutation).
    pub quarantine_checksum: u64,
    /// Quarantines that passed the seal but forged their sequence number.
    pub quarantine_malformed: u64,
    /// Quarantined `(origin, seq)` slots a clean copy has since filled.
    pub quarantine_repaired: u64,
    /// Escrow rights transfers applied whose donor is this replica.
    pub rights_transfers_out: u64,
    /// Rights units those transfers moved out.
    pub rights_units_out: u64,
    /// Bounded-counter decrements refused locally for lack of escrow
    /// rights (the starvation signal the provisioning policies watch).
    pub escrow_dec_denied: u64,
    /// Whole-object copies transactions made of stored objects: the
    /// first write to a kind not keyed by element (counter, register,
    /// compensation set), or a whole-object question about a set or map
    /// the transaction had already written. Never an element-level access.
    pub txn_objects_copied: u64,
    /// Per-element entries transactions copied out of stored sets and
    /// maps they had written, only once read back: a read of an element
    /// the transaction's effects on the key name (or after an effect that
    /// names none, such as a rem-wins wildcard), and from then on each
    /// element the key's reads or effects name. A write alone copies
    /// nothing. With `txn_objects_copied`: "a write costs its effect",
    /// pinned without a wall clock.
    pub txn_entries_copied: u64,
    /// Members transactions' whole-set and range reads visited
    /// ([`Transaction::for_each_matching`](crate::Transaction::for_each_matching)):
    /// the members of a pattern's leading-component range, or of the
    /// whole set when the pattern fixes no leading component. `set_len`
    /// and element reads visit none. Deterministic, so a per-op cost is
    /// pinned without a wall clock.
    pub read_members_visited: u64,
    /// Stability-frontier reads served by the cached fold.
    pub frontier_cache_hits: u64,
    /// Wide batches handed to the shard-worker pool.
    pub pool_batches: u64,
    /// Per-shard jobs dispatched to pool workers (one per non-empty
    /// shard per pool batch).
    pub pool_dispatches: u64,
}

/// Per-shard apply counters: functions of the delivered batch sequence,
/// whatever the apply path.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Individual updates applied on this shard.
    pub updates_applied: u64,
    /// Object-table hash lookups on this shard.
    pub table_lookups: u64,
    /// Most same-key runs one pool-dispatched batch queued on this shard
    /// (zero unless wide batches ran under [`ApplyDispatch::Pool`]).
    pub pool_queued_hwm: u64,
}

/// One key-space partition: each key's object beside its declared kind,
/// and the shard's apply counters. No update touches two shards, so the
/// pool's workers may apply them concurrently.
#[derive(Debug, Default)]
pub(crate) struct ShardTable {
    objects: FastMap<Key, (ObjectKind, Object)>,
    stats: ShardStats,
}

/// Default number of key-space shards per replica.
pub const DEFAULT_SHARDS: usize = 4;

/// Batches below this update count apply inline even under
/// [`ApplyDispatch::Pool`]: the pool's handoff (≈5 µs per batch, ≈20 µs
/// with every wake-up on one core) outweighs inline apply (≈57 ns per
/// counter update) below ~64 updates. The threaded transport draws the
/// same line: below it, a sender applies the batch itself at a peer whose
/// delivery thread sleeps, because that is cheaper than waking it.
pub const PARALLEL_APPLY_MIN_UPDATES: usize = 64;

/// How a replica applies the runs of a wide batch; narrow batches (under
/// [`PARALLEL_APPLY_MIN_UPDATES`]) always apply inline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ApplyDispatch {
    /// Inline, on the caller's thread: what deterministic transports use.
    #[default]
    Sequential,
    /// The persistent shard-worker pool: what the threaded transport uses.
    Pool,
}

/// Deterministic shard assignment: FNV-1a over the key bytes. It is kept
/// apart from the tables' hasher ([`crate::hash`]): which shard holds a
/// key is layout, pinned by the shard-count-invariance tests.
fn shard_of(key: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Apply one same-key run of `updates[start..start + len]` to its shard,
/// resolving the object once, creation included.
pub(crate) fn apply_run(
    table: &mut ShardTable,
    updates: &[(Key, ObjectKind, ipa_crdt::ObjectOp)],
    start: usize,
    len: usize,
) {
    let (key, kind, _) = &updates[start];
    table.stats.table_lookups += 1;
    let (_, obj) = table
        .objects
        .entry(key.clone())
        .or_insert_with(|| (*kind, Object::new(*kind, creation_owner())));
    for u in &updates[start..start + len] {
        match obj.apply(&u.2) {
            Ok(()) => table.stats.updates_applied += 1,
            Err(e) => {
                // A type mismatch is an application bug: loud in debug
                // builds, skipped in release.
                debug_assert!(false, "object {key}: {e}");
            }
        }
    }
}

/// One replica of the geo-replicated store.
#[derive(Debug)]
pub struct Replica {
    id: ReplicaId,
    /// Applied clock: own commits and delivered remote batches.
    clock: VClock,
    /// Lamport timestamp (drives LWW registers).
    lamport: u64,
    /// Monotonic unique-tag allocator.
    next_tag: u64,
    /// Shard `shard_of(key, shards.len())` owns the key's object.
    shards: Vec<ShardTable>,
    /// `(shard, start, len)` per same-key run of the batch being applied
    /// (reused: the hot path allocates nothing).
    run_scratch: Vec<(u32, u32, u32)>,
    dispatch: ApplyDispatch,
    /// Spawned on the first wide batch under [`ApplyDispatch::Pool`],
    /// dropped when the mode changes.
    pool: Option<crate::pool::ShardPool>,
    /// Remote batches waiting for causal predecessors. Volatile.
    pending: CausalBuffer,
    /// Committed local batches awaiting transport pickup. Volatile.
    outbox: Vec<Arc<UpdateBatch>>,
    /// Every batch applied here: serves anti-entropy pulls, compacted by
    /// [`Replica::run_gc`]. Durable.
    log: DurableLog,
    /// The stability inputs and the one cached frontier fold.
    stability: Stability,
    /// `(origin, seq)` slots refused by the integrity gate and not yet
    /// covered by a clean copy: the repair targets anti-entropy owes.
    /// Durable; empty on every benign run.
    quarantined: FastSet<(ReplicaId, u64)>,
    pub stats: ReplicaStats,
}

impl Replica {
    pub fn new(id: ReplicaId) -> Replica {
        Replica::with_shards(id, DEFAULT_SHARDS)
    }

    /// A replica with an explicit shard count (≥ 1): a local layout
    /// choice that changes no observable state.
    pub fn with_shards(id: ReplicaId, shards: usize) -> Replica {
        assert!(shards >= 1, "a replica needs at least one shard");
        Replica {
            id,
            clock: VClock::new(),
            lamport: 0,
            next_tag: 0,
            shards: (0..shards).map(|_| ShardTable::default()).collect(),
            run_scratch: Vec::new(),
            dispatch: ApplyDispatch::Sequential,
            pool: None,
            pending: CausalBuffer::default(),
            outbox: Vec::new(),
            log: DurableLog::default(),
            stability: Stability::default(),
            quarantined: FastSet::default(),
            stats: ReplicaStats::default(),
        }
    }

    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Number of key-space shards (see [`Replica::with_shards`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard apply counters (deterministic; see [`ShardStats`]).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }

    /// Select how wide batches dispatch their per-shard runs. Leaving
    /// [`ApplyDispatch::Pool`] joins the pool's workers; returning to it
    /// re-spawns them on the next wide batch.
    pub fn set_apply_dispatch(&mut self, dispatch: ApplyDispatch) {
        self.dispatch = dispatch;
        if dispatch != ApplyDispatch::Pool {
            self.pool = None;
        }
    }

    /// Whether the worker pool is currently spawned.
    pub fn pool_active(&self) -> bool {
        self.pool.is_some()
    }

    pub fn clock(&self) -> &VClock {
        &self.clock
    }

    pub fn lamport(&self) -> u64 {
        self.lamport
    }

    /// Read an object: committed state only (a transaction reads its own
    /// overlay for keys it wrote). Looked up by name: no `Key` is built.
    pub fn object<K: AsRef<str> + ?Sized>(&self, key: &K) -> Option<&Object> {
        self.stored(key.as_ref()).map(|(_, _, obj)| obj)
    }

    /// A stored object with the table's own (interned) key and its
    /// declared kind, from one shard lookup.
    pub(crate) fn stored(&self, key: &str) -> Option<(&Key, ObjectKind, &Object)> {
        let shard = &self.shards[shard_of(key, self.shards.len())];
        let (key, (kind, obj)) = shard.objects.get_key_value(key)?;
        Some((key, *kind, obj))
    }

    pub(crate) fn insert_object(&mut self, key: Key, kind: ObjectKind, obj: Object) {
        let s = shard_of(key.as_str(), self.shards.len());
        self.shards[s].objects.insert(key, (kind, obj));
    }

    /// The declared kind of a key, if known.
    pub fn kind_of<K: AsRef<str> + ?Sized>(&self, key: &K) -> Option<ObjectKind> {
        self.stored(key.as_ref()).map(|(_, kind, _)| kind)
    }

    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.objects.len()).sum()
    }

    /// Allocate a fresh unique tag.
    pub(crate) fn alloc_tag(&mut self) -> Tag {
        self.next_tag += 1;
        Tag::new(self.id, self.next_tag)
    }

    /// Begin a highly-available transaction on this replica.
    pub fn begin(&mut self) -> Transaction<'_> {
        Transaction::new(self)
    }

    /// Called by [`Transaction::commit`]: install the batch locally and
    /// stage it for replication.
    pub(crate) fn commit_batch(&mut self, batch: UpdateBatch) {
        debug_assert_eq!(batch.origin, self.id);
        debug_assert!(batch.deliverable_at(&self.clock));
        let batch = Arc::new(batch);
        self.apply_batch(&batch);
        self.outbox.push(Arc::clone(&batch));
        self.after_apply(batch);
        self.stats.commits += 1;
    }

    /// The next local commit's clock (current clock with own component
    /// ticked).
    pub(crate) fn next_commit_clock(&self) -> VClock {
        let mut c = self.clock.clone();
        c.tick(self.id);
        c
    }

    /// Drain the batches committed here since the last call (transport
    /// pickup). Fan-out clones the `Arc`s, never the payload.
    pub fn take_outbox(&mut self) -> Vec<Arc<UpdateBatch>> {
        std::mem::take(&mut self.outbox)
    }

    /// [`Replica::take_outbox`] in place: the outbox keeps its allocation.
    pub(crate) fn drain_outbox(&mut self) -> std::vec::Drain<'_, Arc<UpdateBatch>> {
        self.outbox.drain(..)
    }

    /// Receive a remote batch: buffer it and apply everything that has
    /// become deliverable. Duplicates are dropped, so delivery is
    /// idempotent. Returns the number of batches applied.
    pub fn receive(&mut self, batch: impl Into<Arc<UpdateBatch>>) -> usize {
        let batch = batch.into();
        let valid = batch.passes_gate();
        self.receive_prevalidated(batch, valid)
    }

    /// [`Replica::receive`] with the integrity gate's verdict computed by
    /// the caller ([`UpdateBatch::passes_gate`] on this very batch), so
    /// the threaded transport hashes the payload outside the node lock.
    pub fn receive_prevalidated(
        &mut self,
        batch: impl Into<Arc<UpdateBatch>>,
        valid: bool,
    ) -> usize {
        let batch = batch.into();
        self.stats.batches_received += 1;
        // The gate comes before the clock comparisons: a forged-stale
        // sequence would otherwise pass for an already-seen duplicate.
        if !valid {
            self.quarantine(&batch);
            return 0;
        }
        if batch.origin == self.id || batch.clock.le(&self.clock) {
            return 0; // own or already-seen batch
        }
        // Fast path, the common in-order case: exactly what buffering and
        // draining would do, minus the index round-trip.
        if self.pending.len() == 0 && batch.clock.deliverable_from(batch.origin, &self.clock) {
            self.apply_remote(batch);
            return 1;
        }
        if !self.pending.insert(batch) {
            return 0; // duplicate of an already-buffered batch
        }
        let mut applied = 0;
        while let Some(batch) = self.pending.next_ready(&self.clock) {
            self.apply_remote(batch);
            applied += 1;
        }
        // The clock only moves when something applied, so only then can
        // a buffered copy have become stale.
        if applied > 0 {
            self.pending.purge_covered(&self.clock);
        }
        applied
    }

    /// Apply a causally deliverable remote batch, close its quarantined
    /// slot if it had one, and do the bookkeeping every applied batch owes.
    fn apply_remote(&mut self, batch: Arc<UpdateBatch>) {
        self.apply_batch(&batch);
        self.note_repair(&batch);
        self.after_apply(batch);
    }

    /// What every applied batch owes, local or remote: Lamport time, the
    /// origin's stability input, and the durable log.
    fn after_apply(&mut self, batch: Arc<UpdateBatch>) {
        self.lamport = self.lamport.max(batch.lamport);
        self.stability.observe(batch.origin, &batch.clock);
        self.log.append(batch);
    }

    fn apply_batch(&mut self, batch: &UpdateBatch) {
        // Split the batch into same-key runs, each owned by one shard.
        // Distinct keys are independent objects, so shards may apply
        // their runs in any order, or concurrently.
        let updates = &batch.updates;
        let nshards = self.shards.len();
        self.run_scratch.clear();
        let mut i = 0;
        while i < updates.len() {
            let key = &updates[i].0;
            let mut j = i + 1;
            while j < updates.len() && updates[j].0 == *key {
                j += 1;
            }
            let shard = shard_of(key.as_str(), nshards) as u32;
            self.run_scratch.push((shard, i as u32, (j - i) as u32));
            i = j;
        }
        let before = self.shard_totals();
        let runs = &self.run_scratch;
        let wide = nshards > 1 && updates.len() >= PARALLEL_APPLY_MIN_UPDATES;
        if self.dispatch == ApplyDispatch::Pool && wide {
            let mut counts = vec![0u32; nshards];
            for &(s, _, _) in runs {
                counts[s as usize] += 1;
            }
            // Recorded before dispatch: workers must not race on stats.
            for (shard, &queued) in self.shards.iter_mut().zip(&counts) {
                let hwm = &mut shard.stats.pool_queued_hwm;
                *hwm = (*hwm).max(u64::from(queued));
            }
            let pool = self
                .pool
                .get_or_insert_with(|| crate::pool::ShardPool::new(nshards));
            let jobs = pool.dispatch(&mut self.shards, updates, runs, &counts);
            self.stats.pool_batches += 1;
            self.stats.pool_dispatches += jobs;
        } else {
            for &(s, start, len) in runs {
                let shard = &mut self.shards[s as usize];
                apply_run(shard, updates, start as usize, len as usize);
            }
        }
        let after = self.shard_totals();
        self.stats.apply_table_lookups += after.0 - before.0;
        self.stats.updates_applied += after.1 - before.1;
        // Escrow rights leaving this replica. `apply_batch` runs exactly
        // once per applied batch (duplicates are dropped before
        // delivery), so each transfer is counted once, at its donor.
        for (_, _, op) in updates {
            if let ObjectOp::BCounter(BCounterOp::Transfer { from, n, .. }) = op {
                if *from == self.id {
                    self.stats.rights_transfers_out += 1;
                    self.stats.rights_units_out += n;
                }
            }
        }
        self.clock.merge(&batch.clock);
        self.stats.batches_applied += 1;
    }

    /// `(table_lookups, updates_applied)` summed over shards.
    fn shard_totals(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(l, u), s| {
            (l + s.stats.table_lookups, u + s.stats.updates_applied)
        })
    }

    /// Refuse a batch that failed the integrity gate: count and classify
    /// it, and record its claimed `(origin, seq)` as a repair target. The
    /// ids are untrusted but still the best description of the gap. A
    /// slot already applied, or one no commit can carry (`seq == 0`), is
    /// closed on the spot.
    fn quarantine(&mut self, batch: &UpdateBatch) {
        self.stats.batches_quarantined += 1;
        if !batch.integrity_ok() {
            self.stats.quarantine_checksum += 1;
        } else {
            self.stats.quarantine_malformed += 1;
        }
        if batch.seq < 1 || self.clock.get(batch.origin) >= batch.seq {
            self.stats.quarantine_repaired += 1;
        } else {
            self.quarantined.insert((batch.origin, batch.seq));
        }
    }

    /// A clean batch applied: a quarantined slot it fills is repaired.
    fn note_repair(&mut self, batch: &UpdateBatch) {
        if !self.quarantined.is_empty() && self.quarantined.remove(&(batch.origin, batch.seq)) {
            self.stats.quarantine_repaired += 1;
        }
    }

    /// Quarantined `(origin, seq)` slots still awaiting a clean copy:
    /// zero once every corruption this replica saw is repaired.
    pub fn unrepaired_quarantine(&self) -> usize {
        self.quarantined.len()
    }

    /// Number of buffered (not yet causally deliverable) batches.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// `(origin, seq)` of every buffered batch: anti-entropy frontiers
    /// fold these in, so a batch held here is never re-shipped.
    pub fn pending_ids(&self) -> &[(ReplicaId, u64)] {
        self.pending.ids()
    }

    /// Crash the replica: the outbox and the causal buffer are lost;
    /// objects, clocks and the durable log survive, and anti-entropy
    /// ([`Replica::batches_since`]) repairs the rest. Returns the number
    /// of batches lost.
    pub fn crash(&mut self) -> usize {
        let lost = self.outbox.len() + self.pending.len();
        self.outbox.clear();
        self.pending.clear();
        self.stats.crashes += 1;
        lost
    }

    /// Anti-entropy pull: every logged batch not covered by `since` (the
    /// requester's applied clock), in application order, in
    /// O(origins + missing).
    pub fn batches_since(&mut self, since: &VClock) -> Vec<Arc<UpdateBatch>> {
        let (batches, probed) = self.log.since(since);
        self.stats.anti_entropy_scanned += probed + batches.len() as u64;
        self.stats.anti_entropy_sent += batches.len() as u64;
        batches
    }

    /// Batches in the durable log.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Bumped on every log append or compaction ([`crate::AeCursors`]
    /// trusts a drained pull while it stands still).
    pub fn log_version(&self) -> u64 {
        self.log.version()
    }

    /// The whole durable log in application order (a test oracle).
    pub fn log_snapshot(&self) -> Vec<Arc<UpdateBatch>> {
        self.log.snapshot()
    }

    /// Delivery idempotence oracle: every applied batch advances one clock
    /// component by one, so a double-apply breaks this equality.
    pub fn applied_consistent(&self) -> bool {
        self.stats.batches_applied == self.clock.total()
    }

    /// The causal-stability frontier over `replicas`: the meet of the
    /// latest clocks received from each, dominated by every future delivery.
    pub fn stability_frontier(&self, replicas: &[ReplicaId]) -> VClock {
        self.stability.frontier(replicas)
    }

    /// Compact every object's causal metadata and the durable log under
    /// the stability frontier. Skipped when nothing applied since the
    /// last `run_gc` over the same set: it would change nothing (a
    /// non-empty frontier still counts in `gc_runs`).
    pub fn run_gc(&mut self, replicas: &[ReplicaId]) {
        let due = self.stability.gc_due(replicas);
        let frontier = self.stability.frontier_cached(replicas, &mut self.stats);
        if frontier.is_empty() {
            return;
        }
        if due {
            for shard in &mut self.shards {
                for (_, obj) in shard.objects.values_mut() {
                    obj.compact(frontier);
                }
            }
            self.log.compact_below(frontier);
        }
        self.stats.gc_runs += 1;
    }
}

/// Objects must be created identically at every replica, so initial
/// escrow rights (bounded counters) conventionally belong to replica 0.
pub(crate) fn creation_owner() -> ReplicaId {
    ReplicaId(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::Val;

    fn r(i: u16) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn commit_and_replicate_one_batch() {
        let mut a = Replica::new(r(0));
        let mut b = Replica::new(r(1));
        let mut tx = a.begin();
        tx.ensure("set", ObjectKind::AWSet).unwrap();
        tx.aw_add("set", Val::str("x")).unwrap();
        tx.commit();
        assert_eq!(a.stats.commits, 1);
        assert!(a
            .object("set")
            .unwrap()
            .set_contains(&Val::str("x"))
            .unwrap());

        for batch in a.take_outbox() {
            assert_eq!(b.receive(batch), 1);
        }
        assert!(b
            .object("set")
            .unwrap()
            .set_contains(&Val::str("x"))
            .unwrap());
        assert_eq!(a.clock(), b.clock());
    }

    #[test]
    fn duplicate_batches_are_ignored() {
        let mut a = Replica::new(r(0));
        let mut b = Replica::new(r(1));
        let mut tx = a.begin();
        tx.ensure("c", ObjectKind::PNCounter).unwrap();
        tx.counter_add("c", 5).unwrap();
        tx.commit();
        let batch = a.take_outbox().pop().unwrap();
        assert_eq!(b.receive(batch.clone()), 1);
        assert_eq!(b.receive(batch), 0, "duplicate must be dropped");
        assert_eq!(b.object("c").unwrap().as_pncounter().unwrap().value(), 5);
    }

    #[test]
    fn shard_layout_is_state_invariant() {
        // The same batch stream delivered to a 1-shard and an 8-shard
        // replica must produce identical objects, clocks, durable logs,
        // and global counters — shard count is pure layout.
        let keys: Vec<String> = (0..24).map(|i| format!("obj-{i}")).collect();
        let mut origin = Replica::new(r(0));
        for round in 0..3i64 {
            for (i, key) in keys.iter().enumerate() {
                let mut tx = origin.begin();
                match i % 4 {
                    0 => {
                        tx.ensure(key.as_str(), ObjectKind::AWSet).unwrap();
                        tx.aw_add(key.as_str(), Val::int(round)).unwrap();
                        tx.aw_add(key.as_str(), Val::int(round + 10)).unwrap();
                    }
                    1 => {
                        tx.ensure(key.as_str(), ObjectKind::PNCounter).unwrap();
                        tx.counter_add(key.as_str(), round + 1).unwrap();
                    }
                    2 => {
                        tx.ensure(key.as_str(), ObjectKind::RWSet).unwrap();
                        tx.rw_add(key.as_str(), Val::int(round)).unwrap();
                    }
                    _ => {
                        tx.ensure(key.as_str(), ObjectKind::LWW).unwrap();
                        tx.lww_write(key.as_str(), Val::int(round)).unwrap();
                    }
                }
                tx.commit();
            }
        }
        let batches = origin.take_outbox();
        let mut one = Replica::with_shards(r(1), 1);
        let mut eight = Replica::with_shards(r(1), 8);
        for b in &batches {
            one.receive(Arc::clone(b));
            eight.receive(Arc::clone(b));
        }
        assert_eq!(one.clock(), eight.clock());
        assert_eq!(one.object_count(), eight.object_count());
        for key in &keys {
            let k: Key = key.as_str().into();
            assert_eq!(
                format!("{:?}", one.object(&k)),
                format!("{:?}", eight.object(&k)),
                "object {key} diverged across shard counts"
            );
            assert_eq!(one.kind_of(&k), eight.kind_of(&k));
        }
        assert_eq!(one.stats.updates_applied, eight.stats.updates_applied);
        assert_eq!(
            one.stats.apply_table_lookups, eight.stats.apply_table_lookups,
            "lookup counts are shard-count invariant (same-key runs never straddle shards)"
        );
        let (la, lb) = (one.log_snapshot(), eight.log_snapshot());
        assert_eq!(la.len(), lb.len());
        for (x, y) in la.iter().zip(&lb) {
            assert_eq!(**x, **y, "durable logs must agree batch-for-batch");
        }
        // Per-shard counters decompose the global ones exactly.
        let per: u64 = eight.shard_stats().iter().map(|s| s.updates_applied).sum();
        assert_eq!(per, eight.stats.updates_applied);
        let lk: u64 = eight.shard_stats().iter().map(|s| s.table_lookups).sum();
        assert_eq!(lk, eight.stats.apply_table_lookups);
    }

    #[test]
    fn parallel_apply_matches_sequential() {
        // One bulk batch above the parallel threshold, spread over many
        // keys: the pooled dispatch must be observably identical to
        // the fixed sequential order.
        let keys: Vec<String> = (0..200).map(|i| format!("bulk-{i}")).collect();
        let mut origin = Replica::new(r(0));
        let mut tx = origin.begin();
        for (i, key) in keys.iter().enumerate() {
            tx.ensure(key.as_str(), ObjectKind::PNCounter).unwrap();
            tx.counter_add(key.as_str(), i as i64).unwrap();
            tx.counter_add(key.as_str(), 1).unwrap();
        }
        tx.commit();
        let batch = origin.take_outbox().pop().unwrap();
        assert!(batch.updates.len() >= super::PARALLEL_APPLY_MIN_UPDATES);
        let mut seq = Replica::with_shards(r(1), 4);
        let mut par = Replica::with_shards(r(1), 4);
        par.set_apply_dispatch(ApplyDispatch::Pool);
        seq.receive(Arc::clone(&batch));
        par.receive(batch);
        assert_eq!(seq.clock(), par.clock());
        assert_eq!(seq.stats.updates_applied, par.stats.updates_applied);
        assert_eq!(seq.stats.apply_table_lookups, par.stats.apply_table_lookups);
        for key in &keys {
            let k: Key = key.as_str().into();
            assert_eq!(
                format!("{:?}", seq.object(&k)),
                format!("{:?}", par.object(&k))
            );
        }
        for (a, b) in seq.shard_stats().iter().zip(par.shard_stats()) {
            assert_eq!(a.updates_applied, b.updates_applied);
            assert_eq!(a.table_lookups, b.table_lookups);
        }
    }

    #[test]
    fn same_key_runs_coalesce_into_one_lookup() {
        // Two adds per object per batch: one table lookup per same-key
        // run, creation included, not one per update.
        let mut a = Replica::new(r(0));
        let mut b = Replica::new(r(1));
        for i in 0..10 {
            let mut tx = a.begin();
            for key in ["t:players", "t:enrolled", "t:matches", "t:budget"] {
                tx.ensure(key, ObjectKind::PNCounter).unwrap();
                tx.counter_add(key, i).unwrap();
                tx.counter_add(key, 1).unwrap();
            }
            tx.commit();
        }
        for batch in a.take_outbox() {
            assert_eq!(b.receive(batch), 1);
        }
        assert_eq!(b.stats.updates_applied, 80);
        assert_eq!(b.stats.apply_table_lookups, 40);
    }

    /// Commit `n` batches at `a`, returning the outbox.
    fn commits(a: &mut Replica, n: usize) -> Vec<Arc<UpdateBatch>> {
        for i in 0..n {
            let mut tx = a.begin();
            tx.ensure("c", ObjectKind::PNCounter).unwrap();
            tx.counter_add("c", i as i64 + 1).unwrap();
            tx.commit();
        }
        a.take_outbox()
    }

    #[test]
    fn corrupt_batch_is_quarantined_then_repaired_by_the_clean_copy() {
        let mut a = Replica::new(r(0));
        let mut b = Replica::new(r(1));
        let clean = commits(&mut a, 1).pop().unwrap();

        // Bit-flip the lamport in flight: the origin's seal breaks.
        let mut corrupt = (*clean).clone();
        corrupt.lamport ^= 1 << 3;
        assert_eq!(b.receive(corrupt), 0, "never applied");
        assert_eq!(b.stats.batches_quarantined, 1);
        assert_eq!(b.stats.quarantine_checksum, 1);
        assert_eq!(b.unrepaired_quarantine(), 1);
        assert_eq!(b.clock().total(), 0, "state untouched");

        // The clean copy (anti-entropy re-send) closes the gap.
        assert_eq!(b.receive(clean), 1);
        assert_eq!(b.stats.quarantine_repaired, 1);
        assert_eq!(b.unrepaired_quarantine(), 0);
        assert!(b.applied_consistent());
    }

    #[test]
    fn truncated_and_forged_batches_are_quarantined() {
        let mut a = Replica::new(r(0));
        let mut b = Replica::new(r(1));
        let batches = commits(&mut a, 2);

        // Truncate the first batch's update vector.
        let mut truncated = (*batches[0]).clone();
        truncated.updates.clear();
        assert_eq!(b.receive(truncated), 0);
        assert_eq!(b.stats.quarantine_checksum, 1);

        // Forge the second's sequence (stale replay forgery) *with* a
        // reseal: the seal passes but the envelope is structurally
        // unsound — seq disagrees with the batch's own clock.
        let mut forged = (*batches[1]).clone();
        forged.seq = 1;
        forged.reseal();
        assert_eq!(b.receive(forged), 0);
        assert_eq!(b.stats.quarantine_malformed, 1);
        assert_eq!(b.stats.batches_quarantined, 2);

        // Both corruptions named the same `(origin, seq 1)` slot (the
        // forgery pointed *at* seq 1), so they collapse into one repair
        // target; the clean copies close it and leave nothing pending.
        assert_eq!(b.receive(Arc::clone(&batches[0])), 1);
        assert_eq!(b.receive(Arc::clone(&batches[1])), 1);
        assert_eq!(b.stats.quarantine_repaired, 1);
        assert_eq!(b.unrepaired_quarantine(), 0);
        assert!(b.applied_consistent());
    }

    #[test]
    fn corrupt_duplicate_of_an_applied_batch_counts_repaired_immediately() {
        let mut a = Replica::new(r(0));
        let mut b = Replica::new(r(1));
        let clean = commits(&mut a, 1).pop().unwrap();
        assert_eq!(b.receive(Arc::clone(&clean)), 1);
        // A mutated duplicate arrives after the clean copy applied:
        // quarantined, but there is no gap to repair.
        let mut corrupt = (*clean).clone();
        corrupt.lamport += 99;
        assert_eq!(b.receive(corrupt), 0);
        assert_eq!(b.stats.batches_quarantined, 1);
        assert_eq!(b.stats.quarantine_repaired, 1);
        assert_eq!(b.unrepaired_quarantine(), 0);
    }
}
