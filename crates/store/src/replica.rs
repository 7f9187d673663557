//! A single data-center replica: object storage, causal delivery,
//! stability tracking and garbage collection.
//!
//! The replication data path is log-structured: the durable batch log is
//! segmented per origin and indexed by origin sequence, so an
//! anti-entropy pull seeks straight to the requester's causal gap in
//! O(origins) and pays only for the batches it returns — never a scan of
//! the whole log. The pending (not-yet-deliverable) buffer is likewise
//! indexed by `(origin, seq)`, making duplicate detection O(1) and the
//! delivery drain O(origins) per applied batch.
//!
//! Object storage is **sharded**: the key space is partitioned by a
//! stable hash ([`DEFAULT_SHARDS`] ways by default) and each shard owns
//! its own object map and apply counters. `apply_batch`
//! splits a batch into per-shard same-key runs; deterministic transports
//! apply shards in fixed index order, the threaded transport hands wide
//! batches to a **persistent shard-worker pool** — one long-lived thread
//! per shard, fed over bounded channels with park/unpark completion
//! ([`ApplyDispatch`]) — both produce identical state, logs, and
//! counters, because shards are disjoint by construction and the
//! dispatcher blocks until every worker finishes.

use crate::batch::UpdateBatch;
use crate::errors::StoreError;
use crate::key::Key;
use crate::txn::Transaction;
use ipa_crdt::{BCounterOp, Object, ObjectKind, ObjectOp, ReplicaId, Tag, VClock};
use std::collections::{BTreeMap, HashMap, VecDeque};
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
    /// Stability-frontier folds actually computed — by [`Replica::run_gc`]
    /// or [`Replica::stability_frontier_cached`]. The fold is
    /// event-driven: it only runs when a clock advanced since the last
    /// fold (or the replica set changed), so on an idle replica
    /// `gc_runs` keeps counting while this counter stands still.
    pub frontier_folds: u64,
    /// Batches refused by the integrity gate in [`Replica::receive`]:
    /// failed checksum or structurally unsound envelope. Quarantined
    /// input is never applied and never panics the replica; the oracles
    /// read this family to distinguish "survived an adversarial
    /// transport" from "never saw one". Zero on every benign run.
    pub batches_quarantined: u64,
    /// Quarantines whose stored seal mismatched the envelope (bit-flip,
    /// truncation, payload mutation).
    pub quarantine_checksum: u64,
    /// Quarantines that passed the seal but were structurally unsound
    /// (forged/stale sequence number disagreeing with the batch clock).
    pub quarantine_malformed: u64,
    /// Quarantined `(origin, seq)` slots for which a clean copy has since
    /// applied (anti-entropy repair closing the gap corruption opened).
    pub quarantine_repaired: u64,
    /// Escrow rights-transfer updates applied whose source is this
    /// replica (rights leaving: this replica was the donor).
    pub rights_transfers_out: u64,
    /// Escrow rights-transfer updates applied whose destination is this
    /// replica (rights arriving: this replica was the recipient).
    pub rights_transfers_in: u64,
    /// Total rights units moved out by the transfers counted in
    /// [`ReplicaStats::rights_transfers_out`].
    pub rights_units_out: u64,
    /// Total rights units moved in by the transfers counted in
    /// [`ReplicaStats::rights_transfers_in`].
    pub rights_units_in: u64,
    /// Bounded-counter decrements refused locally for lack of escrow
    /// rights (the starvation signal the provisioning policies watch).
    pub escrow_dec_denied: u64,
    /// Whole-object copies transactions made of stored objects: the
    /// first write to a kind not keyed by element (counter, register,
    /// compensation set), or a whole-object question about a set or map
    /// the transaction had already written. Never an element-level access.
    pub txn_objects_copied: u64,
    /// Per-element entries transactions copied out of stored sets and
    /// maps they were writing. With `txn_objects_copied` this pins "a
    /// commit costs what it touches" without a wall clock: both are exact
    /// functions of the operations run, under the simulator and under
    /// threads alike.
    pub txn_entries_copied: u64,
    /// Stability-frontier folds served from the escrow-path cache
    /// without recomputing (no clock advanced since the last fold).
    pub frontier_cache_hits: u64,
    /// Batches handed to the persistent shard-worker pool (wide batches
    /// under [`ApplyDispatch::Pool`]; narrow batches apply inline and are
    /// not counted here). Deterministic given the delivered batch
    /// sequence — CI guards this, never wall-clock.
    pub pool_batches: u64,
    /// Per-shard jobs dispatched to pool workers (one per non-empty
    /// shard per pool batch), so `pool_dispatches / pool_batches` is the
    /// mean shard fan-out.
    pub pool_dispatches: u64,
}

/// Per-shard apply counters: deterministic functions of the delivered
/// batch sequence, independent of shard count and of the
/// sequential-vs-parallel apply path — CI guards these, never wall-clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Same-key runs applied on this shard (one object resolution each).
    pub runs_applied: u64,
    /// Individual updates applied on this shard.
    pub updates_applied: u64,
    /// Object-table hash lookups on this shard.
    pub table_lookups: u64,
    /// Most same-key runs a single batch ever queued on this shard — the
    /// per-batch apply-queue depth high-water mark.
    pub max_batch_runs: u64,
    /// Most same-key runs a single *pool-dispatched* batch ever queued on
    /// this shard — the worker-queue depth high-water mark. Zero unless
    /// this replica ran [`ApplyDispatch::Pool`] over wide batches; CI
    /// guards its cross-shard balance.
    pub pool_queued_hwm: u64,
}

/// One key-space partition: the object map and apply counters owned
/// exclusively by that shard. `apply_batch` splits every batch into
/// per-shard runs, so two shards are never touched by the same update and
/// the pool's workers may apply them concurrently.
#[derive(Debug, Default)]
pub(crate) struct ShardTable {
    /// Each key's object beside its declared kind (shipped with updates
    /// so receivers can instantiate missing objects deterministically).
    objects: HashMap<Key, (ObjectKind, Object)>,
    stats: ShardStats,
}

/// Default number of key-space shards per replica.
pub const DEFAULT_SHARDS: usize = 4;

/// Batches below this update count apply inline (sequentially) even
/// under [`ApplyDispatch::Pool`]. The pool's channel-send + park/unpark
/// handoff measures ≈5 µs per dispatched batch on the reference runner
/// (≈20 µs when all worker wakeups contend on one core) and inline apply
/// ≈57 ns per counter update, so below ~64 updates a shard's run is
/// shorter than the worker wakeup that delivers it and dispatch cannot
/// win. The threaded transport draws the same line for the same reason:
/// a batch below it is applied by its sender at a peer whose delivery
/// thread sleeps, because the apply is cheaper than waking the thread.
pub const PARALLEL_APPLY_MIN_UPDATES: usize = 64;

/// How a replica applies the per-shard runs of a wide batch. Narrow
/// batches (under [`PARALLEL_APPLY_MIN_UPDATES`]) always apply inline in
/// fixed shard order, whatever the mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ApplyDispatch {
    /// Fixed sequential shard order — what deterministic transports use.
    #[default]
    Sequential,
    /// Persistent shard-worker pool: long-lived worker per shard,
    /// bounded-channel handoff, park/unpark completion — what the
    /// threaded transport uses.
    Pool,
}

/// Deterministic shard assignment: FNV-1a over the key bytes. `HashMap`'s
/// SipHash is randomly seeded per process, so it cannot place keys — the
/// shard of a key must be a pure function of the key for the sim's
/// schedule digests and the cross-transport equivalence tests to hold.
fn shard_of(key: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Apply one same-key run of `updates[start..start + len]` to its shard.
/// Resolves the object once per run, creation included (the handle-cache
/// discipline the PR-5 benchmark pinned).
pub(crate) fn apply_run(
    table: &mut ShardTable,
    updates: &[(Key, ObjectKind, ipa_crdt::ObjectOp)],
    start: usize,
    len: usize,
) {
    let (key, kind, _) = &updates[start];
    table.stats.runs_applied += 1;
    table.stats.table_lookups += 1;
    let (_, obj) = table
        .objects
        .entry(key.clone())
        .or_insert_with(|| (*kind, Object::new(*kind, creation_owner())));
    for u in &updates[start..start + len] {
        match obj.apply(&u.2) {
            Ok(()) => table.stats.updates_applied += 1,
            Err(e) => {
                // Type mismatches indicate an application bug; a real
                // store would reject the write at the origin. Surface
                // loudly in debug builds, skip in release.
                debug_assert!(false, "object {key}: {e}");
            }
        }
    }
}

/// One origin's run of logged batches, gap-tolerant. Causal delivery
/// (and local commit order) guarantees a replica applies an origin's
/// batches in sequence order with no gaps, so under honest operation
/// `entries[k]` holds origin sequence `first_seq + k` — an O(1) seek by
/// sequence number, and `missing` stays empty. The segment no longer
/// *assumes* contiguity though: a hole (adversarial input, operator
/// surgery) is recorded as an explicit missing range that anti-entropy
/// repair targets, and the seek subtracts the holes below the requested
/// sequence, so pulls stay O(origins + returned). Each entry carries the
/// global application index so multi-origin pulls can be returned in
/// exact application order.
#[derive(Debug)]
struct OriginLog {
    /// Sequence number of the segment's logical start; when the segment
    /// is empty this is the next sequence expected (compaction advances
    /// it).
    first_seq: u64,
    /// Logged batches in ascending sequence order (missing sequences are
    /// simply absent — see `missing`).
    entries: VecDeque<(u64, Arc<UpdateBatch>)>,
    /// Explicit holes: inclusive `(lo, hi)` sequence ranges known absent
    /// from this segment, in ascending order. Empty under honest
    /// operation; anti-entropy repair fills them via [`OriginLog::fill`].
    missing: Vec<(u64, u64)>,
}

impl OriginLog {
    fn new() -> OriginLog {
        OriginLog {
            first_seq: 1,
            entries: VecDeque::new(),
            missing: Vec::new(),
        }
    }

    /// Total sequences covered by recorded holes.
    fn missing_total(&self) -> u64 {
        self.missing.iter().map(|&(lo, hi)| hi - lo + 1).sum()
    }

    /// Holes strictly below `seq` (the seek correction).
    fn missing_below(&self, seq: u64) -> u64 {
        self.missing
            .iter()
            .map(|&(lo, hi)| {
                if hi < seq {
                    hi - lo + 1
                } else {
                    seq.saturating_sub(lo)
                }
            })
            .sum()
    }

    /// Sequence number one past the last logged-or-missing slot.
    fn next_seq(&self) -> u64 {
        self.first_seq + self.entries.len() as u64 + self.missing_total()
    }

    /// Index into `entries` of the first entry with sequence ≥ `seq`
    /// (requires `seq >= first_seq`).
    fn seek(&self, seq: u64) -> usize {
        ((seq - self.first_seq) - self.missing_below(seq)) as usize
    }

    /// Record `[lo, hi]` as a hole (coalescing with an adjacent last
    /// range).
    fn record_gap(&mut self, lo: u64, hi: u64) {
        if let Some(last) = self.missing.last_mut() {
            if last.1 + 1 == lo {
                last.1 = hi;
                return;
            }
        }
        self.missing.push((lo, hi));
    }

    /// Remove `seq` from the recorded holes. Returns whether it was one
    /// (false = the append is a true duplicate, not a repair).
    fn fill(&mut self, seq: u64) -> bool {
        for i in 0..self.missing.len() {
            let (lo, hi) = self.missing[i];
            if seq < lo || seq > hi {
                continue;
            }
            match (seq == lo, seq == hi) {
                (true, true) => {
                    self.missing.remove(i);
                }
                (true, false) => self.missing[i].0 = seq + 1,
                (false, true) => self.missing[i].1 = seq - 1,
                (false, false) => {
                    self.missing[i].1 = seq - 1;
                    self.missing.insert(i + 1, (seq + 1, hi));
                }
            }
            return true;
        }
        false
    }
}

/// A batch buffered for causal delivery, with its arrival order and its
/// current position in the legacy-order scan vector.
#[derive(Debug)]
struct PendingSlot {
    pos: usize,
    batch: Arc<UpdateBatch>,
}

/// One replica of the geo-replicated store.
#[derive(Debug)]
pub struct Replica {
    id: ReplicaId,
    /// Applied-updates clock (own commits + delivered remote batches).
    clock: VClock,
    /// Lamport timestamp (drives LWW registers).
    lamport: u64,
    /// Monotonic unique-tag allocator.
    next_tag: u64,
    /// Key-space partitions: shard `shard_of(key, shards.len())` owns the
    /// object. Every accessor routes through the hash; `apply_batch`
    /// splits batches into per-shard runs and applies shards in fixed
    /// index order (or in parallel on the threaded transport — the shards
    /// are disjoint, so the final state is order-independent).
    shards: Vec<ShardTable>,
    /// Per-batch run split scratch: `(shard, start, len)` per same-key
    /// run. Reused across batches to keep the hot path allocation-free.
    run_scratch: Vec<(u32, u32, u32)>,
    /// Per-batch runs-per-shard scratch (the apply-queue depths).
    shard_run_counts: Vec<u32>,
    /// How wide batches dispatch their per-shard runs. Only the threaded
    /// transport moves off [`ApplyDispatch::Sequential`]; the
    /// deterministic sim and the sync cluster keep the fixed sequential
    /// shard order.
    dispatch: ApplyDispatch,
    /// The persistent worker pool, spawned lazily on the first wide batch
    /// under [`ApplyDispatch::Pool`] and torn down when the mode changes
    /// (or the replica drops).
    pool: Option<crate::pool::ShardPool>,
    /// Remote batches waiting for causal predecessors, indexed by
    /// `(origin, seq)` for O(1) duplicate detection. `pending_order`
    /// preserves the buffer's positional order (deliveries use
    /// swap-remove, exactly like the scan vector this index replaced, so
    /// application order — and with it every schedule digest — is
    /// unchanged). Volatile: lost on [`Replica::crash`].
    pending: HashMap<(ReplicaId, u64), PendingSlot>,
    pending_order: Vec<(ReplicaId, u64)>,
    /// Buffered-batch count per origin id: the drain only probes origins
    /// that actually have something waiting.
    pending_per_origin: Vec<u32>,
    /// Committed local batches awaiting transport pickup. Volatile: lost
    /// on [`Replica::crash`].
    outbox: Vec<Arc<UpdateBatch>>,
    /// Durable log of every batch applied here, segmented per origin and
    /// indexed by origin sequence. Serves anti-entropy pulls
    /// ([`Replica::batches_since`]) and is compacted under the stability
    /// frontier by [`Replica::run_gc`].
    log: Vec<OriginLog>,
    /// Total batches across all segments.
    log_total: usize,
    /// Global application-order counter (stamps log entries).
    apply_idx: u64,
    /// Bumped whenever the log gains or loses entries; anti-entropy
    /// cursors use it to detect staleness.
    log_version: u64,
    /// Latest received clock per origin (incl. self) — the causal
    /// stability inputs.
    last_from: BTreeMap<ReplicaId, VClock>,
    /// `(origin, seq)` slots refused by the integrity gate and not yet
    /// re-covered by a clean copy — the explicit repair targets
    /// anti-entropy owes. Durable (corruption evidence survives a
    /// crash); empty on every benign run, so the hot apply path guards
    /// on `is_empty` and pays nothing for it.
    quarantined: std::collections::HashSet<(ReplicaId, u64)>,
    /// Has any `last_from` clock advanced since the last frontier fold?
    /// `stability_frontier` is a pure function of `last_from`, so while
    /// this is false [`Replica::run_gc`] can reuse its cached frontier
    /// instead of re-folding every clock each round.
    frontier_dirty: bool,
    /// `(replica set, frontier)` of the last fold `run_gc` computed.
    gc_cache: Option<(Vec<ReplicaId>, VClock)>,
    /// Monotone counter bumped whenever any `last_from` clock advances —
    /// the event [`Replica::stability_frontier_cached`] keys its cache
    /// on. Deliberately separate from `frontier_dirty`/`gc_cache`: the
    /// escrow path folding the frontier must never clear GC's dirty
    /// flag, or a later [`Replica::run_gc`] would reuse a stale cache.
    clock_epoch: u64,
    /// `(clock epoch, replica set, frontier)` of the last fold the
    /// escrow/transfer path computed via
    /// [`Replica::stability_frontier_cached`].
    escrow_frontier: Option<(u64, Vec<ReplicaId>, VClock)>,
    pub stats: ReplicaStats,
}

impl Replica {
    pub fn new(id: ReplicaId) -> Replica {
        Replica::with_shards(id, DEFAULT_SHARDS)
    }

    /// A replica with an explicit shard count (≥ 1). Shard count is a
    /// local layout choice: it never changes the replication protocol,
    /// the durable log, or any observable state — the equivalence tests
    /// pin exactly that.
    pub fn with_shards(id: ReplicaId, shards: usize) -> Replica {
        assert!(shards >= 1, "a replica needs at least one shard");
        Replica {
            id,
            clock: VClock::new(),
            lamport: 0,
            next_tag: 0,
            shards: (0..shards).map(|_| ShardTable::default()).collect(),
            run_scratch: Vec::new(),
            shard_run_counts: vec![0; shards],
            dispatch: ApplyDispatch::Sequential,
            pool: None,
            pending: HashMap::new(),
            pending_order: Vec::new(),
            pending_per_origin: Vec::new(),
            outbox: Vec::new(),
            log: Vec::new(),
            log_total: 0,
            apply_idx: 0,
            log_version: 0,
            last_from: BTreeMap::new(),
            quarantined: std::collections::HashSet::new(),
            frontier_dirty: true,
            gc_cache: None,
            clock_epoch: 0,
            escrow_frontier: None,
            stats: ReplicaStats::default(),
        }
    }

    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Number of key-space shards (a local layout choice; see
    /// [`Replica::with_shards`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard apply counters (deterministic; see [`ShardStats`]).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }

    /// Select how wide batches dispatch their per-shard runs. Leaving
    /// [`ApplyDispatch::Pool`] tears the worker pool down (joining its
    /// threads); returning to it re-spawns workers lazily on the next
    /// wide batch — so toggling mid-stream is safe and observable state
    /// never depends on the mode.
    pub fn set_apply_dispatch(&mut self, dispatch: ApplyDispatch) {
        self.dispatch = dispatch;
        if dispatch != ApplyDispatch::Pool {
            self.pool = None;
        }
    }

    /// Whether the persistent worker pool is currently spawned (it is
    /// lazy: `false` until the first wide batch under
    /// [`ApplyDispatch::Pool`], and `false` again after a mode change
    /// tears it down).
    pub fn pool_active(&self) -> bool {
        self.pool.is_some()
    }

    pub fn clock(&self) -> &VClock {
        &self.clock
    }

    pub fn lamport(&self) -> u64 {
        self.lamport
    }

    /// Read an object: committed state only. A transaction reads the same
    /// object through this function for every key it has not written, and
    /// its own overlay for the keys it has. The key is looked up by name
    /// (`&Key`, `&str`, `&String`): no `Key` is built to ask.
    pub fn object<K: AsRef<str> + ?Sized>(&self, key: &K) -> Option<&Object> {
        self.stored(key.as_ref()).map(|(_, _, obj)| obj)
    }

    /// A stored object with the shard table's own key (the interned name
    /// a caller clones instead of building one) and its declared kind,
    /// from one shard lookup.
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

    // ------------------------------------------------------------------
    // Commit / replication
    // ------------------------------------------------------------------

    /// Called by [`Transaction::commit`]: install the batch locally and
    /// stage it for replication.
    pub(crate) fn commit_batch(&mut self, batch: UpdateBatch) {
        debug_assert_eq!(batch.origin, self.id);
        debug_assert!(batch.deliverable_at(&self.clock));
        let batch = Arc::new(batch);
        self.apply_batch(&batch);
        self.lamport = self.lamport.max(batch.lamport);
        self.last_from.insert(self.id, batch.clock.clone());
        self.frontier_dirty = true;
        self.clock_epoch += 1;
        self.log_append(Arc::clone(&batch));
        self.outbox.push(batch);
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
    /// pickup). Fan-out transports clone the returned `Arc`s — the batch
    /// payload itself is shared, never copied per destination.
    pub fn take_outbox(&mut self) -> Vec<Arc<UpdateBatch>> {
        std::mem::take(&mut self.outbox)
    }

    /// [`Replica::take_outbox`] in place: the outbox keeps its allocation,
    /// so a transport that ships after every commit does not make each
    /// commit allocate a fresh one.
    pub(crate) fn drain_outbox(&mut self) -> std::vec::Drain<'_, Arc<UpdateBatch>> {
        self.outbox.drain(..)
    }

    /// Receive a remote batch: buffer it and apply everything that has
    /// become deliverable. Duplicates (including redeliveries after a
    /// crash or an anti-entropy re-send) are detected via the batch clock
    /// and the `(origin, seq)` index and dropped, so delivery is
    /// idempotent. Returns the number of batches applied.
    pub fn receive(&mut self, batch: impl Into<Arc<UpdateBatch>>) -> usize {
        let batch = batch.into();
        let valid = batch.passes_gate();
        self.receive_prevalidated(batch, valid)
    }

    /// [`Replica::receive`] with the integrity gate's verdict computed by
    /// the caller. Whoever delivers in the threaded transport (a sender,
    /// the delivery thread, an anti-entropy round) runs
    /// [`UpdateBatch::passes_gate`] before taking the node lock; passing
    /// the verdict here skips re-hashing the payload under the lock. The
    /// caller must have evaluated that predicate on this very batch — a
    /// forged `valid` would bypass the quarantine ledger.
    pub fn receive_prevalidated(
        &mut self,
        batch: impl Into<Arc<UpdateBatch>>,
        valid: bool,
    ) -> usize {
        let batch = batch.into();
        self.stats.batches_received += 1;
        // Integrity gate, *before* the clock comparisons: a corrupt batch
        // carries an untrusted envelope, and a forged-stale sequence
        // would otherwise masquerade as an already-seen duplicate and
        // vanish without a trace. Quarantined input is counted, recorded
        // as a repair target, and never touches replica state.
        if !valid {
            self.quarantine(&batch);
            return 0;
        }
        if batch.origin == self.id || batch.clock.le(&self.clock) {
            return 0; // own or already-seen batch
        }
        // Fast path: nothing buffered and the batch is immediately
        // deliverable — the common in-order case. Applying directly is
        // exactly what buffer-then-drain would do, minus the index
        // round-trip.
        if self.pending_order.is_empty() && batch.clock.deliverable_from(batch.origin, &self.clock)
        {
            self.apply_remote(batch);
            return 1;
        }
        let key = (batch.origin, batch.seq);
        if self.pending.contains_key(&key) {
            return 0; // duplicate of an already-buffered batch
        }
        let o = batch.origin.0 as usize;
        if o >= self.pending_per_origin.len() {
            self.pending_per_origin.resize(o + 1, 0);
        }
        self.pending_per_origin[o] += 1;
        self.pending_order.push(key);
        self.pending.insert(
            key,
            PendingSlot {
                pos: self.pending_order.len() - 1,
                batch,
            },
        );
        self.drain_pending()
    }

    /// Remove the pending batch at position `pos`, swap-remove style (the
    /// last buffered batch takes its slot).
    fn pending_swap_remove(&mut self, pos: usize) -> Arc<UpdateBatch> {
        let key = self.pending_order[pos];
        let last = self.pending_order.len() - 1;
        self.pending_order.swap_remove(pos);
        if pos != last {
            let moved = self.pending_order[pos];
            self.pending
                .get_mut(&moved)
                .expect("order and index agree")
                .pos = pos;
        }
        self.pending_per_origin[key.0 .0 as usize] -= 1;
        self.pending
            .remove(&key)
            .expect("order and index agree")
            .batch
    }

    fn drain_pending(&mut self) -> usize {
        let mut applied = 0;
        loop {
            // Only one batch per origin can be deliverable: the one whose
            // sequence is next after the applied clock. Probe exactly
            // those instead of scanning the whole buffer; among the ready
            // ones, apply the first by buffer position — the same batch a
            // front-to-back scan would have picked.
            let mut next: Option<usize> = None;
            for (o, &count) in self.pending_per_origin.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let origin = ReplicaId(o as u16);
                let want = self.clock.get(origin) + 1;
                if let Some(slot) = self.pending.get(&(origin, want)) {
                    if slot.batch.clock.deliverable_from(origin, &self.clock)
                        && next.is_none_or(|p| slot.pos < p)
                    {
                        next = Some(slot.pos);
                    }
                }
            }
            let Some(pos) = next else { break };
            let batch = self.pending_swap_remove(pos);
            self.apply_remote(batch);
            applied += 1;
        }
        // Purge buffered copies whose content arrived through another
        // path (duplicate delivery, anti-entropy) in the meantime: a
        // buffered batch is stale exactly when its sequence is already
        // covered by the applied clock. The clock only moves when
        // something applied, so the purge is skipped otherwise.
        if applied > 0 {
            let clock = &self.clock;
            let pending = &mut self.pending;
            let per_origin = &mut self.pending_per_origin;
            self.pending_order.retain(|&(origin, seq)| {
                if seq <= clock.get(origin) {
                    pending.remove(&(origin, seq));
                    per_origin[origin.0 as usize] -= 1;
                    false
                } else {
                    true
                }
            });
            for (pos, key) in self.pending_order.iter().enumerate() {
                self.pending
                    .get_mut(key)
                    .expect("order and index agree")
                    .pos = pos;
            }
        }
        applied
    }

    /// Apply a causally deliverable remote batch and do the bookkeeping
    /// every applied remote batch owes: Lamport time, the origin's
    /// stability input, both frontier-cache invalidations, quarantine
    /// repair, and the durable log.
    fn apply_remote(&mut self, batch: Arc<UpdateBatch>) {
        self.apply_batch(&batch);
        self.lamport = self.lamport.max(batch.lamport);
        self.last_from
            .entry(batch.origin)
            .and_modify(|c| c.merge(&batch.clock))
            .or_insert_with(|| batch.clock.clone());
        self.frontier_dirty = true;
        self.clock_epoch += 1;
        self.note_repair(&batch);
        self.log_append(batch);
    }

    fn apply_batch(&mut self, batch: &UpdateBatch) {
        // Split the batch into same-key *runs* (the per-batch
        // object-handle cache: one object resolution per run, creation
        // included) and route each run to the shard that owns its key.
        // A run's updates share one key, so a run never
        // straddles shards, and distinct keys are independent objects —
        // shards can therefore apply in any order (fixed index order
        // here; concurrently on the threaded transport) and produce the
        // identical state and identical counters.
        let updates = &batch.updates;
        let nshards = self.shards.len();
        self.run_scratch.clear();
        self.shard_run_counts.fill(0);
        let mut i = 0;
        while i < updates.len() {
            let key = &updates[i].0;
            let mut j = i + 1;
            while j < updates.len() && updates[j].0 == *key {
                j += 1;
            }
            let shard = shard_of(key.as_str(), nshards);
            self.shard_run_counts[shard] += 1;
            self.run_scratch
                .push((shard as u32, i as u32, (j - i) as u32));
            i = j;
        }
        // Per-batch apply-queue depth high-water mark, recorded before
        // dispatch (the parallel path must not race on shard stats).
        for (shard, &queued) in self.shards.iter_mut().zip(&self.shard_run_counts) {
            if u64::from(queued) > shard.stats.max_batch_runs {
                shard.stats.max_batch_runs = u64::from(queued);
            }
        }
        let before = self.shard_totals();
        let runs = &self.run_scratch;
        let counts = &self.shard_run_counts;
        let wide = nshards > 1 && updates.len() >= PARALLEL_APPLY_MIN_UPDATES;
        match self.dispatch {
            ApplyDispatch::Pool if wide => {
                // Worker-queue depth high-water marks, recorded before
                // dispatch (workers must not race on shard stats).
                for (shard, &queued) in self.shards.iter_mut().zip(counts) {
                    if u64::from(queued) > shard.stats.pool_queued_hwm {
                        shard.stats.pool_queued_hwm = u64::from(queued);
                    }
                }
                if self.pool.is_none() {
                    self.pool = Some(crate::pool::ShardPool::new(nshards));
                }
                let pool = self.pool.as_ref().expect("pool just ensured");
                let jobs = pool.dispatch(&mut self.shards, updates, runs, counts);
                self.stats.pool_batches += 1;
                self.stats.pool_dispatches += jobs;
            }
            _ => {
                for (s, shard) in self.shards.iter_mut().enumerate() {
                    if counts[s] == 0 {
                        continue;
                    }
                    for &(rs, start, len) in runs {
                        if rs as usize == s {
                            apply_run(shard, updates, start as usize, len as usize);
                        }
                    }
                }
            }
        }
        let after = self.shard_totals();
        self.stats.apply_table_lookups += after.0 - before.0;
        self.stats.updates_applied += after.1 - before.1;
        // Escrow rights-transfer accounting. `apply_batch` runs exactly
        // once per applied batch (duplicates are dropped before
        // delivery), so each transfer is counted once per replica: at
        // the donor via its own local commit and at every other replica
        // via replication.
        for (_, _, op) in updates {
            if let ObjectOp::BCounter(BCounterOp::Transfer { from, to, n }) = op {
                if *from == self.id {
                    self.stats.rights_transfers_out += 1;
                    self.stats.rights_units_out += n;
                }
                if *to == self.id {
                    self.stats.rights_transfers_in += 1;
                    self.stats.rights_units_in += n;
                }
            }
        }
        self.clock.merge(&batch.clock);
        self.stats.batches_applied += 1;
    }

    /// `(table_lookups, updates_applied)` summed over shards — the global
    /// stat deltas `apply_batch` folds back after dispatch.
    fn shard_totals(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(l, u), s| {
            (l + s.stats.table_lookups, u + s.stats.updates_applied)
        })
    }

    /// Refuse a batch that failed the integrity gate: count it, classify
    /// the failure, and record the claimed `(origin, seq)` as an explicit
    /// repair target. The id pair is untrusted (that is *why* the batch
    /// is here) but it is still the best available description of the
    /// gap the corruption opened; when the origin's clean copy has
    /// already applied there is no gap left and the slot counts repaired
    /// immediately. A structurally impossible slot (`seq == 0` — no real
    /// commit carries it) names nothing a clean copy could ever fill, so
    /// it is closed on the spot instead of pending forever.
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

    /// A clean batch applied: if its slot was quarantined earlier, the
    /// gap is closed — anti-entropy (or a late honest duplicate) repaired
    /// it.
    fn note_repair(&mut self, batch: &UpdateBatch) {
        if !self.quarantined.is_empty() && self.quarantined.remove(&(batch.origin, batch.seq)) {
            self.stats.quarantine_repaired += 1;
        }
    }

    /// Quarantined `(origin, seq)` slots still awaiting a clean copy.
    /// Empty ⇔ every corruption this replica saw has been repaired (or
    /// it never saw any — distinguish via `stats.batches_quarantined`).
    pub fn unrepaired_quarantine(&self) -> usize {
        self.quarantined.len()
    }

    /// The recorded log holes for `origin` (anti-entropy repair targets).
    /// Empty under honest operation.
    pub fn missing_ranges(&self, origin: ReplicaId) -> Vec<(u64, u64)> {
        self.log
            .get(origin.0 as usize)
            .map(|seg| seg.missing.clone())
            .unwrap_or_default()
    }

    /// Number of buffered (not yet causally deliverable) batches.
    pub fn pending_count(&self) -> usize {
        self.pending_order.len()
    }

    /// `(origin, seq)` ids of every buffered batch awaiting causal
    /// predecessors. Anti-entropy frontiers fold these in: a batch the
    /// replica already holds never needs re-shipping.
    pub fn pending_ids(&self) -> &[(ReplicaId, u64)] {
        &self.pending_order
    }

    // ------------------------------------------------------------------
    // Crash / recovery (nemesis support)
    // ------------------------------------------------------------------

    /// Crash the replica: volatile state (the outbox awaiting transport
    /// pickup and the buffered pending batches) is lost; durable state
    /// (objects, clocks, the applied-batch log) survives. Returns the
    /// number of batches lost. Recovery happens through anti-entropy:
    /// peers re-send from their logs ([`Replica::batches_since`]) and
    /// this replica re-sends its own logged commits.
    pub fn crash(&mut self) -> usize {
        let lost = self.outbox.len() + self.pending_order.len();
        self.outbox.clear();
        self.pending.clear();
        self.pending_order.clear();
        self.pending_per_origin.fill(0);
        self.stats.crashes += 1;
        lost
    }

    /// Append an applied batch to its origin's log segment. Causal
    /// delivery appends gap-free (`seq == next_seq`), but the segment is
    /// gap-tolerant: an out-of-run append records or fills an explicit
    /// hole instead of corrupting the seek index (or panicking).
    fn log_append(&mut self, batch: Arc<UpdateBatch>) {
        let o = batch.origin.0 as usize;
        if o >= self.log.len() {
            self.log.resize_with(o + 1, OriginLog::new);
        }
        let seg = &mut self.log[o];
        let next = seg.next_seq();
        if batch.seq > next {
            // A hole in the origin's run. The causal path never produces
            // one (the clock gates appends), so this is defensive depth:
            // the missing range becomes an explicit anti-entropy target
            // rather than a broken invariant.
            seg.record_gap(next, batch.seq - 1);
            seg.entries.push_back((self.apply_idx, batch));
        } else if batch.seq < next {
            if seg.fill(batch.seq) {
                // A clean copy closing a recorded hole: splice it into
                // sequence order so the seek index stays valid.
                let pos = seg.seek(batch.seq).min(seg.entries.len());
                seg.entries.insert(pos, (self.apply_idx, batch));
            } else {
                return; // true duplicate of a logged batch
            }
        } else {
            seg.entries.push_back((self.apply_idx, batch));
        }
        self.apply_idx += 1;
        self.log_total += 1;
        self.log_version += 1;
    }

    /// Anti-entropy pull: every logged batch not yet covered by `since`
    /// (the requesting replica's applied clock), in application order —
    /// so a recovering or drop-afflicted peer can close its causal gaps.
    /// Each origin segment is seeked by sequence number, so the pull
    /// costs O(origins + missing), independent of the log length.
    pub fn batches_since(&mut self, since: &VClock) -> Vec<Arc<UpdateBatch>> {
        let mut hits: Vec<(u64, Arc<UpdateBatch>)> = Vec::new();
        let mut scanned = 0u64;
        for (o, seg) in self.log.iter().enumerate() {
            if seg.entries.is_empty() {
                continue;
            }
            scanned += 1; // segment probe
            let have = since.get(ReplicaId(o as u16));
            // Compacted batches are causally stable, hence already
            // applied at every replica that can ask — the requester's
            // clock always covers them.
            debug_assert!(have + 1 >= seg.first_seq || seg.entries.is_empty());
            let start = (have + 1).max(seg.first_seq);
            // The seek subtracts recorded holes below `start`, so the
            // returned run is every logged batch with sequence ≥ start
            // whether or not the segment has gaps.
            let idx = seg.seek(start).min(seg.entries.len());
            for e in seg.entries.iter().skip(idx) {
                hits.push(e.clone());
            }
        }
        // Restore global application order (pulls feed causal delivery in
        // the exact order a full log scan used to produce).
        hits.sort_unstable_by_key(|(apply_idx, _)| *apply_idx);
        self.stats.anti_entropy_scanned += scanned + hits.len() as u64;
        self.stats.anti_entropy_sent += hits.len() as u64;
        hits.into_iter().map(|(_, b)| b).collect()
    }

    /// Length of the durable applied-batch log (observability for the
    /// compaction tests).
    pub fn log_len(&self) -> usize {
        self.log_total
    }

    /// Monotonic counter bumped on every log append or compaction.
    /// [`AeCursors`] compares it to detect whether a peer's last pull
    /// result could have changed.
    pub fn log_version(&self) -> u64 {
        self.log_version
    }

    /// The full durable log in application order (test oracle; the hot
    /// path never materializes this).
    pub fn log_snapshot(&self) -> Vec<Arc<UpdateBatch>> {
        let mut all: Vec<(u64, Arc<UpdateBatch>)> = self
            .log
            .iter()
            .flat_map(|seg| seg.entries.iter().cloned())
            .collect();
        all.sort_unstable_by_key(|(apply_idx, _)| *apply_idx);
        all.into_iter().map(|(_, b)| b).collect()
    }

    /// Delivery idempotence oracle: every applied batch advances exactly
    /// one vector-clock component by one, so the total of the applied
    /// clock must equal the number of batches applied. A double-apply
    /// breaks this equality. Checked by the nemesis driver after every
    /// hostile schedule.
    pub fn applied_consistent(&self) -> bool {
        self.stats.batches_applied == self.clock.total()
    }

    // ------------------------------------------------------------------
    // Stability & GC
    // ------------------------------------------------------------------

    /// The causal-stability frontier over the given replica set: the
    /// pointwise meet of the latest clocks received from every replica.
    /// Every future delivery dominates this frontier, so CRDT metadata at
    /// or below it can be compacted.
    pub fn stability_frontier(&self, replicas: &[ReplicaId]) -> VClock {
        // One fold over the dense component slices: no intermediate
        // VClock per replica (the old meet chain allocated one each).
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

    /// Event-driven frontier fold for the escrow/transfer path: returns
    /// the same value as [`Replica::stability_frontier`] but only
    /// recomputes the fold when a clock actually advanced since the
    /// last call (or the replica set changed). Provisioning policies
    /// poll this per operation to decide whether an earlier
    /// rights-transfer is causally stable; without the cache every such
    /// poll would re-fold all clocks even on a quiet replica. The cache
    /// is keyed on `clock_epoch` and kept apart from `run_gc`'s
    /// `frontier_dirty`/`gc_cache` pair so neither path can invalidate
    /// or stale-serve the other.
    pub fn stability_frontier_cached(&mut self, replicas: &[ReplicaId]) -> VClock {
        if let Some((epoch, set, frontier)) = &self.escrow_frontier {
            if *epoch == self.clock_epoch && set == replicas {
                self.stats.frontier_cache_hits += 1;
                return frontier.clone();
            }
        }
        let frontier = self.stability_frontier(replicas);
        self.stats.frontier_folds += 1;
        self.escrow_frontier = Some((self.clock_epoch, replicas.to_vec(), frontier.clone()));
        frontier
    }

    /// Compact every object's causal metadata under the stability
    /// frontier.
    ///
    /// The frontier fold is **event-driven**: `stability_frontier` is a
    /// pure function of `last_from`, and `last_from` only moves when a
    /// batch applies. If nothing applied since the last `run_gc` over the
    /// same replica set, the frontier is unchanged *and* the store state
    /// is unchanged, so compaction under the cached frontier would be an
    /// exact no-op — the call preserves the old observable behaviour
    /// (including `gc_runs` accounting) without re-folding every clock.
    pub fn run_gc(&mut self, replicas: &[ReplicaId]) {
        if !self.frontier_dirty {
            if let Some((set, frontier)) = &self.gc_cache {
                if set == replicas {
                    if frontier.is_empty() {
                        return;
                    }
                    // Old behaviour: a non-empty frontier compacts (here
                    // idempotently, on unchanged state) and counts a run.
                    self.stats.gc_runs += 1;
                    return;
                }
            }
        }
        let frontier = self.stability_frontier(replicas);
        self.stats.frontier_folds += 1;
        self.frontier_dirty = false;
        self.gc_cache = Some((replicas.to_vec(), frontier.clone()));
        if frontier.is_empty() {
            return;
        }
        for shard in &mut self.shards {
            for (_, obj) in shard.objects.values_mut() {
                obj.compact(&frontier);
            }
        }
        // Causally stable batches have been received everywhere, so no
        // anti-entropy pull can ever need them again — compact the log.
        // Per-origin batch clocks grow monotonically with the sequence,
        // so the stable batches form a prefix of each segment; dropping
        // it advances `first_seq`, which keeps the seek index valid.
        let mut compacted = false;
        for seg in &mut self.log {
            // A segment with recorded holes keeps everything: its prefix
            // is not a contiguous stable run, and the holes themselves
            // are outstanding repair targets. Holes only exist under an
            // adversarial transport, so honest compaction is unchanged.
            if !seg.missing.is_empty() {
                continue;
            }
            while let Some((_, b)) = seg.entries.front() {
                if b.clock.le(&frontier) {
                    seg.entries.pop_front();
                    seg.first_seq += 1;
                    self.log_total -= 1;
                    compacted = true;
                } else {
                    break;
                }
            }
        }
        if compacted {
            self.log_version += 1;
        }
        self.stats.gc_runs += 1;
    }

    /// Ensure an object of the given kind exists (no-op if present).
    /// Errors if the key exists with a different kind.
    pub fn ensure_object(&mut self, key: &Key, kind: ObjectKind) -> Result<(), StoreError> {
        match self.object(key) {
            Some(existing) => {
                let fresh = Object::new(kind, creation_owner());
                if std::mem::discriminant(existing) != std::mem::discriminant(&fresh) {
                    return Err(StoreError::KindMismatch {
                        key: key.clone(),
                        existing: existing.type_name(),
                    });
                }
                Ok(())
            }
            None => {
                self.insert_object(key.clone(), kind, Object::new(kind, creation_owner()));
                Ok(())
            }
        }
    }
}

/// Objects must be created identically at every replica, so initial
/// escrow rights (bounded counters) conventionally belong to replica 0.
pub(crate) fn creation_owner() -> ReplicaId {
    ReplicaId(0)
}

/// Per-peer anti-entropy cursors, held by whoever drives repeated rounds
/// (a [`crate::Cluster`], the simulator). For each `(puller, source)`
/// pair the cursor caches the puller's applied clock and the source's log
/// version as of the last pull; when neither has moved and that pull came
/// back empty, the next round skips the pair outright — a pull is a pure
/// function of exactly those two inputs. In a converged cluster this
/// makes a round O(pairs) instead of O(pairs × log).
///
/// The cursor never changes *what* a pull returns: the batch set is
/// always derived from the puller's authoritative clock, so dropped or
/// refused deliveries are re-sent exactly as without cursors (schedule
/// digests are bit-identical), and GC compaction — which only discards
/// causally stable prefixes every possible puller already covers — just
/// bumps the log version and forces one fresh (still cheap, seek-based)
/// pull.
#[derive(Debug, Default)]
pub struct AeCursors {
    map: HashMap<(ReplicaId, ReplicaId), AeCursor>,
}

#[derive(Debug)]
struct AeCursor {
    peer_clock: VClock,
    log_version: u64,
    drained: bool,
}

impl AeCursors {
    pub fn new() -> AeCursors {
        AeCursors::default()
    }

    /// Would a pull by `dst` (applied clock `clock`) from `src` (log
    /// version `version`) return anything it did not already return last
    /// time? False only when the last pull was empty and both inputs are
    /// unchanged.
    pub fn should_pull(
        &self,
        dst: ReplicaId,
        src: ReplicaId,
        clock: &VClock,
        version: u64,
    ) -> bool {
        match self.map.get(&(dst, src)) {
            Some(c) => !(c.drained && c.log_version == version && c.peer_clock == *clock),
            None => true,
        }
    }

    /// Record the inputs and outcome of a pull that actually ran.
    pub fn record(
        &mut self,
        dst: ReplicaId,
        src: ReplicaId,
        clock: VClock,
        version: u64,
        drained: bool,
    ) {
        self.map.insert(
            (dst, src),
            AeCursor {
                peer_clock: clock,
                log_version: version,
                drained,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{anti_entropy_round_nodes, Node};
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
    fn stability_frontier_meet_chain(replica: &Replica, replicas: &[ReplicaId]) -> VClock {
        let mut frontier: Option<VClock> = None;
        for r in replicas {
            let c = replica.last_from.get(r).cloned().unwrap_or_default();
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
        let mut a = Replica::new(r(0));
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
                a.stability_frontier(set),
                stability_frontier_meet_chain(&a, set),
                "frontier diverged from the meet chain for {set:?}"
            );
        }

        // Non-degenerate frontiers: every clock non-empty, so the fold
        // must reproduce real minima and drop exactly the components the
        // meet chain's restriction dropped.
        let mut b = Replica::new(r(0));
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
            let got = b.stability_frontier(set);
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
        let mut a = Replica::new(r(0));
        let mut b = Replica::new(r(1));
        let replicas = [r(0), r(1)];
        let mut tx = a.begin();
        tx.ensure("c", ObjectKind::PNCounter).unwrap();
        tx.counter_add("c", 1).unwrap();
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
        let folds0 = a.stats.frontier_folds;
        let first = a.stability_frontier_cached(&replicas);
        assert_eq!(first, a.stability_frontier(&replicas));
        assert_eq!(a.stats.frontier_folds, folds0 + 1);
        // Quiet replica: repeated polls hit the cache, no re-fold.
        for _ in 0..5 {
            assert_eq!(a.stability_frontier_cached(&replicas), first);
        }
        assert_eq!(a.stats.frontier_folds, folds0 + 1);
        assert_eq!(a.stats.frontier_cache_hits, 5);
        // A changed replica set re-folds.
        let solo = a.stability_frontier_cached(&[r(0)]);
        assert_eq!(solo, a.stability_frontier(&[r(0)]));
        assert_eq!(a.stats.frontier_folds, folds0 + 2);
        // A clock advance (local commit) re-folds on the next poll.
        let mut tx = a.begin();
        tx.counter_add("c", 1).unwrap();
        tx.commit();
        let after = a.stability_frontier_cached(&replicas);
        assert_eq!(after, a.stability_frontier(&replicas));
        assert_eq!(a.stats.frontier_folds, folds0 + 3);
        // The escrow-path cache never touches GC's event flag: GC still
        // sees the commit as a fresh fold of its own.
        let gc_folds = a.stats.frontier_folds;
        a.run_gc(&replicas);
        assert_eq!(a.stats.frontier_folds, gc_folds + 1);
    }

    #[test]
    fn batches_since_seeks_instead_of_scanning() {
        let mut a = Replica::new(r(0));
        for i in 0..100 {
            let mut tx = a.begin();
            tx.ensure("c", ObjectKind::PNCounter).unwrap();
            tx.counter_add("c", i).unwrap();
            tx.commit();
        }
        a.take_outbox();
        // A peer missing only the last 3 batches costs ~3, not 100.
        let since: VClock = [(r(0), 97)].into_iter().collect();
        let before = a.stats.anti_entropy_scanned;
        let missing = a.batches_since(&since);
        assert_eq!(missing.len(), 3);
        assert_eq!(missing[0].seq, 98);
        let scanned = a.stats.anti_entropy_scanned - before;
        assert!(scanned <= 4, "seek cost {scanned} must not scan the log");
        // A fully caught-up peer costs only the segment probe.
        let caught_up = a.clock().clone();
        let before = a.stats.anti_entropy_scanned;
        assert!(a.batches_since(&caught_up).is_empty());
        assert!(a.stats.anti_entropy_scanned - before <= 1);
    }

    #[test]
    fn cursors_skip_drained_pairs_without_changing_results() {
        let mut nodes = vec![Node::new(r(0)), Node::new(r(1))];
        let mut tx = nodes[0].replica_mut().begin();
        tx.ensure("c", ObjectKind::PNCounter).unwrap();
        tx.counter_add("c", 1).unwrap();
        tx.commit();
        let scanned = |nodes: &[Node]| -> u64 {
            nodes
                .iter()
                .map(|n| n.replica().stats.anti_entropy_scanned)
                .sum()
        };
        let mut cursors = AeCursors::new();
        assert_eq!(anti_entropy_round_nodes(&mut nodes, &mut cursors), 1);
        // Second round: nothing to pull; third round after cursors have
        // seen the drained state: the source log is not even probed.
        assert_eq!(anti_entropy_round_nodes(&mut nodes, &mut cursors), 0);
        let probes = scanned(&nodes);
        assert_eq!(anti_entropy_round_nodes(&mut nodes, &mut cursors), 0);
        assert_eq!(
            scanned(&nodes),
            probes,
            "drained pairs are skipped without a pull"
        );
        // A new commit invalidates the cursor and the pull resumes.
        let mut tx = nodes[1].replica_mut().begin();
        tx.ensure("c", ObjectKind::PNCounter).unwrap();
        tx.counter_add("c", 1).unwrap();
        tx.commit();
        assert_eq!(anti_entropy_round_nodes(&mut nodes, &mut cursors), 1);
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
            assert_eq!(a.runs_applied, b.runs_applied);
            assert_eq!(a.updates_applied, b.updates_applied);
            assert_eq!(a.table_lookups, b.table_lookups);
            assert_eq!(a.max_batch_runs, b.max_batch_runs);
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

    #[test]
    fn ensure_object_kind_mismatch() {
        let mut a = Replica::new(r(0));
        a.ensure_object(&"k".into(), ObjectKind::AWSet).unwrap();
        let err = a
            .ensure_object(&"k".into(), ObjectKind::PNCounter)
            .unwrap_err();
        assert!(matches!(err, StoreError::KindMismatch { .. }));
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

    #[test]
    fn origin_log_records_and_fills_holes() {
        let mut seg = OriginLog::new();
        let mut a = Replica::new(r(0));
        let batches = commits(&mut a, 5);
        let entry = |i: usize| (i as u64, Arc::clone(&batches[i]));

        // Append 1, then 4: sequences 2–3 become an explicit hole.
        let next = seg.next_seq();
        assert_eq!(next, 1);
        seg.entries.push_back(entry(0));
        assert_eq!(seg.next_seq(), 2);
        seg.record_gap(2, 3);
        seg.entries.push_back(entry(3));
        assert_eq!(seg.next_seq(), 5);
        assert_eq!(seg.missing, vec![(2, 3)]);

        // Seek accounts for the hole: sequence 4 is entry index 1.
        assert_eq!(seg.seek(4), 1);
        assert_eq!(seg.seek(1), 0);

        // Fill 3 (mid-hole edge), then 2: hole fully closes.
        assert!(seg.fill(3));
        assert_eq!(seg.missing, vec![(2, 2)]);
        seg.entries.insert(seg.seek(3), entry(2));
        assert!(seg.fill(2));
        assert!(seg.missing.is_empty());
        seg.entries.insert(seg.seek(2), entry(1));
        assert!(!seg.fill(2), "not a hole anymore");

        // The segment is dense again: seeks are pure offsets.
        assert_eq!(seg.next_seq(), 5);
        let seqs: Vec<u64> = seg.entries.iter().map(|(_, b)| b.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn gap_tolerant_log_append_survives_and_repairs_out_of_run_appends() {
        let mut a = Replica::new(r(0));
        let batches = commits(&mut a, 4);
        let mut b = Replica::new(r(1));
        // Force holes directly through the log layer (the causal receive
        // path can't make one): append seq 1 then seq 4.
        b.log_append(Arc::clone(&batches[0]));
        b.log_append(Arc::clone(&batches[3]));
        assert_eq!(b.missing_ranges(r(0)), vec![(2, 3)]);
        assert_eq!(b.log_len(), 2);

        // An anti-entropy pull for a peer that has only seq 1 returns
        // exactly the logged batches past it, holes notwithstanding.
        let since: VClock = [(r(0), 1u64)].into_iter().collect();
        let pulled = b.batches_since(&since);
        assert_eq!(pulled.len(), 1);
        assert_eq!(pulled[0].seq, 4);

        // Late clean copies splice in and close the hole.
        b.log_append(Arc::clone(&batches[2]));
        b.log_append(Arc::clone(&batches[1]));
        assert!(b.missing_ranges(r(0)).is_empty());
        let seqs: Vec<u64> = b.log_snapshot().iter().map(|x| x.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4]);
        // Duplicate append of a logged batch is a no-op.
        let len = b.log_len();
        b.log_append(Arc::clone(&batches[1]));
        assert_eq!(b.log_len(), len);
    }
}
