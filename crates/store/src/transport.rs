//! The **Transport/Node** abstraction — the contract between the
//! invariant machinery and the delivery substrate.
//!
//! Everything above this module (CRDT semantics, causal delivery,
//! anti-entropy repair, the oracle suite) is a pure function of *which
//! batches reach which replica in which order*. This module names that
//! boundary: a [`Node`] is a replica actor that owns its store shard and
//! refuses traffic while down, [`Links`] is the one table of cut links,
//! and a [`Transport`] moves committed [`crate::UpdateBatch`]es between
//! nodes and drives anti-entropy repair. See `ARCHITECTURE.md` for the
//! full layer map and the determinism guarantees each implementation must
//! (and need not) provide.
//!
//! Three implementations exist:
//!
//! * [`crate::Cluster`] — synchronous, zero-latency, single-threaded;
//!   the unit-test harness.
//! * `ipa_sim::Simulation` — the deterministic discrete-event
//!   simulator: virtual time, seeded latency/jitter, a nemesis, and
//!   bit-reproducible schedule digests.
//! * [`crate::ThreadedCluster`] — real `std::thread` replicas, each
//!   with an inbox its peers deliver into (or around, while its thread
//!   sleeps): wall-clock races, no determinism, no digests; the oracle
//!   suite is checked at quiescence instead.

use crate::batch::UpdateBatch;
use crate::replica::Replica;
use ipa_crdt::{ReplicaId, VClock};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Every link's state, one table for every transport. Symmetric: cutting
/// `a ↔ b` cuts both directions. Setters take `&self`, so the threaded
/// transport's senders read it while an injector writes it. A cut link
/// carries nothing: sends over it are dropped (or stalled until the
/// heal) and anti-entropy skips the pair.
#[derive(Debug)]
pub struct Links {
    n: usize,
    /// `up[a * n + b]`; `Relaxed` throughout, a link's state publishes
    /// no other data.
    up: Vec<AtomicBool>,
}

impl Links {
    /// `n` nodes, every link up.
    pub fn new(n: usize) -> Links {
        let up = (0..n * n).map(|_| AtomicBool::new(true)).collect();
        Links { n, up }
    }

    /// Can `a` and `b` reach each other?
    pub fn is_up(&self, a: u16, b: u16) -> bool {
        self.up[a as usize * self.n + b as usize].load(Ordering::Relaxed)
    }

    /// Cut (`up = false`) or heal the link `a ↔ b`, both directions.
    pub fn set(&self, a: u16, b: u16, up: bool) {
        self.up[a as usize * self.n + b as usize].store(up, Ordering::Relaxed);
        self.up[b as usize * self.n + a as usize].store(up, Ordering::Relaxed);
    }

    /// Heal every link.
    pub fn heal_all(&self) {
        for link in &self.up {
            link.store(true, Ordering::Relaxed);
        }
    }
}

/// Per-peer **in-flight send window**: the causal frontier already
/// promised to a destination by sends that have not yet arrived.
///
/// Without it, a periodic anti-entropy round re-pulls every batch whose
/// delivery is still in flight (the destination's applied clock has not
/// advanced yet), re-sending the same payloads once per round until the
/// first copy lands. The window closes that hole: each entry records a
/// clock the destination is promised to reach and the transport time at
/// which the promise expires (the scheduled arrival). Anti-entropy
/// computes its `since` frontier as the applied clock joined with every
/// unexpired promise — plus the batches the destination already holds
/// buffered awaiting causal predecessors — so in-flight and buffered
/// batches are sent exactly once.
///
/// Expired entries are pruned lazily: once the arrival time has passed,
/// either the batch applied (the clock caught up) or it was lost
/// (refused by a down replica, dropped plan-side) — in both cases
/// anti-entropy must fall back to the authoritative applied clock.
/// Crashes clear the window wholesale: a crashed node loses its
/// volatile state, so stale promises must not mask the re-pull.
///
/// ## Two promise granularities
///
/// A promise is only as good as the causal delivery behind it, so the
/// window distinguishes:
///
/// * **Bursts** ([`InFlightWindow::note_burst`]) — an anti-entropy send
///   of *everything* the destination is missing from one source log.
///   Bursts are causally self-contained (every predecessor of a logged
///   batch is applied, in the burst, or promised earlier), so the burst
///   clock join is a sound frontier.
/// * **Singles** ([`InFlightWindow::note_single`]) — one client-
///   replication batch `(origin, seq)` traveling alone. Its causal
///   predecessors may have been dropped or refused, so a single only
///   advances the frontier *contiguously*: `since[origin]` moves from
///   `k` to `k+1` only when `(origin, k+1)` itself is promised. A hole
///   (a dropped batch) stops the advance exactly there, keeping the
///   dropped batch eligible for repair while later in-flight batches
///   are still not re-sent.
#[derive(Clone, Debug, Default)]
pub struct InFlightWindow {
    /// `(promised clock, expiry in transport-time µs)` per outstanding
    /// anti-entropy burst.
    bursts: Vec<(VClock, u64)>,
    /// `(origin, seq, expiry in transport-time µs)` per outstanding
    /// single-batch send.
    singles: Vec<(ReplicaId, u64, u64)>,
}

impl InFlightWindow {
    pub fn new() -> InFlightWindow {
        InFlightWindow::default()
    }

    /// Record an anti-entropy send burst promising `clock` by transport
    /// time `expiry_us` (the scheduled arrival of its last batch).
    pub fn note_burst(&mut self, clock: VClock, expiry_us: u64) {
        self.bursts.push((clock, expiry_us));
    }

    /// Record one in-flight client-replication batch `(origin, seq)`
    /// arriving by transport time `expiry_us`.
    pub fn note_single(&mut self, origin: ReplicaId, seq: u64, expiry_us: u64) {
        self.singles.push((origin, seq, expiry_us));
    }

    /// The effective anti-entropy frontier at `now_us`: `base` (the
    /// applied clock) joined with every unexpired burst promise, then
    /// advanced per-origin through *contiguous* unexpired single
    /// promises. Prunes expired entries as a side effect.
    pub fn effective_since(&mut self, base: &VClock, now_us: u64) -> VClock {
        self.effective_since_with(base, now_us, &[])
    }

    /// [`InFlightWindow::effective_since`] with additional `present`
    /// batches: `(origin, seq)` pairs the node already *holds* (its
    /// causal pending buffer). Present batches advance the frontier
    /// under the same contiguity rule as single promises — they apply
    /// the moment their predecessors arrive, so re-shipping them is
    /// pure waste, but a hole before them must stay visible so
    /// anti-entropy repairs the predecessor, not the buffered batch.
    pub fn effective_since_with(
        &mut self,
        base: &VClock,
        now_us: u64,
        present: &[(ReplicaId, u64)],
    ) -> VClock {
        self.bursts.retain(|&(_, expiry)| expiry > now_us);
        self.singles.retain(|&(_, _, expiry)| expiry > now_us);
        let mut since = base.clone();
        for (clock, _) in &self.bursts {
            since.merge(clock);
        }
        let mut progressed = true;
        while progressed {
            progressed = false;
            for &(origin, seq, _) in &self.singles {
                if seq == since.get(origin) + 1 {
                    since.set(origin, seq);
                    progressed = true;
                }
            }
            for &(origin, seq) in present {
                if seq == since.get(origin) + 1 {
                    since.set(origin, seq);
                    progressed = true;
                }
            }
        }
        since
    }

    /// Drop every promise (crash recovery: volatile deliveries are
    /// gone, anti-entropy must re-pull from the applied clock).
    pub fn clear(&mut self) {
        self.bursts.clear();
        self.singles.clear();
    }

    /// Number of outstanding promises (observability).
    pub fn len(&self) -> usize {
        self.bursts.len() + self.singles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bursts.is_empty() && self.singles.is_empty()
    }
}

/// A replica **actor**: the store shard plus the transport-facing state
/// every implementation needs — the crash flag and the in-flight
/// anti-entropy window. Transports own a `Vec<Node>` (or a sharded,
/// locked equivalent) and route every delivery through
/// [`Node::receive`], the one place a down node refuses traffic.
#[derive(Debug)]
pub struct Node {
    replica: Replica,
    down: bool,
    inflight: InFlightWindow,
}

impl Node {
    pub fn new(id: ReplicaId) -> Node {
        Node {
            replica: Replica::new(id),
            down: false,
            inflight: InFlightWindow::new(),
        }
    }

    /// A node whose replica uses an explicit shard count (see
    /// [`Replica::with_shards`]).
    pub fn with_shards(id: ReplicaId, shards: usize) -> Node {
        Node {
            replica: Replica::with_shards(id, shards),
            down: false,
            inflight: InFlightWindow::new(),
        }
    }

    pub fn id(&self) -> ReplicaId {
        self.replica.id()
    }

    /// The store shard this actor owns.
    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    pub fn replica_mut(&mut self) -> &mut Replica {
        &mut self.replica
    }

    /// Is the node currently crashed (refusing traffic)?
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Crash the actor: volatile replica state (outbox, pending causal
    /// buffer) is lost, in-flight promises are voided, and the node
    /// refuses traffic until [`Node::restart`]. Returns the number of
    /// batches lost, mirroring [`Replica::crash`].
    pub fn crash(&mut self) -> usize {
        self.down = true;
        self.inflight.clear();
        self.replica.crash()
    }

    /// Bring a crashed actor back. Durable state (objects, clocks, the
    /// applied-batch log) survived; catch-up happens through
    /// anti-entropy.
    pub fn restart(&mut self) {
        self.down = false;
    }

    /// Deliver `batch` through the integrity gate into causal delivery
    /// ([`Replica::receive`]): the number of batches applied, or `None`
    /// while the node is down — the batch is refused untouched, like one
    /// still in a dead process's socket buffer, and anti-entropy replays
    /// it from a peer's durable log after the restart.
    pub fn receive(&mut self, batch: Arc<UpdateBatch>) -> Option<usize> {
        let valid = batch.passes_gate();
        self.receive_prevalidated(batch, valid)
    }

    /// [`Node::receive`] with the gate's verdict computed by the caller
    /// (see [`Replica::receive_prevalidated`]).
    pub fn receive_prevalidated(&mut self, batch: Arc<UpdateBatch>, valid: bool) -> Option<usize> {
        if self.down {
            return None;
        }
        Some(self.replica.receive_prevalidated(batch, valid))
    }

    /// The anti-entropy `since` frontier at transport time `now_us`:
    /// the applied clock joined with every unexpired in-flight promise
    /// (see [`InFlightWindow`]).
    pub fn ae_since(&mut self, now_us: u64) -> VClock {
        // Split borrows: the window mutates (expiry pruning) while the
        // replica only lends its clock and pending index.
        let Node {
            replica, inflight, ..
        } = self;
        inflight.effective_since_with(replica.clock(), now_us, replica.pending_ids())
    }

    /// Promise this node an anti-entropy burst reaching `clock` by
    /// transport time `expiry_us` (see [`InFlightWindow::note_burst`]).
    pub fn note_inflight_burst(&mut self, clock: VClock, expiry_us: u64) {
        self.inflight.note_burst(clock, expiry_us);
    }

    /// Promise this node the single batch `(origin, seq)` by transport
    /// time `expiry_us` (see [`InFlightWindow::note_single`]).
    pub fn note_inflight_single(&mut self, origin: ReplicaId, seq: u64, expiry_us: u64) {
        self.inflight.note_single(origin, seq, expiry_us);
    }

    /// Outstanding in-flight promises (observability).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }
}

/// The pluggable replication substrate over a fixed set of [`Node`]s:
/// what generic code (the soak judge, [`Transport`]-generic contexts)
/// calls, and nothing else. Injecting faults is each transport's own
/// API.
///
/// ## Contract
///
/// Every implementation must provide:
///
/// * **Causal delivery feed** — every batch handed to a node goes
///   through [`Node::receive`], which buffers until causal predecessors
///   arrive and deduplicates redeliveries. The transport may therefore
///   drop, duplicate, delay, and reorder freely.
/// * **Durable-log repair** — anti-entropy ([`anti_entropy_pull_round`])
///   moves batches a node is missing from some peer's durable log, and
///   repeated rounds converge the cluster as long as every batch
///   survives in at least one log ([`Transport::quiesce_transport`] runs
///   them to the fixpoint).
/// * **Fault state, each rule decided once** — a cut link is a [`Links`]
///   entry (symmetric; nothing crosses it), a down node is
///   [`Node::is_down`] (its `receive` admits nothing); a crash loses the
///   node's volatile state ([`Node::crash`]).
///
/// Implementations explicitly need **not** provide determinism: the
/// discrete-event sim guarantees bit-reproducible schedules (and pins
/// them with digests), while [`crate::ThreadedCluster`] races real
/// threads and promises only the contract above. Harnesses that work
/// over any `Transport` must therefore check *quiescent* properties
/// (convergence, invariants, idempotence, bounded liveness), never
/// schedules.
pub trait Transport {
    /// Number of nodes (ids are `0..node_count`).
    fn node_count(&self) -> usize;

    /// Run `f` with exclusive access to a node's replica. This is the
    /// only way through to a shard: single-threaded transports hand out
    /// the replica directly, the threaded transport locks the shard for
    /// the duration of `f` (serialization is per transaction/batch, not
    /// lock-free).
    fn with_node<R>(&mut self, node: ReplicaId, f: impl FnOnce(&mut Replica) -> R) -> R;

    /// Drain `node`'s outbox and move every committed batch toward all
    /// peers, subject to the transport's latency, partition, and fault
    /// model. Call after commits made through [`Transport::with_node`].
    fn ship(&mut self, node: ReplicaId);

    /// Drive replication to quiescence: restart every crashed node,
    /// deliver or void everything outstanding, and run anti-entropy to
    /// its fixpoint. Returns the number of *productive* rounds the
    /// fixpoint needed — the bounded-liveness oracle's input.
    fn quiesce_transport(&mut self) -> u64;

    /// Are all nodes converged (equal clocks, nothing buffered)?
    /// Meaningful after [`Transport::quiesce_transport`].
    fn converged(&mut self) -> bool;

    /// Is the link `a ↔ b` up ([`Links::is_up`])? Coordination across a
    /// cut link must fail fast rather than block.
    fn link_up(&self, a: ReplicaId, b: ReplicaId) -> bool;

    /// Is `node` up ([`Node::is_down`])? Nothing may commit at a down
    /// node: that would leak state into its downtime.
    fn node_up(&self, node: ReplicaId) -> bool;
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

/// The one pull plan of pairwise anti-entropy: every live node `dst`
/// asks every live peer `src` with `link_up(src, dst)` for what its
/// durable log holds past `since(dst)`, unless the pair's cursor says the
/// last pull drained and nothing changed. Each non-empty answer goes to
/// `deliver(dst, src, missing)`, which says how many batches it counts
/// for; the sum is returned. `since` is re-read per pair, so what one
/// delivery does to `dst` (apply it, promise it) is seen by the next.
///
/// Two things vary per transport and are the two closures: the frontier
/// (the applied clock, or [`Node::ae_since`] where sends take time) and
/// what a delivery is ([`Node::receive`] now, or an arrival scheduled
/// at a latency).
pub fn anti_entropy_pull_round(
    nodes: &mut [Node],
    cursors: &mut AeCursors,
    link_up: impl Fn(ReplicaId, ReplicaId) -> bool,
    mut since: impl FnMut(&mut Node) -> VClock,
    mut deliver: impl FnMut(&mut Node, ReplicaId, Vec<Arc<UpdateBatch>>) -> usize,
) -> usize {
    let mut delivered = 0;
    let n = nodes.len();
    for dst in 0..n {
        if nodes[dst].is_down() {
            continue;
        }
        for src in 0..n {
            if src == dst || nodes[src].is_down() {
                continue;
            }
            let (d, s) = (nodes[dst].id(), nodes[src].id());
            if !link_up(s, d) {
                continue;
            }
            let since = since(&mut nodes[dst]);
            let version = nodes[src].replica().log_version();
            if !cursors.should_pull(d, s, &since, version) {
                continue;
            }
            let missing = nodes[src].replica_mut().batches_since(&since);
            cursors.record(d, s, since, version, missing.is_empty());
            if !missing.is_empty() {
                delivered += deliver(&mut nodes[dst], s, missing);
            }
        }
    }
    delivered
}

/// One instant anti-entropy round over a node set: every live node
/// pulls from its applied clock and applies what it gets at once (down
/// nodes neither pull nor serve). Returns the number of batches applied.
pub fn anti_entropy_round_nodes(nodes: &mut [Node], cursors: &mut AeCursors) -> usize {
    anti_entropy_round_nodes_with_links(nodes, cursors, |_, _| true)
}

/// [`anti_entropy_round_nodes`] restricted to reachable pairs:
/// `link_up(src, dst)` gates each pull (partition-aware transports ask
/// their [`Links`]).
pub fn anti_entropy_round_nodes_with_links(
    nodes: &mut [Node],
    cursors: &mut AeCursors,
    link_up: impl Fn(ReplicaId, ReplicaId) -> bool,
) -> usize {
    anti_entropy_pull_round(
        nodes,
        cursors,
        link_up,
        |dst| dst.replica().clock().clone(),
        |dst, _, missing| missing.into_iter().filter_map(|b| dst.receive(b)).sum(),
    )
}

/// Run [`anti_entropy_round_nodes`] to a fixpoint; returns the number
/// of productive rounds (rounds that applied at least one batch).
pub fn anti_entropy_fixpoint_nodes(nodes: &mut [Node], cursors: &mut AeCursors) -> u64 {
    let mut rounds = 0;
    while anti_entropy_round_nodes(nodes, cursors) > 0 {
        rounds += 1;
    }
    rounds
}

/// One stability-GC round over a node set: the frontier is taken over
/// every node id, so a down node still pins it, and only live nodes
/// compact ([`Replica::run_gc`]).
pub fn gc_round(nodes: &mut [Node]) {
    let ids: Vec<ReplicaId> = nodes.iter().map(Node::id).collect();
    for node in nodes.iter_mut().filter(|n| !n.is_down()) {
        node.replica_mut().run_gc(&ids);
    }
}

/// The node half of [`Transport::converged`]: equal applied clocks and
/// empty causal buffers. A transport adds its own in-flight check. Nodes
/// are looked at one at a time (`&Node`s, or lock guards taken and
/// released in turn).
pub fn nodes_converged(nodes: impl IntoIterator<Item = impl Deref<Target = Node>>) -> bool {
    let mut first = None;
    nodes.into_iter().all(|node| {
        let replica = node.replica();
        let clock = first.get_or_insert_with(|| replica.clock().clone());
        replica.clock() == clock && replica.pending_count() == 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::{ObjectKind, Val};

    fn r(i: u16) -> ReplicaId {
        ReplicaId(i)
    }

    fn clock(entries: &[(u16, u64)]) -> VClock {
        let mut c = VClock::new();
        for &(r, v) in entries {
            c.set(ReplicaId(r), v);
        }
        c
    }

    #[test]
    fn window_joins_unexpired_promises_and_prunes_expired() {
        let mut w = InFlightWindow::new();
        w.note_burst(clock(&[(0, 3)]), 100);
        w.note_burst(clock(&[(1, 2)]), 200);
        let base = clock(&[(0, 1), (1, 1)]);
        // Both promises live at t=50.
        assert_eq!(w.effective_since(&base, 50), clock(&[(0, 3), (1, 2)]));
        // At t=100 the first promise has expired (arrival time reached).
        assert_eq!(w.effective_since(&base, 100), clock(&[(0, 1), (1, 2)]));
        assert_eq!(w.len(), 1);
        // At t=200 everything expired: back to the applied clock.
        assert_eq!(w.effective_since(&base, 200), base);
        assert!(w.is_empty());
    }

    #[test]
    fn single_promises_only_advance_contiguously() {
        let mut w = InFlightWindow::new();
        let base = clock(&[(0, 4)]);
        // 5 and 6 in flight: frontier advances through both.
        w.note_single(ReplicaId(0), 5, 100);
        w.note_single(ReplicaId(0), 6, 100);
        assert_eq!(w.effective_since(&base, 50), clock(&[(0, 6)]));
        // 8 in flight but 7 is a hole (dropped): the advance stops at 6,
        // keeping 7 (and 8, conservatively) eligible for repair.
        w.note_single(ReplicaId(0), 8, 100);
        assert_eq!(w.effective_since(&base, 50), clock(&[(0, 6)]));
        // A burst promise fills the hole: singles extend past it again.
        w.note_burst(clock(&[(0, 7)]), 100);
        assert_eq!(w.effective_since(&base, 50), clock(&[(0, 8)]));
    }

    #[test]
    fn crash_voids_promises_and_refuses_until_restart() {
        let mut node = Node::new(ReplicaId(0));
        node.note_inflight_burst(clock(&[(1, 5)]), 1_000_000);
        assert_eq!(node.inflight_len(), 1);
        node.crash();
        assert!(node.is_down());
        assert_eq!(node.inflight_len(), 0, "crash clears the window");
        assert_eq!(node.ae_since(0), VClock::new());
        node.restart();
        assert!(!node.is_down());
    }

    #[test]
    fn a_down_node_refuses_a_valid_in_order_batch_untouched() {
        let mut origin = Replica::new(ReplicaId(1));
        let mut tx = origin.begin();
        tx.ensure("c", ObjectKind::PNCounter).unwrap();
        tx.counter_add("c", 1).unwrap();
        tx.commit();
        let batch = origin.take_outbox().pop().expect("one batch");
        assert!(batch.passes_gate());
        let mut node = Node::new(ReplicaId(0));
        node.crash();
        assert_eq!(node.receive(Arc::clone(&batch)), None);
        assert_eq!(node.replica().stats.batches_received, 0);
        assert_eq!(node.replica().clock().get(ReplicaId(1)), 0);
        node.restart();
        assert_eq!(node.receive(batch), Some(1), "the same batch, admitted");
    }

    #[test]
    fn links_are_symmetric_and_heal_all_heals_every_link() {
        let links = Links::new(3);
        assert!((0..3).all(|a| (0..3).all(|b| links.is_up(a, b))));
        links.set(0, 2, false);
        links.set(2, 1, false);
        for (a, b) in [(0, 2), (2, 0), (1, 2), (2, 1)] {
            assert!(!links.is_up(a, b), "{a}-{b} is cut both ways");
        }
        assert!(links.is_up(0, 1) && links.is_up(1, 0));
        links.set(2, 0, true);
        assert!(links.is_up(0, 2) && !links.is_up(1, 2));
        links.heal_all();
        assert!((0..3).all(|a| (0..3).all(|b| links.is_up(a, b))));
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
    fn node_round_skips_down_nodes_and_converges_live_ones() {
        let mut nodes: Vec<Node> = (0..3).map(|i| Node::new(ReplicaId(i))).collect();
        {
            let mut tx = nodes[0].replica_mut().begin();
            tx.ensure("set", ObjectKind::AWSet).unwrap();
            tx.aw_add("set", Val::str("x")).unwrap();
            tx.commit();
            nodes[0].replica_mut().take_outbox(); // lost: AE must repair
        }
        nodes[2].crash();
        let mut cursors = AeCursors::new();
        let rounds = anti_entropy_fixpoint_nodes(&mut nodes, &mut cursors);
        assert_eq!(rounds, 1);
        assert_eq!(nodes[1].replica().clock().get(ReplicaId(0)), 1);
        assert_eq!(
            nodes[2].replica().clock().get(ReplicaId(0)),
            0,
            "down nodes do not pull"
        );
        nodes[2].restart();
        assert!(anti_entropy_fixpoint_nodes(&mut nodes, &mut cursors) >= 1);
        assert_eq!(nodes[2].replica().clock().get(ReplicaId(0)), 1);
    }
}
