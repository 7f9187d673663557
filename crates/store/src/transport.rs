//! The **Transport/Node** abstraction — the contract between the
//! invariant machinery and the delivery substrate.
//!
//! Everything above this module (CRDT semantics, causal delivery,
//! anti-entropy repair, the oracle suite) is a pure function of *which
//! batches reach which replica in which order*. This module names that
//! boundary: a [`Node`] is a replica actor that owns its store shard,
//! and a [`Transport`] moves committed [`crate::UpdateBatch`]es between
//! nodes, injects partitions and crashes, and drives anti-entropy
//! repair. See `ARCHITECTURE.md` for the full layer map and the
//! determinism guarantees each implementation must (and need not)
//! provide.
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
use crate::replica::{AeCursors, Replica};
use ipa_crdt::{ReplicaId, VClock};
use std::sync::Arc;

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
/// [`Replica::receive`]; nothing else touches the shard.
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

/// The pluggable replication substrate: batch fan-out, anti-entropy
/// pull, and partition/crash fault signals over a fixed set of
/// [`Node`]s.
///
/// ## Contract
///
/// Every implementation must provide:
///
/// * **Causal delivery feed** — every batch handed to a node goes
///   through [`Replica::receive`], which buffers until causal
///   predecessors arrive and deduplicates redeliveries. The transport
///   may therefore drop, duplicate, delay, and reorder freely.
/// * **Durable-log repair** — [`Transport::anti_entropy`] moves batches
///   a node is missing from some peer's durable log, and repeated
///   rounds converge the cluster as long as every batch survives in at
///   least one log ([`Transport::quiesce_transport`] runs them to the
///   fixpoint).
/// * **Fault signals** — [`Transport::set_link`] makes a pair
///   unreachable in both directions until healed;
///   [`Transport::crash`]/[`Transport::restart`] lose a node's volatile
///   state and refuse its traffic while down.
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

    /// Cut (`up = false`) or heal (`up = true`) the pair's link in both
    /// directions. While cut, sends between the pair are lost or
    /// stalled (implementation-specific) and anti-entropy skips the
    /// pair; repair flows through third parties or after the heal.
    fn set_link(&mut self, a: ReplicaId, b: ReplicaId, up: bool);

    /// Crash a node (see [`Node::crash`]): volatile state lost, traffic
    /// refused until [`Transport::restart`].
    fn crash(&mut self, node: ReplicaId);

    /// Restart a crashed node; catch-up happens through anti-entropy.
    fn restart(&mut self, node: ReplicaId);

    /// One synchronous anti-entropy round: every live node pulls what
    /// it is missing from every live, reachable peer's durable log.
    /// Returns the number of batches applied cluster-wide.
    fn anti_entropy(&mut self) -> usize;

    /// Drive replication to quiescence: restart every crashed node,
    /// deliver or void everything outstanding, and run anti-entropy to
    /// its fixpoint. Returns the number of *productive* rounds the
    /// fixpoint needed — the bounded-liveness oracle's input.
    fn quiesce_transport(&mut self) -> u64;

    /// Are all nodes converged (equal clocks, nothing buffered)?
    /// Meaningful after [`Transport::quiesce_transport`].
    fn converged(&mut self) -> bool;
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
/// what a delivery is ([`Replica::receive`] now, or an arrival scheduled
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
/// `link_up(src, dst)` gates each pull (partition-aware transports pass
/// their link matrix).
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
        |dst, _, missing| {
            let dst = dst.replica_mut();
            missing.into_iter().map(|b| dst.receive(b)).sum()
        },
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

/// The node half of [`Transport::converged`]: equal applied clocks and
/// empty causal buffers. A transport adds its own in-flight check.
pub fn nodes_converged(nodes: &[Node]) -> bool {
    let first = nodes[0].replica().clock();
    nodes
        .iter()
        .all(|n| n.replica().clock() == first && n.replica().pending_count() == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::{ObjectKind, Val};

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
