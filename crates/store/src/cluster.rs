//! An in-process cluster of replicas with manual replication pumping —
//! the zero-latency harness used by tests and the application layer
//! (the latency-accurate transport lives in `ipa-sim`).

use crate::batch::UpdateBatch;
use crate::replica::Replica;
use crate::transport::{gc_round, nodes_converged, AeCursors, Links, Node, Transport};
use ipa_crdt::ReplicaId;
use std::sync::Arc;

/// A set of replica [`Node`]s plus an in-memory transport. Implements
/// [`Transport`] (synchronous, zero-latency): sends toward a cut link are
/// dropped at pickup and sends toward a crashed node are refused at
/// delivery — anti-entropy repairs both, exactly like the
/// latency-accurate transports.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
    /// Batches picked up from outboxes but not yet delivered:
    /// `(destination, batch)`. The payload is shared — fan-out to `n`
    /// destinations costs `n` `Arc` clones, not `n` deep copies.
    in_flight: Vec<(ReplicaId, Arc<UpdateBatch>)>,
    /// Per-peer anti-entropy cursors carried across rounds: converged
    /// pairs are skipped without probing the source log.
    ae_cursors: AeCursors,
    links: Links,
}

impl Cluster {
    /// `n` replicas with ids `0..n`.
    pub fn new(n: u16) -> Cluster {
        Cluster {
            nodes: (0..n).map(|i| Node::new(ReplicaId(i))).collect(),
            in_flight: Vec::new(),
            ae_cursors: AeCursors::new(),
            links: Links::new(n as usize),
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn replica_ids(&self) -> Vec<ReplicaId> {
        self.nodes.iter().map(Node::id).collect()
    }

    pub fn replica(&self, id: ReplicaId) -> &Replica {
        self.nodes[id.0 as usize].replica()
    }

    pub fn replica_mut(&mut self, id: ReplicaId) -> &mut Replica {
        self.nodes[id.0 as usize].replica_mut()
    }

    /// Move committed batches from every outbox into the in-flight queue
    /// (fan-out to all other replicas; `Arc` clones only). Sends toward
    /// a cut link are dropped (anti-entropy repairs).
    pub fn collect_outboxes(&mut self) {
        let n = self.nodes.len() as u16;
        let mut staged = Vec::new();
        for i in 0..self.nodes.len() {
            for batch in self.nodes[i].replica_mut().take_outbox() {
                let origin = batch.origin.0;
                for dest in (0..n).filter(|&d| d != origin && self.links.is_up(origin, d)) {
                    staged.push((ReplicaId(dest), Arc::clone(&batch)));
                }
            }
        }
        self.in_flight.extend(staged);
    }

    /// Number of undelivered in-flight batches (observability).
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Drop an in-flight batch by queue index (fault injection). Returns
    /// false when the index is out of range.
    pub fn drop_in_flight(&mut self, idx: usize) -> bool {
        if idx < self.in_flight.len() {
            self.in_flight.swap_remove(idx);
            true
        } else {
            false
        }
    }

    /// Duplicate an in-flight batch by queue index (fault injection).
    pub fn duplicate_in_flight(&mut self, idx: usize) -> bool {
        if idx < self.in_flight.len() {
            let copy = (self.in_flight[idx].0, Arc::clone(&self.in_flight[idx].1));
            self.in_flight.push(copy);
            true
        } else {
            false
        }
    }

    /// Deliver the in-flight batch at `idx` to its destination. Returns
    /// the number of batches the destination applied (0 when buffered,
    /// deduplicated, or refused while down).
    pub fn deliver_in_flight(&mut self, idx: usize) -> usize {
        let (dest, batch) = self.in_flight.swap_remove(idx);
        self.nodes[dest.0 as usize].receive(batch).unwrap_or(0)
    }

    /// Destination, origin, and origin-sequence of the in-flight batch
    /// at `idx` — the schedule explorer's per-step view of the network.
    pub fn in_flight_meta_at(&self, idx: usize) -> Option<(ReplicaId, ReplicaId, u64)> {
        self.in_flight
            .get(idx)
            .map(|(dest, b)| (*dest, b.origin, b.seq))
    }

    /// Deliver every in-flight batch (in queue order); down nodes
    /// refuse theirs.
    pub fn deliver_all(&mut self) {
        for (dest, batch) in std::mem::take(&mut self.in_flight) {
            self.nodes[dest.0 as usize].receive(batch);
        }
    }

    /// Pump replication until quiescent: collect outboxes and deliver,
    /// repeating while anything moves.
    pub fn sync(&mut self) {
        loop {
            self.collect_outboxes();
            if self.in_flight.is_empty() {
                break;
            }
            self.deliver_all();
        }
    }

    /// One full round of anti-entropy: every replica pulls the batches it
    /// is missing from every peer's durable log. Repairs arbitrary drops
    /// (and crash-lost outboxes) as long as some replica still logs the
    /// batch. Returns the number of batches applied cluster-wide.
    pub fn anti_entropy(&mut self) -> usize {
        let links = &self.links;
        crate::transport::anti_entropy_round_nodes_with_links(
            &mut self.nodes,
            &mut self.ae_cursors,
            |src, dst| links.is_up(src.0, dst.0),
        )
    }

    /// Pump anti-entropy rounds until no replica learns anything new.
    pub fn anti_entropy_to_fixpoint(&mut self) {
        while self.anti_entropy() > 0 {}
    }

    /// Run stability GC on every live replica ([`gc_round`]).
    pub fn run_gc(&mut self) {
        gc_round(&mut self.nodes);
    }

    /// Are all replicas converged: equal clocks, nothing buffered at a
    /// node, nothing in flight?
    pub fn converged(&self) -> bool {
        nodes_converged(&self.nodes) && self.in_flight.is_empty()
    }

    /// Cut or heal the (symmetric) link between `a` and `b`.
    pub fn set_link_up(&self, a: ReplicaId, b: ReplicaId, up: bool) {
        self.links.set(a.0, b.0, up);
    }

    /// Crash the node: it loses its outbox and receive buffer, and
    /// refuses deliveries and pulls until restarted. Returns the number
    /// of batches lost.
    pub fn crash_node(&mut self, id: ReplicaId) -> usize {
        self.nodes[id.0 as usize].crash()
    }

    /// Bring a crashed node back (durable log intact; anti-entropy
    /// repairs whatever it missed).
    pub fn restart_node(&mut self, id: ReplicaId) {
        self.nodes[id.0 as usize].restart();
    }
}

impl Transport for Cluster {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn with_node<R>(&mut self, node: ReplicaId, f: impl FnOnce(&mut Replica) -> R) -> R {
        f(self.replica_mut(node))
    }

    fn ship(&mut self, _node: ReplicaId) {
        // Zero-latency: pick up every outbox and deliver immediately.
        self.collect_outboxes();
        self.deliver_all();
    }

    fn quiesce_transport(&mut self) -> u64 {
        // Heal every fault, flush the network, then pump anti-entropy to
        // fixpoint, counting productive rounds.
        for node in &mut self.nodes {
            node.restart();
        }
        self.links.heal_all();
        self.collect_outboxes();
        self.deliver_all();
        let mut rounds = 0;
        while Cluster::anti_entropy(self) > 0 {
            rounds += 1;
        }
        rounds
    }

    fn converged(&mut self) -> bool {
        Cluster::converged(self)
    }

    fn link_up(&self, a: ReplicaId, b: ReplicaId) -> bool {
        self.links.is_up(a.0, b.0)
    }

    fn node_up(&self, node: ReplicaId) -> bool {
        !self.nodes[node.0 as usize].is_down()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::{ObjectKind, Val};

    #[test]
    fn three_replica_convergence() {
        let mut cluster = Cluster::new(3);
        for i in 0..3u16 {
            let r = cluster.replica_mut(ReplicaId(i));
            let mut tx = r.begin();
            tx.ensure("set", ObjectKind::AWSet).unwrap();
            tx.aw_add("set", Val::str(format!("from-{i}"))).unwrap();
            tx.commit();
        }
        cluster.sync();
        assert!(cluster.converged());
        for i in 0..3u16 {
            let obj = cluster.replica(ReplicaId(i)).object("set").unwrap();
            assert_eq!(obj.as_awset().unwrap().len(), 3);
        }
    }

    #[test]
    fn concurrent_add_remove_respects_object_policy() {
        let mut cluster = Cluster::new(2);
        // Seed: element present everywhere.
        {
            let r = cluster.replica_mut(ReplicaId(0));
            let mut tx = r.begin();
            tx.ensure("aw", ObjectKind::AWSet).unwrap();
            tx.ensure("rw", ObjectKind::RWSet).unwrap();
            tx.aw_add("aw", Val::str("x")).unwrap();
            tx.rw_add("rw", Val::str("x")).unwrap();
            tx.commit();
        }
        cluster.sync();
        // Replica 0 removes; replica 1 concurrently re-adds.
        {
            let r = cluster.replica_mut(ReplicaId(0));
            let mut tx = r.begin();
            tx.aw_remove("aw", &Val::str("x")).unwrap();
            tx.rw_remove("rw", Val::str("x")).unwrap();
            tx.commit();
        }
        {
            let r = cluster.replica_mut(ReplicaId(1));
            let mut tx = r.begin();
            tx.aw_add("aw", Val::str("x")).unwrap();
            tx.rw_add("rw", Val::str("x")).unwrap();
            tx.commit();
        }
        cluster.sync();
        assert!(cluster.converged());
        for i in 0..2u16 {
            let rep = cluster.replica(ReplicaId(i));
            assert_eq!(
                rep.object("aw").unwrap().set_contains(&Val::str("x")),
                Some(true),
                "add-wins keeps the element"
            );
            assert_eq!(
                rep.object("rw").unwrap().set_contains(&Val::str("x")),
                Some(false),
                "rem-wins drops the element"
            );
        }
    }

    #[test]
    fn gc_after_convergence_shrinks_metadata() {
        let mut cluster = Cluster::new(2);
        {
            let r = cluster.replica_mut(ReplicaId(0));
            let mut tx = r.begin();
            tx.ensure("rw", ObjectKind::RWSet).unwrap();
            tx.rw_add("rw", Val::str("x")).unwrap();
            tx.commit();
            let mut tx = r.begin();
            tx.rw_remove("rw", Val::str("x")).unwrap();
            tx.commit();
        }
        cluster.sync();
        // Everyone must have *sent something* for the frontier to move.
        {
            let r = cluster.replica_mut(ReplicaId(1));
            let mut tx = r.begin();
            tx.ensure("noop", ObjectKind::PNCounter).unwrap();
            tx.counter_add("noop", 1).unwrap();
            tx.commit();
        }
        cluster.sync();
        cluster.run_gc();
        let entries = cluster
            .replica(ReplicaId(0))
            .object("rw")
            .unwrap()
            .as_rwset()
            .unwrap()
            .entry_count();
        assert_eq!(entries, 0);
    }
}
