//! Anti-entropy cursor coverage: the per-peer cursors (and the indexed
//! per-origin log segments underneath them) must never change *what* a
//! pull returns — only what it costs. Three hostile shapes:
//!
//! * a pull interrupted by a crash (the puller loses its buffered half
//!   and must be repaired by later cursor-carrying rounds),
//! * GC compacting a log prefix while a peer's cursor still points
//!   before it,
//! * a seeded property test comparing every cursor-based pull against a
//!   full-scan oracle over the application-order log snapshot — the
//!   exact set *and order* the legacy implementation returned.

use ipa_crdt::{ObjectKind, ReplicaId};
use ipa_store::{anti_entropy_round_nodes, AeCursors, Node, Replica};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn r(i: u16) -> ReplicaId {
    ReplicaId(i)
}

fn commit_counter(replica: &mut Replica, key: &str, delta: i64) {
    let mut tx = replica.begin();
    tx.ensure(key, ObjectKind::PNCounter).unwrap();
    tx.counter_add(key, delta).unwrap();
    tx.commit();
}

/// Equal clocks and nothing buffered, over replicas or nodes.
fn converged<T>(xs: &[T], replica: impl Fn(&T) -> &Replica) -> bool {
    xs.iter()
        .map(&replica)
        .all(|x| x.clock() == replica(&xs[0]).clock() && x.pending_count() == 0)
}

#[test]
fn crash_mid_pull_recovers_through_later_rounds() {
    let mut nodes = vec![Node::new(r(0)), Node::new(r(1))];
    for i in 0..10 {
        commit_counter(nodes[0].replica_mut(), "c", i);
    }
    // The direct replication traffic is lost entirely (partition).
    nodes[0].replica_mut().take_outbox();

    // A pull starts: the source serves the full gap and the cursor
    // records it, but only the second half ever arrives — out of order,
    // so every delivered batch buffers as non-deliverable.
    let mut cursors = AeCursors::new();
    let since = nodes[1].replica().clock().clone();
    let version = nodes[0].replica().log_version();
    assert!(cursors.should_pull(r(1), r(0), &since, version));
    let missing = nodes[0].replica_mut().batches_since(&since);
    cursors.record(r(1), r(0), since, version, missing.is_empty());
    assert_eq!(missing.len(), 10);
    for b in &missing[5..] {
        assert_eq!(
            nodes[1].replica_mut().receive(Arc::clone(b)),
            0,
            "buffered, not applied"
        );
    }
    assert_eq!(nodes[1].replica().pending_count(), 5);

    // Mid-pull crash: the buffered half is gone.
    nodes[1].replica_mut().crash();
    assert_eq!(nodes[1].replica().pending_count(), 0);
    assert_eq!(nodes[1].replica().clock().total(), 0);

    // Cursor-carrying rounds repair from the durable log: the crashed
    // puller's clock still says it has nothing, so the cursor must not
    // skip the pair.
    let applied = anti_entropy_round_nodes(&mut nodes, &mut cursors);
    assert_eq!(applied, 10, "restart pull re-serves the full gap");
    assert!(converged(&nodes, Node::replica));
    assert!(nodes[1].replica().applied_consistent());
    // One more round discovers the drained state (it still probes);
    // after that the pair is skipped without touching the log.
    assert_eq!(anti_entropy_round_nodes(&mut nodes, &mut cursors), 0);
    let probes = nodes[0].replica().stats.anti_entropy_scanned;
    assert_eq!(anti_entropy_round_nodes(&mut nodes, &mut cursors), 0);
    assert_eq!(
        nodes[0].replica().stats.anti_entropy_scanned,
        probes,
        "drained round skipped the pull without probing the log"
    );
}

#[test]
fn gc_compaction_before_the_cursor_is_crossed_safely() {
    let ids = [r(0), r(1), r(2)];
    let mut nodes: Vec<Node> = ids.iter().map(|&i| Node::new(i)).collect();
    let mut cursors = AeCursors::new();

    // Replica 0 commits a burst; everyone syncs, then acknowledges with
    // a commit of their own (whose clock therefore covers the burst) and
    // syncs again — advancing the stability frontier past the burst.
    // Direct traffic is dropped throughout; cursors drive the exchange.
    for i in 0..5 {
        commit_counter(nodes[0].replica_mut(), "c", i);
    }
    nodes[0].replica_mut().take_outbox();
    while anti_entropy_round_nodes(&mut nodes, &mut cursors) > 0 {}
    commit_counter(nodes[1].replica_mut(), "ack1", 1);
    commit_counter(nodes[2].replica_mut(), "ack2", 1);
    nodes[1].replica_mut().take_outbox();
    nodes[2].replica_mut().take_outbox();
    while anti_entropy_round_nodes(&mut nodes, &mut cursors) > 0 {}
    assert!(converged(&nodes, Node::replica));

    // Compact: the synced burst is causally stable everywhere.
    let before = nodes[0].replica().log_len();
    for n in nodes.iter_mut() {
        n.replica_mut().run_gc(&ids);
    }
    assert!(
        nodes[0].replica().log_len() < before,
        "stable prefix compacted: {} -> {}",
        before,
        nodes[0].replica().log_len()
    );

    // New commits after compaction: peers' cursors predate the
    // compaction (their recorded log version is stale), and the seek
    // must serve exactly the new tail from the shortened segments.
    for i in 0..3 {
        commit_counter(nodes[0].replica_mut(), "c", 100 + i);
    }
    nodes[0].replica_mut().take_outbox();
    let base = nodes[1].replica().stats.batches_received;
    let applied = anti_entropy_round_nodes(&mut nodes, &mut cursors);
    assert_eq!(applied, 6, "both peers pulled exactly the 3 new batches");
    assert_eq!(
        nodes[1].replica().stats.batches_received - base,
        3,
        "no compacted batch was re-sent"
    );
    while anti_entropy_round_nodes(&mut nodes, &mut cursors) > 0 {}
    assert!(converged(&nodes, Node::replica));
    for n in &nodes {
        assert!(n.replica().applied_consistent());
    }
}

/// Full-scan oracle: what the legacy implementation returned for a pull
/// — every logged batch whose origin sequence exceeds the requester's
/// clock, in application order.
fn full_scan_oracle(src: &Replica, since: &ipa_crdt::VClock) -> Vec<(ReplicaId, u64)> {
    src.log_snapshot()
        .iter()
        .filter(|b| b.clock.get(b.origin) > since.get(b.origin))
        .map(|b| (b.origin, b.seq))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Across seeds: interleaved commits, lossy direct delivery, and
    /// occasional GC; every cursor-based pull must return exactly the
    /// sequence the full-scan oracle computes, every cursor skip must
    /// coincide with an empty oracle, and the cluster must converge.
    #[test]
    fn cursor_pulls_deliver_exactly_the_full_scan_set(seed in 0u64..5_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids = [r(0), r(1), r(2)];
        let mut replicas: Vec<Replica> = ids.iter().map(|&i| Replica::new(i)).collect();
        for step in 0..40 {
            let who = rng.gen_range(0..replicas.len());
            commit_counter(&mut replicas[who], "c", step);
            for b in replicas[who].take_outbox() {
                for (dst, replica) in replicas.iter_mut().enumerate() {
                    // 40% of direct deliveries are dropped.
                    if dst != who && rng.gen_bool(0.6) {
                        replica.receive(Arc::clone(&b));
                    }
                }
            }
            if rng.gen_bool(0.15) {
                let gc = rng.gen_range(0..replicas.len());
                replicas[gc].run_gc(&ids);
            }
        }

        // Cursor-driven repair to fixpoint, checking every pull (and
        // every skip) against the oracle.
        let mut cursors = AeCursors::new();
        loop {
            let mut applied = 0;
            for dst in 0..replicas.len() {
                for src in 0..replicas.len() {
                    if src == dst {
                        continue;
                    }
                    let since = replicas[dst].clock().clone();
                    let version = replicas[src].log_version();
                    let expected = full_scan_oracle(&replicas[src], &since);
                    let (d, s) = (replicas[dst].id(), replicas[src].id());
                    if cursors.should_pull(d, s, &since, version) {
                        let pulled = replicas[src].batches_since(&since);
                        let got: Vec<(ReplicaId, u64)> =
                            pulled.iter().map(|b| (b.origin, b.seq)).collect();
                        prop_assert_eq!(&got, &expected, "pull != full scan (seed {})", seed);
                        cursors.record(d, s, since, version, got.is_empty());
                        for b in pulled {
                            applied += replicas[dst].receive(b);
                        }
                    } else {
                        prop_assert!(
                            expected.is_empty(),
                            "cursor skipped a pair the oracle says has {} batches (seed {})",
                            expected.len(),
                            seed
                        );
                    }
                }
            }
            if applied == 0 {
                break;
            }
        }
        prop_assert!(converged(&replicas, |r| r), "seed {} did not converge", seed);
        for x in &replicas {
            prop_assert!(x.applied_consistent());
        }
    }
}
