//! Sharding is a local layout choice, never a semantic one: applying
//! the same batch stream to replicas with 1, 2, 4, or 8 shards (and
//! with the parallel apply path enabled) must produce identical
//! observable state, identical durable logs, and identical global
//! counters. The single-shard replica is the oracle — it is exactly the
//! pre-sharding data path.

use ipa_crdt::{ObjectKind, ReplicaId, Val};
use ipa_store::ApplyDispatch::{self, Pool, Sequential};
use ipa_store::{Replica, Transaction, UpdateBatch};
use proptest::prelude::*;
use std::sync::Arc;

/// Every object kind, cycled across the key space so each shard count
/// splits a mixed population.
const KINDS: [ObjectKind; 7] = [
    ObjectKind::AWSet,
    ObjectKind::RWSet,
    ObjectKind::AWMap,
    ObjectKind::PNCounter,
    ObjectKind::BCounter {
        floor: 0,
        initial: 10,
    },
    ObjectKind::LWW,
    ObjectKind::CompSet { capacity: 6 },
];

const NUM_KEYS: u8 = 16;

fn key_name(key: u8) -> String {
    format!("k{key}")
}

fn kind_of_key(key: u8) -> ObjectKind {
    KINDS[usize::from(key) % KINDS.len()]
}

/// One update against `key`'s kind; failures (bounded-counter floor,
/// compensation-set capacity) are legal no-ops — the origin decides
/// what ends up in the batch, receivers only replay it.
fn apply_op(tx: &mut Transaction<'_>, key: u8, val: u8) {
    let name = key_name(key);
    let kind = kind_of_key(key);
    tx.ensure(name.as_str(), kind).unwrap();
    let v = Val::str(format!("v{val}"));
    match kind {
        ObjectKind::AWSet => {
            if val % 5 == 4 {
                tx.aw_remove(name.as_str(), &v).unwrap();
            } else {
                tx.aw_add(name.as_str(), v).unwrap();
            }
        }
        ObjectKind::RWSet => {
            if val % 5 == 4 {
                tx.rw_remove(name.as_str(), v).unwrap();
            } else {
                tx.rw_add(name.as_str(), v).unwrap();
            }
        }
        ObjectKind::AWMap => {
            if val % 5 == 4 {
                tx.map_remove(name.as_str(), &Val::str(format!("f{}", val % 3)))
                    .unwrap();
            } else {
                tx.map_put(name.as_str(), Val::str(format!("f{}", val % 3)), v)
                    .unwrap();
            }
        }
        ObjectKind::PNCounter => {
            tx.counter_add(name.as_str(), i64::from(val) - 7).unwrap();
        }
        ObjectKind::BCounter { .. } => {
            if val.is_multiple_of(3) {
                let _ = tx.bcounter_dec(name.as_str(), u64::from(val % 4));
            } else {
                tx.bcounter_inc(name.as_str(), u64::from(val % 4)).unwrap();
            }
        }
        ObjectKind::LWW => {
            tx.lww_write(name.as_str(), v).unwrap();
        }
        ObjectKind::CompSet { .. } => {
            let _ = tx.compset_add(name.as_str(), v);
        }
    }
}

/// Commit the op stream at a single-shard origin in `chunk`-sized
/// transactions; return the replicated batches.
fn commit_stream(ops: &[(u8, u8)], chunk: usize) -> Vec<Arc<UpdateBatch>> {
    let mut origin = Replica::with_shards(ReplicaId(0), 1);
    for txn_ops in ops.chunks(chunk.max(1)) {
        let mut tx = origin.begin();
        for &(key, val) in txn_ops {
            apply_op(&mut tx, key % NUM_KEYS, val);
        }
        tx.commit();
    }
    origin.take_outbox()
}

fn materialize(batches: &[Arc<UpdateBatch>], shards: usize, dispatch: ApplyDispatch) -> Replica {
    let mut r = Replica::with_shards(ReplicaId(1), shards);
    r.set_apply_dispatch(dispatch);
    for b in batches {
        r.receive(Arc::clone(b));
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_apply_matches_the_single_shard_oracle(
        ops in prop::collection::vec(((0u8..NUM_KEYS), (0u8..=255)), 1..300),
        chunk in 1usize..300,
    ) {
        let batches = commit_stream(&ops, chunk);
        prop_assert!(!batches.is_empty());

        let oracle = materialize(&batches, 1, Sequential);
        for (shards, dispatch) in
            [(2, Sequential), (4, Sequential), (8, Sequential), (4, Pool), (8, Pool)]
        {
            let got = materialize(&batches, shards, dispatch);
            prop_assert_eq!(got.shard_count(), shards);
            prop_assert_eq!(got.clock(), oracle.clock(), "clock ({shards} shards)");
            prop_assert_eq!(got.object_count(), oracle.object_count(),
                "object count ({} shards)", shards);
            prop_assert!(got.applied_consistent());
            for key in 0..NUM_KEYS {
                let name = key_name(key);
                let k = name.as_str();
                prop_assert_eq!(got.object(k), oracle.object(k),
                    "object {} ({} shards, {:?})", name, shards, dispatch);
                prop_assert_eq!(got.kind_of(k), oracle.kind_of(k),
                    "kind {} ({} shards)", name, shards);
            }
            // Durable logs are batch-for-batch identical.
            let (a, b) = (oracle.log_snapshot(), got.log_snapshot());
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(&**x, &**y, "log divergence ({} shards)", shards);
            }
            // Global counters are shard-count- and path-invariant.
            let total = |r: &Replica| {
                r.shard_stats().iter().map(|s| s.updates_applied).sum::<u64>()
            };
            prop_assert_eq!(total(&got), total(&oracle));
            prop_assert_eq!(got.stats.batches_applied, oracle.stats.batches_applied);
        }
    }
}
