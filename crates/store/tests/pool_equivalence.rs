//! The persistent shard-worker pool is a dispatch choice, never a
//! semantic one: pool-applied batches must produce identical durable
//! logs, object state, and `ReplicaStats` deltas to the inline
//! single-shard apply path, under random batch shapes — including
//! batches below the dispatch threshold (which apply inline even with
//! the pool enabled) and pool shutdown/restart mid-stream (dispatch-mode
//! toggles tear workers down and respawn them lazily).

use ipa_crdt::{ObjectKind, ReplicaId, Val};
use ipa_store::{ApplyDispatch, Replica, Transaction, UpdateBatch, PARALLEL_APPLY_MIN_UPDATES};
use proptest::prelude::*;
use std::sync::Arc;

/// Every object kind, cycled across the key space (mirrors the
/// shard-equivalence suite so the pool replays a mixed population).
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
/// compensation-set capacity) are legal no-ops.
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
/// transactions (chunks past the dispatch threshold become the wide
/// batches the pool actually handles); return the replicated batches.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pool_apply_matches_the_inline_oracle(
        ops in prop::collection::vec(((0u8..NUM_KEYS), (0u8..=255)), 1..600),
        chunk in 1usize..600,
        toggles in prop::collection::vec(0u8..=1, 0..8),
    ) {
        let batches = commit_stream(&ops, chunk);
        prop_assert!(!batches.is_empty());

        // Oracle: inline single-shard apply — exactly the pre-pool path.
        let mut oracle = Replica::with_shards(ReplicaId(1), 1);
        for b in &batches {
            oracle.receive(Arc::clone(b));
        }

        // Pool replica: dispatch toggled mid-stream per the generated
        // schedule (false tears the worker pool down, true respawns it
        // lazily on the next wide batch), always re-enabled for the
        // remainder once the schedule runs out.
        let mut pooled = Replica::with_shards(ReplicaId(1), 4);
        pooled.set_apply_dispatch(ApplyDispatch::Pool);
        for (i, b) in batches.iter().enumerate() {
            if let Some(&t) = toggles.get(i) {
                let on = t == 1;
                pooled.set_apply_dispatch(if on {
                    ApplyDispatch::Pool
                } else {
                    ApplyDispatch::Sequential
                });
                prop_assert!(on || !pooled.pool_active(),
                    "disabling dispatch must tear the pool down");
            }
            pooled.receive(Arc::clone(b));
        }
        pooled.set_apply_dispatch(ApplyDispatch::Pool);

        prop_assert_eq!(pooled.clock(), oracle.clock());
        prop_assert_eq!(pooled.object_count(), oracle.object_count());
        prop_assert!(pooled.applied_consistent());
        for key in 0..NUM_KEYS {
            let name = key_name(key);
            let k = name.as_str();
            prop_assert_eq!(pooled.object(k), oracle.object(k), "object {}", name);
            prop_assert_eq!(pooled.kind_of(k), oracle.kind_of(k), "kind {}", name);
        }
        // Durable logs are batch-for-batch identical.
        let (a, b) = (oracle.log_snapshot(), pooled.log_snapshot());
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&**x, &**y, "log divergence");
        }
        // ReplicaStats deltas are dispatch-invariant...
        prop_assert_eq!(pooled.stats.batches_received, oracle.stats.batches_received);
        prop_assert_eq!(pooled.stats.batches_applied, oracle.stats.batches_applied);
        prop_assert_eq!(pooled.stats.updates_applied, oracle.stats.updates_applied);
        prop_assert_eq!(pooled.stats.batches_quarantined, 0u64);
        // ...except the pool's own telemetry, which only ever counts
        // wide batches and one job per non-empty shard per batch.
        prop_assert!(oracle.stats.pool_batches == 0 && oracle.stats.pool_dispatches == 0);
        prop_assert!(pooled.stats.pool_batches <= batches.len() as u64);
        prop_assert!(pooled.stats.pool_dispatches >= pooled.stats.pool_batches);
        prop_assert!(
            pooled.stats.pool_dispatches <= pooled.stats.pool_batches * 4,
            "at most one job per shard per pool batch"
        );
    }
}

/// Deterministic teardown/respawn walk: the pool is lazy, dies with the
/// mode, and comes back on the next wide batch — with identical state
/// throughout.
#[test]
fn pool_shutdown_and_restart_mid_stream() {
    // Chunks of 2× the threshold: even after the ops that legally no-op
    // (bounded-counter floor, compensation-set capacity), each batch
    // lands well past `PARALLEL_APPLY_MIN_UPDATES` and dispatches.
    let wide: Vec<(u8, u8)> = (0..PARALLEL_APPLY_MIN_UPDATES as u16 * 4)
        .map(|i| ((i % u16::from(NUM_KEYS)) as u8, (i % 251) as u8))
        .collect();
    let batches = commit_stream(&wide, PARALLEL_APPLY_MIN_UPDATES * 2);
    assert!(batches.len() >= 2);
    assert!(batches
        .iter()
        .all(|b| b.updates.len() >= PARALLEL_APPLY_MIN_UPDATES));

    let mut oracle = Replica::with_shards(ReplicaId(1), 1);
    let mut pooled = Replica::with_shards(ReplicaId(1), 4);
    pooled.set_apply_dispatch(ApplyDispatch::Pool);
    assert!(!pooled.pool_active(), "pool spawn is lazy");

    oracle.receive(Arc::clone(&batches[0]));
    pooled.receive(Arc::clone(&batches[0]));
    assert!(pooled.pool_active(), "first wide batch spawns the workers");
    assert_eq!(pooled.stats.pool_batches, 1);

    pooled.set_apply_dispatch(ApplyDispatch::Sequential);
    assert!(!pooled.pool_active(), "mode change joins the workers");

    pooled.set_apply_dispatch(ApplyDispatch::Pool);
    oracle.receive(Arc::clone(&batches[1]));
    pooled.receive(Arc::clone(&batches[1]));
    assert!(pooled.pool_active(), "respawned on the next wide batch");
    assert_eq!(pooled.stats.pool_batches, 2);

    assert_eq!(pooled.clock(), oracle.clock());
    assert_eq!(pooled.stats.updates_applied, oracle.stats.updates_applied);
    for key in 0..NUM_KEYS {
        let name = key_name(key);
        let k = name.as_str();
        assert_eq!(pooled.object(k), oracle.object(k), "object {name}");
    }
}

/// Every wide batch dispatches one job per shard, and the FNV key spread
/// keeps all worker queues fed: no shard idles and the deepest queue
/// stays within 2x of the mean. Deterministic (a key-hash property).
#[test]
fn wide_batches_spread_evenly_over_the_pool() {
    let keys: Vec<String> = (0..1024).map(|k| format!("p:k{k}")).collect();
    let mut origin = Replica::with_shards(ReplicaId(0), 1);
    for i in 0..16 {
        let mut tx = origin.begin();
        for key in &keys {
            tx.ensure(key.as_str(), ObjectKind::PNCounter).unwrap();
            tx.counter_add(key.as_str(), i).unwrap();
        }
        tx.commit();
    }
    let mut pooled = Replica::with_shards(ReplicaId(1), 4);
    pooled.set_apply_dispatch(ApplyDispatch::Pool);
    for b in origin.take_outbox() {
        pooled.receive(b);
    }
    assert_eq!(pooled.stats.pool_batches, 16);
    assert_eq!(pooled.stats.pool_dispatches, 16 * 4);
    let stats = pooled.shard_stats();
    let hwm: Vec<u64> = stats.iter().map(|s| s.pool_queued_hwm).collect();
    assert!(hwm.iter().all(|&q| q > 0), "idle shard worker: {hwm:?}");
    let max = hwm.iter().max().unwrap();
    assert!(max * 4 <= 2 * hwm.iter().sum::<u64>(), "imbalance: {hwm:?}");
}
