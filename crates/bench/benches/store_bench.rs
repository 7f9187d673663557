//! Criterion benchmarks for the replicated store: local commit path,
//! remote batch application, stability GC, and the threaded transport
//! from commit to visible everywhere.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ipa_crdt::{ObjectKind, ReplicaId, Val};
use ipa_store::{Replica, ThreadedCluster, ThreadedConfig};
use std::sync::atomic::Ordering;

fn bench_commit_path(c: &mut Criterion) {
    c.bench_function("store/commit_100_updates", |b| {
        b.iter(|| {
            let mut r = Replica::new(ReplicaId(0));
            for i in 0..100u64 {
                let mut tx = r.begin();
                tx.ensure("set", ObjectKind::AWSet).unwrap();
                tx.aw_add("set", Val::int(i as i64)).unwrap();
                tx.commit();
            }
            black_box(r.stats.commits)
        })
    });
}

fn bench_replication(c: &mut Criterion) {
    c.bench_function("store/receive_100_batches", |b| {
        // Pre-build batches at an origin replica.
        let mut origin = Replica::new(ReplicaId(0));
        let mut batches = Vec::new();
        for i in 0..100u64 {
            let mut tx = origin.begin();
            tx.ensure("set", ObjectKind::AWSet).unwrap();
            tx.aw_add("set", Val::int(i as i64)).unwrap();
            tx.commit();
            batches.extend(origin.take_outbox());
        }
        b.iter(|| {
            let mut dest = Replica::new(ReplicaId(1));
            for batch in &batches {
                dest.receive(batch.clone());
            }
            black_box(dest.stats.batches_applied)
        })
    });
}

fn bench_gc(c: &mut Criterion) {
    c.bench_function("store/gc_after_churn", |b| {
        // Two replicas with churned rem-wins state, fully exchanged.
        let build = || {
            let mut a = Replica::new(ReplicaId(0));
            let mut peer = Replica::new(ReplicaId(1));
            for i in 0..200u64 {
                let mut tx = a.begin();
                tx.ensure("rw", ObjectKind::RWSet).unwrap();
                if i % 2 == 0 {
                    tx.rw_add("rw", Val::int(i as i64 % 50)).unwrap();
                } else {
                    tx.rw_remove("rw", Val::int(i as i64 % 50)).unwrap();
                }
                tx.commit();
            }
            for batch in a.take_outbox() {
                peer.receive(batch);
            }
            let mut tx = peer.begin();
            tx.ensure("ack", ObjectKind::PNCounter).unwrap();
            tx.counter_add("ack", 1).unwrap();
            tx.commit();
            for batch in peer.take_outbox() {
                a.receive(batch);
            }
            a
        };
        let replicas = [ReplicaId(0), ReplicaId(1)];
        b.iter(|| {
            let mut a = build();
            a.run_gc(&replicas);
            black_box(a.stats.gc_runs)
        })
    });
}

/// 100 narrow commits per committer, then `barrier()`: every batch is
/// applied at every peer when the iteration ends. With one committer the
/// peers' delivery threads sleep and the committer delivers; with two the
/// peers are busy and batches go through their inboxes.
fn bench_threaded_commit_to_visible(c: &mut Criterion) {
    for (name, committers) in [("one_committer_idle_peers", 1u16), ("two_committers", 2)] {
        c.bench_function(format!("threaded/commit_to_visible/{name}"), |b| {
            let cluster = ThreadedCluster::start(ThreadedConfig {
                ae_interval: None,
                ..Default::default()
            });
            b.iter(|| {
                std::thread::scope(|s| {
                    for region in 0..committers {
                        let cluster = &cluster;
                        s.spawn(move || {
                            for i in 0..100i64 {
                                cluster
                                    .commit_at(region, |tx| {
                                        tx.ensure("set", ObjectKind::AWSet)?;
                                        tx.aw_add("set", Val::int(i))
                                    })
                                    .unwrap();
                            }
                        });
                    }
                });
                cluster.barrier();
                let stats = cluster.stats();
                black_box(
                    stats.delivered_by_sender.load(Ordering::Relaxed)
                        + stats.posted.load(Ordering::Relaxed),
                )
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_commit_path, bench_replication, bench_gc,
        bench_threaded_commit_to_visible
}
criterion_main!(benches);
