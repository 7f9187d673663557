//! Store-level schedule exploration: for **every** `ObjectKind`, a
//! cluster whose traffic is delivered under a hostile seeded schedule —
//! random reordering, drops, duplicates — must converge to the same
//! observable state it reaches under benign delivery, and no batch may
//! ever double-apply.

use ipa_crdt::{ObjectKind, ReplicaId, Val};
use ipa_store::{Cluster, DeliveryFaults, Schedule};

const KINDS: &[ObjectKind] = &[
    ObjectKind::AWSet,
    ObjectKind::RWSet,
    ObjectKind::AWMap,
    ObjectKind::PNCounter,
    ObjectKind::BCounter {
        floor: 0,
        initial: 50,
    },
    ObjectKind::LWW,
    ObjectKind::CompSet { capacity: 3 },
];

fn kind_name(kind: ObjectKind) -> &'static str {
    match kind {
        ObjectKind::AWSet => "awset",
        ObjectKind::RWSet => "rwset",
        ObjectKind::AWMap => "awmap",
        ObjectKind::PNCounter => "pncounter",
        ObjectKind::BCounter { .. } => "bcounter",
        ObjectKind::LWW => "lww",
        ObjectKind::CompSet { .. } => "compset",
    }
}

/// One round of writes for `kind` at replica `r`. `phase` 0 populates,
/// phase 1 mixes removals/overwrites so concurrent conflict resolution
/// is actually exercised.
fn commit_round(cluster: &mut Cluster, kind: ObjectKind, r: u16, phase: usize) {
    let key = kind_name(kind);
    let replica = cluster.replica_mut(ReplicaId(r));
    let mut tx = replica.begin();
    tx.ensure(key, kind).unwrap();
    for i in 0..3u16 {
        let elem = Val::str(format!("e{i}"));
        match (kind, phase) {
            (ObjectKind::AWSet, 0) => tx.aw_add(key, Val::str(format!("e{r}-{i}"))).unwrap(),
            (ObjectKind::AWSet, _) => {
                // Re-add a shared element at some replicas, remove it at
                // others: add-wins must decide identically everywhere.
                if r == 0 {
                    tx.aw_remove(key, &elem).unwrap()
                } else {
                    tx.aw_add(key, elem).unwrap()
                }
            }
            (ObjectKind::RWSet, 0) => tx.rw_add(key, Val::pair(format!("p{r}"), "t")).unwrap(),
            (ObjectKind::RWSet, _) => {
                if r == 0 {
                    tx.rw_remove(key, Val::pair(format!("p{}", (r + 1) % 3), "t"))
                        .unwrap()
                } else {
                    tx.rw_add(key, Val::pair(format!("p{r}"), "t")).unwrap()
                }
            }
            (ObjectKind::AWMap, 0) => tx
                .map_put(key, elem, Val::str(format!("payload-{r}-{i}")))
                .unwrap(),
            (ObjectKind::AWMap, _) => {
                if r == 0 {
                    tx.map_remove(key, &elem).unwrap()
                } else {
                    tx.map_touch(key, elem).unwrap()
                }
            }
            (ObjectKind::PNCounter, _) => tx
                .counter_add(key, i64::from(r) + i64::from(i) - 2)
                .unwrap(),
            (ObjectKind::BCounter { .. }, 0) => tx.bcounter_inc(key, u64::from(r) + 1).unwrap(),
            (ObjectKind::BCounter { .. }, _) => {
                // Rights start at replica 0 (creation owner).
                if r == 0 {
                    tx.bcounter_dec(key, 1).unwrap()
                } else {
                    tx.bcounter_inc(key, 1).unwrap()
                }
            }
            (ObjectKind::LWW, _) => tx
                .lww_write(key, Val::str(format!("w{phase}-{r}-{i}")))
                .unwrap(),
            (ObjectKind::CompSet { .. }, _) => tx
                .compset_add(key, Val::str(format!("u{phase}-{r}-{i}")))
                .unwrap(),
        }
    }
    tx.commit();
}

/// Deterministic projection of the observable state of `kind` at one
/// replica (state internals like entry order may legitimately differ).
fn observe(cluster: &Cluster, kind: ObjectKind, r: u16) -> String {
    let key = kind_name(kind);
    let obj = cluster
        .replica(ReplicaId(r))
        .object(key)
        .unwrap_or_else(|| panic!("replica {r} never materialized {key}"));
    match kind {
        ObjectKind::AWSet => {
            let mut e: Vec<String> = obj
                .as_awset()
                .unwrap()
                .elements()
                .map(|v| format!("{v:?}"))
                .collect();
            e.sort();
            format!("{e:?}")
        }
        ObjectKind::RWSet => {
            let mut e: Vec<String> = obj
                .as_rwset()
                .unwrap()
                .elements()
                .map(|v| format!("{v:?}"))
                .collect();
            e.sort();
            format!("{e:?}")
        }
        ObjectKind::AWMap => {
            let m = obj.as_awmap().unwrap();
            let mut e: Vec<String> = m.keys().map(|k| format!("{k:?}={:?}", m.get(k))).collect();
            e.sort();
            format!("{e:?}")
        }
        ObjectKind::PNCounter => obj.as_pncounter().unwrap().value().to_string(),
        ObjectKind::BCounter { .. } => obj.as_bcounter().unwrap().value().to_string(),
        ObjectKind::LWW => format!("{:?}", obj.as_lww().unwrap().get()),
        ObjectKind::CompSet { .. } => {
            // `read` prepares the compensation, which must resolve
            // identically at every converged replica.
            let read = obj.as_compset().unwrap().read();
            let mut e: Vec<String> = read.elements.iter().map(|v| format!("{v:?}")).collect();
            e.sort();
            let mut c: Vec<String> = read.cancelled.iter().map(|v| format!("{v:?}")).collect();
            c.sort();
            format!("kept={e:?} cancelled={c:?}")
        }
    }
}

/// Build the workload for one kind: populate, replicate benignly, then a
/// conflicting round left undelivered (the hostile schedule's payload).
fn build(kind: ObjectKind) -> Cluster {
    let mut cluster = Cluster::new(3);
    for r in 0..3 {
        commit_round(&mut cluster, kind, r, 0);
    }
    cluster.sync();
    for r in 0..3 {
        commit_round(&mut cluster, kind, r, 1);
    }
    cluster
}

#[test]
fn every_object_kind_converges_under_hostile_schedules() {
    for &kind in KINDS {
        // Benign reference outcome.
        let mut reference = build(kind);
        reference.sync();
        let expected = observe(&reference, kind, 0);

        for seed in [1u64, 7, 42, 1337] {
            let mut cluster = build(kind);
            let faults = DeliveryFaults {
                drop_p: 0.25,
                dup_p: 0.25,
            };
            let report = Schedule::from_seed(seed).run(&mut cluster, faults);
            assert!(
                cluster.converged(),
                "{}/seed {seed}: cluster did not converge ({report:?})",
                kind_name(kind)
            );
            for r in 0..3u16 {
                assert_eq!(
                    observe(&cluster, kind, r),
                    expected,
                    "{}/seed {seed}: replica {r} diverged from the benign outcome",
                    kind_name(kind)
                );
                assert!(
                    cluster.replica(ReplicaId(r)).applied_consistent(),
                    "{}/seed {seed}: replica {r} double-applied a batch",
                    kind_name(kind)
                );
            }
        }
    }
}

#[test]
fn hostile_schedules_replay_from_seed() {
    for &kind in KINDS {
        let faults = DeliveryFaults {
            drop_p: 0.3,
            dup_p: 0.2,
        };
        let a = Schedule::from_seed(99).run(&mut build(kind), faults);
        let b = Schedule::from_seed(99).run(&mut build(kind), faults);
        assert_eq!(
            a,
            b,
            "{}: same seed must replay the identical schedule",
            kind_name(kind)
        );
    }
}
