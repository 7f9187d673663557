//! Property tests: every CRDT converges when the same operations are
//! delivered in different causal orders.
//!
//! The harness simulates a small fleet of replicas issuing operations
//! and replays the full op log through `ipa-store`'s **schedule
//! explorer**: seeded causally-consistent interleavings
//! ([`Schedule::sample_order`]) and, for small logs, *exhaustive*
//! enumeration of every reachable delivery order
//! ([`Schedule::enumerate_orders`]). The final states must be identical
//! — the commutativity half of the paper's correctness argument (§2.2,
//! Theorem 1 requires commutative operations). Any failing schedule
//! reproduces from its seed alone.

use ipa_crdt::{
    AWMap, AWSet, Object, ObjectKind, ObjectOp, PNCounter, PNCounterOp, RWSet, ReplicaId, Tag,
    VClock, Val, ValPattern,
};
use ipa_store::schedule::{CausalItem, Schedule};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A scripted command at a replica.
#[derive(Clone, Debug)]
enum Cmd {
    Add(u8),
    Remove(u8),
    RemoveWild(u8), // wildcard: remove every pair with second component = x
    Touch(u8),
}

fn arb_script() -> impl Strategy<Value = Vec<(u8, Cmd)>> {
    let cmd = prop_oneof![
        (0u8..6).prop_map(Cmd::Add),
        (0u8..6).prop_map(Cmd::Remove),
        (0u8..3).prop_map(Cmd::RemoveWild),
        (0u8..6).prop_map(Cmd::Touch),
    ];
    prop::collection::vec(((0u8..3), cmd), 1..24)
}

/// An op log entry: the effect plus its causal clock and origin — the
/// schedule explorer's [`CausalItem`] view of one operation.
#[derive(Clone, Debug)]
struct LogEntry {
    op: ObjectOp,
    clock: VClock,
    origin: ReplicaId,
}

impl CausalItem for LogEntry {
    fn origin(&self) -> ReplicaId {
        self.origin
    }
    fn clock(&self) -> &VClock {
        &self.clock
    }
}

/// Execute the script against live per-replica states (ops prepared at the
/// origin against its current state, applied locally, logged). Returns the
/// log in issue order (a valid causal order).
fn run_script(kind: ObjectKind, script: &[(u8, Cmd)]) -> Vec<LogEntry> {
    let nreplicas = 3u16;
    let mut states: Vec<Object> = (0..nreplicas)
        .map(|r| Object::new(kind, ReplicaId(r)))
        .collect();
    let mut clocks: Vec<VClock> = (0..nreplicas).map(|_| VClock::new()).collect();
    let mut log: Vec<LogEntry> = Vec::new();

    for (i, (r, cmd)) in script.iter().enumerate() {
        let r = (*r % nreplicas as u8) as usize;
        // Naive anti-entropy: before acting, the origin replica receives
        // every logged op it has not yet seen (keeps scripts interesting
        // while remaining causal).
        if i % 3 == 0 {
            for e in &log {
                if !e.clock.le(&clocks[r]) {
                    states[r].apply(&e.op).unwrap();
                    clocks[r].merge(&e.clock);
                }
            }
        }
        let seq = clocks[r].tick(ReplicaId(r as u16));
        let tag = Tag::new(ReplicaId(r as u16), seq);
        let clock = clocks[r].clone();
        let elem = |x: u8| Val::pair(format!("p{x}"), format!("t{}", x % 3));
        let op = match (kind, cmd) {
            (ObjectKind::AWSet, Cmd::Add(x)) | (ObjectKind::AWSet, Cmd::Touch(x)) => Some(
                ObjectOp::AWSet(states[r].as_awset().unwrap().prepare_add(elem(*x), tag)),
            ),
            (ObjectKind::AWSet, Cmd::Remove(x)) => states[r]
                .as_awset()
                .unwrap()
                .prepare_remove(&elem(*x))
                .map(ObjectOp::AWSet),
            (ObjectKind::AWSet, Cmd::RemoveWild(x)) => {
                let t = Val::str(format!("t{}", x % 3));
                Some(ObjectOp::AWSet(
                    states[r]
                        .as_awset()
                        .unwrap()
                        .prepare_remove_matching(&|e: &Val| e.snd() == Some(&t)),
                ))
            }
            (ObjectKind::RWSet, Cmd::Add(x)) | (ObjectKind::RWSet, Cmd::Touch(x)) => Some(
                ObjectOp::RWSet(Box::new(states[r].as_rwset().unwrap().prepare_add(
                    elem(*x),
                    tag,
                    clock.clone(),
                ))),
            ),
            (ObjectKind::RWSet, Cmd::Remove(x)) => Some(ObjectOp::RWSet(Box::new(
                states[r]
                    .as_rwset()
                    .unwrap()
                    .prepare_remove(elem(*x), tag, clock.clone()),
            ))),
            (ObjectKind::RWSet, Cmd::RemoveWild(x)) => Some(ObjectOp::RWSet(Box::new(
                states[r].as_rwset().unwrap().prepare_remove_matching(
                    ValPattern::pair(ValPattern::Any, ValPattern::exact(format!("t{}", x % 3))),
                    tag,
                    clock.clone(),
                ),
            ))),
            _ => None,
        };
        if let Some(op) = op {
            states[r].apply(&op).unwrap();
            log.push(LogEntry {
                op,
                clock,
                origin: ReplicaId(r as u16),
            });
        } else {
            // Command prepared nothing (e.g. removing an absent element):
            // undo the clock tick to keep clocks dense.
            clocks[r].set(ReplicaId(r as u16), seq - 1);
        }
    }
    log
}

/// Replay the log onto a fresh object in the given index order.
fn replay_order(kind: ObjectKind, log: &[LogEntry], order: &[usize]) -> Object {
    let mut o = Object::new(kind, ReplicaId(99));
    for &i in order {
        o.apply(&log[i].op).unwrap();
    }
    o
}

fn replay(kind: ObjectKind, log: &[LogEntry]) -> Object {
    let order: Vec<usize> = (0..log.len()).collect();
    replay_order(kind, log, &order)
}

/// Observable membership of a set-like object (RWSet state vectors may
/// store entries in different orders, so compare what readers see).
fn membership(o: &Object) -> Vec<Val> {
    match o {
        Object::AWSet(s) => s.elements().cloned().collect(),
        Object::RWSet(s) => s.elements().cloned().collect(),
        _ => panic!("not a set"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn awset_converges_under_causal_reordering(script in arb_script(), seed in 0u64..1000) {
        let log = run_script(ObjectKind::AWSet, &script);
        let a = replay(ObjectKind::AWSet, &log);
        let order = Schedule::from_seed(seed).sample_order(&log);
        let b = replay_order(ObjectKind::AWSet, &log, &order);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rwset_converges_under_causal_reordering(script in arb_script(), seed in 0u64..1000) {
        let log = run_script(ObjectKind::RWSet, &script);
        let a = replay(ObjectKind::RWSet, &log);
        let order = Schedule::from_seed(seed).sample_order(&log);
        let b = replay_order(ObjectKind::RWSet, &log, &order);
        prop_assert_eq!(membership(&a), membership(&b));
    }

    /// Exhaustive version: for short scripts, check *every* reachable
    /// causal interleaving, not just two samples.
    #[test]
    fn awset_converges_under_every_causal_order(script in prop::collection::vec(((0u8..3), (0u8..4).prop_map(Cmd::Add)), 1..6)) {
        let log = run_script(ObjectKind::AWSet, &script);
        let reference = replay(ObjectKind::AWSet, &log);
        let orders = Schedule::enumerate_orders(&log, 256);
        prop_assert!(!orders.is_empty());
        for order in &orders {
            let other = replay_order(ObjectKind::AWSet, &log, order);
            prop_assert_eq!(&reference, &other, "diverged under order {:?}", order);
        }
    }

    #[test]
    fn pncounter_converges_under_any_order(deltas in prop::collection::vec((-5i64..=5, 0u16..3), 1..20), seed in 0u64..1000) {
        let ops: Vec<PNCounterOp> = deltas
            .iter()
            .map(|&(d, r)| PNCounterOp { origin: ReplicaId(r), delta: d })
            .collect();
        let mut a = PNCounter::new();
        for op in &ops {
            a.apply(op);
        }
        let mut shuffled = ops.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut b = PNCounter::new();
        for op in &shuffled {
            b.apply(op);
        }
        prop_assert_eq!(a, b);
    }
}

#[test]
fn sampled_schedules_replay_from_seed() {
    let script: Vec<(u8, Cmd)> = (0..18).map(|i| (i % 3, Cmd::Add(i % 6))).collect();
    let log = run_script(ObjectKind::AWSet, &script);
    let a = Schedule::from_seed(123).sample_order(&log);
    let b = Schedule::from_seed(123).sample_order(&log);
    assert_eq!(a, b, "same seed ⇒ identical schedule");
}

#[test]
fn awmap_touch_preserves_payload_through_reorderings() {
    // Deterministic end-to-end: put, remove, touch delivered in both
    // orders consistent with causality.
    let mut origin: AWMap<Val, Val> = AWMap::new();
    let r0 = ReplicaId(0);
    let mut c = VClock::new();
    c.tick(r0);
    let put = origin.prepare_put(Val::str("k"), Tag::new(r0, 1), c.clone(), 1, Val::int(42));
    origin.apply(&put);
    c.tick(r0);
    let rm = origin.prepare_remove(&Val::str("k"), c.clone()).unwrap();
    origin.apply(&rm);
    // Concurrent touch from replica 1 (saw the put, not the remove).
    let touch_clock: VClock = [(r0, 1), (ReplicaId(1), 1)].into_iter().collect();
    let touch = origin.prepare_touch(Val::str("k"), Tag::new(ReplicaId(1), 1), touch_clock);

    for order in [[&put, &rm, &touch], [&put, &touch, &rm]] {
        let mut m: AWMap<Val, Val> = AWMap::new();
        for op in order {
            m.apply(op);
        }
        assert!(
            m.contains(&Val::str("k")),
            "touch wins over concurrent remove"
        );
        assert_eq!(
            m.get(&Val::str("k")),
            Some(&Val::int(42)),
            "payload preserved"
        );
    }
}

#[test]
fn awset_elements_helper_consistency() {
    let mut s: AWSet<Val> = AWSet::new();
    s.apply(&s.prepare_add(Val::str("a"), Tag::new(ReplicaId(0), 1)));
    assert_eq!(s.elements().count(), s.len());
    let rw: RWSet<Val, ValPattern> = RWSet::new();
    assert!(rw.is_empty());
}
