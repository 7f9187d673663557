//! End-to-end store properties: replicas converge under arbitrary
//! interleavings of commits and deliveries, and causal order is never
//! violated.

use ipa_crdt::{ObjectKind, ReplicaId, Val, ValPattern};
use ipa_store::{Replica, UpdateBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Step {
    /// Replica commits a transaction doing one of a few update shapes.
    Commit { replica: u8, shape: u8, item: u8 },
    /// Deliver one queued batch to a replica (if any).
    Deliver { to: u8 },
    /// Deliver everything everywhere.
    Flush,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        ((0u8..3), (0u8..5), (0u8..4)).prop_map(|(replica, shape, item)| Step::Commit {
            replica,
            shape,
            item
        }),
        (0u8..3).prop_map(|to| Step::Deliver { to }),
        Just(Step::Flush),
    ];
    prop::collection::vec(step, 1..40)
}

struct Net {
    replicas: Vec<Replica>,
    /// Per-destination queues of undelivered batches (payload shared).
    queues: Vec<Vec<Arc<UpdateBatch>>>,
}

impl Net {
    fn new(n: u16) -> Net {
        Net {
            replicas: (0..n).map(|i| Replica::new(ReplicaId(i))).collect(),
            queues: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    fn pump_outboxes(&mut self) {
        let n = self.replicas.len();
        for i in 0..n {
            for b in self.replicas[i].take_outbox() {
                for (j, q) in self.queues.iter_mut().enumerate() {
                    if j != i {
                        q.push(b.clone());
                    }
                }
            }
        }
    }

    fn deliver_one(&mut self, to: usize, rng: &mut StdRng) {
        self.pump_outboxes();
        if self.queues[to].is_empty() {
            return;
        }
        let idx = rng.gen_range(0..self.queues[to].len());
        let b = self.queues[to].swap_remove(idx);
        self.replicas[to].receive(b);
    }

    fn flush(&mut self) {
        loop {
            self.pump_outboxes();
            let mut moved = false;
            for to in 0..self.replicas.len() {
                for b in std::mem::take(&mut self.queues[to]) {
                    self.replicas[to].receive(b);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
    }
}

fn run_commit(r: &mut Replica, shape: u8, item: u8) {
    let v = Val::str(format!("e{item}"));
    let pair = Val::pair(format!("p{item}"), format!("t{}", item % 2));
    let mut tx = r.begin();
    tx.ensure("aw", ObjectKind::AWSet).unwrap();
    tx.ensure("rw", ObjectKind::RWSet).unwrap();
    tx.ensure("cnt", ObjectKind::PNCounter).unwrap();
    match shape {
        0 => tx.aw_add("aw", v).unwrap(),
        1 => tx.aw_remove("aw", &v).unwrap(),
        2 => tx.rw_add("rw", pair).unwrap(),
        3 => tx
            .rw_remove_matching(
                "rw",
                ValPattern::pair(ValPattern::Any, ValPattern::exact(format!("t{}", item % 2))),
            )
            .unwrap(),
        _ => tx.counter_add("cnt", i64::from(item) - 1).unwrap(),
    }
    tx.commit();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn replicas_converge_after_flush(steps in arb_steps(), seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Net::new(3);
        for step in &steps {
            match step {
                Step::Commit { replica, shape, item } => {
                    run_commit(&mut net.replicas[*replica as usize % 3], *shape, *item);
                }
                Step::Deliver { to } => net.deliver_one(*to as usize % 3, &mut rng),
                Step::Flush => net.flush(),
            }
        }
        net.flush();
        // All replicas reached the same clock, nothing pending.
        let c0 = net.replicas[0].clock().clone();
        for r in &net.replicas {
            prop_assert_eq!(r.clock(), &c0);
            prop_assert_eq!(r.pending_count(), 0);
        }
        // Observable state converged. An absent object is equivalent to an
        // empty one (objects ensured but never written replicate lazily).
        for key in ["aw", "rw"] {
            let read = |r: &Replica| -> Vec<Val> {
                r.object(key)
                    .map(|o| match key {
                        "aw" => o.as_awset().unwrap().elements().cloned().collect(),
                        _ => o.as_rwset().unwrap().elements().cloned().collect(),
                    })
                    .unwrap_or_default()
            };
            let base = read(&net.replicas[0]);
            for r in &net.replicas[1..] {
                prop_assert_eq!(read(r), base.clone(), "divergence on {}", key);
            }
        }
        let cnt = |r: &Replica| -> i64 {
            r.object("cnt").map(|o| o.as_pncounter().unwrap().value()).unwrap_or(0)
        };
        let cnt0 = cnt(&net.replicas[0]);
        for r in &net.replicas[1..] {
            prop_assert_eq!(cnt(r), cnt0);
        }
    }

    #[test]
    fn gc_preserves_observable_state(steps in arb_steps()) {
        let mut net = Net::new(3);
        for step in &steps {
            if let Step::Commit { replica, shape, item } = step {
                run_commit(&mut net.replicas[*replica as usize % 3], *shape, *item);
            }
        }
        net.flush();
        let ids: Vec<ReplicaId> = net.replicas.iter().map(|r| r.id()).collect();
        let before: Option<Vec<Val>> = net.replicas[0]
            .object("rw")
            .map(|o| o.as_rwset().unwrap().elements().cloned().collect());
        for r in &mut net.replicas {
            r.run_gc(&ids);
        }
        let after: Option<Vec<Val>> = net.replicas[0]
            .object("rw")
            .map(|o| o.as_rwset().unwrap().elements().cloned().collect());
        prop_assert_eq!(before, after, "GC must not change observable membership");
    }
}
