//! Partition behaviour: batches committed while a link is down are
//! deferred, replicas diverge during the cut, and convergence is restored
//! once in-flight traffic drains — with the continuous invariant oracle
//! active at every audit point of the run.

use ipa_crdt::{ObjectKind, Val};
use ipa_sim::{
    two_region_topology, ClientInfo, OpOutcome, SimConfig, SimCtx, Simulation, Workload,
};
use std::cell::Cell;
use std::rc::Rc;

struct PartitionedInserter {
    cut_at_op: u64,
    heal_at_op: u64,
    ops: Rc<Cell<u64>>,
}

impl Workload for PartitionedInserter {
    fn op(&mut self, ctx: &mut SimCtx<'_>, client: ClientInfo) -> OpOutcome {
        self.ops.set(self.ops.get() + 1);
        let ops = self.ops.get();
        if ops == self.cut_at_op {
            ctx.set_link(0, 1, false);
        }
        if ops == self.heal_at_op {
            ctx.set_link(0, 1, true);
        }
        let v = Val::str(format!("e{ops}"));
        ctx.commit(client.region, |tx| {
            tx.ensure("set", ObjectKind::AWSet)?;
            tx.aw_add("set", v)
        })
        .expect("weak ops stay available during the partition");
        OpOutcome::ok("insert", 1, 1)
    }
}

#[test]
fn weak_ops_available_during_partition_and_converge_after() {
    let cfg = SimConfig {
        clients_per_region: 2,
        warmup_s: 0.2,
        duration_s: 3.0,
        seed: 99,
        ..Default::default()
    };
    let mut sim = Simulation::new(two_region_topology(), cfg);
    let ops = Rc::new(Cell::new(0u64));
    let mut w = PartitionedInserter {
        cut_at_op: 50,
        heal_at_op: 400,
        ops: Rc::clone(&ops),
    };
    // Continuous oracle (audited throughout the run, partition included):
    // a replica can never hold more unique inserts than were ever issued
    // — each excess element counts as a violated invariant instance.
    let issued = Rc::clone(&ops);
    sim.set_auditor(
        0.1,
        Box::new(move |_region, replica| {
            let len = replica
                .object("set")
                .map(|o| o.as_awset().unwrap().len() as u64)
                .unwrap_or(0);
            len.saturating_sub(issued.get())
        }),
    );
    sim.run(&mut w);
    assert!(
        ops.get() > 500,
        "clients kept running through the cut: {}",
        ops.get()
    );
    assert_eq!(sim.metrics.failed, 0, "weak operations never fail");
    // Drain everything (including the deferred partition-era batches).
    sim.quiesce();
    assert!(sim.metrics.audits > 10, "oracle audited throughout the run");
    assert_eq!(
        sim.metrics.audit_violations, 0,
        "no replica ever observed phantom inserts (first violation at {:?} ms)",
        sim.metrics.first_audit_violation_ms
    );
    let n0 = sim
        .replica(0)
        .object("set")
        .unwrap()
        .as_awset()
        .unwrap()
        .len();
    let n1 = sim
        .replica(1)
        .object("set")
        .unwrap()
        .as_awset()
        .unwrap()
        .len();
    assert_eq!(n0, n1, "replicas reconcile after the partition heals");
    assert_eq!(n0 as u64, ops.get(), "no update was lost");
}
