//! The op-only test workload the fault suites share.

use ipa_crdt::{ObjectKind, Val};
use ipa_sim::{ClientInfo, OpOutcome, SimCtx, Workload};

/// Inserts unique elements into one add-wins set, so a converged
/// replica holds exactly one element per executed op. Every op commits
/// locally: the client schedule's shape depends on the workload seed
/// alone, never on the fault plan.
#[derive(Default)]
pub struct Inserter {
    pub n: u64,
}

impl Workload for Inserter {
    fn op(&mut self, ctx: &mut SimCtx<'_>, client: ClientInfo) -> OpOutcome {
        self.n += 1;
        let v = Val::str(format!("e{}", self.n));
        ctx.commit(client.region, |tx| {
            tx.ensure("set", ObjectKind::AWSet)?;
            tx.aw_add("set", v)
        })
        .expect("weak ops commit at a live replica");
        OpOutcome::ok("insert", 1, 1)
    }
}
