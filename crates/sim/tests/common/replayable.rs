//! The replayable test workload the op-trace suites share.

use ipa_crdt::{ObjectKind, Val};
use ipa_sim::{AppWorkload, ClientInfo, OpCtx, OpOutcome};

/// A replayable unique-insert workload: `decide` draws a salt from the
/// workload RNG (so replay genuinely proves RNG-freedom), `execute`
/// inserts the decided element — every executed op adds one distinct
/// element to a single add-wins set, so the converged set size counts
/// exactly how many recorded ops actually ran.
#[derive(Default)]
pub struct ReplayableInserter {
    n: u64,
}

impl AppWorkload for ReplayableInserter {
    type Op = String;

    fn decide<C: OpCtx>(&mut self, ctx: &mut C, client: ClientInfo) -> String {
        use rand::Rng;
        self.n += 1;
        let salt: u32 = ctx.rng().gen_range(0..1000);
        format!("insert c{} e{}s{salt}", client.id, self.n)
    }

    fn execute<C: OpCtx>(&mut self, ctx: &mut C, client: ClientInfo, op: &String) -> OpOutcome {
        let mut tok = op.split_whitespace();
        assert_eq!(tok.next(), Some("insert"), "bad op {op:?}");
        let _who = tok.next().expect("client token");
        let elem = tok.next().expect("element token").to_owned();
        ctx.commit(client.region, |tx| {
            tx.ensure("set", ObjectKind::AWSet)?;
            tx.aw_add("set", Val::str(elem))
        })
        .expect("commit");
        OpOutcome::ok("insert", 1, 1)
    }
}
