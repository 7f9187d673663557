//! Quickstart: specify an application, run the IPA analysis, inspect the
//! proposed repairs, and execute the patched application on a replicated
//! cluster.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ipa::analysis::Analyzer;
use ipa::crdt::{ReplicaId, Val};
use ipa::spec::{AppSpecBuilder, ConvergencePolicy};
use ipa::store::Cluster;

fn main() {
    // ------------------------------------------------------------------
    // 1. Specify the application (the paper's Fig. 2 mini-example).
    // ------------------------------------------------------------------
    let spec = AppSpecBuilder::new("quickstart")
        .sort("Player")
        .sort("Tournament")
        .predicate_bool("player", &["Player"])
        .predicate_bool("tournament", &["Tournament"])
        .predicate_bool("enrolled", &["Player", "Tournament"])
        .rule("player", ConvergencePolicy::AddWins)
        .rule("tournament", ConvergencePolicy::AddWins)
        .rule("enrolled", ConvergencePolicy::AddWins)
        .invariant_str(
            "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
        )
        .operation("add_player", &[("p", "Player")], |op| {
            op.set_true("player", &["p"])
        })
        .operation("add_tourn", &[("t", "Tournament")], |op| {
            op.set_true("tournament", &["t"])
        })
        .operation("rem_tourn", &[("t", "Tournament")], |op| {
            op.set_false("tournament", &["t"])
        })
        .operation("enroll", &[("p", "Player"), ("t", "Tournament")], |op| {
            op.set_true("enrolled", &["p", "t"])
        })
        .build()
        .expect("well-formed spec");

    // ------------------------------------------------------------------
    // 2. Run the IPA analysis (conflict detection + repair).
    // ------------------------------------------------------------------
    let report = Analyzer::for_spec(&spec).analyze(&spec).expect("analysis");
    println!("{report}");
    assert!(report.is_invariant_preserving());

    // The analysis found the Fig. 2a conflict and proposes the Fig. 2b
    // repair: enroll gains `tournament(t) := true` under add-wins.
    let patched_enroll = report.patched.operation("enroll").unwrap();
    println!("patched enroll: {patched_enroll}\n");

    // ------------------------------------------------------------------
    // 3. Execute the patched semantics on a 2-replica cluster: the
    //    anomaly (enroll ∥ rem_tourn) no longer violates the invariant.
    // ------------------------------------------------------------------
    let mut cluster = Cluster::new(2);
    let kind = ipa::crdt::ObjectKind::AWSet;
    {
        let r = cluster.replica_mut(ReplicaId(0));
        let mut tx = r.begin();
        tx.ensure("players", kind).unwrap();
        tx.ensure("tournaments", kind).unwrap();
        tx.ensure("enrolled", kind).unwrap();
        tx.aw_add("players", Val::str("alice")).unwrap();
        tx.aw_add("tournaments", Val::str("open")).unwrap();
        tx.commit();
    }
    cluster.sync();

    // Concurrent: replica 0 removes the tournament while replica 1 runs
    // the PATCHED enroll (enrolled + tournament restore).
    {
        let r = cluster.replica_mut(ReplicaId(0));
        let mut tx = r.begin();
        tx.aw_remove("tournaments", &Val::str("open")).unwrap();
        tx.commit();
    }
    {
        let r = cluster.replica_mut(ReplicaId(1));
        let mut tx = r.begin();
        tx.ensure("enrolled", kind).unwrap();
        tx.aw_add("enrolled", Val::pair("alice", "open")).unwrap();
        tx.aw_add("tournaments", Val::str("open")).unwrap(); // the repair
        tx.commit();
    }
    cluster.sync();

    for id in cluster.replica_ids() {
        let rep = cluster.replica(id);
        let enrolled = rep
            .object("enrolled")
            .unwrap()
            .set_contains(&Val::pair("alice", "open"))
            .unwrap();
        let tourn_alive = rep
            .object("tournaments")
            .unwrap()
            .set_contains(&Val::str("open"))
            .unwrap();
        println!("replica {id:?}: enrolled={enrolled} tournament-exists={tourn_alive}");
        assert!(!enrolled || tourn_alive, "invariant preserved");
    }
    println!("\ninvariant preserved under concurrency — quickstart done.");
}
