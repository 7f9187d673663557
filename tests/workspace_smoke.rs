//! Workspace smoke test: exercises the `ipa` facade re-exports end-to-end
//! (spec → analysis → cluster execution, mirroring `examples/quickstart.rs`)
//! so facade wiring regressions fail tier-1 rather than only doc builds.

use ipa::analysis::Analyzer;
use ipa::crdt::{ObjectKind, ReplicaId, Val};
use ipa::spec::{AppSpecBuilder, ConvergencePolicy};
use ipa::store::Cluster;

/// The paper's Fig. 2 mini-application, built through `ipa::spec`.
fn quickstart_spec() -> ipa::spec::AppSpec {
    AppSpecBuilder::new("smoke")
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
        .expect("well-formed spec")
}

#[test]
fn facade_spec_to_analysis_to_cluster() {
    // Analysis through `ipa::analysis`: detects the Fig. 2a conflict and
    // proposes the Fig. 2b repair (enroll restores `tournament(t)`).
    let spec = quickstart_spec();
    let report = Analyzer::for_spec(&spec).analyze(&spec).expect("analysis");
    assert!(report.is_invariant_preserving());
    let patched_enroll = report.patched.operation("enroll").expect("patched op");
    assert_ne!(
        format!("{patched_enroll}"),
        format!("{}", spec.operation("enroll").expect("original op")),
        "the repair must change the enroll operation"
    );

    // Execution through `ipa::store` + `ipa::crdt`: replay the anomaly
    // (enroll ∥ rem_tourn) with the patched semantics on a 2-replica
    // cluster; the invariant must hold on every replica.
    let mut cluster = Cluster::new(2);
    let kind = ObjectKind::AWSet;
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
        assert!(!enrolled || tourn_alive, "invariant preserved at {id:?}");
    }
}

#[test]
fn facade_modules_are_wired() {
    // Touch each re-exported module so a facade rename/drop fails here.
    let _solver = ipa::solver::sat::Solver::new();
    let clock = ipa::crdt::VClock::new();
    assert_eq!(clock.get(ReplicaId(0)), 0);
    let replica = ipa::store::Replica::new(ReplicaId(7));
    assert_eq!(replica.id(), ReplicaId(7));
    let topo = ipa::sim::paper_topology();
    assert_eq!(topo.regions(), 3, "paper topology is 3-region");
    assert_eq!(format!("{}", ipa::apps::Mode::Ipa), "IPA");
    let _table = ipa::coord::ReservationTable::default();
}
