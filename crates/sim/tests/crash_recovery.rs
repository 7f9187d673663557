//! Crash/restart nemesis: a replica killed mid-stream loses its volatile
//! state (outbox + pending buffer), refuses clients while down, and on
//! restart rebuilds through anti-entropy — with no update lost, no batch
//! double-applied, and causal stability (hence GC) still advancing.

use ipa_crdt::ObjectKind;
use ipa_sim::{paper_topology, CrashPlan, FaultPlan, SimConfig, Simulation};

#[path = "common/inserter.rs"]
mod inserter;
use inserter::Inserter;

fn crash_cfg(seed: u64) -> SimConfig {
    let mut faults = FaultPlan::none();
    // Kill replica 1 mid-stream, twice, with a second-long outage each.
    faults.crashes.push(CrashPlan {
        region: 1,
        at_s: 0.8,
        down_s: 1.0,
    });
    faults.crashes.push(CrashPlan {
        region: 1,
        at_s: 3.0,
        down_s: 0.7,
    });
    SimConfig {
        clients_per_region: 2,
        warmup_s: 0.3,
        duration_s: 4.5,
        seed,
        faults,
        ..Default::default()
    }
}

#[test]
fn crashed_replica_recovers_without_loss_or_double_apply() {
    let mut sim = Simulation::new(paper_topology(), crash_cfg(41));
    let mut w = Inserter::default();
    sim.run(&mut w);

    assert_eq!(sim.nemesis.crashes, 2, "both scheduled crashes fired");
    assert!(
        sim.nemesis.batches_lost_in_crash > 0 || sim.nemesis.batches_refused_down > 0,
        "the crash actually destroyed volatile state or refused traffic"
    );
    assert!(
        sim.metrics.failed > 0,
        "clients homed at the crashed region fail while it is down"
    );
    assert!(
        sim.nemesis.anti_entropy_batches > 0,
        "recovery ran anti-entropy"
    );

    sim.quiesce();
    let sizes: Vec<usize> = (0..3u16)
        .map(|r| {
            sim.replica(r)
                .object("set")
                .unwrap()
                .as_awset()
                .unwrap()
                .len()
        })
        .collect();
    assert_eq!(sizes[0], sizes[1], "crashed replica caught back up");
    assert_eq!(sizes[1], sizes[2]);
    assert_eq!(sizes[0] as u64, w.n, "every surviving commit replicated");
    for r in 0..3u16 {
        assert_eq!(sim.replica(r).pending_count(), 0, "pending buffer rebuilt");
    }
    assert!(
        sim.double_apply_violations().is_empty(),
        "updates_applied never double-counts across redeliveries"
    );
}

#[test]
fn stability_and_gc_still_advance_after_recovery() {
    let mut sim = Simulation::new(paper_topology(), crash_cfg(43));
    let mut w = Inserter::default();
    sim.run(&mut w);
    sim.quiesce();
    for r in 0..3u16 {
        assert!(
            sim.replica(r).stats.gc_runs > 0,
            "replica {r} kept garbage-collecting"
        );
    }
    // After quiescence every replica holds the same clock; one more
    // commit round at each replica pushes the stability frontier past
    // the crash window, so the durable logs compact.
    let log_before: usize = (0..3u16).map(|r| sim.replica(r).log_len()).sum();
    for r in 0..3u16 {
        let replica = sim.replica_mut(r);
        let mut tx = replica.begin();
        tx.ensure("ack", ObjectKind::PNCounter).unwrap();
        tx.counter_add("ack", 1).unwrap();
        tx.commit();
    }
    sim.sync_all();
    let ids: Vec<ipa_crdt::ReplicaId> = (0..3u16).map(ipa_crdt::ReplicaId).collect();
    for r in 0..3u16 {
        sim.replica_mut(r).run_gc(&ids);
    }
    let log_after: usize = (0..3u16).map(|r| sim.replica(r).log_len()).sum();
    assert!(
        log_after < log_before,
        "stability frontier advanced and compacted the logs: {log_before} -> {log_after}"
    );
}

#[test]
fn crash_runs_replay_from_seed() {
    let run = |seed| {
        let mut sim = Simulation::new(paper_topology(), crash_cfg(seed));
        let mut w = Inserter::default();
        sim.run(&mut w);
        sim.quiesce();
        (sim.schedule_digest(), sim.nemesis, sim.metrics.completed)
    };
    assert_eq!(run(47), run(47), "same seed ⇒ identical crash schedule");
    assert_ne!(run(47).0, run(48).0);
}
