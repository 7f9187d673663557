//! Nemesis behaviour: hostile transport schedules (drops, duplicates,
//! delays, flapping partitions) never lose updates or double-apply
//! batches, weak operations stay available, and every run replays
//! bit-for-bit from its seeds.

use ipa_sim::{paper_topology, FaultPlan, SimConfig, Simulation};

#[path = "common/inserter.rs"]
mod inserter;
use inserter::Inserter;

fn cfg(seed: u64, faults: FaultPlan) -> SimConfig {
    SimConfig {
        clients_per_region: 2,
        warmup_s: 0.3,
        duration_s: 2.0,
        seed,
        faults,
        ..Default::default()
    }
}

fn set_len(sim: &Simulation, region: u16) -> usize {
    sim.replica(region)
        .object("set")
        .unwrap()
        .as_awset()
        .unwrap()
        .len()
}

#[test]
fn transport_faults_never_lose_or_double_apply_updates() {
    for intensity in [0.3, 0.7, 1.0] {
        let plan = FaultPlan::with_intensity(7, intensity);
        let mut sim = Simulation::new(paper_topology(), cfg(5, plan.clone()));
        let mut w = Inserter::default();
        sim.run(&mut w);
        assert!(
            sim.nemesis.batches_dropped > 0,
            "intensity {intensity}: nemesis was live ({plan})"
        );
        assert!(sim.nemesis.batches_duplicated > 0);
        sim.quiesce();
        for r in 0..3u16 {
            assert_eq!(
                set_len(&sim, r) as u64,
                w.n,
                "intensity {intensity}, replica {r}: updates lost under {plan}"
            );
            assert_eq!(sim.replica(r).pending_count(), 0);
        }
        assert!(
            sim.double_apply_violations().is_empty(),
            "intensity {intensity}: duplicate deliveries double-applied ({plan})"
        );
    }
}

#[test]
fn weak_ops_stay_available_under_full_nemesis() {
    let plan = FaultPlan::with_intensity(3, 1.0);
    let mut sim = Simulation::new(paper_topology(), cfg(11, plan));
    let mut w = Inserter::default();
    sim.run(&mut w);
    assert!(sim.nemesis.link_flaps > 0, "flapping nemesis was live");
    assert_eq!(
        sim.metrics.failed, 0,
        "weak ops never fail under transport faults"
    );
    assert!(sim.metrics.completed > 100);
}

#[test]
fn same_seeds_identical_schedule_different_seeds_diverge() {
    let run = |workload_seed: u64, nemesis_seed: u64| {
        let plan = FaultPlan::with_intensity(nemesis_seed, 0.8);
        let mut sim = Simulation::new(paper_topology(), cfg(workload_seed, plan));
        let mut w = Inserter::default();
        sim.run(&mut w);
        sim.quiesce();
        (
            sim.schedule_digest(),
            sim.nemesis,
            sim.metrics.completed,
            (0..3u16).map(|r| set_len(&sim, r)).collect::<Vec<_>>(),
        )
    };
    let a = run(21, 4);
    let b = run(21, 4);
    assert_eq!(
        a, b,
        "same (workload, nemesis) seeds ⇒ identical schedule and verdict"
    );
    let c = run(21, 5);
    assert_ne!(
        a.0, c.0,
        "different nemesis seed ⇒ different fault schedule"
    );
    let d = run(22, 4);
    assert_ne!(a.0, d.0, "different workload seed ⇒ different schedule");
}

#[test]
fn nemesis_leaves_workload_rng_stream_untouched() {
    // The same workload seed must issue the same operation count whether
    // or not faults are injected (fault decisions draw from their own
    // stream; only availability may change).
    let ops = |faults: FaultPlan| {
        let mut sim = Simulation::new(paper_topology(), cfg(13, faults));
        let mut w = Inserter::default();
        sim.run(&mut w);
        w.n
    };
    // Intensity below the flap threshold: link state stays identical, so
    // the workload's latency draws line up one-to-one. (Flapping changes
    // which links are up and legitimately alters the client schedule.)
    let benign = ops(FaultPlan::none());
    let hostile = ops(FaultPlan::with_intensity(9, 0.4));
    assert_eq!(benign, hostile, "fault injection perturbed the workload");
}

/// The continuous auditor hook runs during the simulation, not only at
/// the end.
#[test]
fn auditor_runs_continuously() {
    use std::cell::Cell;
    use std::rc::Rc;

    let audits = Rc::new(Cell::new(0u64));
    let seen = Rc::clone(&audits);
    let mut sim = Simulation::new(paper_topology(), cfg(17, FaultPlan::with_intensity(2, 0.5)));
    sim.set_auditor(
        0.2,
        Box::new(move |_r, replica| {
            seen.set(seen.get() + 1);
            // Trivial oracle: an AWSet of unique inserts can never hold
            // more elements than were ever inserted; emptiness is fine.
            u64::from(replica.object("set").is_none() && replica.clock().total() > 0)
        }),
    );
    let mut w = Inserter::default();
    sim.run(&mut w);
    sim.quiesce();
    assert!(
        audits.get() >= 3 * 8,
        "auditor ran at periodic points: {}",
        audits.get()
    );
    assert!(sim.metrics.audits >= 8);
}
