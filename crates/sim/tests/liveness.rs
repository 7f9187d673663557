//! Bounded-liveness oracle: after a fault, anti-entropy must close
//! every induced causal gap within N rounds of repair opportunity, and
//! the quiesce fixpoint must converge within N productive rounds.

use ipa_crdt::{ObjectKind, ReplicaId, Val};
use ipa_sim::{
    paper_topology, BatchFault, ExplicitPlan, FaultEvent, FaultPlan, SimConfig, Simulation,
};
use ipa_store::Transport;

#[path = "common/inserter.rs"]
mod inserter;
use inserter::Inserter;

fn cfg(seed: u64, faults: FaultPlan) -> SimConfig {
    SimConfig {
        clients_per_region: 2,
        warmup_s: 0.2,
        duration_s: 1.8,
        seed,
        faults,
        ..Default::default()
    }
}

fn dropped_batch_plan(anti_entropy_s: Option<f64>) -> ExplicitPlan {
    ExplicitPlan {
        events: vec![FaultEvent::Batch {
            origin: 0,
            dest: 2,
            seq: 10,
            fault: BatchFault::Drop,
        }],
        anti_entropy_s,
        ae_latency_ms: Vec::new(),
        skew_ms: Vec::new(),
    }
}

fn run(plan: &ExplicitPlan, bound: Option<u64>) -> Simulation {
    let mut sim = Simulation::new(paper_topology(), cfg(7, FaultPlan::none()));
    sim.set_explicit_faults(plan);
    if let Some(b) = bound {
        sim.set_liveness_bound(b);
    }
    let mut w = Inserter::default();
    sim.run(&mut w);
    sim.quiesce();
    sim
}

#[test]
fn anti_entropy_repairs_a_gap_within_a_generous_bound() {
    let sim = run(&dropped_batch_plan(Some(0.25)), Some(12));
    let l = sim.liveness();
    assert_eq!(l.tracked_gaps, 1, "the drop opened one gap");
    assert_eq!(l.repaired_gaps, 1, "anti-entropy closed it mid-run");
    assert!(
        l.max_gap_rounds <= 2,
        "one pull + delivery latency: {} rounds",
        l.max_gap_rounds
    );
    assert_eq!(sim.liveness_violations(), 0);
    assert!(
        l.quiesce_rounds == 0,
        "already converged before quiesce: {} rounds",
        l.quiesce_rounds
    );
}

#[test]
fn a_zero_bound_flags_any_unrepaired_round() {
    // Bound 0 demands instant repair — the first anti-entropy round
    // finds the gap still open (its re-send is in flight), breaching.
    let sim = run(&dropped_batch_plan(Some(0.25)), Some(0));
    assert!(sim.liveness().run_breaches >= 1, "{:?}", sim.liveness());
    assert!(sim.liveness_violations() >= 1);
}

#[test]
fn quiesce_repair_rounds_count_against_the_bound() {
    // No periodic anti-entropy: the gap survives to quiesce, whose
    // fixpoint needs ≥ 1 productive round — a violation at bound 0,
    // fine at bound 12.
    let sim = run(&dropped_batch_plan(None), Some(0));
    let l = sim.liveness();
    assert_eq!(l.run_breaches, 0, "no rounds ran, so no mid-run breach");
    assert!(l.quiesce_rounds >= 1, "{:?}", l);
    assert_eq!(sim.liveness_violations(), 1);

    let sim = run(&dropped_batch_plan(None), Some(12));
    assert_eq!(sim.liveness_violations(), 0);
}

#[test]
fn liveness_accounting_never_perturbs_the_schedule() {
    // Arming the oracle is pure observation: digests with and without a
    // bound are identical, for explicit and probabilistic runs alike.
    let explicit = dropped_batch_plan(Some(0.25));
    let a = run(&explicit, None).schedule_digest();
    let b = run(&explicit, Some(0)).schedule_digest();
    assert_eq!(a, b);

    let prob = |bound: Option<u64>| {
        let mut sim = Simulation::new(
            paper_topology(),
            cfg(11, FaultPlan::with_intensity(11, 0.8)),
        );
        if let Some(bnd) = bound {
            sim.set_liveness_bound(bnd);
        }
        let mut w = Inserter::default();
        sim.run(&mut w);
        sim.quiesce();
        sim.schedule_digest()
    };
    assert_eq!(prob(None), prob(Some(3)));
}

/// The drop plan plus a whole-run cut of the direct 0–2 link; the
/// relay path 0→1→2 stays up.
fn relay_partition_plan() -> ExplicitPlan {
    let mut plan = dropped_batch_plan(Some(0.25));
    plan.events.push(FaultEvent::Partition {
        a: 0,
        b: 2,
        at_s: 0.01,
        outage_s: 1.0e6,
    });
    plan
}

#[test]
fn relay_reachable_gaps_count_against_the_bound() {
    // Pairwise anti-entropy repairs the dropped batch through replica 1
    // even with the direct link cut, and the oracle must *time* that
    // repair: rounds advance whenever any up-path from a live holder
    // reaches the destination. (The old accounting paused the countdown
    // whenever the direct origin–dest link was down, so relay-reachable
    // gaps could idle forever without tripping any bound.)
    let sim = run(&relay_partition_plan(), Some(12));
    let l = sim.liveness();
    assert_eq!(l.tracked_gaps, 1, "{l:?}");
    assert_eq!(l.repaired_gaps, 1, "relay repair closed it mid-run: {l:?}");
    assert!(
        l.max_gap_rounds >= 1,
        "rounds advance while the relay path is up: {l:?}"
    );
    assert_eq!(sim.liveness_violations(), 0);

    // Bound 0 now breaches mid-run: the first round after the drop has
    // a live relay path, so the open gap is charged — under direct-link
    // accounting rounds stayed 0 and no mid-run breach ever fired.
    let sim = run(&relay_partition_plan(), Some(0));
    assert!(sim.liveness().run_breaches >= 1, "{:?}", sim.liveness());
}

#[test]
fn unreachable_gaps_still_pause_the_countdown() {
    // Cut both 0–2 and 1–2: no live holder can reach replica 2 at all,
    // so repair is genuinely impossible and the countdown must pause —
    // no false alarm even at bound 0 (quiesce repair still counts).
    let mut plan = dropped_batch_plan(Some(0.25));
    for a in [0u16, 1] {
        plan.events.push(FaultEvent::Partition {
            a,
            b: 2,
            at_s: 0.01,
            outage_s: 1.0e6,
        });
    }
    let sim = run(&plan, Some(0));
    let l = sim.liveness();
    assert_eq!(
        l.run_breaches, 0,
        "isolated dest pauses the countdown: {l:?}"
    );
    assert_eq!(l.max_gap_rounds, 0, "{l:?}");
}

/// A corrupted delivery is a *drop* for promise accounting: the batch
/// arrives, fails the integrity gate, and is quarantined — but the
/// transport must not count it as delivered (no in-flight promise), or
/// the bounded-liveness oracle would wait forever on a repair the
/// anti-entropy cursors believe already happened. Regression: the first
/// corruption implementation promised the delivery before corrupting
/// it, silently poisoning `AeCursors`.
#[test]
fn corrupt_delivery_is_a_tracked_gap_and_anti_entropy_repairs_it() {
    for event in [
        FaultEvent::Batch {
            origin: 0,
            dest: 2,
            seq: 10,
            fault: BatchFault::Flip,
        },
        // keep: 0 guarantees the truncation mutates the batch (a
        // truncation to the batch's own length is byte-identical, so
        // the seal stays valid and nothing is quarantined).
        FaultEvent::Batch {
            origin: 0,
            dest: 2,
            seq: 10,
            fault: BatchFault::Truncate(0),
        },
    ] {
        let plan = ExplicitPlan {
            events: vec![event],
            anti_entropy_s: Some(0.25),
            ae_latency_ms: Vec::new(),
            skew_ms: Vec::new(),
        };
        let sim = run(&plan, Some(12));
        let l = sim.liveness();
        assert_eq!(sim.nemesis.batches_corrupted, 1, "{event}");
        assert_eq!(l.tracked_gaps, 1, "corruption opened one gap: {l:?}");
        assert_eq!(l.repaired_gaps, 1, "anti-entropy re-sent clean: {l:?}");
        assert_eq!(sim.liveness_violations(), 0, "{event}: {l:?}");
        // The corrupt bytes still arrived: the destination quarantined
        // them, and the clean anti-entropy copy closed the slot.
        let dest = sim.replica(2);
        assert_eq!(dest.stats.batches_quarantined, 1, "{event}");
        assert_eq!(dest.stats.quarantine_repaired, 1, "{event}");
        assert_eq!(dest.unrepaired_quarantine(), 0, "{event}");
    }
}

#[test]
fn crash_recovery_is_tracked_as_restart_obligations() {
    let mut plan = ExplicitPlan {
        anti_entropy_s: Some(0.25),
        ..Default::default()
    };
    plan.events.push(FaultEvent::Crash {
        region: 1,
        at_s: 0.6,
        down_s: 0.5,
    });
    let sim = run(&plan, Some(12));
    let l = sim.liveness();
    assert!(
        l.tracked_gaps >= 1,
        "the restart owes its peers' progress: {l:?}"
    );
    assert_eq!(
        l.repaired_gaps, l.tracked_gaps,
        "recovery caught up within the bound: {l:?}"
    );
    assert_eq!(sim.liveness_violations(), 0);

    // The same obligations from a bare crash window: replica 1 is down
    // while replicas 0 and 2 each ship one batch, then restarts owing one
    // batch per origin.
    let idle = SimConfig {
        clients_per_region: 0,
        ..cfg(7, FaultPlan::none())
    };
    let mut sim = Simulation::new(paper_topology(), idle);
    sim.set_explicit_faults(&"crash 1 0 0.5".parse().expect("parse"));
    for origin in [ReplicaId(0), ReplicaId(2)] {
        sim.with_node(origin, |r| {
            let mut tx = r.begin();
            tx.ensure("set", ObjectKind::AWSet).expect("ensure");
            tx.aw_add("set", Val::int(i64::from(origin.0)))
                .expect("add");
            tx.commit();
        });
        sim.ship(origin);
    }
    sim.run(&mut Inserter::default());
    assert_eq!(sim.liveness().tracked_gaps, 2, "one obligation per origin");
}
