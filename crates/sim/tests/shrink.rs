//! Shrinker properties over real sealed simulations:
//!
//! * a recorded fault trace replays the original probabilistic run
//!   bit-identically (the "seal" — same schedule digest);
//! * a plan with one injected culprit fault shrinks to exactly that
//!   fault, and replaying the minimized plan reproduces the identical
//!   violation (same digest);
//! * every candidate the shrinker keeps fails the same oracle check;
//! * shrinking is deterministic from the `(workload seed, fault seed)`
//!   pair.

use ipa_crdt::ReplicaId;
use ipa_sim::{
    paper_topology, shrink_joint, BatchFault, CrashPlan, ExplicitPlan, FaultEvent, FaultPlan,
    OpTrace, RunVerdict, ShrinkBudget, SimConfig, Simulation,
};

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

/// Run one sealed (explicit-plan) simulation; returns it pre-quiesce so
/// oracles can inspect the un-repaired end-of-run state.
fn run_explicit(workload_seed: u64, plan: &ExplicitPlan) -> Simulation {
    let mut sim = Simulation::new(paper_topology(), cfg(workload_seed, FaultPlan::none()));
    sim.set_explicit_faults(plan);
    let mut w = Inserter::default();
    sim.run(&mut w);
    sim
}

#[test]
fn recorded_trace_replays_bit_identically() {
    for (workload_seed, fault_seed, intensity, crashy) in
        [(11u64, 11u64, 0.5, false), (97, 3007, 1.0, true)]
    {
        let mut plan = FaultPlan::with_intensity(fault_seed, intensity);
        if crashy {
            plan.crashes.push(CrashPlan {
                region: (fault_seed % 3) as u16,
                at_s: 0.9,
                down_s: 0.8,
            });
        }
        let mut sim = Simulation::new(paper_topology(), cfg(workload_seed, plan));
        sim.record_fault_trace();
        let mut w = Inserter::default();
        sim.run(&mut w);
        sim.quiesce();
        let trace = sim.take_fault_trace();
        assert!(!trace.events.is_empty());

        let mut replay = run_explicit(workload_seed, &trace);
        replay.quiesce();
        assert_eq!(
            replay.schedule_digest(),
            sim.schedule_digest(),
            "sealed replay must reproduce the probabilistic run exactly \
             (seeds {workload_seed}/{fault_seed})"
        );
        assert_eq!(replay.nemesis, sim.nemesis);

        // And the text format round-trips the whole trace losslessly.
        let parsed: ExplicitPlan = trace.to_string().parse().expect("parse");
        assert_eq!(parsed, trace);
    }
}

/// The targeted oracle used by the culprit tests: the run fails iff
/// `dest` never applied `origin`'s batch `seq` by end-of-run (a dropped
/// batch with anti-entropy effectively disabled stays missing).
fn missing_batch_verdict(sim: &Simulation, origin: u16, dest: u16, seq: u64) -> Option<RunVerdict> {
    (sim.replica(dest).clock().get(ReplicaId(origin)) < seq).then(|| RunVerdict {
        check: format!("missing-batch r{origin}:{seq}@r{dest}"),
        digest: sim.schedule_digest(),
    })
}

#[test]
fn single_culprit_shrinks_to_exactly_that_fault() {
    let workload_seed = 11;
    // A plan with one real culprit (the drop) buried in noise: 120
    // delay/duplicate events that never block causal delivery for long.
    let culprit = FaultEvent::Batch {
        origin: 0,
        dest: 2,
        seq: 40,
        fault: BatchFault::Drop,
    };
    let mut plan = ExplicitPlan {
        // Anti-entropy never fires inside the window, so the dropped
        // batch stays missing (the liveness-style failure mode).
        anti_entropy_s: None,
        ..Default::default()
    };
    for i in 0..120u64 {
        let (origin, dest) = (
            [0u16, 1, 2][(i % 3) as usize],
            [1u16, 2, 0][(i % 3) as usize],
        );
        plan.events.push(if i % 2 == 0 {
            FaultEvent::Batch {
                origin,
                dest,
                seq: i / 3 + 1,
                fault: BatchFault::Delay(25.0),
            }
        } else {
            FaultEvent::Batch {
                origin,
                dest,
                seq: i / 3 + 1,
                fault: BatchFault::Duplicate(40.0),
            }
        });
        if i == 60 {
            plan.events.push(culprit);
        }
    }
    let original_events = plan.events.len();

    let outcome = shrink_joint(
        &plan,
        &OpTrace::default(),
        ShrinkBudget::default(),
        |candidate, _| {
            let sim = run_explicit(workload_seed, candidate);
            missing_batch_verdict(&sim, 0, 2, 40)
        },
    )
    .expect("the full plan fails: the culprit drop is in it");

    assert_eq!(
        outcome.faults.events,
        vec![culprit],
        "ddmin must isolate the culprit:\n{}",
        outcome.faults
    );
    assert!(
        outcome.fault_events() * 10 <= original_events,
        "{} of {} events is not ≤ 10%",
        outcome.fault_events(),
        original_events
    );

    // The printed repro replays the identical violation: parse the
    // minimized plan back from its text form and re-run it.
    let reparsed: ExplicitPlan = outcome.faults.to_string().parse().expect("parse");
    let sim = run_explicit(workload_seed, &reparsed);
    let verdict = missing_batch_verdict(&sim, 0, 2, 40).expect("still violates");
    assert_eq!(verdict.check, outcome.check);
    assert_eq!(
        verdict.digest, outcome.digest,
        "replaying the minimized plan reproduces the same schedule digest"
    );
}

#[test]
fn every_kept_candidate_fails_the_same_check() {
    // Two distinct failure modes in one plan: drops on 0→2 and on 1→0.
    // The oracle reports whichever it sees, preferring the 0→2 check;
    // the shrinker locks onto the *initial* check and must never keep a
    // candidate that only fails the other one.
    let mut plan = ExplicitPlan {
        anti_entropy_s: None,
        ..Default::default()
    };
    for seq in [20u64, 30, 40] {
        plan.events.push(FaultEvent::Batch {
            origin: 0,
            dest: 2,
            seq,
            fault: BatchFault::Drop,
        });
        plan.events.push(FaultEvent::Batch {
            origin: 1,
            dest: 0,
            seq,
            fault: BatchFault::Drop,
        });
    }
    let workload_seed = 23;
    let mut kept_checks = Vec::new();
    let outcome = shrink_joint(
        &plan,
        &OpTrace::default(),
        ShrinkBudget::default(),
        |candidate, _| {
            let sim = run_explicit(workload_seed, candidate);
            let verdict = missing_batch_verdict(&sim, 0, 2, 20)
                .or_else(|| missing_batch_verdict(&sim, 1, 0, 20));
            if let Some(v) = &verdict {
                kept_checks.push(v.check.clone());
            }
            verdict
        },
    )
    .expect("fails");
    assert_eq!(outcome.check, "missing-batch r0:20@r2");
    // Every failing verdict the shrinker accepted (kept) matches the
    // target check; verdicts for the other check were rejected, so the
    // minimized plan must still fail the original check.
    let sim = run_explicit(workload_seed, &outcome.faults);
    assert!(missing_batch_verdict(&sim, 0, 2, 20).is_some());
    assert!(
        outcome.faults.events.len() <= 2,
        "the unrelated 1→0 drops must be gone:\n{}",
        outcome.faults
    );
}

#[test]
fn shrinking_is_deterministic_from_the_seed_pair() {
    // The advertised CI workflow: record the trace of a probabilistic
    // (workload seed, fault seed) run, derive the failure from the trace
    // itself, shrink. Both full passes must agree bit for bit.
    let (workload_seed, fault_seed) = (37u64, 41u64);
    let shrink_once = || {
        let mut plan = FaultPlan::with_intensity(fault_seed, 0.3);
        // Defer anti-entropy past the window so drops stay unrepaired.
        plan.anti_entropy_s = Some(3600.0);
        let mut sim = Simulation::new(paper_topology(), cfg(workload_seed, plan));
        sim.record_fault_trace();
        let mut w = Inserter::default();
        sim.run(&mut w);
        let trace = sim.take_fault_trace();
        // The failure to minimize: the last batch the nemesis dropped.
        let &FaultEvent::Batch {
            origin,
            dest,
            seq,
            fault: BatchFault::Drop,
        } = trace
            .events
            .iter()
            .rev()
            .find(|e| {
                matches!(
                    e,
                    FaultEvent::Batch {
                        fault: BatchFault::Drop,
                        ..
                    }
                )
            })
            .expect("intensity 0.3 drops something")
        else {
            unreachable!()
        };
        let outcome = shrink_joint(
            &trace,
            &OpTrace::default(),
            ShrinkBudget::default(),
            |candidate, _| {
                let sim = run_explicit(workload_seed, candidate);
                missing_batch_verdict(&sim, origin, dest, seq)
            },
        )
        .expect("the recorded trace contains the culprit drop");
        (outcome.faults.to_string(), outcome.digest, outcome.runs)
    };
    let a = shrink_once();
    let b = shrink_once();
    assert_eq!(a, b, "same seed pair ⇒ same minimized plan, digest, cost");
    // And the minimized plan is tiny: the culprit drop alone suffices.
    let plan: ExplicitPlan = a.0.parse().expect("parse");
    assert!(
        plan.events.len() <= 2,
        "expected (near-)singleton plan:\n{}",
        a.0
    );
}

/// Tie-break re-pin: explicit-plan replays schedule their nemesis
/// windows (cuts, crashes, restarts) at a dedicated same-microsecond
/// rank, in `(time, payload)`-sorted order — a stable `(time, class,
/// payload)` tie-break that closed the PR-4 event-queue follow-up.
/// These digests pin the explicit event loop's output; a future change
/// to the tie-break (or to explicit scheduling in general) shifts them
/// and must be re-pinned intentionally.
#[test]
fn explicit_plan_digests_stay_pinned() {
    // A hand-written plan whose windows collide in virtual time: two
    // cuts and a crash at the same microsecond (1.000000s), plus
    // transport faults. The stable tie-break orders the windows by
    // (time, class, payload) regardless of their line order in the
    // plan, so both permutations must produce the identical digest.
    let text_a = "ae 0.25\n\
                  cut 0-1 1.0 0.3\n\
                  cut 0-2 1.0 0.2\n\
                  crash 1 1.0 0.5\n\
                  drop 0->2 5\n\
                  delay 1->0 7 42.5\n\
                  dup 2->1 3 40\n";
    let text_b = "ae 0.25\n\
                  dup 2->1 3 40\n\
                  crash 1 1.0 0.5\n\
                  drop 0->2 5\n\
                  cut 0-2 1.0 0.2\n\
                  cut 0-1 1.0 0.3\n\
                  delay 1->0 7 42.5\n";
    let run_digest = |text: &str| {
        let plan: ExplicitPlan = text.parse().expect("parse");
        let mut sim = run_explicit(11, &plan);
        sim.quiesce();
        sim.schedule_digest()
    };
    let (a, b) = (run_digest(text_a), run_digest(text_b));
    assert_eq!(a, b, "window order in the plan text must not matter");
    // Re-pinned once for the in-flight send-window fix: anti-entropy no
    // longer re-ships batches whose delivery is still in flight or
    // already buffered awaiting causal predecessors, so every AE-era
    // schedule (and thus its digest) changed.
    assert_eq!(
        a, 0xa54741ef367d3aa4,
        "explicit collision-plan digest drifted: 0x{a:016x}"
    );

    // And the recorded-trace seal digests for two probed configs.
    for (workload_seed, fault_seed, intensity, want) in [
        (11u64, 11u64, 0.5, 0x173347a1a85d25b6u64),
        (97, 3007, 1.0, 0xb4f72990169527f0),
    ] {
        let plan = FaultPlan::with_intensity(fault_seed, intensity);
        let mut sim = Simulation::new(paper_topology(), cfg(workload_seed, plan));
        sim.record_fault_trace();
        let mut w = Inserter::default();
        sim.run(&mut w);
        sim.quiesce();
        let trace = sim.take_fault_trace();
        let mut replay = run_explicit(workload_seed, &trace);
        replay.quiesce();
        let got = replay.schedule_digest();
        assert_eq!(
            got, want,
            "sealed-replay digest drifted for ({workload_seed},{fault_seed}): \
             0x{got:016x} != 0x{want:016x}"
        );
    }
}

/// The plan text format did not move: every corpus plan and one line of
/// each directive render back byte for byte (comments aside).
#[test]
fn plan_text_format_reproduces_every_directive_byte_for_byte() {
    let every_directive = "ae 0.25\n\
                           skew 1 15\n\
                           skew 2 -10\n\
                           drop 0->2 17\n\
                           delay 1->0 23 35.25\n\
                           dup 0->1 9 40\n\
                           flip 2->0 4\n\
                           trunc 1->2 6 3\n\
                           forge 0->1 11 4\n\
                           mutdup 2->1 8 25.5\n\
                           cut 0-2 1 0.3\n\
                           crash 1 0.9 0.8\n\
                           ael 3 0->2 40.125\n";
    let mut texts = vec![
        every_directive.to_owned(),
        "ae off\ndrop 1->0 4\n".to_owned(),
    ];
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    for entry in std::fs::read_dir(corpus).expect("tests/corpus") {
        let path = entry.expect("entry").path();
        if path.to_string_lossy().ends_with(".plan.txt") {
            texts.push(std::fs::read_to_string(&path).expect("read"));
        }
    }
    assert!(texts.len() >= 6, "the four corpus plans were found");
    let directives = |text: &str| -> String {
        let kept = text.lines().filter(|l| !l.starts_with('#'));
        kept.flat_map(|l| [l, "\n"]).collect()
    };
    for text in texts {
        let plan: ExplicitPlan = text.parse().expect("parse");
        assert_eq!(directives(&plan.to_string()), directives(&text));
    }
    assert_eq!(
        every_directive
            .parse::<ExplicitPlan>()
            .expect("parse")
            .summary(),
        "9 events: 1 drop, 1 delay, 1 dup, 1 cut, 1 crash, 1 flip, 1 trunc, 1 forge, 1 mutdup"
    );
}
