//! Op-trace properties over real simulations:
//!
//! * a recorded op trace replays the original probabilistic run
//!   bit-identically with the workload RNG never drawn (the op seal) —
//!   with the nemesis kept probabilistic *and* with the fault trace
//!   sealed too;
//! * recording is pure observation: it never perturbs the schedule;
//! * recording and replay are deterministic from the
//!   `(workload seed, fault seed)` pair;
//! * the trace text roundtrips exactly (integer-µs times and delays);
//! * joint shrinking over a real sealed runner isolates the op that
//!   commits a dropped batch.

use ipa_sim::{
    paper_topology, shrink_joint, BatchFault, CrashPlan, ExplicitPlan, FaultEvent, FaultPlan,
    OpTrace, RunVerdict, ShrinkBudget, SimConfig, Simulation,
};

#[path = "common/replayable.rs"]
mod replayable;
use replayable::ReplayableInserter;

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

/// The probed fault configs: benign, mid-intensity, hot + crash.
fn probed_plans(fault_seed: u64) -> Vec<FaultPlan> {
    let mut crashy = FaultPlan::with_intensity(fault_seed, 1.0);
    crashy.crashes.push(CrashPlan {
        region: (fault_seed % 3) as u16,
        at_s: 0.9,
        down_s: 0.8,
    });
    vec![
        FaultPlan::none(),
        FaultPlan::with_intensity(fault_seed, 0.5),
        crashy,
    ]
}

/// Run one probabilistic simulation, optionally recording traces.
fn run_probabilistic(
    seed: u64,
    faults: &FaultPlan,
    record: bool,
) -> (Simulation, Option<(ExplicitPlan, OpTrace)>) {
    let mut sim = Simulation::new(paper_topology(), cfg(seed, faults.clone()));
    if record {
        sim.record_fault_trace();
        sim.record_op_trace();
    }
    let mut w = ReplayableInserter::default();
    sim.run(&mut w);
    sim.quiesce();
    let traces = record.then(|| {
        let f = sim.take_fault_trace();
        let o = sim.take_op_trace();
        (f, o)
    });
    (sim, traces)
}

#[test]
fn recording_never_perturbs_the_schedule() {
    for (seed, fault_seed) in [(11u64, 11u64), (97, 3007)] {
        for faults in probed_plans(fault_seed) {
            let (plain, _) = run_probabilistic(seed, &faults, false);
            let (recorded, traces) = run_probabilistic(seed, &faults, true);
            assert_eq!(
                plain.schedule_digest(),
                recorded.schedule_digest(),
                "recording must be pure observation (seeds {seed}/{fault_seed}, {faults})"
            );
            let (_, ops) = traces.expect("recorded");
            assert!(!ops.events.is_empty());
            assert!(!ops.sends.is_empty());
        }
    }
}

#[test]
fn op_seal_is_bit_exact_on_every_probed_config() {
    for (seed, fault_seed) in [(11u64, 11u64), (23, 713), (97, 3007)] {
        for faults in probed_plans(fault_seed) {
            let (orig, traces) = run_probabilistic(seed, &faults, true);
            let (fault_trace, op_trace) = traces.expect("recorded");

            // Ops sealed, nemesis still probabilistic: the nemesis RNG
            // stream is independent of the workload's, so the replay
            // draws the identical fault decisions.
            let mut replay = Simulation::new(paper_topology(), cfg(seed, faults.clone()));
            replay.set_explicit_ops(&op_trace);
            let mut w = ReplayableInserter::default();
            replay.run(&mut w);
            replay.quiesce();
            assert_eq!(
                replay.schedule_digest(),
                orig.schedule_digest(),
                "ops-only seal (seeds {seed}/{fault_seed}, {faults})"
            );
            assert_eq!(replay.nemesis, orig.nemesis);

            // Fully sealed: explicit faults + explicit ops — neither
            // RNG is ever drawn, and the digest still matches.
            let mut sealed = Simulation::new(paper_topology(), cfg(seed, FaultPlan::none()));
            sealed.set_explicit_faults(&fault_trace);
            sealed.set_explicit_ops(&op_trace);
            let mut w = ReplayableInserter::default();
            sealed.run(&mut w);
            sealed.quiesce();
            assert_eq!(
                sealed.schedule_digest(),
                orig.schedule_digest(),
                "full seal (seeds {seed}/{fault_seed}, {faults})"
            );
            assert_eq!(sealed.nemesis, orig.nemesis);
        }
    }
}

#[test]
fn recorded_traces_roundtrip_as_text_exactly() {
    let faults = FaultPlan::with_intensity(11, 0.5);
    let (_, traces) = run_probabilistic(11, &faults, true);
    let (_, ops) = traces.expect("recorded");
    let text = ops.to_string();
    let back: OpTrace = text.parse().expect("parse");
    assert_eq!(back, ops, "trace text roundtrips field-exactly");
    assert_eq!(back.to_string(), text, "rendering is idempotent");
    // Times and delays are integer microseconds end to end, so there is
    // no float channel to lose precision through.
    for e in &ops.events {
        assert!(text.contains(&format!("op {} {} ", e.client, e.at_us)));
    }
}

#[test]
fn recording_and_replay_are_deterministic_from_the_seed_pair() {
    let (seed, fault_seed) = (37u64, 41u64);
    let faults = FaultPlan::with_intensity(fault_seed, 0.5);
    let (a_sim, a) = run_probabilistic(seed, &faults, true);
    let (b_sim, b) = run_probabilistic(seed, &faults, true);
    let (af, ao) = a.expect("recorded");
    let (bf, bo) = b.expect("recorded");
    assert_eq!(a_sim.schedule_digest(), b_sim.schedule_digest());
    assert_eq!(af, bf, "fault traces agree");
    assert_eq!(ao, bo, "op traces agree");

    let replay_digest = |ops: &OpTrace, plan: &ExplicitPlan| {
        let mut sim = Simulation::new(paper_topology(), cfg(seed, FaultPlan::none()));
        sim.set_explicit_faults(plan);
        sim.set_explicit_ops(ops);
        let mut w = ReplayableInserter::default();
        sim.run(&mut w);
        sim.quiesce();
        sim.schedule_digest()
    };
    assert_eq!(replay_digest(&ao, &af), replay_digest(&bo, &bf));
}

/// Joint shrinking against a real sealed runner: a batch dropped with
/// anti-entropy disabled stays missing, and the minimized pair must
/// contain (essentially) just the drop and the ops the failure needs —
/// an actual near-unit-test counterexample.
#[test]
fn joint_shrink_isolates_the_dropped_batch_and_its_op() {
    let seed = 11u64;
    // Record a benign run to get a full op trace, then fail it with a
    // single injected drop of an early batch from replica 0 to 2.
    let (_, traces) = run_probabilistic(seed, &FaultPlan::none(), true);
    let (_, op_trace) = traces.expect("recorded");
    assert!(
        op_trace.events.len() >= 100,
        "enough ops to make shrinking meaningful: {}",
        op_trace.events.len()
    );
    let culprit = FaultEvent::Batch {
        origin: 0,
        dest: 2,
        seq: 3,
        fault: BatchFault::Drop,
    };
    let faults = ExplicitPlan {
        events: vec![culprit],
        anti_entropy_s: Some(0.25),
        ae_latency_ms: Vec::new(),
        skew_ms: Vec::new(),
    };

    // The bounded-liveness oracle at bound 0 is the check: a gap is
    // registered only when a *sent* batch is dropped, so the failure
    // needs both the drop event and the op that commits replica 0's
    // third batch — the shrinker cannot cheat by deleting everything
    // (no ops ⇒ no send ⇒ no gap ⇒ green).
    let runner = |f: &ExplicitPlan, o: &OpTrace| -> Option<RunVerdict> {
        let mut sim = Simulation::new(paper_topology(), cfg(seed, FaultPlan::none()));
        sim.set_explicit_faults(f);
        sim.set_explicit_ops(o);
        sim.set_liveness_bound(0);
        let mut w = ReplayableInserter::default();
        sim.run(&mut w);
        (sim.liveness_violations() > 0).then(|| RunVerdict {
            check: "bounded-liveness".into(),
            digest: sim.schedule_digest(),
        })
    };

    let out = shrink_joint(&faults, &op_trace, ShrinkBudget::default(), runner)
        .expect("the pair fails: the dropped batch opens a liveness gap");
    assert_eq!(out.check, "bounded-liveness");
    assert_eq!(out.faults.events, vec![culprit], "{}", out.faults);
    assert!(
        out.op_events() * 10 <= out.original_op_events,
        "{} of {} op events is not ≤ 10%",
        out.op_events(),
        out.original_op_events
    );
    // Replaying the minimized pair (through its text form) reproduces
    // the identical violation and digest.
    let f: ExplicitPlan = out.faults.to_string().parse().expect("parse");
    let o: OpTrace = out.ops.to_string().parse().expect("parse");
    let verdict = runner(&f, &o).expect("still fails");
    assert_eq!(verdict.digest, out.digest);
}
