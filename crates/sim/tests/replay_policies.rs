//! Replay-policy regressions for two carried-over bugs:
//!
//! * **Defer, don't drop**: a recorded op whose home replica is down in
//!   a *modified* fault plan defers to the region's restart instead of
//!   being silently skipped — skipping deleted writes from shrink
//!   candidates, so ddmin kept "minimal" plans that only failed because
//!   the workload lost ops, not because of the fault under test.
//! * **Op-keyed send table**: recorded send latencies are keyed by the
//!   staging op event `(client, fire µs, ordinal)`, not by the batch's
//!   `(origin, dest, seq)` — batch sequences re-pack when a shrunk
//!   trace removes earlier commits, which mis-assigned one op's
//!   recorded delays to a different op's batches.

use ipa_sim::{
    paper_topology, ExplicitPlan, FaultEvent, FaultPlan, OpTrace, SimConfig, Simulation,
};

#[path = "common/replayable.rs"]
mod replayable;
use replayable::ReplayableInserter;

fn cfg(seed: u64) -> SimConfig {
    SimConfig {
        clients_per_region: 2,
        warmup_s: 0.2,
        duration_s: 1.8,
        seed,
        faults: FaultPlan::none(),
        ..Default::default()
    }
}

/// Record a benign probabilistic run's op trace.
fn record_trace(seed: u64) -> OpTrace {
    let mut sim = Simulation::new(paper_topology(), cfg(seed));
    sim.record_op_trace();
    let mut w = ReplayableInserter::default();
    sim.run(&mut w);
    sim.quiesce();
    sim.take_op_trace()
}

fn set_len(sim: &Simulation, region: u16) -> usize {
    sim.replica(region)
        .object("set")
        .expect("set exists")
        .as_awset()
        .expect("is awset")
        .len()
}

#[test]
fn crashed_home_ops_defer_to_the_restart() {
    let trace = record_trace(11);
    let total = trace.events.len();
    assert!(total > 100, "enough recorded ops to straddle the window");

    // Replay under a crash window the record run never had: region 0 is
    // down 0.5 s–0.9 s, squarely inside the recorded op schedule.
    let crash = ExplicitPlan {
        events: vec![FaultEvent::Crash {
            region: 0,
            at_s: 0.5,
            down_s: 0.4,
        }],
        anti_entropy_s: Some(0.25),
        ae_latency_ms: Vec::new(),
        skew_ms: Vec::new(),
    };
    let run = || {
        let mut sim = Simulation::new(paper_topology(), cfg(11));
        sim.set_explicit_faults(&crash);
        sim.set_explicit_ops(&trace);
        let mut w = ReplayableInserter::default();
        sim.run(&mut w);
        sim.quiesce();
        sim
    };
    let sim = run();
    assert!(
        sim.metrics.failed > 0,
        "the crash window must actually hit recorded ops"
    );
    // Every recorded op still executed: the ops that found their home
    // replica down re-fired at the restart (the old skip policy lost
    // them, shrinking the converged set).
    for r in 0..3u16 {
        assert_eq!(
            set_len(&sim, r),
            total,
            "all {total} recorded inserts survive the added crash window"
        );
    }
    assert_eq!(
        run().schedule_digest(),
        sim.schedule_digest(),
        "deferred replay is deterministic"
    );
}

#[test]
fn ops_stay_skipped_when_the_region_never_restarts() {
    let trace = record_trace(11);
    let total = trace.events.len();
    // Region 0 crashes and stays down past the run's end: there is no
    // restart to defer to, so its clients' remaining ops are skipped
    // (quiesce restarts everyone, but the ops are gone — exactly the
    // pre-defer behavior, still correct when recovery is impossible).
    let crash = ExplicitPlan {
        events: vec![FaultEvent::Crash {
            region: 0,
            at_s: 0.5,
            down_s: 1.0e6,
        }],
        anti_entropy_s: Some(0.25),
        ae_latency_ms: Vec::new(),
        skew_ms: Vec::new(),
    };
    let mut sim = Simulation::new(paper_topology(), cfg(11));
    sim.set_explicit_faults(&crash);
    sim.set_explicit_ops(&trace);
    let mut w = ReplayableInserter::default();
    sim.run(&mut w);
    sim.quiesce();
    assert!(sim.metrics.failed > 0);
    let lost = total - set_len(&sim, 0);
    assert!(lost > 0, "region 0's post-crash ops cannot execute");
}

/// Pinned digest of the shrunk-candidate replay below. The constant
/// seals the op-keyed send table: under the old `(origin, dest, seq)`
/// keying, removing client 0's events re-packed region 0's batch
/// sequences, so client 1's surviving ops looked up — and got — client
/// 0's recorded delays, perturbing the schedule away from this value.
const SHRUNK_CANDIDATE_DIGEST: u64 = 0x3a6a_ce03_8bf2_5bb9;

#[test]
fn shrunk_traces_keep_send_latencies_with_their_op() {
    let full = record_trace(23);
    assert!(!full.sends.is_empty());

    // A ddmin-style candidate: client 0's events removed, the *full*
    // send table kept (exactly what the joint shrinker feeds sealed
    // runs mid-minimization).
    let mut candidate = full.clone();
    candidate.events.retain(|e| e.client != 0);
    assert!(
        candidate.events.len() < full.events.len(),
        "client 0 executed ops"
    );

    // The reference: same surviving events, send table filtered to
    // those ops' own entries — stale entries cannot be mis-assigned if
    // they are not there at all.
    let mut reference = candidate.clone();
    reference.sends.retain(|s| s.client != 0);
    assert!(reference.sends.len() < candidate.sends.len());

    let run = |t: &OpTrace| {
        let mut sim = Simulation::new(paper_topology(), cfg(23));
        sim.set_explicit_ops(t);
        let mut w = ReplayableInserter::default();
        sim.run(&mut w);
        sim.quiesce();
        sim.schedule_digest()
    };
    let cand = run(&candidate);
    assert_eq!(
        cand,
        run(&reference),
        "a surviving op replays with its own recorded delays — stale \
         entries for removed ops must never be consulted"
    );
    assert_eq!(
        cand, SHRUNK_CANDIDATE_DIGEST,
        "pinned shrunk-candidate schedule moved — send-table keying \
         regressed (got {cand:#018x})"
    );
}
