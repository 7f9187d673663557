//! The in-flight send window: periodic anti-entropy must not re-ship
//! batches whose normal delivery is merely still on the wire.
//!
//! Before the window, every AE tick re-sent whatever the destination
//! had not yet *applied* — including batches scheduled to arrive a few
//! simulated milliseconds later — so a benign run with a short AE
//! period re-shipped nearly every batch. Now each node tracks what has
//! been promised to it (AE bursts as causally self-contained clock
//! joins, lone client batches as contiguous per-origin advances), and
//! AE only repairs genuine losses.

use ipa_sim::{paper_topology, FaultPlan, SimConfig, Simulation};

#[path = "common/inserter.rs"]
mod inserter;
use inserter::Inserter;

fn cfg(seed: u64, faults: FaultPlan) -> SimConfig {
    SimConfig {
        clients_per_region: 2,
        warmup_s: 0.3,
        duration_s: 3.0,
        seed,
        faults,
        ..Default::default()
    }
}

/// Benign transport, aggressive anti-entropy: with no losses, every
/// batch is already promised (its delivery is in flight under the WAN
/// RTT), so AE must send **nothing**. This is the regression pin for
/// the in-flight window — without it the 50 ms AE period re-ships
/// almost every batch mid-flight.
#[test]
fn anti_entropy_sends_nothing_on_a_lossless_transport() {
    let faults = FaultPlan {
        anti_entropy_s: Some(0.05),
        ..FaultPlan::none()
    };
    let mut sim = Simulation::new(paper_topology(), cfg(29, faults));
    let mut w = Inserter::default();
    sim.run(&mut w);
    assert!(sim.metrics.completed > 100, "the workload actually ran");
    assert_eq!(
        sim.nemesis.anti_entropy_batches, 0,
        "no losses ⇒ nothing for anti-entropy to repair"
    );
    sim.quiesce();
    for r in 1..3u16 {
        assert_eq!(
            sim.replica(r).clock(),
            sim.replica(0).clock(),
            "replica {r} converged without AE help"
        );
    }
}

/// Lossy transport: the window must not mask real losses — dropped
/// batches never arrive, their promises expire, and anti-entropy
/// re-ships them (at least one send per dropped batch, possibly more
/// when a drop also stalls causally later batches at the destination).
#[test]
fn anti_entropy_still_repairs_real_drops() {
    let mut faults = FaultPlan::with_intensity(7, 0.5);
    faults.flap = None; // isolate the drop/dup/delay path
    faults.anti_entropy_s = Some(0.1);
    let mut sim = Simulation::new(paper_topology(), cfg(31, faults));
    let mut w = Inserter::default();
    sim.run(&mut w);
    assert!(
        sim.nemesis.batches_dropped > 0,
        "the nemesis dropped batches"
    );
    assert!(
        sim.nemesis.anti_entropy_batches >= sim.nemesis.batches_dropped,
        "every drop was repaired by an AE send: {} repaired vs {} dropped",
        sim.nemesis.anti_entropy_batches,
        sim.nemesis.batches_dropped
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
    assert_eq!(sizes[0], sizes[1], "drops healed everywhere");
    assert_eq!(sizes[1], sizes[2]);
    assert_eq!(sizes[0] as u64, w.n, "no insert lost");
}
