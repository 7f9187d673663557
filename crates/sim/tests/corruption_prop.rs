//! Property: the replica protocol is total over the adversarial fault
//! model. For *any* seeded corruption plan — bit-flips, truncations,
//! forged sequence numbers, mutated duplicates, clock skew, plus the
//! honest drop/delay/dup/crash machinery underneath — every replica
//! ends the run converged and clean, and every corrupted delivery is
//! either repaired or still visibly quarantined. Never a panic, never
//! silent divergence: corruption is allowed to cost liveness (bounded,
//! repaired by anti-entropy), but not safety and not silence.

use ipa_sim::{paper_topology, CrashPlan, FaultPlan, SimConfig, Simulation};
use proptest::prelude::*;

#[path = "common/inserter.rs"]
mod inserter;
use inserter::Inserter;

fn set_size(sim: &Simulation, region: u16) -> usize {
    sim.replica(region)
        .object("set")
        .and_then(|o| o.as_awset())
        .map_or(0, |s| s.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_corruption_plan_converges_clean_or_surfaces_quarantine(
        seed in 0u64..10_000,
        intensity in 0.25f64..=1.0,
        crash in 0u64..2,
    ) {
        let mut faults = FaultPlan::adversarial(seed, intensity);
        if crash == 1 {
            faults.crashes.push(CrashPlan {
                region: (seed % 3) as u16,
                at_s: 0.9,
                down_s: 0.6,
            });
        }
        let mut sim = Simulation::new(
            paper_topology(),
            SimConfig {
                clients_per_region: 2,
                warmup_s: 0.2,
                duration_s: 1.8,
                seed,
                faults,
                ..Default::default()
            },
        );
        let mut w = Inserter::default();
        sim.run(&mut w);
        sim.quiesce();

        for r in 0..3u16 {
            let replica = sim.replica(r);
            // Clean: no corruption evidence is left dangling — every
            // quarantined slot was repaired by a clean copy (or closed
            // as structurally impossible).
            prop_assert_eq!(
                replica.unrepaired_quarantine(), 0,
                "replica {} holds unrepaired quarantine (seed {}, corrupted {})",
                r, seed, sim.nemesis.batches_corrupted
            );
            // Converged: all inserted elements are present everywhere.
            prop_assert_eq!(
                set_size(&sim, r), w.n as usize,
                "replica {} diverged (seed {}, intensity {})",
                r, seed, intensity
            );
        }
        // No silence: if the transport corrupted deliveries whose bytes
        // actually changed, the receivers said so. (A truncation to the
        // batch's own length is byte-identical — seal intact, applied
        // clean — so quarantine counts can undershoot corruption counts,
        // but an *armed* adversary that landed corrupt bytes and left
        // zero trace anywhere would mean receivers applied garbage.)
        let quarantined: u64 = (0..3u16)
            .map(|r| sim.replica(r).stats.batches_quarantined)
            .sum();
        prop_assert!(
            quarantined <= sim.nemesis.batches_corrupted,
            "more quarantines ({}) than corrupted deliveries ({})",
            quarantined, sim.nemesis.batches_corrupted
        );
    }
}
