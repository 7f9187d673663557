//! Rights conservation for the escrow-sharded bounded counters.
//!
//! The escrow design's whole safety argument is an accounting identity:
//! rights are *moved*, never minted — by local decrements, donor
//! borrows, and asynchronous rights-transfer messages riding ordinary
//! update batches. Because transfers are plain CRDT operations, every
//! fault the adversarial transport can inflict on them (drop, delay,
//! duplicate, crash of the carrying replica) is already covered by the
//! delivery contract: idempotent receive plus durable-log anti-entropy.
//!
//! Two layers of evidence:
//!
//! * a **property test** replaying the high-contention ticket sale
//!   under arbitrary seeded fault plans and asserting, at quiescence on
//!   every replica, that spent tickets plus remaining counter value
//!   equals the initial capacity and that per-replica rights sum to the
//!   counter value (no right minted, none silently destroyed);
//! * a **crash-recovery regression**: a replica that spent part of its
//!   rights and then crashes recovers its *unspent* rights from its
//!   durable log — nothing double-spends and nothing is forfeited.

use ipa::apps::soak::TransportCtx;
use ipa::apps::ticket::sale::{raw_oversell, SaleBackend, SaleWorkload};
use ipa::coord::{rights_key, BoundedCounter, CoordError, EscrowShard, StrongCounter};
use ipa::crdt::ReplicaId;
use ipa::sim::{
    paper_topology, ClientInfo, CrashPlan, FaultPlan, OpCtx, OpOutcome, SimConfig, SimCtx,
    Simulation, Workload,
};
use ipa::store::{Cluster, Transport};
use proptest::prelude::*;

/// Check the conservation identity for one event at one replica:
/// `counter value + tickets sold == capacity` and
/// `Σ per-replica rights == counter value ≥ 0`.
fn assert_conserved(sim: &Simulation, event: &str, capacity: i64, replica: u16) {
    let r = sim.replica(replica);
    let counter = r
        .object(&rights_key(event))
        .and_then(|o| o.as_bcounter())
        .unwrap_or_else(|| panic!("bcounter for {event} at replica {replica}"))
        .clone();
    let sold = r
        .object(&format!("ticket/sold/{event}"))
        .and_then(|o| o.as_awset())
        .map_or(0, |s| s.len()) as i64;
    let value = counter.value();
    assert!(value >= 0, "{event}@{replica}: bound violated ({value})");
    assert_eq!(
        value + sold,
        capacity,
        "{event}@{replica}: rights minted or destroyed (value {value}, sold {sold})"
    );
    let rights_sum: i64 = (0..sim.regions() as u16)
        .map(|i| counter.local_rights(ReplicaId(i)))
        .sum();
    assert_eq!(
        rights_sum, value,
        "{event}@{replica}: per-replica rights disagree with the value"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under *any* seeded fault plan — drops, delays, duplicates, link
    /// cuts, plus an optional crash of the replica carrying transfers —
    /// the quiesced cluster upholds the conservation identity for every
    /// event, and never oversells.
    #[test]
    fn rights_are_conserved_under_any_fault_plan(
        seed in 0u64..10_000,
        intensity in 0.2f64..=0.9,
        crash in 0u64..2,
    ) {
        let mut faults = FaultPlan::with_intensity(seed, intensity);
        if crash == 1 {
            faults.crashes.push(CrashPlan {
                region: (seed % 3) as u16,
                at_s: 0.7,
                down_s: 0.4,
            });
        }
        let cfg = SimConfig {
            clients_per_region: 2,
            warmup_s: 0.2,
            duration_s: 1.2,
            seed,
            faults,
            ..Default::default()
        };
        let mut sim = Simulation::new(paper_topology(), cfg);
        let mut w = SaleWorkload::with_defaults(SaleBackend::Escrow);
        sim.run(&mut w);
        sim.quiesce();
        prop_assert_eq!(raw_oversell(&sim, &w), 0, "fault plan minted a ticket");
        for (event, capacity) in w.event_capacities() {
            for replica in 0..sim.regions() as u16 {
                assert_conserved(&sim, &event, capacity as i64, replica);
            }
        }
    }
}

/// A replica that spent part of its rights and crashed recovers its
/// unspent remainder from the durable log: committed decrements stay
/// spent (no double-sell) and surviving rights stay usable (no
/// forfeiture).
#[test]
fn crashed_replica_recovers_unspent_rights_from_its_durable_log() {
    let mut cluster = Cluster::new(3);
    let mut shard = EscrowShard::default();
    {
        let mut ctx = TransportCtx::new(&mut cluster, 5);
        shard.create(&mut ctx, "gold", 90).expect("create");
        // Region 2 spends 5 of its 30 pre-provisioned rights.
        for _ in 0..5 {
            shard.decrement(&mut ctx, "gold", 2, 1).expect("local dec");
        }
        ctx.transport().quiesce_transport();
    }

    // Crash region 2 (volatile state lost), bring it back, repair.
    cluster.crash_node(ReplicaId(2));
    cluster.restart_node(ReplicaId(2));
    cluster.quiesce_transport();

    let key: ipa::store::Key = rights_key("gold").as_str().into();
    for r in 0..3u16 {
        let counter = cluster
            .replica(ReplicaId(r))
            .object(&key)
            .and_then(|o| o.as_bcounter())
            .expect("counter survives the crash")
            .clone();
        assert_eq!(counter.value(), 85, "replica {r}: the 5 decs stay spent");
        assert_eq!(
            counter.local_rights(ReplicaId(2)),
            25,
            "replica {r}: the unspent remainder survives"
        );
    }

    // The survivor keeps selling on its recovered rights alone.
    let mut ctx = TransportCtx::new(&mut cluster, 6);
    for _ in 0..25 {
        shard
            .decrement(&mut ctx, "gold", 2, 1)
            .expect("recovered rights are spendable");
    }
    ctx.transport().quiesce_transport();

    // Local rights exhausted, region 2 keeps selling on donor borrows
    // until the global bound is reached — then the shard refuses
    // outright. 90 = 5 + 25 + 60: not one ticket double-sold across
    // the crash.
    let mut ctx = TransportCtx::new(&mut cluster, 7);
    for _ in 0..60 {
        shard
            .decrement(&mut ctx, "gold", 2, 1)
            .expect("donors cover the exhausted survivor");
    }
    let denied = shard.decrement(&mut ctx, "gold", 2, 1);
    assert!(
        matches!(denied, Err(CoordError::WouldOversell { .. })),
        "the 91st ticket of 90 must be refused: {denied:?}"
    );
}

/// Coordination over a plain `Cluster` sees the cluster's faults: with
/// node 1 crashed and link 0–2 cut, region 0 has no donor left once its
/// own rights are spent, so the borrow is refused — and nothing commits
/// into the crashed node's downtime.
#[test]
fn escrow_borrows_from_no_crashed_or_cut_off_donor() {
    let mut cluster = Cluster::new(3);
    let mut shard = EscrowShard::default();
    let mut ctx = TransportCtx::new(&mut cluster, 8);
    shard.create(&mut ctx, "gold", 90).expect("create");
    ctx.transport().quiesce_transport();
    for _ in 0..30 {
        shard
            .decrement(&mut ctx, "gold", 0, 1)
            .expect("region 0 spends its own 30 rights");
    }
    ctx.transport().crash_node(ReplicaId(1));
    ctx.transport()
        .set_link_up(ReplicaId(0), ReplicaId(2), false);
    let before = ctx.transport().replica(ReplicaId(1)).clock().clone();
    let denied = shard.decrement(&mut ctx, "gold", 0, 1);
    // `to: 0`: no donor was even asked (a donor tried and struck would
    // be named).
    assert!(
        matches!(denied, Err(CoordError::PeerUnreachable { from: 0, to: 0 })),
        "donor 1 is down and donor 2 is cut off: {denied:?}"
    );
    let after = ctx.transport().replica(ReplicaId(1)).clock();
    assert_eq!(after, &before, "nothing committed at the crashed node");
}

/// Strong coordination over a plain `Cluster` sees a crashed primary:
/// with node 0 down, a decrement from region 1 is refused, and nothing
/// commits anywhere.
#[test]
fn strong_counter_refuses_while_its_primary_is_down() {
    let mut cluster = Cluster::new(3);
    let mut strong = StrongCounter::new(0);
    let mut ctx = TransportCtx::new(&mut cluster, 9);
    strong.create(&mut ctx, "gold", 90).expect("create");
    ctx.transport().quiesce_transport();
    ctx.transport().crash_node(ReplicaId(0));
    let clocks = |ctx: &mut TransportCtx<'_, Cluster>| -> Vec<_> {
        (0..3)
            .map(|r| ctx.transport().replica(ReplicaId(r)).clock().clone())
            .collect()
    };
    let before = clocks(&mut ctx);
    let denied = strong.decrement(&mut ctx, "gold", 1, 1);
    assert_eq!(
        denied,
        Err(CoordError::PeerUnreachable { from: 1, to: 0 }),
        "the primary is down"
    );
    assert_eq!(clocks(&mut ctx), before, "no node's clock moved");
}

/// The same refusal on the simulator, whose commit path has no down
/// check of its own, so `StrongCounter`'s is the only guard: while the
/// plan holds the primary down, every decrement forwarded to it is
/// refused, and the counter loses exactly the decrements that succeeded.
#[test]
fn strong_counter_refuses_on_the_simulator_while_the_plan_crashes_its_primary() {
    struct Sale {
        strong: StrongCounter,
        sold: i64,
        refused_down: u64,
    }
    impl Workload for Sale {
        fn setup(&mut self, ctx: &mut SimCtx<'_>) {
            self.strong.create(ctx, "gold", 10_000).expect("create");
        }
        fn op(&mut self, ctx: &mut SimCtx<'_>, client: ClientInfo) -> OpOutcome {
            let down = !ctx.node_up(0);
            match self.strong.decrement(ctx, "gold", client.region, 1) {
                Ok(_) => {
                    assert!(!down, "a decrement committed at the crashed primary");
                    self.sold += 1;
                    OpOutcome::ok("Buy", 1, 1)
                }
                Err(e) => {
                    assert!(down, "refused with the primary up: {e:?}");
                    let to_primary = CoordError::PeerUnreachable {
                        from: client.region,
                        to: 0,
                    };
                    assert_eq!(e, to_primary);
                    self.refused_down += 1;
                    OpOutcome::unavailable("Buy")
                }
            }
        }
    }
    let crash = CrashPlan {
        region: 0,
        at_s: 0.6,
        down_s: 0.6,
    };
    let cfg = SimConfig {
        clients_per_region: 2,
        warmup_s: 0.2,
        duration_s: 1.8,
        seed: 5,
        faults: FaultPlan {
            crashes: vec![crash],
            ..FaultPlan::none()
        },
        ..Default::default()
    };
    let mut sim = Simulation::new(paper_topology(), cfg);
    let mut sale = Sale {
        strong: StrongCounter::new(0),
        sold: 0,
        refused_down: 0,
    };
    sim.run(&mut sale);
    sim.quiesce();
    assert!(
        sale.refused_down > 0,
        "the plan's crash window saw decrements"
    );
    for r in 0..sim.regions() as u16 {
        let counter = sim
            .replica(r)
            .object(&rights_key("gold"))
            .and_then(|o| o.as_bcounter());
        assert_eq!(
            counter.map(|c| c.value()),
            Some(10_000 - sale.sold),
            "replica {r}"
        );
    }
}
