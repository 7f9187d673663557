//! The [`BoundedCounter`] trait — the one surface both numeric
//! coordination backends answer to — plus the primary-forwarding
//! implementation and the [`CounterBackend`] dispatch enum.
//!
//! A bounded counter guards a numeric invariant (`value >= floor`,
//! classically "never sell more tickets than capacity"). The two
//! backends enforce it with very different machinery and very different
//! costs:
//!
//! * [`EscrowShard`] — replicated escrow: rights live
//!   *in the store* as a `BCounter` CRDT, transfers ride ordinary update
//!   batches (droppable, delayable, repairable by anti-entropy), and a
//!   decrement with resident rights is a purely local commit.
//! * [`StrongCounter`] — all rights at one primary; every decrement pays
//!   a WAN round trip (or is unavailable when the primary is cut off or
//!   down).
//!
//! Both return [`Acquired`] on success and [`CoordError`] on failure, so
//! application code is backend-agnostic.

use crate::error::CoordError;
use crate::escrow_shard::EscrowShard;
use crate::strong::StrongCoordinator;
use ipa_crdt::{ObjectKind, ReplicaId};
use ipa_sim::{OpCtx, Region};
use ipa_store::StoreError;

/// The store key a resource's bounded counter lives under (shared by the
/// escrow and strong backends, so oracles and tests can read the counter
/// object regardless of backend).
pub fn rights_key(res: &str) -> String {
    format!("escrow/{res}")
}

/// A granted coordination request and what it cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Acquired {
    /// Extra WAN delay the request paid, in milliseconds (zero for a
    /// purely local grant).
    pub wan_ms: f64,
    /// Rights-transfer messages this request put on the wire.
    pub transfers: u32,
}

impl Acquired {
    /// A purely local grant: no WAN delay, no transfer traffic.
    pub fn local() -> Acquired {
        Acquired::default()
    }
}

/// A replicated numeric bound with per-replica decrement rights. One
/// trait, two backends (escrow, strong); both methods are generic over
/// [`OpCtx`], so the same application code runs under the deterministic
/// simulator and the threaded transport.
///
/// Rights are read where they live: the `BCounter` at
/// [`rights_key`]`(res)` in any replica's store.
pub trait BoundedCounter {
    /// Install the resource with `capacity` total decrement rights,
    /// partitioned per the backend's placement (evenly for escrow, all
    /// at the primary for strong).
    fn create<C: OpCtx>(&mut self, ctx: &mut C, res: &str, capacity: u64)
        -> Result<(), CoordError>;

    /// Spend `n` units of the bound on behalf of `region`.
    fn decrement<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        region: Region,
        n: u64,
    ) -> Result<Acquired, CoordError>;
}

// ---------------------------------------------------------------------
// Strong backend (primary forwarding)
// ---------------------------------------------------------------------

/// [`BoundedCounter`] via primary forwarding: every right lives at the
/// primary's replica (a store-backed `BCounter`, same key as the escrow
/// backend), and every decrement is forwarded there — paying the WAN
/// round trip [`StrongCoordinator`] models, or failing unavailable when
/// the primary is partitioned away or crashed.
#[derive(Clone, Copy, Debug)]
pub struct StrongCounter {
    forward: StrongCoordinator,
}

impl StrongCounter {
    pub fn new(primary: Region) -> StrongCounter {
        StrongCounter {
            forward: StrongCoordinator::new(primary),
        }
    }

    pub fn primary(&self) -> Region {
        self.forward.primary()
    }

    /// WAN cost to reach the primary, or `PeerUnreachable`.
    fn forward_cost<C: OpCtx>(&self, ctx: &mut C, from: Region) -> Result<f64, CoordError> {
        if !ctx.node_up(self.primary()) {
            return Err(CoordError::PeerUnreachable {
                from,
                to: self.primary(),
            });
        }
        self.forward
            .forward_cost(ctx, from)
            .ok_or(CoordError::PeerUnreachable {
                from,
                to: self.primary(),
            })
    }
}

impl BoundedCounter for StrongCounter {
    fn create<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        capacity: u64,
    ) -> Result<(), CoordError> {
        // The counter object is created at region 0 (initial rights
        // belong to the creation owner, replica 0); if the primary is
        // elsewhere, the same commit transfers the full capacity there.
        // The rights land once the batch replicates — serialize after
        // setup before serving traffic.
        let primary = self.primary();
        let key = rights_key(res);
        let kind = ObjectKind::BCounter {
            floor: 0,
            initial: capacity as i64,
        };
        // Pre-create at the primary too (deterministic creation merges
        // idempotently with region 0's copy), so a forwarded decrement
        // arriving before the carve-out batch fails with rights
        // insufficiency — not a missing object.
        if primary != 0 {
            ctx.commit(primary, |tx| tx.ensure(key.as_str(), kind).map(|_| ()))
                .map_err(|e| match e {
                    StoreError::Unavailable(_) => CoordError::PeerUnreachable {
                        from: primary,
                        to: primary,
                    },
                    other => panic!("strong create on `{res}`: {other}"),
                })?;
        }
        ctx.commit(0, |tx| {
            tx.ensure(key.as_str(), kind)?;
            if primary != 0 && capacity > 0 {
                tx.bcounter_transfer(key.as_str(), ReplicaId(primary), capacity)?;
            }
            Ok(())
        })
        .map(|_| ())
        .map_err(|e| match e {
            StoreError::Unavailable(_) => CoordError::PeerUnreachable { from: 0, to: 0 },
            other => panic!("strong create on `{res}`: {other}"),
        })
    }

    fn decrement<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        region: Region,
        n: u64,
    ) -> Result<Acquired, CoordError> {
        let wan_ms = self.forward_cost(ctx, region)?;
        let key = rights_key(res);
        match ctx.commit(self.primary(), |tx| tx.bcounter_dec(key.as_str(), n)) {
            Ok(_) => Ok(Acquired {
                wan_ms,
                transfers: 0,
            }),
            // The primary holds *all* rights, so insufficiency there is
            // global exhaustion.
            Err(StoreError::InsufficientRights { .. }) => Err(CoordError::WouldOversell {
                resource: res.to_owned(),
            }),
            Err(StoreError::Unavailable(_)) => Err(CoordError::PeerUnreachable {
                from: region,
                to: self.primary(),
            }),
            Err(other) => panic!("strong decrement on `{res}`: {other}"),
        }
    }
}

// ---------------------------------------------------------------------
// Dispatch enum
// ---------------------------------------------------------------------

/// Runtime-selected [`BoundedCounter`] backend: lets an application hold
/// either counter in one field.
#[derive(Clone, Debug)]
pub enum CounterBackend {
    Escrow(EscrowShard),
    Strong(StrongCounter),
}

macro_rules! dispatch {
    ($self:ident, $inner:ident => $e:expr) => {
        match $self {
            CounterBackend::Escrow($inner) => $e,
            CounterBackend::Strong($inner) => $e,
        }
    };
}

impl BoundedCounter for CounterBackend {
    fn create<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        capacity: u64,
    ) -> Result<(), CoordError> {
        dispatch!(self, b => b.create(ctx, res, capacity))
    }

    fn decrement<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        region: Region,
        n: u64,
    ) -> Result<Acquired, CoordError> {
        dispatch!(self, b => b.decrement(ctx, res, region, n))
    }
}

/// The rights `holder` has on `res` as seen at replica `at`.
#[cfg(test)]
pub(crate) fn rights_at<C: OpCtx>(ctx: &mut C, res: &str, at: Region, holder: Region) -> i64 {
    let key = rights_key(res);
    ctx.commit(at, |tx| tx.bcounter_rights(key.as_str(), ReplicaId(holder)))
        .expect("read the rights counter")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_sim::{
        two_region_topology, ClientInfo, OpOutcome, SimConfig, SimCtx, Simulation, Workload,
    };

    struct Driver<F: FnMut(&mut SimCtx<'_>)> {
        f: F,
        ran: bool,
    }

    impl<F: FnMut(&mut SimCtx<'_>)> Workload for Driver<F> {
        fn op(&mut self, ctx: &mut SimCtx<'_>, _client: ClientInfo) -> OpOutcome {
            if !self.ran {
                (self.f)(ctx);
                self.ran = true;
            }
            OpOutcome::ok("drive", 1, 1)
        }
    }

    fn drive(f: impl FnMut(&mut SimCtx<'_>)) {
        let cfg = SimConfig {
            warmup_s: 0.0,
            duration_s: 0.2,
            ..Default::default()
        };
        let mut sim = Simulation::new(two_region_topology(), cfg);
        let mut d = Driver { f, ran: false };
        sim.run(&mut d);
        assert!(d.ran);
    }

    #[test]
    fn strong_counter_forwards_every_decrement_to_the_primary() {
        drive(|ctx| {
            let mut c = StrongCounter::new(0);
            c.create(ctx, "gala", 2).unwrap();
            assert_eq!(rights_at(ctx, "gala", 0, 0), 2);
            assert_eq!(
                rights_at(ctx, "gala", 0, 1),
                0,
                "rights never leave the primary"
            );
            // Remote decrement pays the round trip; local one is free.
            let remote = c.decrement(ctx, "gala", 1, 1).unwrap();
            assert!(remote.wan_ms > 0.0);
            assert_eq!(remote.transfers, 0);
            let local = c.decrement(ctx, "gala", 0, 1).unwrap();
            assert_eq!(local.wan_ms, 0.0);
            // Exhaustion at the primary is global exhaustion.
            assert_eq!(
                c.decrement(ctx, "gala", 1, 1),
                Err(CoordError::WouldOversell {
                    resource: "gala".into()
                })
            );
        });
    }

    #[test]
    fn strong_counter_is_unavailable_across_a_partition() {
        drive(|ctx| {
            let mut c = StrongCounter::new(0);
            c.create(ctx, "fair", 4).unwrap();
            ctx.set_link(0, 1, false);
            assert_eq!(
                c.decrement(ctx, "fair", 1, 1),
                Err(CoordError::PeerUnreachable { from: 1, to: 0 })
            );
            ctx.set_link(0, 1, true);
            assert!(c.decrement(ctx, "fair", 1, 1).is_ok());
        });
    }

    #[test]
    fn dispatch_enum_reaches_every_backend() {
        drive(|ctx| {
            let backends = [
                CounterBackend::Escrow(EscrowShard::default()),
                CounterBackend::Strong(StrongCounter::new(0)),
            ];
            for (i, mut b) in backends.into_iter().enumerate() {
                let res = format!("d:{i}");
                b.create(ctx, &res, 2).unwrap();
                assert!(b.decrement(ctx, &res, 0, 1).is_ok(), "{b:?}");
            }
        });
    }
}
