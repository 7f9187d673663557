//! The [`BoundedCounter`] trait — the one surface every coordination
//! backend answers to — plus the primary-forwarding implementation and
//! the [`CounterBackend`] dispatch enum.
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
//!   a WAN round trip (or is unavailable when the primary is cut off).
//!
//! (The Indigo-style baseline, rights bookkeeping in a shared table whose
//! *latencies* are charged to operations, is [`crate::EscrowTable`], used
//! directly.) Both return [`Acquired`] on success and
//! [`CoordError`] on failure, so application code is
//! backend-agnostic.

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

/// A replicated numeric bound with per-replica decrement rights — the
/// redesigned coordination surface. One trait, two backends (escrow,
/// strong); all methods are generic over [`OpCtx`], so the
/// same application code runs under the deterministic simulator and the
/// threaded transport.
///
/// Provisioning (`create`, `acquire`, `transfer`) is asynchronous where
/// the backend is: an escrow transfer is *issued* synchronously but its
/// rights land at the recipient only when the carrying batch delivers.
pub trait BoundedCounter {
    /// Install the resource with `capacity` total decrement rights,
    /// partitioned per the backend's placement (evenly for escrow, all
    /// at the primary for strong).
    fn create<C: OpCtx>(&mut self, ctx: &mut C, res: &str, capacity: u64)
        -> Result<(), CoordError>;

    /// Provision without spending: ensure `n` rights are headed to
    /// `region` (borrowing from peers if needed), so an imminent
    /// [`BoundedCounter::decrement`] can run locally.
    fn acquire<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        region: Region,
        n: u64,
    ) -> Result<Acquired, CoordError>;

    /// Spend `n` units of the bound on behalf of `region`.
    fn decrement<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        region: Region,
        n: u64,
    ) -> Result<Acquired, CoordError>;

    /// Move `n` rights from `from` to `to` (explicit rebalance).
    fn transfer<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        from: Region,
        to: Region,
        n: u64,
    ) -> Result<Acquired, CoordError>;

    /// Decrement rights currently visible at `region`.
    fn rights<C: OpCtx>(&mut self, ctx: &mut C, res: &str, region: Region) -> i64;
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

    fn acquire<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        region: Region,
        _n: u64,
    ) -> Result<Acquired, CoordError> {
        // Rights never leave the primary; "acquiring" is just the
        // reachability check plus the round trip a decrement will pay.
        let wan_ms = self.forward_cost(ctx, region)?;
        let _ = res;
        Ok(Acquired {
            wan_ms,
            transfers: 0,
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

    fn transfer<C: OpCtx>(
        &mut self,
        _ctx: &mut C,
        _res: &str,
        _from: Region,
        _to: Region,
        _n: u64,
    ) -> Result<Acquired, CoordError> {
        // Rights are pinned to the primary by construction; a transfer
        // is a no-op that costs nothing and moves nothing.
        Ok(Acquired::local())
    }

    fn rights<C: OpCtx>(&mut self, ctx: &mut C, res: &str, region: Region) -> i64 {
        if region != self.primary() || !ctx.node_up(region) {
            return 0;
        }
        let key = rights_key(res);
        ctx.commit(region, |tx| {
            tx.bcounter_rights(key.as_str(), ReplicaId(region))
        })
        .map(|(r, _)| r)
        .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// Dispatch enum
// ---------------------------------------------------------------------

/// Runtime-selected [`BoundedCounter`] backend, built by
/// [`CoordConfig::build`](crate::CoordConfig::build). Lets applications
/// hold "whatever the plan chose" in one field.
// One per application, built once and held in place: the size gap
// between the variants costs nothing, a `Box` would cost every call.
#[allow(clippy::large_enum_variant)]
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

    fn acquire<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        region: Region,
        n: u64,
    ) -> Result<Acquired, CoordError> {
        dispatch!(self, b => b.acquire(ctx, res, region, n))
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

    fn transfer<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        from: Region,
        to: Region,
        n: u64,
    ) -> Result<Acquired, CoordError> {
        dispatch!(self, b => b.transfer(ctx, res, from, to, n))
    }

    fn rights<C: OpCtx>(&mut self, ctx: &mut C, res: &str, region: Region) -> i64 {
        dispatch!(self, b => b.rights(ctx, res, region))
    }
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
            assert_eq!(c.rights(ctx, "gala", 0), 2);
            assert_eq!(
                c.rights(ctx, "gala", 1),
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
            let cfg = crate::CoordConfig::new(2);
            for policy in [crate::CoordBackend::Escrow, crate::CoordBackend::Strong] {
                let res = format!("d:{policy}");
                let mut b = cfg.build(policy).unwrap();
                b.create(ctx, &res, 2).unwrap();
                assert!(b.decrement(ctx, &res, 0, 1).is_ok(), "{policy}");
            }
            let lock = crate::CoordBackend::Reservation(crate::LockMode::Exclusive);
            assert!(cfg.build(lock).is_none(), "locks are not counters");
            assert!(cfg.build(crate::CoordBackend::None).is_none());
        });
    }
}
