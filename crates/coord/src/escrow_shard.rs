//! Escrow-sharded bounded counters over the replicated store: the
//! escrow method (O'Neil \[35\]; Balegas et al.'s bounded counters).
//!
//! Rights are **replicated state**: each resource is a `BCounter` CRDT
//! object in every replica's store, and a replica's share of the bound
//! is exactly what the CRDT's `local_rights` says it is. That buys three
//! properties:
//!
//! * **Local decrements.** While rights last, a decrement is one local
//!   commit — no WAN, no coordination, full availability.
//! * **Asynchronous, fault-exposed transfers.** A rights transfer is an
//!   ordinary update (`BCounterOp::Transfer`) inside an ordinary batch:
//!   the nemesis can drop, delay, duplicate, or corrupt it, and
//!   anti-entropy repairs it like any other batch. Rights are never
//!   destroyed by a lost message — the transfer is in the donor's
//!   durable log and re-delivers.
//! * **A provable conservation law.** At any replica, at any time,
//!   `sum(local_rights) == value - floor`: rights and spend always
//!   account for exactly the initial bound (the property
//!   `tests/rights_conservation.rs` fuzzes under hostile schedules).
//!
//! After `create` splits the bound evenly, rights move only when a
//! decrement runs dry: the richest reachable donor serves the request
//! and tops the borrower up with half of what it has left.

use crate::counter::{rights_key, Acquired, BoundedCounter};
use crate::error::CoordError;
use ipa_crdt::{ObjectKind, ReplicaId};
use ipa_sim::{OpCtx, Region};
use ipa_store::StoreError;

/// Shard-level accounting (per workload instance, across resources).
/// Store-level truth — transfers applied, units moved, local denials —
/// lives in `ReplicaStats`; these counters describe the *decisions* the
/// shard took.
#[derive(Clone, Copy, Debug, Default)]
pub struct EscrowShardStats {
    /// Decrements served by a purely local commit.
    pub local_decs: u64,
    /// Decrements served by a donor after local rights ran dry.
    pub borrows: u64,
    /// Rights-transfer messages issued (creation carve-outs + donor
    /// top-ups).
    pub transfers_issued: u64,
    /// Requests correctly rejected because the bound was exhausted.
    pub rejected_exhausted: u64,
    /// Requests refused because no reachable donor could serve them:
    /// none held rights in the requester's view, or each one asked
    /// turned out to hold none.
    pub rejected_unreachable: u64,
}

/// An escrow-sharded [`BoundedCounter`]: per-replica rights in
/// replicated `BCounter` objects, local decrements, and donor-assisted
/// borrowing when they run dry. See the module docs for the model.
#[derive(Clone, Debug, Default)]
pub struct EscrowShard {
    pub stats: EscrowShardStats,
}

impl EscrowShard {
    /// Locally-visible `(counter value, per-replica rights)` read at
    /// `region`'s replica.
    fn view<C: OpCtx>(
        &self,
        ctx: &mut C,
        res: &str,
        region: Region,
    ) -> Result<(i64, Vec<i64>), CoordError> {
        let key = rights_key(res);
        let n = ctx.regions() as u16;
        ctx.commit(region, |tx| {
            let value = tx.counter_value(key.as_str())?;
            let mut rights = Vec::with_capacity(n as usize);
            for r in 0..n {
                rights.push(tx.bcounter_rights(key.as_str(), ReplicaId(r))?);
            }
            Ok((value, rights))
        })
        .map(|(v, _)| v)
        .map_err(|e| match e {
            StoreError::Unavailable(_) => CoordError::PeerUnreachable {
                from: region,
                to: region,
            },
            other => panic!("escrow view of `{res}`: {other}"),
        })
    }

    /// Donor candidates for `region`, richest first (ties to the lowest
    /// region id — deterministic under replay).
    fn donors(rights: &[i64], region: Region, ctx: &impl OpCtx) -> Vec<Region> {
        let mut ds: Vec<Region> = (0..rights.len() as u16)
            .filter(|&r| {
                r != region && rights[r as usize] > 0 && ctx.link_up(region, r) && ctx.node_up(r)
            })
            .collect();
        ds.sort_by_key(|&r| (-rights[r as usize], r));
        ds
    }
}

impl BoundedCounter for EscrowShard {
    fn create<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        capacity: u64,
    ) -> Result<(), CoordError> {
        let regions = ctx.regions() as u16;
        let key = rights_key(res);
        let kind = ObjectKind::BCounter {
            floor: 0,
            initial: capacity as i64,
        };
        // Pre-create the rights object at *every* region: creation is
        // deterministic (fixed creation owner), so the independently
        // created replicas are identical and merge idempotently — a
        // decrement at a remote region is well-defined even before the
        // carve-out batch below arrives (it sees zero local rights and
        // borrows from the creation owner).
        for r in 1..regions {
            ctx.commit(r, |tx| tx.ensure(key.as_str(), kind).map(|_| ()))
                .map_err(|e| match e {
                    StoreError::Unavailable(_) => CoordError::PeerUnreachable { from: r, to: r },
                    other => panic!("escrow create of `{res}`: {other}"),
                })?;
        }
        // The creation owner (replica 0) holds the full initial rights;
        // the same commit carves out every other region's share, so the
        // even split replicates as one batch. Low regions take the
        // remainder.
        let per = capacity / u64::from(regions.max(1));
        let rem = capacity % u64::from(regions.max(1));
        ctx.commit(0, |tx| {
            tx.ensure(key.as_str(), kind)?;
            for r in 1..regions {
                let share = per + u64::from(u64::from(r) < rem);
                if share > 0 {
                    tx.bcounter_transfer(key.as_str(), ReplicaId(r), share)?;
                }
            }
            Ok(())
        })
        .map(|_| ())
        .map_err(|e| match e {
            StoreError::Unavailable(_) => CoordError::PeerUnreachable { from: 0, to: 0 },
            other => panic!("escrow create of `{res}`: {other}"),
        })?;
        if regions > 1 {
            self.stats.transfers_issued += u64::from(regions) - 1;
        }
        Ok(())
    }

    fn decrement<C: OpCtx>(
        &mut self,
        ctx: &mut C,
        res: &str,
        region: Region,
        n: u64,
    ) -> Result<Acquired, CoordError> {
        let key = rights_key(res);
        // Fast path: resident rights, one local commit, zero WAN.
        match ctx.commit(region, |tx| tx.bcounter_dec(key.as_str(), n)) {
            Ok(_) => {
                self.stats.local_decs += 1;
                return Ok(Acquired::local());
            }
            Err(StoreError::InsufficientRights { .. }) => {}
            Err(StoreError::Unavailable(_)) => {
                return Err(CoordError::PeerUnreachable {
                    from: region,
                    to: region,
                })
            }
            Err(other) => panic!("escrow decrement of `{res}`: {other}"),
        }
        // Local rights exhausted. Judge from the locally-visible value
        // whether the bound itself is gone (correct rejection) or rights
        // merely live elsewhere (borrow).
        let (value, mut rights) = self.view(ctx, res, region)?;
        if value < n as i64 {
            self.stats.rejected_exhausted += 1;
            return Err(CoordError::WouldOversell {
                resource: res.to_owned(),
            });
        }
        // Borrow: the richest reachable donor decrements on our behalf
        // and tops us up with half of what it has left (one message
        // serves this request *and* amortizes the next shortfall). A
        // donor whose real rights turn out stale-short is skipped.
        let mut wan_ms = 0.0;
        let mut best: Option<Region> = None;
        loop {
            let donors = Self::donors(&rights, region, ctx);
            let Some(&donor) = donors.first() else {
                break;
            };
            best.get_or_insert(donor);
            wan_ms += ctx.rtt(region, donor);
            let done = ctx.commit(donor, |tx| {
                tx.bcounter_dec(key.as_str(), n)?;
                let left = tx.bcounter_rights(key.as_str(), ReplicaId(donor))?;
                let topup = (left / 2).max(0) as u64;
                if topup > 0 {
                    tx.bcounter_transfer(key.as_str(), ReplicaId(region), topup)?;
                }
                Ok(topup)
            });
            match done {
                Ok((topup, _)) => {
                    self.stats.borrows += 1;
                    let transfers = u32::from(topup > 0);
                    self.stats.transfers_issued += u64::from(transfers);
                    return Ok(Acquired { wan_ms, transfers });
                }
                Err(StoreError::InsufficientRights { .. }) | Err(StoreError::Unavailable(_)) => {
                    // Stale view of this donor (or it crashed mid-round
                    // trip): strike it and try the next.
                    rights[donor as usize] = 0;
                }
                Err(other) => panic!("escrow borrow of `{res}`: {other}"),
            }
        }
        self.stats.rejected_unreachable += 1;
        Err(CoordError::PeerUnreachable {
            from: region,
            to: best.unwrap_or(region),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::rights_at;
    use ipa_sim::{
        two_region_topology, ClientInfo, OpOutcome, SimConfig, SimCtx, Simulation, Workload,
    };

    /// Runs `f(ctx, step)` once per entry of `at` (simulated seconds),
    /// riding client operations so staged batches deliver between steps.
    struct Stepper<F: FnMut(&mut SimCtx<'_>, usize)> {
        f: F,
        at: Vec<f64>,
        next: usize,
    }

    impl<F: FnMut(&mut SimCtx<'_>, usize)> Workload for Stepper<F> {
        fn op(&mut self, ctx: &mut SimCtx<'_>, _client: ClientInfo) -> OpOutcome {
            if self.next < self.at.len() && ctx.now().as_secs() >= self.at[self.next] {
                (self.f)(ctx, self.next);
                self.next += 1;
            }
            OpOutcome::ok("step", 1, 1)
        }
    }

    fn drive_at(at: &[f64], f: impl FnMut(&mut SimCtx<'_>, usize)) {
        let cfg = SimConfig {
            warmup_s: 0.0,
            duration_s: at.last().copied().unwrap_or(0.1) + 0.3,
            ..Default::default()
        };
        let mut sim = Simulation::new(two_region_topology(), cfg);
        let mut s = Stepper {
            f,
            at: at.to_vec(),
            next: 0,
        };
        sim.run(&mut s);
        assert_eq!(s.next, s.at.len(), "all steps ran");
    }

    #[test]
    fn create_splits_rights_evenly_and_replicates() {
        let mut shard = EscrowShard::default();
        drive_at(&[0.0, 0.4], |ctx, step| match step {
            0 => {
                shard.create(ctx, "gala", 10).unwrap();
                // The creation commit carves region 1's share out
                // immediately in replica 0's view...
                assert_eq!(rights_at(ctx, "gala", 0, 0), 5);
            }
            _ => {
                // ...and it lands at replica 1 once the batch delivers.
                assert_eq!(rights_at(ctx, "gala", 1, 1), 5);
            }
        });
        assert_eq!(shard.stats.transfers_issued, 1);
    }

    #[test]
    fn local_then_borrowed_then_exhausted() {
        let mut shard = EscrowShard::default();
        drive_at(&[0.0, 0.4, 0.8, 1.2], |ctx, step| match step {
            0 => {
                shard.create(ctx, "show", 4).unwrap();
                // Resident rights: two purely local decrements.
                assert_eq!(
                    shard.decrement(ctx, "show", 0, 1).unwrap(),
                    Acquired::local()
                );
                assert_eq!(
                    shard.decrement(ctx, "show", 0, 1).unwrap(),
                    Acquired::local()
                );
            }
            1 | 2 => {
                // Local rights dry; the bound is not: borrow from the
                // donor, paying a WAN round trip.
                let got = shard.decrement(ctx, "show", 0, 1).unwrap();
                assert!(got.wan_ms > 0.0, "borrow pays WAN: {got:?}");
            }
            _ => {
                // All four sold everywhere: correct rejection.
                assert_eq!(
                    shard.decrement(ctx, "show", 0, 1),
                    Err(CoordError::WouldOversell {
                        resource: "show".into()
                    })
                );
            }
        });
        assert_eq!(shard.stats.local_decs, 2);
        assert_eq!(shard.stats.borrows, 2);
        assert_eq!(shard.stats.rejected_exhausted, 1);
    }

    #[test]
    fn partitioned_donor_fails_fast_and_heals() {
        let mut shard = EscrowShard::default();
        drive_at(&[0.0, 0.4, 0.8], |ctx, step| match step {
            0 => {
                shard.create(ctx, "cup", 4).unwrap();
                shard.decrement(ctx, "cup", 0, 1).unwrap();
                shard.decrement(ctx, "cup", 0, 1).unwrap();
            }
            1 => {
                // Rights only live across the (cut) link: unavailable,
                // not oversold.
                ctx.set_link(0, 1, false);
                assert_eq!(
                    shard.decrement(ctx, "cup", 0, 1),
                    Err(CoordError::PeerUnreachable { from: 0, to: 0 })
                );
                ctx.set_link(0, 1, true);
            }
            _ => {
                // Healed: the borrow goes through.
                assert!(shard.decrement(ctx, "cup", 0, 1).is_ok());
            }
        });
        assert_eq!(shard.stats.rejected_unreachable, 1);
        assert_eq!(shard.stats.borrows, 1);
    }
}
