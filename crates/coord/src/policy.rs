//! The shared coordination-policy vocabulary: which mechanism guards an
//! operation ([`CoordBackend`]), how lock-style reservations are held
//! ([`LockMode`]), when escrow rights are re-provisioned
//! ([`ProvisioningPolicy`]), and the [`CoordConfig`] builder that turns
//! a policy choice into a running backend.
//!
//! One typed enum flows from static analysis
//! ([`crate::coordination_plan`]) through backend construction to
//! per-operation acquisition, so a plan entry maps 1:1 onto the
//! mechanism that enforces it.

use crate::counter::{CounterBackend, StrongCounter};
use crate::escrow_shard::EscrowShard;
use ipa_sim::Region;
use std::fmt;

/// How a lock-style reservation is held (Indigo's multi-level locks,
/// reduced to the two levels its evaluation exercises).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Many replicas may hold simultaneously (e.g. "may enroll players").
    Shared,
    /// A single replica holds (e.g. "may remove tournament t").
    Exclusive,
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMode::Shared => write!(f, "shared"),
            LockMode::Exclusive => write!(f, "exclusive"),
        }
    }
}

/// The coordination mechanism guarding an operation — the typed policy
/// enum shared by the analysis plan, the applications' per-op choice,
/// and [`CoordConfig::build`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoordBackend {
    /// No coordination: the operation is invariant-safe (or repaired
    /// after the fact by IPA compensations).
    None,
    /// Escrow-sharded bounded counter: per-replica rights, local
    /// decrements, asynchronous rights transfers ([`EscrowShard`]).
    Escrow,
    /// Lock-style reservation in the given mode
    /// ([`crate::ReservationTable`]).
    Reservation(LockMode),
    /// Primary forwarding: serialize at a single replica
    /// ([`crate::StrongCoordinator`] / [`StrongCounter`]).
    Strong,
}

impl fmt::Display for CoordBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordBackend::None => write!(f, "none"),
            CoordBackend::Escrow => write!(f, "escrow"),
            CoordBackend::Reservation(m) => write!(f, "{m} reservation"),
            CoordBackend::Strong => write!(f, "strong"),
        }
    }
}

/// When an [`EscrowShard`] moves rights between replicas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProvisioningPolicy {
    /// Borrow only when a local decrement runs dry: the requesting
    /// replica pays one round trip to the richest reachable donor, which
    /// serves the request and sends half its remaining rights along
    /// (amortizing the next shortfall). Minimal transfer traffic; the
    /// first request after exhaustion pays the latency.
    #[default]
    OnExhaustion,
    /// Demand-weighted rebalance: every `interval_us` of operation time,
    /// the shard compares per-region demand against visible rights and
    /// proactively moves rights from the richest replica toward the most
    /// starved one — before requests fail locally. A new transfer is
    /// only issued once the previous one is causally stable (the
    /// event-driven `stability_frontier_cached` fold), so an unstable
    /// transfer is never double-granted.
    Proactive {
        /// Minimum operation-time microseconds between rebalances.
        interval_us: u64,
    },
}

/// Builder for coordination backends: deployment shape (regions,
/// primary) plus the escrow provisioning policy, assembled once and
/// handed to the application.
///
/// ```
/// use ipa_coord::{CoordBackend, CoordConfig, ProvisioningPolicy};
/// let cfg = CoordConfig::new(3)
///     .primary(0)
///     .policy(ProvisioningPolicy::OnExhaustion);
/// let escrow = cfg.build_escrow();
/// let strong = cfg.build_strong();
/// let any = cfg.build(CoordBackend::Escrow).unwrap();
/// # let _ = (escrow, strong, any);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CoordConfig {
    regions: u16,
    primary: Region,
    policy: ProvisioningPolicy,
}

impl CoordConfig {
    /// A config for a deployment of `regions` replicas; primary defaults
    /// to region 0 (the paper's US-EAST), provisioning to on-exhaustion
    /// borrowing.
    pub fn new(regions: u16) -> CoordConfig {
        CoordConfig {
            regions,
            primary: 0,
            policy: ProvisioningPolicy::OnExhaustion,
        }
    }

    /// The primary region strong coordination serializes at.
    pub fn primary(mut self, region: Region) -> CoordConfig {
        self.primary = region;
        self
    }

    /// The escrow provisioning policy.
    pub fn policy(mut self, policy: ProvisioningPolicy) -> CoordConfig {
        self.policy = policy;
        self
    }

    /// Number of regions this config was built for.
    pub fn region_count(&self) -> u16 {
        self.regions
    }

    /// The configured primary region.
    pub fn primary_region(&self) -> Region {
        self.primary
    }

    /// The configured provisioning policy.
    pub fn provisioning(&self) -> ProvisioningPolicy {
        self.policy
    }

    /// An escrow-sharded bounded counter backend.
    pub fn build_escrow(&self) -> EscrowShard {
        EscrowShard::new(self.policy)
    }

    /// A primary-forwarding counter backend.
    pub fn build_strong(&self) -> StrongCounter {
        StrongCounter::new(self.primary)
    }

    /// The counter backend a [`CoordBackend`] policy selects; `None` for
    /// [`CoordBackend::None`] (no coordination to build) and for
    /// [`CoordBackend::Reservation`]: lock-style reservations guard no
    /// counter and are acquired through [`crate::ReservationTable`].
    pub fn build(&self, backend: CoordBackend) -> Option<CounterBackend> {
        match backend {
            CoordBackend::None | CoordBackend::Reservation(_) => None,
            CoordBackend::Escrow => Some(CounterBackend::Escrow(self.build_escrow())),
            CoordBackend::Strong => Some(CounterBackend::Strong(self.build_strong())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_display_matches_plan_vocabulary() {
        assert_eq!(CoordBackend::None.to_string(), "none");
        assert_eq!(CoordBackend::Escrow.to_string(), "escrow");
        assert_eq!(
            CoordBackend::Reservation(LockMode::Exclusive).to_string(),
            "exclusive reservation"
        );
        assert_eq!(
            CoordBackend::Reservation(LockMode::Shared).to_string(),
            "shared reservation"
        );
        assert_eq!(CoordBackend::Strong.to_string(), "strong");
    }

    #[test]
    fn config_builder_carries_shape_and_policy() {
        let cfg = CoordConfig::new(3)
            .primary(2)
            .policy(ProvisioningPolicy::Proactive { interval_us: 500 });
        assert_eq!(cfg.region_count(), 3);
        assert_eq!(cfg.primary_region(), 2);
        assert_eq!(
            cfg.provisioning(),
            ProvisioningPolicy::Proactive { interval_us: 500 }
        );
        assert_eq!(cfg.build_strong().primary(), 2);
        assert_eq!(
            cfg.build_escrow().policy(),
            ProvisioningPolicy::Proactive { interval_us: 500 }
        );
        assert!(matches!(
            cfg.build(CoordBackend::Escrow),
            Some(CounterBackend::Escrow(_))
        ));
        assert!(cfg
            .build(CoordBackend::Reservation(LockMode::Shared))
            .is_none());
        assert!(matches!(
            cfg.build(CoordBackend::Strong),
            Some(CounterBackend::Strong(_))
        ));
        assert!(cfg.build(CoordBackend::None).is_none());
    }
}
