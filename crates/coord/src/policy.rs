//! The shared coordination-policy vocabulary: which mechanism guards an
//! operation ([`CoordBackend`]) and how lock-style reservations are held
//! ([`LockMode`]).
//!
//! One typed enum flows from static analysis
//! ([`crate::coordination_plan`]) to per-operation acquisition, so a
//! plan entry maps 1:1 onto the mechanism that enforces it.

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
/// enum shared by the analysis plan and the applications' per-op choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoordBackend {
    /// No coordination: the operation is invariant-safe (or repaired
    /// after the fact by IPA compensations).
    None,
    /// Escrow-sharded bounded counter: per-replica rights, local
    /// decrements, asynchronous rights transfers ([`crate::EscrowShard`]).
    Escrow,
    /// Lock-style reservation in the given mode
    /// ([`crate::ReservationTable`]).
    Reservation(LockMode),
    /// Primary forwarding: serialize at a single replica
    /// ([`crate::StrongCoordinator`] / [`crate::StrongCounter`]).
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
}
