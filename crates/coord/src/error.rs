//! Typed errors of the coordination API.
//!
//! Every [`BoundedCounter`](crate::BoundedCounter) backend reports the
//! same two failure shapes, so application code can branch on *what went
//! wrong* (reject the sale? report unavailability?) without caring
//! *which* coordination mechanism is underneath.

use ipa_sim::Region;
use std::fmt;

/// Why a coordination request could not be satisfied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoordError {
    /// Granting the request would exceed the global bound: the quantity
    /// is truly exhausted everywhere the replica can see. This is the
    /// *correct* rejection the invariant demands (a sold-out sale), not
    /// a transient failure.
    WouldOversell {
        /// The exhausted resource.
        resource: String,
    },
    /// The rights the request needs cannot be reached: the primary or
    /// every donor is partitioned away or crashed, or no reachable donor
    /// holds rights in the requester's view (a transfer still in
    /// flight). The operation is unavailable for now — the price
    /// coordination pays under faults and replication lag.
    PeerUnreachable {
        /// The requesting region.
        from: Region,
        /// The unreachable rights holder / primary (the requester itself
        /// when no donor was asked).
        to: Region,
    },
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::WouldOversell { resource } => {
                write!(f, "bound exhausted on `{resource}` (would oversell)")
            }
            CoordError::PeerUnreachable { from, to } => {
                write!(f, "rights holder unreachable (region {from} -> {to})")
            }
        }
    }
}

impl std::error::Error for CoordError {}
