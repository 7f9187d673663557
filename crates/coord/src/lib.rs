//! # ipa-coord — the coordination layer of the IPA evaluation
//!
//! Everything an application uses when invariant repair alone is not
//! enough (§3 Step 3, §5.2.1), behind one typed surface:
//!
//! * [`BoundedCounter`] — the numeric-invariant trait (`create` /
//!   `decrement`), implemented by two backends, each built directly:
//!   * [`EscrowShard`]: escrow-sharded bounded counters whose rights are
//!     **replicated store state** — local decrements while rights last,
//!     and when they run dry a borrow from the richest reachable donor,
//!     whose rights transfer rides an ordinary update batch
//!     (droppable/delayable/corruptible by the nemesis, repaired by
//!     anti-entropy).
//!   * [`StrongCounter`]: every right at one primary; each decrement
//!     pays the WAN round trip [`StrongCoordinator`] models.
//! * [`CoordError`] — the shared failure vocabulary (`WouldOversell` /
//!   `PeerUnreachable`).
//! * [`LockMode`] + [`ReservationTable`] — Indigo's multi-level
//!   lock-style reservations, and [`coordination_plan`] mapping static
//!   analysis output 1:1 onto typed [`CoordBackend`] selections.

pub mod counter;
pub mod error;
pub mod escrow_shard;
pub mod plan;
pub mod policy;
pub mod reservation;
pub mod strong;

pub use counter::{rights_key, Acquired, BoundedCounter, CounterBackend, StrongCounter};
pub use error::CoordError;
pub use escrow_shard::{EscrowShard, EscrowShardStats};
pub use plan::{coordination_plan, PlanEntry, ReservationPlan};
pub use policy::{CoordBackend, LockMode};
pub use reservation::ReservationTable;
pub use strong::StrongCoordinator;
