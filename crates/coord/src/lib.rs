//! # ipa-coord — the coordination layer of the IPA evaluation
//!
//! Everything an application uses when invariant repair alone is not
//! enough (§3 Step 3, §5.2.1), behind one typed surface:
//!
//! * [`BoundedCounter`] — the numeric-invariant trait (acquire /
//!   decrement / transfer / rights), implemented by two backends:
//!   * [`EscrowShard`]: escrow-sharded bounded counters whose rights are
//!     **replicated store state** — local decrements while rights last,
//!     asynchronous rights transfers riding ordinary update batches
//!     (droppable/delayable/corruptible by the nemesis, repaired by
//!     anti-entropy), pluggable [`ProvisioningPolicy`].
//!   * [`StrongCounter`]: every right at one primary; each decrement
//!     pays the WAN round trip [`StrongCoordinator`] models.
//! * [`EscrowTable`] — the Indigo-style coordinator-level escrow oracle:
//!   rights bookkeeping as a shared table whose exchange latencies are
//!   charged to operations (the baseline, used directly).
//! * [`CoordConfig`] — the builder turning a deployment shape and a
//!   [`CoordBackend`] policy choice into a running backend.
//! * [`CoordError`] — the shared failure vocabulary
//!   (`InsufficientRights` / `WouldOversell` / `PeerUnreachable`).
//! * [`LockMode`] + [`ReservationTable`] — Indigo's multi-level
//!   lock-style reservations, and [`coordination_plan`] mapping static
//!   analysis output 1:1 onto typed backend selections.

pub mod counter;
pub mod error;
pub mod escrow;
pub mod escrow_shard;
pub mod plan;
pub mod policy;
pub mod reservation;
pub mod strong;

pub use counter::{rights_key, Acquired, BoundedCounter, CounterBackend, StrongCounter};
pub use error::CoordError;
pub use escrow::{EscrowOutcome, EscrowTable};
pub use escrow_shard::{EscrowShard, EscrowShardStats};
pub use plan::{coordination_plan, PlanEntry, ReservationPlan};
pub use policy::{CoordBackend, CoordConfig, LockMode, ProvisioningPolicy};
pub use reservation::ReservationTable;
pub use strong::StrongCoordinator;
