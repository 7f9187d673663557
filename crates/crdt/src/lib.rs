//! # ipa-crdt — operation-based CRDTs with IPA's specialized convergence rules
//!
//! The data-type library backing the IPA runtime (§4.2 of the paper). All
//! types are **operation-based** CRDTs: an update is *prepared* at the
//! origin replica (capturing whatever causal context it needs — e.g. the
//! observed add-tags for an observed-remove) and the resulting effect
//! operation is applied at every replica under **causal delivery**, which
//! `ipa-store` provides.
//!
//! Highlights required by IPA:
//!
//! * [`AWSet`] / [`RWSet`] — add-wins and remove-wins sets: the per-predicate
//!   convergence rules that the analysis relies on for restoring operation
//!   preconditions (§3.2).
//! * **Wildcard operations** (§4.2.1): removes scoped by a [`ValPattern`],
//!   implementing effects like `enrolled(*, t) := false` without knowing the
//!   affected elements in advance.
//! * **`touch`** (§4.2.1): an add that restores an element's *presence*
//!   while preserving the payload associated with it
//!   ([`AWMap::prepare_touch`]).
//! * [`CompensationSet`] (§4.2.2): a set with an attached aggregation
//!   constraint whose violation is repaired *on read* by a deterministic,
//!   commutative, idempotent compensation.
//! * [`BCounter`] — an escrow-based bounded counter (Balegas et al.,
//!   SRDS'15), used by the Indigo baseline's escrow reservations.
//!
//! Tombstone growth is controlled through *causal stability* (§4.2.1): the
//! store tracks a stability frontier and calls each object's `compact`.

pub mod awmap;
pub mod awset;
pub mod bcounter;
pub mod clock;
pub mod compset;
pub mod counter;
pub mod lww;
pub mod object;
pub mod rwset;
pub mod tag;
mod tagset;
pub mod value;

pub use awmap::{AWMap, AWMapOp};
pub use awset::{AWSet, AWSetOp};
pub use bcounter::{BCounter, BCounterOp};
pub use clock::VClock;
pub use compset::{CompensationSet, CompensationSetOp};
pub use counter::{PNCounter, PNCounterOp};
pub use lww::{LWWOp, LWWRegister};
pub use object::{Object, ObjectKind, ObjectOp};
pub use rwset::{RWSet, RWSetOp};
pub use tag::{ReplicaId, Tag};
pub use value::{Val, ValPattern};
