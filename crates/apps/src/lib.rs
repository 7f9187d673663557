//! # ipa-apps — the IPA paper's evaluation applications
//!
//! Four applications, each with (a) a first-order **specification** that
//! the `ipa-core` analysis consumes, and (b) a **runtime** over the
//! replicated store that the simulator drives in four consistency
//! configurations (§5.2.1):
//!
//! | Mode | Meaning |
//! |------|---------|
//! | [`Mode::Causal`]  | unmodified application on causal consistency — fast but violates invariants |
//! | [`Mode::Ipa`]     | IPA-patched operations (the analysis' output wired in) |
//! | [`Mode::Indigo`]  | reservation-based conflict avoidance (`ipa-coord`) |
//! | [`Mode::Strong`]  | primary-forwarded updates |
//!
//! Applications:
//!
//! * [`tournament`] — the running example (Fig. 1): referential integrity,
//!   disjunctions, mutual exclusion; the Fig. 4/5 workload (35 % writes).
//! * [`twitter`] — timelines materialized on tweet; add-wins vs rem-wins
//!   repair strategies (Fig. 6).
//! * [`ticket`] — FusionTicket: overselling prevented by compensation
//!   (Fig. 7, with violation counting under Causal).
//! * [`tpc`] — TPC-W/TPC-C subset: product management (referential
//!   integrity) + stock (numeric invariant, compensation restock).

pub mod common;
pub mod layout;
pub mod oracle;
pub mod soak;
pub mod ticket;
pub mod tournament;
pub mod tpc;
pub mod twitter;

pub use common::Mode;
pub use oracle::{AuditReport, Oracle, Phase, DEFAULT_LIVENESS_BOUND};
