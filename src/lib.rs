//! # IPA — Invariant-Preserving Applications for weakly-consistent replicated databases
//!
//! Facade crate re-exporting the full IPA stack, a from-scratch Rust
//! reproduction of Balegas et al., *IPA: Invariant-preserving Applications
//! for Weakly-consistent Replicated Databases* (2018).
//!
//! The stack consists of:
//!
//! * [`spec`] — the first-order application specification language (§3.1).
//! * [`solver`] — a CDCL SAT solver + small-scope grounder (Z3 substitute).
//! * [`analysis`] — conflict detection, operation repair and compensation
//!   generation (the paper's Algorithm 1, §3.2–§3.4).
//! * [`crdt`] — operation-based CRDTs with IPA's specialized convergence
//!   rules: add-wins / rem-wins sets, wildcard removes, `touch`,
//!   compensation sets and escrow counters (§4.2).
//! * [`store`] — a causally-consistent replicated key-value store with
//!   highly-available transactions (SwiftCloud substitute, §4.1).
//! * [`sim`] — a deterministic discrete-event geo-replication simulator
//!   (EC2 testbed substitute, §5.2.1).
//! * [`coord`] — the coordination layer: two [`BoundedCounter`]
//!   backends, escrow-sharded counters with asynchronous rights transfer
//!   and strong (primary-forwarded) counters, plus Indigo-style
//!   reservations (§5.2.1).
//! * [`apps`] — the evaluation applications: Tournament, Twitter, Ticket
//!   and a TPC-W/TPC-C subset (§5.1.2).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the end-to-end flow: specify an
//! application, run the analysis, inspect the proposed repairs, and execute
//! the patched application on a simulated geo-replicated cluster.

pub use ipa_apps as apps;
pub use ipa_coord as coord;

// The coordination surface, foregrounded: one trait over the escrow and
// strong counters, and the typed error/policy vocabulary the planner
// emits.
pub use ipa_coord::{
    BoundedCounter, CoordBackend, CoordError, CounterBackend, EscrowShard, LockMode, StrongCounter,
};
pub use ipa_core as analysis;
pub use ipa_crdt as crdt;
pub use ipa_sim as sim;
pub use ipa_solver as solver;
pub use ipa_spec as spec;
pub use ipa_store as store;
