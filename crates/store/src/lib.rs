//! # ipa-store — a causally-consistent replicated key-value store
//!
//! The SwiftCloud substitute (§4.1 of the IPA paper): a multi-replica
//! key-value store providing the three features IPA-patched applications
//! require —
//!
//! 1. **Causal consistency**: update batches replicate asynchronously and
//!    are buffered at the receiver until every causal predecessor has been
//!    applied ([`Replica::receive`]).
//! 2. **Highly available transactions**: a [`Transaction`] reads a
//!    snapshot of its origin replica (with read-your-writes), buffers
//!    updates, and commits them atomically into one replicated batch —
//!    no cross-replica coordination on the critical path.
//! 3. **Per-object conflict resolution**: each key holds an
//!    [`ipa_crdt::Object`] whose kind (add-wins, rem-wins, …) the
//!    application chooses — the convergence rules the IPA analysis
//!    relies on.
//!
//! The store also tracks **causal stability** (Baquero-style: an update is
//! stable once every replica's *received frontier* dominates it) and
//! drives the CRDTs' tombstone garbage collection ([`Replica::run_gc`]).

pub mod batch;
mod causal;
pub mod cluster;
pub mod errors;
mod hash;
pub mod key;
mod origin_log;
mod pool;
pub mod replica;
pub mod schedule;
mod stability;
pub mod threaded;
pub mod transport;
pub mod txn;

pub use batch::UpdateBatch;
pub use cluster::Cluster;
pub use errors::StoreError;
pub use key::Key;
pub use replica::{
    ApplyDispatch, Replica, ReplicaStats, ShardStats, DEFAULT_SHARDS, PARALLEL_APPLY_MIN_UPDATES,
};
pub use schedule::{CausalItem, DeliveryFaults, Schedule, ScheduleReport};
pub use threaded::{ThreadedCluster, ThreadedConfig, ThreadedStats};
pub use transport::{
    anti_entropy_fixpoint_nodes, anti_entropy_pull_round, anti_entropy_round_nodes,
    anti_entropy_round_nodes_with_links, gc_round, nodes_converged, AeCursors, InFlightWindow,
    Links, Node, Transport,
};
pub use txn::{CommitInfo, Transaction};
