//! # ipa-sim — deterministic discrete-event geo-replication simulator
//!
//! The EC2-testbed substitute for the paper's evaluation (§5.2.1): three
//! data centers (US-EAST, US-WEST, EU-WEST) with the paper's measured
//! round-trip times (80 ms / 80 ms / 160 ms), closed-loop clients
//! co-located with their regional replica, FIFO service queues that
//! saturate under load (producing the latency/throughput knees of
//! Figures 4 and 7), and asynchronous replication of `ipa-store` update
//! batches with per-link latency and jitter.
//!
//! Everything is driven by a seeded RNG and a virtual clock: runs are
//! reproducible bit-for-bit, and "latency" numbers are in simulated
//! milliseconds — directly comparable to the paper's figures.
//!
//! The simulator is a framework: applications implement [`AppWorkload`]
//! (typed decide/execute over any [`OpCtx`]; every one is a [`Workload`])
//! or, for op-only test workloads, [`Workload`] directly over [`SimCtx`],
//! to run transactions against regional replicas, pay WAN delays for
//! whatever coordination their consistency mode requires, and count
//! invariant violations. `ipa-coord` builds the Strong and Indigo
//! baselines on top; `ipa-apps` provides the paper's four applications.

mod clients;
pub mod driver;
pub mod fault;
pub mod latency;
mod liveness;
pub mod metrics;
mod nemesis;
pub mod scenario;
pub mod server;
pub mod shrink;
pub mod time;
pub mod trace;

pub use driver::{
    AppWorkload, Auditor, ClientInfo, LivenessStats, NemesisStats, OpCtx, OpOutcome, SimConfig,
    SimCtx, Simulation, Workload,
};
pub use fault::{CorruptionFaults, CrashPlan, FaultPlan, FlapPlan, LinkFaults};
pub use latency::{LatencyModel, Region};
pub use metrics::{LatencySummary, Metrics};
pub use scenario::{paper_topology, two_region_topology};
pub use server::ServerQueue;
pub use shrink::{
    shrink_joint, shrink_joint_with, BatchFault, ExplicitPlan, FaultEvent, JointOutcome,
    PlanParseError, RunVerdict, ShrinkBudget, Window,
};
pub use time::SimTime;
pub use trace::{AppOp, OpEvent, OpTrace, SendRec, OP_TRACE_HEADER, SETUP_CLIENT};
