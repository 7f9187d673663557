//! The simulation driver: the event loop and the workload interface. What
//! goes wrong, who fires when, and whether repair is on time are asked of
//! (or told to) the private `nemesis`, `clients` and `liveness` modules.

use crate::clients::{Clients, Work};
use crate::fault::FaultPlan;
use crate::latency::{LatencyModel, Region};
use crate::liveness::Ledger;
pub use crate::liveness::LivenessStats;
use crate::metrics::Metrics;
use crate::nemesis::Nemesis;
use crate::server::{ServerQueue, ServiceCosts};
use crate::shrink::{BatchFault, ExplicitPlan, Window};
use crate::time::SimTime;
use crate::trace::{AppOp, SETUP_CLIENT};
use ipa_crdt::{ReplicaId, VClock};
use ipa_store::{
    anti_entropy_fixpoint_nodes, anti_entropy_pull_round, gc_round, nodes_converged, AeCursors,
    CommitInfo, Links, Node, Replica, StoreError, Transaction, Transport, UpdateBatch,
};
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub clients_per_region: usize,
    /// Mean client think time between operations (exponential-ish via
    /// uniform jitter).
    pub think_time_ms: f64,
    /// Client ↔ local server round trip (same availability zone).
    pub client_rtt_ms: f64,
    /// Warm-up before measurements start (simulated seconds).
    pub warmup_s: f64,
    /// Measured duration after warm-up (simulated seconds).
    pub duration_s: f64,
    pub seed: u64,
    pub costs: ServiceCosts,
    /// Stability GC period (None disables).
    pub gc_interval_s: Option<f64>,
    /// Nemesis schedule: transport faults, flapping partitions, replica
    /// crashes. [`FaultPlan::none`] reproduces the benign transport.
    pub faults: FaultPlan,
    /// Shard count for every replica's object table (key space is
    /// hash-partitioned; see `ipa_store::DEFAULT_SHARDS`). The
    /// simulation applies shards in fixed index order, so the event
    /// schedule — and every digest pin — is shard-count-invariant.
    pub shards: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            clients_per_region: 4,
            think_time_ms: 10.0,
            client_rtt_ms: 1.0,
            warmup_s: 2.0,
            duration_s: 10.0,
            seed: 42,
            costs: ServiceCosts::default(),
            gc_interval_s: Some(1.0),
            faults: FaultPlan::none(),
            shards: ipa_store::DEFAULT_SHARDS,
        }
    }
}

/// What the nemesis actually did during a run (observability; every
/// count is deterministic per `(seed, faults)`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NemesisStats {
    pub batches_dropped: u64,
    pub batches_duplicated: u64,
    pub batches_delayed: u64,
    pub crashes: u64,
    /// Volatile batches (outbox + pending) wiped by crashes.
    pub batches_lost_in_crash: u64,
    /// Batches arriving at a down replica (lost).
    pub batches_refused_down: u64,
    pub link_flaps: u64,
    /// Batches re-sent by periodic / restart anti-entropy.
    pub anti_entropy_batches: u64,
    /// Batches delivered corrupted (bit-flipped, truncated, forged, or
    /// mutated duplicates). Zero unless the plan arms corruption.
    pub batches_corrupted: u64,
}

/// Continuous invariant oracle: called for every live replica at each
/// audit point; returns the number of violated invariant instances
/// observed in that replica's materialized state.
pub type Auditor = Box<dyn Fn(Region, &Replica) -> u64>;

/// A closed-loop client bound to its home region.
#[derive(Clone, Copy, Debug)]
pub struct ClientInfo {
    pub id: usize,
    pub region: Region,
}

/// What one executed operation looked like (drives timing & metrics).
#[derive(Clone, Debug)]
pub struct OpOutcome {
    pub label: &'static str,
    /// Distinct objects touched (service-cost model input).
    pub objects: usize,
    /// Total updates executed.
    pub updates: usize,
    /// Extra WAN delay the operation had to pay before completing
    /// (e.g. forwarding to the primary, fetching a reservation).
    pub extra_wan_ms: f64,
    /// False when the operation could not execute (e.g. partitioned
    /// coordination) — counted as a failure and retried after a backoff.
    pub ok: bool,
    /// Invariant violations the workload observed while executing.
    pub violations: u64,
}

impl OpOutcome {
    pub fn ok(label: &'static str, objects: usize, updates: usize) -> OpOutcome {
        OpOutcome {
            label,
            objects,
            updates,
            extra_wan_ms: 0.0,
            ok: true,
            violations: 0,
        }
    }

    pub fn with_wan(mut self, ms: f64) -> OpOutcome {
        self.extra_wan_ms += ms;
        self
    }

    pub fn unavailable(label: &'static str) -> OpOutcome {
        OpOutcome {
            label,
            objects: 0,
            updates: 0,
            extra_wan_ms: 0.0,
            ok: false,
            violations: 0,
        }
    }
}

/// The application under simulation.
///
/// The workload layer is decide/execute-split: `decide` draws the next
/// operation from the workload RNG as serialized text, `execute` runs a
/// decided (or replayed) operation deterministically. Workloads that
/// implement the pair are *replayable*: the driver can record every
/// executed op as an [`OpTrace`](crate::OpTrace) event and later replay
/// the trace without drawing the workload RNG at all (see
/// [`crate::trace`]). `op` is the closed-loop composition; simple test
/// workloads may implement only `op` and remain non-replayable.
pub trait Workload {
    /// Execute one client operation: run transactions through
    /// [`SimCtx::commit`], pay coordination delays via
    /// [`OpOutcome::with_wan`], and report what happened. Replayable
    /// workloads implement this as `decide` + `execute`, preserving the
    /// exact RNG draw order of the fused version.
    fn op(&mut self, ctx: &mut SimCtx<'_>, client: ClientInfo) -> OpOutcome;

    /// One-time setup before clients start (seed data).
    fn setup(&mut self, _ctx: &mut SimCtx<'_>) {}

    /// Draw the next operation for this client from the workload RNG
    /// *without executing it*, as a serialized [`AppOp`] line. `None`
    /// means the workload is not replayable ([`Simulation::record_op_trace`]
    /// refuses to run it).
    fn decide(&mut self, _ctx: &mut SimCtx<'_>, _client: ClientInfo) -> Option<AppOp> {
        None
    }

    /// Execute a decided or replayed operation. Must be a pure function
    /// of `(op, replica state, workload state)` — no RNG — so that a
    /// recorded trace replays bit-identically and shrunk traces stay
    /// deterministic.
    fn execute(&mut self, _ctx: &mut SimCtx<'_>, _client: ClientInfo, op: &AppOp) -> OpOutcome {
        panic!(
            "this workload is not replayable (no execute impl) — cannot run op {:?}",
            op.as_str()
        )
    }
}

/// The typed, transport-agnostic workload contract: an application
/// states its setup, decide and execute **once**, generic over any
/// [`OpCtx`], and runs unchanged on the simulator, on a quiesce-stepped
/// [`ipa_store::Transport`], or under real client threads. Every
/// `AppWorkload` is a [`Workload`] (blanket impl below), so it drives
/// [`Simulation::run`] directly and records/replays through its op's
/// `Display`/`FromStr` text form.
///
/// The purity rule that makes traces replayable: **`decide` is the only
/// place the workload RNG ([`OpCtx::rng`]) may be drawn**; `execute`
/// must be a pure function of `(op, replica state, workload state)` —
/// no RNG — so a recorded trace replays bit-identically and shrunk
/// traces stay deterministic. State that a replay must regenerate
/// (fresh ids, generation rolls) belongs to `execute`; state only the
/// closed-loop draw needs (recent-entity pools) belongs to `decide`.
pub trait AppWorkload {
    /// One decided operation, fully resolved (entity names, not RNG
    /// state). Its `Display` form is one [`AppOp`] trace line that
    /// `FromStr` parses back.
    type Op: fmt::Display + FromStr<Err: fmt::Display>;

    /// One-time setup before clients start (seed data).
    fn setup<C: OpCtx>(&mut self, _ctx: &mut C) {}

    /// Draw the next operation for this client from the workload RNG
    /// without executing it.
    fn decide<C: OpCtx>(&mut self, ctx: &mut C, client: ClientInfo) -> Self::Op;

    /// Execute a decided or replayed operation (see the purity rule
    /// above): run transactions through [`OpCtx::commit`], pay
    /// coordination delays, and report what happened.
    fn execute<C: OpCtx>(&mut self, ctx: &mut C, client: ClientInfo, op: &Self::Op) -> OpOutcome;

    /// The closed-loop composition: decide, then execute. No text round
    /// trip — ops are serialized only when recording or replaying.
    fn op<C: OpCtx>(&mut self, ctx: &mut C, client: ClientInfo) -> OpOutcome {
        let op = self.decide(ctx, client);
        self.execute(ctx, client, &op)
    }
}

impl<W: AppWorkload> Workload for W {
    fn op(&mut self, ctx: &mut SimCtx<'_>, client: ClientInfo) -> OpOutcome {
        AppWorkload::op(self, ctx, client)
    }

    fn setup(&mut self, ctx: &mut SimCtx<'_>) {
        AppWorkload::setup(self, ctx);
    }

    fn decide(&mut self, ctx: &mut SimCtx<'_>, client: ClientInfo) -> Option<AppOp> {
        Some(AppOp::new(
            AppWorkload::decide(self, ctx, client).to_string(),
        ))
    }

    fn execute(&mut self, ctx: &mut SimCtx<'_>, client: ClientInfo, op: &AppOp) -> OpOutcome {
        let op: W::Op = op
            .as_str()
            .parse()
            .unwrap_or_else(|e| panic!("op trace: {e}"));
        AppWorkload::execute(self, ctx, client, &op)
    }
}

/// The workload's view of the simulation during one operation.
pub struct SimCtx<'a> {
    sim: &'a mut Simulation,
    /// Replication staged by commits in this op.
    staged: Vec<Staged>,
    /// The executing client ([`SETUP_CLIENT`] during `Workload::setup`);
    /// with `sim.now`, it names this op to `sim.clients`.
    client: u64,
}

/// One staged delivery: `(dest, arrival, batch)`. The payload is
/// `Arc`-shared across destinations.
type Staged = (Region, SimTime, Arc<UpdateBatch>);

/// The one way out of a node: drain `origin`'s outbox and stage one
/// delivery per batch and peer, `delay(peer, ordinal)` after `now`, where
/// `ordinal` is the send's index in `staged`.
fn fan_out(
    nodes: &mut [Node],
    origin: Region,
    now: SimTime,
    staged: &mut Vec<Staged>,
    mut delay: impl FnMut(Region, u32) -> SimTime,
) {
    let peers = nodes.len() as Region;
    for batch in nodes[origin as usize].replica_mut().take_outbox() {
        for dest in (0..peers).filter(|&dest| dest != origin) {
            let at = now + delay(dest, staged.len() as u32);
            staged.push((dest, at, Arc::clone(&batch)));
        }
    }
}

impl<'a> SimCtx<'a> {
    fn new(sim: &'a mut Simulation, client: u64) -> SimCtx<'a> {
        let staged = Vec::new();
        SimCtx {
            sim,
            staged,
            client,
        }
    }

    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    pub fn regions(&self) -> usize {
        self.sim.nodes.len()
    }

    pub fn rng(&mut self) -> &mut StdRng {
        self.sim.clients.rng()
    }

    /// Sampled round trip between regions (jitter-free base during
    /// explicit-op replay, which never draws the workload RNG).
    pub fn rtt(&mut self, a: Region, b: Region) -> f64 {
        self.sim.clients.rtt(a, b, &self.sim.latency)
    }

    pub fn link_up(&self, a: Region, b: Region) -> bool {
        self.sim.links.is_up(a, b)
    }

    /// Cut or heal a link from inside an operation (the workload-driven
    /// cut coordination tests use; the nemesis cuts through its plan).
    pub fn set_link(&mut self, a: Region, b: Region, up: bool) {
        self.sim.links.set(a, b, up);
    }

    /// Run a transaction on a region's replica and stage its batch for
    /// asynchronous replication with per-link latency. Returns the
    /// closure's value alongside the commit info. A crashed region's
    /// replica refuses, with [`StoreError::Unavailable`], as on every
    /// other transport.
    pub fn commit<T>(
        &mut self,
        region: Region,
        f: impl FnOnce(&mut Transaction<'_>) -> Result<T, StoreError>,
    ) -> Result<(T, CommitInfo), StoreError> {
        if self.sim.nodes[region as usize].is_down() {
            return Err(StoreError::Unavailable(ReplicaId(region)));
        }
        let (value, info) = {
            let replica = self.sim.nodes[region as usize].replica_mut();
            let mut tx = replica.begin();
            let value = f(&mut tx)?;
            (value, tx.commit())
        };
        // Stage replication of everything committed at this replica.
        let (sim, client) = (&mut *self.sim, self.client);
        let (clients, latency, links, now) = (&mut sim.clients, &sim.latency, &sim.links, sim.now);
        fan_out(
            &mut sim.nodes,
            region,
            now,
            &mut self.staged,
            |dest, nth| clients.send_delay(client, now, nth, (region, dest), latency, links),
        );
        Ok((value, info))
    }
}

/// The operation surface an application needs from its host transport —
/// exactly what the four IPA workloads and the coordination layer
/// (escrow, reservations, strong ops) consume per operation. [`SimCtx`]
/// implements it for the deterministic simulation; the threaded harness
/// in `ipa-apps` implements it over a live [`ipa_store::ThreadedCluster`].
/// Code written against `OpCtx` runs unmodified on either transport.
pub trait OpCtx {
    /// Number of regions (= replicas) in the deployment.
    fn regions(&self) -> usize;

    /// The workload RNG. Only `decide` paths may draw from it —
    /// `execute` must stay RNG-free so recorded traces replay exactly.
    fn rng(&mut self) -> &mut StdRng;

    /// Sampled round trip between two regions in milliseconds (zero on
    /// transports that don't model WAN latency).
    fn rtt(&mut self, a: Region, b: Region) -> f64;

    /// Is the link between the two regions currently usable? Partitioned
    /// coordination must fail fast rather than block.
    fn link_up(&self, a: Region, b: Region) -> bool;

    /// Is the region's replica accepting transactions? Crashed replicas
    /// must be skipped by remote coordination (escrow donor selection,
    /// strong forwarding) — committing "at" a crashed replica would leak
    /// state into its downtime.
    fn node_up(&self, region: Region) -> bool;

    /// Run a transaction on a region's replica and hand its batch to the
    /// transport for asynchronous replication. Refused with
    /// [`StoreError::Unavailable`], and nothing committed, while
    /// [`OpCtx::node_up`] is false for the region.
    fn commit<T>(
        &mut self,
        region: Region,
        f: impl FnOnce(&mut Transaction<'_>) -> Result<T, StoreError>,
    ) -> Result<(T, CommitInfo), StoreError>;
}

impl OpCtx for SimCtx<'_> {
    fn regions(&self) -> usize {
        SimCtx::regions(self)
    }

    fn rng(&mut self) -> &mut StdRng {
        SimCtx::rng(self)
    }

    fn rtt(&mut self, a: Region, b: Region) -> f64 {
        SimCtx::rtt(self, a, b)
    }

    fn link_up(&self, a: Region, b: Region) -> bool {
        SimCtx::link_up(self, a, b)
    }

    fn node_up(&self, region: Region) -> bool {
        !self.sim.nodes[region as usize].is_down()
    }

    fn commit<T>(
        &mut self,
        region: Region,
        f: impl FnOnce(&mut Transaction<'_>) -> Result<T, StoreError>,
    ) -> Result<(T, CommitInfo), StoreError> {
        SimCtx::commit(self, region, f)
    }
}

#[derive(Clone, Debug)]
enum Event {
    ClientReady(usize),
    BatchArrive {
        dest: Region,
        batch: Arc<UpdateBatch>,
    },
    Gc,
    /// Nemesis: one tick of the flap chain — cut a random link.
    Flap,
    /// Nemesis: cut this specific link for the given outage.
    Cut(Region, Region, f64),
    /// Nemesis: heal the given link.
    FlapHeal(Region, Region),
    /// Nemesis: crash a replica (volatile state lost).
    Crash(Region),
    /// Nemesis: restart a crashed replica and run recovery anti-entropy.
    Restart(Region),
    /// Periodic pairwise anti-entropy (drop/crash repair).
    AntiEntropy,
    /// Continuous invariant-oracle audit point.
    Audit,
}

/// Same-microsecond tie-break class. Probabilistic runs schedule
/// everything at `RANK_DEFAULT`, so their order is `(time, seq)` —
/// byte-identical to the pre-rank event loop (the digest-stability pins
/// prove it). Explicit-plan replays schedule their upfront nemesis
/// windows (cuts, crashes, restarts) at `RANK_WINDOW`; the nemesis says
/// which and why ([`crate::nemesis::Windows::rank`]).
pub(crate) const RANK_WINDOW: u8 = 0;
pub(crate) const RANK_DEFAULT: u8 = 1;

/// How long a send staged on a cut link is held back: far past any run
/// window, so the batch never lands on its own. Such a send is not
/// promised to its destination (see [`Simulation::flush_staged`]);
/// anti-entropy delivers it once the link heals.
pub(crate) const PARTITION_STALL: SimTime = SimTime(3_600_000_000);

#[derive(Clone, Debug)]
struct Scheduled {
    at: SimTime,
    /// Tie-break class at equal `at` (before `seq`).
    rank: u8,
    seq: u64,
    ev: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.rank == other.rank && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.rank, self.seq).cmp(&(other.at, other.rank, other.seq))
    }
}

/// The earliest pending restart of `region` in the event queue (None
/// when the region stays down for the rest of the run).
fn next_restart(queue: &BinaryHeap<Reverse<Scheduled>>, region: Region) -> Option<SimTime> {
    let restarts = queue.iter().filter_map(|Reverse(s)| match s.ev {
        Event::Restart(r) if r == region => Some(s.at),
        _ => None,
    });
    restarts.min()
}

/// The discrete-event simulation: regional replicas + servers + clients.
pub struct Simulation {
    cfg: SimConfig,
    latency: LatencyModel,
    /// Which links are cut: by the nemesis's windows and flaps, or by an
    /// operation through [`SimCtx::set_link`].
    links: Links,
    nodes: Vec<Node>,
    servers: Vec<ServerQueue>,
    /// Who fires when, what they run and how long their sends take:
    /// closed-loop clients on the workload RNG until an op trace is
    /// installed; also the optional op-trace recorder.
    pub(crate) clients: Clients,
    queue: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    now: SimTime,
    /// Every fault decision and the optional fault-trace recorder:
    /// `cfg.faults` drawn from an independent RNG stream until
    /// [`Simulation::set_explicit_faults`] installs a plan.
    adversary: Nemesis,
    /// Per-peer anti-entropy cursors carried across periodic rounds and
    /// the quiesce fixpoint: pairs whose last pull drained and whose
    /// inputs (peer clock, source log version) are unchanged skip the
    /// pull. Never changes which batches are sent, so schedule digests
    /// are unaffected.
    ae_cursors: AeCursors,
    /// FNV-1a fold of every processed event — two runs with equal seeds
    /// produce equal digests (the determinism oracle).
    digest: u64,
    auditor: Option<(Auditor, f64)>,
    /// Anti-entropy round counter (periodic + restart recovery), keying
    /// recorded send latencies.
    ae_round: u64,
    /// The bounded-liveness ledger: told of every loss, crash, restart,
    /// heal and anti-entropy round.
    pub(crate) liveness: Ledger,
    pub nemesis: NemesisStats,
    pub metrics: Metrics,
}

impl Simulation {
    pub fn new(latency: LatencyModel, cfg: SimConfig) -> Simulation {
        let regions = latency.regions() as u16;
        let nodes: Vec<Node> = (0..regions)
            .map(|r| Node::with_shards(ReplicaId(r), cfg.shards))
            .collect();
        let servers = (0..regions).map(|_| ServerQueue::new()).collect();
        let clients = Clients::closed(regions, &cfg);
        let adversary = Nemesis::drawn(&cfg.faults);
        let mut metrics = Metrics::new();
        metrics.set_window(cfg.warmup_s, cfg.warmup_s + cfg.duration_s);
        Simulation {
            cfg,
            latency,
            links: Links::new(regions as usize),
            nodes,
            servers,
            clients,
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            adversary,
            ae_cursors: AeCursors::new(),
            digest: 0xcbf2_9ce4_8422_2325,
            auditor: None,
            ae_round: 0,
            liveness: Ledger::default(),
            nemesis: NemesisStats::default(),
            metrics,
        }
    }

    /// Record every materialized fault as an explicit event, retrievable
    /// after the run via [`Simulation::take_fault_trace`]. Recording
    /// draws no RNG and cannot perturb the schedule.
    pub fn record_fault_trace(&mut self) {
        self.adversary.record();
    }

    /// The recorded fault trace as a replayable [`ExplicitPlan`]. Cut
    /// windows and crashes still open at the end of the run are closed
    /// with an effectively-infinite duration (matching their observed
    /// behavior: never healed / restarted inside the window).
    pub fn take_fault_trace(&mut self) -> ExplicitPlan {
        self.adversary.take_trace()
    }

    /// Replay an explicit fault plan instead of the probabilistic
    /// `cfg.faults`: every drop/delay/duplicate is a per-batch table
    /// lookup, partitions and crashes are fixed windows, anti-entropy
    /// sends use recorded (or jitter-free base) latencies — the nemesis
    /// RNG is never drawn, so the run is a pure function of
    /// `(cfg.seed, plan)`. Call before [`Simulation::run`].
    pub fn set_explicit_faults(&mut self, plan: &ExplicitPlan) {
        debug_assert!(
            self.cfg.faults.is_none(),
            "explicit replay ignores cfg.faults; configure FaultPlan::none()"
        );
        self.adversary.install(plan);
    }

    /// Install a continuous invariant oracle, audited for every live
    /// replica each `interval_s` of simulated time and once more at
    /// [`Simulation::quiesce`]. Violations accumulate in
    /// [`Metrics::audit_violations`].
    pub fn set_auditor(&mut self, interval_s: f64, auditor: Auditor) {
        self.auditor = Some((auditor, interval_s));
    }

    /// Audit every live replica now; records and returns the violation
    /// count (0 when no auditor is installed).
    pub fn audit_now(&mut self) -> u64 {
        let Some((auditor, _)) = &self.auditor else {
            return 0;
        };
        let mut violations = 0;
        for (r, node) in self.nodes.iter().enumerate() {
            if !node.is_down() {
                violations += auditor(r as Region, node.replica());
            }
        }
        self.metrics.record_audit(violations, self.now.as_ms());
        violations
    }

    /// Is the replica currently crashed by the nemesis?
    pub fn is_down(&self, region: Region) -> bool {
        self.nodes[region as usize].is_down()
    }

    /// Deterministic digest of the processed event schedule. Equal seeds
    /// (workload and nemesis) yield equal digests; any divergence means
    /// the run is not reproducible.
    pub fn schedule_digest(&self) -> u64 {
        self.digest
    }

    fn fold_digest(&mut self, words: [u64; 4]) {
        for w in words {
            self.digest ^= w;
            self.digest = self.digest.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn replica(&self, region: Region) -> &Replica {
        self.nodes[region as usize].replica()
    }

    /// Direct mutable access for post-run maintenance (e.g. running the
    /// applications' read-side compensations to a fixpoint).
    pub fn replica_mut(&mut self, region: Region) -> &mut Replica {
        self.nodes[region as usize].replica_mut()
    }

    pub fn regions(&self) -> usize {
        self.nodes.len()
    }

    /// Drain every outbox and deliver all batches instantly (post-run
    /// helper; ignores link latency like [`Simulation::quiesce`]).
    pub fn sync_all(&mut self) {
        let mut staged = Vec::new();
        for origin in 0..self.nodes.len() as Region {
            fan_out(&mut self.nodes, origin, self.now, &mut staged, |_, _| {
                SimTime::ZERO
            });
        }
        for (dest, _, batch) in staged {
            self.nodes[dest as usize].replica_mut().receive(batch);
        }
    }

    fn schedule(&mut self, at: SimTime, ev: Event) {
        self.schedule_ranked(at, RANK_DEFAULT, ev);
    }

    /// Schedule the next tick of a periodic chain, one period from now
    /// (nothing when the chain is off).
    fn tick(&mut self, period_s: Option<f64>, ev: Event) {
        if let Some(period_s) = period_s {
            self.schedule(self.now + SimTime::from_secs(period_s), ev);
        }
    }

    fn schedule_ranked(&mut self, at: SimTime, rank: u8, ev: Event) {
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            rank,
            seq: self.seq,
            ev,
        }));
    }

    /// Schedule staged deliveries, applying per-link nemesis faults:
    /// drops vanish (repaired later by anti-entropy), duplicates arrive
    /// twice, delayed batches arrive out of order into the causal buffer,
    /// and — when the plan arms corruption — batches arrive bit-flipped,
    /// truncated, seq-forged, or shadowed by a mutated duplicate.
    /// The nemesis says which; this is the one place they are applied.
    fn flush_staged(&mut self, staged: Vec<Staged>) {
        // A send that survives the fault table is *promised* to its
        // destination until it lands: the destination's in-flight window
        // keeps anti-entropy from re-shipping it meanwhile. Dropped
        // batches and partition-stalled sends (the 3600 s heal delay)
        // are deliberately NOT promised — those are exactly the sends
        // anti-entropy must repair. A corrupted main delivery joins that
        // set: the bytes arrive but the receiver quarantines them, so
        // for promise and liveness accounting the send *is* a drop.
        let stall = self.now + PARTITION_STALL;
        for (dest, at, batch) in staged {
            let origin = batch.origin.0;
            let seq = batch.seq;
            // Honest per-origin clock skew: the origin's drift shifts
            // both its batch timestamp and the virtual send time, and
            // the origin reseals — a skewed batch is never quarantined.
            // Observation-free (no clone, no RNG) when no skew is armed.
            let skew = self.adversary.skew_of(origin);
            let (batch, at) = if skew != 0.0 {
                let mut b = UpdateBatch::clone(&batch);
                let shift_us = (skew * 1000.0) as i64;
                b.lamport = if shift_us >= 0 {
                    b.lamport.saturating_add(shift_us as u64)
                } else {
                    b.lamport.saturating_sub(shift_us.unsigned_abs())
                };
                b.reseal();
                let at_us = at.as_micros() as i64 + shift_us;
                let floor = self.now.as_micros() as i64;
                (Arc::new(b), SimTime(at_us.max(floor) as u64))
            } else {
                (batch, at)
            };
            let faults = self.adversary.verdict(origin, dest, &batch);
            if faults.drop {
                self.nemesis.batches_dropped += 1;
                self.liveness.gap(dest, origin, seq);
                continue;
            }
            let mut at = at;
            if let Some(extra) = faults.delay_ms {
                at += SimTime::from_ms(extra);
                self.nemesis.batches_delayed += 1;
            }
            if let Some(dup_delay) = faults.dup_delay_ms {
                self.nemesis.batches_duplicated += 1;
                self.schedule(
                    at + SimTime::from_ms(dup_delay),
                    Event::BatchArrive {
                        dest,
                        batch: Arc::clone(&batch),
                    },
                );
            }
            if let Some(dup_delay) = faults.mutdup_delay_ms {
                // The clean delivery below keeps its promise; only the
                // mutated shadow copy is extra.
                self.deliver_corrupted(
                    dest,
                    at + SimTime::from_ms(dup_delay),
                    Arc::new(BatchFault::Flip.mangle(&batch)),
                );
            }
            if let Some(corrupt) = faults.corrupt {
                // The true payload is lost on this link (drop-equivalent
                // for promise + liveness accounting); anti-entropy
                // repairs.
                self.deliver_corrupted(dest, at, Arc::new(corrupt.mangle(&batch)));
                self.liveness.gap(dest, origin, seq);
                continue;
            }
            if at < stall {
                self.nodes[dest as usize].note_inflight_single(batch.origin, seq, at.as_micros());
            }
            self.schedule(at, Event::BatchArrive { dest, batch });
        }
    }

    /// Schedule a corrupted delivery: counted, folded into the digest as
    /// its own event class (8), never promised to the destination's
    /// in-flight window. Only reachable when a plan arms corruption, so
    /// benign digests are untouched.
    fn deliver_corrupted(&mut self, dest: Region, at: SimTime, batch: Arc<UpdateBatch>) {
        self.nemesis.batches_corrupted += 1;
        self.fold_digest([8, at.as_micros(), u64::from(dest), batch.seq]);
        self.schedule(at, Event::BatchArrive { dest, batch });
    }

    /// Cut link `a ↔ b` now and schedule its heal, unless it is already
    /// down. A flap tick and an explicit cut window both land here: same
    /// digest fold, heal allocated at the same point of the seq stream.
    fn cut(&mut self, a: Region, b: Region, outage_s: f64) {
        if !self.links.is_up(a, b) {
            return;
        }
        self.links.set(a, b, false);
        self.nemesis.link_flaps += 1;
        self.fold_digest([2, self.now.as_micros(), u64::from(a), u64::from(b)]);
        self.adversary.opened(Window::Cut(a, b), self.now.as_secs());
        self.schedule(
            self.now + SimTime::from_secs(outage_s),
            Event::FlapHeal(a, b),
        );
    }

    /// Node-level crash: wipes volatile replica state AND voids the
    /// in-flight window (promised batches will be refused while down —
    /// anti-entropy must re-earn them after the restart). Returns the
    /// volatile batches lost.
    fn crash_region(&mut self, region: Region) -> u64 {
        let lost = self.nodes[region as usize].crash() as u64;
        self.nemesis.crashes += 1;
        self.nemesis.batches_lost_in_crash += lost;
        self.liveness.crashed(region);
        lost
    }

    /// Bring a replica back; the ledger registers what it owes.
    fn restart_region(&mut self, region: Region) {
        self.nodes[region as usize].restart();
        self.liveness.restarted(region, &self.nodes);
    }

    /// One pairwise anti-entropy round at simulated time `self.now`
    /// (the pull plan is [`anti_entropy_pull_round`]): what a replica is
    /// missing arrives after the one-way link latency the nemesis names.
    /// Returns the number of batches put on the wire. Batches already on
    /// the wire toward a replica are *promised* and not re-sent: see
    /// [`InFlightWindow`](ipa_store::InFlightWindow).
    fn anti_entropy_round(&mut self) -> usize {
        self.ae_round += 1;
        let (round, now) = (self.ae_round, self.now);
        let (latency, links, adversary) = (&self.latency, &self.links, &mut self.adversary);
        let mut arrivals = Vec::new();
        let sent = anti_entropy_pull_round(
            &mut self.nodes,
            &mut self.ae_cursors,
            |src, dst| links.is_up(src.0, dst.0),
            |dst| dst.ae_since(now.as_micros()),
            |dst, src, missing| {
                let ow = adversary.ae_one_way(round, src.0, dst.id().0, latency);
                let at = now + SimTime::from_ms(ow);
                // Promise this burst to the destination until it lands:
                // later pulls are relative to the promised frontier.
                // (Joining full batch clocks is sound for a *burst* —
                // every causal predecessor of a logged batch is either
                // already applied at dst, in this same burst, or promised
                // earlier.)
                let mut promised = VClock::new();
                for batch in &missing {
                    promised.merge(&batch.clock);
                }
                dst.note_inflight_burst(promised, at.as_micros());
                let sent = missing.len();
                arrivals.extend(missing.into_iter().map(|batch| (dst.id().0, at, batch)));
                sent
            },
        );
        self.nemesis.anti_entropy_batches += sent as u64;
        for (dest, at, batch) in arrivals {
            self.schedule(at, Event::BatchArrive { dest, batch });
        }
        self.liveness.probe(&self.nodes, &self.links);
        sent
    }

    /// Run the workload to completion of the configured window.
    pub fn run(&mut self, workload: &mut dyn Workload) {
        // Setup phase (outside measurements, at t=0).
        let mut ctx = SimCtx::new(self, SETUP_CLIENT);
        workload.setup(&mut ctx);
        let staged = ctx.staged;
        self.flush_staged(staged);

        for (c, at) in self.clients.first_fires() {
            self.schedule(at, Event::ClientReady(c));
        }
        self.tick(self.cfg.gc_interval_s, Event::Gc);
        // Nemesis schedule: crashes/restarts and cuts are fixed points in
        // virtual time; flapping and anti-entropy are periodic chains.
        let windows = self.adversary.windows();
        for crash in windows.crashes {
            self.schedule_ranked(
                SimTime::from_secs(crash.at_s),
                windows.rank,
                Event::Crash(crash.region),
            );
            self.schedule_ranked(
                SimTime::from_secs(crash.at_s + crash.down_s),
                windows.rank,
                Event::Restart(crash.region),
            );
        }
        for (a, b, at_s, outage_s) in windows.cuts {
            self.schedule_ranked(
                SimTime::from_secs(at_s),
                windows.rank,
                Event::Cut(a, b, outage_s),
            );
        }
        self.tick(windows.flap_at_s, Event::Flap);
        self.tick(self.adversary.ae_interval(), Event::AntiEntropy);
        self.tick(self.auditor.as_ref().map(|a| a.1), Event::Audit);

        let warmup_end = SimTime::from_secs(self.cfg.warmup_s);
        let end = SimTime::from_secs(self.cfg.warmup_s + self.cfg.duration_s);

        while let Some(Reverse(next)) = self.queue.pop() {
            if next.at > end {
                // Keep the event for `quiesce` (dropping an in-flight
                // replication batch here would strand its causal
                // successors forever).
                self.queue.push(Reverse(next));
                break;
            }
            self.now = next.at;
            match next.ev {
                Event::BatchArrive { dest, batch } => {
                    self.fold_digest([1, next.at.as_micros(), u64::from(dest), batch.seq]);
                    if self.nodes[dest as usize].receive(batch).is_none() {
                        // A down replica refused it; anti-entropy re-sends
                        // after the restart. (No gap is noted here: the
                        // restart registers one obligation per origin
                        // covering everything missed while down.)
                        self.nemesis.batches_refused_down += 1;
                    }
                }
                Event::Gc => {
                    gc_round(&mut self.nodes);
                    self.tick(self.cfg.gc_interval_s, Event::Gc);
                }
                Event::Flap => {
                    let (link, flap) = self.adversary.flap(self.nodes.len() as u16);
                    if let Some((a, b)) = link {
                        self.cut(a, b, flap.outage_s);
                    }
                    self.tick(Some(flap.period_s), Event::Flap);
                }
                Event::Cut(a, b, outage_s) => self.cut(a, b, outage_s),
                Event::FlapHeal(a, b) => {
                    self.links.set(a, b, true);
                    self.fold_digest([3, next.at.as_micros(), u64::from(a), u64::from(b)]);
                    self.adversary.closed(Window::Cut(a, b), self.now.as_secs());
                    self.liveness.healed();
                }
                Event::Crash(region) => {
                    let lost = self.crash_region(region);
                    self.fold_digest([4, next.at.as_micros(), u64::from(region), lost]);
                    self.adversary
                        .opened(Window::Crash(region), self.now.as_secs());
                }
                Event::Restart(region) => {
                    self.restart_region(region);
                    self.fold_digest([5, next.at.as_micros(), u64::from(region), 0]);
                    self.adversary
                        .closed(Window::Crash(region), self.now.as_secs());
                    // Recovery: one immediate anti-entropy round pulls the
                    // gap from peers and pushes the survivor log back out.
                    self.anti_entropy_round();
                }
                Event::AntiEntropy => {
                    self.anti_entropy_round();
                    self.tick(self.adversary.ae_interval(), Event::AntiEntropy);
                }
                Event::Audit => {
                    let violations = self.audit_now();
                    self.fold_digest([6, next.at.as_micros(), violations, 0]);
                    self.tick(self.auditor.as_ref().map(|a| a.1), Event::Audit);
                }
                Event::ClientReady(c) => {
                    let client = self.clients.info(c);
                    if self.nodes[client.region as usize].is_down() {
                        // Home replica is down: the op fails fast and the
                        // client comes back when its source says.
                        if self.now >= warmup_end {
                            self.metrics.record_failure();
                        }
                        let queue = &self.queue;
                        let restart = || next_restart(queue, client.region);
                        let again = self.clients.after_down(c, self.now, restart);
                        if let Some(at) = again {
                            self.schedule(at, Event::ClientReady(c));
                        }
                        continue;
                    }
                    let work = self.clients.work(c, self.now);
                    let mut ctx = SimCtx::new(self, c as u64);
                    // The one place an answer becomes an outcome.
                    let outcome = match work {
                        // Replay: execute the recorded op; no RNG.
                        Work::Run(op) => workload.execute(&mut ctx, client, &op),
                        // Record: decide (the only RNG draws), then
                        // execute — same stream as the fused op().
                        Work::Decide => {
                            let op = workload.decide(&mut ctx, client).expect(
                                "record_op_trace requires a replayable workload \
                                 (Workload::decide returning Some)",
                            );
                            let outcome = workload.execute(&mut ctx, client, &op);
                            ctx.sim.clients.ran(c, next.at, op);
                            outcome
                        }
                        Work::Draw => workload.op(&mut ctx, client),
                    };
                    let staged = ctx.staged;
                    self.flush_staged(staged);
                    self.fold_digest([7, next.at.as_micros(), c as u64, u64::from(outcome.ok)]);
                    let region = client.region as usize;
                    let completion = if outcome.ok {
                        let to_server = self.cfg.client_rtt_ms / 2.0;
                        let service = self
                            .cfg
                            .costs
                            .service_ms(outcome.objects.max(1), outcome.updates.max(1));
                        let served = self.servers[region]
                            .serve(self.now + SimTime::from_ms(to_server), service);
                        served
                            + SimTime::from_ms(outcome.extra_wan_ms)
                            + SimTime::from_ms(self.cfg.client_rtt_ms / 2.0)
                    } else {
                        // Failed (unavailable): back off one think time.
                        self.now + SimTime::from_ms(self.cfg.think_time_ms)
                    };
                    if self.now >= warmup_end {
                        if outcome.ok {
                            self.metrics
                                .record(outcome.label, completion.ms_since(self.now));
                        } else {
                            self.metrics.record_failure();
                        }
                        self.metrics.record_violations(outcome.violations);
                    }
                    if let Some(at) = self.clients.after_op(c, self.now, completion) {
                        self.schedule(at, Event::ClientReady(c));
                    }
                }
            }
        }
        self.now = end;
    }

    /// Let in-flight replication drain after the run: restarts any
    /// still-crashed replica, delivers every pending batch immediately
    /// (ignoring link latency), repairs nemesis losses through instant
    /// anti-entropy, and runs one final oracle audit.
    pub fn quiesce(&mut self) {
        for node in &mut self.nodes {
            node.restart();
        }
        let mut remaining: Vec<Scheduled> = self.queue.drain().map(|Reverse(s)| s).collect();
        remaining.sort();
        for s in remaining {
            if let Event::BatchArrive { dest, batch } = s.ev {
                self.nodes[dest as usize].replica_mut().receive(batch);
            }
        }
        let rounds = anti_entropy_fixpoint_nodes(&mut self.nodes, &mut self.ae_cursors);
        self.liveness.quiesced(rounds);
        self.audit_now();
    }

    /// Post-quiescence idempotence check: delivery under faults must not
    /// have double-applied any batch at any replica. Returns the regions
    /// violating the oracle (empty = consistent).
    pub fn double_apply_violations(&self) -> Vec<Region> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.replica().applied_consistent())
            .map(|(i, _)| i as Region)
            .collect()
    }
}

/// The deterministic discrete-event simulation as a [`Transport`]
/// implementation — the reference member of the transport matrix. It
/// additionally guarantees what the contract does not require:
/// bit-identical schedules per seed ([`Simulation::schedule_digest`]).
///
/// Sends made through this impl (`ship`) use jitter-free base link
/// latency so they stay off the workload and nemesis RNG streams; driving
/// the sim through [`Simulation::run`] is unaffected. Faults come only
/// from the plan and the nemesis.
impl Transport for Simulation {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn with_node<R>(&mut self, node: ReplicaId, f: impl FnOnce(&mut Replica) -> R) -> R {
        f(self.nodes[node.0 as usize].replica_mut())
    }

    fn ship(&mut self, node: ReplicaId) {
        let (origin, latency, links) = (node.0, &self.latency, &self.links);
        let mut staged = Vec::new();
        fan_out(&mut self.nodes, origin, self.now, &mut staged, |dest, _| {
            if links.is_up(origin, dest) {
                SimTime::from_ms(latency.base_rtt(origin, dest) / 2.0)
            } else {
                PARTITION_STALL
            }
        });
        self.flush_staged(staged);
    }

    fn quiesce_transport(&mut self) -> u64 {
        self.quiesce();
        self.liveness.stats.quiesce_rounds
    }

    fn converged(&mut self) -> bool {
        let in_flight = self
            .queue
            .iter()
            .any(|Reverse(s)| matches!(s.ev, Event::BatchArrive { .. }));
        !in_flight && nodes_converged(&self.nodes)
    }

    fn link_up(&self, a: ReplicaId, b: ReplicaId) -> bool {
        self.links.is_up(a.0, b.0)
    }

    fn node_up(&self, node: ReplicaId) -> bool {
        !self.is_down(node.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CrashPlan;
    use crate::scenario::paper_topology;
    use ipa_crdt::{ObjectKind, Val};

    /// A workload that inserts unique elements into one add-wins set.
    struct Inserter {
        n: u64,
    }

    impl Workload for Inserter {
        fn op(&mut self, ctx: &mut SimCtx<'_>, client: ClientInfo) -> OpOutcome {
            self.n += 1;
            let v = Val::str(format!("e{}", self.n));
            ctx.commit(client.region, |tx| {
                tx.ensure("set", ObjectKind::AWSet)?;
                tx.aw_add("set", v)
            })
            .expect("commit");
            OpOutcome::ok("insert", 1, 1)
        }
    }

    fn small_cfg(seed: u64) -> SimConfig {
        SimConfig {
            clients_per_region: 2,
            warmup_s: 0.5,
            duration_s: 2.0,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn simulation_runs_and_replicates() {
        let mut sim = Simulation::new(paper_topology(), small_cfg(1));
        let mut w = Inserter { n: 0 };
        sim.run(&mut w);
        sim.quiesce();
        assert!(
            sim.metrics.completed > 50,
            "completed: {}",
            sim.metrics.completed
        );
        // All replicas converged on the same set.
        let sizes: Vec<usize> = (0..3u16)
            .map(|r| {
                sim.replica(r)
                    .object("set")
                    .unwrap()
                    .as_awset()
                    .unwrap()
                    .len()
            })
            .collect();
        assert_eq!(sizes[0], sizes[1]);
        assert_eq!(sizes[1], sizes[2]);
        assert_eq!(sizes[0] as u64, w.n);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut sim = Simulation::new(paper_topology(), small_cfg(seed));
            let mut w = Inserter { n: 0 };
            sim.run(&mut w);
            (
                sim.metrics.completed,
                sim.metrics.overall().unwrap().mean_ms,
            )
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same run");
        assert_ne!(a, c, "different seed, different run");
    }

    #[test]
    fn latency_reflects_local_service_only_for_weak_ops() {
        let mut sim = Simulation::new(paper_topology(), small_cfg(3));
        let mut w = Inserter { n: 0 };
        sim.run(&mut w);
        let s = sim.metrics.overall().unwrap();
        // Local ops: a few ms (client RTT + service), no WAN round trips.
        assert!(s.mean_ms < 20.0, "mean {}", s.mean_ms);
    }

    #[test]
    fn saturation_raises_latency() {
        let lat = |clients: usize| {
            let cfg = SimConfig {
                clients_per_region: clients,
                think_time_ms: 1.0,
                warmup_s: 0.5,
                duration_s: 2.0,
                seed: 5,
                ..Default::default()
            };
            let mut sim = Simulation::new(paper_topology(), cfg);
            let mut w = Inserter { n: 0 };
            sim.run(&mut w);
            (
                sim.metrics.throughput(),
                sim.metrics.overall().unwrap().mean_ms,
            )
        };
        let (tp_low, ms_low) = lat(1);
        let (tp_high, ms_high) = lat(64);
        assert!(tp_high > tp_low, "throughput grows with clients");
        assert!(
            ms_high > ms_low * 3.0,
            "queueing delay appears under saturation: {ms_low} vs {ms_high}"
        );
    }

    #[test]
    fn adversarial_faults_quarantine_but_never_diverge() {
        let cfg = SimConfig {
            faults: FaultPlan::adversarial(9, 1.0),
            ..small_cfg(9)
        };
        let mut sim = Simulation::new(paper_topology(), cfg);
        let mut w = Inserter { n: 0 };
        sim.run(&mut w);
        sim.quiesce();
        assert!(
            sim.nemesis.batches_corrupted > 0,
            "adversarial plan injected corruption"
        );
        let quarantined: u64 = (0..3u16)
            .map(|r| sim.replica(r).stats.batches_quarantined)
            .sum();
        assert!(quarantined > 0, "receivers quarantined corrupt input");
        for r in 0..3u16 {
            assert_eq!(
                sim.replica(r).unrepaired_quarantine(),
                0,
                "quiesce repaired every quarantined slot at replica {r}"
            );
        }
        // Convergence despite corruption: every insert survives because
        // a corrupted delivery is drop-equivalent and anti-entropy
        // re-ships the clean copy from the origin's durable log.
        let sizes: Vec<usize> = (0..3u16)
            .map(|r| {
                sim.replica(r)
                    .object("set")
                    .unwrap()
                    .as_awset()
                    .unwrap()
                    .len()
            })
            .collect();
        assert_eq!(sizes[0], sizes[1]);
        assert_eq!(sizes[1], sizes[2]);
        assert_eq!(sizes[0] as u64, w.n);
    }

    #[test]
    fn honest_skew_is_never_quarantined_and_still_converges() {
        let faults = FaultPlan {
            skew_ms: vec![(0, 25.0), (2, -10.0)],
            ..FaultPlan::none()
        };
        assert!(faults.is_none(), "skew alone is not hostile");
        let cfg = SimConfig {
            faults,
            ..small_cfg(4)
        };
        let mut sim = Simulation::new(paper_topology(), cfg);
        let mut w = Inserter { n: 0 };
        sim.run(&mut w);
        sim.quiesce();
        assert_eq!(sim.nemesis.batches_corrupted, 0);
        for r in 0..3u16 {
            assert_eq!(
                sim.replica(r).stats.batches_quarantined,
                0,
                "skewed batches reseal and pass the integrity gate"
            );
        }
        let sizes: Vec<usize> = (0..3u16)
            .map(|r| {
                sim.replica(r)
                    .object("set")
                    .unwrap()
                    .as_awset()
                    .unwrap()
                    .len()
            })
            .collect();
        assert_eq!(sizes[0] as u64, w.n);
        assert_eq!(sizes[1] as u64, w.n);
        assert_eq!(sizes[2] as u64, w.n);
    }

    #[test]
    fn recorded_adversarial_trace_replays_with_identical_corruption() {
        // Link faults, corruption, skew, flaps and periodic anti-entropy
        // from the adversarial plan, plus a crash: every decision site
        // and every recorder hook fires.
        let mut faults = FaultPlan::adversarial(11, 1.0);
        faults.crashes.push(CrashPlan {
            region: 2,
            at_s: 0.9,
            down_s: 0.6,
        });
        let cfg = SimConfig {
            faults,
            ..small_cfg(11)
        };
        let mut sim = Simulation::new(paper_topology(), cfg);
        sim.record_fault_trace();
        let mut w = Inserter { n: 0 };
        sim.run(&mut w);
        sim.quiesce();
        let corrupted = sim.nemesis.batches_corrupted;
        assert!(corrupted > 0, "adversarial plan fired");
        assert!(sim.nemesis.link_flaps > 0 && sim.nemesis.crashes == 1);
        let plan = sim.take_fault_trace();
        for class in ["cut", "crash"] {
            assert!(plan.events.iter().any(|e| e.class() == class), "{class}");
        }
        assert!(!plan.skew_ms.is_empty(), "recorded plan carries the skew");

        // The v3 plan text round-trips the new event classes.
        let parsed: ExplicitPlan = plan.to_string().parse().expect("v3 plan parses");
        assert_eq!(parsed.events.len(), plan.events.len());
        assert_eq!(parsed.skew_ms.len(), plan.skew_ms.len());

        // Replaying the sealed plan reproduces the same corruption
        // without ever drawing the nemesis RNG.
        let mut replay = Simulation::new(paper_topology(), small_cfg(11));
        replay.set_explicit_faults(&parsed);
        let mut w = Inserter { n: 0 };
        replay.run(&mut w);
        replay.quiesce();
        assert_eq!(replay.nemesis.batches_corrupted, corrupted);
        assert_eq!(replay.nemesis.batches_dropped, sim.nemesis.batches_dropped);
        // The seal: same schedule, same nemesis counters, same clocks.
        assert_eq!(replay.schedule_digest(), sim.schedule_digest());
        assert_eq!(replay.nemesis, sim.nemesis);
        for r in 0..3u16 {
            assert_eq!(replay.replica(r).clock(), sim.replica(r).clock(), "r{r}");
        }
    }

    #[test]
    fn unavailable_ops_are_counted_as_failures() {
        struct AlwaysFail;
        impl Workload for AlwaysFail {
            fn op(&mut self, _ctx: &mut SimCtx<'_>, _c: ClientInfo) -> OpOutcome {
                OpOutcome::unavailable("nope")
            }
        }
        let mut sim = Simulation::new(paper_topology(), small_cfg(1));
        sim.run(&mut AlwaysFail);
        assert_eq!(sim.metrics.completed, 0);
        assert!(sim.metrics.failed > 0);
    }
}
