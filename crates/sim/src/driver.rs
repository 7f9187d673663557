//! The simulation driver: event loop, clients, and the workload
//! interface.

use crate::fault::FaultPlan;
use crate::latency::{LatencyModel, Region};
use crate::metrics::Metrics;
use crate::nemesis::{Nemesis, Window};
use crate::server::{ServerQueue, ServiceCosts};
use crate::shrink::{BatchFault, ExplicitPlan};
use crate::time::SimTime;
use crate::trace::{AppOp, OpEvent, OpTrace, SendRec, SETUP_CLIENT};
use ipa_crdt::ReplicaId;
use ipa_store::{
    anti_entropy_fixpoint_nodes, AeCursors, CommitInfo, Node, Replica, StoreError, Transaction,
    Transport, UpdateBatch,
};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
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

/// Captures every executed client operation (and every staged send's
/// latency draw), so a failing run's workload can be re-expressed as an
/// [`OpTrace`] and shrunk alongside its fault plan. Pure observation:
/// recording draws no RNG and never perturbs the schedule.
#[derive(Debug, Default)]
struct OpRecorder {
    events: Vec<OpEvent>,
    sends: Vec<SendRec>,
}

/// Indexed form of an [`OpTrace`]: per-client FIFO queues of `(fire
/// time, op)` plus the recorded send-delay table keyed by staging op
/// event (`(client, fire µs, ordinal)`). When installed, every client
/// fires at its recorded times and executes its recorded ops — the
/// workload RNG is never drawn.
#[derive(Debug)]
struct ExplicitOps {
    by_client: Vec<VecDeque<(u64, AppOp)>>,
    sends: HashMap<(u64, u64, u32), u64>,
}

/// A fault-induced causal gap under repair: replica `dest` is missing
/// `origin`'s batch `seq` (it was dropped, refused while down, or lost
/// in a crash). The bounded-liveness oracle requires anti-entropy to
/// close every gap within N rounds of repair opportunity.
#[derive(Clone, Copy, Debug)]
struct Gap {
    dest: Region,
    origin: Region,
    seq: u64,
    /// Anti-entropy rounds elapsed while repair was possible (the
    /// direct link up, the replica alive). Reset by heals and restarts:
    /// each network transition grants a fresh window.
    rounds: u64,
}

/// Bounded-liveness accounting: "after the last injected fault, every
/// replica converges within N anti-entropy rounds — not just at
/// quiesce". Tracked per fault-induced gap during the run, plus the
/// number of productive repair rounds the quiesce fixpoint needed.
#[derive(Clone, Copy, Debug, Default)]
pub struct LivenessStats {
    /// Gaps ever tracked (drops, refused-while-down, restart catch-up).
    pub tracked_gaps: u64,
    /// Gaps repaired by anti-entropy (clock caught up).
    pub repaired_gaps: u64,
    /// Most repair-eligible rounds any gap stayed open.
    pub max_gap_rounds: u64,
    /// Gaps that outlived the bound mid-run (counted once per gap).
    pub run_breaches: u64,
    /// Productive anti-entropy rounds the quiesce fixpoint executed.
    pub quiesce_rounds: u64,
    /// The configured bound (None = accounting only, never a violation).
    pub bound: Option<u64>,
}

impl LivenessStats {
    /// Violations of the bounded-liveness oracle: mid-run gaps that
    /// outlived the bound, plus one if quiescence itself needed more
    /// than N repair rounds. Always zero when no bound is configured.
    pub fn violations(&self) -> u64 {
        let Some(bound) = self.bound else {
            return 0;
        };
        self.run_breaches + u64::from(self.quiesce_rounds > bound)
    }
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
/// executed op as an [`OpTrace`] event and later replay the trace with
/// [`Simulation::set_explicit_ops`] without drawing the workload RNG at
/// all. `op` is the closed-loop composition; simple test workloads may
/// implement only `op` and remain non-replayable.
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
    now: SimTime,
    latency: &'a mut LatencyModel,
    nodes: &'a mut [Node],
    rng: &'a mut StdRng,
    /// Replication staged by commits in this op: (dest, arrival, batch).
    /// The payload is `Arc`-shared across destinations.
    staged: Vec<(Region, SimTime, Arc<UpdateBatch>)>,
    /// Recorded send delays, installed during explicit-op replay:
    /// staged deliveries use the recorded `(client, fire µs, ordinal)`
    /// delay (base latency fallback) instead of drawing the workload
    /// RNG. Keying by staging op — not by the batch's `(origin, dest,
    /// seq)` — keeps delays glued to their op when a shrunk trace
    /// re-packs batch sequences.
    replay_sends: Option<&'a HashMap<(u64, u64, u32), u64>>,
    /// The executing client ([`SETUP_CLIENT`] during `Workload::setup`);
    /// with `self.now`, the send-table key prefix for this op.
    replay_client: u64,
}

impl<'a> SimCtx<'a> {
    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn regions(&self) -> usize {
        self.nodes.len()
    }

    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    pub fn replica(&mut self, region: Region) -> &mut Replica {
        self.nodes[region as usize].replica_mut()
    }

    /// Sampled round trip between regions (jitter-free base during
    /// explicit-op replay, which never draws the workload RNG).
    pub fn rtt(&mut self, a: Region, b: Region) -> f64 {
        if self.replay_sends.is_some() {
            return self.latency.base_rtt(a, b);
        }
        self.latency.rtt(a, b, self.rng)
    }

    pub fn base_rtt(&self, a: Region, b: Region) -> f64 {
        self.latency.base_rtt(a, b)
    }

    pub fn link_up(&self, a: Region, b: Region) -> bool {
        self.latency.link_up(a, b)
    }

    pub fn set_link(&mut self, a: Region, b: Region, up: bool) {
        self.latency.set_link(a, b, up);
    }

    /// Run a transaction on a region's replica and stage its batch for
    /// asynchronous replication with per-link latency. Returns the
    /// closure's value alongside the commit info.
    pub fn commit<T>(
        &mut self,
        region: Region,
        f: impl FnOnce(&mut Transaction<'_>) -> Result<T, StoreError>,
    ) -> Result<(T, CommitInfo), StoreError> {
        let (value, info) = {
            let replica = self.nodes[region as usize].replica_mut();
            let mut tx = replica.begin();
            let value = f(&mut tx)?;
            (value, tx.commit())
        };
        // Stage replication of everything committed at this replica.
        let batches = self.nodes[region as usize].replica_mut().take_outbox();
        let n = self.nodes.len() as u16;
        for batch in batches {
            for dest in 0..n {
                if dest == region {
                    continue;
                }
                // One delay per send. A cut link stalls it; that check
                // stays first so candidate replays honor *their own* fault
                // plan's cut windows (the seal is unaffected — a batch
                // recorded while its link was down recorded this same
                // stall). Explicit-op replay then uses the recorded delay
                // (exact µs — the seal), or the jitter-free base latency
                // for sends a shrunk trace no longer records, and never
                // draws the workload RNG.
                let delay = if !self.latency.link_up(region, dest) {
                    PARTITION_STALL
                } else if let Some(sends) = self.replay_sends {
                    let key = (
                        self.replay_client,
                        self.now.as_micros(),
                        self.staged.len() as u32,
                    );
                    match sends.get(&key) {
                        Some(&us) => SimTime(us),
                        None => SimTime::from_ms(self.latency.base_rtt(region, dest) / 2.0),
                    }
                } else {
                    SimTime::from_ms(self.latency.one_way(region, dest, self.rng))
                };
                self.staged
                    .push((dest, self.now + delay, Arc::clone(&batch)));
            }
        }
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
    /// state into its downtime. Transports without a fault injector keep
    /// the default (always up).
    fn node_up(&self, _region: Region) -> bool {
        true
    }

    /// Simulated time of the executing operation in microseconds (zero
    /// on transports without a virtual clock). Provisioning policies key
    /// their proactive-rebalance windows off this, which keeps them
    /// deterministic under the simulator.
    fn now_us(&self) -> u64 {
        0
    }

    /// Run a transaction on a region's replica and hand its batch to the
    /// transport for asynchronous replication.
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
        !self.nodes[region as usize].is_down()
    }

    fn now_us(&self) -> u64 {
        self.now.as_micros()
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
const PARTITION_STALL: SimTime = SimTime(3_600_000_000);

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

/// The discrete-event simulation: regional replicas + servers + clients.
pub struct Simulation {
    cfg: SimConfig,
    latency: LatencyModel,
    nodes: Vec<Node>,
    servers: Vec<ServerQueue>,
    clients: Vec<ClientInfo>,
    queue: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    now: SimTime,
    rng: StdRng,
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
    /// Op-trace recorder (None unless enabled; pure observation).
    op_rec: Option<OpRecorder>,
    /// Explicit workload replay (None = RNG-driven closed-loop clients).
    explicit_ops: Option<ExplicitOps>,
    /// Anti-entropy round counter (periodic + restart recovery), keying
    /// recorded send latencies and the liveness gap accounting.
    ae_round: u64,
    /// Open fault-induced gaps the liveness oracle is timing.
    gaps: Vec<Gap>,
    liveness: LivenessStats,
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
        let mut clients = Vec::with_capacity(cfg.clients_per_region * regions as usize);
        for region in 0..regions {
            for _ in 0..cfg.clients_per_region {
                clients.push(ClientInfo {
                    id: clients.len(),
                    region,
                });
            }
        }
        let rng = StdRng::seed_from_u64(cfg.seed);
        let adversary = Nemesis::drawn(&cfg.faults);
        let mut metrics = Metrics::new();
        metrics.set_window(cfg.warmup_s, cfg.warmup_s + cfg.duration_s);
        Simulation {
            cfg,
            latency,
            nodes,
            servers,
            clients,
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            rng,
            adversary,
            ae_cursors: AeCursors::new(),
            digest: 0xcbf2_9ce4_8422_2325,
            auditor: None,
            op_rec: None,
            explicit_ops: None,
            ae_round: 0,
            gaps: Vec::new(),
            liveness: LivenessStats::default(),
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

    /// Record every executed client op (and every staged send's latency
    /// draw) as an explicit event, retrievable after the run via
    /// [`Simulation::take_op_trace`]. Recording draws no RNG and cannot
    /// perturb the schedule; it requires a replayable workload
    /// ([`Workload::decide`] returning `Some`).
    pub fn record_op_trace(&mut self) {
        self.op_rec = Some(OpRecorder::default());
    }

    /// The recorded workload as a replayable [`OpTrace`].
    pub fn take_op_trace(&mut self) -> OpTrace {
        let rec = self.op_rec.take().expect("record_op_trace was enabled");
        OpTrace {
            events: rec.events,
            sends: rec.sends,
        }
    }

    /// Replay a recorded op trace instead of the RNG-driven closed-loop
    /// clients: every client fires at its recorded virtual times and
    /// executes its recorded ops through [`Workload::execute`], staged
    /// sends use recorded (or jitter-free base) latencies, and the
    /// workload RNG is never drawn — the run is a pure function of
    /// `(trace, fault schedule)`. Call before [`Simulation::run`].
    pub fn set_explicit_ops(&mut self, trace: &OpTrace) {
        let mut by_client: Vec<VecDeque<(u64, AppOp)>> =
            (0..self.clients.len()).map(|_| VecDeque::new()).collect();
        for e in &trace.events {
            assert!(
                e.client < by_client.len(),
                "op trace client {} out of range (config has {} clients)",
                e.client,
                by_client.len()
            );
            by_client[e.client].push_back((e.at_us, e.op.clone()));
        }
        self.explicit_ops = Some(ExplicitOps {
            by_client,
            sends: trace
                .sends
                .iter()
                .map(|s| ((s.client, s.at_us, s.ordinal), s.delay_us))
                .collect(),
        });
    }

    /// Arm the bounded-liveness oracle: every fault-induced causal gap
    /// must be repaired within `rounds` anti-entropy rounds of repair
    /// opportunity, and the quiesce fixpoint must converge within
    /// `rounds` productive rounds. Violations are reported by
    /// [`Simulation::liveness_violations`].
    pub fn set_liveness_bound(&mut self, rounds: u64) {
        self.liveness.bound = Some(rounds);
    }

    pub fn liveness(&self) -> &LivenessStats {
        &self.liveness
    }

    /// Bounded-liveness violations so far (0 when no bound is armed).
    pub fn liveness_violations(&self) -> u64 {
        self.liveness.violations()
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

    pub fn config(&self) -> &SimConfig {
        &self.cfg
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
        loop {
            let mut moved = false;
            for i in 0..self.nodes.len() {
                let batches = self.nodes[i].replica_mut().take_outbox();
                for batch in batches {
                    for d in 0..self.nodes.len() {
                        if d != i {
                            self.nodes[d].replica_mut().receive(Arc::clone(&batch));
                            moved = true;
                        }
                    }
                }
            }
            if !moved {
                break;
            }
        }
    }

    /// Instant pairwise anti-entropy to a fixpoint: re-delivers every
    /// logged batch some replica is missing (drop and crash repair).
    /// Records the productive round count for the liveness oracle.
    fn anti_entropy_fixpoint(&mut self) {
        self.liveness.quiesce_rounds =
            anti_entropy_fixpoint_nodes(&mut self.nodes, &mut self.ae_cursors);
    }

    fn schedule(&mut self, at: SimTime, ev: Event) {
        self.schedule_ranked(at, RANK_DEFAULT, ev);
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
    fn flush_staged(&mut self, staged: Vec<(Region, SimTime, Arc<UpdateBatch>)>) {
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
                self.note_gap(dest, origin, seq);
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
                self.note_gap(dest, origin, seq);
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

    /// Register a fault-induced causal gap for liveness accounting.
    fn note_gap(&mut self, dest: Region, origin: Region, seq: u64) {
        self.liveness.tracked_gaps += 1;
        self.gaps.push(Gap {
            dest,
            origin,
            seq,
            rounds: 0,
        });
    }

    /// One liveness probe after an anti-entropy round: close repaired
    /// gaps, advance the round count of gaps that had a repair
    /// opportunity, and convert bound-exceeding gaps into breaches.
    fn liveness_probe(&mut self) {
        let mut i = 0;
        while i < self.gaps.len() {
            let g = self.gaps[i];
            if self.nodes[g.dest as usize]
                .replica()
                .clock()
                .get(ReplicaId(g.origin))
                >= g.seq
            {
                self.liveness.repaired_gaps += 1;
                self.liveness.max_gap_rounds = self.liveness.max_gap_rounds.max(g.rounds);
                self.gaps.swap_remove(i);
                continue;
            }
            // No repair opportunity this round: the countdown only
            // pauses when *no* up-path from any live holder of the
            // batch reaches the destination. Pausing on the direct
            // link alone let relay-reachable gaps (origin—dest cut,
            // but origin→relay→dest fully up) idle forever without
            // tripping the bound — anti-entropy is pairwise, so a
            // two-hop repair is exactly what the oracle must time.
            if !self.repair_opportunity(&g) {
                i += 1;
                continue;
            }
            let g = &mut self.gaps[i];
            g.rounds += 1;
            self.liveness.max_gap_rounds = self.liveness.max_gap_rounds.max(g.rounds);
            if let Some(bound) = self.liveness.bound {
                if g.rounds > bound {
                    self.liveness.run_breaches += 1;
                    self.gaps.swap_remove(i);
                    continue;
                }
            }
            i += 1;
        }
    }

    /// Does `g.dest` have any usable repair path this round? True when
    /// some live replica whose applied clock durably covers the missing
    /// batch (`clock[origin] >= seq`) can reach `dest` transitively
    /// through up links and live relays — pairwise anti-entropy moves
    /// the batch one hop per round along exactly such a path. False
    /// when the destination is down, no live replica holds the batch,
    /// or every path is severed (then the countdown pauses: repair is
    /// genuinely impossible, not merely slow).
    fn repair_opportunity(&self, g: &Gap) -> bool {
        let dest = g.dest as usize;
        if self.nodes[dest].is_down() {
            return false;
        }
        let n = self.nodes.len();
        // Multi-source BFS from every live holder of the batch.
        let mut reached = vec![false; n];
        let mut frontier: VecDeque<usize> = VecDeque::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if i != dest
                && !node.is_down()
                && node.replica().clock().get(ReplicaId(g.origin)) >= g.seq
            {
                reached[i] = true;
                frontier.push_back(i);
            }
        }
        while let Some(i) = frontier.pop_front() {
            for (j, node) in self.nodes.iter().enumerate() {
                if reached[j] || node.is_down() || !self.latency.link_up(i as Region, j as Region) {
                    continue;
                }
                if j == dest {
                    return true;
                }
                reached[j] = true;
                frontier.push_back(j);
            }
        }
        false
    }

    /// Every gap gets a fresh repair window when the network transitions
    /// (a heal or a restart changes which pulls are possible).
    fn reset_gap_windows(&mut self) {
        for g in &mut self.gaps {
            g.rounds = 0;
        }
    }

    /// Cut link `a ↔ b` now and schedule its heal, unless it is already
    /// down. A flap tick and an explicit cut window both land here: same
    /// digest fold, heal allocated at the same point of the seq stream.
    fn cut(&mut self, a: Region, b: Region, outage_s: f64) {
        if !self.latency.link_up(a, b) {
            return;
        }
        self.latency.set_link(a, b, false);
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
        // Gaps at a down replica cannot be repaired; restart
        // re-registers everything it must catch up on.
        self.gaps.retain(|g| g.dest != region);
        lost
    }

    /// Bring a replica back. Liveness: it owes every batch its live
    /// peers applied while it was down, and every gap gets a fresh
    /// window.
    fn restart_region(&mut self, region: Region) {
        self.nodes[region as usize].restart();
        self.note_restart_obligations(region);
        self.reset_gap_windows();
    }

    /// A restarted replica owes everything its live peers applied while
    /// it was down: one liveness gap per origin, up to the highest
    /// component any peer has durably logged.
    fn note_restart_obligations(&mut self, region: Region) {
        let own = self.nodes[region as usize].replica().clock().clone();
        let mut target = ipa_crdt::VClock::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if i != region as usize && !node.is_down() {
                target.merge(node.replica().clock());
            }
        }
        for (origin, seq) in target.iter() {
            if seq > own.get(origin) {
                self.note_gap(region, origin.0, seq);
            }
        }
    }

    /// One pairwise anti-entropy round at simulated time `self.now`:
    /// every live replica pulls what it is missing from every live,
    /// reachable peer's durable log, paying the one-way link latency the
    /// nemesis names. Returns the number of batches put on the wire.
    ///
    /// The pull's `since` frontier is the destination's applied clock
    /// joined with its [`InFlightWindow`](ipa_store::InFlightWindow) —
    /// batches already on the wire toward it (from client replication or
    /// an earlier round) are *promised* and not re-sent. Without the
    /// window, any round firing while sends were still in flight
    /// (AE interval < one-way latency) re-shipped the same batches every
    /// tick; the receiver deduplicated them, so the bug was invisible to
    /// every state oracle and only showed up as inflated
    /// `anti_entropy_batches` counts and wasted simulated bandwidth.
    fn anti_entropy_round(&mut self) -> usize {
        self.ae_round += 1;
        let round = self.ae_round;
        let now_us = self.now.as_micros();
        let mut sent = 0;
        let n = self.nodes.len();
        for dst in 0..n {
            if self.nodes[dst].is_down() {
                continue;
            }
            for src in 0..n {
                if src == dst || self.nodes[src].is_down() {
                    continue;
                }
                if !self.latency.link_up(src as Region, dst as Region) {
                    continue;
                }
                let since = self.nodes[dst].ae_since(now_us);
                let version = self.nodes[src].replica().log_version();
                let (d, s) = (self.nodes[dst].id(), self.nodes[src].id());
                if !self.ae_cursors.should_pull(d, s, &since, version) {
                    continue;
                }
                let missing = self.nodes[src].replica_mut().batches_since(&since);
                self.ae_cursors
                    .record(d, s, since, version, missing.is_empty());
                if missing.is_empty() {
                    continue;
                }
                let (src_r, dst_r) = (src as Region, dst as Region);
                let ow = self
                    .adversary
                    .ae_one_way(round, src_r, dst_r, &self.latency);
                let at = self.now + SimTime::from_ms(ow);
                // Promise this burst to the destination until it lands:
                // later rounds pull relative to the promised frontier.
                // (Joining full batch clocks is sound for a *burst* —
                // every causal predecessor of a logged batch is either
                // already applied at dst, in this same burst, or promised
                // earlier.)
                let mut promised = ipa_crdt::VClock::new();
                for batch in &missing {
                    promised.merge(&batch.clock);
                }
                self.nodes[dst].note_inflight_burst(promised, at.as_micros());
                for batch in missing {
                    self.nemesis.anti_entropy_batches += 1;
                    sent += 1;
                    self.schedule(
                        at,
                        Event::BatchArrive {
                            dest: dst as Region,
                            batch,
                        },
                    );
                }
            }
        }
        self.liveness_probe();
        sent
    }

    /// Run the workload to completion of the configured window.
    pub fn run(&mut self, workload: &mut dyn Workload) {
        // Setup phase (outside measurements, at t=0).
        let staged = {
            let mut ctx = SimCtx {
                now: self.now,
                latency: &mut self.latency,
                nodes: &mut self.nodes,
                rng: &mut self.rng,
                staged: Vec::new(),
                replay_sends: self.explicit_ops.as_ref().map(|x| &x.sends),
                replay_client: SETUP_CLIENT,
            };
            workload.setup(&mut ctx);
            std::mem::take(&mut ctx.staged)
        };
        self.record_staged_sends(&staged, SETUP_CLIENT);
        self.flush_staged(staged);

        if self.explicit_ops.is_some() {
            // Explicit-op replay: each client fires at its first
            // recorded op time (in a full trace those are exactly the
            // stagger times below; in a shrunk trace, the earliest
            // surviving op).
            let firsts: Vec<(usize, u64)> = self
                .explicit_ops
                .as_ref()
                .expect("checked")
                .by_client
                .iter()
                .enumerate()
                .filter_map(|(c, q)| q.front().map(|&(at_us, _)| (c, at_us)))
                .collect();
            for (c, at_us) in firsts {
                self.schedule(SimTime(at_us), Event::ClientReady(c));
            }
        } else {
            // Stagger client starts to avoid a synchronized burst.
            for c in 0..self.clients.len() {
                let at = SimTime::from_ms(0.1 * c as f64 + 1.0);
                self.schedule(at, Event::ClientReady(c));
            }
        }
        if let Some(gc) = self.cfg.gc_interval_s {
            self.schedule(SimTime::from_secs(gc), Event::Gc);
        }
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
        if let Some(at_s) = windows.flap_at_s {
            self.schedule(SimTime::from_secs(at_s), Event::Flap);
        }
        if let Some(ae) = self.adversary.ae_interval() {
            self.schedule(SimTime::from_secs(ae), Event::AntiEntropy);
        }
        if let Some((_, interval)) = &self.auditor {
            self.schedule(SimTime::from_secs(*interval), Event::Audit);
        }

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
                    let node = &mut self.nodes[dest as usize];
                    if node.is_down() {
                        // A down replica refuses traffic; anti-entropy
                        // re-sends after the restart. (No gap is noted
                        // here: the restart registers one obligation per
                        // origin covering everything missed while down.)
                        self.nemesis.batches_refused_down += 1;
                    } else {
                        node.replica_mut().receive(batch);
                    }
                }
                Event::Gc => {
                    let ids: Vec<ReplicaId> = self.nodes.iter().map(Node::id).collect();
                    for node in &mut self.nodes {
                        if !node.is_down() {
                            node.replica_mut().run_gc(&ids);
                        }
                    }
                    if let Some(gc) = self.cfg.gc_interval_s {
                        let at = self.now + SimTime::from_secs(gc);
                        self.schedule(at, Event::Gc);
                    }
                }
                Event::Flap => {
                    let (link, flap) = self.adversary.flap(self.nodes.len() as u16);
                    if let Some((a, b)) = link {
                        self.cut(a, b, flap.outage_s);
                    }
                    self.schedule(self.now + SimTime::from_secs(flap.period_s), Event::Flap);
                }
                Event::Cut(a, b, outage_s) => self.cut(a, b, outage_s),
                Event::FlapHeal(a, b) => {
                    self.latency.set_link(a, b, true);
                    self.fold_digest([3, next.at.as_micros(), u64::from(a), u64::from(b)]);
                    self.adversary.closed(Window::Cut(a, b), self.now.as_secs());
                    self.reset_gap_windows();
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
                    if let Some(ae) = self.adversary.ae_interval() {
                        self.schedule(self.now + SimTime::from_secs(ae), Event::AntiEntropy);
                    }
                }
                Event::Audit => {
                    let violations = self.audit_now();
                    self.fold_digest([6, next.at.as_micros(), violations, 0]);
                    if let Some((_, interval)) = &self.auditor {
                        let at = self.now + SimTime::from_secs(*interval);
                        self.schedule(at, Event::Audit);
                    }
                }
                Event::ClientReady(c) => {
                    let client = self.clients[c];
                    // Explicit-op replay: take this client's next
                    // recorded op off its queue (the chain fires at
                    // exactly the recorded virtual times).
                    let replay_op: Option<AppOp> = match &mut self.explicit_ops {
                        Some(ops) => {
                            let Some((at_us, op)) = ops.by_client[c].pop_front() else {
                                continue;
                            };
                            debug_assert_eq!(
                                at_us,
                                next.at.as_micros(),
                                "replayed op fired off its recorded schedule"
                            );
                            Some(op)
                        }
                        None => None,
                    };
                    if self.nodes[client.region as usize].is_down() {
                        // Home replica is down: the op fails fast and the
                        // client retries after a think-time backoff. In
                        // replay (this only happens under a *modified*
                        // fault plan — at record time the op executed, so
                        // the region was up) the recorded op *defers to
                        // the restart* when the crash window closes
                        // inside the run: dropping it silently deleted
                        // writes from shrink candidates, so ddmin kept
                        // "minimal" plans that only failed because the
                        // workload lost ops, not because of the fault
                        // under test. With no restart scheduled the op is
                        // skipped as before (the region never comes back).
                        if self.now >= warmup_end {
                            self.metrics.record_failure();
                        }
                        if self.explicit_ops.is_some() {
                            if let (Some(op), Some(restart_at)) =
                                (replay_op, self.next_restart_after(client.region))
                            {
                                let ops = self.explicit_ops.as_mut().expect("checked");
                                ops.by_client[c].push_front((restart_at.as_micros(), op));
                                self.schedule(restart_at, Event::ClientReady(c));
                            } else {
                                self.schedule_next_replay_op(c);
                            }
                        } else {
                            let think = self.think_time();
                            let at = self.now + SimTime::from_ms(self.cfg.think_time_ms) + think;
                            self.schedule(at, Event::ClientReady(c));
                        }
                        continue;
                    }
                    let (outcome, decided, staged) = {
                        let mut ctx = SimCtx {
                            now: self.now,
                            latency: &mut self.latency,
                            nodes: &mut self.nodes,
                            rng: &mut self.rng,
                            staged: Vec::new(),
                            replay_sends: self.explicit_ops.as_ref().map(|x| &x.sends),
                            replay_client: c as u64,
                        };
                        let (outcome, decided) = match &replay_op {
                            // Replay: execute the recorded op; no RNG.
                            Some(op) => (workload.execute(&mut ctx, client, op), None),
                            // Record: decide (the only RNG draws), then
                            // execute — same stream as the fused op().
                            None if self.op_rec.is_some() => {
                                let op = workload.decide(&mut ctx, client).expect(
                                    "record_op_trace requires a replayable workload \
                                     (Workload::decide returning Some)",
                                );
                                (workload.execute(&mut ctx, client, &op), Some(op))
                            }
                            None => (workload.op(&mut ctx, client), None),
                        };
                        let staged = std::mem::take(&mut ctx.staged);
                        (outcome, decided, staged)
                    };
                    if let Some(op) = decided {
                        self.op_rec
                            .as_mut()
                            .expect("recording is on")
                            .events
                            .push(OpEvent {
                                client: c,
                                at_us: next.at.as_micros(),
                                op,
                            });
                    }
                    self.record_staged_sends(&staged, c as u64);
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
                    if self.explicit_ops.is_some() {
                        // The next recorded op already knows its time;
                        // the workload RNG is not consulted for think
                        // times (or anything else) during replay.
                        self.schedule_next_replay_op(c);
                    } else {
                        let think = self.think_time();
                        self.schedule(completion + think, Event::ClientReady(c));
                    }
                }
            }
        }
        self.now = end;
    }

    /// Chain a replayed client to its next recorded op, if any. A
    /// deferred op can leave the client past later recorded times; the
    /// serial client then fires them as soon as it is free (never
    /// scheduling into the past). Sealed full-trace replays never
    /// defer, so there the recorded times are used verbatim.
    fn schedule_next_replay_op(&mut self, c: usize) {
        let now = self.now;
        let Some(ops) = &mut self.explicit_ops else {
            return;
        };
        if let Some(front) = ops.by_client[c].front_mut() {
            if SimTime(front.0) < now {
                front.0 = now.as_micros();
            }
            let at = SimTime(front.0);
            self.schedule(at, Event::ClientReady(c));
        }
    }

    /// The earliest pending restart of `region` in the event queue
    /// (None when the region stays down for the rest of the run).
    fn next_restart_after(&self, region: Region) -> Option<SimTime> {
        self.queue
            .iter()
            .filter_map(|Reverse(s)| match s.ev {
                Event::Restart(r) if r == region => Some(s.at),
                _ => None,
            })
            .min()
    }

    /// Record every staged delivery's send latency, keyed by the op
    /// that staged it (op-trace recording; pure observation). The
    /// ordinal is the send's index within this op's staged vector —
    /// replay stages the same sends in the same order, so the key is
    /// reconstructed exactly.
    fn record_staged_sends(&mut self, staged: &[(Region, SimTime, Arc<UpdateBatch>)], client: u64) {
        let Some(rec) = &mut self.op_rec else { return };
        let now_us = self.now.as_micros();
        for (ordinal, (_dest, at, _batch)) in staged.iter().enumerate() {
            rec.sends.push(SendRec {
                client,
                at_us: now_us,
                ordinal: ordinal as u32,
                delay_us: at.as_micros() - now_us,
            });
        }
    }

    fn think_time(&mut self) -> SimTime {
        let base = self.cfg.think_time_ms;
        if base <= 0.0 {
            return SimTime::ZERO;
        }
        // Uniform jitter in [0.5, 1.5] × base keeps clients desynchronized.
        let f = self.rng.gen_range(0.5..1.5);
        SimTime::from_ms(base * f)
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
        self.anti_entropy_fixpoint();
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
/// Sends made through this impl (ship, anti-entropy) use jitter-free
/// base link latency so they stay off the workload and nemesis RNG
/// streams; driving the sim through [`Simulation::run`] is unaffected.
///
/// Faults driven through this impl (`set_link`, `crash`, `restart`) exist
/// for the transport matrix: they are deliberately not folded into the
/// schedule digest and the fault-trace recorder never sees them. They do
/// go through the same crash and restart functions as the event loop's
/// arms, so stats and liveness obligations are accounted identically.
impl Transport for Simulation {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn with_node<R>(&mut self, node: ReplicaId, f: impl FnOnce(&mut Replica) -> R) -> R {
        f(self.nodes[node.0 as usize].replica_mut())
    }

    fn ship(&mut self, node: ReplicaId) {
        let origin = node.0;
        let batches = self.nodes[origin as usize].replica_mut().take_outbox();
        let n = self.nodes.len() as u16;
        let now = self.now;
        let mut staged = Vec::new();
        for batch in batches {
            for dest in 0..n {
                if dest == origin {
                    continue;
                }
                let delay = if self.latency.link_up(origin, dest) {
                    SimTime::from_ms(self.latency.base_rtt(origin, dest) / 2.0)
                } else {
                    PARTITION_STALL
                };
                staged.push((dest, now + delay, Arc::clone(&batch)));
            }
        }
        self.flush_staged(staged);
    }

    fn set_link(&mut self, a: ReplicaId, b: ReplicaId, up: bool) {
        self.latency.set_link(a.0, b.0, up);
    }

    fn crash(&mut self, node: ReplicaId) {
        self.crash_region(node.0);
    }

    fn restart(&mut self, node: ReplicaId) {
        self.restart_region(node.0);
    }

    fn anti_entropy(&mut self) -> usize {
        self.anti_entropy_round()
    }

    fn quiesce_transport(&mut self) -> u64 {
        self.quiesce();
        self.liveness.quiesce_rounds
    }

    fn converged(&mut self) -> bool {
        let in_flight = self
            .queue
            .iter()
            .any(|Reverse(s)| matches!(s.ev, Event::BatchArrive { .. }));
        let first = self.nodes[0].replica().clock();
        !in_flight && self.nodes.iter().all(|n| n.replica().clock() == first)
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
