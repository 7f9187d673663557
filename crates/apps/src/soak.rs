//! The soak harness: drive any of the paper's applications under a
//! hostile schedule, then **repair and classify once**, over any
//! [`Transport`].
//!
//! Two *run phases* exist because they are genuinely different programs:
//!
//! * [`run_soak`] — the deterministic simulator: a pure function of
//!   `(app, seed, plan)`, pinned by schedule digests, recordable and
//!   shrinkable to a minimal replayable counterexample
//!   ([`shrink_soak_failure`], [`shrink_missing_anomaly`]).
//! * [`run_threaded_soak`] — real `std::thread` replicas, wall-clock
//!   races, a fault plan drawn from the seed and applied on the wall
//!   clock, and a live auditor thread. Nothing about its interleaving is
//!   reproducible, so it is judged entirely at (and after) quiescence; a
//!   red cell is a real concurrency bug the deterministic schedule space
//!   missed.
//!
//! Everything after the run is written once: the §3.4 read-repair sweep
//! (`repair`) and the fixed-order failure classifier (`classify`) use
//! only [`Transport::node_count`], [`Transport::with_node`] and
//! [`Transport::converged`], so judging a new transport costs no new
//! code. What an application contributes to a cell is the crate-private
//! `SoakApp` trait, implemented next to each workload.
//!
//! `tests/nemesis_soak.rs` selects the application via
//! `IPA_NEMESIS_APP=tournament|ticket|ticket-escrow|tpc|twitter`; CI
//! fans the product `application × seed` out one cell per job.
//! `tests/transport_matrix.rs` does the same for the threaded phase.

use crate::oracle::{Anomaly, Check, Oracle, Phase, DEFAULT_LIVENESS_BOUND};
use crate::ticket::sale::SaleWorkload;
use crate::ticket::workload::TicketWorkload;
use crate::tournament::workload::TournamentWorkload;
use crate::tpc::workload::TpcWorkload;
use crate::twitter::workload::TwitterWorkload;
use crate::Mode;
use ipa_crdt::ReplicaId;
use ipa_sim::{
    paper_topology, shrink_joint_with, AppWorkload, ClientInfo, ExplicitPlan, FaultEvent,
    FaultPlan, JointOutcome, OpCtx, OpTrace, Region, RunVerdict, ShrinkBudget, SimConfig,
    Simulation, Window,
};
use ipa_store::{CommitInfo, StoreError, ThreadedCluster, ThreadedConfig, Transaction, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// One of the paper's four applications, as a soak-matrix coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    Tournament,
    Ticket,
    /// The escrow-sharded ticket sale (`ticket::sale`): bounded counters
    /// whose rights are replicated store state; IPA mode runs the escrow
    /// backend, causal mode the uncoordinated one.
    TicketEscrow,
    Tpc,
    Twitter,
}

impl App {
    pub fn all() -> [App; 5] {
        [
            App::Tournament,
            App::Ticket,
            App::TicketEscrow,
            App::Tpc,
            App::Twitter,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            App::Tournament => "tournament",
            App::Ticket => "ticket",
            App::TicketEscrow => "ticket-escrow",
            App::Tpc => "tpc",
            App::Twitter => "twitter",
        }
    }

    /// Parse an `IPA_NEMESIS_APP` value.
    pub fn parse(s: &str) -> Option<App> {
        App::all()
            .into_iter()
            .find(|a| a.name() == s.trim().to_lowercase())
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which repair discipline the soak cell exercises
/// (`IPA_NEMESIS_MODE=ipa|causal`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SoakMode {
    /// The invariant-preserving apps: every oracle must stay green.
    #[default]
    Ipa,
    /// The *unrepaired* apps over plain causal delivery: the oracles
    /// are anomaly detectors, and a hostile run is **expected** to
    /// exhibit a named [`Anomaly`]. A run that stays clean is the
    /// failure on this axis.
    Causal,
}

impl SoakMode {
    pub fn name(self) -> &'static str {
        match self {
            SoakMode::Ipa => "ipa",
            SoakMode::Causal => "causal",
        }
    }

    /// The consistency mode this axis runs the `Mode`-driven apps in.
    pub(crate) fn app_mode(self) -> Mode {
        match self {
            SoakMode::Ipa => Mode::Ipa,
            SoakMode::Causal => Mode::Causal,
        }
    }

    /// Parse an `IPA_NEMESIS_MODE` value.
    pub fn parse(s: &str) -> Option<SoakMode> {
        match s.trim().to_lowercase().as_str() {
            "ipa" => Some(SoakMode::Ipa),
            "causal" => Some(SoakMode::Causal),
            _ => None,
        }
    }
}

impl std::fmt::Display for SoakMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What one application contributes to a soak cell, stated once next to
/// its workload. The harness is generic over this; `with_app!` is the
/// only place an [`App`] coordinate turns into a workload type.
pub(crate) trait SoakApp: AppWorkload + Sized {
    /// The workload for one soak-mode axis: the IPA-patched app, or the
    /// unrepaired original.
    fn fresh(mode: SoakMode) -> Self;

    /// The app's invariant oracle. Asked twice: before the run it arms
    /// the mid-run auditor (event-dependent oracles have no continuous
    /// checks and the escrow sale's events are static, so the pre-run
    /// oracle already knows every continuous check), and after the run —
    /// when ticket knows every event generation it opened — it is the
    /// final judge.
    fn oracle(&self) -> Oracle;

    /// The repairing reads of the §3.4 sweep (reads repair): read every
    /// compensable entity inside `tx`. The default reads nothing — the
    /// app preserves its invariants in-line.
    fn sweep(&self, _tx: &mut Transaction<'_>) -> Result<(), StoreError> {
        Ok(())
    }
}

/// Call the generic `$f::<W>(args)` with `W` the workload type of `$app`.
macro_rules! with_app {
    ($app:expr, $f:ident($($arg:expr),*)) => {
        match $app {
            App::Tournament => $f::<TournamentWorkload>($($arg),*),
            App::Ticket => $f::<TicketWorkload>($($arg),*),
            App::TicketEscrow => $f::<SaleWorkload>($($arg),*),
            App::Tpc => $f::<TpcWorkload>($($arg),*),
            App::Twitter => $f::<TwitterWorkload>($($arg),*),
        }
    };
}

/// The first oracle failure a soak run exhibited.
#[derive(Clone, Debug, PartialEq)]
pub struct Failure {
    /// Stable check identifier, e.g. `continuous:not(active(t)&finished(t))`,
    /// `final:#sold(*,e)<=Capacity`, `double-apply`, `convergence`,
    /// `bounded-liveness`. The shrinker minimizes against exactly this.
    pub check: String,
    pub count: u64,
    anomaly: Anomaly,
}

impl Failure {
    /// A failure no invariant check owns: the lost-update bucket.
    pub(crate) fn new(check: impl Into<String>, count: u64) -> Failure {
        let check = check.into();
        Failure {
            check,
            count,
            anomaly: Anomaly::LostUpdate,
        }
    }

    /// A violated invariant check, audited in `phase`.
    fn of(phase: &str, check: &Check, count: u64) -> Failure {
        Failure {
            check: format!("{phase}:{}", check.name),
            count,
            anomaly: check.anomaly,
        }
    }

    /// The named anomaly this failure exhibits (the causal axis'
    /// positive expectation).
    pub fn anomaly(&self) -> Anomaly {
        self.anomaly
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} violations; anomaly: {})",
            self.check,
            self.count,
            self.anomaly()
        )
    }
}

/// Outcome of one soaked run (quiesced, repaired, audited).
pub struct SoakRun {
    pub sim: Simulation,
    pub failure: Option<Failure>,
    pub digest: u64,
    /// The recorded fault trace, when recording was requested.
    pub trace: Option<ExplicitPlan>,
    /// The recorded op trace, when recording was requested.
    pub ops: Option<OpTrace>,
}

/// The nemesis/workload configuration of one soak run.
pub enum Nemesis<'a> {
    /// Probabilistic plan with RNG-driven clients (the CI matrix shape);
    /// `record` captures both the materialized fault trace and the
    /// executed op trace for joint shrinking.
    Plan { faults: &'a FaultPlan, record: bool },
    /// Sealed replay (shrink candidates, repro artifacts): an explicit
    /// fault plan, a recorded op trace, or both. `faults: None` keeps
    /// the benign transport; `ops: None` keeps the seeded closed-loop
    /// clients.
    Explicit {
        faults: Option<&'a ExplicitPlan>,
        ops: Option<&'a OpTrace>,
    },
}

/// The SimConfig every soak cell runs (kept in lockstep with the
/// digest-stability pins: clients 2, warmup 0.2 s, duration 1.8 s).
pub fn soak_config(seed: u64, faults: FaultPlan) -> SimConfig {
    SimConfig {
        clients_per_region: 2,
        warmup_s: 0.2,
        duration_s: 1.8,
        seed,
        faults,
        ..Default::default()
    }
}

/// Run the read-side compensations to a fixpoint (§3.4) on any
/// transport: two rounds of "every replica reads every entity, then
/// `spread`" — reads repair, the spread replicates the repairs, the
/// second round confirms the fixpoint. An app's compensable invariants
/// only promise to hold after this. `spread` is the transport's way of
/// getting the repairs everywhere: [`Simulation::sync_all`] for the
/// simulator (instant, fault-free, off every RNG and digest),
/// `ship_and_quiesce` for everything else. An app with nothing to sweep
/// commits nothing, so both steps are no-ops for it.
pub(crate) fn repair<W: SoakApp, T: Transport>(w: &W, t: &mut T, mut spread: impl FnMut(&mut T)) {
    for _round in 0..2 {
        for node in 0..t.node_count() as u16 {
            t.with_node(ReplicaId(node), |replica| {
                let mut tx = replica.begin();
                w.sweep(&mut tx).expect("repair sweep");
                tx.commit();
            });
        }
        spread(t);
    }
}

/// The [`repair`] spread step for a transport without an instant path:
/// hand every outbox to the transport and drive it to quiescence.
fn ship_and_quiesce<T: Transport>(t: &mut T) {
    for node in 0..t.node_count() as u16 {
        t.ship(ReplicaId(node));
    }
    t.quiesce_transport();
}

/// Classify the first failure of a quiesced, repaired run on any
/// transport. The order is fixed so the same defect always reports the
/// same check (the shrinker and the corpus headers key on it):
/// continuous → double-apply → final → convergence → bounded-liveness.
/// The two verdicts only the run phase can know — what the mid-run
/// auditor saw, and whether recovery stayed within the liveness bound —
/// come in as arguments; the rest is read off the replicas.
fn classify<T: Transport>(
    oracle: &Oracle,
    t: &mut T,
    continuous: Option<Failure>,
    liveness: Option<Failure>,
) -> Option<Failure> {
    if continuous.is_some() {
        return continuous;
    }
    let nodes = t.node_count() as u16;
    let double = (0..nodes)
        .filter(|&n| !t.with_node(ReplicaId(n), |r| r.applied_consistent()))
        .count() as u64;
    if double > 0 {
        return Some(Failure::new("double-apply", double));
    }
    for n in 0..nodes {
        let report = t.with_node(ReplicaId(n), |r| oracle.audit(r, Phase::Final));
        if let Some(check) = report.violated().first() {
            return Some(Failure::of("final", check, report.total()));
        }
    }
    if !t.converged() {
        return Some(Failure::new("convergence", 1));
    }
    liveness
}

/// Per-run overrides for the soak harness (tests tighten the liveness
/// bound to force reproducible red cells; CI runs the defaults).
#[derive(Clone, Copy, Debug, Default)]
pub struct SoakTuning {
    /// Override [`DEFAULT_LIVENESS_BOUND`].
    pub liveness_bound: Option<u64>,
    /// Which repair-discipline axis to run (default: IPA).
    pub mode: SoakMode,
}

/// One full soak cell: run the app under the nemesis, quiesce, repair,
/// audit everything, classify.
pub fn run_soak(app: App, seed: u64, nemesis: Nemesis<'_>) -> SoakRun {
    run_soak_tuned(app, seed, nemesis, SoakTuning::default())
}

/// [`run_soak`] with overrides.
pub fn run_soak_tuned(app: App, seed: u64, nemesis: Nemesis<'_>, tuning: SoakTuning) -> SoakRun {
    with_app!(app, sim_cell(seed, nemesis, tuning))
}

/// The simulator run phase, then the shared repair and classifier.
fn sim_cell<W: SoakApp>(seed: u64, nemesis: Nemesis<'_>, tuning: SoakTuning) -> SoakRun {
    let faults = match &nemesis {
        Nemesis::Plan { faults, .. } => (*faults).clone(),
        Nemesis::Explicit { .. } => FaultPlan::none(),
    };
    let mut sim = Simulation::new(paper_topology(), soak_config(seed, faults));
    let mut workload = W::fresh(tuning.mode);
    // Continuous checks audited every 250 ms of simulated time.
    let auditor = workload.oracle();
    sim.set_liveness_bound(tuning.liveness_bound.unwrap_or(DEFAULT_LIVENESS_BOUND));
    sim.set_auditor(0.25, auditor.into_continuous_auditor());
    match nemesis {
        Nemesis::Plan { record: true, .. } => {
            sim.record_fault_trace();
            sim.record_op_trace();
        }
        Nemesis::Explicit { faults, ops } => {
            if let Some(plan) = faults {
                sim.set_explicit_faults(plan);
            }
            if let Some(trace) = ops {
                sim.set_explicit_ops(trace);
            }
        }
        _ => {}
    }
    sim.run(&mut workload);
    sim.quiesce();
    repair(&workload, &mut sim, Simulation::sync_all);

    let oracle = workload.oracle();
    // The mid-run auditor only counts; attribute its violations to the
    // continuous check still violated now, if any, else to the transient
    // class.
    let audit_violations = sim.metrics.audit_violations;
    let continuous = (audit_violations > 0).then(|| {
        let still = (0..sim.regions() as u16).find_map(|r| {
            let report = oracle.audit(sim.replica(r), Phase::Continuous);
            report.violated().first().copied()
        });
        match still {
            Some(check) => Failure::of("continuous", check, audit_violations),
            None => Failure::new("continuous:transient", audit_violations),
        }
    });
    let lagging = sim.liveness_violations();
    let liveness = (lagging > 0).then(|| Failure::new("bounded-liveness", lagging));
    let failure = classify(&oracle, &mut sim, continuous, liveness);

    let digest = sim.schedule_digest();
    let recording = matches!(nemesis, Nemesis::Plan { record: true, .. });
    let trace = recording.then(|| sim.take_fault_trace());
    let ops = recording.then(|| sim.take_op_trace());
    SoakRun {
        sim,
        failure,
        digest,
        trace,
        ops,
    }
}

/// Per-app op weakening lattice for the joint shrinker: strictly weaker
/// replacements for an op line, strongest candidate first. "Weaker"
/// means fewer or smaller writes — every write descends toward its
/// read-only counterpart (which commits nothing, but keeps the client's
/// slot in the schedule), and multi-entity writes drop entities first
/// (`match p q t` → `enroll p t`). The shrinker keeps a replacement only
/// while the original oracle check still fails, so a surviving `match`
/// in a minimized trace *means* the match semantics were necessary.
pub fn weaken_op(app: App, op: &str) -> Vec<String> {
    let t: Vec<&str> = op.split_whitespace().collect();
    match (app, t.as_slice()) {
        (App::Tournament, ["match", p, q, t]) => {
            vec![format!("enroll {p} {t}"), format!("enroll {q} {t}")]
        }
        (App::Tournament, ["enroll" | "disenroll", _, t]) => vec![format!("status {t}")],
        (App::Tournament, ["begin" | "finish" | "remove", t]) => vec![format!("status {t}")],
        (App::Ticket | App::TicketEscrow, ["buy", slot]) => vec![format!("view {slot}")],
        (App::Tpc, ["purchase" | "restock" | "remproduct" | "addproduct", p]) => {
            vec![format!("view {p}")]
        }
        (App::Twitter, ["retweet", u, id]) => {
            vec![format!("tweet {u} {id}"), format!("timeline {u}")]
        }
        (App::Twitter, ["tweet" | "follow" | "unfollow", u, _]) => vec![format!("timeline {u}")],
        (App::Twitter, ["adduser" | "remuser" | "deltweet", _]) => Vec::new(),
        _ => Vec::new(),
    }
}

/// Shrink a red `(app, workload seed, fault plan)` cell to a minimal
/// explicit counterexample: record the failing run's fault trace *and*
/// op trace, seal the pair, and jointly delta-debug both against the
/// same classifier — the minimized artifact names the few client ops
/// that matter alongside the few faults (op events additionally descend
/// the [`weaken_op`] lattice, so surviving ops are as weak as the
/// violation allows). `None` when the probabilistic
/// run doesn't fail, or when its sealed trace pair no longer reproduces
/// any failure (never observed — the seal is exact — but the shrinker
/// refuses to "minimize" a green run rather than lie).
pub fn shrink_soak_failure(
    app: App,
    seed: u64,
    faults: &FaultPlan,
    budget: ShrinkBudget,
) -> Option<JointOutcome> {
    shrink_soak_failure_tuned(app, seed, faults, budget, SoakTuning::default())
}

/// [`shrink_soak_failure`] with overrides (the candidate runs are judged
/// under the same tuning as the recording run).
pub fn shrink_soak_failure_tuned(
    app: App,
    seed: u64,
    faults: &FaultPlan,
    budget: ShrinkBudget,
    tuning: SoakTuning,
) -> Option<JointOutcome> {
    shrink_recorded(app, seed, faults, budget, tuning, |run| {
        run.failure.as_ref().map(|f| f.check.clone())
    })
}

/// The one shrink procedure: record the `(faults, ops)` pair of a run
/// that `verdict` keeps, seal it, and jointly delta-debug both against
/// the same verdict, re-running every candidate under the same tuning.
/// `None` when the recorded run is not one `verdict` keeps.
fn shrink_recorded(
    app: App,
    seed: u64,
    faults: &FaultPlan,
    budget: ShrinkBudget,
    tuning: SoakTuning,
    verdict: impl Fn(&SoakRun) -> Option<String>,
) -> Option<JointOutcome> {
    let record = true;
    let recorded = run_soak_tuned(app, seed, Nemesis::Plan { faults, record }, tuning);
    verdict(&recorded)?;
    let trace = recorded.trace.expect("recording was on");
    let ops = recorded.ops.expect("recording was on");
    shrink_joint_with(
        &trace,
        &ops,
        budget,
        |op| weaken_op(app, op),
        |cand_faults, cand_ops| {
            let (faults, ops) = (Some(cand_faults), Some(cand_ops));
            let run = run_soak_tuned(app, seed, Nemesis::Explicit { faults, ops }, tuning);
            verdict(&run).map(|check| RunVerdict {
                check,
                digest: run.digest,
            })
        },
    )
}

/// One causal-axis cell: run the *unrepaired* app under the nemesis and
/// report the named anomaly it exhibited (`None` = the run stayed clean,
/// which is the failure on this axis).
pub fn run_causal_cell(app: App, seed: u64, faults: &FaultPlan) -> (Option<Anomaly>, SoakRun) {
    let tuning = SoakTuning {
        mode: SoakMode::Causal,
        ..SoakTuning::default()
    };
    let record = false;
    let run = run_soak_tuned(app, seed, Nemesis::Plan { faults, record }, tuning);
    (run.failure.as_ref().map(Failure::anomaly), run)
}

/// The causal axis' shrinker, with the verdict inverted: when the
/// unrepaired app *fails to produce* a named anomaly under a hostile
/// schedule, minimize the run that stays clean — the artifact names the
/// few ops and faults under which the expected anomaly is still absent,
/// which is exactly what a triager needs to see why the nemesis lost its
/// teeth. `None` when the recorded causal run did anomalize after all
/// (nothing to shrink — the axis is healthy).
pub fn shrink_missing_anomaly(
    app: App,
    seed: u64,
    faults: &FaultPlan,
    budget: ShrinkBudget,
) -> Option<JointOutcome> {
    let tuning = SoakTuning {
        mode: SoakMode::Causal,
        ..SoakTuning::default()
    };
    // Inverted verdict: a run "fails" (is kept) when it produces NO
    // anomaly.
    shrink_recorded(app, seed, faults, budget, tuning, |run| {
        run.failure.is_none().then(|| "no-anomaly".into())
    })
}

/// The one [`OpCtx`] outside the simulator, over *any* [`Transport`]:
/// commits run on the region's replica via [`Transport::with_node`] and
/// ship immediately (a down region is [`StoreError::Unavailable`]), link
/// and node state are the transport's own, and `rtt` is zero. The
/// transport-equivalence tests and every threaded soak client (over a
/// shared `&ThreadedCluster`) run through it.
pub struct TransportCtx<'a, T: Transport> {
    transport: &'a mut T,
    rng: StdRng,
}

impl<'a, T: Transport> TransportCtx<'a, T> {
    /// A context over `transport` with a `seed`ed decide-path RNG.
    pub fn new(transport: &'a mut T, seed: u64) -> TransportCtx<'a, T> {
        TransportCtx {
            transport,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The wrapped transport (e.g. to quiesce between ops).
    pub fn transport(&mut self) -> &mut T {
        self.transport
    }
}

impl<T: Transport> OpCtx for TransportCtx<'_, T> {
    fn regions(&self) -> usize {
        self.transport.node_count()
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn rtt(&mut self, _a: Region, _b: Region) -> f64 {
        0.0
    }

    fn link_up(&self, a: Region, b: Region) -> bool {
        self.transport.link_up(ReplicaId(a), ReplicaId(b))
    }

    fn node_up(&self, region: Region) -> bool {
        self.transport.node_up(ReplicaId(region))
    }

    fn commit<T2>(
        &mut self,
        region: Region,
        f: impl FnOnce(&mut Transaction<'_>) -> Result<T2, StoreError>,
    ) -> Result<(T2, CommitInfo), StoreError> {
        let node = ReplicaId(region);
        if !self.transport.node_up(node) {
            return Err(StoreError::Unavailable(node));
        }
        let (value, info) = self.transport.with_node(node, |replica| {
            let mut tx = replica.begin();
            let value = f(&mut tx)?;
            let info = tx.commit();
            Ok::<_, StoreError>((value, info))
        })?;
        self.transport.ship(node);
        Ok((value, info))
    }
}

/// Configuration of one threaded soak cell.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedSoakConfig {
    /// Seeds the per-client decide RNGs and the fault plan.
    pub seed: u64,
    /// Wall-clock time the client threads run.
    pub duration: Duration,
    /// Client threads per replica (threads, not simulated clients).
    pub clients_per_region: usize,
    /// Apply a fault plan (crashes + link cuts) alongside the clients.
    /// Off = benign concurrency soak.
    pub faults: bool,
}

/// Outcome of one threaded soak cell.
#[derive(Debug)]
pub struct ThreadedSoakRun {
    /// First oracle failure, in the same fixed classification order as
    /// the simulator soak: continuous → double-apply → final →
    /// convergence → bounded-liveness. `None` = green.
    pub failure: Option<Failure>,
    /// Client operations completed across all threads.
    pub completed: u64,
    /// Productive anti-entropy rounds the recovery quiesce needed (the
    /// bounded-liveness oracle's input).
    pub quiesce_rounds: u64,
    /// The fault windows the run applied (none when `faults` is off), in
    /// plan text when printed.
    pub plan: ExplicitPlan,
}

/// Run one app on the threaded transport under concurrent clients (and
/// optionally a fault plan), then quiesce, repair, and audit the full
/// oracle suite.
///
/// Concurrency structure: client threads race their commits against
/// the delivery threads and the background anti-entropy ticker; the
/// calling thread applies the plan's crash and cut windows on the wall
/// clock; an auditor thread samples continuous invariants on live
/// replicas. Workload state (op mix counters, escrow/reservation
/// tables) is one shared [`Mutex`], so the *decide/execute* path is
/// serialized — exactly like the single-threaded simulator — while
/// replication races freely underneath it. A [`RwLock`] gate serializes
/// crashes against in-flight operations so a multi-commit op is never
/// torn by a crash between its commits (which no schedule the
/// deterministic transport produces can do either).
pub fn run_threaded_soak(app: App, cfg: ThreadedSoakConfig) -> ThreadedSoakRun {
    with_app!(app, threaded_cell(cfg))
}

/// The threaded soak's faults in the simulator's vocabulary, drawn up
/// front from the seed: one window after another, 3–9 ms apart, each a
/// crash of a random node (40 %) or a cut of a random link lasting 2–7 ms,
/// until `cfg.duration` runs out. No per-batch faults, no overlaps.
fn threaded_fault_plan(cfg: &ThreadedSoakConfig, nodes: u16, ae: Duration) -> ExplicitPlan {
    // Same tag as the simulator's nemesis stream.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6e65_6d65_7369_7321);
    let (mut events, mut ms) = (Vec::new(), 0u64);
    let secs = |ms: u64| ms as f64 / 1000.0;
    loop {
        ms += rng.gen_range(3..9u64);
        if !cfg.faults || ms >= cfg.duration.as_millis() as u64 {
            break;
        }
        let window = if rng.gen_bool(0.4) {
            Window::Crash(rng.gen_range(0..nodes))
        } else {
            let (a, b) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            if a == b {
                continue;
            }
            Window::Cut(a, b)
        };
        let lasted_ms = rng.gen_range(2..7);
        events.push(window.event(secs(ms), secs(lasted_ms)));
        ms += lasted_ms;
    }
    ExplicitPlan {
        events,
        anti_entropy_s: Some(ae.as_secs_f64()),
        ..ExplicitPlan::default()
    }
}

/// The threaded run phase, then the shared repair and classifier.
fn threaded_cell<W: SoakApp + Send>(cfg: ThreadedSoakConfig) -> ThreadedSoakRun {
    let ae_interval = Duration::from_millis(2);
    let cluster = ThreadedCluster::start(ThreadedConfig {
        nodes: 3,
        ae_interval: Some(ae_interval),
    });
    let plan = threaded_fault_plan(&cfg, cluster.len() as u16, ae_interval);
    let mut workload = W::fresh(SoakMode::Ipa);
    workload.setup(&mut TransportCtx::new(&mut &cluster, cfg.seed));
    // Spread the seed data everywhere before clients start, like the
    // simulator's warmup phase does.
    cluster.quiesce();

    let auditor_oracle = workload.oracle();

    let workload = Mutex::new(workload);
    let crash_gate = RwLock::new(());
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let continuous_failure: Mutex<Option<Failure>> = Mutex::new(None);
    let n = cluster.len() as u16;

    std::thread::scope(|s| {
        let (cluster, workload, crash_gate) = (&cluster, &workload, &crash_gate);
        let (stop, completed, continuous_failure) = (&stop, &completed, &continuous_failure);
        for region in 0..n {
            for c in 0..cfg.clients_per_region {
                let client = ClientInfo {
                    id: region as usize * cfg.clients_per_region + c,
                    region,
                };
                let seed = cfg
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(client.id as u64);
                s.spawn(move || {
                    let mut transport = cluster;
                    let mut ctx = TransportCtx::new(&mut transport, seed);
                    while !stop.load(Ordering::Relaxed) {
                        let gate = crash_gate.read().unwrap();
                        if cluster.is_node_down(region) {
                            drop(gate);
                            std::thread::sleep(Duration::from_micros(500));
                            continue;
                        }
                        let outcome = {
                            let mut w = workload.lock().unwrap();
                            w.op(&mut ctx, client)
                        };
                        drop(gate);
                        if outcome.ok {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        // A breath between ops so deliveries and faults
                        // interleave with the op stream.
                        std::thread::sleep(Duration::from_micros(100));
                    }
                });
            }
        }

        let oracle = &auditor_oracle;
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(2));
                for r in 0..cluster.len() as u16 {
                    if cluster.is_node_down(r) {
                        continue;
                    }
                    let report =
                        cluster.with_replica(r, |rep| oracle.audit(rep, Phase::Continuous));
                    if report.total() > 0 {
                        let mut slot = continuous_failure.lock().unwrap();
                        if slot.is_none() {
                            let check = report.violated()[0];
                            *slot = Some(Failure::of("continuous", check, report.total()));
                        }
                    }
                }
            }
        });

        // This thread applies the plan on the wall clock, then ends the run.
        let start = Instant::now();
        let wait_until = |at_s: f64| {
            std::thread::sleep(Duration::from_secs_f64(at_s).saturating_sub(start.elapsed()));
        };
        for (window, at_s, lasted_s) in plan.events.iter().filter_map(FaultEvent::window) {
            wait_until(at_s);
            match window {
                // The write gate waits out in-flight ops; clients then see
                // the node down and sit out the outage.
                Window::Crash(r) => {
                    let _gate = crash_gate.write().unwrap();
                    cluster.crash_node(r);
                }
                // Ops run through cuts (coordination fails fast, commits
                // stay local).
                Window::Cut(a, b) => cluster.set_link_up(a, b, false),
            }
            wait_until(at_s + lasted_s);
            match window {
                Window::Crash(r) => cluster.restart_node(r),
                Window::Cut(a, b) => cluster.set_link_up(a, b, true),
            }
        }
        wait_until(cfg.duration.as_secs_f64());
        stop.store(true, Ordering::Relaxed);
    });

    let quiesce_rounds = cluster.quiesce();
    let workload = workload.into_inner().unwrap();
    repair(&workload, &mut &cluster, ship_and_quiesce);

    let bound = DEFAULT_LIVENESS_BOUND;
    let liveness =
        (quiesce_rounds > bound).then(|| Failure::new("bounded-liveness", quiesce_rounds - bound));
    let failure = classify(
        &workload.oracle(),
        &mut &cluster,
        continuous_failure.into_inner().unwrap(),
        liveness,
    );
    ThreadedSoakRun {
        failure,
        completed: completed.load(Ordering::Relaxed),
        quiesce_rounds,
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::{Object, ObjectKind, ObjectOp, VClock};
    use ipa_store::{Cluster, Key, Replica, UpdateBatch};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn app_names_roundtrip() {
        for app in App::all() {
            assert_eq!(App::parse(app.name()), Some(app));
            assert_eq!(App::parse(&app.name().to_uppercase()), Some(app));
        }
        assert_eq!(App::parse("nonesuch"), None);
    }

    #[test]
    fn benign_soak_is_green_for_every_app() {
        for app in App::all() {
            let run = run_soak(
                app,
                5,
                Nemesis::Plan {
                    faults: &FaultPlan::none(),
                    record: false,
                },
            );
            assert_eq!(run.failure, None, "{app}: {:?}", run.failure);
            assert!(run.sim.metrics.completed > 50, "{app} actually ran");
        }
    }

    #[test]
    fn recording_a_soak_yields_a_sealed_trace() {
        let plan = FaultPlan::with_intensity(3, 0.6);
        let run = run_soak(
            App::Tournament,
            3,
            Nemesis::Plan {
                faults: &plan,
                record: true,
            },
        );
        let trace = run.trace.expect("recorded");
        assert!(!trace.events.is_empty());
        let replay = run_soak(
            App::Tournament,
            3,
            Nemesis::Explicit {
                faults: Some(&trace),
                ops: None,
            },
        );
        assert_eq!(
            replay.digest, run.digest,
            "sealed fault replay reproduces the probabilistic soak exactly"
        );
        assert_eq!(replay.failure, run.failure);
    }

    /// Replay `ops` with the nemesis kept probabilistic, exactly as a
    /// soak cell arms the simulation; returns the schedule digest.
    fn ops_only_replay<W: SoakApp>(seed: u64, plan: &FaultPlan, ops: &OpTrace) -> u64 {
        let mut sim = Simulation::new(paper_topology(), soak_config(seed, plan.clone()));
        let mut workload = W::fresh(SoakMode::Ipa);
        let auditor = workload.oracle();
        sim.set_liveness_bound(DEFAULT_LIVENESS_BOUND);
        sim.set_auditor(0.25, auditor.into_continuous_auditor());
        sim.set_explicit_ops(ops);
        sim.run(&mut workload);
        sim.quiesce();
        sim.schedule_digest()
    }

    /// The op-replay seal, on every probed config: replaying the
    /// recorded `OpTrace` with `set_explicit_ops` — no workload RNG —
    /// reproduces the original schedule digest bit for bit, for all
    /// five applications, both with the fault plan kept probabilistic
    /// and with the fully sealed (ops + faults) pair.
    #[test]
    fn op_trace_seal_is_bit_exact_for_every_app() {
        for app in App::all() {
            for (seed, intensity) in [(3u64, 0.6), (11, 0.4)] {
                let plan = FaultPlan::with_intensity(seed, intensity);
                let run = run_soak(
                    app,
                    seed,
                    Nemesis::Plan {
                        faults: &plan,
                        record: true,
                    },
                );
                let ops = run.ops.expect("recorded");
                assert!(!ops.events.is_empty(), "{app}: ops were recorded");

                // Ops sealed, nemesis still probabilistic: the nemesis
                // stream is independent, so the digest must match.
                assert_eq!(
                    with_app!(app, ops_only_replay(seed, &plan, &ops)),
                    run.digest,
                    "{app} seed {seed}: ops-only seal must be bit-exact"
                );

                // Fully sealed pair (ops + faults): same digest, same
                // failure classification, and the text forms roundtrip.
                let faults = run.trace.expect("recorded");
                let ops2: OpTrace = ops.to_string().parse().expect("ops roundtrip");
                assert_eq!(ops2, ops);
                let sealed = run_soak(
                    app,
                    seed,
                    Nemesis::Explicit {
                        faults: Some(&faults),
                        ops: Some(&ops2),
                    },
                );
                assert_eq!(
                    sealed.digest, run.digest,
                    "{app} seed {seed}: full seal must be bit-exact"
                );
                assert_eq!(sealed.failure, run.failure);
            }
        }
    }

    /// The causal axis as the CI matrix runs it: each unrepaired app at
    /// the canonical first seed must name its signature anomaly.
    #[test]
    fn causal_cell_names_the_expected_anomaly_per_app() {
        let expect = [
            (App::Tournament, Anomaly::ReferentialOrphan),
            (App::Ticket, Anomaly::Oversell),
            (App::TicketEscrow, Anomaly::Oversell),
            (App::Tpc, Anomaly::ReferentialOrphan),
            (App::Twitter, Anomaly::LostUpdate),
        ];
        for (app, want) in expect {
            let plan = FaultPlan::with_intensity(11, 0.5);
            let (got, run) = run_causal_cell(app, 11, &plan);
            assert_eq!(
                got,
                Some(want),
                "{app} causal cell: failure {:?}",
                run.failure
            );
        }
    }

    /// The inverted shrink: a causal cell that stays clean minimizes the
    /// *clean* run (verdict `no-anomaly`), so the report names the
    /// smallest schedule under which the nemesis lost its teeth.
    #[test]
    fn clean_causal_cell_shrinks_to_a_minimal_no_anomaly_run() {
        let plan = FaultPlan::with_intensity(1, 0.0);
        let (a, _) = run_causal_cell(App::Twitter, 1, &plan);
        assert_eq!(a, None, "benign twitter causal cell at seed 1 is clean");
        let outcome = shrink_missing_anomaly(App::Twitter, 1, &plan, ShrinkBudget::default())
            .expect("the clean run reproduces from its recorded traces");
        assert_eq!(outcome.check, "no-anomaly");
        assert!(outcome.op_events() <= outcome.original_op_events);
    }

    /// Every lattice row must (a) parse under its app's op grammar and
    /// (b) terminate: repeated weakening reaches a fixpoint (no cycles).
    #[test]
    fn weakening_lattice_rows_parse_and_terminate() {
        let samples: [(App, &[&str]); 5] = [
            (
                App::Tournament,
                &[
                    "match p1 p2 t3",
                    "enroll p1 t3",
                    "disenroll p1 t3",
                    "begin t3",
                    "finish t3",
                    "remove t3",
                    "status t3",
                ],
            ),
            (App::Ticket, &["buy 1", "view 1"]),
            (App::TicketEscrow, &["buy 0", "view 0"]),
            (
                App::Tpc,
                &[
                    "purchase p1",
                    "restock p1",
                    "remproduct p1",
                    "addproduct p1",
                    "view p1",
                ],
            ),
            (
                App::Twitter,
                &[
                    "tweet u1 5",
                    "retweet u2 5",
                    "deltweet 5",
                    "follow u1 u2",
                    "unfollow u1 u2",
                    "adduser u9",
                    "remuser u1",
                    "timeline u1",
                ],
            ),
        ];
        fn parse_as<W: SoakApp>(op: &str) -> Result<(), String> {
            op.parse::<W::Op>().map(drop).map_err(|e| e.to_string())
        }
        for (app, ops) in samples {
            for &op in ops {
                // BFS the whole lattice below `op`, bounded to prove
                // termination.
                let mut frontier = vec![op.to_owned()];
                let mut steps = 0;
                while let Some(cur) = frontier.pop() {
                    steps += 1;
                    assert!(steps < 64, "{app}: lattice under {op:?} does not terminate");
                    for w in weaken_op(app, &cur) {
                        with_app!(app, parse_as(&w)).unwrap_or_else(|e| {
                            panic!("{app}: weakening {cur:?} produced invalid op {w:?}: {e}")
                        });
                        frontier.push(w);
                    }
                }
            }
        }
    }

    /// Drive `nops` ops of `app` through any transport, quiescing after
    /// every op so each transport sees the same fully-converged state at
    /// each decision point (and therefore executes the identical op
    /// sequence — the decide RNG streams are identical).
    fn drive<W: SoakApp, T: Transport>(seed: u64, nops: usize, transport: &mut T) -> W {
        let mut w = W::fresh(SoakMode::Ipa);
        let mut ctx = TransportCtx::new(transport, seed);
        w.setup(&mut ctx);
        ctx.transport().quiesce_transport();
        let regions = ctx.regions() as u16;
        for k in 0..nops {
            let client = ClientInfo {
                id: k % 6,
                region: (k % regions as usize) as u16,
            };
            w.op(&mut ctx, client);
            ctx.transport().quiesce_transport();
        }
        w
    }

    /// One batch's transport-independent identity: origin, seq, and
    /// updates. The `clock` snapshot, `lamport`, and `check` (sealed
    /// over both) are deliberately excluded — ops that commit at more
    /// than one node (the escrow borrow path) make them depend on
    /// intra-op delivery timing, which the [`Transport`] contract
    /// leaves to the implementation ("check quiescent properties,
    /// never schedules"). Semantic equivalence of the causal metadata
    /// is covered by the converged-state half of [`fingerprint`].
    type BatchKey = (ReplicaId, u64, Vec<(Key, ObjectKind, ObjectOp)>);

    fn batch_key(b: &UpdateBatch) -> BatchKey {
        (b.origin, b.seq, b.updates.clone())
    }

    /// Canonical per-node view of a quiesced transport: every batch
    /// ever applied (projected to its [`BatchKey`], sorted by
    /// (origin, seq)) plus the materialized state of every object any
    /// batch touched. Two transports that applied the same history
    /// produce equal fingerprints.
    type Fingerprint = Vec<(Vec<BatchKey>, BTreeMap<Key, Object>)>;

    fn fingerprint<T: Transport>(t: &mut T) -> Fingerprint {
        t.quiesce_transport();
        assert!(t.converged(), "fingerprint requires convergence");
        (0..t.node_count())
            .map(|i| {
                t.with_node(ReplicaId(i as u16), |r| {
                    let mut log: Vec<BatchKey> = r
                        .batches_since(&VClock::default())
                        .iter()
                        .map(|b| batch_key(b))
                        .collect();
                    log.sort_by_key(|b| (b.0, b.1));
                    let state: BTreeMap<Key, Object> = log
                        .iter()
                        .flat_map(|(_, _, ups)| ups.iter().map(|(k, _, _)| k.clone()))
                        .filter_map(|k| r.object(&k).cloned().map(|o| (k, o)))
                        .collect();
                    (log, state)
                })
            })
            .collect()
    }

    /// [`drive`] one transport, fingerprint it, then hand it to the one
    /// judge — the shared repair sweep and classifier — with nothing to
    /// report from the run phase.
    fn drive_and_judge<W: SoakApp, T: Transport>(
        seed: u64,
        nops: usize,
        transport: &mut T,
        spread: impl FnMut(&mut T),
    ) -> (Fingerprint, Option<Failure>) {
        let w: W = drive(seed, nops, transport);
        let fp = fingerprint(transport);
        repair(&w, transport, spread);
        (fp, classify(&w.oracle(), transport, None, None))
    }

    /// The transport-equivalence matrix: for every app, the same seeded
    /// op stream driven through the deterministic simulator (as a
    /// transport), the synchronous cluster, and the threaded cluster
    /// converges to the identical batch-for-batch final state, and the
    /// one judge is green on all three. A new transport joins with one
    /// more line here.
    #[test]
    fn all_transports_converge_to_identical_state_for_every_app() {
        fn cell<W: SoakApp>(app: App) {
            let (seed, nops) = (7, 60);
            let mut sim = Simulation::new(
                paper_topology(),
                SimConfig {
                    seed,
                    ..Default::default()
                },
            );
            let mut cluster = Cluster::new(3);
            let threaded = ThreadedCluster::start(ThreadedConfig {
                nodes: 3,
                ae_interval: None,
            });
            let (fp_sim, sim_verdict) =
                drive_and_judge::<W, _>(seed, nops, &mut sim, Simulation::sync_all);
            let (fp_cluster, cluster_verdict) =
                drive_and_judge::<W, _>(seed, nops, &mut cluster, ship_and_quiesce);
            let (fp_threaded, threaded_verdict) =
                drive_and_judge::<W, _>(seed, nops, &mut &threaded, ship_and_quiesce);

            assert_eq!(fp_sim, fp_cluster, "{app}: sim vs cluster state");
            assert_eq!(fp_sim, fp_threaded, "{app}: sim vs threaded state");
            assert_eq!(sim_verdict, None, "{app}: sim");
            assert_eq!(cluster_verdict, None, "{app}: cluster");
            assert_eq!(threaded_verdict, None, "{app}: threaded");
        }
        for app in App::all() {
            with_app!(app, cell(app));
        }
    }

    /// One [`OpCtx::commit`] contract on every transport: a commit at a
    /// crashed region is refused with [`StoreError::Unavailable`] and
    /// leaves nothing behind, and one at a live region commits. The
    /// simulator's region is crashed by its fault plan, the two clusters'
    /// by hand.
    #[test]
    fn a_commit_at_a_down_region_is_unavailable_on_every_transport() {
        const KEY: &str = "contract";
        /// Commit one increment at `region`, checked against `node_up`.
        /// Returns whether it committed.
        fn commit_once(ctx: &mut impl OpCtx, region: Region) -> bool {
            let up = ctx.node_up(region);
            let done = ctx.commit(region, |tx| {
                tx.ensure(KEY, ObjectKind::PNCounter)?;
                tx.counter_add(KEY, 1)
            });
            match done {
                Ok(_) => assert!(up, "committed at down region {region}"),
                Err(e) => {
                    assert!(!up, "refused at live region {region}: {e}");
                    assert_eq!(e, StoreError::Unavailable(ReplicaId(region)));
                }
            }
            up
        }
        /// Every replica's count of the increments, once quiesced.
        fn counts(t: &mut impl Transport) -> Vec<i64> {
            (0..t.node_count() as u16)
                .map(|r| {
                    t.with_node(ReplicaId(r), |replica| {
                        replica
                            .object(KEY)
                            .and_then(|o| o.as_pncounter())
                            .map_or(0, |c| c.value())
                    })
                })
                .collect()
        }
        fn by_hand<T: Transport>(mut transport: T, set_down: impl Fn(&mut T, bool)) {
            let mut ctx = TransportCtx::new(&mut transport, 1);
            assert!(commit_once(&mut ctx, 0));
            set_down(ctx.transport(), true);
            assert!(!commit_once(&mut ctx, 0));
            assert!(commit_once(&mut ctx, 1));
            set_down(ctx.transport(), false);
            assert!(commit_once(&mut ctx, 0));
            ship_and_quiesce(&mut transport);
            assert_eq!(counts(&mut transport), vec![3; 3]);
        }
        by_hand(Cluster::new(3), |c, down| {
            if down {
                c.crash_node(ReplicaId(0));
            } else {
                c.restart_node(ReplicaId(0));
            }
        });
        let threaded = ThreadedCluster::start(ThreadedConfig {
            nodes: 3,
            ae_interval: None,
        });
        by_hand(&threaded, |t, down| {
            if down {
                t.crash_node(0);
            } else {
                t.restart_node(0);
            }
        });

        struct AtRegionZero {
            committed: i64,
            refused: u64,
        }
        impl ipa_sim::Workload for AtRegionZero {
            fn op(&mut self, ctx: &mut ipa_sim::SimCtx<'_>, _: ClientInfo) -> ipa_sim::OpOutcome {
                if commit_once(ctx, 0) {
                    self.committed += 1;
                    ipa_sim::OpOutcome::ok("Add", 1, 1)
                } else {
                    self.refused += 1;
                    ipa_sim::OpOutcome::unavailable("Add")
                }
            }
        }
        let faults = FaultPlan {
            crashes: vec![ipa_sim::CrashPlan {
                region: 0,
                at_s: 0.6,
                down_s: 0.6,
            }],
            ..FaultPlan::none()
        };
        let mut sim = Simulation::new(
            paper_topology(),
            SimConfig {
                clients_per_region: 2,
                warmup_s: 0.2,
                duration_s: 1.8,
                seed: 5,
                faults,
                ..Default::default()
            },
        );
        let mut w = AtRegionZero {
            committed: 0,
            refused: 0,
        };
        sim.run(&mut w);
        sim.quiesce();
        assert!(w.refused > 0, "the crash window saw commits at region 0");
        assert_eq!(counts(&mut sim), vec![w.committed; 3]);
    }

    /// [`Transport::converged`] is "equal clocks, nothing buffered". Hand
    /// every node the second batch of a replica outside the node set: its
    /// predecessor is in no log, so it sits in every causal buffer
    /// forever while every clock stays equal — and no transport may call
    /// that converged.
    #[test]
    fn a_buffered_batch_is_not_converged_on_any_transport() {
        fn cell(name: &str, transport: &mut impl Transport) {
            let mut outsider = Replica::new(ReplicaId(9));
            for v in ["first", "second"] {
                let mut tx = outsider.begin();
                tx.ensure("k", ObjectKind::AWSet).unwrap();
                tx.aw_add("k", ipa_crdt::Val::str(v)).unwrap();
                tx.commit();
            }
            let orphan = outsider.take_outbox().pop().expect("two batches");
            assert_eq!(orphan.seq, 2);
            assert!(orphan.passes_gate());
            assert!(transport.converged(), "{name}: converged before");
            for node in 0..transport.node_count() as u16 {
                let orphan = Arc::clone(&orphan);
                let (applied, buffered) = transport
                    .with_node(ReplicaId(node), |r| (r.receive(orphan), r.pending_count()));
                assert_eq!((applied, buffered), (0, 1), "{name}: node {node}");
            }
            assert!(
                !transport.converged(),
                "{name}: one batch buffered per node"
            );
        }
        cell(
            "sim",
            &mut Simulation::new(paper_topology(), SimConfig::default()),
        );
        cell("cluster", &mut Cluster::new(3));
        cell(
            "threaded",
            &mut &ThreadedCluster::start(ThreadedConfig {
                nodes: 3,
                ae_interval: None,
            }),
        );
    }

    /// The classifier's fixed order, over a plain [`Cluster`]: a supplied
    /// continuous verdict wins over everything; double-apply counts the
    /// inconsistent replicas; a diverged cluster with green final oracles
    /// reports `convergence`; a supplied liveness verdict is reported
    /// only when everything before it is green.
    #[test]
    fn classifier_order_is_fixed_on_any_transport() {
        let oracle = Oracle::twitter();
        let continuous = Failure::new("continuous:timeline-referential", 3);
        let liveness = Failure::new("bounded-liveness", 2);
        let (seen, slow) = (Some(continuous.clone()), Some(liveness.clone()));

        // Diverged: node 0 commits and nothing ships.
        let mut cluster = Cluster::new(3);
        cluster.with_node(ReplicaId(0), |r| {
            let mut tx = r.begin();
            tx.ensure("k", ObjectKind::AWSet).unwrap();
            tx.aw_add("k", ipa_crdt::Val::str("x")).unwrap();
            tx.commit();
        });
        let verdict = classify(&oracle, &mut cluster, seen, slow.clone());
        assert_eq!(verdict, Some(continuous));
        let verdict = classify(&oracle, &mut cluster, None, slow.clone());
        assert_eq!(verdict, Some(Failure::new("convergence", 1)));

        // Converged: only now is the liveness verdict reported.
        ship_and_quiesce(&mut cluster);
        let verdict = classify(&oracle, &mut cluster, None, slow.clone());
        assert_eq!(verdict, Some(liveness));
        assert_eq!(classify(&oracle, &mut cluster, None, None), None);

        // Two replicas whose applied count disagrees with their clock:
        // double-apply outranks liveness, and counts replicas — on every
        // transport.
        for n in [0, 2] {
            cluster.with_node(ReplicaId(n), |r| r.stats.batches_applied += 1);
        }
        let verdict = classify(&oracle, &mut cluster, None, slow);
        assert_eq!(verdict, Some(Failure::new("double-apply", 2)));
    }

    /// The threaded soak's faults are a plan drawn from the seed: the same
    /// seed gives the same plan text, which parses back, and the plan is
    /// crash and cut windows only, one after another.
    #[test]
    fn threaded_fault_plan_is_seeded_windows_that_never_overlap() {
        let cfg = ThreadedSoakConfig {
            seed: 17,
            duration: Duration::from_millis(400),
            clients_per_region: 2,
            faults: true,
        };
        let ae = Duration::from_millis(2);
        let plan = threaded_fault_plan(&cfg, 3, ae);
        let text = plan.to_string();
        assert_eq!(threaded_fault_plan(&cfg, 3, ae).to_string(), text);
        let other = ThreadedSoakConfig { seed: 18, ..cfg };
        assert_ne!(threaded_fault_plan(&other, 3, ae).to_string(), text);
        assert_eq!(
            text.parse::<ExplicitPlan>().expect("plan text parses"),
            plan
        );
        let windows: Vec<_> = plan.events.iter().filter_map(FaultEvent::window).collect();
        assert_eq!(windows.len(), plan.events.len(), "no per-batch event");
        for class in ["crash", "cut"] {
            assert!(plan.events.iter().any(|e| e.class() == class), "{class}");
        }
        for pair in windows.windows(2) {
            let ((_, at_s, lasted_s), (_, next_s, _)) = (pair[0], pair[1]);
            assert!(at_s + lasted_s < next_s, "{text}");
        }
        let benign = ThreadedSoakConfig {
            faults: false,
            ..cfg
        };
        assert!(threaded_fault_plan(&benign, 3, ae).is_empty());
    }

    #[test]
    fn benign_threaded_soak_is_green_for_every_app() {
        for app in App::all() {
            let run = run_threaded_soak(
                app,
                ThreadedSoakConfig {
                    seed: 11,
                    duration: Duration::from_millis(150),
                    clients_per_region: 2,
                    faults: false,
                },
            );
            assert_eq!(run.failure, None, "{app}: {:?}", run.failure);
            assert!(run.completed > 20, "{app}: clients actually ran");
        }
    }
}
