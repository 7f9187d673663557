//! The clients: the one place the simulator decides who fires when, what
//! they run, and how long their sends take.
//!
//! The event loop in [`crate::driver`] asks and applies; it never learns
//! where an answer came from. [`Clients`] owns the workload RNG and has
//! one of two sources — `Closed`, closed-loop clients whose think times
//! and send jitter are drawn from that RNG (and whose ops the workload
//! draws from it), or [`Replay`], the indexed form of an [`OpTrace`],
//! where every answer is a queue or table lookup. `Replay` holds no RNG
//! and none of its methods takes one, so a replay cannot draw. The
//! optional recorder writes each op and each send delay down as they are
//! answered, so a closed run can be sealed, replayed and shrunk; recording
//! is pure observation.

use crate::driver::{ClientInfo, SimConfig, Simulation, PARTITION_STALL};
use crate::latency::{LatencyModel, Region};
use crate::time::SimTime;
use crate::trace::{AppOp, OpEvent, OpTrace, SendRec};
use ipa_store::Links;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// What a client that is ready runs, as the source answered it.
pub(crate) enum Work {
    /// The workload draws and runs its next op, fused.
    Draw,
    /// The same draws, split: decide, execute, then hand the op back
    /// through [`Clients::ran`] (recording is on).
    Decide,
    /// This recorded op.
    Run(AppOp),
}

enum Source {
    Closed { think_time_ms: f64 },
    Replay(Replay),
}

/// Per-client FIFO queues of `(fire µs, op)` plus the recorded send
/// delays, keyed by staging op event (`(client, fire µs, ordinal)`) — not
/// by the batch's `(origin, dest, seq)`, which re-packs when a shrunk
/// trace removes commits.
struct Replay {
    by_client: Vec<VecDeque<(u64, AppOp)>>,
    sends: HashMap<(u64, u64, u32), u64>,
}

impl Replay {
    fn pop(&mut self, c: usize, now: SimTime) -> AppOp {
        let (at_us, op) = self.by_client[c]
            .pop_front()
            .expect("a replayed client fires only while it has recorded ops");
        debug_assert_eq!(at_us, now.as_micros(), "replayed op fired off its schedule");
        op
    }

    /// The client's next recorded op, if any, at its recorded time. A
    /// deferred op can leave the client past later recorded times; the
    /// serial client then fires them as soon as it is free, in recorded
    /// order and never in the past. Sealed full-trace replays never
    /// defer, so there the recorded times are used verbatim.
    fn next(&mut self, c: usize, now: SimTime) -> Option<SimTime> {
        let front = self.by_client[c].front_mut()?;
        front.0 = front.0.max(now.as_micros());
        Some(SimTime(front.0))
    }

    /// The client's home replica is down, which only happens under a
    /// *modified* fault plan (at record time the op executed). The
    /// recorded op defers to the restart when the crash window closes
    /// inside the run: dropping it silently deleted writes from shrink
    /// candidates, so ddmin kept "minimal" plans that only failed because
    /// the workload lost ops, not because of the fault under test. With
    /// no restart coming the op is skipped (the region never comes back).
    fn down(&mut self, c: usize, now: SimTime, restart: Option<SimTime>) -> Option<SimTime> {
        if restart.is_none() {
            self.by_client[c].pop_front();
        }
        self.next(c, restart.unwrap_or(now))
    }
}

pub(crate) struct Clients {
    homes: Vec<ClientInfo>,
    /// The workload RNG, seeded from [`SimConfig::seed`]: ops and setup
    /// (through [`Clients::rng`]), think times and send jitter.
    rng: StdRng,
    source: Source,
    recorder: Option<OpTrace>,
}

impl Clients {
    /// The closed-loop clients of `cfg`, at each of `regions` homes.
    pub fn closed(regions: Region, cfg: &SimConfig) -> Clients {
        let per_region = cfg.clients_per_region;
        let home = |id| ClientInfo {
            id,
            region: (id / per_region) as Region,
        };
        Clients {
            homes: (0..regions as usize * per_region).map(home).collect(),
            rng: StdRng::seed_from_u64(cfg.seed),
            source: Source::Closed {
                think_time_ms: cfg.think_time_ms,
            },
            recorder: None,
        }
    }

    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Replace the source with the indexed form of `trace`.
    pub fn install(&mut self, trace: &OpTrace) {
        let mut by_client = vec![VecDeque::new(); self.homes.len()];
        for e in &trace.events {
            assert!(
                e.client < by_client.len(),
                "op trace client {} out of range (config has {} clients)",
                e.client,
                by_client.len()
            );
            by_client[e.client].push_back((e.at_us, e.op.clone()));
        }
        let sends = trace.sends.iter();
        let sends = sends.map(|s| ((s.client, s.at_us, s.ordinal), s.delay_us));
        self.source = Source::Replay(Replay {
            by_client,
            sends: sends.collect(),
        });
    }

    pub fn info(&self, c: usize) -> ClientInfo {
        self.homes[c]
    }

    /// Who fires first, and when: every closed-loop client, staggered to
    /// avoid a synchronized burst; every replayed client that has an op,
    /// at its first recorded time (in a full trace exactly the stagger;
    /// in a shrunk one, the earliest surviving op).
    pub fn first_fires(&mut self) -> Vec<(usize, SimTime)> {
        let first = |c| match &mut self.source {
            Source::Closed { .. } => Some((c, SimTime::from_ms(0.1 * c as f64 + 1.0))),
            Source::Replay(replay) => Some((c, replay.next(c, SimTime::ZERO)?)),
        };
        (0..self.homes.len()).filter_map(first).collect()
    }

    /// What client `c`, ready at `now`, runs.
    pub fn work(&mut self, c: usize, now: SimTime) -> Work {
        match &mut self.source {
            Source::Replay(replay) => Work::Run(replay.pop(c, now)),
            Source::Closed { .. } if self.recorder.is_some() => Work::Decide,
            Source::Closed { .. } => Work::Draw,
        }
    }

    /// Client `c` decided and ran `op` at `now` (the answer to
    /// [`Work::Decide`]).
    pub fn ran(&mut self, client: usize, now: SimTime, op: AppOp) {
        let at_us = now.as_micros();
        let rec = self.recorder.as_mut().expect("recording is on");
        rec.events.push(OpEvent { client, at_us, op });
    }

    /// When `c` fires again after the op it ran at `now` completed at
    /// `completion`: a think time later, or at its next recorded time.
    pub fn after_op(&mut self, c: usize, now: SimTime, completion: SimTime) -> Option<SimTime> {
        match &mut self.source {
            Source::Closed { think_time_ms } => {
                Some(completion + think(*think_time_ms, &mut self.rng))
            }
            Source::Replay(replay) => replay.next(c, now),
        }
    }

    /// When `c` fires again after finding its home replica down at `now`
    /// (the op failed fast): a closed-loop client backs off one think
    /// time and thinks again; a replayed one asks when the replica
    /// `restart`s ([`Replay::down`]).
    pub fn after_down(
        &mut self,
        c: usize,
        now: SimTime,
        restart: impl FnOnce() -> Option<SimTime>,
    ) -> Option<SimTime> {
        match &mut self.source {
            Source::Closed { think_time_ms } => {
                let think = think(*think_time_ms, &mut self.rng);
                Some(now + SimTime::from_ms(*think_time_ms) + think)
            }
            Source::Replay(replay) => replay.down(c, now, restart()),
        }
    }

    /// How long send `ordinal` of the op `client` runs at `now` takes
    /// `from → to`. A cut link stalls it; that check stays first so a
    /// candidate replay honors *its own* fault plan's cut windows (the
    /// seal is unaffected — a send recorded while its link was down
    /// recorded this same stall). A replay then answers the recorded
    /// delay (exact µs — the seal), or the jitter-free base latency for a
    /// send a shrunk trace no longer records.
    pub fn send_delay(
        &mut self,
        client: u64,
        now: SimTime,
        ordinal: u32,
        (from, to): (Region, Region),
        latency: &LatencyModel,
        links: &Links,
    ) -> SimTime {
        let delay = if !links.is_up(from, to) {
            PARTITION_STALL
        } else {
            match &self.source {
                Source::Closed { .. } => SimTime::from_ms(latency.one_way(from, to, &mut self.rng)),
                Source::Replay(replay) => {
                    let recorded = replay.sends.get(&(client, now.as_micros(), ordinal));
                    let base = || SimTime::from_ms(latency.base_rtt(from, to) / 2.0);
                    recorded.map_or_else(base, |&us| SimTime(us))
                }
            }
        };
        if let Some(rec) = &mut self.recorder {
            rec.sends.push(SendRec {
                client,
                at_us: now.as_micros(),
                ordinal,
                delay_us: delay.as_micros(),
            });
        }
        delay
    }

    /// A round trip `a ↔ b` as an op sees it: sampled, or the jitter-free
    /// base during a replay.
    pub fn rtt(&mut self, a: Region, b: Region, links: &LatencyModel) -> f64 {
        match &self.source {
            Source::Closed { .. } => links.rtt(a, b, &mut self.rng),
            Source::Replay(_) => links.base_rtt(a, b),
        }
    }
}

/// Uniform jitter in [0.5, 1.5] × base keeps clients desynchronized.
fn think(base_ms: f64, rng: &mut StdRng) -> SimTime {
    if base_ms <= 0.0 {
        return SimTime::ZERO;
    }
    SimTime::from_ms(base_ms * rng.gen_range(0.5..1.5))
}

impl Simulation {
    /// Record every executed client op (and every staged send's latency
    /// draw) as an explicit event, retrievable after the run via
    /// [`Simulation::take_op_trace`]. Recording draws no RNG and cannot
    /// perturb the schedule; it requires a replayable workload
    /// ([`crate::Workload::decide`] returning `Some`).
    pub fn record_op_trace(&mut self) {
        self.clients.recorder = Some(OpTrace::default());
    }

    /// The recorded workload as a replayable [`OpTrace`].
    pub fn take_op_trace(&mut self) -> OpTrace {
        let recorder = &mut self.clients.recorder;
        recorder.take().expect("record_op_trace was enabled")
    }

    /// Replay a recorded op trace instead of the RNG-driven closed-loop
    /// clients: every client fires at its recorded virtual times and
    /// executes its recorded ops through [`crate::Workload::execute`],
    /// staged sends use recorded (or jitter-free base) latencies, and the
    /// workload RNG is never drawn — the run is a pure function of
    /// `(trace, fault schedule)`. Call before [`Simulation::run`].
    pub fn set_explicit_ops(&mut self, trace: &OpTrace) {
        self.clients.install(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{AppWorkload, OpCtx, OpOutcome};
    use crate::fault::{CrashPlan, FaultPlan};
    use crate::scenario::paper_topology;
    use ipa_crdt::{ObjectKind, Val};

    /// How many values [`Salted::setup`] draws from the workload RNG.
    const SETUP_DRAWS: usize = 3;

    /// A replayable workload that touches every question: setup draws
    /// and commits, `decide` draws, `execute` commits and asks for a
    /// round trip.
    #[derive(Default)]
    struct Salted;

    impl AppWorkload for Salted {
        type Op = String;

        fn setup<C: OpCtx>(&mut self, ctx: &mut C) {
            for _ in 0..SETUP_DRAWS {
                let seed: u32 = ctx.rng().gen();
                ctx.commit(0, |tx| {
                    tx.ensure("set", ObjectKind::AWSet)?;
                    tx.aw_add("set", Val::str(format!("seed{seed}")))
                })
                .expect("commit");
            }
        }

        fn decide<C: OpCtx>(&mut self, ctx: &mut C, client: ClientInfo) -> String {
            format!("c{}s{}", client.id, ctx.rng().gen::<u32>())
        }

        fn execute<C: OpCtx>(&mut self, ctx: &mut C, client: ClientInfo, op: &String) -> OpOutcome {
            ctx.commit(client.region, |tx| {
                tx.ensure("set", ObjectKind::AWSet)?;
                tx.aw_add("set", Val::str(op.as_str()))
            })
            .expect("commit");
            let peer = (client.region + 1) % ctx.regions() as Region;
            OpOutcome::ok("insert", 1, 1).with_wan(ctx.rtt(client.region, peer) / 100.0)
        }
    }

    fn cfg(seed: u64, faults: FaultPlan) -> SimConfig {
        SimConfig {
            clients_per_region: 2,
            warmup_s: 0.2,
            duration_s: 1.8,
            seed,
            faults,
            ..Default::default()
        }
    }

    /// A replay never draws the workload RNG: after replaying a full
    /// trace — sealed, and again under a crash the recording never saw,
    /// so ops defer and skip — the RNG is exactly where seeding and
    /// `setup`'s draws left it. A stray draw moves no digest (nothing in
    /// a replay reads the RNG), so only this test sees one.
    #[test]
    fn a_replay_leaves_the_workload_rng_where_setup_left_it() {
        let seed = 29;
        let faults = FaultPlan::with_intensity(7, 0.5);
        let mut recorded = Simulation::new(paper_topology(), cfg(seed, faults.clone()));
        recorded.record_op_trace();
        recorded.run(&mut Salted);
        let trace = recorded.take_op_trace();
        assert!(trace.events.len() > 50 && !trace.sends.is_empty());

        let mut crashy = faults.clone();
        crashy.crashes.push(CrashPlan {
            region: 1,
            at_s: 0.5,
            down_s: 0.4,
        });
        crashy.crashes.push(CrashPlan {
            region: 2,
            at_s: 1.0,
            down_s: 60.0,
        });
        for (name, plan) in [("sealed", faults), ("crashy", crashy)] {
            let mut replay = Simulation::new(paper_topology(), cfg(seed, plan));
            replay.set_explicit_ops(&trace);
            replay.run(&mut Salted);
            assert!(replay.metrics.completed > 20, "{name}: the replay ran");
            if name == "sealed" {
                assert_eq!(replay.schedule_digest(), recorded.schedule_digest());
            } else {
                assert!(
                    replay.metrics.failed > 0,
                    "{name}: some ops met a down home"
                );
            }
            let mut expected = StdRng::seed_from_u64(seed);
            for _ in 0..SETUP_DRAWS {
                expected.gen::<u32>();
            }
            assert_eq!(
                replay.clients.rng.gen::<u64>(),
                expected.gen::<u64>(),
                "{name}: the replay drew the workload RNG"
            );
        }
    }

    fn op(client: usize, at_us: u64, op: &str) -> OpEvent {
        let op = AppOp::new(op);
        OpEvent { client, at_us, op }
    }

    fn replaying(events: Vec<OpEvent>) -> Clients {
        let one_client = SimConfig {
            clients_per_region: 1,
            ..Default::default()
        };
        let mut clients = Clients::closed(1, &one_client);
        let sends = Vec::new();
        clients.install(&OpTrace { events, sends });
        clients
    }

    fn run_next(clients: &mut Clients, at: SimTime) -> String {
        match clients.work(0, at) {
            Work::Run(op) => op.as_str().to_owned(),
            _ => panic!("a replay answers recorded ops"),
        }
    }

    /// An op deferred to its home's restart leaves the client past later
    /// recorded times: those ops then fire as soon as the client is free,
    /// never in the past, in recorded order.
    #[test]
    fn ops_after_a_deferred_one_keep_their_order_and_never_fire_in_the_past() {
        let mut clients = replaying(vec![op(0, 100, "a"), op(0, 200, "b"), op(0, 5_000, "c")]);
        assert_eq!(clients.first_fires(), vec![(0, SimTime(100))]);
        // Home down at 100, back at 1000: "a" waits for the restart.
        let restart = SimTime(1_000);
        assert_eq!(
            clients.after_down(0, SimTime(100), || Some(restart)),
            Some(restart)
        );
        assert_eq!(run_next(&mut clients, restart), "a");
        // "b" was due at 200; the client is free at 1000.
        let again = clients.after_op(0, restart, SimTime(1_400));
        assert_eq!(again, Some(restart));
        assert_eq!(run_next(&mut clients, restart), "b");
        // "c" is still ahead: its recorded time stands.
        let again = clients.after_op(0, restart, SimTime(1_800));
        assert_eq!(again, Some(SimTime(5_000)));
        assert_eq!(run_next(&mut clients, SimTime(5_000)), "c");
        assert_eq!(clients.after_op(0, SimTime(5_000), SimTime(5_400)), None);
    }

    /// With no restart coming the op due now is skipped, and only it.
    #[test]
    fn an_op_whose_home_never_restarts_is_skipped() {
        let mut clients = replaying(vec![op(0, 100, "a"), op(0, 200, "b")]);
        let again = clients.after_down(0, SimTime(100), || None);
        assert_eq!(again, Some(SimTime(200)));
        assert_eq!(run_next(&mut clients, SimTime(200)), "b");
    }
}
