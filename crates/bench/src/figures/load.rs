//! **Open-loop load sweep** (beyond the paper): latency percentiles and
//! saturation throughput under arrival-rate-driven load.
//!
//! The paper's figures drive closed-loop clients — each waits for its
//! previous op before issuing the next — which caps queueing and hides
//! the latency cliff near saturation (coordinated omission). This sweep
//! is open-loop: arrivals are a Poisson process at a fixed offered rate
//! per region, issued at their scheduled times whether or not earlier
//! ops completed, so queue wait is charged to the op that suffered it.
//!
//! The generator synthesizes an explicit op trace — exponential
//! inter-arrivals, Zipfian keys, a large virtual-user population
//! multiplexed onto the simulator's client slots — and replays it
//! through the same sealed-trace machinery the nemesis shrinker uses
//! (`Simulation::set_explicit_ops`): replay fires each op at its
//! recorded microsecond regardless of completion, which *is* open-loop
//! injection. Reported latency is arrival-to-completion (queue wait +
//! service + client RTT), summarized as p50/p99/p999 per offered rate.
//!
//! The generator enforces an **admission budget**: within the
//! measurement window each region admits at most ⌊rate × duration⌋
//! arrivals, so the reported admitted rate can never exceed the offered
//! rate (an earlier version reported completed-per-second, which
//! counted warmup backlog draining into the window and read *above*
//! offered at saturation — an accounting artifact, not extra capacity).
//!
//! Alongside the wall-free latency model, the sweep reports the store's
//! deterministic apply-path counters at the heaviest point: per-shard
//! applied-update counts (the shard balance [`check`] guards) and
//! object-table lookups (the handle-cache bound: at most one lookup per
//! update). `--bin load` — CI's perf-smoke job — exits non-zero when a
//! guardrail is broken.
//!
//! `regenerate` additionally runs a **threaded wall-clock sweep**: the
//! same Poisson/Zipf open-loop schedule fired against a real
//! [`ipa_store::ThreadedCluster`] (one issuer thread per region, ops
//! issued at precomputed `Instant`s, latency charged from the
//! *scheduled* arrival so a lagging issuer cannot hide queueing —
//! coordinated omission again). That sweep locates the in-process
//! saturation knee in ops/s of real wall time; it is wall-clock noisy,
//! so it rides only in the regenerated JSON, never in the deterministic
//! `run` path the tests replay. Results land in `BENCH_load.json` at
//! the repo root.

use crate::runner::ensure;
use ipa_crdt::{ObjectKind, Val};
use ipa_sim::{
    paper_topology, AppOp, ClientInfo, FaultPlan, OpEvent, OpOutcome, OpTrace, SimConfig, SimCtx,
    Simulation, Workload,
};
use ipa_store::{ThreadedCluster, ThreadedConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Distinct hot keys the Zipfian distribution ranges over.
const KEYS: usize = 1024;
/// Zipf exponent (YCSB's default skew).
const ZIPF_S: f64 = 0.99;
/// Client slots per region the virtual users are multiplexed onto.
const SLOTS_PER_REGION: usize = 8;
const REGIONS: usize = 3;
/// A point is saturated when its p50 exceeds this multiple of the
/// lightest point's p50: the median is then queue backlog, not service.
const SATURATION_X: f64 = 5.0;

/// One swept offered rate.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Offered arrival rate, cluster-wide (ops/s across all regions).
    pub offered_ops_s: f64,
    /// Arrivals admitted inside the measurement window per second,
    /// after the generator's per-region budget of ⌊rate × duration⌋
    /// admission tokens. By construction `admitted_ops_s ≤
    /// offered_ops_s`, deterministically. Open loop: this tracks the
    /// offered rate even past saturation (the backlog shows up in the
    /// percentiles, not here).
    pub admitted_ops_s: f64,
    pub completed: u64,
    pub failed: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
}

/// Deterministic apply-path counters of one replica after the heaviest
/// sweep point (from [`ipa_store::ShardStats`] — no wall clock).
#[derive(Clone, Debug)]
pub struct ReplicaCounters {
    pub region: u16,
    /// Updates applied per shard, in shard order.
    pub shard_updates: Vec<u64>,
    /// Object-table lookups per shard.
    pub shard_lookups: Vec<u64>,
}

#[derive(Clone, Debug)]
pub struct Report {
    pub quick: bool,
    /// Virtual users the arrival stream is drawn from (each op carries
    /// its user id; users share the simulator's client slots).
    pub virtual_users: u64,
    pub keys: usize,
    pub zipf_s: f64,
    pub shards: usize,
    pub points: Vec<LoadPoint>,
    /// Admitted throughput at the knee — the highest rate the cluster
    /// sustained with stable latency (ops/s).
    pub saturation_ops_s: f64,
    /// Highest offered rate whose p50 stayed under `SATURATION_X`×
    /// the lightest point's p50 (ops/s); past it the queue grows
    /// without bound and the median is backlog, not service.
    pub knee_ops_s: f64,
    /// Apply-path counters at the heaviest point, one entry per region.
    pub per_replica: Vec<ReplicaCounters>,
    /// Wall-clock sweep against the threaded transport. `None` from
    /// [`run`] (which must stay deterministic for the tests);
    /// [`regenerate`] populates it for the tracked JSON.
    pub threaded: Option<ThreadedSweep>,
}

/// One offered rate fired against the real threaded cluster.
#[derive(Clone, Debug)]
pub struct ThreadedPoint {
    /// Offered arrival rate, cluster-wide (ops/s across all regions).
    pub offered_ops_s: f64,
    /// Completed commits per second of wall time, measured from the
    /// sweep's epoch to the last issuer finishing (so an issuer running
    /// past its schedule deflates this instead of hiding).
    pub completed_ops_s: f64,
    pub completed: u64,
    /// Latency percentiles, each op charged from its *scheduled*
    /// arrival to commit completion (coordinated-omission-immune).
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// How the `completed × (REGIONS − 1)` shipped batches reached their
    /// peers and what that cost ([`ipa_store::ThreadedStats`]): wake-ups
    /// per batch is `unparks / (delivered_by_sender + posted)`, batches
    /// per delivery-thread turn is `posted / delivery_turns`.
    pub delivered_by_sender: u64,
    pub posted: u64,
    pub unparks: u64,
    pub delivery_turns: u64,
}

/// The wall-clock saturation sweep `regenerate` appends to the JSON:
/// real threads, real queues, real time — the honest counterpart to the
/// simulator's wall-free model above.
#[derive(Clone, Debug)]
pub struct ThreadedSweep {
    /// Measurement window each schedule spans (seconds).
    pub duration_s: f64,
    /// The machine shape the wall-clock numbers were taken on.
    pub note: String,
    pub points: Vec<ThreadedPoint>,
    /// Completed throughput at the knee (ops/s of wall time).
    pub saturation_ops_s: f64,
    /// Highest offered rate whose p50 stayed under `SATURATION_X`× the
    /// lightest point's p50 (ops/s).
    pub knee_ops_s: f64,
}

/// Zipfian sampler over `0..n` via the precomputed CDF; rank 0 is the
/// hottest key.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The replay-side workload: executes synthesized `post` ops (one
/// add-wins insert on the op's Zipfian key). Pure replay — `op` is
/// never called because every run is driven by an explicit trace.
struct PostWorkload;

impl Workload for PostWorkload {
    fn op(&mut self, _ctx: &mut SimCtx<'_>, _client: ClientInfo) -> OpOutcome {
        unreachable!("the load sweep only replays synthesized traces")
    }

    fn execute(&mut self, ctx: &mut SimCtx<'_>, client: ClientInfo, op: &AppOp) -> OpOutcome {
        // `post k<key> u<user>:<n>` — insert element u… into key k….
        let mut tok = op.as_str().split_whitespace();
        assert_eq!(tok.next(), Some("post"), "bad load op {:?}", op.as_str());
        let key = tok.next().expect("key token").to_owned();
        let elem = tok.next().expect("element token").to_owned();
        ctx.commit(client.region, |tx| {
            tx.ensure(key.as_str(), ObjectKind::AWSet)?;
            tx.aw_add(key.as_str(), Val::str(elem))
        })
        .expect("commit");
        OpOutcome::ok("post", 1, 1)
    }
}

/// Synthesize the open-loop arrival trace for one offered rate: a
/// Poisson process per region over `[0, warmup_s + duration_s)`, each
/// arrival drawn from `users` virtual users and multiplexed onto that
/// region's client slots by `user % slots` (arrivals are generated in
/// time order, so every slot's queue stays time-sorted, which replay
/// requires).
///
/// Admission budget: inside the measurement window
/// `[warmup_s, warmup_s + duration_s)` each region admits at most
/// `⌊rate × duration⌋` arrivals; Poisson excess past the budget is
/// dropped at the generator. The returned count is the number of
/// in-window arrivals actually admitted, cluster-wide — dividing it by
/// the window length therefore can never exceed the offered rate.
fn synthesize(
    rate_per_region: f64,
    warmup_s: f64,
    duration_s: f64,
    users: u64,
    seed: u64,
) -> (OpTrace, u64) {
    let zipf = Zipf::new(KEYS, ZIPF_S);
    let horizon_s = warmup_s + duration_s;
    let budget_per_region = (rate_per_region * duration_s).floor() as u64;
    let mut events = Vec::new();
    let mut n = 0u64;
    let mut admitted_in_window = 0u64;
    for region in 0..REGIONS {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x10ad << 16) ^ region as u64);
        let mut t_s = 0.0f64;
        let mut region_window = 0u64;
        loop {
            // Exponential inter-arrival at the offered rate.
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t_s += -u.ln() / rate_per_region;
            if t_s >= horizon_s {
                break;
            }
            let in_window = t_s >= warmup_s;
            if in_window {
                if region_window >= budget_per_region {
                    // Over budget: the arrival is refused admission.
                    continue;
                }
                region_window += 1;
                admitted_in_window += 1;
            }
            let user = rng.gen_range(0..users);
            let key = zipf.sample(&mut rng);
            n += 1;
            let slot = region * SLOTS_PER_REGION + (user as usize % SLOTS_PER_REGION);
            events.push(OpEvent {
                client: slot,
                at_us: (t_s * 1e6) as u64,
                op: AppOp::new(format!("post k{key} u{user}:{n}")),
            });
        }
    }
    // Replay queues are per client; each client's events must be
    // time-ordered. Regions are generated independently, so sort the
    // whole stream by (client, time) — a stable global order that also
    // keeps the trace deterministic.
    events.sort_by_key(|e| (e.client, e.at_us));
    (
        OpTrace {
            events,
            sends: Vec::new(),
        },
        admitted_in_window,
    )
}

/// Replay one offered rate; returns the point and the quiesced sim.
fn run_point(rate_per_region: f64, users: u64, quick: bool, seed: u64) -> (LoadPoint, Simulation) {
    let (warmup_s, duration_s) = if quick { (0.3, 1.5) } else { (1.0, 8.0) };
    let (trace, admitted) = synthesize(rate_per_region, warmup_s, duration_s, users, seed);
    let cfg = SimConfig {
        clients_per_region: SLOTS_PER_REGION,
        warmup_s,
        duration_s,
        seed,
        faults: FaultPlan::none(),
        ..Default::default()
    };
    let mut sim = Simulation::new(paper_topology(), cfg);
    sim.set_explicit_ops(&trace);
    let mut w = PostWorkload;
    sim.run(&mut w);
    sim.quiesce();
    let overall = sim.metrics.overall();
    let point = LoadPoint {
        offered_ops_s: rate_per_region * REGIONS as f64,
        // Count-based: in-window admitted arrivals over the window —
        // not completions, which can exceed offered when warmup backlog
        // drains into the window.
        admitted_ops_s: admitted as f64 / duration_s,
        completed: sim.metrics.completed,
        failed: sim.metrics.failed,
        p50_ms: overall.as_ref().map_or(0.0, |s| s.p50_ms),
        p99_ms: overall.as_ref().map_or(0.0, |s| s.p99_ms),
        p999_ms: overall.as_ref().map_or(0.0, |s| s.p999_ms),
    };
    (point, sim)
}

pub fn run(quick: bool) -> Report {
    // Per-region offered rates bracketing the service capacity
    // (`ServiceCosts::base_ms` = 2.8 ms ⇒ ≈357 ops/s per region).
    let rates: &[f64] = if quick {
        &[120.0, 280.0, 440.0]
    } else {
        &[60.0, 120.0, 200.0, 280.0, 340.0, 400.0, 480.0]
    };
    let users: u64 = if quick { 200_000 } else { 2_000_000 };
    let seed = 42;

    let mut points = Vec::new();
    let mut last_sim = None;
    for &rate in rates {
        let (point, sim) = run_point(rate, users, quick, seed);
        points.push(point);
        last_sim = Some(sim);
    }
    let heaviest = last_sim.expect("at least one rate");
    let per_replica = (0..REGIONS as u16)
        .map(|r| {
            let stats = heaviest.replica(r).shard_stats();
            ReplicaCounters {
                region: r,
                shard_updates: stats.iter().map(|s| s.updates_applied).collect(),
                shard_lookups: stats.iter().map(|s| s.table_lookups).collect(),
            }
        })
        .collect();
    let base_p50 = points.first().map_or(0.0, |p| p.p50_ms);
    let knee = points
        .iter()
        .filter(|p| p.p50_ms <= SATURATION_X * base_p50)
        .max_by(|a, b| a.offered_ops_s.total_cmp(&b.offered_ops_s));
    let saturation_ops_s = knee.map_or(0.0, |p| p.admitted_ops_s);
    let knee_ops_s = knee.map_or(0.0, |p| p.offered_ops_s);

    Report {
        quick,
        virtual_users: users,
        keys: KEYS,
        zipf_s: ZIPF_S,
        shards: ipa_store::DEFAULT_SHARDS,
        points,
        saturation_ops_s,
        knee_ops_s,
        per_replica,
        threaded: None,
    }
}

/// Percentile of a sorted latency sample (µs), reported in ms.
fn percentile_ms(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)] as f64 / 1000.0
}

/// Fire one offered rate at a live [`ThreadedCluster`]: one issuer
/// thread per region walks a precomputed Poisson/Zipf schedule, issuing
/// each commit at its scheduled `Instant` (or immediately, if behind —
/// the lag then shows up in that op's latency, because latency is
/// charged from the *scheduled* arrival, not from when the issuer got
/// around to it).
fn run_threaded_point(rate_per_region: f64, duration_s: f64, seed: u64) -> ThreadedPoint {
    // Schedules first, off the clock: (offset µs, zipfian key) pairs.
    let zipf = Zipf::new(KEYS, ZIPF_S);
    let mut schedules: Vec<Vec<(u64, usize)>> = Vec::with_capacity(REGIONS);
    for region in 0..REGIONS {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x7_ead << 20) ^ region as u64);
        let mut t_s = 0.0f64;
        let mut sched = Vec::new();
        loop {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t_s += -u.ln() / rate_per_region;
            if t_s >= duration_s {
                break;
            }
            sched.push(((t_s * 1e6) as u64, zipf.sample(&mut rng)));
        }
        schedules.push(sched);
    }

    let cluster = ThreadedCluster::start(ThreadedConfig {
        nodes: REGIONS as u16,
        ae_interval: None,
    });
    let base = Instant::now();
    let mut latencies: Vec<u64> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(region, sched)| {
                let cluster = &cluster;
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(sched.len());
                    for (i, &(at_us, key)) in sched.iter().enumerate() {
                        loop {
                            let now = base.elapsed().as_micros() as u64;
                            if now >= at_us {
                                break;
                            }
                            // Sleep off the bulk of the wait, yield the
                            // tail (sleep granularity overshoots).
                            let ahead = at_us - now;
                            if ahead > 500 {
                                std::thread::sleep(Duration::from_micros(ahead - 300));
                            } else {
                                std::thread::yield_now();
                            }
                        }
                        let name = format!("k{key}");
                        cluster
                            .commit_at(region as u16, |tx| {
                                tx.ensure(name.as_str(), ObjectKind::AWSet)?;
                                tx.aw_add(name.as_str(), Val::str(format!("r{region}-{i}")))
                            })
                            .expect("threaded commit");
                        lat.push(base.elapsed().as_micros() as u64 - at_us);
                    }
                    lat
                })
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().expect("issuer thread"));
        }
    });
    // Throughput over the real span: epoch to last issuer done. Past
    // saturation the issuers overrun the window, so this deflates
    // toward service capacity instead of parroting the offered rate.
    let elapsed_s = base.elapsed().as_secs_f64().max(duration_s);
    let stats = cluster.stats();
    let [delivered_by_sender, posted, unparks, delivery_turns] = [
        &stats.delivered_by_sender,
        &stats.posted,
        &stats.unparks,
        &stats.delivery_turns,
    ]
    .map(|c| c.load(Ordering::Relaxed));
    drop(cluster);
    latencies.sort_unstable();
    ThreadedPoint {
        offered_ops_s: rate_per_region * REGIONS as f64,
        completed_ops_s: latencies.len() as f64 / elapsed_s,
        completed: latencies.len() as u64,
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        delivered_by_sender,
        posted,
        unparks,
        delivery_turns,
    }
}

/// The wall-clock sweep: walk the offered rates, find the knee with the
/// same `SATURATION_X` rule the simulated sweep uses.
pub fn run_threaded_sweep(rates_per_region: &[f64], duration_s: f64, seed: u64) -> ThreadedSweep {
    let points: Vec<ThreadedPoint> = rates_per_region
        .iter()
        .map(|&r| run_threaded_point(r, duration_s, seed))
        .collect();
    let base_p50 = points.first().map_or(0.0, |p| p.p50_ms);
    let knee = points
        .iter()
        .filter(|p| p.p50_ms <= SATURATION_X * base_p50)
        .max_by(|a, b| a.offered_ops_s.total_cmp(&b.offered_ops_s));
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    ThreadedSweep {
        duration_s,
        note: format!(
            "wall clock on {cpus} logical CPUs shared by {REGIONS} issuer, {REGIONS} delivery \
             and the shard-pool threads; no anti-entropy ticker"
        ),
        saturation_ops_s: knee.map_or(0.0, |p| p.completed_ops_s),
        knee_ops_s: knee.map_or(0.0, |p| p.offered_ops_s),
        points,
    }
}

pub fn print(report: &Report) {
    println!(
        "Open-loop load sweep: {} virtual users, {} Zipf({}) keys, {} shards.",
        report.virtual_users, report.keys, report.zipf_s, report.shards
    );
    println!(
        "{:>12} {:>12} {:>10} {:>8} {:>10} {:>10} {:>10}",
        "offered/s", "admitted/s", "completed", "failed", "p50 [ms]", "p99 [ms]", "p999 [ms]"
    );
    for p in &report.points {
        println!(
            "{:>12.0} {:>12.1} {:>10} {:>8} {:>10.1} {:>10.1} {:>10.1}",
            p.offered_ops_s, p.admitted_ops_s, p.completed, p.failed, p.p50_ms, p.p99_ms, p.p999_ms
        );
    }
    println!(
        "saturation throughput: {:.0} ops/s — the knee ({:.0} ops/s offered) is the \
         last point whose p50 stays under {}x the unloaded median",
        report.saturation_ops_s, report.knee_ops_s, SATURATION_X
    );
    for rc in &report.per_replica {
        println!(
            "  region {}: per-shard updates {:?}, table lookups {:?} (deterministic)",
            rc.region, rc.shard_updates, rc.shard_lookups
        );
    }
    if let Some(t) = &report.threaded {
        println!(
            "\nThreaded wall-clock sweep ({} issuer threads, {:.1}s windows, real time):",
            REGIONS, t.duration_s
        );
        println!(
            "{:>12} {:>13} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
            "offered/s",
            "completed/s",
            "completed",
            "p50 [ms]",
            "p99 [ms]",
            "by sender",
            "posted",
            "unparks",
            "turns"
        );
        for p in &t.points {
            println!(
                "{:>12.0} {:>13.1} {:>10} {:>10.2} {:>10.2} {:>10} {:>8} {:>8} {:>8}",
                p.offered_ops_s,
                p.completed_ops_s,
                p.completed,
                p.p50_ms,
                p.p99_ms,
                p.delivered_by_sender,
                p.posted,
                p.unparks,
                p.delivery_turns
            );
        }
        println!(
            "threaded saturation: {:.0} ops/s wall-clock at the knee ({:.0} ops/s offered)",
            t.saturation_ops_s, t.knee_ops_s
        );
    }
}

/// Render the machine-readable `BENCH_load.json` payload.
pub fn to_json(report: &Report) -> String {
    let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"figure\": \"load\",\n");
    s.push_str(&format!("  \"quick\": {},\n", report.quick));
    s.push_str(&format!(
        "  \"virtual_users\": {},\n  \"keys\": {},\n  \"zipf_s\": {},\n  \"shards\": {},\n",
        report.virtual_users, report.keys, report.zipf_s, report.shards
    ));
    s.push_str("  \"points\": [\n");
    for (i, p) in report.points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"offered_ops_s\": {:.0}, \"admitted_ops_s\": {:.1}, \
             \"completed\": {}, \"failed\": {}, \"p50_ms\": {:.2}, \
             \"p99_ms\": {:.2}, \"p999_ms\": {:.2}}}{}\n",
            p.offered_ops_s,
            p.admitted_ops_s,
            p.completed,
            p.failed,
            p.p50_ms,
            p.p99_ms,
            p.p999_ms,
            if i + 1 < report.points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"saturation_ops_s\": {:.1},\n  \"knee_ops_s\": {:.0},\n",
        report.saturation_ops_s, report.knee_ops_s
    ));
    s.push_str("  \"per_replica\": [\n");
    for (i, rc) in report.per_replica.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"region\": {}, \"shard_updates\": [{}], \"shard_lookups\": [{}]}}{}\n",
            rc.region,
            list(&rc.shard_updates),
            list(&rc.shard_lookups),
            if i + 1 < report.per_replica.len() {
                ","
            } else {
                ""
            }
        ));
    }
    if let Some(t) = &report.threaded {
        s.push_str("  ],\n");
        s.push_str("  \"threaded_sweep\": {\n");
        s.push_str(&format!(
            "    \"regions\": {}, \"duration_s\": {},\n",
            REGIONS, t.duration_s
        ));
        s.push_str(&format!("    \"note\": \"{}\",\n", t.note));
        s.push_str("    \"points\": [\n");
        for (i, p) in t.points.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"offered_ops_s\": {:.0}, \"completed_ops_s\": {:.1}, \
                 \"completed\": {}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \
                 \"delivered_by_sender\": {}, \"posted\": {}, \"unparks\": {}, \
                 \"delivery_turns\": {}}}{}\n",
                p.offered_ops_s,
                p.completed_ops_s,
                p.completed,
                p.p50_ms,
                p.p99_ms,
                p.delivered_by_sender,
                p.posted,
                p.unparks,
                p.delivery_turns,
                if i + 1 < t.points.len() { "," } else { "" }
            ));
        }
        s.push_str("    ],\n");
        s.push_str(&format!(
            "    \"saturation_ops_s\": {:.1},\n    \"knee_ops_s\": {:.0}\n  }}\n}}\n",
            t.saturation_ops_s, t.knee_ops_s
        ));
    } else {
        s.push_str("  ]\n}\n");
    }
    s
}

/// Canonical location of the tracked JSON: the repo root.
pub fn json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_load.json")
}

/// Run the sweep, print the table, and (re)write the tracked JSON.
/// Unlike [`run`], this also fires the wall-clock threaded sweep —
/// regeneration is the one place wall-clock noise is acceptable.
pub fn regenerate(quick: bool) -> Report {
    let mut report = run(quick);
    // Per-region offered rates bracketing the in-process service
    // capacity (the knee must sit strictly inside the swept range).
    let (threaded_rates, threaded_duration_s): (&[f64], f64) = if quick {
        (&[500.0, 2_000.0, 8_000.0, 32_000.0], 0.4)
    } else {
        (&[500.0, 2_000.0, 8_000.0, 32_000.0, 64_000.0], 1.0)
    };
    report.threaded = Some(run_threaded_sweep(threaded_rates, threaded_duration_s, 42));
    print(&report);
    let path = json_path();
    std::fs::write(&path, to_json(&report)).expect("write BENCH_load.json");
    println!("\nwrote {}", path.display());
    report
}

/// The guardrails on a regenerated report. The bars are on deterministic
/// counters only — the generator's admission accounting and the store's
/// per-shard applied-update and object-table-lookup counts — never on
/// wall-clock throughput or latency, so none can flake with runner
/// speed. The threaded sweep's magnitudes are real time on an unknown
/// runner: it is checked for presence, non-emptiness, and that its
/// delivery counters account for every shipped batch.
pub fn check(report: &Report) -> Result<(), String> {
    ensure(report.points.len() >= 2, || {
        "need at least two offered rates".into()
    })?;
    for p in &report.points {
        ensure(p.completed > 0, || {
            format!("empty measurement window: {p:?}")
        })?;
        // The generator's per-region token budget makes this an
        // invariant, not a wall-clock property.
        ensure(p.admitted_ops_s <= p.offered_ops_s, || {
            format!("admitted exceeds offered: {p:?}")
        })?;
    }
    let ts = report.threaded.as_ref();
    let ts = ts.ok_or("missing section: threaded_sweep")?;
    ensure(ts.points.len() >= 2, || {
        "need at least two threaded rates".into()
    })?;
    ensure(
        ts.points.iter().all(|p| p.completed > 0) && ts.saturation_ops_s > 0.0,
        || format!("the threaded sweep did no work: {ts:?}"),
    )?;
    // Lossless links, every commit writes: each batch reaches each peer
    // through its sender or through the peer's inbox.
    for p in &ts.points {
        ensure(
            p.delivered_by_sender + p.posted >= p.completed * (REGIONS as u64 - 1),
            || format!("batches shipped but neither delivered nor posted: {p:?}"),
        )?;
    }
    ensure(report.shards >= 2, || {
        format!("sharding disabled in the sweep: {}", report.shards)
    })?;
    ensure(report.per_replica.len() == REGIONS, || {
        format!("{REGIONS} regions expected: {}", report.per_replica.len())
    })?;
    for r in &report.per_replica {
        let (ups, region) = (&r.shard_updates, r.region);
        let total: u64 = ups.iter().sum();
        ensure(ups.len() == report.shards && !ups.contains(&0), || {
            format!(
                "region {region}: want {} busy shards: {ups:?}",
                report.shards
            )
        })?;
        // Balance bound: the busiest shard may hold at most 2x the mean
        // — the FNV spread must keep absorbing the Zipf skew.
        let busiest = ups.iter().max().copied().unwrap_or(0);
        ensure(busiest * report.shards as u64 <= 2 * total, || {
            format!("region {region}: shard imbalance {ups:?}")
        })?;
        // Handle-cache bound: at most one object-table lookup per
        // applied update, object creation included.
        let lookups: u64 = r.shard_lookups.iter().sum();
        ensure(lookups <= total, || {
            format!("region {region}: {lookups} lookups for {total} updates")
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plausible wall-clock sweep, for tests that must stay
    /// deterministic.
    fn synthetic_threaded_sweep() -> ThreadedSweep {
        let point = ThreadedPoint {
            offered_ops_s: 1500.0,
            completed_ops_s: 1480.3,
            completed: 592,
            p50_ms: 0.21,
            p99_ms: 1.94,
            delivered_by_sender: 1100,
            posted: 84,
            unparks: 60,
            delivery_turns: 62,
        };
        ThreadedSweep {
            duration_s: 0.4,
            note: "synthetic".into(),
            points: vec![point.clone(), point],
            saturation_ops_s: 1480.3,
            knee_ops_s: 1500.0,
        }
    }

    #[test]
    fn quick_sweep_saturates_and_balances() {
        let mut report = run(true);
        assert_eq!(report.points.len(), 3);
        // Under capacity the cluster keeps up; the heaviest point
        // (440/region ≫ 357/region capacity) must fall behind.
        let light = &report.points[0];
        let heavy = report.points.last().unwrap();
        assert!(
            light.admitted_ops_s >= 0.9 * light.offered_ops_s,
            "open loop admits the offered rate: {light:?}"
        );
        assert!(
            light.p50_ms < 10.0,
            "under capacity the median is service-bound: {light:?}"
        );
        assert!(
            heavy.p50_ms > SATURATION_X * light.p50_ms,
            "past capacity the median is backlog: {heavy:?} vs {light:?}"
        );
        assert!(
            heavy.p999_ms > heavy.p99_ms && heavy.p99_ms > heavy.p50_ms,
            "percentiles are ordered: {heavy:?}"
        );
        assert!(report.saturation_ops_s > 0.0);
        assert!(report.knee_ops_s >= light.offered_ops_s);
        assert!(
            report.knee_ops_s < heavy.offered_ops_s,
            "the heaviest point must sit past the knee"
        );

        // Deterministic counters: every guardrail `--bin load` enforces
        // (admission accounting, shard balance, handle-cache bound)
        // holds, given a threaded sweep to look at — synthetic here, the
        // real one is wall-clock.
        report.threaded = Some(synthetic_threaded_sweep());
        check(&report).expect("the quick sweep is within every guardrail");
        for rc in &report.per_replica {
            assert!(rc.shard_lookups.iter().sum::<u64>() > 0);
        }

        // A planted violation is refused: a point that admits more than
        // was offered.
        report.points[1].admitted_ops_s = report.points[1].offered_ops_s + 1.0;
        let refused = check(&report).expect_err("admitted > offered must be refused");
        assert!(refused.contains("admitted exceeds offered"), "{refused}");
    }

    #[test]
    fn the_sweep_is_deterministic() {
        let a = run(true);
        let b = run(true);
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.completed, y.completed);
            assert_eq!(x.p99_ms, y.p99_ms);
        }
        for (x, y) in a.per_replica.iter().zip(&b.per_replica) {
            assert_eq!(x.shard_updates, y.shard_updates);
            assert_eq!(x.shard_lookups, y.shard_lookups);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = Report {
            quick: true,
            virtual_users: 200_000,
            keys: 1024,
            zipf_s: 0.99,
            shards: 4,
            points: vec![LoadPoint {
                offered_ops_s: 360.0,
                admitted_ops_s: 355.2,
                completed: 533,
                failed: 0,
                p50_ms: 6.1,
                p99_ms: 14.9,
                p999_ms: 21.3,
            }],
            saturation_ops_s: 355.2,
            knee_ops_s: 360.0,
            per_replica: vec![ReplicaCounters {
                region: 0,
                shard_updates: vec![200, 150, 120, 63],
                shard_lookups: vec![180, 140, 110, 60],
            }],
            threaded: None,
        };
        let json = to_json(&report);
        assert!(json.contains("\"figure\": \"load\""));
        assert!(json.contains("\"shard_updates\": [200, 150, 120, 63]"));
        assert!(json.contains("\"saturation_ops_s\": 355.2"));
        assert!(!json.contains("threaded_sweep"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        // With the wall-clock sweep attached, the JSON grows the
        // `threaded_sweep` section CI validates for presence.
        let mut with_threaded = report.clone();
        with_threaded.threaded = Some(synthetic_threaded_sweep());
        let json = to_json(&with_threaded);
        assert!(json.contains("\"threaded_sweep\": {"));
        assert!(json.contains("\"completed_ops_s\": 1480.3"));
        assert!(json.contains("\"knee_ops_s\": 1500"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// Wall-clock smoke for the threaded sweep: tiny rates, short
    /// window, structural assertions only (this runner is single-core
    /// and noisy — absolute latency is the JSON's business, not CI's).
    #[test]
    fn threaded_sweep_smoke() {
        let sweep = run_threaded_sweep(&[100.0, 400.0], 0.3, 7);
        assert_eq!(sweep.points.len(), 2);
        for p in &sweep.points {
            assert!(p.completed > 0, "issuers committed something: {p:?}");
            assert!(
                p.completed_ops_s > 0.0 && p.p50_ms >= 0.0 && p.p99_ms >= p.p50_ms,
                "sane point: {p:?}"
            );
        }
        assert!(sweep.saturation_ops_s > 0.0);
        assert!(sweep.knee_ops_s >= sweep.points[0].offered_ops_s);
    }
}
