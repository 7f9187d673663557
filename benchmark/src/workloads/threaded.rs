//! `steady_mixed`, `saturate_small` and `hot_large`: the same 3-node
//! [`ThreadedCluster`] and the same sliding-window write, driven open
//! loop below the knee, closed loop at capacity, and closed loop on
//! large objects.

use super::{overhead_share, peak_rss_mb, spans_on, timed_setup, Ctx, Outcome};
use crate::gen::{home_region, key_names, op_stream, poisson_arrivals, Op, SetModel};
use crate::metrics::Report;
use crate::stats::{self, percentile, Repeats};
use crate::trace::{Tracer, NO_PARENT};
use crate::{layers, stepped};
use ipa_crdt::{ObjectKind, ReplicaId, Val};
use ipa_store::{Key, StoreError, ThreadedCluster, ThreadedConfig, Transaction};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::Instant;

pub const NODES: u16 = 3;
const CLIENTS: usize = crate::metrics::CLOSED_LOOP_CLIENTS;
/// Ops the stepped replay walks through the stage functions.
pub const STEPPED_OPS: usize = 20_000;

/// One transaction the harness issues, planned against the model before
/// the clock starts.
#[derive(Clone, Debug)]
pub enum Body {
    /// Membership read of an element the model says is present.
    Read { key: u32, elem: i64 },
    /// The write of every set workload: add a fresh element, remove the
    /// oldest, so the object stays at its preloaded size.
    Slide { key: u32, add: i64, remove: i64 },
    /// Many keys in one commit, `(key, add, remove)` each: the preload
    /// (adds only) and `catchup_wide`'s 1,024-update slide.
    Wide(Vec<(u32, i64, Option<i64>)>),
}

#[derive(Clone, Debug)]
pub struct Planned {
    pub at_ns: u64,
    pub region: u16,
    pub body: Body,
}

/// Run a planned body inside a transaction; `Ok(false)` is a read that
/// returned the wrong answer.
pub fn run_body(tx: &mut Transaction<'_>, keys: &[Key], body: &Body) -> Result<bool, StoreError> {
    match body {
        Body::Read { key, elem } => tx.contains(keys[*key as usize].clone(), &Val::Int(*elem)),
        Body::Slide { key, add, remove } => {
            let k = &keys[*key as usize];
            tx.aw_add(k.clone(), Val::Int(*add))?;
            tx.aw_remove(k.clone(), &Val::Int(*remove))?;
            Ok(true)
        }
        Body::Wide(adds) => {
            for (key, add, remove) in adds {
                let k = &keys[*key as usize];
                tx.ensure(k.clone(), ObjectKind::AWSet)?;
                tx.aw_add(k.clone(), Val::Int(*add))?;
                if let Some(old) = remove {
                    tx.aw_remove(k.clone(), &Val::Int(*old))?;
                }
            }
            Ok(true)
        }
    }
}

/// Plan a stream against the model: every write advances it, every read
/// asks for the key's newest element.
pub fn plan(model: &mut SetModel, ops: &[Op]) -> Vec<Planned> {
    ops.iter()
        .map(|op| Planned {
            at_ns: op.at_ns,
            region: home_region(op.key, NODES),
            body: if op.write {
                Body::Slide {
                    key: op.key,
                    add: model.add(op.key),
                    remove: model.remove_oldest(op.key),
                }
            } else {
                Body::Read {
                    key: op.key,
                    elem: model.newest(op.key),
                }
            },
        })
        .collect()
}

/// The preloaded contents of every key: one `(key, elements)` commit per
/// key at its home region. Shared by the cluster fixture and the bare
/// replicas of the stepped replay.
pub fn preload_plan(model: &mut SetModel, keys: usize, preload: usize) -> Vec<Planned> {
    (0..keys as u32)
        .map(|k| Planned {
            at_ns: 0,
            region: home_region(k, NODES),
            body: Body::Wide((0..preload).map(|_| (k, model.add(k), None)).collect()),
        })
        .collect()
}

/// A started cluster with its keys preloaded, and the model of what it
/// holds.
pub struct Bed {
    pub cluster: ThreadedCluster,
    pub keys: Vec<Key>,
    pub model: SetModel,
}

pub fn start_bed(cfg: ThreadedConfig, keys: usize, preload: usize) -> Bed {
    let cluster = ThreadedCluster::start(cfg);
    let names = key_names(keys);
    let mut model = SetModel::new(keys);
    if preload > 0 {
        for p in preload_plan(&mut model, keys, preload) {
            cluster
                .commit_at(p.region, |tx| run_body(tx, &names, &p.body))
                .expect("preload commit");
        }
        cluster.barrier();
    }
    Bed {
        cluster,
        keys: names,
        model,
    }
}

/// The public counters the routing checks and the per-layer table read,
/// summed over replicas; differences between two snapshots isolate the
/// timed section from the preload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub commits: u64,
    pub updates_applied: u64,
    pub table_lookups: u64,
    pub pool_batches: u64,
    pub pool_dispatches: u64,
    pub pool_queued_hwm: u64,
    pub ae_sent: u64,
    pub ae_scanned: u64,
    pub log_len: u64,
    pub prevalidated: u64,
    pub refused_down: u64,
    pub lost_in_crash: u64,
}

pub fn counters(cluster: &ThreadedCluster) -> Counters {
    let mut c = Counters::default();
    for node in 0..cluster.len() as u16 {
        cluster.with_replica(node, |r| {
            c.commits += r.stats.commits;
            c.updates_applied += r.stats.updates_applied;
            c.table_lookups += r.stats.apply_table_lookups;
            c.pool_batches += r.stats.pool_batches;
            c.pool_dispatches += r.stats.pool_dispatches;
            c.ae_sent += r.stats.anti_entropy_sent;
            c.ae_scanned += r.stats.anti_entropy_scanned;
            c.log_len = c.log_len.max(r.log_len() as u64);
            let hwm = r.shard_stats().iter().map(|s| s.pool_queued_hwm).max();
            c.pool_queued_hwm = c.pool_queued_hwm.max(hwm.unwrap_or(0));
        });
    }
    let s = cluster.stats();
    c.prevalidated = s.pipeline_prevalidated.load(Ordering::Relaxed);
    c.refused_down = s.refused_down.load(Ordering::Relaxed);
    c.lost_in_crash = s.lost_in_crash.load(Ordering::Relaxed);
    c
}

/// Which replicas have applied which origin's batches: `min[o]` is the
/// highest sequence of origin `o` that *every* replica's clock covers.
pub fn covered_everywhere(cluster: &ThreadedCluster) -> ([u64; NODES as usize], usize) {
    let mut min = [u64::MAX; NODES as usize];
    let mut pending = 0;
    for node in 0..NODES {
        cluster.with_replica(node, |r| {
            for (o, m) in min.iter_mut().enumerate() {
                *m = (*m).min(r.clock().get(ReplicaId(o as u16)));
            }
            pending = pending.max(r.pending_count());
        });
    }
    (min, pending)
}

/// Stability GC on every replica, off the clock, between repeats. The
/// threaded transport never runs it by itself, so without this the
/// durable logs (and with them `peak_rss_mb`) grow with the number of
/// repeats a faster build fits into the same seconds.
pub fn collect_garbage(cluster: &ThreadedCluster) {
    let ids: Vec<ReplicaId> = (0..NODES).map(ReplicaId).collect();
    for node in 0..NODES {
        cluster.with_replica(node, |r| r.run_gc(&ids));
    }
}

/// Quiesce, then run every output check of a threaded workload and
/// record the counters of its timed section.
pub fn finish_threaded(
    report: &mut Report,
    ctx: &Ctx,
    bed: &mut Bed,
    before: Counters,
    tracer: &mut Tracer,
    narrow_batches_only: bool,
) {
    let rounds = tracer.span("quiesce", NO_PARENT, 0, || bed.cluster.quiesce());
    report.count("threaded.quiesce_rounds", rounds);
    report.check(
        bed.cluster.is_converged(),
        "cluster converged after quiesce",
    );
    for node in 0..NODES {
        let ok = bed.cluster.with_replica(node, |r| r.applied_consistent());
        report.check(ok, "no batch applied twice");
    }
    if ctx.plant {
        bed.model.plant_wrong_element();
    }
    if let Err(e) = bed.model.check(&bed.cluster, &bed.keys) {
        report.fail(format!("sequential model: {e}"));
    }

    let after = counters(&bed.cluster);
    let committed = after.commits - before.commits;
    let ae_sent = after.ae_sent - before.ae_sent;
    let pool_batches = after.pool_batches - before.pool_batches;
    report.count("pool.batches", pool_batches);
    report.count(
        "pool.dispatches",
        after.pool_dispatches - before.pool_dispatches,
    );
    report.count("pool.queued_hwm", after.pool_queued_hwm);
    report.count("threaded.ae_batches_sent", ae_sent);
    report.count(
        "threaded.pipeline_prevalidated",
        after.prevalidated - before.prevalidated,
    );
    report.count(
        "threaded.refused_down",
        after.refused_down - before.refused_down,
    );
    report.count(
        "threaded.lost_in_crash",
        after.lost_in_crash - before.lost_in_crash,
    );
    report.count("replica.log_len", after.log_len);
    let applied = after.updates_applied - before.updates_applied;
    report.layer(
        "replica.apply_table_lookups_per_update",
        Repeats::single(
            (after.table_lookups - before.table_lookups) as f64 / applied.max(1) as f64,
        ),
        applied as usize,
    );
    if narrow_batches_only {
        // Routing is proven, not assumed: these workloads must not reach
        // the shard pool. Anti-entropy is not idle, though the links are
        // lossless: the ticker pulls against a clock that trails the
        // batches still queued in the pipeline and re-sends them.
        report.check(pool_batches == 0, "narrow batches bypass the shard pool");
        report.notes.push(format!(
            "anti-entropy re-sent {ae_sent} batches, {:.1}% of the {committed} committed",
            100.0 * ae_sent as f64 / committed.max(1) as f64
        ));
    }
    report.e2e("peak_rss_mb", Repeats::single(peak_rss_mb()), 1);
}

/// Per-layer probes and the stepped replay every narrow-batch workload's
/// traced run adds.
fn traced_extras(
    report: &mut Report,
    tracer: &mut Tracer,
    keys: usize,
    preload: usize,
    stream: &[Op],
) {
    layers::crdt(report);
    layers::txn(report);
    layers::narrow_batches(report);
    let mut model = SetModel::new(keys);
    let setup = preload_plan(&mut model, keys, preload);
    let ops = plan(&mut model, &stream[..stream.len().min(STEPPED_OPS)]);
    stepped::replay(report, tracer, &key_names(keys), &setup, &ops);
}

// ----------------------------------------------------------------------
// steady_mixed
// ----------------------------------------------------------------------

const STEADY_KEYS: usize = 4096;
const STEADY_PRELOAD: usize = 16;
const STEADY_RATE: f64 = 4_000.0;
/// Latencies are summarised per window and the median window reported:
/// half a second holds ~1,000 writes, so a window's p99 still has ten
/// samples beyond it.
const WINDOW_NS: u64 = 500_000_000;
/// Replica clocks are sampled no more often than this: every sample
/// takes the three node locks the apply threads need.
const PROBE_GAP_NS: u64 = 10_000;
/// Every limit an op misses (a write has two) is counted in
/// `threaded.deadline_missed`. The op has not failed: on a shared runner
/// a miss is a stall of the guest, the count differed 73 to 17 between two
/// sets of runs of one commit, and a count of failures has to repeat
/// exactly.
const COMMIT_LIMIT_NS: u64 = 50_000_000;
const VISIBLE_LIMIT_NS: u64 = 100_000_000;
/// How long the end of the run waits for the last writes to become
/// visible; what is still hidden then has failed.
const DRAIN_LIMIT_NS: u64 = 10_000_000_000;
/// Above this generator lateness the run says nothing about the system.
const LATE_LIMIT_US: f64 = 1_000.0;

/// Writes waiting to be seen at every replica, per origin in commit
/// (= sequence) order.
pub struct Visibility {
    waiting: [VecDeque<(u64, u64)>; NODES as usize],
    last_probe_ns: u64,
    unresolved_at_last_probe: bool,
    probe_gaps_ns: Vec<f64>,
    pub pending_hwm: usize,
}

impl Visibility {
    pub fn new() -> Visibility {
        Visibility {
            waiting: Default::default(),
            last_probe_ns: 0,
            unresolved_at_last_probe: false,
            probe_gaps_ns: Vec::new(),
            pending_hwm: 0,
        }
    }

    pub fn outstanding(&self) -> usize {
        self.waiting.iter().map(VecDeque::len).sum()
    }

    /// A write committed at `origin` as its batch number `seq`.
    pub fn committed(&mut self, origin: u16, seq: u64, at_ns: u64) {
        self.waiting[origin as usize].push_back((seq, at_ns));
    }

    /// Sample the replica clocks and hand every write they now all cover
    /// to `seen(scheduled_at_ns)`.
    pub fn probe(&mut self, cluster: &ThreadedCluster, now_ns: u64, mut seen: impl FnMut(u64)) {
        // Resolution = spacing of samples while a write is waiting.
        if self.unresolved_at_last_probe {
            self.probe_gaps_ns
                .push((now_ns - self.last_probe_ns) as f64);
        }
        self.last_probe_ns = now_ns;
        let (covered, pending) = covered_everywhere(cluster);
        self.pending_hwm = self.pending_hwm.max(pending);
        for (origin, queue) in self.waiting.iter_mut().enumerate() {
            while queue
                .front()
                .is_some_and(|&(seq, _)| seq <= covered[origin])
            {
                seen(queue.pop_front().expect("front checked").1);
            }
        }
        self.unresolved_at_last_probe = self.outstanding() > 0;
    }
}

pub fn steady_mixed(ctx: &Ctx) -> Outcome {
    let mut report = Report::new("steady_mixed");
    let mut bed = timed_setup(&mut report, || {
        start_bed(ThreadedConfig::default(), STEADY_KEYS, STEADY_PRELOAD)
    });
    let seconds = ctx.workload_seconds();
    let count = (STEADY_RATE * seconds * 1.2) as usize + 64;
    let stream = op_stream(ctx.seed, STEADY_KEYS, count, 0.5);
    let arrivals = poisson_arrivals(ctx.seed, stream, STEADY_RATE, seconds);
    let ops = plan(&mut bed.model, &arrivals);
    let before = counters(&bed.cluster);

    let windows = (seconds * 1e9 / WINDOW_NS as f64).ceil().max(1.0) as usize;
    let window_of = |at_ns: u64| ((at_ns / WINDOW_NS) as usize).min(windows - 1);
    let mut write_us = vec![Vec::new(); windows];
    let mut read_us = vec![Vec::new(); windows];
    let mut visible_us = vec![Vec::new(); windows];
    let mut late_us = Vec::with_capacity(ops.len());
    let mut vis = Visibility::new();
    let (mut failed, mut missed) = (0u64, 0u64);
    let (mut visible_count, mut last_visible_ns) = (0u64, 0u64);
    let mut on_seen = |at_ns: u64, now_ns: u64, missed: &mut u64| {
        let took = now_ns - at_ns;
        *missed += u64::from(took > VISIBLE_LIMIT_NS);
        visible_us[window_of(at_ns)].push(took as f64 / 1e3);
        visible_count += 1;
        last_visible_ns = now_ns;
    };

    let t0 = Instant::now();
    let now_ns = || t0.elapsed().as_nanos() as u64;
    let mut tracer = Tracer::new(t0, false);
    for (i, op) in ops.iter().enumerate() {
        // Idle until the scheduled arrival, resolving visibility
        // meanwhile.
        let mut now = now_ns();
        while now < op.at_ns {
            if vis.outstanding() > 0 && now - vis.last_probe_ns >= PROBE_GAP_NS {
                vis.probe(&bed.cluster, now, |at| on_seen(at, now, &mut missed));
            } else {
                std::hint::spin_loop();
            }
            now = now_ns();
        }
        late_us.push((now - op.at_ns) as f64 / 1e3);
        tracer.set_enabled(spans_on(ctx, window_of(op.at_ns)));
        let span = tracer.begin("commit_at", NO_PARENT, i as u64);
        let result = bed
            .cluster
            .commit_at(op.region, |tx| run_body(tx, &bed.keys, &op.body));
        tracer.end(span);
        let took = now_ns() - op.at_ns;
        let is_write = matches!(op.body, Body::Slide { .. });
        match result {
            Ok((true, info)) => {
                missed += u64::from(took > COMMIT_LIMIT_NS);
                let sink = if is_write {
                    &mut write_us
                } else {
                    &mut read_us
                };
                sink[window_of(op.at_ns)].push(took as f64 / 1e3);
                if is_write {
                    vis.committed(op.region, info.clock.get(ReplicaId(op.region)), op.at_ns);
                }
            }
            _ => failed += 1,
        }
    }
    // Drain: the links are lossless, so every committed write becomes
    // visible; one that does not has failed.
    let drain_until = now_ns() + DRAIN_LIMIT_NS;
    while vis.outstanding() > 0 && now_ns() < drain_until {
        let now = now_ns();
        vis.probe(&bed.cluster, now, |at| on_seen(at, now, &mut missed));
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
    failed += vis.outstanding() as u64;

    let attempted = ops.len() as u64;
    let reads_ok: usize = read_us.iter().map(Vec::len).sum();
    let done = visible_count + reads_ok as u64;
    report.e2e(
        "goodput_ops_s",
        Repeats::single(done as f64 / (last_visible_ns.max(1) as f64 / 1e9)),
        done as usize,
    );
    let samples = |w: &[Vec<f64>]| w.iter().map(Vec::len).sum::<usize>();
    for (name, w, q) in [
        ("write_p50_us", &write_us, Some(0.5)),
        ("read_p50_us", &read_us, Some(0.5)),
        ("visible_p50_us", &visible_us, Some(0.5)),
        ("visible_p99_us", &visible_us, None),
    ] {
        match stats::windowed(w, q) {
            Some(r) => report.e2e(name, r, samples(w)),
            None => report.fail(format!("{name}: no sample")),
        }
    }
    for (name, w) in [
        ("threaded.write_p99_us", &write_us),
        ("threaded.read_p99_us", &read_us),
    ] {
        if let Some(r) = stats::windowed(w, None) {
            report.layer(name, r, samples(w));
        }
    }
    stats::sort(&mut late_us);
    let late_p99 = percentile(&late_us, 0.99);
    report.layer("gen.late_p99_us", Repeats::single(late_p99), late_us.len());
    if late_p99 > LATE_LIMIT_US {
        report.valid = false;
        report.notes.push(format!(
            "invalid: generator ran {late_p99:.0} us late at p99 (limit {LATE_LIMIT_US} us)"
        ));
    }
    if !vis.probe_gaps_ns.is_empty() {
        let gap = stats::median(&vis.probe_gaps_ns) / 1e3;
        report.layer(
            "gen.probe_resolution_us",
            Repeats::single(gap),
            vis.probe_gaps_ns.len(),
        );
    }
    report.count("replica.pending_hwm", vis.pending_hwm as u64);
    report.count("threaded.deadline_missed", missed);
    if ctx.traced {
        let per_window: Vec<f64> = write_us
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| stats::median(w))
            .collect();
        overhead_share(&mut report, &per_window, false);
    }

    finish_threaded(&mut report, ctx, &mut bed, before, &mut tracer, true);
    report.finish(attempted, failed);
    if ctx.traced {
        traced_extras(
            &mut report,
            &mut tracer,
            STEADY_KEYS,
            STEADY_PRELOAD,
            &arrivals,
        );
        if let (Some(visible), Some(stages)) = (
            report.get("visible_p50_us").map(|m| m.value),
            stepped::one_peer_path_p50_us(&report),
        ) {
            // What the stage functions do not explain: channel hand-offs,
            // thread wake-ups and queueing.
            report.layer("stage.handoff_p50_us", Repeats::single(visible - stages), 1);
        }
    }
    Outcome { report, tracer }
}

// ----------------------------------------------------------------------
// saturate_small / hot_large
// ----------------------------------------------------------------------

/// What distinguishes the two closed-loop workloads: object count and
/// size, and how many writes one timed chunk holds.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    name: &'static str,
    keys: usize,
    preload: usize,
    chunk_writes: usize,
}

impl Shape {
    /// 4,096 keys of 16 elements: the `steady_mixed` objects at capacity.
    pub const SMALL: Shape = Shape {
        name: "saturate_small",
        keys: 4096,
        preload: 16,
        chunk_writes: 10_000,
    };
    /// 64 keys of 4,096 elements: the Twitter-timeline shape.
    pub const LARGE: Shape = Shape {
        name: "hot_large",
        keys: 64,
        preload: 4096,
        chunk_writes: 1_000,
    };
}

/// Split one chunk's writes over the client threads. All writes of a key
/// go to one thread in stream order (so the model stays sequential per
/// key); keys are dealt heaviest first to the lighter thread, so both
/// threads finish together whatever the seed made hot.
fn deal(ops: Vec<Planned>, keys: usize) -> Vec<Vec<Planned>> {
    let key_of = |p: &Planned| match p.body {
        Body::Slide { key, .. } | Body::Read { key, .. } => key as usize,
        Body::Wide(_) => unreachable!("closed-loop chunks hold single-key ops"),
    };
    let mut weight = vec![0usize; keys];
    for p in &ops {
        weight[key_of(p)] += 1;
    }
    let mut order: Vec<usize> = (0..keys).filter(|&k| weight[k] > 0).collect();
    order.sort_by_key(|&k| (std::cmp::Reverse(weight[k]), k));
    let mut owner = vec![0usize; keys];
    let mut load = [0usize; CLIENTS];
    for k in order {
        let t = (0..CLIENTS).min_by_key(|&t| load[t]).expect("CLIENTS > 0");
        owner[k] = t;
        load[t] += weight[k];
    }
    let mut per_thread: Vec<Vec<Planned>> = vec![Vec::new(); CLIENTS];
    for p in ops {
        per_thread[owner[key_of(&p)]].push(p);
    }
    per_thread
}

pub fn closed_loop(ctx: &Ctx, shape: Shape) -> Outcome {
    let mut report = Report::new(shape.name);
    let mut bed = timed_setup(&mut report, || {
        start_bed(ThreadedConfig::default(), shape.keys, shape.preload)
    });
    let chunk_writes = ctx.size(shape.chunk_writes, 200);
    let before = counters(&bed.cluster);
    let t0 = Instant::now();
    let mut tracer = Tracer::new(t0, false);
    let mut stream_rng_seed = ctx.seed;
    let mut first_stream = Vec::new();

    let (mut goodput, mut commit_rate, mut p50_us, mut barrier_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut chunk = 0usize;
    // Fixed work per chunk, as many chunks as the budget holds (at least
    // three, so there is a median): both sides of a comparison time
    // identical work.
    while chunk < 3 || t0.elapsed().as_secs_f64() < ctx.workload_seconds() {
        let stream = op_stream(stream_rng_seed, shape.keys, chunk_writes, 0.0);
        stream_rng_seed = stream_rng_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(1);
        let per_thread = deal(plan(&mut bed.model, &stream), shape.keys);
        if chunk == 0 {
            first_stream = stream;
        }
        let trace_chunk = spans_on(ctx, chunk);
        let (cluster, keys) = (&bed.cluster, &bed.keys);
        let base_op = attempted;
        let start = Instant::now();
        let results: Vec<(Vec<f64>, u64, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = per_thread
                .iter()
                .enumerate()
                .map(|(t, ops)| {
                    s.spawn(move || {
                        let mut tr = Tracer::new(t0, trace_chunk);
                        let mut lat_us = Vec::with_capacity(ops.len());
                        let mut failed = 0u64;
                        for (i, op) in ops.iter().enumerate() {
                            let id = base_op + (i * CLIENTS + t) as u64;
                            let span = tr.begin("commit_at", NO_PARENT, id);
                            let began = Instant::now();
                            let r = cluster.commit_at(op.region, |tx| run_body(tx, keys, &op.body));
                            lat_us.push(began.elapsed().as_nanos() as f64 / 1e3);
                            tr.end(span);
                            if !matches!(r, Ok((true, _))) {
                                failed += 1;
                            }
                        }
                        (lat_us, failed, tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let committed_s = start.elapsed().as_secs_f64();
        // Visible at every replica: the links are lossless, so once every
        // node thread has drained its inbox all three clocks agree.
        tracer.set_enabled(trace_chunk);
        tracer.span("barrier", NO_PARENT, base_op, || bed.cluster.barrier());
        let total_s = start.elapsed().as_secs_f64();
        let everywhere = bed.cluster.is_converged();

        let mut lat_us = Vec::with_capacity(chunk_writes);
        let mut chunk_failed = 0;
        for (lat, f, tr) in results {
            lat_us.extend(lat);
            chunk_failed += f;
            tracer.absorb(tr);
        }
        if !everywhere {
            chunk_failed = chunk_writes as u64;
        }
        attempted += chunk_writes as u64;
        failed += chunk_failed;
        stats::sort(&mut lat_us);
        goodput.push((chunk_writes as u64 - chunk_failed) as f64 / total_s);
        commit_rate.push(chunk_writes as f64 / committed_s);
        p50_us.push(percentile(&lat_us, 0.5));
        barrier_us.push((total_s - committed_s) * 1e6);
        collect_garbage(&bed.cluster);
        chunk += 1;
    }

    let chunks = goodput.len();
    report.e2e("goodput_ops_s", Repeats::of(&goodput), attempted as usize);
    report.e2e("write_p50_us", Repeats::of(&p50_us), attempted as usize);
    report.layer("threaded.commit_ops_s", Repeats::of(&commit_rate), chunks);
    report.layer("threaded.barrier_us", Repeats::of(&barrier_us), chunks);
    if ctx.traced {
        overhead_share(&mut report, &goodput, true);
    }
    finish_threaded(&mut report, ctx, &mut bed, before, &mut tracer, true);
    report.finish(attempted, failed);
    if ctx.traced {
        traced_extras(
            &mut report,
            &mut tracer,
            shape.keys,
            shape.preload,
            &first_stream,
        );
        layers::cluster_sync(
            &mut report,
            ctx.seed,
            shape.keys,
            shape.preload,
            chunk_writes,
        );
    }
    Outcome { report, tracer }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_ticker() -> ThreadedConfig {
        ThreadedConfig {
            ae_interval: None,
            ..Default::default()
        }
    }

    /// A batch a cut link withheld is reported not visible; after the
    /// heal and repair it is.
    #[test]
    fn probe_sees_a_withheld_batch_only_after_heal() {
        let bed = start_bed(no_ticker(), 4, 2);
        bed.cluster.set_link_up(0, 1, false);
        bed.cluster.set_link_up(1, 2, false);
        let body = Body::Slide {
            key: 0,
            add: 2,
            remove: 0,
        };
        let (_, info) = bed
            .cluster
            .commit_at(0, |tx| run_body(tx, &bed.keys, &body))
            .unwrap();
        bed.cluster.barrier();
        let mut vis = Visibility::new();
        vis.committed(0, info.clock.get(ReplicaId(0)), 123);
        let mut seen = Vec::new();
        vis.probe(&bed.cluster, 1_000, |at| seen.push(at));
        assert!(seen.is_empty(), "replica 1 cannot have it yet");
        assert_eq!(vis.outstanding(), 1);
        bed.cluster.set_link_up(0, 1, true);
        bed.cluster.set_link_up(1, 2, true);
        bed.cluster.quiesce();
        vis.probe(&bed.cluster, 2_000, |at| seen.push(at));
        assert_eq!(seen, vec![123]);
        assert_eq!(vis.outstanding(), 0);
    }

    /// The model check passes on a faithful run and fails once a wrong
    /// element is planted.
    #[test]
    fn model_check_catches_a_planted_element() {
        let mut bed = start_bed(no_ticker(), 8, 4);
        let ops = plan(&mut bed.model, &op_stream(5, 8, 200, 0.3));
        for op in &ops {
            let (ok, _) = bed
                .cluster
                .commit_at(op.region, |tx| run_body(tx, &bed.keys, &op.body))
                .unwrap();
            assert!(ok, "reads see the element the model names");
        }
        bed.cluster.quiesce();
        assert_eq!(bed.model.check(&bed.cluster, &bed.keys), Ok(()));
        bed.model.plant_wrong_element();
        let err = bed.model.check(&bed.cluster, &bed.keys).unwrap_err();
        assert!(err.contains("model expects"), "{err}");
    }

    #[test]
    fn deal_keeps_key_order_and_balances() {
        let mut model = SetModel::new(64);
        for k in 0..64 {
            model.add(k);
        }
        let ops = plan(&mut model, &op_stream(9, 64, 4_000, 0.0));
        let dealt = deal(ops.clone(), 64);
        let (a, b) = (dealt[0].len(), dealt[1].len());
        assert_eq!(a + b, ops.len());
        assert!(a.abs_diff(b) * 50 <= ops.len(), "{a} vs {b}");
        // Per key, the adds a thread holds are still ascending.
        for thread in &dealt {
            let mut last = std::collections::HashMap::new();
            for p in thread {
                if let Body::Slide { key, add, .. } = p.body {
                    assert!(last.insert(key, add).is_none_or(|prev| prev < add));
                }
            }
        }
    }

    #[test]
    fn smoke_steady_mixed_reports_every_metric() {
        let ctx = Ctx {
            seed: 1,
            seconds: 0.2,
            shrink: 50,
            traced: false,
            plant: false,
        };
        let out = steady_mixed(&ctx);
        assert!(out.report.correct, "{:?}", out.report.notes);
        for name in ["setup_s", "goodput_ops_s", "write_p50_us", "visible_p99_us"] {
            assert!(
                out.report.get(name).is_some_and(|m| m.value > 0.0),
                "{name}"
            );
        }
    }
}
