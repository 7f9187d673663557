//! Per-layer probes of the traced run: each times public calls of one
//! crate or module on bare objects, outside any cluster, so a number
//! here can be attributed to exactly one layer.

use crate::gen::{key_names, op_stream, SetModel};
use crate::metrics::{Report, APPS};
use crate::stats::{self, percentile, Repeats};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::analyze::specs;
use crate::workloads::catchup::SLIDES_PER_COMMIT;
use crate::workloads::threaded::{plan, preload_plan, run_body, Body, Planned, NODES};
use ipa_core::universe::build_universe;
use ipa_core::{check_pair, AnalysisConfig};
use ipa_crdt::{AWSet, Object, ReplicaId, Tag, VClock, Val};
use ipa_solver::tseitin::Encoder;
use ipa_solver::{Grounder, Solver};
use ipa_store::{ApplyDispatch, Cluster, Key, Replica, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repeats per probe.
const REPEATS: usize = 7;

/// Time `f` (which runs `iters` operations) [`REPEATS`] times; ns per
/// operation.
fn per_op_ns(iters: usize, mut f: impl FnMut()) -> Repeats {
    let runs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    Repeats::of(&runs)
}

fn awset_of(n: usize) -> AWSet<Val> {
    let mut s = AWSet::new();
    for i in 0..n {
        let op = s.prepare_add(Val::Int(i as i64), Tag::new(ReplicaId(0), i as u64 + 1));
        s.apply(&op);
    }
    s
}

/// `ipa-crdt`: add into, and clone of, a small and a large add-wins
/// set; vector-clock merge.
pub fn crdt(report: &mut Report) {
    for n in [16usize, 4096] {
        let base = awset_of(n);
        // Eight adds on a fresh clone, so the set stays near its size;
        // the clone is outside the timer.
        const ADDS: usize = 8;
        let rounds = 500;
        let mut total = Vec::new();
        for _ in 0..REPEATS {
            let mut ns = 0u128;
            for r in 0..rounds {
                let mut s = base.clone();
                let t = Instant::now();
                for j in 0..ADDS {
                    let e = (n + r * ADDS + j) as i64;
                    let op = s.prepare_add(Val::Int(e), Tag::new(ReplicaId(1), e as u64));
                    s.apply(&op);
                }
                ns += t.elapsed().as_nanos();
                black_box(&s);
            }
            total.push(ns as f64 / (rounds * ADDS) as f64);
        }
        report.layer(
            &format!("crdt.awset_add_ns.{n}"),
            Repeats::of(&total),
            rounds * ADDS,
        );
        let obj = Object::AWSet(base);
        let iters = if n > 1000 { 100 } else { 50_000 };
        let clone = per_op_ns(iters, || {
            for _ in 0..iters {
                black_box(black_box(&obj).clone());
            }
        });
        report.layer(&format!("crdt.object_clone_ns.{n}"), clone, iters);
    }
    let a = VClock::from_raw(vec![10, 20, 30]);
    let mut b = VClock::from_raw(vec![30, 10, 20]);
    let iters = 200_000;
    let merge = per_op_ns(iters, || {
        for _ in 0..iters {
            black_box(&mut b).merge(black_box(&a));
        }
    });
    report.layer("crdt.clock_merge_ns", merge, iters);
}

/// A bare replica holding `keys` sets of `preload` elements, with the
/// model of what it holds.
fn loaded_replica(keys: usize, preload: usize) -> (Replica, Vec<Key>, SetModel) {
    let names = key_names(keys);
    let mut model = SetModel::new(keys);
    let mut replica = Replica::new(ReplicaId(0));
    for p in preload_plan(&mut model, keys, preload) {
        let mut tx = replica.begin();
        run_body(&mut tx, &names, &p.body).expect("preload");
        tx.commit();
    }
    replica.take_outbox();
    (replica, names, model)
}

/// `ipa-store::txn`: `begin` → body → `commit` on a bare replica, for
/// the small-object write, the large-object write and the read.
pub fn txn(report: &mut Report) {
    for (name, keys, preload, ops, read_share) in [
        ("txn.commit_us.small", 4096, 16, 10_000, 0.0),
        ("txn.commit_us.large", 64, 4096, 100, 0.0),
        ("txn.read_us", 4096, 16, 10_000, 1.0),
    ] {
        let (mut replica, names, mut model) = loaded_replica(keys, preload);
        let planned = plan(&mut model, &op_stream(11, keys, ops * REPEATS, read_share));
        let mut chunks = planned.chunks(ops);
        let mut updates = 0;
        let r = per_op_ns(ops, || {
            for p in chunks.next().expect("one chunk per repeat") {
                let mut tx = replica.begin();
                black_box(run_body(&mut tx, &names, &p.body).expect("txn body"));
                updates = tx.commit().updates;
            }
            replica.take_outbox();
        });
        report.layer(name, r.scaled(1e-3), ops);
        if name == "txn.commit_us.small" {
            report.count("txn.updates_per_commit", updates as u64);
        }
    }
}

/// Committed batches of slide writes at replica 0, and a peer that has
/// received the preload and can apply them.
fn narrow_feed(ops: usize) -> (Vec<Arc<UpdateBatch>>, Replica) {
    let (mut origin, names, mut model) = loaded_replica(4096, 16);
    let mut peer = Replica::new(ReplicaId(1));
    for b in origin.batches_since(&VClock::new()) {
        peer.receive(b);
    }
    let mut feed = Vec::with_capacity(ops);
    for p in plan(&mut model, &op_stream(12, 4096, ops, 0.0)) {
        let mut tx = origin.begin();
        run_body(&mut tx, &names, &p.body).expect("slide");
        tx.commit();
        feed.extend(origin.take_outbox());
    }
    (feed, peer)
}

/// `ipa-store::batch` and `::replica` on two-update batches: the ingest
/// gate's predicate, the wire-size estimate, and causal delivery.
pub fn narrow_batches(report: &mut Report) {
    let ops = 20_000;
    let (feed, mut peer) = narrow_feed(ops);
    let gate = per_op_ns(ops, || {
        for b in &feed {
            black_box(b.integrity_ok() && b.well_formed());
        }
    });
    report.layer("batch.seal_check_ns.narrow", gate, ops);
    let bytes: usize = feed.iter().map(|b| b.encoded_len()).sum();
    report.layer(
        "batch.encoded_bytes_per_op",
        Repeats::single(bytes as f64 / ops as f64),
        ops,
    );
    // Delivery is not repeatable on one peer (a second pass would be all
    // duplicates): one timed pass, split into REPEATS slices.
    let slice = ops / REPEATS;
    let runs: Vec<f64> = feed
        .chunks(slice)
        .take(REPEATS)
        .map(|chunk| {
            let t = Instant::now();
            for b in chunk {
                black_box(peer.receive_prevalidated(Arc::clone(b), true));
            }
            t.elapsed().as_nanos() as f64 / 1e3 / chunk.len() as f64
        })
        .collect();
    report.layer(
        "replica.receive_us.narrow",
        Repeats::of(&runs),
        slice * REPEATS,
    );
}

/// `ipa-store::batch`, `::replica` and `::pool` on 1,024-update batches:
/// the gate, delivery applied inline versus through the shard pool, and
/// the anti-entropy pull that serves a recovering peer.
pub fn wide_batches(report: &mut Report, seed: u64) {
    const KEYS: usize = 65_536;
    const BATCHES: usize = 56;
    let names = key_names(KEYS);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut origin = Replica::new(ReplicaId(0));
    let mut next = 0i64;
    let feed: Vec<Arc<UpdateBatch>> = (0..BATCHES)
        .flat_map(|_| {
            let adds = (0..2 * SLIDES_PER_COMMIT)
                .map(|_| {
                    next += 1;
                    (rng.gen_range(0..KEYS as u32), next, None)
                })
                .collect();
            let mut tx = origin.begin();
            run_body(&mut tx, &names, &Body::Wide(adds)).expect("wide body");
            tx.commit();
            origin.take_outbox()
        })
        .collect();
    let gate = per_op_ns(BATCHES, || {
        for b in &feed {
            black_box(b.integrity_ok() && b.well_formed());
        }
    });
    report.layer("batch.seal_check_ns.wide", gate, BATCHES);

    let slice = BATCHES / REPEATS;
    let deliver = |dispatch: ApplyDispatch| -> Repeats {
        let mut peer = Replica::new(ReplicaId(1));
        peer.set_apply_dispatch(dispatch);
        let runs: Vec<f64> = feed
            .chunks(slice)
            .map(|chunk| {
                let t = Instant::now();
                for b in chunk {
                    black_box(peer.receive_prevalidated(Arc::clone(b), true));
                }
                t.elapsed().as_nanos() as f64 / 1e3 / chunk.len() as f64
            })
            .collect();
        // The first slice creates the objects (and spawns the pool).
        Repeats::of(&runs[1..])
    };
    let inline = deliver(ApplyDispatch::Sequential);
    let pool = deliver(ApplyDispatch::Pool);
    report.layer(
        "pool.vs_inline_x",
        Repeats::single(inline.quiet(true) / pool.quiet(true)),
        BATCHES - slice,
    );
    report.layer("replica.receive_us.wide", inline.clone(), BATCHES - slice);
    report.layer("pool.apply_wide_inline_us", inline, BATCHES - slice);
    report.layer("pool.apply_wide_pool_us", pool, BATCHES - slice);

    // A peer that has the first half asks for the rest.
    let mut since = VClock::new();
    since.set(ReplicaId(0), (BATCHES / 2) as u64);
    let pulls = 200;
    let scanned_before = origin.stats.anti_entropy_scanned;
    let pull = per_op_ns(pulls, || {
        for _ in 0..pulls {
            black_box(origin.batches_since(black_box(&since)));
        }
    });
    report.layer("replica.batches_since_us", pull.scaled(1e-3), pulls);
    let scanned = origin.stats.anti_entropy_scanned - scanned_before;
    report.layer(
        "replica.ae_scanned_per_pull",
        Repeats::single(scanned as f64 / (pulls * REPEATS) as f64),
        pulls * REPEATS,
    );
}

/// `ipa-store::cluster`: the `saturate_small` write stream through the
/// synchronous single-threaded [`Cluster`] — the no-threads baseline
/// that threaded goodput is an efficiency against.
pub fn cluster_sync(report: &mut Report, seed: u64, keys: usize, preload: usize, writes: usize) {
    let names = key_names(keys);
    let mut model = SetModel::new(keys);
    let mut cluster = Cluster::new(NODES);
    let commit = |cluster: &mut Cluster, p: &Planned| {
        let mut tx = cluster.replica_mut(ReplicaId(p.region)).begin();
        run_body(&mut tx, &names, &p.body).expect("sync commit");
        tx.commit();
        cluster.sync();
    };
    for p in preload_plan(&mut model, keys, preload) {
        commit(&mut cluster, &p);
    }
    let runs: Vec<f64> = (0..3u64)
        .map(|i| {
            let ops = plan(&mut model, &op_stream(seed ^ i, keys, writes, 0.0));
            let t = Instant::now();
            for p in &ops {
                commit(&mut cluster, p);
            }
            writes as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    report.check(cluster.converged(), "synchronous cluster converged");
    report.layer(
        "cluster.sync_ops_s",
        Repeats::of(&runs),
        writes * runs.len(),
    );
}

/// `ipa-spec`, `ipa-solver`, `ipa-core`: spec construction, grounding
/// and SAT on the tournament invariant, and every pairwise conflict
/// check of the four original specs.
pub fn static_half(report: &mut Report, tracer: &mut Tracer) {
    type Build = fn() -> ipa_spec::AppSpec;
    let builders: [Build; 4] = [
        ipa_apps::tournament::tournament_spec,
        || ipa_apps::twitter::twitter_spec(false),
        ipa_apps::ticket::ticket_spec,
        ipa_apps::tpc::tpc_spec,
    ];
    for (name, build) in APPS.iter().zip(builders) {
        let iters = 200;
        let r = per_op_ns(iters, || {
            for _ in 0..iters {
                black_box(build());
            }
        });
        report.layer(&format!("spec.build_us.{name}"), r.scaled(1e-3), iters);
    }

    // The tournament invariant conjunction, grounded over the analysis'
    // own small-scope universe, encoded and solved.
    let specs = specs();
    let spec = &specs[0];
    let cfg = AnalysisConfig::tuned_for(spec);
    let universe = build_universe(spec, cfg.universe_per_sort);
    let (mut ground_ms, mut sat_ms) = (Vec::new(), Vec::new());
    let mut stats = Default::default();
    for _ in 0..REPEATS {
        let t = Instant::now();
        let grounder = Grounder::new(&universe, &spec.predicates, &spec.constants);
        let mut encoder = Encoder::new(cfg.numeric_bound);
        for inv in &spec.invariants {
            encoder.assert(&grounder.ground(inv).expect("invariant grounds"));
        }
        ground_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let mut solver = Solver::new();
        for clause in &encoder.cnf.clauses {
            solver.add_clause(&clause.lits);
        }
        let sat = solver.solve();
        sat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(sat, "the tournament invariant is satisfiable");
        stats = solver.stats;
    }
    report.layer("solver.ground_ms", Repeats::of(&ground_ms), REPEATS);
    report.layer("solver.sat_ms", Repeats::of(&sat_ms), REPEATS);
    report.count("solver.decisions", stats.decisions);
    report.count("solver.conflicts", stats.conflicts);
    report.count("solver.propagations", stats.propagations);

    tracer.set_enabled(true);
    let mut pair_us = Vec::new();
    for (app, spec) in specs.iter().enumerate() {
        let cfg = AnalysisConfig::tuned_for(spec);
        for (i, a) in spec.operations.iter().enumerate() {
            for b in &spec.operations[i..] {
                let t = Instant::now();
                let w = tracer.span("check_pair", NO_PARENT, app as u64, || {
                    check_pair(spec, &cfg, a, b)
                });
                pair_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                black_box(w.expect("pair checks"));
            }
        }
    }
    let n = pair_us.len();
    stats::sort(&mut pair_us);
    report.layer(
        "core.check_pair_p50_us",
        Repeats::single(percentile(&pair_us, 0.5)),
        n,
    );
    report.layer(
        "core.check_pair_p99_us",
        Repeats::single(percentile(&pair_us, 0.99)),
        n,
    );
    report.count("core.pairs_checked", n as u64);
}
