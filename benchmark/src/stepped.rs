//! The stepped replay: a workload's op stream walked on one thread over
//! three bare replicas through the public stage functions — commit,
//! seal + ship, ingest gate, apply — one child span per stage. It yields
//! the stage table without touching the program; what the threaded run's
//! end-to-end latency has on top is hand-off and queueing.

use crate::metrics::Report;
use crate::stats::{self, percentile, Repeats};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::threaded::{run_body, Planned, NODES};
use ipa_crdt::ReplicaId;
use ipa_store::{Key, Replica};
use std::sync::Arc;

/// Stage span names, in pipeline order.
pub const STAGES: [&str; 4] = ["commit", "seal_ship", "ingest_gate", "apply"];

/// One op through every stage. Each clock reading closes one stage and
/// opens the next, so the stage spans tile the op span exactly. Returns
/// false when a peer did not apply the batch.
fn step(replicas: &mut [Replica], keys: &[Key], p: &Planned, tracer: &mut Tracer, op: u64) -> bool {
    let origin = p.region as usize;
    let mut stages: Vec<(&'static str, u64, u64)> = Vec::with_capacity(6);
    let began = tracer.now_ns();
    let mut last = began;
    let mut stage = |name: &'static str, tracer: &Tracer| {
        let now = tracer.now_ns();
        stages.push((name, last, now));
        last = now;
    };
    let mut tx = replicas[origin].begin();
    run_body(&mut tx, keys, &p.body).expect("stepped body");
    tx.commit();
    stage("commit", tracer);
    let batches = replicas[origin].take_outbox();
    stage("seal_ship", tracer);
    let mut applied = true;
    for (peer, replica) in replicas.iter_mut().enumerate() {
        if peer == origin {
            continue;
        }
        for b in &batches {
            let ok = b.integrity_ok() && b.well_formed();
            stage("ingest_gate", tracer);
            applied &= replica.receive_prevalidated(Arc::clone(b), ok) == 1;
            stage("apply", tracer);
        }
    }
    let parent = tracer.record("op", began, last, NO_PARENT, op);
    for (name, start, end) in stages {
        tracer.record(name, start, end, parent, op);
    }
    applied
}

/// Replay `ops` (after the untraced `setup` ops) and record the stage
/// table: p50 and p99 of every stage's spans, and of the whole op.
pub fn replay(
    report: &mut Report,
    tracer: &mut Tracer,
    keys: &[Key],
    setup: &[Planned],
    ops: &[Planned],
) {
    let mut replicas: Vec<Replica> = (0..NODES).map(|i| Replica::new(ReplicaId(i))).collect();
    // Its own buffer, so the workload's spans cannot use up the cap.
    let mut own = tracer.sibling();
    own.set_enabled(false);
    for p in setup {
        step(&mut replicas, keys, p, &mut own, 0);
    }
    own.set_enabled(true);
    let mut all_applied = true;
    for (i, p) in ops.iter().enumerate() {
        all_applied &= step(&mut replicas, keys, p, &mut own, i as u64);
    }
    report.check(
        all_applied,
        "stepped replay: every peer applied every batch",
    );
    let clocks_agree = replicas.iter().all(|r| r.clock() == replicas[0].clock());
    report.check(clocks_agree, "stepped replay: replicas converged");

    let recorded = &own.spans;
    let durations_us = |name: &str| -> Vec<f64> {
        let mut v: Vec<f64> = recorded
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        stats::sort(&mut v);
        v
    };
    let ops_us = durations_us("op");
    if ops_us.is_empty() {
        return;
    }
    for stage in STAGES {
        let d = durations_us(stage);
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            report.layer(
                &format!("stage.{stage}_{tag}_us"),
                Repeats::single(percentile(&d, q)),
                d.len(),
            );
        }
    }
    report.layer(
        "stage.op_p50_us",
        Repeats::single(percentile(&ops_us, 0.5)),
        ops_us.len(),
    );
    // Self time of the op spans is what no stage accounts for: it must
    // stay a sliver, or the table does not explain the op.
    let unexplained_us: f64 = own
        .self_times_ns()
        .iter()
        .zip(recorded)
        .filter(|(_, s)| s.name == "op")
        .map(|(own_ns, _)| *own_ns as f64 / 1e3)
        .sum();
    let op_total: f64 = ops_us.iter().sum();
    report.check(
        unexplained_us <= 0.05 * op_total,
        "stepped replay: stage self-times sum to within 5% of the op spans",
    );
    report.notes.push(format!(
        "stepped replay: {} ops, stages cover {:.1}% of op time",
        ops_us.len(),
        100.0 * (1.0 - unexplained_us / op_total)
    ));
    tracer.absorb(own);
}

/// Commit, ship, gate and apply toward one peer: the stepped cost of the
/// path a write takes to become visible at a replica.
pub fn one_peer_path_p50_us(report: &Report) -> Option<f64> {
    STAGES
        .iter()
        .map(|s| report.get(&format!("stage.{s}_p50_us")).map(|m| m.value))
        .sum()
}
