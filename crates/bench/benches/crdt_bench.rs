//! Criterion micro-benchmarks for the CRDT library: op application
//! throughput for the types on the replication hot path, plus the
//! add-wins vs rem-wins ablation the DESIGN calls out.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ipa_crdt::{
    AWSet, CompensationSet, PNCounter, PNCounterOp, RWSet, ReplicaId, Tag, VClock, Val, ValPattern,
};

fn tag(i: u64) -> Tag {
    Tag::new(ReplicaId((i % 3) as u16), i)
}

fn clock(i: u64) -> VClock {
    [(ReplicaId((i % 3) as u16), i)].into_iter().collect()
}

fn bench_awset(c: &mut Criterion) {
    c.bench_function("awset/add_1k", |b| {
        b.iter(|| {
            let mut s: AWSet<Val> = AWSet::new();
            for i in 0..1000u64 {
                let op = s.prepare_add(Val::int(i as i64 % 128), tag(i));
                s.apply(&op);
            }
            black_box(s.len())
        })
    });
    c.bench_function("awset/wildcard_remove_1k", |b| {
        let mut s: AWSet<Val> = AWSet::new();
        for i in 0..1000u64 {
            let op = s.prepare_add(Val::pair(format!("p{i}"), format!("t{}", i % 10)), tag(i));
            s.apply(&op);
        }
        b.iter(|| {
            let mut copy = s.clone();
            let rm =
                copy.prepare_remove_matching(|e: &Val| e.snd().and_then(Val::as_str) == Some("t3"));
            copy.apply(&rm);
            black_box(copy.len())
        })
    });
}

fn bench_rwset(c: &mut Criterion) {
    c.bench_function("rwset/add_contains_1k", |b| {
        b.iter(|| {
            let mut s: RWSet<Val, ValPattern> = RWSet::new();
            for i in 0..1000u64 {
                let op = s.prepare_add(Val::int(i as i64 % 128), tag(i), clock(i));
                s.apply(&op);
            }
            black_box(s.contains(&Val::int(7)))
        })
    });
    c.bench_function("rwset/compact_1k", |b| {
        let mut s: RWSet<Val, ValPattern> = RWSet::new();
        for i in 1..=1000u64 {
            let op = s.prepare_add(Val::int(i as i64 % 64), tag(i), clock(i));
            s.apply(&op);
        }
        let stable: VClock = [
            (ReplicaId(0), 1000),
            (ReplicaId(1), 1000),
            (ReplicaId(2), 1000),
        ]
        .into_iter()
        .collect();
        b.iter(|| {
            let mut copy = s.clone();
            copy.compact(&stable);
            black_box(copy.entry_count())
        })
    });
}

fn bench_counters(c: &mut Criterion) {
    c.bench_function("pncounter/apply_10k", |b| {
        let ops: Vec<PNCounterOp> = (0..10_000)
            .map(|i| PNCounterOp {
                origin: ReplicaId((i % 3) as u16),
                delta: (i as i64 % 7) - 3,
            })
            .collect();
        b.iter(|| {
            let mut cnt = PNCounter::new();
            for op in &ops {
                cnt.apply(op);
            }
            black_box(cnt.value())
        })
    });
}

fn bench_compset(c: &mut Criterion) {
    c.bench_function("compset/oversold_read_256", |b| {
        let mut s: CompensationSet<Val> = CompensationSet::new(128);
        for i in 0..256u64 {
            let op = s.prepare_add(Val::int(i as i64), tag(i));
            s.apply(&op);
        }
        b.iter(|| {
            let r = s.read();
            black_box((r.elements.len(), r.cancelled.len()))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_awset, bench_rwset, bench_counters, bench_compset
}
criterion_main!(benches);
