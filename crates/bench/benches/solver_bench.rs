//! Criterion benchmarks for the SAT solver and grounding pipeline — the
//! paper's §5.1.3 claim ("fast enough to not hinder interactivity") in
//! measurable form.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ipa_solver::{Grounder, SolverSession, Universe};
use ipa_spec::parser::parse_formula;
use ipa_spec::{Constant, Formula, PredicateDecl, Sort, Symbol};
use std::collections::BTreeMap;

fn tournament_universe(per_sort: usize) -> Universe {
    let mut u = Universe::new();
    for i in 0..per_sort {
        u.add(Constant::new(format!("P{i}"), Sort::new("Player")));
        u.add(Constant::new(format!("T{i}"), Sort::new("Tournament")));
    }
    u
}

fn decls() -> BTreeMap<Symbol, PredicateDecl> {
    let mut m = BTreeMap::new();
    for d in [
        PredicateDecl::boolean("player", vec![Sort::new("Player")]),
        PredicateDecl::boolean("tournament", vec![Sort::new("Tournament")]),
        PredicateDecl::boolean(
            "enrolled",
            vec![Sort::new("Player"), Sort::new("Tournament")],
        ),
        PredicateDecl::boolean("active", vec![Sort::new("Tournament")]),
        PredicateDecl::boolean("finished", vec![Sort::new("Tournament")]),
    ] {
        m.insert(d.name.clone(), d);
    }
    m
}

fn invariants() -> Vec<Formula> {
    vec![
        parse_formula(
            "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
        )
        .unwrap(),
        parse_formula("forall(Tournament: t) :- active(t) => tournament(t)").unwrap(),
        parse_formula("forall(Tournament: t) :- not(active(t) and finished(t))").unwrap(),
        parse_formula("forall(Tournament: t) :- #enrolled(*, t) <= Capacity").unwrap(),
    ]
}

fn bench_sat_query(c: &mut Criterion) {
    let mut named = BTreeMap::new();
    named.insert(Symbol::new("Capacity"), 8i64);
    let decls = decls();
    for per_sort in [2usize, 4] {
        let universe = tournament_universe(per_sort);
        c.bench_function(format!("solver/violation_query_scope{per_sort}"), |b| {
            b.iter(|| {
                let grounder = Grounder::new(&universe, &decls, &named);
                let mut s = SolverSession::new(12);
                let invs = invariants();
                for inv in &invs {
                    s.assert(&grounder.ground(inv).unwrap());
                }
                // Find any state violating referential integrity — the
                // analysis' inner query shape.
                s.push();
                s.assert(&grounder.ground(&Formula::not(invs[0].clone())).unwrap());
                let sat = s.solve().is_sat();
                s.pop();
                black_box(sat)
            })
        });
    }
}

fn bench_grounding(c: &mut Criterion) {
    let mut named = BTreeMap::new();
    named.insert(Symbol::new("Capacity"), 8i64);
    let decls = decls();
    let universe = tournament_universe(4);
    c.bench_function("solver/ground_invariants_scope4", |b| {
        let invs = invariants();
        b.iter(|| {
            let grounder = Grounder::new(&universe, &decls, &named);
            for inv in &invs {
                black_box(grounder.ground(inv).unwrap());
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sat_query, bench_grounding
}
criterion_main!(benches);
