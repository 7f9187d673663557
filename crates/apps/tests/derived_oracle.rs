//! The invariant oracle derived from the specs: one check per clause (per
//! phase), named and classified by the clause; an unwalkable shape is an
//! error; and every check agrees with the spec language's reference
//! semantics — on small random store states of each application, a check
//! reports 0 exactly when `ipa_spec::interp` says its (sub-)clause holds
//! on the same layout's read-back.

use ipa_apps::layout::{Layout, Place};
use ipa_apps::oracle::{derive_checks, Anomaly, Oracle, Phase};
use ipa_apps::ticket::runtime::pool_key;
use ipa_apps::tournament::runtime as tourn;
use ipa_apps::tpc::runtime::{stock_key, ORDERS, PRODUCTS};
use ipa_apps::twitter::runtime::{ENTRIES, FOLLOWS, TWEETS, USERS};
use ipa_apps::{ticket, tournament, tpc, twitter};
use ipa_crdt::{ObjectKind, ReplicaId, Val};
use ipa_spec::{AppSpec, AppSpecBuilder};
use ipa_store::{Replica, Transaction};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Draws from generated bytes; an exhausted source draws 0, so a
/// shrunk input is a smaller state.
struct Draw<'a>(std::slice::Iter<'a, u8>);

impl Draw<'_> {
    fn below(&mut self, n: u8) -> u8 {
        self.0.next().map_or(0, |b| b % n)
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 1
    }
}

fn names(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

/// Add `v` to the set at `key`, whichever set kind it is.
fn add(tx: &mut Transaction<'_>, key: &str, kind: ObjectKind, v: Val) {
    match kind {
        ObjectKind::RWSet => tx.rw_add(key, v),
        ObjectKind::AWMap => tx.map_put(key, v, Val::str("x")),
        ObjectKind::CompSet { .. } => tx.compset_add(key, v),
        _ => tx.aw_add(key, v),
    }
    .unwrap();
}

/// The stored member of `pred(args…)`, through the app's layout table.
fn member(layout: &Layout, pred: &str, args: &[&str]) -> Val {
    let args: Vec<Val> = args.iter().map(|a| Val::str(*a)).collect();
    layout.member(pred, &args).expect("a place of whole tuples")
}

/// One of the two set kinds the runtimes choose between by mode.
fn set_kind(d: &mut Draw<'_>) -> ObjectKind {
    if d.coin() {
        ObjectKind::RWSet
    } else {
        ObjectKind::AWSet
    }
}

/// One application's oracle, its spec, and a random state builder.
struct App {
    oracle: Oracle,
    spec: AppSpec,
    fill: fn(&mut Transaction<'_>, &mut Draw<'_>),
}

fn apps() -> [App; 4] {
    [
        App {
            oracle: Oracle::tournament(),
            spec: tournament::tournament_spec(),
            fill: |tx, d| {
                let (ps, ts) = (names("p", 3), names("t", 2));
                let (active, matches) = (set_kind(d), set_kind(d));
                let objects = [
                    (tourn::PLAYERS, ObjectKind::AWMap),
                    (tourn::TOURNS, ObjectKind::AWMap),
                    (tourn::ENROLLED, ObjectKind::AWSet),
                    (tourn::ACTIVE, active),
                    (tourn::FINISHED, ObjectKind::AWSet),
                    (tourn::MATCHES, matches),
                ];
                for (key, kind) in objects {
                    tx.ensure(key, kind).unwrap();
                }
                for p in &ps {
                    if d.coin() {
                        add(tx, tourn::PLAYERS, ObjectKind::AWMap, Val::str(p.as_str()));
                    }
                }
                for t in &ts {
                    let phases = [
                        (tourn::TOURNS, ObjectKind::AWMap),
                        (tourn::ACTIVE, active),
                        (tourn::FINISHED, ObjectKind::AWSet),
                    ];
                    for (key, kind) in phases {
                        if d.coin() {
                            add(tx, key, kind, Val::str(t.as_str()));
                        }
                    }
                    for p in &ps {
                        if d.coin() {
                            add(
                                tx,
                                tourn::ENROLLED,
                                ObjectKind::AWSet,
                                member(&tourn::LAYOUT, "enrolled", &[p, t]),
                            );
                        }
                        for q in &ps {
                            if d.below(4) == 0 {
                                let m = member(&tourn::LAYOUT, "inMatch", &[p, q, t]);
                                add(tx, tourn::MATCHES, matches, m);
                            }
                        }
                    }
                }
                // Now and then a crowd past capacity.
                if d.below(4) == 0 {
                    for i in 0..=tourn::CAPACITY {
                        let e = member(&tourn::LAYOUT, "enrolled", &[&format!("c{i}"), "t0"]);
                        add(tx, tourn::ENROLLED, ObjectKind::AWSet, e);
                    }
                }
            },
        },
        App {
            oracle: Oracle::twitter(),
            spec: twitter::twitter_spec(false),
            fill: |tx, d| {
                let (us, ws) = (names("u", 3), names("w", 2));
                let entries = set_kind(d);
                tx.ensure(USERS, ObjectKind::AWMap).unwrap();
                tx.ensure(TWEETS, ObjectKind::AWMap).unwrap();
                tx.ensure(ENTRIES, entries).unwrap();
                tx.ensure(FOLLOWS, ObjectKind::AWSet).unwrap();
                for u in &us {
                    if d.coin() {
                        add(tx, USERS, ObjectKind::AWMap, Val::str(u.as_str()));
                    }
                    for v in &us {
                        if d.below(3) == 0 {
                            add(
                                tx,
                                FOLLOWS,
                                ObjectKind::AWSet,
                                member(&twitter::runtime::LAYOUT, "follows", &[u, v]),
                            );
                        }
                    }
                }
                for w in &ws {
                    if d.coin() {
                        add(tx, TWEETS, ObjectKind::AWMap, Val::str(w.as_str()));
                    }
                    for u in &us {
                        if d.below(3) == 0 {
                            let author = &us[d.below(3) as usize];
                            let e = Val::triple(u.as_str(), w.as_str(), author.as_str());
                            add(tx, ENTRIES, entries, e);
                        }
                    }
                }
            },
        },
        App {
            oracle: Oracle::ticket(names("e", 2), 2),
            spec: ticket::ticket_spec(),
            fill: |tx, d| {
                for e in names("e", 2) {
                    let kind = match d.coin() {
                        true => ObjectKind::CompSet { capacity: 2 },
                        false => ObjectKind::AWSet,
                    };
                    if d.below(4) == 0 {
                        continue;
                    }
                    tx.ensure(pool_key(&e), kind).unwrap();
                    for u in names("u", d.below(5) as usize) {
                        add(tx, &pool_key(&e), kind, Val::str(u));
                    }
                }
            },
        },
        App {
            oracle: Oracle::tpc(names("i", 2)),
            spec: tpc::tpc_spec(),
            fill: |tx, d| {
                let items = names("i", 3);
                tx.ensure(PRODUCTS, ObjectKind::AWMap).unwrap();
                tx.ensure(ORDERS, ObjectKind::AWSet).unwrap();
                for i in &items {
                    if d.coin() {
                        add(tx, PRODUCTS, ObjectKind::AWMap, Val::str(i.as_str()));
                    }
                    for o in names("o", 2) {
                        if d.below(3) == 0 {
                            let ordered = member(&tpc::runtime::LAYOUT, "ordered", &[&o, i]);
                            add(tx, ORDERS, ObjectKind::AWSet, ordered);
                        }
                    }
                    if d.coin() {
                        tx.ensure(stock_key(i), ObjectKind::PNCounter).unwrap();
                        tx.counter_add(stock_key(i), i64::from(d.below(7)) - 3)
                            .unwrap();
                    }
                }
            },
        },
    ]
}

/// Each check's violation count on a state drawn from `bytes`, beside
/// whether `interp` says its clause holds there.
fn verdicts(app: &App, bytes: &[u8]) -> Vec<(String, u64, bool)> {
    let mut replica = Replica::new(ReplicaId(0));
    let mut tx = replica.begin();
    (app.fill)(&mut tx, &mut Draw(bytes.iter()));
    tx.commit();
    let interp = app.oracle.interpretation(&app.spec, &replica);
    app.oracle
        .audit(&replica, Phase::Final)
        .per_check
        .into_iter()
        .map(|(check, n)| (check.name.clone(), n, interp.eval(&check.clause).unwrap()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_check_reports_zero_exactly_when_its_clause_holds(
        bytes in prop::collection::vec(0u8..=255, 0..64),
    ) {
        for app in apps() {
            for (name, n, holds) in verdicts(&app, &bytes) {
                prop_assert_eq!(n == 0, holds, "{}: `{}` counts {}", app.oracle.app, name, n);
            }
        }
    }
}

/// An IPA ticket pool past its capacity reads back member for member:
/// the excess its compensated read would cancel included, whatever order
/// the set keeps them in. An add-wins pool holding the same members reads
/// back to the same interpretation.
#[test]
fn an_over_capacity_compensation_pool_reads_back_every_member() {
    let (spec, oracle) = (ticket::ticket_spec(), Oracle::ticket(names("e", 1), 2));
    let key = pool_key("e0");
    let read_back = |kind: ObjectKind| {
        let mut replica = Replica::new(ReplicaId(0));
        let mut tx = replica.begin();
        tx.ensure(key.as_str(), kind).unwrap();
        for u in names("u", 5) {
            add(&mut tx, &key, kind, Val::str(u));
        }
        tx.commit();
        (oracle.interpretation(&spec, &replica), replica)
    };
    let (pooled, replica) = read_back(ObjectKind::CompSet { capacity: 2 });
    let pool = replica.object(&key).and_then(|o| o.as_compset()).unwrap();
    assert_eq!(pool.read().cancelled.len(), 3, "the pool is past capacity");
    let (plain, _) = read_back(ObjectKind::AWSet);
    assert_eq!(pooled, plain);
    assert_eq!(pooled.true_atoms().count(), 5);
}

/// The property above is not vacuous: the state generator reaches both
/// verdicts of every check.
#[test]
fn the_states_break_and_keep_every_check() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut seen: HashMap<String, (bool, bool)> = HashMap::new();
    for _ in 0..300 {
        let bytes: Vec<u8> = (0..64).map(|_| rng.gen::<u64>() as u8).collect();
        for app in apps() {
            for (name, n, holds) in verdicts(&app, &bytes) {
                assert_eq!(n == 0, holds, "{}: `{name}` counts {n}", app.oracle.app);
                let s = seen
                    .entry(format!("{}: {name}", app.oracle.app))
                    .or_default();
                s.0 |= holds;
                s.1 |= !holds;
            }
        }
    }
    assert_eq!(seen.len(), 12, "{seen:?}");
    for (check, (kept, broken)) in seen {
        assert!(kept && broken, "{check}: kept {kept}, broken {broken}");
    }
}

#[test]
fn every_clause_is_one_check_per_phase_classified_by_its_shape() {
    use Anomaly::*;
    use Phase::*;
    let expect: [&[(&str, Phase, Anomaly)]; 5] = [
        &[
            (
                "enrolled(p,t)=>player(p)&tournament(t)",
                Continuous,
                ReferentialOrphan,
            ),
            (
                "inMatch(p,q,t)=>enrolled(p,t)&enrolled(q,t)",
                Continuous,
                ReferentialOrphan,
            ),
            (
                "inMatch(p,q,t)=>active(t)|finished(t)",
                Final,
                StrandedMatch,
            ),
            ("#enrolled(*,t)<=Capacity", Final, Oversell),
            ("active(t)=>tournament(t)", Continuous, ReferentialOrphan),
            ("finished(t)=>tournament(t)", Continuous, ReferentialOrphan),
            ("not(active(t)&finished(t))", Continuous, StrandedMatch),
        ],
        &[
            ("inTimeline(t,u)=>tweet(t)", Continuous, ReferentialOrphan),
            (
                "follows(a,b)=>user(a)&user(b)",
                Continuous,
                ReferentialOrphan,
            ),
        ],
        &[("#sold(*,e)<=Capacity", Final, Oversell)],
        &[("#sold(*,e)<=Capacity", Continuous, Oversell)],
        &[
            ("ordered(o,p)=>product(p)", Continuous, ReferentialOrphan),
            ("stock(p)>=0", Final, Oversell),
        ],
    ];
    let oracles = [
        Oracle::tournament(),
        Oracle::twitter(),
        Oracle::ticket(vec!["e0".into()], 10),
        Oracle::ticket_escrow(vec![("s0".into(), 10)]),
        Oracle::tpc(vec!["i0".into()]),
    ];
    for (oracle, checks) in oracles.iter().zip(expect) {
        let got: Vec<(&str, Phase, Anomaly)> = (oracle.checks().iter())
            .map(|c| (c.name.as_str(), c.phase, c.anomaly))
            .collect();
        assert_eq!(got, checks, "{}", oracle.app);
        // The one clause no layout places: the runtime keeps no event
        // entity apart from the event's pool, and a `sold(u, e)` member
        // lives inside that pool, so the store cannot hold its violation.
        let unmapped: Vec<&str> = oracle.unmapped().iter().map(|(c, _)| c.as_str()).collect();
        let ticket = oracle.app.starts_with("ticket");
        assert_eq!(
            unmapped,
            if ticket {
                vec!["sold(u,e)=>event(e)"]
            } else {
                vec![]
            }
        );
    }
}

#[test]
fn a_shape_the_evaluator_does_not_walk_is_an_error() {
    const LAYOUT: Layout = Layout {
        places: &[
            ("p", Place::set("p")),
            ("q", Place::set("q")),
            ("r", Place::tuple("r", 2)),
            ("s", Place::PerEntity { prefix: "s/" }),
        ],
        unmapped: &[],
    };
    let spec = |inv: &str| {
        AppSpecBuilder::new("probe")
            .sort("S")
            .predicate_bool("p", &["S"])
            .predicate_bool("q", &["S"])
            .predicate_bool("r", &["S", "S"])
            .predicate_bool("s", &["S", "S"])
            .predicate_bool("w", &["S"])
            .invariant_str(inv)
            .build()
            .unwrap()
    };
    assert!(derive_checks(&spec("forall(S: x) :- p(x) => q(x)"), &LAYOUT, &[]).is_ok());
    for (inv, why) in [
        ("forall(S: x) :- p(x)", "not a guarded clause"),
        ("forall(S: x, y) :- p(x) => r(x, y)", "does not bind"),
        ("forall(S: x) :- p(x) and q(x) => r(x, x)", "not one atom"),
        ("forall(S: x) :- r(x, x) => p(x)", "distinct variables"),
        ("forall(S: x) :- #r(*, x) >= 1", "0 breaks"),
        ("forall(S: x) :- #s(x, *) <= 1", "per-entity measure"),
        ("forall(S: x, y) :- s(x, y) => p(x)", "set-like place"),
        ("forall(S: x) :- p(x) => w(x)", "does not place"),
    ] {
        let err = derive_checks(&spec(inv), &LAYOUT, &[]).expect_err(inv);
        assert!(err.contains(why), "{inv}: {err}");
    }
    let unused = derive_checks(
        &spec("forall(S: x) :- p(x) => q(x)"),
        &LAYOUT,
        &[("w(x)", Phase::Final)],
    );
    assert!(unused
        .expect_err("an exception must name something")
        .contains("names no"));
}
