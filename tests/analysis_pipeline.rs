//! Integration: the full specification → analysis → patched-spec pipeline
//! across all four applications.

use ipa::analysis::{AnalysisConfig, Analyzer, Support};
use ipa::apps::ticket::ticket_spec;
use ipa::apps::tournament::tournament_spec;
use ipa::apps::tpc::tpc_spec;
use ipa::apps::twitter::twitter_spec;
use ipa::spec::AppSpec;

fn analyze(spec: &AppSpec) -> ipa::analysis::AnalysisReport {
    Analyzer::for_spec(spec)
        .analyze(spec)
        .expect("analysis succeeds")
}

#[test]
fn every_app_spec_analyzes_to_a_fixpoint() {
    for spec in [
        tournament_spec(),
        twitter_spec(false),
        twitter_spec(true),
        ticket_spec(),
        tpc_spec(),
    ] {
        let report = analyze(&spec);
        assert!(report.converged, "{}: no fixpoint", spec.name);
        // Patched spec stays valid and re-analysis is stable.
        report.patched.validate().expect("patched spec validates");
        let again = analyze(&report.patched);
        assert!(again.applied.is_empty(), "{}: not idempotent", spec.name);
    }
}

#[test]
fn twitter_add_wins_repairs_restore_entities() {
    let report = analyze(&twitter_spec(false));
    // Under add-wins rules, some operation gains a restoring SetTrue
    // (e.g. retweet restores the tweet, matching §5.2.3's strategy).
    let restored = report.applied.iter().any(|a| {
        a.resolution
            .added
            .iter()
            .any(|e| matches!(e.kind, ipa::spec::EffectKind::SetTrue))
    });
    assert!(restored || report.applied.is_empty(), "{report}");
}

#[test]
fn compensations_only_for_numeric_invariants() {
    let t = analyze(&tournament_spec());
    assert_eq!(t.compensations.len(), 1, "only the capacity constraint");
    let tw = analyze(&twitter_spec(false));
    assert!(
        tw.compensations.is_empty(),
        "twitter has no numeric invariants"
    );
    let tpc = analyze(&tpc_spec());
    assert_eq!(tpc.compensations.len(), 1, "the stock invariant");
}

#[test]
fn table1_support_matrix_is_consistent_with_analysis() {
    // Every clause classified as IPA-supported (Yes) in Table 1 must end
    // up either repaired or conflict-free; Comp-classified clauses must
    // produce compensations.
    use ipa::analysis::classify;
    for spec in [tournament_spec(), ticket_spec(), tpc_spec()] {
        let report = analyze(&spec);
        for inv in &spec.invariants {
            let class = classify(inv);
            if class.ipa_support() == Support::Compensation {
                assert!(
                    report.compensations.iter().any(|c| c.clause == *inv),
                    "{}: clause `{inv}` should have a compensation",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn flagged_pairs_get_coordination_plans() {
    // §3 Step 3: the flagged `rem_tourn ∥ do_match` pair is mechanically
    // convertible into a per-tournament exclusive reservation.
    let report = analyze(&tournament_spec());
    let plan = ipa::coord::coordination_plan(&report);
    assert_eq!(plan.entries.len(), report.flagged.len());
    for e in &plan.entries {
        assert_eq!(
            e.shared_sorts,
            vec![ipa::spec::Sort::new("Tournament")],
            "the pair contends per tournament: {e}"
        );
        let r1 = e.resource(&["t1"]);
        let r2 = e.resource(&["t2"]);
        assert_ne!(r1, r2, "different tournaments never contend");
    }
}

/// The analysis rendered as text: every applied resolution in order, the
/// flagged pairs, and each patched operation with its full effect list.
fn render(report: &ipa::analysis::AnalysisReport) -> String {
    let mut out = String::new();
    for a in &report.applied {
        out.push_str(&format!("repair: {}\n", a.resolution));
    }
    for f in &report.flagged {
        out.push_str(&format!("flagged: {} || {}\n", f.op1, f.op2));
    }
    for op in &report.patched.operations {
        out.push_str(&format!("op: {op}\n"));
    }
    out
}

/// The analysis itself, not just its counts: captured from the commit
/// before the analysis session (PR 15), which must not change an answer.
#[test]
fn analysis_results_match_their_goldens() {
    let goldens = [
        (
            tournament_spec(),
            "\
repair: extend enroll with tournament(t) := true (enroll prevails)
repair: extend rem_tourn with active(t) := false (rem_tourn prevails)
repair: extend finish_tourn with tournament(t) := true (finish_tourn prevails)
repair: extend do_match with enrolled(p, t) := true, enrolled(q, t) := true (do_match prevails)
flagged: rem_tourn || do_match
op: add_player(p: Player) { player(p) := true }
op: add_tourn(t: Tournament) { tournament(t) := true }
op: rem_tourn(t: Tournament) { tournament(t) := false; active(t) := false }
op: enroll(p: Player, t: Tournament) { enrolled(p, t) := true; tournament(t) := true }
op: disenroll(p: Player, t: Tournament) { enrolled(p, t) := false }
op: begin_tourn(t: Tournament) { active(t) := true }
op: finish_tourn(t: Tournament) { finished(t) := true; active(t) := false; tournament(t) := true }
op: do_match(p: Player, q: Player, t: Tournament) { inMatch(p, q, t) := true; enrolled(p, t) := true; enrolled(q, t) := true }
",
        ),
        (
            twitter_spec(false),
            "\
repair: extend follow with user(a) := true, user(b) := true (follow prevails)
repair: extend retweet with tweet(t) := true (retweet prevails)
op: add_user(u: User) { user(u) := true }
op: rem_user(u: User) { user(u) := false }
op: post_tweet(t: Tweet, u: User) { tweet(t) := true; inTimeline(t, u) := true }
op: retweet(t: Tweet, u: User) { inTimeline(t, u) := true; tweet(t) := true }
op: del_tweet(t: Tweet) { tweet(t) := false }
op: follow(a: User, b: User) { follows(a, b) := true; user(a) := true; user(b) := true }
op: unfollow(a: User, b: User) { follows(a, b) := false }
",
        ),
        (
            ticket_spec(),
            "\
op: create_event(e: Event) { event(e) := true }
op: buy_ticket(u: User, e: Event) { sold(u, e) := true }
op: refund(u: User, e: Event) { sold(u, e) := false }
",
        ),
        (
            tpc_spec(),
            "\
repair: extend purchase with product(p) := true (purchase prevails)
flagged: purchase || purchase
op: add_product(p: Product) { product(p) := true }
op: rem_product(p: Product) { product(p) := false }
op: purchase(o: Order, p: Product) { ordered(o, p) := true; stock(p) -= 1; product(p) := true }
op: restock(p: Product) { stock(p) += 10 }
",
        ),
    ];
    for (spec, golden) in goldens {
        assert_eq!(render(&analyze(&spec)), golden, "{}", spec.name);
    }
}

/// Each witness the analysis reports, as data (its label, the true atoms
/// of `pre` and `merged`, the violated clauses, the contested atoms), and
/// the deterministic work counters behind it.
fn render_witnesses(report: &ipa::analysis::AnalysisReport) -> String {
    fn line<T: std::fmt::Display>(out: &mut String, label: &str, items: impl Iterator<Item = T>) {
        out.push_str("  ");
        out.push_str(label);
        out.push(':');
        for item in items {
            out.push_str(&format!(" {item}"));
        }
        out.push('\n');
    }
    let witnesses = report
        .applied
        .iter()
        .map(|a| ("applied", &a.witness))
        .chain(report.flagged.iter().map(|f| ("flagged", &f.witness)));
    let mut out = String::new();
    for (kind, w) in witnesses {
        out.push_str(&format!("{kind}: {}\n", w.label()));
        line(&mut out, "pre", w.pre.true_atoms());
        line(&mut out, "merged", w.merged.true_atoms());
        for v in &w.violated {
            out.push_str(&format!("  violated: {v}\n"));
        }
        line(&mut out, "contested", w.contested.iter());
    }
    out.push_str(&render_counters(report));
    out
}

/// The deterministic solver counters of an analysis, one line.
fn render_counters(report: &ipa::analysis::AnalysisReport) -> String {
    let s = &report.solver;
    format!(
        "queries {}, solves {}, decisions {}, conflicts {}, propagations {}, clauses {}\n",
        report.queries, s.solves, s.decisions, s.conflicts, s.propagations, s.clauses
    )
}

/// The witnesses and the solver's counters, not just the verdicts: a
/// change to the CNF's clause order or to model decoding shows here.
/// Captured while ground atoms were still handled by name; numbering them
/// must not change a witness or a counter.
#[test]
fn witnesses_and_solver_counters_match_their_goldens() {
    let goldens = [
        (
            tournament_spec(),
            "\
applied: rem_tourn(Tournament#1) ∥ enroll(Player#1, Tournament#1)
  pre: player(Player#1) tournament(Tournament#1)
  merged: enrolled(Player#1, Tournament#1) player(Player#1)
  violated: forall(Player: p, Tournament: t) :- (enrolled(p, t) => (player(p) and tournament(t)))
  contested:
applied: rem_tourn(Tournament#1) ∥ begin_tourn(Tournament#1)
  pre: player(Player#1) player(Player#2) tournament(Tournament#1)
  merged: active(Tournament#1) player(Player#1) player(Player#2)
  violated: forall(Tournament: t) :- (active(t) => tournament(t))
  contested:
applied: rem_tourn(Tournament#1) ∥ finish_tourn(Tournament#1)
  pre: player(Player#1) player(Player#2) tournament(Tournament#1)
  merged: finished(Tournament#1) player(Player#1) player(Player#2)
  violated: forall(Tournament: t) :- (finished(t) => tournament(t))
  contested:
applied: disenroll(Player#1, Tournament#1) ∥ do_match(Player#1, Player#1, Tournament#1)
  pre: enrolled(Player#1, Tournament#1) enrolled(Player#2, Tournament#1) finished(Tournament#1) player(Player#1) player(Player#2) tournament(Tournament#1)
  merged: enrolled(Player#2, Tournament#1) finished(Tournament#1) inMatch(Player#1, Player#1, Tournament#1) player(Player#1) player(Player#2) tournament(Tournament#1)
  violated: forall(Player: p, Player: q, Tournament: t) :- (inMatch(p, q, t) => (enrolled(p, t) and enrolled(q, t) and (active(t) or finished(t))))
  contested:
flagged: rem_tourn(Tournament#1) ∥ do_match(Player#1, Player#1, Tournament#1)
  pre: active(Tournament#1) finished(Tournament#2) player(Player#1) tournament(Tournament#1) tournament(Tournament#2)
  merged: enrolled(Player#1, Tournament#1) finished(Tournament#2) inMatch(Player#1, Player#1, Tournament#1) player(Player#1) tournament(Tournament#2)
  violated: forall(Player: p, Tournament: t) :- (enrolled(p, t) => (player(p) and tournament(t)))
  violated: forall(Player: p, Player: q, Tournament: t) :- (inMatch(p, q, t) => (enrolled(p, t) and enrolled(q, t) and (active(t) or finished(t))))
  contested:
queries 909, solves 710, decisions 2743, conflicts 140, propagations 39692, clauses 4698
",
        ),
        (
            twitter_spec(false),
            "\
applied: rem_user(User#1) ∥ follow(User#1, User#1)
  pre: user(User#1) user(User#2)
  merged: follows(User#1, User#1) user(User#2)
  violated: forall(User: a, User: b) :- (follows(a, b) => (user(a) and user(b)))
  contested:
applied: retweet(Tweet#1, User#1) ∥ del_tweet(Tweet#1)
  pre: tweet(Tweet#1) user(User#1) user(User#2)
  merged: inTimeline(Tweet#1, User#1) user(User#1) user(User#2)
  violated: forall(Tweet: t, User: u) :- (inTimeline(t, u) => tweet(t))
  contested:
queries 160, solves 29, decisions 89, conflicts 4, propagations 288, clauses 70
",
        ),
        (
            twitter_spec(true),
            "\
applied: rem_user(User#1) ∥ follow(User#1, User#1)
  pre: user(User#1) user(User#2)
  merged: follows(User#1, User#1) user(User#2)
  violated: forall(User: a, User: b) :- (follows(a, b) => (user(a) and user(b)))
  contested:
applied: post_tweet(Tweet#1, User#1) ∥ del_tweet(Tweet#1)
  pre: user(User#1) user(User#2)
  merged: inTimeline(Tweet#1, User#1) user(User#1) user(User#2)
  violated: forall(Tweet: t, User: u) :- (inTimeline(t, u) => tweet(t))
  contested: tweet(Tweet#1)
queries 146, solves 27, decisions 78, conflicts 4, propagations 262, clauses 70
",
        ),
        (
            ticket_spec(),
            "\
queries 18, solves 3, decisions 0, conflicts 0, propagations 3, clauses 5
",
        ),
        (
            tpc_spec(),
            "\
applied: rem_product(Product#1) ∥ purchase(Order#1, Product#1)
  pre: product(Product#1)
  merged: ordered(Order#1, Product#1)
  violated: forall(Order: o, Product: p) :- (ordered(o, p) => product(p))
  contested:
flagged: purchase(Order#1, Product#1) ∥ purchase(Order#1, Product#1)
  pre: product(Product#1)
  merged: ordered(Order#1, Product#1) product(Product#1)
  violated: forall(Product: p) :- stock(p) >= 0
  contested:
queries 30, solves 6, decisions 16, conflicts 0, propagations 60, clauses 36
",
        ),
    ];
    for (spec, golden) in goldens {
        assert_eq!(render_witnesses(&analyze(&spec)), golden, "{}", spec.name);
    }
}

/// The solver counters at scopes 3 and 4, where the universe, the CNF and
/// the search are larger than at the default scope: a change to the
/// session's caches, the encoder or the solver's decisions that leaves
/// scope 2 alone still shows here.
#[test]
fn solver_counters_match_their_goldens_at_scope_3_and_4() {
    let goldens = [
        (
            tournament_spec(),
            [
                "queries 955, solves 740, decisions 7291, conflicts 318, propagations 101643, clauses 8953",
                "queries 957, solves 741, decisions 16737, conflicts 463, propagations 205252, clauses 14792",
            ],
        ),
        (
            twitter_spec(false),
            [
                "queries 193, solves 34, decisions 143, conflicts 18, propagations 699, clauses 154",
                "queries 196, solves 34, decisions 245, conflicts 25, propagations 1188, clauses 249",
            ],
        ),
        (
            ticket_spec(),
            [
                "queries 18, solves 3, decisions 0, conflicts 0, propagations 3, clauses 10",
                "queries 18, solves 3, decisions 0, conflicts 0, propagations 3, clauses 17",
            ],
        ),
        (
            tpc_spec(),
            [
                "queries 30, solves 6, decisions 26, conflicts 0, propagations 84, clauses 51",
                "queries 30, solves 6, decisions 36, conflicts 0, propagations 116, clauses 72",
            ],
        ),
    ];
    let mut got = String::new();
    let mut want = String::new();
    for (spec, golden) in goldens {
        for (scope, golden) in [3, 4].into_iter().zip(golden) {
            let config = AnalysisConfig {
                universe_per_sort: scope,
                ..AnalysisConfig::tuned_for(&spec)
            };
            let report = Analyzer::new(config).analyze(&spec).expect("analysis");
            let label = format!("{} at scope {scope}: ", spec.name);
            got.push_str(&label);
            got.push_str(&render_counters(&report));
            want.push_str(&label);
            want.push_str(golden);
            want.push('\n');
        }
    }
    assert_eq!(got, want);
}

/// The small scope is large enough: a third or a fourth element per sort
/// changes no repair, no flagged pair and no patched operation (ROADMAP
/// item 6). The default stays at two.
#[test]
fn verdicts_are_stable_at_scope_2_3_and_4() {
    for spec in [
        tournament_spec(),
        twitter_spec(false),
        ticket_spec(),
        tpc_spec(),
    ] {
        let at_scope = |universe_per_sort| {
            let config = AnalysisConfig {
                universe_per_sort,
                ..AnalysisConfig::tuned_for(&spec)
            };
            render(&Analyzer::new(config).analyze(&spec).expect("analysis"))
        };
        let two = at_scope(2);
        assert_eq!(two, render(&analyze(&spec)), "{}: default scope", spec.name);
        for scope in [3, 4] {
            assert_eq!(at_scope(scope), two, "{}: scope {scope}", spec.name);
        }
    }
}

/// The analysis asks each question once (ROADMAP item 1, analysis-half
/// attribution). These counters are deterministic; the numbers are the
/// tournament's.
#[test]
fn tournament_analysis_asks_each_question_once() {
    let spec = tournament_spec();
    let report = analyze(&spec);
    let repair_searches = (report.applied.len() + report.flagged.len()) as u64;
    // The six detection passes visit 142 pairs; only 53 distinct pairs of
    // operation values are among them, and only those are checked.
    assert_eq!(report.pair_checks, 53);
    assert_eq!(report.pair_checks + report.memo_hits, 142);
    // The invariant is grounded once, when the session is built; what is
    // renewed is the solver holding it: one for detection, one per repair
    // search.
    assert_eq!(report.solvers, repair_searches + 1);
    // Before the session the same analysis issued 2,535 queries, each on
    // its own solver; the memo avoided 600 (1,935 left), and a third of the
    // rest were decided by construction (1,273 solves). Asking one
    // instantiation per orbit of same-sort renamings halves both: the
    // other instantiations of an orbit pose equisatisfiable queries.
    assert_eq!(report.queries, 909);
    assert_eq!(report.solver.solves, 710);
    // A query adds its residue to a loaded solver — a handful of clauses
    // — instead of re-asserting the invariant (63 clauses) four times.
    let cfg = ipa::analysis::AnalysisConfig::tuned_for(&spec);
    let load = ipa::analysis::AnalysisSession::new(&spec, &cfg)
        .expect("session")
        .solver_stats()
        .clauses;
    assert_eq!(load, 63);
    let per_query = (report.solver.clauses - report.solvers * load) / report.solver.solves;
    assert!(per_query < 8, "{per_query} clauses per solved query");
    // A repair candidate is its original plus the added effects, and its
    // footprints are extended from the original's, not rebuilt. A
    // candidate is never looked up by value, so one that repeats a value
    // met earlier is extended again.
    assert_eq!(report.footprints_built, 26);
    assert_eq!(report.footprints_extended, 569);
    // The counters are part of the report's rendering.
    let rendered = report.to_string();
    assert!(rendered.contains("53 pair checks (+89 memo hits)"));
    assert!(rendered.contains("595 footprints (569 extended)"));
}
