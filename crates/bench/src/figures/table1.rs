//! **Table 1** — Types of invariants present in applications: which can
//! be preserved by weak consistency alone (I-Confluent) or by IPA, and
//! which applications exercise them.
//!
//! The table is *derived*, not transcribed: each application's
//! specification is classified clause-by-clause and run through the full
//! analysis; a class is marked present for an app when one of its
//! invariant clauses has that shape. The identifier rows reflect the
//! paper's out-of-band treatment (unique ids via pre-partitioned id
//! spaces; sequential ids unimplementable without coordination).
//!
//! Beside it, [`analysis_costs`] reports what analysing each application
//! costs: grounding / SAT / repair wall time, the analysis session's
//! deterministic work counters (ROADMAP item 1, analysis-half timing), and
//! the wall time of the same analysis at 3 and 4 elements per sort.

use ipa_apps::ticket::ticket_spec;
use ipa_apps::tournament::tournament_spec;
use ipa_apps::tpc::tpc_spec;
use ipa_apps::twitter::twitter_spec;
use ipa_core::classify::{classify, InvariantClass, Support};
use ipa_core::{AnalysisConfig, AnalysisReport, Analyzer};
use ipa_spec::AppSpec;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Row {
    pub class: InvariantClass,
    pub i_confluent: Support,
    pub ipa: Support,
    /// Which of (TPC, Tournament, Ticket, Twitter) exercise this class.
    pub apps: [bool; 4],
}

/// The four applications, in the table's column order.
fn specs() -> [AppSpec; 4] {
    [
        tpc_spec(),
        tournament_spec(),
        ticket_spec(),
        twitter_spec(false),
    ]
}

/// Classify the four applications' specifications.
pub fn run() -> Vec<Row> {
    let specs = specs();
    let mut present: Vec<BTreeSet<InvariantClass>> = Vec::with_capacity(4);
    for spec in &specs {
        let mut classes: BTreeSet<InvariantClass> = spec.invariants.iter().map(classify).collect();
        // Every app relies on pre-partitioned unique identifiers for its
        // entity keys (players, tweets, orders…), per §5.1.1.
        classes.insert(InvariantClass::UniqueId);
        // Membership updates (aggregation inclusion) are ubiquitous.
        classes.insert(InvariantClass::AggregationInclusion);
        present.push(classes);
    }
    InvariantClass::all()
        .into_iter()
        .map(|class| Row {
            class,
            i_confluent: class.i_confluent(),
            ipa: class.ipa_support(),
            apps: [
                present[0].contains(&class),
                present[1].contains(&class),
                present[2].contains(&class),
                present[3].contains(&class),
            ],
        })
        .collect()
}

/// Render the paper-style table.
pub fn print(rows: &[Row]) {
    println!("Table 1: Types of Invariants present in applications.");
    println!(
        "{:<16} {:>8} {:>6} {:>5} {:>5} {:>7} {:>8}",
        "Inv. Type", "I-Conf.", "IPA", "TPC", "Tour", "Ticket", "Twitter"
    );
    for r in rows {
        let mark = |b: bool| if b { "Yes" } else { "—" };
        println!(
            "{:<16} {:>8} {:>6} {:>5} {:>5} {:>7} {:>8}",
            r.class.to_string(),
            r.i_confluent.to_string(),
            r.ipa.to_string(),
            mark(r.apps[0]),
            mark(r.apps[1]),
            mark(r.apps[2]),
            mark(r.apps[3]),
        );
    }
}

/// The scopes beside the default one that [`analysis_costs`] times.
pub const LARGER_SCOPES: [usize; 2] = [3, 4];

/// What analysing one application costs.
pub struct Cost {
    /// The analysis at the default scope; it carries the phase times and
    /// work counters.
    pub report: AnalysisReport,
    /// Wall time of that analysis.
    pub total: Duration,
    /// Wall time of the same analysis at each of [`LARGER_SCOPES`].
    pub larger_scopes: [Duration; 2],
}

/// Analyse each application once at the default scope and once at each
/// of [`LARGER_SCOPES`].
pub fn analysis_costs() -> Vec<Cost> {
    let timed = |analyzer: Analyzer, spec: &AppSpec| {
        let began = Instant::now();
        let report = analyzer.analyze(spec).expect("the shipped specs analyse");
        (report, began.elapsed())
    };
    specs()
        .iter()
        .map(|spec| {
            let (report, total) = timed(Analyzer::for_spec(spec), spec);
            let larger_scopes = LARGER_SCOPES.map(|universe_per_sort| {
                let config = AnalysisConfig {
                    universe_per_sort,
                    ..AnalysisConfig::tuned_for(spec)
                };
                timed(Analyzer::new(config), spec).1
            });
            Cost {
                report,
                total,
                larger_scopes,
            }
        })
        .collect()
}

/// Render the analysis-cost table. Times are wall-clock milliseconds of
/// one run on this machine; everything right of them is deterministic.
pub fn print_costs(costs: &[Cost]) {
    println!("Analysis cost per application (one run; ms are wall clock, counts are exact).");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6} {:>6} {:>8} {:>9} {:>8} {:>8} {:>10} {:>10} {:>13}",
        "App",
        "total",
        "scope 3",
        "scope 4",
        "ground",
        "SAT",
        "repair",
        "pairs",
        "memo",
        "built",
        "ext",
        "queries",
        "unsolved",
        "clauses",
        "solvers",
        "decisions",
        "conflicts",
        "propagations"
    );
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    for c in costs {
        let r = &c.report;
        println!(
            "{:<12} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>6} {:>6} {:>6} {:>6} {:>8} {:>9} {:>8} {:>8} {:>10} {:>10} {:>13}",
            r.original.name.to_string(),
            ms(c.total),
            ms(c.larger_scopes[0]),
            ms(c.larger_scopes[1]),
            ms(r.grounding_time),
            ms(r.sat_time),
            ms(r.repair_time),
            r.pair_checks,
            r.memo_hits,
            r.footprints_built,
            r.footprints_extended,
            r.queries,
            r.queries - r.solver.solves,
            r.solver.clauses,
            r.solvers,
            r.solver.decisions,
            r.solver.conflicts,
            r.solver.propagations,
        );
    }
    println!(
        "(total: the analysis at 2 elements per sort, the default; scope 3 / 4: the same \
         analysis at 3 / 4; pairs: detection pair checks run; memo: answered by the \
         clean-pair memo; built / ext: ground footprints built from an operation's \
         effects / extended from a repair candidate's original; unsolved: queries decided without the solver; repair includes \
         its SAT time)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_semantics() {
        let rows = run();
        assert_eq!(rows.len(), 7);
        let find = |c: InvariantClass| rows.iter().find(|r| r.class == c).unwrap();

        let seq = find(InvariantClass::SequentialId);
        assert_eq!(seq.i_confluent, Support::No);
        assert_eq!(seq.ipa, Support::No);

        let unique = find(InvariantClass::UniqueId);
        assert_eq!(unique.i_confluent, Support::Yes);
        assert_eq!(unique.ipa, Support::Yes);
        assert!(unique.apps.iter().all(|&b| b), "all apps use unique ids");

        let numeric = find(InvariantClass::NumericInvariant);
        assert_eq!(numeric.ipa, Support::Compensation);
        assert!(numeric.apps[0], "TPC has the stock invariant");

        let agg = find(InvariantClass::AggregationConstraint);
        assert_eq!(agg.ipa, Support::Compensation);
        assert!(
            agg.apps[1] && agg.apps[2],
            "Tournament capacity, Ticket oversell"
        );

        let refint = find(InvariantClass::ReferentialIntegrity);
        assert_eq!(refint.i_confluent, Support::No);
        assert_eq!(refint.ipa, Support::Yes);
        assert!(refint.apps[0] && refint.apps[1] && refint.apps[3]);

        let disj = find(InvariantClass::Disjunction);
        assert_eq!(disj.ipa, Support::Yes);
        assert!(disj.apps[1], "Tournament has disjunctions");
    }
}
