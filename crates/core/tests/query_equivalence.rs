//! Differential oracle for the analysis session.
//!
//! [`AnalysisSession`] answers each query by asserting only the invariant
//! conjuncts an operation changes, on a solver that already holds `I` and
//! is reused across queries, behind a memo of clean pairs. The code it
//! replaced asserted the whole of `I`, both weakest preconditions and the
//! negated post-state into a fresh encoder and a fresh solver for every
//! query, over the full product of parameter instantiations where the
//! session asks one instantiation per orbit of same-sort renamings. That
//! code lives on here as [`Reference`], and everything the session answers
//! is compared against it: every pair × instantiation × merge alternative,
//! every pair's verdict and first conflicting instantiation, every repair
//! candidate's executability verdict, and every repair solution list — for
//! the four shipped specifications, for every intermediate specification
//! their fixpoints pass through, and for small generated ones.
//!
//! The last section plants four bugs and checks the oracle turns red on
//! each.

use ipa_apps::ticket::ticket_spec;
use ipa_apps::tournament::tournament_spec;
use ipa_apps::tpc::tpc_spec;
use ipa_apps::twitter::twitter_spec;
use ipa_core::generate::{generate, CandidatePair};
use ipa_core::repair::pick_resolution;
use ipa_core::session::{Footprint, Image};
use ipa_core::universe::{
    build_universe, canonical_instantiations, element, named_sorts, Instantiation,
};
use ipa_core::wp::apply_summary;
use ipa_core::{AnalysisConfig, AnalysisReport, AnalysisSession, Analyzer, EffectSummary};
use ipa_solver::tseitin::Encoder;
use ipa_solver::{AtomTable, GroundFormula, Grounder, Solver, Universe};
use ipa_spec::{
    AppSpec, AppSpecBuilder, Atom, Constant, ConvergencePolicy, Effect, Operation, Sort, Symbol,
    Term,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};

// ---------------------------------------------------------------------
// The reference: full product, full assertion, fresh encoder, fresh
// solver, no memo.
// ---------------------------------------------------------------------

/// Every instantiation of the two operations' parameters over the
/// universe: the cartesian product of per-parameter element choices, in
/// lexicographic order.
fn instantiations(op1: &Operation, op2: &Operation, universe: &Universe) -> Vec<Instantiation> {
    let mut combos: Vec<Vec<Constant>> = vec![Vec::new()];
    for p in op1.params.iter().chain(&op2.params) {
        let elems = universe.elements(&p.sort);
        let mut next = Vec::with_capacity(combos.len() * elems.len().max(1));
        for prefix in &combos {
            for e in elems {
                let mut p = prefix.clone();
                p.push(e.clone());
                next.push(p);
            }
        }
        combos = next;
    }
    combos
        .into_iter()
        .map(|mut v| {
            let rest = v.split_off(op1.params.len());
            (v, rest)
        })
        .collect()
}

struct Reference<'a> {
    spec: &'a AppSpec,
    cfg: &'a AnalysisConfig,
    /// The universe's atoms, numbered as the session numbers them.
    atoms: AtomTable,
}

/// A repair, reduced to what identifies it.
type Repair = (Symbol, Vec<Effect>);

impl<'a> Reference<'a> {
    fn new(spec: &'a AppSpec, cfg: &'a AnalysisConfig) -> Self {
        let universe = build_universe(spec, cfg.universe_per_sort);
        Reference {
            spec,
            cfg,
            atoms: AtomTable::new(&universe, &spec.predicates),
        }
    }

    fn universe(&self) -> &Universe {
        self.atoms.universe()
    }

    fn grounder(&self) -> Grounder<'_> {
        Grounder::with_atoms(&self.atoms, &self.spec.constants)
    }

    /// Every merge alternative of two summaries.
    fn merge(&self, s1: &EffectSummary, s2: &EffectSummary) -> Vec<EffectSummary> {
        s1.merge(s2, &self.spec.rules, &self.atoms)
            .expect("few contested atoms")
    }

    fn ground_invariants(&self) -> Vec<GroundFormula> {
        let grounder = self.grounder();
        self.spec
            .invariants
            .iter()
            .map(|i| grounder.ground(i).expect("invariant grounds"))
            .collect()
    }

    fn summary(&self, op: &Operation, args: &[ipa_spec::Constant]) -> Option<EffectSummary> {
        let effects = op.ground(args)?;
        Some(EffectSummary::from_effects(&effects, &self.grounder()).expect("effects ground"))
    }

    fn satisfiable(&self, asserted: &[GroundFormula]) -> bool {
        let mut encoder = Encoder::new(self.cfg.numeric_bound);
        for g in asserted {
            encoder.assert(g);
        }
        let mut solver = Solver::new();
        for clause in &encoder.cnf.clauses {
            solver.add_clause(&clause.lits);
        }
        solver.solve()
    }

    /// `I ∧ wp(s1) ∧ wp(s2) ∧ ¬merged(I)`, every conjunct spelled out.
    fn violates(&self, s1: &EffectSummary, s2: &EffectSummary, merged: &EffectSummary) -> bool {
        let invs = self.ground_invariants();
        let mut asserted = invs.clone();
        asserted.extend(invs.iter().map(|g| apply_summary(g, s1)));
        asserted.extend(invs.iter().map(|g| apply_summary(g, s2)));
        let post = invs.iter().map(|g| apply_summary(g, merged)).collect();
        asserted.push(GroundFormula::not(GroundFormula::and(post)));
        self.satisfiable(&asserted)
    }

    /// Can `op1(args1) ∥ op2(args2)` violate the invariant under some
    /// merge alternative?
    fn violated_at(
        &self,
        op1: &Operation,
        op2: &Operation,
        (args1, args2): &Instantiation,
    ) -> bool {
        let (Some(s1), Some(s2)) = (self.summary(op1, args1), self.summary(op2, args2)) else {
            return false;
        };
        !(s1.is_empty() && s2.is_empty())
            && self
                .merge(&s1, &s2)
                .iter()
                .any(|merged| self.violates(&s1, &s2, merged))
    }

    /// The first conflicting instantiation of the full product.
    fn first_conflict(&self, op1: &Operation, op2: &Operation) -> Option<Instantiation> {
        instantiations(op1, op2, self.universe())
            .into_iter()
            .find(|inst| self.violated_at(op1, op2, inst))
    }

    fn conflicts(&self, op1: &Operation, op2: &Operation) -> bool {
        self.first_conflict(op1, op2).is_some()
    }

    fn preserves_executability(
        &self,
        orig1: &Operation,
        orig2: &Operation,
        cand1: &Operation,
        cand2: &Operation,
    ) -> bool {
        let invs = self.ground_invariants();
        for (args1, args2) in instantiations(orig1, orig2, self.universe()) {
            let (Some(so1), Some(so2)) = (self.summary(orig1, &args1), self.summary(orig2, &args2))
            else {
                continue;
            };
            let (Some(sc1), Some(sc2)) = (self.summary(cand1, &args1), self.summary(cand2, &args2))
            else {
                continue;
            };
            let mut asserted = Vec::new();
            let mut cand_wps = Vec::new();
            for g in &invs {
                asserted.push(g.clone());
                asserted.push(apply_summary(g, &so1));
                asserted.push(apply_summary(g, &so2));
                cand_wps.push(apply_summary(g, &sc1));
                cand_wps.push(apply_summary(g, &sc2));
            }
            asserted.push(GroundFormula::not(GroundFormula::and(cand_wps)));
            if self.satisfiable(&asserted) {
                return false;
            }
        }
        true
    }

    /// The repair search, given each candidate's executability verdict
    /// (computed once by the caller, which compares them too).
    fn repair_conflicts(&self, candidates: &[CandidatePair], preserves: &[bool]) -> Vec<Repair> {
        let mut sols: Vec<Repair> = Vec::new();
        for (cand, &preserves) in candidates.iter().zip(preserves) {
            let extends_a_solution = sols.iter().any(|(to, added)| {
                *to == cand.added_to && added.iter().all(|e| cand.added.contains(e))
            });
            if extends_a_solution || !preserves || self.conflicts(&cand.op1, &cand.op2) {
                continue;
            }
            sols.push((cand.added_to.clone(), cand.added.clone()));
        }
        sols
    }
}

// ---------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------

/// How the subject answers one query; the planted bugs swap this out.
type Query = fn(&mut AnalysisSession, &Footprint, &Footprint, &EffectSummary) -> bool;

fn session_query(
    s: &mut AnalysisSession,
    f1: &Footprint,
    f2: &Footprint,
    merged: &EffectSummary,
) -> bool {
    let wp: Vec<&Image> = f1.wp.iter().chain(&f2.wp).collect();
    let post = s.image(merged);
    let post: Vec<&Image> = post.iter().collect();
    s.query(&wp, &post)
}

/// Every pair × instantiation × merge alternative of `spec`'s operations:
/// the subject's SAT/UNSAT against the reference's. Returns how many
/// queries were compared, or the first disagreement.
fn compare_queries(spec: &AppSpec, cfg: &AnalysisConfig, query: Query) -> Result<usize, String> {
    let reference = Reference::new(spec, cfg);
    let mut session = AnalysisSession::new(spec, cfg).expect("session");
    let mut compared = 0;
    for (i, op1) in spec.operations.iter().enumerate() {
        for op2 in &spec.operations[i..] {
            for (args1, args2) in instantiations(op1, op2, reference.universe()) {
                let f1 = session.footprint(op1, &args1).expect("footprint");
                let f2 = session.footprint(op2, &args2).expect("footprint");
                let (Some(f1), Some(f2)) = (f1, f2) else {
                    continue;
                };
                assert_eq!(Some(&f1.summary), reference.summary(op1, &args1).as_ref());
                for merged in reference.merge(&f1.summary, &f2.summary) {
                    let expected = reference.violates(&f1.summary, &f2.summary, &merged);
                    let got = query(&mut session, &f1, &f2, &merged);
                    compared += 1;
                    if got != expected {
                        return Err(format!(
                            "{}: {}({args1:?}) ∥ {}({args2:?}): reference says {expected}, session {got}",
                            spec.name, op1.name, op2.name
                        ));
                    }
                }
            }
            // The pair-level answer (first SAT wins) agrees as well, down to
            // the instantiation: the first conflict of the full product is
            // the least of its orbit, so the session asks it too.
            let witness = session.check_pair(op1, op2).expect("check_pair");
            let got = witness.map(|w| (w.args1, w.args2));
            let expected = reference.first_conflict(op1, op2);
            if got != expected {
                return Err(format!(
                    "{}: {} ∥ {}: reference's first conflict {expected:?}, session's {got:?}",
                    spec.name, op1.name, op2.name
                ));
            }
            if session.conflicts(op1, op2).expect("conflicts") != expected.is_some() {
                return Err(format!(
                    "{}: {} ∥ {} yes/no verdict",
                    spec.name, op1.name, op2.name
                ));
            }
        }
    }
    Ok(compared)
}

/// Every candidate's executability verdict and the whole solution list of
/// one repair search.
fn compare_repair(
    spec: &AppSpec,
    cfg: &AnalysisConfig,
    op1: &Operation,
    op2: &Operation,
) -> Result<usize, String> {
    let reference = Reference::new(spec, cfg);
    let mut session = AnalysisSession::new(spec, cfg).expect("session");
    let candidates = generate(spec, op1, op2, cfg.max_added_effects);
    let mut verdicts = Vec::with_capacity(candidates.len());
    for cand in &candidates {
        let expected = reference.preserves_executability(op1, op2, &cand.op1, &cand.op2);
        let got = session
            .preserves_executability(op1, op2, &cand.op1, &cand.op2)
            .expect("preserves_executability");
        if got != expected {
            return Err(format!(
                "{}: candidate {} += {:?}: reference says {expected}, session {got}",
                spec.name, cand.added_to, cand.added
            ));
        }
        verdicts.push(expected);
    }
    let expected = reference.repair_conflicts(&candidates, &verdicts);
    let got: Vec<Repair> = session
        .repair_conflicts(op1, op2)
        .expect("repair_conflicts")
        .into_iter()
        .map(|r| (r.added_to, r.added))
        .collect();
    if got != expected {
        return Err(format!(
            "{}: {} ∥ {}: reference repairs {expected:?}, session {got:?}",
            spec.name, op1.name, op2.name
        ));
    }
    Ok(candidates.len())
}

/// How the instantiations of a pair are enumerated; the planted bugs swap
/// this out.
type Enumerate = fn(&AppSpec, &Operation, &Operation, &Universe) -> Vec<Instantiation>;

fn param_sorts(op: &Operation) -> Vec<Sort> {
    op.params.iter().map(|p| p.sort.clone()).collect()
}

/// The session's enumeration: one instantiation per orbit, the sorts the
/// invariants and the two operations name left whole.
fn canonical(spec: &AppSpec, op1: &Operation, op2: &Operation, u: &Universe) -> Vec<Instantiation> {
    let pinned = named_sorts(&spec.invariants, [op1, op2]);
    canonical_instantiations(&param_sorts(op1), &param_sorts(op2), u, &pinned)
}

/// Every pair of `spec`'s operations: the reference's first conflict among
/// `enumerate`'s instantiations against its first conflict in the full
/// product. Returns how many instantiations each side enumerated, or the
/// first disagreement.
fn compare_enumeration(
    spec: &AppSpec,
    cfg: &AnalysisConfig,
    enumerate: Enumerate,
) -> Result<(usize, usize), String> {
    let reference = Reference::new(spec, cfg);
    let (mut asked, mut full) = (0, 0);
    for (i, op1) in spec.operations.iter().enumerate() {
        for op2 in &spec.operations[i..] {
            let all = instantiations(op1, op2, reference.universe());
            let violated: Vec<bool> = all
                .iter()
                .map(|inst| reference.violated_at(op1, op2, inst))
                .collect();
            let expected = all.iter().zip(&violated).find(|(_, &v)| v).map(|(i, _)| i);
            let subset = enumerate(spec, op1, op2, reference.universe());
            let got = subset.iter().find(|inst| {
                let k = all.iter().position(|a| a == *inst).expect("in the product");
                violated[k]
            });
            if got != expected {
                return Err(format!(
                    "{}: {} ∥ {}: first conflict of the product {expected:?}, enumerated {got:?}",
                    spec.name, op1.name, op2.name
                ));
            }
            asked += subset.len();
            full += all.len();
        }
    }
    Ok((asked, full))
}

/// The specifications the fixpoint of `spec` passes through, each with the
/// pair it repairs next; the last entry is the patched specification.
fn trajectory(spec: &AppSpec) -> Vec<(AppSpec, Option<(Operation, Operation)>)> {
    let report = Analyzer::for_spec(spec).analyze(spec).expect("analysis");
    let mut current = spec.clone();
    let mut out = Vec::new();
    for a in &report.applied {
        let r = &a.resolution;
        let pair = (
            current.operation(r.op1.name.as_str()).unwrap().clone(),
            current.operation(r.op2.name.as_str()).unwrap().clone(),
        );
        out.push((current.clone(), Some(pair)));
        current.replace_operation(r.op1.clone());
        current.replace_operation(r.op2.clone());
    }
    assert_eq!(current.operations, report.patched.operations);
    out.push((current, None));
    out
}

fn shipped_specs() -> [AppSpec; 4] {
    [
        tournament_spec(),
        twitter_spec(false),
        ticket_spec(),
        tpc_spec(),
    ]
}

#[test]
fn every_query_of_every_intermediate_spec_matches_the_reference() {
    for spec in shipped_specs() {
        let cfg = AnalysisConfig::tuned_for(&spec);
        let mut compared = 0;
        for (step, _) in trajectory(&spec) {
            compared +=
                compare_queries(&step, &cfg, session_query).unwrap_or_else(|e| panic!("{e}"));
        }
        assert!(compared > 0, "{}: nothing compared", spec.name);
    }
}

#[test]
fn every_repair_search_matches_the_reference() {
    for spec in shipped_specs() {
        let cfg = AnalysisConfig::tuned_for(&spec);
        let report = Analyzer::for_spec(&spec).analyze(&spec).expect("analysis");
        for (step, pair) in trajectory(&spec) {
            if let Some((op1, op2)) = pair {
                compare_repair(&step, &cfg, &op1, &op2).unwrap_or_else(|e| panic!("{e}"));
            } else {
                // Flagged pairs have no repair; both sides must say so.
                for f in &report.flagged {
                    let op1 = step.operation(f.op1.as_str()).unwrap();
                    let op2 = step.operation(f.op2.as_str()).unwrap();
                    compare_repair(&step, &cfg, op1, op2).unwrap_or_else(|e| panic!("{e}"));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Small generated specifications.
// ---------------------------------------------------------------------

/// Invariant shapes of the paper's Table 1 over a fixed vocabulary: two
/// sorts, four boolean predicates, one numeric.
const INVARIANTS: [&str; 7] = [
    "forall(A: x, B: y) :- r(x,y) => a(x) and b(y)",
    "forall(A: x, B: y) :- s(x,y) => r(x,y)",
    "forall(A: x, B: y) :- not(r(x,y) and s(x,y))",
    "forall(A: x, B: y) :- r(x,y) => a(x) or s(x,y)",
    "forall(B: y) :- #r(*, y) <= Cap",
    "forall(B: y) :- n(y) >= 0",
    "forall(B: y) :- b(y) => n(y) >= 1",
];

const POLICIES: [ConvergencePolicy; 3] = [
    ConvergencePolicy::AddWins,
    ConvergencePolicy::RemWins,
    ConvergencePolicy::LastWriterWins,
];

fn generated_spec(invariants: &[usize], operations: &[usize], policies: &[usize]) -> AppSpec {
    let mut b = AppSpecBuilder::new("generated")
        .sort("A")
        .sort("B")
        .predicate_bool("a", &["A"])
        .predicate_bool("b", &["B"])
        .predicate_bool("r", &["A", "B"])
        .predicate_bool("s", &["A", "B"])
        .predicate_num("n", &["B"])
        .constant("Cap", 1);
    for (pred, &p) in ["a", "b", "r", "s"].iter().zip(policies) {
        b = b.rule(pred, POLICIES[p]);
    }
    let mut seen = HashSet::new();
    for &i in invariants {
        if seen.insert(i) {
            b = b.invariant_str(INVARIANTS[i]);
        }
    }
    let x = ("x", "A");
    let y = ("y", "B");
    let mut seen = HashSet::new();
    // The one effect naming an element: its sort is not renamed.
    let b2 = || Term::Const(element(&Sort::new("B"), 2));
    for &o in operations {
        if seen.len() == 4 || !seen.insert(o) {
            continue;
        }
        b = match o {
            0 => b.operation("add_a", &[x], |op| op.set_true("a", &["x"])),
            1 => b.operation("rem_a", &[x], |op| op.set_false("a", &["x"])),
            2 => b.operation("rem_b", &[y], |op| op.set_false("b", &["y"])),
            3 => b.operation("link", &[x, y], |op| op.set_true("r", &["x", "y"])),
            4 => b.operation("unlink", &[x, y], |op| op.set_false("r", &["x", "y"])),
            5 => b.operation("mark", &[x, y], |op| op.set_true("s", &["x", "y"])),
            6 => b.operation("clear_b", &[y], |op| {
                op.set_false("b", &["y"]).set_false("r", &["*", "y"])
            }),
            7 => b.operation("swap", &[x, y], |op| {
                op.set_true("s", &["x", "y"]).set_false("r", &["x", "y"])
            }),
            8 => b.operation("take", &[y], |op| op.dec("n", &["y"], 1)),
            9 => b.operation("open_b", &[y], |op| {
                op.set_true("b", &["y"]).inc("n", &["y"], 2)
            }),
            _ => b.operation("close_second", &[x], |op| {
                op.set_true("a", &["x"])
                    .effect(Effect::set_false(Atom::new("b", vec![b2()])))
            }),
        };
    }
    b.build().expect("generated spec is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn generated_specs_match_the_reference(
        invariants in prop::collection::vec(0usize..7, 2..=4),
        operations in prop::collection::vec(0usize..11, 4..=7),
        policies in prop::collection::vec(0usize..3, 4),
    ) {
        let spec = generated_spec(&invariants, &operations, &policies);
        let cfg = AnalysisConfig::tuned_for(&spec);
        if let Err(e) = compare_queries(&spec, &cfg, session_query) {
            prop_assert!(false, "{}\n{:?}", e, spec);
        }

        // The repair search of the first conflicting pair, if any.
        let reference = Reference::new(&spec, &cfg);
        let conflicting = spec.operations.iter().enumerate().find_map(|(i, op1)| {
            let op2 = spec.operations[i..].iter().find(|op2| reference.conflicts(op1, op2))?;
            Some((op1, op2))
        });
        if let Some((op1, op2)) = conflicting {
            if let Err(e) = compare_repair(&spec, &cfg, op1, op2) {
                prop_assert!(false, "{}\n{:?}", e, spec);
            }
        }
    }
}

/// The analysis as `tests/analysis_pipeline.rs` renders it for its scope
/// check: every applied resolution, the flagged pairs, each patched
/// operation.
fn render(report: &AnalysisReport) -> String {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// On specifications nobody wrote by hand, a third or a fourth element
    /// per sort changes no repair, no flagged pair and no patched
    /// operation either; this also numbers atoms over 3 and 4 elements
    /// per sort, through last-writer-wins merges.
    #[test]
    fn generated_verdicts_are_stable_at_scope_2_3_and_4(
        invariants in prop::collection::vec(0usize..7, 2..=4),
        operations in prop::collection::vec(0usize..11, 4..=7),
        policies in prop::collection::vec(0usize..3, 4),
    ) {
        let spec = generated_spec(&invariants, &operations, &policies);
        let at_scope = |universe_per_sort| {
            let config = AnalysisConfig {
                universe_per_sort,
                ..AnalysisConfig::tuned_for(&spec)
            };
            render(&Analyzer::new(config).analyze(&spec).expect("analysis"))
        };
        let two = at_scope(2);
        for scope in [3, 4] {
            prop_assert_eq!(at_scope(scope), two.clone(), "scope {}\n{:?}", scope, spec);
        }
    }
}

// ---------------------------------------------------------------------
// The oracle can fail: three planted bugs, each caught.
// ---------------------------------------------------------------------

/// Rule 1 broken: one changed conjunct is left out of the negated
/// post-state, as if it had been classified unchanged.
fn query_dropping_a_changed_conjunct(
    s: &mut AnalysisSession,
    f1: &Footprint,
    f2: &Footprint,
    merged: &EffectSummary,
) -> bool {
    let wp: Vec<&Image> = f1.wp.iter().chain(&f2.wp).collect();
    let post = s.image(merged);
    let post: Vec<&Image> = post.iter().skip(1).collect();
    s.query(&wp, &post)
}

/// Rule 2 broken: the query's scope is never popped, so its selector is
/// never retired and its assertions stay in force for every later query.
fn query_leaking_its_scope(
    s: &mut AnalysisSession,
    f1: &Footprint,
    f2: &Footprint,
    merged: &EffectSummary,
) -> bool {
    let negated = GroundFormula::or(
        s.image(merged)
            .into_iter()
            .map(|i| GroundFormula::not((*i.formula).clone()))
            .collect(),
    );
    let solver = s.solver();
    solver.push();
    for i in f1.wp.iter().chain(&f2.wp) {
        solver.assert(&i.formula);
    }
    solver.assert(&negated);
    solver.solve().is_sat()
}

#[test]
fn a_dropped_conjunct_or_a_leaked_scope_turns_the_oracle_red() {
    let spec = tournament_spec();
    let cfg = AnalysisConfig::tuned_for(&spec);
    assert!(compare_queries(&spec, &cfg, session_query).is_ok());
    let dropped = compare_queries(&spec, &cfg, query_dropping_a_changed_conjunct);
    assert!(dropped.is_err(), "a dropped conjunct went unnoticed");
    let leaked = compare_queries(&spec, &cfg, query_leaking_its_scope);
    assert!(leaked.is_err(), "a leaked scope went unnoticed");
}

/// The fixpoint of `Analyzer::analyze`, with the clean-pair memo keyed as
/// the caller says. Returns the applied repairs and the flagged pairs.
fn fixpoint(spec: &AppSpec, key: fn(&Operation) -> String) -> (Vec<String>, Vec<(Symbol, Symbol)>) {
    let cfg = AnalysisConfig::tuned_for(spec);
    let mut session = AnalysisSession::new(spec, &cfg).expect("session");
    let mut patched = spec.clone();
    let mut clean: HashSet<(String, String)> = HashSet::new();
    let mut applied = Vec::new();
    let mut flagged: Vec<(Symbol, Symbol)> = Vec::new();
    for _ in 0..cfg.max_iterations {
        let mut found = None;
        'search: for (i, o1) in patched.operations.iter().enumerate() {
            for o2 in &patched.operations[i..] {
                if flagged.contains(&(o1.name.clone(), o2.name.clone()))
                    || clean.contains(&(key(o1), key(o2)))
                {
                    continue;
                }
                if session.check_pair(o1, o2).expect("check_pair").is_some() {
                    found = Some((o1.clone(), o2.clone()));
                    break 'search;
                }
                clean.insert((key(o1), key(o2)));
            }
        }
        let Some((o1, o2)) = found else {
            break;
        };
        let sols = session
            .repair_conflicts(&o1, &o2)
            .expect("repair_conflicts");
        match pick_resolution(sols, cfg.policy, &o1.name) {
            None => flagged.push((o1.name, o2.name)),
            Some(r) => {
                applied.push(r.to_string());
                patched.replace_operation(r.op1);
                patched.replace_operation(r.op2);
            }
        }
    }
    (applied, flagged)
}

#[test]
fn a_memo_keyed_on_names_turns_the_oracle_red() {
    let mut red = 0;
    for spec in shipped_specs() {
        let report = Analyzer::for_spec(&spec).analyze(&spec).expect("analysis");
        let expected = (
            report
                .applied
                .iter()
                .map(|a| a.resolution.to_string())
                .collect::<Vec<_>>(),
            report
                .flagged
                .iter()
                .map(|f| (f.op1.clone(), f.op2.clone()))
                .collect::<Vec<_>>(),
        );
        // Keyed on operation values the memo changes nothing ...
        assert_eq!(
            fixpoint(&spec, |op| op.to_string()),
            expected,
            "{}",
            spec.name
        );
        // ... keyed on names it hides the conflicts a repair introduces.
        red += usize::from(fixpoint(&spec, |op| op.name.to_string()) != expected);
    }
    assert!(red > 0, "a name-keyed memo went unnoticed on every spec");
}

/// One orbit kept of each pair's: every parameter is its sort's first
/// element, as if the fully aliased instantiation stood for all.
fn all_first(_: &AppSpec, op1: &Operation, op2: &Operation, u: &Universe) -> Vec<Instantiation> {
    let first = |op: &Operation| {
        op.params
            .iter()
            .map(|p| u.elements(&p.sort)[0].clone())
            .collect()
    };
    vec![(first(op1), first(op2))]
}

/// The per-sort fallback left out: a sort named by a constant is renamed
/// anyway, so the orbits that put a parameter on the named element merge
/// with those that do not.
fn renaming_named_sorts(
    _: &AppSpec,
    op1: &Operation,
    op2: &Operation,
    u: &Universe,
) -> Vec<Instantiation> {
    canonical_instantiations(&param_sorts(op1), &param_sorts(op2), u, &BTreeSet::new())
}

#[test]
fn a_dropped_orbit_turns_the_oracle_red() {
    // Under `#r(*, y) <= 1`, `link(x, y) ∥ link(x', y)` conflicts only at
    // `x != x'`; `link(x, y) ∥ close_second(x')` conflicts only at
    // `y = B#2`, the element `close_second` names, so `B` keeps both.
    let spec = generated_spec(&[0, 4], &[3, 10], &[0, 0, 0, 0]);
    let cfg = AnalysisConfig::tuned_for(&spec);
    let (asked, full) =
        compare_enumeration(&spec, &cfg, canonical).unwrap_or_else(|e| panic!("{e}"));
    assert!(asked < full, "{asked} of {full}: nothing reduced");
    compare_queries(&spec, &cfg, session_query).unwrap_or_else(|e| panic!("{e}"));
    let dropped = compare_enumeration(&spec, &cfg, all_first);
    assert!(dropped.is_err(), "a dropped orbit went unnoticed");
    let renamed = compare_enumeration(&spec, &cfg, renaming_named_sorts);
    assert!(renamed.is_err(), "a renamed named sort went unnoticed");
}

// ---------------------------------------------------------------------
// The CNF beyond the shipped specifications: solver counters of fixed
// generated specifications.
// ---------------------------------------------------------------------

/// A fixed list of [`generated_spec`] inputs, enumerated by arithmetic
/// rather than drawn, so the list cannot move with the RNG. Every third
/// one starts with `close_second`, the operation that names an element.
fn pinned_inputs() -> Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    (0..24)
        .map(|k| {
            let invariants = vec![k % 7, (k + 2) % 7, (3 * k + 5) % 7];
            let mut operations = vec![k % 11, (k + 4) % 11, (7 * k + 3) % 11, (5 * k + 9) % 11];
            if k % 3 == 0 {
                operations.insert(0, 10);
            }
            operations.extend([3, 6, 8]);
            let policies = vec![k % 3, (k / 3) % 3, (k / 9) % 3, (k + 1) % 3];
            (invariants, operations, policies)
        })
        .collect()
}

/// Each pinned input's `Analyzer::analyze` counters: queries, then the
/// solver's solves, decisions, conflicts, propagations and clauses. A
/// moved counter means the CNF, its clause order or its variable
/// numbering changed.
const GENERATED_COUNTERS: &str = "\
00: queries 141, solves 49, decisions 181, conflicts 3, propagations 805, clauses 181
01: queries 87, solves 17, decisions 110, conflicts 0, propagations 230, clauses 92
02: queries 36, solves 5, decisions 20, conflicts 0, propagations 56, clauses 62
03: queries 263, solves 156, decisions 505, conflicts 22, propagations 2265, clauses 544
04: queries 396, solves 130, decisions 1600, conflicts 0, propagations 4291, clauses 2787
05: queries 45, solves 22, decisions 77, conflicts 2, propagations 550, clauses 109
06: queries 34, solves 0, decisions 0, conflicts 0, propagations 4, clauses 36
07: queries 96, solves 66, decisions 260, conflicts 8, propagations 797, clauses 197
08: queries 74, solves 17, decisions 112, conflicts 0, propagations 185, clauses 19
09: queries 26, solves 0, decisions 0, conflicts 0, propagations 6, clauses 30
10: queries 181, solves 58, decisions 209, conflicts 3, propagations 933, clauses 240
11: queries 58, solves 14, decisions 117, conflicts 0, propagations 370, clauses 106
12: queries 127, solves 50, decisions 176, conflicts 7, propagations 1332, clauses 247
13: queries 398, solves 128, decisions 1344, conflicts 0, propagations 3908, clauses 2916
14: queries 75, solves 35, decisions 123, conflicts 2, propagations 500, clauses 105
15: queries 39, solves 0, decisions 0, conflicts 0, propagations 0, clauses 8
16: queries 78, solves 20, decisions 47, conflicts 0, propagations 130, clauses 96
17: queries 252, solves 141, decisions 438, conflicts 14, propagations 1978, clauses 636
18: queries 670, solves 130, decisions 1600, conflicts 0, propagations 4291, clauses 2787
19: queries 27, solves 4, decisions 22, conflicts 0, propagations 129, clauses 91
20: queries 26, solves 2, decisions 0, conflicts 0, propagations 5, clauses 37
21: queries 288, solves 137, decisions 350, conflicts 14, propagations 1677, clauses 342
22: queries 26, solves 0, decisions 0, conflicts 0, propagations 0, clauses 8
23: queries 128, solves 54, decisions 77, conflicts 0, propagations 232, clauses 116
";

#[test]
fn generated_spec_solver_counters_match_their_golden() {
    let mut got = String::new();
    for (k, (invariants, operations, policies)) in pinned_inputs().into_iter().enumerate() {
        let spec = generated_spec(&invariants, &operations, &policies);
        let report = Analyzer::for_spec(&spec).analyze(&spec).expect("analysis");
        let s = &report.solver;
        got.push_str(&format!(
            "{k:02}: queries {}, solves {}, decisions {}, conflicts {}, propagations {}, clauses {}\n",
            report.queries, s.solves, s.decisions, s.conflicts, s.propagations, s.clauses
        ));
    }
    assert_eq!(got, GENERATED_COUNTERS);
}

// ---------------------------------------------------------------------
// Footprints by block arithmetic against footprints by name.
// ---------------------------------------------------------------------

/// Every argument list of `op` over the universe: one per slot of its
/// footprint table.
fn arguments(op: &Operation, universe: &Universe) -> Vec<Vec<Constant>> {
    let mut out: Vec<Vec<Constant>> = vec![Vec::new()];
    for p in &op.params {
        out = out
            .iter()
            .flat_map(|prefix| {
                universe.elements(&p.sort).iter().map(move |e| {
                    let mut args = prefix.clone();
                    args.push(e.clone());
                    args
                })
            })
            .collect();
    }
    out
}

/// The session's footprint of every operation of `spec` and of every
/// repair it accepts for a conflicting pair, at every slot: its summary
/// is what grounding the effects by name gives (`Operation::ground`,
/// then `EffectSummary::from_effects`), and its images are that
/// summary's. An accepted repair's footprints are extended from its
/// original's. Returns how many footprints were compared.
fn compare_footprints(spec: &AppSpec, cfg: &AnalysisConfig) -> Result<usize, String> {
    let reference = Reference::new(spec, cfg);
    let mut session = AnalysisSession::new(spec, cfg).expect("session");
    let mut ops = spec.operations.clone();
    for (i, op1) in spec.operations.iter().enumerate() {
        for op2 in &spec.operations[i..] {
            if session.conflicts(op1, op2).expect("conflicts") {
                for r in session.repair_conflicts(op1, op2).expect("repairs") {
                    ops.extend([r.op1, r.op2]);
                }
            }
        }
    }
    let mut compared = 0;
    for op in &ops {
        for args in arguments(op, reference.universe()) {
            let got = session.footprint(op, &args).expect("footprint");
            let expected = reference.summary(op, &args);
            if got.as_ref().map(|f| &f.summary) != expected.as_ref() {
                return Err(format!(
                    "{}: {op} at {args:?}: by name {expected:?}, by arithmetic {:?}",
                    spec.name,
                    got.map(|f| f.summary.clone())
                ));
            }
            if let Some(f) = got {
                if f.wp != session.image(&f.summary) {
                    return Err(format!("{}: {op} at {args:?}: images", spec.name));
                }
            }
            compared += 1;
        }
    }
    Ok(compared)
}

/// The shipped specifications and every intermediate one their
/// fixpoints pass through, at scopes 2 and 3; the pinned generated ones
/// at scopes 1, 2 and 11. At scope 1 the element `close_second` names,
/// `B#2`, is outside the universe, so its effect is grounded by name.
/// From `Sort#10` on, the universe's order of a sort's elements (`#1,
/// #2, …, #10, #11`) is not their sorted order (`#1, #10, #11, #2, …`),
/// which the atom table counts in.
#[test]
fn compiled_footprints_equal_the_footprints_grounded_by_name() {
    let shipped = shipped_specs()
        .into_iter()
        .flat_map(|spec| trajectory(&spec))
        .map(|(step, _)| (step, vec![2, 3]));
    let generated = pinned_inputs()
        .into_iter()
        .map(|(invariants, operations, policies)| {
            (
                generated_spec(&invariants, &operations, &policies),
                vec![1, 2, 11],
            )
        });
    let mut named = 0;
    for (spec, scopes) in shipped.chain(generated) {
        named += usize::from(spec.operation("close_second").is_some());
        for universe_per_sort in scopes {
            let cfg = AnalysisConfig {
                universe_per_sort,
                ..AnalysisConfig::tuned_for(&spec)
            };
            let compared = compare_footprints(&spec, &cfg).unwrap_or_else(|e| panic!("{e}"));
            assert!(compared > 0, "{}: nothing compared", spec.name);
        }
    }
    assert!(named > 0, "no specification names an element");
}
