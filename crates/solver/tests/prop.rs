//! Property tests: the CDCL solver and Tseitin encoder must agree with
//! brute-force enumeration on random small instances.

use ipa_solver::brute;
use ipa_solver::cnf::Cnf;
use ipa_solver::ground::{AtomId, GroundFormula};
use ipa_solver::lit::{Lit, SatVar};
use ipa_solver::sat::Solver;
use ipa_solver::tseitin::Encoder;
use ipa_solver::SolverSession;
use ipa_spec::CmpOp;
use proptest::prelude::*;

/// Random CNF over `nvars` variables with up to `nclauses` clauses of up to
/// 4 literals each.
fn arb_cnf(nvars: u32, nclauses: usize) -> impl Strategy<Value = Vec<Vec<i32>>> {
    let lit = (1..=nvars as i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    let clause = prop::collection::vec(lit, 1..=4);
    prop::collection::vec(clause, 0..=nclauses)
}

fn build_cnf(clauses: &[Vec<i32>], nvars: u32) -> Cnf {
    let mut cnf = Cnf::new();
    for _ in 0..nvars {
        cnf.fresh_var();
    }
    for c in clauses {
        cnf.add_clause(to_lits(c));
    }
    cnf
}

fn to_lits(clause: &[i32]) -> Vec<Lit> {
    clause
        .iter()
        .map(|&x| Lit::new(SatVar(x.unsigned_abs() - 1), x > 0))
        .collect()
}

fn run_cdcl(cnf: &Cnf) -> Option<Vec<bool>> {
    let mut s = Solver::new();
    for c in &cnf.clauses {
        s.add_clause(&c.lits);
    }
    while (s.num_vars() as u32) < cnf.num_vars() {
        s.new_var();
    }
    if s.solve() {
        Some(s.model())
    } else {
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// CDCL and brute force agree on satisfiability, and CDCL models are
    /// genuine models.
    #[test]
    fn cdcl_agrees_with_brute_force(clauses in arb_cnf(8, 24)) {
        let cnf = build_cnf(&clauses, 8);
        let brute = brute::cnf_satisfiable(&cnf);
        let cdcl = run_cdcl(&cnf);
        prop_assert_eq!(brute.is_some(), cdcl.is_some(),
            "disagreement on {:?}", clauses);
        if let Some(model) = cdcl {
            prop_assert!(cnf.eval(&model), "CDCL returned a non-model for {:?}", clauses);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// One long-lived solver, a base CNF, and a sequence of clause groups
    /// each guarded by its own selector: solving under the selector agrees,
    /// query by query, with a fresh solve of base + group and with brute
    /// force; models satisfy base + group; and once a selector is retired
    /// its group constrains nothing.
    #[test]
    fn guarded_groups_agree_with_fresh_solves(
        base in arb_cnf(8, 12),
        groups in prop::collection::vec(arb_cnf(8, 8), 1..=6),
    ) {
        const NVARS: u32 = 8;
        let base_sat = brute::cnf_satisfiable(&build_cnf(&base, NVARS)).is_some();
        let mut inc = Solver::new();
        for _ in 0..NVARS {
            inc.new_var();
        }
        for c in &base {
            inc.add_clause(&to_lits(c));
        }
        for group in &groups {
            let selector = inc.new_var().positive();
            for c in group {
                let mut guarded = to_lits(c);
                guarded.push(selector.negated());
                inc.add_clause(&guarded);
            }
            let mut both = base.clone();
            both.extend(group.iter().cloned());
            let cnf = build_cnf(&both, NVARS);
            let expected = brute::cnf_satisfiable(&cnf).is_some();
            prop_assert_eq!(run_cdcl(&cnf).is_some(), expected);
            let sat = inc.solve_under(&[selector]);
            prop_assert_eq!(sat, expected, "base {:?} + group {:?}", base, group);
            if sat {
                prop_assert!(cnf.eval(&inc.model()[..NVARS as usize]),
                    "non-model for base {:?} + group {:?}", base, group);
            }
            // Without the assumption the group may be switched off ...
            prop_assert_eq!(inc.solve(), base_sat);
            // ... and after retirement it is off for good.
            inc.add_clause(&[selector.negated()]);
            prop_assert_eq!(inc.solve(), base_sat, "retired group {:?} still binds", group);
        }
    }
}

/// Random ground formulas with counting and numeric atoms, built through
/// the folding constructors.
fn arb_ground_formula() -> impl Strategy<Value = GroundFormula> {
    arb_formula(GroundFormula::not, GroundFormula::and, GroundFormula::or)
}

/// The same shapes as bare enum variants: constants stay where they are
/// and nothing is flattened.
fn arb_raw_formula() -> impl Strategy<Value = GroundFormula> {
    arb_formula(
        |g| GroundFormula::Not(Box::new(g)),
        GroundFormula::And,
        GroundFormula::Or,
    )
}

fn arb_formula(
    not: fn(GroundFormula) -> GroundFormula,
    and: fn(Vec<GroundFormula>) -> GroundFormula,
    or: fn(Vec<GroundFormula>) -> GroundFormula,
) -> impl Strategy<Value = GroundFormula> {
    // Boolean atoms 0..5, numeric atoms 5 and 6.
    let atom = (0u32..5).prop_map(AtomId);
    let num_atom = (5u32..7).prop_map(AtomId);
    let cmp = prop_oneof![
        Just(CmpOp::Le),
        Just(CmpOp::Lt),
        Just(CmpOp::Ge),
        Just(CmpOp::Gt),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne)
    ];
    let leaf = prop_oneof![
        Just(GroundFormula::True),
        Just(GroundFormula::False),
        atom.clone().prop_map(GroundFormula::Atom),
        atom.clone().prop_map(GroundFormula::Atom),
        atom.clone().prop_map(GroundFormula::Atom),
        (prop::collection::vec(atom, 1..4), -1i64..6, cmp.clone()).prop_map(
            |(mut atoms, rhs, op)| {
                atoms.sort();
                atoms.dedup();
                GroundFormula::CountCmp {
                    atoms,
                    offset: 0,
                    op,
                    rhs,
                }
            }
        ),
        (num_atom, -1i64..6, cmp).prop_map(|(atom, rhs, op)| GroundFormula::ValueCmp {
            atom,
            offset: 0,
            op,
            rhs
        }),
    ];
    leaf.prop_recursive(3, 24, 4, move |inner| {
        prop_oneof![
            inner.clone().prop_map(not),
            prop::collection::vec(inner.clone(), 1..4).prop_map(and),
            prop::collection::vec(inner, 1..4).prop_map(or),
        ]
    })
}

/// Rebuild a formula through the folding constructors.
fn folded(f: &GroundFormula) -> GroundFormula {
    match f {
        GroundFormula::Not(g) => GroundFormula::not(folded(g)),
        GroundFormula::And(gs) => GroundFormula::and(gs.iter().map(folded).collect()),
        GroundFormula::Or(gs) => GroundFormula::or(gs.iter().map(folded).collect()),
        leaf => leaf.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The Tseitin encoding (incl. counting networks and order encoding)
    /// is equisatisfiable with the reference semantics.
    #[test]
    fn encoder_agrees_with_formula_enumeration(f in arb_ground_formula()) {
        const BOUND: i64 = 4;
        let brute = brute::formula_satisfiable(&f, BOUND);
        let mut enc = Encoder::new(BOUND);
        enc.assert(&f);
        let mut s = Solver::new();
        for c in &enc.cnf.clauses {
            s.add_clause(&c.lits);
        }
        while (s.num_vars() as u32) < enc.cnf.num_vars() {
            s.new_var();
        }
        let sat = s.solve();
        prop_assert_eq!(brute.is_some(), sat, "disagreement on {:?}", f);
        if sat {
            let (bools, nums) = enc.decode(&s.model());
            prop_assert!(f.eval(&bools, &nums),
                "decoded model does not satisfy formula {:?}: bools={:?} nums={:?}", f, bools, nums);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One long-lived session encodes a sequence of formulas, each in its
    /// own scope, sharing every hash-consed gate with its predecessors:
    /// each answer still matches the reference semantics of that formula
    /// alone, and each decoded model satisfies it.
    #[test]
    fn shared_gates_keep_every_formula_equisatisfiable(
        formulas in prop::collection::vec(arb_ground_formula(), 1..=5),
    ) {
        const BOUND: i64 = 4;
        let mut session = SolverSession::new(BOUND);
        for f in &formulas {
            let brute = brute::formula_satisfiable(f, BOUND);
            session.push();
            session.assert(f);
            let outcome = session.solve();
            session.pop();
            prop_assert_eq!(brute.is_some(), outcome.is_sat(),
                "disagreement on {:?} within {:?}", f, formulas);
            if let Some(m) = outcome.model() {
                prop_assert!(f.eval(&m.bools, &m.nums),
                    "decoded model does not satisfy {:?}: {:?}", f, m);
            }
        }
        // Nothing asserted outside a scope: the session itself stays
        // satisfiable whatever the scopes held.
        prop_assert!(session.solve().is_sat());
    }

    /// Folding constants and flattening in `GroundFormula::{not, and, or}`
    /// never changes what a formula evaluates to.
    #[test]
    fn folding_preserves_eval(raw in arb_raw_formula()) {
        const BOUND: i64 = 4;
        let folded = folded(&raw);
        let bool_atoms: Vec<AtomId> = raw.bool_atoms().into_iter().collect();
        let num_atoms: Vec<AtomId> = raw.num_atoms().into_iter().collect();
        let dom = (BOUND + 1) as usize;
        for bits in 0u32..(1 << bool_atoms.len()) {
            let bools = bool_atoms
                .iter()
                .enumerate()
                .map(|(i, &a)| (a, bits >> i & 1 == 1))
                .collect();
            for combo in 0..dom.pow(num_atoms.len() as u32) {
                let nums = num_atoms
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| (a, (combo / dom.pow(i as u32) % dom) as i64))
                    .collect();
                prop_assert_eq!(raw.eval(&bools, &nums), folded.eval(&bools, &nums),
                    "{:?} folded to {:?}", raw, folded);
            }
        }
    }
}
