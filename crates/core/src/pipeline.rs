//! The IPA main loop (Alg. 1, lines 1–6): iterate conflict detection and
//! repair until the application is `I`-confluent, flagging unsolvable
//! pairs and routing numeric invariants to compensations.

use crate::compensation::{compensation_for, Compensation};
use crate::conflict::ConflictWitness;
use crate::numeric::{numeric_conflicts, NumericConflict};
use crate::repair::{pick_resolution, Resolution, ResolutionPolicy};
use crate::session::AnalysisSession;
use crate::AnalysisError;
use ipa_solver::sat::Stats;
use ipa_spec::{AppSpec, Formula, NumExpr, Symbol};
use std::time::{Duration, Instant};

/// Tuning knobs for the analysis.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Elements per sort in the small-scope universe.
    pub universe_per_sort: usize,
    /// Domain bound for numeric predicates in the SAT encoding.
    pub numeric_bound: i64,
    /// Maximum number of effects a single repair may add.
    pub max_added_effects: usize,
    /// Iteration cap for the repair fixpoint.
    pub max_iterations: usize,
    /// Unattended resolution choice.
    pub policy: ResolutionPolicy,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            universe_per_sort: 2,
            numeric_bound: 12,
            max_added_effects: 2,
            max_iterations: 64,
            policy: ResolutionPolicy::Minimal,
        }
    }
}

impl AnalysisConfig {
    /// Derive a numeric bound large enough to cover the spec's named
    /// constants plus slack for concurrent deltas.
    pub fn tuned_for(spec: &AppSpec) -> Self {
        let max_const = spec
            .constants
            .values()
            .copied()
            .chain(spec.invariants.iter().flat_map(max_literal))
            .max()
            .unwrap_or(0);
        AnalysisConfig {
            numeric_bound: (max_const + 4).clamp(8, 64),
            ..Default::default()
        }
    }
}

fn max_literal(f: &Formula) -> Vec<i64> {
    fn walk_num(e: &NumExpr, out: &mut Vec<i64>) {
        match e {
            NumExpr::Const(k) => out.push(k.abs()),
            NumExpr::Add(l, r) | NumExpr::Sub(l, r) => {
                walk_num(l, out);
                walk_num(r, out);
            }
            _ => {}
        }
    }
    fn walk(f: &Formula, out: &mut Vec<i64>) {
        match f {
            Formula::Cmp(l, _, r) => {
                walk_num(l, out);
                walk_num(r, out);
            }
            Formula::Not(g) | Formula::Forall(_, g) | Formula::Exists(_, g) => walk(g, out),
            Formula::And(gs) | Formula::Or(gs) => gs.iter().for_each(|g| walk(g, out)),
            Formula::Implies(l, r) => {
                walk(l, out);
                walk(r, out);
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(f, &mut out);
    out
}

/// A repair the pipeline applied, with the conflict it fixed.
#[derive(Clone, Debug)]
pub struct AppliedResolution {
    pub witness: ConflictWitness,
    pub resolution: Resolution,
}

/// A pair the pipeline could not repair with the given convergence rules.
#[derive(Clone, Debug)]
pub struct FlaggedConflict {
    pub op1: Symbol,
    pub op2: Symbol,
    pub witness: ConflictWitness,
}

/// The complete output of the analysis.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// The input specification.
    pub original: AppSpec,
    /// The invariant-preserving specification (operations augmented).
    pub patched: AppSpec,
    /// Repairs applied, in order.
    pub applied: Vec<AppliedResolution>,
    /// Conflicts with no effect-repair under the given convergence rules;
    /// the programmer must fall back to coordination (§3, Step 3).
    pub flagged: Vec<FlaggedConflict>,
    /// Numeric invariants routed to compensations.
    pub numeric: Vec<NumericConflict>,
    /// Generated compensations, one per numeric conflict.
    pub compensations: Vec<Compensation>,
    /// False if the iteration cap was hit before reaching a fixpoint.
    pub converged: bool,
    /// Number of conflict-detection passes performed.
    pub iterations: usize,
    /// Detection-pass pair checks actually run: one per distinct pair of
    /// operation values the fixpoint met.
    pub pair_checks: u64,
    /// Detection-pass pairs answered by the session's clean-pair memo.
    pub memo_hits: u64,
    /// Satisfiability queries issued, detection and repair search
    /// together; `queries - solver.solves` of them were decided by
    /// construction, without the solver.
    pub queries: u64,
    /// Solvers loaded with the grounded invariant: one for detection, and
    /// a fresh one for each repair search.
    pub solvers: u64,
    /// Ground footprints computed from an operation's effects.
    pub footprints_built: u64,
    /// Ground footprints of repair candidates computed from their
    /// parent's, by applying the added effects (session rule 3).
    pub footprints_extended: u64,
    /// Solver counters summed over those, including the clauses they were
    /// given. Deterministic, like the six counts above; the three times
    /// below are wall clock and are not.
    pub solver: Stats,
    /// Building the session: grounding the invariant and loading it into
    /// the first solver.
    pub grounding_time: Duration,
    /// Asserting into and running the solver, over all queries.
    pub sat_time: Duration,
    /// The repair searches, their share of `sat_time` included.
    pub repair_time: Duration,
}

impl AnalysisReport {
    /// Is the patched application `I`-confluent (modulo compensations)?
    pub fn is_invariant_preserving(&self) -> bool {
        self.converged && self.flagged.is_empty()
    }
}

/// The analysis driver.
#[derive(Clone, Debug, Default)]
pub struct Analyzer {
    pub config: AnalysisConfig,
}

impl Analyzer {
    pub fn new(config: AnalysisConfig) -> Self {
        Analyzer { config }
    }

    /// Analyzer with the numeric bound tuned to the spec's constants.
    pub fn for_spec(spec: &AppSpec) -> Self {
        Analyzer {
            config: AnalysisConfig::tuned_for(spec),
        }
    }

    /// Run the full IPA pipeline on a specification.
    pub fn analyze(&self, spec: &AppSpec) -> Result<AnalysisReport, AnalysisError> {
        spec.validate()?;
        let cfg = &self.config;
        let mut patched = spec.clone();
        // Repairs only replace operations; everything the session keeps
        // (invariants, rules, universe) is the same in `spec` and `patched`.
        let began = Instant::now();
        let mut session = AnalysisSession::new(spec, cfg)?;
        let grounding_time = began.elapsed();
        let mut repair_time = Duration::ZERO;

        // Numeric invariants: symbolic detection + compensation generation.
        let numeric = numeric_conflicts(&patched);
        let compensations: Vec<Compensation> = numeric.iter().map(compensation_for).collect();

        let mut applied = Vec::new();
        let mut flagged: Vec<FlaggedConflict> = Vec::new();
        let mut converged = false;
        let mut iterations = 0;

        'fixpoint: while iterations < cfg.max_iterations {
            iterations += 1;
            // Find the first conflicting, unflagged pair (deterministic
            // order: operation declaration order, i <= j).
            let n = patched.operations.len();
            let mut found: Option<(usize, usize, ConflictWitness)> = None;
            'search: for i in 0..n {
                for j in i..n {
                    let o1 = &patched.operations[i];
                    let o2 = &patched.operations[j];
                    if flagged.iter().any(|f| f.op1 == o1.name && f.op2 == o2.name) {
                        continue;
                    }
                    if let Some(w) = session.detect(o1, o2)? {
                        found = Some((i, j, w));
                        break 'search;
                    }
                }
            }
            let Some((i, j, witness)) = found else {
                converged = true;
                break 'fixpoint;
            };
            let op1 = patched.operations[i].clone();
            let op2 = patched.operations[j].clone();
            let began = Instant::now();
            let sols = session.repair_conflicts(&op1, &op2)?;
            repair_time += began.elapsed();
            match pick_resolution(sols, cfg.policy, &op1.name) {
                None => {
                    flagged.push(FlaggedConflict {
                        op1: op1.name.clone(),
                        op2: op2.name.clone(),
                        witness,
                    });
                }
                Some(res) => {
                    patched.replace_operation(res.op1.clone());
                    patched.replace_operation(res.op2.clone());
                    applied.push(AppliedResolution {
                        witness,
                        resolution: res,
                    });
                }
            }
        }

        Ok(AnalysisReport {
            original: spec.clone(),
            patched,
            applied,
            flagged,
            numeric,
            compensations,
            converged,
            iterations,
            pair_checks: session.pair_checks,
            memo_hits: session.memo_hits,
            queries: session.queries,
            solvers: session.solvers,
            footprints_built: session.footprints_built,
            footprints_extended: session.footprints_extended,
            solver: session.solver_stats(),
            grounding_time,
            sat_time: session.sat_time,
            repair_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_spec::{AppSpecBuilder, ConvergencePolicy};

    fn tournament_mini() -> AppSpec {
        AppSpecBuilder::new("tournament-mini")
            .sort("Player")
            .sort("Tournament")
            .predicate_bool("player", &["Player"])
            .predicate_bool("tournament", &["Tournament"])
            .predicate_bool("enrolled", &["Player", "Tournament"])
            .rule("player", ConvergencePolicy::AddWins)
            .rule("tournament", ConvergencePolicy::AddWins)
            .rule("enrolled", ConvergencePolicy::RemWins)
            .invariant_str(
                "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
            )
            .operation("add_player", &[("p", "Player")], |op| {
                op.set_true("player", &["p"])
            })
            .operation("rem_player", &[("p", "Player")], |op| {
                op.set_false("player", &["p"])
            })
            .operation("enroll", &[("p", "Player"), ("t", "Tournament")], |op| {
                op.set_true("enrolled", &["p", "t"])
            })
            .operation("disenroll", &[("p", "Player"), ("t", "Tournament")], |op| {
                op.set_false("enrolled", &["p", "t"])
            })
            .operation("add_tourn", &[("t", "Tournament")], |op| {
                op.set_true("tournament", &["t"])
            })
            .operation("rem_tourn", &[("t", "Tournament")], |op| {
                op.set_false("tournament", &["t"])
            })
            .build()
            .unwrap()
    }

    #[test]
    fn pipeline_reaches_invariant_preserving_fixpoint() {
        let spec = tournament_mini();
        let report = Analyzer::default().analyze(&spec).unwrap();
        assert!(
            report.converged,
            "fixpoint not reached in {} iters",
            report.iterations
        );
        assert!(report.flagged.is_empty(), "flagged: {:?}", report.flagged);
        assert!(
            !report.applied.is_empty(),
            "the paper's conflicts must be repaired"
        );
        assert!(report.is_invariant_preserving());

        // Re-analyzing the patched spec finds nothing to do.
        let again = Analyzer::default().analyze(&report.patched).unwrap();
        assert!(again.applied.is_empty());
        assert!(again.converged);
    }

    #[test]
    fn patched_operations_gain_effects_not_lose() {
        let spec = tournament_mini();
        let report = Analyzer::default().analyze(&spec).unwrap();
        for op in &spec.operations {
            let patched = report.patched.operation(op.name.as_str()).unwrap();
            assert!(patched.effect_count() >= op.effect_count());
            // Original effects preserved verbatim.
            assert_eq!(patched.effects, op.effects);
        }
    }

    #[test]
    fn numeric_invariants_route_to_compensations() {
        let spec = AppSpecBuilder::new("cap")
            .sort("Player")
            .sort("Tournament")
            .predicate_bool("enrolled", &["Player", "Tournament"])
            .constant("Capacity", 10)
            .invariant_str("forall(Tournament: t) :- #enrolled(*, t) <= Capacity")
            .operation("enroll", &[("p", "Player"), ("t", "Tournament")], |op| {
                op.set_true("enrolled", &["p", "t"])
            })
            .build()
            .unwrap();
        let report = Analyzer::for_spec(&spec).analyze(&spec).unwrap();
        assert_eq!(report.numeric.len(), 1);
        assert_eq!(report.compensations.len(), 1);
        assert!(report.converged);
    }

    #[test]
    fn unsolvable_pairs_are_flagged() {
        // Mutual exclusion with add-wins on both sides and only 1 effect
        // allowed: active(t) and finished(t) cannot be separated by adding
        // one boolean effect, so the pair is flagged.
        let spec = AppSpecBuilder::new("mutex")
            .sort("Tournament")
            .predicate_bool("active", &["Tournament"])
            .predicate_bool("finished", &["Tournament"])
            .rule("active", ConvergencePolicy::AddWins)
            .rule("finished", ConvergencePolicy::AddWins)
            .invariant_str("forall(Tournament: t) :- not(active(t) and finished(t))")
            .operation("begin", &[("t", "Tournament")], |op| {
                op.set_true("active", &["t"])
            })
            .operation("finish", &[("t", "Tournament")], |op| {
                op.set_true("finished", &["t"]).set_false("active", &["t"])
            })
            .build()
            .unwrap();
        let cfg = AnalysisConfig {
            max_added_effects: 1,
            ..Default::default()
        };
        let report = Analyzer::new(cfg).analyze(&spec).unwrap();
        // Either a repair exists (rem-wins style) or the pair is flagged —
        // with add-wins rules on both predicates there is no 1-effect fix.
        assert!(report.converged);
        if report.applied.is_empty() {
            assert!(!report.flagged.is_empty());
        }
    }

    #[test]
    fn too_many_lww_contested_atoms_is_an_error_not_a_panic() {
        // 2 × 2 × 2 atoms at the default scope, each written both ways.
        let spec = AppSpecBuilder::new("marks")
            .sort("A")
            .sort("B")
            .sort("C")
            .predicate_bool("mark", &["A", "B", "C"])
            .rule("mark", ConvergencePolicy::LastWriterWins)
            .operation("set_all", &[], |op| op.set_true("mark", &["*", "*", "*"]))
            .operation("clear_all", &[], |op| {
                op.set_false("mark", &["*", "*", "*"])
            })
            .build()
            .unwrap();
        let err = Analyzer::default().analyze(&spec).unwrap_err();
        assert_eq!(
            err,
            AnalysisError::TooManyContested {
                op1: Symbol::new("set_all"),
                op2: Symbol::new("clear_all"),
                atoms: 8,
            }
        );
        assert_eq!(
            err.to_string(),
            "set_all ∥ clear_all contest 8 last-writer-wins atoms; \
             the analysis enumerates merge outcomes for at most 6"
        );
    }

    #[test]
    fn tuned_config_covers_constants() {
        let spec = AppSpecBuilder::new("c")
            .sort("T")
            .predicate_bool("p", &["T"])
            .constant("Cap", 40)
            .invariant_str("forall(T: t) :- #p(*) <= Cap")
            .operation("add", &[("t", "T")], |op| op.set_true("p", &["t"]))
            .build()
            .unwrap();
        let cfg = AnalysisConfig::tuned_for(&spec);
        assert!(cfg.numeric_bound >= 44);
    }
}
