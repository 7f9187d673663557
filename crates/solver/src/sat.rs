//! A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
//! analysis with clause learning, activity-driven decisions with phase
//! saving, and geometric restarts.
//!
//! A decision branches on the unassigned variable of highest activity,
//! ties to the lowest index, found by a scan of the variables in index
//! order. A variable assigned at decision level 0 stays assigned (a solve
//! never backtracks below it), so the scan skips the ones that were at
//! the start of the solve: in the analysis most of them are the
//! selectors of retired queries. MiniSat
//! (Eén & Sörensson, *An Extensible SAT-solver*, SAT 2003) keeps the
//! variables in an order heap instead. At the analysis's sizes (hundreds
//! to a few thousand variables, hundreds of small solves that each
//! return to level 0) a heap that keeps every variable was measured no
//! faster at two elements per sort and slower at three and four: its
//! walk re-crosses the assigned entries at its top on every decision.
//!
//! The solver is incremental in the MiniSat sense: clauses may be added
//! between calls, and [`Solver::solve_under`] decides satisfiability under
//! a set of assumption literals without committing to them. A caller
//! guards the clauses of one query with a fresh selector literal `s`
//! (`¬s ∨ clause`), solves with `s` assumed, and retires the query by
//! adding the unit clause `¬s`; learnt clauses are consequences of the
//! clause database alone, so they stay valid across queries.
//!
//! Instances produced by the IPA analysis are small (tens to a few thousand
//! variables), so the implementation favours clarity over heroic
//! optimization — but the algorithms are the real ones, and the solver is
//! validated against brute-force enumeration by property tests.

use crate::lit::{Lit, SatVar};

const ACTIVITY_DECAY: f64 = 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;

/// A stored clause: `len` literals from `start` in the solver's literal
/// arena, the two watched ones first.
#[derive(Clone, Copy, Debug)]
struct ClauseRef {
    start: u32,
    len: u32,
}

impl ClauseRef {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: u32,
}

/// The solver. Variables are created implicitly by the highest index used
/// in added clauses (or explicitly via [`Solver::new_var`]).
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<ClauseRef>,
    /// The literals of every stored clause, problem and learnt, one
    /// clause after the other.
    arena: Vec<Lit>,
    /// Scratch of [`Solver::add_clause`]: the clause being normalised.
    scratch: Vec<Lit>,
    /// Scratch of [`Solver::analyze`]: the clause it learns, and the
    /// reason clause it resolves on.
    learnt: Vec<Lit>,
    reason: Vec<Lit>,
    watches: Vec<Vec<Watcher>>, // indexed by lit code
    values: Vec<i8>,            // 0 = unassigned, 1 = true, -1 = false
    levels: Vec<u32>,
    reasons: Vec<Option<u32>>,
    activity: Vec<f64>,
    phase: Vec<bool>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity_inc: f64,
    unsat: bool,
    /// The satisfying assignment of the last successful solve.
    model: Vec<bool>,
    /// Conflict-analysis scratch (one flag per variable, all clear between
    /// conflicts).
    seen: Vec<bool>,
    /// The variables a decision may pick, in index order: every variable
    /// but those assigned at level 0 when the list was last compacted.
    candidates: Vec<u32>,
    /// How many level-0 assignments the last compaction saw.
    compacted: usize,
    /// Statistics: total conflicts, decisions, propagations.
    pub stats: Stats,
}

/// Solver statistics (exposed for the benchmark harness and, summed over
/// an analysis, for `ipa-core`'s report).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub restarts: u64,
    /// Calls to [`Solver::solve_under`] (and [`Solver::solve`]).
    pub solves: u64,
    /// Clauses accepted by [`Solver::add_clause`] (stored, or enqueued as
    /// a unit), learnt clauses not included.
    pub clauses: u64,
}

impl std::ops::AddAssign for Stats {
    fn add_assign(&mut self, other: Stats) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.solves += other.solves;
        self.clauses += other.clauses;
    }
}

impl Solver {
    pub fn new() -> Self {
        Solver {
            activity_inc: 1.0,
            ..Default::default()
        }
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> SatVar {
        let v = SatVar(self.values.len() as u32);
        self.values.push(0);
        self.levels.push(0);
        self.reasons.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.candidates.push(v.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    fn ensure_var(&mut self, v: SatVar) {
        while self.values.len() <= v.index() {
            self.new_var();
        }
    }

    fn value_of(&self, l: Lit) -> i8 {
        let v = self.values[l.var().index()];
        if l.is_positive() {
            v
        } else {
            -v
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Add a clause, before the first solve or between solves (the solver
    /// is back at decision level 0 whenever a solve returns).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if self.unsat {
            return;
        }
        let mut c = std::mem::take(&mut self.scratch);
        if self.normalize(lits, &mut c) {
            match c.len() {
                0 => self.unsat = true,
                1 => {
                    self.stats.clauses += 1;
                    if !self.enqueue(c[0], None) || self.propagate().is_some() {
                        self.unsat = true;
                    }
                }
                _ => {
                    self.stats.clauses += 1;
                    self.store(&c);
                }
            }
        }
        self.scratch = c;
    }

    /// `lits` as a clause into `c`: sorted, duplicates and literals false
    /// at level 0 dropped. `false` when the clause is a tautology or is
    /// satisfied at level 0, and so is not added at all.
    fn normalize(&mut self, lits: &[Lit], c: &mut Vec<Lit>) -> bool {
        c.clear();
        for &l in lits {
            self.ensure_var(l.var());
            match self.value_of(l) {
                1 => return false, // satisfied at level 0
                -1 => continue,    // already false at level 0: drop literal
                _ => c.push(l),
            }
        }
        c.sort_unstable();
        c.dedup();
        // x and ~x both present: a tautology.
        !c.windows(2).any(|w| w[0].var() == w[1].var())
    }

    /// Store a clause of at least two literals, watching its first two;
    /// returns its index.
    fn store(&mut self, lits: &[Lit]) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[lits[0].code()].push(Watcher { clause: idx });
        self.watches[lits[1].code()].push(Watcher { clause: idx });
        self.clauses.push(ClauseRef {
            start: self.arena.len() as u32,
            len: lits.len() as u32,
        });
        self.arena.extend_from_slice(lits);
        idx
    }

    /// Assign `l` true with an optional reason clause. Returns false on
    /// conflict with an existing assignment.
    fn enqueue(&mut self, l: Lit, reason: Option<u32>) -> bool {
        match self.value_of(l) {
            1 => true,
            -1 => false,
            _ => {
                let v = l.var().index();
                self.values[v] = if l.is_positive() { 1 } else { -1 };
                self.levels[v] = self.decision_level();
                self.reasons[v] = reason;
                self.phase[v] = l.is_positive();
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation; returns the index of a conflicting clause if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses watching ¬p must be visited: ¬p just became false.
            let false_lit = p.negated();
            let mut watchers = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < watchers.len() {
                let ci = watchers[i].clause;
                // Make lits[1] the false literal.
                let (keep, propagate_lit, conflict) = {
                    let clause = &mut self.arena[self.clauses[ci as usize].range()];
                    if clause[0] == false_lit {
                        clause.swap(0, 1);
                    }
                    debug_assert_eq!(clause[1], false_lit);
                    let first = clause[0];
                    if first != false_lit && {
                        let v = self.values[first.var().index()];
                        (if first.is_positive() { v } else { -v }) == 1
                    } {
                        // Clause already satisfied by the other watch.
                        (true, None, false)
                    } else {
                        // Look for a new literal to watch.
                        let found = clause[2..].iter().position(|&l| {
                            let v = self.values[l.var().index()];
                            (if l.is_positive() { v } else { -v }) != -1
                        });
                        if let Some(k) = found.map(|k| k + 2) {
                            clause.swap(1, k);
                            let new_watch = clause[1];
                            self.watches[new_watch.code()].push(Watcher { clause: ci });
                            (false, None, false)
                        } else {
                            // Unit or conflict on lits[0].
                            let v = self.values[first.var().index()];
                            let val = if first.is_positive() { v } else { -v };
                            if val == -1 {
                                (true, None, true)
                            } else {
                                (true, Some(first), false)
                            }
                        }
                    }
                };
                if conflict {
                    // Keep every remaining watcher (the current one still
                    // watches `false_lit`) and abort propagation.
                    self.watches[false_lit.code()] = watchers;
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                if let Some(l) = propagate_lit {
                    let ok = self.enqueue(l, Some(ci));
                    debug_assert!(ok, "enqueue of unit literal cannot conflict here");
                }
                if keep {
                    i += 1;
                } else {
                    watchers.swap_remove(i);
                }
            }
            // Merge retained watchers with any added during this round.
            let added = std::mem::take(&mut self.watches[false_lit.code()]);
            watchers.extend(added);
            self.watches[false_lit.code()] = watchers;
        }
        None
    }

    fn bump_activity(&mut self, v: SatVar) {
        let a = &mut self.activity[v.index()];
        *a += self.activity_inc;
        if *a > ACTIVITY_RESCALE {
            for act in &mut self.activity {
                *act /= ACTIVITY_RESCALE;
            }
            self.activity_inc /= ACTIVITY_RESCALE;
        }
    }

    fn decay_activities(&mut self) {
        self.activity_inc /= ACTIVITY_DECAY;
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (with the
    /// asserting literal first) in `self.learnt` and returns the backjump
    /// level.
    fn analyze(&mut self, conflict: u32) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        let mut reason_lits = std::mem::take(&mut self.reason);
        learnt.clear();
        learnt.push(Lit::new(SatVar(0), true)); // placeholder slot 0
        let mut counter = 0u32; // literals at current level pending
        let mut p: Option<Lit> = None;
        let mut clause_idx = conflict;
        let mut trail_pos = self.trail.len();
        let current_level = self.decision_level();

        loop {
            {
                let clause = &self.arena[self.clauses[clause_idx as usize].range()];
                let start = usize::from(p.is_some());
                reason_lits.clear();
                reason_lits.extend_from_slice(&clause[start..]);
            }
            for &q in &reason_lits {
                let vi = q.var().index();
                if !self.seen[vi] && self.levels[vi] > 0 {
                    self.seen[vi] = true;
                    self.bump_activity(q.var());
                    if self.levels[vi] == current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal on the trail to resolve on.
            loop {
                trail_pos -= 1;
                let l = self.trail[trail_pos];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found above").var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.expect("found above").negated();
                break;
            }
            clause_idx = self.reasons[pv.index()].expect("non-decision literal has a reason");
        }

        // Backjump level: highest level among learnt[1..]. Those are the
        // only flags still set; clear them for the next conflict.
        let mut bj = 0;
        let mut max_i = 0;
        for (i, l) in learnt.iter().enumerate().skip(1) {
            self.seen[l.var().index()] = false;
            let lvl = self.levels[l.var().index()];
            if lvl > bj {
                bj = lvl;
                max_i = i;
            }
        }
        if max_i > 0 {
            learnt.swap(1, max_i); // watch a literal at the backjump level
        }
        self.learnt = learnt;
        self.reason = reason_lits;
        bj
    }

    fn cancel_until(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            for &l in &self.trail[lim..] {
                let vi = l.var().index();
                self.values[vi] = 0;
                self.reasons[vi] = None;
            }
            self.trail.truncate(lim);
        }
        self.qhead = self.trail.len();
    }

    /// The unassigned variable of highest activity, ties to the lowest
    /// index, in its saved phase.
    fn pick_branch(&self) -> Option<Lit> {
        // The trail lists each assigned variable once; when it lists all
        // of them there is nothing to pick.
        if self.trail.len() == self.values.len() {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        for &v in &self.candidates {
            let i = v as usize;
            if self.values[i] == 0 {
                let a = self.activity[i];
                if best.is_none_or(|(_, ba)| a > ba) {
                    best = Some((i, a));
                }
            }
        }
        best.map(|(i, _)| Lit::new(SatVar(i as u32), self.phase[i]))
    }

    /// Drop from the candidates the variables assigned at level 0 since
    /// the last compaction. Called at level 0, where the whole trail is
    /// level 0's.
    fn compact_candidates(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if self.trail.len() > self.compacted {
            let values = &self.values;
            self.candidates.retain(|&v| values[v as usize] == 0);
            self.compacted = self.trail.len();
        }
    }

    /// Solve the formula. Returns `true` if satisfiable; the model is then
    /// available via [`Solver::model`].
    pub fn solve(&mut self) -> bool {
        self.solve_under(&[])
    }

    /// Solve under assumptions: is the clause database satisfiable with
    /// every literal of `assumptions` true? The assumptions are decided
    /// first, one decision level each, and forgotten on return, so a
    /// `false` here does not make later calls unsatisfiable unless the
    /// database itself is.
    pub fn solve_under(&mut self, assumptions: &[Lit]) -> bool {
        self.stats.solves += 1;
        for &a in assumptions {
            self.ensure_var(a.var());
        }
        self.compact_candidates();
        let sat = self.search(assumptions);
        if sat {
            self.model.clear();
            self.model.extend(self.values.iter().map(|&v| v == 1));
        }
        self.cancel_until(0);
        sat
    }

    fn search(&mut self, assumptions: &[Lit]) -> bool {
        if self.unsat {
            return false;
        }
        let mut conflicts_since_restart = 0u64;
        let mut restart_limit = 100u64;
        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.stats.conflicts += 1;
                    conflicts_since_restart += 1;
                    if self.decision_level() == 0 {
                        self.unsat = true;
                        return false;
                    }
                    let bj = self.analyze(conflict);
                    self.cancel_until(bj);
                    self.decay_activities();
                    let learnt = std::mem::take(&mut self.learnt);
                    let refuted = match learnt.len() {
                        1 => !self.enqueue(learnt[0], None),
                        _ => {
                            let idx = self.store(&learnt);
                            let ok = self.enqueue(learnt[0], Some(idx));
                            debug_assert!(ok, "asserting literal must be unassigned");
                            false
                        }
                    };
                    self.learnt = learnt;
                    if refuted {
                        self.unsat = true;
                        return false;
                    }
                }
                None => {
                    if conflicts_since_restart >= restart_limit {
                        conflicts_since_restart = 0;
                        restart_limit = restart_limit * 3 / 2;
                        self.stats.restarts += 1;
                        self.cancel_until(0);
                        continue;
                    }
                    // Assumptions occupy the first decision levels, in
                    // order; one already implied true still takes its
                    // (empty) level so the indexing holds.
                    let mut next = None;
                    while let Some(&a) = assumptions.get(self.decision_level() as usize) {
                        match self.value_of(a) {
                            1 => self.trail_lim.push(self.trail.len()),
                            -1 => return false, // refuted by the database
                            _ => {
                                next = Some(a);
                                break;
                            }
                        }
                    }
                    if next.is_none() {
                        next = self.pick_branch();
                        if next.is_none() {
                            return true; // full assignment, no conflict
                        }
                        self.stats.decisions += 1;
                    }
                    self.trail_lim.push(self.trail.len());
                    let ok = self.enqueue(next.expect("set above"), None);
                    debug_assert!(ok, "decision variable was unassigned");
                }
            }
        }
    }

    /// The satisfying assignment found by the last successful solve.
    /// Variables created since default to `false`.
    pub fn model(&self) -> Vec<bool> {
        let mut m = self.model.clone();
        m.resize(self.num_vars(), false);
        m
    }

    /// The value assigned to a variable in the model.
    pub fn model_value(&self, v: SatVar) -> bool {
        self.model.get(v.index()).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(spec: &[i32]) -> Vec<Lit> {
        spec.iter()
            .map(|&x| {
                let v = SatVar(x.unsigned_abs() - 1);
                Lit::new(v, x > 0)
            })
            .collect()
    }

    fn solver_with(clauses: &[&[i32]]) -> Solver {
        let mut s = Solver::new();
        for c in clauses {
            s.add_clause(&lits(c));
        }
        s
    }

    #[test]
    fn trivial_sat() {
        let mut s = solver_with(&[&[1]]);
        assert!(s.solve());
        assert!(s.model_value(SatVar(0)));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = solver_with(&[&[1], &[-1]]);
        assert!(!s.solve());
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.add_clause(&[]);
        assert!(!s.solve());
    }

    #[test]
    fn simple_implication_chain() {
        // x1, x1->x2, x2->x3 ... => all true
        let mut s = solver_with(&[&[1], &[-1, 2], &[-2, 3], &[-3, 4]]);
        assert!(s.solve());
        for i in 0..4 {
            assert!(s.model_value(SatVar(i)));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_ij: pigeon i in hole j. vars: p11=1,p12=2,p21=3,p22=4,p31=5,p32=6
        let mut s = solver_with(&[
            &[1, 2],
            &[3, 4],
            &[5, 6],
            // no two pigeons share a hole
            &[-1, -3],
            &[-1, -5],
            &[-3, -5],
            &[-2, -4],
            &[-2, -6],
            &[-4, -6],
        ]);
        assert!(!s.solve());
        assert!(s.stats.conflicts > 0);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: Vec<Vec<i32>> = vec![
            vec![1, 2, -3],
            vec![-1, 3],
            vec![-2, 3],
            vec![1, -2],
            vec![2, -1],
        ];
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(&refs);
        assert!(s.solve());
        let m = s.model();
        for c in &clauses {
            assert!(
                c.iter().any(|&x| {
                    let val = m[(x.unsigned_abs() - 1) as usize];
                    if x > 0 {
                        val
                    } else {
                        !val
                    }
                }),
                "clause {c:?} not satisfied by model {m:?}"
            );
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = solver_with(&[&[1, 1, 2], &[1, -1], &[2]]);
        assert!(s.solve());
        assert!(s.model_value(SatVar(1)));
    }

    #[test]
    fn unsat_after_unit_conflict_at_level_zero() {
        let mut s = solver_with(&[&[1], &[-1, 2], &[-2]]);
        assert!(!s.solve());
    }

    #[test]
    fn larger_random_instance_is_consistent() {
        // A satisfiable structured instance: 3-colorability of a path graph.
        // Node i has vars 3i+1..3i+3 (one per color).
        let n = 20;
        let mut cs: Vec<Vec<i32>> = Vec::new();
        for i in 0..n {
            let base = 3 * i;
            cs.push(vec![base + 1, base + 2, base + 3]);
            // at most one color
            cs.push(vec![-(base + 1), -(base + 2)]);
            cs.push(vec![-(base + 1), -(base + 3)]);
            cs.push(vec![-(base + 2), -(base + 3)]);
        }
        for i in 0..n - 1 {
            let a = 3 * i;
            let b = 3 * (i + 1);
            for c in 1..=3 {
                cs.push(vec![-(a + c), -(b + c)]);
            }
        }
        let refs: Vec<&[i32]> = cs.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(&refs);
        assert!(s.solve());
        let m = s.model();
        for c in &cs {
            assert!(c.iter().any(|&x| {
                let val = m[(x.unsigned_abs() - 1) as usize];
                if x > 0 {
                    val
                } else {
                    !val
                }
            }));
        }
    }
}
