//! A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
//! analysis with clause learning, activity-driven decisions with phase
//! saving, and geometric restarts.
//!
//! A decision branches on the unassigned variable of highest activity,
//! ties to the lowest index. The variables live in an *order heap*, as in
//! MiniSat (Eén & Sörensson, *An Extensible SAT-solver*, SAT 2003): an
//! indexed binary max-heap over (activity desc, index asc), where a bump
//! sifts its variable up and the rescale that keeps activities finite
//! (it can make two activities equal) rebuilds the heap. Unlike MiniSat's,
//! this heap keeps every variable, assigned or not. A pick walks down
//! from the top through assigned entries and stops at the first
//! unassigned one on each path, since everything below an entry ranks
//! below it. Nothing is popped on a decision or re-inserted on
//! backtracking. The analysis returns to level 0 after each of its
//! hundreds of small solves, so MiniSat's lazy removal would pop and
//! re-insert most of the assigned variables in every one. The pick is
//! the variable a scan of every variable finds; the unit tests check
//! that the two pickers agree at every decision.
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

#[derive(Clone, Debug)]
struct ClauseData {
    lits: Vec<Lit>,
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: u32,
}

/// The solver. Variables are created implicitly by the highest index used
/// in added clauses (or explicitly via [`Solver::new_var`]).
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<ClauseData>,
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
    /// The branching candidates (see the module documentation).
    order: OrderHeap,
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
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push(v.0, 0.0);
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
        // Normalize: dedup, drop tautologies, drop false lits fixed at
        // level 0, and skip clauses satisfied at level 0.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            self.ensure_var(l.var());
            match self.value_of(l) {
                1 => return,    // satisfied at level 0
                -1 => continue, // already false at level 0: drop literal
                _ => c.push(l),
            }
        }
        c.sort_unstable();
        c.dedup();
        for w in c.windows(2) {
            if w[0].var() == w[1].var() {
                return; // tautology
            }
        }
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
                let idx = self.clauses.len() as u32;
                self.watches[c[0].code()].push(Watcher { clause: idx });
                self.watches[c[1].code()].push(Watcher { clause: idx });
                self.clauses.push(ClauseData { lits: c });
            }
        }
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
                    let clause = &mut self.clauses[ci as usize];
                    if clause.lits[0] == false_lit {
                        clause.lits.swap(0, 1);
                    }
                    debug_assert_eq!(clause.lits[1], false_lit);
                    let first = clause.lits[0];
                    if first != false_lit && {
                        let v = self.values[first.var().index()];
                        (if first.is_positive() { v } else { -v }) == 1
                    } {
                        // Clause already satisfied by the other watch.
                        (true, None, false)
                    } else {
                        // Look for a new literal to watch.
                        let mut found = None;
                        for k in 2..clause.lits.len() {
                            let l = clause.lits[k];
                            let v = self.values[l.var().index()];
                            let val = if l.is_positive() { v } else { -v };
                            if val != -1 {
                                found = Some(k);
                                break;
                            }
                        }
                        if let Some(k) = found {
                            clause.lits.swap(1, k);
                            let new_watch = clause.lits[1];
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
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(v.0, *a);
        }
    }

    fn decay_activities(&mut self) {
        self.activity_inc /= ACTIVITY_DECAY;
    }

    /// First-UIP conflict analysis. Returns the learnt clause (with the
    /// asserting literal first) and the backjump level.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::new(SatVar(0), true)]; // placeholder slot 0
        let mut counter = 0u32; // literals at current level pending
        let mut p: Option<Lit> = None;
        let mut clause_idx = conflict;
        let mut trail_pos = self.trail.len();
        let current_level = self.decision_level();

        let mut reason_lits: Vec<Lit> = Vec::new();
        loop {
            {
                let clause = &self.clauses[clause_idx as usize];
                let start = usize::from(p.is_some());
                reason_lits.clear();
                reason_lits.extend_from_slice(&clause.lits[start..]);
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
        (learnt, bj)
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
    /// index, in its saved phase. It stays in the order heap.
    fn pick_branch(&mut self) -> Option<Lit> {
        let mut picked = None;
        // The trail lists each assigned variable once; when it lists all
        // of them there is nothing to pick.
        if self.trail.len() < self.values.len() {
            let values = &self.values;
            picked = self
                .order
                .top_where(|v| values[v as usize] == 0)
                .map(|v| Lit::new(SatVar(v), self.phase[v as usize]));
        }
        #[cfg(test)]
        self.check_pick(picked);
        picked
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
                    let (learnt, bj) = self.analyze(conflict);
                    self.cancel_until(bj);
                    self.decay_activities();
                    match learnt.len() {
                        1 => {
                            let ok = self.enqueue(learnt[0], None);
                            if !ok {
                                self.unsat = true;
                                return false;
                            }
                        }
                        _ => {
                            let idx = self.clauses.len() as u32;
                            self.watches[learnt[0].code()].push(Watcher { clause: idx });
                            self.watches[learnt[1].code()].push(Watcher { clause: idx });
                            let assert_lit = learnt[0];
                            self.clauses.push(ClauseData { lits: learnt });
                            let ok = self.enqueue(assert_lit, Some(idx));
                            debug_assert!(ok, "asserting literal must be unassigned");
                        }
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

/// An indexed binary max-heap of every variable, ordered by (activity
/// desc, index asc). Each entry carries its variable's activity, kept
/// equal to the solver's by [`OrderHeap::increased`] and
/// [`OrderHeap::rebuild`], so a comparison reads the heap alone.
#[derive(Debug, Default)]
struct OrderHeap {
    heap: Vec<(f64, u32)>,
    /// Each variable's position in `heap`.
    pos: Vec<u32>,
    /// Scratch stack of [`OrderHeap::top_where`].
    walk: Vec<usize>,
}

impl OrderHeap {
    /// Does entry `a` go above entry `b`?
    fn above(a: (f64, u32), b: (f64, u32)) -> bool {
        a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    /// Add the new variable `v`, of activity `activity`.
    fn push(&mut self, v: u32, activity: f64) {
        debug_assert_eq!(v as usize, self.pos.len(), "variables are added in order");
        self.pos.push(self.heap.len() as u32);
        self.heap.push((activity, v));
        self.sift_up(self.heap.len() - 1);
    }

    /// `v`'s activity grew to `activity`.
    fn increased(&mut self, v: u32, activity: f64) {
        let i = self.pos[v as usize] as usize;
        self.heap[i].0 = activity;
        self.sift_up(i);
    }

    /// The highest variable satisfying `wanted`. Every entry is above
    /// the entries below it, so the walk from the top goes down only
    /// through entries that are not wanted and are above the best one
    /// found so far.
    fn top_where(&mut self, wanted: impl Fn(u32) -> bool) -> Option<u32> {
        let mut best: Option<(f64, u32)> = None;
        self.walk.clear();
        if !self.heap.is_empty() {
            self.walk.push(0);
        }
        while let Some(i) = self.walk.pop() {
            let entry = self.heap[i];
            if best.is_some_and(|b| Self::above(b, entry)) {
                continue;
            }
            if wanted(entry.1) {
                best = Some(entry);
            } else {
                let left = 2 * i + 1;
                self.walk
                    .extend((left..left + 2).filter(|&c| c < self.heap.len()));
            }
        }
        best.map(|(_, v)| v)
    }

    /// Take every activity afresh and re-establish the heap property,
    /// after activities changed other than by growing.
    fn rebuild(&mut self, activity: &[f64]) {
        for entry in &mut self.heap {
            entry.0 = activity[entry.1 as usize];
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !Self::above(entry, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p.1 as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && Self::above(self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !Self::above(c, entry) {
                break;
            }
            self.heap[i] = c;
            self.pos[c.1 as usize] = i as u32;
            i = child;
        }
        self.heap[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }
}

/// The reference picker, a scan of every variable, and the check that
/// the order heap agrees with it at every decision of every unit test.
#[cfg(test)]
impl Solver {
    /// A scan of every variable: the first unassigned one of highest
    /// activity.
    fn pick_branch_linear(&self) -> Option<Lit> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in self.values.iter().enumerate() {
            if v == 0 {
                let a = self.activity[i];
                if best.is_none_or(|(_, ba)| a > ba) {
                    best = Some((i, a));
                }
            }
        }
        best.map(|(i, _)| Lit::new(SatVar(i as u32), self.phase[i]))
    }

    fn check_pick(&self, picked: Option<Lit>) {
        assert_eq!(picked, self.pick_branch_linear(), "the pickers disagree");
        PICKS_CHECKED.with(|n| n.set(n.get() + 1));
    }
}

#[cfg(test)]
thread_local! {
    /// Decisions [`Solver::check_pick`] compared, on this test's thread.
    static PICKS_CHECKED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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

    /// A random CNF over `nvars` variables, drawn as `tests/prop.rs`
    /// draws them: up to `nclauses` clauses of one to four literals.
    fn arb_cnf(nvars: u32, nclauses: usize) -> impl Strategy<Value = Vec<Vec<i32>>> {
        let lit = (1..=nvars as i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
        let clause = prop::collection::vec(lit, 1..=4);
        prop::collection::vec(clause, 0..=nclauses)
    }

    /// Solve `clauses`, then under each assumption set in turn, on one
    /// solver whose activity increment starts at `activity_inc`. Every
    /// decision compares the order heap's pick with the scan's
    /// ([`Solver::check_pick`]). Returns the solver.
    fn run_both_pickers(clauses: &[Vec<i32>], assumptions: &[Vec<i32>], inc: f64) -> Solver {
        let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
        let mut s = solver_with(&refs);
        s.activity_inc = inc;
        s.solve();
        for a in assumptions {
            s.solve_under(&lits(a));
        }
        s
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The order heap picks the literal the scan of every variable
        /// picks, at every decision: from a fresh start, and started just
        /// below `ACTIVITY_RESCALE`, where a few bumps rescale every
        /// activity (and can make two of them equal) and the heap is
        /// rebuilt.
        #[test]
        fn order_heap_picks_what_the_scan_picks(
            clauses in arb_cnf(12, 60),
            assumptions in prop::collection::vec(prop::collection::vec(
                (1..=12i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]), 1..=3), 0..=4),
            near_rescale in prop_oneof![Just(false), Just(true)],
        ) {
            let inc = if near_rescale { ACTIVITY_RESCALE / 8.0 } else { 1.0 };
            run_both_pickers(&clauses, &assumptions, inc);
        }
    }

    /// The property above is not vacuous: its pickers met decisions, and
    /// a run started below the limit went past it.
    #[test]
    fn picker_comparison_covers_decisions_and_a_rescale() {
        PICKS_CHECKED.with(|n| n.set(0));
        // Pigeonhole, 5 into 4: unsatisfiable, and only after conflicts.
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        let var = |p: i32, h: i32| p * 4 + h + 1;
        for p in 0..5 {
            clauses.push((0..4).map(|h| var(p, h)).collect());
        }
        for h in 0..4 {
            for p in 0..5 {
                for q in p + 1..5 {
                    clauses.push(vec![-var(p, h), -var(q, h)]);
                }
            }
        }
        let inc = ACTIVITY_RESCALE / 8.0;
        let s = run_both_pickers(&clauses, &[], inc);
        assert!(s.stats.conflicts > 0);
        assert!(s.activity_inc < inc, "no rescale happened");
        assert!(PICKS_CHECKED.with(|n| n.get()) > 0);
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
