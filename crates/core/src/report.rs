//! Human-readable rendering of analysis results: Figure-2-style conflict
//! diagrams and the applied-repair summary.

use crate::conflict::ConflictWitness;
use crate::pipeline::AnalysisReport;
use ipa_spec::Interpretation;
use std::fmt;
use std::fmt::Write as _;

/// Render an interpretation as `pred: {args, ...}` lines (true atoms only).
pub fn render_state(m: &Interpretation) -> String {
    let mut by_pred: std::collections::BTreeMap<String, Vec<String>> = Default::default();
    for a in m.true_atoms() {
        let args = a
            .args
            .iter()
            .map(|c| c.name.to_string())
            .collect::<Vec<_>>()
            .join(",");
        by_pred
            .entry(a.pred.to_string())
            .or_default()
            .push(format!("({args})"));
    }
    let mut out = String::new();
    for (p, insts) in by_pred {
        let _ = writeln!(out, "    {p}: {{{}}}", insts.join(", "));
    }
    if out.is_empty() {
        out.push_str("    (empty)\n");
    }
    out
}

impl fmt::Display for ConflictWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "conflict: {}", self.label())?;
        writeln!(f, "  Sinit (I-valid, both preconditions hold):")?;
        write!(f, "{}", render_state(&self.pre))?;
        writeln!(f, "  Sfinal = merge(effects):")?;
        write!(f, "{}", render_state(&self.merged))?;
        if !self.contested.is_empty() {
            writeln!(
                f,
                "  contested atoms: {}",
                self.contested
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
        }
        for v in &self.violated {
            writeln!(f, "  violated: {v}")?;
        }
        Ok(())
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IPA analysis of `{}`", self.original.name)?;
        writeln!(
            f,
            "  {} operations, {} invariant clauses, {} iterations, converged: {}",
            self.original.operations.len(),
            self.original.invariants.len(),
            self.iterations,
            self.converged
        )?;
        if self.applied.is_empty() {
            writeln!(f, "  no boolean conflicts (already I-confluent)")?;
        }
        for (i, a) in self.applied.iter().enumerate() {
            writeln!(
                f,
                "  repair {}: {} — fixed {}",
                i + 1,
                a.resolution,
                a.witness.label()
            )?;
        }
        for flag in &self.flagged {
            writeln!(
                f,
                "  UNSOLVED: {} ∥ {} — requires coordination (§3 Step 3)",
                flag.op1, flag.op2
            )?;
        }
        for c in &self.compensations {
            writeln!(f, "  compensation: {c}")?;
        }
        writeln!(
            f,
            "  work: {} pair checks (+{} memo hits), {} footprints ({} extended), \
             {} queries ({} without the solver), \
             {} clauses in {} solvers, {} decisions, {} conflicts, {} propagations",
            self.pair_checks,
            self.memo_hits,
            self.footprints_built + self.footprints_extended,
            self.footprints_extended,
            self.queries,
            self.queries - self.solver.solves,
            self.solver.clauses,
            self.solvers,
            self.solver.decisions,
            self.solver.conflicts,
            self.solver.propagations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_spec::{Constant, GroundAtom, Sort};

    #[test]
    fn render_state_groups_by_predicate() {
        let mut m = Interpretation::new();
        let p1 = Constant::new("P1", Sort::new("Player"));
        let t1 = Constant::new("T1", Sort::new("Tournament"));
        m.set_bool(GroundAtom::new("player", vec![p1.clone()]), true);
        m.set_bool(GroundAtom::new("enrolled", vec![p1, t1]), true);
        let s = render_state(&m);
        assert!(s.contains("player: {(P1)}"), "{s}");
        assert!(s.contains("enrolled: {(P1,T1)}"), "{s}");
    }

    #[test]
    fn empty_state_renders_placeholder() {
        let m = Interpretation::new();
        assert!(render_state(&m).contains("(empty)"));
    }
}
