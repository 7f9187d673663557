//! Structural classification of invariant clauses into the paper's
//! Table 1 rows, and the table's qualitative semantics.

use ipa_spec::{CmpOp, Formula, NumExpr};
use std::fmt;

/// The invariant classes of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InvariantClass {
    /// Monotonically increasing, gap-free identifiers. Not maintainable
    /// under weak consistency at all (Table 1 row 1).
    SequentialId,
    /// Globally unique identifiers: I-Confluent by pre-partitioning the
    /// identifier space (row 2).
    UniqueId,
    /// Conditions over numeric predicate values, e.g. `stock(i) >= 0`
    /// (row 3).
    NumericInvariant,
    /// Bounds on collection sizes, e.g. `#enrolled(*,t) <= K` (row 4).
    AggregationConstraint,
    /// Element membership with no cross-object dependency (row 5).
    AggregationInclusion,
    /// Foreign-key-style dependencies, e.g. `enrolled(p,t) => player(p)`
    /// (row 6).
    ReferentialIntegrity,
    /// At least one of several conditions must hold (row 7).
    Disjunction,
}

impl fmt::Display for InvariantClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InvariantClass::SequentialId => "Sequential id.",
            InvariantClass::UniqueId => "Unique id.",
            InvariantClass::NumericInvariant => "Numeric inv.",
            InvariantClass::AggregationConstraint => "Aggreg. const.",
            InvariantClass::AggregationInclusion => "Aggreg. incl.",
            InvariantClass::ReferentialIntegrity => "Ref. integrity",
            InvariantClass::Disjunction => "Disjunctions",
        };
        f.write_str(s)
    }
}

/// How a mechanism supports an invariant class (Table 1 cells).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Support {
    Yes,
    No,
    /// Supported via compensations.
    Compensation,
}

impl fmt::Display for Support {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Support::Yes => write!(f, "Yes"),
            Support::No => write!(f, "No"),
            Support::Compensation => write!(f, "Comp."),
        }
    }
}

impl InvariantClass {
    /// Can the class be preserved by weak consistency alone
    /// (I-Confluence, Bailis et al.)? Table 1, column 2.
    pub fn i_confluent(self) -> Support {
        match self {
            InvariantClass::UniqueId | InvariantClass::AggregationInclusion => Support::Yes,
            _ => Support::No,
        }
    }

    /// How IPA supports the class. Table 1, column 3.
    pub fn ipa_support(self) -> Support {
        match self {
            InvariantClass::SequentialId => Support::No,
            InvariantClass::UniqueId => Support::Yes,
            InvariantClass::NumericInvariant => Support::Compensation,
            InvariantClass::AggregationConstraint => Support::Compensation,
            InvariantClass::AggregationInclusion => Support::Yes,
            InvariantClass::ReferentialIntegrity => Support::Yes,
            InvariantClass::Disjunction => Support::Yes,
        }
    }

    /// All classes, in the paper's table order.
    pub fn all() -> [InvariantClass; 7] {
        [
            InvariantClass::SequentialId,
            InvariantClass::UniqueId,
            InvariantClass::NumericInvariant,
            InvariantClass::AggregationConstraint,
            InvariantClass::AggregationInclusion,
            InvariantClass::ReferentialIntegrity,
            InvariantClass::Disjunction,
        ]
    }
}

/// Classify an invariant clause by structure.
///
/// Sequential and unique identifiers are conventions over the identifier
/// allocation scheme rather than clause shapes; they are represented in
/// specifications by predicates following the `seq_id_*` / `unique_id_*`
/// naming convention (the paper handles them out of band too: unique ids
/// by pre-partitioning the id space, sequential ids not at all).
pub fn classify(clause: &Formula) -> InvariantClass {
    // Identifier conventions take precedence.
    let preds = clause.predicates();
    if preds.iter().any(|p| p.as_str().starts_with("seq_id")) {
        return InvariantClass::SequentialId;
    }
    if preds.iter().any(|p| p.as_str().starts_with("unique_id")) {
        return InvariantClass::UniqueId;
    }

    let body = match clause {
        Formula::Forall(_, b) | Formula::Exists(_, b) => b.as_ref(),
        other => other,
    };
    classify_body(body)
}

fn classify_body(body: &Formula) -> InvariantClass {
    match body {
        Formula::Cmp(l, _, r) => {
            let counts = count_terms(l) + count_terms(r);
            if counts > 0 {
                InvariantClass::AggregationConstraint
            } else {
                InvariantClass::NumericInvariant
            }
        }
        Formula::Implies(_, rhs) => {
            if contains_or(rhs) {
                InvariantClass::Disjunction
            } else if matches!(rhs.as_ref(), Formula::Cmp(..)) {
                classify_body(rhs)
            } else {
                InvariantClass::ReferentialIntegrity
            }
        }
        Formula::Or(_) => InvariantClass::Disjunction,
        Formula::Not(inner) => match inner.as_ref() {
            // ¬(a ∧ b) ≡ ¬a ∨ ¬b: a disjunction.
            Formula::And(_) => InvariantClass::Disjunction,
            _ => InvariantClass::AggregationInclusion,
        },
        _ => InvariantClass::AggregationInclusion,
    }
}

fn contains_or(f: &Formula) -> bool {
    match f {
        Formula::Or(_) => true,
        Formula::And(gs) => gs.iter().any(contains_or),
        Formula::Not(g) | Formula::Forall(_, g) | Formula::Exists(_, g) => contains_or(g),
        Formula::Implies(l, r) => contains_or(l) || contains_or(r),
        _ => false,
    }
}

fn count_terms(e: &NumExpr) -> usize {
    match e {
        NumExpr::Count(_) => 1,
        NumExpr::Add(l, r) | NumExpr::Sub(l, r) => count_terms(l) + count_terms(r),
        _ => 0,
    }
}

// Silence the unused-import lint for CmpOp, referenced in doc positions.
const _: Option<CmpOp> = None;

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_spec::parser::parse_formula;

    #[test]
    fn referential_integrity_shape() {
        let f = parse_formula(
            "forall(Player: p, Tournament: t) :- enrolled(p,t) => player(p) and tournament(t)",
        )
        .unwrap();
        assert_eq!(classify(&f), InvariantClass::ReferentialIntegrity);
    }

    #[test]
    fn disjunction_shapes() {
        let f = parse_formula(
            "forall(Player: p, q, Tournament: t) :- inMatch(p,q,t) => enrolled(p,t) and (active(t) or finished(t))",
        )
        .unwrap();
        assert_eq!(classify(&f), InvariantClass::Disjunction);
        let g = parse_formula("forall(Tournament: t) :- not(active(t) and finished(t))").unwrap();
        assert_eq!(classify(&g), InvariantClass::Disjunction);
    }

    #[test]
    fn aggregation_constraint_shape() {
        let f = parse_formula("forall(Tournament: t) :- #enrolled(*, t) <= 10").unwrap();
        assert_eq!(classify(&f), InvariantClass::AggregationConstraint);
    }

    #[test]
    fn numeric_invariant_shape() {
        let f = parse_formula("forall(Item: i) :- stock(i) >= 0").unwrap();
        assert_eq!(classify(&f), InvariantClass::NumericInvariant);
    }

    #[test]
    fn id_conventions() {
        let f = parse_formula("forall(X: x) :- unique_id_user(x) => user(x)").unwrap();
        assert_eq!(classify(&f), InvariantClass::UniqueId);
        let g = parse_formula("forall(X: x) :- seq_id_order(x) => order(x)").unwrap();
        assert_eq!(classify(&g), InvariantClass::SequentialId);
    }

    #[test]
    fn table1_semantics_match_paper() {
        use InvariantClass::*;
        assert_eq!(SequentialId.i_confluent(), Support::No);
        assert_eq!(SequentialId.ipa_support(), Support::No);
        assert_eq!(UniqueId.i_confluent(), Support::Yes);
        assert_eq!(UniqueId.ipa_support(), Support::Yes);
        assert_eq!(NumericInvariant.ipa_support(), Support::Compensation);
        assert_eq!(AggregationConstraint.ipa_support(), Support::Compensation);
        assert_eq!(AggregationInclusion.i_confluent(), Support::Yes);
        assert_eq!(ReferentialIntegrity.i_confluent(), Support::No);
        assert_eq!(ReferentialIntegrity.ipa_support(), Support::Yes);
        assert_eq!(Disjunction.ipa_support(), Support::Yes);
    }
}
