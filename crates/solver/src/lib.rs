//! # ipa-solver — SAT solving and small-scope grounding for the IPA analysis
//!
//! The IPA paper uses the Z3 SMT solver to "generate all the test cases
//! efficiently" for its pairwise conflict detection (§3.2, §4.1). This crate
//! is the offline substitute: it decides satisfiability of the paper's
//! invariant fragment (universally quantified first-order clauses with
//! counting and bounded-integer atoms) by
//!
//! 1. **grounding** formulas over a finite, per-sort universe — the
//!    *small-scope* instantiation induced by the parameters of the two
//!    operations under test plus fresh witnesses ([`ground`]);
//! 2. **encoding** the ground formula to CNF via Tseitin transformation,
//!    with a sequential-counter encoding for counting atoms
//!    (`#enrolled(*, t) <= K`) and an order encoding for bounded numeric
//!    predicates ([`tseitin`]);
//! 3. **solving** with an incremental CDCL SAT solver (two-watched-literal
//!    propagation, first-UIP clause learning, activity-based decisions,
//!    solving under assumptions) ([`sat`]);
//! 4. **sessions**: one encoder and one solver kept across many related
//!    queries, each in its own retractable scope ([`query`]). A query
//!    answers satisfiable or not; only when the caller asks is its model
//!    decoded, and only [`query::Model::to_interpretation`] turns atom ids
//!    back into an [`ipa_spec::Interpretation`], so the analysis can show
//!    a counter-example state like the paper's Figure 2.
//!
//! Between grounding and that decoding a ground atom is an
//! [`ground::AtomId`], its number in the universe's [`ground::AtomTable`].
//!
//! The [`brute`] module provides a brute-force model enumerator used by the
//! property-test suite to cross-validate the CDCL solver on small instances.

pub mod brute;
pub mod cnf;
pub mod ground;
pub mod hash;
pub mod lit;
pub mod query;
pub mod sat;
pub mod tseitin;

pub use cnf::{Clause, Cnf};
pub use ground::{
    AtomId, AtomTable, GroundError, GroundFormula, Grounder, Pattern, PatternArg, Universe,
};
pub use hash::{IdHasher, IdMap, IdSet};
pub use lit::{Lit, SatVar};
pub use query::{Model, Outcome, SolverError, SolverSession};
pub use sat::Solver;
