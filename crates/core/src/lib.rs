//! # ipa-core — the IPA static analysis (the paper's primary contribution)
//!
//! Implements Algorithm 1 of Balegas et al., *IPA: Invariant-preserving
//! Applications for Weakly-consistent Replicated Databases* (2018):
//!
//! * **The analysis session** ([`session`]): the invariant grounded once,
//!   a solver that already holds it, a memo of clean pairs and a cache of
//!   ground footprints, shared by every query of one analysis. Detection
//!   and repair are methods over it; a query asserts only the invariant
//!   conjuncts the operations under test change.
//! * **Conflict detection** (`isConflicting`, §3.2): for every pair of
//!   operations, instantiate their parameters over a small scope, compute
//!   weakest preconditions w.r.t. the application invariant, merge the two
//!   operations' effects under the programmer-supplied convergence rules,
//!   and ask the session's solver whether some `I`-valid initial state
//!   satisfying both preconditions leads to an `I`-invalid merged state
//!   ([`conflict`]).
//! * **Repair** (`repairConflicts` / `generate`, §3.2–§3.3): enumerate
//!   minimal sets of additional effects — drawn from the invariant clauses
//!   involved in the conflict, with unbound positions generalized to the
//!   wildcard `*` — that restore the preconditions under the convergence
//!   rules, and let a pluggable policy pick among the verified resolutions
//!   ([`generate`], [`repair`]).
//! * **Compensations** (§3.4): numeric and aggregation invariants, which
//!   cannot be preserved a priori with reasonable semantics, are detected
//!   by a symbolic direction analysis and turned into compensation
//!   descriptions that the `ipa-crdt` compensation data types enact at
//!   runtime ([`numeric`], [`compensation`]).
//! * **Pipeline** (the `IPA` main loop, Alg. 1 lines 1–6): iterate until no
//!   conflicting pair remains, flagging unsolvable pairs ([`pipeline`]).
//! * **Classification** ([`mod@classify`]): structural classification of
//!   invariant clauses into the paper's Table 1 rows.

pub mod classify;
pub mod compensation;
pub mod conflict;
pub mod generate;
pub mod numeric;
pub mod pipeline;
pub mod repair;
pub mod report;
pub mod session;
pub mod summary;
pub mod universe;
pub mod wp;

pub use classify::{classify, InvariantClass, Support};
pub use compensation::{CompAction, Compensation};
pub use conflict::{check_pair, ConflictWitness};
pub use numeric::{numeric_conflicts, BoundKind, NumericConflict};
pub use pipeline::{AnalysisConfig, AnalysisReport, Analyzer, AppliedResolution, FlaggedConflict};
pub use repair::{repair_conflicts, Resolution, ResolutionPolicy};
pub use session::AnalysisSession;
pub use summary::EffectSummary;

/// Errors surfaced by the analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    Solver(ipa_solver::SolverError),
    Spec(ipa_spec::SpecError),
    /// The two operations write opposing values to more last-writer-wins
    /// atoms than the merge enumerates the outcomes of
    /// ([`summary::MAX_LWW_CONTESTED`]).
    TooManyContested {
        op1: ipa_spec::Symbol,
        op2: ipa_spec::Symbol,
        atoms: usize,
    },
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Solver(e) => write!(f, "solver error: {e}"),
            AnalysisError::Spec(e) => write!(f, "spec error: {e}"),
            AnalysisError::TooManyContested { op1, op2, atoms } => write!(
                f,
                "{op1} ∥ {op2} contest {atoms} last-writer-wins atoms; \
                 the analysis enumerates merge outcomes for at most {}",
                summary::MAX_LWW_CONTESTED
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<ipa_solver::SolverError> for AnalysisError {
    fn from(e: ipa_solver::SolverError) -> Self {
        AnalysisError::Solver(e)
    }
}

impl From<ipa_solver::GroundError> for AnalysisError {
    fn from(e: ipa_solver::GroundError) -> Self {
        AnalysisError::Solver(ipa_solver::SolverError::Ground(e))
    }
}

impl From<ipa_spec::SpecError> for AnalysisError {
    fn from(e: ipa_spec::SpecError) -> Self {
        AnalysisError::Spec(e)
    }
}
