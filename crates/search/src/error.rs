//! Search-level errors.

use lumos_core::CoreError;
use lumos_model::spec::SpecError;
use std::fmt;

/// A failed search run.
#[derive(Debug)]
pub enum SearchError {
    /// Every grid point was rejected by the lattice.
    EmptySpace {
        /// Grid points visited.
        enumerated: usize,
        /// Grid points rejected.
        rejected: usize,
    },
    /// A candidate's graph manipulation or simulation failed.
    Evaluation {
        /// The candidate's label.
        candidate: String,
        /// The underlying failure.
        source: CoreError,
    },
    /// Extracting the shared block library from the base trace failed
    /// (e.g. the trace lacks layer annotations), so no candidate can
    /// be priced.
    Extraction {
        /// The underlying failure.
        source: CoreError,
    },
    /// Profiling the base configuration failed (trace-less entry
    /// point).
    BaseProfile(String),
    /// Phase-two refinement of a finalist failed: its configuration
    /// could not be lowered to per-rank programs, or the discrete-
    /// event engine could not execute them.
    Refinement {
        /// The finalist's label.
        candidate: String,
        /// What failed.
        detail: String,
    },
    /// Static verification ([`lumos_cluster::verify`]) rejected a
    /// finalist's lowered program before simulation
    /// ([`crate::SearchOptions::verify`]).
    InvalidProgram {
        /// The finalist's label.
        candidate: String,
        /// The violation found.
        source: lumos_cluster::VerifyError,
    },
    /// A malformed space-spec file, including a `schedules` name no
    /// [`lumos_model::ScheduleKind`] answers to.
    Spec(SpecError),
    /// The run was cancelled cooperatively before completing: its
    /// wall-clock deadline ([`crate::SearchOptions::deadline`])
    /// expired, or its cancel flag ([`crate::SearchOptions::cancel`])
    /// was raised. Partial results are discarded — a truncated grid
    /// walk cannot claim to contain the true top-k.
    DeadlineExceeded,
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::EmptySpace {
                enumerated,
                rejected,
            } => write!(
                f,
                "search space is empty: all {enumerated} grid points rejected \
                 ({rejected} lattice violations)"
            ),
            SearchError::Evaluation { candidate, source } => {
                write!(f, "evaluating candidate {candidate}: {source}")
            }
            SearchError::Extraction { source } => {
                write!(f, "extracting blocks from the base trace: {source}")
            }
            SearchError::BaseProfile(msg) => write!(f, "profiling base configuration: {msg}"),
            SearchError::Refinement { candidate, detail } => {
                write!(f, "refining finalist {candidate}: {detail}")
            }
            SearchError::InvalidProgram { candidate, source } => {
                write!(f, "verifying finalist {candidate}: {source}")
            }
            SearchError::Spec(e) => write!(f, "invalid space spec: {e}"),
            SearchError::DeadlineExceeded => write!(
                f,
                "search cancelled: deadline exceeded before the run completed"
            ),
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::Evaluation { source, .. } | SearchError::Extraction { source } => {
                Some(source)
            }
            SearchError::InvalidProgram { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SpecError> for SearchError {
    fn from(e: SpecError) -> Self {
        SearchError::Spec(e)
    }
}
