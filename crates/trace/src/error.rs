//! Error types for trace construction and I/O.

use crate::time::TimeSpan;
use crate::trace::{RankId, StreamId};
use std::error::Error;
use std::fmt;

/// Errors produced when validating or parsing traces.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// A GPU kernel's correlation id matches no work-launching runtime
    /// call.
    OrphanKernel {
        /// Rank the kernel was recorded on.
        rank: RankId,
        /// The unmatched correlation id.
        correlation: u64,
        /// Kernel name, for diagnostics.
        name: String,
    },
    /// A correlation id was used by more than one launching call.
    AmbiguousCorrelation {
        /// Rank the events were recorded on.
        rank: RankId,
        /// The duplicated correlation id.
        correlation: u64,
        /// Number of launching calls sharing the id.
        launches: usize,
    },
    /// Two kernels overlap on the same CUDA stream, which is
    /// impossible on real hardware (streams are FIFO).
    StreamOverlap {
        /// Rank the kernels were recorded on.
        rank: RankId,
        /// The stream in question.
        stream: StreamId,
        /// First kernel's interval.
        first: TimeSpan,
        /// Overlapping kernel's interval.
        second: TimeSpan,
    },
    /// Chrome Trace Format JSON could not be parsed, did not have a
    /// trace document's shape, or held an undecodable `args.lumos`
    /// (see [`crate::from_chrome_json`]).
    Json(serde_json::Error),
    /// A complete Chrome trace event was missing a required field, or
    /// one of its fields was mistyped or out of range.
    MalformedChromeEvent {
        /// Which field was missing or invalid.
        field: &'static str,
        /// Event index in the `traceEvents` array, counting events of
        /// every phase.
        index: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::OrphanKernel {
                rank,
                correlation,
                name,
            } => write!(
                f,
                "kernel `{name}` on {rank} has correlation id {correlation} with no matching launch"
            ),
            TraceError::AmbiguousCorrelation {
                rank,
                correlation,
                launches,
            } => write!(
                f,
                "correlation id {correlation} on {rank} is shared by {launches} launching calls"
            ),
            TraceError::StreamOverlap {
                rank,
                stream,
                first,
                second,
            } => write!(
                f,
                "kernels overlap on {rank} {stream}: {first} and {second}"
            ),
            TraceError::Json(e) => write!(f, "chrome trace JSON error: {e}"),
            TraceError::MalformedChromeEvent { field, index } => {
                write!(
                    f,
                    "chrome trace event #{index} has missing/invalid `{field}`"
                )
            }
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<serde_json::Error> for TraceError {
    fn from(e: serde_json::Error) -> Self {
        TraceError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TraceError::OrphanKernel {
            rank: RankId(3),
            correlation: 17,
            name: "gemm".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("gemm"));
        assert!(msg.contains("17"));
        assert!(msg.contains("rank3"));
    }

    #[test]
    fn error_trait_impl() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<TraceError>();
    }
}
