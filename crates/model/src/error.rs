//! Error types for model and deployment configuration.

use std::error::Error;
use std::fmt;

/// Errors arising from invalid model or deployment configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A parallelism degree was zero.
    ZeroParallelism {
        /// Which axis ("tp", "pp", or "dp").
        axis: &'static str,
    },
    /// The number of layers is not divisible by the pipeline depth.
    LayersNotDivisible {
        /// Total transformer layers.
        layers: u32,
        /// Pipeline-parallel degree.
        pp: u32,
    },
    /// The attention heads are not divisible by the tensor-parallel
    /// degree.
    HeadsNotDivisible {
        /// Attention heads.
        heads: u32,
        /// Tensor-parallel degree.
        tp: u32,
    },
    /// A schedule was requested with zero micro-batches or stages.
    EmptySchedule,
    /// A schedule failed validation.
    InvalidSchedule {
        /// Human-readable reason.
        reason: String,
    },
    /// A preset name did not resolve to any built-in model (see
    /// [`crate::ModelConfig::from_preset`]).
    UnknownPreset {
        /// The unrecognized name.
        name: String,
    },
    /// A model dimension was zero.
    ZeroDimension {
        /// Which dimension.
        dim: &'static str,
    },
    /// A schedule name matched no policy's name or wire name (see
    /// [`crate::ScheduleKind::from_name`]).
    UnknownSchedule {
        /// The unrecognized name.
        name: String,
        /// Comma-separated names of every policy.
        known: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::ZeroParallelism { axis } => {
                write!(f, "parallelism degree `{axis}` must be at least 1")
            }
            ModelError::LayersNotDivisible { layers, pp } => {
                write!(
                    f,
                    "{layers} layers cannot be split evenly into {pp} pipeline stages"
                )
            }
            ModelError::HeadsNotDivisible { heads, tp } => {
                write!(f, "{heads} attention heads cannot be split across tp={tp}")
            }
            ModelError::EmptySchedule => {
                write!(f, "schedule needs at least 1 stage and 1 micro-batch")
            }
            ModelError::InvalidSchedule { reason } => write!(f, "invalid schedule: {reason}"),
            ModelError::UnknownPreset { name } => {
                write!(
                    f,
                    "unknown model `{name}` (expected tiny, 15b, 44b, 117b, 175b, or v1–v4)"
                )
            }
            ModelError::ZeroDimension { dim } => {
                write!(f, "model dimension `{dim}` must be at least 1")
            }
            ModelError::UnknownSchedule { name, known } => {
                write!(f, "unknown schedule `{name}` (known: {known})")
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ModelError::ZeroParallelism { axis: "tp" }
            .to_string()
            .contains("tp"));
        assert!(ModelError::LayersNotDivisible { layers: 10, pp: 3 }
            .to_string()
            .contains("10"));
    }
}
