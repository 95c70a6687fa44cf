//! Tasks and processors: the node vocabulary of the execution graph.
//!
//! The paper's graph has exactly two task families (§3.3.1): CPU tasks
//! (framework operators and CUDA runtime events, placed on a host
//! thread) and GPU tasks (kernels, placed on a CUDA stream). Each task
//! records the metadata Lumos extracted from the trace: name, recorded
//! duration, original start time (used for deterministic scheduling
//! tie-breaks) and correlation id. User annotations never become
//! tasks; block extraction reads them from the trace instead.

use lumos_trace::{CudaRuntimeKind, Dur, KernelClass, RankId, StreamId, ThreadId, Ts};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Dense task index within an [`crate::ExecutionGraph`].
pub type TaskId = u32;

/// Dense processor index within an [`crate::ExecutionGraph`].
pub type ProcIdx = u32;

/// An execution resource: a host thread or a CUDA stream on a
/// specific rank (Algorithm 1's "task processors").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Processor {
    /// A host thread.
    Thread {
        /// Owning rank.
        rank: RankId,
        /// Thread id.
        tid: ThreadId,
    },
    /// A CUDA stream.
    Stream {
        /// Owning rank.
        rank: RankId,
        /// Stream id.
        stream: StreamId,
    },
}

impl Processor {
    /// The rank this processor belongs to.
    pub fn rank(&self) -> RankId {
        match *self {
            Processor::Thread { rank, .. } | Processor::Stream { rank, .. } => rank,
        }
    }

    /// Returns `true` for stream processors.
    pub fn is_stream(&self) -> bool {
        matches!(self, Processor::Stream { .. })
    }
}

impl fmt::Display for Processor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Processor::Thread { rank, tid } => write!(f, "{rank}/{tid}"),
            Processor::Stream { rank, stream } => write!(f, "{rank}/{stream}"),
        }
    }
}

/// What a task is (mirrors the trace event kinds, minus annotations,
/// which never become tasks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// A framework operator on a thread.
    CpuOp,
    /// A CUDA runtime call on a thread.
    Runtime(CudaRuntimeKind),
    /// A kernel on a stream.
    Kernel(KernelClass),
}

impl TaskKind {
    /// Returns `true` for GPU tasks.
    pub fn is_gpu(&self) -> bool {
        matches!(self, TaskKind::Kernel(_))
    }

    /// Returns `true` for host-blocking synchronization calls, whose
    /// dependencies Algorithm 1 resolves at runtime.
    pub fn is_blocking_sync(&self) -> bool {
        matches!(self, TaskKind::Runtime(k) if k.blocks_host())
    }

    /// The kernel class, for GPU tasks.
    pub fn kernel_class(&self) -> Option<&KernelClass> {
        match self {
            TaskKind::Kernel(c) => Some(c),
            _ => None,
        }
    }
}

/// The training phase an annotation scope or a block belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Forward pass.
    Forward,
    /// Backward pass.
    Backward,
    /// Data-parallel gradient reduction.
    DpGrads,
    /// Optimizer step.
    Optimizer,
    /// Anything else (transfers, untagged glue).
    Other,
}

/// The position an annotation scope names within the training
/// iteration: what [`crate::parse_annotation`] reads from its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentTag {
    /// Micro-batch index, when inside a micro-batch scope.
    pub mb: Option<u32>,
    /// Transformer layer index, when inside a layer scope.
    pub layer: Option<u32>,
    /// Embedding block marker.
    pub embed: bool,
    /// LM-head block marker.
    pub head: bool,
    /// Phase, when known.
    pub phase: Option<Phase>,
}

/// One node of the execution graph.
#[derive(Debug, Clone)]
pub struct Task {
    /// Display name from the trace.
    pub name: Arc<str>,
    /// Task family and payload.
    pub kind: TaskKind,
    /// Processor index (into the graph's processor table).
    pub processor: ProcIdx,
    /// Recorded duration from the trace (replay durations; possibly
    /// re-costed by manipulation).
    pub duration: Dur,
    /// Recorded start time — used only for deterministic ordering,
    /// never copied into simulated output.
    pub orig_start: Ts,
    /// Correlation id linking launches and kernels (0 = none).
    pub correlation: u64,
}

impl Task {
    /// Recorded end time in the source trace.
    pub fn orig_end(&self) -> Ts {
        self.orig_start + self.duration
    }

    /// Returns `true` for communication kernels.
    pub fn is_comm_kernel(&self) -> bool {
        matches!(&self.kind, TaskKind::Kernel(c) if c.is_comm())
    }

    /// The collective metadata, for communication kernels.
    pub fn comm_meta(&self) -> Option<&lumos_trace::CommMeta> {
        self.kind.kernel_class().and_then(|c| c.comm_meta())
    }
}

/// The dependency classes of §3.3.2, used for graph statistics,
/// validation, and ablation (dPRO drops `InterStreamEvent`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// CPU→CPU within one thread (program order).
    IntraThread,
    /// CPU→CPU across threads (detected from execution gaps).
    InterThread,
    /// CPU→GPU launch (correlation id).
    KernelLaunch,
    /// GPU→GPU within one stream (FIFO order).
    IntraStream,
    /// GPU→GPU across streams (`cudaEventRecord` /
    /// `cudaStreamWaitEvent`).
    InterStreamEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_accessors() {
        let t = Processor::Thread {
            rank: RankId(2),
            tid: ThreadId(1),
        };
        let s = Processor::Stream {
            rank: RankId(2),
            stream: StreamId(7),
        };
        assert_eq!(t.rank(), RankId(2));
        assert!(!t.is_stream());
        assert!(s.is_stream());
        assert_eq!(t.to_string(), "rank2/tid1");
        assert_eq!(s.to_string(), "rank2/stream7");
    }

    #[test]
    fn task_kind_properties() {
        assert!(TaskKind::Kernel(KernelClass::Other).is_gpu());
        assert!(!TaskKind::CpuOp.is_gpu());
        assert!(TaskKind::Runtime(CudaRuntimeKind::DeviceSynchronize).is_blocking_sync());
        assert!(!TaskKind::Runtime(CudaRuntimeKind::LaunchKernel).is_blocking_sync());
    }
}
