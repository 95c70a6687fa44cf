//! Per-rank host programs: the instruction stream each rank's CPU
//! threads execute during one training iteration.
//!
//! A [`Program`] is what the lowering pass produces from a model +
//! deployment description and what the execution engine runs to
//! obtain ground-truth timing. It mirrors what a PyTorch process
//! actually does: dispatch framework ops, call into the CUDA runtime
//! to launch kernels and record/wait events, synchronize streams, and
//! coordinate between the main thread and the autograd thread.
//!
//! # String interning
//!
//! Host ops never carry strings. Every display name (operator, kernel,
//! annotation) is interned into the program's [`NameTable`] at
//! lowering time and referenced by a dense [`NameId`], which keeps
//! [`HostOp`] a small `Copy` value: the execution engine's inner loop
//! moves ops by value without touching an allocator or an atomic
//! refcount, and the metrics-only execution mode never resolves a name
//! at all. Names are resolved back to `Arc<str>` only when a full
//! trace is materialized (the `FullTrace` event sink).
//!
//! Invariants of the table:
//!
//! * a [`NameId`] is an index into [`NameTable::names`] — ids are
//!   allocated densely in interning order and never reused;
//! * interning the same string twice returns the same id (the table
//!   stores each distinct name once);
//! * ids are only meaningful relative to the [`Program`] that interned
//!   them — the engine validates every referenced id when a job is
//!   prepared and rejects out-of-range ids as malformed programs.

use lumos_trace::{threads, KernelClass, StreamId, ThreadId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Index of an interned name in a program's [`NameTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NameId(pub u32);

/// A program's interned display names (see the module docs for the
/// interning invariants).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NameTable {
    /// Distinct names, indexed by [`NameId`].
    pub names: Vec<Arc<str>>,
}

impl NameTable {
    /// Interns `name`, returning the id of the existing entry when the
    /// string was seen before.
    ///
    /// The scan is linear — fine for hand-built test programs. The
    /// lowering passes keep their own hash-indexed cache on top
    /// (`NameCache`) so production-sized programs intern in O(1).
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(i) = self.names.iter().position(|n| &**n == name) {
            return NameId(i as u32);
        }
        self.push_new(Arc::from(name))
    }

    /// Appends a name known to be absent (the lowering caches use this
    /// after their own hash lookup missed).
    pub(crate) fn push_new(&mut self, name: Arc<str>) -> NameId {
        let id = NameId(self.names.len() as u32);
        self.names.push(name);
        id
    }

    /// Resolves an id, if in range.
    pub fn get(&self, id: NameId) -> Option<&Arc<str>> {
        self.names.get(id.0 as usize)
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A device kernel to enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelSpec {
    /// Kernel name as it should appear in the trace (interned in the
    /// owning program's [`NameTable`]).
    pub name: NameId,
    /// Shape-carrying classification (drives the cost model; for
    /// collectives, carries the communicator and sequence).
    pub class: KernelClass,
    /// Stream to enqueue on.
    pub stream: StreamId,
}

/// One host instruction.
///
/// `Copy`: every operand is a dense id or a small scalar, so the
/// engine's dispatch loop reads ops by value out of a shared slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostOp {
    /// Framework operator dispatch (emits a `CpuOp` trace event; any
    /// launches it performs follow as separate ops).
    CpuOp {
        /// Operator name (interned).
        name: NameId,
    },
    /// `cudaLaunchKernel`: enqueue `spec` on its stream.
    Launch {
        /// What to enqueue.
        spec: KernelSpec,
    },
    /// `cudaEventRecord(event, stream)`.
    EventRecord {
        /// Per-rank CUDA event id.
        event: u32,
        /// Stream recorded on.
        stream: StreamId,
    },
    /// `cudaStreamWaitEvent(stream, event)`.
    StreamWait {
        /// Stream that will wait.
        stream: StreamId,
        /// Event waited on.
        event: u32,
    },
    /// `cudaStreamSynchronize(stream)`: block this thread until all
    /// work enqueued on `stream` so far completes.
    StreamSync {
        /// Stream drained.
        stream: StreamId,
    },
    /// `cudaDeviceSynchronize()`: block until every stream drains.
    DeviceSync,
    /// Post a cross-thread token (models the fwd→bwd handoff queue;
    /// emits no trace event).
    SignalPeer {
        /// Token identifier, unique per rank.
        token: u32,
    },
    /// Block until a token is posted (emits no trace event — the
    /// resulting timeline gap is exactly what Lumos's inter-thread
    /// dependency detection keys on).
    WaitPeer {
        /// Token identifier.
        token: u32,
    },
    /// Open a user-annotation range on this thread.
    AnnotationBegin {
        /// Range label (interned), e.g. `layer=7 fwd mb=3`.
        name: NameId,
    },
    /// Close the innermost annotation range.
    AnnotationEnd,
}

/// The instruction stream of one host thread.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThreadProgram {
    /// Thread id (see [`threads`]).
    pub tid: ThreadId,
    /// Instructions in program order.
    pub ops: Vec<HostOp>,
}

impl ThreadProgram {
    /// Creates an empty program for `tid`.
    pub fn new(tid: ThreadId) -> Self {
        ThreadProgram {
            tid,
            ops: Vec::new(),
        }
    }

    /// Appends an instruction.
    pub fn push(&mut self, op: HostOp) {
        self.ops.push(op);
    }
}

/// One rank's full iteration program.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Program {
    /// Global rank.
    pub rank: u32,
    /// Host threads (main + backward).
    pub threads: Vec<ThreadProgram>,
    /// Interned display names referenced by this program's ops.
    pub names: NameTable,
}

impl Program {
    /// Creates a program with the conventional two threads.
    pub fn new(rank: u32) -> Self {
        Program {
            rank,
            threads: vec![
                ThreadProgram::new(threads::MAIN),
                ThreadProgram::new(threads::BACKWARD),
            ],
            names: NameTable::default(),
        }
    }

    /// Interns `name` into this program's table.
    pub fn intern(&mut self, name: &str) -> NameId {
        self.names.intern(name)
    }

    /// Resolves an interned name, if the id belongs to this program.
    pub fn name(&self, id: NameId) -> Option<&Arc<str>> {
        self.names.get(id)
    }

    /// The main thread's program.
    pub fn main_mut(&mut self) -> &mut ThreadProgram {
        &mut self.threads[0]
    }

    /// The backward thread's program.
    pub fn backward_mut(&mut self) -> &mut ThreadProgram {
        &mut self.threads[1]
    }

    /// Total instruction count across threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|t| t.ops.len()).sum()
    }

    /// Returns `true` when no thread has instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks structural sanity: annotations balance per thread, every
    /// `WaitPeer` token is signaled somewhere in the program, and every
    /// referenced name id resolves in the program's table.
    ///
    /// # Errors
    ///
    /// Returns the first violation as a typed
    /// [`crate::verify::VerifyError`]. The whole-job analysis
    /// ([`crate::verify::verify`]) runs this as its first phase.
    pub fn well_formed(&self) -> Result<(), crate::verify::VerifyError> {
        use crate::verify::VerifyError;
        let mut signaled = std::collections::HashSet::new();
        let mut waited = Vec::new();
        let name_ok = |id: NameId| self.names.get(id).is_some();
        for t in &self.threads {
            let mut depth: i64 = 0;
            for op in &t.ops {
                match op {
                    HostOp::AnnotationBegin { name } => {
                        if !name_ok(*name) {
                            return Err(VerifyError::UnknownName {
                                rank: self.rank,
                                id: name.0,
                            });
                        }
                        depth += 1;
                    }
                    HostOp::AnnotationEnd => {
                        depth -= 1;
                        if depth < 0 {
                            return Err(VerifyError::UnmatchedAnnotationEnd {
                                rank: self.rank,
                                tid: t.tid,
                            });
                        }
                    }
                    HostOp::CpuOp { name }
                    | HostOp::Launch {
                        spec: KernelSpec { name, .. },
                    } if !name_ok(*name) => {
                        return Err(VerifyError::UnknownName {
                            rank: self.rank,
                            id: name.0,
                        });
                    }
                    HostOp::SignalPeer { token } if !signaled.insert(*token) => {
                        return Err(VerifyError::TokenSignaledTwice {
                            rank: self.rank,
                            token: *token,
                        });
                    }
                    HostOp::WaitPeer { token } => waited.push(*token),
                    _ => {}
                }
            }
            if depth != 0 {
                return Err(VerifyError::UnclosedAnnotations {
                    rank: self.rank,
                    tid: t.tid,
                    open: depth,
                });
            }
        }
        for token in waited {
            if !signaled.contains(&token) {
                return Err(VerifyError::TokenNeverSignaled {
                    rank: self.rank,
                    token,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::VerifyError;

    #[test]
    fn well_formed_program_passes() {
        let mut p = Program::new(0);
        let iteration = p.intern("iteration");
        let mm = p.intern("aten::mm");
        p.main_mut()
            .push(HostOp::AnnotationBegin { name: iteration });
        p.main_mut().push(HostOp::CpuOp { name: mm });
        p.main_mut().push(HostOp::SignalPeer { token: 1 });
        p.main_mut().push(HostOp::AnnotationEnd);
        p.backward_mut().push(HostOp::WaitPeer { token: 1 });
        p.well_formed().unwrap();
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn interning_deduplicates() {
        let mut p = Program::new(0);
        let a = p.intern("aten::mm");
        let b = p.intern("aten::add");
        let c = p.intern("aten::mm");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(p.names.len(), 2);
        assert_eq!(&**p.name(a).unwrap(), "aten::mm");
        assert_eq!(p.name(NameId(99)), None);
    }

    #[test]
    fn unbalanced_annotation_caught() {
        let mut p = Program::new(0);
        let x = p.intern("x");
        p.main_mut().push(HostOp::AnnotationBegin { name: x });
        assert!(matches!(
            p.well_formed(),
            Err(VerifyError::UnclosedAnnotations { open: 1, .. })
        ));
    }

    #[test]
    fn dangling_name_id_caught() {
        let mut p = Program::new(0);
        p.main_mut().push(HostOp::CpuOp { name: NameId(7) });
        assert!(matches!(
            p.well_formed(),
            Err(VerifyError::UnknownName { id: 7, .. })
        ));
    }

    #[test]
    fn dangling_wait_caught() {
        let mut p = Program::new(0);
        p.backward_mut().push(HostOp::WaitPeer { token: 9 });
        assert!(matches!(
            p.well_formed(),
            Err(VerifyError::TokenNeverSignaled { token: 9, .. })
        ));
    }

    #[test]
    fn double_signal_caught() {
        let mut p = Program::new(0);
        p.main_mut().push(HostOp::SignalPeer { token: 1 });
        p.main_mut().push(HostOp::SignalPeer { token: 1 });
        assert!(matches!(
            p.well_formed(),
            Err(VerifyError::TokenSignaledTwice { token: 1, .. })
        ));
    }
}
