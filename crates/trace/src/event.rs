//! Trace events: the vocabulary recorded by PyTorch-Kineto-style
//! profilers.
//!
//! Four kinds of events appear in a trace, mirroring Kineto:
//!
//! * **CPU ops** — framework operators (e.g. `aten::mm`) on a host
//!   thread;
//! * **CUDA runtime events** — host-side CUDA API calls
//!   (`cudaLaunchKernel`, `cudaEventRecord`, `cudaStreamWaitEvent`,
//!   `cudaStreamSynchronize`, …) carrying a *correlation id*;
//! * **GPU kernels** — device-side executions on a CUDA stream, tagged
//!   with the correlation id of the launching runtime call;
//! * **user annotations** — logical ranges (micro-batch / layer /
//!   phase markers) on the host timeline.
//!
//! Event names are shared `Arc<str>` so that a multi-million-event
//! cluster trace stores each distinct kernel name once.

use crate::time::{Dur, TimeSpan, Ts};
use crate::trace::{StreamId, ThreadId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a CUDA event object used by
/// `cudaEventRecord`/`cudaStreamWaitEvent` pairs.
pub type CudaEventId = u64;

/// Correlation id linking a CUDA runtime call to the GPU activity it
/// enqueued (Kineto's `correlation` field).
pub type CorrelationId = u64;

/// Identifier of a communicator / process group (one per TP group, DP
/// group, PP peer pair, …). Stable across ranks.
pub type CommGroupId = u64;

/// The collective communication algorithm a kernel implements.
///
/// Serializes as a small integer (see the compact-encoding note on
/// [`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Ring/tree all-reduce (sum).
    AllReduce,
    /// All-gather.
    AllGather,
    /// Reduce-scatter.
    ReduceScatter,
    /// One-to-all broadcast.
    Broadcast,
    /// Batched point-to-point send+recv (pipeline-parallel boundary
    /// exchange; behaves like a 2-member synchronizing collective).
    SendRecv,
    /// Pure synchronization barrier.
    Barrier,
}

impl CollectiveKind {
    /// NCCL-style kernel name for this collective.
    pub fn kernel_name(self) -> &'static str {
        match self {
            CollectiveKind::AllReduce => "ncclDevKernel_AllReduce_Sum",
            CollectiveKind::AllGather => "ncclDevKernel_AllGather",
            CollectiveKind::ReduceScatter => "ncclDevKernel_ReduceScatter_Sum",
            CollectiveKind::Broadcast => "ncclDevKernel_Broadcast",
            CollectiveKind::SendRecv => "ncclDevKernel_SendRecv",
            CollectiveKind::Barrier => "ncclDevKernel_AllReduce_Sum_barrier",
        }
    }
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollectiveKind::AllReduce => "all_reduce",
            CollectiveKind::AllGather => "all_gather",
            CollectiveKind::ReduceScatter => "reduce_scatter",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::SendRecv => "send_recv",
            CollectiveKind::Barrier => "barrier",
        };
        f.write_str(s)
    }
}

/// Metadata describing one rank's participation in a collective
/// instance.
///
/// Instances are matched across ranks by `(group, seq)`: every member
/// of communicator `group` issues the collectives of that group in the
/// same order, so the `seq`-th issue on each member belongs to the same
/// instance (NCCL semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CommMeta {
    /// Which collective algorithm.
    pub kind: CollectiveKind,
    /// Communicator this instance runs on.
    pub group: CommGroupId,
    /// Issue index within the communicator.
    pub seq: u32,
    /// Payload bytes contributed by this rank.
    pub bytes: u64,
}

/// Coarse classification of a GPU kernel, carrying the shape
/// information needed to re-cost it under a modified configuration
/// (§3.4: "we modify the input tensor dimensions for the relevant
/// operators and kernels and update their execution times").
///
/// Kineto exposes the same information through kernel names plus
/// recorded operator input shapes; we keep it structured.
///
/// Serializes as a compact tagged array (see the note on
/// [`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Dense matmul `C[m,n] += A[m,k] B[k,n]`.
    Gemm {
        /// Rows of the output.
        m: u64,
        /// Columns of the output.
        n: u64,
        /// Contraction dimension.
        k: u64,
    },
    /// Fused attention forward (FlashAttention-style).
    AttentionFwd {
        /// Batch size × heads on this rank.
        batch_heads: u64,
        /// Sequence length.
        seq: u64,
        /// Per-head dimension.
        head_dim: u64,
    },
    /// Fused attention backward.
    AttentionBwd {
        /// Batch size × heads on this rank.
        batch_heads: u64,
        /// Sequence length.
        seq: u64,
        /// Per-head dimension.
        head_dim: u64,
    },
    /// Single-query attention against a KV cache (inference decode).
    AttentionDecode {
        /// Batch size × heads on this rank.
        batch_heads: u64,
        /// KV-cache length attended over.
        kv_len: u64,
        /// Per-head dimension.
        head_dim: u64,
    },
    /// Pointwise kernel over `elems` elements (bias+GeLU, dropout,
    /// residual add, …).
    Elementwise {
        /// Element count.
        elems: u64,
    },
    /// LayerNorm / RMSNorm over `elems` elements.
    Norm {
        /// Element count.
        elems: u64,
    },
    /// Softmax + cross-entropy style reduction.
    Softmax {
        /// Element count.
        elems: u64,
    },
    /// Embedding lookup / gradient.
    Embedding {
        /// Element count gathered.
        elems: u64,
    },
    /// Fused optimizer step over `params` parameters (Adam).
    Optimizer {
        /// Parameters updated.
        params: u64,
    },
    /// Device-to-device / host-device copy.
    Memcpy {
        /// Bytes moved.
        bytes: u64,
    },
    /// Memset.
    Memset {
        /// Bytes set.
        bytes: u64,
    },
    /// Collective communication kernel.
    Collective(CommMeta),
    /// Anything else.
    Other,
}

impl KernelClass {
    /// Returns `true` for communication kernels — the paper's
    /// "communication" category in the execution breakdown.
    pub fn is_comm(&self) -> bool {
        matches!(self, KernelClass::Collective(_))
    }

    /// Returns the collective metadata if this is a communication
    /// kernel.
    pub fn comm_meta(&self) -> Option<&CommMeta> {
        match self {
            KernelClass::Collective(m) => Some(m),
            _ => None,
        }
    }
}

/// Host-side CUDA runtime API calls captured by the profiler.
///
/// Serializes as a compact tagged array (see the note on
/// [`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CudaRuntimeKind {
    /// `cudaLaunchKernel` — enqueues the kernel with the same
    /// correlation id.
    LaunchKernel,
    /// `cudaMemcpyAsync` — enqueues a copy.
    MemcpyAsync,
    /// `cudaMemsetAsync` — enqueues a memset.
    MemsetAsync,
    /// `cudaEventRecord(event, stream)` — marks a sync point after all
    /// prior work on `stream`.
    EventRecord {
        /// CUDA event being recorded.
        event: CudaEventId,
        /// Stream the event is recorded on.
        stream: StreamId,
    },
    /// `cudaStreamWaitEvent(stream, event)` — all later work on
    /// `stream` waits for `event`.
    StreamWaitEvent {
        /// Stream that will wait.
        stream: StreamId,
        /// Event being waited on.
        event: CudaEventId,
    },
    /// `cudaEventSynchronize(event)` — host blocks until `event`.
    EventSynchronize {
        /// Event being waited on.
        event: CudaEventId,
    },
    /// `cudaStreamSynchronize(stream)` — host blocks until all work on
    /// `stream` completes.
    StreamSynchronize {
        /// Stream being drained.
        stream: StreamId,
    },
    /// `cudaDeviceSynchronize()` — host blocks on the whole device.
    DeviceSynchronize,
    /// Any other runtime call (mallocs, queries, …).
    Other,
}

impl CudaRuntimeKind {
    /// Conventional API name, as it appears in Kineto traces.
    pub fn api_name(&self) -> &'static str {
        match self {
            CudaRuntimeKind::LaunchKernel => "cudaLaunchKernel",
            CudaRuntimeKind::MemcpyAsync => "cudaMemcpyAsync",
            CudaRuntimeKind::MemsetAsync => "cudaMemsetAsync",
            CudaRuntimeKind::EventRecord { .. } => "cudaEventRecord",
            CudaRuntimeKind::StreamWaitEvent { .. } => "cudaStreamWaitEvent",
            CudaRuntimeKind::EventSynchronize { .. } => "cudaEventSynchronize",
            CudaRuntimeKind::StreamSynchronize { .. } => "cudaStreamSynchronize",
            CudaRuntimeKind::DeviceSynchronize => "cudaDeviceSynchronize",
            CudaRuntimeKind::Other => "cudaRuntimeOther",
        }
    }

    /// Returns `true` for calls that enqueue GPU work (and therefore
    /// carry a meaningful correlation id linking to a GPU event).
    pub fn launches_work(&self) -> bool {
        matches!(
            self,
            CudaRuntimeKind::LaunchKernel
                | CudaRuntimeKind::MemcpyAsync
                | CudaRuntimeKind::MemsetAsync
        )
    }

    /// Returns `true` for calls that block the host on GPU progress
    /// (the paper's GPU→CPU dependency class).
    pub fn blocks_host(&self) -> bool {
        matches!(
            self,
            CudaRuntimeKind::EventSynchronize { .. }
                | CudaRuntimeKind::StreamSynchronize { .. }
                | CudaRuntimeKind::DeviceSynchronize
        )
    }
}

/// Where an event executed and what it represents.
///
/// Serializes as a compact tagged array (see the note on
/// [`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A framework operator on a host thread.
    CpuOp {
        /// Host thread.
        tid: ThreadId,
    },
    /// A CUDA runtime API call on a host thread.
    CudaRuntime {
        /// Host thread.
        tid: ThreadId,
        /// Which API.
        kind: CudaRuntimeKind,
        /// Correlation id (0 when the call enqueues no GPU work).
        correlation: CorrelationId,
    },
    /// A GPU kernel (or copy/memset) on a CUDA stream.
    Kernel {
        /// Stream the kernel ran on.
        stream: StreamId,
        /// Correlation id of the launching runtime call.
        correlation: CorrelationId,
        /// Shape-carrying classification.
        class: KernelClass,
    },
    /// A logical range on the host timeline (micro-batch / layer /
    /// phase marker).
    UserAnnotation {
        /// Host thread the range was recorded on.
        tid: ThreadId,
    },
}

impl EventKind {
    /// Host thread, for host-side events.
    pub fn tid(&self) -> Option<ThreadId> {
        match self {
            EventKind::CpuOp { tid }
            | EventKind::CudaRuntime { tid, .. }
            | EventKind::UserAnnotation { tid } => Some(*tid),
            EventKind::Kernel { .. } => None,
        }
    }

    /// CUDA stream, for device-side events.
    pub fn stream(&self) -> Option<StreamId> {
        match self {
            EventKind::Kernel { stream, .. } => Some(*stream),
            _ => None,
        }
    }

    /// Correlation id, if the event participates in launch linking.
    pub fn correlation(&self) -> Option<CorrelationId> {
        match self {
            EventKind::CudaRuntime { correlation, .. } if *correlation != 0 => Some(*correlation),
            EventKind::Kernel { correlation, .. } => Some(*correlation),
            _ => None,
        }
    }

    /// Returns `true` for device-side events.
    pub fn is_gpu(&self) -> bool {
        matches!(self, EventKind::Kernel { .. })
    }
}

/// One profiled event: a name, a kind, and a `[ts, ts+dur)` interval.
///
/// # Compact serialization
///
/// Events serialize as flat tagged arrays (`[name, ts, dur,
/// [kind...]]`), not as keyed objects: calibration artifacts persist
/// hundreds of thousands of events, and dropping the per-event field
/// keys roughly halves artifact size and parse time. The encoding
/// round-trips bit-exactly; it is private to this serde layer (Chrome
/// Trace Format I/O in [`crate::from_chrome_json`] is a separate,
/// Kineto-compatible schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Display name (operator, API, or kernel name).
    pub name: Arc<str>,
    /// Classification and placement.
    pub kind: EventKind,
    /// Start timestamp.
    pub ts: Ts,
    /// Duration.
    pub dur: Dur,
}

impl TraceEvent {
    /// Creates a CPU operator event.
    pub fn cpu_op(name: impl Into<Arc<str>>, ts: Ts, dur: Dur, tid: ThreadId) -> Self {
        TraceEvent {
            name: name.into(),
            kind: EventKind::CpuOp { tid },
            ts,
            dur,
        }
    }

    /// Creates a CUDA runtime event. The name is derived from the API.
    pub fn cuda_runtime(kind: CudaRuntimeKind, ts: Ts, dur: Dur, tid: ThreadId) -> Self {
        TraceEvent {
            name: Arc::from(kind.api_name()),
            kind: EventKind::CudaRuntime {
                tid,
                kind,
                correlation: 0,
            },
            ts,
            dur,
        }
    }

    /// Creates a GPU kernel event with class [`KernelClass::Other`].
    /// Use [`TraceEvent::with_class`] to refine.
    pub fn kernel(name: impl Into<Arc<str>>, ts: Ts, dur: Dur, stream: StreamId) -> Self {
        TraceEvent {
            name: name.into(),
            kind: EventKind::Kernel {
                stream,
                correlation: 0,
                class: KernelClass::Other,
            },
            ts,
            dur,
        }
    }

    /// Creates a user annotation range.
    pub fn annotation(name: impl Into<Arc<str>>, ts: Ts, dur: Dur, tid: ThreadId) -> Self {
        TraceEvent {
            name: name.into(),
            kind: EventKind::UserAnnotation { tid },
            ts,
            dur,
        }
    }

    /// Sets the correlation id (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the event kind carries no correlation id.
    pub fn with_correlation(mut self, correlation: CorrelationId) -> Self {
        match &mut self.kind {
            EventKind::CudaRuntime { correlation: c, .. }
            | EventKind::Kernel { correlation: c, .. } => *c = correlation,
            _ => panic!("event kind {:?} has no correlation id", self.kind),
        }
        self
    }

    /// Sets the kernel class (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the event is not a kernel.
    pub fn with_class(mut self, class: KernelClass) -> Self {
        match &mut self.kind {
            EventKind::Kernel { class: c, .. } => *c = class,
            _ => panic!("event kind {:?} is not a kernel", self.kind),
        }
        self
    }

    /// The `[ts, ts+dur)` interval this event occupies.
    pub fn span(&self) -> TimeSpan {
        TimeSpan::from_start_dur(self.ts, self.dur)
    }

    /// End timestamp (`ts + dur`).
    pub fn end(&self) -> Ts {
        self.ts + self.dur
    }

    /// Returns `true` for device-side events.
    pub fn is_gpu(&self) -> bool {
        self.kind.is_gpu()
    }

    /// Returns `true` for communication kernels.
    pub fn is_comm_kernel(&self) -> bool {
        matches!(
            &self.kind,
            EventKind::Kernel { class, .. } if class.is_comm()
        )
    }

    /// Returns `true` for compute (non-communication) kernels.
    pub fn is_compute_kernel(&self) -> bool {
        matches!(
            &self.kind,
            EventKind::Kernel { class, .. } if !class.is_comm()
        )
    }
}

// ---------------------------------------------------------------- //
// Compact serde encoding
//
// Hand-written (instead of derived) so the millions of events a
// calibration artifact persists encode as flat tagged arrays rather
// than keyed objects — roughly half the bytes and parse work. The
// encoding is bit-exact under round-trip and deterministic, which the
// artifact's digest/fingerprint checks rely on.
// ---------------------------------------------------------------- //

use serde::{de, Value};

fn tagged(tag: u64, mut fields: Vec<Value>) -> Value {
    let mut items = vec![tag.serialize_value()];
    items.append(&mut fields);
    Value::Array(items)
}

/// Splits a tagged array into its tag and field slice.
fn untag<'v>(v: &'v Value, what: &'static str) -> Result<(u64, &'v [Value]), de::Error> {
    match v {
        Value::Array(items) if !items.is_empty() => {
            let tag = items[0]
                .as_u64()
                .ok_or_else(|| de::Error::expected(what, v))?;
            Ok((tag, &items[1..]))
        }
        other => Err(de::Error::expected(what, other)),
    }
}

fn field(fields: &[Value], idx: usize, what: &'static str) -> Result<u64, de::Error> {
    fields
        .get(idx)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| de::Error::new(format!("{what}: missing field {idx}")))
}

impl Serialize for CollectiveKind {
    fn serialize_value(&self) -> Value {
        let tag: u64 = match self {
            CollectiveKind::AllReduce => 0,
            CollectiveKind::AllGather => 1,
            CollectiveKind::ReduceScatter => 2,
            CollectiveKind::Broadcast => 3,
            CollectiveKind::SendRecv => 4,
            CollectiveKind::Barrier => 5,
        };
        tag.serialize_value()
    }
}

impl Deserialize for CollectiveKind {
    fn deserialize_value(v: &Value) -> Result<Self, de::Error> {
        Ok(match v.as_u64() {
            Some(0) => CollectiveKind::AllReduce,
            Some(1) => CollectiveKind::AllGather,
            Some(2) => CollectiveKind::ReduceScatter,
            Some(3) => CollectiveKind::Broadcast,
            Some(4) => CollectiveKind::SendRecv,
            Some(5) => CollectiveKind::Barrier,
            _ => return Err(de::Error::expected("collective kind tag", v)),
        })
    }
}

impl Serialize for KernelClass {
    fn serialize_value(&self) -> Value {
        let ser = |x: u64| x.serialize_value();
        match *self {
            KernelClass::Gemm { m, n, k } => tagged(0, vec![ser(m), ser(n), ser(k)]),
            KernelClass::AttentionFwd {
                batch_heads,
                seq,
                head_dim,
            } => tagged(1, vec![ser(batch_heads), ser(seq), ser(head_dim)]),
            KernelClass::AttentionBwd {
                batch_heads,
                seq,
                head_dim,
            } => tagged(2, vec![ser(batch_heads), ser(seq), ser(head_dim)]),
            KernelClass::AttentionDecode {
                batch_heads,
                kv_len,
                head_dim,
            } => tagged(3, vec![ser(batch_heads), ser(kv_len), ser(head_dim)]),
            KernelClass::Elementwise { elems } => tagged(4, vec![ser(elems)]),
            KernelClass::Norm { elems } => tagged(5, vec![ser(elems)]),
            KernelClass::Softmax { elems } => tagged(6, vec![ser(elems)]),
            KernelClass::Embedding { elems } => tagged(7, vec![ser(elems)]),
            KernelClass::Optimizer { params } => tagged(8, vec![ser(params)]),
            KernelClass::Memcpy { bytes } => tagged(9, vec![ser(bytes)]),
            KernelClass::Memset { bytes } => tagged(10, vec![ser(bytes)]),
            KernelClass::Collective(meta) => tagged(
                11,
                vec![
                    meta.kind.serialize_value(),
                    ser(meta.group),
                    ser(meta.seq as u64),
                    ser(meta.bytes),
                ],
            ),
            KernelClass::Other => tagged(12, vec![]),
        }
    }
}

impl Deserialize for KernelClass {
    fn deserialize_value(v: &Value) -> Result<Self, de::Error> {
        let (tag, f) = untag(v, "kernel class")?;
        let g = |i| field(f, i, "kernel class");
        Ok(match tag {
            0 => KernelClass::Gemm {
                m: g(0)?,
                n: g(1)?,
                k: g(2)?,
            },
            1 => KernelClass::AttentionFwd {
                batch_heads: g(0)?,
                seq: g(1)?,
                head_dim: g(2)?,
            },
            2 => KernelClass::AttentionBwd {
                batch_heads: g(0)?,
                seq: g(1)?,
                head_dim: g(2)?,
            },
            3 => KernelClass::AttentionDecode {
                batch_heads: g(0)?,
                kv_len: g(1)?,
                head_dim: g(2)?,
            },
            4 => KernelClass::Elementwise { elems: g(0)? },
            5 => KernelClass::Norm { elems: g(0)? },
            6 => KernelClass::Softmax { elems: g(0)? },
            7 => KernelClass::Embedding { elems: g(0)? },
            8 => KernelClass::Optimizer { params: g(0)? },
            9 => KernelClass::Memcpy { bytes: g(0)? },
            10 => KernelClass::Memset { bytes: g(0)? },
            11 => KernelClass::Collective(CommMeta {
                kind: CollectiveKind::deserialize_value(
                    f.first()
                        .ok_or_else(|| de::Error::new("collective: missing kind"))?,
                )?,
                group: g(1)?,
                seq: u32::try_from(g(2)?)
                    .map_err(|_| de::Error::new("collective seq out of range"))?,
                bytes: g(3)?,
            }),
            12 => KernelClass::Other,
            other => return Err(de::Error::new(format!("unknown kernel class tag {other}"))),
        })
    }
}

impl Serialize for CudaRuntimeKind {
    fn serialize_value(&self) -> Value {
        let ser = |x: u64| x.serialize_value();
        match *self {
            CudaRuntimeKind::LaunchKernel => tagged(0, vec![]),
            CudaRuntimeKind::MemcpyAsync => tagged(1, vec![]),
            CudaRuntimeKind::MemsetAsync => tagged(2, vec![]),
            CudaRuntimeKind::EventRecord { event, stream } => {
                tagged(3, vec![ser(event), ser(stream.0 as u64)])
            }
            CudaRuntimeKind::StreamWaitEvent { stream, event } => {
                tagged(4, vec![ser(stream.0 as u64), ser(event)])
            }
            CudaRuntimeKind::EventSynchronize { event } => tagged(5, vec![ser(event)]),
            CudaRuntimeKind::StreamSynchronize { stream } => tagged(6, vec![ser(stream.0 as u64)]),
            CudaRuntimeKind::DeviceSynchronize => tagged(7, vec![]),
            CudaRuntimeKind::Other => tagged(8, vec![]),
        }
    }
}

impl Deserialize for CudaRuntimeKind {
    fn deserialize_value(v: &Value) -> Result<Self, de::Error> {
        let (tag, f) = untag(v, "cuda runtime kind")?;
        let g = |i| field(f, i, "cuda runtime kind");
        let sid = |x: u64| {
            u32::try_from(x)
                .map(StreamId)
                .map_err(|_| de::Error::new("stream id out of range"))
        };
        Ok(match tag {
            0 => CudaRuntimeKind::LaunchKernel,
            1 => CudaRuntimeKind::MemcpyAsync,
            2 => CudaRuntimeKind::MemsetAsync,
            3 => CudaRuntimeKind::EventRecord {
                event: g(0)?,
                stream: sid(g(1)?)?,
            },
            4 => CudaRuntimeKind::StreamWaitEvent {
                stream: sid(g(0)?)?,
                event: g(1)?,
            },
            5 => CudaRuntimeKind::EventSynchronize { event: g(0)? },
            6 => CudaRuntimeKind::StreamSynchronize {
                stream: sid(g(0)?)?,
            },
            7 => CudaRuntimeKind::DeviceSynchronize,
            8 => CudaRuntimeKind::Other,
            other => {
                return Err(de::Error::new(format!(
                    "unknown cuda runtime kind tag {other}"
                )))
            }
        })
    }
}

impl Serialize for EventKind {
    fn serialize_value(&self) -> Value {
        let ser = |x: u64| x.serialize_value();
        match *self {
            EventKind::CpuOp { tid } => tagged(0, vec![ser(tid.0 as u64)]),
            EventKind::CudaRuntime {
                tid,
                kind,
                correlation,
            } => tagged(
                1,
                vec![ser(tid.0 as u64), ser(correlation), kind.serialize_value()],
            ),
            EventKind::Kernel {
                stream,
                correlation,
                class,
            } => tagged(
                2,
                vec![
                    ser(stream.0 as u64),
                    ser(correlation),
                    class.serialize_value(),
                ],
            ),
            EventKind::UserAnnotation { tid } => tagged(3, vec![ser(tid.0 as u64)]),
        }
    }
}

impl Deserialize for EventKind {
    fn deserialize_value(v: &Value) -> Result<Self, de::Error> {
        let (tag, f) = untag(v, "event kind")?;
        let g = |i| field(f, i, "event kind");
        let tid = |x: u64| {
            u32::try_from(x)
                .map(ThreadId)
                .map_err(|_| de::Error::new("thread id out of range"))
        };
        Ok(match tag {
            0 => EventKind::CpuOp { tid: tid(g(0)?)? },
            1 => EventKind::CudaRuntime {
                tid: tid(g(0)?)?,
                correlation: g(1)?,
                kind: CudaRuntimeKind::deserialize_value(
                    f.get(2)
                        .ok_or_else(|| de::Error::new("cuda runtime: missing kind"))?,
                )?,
            },
            2 => EventKind::Kernel {
                stream: u32::try_from(g(0)?)
                    .map(StreamId)
                    .map_err(|_| de::Error::new("stream id out of range"))?,
                correlation: g(1)?,
                class: KernelClass::deserialize_value(
                    f.get(2)
                        .ok_or_else(|| de::Error::new("kernel: missing class"))?,
                )?,
            },
            3 => EventKind::UserAnnotation { tid: tid(g(0)?)? },
            other => return Err(de::Error::new(format!("unknown event kind tag {other}"))),
        })
    }
}

impl Serialize for TraceEvent {
    fn serialize_value(&self) -> Value {
        Value::Array(vec![
            Value::String(self.name.to_string()),
            self.ts.serialize_value(),
            self.dur.serialize_value(),
            self.kind.serialize_value(),
        ])
    }
}

impl Deserialize for TraceEvent {
    fn deserialize_value(v: &Value) -> Result<Self, de::Error> {
        match v {
            Value::Array(items) if items.len() == 4 => Ok(TraceEvent {
                name: match &items[0] {
                    Value::String(s) => Arc::from(s.as_str()),
                    other => return Err(de::Error::expected("event name", other)),
                },
                ts: Ts::deserialize_value(&items[1])?,
                dur: Dur::deserialize_value(&items[2])?,
                kind: EventKind::deserialize_value(&items[3])?,
            }),
            other => Err(de::Error::expected("event array", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_classify() {
        let op = TraceEvent::cpu_op("aten::mm", Ts(0), Dur(10), ThreadId(1));
        assert_eq!(op.kind.tid(), Some(ThreadId(1)));
        assert!(!op.is_gpu());

        let k = TraceEvent::kernel("gemm", Ts(5), Dur(50), StreamId(7)).with_correlation(3);
        assert!(k.is_gpu());
        assert!(k.is_compute_kernel());
        assert_eq!(k.kind.stream(), Some(StreamId(7)));
        assert_eq!(k.kind.correlation(), Some(3));
        assert_eq!(k.end(), Ts(55));
    }

    #[test]
    fn comm_kernel_detection() {
        let meta = CommMeta {
            kind: CollectiveKind::AllReduce,
            group: 1,
            seq: 0,
            bytes: 1 << 20,
        };
        let k = TraceEvent::kernel(
            CollectiveKind::AllReduce.kernel_name(),
            Ts(0),
            Dur(10),
            StreamId(13),
        )
        .with_class(KernelClass::Collective(meta));
        assert!(k.is_comm_kernel());
        assert!(!k.is_compute_kernel());
        assert_eq!(
            k.kind,
            EventKind::Kernel {
                stream: StreamId(13),
                correlation: 0,
                class: KernelClass::Collective(meta)
            }
        );
    }

    #[test]
    fn runtime_kind_properties() {
        assert!(CudaRuntimeKind::LaunchKernel.launches_work());
        assert!(!CudaRuntimeKind::LaunchKernel.blocks_host());
        let sync = CudaRuntimeKind::StreamSynchronize {
            stream: StreamId(7),
        };
        assert!(sync.blocks_host());
        assert!(!sync.launches_work());
        assert_eq!(sync.api_name(), "cudaStreamSynchronize");
        assert!(CudaRuntimeKind::DeviceSynchronize.blocks_host());
    }

    #[test]
    fn zero_correlation_is_none() {
        let e = TraceEvent::cuda_runtime(
            CudaRuntimeKind::DeviceSynchronize,
            Ts(0),
            Dur(1),
            ThreadId(1),
        );
        assert_eq!(e.kind.correlation(), None);
    }

    #[test]
    #[should_panic(expected = "no correlation")]
    fn correlation_on_cpu_op_panics() {
        let _ = TraceEvent::cpu_op("x", Ts(0), Dur(0), ThreadId(1)).with_correlation(1);
    }

    #[test]
    fn collective_kind_names_distinct() {
        use CollectiveKind::*;
        let kinds = [AllReduce, AllGather, ReduceScatter, Broadcast, SendRecv];
        for (i, a) in kinds.iter().enumerate() {
            for b in kinds.iter().skip(i + 1) {
                assert_ne!(a.kernel_name(), b.kernel_name());
                assert_ne!(a.to_string(), b.to_string());
            }
        }
    }
}
