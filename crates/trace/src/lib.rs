//! Kineto-style runtime trace data model and analytics for Lumos.
//!
//! This crate defines the vocabulary shared by every other Lumos crate:
//! timestamps, trace events (CPU operators, CUDA runtime calls, GPU
//! kernels, user annotations), per-rank and cluster-wide trace
//! containers, Chrome Trace Format import/export, and the trace
//! analytics the paper reports on — execution-time breakdown
//! (exposed compute / exposed communication / overlapped / other,
//! §4.2.2) and SM-utilization timelines (§4.2.3).
//!
//! The event model mirrors what PyTorch Kineto records on a real
//! training job: every GPU kernel carries a CUDA stream id and a
//! correlation id linking it to the CPU-side `cudaLaunchKernel` call,
//! CUDA synchronization and event calls are first-class events, and
//! user annotations (e.g. `fwd mb=3 layer=7`) delimit logical phases.
//!
//! # Example
//!
//! ```
//! use lumos_trace::{RankTrace, TraceEvent, EventKind, Ts, Dur, StreamId, ThreadId};
//!
//! let mut trace = RankTrace::new(0);
//! trace.push(TraceEvent::cpu_op("aten::mm", Ts::from_us(10), Dur::from_us(5), ThreadId(1)));
//! trace.push(
//!     TraceEvent::kernel("sm90_gemm", Ts::from_us(20), Dur::from_us(100), StreamId(7))
//!         .with_correlation(42),
//! );
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.span().unwrap().duration(), Dur::from_us(110));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakdown;
mod chrome;
mod error;
mod event;
mod interval;
mod queue;
mod sm_util;
mod stats;
mod time;
mod trace;

pub use breakdown::{Breakdown, BreakdownExt};
pub use chrome::{from_chrome_json, to_chrome_json, ChromeTraceOptions};
pub use error::TraceError;
pub use event::{CollectiveKind, CommMeta, CudaRuntimeKind, EventKind, KernelClass, TraceEvent};
pub use interval::IntervalSet;
pub use queue::{queue_delays, stream_occupancy, QueueDelayStats, StreamOccupancy};
pub use sm_util::{sm_utilization, SmUtilization};
pub use stats::{KernelStats, TraceStats};
pub use time::{Dur, ScaleError, TimeSpan, Ts};
pub use trace::{streams, threads, ClusterTrace, RankId, RankTrace, StreamId, ThreadId};
