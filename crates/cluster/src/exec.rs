//! The prepared execution form of a [`LoweredJob`]: every tuple-keyed
//! lookup the engine used to perform per step is resolved **once**,
//! when the job is loaded, into dense `Vec` indices.
//!
//! Preparation scans each program a single time and rewrites its host
//! ops into [`ExecOp`]s whose operands are dense ids:
//!
//! * `(rank, stream)` → index into the engine's stream-state vector;
//! * `(rank, event)` → index into the CUDA-event-state vector;
//! * `(rank, token)` → index into the cross-thread token vector;
//! * `(group, seq)`  → index into the collective-instance vector,
//!   with the communicator's member list and expected arrival count
//!   resolved up front.
//!
//! The engine's inner loop then never touches a `HashMap`: state
//! access is direct indexing, and ops are small `Copy` values read out
//! of slices owned here — [`crate::engine::Engine`] construction
//! borrows them instead of deep-cloning per run, so simulating N
//! jitter replicas of one job shares a single prepared form.
//!
//! Preparation also front-loads validation: unknown communicator
//! groups, duplicate ranks, and dangling interned-name ids surface as
//! typed [`EngineError`]s before any simulation work happens.

use crate::engine::EngineError;
use crate::lower::LoweredJob;
use crate::program::{HostOp, NameId};
use lumos_trace::{KernelClass, StreamId, ThreadId};
use std::collections::HashMap;
use std::sync::Arc;

/// A host instruction with all operands resolved to dense indices.
///
/// Full-trace emission recovers the original CUDA-runtime operands
/// through [`PreparedJob::raw_events`] and [`PStream::sid`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum ExecOp {
    /// Framework operator dispatch.
    CpuOp { name: NameId },
    /// Kernel launch of a non-collective kernel. `cost` indexes
    /// [`PreparedJob::kernel_classes`]: the engine prices each
    /// distinct class once per run instead of once per launch.
    Launch {
        name: NameId,
        class: KernelClass,
        stream: u32,
        cost: u32,
    },
    /// Kernel launch of a collective kernel (dense instance resolved).
    LaunchColl {
        name: NameId,
        class: KernelClass,
        stream: u32,
        coll: u32,
    },
    /// `cudaEventRecord`.
    EventRecord { event: u32, stream: u32 },
    /// `cudaStreamWaitEvent`.
    StreamWait { event: u32, stream: u32 },
    /// `cudaStreamSynchronize`.
    StreamSync { stream: u32 },
    /// `cudaDeviceSynchronize`.
    DeviceSync,
    /// Cross-thread token post.
    SignalPeer { token: u32 },
    /// Cross-thread token wait.
    WaitPeer { token: u32 },
    /// Annotation open.
    AnnotationBegin { name: NameId },
    /// Annotation close.
    AnnotationEnd,
}

/// One host thread, flattened for execution.
#[derive(Debug)]
pub(crate) struct PThread {
    /// Index of the owning program (also the dense rank slot).
    pub prog: u32,
    /// Global rank (jitter keys, diagnostics).
    pub rank: u32,
    /// Thread id (trace emission).
    pub tid: ThreadId,
    /// Resolved instruction stream.
    pub ops: Vec<ExecOp>,
}

/// One CUDA stream, discovered during the prepare scan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PStream {
    /// Index of the owning program (dense rank slot).
    pub prog: u32,
    /// Global rank.
    pub rank: u32,
    /// Original stream id (trace emission).
    pub sid: StreamId,
    /// Number of entries the program enqueues on this stream — lets
    /// the engine pre-size its FIFO exactly.
    pub entries_hint: usize,
}

/// One collective instance `(group, seq)` with its rendezvous
/// expectations resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PColl<'a> {
    /// Communicator id (jitter key).
    pub group: u64,
    /// Issue index within the communicator (jitter key).
    pub seq: u32,
    /// Member global ranks (cost-model input).
    pub members: &'a [u32],
    /// Arrivals required before the instance resolves.
    pub expected: usize,
}

/// A [`LoweredJob`] resolved into the dense execution form.
///
/// Build once with [`PreparedJob::new`], then execute any number of
/// iterations against it — with full traces
/// ([`PreparedJob::execute`]) or allocation-free metrics only
/// ([`PreparedJob::execute_metrics`]). The simulation-refined search
/// prepares each finalist once and reuses the form across all jitter
/// replicas.
#[derive(Debug)]
pub struct PreparedJob<'a> {
    pub(crate) job: &'a LoweredJob,
    pub(crate) threads: Vec<PThread>,
    pub(crate) streams: Vec<PStream>,
    /// Dense stream indices per program (DeviceSync targets).
    pub(crate) rank_streams: Vec<Vec<u32>>,
    /// Per-rank CUDA event id of each dense event (trace operands,
    /// deadlock diagnostics).
    pub(crate) raw_events: Vec<u32>,
    /// Per-rank token id of each dense cross-thread token (deadlock
    /// diagnostics).
    pub(crate) raw_tokens: Vec<u32>,
    pub(crate) collectives: Vec<PColl<'a>>,
    /// Distinct non-collective kernel classes, indexed by
    /// `ExecOp::Launch::cost`. Cost models price kernels purely by
    /// class, so the engine resolves this table to durations once per
    /// run and the launch hot path is a vector index.
    pub(crate) kernel_classes: Vec<KernelClass>,
    /// Global rank per program index.
    pub(crate) ranks: Vec<u32>,
    /// Fallback for a name id that fails to resolve (cannot happen for
    /// jobs that pass preparation; kept so resolution stays
    /// panic-free).
    unknown_name: Arc<str>,
}

impl<'a> PreparedJob<'a> {
    /// Resolves `job` into dense execution form.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownGroup`] when a collective launch
    /// references a communicator absent from [`LoweredJob::groups`],
    /// and [`EngineError::MalformedProgram`] for duplicate ranks or
    /// dangling interned-name ids.
    pub fn new(job: &'a LoweredJob) -> Result<Self, EngineError> {
        let mut threads = Vec::new();
        let mut streams: Vec<PStream> = Vec::new();
        let mut stream_index: HashMap<(u32, StreamId), u32> = HashMap::new();
        let mut event_index: HashMap<(u32, u32), u32> = HashMap::new();
        let mut token_index: HashMap<(u32, u32), u32> = HashMap::new();
        let mut raw_events: Vec<u32> = Vec::new();
        let mut raw_tokens: Vec<u32> = Vec::new();
        let mut coll_index: HashMap<(u64, u32), u32> = HashMap::new();
        let mut collectives: Vec<PColl<'a>> = Vec::new();
        let mut class_index: HashMap<KernelClass, u32> = HashMap::new();
        let mut kernel_classes: Vec<KernelClass> = Vec::new();
        let mut rank_streams: Vec<Vec<u32>> = vec![Vec::new(); job.programs.len()];
        let mut ranks = Vec::with_capacity(job.programs.len());
        let mut seen_ranks = std::collections::HashSet::new();

        for (pi, program) in job.programs.iter().enumerate() {
            let prog = pi as u32;
            if !seen_ranks.insert(program.rank) {
                return Err(EngineError::MalformedProgram {
                    detail: format!("rank {} declared by more than one program", program.rank),
                });
            }
            ranks.push(program.rank);
            let mut stream_of = |sid: StreamId,
                                 streams: &mut Vec<PStream>,
                                 rank_streams: &mut Vec<Vec<u32>>|
             -> u32 {
                *stream_index.entry((prog, sid)).or_insert_with(|| {
                    let si = streams.len() as u32;
                    streams.push(PStream {
                        prog,
                        rank: program.rank,
                        sid,
                        entries_hint: 0,
                    });
                    rank_streams[pi].push(si);
                    si
                })
            };
            let check_name = |id: NameId| -> Result<NameId, EngineError> {
                if program.names.get(id).is_some() {
                    Ok(id)
                } else {
                    Err(EngineError::MalformedProgram {
                        detail: format!(
                            "rank {}: op references unknown name id {}",
                            program.rank, id.0
                        ),
                    })
                }
            };
            for tp in &program.threads {
                let mut ops = Vec::with_capacity(tp.ops.len());
                for op in &tp.ops {
                    let exec = match *op {
                        HostOp::CpuOp { name } => ExecOp::CpuOp {
                            name: check_name(name)?,
                        },
                        HostOp::Launch { spec } => {
                            let stream = stream_of(spec.stream, &mut streams, &mut rank_streams);
                            streams[stream as usize].entries_hint += 1;
                            let name = check_name(spec.name)?;
                            match spec.class {
                                KernelClass::Collective(meta) => {
                                    let coll = *coll_index
                                        .entry((meta.group, meta.seq))
                                        .or_insert_with(|| collectives.len() as u32);
                                    if coll as usize == collectives.len() {
                                        let members =
                                            job.groups.get(&meta.group).map(Vec::as_slice).ok_or(
                                                EngineError::UnknownGroup { group: meta.group },
                                            )?;
                                        collectives.push(PColl {
                                            group: meta.group,
                                            seq: meta.seq,
                                            members,
                                            expected: members.len(),
                                        });
                                    }
                                    ExecOp::LaunchColl {
                                        name,
                                        class: spec.class,
                                        stream,
                                        coll,
                                    }
                                }
                                class => {
                                    let cost = *class_index.entry(class).or_insert_with(|| {
                                        kernel_classes.push(class);
                                        (kernel_classes.len() - 1) as u32
                                    });
                                    ExecOp::Launch {
                                        name,
                                        class,
                                        stream,
                                        cost,
                                    }
                                }
                            }
                        }
                        HostOp::EventRecord { event, stream } => {
                            let si = stream_of(stream, &mut streams, &mut rank_streams);
                            streams[si as usize].entries_hint += 1;
                            ExecOp::EventRecord {
                                event: dense_id(&mut event_index, &mut raw_events, prog, event),
                                stream: si,
                            }
                        }
                        HostOp::StreamWait { stream, event } => {
                            let si = stream_of(stream, &mut streams, &mut rank_streams);
                            streams[si as usize].entries_hint += 1;
                            ExecOp::StreamWait {
                                event: dense_id(&mut event_index, &mut raw_events, prog, event),
                                stream: si,
                            }
                        }
                        HostOp::StreamSync { stream } => ExecOp::StreamSync {
                            stream: stream_of(stream, &mut streams, &mut rank_streams),
                        },
                        HostOp::DeviceSync => ExecOp::DeviceSync,
                        HostOp::SignalPeer { token } => ExecOp::SignalPeer {
                            token: dense_id(&mut token_index, &mut raw_tokens, prog, token),
                        },
                        HostOp::WaitPeer { token } => ExecOp::WaitPeer {
                            token: dense_id(&mut token_index, &mut raw_tokens, prog, token),
                        },
                        HostOp::AnnotationBegin { name } => ExecOp::AnnotationBegin {
                            name: check_name(name)?,
                        },
                        HostOp::AnnotationEnd => ExecOp::AnnotationEnd,
                    };
                    ops.push(exec);
                }
                threads.push(PThread {
                    prog,
                    rank: program.rank,
                    tid: tp.tid,
                    ops,
                });
            }
        }

        Ok(PreparedJob {
            job,
            threads,
            streams,
            rank_streams,
            raw_events,
            raw_tokens,
            collectives,
            kernel_classes,
            ranks,
            unknown_name: Arc::from("<unknown>"),
        })
    }

    /// The job this form was prepared from.
    pub fn job(&self) -> &'a LoweredJob {
        self.job
    }

    /// Resolves an interned name of program `prog`.
    pub(crate) fn name(&self, prog: u32, id: NameId) -> &Arc<str> {
        self.job
            .programs
            .get(prog as usize)
            .and_then(|p| p.names.get(id))
            .unwrap_or(&self.unknown_name)
    }
}

/// The dense id of per-program id `raw` in program `prog`, assigning
/// the next one (and recording `raw` for it) on first sight.
fn dense_id(index: &mut HashMap<(u32, u32), u32>, raws: &mut Vec<u32>, prog: u32, raw: u32) -> u32 {
    *index.entry((prog, raw)).or_insert_with(|| {
        raws.push(raw);
        (raws.len() - 1) as u32
    })
}
