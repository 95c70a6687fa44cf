//! Reassembly: building the program of a *new* configuration out of
//! the blocks of a profiled one (§3.4).
//!
//! For every rank of the target deployment, the reassembler replays
//! the lowering structure of a Megatron trainer — new 1F1B schedule,
//! pipeline transfers, gradient buckets, optimizer phase — but fills
//! the compute content with recorded blocks from the source trace:
//!
//! * layer blocks move to their new stage ("the corresponding tasks
//!   are reassigned to their new stages"), duplicated when the layer
//!   count grows;
//! * recorded kernel durations travel with their blocks; only
//!   shape-changed kernels and rescaled collectives are re-priced
//!   through the supplied [`CostModel`] ("we similarly update the
//!   execution times for these kernels using the in-house performance
//!   model", §4.3.2);
//! * communication glue (send/recv pairs, data-parallel buckets,
//!   optimizer scaffolding) is synthesized fresh at the new scale,
//!   "inserting communication tasks at appropriate points";
//! * correlation ids, CUDA event ids, and collective sequence numbers
//!   are renumbered consistently so the result's dependency pattern
//!   matches the original's.
//!
//! One emitter writes each rank's program into a sink. The graph sink
//! (crate-private, behind [`crate::Lumos::predict_spec`]) hands the
//! ops straight to the graph builder's per-rank step, so a prediction
//! never materializes a trace. The trace sink behind
//! [`reassemble_with_library`] writes a valid [`ClusterTrace`] on a
//! placeholder timeline (the simulator recomputes true times);
//! [`crate::build_graph`] on it yields the same graph as the graph
//! sink, id for id, which the differential tests check.
//!
//! # Each distinct rank program is built once
//!
//! Every rank with the same `(tp mod old_tp, dp mod old_dp, stage)`
//! pastes the same blocks, so a scale-out holds far fewer distinct
//! programs than ranks (2x4x16 from a 2x2x1 base: 128 ranks, 8
//! programs). The graph sink compares each emitted rank's ops with the
//! programs already built in its pipeline stage. On a match it
//! *stamps* the built rank's graph fragment as the new rank's: tasks
//! copied with their processor and communicator renamed; successor
//! lists, launching tasks and stream kernel lists shifted by the
//! task-id offset; predecessor counts and enqueue positions copied;
//! processors interned and collectives registered in the built rank's
//! order. A rank with no match is sorted into trace order and built.
//! The graph is the one building every rank gives, id for id.
//!
//! Why a stamp is exact:
//!
//! * the per-rank builder reads only its ops, its rank id and the
//!   fragment it writes: it interns the rank's processors as new
//!   consecutive indices, and every task and launch it looks up is
//!   its own;
//! * sorting into trace order is a stable sort followed by a
//!   deterministic launch link, so ops equal in emission order are
//!   equal in trace order, and build into equal fragments up to the
//!   task-id offset, the processor offset and the rank;
//! * a match compares every field the builder reads (host calls:
//!   thread, kind, name, start, duration, correlation; kernels:
//!   stream, class, name, start, duration, correlation), with
//!   communicator ids allowed to differ under a one-to-one renaming,
//!   which the stamp applies. Annotation scopes are not compared: the
//!   builder drops them. A rank that differs in any of these
//!   fields, such as a collective priced differently because its
//!   members span nodes differently, is built.
//!
//! Emission still runs for every rank: the emitter prices collectives
//! by their member ranks, so equality is known only once a rank's ops
//! exist. Programs are held only while their stage is emitted (ranks
//! come stage by stage); a program dropped early would cost one more
//! build, never exactness.

use crate::build::{build_rank, BuildOptions, RankOps, Sink};
use crate::error::CoreError;
use crate::graph::ExecutionGraph;
use crate::manipulate::blocks::{Block, BlockKey, BlockKind, BlockLibrary};
use crate::manipulate::source_layer;
use crate::task::{Phase, ProcIdx, SegmentTag, TaskId};
use lumos_cost::CostModel;
use lumos_model::ops::{self, OpBody, OpDesc};
use lumos_model::{
    CommScope, GroupRegistry, PipelineSchedule, RankCoords, ScheduleItem, TrainingSetup,
};
use lumos_trace::threads::{BACKWARD, MAIN};
use lumos_trace::{
    streams, ClusterTrace, CollectiveKind, CommMeta, CudaRuntimeKind, Dur, EventKind, KernelClass,
    RankId, RankTrace, StreamId, ThreadId, TraceEvent, Ts,
};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// Launch-to-kernel-start gap used when placing kernels on the
/// synthetic timeline (the simulator recomputes true times).
const LAUNCH_GAP: Dur = Dur(2_000);
/// Placeholder duration for blocking syncs (recomputed by replay).
const SYNC_PLACEHOLDER: Dur = Dur(2_000);

/// A fully-resolved reassembly request, built by
/// [`crate::manipulate::plan`]: everything else reassembly needs is
/// derived from the two setups.
#[derive(Debug, Clone)]
pub struct ReassembleSpec {
    /// The deployment the trace was profiled on.
    pub old: TrainingSetup,
    /// The target deployment.
    pub new: TrainingSetup,
}

impl ReassembleSpec {
    /// Whether every shape-sensitive kernel is re-priced against the
    /// new model: the tensor-parallel degree, the model width or the
    /// per-micro-batch token shape changed.
    pub fn recosts_kernels(&self) -> bool {
        let (old, new) = (&self.old, &self.new);
        new.parallelism.tp != old.parallelism.tp
            || new.model.hidden_size != old.model.hidden_size
            || new.model.ffn_size != old.model.ffn_size
            || new.batch.seq_len != old.batch.seq_len
            || new.batch.microbatch_size != old.batch.microbatch_size
    }

    /// Validates the request.
    ///
    /// The paper rejects tensor-parallel changes ("we currently do not
    /// support modifications to tensor parallelism … we leave the
    /// support for it as our future work"); this repository implements
    /// that future work for rescales that preserve the collective
    /// structure (`tp > 1 → tp' > 1`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTransform`] for a tensor-parallel
    /// change between `tp = 1` and `tp > 1`, and the target setup's
    /// validity errors.
    pub fn validate(&self) -> Result<(), CoreError> {
        let (otp, ntp) = (self.old.parallelism.tp, self.new.parallelism.tp);
        if (otp == 1) != (ntp == 1) {
            return Err(CoreError::InvalidTransform {
                reason: format!(
                    "tensor-parallel rescale {otp} → {ntp} changes the collective structure (TP all-reduces would have to be inserted or deleted inside recorded blocks); only tp>1 → tp'>1 rescales are supported"
                ),
            });
        }
        self.new.validate()?;
        Ok(())
    }
}

/// Rebuilds a cluster trace for the target deployment from the blocks
/// of a profiled one.
///
/// Extraction walks every event of the source trace; callers pricing
/// many configurations from the *same* trace extract once and share
/// the library across candidates. `library` must come from
/// [`BlockLibrary::extract`] on the trace `spec.old` describes.
/// Predictions do not need the trace this writes:
/// [`crate::Lumos::predict_spec`] reassembles the same program straight
/// into an execution graph.
///
/// # Errors
///
/// Returns spec-validation failures and missing-block errors.
pub fn reassemble_with_library<C: CostModel>(
    library: &BlockLibrary,
    spec: &ReassembleSpec,
    cost: &C,
) -> Result<ClusterTrace, CoreError> {
    let mut out = ClusterTrace::new(predicted_label(&spec.new));
    emit_ranks(library, spec, cost, |rank, sink: TraceSink| {
        let mut trace = RankTrace::new(rank);
        trace.extend(sink.events);
        trace.sort();
        out.push_rank(trace);
    })?;
    Ok(out)
}

/// Reassembles `spec` straight into an execution graph: the graph
/// [`crate::build_graph`] derives from [`reassemble_with_library`]'s
/// trace, without building that trace. Each distinct program of a
/// pipeline stage is built once; its copies are stamped (see the
/// module doc).
pub(crate) fn reassemble_graph<C: CostModel>(
    library: &BlockLibrary,
    spec: &ReassembleSpec,
    cost: &C,
    opts: &BuildOptions,
) -> Result<ExecutionGraph, CoreError> {
    /// A program built in the current stage: its ops in emission
    /// order, and the task ids and processors `build_rank` gave it.
    struct Built {
        ops: RankOps,
        tasks: Range<TaskId>,
        procs: Range<ProcIdx>,
    }
    let mut graph = ExecutionGraph::new();
    let mut built: Vec<Built> = Vec::new();
    let mut stage = 0;
    let mut rename = Vec::new();
    emit_ranks(library, spec, cost, |rank, ops: RankOps| {
        // Ranks come stage by stage, and ranks of different stages
        // paste different blocks, so a stage's programs are dropped
        // once the next stage begins.
        let rank_stage = spec.new.parallelism.coords(rank).pp;
        if rank_stage != stage {
            built.clear();
            stage = rank_stage;
        }
        let rank = RankId(rank);
        if let Some(b) = built.iter().find(|b| b.ops.same_program(&ops, &mut rename)) {
            graph.stamp(b.tasks.clone(), b.procs.clone(), rank, &rename);
            return;
        }
        let (tasks, procs) = (graph.len() as TaskId, graph.processors().len() as ProcIdx);
        build_rank(&mut graph, rank, &ops.clone().in_trace_order(), opts);
        built.push(Built {
            ops,
            tasks: tasks..graph.len() as TaskId,
            procs: procs..graph.processors().len() as ProcIdx,
        });
    })?;
    graph.validate()?;
    Ok(graph)
}

/// The label of a reassembled configuration (its trace's label and its
/// replay's).
pub(crate) fn predicted_label(new: &TrainingSetup) -> String {
    format!("predicted {}", new.label())
}

/// Runs the emitter for every rank of `spec.new`, in rank order,
/// handing each rank's filled sink to `rank_done`.
fn emit_ranks<C: CostModel, S: Sink + Default>(
    library: &BlockLibrary,
    spec: &ReassembleSpec,
    cost: &C,
    mut rank_done: impl FnMut(u32, S),
) -> Result<(), CoreError> {
    spec.validate()?;
    let schedule = PipelineSchedule::generate(
        spec.new.schedule,
        spec.new.parallelism.pp,
        spec.new.batch.num_microbatches,
    )?;
    let registry = GroupRegistry::new(spec.new.parallelism);
    let mut shared = Shared::default();
    for rank in spec.new.parallelism.all_ranks() {
        let coords = spec.new.parallelism.coords(rank);
        let emitter = RankEmitter {
            spec,
            library,
            cost,
            registry,
            schedule: &schedule,
            coords,
            tp_group: registry.group_id(CommScope::Tp, coords),
            tp_members: registry.members(CommScope::Tp, coords),
            sink: S::default(),
            shared: &mut shared,
            main_cursor: Ts::ZERO,
            bwd_cursor: Ts::ZERO,
            stream_cursors: Vec::new(),
            next_corr: 1,
            next_event: 1,
            tp_seq: 0,
            dp_seq: 0,
        };
        rank_done(rank, emitter.emit()?);
    }
    Ok(())
}

/// State every rank of one reassembly shares.
#[derive(Default)]
struct Shared {
    /// Interned names.
    names: HashSet<Arc<str>>,
    /// The paste plan of each source block pasted so far.
    plans: HashMap<BlockKey, Rc<PastePlan>>,
}

/// How to paste one source block, derived once per reassembly: the
/// block's launches in host order ([`Block::launch_indices`]) paired
/// with their kernels ([`Block::kernel_indices_by_correlation`]), as
/// positions every paste indexes instead of re-deriving them.
struct PastePlan {
    /// Per launch, in host order: its kernel's index in the block.
    launch_kernels: Vec<Option<usize>>,
    /// Per block event: the host-order position of the launch sharing
    /// its correlation id (the last such launch), for launches and
    /// kernels.
    launch_pos: Vec<Option<usize>>,
    /// The block's kernels, in the order they are placed on their
    /// streams: by their launch's end, ties in block order.
    kernel_order: Vec<usize>,
}

impl PastePlan {
    fn new(block: &Block) -> PastePlan {
        let events = &block.events;
        let kernels = block.kernel_indices_by_correlation();
        let launch_idx = block.launch_indices();
        let corr = |i: usize| events[i].kind.correlation().unwrap_or(0);
        let launch_kernels = launch_idx
            .iter()
            .map(|&i| kernels.get(&corr(i)).copied())
            .collect();
        let pos_by_corr: HashMap<u64, usize> = launch_idx
            .iter()
            .enumerate()
            .map(|(p, &i)| (corr(i), p))
            .collect();
        let launch_pos: Vec<Option<usize>> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::CudaRuntime {
                    kind, correlation, ..
                } if kind.launches_work() => pos_by_corr.get(&correlation).copied(),
                EventKind::Kernel { correlation, .. } => pos_by_corr.get(&correlation).copied(),
                _ => None,
            })
            .collect();
        // A paste shifts every launch by the same offset, so this order
        // holds for each paste.
        let mut kernel_order: Vec<usize> =
            (0..events.len()).filter(|&i| events[i].is_gpu()).collect();
        kernel_order.sort_by_key(|&k| launch_pos[k].map(|p| events[launch_idx[p]].end()));
        PastePlan {
            launch_kernels,
            launch_pos,
            kernel_order,
        }
    }
}

/// Writes a rank trace: host calls and kernels as trace events, scopes
/// as user annotations labeled in the vocabulary
/// [`crate::parse_annotation`] reads back.
#[derive(Default)]
struct TraceSink {
    events: Vec<TraceEvent>,
}

impl Sink for TraceSink {
    fn host(
        &mut self,
        tid: ThreadId,
        runtime: Option<CudaRuntimeKind>,
        name: Arc<str>,
        ts: Ts,
        dur: Dur,
        correlation: u64,
    ) {
        let kind = match runtime {
            None => EventKind::CpuOp { tid },
            Some(kind) => EventKind::CudaRuntime {
                tid,
                kind,
                correlation,
            },
        };
        self.events.push(TraceEvent {
            name,
            kind,
            ts,
            dur,
        });
    }

    fn kernel(
        &mut self,
        stream: StreamId,
        class: KernelClass,
        name: Arc<str>,
        ts: Ts,
        dur: Dur,
        correlation: u64,
    ) {
        let kind = EventKind::Kernel {
            stream,
            correlation,
            class,
        };
        self.events.push(TraceEvent {
            name,
            kind,
            ts,
            dur,
        });
    }

    fn scope(&mut self, tid: ThreadId, tag: SegmentTag, start: Ts, end: Ts) {
        self.events.push(TraceEvent::annotation(
            scope_label(&tag),
            start,
            end - start,
            tid,
        ));
    }
}

/// The annotation label of a scope the emitter opens: `iteration`,
/// `optimizer`, `[layer=N |embed |head ]fwd|bwd mb=M` and
/// `dp_grads layer=N|embed mb=M`. [`crate::parse_annotation`] maps it
/// back to `tag`.
fn scope_label(tag: &SegmentTag) -> String {
    let mut label = String::new();
    match tag.phase {
        None => label.push_str("iteration"),
        Some(Phase::Optimizer) => label.push_str("optimizer"),
        Some(phase) => {
            if phase == Phase::DpGrads {
                label.push_str("dp_grads ");
            }
            if let Some(layer) = tag.layer {
                let _ = write!(label, "layer={layer} ");
            } else if tag.embed {
                label.push_str("embed ");
            } else if tag.head {
                label.push_str("head ");
            }
            match phase {
                Phase::Forward => label.push_str("fwd "),
                Phase::Backward => label.push_str("bwd "),
                _ => {}
            }
            let _ = write!(label, "mb={}", tag.mb.unwrap_or_default());
        }
    }
    label
}

/// The tag of a scope covering one micro-batch's `kind` content (a
/// pasted block, or its gradient bucket under [`Phase::DpGrads`]).
fn block_tag(kind: BlockKind, mb: u32, phase: Phase) -> SegmentTag {
    SegmentTag {
        mb: Some(mb),
        layer: match kind {
            BlockKind::Layer(l) => Some(l),
            _ => None,
        },
        embed: kind == BlockKind::Embed,
        head: kind == BlockKind::Head,
        phase: Some(phase),
    }
}

/// The tag of a whole-micro-batch pass scope (`fwd mb=M`, `bwd mb=M`).
fn pass_tag(mb: u32, phase: Phase) -> SegmentTag {
    SegmentTag {
        mb: Some(mb),
        phase: Some(phase),
        ..SegmentTag::default()
    }
}

struct RankEmitter<'a, C, S> {
    spec: &'a ReassembleSpec,
    library: &'a BlockLibrary,
    cost: &'a C,
    registry: GroupRegistry,
    schedule: &'a PipelineSchedule,
    coords: RankCoords,
    /// This rank's tensor-parallel communicator and its members.
    tp_group: u64,
    tp_members: Vec<u32>,
    sink: S,
    shared: &'a mut Shared,
    main_cursor: Ts,
    bwd_cursor: Ts,
    /// Per stream: where its placeholder timeline ends.
    stream_cursors: Vec<(StreamId, Ts)>,
    next_corr: u64,
    next_event: u64,
    tp_seq: u32,
    dp_seq: u32,
}

impl<'a, C: CostModel, S: Sink> RankEmitter<'a, C, S> {
    fn emit(mut self) -> Result<S, CoreError> {
        let spec = self.spec;
        let schedule = self.schedule;
        let stage = self.coords.pp;
        let last_mb = spec.new.batch.num_microbatches - 1;
        let iter_start = self.main_cursor;

        for &item in schedule.stage(stage).expect("stage in range") {
            match item {
                ScheduleItem::Forward { mb } => self.emit_forward(mb)?,
                ScheduleItem::Backward { mb } => self.emit_backward(mb, mb == last_mb)?,
                // Recorded backward blocks already contain the
                // weight-grad work, so split-backward skeletons paste
                // nothing here; the schedule's replay adjustment
                // re-shapes the resulting 1F1B-like makespan.
                ScheduleItem::WeightGrad { .. } => {}
            }
        }
        self.emit_optimizer();
        let iter_end = self.main_cursor.max(self.bwd_cursor);
        self.sink
            .scope(MAIN, SegmentTag::default(), iter_start, iter_end);
        Ok(self.sink)
    }

    /// The shared copy of `name`; allocates only on first sight.
    fn intern(&mut self, name: &str) -> Arc<str> {
        let names = &mut self.shared.names;
        if let Some(interned) = names.get(name) {
            return interned.clone();
        }
        let interned: Arc<str> = Arc::from(name);
        names.insert(interned.clone());
        interned
    }

    /// A synthesized CUDA runtime call, named by its API.
    fn emit_runtime(
        &mut self,
        tid: ThreadId,
        kind: CudaRuntimeKind,
        ts: Ts,
        dur: Dur,
        correlation: u64,
    ) {
        let name = self.intern(kind.api_name());
        self.sink.host(tid, Some(kind), name, ts, dur, correlation);
    }

    fn cursor(&mut self, tid: ThreadId) -> &mut Ts {
        if tid == MAIN {
            &mut self.main_cursor
        } else {
            &mut self.bwd_cursor
        }
    }

    fn fresh_event(&mut self) -> u64 {
        let e = self.next_event;
        self.next_event += 1;
        e
    }

    fn fresh_corr(&mut self) -> u64 {
        let c = self.next_corr;
        self.next_corr += 1;
        c
    }

    /// Places a kernel on its stream's synthetic timeline.
    fn place_kernel(&mut self, stream: StreamId, launch_end: Ts, dur: Dur) -> Ts {
        let i = match self.stream_cursors.iter().position(|&(s, _)| s == stream) {
            Some(i) => i,
            None => {
                self.stream_cursors.push((stream, Ts::ZERO));
                self.stream_cursors.len() - 1
            }
        };
        let cursor = &mut self.stream_cursors[i].1;
        let start = (*cursor).max(launch_end + LAUNCH_GAP);
        *cursor = start + dur;
        start
    }

    // --- Synthesized host primitives (profile-fitted durations). ---

    fn emit_cpu_op(&mut self, tid: ThreadId, name: &str) {
        let dur = self.library.host.cpu_op;
        let name = self.intern(name);
        let ts = *self.cursor(tid);
        self.sink.host(tid, None, name, ts, dur, 0);
        *self.cursor(tid) = ts + dur;
    }

    fn emit_event_pair(&mut self, tid: ThreadId, from: StreamId, to: StreamId) {
        let dur = self.library.host.event_call;
        let event = self.fresh_event();
        let ts = *self.cursor(tid);
        let record = CudaRuntimeKind::EventRecord {
            event,
            stream: from,
        };
        self.emit_runtime(tid, record, ts, dur, 0);
        let wait = CudaRuntimeKind::StreamWaitEvent { stream: to, event };
        self.emit_runtime(tid, wait, ts + dur, dur, 0);
        *self.cursor(tid) = ts + dur + dur;
    }

    fn emit_launch(
        &mut self,
        tid: ThreadId,
        name: &str,
        class: KernelClass,
        stream: StreamId,
        dur: Dur,
    ) {
        let launch_dur = self.library.host.launch;
        let corr = self.fresh_corr();
        let ts = *self.cursor(tid);
        self.emit_runtime(tid, CudaRuntimeKind::LaunchKernel, ts, launch_dur, corr);
        *self.cursor(tid) = ts + launch_dur;
        let kstart = self.place_kernel(stream, ts + launch_dur, dur);
        let name = self.intern(name);
        self.sink.kernel(stream, class, name, kstart, dur, corr);
    }

    /// A blocking stream or device synchronization.
    fn emit_sync(&mut self, tid: ThreadId, kind: CudaRuntimeKind) {
        let ts = *self.cursor(tid);
        self.emit_runtime(tid, kind, ts, SYNC_PLACEHOLDER, 0);
        *self.cursor(tid) = ts + SYNC_PLACEHOLDER;
    }

    // --- Pipeline transfers (synthesized at the new scale). ---

    fn emit_pp_transfer(&mut self, upstream_stage: u32, mb: u32, backward: bool, is_recv: bool) {
        let new = &self.spec.new;
        let stream = if backward {
            streams::PP_BWD
        } else {
            streams::PP_FWD
        };
        let bytes = ops::pp_activation_bytes(&new.model, &new.batch);
        let group = self
            .registry
            .group_id(CommScope::PpPair { upstream_stage }, self.coords);
        let members = self
            .registry
            .members(CommScope::PpPair { upstream_stage }, self.coords);
        let seq = 2 * mb + backward as u32;
        let dur = self
            .cost
            .collective_cost(CollectiveKind::SendRecv, bytes, &members);
        let cpu_name = match (is_recv, backward) {
            (true, false) => "recv_forward",
            (false, false) => "send_forward",
            (true, true) => "recv_backward",
            (false, true) => "send_backward",
        };
        self.emit_cpu_op(MAIN, cpu_name);
        if !is_recv {
            self.emit_event_pair(MAIN, streams::COMPUTE, stream);
        }
        self.emit_launch(
            MAIN,
            CollectiveKind::SendRecv.kernel_name(),
            KernelClass::Collective(CommMeta {
                kind: CollectiveKind::SendRecv,
                group,
                seq,
                bytes,
            }),
            stream,
            dur,
        );
        if is_recv {
            self.emit_event_pair(MAIN, stream, streams::COMPUTE);
        }
    }

    // --- Data-parallel gradient buckets (synthesized). ---

    fn emit_dp_bucket(&mut self, tid: ThreadId, scope: SegmentTag, params: u64) {
        let start = *self.cursor(tid);
        let bytes = params * ops::GRAD_BYTES;
        let group = self.registry.group_id(CommScope::Dp, self.coords);
        let members = self.registry.members(CommScope::Dp, self.coords);
        let dur = self
            .cost
            .collective_cost(CollectiveKind::AllReduce, bytes, &members);
        let seq = self.dp_seq;
        self.dp_seq += 1;
        self.emit_cpu_op(tid, "nccl:all_reduce_dp_grads");
        self.emit_event_pair(tid, streams::COMPUTE, streams::DP_COMM);
        self.emit_launch(
            tid,
            CollectiveKind::AllReduce.kernel_name(),
            KernelClass::Collective(CommMeta {
                kind: CollectiveKind::AllReduce,
                group,
                seq,
                bytes,
            }),
            streams::DP_COMM,
            dur,
        );
        let end = *self.cursor(tid);
        self.sink.scope(tid, scope, start, end);
    }

    // --- Block pasting. ---

    /// Regenerated op list for a block under the *new* model, used to
    /// re-price shape-changed kernels.
    fn recost_ops(&self, kind: BlockKind, phase: Phase) -> Option<Vec<OpDesc>> {
        if !self.spec.recosts_kernels() {
            return None;
        }
        regenerated_block_ops(&self.spec.new, kind, phase)
    }

    /// Looks up the source block for (kind-of-new-content, mb),
    /// borrowed from the library rather than copied, with its key.
    fn source_block(
        &self,
        kind: BlockKind,
        mb: u32,
        phase: Phase,
    ) -> Result<(BlockKey, &'a Block), CoreError> {
        let old = &self.spec.old;
        let src_kind = match kind {
            BlockKind::Layer(new_layer) => BlockKind::Layer(source_layer(
                old.model.num_layers,
                self.spec.new.model.num_layers,
                new_layer,
            )),
            other => other,
        };
        let key = BlockKey {
            // TP rescales map the new shard onto a recorded one; its
            // kernels are all re-priced, so any source shard serves.
            tp: self.coords.tp % old.parallelism.tp,
            dp: self.coords.dp % old.parallelism.dp,
            kind: src_kind,
            mb: mb % old.batch.num_microbatches,
            phase,
        };
        let library: &'a BlockLibrary = self.library;
        let block = library
            .get(&key)
            .ok_or_else(|| CoreError::MissingAnnotations {
                needed: format!("block {key:?} absent from source trace"),
            })?;
        Ok((key, block))
    }

    /// Pastes one block at the thread cursor, renumbering ids and
    /// (optionally) re-pricing kernels against the regenerated op
    /// list. A layer block is labeled with its *new* layer index.
    fn paste_block(
        &mut self,
        tid: ThreadId,
        kind: BlockKind,
        mb: u32,
        phase: Phase,
    ) -> Result<(), CoreError> {
        let (key, block) = self.source_block(kind, mb, phase)?;
        let plan = Rc::clone(
            self.shared
                .plans
                .entry(key)
                .or_insert_with(|| Rc::new(PastePlan::new(block))),
        );
        let recost = self.recost_ops(kind, phase);
        let base = *self.cursor(tid);

        // Pass 1: walk launches in host order (the shared
        // [`Block::launches_in_host_order`] contract), assigning new
        // correlation ids and (class, duration) updates per kernel.
        // Per launch: (new corr, new class and duration).
        let mut updates: Vec<(u64, Option<(KernelClass, Dur)>)> =
            Vec::with_capacity(plan.launch_kernels.len());
        let mut op_iter = recost.as_deref().map(|ops| ops.iter());
        for &kernel in &plan.launch_kernels {
            let new_corr = self.fresh_corr();
            let old_kernel = kernel.map(|k| &block.events[k]);
            let old_class = old_kernel.and_then(|k| match k.kind {
                EventKind::Kernel { class, .. } => Some(class),
                _ => None,
            });
            let next_op: Option<&OpDesc> = match op_iter.as_mut() {
                Some(it) => {
                    let op = it.next().ok_or_else(|| CoreError::InvalidTransform {
                        reason: format!(
                            "block {kind:?} {phase:?} has more kernels than the regenerated op list"
                        ),
                    })?;
                    Some(op)
                }
                None => None,
            };
            let update = match (old_class, next_op) {
                // Collective: remap group/seq always; re-price when
                // re-costing.
                (Some(KernelClass::Collective(meta)), op) => {
                    let seq = self.tp_seq;
                    self.tp_seq += 1;
                    let bytes = match op {
                        Some(OpDesc {
                            body: OpBody::Collective { bytes, .. },
                            ..
                        }) => *bytes,
                        Some(other) => {
                            return Err(CoreError::InvalidTransform {
                                reason: format!(
                                    "op/kernel mismatch in {kind:?} {phase:?}: collective kernel vs op `{}`",
                                    other.name
                                ),
                            })
                        }
                        None => meta.bytes,
                    };
                    let class = KernelClass::Collective(CommMeta {
                        kind: meta.kind,
                        group: self.tp_group,
                        seq,
                        bytes,
                    });
                    let dur = match (op, old_kernel) {
                        (Some(_), _) => {
                            self.cost
                                .collective_cost(meta.kind, bytes, &self.tp_members)
                        }
                        (None, Some(k)) => k.dur,
                        (None, None) => Dur::ZERO,
                    };
                    Some((class, dur))
                }
                // Compute kernel with re-costing: take the new shape.
                (Some(_), Some(op)) => {
                    let class = class_of_body(&op.body).ok_or_else(|| {
                        CoreError::InvalidTransform {
                            reason: format!(
                                "op/kernel mismatch in {kind:?} {phase:?}: compute kernel vs collective op `{}`",
                                op.name
                            ),
                        }
                    })?;
                    Some((class, self.cost.compute_cost(&class)))
                }
                // Compute kernel without re-costing: keep recorded.
                (Some(_), None) => None,
                (None, _) => None,
            };
            updates.push((new_corr, update));
        }
        if let Some(mut it) = op_iter {
            if it.next().is_some() {
                return Err(CoreError::InvalidTransform {
                    reason: format!(
                        "block {kind:?} {phase:?} has fewer kernels than the regenerated op list"
                    ),
                });
            }
        }

        // Pass 2: emit the host calls shifted to the cursor, with fresh
        // CUDA event ids and the new correlation ids.
        let mut event_map: Vec<(u64, u64)> = Vec::new();
        // Per launch: its end on the new timeline.
        let mut launch_end: Vec<Option<Ts>> = vec![None; plan.launch_kernels.len()];
        for (i, e) in block.events.iter().enumerate() {
            let ts = base + Dur(e.ts.0);
            match e.kind {
                EventKind::CudaRuntime {
                    tid: _,
                    kind,
                    correlation: _,
                } => {
                    let new_kind = match kind {
                        CudaRuntimeKind::EventRecord { event, stream } => {
                            let event = self.renumber_event(&mut event_map, event);
                            CudaRuntimeKind::EventRecord { event, stream }
                        }
                        CudaRuntimeKind::StreamWaitEvent { stream, event } => {
                            let event = self.renumber_event(&mut event_map, event);
                            CudaRuntimeKind::StreamWaitEvent { stream, event }
                        }
                        other => other,
                    };
                    let launch = plan.launch_pos[i].filter(|_| kind.launches_work());
                    if let Some(p) = launch {
                        launch_end[p] = Some(ts + e.dur);
                    }
                    let corr = launch.map_or(0, |p| updates[p].0);
                    let name = e.name.clone();
                    self.sink.host(tid, Some(new_kind), name, ts, e.dur, corr);
                }
                EventKind::CpuOp { .. } => {
                    self.sink.host(tid, None, e.name.clone(), ts, e.dur, 0);
                }
                // Kernels are placed below; annotations are re-emitted
                // as scopes.
                EventKind::Kernel { .. } | EventKind::UserAnnotation { .. } => {}
            }
        }
        // Kernels: place on stream cursors in launch order, using the
        // launch's new end.
        for &k in &plan.kernel_order {
            let e = &block.events[k];
            let EventKind::Kernel { stream, class, .. } = e.kind else {
                unreachable!("the plan orders kernels only")
            };
            let p = plan.launch_pos[k].expect("extracted kernels come with their launch");
            let (new_corr, update) = updates[p];
            let (class, dur) = update.unwrap_or((class, e.dur));
            let ts = self.place_kernel(stream, launch_end[p].unwrap_or(base), dur);
            self.sink
                .kernel(stream, class, e.name.clone(), ts, dur, new_corr);
        }

        *self.cursor(tid) = base + block.host_span;
        let end = *self.cursor(tid);
        self.sink.scope(tid, block_tag(kind, mb, phase), base, end);
        Ok(())
    }

    /// The fresh id of a pasted block's CUDA event `event`, shared by
    /// its record and its waits.
    fn renumber_event(&mut self, map: &mut Vec<(u64, u64)>, event: u64) -> u64 {
        match map.iter().find(|&&(old, _)| old == event) {
            Some(&(_, new)) => new,
            None => {
                let new = self.fresh_event();
                map.push((event, new));
                new
            }
        }
    }

    // --- Schedule-item emission. ---

    fn emit_forward(&mut self, mb: u32) -> Result<(), CoreError> {
        let new = &self.spec.new;
        let stage = self.coords.pp;
        let start = self.main_cursor;
        if stage > 0 {
            self.emit_pp_transfer(stage - 1, mb, false, true);
        }
        if stage == 0 {
            self.paste_block(MAIN, BlockKind::Embed, mb, Phase::Forward)?;
        }
        for l in new.parallelism.stage_layers(new.model.num_layers, stage) {
            self.paste_block(MAIN, BlockKind::Layer(l), mb, Phase::Forward)?;
        }
        if stage == new.parallelism.pp - 1 {
            self.paste_block(MAIN, BlockKind::Head, mb, Phase::Forward)?;
        }
        if stage + 1 < new.parallelism.pp {
            self.emit_pp_transfer(stage, mb, false, false);
        }
        let end = self.main_cursor;
        self.sink
            .scope(MAIN, pass_tag(mb, Phase::Forward), start, end);
        Ok(())
    }

    fn emit_backward(&mut self, mb: u32, is_last_mb: bool) -> Result<(), CoreError> {
        let spec: &'a ReassembleSpec = self.spec;
        let new = &spec.new;
        let stage = self.coords.pp;
        if stage + 1 < new.parallelism.pp {
            self.emit_pp_transfer(stage, mb, true, true);
        }
        // Hand off to the backward thread.
        self.bwd_cursor = self.bwd_cursor.max(self.main_cursor);
        let bwd_start = self.bwd_cursor;
        if stage == new.parallelism.pp - 1 {
            self.paste_block(BACKWARD, BlockKind::Head, mb, Phase::Backward)?;
        }
        let dp = new.parallelism.dp;
        let layer_params = new.model.params_per_layer() / new.parallelism.tp as u64;
        for l in new
            .parallelism
            .stage_layers(new.model.num_layers, stage)
            .rev()
        {
            self.paste_block(BACKWARD, BlockKind::Layer(l), mb, Phase::Backward)?;
            if is_last_mb && dp > 1 {
                let scope = block_tag(BlockKind::Layer(l), mb, Phase::DpGrads);
                self.emit_dp_bucket(BACKWARD, scope, layer_params);
            }
        }
        if stage == 0 {
            self.paste_block(BACKWARD, BlockKind::Embed, mb, Phase::Backward)?;
            if is_last_mb && dp > 1 {
                let emb = new.model.params_embedding() / new.parallelism.tp as u64;
                let scope = block_tag(BlockKind::Embed, mb, Phase::DpGrads);
                self.emit_dp_bucket(BACKWARD, scope, emb);
            }
        }
        let bwd_end = self.bwd_cursor;
        self.sink
            .scope(BACKWARD, pass_tag(mb, Phase::Backward), bwd_start, bwd_end);
        // Main thread resumes after the backward completes.
        self.main_cursor = self.main_cursor.max(self.bwd_cursor);
        if stage > 0 {
            self.emit_pp_transfer(stage - 1, mb, true, false);
        }
        Ok(())
    }

    fn emit_optimizer(&mut self) {
        let spec: &'a ReassembleSpec = self.spec;
        let new = &spec.new;
        let stage = self.coords.pp;
        let start = self.main_cursor;
        if new.parallelism.dp > 1 {
            self.emit_cpu_op(MAIN, "wait_all_grads");
            self.emit_sync(
                MAIN,
                CudaRuntimeKind::StreamSynchronize {
                    stream: streams::DP_COMM,
                },
            );
        }
        if new.parallelism.pp > 1 && (stage == 0 || stage == new.parallelism.pp - 1) {
            let bytes = new.model.params_embedding() / new.parallelism.tp as u64 * ops::GRAD_BYTES;
            let group = self.registry.group_id(CommScope::Embedding, self.coords);
            let members = self.registry.members(CommScope::Embedding, self.coords);
            let dur = self
                .cost
                .collective_cost(CollectiveKind::AllReduce, bytes, &members);
            self.emit_cpu_op(MAIN, "all_reduce_embedding_grads");
            self.emit_event_pair(MAIN, streams::COMPUTE, streams::DP_COMM);
            self.emit_launch(
                MAIN,
                CollectiveKind::AllReduce.kernel_name(),
                KernelClass::Collective(CommMeta {
                    kind: CollectiveKind::AllReduce,
                    group,
                    seq: 0,
                    bytes,
                }),
                streams::DP_COMM,
                dur,
            );
            self.emit_sync(
                MAIN,
                CudaRuntimeKind::StreamSynchronize {
                    stream: streams::DP_COMM,
                },
            );
        }
        let params = ops::local_params(&new.model, new.parallelism.tp, new.parallelism.pp, stage);
        for op in ops::optimizer_ops(params) {
            self.emit_cpu_op(MAIN, op.name);
            if let Some(class) = class_of_body(&op.body) {
                let dur = self.cost.compute_cost(&class);
                self.emit_launch(MAIN, &class.kernel_name(), class, streams::COMPUTE, dur);
            }
        }
        self.emit_sync(MAIN, CudaRuntimeKind::DeviceSynchronize);
        let end = self.main_cursor;
        let scope = SegmentTag {
            phase: Some(Phase::Optimizer),
            ..SegmentTag::default()
        };
        self.sink.scope(MAIN, scope, start, end);
    }
}

/// Maps a compute op body to its kernel class (collectives return
/// `None`) — the shape key a [`CostModel`] prices re-generated ops by.
/// Public so cost consumers (e.g. the search engine's stage-cost memo)
/// price op lists exactly the way reassembly does.
pub fn kernel_class_of_op(body: &OpBody) -> Option<KernelClass> {
    class_of_body(body)
}

/// The op list reassembly regenerates for a block of `kind`/`phase`
/// under `setup` when [`ReassembleSpec::recosts_kernels`] holds
/// (`None` for block kinds whose recorded durations are always kept).
/// Public so cost consumers re-price blocks in lockstep with
/// reassembly — a drifted copy of this mapping would silently desync
/// lower bounds from the prices candidates actually simulate under.
pub fn regenerated_block_ops(
    setup: &TrainingSetup,
    kind: BlockKind,
    phase: Phase,
) -> Option<Vec<OpDesc>> {
    let tp = setup.parallelism.tp;
    Some(match (kind, phase) {
        (BlockKind::Layer(_), Phase::Forward) => {
            ops::layer_forward_ops(&setup.model, tp, &setup.batch)
        }
        (BlockKind::Layer(_), Phase::Backward) => {
            ops::layer_backward_ops(&setup.model, tp, &setup.batch)
        }
        (BlockKind::Embed, Phase::Forward) => {
            ops::embedding_forward_ops(&setup.model, &setup.batch)
        }
        (BlockKind::Embed, Phase::Backward) => {
            ops::embedding_backward_ops(&setup.model, &setup.batch)
        }
        (BlockKind::Head, Phase::Forward) => ops::head_forward_ops(&setup.model, tp, &setup.batch),
        (BlockKind::Head, Phase::Backward) => {
            ops::head_backward_ops(&setup.model, tp, &setup.batch)
        }
        _ => return None,
    })
}

/// Maps a compute op body to its kernel class (collectives return
/// `None`).
fn class_of_body(body: &OpBody) -> Option<KernelClass> {
    Some(match *body {
        OpBody::Gemm { m, n, k } => KernelClass::Gemm { m, n, k },
        OpBody::AttentionFwd {
            batch_heads,
            seq,
            head_dim,
        } => KernelClass::AttentionFwd {
            batch_heads,
            seq,
            head_dim,
        },
        OpBody::AttentionBwd {
            batch_heads,
            seq,
            head_dim,
        } => KernelClass::AttentionBwd {
            batch_heads,
            seq,
            head_dim,
        },
        OpBody::AttentionDecode {
            batch_heads,
            kv_len,
            head_dim,
        } => KernelClass::AttentionDecode {
            batch_heads,
            kv_len,
            head_dim,
        },
        OpBody::Elementwise { elems } => KernelClass::Elementwise { elems },
        OpBody::Norm { elems } => KernelClass::Norm { elems },
        OpBody::Softmax { elems } => KernelClass::Softmax { elems },
        OpBody::Embedding { elems } => KernelClass::Embedding { elems },
        OpBody::Optimizer { params } => KernelClass::Optimizer { params },
        OpBody::Collective { .. } => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::parse_annotation;

    #[test]
    fn scope_labels_parse_back_to_their_tags() {
        let mut scopes = vec![
            (SegmentTag::default(), "iteration"),
            (
                SegmentTag {
                    phase: Some(Phase::Optimizer),
                    ..SegmentTag::default()
                },
                "optimizer",
            ),
            (pass_tag(3, Phase::Forward), "fwd mb=3"),
            (pass_tag(0, Phase::Backward), "bwd mb=0"),
            (
                block_tag(BlockKind::Layer(7), 1, Phase::Forward),
                "layer=7 fwd mb=1",
            ),
            (
                block_tag(BlockKind::Embed, 2, Phase::Backward),
                "embed bwd mb=2",
            ),
            (
                block_tag(BlockKind::Head, 0, Phase::Forward),
                "head fwd mb=0",
            ),
            (
                block_tag(BlockKind::Layer(5), 3, Phase::DpGrads),
                "dp_grads layer=5 mb=3",
            ),
            (
                block_tag(BlockKind::Embed, 3, Phase::DpGrads),
                "dp_grads embed mb=3",
            ),
        ];
        scopes.push((
            block_tag(BlockKind::Head, 4, Phase::Backward),
            "head bwd mb=4",
        ));
        for (tag, label) in scopes {
            assert_eq!(scope_label(&tag), label);
            assert_eq!(parse_annotation(label), tag, "{label}");
        }
    }
}
