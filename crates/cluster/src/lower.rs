//! Lowering: model + deployment → per-rank host programs.
//!
//! Produces, for every rank, the instruction stream a Megatron-style
//! trainer executes for one iteration:
//!
//! * the 1F1B (or GPipe) schedule of micro-batch forwards/backwards
//!   for the rank's pipeline stage;
//! * per-layer operator sequences (from [`lumos_model::ops`]) as CPU
//!   dispatch + kernel launches on the compute stream;
//! * tensor-parallel all-reduces on a dedicated stream, fenced with
//!   `cudaEventRecord`/`cudaStreamWaitEvent` pairs in both directions
//!   (compute → comm and comm → compute) — the inter-stream
//!   dependencies at the heart of the paper;
//! * pipeline activation/gradient transfers as rendezvous send/recv
//!   pairs on direction-specific streams;
//! * data-parallel gradient all-reduces per layer, launched from the
//!   backward thread during the *last* micro-batch's backward pass so
//!   they overlap with remaining compute (fenced one-way only);
//! * the optimizer phase (grad-stream drain, clip, fused Adam),
//!   closed by a device synchronize.
//!
//! Forward work runs on the main thread and backward work on the
//! autograd thread, coordinated by token signal/wait pairs, matching
//! the PyTorch behavior Lumos's inter-thread gap detection targets.

use crate::program::{HostOp, KernelSpec, NameId, Program};
use lumos_model::ops::{self, CollOp, OpBody, OpDesc};
use lumos_model::{
    CommScope, GroupRegistry, ModelError, Parallelism, PipelineSchedule, RankCoords, ScheduleItem,
};
use lumos_trace::{streams, CollectiveKind, CommMeta, KernelClass, StreamId};
use std::collections::HashMap;
use std::sync::Arc;

/// A complete training-job description: everything needed to generate
/// ground-truth traces. Alias of [`lumos_model::TrainingSetup`] so the
/// same description drives both ground-truth generation and Lumos's
/// graph manipulation.
pub type SimConfig = lumos_model::TrainingSetup;

/// The lowered job: per-rank programs plus communicator membership.
#[derive(Debug, Clone)]
pub struct LoweredJob {
    /// One program per global rank.
    pub programs: Vec<Program>,
    /// Communicator id → member global ranks.
    pub groups: HashMap<u64, Vec<u32>>,
    /// The originating configuration.
    pub config: SimConfig,
}

/// Lowers a configuration into per-rank programs.
///
/// # Errors
///
/// Returns configuration-validity errors (zero dims, indivisible
/// layers/heads, empty schedule).
pub fn lower(config: &SimConfig) -> Result<LoweredJob, ModelError> {
    config.validate()?;
    let par = config.parallelism;
    let schedule =
        PipelineSchedule::generate(config.schedule, par.pp, config.batch.num_microbatches)?;
    let registry = GroupRegistry::new(par);

    let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut record_group = |scope: CommScope, coords: RankCoords| -> u64 {
        let id = registry.group_id(scope, coords);
        groups
            .entry(id)
            .or_insert_with(|| registry.members(scope, coords));
        id
    };

    let mut programs = Vec::with_capacity(par.world_size() as usize);
    for rank in par.all_ranks() {
        let coords = par.coords(rank);
        let tp_group = record_group(CommScope::Tp, coords);
        let dp_group = record_group(CommScope::Dp, coords);
        let fwd_in_group = (coords.pp > 0).then(|| {
            record_group(
                CommScope::PpPair {
                    upstream_stage: coords.pp - 1,
                },
                coords,
            )
        });
        let fwd_out_group = (coords.pp + 1 < par.pp).then(|| {
            record_group(
                CommScope::PpPair {
                    upstream_stage: coords.pp,
                },
                coords,
            )
        });
        let emb_group = (par.pp > 1 && (coords.pp == 0 || coords.pp == par.pp - 1))
            .then(|| record_group(CommScope::Embedding, coords));

        let mut lowerer = RankLowerer {
            config,
            par,
            coords,
            tp_group,
            dp_group,
            fwd_in_group,
            fwd_out_group,
            emb_group,
            program: Program::new(rank),
            next_event: 0,
            tp_seq: 0,
            dp_seq: 0,
            names: NameCache::default(),
        };
        lowerer.emit_iteration(&schedule);
        let program = lowerer.program;
        program
            .well_formed()
            .expect("lowering must produce well-formed programs");
        programs.push(program);
    }

    Ok(LoweredJob {
        programs,
        groups,
        config: config.clone(),
    })
}

/// Hash-indexed interning cache layered over a program's
/// [`crate::program::NameTable`]: repeated launches share one table
/// entry, and the lookup is O(1) instead of the table's linear scan.
#[derive(Default)]
pub(crate) struct NameCache(HashMap<String, NameId>);

impl NameCache {
    pub(crate) fn intern(&mut self, program: &mut Program, s: String) -> NameId {
        match self.0.entry(s) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = program.names.push_new(Arc::from(e.key().as_str()));
                e.insert(id);
                id
            }
        }
    }
}

struct RankLowerer<'a> {
    config: &'a SimConfig,
    par: Parallelism,
    coords: RankCoords,
    tp_group: u64,
    dp_group: u64,
    /// Pair group toward the previous stage (recv fwd / send bwd).
    fwd_in_group: Option<u64>,
    /// Pair group toward the next stage (send fwd / recv bwd).
    fwd_out_group: Option<u64>,
    emb_group: Option<u64>,
    program: Program,
    next_event: u32,
    tp_seq: u32,
    dp_seq: u32,
    names: NameCache,
}

/// Which host thread an instruction targets.
#[derive(Clone, Copy, PartialEq)]
enum Th {
    Main,
    Bwd,
}

impl RankLowerer<'_> {
    fn intern(&mut self, s: String) -> NameId {
        self.names.intern(&mut self.program, s)
    }

    fn push(&mut self, th: Th, op: HostOp) {
        match th {
            Th::Main => self.program.main_mut().push(op),
            Th::Bwd => self.program.backward_mut().push(op),
        }
    }

    fn fresh_event(&mut self) -> u32 {
        let e = self.next_event;
        self.next_event += 1;
        e
    }

    fn annotate(&mut self, th: Th, name: String) {
        let name = self.intern(name);
        self.push(th, HostOp::AnnotationBegin { name });
    }

    fn end_annotation(&mut self, th: Th) {
        self.push(th, HostOp::AnnotationEnd);
    }

    /// Emits one logical operator: CPU dispatch + compute-stream
    /// launch, or the full event-fenced collective pattern.
    fn emit_op(&mut self, th: Th, op: &OpDesc, fence_back: bool) {
        let name = self.intern(op.name.to_string());
        self.push(th, HostOp::CpuOp { name });
        match op.body {
            OpBody::Collective {
                op: coll,
                scope,
                bytes,
            } => {
                let (group, stream) = match scope {
                    CommScope::Tp => (self.tp_group, streams::TP_COMM),
                    CommScope::Dp => (self.dp_group, streams::DP_COMM),
                    // PP transfers are lowered by the schedule loop,
                    // not through per-layer op lists.
                    CommScope::PpPair { .. } | CommScope::Embedding => {
                        unreachable!("pp/embedding comms are emitted by the schedule loop")
                    }
                };
                let seq = match scope {
                    CommScope::Tp => {
                        let s = self.tp_seq;
                        self.tp_seq += 1;
                        s
                    }
                    _ => {
                        let s = self.dp_seq;
                        self.dp_seq += 1;
                        s
                    }
                };
                self.emit_collective(th, coll_kind(coll), group, seq, bytes, stream, fence_back);
            }
            body => {
                let class = kernel_of(&body);
                let name = self.intern(class.kernel_name());
                self.push(
                    th,
                    HostOp::Launch {
                        spec: KernelSpec {
                            name,
                            class,
                            stream: streams::COMPUTE,
                        },
                    },
                );
            }
        }
    }

    /// Emits an event-fenced collective: the comm stream waits for
    /// compute (producer fence); when `fence_back` is set, compute
    /// then waits for the collective (consumer fence — TP collectives
    /// need it, overlapped DP gradient reductions do not).
    #[allow(clippy::too_many_arguments)]
    fn emit_collective(
        &mut self,
        th: Th,
        kind: CollectiveKind,
        group: u64,
        seq: u32,
        bytes: u64,
        stream: StreamId,
        fence_back: bool,
    ) {
        let produce = self.fresh_event();
        self.push(
            th,
            HostOp::EventRecord {
                event: produce,
                stream: streams::COMPUTE,
            },
        );
        self.push(
            th,
            HostOp::StreamWait {
                stream,
                event: produce,
            },
        );
        let name = self.intern(kind.kernel_name().to_string());
        self.push(
            th,
            HostOp::Launch {
                spec: KernelSpec {
                    name,
                    class: KernelClass::Collective(CommMeta {
                        kind,
                        group,
                        seq,
                        bytes,
                    }),
                    stream,
                },
            },
        );
        if fence_back {
            let consume = self.fresh_event();
            self.push(
                th,
                HostOp::EventRecord {
                    event: consume,
                    stream,
                },
            );
            self.push(
                th,
                HostOp::StreamWait {
                    stream: streams::COMPUTE,
                    event: consume,
                },
            );
        }
    }

    /// Emits a pipeline transfer (one half of a send/recv rendezvous).
    /// For receives, compute is fenced behind arrival; for sends,
    /// the transfer stream is fenced behind compute.
    fn emit_pp_transfer(&mut self, group: u64, seq: u32, stream: StreamId, is_recv: bool) {
        let bytes = ops::pp_activation_bytes(&self.config.model, &self.config.batch);
        let cpu_name = self.intern(
            match (is_recv, stream == streams::PP_FWD) {
                (true, true) => "recv_forward",
                (false, true) => "send_forward",
                (true, false) => "recv_backward",
                (false, false) => "send_backward",
            }
            .to_string(),
        );
        self.push(Th::Main, HostOp::CpuOp { name: cpu_name });
        if !is_recv {
            let produce = self.fresh_event();
            self.push(
                Th::Main,
                HostOp::EventRecord {
                    event: produce,
                    stream: streams::COMPUTE,
                },
            );
            self.push(
                Th::Main,
                HostOp::StreamWait {
                    stream,
                    event: produce,
                },
            );
        }
        let name = self.intern(CollectiveKind::SendRecv.kernel_name().to_string());
        self.push(
            Th::Main,
            HostOp::Launch {
                spec: KernelSpec {
                    name,
                    class: KernelClass::Collective(CommMeta {
                        kind: CollectiveKind::SendRecv,
                        group,
                        seq,
                        bytes,
                    }),
                    stream,
                },
            },
        );
        if is_recv {
            let arrive = self.fresh_event();
            self.push(
                Th::Main,
                HostOp::EventRecord {
                    event: arrive,
                    stream,
                },
            );
            self.push(
                Th::Main,
                HostOp::StreamWait {
                    stream: streams::COMPUTE,
                    event: arrive,
                },
            );
        }
    }

    fn emit_iteration(&mut self, schedule: &PipelineSchedule) {
        let stage = self.coords.pp;
        let last_mb = self.config.batch.num_microbatches - 1;
        self.annotate(Th::Main, "iteration".to_string());

        let order: Vec<ScheduleItem> = schedule.stage(stage).expect("stage in range").to_vec();
        for item in order {
            match item {
                ScheduleItem::Forward { mb } => self.emit_forward(mb),
                ScheduleItem::Backward { mb } => self.emit_backward(mb, mb == last_mb),
                ScheduleItem::WeightGrad { mb } => self.emit_weight_grad(mb, mb == last_mb),
            }
        }
        self.emit_optimizer();
        self.end_annotation(Th::Main);
    }

    fn emit_forward(&mut self, mb: u32) {
        let model = &self.config.model;
        let batch = &self.config.batch;
        let par = self.par;
        let stage = self.coords.pp;
        self.annotate(Th::Main, format!("fwd mb={mb}"));

        if let Some(group) = self.fwd_in_group {
            self.emit_pp_transfer(group, 2 * mb, streams::PP_FWD, true);
        }
        if stage == 0 {
            self.annotate(Th::Main, format!("embed fwd mb={mb}"));
            for op in ops::embedding_forward_ops(model, batch) {
                self.emit_op(Th::Main, &op, true);
            }
            self.end_annotation(Th::Main);
        }
        let fwd_ops = ops::layer_forward_ops(model, par.tp, batch);
        for layer in par.stage_layers(model.num_layers, stage) {
            self.annotate(Th::Main, format!("layer={layer} fwd mb={mb}"));
            for op in &fwd_ops {
                self.emit_op(Th::Main, op, true);
            }
            self.end_annotation(Th::Main);
        }
        if stage == par.pp - 1 {
            self.annotate(Th::Main, format!("head fwd mb={mb}"));
            for op in ops::head_forward_ops(model, par.tp, batch) {
                self.emit_op(Th::Main, &op, true);
            }
            self.end_annotation(Th::Main);
        }
        if let Some(group) = self.fwd_out_group {
            self.emit_pp_transfer(group, 2 * mb, streams::PP_FWD, false);
        }
        self.end_annotation(Th::Main);
    }

    fn emit_backward(&mut self, mb: u32, is_last_mb: bool) {
        let model = self.config.model.clone();
        let batch = self.config.batch;
        let par = self.par;
        let stage = self.coords.pp;
        let start_token = 2 * mb;
        let done_token = 2 * mb + 1;

        // Main thread: receive the output gradient, hand off to the
        // autograd thread, wait for it, then send the input gradient.
        if let Some(group) = self.fwd_out_group {
            self.emit_pp_transfer(group, 2 * mb + 1, streams::PP_BWD, true);
        }
        self.push(Th::Main, HostOp::SignalPeer { token: start_token });
        self.push(Th::Main, HostOp::WaitPeer { token: done_token });
        if let Some(group) = self.fwd_in_group {
            self.emit_pp_transfer(group, 2 * mb + 1, streams::PP_BWD, false);
        }

        // Backward thread: the actual backward pass. Split-backward
        // schedules emit only the input-grad partition here (wgrad
        // GEMMs and the gradient reductions they feed move to the
        // micro-batch's WeightGrad item).
        let split = self.config.schedule.split_backward();
        self.push(Th::Bwd, HostOp::WaitPeer { token: start_token });
        self.annotate(Th::Bwd, format!("bwd mb={mb}"));
        if stage == par.pp - 1 {
            self.annotate(Th::Bwd, format!("head bwd mb={mb}"));
            for op in ops::head_backward_ops(&model, par.tp, &batch) {
                if split && is_wgrad(&op) {
                    continue;
                }
                self.emit_op(Th::Bwd, &op, true);
            }
            self.end_annotation(Th::Bwd);
        }
        let bwd_ops = ops::layer_backward_ops(&model, par.tp, &batch);
        let layer_grad_params = model.params_per_layer() / par.tp as u64;
        for layer in par.stage_layers(model.num_layers, stage).rev() {
            self.annotate(Th::Bwd, format!("layer={layer} bwd mb={mb}"));
            for op in &bwd_ops {
                if split && is_wgrad(op) {
                    continue;
                }
                self.emit_op(Th::Bwd, op, true);
            }
            self.end_annotation(Th::Bwd);
            if is_last_mb && par.dp > 1 && !split {
                // Overlapped gradient bucket: fenced producer-side
                // only, so it runs concurrently with earlier layers'
                // backward compute. Kept in its own annotation so
                // layer blocks stay pure compute + TP collectives.
                self.annotate(Th::Bwd, format!("dp_grads layer={layer} mb={mb}"));
                let op = dp_allreduce_op(layer_grad_params);
                self.emit_op(Th::Bwd, &op, false);
                self.end_annotation(Th::Bwd);
            }
        }
        if stage == 0 {
            self.annotate(Th::Bwd, format!("embed bwd mb={mb}"));
            for op in ops::embedding_backward_ops(&model, &batch) {
                self.emit_op(Th::Bwd, &op, true);
            }
            self.end_annotation(Th::Bwd);
            if is_last_mb && par.dp > 1 && !split {
                self.annotate(Th::Bwd, format!("dp_grads embed mb={mb}"));
                let emb_params = model.params_embedding() / par.tp as u64;
                let op = dp_allreduce_op(emb_params);
                self.emit_op(Th::Bwd, &op, false);
                self.end_annotation(Th::Bwd);
            }
        }
        self.end_annotation(Th::Bwd);
        self.push(Th::Bwd, HostOp::SignalPeer { token: done_token });
    }

    /// Weight-grad item of split-backward schedules: pure compute on
    /// the backward thread — no pipeline transfers — scheduled into
    /// the slots where the stage would otherwise idle waiting for the
    /// next output gradient to arrive. Each item is bracketed in the
    /// same main↔backward token handshake the backward items use
    /// (tokens offset by `2·M` to stay disjoint from theirs): both
    /// host threads feed the shared compute stream, and the handshake
    /// is what keeps their enqueue order — and the single GPU's
    /// execution — serial, exactly as in a real single-device stage.
    /// All data-parallel gradient reductions ride on the last
    /// micro-batch's item (every weight gradient is complete by then,
    /// and all members of a DP group share the same stage, so the
    /// collective order stays consistent across ranks).
    fn emit_weight_grad(&mut self, mb: u32, is_last_mb: bool) {
        let model = self.config.model.clone();
        let batch = self.config.batch;
        let par = self.par;
        let stage = self.coords.pp;
        let start_token = 2 * batch.num_microbatches + 2 * mb;
        let done_token = start_token + 1;
        self.push(Th::Main, HostOp::SignalPeer { token: start_token });
        self.push(Th::Main, HostOp::WaitPeer { token: done_token });
        self.push(Th::Bwd, HostOp::WaitPeer { token: start_token });
        self.annotate(Th::Bwd, format!("wgrad mb={mb}"));
        if stage == par.pp - 1 {
            self.annotate(Th::Bwd, format!("head wgrad mb={mb}"));
            for op in ops::head_backward_ops(&model, par.tp, &batch) {
                if is_wgrad(&op) {
                    self.emit_op(Th::Bwd, &op, true);
                }
            }
            self.end_annotation(Th::Bwd);
        }
        let bwd_ops = ops::layer_backward_ops(&model, par.tp, &batch);
        let layer_grad_params = model.params_per_layer() / par.tp as u64;
        for layer in par.stage_layers(model.num_layers, stage).rev() {
            self.annotate(Th::Bwd, format!("layer={layer} wgrad mb={mb}"));
            for op in &bwd_ops {
                if is_wgrad(op) {
                    self.emit_op(Th::Bwd, op, true);
                }
            }
            self.end_annotation(Th::Bwd);
            if is_last_mb && par.dp > 1 {
                self.annotate(Th::Bwd, format!("dp_grads layer={layer} mb={mb}"));
                let op = dp_allreduce_op(layer_grad_params);
                self.emit_op(Th::Bwd, &op, false);
                self.end_annotation(Th::Bwd);
            }
        }
        if stage == 0 && is_last_mb && par.dp > 1 {
            // Embedding gradients complete in the backward item, but
            // their reduction waits here with the other buckets.
            self.annotate(Th::Bwd, format!("dp_grads embed mb={mb}"));
            let emb_params = model.params_embedding() / par.tp as u64;
            let op = dp_allreduce_op(emb_params);
            self.emit_op(Th::Bwd, &op, false);
            self.end_annotation(Th::Bwd);
        }
        self.end_annotation(Th::Bwd);
        self.push(Th::Bwd, HostOp::SignalPeer { token: done_token });
    }

    fn emit_optimizer(&mut self) {
        let model = self.config.model.clone();
        let par = self.par;
        self.annotate(Th::Main, "optimizer".to_string());
        if par.dp > 1 {
            let name = self.intern("wait_all_grads".to_string());
            self.push(Th::Main, HostOp::CpuOp { name });
            self.push(
                Th::Main,
                HostOp::StreamSync {
                    stream: streams::DP_COMM,
                },
            );
        }
        // Tied-embedding gradient reduction between first and last
        // stage.
        if let Some(group) = self.emb_group {
            let bytes = model.params_embedding() / par.tp as u64 * ops::GRAD_BYTES;
            let name = self.intern("all_reduce_embedding_grads".to_string());
            self.push(Th::Main, HostOp::CpuOp { name });
            self.emit_collective(
                Th::Main,
                CollectiveKind::AllReduce,
                group,
                0,
                bytes,
                streams::DP_COMM,
                false,
            );
            self.push(
                Th::Main,
                HostOp::StreamSync {
                    stream: streams::DP_COMM,
                },
            );
        }
        let params = ops::local_params(&model, par.tp, par.pp, self.coords.pp);
        for op in ops::optimizer_ops(params) {
            self.emit_op(Th::Main, &op, true);
        }
        self.push(Th::Main, HostOp::DeviceSync);
        self.end_annotation(Th::Main);
    }
}

/// Whether an op belongs to the weight-grad partition of a split
/// backward (the `*_wgrad` GEMMs; everything else — dgrad GEMMs,
/// activation-function backwards, TP collectives — stays in the
/// input-grad partition).
fn is_wgrad(op: &OpDesc) -> bool {
    op.name.ends_with("_wgrad")
}

/// Builds the DP gradient-bucket all-reduce op for `params`
/// parameters.
fn dp_allreduce_op(params: u64) -> OpDesc {
    OpDesc {
        name: "nccl:all_reduce_dp_grads",
        body: OpBody::Collective {
            op: CollOp::AllReduce,
            scope: CommScope::Dp,
            bytes: params * ops::GRAD_BYTES,
        },
    }
}

fn coll_kind(op: CollOp) -> CollectiveKind {
    match op {
        CollOp::AllReduce => CollectiveKind::AllReduce,
        CollOp::AllGather => CollectiveKind::AllGather,
        CollOp::ReduceScatter => CollectiveKind::ReduceScatter,
        CollOp::Broadcast => CollectiveKind::Broadcast,
        CollOp::SendRecv => CollectiveKind::SendRecv,
    }
}

/// Maps a compute op body to its kernel class.
pub(crate) fn kernel_of(body: &OpBody) -> KernelClass {
    match *body {
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
        OpBody::Collective { .. } => unreachable!("collectives handled by emit_collective"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_model::{BatchConfig, ModelConfig, ScheduleKind};

    fn tiny_config(tp: u32, pp: u32, dp: u32) -> SimConfig {
        SimConfig {
            model: ModelConfig::tiny(),
            parallelism: Parallelism::new(tp, pp, dp).unwrap(),
            batch: BatchConfig {
                seq_len: 128,
                microbatch_size: 1,
                num_microbatches: 2 * pp,
            },
            schedule: ScheduleKind::OneFOneB,
        }
    }

    fn count_ops(job: &LoweredJob, pred: impl Fn(&HostOp) -> bool) -> usize {
        job.programs
            .iter()
            .flat_map(|p| p.threads.iter())
            .flat_map(|t| t.ops.iter())
            .filter(|op| pred(op))
            .count()
    }

    #[test]
    fn lower_produces_program_per_rank() {
        let job = lower(&tiny_config(2, 2, 2)).unwrap();
        assert_eq!(job.programs.len(), 8);
        for (i, p) in job.programs.iter().enumerate() {
            assert_eq!(p.rank, i as u32);
            assert!(!p.is_empty());
        }
    }

    #[test]
    fn single_gpu_has_no_collectives() {
        let job = lower(&tiny_config(1, 1, 1)).unwrap();
        let collectives = count_ops(&job, |op| {
            matches!(
                op,
                HostOp::Launch { spec } if matches!(spec.class, KernelClass::Collective(_))
            )
        });
        assert_eq!(collectives, 0);
        assert!(job.groups.len() <= 2); // tp/dp singleton groups may be registered
    }

    #[test]
    fn tp_introduces_fenced_allreduces() {
        let job = lower(&tiny_config(2, 1, 1)).unwrap();
        // 2 fwd + 2 bwd TP all-reduces per layer per microbatch.
        let model_layers = 2u32;
        let mb = 2u32;
        let expected = (2 + 2) * model_layers * mb;
        let found = count_ops(&job, |op| {
            matches!(
                op,
                HostOp::Launch { spec }
                    if matches!(spec.class, KernelClass::Collective(m) if m.kind == CollectiveKind::AllReduce)
                        && spec.stream == streams::TP_COMM
            )
        });
        assert_eq!(found, (expected * 2) as usize); // both tp ranks
    }

    #[test]
    fn dp_allreduces_only_on_last_microbatch() {
        let cfg = tiny_config(1, 1, 2);
        let job = lower(&cfg).unwrap();
        // Per rank: one DP AR per layer + one for embeddings
        // (stage 0 == last stage here).
        let per_rank = cfg.model.num_layers as usize + 1;
        let found = count_ops(&job, |op| {
            matches!(
                op,
                HostOp::Launch { spec } if spec.stream == streams::DP_COMM
                    && matches!(spec.class, KernelClass::Collective(m) if m.kind == CollectiveKind::AllReduce)
            )
        });
        assert_eq!(found, per_rank * 2);
    }

    #[test]
    fn pp_transfers_match_schedule() {
        let cfg = tiny_config(1, 2, 1);
        let job = lower(&cfg).unwrap();
        let mb = cfg.batch.num_microbatches as usize;
        // Each boundary moves mb activations + mb gradients; each
        // transfer has a send side and a recv side.
        let sendrecvs = count_ops(&job, |op| {
            matches!(
                op,
                HostOp::Launch { spec }
                    if matches!(spec.class, KernelClass::Collective(m) if m.kind == CollectiveKind::SendRecv)
            )
        });
        assert_eq!(sendrecvs, 2 * mb * 2);
    }

    #[test]
    fn send_recv_seqs_pair_up() {
        let cfg = tiny_config(1, 2, 1);
        let job = lower(&cfg).unwrap();
        // Collect (group, seq) keyed launch counts: every key must
        // appear exactly twice (one send side, one recv side).
        let mut counts: HashMap<(u64, u32), usize> = HashMap::new();
        for p in &job.programs {
            for t in &p.threads {
                for op in &t.ops {
                    if let HostOp::Launch { spec } = op {
                        if let KernelClass::Collective(m) = spec.class {
                            if m.kind == CollectiveKind::SendRecv {
                                *counts.entry((m.group, m.seq)).or_default() += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(!counts.is_empty());
        for ((g, s), c) in counts {
            assert_eq!(c, 2, "transfer group={g} seq={s} has {c} sides");
        }
    }

    #[test]
    fn collective_seqs_consistent_across_members() {
        // All members of each group must issue the same multiset of
        // (seq, bytes): rendezvous instances must match.
        let job = lower(&tiny_config(2, 2, 2)).unwrap();
        let mut per_group_rank: HashMap<u64, HashMap<u32, Vec<(u32, u64)>>> = HashMap::new();
        for p in &job.programs {
            for t in &p.threads {
                for op in &t.ops {
                    if let HostOp::Launch { spec } = op {
                        if let KernelClass::Collective(m) = spec.class {
                            per_group_rank
                                .entry(m.group)
                                .or_default()
                                .entry(p.rank)
                                .or_default()
                                .push((m.seq, m.bytes));
                        }
                    }
                }
            }
        }
        for (group, by_rank) in per_group_rank {
            let members = &job.groups[&group];
            assert_eq!(
                by_rank.len(),
                members.len(),
                "group {group}: not all members participate"
            );
            let mut reference: Option<Vec<(u32, u64)>> = None;
            for (_, mut seqs) in by_rank {
                seqs.sort_unstable();
                match &reference {
                    None => reference = Some(seqs),
                    Some(r) => assert_eq!(r, &seqs, "group {group} seq mismatch"),
                }
            }
        }
    }

    #[test]
    fn group_members_cover_axes() {
        let cfg = tiny_config(2, 2, 2);
        let job = lower(&cfg).unwrap();
        for members in job.groups.values() {
            assert!(!members.is_empty());
            assert!(members.len() <= 8);
            for &m in members {
                assert!(m < cfg.parallelism.world_size());
            }
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = tiny_config(1, 1, 1);
        cfg.parallelism = Parallelism::new(1, 3, 1).unwrap(); // 2 layers % 3 != 0
        assert!(lower(&cfg).is_err());
    }

    #[test]
    fn gpipe_lowering_works() {
        let mut cfg = tiny_config(1, 2, 1);
        cfg.schedule = ScheduleKind::GPipe;
        let job = lower(&cfg).unwrap();
        assert_eq!(job.programs.len(), 2);
    }
}
