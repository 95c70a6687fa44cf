//! Lowering for inference (serving) workloads: prefill + decode.
//!
//! Produces the instruction stream a tensor-parallel inference engine
//! executes for one request batch: a prefill pass over the prompt,
//! then `decode_tokens` autoregressive steps. Every decode step ends
//! with a `cudaStreamSynchronize` — the engine must read the sampled
//! token back before it can launch the next step — which exercises the
//! GPU→CPU dependency class (§3.3.2) far more heavily than training
//! does. TP collectives use the same event-fenced two-stream pattern
//! as training, so the inter-stream dependency machinery is exercised
//! identically.

use crate::lower::{kernel_of, LoweredJob, NameCache, SimConfig};
use crate::program::{HostOp, KernelSpec, NameId, Program};
use lumos_model::inference::{layer_decode_ops, layer_prefill_ops, sampling_ops, InferenceSetup};
use lumos_model::ops::{CollOp, OpBody, OpDesc};
use lumos_model::{BatchConfig, CommScope, GroupRegistry, ModelError, ScheduleKind};
use lumos_trace::{streams, CollectiveKind, CommMeta, KernelClass};
use std::collections::HashMap;

/// Lowers an inference setup into per-rank programs (one rank per
/// tensor-parallel shard).
///
/// # Errors
///
/// Returns configuration-validity errors (zero dims, indivisible
/// heads/layers).
pub fn lower_inference(setup: &InferenceSetup) -> Result<LoweredJob, ModelError> {
    setup.validate()?;
    let par = setup.parallelism();
    let registry = GroupRegistry::new(par);
    let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();

    let mut programs = Vec::with_capacity(par.world_size() as usize);
    for rank in par.all_ranks() {
        let coords = par.coords(rank);
        let tp_group = registry.group_id(CommScope::Tp, coords);
        groups
            .entry(tp_group)
            .or_insert_with(|| registry.members(CommScope::Tp, coords));

        let mut lowerer = InferenceLowerer {
            setup,
            tp_group,
            program: Program::new(rank),
            next_event: 0,
            tp_seq: 0,
            names: NameCache::default(),
        };
        lowerer.emit_request();
        let program = lowerer.program;
        program
            .well_formed()
            .expect("inference lowering must produce well-formed programs");
        programs.push(program);
    }

    // The engine only needs a label-producing config; describe the
    // serving job in training-config vocabulary.
    let config = SimConfig {
        model: {
            let mut m = setup.model.clone();
            m.name = setup.label();
            m
        },
        parallelism: par,
        batch: BatchConfig {
            seq_len: setup.prompt_len,
            microbatch_size: setup.batch_size,
            num_microbatches: 1,
        },
        schedule: ScheduleKind::OneFOneB,
    };
    Ok(LoweredJob {
        programs,
        groups,
        config,
    })
}

struct InferenceLowerer<'a> {
    setup: &'a InferenceSetup,
    tp_group: u64,
    program: Program,
    next_event: u32,
    tp_seq: u32,
    names: NameCache,
}

impl InferenceLowerer<'_> {
    fn intern(&mut self, s: String) -> NameId {
        self.names.intern(&mut self.program, s)
    }

    fn push(&mut self, op: HostOp) {
        self.program.main_mut().push(op);
    }

    fn annotate(&mut self, name: String) {
        let name = self.intern(name);
        self.push(HostOp::AnnotationBegin { name });
    }

    fn end_annotation(&mut self) {
        self.push(HostOp::AnnotationEnd);
    }

    fn fresh_event(&mut self) -> u32 {
        let e = self.next_event;
        self.next_event += 1;
        e
    }

    /// Emits one operator: CPU dispatch plus either a compute-stream
    /// launch or a fully fenced TP collective.
    fn emit_op(&mut self, op: &OpDesc) {
        let name = self.intern(op.name.to_string());
        self.push(HostOp::CpuOp { name });
        match op.body {
            OpBody::Collective {
                op: CollOp::AllReduce,
                scope: CommScope::Tp,
                bytes,
            } => {
                let produce = self.fresh_event();
                self.push(HostOp::EventRecord {
                    event: produce,
                    stream: streams::COMPUTE,
                });
                self.push(HostOp::StreamWait {
                    stream: streams::TP_COMM,
                    event: produce,
                });
                let name = self.intern(CollectiveKind::AllReduce.kernel_name().to_string());
                let seq = self.tp_seq;
                self.tp_seq += 1;
                self.push(HostOp::Launch {
                    spec: KernelSpec {
                        name,
                        class: KernelClass::Collective(CommMeta {
                            kind: CollectiveKind::AllReduce,
                            group: self.tp_group,
                            seq,
                            bytes,
                        }),
                        stream: streams::TP_COMM,
                    },
                });
                let consume = self.fresh_event();
                self.push(HostOp::EventRecord {
                    event: consume,
                    stream: streams::TP_COMM,
                });
                self.push(HostOp::StreamWait {
                    stream: streams::COMPUTE,
                    event: consume,
                });
            }
            OpBody::Collective { .. } => {
                unreachable!("inference lowers only TP all-reduces")
            }
            ref body => {
                let class = kernel_of(body);
                let name = self.intern(class.kernel_name());
                self.push(HostOp::Launch {
                    spec: KernelSpec {
                        name,
                        class,
                        stream: streams::COMPUTE,
                    },
                });
            }
        }
    }

    fn emit_layers(&mut self, phase: &str, step: Option<u32>, ops: &[OpDesc]) {
        for layer in 0..self.setup.model.num_layers {
            match step {
                Some(s) => self.annotate(format!("layer={layer} {phase} step={s}")),
                None => self.annotate(format!("layer={layer} {phase}")),
            }
            for op in ops {
                self.emit_op(op);
            }
            self.end_annotation();
        }
    }

    /// One sampled token: head ops, a tiny vocab-parallel exchange
    /// when sharded, then the blocking read-back.
    fn emit_sample(&mut self, step: u32) {
        self.annotate(format!("sample step={step}"));
        for op in sampling_ops(self.setup) {
            self.emit_op(&op);
        }
        if self.setup.tp > 1 {
            // Vocab-parallel softmax exchanges per-shard max/sum.
            let op = OpDesc {
                name: "nccl:all_reduce_sample_stats",
                body: OpBody::Collective {
                    op: CollOp::AllReduce,
                    scope: CommScope::Tp,
                    bytes: self.setup.batch_size * 8,
                },
            };
            self.emit_op(&op);
        }
        let name = self.intern("read_sampled_token".to_string());
        self.push(HostOp::CpuOp { name });
        self.push(HostOp::StreamSync {
            stream: streams::COMPUTE,
        });
        self.end_annotation();
    }

    fn emit_request(&mut self) {
        self.annotate("inference".to_string());

        self.annotate("prefill".to_string());
        let prefill = layer_prefill_ops(self.setup);
        self.emit_layers("prefill", None, &prefill);
        self.end_annotation();
        self.emit_sample(0);

        for step in 1..=self.setup.decode_tokens {
            self.annotate(format!("decode step={step}"));
            let kv_len = self.setup.prompt_len + step as u64;
            let ops = layer_decode_ops(self.setup, kv_len);
            self.emit_layers("decode", Some(step), &ops);
            self.end_annotation();
            self.emit_sample(step);
        }

        self.end_annotation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::PreparedJob;
    use crate::jitter::JitterModel;
    use lumos_cost::{AnalyticalCostModel, HostOverheads};
    use lumos_model::ModelConfig;

    fn tiny_setup(tp: u32) -> InferenceSetup {
        InferenceSetup {
            model: ModelConfig::tiny(),
            tp,
            batch_size: 2,
            prompt_len: 64,
            decode_tokens: 4,
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
    fn one_program_per_tp_shard() {
        let job = lower_inference(&tiny_setup(2)).unwrap();
        assert_eq!(job.programs.len(), 2);
        assert_eq!(job.groups.len(), 1);
        assert_eq!(job.groups.values().next().unwrap(), &vec![0, 1]);
    }

    #[test]
    fn every_step_ends_with_stream_sync() {
        let setup = tiny_setup(1);
        let job = lower_inference(&setup).unwrap();
        let syncs = count_ops(&job, |op| matches!(op, HostOp::StreamSync { .. }));
        // One per sample: prefill + decode_tokens.
        assert_eq!(syncs, 1 + setup.decode_tokens as usize);
    }

    #[test]
    fn decode_kv_lengths_grow() {
        let setup = tiny_setup(1);
        let job = lower_inference(&setup).unwrap();
        let mut kv_lens = Vec::new();
        for t in &job.programs[0].threads {
            for op in &t.ops {
                if let HostOp::Launch { spec } = op {
                    if let KernelClass::AttentionDecode { kv_len, .. } = spec.class {
                        kv_lens.push(kv_len);
                    }
                }
            }
        }
        // num_layers launches per step; lengths strictly grow per step.
        let layers = setup.model.num_layers as usize;
        assert_eq!(kv_lens.len(), layers * setup.decode_tokens as usize);
        assert_eq!(kv_lens[0], setup.prompt_len + 1);
        assert_eq!(*kv_lens.last().unwrap(), setup.prompt_len + 4);
        assert!(kv_lens.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tp_collective_seqs_match_across_shards() {
        let job = lower_inference(&tiny_setup(2)).unwrap();
        let seqs = |rank: usize| -> Vec<(u32, u64)> {
            let mut v = Vec::new();
            for t in &job.programs[rank].threads {
                for op in &t.ops {
                    if let HostOp::Launch { spec } = op {
                        if let KernelClass::Collective(m) = spec.class {
                            v.push((m.seq, m.bytes));
                        }
                    }
                }
            }
            v
        };
        assert_eq!(seqs(0), seqs(1));
        assert!(!seqs(0).is_empty());
    }

    #[test]
    fn executes_end_to_end_through_engine() {
        let setup = tiny_setup(2);
        let job = lower_inference(&setup).unwrap();
        let out = PreparedJob::new(&job)
            .unwrap()
            .execute(
                &AnalyticalCostModel::h100(),
                &HostOverheads::default(),
                &JitterModel::none(),
                0,
            )
            .unwrap();
        assert!(out.makespan > lumos_trace::Dur::ZERO);
        out.trace.validate().unwrap();
        assert_eq!(out.trace.world_size(), 2);
        // Deterministic without jitter.
        let out2 = PreparedJob::new(&job)
            .unwrap()
            .execute(
                &AnalyticalCostModel::h100(),
                &HostOverheads::default(),
                &JitterModel::none(),
                0,
            )
            .unwrap();
        assert_eq!(out.makespan, out2.makespan);
    }

    #[test]
    fn label_flows_into_trace() {
        let setup = tiny_setup(1);
        let job = lower_inference(&setup).unwrap();
        assert!(job.config.label().contains("serve"));
    }

    #[test]
    fn invalid_setup_rejected() {
        let mut s = tiny_setup(1);
        s.prompt_len = 0;
        assert!(lower_inference(&s).is_err());
    }
}
