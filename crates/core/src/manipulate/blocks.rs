//! Block extraction: carving a profiled trace into reusable per-layer
//! / per-micro-batch task blocks.
//!
//! Graph manipulation "groups the tasks by layers and partitions the
//! original layers and their underlying tasks into new stages" (§3.4).
//! A *block* is the unit that moves: all host events inside one
//! annotation range (e.g. `layer=7 bwd mb=3`) plus the GPU kernels
//! they launched, normalized to block-local time. Reassembly pastes
//! blocks into a new schedule, renumbering correlation ids, CUDA
//! events, and collective sequences.

use crate::error::CoreError;
use crate::segment::parse_annotation;
use crate::task::Phase;
use lumos_model::Parallelism;
use lumos_trace::{ClusterTrace, CudaRuntimeKind, Dur, EventKind, TraceEvent, Ts};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What a block contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockKind {
    /// One transformer layer.
    Layer(u32),
    /// The embedding block (first stage).
    Embed,
    /// The LM-head block (last stage).
    Head,
}

/// Identity of a block within the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockKey {
    /// Tensor-parallel rank of the source.
    pub tp: u32,
    /// Data-parallel rank of the source.
    pub dp: u32,
    /// Content kind.
    pub kind: BlockKind,
    /// Micro-batch index.
    pub mb: u32,
    /// Forward or backward.
    pub phase: Phase,
}

/// A movable group of trace events, in block-local time (the source
/// annotation's start is time zero).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Host events and their launched kernels, times block-local.
    pub events: Vec<TraceEvent>,
    /// Length of the block on its host thread.
    pub host_span: Dur,
}

impl Block {
    /// The block's work-launching runtime calls in host order — the
    /// order reassembly pairs them with regenerated op lists. Shared
    /// (rather than re-derived) by every consumer that must stay in
    /// lockstep with that pairing, e.g. search's stage-cost memo.
    pub fn launches_in_host_order(&self) -> Vec<&TraceEvent> {
        self.launch_indices()
            .into_iter()
            .map(|i| &self.events[i])
            .collect()
    }

    /// [`Block::launches_in_host_order`] as indices into
    /// [`Block::events`].
    pub(crate) fn launch_indices(&self) -> Vec<usize> {
        let mut launches: Vec<usize> = (0..self.events.len())
            .filter(|&i| {
                matches!(
                    self.events[i].kind,
                    EventKind::CudaRuntime { kind, .. } if kind.launches_work()
                )
            })
            .collect();
        launches.sort_by_key(|&i| self.events[i].ts);
        launches
    }

    /// The block's GPU kernel events keyed by correlation id (how a
    /// launch finds the kernel it dispatched).
    pub fn kernels_by_correlation(&self) -> HashMap<u64, &TraceEvent> {
        self.kernel_indices_by_correlation()
            .into_iter()
            .map(|(corr, i)| (corr, &self.events[i]))
            .collect()
    }

    /// [`Block::kernels_by_correlation`] as indices into
    /// [`Block::events`].
    pub(crate) fn kernel_indices_by_correlation(&self) -> HashMap<u64, usize> {
        self.events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.kind {
                EventKind::Kernel { correlation, .. } => Some((correlation, i)),
                _ => None,
            })
            .collect()
    }
}

/// Mean host-side call durations fitted from the source trace, used
/// when reassembly synthesizes glue (transfers, gradient buckets,
/// optimizer scaffolding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostProfile {
    /// Mean CPU operator duration.
    pub cpu_op: Dur,
    /// Mean `cudaLaunchKernel` duration.
    pub launch: Dur,
    /// Mean event record/wait call duration.
    pub event_call: Dur,
}

impl Default for HostProfile {
    fn default() -> Self {
        HostProfile {
            cpu_op: Dur::from_us(6),
            launch: Dur::from_us(4),
            event_call: Dur::from_us(1),
        }
    }
}

/// All blocks extracted from a profiled trace.
///
/// Serializable so a calibration artifact can persist the extraction
/// result and later consumers can reassemble what-if configurations
/// without re-walking the source trace. Serialization is deterministic
/// (map entries are emitted in sorted key order), so the same library
/// always writes the same text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockLibrary {
    blocks: HashMap<BlockKey, Block>,
    /// Fitted host-call durations.
    pub host: HostProfile,
}

impl BlockLibrary {
    /// Extracts blocks from every rank of `trace`, using `par` to map
    /// ranks to (tp, stage, dp) coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MissingAnnotations`] when the trace has no
    /// layer annotations at all (e.g. profiled without range markers).
    pub fn extract(trace: &ClusterTrace, par: Parallelism) -> Result<Self, CoreError> {
        let mut blocks = HashMap::new();
        let mut prof = ProfileAcc::default();
        for rank_trace in trace.ranks() {
            let coords = par.coords(rank_trace.rank().0);
            extract_rank(rank_trace, coords.tp, coords.dp, &mut blocks, &mut prof);
        }
        if !blocks.keys().any(|k| matches!(k.kind, BlockKind::Layer(_))) {
            return Err(CoreError::MissingAnnotations {
                needed: "layer=<n> fwd/bwd mb=<k> annotation ranges".to_string(),
            });
        }
        Ok(BlockLibrary {
            blocks,
            host: prof.finish(),
        })
    }

    /// Looks up a block.
    pub fn get(&self, key: &BlockKey) -> Option<&Block> {
        self.blocks.get(key)
    }

    /// Iterates over every `(key, block)` pair (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&BlockKey, &Block)> {
        self.blocks.iter()
    }

    /// Number of extracted blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` when no blocks were extracted.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The distinct source micro-batch indices available for layer
    /// blocks.
    pub fn microbatches(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .blocks
            .keys()
            .filter(|k| matches!(k.kind, BlockKind::Layer(_)))
            .map(|k| k.mb)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[derive(Default)]
struct ProfileAcc {
    cpu: (u128, u64),
    launch: (u128, u64),
    event: (u128, u64),
}

impl ProfileAcc {
    fn finish(self) -> HostProfile {
        let mean = |(total, n): (u128, u64), default: Dur| {
            if n == 0 {
                default
            } else {
                Dur((total / n as u128) as u64)
            }
        };
        let d = HostProfile::default();
        HostProfile {
            cpu_op: mean(self.cpu, d.cpu_op),
            launch: mean(self.launch, d.launch),
            event_call: mean(self.event, d.event_call),
        }
    }
}

fn extract_rank(
    trace: &lumos_trace::RankTrace,
    tp: u32,
    dp: u32,
    blocks: &mut HashMap<BlockKey, Block>,
    prof: &mut ProfileAcc,
) {
    // Host-profile accumulation.
    for e in trace.events() {
        match e.kind {
            EventKind::CpuOp { .. } => {
                prof.cpu.0 += e.dur.as_ns() as u128;
                prof.cpu.1 += 1;
            }
            EventKind::CudaRuntime { kind, .. } if kind.launches_work() => {
                prof.launch.0 += e.dur.as_ns() as u128;
                prof.launch.1 += 1;
            }
            EventKind::CudaRuntime {
                kind: CudaRuntimeKind::EventRecord { .. } | CudaRuntimeKind::StreamWaitEvent { .. },
                ..
            } => {
                prof.event.0 += e.dur.as_ns() as u128;
                prof.event.1 += 1;
            }
            _ => {}
        }
    }

    // Correlation -> kernel event index.
    let mut kernel_by_corr: HashMap<u64, usize> = HashMap::new();
    for (i, e) in trace.events().iter().enumerate() {
        if let EventKind::Kernel { correlation, .. } = e.kind {
            kernel_by_corr.insert(correlation, i);
        }
    }

    for ann in trace.annotations() {
        let tag = parse_annotation(&ann.name);
        let kind = if let Some(layer) = tag.layer {
            BlockKind::Layer(layer)
        } else if tag.embed {
            BlockKind::Embed
        } else if tag.head {
            BlockKind::Head
        } else {
            continue;
        };
        let (Some(mb), Some(phase)) = (tag.mb, tag.phase) else {
            continue;
        };
        // dp_grads / optimizer ranges are re-synthesized, not moved.
        if !matches!(phase, Phase::Forward | Phase::Backward) {
            continue;
        }
        let Some(tid) = ann.kind.tid() else { continue };
        let span = ann.span();
        let t0 = ann.ts;

        let mut events = Vec::new();
        for e in trace.events() {
            let same_thread = e.kind.tid() == Some(tid);
            let contained = e.ts >= span.start && e.end() <= span.end;
            let is_ann = matches!(e.kind, EventKind::UserAnnotation { .. });
            if !(same_thread && contained && !is_ann) {
                continue;
            }
            let mut shifted = e.clone();
            shifted.ts = Ts(e.ts.0 - t0.0);
            events.push(shifted);
            // Pull the launched kernel along.
            if let EventKind::CudaRuntime {
                kind, correlation, ..
            } = e.kind
            {
                if kind.launches_work() {
                    if let Some(&ki) = kernel_by_corr.get(&correlation) {
                        let k = &trace.events()[ki];
                        let mut shifted = k.clone();
                        shifted.ts = Ts(k.ts.0.saturating_sub(t0.0));
                        events.push(shifted);
                    }
                }
            }
        }
        events.sort_by_key(|e| e.ts);
        blocks.insert(
            BlockKey {
                tp,
                dp,
                kind,
                mb,
                phase,
            },
            Block {
                events,
                host_span: span.duration(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_trace::{RankTrace, StreamId, ThreadId};

    fn annotated_trace() -> ClusterTrace {
        let tid = ThreadId(1);
        let mut r = RankTrace::new(0);
        let us = Ts::from_us;
        r.push(TraceEvent::annotation(
            "iteration",
            us(0),
            Dur::from_us(1000),
            tid,
        ));
        r.push(TraceEvent::annotation(
            "fwd mb=0",
            us(0),
            Dur::from_us(400),
            tid,
        ));
        r.push(TraceEvent::annotation(
            "layer=0 fwd mb=0",
            us(10),
            Dur::from_us(100),
            tid,
        ));
        r.push(TraceEvent::cpu_op("aten::mm", us(12), Dur::from_us(6), tid));
        r.push(
            TraceEvent::cuda_runtime(CudaRuntimeKind::LaunchKernel, us(18), Dur::from_us(4), tid)
                .with_correlation(1),
        );
        r.push(
            TraceEvent::kernel("gemm", us(40), Dur::from_us(60), StreamId(7)).with_correlation(1),
        );
        // dp_grads range must be skipped.
        r.push(TraceEvent::annotation(
            "dp_grads layer=0 mb=0",
            us(120),
            Dur::from_us(30),
            tid,
        ));
        r.push(TraceEvent::cpu_op(
            "nccl:all_reduce_dp_grads",
            us(121),
            Dur::from_us(6),
            tid,
        ));
        let mut c = ClusterTrace::new("annotated");
        c.push_rank(r);
        c
    }

    #[test]
    fn extracts_layer_block_with_kernel() {
        let lib =
            BlockLibrary::extract(&annotated_trace(), Parallelism::new(1, 1, 1).unwrap()).unwrap();
        let key = BlockKey {
            tp: 0,
            dp: 0,
            kind: BlockKind::Layer(0),
            mb: 0,
            phase: Phase::Forward,
        };
        let block = lib.get(&key).expect("layer block extracted");
        assert_eq!(block.events.len(), 3); // op + launch + kernel
        assert_eq!(block.events.iter().filter(|e| e.is_gpu()).count(), 1);
        assert_eq!(block.host_span, Dur::from_us(100));
        // Block-local time: first host event at 2us (12 - 10).
        assert_eq!(block.events[0].ts, Ts::from_us(2));
        assert_eq!(lib.microbatches(), vec![0]);
    }

    #[test]
    fn dp_grads_ranges_not_extracted() {
        let lib =
            BlockLibrary::extract(&annotated_trace(), Parallelism::new(1, 1, 1).unwrap()).unwrap();
        assert_eq!(lib.len(), 1); // only the layer block
    }

    #[test]
    fn host_profile_fitted_from_trace() {
        let lib =
            BlockLibrary::extract(&annotated_trace(), Parallelism::new(1, 1, 1).unwrap()).unwrap();
        assert_eq!(lib.host.cpu_op, Dur::from_us(6));
        assert_eq!(lib.host.launch, Dur::from_us(4));
        // No record/wait events in the trace: default used.
        assert_eq!(lib.host.event_call, HostProfile::default().event_call);
    }

    #[test]
    fn library_round_trips_byte_for_byte() {
        let lib =
            BlockLibrary::extract(&annotated_trace(), Parallelism::new(1, 1, 1).unwrap()).unwrap();
        let json = serde_json::to_string(&lib).expect("library serializes");
        let back: BlockLibrary = serde_json::from_str(&json).expect("library parses");
        assert_eq!(back, lib);
        // Deterministic encoding: re-serializing reproduces the bytes.
        assert_eq!(serde_json::to_string(&back).expect("reserialize"), json);
    }

    #[test]
    fn unannotated_trace_is_an_error() {
        let mut r = RankTrace::new(0);
        r.push(TraceEvent::cpu_op("op", Ts(0), Dur(1000), ThreadId(1)));
        let mut c = ClusterTrace::new("bare");
        c.push_rank(r);
        let err = BlockLibrary::extract(&c, Parallelism::new(1, 1, 1).unwrap()).unwrap_err();
        assert!(matches!(err, CoreError::MissingAnnotations { .. }));
    }
}
