//! Graph manipulation (§3.4): generating execution graphs for *new*
//! configurations out of an existing profiled trace.
//!
//! The paper's interface lets users "specify new model
//! configurations, after which it manipulates the existing execution
//! graph to generate a new one reflecting the changes". Supported
//! changes mirror the paper's evaluation:
//!
//! * [`Transform::DataParallel`] — Figure 7a: scale the data-parallel
//!   degree; only communication costs change;
//! * [`Transform::PipelineParallel`] — Figure 7b: re-partition layers
//!   into stages under a regenerated 1F1B schedule;
//! * [`Transform::NumLayers`] — Figure 8 (V1/V2): duplicate or drop
//!   transformer layers;
//! * [`Transform::HiddenSize`] — Figure 8 (V3/V4): change model width,
//!   re-pricing shape-sensitive kernels;
//! * [`Transform::Microbatches`] — change the per-iteration
//!   micro-batch count;
//! * [`Transform::TensorParallel`] — the paper's stated future work:
//!   rescale the TP degree (`tp > 1 → tp' > 1`), re-pricing every
//!   sharded kernel and re-grouping TP collectives;
//! * [`Transform::SeqLen`] — change the training sequence length,
//!   re-pricing attention quadratically;
//! * [`whatif`] — operator-level studies (e.g. "what if GEMMs ran 2×
//!   faster?", §5).
//!
//! TP changes that alter the collective *structure* (`tp = 1 ↔ tp >
//! 1`) are rejected: they would require inserting or deleting
//! all-reduces inside recorded blocks, which a trace-driven method
//! cannot do faithfully (the paper rejects all TP changes for this
//! reason; we lift the restriction only where structure is preserved).

mod blocks;
mod reassemble;
pub mod whatif;

pub use blocks::{Block, BlockKey, BlockKind, BlockLibrary, HostProfile};
pub use reassemble::{
    kernel_class_of_op, reassemble_with_library, regenerated_block_ops, ReassembleSpec,
};

use crate::error::CoreError;
use crate::replay::{Lumos, Replayed};
use lumos_cost::{CostModel, LookupCostModel};
use lumos_model::{Parallelism, TrainingSetup};
use lumos_trace::ClusterTrace;

/// One configuration change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// Set the data-parallel degree.
    DataParallel {
        /// New DP degree.
        dp: u32,
    },
    /// Set the pipeline-parallel degree (micro-batch count is kept).
    PipelineParallel {
        /// New PP degree.
        pp: u32,
    },
    /// Set the tensor-parallel degree — the paper's stated future work
    /// (§3.4). Supported for rescales that preserve the collective
    /// structure (`tp > 1 → tp' > 1`): every TP-sharded kernel is
    /// re-priced at its new shard shape and TP collectives are
    /// re-grouped and re-priced at the new membership.
    TensorParallel {
        /// New TP degree.
        tp: u32,
    },
    /// Set the transformer layer count.
    NumLayers {
        /// New layer count.
        layers: u32,
    },
    /// Set the hidden and feed-forward sizes.
    HiddenSize {
        /// New `d_model`.
        hidden: u64,
        /// New `d_ffn`.
        ffn: u64,
    },
    /// Set the number of micro-batches per iteration.
    Microbatches {
        /// New micro-batch count.
        num: u32,
    },
    /// Set the sequence length. Attention kernels are re-priced at
    /// their quadratic new shapes; GEMM/pointwise kernels and
    /// communication payloads scale linearly.
    SeqLen {
        /// New sequence length in tokens.
        seq_len: u64,
    },
}

/// Applies transforms to a setup, producing the target setup.
///
/// # Errors
///
/// Returns [`CoreError::InvalidTransform`] for zero degrees and
/// propagates validity errors of the resulting setup.
pub fn apply_transforms(
    setup: &TrainingSetup,
    transforms: &[Transform],
) -> Result<TrainingSetup, CoreError> {
    let mut new = setup.clone();
    for t in transforms {
        match *t {
            Transform::DataParallel { dp } => {
                new.parallelism = Parallelism::new(new.parallelism.tp, new.parallelism.pp, dp)?;
            }
            Transform::PipelineParallel { pp } => {
                new.parallelism = Parallelism::new(new.parallelism.tp, pp, new.parallelism.dp)?;
            }
            Transform::TensorParallel { tp } => {
                new.parallelism = Parallelism::new(tp, new.parallelism.pp, new.parallelism.dp)?;
            }
            Transform::NumLayers { layers } => {
                if layers == 0 {
                    return Err(CoreError::InvalidTransform {
                        reason: "layer count must be positive".to_string(),
                    });
                }
                new.model.num_layers = layers;
                new.model.name = format!("{} ({layers}L)", setup.model.name);
            }
            Transform::HiddenSize { hidden, ffn } => {
                if hidden == 0 || ffn == 0 {
                    return Err(CoreError::InvalidTransform {
                        reason: "hidden/ffn sizes must be positive".to_string(),
                    });
                }
                new.model.hidden_size = hidden;
                new.model.ffn_size = ffn;
                new.model.name = format!("{} (d={hidden})", setup.model.name);
            }
            Transform::Microbatches { num } => {
                if num == 0 {
                    return Err(CoreError::InvalidTransform {
                        reason: "micro-batch count must be positive".to_string(),
                    });
                }
                new.batch.num_microbatches = num;
            }
            Transform::SeqLen { seq_len } => {
                if seq_len == 0 {
                    return Err(CoreError::InvalidTransform {
                        reason: "sequence length must be positive".to_string(),
                    });
                }
                new.batch.seq_len = seq_len;
            }
        }
    }
    new.validate()?;
    Ok(new)
}

/// The proportional old → new layer map reassembly uses: new layer
/// `layer` of `new_layers` sources its blocks from old layer
/// `(layer·old_layers)/new_layers`. Public so cost consumers (e.g. the
/// search engine's lower bound) map layers exactly the way reassembly
/// does.
pub fn source_layer(old_layers: u32, new_layers: u32, layer: u32) -> u32 {
    ((layer as u64 * old_layers as u64) / new_layers as u64) as u32
}

/// Builds the reassembly plan for an old → new setup pair.
pub fn plan(old: &TrainingSetup, new: &TrainingSetup) -> ReassembleSpec {
    ReassembleSpec {
        old: old.clone(),
        new: new.clone(),
    }
}

/// A completed prediction for a new configuration.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The target configuration.
    pub setup: TrainingSetup,
    /// Its replay: the reassembled graph and its simulated schedule.
    /// [`Replayed::trace`] materializes the simulated timeline on
    /// demand.
    pub replayed: Replayed,
}

impl Prediction {
    /// Predicted iteration time.
    pub fn makespan(&self) -> lumos_trace::Dur {
        self.replayed.makespan()
    }
}

impl Lumos {
    /// Predicts performance under `transforms` applied to the
    /// deployment that produced `trace` (§3.4 + §3.5).
    ///
    /// `fallback` prices kernels absent from the source trace (the
    /// paper's in-house fleet model); recorded shapes reuse recorded
    /// durations through a [`LookupCostModel`] fitted on the fly.
    ///
    /// # Errors
    ///
    /// Returns transform-validation, extraction, and simulation
    /// failures.
    pub fn predict<C: CostModel>(
        &self,
        trace: &ClusterTrace,
        setup: &TrainingSetup,
        transforms: &[Transform],
        fallback: C,
    ) -> Result<Prediction, CoreError> {
        let new_setup = apply_transforms(setup, transforms)?;
        let spec = plan(setup, &new_setup);
        let gpus_per_node = 8;
        let lookup = LookupCostModel::fit_from_trace(trace, fallback, gpus_per_node);
        // Validate before paying the extraction walk, so invalid specs
        // report spec errors first.
        spec.validate()?;
        let library = BlockLibrary::extract(trace, spec.old.parallelism)?;
        Ok(Prediction {
            replayed: self.predict_spec(&library, &spec, &lookup)?,
            setup: new_setup,
        })
    }

    /// [`Lumos::predict`] against a pre-extracted [`BlockLibrary`] and
    /// a prebuilt cost model — the calibrate-once path: when the
    /// library and cost model were fitted from a trace (e.g. loaded
    /// from a calibration artifact), the prediction is bit-identical
    /// to [`Lumos::predict`] on that trace, without re-ingesting it.
    ///
    /// # Errors
    ///
    /// Returns transform-validation, reassembly, and simulation
    /// failures.
    pub fn predict_with_library<C: CostModel>(
        &self,
        library: &BlockLibrary,
        setup: &TrainingSetup,
        transforms: &[Transform],
        cost: &C,
    ) -> Result<Prediction, CoreError> {
        let new_setup = apply_transforms(setup, transforms)?;
        let spec = plan(setup, &new_setup);
        Ok(Prediction {
            replayed: self.predict_spec(library, &spec, cost)?,
            setup: new_setup,
        })
    }

    /// The estimate path every prediction takes: reassembles `spec`
    /// from `library`'s blocks straight into an execution graph
    /// (§3.4) and replays it (§3.5). No trace is built on the way in
    /// or out; the graph equals [`crate::build_graph`] of
    /// [`reassemble_with_library`]'s trace under this toolkit's build
    /// options.
    ///
    /// # Errors
    ///
    /// Returns spec-validation, reassembly, and simulation failures.
    pub fn predict_spec<C: CostModel>(
        &self,
        library: &BlockLibrary,
        spec: &ReassembleSpec,
        cost: &C,
    ) -> Result<Replayed, CoreError> {
        let graph = reassemble::reassemble_graph(library, spec, cost, &self.build)?;
        self.replay_graph(graph, &reassemble::predicted_label(&spec.new))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_model::{BatchConfig, ModelConfig, ScheduleKind};

    fn setup() -> TrainingSetup {
        TrainingSetup {
            model: ModelConfig::tiny(),
            parallelism: Parallelism::new(1, 2, 2).unwrap(),
            batch: BatchConfig {
                seq_len: 128,
                microbatch_size: 1,
                num_microbatches: 4,
            },
            schedule: ScheduleKind::OneFOneB,
        }
    }

    #[test]
    fn transforms_compose() {
        let new = apply_transforms(
            &setup(),
            &[
                Transform::DataParallel { dp: 4 },
                Transform::Microbatches { num: 8 },
            ],
        )
        .unwrap();
        assert_eq!(new.parallelism.dp, 4);
        assert_eq!(new.batch.num_microbatches, 8);
        assert_eq!(new.parallelism.pp, 2);
    }

    #[test]
    fn layer_transform_renames_model() {
        let new = apply_transforms(&setup(), &[Transform::NumLayers { layers: 4 }]).unwrap();
        assert_eq!(new.model.num_layers, 4);
        assert!(new.model.name.contains("4L"));
    }

    #[test]
    fn invalid_transforms_rejected() {
        assert!(apply_transforms(&setup(), &[Transform::NumLayers { layers: 0 }]).is_err());
        assert!(apply_transforms(&setup(), &[Transform::Microbatches { num: 0 }]).is_err());
        // 3 stages cannot divide 2 layers.
        assert!(apply_transforms(&setup(), &[Transform::PipelineParallel { pp: 3 }]).is_err());
    }

    #[test]
    fn plan_maps_layers_proportionally() {
        let old = setup();
        let new = apply_transforms(&old, &[Transform::NumLayers { layers: 4 }]).unwrap();
        let spec = plan(&old, &new);
        // 2 source layers spread across 4 new layers.
        let map: Vec<u32> = (0..4).map(|l| source_layer(2, 4, l)).collect();
        assert_eq!(map, vec![0, 0, 1, 1]);
        assert!(!spec.recosts_kernels());

        let wider = apply_transforms(
            &old,
            &[Transform::HiddenSize {
                hidden: 512,
                ffn: 2048,
            }],
        )
        .unwrap();
        let spec = plan(&old, &wider);
        assert!(spec.recosts_kernels());
        let map: Vec<u32> = (0..2).map(|l| source_layer(2, 2, l)).collect();
        assert_eq!(map, vec![0, 1]);
    }

    #[test]
    fn tp_structural_change_rejected_by_spec() {
        // tp 1 → 2 inserts collectives into recorded blocks: rejected
        // even though rescaling is generally supported.
        let old = setup();
        let mut new = old.clone();
        new.parallelism = Parallelism::new(2, 2, 2).unwrap();
        new.model.num_heads = 4;
        let spec = plan(&old, &new);
        assert!(matches!(
            spec.validate(),
            Err(CoreError::InvalidTransform { .. })
        ));
    }

    #[test]
    fn tp_rescale_spec_accepted_when_structure_preserved() {
        let mut old = setup();
        old.parallelism = Parallelism::new(2, 2, 1).unwrap();
        let new = apply_transforms(&old, &[Transform::TensorParallel { tp: 4 }]).unwrap();
        assert_eq!(new.parallelism.tp, 4);
        let spec = plan(&old, &new);
        assert!(spec.recosts_kernels());
        spec.validate().unwrap();
    }

    #[test]
    fn tp_rescale_rejects_indivisible_heads() {
        let mut old = setup();
        old.parallelism = Parallelism::new(2, 2, 1).unwrap();
        // tiny model has 4 heads; tp=8 cannot shard them.
        assert!(apply_transforms(&old, &[Transform::TensorParallel { tp: 8 }]).is_err());
    }

    #[test]
    fn seq_len_transform_triggers_recost() {
        let old = setup();
        let new = apply_transforms(&old, &[Transform::SeqLen { seq_len: 256 }]).unwrap();
        assert_eq!(new.batch.seq_len, 256);
        let spec = plan(&old, &new);
        assert!(spec.recosts_kernels());
        spec.validate().unwrap();
        assert!(apply_transforms(&old, &[Transform::SeqLen { seq_len: 0 }]).is_err());
    }
}
