//! The search-space descriptor: value grids per axis plus the
//! world-size divisibility lattice.

use lumos_model::{ScheduleKind, TrainingSetup};

/// One architecture variant in the (optional) architecture axis —
/// the shapes [`lumos_core::manipulate::Transform`] can reach from a
/// recorded trace (layer count and width).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchPoint {
    /// Display label (e.g. `16L-d4096`).
    pub label: String,
    /// Transformer layer count.
    pub layers: u32,
    /// Hidden size (`d_model`).
    pub hidden: u64,
    /// Feed-forward size (`d_ffn`).
    pub ffn: u64,
}

impl ArchPoint {
    /// A labeled architecture point.
    pub fn new(label: impl Into<String>, layers: u32, hidden: u64, ffn: u64) -> Self {
        ArchPoint {
            label: label.into(),
            layers,
            hidden,
            ffn,
        }
    }
}

/// A what-if configuration search space.
///
/// Each axis is a value grid; an **empty axis means "keep the base
/// setup's value"**. Enumeration walks the cartesian product and
/// rejects lattice violations (see [`crate::enumerate_candidates`]):
///
/// * world size `tp × pp × dp` must be in [`SpaceSpec::gpus`] when
///   given, and never exceed [`SpaceSpec::max_gpus`];
/// * layers must divide into `pp` stages (and into `pp × v` chunks
///   when interleaving), heads into `tp` shards;
/// * TP rescales must preserve collective structure
///   (`tp = 1 ↔ tp > 1` changes are trace-unreachable, per §3.4).
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceSpec {
    /// Tensor-parallel degrees.
    pub tp: Vec<u32>,
    /// Pipeline-parallel degrees.
    pub pp: Vec<u32>,
    /// Data-parallel degrees.
    pub dp: Vec<u32>,
    /// Micro-batch counts per iteration.
    pub microbatches: Vec<u32>,
    /// Interleaved-1F1B virtual-chunk counts (`1` = plain 1F1B).
    pub interleave: Vec<u32>,
    /// Pipeline schedules to enumerate; empty = keep the base setup's
    /// schedule.
    pub schedules: Vec<ScheduleKind>,
    /// Exact allowed world sizes (cluster sizes); `None` = any size
    /// within budget.
    pub gpus: Option<Vec<u32>>,
    /// Hard GPU budget (default 1024).
    pub max_gpus: u32,
    /// Architecture variants; empty = base architecture only.
    pub arch: Vec<ArchPoint>,
}

impl SpaceSpec {
    /// A spec over the three parallelism axes with everything else at
    /// base values.
    pub fn deployment_grid(tp: &[u32], pp: &[u32], dp: &[u32]) -> Self {
        SpaceSpec {
            tp: tp.to_vec(),
            pp: pp.to_vec(),
            dp: dp.to_vec(),
            ..SpaceSpec::empty()
        }
    }

    /// The all-empty spec: one candidate, the base configuration.
    /// Alias of [`Default::default`].
    pub fn empty() -> Self {
        SpaceSpec::default()
    }

    /// Sets the micro-batch axis (builder style).
    pub fn with_microbatches(mut self, microbatches: &[u32]) -> Self {
        self.microbatches = microbatches.to_vec();
        self
    }

    /// Sets the interleave axis (builder style).
    pub fn with_interleave(mut self, interleave: &[u32]) -> Self {
        self.interleave = interleave.to_vec();
        self
    }

    /// Sets the schedule axis (builder style).
    pub fn with_schedules(mut self, schedules: &[ScheduleKind]) -> Self {
        self.schedules = schedules.to_vec();
        self
    }

    /// Restricts world sizes to exactly `gpus` (builder style).
    pub fn with_gpus(mut self, gpus: &[u32]) -> Self {
        self.gpus = Some(gpus.to_vec());
        self
    }

    /// Caps the GPU budget (builder style).
    pub fn with_max_gpus(mut self, max_gpus: u32) -> Self {
        self.max_gpus = max_gpus;
        self
    }

    /// Sets the architecture axis (builder style).
    pub fn with_arch(mut self, arch: Vec<ArchPoint>) -> Self {
        self.arch = arch;
        self
    }

    /// A copy with every axis sorted and deduplicated (enumeration
    /// order, and therefore ranking tie-breaks, are defined on the
    /// normalized spec).
    pub fn normalized(&self) -> Self {
        fn norm(axis: &[u32]) -> Vec<u32> {
            let mut v: Vec<u32> = axis.iter().copied().filter(|&x| x > 0).collect();
            v.sort_unstable();
            v.dedup();
            v
        }
        // Schedules dedup by name, preserving listing order (there
        // is no meaningful sort for policies).
        let mut schedules: Vec<ScheduleKind> = Vec::new();
        for s in &self.schedules {
            if !schedules.contains(s) {
                schedules.push(*s);
            }
        }
        SpaceSpec {
            tp: norm(&self.tp),
            pp: norm(&self.pp),
            dp: norm(&self.dp),
            microbatches: norm(&self.microbatches),
            interleave: norm(&self.interleave),
            schedules,
            gpus: self.gpus.as_deref().map(norm),
            max_gpus: self.max_gpus,
            arch: self.arch.clone(),
        }
    }

    /// The axis values actually enumerated against `base` (empty axes
    /// resolve to the base value).
    pub(crate) fn resolved_axes(&self, base: &TrainingSetup) -> ResolvedAxes {
        let spec = self.normalized();
        let or_base = |axis: Vec<u32>, base_value: u32| {
            if axis.is_empty() {
                vec![base_value]
            } else {
                axis
            }
        };
        ResolvedAxes {
            tp: or_base(spec.tp, base.parallelism.tp),
            pp: or_base(spec.pp, base.parallelism.pp),
            dp: or_base(spec.dp, base.parallelism.dp),
            microbatches: or_base(spec.microbatches, base.batch.num_microbatches),
            interleave: or_base(spec.interleave, 1),
            schedules: if spec.schedules.is_empty() {
                vec![base.schedule]
            } else {
                spec.schedules
            },
            gpus: spec.gpus,
            max_gpus: spec.max_gpus,
            arch_points: spec.arch,
        }
    }

    /// Upper bound on the number of grid points before lattice
    /// filtering (useful for progress displays and sanity checks).
    pub fn grid_upper_bound(&self, base: &TrainingSetup) -> usize {
        let axes = self.resolved_axes(base);
        let arch = axes.arch_points.len().max(1);
        axes.tp.len()
            * axes.pp.len()
            * axes.dp.len()
            * axes.microbatches.len()
            * axes.interleave.len()
            * axes.schedules.len()
            * arch
    }
}

impl Default for SpaceSpec {
    /// Every axis empty (= base value) under the default 1024-GPU
    /// budget. Implemented by hand so `..Default::default()` struct
    /// updates never produce the degenerate `max_gpus = 0` budget
    /// that would reject every candidate.
    fn default() -> Self {
        SpaceSpec {
            tp: Vec::new(),
            pp: Vec::new(),
            dp: Vec::new(),
            microbatches: Vec::new(),
            interleave: Vec::new(),
            schedules: Vec::new(),
            gpus: None,
            max_gpus: 1024,
            arch: Vec::new(),
        }
    }
}

/// Axes after base-value substitution and normalization.
pub(crate) struct ResolvedAxes {
    pub tp: Vec<u32>,
    pub pp: Vec<u32>,
    pub dp: Vec<u32>,
    pub microbatches: Vec<u32>,
    pub interleave: Vec<u32>,
    pub schedules: Vec<ScheduleKind>,
    pub gpus: Option<Vec<u32>>,
    pub max_gpus: u32,
    pub arch_points: Vec<ArchPoint>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_model::{ModelConfig, Parallelism};

    #[test]
    fn normalization_sorts_dedups_and_drops_zero() {
        let spec = SpaceSpec::deployment_grid(&[4, 2, 2, 0], &[1], &[8, 1]);
        let n = spec.normalized();
        assert_eq!(n.tp, vec![2, 4]);
        assert_eq!(n.dp, vec![1, 8]);
    }

    #[test]
    fn default_matches_empty_and_keeps_the_budget() {
        assert_eq!(SpaceSpec::default(), SpaceSpec::empty());
        let via_update = SpaceSpec {
            dp: vec![1, 2],
            ..Default::default()
        };
        assert_eq!(via_update.max_gpus, 1024);
    }

    #[test]
    fn empty_axes_resolve_to_base() {
        let base = TrainingSetup::new(ModelConfig::tiny(), Parallelism::new(1, 2, 1).unwrap());
        let axes = SpaceSpec::empty().resolved_axes(&base);
        assert_eq!(axes.tp, vec![1]);
        assert_eq!(axes.pp, vec![2]);
        assert_eq!(axes.dp, vec![1]);
        assert_eq!(axes.microbatches, vec![base.batch.num_microbatches]);
        assert_eq!(axes.interleave, vec![1]);
    }

    #[test]
    fn grid_upper_bound_is_axis_product() {
        let base = TrainingSetup::new(ModelConfig::tiny(), Parallelism::new(1, 2, 1).unwrap());
        let spec =
            SpaceSpec::deployment_grid(&[1, 2], &[1, 2], &[1, 2, 4]).with_microbatches(&[2, 4]);
        assert_eq!(spec.grid_upper_bound(&base), 2 * 2 * 3 * 2);
    }
}
