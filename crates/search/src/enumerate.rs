//! Deterministic candidate enumeration over the divisibility lattice.
//!
//! Enumeration is *streaming*: the grid is a mixed-radix index space
//! decoded on demand ([`Grid`]), never a materialized vector, so
//! million-candidate spaces cost O(1) memory to walk. [`CandidateStream`]
//! is the lazy iterator façade; [`enumerate_candidates`] collects it
//! for callers that want the full set.

use crate::candidate::Candidate;
use crate::space::{ResolvedAxes, SpaceSpec};
use lumos_model::{ScheduleKind, TrainingSetup};

/// Number of mixed-radix digits a grid index decodes into (innermost
/// first: interleave, micro-batches, dp, pp, tp, schedule, arch).
pub(crate) const AXES: usize = 7;

/// Why a grid point was rejected before costing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// World size exceeds the budget or is not an allowed cluster
    /// size.
    Budget,
    /// Layers/heads/chunks do not divide into the requested degrees,
    /// or the target setup fails validation.
    Divisibility,
    /// TP rescale would change collective structure (`tp = 1 ↔ tp >
    /// 1`), which graph manipulation cannot reach from the trace.
    Structural,
}

/// The grid as a random-access index space: grid point `i` decodes to
/// a candidate in the fixed enumeration order (arch, schedule, tp,
/// pp, dp, micro-batches, interleave — each ascending, interleave
/// innermost).
///
/// Random access is what lets the parallel evaluator shard the grid
/// across workers with one atomic cursor instead of a locked iterator,
/// and what keeps enumeration-order tie-breaks well-defined without
/// materializing anything.
pub(crate) struct Grid<'a> {
    base: &'a TrainingSetup,
    axes: ResolvedAxes,
    /// Spec whose arch table matches the resolved axes (labels and
    /// transforms index into it).
    spec: SpaceSpec,
    total: usize,
}

impl<'a> Grid<'a> {
    /// Builds the grid for `spec` over `base`.
    pub(crate) fn new(spec: &SpaceSpec, base: &'a TrainingSetup) -> Self {
        let axes = spec.resolved_axes(base);
        let resolved_spec = SpaceSpec {
            arch: axes.arch_points.clone(),
            ..spec.clone()
        };
        let arch = axes.arch_points.len().max(1);
        let total = arch
            * axes.schedules.len()
            * axes.tp.len()
            * axes.pp.len()
            * axes.dp.len()
            * axes.microbatches.len()
            * axes.interleave.len();
        Grid {
            base,
            axes,
            spec: resolved_spec,
            total,
        }
    }

    /// Number of grid points.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// The spec enumeration works against (resolved arch table).
    pub(crate) fn spec(&self) -> &SpaceSpec {
        &self.spec
    }

    /// Decodes grid point `index` (`< total()`) into its candidate.
    pub(crate) fn candidate(&self, index: usize) -> Candidate {
        debug_assert!(index < self.total);
        let mut rem = index;
        let take = |rem: &mut usize, axis: &[u32]| {
            let v = axis[*rem % axis.len()];
            *rem /= axis.len();
            v
        };
        let interleave = take(&mut rem, &self.axes.interleave);
        let microbatches = take(&mut rem, &self.axes.microbatches);
        let dp = take(&mut rem, &self.axes.dp);
        let pp = take(&mut rem, &self.axes.pp);
        let tp = take(&mut rem, &self.axes.tp);
        let schedule = self.axes.schedules[rem % self.axes.schedules.len()];
        rem /= self.axes.schedules.len();
        let arch = if self.axes.arch_points.is_empty() {
            None
        } else {
            Some(rem)
        };
        Candidate {
            tp,
            pp,
            dp,
            microbatches,
            interleave,
            schedule,
            arch,
        }
    }

    /// Checks one candidate against the lattice, returning its
    /// validated target setup on success.
    pub(crate) fn admit(&self, cand: &Candidate) -> Result<TrainingSetup, RejectReason> {
        admit(cand, self.base, &self.spec, &self.axes)
    }

    /// Per-axis radices in decode order; every entry is ≥ 1 (the arch
    /// axis contributes 1 when absent), so the product equals
    /// [`Grid::total`].
    pub(crate) fn dims(&self) -> [usize; AXES] {
        [
            self.axes.interleave.len(),
            self.axes.microbatches.len(),
            self.axes.dp.len(),
            self.axes.pp.len(),
            self.axes.tp.len(),
            self.axes.schedules.len(),
            self.axes.arch_points.len().max(1),
        ]
    }

    /// Decodes a grid index into its mixed-radix digits (the inverse
    /// of [`Grid::index_of`]).
    pub(crate) fn coords(&self, index: usize) -> [usize; AXES] {
        debug_assert!(index < self.total);
        let dims = self.dims();
        let mut coords = [0usize; AXES];
        let mut rem = index;
        for (digit, radix) in coords.iter_mut().zip(dims) {
            *digit = rem % radix;
            rem /= radix;
        }
        coords
    }

    /// Re-encodes mixed-radix digits into the grid index.
    pub(crate) fn index_of(&self, coords: &[usize; AXES]) -> usize {
        let dims = self.dims();
        let mut index = 0usize;
        let mut stride = 1usize;
        for (&digit, radix) in coords.iter().zip(dims) {
            debug_assert!(digit < radix);
            index += digit * stride;
            stride *= radix;
        }
        index
    }
}

/// A grid point that survived the lattice: its deterministic
/// enumeration index (the ranking tie-break), the candidate, and its
/// validated target setup.
#[derive(Debug, Clone)]
pub struct EnumeratedCandidate {
    /// Grid index in enumeration order.
    pub index: usize,
    /// The candidate configuration.
    pub candidate: Candidate,
    /// Its validated target setup.
    pub setup: TrainingSetup,
}

/// A lazy walk of the grid: yields lattice-valid candidates one at a
/// time, counting rejections as it goes, with **O(1) memory** in the
/// size of the space.
///
/// The yield order is the crate's deterministic enumeration order;
/// [`CandidateStream::stats`] exposes the rejection counters
/// accumulated so far (complete once the iterator is exhausted).
pub struct CandidateStream<'a> {
    grid: Grid<'a>,
    cursor: usize,
    stats: crate::prune::PruneStats,
}

impl<'a> CandidateStream<'a> {
    /// Starts a streaming enumeration of `spec` over `base`.
    pub fn new(spec: &SpaceSpec, base: &'a TrainingSetup) -> Self {
        CandidateStream {
            grid: Grid::new(spec, base),
            cursor: 0,
            stats: crate::prune::PruneStats::default(),
        }
    }

    /// Counters accumulated so far (complete after exhaustion).
    pub fn stats(&self) -> crate::prune::PruneStats {
        self.stats
    }
}

impl Iterator for CandidateStream<'_> {
    type Item = EnumeratedCandidate;

    fn next(&mut self) -> Option<EnumeratedCandidate> {
        while self.cursor < self.grid.total() {
            let index = self.cursor;
            self.cursor += 1;
            self.stats.enumerated += 1;
            let candidate = self.grid.candidate(index);
            match self.grid.admit(&candidate) {
                Ok(setup) => {
                    return Some(EnumeratedCandidate {
                        index,
                        candidate,
                        setup,
                    })
                }
                Err(RejectReason::Budget) => self.stats.budget_rejects += 1,
                Err(RejectReason::Divisibility) => self.stats.divisibility_rejects += 1,
                Err(RejectReason::Structural) => self.stats.structural_rejects += 1,
            }
        }
        None
    }
}

/// The enumeration result: surviving candidates (with their validated
/// target setups) plus rejection counters.
#[derive(Debug, Clone)]
pub struct EnumerationOutcome {
    /// Lattice-valid candidates in deterministic grid order, paired
    /// with their validated target setups.
    pub candidates: Vec<(Candidate, TrainingSetup)>,
    /// Counters for every grid point visited.
    pub stats: crate::prune::PruneStats,
}

/// Walks the normalized grid in a fixed order (arch, tp, pp, dp,
/// micro-batches, interleave — each ascending) and keeps the
/// lattice-valid candidates.
///
/// This materializes the full survivor set; for large spaces prefer
/// [`CandidateStream`], which yields the same candidates in the same
/// order lazily. The order is part of the crate's determinism
/// contract: ranking tie-breaks fall back to this enumeration index.
pub fn enumerate_candidates(spec: &SpaceSpec, base: &TrainingSetup) -> EnumerationOutcome {
    let mut stream = CandidateStream::new(spec, base);
    let mut candidates = Vec::new();
    for ec in stream.by_ref() {
        candidates.push((ec.candidate, ec.setup));
    }
    EnumerationOutcome {
        candidates,
        stats: stream.stats(),
    }
}

/// Checks one grid point against the lattice, returning its validated
/// target setup on success.
fn admit(
    cand: &Candidate,
    base: &TrainingSetup,
    spec: &SpaceSpec,
    axes: &ResolvedAxes,
) -> Result<TrainingSetup, RejectReason> {
    let world = cand.world_size();
    match &axes.gpus {
        Some(allowed) if !allowed.contains(&world) => return Err(RejectReason::Budget),
        _ => {}
    }
    if world > axes.max_gpus {
        return Err(RejectReason::Budget);
    }
    // Structural TP constraint: the trace either has TP collectives
    // inside its blocks or it does not; crossing tp=1 in either
    // direction would require inserting/deleting them (§3.4).
    if (base.parallelism.tp == 1) != (cand.tp == 1) {
        return Err(RejectReason::Structural);
    }
    let setup = cand
        .target_setup(base, spec)
        .map_err(|_| RejectReason::Divisibility)?;
    if cand.interleave > 1 {
        // Interleaved virtual chunks are defined on 1F1B only (the
        // evaluator's bubble adjustment assumes it).
        if cand.schedule != ScheduleKind::OneFOneB {
            return Err(RejectReason::Structural);
        }
        // Interleaving needs pp > 1, layers divisible into pp × v
        // chunks, and micro-batches in whole groups of pp
        // (Megatron's virtual-pipeline constraint).
        if cand.pp < 2
            || !setup
                .model
                .num_layers
                .is_multiple_of(cand.pp * cand.interleave)
            || !cand.microbatches.is_multiple_of(cand.pp)
        {
            return Err(RejectReason::Divisibility);
        }
    }
    Ok(setup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_model::{ModelConfig, Parallelism};

    fn base_tp2() -> TrainingSetup {
        // 4 heads, 2 layers (tiny): tp ∈ {1, 2, 4}, pp ∈ {1, 2}.
        TrainingSetup::new(ModelConfig::tiny(), Parallelism::new(2, 1, 1).unwrap())
    }

    #[test]
    fn lattice_rejects_and_counts() {
        let base = base_tp2();
        let spec = SpaceSpec::deployment_grid(&[1, 2, 3, 4], &[1, 2, 3], &[1, 2]).with_max_gpus(8);
        let out = enumerate_candidates(&spec, &base);
        assert_eq!(out.stats.enumerated, 4 * 3 * 2);
        // tp=1 arm is structural (base tp > 1).
        assert!(out.stats.structural_rejects > 0);
        // tp=3 (heads=4) and pp=3 (layers=2) are divisibility rejects.
        assert!(out.stats.divisibility_rejects > 0);
        // 4*3*2=24 > 8 GPUs appears via (tp=4, pp=3) → divisibility
        // fires first there; force a budget reject separately below.
        for (cand, setup) in &out.candidates {
            assert!(cand.world_size() <= 8);
            assert_eq!(setup.parallelism.tp, cand.tp);
            setup.validate().unwrap();
        }
    }

    #[test]
    fn budget_and_allowed_gpus() {
        let base = base_tp2();
        let spec = SpaceSpec::deployment_grid(&[2], &[1], &[1, 2, 4]).with_max_gpus(4);
        let out = enumerate_candidates(&spec, &base);
        assert_eq!(out.candidates.len(), 2); // dp=4 → 8 GPUs > 4
        assert_eq!(out.stats.budget_rejects, 1);

        let spec = SpaceSpec::deployment_grid(&[2], &[1], &[1, 2, 4]).with_gpus(&[8]);
        let out = enumerate_candidates(&spec, &base);
        assert_eq!(out.candidates.len(), 1);
        assert_eq!(out.candidates[0].0.dp, 4);
    }

    #[test]
    fn interleave_needs_chunkable_layers() {
        let mut base = base_tp2();
        base.model.num_layers = 8;
        // pp=2, v=2 ⇒ 8 layers into 4 chunks: fine. v=3 ⇒ 6 chunks: no.
        let spec = SpaceSpec::deployment_grid(&[2], &[2], &[1])
            .with_interleave(&[1, 2, 3])
            .with_microbatches(&[4]);
        let out = enumerate_candidates(&spec, &base);
        let vs: Vec<u32> = out.candidates.iter().map(|(c, _)| c.interleave).collect();
        assert_eq!(vs, vec![1, 2]);

        // Interleaving also needs the micro-batches in whole groups of
        // pp; plain 1F1B (v=1) takes any count.
        let spec = SpaceSpec::deployment_grid(&[2], &[2, 4], &[1])
            .with_interleave(&[1, 2])
            .with_microbatches(&[3, 4, 6]);
        let out = enumerate_candidates(&spec, &base);
        let kept: Vec<(u32, u32, u32)> = out
            .candidates
            .iter()
            .map(|(c, _)| (c.pp, c.microbatches, c.interleave))
            .collect();
        assert_eq!(
            kept,
            vec![
                (2, 3, 1),
                (2, 4, 1),
                (2, 4, 2),
                (2, 6, 1),
                (2, 6, 2),
                (4, 3, 1),
                (4, 4, 1),
                (4, 4, 2),
                (4, 6, 1),
            ]
        );
        assert_eq!(out.stats.divisibility_rejects, 3);
    }

    #[test]
    fn enumeration_order_is_deterministic() {
        let base = base_tp2();
        let spec = SpaceSpec::deployment_grid(&[2, 4], &[1, 2], &[2, 1]);
        let a = enumerate_candidates(&spec, &base);
        let b = enumerate_candidates(&spec, &base);
        assert_eq!(
            a.candidates.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
            b.candidates.iter().map(|(c, _)| *c).collect::<Vec<_>>()
        );
    }

    #[test]
    fn grid_decode_covers_every_point_in_loop_order() {
        let base = base_tp2();
        let spec = SpaceSpec::deployment_grid(&[2, 4], &[1, 2], &[1, 2])
            .with_microbatches(&[2, 4])
            .with_interleave(&[1, 2])
            .with_schedules(&[ScheduleKind::OneFOneB, ScheduleKind::GPipe])
            .with_arch(vec![
                crate::space::ArchPoint::new("a", 2, 256, 1024),
                crate::space::ArchPoint::new("b", 4, 256, 1024),
            ]);
        let grid = Grid::new(&spec, &base);
        assert_eq!(grid.total(), 2 * 2 * 2 * 2 * 2 * 2 * 2);
        // Reconstruct the reference nested-loop order and compare.
        let axes = spec.resolved_axes(&base);
        let mut expected = Vec::new();
        for a in 0..axes.arch_points.len().max(1) {
            for &schedule in &axes.schedules {
                for &tp in &axes.tp {
                    for &pp in &axes.pp {
                        for &dp in &axes.dp {
                            for &m in &axes.microbatches {
                                for &v in &axes.interleave {
                                    expected.push(Candidate {
                                        tp,
                                        pp,
                                        dp,
                                        microbatches: m,
                                        interleave: v,
                                        schedule,
                                        arch: (!axes.arch_points.is_empty()).then_some(a),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        let decoded: Vec<Candidate> = (0..grid.total()).map(|i| grid.candidate(i)).collect();
        assert_eq!(decoded, expected);
    }

    #[test]
    fn schedule_axis_enumerates_and_gates_interleave() {
        let mut base = base_tp2();
        base.model.num_layers = 8;
        let spec = SpaceSpec::deployment_grid(&[2], &[2], &[1])
            .with_microbatches(&[4])
            .with_interleave(&[1, 2])
            .with_schedules(&[ScheduleKind::OneFOneB, ScheduleKind::ZbH1]);
        let out = enumerate_candidates(&spec, &base);
        let pairs: Vec<(ScheduleKind, u32)> = out
            .candidates
            .iter()
            .map(|(c, _)| (c.schedule, c.interleave))
            .collect();
        // v=2 survives on 1F1B only; zb-h1 enumerates at v=1.
        assert_eq!(
            pairs,
            vec![
                (ScheduleKind::OneFOneB, 1),
                (ScheduleKind::OneFOneB, 2),
                (ScheduleKind::ZbH1, 1),
            ]
        );
        for (cand, setup) in &out.candidates {
            assert_eq!(setup.schedule, cand.schedule);
        }
    }

    #[test]
    fn coords_roundtrip_through_index_of() {
        let base = base_tp2();
        let spec = SpaceSpec::deployment_grid(&[2, 4], &[1, 2], &[1, 2])
            .with_microbatches(&[2, 4])
            .with_interleave(&[1, 2])
            .with_schedules(&[ScheduleKind::OneFOneB, ScheduleKind::GPipe]);
        let grid = Grid::new(&spec, &base);
        assert_eq!(grid.dims().iter().product::<usize>(), grid.total());
        for index in 0..grid.total() {
            let coords = grid.coords(index);
            assert_eq!(grid.index_of(&coords), index);
        }
    }

    #[test]
    fn stream_yields_same_set_as_materialized() {
        let base = base_tp2();
        let spec = SpaceSpec::deployment_grid(&[2, 4], &[1, 2], &[1, 2]).with_microbatches(&[2, 4]);
        let materialized = enumerate_candidates(&spec, &base);
        let mut stream = CandidateStream::new(&spec, &base);
        let streamed: Vec<(Candidate, TrainingSetup)> =
            stream.by_ref().map(|ec| (ec.candidate, ec.setup)).collect();
        assert_eq!(streamed, materialized.candidates);
        assert_eq!(stream.stats(), materialized.stats);
        // Indices are strictly increasing grid positions.
        let indices: Vec<usize> = CandidateStream::new(&spec, &base)
            .map(|ec| ec.index)
            .collect();
        assert!(indices.windows(2).all(|w| w[0] < w[1]));
        assert!(indices.iter().all(|&i| i < stream.grid.total()));
    }
}
