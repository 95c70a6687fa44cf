//! Memory-feasibility pre-pruning: infeasible configurations never
//! reach simulation.

use crate::candidate::Candidate;
use lumos_model::{MemoryModel, TrainingSetup};

/// Counters over every grid point of a search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Grid points visited.
    pub enumerated: usize,
    /// Rejected: over GPU budget / not an allowed cluster size.
    pub budget_rejects: usize,
    /// Rejected: divisibility or setup-validity violations.
    pub divisibility_rejects: usize,
    /// Rejected: TP structure change unreachable from the trace.
    pub structural_rejects: usize,
    /// Pruned by the memory-feasibility gate (would OOM).
    pub memory_pruned: usize,
    /// Skipped by the analytic lower bound: provably ranked below the
    /// running top-k, so never fully simulated.
    pub bound_skipped: usize,
    /// Candidates that reached (parallel) simulation and were fully
    /// scored (including ones later rejected as infeasible).
    pub evaluated: usize,
    /// Fully scored candidates rejected with a typed infeasibility
    /// reason (degenerate bubble, zero makespan, non-finite objective)
    /// instead of being ranked.
    pub infeasible: usize,
    /// Distinct grid indices the adaptive engine decoded (seed
    /// probes, mutations, and the verification sweep). Zero on
    /// exhaustive runs, where `enumerated` already is the visit count.
    pub visited: usize,
    /// Mutation proposals the adaptive power schedule issued
    /// (including ones later rejected by the lattice or the screen).
    pub mutations: usize,
    /// Corpus entries on the adaptive frontier at termination — the
    /// pool the power schedule was still picking parents from.
    pub frontier: usize,
}

impl PruneStats {
    /// Everything that was cut before full simulation.
    pub fn total_skipped(&self) -> usize {
        self.budget_rejects
            + self.divisibility_rejects
            + self.structural_rejects
            + self.memory_pruned
            + self.bound_skipped
    }

    /// `part` as a percentage of the enumerated grid; `0.0` on an
    /// empty walk, so displays never divide by zero.
    pub fn percent(&self, part: usize) -> f64 {
        if self.enumerated == 0 {
            0.0
        } else {
            part as f64 * 100.0 / self.enumerated as f64
        }
    }

    /// Share of grid points cut before full simulation, in percent.
    pub fn skip_percent(&self) -> f64 {
        self.percent(self.total_skipped())
    }

    /// Share of grid points fully simulated, in percent.
    pub fn visit_percent(&self) -> f64 {
        self.percent(self.evaluated)
    }
}

/// Stage-cost memoization counters of one search run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lower-bound queries answered from the shared stage-cost cache.
    pub hits: usize,
    /// Queries that derived (and cached) fresh stage costs.
    pub misses: usize,
}

/// A candidate cut by the memory gate, with the evidence.
#[derive(Debug, Clone)]
pub struct PrunedCandidate {
    /// The infeasible candidate.
    pub candidate: Candidate,
    /// Its (validated) target setup label.
    pub label: String,
    /// Enumeration index of the candidate.
    pub index: usize,
    /// Pipeline stage that binds (overflows first).
    pub stage: u32,
    /// Bytes that stage requires.
    pub required_bytes: u64,
    /// Device capacity it exceeded.
    pub capacity_bytes: u64,
}

/// Splits candidates into memory-feasible and pruned, using
/// [`MemoryModel::check`] against `capacity` bytes per device.
///
/// The gate is exact with respect to the memory model: a candidate is
/// pruned **iff** its peak-stage estimate exceeds capacity (tested by
/// `pruning_is_exact_and_loses_no_candidate` in
/// `tests/search_engine.rs`). The streaming engine applies the same
/// check per-candidate (`gate_one`); this batch form serves callers
/// holding a materialized candidate list.
pub fn memory_gate(
    candidates: &[(Candidate, TrainingSetup)],
    memory: &MemoryModel,
    capacity: u64,
) -> (Vec<(Candidate, TrainingSetup)>, Vec<PrunedCandidate>) {
    let mut feasible = Vec::with_capacity(candidates.len());
    let mut pruned = Vec::new();
    for (index, (cand, setup)) in candidates.iter().enumerate() {
        match gate_one(index, cand, setup, memory, capacity) {
            None => feasible.push((*cand, setup.clone())),
            Some(p) => pruned.push(p),
        }
    }
    (feasible, pruned)
}

/// Checks one candidate against the memory gate: `None` when it fits,
/// the pruning evidence when it does not.
pub(crate) fn gate_one(
    index: usize,
    cand: &Candidate,
    setup: &TrainingSetup,
    memory: &MemoryModel,
    capacity: u64,
) -> Option<PrunedCandidate> {
    match memory.check(setup, capacity) {
        Ok(_) => None,
        Err(oom) => Some(PrunedCandidate {
            candidate: *cand,
            label: setup.label(),
            index,
            stage: oom.stage,
            required_bytes: oom.required,
            capacity_bytes: oom.capacity,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_model::{ModelConfig, Parallelism};

    #[test]
    fn percentages_guard_the_empty_space() {
        let empty = PruneStats::default();
        assert_eq!(empty.skip_percent(), 0.0);
        assert_eq!(empty.visit_percent(), 0.0);
        let stats = PruneStats {
            enumerated: 200,
            budget_rejects: 40,
            divisibility_rejects: 10,
            memory_pruned: 30,
            bound_skipped: 20,
            evaluated: 100,
            ..PruneStats::default()
        };
        assert_eq!(stats.skip_percent(), 50.0);
        assert_eq!(stats.visit_percent(), 50.0);
    }

    #[test]
    fn gate_partitions_exactly() {
        let tiny = TrainingSetup::new(ModelConfig::tiny(), Parallelism::new(1, 1, 1).unwrap());
        let big = TrainingSetup::new(ModelConfig::gpt3_175b(), Parallelism::new(1, 1, 1).unwrap());
        let cand = Candidate {
            tp: 1,
            pp: 1,
            dp: 1,
            microbatches: 2,
            interleave: 1,
            schedule: lumos_model::ScheduleKind::OneFOneB,
            arch: None,
        };
        let memory = MemoryModel::default();
        let capacity = 80 << 30;
        let input = vec![(cand, tiny), (cand, big)];
        let (feasible, pruned) = memory_gate(&input, &memory, capacity);
        assert_eq!(feasible.len(), 1);
        assert_eq!(pruned.len(), 1);
        assert!(pruned[0].required_bytes > pruned[0].capacity_bytes);
        assert!(pruned[0].label.contains("175"));
        assert_eq!(pruned[0].index, 1);
    }
}
