//! Pipeline-parallel schedules.
//!
//! Generates per-stage forward/backward orderings for the 1F1B policy
//! (Narayanan et al., 2021 — the policy named in the paper's Figure 4),
//! GPipe (all-forward-then-all-backward, for comparison studies), and
//! the zero-bubble ZB-H1 variant (Qi et al., 2023). Graph
//! manipulation regenerates these schedules when the
//! pipeline-parallel degree changes (§3.4).
//!
//! Interleaved 1F1B (Megatron's virtual pipeline) is not a policy of
//! its own: its `v` model chunks per rank are the search's
//! `interleave` axis, priced through 1F1B's [`ScheduleAdjustment`].

use crate::error::ModelError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One slot in a stage's execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScheduleItem {
    /// Forward pass of micro-batch `mb`.
    Forward {
        /// Micro-batch index (0-based).
        mb: u32,
    },
    /// Backward pass of micro-batch `mb`. For split-backward
    /// schedules this is the input-grad half only.
    Backward {
        /// Micro-batch index (0-based).
        mb: u32,
    },
    /// Weight-gradient pass of micro-batch `mb` (only emitted by
    /// split-backward schedules such as `zb-h1`).
    WeightGrad {
        /// Micro-batch index (0-based).
        mb: u32,
    },
}

impl ScheduleItem {
    /// The micro-batch this item processes.
    pub fn mb(&self) -> u32 {
        match *self {
            ScheduleItem::Forward { mb }
            | ScheduleItem::Backward { mb }
            | ScheduleItem::WeightGrad { mb } => mb,
        }
    }

    /// Returns `true` for forward items.
    pub fn is_forward(&self) -> bool {
        matches!(self, ScheduleItem::Forward { .. })
    }
}

impl fmt::Display for ScheduleItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleItem::Forward { mb } => write!(f, "F{mb}"),
            ScheduleItem::Backward { mb } => write!(f, "B{mb}"),
            ScheduleItem::WeightGrad { mb } => write!(f, "W{mb}"),
        }
    }
}

/// Rescales a makespan simulated under one schedule shape (the
/// *skeleton*) into an estimate for the schedule actually being
/// scored (the *target*).
///
/// Replay-based estimation pastes recorded blocks into a plain
/// 1F1B/GPipe skeleton, so schedules that reshape the pipeline —
/// interleaved 1F1B, zero-bubble — are scored by stripping the
/// skeleton's analytic bubble out of the simulated time and
/// re-applying their own, plus any extra pipeline-communication cost:
///
/// ```text
/// work  = simulated · (1 − skeleton_bubble)
/// extra = (comm_amplification − 1) · pp_comm_secs_per_rank
/// time  = work / (1 − target_bubble) + extra
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleAdjustment {
    /// Analytic bubble fraction of the schedule shape that was
    /// simulated.
    pub skeleton_bubble: f64,
    /// Analytic bubble fraction of the schedule being scored.
    pub target_bubble: f64,
    /// Pipeline-communication multiplier vs the skeleton (1.0 when
    /// the target sends the same activation traffic).
    pub comm_amplification: f64,
}

impl ScheduleAdjustment {
    /// Returns `true` when the bubble fractions make the rescale
    /// meaningless (degenerate pipelines where a bubble reaches 1).
    pub fn is_degenerate(&self) -> bool {
        self.target_bubble >= 1.0 || self.target_bubble.is_nan() || self.skeleton_bubble >= 1.0
    }

    /// Applies the adjustment to a simulated makespan, both in
    /// seconds. `pp_comm_secs_per_rank` is the average per-rank time
    /// spent in pipeline send/recv kernels during the simulation.
    pub fn apply_secs(&self, simulated_secs: f64, pp_comm_secs_per_rank: f64) -> f64 {
        let work_secs = simulated_secs * (1.0 - self.skeleton_bubble);
        let extra_comm_secs = (self.comm_amplification - 1.0) * pp_comm_secs_per_rank;
        (work_secs / (1.0 - self.target_bubble) + extra_comm_secs).max(0.0)
    }

    /// The factor a lower bound on the skeleton's makespan must be
    /// scaled by to remain a lower bound on the adjusted makespan
    /// (communication extras are dropped — they only add time).
    pub fn bound_scale(&self) -> f64 {
        (1.0 - self.skeleton_bubble) / (1.0 - self.target_bubble)
    }
}

/// A pipeline-scheduling policy.
///
/// Everything the toolkit needs to know about a policy is a `match`
/// on this enum: per-stage item order, in-flight activation bound,
/// analytic bubble, and the adjustments search applies when one
/// simulated schedule shape stands in for another. Serializes as its
/// [`wire_name`](ScheduleKind::wire_name); `Display` prints the
/// [`name`](ScheduleKind::name) and `Debug` the wire name.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// One-forward-one-backward, Megatron's default (Narayanan et
    /// al., 2021): bounded activation memory, `(P−1)/(M+P−1)` bubble.
    /// Carries the interleaved virtual-stage adjustment when
    /// `interleave > 1`.
    OneFOneB,
    /// GPipe: all forwards, then all backwards. Same analytic bubble
    /// as 1F1B but unbounded in-flight activations.
    GPipe,
    /// Zero-bubble H1 (Qi et al., 2023): backward is split into an
    /// input-grad item `B` and a weight-grad item `W`; weight-grad
    /// work fills the cool-down bubble, shrinking the analytic bubble
    /// to `(P−1)/(3M+P−1)` at 1F1B's activation memory.
    ZbH1,
}

impl ScheduleKind {
    /// Every policy, in catalogue order.
    pub const ALL: [ScheduleKind; 3] = [
        ScheduleKind::OneFOneB,
        ScheduleKind::GPipe,
        ScheduleKind::ZbH1,
    ];

    /// Resolves a name (`"1f1b"`) or a wire name (`"OneFOneB"`) — the
    /// one place that turns user-supplied names (space files, CLI
    /// flags, serve requests, serialized setups) into policies.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownSchedule`] naming the known set.
    pub fn from_name(name: &str) -> Result<Self, ModelError> {
        Self::ALL
            .into_iter()
            .find(|k| k.name() == name || k.wire_name() == name)
            .ok_or_else(|| ModelError::UnknownSchedule {
                name: name.to_string(),
                known: known_names(),
            })
    }

    /// Name used in space files, CLI flags, and reports (`"1f1b"`,
    /// `"gpipe"`, `"zb-h1"`).
    pub fn name(&self) -> &'static str {
        match self {
            ScheduleKind::OneFOneB => "1f1b",
            ScheduleKind::GPipe => "gpipe",
            ScheduleKind::ZbH1 => "zb-h1",
        }
    }

    /// Stable serialization tag. 1F1B and GPipe keep their original
    /// enum variant names (`"OneFOneB"`, `"GPipe"`) so existing setups
    /// and calibration artifacts load byte-identically; ZB-H1 uses
    /// its name.
    pub fn wire_name(&self) -> &'static str {
        match self {
            ScheduleKind::OneFOneB => "OneFOneB",
            ScheduleKind::GPipe => "GPipe",
            ScheduleKind::ZbH1 => "zb-h1",
        }
    }

    /// The execution order of one stage: which micro-batch
    /// forward/backward/weight-grad items it runs, in order.
    pub fn stage_order(&self, stage: u32, num_stages: u32, m: u32) -> Vec<ScheduleItem> {
        match self {
            ScheduleKind::OneFOneB => one_f_one_b_order(stage, num_stages, m),
            ScheduleKind::GPipe => gpipe_order(m),
            ScheduleKind::ZbH1 => zb_h1_order(stage, num_stages, m),
        }
    }

    /// Peak number of in-flight micro-batches (live activation sets)
    /// on `stage`; the memory model charges activations for this many
    /// micro-batches and the validator enforces it as a bound.
    pub fn in_flight(&self, num_stages: u32, stage: u32, microbatches: u32) -> u32 {
        match self {
            // ZB-H1 keeps 1F1B's bound — the H1 variant's defining
            // property (weight-grad needs stashed inputs, not the
            // full activation set, and those are charged to the
            // backward).
            ScheduleKind::OneFOneB | ScheduleKind::ZbH1 => microbatches.min(num_stages - stage),
            ScheduleKind::GPipe => microbatches,
        }
    }

    /// Analytic pipeline bubble fraction under equal stage times.
    pub fn analytic_bubble(&self, num_stages: u32, num_microbatches: u32) -> f64 {
        match self {
            ScheduleKind::OneFOneB | ScheduleKind::GPipe => {
                PipelineSchedule::analytic_bubble(num_stages, num_microbatches)
            }
            ScheduleKind::ZbH1 => {
                // With F = B = W = one unit of work, each stage runs
                // 3M units and the pipeline fill costs P−1.
                let p = num_stages as f64;
                let m = num_microbatches as f64;
                (p - 1.0) / (3.0 * m + p - 1.0)
            }
        }
    }

    /// Whether backward is split into input-grad (`B`) and
    /// weight-grad (`W`) items. Split schedules lower `W` as separate
    /// compute on the backward thread and relocate data-parallel
    /// gradient reductions to the last `W`.
    pub fn split_backward(&self) -> bool {
        match self {
            ScheduleKind::OneFOneB | ScheduleKind::GPipe => false,
            ScheduleKind::ZbH1 => true,
        }
    }

    /// Adjustment for phase-1 estimates, where the simulated trace is
    /// a replayed 1F1B/GPipe-shaped skeleton. `None` means the replay
    /// already has the right shape.
    pub fn replay_adjustment(
        &self,
        pp: u32,
        m: u32,
        interleave: u32,
    ) -> Option<ScheduleAdjustment> {
        match self {
            ScheduleKind::OneFOneB if interleave > 1 => Some(ScheduleAdjustment {
                skeleton_bubble: PipelineSchedule::analytic_bubble(pp, m),
                target_bubble: interleaved_bubble(pp, interleave, m),
                comm_amplification: interleaved_comm_amplification(pp, interleave),
            }),
            // Replayed skeletons paste full recorded backward blocks
            // into a 1F1B shape; rescale that shape's bubble into
            // ZB-H1's.
            ScheduleKind::ZbH1 => Some(ScheduleAdjustment {
                skeleton_bubble: PipelineSchedule::analytic_bubble(pp, m),
                target_bubble: self.analytic_bubble(pp, m),
                comm_amplification: 1.0,
            }),
            ScheduleKind::OneFOneB | ScheduleKind::GPipe => None,
        }
    }

    /// Adjustment for phase-2 estimates, where the engine simulates a
    /// natively lowered program. `None` means the lowering already
    /// realizes this schedule (no analytic correction needed).
    pub fn engine_adjustment(
        &self,
        pp: u32,
        m: u32,
        interleave: u32,
    ) -> Option<ScheduleAdjustment> {
        match self {
            // The engine lowers plain 1F1B programs; interleaved
            // candidates still need the virtual-stage correction.
            ScheduleKind::OneFOneB => self.replay_adjustment(pp, m, interleave),
            // ZB-H1's lowering splits backward natively, so the
            // engine simulates the real zero-bubble program.
            ScheduleKind::GPipe | ScheduleKind::ZbH1 => None,
        }
    }
}

/// Every policy's name, comma-separated, for unknown-name errors.
fn known_names() -> String {
    ScheduleKind::ALL.map(|k| k.name()).join(", ")
}

impl fmt::Debug for ScheduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

impl fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Serialize for ScheduleKind {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::String(self.wire_name().to_string())
    }
}

impl Deserialize for ScheduleKind {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        match v {
            serde::Value::String(s) => ScheduleKind::from_name(s).map_err(|_| {
                serde::de::Error::new(format!(
                    "unknown schedule `{s}` for ScheduleKind (known: {})",
                    known_names()
                ))
            }),
            other => Err(serde::de::Error::expected("string for ScheduleKind", other)),
        }
    }
}

/// Megatron 1F1B order for one stage: `P − s − 1` warm-up forwards, a
/// steady phase alternating forward/backward, then cool-down
/// backwards.
fn one_f_one_b_order(stage: u32, num_stages: u32, m: u32) -> Vec<ScheduleItem> {
    let warmup = (num_stages - stage - 1).min(m);
    let mut order = Vec::with_capacity(2 * m as usize);
    for mb in 0..warmup {
        order.push(ScheduleItem::Forward { mb });
    }
    let steady = m - warmup;
    for i in 0..steady {
        order.push(ScheduleItem::Forward { mb: warmup + i });
        order.push(ScheduleItem::Backward { mb: i });
    }
    for mb in steady..m {
        order.push(ScheduleItem::Backward { mb });
    }
    order
}

/// GPipe order: all forwards, then all backwards.
fn gpipe_order(m: u32) -> Vec<ScheduleItem> {
    (0..m)
        .map(|mb| ScheduleItem::Forward { mb })
        .chain((0..m).map(|mb| ScheduleItem::Backward { mb }))
        .collect()
}

/// ZB-H1 order for one stage: the 1F1B skeleton with weight-grad
/// items filling the cool-down (one `W` after each cool-down `B`) and
/// the remainder draining at the end. Dropping the `W` items yields
/// exactly the 1F1B order — replay paths rely on this.
fn zb_h1_order(stage: u32, num_stages: u32, m: u32) -> Vec<ScheduleItem> {
    let warmup = (num_stages - stage - 1).min(m);
    let steady = m - warmup;
    let mut order = Vec::with_capacity(3 * m as usize);
    for mb in 0..warmup {
        order.push(ScheduleItem::Forward { mb });
    }
    for i in 0..steady {
        order.push(ScheduleItem::Forward { mb: warmup + i });
        order.push(ScheduleItem::Backward { mb: i });
    }
    for mb in steady..m {
        order.push(ScheduleItem::Backward { mb });
        order.push(ScheduleItem::WeightGrad { mb: mb - steady });
    }
    for mb in warmup..m {
        order.push(ScheduleItem::WeightGrad { mb });
    }
    order
}

/// Interleaved 1F1B's bubble fraction with `v` model chunks per rank
/// under equal per-chunk stage times: `((p−1)/v) / (m + (p−1)/v)` —
/// the Narayanan et al. result that interleaving divides the bubble
/// by `v`.
fn interleaved_bubble(p: u32, v: u32, m: u32) -> f64 {
    let bubble = (p as f64 - 1.0) / v as f64;
    bubble / (m as f64 + bubble)
}

/// Interleaved 1F1B's extra pipeline-communication factor vs plain
/// 1F1B: every micro-batch crosses `p·v − 1` stage boundaries instead
/// of `p − 1`.
fn interleaved_comm_amplification(p: u32, v: u32) -> f64 {
    let p = p as f64;
    if p <= 1.0 {
        return 1.0;
    }
    (p * v as f64 - 1.0) / (p - 1.0)
}

/// A complete pipeline schedule: for each stage, the order in which it
/// executes micro-batch forward and backward passes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineSchedule {
    kind: ScheduleKind,
    num_stages: u32,
    num_microbatches: u32,
    stages: Vec<Vec<ScheduleItem>>,
}

impl PipelineSchedule {
    /// Generates a schedule from the policy's order for every stage.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptySchedule`] when `num_stages` or
    /// `num_microbatches` is zero.
    pub fn generate(
        kind: ScheduleKind,
        num_stages: u32,
        num_microbatches: u32,
    ) -> Result<Self, ModelError> {
        if num_stages == 0 || num_microbatches == 0 {
            return Err(ModelError::EmptySchedule);
        }
        let stages = (0..num_stages)
            .map(|s| kind.stage_order(s, num_stages, num_microbatches))
            .collect();
        let schedule = PipelineSchedule {
            kind,
            num_stages,
            num_microbatches,
            stages,
        };
        schedule
            .validate()
            .expect("generated schedules are always valid");
        Ok(schedule)
    }

    /// The policy used.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> u32 {
        self.num_stages
    }

    /// Number of micro-batches per iteration.
    pub fn num_microbatches(&self) -> u32 {
        self.num_microbatches
    }

    /// The execution order of a stage.
    pub fn stage(&self, stage: u32) -> Option<&[ScheduleItem]> {
        self.stages.get(stage as usize).map(Vec::as_slice)
    }

    /// Iterates over `(stage, order)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[ScheduleItem])> {
        self.stages
            .iter()
            .enumerate()
            .map(|(s, v)| (s as u32, v.as_slice()))
    }

    /// Validates schedule safety and completeness:
    ///
    /// * every stage runs every micro-batch exactly once forward and
    ///   once backward (plus exactly one weight-grad for
    ///   split-backward policies, and none otherwise);
    /// * forwards appear in micro-batch order, as do backwards and
    ///   weight-grads;
    /// * on every stage, `B(i)` comes after `F(i)` and `W(i)` after
    ///   `B(i)`;
    /// * the number of in-flight micro-batches on stage `s` never
    ///   exceeds the policy's own bound
    ///   ([`ScheduleKind::in_flight`]; `P − s` for 1F1B and ZB-H1,
    ///   unbounded-up-to-`M` for GPipe).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSchedule`] describing the first
    /// violation.
    pub fn validate(&self) -> Result<(), ModelError> {
        let m = self.num_microbatches;
        let expected_w = if self.kind.split_backward() { m } else { 0 };
        for (s, order) in self.iter() {
            let mut next_f = 0u32;
            let mut next_b = 0u32;
            let mut next_w = 0u32;
            let mut in_flight = 0i64;
            let mut max_in_flight = 0i64;
            for item in order {
                match item {
                    ScheduleItem::Forward { mb } => {
                        if *mb != next_f {
                            return Err(ModelError::InvalidSchedule {
                                reason: format!("stage {s}: expected F{next_f}, found F{mb}"),
                            });
                        }
                        next_f += 1;
                        in_flight += 1;
                        max_in_flight = max_in_flight.max(in_flight);
                    }
                    ScheduleItem::Backward { mb } => {
                        if *mb != next_b {
                            return Err(ModelError::InvalidSchedule {
                                reason: format!("stage {s}: expected B{next_b}, found B{mb}"),
                            });
                        }
                        if *mb >= next_f {
                            return Err(ModelError::InvalidSchedule {
                                reason: format!("stage {s}: B{mb} precedes its forward"),
                            });
                        }
                        next_b += 1;
                        in_flight -= 1;
                    }
                    ScheduleItem::WeightGrad { mb } => {
                        if *mb != next_w {
                            return Err(ModelError::InvalidSchedule {
                                reason: format!("stage {s}: expected W{next_w}, found W{mb}"),
                            });
                        }
                        if *mb >= next_b {
                            return Err(ModelError::InvalidSchedule {
                                reason: format!("stage {s}: W{mb} precedes its backward"),
                            });
                        }
                        next_w += 1;
                    }
                }
            }
            if next_f != m || next_b != m {
                return Err(ModelError::InvalidSchedule {
                    reason: format!(
                        "stage {s}: ran {next_f} forwards / {next_b} backwards, expected {m}"
                    ),
                });
            }
            if next_w != expected_w {
                return Err(ModelError::InvalidSchedule {
                    reason: format!("stage {s}: ran {next_w} weight-grads, expected {expected_w}"),
                });
            }
            let bound = self.kind.in_flight(self.num_stages, s, m) as i64;
            if max_in_flight > bound {
                return Err(ModelError::InvalidSchedule {
                    reason: format!(
                        "stage {s}: {max_in_flight} micro-batches in flight exceeds {} bound {bound}",
                        self.kind.name()
                    ),
                });
            }
        }
        Ok(())
    }

    /// The analytic pipeline bubble fraction of this schedule under
    /// equal stage times (`(P-1)/(M+P-1)` for 1F1B and GPipe;
    /// policy-specific otherwise).
    pub fn bubble_fraction(&self) -> f64 {
        self.kind
            .analytic_bubble(self.num_stages, self.num_microbatches)
    }

    /// The 1F1B/GPipe bubble `(P-1)/(M+P-1)` without generating the
    /// schedule — for planners and cost bounds that only need the
    /// number (the formula is shared by every unsplit
    /// single-chunk policy).
    pub fn analytic_bubble(num_stages: u32, num_microbatches: u32) -> f64 {
        let p = num_stages as f64;
        let m = num_microbatches as f64;
        (p - 1.0) / (m + p - 1.0)
    }

    /// Compact rendering of one stage's order (e.g.
    /// `F0 F1 B0 F2 B1 B2`), used in diagnostics and docs.
    pub fn stage_string(&self, stage: u32) -> String {
        self.stage(stage)
            .map(|items| {
                items
                    .iter()
                    .map(ScheduleItem::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure4_orders() {
        // Figure 4 (original): PP=4, M=8, stage 0 reads
        // F1 F2 F3 F4 B1 F5 B2 F6 B3 F7 B4 F8 B5 B6 B7 B8 (1-based).
        let s = PipelineSchedule::generate(ScheduleKind::OneFOneB, 4, 8).unwrap();
        assert_eq!(
            s.stage_string(0),
            "F0 F1 F2 F3 B0 F4 B1 F5 B2 F6 B3 F7 B4 B5 B6 B7"
        );
        // Figure 4 (2x PP): PP=2, M=4... the paper keeps M=8 for the
        // original but scales to the TPxPP convention for the 2x row:
        // F1 F2 B1 F3 B2 F4 B3 B4 (1-based) at PP=2, M=4.
        let s2 = PipelineSchedule::generate(ScheduleKind::OneFOneB, 2, 4).unwrap();
        assert_eq!(s2.stage_string(0), "F0 F1 B0 F2 B1 F3 B2 B3");
    }

    #[test]
    fn last_stage_is_strictly_alternating() {
        let s = PipelineSchedule::generate(ScheduleKind::OneFOneB, 4, 6).unwrap();
        let last = s.stage(3).unwrap();
        // Warm-up of 0: F0 B0 F1 B1 ...
        for (i, item) in last.iter().enumerate() {
            if i % 2 == 0 {
                assert!(item.is_forward());
            } else {
                assert!(!item.is_forward());
            }
            assert_eq!(item.mb(), (i / 2) as u32);
        }
    }

    #[test]
    fn fewer_microbatches_than_stages() {
        // M < P: warm-up saturates at M.
        let s = PipelineSchedule::generate(ScheduleKind::OneFOneB, 8, 2).unwrap();
        assert_eq!(s.stage_string(0), "F0 F1 B0 B1");
        s.validate().unwrap();
    }

    #[test]
    fn gpipe_all_f_then_all_b() {
        let s = PipelineSchedule::generate(ScheduleKind::GPipe, 4, 3).unwrap();
        assert_eq!(s.stage_string(2), "F0 F1 F2 B0 B1 B2");
    }

    #[test]
    fn zb_h1_fills_cooldown_with_weight_grads() {
        let s = PipelineSchedule::generate(ScheduleKind::ZbH1, 4, 8).unwrap();
        // Stage 0: 1F1B skeleton with W's after each cool-down B and
        // the rest draining at the end.
        assert_eq!(
            s.stage_string(0),
            "F0 F1 F2 F3 B0 F4 B1 F5 B2 F6 B3 F7 B4 B5 W0 B6 W1 B7 W2 W3 W4 W5 W6 W7"
        );
        // Last stage: strict 1F1B alternation, then the W drain.
        assert_eq!(
            s.stage_string(3),
            "F0 B0 F1 B1 F2 B2 F3 B3 F4 B4 F5 B5 F6 B6 F7 B7 \
             W0 W1 W2 W3 W4 W5 W6 W7"
        );
    }

    #[test]
    fn empty_inputs_rejected() {
        assert_eq!(
            PipelineSchedule::generate(ScheduleKind::OneFOneB, 0, 4),
            Err(ModelError::EmptySchedule)
        );
        assert_eq!(
            PipelineSchedule::generate(ScheduleKind::OneFOneB, 4, 0),
            Err(ModelError::EmptySchedule)
        );
    }

    #[test]
    fn bubble_fraction_shrinks_with_microbatches() {
        let few = PipelineSchedule::generate(ScheduleKind::OneFOneB, 4, 4).unwrap();
        let many = PipelineSchedule::generate(ScheduleKind::OneFOneB, 4, 64).unwrap();
        assert!(few.bubble_fraction() > many.bubble_fraction());
        let single = PipelineSchedule::generate(ScheduleKind::OneFOneB, 1, 4).unwrap();
        assert_eq!(single.bubble_fraction(), 0.0);
    }

    #[test]
    fn validator_rejects_bad_orders() {
        let mut s = PipelineSchedule::generate(ScheduleKind::OneFOneB, 2, 2).unwrap();
        // Swap first two items of stage 0 to break forward ordering.
        s.stages[0].swap(0, 1);
        assert!(matches!(
            s.validate(),
            Err(ModelError::InvalidSchedule { .. })
        ));
    }

    #[test]
    fn validator_rejects_backward_before_forward() {
        let s = PipelineSchedule {
            kind: ScheduleKind::OneFOneB,
            num_stages: 1,
            num_microbatches: 1,
            stages: vec![vec![
                ScheduleItem::Backward { mb: 0 },
                ScheduleItem::Forward { mb: 0 },
            ]],
        };
        assert!(matches!(
            s.validate(),
            Err(ModelError::InvalidSchedule { .. })
        ));
    }

    #[test]
    fn validator_rejects_weight_grad_before_backward() {
        let s = PipelineSchedule {
            kind: ScheduleKind::ZbH1,
            num_stages: 1,
            num_microbatches: 1,
            stages: vec![vec![
                ScheduleItem::Forward { mb: 0 },
                ScheduleItem::WeightGrad { mb: 0 },
                ScheduleItem::Backward { mb: 0 },
            ]],
        };
        assert!(matches!(
            s.validate(),
            Err(ModelError::InvalidSchedule { .. })
        ));
    }

    #[test]
    fn validator_rejects_weight_grads_in_unsplit_schedules() {
        let s = PipelineSchedule {
            kind: ScheduleKind::OneFOneB,
            num_stages: 1,
            num_microbatches: 1,
            stages: vec![vec![
                ScheduleItem::Forward { mb: 0 },
                ScheduleItem::Backward { mb: 0 },
                ScheduleItem::WeightGrad { mb: 0 },
            ]],
        };
        assert!(matches!(
            s.validate(),
            Err(ModelError::InvalidSchedule { .. })
        ));
    }

    #[test]
    fn one_f_one_b_respects_memory_bound() {
        // In-flight micro-batches on stage s never exceed P - s; this
        // is 1F1B's reason to exist (and ZB-H1 keeps the same bound).
        for p in 1..6 {
            for m in 1..10 {
                for kind in [ScheduleKind::OneFOneB, ScheduleKind::ZbH1] {
                    let s = PipelineSchedule::generate(kind, p, m).unwrap();
                    s.validate().unwrap();
                }
            }
        }
    }

    #[test]
    fn kind_round_trips_through_serde() {
        for kind in ScheduleKind::ALL {
            let v = kind.serialize_value();
            assert_eq!(ScheduleKind::deserialize_value(&v).unwrap(), kind);
        }
        // Legacy artifacts hold the old derived enum encoding.
        for (wire, kind) in [
            ("OneFOneB", ScheduleKind::OneFOneB),
            ("GPipe", ScheduleKind::GPipe),
        ] {
            let v = serde::Value::String(wire.to_string());
            assert_eq!(ScheduleKind::deserialize_value(&v).unwrap(), kind);
            assert_eq!(kind.serialize_value(), v);
        }
        let bogus = serde::Value::String("pipedream".to_string());
        let err = ScheduleKind::deserialize_value(&bogus).unwrap_err();
        assert!(err.to_string().contains("1f1b"), "{err}");
    }

    #[test]
    fn names_and_wire_names_resolve() {
        for (name, kind) in [
            ("1f1b", ScheduleKind::OneFOneB),
            ("OneFOneB", ScheduleKind::OneFOneB),
            ("gpipe", ScheduleKind::GPipe),
            ("GPipe", ScheduleKind::GPipe),
            ("zb-h1", ScheduleKind::ZbH1),
        ] {
            assert_eq!(ScheduleKind::from_name(name), Ok(kind), "{name}");
        }
    }

    #[test]
    fn unknown_name_lists_the_known_set() {
        let err = ScheduleKind::from_name("bogus").unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown schedule `bogus` (known: 1f1b, gpipe, zb-h1)"
        );
    }

    #[test]
    fn zb_h1_drops_to_one_f_one_b_skeleton() {
        for p in 1..6u32 {
            for m in 1..10u32 {
                for s in 0..p {
                    let zb: Vec<_> = ScheduleKind::ZbH1
                        .stage_order(s, p, m)
                        .into_iter()
                        .filter(|i| !matches!(i, ScheduleItem::WeightGrad { .. }))
                        .collect();
                    assert_eq!(zb, one_f_one_b_order(s, p, m), "p={p} m={m} s={s}");
                }
            }
        }
    }

    #[test]
    fn zb_h1_bubble_beats_one_f_one_b() {
        let zb = ScheduleKind::ZbH1.analytic_bubble(4, 8);
        let plain = PipelineSchedule::analytic_bubble(4, 8);
        assert!(zb < plain, "{zb} vs {plain}");
        assert!((zb - 3.0 / 27.0).abs() < 1e-12);
    }

    #[test]
    fn adjustment_matches_interleave_formula() {
        let one_f_one_b = ScheduleKind::OneFOneB;
        let adj = one_f_one_b.replay_adjustment(4, 8, 2).expect("interleaved");
        assert_eq!(adj.skeleton_bubble, PipelineSchedule::analytic_bubble(4, 8));
        assert_eq!(adj.target_bubble, interleaved_bubble(4, 2, 8));
        assert_eq!(adj.comm_amplification, 7.0 / 3.0);
        assert_eq!(one_f_one_b.engine_adjustment(4, 8, 2), Some(adj));
        assert!(one_f_one_b.replay_adjustment(4, 8, 1).is_none());
        assert!(ScheduleKind::GPipe.replay_adjustment(4, 8, 2).is_none());
        assert!(ScheduleKind::GPipe.engine_adjustment(4, 8, 2).is_none());
    }

    #[test]
    fn zb_adjustment_rescales_makespan_down() {
        let zb = ScheduleKind::ZbH1;
        let adj = zb.replay_adjustment(4, 8, 1).expect("zb adjusts replay");
        assert!(!adj.is_degenerate());
        let adjusted = adj.apply_secs(11.0, 0.0);
        // 11 s of 1F1B-shaped time = 8 s of work; ZB-H1 runs it in
        // 8 / (1 - 3/27) = 9 s.
        assert!((adjusted - 9.0).abs() < 1e-9, "{adjusted}");
        assert!(zb.engine_adjustment(4, 8, 1).is_none());
    }

    #[test]
    fn interleaving_shrinks_the_bubble_and_amplifies_comm() {
        let plain = PipelineSchedule::analytic_bubble(4, 8);
        // One chunk per rank is plain 1F1B.
        assert_eq!(interleaved_bubble(4, 1, 8), plain);
        assert!(interleaved_bubble(4, 2, 8) < plain);
        assert!(interleaved_bubble(4, 4, 8) < interleaved_bubble(4, 2, 8));
        // (4*2 - 1)/(4 - 1) = 7/3; a single stage sends nothing.
        assert!((interleaved_comm_amplification(4, 2) - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(interleaved_comm_amplification(1, 4), 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn generated_schedules_always_validate(
            p in 1u32..12,
            m in 1u32..24,
            kind in prop_oneof![
                Just(ScheduleKind::OneFOneB),
                Just(ScheduleKind::GPipe),
                Just(ScheduleKind::ZbH1),
            ],
        ) {
            let s = PipelineSchedule::generate(kind, p, m).unwrap();
            prop_assert!(s.validate().is_ok());
            // Every stage has 2*m items (3*m for split-backward kinds).
            let per_mb = if kind.split_backward() { 3 } else { 2 };
            for (_, order) in s.iter() {
                prop_assert_eq!(order.len(), per_mb * m as usize);
            }
        }

        /// The interleaved bubble falls as chunks or micro-batches
        /// are added.
        #[test]
        fn interleaved_bubble_monotone(p in 2u32..6, v in 2u32..5, groups in 1u32..4) {
            let m = p * groups;
            let base = interleaved_bubble(p, v, m);
            prop_assert!(interleaved_bubble(p, v + 1, m) < base);
            prop_assert!(interleaved_bubble(p, v, m + p) < base);
        }

        #[test]
        fn global_dependency_feasibility(
            p in 1u32..8,
            m in 1u32..16,
            kind in prop_oneof![
                Just(ScheduleKind::OneFOneB),
                Just(ScheduleKind::ZbH1),
            ],
        ) {
            // A schedule is globally feasible if executing stages
            // concurrently never deadlocks: simulate with unit-time
            // items and cross-stage readiness.
            let s = PipelineSchedule::generate(kind, p, m).unwrap();
            let mut pos = vec![0usize; p as usize];
            // fwd_done[s][mb], bwd_done[s][mb]
            let mut fwd_done = vec![vec![false; m as usize]; p as usize];
            let mut bwd_done = vec![vec![false; m as usize]; p as usize];
            let per_mb = if kind.split_backward() { 3 } else { 2 };
            let total: usize = per_mb * (p * m) as usize;
            let mut done = 0usize;
            let mut progressed = true;
            while done < total {
                prop_assert!(progressed, "schedule deadlocked");
                progressed = false;
                for stage in 0..p as usize {
                    let order = s.stage(stage as u32).unwrap();
                    if pos[stage] >= order.len() {
                        continue;
                    }
                    let item = order[pos[stage]];
                    let ready = match item {
                        ScheduleItem::Forward { mb } => {
                            stage == 0 || fwd_done[stage - 1][mb as usize]
                        }
                        ScheduleItem::Backward { mb } => {
                            if stage + 1 == p as usize {
                                fwd_done[stage][mb as usize]
                            } else {
                                bwd_done[stage + 1][mb as usize]
                            }
                        }
                        // Weight-grad only needs this stage's own
                        // input-grad pass.
                        ScheduleItem::WeightGrad { mb } => bwd_done[stage][mb as usize],
                    };
                    if ready {
                        match item {
                            ScheduleItem::Forward { mb } => fwd_done[stage][mb as usize] = true,
                            ScheduleItem::Backward { mb } => bwd_done[stage][mb as usize] = true,
                            ScheduleItem::WeightGrad { .. } => {}
                        }
                        pos[stage] += 1;
                        done += 1;
                        progressed = true;
                    }
                }
            }
        }
    }
}
