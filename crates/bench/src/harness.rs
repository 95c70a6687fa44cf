//! Experiment runner: ground truth vs Lumos vs dPRO.
//!
//! Prediction experiments run calibrate-once: each base trace is
//! profiled and fitted into a [`CalibrationArtifact`] exactly one
//! time per process ([`profile_calibrated`] memoizes it), and every
//! prediction from that trace reuses the artifact's tables and block
//! library instead of re-ingesting — across all figures that share a
//! base (Figure 7a/b/c, Figure 8, and the extension studies all start
//! from the same 15B 2x2x4 trace).

use lumos_calib::CalibrationArtifact;
use lumos_cluster::{EngineOutput, GroundTruthCluster, JitterModel, SimConfig};
use lumos_core::manipulate::Transform;
use lumos_core::{Dpro, Lumos};
use lumos_cost::AnalyticalCostModel;
use lumos_trace::{Breakdown, BreakdownExt, ClusterTrace, Dur};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Knobs shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Jitter seed (the "cluster" this run happens on).
    pub seed: u64,
    /// Iterations averaged into the "actual" measurement (beyond the
    /// profiled one).
    pub measured_iters: usize,
    /// Micro-batch override (`None` = `2 × PP`).
    pub microbatches: Option<u32>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 2025,
            measured_iters: 2,
            microbatches: None,
        }
    }
}

/// Ground-truth artifacts for one configuration.
pub struct Profiled {
    /// The configuration that ran.
    pub config: SimConfig,
    /// The profiled iteration's trace (iteration 0).
    pub output: EngineOutput,
    /// Mean measured iteration time over further iterations.
    pub actual: Dur,
    /// Breakdown of the profiled iteration.
    pub actual_breakdown: Breakdown,
}

/// The jittered ground-truth cluster `config` runs on.
fn cluster(config: &SimConfig, opts: &RunOptions) -> GroundTruthCluster<AnalyticalCostModel> {
    // Each configuration is its own "job" on the cluster: diversify
    // the jitter seed so per-iteration drift is independent across
    // configs (otherwise every row would share one drift sample and
    // replay errors would be perfectly correlated).
    let mut seed = opts.seed;
    for b in config.label().bytes() {
        seed = seed.wrapping_mul(0x100000001b3).wrapping_add(b as u64);
    }
    GroundTruthCluster::new(config, AnalyticalCostModel::h100())
        .expect("experiment configuration must be valid")
        .with_jitter(JitterModel::realistic(seed))
}

/// Profiles one jittered iteration of `config` and measures the mean
/// over `opts.measured_iters` more iterations. Only the profiled
/// iteration builds a trace; the measured ones run metrics-only.
///
/// # Panics
///
/// Panics on invalid configurations or engine failures (experiment
/// configurations are static and must be valid).
pub fn profile_config(config: &SimConfig, opts: &RunOptions) -> Profiled {
    let cluster = cluster(config, opts);
    let output = cluster.profile_iteration(0).expect("engine completes");
    let mut total = Dur::ZERO;
    let mut n = 0u64;
    for i in 0..opts.measured_iters {
        total += cluster
            .metrics_iteration(1 + i as u64)
            .expect("engine completes")
            .makespan;
        n += 1;
    }
    let actual = if n == 0 { output.makespan } else { total / n };
    let actual_breakdown = output.trace.breakdown();
    Profiled {
        config: config.clone(),
        output,
        actual,
        actual_breakdown,
    }
}

/// Just the mean measured iteration time of a configuration (used to
/// validate predictions).
pub fn measure_actual(config: &SimConfig, opts: &RunOptions) -> (Dur, Breakdown) {
    let p = profile_config(config, opts);
    (p.actual, p.actual_breakdown)
}

/// A profiled base and its fitted calibration artifact — everything a
/// prediction experiment needs, shared across every figure that
/// starts from the same trace. The raw trace is deliberately *not*
/// retained: the artifact's tables + block library answer every
/// prediction, and the memo pins these for the process lifetime.
pub struct CalibratedBase {
    /// The configuration that ran.
    pub config: SimConfig,
    /// Mean measured iteration time.
    pub actual: Dur,
    /// Breakdown of the profiled iteration.
    pub actual_breakdown: Breakdown,
    /// The calibration fitted from the trace (tables + block library).
    pub artifact: CalibrationArtifact,
}

/// Process-wide calibration memo: one artifact per distinct
/// (configuration, run options) pair.
static CALIBRATION_MEMO: OnceLock<Mutex<HashMap<String, Arc<CalibratedBase>>>> = OnceLock::new();

fn memo_key(config: &SimConfig, opts: &RunOptions) -> String {
    // The full serialized setup disambiguates configurations that
    // share a label but differ in batching or scheduling.
    format!(
        "{}|seed={}|iters={}|mb={:?}",
        serde_json::to_string(config).expect("setups serialize"),
        opts.seed,
        opts.measured_iters,
        opts.microbatches
    )
}

/// [`profile_config`] plus a fitted [`CalibrationArtifact`], memoized
/// process-wide: the first call for a configuration profiles and
/// calibrates; every later call (same figure or another one) gets the
/// shared result without re-profiling or re-fitting.
///
/// # Panics
///
/// Panics on invalid configurations or engine failures (experiment
/// configurations are static and must be valid).
pub fn profile_calibrated(config: &SimConfig, opts: &RunOptions) -> Arc<CalibratedBase> {
    let memo = CALIBRATION_MEMO.get_or_init(Default::default);
    let key = memo_key(config, opts);
    // The lock is held across the profile + fit so concurrent callers
    // for the same configuration cannot both do the expensive work
    // (and every caller provably gets the same Arc).
    let mut memo = memo.lock().expect("calibration memo");
    if let Some(hit) = memo.get(&key).cloned() {
        return hit;
    }
    let profiled = profile_config(config, opts);
    let artifact = CalibrationArtifact::calibrate(&profiled.output.trace, config, "h100", 8)
        .expect("experiment traces are annotated");
    let base = Arc::new(CalibratedBase {
        config: config.clone(),
        actual: profiled.actual,
        actual_breakdown: profiled.actual_breakdown,
        artifact,
    });
    memo.insert(key, Arc::clone(&base));
    base
}

/// One row of Figure 5: actual vs Lumos vs dPRO for a configuration.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// `TPxPPxDP` label.
    pub label: String,
    /// Mean measured iteration time.
    pub actual: Dur,
    /// Breakdown of the profiled iteration.
    pub actual_breakdown: Breakdown,
    /// Lumos replayed time.
    pub lumos: Dur,
    /// Lumos replayed breakdown.
    pub lumos_breakdown: Breakdown,
    /// dPRO replayed time.
    pub dpro: Dur,
    /// dPRO replayed breakdown.
    pub dpro_breakdown: Breakdown,
}

impl ConfigResult {
    /// Lumos replay error vs actual.
    pub fn lumos_error(&self) -> f64 {
        self.lumos.relative_error(self.actual)
    }

    /// dPRO replay error vs actual.
    pub fn dpro_error(&self) -> f64 {
        self.dpro.relative_error(self.actual)
    }
}

/// Runs the full replay comparison for one configuration.
pub fn replay_experiment(config: &SimConfig, opts: &RunOptions) -> ConfigResult {
    let profiled = profile_config(config, opts);
    let lumos = Lumos::new()
        .replay(&profiled.output.trace)
        .expect("replay succeeds");
    let dpro = Dpro::new()
        .replay(&profiled.output.trace)
        .expect("dpro replay succeeds");
    ConfigResult {
        label: config.parallelism.label(),
        actual: profiled.actual,
        actual_breakdown: profiled.actual_breakdown,
        lumos: lumos.makespan(),
        lumos_breakdown: lumos.breakdown(),
        dpro: dpro.makespan(),
        dpro_breakdown: dpro.breakdown(),
    }
}

/// One row of Figures 7/8: prediction vs fresh ground truth.
#[derive(Debug, Clone)]
pub struct PredictionResult {
    /// Target label (parallelism or variant name).
    pub label: String,
    /// Lumos-predicted iteration time.
    pub predicted: Dur,
    /// Predicted breakdown.
    pub predicted_breakdown: Breakdown,
    /// Fresh ground-truth iteration time at the target config.
    pub actual: Dur,
    /// Ground-truth breakdown.
    pub actual_breakdown: Breakdown,
}

impl PredictionResult {
    /// Prediction error vs actual.
    pub fn error(&self) -> f64 {
        self.predicted.relative_error(self.actual)
    }
}

/// Predicts `transforms` applied to the deployment behind
/// `base_trace`, then validates against a fresh ground-truth run of
/// the target configuration. Re-fits the calibration from the trace
/// on every call; prefer [`predict_from_calibrated`] when several
/// predictions share one base.
pub fn predict_from(
    base_trace: &ClusterTrace,
    base_config: &SimConfig,
    label: &str,
    transforms: &[Transform],
    opts: &RunOptions,
) -> PredictionResult {
    let prediction = Lumos::new()
        .predict(
            base_trace,
            base_config,
            transforms,
            AnalyticalCostModel::h100(),
        )
        .expect("prediction succeeds");
    let (actual, actual_breakdown) = measure_actual(&prediction.setup, opts);
    PredictionResult {
        label: label.to_string(),
        predicted: prediction.makespan(),
        predicted_breakdown: prediction.replayed.breakdown(),
        actual,
        actual_breakdown,
    }
}

/// [`predict_from`] against a memoized calibration: prices the target
/// through the shared artifact's tables and block library (no
/// per-prediction re-fit, bit-identical results), then validates
/// against a fresh ground-truth run.
pub fn predict_from_calibrated(
    base: &CalibratedBase,
    label: &str,
    transforms: &[Transform],
    opts: &RunOptions,
) -> PredictionResult {
    let fallback = AnalyticalCostModel::from_preset(&base.artifact.hardware)
        .expect("harness artifacts record a known hardware preset");
    let lookup = base.artifact.cost_model(fallback);
    let prediction = Lumos::new()
        .predict_with_library(&base.artifact.library, &base.config, transforms, &lookup)
        .expect("prediction succeeds");
    let (actual, actual_breakdown) = measure_actual(&prediction.setup, opts);
    PredictionResult {
        label: label.to_string(),
        predicted: prediction.makespan(),
        predicted_breakdown: prediction.replayed.breakdown(),
        actual,
        actual_breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind};

    fn tiny() -> SimConfig {
        SimConfig {
            model: ModelConfig::tiny(),
            parallelism: Parallelism::new(1, 2, 1).unwrap(),
            batch: BatchConfig {
                seq_len: 128,
                microbatch_size: 1,
                num_microbatches: 4,
            },
            schedule: ScheduleKind::OneFOneB,
        }
    }

    #[test]
    fn replay_experiment_produces_row() {
        let opts = RunOptions {
            seed: 7,
            measured_iters: 1,
            microbatches: None,
        };
        let row = replay_experiment(&tiny(), &opts);
        assert_eq!(row.label, "1x2x1");
        assert!(row.actual > Dur::ZERO);
        assert!(row.lumos_error() < 0.2);
        assert!(row.dpro <= row.lumos);
    }

    #[test]
    fn metrics_only_actual_equals_full_trace_mean() {
        // Differential test against the full-trace path the measured
        // iterations used to take.
        let opts = RunOptions {
            seed: 7,
            measured_iters: 3,
            microbatches: None,
        };
        let base = tiny();
        let traced = cluster(&base, &opts);
        let total: u64 = (1..=opts.measured_iters as u64)
            .map(|i| traced.profile_iteration(i).unwrap().makespan.as_ns())
            .sum();
        let actual = profile_config(&base, &opts).actual;
        assert_eq!(actual.as_ns(), total / opts.measured_iters as u64);
    }

    #[test]
    fn prediction_experiment_produces_row() {
        let opts = RunOptions {
            seed: 7,
            measured_iters: 1,
            microbatches: None,
        };
        let base = tiny();
        let profiled = profile_config(&base, &opts);
        let row = predict_from(
            &profiled.output.trace,
            &base,
            "1x2x2",
            &[Transform::DataParallel { dp: 2 }],
            &opts,
        );
        assert!(row.predicted > Dur::ZERO);
        assert!(row.error() < 0.25);
    }

    #[test]
    fn calibrated_prediction_is_bit_identical_and_memoized() {
        let opts = RunOptions {
            seed: 7,
            measured_iters: 1,
            microbatches: None,
        };
        let base = tiny();
        let calibrated = profile_calibrated(&base, &opts);
        // Memo hit: the same Arc comes back, no re-profile.
        let again = profile_calibrated(&base, &opts);
        assert!(Arc::ptr_eq(&calibrated, &again));

        let transforms = [Transform::DataParallel { dp: 2 }];
        // profile_config is deterministic per (config, seed), so this
        // re-profile reproduces the trace the calibration was fitted
        // from.
        let trace = profile_config(&base, &opts).output.trace;
        let fresh = predict_from(&trace, &base, "1x2x2", &transforms, &opts);
        let from_artifact = predict_from_calibrated(&calibrated, "1x2x2", &transforms, &opts);
        assert_eq!(fresh.predicted, from_artifact.predicted);
        assert_eq!(fresh.actual, from_artifact.actual);
        assert_eq!(
            fresh.predicted_breakdown.exposed_compute,
            from_artifact.predicted_breakdown.exposed_compute
        );
        assert_eq!(
            fresh.predicted_breakdown.exposed_comm,
            from_artifact.predicted_breakdown.exposed_comm
        );
    }
}
