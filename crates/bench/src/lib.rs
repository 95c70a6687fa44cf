//! Experiment harness reproducing every table and figure of the Lumos
//! paper.
//!
//! Each binary in `src/bin/` regenerates one artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `tab1_models` | Table 1 (model architectures + parameter counts) |
//! | `tab2_variants` | Table 2 (architecture variants) |
//! | `fig1_breakdown` | Figure 1 (GPT-3 175B breakdown, dPRO vs actual) |
//! | `fig5_replay` | Figure 5 (replay accuracy, 4 models × 6 configs) |
//! | `fig6_sm_util` | Figure 6 (SM-utilization timeline) |
//! | `fig7_parallelism` | Figure 7a/b/c (parallelism-scaling prediction) |
//! | `fig8_arch` | Figure 8 (architecture-variant prediction) |
//! | `summary` | §4.2 headline (average replay error) |
//! | `experiments` | all of the above → writes `EXPERIMENTS.md` |
//! | `ablation` | which dependency mechanism buys the replay accuracy |
//! | `calibrate` | dPRO inter-stream candidate models (not a paper artifact) |
//!
//! The harness profiles one jittered iteration of the ground-truth
//! engine ("collecting a Kineto trace"), measures iteration time as
//! the mean of further jittered iterations ("actual", run metrics-only
//! since only their makespans are read), then replays the profiled
//! trace with Lumos and with the dPRO baseline and compares.
//!
//! The crate reports accuracy, not speed: performance is measured by
//! `perfbench/` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod paper;
pub mod table;

pub use harness::{
    measure_actual, predict_from, predict_from_calibrated, profile_calibrated, profile_config,
    replay_experiment, CalibratedBase, ConfigResult, PredictionResult, RunOptions,
};
pub use paper::PaperError;

/// Unwraps a bench-binary result, printing the error to stderr and
/// exiting with status 2 instead of panicking with a backtrace.
pub fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
