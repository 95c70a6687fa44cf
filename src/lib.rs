//! # Lumos
//!
//! A trace-driven performance modeling and estimation toolkit for
//! large-scale LLM training — a from-scratch Rust reproduction of
//! *"Lumos: Efficient Performance Modeling and Estimation for
//! Large-scale LLM Training"* (MLSys 2025).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`trace`] — Kineto-style traces, Chrome Trace Format I/O,
//!   breakdown / SM-utilization / queue-delay analytics;
//! * [`model`] — GPT-3 architectures, 3D parallelism, operator IR
//!   (training and inference), pipeline schedules (1F1B, GPipe,
//!   ZB-H1; interleaved 1F1B as an adjustment), memory estimation,
//!   and MFU accounting;
//! * [`cost`] — H100/A100 hardware specs and kernel/collective cost
//!   models (ring and tree algorithm families);
//! * [`cluster`] — the ground-truth multi-rank execution engine
//!   (production-cluster substitute) that emits traces, for training
//!   iterations and inference request batches;
//! * [`core`] — the paper's contribution: execution-graph
//!   construction, Algorithm 1 replay, and graph manipulation
//!   (DP/PP/TP/layers/width/sequence-length transforms and what-if
//!   studies);
//! * [`calib`] — versioned, serializable calibration artifacts: fit
//!   the lookup tables and block library from a trace once
//!   (`lumos calibrate`), then answer predict/search/replay/mfu
//!   queries from the artifact without re-ingesting the trace;
//! * [`dpro`] — the dPRO baseline replayer;
//! * [`serve`] — the persistent estimation daemon behind
//!   `lumos serve`: a calibration-artifact registry with atomic hot
//!   reload, a bounded worker pool with load shedding and per-request
//!   deadlines, and a line-delimited JSON protocol over TCP whose
//!   `predict`/`search` responses are byte-identical to the CLI's
//!   `--json` output (see `examples/serve_client.rs`);
//! * [`search`] — the parallel what-if configuration-search engine:
//!   space descriptors, streaming enumeration, memory-feasibility
//!   pre-pruning, memoized stage costs with analytic lower-bound
//!   skipping, bounded top-k reports over million-candidate spaces
//!   with NaN-safe ranking and typed infeasibility reasons, and an
//!   optional second phase that executes the finals through the
//!   discrete-event engine (simulation-refined re-ranking with
//!   analytic-vs-simulated deltas and jitter-robustness statistics).
//!
//! A command-line interface over the same workflow ships as the
//! `lumos` binary in the `lumos-cli` crate.
//!
//! # Quickstart
//!
//! ```
//! use lumos::prelude::*;
//!
//! // 1. Describe a training job (GPT-3-tiny on 2 GPUs for the test).
//! let setup = TrainingSetup::new(ModelConfig::tiny(), Parallelism::new(1, 2, 1)?);
//!
//! // 2. Profile one iteration on the ground-truth cluster — in real
//! //    use this is a PyTorch Kineto trace loaded via
//! //    `lumos::trace::from_chrome_json`.
//! let cluster = GroundTruthCluster::new(&setup, AnalyticalCostModel::h100())?
//!     .with_jitter(JitterModel::realistic(42));
//! let profiled = cluster.profile_iteration(0)?;
//!
//! // 3. Replay the trace through Lumos's execution graph + simulator.
//! let replayed = Lumos::new().replay(&profiled.trace)?;
//! let error = replayed.makespan().relative_error(profiled.makespan);
//! assert!(error < 0.05);
//!
//! // 4. Ask a what-if question: how would 2× data parallelism run?
//! let prediction = Lumos::new().predict(
//!     &profiled.trace,
//!     &setup,
//!     &[Transform::DataParallel { dp: 2 }],
//!     AnalyticalCostModel::h100(),
//! )?;
//! assert!(prediction.makespan() > lumos::trace::Dur::ZERO);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lumos_calib as calib;
pub use lumos_cluster as cluster;
pub use lumos_core as core;
pub use lumos_cost as cost;
pub use lumos_model as model;
pub use lumos_search as search;
pub use lumos_serve as serve;
pub use lumos_trace as trace;

/// The dPRO baseline replayer, [`lumos_core::Dpro`], at its facade
/// path.
pub mod dpro {
    pub use lumos_core::Dpro;
}

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use lumos_calib::{CalibrationArtifact, TraceFingerprint};
    pub use lumos_cluster::{GroundTruthCluster, JitterModel, SimConfig};
    pub use lumos_core::manipulate::Transform;
    pub use lumos_core::Dpro;
    pub use lumos_core::{analysis, manipulate, Lumos, Replayed, SimOptions};
    pub use lumos_cost::{AnalyticalCostModel, CostModel, LookupCostModel};
    pub use lumos_model::{
        BatchConfig, ModelConfig, Parallelism, PipelineSchedule, ScheduleKind, TrainingSetup,
    };
    pub use lumos_search::{
        search as search_space, search_calibrated, Objective, SearchCalibration, SearchOptions,
        SearchReport, SpaceSpec,
    };
    pub use lumos_trace::{Breakdown, BreakdownExt, ClusterTrace, Dur, RankTrace, TraceEvent, Ts};
}
