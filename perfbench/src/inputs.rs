//! The benchmark's inputs: the two workloads' fixed definitions and
//! the generator that turns a workload seed into input files plus the
//! reference outputs every op is checked against.
//!
//! Everything here runs outside timing, in its own process, so its
//! allocations never show in a workload's peak RSS.

use crate::Fail;
use lumos_calib::{CalibrationArtifact, TraceFingerprint};
use lumos_cluster::{lower, FaultSpec, GroundTruthCluster, JitterModel, PreparedJob};
use lumos_core::manipulate::Transform;
use lumos_core::Lumos;
use lumos_cost::{AnalyticalCostModel, HostOverheads};
use lumos_model::{ModelConfig, Parallelism, TrainingSetup};
use lumos_search::{Objective, SearchOptions, SpaceSpec};
use lumos_trace::{to_chrome_json, Breakdown, ChromeTraceOptions};
use serde_json::{json, Value};
use std::path::Path;

/// Workload names, as the runner passes them.
pub const WORKLOADS: [&str; 2] = ["predict-replay", "robust-refine"];

/// The calibration artifact both workloads load.
pub const ARTIFACT_FILE: &str = "base.calib.json";
/// The generator's record of inputs and reference outputs.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Ground-truth iterations averaged into each accuracy reference
/// (iterations 1..=2, as in the paper's Figure 5 and 7 protocol).
const TRUTH_ITERS: u64 = 2;

/// The shared base of all workloads: GPT-3 15B profiled at 2x2x1 with
/// 4 micro-batches of sequence length 2048 (the base of
/// `examples/spaces/sweep.toml`).
pub fn base_setup() -> TrainingSetup {
    let par = Parallelism::new(2, 2, 1).expect("2x2x1 is a valid deployment");
    TrainingSetup::new(ModelConfig::gpt3_15b(), par)
}

/// predict-replay's targets as (tp, pp, dp, micro-batches): Figure 7
/// style scale-outs from 4 to 128 GPUs, plus one same-size target
/// (m=8) that has no rank symmetry to exploit.
pub const TARGETS: [(u32, u32, u32, u32); 8] = [
    (2, 2, 1, 8),
    (2, 2, 2, 4),
    (2, 4, 4, 4),
    (4, 2, 4, 4),
    (8, 8, 1, 4),
    (2, 4, 8, 4),
    (2, 8, 8, 4),
    (2, 4, 16, 4),
];

/// The transforms that turn the base into `target`.
pub fn transforms_for(
    base: &TrainingSetup,
    (tp, pp, dp, m): (u32, u32, u32, u32),
) -> Vec<Transform> {
    let mut t = Vec::new();
    if tp != base.parallelism.tp {
        t.push(Transform::TensorParallel { tp });
    }
    if pp != base.parallelism.pp {
        t.push(Transform::PipelineParallel { pp });
    }
    if dp != base.parallelism.dp {
        t.push(Transform::DataParallel { dp });
    }
    if m != base.batch.num_microbatches {
        t.push(Transform::Microbatches { num: m });
    }
    t
}

/// Label of a predict-replay target, e.g. `2x4x8 m=4`.
pub fn target_label((tp, pp, dp, m): (u32, u32, u32, u32)) -> String {
    format!("{tp}x{pp}x{dp} m={m}")
}

/// robust-refine's space and options: tp {1,2} × pp {1,2,4} × dp {1,2}
/// × micro-batches {4}, top 4, refined on the engine with verification,
/// 8 jitter replicas and 64 fault replicas, on one worker. The lattice
/// rejects the six tp=1 points (the base has TP collectives) and the
/// memory gate the two pp=1 points before any evaluation, so they cost
/// next to nothing; the four evaluated points are all refined.
pub fn refine_query(faults: FaultSpec) -> (SpaceSpec, SearchOptions) {
    let spec = SpaceSpec::deployment_grid(&[1, 2], &[1, 2, 4], &[1, 2]).with_microbatches(&[4]);
    let opts = SearchOptions {
        objective: Objective::Makespan,
        top_k: Some(4),
        threads: Some(1),
        refine_sim: true,
        verify: true,
        jitter_replicas: 8,
        fault_spec: Some(faults),
        fault_replicas: 64,
        ..SearchOptions::default()
    };
    (spec, opts)
}

/// predict-replay's traces: GPT-3 15B at four deployments and 44B at
/// two, as (model, tp, pp, dp).
pub fn replay_traces() -> Vec<(ModelConfig, u32, u32, u32)> {
    let (b15, b44) = (ModelConfig::gpt3_15b(), ModelConfig::gpt3_44b());
    vec![
        (b15.clone(), 2, 2, 1),
        (b15.clone(), 2, 2, 2),
        (b15.clone(), 2, 4, 1),
        (b15, 4, 2, 1),
        (b44.clone(), 4, 2, 1),
        (b44, 2, 4, 1),
    ]
}

/// Derives an independent jitter seed for one named job of a run, so
/// every target and trace has its own drift sample.
pub fn job_seed(seed: u64, label: &str) -> u64 {
    label.bytes().fold(seed ^ 0x9e37_79b9_7f4a_7c15, |s, b| {
        s.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(b))
    })
}

/// The seed-shuffled order of `n` inputs (Fisher–Yates over a
/// splitmix64 stream).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// A breakdown as its four components in nanoseconds.
pub fn breakdown_ns(b: &Breakdown) -> [u64; 4] {
    [
        b.exposed_compute.as_ns(),
        b.overlapped.as_ns(),
        b.exposed_comm.as_ns(),
        b.other.as_ns(),
    ]
}

/// The mean makespan in nanoseconds of ground-truth iterations
/// 1..=[`TRUTH_ITERS`] of `setup` under realistic jitter with `seed`,
/// or null when the generator runs without accuracy references.
fn ground_truth(setup: &TrainingSetup, seed: u64, accuracy: bool) -> Result<Value, Fail> {
    if !accuracy {
        return Ok(Value::Null);
    }
    let job = lower(setup)?;
    let prep = PreparedJob::new(&job)?;
    let cost = AnalyticalCostModel::h100();
    let jitter = JitterModel::realistic(seed);
    let mut total = 0u64;
    for i in 1..=TRUTH_ITERS {
        total += prep
            .execute_metrics(&cost, &HostOverheads::default(), &jitter, i)?
            .makespan
            .as_ns();
    }
    Ok(json!(total / TRUTH_ITERS))
}

/// Profiles the base at the workload seed and calibrates it into
/// `dir/base.calib.json`.
fn calibrate_base(seed: u64, dir: &Path) -> Result<CalibrationArtifact, Fail> {
    let base = base_setup();
    let trace = GroundTruthCluster::new(&base, AnalyticalCostModel::h100())?
        .with_jitter(JitterModel::realistic(seed))
        .profile_iteration(0)?
        .trace;
    let artifact = CalibrationArtifact::calibrate(&trace, &base, "h100", 8)?;
    artifact.save(dir.join(ARTIFACT_FILE))?;
    Ok(artifact)
}

/// Generates `workload`'s inputs and references for `seed` into `dir`;
/// with `accuracy`, also the ground truth each result is scored
/// against.
pub fn generate(
    workload: &str,
    seed: u64,
    dir: &Path,
    faults: &Path,
    accuracy: bool,
) -> Result<(), Fail> {
    let manifest = match workload {
        "predict-replay" => json!({
            "targets": gen_targets(seed, dir, accuracy)?,
            "traces": gen_traces(seed, dir, accuracy)?,
        }),
        "robust-refine" => {
            // Parsed here only to reject a bad spec before any timing.
            FaultSpec::parse(&std::fs::read_to_string(faults)?)?;
            calibrate_base(seed, dir)?;
            json!({})
        }
        other => return Err(format!("unknown workload `{other}`").into()),
    };
    let mut doc = manifest;
    if let Value::Object(map) = &mut doc {
        map.insert("workload".to_string(), json!(workload));
        map.insert("seed".to_string(), json!(seed));
    }
    std::fs::write(dir.join(MANIFEST_FILE), serde_json::to_string(&doc)?)?;
    Ok(())
}

fn gen_targets(seed: u64, dir: &Path, accuracy: bool) -> Result<Value, Fail> {
    let artifact = calibrate_base(seed, dir)?;
    let lookup = artifact.cost_model(AnalyticalCostModel::h100());
    let lumos = Lumos::new();
    let mut targets = Vec::new();
    for idx in shuffled(TARGETS.len(), seed) {
        let target = TARGETS[idx];
        let label = target_label(target);
        let transforms = transforms_for(&artifact.setup, target);
        let prediction =
            lumos.predict_with_library(&artifact.library, &artifact.setup, &transforms, &lookup)?;
        let truth = ground_truth(&prediction.setup, job_seed(seed, &label), accuracy)?;
        targets.push(json!({
            "target": idx,
            "label": label,
            "makespan_ns": prediction.makespan().as_ns(),
            "breakdown_ns": breakdown_ns(&prediction.replayed.breakdown()),
            "truth_ns": truth,
        }));
    }
    Ok(json!(targets))
}

fn gen_traces(seed: u64, dir: &Path, accuracy: bool) -> Result<Value, Fail> {
    let lumos = Lumos::new();
    let deployments = replay_traces();
    let mut traces = Vec::new();
    for (i, idx) in shuffled(deployments.len(), seed).into_iter().enumerate() {
        let (model, tp, pp, dp) = deployments[idx].clone();
        let setup = TrainingSetup::new(model, Parallelism::new(tp, pp, dp)?);
        let label = setup.label();
        let trace_seed = job_seed(seed, &label);
        let trace = GroundTruthCluster::new(&setup, AnalyticalCostModel::h100())?
            .with_jitter(JitterModel::realistic(trace_seed))
            .profile_iteration(0)?
            .trace;
        let file = format!("trace-{i}.json");
        let text = to_chrome_json(&trace, &ChromeTraceOptions::default());
        std::fs::write(dir.join(&file), &text)?;
        let replayed = lumos.replay(&trace)?;
        let fp = TraceFingerprint::of(&trace);
        traces.push(json!({
            "file": file,
            "label": label,
            "bytes": text.len(),
            "events": fp.events,
            "ranks": fp.ranks,
            "recorded_ns": fp.makespan.as_ns(),
            "replay_ns": replayed.makespan().as_ns(),
            "breakdown_ns": breakdown_ns(&replayed.breakdown()),
            "truth_ns": ground_truth(&setup, trace_seed, accuracy)?,
        }));
    }
    Ok(json!(traces))
}
