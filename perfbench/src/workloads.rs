//! The two closed-loop workloads: one client calling the public APIs
//! of `calib`, `core`, `search`, `cluster` and `trace` on one worker.
//!
//! Each workload has a set-up, an op list (one pass), an untraced op
//! that calls the facade a user would call, and a traced op that makes
//! the same calls step by step with a span around each. Both return
//! an [`OpOut`] whose digest the runner compares exactly: against the
//! generator's reference, across ops of one input, and between the
//! traced and the untraced op.

use crate::inputs::{
    base_setup, breakdown_ns, refine_query, transforms_for, ARTIFACT_FILE, MANIFEST_FILE, TARGETS,
};
use crate::spans::Spans;
use crate::Fail;
use lumos_calib::CalibrationArtifact;
use lumos_cluster::{
    lower, verify, FaultSpec, JitterModel, LoweredJob, MeasuredStats, PreparedJob,
};
use lumos_core::manipulate::{apply_transforms, plan, reassemble_with_library, Transform};
use lumos_core::{build_graph, simulate, Lumos};
use lumos_cost::{AnalyticalCostModel, CostModel, HostOverheads, LookupCostModel};
use lumos_model::{Parallelism, TrainingSetup};
use lumos_search::{
    search_calibrated, Candidate, CandidateResult, FaultStats, JitterStats, RefinedResult,
    SearchCalibration, SearchOptions, SearchReport, SpaceSpec,
};
use lumos_trace::{from_chrome_json, BreakdownExt, Dur};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// What one op produced, reduced to what the runner checks.
pub struct OpOut {
    /// Exact rendering of the op's result.
    pub digest: String,
    /// Deterministic work counters of the op.
    pub counters: Vec<(&'static str, u64)>,
    /// Accuracy of the op's result against the generator's ground
    /// truth, in percent.
    pub errs: Vec<f64>,
}

/// One workload: set-up, then ops over a fixed list of inputs.
pub trait Workload {
    /// Does the workload's set-up, replacing any earlier one.
    fn setup(&mut self, spans: Option<&mut Spans>) -> Result<(), Fail>;
    /// Inputs in one pass.
    fn len(&self) -> usize;
    /// Seconds one pass takes on the machine the benchmark was tuned
    /// on (2 cores, shared). It fixes how many whole passes a run of
    /// `--seconds` makes, so every run of the same length does
    /// identical work.
    fn pass_s(&self) -> f64;
    /// The generator's reference digest for input `i`, if it made one;
    /// otherwise the first op's digest is the reference.
    fn reference(&self, i: usize) -> Option<&str>;
    /// The untraced op on input `i`: the facade call a user makes.
    fn op(&self, i: usize) -> Result<OpOut, Fail>;
    /// The traced op on input `i`: the same work step by step, one
    /// span per public call.
    fn op_traced(&self, i: usize, spans: &mut Spans) -> Result<OpOut, Fail>;
}

/// Builds `workload` over the inputs the generator wrote to `dir`.
pub fn open(workload: &str, dir: &Path, faults: &Path) -> Result<Box<dyn Workload>, Fail> {
    let manifest: Value = serde_json::from_str(&std::fs::read_to_string(dir.join(MANIFEST_FILE))?)?;
    let list = |key: &str| -> Result<Vec<Value>, Fail> {
        Ok(manifest
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("manifest lacks `{key}`"))?
            .clone())
    };
    let artifact = dir.join(ARTIFACT_FILE);
    Ok(match workload {
        "predict-replay" => Box::new(PredictReplay::new(
            artifact,
            dir,
            &list("targets")?,
            &list("traces")?,
        )?),
        "robust-refine" => Box::new(Refine {
            artifact,
            faults: faults.to_path_buf(),
            state: None,
        }),
        other => return Err(format!("unknown workload `{other}`").into()),
    })
}

fn field_u64(v: &Value, key: &str) -> Result<u64, Fail> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("manifest entry lacks `{key}`").into())
}

fn field_str(v: &Value, key: &str) -> Result<String, Fail> {
    Ok(v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("manifest entry lacks `{key}`"))?
        .to_string())
}

fn field_breakdown(v: &Value) -> Result<[u64; 4], Fail> {
    let parts: Vec<u64> = v
        .get("breakdown_ns")
        .and_then(Value::as_array)
        .ok_or("manifest entry lacks `breakdown_ns`")?
        .iter()
        .filter_map(Value::as_u64)
        .collect();
    Ok(parts.try_into().map_err(|_| "bad `breakdown_ns`")?)
}

/// The ground truth of a manifest entry, present only in inputs
/// generated for the accuracy panel.
fn truth(v: &Value) -> Option<u64> {
    v.get("truth_ns").and_then(Value::as_u64)
}

/// Relative error in percent, when there is a ground truth to score
/// against.
fn err_pct(estimate: Dur, truth_ns: Option<u64>) -> Vec<f64> {
    truth_ns
        .map(|t| (estimate.as_ns() as f64 - t as f64).abs() / t as f64 * 100.0)
        .into_iter()
        .collect()
}

fn makespan_digest(makespan: Dur, breakdown: [u64; 4]) -> String {
    format!("{} {:?}", makespan.as_ns(), breakdown)
}

/// Loads the base calibration and its fallback cost model, as every
/// `--calib` invocation does.
fn load_artifact(
    path: &Path,
    spans: Option<&mut Spans>,
) -> Result<(CalibrationArtifact, AnalyticalCostModel), Fail> {
    let artifact = match spans {
        Some(s) => s.time("calib.load", || CalibrationArtifact::load(path))?,
        None => CalibrationArtifact::load(path)?,
    };
    let fallback = AnalyticalCostModel::from_preset(&artifact.hardware)
        .ok_or_else(|| format!("unknown hardware preset `{}`", artifact.hardware))?;
    Ok((artifact, fallback))
}

// ---------------------------------------------------------------- predict-replay

struct Target {
    transforms: Vec<Transform>,
    reference: String,
    truth_ns: Option<u64>,
}

struct TraceInput {
    path: PathBuf,
    bytes: u64,
    events: u64,
    ranks: u64,
    /// The makespan the trace records.
    recorded: Dur,
    reference: String,
    truth_ns: Option<u64>,
}

/// The core pipeline from both ends: predictions of scaled-out targets
/// from a calibration artifact, then replays of measured Chrome traces,
/// each replay starting from the file. Inputs `0..targets.len()` are
/// the targets; the traces follow.
struct PredictReplay {
    path: PathBuf,
    targets: Vec<Target>,
    traces: Vec<TraceInput>,
    lumos: Lumos,
    state: Option<(CalibrationArtifact, LookupCostModel<AnalyticalCostModel>)>,
}

impl PredictReplay {
    fn new(path: PathBuf, dir: &Path, targets: &[Value], traces: &[Value]) -> Result<Self, Fail> {
        let base = base_setup();
        let targets = targets
            .iter()
            .map(|e| {
                let target = *TARGETS
                    .get(field_u64(e, "target")? as usize)
                    .ok_or("target index out of range")?;
                Ok(Target {
                    transforms: transforms_for(&base, target),
                    reference: makespan_digest(
                        Dur(field_u64(e, "makespan_ns")?),
                        field_breakdown(e)?,
                    ),
                    truth_ns: truth(e),
                })
            })
            .collect::<Result<_, Fail>>()?;
        let traces = traces
            .iter()
            .map(|e| {
                Ok(TraceInput {
                    path: dir.join(field_str(e, "file")?),
                    bytes: field_u64(e, "bytes")?,
                    events: field_u64(e, "events")?,
                    ranks: field_u64(e, "ranks")?,
                    recorded: Dur(field_u64(e, "recorded_ns")?),
                    reference: makespan_digest(
                        Dur(field_u64(e, "replay_ns")?),
                        field_breakdown(e)?,
                    ),
                    truth_ns: truth(e),
                })
            })
            .collect::<Result<_, Fail>>()?;
        Ok(PredictReplay {
            path,
            targets,
            traces,
            lumos: Lumos::new(),
            state: None,
        })
    }

    fn state(&self) -> &(CalibrationArtifact, LookupCostModel<AnalyticalCostModel>) {
        self.state.as_ref().expect("set-up runs before ops")
    }

    fn predict(&self, t: &Target) -> Result<OpOut, Fail> {
        let (artifact, lookup) = self.state();
        let p = self.lumos.predict_with_library(
            &artifact.library,
            &artifact.setup,
            &t.transforms,
            lookup,
        )?;
        let breakdown = p.replayed.breakdown();
        Ok(OpOut {
            digest: makespan_digest(p.makespan(), breakdown_ns(&breakdown)),
            counters: vec![
                (
                    "core.ranks_simulated",
                    u64::from(p.setup.parallelism.world_size()),
                ),
                ("core.tasks_simulated", p.replayed.graph.len() as u64),
            ],
            errs: err_pct(p.makespan(), t.truth_ns),
        })
    }

    fn predict_traced(&self, t: &Target, spans: &mut Spans) -> Result<OpOut, Fail> {
        let (artifact, lookup) = self.state();
        let base = &artifact.setup;
        let (new, spec) = spans.time("core.plan", || -> Result<_, Fail> {
            let new = apply_transforms(base, &t.transforms)?;
            let spec = plan(base, &new);
            Ok((new, spec))
        })?;
        let trace = spans.time("core.reassemble", || {
            reassemble_with_library(&artifact.library, &spec, lookup)
        })?;
        let graph = spans.time("core.build_graph", || {
            build_graph(&trace, &self.lumos.build)
        })?;
        let result = spans.time("core.simulate", || simulate(&graph, &self.lumos.sim))?;
        let simulated = spans.time("core.to_trace", || result.to_trace(&graph, &trace.label));
        let breakdown = spans.time("trace.breakdown", || simulated.breakdown());
        let out = OpOut {
            digest: makespan_digest(result.makespan(), breakdown_ns(&breakdown)),
            counters: vec![
                (
                    "core.ranks_simulated",
                    u64::from(new.parallelism.world_size()),
                ),
                ("core.tasks_simulated", graph.len() as u64),
            ],
            errs: err_pct(result.makespan(), t.truth_ns),
        };
        spans.time("core.free", || drop((trace, graph, result, simulated)));
        Ok(out)
    }

    /// A replay's result, checked against what the trace records.
    fn replayed(
        t: &TraceInput,
        events: usize,
        ranks: usize,
        tasks: usize,
        makespan: Dur,
        b: [u64; 4],
    ) -> Result<OpOut, Fail> {
        if (events as u64, ranks as u64) != (t.events, t.ranks) {
            return Err(format!(
                "{}: parsed {events} events on {ranks} ranks, wrote {} on {}",
                t.path.display(),
                t.events,
                t.ranks
            )
            .into());
        }
        if makespan != t.recorded {
            return Err(format!(
                "{}: replayed {} ns, recorded {} ns",
                t.path.display(),
                makespan.as_ns(),
                t.recorded.as_ns()
            )
            .into());
        }
        Ok(OpOut {
            digest: makespan_digest(makespan, b),
            counters: vec![
                ("trace.events_parsed", events as u64),
                ("trace.bytes_parsed", t.bytes),
                ("core.ranks_simulated", ranks as u64),
                ("core.tasks_simulated", tasks as u64),
            ],
            errs: err_pct(makespan, t.truth_ns),
        })
    }

    fn replay(&self, t: &TraceInput) -> Result<OpOut, Fail> {
        let text = std::fs::read_to_string(&t.path)?;
        let trace = from_chrome_json(&text)?;
        let replayed = self.lumos.replay(&trace)?;
        let b = breakdown_ns(&replayed.breakdown());
        Self::replayed(
            t,
            trace.total_events(),
            trace.world_size(),
            replayed.graph.len(),
            replayed.makespan(),
            b,
        )
    }

    fn replay_traced(&self, t: &TraceInput, spans: &mut Spans) -> Result<OpOut, Fail> {
        let text = spans.time("trace.read", || std::fs::read_to_string(&t.path))?;
        let trace = spans.time("trace.parse", || from_chrome_json(&text))?;
        let graph = spans.time("core.build_graph", || {
            build_graph(&trace, &self.lumos.build)
        })?;
        let result = spans.time("core.simulate", || simulate(&graph, &self.lumos.sim))?;
        let label = format!("replay of {}", trace.label);
        let simulated = spans.time("core.to_trace", || result.to_trace(&graph, &label));
        let b = spans.time("trace.breakdown", || breakdown_ns(&simulated.breakdown()));
        let out = Self::replayed(
            t,
            trace.total_events(),
            trace.world_size(),
            graph.len(),
            result.makespan(),
            b,
        );
        spans.time("core.free", || {
            drop((text, trace, graph, result, simulated))
        });
        out
    }
}

impl Workload for PredictReplay {
    fn setup(&mut self, spans: Option<&mut Spans>) -> Result<(), Fail> {
        let (artifact, fallback) = load_artifact(&self.path, spans)?;
        let lookup = artifact.cost_model(fallback);
        self.state = Some((artifact, lookup));
        Ok(())
    }

    fn len(&self) -> usize {
        self.targets.len() + self.traces.len()
    }

    fn pass_s(&self) -> f64 {
        5.6
    }

    fn reference(&self, i: usize) -> Option<&str> {
        Some(match i.checked_sub(self.targets.len()) {
            None => &self.targets[i].reference,
            Some(j) => &self.traces[j].reference,
        })
    }

    fn op(&self, i: usize) -> Result<OpOut, Fail> {
        match i.checked_sub(self.targets.len()) {
            None => self.predict(&self.targets[i]),
            Some(j) => self.replay(&self.traces[j]),
        }
    }

    fn op_traced(&self, i: usize, spans: &mut Spans) -> Result<OpOut, Fail> {
        match i.checked_sub(self.targets.len()) {
            None => self.predict_traced(&self.targets[i], spans),
            Some(j) => self.replay_traced(&self.traces[j], spans),
        }
    }
}

// ---------------------------------------------------------------- robust-refine

/// The search screen's counters, as the report carries them.
fn screen_counters(report: &SearchReport) -> Vec<(&'static str, u64)> {
    let s = &report.stats;
    vec![
        (
            "search.lattice_rejected",
            (s.budget_rejects + s.divisibility_rejects + s.structural_rejects) as u64,
        ),
        ("search.memory_pruned", s.memory_pruned as u64),
        ("search.bound_skipped", s.bound_skipped as u64),
        ("search.evaluated", s.evaluated as u64),
        ("search.memo_hits", report.memo.hits as u64),
        ("search.memo_misses", report.memo.misses as u64),
        ("search.kept", report.results.len() as u64),
    ]
}

/// A refined, fault-ranked search: the screen, then every finalist on
/// the cluster engine under jitter and fault replicas.
struct Refine {
    artifact: PathBuf,
    faults: PathBuf,
    state: Option<(
        SearchCalibration<AnalyticalCostModel>,
        SpaceSpec,
        SearchOptions,
    )>,
}

impl Refine {
    fn out(
        report: &SearchReport,
        refined: &[RefinedResult],
        mut counters: Vec<(&'static str, u64)>,
    ) -> Result<OpOut, Fail> {
        for r in refined {
            let f = r
                .faults
                .ok_or_else(|| format!("{}: no fault statistics", r.label))?;
            if f.expected > f.p95 || !(f.robustness > 0.0 && f.robustness <= 1.0) {
                return Err(format!("{}: inconsistent fault statistics {f:?}", r.label).into());
            }
        }
        counters.extend(screen_counters(report));
        Ok(OpOut {
            digest: format!("{refined:?}"),
            counters,
            errs: refined.iter().map(|r| r.delta.abs() * 100.0).collect(),
        })
    }
}

impl Workload for Refine {
    fn setup(&mut self, spans: Option<&mut Spans>) -> Result<(), Fail> {
        let (artifact, fallback) = load_artifact(&self.artifact, spans)?;
        let calib = SearchCalibration::from_artifact(&artifact, fallback);
        let spec = FaultSpec::parse(&std::fs::read_to_string(&self.faults)?)?;
        let (space, opts) = refine_query(spec);
        self.state = Some((calib, space, opts));
        Ok(())
    }

    fn len(&self) -> usize {
        1
    }

    fn pass_s(&self) -> f64 {
        1.15
    }

    fn reference(&self, _: usize) -> Option<&str> {
        None
    }

    fn op(&self, _: usize) -> Result<OpOut, Fail> {
        let (calib, space, opts) = self.state.as_ref().expect("set-up runs before ops");
        let report = search_calibrated(calib, space, opts)?;
        let refined = report.refined.as_deref().ok_or("refinement did not run")?;
        Refine::out(&report, refined, Vec::new())
    }

    fn op_traced(&self, _: usize, spans: &mut Spans) -> Result<OpOut, Fail> {
        let (calib, space, opts) = self.state.as_ref().expect("set-up runs before ops");
        let screen_opts = SearchOptions {
            refine_sim: false,
            ..opts.clone()
        };
        let report = spans.time("search.screen", || {
            search_calibrated(calib, space, &screen_opts)
        })?;
        let finalists = &report.results[..opts.top_k.unwrap_or(16).min(report.results.len())];
        let mut tally = Tally::default();
        let mut keyed = Vec::new();
        for f in finalists {
            let r = refine_traced(f, opts, calib.lookup(), spans, &mut tally)?;
            let secs = r.ranking_makespan().as_secs_f64();
            let key = if secs > 0.0 && secs.is_finite() {
                secs
            } else {
                f64::INFINITY
            };
            keyed.push((key, r));
        }
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.index.cmp(&b.1.index)));
        let refined: Vec<RefinedResult> = keyed.into_iter().map(|(_, r)| r).collect();
        let counters = vec![
            ("cluster.replicas_executed", tally.executed),
            ("cluster.replicas_reused", tally.reused),
        ];
        Refine::out(&report, &refined, counters)
    }
}

#[derive(Default)]
struct Tally {
    executed: u64,
    reused: u64,
}

/// The schedule's engine adjustment, as the search applies it to every
/// engine makespan before comparing it with the screen.
fn adjusted(cand: &Candidate, setup: &TrainingSetup, simulated: Dur, pp_comm_secs: f64) -> Dur {
    let (pp, m) = (setup.parallelism.pp, setup.batch.num_microbatches);
    match setup.schedule.engine_adjustment(pp, m, cand.interleave) {
        Some(adj) if !adj.is_degenerate() => {
            Dur::from_secs_f64(adj.apply_secs(simulated.as_secs_f64(), pp_comm_secs))
        }
        _ => simulated,
    }
}

/// Lowers `setup` and verifies the program, as refinement does.
fn lower_verified(setup: &TrainingSetup, spans: &mut Spans) -> Result<LoweredJob, Fail> {
    let job = spans.time("cluster.lower", || lower(setup))?;
    spans.time("cluster.verify", || verify(&job))?;
    Ok(job)
}

/// The clean engine run of a prepared job: the raw and the adjusted
/// makespan.
fn execute_clean<C: CostModel>(
    prep: &PreparedJob<'_>,
    cand: &Candidate,
    setup: &TrainingSetup,
    lookup: &LookupCostModel<C>,
    spans: &mut Spans,
) -> Result<(Dur, Dur), Fail> {
    let out = spans.time("cluster.execute_clean", || {
        prep.execute_metrics(lookup, &HostOverheads::default(), &JitterModel::none(), 0)
    })?;
    let simulated = adjusted(cand, setup, out.makespan, out.pipeline_comm_secs_per_rank());
    Ok((out.makespan, simulated))
}

/// One finalist's refinement through the cluster crate's public calls:
/// the clean run, the jitter replicas, and the fault replicas with the
/// elastic survivor when a replica needs it.
fn refine_traced<C: CostModel>(
    f: &CandidateResult,
    opts: &SearchOptions,
    lookup: &LookupCostModel<C>,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<RefinedResult, Fail> {
    let overheads = HostOverheads::default();
    let (setup, cand) = (&f.setup, &f.candidate);
    let job = lower_verified(setup, spans)?;
    let prep = spans.time("cluster.prepare", || PreparedJob::new(&job))?;
    let (engine_clean, simulated) = execute_clean(&prep, cand, setup, lookup, spans)?;

    let model = JitterModel::realistic(opts.jitter_seed);
    let mut iterations = Vec::new();
    for replica in 0..opts.jitter_replicas {
        let out = spans.time("cluster.execute_jitter", || {
            prep.execute_metrics(lookup, &overheads, &model, u64::from(replica))
        })?;
        tally.executed += 1;
        iterations.push(adjusted(
            cand,
            setup,
            out.makespan,
            out.pipeline_comm_secs_per_rank(),
        ));
    }
    let stats = MeasuredStats { iterations };
    let (mean, p95) = (stats.mean(), stats.p95());
    let stability = if opts.jitter_replicas < 2 {
        None
    } else if p95.is_zero() {
        Some(1.0)
    } else {
        Some((mean.as_secs_f64() / p95.as_secs_f64()).min(1.0))
    };
    let jitter = JitterStats {
        replicas: opts.jitter_replicas,
        mean,
        p95,
        stability,
    };

    let spec = opts
        .fault_spec
        .as_ref()
        .ok_or("robust-refine runs with a fault spec")?;
    let world = setup.parallelism.world_size();
    let mut survivor_s: Option<Option<f64>> = None;
    let mut iterations = Vec::new();
    for replica in 0..opts.fault_replicas {
        let real = spec.realize(opts.fault_seed, replica, world);
        if real.is_clean() {
            tally.reused += 1;
            iterations.push(simulated);
            continue;
        }
        let scenario = real.compile(world, engine_clean);
        let faulted = if scenario.is_identity() {
            tally.reused += 1;
            simulated
        } else {
            let out = spans.time("cluster.execute_faulted", || {
                prep.execute_metrics_faulted(lookup, &overheads, &JitterModel::none(), 0, &scenario)
            })?;
            tally.executed += 1;
            adjusted(cand, setup, out.makespan, out.pipeline_comm_secs_per_rank())
        };
        let survivor = if real.wants_survivor() {
            if survivor_s.is_none() {
                survivor_s = Some(survivor_secs(f, lookup, spans));
            }
            survivor_s.flatten()
        } else {
            None
        };
        iterations.push(Dur::from_secs_f64(
            real.effective_iteration_s(faulted.as_secs_f64(), survivor),
        ));
    }
    let stats = MeasuredStats { iterations };
    let (expected, p95) = (stats.mean(), stats.p95());
    let clean_s = simulated.as_secs_f64();
    let faults = FaultStats {
        replicas: opts.fault_replicas,
        expected,
        p95,
        degradation: if clean_s > 0.0 {
            (expected.as_secs_f64() - clean_s) / clean_s
        } else {
            0.0
        },
        robustness: if p95.is_zero() {
            1.0
        } else {
            (clean_s / p95.as_secs_f64()).min(1.0)
        },
    };

    let analytic = f.makespan;
    let delta = if analytic.is_zero() {
        0.0
    } else {
        (simulated.as_secs_f64() - analytic.as_secs_f64()) / analytic.as_secs_f64()
    };
    Ok(RefinedResult {
        candidate: f.candidate,
        label: f.label.clone(),
        index: f.index,
        analytic_makespan: analytic,
        simulated_makespan: simulated,
        delta,
        jitter: Some(jitter),
        faults: Some(faults),
    })
}

/// The elastic survivor's batch-conserving iteration time: one fewer
/// data-parallel replica, rescaled by `dp / (dp − 1)`; `None` when
/// there is no survivor.
fn survivor_secs<C: CostModel>(
    f: &CandidateResult,
    lookup: &LookupCostModel<C>,
    spans: &mut Spans,
) -> Option<f64> {
    let dp = f.setup.parallelism.dp;
    if dp < 2 {
        return None;
    }
    let mut survivor = f.setup.clone();
    survivor.parallelism =
        Parallelism::new(f.setup.parallelism.tp, f.setup.parallelism.pp, dp - 1).ok()?;
    let cand = Candidate {
        dp: dp - 1,
        ..f.candidate
    };
    let job = lower_verified(&survivor, spans).ok()?;
    let prep = spans
        .time("cluster.prepare", || PreparedJob::new(&job))
        .ok()?;
    let (_, adjusted) = execute_clean(&prep, &cand, &survivor, lookup, spans).ok()?;
    Some(adjusted.as_secs_f64() * f64::from(dp) / f64::from(dp - 1))
}
