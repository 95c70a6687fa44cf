//! `lumos search` — parallel what-if configuration search: enumerate a
//! (TP, PP, DP, micro-batch, interleave, GPU-count) space, prune
//! memory-infeasible configs before simulation, evaluate the rest in
//! parallel from one profiled trace, and print a ranked report.

use crate::args::{ArgSet, ArgSpec};
use crate::common::{
    calibrated_input, knob_error, load_setup, load_trace, parse_model, sidecar_path, space_from,
};
use crate::error::CliError;
use lumos_cost::AnalyticalCostModel;
use lumos_model::{Parallelism, TrainingSetup};
use lumos_search::{search_calibrated, SearchCalibration, SearchError};
use lumos_serve::protocol::SearchRequest;
use std::fs;
use std::io::Write;

/// Options of `lumos search`.
pub const SPEC: ArgSpec = ArgSpec {
    options: &[
        "setup",
        "calib",
        "space",
        "model",
        "base-tp",
        "base-pp",
        "base-dp",
        "seed",
        "tp",
        "pp",
        "dp",
        "microbatches",
        "interleave",
        "schedules",
        "gpus",
        "max-gpus",
        "objective",
        "top",
        "memory-gib",
        "threads",
        "jitter-replicas",
        "jitter-seed",
        "faults",
        "fault-replicas",
        "fault-seed",
        "budget",
    ],
    flags: &[
        "progress",
        "keep-all",
        "refine-sim",
        "verify",
        "json",
        "adaptive",
    ],
};

/// Usage text.
pub const HELP: &str = "lumos search [<trace.json>] [--setup setup.json] [--space spec.toml]\n\
    [--calib artifact.json]\n\
    [--model NAME --base-tp N --base-pp N --base-dp N [--seed N]]\n\
    [--tp 1,2,4] [--pp 1,2] [--dp 1,2,4,8] [--microbatches 4,8]\n\
    [--interleave 1,2] [--schedules 1f1b,gpipe,zb-h1]\n\
    [--gpus 8,16,32] [--max-gpus N]\n\
    [--objective makespan|throughput|mfu] [--top K]\n\
    [--memory-gib N] [--threads N] [--progress] [--keep-all]\n\
    [--refine-sim [--verify]] [--jitter-replicas N] [--jitter-seed N]\n\
    [--faults spec.toml [--fault-replicas N] [--fault-seed N]]\n\
    [--adaptive [--budget N] [--seed N]] [--json]\n\
  Searches a what-if configuration space from one profiled trace:\n\
  candidates are enumerated lazily over the axis grids\n\
  (comma-separated values, or a TOML space file; flags override the\n\
  file), pruned by the memory-feasibility model before any\n\
  simulation, skipped outright when a memoized analytic lower bound\n\
  proves they cannot reach the top K, evaluated in parallel via graph\n\
  manipulation with a shared trace-fitted cost model, and ranked by\n\
  the objective. Memory stays proportional to --top (pass --keep-all\n\
  to retain every result instead, disabling bound skipping). With\n\
  --model instead of a trace file, the base iteration is profiled on\n\
  the ground-truth cluster first. The report, and the work behind it,\n\
  are the same across runs and --threads. --progress reports\n\
  completion after each batch and, at the end, the work counters\n\
  (evaluated, bound skips, stage-cost memo hits) and the thread count,\n\
  the one number that follows --threads, to stderr. The setup sidecar\n\
  defaults to <trace>.setup.json.\n\
  With --calib (a `lumos calibrate` artifact) the trace file is\n\
  optional and never re-ingested: the artifact's fitted tables and\n\
  block library are shared across the whole search, byte-identically\n\
  to the fit-on-the-fly path (a trace file given alongside is only\n\
  fingerprint-checked).\n\
  --refine-sim adds a second phase: each finalist is lowered to a\n\
  full multi-rank program and executed through the discrete-event\n\
  engine (overlap, host dispatch, and collective rendezvous\n\
  included), the finals are re-ranked by simulated makespan, and the\n\
  report gains analytic-vs-simulated delta columns. Refinement runs\n\
  the engine in its metrics-only mode (each finalist is lowered and\n\
  prepared once, shared across jitter replicas; no trace events are\n\
  materialized) — output is byte-identical to full-trace execution,\n\
  several times faster. `lumos replay`/`synth` keep full traces.\n\
  --verify statically checks each finalist's lowered program\n\
  (collective consistency, send/recv matching, deadlock freedom —\n\
  see `lumos help lint`) before the engine runs it; a violation\n\
  aborts the search with the named cycle. Clean programs are\n\
  unaffected: results are byte-identical with and without it.\n\
  --jitter-replicas N (implies --refine-sim) additionally executes N\n\
  deterministic variance replicas per finalist and re-ranks by the\n\
  jittered mean, adding mean/p95/stability robustness columns\n\
  (--jitter-seed fixes the variance model's seed).\n\
  --faults <spec.toml> (implies --refine-sim) ranks the finals for\n\
  robustness instead: each finalist is re-executed under\n\
  --fault-replicas (default 32) deterministic fault scenarios sampled\n\
  from the spec (persistent stragglers, transient network-degradation\n\
  windows, rank failures with checkpoint-restart or elastic\n\
  re-sharding recovery), the finals are re-ranked by expected\n\
  makespan under faults, and the report gains expected/p95/\n\
  degradation/robustness columns. An empty spec is byte-identical to\n\
  plain --refine-sim. --fault-seed fixes the sampling seed; see\n\
  `lumos help faults` and docs/fault-scenarios.md.\n\
  --adaptive swaps exhaustive enumeration for the corpus-guided\n\
  engine: deterministic seed probes, a power-scheduled mutation\n\
  frontier (neighbor moves + divisibility-lattice jumps), and — on\n\
  spaces small enough — a screened verification sweep that proves the\n\
  result equals the exhaustive top-K. --budget caps how many\n\
  candidates are fully simulated (default 4096); exhausting it\n\
  reports a typed partial result, never an error. --seed makes the\n\
  run replayable (fixed seed => byte-identical report). The setting\n\
  for spaces far too large to enumerate.\n\
  --json emits the ranked report as one JSON object on stdout — the\n\
  exact response a `lumos serve` daemon returns for the same request\n\
  against the same artifact (only deterministic report fields are\n\
  included; --progress still goes to stderr).";

/// The shared calibration the search runs against: cloned out of a
/// `--calib` artifact (no trace ingestion), or fitted on the fly from
/// the base trace/`--model` profile.
fn calibration_from(
    args: &ArgSet,
    out: &mut dyn Write,
) -> Result<SearchCalibration<AnalyticalCostModel>, CliError> {
    // `--seed` is the adaptive RNG seed too, so it stays legal
    // alongside `--calib` when `--adaptive` is set.
    let reject: &[&str] = if args.has("adaptive") {
        &["model", "setup", "base-tp", "base-pp", "base-dp"]
    } else {
        &["model", "setup", "base-tp", "base-pp", "base-dp", "seed"]
    };
    if let Some(ci) = calibrated_input(args, reject)? {
        Ok(SearchCalibration::from_artifact(&ci.artifact, ci.fallback))
    } else {
        let (trace, setup) = base_from(args, out)?;
        // 8 GPUs per node, as `lumos predict` fits its tables.
        Ok(SearchCalibration::fit(
            &trace,
            &setup,
            AnalyticalCostModel::h100(),
            8,
        )?)
    }
}

/// The base (trace, setup) pair: loaded from disk, or synthesized via
/// `--model`.
fn base_from(
    args: &ArgSet,
    out: &mut dyn Write,
) -> Result<(lumos_trace::ClusterTrace, TrainingSetup), CliError> {
    if let Some(model) = args.get("model") {
        if !args.positionals().is_empty() {
            return Err(CliError::Usage(
                "give either a trace file or --model, not both".to_string(),
            ));
        }
        let model = parse_model(model)?;
        let par = Parallelism::new(
            args.get_num("base-tp", 1)?,
            args.get_num("base-pp", 1)?,
            args.get_num("base-dp", 1)?,
        )
        .map_err(|e| CliError::Usage(e.to_string()))?;
        let setup = TrainingSetup::new(model, par);
        let seed = args.get_num("seed", 2025u64)?;
        writeln!(out, "profiling base {} (seed {seed}) ...", setup.label())?;
        let trace = lumos_cluster::profile(&setup, seed)
            .map_err(|e| SearchError::BaseProfile(e.to_string()))?;
        Ok((trace, setup))
    } else {
        for flag in ["base-tp", "base-pp", "base-dp"] {
            if args.get(flag).is_some() {
                return Err(CliError::Usage(format!(
                    "--{flag} only applies with --model (trace-file mode takes the \
                     base from the setup sidecar)"
                )));
            }
        }
        // `--seed` doubles as the adaptive RNG seed; without --model
        // and without --adaptive it has nothing to seed.
        if args.get("seed").is_some() && !args.has("adaptive") {
            return Err(CliError::Usage(
                "--seed only applies with --model (base-profile seed) or \
                 --adaptive (search RNG seed)"
                    .to_string(),
            ));
        }
        let path = args.one_positional("trace file (or use --model)")?;
        let setup_path = match args.get("setup") {
            Some(p) => p.to_string(),
            None => sidecar_path(path),
        };
        Ok((load_trace(path)?, load_setup(&setup_path)?))
    }
}

/// Runs `lumos search`.
///
/// # Errors
///
/// Returns usage, I/O, parse, and search failures.
pub fn run(args: &ArgSet, out: &mut dyn Write) -> Result<(), CliError> {
    let file = space_from(args, args.get("space"))?;
    // The flags, merged over the space file, as the serve protocol's
    // search request: one rule set and one wiring with the daemon.
    let faults = args.get("faults");
    let adaptive = args.has("adaptive");
    // `--seed` seeds the search only under --adaptive; otherwise it is
    // the base-profile seed (see `base_from`).
    let seed = args.get_num_opt::<u64>("seed")?;
    let threads = args.get_num_opt::<usize>("threads")?;
    let request = SearchRequest {
        objective: args
            .get("objective")
            .map(str::to_string)
            .or_else(|| file.objective.map(|o| o.to_string())),
        memory_gib: args.get_num_opt("memory-gib")?.or(file.gpu_memory_gib),
        top: args.get_num_opt("top")?.or(file.top_k),
        refine_sim: args.has("refine-sim"),
        jitter_replicas: args.get_num("jitter-replicas", 0)?,
        jitter_seed: args.get_num_opt("jitter-seed")?,
        faults_toml: match faults {
            Some(path) => Some(fs::read_to_string(path).map_err(|e| CliError::file(path, e))?),
            None => None,
        },
        fault_replicas: args.get_num_opt("fault-replicas")?,
        fault_seed: args.get_num_opt("fault-seed")?,
        adaptive,
        budget: args.get_num_opt("budget")?,
        seed: seed.filter(|_| adaptive),
        ..SearchRequest::default()
    };
    let (mut opts, top) = request.options().map_err(|e| knob_error(&e, faults))?;
    opts.threads = threads;
    // Streaming retention: keep only the top K in memory (and arm
    // lower-bound skipping) unless the user wants the full ranking.
    if !args.has("keep-all") {
        opts.top_k = Some(top);
    }
    if args.has("verify") {
        if !opts.refine_sim {
            return Err(CliError::Usage(
                "--verify only applies with --refine-sim / --jitter-replicas".to_string(),
            ));
        }
        opts.verify = true;
    }
    if args.has("progress") {
        opts.progress = Some(lumos_search::ProgressSink::new(|p| {
            eprintln!(
                "  ... {}/{} grid points ({} evaluated, {} memory-pruned, {} bound-skipped)",
                p.claimed, p.grid_points, p.evaluated, p.memory_pruned, p.bound_skipped
            );
        }));
    }

    let calib = calibration_from(args, out)?;
    let report = search_calibrated(&calib, &file.space, &opts)?;
    if args.has("progress") {
        // Work counters and the thread count: telemetry, never the report.
        let s = &report.stats;
        eprintln!(
            "  ... done on {} threads: {} evaluated ({:.1}%), {} infeasible; {:.1}% skipped \
             without full simulation ({} by the lower bound); stage-cost memo {} hits / {} misses",
            report.threads,
            s.evaluated,
            s.visit_percent(),
            s.infeasible,
            s.skip_percent(),
            s.bound_skipped,
            report.memo.hits,
            report.memo.misses
        );
    }
    if args.has("json") {
        // One shared schema with the daemon: both sides encode through
        // `response_line` on the same response struct, which is what
        // keeps the two byte-identical.
        let response = lumos_serve::protocol::search_response(&report, top);
        writeln!(out, "{}", lumos_serve::protocol::response_line(&response))?;
    } else {
        write!(out, "{}", report.format_top(top))?;
    }
    Ok(())
}
