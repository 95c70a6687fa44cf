//! `lumos lint` — static verification of lowered multi-rank programs:
//! lower every candidate of a configuration space (or one setup, or a
//! serialized job) and prove it deadlock-free before any costed
//! simulation, via [`lumos_cluster::verify`].

use crate::args::{ArgSet, ArgSpec};
use crate::common::parse_model;
use crate::error::CliError;
use lumos_cluster::{lower, verify, PortableJob, VerifyReport};
use lumos_model::{ModelConfig, Parallelism, TrainingSetup};
use lumos_search::SpecFile;
use std::io::Write;

/// Options of `lumos lint`.
pub const SPEC: ArgSpec = ArgSpec {
    options: &[
        "model",
        "tp",
        "pp",
        "dp",
        "microbatches",
        "schedules",
        "max-gpus",
        "threads",
        "job",
    ],
    flags: &[],
};

/// Usage text.
pub const HELP: &str = "lumos lint [<space.toml>] [--model NAME] [--max-gpus N] [--threads N]\n\
    lumos lint --model NAME --tp N --pp N --dp N [--microbatches N]\n\
    lumos lint --job job.json\n\
  Statically verifies lowered multi-rank programs before any costed\n\
  simulation: referential integrity, collective consistency (every\n\
  member of a communicator issues every (group, seq) instance with\n\
  matching kind and payload), point-to-point send/recv matching, and\n\
  deadlock freedom by one engine run with every cost at zero.\n\
  Deadlocks are reported as the engine's cross-rank wait-for chain\n\
  (`rank 0 stream stream13 ... waits on ... -> cycle repeats`); every\n\
  violation exits nonzero. See docs/verify-checks.md for the full\n\
  catalogue.\n\
  With a space file, every candidate in the grid (tp x pp x dp x\n\
  microbatches x schedules x arch; the interleave axis is ignored —\n\
  chunk lowering replays as 1F1B) that passes shape validation and\n\
  the GPU budget is\n\
  lowered and verified in parallel (--threads caps workers); the\n\
  architecture defaults to --model (default 15b). With --tp/--pp/--dp\n\
  a single setup is checked. With --job, a JSON-serialized portable\n\
  job (programs + communicator groups) is verified as-is — the format\n\
  `lumos_cluster::PortableJob` uses, handy for regression fixtures.";

/// One candidate's display label: setup label plus the micro-batch
/// count (which the setup label omits) and, when it departs from the
/// 1F1B default, the schedule name.
fn label(setup: &TrainingSetup) -> String {
    let mut s = format!("{} mb{}", setup.label(), setup.batch.num_microbatches);
    if setup.schedule != lumos_model::ScheduleKind::OneFOneB {
        s.push_str(&format!(" s={}", setup.schedule.name()));
    }
    s
}

/// Enumerates the space file's grid into concrete setups, skipping
/// shape-invalid and over-budget points (same lattice the search
/// rejects, minus trace-reachability — lint has no base trace, so
/// `tp = 1 <-> tp > 1` moves are fine here).
fn space_candidates(args: &ArgSet, file: &SpecFile) -> Result<Vec<TrainingSetup>, CliError> {
    let space = file.space.normalized();
    let base = parse_model(args.get("model").unwrap_or("15b"))?;
    let max_gpus = args
        .get_num_opt::<u32>("max-gpus")?
        .unwrap_or(space.max_gpus);
    let axis = |v: &[u32]| if v.is_empty() { vec![1] } else { v.to_vec() };
    let models: Vec<ModelConfig> = if space.arch.is_empty() {
        vec![base]
    } else {
        space
            .arch
            .iter()
            .map(|a| {
                let mut m = base.clone();
                m.name = a.label.clone();
                m.num_layers = a.layers;
                m.hidden_size = a.hidden;
                m.ffn_size = a.ffn;
                m
            })
            .collect()
    };
    // The schedule axis: CLI flag overrides the file; neither means
    // the 1F1B default.
    let schedules: Vec<lumos_model::ScheduleKind> = match args.get("schedules") {
        Some(raw) => raw
            .split(',')
            .map(|s| crate::common::parse_schedule(s.trim()))
            .collect::<Result<Vec<_>, CliError>>()?,
        None if space.schedules.is_empty() => vec![lumos_model::ScheduleKind::OneFOneB],
        None => space.schedules.clone(),
    };
    let mut out = Vec::new();
    for model in &models {
        for &tp in &axis(&space.tp) {
            for &pp in &axis(&space.pp) {
                for &dp in &axis(&space.dp) {
                    let world = u64::from(tp) * u64::from(pp) * u64::from(dp);
                    if world > u64::from(max_gpus) {
                        continue;
                    }
                    if let Some(gpus) = &space.gpus {
                        if !gpus.contains(&(world as u32)) {
                            continue;
                        }
                    }
                    let Ok(par) = Parallelism::new(tp, pp, dp) else {
                        continue;
                    };
                    let microbatches = if space.microbatches.is_empty() {
                        vec![2 * pp]
                    } else {
                        space.microbatches.clone()
                    };
                    for &mb in &microbatches {
                        for &schedule in &schedules {
                            let mut setup = TrainingSetup::new(model.clone(), par);
                            setup.batch.num_microbatches = mb;
                            setup.schedule = schedule;
                            if setup.validate().is_ok() {
                                out.push(setup);
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// One candidate's labeled verification outcome.
type Outcome = (String, Result<VerifyReport, String>);

/// Lowers and verifies every setup in parallel. Returns per-candidate
/// outcomes in enumeration order.
fn verify_all(setups: &[TrainingSetup], threads: Option<usize>) -> Vec<Outcome> {
    let workers = lumos_search::parallel::effective_threads(threads, setups.len());
    let per_worker = lumos_search::parallel::run_claimed(workers, setups.len(), |_t, claims| {
        let mut out: Vec<(usize, Outcome)> = Vec::new();
        while let Some(i) = claims.next() {
            let setup = &setups[i];
            let outcome = match lower(setup) {
                Ok(job) => verify(&job).map_err(|e| e.to_string()),
                Err(e) => Err(format!("lowering failed: {e}")),
            };
            out.push((i, (label(setup), outcome)));
        }
        out
    });
    let mut results: Vec<(usize, Outcome)> = per_worker.into_iter().flatten().collect();
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Prints the aggregate summary or collects failures into one
/// [`CliError::Tool`] (stderr, nonzero exit).
fn summarize(outcomes: Vec<Outcome>, out: &mut dyn Write) -> Result<(), CliError> {
    let mut total = VerifyReport::default();
    let mut failures = Vec::new();
    let checked = outcomes.len();
    for (label, outcome) in outcomes {
        match outcome {
            Ok(report) => {
                total.programs += report.programs;
                total.ops += report.ops;
                total.collectives += report.collectives;
                total.sendrecv += report.sendrecv;
            }
            Err(detail) => failures.push(format!("{label}: {detail}")),
        }
    }
    if failures.is_empty() {
        writeln!(
            out,
            "linted {checked} candidate(s): {} programs, {} ops, \
             {} collective(s), {} send/recv — all deadlock-free",
            total.programs, total.ops, total.collectives, total.sendrecv
        )?;
        Ok(())
    } else {
        Err(CliError::Tool(format!(
            "{} of {checked} candidate(s) failed verification:\n  {}",
            failures.len(),
            failures.join("\n  ")
        )))
    }
}

/// Runs `lumos lint`.
///
/// # Errors
///
/// Returns usage and I/O failures, and [`CliError::Tool`] when any
/// candidate fails verification.
pub fn run(args: &ArgSet, out: &mut dyn Write) -> Result<(), CliError> {
    // Mode 3: a serialized portable job, verified as-is.
    if let Some(path) = args.get("job") {
        if !args.positionals().is_empty() {
            return Err(CliError::Usage(
                "--job takes no space file (the job is already lowered)".to_string(),
            ));
        }
        let text = std::fs::read_to_string(path).map_err(|e| CliError::file(path, e))?;
        let portable: PortableJob = serde_json::from_str(&text)
            .map_err(|e| CliError::file(path, format!("job error: {e}")))?;
        let job = portable.into_job();
        return match verify(&job) {
            Ok(report) => {
                writeln!(out, "{path}: {report} — deadlock-free")?;
                Ok(())
            }
            Err(e) => Err(CliError::Tool(format!("{path}: {e}"))),
        };
    }

    // Mode 1: a space file — enumerate, lower, and verify the grid.
    if let Some(path) = args.positionals().first() {
        let text = std::fs::read_to_string(path).map_err(|e| CliError::file(path, e))?;
        let file = SpecFile::parse(&text)
            .map_err(|e| CliError::Usage(format!("space file `{path}`: {e}")))?;
        let setups = space_candidates(args, &file)?;
        if setups.is_empty() {
            return Err(CliError::Tool(format!(
                "space file `{path}` admits no valid candidates to lint"
            )));
        }
        let outcomes = verify_all(&setups, args.get_num_opt::<usize>("threads")?);
        return summarize(outcomes, out);
    }

    // Mode 2: one explicit setup.
    if args.get("tp").is_none() && args.get("pp").is_none() && args.get("dp").is_none() {
        return Err(CliError::Usage(
            "give a space file, --job <job.json>, or an explicit setup \
             (--model --tp --pp --dp)"
                .to_string(),
        ));
    }
    let model = parse_model(args.get("model").unwrap_or("15b"))?;
    let par = Parallelism::new(
        args.get_num("tp", 1)?,
        args.get_num("pp", 1)?,
        args.get_num("dp", 1)?,
    )
    .map_err(|e| CliError::Usage(e.to_string()))?;
    let mut setup = TrainingSetup::new(model, par);
    if let Some(mb) = args.get_num_opt::<u32>("microbatches")? {
        setup.batch.num_microbatches = mb;
    }
    if let Some(name) = args.get("schedules") {
        setup.schedule = crate::common::parse_schedule(name.trim())?;
    }
    setup
        .validate()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let candidate = label(&setup);
    let job = lower(&setup).map_err(|e| CliError::Tool(format!("{candidate}: {e}")))?;
    match verify(&job) {
        Ok(report) => {
            writeln!(out, "{candidate}: {report} — deadlock-free")?;
            Ok(())
        }
        Err(e) => Err(CliError::Tool(format!("{candidate}: {e}"))),
    }
}
