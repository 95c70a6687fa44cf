//! `lumos faults` — inspect fault-scenario specifications: parse a
//! versioned spec, summarize its scenarios, and replay the exact
//! deterministic per-replica sampling a `lumos search --faults` run
//! draws from it.

use crate::args::{ArgSet, ArgSpec};
use crate::common::read_spec;
use crate::error::CliError;
use lumos_cluster::{FaultSpec, Realization};
use std::io::Write;

/// Options of `lumos faults`.
pub const SPEC: ArgSpec = ArgSpec {
    options: &["seed", "replicas", "world"],
    flags: &[],
};

/// Usage text.
pub const HELP: &str = "lumos faults explain <spec.toml> [--seed N] [--replicas N] [--world N]\n\
  Parses a versioned fault-scenario spec (the file `lumos search\n\
  --faults` takes), lists its scenarios, and replays the\n\
  deterministic per-replica sampling: for each replica it prints\n\
  which scenarios fire and with what draws — the same realizations a\n\
  robust search evaluates, because sampling depends only on\n\
  (seed, replica, scenario), never on thread count or evaluation\n\
  order. --seed matches `lumos search --fault-seed` (default 2025),\n\
  --replicas matches --fault-replicas (default 8 here), and --world\n\
  is the GPU count realizations are sampled against (default 8).\n\
  Malformed specs fail with the offending file, line, table instance,\n\
  and key named (exit code 2); setting a key twice in one table is an\n\
  error, and `-` and `_` are the same character in keys\n\
  (`bandwidth-factor` is `bandwidth_factor`). See\n\
  docs/fault-scenarios.md for the format.";

/// One-line human summary of a sampled replica.
fn describe(real: &Realization) -> String {
    if real.is_clean() {
        return "clean".to_string();
    }
    let mut parts = Vec::new();
    for &(rank, mult) in &real.stragglers {
        parts.push(format!("straggler rank {rank} x{mult:.2}"));
    }
    for w in &real.windows {
        let scope = w.scope.map_or("all", |s| s.name());
        parts.push(format!(
            "{scope} window [{:.0}%, {:.0}%) at {:.1}% bw",
            w.start_frac * 100.0,
            w.end_frac * 100.0,
            w.bandwidth_factor * 100.0
        ));
    }
    if let Some(f) = &real.failure {
        let recovery = if f.elastic {
            format!("elastic re-shard, {:.0}s", f.recovery.reshard_cost_s)
        } else {
            format!("checkpoint restart, {:.0}s", f.recovery.restart_latency_s)
        };
        parts.push(format!(
            "failure rank {} (lost frac {:.2}; {recovery})",
            f.rank, f.frac
        ));
    }
    parts.join("; ")
}

/// Runs `lumos faults`.
///
/// # Errors
///
/// Returns usage errors (bad action, malformed spec) and I/O failures.
pub fn run(args: &ArgSet, out: &mut dyn Write) -> Result<(), CliError> {
    let (action, path) = match args.positionals() {
        [action, path] => (action.as_str(), path.as_str()),
        _ => {
            return Err(CliError::Usage(
                "expected `lumos faults explain <spec.toml>`".to_string(),
            ))
        }
    };
    if action != "explain" {
        return Err(CliError::Usage(format!(
            "unknown action `{action}` (only `explain` exists)"
        )));
    }
    let spec = read_spec("fault spec", path, FaultSpec::parse)?;

    writeln!(
        out,
        "fault spec `{path}`: {} straggler, {} degradation, {} failure scenario(s)",
        spec.stragglers.len(),
        spec.degradations.len(),
        spec.failures.len()
    )?;
    for (i, s) in spec.stragglers.iter().enumerate() {
        writeln!(
            out,
            "  [[straggler]] #{}: p={:.2}  {} rank(s) at {:.2}x slowdown",
            i + 1,
            s.probability,
            s.ranks,
            s.slowdown
        )?;
    }
    for (i, d) in spec.degradations.iter().enumerate() {
        writeln!(
            out,
            "  [[degradation]] #{}: p={:.2}  {} collectives at {:.1}% bandwidth over \
             [{:.0}%, {:.0}%) of the clean makespan",
            i + 1,
            d.probability,
            d.scope.map_or("all", |s| s.name()),
            d.bandwidth_factor * 100.0,
            d.start_frac * 100.0,
            d.end_frac * 100.0
        )?;
    }
    for (i, f) in spec.failures.iter().enumerate() {
        let how = if f.elastic {
            format!(
                "elastic re-shard to dp-1 ({:.0}s reshard",
                f.recovery.reshard_cost_s
            )
        } else {
            format!(
                "checkpoint restart ({:.0}s restart",
                f.recovery.restart_latency_s
            )
        };
        writeln!(
            out,
            "  [[failure]] #{}: p={:.2}  {how}, {}-iteration checkpoint interval)",
            i + 1,
            f.probability,
            f.recovery.checkpoint_interval_iters
        )?;
    }
    if spec.is_empty() {
        writeln!(
            out,
            "empty spec: every replica is clean; `lumos search --faults` output is \
             byte-identical to plain --refine-sim"
        )?;
        return Ok(());
    }

    let seed = args.get_num("seed", 2025u64)?;
    let replicas = args.get_num("replicas", 8u32)?;
    let world = args.get_num("world", 8u32)?;
    if world == 0 {
        return Err(CliError::Usage("--world must be at least 1".to_string()));
    }
    writeln!(out)?;
    writeln!(
        out,
        "sampling {replicas} replica(s) at seed {seed}, world {world}:"
    )?;
    let mut clean = 0u32;
    for replica in 0..replicas {
        let real = spec.realize(seed, replica, world);
        if real.is_clean() {
            clean += 1;
        }
        writeln!(out, "  replica {replica:>3}: {}", describe(&real))?;
    }
    if replicas > 0 {
        writeln!(
            out,
            "{clean}/{replicas} replica(s) clean ({:.0}%)",
            f64::from(clean) / f64::from(replicas) * 100.0
        )?;
    }
    Ok(())
}
