//! `lumos replay` — replay a trace through the simulator (§3.5) and
//! report makespan, breakdown, and error against the recorded run.

use crate::args::{ArgSet, ArgSpec};
use crate::common::{calibrated_input, load_trace, ms, pct, save_trace};
use crate::error::CliError;
use lumos_core::manipulate::{plan, reassemble_with_library};
use lumos_core::Lumos;
use lumos_trace::{Breakdown, BreakdownExt};
use std::io::Write;

/// Options of `lumos replay`.
pub const SPEC: ArgSpec = ArgSpec {
    options: &["calib", "out"],
    flags: &["dpro"],
};

/// Usage text.
pub const HELP: &str = "lumos replay <trace.json> [--calib artifact.json] [--dpro]\n\
    [--out replayed.json]\n\
  Builds the execution graph (§3.3), replays it with Algorithm 1, and\n\
  compares against the recorded timeline. --dpro uses the baseline's\n\
  dependency model instead (operator-dataflow fences only, no\n\
  collective rendezvous). With --calib and no trace file, the base\n\
  configuration is reassembled from the artifact's block library and\n\
  replayed without re-ingesting the trace, compared against the\n\
  artifact's recorded makespan (the breakdown column is then labeled\n\
  `reassembled` — it comes from the synthesized base, not the\n\
  recorded timeline); a trace file given alongside --calib is\n\
  fingerprint-checked and then replayed as usual.";

/// Runs `lumos replay`.
///
/// # Errors
///
/// Returns usage, I/O, parse, and simulation failures.
pub fn run(args: &ArgSet, out: &mut dyn Write) -> Result<(), CliError> {
    let toolkit = if args.has("dpro") {
        Lumos::dpro_baseline()
    } else {
        Lumos::new()
    };
    // (recorded makespan, reference breakdown + its column label,
    // replay result).
    let (recorded, reference_breakdown, reference_label, replayed) =
        match calibrated_input(args, &[])? {
            Some(ci) => match ci.trace {
                // Trace given alongside --calib: fingerprint-checked
                // (by `calibrated_input`), then replayed as usual.
                Some(trace) => {
                    let replayed = toolkit.replay(&trace)?;
                    (trace.makespan(), trace.breakdown(), "recorded", replayed)
                }
                // Trace-free calibrated replay: identity reassembly of
                // the base configuration from the artifact's block
                // library. The comparison breakdown comes from the
                // synthesized base trace, so it is labeled as such.
                None => {
                    let lookup = ci.artifact.cost_model(ci.fallback);
                    let library = &ci.artifact.library;
                    let spec = plan(&ci.artifact.setup, &ci.artifact.setup);
                    let reassembled = reassemble_with_library(library, &spec, &lookup)?;
                    (
                        ci.artifact.fingerprint.makespan,
                        reassembled.breakdown(),
                        "reassembled",
                        toolkit.predict_spec(library, &spec, &lookup)?,
                    )
                }
            },
            None => {
                let path = args.one_positional("trace file (or use --calib)")?;
                let trace = load_trace(path)?;
                let replayed = toolkit.replay(&trace)?;
                (trace.makespan(), trace.breakdown(), "recorded", replayed)
            }
        };

    let simulated = replayed.makespan();
    writeln!(
        out,
        "model:     {}",
        if args.has("dpro") {
            "dPRO baseline"
        } else {
            "Lumos"
        }
    )?;
    writeln!(out, "recorded:  {}", ms(recorded))?;
    writeln!(out, "replayed:  {}", ms(simulated))?;
    writeln!(
        out,
        "error:     {}",
        pct(simulated.relative_error(recorded))
    )?;

    let rb = replayed.breakdown();
    let ab: Breakdown = reference_breakdown;
    writeln!(out)?;
    writeln!(
        out,
        "breakdown        {:>12}  {:>12}",
        "replayed", reference_label
    )?;
    for (name, r, a) in [
        ("exposed compute", rb.exposed_compute, ab.exposed_compute),
        ("overlapped", rb.overlapped, ab.overlapped),
        ("exposed comm", rb.exposed_comm, ab.exposed_comm),
        ("other", rb.other, ab.other),
    ] {
        writeln!(out, "  {name:<15}{:>12}  {:>12}", ms(r), ms(a))?;
    }

    if let Some(out_path) = args.get("out") {
        save_trace(&replayed.trace(), out_path)?;
        writeln!(out)?;
        writeln!(out, "replayed trace: {out_path}")?;
    }
    Ok(())
}
