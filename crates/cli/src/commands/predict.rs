//! `lumos predict` — the §3.4 what-if workflow: apply configuration
//! transforms to a profiled trace and estimate the new performance
//! through simulation, without touching hardware.

use crate::args::{ArgSet, ArgSpec};
use crate::common::{
    calibrated_input, knob_error, load_setup, load_trace, ms, save_trace, sidecar_path,
};
use crate::error::CliError;
use lumos_core::{Lumos, Replayed};
use lumos_cost::AnalyticalCostModel;
use lumos_serve::protocol::PredictRequest;
use std::io::Write;

/// Options of `lumos predict`.
pub const SPEC: ArgSpec = ArgSpec {
    options: &[
        "setup",
        "calib",
        "dp",
        "pp",
        "tp",
        "layers",
        "hidden",
        "ffn",
        "seq",
        "microbatches",
        "scale-gemms",
        "scale-comms",
        "scale-host",
        "out",
    ],
    flags: &["dpro", "json"],
};

/// Usage text.
pub const HELP: &str = "lumos predict <trace.json> [--setup setup.json]\n\
    [--calib artifact.json]\n\
    [--dp N] [--pp N] [--tp N] [--layers N] [--hidden N --ffn N]\n\
    [--seq N] [--microbatches N]\n\
    [--scale-gemms F] [--scale-comms F] [--scale-host F]\n\
    [--out predicted.json] [--json]\n\
  Manipulates the execution graph for the requested configuration\n\
  changes (§3.4) and predicts the new iteration time by simulation.\n\
  With --calib (a `lumos calibrate` artifact) the trace file is\n\
  optional and never re-ingested: the artifact supplies the fitted\n\
  cost tables, block library, and base setup, and the prediction is\n\
  byte-identical to the fit-on-the-fly path. If a trace file is also\n\
  given it is only fingerprint-checked against the artifact.\n\
  The --scale-* factors run an operator-level what-if on top (0.5 =\n\
  twice as fast); factors must be finite and non-negative.\n\
  --out writes the simulated timeline of the prediction (after any\n\
  --scale-*) as a Chrome trace: its makespan is the printed\n\
  prediction (or what-if) time.\n\
  --json emits the prediction as one JSON object on stdout — the\n\
  exact response a `lumos serve` daemon returns for the same request\n\
  against the same artifact (it excludes --scale-*/--out).\n\
  The setup sidecar defaults to <trace>.setup.json.";

/// One operator-level scale request: (report label, factor, apply).
type ScaleOp = (
    &'static str,
    f64,
    fn(&mut lumos_core::ExecutionGraph, f64) -> Result<usize, lumos_core::CoreError>,
);

/// Parses the `--scale-*` what-if factors. Validation of the factor's
/// *value* happens in the fallible `try_scale_*` APIs so that CLI
/// input can never hit the panicking variants.
fn scales_from(args: &ArgSet) -> Result<Vec<ScaleOp>, CliError> {
    use lumos_core::manipulate::whatif;
    let mut scales: Vec<ScaleOp> = Vec::new();
    if let Some(f) = args.get_num_opt::<f64>("scale-gemms")? {
        scales.push(("GEMMs", f, whatif::try_scale_gemms));
    }
    if let Some(f) = args.get_num_opt::<f64>("scale-comms")? {
        scales.push(("collectives", f, whatif::try_scale_comms));
    }
    if let Some(f) = args.get_num_opt::<f64>("scale-host")? {
        scales.push(("host tasks", f, whatif::try_scale_host));
    }
    // Reject every bad factor up front (via the same fallible scaling
    // check the graph edit uses) so a later invalid factor cannot
    // leave a half-reported what-if transcript on stdout.
    for (label, factor, _) in &scales {
        if let Err(e) = lumos_trace::Dur::ZERO.try_scale(*factor) {
            return Err(CliError::Usage(format!("option --scale ({label}): {e}")));
        }
    }
    Ok(scales)
}

/// The transform flags as the serve protocol's predict request, whose
/// rules and transform order the daemon shares.
fn request_from(args: &ArgSet) -> Result<PredictRequest, CliError> {
    Ok(PredictRequest {
        tp: args.get_num_opt("tp")?,
        pp: args.get_num_opt("pp")?,
        dp: args.get_num_opt("dp")?,
        layers: args.get_num_opt("layers")?,
        hidden: args.get_num_opt("hidden")?,
        ffn: args.get_num_opt("ffn")?,
        seq: args.get_num_opt("seq")?,
        microbatches: args.get_num_opt("microbatches")?,
        ..PredictRequest::default()
    })
}

/// Runs `lumos predict`.
///
/// # Errors
///
/// Returns usage, I/O, parse, transform, and simulation failures.
pub fn run(args: &ArgSet, out: &mut dyn Write) -> Result<(), CliError> {
    let transforms = request_from(args)?
        .transforms()
        .map_err(|e| knob_error(&e, None))?;
    let scales = scales_from(args)?;
    let json = args.has("json");
    if json {
        // The JSON schema is the serve protocol's predict response;
        // operator-level scaling and trace export have no place in it.
        if !scales.is_empty() {
            return Err(CliError::Usage(
                "--scale-* does not apply with --json (the serve protocol has no \
                 operator-scaling fields)"
                    .to_string(),
            ));
        }
        if args.get("out").is_some() {
            return Err(CliError::Usage(
                "--out does not apply with --json".to_string(),
            ));
        }
    }
    if transforms.is_empty() && scales.is_empty() {
        return Err(CliError::Usage(
            "no transform requested (pass --dp/--pp/--tp/--layers/--hidden+--ffn/--seq/\
             --microbatches, or an operator-level --scale-* factor)"
                .to_string(),
        ));
    }

    let toolkit = if args.has("dpro") {
        Lumos::dpro_baseline()
    } else {
        Lumos::new()
    };
    // Calibrated path: the artifact supplies everything ingestion
    // would have produced — a trace positional is only used for a
    // fingerprint check. Fit-on-the-fly path: parse the trace and fit
    // from scratch.
    let (base_label, recorded, mut prediction) =
        if let Some(ci) = calibrated_input(args, &["setup"])? {
            let lookup = ci.artifact.cost_model(ci.fallback);
            let prediction = toolkit.predict_with_library(
                &ci.artifact.library,
                &ci.artifact.setup,
                &transforms,
                &lookup,
            )?;
            (
                ci.artifact.setup.label(),
                ci.artifact.fingerprint.makespan,
                prediction,
            )
        } else {
            let path = args.one_positional("trace file")?;
            let setup_path = match args.get("setup") {
                Some(p) => p.to_string(),
                None => sidecar_path(path),
            };
            let setup = load_setup(&setup_path)?;
            let trace = load_trace(path)?;
            let prediction =
                toolkit.predict(&trace, &setup, &transforms, AnalyticalCostModel::h100())?;
            (setup.label(), trace.makespan(), prediction)
        };

    if json {
        // One shared schema with the daemon: both sides encode through
        // `response_line` on the same response struct, which is what
        // keeps the two byte-identical.
        let response = lumos_serve::protocol::predict_response(&base_label, recorded, &prediction);
        writeln!(out, "{}", lumos_serve::protocol::response_line(&response))?;
        return Ok(());
    }

    writeln!(out, "base:      {base_label}")?;
    writeln!(out, "target:    {}", prediction.setup.label())?;
    writeln!(out, "recorded:  {}", ms(recorded))?;
    writeln!(out, "predicted: {}", ms(prediction.makespan()))?;
    if !scales.is_empty() {
        // Operator-level what-if on the graph the prediction already
        // built (its replay is re-done below), routed through the
        // fallible scaling APIs so bad factors are usage errors.
        let Replayed {
            mut graph, label, ..
        } = prediction.replayed;
        for (label, factor, apply) in &scales {
            let touched = apply(&mut graph, *factor)
                .map_err(|e| CliError::Usage(format!("--scale option: {e}")))?;
            writeln!(out, "scaled {touched} {label} by {factor}")?;
        }
        prediction.replayed = toolkit.replay_graph(graph, &label)?;
        writeln!(out, "what-if:   {}", ms(prediction.makespan()))?;
    }
    let b = prediction.replayed.breakdown();
    writeln!(out)?;
    writeln!(out, "predicted breakdown:")?;
    for (name, d) in [
        ("exposed compute", b.exposed_compute),
        ("overlapped", b.overlapped),
        ("exposed comm", b.exposed_comm),
        ("other", b.other),
    ] {
        writeln!(out, "  {name:<15} {:>12}", ms(d))?;
    }
    if let Some(out_path) = args.get("out") {
        // The simulated timeline behind the numbers just printed
        // (after any --scale-*): its makespan is the prediction.
        save_trace(&prediction.replayed.trace(), out_path)?;
        writeln!(out)?;
        writeln!(out, "predicted trace: {out_path}")?;
    }
    Ok(())
}
