//! Helpers shared by subcommands: preset parsing, trace/setup and
//! spec-file I/O, search-space flags, and duration formatting.

use crate::args::ArgSet;
use crate::error::CliError;
use lumos_calib::CalibrationArtifact;
use lumos_model::{ModelConfig, TrainingSetup};
use lumos_search::SpecFile;
use lumos_trace::{from_chrome_json, to_chrome_json, ChromeTraceOptions, ClusterTrace, Dur};
use std::fmt;
use std::fs;
use std::path::Path;

/// Resolves a model preset name (Table 1 / Table 2 / `tiny`) via the
/// shared [`ModelConfig::from_preset`] resolver.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown names.
pub fn parse_model(name: &str) -> Result<ModelConfig, CliError> {
    ModelConfig::from_preset(name).map_err(|e| CliError::Usage(e.to_string()))
}

/// Resolves a pipeline-schedule name (`1f1b`, `gpipe`, `zb-h1`, or a
/// wire name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] listing the known set.
pub fn parse_schedule(name: &str) -> Result<lumos_model::ScheduleKind, CliError> {
    lumos_model::ScheduleKind::from_name(name).map_err(|e| CliError::Usage(e.to_string()))
}

/// Reads a spec file (a `--space` search space or a `--faults` fault
/// spec) and parses it with `parse`.
///
/// # Errors
///
/// Returns read failures naming `path`, and parse failures as
/// [`CliError::Usage`] (exit code 2) naming `what`, `path`, and the
/// line and key the parser reports.
pub fn read_spec<T, E: fmt::Display>(
    what: &str,
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, CliError> {
    let text = fs::read_to_string(path).map_err(|e| CliError::file(path, e))?;
    parse(&text).map_err(|e| CliError::Usage(format!("{what} `{path}`: {e}")))
}

/// Comma-separated integer list (`--tp 1,2,4`).
fn parse_axis(args: &ArgSet, name: &str) -> Result<Option<Vec<u32>>, CliError> {
    match args.get(name) {
        None => Ok(None),
        Some(raw) => raw
            .split(',')
            .map(|s| {
                s.trim().parse::<u32>().map_err(|_| {
                    CliError::Usage(format!("option --{name}: cannot parse `{s}` in `{raw}`"))
                })
            })
            .collect::<Result<Vec<u32>, CliError>>()
            .map(Some),
    }
}

/// Builds a search space: the space file at `path` first (if any),
/// then the axis flags (`--tp`, `--pp`, `--dp`, `--microbatches`,
/// `--interleave`, `--schedules`, `--gpus`, `--max-gpus`), each
/// replacing the file's value. Used by `lumos search` and `lumos lint`.
///
/// # Errors
///
/// Returns spec-file failures and unparsable flag values.
pub fn space_from(args: &ArgSet, path: Option<&str>) -> Result<SpecFile, CliError> {
    let mut file = match path {
        Some(path) => read_spec("space file", path, SpecFile::parse)?,
        None => SpecFile::default(),
    };
    if let Some(v) = parse_axis(args, "tp")? {
        file.space.tp = v;
    }
    if let Some(v) = parse_axis(args, "pp")? {
        file.space.pp = v;
    }
    if let Some(v) = parse_axis(args, "dp")? {
        file.space.dp = v;
    }
    if let Some(v) = parse_axis(args, "microbatches")? {
        file.space.microbatches = v;
    }
    if let Some(v) = parse_axis(args, "interleave")? {
        file.space.interleave = v;
    }
    if let Some(raw) = args.get("schedules") {
        file.space.schedules = raw
            .split(',')
            .map(|s| parse_schedule(s.trim()))
            .collect::<Result<Vec<_>, CliError>>()?;
    }
    if let Some(v) = parse_axis(args, "gpus")? {
        file.space.gpus = Some(v);
    }
    if let Some(v) = args.get_num_opt::<u32>("max-gpus")? {
        file.space.max_gpus = v;
    }
    Ok(file)
}

/// Reads a Chrome-Trace-Format (Kineto-style) trace file.
///
/// # Errors
///
/// Returns I/O and parse failures, always naming `path`.
pub fn load_trace(path: &str) -> Result<ClusterTrace, CliError> {
    let text = fs::read_to_string(path).map_err(|e| CliError::file(path, e))?;
    from_chrome_json(&text).map_err(|e| CliError::file(path, format!("trace error: {e}")))
}

/// Writes a trace as Chrome-Trace-Format JSON.
///
/// # Errors
///
/// Returns I/O failures, always naming `path`.
pub fn save_trace(trace: &ClusterTrace, path: &str) -> Result<(), CliError> {
    let json = to_chrome_json(trace, &ChromeTraceOptions::default());
    fs::write(path, json).map_err(|e| CliError::file(path, e))
}

/// Reads a [`TrainingSetup`] sidecar JSON (written by `lumos synth`).
///
/// # Errors
///
/// Returns I/O and parse failures, always naming `path`.
pub fn load_setup(path: &str) -> Result<TrainingSetup, CliError> {
    let text = fs::read_to_string(path).map_err(|e| CliError::file(path, e))?;
    serde_json::from_str(&text).map_err(|e| CliError::file(path, format!("setup error: {e}")))
}

/// Writes a [`TrainingSetup`] sidecar JSON.
///
/// # Errors
///
/// Returns I/O failures, always naming `path`.
pub fn save_setup(setup: &TrainingSetup, path: &str) -> Result<(), CliError> {
    let json = serde_json::to_string_pretty(setup)?;
    fs::write(path, json).map_err(|e| CliError::file(path, e))
}

/// Loads and validates a calibration artifact (`lumos calibrate`
/// output); the version and content-digest checks happen inside
/// [`CalibrationArtifact::load`].
///
/// # Errors
///
/// Returns load/validation failures, always naming `path`.
pub fn load_artifact(path: &str) -> Result<CalibrationArtifact, CliError> {
    CalibrationArtifact::load(path).map_err(CliError::from)
}

/// Everything a `--calib` invocation supplies up front: the validated
/// artifact, the fallback cost model its `hardware` preset names, and
/// the fingerprint-checked trace when one was also given.
pub struct CalibratedInput {
    /// The loaded artifact.
    pub artifact: lumos_calib::CalibrationArtifact,
    /// The fallback the calibration assumed for unseen shapes.
    pub fallback: lumos_cost::AnalyticalCostModel,
    /// The trace positional, loaded and verified, when present.
    pub trace: Option<ClusterTrace>,
}

/// The shared `--calib` prologue: rejects options the artifact
/// already carries (`conflicting`), rejects surplus positionals,
/// loads + validates the artifact, resolves its hardware preset, and
/// fingerprint-checks the optional trace positional. `Ok(None)` when
/// `--calib` was not given.
///
/// # Errors
///
/// Returns usage, load/validation, and fingerprint failures.
pub fn calibrated_input(
    args: &crate::args::ArgSet,
    conflicting: &[&str],
) -> Result<Option<CalibratedInput>, CliError> {
    let Some(calib_path) = args.get("calib") else {
        return Ok(None);
    };
    for opt in conflicting {
        if args.get(opt).is_some() {
            return Err(CliError::Usage(format!(
                "--{opt} does not apply with --calib (the artifact already carries it)"
            )));
        }
    }
    if args.positionals().len() > 1 {
        return Err(CliError::Usage(
            "--calib takes at most one trace file (used only for a fingerprint check)".to_string(),
        ));
    }
    let artifact = load_artifact(calib_path)?;
    let fallback =
        lumos_cost::AnalyticalCostModel::from_preset(&artifact.hardware).ok_or_else(|| {
            CliError::Tool(format!(
                "calibration artifact names unknown hardware preset `{}` \
                 (this build knows h100 and a100)",
                artifact.hardware
            ))
        })?;
    let trace = match args.positionals().first() {
        Some(path) => {
            let trace = load_trace(path)?;
            artifact.verify_trace(&trace)?;
            Some(trace)
        }
        None => None,
    };
    Ok(Some(CalibratedInput {
        artifact,
        fallback,
        trace,
    }))
}

/// Derives the conventional sidecar path `<trace>.setup.json`.
pub fn sidecar_path(trace_path: &str) -> String {
    let p = Path::new(trace_path);
    match p.extension().and_then(|e| e.to_str()) {
        Some("json") => {
            let stem = p.with_extension("");
            format!("{}.setup.json", stem.display())
        }
        _ => format!("{trace_path}.setup.json"),
    }
}

/// Formats a duration as milliseconds with two decimals.
pub fn ms(d: Dur) -> String {
    format!("{:.2} ms", d.as_ms_f64())
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_presets_resolve() {
        assert_eq!(parse_model("tiny").unwrap().name, "tiny");
        assert_eq!(parse_model("175B").unwrap().num_layers, 96);
        assert!(parse_model("9000b").is_err());
    }

    #[test]
    fn schedule_names_resolve() {
        assert_eq!(
            parse_schedule("zb-h1").unwrap(),
            lumos_model::ScheduleKind::ZbH1
        );
        let err = parse_schedule("dualpipe").unwrap_err().to_string();
        assert!(err.contains("dualpipe") && err.contains("1f1b"), "{err}");
    }

    #[test]
    fn io_errors_name_the_file() {
        for err in [
            load_trace("no-such-trace.json").unwrap_err(),
            load_setup("no-such-setup.json").unwrap_err(),
            load_artifact("no-such-artifact.json").unwrap_err(),
            save_trace(&lumos_trace::ClusterTrace::new("x"), "/no/such/dir/t.json").unwrap_err(),
        ] {
            assert!(err.to_string().contains("no-such") || err.to_string().contains("/no/such"));
        }
        // Parse failures name the file too, not just I/O ones.
        let dir = std::env::temp_dir().join(format!("lumos-cli-common-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{ not json").unwrap();
        let err = load_setup(bad.to_str().unwrap()).unwrap_err();
        assert!(err.to_string().contains("bad.json"), "{err}");
        let err = load_trace(bad.to_str().unwrap()).unwrap_err();
        assert!(err.to_string().contains("bad.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sidecar_naming() {
        assert_eq!(sidecar_path("a/b/trace.json"), "a/b/trace.setup.json");
        assert_eq!(sidecar_path("trace.bin"), "trace.bin.setup.json");
    }

    #[test]
    fn formatting() {
        assert_eq!(ms(Dur::from_us(1500)), "1.50 ms");
        assert_eq!(pct(0.0334), "3.3%");
    }
}
