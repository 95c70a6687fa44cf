//! The `lumos` command-line interface.
//!
//! Wraps the toolkit's workflow (Figure 2) in subcommands:
//!
//! | command | purpose |
//! |---|---|
//! | `synth` | profile a training iteration on the ground-truth cluster |
//! | `synth-infer` | profile an inference request batch |
//! | `info` | trace dimensions, breakdown, heaviest kernels |
//! | `calibrate` | fit a reusable calibration artifact from a trace |
//! | `replay` | replay through Algorithm 1 (`--dpro` for the baseline) |
//! | `predict` | graph manipulation + simulation for what-if configs |
//! | `search` | parallel what-if search over a configuration space |
//! | `faults` | explain a fault-scenario spec and its sampling |
//! | `lint` | statically verify lowered programs deadlock-free |
//! | `sm-util` | §4.2.3 SM-utilization timeline |
//! | `critical-path` | longest dependency chain + bottleneck kernels |
//! | `mfu` | MFU/HFU and memory feasibility (§5 future-work metrics) |
//! | `serve` | persistent estimation daemon over calibration artifacts |
//! | `query` | one-shot client for a running `serve` daemon |
//!
//! `replay`, `predict`, `search`, and `mfu` accept `--calib
//! <artifact>` (the output of `lumos calibrate`) to skip trace
//! ingestion entirely — the calibrate-once, query-many workflow.
//!
//! The binary is a thin wrapper over [`run`], which writes to any
//! `Write` so tests can drive it in-process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod common;
mod error;

pub use args::{ArgSet, ArgSpec};
pub use error::CliError;

use std::io::Write;

const GENERAL_HELP: &str = "lumos — trace-driven performance modeling for LLM training\n\
\n\
usage: lumos <command> [args]\n\
\n\
commands:\n\
  synth          generate a ground-truth training trace\n\
  synth-infer    generate a ground-truth inference trace\n\
  info           summarize a trace\n\
  calibrate      fit a reusable calibration artifact from a trace\n\
  replay         replay a trace through the simulator\n\
  predict        estimate performance for a modified configuration\n\
  search         rank a whole configuration space from one trace\n\
  faults         explain a fault-scenario spec and its sampling\n\
  lint           statically verify lowered programs deadlock-free\n\
  sm-util        SM-utilization timeline\n\
  critical-path  critical path and bottleneck kernels\n\
  mfu            FLOPS utilization and memory feasibility\n\
  serve          run the persistent estimation daemon\n\
  query          send one request to a running daemon\n\
  help           this message (or `lumos help <command>`)\n";

/// Dispatches one CLI invocation (`args` excludes the binary name).
///
/// # Errors
///
/// Returns usage errors (unknown command/option) and tool failures.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        writeln!(out, "{GENERAL_HELP}")?;
        return Ok(());
    };
    match command.as_str() {
        "synth" => commands::synth::run(&ArgSet::parse(rest, &commands::synth::SPEC)?, out),
        "synth-infer" => {
            commands::synth::run_infer(&ArgSet::parse(rest, &commands::synth::INFER_SPEC)?, out)
        }
        "info" => commands::info::run(&ArgSet::parse(rest, &commands::info::SPEC)?, out),
        "calibrate" => {
            commands::calibrate::run(&ArgSet::parse(rest, &commands::calibrate::SPEC)?, out)
        }
        "replay" => commands::replay::run(&ArgSet::parse(rest, &commands::replay::SPEC)?, out),
        "predict" => commands::predict::run(&ArgSet::parse(rest, &commands::predict::SPEC)?, out),
        "search" => commands::search::run(&ArgSet::parse(rest, &commands::search::SPEC)?, out),
        "faults" => commands::faults::run(&ArgSet::parse(rest, &commands::faults::SPEC)?, out),
        "lint" => commands::lint::run(&ArgSet::parse(rest, &commands::lint::SPEC)?, out),
        "sm-util" => commands::smutil::run(&ArgSet::parse(rest, &commands::smutil::SPEC)?, out),
        "critical-path" => {
            commands::critical::run(&ArgSet::parse(rest, &commands::critical::SPEC)?, out)
        }
        "mfu" => commands::mfu::run(&ArgSet::parse(rest, &commands::mfu::SPEC)?, out),
        "serve" => commands::serve::run(&ArgSet::parse(rest, &commands::serve::SPEC)?, out),
        "query" => commands::query::run(&ArgSet::parse(rest, &commands::query::SPEC)?, out),
        "help" | "--help" | "-h" => {
            match rest.first().map(String::as_str) {
                Some("synth") => writeln!(out, "{}", commands::synth::HELP)?,
                Some("synth-infer") => writeln!(out, "{}", commands::synth::INFER_HELP)?,
                Some("info") => writeln!(out, "{}", commands::info::HELP)?,
                Some("calibrate") => writeln!(out, "{}", commands::calibrate::HELP)?,
                Some("replay") => writeln!(out, "{}", commands::replay::HELP)?,
                Some("predict") => writeln!(out, "{}", commands::predict::HELP)?,
                Some("search") => writeln!(out, "{}", commands::search::HELP)?,
                Some("faults") => writeln!(out, "{}", commands::faults::HELP)?,
                Some("lint") => writeln!(out, "{}", commands::lint::HELP)?,
                Some("sm-util") => writeln!(out, "{}", commands::smutil::HELP)?,
                Some("critical-path") => writeln!(out, "{}", commands::critical::HELP)?,
                Some("mfu") => writeln!(out, "{}", commands::mfu::HELP)?,
                Some("serve") => writeln!(out, "{}", commands::serve::HELP)?,
                Some("query") => writeln!(out, "{}", commands::query::HELP)?,
                Some(other) => return Err(CliError::Usage(format!("unknown command `{other}`"))),
                None => writeln!(out, "{GENERAL_HELP}")?,
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}` (try `lumos help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn no_args_prints_help() {
        let out = run_to_string(&[]).unwrap();
        assert!(out.contains("usage: lumos"));
    }

    #[test]
    fn help_routes_to_command_help() {
        let out = run_to_string(&["help", "predict"]).unwrap();
        assert!(out.contains("--dp"));
        assert!(run_to_string(&["help", "nope"]).is_err());
        assert!(run_to_string(&["help"]).unwrap().contains("sm-util"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = run_to_string(&["frobnicate"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn synth_requires_model_and_out() {
        let err = run_to_string(&["synth"]).unwrap_err();
        assert!(err.to_string().contains("--model"));
    }

    #[test]
    fn end_to_end_synth_info_replay_predict() {
        let dir = std::env::temp_dir().join(format!("lumos-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.json");
        let trace = trace.to_str().unwrap();

        let out = run_to_string(&[
            "synth", "--model", "tiny", "--tp", "2", "--pp", "1", "--dp", "1", "--out", trace,
        ])
        .unwrap();
        assert!(out.contains("profiled tiny @ 2x1x1"));

        let out = run_to_string(&["info", trace]).unwrap();
        assert!(out.contains("ranks:     2"));
        assert!(out.contains("breakdown"));

        let out = run_to_string(&["replay", trace]).unwrap();
        assert!(out.contains("error:"));
        let out_dpro = run_to_string(&["replay", trace, "--dpro"]).unwrap();
        assert!(out_dpro.contains("dPRO"));

        let out = run_to_string(&["predict", trace, "--microbatches", "4"]).unwrap();
        assert!(out.contains("predicted:"));

        // Operator-level what-ifs route through the fallible scaling
        // APIs: valid factors report an adjusted estimate, bad ones
        // are usage errors instead of panics.
        let out = run_to_string(&[
            "predict",
            trace,
            "--scale-gemms",
            "0.5",
            "--scale-host",
            "0.5",
        ])
        .unwrap();
        assert!(out.contains("what-if:"), "{out}");
        assert!(out.contains("scaled"), "{out}");
        let err = run_to_string(&["predict", trace, "--scale-comms", "-1"]).unwrap_err();
        assert!(err.to_string().contains("non-negative"), "{err}");
        let err = run_to_string(&["predict", trace, "--scale-comms", "NaN"]).unwrap_err();
        assert!(err.to_string().contains("non-negative"), "{err}");

        let out = run_to_string(&["sm-util", trace]).unwrap();
        assert!(out.contains("mean utilization"));

        let out = run_to_string(&["critical-path", trace, "--top", "3"]).unwrap();
        assert!(out.contains("bottleneck kernels"));

        let out = run_to_string(&["mfu", trace]).unwrap();
        assert!(out.contains("MFU"));
        assert!(out.contains("peak memory"));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// The value after `key` on the first stdout line starting with it.
    fn field<'a>(out: &'a str, key: &str) -> &'a str {
        out.lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_else(|| panic!("no `{key}` line in:\n{out}"))
            .trim()
    }

    #[test]
    fn predict_out_saves_the_predicted_timeline() {
        let dir = std::env::temp_dir().join(format!("lumos-cli-pout-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("s.json");
        let trace = trace.to_str().unwrap();
        let saved = dir.join("pred.json");
        let saved = saved.to_str().unwrap();
        run_to_string(&[
            "synth", "--model", "tiny", "--tp", "2", "--pp", "2", "--dp", "1", "--out", trace,
        ])
        .unwrap();
        let request = ["predict", trace, "--dp", "2", "--microbatches", "8"];

        let out = run_to_string(&[&request[..], &["--out", saved]].concat()).unwrap();
        let info = run_to_string(&["info", saved]).unwrap();
        assert_eq!(field(&info, "makespan:"), field(&out, "predicted:"));
        // Exactly, not just to the printed precision.
        let json = run_to_string(&[&request[..], &["--json"]].concat()).unwrap();
        let predicted_ns = serde_json::from_str::<serde_json::Value>(&json).unwrap()
            ["predicted_ns"]
            .as_u64()
            .unwrap();
        let loaded = crate::common::load_trace(saved).unwrap();
        assert_eq!(loaded.makespan().as_ns(), predicted_ns);

        // With an operator-level what-if, the saved timeline is the
        // what-if's.
        let out =
            run_to_string(&[&request[..], &["--scale-gemms", "0.5", "--out", saved]].concat())
                .unwrap();
        let info = run_to_string(&["info", saved]).unwrap();
        assert_eq!(field(&info, "makespan:"), field(&out, "what-if:"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn search_from_synth_trace_and_from_model() {
        let dir = std::env::temp_dir().join(format!("lumos-cli-search-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("s.json");
        let trace = trace.to_str().unwrap();

        run_to_string(&[
            "synth", "--model", "tiny", "--tp", "1", "--pp", "2", "--dp", "1", "--out", trace,
        ])
        .unwrap();

        // Trace-file mode with axis flags.
        let out = run_to_string(&[
            "search",
            trace,
            "--dp",
            "1,2,4",
            "--microbatches",
            "2,4",
            "--top",
            "3",
        ])
        .unwrap();
        assert!(out.contains("grid points"), "{out}");
        assert!(out.contains("tok/s/GPU"), "{out}");
        assert!(out.contains("objective"), "{out}");

        // Space-file mode layered under a flag override.
        let spec = dir.join("space.toml");
        std::fs::write(
            &spec,
            "dp = [1, 2]\nmicrobatches = [2]\nobjective = \"makespan\"\ntop-k = 2\n",
        )
        .unwrap();
        let out = run_to_string(&[
            "search",
            trace,
            "--space",
            spec.to_str().unwrap(),
            "--dp",
            "1,2,4",
        ])
        .unwrap();
        assert!(out.contains("objective: makespan"), "{out}");

        // Trace-less mode profiles the base itself.
        let out = run_to_string(&[
            "search",
            "--model",
            "tiny",
            "--base-pp",
            "2",
            "--dp",
            "1,2",
            "--microbatches",
            "2",
        ])
        .unwrap();
        assert!(out.contains("profiling base"), "{out}");
        assert!(out.contains("rank"), "{out}");

        // Streaming knobs: --keep-all retains the full ranking,
        // --progress only writes to stderr (stdout table unchanged).
        let out = run_to_string(&[
            "search",
            trace,
            "--dp",
            "1,2,4",
            "--microbatches",
            "2,4",
            "--top",
            "2",
            "--keep-all",
            "--progress",
        ])
        .unwrap();
        assert!(out.contains("rank"), "{out}");

        // Usage errors stay loud.
        assert!(run_to_string(&["search"]).is_err());
        assert!(run_to_string(&["search", trace, "--dp", "x"]).is_err());
        assert!(run_to_string(&["search", trace, "--model", "tiny"]).is_err());
        assert!(run_to_string(&["help", "search"])
            .unwrap()
            .contains("--space"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn calibrate_once_query_many_byte_identical() {
        let dir = std::env::temp_dir().join(format!("lumos-cli-calib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("c.json");
        let trace = trace.to_str().unwrap();
        let art = dir.join("c.calib.json");
        let art = art.to_str().unwrap();

        run_to_string(&[
            "synth", "--model", "tiny", "--tp", "1", "--pp", "2", "--dp", "1", "--out", trace,
        ])
        .unwrap();
        let out = run_to_string(&["calibrate", trace, "--out", art]).unwrap();
        assert!(out.contains("calibrated tiny @ 1x2x1"), "{out}");
        assert!(out.contains("compute shapes"), "{out}");

        // predict: the calibrated path must reproduce the
        // fit-on-the-fly output byte for byte.
        let fresh = run_to_string(&["predict", trace, "--dp", "2", "--microbatches", "4"]).unwrap();
        let calibrated = run_to_string(&[
            "predict",
            "--calib",
            art,
            "--dp",
            "2",
            "--microbatches",
            "4",
        ])
        .unwrap();
        assert_eq!(fresh, calibrated);

        // search: same byte-identity, including the refinement phase.
        let search_args = [
            "--dp",
            "1,2,4",
            "--microbatches",
            "2,4",
            "--top",
            "3",
            "--refine-sim",
        ];
        let mut fresh_args = vec!["search", trace];
        fresh_args.extend_from_slice(&search_args);
        let mut calib_args = vec!["search", "--calib", art];
        calib_args.extend_from_slice(&search_args);
        let fresh = run_to_string(&fresh_args).unwrap();
        let calibrated = run_to_string(&calib_args).unwrap();
        assert_eq!(fresh, calibrated);

        // mfu from the artifact alone.
        let out = run_to_string(&["mfu", "--calib", art]).unwrap();
        assert!(out.contains("MFU"), "{out}");
        assert!(out.contains("tiny @ 1x2x1"), "{out}");

        // replay from the artifact alone (identity reassembly).
        let out = run_to_string(&["replay", "--calib", art]).unwrap();
        assert!(out.contains("replayed:"), "{out}");
        assert!(out.contains("recorded:"), "{out}");

        // Passing the matching trace alongside --calib is allowed
        // (fingerprint check passes)...
        let out = run_to_string(&["predict", trace, "--calib", art, "--dp", "2"]).unwrap();
        assert!(out.contains("predicted:"), "{out}");

        // ...but a different trace is rejected with a fingerprint
        // error.
        let other = dir.join("other.json");
        let other = other.to_str().unwrap();
        run_to_string(&[
            "synth", "--model", "tiny", "--tp", "1", "--pp", "2", "--dp", "1", "--seed", "7",
            "--out", other,
        ])
        .unwrap();
        let err = run_to_string(&["predict", other, "--calib", art, "--dp", "2"]).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");

        // Tampered artifacts are rejected on load (digest check), and
        // wrong versions are rejected by name.
        let mut doc = std::fs::read_to_string(art).unwrap();
        doc = doc.replace("\"hardware\":\"h100\"", "\"hardware\":\"h999\"");
        let tampered = dir.join("tampered.json");
        std::fs::write(&tampered, doc.replace("\"version\":1", "\"version\":99")).unwrap();
        let err = run_to_string(&[
            "predict",
            "--calib",
            tampered.to_str().unwrap(),
            "--dp",
            "2",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lint_verifies_setups_spaces_and_jobs() {
        // Single-setup mode.
        let out = run_to_string(&[
            "lint", "--model", "tiny", "--tp", "2", "--pp", "2", "--dp", "1",
        ])
        .unwrap();
        assert!(out.contains("deadlock-free"), "{out}");

        // Space-file mode walks the whole grid.
        let dir = std::env::temp_dir().join(format!("lumos-cli-lint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("space.toml");
        std::fs::write(
            &spec,
            "tp = [1, 2]\npp = [1, 2]\ndp = [1]\nmicrobatches = [2, 4]\n",
        )
        .unwrap();
        let out = run_to_string(&["lint", spec.to_str().unwrap(), "--model", "tiny"]).unwrap();
        assert!(out.contains("all deadlock-free"), "{out}");
        assert!(out.contains("candidate(s)"), "{out}");

        // Job mode rejects the committed deadlock fixture with a
        // named cycle.
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/fixtures/deadlock.json"
        );
        let err = run_to_string(&["lint", "--job", fixture]).unwrap_err();
        assert!(err.to_string().contains("static deadlock"), "{err}");
        assert!(err.to_string().contains("cycle repeats"), "{err}");

        // Usage errors: no input at all, job + space file together.
        assert!(run_to_string(&["lint"]).is_err());
        assert!(run_to_string(&["lint", spec.to_str().unwrap(), "--job", fixture]).is_err());
        assert!(run_to_string(&["help", "lint"]).unwrap().contains("--job"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lint_axis_flags_override_the_space_file() {
        let dir = std::env::temp_dir().join(format!("lumos-cli-lintaxis-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let committed = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/spaces/schedules.toml"
        );
        let text = std::fs::read_to_string(committed).unwrap();
        assert!(text.contains("pp = [2, 4]\ndp = [1, 2]\n"), "{text}");
        let edited = dir.join("edited.toml");
        std::fs::write(
            &edited,
            text.replace("pp = [2, 4]\ndp = [1, 2]\n", "pp = [2]\ndp = [1]\n"),
        )
        .unwrap();
        let flagged = run_to_string(&[
            "lint", committed, "--model", "tiny", "--pp", "2", "--dp", "1",
        ])
        .unwrap();
        let in_file =
            run_to_string(&["lint", edited.to_str().unwrap(), "--model", "tiny"]).unwrap();
        assert_eq!(flagged, in_file);
        let all = run_to_string(&["lint", committed, "--model", "tiny"]).unwrap();
        assert_ne!(flagged, all, "the flags must narrow the grid");

        // A key set twice is a usage error naming path, line and key,
        // for lint and search alike.
        let twice = dir.join("twice.toml");
        std::fs::write(&twice, "tp = [2]\ntp = [1]\n").unwrap();
        let twice = twice.to_str().unwrap();
        for args in [
            vec!["lint", twice, "--model", "tiny"],
            vec!["search", "--model", "tiny", "--space", twice],
        ] {
            let err = run_to_string(&args).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{err}");
            let msg = err.to_string();
            assert!(msg.contains(twice), "{msg}");
            assert!(msg.contains("line 2: key `tp`: set twice"), "{msg}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn search_verify_gate_and_byte_identity() {
        // --verify requires the refinement phase.
        let err = run_to_string(&["search", "--verify"]).unwrap_err();
        assert!(err.to_string().contains("--verify only applies"), "{err}");

        // Verification never changes results for clean programs.
        let dir = std::env::temp_dir().join(format!("lumos-cli-sverify-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("v.json");
        let trace = trace.to_str().unwrap();
        run_to_string(&[
            "synth", "--model", "tiny", "--tp", "1", "--pp", "2", "--dp", "1", "--out", trace,
        ])
        .unwrap();
        let base = run_to_string(&[
            "search",
            trace,
            "--dp",
            "1,2",
            "--microbatches",
            "2",
            "--refine-sim",
        ])
        .unwrap();
        let verified = run_to_string(&[
            "search",
            trace,
            "--dp",
            "1,2",
            "--microbatches",
            "2",
            "--refine-sim",
            "--verify",
        ])
        .unwrap();
        assert_eq!(base, verified);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faults_explain_summarizes_spec_and_sampling() {
        let dir = std::env::temp_dir().join(format!("lumos-cli-fexpl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("mix.toml");
        std::fs::write(
            &spec,
            "version = 1\n\
             [[straggler]]\nprobability = 0.9\nslowdown = 1.5\n\
             [[degradation]]\nprobability = 0.5\nscope = \"dp\"\nbandwidth_factor = 0.25\n\
             [[failure]]\nprobability = 0.3\nelastic = true\n",
        )
        .unwrap();
        let out = run_to_string(&["faults", "explain", spec.to_str().unwrap()]).unwrap();
        assert!(
            out.contains("1 straggler, 1 degradation, 1 failure"),
            "{out}"
        );
        assert!(out.contains("1.50x slowdown"), "{out}");
        assert!(out.contains("dp collectives"), "{out}");
        assert!(out.contains("elastic re-shard"), "{out}");
        assert!(out.contains("replica   0:"), "{out}");
        assert!(out.contains("replica(s) clean"), "{out}");

        // Sampling is deterministic and seed-sensitive.
        let again = run_to_string(&["faults", "explain", spec.to_str().unwrap()]).unwrap();
        assert_eq!(out, again);
        let reseeded =
            run_to_string(&["faults", "explain", spec.to_str().unwrap(), "--seed", "7"]).unwrap();
        assert_ne!(out, reseeded);

        // An empty spec says so instead of sampling clean replicas.
        let empty = dir.join("empty.toml");
        std::fs::write(&empty, "version = 1\n").unwrap();
        let out = run_to_string(&["faults", "explain", empty.to_str().unwrap()]).unwrap();
        assert!(
            out.contains("byte-identical to plain --refine-sim"),
            "{out}"
        );

        // Usage errors: missing path, unknown action.
        assert!(run_to_string(&["faults"]).is_err());
        let err = run_to_string(&["faults", "frob", spec.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("unknown action"), "{err}");
        assert!(run_to_string(&["help", "faults"])
            .unwrap()
            .contains("--replicas"));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite guarantee: every malformed fault-spec field fails as
    /// a usage error (exit code 2 at the binary boundary) whose
    /// message names both the offending file and the offending key.
    #[test]
    fn malformed_fault_specs_name_path_and_key() {
        let dir = std::env::temp_dir().join(format!("lumos-cli-fbad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // One case per malformed field: (spec text, named key/table).
        let cases: &[(&str, &str)] = &[
            ("version = 9", "version"),
            ("version = 1.5", "version"),
            ("[[gremlin]]\n", "gremlin"),
            ("[straggler]\n", "array-of-tables"),
            ("not a key value line\n", "line 1"),
            (
                "[[straggler]]\nslowdown = 1.5\nprobability = 2.0",
                "probability",
            ),
            (
                "[[straggler]]\nprobability = 0.5\nslowdown = 1.5\nranks = 0",
                "ranks",
            ),
            ("[[straggler]]\nprobability = 0.5", "slowdown"),
            (
                "[[straggler]]\nprobability = 0.5\nslowdown = 0.5",
                "slowdown",
            ),
            (
                "[[straggler]]\nprobability = 0.5\nslowdown = 1.5\nfoo = 1",
                "foo",
            ),
            (
                "[[degradation]]\nprobability = 0.5\nbandwidth_factor = 0.5\nscope = \"np\"",
                "scope",
            ),
            ("[[degradation]]\nprobability = 0.5", "bandwidth_factor"),
            (
                "[[degradation]]\nprobability = 0.5\nbandwidth_factor = 0.0",
                "bandwidth_factor",
            ),
            (
                "[[degradation]]\nprobability = 0.5\nbandwidth_factor = 0.5\nstart_frac = -1",
                "start_frac",
            ),
            (
                "[[degradation]]\nprobability = 0.5\nbandwidth_factor = 0.5\nend_frac = 0.0",
                "end_frac",
            ),
            (
                "[[failure]]\nprobability = 0.5\ncheckpoint_interval = 0.5",
                "checkpoint_interval",
            ),
            (
                "[[failure]]\nprobability = 0.5\nrestart_latency_s = -1",
                "restart_latency_s",
            ),
            (
                "[[failure]]\nprobability = 0.5\nreshard_cost_s = -1",
                "reshard_cost_s",
            ),
            ("[[failure]]\nprobability = 0.5\nelastic = 1", "elastic"),
            (
                "version = 1\nversion = 1",
                "line 2: key `version`: set twice",
            ),
            (
                "[[straggler]]\nslowdown = 1.5\nslowdown = 2.0",
                "line 3: [[straggler]] #1: key `slowdown`: set twice (first on line 2)",
            ),
        ];
        for (i, (text, key)) in cases.iter().enumerate() {
            let path = dir.join(format!("bad{i}.toml"));
            std::fs::write(&path, text).unwrap();
            let path = path.to_str().unwrap();
            let err = run_to_string(&["faults", "explain", path]).unwrap_err();
            assert!(
                matches!(err, CliError::Usage(_)),
                "case {i}: expected a usage error (exit 2), got {err}"
            );
            let msg = err.to_string();
            assert!(msg.contains(path), "case {i}: path missing from `{msg}`");
            assert!(msg.contains(key), "case {i}: `{key}` missing from `{msg}`");
            // The search-side loader wraps the same parser the same way.
            let err = run_to_string(&["search", "--model", "tiny", "--faults", path]).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "case {i}: {err}");
            assert!(err.to_string().contains(key), "case {i}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn search_faults_gates_columns_and_empty_spec_identity() {
        // Replica/seed knobs require a spec to apply to.
        let err = run_to_string(&["search", "--fault-replicas", "4"]).unwrap_err();
        assert!(
            err.to_string().contains("--fault-replicas only applies"),
            "{err}"
        );
        let err = run_to_string(&["search", "--fault-seed", "7"]).unwrap_err();
        assert!(
            err.to_string().contains("--fault-seed only applies"),
            "{err}"
        );

        let dir = std::env::temp_dir().join(format!("lumos-cli-frun-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("f.json");
        let trace = trace.to_str().unwrap();
        run_to_string(&[
            "synth", "--model", "tiny", "--tp", "1", "--pp", "2", "--dp", "1", "--out", trace,
        ])
        .unwrap();

        // An empty spec is byte-identical to plain --refine-sim.
        let empty = dir.join("empty.toml");
        std::fs::write(&empty, "version = 1\n").unwrap();
        let plain = run_to_string(&[
            "search",
            trace,
            "--dp",
            "1,2",
            "--microbatches",
            "2",
            "--refine-sim",
        ])
        .unwrap();
        let with_empty = run_to_string(&[
            "search",
            trace,
            "--dp",
            "1,2",
            "--microbatches",
            "2",
            "--faults",
            empty.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(plain, with_empty);

        // A real spec adds the robustness columns (--faults implies
        // the refinement pass on its own).
        let spec = dir.join("slow.toml");
        std::fs::write(
            &spec,
            "version = 1\n[[straggler]]\nprobability = 1.0\nslowdown = 2.0\n",
        )
        .unwrap();
        let out = run_to_string(&[
            "search",
            trace,
            "--dp",
            "1,2",
            "--microbatches",
            "2",
            "--faults",
            spec.to_str().unwrap(),
            "--fault-replicas",
            "3",
            "--fault-seed",
            "11",
        ])
        .unwrap();
        assert!(
            out.contains("expected makespan under injected faults"),
            "{out}"
        );
        assert!(out.contains("expected (ms)"), "{out}");
        assert!(out.contains("robust"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synth_infer_produces_trace() {
        let dir = std::env::temp_dir().join(format!("lumos-cli-inf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("inf.json");
        let trace = trace.to_str().unwrap();
        let out = run_to_string(&[
            "synth-infer",
            "--model",
            "tiny",
            "--tp",
            "2",
            "--batch",
            "2",
            "--prompt",
            "64",
            "--decode",
            "2",
            "--out",
            trace,
        ])
        .unwrap();
        assert!(out.contains("serve"));
        let out = run_to_string(&["replay", trace]).unwrap();
        assert!(out.contains("replayed:"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_rejects_empty_transform_set() {
        let err = run_to_string(&["predict", "nonexistent.json"]).unwrap_err();
        // Fails on the missing sidecar before transform validation;
        // both are user-visible errors.
        assert!(!err.to_string().is_empty());
    }
}
