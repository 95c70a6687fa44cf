//! The two spec-file formats, read by the one TOML-subset reader
//! (`lumos::model::spec`): every committed search space and fault spec
//! parses to pinned values, and every malformed input fails with the
//! line, table instance and key it concerns.

use lumos::cluster::scenario::{DegradationSpec, FailureSpec, StragglerSpec};
use lumos::cluster::FaultSpec;
use lumos::model::spec::SpecError;
use lumos::model::{RecoveryCosts, ScheduleKind, ScopeClass};
use lumos::search::{Objective, SearchError, SpaceSpec, SpecFile};
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn read(rel: &str) -> String {
    std::fs::read_to_string(Path::new(ROOT).join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

fn space_error(text: &str) -> SpecError {
    match SpecFile::parse(text) {
        Err(SearchError::Spec(e)) => e,
        other => panic!("expected a spec error for {text:?}, got {other:?}"),
    }
}

/// Every `.toml` file in an examples directory, relative to the root.
fn committed(dir: &str) -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(Path::new(ROOT).join(dir))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".toml"))
        .map(|name| format!("{dir}/{name}"))
        .collect();
    files.sort();
    files
}

#[test]
fn committed_spaces_parse_to_pinned_values() {
    let pinned = vec![
        (
            "examples/spaces/robust-demo.toml",
            SpecFile {
                space: SpaceSpec {
                    tp: vec![1],
                    pp: vec![1, 2],
                    dp: vec![1],
                    microbatches: vec![8],
                    ..SpaceSpec::default()
                },
                objective: Some(Objective::Makespan),
                top_k: Some(4),
                gpu_memory_gib: None,
            },
        ),
        (
            "examples/spaces/schedules.toml",
            SpecFile {
                space: SpaceSpec {
                    tp: vec![2],
                    pp: vec![2, 4],
                    dp: vec![1, 2],
                    microbatches: vec![4, 8],
                    schedules: vec![
                        ScheduleKind::OneFOneB,
                        ScheduleKind::GPipe,
                        ScheduleKind::ZbH1,
                    ],
                    max_gpus: 16,
                    ..SpaceSpec::default()
                },
                objective: Some(Objective::PerGpuThroughput),
                top_k: Some(10),
                gpu_memory_gib: Some(80),
            },
        ),
        (
            "examples/spaces/sweep.toml",
            SpecFile {
                space: SpaceSpec {
                    tp: vec![2, 4, 8],
                    pp: vec![1, 2, 4, 8],
                    dp: vec![1, 2, 4, 8],
                    microbatches: vec![4, 8, 16],
                    interleave: vec![1, 2],
                    max_gpus: 64,
                    ..SpaceSpec::default()
                },
                objective: Some(Objective::PerGpuThroughput),
                top_k: Some(10),
                gpu_memory_gib: Some(80),
            },
        ),
    ];
    let names: Vec<&str> = pinned.iter().map(|p| p.0).collect();
    assert_eq!(committed("examples/spaces"), names, "pin every space file");
    for (path, want) in pinned {
        let file = SpecFile::parse(&read(path)).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(file.space, want.space, "{path}");
        assert_eq!(file.objective, want.objective, "{path}");
        assert_eq!(file.top_k, want.top_k, "{path}");
        assert_eq!(file.gpu_memory_gib, want.gpu_memory_gib, "{path}");
    }
}

#[test]
fn committed_fault_specs_parse_to_pinned_values() {
    let defaults = RecoveryCosts::defaults();
    let pinned = vec![
        (
            "examples/fixtures/faults-pp-degraded.toml",
            FaultSpec {
                degradations: vec![DegradationSpec {
                    probability: 1.0,
                    scope: Some(ScopeClass::Pp),
                    bandwidth_factor: 0.001,
                    start_frac: 0.0,
                    end_frac: 100.0,
                }],
                ..FaultSpec::default()
            },
        ),
        (
            "examples/fixtures/faults.toml",
            FaultSpec {
                stragglers: vec![StragglerSpec {
                    probability: 0.4,
                    ranks: 1,
                    slowdown: 1.35,
                }],
                degradations: vec![DegradationSpec {
                    probability: 0.3,
                    scope: Some(ScopeClass::Dp),
                    bandwidth_factor: 0.25,
                    start_frac: 0.25,
                    end_frac: 0.75,
                }],
                failures: vec![
                    FailureSpec {
                        probability: 0.1,
                        elastic: false,
                        recovery: RecoveryCosts {
                            checkpoint_interval_iters: 100,
                            restart_latency_s: 120.0,
                            ..defaults
                        },
                    },
                    FailureSpec {
                        probability: 0.05,
                        elastic: true,
                        recovery: RecoveryCosts {
                            reshard_cost_s: 45.0,
                            ..defaults
                        },
                    },
                ],
            },
        ),
    ];
    let names: Vec<&str> = pinned.iter().map(|p| p.0).collect();
    assert_eq!(
        committed("examples/fixtures"),
        names,
        "pin every fault spec"
    );
    for (path, spec) in pinned {
        assert_eq!(FaultSpec::parse(&read(path)), Ok(spec), "{path}");
    }
}

#[test]
fn dashes_and_underscores_name_the_same_key() {
    let space = SpecFile::parse("max_gpus = 8\ntop-k = 3\ngpu_memory-gib = 40").unwrap();
    assert_eq!(space.space.max_gpus, 8);
    assert_eq!((space.top_k, space.gpu_memory_gib), (Some(3), Some(40)));
    let underscores =
        "[[degradation]]\nbandwidth_factor = 0.5\nstart_frac = 0.25\n[[failure]]\nrestart_latency_s = 1";
    let dashes =
        "[[degradation]]\nbandwidth-factor = 0.5\nstart-frac = 0.25\n[[failure]]\nrestart-latency-s = 1";
    assert_eq!(FaultSpec::parse(dashes), FaultSpec::parse(underscores));
    assert!(FaultSpec::parse(dashes).is_ok());
}

#[test]
fn grammar_edges_parse_as_written() {
    let text = "tp = [ 1, 2, ]  # trailing comma\npp = []\narch = [ [8, 4096, 16384] , ]\n\
                objective = \"mfu\"# no space before the comment\n";
    let file = SpecFile::parse(text).unwrap();
    assert_eq!(file.space.tp, vec![1, 2]);
    assert!(file.space.pp.is_empty());
    assert_eq!(file.space.arch[0].label, "8L-d4096");
    assert_eq!(file.objective, Some(Objective::Mfu));
    // `#` inside a string is text, not a comment.
    let e = space_error("objective = \"mfu # fast\"");
    assert!(e.detail.contains("mfu # fast"), "{e}");
    // Float keys take what `f64::from_str` takes; headers may pad names.
    let spec = FaultSpec::parse("version = 1.0\n[[ straggler ]]\nslowdown = 15e-1").unwrap();
    assert_eq!(spec.stragglers[0].slowdown, 1.5);
}

/// `(input, line, table instance, key, detail fragment)`.
type Case = (
    &'static str,
    usize,
    Option<(&'static str, usize)>,
    Option<&'static str>,
    &'static str,
);

fn check(format: &str, cases: &[Case], parse: impl Fn(&str) -> SpecError) {
    for &(text, line, table, key, detail) in cases {
        let e = parse(text);
        let context = format!("{format} {text:?} -> {e}");
        assert_eq!(e.line, line, "line: {context}");
        assert_eq!(e.table, table, "table: {context}");
        assert_eq!(e.key.as_deref(), key, "key: {context}");
        assert!(e.detail.contains(detail), "detail: {context}");
    }
}

#[test]
fn malformed_space_files_name_line_and_key() {
    let cases: &[Case] = &[
        (
            "tp = [2]\ntp = [1]",
            2,
            None,
            Some("tp"),
            "set twice (first on line 1)",
        ),
        (
            "max-gpus = 8\nmax_gpus = 4",
            2,
            None,
            Some("max_gpus"),
            "set twice (first on line 1)",
        ),
        ("tp = [1]\nbogus = 3", 2, None, Some("bogus"), "unknown key"),
        ("tp", 1, None, None, "expected `key = value`"),
        ("[section]", 1, None, None, "tables are not supported"),
        (
            "# sweep\n[[section]]",
            2,
            None,
            None,
            "tables are not supported",
        ),
        ("tp = 1,2", 1, None, Some("tp"), "unexpected `,2`"),
        (
            "\n\ntp = [2.5]",
            3,
            None,
            Some("tp"),
            "expected an integer, got `2.5`",
        ),
        ("tp = [1,,2]", 1, None, Some("tp"), "missing value"),
        ("tp = [1, 2", 1, None, Some("tp"), "expected `,` or `]`"),
        ("tp =", 1, None, Some("tp"), "missing value"),
        (
            "pp = [[[[[[[[[1]]]]]]]]]",
            1,
            None,
            Some("pp"),
            "nest deeper",
        ),
        ("top-k = -1", 1, None, Some("top-k"), "expected an integer"),
        (
            "objective = fast",
            1,
            None,
            Some("objective"),
            "expected a \"string\"",
        ),
        (
            "objective = \"mfu",
            1,
            None,
            Some("objective"),
            "unterminated string",
        ),
        (
            "objective = \"fast\"",
            1,
            None,
            Some("objective"),
            "unknown objective",
        ),
        (
            "arch = [[1, 2]]",
            1,
            None,
            Some("arch"),
            "exactly [layers, hidden, ffn]",
        ),
        (
            "arch = [8, 4096, 16384]",
            1,
            None,
            Some("arch"),
            "expected an array",
        ),
        (
            "schedules = [\"1f1b\", \"dualpipe\"]",
            1,
            None,
            Some("schedules"),
            "unknown schedule `dualpipe`",
        ),
        (
            "schedules = [1f1b]",
            1,
            None,
            Some("schedules"),
            "expected a \"string\"",
        ),
    ];
    check("space file", cases, space_error);
}

#[test]
fn malformed_fault_specs_name_line_table_and_key() {
    let straggler = |i| Some(("straggler", i));
    let degradation = |i| Some(("degradation", i));
    let cases: &[Case] = &[
        ("version = 2\nversion = 1", 2, None, Some("version"), "set twice (first on line 1)"),
        (
            "version = 1\n[[straggler]]\nslowdown = 1.5\nslowdown = 2.0",
            4,
            straggler(1),
            Some("slowdown"),
            "set twice (first on line 3)",
        ),
        (
            "[[degradation]]\nbandwidth_factor = 0.5\nbandwidth-factor = 0.25",
            3,
            degradation(1),
            Some("bandwidth-factor"),
            "set twice (first on line 2)",
        ),
        ("version = 2", 1, None, Some("version"), "unsupported fault-spec version 2"),
        ("version = 1.5", 1, None, Some("version"), "not a non-negative integer"),
        ("version = \"1\"", 1, None, Some("version"), "expected a number"),
        ("faults = 3", 1, None, Some("faults"), "unknown key"),
        ("[[gremlin]]", 1, None, None, "unknown table `[[gremlin]]`"),
        ("[straggler]", 1, None, None, "array-of-tables"),
        ("[[straggler]]\nslowdown : 2.0", 2, straggler(1), None, "expected `key = value`"),
        ("[[straggler]]\nprobability = 0.5", 1, straggler(1), Some("slowdown"), "missing"),
        (
            "[[straggler]]\nslowdown = 1.5\n\n[[straggler]] # two\nranks = 0\nslowdown = 2",
            5,
            straggler(2),
            Some("ranks"),
            "0 is not a positive integer",
        ),
        (
            "[[straggler]]\nslowdown = 2.0\nspeed = 3",
            3,
            straggler(1),
            Some("speed"),
            "unknown key",
        ),
        (
            "[[straggler]]\nslowdown = 2\nprobability = 1.5",
            3,
            straggler(1),
            Some("probability"),
            "outside [0, 1]",
        ),
        ("[[straggler]]\nslowdown = 0.5", 2, straggler(1), Some("slowdown"), "multiplier ≥ 1"),
        (
            "[[degradation]]\nbandwidth_factor = 0.5\n[[degradation]]\nscope = \"node\"\nbandwidth-factor = 0.5",
            4,
            degradation(2),
            Some("scope"),
            "unknown scope `node`",
        ),
        (
            "[[degradation]]\nscope = \"tp\"",
            1,
            degradation(1),
            Some("bandwidth_factor"),
            "missing",
        ),
        (
            "[[degradation]]\nbandwidth_factor = 0.5\nstart_frac = 0.5\nend_frac = 0.25",
            4,
            degradation(1),
            Some("end_frac"),
            "after start_frac",
        ),
        (
            "[[failure]]\nelastic = 1",
            2,
            Some(("failure", 1)),
            Some("elastic"),
            "expected a boolean, got `1`",
        ),
        (
            "[[failure]]\n[[failure]]\ncheckpoint_interval = 2.5",
            3,
            Some(("failure", 2)),
            Some("checkpoint_interval"),
            "not a positive integer",
        ),
        (
            "[[failure]]\nreshard_cost_s = -3 # seconds",
            2,
            Some(("failure", 1)),
            Some("reshard_cost_s"),
            "finite non-negative duration",
        ),
    ];
    check("fault spec", cases, |text| {
        FaultSpec::parse(text).unwrap_err()
    });
}

#[test]
fn errors_render_line_table_and_key() {
    let e =
        FaultSpec::parse("version = 1\n[[straggler]]\nslowdown = 1.5\nslowdown = 2.0").unwrap_err();
    assert_eq!(
        e.to_string(),
        "line 4: [[straggler]] #1: key `slowdown`: set twice (first on line 3)"
    );
    let e = space_error("tp = [2]\n# comment\nbogus = 1");
    assert_eq!(e.to_string(), "line 3: key `bogus`: unknown key");
}
