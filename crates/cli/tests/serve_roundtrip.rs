//! The byte-identity anchor between the daemon and the CLI: a running
//! `lumos serve` daemon must answer `predict` and `search` requests
//! with the exact bytes `lumos predict --json` / `lumos search --json`
//! print for the same artifact — one shared response schema, two
//! transports. Also covers the `lumos query` client and the artifact
//! branch of `lumos info`, and that both front-ends refuse a broken
//! knob rule with the same rule text, each in its own spelling.

use lumos_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn run_cli(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    lumos_cli::run(&args, &mut buf).unwrap_or_else(|e| panic!("lumos {args:?} failed: {e}"));
    String::from_utf8(buf).expect("utf8 output")
}

fn ask(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    writeln!(stream, "{request}").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    line
}

#[test]
fn daemon_responses_are_byte_identical_to_cli_json() {
    let dir = std::env::temp_dir().join(format!("lumos-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = dir.join("registry");
    std::fs::create_dir_all(&registry).unwrap();
    let trace = dir.join("t.json");
    let trace = trace.to_str().unwrap();
    let artifact = registry.join("t.calib.json");
    let artifact = artifact.to_str().unwrap();

    run_cli(&[
        "synth", "--model", "tiny", "--tp", "1", "--pp", "2", "--dp", "1", "--out", trace,
    ]);
    run_cli(&["calibrate", trace, "--out", artifact]);

    // The artifact branch of `lumos info` names the registry key.
    let info = run_cli(&["info", artifact]);
    assert!(info.contains("calibration artifact"), "{info}");
    assert!(info.contains("digest:    0x"), "{info}");
    assert!(info.contains("fingerprint"), "{info}");
    let digest = info
        .lines()
        .find_map(|l| l.strip_prefix("digest:"))
        .unwrap()
        .trim()
        .to_string();

    let config = ServeConfig::new("127.0.0.1:0", &registry);
    let (server, outcome) = Server::bind(&config).unwrap();
    assert_eq!(outcome.loaded, vec![digest.clone()]);
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run().unwrap());

    // predict: daemon line == CLI --json line, byte for byte.
    let from_daemon = ask(
        addr,
        &format!(r#"{{"kind":"predict","artifact":"{digest}","dp":2,"microbatches":8}}"#),
    );
    let from_cli = run_cli(&[
        "predict",
        "--calib",
        artifact,
        "--dp",
        "2",
        "--microbatches",
        "8",
        "--json",
    ]);
    assert_eq!(from_daemon, from_cli);

    // search (refined phase included): same identity.
    let from_daemon = ask(
        addr,
        &format!(
            r#"{{"kind":"search","artifact":"{digest}","dp":[1,2,4],"microbatches":[2,4],"top":3,"refine_sim":true}}"#
        ),
    );
    let from_cli = run_cli(&[
        "search",
        "--calib",
        artifact,
        "--dp",
        "1,2,4",
        "--microbatches",
        "2,4",
        "--top",
        "3",
        "--refine-sim",
        "--json",
    ]);
    assert_eq!(from_daemon, from_cli);

    // `lumos query` is a faithful transport: its stdout is the daemon
    // line unmodified.
    let addr_str = addr.to_string();
    let request = format!(r#"{{"kind":"predict","artifact":"{digest}","dp":2}}"#);
    let via_query = run_cli(&["query", "--addr", &addr_str, &request]);
    assert_eq!(via_query, ask(addr, &request));

    // The JSON flag composes badly with text-only options — loudly.
    let args: Vec<String> = [
        "predict", "--calib", artifact, "--dp", "2", "--json", "--out", "x.json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let err = lumos_cli::run(&args, &mut Vec::new()).unwrap_err();
    assert!(err.to_string().contains("--out"), "{err}");
    let args: Vec<String> = [
        "predict",
        "--calib",
        artifact,
        "--scale-gemms",
        "0.5",
        "--json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let err = lumos_cli::run(&args, &mut Vec::new()).unwrap_err();
    assert!(err.to_string().contains("--scale"), "{err}");

    ask(addr, r#"{"kind":"shutdown"}"#);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_and_daemon_refuse_each_shared_rule_alike() {
    let dir = std::env::temp_dir().join(format!("lumos-cli-rules-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = dir.join("registry");
    std::fs::create_dir_all(&registry).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (trace, empty, bad) = (path("t.json"), path("empty.toml"), path("bad.toml"));
    let artifact = registry.join("t.calib.json");
    let artifact = artifact.to_str().unwrap();
    run_cli(&[
        "synth", "--model", "tiny", "--tp", "1", "--pp", "2", "--dp", "1", "--out", &trace,
    ]);
    run_cli(&["calibrate", &trace, "--out", artifact]);
    std::fs::write(&empty, "version = 1\n").unwrap();
    std::fs::write(&bad, "[[straggler]]\nslowdown = 0.5\n").unwrap();
    let config = ServeConfig::new("127.0.0.1:0", &registry);
    let (server, outcome) = Server::bind(&config).unwrap();
    let digest = outcome.loaded[0].clone();
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run().unwrap());

    // (flags, request keys, the CLI's message, the daemon's detail).
    // `--seed` is left out: on the command line it also seeds the
    // base profile, so the CLI keeps its own rule for it.
    let not_objective = "unknown objective `speed` (expected makespan, throughput, or mfu)";
    let bad_spec = "line 2: [[straggler]] #1: key `slowdown`: 0.5 must be a finite multiplier ≥ 1";
    let cases: Vec<(Vec<&str>, String, String, String)> = vec![
        (
            vec!["predict", "--hidden", "512"],
            r#""kind":"predict","hidden":512"#.into(),
            "--hidden and --ffn must be given together".into(),
            "`hidden` and `ffn` must be given together".into(),
        ),
        (
            vec!["search", "--objective", "speed"],
            r#""kind":"search","objective":"speed""#.into(),
            not_objective.into(),
            not_objective.into(),
        ),
        (
            vec!["search", "--memory-gib", "0"],
            r#""kind":"search","memory_gib":0"#.into(),
            "gpu memory capacity must be positive (--memory-gib / gpu-memory-gib)".into(),
            "gpu memory capacity must be positive (`memory_gib`)".into(),
        ),
        (
            vec!["search", "--top", "0"],
            r#""kind":"search","top":0"#.into(),
            "--top must be at least 1 (a zero-length report retains nothing)".into(),
            "`top` must be at least 1 (a zero-length report retains nothing)".into(),
        ),
        (
            vec!["search", "--jitter-seed", "3"],
            r#""kind":"search","jitter_seed":3"#.into(),
            "--jitter-seed only applies with --jitter-replicas".into(),
            "`jitter_seed` only applies with `jitter_replicas`".into(),
        ),
        (
            vec!["search", "--refine-sim", "--jitter-seed", "9"],
            r#""kind":"search","refine_sim":true,"jitter_seed":9"#.into(),
            "--jitter-seed only applies with --jitter-replicas".into(),
            "`jitter_seed` only applies with `jitter_replicas`".into(),
        ),
        (
            vec!["search", "--faults", &empty, "--jitter-seed", "3"],
            r#""kind":"search","faults_toml":"version = 1\n","jitter_seed":3"#.into(),
            "--jitter-seed only applies with --jitter-replicas".into(),
            "`jitter_seed` only applies with `jitter_replicas`".into(),
        ),
        (
            vec!["search", "--faults", &bad],
            r#""kind":"search","faults_toml":"[[straggler]]\nslowdown = 0.5\n""#.into(),
            format!("fault spec `{bad}`: {bad_spec}"),
            format!("`faults_toml`: {bad_spec}"),
        ),
        (
            vec!["search", "--fault-replicas", "3"],
            r#""kind":"search","fault_replicas":3"#.into(),
            "--fault-replicas only applies with --faults".into(),
            "`fault_replicas` only applies with `faults_toml`".into(),
        ),
        (
            vec!["search", "--fault-seed", "3"],
            r#""kind":"search","fault_seed":3"#.into(),
            "--fault-seed only applies with --faults".into(),
            "`fault_seed` only applies with `faults_toml`".into(),
        ),
        (
            vec!["search", "--budget", "3"],
            r#""kind":"search","budget":3"#.into(),
            "--budget only applies with --adaptive".into(),
            "`budget` only applies with `adaptive`".into(),
        ),
    ];
    for (flags, keys, cli, wire) in cases {
        let cli_run = std::process::Command::new(env!("CARGO_BIN_EXE_lumos"))
            .args(&flags[..1])
            .args(["--calib", artifact])
            .args(&flags[1..])
            .output()
            .unwrap();
        assert_eq!(cli_run.status.code(), Some(2), "{flags:?}");
        assert_eq!(
            String::from_utf8(cli_run.stderr).unwrap(),
            format!("usage error: {cli}\n"),
            "{flags:?}"
        );
        let request = format!(r#"{{{keys},"artifact":"{digest}"}}"#);
        let detail = serde_json::to_string(&wire).unwrap();
        assert_eq!(
            ask(addr, &request),
            format!(r#"{{"error":{{"kind":"bad_request","detail":{detail}}}}}"#) + "\n",
            "{request}"
        );
    }
    ask(addr, r#"{"kind":"shutdown"}"#);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn info_still_handles_plain_traces() {
    let dir = std::env::temp_dir().join(format!("lumos-cli-info-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.json");
    let trace = trace.to_str().unwrap();
    run_cli(&[
        "synth", "--model", "tiny", "--tp", "1", "--pp", "1", "--dp", "1", "--out", trace,
    ]);
    let info = run_cli(&["info", trace]);
    assert!(info.contains("breakdown"), "{info}");
    assert!(!info.contains("calibration artifact"), "{info}");
    std::fs::remove_dir_all(&dir).ok();
}
