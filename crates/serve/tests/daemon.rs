//! End-to-end guarantees of the estimation daemon:
//!
//! * the TCP protocol round-trips: predict / search / refine / stats /
//!   reload / shutdown each answer one typed JSON line;
//! * registry hot reload is `Arc`-pinned: requests in flight across a
//!   reload complete against the artifact they started with while new
//!   requests see the new digest table, and corrupt or
//!   version-mismatched files are rejected per-path without disturbing
//!   any live entry;
//! * load shedding is typed: with a single worker and a one-slot
//!   queue, an excess request is answered `overloaded` instead of
//!   queueing unboundedly, and an expired `deadline_ms` is answered
//!   `deadline_exceeded` without running;
//! * concurrent persistent connections, each sending several requests,
//!   are all served in order within the queue bound, and `stats`
//!   reports latency quantiles per request kind.

use lumos_calib::CalibrationArtifact;
use lumos_cluster::{GroundTruthCluster, JitterModel};
use lumos_cost::AnalyticalCostModel;
use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind, TrainingSetup};
use lumos_search::{search_calibrated, SearchOptions, SpaceSpec};
use lumos_serve::{Registry, ServeConfig, Server};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The same small research model the search suites use: two stages,
/// fast to profile, divisible every way the tests need.
fn base_setup() -> TrainingSetup {
    TrainingSetup {
        model: ModelConfig::custom("serve-e2e", 8, 256, 1024, 4, 64),
        parallelism: Parallelism::new(1, 2, 1).unwrap(),
        batch: BatchConfig {
            seq_len: 128,
            microbatch_size: 1,
            num_microbatches: 4,
        },
        schedule: ScheduleKind::OneFOneB,
    }
}

fn fit_artifact(seed: u64) -> CalibrationArtifact {
    let base = base_setup();
    let trace = GroundTruthCluster::new(&base, AnalyticalCostModel::h100())
        .unwrap()
        .with_jitter(JitterModel::realistic(seed))
        .profile_iteration(0)
        .unwrap()
        .trace;
    CalibrationArtifact::calibrate(&trace, &base, "h100", 8).unwrap()
}

/// Two artifacts with distinct content digests (different jitter
/// seeds), shared across tests — fitting is the slow part.
fn artifacts() -> &'static (CalibrationArtifact, CalibrationArtifact) {
    static CELL: OnceLock<(CalibrationArtifact, CalibrationArtifact)> = OnceLock::new();
    CELL.get_or_init(|| {
        let a = fit_artifact(42);
        let b = fit_artifact(7);
        assert_ne!(a.digest, b.digest, "seeds must yield distinct digests");
        (a, b)
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lumos-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(dir: &Path, workers: usize, queue: usize) -> SocketAddr {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        registry_dir: dir.to_path_buf(),
        workers,
        queue_capacity: queue,
        search_threads: Some(1),
    };
    let (server, _) = Server::bind(&config).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run().unwrap());
    addr
}

/// One persistent line-delimited JSON connection to the daemon.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// One request line in, one parsed response out.
    fn ask(&mut self, request: &str) -> Value {
        writeln!(self.writer, "{request}").unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        serde_json::from_str(&line).unwrap()
    }
}

/// [`Client::ask`] on a fresh connection.
fn ask(addr: SocketAddr, request: &str) -> Value {
    Client::connect(addr).ask(request)
}

fn kind(v: &Value) -> &str {
    v.get("kind").and_then(Value::as_str).unwrap_or_default()
}

fn error_kind(v: &Value) -> &str {
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
        .unwrap_or_default()
}

#[test]
fn protocol_round_trips_every_request_kind() {
    let (a, _) = artifacts();
    let dir = fresh_dir("proto");
    a.save(dir.join("a.json")).unwrap();
    let digest = lumos_calib::digest_hex(a.digest);
    let addr = start(&dir, 2, 8);

    let predict = ask(
        addr,
        &format!(r#"{{"kind":"predict","artifact":"{digest}","dp":2}}"#),
    );
    assert_eq!(kind(&predict), "predict", "{predict:?}");
    assert!(predict.get("predicted_ns").and_then(Value::as_u64).unwrap() > 0);
    assert!(predict.get("error").is_none());

    let search = ask(
        addr,
        &format!(
            r#"{{"kind":"search","artifact":"{digest}","dp":[1,2],"microbatches":[2,4],"top":3,"refine_sim":true}}"#
        ),
    );
    assert_eq!(kind(&search), "search", "{search:?}");
    let results = search.get("results").and_then(Value::as_array).unwrap();
    assert!(!results.is_empty() && results.len() <= 3);
    assert!(search.get("refined").and_then(Value::as_array).is_some());

    let refine = ask(
        addr,
        &format!(
            r#"{{"kind":"refine","artifact":"{digest}","microbatches":4,"jitter_replicas":3,"jitter_seed":9}}"#
        ),
    );
    assert_eq!(kind(&refine), "refine", "{refine:?}");
    let jitter = refine.get("result").and_then(|r| r.get("jitter")).unwrap();
    assert_eq!(jitter.get("replicas").and_then(Value::as_u64), Some(3));

    let stats = ask(addr, r#"{"kind":"stats"}"#);
    assert_eq!(kind(&stats), "stats", "{stats:?}");
    assert_eq!(stats.get("served").and_then(Value::as_u64), Some(3));
    assert_eq!(stats.get("queue_capacity").and_then(Value::as_u64), Some(8));
    assert_eq!(stats.get("workers").and_then(Value::as_u64), Some(2));
    let per_kind = stats
        .get("request_kinds")
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(per_kind.len(), 3);
    for entry in per_kind {
        assert_eq!(entry.get("served").and_then(Value::as_u64), Some(1));
        assert!(entry.get("p50_us").and_then(Value::as_u64).unwrap() > 0);
        assert!(entry.get("p99_us").unwrap().as_u64() >= entry.get("p50_us").unwrap().as_u64());
    }
    let arts = stats.get("artifacts").and_then(Value::as_array).unwrap();
    assert_eq!(arts.len(), 1);
    assert_eq!(
        arts[0].get("digest").and_then(Value::as_str),
        Some(digest.as_str())
    );

    // Typed protocol errors.
    let bad = ask(addr, "not json at all");
    assert_eq!(error_kind(&bad), "bad_request", "{bad:?}");
    let unknown = ask(addr, r#"{"kind":"predict","artifact":"0xfeed","dp":2}"#);
    assert_eq!(error_kind(&unknown), "unknown_artifact", "{unknown:?}");
    let extra = ask(addr, r#"{"kind":"stats","bogus":1}"#);
    assert_eq!(error_kind(&extra), "bad_request", "{extra:?}");

    // An already-expired deadline is answered without running.
    let expired = ask(
        addr,
        &format!(r#"{{"kind":"predict","artifact":"{digest}","dp":2,"deadline_ms":0}}"#),
    );
    assert_eq!(error_kind(&expired), "deadline_exceeded", "{expired:?}");
    let stats = ask(addr, r#"{"kind":"stats"}"#);
    assert_eq!(
        stats.get("deadline_exceeded").and_then(Value::as_u64),
        Some(1)
    );

    let shutdown = ask(addr, r#"{"kind":"shutdown"}"#);
    assert_eq!(kind(&shutdown), "shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_robust_search_over_the_wire() {
    let (a, _) = artifacts();
    let dir = fresh_dir("faults");
    a.save(dir.join("a.json")).unwrap();
    let digest = lumos_calib::digest_hex(a.digest);
    let addr = start(&dir, 2, 8);

    // A certain straggler: every finalist degrades, the refined
    // entries gain a `faults` body, and `faults_toml` alone implies
    // the refinement pass.
    let spec = "version = 1\\n[[straggler]]\\nprobability = 1.0\\nslowdown = 2.0\\n";
    let search = ask(
        addr,
        &format!(
            r#"{{"kind":"search","artifact":"{digest}","dp":[1,2],"microbatches":[2,4],"top":3,"faults_toml":"{spec}","fault_replicas":3,"fault_seed":11}}"#
        ),
    );
    assert_eq!(kind(&search), "search", "{search:?}");
    let refined = search.get("refined").and_then(Value::as_array).unwrap();
    assert!(!refined.is_empty());
    for r in refined {
        let f = r.get("faults").expect("fault stats present");
        assert_eq!(f.get("replicas").and_then(Value::as_u64), Some(3));
        let expected = f.get("expected_ns").and_then(Value::as_u64).unwrap();
        let simulated = r.get("simulated_ns").and_then(Value::as_u64).unwrap();
        assert!(expected >= simulated, "{r:?}");
        assert!(f.get("degradation").and_then(Value::as_f64).unwrap() > 0.0);
        let robustness = f.get("robustness").and_then(Value::as_f64).unwrap();
        assert!(robustness > 0.0 && robustness <= 1.0, "{r:?}");
    }

    // An empty spec never emits the key (and jitterless refinement
    // never emits `jitter`), keeping old clients readable.
    let clean = ask(
        addr,
        &format!(
            r#"{{"kind":"search","artifact":"{digest}","dp":[1,2],"microbatches":[2],"top":2,"faults_toml":"version = 1\n"}}"#
        ),
    );
    let refined = clean.get("refined").and_then(Value::as_array).unwrap();
    assert!(
        refined.iter().all(|r| r.get("faults").is_none()),
        "{clean:?}"
    );

    // Gates and parse failures are typed bad requests naming the key.
    let bad = ask(
        addr,
        &format!(r#"{{"kind":"search","artifact":"{digest}","dp":[1],"fault_replicas":3}}"#),
    );
    assert_eq!(error_kind(&bad), "bad_request", "{bad:?}");
    let bad = ask(
        addr,
        &format!(
            r#"{{"kind":"search","artifact":"{digest}","dp":[1],"faults_toml":"[[straggler]]\nslowdown = 0.5\n"}}"#
        ),
    );
    assert_eq!(error_kind(&bad), "bad_request", "{bad:?}");
    let detail = bad["error"]["detail"].as_str().unwrap();
    assert!(detail.contains("slowdown"), "{detail}");
    assert!(detail.contains("line 2"), "{detail}");

    // The stats endpoint counts the fault pass.
    let stats = ask(addr, r#"{"kind":"stats"}"#);
    assert_eq!(stats.get("fault_runs").and_then(Value::as_u64), Some(1));
    assert!(
        stats
            .get("fault_replicas_executed")
            .and_then(Value::as_u64)
            .unwrap()
            >= 3
    );

    ask(addr, r#"{"kind":"shutdown"}"#);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn requests_in_flight_across_reload_stay_pinned_to_their_artifact() {
    let (a, b) = artifacts();
    let dir = fresh_dir("pin");
    a.save(dir.join("artifact.json")).unwrap();
    let digest_a = lumos_calib::digest_hex(a.digest);
    let digest_b = lumos_calib::digest_hex(b.digest);

    let (registry, outcome) = Registry::open(&dir).unwrap();
    assert_eq!(outcome.loaded, vec![digest_a.clone()]);

    // Pin A the way a connection thread does at enqueue time, then
    // swap the directory contents to B and reload concurrently with
    // searches running against the pinned entry.
    let pinned = registry.get(&digest_a).unwrap();
    std::fs::remove_file(dir.join("artifact.json")).unwrap();
    b.save(dir.join("artifact.json")).unwrap();

    let space = SpaceSpec {
        dp: vec![1, 2],
        microbatches: vec![2, 4],
        ..SpaceSpec::empty()
    };
    let opts = SearchOptions {
        top_k: Some(3),
        threads: Some(1),
        ..SearchOptions::default()
    };
    let before = search_calibrated(&pinned.calibration, &space, &opts).unwrap();
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            (0..6)
                .map(|_| {
                    search_calibrated(&pinned.calibration, &space, &opts)
                        .unwrap()
                        .format_top(3)
                })
                .collect::<Vec<_>>()
        });
        for _ in 0..4 {
            registry.reload().unwrap();
        }
        for rendered in worker.join().unwrap() {
            // In-flight work on the pinned Arc answers identically
            // across every concurrent table swap.
            assert_eq!(rendered, before.format_top(3));
        }
    });

    // New lookups see the new table: A is gone, B is live.
    assert!(registry.get(&digest_a).is_none());
    assert!(registry.get(&digest_b).is_some());
    let outcome = registry.reload().unwrap();
    assert_eq!(outcome.kept, vec![digest_b.clone()]);
    assert!(outcome.loaded.is_empty() && outcome.dropped.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reload_rejects_bad_files_without_disturbing_live_entries() {
    let (a, _) = artifacts();
    let dir = fresh_dir("reject");
    a.save(dir.join("good.json")).unwrap();
    let digest = lumos_calib::digest_hex(a.digest);
    let addr = start(&dir, 1, 4);

    // Corrupt JSON and a version-mismatched artifact appear alongside
    // the live one.
    std::fs::write(dir.join("corrupt.json"), "{ not json").unwrap();
    let mismatched = a.to_json().replace("\"version\":1", "\"version\":99");
    std::fs::write(dir.join("wrong-version.json"), mismatched).unwrap();

    let reload = ask(addr, r#"{"kind":"reload"}"#);
    assert_eq!(kind(&reload), "reload", "{reload:?}");
    assert_eq!(
        reload.get("kept").and_then(Value::as_array).map(Vec::len),
        Some(1)
    );
    let rejected = reload.get("rejected").and_then(Value::as_array).unwrap();
    assert_eq!(rejected.len(), 2, "{reload:?}");
    for entry in rejected {
        let path = entry.get("path").and_then(Value::as_str).unwrap();
        assert!(
            path.contains("corrupt.json") || path.contains("wrong-version.json"),
            "{entry:?}"
        );
    }

    // The live artifact still serves.
    let predict = ask(
        addr,
        &format!(r#"{{"kind":"predict","artifact":"{digest}","dp":2}}"#),
    );
    assert_eq!(kind(&predict), "predict", "{predict:?}");
    ask(addr, r#"{"kind":"shutdown"}"#);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_queue_sheds_load_with_typed_overloaded_response() {
    let (a, _) = artifacts();
    let dir = fresh_dir("shed");
    a.save(dir.join("a.json")).unwrap();
    let digest = lumos_calib::digest_hex(a.digest);
    let addr = start(&dir, 1, 1);

    // Two slow requests: one occupies the single worker, one fills the
    // one-slot queue. Each refines several finalists under thousands
    // of jitter replicas — seconds of work for the single worker.
    let slow = format!(
        r#"{{"kind":"search","artifact":"{digest}","dp":[1,2],"microbatches":[2,4],"top":4,"jitter_replicas":3000,"deadline_ms":120000}}"#
    );
    let spawn_slow = |request: String| {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            writeln!(stream, "{request}").unwrap();
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
            line
        })
    };
    let first = spawn_slow(slow.clone());
    // Give the worker time to dequeue the first job before filling the
    // queue slot behind it.
    std::thread::sleep(std::time::Duration::from_millis(500));
    let second = spawn_slow(slow);
    std::thread::sleep(std::time::Duration::from_millis(500));

    // Worker busy + queue full ⇒ typed shed, answered immediately.
    let shed = ask(
        addr,
        &format!(r#"{{"kind":"predict","artifact":"{digest}","dp":2}}"#),
    );
    assert_eq!(error_kind(&shed), "overloaded", "{shed:?}");

    // Admin requests bypass the pool and stay responsive under load.
    let stats = ask(addr, r#"{"kind":"stats"}"#);
    assert_eq!(kind(&stats), "stats");
    assert_eq!(
        stats.get("rejected_overloaded").and_then(Value::as_u64),
        Some(1)
    );
    assert_eq!(stats.get("queue_depth").and_then(Value::as_u64), Some(1));

    // The slow requests resolve (served, or — on a very slow machine —
    // cancelled by their deadline); either way the daemon answers both.
    for handle in [first, second] {
        let line = handle.join().unwrap();
        let v: Value = serde_json::from_str(&line).unwrap();
        assert!(
            kind(&v) == "search" || error_kind(&v) == "deadline_exceeded",
            "{v:?}"
        );
    }
    ask(addr, r#"{"kind":"shutdown"}"#);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistent_connections_are_served_in_order_without_shedding() {
    let (a, _) = artifacts();
    let dir = fresh_dir("persistent");
    a.save(dir.join("a.json")).unwrap();
    let digest = lumos_calib::digest_hex(a.digest);
    let addr = start(&dir, 4, 64);

    // Answers each request once on its own connection, then sends
    // `count` requests on each of `clients` concurrent connections,
    // drawn round-robin from `requests`. Returns every response that
    // differs from the one-off answer to its request, so a reply
    // served out of order on its connection shows up too.
    let drive = |clients: usize, count: usize, requests: &[String], expected: &str| {
        let answers: Vec<Value> = requests.iter().map(|r| ask(addr, r)).collect();
        for answer in &answers {
            assert_eq!(kind(answer), expected, "{answer:?}");
        }
        let answers = &answers;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr);
                        let mut wrong = Vec::new();
                        for i in 0..count {
                            let r = (c + i * clients) % requests.len();
                            let got = client.ask(&requests[r]);
                            if got != answers[r] {
                                wrong.push(got);
                            }
                        }
                        wrong
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
    };

    // Rotating what-if transforms, then a small dp × microbatch grid.
    let predicts: Vec<String> = [
        r#""dp":2"#,
        r#""microbatches":8"#,
        r#""dp":2,"microbatches":8"#,
        r#""microbatches":2"#,
    ]
    .iter()
    .map(|t| format!(r#"{{"kind":"predict","artifact":"{digest}",{t}}}"#))
    .collect();
    let wrong = drive(4, 10, &predicts, "predict");
    assert!(wrong.is_empty(), "{wrong:?}");
    let searches = [
        format!(
            r#"{{"kind":"search","artifact":"{digest}","dp":[1,2],"microbatches":[4,8],"top":3}}"#
        ),
        format!(
            r#"{{"kind":"search","artifact":"{digest}","dp":[1,2,4],"microbatches":[4],"top":3}}"#
        ),
    ];
    let wrong = drive(2, 2, &searches, "search");
    assert!(wrong.is_empty(), "{wrong:?}");

    // Every request sent was served (one-off answers included), none
    // was shed, and each kind reports its latency quantiles.
    let stats = ask(addr, r#"{"kind":"stats"}"#);
    assert_eq!(
        stats.get("served").and_then(Value::as_u64),
        Some(4 + 40 + 2 + 4)
    );
    assert_eq!(
        stats.get("rejected_overloaded").and_then(Value::as_u64),
        Some(0)
    );
    for name in ["predict", "search"] {
        let entry = stats["request_kinds"]
            .as_array()
            .unwrap()
            .iter()
            .find(|k| kind(k) == name)
            .unwrap_or_else(|| panic!("{name} missing from stats: {stats:?}"));
        for quantile in ["p50_us", "p95_us", "p99_us"] {
            assert!(entry[quantile].as_u64().is_some(), "{name}.{quantile}");
        }
    }
    ask(addr, r#"{"kind":"shutdown"}"#);
    std::fs::remove_dir_all(&dir).ok();
}
