//! Determinism of the search report: the same search, as text and as
//! `--json`, run eight times concurrently and at 1/2/4/7 worker
//! threads, prints byte-identical stdout.

use std::process::Command;

fn lumos(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lumos"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "lumos {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn search_stdout_is_identical_across_runs_and_thread_counts() {
    let dir = std::env::temp_dir().join(format!("lumos-cli-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("base.json");
    let trace = trace.to_str().unwrap();
    lumos(&[
        "synth", "--model", "tiny", "--tp", "2", "--pp", "2", "--dp", "1", "--out", trace,
    ]);
    // How many candidates this space bound-skips, and how often the
    // stage-cost memo hits, depend on how workers interleave.
    let space = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/spaces/sweep.toml"
    );
    let search = [
        "search",
        trace,
        "--space",
        space,
        "--max-gpus",
        "8",
        "--top",
        "3",
    ];
    for json in [false, true] {
        let mut args = search.to_vec();
        if json {
            args.push("--json");
        }
        let runs: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| lumos(&args))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let reference = &runs[0];
        assert!(reference.contains(" m="), "{reference}");
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run, reference, "concurrent run {i}, json {json}");
        }
        for threads in ["1", "2", "4", "7"] {
            let mut pinned = args.clone();
            pinned.extend(["--threads", threads]);
            assert_eq!(
                &lumos(&pinned),
                reference,
                "--threads {threads}, json {json}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
