#!/usr/bin/env bash
# End-to-end smoke checks of the release `lumos` binary: the search,
# lint, adaptive, schedule, serve, calibrate and fault CLI paths, plus
# the release-only tests (adaptive search on a ~3×10⁷-point space; the
# benchmark's predictions against the trace route's graph and the
# reference simulator) and
# a `cargo check` of the perfbench workspace. Run
# from anywhere after `cargo build --release --workspace`:
#
#   bash ci/smoke.sh
#
# Scratch files go to a fresh `mktemp -d` directory (honours TMPDIR),
# removed on exit together with the daemon the serve checks start.
set -eo pipefail
cd "$(dirname "$0")/.."
T=$(mktemp -d)
SERVE_PID=
cleanup() {
  if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
  rm -rf "$T"
}
trap cleanup EXIT
step() { echo "== $*"; }

# Exercise the real `lumos search` CLI path, including the TOML
# space file, streaming retention, and progress reporting.
step "search: synthesize a base trace"
./target/release/lumos synth --model tiny --tp 2 --pp 2 --dp 1 --out "$T/smoke.json"

step "search: search the example space"
./target/release/lumos search "$T/smoke.json" \
  --space examples/spaces/sweep.toml \
  --max-gpus 16 --top 5 --threads 1 --progress 2>"$T/smoke-t1.err" \
  | tee "$T/smoke.out"
cat "$T/smoke-t1.err"
grep -q "grid points" "$T/smoke.out"
grep -q "tok/s/GPU" "$T/smoke.out"

step "search: the screen does the same work at one and two threads"
./target/release/lumos search "$T/smoke.json" \
  --space examples/spaces/sweep.toml \
  --max-gpus 16 --top 5 --threads 2 --progress 2>"$T/smoke-t2.err" >/dev/null
# Evaluated and bound-skipped counts from the closing `--progress`
# line; stage-cost memo hits are left out of the comparison.
work() { grep "done on" "$1" | grep -o "[0-9]* evaluated\|[0-9]* by the lower bound"; }
work "$T/smoke-t1.err" | tee "$T/work-t1"
work "$T/smoke-t2.err" > "$T/work-t2"
test "$(wc -l < "$T/work-t1")" -eq 2
diff "$T/work-t1" "$T/work-t2"

step "search: two-phase search (simulation-refined finals)"
./target/release/lumos search "$T/smoke.json" \
  --space examples/spaces/sweep.toml \
  --max-gpus 16 --top 5 --refine-sim --jitter-replicas 3 \
  | tee "$T/refined.out"
grep -q "simulation-refined finals" "$T/refined.out"
grep -q "stability" "$T/refined.out"
# The whole report is deterministic across worker counts.
./target/release/lumos search "$T/smoke.json" \
  --space examples/spaces/sweep.toml \
  --max-gpus 16 --top 5 --refine-sim --jitter-replicas 3 \
  --threads 1 > "$T/refined-t1.out"
diff "$T/refined.out" "$T/refined-t1.out"

step "search: a key set twice is a usage error naming path, line and key (exit 2)"
printf 'tp = [2]\ntp = [1]\n' > "$T/twice.toml"
rc=0
./target/release/lumos search "$T/smoke.json" --space "$T/twice.toml" 2>"$T/twice.err" || rc=$?
cat "$T/twice.err"
test "$rc" -eq 2
grep -q "twice.toml" "$T/twice.err"
grep -q "line 2" "$T/twice.err"
grep -q 'key `tp`' "$T/twice.err"

# Static-verifier smoke: lint the example sweep (every candidate
# lowers to a program the verifier proves deadlock-free), then feed
# it the committed deadlock fixture and require the named cycle on
# stderr with a nonzero exit.
step "lint: lint the example space (all candidates deadlock-free)"
./target/release/lumos lint examples/spaces/sweep.toml | tee "$T/lint.out"
grep -q "all deadlock-free" "$T/lint.out"

step "lint: corrupted job is rejected with a named cycle"
if ./target/release/lumos lint --job examples/fixtures/deadlock.json \
  2>"$T/lint.err"; then
  echo "deadlocked fixture was not rejected" >&2; exit 1
fi
grep -q "static deadlock" "$T/lint.err"
grep -q "group 7" "$T/lint.err"
grep -q "rank 1" "$T/lint.err"
grep -q "cycle repeats" "$T/lint.err"

step "lint: axis flags replace the space file's values"
sed -e 's/^pp = \[2, 4\]$/pp = [2]/' -e 's/^dp = \[1, 2\]$/dp = [1]/' \
  examples/spaces/schedules.toml > "$T/schedules-pp2-dp1.toml"
grep -q '^pp = \[2\]$' "$T/schedules-pp2-dp1.toml"
grep -q '^dp = \[1\]$' "$T/schedules-pp2-dp1.toml"
./target/release/lumos lint examples/spaces/schedules.toml --model tiny \
  --pp 2 --dp 1 | tee "$T/lint-flags.out"
./target/release/lumos lint "$T/schedules-pp2-dp1.toml" --model tiny > "$T/lint-edited.out"
diff "$T/lint-flags.out" "$T/lint-edited.out"

# Adaptive-search smoke: the corpus-guided engine must return
# exactly the exhaustive answer on a committed example space (the
# verification sweep proves it — `--json` is diffed byte-for-byte),
# and on a ~3×10⁷-point synthetic space it must visit ≤10% of the
# grid and replay its pinned numbers (a test too slow for the debug
# suite, so it runs here in release).
step "adaptive: adaptive search matches exhaustive byte-for-byte"
./target/release/lumos search --model tiny --base-tp 2 \
  --space examples/spaces/schedules.toml \
  --adaptive --budget 2000 | tee "$T/adaptive.out"
grep -q "adaptive: exact" "$T/adaptive.out"
./target/release/lumos search --model tiny --base-tp 2 \
  --space examples/spaces/schedules.toml \
  --adaptive --budget 2000 --json > "$T/adaptive.json"
./target/release/lumos search --model tiny --base-tp 2 \
  --space examples/spaces/schedules.toml \
  --json > "$T/exhaustive.json"
diff "$T/adaptive.json" "$T/exhaustive.json"

step "adaptive: budget and seed flags require --adaptive"
if ./target/release/lumos search --model tiny --base-tp 2 \
  --space examples/spaces/schedules.toml \
  --budget 2000 2>"$T/budget.err"; then
  echo "--budget without --adaptive was not rejected" >&2; exit 1
fi
grep -q "only applies with --adaptive" "$T/budget.err"

step "adaptive: synthetic space (≤10% visited, pinned numbers)"
cargo test --release -p lumos-search --test adaptive_synthetic

step "predict: the benchmark's eight predictions equal the trace route's graph id for id and the reference simulator bit for bit"
cargo test --release --test sim_oracle_15b

# perfbench is its own Cargo workspace with path dependencies on the
# crates, so nothing else builds it: check that it still compiles
# against the current APIs and that its lockfile still matches them.
step "perfbench: builds against the workspace crates with its lockfile as committed"
CARGO_TARGET_DIR=target/perfbench-check \
  cargo check --offline --locked --manifest-path perfbench/Cargo.toml

# Schedule-matrix smoke: exercise the schedule axis through the real
# CLI — search the schedules example space (1f1b, gpipe, zb-h1 side by
# side, engine-refined and statically verified) and lint it (every
# candidate under every schedule lowers to a deadlock-free multi-rank
# program).
step "schedules: synthesize a base trace"
./target/release/lumos synth --model tiny --tp 2 --pp 2 --dp 1 --out "$T/sched.json"

step "schedules: search the schedule axis (refined + verified finals)"
./target/release/lumos search "$T/sched.json" \
  --space examples/spaces/schedules.toml \
  --top 8 --refine-sim --verify | tee "$T/sched.out"
grep -q "simulation-refined finals" "$T/sched.out"
grep -q "s=zb-h1" "$T/sched.out"
grep -q "s=gpipe" "$T/sched.out"
grep -q "s=1f1b" "$T/sched.out"

step "schedules: CLI schedule axis overrides the file"
./target/release/lumos search "$T/sched.json" \
  --space examples/spaces/schedules.toml \
  --schedules zb-h1 --top 4 | tee "$T/sched-zb.out"
grep -q "s=zb-h1" "$T/sched-zb.out"
if grep -q "s=gpipe" "$T/sched-zb.out"; then
  echo "--schedules zb-h1 still ranked gpipe candidates" >&2; exit 1
fi

step "schedules: unknown schedule names are typed rejections"
if ./target/release/lumos search "$T/sched.json" \
  --space examples/spaces/schedules.toml \
  --schedules dualpipe 2>"$T/sched.err"; then
  echo "unknown schedule was not rejected" >&2; exit 1
fi
grep -q "unknown schedule" "$T/sched.err"
grep -q "zb-h1" "$T/sched.err"

step "schedules: lint the schedule matrix (all candidates deadlock-free)"
./target/release/lumos lint examples/spaces/schedules.toml \
  --model tiny | tee "$T/sched-lint.out"
grep -q "all deadlock-free" "$T/sched-lint.out"

# Serve smoke: start the daemon on a fixture artifact registry,
# drive it with `lumos query`, and diff the daemon's predict/search
# responses against the CLI's --json output (the byte-identity
# contract).
step "serve: calibrate a fixture artifact into a registry"
mkdir -p "$T/registry"
./target/release/lumos synth --model tiny --tp 1 --pp 2 --dp 1 --out "$T/serve-smoke.json"
./target/release/lumos calibrate "$T/serve-smoke.json" --out "$T/registry/smoke.calib.json"
./target/release/lumos info "$T/registry/smoke.calib.json" | tee "$T/info.out"
grep -q "digest:" "$T/info.out"

step "serve: start the daemon"
./target/release/lumos serve --registry "$T/registry" --addr 127.0.0.1:0 > "$T/serve.out" &
SERVE_PID=$!
for i in $(seq 1 50); do grep -q "listening on" "$T/serve.out" && break; sleep 0.2; done
grep "listening on" "$T/serve.out"
sed -n 's/^listening on //p' "$T/serve.out" > "$T/serve.addr"

step "serve: predict/search — daemon responses byte-identical to CLI --json"
ADDR=$(cat "$T/serve.addr")
DIGEST=$(sed -n 's/^digest: *//p' "$T/info.out")
./target/release/lumos query --addr "$ADDR" \
  "{\"kind\":\"predict\",\"artifact\":\"$DIGEST\",\"dp\":2,\"microbatches\":8}" \
  > "$T/predict-daemon.json"
./target/release/lumos predict --calib "$T/registry/smoke.calib.json" \
  --dp 2 --microbatches 8 --json > "$T/predict-cli.json"
diff "$T/predict-daemon.json" "$T/predict-cli.json"
./target/release/lumos query --addr "$ADDR" \
  "{\"kind\":\"search\",\"artifact\":\"$DIGEST\",\"dp\":[1,2,4],\"microbatches\":[2,4],\"top\":3,\"refine_sim\":true}" \
  > "$T/search-daemon.json"
./target/release/lumos search --calib "$T/registry/smoke.calib.json" \
  --dp 1,2,4 --microbatches 2,4 --top 3 --refine-sim --json > "$T/search-cli.json"
diff "$T/search-daemon.json" "$T/search-cli.json"

step "serve: a mistyped key is refused as bad_request naming the key"
ADDR=$(cat "$T/serve.addr")
./target/release/lumos query --addr "$ADDR" \
  "{\"kind\":\"predict\",\"artifact\":\"$DIGEST\",\"dp\":\"2\"}" | tee "$T/bad-dp.json"
grep -q '"kind":"bad_request"' "$T/bad-dp.json"
grep -qF '`dp`' "$T/bad-dp.json"

step "serve: a broken knob rule is refused with the rule's text"
./target/release/lumos query --addr "$ADDR" \
  "{\"kind\":\"search\",\"artifact\":\"$DIGEST\",\"fault_replicas\":3}" | tee "$T/bad-rule.json"
grep -qF '`fault_replicas` only applies with `faults_toml`' "$T/bad-rule.json"

step "serve: the deadline stops a refine's replica pass"
timeout 60 ./target/release/lumos query --addr "$ADDR" \
  "{\"kind\":\"refine\",\"artifact\":\"$DIGEST\",\"jitter_replicas\":4294967295,\"deadline_ms\":300}" \
  | tee "$T/deadline.json"
grep -q '"kind":"deadline_exceeded"' "$T/deadline.json"

step "serve: stats and shutdown"
ADDR=$(cat "$T/serve.addr")
./target/release/lumos query --addr "$ADDR" '{"kind":"stats"}' | tee "$T/stats.json"
grep -q '"served":2' "$T/stats.json"
./target/release/lumos query --addr "$ADDR" '{"kind":"shutdown"}'
wait "$SERVE_PID"
SERVE_PID=

# Calibrate-once smoke: fit an artifact from a synth trace, then
# verify the --calib paths of predict and search (including the
# simulation-refined phase) are byte-identical to fit-on-the-fly.
step "calibrate: synthesize a base trace"
./target/release/lumos synth --model tiny --tp 2 --pp 2 --dp 1 --out "$T/calib-smoke.json"

step "calibrate: calibrate once"
./target/release/lumos calibrate "$T/calib-smoke.json" \
  --out "$T/calib-smoke.calib.json" | tee "$T/calibrate.out"
grep -q "compute shapes" "$T/calibrate.out"
grep -q "digest" "$T/calibrate.out"

step "calibrate: info reports artifact format version 2"
./target/release/lumos info "$T/calib-smoke.calib.json" | tee "$T/calib-info.out"
grep -qx "version:   2" "$T/calib-info.out"

step "calibrate: a version-1 copy is refused naming its version (exit 1)"
sed 's/^{"version":2,/{"version":1,/' "$T/calib-smoke.calib.json" > "$T/calib-v1.json"
if ./target/release/lumos predict --calib "$T/calib-v1.json" --dp 2 2>"$T/calib-v1.err"; then
  echo "a version-1 artifact was not refused" >&2; exit 1
fi
cat "$T/calib-v1.err"
grep -q "calibration artifact version 1 is not supported" "$T/calib-v1.err"

step "calibrate: a copy with a space inside setup fails the digest check (exit 1)"
sed 's/"setup":{/"setup":{ /' "$T/calib-smoke.calib.json" > "$T/calib-spaced.json"
if ./target/release/lumos predict --calib "$T/calib-spaced.json" --dp 2 2>"$T/calib-spaced.err"; then
  echo "an artifact with a space inside setup was not refused" >&2; exit 1
fi
cat "$T/calib-spaced.err"
grep -q "calibration artifact is corrupt: content digest" "$T/calib-spaced.err"

step "calibrate: predict — --calib output is byte-identical to fit-on-the-fly"
./target/release/lumos predict "$T/calib-smoke.json" \
  --dp 2 --microbatches 8 > "$T/predict-fresh.out"
./target/release/lumos predict --calib "$T/calib-smoke.calib.json" \
  --dp 2 --microbatches 8 > "$T/predict-calib.out"
diff "$T/predict-fresh.out" "$T/predict-calib.out"

step "calibrate: predict --out — the saved trace's makespan is the printed prediction"
./target/release/lumos predict --calib "$T/calib-smoke.calib.json" \
  --dp 2 --microbatches 8 --out "$T/pred.json" > "$T/predict-out.out"
./target/release/lumos info "$T/pred.json" > "$T/pred-info.out"
predicted=$(sed -n 's/^predicted: *//p' "$T/predict-out.out")
makespan=$(sed -n 's/^makespan: *//p' "$T/pred-info.out")
echo "predicted: $predicted, saved makespan: $makespan"
test -n "$predicted" && test "$predicted" = "$makespan"

step "calibrate: search --refine-sim — --calib output is byte-identical"
./target/release/lumos search "$T/calib-smoke.json" \
  --space examples/spaces/sweep.toml \
  --max-gpus 16 --top 5 --refine-sim > "$T/search-fresh.out"
./target/release/lumos search --calib "$T/calib-smoke.calib.json" \
  --space examples/spaces/sweep.toml \
  --max-gpus 16 --top 5 --refine-sim > "$T/search-calib.out"
diff "$T/search-fresh.out" "$T/search-calib.out"

step "calibrate: mfu and replay answer from the artifact alone"
./target/release/lumos mfu --calib "$T/calib-smoke.calib.json" > "$T/mfu.out"
grep -q "MFU" "$T/mfu.out"
./target/release/lumos replay --calib "$T/calib-smoke.calib.json" > "$T/replay.out"
grep -q "replayed:" "$T/replay.out"

step "calibrate: stale artifacts are rejected"
./target/release/lumos synth --model tiny --tp 2 --pp 2 --dp 1 --seed 7 --out "$T/other.json"
if ./target/release/lumos predict "$T/other.json" \
  --calib "$T/calib-smoke.calib.json" --dp 2 2>"$T/stale.err"; then
  echo "stale artifact was not rejected" >&2; exit 1
fi
grep -q "does not match" "$T/stale.err"

# Fault-robustness smoke: drive `lumos search --faults` with the
# committed scenario fixture (robustness columns appear, rankings
# are deterministic), prove an empty spec is byte-identical to
# plain --refine-sim, check the usage errors, and explain the
# fixture.
step "faults: synthesize a base trace"
./target/release/lumos synth --model tiny --tp 1 --pp 2 --dp 1 --out "$T/faults.json"

step "faults: robust search over the committed fixture"
./target/release/lumos search "$T/faults.json" \
  --pp 1,2 --dp 1,2 --microbatches 4 --top 4 \
  --faults examples/fixtures/faults.toml \
  --fault-replicas 8 | tee "$T/faults.out"
grep -q "expected makespan under injected faults" "$T/faults.out"
grep -q "robust" "$T/faults.out"
grep -q "expected (ms)" "$T/faults.out"

step "faults: robust rankings are deterministic across thread counts"
./target/release/lumos search "$T/faults.json" \
  --pp 1,2 --dp 1,2 --microbatches 4 --top 4 \
  --faults examples/fixtures/faults.toml \
  --fault-replicas 8 --threads 1 --json > "$T/faults-t1.json"
./target/release/lumos search "$T/faults.json" \
  --pp 1,2 --dp 1,2 --microbatches 4 --top 4 \
  --faults examples/fixtures/faults.toml \
  --fault-replicas 8 --threads 4 --json > "$T/faults-t4.json"
diff "$T/faults-t1.json" "$T/faults-t4.json"

step "faults: empty spec is byte-identical to plain --refine-sim"
printf 'version = 1\n' > "$T/empty-faults.toml"
./target/release/lumos search "$T/faults.json" \
  --pp 1,2 --microbatches 4 --refine-sim > "$T/plain.out"
./target/release/lumos search "$T/faults.json" \
  --pp 1,2 --microbatches 4 \
  --faults "$T/empty-faults.toml" > "$T/empty.out"
diff "$T/plain.out" "$T/empty.out"

step "faults: malformed specs are usage errors naming path and key (exit 2)"
printf 'version = 1\n[[straggler]]\nprobability = 0.5\nslowdown = 0.5\n' \
  > "$T/bad-faults.toml"
rc=0
./target/release/lumos search "$T/faults.json" --pp 1,2 \
  --faults "$T/bad-faults.toml" 2>"$T/bad.err" || rc=$?
test "$rc" -eq 2
grep -q "bad-faults.toml" "$T/bad.err"
grep -q "slowdown" "$T/bad.err"

step "faults: fault-replica knobs require --faults"
if ./target/release/lumos search "$T/faults.json" --pp 1,2 \
  --fault-replicas 8 2>"$T/gate.err"; then
  echo "--fault-replicas without --faults was not rejected" >&2; exit 1
fi
grep -q "only applies with --faults" "$T/gate.err"

step "faults: explain the committed fixture"
./target/release/lumos faults explain examples/fixtures/faults.toml \
  --replicas 8 | tee "$T/explain.out"
grep -q "1 straggler, 1 degradation, 2 failure" "$T/explain.out"
grep -q "replica(s) clean" "$T/explain.out"

# Trace-reader smoke: real Kineto output carries metadata (`"ph":"M"`)
# and flow (`"ph":"s"`) events without `cat` or `dur`, which the
# reader skips; a complete event missing a required field is rejected
# naming the field and the event's index.
step "trace: Kineto metadata and flow events are skipped"
./target/release/lumos synth --model tiny --out "$T/kineto.json"
./target/release/lumos replay "$T/kineto.json" > "$T/replay-plain.out"
sed 's/^{"traceEvents":\[/&{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"python3"}},{"ph":"s","id":1,"pid":0,"tid":1,"ts":5.0,"cat":"ac2g","name":"ac2g"},/' \
  "$T/kineto.json" > "$T/kineto-meta.json"
grep -q '"ph":"M"' "$T/kineto-meta.json"
./target/release/lumos replay "$T/kineto-meta.json" | tee "$T/replay-meta.out"
diff "$T/replay-plain.out" "$T/replay-meta.out"

step "trace: an event without dur is rejected naming the field and index (exit 1)"
sed 's/,"dur":[0-9.]*//3' "$T/kineto.json" > "$T/kineto-nodur.json"
rc=0
./target/release/lumos replay "$T/kineto-nodur.json" 2>"$T/nodur.err" || rc=$?
cat "$T/nodur.err"
test "$rc" -eq 1
grep -q '`dur`' "$T/nodur.err"
grep -q '#2' "$T/nodur.err"

echo "smoke: all checks passed"
