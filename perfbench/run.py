#!/usr/bin/env python3
"""Runs one workload of the Lumos benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the benchmark program
(`perfbench/Cargo.toml`, into `$CARGO_TARGET_DIR`, default
`.bench_build`), generates the workload's inputs from the seed in a
separate process, runs the workload in its own process, and prints as
its last line one JSON object with `correct`, `attempted`, `failed`
and `metrics`. The line before it records the machine's CPU steal over
the run, read from /proc/stat.

The determinism gate keeps one record per build, workload and seed
under `.perfbench/records/`: every work counter and accuracy value
must repeat exactly on every later run of that build, workload and
seed, or the run is marked incorrect. Spans of traced runs are written to
`.perfbench/spans/`.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ["predict-replay", "robust-refine"]
FAULTS = os.path.join("examples", "fixtures", "faults.toml")
STATE = ".perfbench"
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 60
RUN_SLACK_S = 90


def cpu_times():
    """The aggregate `cpu` line of /proc/stat: (steal, total) jiffies."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is
    # already counted in user and nice).
    return fields[7], sum(fields[:8])


def build():
    """Builds the benchmark program; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(target, "release", "perfbench")


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .perfbench, removed afterwards."""
    path = os.path.join(STATE, f"work-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def write_atomic(path, text):
    """Writes `path` through a rename, so a reader never sees half a file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def build_id(program):
    """A digest of the program, so kept results never outlive a rebuild."""
    with open(program, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def accuracy(program, build, workload):
    """err_mean_pct and err_max_pct of the workload on the fixed
    accuracy panel. They depend only on the code, so they are computed
    once per build of the program and kept under .perfbench/accuracy/."""
    path = os.path.join(STATE, "accuracy", build, f"{workload}.json")
    if not os.path.exists(path):
        with scratch_dir() as work_dir:
            out = subprocess.run(
                [program, "accuracy", "--workload", workload, "--dir", work_dir,
                 "--faults", FAULTS],
                stdout=subprocess.PIPE, check=True, text=True, timeout=GEN_TIMEOUT_S).stdout
        write_atomic(path, out.strip().splitlines()[-1])
    with open(path) as f:
        return json.load(f)


def gate(build, workload, seed, work, errs):
    """Compares this run's work counters and accuracy values with the
    record of earlier runs of the same build, workload and seed;
    returns the names that differ."""
    path = os.path.join(STATE, "records", build, f"{workload}-seed{seed}.json")
    record = {}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
    current = dict(work, errs=errs)
    mismatched = [k for k, v in current.items() if k in record and record[k] != v]
    record.update({k: v for k, v in current.items() if k not in record})
    write_atomic(path, json.dumps(record, sort_keys=True))
    return mismatched


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    program = build()
    key = build_id(program)
    errs = accuracy(program, key, args.workload) if not args.trace else {}
    with scratch_dir() as work_dir:
        common = ["--workload", args.workload, "--dir", work_dir, "--faults", FAULTS]
        subprocess.run([program, "gen", "--seed", str(args.seed)] + common,
                       stdout=sys.stderr, check=True, timeout=GEN_TIMEOUT_S)
        run_cmd = [program, "run", "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + common
        if args.trace:
            spans = os.path.join(STATE, "spans", f"{args.workload}-seed{args.seed}.json")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            run_cmd += ["--spans", spans]
        steal0, total0 = cpu_times()
        started = time.monotonic()
        # One malloc arena: with per-thread arenas, where the search's
        # short-lived worker thread allocates moves peak RSS by about 10%
        # between identical runs.
        env = dict(os.environ, MALLOC_ARENA_MAX="1")
        out = subprocess.run(run_cmd, stdout=subprocess.PIPE, check=True, text=True,
                             env=env, timeout=args.seconds + RUN_SLACK_S).stdout
        wall_s = time.monotonic() - started
        steal1, total1 = cpu_times()

    result = json.loads(out.strip().splitlines()[-1])
    mismatched = gate(key, args.workload, args.seed, result["work"], result["errs"])
    if mismatched:
        print(f"determinism gate: {', '.join(mismatched)} differ from an earlier run "
              f"of seed {args.seed}", file=sys.stderr)
    steal_pct = 100.0 * (steal1 - steal0) / max(total1 - total0, 1)
    run_info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "cpu_steal_pct": steal_pct, "passes": result["passes"],
                "run_wall_s": wall_s, "work": result["work"], "ops_ms": result["ops_ms"]}
    print(json.dumps(run_info))
    metrics = dict(result["metrics"])
    for name, value in errs.items():
        metrics[name] = {"value": value, "unit": "%"}
    final = {
        "correct": result["correct"] and not mismatched,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(STATE, "runs.jsonl"), "a") as f:
        f.write(json.dumps(dict(run_info, **final)) + "\n")
    print(json.dumps(final))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
