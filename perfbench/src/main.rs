//! The Lumos benchmark program (`run.py` drives it):
//!
//! ```text
//! perfbench gen --workload W --seed N --dir D --faults F
//! perfbench run --workload W --dir D --faults F --seconds S --trace 0|1 [--spans OUT]
//! perfbench accuracy --workload W --dir D --faults F
//! ```
//!
//! `gen` writes a workload's inputs and reference outputs for a seed;
//! `accuracy` generates the inputs of the fixed accuracy panel with
//! their ground truth, runs each op once and prints the errors;
//! `run` sets the workload up, runs one discarded warm-up pass, then as
//! many whole passes over its op list as take `S` seconds on the
//! machine the benchmark was tuned on, with timed set-ups spread between
//! them; it checks every op and prints one JSON object with the
//! metrics, the per-pass work counters and the accuracy values the
//! determinism gate compares.
//! With `--trace 1` it alternates untraced and traced passes and
//! reports per-layer metrics instead of end-to-end ones.

mod inputs;
mod spans;
mod workloads;

use spans::Spans;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{OpOut, Workload};

/// Any failure; the process reports it and exits with status 1.
pub type Fail = Box<dyn std::error::Error>;

/// The workload seed of the accuracy panel. Accuracy is scored at this
/// one seed so that `err_*` are a property of the code: across seeds,
/// the jitter of the profiled iterations alone moves them by about half
/// their value (interquartile range over ten seeds).
const PANEL_SEED: u64 = 2025;

/// Timed set-ups per run, spread evenly over its passes so that they
/// meet the host's quiet and contended periods as the ops do.
const SETUPS: usize = 20;

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), Fail> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: perfbench gen|run --key value ...")?;
    let mut opts = HashMap::new();
    for pair in rest.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                opts.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("bad arguments: {pair:?}").into()),
        }
    }
    let get = |k: &str| -> Result<&String, Fail> {
        opts.get(k).ok_or_else(|| format!("missing --{k}").into())
    };
    let workload = get("workload")?.as_str();
    if !inputs::WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload `{workload}`").into());
    }
    let dir = PathBuf::from(get("dir")?);
    let faults = PathBuf::from(get("faults")?);
    match cmd.as_str() {
        "gen" => inputs::generate(workload, get("seed")?.parse()?, &dir, &faults, false),
        "accuracy" => {
            inputs::generate(workload, PANEL_SEED, &dir, &faults, true)?;
            let mut w = workloads::open(workload, &dir, &faults)?;
            w.setup(None)?;
            let mut errs = Vec::new();
            for i in 0..w.len() {
                let out = w.op(i)?;
                if w.reference(i).is_some_and(|r| r != out.digest) {
                    return Err(format!("panel op on input {i} differs from its reference").into());
                }
                errs.extend(out.errs);
            }
            let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
            let max = errs.iter().copied().fold(0.0, f64::max);
            println!(r#"{{"err_mean_pct":{mean:?},"err_max_pct":{max:?}}}"#);
            Ok(())
        }
        "run" => {
            let seconds = Duration::from_secs_f64(get("seconds")?.parse()?);
            let traced = match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, not `{other}`").into()),
            };
            let mut w = workloads::open(workload, &dir, &faults)?;
            let result = run(
                w.as_mut(),
                seconds,
                traced,
                opts.get("spans").map(PathBuf::from),
            )?;
            println!("{result}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`").into()),
    }
}

/// An op's work counters and accuracy values.
type Work = (Vec<(&'static str, u64)>, Vec<f64>);

/// What every op of one input must repeat exactly.
struct Seen {
    digest: String,
    /// Work per mode (untraced, traced).
    work: [Option<Work>; 2],
}

/// Checks op outputs and counts failures.
struct Checker {
    seen: Vec<Option<Seen>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, w: &dyn Workload, i: usize, traced: bool, out: Result<OpOut, Fail>) {
        self.attempted += 1;
        if let Err(why) = self.verdict(w, i, traced, out) {
            if self.failed == 0 {
                eprintln!("perfbench: op on input {i} failed: {why}");
            }
            self.failed += 1;
        }
    }

    fn verdict(
        &mut self,
        w: &dyn Workload,
        i: usize,
        traced: bool,
        out: Result<OpOut, Fail>,
    ) -> Result<(), Fail> {
        let out = out?;
        let seen = self.seen[i].get_or_insert_with(|| Seen {
            digest: w.reference(i).unwrap_or(&out.digest).to_string(),
            work: [None, None],
        });
        if out.digest != seen.digest {
            return Err(format!(
                "output differs from the reference:\n{}\n{}",
                out.digest, seen.digest
            )
            .into());
        }
        let work = (out.counters, out.errs);
        if let Some((counters, errs)) = &seen.work[!traced as usize] {
            // The other mode may count more, but what both count agrees.
            let differs = work
                .0
                .iter()
                .any(|c| counters.iter().any(|o| o.0 == c.0 && o.1 != c.1));
            if differs || *errs != work.1 {
                return Err(format!(
                    "traced and untraced work differ: {work:?} vs {counters:?} {errs:?}"
                )
                .into());
            }
        }
        match &seen.work[traced as usize] {
            None => seen.work[traced as usize] = Some(work),
            Some(first) if *first == work => {}
            Some(first) => {
                return Err(
                    format!("work counters differ across ops: {work:?} vs {first:?}").into(),
                )
            }
        }
        Ok(())
    }

    /// Per-pass counter sums and all accuracy values of one mode.
    fn pass_work(&self, traced: bool) -> (BTreeMap<&'static str, u64>, Vec<f64>) {
        let mut counters = BTreeMap::new();
        let mut errs = Vec::new();
        for (c, e) in self
            .seen
            .iter()
            .flatten()
            .filter_map(|s| s.work[traced as usize].as_ref())
        {
            for &(name, v) in c {
                *counters.entry(name).or_insert(0) += v;
            }
            errs.extend(e);
        }
        (counters, errs)
    }
}

/// The `q` quantile of `values`, interpolated linearly between the two
/// nearest ranks.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mib() -> Result<f64, Fail> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn metric(metrics: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    let value = if value.is_finite() { value } else { 0.0 };
    metrics.push(format!(r#""{name}":{{"value":{value:?},"unit":"{unit}"}}"#));
}

fn run(
    w: &mut dyn Workload,
    seconds: Duration,
    traced: bool,
    spans_out: Option<PathBuf>,
) -> Result<String, Fail> {
    let mut spans = Spans::new();
    let mut setup_s = Vec::new();
    let mut load_ms = Vec::new();
    // The first, untimed set-up readies the warm-up pass.
    w.setup(traced.then_some(&mut spans))?;

    let n = w.len();
    let mut check = Checker {
        seen: (0..n).map(|_| None).collect(),
        attempted: 0,
        failed: 0,
    };
    for i in 0..n {
        let out = w.op(i);
        check.check(w, i, false, out);
    }

    // A traced run splits its passes between the two modes.
    let passes = (seconds.as_secs_f64() / w.pass_s() / if traced { 2.0 } else { 1.0 }).round();
    let passes = (passes as usize).max(1);
    let mut op_s = Vec::new();
    let mut pass_s = Vec::new();
    let mut traced_op_s = Vec::new();
    let mut traced_passes: Vec<BTreeMap<&'static str, u64>> = Vec::new();
    for p in 0..passes {
        for _ in p * SETUPS / passes..(p + 1) * SETUPS / passes {
            let mark = spans.mark();
            let t = Instant::now();
            w.setup(traced.then_some(&mut spans))?;
            setup_s.push(t.elapsed().as_secs_f64());
            load_ms.push(*spans.totals_since(mark).get("calib.load").unwrap_or(&0) as f64 / 1e6);
        }
        // Traced runs alternate which mode goes first, so drift within
        // a pair of passes does not read as tracing overhead.
        let modes: &[bool] = match (traced, p % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced_pass in modes {
            let mark = spans.mark();
            let mut pass = 0.0;
            for i in 0..n {
                spans.next_op();
                let t = Instant::now();
                let out = if traced_pass {
                    w.op_traced(i, &mut spans)
                } else {
                    w.op(i)
                };
                let dt = t.elapsed().as_secs_f64();
                pass += dt;
                check.check(w, i, traced_pass, out);
                if traced_pass {
                    traced_op_s.push(dt);
                } else {
                    op_s.push(dt);
                }
            }
            if traced_pass {
                traced_passes.push(spans.totals_since(mark));
            } else {
                pass_s.push(pass);
            }
        }
    }

    let ops_ms: Vec<String> = op_s.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    let (mut work, errs) = check.pass_work(false);
    let mut metrics = Vec::new();
    if traced {
        let (traced_counters, _) = check.pass_work(true);
        let count = |name: &str| *traced_counters.get(name).unwrap_or(&0) as f64;
        let pass_ms = |name: &str| {
            let mut v: Vec<f64> = traced_passes
                .iter()
                .map(|p| *p.get(name).unwrap_or(&0) as f64 / 1e6)
                .collect();
            median(&mut v)
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        metric(&mut metrics, "calib.load_ms", median(&mut load_ms), "ms");
        for layer in [
            "core.plan",
            "core.reassemble",
            "core.build_graph",
            "core.simulate",
            "core.to_trace",
            "trace.breakdown",
            "core.free",
        ] {
            metric(&mut metrics, &format!("{layer}_ms"), pass_ms(layer), "ms");
        }
        let tasks = count("core.tasks_simulated");
        metric(
            &mut metrics,
            "core.ranks_simulated",
            count("core.ranks_simulated"),
            "count",
        );
        metric(&mut metrics, "core.tasks_simulated", tasks, "count");
        metric(
            &mut metrics,
            "core.ns_per_task",
            ratio(pass_ms("core.simulate") * 1e6, tasks),
            "ns",
        );

        let screen_ms = pass_ms("search.screen");
        let evaluated = count("search.evaluated");
        metric(&mut metrics, "search.screen_ms", screen_ms, "ms");
        for name in [
            "search.lattice_rejected",
            "search.memory_pruned",
            "search.bound_skipped",
            "search.evaluated",
            "search.memo_hits",
            "search.memo_misses",
        ] {
            metric(&mut metrics, name, count(name), "count");
        }
        metric(
            &mut metrics,
            "search.useful_ratio",
            ratio(count("search.kept"), evaluated),
            "ratio",
        );
        metric(
            &mut metrics,
            "search.ms_per_evaluated",
            ratio(screen_ms, evaluated),
            "ms",
        );

        for step in [
            "lower",
            "verify",
            "prepare",
            "execute_clean",
            "execute_jitter",
            "execute_faulted",
        ] {
            metric(
                &mut metrics,
                &format!("cluster.{step}_ms"),
                pass_ms(&format!("cluster.{step}")),
                "ms",
            );
        }
        let executed = count("cluster.replicas_executed");
        metric(&mut metrics, "cluster.replicas_executed", executed, "count");
        metric(
            &mut metrics,
            "cluster.replicas_reused",
            count("cluster.replicas_reused"),
            "count",
        );
        let replica_ms = pass_ms("cluster.execute_jitter") + pass_ms("cluster.execute_faulted");
        metric(
            &mut metrics,
            "cluster.us_per_replica",
            ratio(replica_ms * 1e3, executed),
            "us",
        );

        let parse_ms = pass_ms("trace.parse");
        metric(&mut metrics, "trace.read_ms", pass_ms("trace.read"), "ms");
        metric(&mut metrics, "trace.parse_ms", parse_ms, "ms");
        metric(
            &mut metrics,
            "trace.events_parsed",
            count("trace.events_parsed"),
            "count",
        );
        let mb = count("trace.bytes_parsed") / 1e6;
        metric(
            &mut metrics,
            "trace.parse_mb_per_s",
            ratio(mb * 1e3, parse_ms),
            "MB/s",
        );

        let (untraced_p50, traced_p50) = (median(&mut op_s), median(&mut traced_op_s));
        let overhead = ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0;
        metric(&mut metrics, "bench.trace_overhead_pct", overhead, "%");
        let mut span_ms: Vec<f64> = traced_passes
            .iter()
            .map(|p| p.values().sum::<u64>() as f64 / 1e6)
            .collect();
        let coverage = ratio(median(&mut span_ms), median(&mut pass_s) * 1e3) * 100.0;
        metric(&mut metrics, "bench.span_coverage_pct", coverage, "%");
        work.extend(traced_counters);
        if let Some(path) = spans_out {
            spans.write_chrome(&path)?;
        }
    } else {
        // Timings read the 90th percentile: on a shared host the share
        // of a run that falls in a quiet period, when every op runs
        // faster, varies from run to run and moves the median two to
        // four times as much. Throughput takes each input's own 90th
        // percentile, so that every input of a mixed op list counts.
        let pass_p90: f64 = (0..n)
            .map(|i| {
                let mut times: Vec<f64> = op_s.iter().skip(i).step_by(n).copied().collect();
                quantile(&mut times, 0.9)
            })
            .sum();
        metric(&mut metrics, "setup_s", quantile(&mut setup_s, 0.9), "s");
        metric(
            &mut metrics,
            "op_p90_ms",
            quantile(&mut op_s, 0.9) * 1e3,
            "ms",
        );
        metric(&mut metrics, "ops_per_s", n as f64 / pass_p90, "1/s");
        metric(&mut metrics, "peak_rss_mib", peak_rss_mib()?, "MiB");
    }

    let work: Vec<String> = work.iter().map(|(k, v)| format!(r#""{k}":{v}"#)).collect();
    let errs: Vec<String> = errs.iter().map(|e| format!("{e:?}")).collect();
    Ok(format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"passes":{},"metrics":{{{}}},"work":{{{}}},"errs":[{}],"ops_ms":[{}]}}"#,
        check.failed == 0,
        check.attempted,
        check.failed,
        pass_s.len(),
        metrics.join(","),
        work.join(","),
        errs.join(","),
        ops_ms.join(",")
    ))
}
