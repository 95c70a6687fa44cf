//! Ranking and the final search report.
//!
//! Ranking is **total-order safe**: objective keys are compared with
//! [`f64::total_cmp`] under a wrapper that sorts *any* non-finite key
//! (NaN, ±∞) strictly after every finite key, so a degenerate
//! candidate can never panic the sort or outrank a real one. The
//! engine additionally rejects non-finite objectives before ranking
//! (see [`crate::CandidateResult::infeasibility`]); the comparator is
//! the defense-in-depth layer underneath.

use crate::adaptive::AdaptiveReport;
use crate::evaluate::{CandidateResult, RejectedCandidate};
use crate::prune::{MemoStats, PruneStats, PrunedCandidate};
use crate::refine::RefinedResult;
use lumos_trace::Dur;
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// What the search ranks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Fastest predicted iteration, GPUs be damned.
    Makespan,
    /// Highest tokens/s **per GPU** — the capacity-planning default,
    /// since it normalizes across cluster sizes.
    #[default]
    PerGpuThroughput,
    /// Highest model-FLOPS utilization.
    Mfu,
}

impl Objective {
    /// Lower-is-better sort key for a result (negated for
    /// higher-is-better objectives).
    pub(crate) fn key(&self, r: &CandidateResult) -> f64 {
        match self {
            Objective::Makespan => r.makespan.as_secs_f64(),
            Objective::PerGpuThroughput => -r.tokens_per_sec_per_gpu,
            Objective::Mfu => -r.utilization.mfu,
        }
    }
}

/// Total order over objective keys: finite keys ascending via
/// [`f64::total_cmp`], every non-finite key (NaN or ±∞, either sign)
/// strictly last. `sort_by` never panics under this comparator.
pub(crate) fn objective_key_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_finite(), b.is_finite()) {
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        _ => a.total_cmp(&b),
    }
}

/// The full ranking comparator: objective key (non-finite last), then
/// enumeration index so rankings are fully deterministic.
pub(crate) fn rank_cmp(a: &CandidateResult, b: &CandidateResult, objective: Objective) -> Ordering {
    objective_key_cmp(objective.key(a), objective.key(b)).then_with(|| a.index.cmp(&b.index))
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Objective::Makespan => "makespan",
            Objective::PerGpuThroughput => "per-gpu-throughput",
            Objective::Mfu => "mfu",
        })
    }
}

impl FromStr for Objective {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "makespan" | "iteration" | "time" => Ok(Objective::Makespan),
            "per-gpu-throughput" | "throughput" | "tokens" => Ok(Objective::PerGpuThroughput),
            "mfu" => Ok(Objective::Mfu),
            other => Err(format!(
                "unknown objective `{other}` (expected makespan, throughput, or mfu)"
            )),
        }
    }
}

/// Sorts results by objective under the NaN-safe total order, breaking
/// exact ties by enumeration index so rankings are fully
/// deterministic. Non-finite objective keys sort strictly **last** —
/// they can never outrank a finite one — and the sort cannot panic,
/// whatever mix of NaN/±∞ the keys contain.
pub fn rank(mut results: Vec<CandidateResult>, objective: Objective) -> Vec<CandidateResult> {
    results.sort_by(|a, b| rank_cmp(a, b, objective));
    results
}

/// The outcome of one search run: ranked results plus everything that
/// was cut and why.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The base configuration the trace came from.
    pub base_label: String,
    /// Recorded makespan of the base trace.
    pub base_makespan: Dur,
    /// The ranking objective.
    pub objective: Objective,
    /// Evaluated candidates, best first. When the search ran with a
    /// retention bound ([`crate::SearchOptions::top_k`]) this holds at
    /// most that many results — the exact global top-k.
    pub results: Vec<CandidateResult>,
    /// Candidates cut by the memory gate, with evidence (bounded to
    /// the retention cap when one is set; `stats.memory_pruned` always
    /// counts all of them).
    pub pruned: Vec<PrunedCandidate>,
    /// Fully scored candidates rejected with a typed infeasibility
    /// reason instead of being ranked (bounded like `pruned`;
    /// `stats.infeasible` counts all of them).
    pub rejected: Vec<RejectedCandidate>,
    /// Grid counters, including lower-bound skip accounting.
    pub stats: PruneStats,
    /// Stage-cost memoization counters.
    pub memo: MemoStats,
    /// Worker threads used.
    pub threads: usize,
    /// Simulation-refined finals ([`crate::SearchOptions::refine_sim`]):
    /// the analytic finals re-ranked by the search objective
    /// re-evaluated at the engine-simulated makespan, with
    /// per-finalist analytic-vs-simulated deltas and optional
    /// jitter-robustness statistics. `None` when refinement was off.
    /// When present, the refined prefix of [`SearchReport::results`]
    /// is reordered to match. The simulated numbers come from
    /// metrics-only engine runs (no trace is materialized), which are
    /// bit-identical to full-trace execution.
    pub refined: Option<Vec<RefinedResult>>,
    /// Adaptive-engine accounting ([`crate::SearchOptions::adaptive`]):
    /// how the run terminated, how much of the space was visited, and
    /// the seed that replays it. `None` for exhaustive runs.
    pub adaptive: Option<AdaptiveReport>,
}

impl SearchReport {
    /// The best `k` results (fewer if fewer were evaluated).
    pub fn top_k(&self, k: usize) -> &[CandidateResult] {
        &self.results[..k.min(self.results.len())]
    }

    /// The winner, if anything was evaluated.
    pub fn best(&self) -> Option<&CandidateResult> {
        self.results.first()
    }

    /// Formats the header, prune statistics, and the top-`k` table.
    ///
    /// The text is a deterministic result: it prints only numbers that
    /// describe the answer, never the work that found it. The worker
    /// count and the work counters (`evaluated`, bound skips, memo hits
    /// and misses — the adaptive engine or a warm shared memo reach the
    /// same answer with other counts) stay in [`SearchReport::stats`]
    /// and [`SearchReport::memo`]; `lumos search --progress` prints
    /// them on stderr.
    pub fn format_top(&self, k: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let s = &self.stats;
        let _ = writeln!(
            out,
            "search over {} grid points from base {} ({:.2} ms recorded)",
            s.enumerated,
            self.base_label,
            self.base_makespan.as_ms_f64()
        );
        let _ = writeln!(
            out,
            "  lattice rejects: {} budget, {} divisibility, {} structural",
            s.budget_rejects, s.divisibility_rejects, s.structural_rejects
        );
        let _ = writeln!(
            out,
            "  memory-pruned before simulation: {}",
            s.memory_pruned
        );
        if let Some(a) = &self.adaptive {
            let _ = writeln!(
                out,
                "  adaptive: {} — visited {}/{} ({:.1}%), {} mutations over {} rounds, frontier {}, budget {}, seed {}",
                a.outcome,
                a.visited,
                a.grid_points,
                a.visited_percent(),
                a.mutations,
                a.rounds,
                a.frontier,
                a.budget,
                a.seed
            );
        }
        let _ = writeln!(out, "  objective: {}", self.objective);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:>4}  {:<22} {:>5} {:>11} {:>8} {:>13} {:>8} {:>10}",
            "rank", "candidate", "GPUs", "iter (ms)", "MFU", "tok/s/GPU", "bubble", "mem (GiB)"
        );
        if self.results.is_empty() {
            let _ = writeln!(
                out,
                "      (no feasible candidate survived the memory gate — \
                 see the pruning statistics above)"
            );
        }
        for (i, r) in self.top_k(k).iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>4}  {:<22} {:>5} {:>11.2} {:>7.1}% {:>13.0} {:>8.3} {:>10.1}",
                i + 1,
                r.label,
                r.world_size(),
                r.makespan.as_ms_f64(),
                r.utilization.mfu * 100.0,
                r.tokens_per_sec_per_gpu,
                r.bubble_fraction,
                r.memory.total() as f64 / (1u64 << 30) as f64,
            );
        }
        if !self.pruned.is_empty() {
            let _ = writeln!(out);
            let worst = self
                .pruned
                .iter()
                .max_by_key(|p| p.required_bytes)
                .expect("non-empty");
            let _ = writeln!(
                out,
                "({} infeasible configs never simulated; worst wanted {:.1} GiB \
                 at stage {} vs {:.1} GiB capacity)",
                s.memory_pruned,
                worst.required_bytes as f64 / (1u64 << 30) as f64,
                worst.stage,
                worst.capacity_bytes as f64 / (1u64 << 30) as f64,
            );
        }
        if !self.rejected.is_empty() {
            let _ = writeln!(
                out,
                "({} candidates rejected during scoring; first: {} — {})",
                s.infeasible, self.rejected[0].label, self.rejected[0].reason
            );
        }
        if let Some(refined) = &self.refined {
            let _ = writeln!(out);
            let with_jitter = refined.iter().any(|r| r.jitter.is_some());
            let with_faults = refined.iter().any(|r| r.faults.is_some());
            let _ = writeln!(
                out,
                "simulation-refined finals (re-ranked by {} at the engine-simulated {}):",
                self.objective,
                if with_faults {
                    "expected makespan under injected faults"
                } else if with_jitter {
                    "mean makespan over jitter replicas"
                } else {
                    "makespan"
                }
            );
            let _ = write!(
                out,
                "{:>4}  {:<22} {:>13} {:>13} {:>8}",
                "rank", "candidate", "analytic (ms)", "simulated (ms)", "delta"
            );
            if with_jitter {
                let _ = write!(
                    out,
                    " {:>11} {:>11} {:>10}",
                    "mean (ms)", "p95 (ms)", "stability"
                );
            }
            if with_faults {
                let _ = write!(
                    out,
                    " {:>13} {:>13} {:>8} {:>7}",
                    "expected (ms)", "f-p95 (ms)", "degrad", "robust"
                );
            }
            let _ = writeln!(out);
            for (i, r) in refined.iter().take(k).enumerate() {
                let _ = write!(
                    out,
                    "{:>4}  {:<22} {:>13.2} {:>13.2} {:>+7.1}%",
                    i + 1,
                    r.label,
                    r.analytic_makespan.as_ms_f64(),
                    r.simulated_makespan.as_ms_f64(),
                    r.delta * 100.0,
                );
                if let Some(j) = &r.jitter {
                    let _ = write!(
                        out,
                        " {:>11.2} {:>11.2}",
                        j.mean.as_ms_f64(),
                        j.p95.as_ms_f64()
                    );
                    match j.stability {
                        Some(s) => {
                            let _ = write!(out, " {:>10.3}", s);
                        }
                        // Undefined below two replicas: p95 of one
                        // sample is the sample, not a tail.
                        None => {
                            let _ = write!(out, " {:>10}", "n/a");
                        }
                    }
                }
                if let Some(fs) = &r.faults {
                    let _ = write!(
                        out,
                        " {:>13.2} {:>13.2} {:>+7.1}% {:>7.3}",
                        fs.expected.as_ms_f64(),
                        fs.p95.as_ms_f64(),
                        fs.degradation * 100.0,
                        fs.robustness,
                    );
                }
                let _ = writeln!(out);
            }
            if refined.is_empty() {
                let _ = writeln!(out, "      (no finalists to refine)");
            }
        }
        out
    }
}

impl fmt::Display for SearchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.format_top(10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_parses_and_prints() {
        assert_eq!(
            "makespan".parse::<Objective>().unwrap(),
            Objective::Makespan
        );
        assert_eq!(
            "THROUGHPUT".parse::<Objective>().unwrap(),
            Objective::PerGpuThroughput
        );
        assert_eq!("mfu".parse::<Objective>().unwrap(), Objective::Mfu);
        assert!("speed".parse::<Objective>().is_err());
        assert_eq!(Objective::Makespan.to_string(), "makespan");
    }

    #[test]
    fn objective_key_cmp_is_a_total_order_with_non_finite_last() {
        use std::cmp::Ordering::*;
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.5,
            0.0,
            -0.0,
            2.5,
        ];
        // Finite before non-finite, both directions consistent.
        for &fin in &[-1.5, 0.0, 2.5] {
            for &bad in &[f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(objective_key_cmp(fin, bad), Less, "{fin} vs {bad}");
                assert_eq!(objective_key_cmp(bad, fin), Greater, "{bad} vs {fin}");
            }
        }
        // Antisymmetry + transitivity over every triple.
        for &a in &specials {
            for &b in &specials {
                assert_eq!(
                    objective_key_cmp(a, b),
                    objective_key_cmp(b, a).reverse(),
                    "antisymmetry {a} {b}"
                );
                for &c in &specials {
                    if objective_key_cmp(a, b) != Greater && objective_key_cmp(b, c) != Greater {
                        assert_ne!(objective_key_cmp(a, c), Greater, "transitivity {a} {b} {c}");
                    }
                }
            }
        }
        // A sort under the comparator must not panic.
        let mut keys = specials.to_vec();
        keys.sort_by(|a, b| objective_key_cmp(*a, *b));
        assert!(keys[..4].iter().all(|k| k.is_finite()));
        assert!(keys[4..].iter().all(|k| !k.is_finite()));
    }
}
