//! Deterministic, replayable fault injection over the discrete-event
//! engine.
//!
//! The [`crate::JitterModel`] answers "how does this configuration
//! behave under *healthy* run-to-run variance?". At the scale the
//! north-star targets, stragglers, link degradation, and rank
//! failures are the steady state, not the exception — this module
//! generalizes the jitter idea into a **scenario engine** with four
//! injectable fault kinds:
//!
//! * **persistent stragglers** — per-rank slow-node multipliers
//!   applied to every compute kernel and host op of the afflicted
//!   ranks (thermal throttling, a degraded HBM stack, a noisy
//!   neighbor);
//! * **transient network degradation** — a bandwidth multiplier on a
//!   collective scope (`tp`/`dp`/`pp`/`embedding`/`all`) over a
//!   `[t_start, t_end)` window of the iteration (a flapping link, a
//!   congested spine);
//! * **rank failure with checkpoint restart** — a rank dies at a
//!   sampled point of a checkpoint interval; the run loses the work
//!   since the last checkpoint and pays an amortized restart latency
//!   ([`lumos_model::RecoveryCosts`]);
//! * **elastic re-sharding** — instead of restoring the full world,
//!   the survivors re-lower to a degraded configuration (one fewer
//!   data-parallel replica) and additionally pay a re-shard cost.
//!
//! Scenarios come from a versioned [`FaultSpec`] TOML file, read by
//! the shared spec-file reader [`lumos_model::spec`]. Which faults
//! fire in a given replica is sampled with the same
//! hash-the-`(seed, replica, site)` idiom as [`crate::JitterModel`]
//! (`jitter::mix`), so every replica is **byte-identical to
//! replay**: no RNG state threads between replicas, and thread count
//! or evaluation order can never change a draw. The compiled
//! [`RunScenario`] is executed through the engine's metrics-only
//! event-sink fast path
//! ([`crate::PreparedJob::execute_metrics_faulted`]), so hundreds of
//! fault replicas per search finalist stay affordable.

use crate::jitter::mix;
use lumos_model::spec::{self, SpecError, Value};
use lumos_model::{RecoveryCosts, ScopeClass};
use lumos_trace::{Dur, Ts};
use std::str::FromStr;

/// The one spec version this build reads.
pub const FAULT_SPEC_VERSION: u64 = 1;

// Sampling-site tags, disjoint from the jitter tags (0x4b65 / 0x686f /
// 0x636f / 0x6472) so fault draws can never collide with variance
// draws under the same seed.
const TAG_STRAGGLER: u64 = 0x7367; // straggler gate
const TAG_STRAGGLER_RANK: u64 = 0x7372; // straggler rank choice
const TAG_DEGRADATION: u64 = 0x6467; // degradation gate
const TAG_FAILURE: u64 = 0x6667; // failure gate
const TAG_FAILURE_RANK: u64 = 0x6672; // failed-rank choice
const TAG_FAILURE_FRAC: u64 = 0x6666; // failure point in the interval

/// A uniform draw in `[0, 1)` from the hash of `(seed, tag, a, b, c)`
/// — the top 53 bits of the mixed key, the same construction
/// `rand`'s uniform `f64` uses.
fn uniform01(seed: u64, tag: u64, a: u64, b: u64, c: u64) -> f64 {
    let key = mix(mix(mix(mix(seed, tag), a), b), c);
    (key >> 11) as f64 / (1u64 << 53) as f64
}

/// One persistent-straggler scenario: with `probability`, `ranks`
/// distinct ranks run all compute/host work `slowdown`× slower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerSpec {
    /// Per-replica probability the scenario fires.
    pub probability: f64,
    /// Distinct ranks afflicted when it fires (clamped to the world).
    pub ranks: u32,
    /// Duration multiplier (≥ 1) on the afflicted ranks' compute
    /// kernels and host ops.
    pub slowdown: f64,
}

/// One transient network-degradation scenario: with `probability`,
/// collectives on `scope` starting inside
/// `[start_frac, end_frac) × clean makespan` run at
/// `bandwidth_factor` of nominal bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationSpec {
    /// Per-replica probability the scenario fires.
    pub probability: f64,
    /// Collective scope the window applies to (`None` = every group).
    pub scope: Option<ScopeClass>,
    /// Remaining bandwidth fraction in `(0, 1]`: affected collectives
    /// take `base / bandwidth_factor`.
    pub bandwidth_factor: f64,
    /// Window start as a fraction of the clean makespan.
    pub start_frac: f64,
    /// Window end as a fraction of the clean makespan (may exceed 1:
    /// faulted runs outlast the clean one).
    pub end_frac: f64,
}

/// One rank-failure scenario: with `probability`, a rank dies at a
/// sampled point of a checkpoint interval and the run recovers by
/// checkpoint restart — or, with `elastic`, by re-sharding onto one
/// fewer data-parallel replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureSpec {
    /// Per-replica probability the scenario fires.
    pub probability: f64,
    /// Recover by elastic re-sharding to a survivor configuration
    /// instead of waiting for the full world to restore.
    pub elastic: bool,
    /// Checkpoint-restart / re-shard cost parameters.
    pub recovery: RecoveryCosts,
}

/// A versioned, parsed fault-scenario specification.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Persistent-straggler scenarios (`[[straggler]]` tables).
    pub stragglers: Vec<StragglerSpec>,
    /// Network-degradation scenarios (`[[degradation]]` tables).
    pub degradations: Vec<DegradationSpec>,
    /// Rank-failure scenarios (`[[failure]]` tables).
    pub failures: Vec<FailureSpec>,
}

impl FaultSpec {
    /// `true` when no scenario is declared: the robust pass is a
    /// no-op and search skips it entirely, which is what keeps
    /// `--faults empty.toml` byte-identical to plain `--refine-sim`.
    pub fn is_empty(&self) -> bool {
        self.stragglers.is_empty() && self.degradations.is_empty() && self.failures.is_empty()
    }

    /// Parses the versioned TOML text: an optional top-level `version`
    /// and `[[straggler]]`, `[[degradation]]` and `[[failure]]` tables,
    /// read by the shared reader [`lumos_model::spec`] (its module docs
    /// give the grammar).
    ///
    /// # Errors
    ///
    /// Every error names the offending line and TOML key; callers
    /// prepend the file path.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let doc = spec::parse(text, &["straggler", "degradation", "failure"])?;
        let mut top = doc.top;
        top.get("version", |v| match v.float()? {
            n if n.fract() != 0.0 || n < 0.0 => Err(format!("{n} is not a non-negative integer")),
            n if n as u64 != FAULT_SPEC_VERSION => Err(format!(
                "unsupported fault-spec version {} (this build reads version {FAULT_SPEC_VERSION})",
                n as u64
            )),
            _ => Ok(()),
        })?;
        top.finish()?;

        let mut spec = FaultSpec::default();
        for mut t in doc.tables {
            let probability = t
                .get("probability", |v| match v.float()? {
                    p if (0.0..=1.0).contains(&p) => Ok(p),
                    p => Err(format!("{p} is outside [0, 1]")),
                })?
                .unwrap_or(1.0);
            match t.name() {
                Some("straggler") => {
                    let ranks = t.get("ranks", |v| match v.float()? {
                        n if n.fract() == 0.0 && n >= 1.0 && n <= u32::MAX as f64 => Ok(n as u32),
                        n => Err(format!("{n} is not a positive integer")),
                    })?;
                    let slowdown = t.require("slowdown", |v| match v.float()? {
                        s if s >= 1.0 && s.is_finite() => Ok(s),
                        s => Err(format!("{s} must be a finite multiplier ≥ 1")),
                    })?;
                    spec.stragglers.push(StragglerSpec {
                        probability,
                        ranks: ranks.unwrap_or(1),
                        slowdown,
                    });
                }
                Some("degradation") => {
                    let scope = t.get("scope", |v| match v.string()? {
                        "all" => Ok(None),
                        s => ScopeClass::from_str(s).map(Some),
                    })?;
                    let bandwidth_factor =
                        t.require("bandwidth_factor", |v| match v.float()? {
                            b if b > 0.0 && b <= 1.0 => Ok(b),
                            b => Err(format!("{b} is outside (0, 1]")),
                        })?;
                    let start_frac = t
                        .get("start_frac", |v| match v.float()? {
                            s if (0.0..100.0).contains(&s) => Ok(s),
                            s => Err(format!("{s} is outside [0, 100)")),
                        })?
                        .unwrap_or(0.0);
                    let end_frac = t.get("end_frac", |v| match v.float()? {
                        e if e > start_frac && e <= 100.0 => Ok(e),
                        e => Err(format!(
                            "{e} must be in ({start_frac}, 100] (after start_frac)"
                        )),
                    })?;
                    spec.degradations.push(DegradationSpec {
                        probability,
                        scope: scope.flatten(),
                        bandwidth_factor,
                        start_frac,
                        end_frac: end_frac.unwrap_or(1.0),
                    });
                }
                Some("failure") => {
                    let defaults = RecoveryCosts::defaults();
                    let duration = |v: &Value| match v.float()? {
                        s if s >= 0.0 && s.is_finite() => Ok(s),
                        s => Err(format!("{s} must be a finite non-negative duration")),
                    };
                    let elastic = t.get("elastic", Value::boolean)?.unwrap_or(false);
                    let recovery = RecoveryCosts {
                        checkpoint_interval_iters: t
                            .get("checkpoint_interval", |v| match v.float()? {
                                n if n.fract() == 0.0 && n >= 1.0 && n <= u32::MAX as f64 => {
                                    Ok(n as u32)
                                }
                                n => Err(format!("{n} is not a positive integer (iterations)")),
                            })?
                            .unwrap_or(defaults.checkpoint_interval_iters),
                        restart_latency_s: t
                            .get("restart_latency_s", duration)?
                            .unwrap_or(defaults.restart_latency_s),
                        reshard_cost_s: t
                            .get("reshard_cost_s", duration)?
                            .unwrap_or(defaults.reshard_cost_s),
                    };
                    spec.failures.push(FailureSpec {
                        probability,
                        elastic,
                        recovery,
                    });
                }
                _ => unreachable!("the reader admits only the three scenario tables"),
            }
            t.finish()?;
        }
        Ok(spec)
    }

    /// Samples which scenarios fire in replica `replica` of a
    /// `world`-rank job under `seed`. Pure: the same arguments always
    /// produce the same realization, independent of call order or
    /// thread count.
    pub fn realize(&self, seed: u64, replica: u32, world: u32) -> Realization {
        let world = world.max(1);
        let mut stragglers: Vec<(u32, f64)> = Vec::new();
        for (i, s) in self.stragglers.iter().enumerate() {
            if uniform01(seed, TAG_STRAGGLER, replica as u64, i as u64, 0) >= s.probability {
                continue;
            }
            let count = s.ranks.min(world);
            for k in 0..count {
                // Distinct-rank draw with linear probing: a collision
                // walks forward deterministically.
                let h = mix(
                    mix(mix(mix(seed, TAG_STRAGGLER_RANK), replica as u64), i as u64),
                    k as u64,
                );
                let mut rank = (h % world as u64) as u32;
                while stragglers.iter().any(|&(r, _)| r == rank)
                    && stragglers.len() < world as usize
                {
                    rank = (rank + 1) % world;
                }
                match stragglers.iter_mut().find(|(r, _)| *r == rank) {
                    // World saturated: stack the slowdown instead.
                    Some((_, m)) => *m *= s.slowdown,
                    None => stragglers.push((rank, s.slowdown)),
                }
            }
        }
        stragglers.sort_by_key(|&(r, _)| r);

        let mut windows = Vec::new();
        for (i, d) in self.degradations.iter().enumerate() {
            if uniform01(seed, TAG_DEGRADATION, replica as u64, i as u64, 0) < d.probability {
                windows.push(*d);
            }
        }

        // At most one failure per replica: the first declared scenario
        // that fires wins. Multi-failure replicas would need a joint
        // recovery model; one failure per iteration-scale window is
        // the regime the checkpoint-restart arithmetic describes.
        let mut failure = None;
        for (i, f) in self.failures.iter().enumerate() {
            if uniform01(seed, TAG_FAILURE, replica as u64, i as u64, 0) < f.probability {
                let rank = (mix(mix(mix(seed, TAG_FAILURE_RANK), replica as u64), i as u64)
                    % world as u64) as u32;
                let frac = uniform01(seed, TAG_FAILURE_FRAC, replica as u64, i as u64, 0);
                failure = Some(FailureRealization {
                    rank,
                    frac,
                    elastic: f.elastic,
                    recovery: f.recovery,
                });
                break;
            }
        }

        Realization {
            replica,
            stragglers,
            windows,
            failure,
        }
    }
}

/// The sampled outcome of one replica: which scenarios fired and with
/// what draws. Everything needed both to compile a [`RunScenario`]
/// for the engine and to explain the replica to a human
/// (`lumos faults explain`).
#[derive(Debug, Clone, PartialEq)]
pub struct Realization {
    /// The replica index this realization belongs to.
    pub replica: u32,
    /// `(rank, multiplier)` pairs of afflicted ranks, sorted by rank.
    pub stragglers: Vec<(u32, f64)>,
    /// Degradation windows that fired (fractions of the clean
    /// makespan; resolved to absolute times by [`Realization::compile`]).
    pub windows: Vec<DegradationSpec>,
    /// The failure that fired, if any.
    pub failure: Option<FailureRealization>,
}

/// A sampled rank failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureRealization {
    /// The rank that dies (display only — the cost model charges the
    /// whole world).
    pub rank: u32,
    /// Failure point within the checkpoint interval, in `[0, 1)`:
    /// the fraction of work since the last checkpoint that is lost.
    pub frac: f64,
    /// Recover by elastic re-sharding instead of full restore.
    pub elastic: bool,
    /// The recovery cost parameters of the scenario that fired.
    pub recovery: RecoveryCosts,
}

impl Realization {
    /// `true` when nothing fired: the engine run is identical to the
    /// clean one and callers can reuse the clean makespan.
    pub fn is_clean(&self) -> bool {
        self.stragglers.is_empty() && self.windows.is_empty() && self.failure.is_none()
    }

    /// Resolves fractional degradation windows against the clean
    /// makespan and spreads straggler multipliers into a dense
    /// per-rank table for the engine's hot path.
    pub fn compile(&self, world: u32, clean_makespan: Dur) -> RunScenario {
        let mut rank_mult = vec![1.0f64; world.max(1) as usize];
        for &(rank, m) in &self.stragglers {
            if let Some(slot) = rank_mult.get_mut(rank as usize) {
                *slot *= m;
            }
        }
        let span = clean_makespan.as_ns() as f64;
        let windows: Vec<CompiledWindow> = self
            .windows
            .iter()
            .map(|w| CompiledWindow {
                scope: w.scope,
                start: Ts((w.start_frac * span) as u64),
                end: Ts((w.end_frac * span) as u64),
                scale: 1.0 / w.bandwidth_factor,
            })
            .collect();
        let identity = rank_mult.iter().all(|&m| m == 1.0) && windows.is_empty();
        RunScenario {
            rank_mult,
            windows,
            identity,
        }
    }

    /// The replica's effective per-iteration seconds, folding the
    /// failure arithmetic over the engine-simulated `faulted_s` (this
    /// replica's stragglers/degradations included).
    /// `survivor_s` is the simulated per-iteration seconds of the
    /// elastic survivor configuration, already rescaled to conserve
    /// global batch; `None` when no survivor exists (dp = 1, or the
    /// survivor failed to lower), which downgrades elastic recovery
    /// to checkpoint restart.
    pub fn effective_iteration_s(&self, faulted_s: f64, survivor_s: Option<f64>) -> f64 {
        match &self.failure {
            None => faulted_s,
            Some(f) => match (f.elastic, survivor_s) {
                (true, Some(surv)) => f.recovery.elastic_iteration_s(faulted_s, surv, f.frac),
                _ => faulted_s + f.recovery.checkpoint_restart_penalty_s(faulted_s, f.frac),
            },
        }
    }

    /// `true` when the replica needs the elastic survivor
    /// configuration simulated.
    pub fn wants_survivor(&self) -> bool {
        self.failure.as_ref().is_some_and(|f| f.elastic)
    }
}

/// One resolved degradation window, in absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CompiledWindow {
    scope: Option<ScopeClass>,
    start: Ts,
    end: Ts,
    scale: f64,
}

/// The compiled per-run form of a [`Realization`]: what the engine
/// consults on its hot path. Dense per-rank multipliers (one index,
/// no hash) and a short window list checked only when a collective
/// resolves.
#[derive(Debug, Clone, PartialEq)]
pub struct RunScenario {
    /// Per-rank duration multiplier on compute kernels and host ops.
    rank_mult: Vec<f64>,
    /// Degradation windows in absolute time.
    windows: Vec<CompiledWindow>,
    /// `true` when every multiplier is 1 and no window exists.
    identity: bool,
}

impl RunScenario {
    /// A scenario that changes nothing (used by tests and as the
    /// explicit no-fault baseline).
    pub fn identity(world: u32) -> Self {
        RunScenario {
            rank_mult: vec![1.0; world.max(1) as usize],
            windows: Vec::new(),
            identity: true,
        }
    }

    /// `true` when the scenario cannot change any duration.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Straggler multiplier of `rank` (1.0 when unafflicted).
    pub(crate) fn rank_multiplier(&self, rank: u32) -> f64 {
        self.rank_mult.get(rank as usize).copied().unwrap_or(1.0)
    }

    /// Duration multiplier for a collective on `group` starting at
    /// `start`: the product of every matching window's slowdown (a
    /// group hit by two overlapping windows is degraded by both).
    pub(crate) fn comm_multiplier(&self, group: u64, start: Ts) -> f64 {
        let mut m = 1.0;
        if self.windows.is_empty() {
            return m;
        }
        let class = ScopeClass::of_group(group);
        for w in &self.windows {
            let in_scope = match w.scope {
                None => true,
                Some(s) => class == Some(s),
            };
            if in_scope && start >= w.start && start < w.end {
                m *= w.scale;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
        version = 1

        # a slow node
        [[straggler]]
        probability = 0.5
        ranks = 2
        slowdown = 1.4

        [[degradation]]
        probability = 0.75
        scope = "dp"
        bandwidth_factor = 0.25
        start_frac = 0.1
        end_frac = 0.9

        [[failure]]
        probability = 0.2
        checkpoint_interval = 50
        restart_latency_s = 60.0
        elastic = true
        reshard_cost_s = 30.0
    "#;

    #[test]
    fn parses_full_spec() {
        let spec = FaultSpec::parse(FULL).unwrap();
        assert_eq!(spec.stragglers.len(), 1);
        assert_eq!(spec.degradations.len(), 1);
        assert_eq!(spec.failures.len(), 1);
        assert!(!spec.is_empty());
        let s = spec.stragglers[0];
        assert_eq!((s.probability, s.ranks, s.slowdown), (0.5, 2, 1.4));
        let d = spec.degradations[0];
        assert_eq!(d.scope, Some(ScopeClass::Dp));
        assert_eq!(d.bandwidth_factor, 0.25);
        let f = spec.failures[0];
        assert!(f.elastic);
        assert_eq!(f.recovery.checkpoint_interval_iters, 50);
        assert_eq!(f.recovery.reshard_cost_s, 30.0);
    }

    #[test]
    fn empty_and_version_only_specs_are_empty() {
        assert!(FaultSpec::parse("").unwrap().is_empty());
        assert!(FaultSpec::parse("version = 1\n").unwrap().is_empty());
        assert!(FaultSpec::parse("# nothing\n\n").unwrap().is_empty());
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let err = FaultSpec::parse("version = 2").unwrap_err();
        assert_eq!((err.line, err.key.as_deref()), (1, Some("version")));
        assert!(err.to_string().contains("`version`"));
    }

    // One test per malformed field, each asserting the error names
    // the offending key.
    #[test]
    fn malformed_probability_names_key() {
        let err = FaultSpec::parse("[[straggler]]\nprobability = 1.5\nslowdown = 2.0").unwrap_err();
        assert!(err.to_string().contains("`probability`"), "{err}");
        assert!(err.to_string().contains("[[straggler]] #1"), "{err}");
    }

    #[test]
    fn malformed_ranks_names_key() {
        let err = FaultSpec::parse("[[straggler]]\nranks = 0\nslowdown = 2.0").unwrap_err();
        assert!(err.to_string().contains("`ranks`"), "{err}");
    }

    #[test]
    fn malformed_slowdown_names_key() {
        let err = FaultSpec::parse("[[straggler]]\nslowdown = 0.5").unwrap_err();
        assert!(err.to_string().contains("`slowdown`"), "{err}");
        let missing = FaultSpec::parse("[[straggler]]\nranks = 1").unwrap_err();
        assert!(missing.to_string().contains("`slowdown`"), "{missing}");
        assert!(missing.to_string().contains("missing"), "{missing}");
    }

    #[test]
    fn malformed_scope_names_key() {
        let err = FaultSpec::parse("[[degradation]]\nscope = \"node\"\nbandwidth_factor = 0.5")
            .unwrap_err();
        assert!(err.to_string().contains("`scope`"), "{err}");
        assert!(err.to_string().contains("node"), "{err}");
    }

    #[test]
    fn malformed_bandwidth_factor_names_key() {
        let err = FaultSpec::parse("[[degradation]]\nbandwidth_factor = 0.0").unwrap_err();
        assert!(err.to_string().contains("`bandwidth_factor`"), "{err}");
        let missing = FaultSpec::parse("[[degradation]]\nscope = \"tp\"").unwrap_err();
        assert!(
            missing.to_string().contains("`bandwidth_factor`"),
            "{missing}"
        );
    }

    #[test]
    fn malformed_window_fracs_name_keys() {
        let err = FaultSpec::parse("[[degradation]]\nbandwidth_factor = 0.5\nstart_frac = -0.1")
            .unwrap_err();
        assert!(err.to_string().contains("`start_frac`"), "{err}");
        let err = FaultSpec::parse(
            "[[degradation]]\nbandwidth_factor = 0.5\nstart_frac = 0.5\nend_frac = 0.25",
        )
        .unwrap_err();
        assert!(err.to_string().contains("`end_frac`"), "{err}");
    }

    #[test]
    fn malformed_checkpoint_interval_names_key() {
        let err = FaultSpec::parse("[[failure]]\ncheckpoint_interval = 2.5").unwrap_err();
        assert!(err.to_string().contains("`checkpoint_interval`"), "{err}");
    }

    #[test]
    fn malformed_restart_latency_names_key() {
        let err = FaultSpec::parse("[[failure]]\nrestart_latency_s = -1").unwrap_err();
        assert!(err.to_string().contains("`restart_latency_s`"), "{err}");
    }

    #[test]
    fn malformed_reshard_cost_names_key() {
        let err = FaultSpec::parse("[[failure]]\nreshard_cost_s = -3").unwrap_err();
        assert!(err.to_string().contains("`reshard_cost_s`"), "{err}");
    }

    #[test]
    fn malformed_elastic_names_key() {
        let err = FaultSpec::parse("[[failure]]\nelastic = 1").unwrap_err();
        assert!(err.to_string().contains("`elastic`"), "{err}");
        assert!(err.to_string().contains("boolean"), "{err}");
    }

    #[test]
    fn unknown_key_and_table_are_named() {
        let err = FaultSpec::parse("[[straggler]]\nslowdown = 2.0\nspeed = 3").unwrap_err();
        assert!(err.to_string().contains("`speed`"), "{err}");
        let err = FaultSpec::parse("[[blackout]]\n").unwrap_err();
        assert!(err.to_string().contains("blackout"), "{err}");
        let err = FaultSpec::parse("faults = 3\n").unwrap_err();
        assert!(err.to_string().contains("`faults`"), "{err}");
    }

    #[test]
    fn syntax_errors_name_line() {
        let err = FaultSpec::parse("[[straggler]]\nslowdown : 2.0").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = FaultSpec::parse("[straggler]").unwrap_err();
        assert!(err.to_string().contains("[[name]]"), "{err}");
    }

    #[test]
    fn realization_is_deterministic_and_seed_sensitive() {
        let spec = FaultSpec::parse(FULL).unwrap();
        let a = spec.realize(2025, 3, 8);
        let b = spec.realize(2025, 3, 8);
        assert_eq!(a, b);
        // Different replicas (overwhelmingly) differ somewhere over a
        // span of draws.
        let differs = (0..64).any(|r| spec.realize(2025, r, 8) != spec.realize(7, r, 8));
        assert!(differs, "seed never changed any replica");
    }

    #[test]
    fn probabilities_gate_realization_rates() {
        let spec = FaultSpec::parse(FULL).unwrap();
        let n = 2000;
        let mut straggled = 0;
        let mut degraded = 0;
        let mut failed = 0;
        for r in 0..n {
            let real = spec.realize(42, r, 8);
            if !real.stragglers.is_empty() {
                straggled += 1;
            }
            if !real.windows.is_empty() {
                degraded += 1;
            }
            if real.failure.is_some() {
                failed += 1;
            }
        }
        let rate = |c: i32| c as f64 / n as f64;
        assert!((rate(straggled) - 0.5).abs() < 0.05, "{straggled}");
        assert!((rate(degraded) - 0.75).abs() < 0.05, "{degraded}");
        assert!((rate(failed) - 0.2).abs() < 0.05, "{failed}");
    }

    #[test]
    fn straggler_ranks_are_distinct_and_in_world() {
        let spec = FaultSpec::parse(
            "[[straggler]]\nranks = 4\nslowdown = 2.0\n[[straggler]]\nranks = 3\nslowdown = 1.5",
        )
        .unwrap();
        for r in 0..200 {
            let real = spec.realize(9, r, 8);
            let mut ranks: Vec<u32> = real.stragglers.iter().map(|&(r, _)| r).collect();
            assert!(ranks.iter().all(|&r| r < 8));
            let before = ranks.len();
            ranks.dedup();
            assert_eq!(ranks.len(), before, "duplicate straggler rank");
        }
        // A 1-rank world stacks instead of probing forever.
        let real = spec.realize(9, 0, 1);
        assert!(real.stragglers.len() <= 1);
    }

    #[test]
    fn compile_resolves_windows_and_multipliers() {
        let spec = FaultSpec::parse(
            "[[straggler]]\nranks = 1\nslowdown = 3.0\n\
             [[degradation]]\nscope = \"dp\"\nbandwidth_factor = 0.5\nstart_frac = 0.25\nend_frac = 0.75",
        )
        .unwrap();
        let real = spec.realize(1, 0, 4);
        assert_eq!(real.stragglers.len(), 1);
        assert_eq!(real.windows.len(), 1);
        let sc = real.compile(4, Dur(1000));
        assert!(!sc.is_identity());
        let straggler = real.stragglers[0].0;
        assert_eq!(sc.rank_multiplier(straggler), 3.0);
        assert_eq!(sc.rank_multiplier((straggler + 1) % 4), 1.0);
        // Window hits dp groups inside [250, 750) ns only.
        let dp_group = {
            use lumos_model::{CommScope, GroupRegistry, Parallelism};
            let p = Parallelism::new(1, 1, 4).unwrap();
            GroupRegistry::new(p).group_id(CommScope::Dp, p.coords(0))
        };
        assert_eq!(sc.comm_multiplier(dp_group, Ts(500)), 2.0);
        assert_eq!(sc.comm_multiplier(dp_group, Ts(100)), 1.0);
        assert_eq!(sc.comm_multiplier(dp_group, Ts(750)), 1.0);
        // Other scopes are untouched.
        let tp_group = {
            use lumos_model::{CommScope, GroupRegistry, Parallelism};
            let p = Parallelism::new(2, 1, 1).unwrap();
            GroupRegistry::new(p).group_id(CommScope::Tp, p.coords(0))
        };
        assert_eq!(sc.comm_multiplier(tp_group, Ts(500)), 1.0);
    }

    #[test]
    fn effective_iteration_folds_failure_arithmetic() {
        let recovery = RecoveryCosts {
            checkpoint_interval_iters: 10,
            restart_latency_s: 20.0,
            reshard_cost_s: 10.0,
        };
        let clean = Realization {
            replica: 0,
            stragglers: Vec::new(),
            windows: Vec::new(),
            failure: None,
        };
        assert_eq!(clean.effective_iteration_s(2.0, None), 2.0);
        assert!(clean.is_clean());
        let restart = Realization {
            failure: Some(FailureRealization {
                rank: 0,
                frac: 0.5,
                elastic: false,
                recovery,
            }),
            ..clean.clone()
        };
        // 2.0 + (2.0·0.5 + 20/10) = 5.0
        assert!((restart.effective_iteration_s(2.0, None) - 5.0).abs() < 1e-12);
        let elastic = Realization {
            failure: Some(FailureRealization {
                rank: 0,
                frac: 0.5,
                elastic: true,
                recovery,
            }),
            ..clean.clone()
        };
        assert!(elastic.wants_survivor());
        // 0.5·2 + 0.5·3 + 30/10 = 5.5
        assert!((elastic.effective_iteration_s(2.0, Some(3.0)) - 5.5).abs() < 1e-12);
        // No survivor available: degrade to checkpoint restart.
        assert!((elastic.effective_iteration_s(2.0, None) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn identity_scenario_changes_nothing() {
        let sc = RunScenario::identity(4);
        assert!(sc.is_identity());
        assert_eq!(sc.rank_multiplier(2), 1.0);
        assert_eq!(sc.comm_multiplier(123, Ts(0)), 1.0);
        let empty = FaultSpec::default().realize(1, 0, 4);
        assert!(empty.is_clean());
        assert!(empty.compile(4, Dur(1000)).is_identity());
    }
}
