//! Deterministic run-to-run variance for the ground-truth engine.
//!
//! Real training iterations vary: kernel durations drift with clock
//! and cache state, host dispatch jitters with OS scheduling, and
//! network transfers see congestion. The paper's 3.3% replay error is
//! measured against this reality — a profiled iteration is one sample
//! of a noisy process. This module reproduces that structure with
//! *deterministic* noise: every multiplier is derived by hashing
//! `(seed, iteration, site)`, so the same configuration always
//! produces the same "measured" run, independent of engine execution
//! order.

use rand::distributions::Distribution;
use rand::SeedableRng;
use rand_distr::LogNormal;

/// Coefficient-of-variation-parameterized log-normal noise.
///
/// Multipliers have mean 1.0, so jitter perturbs without biasing
/// means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterModel {
    /// Coefficient of variation of compute-kernel durations.
    pub kernel_cv: f64,
    /// Coefficient of variation of host-side op durations.
    pub host_cv: f64,
    /// Coefficient of variation of collective durations (congestion).
    pub comm_cv: f64,
    /// Coefficient of variation of a *correlated per-iteration drift*
    /// applied to every GPU duration of an iteration: clock/thermal
    /// state and fabric congestion epochs move whole iterations, which
    /// is why a profiled iteration differs from the measured mean by a
    /// few percent (the paper's replay-error floor) rather than the
    /// vanishing i.i.d. average.
    pub drift_cv: f64,
    /// Base seed; combined with the iteration index.
    pub seed: u64,
}

impl JitterModel {
    /// No noise at all — replays become exact. Used by unit tests and
    /// by Lumos's own simulator (which must be deterministic).
    pub fn none() -> Self {
        JitterModel {
            kernel_cv: 0.0,
            host_cv: 0.0,
            comm_cv: 0.0,
            drift_cv: 0.0,
            seed: 0,
        }
    }

    /// Production-like variance: ~2% kernels, ~8% host, ~5% comms,
    /// ~2.5% correlated per-iteration drift.
    pub fn realistic(seed: u64) -> Self {
        JitterModel {
            kernel_cv: 0.02,
            host_cv: 0.08,
            comm_cv: 0.05,
            drift_cv: 0.025,
            seed,
        }
    }

    /// Returns `true` when all components are disabled.
    pub fn is_none(&self) -> bool {
        self.kernel_cv == 0.0 && self.host_cv == 0.0 && self.comm_cv == 0.0 && self.drift_cv == 0.0
    }

    /// The correlated drift of one iteration (applied to every GPU
    /// duration in it).
    pub fn iteration_drift(&self, iteration: u64) -> f64 {
        self.multiplier(self.drift_cv, 0x6472, iteration, 0, 0)
    }

    /// Multiplier for a compute kernel, keyed by `(iteration, rank,
    /// site)` where `site` is a stable per-kernel identifier.
    pub fn kernel_multiplier(&self, iteration: u64, rank: u32, site: u64) -> f64 {
        self.multiplier(self.kernel_cv, 0x4b65, iteration, rank as u64, site)
            * self.iteration_drift(iteration)
    }

    /// Multiplier for a host op.
    pub fn host_multiplier(&self, iteration: u64, rank: u32, site: u64) -> f64 {
        self.multiplier(self.host_cv, 0x686f, iteration, rank as u64, site)
    }

    /// Multiplier for a collective instance — keyed by the
    /// communicator and sequence so that *all members observe the same
    /// perturbation* (a congested transfer is slow for everyone).
    pub fn comm_multiplier(&self, iteration: u64, group: u64, seq: u64) -> f64 {
        self.multiplier(self.comm_cv, 0x636f, iteration, group, seq)
            * self.iteration_drift(iteration)
    }

    fn multiplier(&self, cv: f64, tag: u64, a: u64, b: u64, c: u64) -> f64 {
        match lognormal_params(cv) {
            Some(params) => sample_site(self.seed, params, tag, a, b, c),
            None => 1.0,
        }
    }
}

/// Log-normal parameters `(mu, sigma)` with mean exactly 1 for a
/// coefficient of variation: `sigma^2 = ln(1 + cv^2)`, `mu =
/// -sigma^2/2`. `None` disables the component (multiplier 1). One
/// site, shared by the per-call path and [`JitterModel::compile`], so
/// the two can never drift apart.
fn lognormal_params(cv: f64) -> Option<(f64, f64)> {
    (cv > 0.0).then(|| {
        let sigma2 = (1.0 + cv * cv).ln();
        (-sigma2 / 2.0, sigma2.sqrt())
    })
}

/// Draws one site's multiplier: hash the `(seed, tag, a, b, c)` key,
/// seed a fresh deterministic RNG, sample the parameterized
/// log-normal. Shared by [`JitterModel::multiplier`] and
/// [`RunJitter::sample`].
fn sample_site(seed: u64, (mu, sigma): (f64, f64), tag: u64, a: u64, b: u64, c: u64) -> f64 {
    let key = mix(mix(mix(mix(seed, tag), a), b), c);
    let mut rng = rand::rngs::StdRng::seed_from_u64(key);
    let dist = LogNormal::new(mu, sigma).expect("valid lognormal");
    dist.sample(&mut rng)
}

impl Default for JitterModel {
    fn default() -> Self {
        JitterModel::none()
    }
}

/// The per-run compiled form of a [`JitterModel`]: distribution
/// parameters (`mu`, `sigma`) are derived once per component instead
/// of per multiplier call, and the correlated per-iteration drift —
/// which depends only on the iteration index — is sampled **once**
/// instead of once per GPU duration. Every multiplier it returns is
/// bit-identical to the uncompiled path (same hash keys, same
/// Box–Muller draws, same `f64` expressions), so compiled execution
/// produces byte-identical timelines; the engine compiles the model
/// at construction and the hot loop pays one hash + one sample per
/// jittered duration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunJitter {
    seed: u64,
    iteration: u64,
    /// `(mu, sigma)` per component; `None` disables it (multiplier 1).
    kernel: Option<(f64, f64)>,
    host: Option<(f64, f64)>,
    comm: Option<(f64, f64)>,
    /// This iteration's correlated drift (1.0 when disabled).
    drift: f64,
    /// `true` when every multiplier is exactly 1.0 — the engine skips
    /// sampling and scaling entirely.
    identity: bool,
}

impl JitterModel {
    /// Compiles the model for one iteration (see [`RunJitter`]).
    pub(crate) fn compile(&self, iteration: u64) -> RunJitter {
        let kernel = lognormal_params(self.kernel_cv);
        let host = lognormal_params(self.host_cv);
        let comm = lognormal_params(self.comm_cv);
        let drift = self.iteration_drift(iteration);
        RunJitter {
            seed: self.seed,
            iteration,
            kernel,
            host,
            comm,
            identity: kernel.is_none() && host.is_none() && comm.is_none() && drift == 1.0,
            drift,
        }
    }
}

impl RunJitter {
    /// `true` when every multiplier is exactly 1.0.
    pub(crate) fn is_identity(&self) -> bool {
        self.identity
    }

    fn sample(&self, params: Option<(f64, f64)>, tag: u64, b: u64, c: u64) -> f64 {
        match params {
            Some(p) => sample_site(self.seed, p, tag, self.iteration, b, c),
            None => 1.0,
        }
    }

    /// See [`JitterModel::kernel_multiplier`].
    pub(crate) fn kernel_multiplier(&self, rank: u32, site: u64) -> f64 {
        self.sample(self.kernel, 0x4b65, rank as u64, site) * self.drift
    }

    /// See [`JitterModel::host_multiplier`].
    pub(crate) fn host_multiplier(&self, rank: u32, site: u64) -> f64 {
        self.sample(self.host, 0x686f, rank as u64, site)
    }

    /// See [`JitterModel::comm_multiplier`].
    pub(crate) fn comm_multiplier(&self, group: u64, seq: u64) -> f64 {
        self.sample(self.comm, 0x636f, group, seq) * self.drift
    }
}

/// SplitMix64 finalizer — a well-mixed 64-bit hash step. Shared with
/// [`crate::scenario`], whose per-replica fault sampling uses the same
/// hash-the-`(seed, replica, site)` idiom.
pub(crate) fn mix(state: u64, value: u64) -> u64 {
    let mut z = state
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(value.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let j = JitterModel::none();
        assert!(j.is_none());
        assert_eq!(j.kernel_multiplier(0, 0, 0), 1.0);
        assert_eq!(j.comm_multiplier(5, 1, 2), 1.0);
    }

    #[test]
    fn deterministic_per_site() {
        let j = JitterModel::realistic(42);
        let a = j.kernel_multiplier(3, 7, 100);
        let b = j.kernel_multiplier(3, 7, 100);
        assert_eq!(a, b);
        // Different sites differ (with overwhelming probability).
        let c = j.kernel_multiplier(3, 7, 101);
        assert_ne!(a, c);
        // Different iterations differ.
        let d = j.kernel_multiplier(4, 7, 100);
        assert_ne!(a, d);
    }

    #[test]
    fn multipliers_positive_and_mean_near_one() {
        let j = JitterModel::realistic(7);
        let n = 4000;
        let mut sum = 0.0;
        for i in 0..n {
            let m = j.host_multiplier(0, 0, i);
            assert!(m > 0.0);
            sum += m;
        }
        let mean = sum / n as f64;
        assert!(
            (0.99..1.01).contains(&mean),
            "host multiplier mean {mean} drifted from 1.0"
        );
    }

    #[test]
    fn comm_multiplier_shared_across_members() {
        // Keyed only by (iteration, group, seq) — no rank input, so
        // members necessarily agree.
        let j = JitterModel::realistic(9);
        assert_eq!(j.comm_multiplier(1, 10, 3), j.comm_multiplier(1, 10, 3));
    }

    #[test]
    fn compiled_form_is_bit_identical() {
        // The engine's per-run compiled jitter must reproduce the
        // uncompiled multipliers exactly — same hash keys, same
        // Box–Muller draws.
        for seed in [0u64, 7, 42] {
            let j = JitterModel::realistic(seed);
            for iteration in 0..3u64 {
                let c = j.compile(iteration);
                assert!(!c.is_identity());
                for site in 0..50u64 {
                    assert_eq!(
                        j.kernel_multiplier(iteration, 3, site).to_bits(),
                        c.kernel_multiplier(3, site).to_bits()
                    );
                    assert_eq!(
                        j.host_multiplier(iteration, 3, site).to_bits(),
                        c.host_multiplier(3, site).to_bits()
                    );
                    assert_eq!(
                        j.comm_multiplier(iteration, 9, site).to_bits(),
                        c.comm_multiplier(9, site).to_bits()
                    );
                }
            }
        }
        assert!(JitterModel::none().compile(5).is_identity());
        // A partial model (only drift) is not an identity.
        let drift_only = JitterModel {
            drift_cv: 0.02,
            ..JitterModel::none()
        };
        assert!(!drift_only.compile(0).is_identity());
        assert_eq!(
            drift_only.compile(1).kernel_multiplier(0, 0).to_bits(),
            drift_only.kernel_multiplier(1, 0, 0).to_bits()
        );
    }

    #[test]
    fn cv_controls_spread() {
        let tight = JitterModel {
            kernel_cv: 0.01,
            ..JitterModel::none()
        };
        let tight = JitterModel { seed: 1, ..tight };
        let wide = JitterModel {
            kernel_cv: 0.2,
            seed: 1,
            ..JitterModel::none()
        };
        let spread = |j: &JitterModel| {
            let mut var = 0.0;
            let n = 2000;
            for i in 0..n {
                let m = j.kernel_multiplier(0, 0, i);
                var += (m - 1.0) * (m - 1.0);
            }
            (var / n as f64).sqrt()
        };
        assert!(spread(&wide) > 5.0 * spread(&tight));
    }
}
