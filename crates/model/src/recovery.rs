//! Checkpoint-restart and elastic re-sharding cost parameters.
//!
//! At the scale the north-star targets, rank failures are routine:
//! training amortizes them with periodic checkpoints (losing at most
//! one interval of work) and, in elastic deployments, by re-sharding
//! onto the survivors instead of waiting for a replacement node. The
//! fault-aware scenario engine (`lumos_cluster::scenario`) prices
//! both recovery paths with the parameters here; they live in this
//! crate because they describe the *training setup* (how often it
//! checkpoints, what a restart costs), not any particular fault.
//!
//! All costs are plain seconds so the amortized per-iteration penalty
//! composes directly with simulated makespans:
//!
//! * checkpoint-restart: an interval of `I` iterations loses on
//!   average `f·I` iterations of work (`f` ∈ [0, 1) the failure point
//!   within the interval) plus one restart, amortized as
//!   `restart_latency_s / I` per iteration;
//! * elastic re-sharding: the surviving world re-lowers to the
//!   degraded configuration and additionally pays `reshard_cost_s`
//!   once (redistribute optimizer state + rebuild communicators).

use serde::Serialize;

/// Cost parameters of the checkpoint-restart / elastic-resharding
/// recovery model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RecoveryCosts {
    /// Iterations between checkpoints; a failure loses at most this
    /// much work. Must be ≥ 1.
    pub checkpoint_interval_iters: u32,
    /// Wall-clock seconds to detect the failure, reschedule, reload
    /// the last checkpoint, and rewarm (paid once per failure).
    pub restart_latency_s: f64,
    /// Additional seconds to re-shard onto a survivor configuration
    /// (elastic recovery only): optimizer-state redistribution plus
    /// communicator rebuild.
    pub reshard_cost_s: f64,
}

impl RecoveryCosts {
    /// Production-flavored defaults: checkpoint every 100 iterations,
    /// 120 s restart, 45 s re-shard.
    pub fn defaults() -> Self {
        RecoveryCosts {
            checkpoint_interval_iters: 100,
            restart_latency_s: 120.0,
            reshard_cost_s: 45.0,
        }
    }

    /// Amortized per-iteration extra seconds of a **non-elastic**
    /// failure at fraction `f` ∈ [0, 1) of a checkpoint interval, on
    /// top of a clean iteration of `iter_s` seconds: the lost work is
    /// re-run on the restored world, and the restart latency is
    /// spread over the interval.
    pub fn checkpoint_restart_penalty_s(&self, iter_s: f64, failure_frac: f64) -> f64 {
        let interval = self.checkpoint_interval_iters.max(1) as f64;
        iter_s * failure_frac + self.restart_latency_s / interval
    }

    /// Amortized per-iteration seconds of an **elastic** failure: the
    /// pre-failure fraction runs at the original speed, the rest of
    /// the interval at the survivor speed `survivor_iter_s`, and both
    /// one restart and one re-shard are spread over the interval.
    pub fn elastic_iteration_s(&self, iter_s: f64, survivor_iter_s: f64, failure_frac: f64) -> f64 {
        let interval = self.checkpoint_interval_iters.max(1) as f64;
        iter_s * failure_frac
            + survivor_iter_s * (1.0 - failure_frac)
            + (self.restart_latency_s + self.reshard_cost_s) / interval
    }
}

impl Default for RecoveryCosts {
    fn default() -> Self {
        RecoveryCosts::defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_restart_penalty_amortizes_restart() {
        let rc = RecoveryCosts {
            checkpoint_interval_iters: 10,
            restart_latency_s: 50.0,
            reshard_cost_s: 0.0,
        };
        // Fail at mid-interval: half an iteration of lost work + 5 s
        // of amortized restart.
        let p = rc.checkpoint_restart_penalty_s(2.0, 0.5);
        assert!((p - (1.0 + 5.0)).abs() < 1e-12);
        // Failing at the checkpoint itself loses no work.
        let p0 = rc.checkpoint_restart_penalty_s(2.0, 0.0);
        assert!((p0 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn elastic_blends_original_and_survivor_speed() {
        let rc = RecoveryCosts {
            checkpoint_interval_iters: 20,
            restart_latency_s: 40.0,
            reshard_cost_s: 20.0,
        };
        let s = rc.elastic_iteration_s(2.0, 3.0, 0.25);
        // 0.25·2 + 0.75·3 + 60/20 = 0.5 + 2.25 + 3.0
        assert!((s - 5.75).abs() < 1e-12);
    }

    #[test]
    fn zero_interval_is_clamped() {
        let rc = RecoveryCosts {
            checkpoint_interval_iters: 0,
            restart_latency_s: 10.0,
            reshard_cost_s: 0.0,
        };
        assert!(rc.checkpoint_restart_penalty_s(1.0, 0.0).is_finite());
    }
}
