//! High-level ground-truth runs: profile an iteration, or run it
//! metrics-only.

use crate::engine::{EngineError, EngineOutput};
use crate::exec::PreparedJob;
use crate::jitter::JitterModel;
use crate::lower::{lower, LoweredJob, SimConfig};
use crate::sink::EngineMetrics;
use lumos_cost::{CostModel, HostOverheads};
use lumos_model::ModelError;
use lumos_trace::{ClusterTrace, Dur};
use std::error::Error;
use std::fmt;

/// Errors from ground-truth simulation.
#[derive(Debug)]
pub enum ClusterError {
    /// Invalid model / deployment configuration.
    Config(ModelError),
    /// The engine could not complete the job.
    Engine(EngineError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Config(e) => write!(f, "invalid configuration: {e}"),
            ClusterError::Engine(e) => write!(f, "engine failure: {e}"),
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Config(e) => Some(e),
            ClusterError::Engine(e) => Some(e),
        }
    }
}

impl From<ModelError> for ClusterError {
    fn from(e: ModelError) -> Self {
        ClusterError::Config(e)
    }
}

impl From<EngineError> for ClusterError {
    fn from(e: EngineError) -> Self {
        ClusterError::Engine(e)
    }
}

/// Iteration-time statistics from repeated measured runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredStats {
    /// Per-iteration makespans.
    pub iterations: Vec<Dur>,
}

impl MeasuredStats {
    /// Mean iteration time.
    pub fn mean(&self) -> Dur {
        if self.iterations.is_empty() {
            return Dur::ZERO;
        }
        let total: u128 = self.iterations.iter().map(|d| d.as_ns() as u128).sum();
        Dur((total / self.iterations.len() as u128) as u64)
    }

    /// Nearest-rank `q`-quantile iteration time (`q` clamped to
    /// `[0, 1]`; [`Dur::ZERO`] when no iterations were measured).
    pub fn percentile(&self, q: f64) -> Dur {
        if self.iterations.is_empty() {
            return Dur::ZERO;
        }
        let mut sorted = self.iterations.clone();
        sorted.sort_unstable();
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Nearest-rank 95th-percentile iteration time — the tail metric
    /// the jitter-robustness search pass reports.
    pub fn p95(&self) -> Dur {
        self.percentile(0.95)
    }
}

/// A configured ground-truth cluster: the production-fleet substitute.
///
/// Owns the lowered job so repeated iterations don't re-lower.
pub struct GroundTruthCluster<C> {
    job: LoweredJob,
    cost: C,
    jitter: JitterModel,
}

impl<C: CostModel> GroundTruthCluster<C> {
    /// Lowers `config` onto a cluster priced by `cost`.
    ///
    /// # Errors
    ///
    /// Returns configuration-validity errors.
    pub fn new(config: &SimConfig, cost: C) -> Result<Self, ClusterError> {
        Ok(GroundTruthCluster {
            job: lower(config)?,
            cost,
            jitter: JitterModel::none(),
        })
    }

    /// Sets the run-to-run variance model (builder style).
    pub fn with_jitter(mut self, jitter: JitterModel) -> Self {
        self.jitter = jitter;
        self
    }

    /// The lowered job (program + communicator membership).
    pub fn job(&self) -> &LoweredJob {
        &self.job
    }

    /// The configuration this cluster runs.
    pub fn config(&self) -> &SimConfig {
        &self.job.config
    }

    /// Executes iteration `iteration` and returns its full trace —
    /// "profiling one iteration with Kineto".
    ///
    /// # Errors
    ///
    /// Returns engine deadlock errors (lowering bugs).
    pub fn profile_iteration(&self, iteration: u64) -> Result<EngineOutput, ClusterError> {
        let prep = PreparedJob::new(&self.job)?;
        Ok(prep.execute(
            &self.cost,
            &HostOverheads::default(),
            &self.jitter,
            iteration,
        )?)
    }

    /// Executes iteration `iteration` in metrics-only mode: the same
    /// deterministic simulation as [`Self::profile_iteration`], but
    /// only aggregates are accumulated — no trace events exist.
    ///
    /// # Errors
    ///
    /// Returns engine deadlock errors (lowering bugs).
    pub fn metrics_iteration(&self, iteration: u64) -> Result<EngineMetrics, ClusterError> {
        let prep = PreparedJob::new(&self.job)?;
        Ok(prep.execute_metrics(
            &self.cost,
            &HostOverheads::default(),
            &self.jitter,
            iteration,
        )?)
    }
}

/// One-call convenience: profile a single iteration of `config` with
/// realistic jitter under the default H100 cost model.
///
/// # Errors
///
/// Returns configuration or engine errors.
pub fn profile(config: &SimConfig, seed: u64) -> Result<ClusterTrace, ClusterError> {
    let cluster = GroundTruthCluster::new(config, lumos_cost::AnalyticalCostModel::h100())?
        .with_jitter(JitterModel::realistic(seed));
    Ok(cluster.profile_iteration(0)?.trace)
}

/// One-call convenience: profile one inference request batch
/// (prefill + decode) with realistic jitter under the default H100
/// cost model.
///
/// # Errors
///
/// Returns configuration or engine errors.
pub fn profile_inference(
    setup: &lumos_model::InferenceSetup,
    seed: u64,
) -> Result<ClusterTrace, ClusterError> {
    let job = crate::inference::lower_inference(setup)?;
    let out = PreparedJob::new(&job)?.execute(
        &lumos_cost::AnalyticalCostModel::h100(),
        &HostOverheads::default(),
        &JitterModel::realistic(seed),
        0,
    )?;
    Ok(out.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_cost::AnalyticalCostModel;
    use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind};

    fn tiny() -> SimConfig {
        SimConfig {
            model: ModelConfig::tiny(),
            parallelism: Parallelism::new(1, 2, 1).unwrap(),
            batch: BatchConfig {
                seq_len: 128,
                microbatch_size: 1,
                num_microbatches: 4,
            },
            schedule: ScheduleKind::OneFOneB,
        }
    }

    fn makespans(cluster: &GroundTruthCluster<AnalyticalCostModel>, n: u64) -> MeasuredStats {
        let iterations = (0..n)
            .map(|i| cluster.metrics_iteration(i).unwrap().makespan)
            .collect();
        MeasuredStats { iterations }
    }

    #[test]
    fn realistic_jitter_varies_iterations_modestly() {
        let cluster = GroundTruthCluster::new(&tiny(), AnalyticalCostModel::h100())
            .unwrap()
            .with_jitter(JitterModel::realistic(3));
        let stats = makespans(&cluster, 5);
        assert_eq!(stats.iterations.len(), 5);
        assert!(stats.mean() > Dur::ZERO);
        // Sample standard deviation, rounded to whole nanoseconds.
        let mean = stats.mean().as_ns() as f64;
        let var = stats
            .iterations
            .iter()
            .map(|d| (d.as_ns() as f64 - mean).powi(2))
            .sum::<f64>()
            / (stats.iterations.len() - 1) as f64;
        let std_dev = Dur(var.sqrt().round() as u64);
        assert!(std_dev > Dur::ZERO);
        // CV should be modest for realistic jitter.
        let cv = std_dev.as_secs_f64() / stats.mean().as_secs_f64();
        assert!(cv < 0.15, "cv {cv}");
    }

    #[test]
    fn zero_jitter_measurements_identical() {
        let cluster = GroundTruthCluster::new(&tiny(), AnalyticalCostModel::h100()).unwrap();
        let stats = makespans(&cluster, 3);
        assert!(stats.iterations.iter().all(|&d| d == stats.iterations[0]));
    }

    #[test]
    fn profile_convenience() {
        let trace = profile(&tiny(), 7).unwrap();
        assert_eq!(trace.world_size(), 2);
        trace.validate().unwrap();
        assert!(trace.label.contains("tiny"));
    }

    #[test]
    fn invalid_config_surfaces_as_error() {
        let mut cfg = tiny();
        cfg.parallelism = Parallelism::new(3, 1, 1).unwrap(); // 4 heads % 3 != 0
        assert!(matches!(
            GroundTruthCluster::new(&cfg, AnalyticalCostModel::h100()),
            Err(ClusterError::Config(_))
        ));
    }

    #[test]
    fn empty_stats() {
        let s = MeasuredStats { iterations: vec![] };
        assert_eq!(s.mean(), Dur::ZERO);
        assert_eq!(s.p95(), Dur::ZERO);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = MeasuredStats {
            iterations: (1..=100).map(Dur).collect(),
        };
        assert_eq!(s.percentile(0.0), Dur(1));
        assert_eq!(s.percentile(0.5), Dur(50));
        assert_eq!(s.p95(), Dur(95));
        assert_eq!(s.percentile(1.0), Dur(100));
        // Out-of-range and NaN quantiles clamp instead of panicking.
        assert_eq!(s.percentile(-1.0), Dur(1));
        assert_eq!(s.percentile(2.0), Dur(100));
        assert_eq!(s.percentile(f64::NAN), Dur(100));
        let one = MeasuredStats {
            iterations: vec![Dur(7)],
        };
        assert_eq!(one.p95(), Dur(7));
    }
}
