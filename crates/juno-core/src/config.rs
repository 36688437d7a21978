//! Engine configuration.
//!
//! The paper exposes three operating points (Section 6.1): JUNO-H computes
//! exact hit distances from `t_hit` (highest quality), JUNO-M uses the
//! finer-grained dual-sphere hit-count approximation and JUNO-L uses plain
//! hit counting (highest throughput). On top of the mode the user can scale
//! the dynamic threshold (Section 4.1, Fig. 7(b)) to trade recall for QPS.

pub use crate::threshold::ThresholdStrategy;
use juno_common::error::{Error, Result};
use juno_common::metric::Metric;
use juno_gpu::device::GpuDevice;
use juno_gpu::pipeline::ExecutionMode;

/// The quality/throughput operating mode (paper Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QualityMode {
    /// JUNO-L: hit-count-only selection; highest throughput, recall typically
    /// capped around 0.95 on L2 datasets.
    Low,
    /// JUNO-M: reward/penalty hit counting with an extra inner sphere at half
    /// the radius; medium quality.
    Medium,
    /// JUNO-H: exact hit-distance calculation from `t_hit`; highest quality.
    #[default]
    High,
}

impl QualityMode {
    /// Short label used in reports (`JUNO-L` / `JUNO-M` / `JUNO-H`).
    pub fn label(self) -> &'static str {
        match self {
            QualityMode::Low => "JUNO-L",
            QualityMode::Medium => "JUNO-M",
            QualityMode::High => "JUNO-H",
        }
    }
}

impl std::fmt::Display for QualityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Full configuration of a [`crate::engine::JunoIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct JunoConfig {
    /// Number of coarse IVF clusters (`C`).
    pub n_clusters: usize,
    /// Number of clusters probed per query (`nprobs`).
    pub nprobs: usize,
    /// Number of PQ subspaces (`D/M`). The paper always uses `M = 2` so that
    /// every subspace maps to the RT core's 2-D plane.
    pub pq_subspaces: usize,
    /// Codebook entries per subspace (`E`).
    pub pq_entries: usize,
    /// The metric (L2 or inner product).
    pub metric: Metric,
    /// Operating mode (JUNO-L/M/H).
    pub quality: QualityMode,
    /// Threshold determination strategy (dynamic regression vs. static).
    pub threshold_strategy: ThresholdStrategy,
    /// User-facing threshold scaling factor (paper Fig. 7(b)): 1.0 keeps the
    /// regressed threshold, smaller values trade recall for throughput.
    pub threshold_scale: f32,
    /// Penalty (in units of the subspace threshold squared) applied per
    /// subspace in which a candidate point's entry was not selected.
    pub miss_penalty_factor: f32,
    /// How the two online stages are scheduled on the simulated GPU.
    pub execution_mode: ExecutionMode,
    /// The simulated device.
    pub device: GpuDevice,
    /// Query batch size used when amortising kernel/ray-launch overheads.
    pub batch_size: usize,
    /// Training seed.
    pub seed: u64,
    /// Number of training samples per subspace for the threshold regressor.
    pub threshold_train_samples: usize,
    /// The `k` (top-k) the threshold regressor is calibrated to contain
    /// (the paper uses the top-100 search points).
    pub threshold_target_k: usize,
    /// Retain raw vectors alongside the codes (one dense `f32` row per id
    /// ever allocated, tombstoned ids included). Costs `4·dim` bytes per
    /// point but lets `JunoIndex::rebuild_for_live` retrain
    /// codebooks from exact data instead of PQ reconstructions — the
    /// lifecycle plane's background refresh wants this on.
    pub retain_vectors: bool,
}

impl Default for JunoConfig {
    fn default() -> Self {
        Self {
            n_clusters: 64,
            nprobs: 8,
            pq_subspaces: 48,
            pq_entries: 256,
            metric: Metric::L2,
            quality: QualityMode::High,
            threshold_strategy: ThresholdStrategy::Dynamic,
            threshold_scale: 1.0,
            miss_penalty_factor: 1.0,
            execution_mode: ExecutionMode::Pipelined,
            device: GpuDevice::rtx4090(),
            batch_size: 10_000,
            seed: 0x1040,
            threshold_train_samples: 256,
            threshold_target_k: 100,
            retain_vectors: false,
        }
    }
}

impl JunoConfig {
    /// A configuration sized for unit tests and examples: small cluster and
    /// codebook counts so that building takes milliseconds. The subspace
    /// count is derived from `dim` because the RT mapping requires 2-D
    /// subspaces (`pq_subspaces = dim / 2`).
    pub fn small_test(dim: usize, metric: Metric) -> Self {
        Self {
            n_clusters: 16,
            nprobs: 4,
            pq_subspaces: (dim / 2).max(1),
            pq_entries: 32,
            metric,
            threshold_train_samples: 64,
            ..Self::default()
        }
    }

    /// Returns the configuration with raw-vector retention toggled (see
    /// [`JunoConfig::retain_vectors`]).
    pub fn with_retained_vectors(mut self, retain: bool) -> Self {
        self.retain_vectors = retain;
        self
    }

    /// Validates the configuration against a dataset dimension.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when any parameter is degenerate or
    /// `dim` is not divisible by the subspace count.
    pub(crate) fn validate(&self, dim: usize) -> Result<()> {
        if self.n_clusters == 0 {
            return Err(Error::invalid_config("n_clusters must be positive"));
        }
        if self.nprobs == 0 {
            return Err(Error::invalid_config("nprobs must be positive"));
        }
        if self.pq_subspaces == 0 || self.pq_entries == 0 {
            return Err(Error::invalid_config("PQ parameters must be positive"));
        }
        if !dim.is_multiple_of(self.pq_subspaces) {
            return Err(Error::invalid_config(format!(
                "dimension {dim} is not divisible by pq_subspaces {}",
                self.pq_subspaces
            )));
        }
        if !(0.0..=1.0).contains(&self.threshold_scale) || self.threshold_scale <= 0.0 {
            return Err(Error::invalid_config("threshold_scale must be in (0, 1]"));
        }
        if self.threshold_target_k == 0 {
            return Err(Error::invalid_config("threshold_target_k must be positive"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_modes_cover_disjoint_recall_bands() {
        assert_eq!(QualityMode::Low.label(), "JUNO-L");
        assert_eq!(format!("{}", QualityMode::High), "JUNO-H");
        assert_eq!(QualityMode::default(), QualityMode::High);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let good = JunoConfig::small_test(96, Metric::L2);
        assert!(good.validate(96).is_ok());
        assert!(good.validate(97).is_err());
        assert!(JunoConfig {
            n_clusters: 0,
            ..good.clone()
        }
        .validate(96)
        .is_err());
        assert!(JunoConfig {
            nprobs: 0,
            ..good.clone()
        }
        .validate(96)
        .is_err());
        assert!(JunoConfig {
            threshold_scale: 0.0,
            ..good.clone()
        }
        .validate(96)
        .is_err());
        assert!(JunoConfig {
            threshold_scale: 1.5,
            ..good.clone()
        }
        .validate(96)
        .is_err());
        assert!(JunoConfig {
            threshold_target_k: 0,
            ..good
        }
        .validate(96)
        .is_err());
    }

    #[test]
    fn presets_have_expected_shape() {
        let small = JunoConfig::small_test(200, Metric::InnerProduct);
        assert_eq!(small.metric, Metric::InnerProduct);
        assert_eq!(small.pq_subspaces, 100);
        assert!(small.validate(200).is_ok());
    }
}
