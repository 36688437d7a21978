//! GPU device descriptors.
//!
//! The paper evaluates on three GPUs (Section 6.1): RTX 4090 (16384 CUDA
//! cores / 128 RT cores, Ada), A40 (10752 / 84, Ampere) and A100 (6912 / 0,
//! Ampere data-centre part without RT cores). The per-SM CUDA/Tensor
//! throughput of the 4090 is ~1.4× that of the A40 (Section 6.4), which the
//! default figures below encode.

use juno_rt::hardware::RtCoreModel;

/// An analytic description of one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuDevice {
    /// Marketing name, used in reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Number of CUDA (FP32) cores.
    pub cuda_cores: usize,
    /// Peak FP32 throughput in GFLOP/s.
    pub fp32_gflops: f64,
    /// Peak Tensor-core throughput (FP16/TF32 accumulate) in GFLOP/s.
    pub tensor_gflops: f64,
    /// DRAM bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// RT-core model (generation, count, throughput).
    pub rt: RtCoreModel,
}

impl GpuDevice {
    /// NVIDIA GeForce RTX 4090 (Ada): 128 SMs, 16384 CUDA cores, 128 Gen-3 RT
    /// cores.
    pub fn rtx4090() -> Self {
        Self {
            name: "RTX 4090".to_string(),
            sm_count: 128,
            cuda_cores: 16_384,
            fp32_gflops: 82_600.0,
            tensor_gflops: 330_000.0,
            mem_bandwidth_gbs: 1_008.0,
            launch_overhead_us: 5.0,
            rt: RtCoreModel::ada(128),
        }
    }

    /// NVIDIA A40 (Ampere): 84 SMs, 10752 CUDA cores, 84 Gen-2 RT cores.
    pub fn a40() -> Self {
        Self {
            name: "A40".to_string(),
            sm_count: 84,
            cuda_cores: 10_752,
            fp32_gflops: 37_400.0,
            tensor_gflops: 149_700.0,
            mem_bandwidth_gbs: 696.0,
            launch_overhead_us: 5.0,
            rt: RtCoreModel::ampere(84),
        }
    }

    /// NVIDIA A100 (Ampere data-centre): 108 SMs, 6912 CUDA cores, **no** RT
    /// cores — OptiX falls back to a software traversal on CUDA cores.
    pub fn a100() -> Self {
        Self {
            name: "A100".to_string(),
            sm_count: 108,
            cuda_cores: 6_912,
            fp32_gflops: 19_500.0,
            tensor_gflops: 156_000.0,
            mem_bandwidth_gbs: 1_555.0,
            launch_overhead_us: 5.0,
            rt: RtCoreModel::cuda_fallback(108),
        }
    }

    /// Scales the compute resources of the device by a fraction in `(0, 1]`,
    /// modelling a CUDA MPS partition that only sees that share of the SMs.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub(crate) fn partition(&self, fraction: f64) -> GpuDevice {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "partition fraction must be in (0, 1]"
        );
        let mut scaled = self.clone();
        scaled.name = format!("{} ({}% SMs)", self.name, (fraction * 100.0).round());
        scaled.sm_count = ((self.sm_count as f64 * fraction).round() as usize).max(1);
        scaled.cuda_cores = ((self.cuda_cores as f64 * fraction).round() as usize).max(1);
        scaled.fp32_gflops = self.fp32_gflops * fraction;
        scaled.tensor_gflops = self.tensor_gflops * fraction;
        // Memory bandwidth is shared, not partitioned, by MPS; keep it.
        scaled.rt = RtCoreModel {
            core_count: ((self.rt.core_count as f64 * fraction).round() as usize).max(1),
            ..self.rt
        };
        scaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_core_counts() {
        let rtx = GpuDevice::rtx4090();
        let a40 = GpuDevice::a40();
        let a100 = GpuDevice::a100();
        assert_eq!(rtx.cuda_cores, 16_384);
        assert_eq!(rtx.rt.core_count, 128);
        assert_eq!(a40.cuda_cores, 10_752);
        assert_eq!(a40.rt.core_count, 84);
        assert_eq!(a100.cuda_cores, 6_912);
        assert!(!a100.rt.generation.has_hardware());
        assert!(rtx.rt.generation.has_hardware());
        assert!(a40.rt.generation.has_hardware());
    }

    #[test]
    fn rtx4090_per_sm_is_about_1_4x_a40() {
        let per_sm = |d: GpuDevice| d.fp32_gflops / d.sm_count as f64;
        let ratio = per_sm(GpuDevice::rtx4090()) / per_sm(GpuDevice::a40());
        assert!((1.2..=1.6).contains(&ratio), "per-SM ratio {ratio}");
    }

    #[test]
    fn partition_scales_compute_not_bandwidth() {
        let full = GpuDevice::rtx4090();
        let part = full.partition(0.1);
        assert!(part.sm_count >= 12 && part.sm_count <= 13);
        assert!((part.fp32_gflops - full.fp32_gflops * 0.1).abs() < 1e-6);
        assert_eq!(part.mem_bandwidth_gbs, full.mem_bandwidth_gbs);
        assert!(part.rt.core_count < full.rt.core_count);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn partition_rejects_zero() {
        let _ = GpuDevice::a40().partition(0.0);
    }
}
