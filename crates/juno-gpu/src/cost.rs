//! Roofline-style kernel cost model.
//!
//! A GPU kernel is characterised by the floating-point work it performs and
//! the bytes it moves through DRAM; its latency on a device is the larger of
//! compute time and memory time (the "roofline"), plus a launch overhead.
//! This is deliberately simple — the breakdown figures of the paper
//! (Fig. 3(a), Fig. 11(a)) depend on how stage costs scale with `nprobs`, the
//! number of codebook entries and the number of candidate points, which the
//! model captures, not on absolute microseconds.

use crate::device::GpuDevice;

/// Which execution resource a kernel primarily occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Ordinary CUDA-core (FP32) kernel.
    Cuda,
    /// Tensor-core GEMM-style kernel.
    Tensor,
}

/// The resource usage of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Floating point operations performed.
    pub flops: f64,
    /// Bytes read from or written to DRAM.
    pub bytes: f64,
    /// Which core type executes the arithmetic.
    pub kind: KernelKind,
}

impl KernelCost {
    /// A CUDA-core kernel cost.
    pub(crate) fn cuda(flops: f64, bytes: f64) -> Self {
        Self {
            flops,
            bytes,
            kind: KernelKind::Cuda,
        }
    }

    /// A Tensor-core kernel cost.
    pub(crate) fn tensor(flops: f64, bytes: f64) -> Self {
        Self {
            flops,
            bytes,
            kind: KernelKind::Tensor,
        }
    }

    /// Estimated latency of this kernel on `device`, in microseconds.
    pub fn estimate_us(&self, device: &GpuDevice) -> f64 {
        let gflops = match self.kind {
            KernelKind::Cuda => device.fp32_gflops,
            KernelKind::Tensor => device.tensor_gflops,
        };
        // GFLOP/s = FLOP/ns, so flops / (gflops * 1e3) gives microseconds.
        let compute_us = self.flops / (gflops * 1e3).max(1e-9);
        let memory_us = self.bytes / (device.mem_bandwidth_gbs * 1e3).max(1e-9);
        device.launch_overhead_us + compute_us.max(memory_us)
    }
}

/// Cost of the IVFPQ **filtering** stage for a batch of queries: each query
/// computes `C` distances over `dim` components (paper stage A; its cost is
/// independent of `nprobs`, which Fig. 3(a) shows as the flat line).
pub fn filtering_cost(queries: usize, clusters: usize, dim: usize) -> KernelCost {
    let flops = queries as f64 * clusters as f64 * dim as f64 * 3.0; // sub, mul, add
    let bytes = (queries as f64 + clusters as f64) * dim as f64 * 4.0
        + queries as f64 * clusters as f64 * 4.0;
    KernelCost::cuda(flops, bytes)
}

/// Cost of the dense **L2-LUT construction** stage (paper stage C): for each
/// query and each of its `nprobs` clusters, `E` entries × `D/M` subspaces ×
/// `M` dimensions of pairwise distance work.
pub fn dense_lut_cost(
    queries: usize,
    nprobs: usize,
    entries: usize,
    subspaces: usize,
    sub_dim: usize,
) -> KernelCost {
    let pairwise = queries as f64 * nprobs as f64 * entries as f64 * subspaces as f64;
    let flops = pairwise * sub_dim as f64 * 3.0;
    let bytes = pairwise * 4.0 // write the LUT
        + queries as f64 * nprobs as f64 * subspaces as f64 * sub_dim as f64 * 4.0 // residuals
        + entries as f64 * subspaces as f64 * sub_dim as f64 * 4.0; // codebook (cached across queries)
    KernelCost::cuda(flops, bytes)
}

/// Cost of the **distance calculation** stage (paper stage D) on CUDA cores:
/// every candidate point needs `D/M` LUT lookups and additions.
pub fn distance_calc_cost(queries: usize, candidates: usize, subspaces: usize) -> KernelCost {
    let lookups = queries as f64 * candidates as f64 * subspaces as f64;
    let flops = lookups; // one add per lookup
    let bytes = lookups * 2.0 /* code byte + LUT float, amortised */ * 2.0
        + queries as f64 * candidates as f64 * 4.0; // result write
    KernelCost::cuda(flops, bytes)
}

/// Cost of the same accumulation mapped onto Tensor cores as a ones-vector
/// GEMM (paper Section 5.3): `A[M,K] × B[K,1]`, where `M` is the number of
/// selected points (padded) and `K = D/M` subspaces.
pub fn tensor_accumulation_cost(queries: usize, candidates: usize, subspaces: usize) -> KernelCost {
    let flops = queries as f64 * candidates as f64 * subspaces as f64 * 2.0;
    let bytes = queries as f64 * candidates as f64 * subspaces as f64 * 2.0 // A in fp16
        + queries as f64 * candidates as f64 * 4.0; // C output
    KernelCost::tensor(flops, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_takes_max_of_compute_and_memory() {
        let dev = GpuDevice::a40();
        // Compute-bound kernel: high intensity.
        let compute = KernelCost::cuda(1e12, 1e6);
        // Memory-bound kernel: same bytes as a big transfer, negligible flops.
        let memory = KernelCost::cuda(1e6, 1e12);
        let c_us = compute.estimate_us(&dev);
        let m_us = memory.estimate_us(&dev);
        assert!(c_us > 1e4, "compute-bound kernel should take a while");
        assert!(
            m_us > 1e5,
            "memory-bound kernel should be bandwidth limited"
        );
        // Tensor kernels with the same flops are faster than CUDA kernels.
        let t = KernelCost::tensor(1e12, 1e6).estimate_us(&dev);
        assert!(t < c_us);
    }

    #[test]
    fn filtering_cost_is_independent_of_nprobs() {
        // The filtering stage only depends on Q, C and D.
        let a = filtering_cost(100, 4096, 96);
        let b = filtering_cost(100, 4096, 96);
        assert_eq!(a.flops, b.flops);
        assert!(a.flops > 0.0);
    }

    #[test]
    fn lut_and_distance_costs_scale_linearly_with_nprobs() {
        let lut1 = dense_lut_cost(100, 8, 256, 48, 2);
        let lut2 = dense_lut_cost(100, 16, 256, 48, 2);
        assert!((lut2.flops / lut1.flops - 2.0).abs() < 1e-9);
        let d1 = distance_calc_cost(100, 10_000, 48);
        let d2 = distance_calc_cost(100, 20_000, 48);
        assert!((d2.flops / d1.flops - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lut_dominates_filtering_at_paper_scale() {
        // DEEP1M configuration: C = 4096, D = 96, PQ48, E = 256, nprobs = 64.
        let dev = GpuDevice::rtx4090();
        let filter = filtering_cost(10_000, 4096, 96).estimate_us(&dev);
        let lut = dense_lut_cost(10_000, 64, 256, 48, 2).estimate_us(&dev);
        let dist = distance_calc_cost(10_000, 15_000, 48).estimate_us(&dev);
        // Fig. 3(a): LUT construction + distance calculation are ~90-99.9 % of
        // the query time.
        assert!(
            lut + dist > 5.0 * filter,
            "lut {lut} dist {dist} filter {filter}"
        );
    }

    #[test]
    fn tensor_accumulation_is_cheaper_than_cuda() {
        let dev = GpuDevice::a40();
        let cuda = distance_calc_cost(1_000, 50_000, 48).estimate_us(&dev);
        let tensor = tensor_accumulation_cost(1_000, 50_000, 48).estimate_us(&dev);
        assert!(tensor < cuda, "tensor {tensor} should beat cuda {cuda}");
    }
}
