//! Per-query simulated GPU timing for the JUNO engine.
//!
//! The engine's online path has three stages: filtering (CUDA/Tensor cores),
//! selective L2-LUT construction (RT cores) and distance accumulation
//! (Tensor cores when pipelined, CUDA cores otherwise). This module converts
//! the work counters of one query into per-stage microseconds on a simulated
//! device, amortising launch overheads over the configured batch size, and
//! combines the two overlappable stages according to the execution mode
//! (Section 5.3).

use juno_gpu::cost::{distance_calc_cost, filtering_cost, tensor_accumulation_cost};
use juno_gpu::device::GpuDevice;
use juno_gpu::pipeline::{ExecutionMode, PipelineModel, StageTimes};
use juno_rt::stats::TraversalStats;

/// The work performed by one query, as counted by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct QueryWork {
    /// Number of coarse clusters compared during filtering.
    pub clusters: usize,
    /// Full vector dimension.
    pub dim: usize,
    /// RT traversal work of the selective LUT construction.
    pub rt: TraversalStats,
    /// Number of candidate points whose distance was accumulated.
    pub candidates: usize,
    /// Number of subspaces accumulated per candidate.
    pub subspaces: usize,
}

/// Per-stage simulated times of one query, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct StageBreakdown {
    /// Filtering time.
    pub filter_us: f64,
    /// Selective L2-LUT construction time (RT cores).
    pub lut_us: f64,
    /// Distance accumulation time.
    pub accumulate_us: f64,
    /// End-to-end per-query time after applying the execution mode to the two
    /// overlappable stages.
    pub total_us: f64,
}

/// Simulator configuration for the engine.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuerySimulator {
    /// The simulated device.
    pub device: GpuDevice,
    /// Pipeline model (MPS partition, contention, overhead).
    pub pipeline: PipelineModel,
    /// How the LUT construction and accumulation stages are scheduled.
    pub mode: ExecutionMode,
    /// Query batch size used to amortise launch overheads.
    pub batch_size: usize,
}

impl QuerySimulator {
    /// Creates a simulator.
    pub(crate) fn new(device: GpuDevice, mode: ExecutionMode, batch_size: usize) -> Self {
        Self {
            device,
            pipeline: PipelineModel::default(),
            mode,
            batch_size: batch_size.max(1),
        }
    }

    /// Estimates the per-query stage breakdown for the given work.
    pub(crate) fn simulate(&self, work: &QueryWork) -> StageBreakdown {
        let q = self.batch_size as f64;

        // Filtering runs on the whole device regardless of mode.
        let filter_us =
            filtering_cost(self.batch_size, work.clusters, work.dim).estimate_us(&self.device) / q;

        // The LUT construction runs on the RT cores. Under the pipelined mode
        // the RT kernels only see the MPS share of the SMs.
        let (lut_device, acc_device) = match self.mode {
            ExecutionMode::Pipelined => (
                self.pipeline.partition.lut_device(&self.device),
                self.pipeline.partition.accumulate_device(&self.device),
            ),
            _ => (self.device.clone(), self.device.clone()),
        };
        let batch_rt = TraversalStats {
            rays: work.rt.rays * self.batch_size,
            aabb_tests: work.rt.aabb_tests * self.batch_size,
            primitive_tests: work.rt.primitive_tests * self.batch_size,
            hits: work.rt.hits * self.batch_size,
        };
        let lut_us = lut_device.rt.estimate_us(&batch_rt) / q;

        // Accumulation: Tensor-core GEMM when pipelined, CUDA kernel otherwise.
        let accumulate_us = match self.mode {
            ExecutionMode::Pipelined => {
                tensor_accumulation_cost(self.batch_size, work.candidates, work.subspaces)
                    .estimate_us(&acc_device)
                    / q
            }
            _ => {
                distance_calc_cost(self.batch_size, work.candidates, work.subspaces)
                    .estimate_us(&acc_device)
                    / q
            }
        };

        let stage_times = StageTimes::new(lut_us, accumulate_us);
        let total_us = filter_us + self.pipeline.batch_latency_us(self.mode, &stage_times);
        StageBreakdown {
            filter_us,
            lut_us,
            accumulate_us,
            total_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn typical_work() -> QueryWork {
        QueryWork {
            clusters: 1024,
            dim: 96,
            rt: TraversalStats {
                rays: 8 * 48,
                aabb_tests: 8 * 48 * 14,
                primitive_tests: 8 * 48 * 30,
                hits: 8 * 48 * 20,
            },
            candidates: 6_000,
            subspaces: 48,
        }
    }

    #[test]
    fn pipelined_beats_serial_and_naive() {
        let work = typical_work();
        let serial = QuerySimulator::new(GpuDevice::rtx4090(), ExecutionMode::Serial, 10_000)
            .simulate(&work);
        let naive = QuerySimulator::new(GpuDevice::rtx4090(), ExecutionMode::NaiveCorun, 10_000)
            .simulate(&work);
        let piped = QuerySimulator::new(GpuDevice::rtx4090(), ExecutionMode::Pipelined, 10_000)
            .simulate(&work);
        assert!(
            piped.total_us < serial.total_us,
            "pipelined {piped:?} vs serial {serial:?}"
        );
        assert!(piped.total_us < naive.total_us);
    }

    #[test]
    fn more_rt_work_means_more_lut_time() {
        let sim = QuerySimulator::new(GpuDevice::a40(), ExecutionMode::Serial, 10_000);
        let small = sim.simulate(&typical_work());
        let mut heavy = typical_work();
        heavy.rt.aabb_tests *= 10;
        heavy.rt.primitive_tests *= 10;
        heavy.rt.hits *= 10;
        let big = sim.simulate(&heavy);
        assert!(big.lut_us > small.lut_us * 3.0);
        assert!((big.filter_us - small.filter_us).abs() < 1e-9);
    }

    #[test]
    fn rt_capable_devices_build_lut_faster() {
        let work = typical_work();
        let on_4090 = QuerySimulator::new(GpuDevice::rtx4090(), ExecutionMode::Serial, 10_000)
            .simulate(&work);
        let on_a100 =
            QuerySimulator::new(GpuDevice::a100(), ExecutionMode::Serial, 10_000).simulate(&work);
        assert!(
            on_a100.lut_us > 2.0 * on_4090.lut_us,
            "A100 software traversal must be much slower: {} vs {}",
            on_a100.lut_us,
            on_4090.lut_us
        );
    }

    #[test]
    fn batch_amortisation_reduces_per_query_cost() {
        let work = typical_work();
        let small_batch =
            QuerySimulator::new(GpuDevice::rtx4090(), ExecutionMode::Serial, 10).simulate(&work);
        let large_batch = QuerySimulator::new(GpuDevice::rtx4090(), ExecutionMode::Serial, 10_000)
            .simulate(&work);
        assert!(large_batch.total_us < small_batch.total_us);
        // Zero batch size is clamped rather than dividing by zero.
        let clamped = QuerySimulator::new(GpuDevice::rtx4090(), ExecutionMode::Serial, 0);
        assert_eq!(clamped.batch_size, 1);
    }
}
