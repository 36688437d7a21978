//! Two-stage heterogeneous-core execution model.
//!
//! The online part of JUNO has two dominant stages: L2-LUT construction (RT
//! cores) and distance calculation (CUDA or Tensor cores). The paper explores
//! three ways of running them (Section 5.3, Fig. 11(a)):
//!
//! 1. **Solo-run** — execute them back to back; the batch latency is the sum.
//! 2. **Naive co-run** — launch them concurrently with no resource
//!    management; resource contention makes both stages slower, and the
//!    long-latency CUDA-core accumulation dominates.
//! 3. **Pipelined** — map the accumulation to Tensor cores and partition the
//!    SMs 9:1 with MPS so successive query batches overlap; the steady-state
//!    cost per batch approaches the maximum of the two (now similar) stage
//!    latencies plus a small data-movement overhead.

use crate::mps::MpsPartition;

/// Per-batch latencies of the two overlappable stages, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimes {
    /// L2-LUT construction time (RT cores).
    pub lut_us: f64,
    /// Distance calculation / accumulation time (CUDA or Tensor cores).
    pub accumulate_us: f64,
}

impl StageTimes {
    /// Creates a stage-time pair.
    pub fn new(lut_us: f64, accumulate_us: f64) -> Self {
        Self {
            lut_us,
            accumulate_us,
        }
    }

    /// Serial (solo-run) latency: the sum of the two stages.
    pub(crate) fn serial_us(&self) -> f64 {
        self.lut_us + self.accumulate_us
    }
}

/// How the two stages are scheduled on the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Back-to-back execution; no overlap.
    Serial,
    /// Concurrent launch without MPS partitioning; both stages suffer
    /// contention.
    NaiveCorun,
    /// MPS-partitioned, Tensor-core accumulated pipeline (JUNO's choice).
    Pipelined,
}

/// The analytic pipeline model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineModel {
    /// SM partition used in pipelined mode.
    pub partition: MpsPartition,
    /// Multiplicative slowdown suffered by *each* stage under naive co-running
    /// (Fig. 11(a) shows both stages inflating well beyond their solo-run
    /// latency; ~1.6× each reproduces the reported shape).
    pub contention_factor: f64,
    /// Fractional overhead of the padding / data transformation JUNO applies
    /// to enable the pipeline (paper: "less than 5 % of the latency").
    pub pipeline_overhead: f64,
}

impl Default for PipelineModel {
    fn default() -> Self {
        Self {
            partition: MpsPartition::paper_default(),
            contention_factor: 1.6,
            pipeline_overhead: 0.05,
        }
    }
}

impl PipelineModel {
    /// Creates the default (paper-calibrated) model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Effective per-batch latency of the given stage times under a mode.
    ///
    /// For [`ExecutionMode::Pipelined`] the returned value is the
    /// steady-state cost per batch of a two-stage pipeline: the bottleneck
    /// stage latency plus the enablement overhead. The caller is responsible
    /// for providing stage times that already reflect the 9:1 partition (the
    /// JUNO engine computes them from the partitioned device views).
    pub fn batch_latency_us(&self, mode: ExecutionMode, times: &StageTimes) -> f64 {
        match mode {
            ExecutionMode::Serial => times.serial_us(),
            ExecutionMode::NaiveCorun => {
                // Both stages run concurrently but contend for SMs, memory and
                // scheduler slots: each inflates by the contention factor and
                // the batch finishes when the slower one does.
                (times.lut_us * self.contention_factor)
                    .max(times.accumulate_us * self.contention_factor)
            }
            ExecutionMode::Pipelined => {
                times.lut_us.max(times.accumulate_us) * (1.0 + self.pipeline_overhead)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_sum() {
        let t = StageTimes::new(100.0, 40.0);
        assert!((t.serial_us() - 140.0).abs() < 1e-12);
        let m = PipelineModel::new();
        assert!((m.batch_latency_us(ExecutionMode::Serial, &t) - 140.0).abs() < 1e-12);
    }

    #[test]
    fn naive_corun_is_worse_than_pipelined() {
        let m = PipelineModel::new();
        let t = StageTimes::new(100.0, 90.0);
        let naive = m.batch_latency_us(ExecutionMode::NaiveCorun, &t);
        let piped = m.batch_latency_us(ExecutionMode::Pipelined, &t);
        assert!(naive > piped, "naive {naive} must exceed pipelined {piped}");
        // Fig. 11(a): naive co-running can even exceed the solo-run total when
        // stages are balanced-ish and contention is high.
        assert!(naive > t.lut_us * 1.5);
    }

    #[test]
    fn pipelined_latency_is_bottleneck_plus_overhead() {
        let m = PipelineModel::new();
        let t = StageTimes::new(100.0, 60.0);
        let got = m.batch_latency_us(ExecutionMode::Pipelined, &t);
        assert!((got - 105.0).abs() < 1e-9);
    }

    #[test]
    fn balanced_stages_give_near_2x_pipelining_speedup() {
        let m = PipelineModel::new();
        let balanced = StageTimes::new(100.0, 100.0);
        let speedup = |t: &StageTimes| {
            m.batch_latency_us(ExecutionMode::Serial, t)
                / m.batch_latency_us(ExecutionMode::Pipelined, t)
        };
        let balanced_speedup = speedup(&balanced);
        assert!(
            balanced_speedup > 1.8 && balanced_speedup < 2.0,
            "speedup {balanced_speedup}"
        );
        // Unbalanced stages benefit less — the 44 % vs 50 % asymmetry in §6.3.
        let skewed = StageTimes::new(100.0, 20.0);
        assert!(speedup(&skewed) < balanced_speedup);
    }
}
