//! Simulated GPU stage timing shared by the baseline indexes.
//!
//! The baselines run their actual search logic on the CPU (so recall numbers
//! are real), while their *reported* latency is the analytic GPU time of the
//! work they performed, using the `juno-gpu` cost model. Launch overheads are
//! amortised over a configurable query batch, mirroring how the paper
//! measures throughput over batches of 10 000 queries.

use juno_common::index::SearchStats;
use juno_gpu::cost::{dense_lut_cost, distance_calc_cost, filtering_cost};
use juno_gpu::device::GpuDevice;

/// Parameters describing how simulated times are derived.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// The device the (virtual) search runs on.
    pub device: GpuDevice,
    /// Number of queries a batch is assumed to contain when amortising kernel
    /// launch overheads.
    pub batch_size: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            device: GpuDevice::rtx4090(),
            batch_size: 10_000,
        }
    }
}

impl SimulationConfig {
    /// Creates a simulation config for a specific device.
    pub fn on_device(device: GpuDevice) -> Self {
        Self {
            device,
            ..Self::default()
        }
    }

    /// Fills the per-stage simulated times of an IVFPQ-style query given its
    /// work description, returning the total per-query time in microseconds.
    ///
    /// * `clusters` / `dim` — filtering work (`C` distances of dimension `D`);
    /// * `lut_entries` — pairwise entry distances computed while building the
    ///   LUT (0 for engines that skip it);
    /// * `sub_dim` — dimension of each subspace;
    /// * `candidates` / `subspaces` — accumulation work.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fill_ivfpq_times(
        &self,
        stats: &mut SearchStats,
        clusters: usize,
        dim: usize,
        lut_entries: usize,
        sub_dim: usize,
        candidates: usize,
        subspaces: usize,
    ) -> f64 {
        let q = self.batch_size.max(1);
        let filter = filtering_cost(q, clusters, dim).estimate_us(&self.device) / q as f64;
        // `dense_lut_cost` expects the entry count per (query, cluster); we
        // already have the aggregate number of pairwise distances, so pass it
        // as a single-cluster single-subspace equivalent.
        let lut = if lut_entries == 0 {
            0.0
        } else {
            dense_lut_cost(q, 1, lut_entries, 1, sub_dim).estimate_us(&self.device) / q as f64
        };
        let accumulate =
            distance_calc_cost(q, candidates, subspaces).estimate_us(&self.device) / q as f64;
        stats.filter_us = filter;
        stats.lut_us = lut;
        stats.accumulate_us = accumulate;
        filter + lut + accumulate
    }

    /// Simulated per-query time of a brute-force scan over `n` points of
    /// dimension `dim`.
    pub(crate) fn flat_scan_us(&self, stats: &mut SearchStats, n: usize, dim: usize) -> f64 {
        let q = self.batch_size.max(1);
        let us = filtering_cost(q, n, dim).estimate_us(&self.device) / q as f64;
        stats.accumulate_us = us;
        us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_and_distance_dominate_at_paper_scale() {
        // DEEP1M-like config, nprobs = 64: the filtering stage must be a small
        // fraction of the total (Fig. 3(a)).
        let sim = SimulationConfig::default();
        let mut stats = SearchStats::default();
        let nprobs = 64usize;
        let total =
            sim.fill_ivfpq_times(&mut stats, 4096, 96, nprobs * 256 * 48, 2, nprobs * 250, 48);
        assert!(stats.filter_us < 0.12 * total, "filter share too high");
        assert!((stats.total_us() - total).abs() < 1e-9);
    }

    #[test]
    fn times_scale_with_nprobs() {
        let sim = SimulationConfig::default();
        let mut a = SearchStats::default();
        let mut b = SearchStats::default();
        let t8 = sim.fill_ivfpq_times(&mut a, 4096, 96, 8 * 256 * 48, 2, 8 * 250, 48);
        let t64 = sim.fill_ivfpq_times(&mut b, 4096, 96, 64 * 256 * 48, 2, 64 * 250, 48);
        assert!(t64 > 3.0 * t8, "t64 {t64} vs t8 {t8}");
        // Filtering stays constant.
        assert!((a.filter_us - b.filter_us).abs() < 1e-9);
    }

    #[test]
    fn flat_scan_time_scales_with_points() {
        let sim = SimulationConfig::default();
        let mut a = SearchStats::default();
        let mut b = SearchStats::default();
        let t1 = sim.flat_scan_us(&mut a, 100_000, 128);
        let t2 = sim.flat_scan_us(&mut b, 1_000_000, 128);
        assert!(t2 > 5.0 * t1);
    }

    #[test]
    fn device_choice_changes_latency() {
        let fast = SimulationConfig::on_device(GpuDevice::rtx4090());
        let slow = SimulationConfig::on_device(GpuDevice::a40());
        let mut s1 = SearchStats::default();
        let mut s2 = SearchStats::default();
        let f = fast.fill_ivfpq_times(&mut s1, 4096, 96, 64 * 256 * 48, 2, 16_000, 48);
        let s = slow.fill_ivfpq_times(&mut s2, 4096, 96, 64 * 256 * 48, 2, 16_000, 48);
        assert!(
            s > f,
            "A40 ({s}) should be slower than the 4090 ({f}): lower FLOP rate and bandwidth"
        );
    }
}
