//! Running an index over a query batch and summarising quality/throughput.

use juno_common::error::Result;
use juno_common::index::{AnnIndex, SearchStats};
use juno_common::recall::{recall_at, GroundTruth};
use juno_common::vector::VectorSet;

/// Neighbours retrieved per query, and the true neighbours the recall of a
/// sweep looks for among them (`R1@100`, `R100@100`).
pub const SWEEP_K: usize = 100;

/// Aggregated outcome of running one engine configuration over a query batch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepResult {
    /// `R1@100` search quality.
    pub r1_at_100: f64,
    /// `R100@100` search quality.
    pub r100_at_100: f64,
    /// Mean simulated per-query latency in microseconds.
    pub mean_us: f64,
    /// Simulated queries per second (1e6 / mean_us).
    pub qps: f64,
    /// Measured host queries per second (`queries / wall seconds` of the
    /// whole batch, all worker threads included).
    pub host_qps: f64,
    /// Mean simulated per-query coarse-filter time in microseconds.
    pub filter_us: f64,
    /// Mean simulated per-query LUT-construction time in microseconds.
    pub lut_us: f64,
    /// Mean simulated per-query distance-accumulation time in microseconds.
    pub accumulate_us: f64,
}

/// Runs `index` over `queries`, retrieving [`SWEEP_K`] neighbours per query,
/// and evaluates their recall against `ground_truth` (which must hold at
/// least [`SWEEP_K`] neighbours per query). The queries go through
/// [`AnnIndex::search_batch`] on every worker thread (`JUNO_NUM_THREADS`), so
/// engines with a parallel batch pipeline are measured under batch traffic
/// rather than a sequential loop; each result's simulated stage times come
/// from [`AnnIndex::simulate`] afterwards, outside the timed batch.
///
/// # Errors
///
/// Propagates per-query search errors and recall computation errors.
pub fn run_sweep(
    index: &dyn AnnIndex,
    queries: &VectorSet,
    ground_truth: &GroundTruth,
) -> Result<SweepResult> {
    let started = std::time::Instant::now();
    let results = index.search_batch(queries, SWEEP_K)?;
    let wall_us = started.elapsed().as_secs_f64() * 1e6;
    let mut retrieved = Vec::with_capacity(queries.len());
    let mut total_us = 0.0;
    let mut stats = SearchStats::default();
    for (query, res) in queries.iter().zip(&results) {
        let res = index.simulate(query, res)?;
        total_us += res.simulated_us;
        stats.merge(&res.stats);
        retrieved.push(res.ids());
    }
    let n = queries.len().max(1) as f64;
    let mean_us = total_us / n;
    Ok(SweepResult {
        r1_at_100: recall_at(&retrieved, ground_truth, 1, SWEEP_K)?,
        r100_at_100: recall_at(&retrieved, ground_truth, SWEEP_K, SWEEP_K)?,
        mean_us,
        qps: if mean_us > 0.0 { 1e6 / mean_us } else { 0.0 },
        host_qps: if wall_us > 0.0 {
            queries.len() as f64 * 1e6 / wall_us
        } else {
            0.0
        },
        filter_us: stats.filter_us / n,
        lut_us: stats.lut_us / n,
        accumulate_us: stats.accumulate_us / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_baseline::flat::FlatIndex;
    use juno_data::profiles::DatasetProfile;

    #[test]
    fn sweep_of_exact_index_has_perfect_recall() {
        let ds = DatasetProfile::DeepLike.generate(600, 8, 12).unwrap();
        let gt = ds.ground_truth(SWEEP_K).unwrap();
        let index = FlatIndex::new(ds.points.clone(), ds.metric()).unwrap();
        let result = run_sweep(&index, &ds.queries, &gt).unwrap();
        assert!((result.r100_at_100 - 1.0).abs() < 1e-12);
        assert!((result.r1_at_100 - 1.0).abs() < 1e-12);
        assert!(result.qps > 0.0);
        assert!(result.mean_us > 0.0);
    }
}
