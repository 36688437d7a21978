//! Search-quality metrics used in the paper's evaluation (Section 6.1).
//!
//! * **R1@100** — the fraction of queries whose 100 retrieved neighbours
//!   contain the single true nearest neighbour.
//! * **R100@1000** — the average fraction of each query's 100 true nearest
//!   neighbours contained in its 1000 retrieved neighbours.
//!
//! Both are implemented by the general [`recall_at`] helper; the named
//! wrappers exist so benchmark code reads like the paper.

use crate::error::{Error, Result};
use crate::kernel::l2_squared_rows;
use crate::metric::Metric;
use crate::parallel;
use crate::topk::TopK;
use crate::vector::VectorSet;

/// Queries per task of [`GroundTruth::brute_force`]: they share each block
/// of points while it is cache-resident (16 × 384 B of 96-d queries stay in
/// L1).
const TRUTH_TILE: usize = 16;

/// Bytes of points a [`GroundTruth::brute_force`] tile scores before it
/// moves on: half of a 2 MB per-core L2. On a 2-vCPU Xeon the tiling alone
/// took the 256 × 200k × 96-d ground truth from 2.0–2.2 s to 0.9–1.0 s (the
/// per-query loop re-streamed the 77 MB point set once per query) and left
/// 1000 × 20k (7.7 MB, cache-resident either way) at ≈ 0.4 s; scoring each
/// block through [`l2_squared_rows`] (four rows side by side on AVX2, one
/// dependent add chain per row otherwise) then took them to 0.42–0.57 s
/// and 0.22–0.25 s.
const TRUTH_BLOCK_BYTES: usize = 1 << 20;

/// Exact ground-truth neighbours for a batch of queries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GroundTruth {
    /// `truth[q]` holds the ids of the true nearest neighbours of query `q`,
    /// best first.
    pub truth: Vec<Vec<u64>>,
}

impl GroundTruth {
    /// Computes exact top-`k` ground truth by brute force.
    ///
    /// This is `O(queries × points × dim)` and intended for the reduced-scale
    /// synthetic datasets used in tests and benchmarks.
    ///
    /// # Errors
    ///
    /// Returns an error when the query dimension does not match the points,
    /// and [`Error::WorkerPanicked`] when a worker of the query fan-out
    /// panicked.
    pub fn brute_force(
        points: &VectorSet,
        queries: &VectorSet,
        metric: Metric,
        k: usize,
    ) -> Result<Self> {
        if points.dim() != queries.dim() {
            return Err(Error::DimensionMismatch {
                expected: points.dim(),
                actual: queries.dim(),
            });
        }
        if points.is_empty() {
            return Err(Error::empty_input("ground truth requires search points"));
        }
        let block = (TRUTH_BLOCK_BYTES / (4 * points.dim())).max(1);
        Self::brute_force_tiled(points, queries, metric, k, TRUTH_TILE, block)
    }

    /// [`GroundTruth::brute_force`] past its checks, on tiles of `tile`
    /// queries and blocks of `block` points.
    fn brute_force_tiled(
        points: &VectorSet,
        queries: &VectorSet,
        metric: Metric,
        k: usize,
        tile: usize,
        block: usize,
    ) -> Result<Self> {
        let k = k.min(points.len());
        // One tile of queries per task on the caller's thread budget,
        // walking the points one L2-sized block at a time: every query of
        // the tile scores the block before the next one is read, so the
        // point set streams from memory once per tile instead of once per
        // query. Each query still pushes every id in ascending order with
        // the same distance, so ties resolve as in a plain double loop.
        let (nq, dim) = (queries.len(), points.dim());
        let tiles = parallel::map(nq.div_ceil(tile), parallel::default_threads(), |t| {
            let tile = t * tile..nq.min((t + 1) * tile);
            let mut topks: Vec<TopK> = tile.clone().map(|_| TopK::new(k, metric)).collect();
            let mut dist = vec![0.0f32; block.min(points.len())];
            for start in (0..points.len()).step_by(block) {
                let ids = start..points.len().min(start + block);
                let rows = &points.as_flat()[ids.start * dim..ids.end * dim];
                let dist = &mut dist[..ids.len()];
                for (topk, q) in topks.iter_mut().zip(tile.clone()) {
                    let query = queries.row(q);
                    match metric {
                        Metric::L2 => l2_squared_rows(query, rows, dist),
                        Metric::InnerProduct => {
                            for (d, row) in dist.iter_mut().zip(rows.chunks_exact(dim)) {
                                *d = metric.distance(query, row);
                            }
                        }
                    }
                    for (id, &d) in ids.clone().zip(dist.iter()) {
                        topk.push(id as u64, d);
                    }
                }
            }
            topks
                .into_iter()
                .map(|topk| topk.into_sorted_vec().into_iter().map(|n| n.id).collect())
                .collect::<Vec<Vec<u64>>>()
        })?;
        Ok(Self {
            truth: tiles.into_iter().flatten().collect(),
        })
    }

    /// Number of queries covered by this ground truth.
    pub fn len(&self) -> usize {
        self.truth.len()
    }

    /// Returns `true` when the ground truth covers no queries.
    pub fn is_empty(&self) -> bool {
        self.truth.is_empty()
    }
}

/// Generic `Rn@m` recall: the average fraction of each query's top-`n` true
/// neighbours found among its `m` retrieved neighbours.
///
/// `retrieved[q]` is the retrieved id list of query `q` (at least its first
/// `m` entries are considered; shorter lists are allowed).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `n == 0`, and
/// [`Error::DimensionMismatch`] when the number of queries differs between
/// `retrieved` and `truth`.
pub fn recall_at(retrieved: &[Vec<u64>], truth: &GroundTruth, n: usize, m: usize) -> Result<f64> {
    if n == 0 {
        return Err(Error::invalid_config("recall requires n > 0"));
    }
    if retrieved.len() != truth.len() {
        return Err(Error::DimensionMismatch {
            expected: truth.len(),
            actual: retrieved.len(),
        });
    }
    if retrieved.is_empty() {
        return Ok(0.0);
    }
    let mut total = 0.0;
    for (got, want) in retrieved.iter().zip(truth.truth.iter()) {
        let want_n = &want[..n.min(want.len())];
        if want_n.is_empty() {
            continue;
        }
        let got_m = &got[..m.min(got.len())];
        let mut found = 0usize;
        for id in want_n {
            if got_m.contains(id) {
                found += 1;
            }
        }
        total += found as f64 / want_n.len() as f64;
    }
    Ok(total / retrieved.len() as f64)
}

/// The paper's `R1@100` metric: fraction of queries whose first 100 retrieved
/// neighbours contain the true nearest neighbour.
///
/// # Errors
///
/// See [`recall_at`].
pub fn r1_at_100(retrieved: &[Vec<u64>], truth: &GroundTruth) -> Result<f64> {
    recall_at(retrieved, truth, 1, 100)
}

/// The paper's `R100@1000` metric: average fraction of the 100 true nearest
/// neighbours found among 1000 retrieved neighbours.
///
/// # Errors
///
/// See [`recall_at`].
pub fn r100_at_1000(retrieved: &[Vec<u64>], truth: &GroundTruth) -> Result<f64> {
    recall_at(retrieved, truth, 100, 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_truth() -> GroundTruth {
        GroundTruth {
            truth: vec![vec![0, 1, 2], vec![5, 6, 7]],
        }
    }

    #[test]
    fn perfect_recall() {
        let truth = toy_truth();
        let retrieved = vec![vec![2, 0, 1], vec![7, 6, 5]];
        assert!((recall_at(&retrieved, &truth, 3, 3).unwrap() - 1.0).abs() < 1e-12);
        assert!((r1_at_100(&retrieved, &truth).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_recall() {
        let truth = toy_truth();
        // First query finds 2/3 of the top-3; second finds 1/3.
        let retrieved = vec![vec![0, 2, 99], vec![5, 99, 98]];
        let r = recall_at(&retrieved, &truth, 3, 3).unwrap();
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn r1_counts_presence_anywhere_in_window() {
        let truth = toy_truth();
        // True NN (0 and 5) retrieved, but not in the first position.
        let retrieved = vec![vec![9, 8, 0], vec![4, 5, 3]];
        assert!((r1_at_100(&retrieved, &truth).unwrap() - 1.0).abs() < 1e-12);
        // True NN entirely missing from the second query.
        let retrieved = vec![vec![9, 8, 0], vec![4, 9, 3]];
        assert!((r1_at_100(&retrieved, &truth).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mismatched_query_counts_are_rejected() {
        let truth = toy_truth();
        assert!(recall_at(&[vec![1]], &truth, 1, 1).is_err());
        assert!(recall_at(&[vec![1], vec![2]], &truth, 0, 1).is_err());
    }

    #[test]
    fn brute_force_ground_truth_is_exact() {
        let points = VectorSet::from_rows(vec![
            vec![0.0, 0.0],
            vec![10.0, 10.0],
            vec![0.2, 0.0],
            vec![5.0, 5.0],
        ])
        .unwrap();
        let queries = VectorSet::from_rows(vec![vec![0.0, 0.1], vec![9.0, 9.0]]).unwrap();
        let gt = GroundTruth::brute_force(&points, &queries, Metric::L2, 2).unwrap();
        assert_eq!(gt.truth[0], vec![0, 2]);
        assert_eq!(gt.truth[1], vec![1, 3]);
        assert_eq!(gt.len(), 2);
        assert!(!gt.is_empty());
    }

    #[test]
    fn brute_force_equals_a_plain_double_loop_with_ties() {
        use crate::rng::{seeded, Rng};
        let mut rng = seeded(0x71E5);
        // 30 distinct points, each stored four times: every distance is a
        // four-way tie, and the lower id must rank first.
        let distinct: Vec<Vec<f32>> = (0..30)
            .map(|_| (0..5).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let rows: Vec<Vec<f32>> = (0..120).map(|i| distinct[i % 30].clone()).collect();
        let points = VectorSet::from_rows(rows).unwrap();
        // More queries than a tile holds, the last tile short.
        let queries: Vec<Vec<f32>> = (0..TRUTH_TILE + 5)
            .map(|q| distinct[q % 30].clone())
            .collect();
        let queries = VectorSet::from_rows(queries).unwrap();
        for metric in [Metric::L2, Metric::InnerProduct] {
            // k within the set, and past it (every point, in rank order).
            for k in [10, 200] {
                let want: Vec<Vec<u64>> = (0..queries.len())
                    .map(|q| {
                        let mut scored: Vec<(f32, u64)> = (0..points.len())
                            .map(|id| (metric.score(queries.row(q), points.row(id)), id as u64))
                            .collect();
                        scored.sort_by(|a, b| a.partial_cmp(b).unwrap());
                        scored.iter().take(k).map(|&(_, id)| id).collect()
                    })
                    .collect();
                let gt = GroundTruth::brute_force(&points, &queries, metric, k).unwrap();
                assert_eq!(gt.truth, want, "{metric} k={k}");
                // Tiles and blocks that do not divide the queries and points,
                // so ties straddle block boundaries; one query and one point
                // at a time; one tile holding every query.
                for (tile, block) in [(3, 7), (1, 1), (16, 50), (64, 119)] {
                    let gt =
                        GroundTruth::brute_force_tiled(&points, &queries, metric, k, tile, block)
                            .unwrap();
                    assert_eq!(gt.truth, want, "{metric} k={k} tile {tile} block {block}");
                }
            }
        }
    }

    #[test]
    fn brute_force_ip_prefers_large_dot_products() {
        let points =
            VectorSet::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![2.0, 2.0]]).unwrap();
        let queries = VectorSet::from_rows(vec![vec![1.0, 1.0]]).unwrap();
        let gt = GroundTruth::brute_force(&points, &queries, Metric::InnerProduct, 1).unwrap();
        assert_eq!(gt.truth[0], vec![2]);
    }

    #[test]
    fn brute_force_validates_inputs() {
        let points = VectorSet::from_rows(vec![vec![0.0, 0.0]]).unwrap();
        let queries = VectorSet::from_rows(vec![vec![0.0, 0.0, 0.0]]).unwrap();
        assert!(GroundTruth::brute_force(&points, &queries, Metric::L2, 1).is_err());
    }
}
