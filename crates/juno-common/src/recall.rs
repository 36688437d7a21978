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
use crate::metric::Metric;
use crate::parallel;
use crate::topk::TopK;
use crate::vector::VectorSet;

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
        let k = k.min(points.len());
        // One query per task on the caller's thread budget; ids are pushed
        // in ascending order, so ties resolve as in a plain double loop.
        let truth = parallel::map(queries.len(), parallel::default_threads(), |q| {
            let query = queries.row(q);
            let mut topk = TopK::new(k, metric);
            for (id, row) in points.iter().enumerate() {
                topk.push(id as u64, metric.distance(query, row));
            }
            topk.into_sorted_vec().into_iter().map(|n| n.id).collect()
        })?;
        Ok(Self { truth })
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
        let queries = VectorSet::from_rows(distinct[..9].to_vec()).unwrap();
        for metric in [Metric::L2, Metric::InnerProduct] {
            let gt = GroundTruth::brute_force(&points, &queries, metric, 10).unwrap();
            for (q, got) in gt.truth.iter().enumerate() {
                let mut scored: Vec<(f32, u64)> = (0..points.len())
                    .map(|id| (metric.score(queries.row(q), points.row(id)), id as u64))
                    .collect();
                scored.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let want: Vec<u64> = scored[..10].iter().map(|&(_, id)| id).collect();
                assert_eq!(got, &want, "{metric} query {q}");
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
