//! Lloyd's k-means with k-means++ initialisation.
//!
//! Used twice by the IVFPQ pipeline:
//!
//! 1. the "first" clustering over all `N` search points of full dimension `D`
//!    (the IVF coarse quantiser, `C` clusters), and
//! 2. one "second" clustering per subspace over residual projections of
//!    dimension `M` (the PQ codebook, `E` entries per subspace).
//!
//! Determinism: all randomness flows through the seed in [`KMeansConfig`], and
//! the objective is summed per fixed 4096-point block in block order, so
//! repeated builds of an index produce identical centroids, labels and
//! iteration counts — on any host, under any thread budget.
//!
//! # What a run costs
//!
//! For `n` training points (the input, or `train_subsample` of it), `k`
//! clusters, `d` coordinates and `I ≤ max_iters` iterations; a "distance" is
//! one `d`-wide squared L2 (`d` multiply-adds, `4d` bytes of point read):
//!
//! | stage | distances | bytes streamed | parallel over | threads |
//! |---|---|---|---|---|
//! | k-means++ seeding | `k·n` | the `4nd`-byte training set, `k` times | — | 1 |
//! | Lloyd assignment | `I·n·k` | the training set once per iteration; the `4kd`-byte centroid table stays in L1/L2 | 4096-point blocks | the caller's budget |
//! | centroid update | — (`I·n·d` `f64` adds) | the training set once per iteration | — | 1 |
//! | labelling ([`KMeans::train`] only) | `N·k` | the full `4Nd`-byte input once | 4096-point blocks | the caller's budget |
//!
//! Every distance of the last three rows goes through the nearest-row kernel
//! (`juno_common::kernel`), one [`ASSIGN_BLOCK`] of points per call
//! (`NearestRows::nearest_each`). For narrower rows than eight (the PQ
//! codebooks' `M = 2`) the table is transposed once per iteration and 32
//! points are scored at a time, one per SIMD lane, against the rows in
//! order. That layout is what made assignment cheap, not the instruction
//! set: for 64 two-dimensional rows the row-at-a-time loop spent 70–110 ns
//! a point on its serial first-minimum chain (121 ns compiled for AVX2),
//! points across eight lanes ≈ 30 ns, across sixteen AVX2 lanes 16–20 ns,
//! across the AVX-512 arm's 32 ≈ 7 ns. Wide rows (the coarse centroids) go
//! point by point through [`l2_squared`]'s arithmetic, four rows side by
//! side on the AVX2 arm: 32 rows of 96-d went from 350–590 to 220–240 ns a
//! point, and the coarse fit of the fat fixture from 0.98–1.06 to
//! 0.44–0.49 s. The budget is
//! [`parallel::default_threads`] (`JUNO_NUM_THREADS`) for [`KMeans::train`];
//! the PQ trainer runs one sequential label-free fit per subspace and spends
//! the budget across subspaces instead (see `pq.rs`).

use juno_common::error::{Error, Result};
use juno_common::kernel::{nearest_row, NearestRows};
use juno_common::metric::l2_squared;
use juno_common::parallel;
use juno_common::rng::Rng;
use juno_common::rng::{sample_indices, seeded};
use juno_common::vector::VectorSet;

/// Points per assignment task and per partial sum of the objective. A
/// constant, so the labels, the objective's bits and with them the
/// iteration a run stops at are the same under every thread budget.
const ASSIGN_BLOCK: usize = 4096;

/// Configuration for a k-means run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters (`C` for the coarse quantiser, `E` per subspace).
    pub n_clusters: usize,
    /// Maximum number of Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the relative decrease of the objective.
    pub tolerance: f64,
    /// Seed driving the k-means++ initialisation and empty-cluster repair.
    pub seed: u64,
    /// Optional cap on the number of points used for training; when the input
    /// is larger, a random subsample of this size is used (FAISS does the same
    /// for large datasets). `None` trains on everything.
    pub train_subsample: Option<usize>,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            n_clusters: 8,
            max_iters: 25,
            tolerance: 1e-4,
            seed: 0x5EED,
            train_subsample: None,
        }
    }
}

impl KMeansConfig {
    /// Convenience constructor with the given cluster count and seed.
    pub fn new(n_clusters: usize, seed: u64) -> Self {
        Self {
            n_clusters,
            seed,
            ..Self::default()
        }
    }
}

/// A trained k-means model: centroids plus the training assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: VectorSet,
    /// Assignment of the training points to centroids (same order as input).
    labels: Vec<usize>,
    /// Final value of the (mean squared) quantisation objective.
    inertia: f64,
    /// Number of Lloyd iterations executed.
    iterations: usize,
}

impl KMeans {
    /// Trains k-means on `points` according to `config`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] when `points` is empty and
    /// [`Error::InvalidConfig`] when `n_clusters` is zero or exceeds the
    /// number of points.
    pub fn train(points: &VectorSet, config: &KMeansConfig) -> Result<Self> {
        Self::train_with_threads(points, config, parallel::default_threads())
    }

    /// [`KMeans::train`] on an explicit thread budget (the result does not
    /// depend on it).
    fn train_with_threads(
        points: &VectorSet,
        config: &KMeansConfig,
        threads: usize,
    ) -> Result<Self> {
        let (centroids, iterations) = fit(points, config, threads)?;
        // Labels over the full input, which the fit never computes: it
        // assigns its training set only, and that may be a subsample.
        let (labels, inertia) = assign(points, &centroids, threads)?;
        Ok(Self {
            centroids,
            labels,
            inertia,
            iterations,
        })
    }

    /// The trained centroids (one row per cluster).
    pub fn centroids(&self) -> &VectorSet {
        &self.centroids
    }

    /// Consumes the model and returns its centroids and labels.
    pub fn into_parts(self) -> (VectorSet, Vec<usize>) {
        (self.centroids, self.labels)
    }

    /// Assignment of the training points (cluster id per point).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Mean squared distance of points to their assigned centroid.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Number of Lloyd iterations performed before convergence / cut-off.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.centroids.len()
    }

    /// Assigns a single vector to its nearest centroid, returning
    /// `(cluster id, squared distance)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the vector has the wrong
    /// dimension.
    pub fn assign_one(&self, v: &[f32]) -> Result<(usize, f32)> {
        if v.len() != self.centroids.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.centroids.dim(),
                actual: v.len(),
            });
        }
        Ok(nearest_row(v, self.centroids.as_flat()))
    }
}

/// The label-free fit: k-means++ seeding and Lloyd iterations over the
/// training set (all of `points`, or the subsample `config` asks for),
/// returning the centroids and the number of iterations run. What a caller
/// that only wants a codebook pays for; [`KMeans::train`] adds the labelling
/// of the full input. `threads` bounds the workers of the assignment step
/// and does not change the result.
///
/// # Errors
///
/// As [`KMeans::train`].
pub(crate) fn fit(
    points: &VectorSet,
    config: &KMeansConfig,
    threads: usize,
) -> Result<(VectorSet, usize)> {
    if points.is_empty() {
        return Err(Error::empty_input("k-means requires at least one point"));
    }
    if config.n_clusters == 0 {
        return Err(Error::invalid_config("n_clusters must be positive"));
    }
    if config.n_clusters > points.len() {
        return Err(Error::invalid_config(format!(
            "n_clusters {} exceeds number of points {}",
            config.n_clusters,
            points.len()
        )));
    }

    let mut rng = seeded(config.seed);

    let sampled;
    let training = match config.train_subsample {
        Some(cap) if cap < points.len() && cap >= config.n_clusters => {
            let ids = sample_indices(&mut rng, points.len(), cap);
            sampled = points.select(&ids)?;
            &sampled
        }
        _ => points,
    };

    let mut centroids = plus_plus_init(training, config.n_clusters, &mut rng);
    let mut inertia = f64::INFINITY;
    let mut iterations = 0usize;
    for iter in 0..config.max_iters.max(1) {
        iterations = iter + 1;
        let (labels, new_inertia) = assign(training, &centroids, threads)?;
        update_centroids(training, &labels, &mut centroids, &mut rng);
        let improved = inertia.is_infinite()
            || (inertia - new_inertia) > config.tolerance * inertia.abs().max(1e-12);
        inertia = new_inertia;
        if !improved {
            break;
        }
    }
    Ok((centroids, iterations))
}

/// k-means++ seeding: the first centroid is uniform, each further centroid is
/// sampled proportionally to its squared distance from the nearest chosen one.
fn plus_plus_init<R: Rng>(points: &VectorSet, k: usize, rng: &mut R) -> VectorSet {
    let n = points.len();
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    let first = rng.gen_range(0..n);
    chosen.push(first);

    // Squared distance of each point to the nearest chosen centroid.
    let mut dist: Vec<f32> = points
        .iter()
        .map(|p| l2_squared(p, points.row(first)))
        .collect();

    while chosen.len() < k {
        let total: f64 = dist.iter().map(|&d| d as f64).sum();
        let next = if total <= f64::EPSILON {
            // All remaining points coincide with chosen centroids; pick any
            // unchosen index to keep the centroid count correct.
            (0..n).find(|i| !chosen.contains(i)).unwrap_or(0)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &d) in dist.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        chosen.push(next);
        let new_c = points.row(next);
        for (i, p) in points.iter().enumerate() {
            let d = l2_squared(p, new_c);
            if d < dist[i] {
                dist[i] = d;
            }
        }
    }

    points
        .select(&chosen)
        .expect("chosen indices are in bounds by construction")
}

/// Assignment step: the nearest centroid of every point and the mean
/// squared distance to it (the objective). Points go through the
/// nearest-row kernel in [`ASSIGN_BLOCK`]-point tasks on up to `threads`
/// workers; each task sums its own distances in point order and the task
/// sums are added in task order.
fn assign(points: &VectorSet, centroids: &VectorSet, threads: usize) -> Result<(Vec<usize>, f64)> {
    let dim = centroids.dim();
    let table = NearestRows::new(centroids.as_flat(), dim);
    let n = points.len();
    let blocks = parallel::map(n.div_ceil(ASSIGN_BLOCK), threads, |b| {
        let range = b * ASSIGN_BLOCK..n.min((b + 1) * ASSIGN_BLOCK);
        let mut labels = Vec::with_capacity(range.len());
        let mut sum = 0.0f64;
        let block = &points.as_flat()[range.start * dim..];
        table.nearest_each(block, dim, range.len(), |_, c, d| {
            labels.push(c);
            sum += d as f64;
        });
        (labels, sum)
    })?;
    let mut labels = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for (block, sum) in blocks {
        labels.extend(block);
        total += sum;
    }
    Ok((labels, total / n as f64))
}

/// Update step: recompute each centroid as the mean of its assigned points.
/// Empty clusters are re-seeded with a random point (empty-cluster repair).
fn update_centroids<R: Rng>(
    points: &VectorSet,
    labels: &[usize],
    centroids: &mut VectorSet,
    rng: &mut R,
) {
    let dim = points.dim();
    let k = centroids.len();
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0usize; k];
    for (i, p) in points.iter().enumerate() {
        let c = labels[i];
        counts[c] += 1;
        let sum = &mut sums[c * dim..(c + 1) * dim];
        for (s, &x) in sum.iter_mut().zip(p.iter()) {
            *s += x as f64;
        }
    }
    for c in 0..k {
        let row = centroids.row_mut(c);
        if counts[c] == 0 {
            // Empty-cluster repair: move the centroid onto a random point so
            // it can attract members in the next iteration.
            let idx = rng.gen_range(0..points.len());
            row.copy_from_slice(points.row(idx));
        } else {
            let inv = 1.0 / counts[c] as f64;
            let sum = &sums[c * dim..(c + 1) * dim];
            for (r, &s) in row.iter_mut().zip(sum.iter()) {
                *r = (s * inv) as f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::rng::normal;

    /// Three well-separated Gaussian blobs in 2-D.
    fn blobs(n_per: usize, seed: u64) -> VectorSet {
        let mut rng = seeded(seed);
        let centers = [[0.0f32, 0.0], [10.0, 10.0], [-10.0, 8.0]];
        let mut rows = Vec::new();
        for c in centers {
            for _ in 0..n_per {
                rows.push(vec![
                    normal(&mut rng, c[0], 0.5),
                    normal(&mut rng, c[1], 0.5),
                ]);
            }
        }
        VectorSet::from_rows(rows).unwrap()
    }

    #[test]
    fn recovers_separated_blobs() {
        let points = blobs(60, 7);
        let km = KMeans::train(&points, &KMeansConfig::new(3, 42)).unwrap();
        assert_eq!(km.n_clusters(), 3);
        // Every blob should be internally consistent: points of the same blob
        // share a label.
        for blob in 0..3 {
            let base = km.labels()[blob * 60];
            for i in 0..60 {
                assert_eq!(km.labels()[blob * 60 + i], base, "blob {blob} split");
            }
        }
        // With well separated blobs the mean quantisation error is tiny
        // relative to the inter-blob distance.
        assert!(km.inertia() < 2.0, "inertia {} too high", km.inertia());
    }

    #[test]
    fn labels_are_nearest_centroids() {
        let points = blobs(30, 3);
        let km = KMeans::train(&points, &KMeansConfig::new(4, 9)).unwrap();
        for (i, p) in points.iter().enumerate() {
            let (nearest, _) = km.assign_one(p).unwrap();
            assert_eq!(km.labels()[i], nearest);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let points = blobs(40, 11);
        let a = KMeans::train(&points, &KMeansConfig::new(5, 1234)).unwrap();
        let b = KMeans::train(&points, &KMeansConfig::new(5, 1234)).unwrap();
        assert_eq!(a.centroids(), b.centroids());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn the_thread_budget_does_not_change_the_result() {
        // Three assignment blocks, the last one short; full-set training and
        // a two-block subsample.
        let points = blobs(3_500, 13);
        assert!(points.len() > 2 * ASSIGN_BLOCK);
        for train_subsample in [None, Some(ASSIGN_BLOCK + 900)] {
            let cfg = KMeansConfig {
                train_subsample,
                ..KMeansConfig::new(7, 99)
            };
            let one = KMeans::train_with_threads(&points, &cfg, 1).unwrap();
            assert!(one.iterations() > 1);
            for threads in [2, 5] {
                let many = KMeans::train_with_threads(&points, &cfg, threads).unwrap();
                assert_eq!(many.centroids(), one.centroids(), "{threads} threads");
                assert_eq!(many.labels(), one.labels(), "{threads} threads");
                assert_eq!(many.iterations(), one.iterations(), "{threads} threads");
                assert_eq!(
                    many.inertia().to_bits(),
                    one.inertia().to_bits(),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn subsampled_training_still_covers_all_points() {
        let points = blobs(100, 21);
        let cfg = KMeansConfig {
            n_clusters: 3,
            train_subsample: Some(60),
            ..KMeansConfig::new(3, 5)
        };
        let km = KMeans::train(&points, &cfg).unwrap();
        assert_eq!(km.labels().len(), points.len());
        assert!(km.labels().iter().all(|&l| l < 3));
    }

    #[test]
    fn handles_k_equal_n() {
        let points =
            VectorSet::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        let km = KMeans::train(&points, &KMeansConfig::new(3, 77)).unwrap();
        assert_eq!(km.n_clusters(), 3);
        // Each point should become (close to) its own centroid.
        assert!(km.inertia() < 1e-9);
    }

    #[test]
    fn duplicate_points_do_not_break_init() {
        let points = VectorSet::from_rows(vec![vec![1.0, 1.0]; 10]).unwrap();
        let km = KMeans::train(&points, &KMeansConfig::new(3, 5)).unwrap();
        assert_eq!(km.n_clusters(), 3);
        assert!(km.inertia() < 1e-12);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let points = blobs(5, 1);
        assert!(KMeans::train(&points, &KMeansConfig::new(0, 1)).is_err());
        assert!(KMeans::train(&points, &KMeansConfig::new(100, 1)).is_err());
        let empty = VectorSet::new(2).unwrap();
        assert!(KMeans::train(&empty, &KMeansConfig::new(1, 1)).is_err());
    }

    #[test]
    fn assign_one_checks_dimension() {
        let points = blobs(10, 2);
        let km = KMeans::train(&points, &KMeansConfig::new(2, 3)).unwrap();
        assert!(km.assign_one(&[1.0]).is_err());
        assert!(km.assign_one(&[1.0, 2.0]).is_ok());
    }
}
