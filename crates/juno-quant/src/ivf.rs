//! Inverted file index (IVF) — the coarse filtering stage.
//!
//! The IVF (paper Section 2.1, step 1 and stage A) clusters the `N` search
//! points into `C` clusters with full-dimension k-means and stores, for each
//! cluster, the list of its member point ids. At query time the *filtering*
//! stage computes the query's distance to all `C` centroids and keeps the
//! `nprobs` closest clusters; all later stages only touch points in those
//! clusters.

use crate::kmeans::{KMeans, KMeansConfig};
use juno_common::error::{Error, Result};
use juno_common::kernel::nearest_row;
use juno_common::metric::Metric;
use juno_common::topk::TopK;
use juno_common::vector::VectorSet;

/// Training configuration for an [`IvfIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvfTrainConfig {
    /// Number of coarse clusters (`C`), e.g. 4096 in the paper's DEEP1M setup.
    pub n_clusters: usize,
    /// Metric used for filtering (L2 or inner product).
    pub metric: Metric,
    /// k-means iterations.
    pub kmeans_iters: usize,
    /// Seed for the coarse k-means.
    pub seed: u64,
    /// Optional training subsample for the coarse k-means.
    pub train_subsample: Option<usize>,
}

impl Default for IvfTrainConfig {
    fn default() -> Self {
        Self {
            n_clusters: 64,
            metric: Metric::L2,
            kmeans_iters: 20,
            seed: 0x1F5,
            train_subsample: Some(100_000),
        }
    }
}

impl IvfTrainConfig {
    /// Convenience constructor with a cluster count and metric.
    pub fn new(n_clusters: usize, metric: Metric) -> Self {
        Self {
            n_clusters,
            metric,
            ..Self::default()
        }
    }
}

/// Result of the filtering stage for one query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FilterResult {
    /// Selected cluster ids, closest first.
    pub clusters: Vec<usize>,
    /// Raw metric value of the query to each selected centroid.
    pub centroid_distances: Vec<f32>,
    /// Number of pairwise distance computations performed (`C`).
    pub distance_computations: usize,
}

/// A trained inverted file index.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfIndex {
    centroids: VectorSet,
    /// `lists[c]` holds the ids of the points assigned to cluster `c`.
    lists: Vec<Vec<u32>>,
    /// Cluster assignment of every indexed point.
    labels: Vec<usize>,
    metric: Metric,
}

impl IvfIndex {
    /// Trains the coarse quantiser and builds the inverted lists.
    ///
    /// # Errors
    ///
    /// Propagates k-means errors (empty input, too many clusters, ...).
    pub fn train(points: &VectorSet, config: &IvfTrainConfig) -> Result<Self> {
        let km_cfg = KMeansConfig {
            n_clusters: config.n_clusters,
            max_iters: config.kmeans_iters,
            tolerance: 1e-4,
            seed: config.seed,
            train_subsample: config.train_subsample,
        };
        let (centroids, labels) = KMeans::train(points, &km_cfg)?.into_parts();
        let mut lists = vec![Vec::new(); config.n_clusters];
        for (i, &c) in labels.iter().enumerate() {
            lists[c].push(i as u32);
        }
        Ok(Self {
            centroids,
            lists,
            labels,
            metric: config.metric,
        })
    }

    /// Rebuilds an index from persisted parts, recomputing the inverted
    /// lists from the labels. Use
    /// [`IvfIndex::from_parts_with_lists`] when the lists have been mutated
    /// (points removed) and must be restored verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when a label is out of range.
    pub fn from_parts(centroids: VectorSet, labels: Vec<usize>, metric: Metric) -> Result<Self> {
        let n_clusters = centroids.len();
        if n_clusters == 0 {
            return Err(Error::corrupted("IvfIndex: no centroids"));
        }
        let mut lists = vec![Vec::new(); n_clusters];
        for (i, &c) in labels.iter().enumerate() {
            let list = lists
                .get_mut(c)
                .ok_or_else(|| Error::corrupted("IvfIndex: label out of range"))?;
            list.push(i as u32);
        }
        Ok(Self {
            centroids,
            lists,
            labels,
            metric,
        })
    }

    /// Rebuilds an index from persisted parts including explicit inverted
    /// lists (which may omit removed points). Every listed id must carry the
    /// matching label and appear at most once.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when labels and lists disagree.
    pub fn from_parts_with_lists(
        centroids: VectorSet,
        labels: Vec<usize>,
        lists: Vec<Vec<u32>>,
        metric: Metric,
    ) -> Result<Self> {
        let n_clusters = centroids.len();
        if n_clusters == 0 {
            return Err(Error::corrupted("IvfIndex: no centroids"));
        }
        if lists.len() != n_clusters {
            return Err(Error::corrupted("IvfIndex: list count != cluster count"));
        }
        if labels.iter().any(|&c| c >= n_clusters) {
            return Err(Error::corrupted("IvfIndex: label out of range"));
        }
        let mut seen = vec![false; labels.len()];
        for (c, list) in lists.iter().enumerate() {
            for &id in list {
                let label = labels
                    .get(id as usize)
                    .ok_or_else(|| Error::corrupted("IvfIndex: listed id out of range"))?;
                if *label != c {
                    return Err(Error::corrupted("IvfIndex: listed id in wrong cluster"));
                }
                if std::mem::replace(&mut seen[id as usize], true) {
                    return Err(Error::corrupted("IvfIndex: duplicate listed id"));
                }
            }
        }
        Ok(Self {
            centroids,
            lists,
            labels,
            metric,
        })
    }

    /// Number of clusters `C`.
    pub fn n_clusters(&self) -> usize {
        self.centroids.len()
    }

    /// Dimension of indexed points.
    pub fn dim(&self) -> usize {
        self.centroids.dim()
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The filtering metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Borrow of the coarse centroids.
    pub fn centroids(&self) -> &VectorSet {
        &self.centroids
    }

    /// Borrow of one coarse centroid.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for an invalid cluster id.
    pub fn centroid(&self, c: usize) -> Result<&[f32]> {
        self.centroids
            .get(c)
            .ok_or_else(|| Error::IndexOutOfBounds {
                what: "cluster".into(),
                index: c,
                len: self.centroids.len(),
            })
    }

    /// Cluster assignment of every indexed point.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The member point ids of cluster `c`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for an invalid cluster id.
    pub fn list(&self, c: usize) -> Result<&[u32]> {
        self.lists
            .get(c)
            .map(Vec::as_slice)
            .ok_or_else(|| Error::IndexOutOfBounds {
                what: "cluster".into(),
                index: c,
                len: self.lists.len(),
            })
    }

    /// Sizes of all inverted lists (useful for balance diagnostics).
    pub fn list_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(Vec::len).collect()
    }

    /// The filtering stage: selects the `nprobs` clusters whose centroids are
    /// closest to (or, for MIPS, have largest inner product with) the query.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the query dimension differs
    /// and [`Error::InvalidConfig`] when `nprobs == 0`.
    pub fn filter(&self, query: &[f32], nprobs: usize) -> Result<FilterResult> {
        if query.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: query.len(),
            });
        }
        if nprobs == 0 {
            return Err(Error::invalid_config("nprobs must be positive"));
        }
        let nprobs = nprobs.min(self.n_clusters());
        let mut topk = TopK::new(nprobs, self.metric);
        for (c, row) in self.centroids.iter().enumerate() {
            topk.push(c as u64, self.metric.distance(query, row));
        }
        let ranked = topk.into_sorted_vec();
        Ok(FilterResult {
            clusters: ranked.iter().map(|n| n.id as usize).collect(),
            centroid_distances: ranked.iter().map(|n| n.distance).collect(),
            distance_computations: self.n_clusters(),
        })
    }

    /// The cluster a new point would be assigned to: the centroid nearest in
    /// **squared L2** distance, replicating the k-means assignment rule used
    /// at training time (also under the inner-product metric, where the
    /// coarse clustering itself is Euclidean).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] for a wrong point dimension.
    pub fn assign(&self, point: &[f32]) -> Result<usize> {
        if point.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: point.len(),
            });
        }
        Ok(nearest_row(point, self.centroids.as_flat()).0)
    }

    /// Registers a newly inserted point under `cluster` and returns its id
    /// (the next position in the label array — ids are monotone and never
    /// reused).
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for an invalid cluster and
    /// [`Error::InvalidConfig`] when the u32 id space is exhausted.
    pub fn push_assignment(&mut self, cluster: usize) -> Result<u32> {
        if cluster >= self.n_clusters() {
            return Err(Error::IndexOutOfBounds {
                what: "cluster".into(),
                index: cluster,
                len: self.n_clusters(),
            });
        }
        let id = u32::try_from(self.labels.len())
            .map_err(|_| Error::invalid_config("point id space exhausted"))?;
        if id == u32::MAX {
            return Err(Error::invalid_config("point id space exhausted"));
        }
        self.labels.push(cluster);
        self.lists[cluster].push(id);
        Ok(id)
    }

    /// The residual of a query with respect to cluster `c`'s centroid
    /// (`query - centroid`), used by PQ's asymmetric distance computation.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid cluster id or mismatched dimension.
    pub fn query_residual(&self, query: &[f32], c: usize) -> Result<Vec<f32>> {
        if query.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: query.len(),
            });
        }
        let centroid = self.centroid(c)?;
        Ok(query
            .iter()
            .zip(centroid.iter())
            .map(|(q, c)| q - c)
            .collect())
    }

    /// Computes residuals of all indexed points with respect to their assigned
    /// centroid — the training input of the PQ codebooks.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors from [`VectorSet::residual_to`].
    pub fn point_residuals(&self, points: &VectorSet) -> Result<VectorSet> {
        if points.len() != self.labels.len() {
            return Err(Error::invalid_config(format!(
                "point count {} does not match trained assignment {}",
                points.len(),
                self.labels.len()
            )));
        }
        points.residual_to(&self.centroids, &self.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::rng::{normal, seeded};

    fn clustered_points(n_per: usize, seed: u64) -> VectorSet {
        let mut rng = seeded(seed);
        let centers = [
            [0.0f32, 0.0, 0.0, 0.0],
            [10.0, 10.0, 10.0, 10.0],
            [-10.0, 5.0, 0.0, -5.0],
            [20.0, -20.0, 10.0, 0.0],
        ];
        let mut rows = Vec::new();
        for c in centers {
            for _ in 0..n_per {
                rows.push(c.iter().map(|&m| normal(&mut rng, m, 0.5)).collect());
            }
        }
        VectorSet::from_rows(rows).unwrap()
    }

    fn toy_index() -> (VectorSet, IvfIndex) {
        let points = clustered_points(50, 3);
        let ivf = IvfIndex::train(&points, &IvfTrainConfig::new(4, Metric::L2)).unwrap();
        (points, ivf)
    }

    #[test]
    fn lists_partition_all_points() {
        let (points, ivf) = toy_index();
        let total: usize = ivf.list_sizes().iter().sum();
        assert_eq!(total, points.len());
        // Every point appears in the list matching its label.
        for (i, &label) in ivf.labels().iter().enumerate() {
            assert!(ivf.list(label).unwrap().contains(&(i as u32)));
        }
    }

    #[test]
    fn filter_selects_own_cluster_first() {
        let (points, ivf) = toy_index();
        // A query equal to an indexed point must rank that point's cluster first.
        for i in (0..points.len()).step_by(23) {
            let res = ivf.filter(points.row(i), 2).unwrap();
            assert_eq!(res.clusters[0], ivf.labels()[i]);
            assert_eq!(res.distance_computations, 4);
            assert_eq!(res.clusters.len(), 2);
        }
    }

    #[test]
    fn filter_distances_are_sorted() {
        let (points, ivf) = toy_index();
        let res = ivf.filter(points.row(0), 4).unwrap();
        for w in res.centroid_distances.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn filter_with_inner_product_prefers_aligned_centroid() {
        let points = VectorSet::from_rows(vec![
            vec![1.0, 0.0],
            vec![1.1, 0.0],
            vec![0.9, 0.1],
            vec![0.0, 1.0],
            vec![0.0, 1.1],
            vec![0.1, 0.9],
        ])
        .unwrap();
        let ivf = IvfIndex::train(&points, &IvfTrainConfig::new(2, Metric::InnerProduct)).unwrap();
        let res = ivf.filter(&[3.0, 0.0], 1).unwrap();
        let picked = ivf.centroid(res.clusters[0]).unwrap();
        // The selected centroid must be the x-aligned one.
        assert!(picked[0] > picked[1]);
    }

    #[test]
    fn nprobs_is_clamped_and_validated() {
        let (points, ivf) = toy_index();
        assert!(ivf.filter(points.row(0), 0).is_err());
        let res = ivf.filter(points.row(0), 100).unwrap();
        assert_eq!(res.clusters.len(), ivf.n_clusters());
        assert!(ivf.filter(&[0.0; 3], 1).is_err());
    }

    #[test]
    fn residuals_are_consistent() {
        let (points, ivf) = toy_index();
        let res = ivf.point_residuals(&points).unwrap();
        // Residual + centroid reconstructs the point.
        for i in (0..points.len()).step_by(17) {
            let c = ivf.centroid(ivf.labels()[i]).unwrap();
            for (d, &cd) in c.iter().enumerate().take(points.dim()) {
                let rebuilt = res.row(i)[d] + cd;
                assert!((rebuilt - points.row(i)[d]).abs() < 1e-5);
            }
        }
        // Query residual agrees with manual subtraction.
        let qres = ivf.query_residual(points.row(0), 0).unwrap();
        let c0 = ivf.centroid(0).unwrap();
        for d in 0..points.dim() {
            assert!((qres[d] - (points.row(0)[d] - c0[d])).abs() < 1e-6);
        }
        assert!(ivf.query_residual(&[0.0; 2], 0).is_err());
        assert!(ivf.query_residual(points.row(0), 99).is_err());
    }

    #[test]
    fn assign_matches_training_labels() {
        let (points, ivf) = toy_index();
        for i in (0..points.len()).step_by(13) {
            assert_eq!(ivf.assign(points.row(i)).unwrap(), ivf.labels()[i]);
        }
        assert!(ivf.assign(&[0.0; 2]).is_err());
    }

    #[test]
    fn push_assignment_extends_labels_and_list() {
        let (points, mut ivf) = toy_index();
        let n = points.len() as u32;
        let id = ivf.push_assignment(2).unwrap();
        assert_eq!(id, n);
        assert_eq!(ivf.labels()[id as usize], 2);
        assert!(ivf.list(2).unwrap().contains(&id));
        assert!(ivf.push_assignment(99).is_err());
    }

    #[test]
    fn parts_round_trips_and_validation() {
        let (_, ivf) = toy_index();
        let rebuilt =
            IvfIndex::from_parts(ivf.centroids().clone(), ivf.labels().to_vec(), ivf.metric())
                .unwrap();
        assert_eq!(rebuilt, ivf);
        let lists: Vec<Vec<u32>> = (0..ivf.n_clusters())
            .map(|c| ivf.list(c).unwrap().to_vec())
            .collect();
        let rebuilt = IvfIndex::from_parts_with_lists(
            ivf.centroids().clone(),
            ivf.labels().to_vec(),
            lists.clone(),
            ivf.metric(),
        )
        .unwrap();
        assert_eq!(rebuilt, ivf);

        // Bad label.
        assert!(IvfIndex::from_parts(ivf.centroids().clone(), vec![99; 10], ivf.metric()).is_err());
        // Wrong-cluster list entry.
        let mut bad = lists.clone();
        let moved = bad[0].pop().unwrap();
        bad[1].push(moved);
        assert!(IvfIndex::from_parts_with_lists(
            ivf.centroids().clone(),
            ivf.labels().to_vec(),
            bad,
            ivf.metric()
        )
        .is_err());
        // Duplicate list entry.
        let mut bad = lists;
        let dup = bad[0][0];
        bad[0].push(dup);
        assert!(IvfIndex::from_parts_with_lists(
            ivf.centroids().clone(),
            ivf.labels().to_vec(),
            bad,
            ivf.metric()
        )
        .is_err());
    }

    #[test]
    fn accessors_and_bounds() {
        let (_, ivf) = toy_index();
        assert_eq!(ivf.n_clusters(), 4);
        assert_eq!(ivf.dim(), 4);
        assert_eq!(ivf.len(), 200);
        assert!(!ivf.is_empty());
        assert_eq!(ivf.metric(), Metric::L2);
        assert!(ivf.centroid(4).is_err());
        assert!(ivf.list(4).is_err());
    }
}
