//! IVF-Flat: coarse filtering plus exact distances.
//!
//! This index applies the IVF filtering stage (keep the `nprobs` closest
//! clusters) and then computes *exact* distances to every point in the
//! selected clusters. It separates the recall loss caused by the coarse
//! quantiser from the loss caused by PQ encoding, and is a useful middle
//! ground between `Flat` and `IVFPQ` when diagnosing quality issues.

use crate::sim::SimulationConfig;
use juno_common::error::{Error, Result};
use juno_common::index::{AnnIndex, SearchResult, SearchStats};
use juno_common::metric::Metric;
use juno_common::topk::TopK;
use juno_common::vector::VectorSet;
use juno_core::persist::{get_ivf, put_ivf};
use juno_data::snapshot::{kind, SectionWriter, Snapshot, SnapshotWriter};
use juno_quant::ivf::{IvfIndex, IvfTrainConfig};
use std::path::Path;

/// The engine kind word identifying IVF-Flat baseline snapshots.
pub const KIND_IVF_FLAT: u32 = kind(*b"IVFL");

/// Build/search configuration of an [`IvfFlatIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvfFlatConfig {
    /// Number of coarse clusters.
    pub n_clusters: usize,
    /// Number of clusters scanned per query.
    pub nprobs: usize,
    /// Metric.
    pub metric: Metric,
    /// Training seed.
    pub seed: u64,
}

impl Default for IvfFlatConfig {
    fn default() -> Self {
        Self {
            n_clusters: 64,
            nprobs: 8,
            metric: Metric::L2,
            seed: 0x1F5F,
        }
    }
}

/// IVF filtering with exact in-cluster distances.
#[derive(Debug, Clone)]
pub struct IvfFlatIndex {
    ivf: IvfIndex,
    points: VectorSet,
    nprobs: usize,
    sim: SimulationConfig,
}

impl IvfFlatIndex {
    /// Trains the coarse quantiser and builds the index.
    ///
    /// # Errors
    ///
    /// Propagates k-means / configuration errors.
    pub fn build(points: VectorSet, config: &IvfFlatConfig) -> Result<Self> {
        if config.nprobs == 0 {
            return Err(Error::invalid_config("nprobs must be positive"));
        }
        let ivf = IvfIndex::train(
            &points,
            &IvfTrainConfig {
                n_clusters: config.n_clusters,
                metric: config.metric,
                seed: config.seed,
                ..IvfTrainConfig::default()
            },
        )?;
        Ok(Self {
            ivf,
            points,
            nprobs: config.nprobs,
            sim: SimulationConfig::default(),
        })
    }

    /// Replaces the GPU simulation configuration (builder style).
    pub fn with_simulation(mut self, sim: SimulationConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Changes the number of probed clusters (search-time knob).
    pub fn set_nprobs(&mut self, nprobs: usize) {
        self.nprobs = nprobs.max(1);
    }

    /// The number of probed clusters.
    pub fn nprobs(&self) -> usize {
        self.nprobs
    }

    /// Borrow of the underlying IVF structure.
    pub fn ivf(&self) -> &IvfIndex {
        &self.ivf
    }

    /// Serialises the index into snapshot bytes (kind [`KIND_IVF_FLAT`]).
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut writer = SnapshotWriter::new(KIND_IVF_FLAT);
        let mut conf = SectionWriter::new();
        conf.put_u64(self.nprobs as u64);
        writer.add_section(*b"CONF", conf);
        let mut ivfc = SectionWriter::new();
        put_ivf(&mut ivfc, &self.ivf);
        writer.add_section(*b"IVFC", ivfc);
        let mut pnts = SectionWriter::new();
        pnts.put_vector_set(&self.points);
        writer.add_section(*b"PNTS", pnts);
        writer.finish()
    }

    /// Rebuilds an index from snapshot bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for malformed or mismatched snapshots.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self> {
        let snap = Snapshot::parse(bytes)?;
        if snap.kind() != KIND_IVF_FLAT {
            return Err(Error::corrupted(
                "snapshot is not an IVF-Flat baseline snapshot",
            ));
        }
        let mut r = snap.section(*b"CONF")?;
        let nprobs = r.get_usize()?;
        r.expect_end()?;
        let mut r = snap.section(*b"IVFC")?;
        let ivf = get_ivf(&mut r)?;
        r.expect_end()?;
        let mut r = snap.section(*b"PNTS")?;
        let points = r.get_vector_set()?;
        r.expect_end()?;
        if nprobs == 0 || points.len() != ivf.labels().len() || points.dim() != ivf.dim() {
            return Err(Error::corrupted(
                "IVF-Flat snapshot sections are mutually inconsistent",
            ));
        }
        Ok(Self {
            ivf,
            points,
            nprobs,
            sim: SimulationConfig::default(),
        })
    }

    /// Writes the snapshot to a file **atomically** (temp file + fsync +
    /// rename, rotating the previous snapshot to a `.prev` generation), so a
    /// crash mid-save can never leave a torn snapshot as the only copy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the file cannot be written.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<()> {
        juno_common::atomic_file::write_atomic(path.as_ref(), &self.to_snapshot_bytes())
    }

    /// Loads an index from a snapshot file, falling back to the `.prev`
    /// generation when the newest file is torn.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and the decoding failure of the newest
    /// readable candidate.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Self> {
        juno_common::atomic_file::load_newest(
            path.as_ref(),
            |p| std::fs::read(p),
            |bytes| Self::from_snapshot_bytes(&bytes),
        )
    }
}

impl AnnIndex for IvfFlatIndex {
    fn metric(&self) -> Metric {
        self.ivf.metric()
    }

    fn dim(&self) -> usize {
        self.points.dim()
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn search(&self, query: &[f32], k: usize) -> Result<SearchResult> {
        if k == 0 {
            return Err(Error::invalid_config("k must be positive"));
        }
        let filter = self.ivf.filter(query, self.nprobs)?;
        let mut topk = TopK::new(k, self.metric());
        let mut candidates = 0usize;
        for &c in &filter.clusters {
            for &pid in self.ivf.list(c)? {
                let row = self.points.row(pid as usize);
                topk.push(pid as u64, self.metric().distance(query, row));
                candidates += 1;
            }
        }
        let mut stats = SearchStats {
            filter_distances: filter.distance_computations,
            candidates,
            accumulations: candidates * self.dim(),
            ..SearchStats::default()
        };
        // Exact in-cluster distances are full-dimension scans: model them as a
        // "distance calculation" over `candidates` points of `dim` additions.
        let simulated_us = self.sim.fill_ivfpq_times(
            &mut stats,
            self.ivf.n_clusters(),
            self.dim(),
            0,
            1,
            candidates,
            self.dim(),
        );
        Ok(SearchResult {
            neighbors: topk.into_sorted_vec(),
            simulated_us,
            stats,
        })
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    fn snapshot(&self) -> Result<Vec<u8>> {
        Ok(self.to_snapshot_bytes())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        *self = IvfFlatIndex::from_snapshot_bytes(bytes)?;
        Ok(())
    }

    fn name(&self) -> String {
        format!("IVF{}-Flat(nprobs={})", self.ivf.n_clusters(), self.nprobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::recall::recall_at;
    use juno_data::profiles::DatasetProfile;

    fn build_small() -> (juno_data::profiles::Dataset, IvfFlatIndex) {
        let ds = DatasetProfile::DeepLike.generate(3_000, 20, 9).unwrap();
        let index = IvfFlatIndex::build(
            ds.points.clone(),
            &IvfFlatConfig {
                n_clusters: 32,
                nprobs: 4,
                metric: ds.metric(),
                seed: 1,
            },
        )
        .unwrap();
        (ds, index)
    }

    #[test]
    fn reasonable_recall_with_few_probes() {
        let (ds, index) = build_small();
        let gt = ds.ground_truth(10).unwrap();
        let retrieved: Vec<Vec<u64>> = ds
            .queries
            .iter()
            .map(|q| index.search(q, 10).unwrap().ids())
            .collect();
        let recall = recall_at(&retrieved, &gt, 10, 10).unwrap();
        assert!(recall > 0.6, "recall {recall} too low for nprobs=4/32");
    }

    #[test]
    fn full_probing_equals_exact_search() {
        let (ds, mut index) = build_small();
        index.set_nprobs(32);
        let gt = ds.ground_truth(5).unwrap();
        for (qi, q) in ds.queries.iter().enumerate() {
            let ids = index.search(q, 5).unwrap().ids();
            assert_eq!(ids, gt.truth[qi], "query {qi}");
        }
    }

    #[test]
    fn more_probes_never_reduce_recall() {
        let (ds, mut index) = build_small();
        let gt = ds.ground_truth(10).unwrap();
        let mut last = 0.0;
        for nprobs in [1, 2, 8, 32] {
            index.set_nprobs(nprobs);
            let retrieved: Vec<Vec<u64>> = ds
                .queries
                .iter()
                .map(|q| index.search(q, 10).unwrap().ids())
                .collect();
            let recall = recall_at(&retrieved, &gt, 10, 10).unwrap();
            assert!(
                recall >= last - 0.05,
                "recall dropped substantially when increasing nprobs to {nprobs}"
            );
            last = recall;
        }
    }

    #[test]
    fn stats_reflect_probed_fraction() {
        let (ds, index) = build_small();
        let res = index.search(ds.queries.row(0), 10).unwrap();
        assert_eq!(res.stats.filter_distances, 32);
        assert!(res.stats.candidates < ds.points.len());
        assert!(res.stats.candidates > 0);
        assert!(res.simulated_us > 0.0);
        assert!(index.name().starts_with("IVF32-Flat"));
        assert_eq!(index.nprobs(), 4);
        assert_eq!(index.ivf().n_clusters(), 32);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let (ds, index) = build_small();
        let bytes = index.to_snapshot_bytes();
        let restored = IvfFlatIndex::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), index.len());
        assert_eq!(restored.nprobs(), index.nprobs());
        for q in ds.queries.iter() {
            let a = index.search(q, 10).unwrap();
            let b = restored.search(q, 10).unwrap();
            assert_eq!(a.ids(), b.ids());
            for (na, nb) in a.neighbors.iter().zip(&b.neighbors) {
                assert_eq!(na.distance.to_bits(), nb.distance.to_bits());
            }
        }
        for len in (0..bytes.len()).step_by(257) {
            assert!(IvfFlatIndex::from_snapshot_bytes(&bytes[..len]).is_err());
        }
        assert!(index.supports_snapshot());
        assert!(IvfFlatIndex::load_snapshot("/nonexistent/x.snap").is_err());
    }

    #[test]
    fn invalid_configs_rejected() {
        let ds = DatasetProfile::DeepLike.generate(200, 1, 3).unwrap();
        assert!(IvfFlatIndex::build(
            ds.points.clone(),
            &IvfFlatConfig {
                nprobs: 0,
                ..IvfFlatConfig::default()
            }
        )
        .is_err());
        let index = IvfFlatIndex::build(ds.points.clone(), &IvfFlatConfig::default()).unwrap();
        assert!(index.search(ds.queries.row(0), 0).is_err());
        assert!(index.search(&[0.0; 3], 1).is_err());
    }
}
