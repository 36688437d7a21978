//! The FAISS-style IVFPQ baseline with dense L2-LUT construction.
//!
//! This is the pipeline the paper profiles in Section 3 and competes against
//! in Section 6: filtering (stage A), dense per-cluster LUT construction
//! (stages B–C) and distance calculation over all candidate points (stage D).
//! Both L2 and inner-product metrics are supported; for MIPS the LUT holds
//! per-subspace inner products and the per-cluster centroid term is added
//! once per candidate, following the additive decomposition
//! `IP(q, c + r) = IP(q, c) + Σ_s IP(q_s, r_s)`.
//!
//! Stage D is the shared scan driver ([`juno_quant::scan`]) over the same
//! list storage ([`IvfListCodes`]) the JUNO engine uses, so a comparison
//! between the two measures what the LUT is, not how the lists are walked.

use crate::sim::SimulationConfig;
use juno_common::error::{Error, Result};
use juno_common::index::{AnnIndex, Neighbor, SearchResult, SearchStats};
use juno_common::kernel::QuantizedLut;
use juno_common::metric::{inner_product, Metric};
use juno_common::snapshot::{kind, SectionWriter, Snapshot, SnapshotWriter};
use juno_common::vector::VectorSet;
use juno_core::persist::{
    get_codes, get_ivf, get_metric, get_pq, put_codes, put_ivf, put_metric, put_pq,
};
use juno_quant::ivf::{FilterResult, IvfIndex, IvfTrainConfig};
use juno_quant::layout::IvfListCodes;
use juno_quant::pq::{EncodedPoints, PqTrainConfig, ProductQuantizer};
use juno_quant::scan::{self, ScanArena, ScanCounters, ScanEngine};
use std::path::Path;

/// The engine kind word identifying IVFPQ baseline snapshots.
pub const KIND_IVFPQ: u32 = kind(*b"IVPQ");

/// Build/search configuration of an [`IvfPqIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvfPqConfig {
    /// Number of coarse clusters (`C`).
    pub n_clusters: usize,
    /// Number of clusters scanned per query (`nprobs`).
    pub nprobs: usize,
    /// Number of PQ subspaces (`D/M`), e.g. 48 for DEEP.
    pub pq_subspaces: usize,
    /// Codebook entries per subspace (`E`), typically 256.
    pub pq_entries: usize,
    /// Metric.
    pub metric: Metric,
    /// Training seed.
    pub seed: u64,
}

impl Default for IvfPqConfig {
    fn default() -> Self {
        Self {
            n_clusters: 64,
            nprobs: 8,
            pq_subspaces: 16,
            pq_entries: 256,
            metric: Metric::L2,
            seed: 0xFA15,
        }
    }
}

/// The FAISS-style `IVFx,PQy` index.
#[derive(Debug, Clone)]
pub struct IvfPqIndex {
    ivf: IvfIndex,
    pq: ProductQuantizer,
    /// Dataset-order codes, one row per id ever allocated (what snapshots
    /// persist).
    codes: EncodedPoints,
    /// The same codes IVF-list-contiguous — what the scan reads, and the
    /// source of truth for mutation: inserts are tail appends, removes are
    /// tombstone bits, [`AnnIndex::compact`] restores the block view.
    list_codes: IvfListCodes,
    metric: Metric,
    nprobs: usize,
    sim: SimulationConfig,
    /// Whether the quantised prune pass runs (results are bit-identical
    /// either way; off exposes the dense reference scan).
    fastscan: bool,
}

/// One expanded `(query, probed cluster)` pair: the dense residual LUT and
/// the MIPS centroid term (`0` under L2).
#[derive(Debug, Default)]
pub struct PqSlot {
    flat: Vec<f32>,
    centroid_term: f32,
}

impl IvfPqIndex {
    /// Trains the coarse quantiser + PQ codebooks and encodes every point.
    ///
    /// # Errors
    ///
    /// Propagates training/configuration errors from the IVF and PQ stages.
    pub fn build(points: &VectorSet, config: &IvfPqConfig) -> Result<Self> {
        if config.nprobs == 0 {
            return Err(Error::invalid_config("nprobs must be positive"));
        }
        let ivf = IvfIndex::train(
            points,
            &IvfTrainConfig {
                n_clusters: config.n_clusters,
                metric: config.metric,
                seed: config.seed,
                ..IvfTrainConfig::default()
            },
        )?;
        let residuals = ivf.point_residuals(points)?;
        let pq = ProductQuantizer::train(
            &residuals,
            &PqTrainConfig {
                num_subspaces: config.pq_subspaces,
                entries_per_subspace: config.pq_entries,
                seed: config.seed ^ 0xBEEF,
                ..PqTrainConfig::default()
            },
        )?;
        let codes = pq.encode(&residuals)?;
        let list_codes = IvfListCodes::build(ivf.labels(), &codes, config.n_clusters)?;
        Ok(Self {
            ivf,
            pq,
            codes,
            list_codes,
            metric: config.metric,
            nprobs: config.nprobs,
            sim: SimulationConfig::default(),
            fastscan: true,
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

    /// Enables or disables the quantised fast-scan prune pass (final
    /// results are bit-identical either way).
    pub fn set_fastscan(&mut self, enabled: bool) {
        self.fastscan = enabled;
    }

    /// Whether the fast-scan prune pass is active.
    pub fn fastscan_enabled(&self) -> bool {
        self.fastscan
    }

    /// Borrow of the coarse quantiser.
    pub fn ivf(&self) -> &IvfIndex {
        &self.ivf
    }

    /// Borrow of the trained product quantiser.
    pub fn pq(&self) -> &ProductQuantizer {
        &self.pq
    }

    /// Borrow of the encoded points.
    pub fn codes(&self) -> &EncodedPoints {
        &self.codes
    }

    /// Borrow of the IVF-list-contiguous code layout the scan reads.
    pub fn list_codes(&self) -> &IvfListCodes {
        &self.list_codes
    }

    /// Inserts one vector: coarse-assigns it with the k-means rule, encodes
    /// its residual with the existing codebooks and appends it to the
    /// cluster's tail (scanned exactly until the next
    /// [`AnnIndex::compact`]). Returns the new id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] for a wrong dimension; validation
    /// happens before any state is touched.
    pub fn insert(&mut self, vector: &[f32]) -> Result<u64> {
        if vector.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: vector.len(),
            });
        }
        let cluster = self.ivf.assign(vector)?;
        let residual = self.ivf.query_residual(vector, cluster)?;
        let code = self.pq.encode_one(&residual)?;
        let id = self.list_codes.append(cluster, &code)?;
        let ivf_id = self.ivf.push_assignment(cluster)?;
        debug_assert_eq!(id, ivf_id, "layout and IVF id allocation diverged");
        self.codes.push(&code)?;
        Ok(id as u64)
    }

    /// Tombstones the point with the given id — O(1); the scan skips it from
    /// the next query on and [`AnnIndex::compact`] reclaims the record (ids
    /// are positions and never renumbered). Returns `Ok(true)` when the id
    /// was indexed and live.
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` for trait conformity.
    pub fn remove(&mut self, id: u64) -> Result<bool> {
        Ok(u32::try_from(id).is_ok_and(|id| self.list_codes.remove(id)))
    }

    /// Serialises the index into snapshot bytes (kind [`KIND_IVFPQ`]). The
    /// format predates the shared list storage and is unchanged: removed ids
    /// are encoded by their absence from the stored inverted lists, and
    /// `num_points` is written for compatibility (readers re-derive it).
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut writer = SnapshotWriter::new(KIND_IVFPQ);
        let mut conf = SectionWriter::new();
        put_metric(&mut conf, self.metric);
        conf.put_u64(self.nprobs as u64);
        conf.put_u64(self.len() as u64);
        writer.add_section(*b"CONF", conf);
        let live_lists = (0..self.ivf.n_clusters())
            .map(|c| {
                let list = self.ivf.list(c).expect("cluster id in range");
                let live = list.iter().filter(|&&id| !self.list_codes.is_deleted(id));
                live.copied().collect()
            })
            .collect();
        let live_ivf = IvfIndex::from_parts_with_lists(
            self.ivf.centroids().clone(),
            self.ivf.labels().to_vec(),
            live_lists,
            self.metric,
        )
        .expect("dropping ids from valid lists keeps them valid");
        let mut ivfc = SectionWriter::new();
        put_ivf(&mut ivfc, &live_ivf);
        writer.add_section(*b"IVFC", ivfc);
        let mut pqcb = SectionWriter::new();
        put_pq(&mut pqcb, &self.pq);
        writer.add_section(*b"PQCB", pqcb);
        let mut code = SectionWriter::new();
        put_codes(&mut code, &self.codes);
        writer.add_section(*b"CODE", code);
        writer.finish()
    }

    /// Rebuilds an index from snapshot bytes: the list storage is rebuilt
    /// from labels + codes, with every id absent from the stored inverted
    /// lists tombstoned and compacted away.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for malformed or mismatched snapshots —
    /// including a stored point count that disagrees with the stored lists.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self> {
        let snap = Snapshot::parse(bytes)?;
        if snap.kind() != KIND_IVFPQ {
            return Err(Error::corrupted(
                "snapshot is not an IVFPQ baseline snapshot",
            ));
        }
        let mut r = snap.section(*b"CONF")?;
        let metric = get_metric(&mut r)?;
        let nprobs = r.get_usize()?;
        let num_points = r.get_usize()?;
        r.expect_end()?;
        let mut r = snap.section(*b"IVFC")?;
        let ivf = get_ivf(&mut r)?;
        r.expect_end()?;
        let mut r = snap.section(*b"PQCB")?;
        let pq = get_pq(&mut r)?;
        r.expect_end()?;
        let mut r = snap.section(*b"CODE")?;
        let codes = get_codes(&mut r)?;
        r.expect_end()?;
        let inconsistent = || Error::corrupted("IVFPQ snapshot sections are mutually inconsistent");
        if nprobs == 0
            || ivf.labels().len() != codes.len()
            || pq.num_subspaces() != codes.num_subspaces()
            || ivf.dim() != pq.dim()
            // Every stored code must address a live codebook entry; both
            // the dense-LUT lookup and the fast-scan kernel index rows
            // without per-lookup bounds checks.
            || codes
                .as_flat()
                .iter()
                .any(|&c| (c as usize) >= pq.entries_per_subspace())
        {
            return Err(inconsistent());
        }
        let mut list_codes = IvfListCodes::build(ivf.labels(), &codes, ivf.n_clusters())
            .map_err(|_| inconsistent())?;
        let mut listed = vec![false; codes.len()];
        for c in 0..ivf.n_clusters() {
            for &id in ivf.list(c)? {
                listed[id as usize] = true;
            }
        }
        list_codes.retain_live(&listed);
        if num_points != list_codes.len() {
            return Err(Error::corrupted(format!(
                "IVFPQ snapshot claims {num_points} points but its lists hold {}",
                list_codes.len()
            )));
        }
        Ok(Self {
            ivf,
            pq,
            codes,
            list_codes,
            metric,
            nprobs,
            sim: SimulationConfig::default(),
            fastscan: true,
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

/// What is IVFPQ about the shared scan ([`juno_quant::scan`]): a query's plan
/// is its filter output, a probe expands into the dense `S×E` residual LUT,
/// and a candidate's score is the flat ADC sum plus the centroid term.
impl ScanEngine for IvfPqIndex {
    type Plan = FilterResult;
    type Slot = PqSlot;

    fn lists(&self) -> &IvfListCodes {
        &self.list_codes
    }

    fn rank_metric(&self) -> Metric {
        self.metric
    }

    fn fastscan(&self) -> bool {
        self.fastscan
    }

    fn plan(&self, query: &[f32]) -> Result<FilterResult> {
        self.ivf.filter(query, self.nprobs)
    }

    fn probes<'p>(&self, plan: &'p FilterResult) -> &'p [usize] {
        &plan.clusters
    }

    fn new_slot(&self) -> PqSlot {
        PqSlot::default()
    }

    /// For L2 the LUT rows are squared distances between the query
    /// *residual* projection and the codebook entries; for MIPS they are
    /// inner products between the query projection and the entries, and the
    /// centroid contribution is constant per cluster.
    fn expand(
        &self,
        query: &[f32],
        _plan: &FilterResult,
        _probe: usize,
        cluster: usize,
        slot: &mut PqSlot,
    ) -> usize {
        // `plan` validated the query dimension and produced the cluster.
        const VALID: &str = "query and cluster were validated by the filter stage";
        match self.metric {
            Metric::L2 => {
                let residual = self.ivf.query_residual(query, cluster).expect(VALID);
                self.pq
                    .dense_lut_into(&residual, &mut slot.flat)
                    .expect(VALID);
                slot.centroid_term = 0.0;
            }
            Metric::InnerProduct => {
                let sub_dim = self.pq.sub_dim();
                let entries = self.pq.entries_per_subspace();
                slot.flat.clear();
                slot.flat.resize(self.pq.num_subspaces() * entries, 0.0);
                for (s, cb) in self.pq.codebooks().iter().enumerate() {
                    let proj = &query[s * sub_dim..(s + 1) * sub_dim];
                    let row = &mut slot.flat[s * entries..(s + 1) * entries];
                    for (o, e) in row.iter_mut().zip(cb.entries().iter()) {
                        *o = inner_product(proj, e);
                    }
                }
                slot.centroid_term = inner_product(query, self.ivf.centroid(cluster).expect(VALID));
            }
        }
        // Dense tables: `finish` counts their work from the plan.
        0
    }

    /// L2 takes the LUT values as-is ("lower is better"); MIPS negates them
    /// and folds the negated centroid term into the constant — the same
    /// score space as the JUNO engine's prune pass.
    fn quantize(&self, slot: &PqSlot, qlut: &mut QuantizedLut) {
        let subspaces = self.pq.num_subspaces();
        let entries = self.pq.entries_per_subspace();
        match self.metric {
            Metric::L2 => qlut.build(&slot.flat, subspaces, entries, 0.0),
            Metric::InnerProduct => {
                qlut.build_selective(
                    &slot.flat,
                    subspaces,
                    entries,
                    -slot.centroid_term,
                    0.0,
                    true,
                );
            }
        }
    }

    #[inline]
    fn score(&self, slot: &PqSlot, code: &[u8], ctr: &mut ScanCounters) -> Option<f32> {
        ctr.accumulations += code.len();
        let entries = self.pq.entries_per_subspace();
        Some(slot.centroid_term + ProductQuantizer::adc_distance_flat(&slot.flat, entries, code))
    }

    fn finish(
        &self,
        plan: &FilterResult,
        neighbors: Vec<Neighbor>,
        ctr: &ScanCounters,
    ) -> SearchResult {
        let subspaces = self.pq.num_subspaces();
        let lut_distances = plan.clusters.len() * self.pq.entries_per_subspace() * subspaces;
        let mut stats = SearchStats {
            filter_distances: plan.distance_computations,
            lut_distances,
            candidates: ctr.candidates,
            accumulations: ctr.accumulations,
            pruned_points: ctr.pruned_points,
            pruned_blocks: ctr.pruned_blocks,
            pruned_clusters: ctr.pruned_clusters,
            lut_builds: ctr.lut_builds,
            lut_reuses: ctr.lut_reuses,
            ..SearchStats::default()
        };
        let simulated_us = self.sim.fill_ivfpq_times(
            &mut stats,
            self.ivf.n_clusters(),
            self.dim(),
            lut_distances,
            self.pq.sub_dim(),
            ctr.candidates,
            subspaces,
        );
        SearchResult {
            neighbors,
            simulated_us,
            stats,
        }
    }
}

impl AnnIndex for IvfPqIndex {
    fn metric(&self) -> Metric {
        self.metric
    }

    fn dim(&self) -> usize {
        self.ivf.dim()
    }

    fn len(&self) -> usize {
        self.list_codes.len()
    }

    fn search(&self, query: &[f32], k: usize) -> Result<SearchResult> {
        scan::search_one(self, query, k, &mut ScanArena::new(PqSlot::default()))
    }

    /// Batch search through the shared driver: cluster-major grouped —
    /// bit-identical (ids and distance bits) to a sequential
    /// [`AnnIndex::search`] loop — with tiny batches run query-major.
    fn search_batch_threads(
        &self,
        queries: &VectorSet,
        k: usize,
        num_threads: usize,
    ) -> Result<Vec<SearchResult>> {
        scan::search_batch(self, queries, k, num_threads)
    }

    fn supports_mutation(&self) -> bool {
        true
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    fn insert(&mut self, vector: &[f32]) -> Result<u64> {
        IvfPqIndex::insert(self, vector)
    }

    fn remove(&mut self, id: u64) -> Result<bool> {
        IvfPqIndex::remove(self, id)
    }

    /// Merges append tails into the block view and drops tombstoned records
    /// — exactly how the JUNO engine restores its scan layout.
    fn compact(&mut self) -> Result<()> {
        self.list_codes.compact();
        Ok(())
    }

    fn ids(&self) -> Vec<u64> {
        self.list_codes.live_ids()
    }

    fn snapshot(&self) -> Result<Vec<u8>> {
        Ok(self.to_snapshot_bytes())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        *self = IvfPqIndex::from_snapshot_bytes(bytes)?;
        Ok(())
    }

    fn name(&self) -> String {
        format!(
            "IVF{},PQ{}(nprobs={})",
            self.ivf.n_clusters(),
            self.pq.num_subspaces(),
            self.nprobs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::recall::{r1_at_100, recall_at};
    use juno_data::profiles::DatasetProfile;

    fn build(
        profile: DatasetProfile,
        n: usize,
        q: usize,
        cfg: IvfPqConfig,
    ) -> (juno_data::profiles::Dataset, IvfPqIndex) {
        let ds = profile.generate(n, q, 17).unwrap();
        let index = IvfPqIndex::build(&ds.points, &cfg).unwrap();
        (ds, index)
    }

    fn deep_cfg() -> IvfPqConfig {
        IvfPqConfig {
            n_clusters: 32,
            nprobs: 8,
            pq_subspaces: 48,
            pq_entries: 64,
            metric: Metric::L2,
            seed: 3,
        }
    }

    #[test]
    fn recall_is_reasonable_on_clustered_data() {
        let (ds, index) = build(DatasetProfile::DeepLike, 4_000, 20, deep_cfg());
        let gt = ds.ground_truth(1).unwrap();
        let retrieved: Vec<Vec<u64>> = ds
            .queries
            .iter()
            .map(|q| index.search(q, 100).unwrap().ids())
            .collect();
        let r = r1_at_100(&retrieved, &gt).unwrap();
        assert!(r > 0.8, "R1@100 {r} too low for an IVFPQ baseline");
    }

    #[test]
    fn recall_improves_with_nprobs() {
        let (ds, mut index) = build(DatasetProfile::DeepLike, 3_000, 20, deep_cfg());
        let gt = ds.ground_truth(10).unwrap();
        let recall_with = |index: &IvfPqIndex| {
            let retrieved: Vec<Vec<u64>> = ds
                .queries
                .iter()
                .map(|q| index.search(q, 10).unwrap().ids())
                .collect();
            recall_at(&retrieved, &gt, 10, 10).unwrap()
        };
        index.set_nprobs(1);
        let low = recall_with(&index);
        index.set_nprobs(16);
        let high = recall_with(&index);
        assert!(
            high >= low,
            "recall should not drop with more probes ({low} -> {high})"
        );
    }

    #[test]
    fn simulated_time_grows_with_nprobs() {
        let (ds, mut index) = build(DatasetProfile::DeepLike, 3_000, 5, deep_cfg());
        index.set_nprobs(2);
        let t2 = index.search(ds.queries.row(0), 10).unwrap().simulated_us;
        index.set_nprobs(16);
        let t16 = index.search(ds.queries.row(0), 10).unwrap().simulated_us;
        assert!(t16 > t2, "more probes must cost more simulated time");
    }

    #[test]
    fn stats_reflect_dense_lut_work() {
        let (ds, index) = build(DatasetProfile::DeepLike, 2_000, 5, deep_cfg());
        let res = index.search(ds.queries.row(0), 10).unwrap();
        assert_eq!(res.stats.filter_distances, 32);
        // Dense LUT: nprobs × E × subspaces pairwise distances.
        assert_eq!(res.stats.lut_distances, 8 * 64 * 48);
        assert!(res.stats.candidates > 0);
        // `candidates` counts considered points (incl. bound-pruned ones);
        // accumulations reflect only the exactly re-ranked remainder.
        assert_eq!(
            res.stats.accumulations,
            (res.stats.candidates - res.stats.pruned_points) * 48
        );
        assert!(res.stats.lut_us > res.stats.filter_us);
    }

    #[test]
    fn inner_product_metric_ranks_by_dot_product() {
        let cfg = IvfPqConfig {
            n_clusters: 16,
            nprobs: 8,
            pq_subspaces: 40,
            pq_entries: 32,
            metric: Metric::InnerProduct,
            seed: 5,
        };
        let (ds, index) = build(DatasetProfile::TtiLike, 2_000, 10, cfg);
        let gt = ds.ground_truth(10).unwrap();
        let retrieved: Vec<Vec<u64>> = ds
            .queries
            .iter()
            .map(|q| index.search(q, 100).unwrap().ids())
            .collect();
        let r = recall_at(&retrieved, &gt, 10, 100).unwrap();
        assert!(r > 0.5, "MIPS recall {r} too low");
        // Raw distances are inner products: best neighbour should have the
        // largest value.
        let res = index.search(ds.queries.row(0), 5).unwrap();
        for w in res.neighbors.windows(2) {
            assert!(w[0].distance >= w[1].distance);
        }
    }

    #[test]
    fn mutation_inserts_and_removes_points() {
        let (ds, mut index) = build(DatasetProfile::DeepLike, 1_500, 4, deep_cfg());
        let n0 = index.len();
        let probe = ds.points.row(7).to_vec();
        let id = index.insert(&probe).unwrap();
        assert_eq!(id as usize, n0);
        assert_eq!(index.len(), n0 + 1);
        assert!(index.supports_mutation());
        let res = index.search(&probe, 5).unwrap();
        assert!(res.ids().contains(&id), "inserted duplicate not retrieved");

        assert!(index.remove(id).unwrap());
        assert!(!index.remove(id).unwrap());
        assert!(!index.remove(u64::MAX).unwrap());
        assert_eq!(index.len(), n0);
        assert!(!index.search(&probe, 5).unwrap().ids().contains(&id));
        assert!(index.insert(&[1.0; 3]).is_err());
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical_including_mutation() {
        let (ds, mut index) = build(DatasetProfile::DeepLike, 1_200, 6, deep_cfg());
        for i in 0..25 {
            index.insert(ds.points.row(i * 13)).unwrap();
        }
        for id in (0..120u64).step_by(4) {
            assert!(index.remove(id).unwrap());
        }
        let bytes = index.snapshot().unwrap();
        let restored = IvfPqIndex::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), index.len());
        for q in ds.queries.iter() {
            let a = index.search(q, 20).unwrap();
            let b = restored.search(q, 20).unwrap();
            assert_eq!(a.ids(), b.ids());
            for (na, nb) in a.neighbors.iter().zip(&b.neighbors) {
                assert_eq!(na.distance.to_bits(), nb.distance.to_bits());
            }
        }
        // Corruption and truncation are rejected without panicking.
        for len in (0..bytes.len()).step_by(131) {
            assert!(IvfPqIndex::from_snapshot_bytes(&bytes[..len]).is_err());
        }
        let mut wrong_kind = bytes.clone();
        wrong_kind[12] ^= 0xFF;
        assert!(IvfPqIndex::from_snapshot_bytes(&wrong_kind).is_err());
        // In-place trait restore.
        let (_, mut other) = build(DatasetProfile::DeepLike, 800, 2, deep_cfg());
        other.restore(&bytes).unwrap();
        assert_eq!(other.len(), index.len());
        assert!(index.supports_snapshot());
    }

    #[test]
    fn fastscan_results_are_bit_identical_to_the_dense_scan() {
        for (profile, metric, pq_entries) in [
            (DatasetProfile::DeepLike, Metric::L2, 64),
            (DatasetProfile::DeepLike, Metric::L2, 16), // nibble-packed path
            (DatasetProfile::TtiLike, Metric::InnerProduct, 32),
        ] {
            let cfg = IvfPqConfig {
                n_clusters: 24,
                nprobs: 8,
                pq_subspaces: 48,
                pq_entries,
                metric,
                seed: 11,
            };
            let subspaces = if metric == Metric::InnerProduct {
                40
            } else {
                48
            };
            let cfg = IvfPqConfig {
                pq_subspaces: subspaces,
                ..cfg
            };
            let (ds, mut index) = build(profile, 2_000, 10, cfg);
            // Mutate so the rebuilt scan cache also covers surgically edited
            // lists.
            for id in (0..100u64).step_by(7) {
                assert!(index.remove(id).unwrap());
            }
            for i in 0..20 {
                index.insert(ds.points.row(i * 31)).unwrap();
            }
            assert!(index.fastscan_enabled());
            let fast: Vec<_> = ds
                .queries
                .iter()
                .map(|q| index.search(q, 50).unwrap())
                .collect();
            index.set_fastscan(false);
            let exact: Vec<_> = ds
                .queries
                .iter()
                .map(|q| index.search(q, 50).unwrap())
                .collect();
            let mut total_pruned = 0usize;
            for (qi, (f, e)) in fast.iter().zip(&exact).enumerate() {
                assert_eq!(f.ids(), e.ids(), "{metric} E={pq_entries} query {qi}");
                for (nf, ne) in f.neighbors.iter().zip(&e.neighbors) {
                    assert_eq!(
                        nf.distance.to_bits(),
                        ne.distance.to_bits(),
                        "{metric} E={pq_entries} query {qi}"
                    );
                }
                total_pruned +=
                    f.stats.pruned_points + f.stats.pruned_clusters + f.stats.pruned_blocks;
                assert_eq!(e.stats.pruned_points, 0, "dense path never prunes");
            }
            assert!(
                total_pruned > 0,
                "{metric} E={pq_entries}: fast-scan never pruned anything"
            );
        }
    }

    #[test]
    fn accessors_and_validation() {
        let (ds, index) = build(DatasetProfile::DeepLike, 1_000, 2, deep_cfg());
        assert_eq!(index.len(), 1_000);
        assert_eq!(index.dim(), 96);
        assert_eq!(index.nprobs, 8);
        assert_eq!(index.pq().num_subspaces(), 48);
        assert_eq!(index.codes().len(), 1_000);
        assert!(index.name().starts_with("IVF32,PQ48"));
        assert!(index.search(ds.queries.row(0), 0).is_err());
        assert!(index.search(&[0.0; 4], 1).is_err());
        assert!(IvfPqIndex::build(
            &ds.points,
            &IvfPqConfig {
                nprobs: 0,
                ..deep_cfg()
            }
        )
        .is_err());
    }
}
