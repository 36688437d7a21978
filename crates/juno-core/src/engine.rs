//! The end-to-end JUNO engine.
//!
//! Offline ([`JunoIndex::build`], paper Alg. 1 / Fig. 10 top):
//!
//! 1. first clustering (IVF coarse quantiser, full dimension);
//! 2. second clustering per 2-D subspace over residual projections (the PQ
//!    codebooks);
//! 3. the IVF-list-contiguous code layout ([`IvfListCodes`]): each
//!    cluster's points with their codes, which the scan walks to find the
//!    points encoded with a selected entry (the paper's per-subspace
//!    `Map[c][e]`, Alg. 1 lines 12–14);
//! 4. density maps + threshold regressors per subspace;
//! 5. the traversable RT scene (entries as spheres at `z = 2s + 1`).
//!
//! Online ([`JunoIndex::search`], paper Alg. 2 / Fig. 10 bottom):
//!
//! 1. filtering — identical to IVFPQ;
//! 2. threshold-based selective L2-LUT construction. On the paper's GPU the
//!    RT cores trace one ray per `(probe, subspace)`, the dynamic threshold
//!    expressed as the ray's `t_max`. On a CPU the serving path evaluates
//!    the same hit predicate in closed form instead
//!    (`SceneMapping::select_table`, one vectorised kernel pass per
//!    probe): the plan ([`JunoPlan`]) holds the probes and each subspace's
//!    selection limit, and expanding a probe writes its dense `S×E` table,
//!    each selected entry's exact value and `NaN` for the rest;
//! 3. distance calculation over the probed clusters' codes, either with
//!    exact accumulated distances (JUNO-H) or hit counts (JUNO-L/M).
//!
//! The RT construction itself ([`JunoIndex::build_selective_lut`]: one ray
//! per `(probe, subspace)` walked through the scene's BVH, a CSR
//! [`SelectiveLut`]) no longer serves queries. It is the oracle the
//! closed-form tables are tested against and the source of the RT work
//! counters behind the simulated GPU time, which [`AnnIndex::simulate`]
//! computes for a result on request.

use crate::config::{JunoConfig, QualityMode};
use crate::drift::DriftTracker;
use crate::hitcount::HitCountMode;
use crate::lut::{construct_selective_lut, LutRayRequest, SelectiveLut};
use crate::mapping::SceneMapping;
use crate::pipeline::{QuerySimulator, QueryWork};
use crate::stamp::Fingerprint;
use crate::threshold::{ThresholdModel, ThresholdStrategy, ThresholdTrainConfig};
use juno_common::error::{Error, Result};
use juno_common::index::{
    AnnIndex, BatchPlan, DriftReport, Neighbor, PlanUse, SearchResult, SearchStats,
};
use juno_common::kernel::{self, exact_block_sums, ExactLanes, QuantizedLut, BLOCK_LANES};
use juno_common::metric::{inner_product, Metric};
use juno_common::topk::TopK;
use juno_common::vector::VectorSet;
use juno_quant::ivf::{IvfIndex, IvfTrainConfig};
use juno_quant::layout::IvfListCodes;
use juno_quant::pq::{EncodedPoints, PqTrainConfig, ProductQuantizer};
use juno_quant::scan::{self, BlockRef, ScanArena, ScanCounters, ScanEngine};

/// The JUNO approximate nearest neighbour index.
///
/// Fields are crate-visible so the persistence layer (`crate::persist`) can
/// serialise and rebuild the engine without re-training.
#[derive(Debug, Clone)]
pub struct JunoIndex {
    pub(crate) config: JunoConfig,
    pub(crate) ivf: IvfIndex,
    pub(crate) pq: ProductQuantizer,
    pub(crate) codes: EncodedPoints,
    /// The same codes reordered IVF-list-contiguously (point-major within a
    /// list) so the ADC scan over a probed cluster streams memory
    /// sequentially. Also the source of truth for dynamic mutation: appended
    /// points live in per-cluster tails, deletions are tombstones, and
    /// [`JunoIndex::compact`] restores the contiguous layout.
    pub(crate) list_codes: IvfListCodes,
    pub(crate) threshold_model: ThresholdModel,
    pub(crate) mapping: SceneMapping,
    /// The per-subspace bounds the scene was built with (max thresholds for
    /// L2, query-norm bounds for MIPS) — retained so a snapshot restore can
    /// rebuild the identical scene deterministically.
    pub(crate) scene_bounds: Vec<f32>,
    pub(crate) simulator: QuerySimulator,
    /// Whether the quantised fast-scan prune pass runs ahead of the exact
    /// ADC re-rank (on by default; results are bit-identical either way).
    /// Runtime-only — not persisted in snapshots.
    pub(crate) fastscan: bool,
    /// Raw vectors retained for re-training ([`JunoConfig::retain_vectors`]):
    /// one dense row per id ever allocated — tombstoned ids included, so
    /// replicated shards stay in lockstep — letting
    /// [`JunoIndex::rebuild_for_live`] retrain from exact data instead of PQ
    /// reconstructions. `None` when retention is off.
    pub(crate) raw: Option<VectorSet>,
    /// EWMA drift tracker over insert assignment distances (see
    /// [`crate::drift`]).
    pub(crate) drift: DriftTracker,
    /// Fingerprint of the trained state planning reads
    /// ([`JunoIndex::trained_stamp`]): computed from content at build and
    /// restore, rolled forward by every insert (the one mutation that
    /// touches that state — the density maps), copied by `clone` and
    /// [`JunoIndex::with_live_ids`]. Runtime-only — not persisted.
    pub(crate) trained_stamp: u64,
}

/// The output of [`JunoIndex::build_selective_lut`]: the probed clusters in
/// filter order, the RT-traced selective LUT over them, the RT traversal
/// work, and the per-`(slot, subspace)` thresholds used.
pub(crate) type SelectiveLutParts = (
    Vec<usize>,
    SelectiveLut,
    juno_rt::stats::TraversalStats,
    Vec<Vec<f32>>,
);

/// Reusable per-thread scan state for [`JunoIndex::search_with_scratch`] —
/// the shared driver's arena ([`juno_quant::scan::ScanArena`]) over JUNO's
/// slots, allocated once per worker instead of once per query.
pub(crate) type SearchScratch = ScanArena<JunoSlot>;

/// One query's plan, the engine's [`ScanEngine::Plan`]: computed once per
/// query (once per fleet batch, shared through a [`BatchPlan`]) and read by
/// every probe's visit on every shard. It holds the probed clusters in
/// filter order, the per-subspace thresholds and the limits the selective
/// tables hold each subspace's entries to (`SceneMapping::select_limit`):
/// `O(S)` values, whatever the codebook size. The tables themselves are
/// written where they are read, by [`ScanEngine::expand`].
#[derive(Debug, Clone)]
pub struct JunoPlan {
    probes: Vec<usize>,
    /// Per-subspace thresholds: planar distances (L2) or the scale factor
    /// (MIPS).
    thresholds: Vec<f32>,
    /// Per-subspace selection limits.
    limits: Vec<f32>,
    /// Mean squared threshold: the L2 miss penalty base (an unselected
    /// entry's true distance exceeds its subspace's threshold).
    mean_thr_sq: f32,
}

/// One expanded `(query, probe)` pair of the JUNO engine: the probe's dense
/// `S×E` selective table (`SceneMapping::select_table`: each entry's exact
/// value — `d²` to the probe's residual projection, or the inner product
/// with the query's projection under MIPS — where the scene's hit predicate
/// selects it, `NaN` where it does not), the per-visit constants of the
/// exact arithmetic, and the indicator LUTs the hit-count unit builds
/// instead.
#[derive(Debug)]
pub struct JunoSlot {
    table: Vec<f32>,
    /// The probe's per-subspace projections the table was written from.
    projections: Vec<[f32; 2]>,
    /// The plan's mean squared threshold (see [`JunoPlan`]).
    mean_thr_sq: f32,
    /// `IP(query, centroid)` under MIPS, `0` under L2.
    centroid_term: f32,
    /// Squared inner-sphere (half-threshold) bounds per subspace
    /// (hit-count modes).
    half_sq: Vec<f32>,
    /// 0/1 selection-indicator LUT (hit-count outer counts), stride-padded.
    outer_lut: Vec<u8>,
    /// 0/1 inner-sphere indicator LUT (hit-count reward mode).
    inner_lut: Vec<u8>,
}

impl JunoIndex {
    /// Builds the index over a set of search points.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the configuration is
    /// inconsistent with the data (most notably when `dim != 2 ×
    /// pq_subspaces` — the RT mapping requires 2-D subspaces) and propagates
    /// training errors from the substrates.
    pub fn build(points: &VectorSet, config: &JunoConfig) -> Result<Self> {
        let dim = points.dim();
        config.validate(dim)?;
        if dim != config.pq_subspaces * 2 {
            return Err(Error::invalid_config(format!(
                "the RT-core mapping requires 2-dimensional subspaces: \
                 dim {dim} with {} subspaces gives M = {}",
                config.pq_subspaces,
                dim / config.pq_subspaces
            )));
        }

        // 1. Coarse quantiser + inverted file.
        let ivf = IvfIndex::train(
            points,
            &IvfTrainConfig {
                n_clusters: config.n_clusters,
                metric: config.metric,
                seed: config.seed,
                ..IvfTrainConfig::default()
            },
        )?;

        // 2. PQ codebooks over residual projections. The mean squared
        //    residual norm doubles as the drift baseline: inserts whose
        //    assignment distance drifts away from it signal that these
        //    codebooks no longer describe the data.
        let residuals = ivf.point_residuals(points)?;
        let baseline_mean_sq = {
            let norms = residuals.squared_norms();
            norms.iter().map(|&x| x as f64).sum::<f64>() / norms.len().max(1) as f64
        };
        let pq = ProductQuantizer::train(
            &residuals,
            &PqTrainConfig {
                num_subspaces: config.pq_subspaces,
                entries_per_subspace: config.pq_entries,
                seed: config.seed ^ 0x5147,
                ..PqTrainConfig::default()
            },
        )?;
        let codes = pq.encode(&residuals)?;

        // 3. The IVF-list-contiguous code layout the ADC scan consumes.
        let list_codes = IvfListCodes::build(ivf.labels(), &codes, config.n_clusters)?;

        // 4. Threshold calibration: per-subspace density maps plus regressors
        //    that map region density to the radius containing the top-k
        //    neighbours' projections (paper Section 4.1).
        let threshold_model = ThresholdModel::train(
            points,
            config.metric,
            &ThresholdTrainConfig {
                samples: config.threshold_train_samples,
                target_k: config.threshold_target_k,
                seed: config.seed ^ 0x7157,
                ..ThresholdTrainConfig::default()
            },
        )?;

        // 5. The traversable scene. The bounds vector is retained so a
        //    snapshot restore can rebuild the identical scene.
        let scene_bounds: Vec<f32> = match config.metric {
            Metric::L2 => (0..config.pq_subspaces)
                .map(|s| threshold_model.max_threshold(s))
                .collect::<Result<_>>()?,
            Metric::InnerProduct => {
                // Under MIPS the rays originate at (full) query projections;
                // bound their squared norm with the search points themselves.
                let mut bounds = Vec::with_capacity(config.pq_subspaces);
                for s in 0..config.pq_subspaces {
                    let sub = points.subspace(s * 2, 2)?;
                    let max_sq = sub
                        .iter()
                        .map(|p| p[0] * p[0] + p[1] * p[1])
                        .fold(0.0f32, f32::max);
                    bounds.push(max_sq.max(1e-6) * 1.5);
                }
                bounds
            }
        };
        let mapping = Self::build_mapping(&pq, config.metric, &scene_bounds)?;

        let simulator = QuerySimulator::new(
            config.device.clone(),
            config.execution_mode,
            config.batch_size,
        );

        Ok(Self {
            trained_stamp: Self::trained_stamp(&ivf, &pq, &scene_bounds, &threshold_model),
            config: config.clone(),
            ivf,
            pq,
            codes,
            list_codes,
            threshold_model,
            mapping,
            scene_bounds,
            simulator,
            fastscan: true,
            raw: config.retain_vectors.then(|| points.clone()),
            drift: DriftTracker::from_baseline(baseline_mean_sq),
        })
    }

    /// Content fingerprint of the trained state planning reads: the coarse
    /// centroids (filter, residual ray origins), the PQ codebooks and scene
    /// bounds (the RT scene is a deterministic function of the two) and the
    /// threshold model with its density maps as they stand.
    pub(crate) fn trained_stamp(
        ivf: &IvfIndex,
        pq: &ProductQuantizer,
        scene_bounds: &[f32],
        threshold_model: &ThresholdModel,
    ) -> u64 {
        let mut h = Fingerprint::new();
        h.word(ivf.dim() as u64);
        h.f32s(ivf.centroids().as_flat());
        h.word(pq.codebooks().len() as u64);
        for codebook in pq.codebooks() {
            h.f32s(codebook.entries().as_flat());
        }
        h.f32s(scene_bounds);
        threshold_model.fingerprint_into(&mut h);
        h.finish()
    }

    /// The **plan stamp**: the trained-state fingerprint folded with the
    /// search-time knobs planning reads (`nprobs`, `metric`,
    /// `threshold_scale`, `threshold_strategy`). Two engines with equal
    /// stamps build bit-identical [`JunoPlan`]s for every query, so
    /// one may scan from the other's plans
    /// ([`AnnIndex::search_batch_planned`]).
    pub fn plan_stamp(&self) -> u64 {
        let mut h = Fingerprint::resume(self.trained_stamp);
        h.word(self.config.nprobs as u64);
        h.word(match self.config.metric {
            Metric::L2 => 0,
            Metric::InnerProduct => 1,
        });
        h.word(u64::from(self.config.threshold_scale.to_bits()));
        h.word(match self.config.threshold_strategy {
            ThresholdStrategy::Dynamic => 0,
            ThresholdStrategy::StaticSmall => 1,
            ThresholdStrategy::StaticLarge => 2,
            ThresholdStrategy::Fixed(v) => 3 | u64::from(v.to_bits()) << 32,
        });
        h.finish()
    }

    /// Builds the RT scene for the given metric and per-subspace bounds —
    /// deterministic, so build and snapshot-restore produce bit-identical
    /// traversal behaviour.
    pub(crate) fn build_mapping(
        pq: &ProductQuantizer,
        metric: Metric,
        scene_bounds: &[f32],
    ) -> Result<SceneMapping> {
        match metric {
            Metric::L2 => SceneMapping::build_l2(pq.codebooks(), scene_bounds),
            Metric::InnerProduct => SceneMapping::build_mips(pq.codebooks(), scene_bounds),
        }
    }

    /// Creates a scratch buffer sized for this index — its ranked-visit
    /// buffers fit the largest list — reusable across queries (the batch
    /// path keeps one per worker thread).
    pub fn make_scratch(&self) -> SearchScratch {
        ScanArena::for_lists(self.new_slot(), &self.list_codes)
    }

    /// The engine configuration.
    pub fn config(&self) -> &JunoConfig {
        &self.config
    }

    /// Borrow of the coarse quantiser.
    pub fn ivf(&self) -> &IvfIndex {
        &self.ivf
    }

    /// Borrow of the trained product quantiser.
    pub fn pq(&self) -> &ProductQuantizer {
        &self.pq
    }

    /// Borrow of the PQ codes of the indexed points.
    pub fn codes(&self) -> &EncodedPoints {
        &self.codes
    }

    /// Borrow of the IVF-list-contiguous code layout used by the ADC scan.
    pub fn list_codes(&self) -> &IvfListCodes {
        &self.list_codes
    }

    /// Whether this index serves its hot sections zero-copy from an mmap'd
    /// snapshot (built via [`JunoIndex::load_snapshot_mapped`]).
    pub fn is_mapped(&self) -> bool {
        self.list_codes.is_mapped() || self.codes.is_mapped()
    }

    /// Residency counters of the mapped code layout (`None` when the index
    /// is fully RAM-resident).
    pub fn residency_stats(&self) -> Option<juno_quant::ResidencyStats> {
        self.list_codes.residency_stats()
    }

    /// Borrow of the calibrated threshold model.
    pub fn threshold_model(&self) -> &ThresholdModel {
        &self.threshold_model
    }

    /// Changes the quality mode at search time (no rebuild needed).
    pub fn set_quality(&mut self, quality: QualityMode) {
        self.config.quality = quality;
    }

    /// Enables or disables the quantised fast-scan prune pass at search time.
    ///
    /// Final ids and distance bits are identical either way (the fast-scan
    /// path re-ranks every surviving candidate through the exact ADC
    /// arithmetic and only prunes candidates that provably cannot enter the
    /// top-k); disabling it exposes the plain scalar scan for differential
    /// tests and benchmarks.
    pub fn set_fastscan(&mut self, enabled: bool) {
        self.fastscan = enabled;
    }

    /// Whether the fast-scan prune pass is active.
    pub fn fastscan_enabled(&self) -> bool {
        self.fastscan
    }

    /// Changes the probe count at search time.
    pub fn set_nprobs(&mut self, nprobs: usize) {
        self.config.nprobs = nprobs.max(1);
    }

    /// Changes the user threshold scaling factor at search time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] unless `scale` lies in `(0, 1]`.
    pub fn set_threshold_scale(&mut self, scale: f32) -> Result<()> {
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(Error::invalid_config("threshold_scale must be in (0, 1]"));
        }
        self.config.threshold_scale = scale;
        Ok(())
    }

    /// Changes the threshold strategy at search time.
    pub fn set_threshold_strategy(&mut self, strategy: ThresholdStrategy) {
        self.config.threshold_strategy = strategy;
    }

    /// Changes the execution mode and/or device at search time.
    pub fn set_execution(
        &mut self,
        mode: juno_gpu::pipeline::ExecutionMode,
        device: juno_gpu::device::GpuDevice,
    ) {
        self.config.execution_mode = mode;
        self.config.device = device.clone();
        self.simulator = QuerySimulator::new(device, mode, self.config.batch_size);
    }

    /// Inserts one vector, refreshing the online structures incrementally
    /// instead of rebuilding:
    ///
    /// 1. the coarse assignment replays the k-means rule (nearest centroid);
    /// 2. the residual is encoded with the **existing** PQ codebooks;
    /// 3. the code is appended to the IVF-list layout's cluster tail (the
    ///    selective-LUT scan picks it up through
    ///    [`IvfListCodes::cluster_segments`]);
    /// 4. the threshold calibration's density maps account for the new
    ///    projections (`ThresholdModel::note_inserted_point`).
    ///
    /// Codebooks, regressors and the RT scene are untouched — they are
    /// trained models, valid as long as the data distribution holds, which
    /// is what makes insertion O(C·D + S·E) instead of a full rebuild.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] for a wrong vector dimension;
    /// validation happens before any state is touched.
    pub fn insert(&mut self, vector: &[f32]) -> Result<u64> {
        if vector.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: vector.len(),
            });
        }
        let cluster = self.ivf.assign(vector)?;
        // PQ codebooks were trained on residuals for both metrics.
        let residual = self.ivf.query_residual(vector, cluster)?;
        let code = self.pq.encode_one(&residual)?;

        let id = self.list_codes.append(cluster, &code)?;
        let ivf_id = self.ivf.push_assignment(cluster)?;
        debug_assert_eq!(id, ivf_id, "layout and IVF id allocation diverged");
        self.codes.push(&code)?;
        if let Some(raw) = &mut self.raw {
            raw.push(vector)?;
        }
        self.threshold_model.note_inserted_point(vector)?;
        // The density maps just moved by a deterministic function of
        // `vector`: chain it into the stamp instead of re-hashing them.
        let mut stamp = Fingerprint::resume(self.trained_stamp);
        stamp.f32s(vector);
        self.trained_stamp = stamp.finish();
        self.drift
            .note_insert(residual.iter().map(|&x| x as f64 * x as f64).sum::<f64>());
        Ok(id as u64)
    }

    /// Tombstones the point with the given id; the scan skips it from the
    /// next query on. Storage is reclaimed by [`JunoIndex::compact`].
    ///
    /// Returns `Ok(true)` when the id was live, `Ok(false)` when it was
    /// never assigned or already deleted.
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` for trait conformity.
    pub fn remove(&mut self, id: u64) -> Result<bool> {
        let Ok(id32) = u32::try_from(id) else {
            return Ok(false);
        };
        // Deliberately O(1): the coarse inverted lists are diagnostics-only
        // — the scan path reads `list_codes` — so they keep the tombstoned id
        // rather than paying an O(cluster length) list splice per deletion.
        // Filter with `list_codes.is_deleted` when reading them for
        // diagnostics.
        Ok(self.list_codes.remove(id32))
    }

    /// Compacts the IVF-list code layout: merges append tails into the CSR
    /// base, physically drops tombstoned records and restores id-sorted
    /// point-major contiguity (and with it full scan locality). Search
    /// results are unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when a mapped cluster fails its
    /// deferred content verification while being pulled in for the rewrite.
    pub fn compact(&mut self) -> Result<()> {
        // Compaction rewrites every cluster into owned storage; verify all
        // mapped content first so a corrupt backing file cannot be folded
        // into a "clean" compacted layout.
        self.list_codes.ensure_resident_all()?;
        self.list_codes.compact();
        Ok(())
    }

    /// A point-in-time drift reading: the EWMA-vs-baseline assignment
    /// distance ratio plus structural tail-fill ratios of the scan layout
    /// (see [`DriftReport`] for signal semantics).
    pub(crate) fn drift_report(&self) -> DriftReport {
        let lc = &self.list_codes;
        let mut max_fill = 0.0f64;
        let mut sum_fill = 0.0f64;
        let mut counted = 0u64;
        for c in 0..lc.num_clusters() {
            let base = lc.cluster_ids(c).len();
            let tail = lc.cluster_tail(c).0.len();
            let total = base + tail;
            if total == 0 {
                continue;
            }
            let fill = tail as f64 / total as f64;
            max_fill = max_fill.max(fill);
            sum_fill += fill;
            counted += 1;
        }
        DriftReport {
            baseline_mean_sq: self.drift.baseline_mean_sq(),
            ewma_sq: self.drift.ewma_sq(),
            drift_ratio: self.drift.drift_ratio(),
            inserts_tracked: self.drift.inserts(),
            max_tail_fill: max_fill,
            mean_tail_fill: if counted == 0 {
                0.0
            } else {
                sum_fill / counted as f64
            },
        }
    }

    /// Validates, sorts and deduplicates a caller-supplied live-id set
    /// against the id allocator.
    fn sorted_live(live: &[u64], next_id: u32) -> Result<Vec<u32>> {
        let mut out = Vec::with_capacity(live.len());
        for &id in live {
            let id32 = u32::try_from(id)
                .ok()
                .filter(|&i| i < next_id)
                .ok_or_else(|| {
                    Error::invalid_config(format!(
                        "live id {id} is beyond the id allocator ({next_id})"
                    ))
                })?;
            out.push(id32);
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// The (exact or reconstructed) vectors of the given live ids, in the
    /// given order. Uses retained raw rows when available, else decodes
    /// `centroid + PQ(residual code)` — lossy, but distribution-faithful
    /// enough to retrain on.
    fn gather_live_vectors(&self, live: &[u32]) -> Result<VectorSet> {
        if let Some(raw) = &self.raw {
            return raw.select(&live.iter().map(|&i| i as usize).collect::<Vec<_>>());
        }
        self.codes.ensure_verified()?;
        let dim = self.dim();
        let mut flat = Vec::with_capacity(live.len() * dim);
        for &id in live {
            let cluster = self.ivf.labels()[id as usize];
            let centroid = self.ivf.centroid(cluster)?;
            let residual = self.pq.decode(self.codes.code(id as usize))?;
            flat.extend(centroid.iter().zip(&residual).map(|(&c, &r)| c + r));
        }
        VectorSet::from_flat(flat, dim)
    }

    /// Retrains every learned structure (coarse centroids, PQ codebooks,
    /// threshold calibration, RT scene) over exactly the `live` ids and
    /// re-encodes them, **preserving the id allocator**: live ids keep
    /// their ids, dead ids stay burnt (they get a tombstoned filler record,
    /// exactly like a removed insert), and post-rebuild inserts continue
    /// the original id sequence. The drift baseline is re-anchored on the
    /// fresh training run.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an empty or out-of-range live
    /// set and propagates training errors (e.g. fewer live points than
    /// clusters).
    pub(crate) fn rebuild_for_live(&self, live: &[u64]) -> Result<Self> {
        let next_id = self.list_codes.next_id();
        let live = Self::sorted_live(live, next_id)?;
        if live.is_empty() {
            return Err(Error::invalid_config(
                "rebuild_for_live: the live set is empty",
            ));
        }
        let vectors = self.gather_live_vectors(&live)?;
        let fresh = Self::build(&vectors, &self.config)?;

        // Remap the fresh dense build (ids 0..live.len()) onto the original
        // id space. Dead ids keep a filler record (cluster 0, zero code)
        // in the dense arrays and a tombstone in the scan layout, so every
        // id ever allocated stays representable and the allocator resumes
        // where it left off.
        let n_total = next_id as usize;
        let n_clusters = fresh.ivf.n_clusters();
        let subspaces = fresh.codes.num_subspaces();
        let mut labels_full = vec![0usize; n_total];
        let mut flat = vec![0u8; n_total * subspaces];
        let mut live_mark = vec![false; n_total];
        for (new_idx, &id) in live.iter().enumerate() {
            labels_full[id as usize] = fresh.ivf.labels()[new_idx];
            flat[id as usize * subspaces..(id as usize + 1) * subspaces]
                .copy_from_slice(fresh.codes.code(new_idx));
            live_mark[id as usize] = true;
        }
        let codes_full = EncodedPoints::from_parts(flat, subspaces)?;
        let mut list_codes = IvfListCodes::build(&labels_full, &codes_full, n_clusters)?;
        list_codes.retain_live(&live_mark);
        let ivf = IvfIndex::from_parts(
            fresh.ivf.centroids().clone(),
            labels_full,
            self.config.metric,
        )?;

        Ok(Self {
            config: fresh.config,
            ivf,
            pq: fresh.pq,
            codes: codes_full,
            list_codes,
            threshold_model: fresh.threshold_model,
            mapping: fresh.mapping,
            scene_bounds: fresh.scene_bounds,
            simulator: fresh.simulator,
            fastscan: self.fastscan,
            // The retained rows already cover the full id space (dead rows
            // included); the fresh build's copy covers only live rows under
            // remapped ids, so keep the original.
            raw: self.raw.clone(),
            drift: fresh.drift,
            // Freshly trained state, fresh content stamp.
            trained_stamp: fresh.trained_stamp,
        })
    }

    /// Derives a sibling engine restricted to the `live` ids **without**
    /// retraining: all trained state is shared verbatim and the scan layout
    /// is rebuilt from the dense per-id arrays (which retain every id ever
    /// allocated) with non-listed ids tombstoned away. The id allocator is
    /// preserved. This is the surgery primitive behind shard split/merge —
    /// siblings derived from one engine are bit-identical in their shared
    /// trained state, so scatter-gather over them merges deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for out-of-range live ids and
    /// [`Error::Corrupted`] when mapped content fails verification while
    /// being materialised.
    pub(crate) fn with_live_ids(&self, live: &[u64]) -> Result<Self> {
        let next_id = self.list_codes.next_id();
        let live = Self::sorted_live(live, next_id)?;
        self.codes.ensure_verified()?;
        let mut live_mark = vec![false; next_id as usize];
        for &id in &live {
            live_mark[id as usize] = true;
        }
        let mut list_codes =
            IvfListCodes::build(self.ivf.labels(), &self.codes, self.ivf.n_clusters())?;
        list_codes.retain_live(&live_mark);
        Ok(Self {
            config: self.config.clone(),
            ivf: self.ivf.clone(),
            pq: self.pq.clone(),
            codes: self.codes.clone(),
            list_codes,
            threshold_model: self.threshold_model.clone(),
            mapping: self.mapping.clone(),
            scene_bounds: self.scene_bounds.clone(),
            simulator: self.simulator.clone(),
            fastscan: self.fastscan,
            raw: self.raw.clone(),
            drift: self.drift.clone(),
            trained_stamp: self.trained_stamp,
        })
    }

    /// The selective LUT of one query as the RT cores build it: one ray per
    /// `(probe, subspace)` walked through the scene's BVH, each hit's value
    /// recovered from `t_hit`, gathered into a CSR [`SelectiveLut`], with
    /// the traversal work counted. Searches do not
    /// call it: it is the oracle the serving path's closed-form tables
    /// (`SceneMapping::select_table`) are held to, and the source of the
    /// RT counters [`AnnIndex::simulate`] turns into simulated time. Exposed
    /// for the `figures` binary and the ledger.
    ///
    /// # Errors
    ///
    /// Propagates filtering / mapping errors.
    pub fn build_selective_lut(&self, query: &[f32]) -> Result<SelectiveLutParts> {
        self.check_dim(query)?;
        let clusters = self.ivf.filter(query, self.config.nprobs)?.clusters;
        let subspaces = self.pq.num_subspaces();
        let per_subspace = self.query_thresholds(query)?;
        let centroids: Vec<Option<&[f32]>> = clusters
            .iter()
            .map(|&cluster| self.ray_centroid(cluster))
            .collect::<Result<_>>()?;
        // One ray per (probe, subspace), generated in the LUT's row order.
        let requests = centroids.iter().enumerate().flat_map(|(slot, &centroid)| {
            let per_subspace = &per_subspace;
            (0..subspaces).map(move |s| LutRayRequest {
                slot,
                subspace: s,
                projection: projection(query, centroid, s),
                threshold: per_subspace[s],
            })
        });
        let (lut, rt_stats) = construct_selective_lut(&self.mapping, clusters.len(), requests)?;
        // thresholds[slot][s]: the threshold ray (slot, s) was traced with.
        let thresholds = vec![per_subspace; clusters.len()];
        Ok((clusters, lut, rt_stats, thresholds))
    }

    fn check_dim(&self, query: &[f32]) -> Result<()> {
        if query.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: query.len(),
            });
        }
        Ok(())
    }

    /// The per-subspace thresholds of one query. A threshold depends on the
    /// query alone, not on the probe: the density lookup uses the query's
    /// own projection (the density maps are built over point projections)
    /// even though L2 rays start at residual projections. MIPS expresses
    /// the trade-off directly through the scale factor (see
    /// [`SceneMapping::t_max_for_threshold`]).
    fn query_thresholds(&self, query: &[f32]) -> Result<Vec<f32>> {
        let subspaces = self.pq.num_subspaces();
        match self.config.metric {
            Metric::L2 => (0..subspaces)
                .map(|s| {
                    self.threshold_model.threshold_for(
                        s,
                        query[2 * s],
                        query[2 * s + 1],
                        self.config.threshold_strategy,
                        self.config.threshold_scale,
                    )
                })
                .collect(),
            Metric::InnerProduct => Ok(vec![self.config.threshold_scale; subspaces]),
        }
    }

    /// The centroid a probe's projections are taken against: L2 rays start
    /// at the residual `query − centroid`, MIPS rays at the query itself.
    fn ray_centroid(&self, cluster: usize) -> Result<Option<&[f32]>> {
        match self.config.metric {
            Metric::L2 => self.ivf.centroid(cluster).map(Some),
            Metric::InnerProduct => Ok(None),
        }
    }

    /// Writes probe `cluster`'s selective table for `query` into `table`
    /// (one `SceneMapping::select_table` pass from the probe's projections,
    /// staged in `projections`) and returns its hit count.
    fn select_probe(
        &self,
        query: &[f32],
        cluster: usize,
        limits: &[f32],
        projections: &mut [[f32; 2]],
        table: &mut [f32],
    ) -> usize {
        let centroid = self
            .ray_centroid(cluster)
            .expect("cluster comes from the filter stage");
        for (s, p) in projections.iter_mut().enumerate() {
            *p = projection(query, centroid, s);
        }
        self.mapping.select_table(projections, limits, table)
    }

    /// The front-half work counters planning one query cost (every other
    /// field zero): what [`ScanEngine::finish`] reports for a query this
    /// engine planned itself, and what a [`BatchPlan`] carries so a fleet
    /// can account for a shared plan once. The selective tables are
    /// written where they are read, by [`ScanEngine::expand`], so their
    /// work (`lut_distances`) is a scan counter; the RT counters are the
    /// simulator's ([`AnnIndex::simulate`]).
    fn front_counters(&self) -> SearchStats {
        SearchStats {
            filter_distances: self.ivf.n_clusters(),
            ..SearchStats::default()
        }
    }

    /// What a reply scanned from a shared plan reports: its own scan work —
    /// the selective tables it expanded included — and none of the
    /// planning, which the gather counts once from the plan.
    fn shared_stats(stats: SearchStats) -> SearchStats {
        SearchStats {
            lut_distances: stats.lut_distances,
            ..stats.without_front_counters()
        }
    }

    /// The knobs a scan reads beyond the plan stamp's: replicas agreeing on
    /// these and on the stamp score every candidate with the same bits.
    fn scan_key(&self) -> (QualityMode, bool, u32) {
        (
            self.config.quality,
            self.fastscan,
            self.config.miss_penalty_factor.to_bits(),
        )
    }

    /// [`AnnIndex::search`] with caller-provided scratch buffers, so batch
    /// workers amortise the slot allocations across queries: the
    /// shared driver's query-major path ([`scan::search_one`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AnnIndex::search`].
    pub fn search_with_scratch(
        &self,
        query: &[f32],
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<SearchResult> {
        scan::search_one(self, query, k, scratch)
    }

    /// Cluster-major grouped batch search ([`scan::search_batch_grouped`]):
    /// plan → seed → schedule → chunk scan → gather, bit-identical (ids and
    /// distance bits) to the sequential per-query path.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AnnIndex::search`], reported for the first
    /// failing query in query order.
    pub fn search_batch_grouped(
        &self,
        queries: &VectorSet,
        k: usize,
        num_threads: usize,
    ) -> Result<Vec<SearchResult>> {
        scan::search_batch_grouped(self, queries, k, num_threads)
    }

    /// The query-major batch path (one task per query, each running
    /// [`JunoIndex::search_with_scratch`]): the fallback for tiny batches
    /// and the differential / benchmark reference for the grouped pipeline.
    ///
    /// # Errors
    ///
    /// Propagates the first per-query error encountered (by query order).
    pub fn search_batch_query_major(
        &self,
        queries: &VectorSet,
        k: usize,
        num_threads: usize,
    ) -> Result<Vec<SearchResult>> {
        scan::search_batch_query_major(self, queries, k, num_threads)
    }

    /// How the hit-count unit scores a candidate under the current quality
    /// mode.
    fn hit_count_mode(&self) -> HitCountMode {
        match self.config.quality {
            QualityMode::Medium => HitCountMode::RewardPenalty,
            _ => HitCountMode::CountOnly,
        }
    }

    /// The hit-count unit's per-expansion tables, from the slot's fresh
    /// selective table: each subspace's squared half-threshold and, with
    /// fast-scan, the 0/1 indicator LUTs (stride-padded for the kernel's
    /// VBMI arm).
    fn unit_tables(&self, plan: &JunoPlan, slot: &mut JunoSlot) {
        for (half, t) in slot.half_sq.iter_mut().zip(&plan.thresholds) {
            let h = t * 0.5;
            *half = h * h;
        }
        if !self.fastscan {
            return;
        }
        let (subspaces, entries) = (self.pq.num_subspaces(), self.pq.entries_per_subspace());
        let stride = entries.next_multiple_of(16);
        let want_inner = self.config.metric == Metric::L2
            && self.hit_count_mode() == HitCountMode::RewardPenalty;
        let lut_len = kernel::padded_lut_len(subspaces, stride);
        slot.outer_lut.clear();
        slot.outer_lut.resize(lut_len, 0);
        if want_inner {
            slot.inner_lut.clear();
            slot.inner_lut.resize(lut_len, 0);
        }
        for (s, row) in slot.table.chunks_exact(entries).enumerate() {
            let half_sq = slot.half_sq[s];
            let outer = &mut slot.outer_lut[s * stride..][..entries];
            for (o, &v) in outer.iter_mut().zip(row) {
                *o = u8::from(!v.is_nan());
            }
            if want_inner {
                let inner = &mut slot.inner_lut[s * stride..][..entries];
                for (i, &v) in inner.iter_mut().zip(row) {
                    *i = u8::from(v <= half_sq);
                }
            }
        }
    }

    /// How a candidate's selected-entry `sum` over `covered` of `subspaces`
    /// lookups becomes its raw score (`None` when nothing was covered), and
    /// the accumulations it counts: the end of [`ScanEngine::score`], shared
    /// by [`ScanEngine::score_block`].
    #[inline]
    fn finish_exact(
        &self,
        slot: &JunoSlot,
        subspaces: usize,
        sum: f32,
        covered: u32,
        ctr: &mut ScanCounters,
    ) -> Option<f32> {
        if covered == 0 {
            return None;
        }
        ctr.accumulations += covered as usize;
        let missing = (subspaces as u32 - covered) as f32;
        Some(match self.config.metric {
            Metric::L2 => sum + missing * slot.mean_thr_sq * self.config.miss_penalty_factor,
            // Missing subspaces contribute no (positive) similarity.
            Metric::InnerProduct => slot.centroid_term + sum,
        })
    }
}

/// Subspace `s`'s 2-D projection a ray starts from: of the residual
/// `query − centroid` (L2), or of the query itself (MIPS, no centroid).
#[inline]
fn projection(query: &[f32], centroid: Option<&[f32]>, s: usize) -> [f32; 2] {
    match centroid {
        Some(c) => [query[2 * s] - c[2 * s], query[2 * s + 1] - c[2 * s + 1]],
        None => [query[2 * s], query[2 * s + 1]],
    }
}

/// What is JUNO about the shared scan ([`juno_quant::scan`]): a query's plan
/// holds its probes and selection limits ([`JunoPlan`]), a probe expands by
/// writing its dense selective table (`NaN` = unselected), and a candidate's
/// score adds the selected entries plus a miss penalty (L2) or the centroid
/// term (MIPS).
/// The hit-count modes (JUNO-L/M) ride the same pipeline through their own
/// per-cluster unit.
impl ScanEngine for JunoIndex {
    type Plan = JunoPlan;
    type Slot = JunoSlot;

    fn lists(&self) -> &IvfListCodes {
        &self.list_codes
    }

    /// Hit counts rank descending whatever the metric; an inner-product
    /// selector over the integer scores is exactly that order (score
    /// descending, ties by ascending id).
    fn rank_metric(&self) -> Metric {
        match self.config.quality {
            QualityMode::High => self.config.metric,
            QualityMode::Medium | QualityMode::Low => Metric::InnerProduct,
        }
    }

    fn fastscan(&self) -> bool {
        self.fastscan
    }

    /// The coarse filter, the thresholds and their selection limits — no
    /// table: [`ScanEngine::expand`] writes each probe's where it is read
    /// (and counts its hits), so a plan shared by a fleet stays `O(S)`.
    fn plan(&self, query: &[f32]) -> Result<JunoPlan> {
        self.check_dim(query)?;
        let probes = self.ivf.filter(query, self.config.nprobs)?.clusters;
        let thresholds = self.query_thresholds(query)?;
        let subspaces = self.pq.num_subspaces();
        // A limit reads the projection only under MIPS, whose rays start at
        // the query's own projection whatever the probe.
        let limits: Vec<f32> = (0..subspaces)
            .map(|s| {
                self.mapping
                    .select_limit(s, projection(query, None, s), thresholds[s])
            })
            .collect::<Result<_>>()?;
        let mean_thr_sq = thresholds.iter().map(|t| t * t).sum::<f32>() / subspaces.max(1) as f32;
        Ok(JunoPlan {
            probes,
            thresholds,
            limits,
            mean_thr_sq,
        })
    }

    fn probes<'p>(&self, plan: &'p JunoPlan) -> &'p [usize] {
        &plan.probes
    }

    fn new_slot(&self) -> JunoSlot {
        let subspaces = self.pq.num_subspaces();
        JunoSlot {
            table: vec![f32::NAN; subspaces * self.pq.entries_per_subspace()],
            projections: vec![[0.0; 2]; subspaces],
            mean_thr_sq: 0.0,
            centroid_term: 0.0,
            half_sq: vec![0.0; subspaces],
            outer_lut: Vec::new(),
            inner_lut: Vec::new(),
        }
    }

    /// Writes the probe's selective table (one `SceneMapping::select_table`
    /// pass) and its per-visit constants, and returns the table's hits.
    /// Under the hit-count modes it also writes what
    /// [`ScanEngine::scan_unit`] reads — the half-threshold bounds and, with
    /// fast-scan, the 0/1 indicator LUTs — so every replica's segment of the
    /// cluster is counted from the one expansion.
    fn expand(
        &self,
        query: &[f32],
        plan: &JunoPlan,
        _probe: usize,
        cluster: usize,
        slot: &mut JunoSlot,
    ) -> usize {
        let hits = self.select_probe(
            query,
            cluster,
            &plan.limits,
            &mut slot.projections,
            &mut slot.table,
        );
        if self.own_unit() {
            self.unit_tables(plan, slot);
        }
        slot.centroid_term = match self.config.metric {
            Metric::L2 => 0.0,
            Metric::InnerProduct => {
                let centroid = self.ivf.centroid(cluster);
                inner_product(
                    query,
                    centroid.expect("cluster comes from the filter stage"),
                )
            }
        };
        slot.mean_thr_sq = plan.mean_thr_sq;
        hits
    }

    /// Quantises the slot's "lower is better" score contributions straight
    /// from its table: L2 takes the values with the miss penalty
    /// substituted for unselected entries; MIPS negates (score = −IP) and
    /// adds the centroid term once per candidate.
    fn quantize(&self, slot: &JunoSlot, qlut: &mut QuantizedLut) {
        let (const_term, unselected, negate) = match self.config.metric {
            Metric::L2 => (
                0.0,
                slot.mean_thr_sq * self.config.miss_penalty_factor,
                false,
            ),
            Metric::InnerProduct => (-slot.centroid_term, 0.0, true),
        };
        qlut.build_selective(
            &slot.table,
            self.pq.num_subspaces(),
            self.pq.entries_per_subspace(),
            const_term,
            unselected,
            negate,
        );
    }

    /// Exact ADC evaluation of one candidate — **the** reference arithmetic
    /// the plain scan and the fast-scan re-rank both go through, so the two
    /// are bit-identical by construction. A candidate is a cluster member
    /// with at least one selected entry.
    #[inline]
    fn score(&self, slot: &JunoSlot, code: &[u8], ctr: &mut ScanCounters) -> Option<f32> {
        let entries = self.pq.entries_per_subspace();
        let mut sum = 0.0f32;
        let mut covered = 0u32;
        for (s, &e) in code.iter().enumerate() {
            let v = slot.table[s * entries + e as usize];
            // NaN marks "entry not selected": it adds `+0.0` instead, with
            // no branch. That is exact, as in `exact_block_sums`: `x + (+0.0)
            // = x` for every `x` but `−0.0`, and a sum that starts at `+0.0`
            // is never `−0.0`.
            let selected = !v.is_nan();
            sum += if selected { v } else { 0.0 };
            covered += u32::from(selected);
        }
        self.finish_exact(slot, code.len(), sum, covered, ctr)
    }

    /// The lanes of a whole block at once: [`exact_block_sums`] produces
    /// every lane's `(sum, covered)` with the bits of `score`'s loop, and
    /// `score`'s own finishing arithmetic turns each live lane into its
    /// score.
    fn score_block(
        &self,
        slot: &JunoSlot,
        block: BlockRef<'_>,
        live: u32,
        ctr: &mut ScanCounters,
        out: &mut [Option<f32>; BLOCK_LANES],
    ) {
        let subspaces = self.pq.num_subspaces();
        let mut lanes = ExactLanes::default();
        exact_block_sums(
            &slot.table,
            self.pq.entries_per_subspace(),
            subspaces,
            block.rows,
            block.nibble,
            &mut lanes,
        );
        let mut live = live;
        while live != 0 {
            let l = live.trailing_zeros() as usize;
            live &= live - 1;
            out[l] = self.finish_exact(slot, subspaces, lanes.sums[l], lanes.covered[l], ctr);
        }
    }

    fn own_unit(&self) -> bool {
        self.config.quality != QualityMode::High
    }

    /// Hit-count ranking (JUNO-L / JUNO-M) of one segment of a probed
    /// cluster, from the tables [`ScanEngine::expand`] wrote. A point
    /// belongs to exactly one IVF cluster, so per-candidate counts need no
    /// cross-cluster merging; `candidates` counts the points hit.
    ///
    /// With fast-scan enabled the counts come out of the block kernel over
    /// the 0/1 indicator LUTs (selected / inside the inner half-threshold
    /// sphere): one kernel pass per block yields 32 exact integer counts at
    /// once — no quantisation error, so results are identical to the
    /// reference path over the table itself.
    fn scan_unit(
        &self,
        slot: &JunoSlot,
        lists: &IvfListCodes,
        cluster: usize,
        topk: &mut TopK,
        ctr: &mut ScanCounters,
    ) {
        let mode = self.hit_count_mode();
        let subspaces = self.pq.num_subspaces();
        let entries = self.pq.entries_per_subspace();
        let stride = entries.next_multiple_of(16);
        let check_tombstones = lists.stored_tombstones() > 0;
        // Inner-sphere membership: within half the threshold. For MIPS
        // the exact-value check is skipped (see the hitcount module
        // docs); every hit counts as an outer hit only.
        let inner_enabled = self.config.metric == Metric::L2;
        let mut hit = |pid: u32, outer: u32, inner: u32| {
            if outer == 0 || (check_tombstones && lists.is_deleted(pid)) {
                return;
            }
            ctr.accumulations += outer as usize;
            ctr.candidates += 1;
            let score = match mode {
                HitCountMode::CountOnly => outer as i64,
                HitCountMode::RewardPenalty => inner as i64 - (subspaces as i64 - outer as i64),
            };
            topk.push(pid as u64, score as f32);
        };

        if self.fastscan {
            let want_inner = inner_enabled && mode == HitCountMode::RewardPenalty;
            let ids = lists.cluster_ids(cluster);
            let blocks = lists.cluster_blocks(cluster);
            let nibble = blocks.nibble_packed();
            let (mut lane_sums, mut lane_inner) = ([0u16; BLOCK_LANES], [0u16; BLOCK_LANES]);
            for b in 0..blocks.num_blocks() {
                let rows = blocks.block_rows(b);
                kernel::accumulate_block(
                    &slot.outer_lut,
                    stride,
                    subspaces,
                    rows,
                    nibble,
                    &mut lane_sums,
                );
                if want_inner {
                    kernel::accumulate_block(
                        &slot.inner_lut,
                        stride,
                        subspaces,
                        rows,
                        nibble,
                        &mut lane_inner,
                    );
                }
                for lane in 0..blocks.block_len(b) {
                    let inner = if want_inner {
                        lane_inner[lane] as u32
                    } else {
                        0
                    };
                    hit(ids[b * BLOCK_LANES + lane], lane_sums[lane] as u32, inner);
                }
            }
            // Tail records: the same indicator LUTs, looked up scalar.
            let (tail_ids, tail_codes) = lists.cluster_tail(cluster);
            if !tail_ids.is_empty() {
                ctr.lut_reuses += 1;
            }
            for (&pid, code) in tail_ids.iter().zip(tail_codes.chunks_exact(subspaces)) {
                let mut outer = 0u32;
                let mut inner = 0u32;
                for (s, &e) in code.iter().enumerate() {
                    outer += slot.outer_lut[s * stride + e as usize] as u32;
                    if want_inner {
                        inner += slot.inner_lut[s * stride + e as usize] as u32;
                    }
                }
                hit(pid, outer, inner);
            }
        } else {
            // Reference path over the table itself.
            for (segment, (ids, codes)) in lists.cluster_segments(cluster).enumerate() {
                if segment > 0 {
                    ctr.lut_reuses += 1;
                }
                for (&pid, code) in ids.iter().zip(codes.chunks_exact(subspaces)) {
                    let mut outer = 0u32;
                    let mut inner = 0u32;
                    for (s, &e) in code.iter().enumerate() {
                        let v = slot.table[s * entries + e as usize];
                        if !v.is_nan() {
                            outer += 1;
                            if inner_enabled && v <= slot.half_sq[s] {
                                inner += 1;
                            }
                        }
                    }
                    hit(pid, outer, inner);
                }
            }
        }
    }

    /// Converts a query's plan, ranked neighbours and scan counters into the
    /// final [`SearchResult`] — one assembly for every execution path, so
    /// statistics are derived identically on all of them. Simulated times
    /// stay zero: [`AnnIndex::simulate`] adds them on request.
    fn finish(
        &self,
        _plan: &JunoPlan,
        neighbors: Vec<Neighbor>,
        ctr: &ScanCounters,
    ) -> SearchResult {
        let stats = SearchStats {
            lut_distances: ctr.lut_distances,
            accumulations: ctr.accumulations,
            candidates: ctr.candidates,
            pruned_points: ctr.pruned_points,
            pruned_blocks: ctr.pruned_blocks,
            pruned_clusters: ctr.pruned_clusters,
            lut_builds: ctr.lut_builds,
            lut_reuses: ctr.lut_reuses,
            ..self.front_counters()
        };
        SearchResult {
            neighbors,
            simulated_us: 0.0,
            stats,
        }
    }
}

impl AnnIndex for JunoIndex {
    fn metric(&self) -> Metric {
        self.config.metric
    }

    fn dim(&self) -> usize {
        self.ivf.dim()
    }

    fn len(&self) -> usize {
        self.list_codes.len()
    }

    /// A one-off search: its arena grows only as far as this query's
    /// visits need, where [`JunoIndex::make_scratch`] sizes for every list.
    fn search(&self, query: &[f32], k: usize) -> Result<SearchResult> {
        self.search_with_scratch(query, k, &mut ScanArena::new(self.new_slot()))
    }

    fn supports_mutation(&self) -> bool {
        true
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    /// JUNO-H ranks by the metric's raw values; the hit-count modes
    /// (JUNO-L/M) rank by counts, where larger is better regardless of the
    /// metric — a scatter-gather merge must follow the active mode.
    fn merge_order(&self) -> juno_common::topk::ScoreOrder {
        use juno_common::topk::ScoreOrder;
        match self.config.quality {
            QualityMode::High => ScoreOrder::from_metric(self.config.metric),
            QualityMode::Medium | QualityMode::Low => ScoreOrder::Descending,
        }
    }

    fn ids(&self) -> Vec<u64> {
        self.list_codes.live_ids()
    }

    fn insert(&mut self, vector: &[f32]) -> Result<u64> {
        JunoIndex::insert(self, vector)
    }

    fn remove(&mut self, id: u64) -> Result<bool> {
        JunoIndex::remove(self, id)
    }

    fn compact(&mut self) -> Result<()> {
        JunoIndex::compact(self)
    }

    fn supports_rebuild(&self) -> bool {
        true
    }

    fn drift_report(&self) -> Option<DriftReport> {
        Some(JunoIndex::drift_report(self))
    }

    fn rebuild_for_live(&self, live: &[u64]) -> Result<Self> {
        JunoIndex::rebuild_for_live(self, live)
    }

    fn with_live_ids(&self, live: &[u64]) -> Result<Self> {
        JunoIndex::with_live_ids(self, live)
    }

    fn snapshot(&self) -> Result<Vec<u8>> {
        // A mapped index defers content verification; force it before the
        // bytes are re-serialised as a fresh snapshot.
        self.codes.ensure_verified()?;
        self.list_codes.ensure_resident_all()?;
        Ok(self.to_snapshot_bytes())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        *self = JunoIndex::from_snapshot_bytes(bytes)?;
        Ok(())
    }

    fn restore_mapped(
        &mut self,
        map: &std::sync::Arc<juno_common::mmap::Mmap>,
        offset: usize,
        len: usize,
        residency: &juno_common::mmap::ResidencyConfig,
    ) -> Result<()> {
        *self = JunoIndex::from_mapped(map, offset, len, residency)?;
        Ok(())
    }

    fn supports_mapped_restore(&self) -> bool {
        true
    }

    /// Batch search, **cluster-major** ([`JunoIndex::search_batch_grouped`]):
    /// each probed cluster's code blocks stream through the cache once per
    /// query *group* instead of once per query. Results are ordered by query
    /// and bit-identical (ids and distance bits) to running
    /// [`AnnIndex::search`] sequentially; tiny batches run query-major
    /// ([`JunoIndex::search_batch_query_major`]).
    fn search_batch_threads(
        &self,
        queries: &VectorSet,
        k: usize,
        num_threads: usize,
    ) -> Result<Vec<SearchResult>> {
        scan::search_batch(self, queries, k, num_threads)
    }

    /// Plans the batch once ([`scan::plan_batch`]) and stamps it with
    /// [`JunoIndex::plan_stamp`], for the shards of a fleet to scan from.
    fn plan_batch(&self, queries: &VectorSet, num_threads: usize) -> Result<Option<BatchPlan>> {
        let plans = scan::plan_batch(self, queries, num_threads)?;
        let front = vec![self.front_counters(); plans.len()];
        Ok(Some(BatchPlan::new(self.plan_stamp(), front, plans)))
    }

    /// Scans from `plan` when it was made by a JUNO engine with this
    /// engine's [`JunoIndex::plan_stamp`] — i.e. when planning here would
    /// produce the very same plans — and plans locally otherwise.
    fn search_batch_planned(
        &self,
        queries: &VectorSet,
        k: usize,
        num_threads: usize,
        plan: &BatchPlan,
    ) -> Result<(Vec<SearchResult>, PlanUse)> {
        let shared = plan
            .plans::<JunoPlan>()
            .filter(|plans| plan.stamp() == self.plan_stamp() && plans.len() == queries.len());
        let Some(plans) = shared else {
            let results = self.search_batch_threads(queries, k, num_threads)?;
            return Ok((results, PlanUse::Replanned));
        };
        let mut results = scan::search_batch_planned(&[self], queries, plans, k, num_threads)?;
        for result in &mut results {
            result.stats = Self::shared_stats(result.stats);
        }
        Ok((results, PlanUse::Shared))
    }

    /// Scans every replica's lists as one index from `plan`
    /// ([`scan::search_batch_planned`] over the slice): each probe expands
    /// once for the batch query, and the prune gate, the cluster bound and
    /// the ranked visit weigh the cluster's records summed over the
    /// replicas. Declines (`Ok(None)`) unless `plan` is a JUNO plan for
    /// this batch and every replica has the plan's stamp and the first
    /// one's scan knobs — then each would score every candidate with the
    /// bits of its own scan. Replies report the scan's work (the plan's is
    /// the caller's to count once, as for [`AnnIndex::search_batch_planned`]).
    fn search_batch_fused(
        replicas: &[&Self],
        queries: &VectorSet,
        k: usize,
        num_threads: usize,
        plan: &BatchPlan,
    ) -> Result<Option<Vec<SearchResult>>> {
        let Some(lead) = replicas.first() else {
            return Ok(None);
        };
        let agree = replicas
            .iter()
            .all(|r| r.plan_stamp() == plan.stamp() && r.scan_key() == lead.scan_key());
        let Some(plans) = plan
            .plans::<JunoPlan>()
            .filter(|plans| agree && plans.len() == queries.len())
        else {
            return Ok(None);
        };
        let mut results = scan::search_batch_planned(replicas, queries, plans, k, num_threads)?;
        for result in &mut results {
            result.stats = Self::shared_stats(result.stats);
        }
        Ok(Some(results))
    }

    /// Re-derives the query's RT work by tracing its selective LUT
    /// ([`JunoIndex::build_selective_lut`]) and runs the GPU model over it
    /// and the result's candidate count: the stage times, `simulated_us`
    /// and the `rt_*` counters. Planning is deterministic, so the rays are
    /// the ones the search's plan stood for.
    fn simulate(&self, query: &[f32], result: &SearchResult) -> Result<SearchResult> {
        let (_, _, rt, _) = self.build_selective_lut(query)?;
        let breakdown = self.simulator.simulate(&QueryWork {
            clusters: self.ivf.n_clusters(),
            dim: self.dim(),
            rt,
            candidates: result.stats.candidates,
            subspaces: self.pq.num_subspaces(),
        });
        let mut out = result.clone();
        out.simulated_us = breakdown.total_us;
        let stats = &mut out.stats;
        stats.filter_us = breakdown.filter_us;
        stats.lut_us = breakdown.lut_us;
        stats.accumulate_us = breakdown.accumulate_us;
        stats.rt_aabb_tests = rt.aabb_tests;
        stats.rt_primitive_tests = rt.primitive_tests;
        stats.rt_hits = rt.hits;
        Ok(out)
    }

    fn name(&self) -> String {
        format!(
            "{}(IVF{},PQ{},nprobs={},scale={:.2})",
            self.config.quality.label(),
            self.config.n_clusters,
            self.config.pq_subspaces,
            self.config.nprobs,
            self.config.threshold_scale
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::assert_same_lut;
    use juno_common::recall::{r1_at_100, recall_at};
    use juno_data::profiles::DatasetProfile;
    use juno_gpu::device::GpuDevice;
    use juno_gpu::pipeline::ExecutionMode;

    fn deep_dataset(n: usize, q: usize) -> juno_data::profiles::Dataset {
        DatasetProfile::DeepLike.generate(n, q, 71).unwrap()
    }

    fn build_high(ds: &juno_data::profiles::Dataset) -> JunoIndex {
        let config = JunoConfig {
            n_clusters: 32,
            nprobs: 8,
            pq_entries: 64,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        };
        JunoIndex::build(&ds.points, &config).unwrap()
    }

    /// `score_block` against `score`, lane by lane, for JUNO's L2 and MIPS
    /// arithmetic: the same `None`s (a lane with nothing selected), the same
    /// score bits and the same accumulations. Tables with nothing, some and
    /// every entry selected; u8 rows (E = 64, 256) and nibble rows (E = 16);
    /// blocks of 1..=32 lanes; random tombstone masks.
    #[test]
    fn block_scores_equal_per_candidate_scores() {
        use juno_common::rng::{seeded, Rng};
        use juno_quant::layout::BlockCodes;
        let ds = deep_dataset(600, 2);
        let mut rng = seeded(0x5C0E);
        for (metric, entries) in [
            (Metric::L2, 16),
            (Metric::InnerProduct, 16),
            (Metric::L2, 64),
            (Metric::InnerProduct, 64),
            (Metric::L2, 256),
        ] {
            let config = JunoConfig {
                n_clusters: 4,
                pq_entries: entries,
                ..JunoConfig::small_test(ds.dim(), metric)
            };
            let index = JunoIndex::build(&ds.points, &config).unwrap();
            let subspaces = index.pq.num_subspaces();
            // Every block length: a prefix of 1..=32 points of the biggest
            // list, blocked on its own.
            let lists = index.list_codes();
            let codes = (0..lists.num_clusters())
                .map(|c| lists.cluster_codes(c))
                .max_by_key(|c| c.len())
                .unwrap();
            let mut slot = index.new_slot();
            for density in [0.0f64, 0.2, 1.0] {
                for v in slot.table.iter_mut() {
                    *v = f32::NAN;
                    if rng.gen_range(0.0f64..1.0) < density {
                        *v = match (metric, rng.gen_range(0..8u32)) {
                            (Metric::InnerProduct, 0) => -0.0,
                            (_, 1) => 0.0,
                            (Metric::InnerProduct, _) => rng.gen_range(-3.0f32..3.0),
                            (Metric::L2, _) => rng.gen_range(0.0f32..3.0),
                        };
                    }
                }
                slot.mean_thr_sq = rng.gen_range(0.5f32..2.0);
                slot.centroid_term = rng.gen_range(-1.0f32..1.0);
                for n in 1..=BLOCK_LANES {
                    let codes = &codes[..n * subspaces];
                    let blocks = BlockCodes::build(codes, n, subspaces);
                    assert_eq!(blocks.nibble_packed(), entries <= 16);
                    let block = BlockRef {
                        rows: blocks.block_rows(0),
                        nibble: blocks.nibble_packed(),
                        codes,
                    };
                    let all = u32::MAX >> (BLOCK_LANES - n);
                    for live in [all, all & rng.gen_range(0..=u32::MAX), 0] {
                        let (mut got, mut want) = ([None; BLOCK_LANES], [None; BLOCK_LANES]);
                        let (mut got_ctr, mut want_ctr) =
                            (ScanCounters::default(), ScanCounters::default());
                        index.score_block(&slot, block, live, &mut got_ctr, &mut got);
                        for l in (0..n).filter(|l| live >> l & 1 != 0) {
                            let code = &codes[l * subspaces..(l + 1) * subspaces];
                            want[l] = index.score(&slot, code, &mut want_ctr);
                        }
                        let bits = |v: [Option<f32>; BLOCK_LANES]| v.map(|v| v.map(f32::to_bits));
                        let label = format!("{metric:?} E {entries} density {density} n {n}");
                        assert_eq!(bits(got), bits(want), "{label} live {live:#x}");
                        assert_eq!(got_ctr, want_ctr, "{label} live {live:#x}");
                        if density == 0.0 {
                            assert_eq!(got, [None; BLOCK_LANES], "{label}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn high_quality_mode_reaches_good_recall() {
        let ds = deep_dataset(4_000, 20);
        let index = build_high(&ds);
        let gt = ds.ground_truth(1).unwrap();
        let retrieved: Vec<Vec<u64>> = ds
            .queries
            .iter()
            .map(|q| index.search(q, 100).unwrap().ids())
            .collect();
        let r = r1_at_100(&retrieved, &gt).unwrap();
        assert!(r >= 0.85, "JUNO-H R1@100 = {r}, expected ≥ 0.85");
    }

    #[test]
    fn low_mode_is_cheaper_but_weaker_than_high() {
        let ds = deep_dataset(3_000, 20);
        let mut index = build_high(&ds);
        let gt = ds.ground_truth(10).unwrap();

        let run = |index: &JunoIndex| {
            let mut total_us = 0.0;
            let retrieved: Vec<Vec<u64>> = ds
                .queries
                .iter()
                .map(|q| {
                    let res = index.search(q, 100).unwrap();
                    total_us += index.simulate(q, &res).unwrap().simulated_us;
                    res.ids()
                })
                .collect();
            (
                recall_at(&retrieved, &gt, 10, 100).unwrap(),
                total_us / ds.queries.len() as f64,
            )
        };

        let (recall_high, us_high) = run(&index);
        index.set_quality(QualityMode::Low);
        let (recall_low, us_low) = run(&index);

        assert!(
            recall_high >= recall_low - 0.05,
            "high {recall_high} vs low {recall_low}"
        );
        assert!(
            us_low <= us_high,
            "JUNO-L ({us_low:.2}us) must not be slower than JUNO-H ({us_high:.2}us)"
        );
        assert!(
            recall_low > 0.3,
            "hit-count mode should still find many neighbours"
        );
    }

    #[test]
    fn medium_mode_sits_between_low_and_high() {
        let ds = deep_dataset(2_000, 15);
        let mut index = build_high(&ds);
        let gt = ds.ground_truth(10).unwrap();
        let recall_of = |index: &JunoIndex| {
            let retrieved: Vec<Vec<u64>> = ds
                .queries
                .iter()
                .map(|q| index.search(q, 100).unwrap().ids())
                .collect();
            recall_at(&retrieved, &gt, 10, 100).unwrap()
        };
        index.set_quality(QualityMode::Low);
        let low = recall_of(&index);
        index.set_quality(QualityMode::Medium);
        let medium = recall_of(&index);
        // The reward/penalty refinement should not hurt relative to plain
        // counting (the paper reports it strictly improving quality).
        assert!(medium >= low - 0.05, "medium {medium} vs low {low}");
    }

    #[test]
    fn tighter_threshold_scale_reduces_rt_work() {
        let ds = deep_dataset(3_000, 10);
        let mut index = build_high(&ds);
        let q = ds.queries.row(0);
        let simulated = |index: &JunoIndex| {
            let res = index.search(q, 10).unwrap();
            index.simulate(q, &res).unwrap()
        };
        let full = simulated(&index);
        index.set_threshold_scale(0.4).unwrap();
        let tight = simulated(&index);
        assert!(
            tight.stats.rt_hits <= full.stats.rt_hits,
            "scale 0.4 hits {} vs full {}",
            tight.stats.rt_hits,
            full.stats.rt_hits
        );
        assert!(tight.stats.lut_distances <= full.stats.lut_distances);
        assert!(index.set_threshold_scale(0.0).is_err());
        assert!(index.set_threshold_scale(1.5).is_err());
    }

    #[test]
    fn selective_lut_is_sparse() {
        let ds = deep_dataset(3_000, 5);
        let index = build_high(&ds);
        let (_, lut, _, _) = index.build_selective_lut(ds.queries.row(0)).unwrap();
        let density = lut.density(index.pq().entries_per_subspace());
        assert!(
            density < 0.6,
            "selective LUT materialised {density:.2} of the dense table"
        );
        assert!(lut.total_selected() > 0);
    }

    #[test]
    fn mips_engine_finds_high_ip_neighbours() {
        let ds = DatasetProfile::TtiLike.generate(2_000, 10, 5).unwrap();
        let config = JunoConfig {
            n_clusters: 16,
            nprobs: 8,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        };
        let index = JunoIndex::build(&ds.points, &config).unwrap();
        let gt = ds.ground_truth(10).unwrap();
        let retrieved: Vec<Vec<u64>> = ds
            .queries
            .iter()
            .map(|q| index.search(q, 100).unwrap().ids())
            .collect();
        let r = recall_at(&retrieved, &gt, 10, 100).unwrap();
        assert!(r > 0.4, "MIPS recall {r} too low");
        assert_eq!(index.metric(), Metric::InnerProduct);
    }

    #[test]
    fn pipelined_execution_is_fastest() {
        let ds = deep_dataset(2_000, 3);
        let mut index = build_high(&ds);
        let q = ds.queries.row(0);
        let simulated_us = |index: &JunoIndex| {
            let res = index.search(q, 10).unwrap();
            index.simulate(q, &res).unwrap().simulated_us
        };
        index.set_execution(ExecutionMode::Pipelined, GpuDevice::rtx4090());
        let piped = simulated_us(&index);
        index.set_execution(ExecutionMode::Serial, GpuDevice::rtx4090());
        let serial = simulated_us(&index);
        index.set_execution(ExecutionMode::NaiveCorun, GpuDevice::rtx4090());
        let naive = simulated_us(&index);
        // At this toy scale the accumulation stage is tiny, so the pipelined
        // mode's MPS partition overhead can slightly exceed the serial sum;
        // it must still never lose by much and must always beat naive co-run.
        assert!(piped <= serial * 1.3, "piped {piped} vs serial {serial}");
        assert!(piped <= naive, "piped {piped} vs naive {naive}");
    }

    #[test]
    fn rtless_device_is_slower_for_lut_construction() {
        let ds = deep_dataset(2_000, 3);
        let mut index = build_high(&ds);
        let q = ds.queries.row(0);
        let lut_us = |index: &JunoIndex| {
            let res = index.search(q, 10).unwrap();
            index.simulate(q, &res).unwrap().stats.lut_us
        };
        index.set_execution(ExecutionMode::Serial, GpuDevice::rtx4090());
        let with_rt = lut_us(&index);
        index.set_execution(ExecutionMode::Serial, GpuDevice::a100());
        let without_rt = lut_us(&index);
        assert!(
            without_rt > with_rt,
            "A100 software fallback ({without_rt}) must exceed 4090 RT time ({with_rt})"
        );
    }

    #[test]
    fn inserted_points_are_retrievable_and_removed_points_vanish() {
        let ds = deep_dataset(2_000, 5);
        let mut index = build_high(&ds);
        assert!(index.supports_mutation());
        let n0 = index.len();

        // Insert a copy of an existing point: it must be retrievable at the
        // top of the result list (distance 0 to itself as a query).
        let probe = ds.points.row(42).to_vec();
        let new_id = index.insert(&probe).unwrap();
        assert_eq!(new_id as usize, n0, "ids continue after the build set");
        assert_eq!(index.len(), n0 + 1);
        let res = index.search(&probe, 5).unwrap();
        assert!(
            res.ids().contains(&new_id),
            "freshly inserted point not retrieved: {:?}",
            res.ids()
        );

        // Remove it again: it must disappear from results immediately.
        assert!(index.remove(new_id).unwrap());
        assert!(!index.remove(new_id).unwrap(), "removal is idempotent");
        assert!(!index.remove(u64::MAX).unwrap());
        assert_eq!(index.len(), n0);
        let res = index.search(&probe, 5).unwrap();
        assert!(!res.ids().contains(&new_id));

        // Dimension mismatches are rejected before any state changes.
        assert!(index.insert(&[0.0; 3]).is_err());
        assert_eq!(index.len(), n0);
    }

    #[test]
    fn compaction_preserves_search_results_bit_identically() {
        let ds = deep_dataset(2_500, 10);
        let mut index = build_high(&ds);
        // Mutate: delete a slice of the build set, insert some copies.
        for id in (0..200u64).step_by(3) {
            assert!(index.remove(id).unwrap());
        }
        for i in 0..60 {
            index.insert(ds.points.row(i * 7)).unwrap();
        }
        let before: Vec<_> = ds
            .queries
            .iter()
            .map(|q| index.search(q, 50).unwrap())
            .collect();
        index.compact().unwrap();
        assert_eq!(index.list_codes().stored_tombstones(), 0);
        let after: Vec<_> = ds
            .queries
            .iter()
            .map(|q| index.search(q, 50).unwrap())
            .collect();
        for (qi, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(b.ids(), a.ids(), "query {qi} ids changed by compaction");
            for (nb, na) in b.neighbors.iter().zip(&a.neighbors) {
                assert_eq!(
                    nb.distance.to_bits(),
                    na.distance.to_bits(),
                    "query {qi} distance bits changed by compaction"
                );
            }
        }
    }

    #[test]
    fn configuration_errors_are_reported() {
        let ds = deep_dataset(500, 2);
        // Wrong subspace dimension (M != 2).
        let bad = JunoConfig {
            pq_subspaces: 24,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        };
        assert!(JunoIndex::build(&ds.points, &bad).is_err());
        let index = build_high(&ds);
        assert!(index.search(ds.queries.row(0), 0).is_err());
        assert!(index.search(&[0.0; 3], 5).is_err());
        assert_eq!(index.len(), 500);
        assert_eq!(index.dim(), 96);
        assert!(index.name().starts_with("JUNO-H"));
        assert!(!index.is_empty());
        assert_eq!(index.codes().len(), 500);
        assert_eq!(index.threshold_model().num_subspaces(), 48);
        assert_eq!(index.mapping.num_subspaces(), 48);
        assert_eq!(index.config().pq_entries, 64);
    }

    fn lifecycle_fixture(seed: u64, retain: bool) -> (juno_data::profiles::Dataset, JunoIndex) {
        let ds = DatasetProfile::DeepLike.generate(1_000, 8, seed).unwrap();
        let config = JunoConfig {
            n_clusters: 16,
            nprobs: 4,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        }
        .with_retained_vectors(retain);
        let index = JunoIndex::build(&ds.points, &config).unwrap();
        (ds, index)
    }

    fn result_bits(index: &JunoIndex, query: &[f32], k: usize) -> Vec<(u64, u32)> {
        index
            .search(query, k)
            .unwrap()
            .neighbors
            .into_iter()
            .map(|n| (n.id, n.distance.to_bits()))
            .collect()
    }

    #[test]
    fn with_live_ids_matches_tombstoned_sibling_bit_for_bit() {
        let (ds, mut index) = lifecycle_fixture(17, false);
        for i in 0..40 {
            index.insert(ds.points.row(i * 3)).unwrap();
        }
        let next_id = index.list_codes().next_id();
        let live: Vec<u64> = (0..u64::from(next_id)).filter(|id| id % 3 != 0).collect();

        let mut derived = index.with_live_ids(&live).unwrap();
        let mut tombstoned = index.clone();
        for id in 0..u64::from(next_id) {
            if id % 3 == 0 {
                tombstoned.remove(id).unwrap();
            }
        }
        assert_eq!(derived.ids(), tombstoned.ids());
        for q in ds.queries.iter() {
            assert_eq!(
                result_bits(&derived, q, 20),
                result_bits(&tombstoned, q, 20)
            );
        }
        // The id allocator is preserved: the next insert gets the same id
        // on both siblings, continuing the original sequence.
        let id_a = derived.insert(ds.points.row(0)).unwrap();
        let id_b = tombstoned.insert(ds.points.row(0)).unwrap();
        assert_eq!(id_a, id_b);
        assert_eq!(id_a, u64::from(next_id));
    }

    #[test]
    fn drift_tracker_flags_distribution_shift() {
        let (ds, mut index) = lifecycle_fixture(23, false);
        let before = index.drift_report();
        assert_eq!(before.inserts_tracked, 0);
        assert!((before.drift_ratio - 1.0).abs() < 1e-9);
        // In-distribution inserts keep the ratio near 1; shifted inserts
        // (constant offset moves points away from every trained centroid)
        // drive it up and fill the append tails.
        for i in 0..100 {
            index.insert(ds.points.row(i)).unwrap();
        }
        let in_dist = index.drift_report();
        assert!(in_dist.drift_ratio < 1.5, "ratio {}", in_dist.drift_ratio);
        for i in 0..200 {
            let mut v = ds.points.row(i).to_vec();
            for x in &mut v {
                *x += 2.5;
            }
            index.insert(&v).unwrap();
        }
        let shifted = index.drift_report();
        assert!(
            shifted.drift_ratio > in_dist.drift_ratio.max(1.5),
            "ratio {}",
            shifted.drift_ratio
        );
        assert!(shifted.max_tail_fill > 0.0);
        assert_eq!(shifted.inserts_tracked, 300);
    }

    #[test]
    fn rebuild_for_live_preserves_ids_and_resets_drift() {
        let (ds, mut index) = lifecycle_fixture(29, true);
        for i in 0..150 {
            let mut v = ds.points.row(i).to_vec();
            for x in &mut v {
                *x += 2.0;
            }
            index.insert(&v).unwrap();
        }
        for id in (0..500u64).step_by(2) {
            assert!(index.remove(id).unwrap());
        }
        let live = index.ids();
        let next_id = index.list_codes().next_id();

        let mut rebuilt = index.rebuild_for_live(&live).unwrap();
        // Live ids keep their ids, dead ids stay burnt, the allocator
        // resumes where it left off.
        assert_eq!(rebuilt.ids(), live);
        assert_eq!(rebuilt.list_codes().next_id(), next_id);
        let id = rebuilt.insert(ds.points.row(5)).unwrap();
        assert_eq!(id, u64::from(next_id));
        // The drift baseline is re-anchored on the fresh training run.
        let dr = rebuilt.drift_report();
        assert_eq!(dr.inserts_tracked, 1);
        assert!(dr.drift_ratio < 1.5, "ratio {}", dr.drift_ratio);
        // Retained rows still cover the whole id space.
        assert_eq!(
            rebuilt.raw.as_ref().unwrap().len(),
            rebuilt.list_codes().next_id() as usize
        );
        // Searches return live ids only.
        let res = rebuilt.search(ds.queries.row(0), 20).unwrap();
        assert!(res
            .neighbors
            .iter()
            .all(|n| !index.list_codes().is_deleted(u32::try_from(n.id).unwrap()) || n.id == id));
    }

    #[test]
    fn rebuild_without_retention_falls_back_to_reconstructions() {
        let (ds, mut index) = lifecycle_fixture(31, false);
        for id in 0..100u64 {
            index.remove(id).unwrap();
        }
        let live = index.ids();
        let rebuilt = index.rebuild_for_live(&live).unwrap();
        assert_eq!(rebuilt.ids(), live);
        assert!(rebuilt.raw.as_ref().is_none());
        let res = rebuilt.search(ds.queries.row(0), 10).unwrap();
        assert_eq!(res.neighbors.len(), 10);
    }

    #[test]
    fn rebuild_rejects_degenerate_live_sets() {
        let (_, index) = lifecycle_fixture(37, false);
        assert!(index.rebuild_for_live(&[]).is_err());
        assert!(index.rebuild_for_live(&[u64::from(u32::MAX) + 7]).is_err());
        assert!(index.with_live_ids(&[1_000_000]).is_err());
    }

    /// The front half as it was first written: a residual `Vec` per probe,
    /// the threshold looked up per (probe, subspace), a materialised request
    /// list handed to [`construct_selective_lut`] in one slice. The reference
    /// [`JunoIndex::build_selective_lut`] must reproduce bit for bit.
    fn naive_selective_lut(index: &JunoIndex, query: &[f32]) -> SelectiveLutParts {
        let config = &index.config;
        let clusters = index.ivf.filter(query, config.nprobs).unwrap().clusters;
        let subspaces = index.pq.num_subspaces();
        let mut requests = Vec::new();
        let mut thresholds = vec![vec![0.0f32; subspaces]; clusters.len()];
        for (slot, &cluster) in clusters.iter().enumerate() {
            let origin: Vec<f32> = match config.metric {
                Metric::L2 => index.ivf.query_residual(query, cluster).unwrap(),
                Metric::InnerProduct => query.to_vec(),
            };
            for s in 0..subspaces {
                let threshold = match config.metric {
                    Metric::L2 => index
                        .threshold_model
                        .threshold_for(
                            s,
                            query[2 * s],
                            query[2 * s + 1],
                            config.threshold_strategy,
                            config.threshold_scale,
                        )
                        .unwrap(),
                    Metric::InnerProduct => config.threshold_scale,
                };
                thresholds[slot][s] = threshold;
                requests.push(LutRayRequest {
                    slot,
                    subspace: s,
                    projection: [origin[2 * s], origin[2 * s + 1]],
                    threshold,
                });
            }
        }
        let (lut, rt) = construct_selective_lut(&index.mapping, clusters.len(), &requests).unwrap();
        (clusters, lut, rt, thresholds)
    }

    #[test]
    fn selective_lut_equals_the_naive_construction_on_seeded_queries() {
        // Probes, LUT entries and values (bit patterns), traversal counters
        // and thresholds — under both metrics, every threshold strategy, a
        // tightened scale, and after inserts have moved the density maps.
        let same_bits = |a: &[f32], b: &[f32]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let check = |index: &JunoIndex, queries: &VectorSet, label: &str| {
            for (qi, q) in queries.iter().enumerate() {
                let (clusters, lut, rt, thresholds) = index.build_selective_lut(q).unwrap();
                let (want_clusters, want_lut, want_rt, want_thresholds) =
                    naive_selective_lut(index, q);
                assert_eq!(clusters, want_clusters, "{label} query {qi}: probes");
                assert_eq!(rt, want_rt, "{label} query {qi}: traversal stats");
                assert_same_lut(&lut, &want_lut, &format!("{label} query {qi}"));
                for slot in 0..clusters.len() {
                    assert!(
                        same_bits(&thresholds[slot], &want_thresholds[slot]),
                        "{label} query {qi} slot {slot}: thresholds"
                    );
                }
            }
        };

        let ds = deep_dataset(2_000, 24);
        let mut index = build_high(&ds);
        check(&index, &ds.queries, "l2");
        for i in 0..50 {
            index.insert(ds.queries.row(i % ds.queries.len())).unwrap();
        }
        check(&index, &ds.queries, "l2 after inserts");
        index.set_threshold_scale(0.6).unwrap();
        for strategy in [
            ThresholdStrategy::StaticSmall,
            ThresholdStrategy::StaticLarge,
            ThresholdStrategy::Fixed(0.3),
        ] {
            index.set_threshold_strategy(strategy);
            check(&index, &ds.queries, &format!("l2 {strategy:?} scale 0.6"));
        }

        let mips = DatasetProfile::TtiLike.generate(1_500, 16, 5).unwrap();
        let config = JunoConfig {
            n_clusters: 16,
            nprobs: 6,
            pq_entries: 32,
            ..JunoConfig::small_test(mips.dim(), mips.metric())
        };
        let index = JunoIndex::build(&mips.points, &config).unwrap();
        check(&index, &mips.queries, "mips");
    }

    /// Probe `probe` of `plan`'s selective table, as the scan expands it,
    /// and the hits the expansion reports.
    fn expanded_table(
        index: &JunoIndex,
        query: &[f32],
        plan: &JunoPlan,
        probe: usize,
    ) -> (Vec<f32>, usize) {
        let mut slot = index.new_slot();
        let hits = index.expand(query, plan, probe, plan.probes[probe], &mut slot);
        (slot.table, hits)
    }

    /// Compares every entry of every probe's expanded table with the traced
    /// LUT of the same query. Returns the entries compared and, per entry on
    /// which the two disagree about selection, a description, the entry's
    /// exact value and the limit the table held it to.
    fn hit_set_mismatches(
        index: &JunoIndex,
        queries: &VectorSet,
    ) -> (usize, Vec<(String, f32, f32)>) {
        let entries = index.pq.entries_per_subspace();
        let (mut compared, mut mismatches) = (0usize, Vec::new());
        for (qi, q) in queries.iter().enumerate() {
            let plan = index.plan(q).unwrap();
            let (clusters, lut, _, _) = index.build_selective_lut(q).unwrap();
            assert_eq!(plan.probes, clusters, "query {qi}: probes");
            let (mut selected, mut reported) = (0usize, 0usize);
            for (probe, &cluster) in clusters.iter().enumerate() {
                let centroid = index.ray_centroid(cluster).unwrap();
                let (table, hits) = expanded_table(index, q, &plan, probe);
                reported += hits;
                for (s, row) in table.chunks_exact(entries).enumerate() {
                    let mut traced = vec![false; entries];
                    for &e in lut.row_entries(probe, s) {
                        traced[e as usize] = true;
                    }
                    let p = projection(q, centroid, s);
                    let threshold = plan.thresholds[s];
                    for (e, (&v, &t)) in row.iter().zip(&traced).enumerate() {
                        compared += 1;
                        selected += usize::from(!v.is_nan());
                        if v.is_nan() != t {
                            continue;
                        }
                        let limit = index.mapping.select_limit(s, p, threshold).unwrap();
                        let entry = index.pq.codebooks()[s].entry(e).unwrap();
                        let value = match index.config.metric {
                            Metric::L2 => juno_common::metric::l2_squared(&p, entry),
                            Metric::InnerProduct => inner_product(&p, entry),
                        };
                        let side = if t { "traced only" } else { "table only" };
                        mismatches.push((
                            format!("query {qi} probe {probe} subspace {s} entry {e}: {side}"),
                            value,
                            limit,
                        ));
                    }
                }
            }
            assert_eq!(reported, selected, "query {qi}: hit count");
            let searched = index.search(q, 10).unwrap().stats.lut_distances;
            assert_eq!(
                searched, selected,
                "query {qi}: the search counts each table once"
            );
        }
        (compared, mismatches)
    }

    /// The hit-set oracle: on every figure profile (SIFT- and DEEP-like
    /// under L2, TTI-like under MIPS, and DEEP-like under MIPS too) the
    /// closed-form tables select the entries the RT tracer hits, except at
    /// most one entry per million compared — the worst rate measured on
    /// figure-shaped fixtures (20k points, 200 queries, scales 1 to 0.4) was
    /// 4 in 4,915,200 — and each exception lies within rounding of the limit
    /// (there, within 2·10⁻⁵ of it, relative).
    #[test]
    fn closed_form_hit_sets_match_the_traced_luts_on_every_profile() {
        for (profile, metric) in [
            (DatasetProfile::SiftLike, Metric::L2),
            (DatasetProfile::DeepLike, Metric::L2),
            (DatasetProfile::TtiLike, Metric::InnerProduct),
            (DatasetProfile::DeepLike, Metric::InnerProduct),
        ] {
            let ds = profile.generate(3_000, 24, 83).unwrap();
            let config = JunoConfig {
                n_clusters: 32,
                nprobs: 8,
                pq_entries: 64,
                ..JunoConfig::small_test(ds.dim(), metric)
            };
            let mut index = JunoIndex::build(&ds.points, &config).unwrap();
            for scale in [1.0f32, 0.6] {
                index.set_threshold_scale(scale).unwrap();
                let (compared, mismatches) = hit_set_mismatches(&index, &ds.queries);
                let label = format!("{} {metric:?} scale {scale}", profile.name());
                assert!(compared > 500_000, "{label}: {compared} entries");
                let bound = compared.div_ceil(1_000_000);
                assert!(
                    mismatches.len() <= bound,
                    "{label}: {} mismatches in {compared} entries (bound {bound}): {mismatches:?}",
                    mismatches.len()
                );
                for (what, value, limit) in &mismatches {
                    assert!(
                        (value - limit).abs() <= 1e-4 * limit.abs().max(1.0),
                        "{label}: {what} is {value}, off its limit {limit}"
                    );
                }
            }
        }
    }

    /// Every selected value of a JUNO-H L2 probe's table is the dense ADC
    /// table's entry bit for bit ([`ProductQuantizer::dense_lut_into`] over the
    /// probe's residual), and every MIPS one is `inner_product` of the
    /// query's projection with the entry: the values are computed, not
    /// recovered from a hit time.
    #[test]
    fn selected_values_equal_the_dense_adc_table_bit_for_bit() {
        for (profile, metric) in [
            (DatasetProfile::DeepLike, Metric::L2),
            (DatasetProfile::SiftLike, Metric::L2),
            (DatasetProfile::TtiLike, Metric::InnerProduct),
        ] {
            let ds = profile.generate(2_000, 12, 89).unwrap();
            let config = JunoConfig {
                n_clusters: 16,
                nprobs: 6,
                pq_entries: 64,
                ..JunoConfig::small_test(ds.dim(), metric)
            };
            let index = JunoIndex::build(&ds.points, &config).unwrap();
            let (subspaces, entries) = (index.pq.num_subspaces(), index.pq.entries_per_subspace());
            let mut dense = Vec::new();
            let mut checked = 0usize;
            for (qi, q) in ds.queries.iter().enumerate() {
                let plan = index.plan(q).unwrap();
                for (probe, &cluster) in plan.probes.iter().enumerate() {
                    match metric {
                        Metric::L2 => {
                            let residual = index.ivf.query_residual(q, cluster).unwrap();
                            index.pq.dense_lut_into(&residual, &mut dense).unwrap();
                        }
                        Metric::InnerProduct => {
                            dense.clear();
                            for (s, cb) in index.pq.codebooks().iter().enumerate() {
                                let p = &q[2 * s..2 * s + 2];
                                dense.extend(cb.entries().iter().map(|e| inner_product(p, e)));
                            }
                        }
                    }
                    assert_eq!(dense.len(), subspaces * entries);
                    let (table, _) = expanded_table(&index, q, &plan, probe);
                    for (i, (&v, &want)) in table.iter().zip(&dense).enumerate() {
                        if !v.is_nan() {
                            checked += 1;
                            assert_eq!(
                                v.to_bits(),
                                want.to_bits(),
                                "{} query {qi} probe {probe} entry {i}: {v} vs {want}",
                                profile.name()
                            );
                        }
                    }
                }
            }
            assert!(
                checked > 1_000,
                "{}: only {checked} selected",
                profile.name()
            );
        }
    }

    #[test]
    fn plan_stamp_tracks_exactly_what_planning_reads() {
        let (ds, index) = lifecycle_fixture(41, true);
        let stamp = index.plan_stamp();
        // Copies agree; a snapshot round trip recomputes the same content
        // stamp; the scan-side toggles are not planning inputs.
        assert_eq!(index.clone().plan_stamp(), stamp);
        let restored = JunoIndex::from_snapshot_bytes(&index.to_snapshot_bytes()).unwrap();
        assert_eq!(restored.plan_stamp(), stamp);
        let mut scan_side = index.clone();
        scan_side.set_fastscan(false);
        scan_side.set_quality(QualityMode::Low);
        assert_eq!(scan_side.plan_stamp(), stamp);

        // Every search-time planning knob moves it, and moves it back.
        let mut knobs = index.clone();
        knobs.set_nprobs(3);
        assert_ne!(knobs.plan_stamp(), stamp);
        knobs.set_nprobs(index.config().nprobs);
        knobs.set_threshold_scale(0.5).unwrap();
        assert_ne!(knobs.plan_stamp(), stamp);
        knobs
            .set_threshold_scale(index.config().threshold_scale)
            .unwrap();
        knobs.set_threshold_strategy(ThresholdStrategy::Fixed(0.25));
        let fixed = knobs.plan_stamp();
        assert_ne!(fixed, stamp);
        knobs.set_threshold_strategy(ThresholdStrategy::Fixed(0.5));
        assert_ne!(knobs.plan_stamp(), fixed);
        knobs.set_threshold_strategy(index.config().threshold_strategy);
        assert_eq!(knobs.plan_stamp(), stamp);

        // Inserts move the density maps, so they move the stamp — in
        // lockstep on replicas taking the same inserts, and through
        // `with_live_ids`; removes and compaction are invisible to planning.
        let (mut a, mut b) = (index.clone(), index.clone());
        a.insert(ds.points.row(1)).unwrap();
        assert_ne!(a.plan_stamp(), stamp);
        b.insert(ds.points.row(1)).unwrap();
        assert_eq!(a.plan_stamp(), b.plan_stamp());
        b.insert(ds.points.row(2)).unwrap();
        assert_ne!(a.plan_stamp(), b.plan_stamp());
        let after_insert = a.plan_stamp();
        assert_eq!(
            a.with_live_ids(&a.ids()).unwrap().plan_stamp(),
            after_insert
        );
        a.remove(0).unwrap();
        a.compact().unwrap();
        assert_eq!(a.plan_stamp(), after_insert);

        // A rebuild retrains: a fresh content stamp, equal across rebuilds
        // of the same live set (training is deterministic).
        let rebuilt = a.rebuild_for_live(&a.ids()).unwrap();
        assert_ne!(rebuilt.plan_stamp(), after_insert);
        assert_eq!(
            a.rebuild_for_live(&a.ids()).unwrap().plan_stamp(),
            rebuilt.plan_stamp()
        );
    }
}
