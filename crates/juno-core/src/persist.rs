//! Snapshot persistence for the JUNO engine.
//!
//! Serialises a built [`JunoIndex`] into the versioned container format of
//! [`juno_data::snapshot`] and rebuilds it without re-training. The snapshot
//! stores every *trained* artefact (coarse centroids, PQ codebooks, code
//! layout incl. mutation state, threshold calibration, scene bounds, full
//! configuration); the RT scene and the GPU simulator are **rebuilt
//! deterministically** from those artefacts on load, which keeps snapshots
//! small and — because scene construction has no randomness — preserves
//! bit-identical search results.
//!
//! Section layout (engine kind `b"JUNO"`, engine layout version 1 inside
//! `CONF`):
//!
//! | tag    | contents                                                    |
//! |--------|-------------------------------------------------------------|
//! | `CONF` | engine layout version + the full [`JunoConfig`]             |
//! | `IVFC` | centroids, per-point labels, inverted lists (framed)        |
//! | `PQCB` | per-subspace codebook entry sets                            |
//! | `CODE` | dataset-order PQ codes (`EncodedPoints`), mapped layout     |
//! | `LAYT` | [`IvfListCodes`] CSR base + tails + tombstones, mapped layout |
//! | `THRM` | density maps, regressors, min/max thresholds (framed)       |
//! | `SCNB` | the per-subspace scene bounds the RT scene is rebuilt from  |
//! | `RAWV` | optional: the retained raw vectors (`retain_vectors`)       |
//! | `DRFT` | optional: drift-tracker state                               |
//!
//! # One format, two ways to open it
//!
//! There is one encoding, and `JunoIndex::restore_sections` is its one
//! decoder. The hot sections (`CODE`, `LAYT`) are written in the exact in-memory
//! layout of `juno_quant::mapped` — 64-byte-aligned code regions,
//! per-cluster block directory with checksums, explicit region offsets —
//! so the same bytes are either copied out
//! ([`JunoIndex::from_snapshot_bytes`]) or served **zero-copy** from an
//! mmap'd file ([`JunoIndex::from_mapped`], [`JunoIndex::load_snapshot_mapped`]):
//! there restore is an O(clusters) map-and-validate, and cluster contents
//! are verified lazily on first probe under a configurable residency
//! budget. Both produce bit-identical search results: the block-interleaved
//! fast-scan view is a deterministic function of the CSR base, which the
//! copy restore rebuilds and the mapped restore checks the stored view
//! against.
//!
//! The bulky eager sections (`THRM`, `IVFC`) are *framed*
//! ([`frame_v3`]): their megabytes of density maps and inverted lists
//! would dominate an O(1) mapped restore if byte-serially checksummed, so
//! the payload leads with a sentinel, a version and a word-wise FNV body
//! checksum ([`juno_data::snapshot::fnv1a_w64`]). The two restores differ
//! in exactly two things: the mapped one leaves `IVFC`/`THRM`/`CODE`/`LAYT`
//! out of the container's byte-serial checksum pass (a section the
//! container did not checksum is verified by its own frame or per-cluster
//! checksums instead), and it opens `CODE`/`LAYT` as views rather than
//! copies.
//!
//! # Upgrading old snapshots
//!
//! Builds before the out-of-core PR wrote `CODE`/`LAYT` as length-prefixed
//! vectors (section version 2, or unversioned with `u16` codes) and
//! `IVFC`/`THRM` unframed. No library crate reads those any more: a loader
//! answers them with [`Error::outdated`], and the offline
//! `snapshot-upgrade <old> <new>` binary of the root package — the only
//! place the old decoders live — rewrites such a file in this format.
//!
//! # Durability
//!
//! All save entry points ([`JunoIndex::save_snapshot`] and the `AnnIndex`
//! path helpers) write through [`juno_common::atomic_file::write_atomic`]:
//! temp file + fsync + atomic rename, rotating the previous snapshot to a
//! `.prev` generation that the loaders fall back to. A crash mid-save can
//! never leave a torn snapshot as the only copy.

use crate::config::JunoConfig;
use crate::density::DensityMap;
use crate::engine::JunoIndex;
use crate::pipeline::QuerySimulator;
use crate::regression::PolynomialRegression;
use crate::threshold::{SubspaceThreshold, ThresholdModel, ThresholdStrategy};
use juno_common::atomic_file;
use juno_common::error::{Error, Result};
use juno_common::metric::Metric;
use juno_common::mmap::{MappedBytes, Mmap, ResidencyConfig};
use juno_common::vector::VectorSet;
use juno_data::snapshot::{
    fnv1a_w64, kind, SectionReader, SectionWriter, Snapshot, SnapshotWriter,
};
use juno_gpu::device::GpuDevice;
use juno_gpu::pipeline::ExecutionMode;
use juno_quant::codebook::Codebook;
use juno_quant::ivf::IvfIndex;
use juno_quant::layout::IvfListCodes;
use juno_quant::pq::{EncodedPoints, ProductQuantizer};
use juno_rt::hardware::{RtCoreGeneration, RtCoreModel};
use std::path::Path;
use std::sync::Arc;

pub use codec::{get_codes, get_ivf, get_metric, get_pq, put_codes, put_ivf, put_metric, put_pq};

/// The engine kind word identifying JUNO snapshots.
pub const KIND_JUNO: u32 = kind(*b"JUNO");

/// Version of the JUNO-specific section layout (independent of the container
/// version; bumped when section contents change incompatibly).
pub const JUNO_LAYOUT_VERSION: u32 = 1;

/// Shared enum/section codecs for the substrate types (`Metric`,
/// [`IvfIndex`], [`ProductQuantizer`], [`EncodedPoints`]) — also used by the
/// baseline engines' snapshot implementations.
pub mod codec {
    use super::*;

    /// Encodes a [`Metric`] as one byte.
    pub fn put_metric(w: &mut SectionWriter, m: Metric) {
        w.put_u8(match m {
            Metric::L2 => 0,
            Metric::InnerProduct => 1,
        });
    }

    /// Decodes a [`Metric`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for an unknown discriminant.
    pub fn get_metric(r: &mut SectionReader<'_>) -> Result<Metric> {
        match r.get_u8()? {
            0 => Ok(Metric::L2),
            1 => Ok(Metric::InnerProduct),
            v => Err(Error::corrupted(format!("unknown metric discriminant {v}"))),
        }
    }

    /// Writes a trained [`IvfIndex`]: centroids, labels and the (possibly
    /// pruned) inverted lists.
    pub fn put_ivf(w: &mut SectionWriter, ivf: &IvfIndex) {
        put_metric(w, ivf.metric());
        w.put_vector_set(ivf.centroids());
        w.put_u64s(&ivf.labels().iter().map(|&c| c as u64).collect::<Vec<_>>());
        w.put_u64(ivf.n_clusters() as u64);
        for c in 0..ivf.n_clusters() {
            w.put_u32s(ivf.list(c).expect("cluster id in range"));
        }
    }

    /// Reads an [`IvfIndex`] written by [`put_ivf`], re-validating label and
    /// list consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for malformed contents.
    pub fn get_ivf(r: &mut SectionReader<'_>) -> Result<IvfIndex> {
        let metric = get_metric(r)?;
        let centroids = r.get_vector_set()?;
        let labels: Vec<usize> = r
            .get_u64s()?
            .into_iter()
            .map(|c| usize::try_from(c).map_err(|_| Error::corrupted("label overflows usize")))
            .collect::<Result<_>>()?;
        let n_lists = r.get_usize()?;
        if n_lists != centroids.len() {
            return Err(Error::corrupted("IVF list count != centroid count"));
        }
        let mut lists = Vec::with_capacity(n_lists);
        for _ in 0..n_lists {
            lists.push(r.get_u32s()?);
        }
        IvfIndex::from_parts_with_lists(centroids, labels, lists, metric)
    }

    /// Writes a trained [`ProductQuantizer`] as its per-subspace codebooks.
    pub fn put_pq(w: &mut SectionWriter, pq: &ProductQuantizer) {
        w.put_u64(pq.num_subspaces() as u64);
        for cb in pq.codebooks() {
            w.put_u64(cb.subspace() as u64);
            w.put_vector_set(cb.entries());
        }
    }

    /// Reads a [`ProductQuantizer`] written by [`put_pq`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for malformed contents.
    pub fn get_pq(r: &mut SectionReader<'_>) -> Result<ProductQuantizer> {
        let n = r.get_usize()?;
        let mut codebooks = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let subspace = r.get_usize()?;
            let entries = r.get_vector_set()?;
            codebooks.push(Codebook::new(subspace, entries)?);
        }
        ProductQuantizer::from_parts(codebooks)
    }

    /// Version written into the length-prefixed `CODE` section of the
    /// engines that scan it whole (the IVFPQ baseline): `u8` codes.
    pub const CODE_SECTION_VERSION: u32 = 2;

    /// Writes dataset-order PQ codes as one length-prefixed `u8` vector.
    pub fn put_codes(w: &mut SectionWriter, codes: &EncodedPoints) {
        w.put_version(CODE_SECTION_VERSION);
        w.put_u64(codes.num_subspaces() as u64);
        w.put_u8s(codes.as_flat());
    }

    /// Reads dataset-order PQ codes written by [`put_codes`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] / [`Error::InvalidConfig`] for malformed
    /// contents, and [`Error::outdated`] for the unversioned `u16` payload
    /// older builds wrote.
    pub fn get_codes(r: &mut SectionReader<'_>) -> Result<EncodedPoints> {
        r.expect_version("CODE", CODE_SECTION_VERSION)?;
        let subspaces = r.get_usize()?;
        let flat = r.get_u8s()?;
        EncodedPoints::from_parts(flat, subspaces)
    }
}

/// Version of the framed payload layout used by the bulky eager sections
/// (`THRM`, `IVFC`): sentinel + version + word-wise body checksum + body.
/// Those sections are a couple of megabytes of density maps and inverted
/// lists, so they ride the lazy set in the mapped container parse — this
/// framing is what still gets them verified at restore, at word (not byte)
/// FNV throughput.
const FRAMED_SECTION_VERSION: u32 = 3;

/// Wraps a section body in the `IVFC`/`THRM` framing (sentinel, version,
/// word-wise body checksum).
pub fn frame_v3(body: SectionWriter) -> SectionWriter {
    let body = body.finish();
    let mut framed = SectionWriter::new();
    framed.put_version(FRAMED_SECTION_VERSION);
    framed.put_u32(fnv1a_w64(&body));
    framed.put_raw(&body);
    framed
}

/// Opens the body of a section [`frame_v3`] wrote. `verify` is set when the
/// container parse left the section un-checksummed: the frame's own body
/// checksum then stands in for it. (When the container did checksum the
/// payload, that already covered the body, and hashing it again would be a
/// second pass over the same bytes.)
fn framed_section<'a>(
    snap: &Snapshot<'a>,
    tag: [u8; 4],
    verify: bool,
) -> Result<SectionReader<'a>> {
    let name = String::from_utf8_lossy(&tag);
    let mut r = snap.section(tag)?;
    r.expect_version(&name, FRAMED_SECTION_VERSION)?;
    let claimed = r.get_u32()?;
    let body = r.take_rest();
    if verify && fnv1a_w64(body) != claimed {
        return Err(Error::corrupted(format!("{name}: body checksum mismatch")));
    }
    Ok(SectionReader::over(body))
}

/// Decodes one whole section: `get` must consume the payload exactly.
fn decode<'a, T>(
    mut r: SectionReader<'a>,
    get: impl FnOnce(&mut SectionReader<'a>) -> Result<T>,
) -> Result<T> {
    let value = get(&mut r)?;
    r.expect_end()?;
    Ok(value)
}

fn put_device(w: &mut SectionWriter, d: &GpuDevice) {
    w.put_string(&d.name);
    w.put_u64(d.sm_count as u64);
    w.put_u64(d.cuda_cores as u64);
    w.put_f64(d.fp32_gflops);
    w.put_f64(d.tensor_gflops);
    w.put_f64(d.mem_bandwidth_gbs);
    w.put_f64(d.launch_overhead_us);
    w.put_u8(match d.rt.generation {
        RtCoreGeneration::None => 0,
        RtCoreGeneration::Gen1Turing => 1,
        RtCoreGeneration::Gen2Ampere => 2,
        RtCoreGeneration::Gen3Ada => 3,
    });
    w.put_u64(d.rt.core_count as u64);
    w.put_f64(d.rt.box_tests_per_core_us);
    w.put_f64(d.rt.primitive_tests_per_core_us);
    w.put_f64(d.rt.launch_overhead_us);
    w.put_f64(d.rt.hit_shader_ns);
}

fn get_device(r: &mut SectionReader<'_>) -> Result<GpuDevice> {
    let name = r.get_string()?;
    let sm_count = r.get_usize()?;
    let cuda_cores = r.get_usize()?;
    let fp32_gflops = r.get_f64()?;
    let tensor_gflops = r.get_f64()?;
    let mem_bandwidth_gbs = r.get_f64()?;
    let launch_overhead_us = r.get_f64()?;
    let generation = match r.get_u8()? {
        0 => RtCoreGeneration::None,
        1 => RtCoreGeneration::Gen1Turing,
        2 => RtCoreGeneration::Gen2Ampere,
        3 => RtCoreGeneration::Gen3Ada,
        v => {
            return Err(Error::corrupted(format!(
                "unknown RT generation discriminant {v}"
            )))
        }
    };
    let rt = RtCoreModel {
        generation,
        core_count: r.get_usize()?,
        box_tests_per_core_us: r.get_f64()?,
        primitive_tests_per_core_us: r.get_f64()?,
        launch_overhead_us: r.get_f64()?,
        hit_shader_ns: r.get_f64()?,
    };
    Ok(GpuDevice {
        name,
        sm_count,
        cuda_cores,
        fp32_gflops,
        tensor_gflops,
        mem_bandwidth_gbs,
        launch_overhead_us,
        rt,
    })
}

fn put_config(w: &mut SectionWriter, c: &JunoConfig) {
    w.put_u32(JUNO_LAYOUT_VERSION);
    w.put_u64(c.n_clusters as u64);
    w.put_u64(c.nprobs as u64);
    w.put_u64(c.pq_subspaces as u64);
    w.put_u64(c.pq_entries as u64);
    put_metric(w, c.metric);
    w.put_u8(match c.quality {
        crate::config::QualityMode::Low => 0,
        crate::config::QualityMode::Medium => 1,
        crate::config::QualityMode::High => 2,
    });
    let (strategy, fixed) = match c.threshold_strategy {
        ThresholdStrategy::Dynamic => (0u8, 0.0f32),
        ThresholdStrategy::StaticSmall => (1, 0.0),
        ThresholdStrategy::StaticLarge => (2, 0.0),
        ThresholdStrategy::Fixed(v) => (3, v),
    };
    w.put_u8(strategy);
    w.put_f32(fixed);
    w.put_f32(c.threshold_scale);
    w.put_f32(c.miss_penalty_factor);
    w.put_u8(match c.execution_mode {
        ExecutionMode::Serial => 0,
        ExecutionMode::NaiveCorun => 1,
        ExecutionMode::Pipelined => 2,
    });
    put_device(w, &c.device);
    w.put_u64(c.batch_size as u64);
    w.put_u64(c.seed);
    w.put_u64(c.threshold_train_samples as u64);
    w.put_u64(c.threshold_target_k as u64);
}

fn get_config(r: &mut SectionReader<'_>) -> Result<JunoConfig> {
    let layout = r.get_u32()?;
    if layout != JUNO_LAYOUT_VERSION {
        return Err(Error::corrupted(format!(
            "unknown JUNO snapshot layout version {layout} (reader supports {JUNO_LAYOUT_VERSION})"
        )));
    }
    let n_clusters = r.get_usize()?;
    let nprobs = r.get_usize()?;
    let pq_subspaces = r.get_usize()?;
    let pq_entries = r.get_usize()?;
    let metric = get_metric(r)?;
    let quality = match r.get_u8()? {
        0 => crate::config::QualityMode::Low,
        1 => crate::config::QualityMode::Medium,
        2 => crate::config::QualityMode::High,
        v => {
            return Err(Error::corrupted(format!(
                "unknown quality discriminant {v}"
            )))
        }
    };
    let strategy_disc = r.get_u8()?;
    let fixed = r.get_f32()?;
    let threshold_strategy = match strategy_disc {
        0 => ThresholdStrategy::Dynamic,
        1 => ThresholdStrategy::StaticSmall,
        2 => ThresholdStrategy::StaticLarge,
        3 => ThresholdStrategy::Fixed(fixed),
        v => {
            return Err(Error::corrupted(format!(
                "unknown threshold strategy discriminant {v}"
            )))
        }
    };
    let threshold_scale = r.get_f32()?;
    let miss_penalty_factor = r.get_f32()?;
    let execution_mode = match r.get_u8()? {
        0 => ExecutionMode::Serial,
        1 => ExecutionMode::NaiveCorun,
        2 => ExecutionMode::Pipelined,
        v => {
            return Err(Error::corrupted(format!(
                "unknown execution mode discriminant {v}"
            )))
        }
    };
    let device = get_device(r)?;
    Ok(JunoConfig {
        n_clusters,
        nprobs,
        pq_subspaces,
        pq_entries,
        metric,
        quality,
        threshold_strategy,
        threshold_scale,
        miss_penalty_factor,
        execution_mode,
        device,
        batch_size: r.get_usize()?,
        seed: r.get_u64()?,
        threshold_train_samples: r.get_usize()?,
        threshold_target_k: r.get_usize()?,
        // CONF is strict (readers consume it field-by-field and reject
        // trailing bytes), so retention is not a CONF field: it is inferred
        // in `assemble` from the presence of the optional RAWV section.
        retain_vectors: false,
    })
}

fn put_threshold_model(w: &mut SectionWriter, model: &ThresholdModel) {
    let subspaces = model.subspaces_raw();
    w.put_u64(subspaces.len() as u64);
    for sub in subspaces {
        let map = &sub.density_map;
        w.put_u64(map.grid() as u64);
        let min = map.min_corner();
        let max = map.max_corner();
        w.put_f32(min[0]);
        w.put_f32(min[1]);
        w.put_f32(max[0]);
        w.put_f32(max[1]);
        w.put_f32s(map.cells());
        w.put_u64(map.total_points() as u64);
        w.put_f64s(sub.regressor.coefficients());
        w.put_f32(sub.min_threshold);
        w.put_f32(sub.max_threshold);
    }
}

fn get_threshold_model(r: &mut SectionReader<'_>) -> Result<ThresholdModel> {
    let n = r.get_usize()?;
    let mut subspaces = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let grid = r.get_usize()?;
        let min = [r.get_f32()?, r.get_f32()?];
        let max = [r.get_f32()?, r.get_f32()?];
        let cells = r.get_f32s()?;
        let total_points = r.get_usize()?;
        let density_map = DensityMap::from_parts(grid, min, max, cells, total_points)?;
        let regressor = PolynomialRegression::from_coefficients(r.get_f64s()?)?;
        let min_threshold = r.get_f32()?;
        let max_threshold = r.get_f32()?;
        subspaces.push(SubspaceThreshold {
            density_map,
            regressor,
            min_threshold,
            max_threshold,
        });
    }
    ThresholdModel::from_subspaces(subspaces)
}

/// Decodes the optional `DRFT` section (drift-tracker state).
fn get_drift(r: &mut SectionReader<'_>) -> Result<crate::drift::DriftTracker> {
    let baseline = r.get_f64()?;
    let ewma = r.get_f64()?;
    let inserts = r.get_u64()?;
    Ok(crate::drift::DriftTracker::from_parts(
        baseline, ewma, inserts,
    ))
}

impl JunoIndex {
    /// Serialises the complete engine state into snapshot bytes.
    ///
    /// The hot sections (`CODE`, `LAYT`) are written in the mapped layout,
    /// whose 64-byte alignment padding depends on the payload's absolute
    /// file offset ([`SnapshotWriter::next_payload_offset`]).
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut writer = SnapshotWriter::new(KIND_JUNO);

        let mut conf = SectionWriter::new();
        put_config(&mut conf, self.config());
        writer.add_section(*b"CONF", conf);

        let mut body = SectionWriter::new();
        put_ivf(&mut body, &self.ivf);
        writer.add_section(*b"IVFC", frame_v3(body));

        let mut pqcb = SectionWriter::new();
        put_pq(&mut pqcb, &self.pq);
        writer.add_section(*b"PQCB", pqcb);

        let mut code = SectionWriter::new();
        code.put_raw(&juno_quant::mapped::encode_codes_v3(
            &self.codes,
            writer.next_payload_offset(),
        ));
        writer.add_section(*b"CODE", code);

        let mut layt = SectionWriter::new();
        layt.put_raw(&juno_quant::mapped::encode_layout_v3(
            &self.list_codes,
            writer.next_payload_offset(),
        ));
        writer.add_section(*b"LAYT", layt);

        let mut body = SectionWriter::new();
        put_threshold_model(&mut body, &self.threshold_model);
        writer.add_section(*b"THRM", frame_v3(body));

        let mut scnb = SectionWriter::new();
        scnb.put_f32s(&self.scene_bounds);
        writer.add_section(*b"SCNB", scnb);

        // Optional lifecycle sections. Sections are looked up by tag, so
        // readers treat their absence as "retention off / drift untracked".
        if let Some(raw) = &self.raw {
            let mut rawv = SectionWriter::new();
            rawv.put_vector_set(raw);
            writer.add_section(*b"RAWV", rawv);
        }
        let mut drft = SectionWriter::new();
        drft.put_f64(self.drift.baseline_mean_sq());
        drft.put_f64(self.drift.ewma_sq());
        drft.put_u64(self.drift.inserts());
        writer.add_section(*b"DRFT", drft);

        writer.finish()
    }

    /// Rebuilds an engine from snapshot bytes. The RT scene and the GPU
    /// simulator are reconstructed deterministically from the restored
    /// artefacts, so searches are bit-identical to the snapshotted index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for malformed or cross-inconsistent
    /// snapshots; never panics on arbitrary input.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self> {
        Self::restore_sections(bytes, None)
    }

    /// The one walk over an engine snapshot's sections, shared by the copy
    /// and the mapped restore. `bytes` is the whole container; with
    /// `mapped = Some((map, base, residency))` it is the region of `map`
    /// starting at `base`, and the restore differs in the two ways the
    /// [module docs](self) name: `IVFC`/`THRM`/`CODE`/`LAYT` skip the
    /// container checksum (their own frame / per-cluster checksums verify
    /// them), and `CODE`/`LAYT` are opened as views of the mapping paged
    /// under `residency` rather than copied out.
    fn restore_sections(
        bytes: &[u8],
        mapped: Option<(&Arc<Mmap>, usize, &ResidencyConfig)>,
    ) -> Result<Self> {
        let lazy = mapped.is_some();
        let snap = Snapshot::parse_lazy(bytes, |tag| {
            lazy && matches!(tag, b"CODE" | b"LAYT" | b"THRM" | b"IVFC")
        })?;
        if snap.kind() != KIND_JUNO {
            return Err(Error::corrupted(format!(
                "snapshot kind {:#010x} is not a JUNO engine snapshot",
                snap.kind()
            )));
        }
        let config = decode(snap.section(*b"CONF")?, get_config)?;
        let ivf = decode(framed_section(&snap, *b"IVFC", lazy)?, get_ivf)?;
        let pq = decode(snap.section(*b"PQCB")?, get_pq)?;
        let code = snap.section_range(*b"CODE")?;
        let layt = snap.section_range(*b"LAYT")?;
        let (codes, list_codes) = match mapped {
            Some((map, base, residency)) => {
                let view = |(off, len)| MappedBytes::new(map.clone(), base + off, len);
                (
                    juno_quant::mapped::map_codes_v3(view(code)?)?,
                    juno_quant::mapped::map_layout_v3(view(layt)?, residency)?,
                )
            }
            None => {
                let slice = |(off, len): (usize, usize)| &bytes[off..off + len];
                (
                    juno_quant::mapped::decode_codes_v3(slice(code))?,
                    juno_quant::mapped::decode_layout_v3(slice(layt))?,
                )
            }
        };
        let threshold_model = decode(framed_section(&snap, *b"THRM", lazy)?, get_threshold_model)?;
        let scene_bounds = decode(snap.section(*b"SCNB")?, |r| r.get_f32s())?;
        let raw = if snap.has_section(*b"RAWV") {
            Some(decode(snap.section(*b"RAWV")?, |r| r.get_vector_set())?)
        } else {
            None
        };
        let drift = if snap.has_section(*b"DRFT") {
            Some(decode(snap.section(*b"DRFT")?, get_drift)?)
        } else {
            None
        };

        Self::assemble(
            config,
            ivf,
            pq,
            codes,
            list_codes,
            threshold_model,
            scene_bounds,
            raw,
            drift,
        )
    }

    /// Validates cross-section consistency and assembles the engine,
    /// deterministically rebuilding the RT scene and the GPU simulator.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        mut config: JunoConfig,
        ivf: IvfIndex,
        pq: ProductQuantizer,
        codes: EncodedPoints,
        list_codes: IvfListCodes,
        threshold_model: ThresholdModel,
        scene_bounds: Vec<f32>,
        raw: Option<VectorSet>,
        drift: Option<crate::drift::DriftTracker>,
    ) -> Result<Self> {
        // The restored configuration must satisfy the same invariants
        // JunoIndex::build enforces (positive nprobs, threshold_scale in
        // (0, 1] and not NaN, ...): a degenerate config must fail the
        // restore, not produce an index that silently searches nothing.
        config.validate(ivf.dim())?;

        // Cross-section consistency: a snapshot stitched together from
        // mismatched sections must be rejected, not searched.
        if ivf.n_clusters() != config.n_clusters
            || list_codes.num_clusters() != config.n_clusters
            || pq.num_subspaces() != config.pq_subspaces
            || pq.entries_per_subspace() != config.pq_entries
            || codes.num_subspaces() != config.pq_subspaces
            || list_codes.num_subspaces() != config.pq_subspaces
            || threshold_model.num_subspaces() != config.pq_subspaces
            || scene_bounds.len() != config.pq_subspaces
            || ivf.dim() != config.pq_subspaces * 2
            || ivf.labels().len() != codes.len()
            || ivf.labels().len() != list_codes.next_id() as usize
        {
            return Err(Error::corrupted(
                "snapshot sections are mutually inconsistent",
            ));
        }
        // Every stored code must address a live codebook entry; the scan
        // kernels index LUT rows without per-lookup bounds checks. Mapped
        // sections answer from their header claim here; the claim itself is
        // enforced against the data on (lazy) content verification.
        let code_in_range = |c: Option<u8>| c.is_none_or(|c| (c as usize) < config.pq_entries);
        if !code_in_range(codes.claimed_max_code()) || !code_in_range(list_codes.max_code()) {
            return Err(Error::corrupted(
                "snapshot stores codes outside the codebook entry range",
            ));
        }

        // Retention is implied by the RAWV section (CONF stays strict); a
        // present section must cover the whole id space at the right
        // dimension, dead ids included.
        if let Some(raw) = &raw {
            if raw.len() != ivf.labels().len() || raw.dim() != ivf.dim() {
                return Err(Error::corrupted(
                    "retained raw vectors disagree with the id space",
                ));
            }
        }
        config.retain_vectors = raw.is_some();

        let mapping = Self::build_mapping(&pq, config.metric, &scene_bounds)?;
        let simulator = QuerySimulator::new(
            config.device.clone(),
            config.execution_mode,
            config.batch_size,
        );
        Ok(Self {
            trained_stamp: Self::trained_stamp(&ivf, &pq, &scene_bounds, &threshold_model),
            config,
            ivf,
            pq,
            codes,
            list_codes,
            inverted: std::sync::OnceLock::new(),
            threshold_model,
            mapping,
            scene_bounds,
            simulator,
            fastscan: true,
            raw,
            drift: drift.unwrap_or_else(|| crate::drift::DriftTracker::from_baseline(0.0)),
        })
    }

    /// Writes the snapshot to `path` **atomically**: the bytes go to a temp
    /// file in the same directory, are fsynced, and replace the destination
    /// via rename, rotating any previous snapshot to a `.prev` generation.
    /// A crash mid-save therefore never leaves a torn snapshot as the only
    /// copy — the loaders fall back to the previous generation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the file cannot be written and
    /// [`Error::Corrupted`] when this index serves mapped sections that fail
    /// their deferred content verification.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<()> {
        // A mapped index defers content verification to first touch; force
        // it now so a corrupt backing file is never re-serialised as a
        // fresh "good" snapshot.
        self.codes.ensure_verified()?;
        self.list_codes.ensure_resident_all()?;
        atomic_file::write_atomic(path.as_ref(), &self.to_snapshot_bytes())
    }

    /// Loads an engine from a snapshot file (fully into memory), falling
    /// back to the `.prev` generation when the newest file is torn.
    ///
    /// # Errors
    ///
    /// As [`atomic_file::load_newest`]: [`Error::Io`] when no generation
    /// exists or one cannot be read, else the
    /// [`JunoIndex::from_snapshot_bytes`] failure of the last candidate.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Self> {
        atomic_file::load_newest(
            path.as_ref(),
            |p| std::fs::read(p),
            |bytes| Self::from_snapshot_bytes(&bytes),
        )
    }

    /// Rebuilds an engine from an already-mapped snapshot region, serving
    /// the hot `CODE`/`LAYT` sections zero-copy from the map.
    ///
    /// Eager sections (config, codebooks, bounds) are checksum-verified and
    /// copied out immediately; the IVF index and the threshold model are
    /// verified with their frames' word-wise body checksums and copied out;
    /// the hot sections are structurally validated up front (offsets,
    /// bounds, metadata checksum) while their cluster contents are verified
    /// lazily on first probe under `residency` (see
    /// `juno_quant::residency`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for malformed snapshots or when the
    /// region does not hold a JUNO engine snapshot.
    pub fn from_mapped(
        map: &Arc<Mmap>,
        offset: usize,
        len: usize,
        residency: &ResidencyConfig,
    ) -> Result<Self> {
        let region = MappedBytes::new(map.clone(), offset, len)?;
        Self::restore_sections(region.as_slice(), Some((map, offset, residency)))
    }

    /// Opens a snapshot file with `mmap` and serves its hot sections
    /// zero-copy (see [`JunoIndex::from_mapped`]), falling back to the
    /// `.prev` generation when the newest file is torn.
    ///
    /// # Errors
    ///
    /// As [`atomic_file::load_newest`]: [`Error::Io`] when no generation
    /// exists or one cannot be opened, else the mapping/validation failure
    /// of the last candidate.
    pub fn load_snapshot_mapped(
        path: impl AsRef<Path>,
        residency: &ResidencyConfig,
    ) -> Result<Self> {
        atomic_file::load_newest(path.as_ref(), Mmap::open, |map| {
            Self::from_mapped(&map, 0, map.len(), residency)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::index::AnnIndex;
    use juno_data::profiles::DatasetProfile;

    fn small_index(seed: u64) -> (juno_data::profiles::Dataset, JunoIndex) {
        let ds = DatasetProfile::DeepLike.generate(1_200, 6, seed).unwrap();
        let config = JunoConfig {
            n_clusters: 16,
            nprobs: 4,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        };
        let index = JunoIndex::build(&ds.points, &config).unwrap();
        (ds, index)
    }

    fn results_bits(index: &JunoIndex, ds: &juno_data::profiles::Dataset) -> Vec<(u64, u32)> {
        ds.queries
            .iter()
            .flat_map(|q| {
                index
                    .search(q, 20)
                    .unwrap()
                    .neighbors
                    .into_iter()
                    .map(|n| (n.id, n.distance.to_bits()))
            })
            .collect()
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let (ds, index) = small_index(11);
        let bytes = index.to_snapshot_bytes();
        let restored = JunoIndex::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(results_bits(&index, &ds), results_bits(&restored, &ds));
        assert_eq!(restored.len(), index.len());
        assert_eq!(restored.config(), index.config());
        assert!(index.supports_snapshot());
    }

    #[test]
    fn retention_and_drift_round_trip_through_snapshots() {
        let ds = DatasetProfile::DeepLike.generate(1_200, 6, 21).unwrap();
        let config = JunoConfig {
            n_clusters: 16,
            nprobs: 4,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        }
        .with_retained_vectors(true);
        let mut index = JunoIndex::build(&ds.points, &config).unwrap();
        for i in 0..25 {
            index.insert(ds.points.row(i * 7)).unwrap();
        }
        assert!(index.remove(3).unwrap());

        let bytes = index.to_snapshot_bytes();
        let restored = JunoIndex::from_snapshot_bytes(&bytes).unwrap();
        // Retention is inferred from the RAWV section (CONF stays strict);
        // raw rows cover the whole id space, dead ids included.
        assert!(restored.config().retain_vectors);
        assert_eq!(
            restored.raw_vectors().unwrap().len(),
            index.list_codes().next_id() as usize
        );
        assert_eq!(restored.drift_tracker(), index.drift_tracker());
        assert_eq!(results_bits(&index, &ds), results_bits(&restored, &ds));

        // The mapped restore path carries the sections too.
        let dir = std::env::temp_dir().join("juno_persist_retention_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snap");
        index.save_snapshot(&path).unwrap();
        let mapped =
            JunoIndex::load_snapshot_mapped(&path, &juno_common::mmap::ResidencyConfig::default())
                .unwrap();
        assert!(mapped.config().retain_vectors);
        assert_eq!(mapped.drift_tracker(), index.drift_tracker());
        std::fs::remove_file(&path).ok();

        // Snapshots without a RAWV section still load, with retention off.
        let (_, plain) = small_index(21);
        let restored = JunoIndex::from_snapshot_bytes(&plain.to_snapshot_bytes()).unwrap();
        assert!(!restored.config().retain_vectors);
        assert!(restored.raw_vectors().is_none());
    }

    #[test]
    fn snapshot_round_trip_survives_mutation_and_files() {
        let (ds, mut index) = small_index(12);
        for i in 0..30 {
            index.insert(ds.points.row(i * 11)).unwrap();
        }
        for id in (0..300u64).step_by(5) {
            assert!(index.remove(id).unwrap());
        }
        let dir = std::env::temp_dir().join("juno_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snap");
        index.save_snapshot(&path).unwrap();
        let restored = JunoIndex::load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(results_bits(&index, &ds), results_bits(&restored, &ds));
        assert_eq!(restored.len(), index.len());
        // Mutation continues seamlessly on the restored engine: fresh ids
        // pick up exactly where the snapshot stopped.
        let mut restored = restored;
        let a = index.insert(ds.points.row(1)).unwrap();
        let b = restored.insert(ds.points.row(1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn trait_restore_replaces_state_in_place() {
        let (ds_a, index_a) = small_index(13);
        let (_, mut index_b) = small_index(14);
        index_b.restore(&index_a.snapshot().unwrap()).unwrap();
        assert_eq!(results_bits(&index_a, &ds_a), results_bits(&index_b, &ds_a));
    }

    #[test]
    fn corrupted_snapshots_are_rejected_never_panic() {
        let (_, index) = small_index(15);
        let bytes = index.to_snapshot_bytes();
        // Every prefix truncation.
        for len in (0..bytes.len()).step_by(97) {
            assert!(JunoIndex::from_snapshot_bytes(&bytes[..len]).is_err());
        }
        // Systematic byte corruption across the file.
        for at in (0..bytes.len()).step_by(211) {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0xFF;
            let _ = JunoIndex::from_snapshot_bytes(&corrupt); // must not panic
        }
        // Wrong engine kind.
        let mut wrong = bytes.clone();
        wrong[12] ^= 0xFF;
        assert!(JunoIndex::from_snapshot_bytes(&wrong).is_err());
        assert!(JunoIndex::load_snapshot("/nonexistent/juno.snap").is_err());
    }

    #[test]
    fn degenerate_restored_configs_are_rejected() {
        // A snapshot whose sections are individually well-formed but whose
        // config violates build-time invariants must fail the restore
        // instead of producing an index that silently searches nothing.
        let (_, mut index) = small_index(16);
        index.config.nprobs = 0;
        assert!(JunoIndex::from_snapshot_bytes(&index.to_snapshot_bytes()).is_err());
        index.config.nprobs = 4;
        index.config.threshold_scale = f32::NAN;
        assert!(JunoIndex::from_snapshot_bytes(&index.to_snapshot_bytes()).is_err());
        index.config.threshold_scale = 1.0;
        assert!(JunoIndex::from_snapshot_bytes(&index.to_snapshot_bytes()).is_ok());
    }
}
