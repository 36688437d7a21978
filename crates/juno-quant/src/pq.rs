//! Product quantisation (PQ).
//!
//! PQ (paper Section 2.1, steps 2–4) splits the `D`-dimensional space into
//! `D/M` subspaces of dimension `M`, trains `E` clusters in every subspace
//! over residual projections, and replaces every search point by the `D/M`
//! entry ids of its projections. A query is compared to encoded points with
//! the *asymmetric distance computation* (ADC): per-subspace distances between
//! the query projection and all entries are tabulated into an L2 look-up
//! table, and the distance to an encoded point is the sum of `D/M` table
//! lookups.
//!
//! # What the offline half costs
//!
//! With `S = D/M` subspaces, `E` entries, `n = min(N, train_subsample)`
//! training vectors and `I ≤ kmeans_iters` iterations; a "distance" is one
//! `M`-wide squared L2 (two multiply-adds at the paper's `M = 2`):
//!
//! | stage | distances | bytes streamed | parallel over | threads |
//! |---|---|---|---|---|
//! | [`ProductQuantizer::train`] | `S·(E·n + I·n·E)` | per subspace: the `4NM`-byte projection once, then its `4nM`-byte training set `E + 2I` times (cache-resident at `n` = 50k, `M` = 2: 400 KB) | subspaces; each fit sequential | [`parallel::default_threads`] |
//! | [`ProductQuantizer::encode`] | `N·S·E` | the `4ND`-byte residuals once in (each 256-point block read `S` times from L2), `N·S` code bytes out; the `S` codebook tables (`4SEM` bytes: 24 KB at 48 × 64 × 2) stay in L1/L2 | point ranges | [`parallel::default_threads`] |
//!
//! The trainer runs the label-free fit of `kmeans.rs`: the codebook is all it
//! keeps, so the `S·N·E` distances of a full labelling pass per subspace are
//! never computed — [`ProductQuantizer::encode`] is that pass, once, when the
//! caller asks for codes. At the ledger's fat fixture (`N` = 200k, `S` = 48,
//! `E` = 64, `n` = 50k, `I` = 20) that is ≤ 3.2 G two-float distances to
//! train and 0.61 G to encode.

use crate::codebook::Codebook;
use crate::kmeans::{self, KMeansConfig};
use juno_common::error::{Error, Result};
use juno_common::mmap::ByteStore;
use juno_common::parallel;
use juno_common::rng::derive_seed;
use juno_common::vector::VectorSet;
use std::sync::atomic::{AtomicBool, Ordering};

/// Points [`ProductQuantizer::encode`] runs through every codebook before
/// it moves on: 96 KB of 96-d residuals, resident in L2 across the `S`
/// strided passes.
const ENCODE_BLOCK: usize = 256;

/// Training configuration for a [`ProductQuantizer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PqTrainConfig {
    /// Number of subspaces (`D/M`); the paper's `PQ48` means 48 subspaces.
    pub num_subspaces: usize,
    /// Number of codebook entries per subspace (`E`), typically 256.
    pub entries_per_subspace: usize,
    /// k-means iterations for each subspace clustering.
    pub kmeans_iters: usize,
    /// Seed for the per-subspace k-means runs.
    pub seed: u64,
    /// Optional training subsample per subspace clustering.
    pub train_subsample: Option<usize>,
}

impl Default for PqTrainConfig {
    fn default() -> Self {
        Self {
            num_subspaces: 8,
            entries_per_subspace: 256,
            kmeans_iters: 20,
            seed: 0xC0DE,
            train_subsample: Some(50_000),
        }
    }
}

impl PqTrainConfig {
    /// Convenience constructor.
    pub fn new(num_subspaces: usize, entries_per_subspace: usize) -> Self {
        Self {
            num_subspaces,
            entries_per_subspace,
            ..Self::default()
        }
    }
}

/// Deferred integrity metadata of mapped (zero-copy) codes: the search
/// path never reads dataset-order codes, so their checksum is only
/// verified when something actually consumes them (mutation, diagnostics,
/// re-snapshot) — see [`EncodedPoints::ensure_verified`].
#[derive(Debug)]
pub(crate) struct LazyCodeMeta {
    /// FNV-1a over the flat code bytes, from the v3 section header.
    pub(crate) checksum: u32,
    /// Claimed maximum code value, from the v3 section header.
    pub(crate) max_code: u8,
    /// Set once the bytes have been checked against the metadata above.
    pub(crate) verified: AtomicBool,
}

impl Clone for LazyCodeMeta {
    fn clone(&self) -> Self {
        Self {
            checksum: self.checksum,
            max_code: self.max_code,
            verified: AtomicBool::new(self.verified.load(Ordering::Acquire)),
        }
    }
}

/// Encoded search points: one `u8` entry id per subspace per point.
///
/// Codebooks are capped at 256 entries per subspace (the PQ default and the
/// paper's configuration), so codes pack into one byte each — half the
/// memory traffic of the previous `u16` representation on every ADC scan.
///
/// The code bytes live in a [`ByteStore`]: owned when built by
/// [`ProductQuantizer::encode`], and a zero-copy view into a mapped
/// snapshot on the out-of-core restore path (with checksum verification
/// deferred to first use, since searches never touch dataset-order codes).
#[derive(Debug, Clone, Default)]
pub struct EncodedPoints {
    pub(crate) codes: ByteStore,
    pub(crate) num_subspaces: usize,
    pub(crate) lazy: Option<LazyCodeMeta>,
}

impl PartialEq for EncodedPoints {
    fn eq(&self, other: &Self) -> bool {
        // Logical content only — where the bytes live (and whether their
        // checksum has been verified yet) is not part of the value.
        self.num_subspaces == other.num_subspaces && self.codes == other.codes
    }
}

impl Eq for EncodedPoints {}

impl EncodedPoints {
    /// Rebuilds encoded points from a flat code buffer (persistence path).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `num_subspaces` is zero or the
    /// buffer length is not a multiple of it.
    pub fn from_parts(codes: Vec<u8>, num_subspaces: usize) -> Result<Self> {
        if num_subspaces == 0 {
            return Err(Error::invalid_config("num_subspaces must be positive"));
        }
        if !codes.len().is_multiple_of(num_subspaces) {
            return Err(Error::invalid_config(format!(
                "code buffer of length {} is not a multiple of {num_subspaces} subspaces",
                codes.len()
            )));
        }
        Ok(Self {
            codes: codes.into(),
            num_subspaces,
            lazy: None,
        })
    }

    /// Appends the code of one newly encoded point (dynamic insertion path).
    ///
    /// Mapped codes are checksum-verified (and copied out of the mapping)
    /// before the first mutation, so a corrupt snapshot can never be
    /// extended in place.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `code` does not have one
    /// entry per subspace, and [`Error::Corrupted`] when mapped codes fail
    /// their deferred verification.
    pub fn push(&mut self, code: &[u8]) -> Result<()> {
        if code.len() != self.num_subspaces || self.num_subspaces == 0 {
            return Err(Error::DimensionMismatch {
                expected: self.num_subspaces,
                actual: code.len(),
            });
        }
        self.ensure_verified()?;
        // The stored checksum describes the pre-mutation bytes only.
        self.lazy = None;
        self.codes.make_mut().extend_from_slice(code);
        Ok(())
    }

    /// Verifies mapped codes against their snapshot metadata (checksum and
    /// claimed maximum code), once; owned codes are trivially verified.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] on a mismatch.
    pub fn ensure_verified(&self) -> Result<()> {
        let Some(lazy) = &self.lazy else {
            return Ok(());
        };
        if lazy.verified.load(Ordering::Acquire) {
            return Ok(());
        }
        if juno_common::snapshot::fnv1a(&self.codes) != lazy.checksum {
            return Err(Error::corrupted("mapped codes: checksum mismatch"));
        }
        if self.codes.iter().any(|&c| c > lazy.max_code) {
            return Err(Error::corrupted(
                "mapped codes: code exceeds recorded maximum",
            ));
        }
        lazy.verified.store(true, Ordering::Release);
        Ok(())
    }

    /// The maximum code value, without forcing verification: mapped codes
    /// answer from their (checksummed-section) header claim, owned codes by
    /// scanning. `None` when empty.
    pub fn claimed_max_code(&self) -> Option<u8> {
        if self.codes.is_empty() {
            return None;
        }
        match &self.lazy {
            Some(lazy) => Some(lazy.max_code),
            None => self.codes.iter().copied().max(),
        }
    }

    /// Returns `true` when the code bytes are served zero-copy from a
    /// mapped snapshot.
    pub fn is_mapped(&self) -> bool {
        self.codes.is_mapped()
    }

    /// Number of encoded points.
    pub fn len(&self) -> usize {
        self.codes
            .len()
            .checked_div(self.num_subspaces)
            .unwrap_or(0)
    }

    /// Returns `true` when no point is encoded.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of subspaces per code.
    pub fn num_subspaces(&self) -> usize {
        self.num_subspaces
    }

    /// The code (one entry id per subspace) of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn code(&self, i: usize) -> &[u8] {
        &self.codes[i * self.num_subspaces..(i + 1) * self.num_subspaces]
    }

    /// Flat borrow of all codes (row-major, `len × num_subspaces`).
    pub fn as_flat(&self) -> &[u8] {
        &self.codes
    }

    /// Memory footprint of the codes in bytes.
    pub fn code_bytes(&self) -> usize {
        self.codes.len()
    }
}

/// A trained product quantiser: one [`Codebook`] per subspace.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductQuantizer {
    codebooks: Vec<Codebook>,
    dim: usize,
    sub_dim: usize,
}

impl ProductQuantizer {
    /// Trains a product quantiser on (residual) vectors of dimension `D`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `D` is not divisible by the
    /// number of subspaces, when a subspace would be empty, or when `E`
    /// exceeds 256 (codes must fit in a `u8`); k-means errors are
    /// propagated.
    pub fn train(vectors: &VectorSet, config: &PqTrainConfig) -> Result<Self> {
        if config.num_subspaces == 0 {
            return Err(Error::invalid_config("num_subspaces must be positive"));
        }
        if config.entries_per_subspace == 0 {
            return Err(Error::invalid_config(
                "entries_per_subspace must be positive",
            ));
        }
        if config.entries_per_subspace > 256 {
            return Err(Error::invalid_config(
                "entries_per_subspace must fit in a u8 code (at most 256)",
            ));
        }
        let dim = vectors.dim();
        if !dim.is_multiple_of(config.num_subspaces) {
            return Err(Error::invalid_config(format!(
                "dimension {dim} is not divisible by num_subspaces {}",
                config.num_subspaces
            )));
        }
        if vectors.len() < config.entries_per_subspace {
            return Err(Error::invalid_config(format!(
                "training requires at least E={} vectors, got {}",
                config.entries_per_subspace,
                vectors.len()
            )));
        }
        let sub_dim = dim / config.num_subspaces;
        // The subspaces are independent: one label-free fit each, spread
        // over the thread budget, each fit sequential inside.
        let threads = parallel::default_threads();
        let codebooks = parallel::map(config.num_subspaces, threads, |s| {
            let projections = vectors.subspace(s * sub_dim, sub_dim)?;
            let km_cfg = KMeansConfig {
                n_clusters: config.entries_per_subspace,
                max_iters: config.kmeans_iters,
                tolerance: 1e-4,
                seed: derive_seed(config.seed, s as u64),
                train_subsample: config.train_subsample,
            };
            let (entries, _iterations) = kmeans::fit(&projections, &km_cfg, 1)?;
            Codebook::new(s, entries)
        })?
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            codebooks,
            dim,
            sub_dim,
        })
    }

    /// Rebuilds a product quantiser from persisted per-subspace codebooks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when no codebooks are given or the
    /// codebooks disagree on entry count / subspace dimension.
    pub fn from_parts(codebooks: Vec<Codebook>) -> Result<Self> {
        let first = codebooks
            .first()
            .ok_or_else(|| Error::empty_input("product quantiser requires codebooks"))?;
        let sub_dim = first.sub_dim();
        let entries = first.num_entries();
        for (s, cb) in codebooks.iter().enumerate() {
            if cb.sub_dim() != sub_dim || cb.num_entries() != entries {
                return Err(Error::invalid_config(format!(
                    "codebook {s} shape ({} entries × {}-d) disagrees with subspace 0 \
                     ({entries} × {sub_dim}-d)",
                    cb.num_entries(),
                    cb.sub_dim()
                )));
            }
        }
        let dim = codebooks.len() * sub_dim;
        Ok(Self {
            codebooks,
            dim,
            sub_dim,
        })
    }

    /// Encodes a single (residual) vector — the dynamic-insertion sibling of
    /// [`ProductQuantizer::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the vector dimension is not
    /// `D`.
    pub fn encode_one(&self, residual: &[f32]) -> Result<Vec<u8>> {
        if residual.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: residual.len(),
            });
        }
        let mut code = Vec::with_capacity(self.num_subspaces());
        for (s, cb) in self.codebooks.iter().enumerate() {
            let proj = &residual[s * self.sub_dim..(s + 1) * self.sub_dim];
            code.push(cb.encode(proj)? as u8);
        }
        Ok(code)
    }

    /// Full vector dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Subspace dimension `M`.
    pub fn sub_dim(&self) -> usize {
        self.sub_dim
    }

    /// Number of subspaces `D/M`.
    pub fn num_subspaces(&self) -> usize {
        self.codebooks.len()
    }

    /// Number of entries per subspace `E`.
    pub fn entries_per_subspace(&self) -> usize {
        self.codebooks.first().map_or(0, Codebook::num_entries)
    }

    /// Borrow of all per-subspace codebooks.
    pub fn codebooks(&self) -> &[Codebook] {
        &self.codebooks
    }

    /// Borrow of one subspace codebook.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for an invalid subspace.
    pub fn codebook(&self, s: usize) -> Result<&Codebook> {
        self.codebooks
            .get(s)
            .ok_or_else(|| Error::IndexOutOfBounds {
                what: "subspace".into(),
                index: s,
                len: self.codebooks.len(),
            })
    }

    /// Encodes a set of (residual) vectors.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the vector dimension is not
    /// `D`.
    pub fn encode(&self, vectors: &VectorSet) -> Result<EncodedPoints> {
        if vectors.dim() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: vectors.dim(),
            });
        }
        let m = self.num_subspaces();
        // Work-stealing over point *ranges* (one allocation per task, not per
        // point), concatenated in range order at the end.
        let threads = parallel::default_threads();
        let n = vectors.len();
        let chunk = n.div_ceil((threads * 4).max(1)).max(1);
        let num_chunks = n.div_ceil(chunk);
        let flat = vectors.as_flat();
        let per_chunk: Vec<Vec<u8>> = parallel::map(num_chunks, threads, |c| {
            let start = c * chunk;
            let end = (start + chunk).min(n);
            let mut out = vec![0u8; (end - start) * m];
            // Subspace by subspace over an L2-resident block of points: each
            // codebook's kernel call scores the block's projections with
            // points across the lanes, reading one strided column.
            for block in (start..end).step_by(ENCODE_BLOCK) {
                let len = ENCODE_BLOCK.min(end - block);
                let codes = &mut out[(block - start) * m..];
                for (s, cb) in self.codebooks.iter().enumerate() {
                    let points = &flat[block * self.dim + s * self.sub_dim..];
                    cb.nearest_rows()
                        .nearest_each(points, self.dim, len, |i, e, _| {
                            codes[i * m + s] = e as u8;
                        });
                }
            }
            out
        })?;
        let mut codes = Vec::with_capacity(n * m);
        for block in per_chunk {
            codes.extend_from_slice(&block);
        }
        Ok(EncodedPoints {
            codes: codes.into(),
            num_subspaces: m,
            lazy: None,
        })
    }

    /// Reconstructs (decodes) an encoded point back into a `D`-dimensional
    /// vector by concatenating its entry centroids.
    ///
    /// # Errors
    ///
    /// Returns an error when the code length or any entry id is invalid.
    pub fn decode(&self, code: &[u8]) -> Result<Vec<f32>> {
        if code.len() != self.num_subspaces() {
            return Err(Error::DimensionMismatch {
                expected: self.num_subspaces(),
                actual: code.len(),
            });
        }
        let mut out = Vec::with_capacity(self.dim);
        for (s, &e) in code.iter().enumerate() {
            let entry = self.codebooks[s].entry(e as usize)?;
            out.extend_from_slice(entry);
        }
        Ok(out)
    }

    /// Builds the dense L2-LUT of one query residual: `lut[s][e]` is the
    /// squared distance between the query's projection on subspace `s` and
    /// entry `e`. This is the baseline (FAISS-style) LUT construction whose
    /// cost the paper's Fig. 3(a) attributes ~90 % of query time to.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the residual dimension is not
    /// `D`.
    pub fn dense_lut(&self, residual: &[f32]) -> Result<Vec<Vec<f32>>> {
        if residual.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: residual.len(),
            });
        }
        let mut lut = Vec::with_capacity(self.num_subspaces());
        for (s, cb) in self.codebooks.iter().enumerate() {
            let proj = &residual[s * self.sub_dim..(s + 1) * self.sub_dim];
            lut.push(cb.dense_lut_row(proj)?);
        }
        Ok(lut)
    }

    /// Asymmetric distance of one encoded point given a dense LUT: the sum of
    /// `lut[s][code[s]]` over subspaces.
    ///
    /// # Panics
    ///
    /// Panics if `code` or `lut` have inconsistent shapes (internal misuse).
    pub fn adc_distance(lut: &[Vec<f32>], code: &[u8]) -> f32 {
        debug_assert_eq!(lut.len(), code.len());
        code.iter()
            .enumerate()
            .map(|(s, &e)| lut[s][e as usize])
            .sum()
    }

    /// [`ProductQuantizer::dense_lut`] into a caller-provided flat
    /// `subspaces × E` buffer (`out[s * E + e]`, resized in place) — the
    /// identical values with no per-query allocation, which is what the
    /// cluster-major grouped batch scan rebuilds once per (query, probe)
    /// from its reusable LUT arena.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the residual dimension is
    /// not `D`.
    pub fn dense_lut_into(&self, residual: &[f32], out: &mut Vec<f32>) -> Result<()> {
        if residual.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: residual.len(),
            });
        }
        let entries = self.entries_per_subspace();
        out.clear();
        out.resize(self.num_subspaces() * entries, 0.0);
        for (s, cb) in self.codebooks.iter().enumerate() {
            let proj = &residual[s * self.sub_dim..(s + 1) * self.sub_dim];
            cb.dense_lut_row_into(proj, &mut out[s * entries..(s + 1) * entries])?;
        }
        Ok(())
    }

    /// [`ProductQuantizer::adc_distance`] over a flat `subspaces × E` LUT
    /// buffer (the [`ProductQuantizer::dense_lut_into`] layout). The
    /// summation order matches the nested form exactly, so given equal LUT
    /// values the two are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is too short for `code` (internal misuse).
    #[inline]
    pub fn adc_distance_flat(flat: &[f32], entries: usize, code: &[u8]) -> f32 {
        code.iter()
            .enumerate()
            .map(|(s, &e)| flat[s * entries + e as usize])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::metric::l2_squared;
    use juno_common::rng::{normal, seeded};

    fn random_vectors(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = seeded(seed);
        let rows = (0..n)
            .map(|_| (0..dim).map(|_| normal(&mut rng, 0.0, 1.0)).collect())
            .collect();
        VectorSet::from_rows(rows).unwrap()
    }

    fn small_config() -> PqTrainConfig {
        PqTrainConfig {
            num_subspaces: 4,
            entries_per_subspace: 16,
            kmeans_iters: 10,
            seed: 7,
            train_subsample: None,
        }
    }

    #[test]
    fn flat_dense_lut_and_adc_match_the_nested_form_bit_exactly() {
        let data = random_vectors(400, 8, 9);
        let pq = ProductQuantizer::train(&data, &small_config()).unwrap();
        let codes = pq.encode(&data).unwrap();
        let entries = pq.entries_per_subspace();
        let mut flat = Vec::new();
        for qi in 0..8 {
            let residual = data.row(qi * 17);
            let nested = pq.dense_lut(residual).unwrap();
            pq.dense_lut_into(residual, &mut flat).unwrap();
            assert_eq!(flat.len(), pq.num_subspaces() * entries);
            for (s, row) in nested.iter().enumerate() {
                for (e, &v) in row.iter().enumerate() {
                    assert_eq!(v.to_bits(), flat[s * entries + e].to_bits());
                }
            }
            for i in (0..data.len()).step_by(31) {
                let a = ProductQuantizer::adc_distance(&nested, codes.code(i));
                let b = ProductQuantizer::adc_distance_flat(&flat, entries, codes.code(i));
                assert_eq!(a.to_bits(), b.to_bits(), "query {qi} point {i}");
            }
        }
        assert!(pq.dense_lut_into(&[0.0; 3], &mut flat).is_err());
    }

    #[test]
    fn shapes_after_training() {
        let data = random_vectors(400, 8, 1);
        let pq = ProductQuantizer::train(&data, &small_config()).unwrap();
        assert_eq!(pq.dim(), 8);
        assert_eq!(pq.sub_dim(), 2);
        assert_eq!(pq.num_subspaces(), 4);
        assert_eq!(pq.entries_per_subspace(), 16);
        assert_eq!(pq.codebooks().len(), 4);
        assert!(pq.codebook(4).is_err());
    }

    #[test]
    fn encode_decode_reduces_error_with_more_entries() {
        let data = random_vectors(600, 8, 2);
        let small = ProductQuantizer::train(
            &data,
            &PqTrainConfig {
                entries_per_subspace: 4,
                ..small_config()
            },
        )
        .unwrap();
        let large = ProductQuantizer::train(
            &data,
            &PqTrainConfig {
                entries_per_subspace: 64,
                ..small_config()
            },
        )
        .unwrap();
        // Mean squared reconstruction error of the encoding.
        let error = |pq: &ProductQuantizer| {
            let codes = pq.encode(&data).unwrap();
            (0..data.len())
                .map(|i| l2_squared(data.row(i), &pq.decode(codes.code(i)).unwrap()) as f64)
                .sum::<f64>()
                / data.len() as f64
        };
        let err_small = error(&small);
        let err_large = error(&large);
        assert!(
            err_large < err_small,
            "more entries should quantise better: {err_large} vs {err_small}"
        );
    }

    #[test]
    fn adc_matches_decoded_distance() {
        let data = random_vectors(300, 8, 3);
        let pq = ProductQuantizer::train(&data, &small_config()).unwrap();
        let codes = pq.encode(&data).unwrap();
        let query = data.row(0);
        let lut = pq.dense_lut(query).unwrap();
        for i in (0..data.len()).step_by(37) {
            let adc = ProductQuantizer::adc_distance(&lut, codes.code(i));
            let decoded = pq.decode(codes.code(i)).unwrap();
            let exact = l2_squared(query, &decoded);
            assert!(
                (adc - exact).abs() < 1e-3,
                "ADC {adc} != decoded distance {exact} for point {i}"
            );
        }
    }

    #[test]
    fn encoded_points_accessors() {
        let data = random_vectors(50, 8, 4);
        let pq = ProductQuantizer::train(&data, &small_config()).unwrap();
        let codes = pq.encode(&data).unwrap();
        assert_eq!(codes.len(), 50);
        assert_eq!(codes.num_subspaces(), 4);
        assert_eq!(codes.code(0).len(), 4);
        assert_eq!(codes.as_flat().len(), 200);
        assert_eq!(codes.code_bytes(), 200);
        assert!(!codes.is_empty());
        // Codes address valid entries.
        assert!(codes
            .as_flat()
            .iter()
            .all(|&c| (c as usize) < pq.entries_per_subspace()));
    }

    #[test]
    fn storage_is_compressed_relative_to_float() {
        let data = random_vectors(200, 8, 5);
        let pq = ProductQuantizer::train(&data, &small_config()).unwrap();
        let codes = pq.encode(&data).unwrap();
        let raw_bytes = data.len() * data.dim() * std::mem::size_of::<f32>();
        assert!(codes.code_bytes() * 4 < raw_bytes);
    }

    #[test]
    fn invalid_configs_rejected() {
        let data = random_vectors(100, 10, 6);
        // 10 not divisible by 4 subspaces.
        assert!(ProductQuantizer::train(&data, &PqTrainConfig::new(4, 8)).is_err());
        // Zero subspaces / entries.
        assert!(ProductQuantizer::train(&data, &PqTrainConfig::new(0, 8)).is_err());
        let mut cfg = PqTrainConfig::new(2, 0);
        assert!(ProductQuantizer::train(&data, &cfg).is_err());
        // More entries than training vectors.
        cfg = PqTrainConfig::new(2, 512);
        assert!(ProductQuantizer::train(&data, &cfg).is_err());
    }

    #[test]
    fn encode_one_matches_batch_encoding_and_push_extends() {
        let data = random_vectors(200, 8, 9);
        let pq = ProductQuantizer::train(&data, &small_config()).unwrap();
        let mut codes = pq.encode(&data).unwrap();
        for i in (0..data.len()).step_by(29) {
            let one = pq.encode_one(data.row(i)).unwrap();
            assert_eq!(one.as_slice(), codes.code(i), "point {i}");
        }
        let extra = pq.encode_one(data.row(0)).unwrap();
        codes.push(&extra).unwrap();
        assert_eq!(codes.len(), 201);
        assert_eq!(codes.code(200), extra.as_slice());
        assert!(codes.push(&[0u8; 3]).is_err());
        assert!(pq.encode_one(&[0.0; 5]).is_err());
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let data = random_vectors(150, 8, 10);
        let pq = ProductQuantizer::train(&data, &small_config()).unwrap();
        let rebuilt = ProductQuantizer::from_parts(pq.codebooks().to_vec()).unwrap();
        assert_eq!(rebuilt, pq);
        assert!(ProductQuantizer::from_parts(vec![]).is_err());
        // Mismatched codebooks (different subspace dims) are rejected.
        let other = ProductQuantizer::train(
            &random_vectors(100, 6, 11),
            &PqTrainConfig {
                num_subspaces: 2,
                ..small_config()
            },
        )
        .unwrap();
        let mixed = vec![pq.codebooks()[0].clone(), other.codebooks()[0].clone()];
        assert!(ProductQuantizer::from_parts(mixed).is_err());

        let codes = pq.encode(&data).unwrap();
        let flat = codes.as_flat().to_vec();
        let back = EncodedPoints::from_parts(flat, 4).unwrap();
        assert_eq!(back, codes);
        assert!(EncodedPoints::from_parts(vec![1, 2, 3], 2).is_err());
        assert!(EncodedPoints::from_parts(vec![1, 2], 0).is_err());
    }

    #[test]
    fn encode_and_lut_check_dimensions() {
        let data = random_vectors(100, 8, 7);
        let pq = ProductQuantizer::train(&data, &small_config()).unwrap();
        let wrong = random_vectors(5, 6, 8);
        assert!(pq.encode(&wrong).is_err());
        assert!(pq.dense_lut(&[0.0; 6]).is_err());
        assert!(pq.decode(&[0, 1]).is_err());
        assert!(pq.decode(&[99, 0, 0, 0]).is_err());
    }
}
