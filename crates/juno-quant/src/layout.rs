//! IVF-list-contiguous PQ code layout for cache-friendly ADC scans, with
//! dynamic mutation support.
//!
//! [`EncodedPoints`] stores codes in dataset order,
//! which is the natural output of encoding but the worst possible order for
//! the online path: a probe visits the members of *one* coarse cluster, and
//! in dataset order those members are scattered across the whole code array,
//! so every candidate is a cache miss.
//!
//! [`IvfListCodes`] reorders the codes so that each IVF list is one
//! contiguous block (CSR over clusters). Within a block the codes stay
//! point-major (all `D/M` subspace codes of a point adjacent — the
//! interleaving the per-candidate accumulation consumes left to right), so an
//! ADC scan over a probed cluster streams memory strictly sequentially.
//!
//! # Mutation model
//!
//! The CSR base is immutable between compactions; mutations are layered on
//! top of it so the hot scan stays almost entirely sequential:
//!
//! * [`IvfListCodes::append`] pushes new points into a small per-cluster
//!   *tail* (`extra_ids` / `extra_codes`). A probe scans the base block and
//!   then the tail — two contiguous runs instead of one.
//! * [`IvfListCodes::remove`] sets a *tombstone* bit for the point id.
//!   Tombstoned records stay in storage (removing from the middle of a CSR
//!   array would be O(N)) and are skipped by the scan via
//!   [`IvfListCodes::is_deleted`].
//! * [`IvfListCodes::compact`] rebuilds the CSR base: tails are merged in,
//!   tombstoned records are physically dropped, and every cluster block is
//!   restored to id-sorted point-major contiguous order.
//!
//! Point ids are monotonically increasing and never reused, so ids handed
//! out before a mutation stay valid afterwards.
//!
//! # Block-interleaved fast-scan layout
//!
//! Alongside the point-major base block, every cluster keeps a second,
//! derived view of the same codes: [`BlockCodes`], the base segment
//! transposed into blocks of [`BLOCK_LANES`]
//! (32) points. Within a block the codes are subspace-major — one LUT entry
//! serves 32 contiguous lanes — which is the shape the quantised fast-scan
//! kernel (`juno_common::kernel`) consumes; when every code of the cluster
//! fits in 4 bits the rows are nibble-packed (two lanes per byte). The block
//! view is rebuilt by [`IvfListCodes::build`], [`IvfListCodes::compact`] and
//! [`IvfListCodes::from_parts`]; append tails are *not* block-interleaved
//! (they are scanned by the exact path until the next compaction).

use crate::pq::EncodedPoints;
use crate::residency::{ResidencySet, ResidencyStats};
use juno_common::error::{Error, Result};
use juno_common::kernel::{
    block_lane_code, prefetch_rows, row_bytes, scan_block_with_abandon, QuantizedLut, BLOCK_LANES,
    NEVER_PRUNE,
};
use juno_common::mmap::{ByteStore, MappedBytes, U32Store};
use std::sync::Arc;

/// PQ codes grouped contiguously by IVF cluster, with the original point ids
/// carried alongside, plus the append-tail / tombstone state described in the
/// [module docs](self).
///
/// The CSR base (`point_ids`, `codes`, the block views) is either owned
/// (RAM-resident path) or a set of zero-copy views into a mapped snapshot
/// (out-of-core path, [`crate::mapped::map_layout_v3`]); mutation state
/// (tails, tombstones) is always owned. Equality compares logical content,
/// so a mapped index equals its RAM-resident twin.
#[derive(Debug, Clone, Default)]
pub struct IvfListCodes {
    /// `offsets[c]..offsets[c + 1]` indexes `point_ids` (and, scaled by the
    /// subspace count, `codes`) for cluster `c`. Length `clusters + 1`.
    /// Always owned — it is tiny and consulted on every probe.
    pub(crate) offsets: Vec<u32>,
    /// Original (dataset-order) ids of the points, grouped by cluster.
    pub(crate) point_ids: U32Store,
    /// Codes in cluster-grouped, point-major order:
    /// `codes[(offsets[c] + i) * S + s]` is the subspace-`s` code of the
    /// `i`-th member of cluster `c`.
    pub(crate) codes: ByteStore,
    pub(crate) num_subspaces: usize,
    /// The block-interleaved view of every cluster's base segment, consumed
    /// by the fast-scan prune pass. Derived from `offsets`/`codes`, rebuilt
    /// on build / compaction / restore (or mapped in place).
    pub(crate) blocks: Vec<BlockCodes>,
    /// Per-cluster ids appended since the last compaction.
    pub(crate) extra_ids: Vec<Vec<u32>>,
    /// Per-cluster point-major codes appended since the last compaction.
    pub(crate) extra_codes: Vec<Vec<u8>>,
    /// `deleted[id]` — tombstone bit per point id. Monotone: ids of deleted
    /// points are never reused, so bits stay set across compactions.
    pub(crate) deleted: Vec<bool>,
    /// The next id [`IvfListCodes::append`] will hand out.
    pub(crate) next_id: u32,
    /// Number of live (stored and not tombstoned) points.
    pub(crate) live: usize,
    /// Tombstoned records still physically present in storage (reset to zero
    /// by compaction).
    pub(crate) stored_tombstones: usize,
    /// Per-cluster residency tracking for the mapped path (`None` when the
    /// base is owned). First touch of a cluster verifies its checksum and
    /// faults it in; a budget evicts cold clusters.
    pub(crate) residency: Option<Arc<ResidencySet>>,
    /// Writer-recorded maximum base code of a mapped layout, so the restore
    /// range check does not have to fault every code page in.
    pub(crate) mapped_max_code: Option<u8>,
}

impl PartialEq for IvfListCodes {
    fn eq(&self, other: &Self) -> bool {
        // Logical content only: residency bookkeeping (and whether the base
        // is mapped or owned) is serving state, not index state.
        self.offsets == other.offsets
            && self.point_ids == other.point_ids
            && self.codes == other.codes
            && self.num_subspaces == other.num_subspaces
            && self.blocks == other.blocks
            && self.extra_ids == other.extra_ids
            && self.extra_codes == other.extra_codes
            && self.deleted == other.deleted
            && self.next_id == other.next_id
            && self.live == other.live
            && self.stored_tombstones == other.stored_tombstones
    }
}

impl Eq for IvfListCodes {}

/// The complete serialisable state of an [`IvfListCodes`], used by the
/// snapshot persistence layer. Produced by [`IvfListCodes::to_parts`] and
/// validated back by [`IvfListCodes::from_parts`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IvfListCodesParts {
    /// CSR offsets (length `clusters + 1`).
    pub offsets: Vec<u32>,
    /// Base point ids, grouped by cluster.
    pub point_ids: Vec<u32>,
    /// Base codes, cluster-grouped point-major.
    pub codes: Vec<u8>,
    /// Subspaces per code.
    pub num_subspaces: usize,
    /// Per-cluster appended ids.
    pub extra_ids: Vec<Vec<u32>>,
    /// Per-cluster appended codes.
    pub extra_codes: Vec<Vec<u8>>,
    /// Tombstone bit per id (length `next_id`).
    pub deleted: Vec<bool>,
    /// Next id to assign.
    pub next_id: u32,
}

impl IvfListCodes {
    /// Reorders `codes` by IVF cluster label.
    ///
    /// `labels[p]` is the IVF cluster of point `p`, exactly as produced by
    /// `IvfIndex::labels()`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when shapes disagree and
    /// [`Error::IndexOutOfBounds`] for a label `≥ num_clusters`.
    pub fn build(labels: &[usize], codes: &EncodedPoints, num_clusters: usize) -> Result<Self> {
        if labels.len() != codes.len() {
            return Err(Error::invalid_config(format!(
                "{} labels but {} encoded points",
                labels.len(),
                codes.len()
            )));
        }
        if num_clusters == 0 {
            return Err(Error::invalid_config("cluster count must be positive"));
        }
        if labels.len() > u32::MAX as usize {
            return Err(Error::invalid_config("point count exceeds u32 id space"));
        }
        let s = codes.num_subspaces();

        let mut counts = vec![0u32; num_clusters + 1];
        for &c in labels.iter() {
            if c >= num_clusters {
                return Err(Error::IndexOutOfBounds {
                    what: "cluster label".into(),
                    index: c,
                    len: num_clusters,
                });
            }
            counts[c + 1] += 1;
        }
        for c in 0..num_clusters {
            counts[c + 1] += counts[c];
        }

        let mut point_ids = vec![0u32; labels.len()];
        let mut grouped = vec![0u8; labels.len() * s];
        let mut cursors = counts.clone();
        for (p, &c) in labels.iter().enumerate() {
            let at = cursors[c] as usize;
            point_ids[at] = p as u32;
            grouped[at * s..(at + 1) * s].copy_from_slice(codes.code(p));
            cursors[c] += 1;
        }

        let blocks = build_blocks(&counts, &grouped, s);
        Ok(Self {
            offsets: counts,
            point_ids: point_ids.into(),
            codes: grouped.into(),
            num_subspaces: s,
            blocks,
            extra_ids: vec![Vec::new(); num_clusters],
            extra_codes: vec![Vec::new(); num_clusters],
            deleted: vec![false; labels.len()],
            next_id: labels.len() as u32,
            live: labels.len(),
            stored_tombstones: 0,
            residency: None,
            mapped_max_code: None,
        })
    }

    /// Number of clusters covered.
    pub fn num_clusters(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of subspaces per code.
    pub fn num_subspaces(&self) -> usize {
        self.num_subspaces
    }

    /// Number of **live** points (stored and not tombstoned).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` when no live point is stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The id the next [`IvfListCodes::append`] will assign. Also the length
    /// of the id space: every id ever assigned is `< next_id`.
    pub fn next_id(&self) -> u32 {
        self.next_id
    }

    /// Number of tombstoned records still occupying storage (zero right
    /// after a compaction).
    pub fn stored_tombstones(&self) -> usize {
        self.stored_tombstones
    }

    /// Returns `true` when `id` was assigned and later deleted.
    #[inline]
    pub fn is_deleted(&self, id: u32) -> bool {
        self.deleted.get(id as usize).copied().unwrap_or(false)
    }

    /// Appends one encoded point to `cluster`'s tail and returns its new id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for an invalid cluster,
    /// [`Error::DimensionMismatch`] when `code` does not have
    /// [`IvfListCodes::num_subspaces`] entries and [`Error::InvalidConfig`]
    /// when the u32 id space is exhausted.
    pub fn append(&mut self, cluster: usize, code: &[u8]) -> Result<u32> {
        if cluster >= self.num_clusters() {
            return Err(Error::IndexOutOfBounds {
                what: "cluster".into(),
                index: cluster,
                len: self.num_clusters(),
            });
        }
        if code.len() != self.num_subspaces || self.num_subspaces == 0 {
            return Err(Error::DimensionMismatch {
                expected: self.num_subspaces,
                actual: code.len(),
            });
        }
        if self.next_id == u32::MAX {
            return Err(Error::invalid_config("point id space exhausted"));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.deleted.push(false);
        self.extra_ids[cluster].push(id);
        self.extra_codes[cluster].extend_from_slice(code);
        self.live += 1;
        Ok(id)
    }

    /// Tombstones the point with the given id.
    ///
    /// Returns `true` when the id was live and is now deleted, `false` when
    /// it was never assigned or already deleted (idempotent).
    pub fn remove(&mut self, id: u32) -> bool {
        match self.deleted.get_mut(id as usize) {
            Some(slot) if !*slot => {
                *slot = true;
                self.live -= 1;
                self.stored_tombstones += 1;
                true
            }
            _ => false,
        }
    }

    /// Every live id, ascending — tombstoned ids stay dead even after
    /// compaction (the deletion bitmap spans every id ever assigned).
    pub fn live_ids(&self) -> Vec<u64> {
        (0..self.next_id)
            .filter(|&id| !self.is_deleted(id))
            .map(u64::from)
            .collect()
    }

    /// Tombstones every id whose `live` mark is unset (ids past the slice
    /// count as dead) and compacts the result — how a layout freshly built
    /// over a whole id space is cut down to its live subset.
    pub fn retain_live(&mut self, live: &[bool]) {
        for id in 0..self.next_id {
            if !live.get(id as usize).copied().unwrap_or(false) {
                self.remove(id);
            }
        }
        if self.stored_tombstones > 0 {
            self.compact();
        }
    }

    /// Rebuilds the CSR base: merges the per-cluster tails in, physically
    /// drops tombstoned records and restores every cluster block to
    /// id-sorted point-major contiguous order. Scan results are unchanged;
    /// only the storage layout (and therefore scan locality) improves.
    pub fn compact(&mut self) {
        let clusters = self.num_clusters();
        let s = self.num_subspaces;
        let mut new_offsets = Vec::with_capacity(clusters + 1);
        let mut new_ids = Vec::with_capacity(self.live);
        let mut new_codes: Vec<u8> = Vec::with_capacity(self.live * s);
        new_offsets.push(0u32);
        for c in 0..clusters {
            // Base members and tail members, both already id-sorted (the base
            // by construction, the tail because ids are handed out
            // monotonically), merged and filtered in one ordered pass.
            let (start, end) = self.bounds(c);
            let base_ids = &self.point_ids.as_slice()[start..end];
            let base_codes = &self.codes[start * s..end * s];
            let tail_ids = &self.extra_ids[c];
            let tail_codes = &self.extra_codes[c];
            let (mut i, mut j) = (0usize, 0usize);
            while i < base_ids.len() || j < tail_ids.len() {
                let take_base = match (base_ids.get(i), tail_ids.get(j)) {
                    (Some(&b), Some(&t)) => b < t,
                    (Some(_), None) => true,
                    _ => false,
                };
                let (id, code) = if take_base {
                    let rec = (base_ids[i], &base_codes[i * s..(i + 1) * s]);
                    i += 1;
                    rec
                } else {
                    let rec = (tail_ids[j], &tail_codes[j * s..(j + 1) * s]);
                    j += 1;
                    rec
                };
                if !self.deleted[id as usize] {
                    new_ids.push(id);
                    new_codes.extend_from_slice(code);
                }
            }
            new_offsets.push(new_ids.len() as u32);
        }
        self.blocks = build_blocks(&new_offsets, &new_codes, s);
        self.offsets = new_offsets;
        self.point_ids = new_ids.into();
        self.codes = new_codes.into();
        for c in 0..clusters {
            self.extra_ids[c].clear();
            self.extra_codes[c].clear();
        }
        self.stored_tombstones = 0;
        // Compaction rebuilds the base in RAM, so the index is no longer
        // serving out of the snapshot file.
        self.residency = None;
        self.mapped_max_code = None;
    }

    /// The original ids of the **base-block** members of `cluster`, in
    /// id-sorted order (appended points live in the tail segment; use
    /// [`IvfListCodes::cluster_segments`] to scan everything).
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of bounds (internal misuse — the engine
    /// only passes clusters returned by the filter stage).
    #[inline]
    pub fn cluster_ids(&self, cluster: usize) -> &[u32] {
        let (start, end) = self.bounds(cluster);
        &self.point_ids.as_slice()[start..end]
    }

    /// The contiguous point-major code block of `cluster`'s base segment
    /// (`cluster_ids(c).len() × num_subspaces` values).
    #[inline]
    pub fn cluster_codes(&self, cluster: usize) -> &[u8] {
        let (start, end) = self.bounds(cluster);
        &self.codes[start * self.num_subspaces..end * self.num_subspaces]
    }

    /// The stored records of `cluster` as up to two contiguous
    /// `(ids, point-major codes)` runs: the CSR base block followed by the
    /// append tail. Tombstoned records are still present — the scan filters
    /// them with [`IvfListCodes::is_deleted`].
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of bounds.
    #[inline]
    pub fn cluster_segments(&self, cluster: usize) -> impl Iterator<Item = (&[u32], &[u8])> {
        let base = (self.cluster_ids(cluster), self.cluster_codes(cluster));
        let tail = (
            self.extra_ids[cluster].as_slice(),
            self.extra_codes[cluster].as_slice(),
        );
        [base, tail].into_iter().filter(|(ids, _)| !ids.is_empty())
    }

    /// The append-tail records of `cluster` (ids and point-major codes) —
    /// empty unless points were inserted since the last compaction. Tail
    /// records are scanned by the exact path; only the base segment has a
    /// block-interleaved view.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of bounds.
    #[inline]
    pub fn cluster_tail(&self, cluster: usize) -> (&[u32], &[u8]) {
        (
            self.extra_ids[cluster].as_slice(),
            self.extra_codes[cluster].as_slice(),
        )
    }

    /// Number of records stored for `cluster` — base plus tail, tombstoned
    /// ones included: what a scan of the cluster streams.
    #[inline]
    pub(crate) fn cluster_stored(&self, cluster: usize) -> usize {
        self.cluster_ids(cluster).len() + self.extra_ids[cluster].len()
    }

    #[inline]
    fn bounds(&self, cluster: usize) -> (usize, usize) {
        (
            self.offsets[cluster] as usize,
            self.offsets[cluster + 1] as usize,
        )
    }

    /// The largest code value stored (base + tails), or `None` when no code
    /// is stored. Restore paths cross-check this against the codebook's
    /// entry count so corrupt snapshots cannot drive out-of-range LUT
    /// lookups.
    ///
    /// On the mapped path the base contribution is the writer-recorded
    /// maximum (itself covered by the per-cluster checksums verified on
    /// first touch) rather than a scan — scanning would fault the entire
    /// code region in and defeat the out-of-core restore.
    pub fn max_code(&self) -> Option<u8> {
        let base = match self.mapped_max_code {
            Some(max) => (!self.codes.is_empty()).then_some(max),
            None => self.codes.iter().copied().max(),
        };
        let tails = self
            .extra_codes
            .iter()
            .filter_map(|c| c.iter().copied().max())
            .max();
        base.into_iter().chain(tails).max()
    }

    /// Memory footprint of the stored codes (base + tails) in bytes
    /// (diagnostics).
    pub fn code_bytes(&self) -> usize {
        let tail: usize = self.extra_codes.iter().map(Vec::len).sum();
        let blocks: usize = self.blocks.iter().map(BlockCodes::data_bytes).sum();
        self.codes.len() + tail + blocks
    }

    /// Clones the full state into a serialisable [`IvfListCodesParts`]
    /// (copying the base out of the mapping on the out-of-core path).
    pub fn to_parts(&self) -> IvfListCodesParts {
        IvfListCodesParts {
            offsets: self.offsets.clone(),
            point_ids: self.point_ids.as_slice().to_vec(),
            codes: self.codes.to_vec(),
            num_subspaces: self.num_subspaces,
            extra_ids: self.extra_ids.clone(),
            extra_codes: self.extra_codes.clone(),
            deleted: self.deleted.clone(),
            next_id: self.next_id,
        }
    }

    /// Rebuilds an [`IvfListCodes`] from persisted parts, re-validating every
    /// structural invariant (shapes, monotone offsets, id uniqueness and
    /// range) so corrupted snapshots are rejected instead of causing panics
    /// later.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when any invariant is violated.
    pub fn from_parts(parts: IvfListCodesParts) -> Result<Self> {
        let IvfListCodesParts {
            offsets,
            point_ids,
            codes,
            num_subspaces,
            extra_ids,
            extra_codes,
            deleted,
            next_id,
        } = parts;
        let bad = |msg: &str| Error::corrupted(format!("IvfListCodes: {msg}"));
        if offsets.len() < 2 {
            return Err(bad("offsets must cover at least one cluster"));
        }
        let clusters = offsets.len() - 1;
        if num_subspaces == 0 {
            return Err(bad("subspace count must be positive"));
        }
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad("offsets are not monotonically non-decreasing from 0"));
        }
        if *offsets.last().expect("len checked") as usize != point_ids.len() {
            return Err(bad("final offset does not match base id count"));
        }
        // num_subspaces is untrusted (it may come from a corrupted snapshot):
        // multiply checked so neither debug overflow panics nor release
        // wrap-around can defeat the shape checks.
        let code_len = |n: usize| -> Result<usize> {
            n.checked_mul(num_subspaces)
                .ok_or_else(|| bad("code buffer size overflows"))
        };
        if codes.len() != code_len(point_ids.len())? {
            return Err(bad("base code buffer does not match id count"));
        }
        if extra_ids.len() != clusters || extra_codes.len() != clusters {
            return Err(bad("tail vectors do not match cluster count"));
        }
        for (ids, cs) in extra_ids.iter().zip(&extra_codes) {
            if cs.len() != code_len(ids.len())? {
                return Err(bad("tail code buffer does not match tail id count"));
            }
        }
        if deleted.len() != next_id as usize {
            return Err(bad("tombstone bitmap does not match id space"));
        }
        // Ids must be unique, in range, and id-sorted within each segment.
        let mut seen = vec![false; next_id as usize];
        let mut live = 0usize;
        let mut stored_tombstones = 0usize;
        {
            let all_segments = (0..clusters).flat_map(|c| {
                let (start, end) = (offsets[c] as usize, offsets[c + 1] as usize);
                [&point_ids[start..end], extra_ids[c].as_slice()]
            });
            for segment in all_segments {
                if segment.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(bad("segment ids are not strictly increasing"));
                }
                for &id in segment {
                    let slot = seen
                        .get_mut(id as usize)
                        .ok_or_else(|| bad("stored id exceeds id space"))?;
                    if *slot {
                        return Err(bad("duplicate stored id"));
                    }
                    *slot = true;
                    if deleted[id as usize] {
                        stored_tombstones += 1;
                    } else {
                        live += 1;
                    }
                }
            }
        }
        let blocks = build_blocks(&offsets, &codes, num_subspaces);
        Ok(Self {
            offsets,
            point_ids: point_ids.into(),
            codes: codes.into(),
            num_subspaces,
            blocks,
            extra_ids,
            extra_codes,
            deleted,
            next_id,
            live,
            stored_tombstones,
            residency: None,
            mapped_max_code: None,
        })
    }

    /// Ensures `cluster`'s base segment is resident and verified before a
    /// probe reads it. A no-op on the owned (RAM-resident) path; on the
    /// mapped path the first touch checks the cluster's checksum and
    /// structural invariants, faults its pages in, and may evict cold
    /// clusters to stay inside the residency budget.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when the mapped cluster fails
    /// verification — the caller surfaces it instead of serving garbage.
    #[inline]
    pub fn touch_cluster(&self, cluster: usize) -> Result<()> {
        match &self.residency {
            Some(residency) => residency.touch(cluster),
            None => Ok(()),
        }
    }

    /// Touches (verifies + faults in) every cluster — the gate mutating
    /// operations use before reading the whole mapped base, and the
    /// warm-every-page tool of the parity tests.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when any cluster fails verification.
    pub fn ensure_resident_all(&self) -> Result<()> {
        for c in 0..self.num_clusters() {
            self.touch_cluster(c)?;
        }
        Ok(())
    }

    /// `true` when the base is served zero-copy from a mapped snapshot.
    pub fn is_mapped(&self) -> bool {
        self.residency.is_some()
    }

    /// Residency counters of the mapped path (`None` when owned).
    pub fn residency_stats(&self) -> Option<ResidencyStats> {
        self.residency.as_ref().map(|r| r.stats())
    }

    /// The block-interleaved view of `cluster`'s base segment, consumed by
    /// the fast-scan prune pass. Tail (appended) records are not covered —
    /// scan them through [`IvfListCodes::cluster_segments`].
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of bounds.
    #[inline]
    pub fn cluster_blocks(&self, cluster: usize) -> &BlockCodes {
        &self.blocks[cluster]
    }
}

/// One cluster's base-segment codes transposed into 32-point blocks for the
/// fast-scan kernel.
///
/// Block `b` covers base points `b * 32 .. min((b + 1) * 32, n)`. Within a
/// block the data is subspace-major: row `s` holds the subspace-`s` codes of
/// all 32 lanes, so one quantised LUT row is reused across 32 contiguous
/// candidates. Rows are 32 bytes — or 16 when every code of the cluster
/// fits in a nibble (`< 16`), in which case lane `l < 16` lives in the low
/// nibble of byte `l` and lane `l ≥ 16` in the high nibble of byte
/// `l − 16` (the shape one AVX2 `vpshufb` consumes directly).
///
/// Tail blocks shorter than 32 points are zero-padded; the padded lanes
/// produce garbage sums that callers ignore (`block_len` bounds the loop)
/// and that only ever make early-abandon checks more conservative.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockCodes {
    /// `num_blocks × num_subspaces` rows of `row_bytes` each — owned when
    /// built in RAM, or a zero-copy view into a mapped snapshot.
    data: ByteStore,
    num_points: usize,
    num_subspaces: usize,
    nibble: bool,
}

impl BlockCodes {
    /// Transposes `num_points` point-major codes into block-interleaved
    /// rows, nibble-packing when every code is `< 16`.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != num_points * num_subspaces` (internal
    /// misuse — callers pass exact base-segment slices).
    pub fn build(codes: &[u8], num_points: usize, num_subspaces: usize) -> Self {
        assert_eq!(codes.len(), num_points * num_subspaces);
        let nibble = codes.iter().all(|&c| c < 16);
        let rb = row_bytes(nibble);
        let num_blocks = num_points.div_ceil(BLOCK_LANES);
        let mut data = vec![0u8; num_blocks * num_subspaces * rb];
        for i in 0..num_points {
            let (b, lane) = (i / BLOCK_LANES, i % BLOCK_LANES);
            for s in 0..num_subspaces {
                let c = codes[i * num_subspaces + s];
                let at = (b * num_subspaces + s) * rb;
                if nibble {
                    data[at + (lane & 15)] |= if lane < 16 { c } else { c << 4 };
                } else {
                    data[at + lane] = c;
                }
            }
        }
        Self {
            data: data.into(),
            num_points,
            num_subspaces,
            nibble,
        }
    }

    /// The exact interleaved-data length `build` produces for this shape —
    /// what a mapped snapshot's claimed block region is validated against.
    pub(crate) fn expected_data_len(
        num_points: usize,
        num_subspaces: usize,
        nibble: bool,
    ) -> usize {
        num_points.div_ceil(BLOCK_LANES) * num_subspaces * row_bytes(nibble)
    }

    /// Wraps a mapped region as the block view of a cluster (zero-copy).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when the region length does not match
    /// the shape — the kernels index rows by shape, so a mismatch would be
    /// out-of-bounds later.
    pub fn from_mapped(
        data: MappedBytes,
        num_points: usize,
        num_subspaces: usize,
        nibble: bool,
    ) -> Result<Self> {
        let want = Self::expected_data_len(num_points, num_subspaces, nibble);
        if data.len() != want {
            return Err(Error::corrupted(format!(
                "block view of {} bytes does not match its shape ({num_points} pts × {num_subspaces} subspaces, want {want})",
                data.len()
            )));
        }
        Ok(Self {
            data: ByteStore::Mapped(data),
            num_points,
            num_subspaces,
            nibble,
        })
    }

    /// Number of points covered (the cluster's base-segment length).
    #[inline]
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Number of 32-lane blocks (`⌈num_points / 32⌉`).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.num_points.div_ceil(BLOCK_LANES)
    }

    /// Number of subspaces per code.
    #[inline]
    pub fn num_subspaces(&self) -> usize {
        self.num_subspaces
    }

    /// `true` when rows are nibble-packed (every code `< 16`).
    #[inline]
    pub fn nibble_packed(&self) -> bool {
        self.nibble
    }

    /// Number of valid lanes in block `b` (32 except for the tail block).
    #[inline]
    pub fn block_len(&self, b: usize) -> usize {
        (self.num_points - b * BLOCK_LANES).min(BLOCK_LANES)
    }

    /// The `num_subspaces` interleaved rows of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= num_blocks()`.
    #[inline]
    pub fn block_rows(&self, b: usize) -> &[u8] {
        let rb = row_bytes(self.nibble);
        let stride = self.num_subspaces * rb;
        &self.data[b * stride..(b + 1) * stride]
    }

    /// Deinterleaves the subspace-`s` code of base point `i` (tests and
    /// diagnostics; the hot path hands whole rows to the kernel).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_points()` or `s >= num_subspaces()`.
    #[inline]
    pub fn code_at(&self, i: usize, s: usize) -> u8 {
        assert!(i < self.num_points && s < self.num_subspaces);
        let (b, lane) = (i / BLOCK_LANES, i % BLOCK_LANES);
        let rb = row_bytes(self.nibble);
        let row = &self.block_rows(b)[s * rb..(s + 1) * rb];
        block_lane_code(row, self.nibble, lane)
    }

    /// Memory footprint of the interleaved data in bytes.
    #[inline]
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Raw interleaved bytes — what the v3 snapshot writer persists and
    /// what residency verification compares against a fresh rebuild.
    #[inline]
    pub(crate) fn data(&self) -> &[u8] {
        &self.data
    }

    /// Drives the two-phase prune scan over every block of this view: the
    /// quantised kernel pass (with early abandon), then the per-lane bound
    /// check, invoking `survivor` with the base-segment index of every lane
    /// that cannot be pruned. `survivor` returns the caller's updated top-k
    /// worst score, so the prune threshold tightens block by block; pass the
    /// current worst as `worst` to seed it. Returns
    /// `(pruned_points, pruned_blocks)`.
    ///
    /// This is the single-query form of `BlockCodes::prune_scan_group` (a
    /// one-lane group), with a `Survivor::Block` handed on point by point.
    /// The engines reach the group form through the one cluster visit in
    /// [`crate::scan`]; this form serves stage probes that time the prune
    /// pass in isolation, and the differential tests.
    pub fn prune_scan(
        &self,
        qlut: &QuantizedLut,
        lane_sums: &mut [u16; BLOCK_LANES],
        worst: Option<f32>,
        mut survivor: impl FnMut(usize) -> Option<f32>,
    ) -> (usize, usize) {
        let mut lanes = [GroupLane::new(qlut, worst)];
        self.prune_scan_group(&mut lanes, |_, handed| match handed {
            Survivor::Point(i) => survivor(i),
            Survivor::Block(b) => {
                let start = b * BLOCK_LANES;
                (start..start + self.block_len(b))
                    .map(&mut survivor)
                    .last()
                    .flatten()
            }
        });
        *lane_sums = lanes[0].sums;
        (lanes[0].pruned_points, lanes[0].pruned_blocks)
    }

    /// One full pass of the quantised kernel over every block, no abandon:
    /// `out[i]` gets base point `i`'s saturating `u16` lane sum, the
    /// integer a prune threshold is held against (a sum `≥`
    /// [`QuantizedLut::prune_threshold`] cannot enter the top-k).
    ///
    /// # Panics
    ///
    /// Panics unless `out.len() == num_points()`.
    pub fn lower_bounds(&self, qlut: &QuantizedLut, out: &mut [u16]) {
        assert_eq!(out.len(), self.num_points, "one bound per base point");
        let (full, tail) = out.as_chunks_mut::<BLOCK_LANES>();
        for b in 0..self.num_blocks() {
            if b + 1 < self.num_blocks() {
                prefetch_rows(self.block_rows(b + 1));
            }
            let rows = self.block_rows(b);
            match full.get_mut(b) {
                Some(sums) => {
                    scan_block_with_abandon(qlut, rows, self.nibble, NEVER_PRUNE, sums);
                }
                None => {
                    let mut sums = [0; BLOCK_LANES];
                    scan_block_with_abandon(qlut, rows, self.nibble, NEVER_PRUNE, &mut sums);
                    tail.copy_from_slice(&sums[..tail.len()]);
                }
            }
        }
    }

    /// The **multi-query** (cluster-major) prune scan: holds one quantised
    /// LUT per lane — a small register-tile of queries probing this cluster —
    /// against each 32-point block before moving on, so the block's code rows
    /// are streamed through the cache **once per query group** instead of
    /// once per query. The next block is software-prefetched while the
    /// current one is accumulated.
    ///
    /// Per lane the semantics are *exactly* those of
    /// [`BlockCodes::prune_scan`]: the prune threshold is re-derived from the
    /// lane's evolving `worst` before every block, whole blocks abandon via
    /// the suffix-min check, surviving candidates are handed to
    /// `survivor(lane_index, Survivor::Point(point_index))` (which returns
    /// the lane's updated top-k worst), and a lane whose threshold is
    /// [`NEVER_PRUNE`] skips the kernel and hands the whole block over as
    /// `Survivor::Block(b)` — every point of it survives, and the threshold
    /// is not re-derived before the next block either way — so each query's
    /// results and per-lane prune counters are bit-identical to scanning the
    /// cluster for that query alone with the same entry `worst`.
    pub(crate) fn prune_scan_group(
        &self,
        lanes: &mut [GroupLane<'_>],
        mut survivor: impl FnMut(usize, Survivor) -> Option<f32>,
    ) {
        for b in 0..self.num_blocks() {
            let rows = self.block_rows(b);
            if b + 1 < self.num_blocks() {
                prefetch_rows(self.block_rows(b + 1));
            }
            let len = self.block_len(b);
            for (li, lane) in lanes.iter_mut().enumerate() {
                let threshold = lane.qlut.prune_threshold(lane.worst);
                if threshold == NEVER_PRUNE {
                    lane.worst = survivor(li, Survivor::Block(b));
                    continue;
                }
                if scan_block_with_abandon(lane.qlut, rows, self.nibble, threshold, &mut lane.sums)
                {
                    lane.pruned_blocks += 1;
                    lane.pruned_points += len;
                    continue;
                }
                for (l, &sum) in lane.sums.iter().enumerate().take(len) {
                    if sum as u32 >= threshold {
                        lane.pruned_points += 1;
                        continue;
                    }
                    lane.worst = survivor(li, Survivor::Point(b * BLOCK_LANES + l));
                }
            }
        }
    }
}

/// What [`BlockCodes::prune_scan_group`] hands its caller to score exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Survivor {
    /// One base point (its index in the cluster's base segment) whose bound
    /// could not prune it.
    Point(usize),
    /// Every point of block `b`: the lane has no prune threshold yet.
    Block(usize),
}

/// One query's lane in a multi-query prune scan
/// ([`BlockCodes::prune_scan_group`]): its quantised LUT for this cluster's
/// slot, its evolving top-k worst score, the kernel lane sums of the current
/// block, and the pruning work observed on the query's behalf.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupLane<'a> {
    /// The query's quantised prune LUT for this cluster.
    pub qlut: &'a QuantizedLut,
    /// The query's current top-k worst score (`None` = top-k not full:
    /// candidates pass through until it fills); updated from the `survivor`
    /// callback.
    pub worst: Option<f32>,
    /// Lane sums of the most recent non-abandoned block (scratch).
    pub sums: [u16; BLOCK_LANES],
    /// Candidates settled by the quantised bound without an exact evaluation.
    pub pruned_points: usize,
    /// Whole blocks abandoned mid-accumulation by the suffix-min check.
    pub pruned_blocks: usize,
}

impl<'a> GroupLane<'a> {
    /// Creates a lane seeded with the query's current top-k worst score.
    pub(crate) fn new(qlut: &'a QuantizedLut, worst: Option<f32>) -> Self {
        Self {
            qlut,
            worst,
            sums: [0; BLOCK_LANES],
            pruned_points: 0,
            pruned_blocks: 0,
        }
    }
}

/// Builds the per-cluster block views of a CSR base (`offsets` over
/// point-major `codes` with `s` subspaces).
fn build_blocks(offsets: &[u32], codes: &[u8], s: usize) -> Vec<BlockCodes> {
    (0..offsets.len().saturating_sub(1))
        .map(|c| {
            let (a, b) = (offsets[c] as usize, offsets[c + 1] as usize);
            BlockCodes::build(&codes[a * s..b * s], b - a, s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pq::{PqTrainConfig, ProductQuantizer};
    use juno_common::rng::{normal, seeded};
    use juno_common::vector::VectorSet;

    fn trained(n: usize) -> (Vec<usize>, EncodedPoints) {
        let mut rng = seeded(17);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..8).map(|_| normal(&mut rng, 0.0, 1.0)).collect())
            .collect();
        let data = VectorSet::from_rows(rows).unwrap();
        let pq = ProductQuantizer::train(
            &data,
            &PqTrainConfig {
                num_subspaces: 4,
                entries_per_subspace: 8,
                kmeans_iters: 6,
                seed: 2,
                train_subsample: None,
            },
        )
        .unwrap();
        let codes = pq.encode(&data).unwrap();
        let labels: Vec<usize> = (0..n).map(|i| (i * 7) % 5).collect();
        (labels, codes)
    }

    /// Collects the live records of one cluster through the segment API.
    fn live_members(grouped: &IvfListCodes, cluster: usize) -> Vec<(u32, Vec<u8>)> {
        let s = grouped.num_subspaces();
        let mut out = Vec::new();
        for (ids, codes) in grouped.cluster_segments(cluster) {
            for (i, &id) in ids.iter().enumerate() {
                if !grouped.is_deleted(id) {
                    out.push((id, codes[i * s..(i + 1) * s].to_vec()));
                }
            }
        }
        out
    }

    #[test]
    fn every_point_lands_in_its_cluster_with_its_code() {
        let (labels, codes) = trained(200);
        let grouped = IvfListCodes::build(&labels, &codes, 5).unwrap();
        assert_eq!(grouped.num_clusters(), 5);
        assert_eq!(grouped.num_subspaces(), 4);
        assert_eq!(grouped.len(), 200);
        assert!(!grouped.is_empty());
        let mut seen = 0usize;
        for c in 0..5 {
            let ids = grouped.cluster_ids(c);
            let block = grouped.cluster_codes(c);
            assert_eq!(block.len(), ids.len() * 4);
            for (i, &pid) in ids.iter().enumerate() {
                assert_eq!(labels[pid as usize], c);
                assert_eq!(&block[i * 4..(i + 1) * 4], codes.code(pid as usize));
                seen += 1;
            }
        }
        assert_eq!(seen, 200);
    }

    #[test]
    fn members_keep_dataset_order_within_cluster() {
        let (labels, codes) = trained(120);
        let grouped = IvfListCodes::build(&labels, &codes, 5).unwrap();
        for c in 0..5 {
            let ids = grouped.cluster_ids(c);
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (labels, codes) = trained(50);
        assert!(IvfListCodes::build(&labels[..10], &codes, 5).is_err());
        assert!(IvfListCodes::build(&labels, &codes, 0).is_err());
        // Label out of bounds for the declared cluster count.
        assert!(IvfListCodes::build(&labels, &codes, 3).is_err());
        let grouped = IvfListCodes::build(&labels, &codes, 5).unwrap();
        // Point-major base bytes plus the derived block view.
        assert!(grouped.code_bytes() >= 50 * 4);
    }

    #[test]
    fn append_assigns_fresh_ids_and_scans_through_segments() {
        let (labels, codes) = trained(60);
        let mut grouped = IvfListCodes::build(&labels, &codes, 5).unwrap();
        assert_eq!(grouped.next_id(), 60);
        let id_a = grouped.append(2, &[1, 2, 3, 4]).unwrap();
        let id_b = grouped.append(2, &[5, 6, 7, 8]).unwrap();
        assert_eq!((id_a, id_b), (60, 61));
        assert_eq!(grouped.len(), 62);
        let members = live_members(&grouped, 2);
        assert!(members.contains(&(60, vec![1, 2, 3, 4])));
        assert!(members.contains(&(61, vec![5, 6, 7, 8])));
        // The tail shows up as a second contiguous segment.
        assert_eq!(grouped.cluster_segments(2).count(), 2);
        // Invalid appends are rejected.
        assert!(grouped.append(9, &[0; 4]).is_err());
        assert!(grouped.append(0, &[0; 3]).is_err());
    }

    #[test]
    fn remove_is_idempotent_and_skippable() {
        let (labels, codes) = trained(40);
        let mut grouped = IvfListCodes::build(&labels, &codes, 5).unwrap();
        assert!(grouped.remove(7));
        assert!(!grouped.remove(7), "second removal must be a no-op");
        assert!(!grouped.remove(999), "unknown ids are not removable");
        assert_eq!(grouped.len(), 39);
        assert_eq!(grouped.stored_tombstones(), 1);
        assert!(grouped.is_deleted(7));
        assert!(!grouped.is_deleted(8));
        let c = labels[7];
        assert!(live_members(&grouped, c).iter().all(|(id, _)| *id != 7));
    }

    #[test]
    fn compaction_restores_contiguous_sorted_layout() {
        let (labels, codes) = trained(100);
        let mut grouped = IvfListCodes::build(&labels, &codes, 5).unwrap();
        // Mix of deletions and appends.
        for id in [3u32, 17, 44, 90] {
            assert!(grouped.remove(id));
        }
        let mut appended = Vec::new();
        for c in 0..5 {
            appended.push((c, grouped.append(c, &[c as u8; 4]).unwrap()));
        }
        assert!(grouped.remove(appended[1].1), "tail records are removable");
        let before: Vec<Vec<(u32, Vec<u8>)>> = (0..5).map(|c| live_members(&grouped, c)).collect();
        let live_before = grouped.len();

        grouped.compact();

        assert_eq!(grouped.len(), live_before);
        assert_eq!(grouped.stored_tombstones(), 0);
        for (c, want) in before.iter().enumerate() {
            // Everything is back in the base block, id-sorted, one segment.
            assert_eq!(grouped.cluster_segments(c).count(), 1);
            let ids = grouped.cluster_ids(c);
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            let mut want = want.clone();
            want.sort_by_key(|(id, _)| *id);
            assert_eq!(live_members(&grouped, c), want, "cluster {c}");
        }
        // Ids are still never reused after compaction.
        let next = grouped.next_id();
        assert_eq!(grouped.append(0, &[9; 4]).unwrap(), next);
        assert!(!grouped.remove(appended[1].1), "dead ids stay dead");
    }

    #[test]
    fn block_view_matches_point_major_codes_and_survives_compaction() {
        let (labels, codes) = trained(173);
        let mut grouped = IvfListCodes::build(&labels, &codes, 5).unwrap();
        let check = |g: &IvfListCodes| {
            for c in 0..5 {
                let blocks = g.cluster_blocks(c);
                let base = g.cluster_codes(c);
                let n = g.cluster_ids(c).len();
                assert_eq!(blocks.num_points(), n, "cluster {c}");
                assert_eq!(blocks.num_blocks(), n.div_ceil(32));
                for i in 0..n {
                    for s in 0..4 {
                        assert_eq!(blocks.code_at(i, s), base[i * 4 + s], "cluster {c} pt {i}");
                    }
                }
                // E = 8 here, so every cluster nibble-packs.
                assert!(blocks.nibble_packed());
                if blocks.num_blocks() > 0 {
                    let tail = blocks.num_blocks() - 1;
                    assert_eq!(blocks.block_len(tail), n - tail * 32);
                    assert_eq!(blocks.block_rows(tail).len(), 4 * 16);
                }
            }
        };
        check(&grouped);
        // Mutate + compact: the block view must track the new base.
        for id in [1u32, 40, 99] {
            assert!(grouped.remove(id));
        }
        grouped.append(3, &[7, 7, 7, 7]).unwrap();
        grouped.compact();
        check(&grouped);
    }

    #[test]
    fn wide_codes_use_plain_u8_rows() {
        // A cluster containing a code ≥ 16 must not nibble-pack.
        let codes: Vec<u8> = (0..40u8).map(|i| i % 20).collect();
        let blocks = BlockCodes::build(&codes, 10, 4);
        assert!(!blocks.nibble_packed());
        assert_eq!(blocks.block_rows(0).len(), 4 * 32);
        for i in 0..10 {
            for s in 0..4 {
                assert_eq!(blocks.code_at(i, s), codes[i * 4 + s]);
            }
        }
    }

    #[test]
    fn group_scan_matches_per_query_scan_bit_exactly() {
        use juno_common::rng::Rng;
        let mut rng = seeded(0x6709);
        for case in 0..12u64 {
            let subspaces = rng.gen_range(2..10usize);
            let entries = [8usize, 16, 40][case as usize % 3];
            let n = rng.gen_range(1..140usize);
            let codes: Vec<u8> = (0..n * subspaces)
                .map(|_| rng.gen_range(0..entries as u32) as u8)
                .collect();
            let blocks = BlockCodes::build(&codes, n, subspaces);

            // A few queries with distinct quantised LUTs and distinct
            // (sometimes absent) prune bars.
            let tile = rng.gen_range(1..6usize);
            let qluts: Vec<QuantizedLut> = (0..tile)
                .map(|_| {
                    let svals: Vec<f32> = (0..subspaces * entries)
                        .map(|_| rng.gen_range(0.0f32..8.0))
                        .collect();
                    let mut q = QuantizedLut::new();
                    q.build(&svals, subspaces, entries, 0.0);
                    q
                })
                .collect();
            let worsts: Vec<Option<f32>> = (0..tile)
                .map(|qi| {
                    if qi % 3 == 2 {
                        None
                    } else {
                        Some(rng.gen_range(0.0f32..8.0) * subspaces as f32)
                    }
                })
                .collect();
            // The survivor callback tightens the worst deterministically as
            // a function of the call count, so both drivers see identical
            // threshold evolution per query.
            let evolve =
                |worst: Option<f32>, seen: usize| worst.map(|w| w - 0.01 * seen.min(40) as f32);

            // Reference: each query scanned alone.
            let mut want: Vec<(Vec<usize>, usize, usize)> = Vec::new();
            for qi in 0..tile {
                let mut sums = [0u16; BLOCK_LANES];
                let mut survivors = Vec::new();
                let (pp, pb) = blocks.prune_scan(&qluts[qi], &mut sums, worsts[qi], |i| {
                    survivors.push(i);
                    evolve(worsts[qi], survivors.len())
                });
                want.push((survivors, pp, pb));
            }

            // The multi-query group scan over the same cluster.
            let mut lanes: Vec<GroupLane> = (0..tile)
                .map(|qi| GroupLane::new(&qluts[qi], worsts[qi]))
                .collect();
            let mut got: Vec<Vec<usize>> = vec![Vec::new(); tile];
            blocks.prune_scan_group(&mut lanes, |li, handed| {
                let points = match handed {
                    Survivor::Point(i) => i..i + 1,
                    Survivor::Block(b) => b * BLOCK_LANES..b * BLOCK_LANES + blocks.block_len(b),
                };
                got[li].extend(points);
                evolve(worsts[li], got[li].len())
            });
            for qi in 0..tile {
                assert_eq!(got[qi], want[qi].0, "case {case} query {qi} survivors");
                assert_eq!(
                    (lanes[qi].pruned_points, lanes[qi].pruned_blocks),
                    (want[qi].1, want[qi].2),
                    "case {case} query {qi} prune counters"
                );
            }
        }
    }

    #[test]
    fn prune_scan_from_no_bound_fills_then_prunes() {
        use juno_common::metric::Metric;
        use juno_common::topk::TopK;
        // 160 points whose score (4 × ⌊i / 11⌋) grows with the index, so
        // once a selector has filled every later block loses to it.
        let (n, subspaces, entries) = (160usize, 4usize, 16usize);
        let codes: Vec<u8> = (0..n).flat_map(|i| [(i / 11) as u8; 4]).collect();
        let blocks = BlockCodes::build(&codes, n, subspaces);
        let svals: Vec<f32> = (0..subspaces * entries)
            .map(|i| (i % entries) as f32)
            .collect();
        let mut qlut = QuantizedLut::new();
        qlut.build(&svals, subspaces, entries, 0.0);
        let scan = |k: usize| {
            let mut topk = TopK::new(k, Metric::L2);
            let mut survivors = Vec::new();
            let mut sums = [0u16; BLOCK_LANES];
            let (pruned_points, _) = blocks.prune_scan(&qlut, &mut sums, None, |i| {
                survivors.push(i);
                topk.push(i as u64, 4.0 * (i / 11) as f32);
                topk.worst_score()
            });
            (survivors, pruned_points)
        };
        // k = 40 fills in block 1: the rest of that block still passes
        // (the threshold is re-derived per block), every later block prunes.
        let (survivors, pruned_points) = scan(40);
        assert_eq!(survivors, (0..2 * BLOCK_LANES).collect::<Vec<_>>());
        assert_eq!(pruned_points, n - 2 * BLOCK_LANES);
        // A selector that never fills never gets a threshold.
        let (survivors, pruned_points) = scan(n + 1);
        assert_eq!(survivors, (0..n).collect::<Vec<_>>());
        assert_eq!(pruned_points, 0);
    }

    #[test]
    fn parts_round_trip_preserves_everything() {
        let (labels, codes) = trained(80);
        let mut grouped = IvfListCodes::build(&labels, &codes, 5).unwrap();
        grouped.remove(5);
        grouped.append(1, &[4, 3, 2, 1]).unwrap();
        let parts = grouped.to_parts();
        let rebuilt = IvfListCodes::from_parts(parts).unwrap();
        assert_eq!(rebuilt, grouped);
    }

    #[test]
    fn corrupted_parts_are_rejected() {
        let (labels, codes) = trained(30);
        let grouped = IvfListCodes::build(&labels, &codes, 5).unwrap();
        let good = grouped.to_parts();

        let mut p = good.clone();
        p.offsets[1] = 99; // non-monotone / out of range
        assert!(IvfListCodes::from_parts(p).is_err());

        let mut p = good.clone();
        p.codes.pop(); // shape mismatch
        assert!(IvfListCodes::from_parts(p).is_err());

        let mut p = good.clone();
        p.deleted.pop(); // bitmap mismatch
        assert!(IvfListCodes::from_parts(p).is_err());

        let mut p = good.clone();
        p.point_ids[0] = p.point_ids[1]; // duplicate id
        assert!(IvfListCodes::from_parts(p).is_err());

        let mut p = good.clone();
        p.extra_ids.pop(); // cluster count mismatch
        assert!(IvfListCodes::from_parts(p).is_err());

        let mut p = good.clone();
        p.num_subspaces = 0;
        assert!(IvfListCodes::from_parts(p).is_err());

        // An absurd subspace count must fail cleanly (no multiply overflow).
        let mut p = good;
        p.num_subspaces = usize::MAX / 2;
        assert!(IvfListCodes::from_parts(p).is_err());
    }
}
