//! The selective L2-LUT as the RT cores build it.
//!
//! Where FAISS tabulates the distance from the query projection to **every**
//! codebook entry (`nprobs × E × D/M` values per query), JUNO only stores the
//! entries whose spheres were hit by the query rays — typically a small
//! fraction (Section 3.2 reports ≤ 30 % usage, and the threshold prunes
//! further). The LUT is therefore sparse: per `(probed cluster, subspace)` a
//! short list of `(entry, value)` pairs, where `value` is the squared L2
//! distance (or the inner product under MIPS) recovered from `t_hit` — as
//! the paper's hit shader does, and approximately: `(R² − dz²)/c²` cancels
//! as `d² → 0`.
//!
//! Searches no longer build it. On a CPU the engine evaluates the rays' hit
//! predicate in closed form ([`SceneMapping::select_table`]) into a dense
//! table holding each selected entry's exact value, written per probe as
//! the scan expands it (`engine::JunoSlot`).
//! What stays here is the RT construction itself: the oracle that table's
//! hit sets are tested against, and the traversal work
//! [`construct_selective_lut`] counts, which the GPU model turns into
//! simulated time (`AnnIndex::simulate`). It walks the scene's BVH one ray
//! at a time, as an RT core does (≈ 100 box tests and ≈ 127 sphere tests a
//! ray at 48 subspaces × 64 entries), and stages every hit for one counting
//! sort into the rows.
//!
//! # Memory layout
//!
//! The rows are stored in one flat CSR structure — a single contiguous
//! `entries: Vec<u16>` / `values: Vec<f32>` pair indexed by an `offsets`
//! array over `(slot, subspace)` — instead of a `Vec` of row `Vec`s. One
//! allocation instead of `slots × subspaces`, and the whole LUT streams
//! through cache linearly during accumulation.
//!
//! [`LutDecodeBuffer`] expands one slot's rows into the dense
//! `subspaces × E` layout the scan reads (`NaN` marking unselected entries),
//! for callers that replay the traced construction stage by stage.

use crate::mapping::SceneMapping;
use juno_common::error::{Error, Result};
use juno_rt::stats::TraversalStats;
use std::borrow::Borrow;

/// A sparse, per-query look-up table of selected entry distances, stored as
/// one flat CSR structure over `(slot, subspace)` rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectiveLut {
    /// `offsets[row]..offsets[row + 1]` indexes `entries` / `values` for
    /// `row = slot * num_subspaces + subspace`. Length `rows + 1`.
    offsets: Vec<u32>,
    /// Selected entry ids, sorted within each row after [`SelectiveLut::finish`].
    entries: Vec<u16>,
    /// The value of each selected entry, parallel to `entries`.
    values: Vec<f32>,
    /// Insertions staged before `finish` builds the CSR arrays.
    staging: Vec<(u32, u16, f32)>,
    num_slots: usize,
    num_subspaces: usize,
}

impl SelectiveLut {
    /// Creates an empty LUT for `num_slots` probed clusters and
    /// `num_subspaces` subspaces.
    pub fn new(num_slots: usize, num_subspaces: usize) -> Self {
        Self {
            offsets: vec![0; num_slots * num_subspaces + 1],
            entries: Vec::new(),
            values: Vec::new(),
            staging: Vec::new(),
            num_slots,
            num_subspaces,
        }
    }

    /// Number of probed-cluster slots.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Number of subspaces.
    pub fn num_subspaces(&self) -> usize {
        self.num_subspaces
    }

    /// Records one selected entry. Entries may be inserted in any order;
    /// [`SelectiveLut::finish`] sorts each row and builds the CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `subspace` are out of bounds (internal misuse).
    pub fn insert(&mut self, slot: usize, subspace: usize, entry: u16, value: f32) {
        assert!(slot < self.num_slots && subspace < self.num_subspaces);
        let row = (slot * self.num_subspaces + subspace) as u32;
        self.staging.push((row, entry, value));
    }

    /// Builds the flat CSR arrays from the staged insertions, each row
    /// sorted by entry id (enables binary-search lookups and merge-style
    /// scans); within a row, equal entry ids keep their insertion order.
    /// Queries ([`SelectiveLut::row`], [`SelectiveLut::lookup`], …) reflect
    /// only finished insertions. A LUT is finished once, after its last
    /// insertion; finishing again with nothing staged does nothing.
    ///
    /// # Panics
    ///
    /// Panics if insertions were staged after a finish that stored entries
    /// (internal misuse).
    pub fn finish(&mut self) {
        if self.staging.is_empty() {
            return;
        }
        assert!(
            self.entries.is_empty(),
            "a selective LUT is finished once, after its last insertion"
        );
        // Counting sort by row.
        let rows = self.num_slots * self.num_subspaces;
        let mut offsets = vec![0u32; rows + 1];
        for &(row, _, _) in &self.staging {
            offsets[row as usize + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let total = offsets[rows] as usize;
        let mut entries = vec![0u16; total];
        let mut values = vec![0f32; total];
        let mut cursors = offsets.clone();
        for &(row, entry, value) in &self.staging {
            let at = cursors[row as usize] as usize;
            entries[at] = entry;
            values[at] = value;
            cursors[row as usize] += 1;
        }
        for r in 0..rows {
            let (start, end) = (offsets[r] as usize, offsets[r + 1] as usize);
            sort_row(&mut entries[start..end], &mut values[start..end]);
        }
        self.offsets = offsets;
        self.entries = entries;
        self.values = values;
        self.staging.clear();
    }

    #[inline]
    fn row_bounds(&self, slot: usize, subspace: usize) -> (usize, usize) {
        let row = slot * self.num_subspaces + subspace;
        (self.offsets[row] as usize, self.offsets[row + 1] as usize)
    }

    /// The selected, entry-sorted ids of one `(slot, subspace)` row.
    #[inline]
    pub fn row_entries(&self, slot: usize, subspace: usize) -> &[u16] {
        let (start, end) = self.row_bounds(slot, subspace);
        &self.entries[start..end]
    }

    /// The values of one `(slot, subspace)` row, parallel to
    /// [`SelectiveLut::row_entries`].
    #[inline]
    pub fn row_values(&self, slot: usize, subspace: usize) -> &[f32] {
        let (start, end) = self.row_bounds(slot, subspace);
        &self.values[start..end]
    }

    /// The selected `(entry, value)` pairs of one `(slot, subspace)` row,
    /// sorted by entry id.
    pub fn row(
        &self,
        slot: usize,
        subspace: usize,
    ) -> impl ExactSizeIterator<Item = (u16, f32)> + '_ {
        let (start, end) = self.row_bounds(slot, subspace);
        self.entries[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Looks up the value of a specific entry, if it was selected.
    pub fn lookup(&self, slot: usize, subspace: usize, entry: u16) -> Option<f32> {
        let (start, end) = self.row_bounds(slot, subspace);
        self.entries[start..end]
            .binary_search(&entry)
            .ok()
            .map(|i| self.values[start + i])
    }

    /// Total number of selected entries across all rows.
    pub fn total_selected(&self) -> usize {
        self.entries.len()
    }

    /// The fraction of the dense LUT that was actually materialised
    /// (`total selected / (slots × subspaces × E)`).
    pub fn density(&self, entries_per_subspace: usize) -> f64 {
        let dense = self.num_slots * self.num_subspaces * entries_per_subspace;
        if dense == 0 {
            0.0
        } else {
            self.total_selected() as f64 / dense as f64
        }
    }
}

/// Sorts one row segment by entry id in place, values moving in tandem,
/// stably. A row holds at most one value per codebook entry (codes are
/// bytes, so ≤ 256) and usually a few dozen, often already in order:
/// insertion sort, with no per-row buffers.
fn sort_row(entries: &mut [u16], values: &mut [f32]) {
    for i in 1..entries.len() {
        let (e, v) = (entries[i], values[i]);
        let mut j = i;
        while j > 0 && entries[j - 1] > e {
            entries[j] = entries[j - 1];
            values[j] = values[j - 1];
            j -= 1;
        }
        entries[j] = e;
        values[j] = v;
    }
}

/// A dense per-probe decode buffer: one slot of a [`SelectiveLut`] expanded
/// to `subspaces × E` contiguous `f32`s, with `NaN` marking unselected
/// entries.
///
/// The accumulators index it as `buffer[s * E + code]` — one predictable
/// load per `(candidate, subspace)` instead of a per-candidate binary search
/// over the sparse row. Clearing between slots touches only the entries the
/// previous slot selected, so reuse across probes (and across queries, via
/// the engine's per-thread scratch) costs O(selected), not O(dense).
#[derive(Debug, Clone)]
pub struct LutDecodeBuffer {
    dense: Vec<f32>,
    /// Flat indices written by the last decode, for sparse clearing.
    touched: Vec<u32>,
    entries_per_subspace: usize,
}

impl LutDecodeBuffer {
    /// Creates a buffer for `num_subspaces × entries_per_subspace` entries,
    /// initially all-unselected.
    pub fn new(num_subspaces: usize, entries_per_subspace: usize) -> Self {
        Self {
            dense: vec![f32::NAN; num_subspaces * entries_per_subspace],
            touched: Vec::new(),
            entries_per_subspace,
        }
    }

    /// Entries per subspace this buffer was sized for.
    pub fn entries_per_subspace(&self) -> usize {
        self.entries_per_subspace
    }

    /// Expands one slot of `lut` into the dense buffer, clearing whatever the
    /// previous decode wrote first.
    ///
    /// # Panics
    ///
    /// Panics if the buffer shape does not match `lut.num_subspaces() × E`
    /// (internal misuse) or `slot` is out of bounds.
    pub fn decode_slot(&mut self, lut: &SelectiveLut, slot: usize) {
        assert_eq!(
            self.dense.len(),
            lut.num_subspaces() * self.entries_per_subspace,
            "decode buffer shape mismatch"
        );
        for &i in &self.touched {
            self.dense[i as usize] = f32::NAN;
        }
        self.touched.clear();
        for s in 0..lut.num_subspaces() {
            let base = s * self.entries_per_subspace;
            let ids = lut.row_entries(slot, s);
            let vals = lut.row_values(slot, s);
            for (&e, &v) in ids.iter().zip(vals) {
                let at = base + e as usize;
                self.dense[at] = v;
                self.touched.push(at as u32);
            }
        }
    }

    /// The decoded value at `(subspace, entry)`: the selected value, or `NaN`
    /// when the entry was not selected.
    #[inline]
    pub fn get(&self, subspace: usize, entry: usize) -> f32 {
        self.dense[subspace * self.entries_per_subspace + entry]
    }

    /// Borrow of the dense `subspaces × E` buffer (row-major by subspace).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.dense
    }
}

/// One ray request for the selective construction: which probed-cluster slot
/// and subspace it belongs to, the query projection in original units, and
/// the distance threshold (L2) or scale factor (MIPS) to apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LutRayRequest {
    /// Index of the probed cluster in filter order.
    pub slot: usize,
    /// Subspace index.
    pub subspace: usize,
    /// Query (residual) projection in original subspace coordinates.
    pub projection: [f32; 2],
    /// Distance threshold (L2 mapping) or scale factor (MIPS mapping).
    pub threshold: f32,
}

/// Constructs the selective LUT by tracing one ray per request through the
/// RT scene's BVH ([`SceneMapping::ray_for`] → `Scene::trace_with_stats`),
/// recovering each hit's value from `t_hit` ([`SceneMapping::decode_hit`])
/// as the paper's hit shader does. Returns the LUT together with the
/// traversal work performed (which the GPU model converts into RT-core
/// time). Requests may come lazily and in any order; a row requested twice
/// holds both rays' hits.
///
/// # Errors
///
/// Returns [`Error::IndexOutOfBounds`] for a slot beyond `num_slots` and
/// propagates mapping errors (invalid subspace indices).
pub fn construct_selective_lut<I>(
    mapping: &SceneMapping,
    num_slots: usize,
    requests: I,
) -> Result<(SelectiveLut, TraversalStats)>
where
    I: IntoIterator,
    I::Item: Borrow<LutRayRequest>,
{
    let mut lut = SelectiveLut::new(num_slots, mapping.num_subspaces());
    let mut stats = TraversalStats::new();
    for req in requests {
        let req = req.borrow();
        if req.slot >= num_slots {
            return Err(Error::IndexOutOfBounds {
                what: "lut slot".into(),
                index: req.slot,
                len: num_slots,
            });
        }
        let t_max = mapping.t_max_for_threshold(req.subspace, req.threshold)?;
        let ray = mapping.ray_for(req.subspace, req.projection, t_max)?;
        let mut decode_error: Option<Error> = None;
        mapping
            .scene()
            .trace_with_stats(&ray, &mut stats, &mut |hit| {
                if decode_error.is_some() {
                    return;
                }
                match mapping.decode_hit(req.projection, &hit) {
                    // A ray from within rounding of a centre of the layer
                    // below grazes that sphere at `t_hit = 0`: traversal
                    // work, but not an entry of this subspace.
                    Ok((subspace, entry, value)) if subspace == req.subspace => {
                        lut.insert(req.slot, req.subspace, entry as u16, value);
                    }
                    Ok(_) => {}
                    Err(e) => decode_error = Some(e),
                }
            });
        if let Some(e) = decode_error {
            return Err(e);
        }
    }
    lut.finish();
    Ok((lut, stats))
}

/// Offsets, entries and value bits of two LUTs are equal.
#[cfg(test)]
pub(crate) fn assert_same_lut(got: &SelectiveLut, want: &SelectiveLut, label: &str) {
    assert_eq!(got.offsets, want.offsets, "{label}: offsets");
    assert_eq!(got.entries, want.entries, "{label}: entries");
    let bits = |lut: &SelectiveLut| lut.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{label}: value bits");
    assert!(got.staging.is_empty() && want.staging.is_empty());
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::metric::l2_squared;
    use juno_common::rng::Rng;
    use juno_common::vector::VectorSet;
    use juno_quant::codebook::Codebook;

    fn mapping() -> (Vec<Codebook>, SceneMapping) {
        let entries0 = VectorSet::from_rows(vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![3.0, 3.0],
        ])
        .unwrap();
        let entries1 = VectorSet::from_rows(vec![
            vec![0.5, 0.5],
            vec![-1.0, 0.0],
            vec![2.0, 2.0],
            vec![-3.0, 1.0],
        ])
        .unwrap();
        let cbs = vec![
            Codebook::new(0, entries0).unwrap(),
            Codebook::new(1, entries1).unwrap(),
        ];
        let mapping = SceneMapping::build_l2(&cbs, &[5.0, 5.0]).unwrap();
        (cbs, mapping)
    }

    #[test]
    fn construction_selects_only_close_entries() {
        let (cbs, mapping) = mapping();
        let requests = vec![
            LutRayRequest {
                slot: 0,
                subspace: 0,
                projection: [0.1, 0.1],
                threshold: 1.2,
            },
            LutRayRequest {
                slot: 0,
                subspace: 1,
                projection: [0.4, 0.4],
                threshold: 1.0,
            },
        ];
        let (lut, stats) = construct_selective_lut(&mapping, 1, &requests).unwrap();
        assert_eq!(stats.rays, 2);
        // Subspace 0: entries 0, 1, 2 are within 1.2 of (0.1, 0.1); entry 3 is not.
        let ids: Vec<u16> = lut.row(0, 0).map(|(e, _)| e).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        for (e, v) in lut.row(0, 0) {
            let exact = l2_squared(&[0.1, 0.1], cbs[0].entry(e as usize).unwrap());
            assert!((v - exact).abs() < 1e-3);
        }
        // Subspace 1: only entry 0 is within 1.0 of (0.4, 0.4).
        let ids1: Vec<u16> = lut.row(0, 1).map(|(e, _)| e).collect();
        assert_eq!(ids1, vec![0]);
        // Lookups.
        assert!(lut.lookup(0, 0, 1).is_some());
        assert!(lut.lookup(0, 0, 3).is_none());
        assert_eq!(lut.total_selected(), 4);
        assert!((lut.density(4) - 4.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn lut_is_sparser_than_dense_with_tight_threshold() {
        let (_, mapping) = mapping();
        let requests: Vec<LutRayRequest> = (0..2)
            .map(|s| LutRayRequest {
                slot: 0,
                subspace: s,
                projection: [0.0, 0.0],
                threshold: 0.5,
            })
            .collect();
        let (lut, _) = construct_selective_lut(&mapping, 1, &requests).unwrap();
        assert!(lut.density(4) < 0.5);
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let (_, mapping) = mapping();
        let bad_slot = vec![LutRayRequest {
            slot: 3,
            subspace: 0,
            projection: [0.0, 0.0],
            threshold: 1.0,
        }];
        assert!(construct_selective_lut(&mapping, 1, &bad_slot).is_err());
        let bad_subspace = vec![LutRayRequest {
            slot: 0,
            subspace: 9,
            projection: [0.0, 0.0],
            threshold: 1.0,
        }];
        assert!(construct_selective_lut(&mapping, 1, &bad_subspace).is_err());
    }

    /// A seeded codebook set shaped like the engine's: `entries` 2-D
    /// entries per subspace, spread over a few units.
    fn seeded_codebooks(subspaces: usize, entries: usize, seed: u64) -> Vec<Codebook> {
        let mut rng = juno_common::rng::seeded(seed);
        (0..subspaces)
            .map(|s| {
                let rows = (0..entries)
                    .map(|_| vec![rng.gen_range(-2.0..2.0f32), rng.gen_range(-2.0..2.0f32)])
                    .collect();
                Codebook::new(s, VectorSet::from_rows(rows).unwrap()).unwrap()
            })
            .collect()
    }

    #[test]
    fn origin_over_a_centre_of_the_layer_below_hits_it_at_time_zero() {
        // A scaled planar offset² below 2⁻²⁴ makes the intersection's
        // `c = (x² + y² + 1) − 1` round to zero, so the unit sphere of the
        // layer below is hit at `t_hit = 0`: traversal work the counters
        // keep, but no entry of the ray's subspace.
        let (subspaces, entries, s) = (6usize, 64usize, 3usize);
        let cbs = seeded_codebooks(subspaces, entries, 0xC0FFEE);
        // One max threshold everywhere gives every layer the same coordinate
        // scale, so a projection equal to an entry of subspace `s − 1`
        // starts subspace `s`'s ray right over that entry's sphere.
        let mapping = SceneMapping::build_l2(&cbs, &vec![1.5; subspaces]).unwrap();
        let mut grazed = 0;
        for below in cbs[s - 1].entries().iter().step_by(5) {
            for (dx, dy) in [(0.0, 0.0), (1.0e-4, 0.0), (-1.5e-4, 1.0e-4)] {
                for threshold in [0.05f32, 0.8, 1.5] {
                    let projection = [below[0] + dx, below[1] + dy];
                    let request = LutRayRequest {
                        slot: 0,
                        subspace: s,
                        projection,
                        threshold,
                    };
                    let (lut, stats) = construct_selective_lut(&mapping, 1, [request]).unwrap();
                    // The same ray walked by hand, its hits split by layer.
                    let t_max = mapping.t_max_for_threshold(s, threshold).unwrap();
                    let ray = mapping.ray_for(s, projection, t_max).unwrap();
                    let (mut own, mut below_hits) = (Vec::new(), 0);
                    let walked = mapping.scene().trace(&ray, &mut |hit| {
                        let (layer, entry) = mapping.decode_primitive(hit.primitive_id).unwrap();
                        if layer == s {
                            own.push(entry as u16);
                        } else {
                            assert_eq!((layer, hit.t_hit), (s - 1, 0.0));
                            below_hits += 1;
                        }
                    });
                    own.sort_unstable();
                    assert_eq!(stats, walked);
                    assert!(stats.primitive_tests >= stats.hits);
                    assert_eq!(stats.hits, own.len() + below_hits);
                    assert_eq!(lut.row_entries(0, s), &own[..]);
                    assert_eq!(lut.total_selected(), own.len());
                    grazed += below_hits;
                }
            }
        }
        assert!(grazed > 0, "no ray hit the layer below at t_hit = 0");
    }

    #[test]
    fn empty_request_list_gives_empty_lut() {
        let (_, mapping) = mapping();
        let (lut, stats) = construct_selective_lut(&mapping, 2, [] as [LutRayRequest; 0]).unwrap();
        assert_eq!(lut.total_selected(), 0);
        assert_eq!(stats.rays, 0);
        assert_eq!(lut.num_slots(), 2);
        assert_eq!(lut.num_subspaces(), 2);
        assert_eq!(lut.row(1, 1).len(), 0);
    }

    #[test]
    fn rows_are_sorted_and_csr_slices_are_parallel() {
        let mut lut = SelectiveLut::new(2, 2);
        // Insert out of order, across rows.
        lut.insert(1, 0, 7, 0.7);
        lut.insert(0, 1, 3, 0.3);
        lut.insert(1, 0, 2, 0.2);
        lut.insert(0, 1, 9, 0.9);
        lut.insert(1, 0, 5, 0.5);
        lut.finish();
        assert_eq!(lut.row_entries(1, 0), &[2, 5, 7]);
        assert_eq!(lut.row_values(1, 0), &[0.2, 0.5, 0.7]);
        assert_eq!(lut.row_entries(0, 1), &[3, 9]);
        assert_eq!(lut.row_entries(0, 0), &[] as &[u16]);
        assert_eq!(lut.total_selected(), 5);
        // Finishing again with nothing staged changes nothing.
        let finished = lut.clone();
        lut.finish();
        assert_eq!(lut, finished);
        // An entry inserted twice keeps both values, in insertion order.
        let mut twice = SelectiveLut::new(2, 2);
        twice.insert(1, 0, 5, 0.5);
        twice.insert(1, 0, 2, 0.2);
        twice.insert(1, 0, 5, 5.5);
        twice.finish();
        assert_eq!(twice.row_entries(1, 0), &[2, 5, 5]);
        assert_eq!(twice.row_values(1, 0), &[0.2, 0.5, 5.5]);
    }

    #[test]
    #[should_panic(expected = "finished once")]
    fn inserting_after_a_finish_that_stored_entries_is_refused() {
        let mut lut = SelectiveLut::new(1, 1);
        lut.insert(0, 0, 3, 0.3);
        lut.finish();
        lut.insert(0, 0, 1, 0.1);
        lut.finish();
    }

    #[test]
    fn finish_matches_a_naive_row_by_row_construction_on_seeded_inserts() {
        // Reference: one `Vec` per row, sorted by entry id. Entries are
        // unique within a row, as ray hits are, and arrive in random order,
        // in two shuffled rounds staged before the one finish.
        let (slots, subspaces, entries) = (5usize, 7usize, 64u16);
        let mut rng = juno_common::rng::seeded(0x1D7);
        let mut lut = SelectiveLut::new(slots, subspaces);
        let mut naive: Vec<Vec<(u16, f32)>> = vec![Vec::new(); slots * subspaces];
        for round in 0..2 {
            let mut staged = Vec::new();
            for row in 0..slots * subspaces {
                for e in 0..entries {
                    // Even entries in the first round, a sparser odd subset
                    // in the second; some rows stay empty.
                    let pick = e % 2 == round && rng.gen_range(0..4usize) != 0;
                    if row % 5 != 3 && pick {
                        staged.push((row, e, rng.gen_range(0..1_000usize) as f32 * 0.25));
                    }
                }
            }
            for i in (1..staged.len()).rev() {
                staged.swap(i, rng.gen_range(0..i + 1));
            }
            for &(row, e, v) in &staged {
                lut.insert(row / subspaces, row % subspaces, e, v);
                naive[row].push((e, v));
            }
        }
        lut.finish();
        for (row, want) in naive.iter_mut().enumerate() {
            want.sort_by_key(|&(e, _)| e);
            let got: Vec<(u16, f32)> = lut.row(row / subspaces, row % subspaces).collect();
            assert_eq!(&got, want, "row {row}");
        }
        let total: usize = naive.iter().map(Vec::len).sum();
        assert_eq!(lut.total_selected(), total);
    }

    #[test]
    fn decode_buffer_expands_and_clears_per_slot() {
        let mut lut = SelectiveLut::new(2, 2);
        lut.insert(0, 0, 1, 0.25);
        lut.insert(0, 1, 2, 0.5);
        lut.insert(1, 0, 3, 0.75);
        lut.finish();
        let mut buf = LutDecodeBuffer::new(2, 4);
        buf.decode_slot(&lut, 0);
        assert_eq!(buf.get(0, 1), 0.25);
        assert_eq!(buf.get(1, 2), 0.5);
        assert!(buf.get(0, 0).is_nan());
        assert!(buf.get(0, 3).is_nan());
        // Re-decoding another slot clears the previous slot's entries.
        buf.decode_slot(&lut, 1);
        assert_eq!(buf.get(0, 3), 0.75);
        assert!(buf.get(0, 1).is_nan());
        assert!(buf.get(1, 2).is_nan());
        assert_eq!(buf.as_slice().len(), 8);
        assert_eq!(buf.entries_per_subspace(), 4);
    }
}
