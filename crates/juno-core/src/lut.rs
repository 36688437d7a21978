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
//! simulated time (`AnnIndex::simulate`).
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

    /// Merges the staged insertions into the flat CSR arrays, each row
    /// sorted by entry id (enables binary-search lookups and merge-style
    /// scans); within a row, equal entry ids keep their insertion order.
    /// Queries ([`SelectiveLut::row`], [`SelectiveLut::lookup`], …) reflect
    /// only finished insertions.
    pub fn finish(&mut self) {
        if self.staging.is_empty() {
            return;
        }
        let rows = self.num_slots * self.num_subspaces;
        // Counting sort by row over the finished content and the staged
        // insertions, finished content first.
        let mut counts = vec![0u32; rows + 1];
        for row in 0..rows {
            counts[row + 1] = self.offsets[row + 1] - self.offsets[row];
        }
        for &(row, _, _) in &self.staging {
            counts[row as usize + 1] += 1;
        }
        for r in 0..rows {
            counts[r + 1] += counts[r];
        }
        let total = counts[rows] as usize;
        let mut entries = vec![0u16; total];
        let mut values = vec![0f32; total];
        let mut cursors = counts.clone();
        for (cursor, old) in cursors.iter_mut().zip(self.offsets.windows(2)) {
            let (start, end, at) = (old[0] as usize, old[1] as usize, *cursor as usize);
            entries[at..at + end - start].copy_from_slice(&self.entries[start..end]);
            values[at..at + end - start].copy_from_slice(&self.values[start..end]);
            *cursor += (end - start) as u32;
        }
        for &(row, entry, value) in &self.staging {
            let at = cursors[row as usize] as usize;
            entries[at] = entry;
            values[at] = value;
            cursors[row as usize] += 1;
        }
        for r in 0..rows {
            let (start, end) = (counts[r] as usize, counts[r + 1] as usize);
            sort_row(&mut entries[start..end], &mut values[start..end]);
        }
        self.offsets = counts;
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
/// subspace's flattened traversal of the RT scene
/// ([`juno_rt::table::ZRayTable`]: the scene's exact hits and work
/// counters). Returns the LUT together with the traversal work performed
/// (which the GPU model converts into RT-core time).
///
/// Requests may come lazily and in any order. A request whose
/// `(slot, subspace)` row lies at or beyond every row seen so far — all of
/// them, when requests arrive in row order, as the engine's do — writes its
/// row straight into the CSR arrays; any other (a repeated or earlier row)
/// is staged and merged at the end, after what was already written.
///
/// # Errors
///
/// Propagates mapping errors (invalid subspace indices).
pub fn construct_selective_lut<I>(
    mapping: &SceneMapping,
    num_slots: usize,
    requests: I,
) -> Result<(SelectiveLut, TraversalStats)>
where
    I: IntoIterator,
    I::Item: Borrow<LutRayRequest>,
{
    let subspaces = mapping.num_subspaces();
    let mut lut = SelectiveLut::new(num_slots, subspaces);
    let mut stats = TraversalStats::new();
    // The `t_max` of the last threshold seen per subspace: a query uses one
    // threshold per subspace, whatever the probe.
    let mut t_max_of: Vec<Option<(u32, f32)>> = vec![None; subspaces];
    // Rows `..sealed` are final in the CSR arrays.
    let mut sealed = 0usize;
    for req in requests {
        let req = req.borrow();
        if req.slot >= num_slots {
            return Err(Error::IndexOutOfBounds {
                what: "lut slot".into(),
                index: req.slot,
                len: num_slots,
            });
        }
        let rays = mapping.subspace_rays(req.subspace)?;
        let t_max = match t_max_of[req.subspace] {
            Some((threshold, t_max)) if threshold == req.threshold.to_bits() => t_max,
            _ => {
                let t_max = mapping.t_max_for_threshold(req.subspace, req.threshold)?;
                t_max_of[req.subspace] = Some((req.threshold.to_bits(), t_max));
                t_max
            }
        };
        let row = req.slot * subspaces + req.subspace;
        if row >= sealed {
            let start = lut.entries.len();
            lut.offsets[sealed + 1..=row].fill(start as u32);
            let (entries, values) = (&mut lut.entries, &mut lut.values);
            rays.trace(req.projection, t_max, &mut stats, |entry, value| {
                entries.push(entry);
                values.push(value);
            });
            sort_row(&mut lut.entries[start..], &mut lut.values[start..]);
            lut.offsets[row + 1] = lut.entries.len() as u32;
            sealed = row + 1;
        } else {
            rays.trace(req.projection, t_max, &mut stats, |entry, value| {
                lut.insert(req.slot, req.subspace, entry, value);
            });
        }
    }
    let end = lut.entries.len() as u32;
    lut.offsets[sealed + 1..].fill(end);
    lut.finish();
    Ok((lut, stats))
}

/// The construction as it was before the flattened tables, kept as the
/// reference [`construct_selective_lut`] must reproduce bit for bit: every
/// ray walks the scene's BVH, every hit goes through
/// [`SceneMapping::decode_hit`] and the staging list, and
/// [`SelectiveLut::finish`] counting-sorts the lot.
#[cfg(test)]
pub(crate) fn construct_selective_lut_reference(
    mapping: &SceneMapping,
    num_slots: usize,
    requests: &[LutRayRequest],
) -> Result<(SelectiveLut, TraversalStats)> {
    let mut lut = SelectiveLut::new(num_slots, mapping.num_subspaces());
    let mut stats = TraversalStats::new();
    for req in requests {
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
                    Ok((subspace, entry, value)) => {
                        // Rays are confined to their subspace by construction, but
                        // guard anyway: a hit from another layer would corrupt the
                        // LUT silently.
                        if subspace == req.subspace {
                            lut.insert(req.slot, subspace, entry as u16, value);
                        }
                    }
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
    fn tables_reproduce_the_tree_walk_for_any_request_order() {
        // LUT (offsets, entries, value bits) and traversal counters against
        // the BVH reference, under both mappings, for requests in row
        // order, with rows skipped, shuffled, and with rows repeated under
        // other projections and thresholds.
        let (subspaces, entries, slots) = (7usize, 32usize, 5usize);
        let cbs = seeded_codebooks(subspaces, entries, 0x51);
        let mappings = [
            (
                "l2",
                SceneMapping::build_l2(&cbs, &vec![1.5; subspaces]).unwrap(),
            ),
            (
                "mips",
                SceneMapping::build_mips(&cbs, &vec![3.0; subspaces]).unwrap(),
            ),
        ];
        for (metric, mapping) in &mappings {
            let mut rng = juno_common::rng::seeded(0x0A75);
            let mut request = |slot: usize, subspace: usize| LutRayRequest {
                slot,
                subspace,
                projection: [rng.gen_range(-2.5..2.5f32), rng.gen_range(-2.5..2.5f32)],
                threshold: rng.gen_range(0.05..1.6f32),
            };
            let in_order: Vec<LutRayRequest> = (0..slots * subspaces)
                .map(|row| request(row / subspaces, row % subspaces))
                .collect();
            let sparse: Vec<LutRayRequest> = in_order
                .iter()
                .copied()
                .filter(|r| (r.slot + r.subspace) % 3 != 0)
                .collect();
            let mut order_rng = juno_common::rng::seeded(0xD1FF);
            let mut shuffled = in_order.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, order_rng.gen_range(0..i + 1));
            }
            let mut repeated = in_order.clone();
            for i in 0..2 * subspaces {
                let at = order_rng.gen_range(0..repeated.len() + 1);
                repeated.insert(at, request(i % slots, i % subspaces));
            }
            for (order, requests) in [
                ("in order", &in_order),
                ("sparse", &sparse),
                ("shuffled", &shuffled),
                ("repeated", &repeated),
            ] {
                let label = format!("{metric} {order}");
                let (want, want_stats) =
                    construct_selective_lut_reference(mapping, slots, requests).unwrap();
                let (got, got_stats) = construct_selective_lut(mapping, slots, requests).unwrap();
                assert_same_lut(&got, &want, &label);
                assert_eq!(got_stats, want_stats, "{label}: traversal stats");
                assert!(got.total_selected() > 0, "{label}: nothing selected");
                // Owned, lazily generated requests take the same path.
                let (lazy, lazy_stats) =
                    construct_selective_lut(mapping, slots, requests.iter().copied()).unwrap();
                assert_same_lut(&lazy, &want, &label);
                assert_eq!(lazy_stats, want_stats);
            }
        }
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
        // Repeated insert/finish cycles keep earlier rows intact, and an
        // entry inserted again lands after its earlier value.
        lut.insert(0, 0, 1, 0.1);
        lut.insert(1, 0, 5, 5.5);
        lut.finish();
        assert_eq!(lut.row_entries(0, 0), &[1]);
        assert_eq!(lut.row_entries(1, 0), &[2, 5, 5, 7]);
        assert_eq!(lut.row_values(1, 0), &[0.2, 0.5, 5.5, 0.7]);
        assert_eq!(lut.total_selected(), 7);
    }

    #[test]
    fn finish_matches_a_naive_row_by_row_construction_on_seeded_inserts() {
        // Reference: one `Vec` per row, sorted by entry id. Entries are
        // unique within a row, as ray hits are, and arrive in random order.
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
            lut.finish();
            for (row, want) in naive.iter_mut().enumerate() {
                want.sort_by_key(|&(e, _)| e);
                let got: Vec<(u16, f32)> = lut.row(row / subspaces, row % subspaces).collect();
                assert_eq!(&got, want, "round {round} row {row}");
            }
            let total: usize = naive.iter().map(Vec::len).sum();
            assert_eq!(lut.total_selected(), total);
        }
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
