//! Per-subspace codebooks.
//!
//! A [`Codebook`] is the set of `E` codebook entries (second-level cluster
//! centroids) of one `M`-dimensional subspace. The product quantiser owns one
//! codebook per subspace; the JUNO engine additionally turns each codebook
//! into a set of spheres in the RT scene.

use juno_common::error::{Error, Result};
use juno_common::kernel::NearestRows;
use juno_common::metric::l2_squared;
use juno_common::vector::VectorSet;

/// The codebook of a single PQ subspace.
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    /// Which subspace this codebook belongs to (0-based).
    subspace: usize,
    /// Entry centroids: `E` rows of dimension `M`.
    entries: VectorSet,
    /// `entries` as the nearest-row kernel wants them; derived in
    /// [`Codebook::new`], never persisted.
    nearest: NearestRows,
}

impl Codebook {
    /// Creates a codebook from trained entry centroids.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] when `entries` is empty.
    pub fn new(subspace: usize, entries: VectorSet) -> Result<Self> {
        if entries.is_empty() {
            return Err(Error::empty_input("codebook requires at least one entry"));
        }
        let nearest = NearestRows::new(entries.as_flat(), entries.dim());
        Ok(Self {
            subspace,
            entries,
            nearest,
        })
    }

    /// The subspace index this codebook encodes.
    pub fn subspace(&self) -> usize {
        self.subspace
    }

    /// Number of entries (`E`).
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Dimension of each entry (`M`).
    pub fn sub_dim(&self) -> usize {
        self.entries.dim()
    }

    /// Borrow of the entry centroids.
    pub fn entries(&self) -> &VectorSet {
        &self.entries
    }

    /// Borrow of one entry centroid.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for an invalid entry id.
    pub fn entry(&self, e: usize) -> Result<&[f32]> {
        self.entries.get(e).ok_or_else(|| Error::IndexOutOfBounds {
            what: "codebook entry".into(),
            index: e,
            len: self.entries.len(),
        })
    }

    /// Encodes one residual projection: the id of the nearest entry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the projection dimension is
    /// not `M`.
    pub fn encode(&self, projection: &[f32]) -> Result<u32> {
        if projection.len() != self.sub_dim() {
            return Err(Error::DimensionMismatch {
                expected: self.sub_dim(),
                actual: projection.len(),
            });
        }
        Ok(self.nearest.nearest(projection).0 as u32)
    }

    /// The entries laid out for the nearest-row kernel: what
    /// [`Codebook::encode`] runs, and the batched entry
    /// (`NearestRows::nearest_each`) a whole set's encoding runs.
    pub(crate) fn nearest_rows(&self) -> &NearestRows {
        &self.nearest
    }

    /// Squared distance of a query projection to every entry — one row of the
    /// dense L2-LUT (the computation JUNO's selective construction avoids).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the projection dimension is
    /// not `M`.
    pub(crate) fn dense_lut_row(&self, projection: &[f32]) -> Result<Vec<f32>> {
        if projection.len() != self.sub_dim() {
            return Err(Error::DimensionMismatch {
                expected: self.sub_dim(),
                actual: projection.len(),
            });
        }
        Ok(self
            .entries
            .iter()
            .map(|row| l2_squared(projection, row))
            .collect())
    }

    /// [`Codebook::dense_lut_row`] into a caller-provided buffer of exactly
    /// `len()` slots — the same values (same arithmetic, bit-identical), no
    /// allocation. Used by the grouped batch scan's reusable LUT arena.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the projection dimension is
    /// not `M` or `out` does not hold exactly one slot per entry.
    pub(crate) fn dense_lut_row_into(&self, projection: &[f32], out: &mut [f32]) -> Result<()> {
        if projection.len() != self.sub_dim() {
            return Err(Error::DimensionMismatch {
                expected: self.sub_dim(),
                actual: projection.len(),
            });
        }
        if out.len() != self.num_entries() {
            return Err(Error::DimensionMismatch {
                expected: self.num_entries(),
                actual: out.len(),
            });
        }
        for (o, row) in out.iter_mut().zip(self.entries.iter()) {
            *o = l2_squared(projection, row);
        }
        Ok(())
    }

    /// Entry ids sorted by distance to a query projection (closest first).
    ///
    /// Used by the sparsity / locality analysis (Figs. 3(b), 4, 5): the paper
    /// sorts entries by their distance to the query projection before
    /// plotting usage heat-maps and coverage CDFs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the projection dimension is
    /// not `M`.
    pub fn entries_by_distance(&self, projection: &[f32]) -> Result<Vec<(u32, f32)>> {
        let lut = self.dense_lut_row(projection)?;
        let mut order: Vec<(u32, f32)> = lut
            .into_iter()
            .enumerate()
            .map(|(e, d)| (e as u32, d))
            .collect();
        order.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_codebook() -> Codebook {
        let entries = VectorSet::from_rows(vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0, 5.0],
        ])
        .unwrap();
        Codebook::new(3, entries).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let cb = toy_codebook();
        assert_eq!(cb.subspace(), 3);
        assert_eq!(cb.num_entries(), 4);
        assert_eq!(cb.sub_dim(), 2);
        assert_eq!(cb.entry(3).unwrap(), &[5.0, 5.0]);
        assert!(cb.entry(4).is_err());
    }

    #[test]
    fn encode_picks_nearest_entry() {
        let cb = toy_codebook();
        assert_eq!(cb.encode(&[0.1, 0.1]).unwrap(), 0);
        assert_eq!(cb.encode(&[0.9, 0.1]).unwrap(), 1);
        assert_eq!(cb.encode(&[4.0, 4.5]).unwrap(), 3);
        assert!(cb.encode(&[1.0]).is_err());
    }

    #[test]
    fn dense_lut_matches_scalar_distances() {
        let cb = toy_codebook();
        let q = [0.5, 0.5];
        let lut = cb.dense_lut_row(&q).unwrap();
        assert_eq!(lut.len(), 4);
        assert!((lut[0] - 0.5).abs() < 1e-6);
        assert!((lut[3] - (4.5 * 4.5 * 2.0)).abs() < 1e-4);
    }

    #[test]
    fn entries_by_distance_is_sorted() {
        let cb = toy_codebook();
        let order = cb.entries_by_distance(&[0.9, 0.0]).unwrap();
        assert_eq!(order[0].0, 1);
        for w in order.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn empty_codebook_rejected() {
        let empty = VectorSet::new(2).unwrap();
        assert!(Codebook::new(0, empty).is_err());
    }
}
