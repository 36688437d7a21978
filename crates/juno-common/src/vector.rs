//! Dense row-major storage for sets of `f32` vectors.
//!
//! [`VectorSet`] is the workhorse container of the workspace: datasets,
//! queries, cluster centroids, codebooks and residuals are all stored as one.
//! It is a thin, well-checked wrapper over a flat `Vec<f32>` plus a dimension.

use crate::error::{Error, Result};
use crate::metric;

/// A dense set of equal-dimension `f32` vectors in row-major layout.
///
/// # Example
///
/// ```
/// use juno_common::vector::VectorSet;
///
/// let set = VectorSet::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.dim(), 2);
/// assert_eq!(set.row(1), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VectorSet {
    data: Vec<f32>,
    dim: usize,
}

impl VectorSet {
    /// Creates an empty set of vectors with the given dimension.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `dim == 0`.
    pub fn new(dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(Error::invalid_config("vector dimension must be positive"));
        }
        Ok(Self {
            data: Vec::new(),
            dim,
        })
    }

    /// Creates a set from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `dim == 0` or the buffer length is
    /// not a multiple of `dim`.
    pub fn from_flat(data: Vec<f32>, dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(Error::invalid_config("vector dimension must be positive"));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(Error::invalid_config(format!(
                "flat buffer of length {} is not a multiple of dim {}",
                data.len(),
                dim
            )));
        }
        Ok(Self { data, dim })
    }

    /// Creates a set from individual rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] when `rows` is empty and
    /// [`Error::DimensionMismatch`] when rows disagree on their length.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Result<Self> {
        let first = rows
            .first()
            .ok_or_else(|| Error::empty_input("VectorSet::from_rows received no rows"))?;
        let dim = first.len();
        if dim == 0 {
            return Err(Error::invalid_config("vector dimension must be positive"));
        }
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in &rows {
            if row.len() != dim {
                return Err(Error::DimensionMismatch {
                    expected: dim,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self { data, dim })
    }

    /// Number of vectors in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Returns `true` if the set holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimension of every vector in the set.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow of the flat row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the set and returns the flat row-major buffer.
    #[inline]
    pub fn into_flat(self) -> Vec<f32> {
        self.data
    }

    /// Borrows the `i`-th vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutably borrows the `i`-th vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Checked access to the `i`-th vector.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&[f32]> {
        if i < self.len() {
            Some(self.row(i))
        } else {
            None
        }
    }

    /// Appends one vector to the set.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the vector has the wrong length.
    pub fn push(&mut self, row: &[f32]) -> Result<()> {
        if row.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        Ok(())
    }

    /// Iterates over the vectors as slices.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// Extracts the projection of every vector onto a contiguous range of
    /// coordinates `[start, start + sub_dim)` — the "subspace projection" used
    /// by product quantisation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] when the range exceeds the vector
    /// dimension.
    pub fn subspace(&self, start: usize, sub_dim: usize) -> Result<VectorSet> {
        if start + sub_dim > self.dim {
            return Err(Error::IndexOutOfBounds {
                what: "subspace range".into(),
                index: start + sub_dim,
                len: self.dim,
            });
        }
        let mut data = Vec::with_capacity(self.len() * sub_dim);
        for row in self.iter() {
            data.extend_from_slice(&row[start..start + sub_dim]);
        }
        VectorSet::from_flat(data, sub_dim)
    }

    /// Computes the element-wise residual `self[i] - other[assign[i]]`, where
    /// `assign` maps every row of `self` to a row of `other`.
    ///
    /// This is the residual computation used between search points and their
    /// coarse (IVF) centroid in the paper's offline phase.
    ///
    /// # Errors
    ///
    /// Returns an error when dimensions differ, when `assign` has the wrong
    /// length, or when an assignment is out of bounds.
    pub fn residual_to(&self, other: &VectorSet, assign: &[usize]) -> Result<VectorSet> {
        if other.dim() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: other.dim(),
            });
        }
        if assign.len() != self.len() {
            return Err(Error::invalid_config(format!(
                "assignment length {} does not match point count {}",
                assign.len(),
                self.len()
            )));
        }
        let mut data = Vec::with_capacity(self.data.len());
        for (i, row) in self.iter().enumerate() {
            let c = assign[i];
            let centroid = other.get(c).ok_or_else(|| Error::IndexOutOfBounds {
                what: "centroid".into(),
                index: c,
                len: other.len(),
            })?;
            for (a, b) in row.iter().zip(centroid.iter()) {
                data.push(a - b);
            }
        }
        VectorSet::from_flat(data, self.dim)
    }

    /// Squared L2 norm of every vector (`‖x‖²`), used by the decomposed L2
    /// distance and the MIPS radius transform.
    pub fn squared_norms(&self) -> Vec<f32> {
        self.iter().map(metric::squared_norm).collect()
    }

    /// Selects a subset of rows by index, cloning them into a new set.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] if any id is out of range.
    pub fn select(&self, ids: &[usize]) -> Result<VectorSet> {
        let mut data = Vec::with_capacity(ids.len() * self.dim);
        for &id in ids {
            let row = self.get(id).ok_or_else(|| Error::IndexOutOfBounds {
                what: "row".into(),
                index: id,
                len: self.len(),
            })?;
            data.extend_from_slice(row);
        }
        VectorSet::from_flat(data, self.dim)
    }
}

impl<'a> IntoIterator for &'a VectorSet {
    type Item = &'a [f32];
    type IntoIter = std::slice::ChunksExact<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.chunks_exact(self.dim.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VectorSet {
        VectorSet::from_rows(vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![5.0, 6.0, 7.0, 8.0],
            vec![-1.0, 0.0, 1.0, 2.0],
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.dim(), 4);
        assert_eq!(s.row(2), &[-1.0, 0.0, 1.0, 2.0]);
        assert!(s.get(3).is_none());
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn rejects_zero_dim_and_ragged() {
        assert!(VectorSet::new(0).is_err());
        assert!(VectorSet::from_flat(vec![1.0, 2.0, 3.0], 2).is_err());
        assert!(VectorSet::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(VectorSet::from_rows(vec![]).is_err());
    }

    #[test]
    fn push_checks_dimension() {
        let mut s = VectorSet::new(2).unwrap();
        assert!(s.push(&[1.0, 2.0]).is_ok());
        assert!(s.push(&[1.0]).is_err());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn subspace_projection() {
        let s = sample();
        let sub = s.subspace(2, 2).unwrap();
        assert_eq!(sub.dim(), 2);
        assert_eq!(sub.row(0), &[3.0, 4.0]);
        assert_eq!(sub.row(2), &[1.0, 2.0]);
        assert!(s.subspace(3, 2).is_err());
    }

    #[test]
    fn residual_subtracts_assigned_centroid() {
        let s = sample();
        let centroids =
            VectorSet::from_rows(vec![vec![1.0, 1.0, 1.0, 1.0], vec![0.0, 0.0, 0.0, 0.0]]).unwrap();
        let res = s.residual_to(&centroids, &[0, 1, 0]).unwrap();
        assert_eq!(res.row(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(res.row(1), &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(res.row(2), &[-2.0, -1.0, 0.0, 1.0]);
        assert!(s.residual_to(&centroids, &[0, 5, 0]).is_err());
        assert!(s.residual_to(&centroids, &[0]).is_err());
    }

    #[test]
    fn distances_and_norms() {
        let s = sample();
        let norms = s.squared_norms();
        assert!((norms[0] - 30.0).abs() < 1e-6);
    }

    #[test]
    fn select_rows() {
        let s = sample();
        let picked = s.select(&[2, 0]).unwrap();
        assert_eq!(picked.len(), 2);
        assert_eq!(picked.row(0), s.row(2));
        assert!(s.select(&[9]).is_err());
    }
}
