//! Per-subspace density maps.
//!
//! The paper (Section 4.1) observes a negative correlation between the
//! distance threshold needed to contain the top-100 search points and the
//! *density* of the region the query projection falls into. The density is
//! computed offline on a 100×100 grid over each 2-D subspace: every cell
//! records the number of search-point projections falling into it divided by
//! the cell area. At query time the map is looked up with the query
//! projection to feed the threshold regressor.

use juno_common::error::{Error, Result};

/// Default grid resolution used by the paper.
pub(crate) const DEFAULT_GRID: usize = 100;

/// A 2-D density map over one subspace.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMap {
    /// Grid resolution per axis.
    grid: usize,
    /// Lower corner of the covered area.
    min: [f32; 2],
    /// Upper corner of the covered area.
    max: [f32; 2],
    /// Row-major densities, `grid × grid` cells.
    cells: Vec<f32>,
    /// Total number of points the map was built from.
    total_points: usize,
}

impl DensityMap {
    /// Builds a density map from 2-D projections.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] when no projections are provided and
    /// [`Error::InvalidConfig`] for a zero-sized grid.
    pub fn build(projections: &[[f32; 2]], grid: usize) -> Result<Self> {
        if projections.is_empty() {
            return Err(Error::empty_input("density map requires projections"));
        }
        if grid == 0 {
            return Err(Error::invalid_config("density grid must be positive"));
        }
        let mut min = [f32::INFINITY; 2];
        let mut max = [f32::NEG_INFINITY; 2];
        for p in projections {
            for d in 0..2 {
                min[d] = min[d].min(p[d]);
                max[d] = max[d].max(p[d]);
            }
        }
        // Guard against degenerate (all identical) projections.
        for d in 0..2 {
            if max[d] - min[d] < 1e-6 {
                max[d] = min[d] + 1e-6;
            }
        }
        let mut counts = vec![0usize; grid * grid];
        for p in projections {
            let (i, j) = cell_of(p, &min, &max, grid);
            counts[i * grid + j] += 1;
        }
        let cell_area = ((max[0] - min[0]) / grid as f32) * ((max[1] - min[1]) / grid as f32);
        let cells = counts
            .into_iter()
            .map(|c| c as f32 / cell_area.max(1e-12))
            .collect();
        Ok(Self {
            grid,
            min,
            max,
            cells,
            total_points: projections.len(),
        })
    }

    /// Rebuilds a density map from persisted parts.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when the shapes or bounds are invalid.
    pub fn from_parts(
        grid: usize,
        min: [f32; 2],
        max: [f32; 2],
        cells: Vec<f32>,
        total_points: usize,
    ) -> Result<Self> {
        // grid is untrusted snapshot input: checked multiply so a huge value
        // cannot wrap past the shape check (release) or panic (debug).
        let expected_cells = grid
            .checked_mul(grid)
            .ok_or_else(|| Error::corrupted("density map: grid size overflows"))?;
        if grid == 0 || cells.len() != expected_cells {
            return Err(Error::corrupted("density map: cell grid shape mismatch"));
        }
        if min
            .iter()
            .zip(&max)
            .any(|(lo, hi)| !lo.is_finite() || !hi.is_finite() || lo >= hi)
        {
            return Err(Error::corrupted("density map: degenerate bounds"));
        }
        Ok(Self {
            grid,
            min,
            max,
            cells,
            total_points,
        })
    }

    /// Incrementally accounts for one newly inserted point projection: the
    /// containing cell's density rises by one point per cell area.
    /// Projections outside the covered area clamp to the border cells, the
    /// same treatment queries receive — the map's bounds never move after
    /// construction.
    pub(crate) fn add_point(&mut self, x: f32, y: f32) {
        let (i, j) = cell_of(&[x, y], &self.min, &self.max, self.grid);
        let cell_area = ((self.max[0] - self.min[0]) / self.grid as f32)
            * ((self.max[1] - self.min[1]) / self.grid as f32);
        self.cells[i * self.grid + j] += 1.0 / cell_area.max(1e-12);
        self.total_points += 1;
    }

    /// Lower corner of the covered area.
    pub(crate) fn min_corner(&self) -> [f32; 2] {
        self.min
    }

    /// Upper corner of the covered area.
    pub(crate) fn max_corner(&self) -> [f32; 2] {
        self.max
    }

    /// Borrow of the row-major density cells.
    pub(crate) fn cells(&self) -> &[f32] {
        &self.cells
    }

    /// Grid resolution per axis.
    pub(crate) fn grid(&self) -> usize {
        self.grid
    }

    /// Number of points used to build the map.
    pub(crate) fn total_points(&self) -> usize {
        self.total_points
    }

    /// The density of the cell containing `(x, y)`. Coordinates outside the
    /// covered area are clamped to the border cells, which matches how a
    /// query slightly outside the training distribution should be treated.
    pub fn density_at(&self, x: f32, y: f32) -> f32 {
        let (i, j) = cell_of(&[x, y], &self.min, &self.max, self.grid);
        self.cells[i * self.grid + j]
    }
}

fn cell_of(p: &[f32; 2], min: &[f32; 2], max: &[f32; 2], grid: usize) -> (usize, usize) {
    let mut idx = [0usize; 2];
    for d in 0..2 {
        let t = ((p[d] - min[d]) / (max[d] - min[d])).clamp(0.0, 1.0);
        idx[d] = ((t * grid as f32) as usize).min(grid - 1);
    }
    (idx[0], idx[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::rng::{normal, seeded};

    fn clustered_projections(n: usize, seed: u64) -> Vec<[f32; 2]> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|i| {
                let c = if i % 2 == 0 {
                    [0.0f32, 0.0]
                } else {
                    [8.0, 8.0]
                };
                [normal(&mut rng, c[0], 0.4), normal(&mut rng, c[1], 0.4)]
            })
            .collect()
    }

    #[test]
    fn dense_regions_have_higher_density() {
        let projections = clustered_projections(5_000, 3);
        let map = DensityMap::build(&projections, DEFAULT_GRID).unwrap();
        let dense = map.density_at(0.0, 0.0).max(map.density_at(8.0, 8.0));
        let sparse = map.density_at(4.0, 4.0);
        assert!(
            dense > 10.0 * sparse.max(1e-6),
            "dense {dense} sparse {sparse}"
        );
        assert_eq!(map.total_points(), 5_000);
        assert_eq!(map.grid(), DEFAULT_GRID);
    }

    #[test]
    fn occupancy_reflects_clustering() {
        let clustered = DensityMap::build(&clustered_projections(5_000, 4), 100).unwrap();
        let occupied = clustered.cells.iter().filter(|&&c| c > 0.0).count();
        assert!(
            (occupied as f32) < 0.2 * clustered.cells.len() as f32,
            "clustered data should leave most cells empty"
        );
        assert!(occupied > 0);
    }

    #[test]
    fn out_of_range_queries_are_clamped() {
        let map = DensityMap::build(&clustered_projections(1_000, 5), 50).unwrap();
        // Should not panic and should return the border cell's density.
        let _ = map.density_at(1e6, -1e6);
    }

    #[test]
    fn add_point_raises_local_density_and_parts_round_trip() {
        let projections = clustered_projections(1_000, 6);
        let mut map = DensityMap::build(&projections, 50).unwrap();
        let before = map.density_at(0.0, 0.0);
        for _ in 0..10 {
            map.add_point(0.0, 0.0);
        }
        assert!(map.density_at(0.0, 0.0) > before);
        assert_eq!(map.total_points(), 1_010);
        // Out-of-range insertions clamp instead of panicking.
        map.add_point(1e9, -1e9);

        let rebuilt = DensityMap::from_parts(
            map.grid(),
            map.min_corner(),
            map.max_corner(),
            map.cells().to_vec(),
            map.total_points(),
        )
        .unwrap();
        assert_eq!(rebuilt, map);
        assert!(DensityMap::from_parts(0, [0.0; 2], [1.0; 2], vec![], 0).is_err());
        assert!(DensityMap::from_parts(2, [0.0; 2], [1.0; 2], vec![0.0; 3], 0).is_err());
        assert!(
            DensityMap::from_parts(2, [1.0; 2], [0.0; 2], vec![0.0; 4], 0).is_err(),
            "inverted bounds"
        );
        // An absurd grid must fail cleanly (no multiply overflow).
        assert!(DensityMap::from_parts(usize::MAX / 2, [0.0; 2], [1.0; 2], vec![], 0).is_err());
    }

    #[test]
    fn degenerate_and_invalid_inputs() {
        // All-identical projections must not divide by zero.
        let map = DensityMap::build(&[[1.0, 1.0]; 10], 10).unwrap();
        assert!(map.density_at(1.0, 1.0) > 0.0);
        assert!(DensityMap::build(&[], 10).is_err());
        assert!(DensityMap::build(&[[0.0, 0.0]], 0).is_err());
    }
}
