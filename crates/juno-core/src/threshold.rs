//! Dynamic and static distance-threshold strategies.
//!
//! JUNO prunes codebook entries whose distance to the query projection
//! exceeds a per-subspace threshold. The threshold is determined at runtime
//! (Section 4.1): the density of the cell the query projection falls into is
//! looked up in an offline [`DensityMap`] and fed to an offline-trained
//! polynomial regressor that predicts the radius needed to contain the
//! projections of the **top-k search points** in that subspace. A
//! user-supplied scaling factor (Fig. 7(b)) shrinks the radius to trade
//! recall for throughput. Static small/large thresholds are also provided
//! because Fig. 13(b) compares against them.
//!
//! Calibration follows the paper: sampled search points act as pseudo
//! queries, their exact top-k neighbours (full dimension) are computed, and
//! the per-subspace radius is a configurable quantile of the projection
//! distances among those neighbours (the raw maximum is heavy-tailed and
//! destroys selectivity). Density is the input feature, radius the
//! regression target.

use crate::density::{DensityMap, DEFAULT_GRID};
use crate::regression::PolynomialRegression;
use juno_common::error::{Error, Result};
use juno_common::metric::Metric;
use juno_common::rng::{sample_indices, seeded};
use juno_common::topk::TopK;
use juno_common::vector::VectorSet;

/// How the per-query threshold is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ThresholdStrategy {
    /// Density-map + regression dynamic threshold (the paper's choice).
    #[default]
    Dynamic,
    /// The smallest threshold observed during calibration (Fig. 13(b),
    /// "R-Small").
    StaticSmall,
    /// The largest threshold observed during calibration ("R-Large").
    StaticLarge,
    /// A fixed, user-supplied threshold in subspace distance units.
    Fixed(f32),
}

/// Calibration data of one subspace. Crate-visible so the persistence layer
/// (`crate::persist`) can serialise and rebuild it field by field.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SubspaceThreshold {
    pub(crate) density_map: DensityMap,
    pub(crate) regressor: PolynomialRegression,
    pub(crate) min_threshold: f32,
    pub(crate) max_threshold: f32,
}

/// The per-subspace threshold model.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdModel {
    subspaces: Vec<SubspaceThreshold>,
}

/// Training parameters of the threshold model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdTrainConfig {
    /// Number of sampled pseudo queries used to fit the regressors.
    pub samples: usize,
    /// The `k` whose containment radius is regressed (the paper uses 100).
    pub target_k: usize,
    /// Cap on the number of search points scanned when computing each pseudo
    /// query's exact top-k (keeps calibration sub-quadratic on large sets).
    pub population_cap: usize,
    /// The quantile of the top-k projection distances the radius must
    /// contain. The max (`1.0`) is heavy-tailed — one outlier projection per
    /// subspace inflates the radius and with it the whole selective-LUT
    /// density — so the default contains the 80th percentile; the JUNO-H
    /// miss penalty accounts for the remaining tail.
    pub radius_quantile: f64,
    /// Polynomial degree of the regressor.
    pub degree: usize,
    /// Density-map grid resolution.
    pub grid: usize,
    /// Seed for sampling.
    pub seed: u64,
}

impl Default for ThresholdTrainConfig {
    fn default() -> Self {
        Self {
            samples: 256,
            target_k: 100,
            population_cap: 20_000,
            radius_quantile: 0.80,
            degree: 2,
            grid: DEFAULT_GRID,
            seed: 0x7472,
        }
    }
}

impl ThresholdModel {
    /// Trains the model on the search points.
    ///
    /// `points` are the original search points (dimension `2 × subspaces`);
    /// `metric` decides how the pseudo queries' top-k neighbours are ranked.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] / [`Error::InvalidConfig`] for degenerate
    /// inputs and propagates density-map / regression errors.
    pub fn train(
        points: &VectorSet,
        metric: Metric,
        config: &ThresholdTrainConfig,
    ) -> Result<Self> {
        if points.is_empty() {
            return Err(Error::empty_input("threshold model requires search points"));
        }
        if !points.dim().is_multiple_of(2) {
            return Err(Error::invalid_config(
                "threshold model requires an even dimension (2-D subspaces)",
            ));
        }
        if config.target_k == 0 || config.samples == 0 {
            return Err(Error::invalid_config(
                "threshold calibration requires positive samples and target_k",
            ));
        }
        let num_subspaces = points.dim() / 2;
        let mut rng = seeded(config.seed);

        // Population used for exact top-k computations.
        let population: VectorSet = if points.len() > config.population_cap {
            let ids = sample_indices(&mut rng, points.len(), config.population_cap);
            points.select(&ids)?
        } else {
            points.clone()
        };

        // Pseudo queries.
        let n_samples = config.samples.min(population.len());
        let anchor_ids = sample_indices(&mut rng, population.len(), n_samples);

        // Per-subspace density maps over the point projections.
        let mut density_maps = Vec::with_capacity(num_subspaces);
        for s in 0..num_subspaces {
            let projections: Vec<[f32; 2]> = points
                .iter()
                .map(|row| [row[2 * s], row[2 * s + 1]])
                .collect();
            density_maps.push(DensityMap::build(&projections, config.grid)?);
        }

        // For every pseudo query: exact top-k, then per-subspace containment
        // radius (the farthest top-k projection).
        let k = config.target_k.min(population.len());
        let mut xs: Vec<Vec<f64>> = vec![Vec::with_capacity(n_samples); num_subspaces];
        let mut ys: Vec<Vec<f64>> = vec![Vec::with_capacity(n_samples); num_subspaces];
        for &a in &anchor_ids {
            let anchor = population.row(a);
            let mut topk = TopK::new(k, metric);
            for (i, row) in population.iter().enumerate() {
                topk.push(i as u64, metric.distance(anchor, row));
            }
            let neighbours = topk.into_sorted_vec();
            let quantile = config.radius_quantile.clamp(0.0, 1.0);
            for s in 0..num_subspaces {
                let ax = anchor[2 * s];
                let ay = anchor[2 * s + 1];
                let mut dists: Vec<f32> = neighbours
                    .iter()
                    .map(|n| {
                        let row = population.row(n.id as usize);
                        let dx = row[2 * s] - ax;
                        let dy = row[2 * s + 1] - ay;
                        (dx * dx + dy * dy).sqrt()
                    })
                    .collect();
                dists.sort_unstable_by(f32::total_cmp);
                let idx = ((dists.len() as f64 * quantile).ceil() as usize)
                    .saturating_sub(1)
                    .min(dists.len() - 1);
                let radius = dists[idx];
                let density = density_maps[s].density_at(ax, ay);
                xs[s].push((1.0 + density as f64).ln());
                ys[s].push(radius as f64);
            }
        }

        let mut subspaces = Vec::with_capacity(num_subspaces);
        for (s, density_map) in density_maps.into_iter().enumerate() {
            let min_threshold = ys[s].iter().cloned().fold(f64::INFINITY, f64::min) as f32;
            let max_threshold = ys[s].iter().cloned().fold(0.0f64, f64::max) as f32;
            // Degenerate density distributions (few distinct values) make the
            // higher-degree normal equations singular; retry with lower
            // degrees down to the constant fit, which always succeeds for a
            // non-empty sample.
            let mut regressor = None;
            for degree in (0..=config.degree).rev() {
                if let Ok(fit) = PolynomialRegression::fit(&xs[s], &ys[s], degree) {
                    regressor = Some(fit);
                    break;
                }
            }
            let regressor = regressor
                .ok_or_else(|| Error::numeric(format!("threshold fit failed for subspace {s}")))?;
            subspaces.push(SubspaceThreshold {
                density_map,
                regressor,
                min_threshold: min_threshold.max(1e-6),
                max_threshold: max_threshold.max(1e-6),
            });
        }
        Ok(Self { subspaces })
    }

    /// Number of calibrated subspaces.
    pub fn num_subspaces(&self) -> usize {
        self.subspaces.len()
    }

    /// Incrementally refreshes the calibration for one newly inserted search
    /// point: its projection is accounted for in every subspace's density
    /// map, so subsequent queries landing near the insertion see a (slightly)
    /// higher density and thus a tighter predicted radius. The regressors and
    /// the min/max clamps — fitted offline over sampled pseudo queries — stay
    /// as-is until a full rebuild; deletions likewise leave the maps
    /// untouched (density is a statistical prior, and decrementing would
    /// require retaining raw coordinates of every indexed point).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `point` is not
    /// `2 × num_subspaces` wide.
    pub(crate) fn note_inserted_point(&mut self, point: &[f32]) -> Result<()> {
        if point.len() != 2 * self.subspaces.len() {
            return Err(Error::DimensionMismatch {
                expected: 2 * self.subspaces.len(),
                actual: point.len(),
            });
        }
        for (s, sub) in self.subspaces.iter_mut().enumerate() {
            sub.density_map.add_point(point[2 * s], point[2 * s + 1]);
        }
        Ok(())
    }

    /// Feeds everything [`ThresholdModel::threshold_for`] can read — the
    /// density maps as they stand (inserts included), the regressors and the
    /// clamps — into the engine's plan stamp.
    pub(crate) fn fingerprint_into(&self, h: &mut crate::stamp::Fingerprint) {
        h.word(self.subspaces.len() as u64);
        for sub in &self.subspaces {
            let map = &sub.density_map;
            h.word(map.grid() as u64);
            h.f32s(&map.min_corner());
            h.f32s(&map.max_corner());
            h.f32s(map.cells());
            h.word(sub.regressor.coefficients().len() as u64);
            for &c in sub.regressor.coefficients() {
                h.word(c.to_bits());
            }
            h.f32s(&[sub.min_threshold, sub.max_threshold]);
        }
    }

    /// Crate-internal borrow of the per-subspace calibration (persistence).
    pub(crate) fn subspaces_raw(&self) -> &[SubspaceThreshold] {
        &self.subspaces
    }

    /// Crate-internal rebuild from persisted per-subspace calibration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when no subspaces are given.
    pub(crate) fn from_subspaces(subspaces: Vec<SubspaceThreshold>) -> Result<Self> {
        if subspaces.is_empty() {
            return Err(Error::corrupted("threshold model: no subspaces"));
        }
        Ok(Self { subspaces })
    }

    /// The largest calibrated threshold of a subspace (used to size the RT
    /// scene's coordinate normalisation).
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for an invalid subspace.
    pub(crate) fn max_threshold(&self, subspace: usize) -> Result<f32> {
        self.subspace(subspace).map(|s| s.max_threshold)
    }

    /// The threshold for a query projection `(x, y)` in `subspace` under the
    /// given strategy and user scaling factor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for an invalid subspace and
    /// [`Error::InvalidConfig`] for a non-positive scale.
    pub fn threshold_for(
        &self,
        subspace: usize,
        x: f32,
        y: f32,
        strategy: ThresholdStrategy,
        scale: f32,
    ) -> Result<f32> {
        if scale <= 0.0 {
            return Err(Error::invalid_config("threshold scale must be positive"));
        }
        let sub = self.subspace(subspace)?;
        let raw = match strategy {
            ThresholdStrategy::Dynamic => {
                let density = sub.density_map.density_at(x, y);
                let predicted = sub.regressor.predict((1.0 + density as f64).ln()) as f32;
                predicted.clamp(sub.min_threshold, sub.max_threshold)
            }
            ThresholdStrategy::StaticSmall => sub.min_threshold,
            ThresholdStrategy::StaticLarge => sub.max_threshold,
            ThresholdStrategy::Fixed(v) => v.max(1e-6),
        };
        Ok(raw * scale)
    }

    fn subspace(&self, s: usize) -> Result<&SubspaceThreshold> {
        self.subspaces
            .get(s)
            .ok_or_else(|| Error::IndexOutOfBounds {
                what: "threshold subspace".into(),
                index: s,
                len: self.subspaces.len(),
            })
    }
}

/// Converts a planar distance threshold (in *scene-normalised* units, i.e.
/// already multiplied by the subspace coordinate scale so it is `< radius`)
/// into the maximum ray travel time `t_max` of the paper's Fig. 9 geometry:
/// `t_max = 1 − sqrt(R² − thres²)`.
///
/// Thresholds at or above the sphere radius saturate at `t_max = 1` (the ray
/// reaches the entry plane and therefore hits every sphere whose planar
/// distance is below the radius).
pub(crate) fn threshold_to_t_max(threshold_scaled: f32, radius: f32) -> f32 {
    debug_assert!(radius > 0.0);
    if threshold_scaled >= radius {
        return 1.0;
    }
    let inside = radius * radius - threshold_scaled * threshold_scaled;
    1.0 - inside.max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::rng::{normal, seeded};

    /// Two Gaussian blobs of very different tightness in a 4-D space (two
    /// subspaces): queries landing in the tight blob need a much smaller
    /// containment radius than queries in the loose blob.
    fn blobby_points(seed: u64) -> VectorSet {
        let mut rng = seeded(seed);
        let mut rows = Vec::new();
        for _ in 0..2_000 {
            rows.push(vec![
                normal(&mut rng, 0.0, 0.3),
                normal(&mut rng, 0.0, 0.3),
                normal(&mut rng, 0.0, 0.3),
                normal(&mut rng, 0.0, 0.3),
            ]);
        }
        for _ in 0..2_000 {
            rows.push(vec![
                normal(&mut rng, 15.0, 3.0),
                normal(&mut rng, 15.0, 3.0),
                normal(&mut rng, 15.0, 3.0),
                normal(&mut rng, 15.0, 3.0),
            ]);
        }
        VectorSet::from_rows(rows).unwrap()
    }

    fn small_config() -> ThresholdTrainConfig {
        ThresholdTrainConfig {
            samples: 120,
            target_k: 50,
            population_cap: 4_000,
            ..ThresholdTrainConfig::default()
        }
    }

    #[test]
    fn dense_regions_get_smaller_thresholds() {
        let points = blobby_points(1);
        let model = ThresholdModel::train(&points, Metric::L2, &small_config()).unwrap();
        assert_eq!(model.num_subspaces(), 2);
        let dense = model
            .threshold_for(0, 0.0, 0.0, ThresholdStrategy::Dynamic, 1.0)
            .unwrap();
        let sparse = model
            .threshold_for(0, 15.0, 15.0, ThresholdStrategy::Dynamic, 1.0)
            .unwrap();
        assert!(
            dense < sparse,
            "dense-region threshold {dense} should be below sparse-region {sparse}"
        );
    }

    #[test]
    fn calibrated_radius_contains_topk_projections() {
        // The max threshold of a subspace must be at least the radius needed
        // by any sampled pseudo query, which in turn bounds real queries from
        // the same distribution with high probability.
        let points = blobby_points(2);
        let model = ThresholdModel::train(&points, Metric::L2, &small_config()).unwrap();
        for s in 0..2 {
            let max = model.max_threshold(s).unwrap();
            let min = model.subspace(s).unwrap().min_threshold;
            assert!(max >= min);
            // The loose blob has σ = 3 per axis: containing 50 neighbours
            // requires a radius well above the tight blob's σ = 0.3.
            assert!(max > 0.5, "max threshold {max} suspiciously small");
            assert!(min < max);
        }
    }

    #[test]
    fn scaling_factor_shrinks_threshold_linearly() {
        let points = blobby_points(3);
        let model = ThresholdModel::train(&points, Metric::L2, &small_config()).unwrap();
        let full = model
            .threshold_for(0, 0.0, 0.0, ThresholdStrategy::Dynamic, 1.0)
            .unwrap();
        let half = model
            .threshold_for(0, 0.0, 0.0, ThresholdStrategy::Dynamic, 0.5)
            .unwrap();
        assert!((half - full * 0.5).abs() < 1e-6);
        assert!(model
            .threshold_for(0, 0.0, 0.0, ThresholdStrategy::Dynamic, 0.0)
            .is_err());
    }

    #[test]
    fn static_strategies_bracket_dynamic() {
        let points = blobby_points(4);
        let model = ThresholdModel::train(&points, Metric::L2, &small_config()).unwrap();
        let small = model
            .threshold_for(0, 0.0, 0.0, ThresholdStrategy::StaticSmall, 1.0)
            .unwrap();
        let large = model
            .threshold_for(0, 0.0, 0.0, ThresholdStrategy::StaticLarge, 1.0)
            .unwrap();
        let dynamic = model
            .threshold_for(0, 0.0, 0.0, ThresholdStrategy::Dynamic, 1.0)
            .unwrap();
        assert!(small <= dynamic + 1e-6 && dynamic <= large + 1e-6);
        let fixed = model
            .threshold_for(0, 0.0, 0.0, ThresholdStrategy::Fixed(0.42), 1.0)
            .unwrap();
        assert!((fixed - 0.42).abs() < 1e-6);
        assert!(model.max_threshold(7).is_err());
        assert!(model
            .threshold_for(7, 0.0, 0.0, ThresholdStrategy::Dynamic, 1.0)
            .is_err());
    }

    #[test]
    fn inserted_points_tighten_dynamic_thresholds() {
        let points = blobby_points(8);
        let mut model = ThresholdModel::train(&points, Metric::L2, &small_config()).unwrap();
        let density_before = model.subspaces_raw()[0].density_map.density_at(15.0, 15.0);
        for _ in 0..50 {
            model
                .note_inserted_point(&[15.0, 15.0, 15.0, 15.0])
                .unwrap();
        }
        let density_after = model.subspaces_raw()[0].density_map.density_at(15.0, 15.0);
        assert!(
            density_after > density_before,
            "insertions must raise local density ({density_before} -> {density_after})"
        );
        // The refreshed prediction stays within the calibrated clamp range.
        let after = model
            .threshold_for(0, 15.0, 15.0, ThresholdStrategy::Dynamic, 1.0)
            .unwrap();
        assert!(after >= model.subspace(0).unwrap().min_threshold - 1e-6);
        assert!(after <= model.max_threshold(0).unwrap() + 1e-6);
        assert!(model.note_inserted_point(&[0.0; 3]).is_err());
    }

    #[test]
    fn works_with_inner_product_ranking() {
        let points = blobby_points(5);
        let model = ThresholdModel::train(&points, Metric::InnerProduct, &small_config()).unwrap();
        assert_eq!(model.num_subspaces(), 2);
        let t = model
            .threshold_for(1, 15.0, 15.0, ThresholdStrategy::Dynamic, 1.0)
            .unwrap();
        assert!(t > 0.0);
    }

    #[test]
    fn t_max_round_trip() {
        let radius = 1.0;
        for thres in [0.05f32, 0.3, 0.7, 0.95] {
            let t = threshold_to_t_max(thres, radius);
            assert!(t > 0.0 && t < 1.0);
            // Inverse: the planar distance reachable with `t`.
            let back = (radius * radius - (1.0 - t).powi(2)).max(0.0).sqrt();
            assert!((back - thres).abs() < 1e-5, "{thres} -> {t} -> {back}");
        }
        // Saturation.
        assert_eq!(threshold_to_t_max(2.0, 1.0), 1.0);
        // Monotonicity.
        assert!(threshold_to_t_max(0.2, 1.0) < threshold_to_t_max(0.6, 1.0));
    }

    #[test]
    fn degenerate_points_fall_back_to_constant_fit() {
        let points = VectorSet::from_rows(vec![vec![1.0, 1.0, 2.0, 2.0]; 300]).unwrap();
        let model = ThresholdModel::train(&points, Metric::L2, &small_config()).unwrap();
        let t = model
            .threshold_for(0, 1.0, 1.0, ThresholdStrategy::Dynamic, 1.0)
            .unwrap();
        assert!(
            t > 0.0,
            "threshold must stay positive even for degenerate data"
        );
    }

    #[test]
    fn invalid_training_inputs() {
        let empty = VectorSet::new(4).unwrap();
        assert!(ThresholdModel::train(&empty, Metric::L2, &small_config()).is_err());
        let odd = VectorSet::from_rows(vec![vec![1.0, 2.0, 3.0]]).unwrap();
        assert!(ThresholdModel::train(&odd, Metric::L2, &small_config()).is_err());
        let points = blobby_points(6);
        assert!(ThresholdModel::train(
            &points,
            Metric::L2,
            &ThresholdTrainConfig {
                target_k: 0,
                ..small_config()
            }
        )
        .is_err());
        assert!(ThresholdModel::train(
            &points,
            Metric::L2,
            &ThresholdTrainConfig {
                samples: 0,
                ..small_config()
            }
        )
        .is_err());
    }
}
