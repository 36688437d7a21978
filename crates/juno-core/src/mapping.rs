//! Mapping codebook entries and query projections onto the RT scene.
//!
//! This module implements the geometric side of Section 4.2 and 5.2:
//!
//! * every codebook entry of subspace `s` becomes a sphere centred at the
//!   entry's (scaled) 2-D coordinates at depth `z = 2s + 1`;
//! * every query projection becomes a `+z` ray starting at `z = 2s`, so rays
//!   only ever interact with their own subspace's spheres;
//! * all spheres of a subspace share one radius; the *dynamic* distance
//!   threshold is expressed purely through the ray's `t_max`
//!   (`t_max = 1 − sqrt(R² − thres²)`, Fig. 9 right);
//! * the hit time `t_hit` recovers the exact planar distance
//!   (`d = sqrt(R² − (1 − t_hit)²)`, Fig. 9 left) — no sphere coordinates are
//!   read back;
//! * for inner-product (MIPS) similarity the per-entry radius is enlarged to
//!   `R'_e = sqrt(R² + ‖e‖²)` so that `t_hit` directly yields `IP(e, q)`
//!   without extra dimensions (Section 4.2, "Inner Product Similarity
//!   Support").
//!
//! A CPU has no RT cores to trace those rays on, so the serving path does
//! not trace them: [`SceneMapping::select_table`] solves the same geometry
//! for each entry (hit iff `d² ≤ min(thr², R²/c²)`, or an inner-product cut
//! under MIPS) in one vectorised pass over codebook columns kept beside the
//! scene, and computes each selected entry's value exactly instead of
//! recovering it from `t_hit`. The scene and [`SceneMapping::decode_hit`]
//! remain for the traced construction (`crate::lut`), which walks the
//! scene's BVH ray by ray: the oracle the closed form is tested against and
//! the source of the simulator's RT work counters.
//!
//! Because the RT geometry requires the sphere radius to stay below the one
//! unit of `z` travel between the ray origin plane and the entry plane, every
//! subspace gets a coordinate scale factor chosen so that the largest useful
//! threshold maps to a radius `< 1`.

use juno_common::error::{Error, Result};
use juno_common::kernel;
use juno_common::metric::Metric;
use juno_quant::codebook::Codebook;
use juno_rt::ray::Ray;
use juno_rt::scene::{Hit, Scene, SceneBuilder};
use juno_rt::sphere::Sphere;
use std::sync::Arc;

/// Safety margin keeping scene radii strictly below the 1-unit layer spacing.
const RADIUS_MARGIN: f32 = 0.95;

/// Per-subspace geometric parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SubspaceGeometry {
    /// Multiplicative scale applied to subspace coordinates before they enter
    /// the scene.
    coord_scale: f32,
    /// Base sphere radius `R` of this subspace (scaled units).
    base_radius: f32,
}

/// Everything a mapping shares between its clones, immutable once built:
/// the codebook entries column-major (the closed-form predicate's side of
/// the scene) and the scene that rays are traced through.
#[derive(Debug)]
struct Shared {
    /// `xs[s * E + e]`, `ys[s * E + e]`: entry `e` of subspace `s`, in
    /// original units.
    xs: Vec<f32>,
    ys: Vec<f32>,
    scene: Scene,
}

impl Shared {
    fn new(codebooks: &[Codebook], scene: Scene) -> Arc<Self> {
        let column = |j: usize| {
            codebooks
                .iter()
                .flat_map(|cb| cb.entries().iter().map(move |e| e[j]))
                .collect()
        };
        Arc::new(Self {
            xs: column(0),
            ys: column(1),
            scene,
        })
    }
}

/// The RT scene plus everything needed to create rays and decode hits.
///
/// The entry columns and the scene sit behind one `Arc`: cloning a mapping —
/// which cloning an index does, per shard per write — copies a pointer, not
/// the spheres and the BVH.
#[derive(Debug, Clone)]
pub(crate) struct SceneMapping {
    shared: Arc<Shared>,
    geometry: Vec<SubspaceGeometry>,
    entries_per_subspace: usize,
    metric: Metric,
}

impl SceneMapping {
    /// Builds the scene for the **L2** metric.
    ///
    /// `max_thresholds[s]` is the largest distance threshold the engine will
    /// ever need in subspace `s` (taken from the calibrated
    /// [`crate::threshold::ThresholdModel`]); the subspace's coordinate scale
    /// is chosen so that this threshold maps just inside the sphere radius.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when inputs are inconsistent.
    pub(crate) fn build_l2(codebooks: &[Codebook], max_thresholds: &[f32]) -> Result<Self> {
        if codebooks.is_empty() {
            return Err(Error::empty_input("scene mapping requires codebooks"));
        }
        if codebooks.len() != max_thresholds.len() {
            return Err(Error::invalid_config(format!(
                "{} codebooks but {} max thresholds",
                codebooks.len(),
                max_thresholds.len()
            )));
        }
        let entries_per_subspace = codebooks[0].num_entries();
        let mut builder = SceneBuilder::new();
        let mut geometry = Vec::with_capacity(codebooks.len());
        for (s, cb) in codebooks.iter().enumerate() {
            check_codebook(cb, s, entries_per_subspace)?;
            let max_thr = max_thresholds[s].max(1e-6);
            let base_radius = 1.0f32;
            let coord_scale = RADIUS_MARGIN * base_radius / max_thr;
            geometry.push(SubspaceGeometry {
                coord_scale,
                base_radius,
            });
            let z = layer_z(s);
            for (e, entry) in cb.entries().iter().enumerate() {
                let center = [entry[0] * coord_scale, entry[1] * coord_scale, z];
                builder.add_sphere(Sphere::new(
                    center,
                    base_radius,
                    encode_primitive(s, e, entries_per_subspace),
                ));
            }
        }
        Ok(Self {
            shared: Shared::new(codebooks, builder.build()),
            geometry,
            entries_per_subspace,
            metric: Metric::L2,
        })
    }

    /// Builds the scene for the **inner-product** (MIPS) metric.
    ///
    /// `query_norm_bounds[s]` is an upper bound on the squared norm of query
    /// projections in subspace `s` (estimated offline from sampled search
    /// points); it sizes the base radius so that, at `t_max = 1`, every entry
    /// whose inner product with the query is non-trivially large is hit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when inputs are inconsistent.
    pub(crate) fn build_mips(codebooks: &[Codebook], query_norm_bounds: &[f32]) -> Result<Self> {
        if codebooks.is_empty() {
            return Err(Error::empty_input("scene mapping requires codebooks"));
        }
        if codebooks.len() != query_norm_bounds.len() {
            return Err(Error::invalid_config(format!(
                "{} codebooks but {} query norm bounds",
                codebooks.len(),
                query_norm_bounds.len()
            )));
        }
        let entries_per_subspace = codebooks[0].num_entries();
        let mut builder = SceneBuilder::new();
        let mut geometry = Vec::with_capacity(codebooks.len());
        for (s, cb) in codebooks.iter().enumerate() {
            check_codebook(cb, s, entries_per_subspace)?;
            // Largest entry norm and query norm decide the coordinate scale:
            // the inflated radius sqrt(R² + ‖e_s‖²) must stay below 1.
            let max_entry_sq: f32 = cb
                .entries()
                .iter()
                .map(|e| e[0] * e[0] + e[1] * e[1])
                .fold(0.0, f32::max);
            let query_sq_bound = query_norm_bounds[s].max(1e-6);
            // Base radius (scaled units) is sized to the query norm bound so
            // that entries with IP ≥ 0 are reachable at t_max = 1; the
            // coordinate scale keeps R'² = R² + ‖e_s‖² ≤ RADIUS_MARGIN².
            let denom = (query_sq_bound + max_entry_sq).max(1e-9);
            let coord_scale = (RADIUS_MARGIN * RADIUS_MARGIN / denom).sqrt();
            let base_radius = (query_sq_bound * coord_scale * coord_scale)
                .sqrt()
                .max(1e-4);
            geometry.push(SubspaceGeometry {
                coord_scale,
                base_radius,
            });
            let z = layer_z(s);
            for (e, entry) in cb.entries().iter().enumerate() {
                let ex = entry[0] * coord_scale;
                let ey = entry[1] * coord_scale;
                let radius = (base_radius * base_radius + ex * ex + ey * ey)
                    .sqrt()
                    .min(0.999);
                builder.add_sphere(Sphere::new(
                    [ex, ey, z],
                    radius,
                    encode_primitive(s, e, entries_per_subspace),
                ));
            }
        }
        Ok(Self {
            shared: Shared::new(codebooks, builder.build()),
            geometry,
            entries_per_subspace,
            metric: Metric::InnerProduct,
        })
    }

    /// Number of subspaces in the scene.
    pub(crate) fn num_subspaces(&self) -> usize {
        self.geometry.len()
    }

    /// Borrow of the traversable scene (for diagnostics and benches).
    pub(crate) fn scene(&self) -> &Scene {
        &self.shared.scene
    }

    /// The ray travel budget implementing a distance threshold in `subspace`.
    ///
    /// For L2, `threshold` is a planar distance in original subspace units.
    /// For MIPS, `threshold` is interpreted as the user scaling factor in
    /// `(0, 1]` (the MIPS hit condition is an inner-product bound rather than
    /// a distance, so the density-based radius does not apply).
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for an invalid subspace.
    pub(crate) fn t_max_for_threshold(&self, subspace: usize, threshold: f32) -> Result<f32> {
        let geo = self.geo(subspace)?;
        let t = match self.metric {
            Metric::L2 => {
                let scaled = (threshold * geo.coord_scale).max(0.0);
                crate::threshold::threshold_to_t_max(scaled, geo.base_radius)
            }
            Metric::InnerProduct => {
                let scale = threshold.clamp(1e-3, 1.0);
                1.0 - geo.base_radius * (1.0 - scale * scale).max(0.0).sqrt()
            }
        };
        Ok(t.clamp(0.0, 1.0))
    }

    /// The scene's hit predicate in closed form, over every entry of every
    /// subspace at once ([`kernel::selective_table`]): `out[s × E + e]` is
    /// entry `e`'s exact value against `projections[s]` — their squared L2
    /// distance, or their inner product under MIPS, in original units —
    /// where subspace `s`'s ray hits the entry's sphere, and `NaN` where it
    /// misses; `limits[s]` is [`SceneMapping::select_limit`] of the ray.
    /// Returns the hit count.
    ///
    /// Solving the Fig. 9 geometry for the entry: an L2 ray hits iff
    /// `d² ≤ min(thr², R²/c²)` — the threshold, capped by the sphere radius
    /// `R` at coordinate scale `c`. A MIPS ray with travel `t_max` hits
    /// entry `e`'s sphere (`R_e² = R² + c²‖e‖²`) iff
    /// `c²d² ≤ R_e² − (1 − t_max)²`, i.e. iff
    /// `IP ≥ (‖q‖² − (R² − (1 − t_max)²)/c²) / 2`. The tracer decides the
    /// same predicate through `t_hit` in scaled units, so the two may
    /// disagree on an entry within rounding of the boundary.
    ///
    /// # Panics
    ///
    /// Panics unless there is one projection and one limit per subspace and
    /// `out` holds one value per entry of every subspace.
    pub(crate) fn select_table(
        &self,
        projections: &[[f32; 2]],
        limits: &[f32],
        out: &mut [f32],
    ) -> usize {
        assert_eq!(
            projections.len(),
            self.num_subspaces(),
            "one projection per subspace"
        );
        kernel::selective_table(
            self.metric,
            projections,
            limits,
            &self.shared.xs,
            &self.shared.ys,
            out,
        )
    }

    /// The limit [`SceneMapping::select_table`] holds subspace `subspace`'s
    /// entries to for a ray from `projection` at `threshold` (read as
    /// [`SceneMapping::t_max_for_threshold`] reads it): `min(thr², R²/c²)`
    /// under L2, whatever the projection; the inner-product cut under MIPS.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for an invalid subspace.
    pub(crate) fn select_limit(
        &self,
        subspace: usize,
        projection: [f32; 2],
        threshold: f32,
    ) -> Result<f32> {
        let geo = self.geo(subspace)?;
        let scale_sq = geo.coord_scale * geo.coord_scale;
        Ok(match self.metric {
            Metric::L2 => {
                let thr = threshold.max(0.0);
                if thr * geo.coord_scale >= geo.base_radius {
                    geo.base_radius * geo.base_radius / scale_sq
                } else {
                    thr * thr
                }
            }
            Metric::InnerProduct => {
                let dz = 1.0 - self.t_max_for_threshold(subspace, threshold)?;
                let reach = (geo.base_radius * geo.base_radius - dz * dz) / scale_sq;
                let q_sq = projection[0] * projection[0] + projection[1] * projection[1];
                0.5 * (q_sq - reach)
            }
        })
    }

    /// Creates the query ray of `subspace` for a query projection `(x, y)`
    /// (original units) with the given `t_max`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for an invalid subspace.
    pub(crate) fn ray_for(&self, subspace: usize, projection: [f32; 2], t_max: f32) -> Result<Ray> {
        let geo = self.geo(subspace)?;
        Ok(Ray::axis_aligned_z(
            [
                projection[0] * geo.coord_scale,
                projection[1] * geo.coord_scale,
                origin_z(subspace),
            ],
            t_max.clamp(0.0, 1.0),
        ))
    }

    /// Decodes one hit: returns `(subspace, entry id, value)` where `value`
    /// is the squared L2 distance between the query projection and the entry
    /// (L2 mapping) or their inner product (MIPS mapping), both in original
    /// (unscaled) units. The computation uses only `t_hit` and per-query
    /// constants, mirroring the hit shader of Alg. 2.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] when the primitive id does not
    /// belong to a known subspace.
    pub(crate) fn decode_hit(
        &self,
        projection: [f32; 2],
        hit: &Hit,
    ) -> Result<(usize, usize, f32)> {
        let (subspace, entry) = self.decode_primitive(hit.primitive_id)?;
        let geo = self.geo(subspace)?;
        let dz = 1.0 - hit.t_hit;
        let value = match self.metric {
            Metric::L2 => {
                let d_sq_scaled = (geo.base_radius * geo.base_radius - dz * dz).max(0.0);
                d_sq_scaled / (geo.coord_scale * geo.coord_scale)
            }
            Metric::InnerProduct => {
                let qx = projection[0] * geo.coord_scale;
                let qy = projection[1] * geo.coord_scale;
                let q_sq = qx * qx + qy * qy;
                let ip_scaled = 0.5 * (q_sq - geo.base_radius * geo.base_radius + dz * dz);
                ip_scaled / (geo.coord_scale * geo.coord_scale)
            }
        };
        Ok((subspace, entry, value))
    }

    /// Splits a primitive id into `(subspace, entry)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] for an id beyond the scene.
    pub(crate) fn decode_primitive(&self, primitive_id: u32) -> Result<(usize, usize)> {
        let subspace = primitive_id as usize / self.entries_per_subspace;
        let entry = primitive_id as usize % self.entries_per_subspace;
        if subspace >= self.geometry.len() {
            return Err(Error::IndexOutOfBounds {
                what: "primitive subspace".into(),
                index: subspace,
                len: self.geometry.len(),
            });
        }
        Ok((subspace, entry))
    }

    fn geo(&self, subspace: usize) -> Result<&SubspaceGeometry> {
        self.geometry
            .get(subspace)
            .ok_or_else(|| Error::IndexOutOfBounds {
                what: "subspace".into(),
                index: subspace,
                len: self.geometry.len(),
            })
    }
}

/// The `z` depth of subspace `s`'s entry plane (`2s + 1`).
fn layer_z(subspace: usize) -> f32 {
    2.0 * subspace as f32 + 1.0
}

/// The `z` depth subspace `s`'s query rays start from, one unit below its
/// entry plane.
fn origin_z(subspace: usize) -> f32 {
    layer_z(subspace) - 1.0
}

fn encode_primitive(subspace: usize, entry: usize, entries_per_subspace: usize) -> u32 {
    (subspace * entries_per_subspace + entry) as u32
}

fn check_codebook(cb: &Codebook, s: usize, entries_per_subspace: usize) -> Result<()> {
    if cb.sub_dim() != 2 {
        return Err(Error::invalid_config(format!(
            "subspace {s} has dimension {}, the RT mapping requires M = 2",
            cb.sub_dim()
        )));
    }
    if cb.num_entries() != entries_per_subspace {
        return Err(Error::invalid_config(format!(
            "subspace {s} has {} entries, expected {}",
            cb.num_entries(),
            entries_per_subspace
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::metric::{inner_product, l2_squared};
    use juno_common::vector::VectorSet;

    fn toy_codebooks() -> Vec<Codebook> {
        let entries0 = VectorSet::from_rows(vec![
            vec![0.0, 0.0],
            vec![2.0, 0.0],
            vec![0.0, 3.0],
            vec![-2.0, -1.0],
        ])
        .unwrap();
        let entries1 = VectorSet::from_rows(vec![
            vec![1.0, 1.0],
            vec![-1.0, 2.0],
            vec![4.0, -2.0],
            vec![0.5, 0.5],
        ])
        .unwrap();
        vec![
            Codebook::new(0, entries0).unwrap(),
            Codebook::new(1, entries1).unwrap(),
        ]
    }

    #[test]
    fn l2_hits_recover_exact_distances() {
        let cbs = toy_codebooks();
        let mapping = SceneMapping::build_l2(&cbs, &[5.0, 6.0]).unwrap();
        assert_eq!(mapping.num_subspaces(), 2);
        assert_eq!(mapping.entries_per_subspace, 4);

        #[allow(clippy::needless_range_loop)]
        for s in 0..2 {
            let q = [0.4f32, -0.2];
            // Full-radius threshold: everything within the max threshold hits.
            let t_max = mapping.t_max_for_threshold(s, 5.0).unwrap();
            let ray = mapping.ray_for(s, q, t_max).unwrap();
            let mut found = Vec::new();
            mapping.scene().trace(&ray, &mut |h| found.push(h));
            assert!(!found.is_empty());
            for hit in &found {
                let (hs, entry, value) = mapping.decode_hit(q, hit).unwrap();
                assert_eq!(hs, s, "hits must stay within the ray's subspace");
                let exact = l2_squared(&q, cbs[s].entry(entry).unwrap());
                assert!(
                    (value - exact).abs() < 1e-3 * exact.max(1.0),
                    "subspace {s} entry {entry}: decoded {value}, exact {exact}"
                );
            }
        }
    }

    #[test]
    fn smaller_threshold_selects_fewer_entries() {
        let cbs = toy_codebooks();
        let mapping = SceneMapping::build_l2(&cbs, &[5.0, 5.0]).unwrap();
        let q = [0.0f32, 0.0];
        let count_hits = |threshold: f32| {
            let t_max = mapping.t_max_for_threshold(0, threshold).unwrap();
            let ray = mapping.ray_for(0, q, t_max).unwrap();
            let mut n = 0usize;
            mapping.scene().trace(&ray, &mut |h| {
                if mapping.decode_primitive(h.primitive_id).unwrap().0 == 0 {
                    n += 1;
                }
            });
            n
        };
        let tight = count_hits(1.0);
        let loose = count_hits(4.0);
        assert!(
            tight < loose,
            "tight {tight} should select fewer than loose {loose}"
        );
        assert_eq!(tight, 1, "only the origin entry lies within distance 1");
    }

    #[test]
    fn threshold_semantics_match_hit_set() {
        // Entries strictly inside the threshold are hit, those outside are not.
        let cbs = toy_codebooks();
        let mapping = SceneMapping::build_l2(&cbs, &[6.0, 6.0]).unwrap();
        let q = [0.0f32, 0.0];
        let threshold = 2.5f32;
        let t_max = mapping.t_max_for_threshold(0, threshold).unwrap();
        let ray = mapping.ray_for(0, q, t_max).unwrap();
        let mut hit_entries = Vec::new();
        mapping.scene().trace(&ray, &mut |h| {
            let (s, e) = mapping.decode_primitive(h.primitive_id).unwrap();
            if s == 0 {
                hit_entries.push(e);
            }
        });
        hit_entries.sort_unstable();
        let expected: Vec<usize> = cbs[0]
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, entry)| l2_squared(&q, entry) < threshold * threshold)
            .map(|(e, _)| e)
            .collect();
        assert_eq!(hit_entries, expected);
    }

    #[test]
    fn mips_hits_recover_inner_products() {
        let cbs = toy_codebooks();
        // Query norm bound: generous bound on ‖q‖² per subspace.
        let mapping = SceneMapping::build_mips(&cbs, &[4.0, 4.0]).unwrap();
        assert_eq!(mapping.metric, Metric::InnerProduct);
        let q = [1.0f32, 0.5];
        let t_max = mapping.t_max_for_threshold(0, 1.0).unwrap();
        let ray = mapping.ray_for(0, q, t_max).unwrap();
        let mut found = Vec::new();
        mapping.scene().trace(&ray, &mut |h| found.push(h));
        assert!(
            !found.is_empty(),
            "at full scale some entries must be selected"
        );
        for hit in &found {
            let (s, entry, value) = mapping.decode_hit(q, hit).unwrap();
            assert_eq!(s, 0);
            let exact = inner_product(&q, cbs[0].entry(entry).unwrap());
            assert!(
                (value - exact).abs() < 1e-2 * exact.abs().max(1.0),
                "entry {entry}: decoded IP {value}, exact {exact}"
            );
        }
        // Hits are the large-IP entries: every hit entry has IP at least as
        // large as every missed entry... not guaranteed in general, but the
        // hit set must not contain the most negative-IP entry while missing
        // the most positive one.
        let ips: Vec<f32> = cbs[0]
            .entries()
            .iter()
            .map(|e| inner_product(&q, e))
            .collect();
        let best = ips
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let hit_ids: Vec<usize> = found
            .iter()
            .map(|h| mapping.decode_primitive(h.primitive_id).unwrap().1)
            .collect();
        assert!(
            hit_ids.contains(&best),
            "the best-IP entry must be selected"
        );
    }

    #[test]
    fn mips_scale_prunes_low_ip_entries() {
        let cbs = toy_codebooks();
        let mapping = SceneMapping::build_mips(&cbs, &[4.0, 4.0]).unwrap();
        let q = [1.0f32, 0.5];
        let count = |scale: f32| {
            let t_max = mapping.t_max_for_threshold(0, scale).unwrap();
            let ray = mapping.ray_for(0, q, t_max).unwrap();
            let mut n = 0;
            mapping.scene().trace(&ray, &mut |h| {
                if mapping.decode_primitive(h.primitive_id).unwrap().0 == 0 {
                    n += 1;
                }
            });
            n
        };
        assert!(count(0.3) <= count(1.0));
    }

    #[test]
    fn validation_of_inputs() {
        let cbs = toy_codebooks();
        assert!(SceneMapping::build_l2(&[], &[]).is_err());
        assert!(SceneMapping::build_l2(&cbs, &[1.0]).is_err());
        assert!(SceneMapping::build_mips(&cbs, &[1.0]).is_err());
        // Wrong subspace dimension.
        let bad =
            Codebook::new(0, VectorSet::from_rows(vec![vec![0.0, 0.0, 0.0]]).unwrap()).unwrap();
        assert!(SceneMapping::build_l2(&[bad], &[1.0]).is_err());
        let mapping = SceneMapping::build_l2(&cbs, &[5.0, 5.0]).unwrap();
        assert!(mapping.ray_for(7, [0.0, 0.0], 1.0).is_err());
        assert!(mapping.t_max_for_threshold(7, 1.0).is_err());
        assert!(mapping.decode_primitive(10_000).is_err());
    }
}
