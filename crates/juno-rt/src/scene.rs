//! Traversable scenes — the software analogue of an OptiX acceleration
//! structure plus launch.
//!
//! JUNO builds the scene **offline**: every codebook entry of subspace `s`
//! becomes a sphere at `(x_e, y_e, 2s + 1)` with a constant radius (paper
//! Section 5.2, Alg. 1 lines 10–13). Online, each query projection becomes a
//! `+z` ray from `z = 2s` with a per-ray `t_max` implementing the dynamic
//! threshold; any-hit callbacks receive the primitive id and `t_hit`.

use crate::bvh::Bvh;
use crate::ray::Ray;
use crate::sphere::Sphere;
use crate::stats::TraversalStats;

/// One reported intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// The `primitive_id` of the intersected sphere.
    pub primitive_id: u32,
    /// Ray travel time at the intersection.
    pub t_hit: f32,
}

/// Incrementally collects spheres and builds a [`Scene`].
#[derive(Debug, Clone, Default)]
pub struct SceneBuilder {
    spheres: Vec<Sphere>,
}

impl SceneBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sphere primitive.
    pub fn add_sphere(&mut self, sphere: Sphere) -> &mut Self {
        self.spheres.push(sphere);
        self
    }

    /// Adds a sphere per (x, y) coordinate at depth `z`, assigning primitive
    /// ids `base_id, base_id + 1, ...` — the codebook-entry placement helper.
    pub fn add_layer(
        &mut self,
        coords: &[[f32; 2]],
        z: f32,
        radius: f32,
        base_id: u32,
    ) -> &mut Self {
        for (i, &[x, y]) in coords.iter().enumerate() {
            self.add_sphere(Sphere::new([x, y, z], radius, base_id + i as u32));
        }
        self
    }

    /// Number of spheres added so far.
    pub fn len(&self) -> usize {
        self.spheres.len()
    }

    /// Returns `true` when no sphere has been added.
    pub fn is_empty(&self) -> bool {
        self.spheres.is_empty()
    }

    /// Builds the acceleration structure and returns the immutable scene.
    pub fn build(self) -> Scene {
        let bvh = Bvh::build(&self.spheres);
        Scene {
            spheres: self.spheres,
            bvh,
        }
    }
}

/// An immutable, traversable scene (spheres + BVH).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scene {
    spheres: Vec<Sphere>,
    bvh: Bvh,
}

impl Scene {
    /// Number of primitives in the scene.
    pub fn len(&self) -> usize {
        self.spheres.len()
    }

    /// Returns `true` when the scene holds no primitives.
    pub fn is_empty(&self) -> bool {
        self.spheres.is_empty()
    }

    /// Borrow of the primitives.
    pub fn spheres(&self) -> &[Sphere] {
        &self.spheres
    }

    /// Borrow of the acceleration structure.
    pub fn bvh(&self) -> &Bvh {
        &self.bvh
    }

    /// Traces one ray, invoking the any-hit callback for every intersection
    /// within the ray's `t_max`. Returns the work performed.
    pub fn trace<F>(&self, ray: &Ray, on_hit: &mut F) -> TraversalStats
    where
        F: FnMut(Hit),
    {
        let mut stats = TraversalStats::new();
        self.trace_with_stats(ray, &mut stats, on_hit);
        stats
    }

    /// Traces one ray, accumulating work into an existing counter set.
    pub fn trace_with_stats<F>(&self, ray: &Ray, stats: &mut TraversalStats, on_hit: &mut F)
    where
        F: FnMut(Hit),
    {
        self.bvh
            .trace(&self.spheres, ray, stats, &mut |prim_index, t_hit| {
                on_hit(Hit {
                    primitive_id: self.spheres[prim_index as usize].primitive_id,
                    t_hit,
                })
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_layer_scene() -> Scene {
        // Subspace 0 entries at z = 1, subspace 1 entries at z = 3 (paper's
        // z = 2s + 1 placement).
        let mut b = SceneBuilder::new();
        b.add_layer(&[[0.0, 0.0], [2.0, 0.0]], 1.0, 0.5, 0);
        b.add_layer(&[[0.0, 0.0], [2.0, 0.0]], 3.0, 0.5, 100);
        b.build()
    }

    #[test]
    fn builder_counts_and_builds() {
        let mut b = SceneBuilder::new();
        assert!(b.is_empty());
        b.add_sphere(Sphere::new([0.0, 0.0, 1.0], 0.5, 0));
        assert_eq!(b.len(), 1);
        let scene = b.build();
        assert_eq!(scene.len(), 1);
        assert!(!scene.is_empty());
        assert_eq!(scene.spheres()[0].primitive_id, 0);
    }

    #[test]
    fn rays_only_hit_their_own_layer() {
        let scene = two_layer_scene();
        // A ray from z = 0 with t_max = 2 (the paper restricts t_max ≤ 1 after
        // normalisation; here layer spacing is 2 so 2.0 stops before z = 3).
        let ray0 = Ray::axis_aligned_z([0.0, 0.0, 0.0], 2.0);
        let mut hits = Vec::new();
        scene.trace(&ray0, &mut |h| hits.push(h.primitive_id));
        assert_eq!(hits, vec![0]);
        // A ray launched from the second layer's origin plane (z = 2).
        let ray1 = Ray::axis_aligned_z([2.0, 0.0, 2.0], 2.0);
        hits.clear();
        scene.trace(&ray1, &mut |h| hits.push(h.primitive_id));
        assert_eq!(hits, vec![101]);
    }

    #[test]
    fn hit_time_is_returned() {
        let scene = two_layer_scene();
        let ray = Ray::axis_aligned_z([0.0, 0.0, 0.0], 2.0);
        let mut t = None;
        scene.trace(&ray, &mut |h| t = Some(h.t_hit));
        let t = t.unwrap();
        // Sphere at z = 1 with radius 0.5: entry point at t = 0.5.
        assert!((t - 0.5).abs() < 1e-6);
    }

    #[test]
    fn empty_scene_is_traceable() {
        let scene = SceneBuilder::new().build();
        let stats = scene.trace(&Ray::axis_aligned_z([0.0; 3], 1.0), &mut |_| {
            panic!("no hit expected")
        });
        assert_eq!(stats.hits, 0);
        assert!(scene.is_empty());
    }
}
