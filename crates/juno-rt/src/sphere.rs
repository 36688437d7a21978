//! Sphere primitives and the ray–sphere intersection returning `t_hit`.
//!
//! JUNO represents every codebook entry as a sphere centred at the entry's
//! 2-D coordinates (placed at `z = 2s + 1` for subspace `s`) with a constant
//! radius `R` (paper Section 5.2). Query projections become `+z` rays; the
//! reported `t_hit` lets the hit shader recover the exact entry–query distance
//! as `d = sqrt(R² − (1 − t_hit)²)` without reading the sphere coordinates
//! from global memory (Fig. 9, left).

use crate::aabb::Aabb;
use crate::ray::Ray;

/// A sphere primitive. `primitive_id` is opaque user data, used by JUNO to
/// encode `(subspace, entry)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sphere {
    /// Centre of the sphere.
    pub center: [f32; 3],
    /// Radius of the sphere (the distance threshold `R`).
    pub radius: f32,
    /// Opaque primitive identifier reported on hit.
    pub primitive_id: u32,
}

impl Sphere {
    /// Creates a sphere.
    ///
    /// # Panics
    ///
    /// Panics if the radius is not strictly positive.
    pub fn new(center: [f32; 3], radius: f32, primitive_id: u32) -> Self {
        assert!(radius > 0.0, "sphere radius must be positive");
        Self {
            center,
            radius,
            primitive_id,
        }
    }

    /// Bounding box of this sphere.
    pub fn aabb(&self) -> Aabb {
        Aabb::from_sphere(self.center, self.radius)
    }

    /// Ray–sphere intersection.
    ///
    /// Returns the smallest non-negative `t_hit ≤ ray.t_max` at which the ray
    /// enters (or, if it starts inside, exits) the sphere, or `None` when the
    /// ray misses the sphere within its travel budget.
    pub(crate) fn intersect(&self, ray: &Ray) -> Option<f32> {
        // Solve |o + t·d − c|² = r² for t with d normalised.
        let oc = [
            ray.origin[0] - self.center[0],
            ray.origin[1] - self.center[1],
            ray.origin[2] - self.center[2],
        ];
        let b = oc[0] * ray.direction[0] + oc[1] * ray.direction[1] + oc[2] * ray.direction[2];
        let c = oc[0] * oc[0] + oc[1] * oc[1] + oc[2] * oc[2] - self.radius * self.radius;
        let disc = b * b - c;
        if disc < 0.0 {
            return None;
        }
        let sqrt_disc = disc.sqrt();
        let t_near = -b - sqrt_disc;
        let t_far = -b + sqrt_disc;
        let t_hit = if t_near >= 0.0 {
            t_near
        } else if t_far >= 0.0 {
            t_far
        } else {
            return None;
        };
        if t_hit <= ray.t_max {
            Some(t_hit)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_straight_through_center() {
        let s = Sphere::new([0.0, 0.0, 1.0], 0.5, 7);
        let r = Ray::axis_aligned_z([0.0, 0.0, 0.0], 2.0);
        let t = s.intersect(&r).expect("must hit");
        assert!((t - 0.5).abs() < 1e-6);
    }

    #[test]
    fn miss_when_offset_beyond_radius() {
        let s = Sphere::new([0.0, 0.0, 1.0], 0.5, 7);
        let r = Ray::axis_aligned_z([0.8, 0.0, 0.0], 2.0);
        assert!(s.intersect(&r).is_none());
    }

    #[test]
    fn miss_when_t_max_too_small() {
        let s = Sphere::new([0.0, 0.0, 1.0], 0.5, 7);
        let r = Ray::axis_aligned_z([0.0, 0.0, 0.0], 0.4);
        assert!(s.intersect(&r).is_none());
        // With a just-large-enough t_max the same geometry hits.
        assert!(s
            .intersect(&Ray::axis_aligned_z([0.0, 0.0, 0.0], 0.51))
            .is_some());
    }

    #[test]
    fn ray_starting_inside_reports_exit() {
        let s = Sphere::new([0.0, 0.0, 0.0], 1.0, 1);
        let r = Ray::axis_aligned_z([0.0, 0.0, 0.0], 5.0);
        let t = s.intersect(&r).expect("exit hit");
        assert!((t - 1.0).abs() < 1e-6);
    }

    #[test]
    fn hit_time_recovers_planar_distance() {
        // JUNO geometry: entry at (x_e, y_e, 1), query ray from (x_q, y_q, 0).
        let entry = [0.3f32, -0.4, 1.0];
        let query = [0.0f32, 0.0, 0.0];
        let planar = ((entry[0] - query[0]).powi(2) + (entry[1] - query[1]).powi(2)).sqrt();
        let radius = 0.9f32;
        let s = Sphere::new(entry, radius, 0);
        let r = Ray::axis_aligned_z(query, 1.0);
        let t_hit = s.intersect(&r).expect("inside threshold, must hit");
        // d = sqrt(R² − (1 − t_hit)²) (paper Fig. 9, left).
        let recovered = (radius * radius - (1.0 - t_hit).powi(2)).max(0.0).sqrt();
        assert!(
            (recovered - planar).abs() < 1e-4,
            "recovered {recovered} vs true {planar}"
        );
    }

    #[test]
    fn contains_and_aabb() {
        let s = Sphere::new([1.0, 1.0, 1.0], 2.0, 3);
        let b = s.aabb();
        assert_eq!(b.min, [-1.0, -1.0, -1.0]);
        assert_eq!(b.max, [3.0, 3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_panics() {
        let _ = Sphere::new([0.0; 3], 0.0, 0);
    }
}
