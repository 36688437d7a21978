//! Axis-aligned bounding boxes (AABBs) and the slab intersection test.
//!
//! The RT core's first hardware unit performs interval-based ray/AABB tests
//! (paper Section 2.2). This module implements the same test in software; the
//! number of tests performed is counted by [`crate::stats::TraversalStats`]
//! and converted to time by [`crate::hardware::RtCoreModel`].

use crate::ray::Ray;

/// An axis-aligned bounding box in 3-D.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: [f32; 3],
    /// Maximum corner.
    pub max: [f32; 3],
}

impl Default for Aabb {
    fn default() -> Self {
        Self::empty()
    }
}

impl Aabb {
    /// An empty (inverted) box that behaves as the identity of [`Aabb::union`].
    pub(crate) fn empty() -> Self {
        Self {
            min: [f32::INFINITY; 3],
            max: [f32::NEG_INFINITY; 3],
        }
    }

    /// Creates a box from explicit corners.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any `min` component exceeds the matching
    /// `max` component.
    pub fn new(min: [f32; 3], max: [f32; 3]) -> Self {
        debug_assert!(
            min.iter().zip(max.iter()).all(|(a, b)| a <= b),
            "Aabb min must not exceed max"
        );
        Self { min, max }
    }

    /// The bounding box of a sphere.
    pub(crate) fn from_sphere(center: [f32; 3], radius: f32) -> Self {
        Self {
            min: [center[0] - radius, center[1] - radius, center[2] - radius],
            max: [center[0] + radius, center[1] + radius, center[2] + radius],
        }
    }

    /// Returns `true` for a box that has never been grown.
    pub fn is_empty(&self) -> bool {
        self.min[0] > self.max[0]
    }

    /// The smallest box containing both operands.
    pub(crate) fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: [
                self.min[0].min(other.min[0]),
                self.min[1].min(other.min[1]),
                self.min[2].min(other.min[2]),
            ],
            max: [
                self.max[0].max(other.max[0]),
                self.max[1].max(other.max[1]),
                self.max[2].max(other.max[2]),
            ],
        }
    }

    /// Grows this box in place to contain `other`.
    pub(crate) fn grow(&mut self, other: &Aabb) {
        *self = self.union(other);
    }

    /// Centre of the box (used by the median-split BVH builder).
    pub fn centroid(&self) -> [f32; 3] {
        [
            0.5 * (self.min[0] + self.max[0]),
            0.5 * (self.min[1] + self.max[1]),
            0.5 * (self.min[2] + self.max[2]),
        ]
    }

    /// Index (0..3) of the widest axis.
    pub(crate) fn longest_axis(&self) -> usize {
        let d = [
            self.max[0] - self.min[0],
            self.max[1] - self.min[1],
            self.max[2] - self.min[2],
        ];
        if d[0] >= d[1] && d[0] >= d[2] {
            0
        } else if d[1] >= d[2] {
            1
        } else {
            2
        }
    }

    /// The slab test: returns `true` if the ray intersects the box within
    /// `[0, ray.t_max]`. This is the cheap interval calculation performed by
    /// the RT core for every BVH node visit.
    pub(crate) fn intersects_ray(&self, ray: &Ray) -> bool {
        let mut t_enter = 0.0f32;
        let mut t_exit = ray.t_max;
        for axis in 0..3 {
            let origin = ray.origin[axis];
            let dir = ray.direction[axis];
            if dir.abs() < 1e-12 {
                // Ray parallel to the slab: must already be inside it.
                if origin < self.min[axis] || origin > self.max[axis] {
                    return false;
                }
            } else {
                let inv = 1.0 / dir;
                let mut t0 = (self.min[axis] - origin) * inv;
                let mut t1 = (self.max[axis] - origin) * inv;
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                t_enter = t_enter.max(t0);
                t_exit = t_exit.min(t1);
                if t_enter > t_exit {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_grow() {
        let a = Aabb::new([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]);
        let b = Aabb::new([-1.0, 0.5, 0.0], [0.5, 2.0, 3.0]);
        let u = a.union(&b);
        assert_eq!(u.min, [-1.0, 0.0, 0.0]);
        assert_eq!(u.max, [1.0, 2.0, 3.0]);
        let mut g = Aabb::empty();
        g.grow(&a);
        g.grow(&b);
        assert_eq!(g, u);
        assert!(Aabb::empty().is_empty());
        assert!(!u.is_empty());
    }

    #[test]
    fn sphere_bounds_and_centroid() {
        let b = Aabb::from_sphere([1.0, 2.0, 3.0], 0.5);
        assert_eq!(b.min, [0.5, 1.5, 2.5]);
        assert_eq!(b.max, [1.5, 2.5, 3.5]);
        assert_eq!(b.centroid(), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn surface_area_and_longest_axis() {
        let b = Aabb::new([0.0, 0.0, 0.0], [2.0, 1.0, 4.0]);
        assert_eq!(b.longest_axis(), 2);
    }

    #[test]
    fn slab_test_hits_and_misses() {
        let b = Aabb::new([-1.0, -1.0, 0.5], [1.0, 1.0, 1.5]);
        // Straight +z ray through the box.
        let hit = Ray::axis_aligned_z([0.0, 0.0, 0.0], 2.0);
        assert!(b.intersects_ray(&hit));
        // Ray that stops before reaching the box.
        let short = Ray::axis_aligned_z([0.0, 0.0, 0.0], 0.25);
        assert!(!b.intersects_ray(&short));
        // Ray offset laterally outside the box, parallel to z.
        let offset = Ray::axis_aligned_z([5.0, 0.0, 0.0], 2.0);
        assert!(!b.intersects_ray(&offset));
        // Diagonal ray entering through a corner region.
        let diag = Ray::new([-2.0, -2.0, 0.0], [1.0, 1.0, 0.5], 10.0);
        assert!(b.intersects_ray(&diag));
    }

    #[test]
    fn slab_test_ray_starting_inside() {
        let b = Aabb::new([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]);
        let r = Ray::axis_aligned_z([0.0, 0.0, 0.0], 0.1);
        assert!(b.intersects_ray(&r));
    }
}
