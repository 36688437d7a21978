//! Rays with `t_max` semantics.
//!
//! In the RT pipeline a ray travels one unit of space per unit of "time"
//! (along a unit-length direction). Two time values matter for JUNO (paper
//! Section 4.2, Fig. 9):
//!
//! * `t_hit` — when the ray first meets a primitive; reported by the
//!   intersection routine and used to recover the hit distance without
//!   touching global memory;
//! * `t_max` — the maximum time the ray may travel; JUNO shrinks it to turn
//!   the dynamic distance threshold into a per-ray parameter instead of
//!   rebuilding the scene with smaller spheres.

/// A ray with origin, (unit) direction and maximum travel time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Starting point of the ray.
    pub origin: [f32; 3],
    /// Direction of travel; normalised by [`Ray::new`].
    pub direction: [f32; 3],
    /// Maximum travel time; intersections beyond it are ignored.
    pub t_max: f32,
}

impl Ray {
    /// Creates a ray, normalising the direction so that travel time equals
    /// travelled distance.
    ///
    /// # Panics
    ///
    /// Panics if the direction is the zero vector or `t_max` is negative.
    pub fn new(origin: [f32; 3], direction: [f32; 3], t_max: f32) -> Self {
        let len = (direction[0] * direction[0]
            + direction[1] * direction[1]
            + direction[2] * direction[2])
            .sqrt();
        assert!(len > 0.0, "ray direction must be non-zero");
        assert!(t_max >= 0.0, "ray t_max must be non-negative");
        Self {
            origin,
            direction: [direction[0] / len, direction[1] / len, direction[2] / len],
            t_max,
        }
    }

    /// The canonical JUNO query ray: origin at the query projection, shooting
    /// towards `+z` (paper Fig. 8 places codebook entries at `z = 2s + 1` and
    /// ray origins at `z = 2s`).
    pub fn axis_aligned_z(origin: [f32; 3], t_max: f32) -> Self {
        Self::new(origin, [0.0, 0.0, 1.0], t_max)
    }

    /// Position of the ray after travelling for time `t`.
    pub fn at(&self, t: f32) -> [f32; 3] {
        [
            self.origin[0] + t * self.direction[0],
            self.origin[1] + t * self.direction[1],
            self.origin[2] + t * self.direction[2],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_is_normalised() {
        let r = Ray::new([0.0, 0.0, 0.0], [0.0, 3.0, 4.0], 1.0);
        let len = (r.direction[0].powi(2) + r.direction[1].powi(2) + r.direction[2].powi(2)).sqrt();
        assert!((len - 1.0).abs() < 1e-6);
        assert!((r.direction[1] - 0.6).abs() < 1e-6);
        assert!((r.direction[2] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn at_travels_unit_distance_per_unit_time() {
        let r = Ray::axis_aligned_z([1.0, 2.0, 0.0], 5.0);
        assert_eq!(r.at(0.0), [1.0, 2.0, 0.0]);
        assert_eq!(r.at(1.5), [1.0, 2.0, 1.5]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_direction_panics() {
        let _ = Ray::new([0.0; 3], [0.0; 3], 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_t_max_panics() {
        let _ = Ray::axis_aligned_z([0.0; 3], -1.0);
    }
}
