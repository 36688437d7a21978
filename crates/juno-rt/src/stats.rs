//! Traversal work counters.
//!
//! The simulator cannot measure RT-core cycles, so it counts the units of
//! work the hardware would perform — BVH node (AABB) tests, primitive
//! (sphere) tests and hit-shader invocations — and leaves the conversion to
//! time to [`crate::hardware::RtCoreModel`]. The same counters also feed the
//! paper's breakdown figures.

/// Work performed while tracing one or more rays through a scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraversalStats {
    /// Rays traced.
    pub rays: usize,
    /// Ray–AABB (BVH node) tests performed.
    pub aabb_tests: usize,
    /// Ray–primitive (sphere) intersection tests performed.
    pub primitive_tests: usize,
    /// Hits reported to the any-hit callback (hit-shader invocations).
    pub hits: usize,
}

impl TraversalStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &TraversalStats) {
        self.rays += other.rays;
        self.aabb_tests += other.aabb_tests;
        self.primitive_tests += other.primitive_tests;
        self.hits += other.hits;
    }
}

impl std::ops::Add for TraversalStats {
    type Output = TraversalStats;

    fn add(mut self, rhs: TraversalStats) -> TraversalStats {
        self.merge(&rhs);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_add_accumulate() {
        let a = TraversalStats {
            rays: 2,
            aabb_tests: 10,
            primitive_tests: 6,
            hits: 3,
        };
        let b = TraversalStats {
            rays: 1,
            aabb_tests: 5,
            primitive_tests: 4,
            hits: 1,
        };
        let c = a + b;
        assert_eq!(c.rays, 3);
        assert_eq!(c.aabb_tests, 15);
        assert_eq!(c.primitive_tests, 10);
        assert_eq!(c.hits, 4);
    }
}
