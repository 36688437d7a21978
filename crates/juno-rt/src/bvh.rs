//! Bounding volume hierarchy (BVH) construction and traversal.
//!
//! The RT core accelerates ray tracing with a hardware BVH traversal whose
//! depth is logarithmic in the number of primitives (paper Section 2.2). This
//! module provides a software equivalent: a binary BVH built with a
//! median-split over the longest centroid axis, and an iterative traversal
//! that counts the work the hardware would perform.

use crate::aabb::Aabb;
use crate::ray::Ray;
use crate::sphere::Sphere;
use crate::stats::TraversalStats;

/// Maximum number of primitives stored in a leaf node.
const LEAF_SIZE: usize = 4;

/// Capacity of the traversal stack in [`Bvh::trace`].
const MAX_STACK: usize = 64;

/// One node of the flattened BVH.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NodeKind {
    /// Interior node with indices of its two children in the node array.
    Interior { left: u32, right: u32 },
    /// Leaf node holding a range `[start, start + count)` into the primitive
    /// order array.
    Leaf { start: u32, count: u32 },
}

/// A BVH node: bounds plus either children or a primitive range.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    bounds: Aabb,
    kind: NodeKind,
}

/// A bounding volume hierarchy over sphere primitives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Bvh {
    nodes: Vec<Node>,
    /// Primitive indices ordered so that each leaf owns a contiguous range.
    order: Vec<u32>,
}

impl Bvh {
    /// Builds a BVH over the given spheres. An empty input yields an empty
    /// hierarchy that reports no intersections.
    pub fn build(spheres: &[Sphere]) -> Self {
        if spheres.is_empty() {
            return Self::default();
        }
        let mut order: Vec<u32> = (0..spheres.len() as u32).collect();
        let mut nodes = Vec::with_capacity(2 * spheres.len());
        build_recursive(spheres, &mut order, 0, spheres.len(), &mut nodes);
        Self { nodes, order }
    }

    /// Number of nodes in the hierarchy.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the hierarchy contains no primitives.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Maximum leaf depth of the hierarchy (root = depth 1). Used in tests to
    /// check the log-scale shape the paper relies on.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], idx: usize) -> usize {
            match nodes[idx].kind {
                NodeKind::Leaf { .. } => 1,
                NodeKind::Interior { left, right } => {
                    1 + walk(nodes, left as usize).max(walk(nodes, right as usize))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    /// Traces a ray through the hierarchy, invoking `on_hit(primitive index,
    /// t_hit)` for every sphere intersected within `ray.t_max` (any-hit
    /// semantics — every intersection is reported, in traversal order).
    ///
    /// Work counters are accumulated into `stats`.
    pub fn trace<F>(
        &self,
        spheres: &[Sphere],
        ray: &Ray,
        stats: &mut TraversalStats,
        on_hit: &mut F,
    ) where
        F: FnMut(u32, f32),
    {
        stats.rays += 1;
        if self.nodes.is_empty() {
            return;
        }
        // Iterative traversal with an explicit stack, mirroring the hardware's
        // behaviour (and avoiding recursion-depth issues on large scenes).
        // The stack lives inline: a query traces hundreds of rays, and a
        // heap allocation per ray was a visible share of planning. It holds
        // at most one pending sibling per level plus the node in hand, and
        // the median split halves a range per level, so `u32` primitive
        // indices bound the depth at 32 — `MAX_STACK` is never reached (an
        // overflow would panic on the index, not corrupt the traversal).
        let mut stack = [0u32; MAX_STACK];
        let mut top = 1usize; // the root, node 0, is already on the stack
        while top > 0 {
            top -= 1;
            let node = &self.nodes[stack[top] as usize];
            stats.aabb_tests += 1;
            if !node.bounds.intersects_ray(ray) {
                continue;
            }
            match node.kind {
                NodeKind::Interior { left, right } => {
                    stack[top] = left;
                    stack[top + 1] = right;
                    top += 2;
                }
                NodeKind::Leaf { start, count } => {
                    for i in start..start + count {
                        let prim_idx = self.order[i as usize];
                        let sphere = &spheres[prim_idx as usize];
                        stats.primitive_tests += 1;
                        if let Some(t_hit) = sphere.intersect(ray) {
                            stats.hits += 1;
                            on_hit(prim_idx, t_hit);
                        }
                    }
                }
            }
        }
    }
}

/// Recursive builder over `order[start..end]`; returns the node index.
fn build_recursive(
    spheres: &[Sphere],
    order: &mut [u32],
    start: usize,
    end: usize,
    nodes: &mut Vec<Node>,
) -> u32 {
    let count = end - start;
    // Bounds of all primitives and of their centroids within the range.
    let mut bounds = Aabb::empty();
    let mut centroid_bounds = Aabb::empty();
    for &p in &order[start..end] {
        let b = spheres[p as usize].aabb();
        bounds.grow(&b);
        let c = b.centroid();
        centroid_bounds.grow(&Aabb::new(c, c));
    }

    let node_index = nodes.len() as u32;
    if count <= LEAF_SIZE {
        nodes.push(Node {
            bounds,
            kind: NodeKind::Leaf {
                start: start as u32,
                count: count as u32,
            },
        });
        return node_index;
    }

    // Median split on the longest centroid axis.
    let axis = centroid_bounds.longest_axis();
    let mid = start + count / 2;
    order[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
        let ca = spheres[a as usize].aabb().centroid()[axis];
        let cb = spheres[b as usize].aabb().centroid()[axis];
        ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
    });

    // Reserve the interior node slot before recursing so children land after it.
    nodes.push(Node {
        bounds,
        kind: NodeKind::Leaf { start: 0, count: 0 },
    });
    let left = build_recursive(spheres, order, start, mid, nodes);
    let right = build_recursive(spheres, order, mid, end, nodes);
    nodes[node_index as usize].kind = NodeKind::Interior { left, right };
    node_index
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_spheres(n_side: usize, radius: f32) -> Vec<Sphere> {
        let mut spheres = Vec::new();
        let mut id = 0u32;
        for i in 0..n_side {
            for j in 0..n_side {
                spheres.push(Sphere::new([i as f32, j as f32, 1.0], radius, id));
                id += 1;
            }
        }
        spheres
    }

    fn brute_force_hits(spheres: &[Sphere], ray: &Ray) -> Vec<(u32, f32)> {
        let mut hits: Vec<(u32, f32)> = spheres
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.intersect(ray).map(|t| (i as u32, t)))
            .collect();
        hits.sort_by_key(|&(i, _)| i);
        hits
    }

    #[test]
    fn empty_bvh_reports_nothing() {
        let bvh = Bvh::build(&[]);
        assert!(bvh.is_empty());
        assert_eq!(bvh.depth(), 0);
        let mut stats = TraversalStats::new();
        let mut hits = Vec::new();
        bvh.trace(
            &[],
            &Ray::axis_aligned_z([0.0; 3], 1.0),
            &mut stats,
            &mut |i, t| hits.push((i, t)),
        );
        assert!(hits.is_empty());
        assert_eq!(stats.rays, 1);
    }

    #[test]
    fn matches_brute_force_on_grid() {
        let spheres = grid_spheres(8, 0.45);
        let bvh = Bvh::build(&spheres);
        // Several rays with varying origins; hit sets must match brute force.
        for (ox, oy) in [(0.0f32, 0.0f32), (3.2, 3.9), (7.0, 0.1), (2.5, 2.5)] {
            let ray = Ray::axis_aligned_z([ox, oy, 0.0], 2.0);
            let mut stats = TraversalStats::new();
            let mut hits = Vec::new();
            bvh.trace(&spheres, &ray, &mut stats, &mut |i, t| hits.push((i, t)));
            hits.sort_by_key(|&(i, _)| i);
            let expected = brute_force_hits(&spheres, &ray);
            assert_eq!(
                hits.len(),
                expected.len(),
                "hit count mismatch at ({ox},{oy})"
            );
            for (got, want) in hits.iter().zip(expected.iter()) {
                assert_eq!(got.0, want.0);
                assert!((got.1 - want.1).abs() < 1e-6);
            }
        }
    }

    /// The traversal as it was before the stack moved inline: a heap
    /// `Vec`, push/pop. Kept as the reference the inline stack must match
    /// hit for hit and counter for counter.
    fn trace_reference(
        bvh: &Bvh,
        spheres: &[Sphere],
        ray: &Ray,
        stats: &mut TraversalStats,
    ) -> Vec<(u32, f32)> {
        let mut hits = Vec::new();
        stats.rays += 1;
        if bvh.nodes.is_empty() {
            return hits;
        }
        let mut stack: Vec<u32> = vec![0];
        while let Some(idx) = stack.pop() {
            let node = &bvh.nodes[idx as usize];
            stats.aabb_tests += 1;
            if !node.bounds.intersects_ray(ray) {
                continue;
            }
            match node.kind {
                NodeKind::Interior { left, right } => {
                    stack.push(left);
                    stack.push(right);
                }
                NodeKind::Leaf { start, count } => {
                    for i in start..start + count {
                        let prim_idx = bvh.order[i as usize];
                        stats.primitive_tests += 1;
                        if let Some(t_hit) = spheres[prim_idx as usize].intersect(ray) {
                            stats.hits += 1;
                            hits.push((prim_idx, t_hit));
                        }
                    }
                }
            }
        }
        hits
    }

    #[test]
    fn inline_stack_matches_the_heap_stack_reference_on_seeded_rays() {
        // Hits in the same order with the same `t_hit` bits, and the same
        // work counters — on a scene deep enough to exercise the stack, for
        // rays that hit a lot, a little and nothing.
        let spheres = grid_spheres(40, 0.6); // 1600 primitives, overlapping
        let bvh = Bvh::build(&spheres);
        assert!(bvh.depth() < MAX_STACK);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        let (mut got_stats, mut want_stats) = (TraversalStats::new(), TraversalStats::new());
        for _ in 0..500 {
            let origin = [next() * 44.0 - 2.0, next() * 44.0 - 2.0, 0.0];
            let ray = Ray::axis_aligned_z(origin, next() * 1.2);
            let mut got = Vec::new();
            bvh.trace(&spheres, &ray, &mut got_stats, &mut |i, t| got.push((i, t)));
            let want = trace_reference(&bvh, &spheres, &ray, &mut want_stats);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.0, g.1.to_bits()), (w.0, w.1.to_bits()));
            }
        }
        assert_eq!(got_stats, want_stats);
        assert!(got_stats.hits > 0 && got_stats.hits < got_stats.primitive_tests);
    }

    #[test]
    fn traversal_prunes_work() {
        let spheres = grid_spheres(16, 0.3);
        let bvh = Bvh::build(&spheres);
        let ray = Ray::axis_aligned_z([4.0, 4.0, 0.0], 2.0);
        let mut stats = TraversalStats::new();
        bvh.trace(&spheres, &ray, &mut stats, &mut |_, _| {});
        // A well-formed BVH should test far fewer primitives than exist.
        assert!(
            stats.primitive_tests < spheres.len() / 4,
            "tested {} of {} primitives",
            stats.primitive_tests,
            spheres.len()
        );
    }

    #[test]
    fn depth_is_logarithmic() {
        let spheres = grid_spheres(32, 0.3); // 1024 primitives
        let bvh = Bvh::build(&spheres);
        let depth = bvh.depth();
        // ceil(log2(1024 / LEAF_SIZE)) + 1 = 9; allow slack for uneven splits.
        assert!(depth <= 14, "depth {depth} too large for 1024 primitives");
        assert!(depth >= 8, "depth {depth} suspiciously small");
        assert!(bvh.node_count() >= 1024 / LEAF_SIZE);
    }

    #[test]
    fn respects_ray_t_max() {
        let spheres = grid_spheres(4, 0.4);
        let bvh = Bvh::build(&spheres);
        // Spheres live at z = 1 with radius 0.4: entry points are at t = 0.6.
        let mut hits = Vec::new();
        let mut stats = TraversalStats::new();
        bvh.trace(
            &spheres,
            &Ray::axis_aligned_z([1.0, 1.0, 0.0], 0.5),
            &mut stats,
            &mut |i, _| hits.push(i),
        );
        assert!(
            hits.is_empty(),
            "t_max = 0.5 must not reach spheres at z = 1"
        );
        bvh.trace(
            &spheres,
            &Ray::axis_aligned_z([1.0, 1.0, 0.0], 0.7),
            &mut stats,
            &mut |i, _| hits.push(i),
        );
        assert_eq!(hits, vec![5]);
    }

    #[test]
    fn root_bounds_cover_all_primitives() {
        let spheres = grid_spheres(5, 0.5);
        let bvh = Bvh::build(&spheres);
        let root = bvh.nodes[0].bounds;
        for s in &spheres {
            assert!((0..3).all(|a| root.min[a] <= s.center[a] && s.center[a] <= root.max[a]));
        }
    }
}
