//! Flattened traversal tables for JUNO's canonical ray family.
//!
//! These tables do not serve queries: the engine evaluates the rays' hit
//! predicate in closed form (`juno_core::mapping::SceneMapping::select_table`).
//! They are how the simulator gets the box and primitive counters of the
//! RT launch a query stands for (`AnnIndex::simulate` of a JUNO index), and
//! the traced side of the oracle the closed form's hit sets are tested
//! against — fast enough to trace every figure's queries.
//!
//! Every ray JUNO traces for subspace `s` starts in the plane `z = 2s`,
//! points along `+z` and travels at most one unit (paper Fig. 8/9). For that
//! family the tree walk of [`Bvh::trace`] decides very little: which nodes a
//! ray *can* meet is fixed by the origin depth alone, and only the `(x, y)`
//! origin and `t_max` decide which of them it does meet. A [`ZRayTable`]
//! collects, once per scene and origin depth, every node such a ray can
//! reach and every primitive of the reachable leaves, and stores them in
//! structure-of-arrays columns padded to [`LANES`]. [`ZRayTable::trace`] then
//! evaluates them eight lanes at a time, branch-free, in two passes:
//!
//! 1. the **node pass** runs the slab test of every reachable node, sums the
//!    work counters of the passing ones and records one pass bit per node;
//! 2. the **primitive pass** runs only the sphere test per lane and packs
//!    the lanes that pass it, without a branch, into a small buffer; each
//!    is reported, in lane order, when the pass bit of the leaf holding it
//!    is set.
//!
//! The algorithm has two arms: explicit AVX2 (one register of eight lanes,
//! one `movemask` per eight outcomes) and a portable one, chosen at runtime
//! by `juno_common::kernel`'s probe, so `JUNO_FORCE_SCALAR_KERNEL=1` selects
//! the portable arm here as it does for the scan kernels.
//!
//! # Exactness
//!
//! The table reproduces [`Bvh::trace`] on [`Ray::axis_aligned_z`] exactly,
//! in both arms: the same four counters and the same set of
//! `(primitive, t_hit)` pairs, `t_hit` bit for bit. Hit *order* differs (the
//! table reports primitives in ascending scene order, the tree in traversal
//! order).
//!
//! * Each node lane performs the comparisons of [`Aabb::intersects_ray`] in
//!   the same order on the same values; the only precomputed terms are those
//!   that depend on the origin depth alone (the `z` slab interval). `minps`
//!   is `a < b ? a : b`, the form `t_exit` is written in.
//! * Each primitive lane performs the arithmetic of [`Sphere::intersect`] in
//!   the same order on the same values. `oc_z = o_z − c_z`, its square and
//!   `r²` depend on the origin depth alone and are columns; `oc_z²` is the
//!   very product the sum `oc_x² + oc_y² + oc_z²` adds third, so the column
//!   rounds as the in-loop product did. `b = oc_x·0 + oc_y·0 + oc_z` stays
//!   in the loop although it is `oc_z` for a finite origin: for a NaN or
//!   infinite origin the zero products are NaN, which makes the lane miss as
//!   the tree's sphere test does, and they carry the sign of a zero `oc_z`
//!   into `t_hit`. Rust never contracts `a * b + c` into a fused
//!   multiply-add and the AVX2 arm issues separate multiplies and adds, so
//!   both arms round identically.
//! * The tree tests a primitive only when its leaf's box passes. The table
//!   confirms a hitting lane by its leaf's bit from the node pass instead of
//!   re-testing the box per lane: that bit is the slab test of the leaf's
//!   own `ZBox` with the same ray, so it is the per-lane box test, computed
//!   once per leaf. (A ray can satisfy a sphere's equation one ulp outside
//!   the sphere's box — the box is rounded where the sphere sits, the
//!   intersection where the ray starts — so the bit matters.)
//! * The tree tests a node only after all its ancestors passed; the table
//!   tests every lane unconditionally. The two agree because a BVH node's
//!   box is the `min`/`max` union of its children's boxes, so boxes nest
//!   *exactly* in `f32`, and every term of the slab test is monotone in the
//!   box: a ray that passes a node's box passes every ancestor's. "This
//!   node passes" therefore already means "the tree reaches this node and it
//!   passes". The counters follow: `aabb_tests` is one test for the root
//!   plus two child tests per passing interior node, `primitive_tests` is
//!   the primitive count of every passing leaf.
//!
//! [`Bvh::trace`] remains the general traversal — arbitrary rays, scenes
//! where the hierarchy does prune — and the reference this table is tested
//! against.
//!
//! [`Bvh::trace`]: crate::bvh::Bvh::trace
//! [`Ray::axis_aligned_z`]: crate::ray::Ray::axis_aligned_z
//! [`Aabb::intersects_ray`]: crate::aabb::Aabb::intersects_ray
//! [`Sphere::intersect`]: crate::sphere::Sphere::intersect

use crate::aabb::Aabb;
use crate::bvh::{Bvh, NodeKind};
use crate::scene::Hit;
use crate::sphere::Sphere;
use crate::stats::TraversalStats;

/// Lanes the columns are padded to: one AVX2 register of `f32`, two
/// SSE2/NEON registers.
pub const LANES: usize = 8;

/// Node-pass words kept on the stack: tables of up to `64 ×` this many
/// reachable nodes (JUNO's hold about a hundred) trace without touching the
/// heap.
const STACK_PASS_WORDS: usize = 16;

/// Flagged lanes buffered before their leaf bits are read: the lane loop
/// appends without a branch and the buffer drains once it may not hold
/// another group, which a JUNO ray (about fifteen hits) never fills.
const FLAGGED: usize = 8 * LANES;

/// `LEFT_PACK[m]`: the lanes set in the 8-bit mask `m`, ascending, then
/// zeros — the `vpermps` order that packs a group's flagged lanes to the
/// front of a register.
#[cfg(target_arch = "x86_64")]
const LEFT_PACK: [[u8; LANES]; 256] = {
    let mut table = [[0u8; LANES]; 256];
    let mut mask = 0;
    while mask < 256 {
        let (mut lane, mut packed) = (0, 0);
        while lane < LANES {
            if mask >> lane & 1 == 1 {
                table[mask][packed] = lane as u8;
                packed += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
};

/// A box as the canonical ray family sees it: the `x`/`y` slabs, which the
/// ray is parallel to (so the test is "origin inside"), and the `z` slab
/// reduced to the travel-time interval it spans from the table's origin
/// depth.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ZBox {
    min_x: f32,
    max_x: f32,
    min_y: f32,
    max_y: f32,
    /// `max(0, t0)`: when a ray from the origin depth enters the `z` slab.
    t_enter: f32,
    /// `t1`: when it leaves the slab (capped by the ray's `t_max` per ray).
    t_leave: f32,
}

impl ZBox {
    /// A box no ray passes, whatever its origin (NaN included): padding.
    const NEVER: ZBox = ZBox {
        min_x: f32::INFINITY,
        max_x: f32::NEG_INFINITY,
        min_y: f32::INFINITY,
        max_y: f32::NEG_INFINITY,
        t_enter: f32::INFINITY,
        t_leave: f32::NEG_INFINITY,
    };

    /// The `z` axis of [`Aabb::intersects_ray`] for direction `(0, 0, 1)`,
    /// up to the point where the ray's own `t_max` enters (the test scales
    /// by `1 / direction = 1`, which is exact and omitted).
    fn new(bounds: &Aabb, origin_z: f32) -> Self {
        let mut t0 = bounds.min[2] - origin_z;
        let mut t1 = bounds.max[2] - origin_z;
        if t0 > t1 {
            std::mem::swap(&mut t0, &mut t1);
        }
        Self {
            min_x: bounds.min[0],
            max_x: bounds.max[0],
            min_y: bounds.min[1],
            max_y: bounds.max[1],
            t_enter: 0.0f32.max(t0),
            t_leave: t1,
        }
    }

    /// Whether any ray of the family (`t_max ≤ 1`) can pass the `z` slab.
    /// The slab test is monotone in `t_max`, so `t_max = 1` decides it.
    fn reachable(&self) -> bool {
        let fails = self.t_enter > 1.0f32.min(self.t_leave);
        !fails
    }
}

/// One primitive of a reachable leaf, before the table is transposed into
/// columns.
#[derive(Clone, Copy)]
struct PrimitiveLane {
    /// Index of the leaf holding the primitive among the table's nodes.
    leaf: u32,
    center_x: f32,
    center_y: f32,
    /// `origin_z − center_z`.
    oc_z: f32,
    radius_sq: f32,
    primitive_id: u32,
}

impl PrimitiveLane {
    /// Padding: misses its sphere whatever the origin (`c ≥ 1` with a
    /// negative radius², so `disc < 0`; NaN for a non-finite origin).
    const NEVER: PrimitiveLane = PrimitiveLane {
        leaf: 0,
        center_x: 0.0,
        center_y: 0.0,
        oc_z: 0.0,
        radius_sq: -1.0,
        primitive_id: u32::MAX,
    };
}

/// The reachable nodes' boxes in structure-of-arrays form: six equally long
/// columns.
#[derive(Debug, Clone, PartialEq, Default)]
struct BoxColumns {
    min_x: Vec<f32>,
    max_x: Vec<f32>,
    min_y: Vec<f32>,
    max_y: Vec<f32>,
    t_enter: Vec<f32>,
    t_leave: Vec<f32>,
}

impl BoxColumns {
    fn collect<'a>(boxes: impl Iterator<Item = &'a ZBox> + Clone) -> Self {
        Self {
            min_x: boxes.clone().map(|b| b.min_x).collect(),
            max_x: boxes.clone().map(|b| b.max_x).collect(),
            min_y: boxes.clone().map(|b| b.min_y).collect(),
            max_y: boxes.clone().map(|b| b.max_y).collect(),
            t_enter: boxes.clone().map(|b| b.t_enter).collect(),
            t_leave: boxes.map(|b| b.t_leave).collect(),
        }
    }

    /// [`Aabb::intersects_ray`] for boxes `at..at + LANES`, 1 for a pass:
    /// the two parallel-axis tests as written there (so a NaN origin passes
    /// them, as it does there), and `t_enter > t_exit` with
    /// `t_exit = min(t_max, t1)`.
    #[inline(always)]
    fn pass_group(&self, at: usize, ox: f32, oy: f32, t_max: f32) -> [u32; LANES] {
        let group = at..at + LANES;
        let (min_x, max_x) = (&self.min_x[group.clone()], &self.max_x[group.clone()]);
        let (min_y, max_y) = (&self.min_y[group.clone()], &self.max_y[group.clone()]);
        let (t_enter, t_leave) = (&self.t_enter[group.clone()], &self.t_leave[group]);
        let mut pass = [0u32; LANES];
        for (l, pass) in pass.iter_mut().enumerate() {
            // `t_max.min(t1)` for a non-NaN `t_max`, in the form `minps` has.
            let t_exit = if t_leave[l] < t_max {
                t_leave[l]
            } else {
                t_max
            };
            let fails = (ox < min_x[l])
                | (ox > max_x[l])
                | (oy < min_y[l])
                | (oy > max_y[l])
                | (t_enter[l] > t_exit);
            *pass = !fails as u32;
        }
        pass
    }
}

/// The pass bits of one ray's node pass, bit `i % 64` of word `i / 64` for
/// node `i`: on the stack unless the table is unusually large.
enum PassBits {
    Stack([u64; STACK_PASS_WORDS]),
    Heap(Vec<u64>),
}

impl PassBits {
    fn new(nodes: usize) -> Self {
        let words = nodes.div_ceil(64);
        if words <= STACK_PASS_WORDS {
            PassBits::Stack([0; STACK_PASS_WORDS])
        } else {
            PassBits::Heap(vec![0; words])
        }
    }

    fn words(&mut self) -> &mut [u64] {
        match self {
            PassBits::Stack(words) => words,
            PassBits::Heap(words) => words,
        }
    }
}

/// Primitive lanes whose sphere test passed, with their `t_hit`, waiting
/// for [`ZRayTable::confirm`].
struct Flagged {
    lane: [u32; FLAGGED],
    t_hit: [f32; FLAGGED],
    len: usize,
}

impl Flagged {
    fn new() -> Self {
        Self {
            lane: [0; FLAGGED],
            t_hit: [0.0; FLAGGED],
            len: 0,
        }
    }

    /// Whether the next group might not fit.
    #[inline(always)]
    fn full(&self) -> bool {
        self.len > FLAGGED - LANES
    }
}

/// The flattened traversal of one scene for `+z` rays from one origin depth
/// with `t_max ≤ 1`; see the [module documentation](self). Built by
/// [`Scene::z_ray_table`](crate::scene::Scene::z_ray_table).
///
/// Both halves are structure-of-arrays, padded to a multiple of [`LANES`]
/// with lanes that never pass, so the lane loops run whole vectors only.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ZRayTable {
    /// Reachable BVH nodes.
    nodes: BoxColumns,
    /// Box tests a passing node causes: 2 (its children) for an interior
    /// node, 0 for a leaf.
    node_aabb_tests: Vec<u32>,
    /// Primitive tests a passing node causes: a leaf's primitive count.
    node_primitive_tests: Vec<u32>,
    /// Per primitive of a reachable leaf, the index of that leaf in `nodes`:
    /// the tree tests a primitive only when its leaf passes.
    leaf: Vec<u32>,
    /// The rest of [`PrimitiveLane`], column by column.
    center_x: Vec<f32>,
    center_y: Vec<f32>,
    oc_z: Vec<f32>,
    /// `oc_z * oc_z`.
    oc_z_sq: Vec<f32>,
    radius_sq: Vec<f32>,
    primitive_id: Vec<u32>,
    node_count: usize,
    primitive_count: usize,
    /// Whether the scene has a root to test (it is tested, and counted, even
    /// when no ray of the family can pass it).
    has_root: bool,
}

impl ZRayTable {
    pub(crate) fn build(bvh: &Bvh, spheres: &[Sphere], origin_z: f32) -> Self {
        // (box, box tests caused, primitive tests caused) per reachable node.
        let mut nodes: Vec<(ZBox, u32, u32)> = Vec::new();
        let mut primitives: Vec<PrimitiveLane> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        if !bvh.is_empty() {
            stack.push(0);
        }
        while let Some(index) = stack.pop() {
            let node = &bvh.nodes[index as usize];
            let zbox = ZBox::new(&node.bounds, origin_z);
            // Boxes nest, so nothing below an unreachable node is reachable.
            if !zbox.reachable() {
                continue;
            }
            match node.kind {
                NodeKind::Interior { left, right } => {
                    nodes.push((zbox, 2, 0));
                    stack.push(left);
                    stack.push(right);
                }
                NodeKind::Leaf { start, count } => {
                    let leaf = nodes.len() as u32;
                    nodes.push((zbox, 0, count));
                    for &p in &bvh.order[start as usize..(start + count) as usize] {
                        let sphere = &spheres[p as usize];
                        primitives.push(PrimitiveLane {
                            leaf,
                            center_x: sphere.center[0],
                            center_y: sphere.center[1],
                            oc_z: origin_z - sphere.center[2],
                            radius_sq: sphere.radius * sphere.radius,
                            primitive_id: sphere.primitive_id,
                        });
                    }
                }
            }
        }
        // Hits are reported in table order: ascending primitive id lets a
        // caller that wants them sorted find them sorted.
        primitives.sort_by_key(|p| p.primitive_id);

        let (node_count, primitive_count) = (nodes.len(), primitives.len());
        nodes.resize(node_count.next_multiple_of(LANES), (ZBox::NEVER, 0, 0));
        primitives.resize(
            primitive_count.next_multiple_of(LANES),
            PrimitiveLane::NEVER,
        );
        Self {
            nodes: BoxColumns::collect(nodes.iter().map(|n| &n.0)),
            node_aabb_tests: nodes.iter().map(|n| n.1).collect(),
            node_primitive_tests: nodes.iter().map(|n| n.2).collect(),
            leaf: primitives.iter().map(|p| p.leaf).collect(),
            center_x: primitives.iter().map(|p| p.center_x).collect(),
            center_y: primitives.iter().map(|p| p.center_y).collect(),
            oc_z: primitives.iter().map(|p| p.oc_z).collect(),
            oc_z_sq: primitives.iter().map(|p| p.oc_z * p.oc_z).collect(),
            radius_sq: primitives.iter().map(|p| p.radius_sq).collect(),
            primitive_id: primitives.iter().map(|p| p.primitive_id).collect(),
            node_count,
            primitive_count,
            has_root: !bvh.is_empty(),
        }
    }

    /// BVH nodes a ray of the family can reach.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Primitives in the reachable leaves.
    pub fn primitive_count(&self) -> usize {
        self.primitive_count
    }

    /// Traces the ray `Ray::axis_aligned_z([ox, oy, origin_z], t_max)`,
    /// where `origin_z` is the depth the table was built for: invokes
    /// `on_hit` for every sphere intersected within `t_max` and accumulates
    /// the work [`Bvh::trace`](crate::bvh::Bvh::trace) would have performed
    /// into `stats`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ t_max ≤ 1`: the table holds only what such a ray
    /// can reach.
    pub fn trace<F>(&self, ox: f32, oy: f32, t_max: f32, stats: &mut TraversalStats, on_hit: F)
    where
        F: FnMut(Hit),
    {
        assert!(
            (0.0..=1.0).contains(&t_max),
            "z-ray table traces t_max in [0, 1], got {t_max}"
        );
        #[cfg(target_arch = "x86_64")]
        if juno_common::kernel::use_avx2() {
            // SAFETY: the probe is true only when the CPU reports AVX2.
            unsafe { self.trace_avx2(ox, oy, t_max, stats, on_hit) };
            return;
        }
        self.trace_portable(ox, oy, t_max, stats, on_hit);
    }

    /// Reports every flagged lane whose leaf passed the node pass, in lane
    /// order, and empties the buffer.
    #[inline(always)]
    fn confirm<F>(
        &self,
        flagged: &mut Flagged,
        passed: &[u64],
        stats: &mut TraversalStats,
        on_hit: &mut F,
    ) where
        F: FnMut(Hit),
    {
        for (&i, &t_hit) in flagged.lane.iter().zip(&flagged.t_hit).take(flagged.len) {
            let leaf = self.leaf[i as usize] as usize;
            if passed[leaf / 64] >> (leaf % 64) & 1 != 0 {
                stats.hits += 1;
                on_hit(Hit {
                    primitive_id: self.primitive_id[i as usize],
                    t_hit,
                });
            }
        }
        flagged.len = 0;
    }

    /// The portable arm: the two passes as plain per-lane code.
    fn trace_portable<F>(
        &self,
        ox: f32,
        oy: f32,
        t_max: f32,
        stats: &mut TraversalStats,
        mut on_hit: F,
    ) where
        F: FnMut(Hit),
    {
        stats.rays += 1;
        if !self.has_root {
            return;
        }

        let n = self.node_aabb_tests.len();
        let mut passed = PassBits::new(n);
        let passed = passed.words();
        let (mut aabb_tests, mut primitive_tests) = (0u32, 0u32);
        for at in (0..n).step_by(LANES) {
            let pass = self.nodes.pass_group(at, ox, oy, t_max);
            let group = at..at + LANES;
            let counters = self.node_aabb_tests[group.clone()]
                .iter()
                .zip(&self.node_primitive_tests[group]);
            let mut bits = 0u64;
            for (l, (&pass, (&aabb, &prims))) in pass.iter().zip(counters).enumerate() {
                bits |= (pass as u64) << l;
                aabb_tests += pass.wrapping_neg() & aabb;
                primitive_tests += pass.wrapping_neg() & prims;
            }
            passed[at / 64] |= bits << (at % 64);
        }
        stats.aabb_tests += 1 + aabb_tests as usize;
        stats.primitive_tests += primitive_tests as usize;

        let mut flagged = Flagged::new();
        let (mut t_hits, mut hits) = ([0.0f32; LANES], [0u32; LANES]);
        for at in (0..self.primitive_id.len()).step_by(LANES) {
            let group = at..at + LANES;
            let (center_x, center_y) =
                (&self.center_x[group.clone()], &self.center_y[group.clone()]);
            let (oc_z, oc_z_sq) = (&self.oc_z[group.clone()], &self.oc_z_sq[group.clone()]);
            let radius_sq = &self.radius_sq[group];
            for l in 0..LANES {
                // `Sphere::intersect` for direction (0, 0, 1); the zero
                // products stay (they carry NaN and the sign of zero), the
                // exact `* 1.0` does not.
                let oc = [ox - center_x[l], oy - center_y[l], oc_z[l]];
                let b = oc[0] * 0.0 + oc[1] * 0.0 + oc[2];
                let c = oc[0] * oc[0] + oc[1] * oc[1] + oc_z_sq[l] - radius_sq[l];
                let disc = b * b - c;
                let sqrt_disc = disc.sqrt();
                let t_near = -b - sqrt_disc;
                let t_far = -b + sqrt_disc;
                let t_hit = if t_near >= 0.0 { t_near } else { t_far };
                let no_root = disc < 0.0;
                let ahead = (t_near >= 0.0) | (t_far >= 0.0);
                t_hits[l] = t_hit;
                hits[l] = (!no_root & ahead & (t_hit <= t_max)) as u32;
            }
            // Every lane appended, the flagged ones kept.
            for (l, (&t_hit, &hit)) in t_hits.iter().zip(&hits).enumerate() {
                flagged.lane[flagged.len] = (at + l) as u32;
                flagged.t_hit[flagged.len] = t_hit;
                flagged.len += hit as usize;
            }
            if flagged.full() {
                self.confirm(&mut flagged, passed, stats, &mut on_hit);
            }
        }
        self.confirm(&mut flagged, passed, stats, &mut on_hit);
    }

    /// The AVX2 arm: the portable arm's arithmetic and comparisons, eight
    /// lanes to an instruction.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn trace_avx2<F>(
        &self,
        ox: f32,
        oy: f32,
        t_max: f32,
        stats: &mut TraversalStats,
        mut on_hit: F,
    ) where
        F: FnMut(Hit),
    {
        use std::arch::x86_64::*;
        stats.rays += 1;
        if !self.has_root {
            return;
        }
        let (ox8, oy8, t_max8) = (
            _mm256_set1_ps(ox),
            _mm256_set1_ps(oy),
            _mm256_set1_ps(t_max),
        );

        // `build` pads every column of a half to the same multiple of LANES;
        // slicing to that length bounds every 8-lane load at `at < n` below.
        let n = self.node_aabb_tests.len();
        assert!(n.is_multiple_of(LANES));
        let nodes = &self.nodes;
        let [min_x, max_x, min_y, max_y, t_enter, t_leave] = [
            &nodes.min_x,
            &nodes.max_x,
            &nodes.min_y,
            &nodes.max_y,
            &nodes.t_enter,
            &nodes.t_leave,
        ]
        .map(|c| &c[..n]);
        let [node_aabb_tests, node_primitive_tests] =
            [&self.node_aabb_tests, &self.node_primitive_tests].map(|c| &c[..n]);
        let mut passed = PassBits::new(n);
        let passed = passed.words();
        let mut aabb_tests = _mm256_setzero_si256();
        let mut primitive_tests = _mm256_setzero_si256();
        for at in (0..n).step_by(LANES) {
            // SAFETY: `at + LANES <= n`, the length of every sliced column,
            // so the unaligned 8-lane load reads inside `c`.
            let load = |c: &[f32]| unsafe { _mm256_loadu_ps(c.as_ptr().add(at)) };
            let load_u32 =
                // SAFETY: as for `load`; 8 `u32` lanes are one `__m256i`.
                |c: &[u32]| unsafe { _mm256_loadu_si256(c.as_ptr().add(at) as *const __m256i) };
            let t_exit = _mm256_min_ps(load(t_leave), t_max8);
            let fails = _mm256_or_ps(
                _mm256_or_ps(
                    _mm256_or_ps(
                        _mm256_cmp_ps::<_CMP_LT_OQ>(ox8, load(min_x)),
                        _mm256_cmp_ps::<_CMP_GT_OQ>(ox8, load(max_x)),
                    ),
                    _mm256_or_ps(
                        _mm256_cmp_ps::<_CMP_LT_OQ>(oy8, load(min_y)),
                        _mm256_cmp_ps::<_CMP_GT_OQ>(oy8, load(max_y)),
                    ),
                ),
                _mm256_cmp_ps::<_CMP_GT_OQ>(load(t_enter), t_exit),
            );
            let pass = !_mm256_movemask_ps(fails) as u64 & 0xFF;
            passed[at / 64] |= pass << (at % 64);
            let fails = _mm256_castps_si256(fails);
            aabb_tests = _mm256_add_epi32(
                aabb_tests,
                _mm256_andnot_si256(fails, load_u32(node_aabb_tests)),
            );
            primitive_tests = _mm256_add_epi32(
                primitive_tests,
                _mm256_andnot_si256(fails, load_u32(node_primitive_tests)),
            );
        }
        let lane_sum = |v: __m256i| {
            let mut lanes = [0u32; LANES];
            // SAFETY: `lanes` is 32 bytes.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v) };
            lanes.iter().fold(0u32, |a, &x| a.wrapping_add(x))
        };
        stats.aabb_tests += 1 + lane_sum(aabb_tests) as usize;
        stats.primitive_tests += lane_sum(primitive_tests) as usize;

        let total = self.primitive_id.len();
        assert!(total.is_multiple_of(LANES));
        let [center_x, center_y, oc_z, oc_z_sq, radius_sq] = [
            &self.center_x,
            &self.center_y,
            &self.oc_z,
            &self.oc_z_sq,
            &self.radius_sq,
        ]
        .map(|c| &c[..total]);
        let (zero, sign) = (_mm256_setzero_ps(), _mm256_set1_ps(-0.0));
        let mut flagged = Flagged::new();
        for group in 0..total / LANES {
            let at = group * LANES;
            // SAFETY: `at + LANES <= total`, the length of every sliced column.
            let load = |c: &[f32]| unsafe { _mm256_loadu_ps(c.as_ptr().add(at)) };
            let dx = _mm256_sub_ps(ox8, load(center_x));
            let dy = _mm256_sub_ps(oy8, load(center_y));
            let b = _mm256_add_ps(
                _mm256_add_ps(_mm256_mul_ps(dx, zero), _mm256_mul_ps(dy, zero)),
                load(oc_z),
            );
            let c = _mm256_sub_ps(
                _mm256_add_ps(
                    _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
                    load(oc_z_sq),
                ),
                load(radius_sq),
            );
            let disc = _mm256_sub_ps(_mm256_mul_ps(b, b), c);
            let sqrt_disc = _mm256_sqrt_ps(disc);
            let neg_b = _mm256_xor_ps(b, sign);
            let t_near = _mm256_sub_ps(neg_b, sqrt_disc);
            let t_far = _mm256_add_ps(neg_b, sqrt_disc);
            let near_ahead = _mm256_cmp_ps::<_CMP_GE_OQ>(t_near, zero);
            let t_hit = _mm256_blendv_ps(t_far, t_near, near_ahead);
            let ahead = _mm256_or_ps(near_ahead, _mm256_cmp_ps::<_CMP_GE_OQ>(t_far, zero));
            let hit = _mm256_andnot_ps(
                _mm256_cmp_ps::<_CMP_LT_OQ>(disc, zero),
                _mm256_and_ps(ahead, _mm256_cmp_ps::<_CMP_LE_OQ>(t_hit, t_max8)),
            );
            // Left-pack the flagged lanes and their `t_hit` onto the buffer.
            let bits = _mm256_movemask_ps(hit) as usize;
            // SAFETY: `LEFT_PACK` rows are LANES bytes.
            let order = _mm256_cvtepu8_epi32(unsafe {
                _mm_loadl_epi64(LEFT_PACK[bits].as_ptr() as *const __m128i)
            });
            let lanes = _mm256_add_epi32(_mm256_set1_epi32(at as i32), order);
            // SAFETY: the buffer was drained while `full()`, so
            // `len ≤ FLAGGED − LANES` and both 8-lane stores fit.
            unsafe {
                let at = flagged.len;
                _mm256_storeu_si256(flagged.lane.as_mut_ptr().add(at) as *mut __m256i, lanes);
                _mm256_storeu_ps(
                    flagged.t_hit.as_mut_ptr().add(at),
                    _mm256_permutevar8x32_ps(t_hit, order),
                );
            }
            flagged.len += bits.count_ones() as usize;
            if flagged.full() {
                self.confirm(&mut flagged, passed, stats, &mut on_hit);
            }
        }
        self.confirm(&mut flagged, passed, stats, &mut on_hit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ray::Ray;
    use crate::scene::{Scene, SceneBuilder};

    /// Uniform `f32` in `[0, 1)` from a xorshift state.
    fn unit(state: &mut u64) -> f32 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 40) as f32 / (1u64 << 24) as f32
    }

    /// A JUNO-shaped scene: `entries` spheres per subspace at `z = 2s + 1`,
    /// centres spread over a few units, ids `s * entries + e`.
    fn layered_scene(
        subspaces: usize,
        entries: usize,
        seed: u64,
        mut radius: impl FnMut(&mut u64) -> f32,
    ) -> Scene {
        let mut state = seed | 1;
        let mut builder = SceneBuilder::new();
        for s in 0..subspaces {
            for e in 0..entries {
                let center = [
                    unit(&mut state) * 5.0 - 2.5,
                    unit(&mut state) * 5.0 - 2.5,
                    2.0 * s as f32 + 1.0,
                ];
                let id = (s * entries + e) as u32;
                builder.add_sphere(Sphere::new(center, radius(&mut state), id));
            }
        }
        builder.build()
    }

    /// L2 mapping: every radius 1.0, so layers touch at the origin planes.
    fn l2_scene(subspaces: usize, entries: usize, seed: u64) -> Scene {
        layered_scene(subspaces, entries, seed, |_| 1.0)
    }

    /// MIPS mapping: per-entry radii below 1, so whether a leaf is reached
    /// depends on `t_max`.
    fn mips_scene(subspaces: usize, entries: usize, seed: u64) -> Scene {
        layered_scene(subspaces, entries, seed, |state| 0.3 + 0.65 * unit(state))
    }

    type Outcome = (TraversalStats, Vec<(u32, u32)>);

    fn sorted(mut hits: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        hits.sort_unstable();
        hits
    }

    fn by_tree(scene: &Scene, origin: [f32; 3], t_max: f32) -> Outcome {
        let mut stats = TraversalStats::new();
        let mut hits = Vec::new();
        let ray = Ray::axis_aligned_z(origin, t_max);
        scene.trace_with_stats(&ray, &mut stats, &mut |h| {
            hits.push((h.primitive_id, h.t_hit.to_bits()))
        });
        (stats, sorted(hits))
    }

    /// The ways to run the table: the dispatched entry point, and each arm
    /// called directly, whichever one the probe would pick.
    #[derive(Debug, Clone, Copy)]
    enum Arm {
        Dispatched,
        Portable,
        #[cfg(target_arch = "x86_64")]
        Avx2,
    }

    /// Every way this host can run: the AVX2 arm when the CPU has it, even
    /// under `JUNO_FORCE_SCALAR_KERNEL`.
    fn arms() -> Vec<Arm> {
        let mut arms = vec![Arm::Dispatched, Arm::Portable];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            arms.push(Arm::Avx2);
        }
        arms
    }

    fn by_table(table: &ZRayTable, arm: Arm, ox: f32, oy: f32, t_max: f32) -> Outcome {
        let mut stats = TraversalStats::new();
        let mut hits = Vec::new();
        let on_hit = |h: Hit| hits.push((h.primitive_id, h.t_hit.to_bits()));
        match arm {
            Arm::Dispatched => table.trace(ox, oy, t_max, &mut stats, on_hit),
            Arm::Portable => table.trace_portable(ox, oy, t_max, &mut stats, on_hit),
            // SAFETY: `arms` offers this arm only on a CPU with AVX2.
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2 => unsafe { table.trace_avx2(ox, oy, t_max, &mut stats, on_hit) },
        }
        (stats, sorted(hits))
    }

    /// All four counters and the sorted `(primitive, t_hit bits)` set, from
    /// every arm.
    fn assert_same(scene: &Scene, table: &ZRayTable, origin: [f32; 3], t_max: f32) -> Outcome {
        let want = by_tree(scene, origin, t_max);
        for arm in arms() {
            let got = by_table(table, arm, origin[0], origin[1], t_max);
            assert_eq!(got, want, "{arm:?}: origin {origin:?} t_max {t_max}");
        }
        want
    }

    const T_MAXES: [f32; 6] = [0.0, f32::MIN_POSITIVE, 0.05, 0.4, 0.93, 1.0];

    fn check_seeded_origins(scene: &Scene, subspaces: usize, seed: u64) -> TraversalStats {
        let mut state = seed | 1;
        let mut total = TraversalStats::new();
        // First, last and a middle subspace (when there is one).
        for s in [0, subspaces / 2, subspaces - 1] {
            let oz = 2.0 * s as f32;
            let table = scene.z_ray_table(oz);
            for i in 0..400 {
                // Mostly over the codebook, sometimes well outside it.
                let span = if i % 8 == 0 { 12.0 } else { 6.0 };
                let origin = [
                    (unit(&mut state) - 0.5) * span,
                    (unit(&mut state) - 0.5) * span,
                    oz,
                ];
                let t_max = match i % 3 {
                    0 => T_MAXES[i / 3 % T_MAXES.len()],
                    _ => unit(&mut state),
                };
                total.merge(&assert_same(scene, &table, origin, t_max).0);
            }
        }
        total
    }

    #[test]
    fn l2_layers_match_the_tree_on_seeded_origins() {
        let (subspaces, entries) = (12, 64);
        let scene = l2_scene(subspaces, entries, 0xA11CE);
        let total = check_seeded_origins(&scene, subspaces, 7);
        assert!(total.hits > 0 && total.hits < total.primitive_tests);
        // The shape the table exists for: inside a layer the tree prunes
        // nothing, and a ray also tests the layer below it.
        let table = scene.z_ray_table(2.0 * 5.0);
        assert!(table.primitive_count() >= 2 * entries);
        assert!(table.node_count() < scene.bvh().node_count() / 4);
    }

    #[test]
    fn mips_layers_match_the_tree_on_seeded_origins() {
        let (subspaces, entries) = (9, 32);
        let scene = mips_scene(subspaces, entries, 0xB0B);
        let total = check_seeded_origins(&scene, subspaces, 11);
        assert!(total.hits > 0 && total.hits < total.primitive_tests);
        // Radii below 1 keep the layer below out of reach, and make the
        // work depend on `t_max`.
        let oz = 2.0 * 4.0;
        let table = scene.z_ray_table(oz);
        let short = assert_same(&scene, &table, [0.1, -0.2, oz], 0.02).0;
        let long = assert_same(&scene, &table, [0.1, -0.2, oz], 1.0).0;
        assert!(short.primitive_tests < long.primitive_tests);
    }

    #[test]
    fn origin_over_a_centre_of_the_layer_below_hits_it_at_time_zero() {
        // Planar offset² below 2⁻²⁴ makes `c = (x² + y² + 1) − 1` round to
        // zero, so the unit sphere of the layer below is hit at `t_hit = 0`:
        // a hit the tree counts, and so must the table.
        let (subspaces, entries) = (6, 64);
        let scene = l2_scene(subspaces, entries, 0xC0FFEE);
        let s = 3;
        let oz = 2.0 * s as f32;
        let table = scene.z_ray_table(oz);
        let mut grazed = 0;
        for below in scene.spheres()[(s - 1) * entries..s * entries]
            .iter()
            .step_by(5)
        {
            for (dx, dy) in [(0.0, 0.0), (1.0e-4, 0.0), (-1.5e-4, 1.0e-4)] {
                let origin = [below.center[0] + dx, below.center[1] + dy, oz];
                for t_max in T_MAXES {
                    let (_, hits) = assert_same(&scene, &table, origin, t_max);
                    grazed += hits
                        .iter()
                        .filter(|&&(id, t)| id == below.primitive_id && t == 0)
                        .count();
                }
            }
        }
        assert!(grazed > 0, "no ray hit the layer below at t_hit = 0");
    }

    #[test]
    fn origins_on_box_faces_and_non_finite_origins_match_the_tree() {
        for scene in [l2_scene(5, 32, 0xFACE), mips_scene(5, 32, 0xFACE)] {
            for s in [0, 2, 4] {
                let oz = 2.0 * s as f32;
                let table = scene.z_ray_table(oz);
                // Sphere box faces are leaf and interior box faces too.
                for sphere in scene.spheres()[s * 32..(s + 1) * 32].iter().step_by(3) {
                    let [cx, cy, _] = sphere.center;
                    let r = sphere.radius;
                    for origin in [
                        [cx - r, cy, oz],
                        [cx + r, cy, oz],
                        [cx, cy - r, oz],
                        [cx, cy + r, oz],
                        [cx + r, cy + r, oz],
                    ] {
                        for t_max in T_MAXES {
                            assert_same(&scene, &table, origin, t_max);
                        }
                    }
                }
                let odd = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.25];
                for ox in odd {
                    for oy in odd {
                        for t_max in [0.0, 0.5, 1.0] {
                            let (stats, hits) = assert_same(&scene, &table, [ox, oy, oz], t_max);
                            if !(ox.is_finite() && oy.is_finite()) {
                                assert!(hits.is_empty());
                                assert_eq!(stats.hits, 0);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_sphere_hit_whose_leaf_box_rounds_away_stays_unreported() {
        // A sphere's box is rounded where the sphere sits (`z ≈ 2s + 1`, or
        // `c_x + r`), its intersection where the ray starts, so a ray one
        // ulp outside the leaf box can still satisfy the sphere equation.
        // The tree never tests that sphere; the table must mask it out.
        let mut masked = 0;
        let mut probe = |scene: &Scene, table: &ZRayTable, origin: [f32; 3], t_max: f32| {
            let (_, hits) = assert_same(scene, table, origin, t_max);
            let ray = Ray::axis_aligned_z(origin, t_max);
            masked += scene
                .spheres()
                .iter()
                .filter(|s| s.intersect(&ray).is_some())
                .filter(|s| !hits.iter().any(|&(id, _)| id == s.primitive_id))
                .count();
        };
        let (subspaces, entries) = (40, 32);
        let mips = mips_scene(subspaces, entries, 0x1EAF);
        let l2 = l2_scene(subspaces, entries, 0x1EAF);
        for s in [subspaces / 2, subspaces - 1] {
            let oz = 2.0 * s as f32;
            let (mips_table, l2_table) = (mips.z_ray_table(oz), l2.z_ray_table(oz));
            for e in 0..entries {
                // Straight over a centre, `t_max` within ulps of the time
                // the ray enters the sphere and its (coarser) box.
                let sphere = mips.spheres()[s * entries + e];
                let [cx, cy, cz] = sphere.center;
                let box_enter = (cz - sphere.radius) - oz;
                let sphere_enter = Ray::axis_aligned_z([cx, cy, oz], 1.0);
                let sphere_enter = sphere.intersect(&sphere_enter).expect("over the centre");
                for mut t_max in [box_enter, sphere_enter] {
                    for _ in 0..4 {
                        t_max = t_max.next_down();
                    }
                    for _ in 0..9 {
                        probe(&mips, &mips_table, [cx, cy, oz], t_max);
                        t_max = t_max.next_up();
                    }
                }
                // One ulp outside a unit sphere's box, tangent to it.
                let sphere = l2.spheres()[s * entries + e];
                let [cx, cy, _] = sphere.center;
                for ox in [(cx + 1.0).next_up(), (cx - 1.0).next_down()] {
                    probe(&l2, &l2_table, [ox, cy, oz], 1.0);
                    probe(&l2, &l2_table, [cx, ox - cx + cy, oz], 1.0);
                }
            }
        }
        assert!(masked > 0, "no ray separated a sphere from its leaf box");
    }

    #[test]
    fn scenes_the_tree_prunes_and_off_plane_depths_match_too() {
        // Small spheres scattered in a slab: most leaves fail their box.
        let mut state = 0x5EED_u64;
        let mut builder = SceneBuilder::new();
        for id in 0..600 {
            let center = [
                unit(&mut state) * 10.0,
                unit(&mut state) * 10.0,
                unit(&mut state) * 3.0,
            ];
            builder.add_sphere(Sphere::new(center, 0.05 + 0.3 * unit(&mut state), id));
        }
        let scene = builder.build();
        for oz in [-0.5f32, 0.0, 0.7, 1.5, 2.9, 5.0] {
            let table = scene.z_ray_table(oz);
            let mut total = TraversalStats::new();
            for _ in 0..300 {
                let origin = [unit(&mut state) * 10.0, unit(&mut state) * 10.0, oz];
                let t_max = unit(&mut state);
                total.merge(&assert_same(&scene, &table, origin, t_max).0);
            }
            if oz < 3.0 {
                assert!(total.hits > 0);
                assert!(total.primitive_tests < 300 * table.primitive_count() / 4);
            }
        }
    }

    #[test]
    fn a_ray_tangent_from_inside_keeps_the_sign_of_its_zero_t_hit() {
        // From depth −0 inside a sphere centred at depth +0, `oc_z = −0`
        // while the in-loop `b = oc_x·0 + oc_y·0 + oc_z` is +0 whenever
        // `oc_x, oc_y ≥ 0`. Where the origin lies on the sphere's rim,
        // `disc = 0` and `t_hit = −b − 0` carries that sign, as the tree's
        // does: −0 here, not the +0 `b = oc_z` would give.
        let mut builder = SceneBuilder::new();
        builder.add_sphere(Sphere::new([0.0, 0.0, 0.0], 1.0, 0));
        builder.add_sphere(Sphere::new([3.0, 0.0, 0.0], 1.0, 1));
        let scene = builder.build();
        let table = scene.z_ray_table(-0.0);
        let mut signed = 0;
        for origin in [
            [1.0, 0.0, -0.0],
            [0.0, 1.0, -0.0],
            [-1.0, 0.0, -0.0],
            [2.0, 0.0, -0.0],
        ] {
            let (_, hits) = assert_same(&scene, &table, origin, 1.0);
            signed += hits
                .iter()
                .filter(|&&(_, t)| t == (-0.0f32).to_bits())
                .count();
        }
        assert!(signed > 0, "no ray met a rim with t_hit = −0");
    }

    #[test]
    fn a_table_too_large_for_the_stack_pass_bits_matches_the_tree() {
        let scene = l2_scene(1, 2_500, 0xB16);
        let table = scene.z_ray_table(0.0);
        assert!(table.node_count() > 64 * STACK_PASS_WORDS);
        let mut state = 0x7AB1E_u64;
        let mut hits = 0;
        for i in 0..200 {
            let origin = [
                unit(&mut state) * 5.0 - 2.5,
                unit(&mut state) * 5.0 - 2.5,
                0.0,
            ];
            let t_max = T_MAXES[i % T_MAXES.len()].max(unit(&mut state));
            hits += assert_same(&scene, &table, origin, t_max).0.hits;
        }
        assert!(hits > 0);
    }

    #[test]
    fn an_empty_scene_counts_the_ray_and_nothing_else() {
        let scene = SceneBuilder::new().build();
        let table = scene.z_ray_table(0.0);
        assert_eq!((table.node_count(), table.primitive_count()), (0, 0));
        let (stats, hits) = assert_same(&scene, &table, [0.0, 0.0, 0.0], 1.0);
        assert!(hits.is_empty());
        assert_eq!(
            stats,
            TraversalStats {
                rays: 1,
                ..TraversalStats::default()
            }
        );
    }

    #[test]
    #[should_panic(expected = "t_max in [0, 1]")]
    fn a_travel_budget_beyond_one_unit_is_refused() {
        let scene = l2_scene(2, 8, 3);
        let mut stats = TraversalStats::new();
        scene
            .z_ray_table(0.0)
            .trace(0.0, 0.0, 1.5, &mut stats, |_| {});
    }
}
