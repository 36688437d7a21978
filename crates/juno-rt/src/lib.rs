//! Software ray-tracing core simulator.
//!
//! The paper maps JUNO's selective L2-LUT construction onto NVIDIA RT cores
//! through OptiX (Section 4.2). No RT hardware is available to this
//! reproduction, so this crate provides a faithful *functional* model of the
//! parts of the RT pipeline JUNO relies on, together with work counters that a
//! hardware throughput model (see `juno-gpu`) converts into simulated time:
//!
//! * [`aabb`] — axis-aligned bounding boxes and the slab intersection test.
//! * [`ray`] — rays with an origin, direction and maximum travel time
//!   `t_max` (the knob JUNO uses to implement dynamic thresholds).
//! * [`sphere`] — sphere primitives: one per codebook entry, laid out at
//!   `z = 2s + 1` for subspace `s`.
//! * [`bvh`] — a bounding volume hierarchy built over primitive AABBs with a
//!   median-split strategy and an iterative traversal loop.
//! * [`scene`] — the traversable scene: build once offline, trace rays with
//!   any-hit callbacks online, exactly like an OptiX launch. Every ray JUNO
//!   traces (the simulator's and the engine's hit-set oracle's) walks the
//!   scene's BVH; there is no second traversal.
//! * [`stats`] — traversal work counters (box tests, primitive tests, hit
//!   shader invocations) that stand in for RT-core cycles.
//! * [`hardware`] — per-generation RT-core throughput figures (Turing /
//!   Ampere / Ada) and a CUDA-core software fallback, used to convert work
//!   counters into microseconds.
//!
//! # Example: the 2-D nearest-neighbour mapping of RTNN / JUNO
//!
//! ```
//! use juno_rt::scene::{Scene, SceneBuilder};
//! use juno_rt::ray::Ray;
//! use juno_rt::sphere::Sphere;
//!
//! // Two codebook entries as spheres in the z = 1 plane (subspace 0).
//! let mut builder = SceneBuilder::new();
//! builder.add_sphere(Sphere::new([0.0, 0.0, 1.0], 0.5, 0));
//! builder.add_sphere(Sphere::new([3.0, 0.0, 1.0], 0.5, 1));
//! let scene = builder.build();
//!
//! // A query projection at (0.1, 0.1) shot towards +z intersects entry 0 only.
//! let ray = Ray::axis_aligned_z([0.1, 0.1, 0.0], 2.0);
//! let mut hits = Vec::new();
//! scene.trace(&ray, &mut |hit| hits.push(hit.primitive_id));
//! assert_eq!(hits, vec![0]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod aabb;
pub mod bvh;
pub mod hardware;
pub mod ray;
pub mod scene;
pub mod sphere;
pub mod stats;

pub use aabb::Aabb;
pub use bvh::Bvh;
pub use hardware::{RtCoreGeneration, RtCoreModel};
pub use ray::Ray;
pub use scene::{Hit, Scene, SceneBuilder};
pub use sphere::Sphere;
pub use stats::TraversalStats;
