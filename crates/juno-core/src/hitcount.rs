//! Hit-count based aggressive approximation (JUNO-L and JUNO-M).
//!
//! Section 5.4 of the paper proposes ranking candidate points without any
//! floating-point distance at all: a point scores higher the more subspaces
//! in which its codebook entry was hit by the query ray. JUNO-M refines the
//! signal with a reward/penalty scheme using an extra sphere at half the
//! radius: +1 when the ray hits the inner sphere, 0 when it only hits the
//! outer sphere, −1 when it misses both.
//!
//! Implementation note: the simulator does not materialise the extra inner
//! spheres. Because all spheres of a subspace share one radius and the
//! threshold is expressed through `t_max`, "hit the inner sphere of radius
//! R/2" is exactly "hit with `t_hit ≤ t_max(threshold / 2)`" — a comparison
//! against the already-available hit time, with identical semantics and no
//! extra scene memory. The per-subspace penalty for missing both spheres is a
//! constant shift of `−1` per subspace, so ranking by
//! `inner_hits + outer_hits` is equivalent to the paper's
//! `inner_hits − misses` score; the engine's JUNO-L/M scan counts both.

/// Which hit-count variant is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum HitCountMode {
    /// JUNO-L: count outer-sphere hits only.
    CountOnly,
    /// JUNO-M: reward inner-sphere hits, penalise full misses.
    RewardPenalty,
}
