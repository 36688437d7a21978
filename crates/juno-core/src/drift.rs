//! Drift detection for the frozen trained structures.
//!
//! Inserts encode against codebooks and coarse centroids trained once at
//! build time (see [`crate::engine::JunoIndex::insert`]); when the corpus
//! distribution shifts, inserted vectors land ever farther from their
//! assigned centroids and recall silently degrades. The tracker keeps the
//! cheapest signal that captures this — the squared assignment (residual)
//! distance — as an EWMA compared against the build-time baseline, so the
//! serving layer can trigger a background re-train
//! (`juno-serve`'s `Rebuilder`) before quality falls off a cliff.

/// Default EWMA smoothing factor: a new insert contributes 2%, giving an
/// effective window of ~50 inserts — long enough to ignore single
/// outliers, short enough to flag a sustained shift within one mixed
/// workload segment.
pub(crate) const DEFAULT_EWMA_ALPHA: f64 = 0.02;

/// EWMA of the squared assignment distance of inserted vectors against the
/// build-time baseline. `Clone`d wholesale with the engine; reset by
/// rebuilds (a fresh train re-establishes the baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftTracker {
    /// Mean squared residual norm over the build corpus.
    baseline_mean_sq: f64,
    /// EWMA of inserted vectors' squared residual norms (starts at the
    /// baseline so the ratio reads 1.0 before any insert).
    ewma_sq: f64,
    /// Inserts folded into the EWMA since the last (re)build.
    inserts: u64,
}

impl DriftTracker {
    /// A tracker anchored at the given build-time mean squared assignment
    /// distance. Non-finite or non-positive baselines are clamped to a tiny
    /// positive value so the drift ratio stays well defined (a degenerate
    /// baseline means every point coincided with its centroid).
    pub fn from_baseline(baseline_mean_sq: f64) -> Self {
        let baseline = if baseline_mean_sq.is_finite() && baseline_mean_sq > 0.0 {
            baseline_mean_sq
        } else {
            f64::MIN_POSITIVE
        };
        Self {
            baseline_mean_sq: baseline,
            ewma_sq: baseline,
            inserts: 0,
        }
    }

    /// Rebuilds a tracker from persisted parts (the `DRFT` snapshot
    /// section).
    pub fn from_parts(baseline_mean_sq: f64, ewma_sq: f64, inserts: u64) -> Self {
        let mut t = Self::from_baseline(baseline_mean_sq);
        if ewma_sq.is_finite() && ewma_sq > 0.0 {
            t.ewma_sq = ewma_sq;
        }
        t.inserts = inserts;
        t
    }

    /// Folds one insert's squared assignment distance into the EWMA.
    pub(crate) fn note_insert(&mut self, sq_assignment_distance: f64) {
        if !sq_assignment_distance.is_finite() {
            return;
        }
        let x = sq_assignment_distance.max(0.0);
        self.ewma_sq += DEFAULT_EWMA_ALPHA * (x - self.ewma_sq);
        self.inserts += 1;
    }

    /// The frozen build-time baseline (mean squared assignment distance).
    pub fn baseline_mean_sq(&self) -> f64 {
        self.baseline_mean_sq
    }

    /// The current EWMA of inserted squared assignment distances.
    pub fn ewma_sq(&self) -> f64 {
        self.ewma_sq
    }

    /// Inserts folded into the EWMA since the last (re)build.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// `ewma / baseline` — 1.0 means inserts look like the training
    /// distribution.
    pub(crate) fn drift_ratio(&self) -> f64 {
        self.ewma_sq / self.baseline_mean_sq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tracker_reads_no_drift() {
        let t = DriftTracker::from_baseline(2.0);
        assert_eq!(t.drift_ratio(), 1.0);
        assert_eq!(t.inserts(), 0);
    }

    #[test]
    fn in_distribution_inserts_keep_ratio_near_one() {
        let mut t = DriftTracker::from_baseline(2.0);
        for _ in 0..1000 {
            t.note_insert(2.0);
        }
        assert!((t.drift_ratio() - 1.0).abs() < 1e-9);
        assert_eq!(t.inserts(), 1000);
    }

    #[test]
    fn sustained_shift_raises_ratio() {
        let mut t = DriftTracker::from_baseline(2.0);
        for _ in 0..500 {
            t.note_insert(8.0);
        }
        // EWMA converges towards 8/2 = 4x.
        assert!(t.drift_ratio() > 3.5, "ratio {}", t.drift_ratio());
    }

    #[test]
    fn single_outlier_barely_moves_the_ewma() {
        let mut t = DriftTracker::from_baseline(2.0);
        t.note_insert(1000.0);
        assert!(t.drift_ratio() < 12.0);
        for _ in 0..300 {
            t.note_insert(2.0);
        }
        assert!(t.drift_ratio() < 1.1, "ratio {}", t.drift_ratio());
    }

    #[test]
    fn degenerate_baseline_is_clamped() {
        let t = DriftTracker::from_baseline(0.0);
        assert!(t.drift_ratio().is_finite());
        let t = DriftTracker::from_baseline(f64::NAN);
        assert!(t.drift_ratio().is_finite());
    }

    #[test]
    fn parts_round_trip() {
        let mut t = DriftTracker::from_baseline(3.0);
        for i in 0..17 {
            t.note_insert(3.0 + i as f64);
        }
        let u = DriftTracker::from_parts(t.baseline_mean_sq(), t.ewma_sq(), t.inserts());
        assert_eq!(t, u);
    }

    #[test]
    fn non_finite_inserts_are_ignored() {
        let mut t = DriftTracker::from_baseline(2.0);
        t.note_insert(f64::NAN);
        t.note_insert(f64::INFINITY);
        assert_eq!(t.inserts(), 0);
        assert_eq!(t.drift_ratio(), 1.0);
    }
}
