//! Dataset and index construction shared by the figures.

use crate::sweep::SWEEP_K;
use juno_baseline::ivfpq::IvfPqConfig;
use juno_common::error::Result;
use juno_common::recall::GroundTruth;
use juno_core::config::JunoConfig;
use juno_core::engine::JunoIndex;
use juno_data::profiles::{Dataset, DatasetProfile};

/// The scale at which the figures run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchScale {
    /// Number of search points generated per dataset.
    pub points: usize,
    /// Number of queries generated per dataset.
    pub queries: usize,
}

impl BenchScale {
    /// Reads the scale from `JUNO_BENCH_POINTS` / `JUNO_BENCH_QUERIES`,
    /// falling back to the defaults (20 000 points, 50 queries).
    pub fn from_env() -> Self {
        let read = |key: &str, default: usize| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&v| v > 0)
                .unwrap_or(default)
        };
        Self {
            points: read("JUNO_BENCH_POINTS", 20_000),
            queries: read("JUNO_BENCH_QUERIES", 50),
        }
    }

    /// Returns a copy scaled down by an integer factor (at least 1 point and
    /// 1 query remain). Used by the heavier figures.
    pub fn reduced(&self, factor: usize) -> Self {
        Self {
            points: (self.points / factor.max(1)).max(500),
            queries: (self.queries / factor.max(1)).max(5),
        }
    }
}

/// A fully prepared figure fixture: dataset, ground truth and the JUNO index
/// (the IVFPQ baseline, [`ivfpq_config_for`], is built by the figures that
/// need it).
#[derive(Debug)]
pub struct Fixture {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Exact ground truth for [`SWEEP_K`] neighbours per query.
    pub ground_truth: GroundTruth,
    /// The built JUNO index.
    pub juno: JunoIndex,
}

/// The IVF cluster count used at a given dataset scale (≈ √N, the usual
/// heuristic and what keeps the paper's `IVF4096` proportional at 1 M).
pub fn clusters_for(points: usize) -> usize {
    ((points as f64).sqrt() as usize).clamp(16, 4096)
}

/// A JUNO configuration matching a dataset profile at the given scale.
pub(crate) fn juno_config_for(profile: DatasetProfile, points: usize) -> JunoConfig {
    JunoConfig {
        n_clusters: clusters_for(points),
        nprobs: 8,
        pq_subspaces: profile.dim() / 2,
        pq_entries: 64,
        metric: profile.metric(),
        threshold_train_samples: 128,
        ..JunoConfig::default()
    }
}

/// The FAISS-style `IVF{clusters_for(points)},PQ{paper subspaces}` baseline
/// the figures compare JUNO against, probing `nprobs` lists.
pub fn ivfpq_config_for(
    profile: DatasetProfile,
    points: usize,
    nprobs: usize,
    seed: u64,
) -> IvfPqConfig {
    IvfPqConfig {
        n_clusters: clusters_for(points),
        nprobs,
        pq_subspaces: profile.paper_pq_subspaces(),
        pq_entries: 64,
        metric: profile.metric(),
        seed,
    }
}

/// Builds the standard fixture for one profile, with [`SWEEP_K`] true
/// neighbours per query.
///
/// # Errors
///
/// Propagates dataset generation, ground-truth and index-building errors.
pub fn build_fixture(profile: DatasetProfile, scale: BenchScale, seed: u64) -> Result<Fixture> {
    let dataset = profile.generate(scale.points, scale.queries, seed)?;
    let ground_truth = dataset.ground_truth(SWEEP_K)?;
    let config = juno_config_for(profile, scale.points);
    let juno = JunoIndex::build(&dataset.points, &config)?;
    Ok(Fixture {
        dataset,
        ground_truth,
        juno,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::index::AnnIndex;

    #[test]
    fn scale_reduction_never_hits_zero() {
        let s = BenchScale {
            points: 1_000,
            queries: 10,
        };
        let r = s.reduced(100);
        assert_eq!(r.points, 500);
        assert_eq!(r.queries, 5);
    }

    #[test]
    fn cluster_heuristic_is_bounded() {
        assert_eq!(clusters_for(100), 16);
        assert_eq!(clusters_for(1_000_000), 1000);
        assert_eq!(clusters_for(usize::MAX / 2), 4096);
    }

    #[test]
    fn config_matches_profile() {
        let cfg = juno_config_for(DatasetProfile::SiftLike, 10_000);
        assert_eq!(cfg.pq_subspaces, 64);
        assert_eq!(cfg.metric, juno_common::Metric::L2);
        let cfg = juno_config_for(DatasetProfile::TtiLike, 10_000);
        assert_eq!(cfg.pq_subspaces, 100);
        assert_eq!(cfg.metric, juno_common::Metric::InnerProduct);
    }

    #[test]
    fn fixture_builds_at_tiny_scale() {
        let fixture = build_fixture(
            DatasetProfile::DeepLike,
            BenchScale {
                points: 1_500,
                queries: 5,
            },
            3,
        )
        .unwrap();
        assert_eq!(fixture.dataset.points.len(), 1_500);
        assert_eq!(fixture.ground_truth.len(), 5);
        assert_eq!(fixture.juno.len(), 1_500);
    }
}
