//! The fixture every workload starts from: a DEEP-like dataset, its exact
//! ground truth and one built `JunoIndex`, each step timed.

use crate::json::Json;
use crate::loadgen::permutation;
use crate::report::Report;
use juno_common::error::Result;
use juno_common::index::SearchResult;
use juno_common::metric::Metric;
use juno_common::recall::{recall_at, GroundTruth};
use juno_common::vector::VectorSet;
use juno_core::config::{JunoConfig, QualityMode};
use juno_core::engine::JunoIndex;
use juno_data::profiles::DatasetProfile;
use std::time::Instant;

pub const PROFILE: DatasetProfile = DatasetProfile::DeepLike;
/// The dataset is a constant of each workload, as DEEP1M is of the paper's
/// evaluation: two generator seeds differ by up to 1.9× in candidates per
/// query (388–729 qps on the fat lists), which would drown any comparison
/// across `--seed`s. A run's seed draws the query pool from
/// [`QUERY_RESERVOIR`] queries of that dataset and orders the insert
/// vectors, the arrival schedule and the write plan.
pub const DATA_SEED: u64 = 1;
pub const QUERY_RESERVOIR: usize = 4096;
/// Neighbours asked of every query.
pub const K: usize = 100;
/// `recall_10_at_100`: the true top 10 looked for among the 100 returned.
pub const RECALL_N: usize = 10;
pub const NPROBS: usize = 8;
pub const PQ_SUBSPACES: usize = 48;
pub const PQ_ENTRIES: usize = 64;
pub const THRESHOLD_TRAIN_SAMPLES: usize = 128;
/// Queries per engine batch call.
pub const BATCH: usize = 64;
/// Pool queries the output oracles and single-threaded stage timings use.
pub const PROBE_QUERIES: usize = 100;
pub const STAGE_QUERIES: usize = 256;

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub points: usize,
    pub lists: usize,
    /// Query pool (and ground-truth) size.
    pub pool: usize,
    /// Further points from the same generator, never indexed at build:
    /// material for inserts.
    pub extra: usize,
    /// `recall_10_at_100` below this fails the run.
    pub recall_floor: f64,
}

/// Thin lists: ≈1.5k candidates per query, the front half dominates.
pub const SMALL: Scale = Scale {
    points: 20_000,
    lists: 141,
    pool: 1000,
    extra: 4096,
    recall_floor: 0.95,
};

/// Fat lists: 8 of 32 probed, ≈85k candidates per query, the scan
/// dominates. The pool is four batches; exact ground truth for 1000
/// queries over 200k points would alone cost ≈10 s of every run.
pub const FAT: Scale = Scale {
    points: 200_000,
    lists: 32,
    pool: 256,
    extra: 1024,
    recall_floor: 0.70,
};

impl Scale {
    pub fn constants(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("profile", Json::str(PROFILE.name())),
            ("data_seed", Json::UInt(DATA_SEED)),
            ("query_reservoir", Json::UInt(QUERY_RESERVOIR as u64)),
            ("dim", Json::UInt(PROFILE.dim() as u64)),
            ("points", Json::UInt(self.points as u64)),
            ("lists", Json::UInt(self.lists as u64)),
            ("nprobs", Json::UInt(NPROBS as u64)),
            ("pq_subspaces", Json::UInt(PQ_SUBSPACES as u64)),
            ("pq_entries", Json::UInt(PQ_ENTRIES as u64)),
            ("quality", Json::str("High")),
            (
                "threshold_train_samples",
                Json::UInt(THRESHOLD_TRAIN_SAMPLES as u64),
            ),
            ("k", Json::UInt(K as u64)),
            ("query_pool", Json::UInt(self.pool as u64)),
            ("insert_pool", Json::UInt(self.extra as u64)),
            ("recall_floor", Json::Num(self.recall_floor)),
        ]
    }
}

/// Everything a workload keeps beside the index it was built with.
#[derive(Debug)]
pub struct Fixture {
    pub scale: Scale,
    pub queries: VectorSet,
    pub extra: VectorSet,
    pub truth: GroundTruth,
    pub generate_s: f64,
    pub ground_truth_s: f64,
    pub build_s: f64,
}

pub fn build(scale: Scale, seed: u64) -> Result<(Fixture, JunoIndex)> {
    let started = Instant::now();
    let dataset = PROFILE.generate(scale.points + scale.extra, QUERY_RESERVOIR, DATA_SEED)?;
    let dim = dataset.dim();
    let mut flat = dataset.points.into_flat();
    let extra = VectorSet::from_flat(flat.split_off(scale.points * dim), dim)?;
    let points = VectorSet::from_flat(flat, dim)?;
    let draw = |from: &VectorSet, count: usize, salt: u64| {
        let order = permutation(from.len() as u32, seed ^ salt);
        let picked: Vec<usize> = order[..count].iter().map(|&i| i as usize).collect();
        from.select(&picked)
    };
    let queries = draw(&dataset.queries, scale.pool, 0x71)?;
    let extra = draw(&extra, scale.extra, 0x69)?;
    let generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let truth = GroundTruth::brute_force(&points, &queries, Metric::L2, RECALL_N)?;
    let ground_truth_s = started.elapsed().as_secs_f64();

    let config = JunoConfig {
        n_clusters: scale.lists,
        nprobs: NPROBS,
        pq_subspaces: PQ_SUBSPACES,
        pq_entries: PQ_ENTRIES,
        metric: Metric::L2,
        quality: QualityMode::High,
        threshold_train_samples: THRESHOLD_TRAIN_SAMPLES,
        ..JunoConfig::default()
    };
    let started = Instant::now();
    let index = JunoIndex::build(&points, &config)?;
    let build_s = started.elapsed().as_secs_f64();

    let fixture = Fixture {
        scale,
        queries,
        extra,
        truth,
        generate_s,
        ground_truth_s,
        build_s,
    };
    Ok((fixture, index))
}

impl Fixture {
    /// Reports `recall_10_at_100` of one reply per pool query and holds it
    /// to the scale's floor.
    pub fn check_recall(&self, report: &mut Report, replies: &[Bits]) -> Result<()> {
        let ids: Vec<Vec<u64>> = replies
            .iter()
            .map(|r| r.iter().map(|&(id, _)| id).collect())
            .collect();
        let recall = recall_at(&ids, &self.truth, RECALL_N, K)?;
        report.set("recall_10_at_100", recall);
        let floor = self.scale.recall_floor;
        report.check(
            "recall_floor",
            recall >= floor,
            format!("recall_10_at_100 {recall:.4} against floor {floor}"),
        );
        Ok(())
    }

    /// Reports `setup_s` and the timed steps of the fixture behind it.
    pub fn record_setup(&self, report: &mut Report, setup_s: f64) {
        report.set("setup_s", setup_s);
        report.set("data.generate_s", self.generate_s);
        report.set("data.ground_truth_s", self.ground_truth_s);
        report.set("engine.build_s", self.build_s);
    }

    /// The pool as `BATCH`-query batches, in pool order.
    pub fn batches(&self) -> Result<Vec<VectorSet>> {
        (0..self.queries.len())
            .step_by(BATCH)
            .map(|start| {
                let end = (start + BATCH).min(self.queries.len());
                VectorSet::from_rows((start..end).map(|i| self.queries.row(i).to_vec()).collect())
            })
            .collect()
    }
}

/// Ids and distance bit patterns of one reply — what the oracles compare.
pub type Bits = Vec<(u64, u32)>;

pub fn bits(result: &SearchResult) -> Bits {
    result
        .neighbors
        .iter()
        .map(|n| (n.id, n.distance.to_bits()))
        .collect()
}

/// Replies of `got` that differ from `want` or lack their `K` neighbours.
pub fn mismatches(got: &[Bits], want: &[Bits]) -> usize {
    got.iter()
        .zip(want)
        .filter(|(a, b)| a != b || a.len() != K)
        .count()
        + got.len().abs_diff(want.len())
}

/// What `index` answers the first [`PROBE_QUERIES`] pool queries one by one.
pub fn sequential_probe(index: &JunoIndex, queries: &VectorSet) -> Result<Vec<Bits>> {
    let mut scratch = index.make_scratch();
    (0..PROBE_QUERIES.min(queries.len()))
        .map(|q| {
            let result = index.search_with_scratch(queries.row(q), K, &mut scratch)?;
            Ok(bits(&result))
        })
        .collect()
}
