//! The fused fleet read does the monolith's work.
//!
//! A global-id fleet scans every shard's segment of a probed cluster as one
//! list (`AnnIndex::search_batch_fused`): one selector per query, each
//! probe's table expanded once, the prune gate and the cluster bound
//! weighed on the whole cluster. Shards that each filled a top-k of their
//! own from a share of every list stayed below the prune gate and
//! re-expanded every probe — on the ledger's online shape 2.7× the
//! monolith's exact accumulations. Here every fleet read path is held to
//! the monolith: ids and distance bits, `lut_builds` per query, and the
//! summed `accumulations` within [`WORK_BOUND`] of the monolith's.

mod common;

use common::{assert_bit_identical, search_all, Stats};
use juno::prelude::*;
use std::time::Duration;

/// A fleet read may do at most this multiple of the monolith's exact
/// accumulations (the prune trajectory differs a little: bound order
/// within a bucket, segments in shard order).
const WORK_BOUND: f64 = 1.2;
const BUDGET: Duration = Duration::from_secs(30);

fn accumulations(results: &[SearchResult]) -> usize {
    results.iter().map(|r| r.stats.accumulations).sum()
}

/// `got` against the monolith's `want`: bits, each query's `lut_builds`,
/// and the summed accumulations. Returns the work ratio.
fn assert_monolith_work(want: &[SearchResult], got: &[SearchResult], label: &str) -> f64 {
    assert_bit_identical(want, got, Stats::Any, label);
    for (q, (m, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(
            m.stats.lut_builds, g.stats.lut_builds,
            "{label}: query {q} expands each probe once"
        );
    }
    let ratio = accumulations(got) as f64 / accumulations(want).max(1) as f64;
    assert!(
        ratio <= WORK_BOUND,
        "{label}: the fleet did {ratio:.3}x the monolith's accumulations"
    );
    ratio
}

/// Thin lists — ≈ 170 records a cluster, so the monolith's gate opens
/// while a shard's share of a list (≈ 24 at S = 7) never would — with
/// tails and tombstones: every fleet read path does the monolith's work
/// at S ∈ {1, 2, 4, 7}.
#[test]
fn fused_fleet_reads_do_the_monoliths_work_on_thin_lists() {
    const K: usize = 20;
    let ds = DatasetProfile::DeepLike
        .generate(6_000, 24, 43)
        .expect("dataset");
    let extra = DatasetProfile::DeepLike
        .generate(240, 1, 43 ^ 0xFFFF)
        .expect("extra");
    let base = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 36,
            nprobs: 8,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("build");
    // Inserts land in tails (tombstoned on every shard but the owner);
    // removes tombstone base and tail records alike.
    let mutate = |index: &mut dyn AnnIndex| {
        for (i, row) in extra.points.iter().enumerate() {
            index.insert(row).expect("insert");
            index.remove((i * 23 % 6_000) as u64).expect("remove");
        }
        for id in (6_000..6_240).step_by(5) {
            index.remove(id).expect("remove an insert");
        }
    };
    let mut monolith = base.clone();
    mutate(&mut monolith);
    assert!(monolith.list_codes().stored_tombstones() > 0);
    let want_one = search_all(&monolith, &ds.queries, K);
    let want_batch = monolith
        .search_batch_threads(&ds.queries, K, 2)
        .expect("monolith batch");

    for shards in [1usize, 2, 4, 7] {
        let mut fleet =
            ShardedIndex::from_monolith(base.clone(), shards, ShardRouter::Hash { seed: 17 })
                .expect("fleet");
        mutate(&mut fleet);
        let reader = fleet.reader();
        let label = format!("S={shards}");
        let singles: Vec<SearchResult> = ds
            .queries
            .iter()
            .map(|q| reader.search(q, K).expect("search"))
            .collect();
        let one = assert_monolith_work(&want_one, &singles, &format!("{label} search"));
        let batch = reader
            .search_batch_threads(&ds.queries, K, 2)
            .expect("batch");
        let grouped = assert_monolith_work(&want_batch, &batch, &format!("{label} batch"));
        let deadline = reader
            .search_batch_deadline(&ds.queries, K, BUDGET)
            .expect("deadline batch");
        assert!(deadline.is_complete(), "{label}: a shard was lost");
        assert_monolith_work(&want_batch, &deadline.results, &format!("{label} deadline"));
        eprintln!(
            "{label}: fleet / monolith accumulations {one:.3} (one by one), {grouped:.3} (batch)"
        );
    }
}

/// The ledger's online shape: 20k DEEP-like points, 141 lists, nprobs 8,
/// 48 × 64 codes, k = 100, 4 hash shards. The shards scanned apart did
/// 2.7× the monolith's accumulations here.
#[test]
fn the_online_shape_reads_at_the_monoliths_work() {
    const K: usize = 100;
    let ds = DatasetProfile::DeepLike
        .generate(20_000, 64, 1)
        .expect("dataset");
    let monolith = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 141,
            nprobs: 8,
            pq_subspaces: 48,
            pq_entries: 64,
            metric: Metric::L2,
            quality: QualityMode::High,
            threshold_train_samples: 128,
            ..JunoConfig::default()
        },
    )
    .expect("build");
    let fleet = ShardedIndex::from_monolith(monolith.clone(), 4, ShardRouter::Hash { seed: 3 })
        .expect("fleet");
    let reader = fleet.reader();
    let want = search_all(&monolith, &ds.queries, K);
    let got: Vec<SearchResult> = ds
        .queries
        .iter()
        .map(|q| reader.search(q, K).expect("search"))
        .collect();
    let ratio = assert_monolith_work(&want, &got, "online shape");
    let apart: usize = (0..reader.num_shards())
        .map(|s| accumulations(&search_all(reader.shard(s).index(), &ds.queries, K)))
        .sum();
    eprintln!(
        "online shape: fused fleet / monolith accumulations {ratio:.3}; shards scanned apart {:.3}",
        apart as f64 / accumulations(&want) as f64
    );
}
