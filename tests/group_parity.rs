//! Differential suite for cluster-major grouped batch execution.
//!
//! The grouped executor (`search_batch` / `search_batch_threads` on JUNO and
//! the IVFPQ baseline, and through them the sharded `FleetReader` scatter
//! path) visits clusters in storage order and serves whole query groups from
//! one pass over each cluster's codes. This suite drives randomized
//! workloads — batch sizes 1..=97 with heavily overlapping probes,
//! interleaved mutation and compaction, the fast-scan prune pass toggled on
//! and off, every quality mode, and S ∈ {1, 4} sharded fleets — and asserts
//! the contract: final ids **and distance bits** are identical to the
//! sequential per-query reference path, and `SearchStats.candidates` (with
//! the stage times derived from it) is invariant to the execution strategy.
//!
//! Inserted vectors deliberately include exact copies of indexed points:
//! identical PQ codes produce exact score ties, which only rank
//! deterministically because top-k selection breaks boundary ties by id —
//! the order-invariance property grouped execution is built on.

mod common;

use common::{assert_bit_identical, search_all, Stats};
use juno::baseline::ivfpq::{IvfPqConfig, IvfPqIndex};
use juno::common::index::{AnnIndex, SearchResult};
use juno::common::rng::{seeded, Rng};
use juno::common::vector::VectorSet;
use juno::core::config::{JunoConfig, QualityMode};
use juno::core::engine::JunoIndex;
use juno::data::profiles::DatasetProfile;
use juno::serve::{ShardRouter, ShardedIndex};

/// Draws a random batch (1..=97 queries, with repeats so probe sets overlap
/// heavily) from a query pool.
fn random_batch(pool: &VectorSet, rng: &mut impl Rng) -> VectorSet {
    let size = rng.gen_range(1..=97usize);
    let rows: Vec<Vec<f32>> = (0..size)
        .map(|_| {
            pool.row(rng.gen_range(0..pool.len() as u32) as usize)
                .to_vec()
        })
        .collect();
    VectorSet::from_rows(rows).unwrap()
}

#[test]
fn juno_grouped_batches_match_sequential_under_random_mutation() {
    let ds = DatasetProfile::DeepLike
        .generate(3_000, 32, 20_260_729)
        .unwrap();
    let extra = DatasetProfile::DeepLike.generate(240, 1, 777).unwrap();
    let config = JunoConfig {
        n_clusters: 32,
        nprobs: 8,
        pq_entries: 64,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let mut index = JunoIndex::build(&ds.points, &config).unwrap();
    let mut rng = seeded(0x9E0);
    let mut extra_at = 0usize;

    for round in 0..9u64 {
        let mode = [QualityMode::High, QualityMode::Medium, QualityMode::Low][round as usize % 3];
        index.set_quality(mode);
        index.set_fastscan(round % 2 == 0);
        let batch = random_batch(&ds.queries, &mut rng);
        let k = rng.gen_range(1..=60usize);
        let threads = [1usize, 3, 8][round as usize % 3];

        let seq: Vec<SearchResult> = batch.iter().map(|q| index.search(q, k).unwrap()).collect();
        let grp = index.search_batch_threads(&batch, k, threads).unwrap();
        assert_bit_identical(
            &seq,
            &grp,
            Stats::Invariant,
            &format!(
                "JUNO round {round} {mode:?} fastscan={} k={k}",
                round % 2 == 0
            ),
        );

        // The seed pass is the query-major visit of probe 0 alone — what the
        // same index answers with one probe. It starts from an empty
        // selector and still prunes; its k-th score is the bound every
        // chunk visit prunes against, so it must not depend on the toggle.
        if mode == QualityMode::High {
            index.set_nprobs(1);
            index.set_fastscan(true);
            let pruned = search_all(&index, &batch, 10);
            index.set_fastscan(false);
            let exact = search_all(&index, &batch, 10);
            index.set_nprobs(config.nprobs);
            assert_bit_identical(
                &pruned,
                &exact,
                Stats::Any,
                &format!("JUNO round {round} seed pass"),
            );
            assert!(
                pruned.iter().any(|r| r.stats.pruned_points > 0),
                "round {round}: no seed pass ran pruned"
            );
        }

        // Interleaved mutation: tombstone a random spread, insert fresh
        // points AND exact duplicates of indexed points (score-tie
        // stressors), occasionally compact.
        for _ in 0..rng.gen_range(0..40usize) {
            let id = rng.gen_range(0..index.list_codes().next_id());
            let _ = index.remove(id as u64).unwrap();
        }
        for _ in 0..rng.gen_range(0..20usize) {
            index
                .insert(extra.points.row(extra_at % extra.points.len()))
                .unwrap();
            extra_at += 1;
        }
        for _ in 0..rng.gen_range(0..6usize) {
            let dup = rng.gen_range(0..ds.points.len() as u32) as usize;
            index.insert(ds.points.row(dup)).unwrap();
        }
        if round % 4 == 3 {
            index.compact().unwrap();
        }
    }
}

#[test]
fn ivfpq_grouped_batches_match_sequential_under_random_mutation() {
    let ds = DatasetProfile::DeepLike.generate(2_500, 24, 4_242).unwrap();
    let cfg = IvfPqConfig {
        n_clusters: 24,
        nprobs: 8,
        pq_subspaces: 48,
        pq_entries: 64,
        metric: ds.metric(),
        seed: 31,
    };
    let mut index = IvfPqIndex::build(&ds.points, &cfg).unwrap();
    let mut rng = seeded(0x1F2);

    for round in 0..6u64 {
        index.set_fastscan(round % 2 == 0);
        let batch = random_batch(&ds.queries, &mut rng);
        let k = rng.gen_range(1..=60usize);
        let seq: Vec<SearchResult> = batch.iter().map(|q| index.search(q, k).unwrap()).collect();
        let grp = index
            .search_batch_threads(&batch, k, [1usize, 3, 8][round as usize % 3])
            .unwrap();
        assert_bit_identical(
            &seq,
            &grp,
            Stats::Invariant,
            &format!("IVFPQ round {round} k={k}"),
        );

        for _ in 0..rng.gen_range(0..25usize) {
            let id = rng.gen_range(0..index.len() as u32);
            let _ = index.remove(id as u64).unwrap();
        }
        for _ in 0..rng.gen_range(0..8usize) {
            let dup = rng.gen_range(0..ds.points.len() as u32) as usize;
            index.insert(ds.points.row(dup)).unwrap();
        }

        // Interleaved compaction: bit-invisible, and it folds the tails of
        // the probed clusters back under the prune pass.
        if round % 2 == 1 {
            index.set_fastscan(true);
            // A copy of the batch's first query lands in (and leaves a tail
            // on) the cluster that query probes first.
            index.insert(batch.row(0)).unwrap();
            let nearest = index.ivf().filter(batch.row(0), 1).unwrap().clusters[0];
            assert!(!index.list_codes().cluster_tail(nearest).0.is_empty());

            let before = index.search_batch_threads(&batch, k, 3).unwrap();
            index.compact().unwrap();
            let after = index.search_batch_threads(&batch, k, 3).unwrap();
            assert_bit_identical(
                &before,
                &after,
                Stats::Any,
                &format!("IVFPQ round {round} compaction"),
            );
            assert_eq!(index.list_codes().stored_tombstones(), 0);
            assert!(index.list_codes().cluster_tail(nearest).0.is_empty());
            let sum = |rs: &[SearchResult], f: fn(&SearchResult) -> usize| -> usize {
                rs.iter().map(f).sum()
            };
            // Tombstoned records count as candidates until compacted away.
            assert!(sum(&after, |r| r.stats.candidates) <= sum(&before, |r| r.stats.candidates));
            assert!(
                sum(&after, |r| r.stats.pruned_points) > 0,
                "round {round}: the compacted block view is not being pruned"
            );
            let seq: Vec<SearchResult> =
                batch.iter().map(|q| index.search(q, k).unwrap()).collect();
            assert_bit_identical(
                &seq,
                &after,
                Stats::Invariant,
                &format!("IVFPQ round {round} compacted"),
            );
        }
    }
}

#[test]
fn sharded_fleets_serve_grouped_batches_bit_identically() {
    let ds = DatasetProfile::DeepLike.generate(2_500, 24, 555).unwrap();
    let config = JunoConfig {
        n_clusters: 32,
        nprobs: 8,
        pq_entries: 64,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let monolith = JunoIndex::build(&ds.points, &config).unwrap();
    let mut rng = seeded(0x5EED);

    for shards in [1usize, 4] {
        let fleet =
            ShardedIndex::from_monolith(monolith.clone(), shards, ShardRouter::Hash { seed: 9 })
                .unwrap();
        // Mutate the fleet so shard-local tails/tombstones are in play.
        for i in 0..30 {
            fleet.insert_shared(ds.points.row(i * 11)).unwrap();
        }
        for id in (0..200u64).step_by(9) {
            let _ = fleet.remove_shared(id).unwrap();
        }
        let reader = fleet.reader();
        for round in 0..3 {
            let batch = random_batch(&ds.queries, &mut rng);
            let k = rng.gen_range(1..=50usize);
            // Per-shard grouped batches must gather to exactly what the
            // same pinned reader answers query by query.
            let seq: Vec<SearchResult> =
                batch.iter().map(|q| reader.search(q, k).unwrap()).collect();
            let grp = reader.search_batch_threads(&batch, k, 4).unwrap();
            assert_bit_identical(
                &seq,
                &grp,
                Stats::Invariant,
                &format!("fleet S={shards} round {round} k={k}"),
            );
        }
    }
}
