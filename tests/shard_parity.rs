//! Shard-parity differential suite: scatter-gather search over a
//! [`ShardedIndex`] must return ids **and distance bits** identical to the
//! monolithic index on the same data — at S ∈ {1, 2, 4, 7}, across both
//! routers, both metrics, every quality mode, fast-scan on/off, and after
//! interleaved insert / remove / compaction applied identically to fleet
//! and monolith.
//!
//! Why this holds: global-id fleets are replicas sharing the monolith's
//! trained state (centroids, codebooks, threshold density maps) with
//! non-owned ids tombstoned, every insert lands on every replica (non-owners
//! tombstone it in the same publish), and per-shard top-k lists merge under
//! the deterministic tie-by-id total order. Engines that cannot tombstone
//! (Flat, HNSW, IVF-Flat) shard via pre-partitioned mapped fleets: exact
//! engines stay bit-identical, approximate ones are held to recall floors.

mod common;

use common::{assert_bit_identical, search_all, Stats};
use juno::baseline::ivf_flat::{IvfFlatConfig, IvfFlatIndex};
use juno::common::recall::recall_at;
use juno::common::rng::{seeded, Rng};
use juno::prelude::*;
use juno::serve::{ShardRouter, ShardedIndex};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn build_juno(ds: &juno::data::profiles::Dataset) -> JunoIndex {
    JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 16,
            nprobs: 6,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("juno build")
}

#[test]
fn juno_sharded_search_is_bit_identical_across_shard_counts_and_routers() {
    let ds = DatasetProfile::DeepLike
        .generate(1_500, 8, 2_027)
        .expect("ds");
    let monolith = build_juno(&ds);
    let reference = search_all(&monolith, &ds.queries, 25);
    for shards in SHARD_COUNTS {
        for router in [ShardRouter::Hash { seed: 11 }, ShardRouter::Modulo] {
            let fleet =
                ShardedIndex::from_monolith(monolith.clone(), shards, router).expect("fleet");
            assert_eq!(fleet.len(), monolith.len(), "S={shards} live count");
            assert_bit_identical(
                &reference,
                &search_all(&fleet, &ds.queries, 25),
                Stats::Any,
                &format!("juno S={shards} {router:?}"),
            );
            // The batched scatter-gather path is the single-query path.
            assert_bit_identical(
                &reference,
                &fleet.search_batch(&ds.queries, 25).expect("batch"),
                Stats::Any,
                &format!("juno batch S={shards} {router:?}"),
            );
        }
    }
}

#[test]
fn juno_sharded_parity_covers_quality_modes_and_fastscan_toggle() {
    let ds = DatasetProfile::DeepLike
        .generate(1_400, 6, 501)
        .expect("ds");
    let base = build_juno(&ds);
    for quality in [QualityMode::High, QualityMode::Medium, QualityMode::Low] {
        for fastscan in [true, false] {
            let mut monolith = base.clone();
            monolith.set_quality(quality);
            monolith.set_fastscan(fastscan);
            let fleet =
                ShardedIndex::from_monolith(monolith.clone(), 2, ShardRouter::Hash { seed: 4 })
                    .expect("fleet");
            assert_bit_identical(
                &search_all(&monolith, &ds.queries, 20),
                &search_all(&fleet, &ds.queries, 20),
                Stats::Any,
                &format!("juno {quality:?} fastscan={fastscan}"),
            );
        }
    }
}

#[test]
fn juno_sharded_parity_holds_under_mips() {
    let ds = DatasetProfile::TtiLike.generate(1_200, 6, 77).expect("ds");
    let monolith = build_juno(&ds);
    for shards in [2usize, 7] {
        let fleet = ShardedIndex::from_monolith(monolith.clone(), shards, ShardRouter::Modulo)
            .expect("fleet");
        assert_bit_identical(
            &search_all(&monolith, &ds.queries, 20),
            &search_all(&fleet, &ds.queries, 20),
            Stats::Any,
            &format!("juno MIPS S={shards}"),
        );
    }
}

#[test]
fn juno_sharded_parity_survives_interleaved_mutation_and_compaction() {
    let ds = DatasetProfile::DeepLike
        .generate(1_500, 8, 900)
        .expect("ds");
    let extra = DatasetProfile::DeepLike
        .generate(150, 1, 900 ^ 0xFFFF)
        .expect("extra");
    let mut monolith = build_juno(&ds);
    let fleet = ShardedIndex::from_monolith(monolith.clone(), 4, ShardRouter::Hash { seed: 21 })
        .expect("fleet");

    let mut rng = seeded(0x5AFE);
    let mut inserted = 0usize;
    for round in 0..3 {
        for _ in 0..30 {
            if rng.gen_range(0..2usize) == 0 && inserted < extra.points.len() {
                let v = extra.points.row(inserted);
                inserted += 1;
                let fleet_id = fleet.insert_shared(v).expect("fleet insert");
                let mono_id = monolith.insert(v).expect("mono insert");
                assert_eq!(fleet_id, mono_id, "id allocation must stay in lockstep");
            } else {
                let id = rng.gen_range(0..(ds.points.len() + inserted)) as u64;
                assert_eq!(
                    fleet.remove_shared(id).expect("fleet remove"),
                    monolith.remove(id).expect("mono remove"),
                    "remove({id})"
                );
            }
        }
        if round == 1 {
            fleet.compact_all_shared().expect("fleet compact");
            monolith.compact().expect("mono compact");
        }
        assert_eq!(fleet.len(), monolith.len(), "round {round} live count");
        assert_bit_identical(
            &search_all(&monolith, &ds.queries, 25),
            &search_all(&fleet, &ds.queries, 25),
            Stats::Any,
            &format!("juno mutated round {round}"),
        );
    }
}

#[test]
fn ivfpq_sharded_search_is_bit_identical_including_mutation_and_fastscan() {
    let ds = DatasetProfile::DeepLike.generate(1_500, 8, 31).expect("ds");
    let mut monolith = IvfPqIndex::build(
        &ds.points,
        &IvfPqConfig {
            n_clusters: 32,
            nprobs: 8,
            pq_subspaces: ds.dim() / 2,
            pq_entries: 32,
            metric: ds.metric(),
            seed: 31,
        },
    )
    .expect("ivfpq build");

    for shards in SHARD_COUNTS {
        let fleet = ShardedIndex::from_monolith(monolith.clone(), shards, ShardRouter::Modulo)
            .expect("fleet");
        assert_bit_identical(
            &search_all(&monolith, &ds.queries, 25),
            &search_all(&fleet, &ds.queries, 25),
            Stats::Any,
            &format!("ivfpq S={shards}"),
        );
    }

    // Fast-scan off → same reference path on both sides.
    let mut exact = monolith.clone();
    exact.set_fastscan(false);
    let fleet = ShardedIndex::from_monolith(exact.clone(), 4, ShardRouter::Hash { seed: 8 })
        .expect("fleet");
    assert_bit_identical(
        &search_all(&exact, &ds.queries, 25),
        &search_all(&fleet, &ds.queries, 25),
        Stats::Any,
        "ivfpq fastscan off",
    );

    // Interleaved mutation applied identically to fleet and monolith.
    let fleet = ShardedIndex::from_monolith(monolith.clone(), 3, ShardRouter::Hash { seed: 5 })
        .expect("fleet");
    let mut rng = seeded(404);
    for _ in 0..60 {
        if rng.gen_range(0..2usize) == 0 {
            let v = ds.points.row(rng.gen_range(0..ds.points.len()));
            assert_eq!(
                fleet.insert_shared(v).expect("fleet insert"),
                monolith.insert(v).expect("mono insert")
            );
        } else {
            let id = rng.gen_range(0..ds.points.len()) as u64;
            assert_eq!(
                fleet.remove_shared(id).expect("fleet remove"),
                monolith.remove(id).expect("mono remove")
            );
        }
    }
    assert_bit_identical(
        &search_all(&monolith, &ds.queries, 25),
        &search_all(&fleet, &ds.queries, 25),
        Stats::Any,
        "ivfpq mutated",
    );

    // Interleaved compaction rounds, applied to fleet and monolith alike:
    // bit-invisible on both, and sequential = grouped = S ∈ {1, 4} fleets on
    // the compacted state.
    for round in 0..2 {
        for i in 0..20 {
            let v = ds.points.row(rng.gen_range(0..ds.points.len()));
            fleet.insert_shared(v).expect("fleet insert");
            monolith.insert(v).expect("mono insert");
            let id = (round * 20 + i) as u64 * 7;
            assert_eq!(
                fleet.remove_shared(id).expect("fleet remove"),
                monolith.remove(id).expect("mono remove")
            );
        }
        let before = search_all(&monolith, &ds.queries, 25);
        monolith.compact().expect("mono compact");
        fleet.compact_all_shared().expect("fleet compact");
        let label = format!("ivfpq compaction round {round}");
        let after = search_all(&monolith, &ds.queries, 25);
        assert_bit_identical(&before, &after, Stats::Any, &label);
        assert_eq!(fleet.len(), monolith.len(), "{label}: live count");
        assert_bit_identical(
            &after,
            &search_all(&fleet, &ds.queries, 25),
            Stats::Any,
            &label,
        );
        assert_bit_identical(
            &after,
            &monolith
                .search_batch_threads(&ds.queries, 25, 3)
                .expect("grouped"),
            Stats::Invariant,
            &label,
        );
        for shards in [1usize, 4] {
            let fresh = ShardedIndex::from_monolith(monolith.clone(), shards, ShardRouter::Modulo)
                .expect("fleet");
            let label = format!("{label} S={shards}");
            assert_bit_identical(
                &after,
                &search_all(&fresh, &ds.queries, 25),
                Stats::Any,
                &label,
            );
            assert_bit_identical(
                &after,
                &fresh.search_batch(&ds.queries, 25).expect("fleet batch"),
                Stats::Any,
                &label,
            );
        }
    }
}

/// Partitions dataset rows into `shards` sub-indexes by hash of the global
/// id, each shard's rows ascending in global id (the mapped-mode parity
/// precondition).
fn partition_rows(
    points: &VectorSet,
    shards: usize,
    router: ShardRouter,
) -> Vec<(Vec<Vec<f32>>, Vec<u64>)> {
    let mut parts: Vec<(Vec<Vec<f32>>, Vec<u64>)> = vec![(Vec::new(), Vec::new()); shards];
    for (id, row) in points.iter().enumerate() {
        let s = router.route(id as u64, shards);
        parts[s].0.push(row.to_vec());
        parts[s].1.push(id as u64);
    }
    parts
}

#[test]
fn flat_mapped_fleets_are_bit_identical_to_the_monolith() {
    let ds = DatasetProfile::DeepLike.generate(1_200, 8, 64).expect("ds");
    let monolith = FlatIndex::new(ds.points.clone(), ds.metric()).expect("flat");
    let reference = search_all(&monolith, &ds.queries, 30);
    for shards in SHARD_COUNTS {
        let router = ShardRouter::Hash { seed: 2 };
        let parts = partition_rows(&ds.points, shards, router)
            .into_iter()
            .map(|(rows, map)| {
                let set = VectorSet::from_rows(rows).expect("rows");
                (FlatIndex::new(set, ds.metric()).expect("flat shard"), map)
            })
            .collect();
        let fleet = ShardedIndex::from_prebuilt(parts, router).expect("fleet");
        assert_eq!(fleet.len(), monolith.len());
        assert_bit_identical(
            &reference,
            &search_all(&fleet, &ds.queries, 30),
            Stats::Any,
            &format!("flat S={shards}"),
        );
    }
}

#[test]
fn mapped_fleets_of_approximate_engines_hold_their_recall_floors() {
    // IVF-Flat and HNSW cannot tombstone, so their shards are trained
    // independently on the partition — no bit-parity contract, but the
    // union-of-shards search must not lose recall against the monolith
    // (it probes proportionally more of each sub-index).
    let ds = DatasetProfile::DeepLike
        .generate(2_000, 10, 12)
        .expect("ds");
    let gt = ds.ground_truth(10).expect("gt");
    let router = ShardRouter::Modulo;

    let recall_of = |index: &dyn AnnIndex| {
        let retrieved: Vec<Vec<u64>> = ds
            .queries
            .iter()
            .map(|q| index.search(q, 100).expect("search").ids())
            .collect();
        recall_at(&retrieved, &gt, 10, 100).expect("recall")
    };

    let mono_ivf = IvfFlatIndex::build(
        ds.points.clone(),
        &IvfFlatConfig {
            n_clusters: 32,
            nprobs: 8,
            metric: ds.metric(),
            seed: 1,
        },
    )
    .expect("ivf_flat");
    let ivf_parts = partition_rows(&ds.points, 4, router)
        .into_iter()
        .map(|(rows, map)| {
            let set = VectorSet::from_rows(rows).expect("rows");
            let shard = IvfFlatIndex::build(
                set,
                &IvfFlatConfig {
                    n_clusters: 8,
                    nprobs: 2,
                    metric: ds.metric(),
                    seed: 1,
                },
            )
            .expect("ivf_flat shard");
            (shard, map)
        })
        .collect();
    let ivf_fleet = ShardedIndex::from_prebuilt(ivf_parts, router).expect("ivf fleet");
    let (mono_r, fleet_r) = (recall_of(&mono_ivf), recall_of(&ivf_fleet));
    println!("sharded ivf_flat recall@10@100: monolith = {mono_r:.4}, fleet = {fleet_r:.4}");
    assert!(fleet_r >= mono_r - 0.05, "sharded ivf_flat lost recall");
    assert!(fleet_r >= 0.80, "sharded ivf_flat below absolute floor");

    let mono_hnsw = HnswIndex::build(
        ds.points.clone(),
        &HnswConfig {
            metric: ds.metric(),
            ..HnswConfig::default()
        },
    )
    .expect("hnsw");
    let hnsw_parts = partition_rows(&ds.points, 4, router)
        .into_iter()
        .map(|(rows, map)| {
            let set = VectorSet::from_rows(rows).expect("rows");
            let shard = HnswIndex::build(
                set,
                &HnswConfig {
                    metric: ds.metric(),
                    ..HnswConfig::default()
                },
            )
            .expect("hnsw shard");
            (shard, map)
        })
        .collect();
    let hnsw_fleet = ShardedIndex::from_prebuilt(hnsw_parts, router).expect("hnsw fleet");
    let (mono_r, fleet_r) = (recall_of(&mono_hnsw), recall_of(&hnsw_fleet));
    println!("sharded hnsw recall@10@100: monolith = {mono_r:.4}, fleet = {fleet_r:.4}");
    assert!(fleet_r >= mono_r - 0.05, "sharded hnsw lost recall");
    assert!(fleet_r >= 0.80, "sharded hnsw below absolute floor");

    // Engines without tombstoning cannot form global-id fleets at S > 1.
    assert!(matches!(
        ShardedIndex::from_monolith(mono_hnsw, 2, router),
        Err(juno::common::Error::Unsupported(_))
    ));
}

/// Shard split and merge under a mutating fleet preserve the bit-identical
/// merge contract: the post-split (and post-merge) fleet returns the same
/// ids and distance bits as a monolith mutated identically, id allocation
/// stays in lockstep across topology changes, and the shard count actually
/// transitions. Split/merge is pure snapshot surgery over the shared
/// trained state — no retraining, so exactness is a hard contract, not a
/// recall floor.
#[test]
fn juno_split_and_merge_preserve_bit_identical_parity_with_the_monolith() {
    let ds = DatasetProfile::DeepLike
        .generate(1_500, 8, 412)
        .expect("ds");
    let extra = DatasetProfile::DeepLike
        .generate(200, 1, 412 ^ 0xFFFF)
        .expect("extra");
    let mut monolith = build_juno(&ds);
    let fleet = ShardedIndex::from_monolith(monolith.clone(), 3, ShardRouter::Hash { seed: 33 })
        .expect("fleet");

    let mut rng = seeded(0x5917);
    let mut inserted = 0usize;
    let mut mutate = |fleet: &ShardedIndex<JunoIndex>, monolith: &mut JunoIndex, ops: usize| {
        for _ in 0..ops {
            if rng.gen_range(0..2usize) == 0 && inserted < extra.points.len() {
                let v = extra.points.row(inserted);
                inserted += 1;
                let fleet_id = fleet.insert_shared(v).expect("fleet insert");
                let mono_id = monolith.insert(v).expect("mono insert");
                assert_eq!(fleet_id, mono_id, "id allocation lockstep");
            } else {
                let id = rng.gen_range(0..(ds.points.len() + inserted)) as u64;
                assert_eq!(
                    fleet.remove_shared(id).expect("fleet remove"),
                    monolith.remove(id).expect("mono remove"),
                    "remove({id})"
                );
            }
        }
    };

    // Mutate, then split twice under the live fleet: 3 -> 4 -> 5 shards.
    mutate(&fleet, &mut monolith, 40);
    for expected in [4usize, 5] {
        fleet.resize_shards(expected).expect("split");
        assert_eq!(fleet.num_shards(), expected);
        assert_eq!(fleet.len(), monolith.len(), "S={expected} live count");
        assert_bit_identical(
            &search_all(&monolith, &ds.queries, 25),
            &search_all(&fleet, &ds.queries, 25),
            Stats::Any,
            &format!("post-split S={expected}"),
        );
        mutate(&fleet, &mut monolith, 20);
    }

    // Merge all the way back down to a single shard, mutating throughout.
    for expected in [4usize, 3, 2, 1] {
        fleet.resize_shards(expected).expect("merge");
        assert_eq!(fleet.num_shards(), expected);
        mutate(&fleet, &mut monolith, 10);
        assert_bit_identical(
            &search_all(&monolith, &ds.queries, 25),
            &search_all(&fleet, &ds.queries, 25),
            Stats::Any,
            &format!("post-merge S={expected}"),
        );
    }
    assert!(
        fleet.resize_shards(0).is_err(),
        "cannot merge below one shard"
    );

    // Allocator probe: the next insert allocates the same id on both sides
    // even after six topology changes.
    let probe = extra.points.row(extra.points.len() - 1);
    assert_eq!(
        fleet.insert_shared(probe).expect("fleet probe"),
        monolith.insert(probe).expect("mono probe"),
        "allocator survives split/merge"
    );
    assert_bit_identical(
        &search_all(&monolith, &ds.queries, 25),
        &search_all(&fleet, &ds.queries, 25),
        Stats::Any,
        "final parity",
    );
}
