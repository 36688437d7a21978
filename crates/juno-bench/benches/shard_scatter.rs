//! Serving-layer benchmark: scatter-gather QPS of the sharded fleet versus
//! the monolithic index, shard-count scaling, and query throughput while a
//! writer churns the fleet (the QPS-under-mutation serving scenario).
//!
//! The CI gate reads group `sharded_qps`: the single-shard fleet must keep
//! ≥ 0.9× the monolith's batch throughput (the adapter's scatter + merge
//! overhead budget). Record a baseline with
//! `JUNO_BENCH_JSON=BENCH_pr4.json cargo bench --bench shard_scatter`.
//! NOTE: shard scaling numbers on a 1-core container only measure overhead;
//! read thread scaling from the CI bench job's multi-core runners.

use juno_bench::harness::{black_box, Harness};
use juno_bench::setup::{build_fixture, BenchScale};
use juno_common::index::AnnIndex;
use juno_data::profiles::DatasetProfile;
use juno_serve::{ShardRouter, ShardedIndex};
use std::time::Duration;

fn main() {
    let scale = BenchScale {
        points: 10_000,
        queries: 64,
    };
    let profile = DatasetProfile::DeepLike;
    let fixture = build_fixture(profile, scale, 10, 47).expect("fixture");
    let queries = fixture.dataset.queries.clone();
    let monolith = &fixture.juno;

    let mut h = Harness::new("shard_scatter");

    // Adapter overhead at S = 1: the fleet pays one reader pin, one
    // pass-through merge and the stats gather on top of the engine's own
    // batched scan. This is the CI-gated pair.
    {
        let fleet1 =
            ShardedIndex::from_monolith(monolith.clone(), 1, ShardRouter::Hash { seed: 3 })
                .expect("fleet S=1");
        let mut group = h.group("sharded_qps");
        group.sample_time(Duration::from_millis(600)).samples(10);
        group.bench("monolith_batch64", || {
            monolith
                .search_batch(black_box(&queries), 100)
                .expect("batch")
                .len()
        });
        let fleet_ref = &fleet1;
        let q = queries.clone();
        group.bench("sharded_s1_batch64", move || {
            fleet_ref
                .search_batch(black_box(&q), 100)
                .expect("batch")
                .len()
        });
    }

    // Shard-count sweep: the batch is planned once for the whole fleet, so
    // what grows with S is the per-shard fixed cost of a scan (slot
    // expansion per probed cluster, scheduling, the gather); on multi-core
    // runners the shards' scans spread across the pool. CI holds S=4 to
    // 1.5x the monolith.
    {
        let mut group = h.group("sharded_scaling");
        group.sample_time(Duration::from_millis(600)).samples(10);
        for shards in [2usize, 4] {
            let fleet = ShardedIndex::from_monolith(
                monolith.clone(),
                shards,
                ShardRouter::Hash { seed: 3 },
            )
            .expect("fleet");
            let q = queries.clone();
            let label = format!("sharded_s{shards}_batch64");
            group.bench(label, move || {
                fleet.search_batch(black_box(&q), 100).expect("batch").len()
            });
        }
    }

    // QPS under mutation: a serving node answering batches while a writer
    // interleaves clone-and-publish inserts and removes. The monolith pair
    // mutates in place (its cheaper write, but reads exclude writes); the
    // fleet pays the replica clones yet keeps readers lock-free.
    {
        let pool = profile.generate(2_048, 1, 147).expect("pool").points;
        let sub_queries = queries.select(&(0..16).collect::<Vec<_>>()).expect("sub");
        let mut group = h.group("qps_under_mutation");
        group.sample_time(Duration::from_millis(800)).samples(10);

        let mut mono = monolith.clone();
        let mono_pool = pool.clone();
        let mono_queries = sub_queries.clone();
        let mut at = 0usize;
        group.bench("monolith_insert2_remove1_batch16", move || {
            mono.insert(mono_pool.row(at % mono_pool.len()))
                .expect("insert");
            mono.insert(mono_pool.row((at + 1) % mono_pool.len()))
                .expect("insert");
            mono.remove((at % 9_000) as u64).expect("remove");
            at += 3;
            mono.search_batch(black_box(&mono_queries), 100)
                .expect("batch")
                .len()
        });

        let fleet = ShardedIndex::from_monolith(monolith.clone(), 2, ShardRouter::Hash { seed: 3 })
            .expect("fleet");
        let fleet_pool = pool;
        let fleet_queries = sub_queries;
        let mut at = 0usize;
        group.bench("sharded_s2_insert2_remove1_batch16", move || {
            let rows = vec![
                fleet_pool.row(at % fleet_pool.len()).to_vec(),
                fleet_pool.row((at + 1) % fleet_pool.len()).to_vec(),
            ];
            let batch = juno_common::vector::VectorSet::from_rows(rows).expect("rows");
            fleet.insert_batch_shared(&batch).expect("insert");
            fleet.remove_shared((at % 9_000) as u64).expect("remove");
            at += 3;
            fleet
                .search_batch(black_box(&fleet_queries), 100)
                .expect("batch")
                .len()
        });
    }

    // Snapshot cost of the whole fleet (the restart-without-rebuild path,
    // now per shard).
    {
        let fleet = ShardedIndex::from_monolith(monolith.clone(), 2, ShardRouter::Hash { seed: 3 })
            .expect("fleet");
        let bytes = fleet.to_snapshot_bytes().expect("snapshot");
        println!(
            "fleet snapshot size for {} points over {} shards: {:.2} MiB",
            fleet.len(),
            fleet.num_shards(),
            bytes.len() as f64 / (1024.0 * 1024.0)
        );
        let proto = monolith.clone();
        let mut group = h.group("fleet_snapshot");
        group.sample_time(Duration::from_millis(400)).samples(10);
        let fleet_ref = &fleet;
        group.bench("serialize_s2", move || {
            fleet_ref.to_snapshot_bytes().expect("snapshot").len()
        });
        group.bench("deserialize_s2", move || {
            ShardedIndex::from_snapshot_bytes(proto.clone(), black_box(&bytes))
                .expect("restore")
                .len()
        });
    }

    h.finish();
}
