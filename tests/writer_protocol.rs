//! The writer protocol, held from the outside where the fleet oracle
//! (`tests/fleet_oracle.rs`) cannot: the one protocol that holds the writer
//! lock through a whole retrain — `rebuild_shared` without a WAL — leaves
//! every reader untouched, even one pinned while the rebuild is stalled
//! inside the lock.

mod common;

use common::{assert_bit_identical, Stats};
use juno::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 3;
const SEED: u64 = 0x57A6_ED00;

/// Without a WAL there is no log to replay from, so `rebuild_shared` holds
/// the writer lock from pin to swap. Readers take no part in that lock: one
/// pinned before the rebuild and one pinned while it is stalled inside the
/// lock both answer with the pre-rebuild bits.
#[test]
fn rebuild_without_a_wal_never_blocks_readers() {
    let ds = DatasetProfile::DeepLike
        .generate(160, 8, SEED)
        .expect("dataset");
    let engine = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 8,
            nprobs: 4,
            pq_entries: 16,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("build");
    let router = ShardRouter::Hash { seed: 13 };
    let fleet = Arc::new(ShardedIndex::from_monolith(engine, SHARDS, router).expect("fleet"));
    let answers = |reader: &FleetReader<JunoIndex>| -> Vec<SearchResult> {
        ds.queries
            .iter()
            .map(|q| reader.search(q, 10).expect("search"))
            .collect()
    };
    let before = fleet.reader();
    let want = answers(&before);

    let stall = Arc::new(FaultPlan::new(SHARDS).with_rule(FaultRule {
        shard: 0,
        op: FaultOp::RebuildTrain,
        from_op: 0,
        until_op: Some(1),
        kind: FaultKind::Stall(Duration::from_millis(1500)),
    }));
    fleet.set_fault_plan(Some(stall.clone()));
    let rebuilder = {
        let fleet = fleet.clone();
        std::thread::spawn(move || fleet.rebuild_shared())
    };
    while stall.op_count(0, FaultOp::RebuildTrain) == 0 {
        std::thread::yield_now();
    }
    let during = fleet.reader();
    assert_bit_identical(&answers(&before), &want, Stats::Any, "pinned before");
    assert_bit_identical(&answers(&during), &want, Stats::Any, "pinned during");
    assert!(
        !rebuilder.is_finished(),
        "the reads must be answered while the rebuild is still stalled"
    );
    rebuilder.join().expect("rebuild thread").expect("rebuild");
}
