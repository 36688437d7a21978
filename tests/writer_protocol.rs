//! The writer protocol, held from the outside.
//!
//! `juno-serve` states the write path once (`shard/write.rs`: one
//! `staged_publish`, one `apply` interpreter of a logged mutation, one
//! aborted-range filter). Two properties follow, and each has a test group:
//!
//! * **`fault_sites_*`** — every [`FaultOp`] has a live injection site, and
//!   the per-`(shard, op)` counts of one write are what the seeded kill
//!   points in `tests/crash_recovery.rs` and `tests/concurrent_stress.rs`
//!   index. Coverage is derived from [`FaultOp::ALL`], so an op added
//!   without a site — or a refactor that drops a site — fails here.
//! * **`interpreter_parity_*`** — one seeded op history means the same
//!   thing whichever of the three consumers of the interpreter runs it: the
//!   live write path, `recover_from_dir`'s replay, and `rebuild_shared`'s
//!   shadow replay. All three end bit-identical to each other and to a
//!   monolith that applied only the acknowledged ops.

mod common;

use common::{assert_bit_identical, search_all, Stats};
use juno::common::rng::{seeded, Rng};
use juno::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const BASE_POINTS: usize = 160;
const POOL_ROWS: usize = 96;
const SHARDS: usize = 3;
const SEED: u64 = 0x57A6_ED00;

fn build_engine() -> (JunoIndex, Dataset, VectorSet) {
    let ds = DatasetProfile::DeepLike
        .generate(BASE_POINTS, 8, SEED)
        .expect("dataset");
    let pool = DatasetProfile::DeepLike
        .generate(POOL_ROWS, 1, SEED ^ 0xFFFF)
        .expect("pool")
        .points;
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
    (engine, ds, pool)
}

fn fleet_of(engine: &JunoIndex) -> ShardedIndex<JunoIndex> {
    ShardedIndex::from_monolith(engine.clone(), SHARDS, ShardRouter::Hash { seed: 13 })
        .expect("fleet")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("juno_writer_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// Fault-site coverage, derived from the enum.
// ---------------------------------------------------------------------------

#[test]
fn fault_sites_cover_every_op_and_one_write_counts_as_pinned() {
    let (engine, ds, pool) = build_engine();
    let mut fleet = fleet_of(&engine);
    let dir = scratch_dir("sites");
    fleet
        .enable_wal(&dir, DurabilityConfig::default())
        .expect("enable_wal");
    // An empty plan never fires, but its counters tick at every site. One
    // shard wider than the fleet, for the split's new shard.
    let plan = Arc::new(FaultPlan::new(SHARDS + 1));
    fleet.set_fault_plan(Some(plan.clone()));
    let counts = |op: FaultOp| -> Vec<u64> {
        (0..plan.num_shards())
            .map(|s| plan.op_count(s, op))
            .collect()
    };

    // One 2-vector insert: staged once per shard, logged once for the
    // fleet, published once per shard.
    let batch = VectorSet::from_rows(vec![pool.row(0).to_vec(), pool.row(1).to_vec()]).unwrap();
    let ids = fleet.insert_batch_shared(&batch).expect("insert");
    assert_eq!(counts(FaultOp::Insert), [1, 1, 1, 0]);
    assert_eq!(counts(FaultOp::WalAppend), [1, 0, 0, 0]);
    assert_eq!(counts(FaultOp::Publish), [1, 1, 1, 0]);

    // One remove: the owner alone stages and publishes.
    let owner = fleet.router().route(ids[0], SHARDS);
    assert!(fleet.remove_shared(ids[0]).expect("remove"));
    let mut expected = vec![1u64, 1, 1, 0];
    expected[owner] += 1;
    assert_eq!(counts(FaultOp::Insert), expected);
    assert_eq!(counts(FaultOp::Publish), expected);
    assert_eq!(counts(FaultOp::WalAppend), [2, 0, 0, 0]);
    // Removing it again stages on the owner, finds nothing to change, and
    // neither logs nor publishes.
    assert!(!fleet.remove_shared(ids[0]).expect("dead remove"));
    expected[owner] += 1;
    assert_eq!(counts(FaultOp::Insert), expected);
    assert_eq!(counts(FaultOp::WalAppend), [2, 0, 0, 0]);
    expected[owner] -= 1;
    assert_eq!(counts(FaultOp::Publish), expected);

    // One of each remaining operation.
    let degraded = fleet
        .reader()
        .search_deadline(ds.queries.row(0), 10, Duration::from_secs(30))
        .expect("deadline search");
    assert!(degraded.is_complete());
    fleet.compact_all_shared().expect("compact");
    fleet.checkpoint().expect("checkpoint");
    fleet.rebuild_shared().expect("rebuild");
    fleet.split_shard().expect("split");
    let bytes = fleet.to_snapshot_bytes().expect("snapshot");
    fleet.restore_from_bytes(&bytes).expect("restore");

    for op in FaultOp::ALL {
        assert!(
            counts(op).iter().any(|&count| count > 0),
            "{op:?} has no live injection site (counters: {:?})",
            counts(op)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Interpreter parity: live staging, recovery replay, rebuild shadow replay.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    /// Insert pool row `i`.
    Insert(usize),
    /// Batch-insert three consecutive pool rows starting at `i`.
    Batch(usize),
    /// Remove an id — possibly one that is already dead or was never
    /// allocated.
    Remove(u64),
    Compact,
    /// A two-row batch whose publish fails on shard 1 *after* the WAL
    /// append: never acknowledged, rolled back, covered by an Abort.
    FailedBatch(usize),
}

fn history() -> Vec<Op> {
    let mut rng = seeded(SEED ^ 0x0915);
    let mut ops = Vec::new();
    let mut next_row = 0usize;
    let mut removed: Vec<u64> = Vec::new();
    for step in 0..30usize {
        let op = match (step, rng.gen_range(0..10u32)) {
            (14, _) => {
                next_row += 2;
                Op::FailedBatch(next_row - 2)
            }
            (_, 0..=3) => {
                next_row += 1;
                Op::Insert(next_row - 1)
            }
            (_, 4..=5) => {
                next_row += 3;
                Op::Batch(next_row - 3)
            }
            (_, 6) if !removed.is_empty() => Op::Remove(removed[0]), // dead
            (_, 7) => Op::Remove(9_999_999),                         // never allocated
            (_, 6 | 8) => {
                let id = rng.gen_range(0..BASE_POINTS as u64);
                removed.push(id);
                Op::Remove(id)
            }
            _ => Op::Compact,
        };
        ops.push(op);
    }
    assert!(next_row <= POOL_ROWS);
    // The seed must not draw a degenerate history.
    let is_remove_of = |op: &&Op, id: u64| matches!(op, Op::Remove(i) if *i == id);
    let removes_of = |id: u64| ops.iter().filter(|op| is_remove_of(op, id)).count();
    assert!(
        removes_of(9_999_999) >= 1,
        "no never-allocated remove: {ops:?}"
    );
    assert!(removes_of(removed[0]) >= 2, "no repeated remove: {ops:?}");
    for kind in [Op::Insert(0), Op::Batch(0), Op::Compact] {
        let same = |op: &Op| std::mem::discriminant(op) == std::mem::discriminant(&kind);
        assert!(ops.iter().any(same), "history has no {kind:?}: {ops:?}");
    }
    ops
}

fn rows(pool: &VectorSet, from: usize, n: usize) -> VectorSet {
    VectorSet::from_rows((from..from + n).map(|i| pool.row(i).to_vec()).collect()).unwrap()
}

/// Applies the history to a fleet through the live write path. Returns how
/// many logged mutations a replay of it must apply (one per inserted
/// vector, one per removal of a live id).
fn apply_to_fleet(fleet: &ShardedIndex<JunoIndex>, pool: &VectorSet, ops: &[Op]) -> u64 {
    let mut replayable = 0u64;
    for op in ops {
        match op {
            Op::Insert(i) => {
                fleet.insert_shared(pool.row(*i)).expect("insert");
                replayable += 1;
            }
            Op::Batch(i) => {
                fleet
                    .insert_batch_shared(&rows(pool, *i, 3))
                    .expect("batch");
                replayable += 3;
            }
            Op::Remove(id) => replayable += u64::from(fleet.remove_shared(*id).expect("remove")),
            Op::Compact => fleet.compact_all_shared().expect("compact"),
            Op::FailedBatch(i) => {
                let before = fleet.shard_epochs();
                let fail = FaultPlan::new(SHARDS).with_rule(FaultRule {
                    shard: 1,
                    op: FaultOp::Publish,
                    from_op: 0,
                    until_op: None,
                    kind: FaultKind::Fail,
                });
                fleet.set_fault_plan(Some(Arc::new(fail)));
                assert!(fleet.insert_batch_shared(&rows(pool, *i, 2)).is_err());
                fleet.set_fault_plan(None);
                assert_eq!(fleet.shard_epochs(), before, "mid-publish rollback");
            }
        }
    }
    replayable
}

/// The same history on a bare engine: only what the fleets acknowledged.
fn apply_to_monolith(mono: &mut JunoIndex, pool: &VectorSet, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(i) => drop(mono.insert(pool.row(*i)).expect("insert")),
            Op::Batch(i) => {
                for row in *i..*i + 3 {
                    mono.insert(pool.row(row)).expect("batch row");
                }
            }
            Op::Remove(id) => drop(mono.remove(*id).expect("remove")),
            Op::Compact => mono.compact().expect("compact"),
            Op::FailedBatch(_) => {}
        }
    }
}

/// Ids and, for every dataset query, neighbour ids and distance bits.
fn assert_equivalent(a: &dyn AnnIndex, b: &dyn AnnIndex, ds: &Dataset, label: &str) {
    assert_eq!(a.ids(), b.ids(), "{label}: ids");
    let (got, want) = (
        search_all(a, &ds.queries, 10),
        search_all(b, &ds.queries, 10),
    );
    assert_bit_identical(&got, &want, Stats::Any, label);
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read_dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
    }
}

#[test]
fn interpreter_parity_live_recovered_and_rebuilt_fleets_agree_with_a_monolith() {
    let (engine, ds, pool) = build_engine();
    let ops = history();

    // The monolith: the fresh lineage every fleet below ends on, then the
    // acknowledged history applied directly to the engine.
    let mut mono = engine.rebuild_for_live(&engine.ids()).expect("rebuild");
    apply_to_monolith(&mut mono, &pool, &ops);

    // Live: rebuild first (nothing to replay), then the history through the
    // live write path.
    let live = fleet_of(&engine);
    let live_dir = scratch_dir("parity_live");
    live.enable_wal(&live_dir, DurabilityConfig::default())
        .expect("enable_wal");
    let report = live.rebuild_shared().expect("quiescent rebuild");
    assert_eq!(report.replayed_ops, 0);
    let replayable = apply_to_fleet(&live, &pool, &ops);

    // Recovered: the live fleet's directory, replayed by recovery on top of
    // the rebuild's sealing checkpoint.
    let recovered_dir = scratch_dir("parity_recovered");
    copy_dir(&live_dir, &recovered_dir);
    let (recovered, recovery) =
        ShardedIndex::recover_from_dir(engine.clone(), &recovered_dir, DurabilityConfig::default())
            .expect("recover");
    assert_eq!(
        recovery.skipped_aborted, 2,
        "the failed batch's two records"
    );
    let compactions = ops.iter().filter(|op| matches!(op, Op::Compact)).count() as u64;
    // Recovery also re-runs the logged sweeps (a sweep over all-clean shards
    // logs nothing, so this is an upper bound, tight when every sweep had
    // something to do).
    assert!(recovery.replayed_ops >= replayable);
    assert!(recovery.replayed_ops <= replayable + compactions);

    // Rebuilt: the training snapshot is pinned *before* the history (the
    // rebuild stalls at its first injection point, holding no lock), so the
    // whole history lands in the log behind it and reaches the new lineage
    // only through the shadow replay.
    let shadowed = Arc::new(fleet_of(&engine));
    let shadowed_dir = scratch_dir("parity_shadowed");
    shadowed
        .enable_wal(&shadowed_dir, DurabilityConfig::default())
        .expect("enable_wal");
    let stall = Arc::new(FaultPlan::new(SHARDS).with_rule(FaultRule {
        shard: 0,
        op: FaultOp::RebuildTrain,
        from_op: 0,
        until_op: Some(1),
        kind: FaultKind::Stall(Duration::from_millis(1500)),
    }));
    shadowed.set_fault_plan(Some(stall.clone()));
    let rebuilder = {
        let fleet = shadowed.clone();
        std::thread::spawn(move || fleet.rebuild_shared())
    };
    while stall.op_count(0, FaultOp::RebuildTrain) == 0 {
        std::thread::yield_now();
    }
    assert_eq!(apply_to_fleet(&shadowed, &pool, &ops), replayable);
    let report = rebuilder.join().expect("rebuild thread").expect("rebuild");
    assert_eq!(
        report.replayed_ops, replayable,
        "the history must reach the new lineage through the shadow replay alone"
    );

    assert_equivalent(&live, &mono, &ds, "live vs monolith");
    assert_equivalent(&recovered, &mono, &ds, "recovered vs monolith");
    assert_equivalent(&*shadowed, &mono, &ds, "rebuilt vs monolith");
    assert_equivalent(&recovered, &live, &ds, "recovered vs live");
    assert_equivalent(&*shadowed, &live, &ds, "rebuilt vs live");
    assert_equivalent(&*shadowed, &recovered, &ds, "rebuilt vs recovered");
    // The id allocators agree too: the rolled-back batch burnt no id
    // anywhere.
    let probe: Vec<f32> = (0..ds.dim()).map(|d| 0.25 + d as f32 * 0.125).collect();
    let want = mono.insert(&probe).expect("monolith probe");
    for (fleet, label) in [
        (&live, "live"),
        (&recovered, "recovered"),
        (&*shadowed, "rebuilt"),
    ] {
        assert_eq!(
            fleet.insert_shared(&probe).expect("probe"),
            want,
            "{label}: id allocator diverged"
        );
    }
    for dir in [live_dir, recovered_dir, shadowed_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
