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
//!   thing whichever of the consumers of the interpreter runs it: the live
//!   write path, `recover_from_dir`'s replay, `rebuild_shared`'s shadow
//!   replay, and the catch-up of the epoch a shard's last publish retired
//!   (which the next write stages on in place of a clone). All end
//!   bit-identical to each other and to a monolith that applied only the
//!   acknowledged ops.

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
const ROUTER: ShardRouter = ShardRouter::Hash { seed: 13 };

fn build_engine() -> (JunoIndex, Dataset, VectorSet) {
    build_world(BASE_POINTS, POOL_ROWS)
}

fn build_world(base_points: usize, pool_rows: usize) -> (JunoIndex, Dataset, VectorSet) {
    let ds = DatasetProfile::DeepLike
        .generate(base_points, 8, SEED)
        .expect("dataset");
    let pool = DatasetProfile::DeepLike
        .generate(pool_rows, 1, SEED ^ 0xFFFF)
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
    fleet_with(engine, SHARDS)
}

fn fleet_with(engine: &JunoIndex, shards: usize) -> ShardedIndex<JunoIndex> {
    ShardedIndex::from_monolith(engine.clone(), shards, ROUTER).expect("fleet")
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
    Checkpoint,
    /// A quiescent `rebuild_shared` (a retrain of the monolith).
    Rebuild,
    /// `resize_shards` to this count (nothing to a monolith).
    Resize(usize),
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
    ops.iter().map(|op| apply_op(fleet, pool, op)).sum()
}

fn apply_op(fleet: &ShardedIndex<JunoIndex>, pool: &VectorSet, op: &Op) -> u64 {
    match op {
        Op::Insert(i) => {
            fleet.insert_shared(pool.row(*i)).expect("insert");
            1
        }
        Op::Batch(i) => {
            fleet
                .insert_batch_shared(&rows(pool, *i, 3))
                .expect("batch");
            3
        }
        Op::Remove(id) => u64::from(fleet.remove_shared(*id).expect("remove")),
        Op::Compact => {
            fleet.compact_all_shared().expect("compact");
            0
        }
        Op::FailedBatch(i) => {
            let before = fleet.shard_epochs();
            let fail = FaultPlan::new(fleet.num_shards()).with_rule(FaultRule {
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
            0
        }
        Op::Checkpoint => {
            fleet.checkpoint().expect("checkpoint");
            0
        }
        Op::Rebuild => {
            let report = fleet.rebuild_shared().expect("quiescent rebuild");
            assert_eq!(report.replayed_ops, 0);
            0
        }
        Op::Resize(shards) => {
            fleet.resize_shards(*shards).expect("resize");
            0
        }
    }
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
            Op::Rebuild => *mono = mono.rebuild_for_live(&mono.ids()).expect("rebuild"),
            Op::FailedBatch(_) | Op::Checkpoint | Op::Resize(_) => {}
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

// ---------------------------------------------------------------------------
// Interpreter parity, fourth consumer: the retired epoch's catch-up.
// ---------------------------------------------------------------------------

const STAGING_SHARDS: usize = 4;
/// Enough points that a shard (a quarter of them, or a third) is worth
/// catching up from one missed record — and not from a batch's three.
const STAGING_POINTS: usize = 2400;
const STAGING_STEPS: usize = 220;
/// `shard/write.rs`'s private guard: a retired epoch that missed `m` records
/// is caught up when `m × 450 ≤` the shard's live points, cloned otherwise.
const CLONE_POINTS_PER_MISSED_RECORD: usize = 450;

/// Every kind of operation the write path stages, and every lifecycle step
/// that must leave no retired epoch behind, in one seeded order.
fn staging_history() -> Vec<Op> {
    let mut rng = seeded(SEED ^ 0x57A6);
    let mut ops = Vec::new();
    let mut next_row = 0usize;
    let mut removed: Vec<u64> = Vec::new();
    for step in 0..STAGING_STEPS {
        let op = match (step, rng.gen_range(0..20u32)) {
            (40, _) => {
                next_row += 2;
                Op::FailedBatch(next_row - 2)
            }
            (70, _) => Op::Checkpoint,
            (110, _) => Op::Rebuild,
            (150, _) => Op::Resize(3),
            (190, _) => Op::Resize(4),
            (_, 0..=9) => {
                next_row += 1;
                Op::Insert(next_row - 1)
            }
            (_, 10..=11) => {
                next_row += 3;
                Op::Batch(next_row - 3)
            }
            (_, 12..=14) => {
                let id = rng.gen_range(0..STAGING_POINTS as u64);
                removed.push(id);
                Op::Remove(id)
            }
            (_, 15..=16) if !removed.is_empty() => {
                Op::Remove(removed[rng.gen_range(0..removed.len())]) // dead
            }
            (_, 17) => Op::Remove(9_999_999), // never allocated
            _ => Op::Compact,
        };
        ops.push(op);
    }
    // The seed must not draw a degenerate history.
    for kind in [Op::Insert(0), Op::Batch(0), Op::Remove(0), Op::Compact] {
        let same = |op: &&Op| std::mem::discriminant(*op) == std::mem::discriminant(&kind);
        let drawn = ops.iter().filter(same).count();
        assert!(drawn >= 8, "history has {drawn} × {kind:?}");
    }
    ops
}

/// What `staged_publish` should have staged on, shard by shard: the model
/// the reusing fleet's [`ShardedIndex::stage_stats`] is held to after every
/// op.
struct StagingModel {
    /// Records the shard's retired epoch missed; `None`: it holds none.
    retired: Vec<Option<usize>>,
    dirty: Vec<bool>,
    /// The step of the last publish on each shard — the reader pinned just
    /// before that step holds the epoch it retired.
    last_publish: Vec<usize>,
    reused: u64,
    cloned: u64,
}

impl StagingModel {
    fn new(shards: usize) -> Self {
        Self {
            retired: vec![None; shards],
            dirty: vec![true; shards],
            last_publish: vec![0; shards],
            reused: 0,
            cloned: 0,
        }
    }

    /// One shard engine staged; returns whether it was the retired epoch.
    fn stage(&mut self, s: usize, live_points: usize) -> bool {
        let reused = self.retired[s]
            .take()
            .is_some_and(|missed| missed * CLONE_POINTS_PER_MISSED_RECORD <= live_points);
        if reused {
            self.reused += 1;
        } else {
            self.cloned += 1;
        }
        reused
    }

    fn published(&mut self, s: usize, step: usize, missed: Option<usize>) {
        self.retired[s] = missed;
        self.dirty[s] = true;
        self.last_publish[s] = step;
    }

    /// `lens`: each shard's live points before the op. `acknowledged`: what
    /// [`apply_op`] returned for it.
    fn predict(&mut self, step: usize, op: &Op, lens: &[usize], acknowledged: u64) {
        let shards = lens.len();
        match op {
            Op::Insert(_) | Op::Batch(_) => {
                for (s, &len) in lens.iter().enumerate() {
                    self.stage(s, len);
                    self.published(s, step, Some(acknowledged as usize));
                }
            }
            Op::Remove(id) => {
                let owner = ROUTER.route(*id, shards);
                let reused = self.stage(owner, lens[owner]);
                if acknowledged == 1 {
                    self.published(owner, step, Some(1));
                } else if reused {
                    // Nothing changed: the caught-up engine is handed back.
                    self.retired[owner] = Some(0);
                }
            }
            Op::Compact => {
                for (s, &len) in lens.iter().enumerate() {
                    if self.dirty[s] {
                        self.stage(s, len);
                        self.published(s, step, None);
                        self.dirty[s] = false;
                    }
                }
            }
            // Every shard stages, shard 1's publish fails, all roll back.
            Op::FailedBatch(_) => {
                for (s, &len) in lens.iter().enumerate() {
                    self.stage(s, len); // and nothing is retired in its place
                }
            }
            Op::Checkpoint => {}
            // The swap stages nothing: the rebuild supplies the engines.
            Op::Rebuild => (0..shards).for_each(|s| self.published(s, step, None)),
            Op::Resize(new_shards) => {
                *self = Self {
                    last_publish: vec![step; *new_shards],
                    reused: self.reused,
                    cloned: self.cloned,
                    ..Self::new(*new_shards)
                };
            }
        }
    }
}

#[test]
fn interpreter_parity_reused_and_cloned_stagings_agree_with_a_monolith_after_every_op() {
    let (engine, ds, pool) = build_world(STAGING_POINTS, 2 * STAGING_STEPS);
    let ops = staging_history();
    let mut mono = engine.clone();
    // `reusing` is never read across a write, so every write stages on the
    // retired epochs it can; `cloning` has the epoch each shard's last
    // publish retired pinned by a reader across every write, so every stage
    // clones — the behaviour before retired epochs existed.
    let (reusing, cloning) = (
        fleet_with(&engine, STAGING_SHARDS),
        fleet_with(&engine, STAGING_SHARDS),
    );
    let dirs = [
        scratch_dir("staging_reusing"),
        scratch_dir("staging_cloning"),
    ];
    for (fleet, dir) in [&reusing, &cloning].into_iter().zip(&dirs) {
        fleet
            .enable_wal(dir, DurabilityConfig::default())
            .expect("enable_wal");
    }
    let mut model = StagingModel::new(STAGING_SHARDS);
    let mut held: Vec<(usize, FleetReader<JunoIndex>)> = Vec::new();
    let mut dead_removes = 0;

    let shard_view = |fleet: &ShardedIndex<JunoIndex>| -> Vec<(usize, Vec<u64>, u64)> {
        let reader = fleet.reader();
        (0..reader.num_shards())
            .map(|s| reader.shard(s).index())
            .map(|index| (index.len(), index.ids(), index.plan_stamp()))
            .collect()
    };
    for (step, op) in ops.iter().enumerate() {
        let lens: Vec<usize> = shard_view(&reusing).iter().map(|view| view.0).collect();
        held.push((step, cloning.reader()));
        let acknowledged = apply_op(&reusing, &pool, op);
        assert_eq!(apply_op(&cloning, &pool, op), acknowledged, "step {step}");
        apply_to_monolith(&mut mono, &pool, std::slice::from_ref(op));
        model.predict(step, op, &lens, acknowledged);
        dead_removes += usize::from(matches!(op, Op::Remove(_)) && acknowledged == 0);
        held.retain(|(pinned_at, _)| model.last_publish.contains(pinned_at));

        let label = format!("step {step} ({op:?})");
        assert_equivalent(
            &reusing,
            &mono,
            &ds,
            &format!("{label}: reusing vs monolith"),
        );
        assert_equivalent(
            &cloning,
            &mono,
            &ds,
            &format!("{label}: cloning vs monolith"),
        );
        assert_eq!(reusing.shard_epochs(), cloning.shard_epochs(), "{label}");
        assert_eq!(shard_view(&reusing), shard_view(&cloning), "{label}");
        let staged = reusing.stage_stats();
        assert_eq!(
            (staged.reused, staged.cloned),
            (model.reused, model.cloned),
            "{label}: what the write staged on"
        );
    }
    assert!(dead_removes >= 4, "{dead_removes} removes of dead ids");
    // Both paths ran, and the cloning fleet staged as often and never reused.
    assert!(
        model.reused > model.cloned && model.cloned > 0,
        "{} reused, {} cloned",
        model.reused,
        model.cloned
    );
    let staged = cloning.stage_stats();
    assert_eq!(
        (staged.reused, staged.cloned),
        (0, model.reused + model.cloned)
    );

    // Recovery replays through the same staging and lands on the same bits.
    drop(held);
    drop(reusing);
    let (recovered, _) =
        ShardedIndex::recover_from_dir(engine.clone(), &dirs[0], DurabilityConfig::default())
            .expect("recover");
    assert_equivalent(&recovered, &mono, &ds, "recovered vs monolith");
    // (Not the stamps: a restored engine hashes its state, a live one chains
    // each insert into the stamp it had.)
    let owned = |fleet| -> Vec<Vec<u64>> {
        let views = shard_view(fleet).into_iter();
        views.map(|(_, ids, _)| ids).collect()
    };
    assert_eq!(
        owned(&recovered),
        owned(&cloning),
        "recovered: per-shard ids"
    );
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
