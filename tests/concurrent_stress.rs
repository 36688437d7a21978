//! Concurrency stress + merge-algebra property suite for the sharded
//! serving layer.
//!
//! * Seeded multi-threaded stress: reader threads race writer threads and a
//!   background compactor on an epoch-published JUNO fleet. Invariants:
//!   no torn reads — a pinned [`FleetReader`] answers bit-identically no
//!   matter what writers do after the pin (every result set is consistent
//!   with the pinned published epochs), fresh readers observe monotonically
//!   non-decreasing epochs, result sets never contain duplicate ids — and,
//!   at quiescence, replaying the logged operation sequence into a
//!   monolithic index reproduces the fleet's results bit-identically.
//! * A property test that the deterministic top-k merge is associative and
//!   order-invariant (the algebra scatter-gather relies on to be
//!   independent of shard completion order).

//! * A seeded chaos scenario: the same reader/writer race run under a
//!   [`FaultPlan`] that stalls, fails, and panics shards at deterministic
//!   points, asserting that pinned readers stay bit-stable, degraded results
//!   never surface ids from non-responsive shards, writers roll back cleanly
//!   (the quiescent replay still matches a monolith), and the fleet returns
//!   to full coverage once the faults clear. Seeded via `JUNO_CHAOS_SEED`
//!   (printed, so any failure replays exactly).
//! * A seeded lifecycle chaos scenario: `rebuild_shared`, `split_shard`
//!   and `merge_shards` under a [`FaultPlan::chaos_lifecycle`] draw over
//!   the RebuildTrain / RebuildReplay / RebuildSwap / Split windows,
//!   asserting every faulted lifecycle op either completes or rolls back
//!   totally (bit-identical results, topology and id allocator) and the
//!   whole lifecycle succeeds once the plan disarms.

mod common;

use common::{assert_bit_identical, Stats};
use juno::common::index::Neighbor;
use juno::common::rng::{seeded, Rng};
use juno::common::topk::{merge_neighbors, ScoreOrder};
use juno::prelude::*;
use juno::serve::{BackgroundCompactor, ShardRouter, ShardedIndex};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Stress: readers racing writers and compaction on epoch-published shards.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Inserted pool row `row`, fleet assigned it `id`.
    Insert {
        row: usize,
        id: u64,
    },
    Remove {
        id: u64,
    },
}

#[test]
fn readers_racing_writers_and_compaction_never_observe_torn_state() {
    const POINTS: usize = 700;
    const WRITERS: usize = 2;
    const OPS_PER_WRITER: usize = 22;

    let ds = DatasetProfile::DeepLike
        .generate(POINTS, 6, 0xACE5)
        .expect("dataset");
    let pool = DatasetProfile::DeepLike
        .generate(WRITERS * OPS_PER_WRITER, 1, 0xACE5 ^ 0xFFFF)
        .expect("insert pool")
        .points;
    let monolith = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 8,
            nprobs: 4,
            pq_entries: 16,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("build");

    let fleet = Arc::new(
        ShardedIndex::from_monolith(monolith.clone(), 3, ShardRouter::Hash { seed: 13 })
            .expect("fleet"),
    );
    let compactor = BackgroundCompactor::spawn(fleet.clone(), Duration::from_millis(5));

    // Writers serialise on this log mutex around (fleet op + append), so the
    // log records the exact order the fleet applied operations in — the
    // replay below depends on that.
    let log: Mutex<Vec<Op>> = Mutex::new(Vec::new());
    let queries = &ds.queries;
    let fleet_ref = &fleet;
    let log_ref = &log;
    let pool_ref = &pool;

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            scope.spawn(move || {
                let mut rng = seeded(0xB0B + w as u64);
                for i in 0..OPS_PER_WRITER {
                    let mut log = log_ref.lock().expect("log lock");
                    if rng.gen_range(0..3usize) < 2 {
                        let row = w * OPS_PER_WRITER + i;
                        let id = fleet_ref
                            .insert_shared(pool_ref.row(row))
                            .expect("stress insert");
                        log.push(Op::Insert { row, id });
                    } else {
                        let id = rng.gen_range(0..POINTS + WRITERS * OPS_PER_WRITER) as u64;
                        fleet_ref.remove_shared(id).expect("stress remove");
                        log.push(Op::Remove { id });
                    }
                    drop(log);
                    std::thread::yield_now();
                }
            });
        }

        for r in 0..3usize {
            scope.spawn(move || {
                let mut last_epochs: Option<Vec<u64>> = None;
                for round in 0..20 {
                    let reader = fleet_ref.reader();
                    let epochs = reader.epochs();
                    assert_eq!(epochs.len(), 3, "reader {r} pins all shards");
                    if let Some(prev) = &last_epochs {
                        for (s, (&old, &new)) in prev.iter().zip(&epochs).enumerate() {
                            assert!(
                                new >= old,
                                "reader {r} round {round}: shard {s} epoch went \
                                 backwards ({old} -> {new})"
                            );
                        }
                    }
                    last_epochs = Some(epochs);

                    let first = reader.search_batch(queries, 15).expect("pinned search");
                    for (qi, result) in first.iter().enumerate() {
                        let mut ids = result.ids();
                        ids.sort_unstable();
                        let n = ids.len();
                        ids.dedup();
                        assert_eq!(
                            ids.len(),
                            n,
                            "reader {r} round {round} query {qi}: duplicate ids in a \
                             merged result (a point was live in two shards at once)"
                        );
                    }
                    // Torn-read check: the pinned view must answer
                    // bit-identically however much the writers and the
                    // compactor have published since the pin.
                    std::thread::yield_now();
                    let second = reader.search_batch(queries, 15).expect("pinned re-search");
                    assert_bit_identical(
                        &first,
                        &second,
                        Stats::Any,
                        &format!("reader {r} round {round} pinned isolation"),
                    );
                }
            });
        }
    });

    drop(compactor);

    // Quiescent differential check: replay the logged operation order into
    // the monolith; the racing fleet must be bit-equivalent to that serial
    // history (background compaction is bit-invisible by contract).
    let mut replayed = monolith;
    for op in log.into_inner().expect("log") {
        match op {
            Op::Insert { row, id } => {
                let mono_id = replayed.insert(pool.row(row)).expect("replay insert");
                assert_eq!(mono_id, id, "fleet and monolith id allocation diverged");
            }
            Op::Remove { id } => {
                replayed.remove(id).expect("replay remove");
            }
        }
    }
    assert_eq!(fleet.len(), replayed.len(), "live counts after replay");
    let fleet_results: Vec<SearchResult> = ds
        .queries
        .iter()
        .map(|q| fleet.search(q, 25).expect("fleet search"))
        .collect();
    let mono_results: Vec<SearchResult> = ds
        .queries
        .iter()
        .map(|q| replayed.search(q, 25).expect("mono search"))
        .collect();
    assert_bit_identical(
        &fleet_results,
        &mono_results,
        Stats::Any,
        "quiescent replay parity",
    );
}

// ---------------------------------------------------------------------------
// Property: the top-k merge is associative and order-invariant.
// ---------------------------------------------------------------------------

fn sort_under(mut list: Vec<Neighbor>, order: ScoreOrder) -> Vec<Neighbor> {
    list.sort_by(|a, b| order.cmp_neighbors(a, b));
    list
}

fn assert_neighbors_equal(a: &[Neighbor], b: &[Neighbor], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: lengths");
    for (na, nb) in a.iter().zip(b) {
        assert_eq!(na.id, nb.id, "{label}: ids");
        assert_eq!(
            na.distance.to_bits(),
            nb.distance.to_bits(),
            "{label}: distance bits"
        );
    }
}

#[test]
fn topk_merge_is_associative_and_order_invariant() {
    let mut rng = seeded(0x1234_5678);
    for case in 0..300u64 {
        let order = if case % 2 == 0 {
            ScoreOrder::Ascending
        } else {
            ScoreOrder::Descending
        };
        let num_lists = rng.gen_range(1..6usize);
        let k = rng.gen_range(1..12usize);
        // Disjoint id spaces per list (the scatter-gather precondition);
        // scores drawn from a tiny pool so ties are everywhere, plus the
        // occasional NaN, which must sort strictly worst on every path.
        let lists: Vec<Vec<Neighbor>> = (0..num_lists)
            .map(|li| {
                let len = rng.gen_range(0..15usize);
                sort_under(
                    (0..len)
                        .map(|i| {
                            let raw = match rng.gen_range(0..8u32) {
                                0 => f32::NAN,
                                v => (v % 3) as f32 * 0.25,
                            };
                            Neighbor::new((li * 1_000 + i) as u64, raw)
                        })
                        .collect(),
                    order,
                )
            })
            .collect();

        let reference = merge_neighbors(&lists, k, order);

        // Order-invariance: any rotation / reversal of the shard lists.
        for rot in 0..num_lists {
            let mut shuffled = lists.clone();
            shuffled.rotate_left(rot);
            assert_neighbors_equal(
                &merge_neighbors(&shuffled, k, order),
                &reference,
                &format!("case {case} rotation {rot}"),
            );
        }
        let mut reversed = lists.clone();
        reversed.reverse();
        assert_neighbors_equal(
            &merge_neighbors(&reversed, k, order),
            &reference,
            &format!("case {case} reversed"),
        );

        // Associativity: folding pairwise through truncated intermediate
        // merges (left and right) equals the flat k-way merge.
        let base = |list: Option<&Vec<Neighbor>>| {
            merge_neighbors(&[list.cloned().unwrap_or_default()], k, order)
        };
        let left_fold = lists.iter().skip(1).fold(base(lists.first()), |acc, next| {
            merge_neighbors(&[acc, next.clone()], k, order)
        });
        assert_neighbors_equal(&left_fold, &reference, &format!("case {case} left fold"));
        let right_fold = lists
            .iter()
            .rev()
            .skip(1)
            .fold(base(lists.last()), |acc, next| {
                merge_neighbors(&[next.clone(), acc], k, order)
            });
        assert_neighbors_equal(&right_fold, &reference, &format!("case {case} right fold"));

        // Random grouping into two buckets, each merged first.
        let mut bucket_a: Vec<Vec<Neighbor>> = Vec::new();
        let mut bucket_b: Vec<Vec<Neighbor>> = Vec::new();
        for list in &lists {
            if rng.gen_range(0..2usize) == 0 {
                bucket_a.push(list.clone());
            } else {
                bucket_b.push(list.clone());
            }
        }
        let grouped = merge_neighbors(
            &[
                merge_neighbors(&bucket_a, k, order),
                merge_neighbors(&bucket_b, k, order),
            ],
            k,
            order,
        );
        assert_neighbors_equal(&grouped, &reference, &format!("case {case} grouped"));
    }
}

#[test]
fn single_query_and_batch_scatter_paths_agree_under_concurrency() {
    // The batched scatter (per-shard search_batch + transpose merge) and the
    // single-query scatter must answer identically even while a compactor
    // keeps publishing new epochs underneath.
    let ds = DatasetProfile::DeepLike.generate(600, 8, 42).expect("ds");
    let monolith = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 8,
            nprobs: 4,
            pq_entries: 16,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("build");
    let fleet =
        Arc::new(ShardedIndex::from_monolith(monolith, 2, ShardRouter::Modulo).expect("fleet"));
    let compactor = BackgroundCompactor::spawn(fleet.clone(), Duration::from_millis(2));
    for _ in 0..5 {
        let reader = fleet.reader();
        let batch = reader.search_batch(&ds.queries, 12).expect("batch");
        let singles: Vec<SearchResult> = ds
            .queries
            .iter()
            .map(|q| reader.search(q, 12).expect("single"))
            .collect();
        assert_bit_identical(&batch, &singles, Stats::Any, "batch vs single scatter");
    }
    drop(compactor);
}

// ---------------------------------------------------------------------------
// Chaos: the reader/writer race re-run under a seeded fault plan.
// ---------------------------------------------------------------------------

#[test]
fn chaos_faults_degrade_gracefully_and_the_fleet_recovers() {
    juno::common::testing::silence_panics();
    let seed: u64 = std::env::var("JUNO_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A0_5EED);
    println!("chaos seed: {seed} (set JUNO_CHAOS_SEED={seed} to replay this run)");

    const POINTS: usize = 500;
    const SHARDS: usize = 4;
    const WRITERS: usize = 2;
    const OPS_PER_WRITER: usize = 16;

    let ds = DatasetProfile::DeepLike
        .generate(POINTS, 6, seed ^ 0xC4A0)
        .expect("dataset");
    let pool = DatasetProfile::DeepLike
        .generate(WRITERS * OPS_PER_WRITER, 1, seed ^ 0x900D)
        .expect("insert pool")
        .points;
    let monolith = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 8,
            nprobs: 4,
            pq_entries: 16,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("build");

    let fleet = Arc::new(
        ShardedIndex::from_monolith(monolith.clone(), SHARDS, ShardRouter::Hash { seed: 13 })
            .expect("fleet"),
    );
    let router = fleet.router();

    // Seed-derived chaos rules over every shard and op, plus three pinned
    // rules so every run — whatever the chaos draw produced — exercises a
    // stalled search shard, a failed mid-fleet publish, and a panicking
    // writer.
    let stall_shard = (seed % SHARDS as u64) as usize;
    let plan = Arc::new(
        FaultPlan::chaos(seed, SHARDS, Duration::from_millis(4))
            .with_rule(FaultRule {
                shard: stall_shard,
                op: FaultOp::Search,
                from_op: 0,
                until_op: None,
                kind: FaultKind::Stall(Duration::from_secs(30)),
            })
            .with_rule(FaultRule {
                shard: ((seed >> 8) % SHARDS as u64) as usize,
                op: FaultOp::Publish,
                from_op: 1,
                until_op: Some(3),
                kind: FaultKind::Fail,
            })
            .with_rule(FaultRule {
                shard: ((seed >> 16) % SHARDS as u64) as usize,
                op: FaultOp::Insert,
                from_op: 2,
                until_op: Some(4),
                kind: FaultKind::Panic,
            }),
    );
    fleet.set_fault_plan(Some(plan.clone()));
    let compactor = BackgroundCompactor::spawn(fleet.clone(), Duration::from_millis(5));

    // As in the fault-free stress test, writers serialise on the log mutex so
    // the log records the exact order the fleet applied operations in — but
    // here an op may be killed mid-flight by the plan, in which case it rolls
    // back and is deliberately NOT logged: the quiescent replay then proves
    // the rollback really was total.
    let log: Mutex<Vec<Op>> = Mutex::new(Vec::new());
    let queries = &ds.queries;
    let fleet_ref = &fleet;
    let log_ref = &log;
    let pool_ref = &pool;
    let plan_ref = &plan;

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            scope.spawn(move || {
                let mut rng = seeded(seed ^ (0xB0B + w as u64));
                for i in 0..OPS_PER_WRITER {
                    let mut log = log_ref.lock().expect("log lock");
                    if rng.gen_range(0..3usize) < 2 {
                        let row = w * OPS_PER_WRITER + i;
                        // Injected faults (Fail / Panic) surface as errors
                        // after a full rollback, so a failed op is simply not
                        // part of the history.
                        if let Ok(id) = fleet_ref.insert_shared(pool_ref.row(row)) {
                            log.push(Op::Insert { row, id });
                        }
                    } else {
                        let id = rng.gen_range(0..POINTS + WRITERS * OPS_PER_WRITER) as u64;
                        if fleet_ref.remove_shared(id).is_ok() {
                            log.push(Op::Remove { id });
                        }
                    }
                    drop(log);
                    std::thread::yield_now();
                }
            });
        }

        for r in 0..3usize {
            scope.spawn(move || {
                for round in 0..8 {
                    // Pinned plain reads are the bit-identity reference: the
                    // plain scatter path is uninstrumented, so whatever the
                    // plan does to writers and deadline readers, a pinned
                    // view must keep answering bit-identically.
                    let reader = fleet_ref.reader();
                    let first = reader
                        .search_batch(queries, 10)
                        .expect("pinned chaos search");
                    std::thread::yield_now();
                    let second = reader
                        .search_batch(queries, 10)
                        .expect("pinned chaos re-search");
                    assert_bit_identical(
                        &first,
                        &second,
                        Stats::Any,
                        &format!("chaos reader {r} round {round} pinned isolation"),
                    );

                    // Degraded reads must never surface an id owned by a
                    // shard that did not respond in time: every returned id
                    // routes to a shard whose status for THIS call is Ok.
                    let degraded = reader
                        .search_deadline(
                            queries.row(round % queries.len()),
                            10,
                            Duration::from_millis(150),
                        )
                        .expect("degraded chaos search");
                    assert!(
                        (0.0..=1.0).contains(&degraded.coverage),
                        "coverage out of range: {}",
                        degraded.coverage
                    );
                    for id in degraded.result.ids() {
                        let owner = router.route(id, SHARDS);
                        assert!(
                            degraded.shards[owner].is_ok(),
                            "chaos reader {r} round {round}: id {id} surfaced from \
                             non-responsive shard {owner} ({:?})",
                            degraded.shards[owner]
                        );
                    }
                }
            });
        }
    });

    drop(compactor);
    assert!(
        plan_ref.op_count(stall_shard, FaultOp::Search) > 0,
        "the pinned stall rule never fired — the chaos run was degenerate"
    );

    // Faults clear: the fleet must return to full coverage (the stalled
    // shard's breaker half-opens, the probe succeeds, the breaker closes).
    plan.disarm();
    let recovery_deadline = Instant::now() + Duration::from_secs(30);
    let mut recovered = false;
    while Instant::now() < recovery_deadline {
        let degraded = fleet
            .reader()
            .search_deadline(ds.queries.row(0), 10, Duration::from_millis(500))
            .expect("recovery search");
        if degraded.is_complete() {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        recovered,
        "coverage did not return to 1.0 within 30s of the fault plan disarming"
    );

    // Quiescent differential check: the logged (i.e. successful) operations
    // replayed into a monolith must reproduce the fleet bit-identically —
    // killed ops left no trace, down to id allocation.
    let mut replayed = monolith;
    for op in log.into_inner().expect("log") {
        match op {
            Op::Insert { row, id } => {
                let mono_id = replayed.insert(pool.row(row)).expect("replay insert");
                assert_eq!(
                    mono_id, id,
                    "fleet and monolith id allocation diverged across rollbacks"
                );
            }
            Op::Remove { id } => {
                replayed.remove(id).expect("replay remove");
            }
        }
    }
    assert_eq!(
        fleet.len(),
        replayed.len(),
        "live counts after chaos replay"
    );
    let fleet_results: Vec<SearchResult> = ds
        .queries
        .iter()
        .map(|q| fleet.search(q, 20).expect("fleet search"))
        .collect();
    let mono_results: Vec<SearchResult> = ds
        .queries
        .iter()
        .map(|q| replayed.search(q, 20).expect("mono search"))
        .collect();
    assert_bit_identical(
        &fleet_results,
        &mono_results,
        Stats::Any,
        "chaos quiescent replay parity",
    );
}

// ---------------------------------------------------------------------------
// Lifecycle chaos: rebuild / split / merge under injected faults.
// ---------------------------------------------------------------------------

/// Seeded chaos over the lifecycle plane: `rebuild_shared`, `split_shard`
/// and `merge_shards` run under a [`FaultPlan::chaos_lifecycle`] draw plus
/// pinned rules guaranteeing a failed training phase and a panicking split
/// in every run. The contract: a lifecycle op either completes (live set
/// intact, topology as requested) or rolls back totally — the fleet serves
/// bit-identically to the moment before the op, down to distance bits.
/// Once the plan disarms, every lifecycle op must succeed quiescently.
/// Seeded via `JUNO_CHAOS_SEED` (printed, so any failure replays exactly).
#[test]
fn lifecycle_chaos_rebuild_and_split_roll_back_totally_or_complete() {
    juno::common::testing::silence_panics();
    let seed: u64 = std::env::var("JUNO_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x11FE_5EED);
    println!("chaos seed: {seed} (set JUNO_CHAOS_SEED={seed} to replay this run)");

    const POINTS: usize = 400;
    const SHARDS: usize = 3;

    let ds = DatasetProfile::DeepLike
        .generate(POINTS, 5, seed ^ 0x11FE)
        .expect("dataset");
    let pool = DatasetProfile::DeepLike
        .generate(64, 1, seed ^ 0x900D)
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
    let fleet = Arc::new(
        ShardedIndex::from_monolith(engine, SHARDS, ShardRouter::Hash { seed: 7 }).expect("fleet"),
    );

    // A WAL makes the rebuild release the writer lock during training and
    // exercise the replay phase (and its RebuildReplay inject point).
    let dir = std::env::temp_dir().join(format!(
        "juno_lifecycle_chaos_{seed}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    fleet
        .enable_wal(&dir, juno::serve::DurabilityConfig::default())
        .expect("enable_wal");

    // Seed-derived lifecycle faults over the *post-split* shard range, plus
    // two pinned rules so every run sees at least one failed training phase
    // and one panicking split, whatever the chaos draw produced.
    let plan = Arc::new(
        FaultPlan::chaos_lifecycle(seed, SHARDS + 1, Duration::from_millis(3))
            .with_rule(FaultRule {
                shard: 0,
                op: FaultOp::RebuildTrain,
                from_op: 0,
                until_op: Some(1),
                kind: FaultKind::Fail,
            })
            .with_rule(FaultRule {
                shard: (seed % (SHARDS as u64 + 1)) as usize,
                op: FaultOp::Split,
                from_op: 0,
                until_op: Some(1),
                kind: FaultKind::Panic,
            }),
    );
    fleet.set_fault_plan(Some(plan.clone()));

    let snapshot = |fleet: &ShardedIndex<JunoIndex>| -> Vec<SearchResult> {
        ds.queries
            .iter()
            .map(|q| fleet.search(q, 15).expect("snapshot search"))
            .collect()
    };
    let mut next_pool_row = 0usize;
    let mut rebuild_failures = 0usize;
    let mut resize_failures = 0usize;
    for round in 0..4usize {
        // A little churn between lifecycle ops so each round's live set is
        // distinct (ordinary mutations are not lifecycle ops — the plan
        // leaves them alone).
        for _ in 0..4 {
            fleet
                .insert_shared(pool.row(next_pool_row))
                .expect("insert");
            next_pool_row += 1;
        }
        fleet.remove_shared((round * 7) as u64).expect("remove");

        let before = snapshot(&fleet);
        let (shards_before, len_before) = (fleet.num_shards(), fleet.len());
        match fleet.rebuild_shared() {
            Ok(report) => {
                // A completed rebuild keeps the live world; only the trained
                // representation changed.
                assert_eq!(
                    fleet.num_shards(),
                    shards_before,
                    "round {round} rebuild shards"
                );
                assert_eq!(fleet.len(), len_before, "round {round} rebuild live count");
                assert!(report.trained_points > 0, "round {round} trained nothing");
            }
            Err(err) => {
                // A failed rebuild must leave no trace at all.
                rebuild_failures += 1;
                assert_eq!(fleet.num_shards(), shards_before);
                assert_eq!(fleet.len(), len_before, "round {round} rollback live count");
                assert_bit_identical(
                    &before,
                    &snapshot(&fleet),
                    Stats::Any,
                    &format!("round {round} rebuild rollback ({err})"),
                );
            }
        }

        let before = snapshot(&fleet);
        let (shards_before, len_before) = (fleet.num_shards(), fleet.len());
        let resize = if round % 2 == 0 {
            fleet.split_shard()
        } else {
            fleet.merge_shards()
        };
        match resize {
            Ok(now) => {
                let expected = if round % 2 == 0 {
                    shards_before + 1
                } else {
                    shards_before - 1
                };
                assert_eq!(now, expected, "round {round} resize count");
                assert_eq!(fleet.num_shards(), expected);
                assert_eq!(fleet.len(), len_before, "round {round} resize live count");
                // Split/merge is pure snapshot surgery: results stay
                // bit-identical across the topology change.
                assert_bit_identical(
                    &before,
                    &snapshot(&fleet),
                    Stats::Any,
                    &format!("round {round} resize parity"),
                );
            }
            Err(err) => {
                resize_failures += 1;
                assert_eq!(fleet.num_shards(), shards_before);
                assert_eq!(fleet.len(), len_before);
                assert_bit_identical(
                    &before,
                    &snapshot(&fleet),
                    Stats::Any,
                    &format!("round {round} resize rollback ({err})"),
                );
            }
        }
    }
    assert!(
        rebuild_failures > 0 && resize_failures > 0,
        "the pinned lifecycle faults never fired — the chaos run was degenerate \
         (rebuild failures: {rebuild_failures}, resize failures: {resize_failures})"
    );

    // Faults clear: the whole lifecycle must work quiescently, ending back
    // at the original topology.
    plan.disarm();
    let report = fleet.rebuild_shared().expect("quiescent rebuild");
    assert!(report.trained_points > 0);
    let widened = fleet.split_shard().expect("quiescent split");
    assert_eq!(fleet.num_shards(), widened);
    let narrowed = fleet.merge_shards().expect("quiescent merge");
    assert_eq!(widened - 1, narrowed);
    let final_results = snapshot(&fleet);
    assert!(final_results.iter().all(|r| !r.neighbors.is_empty()));
    let _ = std::fs::remove_dir_all(&dir);
}
