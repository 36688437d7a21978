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
//!
//! Seeded faults, crashes and every lifecycle op are the fleet oracle's
//! (`tests/fleet_oracle.rs`); what stays here races real threads, beside
//! the merge algebra.

mod common;

use common::{assert_bit_identical, Stats};
use juno::common::index::Neighbor;
use juno::common::rng::{seeded, Rng};
use juno::common::topk::{merge_neighbors, ScoreOrder};
use juno::prelude::*;
use juno::serve::{BackgroundCompactor, ShardRouter, ShardedIndex};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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
