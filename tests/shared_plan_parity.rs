//! Shared-plan parity suite: a fleet plans each batch **once** and hands the
//! plan to every shard (`AnnIndex::plan_batch` / `search_batch_planned`),
//! and nothing a caller can observe may depend on that — except the
//! front-half work counters, which are now counted once instead of once per
//! shard.
//!
//! Two references hold every fleet answer:
//!
//! * the **monolith** — ids and distance bits, and its front-half counters
//!   (a lockstep fleet's reply carries exactly the monolith's);
//! * the **per-shard-planned fleet** — each shard searching the batch on its
//!   own (`shard(s).index().search_batch_threads`, the pre-sharing
//!   behaviour), merged with `merge_neighbors` and `merge_scatter`. Sharing
//!   may not move a single execution-invariant statistic of that merge
//!   other than collapsing the S identical front halves into one — and,
//!   since a lockstep fleet scans its shards as one index, the S identical
//!   table expansions (`lut_builds`) into one.
//!
//! The plan stamp is what makes sharing safe, so the suite also drives the
//! ways replicas legitimately diverge — an insert one side has not seen, a
//! search-time knob, independently trained shards — and checks the plan is
//! refused, then the ways they re-converge — restore, recovery, split,
//! rebuild — and checks it is shared again.

mod common;

use common::{assert_bit_identical, search_all, Stats};
use juno::common::index::{BatchPlan, PlanUse, SearchStats};
use juno::common::rng::{seeded, Rng};
use juno::common::topk::merge_neighbors;
use juno::prelude::*;
use std::time::Duration;

const K: usize = 20;
const BUDGET: Duration = Duration::from_secs(30);

fn build_juno(ds: &Dataset) -> JunoIndex {
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

fn first_rows(queries: &VectorSet, n: usize) -> VectorSet {
    VectorSet::from_rows((0..n).map(|i| queries.row(i).to_vec()).collect()).expect("rows")
}

fn front(s: &SearchStats) -> [usize; 5] {
    [
        s.filter_distances,
        s.lut_distances,
        s.rt_aabb_tests,
        s.rt_primitive_tests,
        s.rt_hits,
    ]
}

/// What the fleet answered before plans were shared: every shard plans and
/// searches the batch itself, lists merge by `merge_neighbors`, stats by
/// `merge_scatter` — except that the front half and the table expansions,
/// identical on every lockstep shard, are counted once.
fn per_shard_planned(reader: &FleetReader<JunoIndex>, queries: &VectorSet) -> Vec<SearchResult> {
    let order = reader.shard(0).index().merge_order();
    let per_shard: Vec<Vec<SearchResult>> = (0..reader.num_shards())
        .map(|s| {
            reader
                .shard(s)
                .index()
                .search_batch_threads(queries, K, 1)
                .expect("shard batch")
        })
        .collect();
    (0..queries.len())
        .map(|q| {
            let mut stats = SearchStats::default();
            let mut simulated_us = 0.0f64;
            let mut lists = Vec::new();
            for shard in &per_shard {
                assert_eq!(
                    front(&shard[q].stats),
                    front(&per_shard[0][q].stats),
                    "lockstep shards plan identically"
                );
                assert_eq!(
                    shard[q].stats.lut_builds, per_shard[0][q].stats.lut_builds,
                    "lockstep shards expand every probe"
                );
                stats.merge_scatter(&SearchStats {
                    lut_builds: 0,
                    ..shard[q].stats.without_front_counters()
                });
                simulated_us = simulated_us.max(shard[q].simulated_us);
                lists.push(shard[q].neighbors.clone());
            }
            let once = SearchStats {
                filter_distances: per_shard[0][q].stats.filter_distances,
                lut_distances: per_shard[0][q].stats.lut_distances,
                rt_aabb_tests: per_shard[0][q].stats.rt_aabb_tests,
                rt_primitive_tests: per_shard[0][q].stats.rt_primitive_tests,
                rt_hits: per_shard[0][q].stats.rt_hits,
                lut_builds: per_shard[0][q].stats.lut_builds,
                ..SearchStats::default()
            };
            stats.merge_scatter(&once);
            SearchResult {
                neighbors: merge_neighbors(&lists, K, order),
                simulated_us,
                stats,
            }
        })
        .collect()
}

/// Holds all three fleet read paths to both references on one batch, and
/// the deadline path to "every shard shared the plan".
fn assert_all_paths(
    fleet: &ShardedIndex<JunoIndex>,
    monolith: &[SearchResult],
    queries: &VectorSet,
    label: &str,
) {
    let reader = fleet.reader();
    let reference = per_shard_planned(&reader, queries);
    let check = |got: &[SearchResult], path: &str| {
        let label = format!("{label} {path} n={}", queries.len());
        assert_bit_identical(monolith, got, Stats::Any, &label);
        assert_bit_identical(&reference, got, Stats::Invariant, &label);
        for (q, (m, g)) in monolith.iter().zip(got).enumerate() {
            assert_eq!(
                front(&m.stats),
                front(&g.stats),
                "{label}: query {q} carries the monolith's front-half counters, once"
            );
            assert_eq!(
                m.stats.lut_builds, g.stats.lut_builds,
                "{label}: query {q}'s fused scan expands each probe once, as the monolith"
            );
        }
    };

    // One by one costs a scatter per query; the batch paths cover the rest.
    let singles: Vec<SearchResult> = (0..queries.len().min(3))
        .map(|q| reader.search(queries.row(q), K).expect("search"))
        .collect();
    let n = singles.len();
    let label_one = format!("{label} search");
    assert_bit_identical(&monolith[..n], &singles, Stats::Any, &label_one);
    assert_bit_identical(&reference[..n], &singles, Stats::Invariant, &label_one);
    for (q, (m, g)) in monolith.iter().zip(&singles).enumerate() {
        assert_eq!(
            m.stats.lut_builds, g.stats.lut_builds,
            "{label_one}: query {q}'s fused scan expands each probe once, as the monolith"
        );
    }

    for threads in [1usize, 3] {
        let got = reader
            .search_batch_threads(queries, K, threads)
            .expect("batch");
        check(&got, &format!("search_batch_threads({threads})"));
    }
    let got = reader
        .search_batch_deadline(queries, K, BUDGET)
        .expect("deadline batch");
    assert!(got.is_complete(), "{label}: deadline batch lost a shard");
    assert_eq!(
        (got.plan_shared_shards, got.plan_replanned_shards),
        (reader.num_shards(), 0),
        "{label}: every lockstep shard scans from the one plan"
    );
    check(&got.results, "search_batch_deadline");
}

/// S ∈ {1, 2, 4, 7} × every quality mode × fast-scan on/off × batches of
/// 1, 3 and 40, through all three read paths, on one dataset profile.
fn assert_matrix(profile: DatasetProfile) {
    let ds = profile.generate(1_000, 40, 2_031).expect("ds");
    let base = build_juno(&ds);
    let batches = [
        first_rows(&ds.queries, 1),
        first_rows(&ds.queries, 3),
        first_rows(&ds.queries, 40),
    ];
    for quality in [QualityMode::High, QualityMode::Medium, QualityMode::Low] {
        for fastscan in [true, false] {
            let mut monolith = base.clone();
            monolith.set_quality(quality);
            monolith.set_fastscan(fastscan);
            let references: Vec<Vec<SearchResult>> = batches
                .iter()
                .map(|batch| search_all(&monolith, batch, K))
                .collect();
            for shards in [1usize, 2, 4, 7] {
                let fleet = ShardedIndex::from_monolith(
                    monolith.clone(),
                    shards,
                    ShardRouter::Hash { seed: 11 },
                )
                .expect("fleet");
                let label = format!("{} {quality:?} fastscan={fastscan} S={shards}", ds.metric());
                for (batch, reference) in batches.iter().zip(&references) {
                    assert_all_paths(&fleet, reference, batch, &label);
                }
            }
        }
    }
}

#[test]
fn l2_shared_plan_reads_equal_the_monolith_and_the_per_shard_planned_fleet() {
    assert_matrix(DatasetProfile::DeepLike);
}

#[test]
fn mips_shared_plan_reads_equal_the_monolith_and_the_per_shard_planned_fleet() {
    assert_matrix(DatasetProfile::TtiLike);
}

/// `receiver` handed `plan`: the expected use, and — whatever the use — the
/// answer it gives on its own, stat for stat, front-half counters aside.
/// The plan carries the planning's cost; the selective tables are written,
/// and their hits counted (`lut_distances`), by the scan that reads them.
fn assert_planned(
    receiver: &JunoIndex,
    plan: &BatchPlan,
    queries: &VectorSet,
    want: PlanUse,
    label: &str,
) {
    let (got, used) = receiver
        .search_batch_planned(queries, K, 2, plan)
        .expect("planned batch");
    assert_eq!(used, want, "{label}: plan use");
    let mut own = receiver
        .search_batch_threads(queries, K, 2)
        .expect("own batch");
    if want == PlanUse::Shared {
        for (q, r) in own.iter_mut().enumerate() {
            let scanned = r.stats.lut_distances;
            assert_eq!(
                front(plan.front_stats(q)),
                front(&SearchStats {
                    lut_distances: 0,
                    ..r.stats
                }),
                "{label}: the plan carries what query {q}'s front half cost"
            );
            r.stats = SearchStats {
                lut_distances: scanned,
                ..r.stats.without_front_counters()
            };
        }
    }
    assert_bit_identical(&own, &got, Stats::Full, label);
}

#[test]
fn a_plan_is_used_only_by_an_engine_that_would_have_planned_the_same() {
    let ds = DatasetProfile::DeepLike
        .generate(1_200, 12, 77)
        .expect("ds");
    let a = build_juno(&ds);
    let plan = a
        .plan_batch(&ds.queries, 2)
        .expect("plan")
        .expect("JUNO plans");
    assert_eq!(plan.stamp(), a.plan_stamp());

    // An untouched clone shares; so does one whose scan-side knobs moved.
    assert_planned(&a.clone(), &plan, &ds.queries, PlanUse::Shared, "clone");
    let mut scan_side = a.clone();
    scan_side.set_quality(QualityMode::Medium);
    scan_side.set_fastscan(false);
    assert_planned(
        &scan_side,
        &plan,
        &ds.queries,
        PlanUse::Shared,
        "scan knobs",
    );
    // Removes and compaction leave planning state alone.
    let mut removed = a.clone();
    for id in 0..50 {
        removed.remove(id).expect("remove");
    }
    removed.compact().expect("compact");
    assert_planned(
        &removed,
        &plan,
        &ds.queries,
        PlanUse::Shared,
        "removes + compact",
    );

    // One insert moves the density maps: the clone must plan for itself.
    let mut inserted = a.clone();
    inserted.insert(ds.queries.row(0)).expect("insert");
    assert_planned(
        &inserted,
        &plan,
        &ds.queries,
        PlanUse::Replanned,
        "one insert",
    );
    // Enough inserts around query 0 that using A's plan would be *wrong*,
    // not merely unverified: the clone's own front half selects differently.
    for _ in 0..300 {
        inserted.insert(ds.queries.row(0)).expect("insert");
    }
    let own = inserted.search(ds.queries.row(0), K).expect("own");
    let before = a.search(ds.queries.row(0), K).expect("before");
    assert_ne!(
        front(&own.stats),
        front(&before.stats),
        "the inserts were meant to move query 0's thresholds"
    );
    assert_planned(
        &inserted,
        &plan,
        &ds.queries,
        PlanUse::Replanned,
        "many inserts",
    );

    // Each search-time planning knob.
    let mut nprobs = a.clone();
    nprobs.set_nprobs(3);
    assert_planned(
        &nprobs,
        &plan,
        &ds.queries,
        PlanUse::Replanned,
        "set_nprobs",
    );
    let mut scale = a.clone();
    scale.set_threshold_scale(0.5).expect("scale");
    assert_planned(
        &scale,
        &plan,
        &ds.queries,
        PlanUse::Replanned,
        "set_threshold_scale",
    );
    let mut strategy = a.clone();
    strategy.set_threshold_strategy(ThresholdStrategy::StaticSmall);
    assert_planned(
        &strategy,
        &plan,
        &ds.queries,
        PlanUse::Replanned,
        "set_threshold_strategy",
    );
    // … and back: the stamp is a function of state, not of history.
    strategy.set_threshold_strategy(a.config().threshold_strategy);
    assert_planned(
        &strategy,
        &plan,
        &ds.queries,
        PlanUse::Shared,
        "strategy restored",
    );

    // A plan for another batch, or from another engine type, is not a plan.
    let fewer = first_rows(&ds.queries, 5);
    assert_planned(&a, &plan, &fewer, PlanUse::Replanned, "wrong batch length");
    let foreign = BatchPlan::new(a.plan_stamp(), Vec::new(), vec![0u8; 12]);
    assert_planned(
        &a,
        &foreign,
        &ds.queries,
        PlanUse::Replanned,
        "foreign plan",
    );
}

#[test]
fn independently_trained_shards_fall_back_to_their_own_plans() {
    // A mapped fleet of two JUNO engines trained on disjoint halves shares
    // nothing: shard 0 plans the batch (and scans from it), shard 1 must
    // refuse that plan. The merged answer is the two engines' own answers.
    let ds = DatasetProfile::DeepLike.generate(1_600, 6, 9).expect("ds");
    let mut parts = Vec::new();
    for half in 0..2u64 {
        let ids: Vec<u64> = (0..ds.points.len() as u64)
            .filter(|id| id % 2 == half)
            .collect();
        let rows = VectorSet::from_rows(
            ids.iter()
                .map(|&id| ds.points.row(id as usize).to_vec())
                .collect(),
        )
        .expect("rows");
        let engine = JunoIndex::build(
            &rows,
            &JunoConfig {
                n_clusters: 8,
                nprobs: 4,
                pq_entries: 32,
                ..JunoConfig::small_test(ds.dim(), ds.metric())
            },
        )
        .expect("part build");
        parts.push((engine, ids));
    }
    assert_ne!(parts[0].0.plan_stamp(), parts[1].0.plan_stamp());

    let mut lists_per_query: Vec<Vec<Vec<Neighbor>>> = vec![Vec::new(); ds.queries.len()];
    for (engine, ids) in &parts {
        let own = engine
            .search_batch_threads(&ds.queries, K, 1)
            .expect("part batch");
        for (q, result) in own.into_iter().enumerate() {
            let mut list: Vec<Neighbor> = result
                .neighbors
                .iter()
                .map(|n| Neighbor::new(ids[n.id as usize], n.distance))
                .collect();
            list.sort_by(|a, b| engine.merge_order().cmp_neighbors(a, b));
            lists_per_query[q].push(list);
        }
    }
    let order = parts[0].0.merge_order();
    let fleet = ShardedIndex::from_prebuilt(parts, ShardRouter::Modulo).expect("fleet");
    let got = fleet
        .reader()
        .search_batch_deadline(&ds.queries, K, BUDGET)
        .expect("deadline batch");
    assert!(got.is_complete());
    assert_eq!((got.plan_shared_shards, got.plan_replanned_shards), (1, 1));
    for (q, (lists, result)) in lists_per_query.iter().zip(&got.results).enumerate() {
        let want = merge_neighbors(lists, K, order);
        assert_eq!(result.neighbors, want, "query {q}");
    }
}

/// A plan made on `stale`'s epochs, handed to `fresh`'s engines: refused
/// (and each shard's own answer given) when an insert separates the two
/// pins, shared when only removes and compactions do.
fn assert_cross_epoch(
    stale: &FleetReader<JunoIndex>,
    fresh: &FleetReader<JunoIndex>,
    queries: &VectorSet,
    want: PlanUse,
    label: &str,
) {
    let plan = stale
        .shard(0)
        .index()
        .plan_batch(queries, 1)
        .expect("plan")
        .expect("JUNO plans");
    for s in 0..fresh.num_shards() {
        assert_planned(
            fresh.shard(s).index(),
            &plan,
            queries,
            want,
            &format!("{label} shard {s}"),
        );
    }
}

#[test]
fn interleaved_fleet_mutation_keeps_parity_and_keeps_sharing() {
    let ds = DatasetProfile::DeepLike
        .generate(1_500, 12, 900)
        .expect("ds");
    let extra = DatasetProfile::DeepLike
        .generate(200, 1, 900 ^ 0xFFFF)
        .expect("extra");
    let mut monolith = build_juno(&ds);
    let fleet = ShardedIndex::from_monolith(monolith.clone(), 4, ShardRouter::Hash { seed: 21 })
        .expect("fleet");
    let mut rng = seeded(0x5AFE);
    let mut inserted = 0usize;
    // Round 1 mutates without inserting: planning state stands still, so a
    // plan pinned before it is still good after it.
    for (round, inserts) in [true, false, true].into_iter().enumerate() {
        let stale = fleet.reader();
        for _ in 0..30 {
            if inserts && rng.gen_range(0..2usize) == 0 {
                let v = extra.points.row(inserted);
                inserted += 1;
                assert_eq!(
                    fleet.insert_shared(v).expect("fleet insert"),
                    monolith.insert(v).expect("mono insert")
                );
            } else {
                let id = rng.gen_range(0..(ds.points.len() + inserted)) as u64;
                assert_eq!(
                    fleet.remove_shared(id).expect("fleet remove"),
                    monolith.remove(id).expect("mono remove")
                );
            }
        }
        if round > 0 {
            fleet.compact_all_shared().expect("fleet compact");
            monolith.compact().expect("mono compact");
        }
        let label = format!("mutated round {round}");
        let reference = search_all(&monolith, &ds.queries, K);
        assert_all_paths(&fleet, &reference, &ds.queries, &label);
        let want = if inserts {
            PlanUse::Replanned
        } else {
            PlanUse::Shared
        };
        assert_cross_epoch(&stale, &fleet.reader(), &ds.queries, want, &label);
    }
}

fn shard_stamps(fleet: &ShardedIndex<JunoIndex>) -> Vec<u64> {
    let reader = fleet.reader();
    (0..reader.num_shards())
        .map(|s| reader.shard(s).index().plan_stamp())
        .collect()
}

fn assert_stamps_agree(fleet: &ShardedIndex<JunoIndex>, label: &str) {
    let stamps = shard_stamps(fleet);
    assert!(
        stamps.iter().all(|&s| s == stamps[0]),
        "{label}: shard stamps diverged: {stamps:x?}"
    );
}

#[test]
fn restored_recovered_and_reshaped_fleets_share_plans_again() {
    let ds = DatasetProfile::DeepLike
        .generate(1_200, 10, 412)
        .expect("ds");
    let extra = DatasetProfile::DeepLike
        .generate(64, 1, 412 ^ 0xFFFF)
        .expect("extra");
    let mut monolith = build_juno(&ds);
    let prototype = monolith.clone();
    let fleet = ShardedIndex::from_monolith(monolith.clone(), 4, ShardRouter::Hash { seed: 33 })
        .expect("fleet");
    let dir = std::env::temp_dir().join(format!("juno_shared_plan_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    fleet
        .enable_wal(&dir, DurabilityConfig::default())
        .expect("enable_wal");
    let mut next = 0usize;
    let mut insert = |fleet: &ShardedIndex<JunoIndex>, monolith: &mut JunoIndex, n: usize| {
        for _ in 0..n {
            let v = extra.points.row(next);
            next += 1;
            assert_eq!(
                fleet.insert_shared(v).expect("fleet insert"),
                monolith.insert(v).expect("mono insert")
            );
        }
    };
    // Checkpointed history, then a WAL suffix the recovery has to replay.
    insert(&fleet, &mut monolith, 10);
    fleet.checkpoint().expect("checkpoint");
    insert(&fleet, &mut monolith, 6);
    let reference = search_all(&monolith, &ds.queries, K);
    assert_all_paths(&fleet, &reference, &ds.queries, "live");

    // A SHRD snapshot restores every shard's stamp from content.
    let bytes = fleet.to_snapshot_bytes().expect("snapshot");
    let restored = ShardedIndex::from_snapshot_bytes(prototype.clone(), &bytes).expect("restore");
    assert_stamps_agree(&restored, "restored");
    assert_all_paths(&restored, &reference, &ds.queries, "restored");

    // Checkpoint + WAL: restored stamps, rolled forward by the replay.
    drop(fleet);
    let (recovered, report) =
        ShardedIndex::recover_from_dir(prototype, &dir, DurabilityConfig::default())
            .expect("recover");
    assert_eq!(report.replayed_ops, 6, "the WAL suffix replays");
    assert_stamps_agree(&recovered, "recovered");
    assert_all_paths(&recovered, &reference, &ds.queries, "recovered");

    // The stamps keep tracking inserts after either restore path.
    for (name, fleet) in [("restored", &restored), ("recovered", &recovered)] {
        let stale = fleet.reader();
        let before = shard_stamps(fleet);
        fleet
            .insert_shared(extra.points.row(40))
            .expect("post-restore insert");
        assert_stamps_agree(fleet, name);
        assert_ne!(
            shard_stamps(fleet),
            before,
            "{name}: insert moves the stamp"
        );
        assert_cross_epoch(
            &stale,
            &fleet.reader(),
            &ds.queries,
            PlanUse::Replanned,
            name,
        );
    }
    monolith.insert(extra.points.row(40)).expect("mono insert");
    let reference = search_all(&monolith, &ds.queries, K);
    assert_all_paths(&recovered, &reference, &ds.queries, "recovered + insert");

    // Topology changes derive shards from one engine (stamp copied), and a
    // rebuild retrains once for all of them (stamp reset, together).
    recovered.resize_shards(5).expect("split");
    assert_stamps_agree(&recovered, "split");
    assert_all_paths(&recovered, &reference, &ds.queries, "split");
    let before = shard_stamps(&recovered);
    recovered.rebuild_shared().expect("rebuild");
    assert_stamps_agree(&recovered, "rebuilt");
    assert_ne!(
        shard_stamps(&recovered)[0],
        before[0],
        "a rebuild retrains: fresh content stamp"
    );
    let got = recovered
        .reader()
        .search_batch_deadline(&ds.queries, K, BUDGET)
        .expect("deadline batch");
    assert_eq!((got.plan_shared_shards, got.plan_replanned_shards), (5, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
