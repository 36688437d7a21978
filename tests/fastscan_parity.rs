//! Differential tests for the fast-scan ADC pipeline: with the quantised
//! prune pass enabled (the default), search results — ids **and** distance
//! bits — must be identical to the plain scalar scan, for every quality
//! mode, both metrics, nibble-packed and plain `u8` block layouts, across
//! mutation (tails + tombstones) and compaction, and for a visit that starts
//! from an empty selector (the seed pass of a fat nearest list).
//!
//! The kernel itself (AVX2 vs scalar bit-identity, bound safety) is unit
//! tested in `juno-common/src/kernel.rs`; this suite pins the end-to-end
//! contract the engine builds on top of it.

mod common;

use common::{assert_bit_identical, search_all, Stats};
use juno::baseline::ivfpq::{IvfPqConfig, IvfPqIndex};
use juno::common::index::AnnIndex;
use juno::common::vector::VectorSet;
use juno::core::config::{JunoConfig, QualityMode};
use juno::core::engine::JunoIndex;
use juno::data::profiles::DatasetProfile;

/// Fast-scan on vs off across quality modes for one built index; returns the
/// total pruning work observed in High mode so callers can assert the prune
/// pass actually engages.
fn check_parity(index: &mut JunoIndex, ds: &juno::data::profiles::Dataset, label: &str) -> usize {
    let mut pruned_high = 0usize;
    for mode in [QualityMode::High, QualityMode::Medium, QualityMode::Low] {
        index.set_quality(mode);
        index.set_fastscan(true);
        let fast = search_all(index, &ds.queries, 50);
        index.set_fastscan(false);
        let exact = search_all(index, &ds.queries, 50);
        assert_bit_identical(&fast, &exact, Stats::Any, &format!("{label} {mode:?}"));
        // The cluster-major grouped batch executor must land on the same
        // bits as the sequential scan with the prune pass both on and off.
        index.set_fastscan(true);
        let grouped = index.search_batch_threads(&ds.queries, 50, 3).unwrap();
        assert_bit_identical(
            &grouped,
            &fast,
            Stats::Any,
            &format!("{label} {mode:?} grouped"),
        );
        index.set_fastscan(false);
        let grouped_exact = index.search_batch_threads(&ds.queries, 50, 3).unwrap();
        assert_bit_identical(
            &grouped_exact,
            &exact,
            Stats::Any,
            &format!("{label} {mode:?} grouped exact"),
        );
        if mode == QualityMode::High {
            pruned_high += fast
                .iter()
                .map(|r| r.stats.pruned_points + r.stats.pruned_blocks + r.stats.pruned_clusters)
                .sum::<usize>();
            // The exact path must never report pruning.
            assert!(exact.iter().all(|r| r.stats.pruned_points == 0
                && r.stats.pruned_blocks == 0
                && r.stats.pruned_clusters == 0));
        }
        // Hit-count modes produce identical integer counts on both paths, so
        // even the work counters must agree there.
        if mode != QualityMode::High {
            for (f, e) in fast.iter().zip(&exact) {
                assert_eq!(
                    f.stats.accumulations, e.stats.accumulations,
                    "{label} {mode:?}: hit-count accumulations diverged"
                );
                assert_eq!(f.stats.candidates, e.stats.candidates);
            }
        }
    }
    index.set_quality(QualityMode::High);
    index.set_fastscan(true);
    pruned_high
}

#[test]
fn fastscan_is_bit_identical_l2_u8_blocks() {
    // E = 64 -> plain u8 block rows (the 4-table AVX2 path).
    let ds = DatasetProfile::DeepLike.generate(3_000, 16, 77).unwrap();
    let config = JunoConfig {
        n_clusters: 32,
        nprobs: 8,
        pq_entries: 64,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let mut index = JunoIndex::build(&ds.points, &config).unwrap();
    let pruned = check_parity(&mut index, &ds, "L2/E64");
    assert!(pruned > 0, "prune pass never engaged on the u8 path");
}

#[test]
fn fastscan_is_bit_identical_l2_nibble_blocks() {
    // E = 16 -> every code fits a nibble, exercising the packed vpshufb path.
    let ds = DatasetProfile::DeepLike.generate(2_500, 16, 78).unwrap();
    let config = JunoConfig {
        n_clusters: 24,
        nprobs: 8,
        pq_entries: 16,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let mut index = JunoIndex::build(&ds.points, &config).unwrap();
    let pruned = check_parity(&mut index, &ds, "L2/E16");
    assert!(pruned > 0, "prune pass never engaged on the nibble path");
}

#[test]
fn fastscan_is_bit_identical_mips() {
    let ds = DatasetProfile::TtiLike.generate(2_000, 12, 41).unwrap();
    let config = JunoConfig {
        n_clusters: 16,
        nprobs: 8,
        pq_entries: 32,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let mut index = JunoIndex::build(&ds.points, &config).unwrap();
    check_parity(&mut index, &ds, "MIPS/E32");
}

#[test]
fn fastscan_is_bit_identical_across_mutation_and_compaction() {
    let ds = DatasetProfile::DeepLike.generate(2_500, 12, 123).unwrap();
    let extra = DatasetProfile::DeepLike.generate(150, 1, 321).unwrap();
    let config = JunoConfig {
        n_clusters: 32,
        nprobs: 8,
        pq_entries: 64,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let mut index = JunoIndex::build(&ds.points, &config).unwrap();
    // Tombstones + tail appends: blocks still cover the (stale) base, tails
    // go through the exact path, deleted lanes must vanish from both paths.
    for id in (0..2_500u64).step_by(9) {
        assert!(index.remove(id).unwrap());
    }
    for i in 0..extra.points.len() {
        index.insert(extra.points.row(i)).unwrap();
    }
    check_parity(&mut index, &ds, "mutated");
    index.compact().unwrap();
    check_parity(&mut index, &ds, "compacted");
}

/// The tile-of-one contract: the single-query path *is* the batch path with
/// one query — same visit, same counters — on both engines, in every mode,
/// with the prune pass on and off, over tails and tombstones.
#[test]
fn single_query_search_equals_a_one_query_batch_stat_for_stat() {
    let ds = DatasetProfile::DeepLike.generate(2_000, 10, 91).unwrap();
    let mut juno = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 16,
            nprobs: 6,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .unwrap();
    let mut ivfpq = IvfPqIndex::build(
        &ds.points,
        &IvfPqConfig {
            n_clusters: 16,
            nprobs: 6,
            pq_subspaces: ds.dim() / 2,
            pq_entries: 32,
            metric: ds.metric(),
            seed: 91,
        },
    )
    .unwrap();
    for id in (0..2_000u64).step_by(11) {
        assert!(juno.remove(id).unwrap());
        assert!(ivfpq.remove(id).unwrap());
    }
    for i in 0..40 {
        juno.insert(ds.points.row(i * 17)).unwrap();
        ivfpq.insert(ds.points.row(i * 17)).unwrap();
    }

    let check = |index: &dyn AnnIndex, label: &str| {
        for (qi, q) in ds.queries.iter().enumerate() {
            let one = VectorSet::from_rows(vec![q.to_vec()]).unwrap();
            assert_bit_identical(
                &[index.search(q, 30).unwrap()],
                &index.search_batch_threads(&one, 30, 3).unwrap(),
                Stats::Full,
                &format!("{label} query {qi}"),
            );
        }
    };
    for fastscan in [true, false] {
        ivfpq.set_fastscan(fastscan);
        check(&ivfpq, &format!("IVFPQ fastscan={fastscan}"));
        juno.set_fastscan(fastscan);
        for mode in [QualityMode::High, QualityMode::Medium, QualityMode::Low] {
            juno.set_quality(mode);
            check(&juno, &format!("JUNO {mode:?} fastscan={fastscan}"));
        }
    }
}

/// The fast-scan switch of both engines, so one check serves either.
trait FastScan: AnnIndex {
    fn fastscan(&mut self, enabled: bool);
}

impl FastScan for JunoIndex {
    fn fastscan(&mut self, enabled: bool) {
        self.set_fastscan(enabled);
    }
}

impl FastScan for IvfPqIndex {
    fn fastscan(&mut self, enabled: bool) {
        self.set_fastscan(enabled);
    }
}

/// One visit from an empty selector (`nprobs = 1`): the pruned scan must
/// equal the exact one bit for bit, settle most of the list without an exact
/// evaluation once `k` leaves room to, and prune nothing when the selector
/// can never fill.
fn check_seed_visit<I: FastScan>(index: &mut I, queries: &VectorSet, label: &str) {
    index.fastscan(true);
    let stored = index.search(queries.row(0), 1).unwrap().stats.candidates;
    assert!(stored >= 2_000, "{label}: the one list holds {stored}");
    for k in [1, 10, 100, stored + 1] {
        index.fastscan(true);
        let fast = search_all(index, queries, k);
        index.fastscan(false);
        let exact = search_all(index, queries, k);
        assert_bit_identical(&fast, &exact, Stats::Any, &format!("{label} k={k}"));
        for (qi, r) in fast.iter().enumerate() {
            let s = &r.stats;
            assert_eq!(s.candidates, stored, "{label} k={k} query {qi}");
            if k <= 100 {
                assert!(s.pruned_points > 0, "{label} k={k} query {qi}: {s:?}");
                assert!(
                    s.candidates - s.pruned_points <= s.candidates / 2,
                    "{label} k={k} query {qi}: {s:?}"
                );
            } else {
                assert_eq!(
                    s.pruned_points + s.pruned_blocks + s.pruned_clusters,
                    0,
                    "{label} k={k} query {qi}: {s:?}"
                );
            }
        }
    }
    index.fastscan(true);
}

/// [`check_seed_visit`] on a freshly built index, over tombstones and an
/// append tail, and after compaction folds both away.
fn check_seed_visit_across_mutation<I: FastScan>(
    index: &mut I,
    ds: &juno::data::profiles::Dataset,
    label: &str,
) {
    check_seed_visit(index, &ds.queries, &format!("{label} built"));
    // Tombstone a prefix of the list (the lanes that would otherwise fill
    // the selector) and a stride through the rest, then grow a tail.
    for id in (0..150u64).chain((150..ds.points.len() as u64).step_by(13)) {
        assert!(index.remove(id).unwrap());
    }
    for i in 0..120 {
        index.insert(ds.points.row(i * 7)).unwrap();
    }
    check_seed_visit(index, &ds.queries, &format!("{label} mutated"));
    index.compact().unwrap();
    check_seed_visit(index, &ds.queries, &format!("{label} compacted"));
}

#[test]
fn seed_visit_of_a_fat_list_prunes_from_an_empty_selector() {
    for (profile, name) in [
        (DatasetProfile::DeepLike, "L2"),
        (DatasetProfile::TtiLike, "MIPS"),
    ] {
        let ds = profile.generate(2_400, 6, 59).unwrap();
        let mut juno = JunoIndex::build(
            &ds.points,
            &JunoConfig {
                n_clusters: 1,
                nprobs: 1,
                pq_entries: 32,
                ..JunoConfig::small_test(ds.dim(), ds.metric())
            },
        )
        .unwrap();
        check_seed_visit_across_mutation(&mut juno, &ds, &format!("JUNO-H {name}"));
        let mut ivfpq = IvfPqIndex::build(
            &ds.points,
            &IvfPqConfig {
                n_clusters: 1,
                nprobs: 1,
                pq_subspaces: ds.dim() / 2,
                pq_entries: 32,
                metric: ds.metric(),
                seed: 59,
            },
        )
        .unwrap();
        check_seed_visit_across_mutation(&mut ivfpq, &ds, &format!("IVFPQ {name}"));
    }
}

#[test]
fn fastscan_toggle_is_reported() {
    let ds = DatasetProfile::DeepLike.generate(600, 2, 9).unwrap();
    let config = JunoConfig {
        n_clusters: 8,
        nprobs: 4,
        pq_entries: 16,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let mut index = JunoIndex::build(&ds.points, &config).unwrap();
    assert!(index.fastscan_enabled(), "fast-scan defaults to on");
    index.set_fastscan(false);
    assert!(!index.fastscan_enabled());
    // The selected kernel is one of the three known implementations.
    assert!(["avx512vbmi", "avx2", "scalar"].contains(&juno::common::kernel::kernel_name()));
}
