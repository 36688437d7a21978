//! Parity tests for the batched query pipeline: the batch entry points —
//! the query-major path (one task per query) **and** the cluster-major
//! grouped executor that now backs `search_batch` — must return
//! **bit-identical** neighbours and scores to a sequential `search` loop at
//! every thread count, and the flat-CSR `SelectiveLut` must behave exactly
//! like the nested-row layout it replaced.
//!
//! The grouped executor visits a query's probed clusters in storage order
//! instead of filter order, so its *prune trajectory* (pruned_points /
//! pruned_blocks / pruned_clusters, and with them `accumulations` and
//! `lut_reuses`) may legitimately differ from the sequential scan — results
//! stay bit-identical because pruning only ever discards provably-losing
//! candidates. Everything else (`candidates`, planning counters, RT work,
//! simulated stage times) is invariant and asserted exactly.

mod common;

use common::{assert_bit_identical, Stats};
use juno::common::index::AnnIndex;
use juno::common::rng::{seeded, Rng};
use juno::core::config::{JunoConfig, QualityMode};
use juno::core::engine::JunoIndex;
use juno::core::lut::SelectiveLut;
use juno::data::profiles::DatasetProfile;

#[test]
fn parallel_batch_matches_sequential_search_all_modes() {
    let ds = DatasetProfile::DeepLike.generate(3_000, 24, 99).unwrap();
    let config = JunoConfig {
        n_clusters: 32,
        nprobs: 8,
        pq_entries: 64,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let mut index = JunoIndex::build(&ds.points, &config).unwrap();

    for mode in [QualityMode::High, QualityMode::Medium, QualityMode::Low] {
        index.set_quality(mode);
        let sequential: Vec<_> = ds
            .queries
            .iter()
            .map(|q| index.search(q, 50).unwrap())
            .collect();
        for threads in [1usize, 2, 3, 8] {
            // The query-major path: full stats equality at every budget.
            let query_major = index
                .search_batch_query_major(&ds.queries, 50, threads)
                .unwrap();
            assert_bit_identical(
                &sequential,
                &query_major,
                Stats::Full,
                &format!("{mode:?} qm x{threads}"),
            );
            // The grouped executor (what search_batch_threads dispatches
            // to): bit-identical results, invariant stats subset; hit-count
            // modes have no pruning, so even their full stats must match.
            let grouped = index
                .search_batch_threads(&ds.queries, 50, threads)
                .unwrap();
            assert_bit_identical(
                &sequential,
                &grouped,
                Stats::Invariant,
                &format!("{mode:?} grp x{threads}"),
            );
            if mode != QualityMode::High {
                assert_bit_identical(
                    &sequential,
                    &grouped,
                    Stats::Full,
                    &format!("{mode:?} grp x{threads}"),
                );
            }
        }
        // The default entry point too.
        let parallel = index.search_batch(&ds.queries, 50).unwrap();
        assert_bit_identical(
            &sequential,
            &parallel,
            Stats::Invariant,
            &format!("{mode:?} default"),
        );
    }
}

#[test]
fn parallel_batch_matches_sequential_search_mips() {
    let ds = DatasetProfile::TtiLike.generate(2_000, 16, 41).unwrap();
    let config = JunoConfig {
        n_clusters: 16,
        nprobs: 8,
        pq_entries: 32,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let index = JunoIndex::build(&ds.points, &config).unwrap();
    let sequential: Vec<_> = ds
        .queries
        .iter()
        .map(|q| index.search(q, 100).unwrap())
        .collect();
    for threads in [2usize, 5] {
        let query_major = index
            .search_batch_query_major(&ds.queries, 100, threads)
            .unwrap();
        assert_bit_identical(
            &sequential,
            &query_major,
            Stats::Full,
            &format!("MIPS qm x{threads}"),
        );
        let grouped = index
            .search_batch_threads(&ds.queries, 100, threads)
            .unwrap();
        assert_bit_identical(
            &sequential,
            &grouped,
            Stats::Invariant,
            &format!("MIPS grp x{threads}"),
        );
    }
}

#[test]
fn parallel_batch_matches_sequential_after_mutation() {
    let ds = DatasetProfile::DeepLike.generate(2_500, 16, 123).unwrap();
    let extra = DatasetProfile::DeepLike.generate(200, 1, 321).unwrap();
    let config = JunoConfig {
        n_clusters: 32,
        nprobs: 8,
        pq_entries: 64,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let mut index = JunoIndex::build(&ds.points, &config).unwrap();

    // Mutate: tombstone a spread of the build set, then append new points
    // (which land in the clusters' tail segments until compaction).
    for id in (0..2_500u64).step_by(7) {
        assert!(index.remove(id).unwrap());
    }
    for i in 0..extra.points.len() {
        index.insert(extra.points.row(i)).unwrap();
    }

    let check_all_modes = |index: &mut JunoIndex, label: &str| {
        for mode in [QualityMode::High, QualityMode::Medium, QualityMode::Low] {
            index.set_quality(mode);
            let sequential: Vec<_> = ds
                .queries
                .iter()
                .map(|q| index.search(q, 50).unwrap())
                .collect();
            for threads in [2usize, 3, 8] {
                let query_major = index
                    .search_batch_query_major(&ds.queries, 50, threads)
                    .unwrap();
                assert_bit_identical(
                    &sequential,
                    &query_major,
                    Stats::Full,
                    &format!("{label} {mode:?} qm x{threads}"),
                );
                let grouped = index
                    .search_batch_threads(&ds.queries, 50, threads)
                    .unwrap();
                assert_bit_identical(
                    &sequential,
                    &grouped,
                    Stats::Invariant,
                    &format!("{label} {mode:?} grp x{threads}"),
                );
            }
        }
        index.set_quality(QualityMode::High);
    };

    // Parity must hold on the tombstone+tail state and again after the
    // compaction pass restores the contiguous layout.
    check_all_modes(&mut index, "mutated");
    index.compact().unwrap();
    check_all_modes(&mut index, "compacted");
}

#[test]
fn batch_errors_propagate_from_any_query() {
    let ds = DatasetProfile::DeepLike.generate(1_000, 4, 7).unwrap();
    let config = JunoConfig {
        n_clusters: 16,
        nprobs: 4,
        pq_entries: 32,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let index = JunoIndex::build(&ds.points, &config).unwrap();
    // k = 0 fails for every query; the batch must surface the error rather
    // than panic a worker.
    assert!(index.search_batch(&ds.queries, 0).is_err());
}

/// The nested-row layout the flat CSR replaced, kept as executable
/// documentation of the original semantics.
struct NestedRowLut {
    rows: Vec<Vec<(u16, f32)>>,
    num_slots: usize,
    num_subspaces: usize,
}

impl NestedRowLut {
    fn new(num_slots: usize, num_subspaces: usize) -> Self {
        Self {
            rows: vec![Vec::new(); num_slots * num_subspaces],
            num_slots,
            num_subspaces,
        }
    }

    fn insert(&mut self, slot: usize, subspace: usize, entry: u16, value: f32) {
        self.rows[slot * self.num_subspaces + subspace].push((entry, value));
    }

    fn finish(&mut self) {
        for row in &mut self.rows {
            row.sort_unstable_by_key(|&(e, _)| e);
        }
    }

    fn row(&self, slot: usize, subspace: usize) -> &[(u16, f32)] {
        &self.rows[slot * self.num_subspaces + subspace]
    }

    fn lookup(&self, slot: usize, subspace: usize, entry: u16) -> Option<f32> {
        let row = self.row(slot, subspace);
        row.binary_search_by_key(&entry, |&(e, _)| e)
            .ok()
            .map(|i| row[i].1)
    }

    fn total_selected(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    fn density(&self, entries_per_subspace: usize) -> f64 {
        let dense = self.num_slots * self.num_subspaces * entries_per_subspace;
        if dense == 0 {
            0.0
        } else {
            self.total_selected() as f64 / dense as f64
        }
    }
}

#[test]
fn csr_lut_is_equivalent_to_nested_rows() {
    let mut rng = seeded(4242);
    for case in 0..20 {
        let slots = rng.gen_range(1..6usize);
        let subspaces = rng.gen_range(1..8usize);
        let entries_per_subspace = rng.gen_range(4..32usize);
        let inserts = rng.gen_range(0..200usize);

        let mut csr = SelectiveLut::new(slots, subspaces);
        let mut nested = NestedRowLut::new(slots, subspaces);
        // Distinct (slot, subspace, entry) triples in random order — the RT
        // construction reports each selected sphere once per ray.
        let mut triples: Vec<(usize, usize, u16)> = Vec::new();
        for slot in 0..slots {
            for s in 0..subspaces {
                for e in 0..entries_per_subspace {
                    triples.push((slot, s, e as u16));
                }
            }
        }
        // Partial Fisher–Yates to pick `inserts` random distinct triples.
        let take = inserts.min(triples.len());
        for i in 0..take {
            let j = rng.gen_range(i..triples.len());
            triples.swap(i, j);
        }
        for &(slot, s, e) in triples.iter().take(take) {
            let value = rng.gen_range(0.0f32..10.0);
            csr.insert(slot, s, e, value);
            nested.insert(slot, s, e, value);
        }
        csr.finish();
        nested.finish();

        assert_eq!(csr.total_selected(), nested.total_selected(), "case {case}");
        assert_eq!(
            csr.density(entries_per_subspace).to_bits(),
            nested.density(entries_per_subspace).to_bits(),
            "case {case}"
        );
        for slot in 0..slots {
            for s in 0..subspaces {
                let flat: Vec<(u16, f32)> = csr.row(slot, s).collect();
                assert_eq!(flat, nested.row(slot, s).to_vec(), "case {case} row");
                // CSR slice views agree with the pair iterator.
                let ids: Vec<u16> = flat.iter().map(|&(e, _)| e).collect();
                let vals: Vec<f32> = flat.iter().map(|&(_, v)| v).collect();
                assert_eq!(csr.row_entries(slot, s), &ids[..], "case {case}");
                assert_eq!(csr.row_values(slot, s), &vals[..], "case {case}");
                for e in 0..entries_per_subspace as u16 {
                    assert_eq!(
                        csr.lookup(slot, s, e),
                        nested.lookup(slot, s, e),
                        "case {case} lookup ({slot},{s},{e})"
                    );
                }
            }
        }
    }
}
