//! The one bit-identity helper of the parity suites (`mod common;` in each).

#![allow(dead_code)] // every suite uses a subset

use juno::common::index::{AnnIndex, SearchResult};
use juno::common::vector::VectorSet;

/// How much of [`SearchResult`]'s statistics two runs must agree on, beyond
/// ids and distance bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stats {
    /// Neighbours only — the runs legitimately do different work (fast-scan
    /// on vs off, fleet vs monolith, before vs after a restore).
    Any,
    /// The execution-invariant subset. A grouped batch visits a query's
    /// probed clusters in storage order, so its *prune trajectory*
    /// (`pruned_*`, and with it `accumulations` and `lut_reuses`) may differ
    /// from the sequential scan; `candidates`, the planning counters, the RT
    /// work and the simulated stage times derived from them may not.
    Invariant,
    /// Every counter.
    Full,
}

/// Asserts two result lists are bit-identical — same length, and per query
/// the same neighbour count, ids and distance bit patterns in rank order —
/// plus the requested [`Stats`] agreement.
pub fn assert_bit_identical(a: &[SearchResult], b: &[SearchResult], stats: Stats, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: result count");
    for (q, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            ra.neighbors.len(),
            rb.neighbors.len(),
            "{label}: query {q} neighbour count"
        );
        for (rank, (na, nb)) in ra.neighbors.iter().zip(&rb.neighbors).enumerate() {
            assert_eq!(na.id, nb.id, "{label}: query {q} rank {rank} id");
            assert_eq!(
                na.distance.to_bits(),
                nb.distance.to_bits(),
                "{label}: query {q} rank {rank} distance bits"
            );
        }
        let (sa, sb) = (&ra.stats, &rb.stats);
        match stats {
            Stats::Any => {}
            Stats::Full => assert_eq!(sa, sb, "{label}: query {q} work counters"),
            Stats::Invariant => {
                let invariant = |r: &SearchResult| {
                    let s = &r.stats;
                    (
                        [s.candidates, s.filter_distances, s.lut_distances],
                        [s.rt_aabb_tests, s.rt_primitive_tests, s.rt_hits],
                        s.lut_builds,
                        // Stage times derive from planning work + candidates
                        // only, so they must be bit-equal.
                        [s.filter_us, s.lut_us, s.accumulate_us, r.simulated_us].map(f64::to_bits),
                    )
                };
                assert_eq!(
                    invariant(ra),
                    invariant(rb),
                    "{label}: query {q} execution-invariant stats ({sa:?} vs {sb:?})"
                );
            }
        }
    }
}

/// Searches every query sequentially through [`AnnIndex::search`].
pub fn search_all(index: &dyn AnnIndex, queries: &VectorSet, k: usize) -> Vec<SearchResult> {
    queries
        .iter()
        .map(|q| index.search(q, k).expect("search"))
        .collect()
}
