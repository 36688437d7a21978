//! The JUNO engine on the shared scan driver (`juno_quant::scan`): the
//! arena's zero-allocation contract on both execution paths, and agreement
//! of the grouped pipeline, the query-major batch and the sequential search.

use juno_common::index::AnnIndex;
use juno_common::kernel::MIN_PRUNE_POINTS;
use juno_common::vector::VectorSet;
use juno_core::config::{JunoConfig, QualityMode};
use juno_core::engine::JunoIndex;
use juno_data::profiles::{Dataset, DatasetProfile};
use juno_quant::scan::{search_one_planned, PlannedBatch, ScanArena, ScanEngine};
use std::sync::OnceLock;

/// One dataset + JUNO-H index for the whole file; tests clone the index
/// when they need another quality mode.
fn fixture() -> &'static (Dataset, JunoIndex) {
    static FIXTURE: OnceLock<(Dataset, JunoIndex)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = DatasetProfile::DeepLike.generate(2_000, 24, 71).unwrap();
        let config = JunoConfig {
            n_clusters: 32,
            nprobs: 8,
            pq_entries: 64,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        };
        let index = JunoIndex::build(&ds.points, &config).unwrap();
        (ds, index)
    })
}

#[test]
fn group_scratch_is_reused_without_allocation_churn() {
    // The arena must be sized by the first batch (or the first search) and
    // then serve identical steady-state work with zero per-query
    // allocation: no growth events, no capacity change.
    let (ds, index) = fixture();
    let mut index = index.clone();
    // The largest list, and a query whose nearest probe it is: that visit
    // starts from an empty selector and takes the ranked visit, whose
    // buffers the largest list sizes.
    let lists = index.lists();
    let largest = (0..lists.num_clusters())
        .max_by_key(|&c| lists.cluster_ids(c).len())
        .unwrap();
    assert!(lists.cluster_ids(largest).len() >= MIN_PRUNE_POINTS + 10);
    let nearest = ds.points.row(lists.cluster_ids(largest)[0] as usize);
    assert_eq!(index.probes(&index.plan(nearest).unwrap())[0], largest);
    let rows: Vec<&[f32]> = std::iter::once(nearest).chain(ds.queries.iter()).collect();
    for mode in [QualityMode::High, QualityMode::Medium, QualityMode::Low] {
        index.set_quality(mode);
        let plans: Vec<_> = rows.iter().map(|q| index.plan(q).unwrap()).collect();
        // No seed bounds, every probe grouped: the pure cluster-major
        // configuration, which touches every arena path.
        let batch = PlannedBatch {
            replicas: &[&index],
            queries: &rows,
            plans: &plans,
            seeds: &[],
            k: 10,
        };
        let sched = batch.schedule(0);
        assert!(sched.num_chunks() > 0);
        let mut scratch = ScanArena::new(index.new_slot());
        let mut run = || {
            for ci in 0..sched.num_chunks() {
                batch.scan_chunk(&sched, ci, &mut scratch);
            }
            (scratch.grow_events(), scratch.footprint())
        };
        // The first batch sizes the arena …
        let first = run();
        assert!(first.0 > 0, "{mode:?}: first batch must size the arena");
        // … and steady-state repeats must reuse it untouched.
        for _ in 0..2 {
            assert_eq!(run(), first, "{mode:?}: arena regrew or churned");
        }

        // The seed pass's shape: every query's probes query-major through
        // one arena. A one-slot arena only grows for the ranked visit, on
        // the largest list first; then never again.
        let mut scratch = ScanArena::new(index.new_slot());
        let fresh = (scratch.grow_events(), scratch.footprint());
        let mut run = || {
            for (q, plan) in rows.iter().zip(&plans) {
                search_one_planned(&index, q, plan, 10, &mut scratch).unwrap();
            }
            (scratch.grow_events(), scratch.footprint())
        };
        let first = run();
        if mode == QualityMode::High {
            assert_eq!(first.0, fresh.0 + 1, "one growth, to the largest list");
        } else {
            assert_eq!(first, fresh, "{mode:?}: the hit-count unit never ranks");
        }
        for _ in 0..2 {
            assert_eq!(run(), first, "{mode:?}: the ranked buffers regrew");
        }

        // The single-query path never grows the scratch `make_scratch()`
        // hands out: its ranked buffers already fit the largest list.
        let mut scratch = index.make_scratch();
        let fresh = (scratch.grow_events(), scratch.footprint());
        for q in &rows {
            index.search_with_scratch(q, 10, &mut scratch).unwrap();
        }
        assert_eq!(
            (scratch.grow_events(), scratch.footprint()),
            fresh,
            "{mode:?}: search_with_scratch grew its scratch"
        );
    }
}

#[test]
fn grouped_and_query_major_batches_agree_with_sequential() {
    let (ds, index) = fixture();
    let sequential: Vec<_> = ds
        .queries
        .iter()
        .map(|q| index.search(q, 25).unwrap())
        .collect();
    let grouped = index.search_batch_grouped(&ds.queries, 25, 3).unwrap();
    let query_major = index.search_batch_query_major(&ds.queries, 25, 3).unwrap();
    for (qi, ((s, g), m)) in sequential
        .iter()
        .zip(&grouped)
        .zip(&query_major)
        .enumerate()
    {
        assert_eq!(s.ids(), g.ids(), "grouped ids query {qi}");
        assert_eq!(s.ids(), m.ids(), "query-major ids query {qi}");
        for (ns, ng) in s.neighbors.iter().zip(&g.neighbors) {
            assert_eq!(ns.distance.to_bits(), ng.distance.to_bits());
        }
        assert_eq!(s.stats.candidates, g.stats.candidates);
        assert_eq!(s.stats, m.stats, "query-major full stats query {qi}");
    }
    // A single-query "batch" routes through the query-major fallback and
    // still matches.
    let one = VectorSet::from_rows(vec![ds.queries.row(0).to_vec()]).unwrap();
    let via_batch = index.search_batch(&one, 25).unwrap();
    assert_eq!(via_batch[0].ids(), sequential[0].ids());
    assert_eq!(via_batch[0].stats, sequential[0].stats);
}
