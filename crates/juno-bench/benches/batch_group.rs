//! Cluster-major grouped batch execution vs the PR 3 query-major path.
//!
//! A serving-shaped workload (120k points in few large clusters, heavy
//! probe overlap across a 64-query batch) drives the same `JunoIndex`
//! through both batch executors. The grouped path streams each probed
//! cluster's code blocks once per query group (register-tiles of
//! `GROUP_TILE` quantised LUTs per block) instead of once per query, which
//! cuts the distance stage's block traffic by the group factor — the lever
//! that pays off whenever the index does not fit the last-level cache
//! (production DRAM-resident serving; small-LLC CI runners). On hosts whose
//! LLC swallows the whole index, the kernel is compute-bound and the two
//! strategies land at e2e parity, so CI gates the *modelled traffic
//! reduction* (computed from the real batch schedule and recorded in the
//! JSON artifact) plus e2e non-regression, rather than wall-clock speedup.
//!
//! Record a baseline with
//! `JUNO_BENCH_JSON=BENCH_pr5_group.json cargo bench --bench batch_group`.

use juno_bench::harness::{black_box, Harness};
use juno_common::index::AnnIndex;
use juno_common::kernel::GROUP_TILE;
use juno_core::config::{JunoConfig, QualityMode};
use juno_core::engine::JunoIndex;
use juno_data::profiles::DatasetProfile;
use std::time::Duration;

fn main() {
    // Serving shape: few, large clusters (≈3.7k points each) and a wide
    // probe fan-out, so the distance stage dominates and probe sets overlap
    // heavily across the batch.
    let points = 120_000usize;
    let batch = 64usize;
    let k = 100usize;
    let profile = DatasetProfile::DeepLike;
    let ds = profile.generate(points, batch, 29).expect("dataset");
    let config = JunoConfig {
        n_clusters: 32,
        nprobs: 8,
        pq_subspaces: profile.dim() / 2,
        pq_entries: 64,
        metric: profile.metric(),
        threshold_train_samples: 128,
        ..JunoConfig::default()
    };
    let mut juno = JunoIndex::build(&ds.points, &config).expect("index");
    let queries = ds.queries.clone();

    let mut h = Harness::new("batch_group");

    // Modelled bytes streamed by the distance stage: query-major re-streams
    // a cluster's interleaved blocks once per probing query; the grouped
    // scan streams them once per GROUP_TILE-query tile (later tiles of the
    // same cluster re-hit near caches). In the exact-distance (High) mode
    // the executor additionally streams each query's *nearest* probe
    // query-major in the seed pass, so the High-mode model charges probe 0
    // at full cost and tiles only the remaining probes; hit-count modes
    // skip the seed and tile everything. The seed pass prunes too, but it
    // still streams every block of probe 0 once per query, so the full
    // charge remains true. The conservative (High) figure is what CI gates.
    {
        let plans: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| juno.build_selective_lut(q).expect("plan").0)
            .collect();
        let block_bytes: Vec<usize> = (0..config.n_clusters)
            .map(|c| juno.list_codes().cluster_blocks(c).data_bytes())
            .collect();
        let mut group_all = vec![0usize; config.n_clusters];
        let mut group_tail = vec![0usize; config.n_clusters];
        let mut seed_bytes = 0usize;
        for probes in &plans {
            for (slot, &c) in probes.iter().enumerate() {
                group_all[c] += 1;
                if slot == 0 {
                    seed_bytes += block_bytes[c];
                } else {
                    group_tail[c] += 1;
                }
            }
        }
        let tiled = |sizes: &[usize]| -> usize {
            sizes
                .iter()
                .zip(&block_bytes)
                .map(|(&g, &b)| g.div_ceil(GROUP_TILE) * b)
                .sum()
        };
        let query_major: usize = group_all
            .iter()
            .zip(&block_bytes)
            .map(|(&g, &b)| g * b)
            .sum();
        let grouped_high = seed_bytes + tiled(&group_tail);
        let grouped_hitcount = tiled(&group_all);
        println!(
            "modelled block bytes streamed per batch-{batch}: query-major {:.1} MiB, \
             grouped High {:.1} MiB ({:.2}x less, incl. seed pass), \
             grouped hit-count {:.1} MiB ({:.2}x less)",
            query_major as f64 / (1 << 20) as f64,
            grouped_high as f64 / (1 << 20) as f64,
            query_major as f64 / grouped_high.max(1) as f64,
            grouped_hitcount as f64 / (1 << 20) as f64,
            query_major as f64 / grouped_hitcount.max(1) as f64,
        );
        let mut g = h.group("block_bytes_streamed");
        g.record("query_major_batch64", query_major as f64);
        g.record("grouped_batch64", grouped_high as f64);
        g.record("grouped_hitcount_batch64", grouped_hitcount as f64);
    }
    {
        let results = juno.search_batch_grouped(&queries, k, 1).expect("batch");
        let (mut builds, mut reuses, mut cand, mut pruned) = (0usize, 0usize, 0usize, 0usize);
        for r in &results {
            builds += r.stats.lut_builds;
            reuses += r.stats.lut_reuses;
            cand += r.stats.candidates;
            pruned += r.stats.pruned_points;
        }
        println!(
            "grouped batch-{batch}: {cand} candidates ({pruned} bound-pruned), \
             {builds} LUT builds, {reuses} reuse passes"
        );
    }

    // JUNO-H at one worker thread: the gated e2e pair (single-threaded so
    // the comparison isolates the execution strategy from parallelism).
    {
        let mut g = h.group("batch_group_qps");
        g.sample_time(Duration::from_millis(1_200)).samples(10);
        let juno_ref = &juno;
        g.bench("grouped_batch64", || {
            juno_ref
                .search_batch_grouped(black_box(&queries), k, 1)
                .expect("batch")
                .len()
        });
        g.bench("query_major_batch64", || {
            juno_ref
                .search_batch_query_major(black_box(&queries), k, 1)
                .expect("batch")
                .len()
        });
    }
    // JUNO-L hit counting: no pruning, so the scan is a pure block stream —
    // the shape where grouping is most bandwidth-sensitive.
    juno.set_quality(QualityMode::Low);
    {
        let mut g = h.group("batch_group_qps_hitcount");
        g.sample_time(Duration::from_millis(1_200)).samples(10);
        let juno_ref = &juno;
        g.bench("grouped_batch64", || {
            juno_ref
                .search_batch_grouped(black_box(&queries), k, 1)
                .expect("batch")
                .len()
        });
        g.bench("query_major_batch64", || {
            juno_ref
                .search_batch_query_major(black_box(&queries), k, 1)
                .expect("batch")
                .len()
        });
    }
    juno.set_quality(QualityMode::High);
    {
        // The default entry point at the default thread budget: the grouped
        // executor must also compose with work-stealing parallelism.
        let mut g = h.group("batch_group_qps_default_threads");
        g.sample_time(Duration::from_millis(1_200)).samples(10);
        let juno_ref = &juno;
        g.bench("grouped_batch64", || {
            juno_ref
                .search_batch(black_box(&queries), k)
                .expect("batch")
                .len()
        });
    }
    h.finish();
}
