//! The traced pass: spans around the ledger's own calls into each layer,
//! and the per-layer metrics derived from them.
//!
//! Everything here runs after the end-to-end windows, single-threaded
//! unless a probe says otherwise, over the first [`STAGE_QUERIES`] pool
//! queries. The read path is timed twice: once whole
//! (`search_with_scratch`, span `engine.search`) and once stage by stage
//! through the same public functions the engine calls internally. The
//! stage spans are *replayed* children of the whole-search span, so that
//! span's self time is the part of a search no stage accounts for — exact
//! re-rank of survivors, the first probed cluster's plain scan, top-k
//! upkeep and glue — reported as `engine.residual_us` and flagged derived.

use crate::fixture::{BATCH, K, STAGE_QUERIES};
use crate::loadgen::{run_closed, ClosedRun, Kind, Outcome, SUBMITTERS};
use crate::provenance::ENGINE_THREADS;
use crate::report::Report;
use crate::stats;
use crate::trace::{Span, Tracer};
use juno_common::error::Result;
use juno_common::index::AnnIndex;
use juno_common::kernel::{QuantizedLut, BLOCK_LANES, MIN_PRUNE_POINTS};
use juno_common::topk::merge_neighbors;
use juno_common::vector::VectorSet;
use juno_common::wal::{FsyncPolicy, Wal, WalOptions, WalRecord};
use juno_core::engine::JunoIndex;
use juno_core::lut::LutDecodeBuffer;
use juno_serve::{Server, ShardedIndex};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inserts timed per write probe.
const WRITE_PROBES: usize = 100;
/// Records the scratch WAL is fed, fsync'd every [`WAL_SYNC_EVERY`]th.
const WAL_PROBES: usize = 256;
pub const WAL_SYNC_EVERY: u64 = 64;

fn per_query_us(total_ns: u64, queries: usize) -> f64 {
    total_ns as f64 / queries.max(1) as f64 / 1e3
}

/// Reports the summed duration of every span called `span`, per query in
/// microseconds, as `metric`.
fn span_us(report: &mut Report, tracer: &Tracer, metric: &'static str, span: &str, queries: usize) {
    report.set(metric, per_query_us(tracer.total_ns(span), queries));
}

fn median_ms(durations_ns: &[u64]) -> f64 {
    let ms: Vec<f64> = durations_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    stats::median(&ms)
}

/// Times the read path of `index` whole and by stage; sets the `ivf.*`,
/// `rt.*`, `lut.*`, `kernel.*`, `layout.*`, `engine.*` read metrics, the
/// `gpu.*` model times and (for a mapped index) the `residency.*` counts.
pub fn engine_read_path(
    tracer: &mut Tracer,
    report: &mut Report,
    index: &JunoIndex,
    queries: &VectorSet,
) -> Result<()> {
    let n = STAGE_QUERIES.min(queries.len());
    let nq = n as f64;

    // Whole searches first: their counters, the model's stage times, the
    // residency deltas and each query's final k-th distance.
    let mut scratch = index.make_scratch();
    let mut search_spans = Vec::with_capacity(n);
    let mut kth = Vec::with_capacity(n);
    let (mut candidates, mut pruned_points, mut pruned_clusters, mut accumulations) =
        (0usize, 0usize, 0usize, 0usize);
    let mut sim = [0.0f64; 4];
    let residency_before = index.residency_stats();
    for q in 0..n {
        let span = tracer.begin("engine.search", None, q as u32);
        let result = index.search_with_scratch(queries.row(q), K, &mut scratch)?;
        tracer.end(span);
        search_spans.push(span);
        let s = &result.stats;
        candidates += s.candidates;
        pruned_points += s.pruned_points;
        pruned_clusters += s.pruned_clusters;
        accumulations += s.accumulations;
        sim[0] += s.filter_us;
        sim[1] += s.lut_us;
        sim[2] += s.accumulate_us;
        sim[3] += result.simulated_us;
        kth.push(result.neighbors.last().map(|n| n.distance));
    }
    let residency_after = index.residency_stats();

    // The same queries stage by stage.
    let subspaces = index.pq().num_subspaces();
    let entries = index.pq().entries_per_subspace();
    let miss_factor = index.config().miss_penalty_factor;
    let nprobs = index.config().nprobs;
    let mut decode = LutDecodeBuffer::new(subspaces, entries);
    let mut qlut = QuantizedLut::new();
    let mut lane_sums = [0u16; BLOCK_LANES];
    for q in 0..n {
        let (query, request, parent) = (queries.row(q), q as u32, search_spans[q]);
        let front = tracer.begin_replayed("engine.front", parent, request);
        let (clusters, lut, rt, thresholds) = index.build_selective_lut(query)?;
        tracer.end(front);
        // The coarse filter runs inside `build_selective_lut`; re-run it
        // back to back so the front half can be split.
        let filter = tracer.begin_replayed("ivf.filter", front, request);
        black_box(index.ivf().filter(query, nprobs)?);
        tracer.end(filter);
        tracer.count("rt.aabb_tests", rt.aabb_tests as f64);
        tracer.count("rt.primitive_tests", rt.primitive_tests as f64);
        tracer.count("rt.hits", rt.hits as f64);
        tracer.count("lut.selected", lut.total_selected() as f64);
        tracer.count("lut.density", lut.density(entries));

        for (slot, &cluster) in clusters.iter().enumerate() {
            index.list_codes().touch_cluster(cluster)?;
            let span = tracer.begin_replayed("lut.decode", parent, request);
            decode.decode_slot(&lut, slot);
            tracer.end(span);
            // The engine prune-scans a cluster only once a top-k worst
            // score exists and the cluster is large enough.
            let blocks = index.list_codes().cluster_blocks(cluster);
            if slot == 0 || blocks.num_points() < MIN_PRUNE_POINTS {
                continue;
            }
            let mean_thr_sq =
                thresholds[slot].iter().map(|t| t * t).sum::<f32>() / subspaces as f32;
            let span = tracer.begin_replayed("kernel.quantize", parent, request);
            qlut.build_selective(
                decode.as_slice(),
                subspaces,
                entries,
                0.0,
                mean_thr_sq * miss_factor,
                false,
            );
            tracer.end(span);
            // Seeded with the query's final k-th distance, the tightest
            // threshold the engine reaches; survivors are only counted.
            let worst = kth[q];
            let mut survivors = 0usize;
            let span = tracer.begin_replayed("layout.prune_scan", parent, request);
            blocks.prune_scan(&qlut, &mut lane_sums, worst, |_| {
                survivors += 1;
                worst
            });
            tracer.end(span);
            tracer.count("layout.scanned_points", blocks.num_points() as f64);
            tracer.count("layout.survivors", survivors as f64);
            // Computed from the block view's size, not measured.
            tracer.count("layout.bytes_streamed", blocks.data_bytes() as f64);
        }
    }

    let search_us = per_query_us(tracer.total_ns("engine.search"), n);
    report.set("engine.search_us", search_us);
    report.set(
        "engine.residual_us",
        per_query_us(tracer.total_self_ns("engine.search"), n),
    );
    span_us(report, tracer, "engine.front_us", "engine.front", n);
    report.set(
        "rt.traverse_lut_us",
        per_query_us(tracer.total_self_ns("engine.front"), n),
    );
    span_us(report, tracer, "ivf.filter_us", "ivf.filter", n);
    span_us(report, tracer, "lut.decode_us", "lut.decode", n);
    span_us(report, tracer, "kernel.quantize_us", "kernel.quantize", n);
    let scan_ns = tracer.total_ns("layout.prune_scan");
    report.set("layout.prune_scan_us", per_query_us(scan_ns, n));
    report.set(
        "layout.scan_ns_per_candidate",
        scan_ns as f64 / tracer.counted("layout.scanned_points").max(1.0),
    );
    report.set(
        "layout.bytes_streamed_per_query",
        tracer.counted("layout.bytes_streamed") / nq,
    );
    report.set(
        "rt.aabb_tests_per_query",
        tracer.counted("rt.aabb_tests") / nq,
    );
    report.set(
        "rt.prim_tests_per_query",
        tracer.counted("rt.primitive_tests") / nq,
    );
    report.set("rt.hits_per_query", tracer.counted("rt.hits") / nq);
    report.set(
        "rt.hit_ratio",
        tracer.counted("rt.hits") / tracer.counted("rt.primitive_tests").max(1.0),
    );
    report.set(
        "lut.selected_per_query",
        tracer.counted("lut.selected") / nq,
    );
    report.set("lut.density", tracer.counted("lut.density") / nq);
    report.set("engine.candidates_per_query", candidates as f64 / nq);
    report.set(
        "engine.pruned_ratio",
        pruned_points as f64 / candidates.max(1) as f64,
    );
    report.set(
        "engine.pruned_clusters_per_query",
        pruned_clusters as f64 / nq,
    );
    report.set("engine.accumulations_per_query", accumulations as f64 / nq);
    report.set("gpu.sim_filter_us", sim[0] / nq);
    report.set("gpu.sim_lut_us", sim[1] / nq);
    report.set("gpu.sim_accumulate_us", sim[2] / nq);
    report.set("gpu.sim_total_us", sim[3] / nq);

    if let (Some(before), Some(after)) = (residency_before, residency_after) {
        let hits = (after.hits - before.hits) as f64;
        let faults = (after.cold_faults - before.cold_faults) as f64;
        report.set("residency.hit_ratio", hits / (hits + faults).max(1.0));
        report.set("residency.cold_faults_per_query", faults / nq);
        report.set(
            "residency.evictions_per_query",
            (after.evictions - before.evictions) as f64 / nq,
        );
        report.set(
            "residency.resident_mb",
            (after.resident_bytes + after.pinned_bytes) as f64 / (1024.0 * 1024.0),
        );
    }

    // One 64-query batch call on the engine's own grouped path.
    let batch = VectorSet::from_rows((0..BATCH).map(|i| queries.row(i % n).to_vec()).collect())?;
    for rep in 0..5 {
        let span = tracer.begin("engine.batch64", None, rep);
        black_box(index.search_batch_threads(&batch, K, ENGINE_THREADS)?);
        tracer.end(span);
    }
    let batch_ms = median_ms(&tracer.durations_ns("engine.batch64"));
    report.set("engine.batch64_ms", batch_ms);
    report.set(
        "engine.batch_speedup",
        BATCH as f64 * search_us / 1e3 / batch_ms.max(f64::MIN_POSITIVE),
    );
    Ok(())
}

/// Times `JunoIndex::clone` and `JunoIndex::insert` on a clone: the two
/// engine costs every fleet write pays per shard.
pub fn engine_write_path(
    tracer: &mut Tracer,
    report: &mut Report,
    index: &JunoIndex,
    inserts: &VectorSet,
) -> Result<()> {
    let mut copy = index.clone();
    for rep in 0..3 {
        let span = tracer.begin("engine.clone", None, rep);
        copy = index.clone();
        tracer.end(span);
    }
    report.set(
        "engine.clone_ms",
        median_ms(&tracer.durations_ns("engine.clone")),
    );
    let n = WRITE_PROBES.min(inserts.len());
    for i in 0..n {
        let span = tracer.begin("engine.insert", None, i as u32);
        copy.insert(inserts.row(i))?;
        tracer.end(span);
    }
    span_us(report, tracer, "engine.insert_us", "engine.insert", n);
    Ok(())
}

/// Times the fleet's read fan-out against its parts: a whole
/// `FleetReader::search`, each shard's search alone, the k-way merge, and a
/// 16-query deadline batch. Needs `engine.search_us` of the monolith.
pub fn shard_read_path(
    tracer: &mut Tracer,
    report: &mut Report,
    fleet: &ShardedIndex<JunoIndex>,
    queries: &VectorSet,
    budget: Duration,
) -> Result<()> {
    let n = STAGE_QUERIES.min(queries.len());
    let reader = fleet.reader();
    let shards = reader.num_shards();
    let order = reader.shard(0).index().merge_order();
    for q in 0..n {
        let span = tracer.begin("shard.fleet_search", None, q as u32);
        black_box(reader.search(queries.row(q), K)?);
        tracer.end(span);
    }
    for q in 0..n {
        let mut lists = Vec::with_capacity(shards);
        for s in 0..shards {
            let span = tracer.begin("shard.shard_search", None, q as u32);
            let result = reader.shard(s).index().search(queries.row(q), K)?;
            tracer.end(span);
            lists.push(result.neighbors);
        }
        let span = tracer.begin("topk.merge", None, q as u32);
        black_box(merge_neighbors(&lists, K, order));
        tracer.end(span);
    }
    let fleet_us = per_query_us(tracer.total_ns("shard.fleet_search"), n);
    report.set("shard.fleet_search_us", fleet_us);
    span_us(
        report,
        tracer,
        "shard.per_shard_search_us",
        "shard.shard_search",
        n * shards,
    );
    span_us(report, tracer, "topk.merge_us", "topk.merge", n);
    let mono_us = report.get("engine.search_us").unwrap_or(0.0);
    report.set(
        "shard.fanout_cost_ratio",
        fleet_us / mono_us.max(f64::MIN_POSITIVE),
    );

    let batch = VectorSet::from_rows((0..16).map(|i| queries.row(i % n).to_vec()).collect())?;
    for rep in 0..10 {
        let span = tracer.begin("shard.batch16_deadline", None, rep);
        black_box(reader.search_batch_deadline(&batch, K, budget)?);
        tracer.end(span);
    }
    report.set(
        "shard.batch16_deadline_ms",
        median_ms(&tracer.durations_ns("shard.batch16_deadline")),
    );
    Ok(())
}

/// Times `insert_shared` on a fleet with no WAL attached. Needs
/// `engine.insert_us`.
pub fn shard_write_path(
    tracer: &mut Tracer,
    report: &mut Report,
    fleet: &ShardedIndex<JunoIndex>,
    inserts: &VectorSet,
) -> Result<()> {
    let n = WRITE_PROBES.min(inserts.len());
    for i in 0..n {
        let span = tracer.begin("shard.insert_nowal", None, i as u32);
        fleet.insert_shared(inserts.row(i))?;
        tracer.end(span);
    }
    let insert_us = per_query_us(tracer.total_ns("shard.insert_nowal"), n);
    report.set("shard.insert_nowal_us", insert_us);
    let engine_us = report.get("engine.insert_us").unwrap_or(0.0);
    report.set(
        "shard.insert_amplification",
        insert_us / engine_us.max(f64::MIN_POSITIVE),
    );
    Ok(())
}

/// A `server.query` span and, where the request succeeded, the queue wait
/// in nanoseconds and the batch size its reply reported.
type TracedQuery = (Span, Option<(u64, usize)>);

/// One traced `Server::query`: the request span plus what the queue-wait
/// child is later synthesised from, the `ServeStats` the reply carries.
fn traced_query(
    server: &Server<JunoIndex>,
    origin: Instant,
    query: &[f32],
    request: u32,
    out: &mut Vec<TracedQuery>,
) -> bool {
    let start_ns = origin.elapsed().as_nanos() as u64;
    let reply = server.query(query, K);
    let end_ns = origin.elapsed().as_nanos() as u64;
    let span = Span {
        name: "server.query",
        start_ns,
        end_ns,
        parent: None,
        request,
        replayed: false,
    };
    match reply {
        Ok(r) => {
            let ok = r.stats.coverage >= 1.0;
            let wait = r.stats.queue_wait.as_nanos() as u64;
            out.push((span, Some((wait, r.stats.batch_size))));
            ok
        }
        Err(_) => {
            out.push((span, None));
            false
        }
    }
}

/// Traced replay through a fresh `Server`: a one-client run for the
/// server's own overhead, then the same two-client closed loop twice, back
/// to back — plain, then recording spans — whose throughput difference is
/// the tracing overhead (the mixed workload's windows also carry writes, so
/// they are no baseline for a read-only replay). Needs
/// `shard.fleet_search_us`.
pub fn server_path(
    tracer: &mut Tracer,
    report: &mut Report,
    server: &Server<JunoIndex>,
    queries: &VectorSet,
    replay: Duration,
) {
    let origin = tracer.origin();
    let mut solo = Vec::with_capacity(STAGE_QUERIES);
    for q in 0..STAGE_QUERIES.min(queries.len()) {
        traced_query(server, origin, queries.row(q), q as u32, &mut solo);
    }
    let solo_ms = stats::sorted_ms(solo.iter().map(|(s, _)| s.duration_ns()));
    let fleet_us = report.get("shard.fleet_search_us").unwrap_or(0.0);
    report.set(
        "server.overhead_us",
        stats::percentile(&solo_ms, 50.0) * 1e3 - fleet_us,
    );

    let pool = queries.len();
    let read = |ok| {
        Some(Outcome {
            kind: Kind::Read,
            ok,
        })
    };
    let mut plain: Vec<usize> = (0..SUBMITTERS).collect();
    let untraced = run_closed(replay / 2, &mut plain, |seq| {
        let ok = server.query(queries.row(*seq % pool), K).is_ok();
        *seq += SUBMITTERS;
        read(ok)
    });
    let mut recording: Vec<(usize, Vec<TracedQuery>)> = (0..SUBMITTERS)
        .map(|client| (client, Vec::with_capacity(1 << 12)))
        .collect();
    let traced = run_closed(replay / 2, &mut recording, |(seq, out)| {
        let ok = traced_query(server, origin, queries.row(*seq % pool), *seq as u32, out);
        *seq += SUBMITTERS;
        read(ok)
    });
    let rate = |run: &ClosedRun| run.samples.len() as f64 / run.elapsed.as_secs_f64();
    report.set(
        "trace.overhead_pct",
        (rate(&untraced) - rate(&traced)) / rate(&untraced) * 100.0,
    );
    let replayed: Vec<TracedQuery> = recording.into_iter().flat_map(|(_, out)| out).collect();

    let mut waits_us = Vec::with_capacity(replayed.len());
    let mut batch_sizes = Vec::with_capacity(replayed.len());
    for (span, stats) in solo.into_iter().chain(replayed) {
        let (start_ns, request) = (span.start_ns, span.request);
        let id = tracer.push(span);
        if let Some((wait_ns, batch_size)) = stats {
            tracer.push(Span {
                name: "server.queue_wait",
                start_ns,
                end_ns: start_ns + wait_ns,
                parent: Some(id),
                request,
                replayed: false,
            });
            tracer.count("server.batched_requests", batch_size as f64);
            waits_us.push(wait_ns as f64 / 1e3);
            batch_sizes.push(batch_size as f64);
        }
    }
    waits_us.sort_by(f64::total_cmp);
    report.set(
        "server.queue_wait_us_p50",
        stats::percentile(&waits_us, 50.0),
    );
    report.set(
        "server.queue_wait_us_p99",
        stats::percentile(&waits_us, 99.0),
    );
    report.set("server.batch_size_mean", stats::mean(&batch_sizes));
}

/// Tracing overhead of a batch workload: a few traced batch calls against
/// the untraced windows' throughput.
pub fn batch_trace_overhead(
    tracer: &mut Tracer,
    report: &mut Report,
    index: &JunoIndex,
    batches: &[VectorSet],
    replay: Duration,
    untraced_qps: f64,
) -> Result<()> {
    let started = Instant::now();
    let mut done = 0usize;
    while started.elapsed() < replay {
        let batch = &batches[done % batches.len()];
        let span = tracer.begin("engine.batch", None, done as u32);
        black_box(index.search_batch_threads(batch, K, ENGINE_THREADS)?);
        tracer.end(span);
        tracer.count("engine.batched_queries", batch.len() as f64);
        done += 1;
    }
    let traced_qps = tracer.counted("engine.batched_queries") / started.elapsed().as_secs_f64();
    report.set(
        "trace.overhead_pct",
        (untraced_qps - traced_qps) / untraced_qps.max(f64::MIN_POSITIVE) * 100.0,
    );
    Ok(())
}

/// Feeds a scratch `Wal` records of the run's own size: `append_unsynced`
/// per record, `sync` every [`WAL_SYNC_EVERY`]th.
pub fn wal_path(
    tracer: &mut Tracer,
    report: &mut Report,
    dir: &Path,
    vectors: &VectorSet,
) -> Result<()> {
    let options = WalOptions {
        // The probe calls `sync` itself.
        policy: FsyncPolicy::OsBuffered,
        ..WalOptions::default()
    };
    let wal = Wal::open(
        dir,
        options,
        Arc::new(juno_common::metrics::Registry::new()),
    )?;
    for i in 0..WAL_PROBES {
        let record = WalRecord::Insert {
            vector: vectors.row(i % vectors.len()).to_vec(),
        };
        let span = tracer.begin("wal.append", None, i as u32);
        wal.append_unsynced(&record)?;
        tracer.end(span);
        if (i as u64 + 1).is_multiple_of(WAL_SYNC_EVERY) {
            let span = tracer.begin("wal.fsync", None, i as u32);
            wal.sync()?;
            tracer.end(span);
        }
    }
    span_us(report, tracer, "wal.append_us", "wal.append", WAL_PROBES);
    report.set(
        "wal.fsync_us",
        per_query_us(
            tracer.total_ns("wal.fsync"),
            WAL_PROBES / WAL_SYNC_EVERY as usize,
        ),
    );
    Ok(())
}
