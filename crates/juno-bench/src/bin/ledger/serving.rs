//! The two workloads that go through `juno-serve`: `online-s4-small`
//! (reads only, closed then open loop) and `mixed-rw-wal-s4` (reads beside
//! durable writes, then a recovery).

use crate::fixture::{self, bits, Bits, K, PROBE_QUERIES, SMALL};
use crate::json::Json;
use crate::layers::{self, WAL_SYNC_EVERY};
use crate::loadgen::{
    self, run_closed, run_open, ClosedRun, Kind, MixedPlan, Op, Outcome, SUBMITTERS,
};
use crate::names::Workload;
use crate::report::{Options, Report};
use crate::stats;
use crate::trace::Tracer;
use juno_common::error::{Error, Result};
use juno_common::index::AnnIndex;
use juno_common::vector::VectorSet;
use juno_common::wal::{self, FsyncPolicy, WalOptions};
use juno_core::engine::JunoIndex;
use juno_serve::{
    BreakerConfig, DurabilityConfig, RetryPolicy, Server, ServerConfig, ShardRouter, ShardedIndex,
};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const ROUTER: ShardRouter = ShardRouter::Hash { seed: 3 };
const SERVER: ServerConfig = ServerConfig {
    max_batch: 16,
    max_delay: Duration::from_millis(1),
    queue_depth: 1024,
    search_budget: Duration::from_millis(500),
    dispatchers: 1,
};
/// Fixed open-loop arrival rate, ≈30 % of the fleet's closed-loop
/// saturation on the reference host. Never derived from a measurement: a
/// faster build must see the same offered load.
const OPEN_RATE: f64 = 120.0;
/// Share of an online window spent in the closed loop (6 s of 14 s).
const CLOSED_SHARE: f64 = 6.0 / 14.0;
/// Open-loop requests slower than this, or failed, miss the SLO.
const SLO_MS: f64 = 50.0;
/// Share of mixed-plan ops that are queries; the rest split 2:1 between
/// inserts and removes.
const READ_PCT: u32 = 70;
/// Keeps the removal order apart from the fixture's own permutations.
const REMOVAL_SALT: u64 = 0x72;

type Fleet = ShardedIndex<JunoIndex>;

fn durability() -> DurabilityConfig {
    DurabilityConfig {
        wal: WalOptions {
            policy: FsyncPolicy::EveryN(WAL_SYNC_EVERY),
            ..WalOptions::default()
        },
        ..DurabilityConfig::default()
    }
}

/// The breaker is disabled as in the `serving_latency` bench: one slow
/// outlier on a loaded host must not turn later requests into
/// short-circuited partial answers.
fn disable_breaker(fleet: &Fleet) {
    fleet.configure_health(
        BreakerConfig {
            failure_threshold: u32::MAX,
            ..BreakerConfig::default()
        },
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        },
    );
}

fn build_fleet(monolith: &JunoIndex) -> Result<Fleet> {
    let fleet = ShardedIndex::from_monolith(monolith.clone(), SHARDS, ROUTER)?;
    disable_breaker(&fleet);
    Ok(fleet)
}

fn serving_constants(report: &mut Report) {
    for (name, value) in SMALL.constants() {
        report.constant(name, value);
    }
    report.constant("shards", Json::UInt(SHARDS as u64));
    report.constant("router", Json::str("Hash{seed:3}"));
    report.constant("server_max_batch", Json::UInt(SERVER.max_batch as u64));
    report.constant(
        "server_max_delay_ms",
        Json::Num(SERVER.max_delay.as_secs_f64() * 1e3),
    );
    report.constant("server_queue_depth", Json::UInt(SERVER.queue_depth as u64));
    report.constant(
        "server_search_budget_ms",
        Json::Num(SERVER.search_budget.as_secs_f64() * 1e3),
    );
    report.constant("server_dispatchers", Json::UInt(SERVER.dispatchers as u64));
    report.constant("breaker", Json::str("disabled"));
    report.constant("closed_loop_clients", Json::UInt(SUBMITTERS as u64));
}

/// A reply is good when it is complete: no error, every shard answered,
/// `K` neighbours.
fn complete_reply(server: &Server<JunoIndex>, query: &[f32]) -> Option<Bits> {
    let reply = server.query(query, K).ok()?;
    (reply.stats.coverage >= 1.0 && reply.result.neighbors.len() == K).then(|| bits(&reply.result))
}

/// One closed-loop pass over the whole pool: warms every path up and yields
/// each pool query's reference reply (empty where the request failed).
fn warm_up(server: &Server<JunoIndex>, queries: &VectorSet, report: &mut Report) -> Vec<Bits> {
    let mut states: Vec<(usize, Vec<(usize, Bits)>)> =
        (0..SUBMITTERS).map(|c| (c, Vec::new())).collect();
    let run = run_closed(Duration::MAX, &mut states, |(next, seen)| {
        let q = *next;
        (q < queries.len()).then(|| {
            *next += SUBMITTERS;
            let reply = complete_reply(server, queries.row(q));
            let ok = reply.is_some();
            seen.push((q, reply.unwrap_or_default()));
            Outcome {
                kind: Kind::Read,
                ok,
            }
        })
    });
    report.tally.add(run.samples.len(), run.failed());
    let mut reference = vec![Bits::new(); queries.len()];
    for (q, reply) in states.into_iter().flat_map(|(_, seen)| seen) {
        reference[q] = reply;
    }
    reference
}

/// Reports one latency family: the median as the median of the per-window
/// medians, the tail over the pooled samples of all windows (one window
/// alone rarely has the ten samples beyond p99 the tail needs), with the
/// per-window tails printed beside it.
fn latency_metrics(
    report: &mut Report,
    p50_name: &'static str,
    p99_name: &'static str,
    windows_ns: &[Vec<u64>],
) {
    let per_window: Vec<Vec<f64>> = windows_ns
        .iter()
        .map(|w| stats::sorted_ms(w.iter().copied()))
        .collect();
    let pooled = stats::sorted_ms(windows_ns.iter().flatten().copied());
    let p50s: Vec<f64> = per_window
        .iter()
        .map(|w| stats::percentile(w, 50.0))
        .collect();
    let p99s: Vec<f64> = per_window
        .iter()
        .map(|w| stats::percentile(w, 99.0))
        .collect();
    report.set_latency(p50_name, 50.0, stats::median(&p50s), p50s, pooled.len());
    report.set_latency(
        p99_name,
        99.0,
        stats::percentile(&pooled, 99.0),
        p99s,
        pooled.len(),
    );
}

fn server_counters(report: &mut Report, server: &Server<JunoIndex>) {
    let snapshot = server.metrics_snapshot();
    report.set("server.rejected", snapshot.counter("serve.rejected") as f64);
    report.set(
        "server.degraded",
        snapshot.counter("serve.degraded_batches") as f64,
    );
}

fn fleet_probe(fleet: &Fleet, queries: &VectorSet) -> Result<Vec<Bits>> {
    let reader = fleet.reader();
    (0..PROBE_QUERIES.min(queries.len()))
        .map(|q| Ok(bits(&reader.search(queries.row(q), K)?)))
        .collect()
}

/// The read-side traced pass shared by both serving workloads.
fn traced_reads(
    tracer: &mut Tracer,
    report: &mut Report,
    opts: &Options,
    monolith: &JunoIndex,
    fleet: &Arc<Fleet>,
    queries: &VectorSet,
) -> Result<()> {
    layers::engine_read_path(tracer, report, monolith, queries)?;
    layers::shard_read_path(tracer, report, fleet, queries, SERVER.search_budget)?;
    let server = Server::spawn(fleet.clone(), SERVER)?;
    let replay = Duration::from_secs_f64(opts.seconds / 5.0);
    layers::server_path(tracer, report, &server, queries, replay);
    Ok(())
}

pub fn run_online(opts: &Options) -> Result<Report> {
    let started = Instant::now();
    let workload = Workload::OnlineS4Small;
    let mut report = Report::new(workload);
    serving_constants(&mut report);
    report.constant("open_loop_rate_per_s", Json::Num(OPEN_RATE));
    report.constant("closed_share_of_window", Json::Num(CLOSED_SHARE));
    report.constant("slo_ms", Json::Num(SLO_MS));

    let (fixture, monolith) = fixture::build(SMALL, opts.seed)?;
    let clock = Instant::now();
    let fleet = Arc::new(build_fleet(&monolith)?);
    let from_monolith_ms = clock.elapsed().as_secs_f64() * 1e3;
    let server = Server::spawn(fleet.clone(), SERVER)?;
    fixture.record_setup(&mut report, started.elapsed().as_secs_f64());
    report.set("shard.from_monolith_ms", from_monolith_ms);

    let queries = &fixture.queries;
    let pool = queries.len();
    let reference = warm_up(&server, queries, &mut report);
    fixture.check_recall(&mut report, &reference)?;

    let window = opts.window();
    let closed_for = window.mul_f64(CLOSED_SHARE);
    let open_count = (OPEN_RATE * window.mul_f64(1.0 - CLOSED_SHARE).as_secs_f64()).round();
    let matches_reference = |q: usize| {
        complete_reply(&server, queries.row(q)).is_some_and(|reply| reply == reference[q])
    };
    let (mut qps, mut closed_ns, mut open_ns, mut lag_ns) = (vec![], vec![], vec![], vec![]);
    let mut slo_misses = 0usize;
    for w in 0..3u64 {
        let mut next: Vec<usize> = (0..SUBMITTERS).map(|c| c + w as usize * 331).collect();
        let closed = run_closed(closed_for, &mut next, |next| {
            let q = *next % pool;
            *next += SUBMITTERS;
            Some(Outcome {
                kind: Kind::Read,
                ok: matches_reference(q),
            })
        });
        report.tally.add(closed.samples.len(), closed.failed());
        qps.push(closed.ok_count(Kind::Read) as f64 / closed.elapsed.as_secs_f64());
        closed_ns.push(closed.latencies_ns(Kind::Read).collect::<Vec<_>>());

        let seed = opts.seed.wrapping_mul(3).wrapping_add(w);
        let schedule = loadgen::poisson_schedule(OPEN_RATE, open_count as usize, seed);
        let targets = loadgen::uniform_targets(schedule.len(), pool as u32, seed);
        let open = run_open(&schedule, |i| matches_reference(targets[i] as usize));
        let failed = open.iter().filter(|s| !s.ok).count();
        report.tally.add(open.len(), failed);
        slo_misses += open
            .iter()
            .filter(|s| !s.ok || s.latency_ns as f64 / 1e6 > SLO_MS)
            .count();
        open_ns.push(open.iter().map(|s| s.latency_ns).collect::<Vec<_>>());
        lag_ns.extend(open.iter().map(|s| s.lag_ns));
    }
    report.set_windows("qps", qps);
    latency_metrics(&mut report, "lat_p50_ms", "lat_p99_ms", &closed_ns);
    latency_metrics(&mut report, "open_lat_p50_ms", "open_lat_p99_ms", &open_ns);
    let open_total = lag_ns.len();
    report.set(
        "server.gen_lag_p99_ms",
        stats::percentile(&stats::sorted_ms(lag_ns), 99.0),
    );
    report.set(
        "server.slo50_miss_ratio",
        slo_misses as f64 / open_total.max(1) as f64,
    );
    server_counters(&mut report, &server);
    drop(server);

    let want = fixture::sequential_probe(&monolith, queries)?;
    let got = fleet_probe(&fleet, queries)?;
    report.compare_probe(
        "fleet_equals_monolith",
        &got,
        &want,
        "ids and distance bits, fleet against monolith",
    );

    if opts.trace.traced() {
        let mut tracer = Tracer::new(1 << 16);
        traced_reads(&mut tracer, &mut report, opts, &monolith, &fleet, queries)?;
        opts.write_trace(workload, &tracer)?;
    }
    report.finish();
    Ok(report)
}

/// One client of the mixed workload: its plan, what it was acknowledged,
/// and the checkpoint it may owe.
struct MixedClient {
    client: usize,
    plan: MixedPlan,
    inserted: Vec<u64>,
    removed: Vec<u64>,
    checkpoint_due: bool,
    /// `(milliseconds, snapshot bytes)` of the checkpoint this client ran.
    checkpoint: Option<(f64, u64)>,
}

fn bytes_on_disk(dir: &Path) -> Result<u64> {
    let newest_checkpoint = wal::list_checkpoints(dir)?.into_iter().next_back();
    let files = wal::list_segments(dir)?
        .into_iter()
        .chain(newest_checkpoint)
        .map(|(_, path)| path);
    let mut total = 0;
    for path in files {
        total += std::fs::metadata(&path)
            .map_err(|e| Error::Io(format!("{}: {e}", path.display())))?
            .len();
    }
    Ok(total)
}

fn live_ids(fleet: &Fleet) -> BTreeSet<u64> {
    let reader = fleet.reader();
    (0..reader.num_shards())
        .flat_map(|s| reader.shard(s).index().ids())
        .collect()
}

pub fn run_mixed(opts: &Options) -> Result<Report> {
    let started = Instant::now();
    let workload = Workload::MixedRwWalS4;
    let mut report = Report::new(workload);
    serving_constants(&mut report);
    report.constant("read_pct", Json::UInt(u64::from(READ_PCT)));
    report.constant("insert_pct", Json::UInt(20));
    report.constant("remove_pct", Json::UInt(10));
    report.constant("fsync_policy", Json::str("EveryN(64)"));
    report.constant("checkpoint", Json::str("first op of window 2, client 0"));

    let scratch = opts.scratch(workload);
    let wal_dir = scratch.join("wal");
    std::fs::create_dir_all(&wal_dir).map_err(|e| Error::Io(format!("create wal dir: {e}")))?;

    let (fixture, monolith) = fixture::build(SMALL, opts.seed)?;
    let clock = Instant::now();
    let fleet = Arc::new(build_fleet(&monolith)?);
    let from_monolith_ms = clock.elapsed().as_secs_f64() * 1e3;
    fleet.enable_wal(&wal_dir, durability())?;
    let server = Server::spawn(fleet.clone(), SERVER)?;
    fixture.record_setup(&mut report, started.elapsed().as_secs_f64());
    report.set("shard.from_monolith_ms", from_monolith_ms);

    // Recall is measured here, before the first write.
    let queries = &fixture.queries;
    let reference = warm_up(&server, queries, &mut report);
    fixture.check_recall(&mut report, &reference)?;

    let removal = loadgen::permutation(SMALL.points as u32, opts.seed ^ REMOVAL_SALT);
    let inserts = &fixture.extra;
    let mut clients: Vec<MixedClient> = (0..SUBMITTERS)
        .map(|client| MixedClient {
            client,
            plan: MixedPlan::new(opts.seed, client, queries.len() as u32, READ_PCT),
            inserted: Vec::new(),
            removed: Vec::new(),
            checkpoint_due: false,
            checkpoint: None,
        })
        .collect();
    let step = |c: &mut MixedClient| {
        if std::mem::take(&mut c.checkpoint_due) {
            let clock = Instant::now();
            let done = server.checkpoint();
            let ms = clock.elapsed().as_secs_f64() * 1e3;
            c.checkpoint = done.as_ref().ok().map(|r| (ms, r.snapshot_bytes));
            return Some(Outcome {
                kind: Kind::Other,
                ok: done.is_ok(),
            });
        }
        let client = c.client;
        let slot = move |j: u32| client + SUBMITTERS * j as usize;
        let (kind, ok) = match c.plan.next_op() {
            Op::Insert(j) => {
                let id = server.insert(inserts.row(slot(j) % inserts.len()));
                c.inserted.extend(id.as_ref().ok());
                (Kind::Write, id.is_ok())
            }
            Op::Remove(j) if slot(j) < removal.len() => {
                let id = u64::from(removal[slot(j)]);
                let removed = matches!(server.remove(id), Ok(true));
                if removed {
                    c.removed.push(id);
                }
                (Kind::Write, removed)
            }
            // Every build-time id is gone: read instead.
            Op::Remove(j) => (
                Kind::Read,
                complete_reply(&server, queries.row(j as usize % queries.len())).is_some(),
            ),
            Op::Query(q) => (
                Kind::Read,
                complete_reply(&server, queries.row(q as usize)).is_some(),
            ),
        };
        Some(Outcome { kind, ok })
    };
    let runs: Vec<ClosedRun> = (0..3)
        .map(|w| {
            clients[0].checkpoint_due = w == 1;
            let run = run_closed(opts.window(), &mut clients, step);
            report.tally.add(run.samples.len(), run.failed());
            run
        })
        .collect();
    report.set_windows(
        "qps",
        runs.iter()
            .map(|r| r.ok_count(Kind::Read) as f64 / r.elapsed.as_secs_f64())
            .collect(),
    );
    let family = |kind| -> Vec<Vec<u64>> {
        runs.iter()
            .map(|r| r.latencies_ns(kind).collect())
            .collect()
    };
    latency_metrics(&mut report, "lat_p50_ms", "lat_p99_ms", &family(Kind::Read));
    latency_metrics(
        &mut report,
        "write_p50_ms",
        "write_p99_ms",
        &family(Kind::Write),
    );
    server_counters(&mut report, &server);
    if let Some((ms, bytes)) = clients[0].checkpoint {
        report.set("durability.checkpoint_ms", ms);
        report.set("durability.checkpoint_bytes", bytes as f64);
    }

    // What the run leaves behind, then drop the fleet with no final
    // checkpoint and recover it.
    let wal_stats = fleet.wal_metrics();
    let records = wal_stats.counter("wal.records").max(1) as f64;
    report.set(
        "wal.bytes_per_write",
        wal_stats.counter("wal.appended_bytes") as f64 / records,
    );
    let syncs = wal_stats
        .histograms
        .get("wal.fsync_ns")
        .map_or(0, |h| h.count);
    report.set("wal.syncs_per_write", syncs as f64 / records);
    report.set(
        "disk_bytes_per_point",
        bytes_on_disk(&wal_dir)? as f64 / fleet.reader().len().max(1) as f64,
    );
    let before_drop = fleet_probe(&fleet, queries)?;
    drop(server);
    drop(fleet);

    let clock = Instant::now();
    let (recovered, recovery) =
        ShardedIndex::recover_from_dir(monolith.clone(), &wal_dir, durability())?;
    report.set("recover_s", clock.elapsed().as_secs_f64());
    report.set("durability.replayed_records", recovery.replayed_ops as f64);
    disable_breaker(&recovered);
    let recovered = Arc::new(recovered);

    let live = live_ids(&recovered);
    let inserted = clients.iter().flat_map(|c| &c.inserted);
    let removed = clients.iter().flat_map(|c| &c.removed);
    let lost = inserted.clone().filter(|id| !live.contains(id)).count();
    let resurrected = removed.clone().filter(|id| live.contains(id)).count();
    let writes = inserted.count() + removed.count();
    report.tally.add(writes, lost + resurrected);
    report.check(
        "acknowledged_writes_survive_recovery",
        lost + resurrected == 0,
        format!(
            "{writes} acknowledged writes: {lost} inserts missing, {resurrected} removes undone"
        ),
    );
    let after_recovery = fleet_probe(&recovered, queries)?;
    report.compare_probe(
        "recovered_equals_dropped_fleet",
        &after_recovery,
        &before_drop,
        "ids and distance bits, recovered fleet against the fleet before the drop",
    );

    if opts.trace.traced() {
        let mut tracer = Tracer::new(1 << 16);
        traced_reads(
            &mut tracer,
            &mut report,
            opts,
            &monolith,
            &recovered,
            queries,
        )?;
        layers::engine_write_path(&mut tracer, &mut report, &monolith, inserts)?;
        let no_wal = build_fleet(&monolith)?;
        layers::shard_write_path(&mut tracer, &mut report, &no_wal, inserts)?;
        layers::wal_path(
            &mut tracer,
            &mut report,
            &scratch.join("wal-probe"),
            inserts,
        )?;
        opts.write_trace(workload, &tracer)?;
    }
    drop(recovered);
    // Checkpoints and segments are tens of megabytes; only the trace stays.
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(scratch.join("wal-probe"));
    report.finish();
    Ok(report)
}
