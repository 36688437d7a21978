//! Online-serving integration suite: the `juno-serve` front-end over a real
//! [`JunoIndex`] fleet.
//!
//! Four contracts, each one a tier-1 CI matrix entry's worth of behaviour:
//!
//! * **Batching is invisible** — a size-triggered batch of concurrent
//!   single-query requests returns ids *and distance bits* identical to one
//!   direct `search_batch_deadline` call over the same queries. Batch
//!   composition and arrival order must not leak into any result.
//! * **Load generation is replayable** — the open-loop Poisson/Zipf plans
//!   the serving benchmark replays are bit-identical per seed, so a latency
//!   regression can be re-driven with the exact same traffic.
//! * **Deadlines survive faults** — with one shard permanently stalled past
//!   the batch budget, the end-to-end tail stays bounded by the budget (the
//!   stall is *lost coverage*, not latency), and once the fault is disarmed
//!   the half-open probe path closes the breaker and coverage returns to
//!   1.0 on its own.
//! * **Scans run on parked workers** — a healthy fleet serves any number of
//!   sequential batches from one scan-worker thread per shard with
//!   results identical to a cold pool's (which starts one thread per scan,
//!   as every batch used to), and a stalled shard's worker is never waited
//!   for: the next batch's scans all start at once on other workers.

use juno::prelude::*;
use juno_bench::loadgen::{run_open_loop, OpenLoopPlan};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build_fleet(points: usize, queries: usize, seed: u64) -> (Dataset, ShardedIndex<JunoIndex>) {
    let ds = DatasetProfile::DeepLike
        .generate(points, queries, seed)
        .expect("dataset");
    let monolith = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 16,
            nprobs: 6,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("juno build");
    let fleet =
        ShardedIndex::from_monolith(monolith, 4, ShardRouter::Hash { seed: 9 }).expect("fleet");
    (ds, fleet)
}

/// Spins (yielding) until `done()` or five seconds pass.
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn size_triggered_batches_match_direct_deadline_search_bit_for_bit() {
    const B: usize = 8;
    const K: usize = 25;
    let (ds, fleet) = build_fleet(1_500, B, 2_027);
    let fleet = Arc::new(fleet);
    let budget = Duration::from_secs(10);
    let direct = fleet
        .reader()
        .search_batch_deadline(&ds.queries, K, budget)
        .expect("direct batch");
    assert!(direct.is_complete(), "direct reference lost a shard");

    let server = Server::spawn(
        fleet.clone(),
        ServerConfig {
            max_batch: B,
            // Only the size trigger may fire while the dispatcher is held
            // (below): if the batch dispatches before all B requests arrive,
            // batch_size below betrays it.
            max_delay: Duration::from_secs(60),
            queue_depth: 64,
            search_budget: budget,
            dispatchers: 1,
        },
    )
    .expect("server");

    // Hold the dispatcher on a plug request — shard 0's first search under
    // the plan stalls — until all B requests are queued behind it; an idle
    // dispatcher would take the first arrival alone.
    fleet.set_fault_plan(Some(Arc::new(FaultPlan::new(4).with_rule(FaultRule {
        shard: 0,
        op: FaultOp::Search,
        from_op: 0,
        until_op: Some(1),
        kind: FaultKind::Stall(Duration::from_millis(500)),
    }))));
    let served: Vec<(usize, ServeResponse)> = std::thread::scope(|scope| {
        let plug = scope.spawn(|| server.query(ds.queries.row(0), K).expect("plug"));
        wait_for("the dispatcher to pick the plug up", || {
            server.metrics_snapshot().counter("serve.admitted") == 1 && server.queue_depth() == 0
        });
        let handles: Vec<_> = (0..B)
            .map(|qi| {
                let server = &server;
                let query = ds.queries.row(qi).to_vec();
                scope.spawn(move || (qi, server.query(&query, K).expect("serve")))
            })
            .collect();
        wait_for("all B requests to queue", || server.queue_depth() == B);
        assert_eq!(plug.join().expect("plug panicked").stats.batch_size, 1);
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });

    for (qi, response) in &served {
        assert_eq!(
            response.stats.batch_size, B,
            "query {qi} rode a partial batch — the delay trigger fired"
        );
        assert_eq!(response.stats.coverage, 1.0, "query {qi} lost a shard");
        let reference = &direct.results[*qi];
        assert_eq!(
            response.result.neighbors.len(),
            reference.neighbors.len(),
            "query {qi} neighbour count"
        );
        for (rank, (served_n, direct_n)) in response
            .result
            .neighbors
            .iter()
            .zip(&reference.neighbors)
            .enumerate()
        {
            assert_eq!(served_n.id, direct_n.id, "query {qi} rank {rank} id");
            assert_eq!(
                served_n.distance.to_bits(),
                direct_n.distance.to_bits(),
                "query {qi} rank {rank} distance bits"
            );
        }
    }
}

#[test]
fn open_loop_load_generation_is_seeded_and_deterministic() {
    let plan = OpenLoopPlan::poisson_zipf(5_000.0, 300, 64, 1.1, 42);
    assert_eq!(
        plan,
        OpenLoopPlan::poisson_zipf(5_000.0, 300, 64, 1.1, 42),
        "same seed must replay the identical schedule and targets"
    );
    assert_ne!(
        plan,
        OpenLoopPlan::poisson_zipf(5_000.0, 300, 64, 1.1, 43),
        "different seeds must differ"
    );
    assert!(plan.arrivals.windows(2).all(|w| w[0] <= w[1]));
    assert!(plan.targets.iter().all(|&t| t < 64));
    // The replay visits every planned request exactly once.
    let report = run_open_loop(&plan, 4, |target| target % 5 != 0);
    let shed = plan.targets.iter().filter(|&&t| t % 5 == 0).count();
    assert_eq!(report.rejected, shed);
    assert_eq!(report.latencies_ns.len(), plan.len() - shed);
}

#[test]
fn stalled_shard_keeps_the_deadline_and_coverage_recovers_after_disarm() {
    const K: usize = 5;
    let (ds, fleet_raw) = build_fleet(1_500, 6, 7_001);
    fleet_raw.configure_health(
        BreakerConfig {
            failure_threshold: 2,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
            probe_timeout: Duration::from_millis(30),
            seed: 13,
        },
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        },
    );
    let fleet = Arc::new(fleet_raw);
    let budget = Duration::from_millis(150);
    let max_delay = Duration::from_millis(1);
    let server = Server::spawn(
        fleet.clone(),
        ServerConfig {
            max_batch: 4,
            max_delay,
            queue_depth: 64,
            search_budget: budget,
            dispatchers: 1,
        },
    )
    .expect("server");

    // Shard 1 stalls on every search, well past the batch budget.
    let plan = Arc::new(FaultPlan::new(4).with_rule(FaultRule {
        shard: 1,
        op: FaultOp::Search,
        from_op: 0,
        until_op: None,
        kind: FaultKind::Stall(Duration::from_millis(600)),
    }));
    fleet.set_fault_plan(Some(plan.clone()));

    let mut saw_degraded = false;
    for i in 0..25 {
        let served = server
            .query(ds.queries.row(i % ds.queries.len()), K)
            .expect("serve under stall");
        if served.stats.coverage < 1.0 {
            saw_degraded = true;
        }
    }
    assert!(saw_degraded, "the stall never surfaced as lost coverage");
    let p999 = server.metrics_snapshot().histograms["serve.latency_ns"].p999();
    // End-to-end tail ≤ queueing allowance + batch budget + slack for merge,
    // reply plumbing and CI scheduling noise; far below the 600ms stall.
    let ceiling = (budget + max_delay + Duration::from_millis(100)).as_nanos();
    assert!(
        u128::from(p999) <= ceiling,
        "p999 {p999}ns exceeds the deadline ceiling {ceiling}ns"
    );

    // Disarm the fault and keep querying: the probe-deadline path re-admits
    // probes the stall swallowed, the breaker closes, coverage returns.
    plan.disarm();
    let recovered_by = Instant::now() + Duration::from_secs(10);
    loop {
        let served = server.query(ds.queries.row(0), K).expect("serve");
        if served.stats.coverage == 1.0 {
            break;
        }
        assert!(
            Instant::now() < recovered_by,
            "coverage never recovered after disarm: {:?}",
            server.breaker_states()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = server.metrics_snapshot();
    assert!(snap.counter("serve.degraded_batches") >= 1);
    assert!(
        snap.gauge("serve.breaker_transitions") >= 2,
        "trip + recovery must both show up as breaker transitions"
    );
}

/// Ids and distance bits of every neighbour of every query.
fn batch_bits(results: &[SearchResult]) -> Vec<Vec<(u64, u32)>> {
    results
        .iter()
        .map(|r| {
            r.neighbors
                .iter()
                .map(|n| (n.id, n.distance.to_bits()))
                .collect()
        })
        .collect()
}

#[test]
fn sequential_batches_reuse_one_scan_worker_per_shard_bit_for_bit() {
    const K: usize = 25;
    const S: u64 = 4;
    let (ds, fleet) = build_fleet(1_500, 8, 2_027);
    let budget = Duration::from_secs(10);
    let exact = fleet.reader().search_batch(&ds.queries, K).expect("exact");

    // A cold pool has nobody parked: it starts a thread per scan, which is
    // what every batch used to do.
    let cold = fleet
        .reader()
        .search_batch_deadline(&ds.queries, K, budget)
        .expect("cold batch");
    assert!(cold.is_complete());
    assert!((1..=S).contains(&fleet.scan_worker_stats().started));
    assert_eq!(batch_bits(&cold.results), batch_bits(&exact));

    for call in 1..200 {
        let warm = fleet
            .reader()
            .search_batch_deadline(&ds.queries, K, budget)
            .expect("warm batch");
        assert_eq!(warm.shards, cold.shards, "call {call}: statuses");
        assert_eq!(
            batch_bits(&warm.results),
            batch_bits(&cold.results),
            "call {call}: a reused worker changed a result"
        );
    }
    // A worker counts as free before its result is sent, so a caller that
    // has all four results finds all four workers: 800 scans, S threads.
    let stats = fleet.scan_worker_stats();
    assert!(
        stats.started <= S,
        "200 sequential batches started {} scan workers",
        stats.started
    );
    assert_eq!(stats.parked as u64, stats.started);
}

#[test]
fn a_stalled_scan_never_delays_the_next_batch_and_its_worker_parks_afterwards() {
    const K: usize = 5;
    let (ds, fleet) = build_fleet(1_500, 6, 7_001);
    // Keep admitting the stalled shard: this test is about the workers.
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
    let budget = Duration::from_millis(150);
    let stall = Duration::from_millis(600);
    let plan = Arc::new(FaultPlan::new(4).with_rule(FaultRule {
        shard: 1,
        op: FaultOp::Search,
        from_op: 0,
        until_op: None,
        kind: FaultKind::Stall(stall),
    }));
    fleet.set_fault_plan(Some(plan.clone()));
    let healthy = fleet.reader().search_batch(&ds.queries, K).expect("exact");

    let started = Instant::now();
    for batch in 1..=2u64 {
        let clock = Instant::now();
        let degraded = fleet
            .reader()
            .search_batch_deadline(&ds.queries, K, budget)
            .expect("degraded batch");
        let took = clock.elapsed();
        assert_eq!(degraded.coverage, 0.75, "batch {batch}");
        assert_eq!(degraded.shards[1], ShardStatus::TimedOut, "batch {batch}");
        assert!(
            took < budget + Duration::from_millis(100),
            "batch {batch} took {took:?}: it waited for the stalled worker"
        );
        // The stalled shard's scan itself started too (it counts its
        // injection point on entry) — on a worker of its own, while the
        // previous batch's straggler was still asleep.
        assert_eq!(plan.op_count(1, FaultOp::Search), batch);
    }
    assert!(
        started.elapsed() < stall,
        "the second batch should have run inside the first straggler's stall"
    );

    // Both stragglers finish into disconnected channels and park (or exit,
    // when four are parked already); nothing is left running.
    plan.disarm();
    wait_for("the stragglers to park", || {
        let stats = fleet.scan_worker_stats();
        stats.live == stats.parked
    });
    let before = fleet.scan_worker_stats();
    assert!(before.parked <= 4);
    let recovered = fleet
        .reader()
        .search_batch_deadline(&ds.queries, K, Duration::from_secs(10))
        .expect("recovered batch");
    assert!(
        recovered.is_complete(),
        "late results leaked: {recovered:?}"
    );
    assert_eq!(batch_bits(&recovered.results), batch_bits(&healthy));
    assert_eq!(
        fleet.scan_worker_stats().started,
        before.started,
        "the parked workers (the stragglers' among them) were not reused"
    );
}
