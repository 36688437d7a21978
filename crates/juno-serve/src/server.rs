//! The online serving front-end: single-query ingress, dynamic batching,
//! deadline-aware scatter-gather execution, per-request QoS accounting.
//!
//! ```text
//!  client threads                 dispatcher threads          shard fleet
//!  ─────────────                  ──────────────────          ───────────
//!  query() ──┐                      ┌─ next_batch() ─┐
//!  query() ──┼─▶ Batcher (bounded, ─┤                ├─▶ FleetReader::
//!  query() ──┘   work-conserving)   └─ next_batch() ─┘   search_batch_deadline
//!      ▲                                   │              (parked scan workers)
//!      └────────── per-request reply ◀─────┴─ truncate to k ◀───┘
//! ```
//!
//! A [`Server`] owns a sharded fleet and a pool of dispatcher threads. Client
//! threads call [`Server::query`] concurrently; each call is admitted into
//! the bounded [`Batcher`] (or rejected with [`Error::Overloaded`]), handed
//! to a dispatcher at once when none is executing — and otherwise coalesced
//! with whatever else arrives while the batch ahead of it runs — executed
//! through the degraded read path (so a stalled shard costs coverage, not
//! the deadline), and answered with the merged result plus per-request
//! [`ServeStats`]. The dispatcher keeps its [`Batch`](crate::batcher::Batch)
//! until the last reply is sent; dropping it is what releases the requests
//! held behind it.
//!
//! Mixed-`k` batches execute at the largest requested `k` and truncate per
//! request: the fleet's merge is a total order over (score, id), so the
//! top-`k` list is a prefix of the top-`k_max` list and truncation is exact —
//! a request batched with strangers gets bit-identical neighbours to one
//! served alone.
//!
//! QoS is observable two ways: per-request ([`ServeStats`]: queue wait,
//! batch size, coverage, shard statuses) and aggregate
//! ([`Server::metrics_snapshot`]: latency/queue-wait/execution/batch-size
//! histograms with p50/p99/p999, queue depth, admission rejections, breaker
//! state flips, scan-worker threads started and parked). The server counts
//! into its fleet's registry, so several servers over one fleet share
//! counts.

use crate::batcher::{Batcher, BatcherConfig};
use crate::health::BreakerState;
use crate::shard::{ShardStatus, ShardedIndex};
use juno_common::error::{Error, Result};
use juno_common::index::{AnnIndex, SearchResult};
use juno_common::metrics::{Counter, Gauge, LogHistogram, RegistrySnapshot};
use juno_common::vector::VectorSet;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tuning for a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Dispatch a batch as soon as this many requests are pending.
    pub max_batch: usize,
    /// The longest a request is held back while another batch is
    /// executing, so that it can share the next batch with later arrivals.
    /// With no batch executing a pending request is dispatched at once,
    /// whatever this says.
    pub max_delay: Duration,
    /// Ingress bound: requests beyond this many pending are rejected with
    /// [`Error::Overloaded`].
    pub queue_depth: usize,
    /// Latency budget handed to
    /// [`FleetReader::search_batch_deadline`](crate::FleetReader::search_batch_deadline)
    /// for each batch; shards that miss it cost coverage, not time.
    pub search_budget: Duration,
    /// Dispatcher threads pulling batches off the ingress queue. One is
    /// enough unless batch execution should overlap with batch formation.
    pub dispatchers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay: Duration::from_millis(1),
            queue_depth: 1024,
            search_budget: Duration::from_millis(50),
            dispatchers: 1,
        }
    }
}

/// Per-request QoS accounting, returned alongside every result.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Time between admission and the dispatcher picking the batch up.
    pub queue_wait: Duration,
    /// Number of requests in the batch this request rode in.
    pub batch_size: usize,
    /// Fraction of shards that contributed (1.0 = exact result).
    pub coverage: f64,
    /// Outcome per shard for this request's batch, indexed by shard id.
    pub shards: Vec<ShardStatus>,
}

/// A completed request: the merged search result plus its QoS stats.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// Merged top-k (already truncated to the request's own `k`).
    pub result: SearchResult,
    /// How the request was served.
    pub stats: ServeStats,
}

/// One queued request: the query, its `k`, and the reply channel its client
/// blocks on.
#[derive(Debug)]
struct Request {
    query: Vec<f32>,
    k: usize,
    reply: mpsc::Sender<Result<ServeResponse>>,
}

/// The online serving front-end. See the module docs.
///
/// Dropping the server closes ingress (new [`Server::query`] calls fail
/// with [`Error::Unavailable`]), flushes every admitted request through a
/// final batch, and joins the dispatcher threads — admitted work is never
/// silently dropped.
#[derive(Debug)]
pub struct Server<I: AnnIndex + 'static> {
    fleet: Arc<ShardedIndex<I>>,
    batcher: Arc<Batcher<Request>>,
    /// Handles in the fleet's registry, resolved once so the hot path never
    /// takes the registry's lock.
    queue_depth: Arc<Gauge>,
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    ingress_depth: Arc<LogHistogram>,
    latency: Arc<LogHistogram>,
    dim: usize,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
}

impl<I: AnnIndex + 'static> Server<I> {
    /// Spawns the dispatcher threads and opens ingress.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `max_batch`, `queue_depth` or
    /// `dispatchers` is zero.
    pub fn spawn(fleet: Arc<ShardedIndex<I>>, config: ServerConfig) -> Result<Self> {
        if config.dispatchers == 0 {
            return Err(Error::invalid_config("server needs ≥ 1 dispatcher"));
        }
        let batcher = Arc::new(Batcher::new(BatcherConfig {
            max_batch: config.max_batch,
            max_delay: config.max_delay,
            queue_depth: config.queue_depth,
        })?);
        let metrics = fleet.registry().clone();
        let dim = fleet.reader().shard(0).index().dim();
        let dispatchers = (0..config.dispatchers)
            .map(|d| {
                let fleet = fleet.clone();
                let batcher = batcher.clone();
                std::thread::Builder::new()
                    .name(format!("juno-serve-dispatch-{d}"))
                    .spawn(move || dispatch_loop(&fleet, &batcher, config.search_budget))
                    .expect("spawn dispatcher")
            })
            .collect();
        Ok(Self {
            fleet,
            batcher,
            queue_depth: metrics.gauge("serve.queue_depth"),
            admitted: metrics.counter("serve.admitted"),
            rejected: metrics.counter("serve.rejected"),
            ingress_depth: metrics.histogram("serve.ingress_depth"),
            latency: metrics.histogram("serve.latency_ns"),
            dim,
            dispatchers,
        })
    }

    /// Serves one query: admits it, waits for its batch to execute, returns
    /// the merged top-`k` plus [`ServeStats`].
    ///
    /// Safe to call from any number of threads concurrently; the calling
    /// thread blocks until the reply: on an idle server that is the batch's
    /// own execution, bounded by `search_budget`; behind an executing batch
    /// it adds that batch's remaining time (the request is dispatched when
    /// a dispatcher frees up, or after `max_delay` if another one is idle).
    ///
    /// # Errors
    ///
    /// * [`Error::Overloaded`] — ingress queue at `queue_depth`; shed or
    ///   back off.
    /// * [`Error::DimensionMismatch`] / [`Error::InvalidConfig`] — malformed
    ///   request (checked before admission; a bad request never occupies a
    ///   queue slot).
    /// * [`Error::Unavailable`] — server shutting down.
    pub fn query(&self, query: &[f32], k: usize) -> Result<ServeResponse> {
        if query.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        if k == 0 {
            return Err(Error::invalid_config("k must be ≥ 1"));
        }
        let started = Instant::now();
        let (reply, response) = mpsc::channel();
        let admit = self.batcher.push(Request {
            query: query.to_vec(),
            k,
            reply,
        });
        let depth = match admit {
            Ok(depth) => depth,
            Err(err) => {
                if matches!(err, Error::Overloaded(_)) {
                    self.rejected.inc();
                }
                return Err(err);
            }
        };
        self.admitted.inc();
        self.ingress_depth.record(depth as u64);
        let out = response
            .recv()
            .map_err(|_| Error::unavailable("server shut down before replying"))?;
        if out.is_ok() {
            self.latency.record_duration(started.elapsed());
        }
        out
    }

    /// Sets the `serve.queue_depth` gauge and returns the fleet's
    /// [`ShardedIndex::metrics`]. The server's own share: the
    /// `serve.latency_ns`, `serve.queue_wait_ns`, `serve.exec_ns` (batch
    /// picked up → last reply sent) and `serve.batch_size` histograms
    /// (p50/p99/p999 via [`juno_common::metrics::HistogramSnapshot`]),
    /// admission counters (`serve.admitted` / `serve.rejected`) and dispatch
    /// counters. `serve.plan_shared_shards` / `serve.plan_replanned_shards`
    /// count, over every executed batch, the shard scans that ran from the
    /// batch's shared plan and those that had to plan for themselves
    /// ([`DegradedBatch::plan_replanned_shards`](crate::DegradedBatch)): on a
    /// replica fleet the second should stay near zero, and a fleet silently
    /// paying the front half S× shows up here.
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.queue_depth.set(self.batcher.len() as i64);
        self.fleet.metrics()
    }

    /// Every shard breaker's current state (for dashboards and tests).
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.fleet.breaker_states()
    }

    /// The fleet this server fronts.
    pub fn fleet(&self) -> &Arc<ShardedIndex<I>> {
        &self.fleet
    }

    /// Current ingress queue depth.
    pub fn queue_depth(&self) -> usize {
        self.batcher.len()
    }

    /// Closes ingress: subsequent [`Server::query`] calls fail with
    /// [`Error::Unavailable`], while already-admitted requests are flushed
    /// through a final batch and answered. Idempotent. [`Drop`] calls this
    /// too and then joins the dispatcher threads, so an explicit call is
    /// only needed to stop admitting before the last handle goes away
    /// (e.g. while other threads still hold clones of the server's `Arc`).
    pub fn shutdown(&self) {
        self.batcher.close();
    }
}

/// Mutation passthroughs, available when the fleet's engine supports the
/// stage-and-publish write path. When the fleet has a WAL attached (see
/// [`ShardedIndex::enable_wal`]), each acknowledged call here is durable per
/// the configured [`FsyncPolicy`](juno_common::wal::FsyncPolicy) — the record
/// is on the log *before* concurrent queries can observe the new state.
impl<I: AnnIndex + Clone + 'static> Server<I> {
    /// Inserts one vector through the fleet write path; returns its global
    /// id. Concurrent queries keep serving their pinned epoch.
    pub fn insert(&self, vector: &[f32]) -> Result<u64> {
        self.fleet.insert_shared(vector)
    }

    /// Removes `id`; `Ok(false)` when it was not live.
    pub fn remove(&self, id: u64) -> Result<bool> {
        self.fleet.remove_shared(id)
    }

    /// Checkpoints the fleet's durability plane (see
    /// [`ShardedIndex::checkpoint`]): snapshots the fleet, stamps the WAL,
    /// prunes covered segments. Errors with
    /// [`Error::InvalidConfig`] when no WAL is attached.
    pub fn checkpoint(&self) -> Result<crate::durability::CheckpointReport> {
        self.fleet.checkpoint()
    }
}

impl<I: AnnIndex + 'static> Drop for Server<I> {
    fn drop(&mut self) {
        self.batcher.close();
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One dispatcher: pull batches until ingress is closed and drained, execute
/// each through the degraded read path, reply per request, and only then
/// give the batch back to the batcher.
fn dispatch_loop<I: AnnIndex + 'static>(
    fleet: &ShardedIndex<I>,
    batcher: &Batcher<Request>,
    search_budget: Duration,
) {
    let metrics = fleet.registry();
    let queue_wait = metrics.histogram("serve.queue_wait_ns");
    let batch_sizes = metrics.histogram("serve.batch_size");
    let exec = metrics.histogram("serve.exec_ns");
    let coverage_pct = metrics.histogram("serve.coverage_pct");
    let batches = metrics.counter("serve.dispatched_batches");
    let degraded = metrics.counter("serve.degraded_batches");
    let failed = metrics.counter("serve.failed_batches");
    let plan_shared = metrics.counter("serve.plan_shared_shards");
    let plan_replanned = metrics.counter("serve.plan_replanned_shards");
    while let Some(mut batch) = batcher.next_batch() {
        let picked_at = Instant::now();
        let batch_size = batch.len();
        batches.inc();
        batch_sizes.record(batch_size as u64);
        for pending in batch.iter() {
            queue_wait.record_duration(picked_at.duration_since(pending.enqueued));
        }
        // Execute at the largest requested k; per-request truncation below
        // is exact because the merged list is totally ordered by (score, id)
        // — top-k is a prefix of top-k_max.
        let k_max = batch.iter().map(|p| p.item.k).max().unwrap_or(1);
        let rows: Vec<Vec<f32>> = batch
            .iter_mut()
            .map(|p| std::mem::take(&mut p.item.query))
            .collect();
        let executed = VectorSet::from_rows(rows).and_then(|queries| {
            fleet
                .reader()
                .search_batch_deadline(&queries, k_max, search_budget)
        });
        match executed {
            Ok(degraded_batch) => {
                coverage_pct.record((degraded_batch.coverage * 100.0).round() as u64);
                if degraded_batch.coverage < 1.0 {
                    degraded.inc();
                }
                plan_shared.add(degraded_batch.plan_shared_shards as u64);
                plan_replanned.add(degraded_batch.plan_replanned_shards as u64);
                let shards = degraded_batch.shards;
                let coverage = degraded_batch.coverage;
                for (pending, mut result) in batch.iter().zip(degraded_batch.results) {
                    result.neighbors.truncate(pending.item.k);
                    let response = ServeResponse {
                        result,
                        stats: ServeStats {
                            queue_wait: picked_at.duration_since(pending.enqueued),
                            batch_size,
                            coverage,
                            shards: shards.clone(),
                        },
                    };
                    // A client that gave up (dropped the receiver) is fine.
                    let _ = pending.item.reply.send(Ok(response));
                }
            }
            Err(err) => {
                failed.inc();
                for pending in batch.iter() {
                    let _ = pending.item.reply.send(Err(err.clone()));
                }
            }
        }
        exec.record_duration(picked_at.elapsed());
    }
}

// Compile-time proof that a server can be shared across client threads for
// any engine: `AnnIndex: Send + Sync` must propagate through every field
// (the reply senders live inside the batcher mutex, which restores `Sync`).
const _: () = {
    #[allow(dead_code)]
    fn assert_send_sync<T: Send + Sync>() {}
    #[allow(dead_code)]
    fn check<I: AnnIndex + 'static>() {
        assert_send_sync::<Server<I>>();
        assert_send_sync::<Batcher<Request>>();
    }
};
