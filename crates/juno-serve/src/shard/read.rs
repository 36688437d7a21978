//! The read side of the fleet: pinned readers, the plan-once fused scan and
//! per-shard scatter-gather, and the deadline-aware degraded path (see the
//! [`shard`](super) module docs).

use super::workers::ScanWorkers;
use super::ShardState;
use crate::fault::{FaultOp, FaultPlan};
use crate::health::{BreakerState, HealthTracker, RetryPolicy};
use juno_common::error::{Error, Result};
use juno_common::index::{AnnIndex, BatchPlan, PlanUse, SearchResult, SearchStats};
use juno_common::parallel;
use juno_common::topk::{merge_neighbors, ScoreOrder};
use juno_common::vector::VectorSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A pinned, immutable point-in-time view of the whole fleet.
///
/// Pinning is O(S) `Arc` clones; afterwards every search on the reader runs
/// lock-free against exactly the pinned epochs — concurrent writers publish
/// new epochs without disturbing it (snapshot isolation). Re-running a
/// search on the same reader is bit-identical no matter what the writers
/// did in between.
#[derive(Debug, Clone)]
pub struct FleetReader<I: AnnIndex> {
    pub(super) states: Vec<Arc<ShardState<I>>>,
    /// Shared with the fleet (and every other reader): breaker decisions
    /// made by one reader's degraded searches benefit the next.
    pub(super) health: Arc<HealthTracker>,
    /// The fleet's scan workers (degraded reads only). Holding a clone keeps
    /// the pool open for as long as this reader can still submit to it.
    pub(super) workers: Arc<ScanWorkers>,
    /// The fault plan pinned when the reader was created (chaos testing
    /// only; `None` in production).
    pub(super) fault: Option<Arc<FaultPlan>>,
}

/// Per-shard outcome of a deadline-aware degraded search.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardStatus {
    /// The shard answered within the deadline; its candidates are merged.
    Ok,
    /// The shard did not answer before the deadline; its worker was
    /// abandoned (it finishes in the background and is discarded).
    TimedOut,
    /// The shard's scan failed (after exhausting transient-error retries)
    /// or its worker panicked; the error is preserved verbatim.
    Failed(Error),
    /// The shard's circuit breaker was open, so it was skipped without
    /// being touched (and without spending deadline budget on it).
    SkippedOpen,
}

impl ShardStatus {
    /// `true` when the shard contributed candidates to the merged result.
    pub fn is_ok(&self) -> bool {
        matches!(self, ShardStatus::Ok)
    }
}

/// The outcome of [`FleetReader::search_deadline`]: the merged top-k over
/// every responsive shard plus an account of who responded.
#[derive(Debug, Clone)]
pub struct DegradedResult {
    /// Merged top-k from the responsive shards (bit-identical to
    /// [`FleetReader::search`] when `coverage == 1.0`).
    pub result: SearchResult,
    /// Outcome per shard, indexed by shard id.
    pub shards: Vec<ShardStatus>,
    /// Fraction of shards that contributed: `Ok` shards / total shards.
    pub coverage: f64,
}

impl DegradedResult {
    /// `true` when every shard contributed (the result is exact, not
    /// degraded).
    pub fn is_complete(&self) -> bool {
        self.shards.iter().all(ShardStatus::is_ok)
    }
}

/// The outcome of [`FleetReader::search_batch_deadline`]. The whole batch
/// shares one deadline, and the per-shard statuses and coverage apply to
/// every query in it: a shard is `Ok` only when every query holds its
/// candidates. (A fused shard whose scan answered for some chunks of the
/// batch's queries and not for others is `TimedOut`, yet the queries of the
/// chunks that answered keep its candidates.)
#[derive(Debug, Clone)]
pub struct DegradedBatch {
    /// Merged per-query top-k lists, indexed by query.
    pub results: Vec<SearchResult>,
    /// Outcome per shard, indexed by shard id.
    pub shards: Vec<ShardStatus>,
    /// Fraction of shards that contributed: `Ok` shards / total shards.
    pub coverage: f64,
    /// `Ok` shards that scanned from the batch's shared plan (the front
    /// half was computed once for all of them).
    pub plan_shared_shards: usize,
    /// `Ok` shards that planned the batch themselves: their plan stamp
    /// differed from the planner's (a skewed epoch pin, a half-swapped
    /// rebuild, independently trained shards), or the engine has no
    /// shareable plan at all. Correct but S× the front-half work — a value
    /// that stays high on a replica fleet means replicas have diverged.
    pub plan_replanned_shards: usize,
}

impl DegradedBatch {
    /// `true` when every shard contributed.
    pub fn is_complete(&self) -> bool {
        self.shards.iter().all(ShardStatus::is_ok)
    }
}

/// One shard's answer to a batch: a result per query, and whether it
/// scanned from the fleet's shared plan.
type ShardBatch = (Vec<SearchResult>, PlanUse);

/// One answer the gather merges: a shard's own scan of a run of the
/// batch's queries, or the fused scan of several global-id shards'
/// segments.
#[derive(Debug)]
struct Part {
    /// The shard whose id map translates the results (for a fused scan,
    /// the first of its shards: global-id shards translate nothing).
    shard: usize,
    /// The batch's queries the answer covers; `results[0]` is the first's.
    queries: Range<usize>,
    results: Vec<SearchResult>,
    used: PlanUse,
}

impl Part {
    fn shard(shard: usize, queries: Range<usize>, (results, used): ShardBatch) -> Self {
        Self {
            shard,
            queries,
            results,
            used,
        }
    }
}

/// What a scan worker sends back on the degraded path.
enum Reply {
    /// Shard `s`'s own scan: of the whole batch (`chunk` is `None`), or of
    /// one fused chunk's queries after that chunk's fused scan failed.
    Shard {
        shard: usize,
        chunk: Option<usize>,
        out: Result<ShardBatch>,
    },
    /// Chunk `c` of the fused scan: its queries' results, or `None` when
    /// the scan declined, failed or panicked and each shard it covers must
    /// scan the chunk's queries alone.
    Fused(usize, Option<Vec<SearchResult>>),
}

/// One chunk of a fused batch: a run of the batch's queries, a copy of
/// them and their slice of the batch's plan.
struct Chunk {
    range: Range<usize>,
    queries: Arc<VectorSet>,
    plan: BatchPlan,
}

/// Plans a fleet batch **once**, on `planner`'s engine, for every shard to
/// scan from — the front half (coarse filter, RT traversal, selective LUT)
/// is most of a thin-list search, and replicas would each recompute it from
/// bit-identical trained state. `None` when the engine has no shareable
/// plan, and also when planning fails or panics: every shard then plans for
/// itself, so the error surfaces per shard exactly as it does without
/// sharing.
fn plan_once<I: AnnIndex>(
    planner: &ShardState<I>,
    queries: &VectorSet,
    num_threads: usize,
) -> Option<BatchPlan> {
    catch_unwind(AssertUnwindSafe(|| {
        planner.index.plan_batch(queries, num_threads)
    }))
    .ok()?
    .ok()?
}

/// One shard's scan of a batch, from the shared plan when there is one.
/// The engine itself decides whether the plan is usable (its stamp must
/// equal the engine's own) and re-plans locally otherwise.
fn scan_shard<I: AnnIndex>(
    state: &ShardState<I>,
    queries: &VectorSet,
    k: usize,
    num_threads: usize,
    plan: Option<&BatchPlan>,
) -> Result<ShardBatch> {
    match plan {
        Some(plan) => state
            .index
            .search_batch_planned(queries, k, num_threads, plan),
        None => state
            .index
            .search_batch_threads(queries, k, num_threads)
            .map(|results| (results, PlanUse::Replanned)),
    }
}

/// The fused scan of `states`' segments as one index
/// ([`AnnIndex::search_batch_fused`]) from the batch's shared plan, with
/// `num_threads` workers; `Ok(None)` when the engine declines.
fn scan_fused<I: AnnIndex>(
    states: &[&ShardState<I>],
    queries: &VectorSet,
    k: usize,
    num_threads: usize,
    plan: &BatchPlan,
) -> Result<Option<Vec<SearchResult>>> {
    let replicas: Vec<&I> = states.iter().map(|state| &state.index).collect();
    I::search_batch_fused(&replicas, queries, k, num_threads, plan)
}

/// The query ranges of a fused batch's jobs: `num_queries` cut into at most
/// `max_chunks` non-empty contiguous runs of near-equal length (one run,
/// the whole batch, when there is at most one query or one chunk).
fn fused_chunks(num_queries: usize, max_chunks: usize) -> impl Iterator<Item = Range<usize>> {
    let chunks = num_queries.min(max_chunks).max(1);
    (0..chunks).map(move |c| c * num_queries / chunks..(c + 1) * num_queries / chunks)
}

/// One shard's scan on the degraded path: fault injection, panic isolation,
/// and bounded retry for transient errors — everything that runs *on the
/// worker thread*, so a stall or panic here never touches the caller.
/// `counted`: the first attempt's `FaultOp::Search` was already counted
/// (the shard left a fused scan that counted it), so only retries inject.
#[allow(clippy::too_many_arguments)]
fn scan_shard_guarded<I: AnnIndex>(
    state: &ShardState<I>,
    s: usize,
    queries: &VectorSet,
    k: usize,
    plan: Option<&BatchPlan>,
    deadline: Instant,
    fault: Option<&FaultPlan>,
    retry: RetryPolicy,
    mut counted: bool,
) -> Result<ShardBatch> {
    let mut attempt = 0u32;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<ShardBatch> {
            if let Some(faults) = fault.filter(|_| !std::mem::take(&mut counted)) {
                faults.inject(s, FaultOp::Search)?;
            }
            // Inner thread budget 1: the scatter already gave this shard a
            // dedicated worker, and engine results are thread-invariant.
            scan_shard(state, queries, k, 1, plan)
        }));
        let result = outcome.unwrap_or_else(|payload| {
            Err(Error::worker_panicked(format!(
                "shard {s} search worker: {}",
                parallel::panic_message(&*payload)
            )))
        });
        match result {
            Ok(batch) => return Ok(batch),
            Err(err) if err.is_retryable() && attempt < retry.max_retries => {
                attempt += 1;
                let sleep = retry.backoff_for(attempt);
                if Instant::now() + sleep >= deadline {
                    return Err(err); // no budget left to retry in
                }
                std::thread::sleep(sleep);
            }
            Err(err) => return Err(err),
        }
    }
}

impl<I: AnnIndex> FleetReader<I> {
    /// Number of shards pinned.
    pub fn num_shards(&self) -> usize {
        self.states.len()
    }

    /// The pinned epoch of every shard, in shard order.
    pub fn epochs(&self) -> Vec<u64> {
        self.states.iter().map(|s| s.epoch).collect()
    }

    /// Borrow of one pinned shard state.
    pub fn shard(&self, s: usize) -> &ShardState<I> {
        &self.states[s]
    }

    /// Total live vectors across all pinned shards.
    pub fn len(&self) -> usize {
        self.states.iter().map(|s| s.index.len()).sum()
    }

    /// Returns `true` when no shard holds a live vector.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every live id across the pinned shards, in the global id space,
    /// ascending.
    pub(super) fn live_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = Vec::with_capacity(self.len());
        for state in &self.states {
            match &state.id_map {
                Some(map) => ids.extend_from_slice(map),
                None => ids.extend(state.index.ids()),
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Remaps a shard's neighbours into the global id space and re-sorts
    /// under the merge order (mapped shards only; a no-op for global-id
    /// shards, whose lists already arrive merge-ordered).
    fn globalise(&self, s: usize, result: &mut SearchResult, order: ScoreOrder) {
        if let Some(map) = &self.states[s].id_map {
            for n in &mut result.neighbors {
                n.id = map[n.id as usize];
            }
            result.neighbors.sort_by(|a, b| order.cmp_neighbors(a, b));
        }
    }

    /// Gathers the parts' results for one query into the global top-k. Each
    /// entry carries its true shard index so a degraded gather (a subset of
    /// shards) still translates mapped ids correctly; the merge itself is
    /// order-independent (deterministic tie by id), so merging a subset is
    /// bit-identical to a fleet that only contained those shards.
    /// `shared_front` is the front-half work of the query's shared plan,
    /// when some part scanned from it: those parts reported none of their
    /// own, so it is merged once on their behalf. Each of them did expand
    /// the plan's selective tables, the same ones, so their
    /// `lut_distances` count once too.
    fn gather_indexed(
        &self,
        per_part: Vec<(usize, PlanUse, SearchResult)>,
        shared_front: Option<&SearchStats>,
        k: usize,
        order: ScoreOrder,
    ) -> SearchResult {
        let mut stats = SearchStats::default();
        let mut simulated_us = 0.0f64;
        let mut lists = Vec::with_capacity(per_part.len());
        let mut tables_counted = false;
        for (s, used, mut result) in per_part {
            self.globalise(s, &mut result, order);
            if used == PlanUse::Shared && std::mem::replace(&mut tables_counted, true) {
                result.stats.lut_distances = 0;
            }
            stats.merge_scatter(&result.stats);
            simulated_us = simulated_us.max(result.simulated_us);
            lists.push(result.neighbors);
        }
        if let Some(front) = shared_front {
            stats.merge_scatter(front);
        }
        SearchResult {
            neighbors: merge_neighbors(&lists, k, order),
            simulated_us,
            stats,
        }
    }

    /// Gathers a batch's parts into per-query results: each query merges
    /// the parts that cover it.
    fn gather_batch(
        &self,
        mut parts: Vec<Part>,
        plan: Option<&BatchPlan>,
        num_queries: usize,
        k: usize,
    ) -> Vec<SearchResult> {
        let order = self.states[0].index.merge_order();
        (0..num_queries)
            .map(|qi| {
                let per_part: Vec<_> = parts
                    .iter_mut()
                    .filter(|part| part.queries.contains(&qi))
                    .map(|part| {
                        let result = &mut part.results[qi - part.queries.start];
                        (part.shard, part.used, std::mem::take(result))
                    })
                    .collect();
                let shared = per_part.iter().any(|(_, used, _)| *used == PlanUse::Shared);
                let front = plan.filter(|_| shared).map(|p| p.front_stats(qi));
                self.gather_indexed(per_part, front, k, order)
            })
            .collect()
    }

    /// Whether the batch can take the fused scan: a shared plan, and a
    /// global-id fleet (mapped shards own unrelated id spaces).
    fn fusable(&self, plan: Option<&BatchPlan>) -> bool {
        plan.is_some() && self.states.iter().all(|state| state.id_map.is_none())
    }

    /// The exact scatter-gather behind [`FleetReader::search`] and
    /// [`FleetReader::search_batch_threads`]: plan the batch once, then scan
    /// every shard's segments as one index with `outer × inner` threads
    /// when the fleet and the engine allow it; otherwise (the engine
    /// declined) scan each shard from the plan on up to `outer` workers
    /// (each with an `inner` thread budget) and gather. Any shard error
    /// fails the batch: a fused scan's error is the failing shard's own,
    /// and its panic surfaces as [`Error::WorkerPanicked`].
    fn scatter(
        &self,
        queries: &VectorSet,
        k: usize,
        outer: usize,
        inner: usize,
    ) -> Result<Vec<SearchResult>> {
        let all = 0..queries.len();
        let plan = plan_once(&self.states[0], queries, outer * inner);
        if let Some(plan) = plan.as_ref().filter(|p| self.fusable(Some(p))) {
            let states: Vec<&ShardState<I>> = self.states.iter().map(|s| &**s).collect();
            let fused = catch_unwind(AssertUnwindSafe(|| {
                scan_fused(&states, queries, k, outer * inner, plan)
            }))
            .unwrap_or_else(|payload| {
                Err(Error::worker_panicked(format!(
                    "fused search: {}",
                    parallel::panic_message(&*payload)
                )))
            })?;
            if let Some(results) = fused {
                let part = Part::shard(0, all, (results, PlanUse::Shared));
                return Ok(self.gather_batch(vec![part], Some(plan), queries.len(), k));
            }
        }
        let parts = parallel::map(self.states.len(), outer, |s| {
            scan_shard(&self.states[s], queries, k, inner, plan.as_ref())
                .map(|b| Part::shard(s, all.clone(), b))
        })?
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        Ok(self.gather_batch(parts, plan.as_ref(), queries.len(), k))
    }

    /// Searches one query across the fleet: its front half is planned once
    /// ([`AnnIndex::plan_batch`]), and on a global-id fleet of an engine
    /// with a fused scan ([`AnnIndex::search_batch_fused`]: JUNO) every
    /// shard's segments are scanned as one index on the calling thread —
    /// one selector, each probe's table expanded once, the monolith's
    /// prune decisions and work. Mapped fleets, engines without a fused
    /// scan and shards whose plan stamps differ fan one task per shard out
    /// across the work-stealing pool (up to the default thread budget) and
    /// merge the per-shard top-k lists deterministically (tie by id).
    /// Results are identical either way, to a sequential shard loop of
    /// [`AnnIndex::search`] — neither the shared plan nor the scan changes
    /// anything but work and latency.
    ///
    /// # Errors
    ///
    /// Propagates the first shard error (dimension mismatch etc.).
    pub fn search(&self, query: &[f32], k: usize) -> Result<SearchResult> {
        let queries = VectorSet::from_rows(vec![query.to_vec()])?;
        let workers = self.states.len().min(parallel::default_threads());
        let mut results = self.scatter(&queries, k, workers, 1)?;
        Ok(results.pop().expect("one query in, one result out"))
    }

    /// Batch search across the fleet with an explicit worker-thread budget:
    /// the batch is planned once with the whole budget. A global-id fleet
    /// of an engine with a fused scan then runs the engine's batched path —
    /// for JUNO the **cluster-major grouped executor** entered at its
    /// second step — once, over every shard's segments as one index, with
    /// the whole budget. Otherwise the budget is split across the shards:
    /// up to `S` outer workers scan shards concurrently, each fanning its
    /// shard's batch through the engine's own batched path with the
    /// remaining budget (a shard whose plan stamp differs from the
    /// planner's plans locally first, as every IVFPQ shard does), and
    /// per-query results merge across shards under the usual deterministic
    /// order. Results are identical — ids and distance bits — for every
    /// budget and execution strategy.
    ///
    /// # Errors
    ///
    /// Propagates the first per-shard error encountered.
    pub fn search_batch_threads(
        &self,
        queries: &VectorSet,
        k: usize,
        num_threads: usize,
    ) -> Result<Vec<SearchResult>> {
        let outer = num_threads.clamp(1, self.states.len());
        let inner = (num_threads / outer).max(1);
        self.scatter(queries, k, outer, inner)
    }

    /// [`FleetReader::search_batch_threads`] with the default thread budget.
    ///
    /// # Errors
    ///
    /// Propagates the first per-shard error encountered.
    pub fn search_batch(&self, queries: &VectorSet, k: usize) -> Result<Vec<SearchResult>> {
        self.search_batch_threads(queries, k, parallel::default_threads())
    }

    /// Snapshot of every pinned shard's circuit-breaker state (shared with
    /// the fleet — breakers outlive any single reader).
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.health.breaker_states()
    }
}

impl<I: AnnIndex + 'static> FleetReader<I> {
    /// Deadline-aware degraded search of one query: scatter to every shard
    /// whose breaker admits it, gather whatever answers within `budget`, and
    /// merge that into a best-effort top-k. Never fails the whole query
    /// because one shard stalled, errored, or panicked — the loss shows up
    /// as `coverage < 1.0` and a non-`Ok` [`ShardStatus`] instead.
    ///
    /// With no faults, no open breakers, and the deadline met by every
    /// shard, the merged result is **bit-identical** (ids and distance bits)
    /// to [`FleetReader::search`].
    ///
    /// `I: 'static` because slow shards are *abandoned*, not cancelled: each
    /// scan runs on one of the fleet's scan workers — a parked one when one
    /// is free, a newly started one otherwise, so a scan never waits behind
    /// another shard's (possibly stalled) scan — and the job holds its own
    /// `Arc` of the pinned shard state. A straggler finishing after the
    /// deadline (even after this reader and the fleet are dropped) writes
    /// into a disconnected channel, frees the state and parks or exits —
    /// never a use-after-free, never a blocked caller.
    ///
    /// # Errors
    ///
    /// Never fails per-shard; errors surface as [`ShardStatus::Failed`].
    /// Only query construction itself (e.g. a ragged query) can error.
    pub fn search_deadline(
        &self,
        query: &[f32],
        k: usize,
        budget: Duration,
    ) -> Result<DegradedResult> {
        let queries = VectorSet::from_rows(vec![query.to_vec()])?;
        let mut batch = self.search_batch_deadline(&queries, k, budget)?;
        let result = batch.results.pop().expect("one query in, one result out");
        Ok(DegradedResult {
            result,
            shards: batch.shards,
            coverage: batch.coverage,
        })
    }

    /// Batch variant of [`FleetReader::search_deadline`]: one deadline and
    /// one scatter for the whole batch (each responsive shard scans all
    /// queries; the per-shard statuses apply batch-wide).
    ///
    /// On a global-id fleet of an engine with a fused scan
    /// ([`AnnIndex::search_batch_fused`]: JUNO) the admitted shards are
    /// scanned as one index — the monolith's work, where one job per shard
    /// each filled a top-k of its own — by one scan-worker job per chunk of
    /// the batch's queries (a lone query is one job), each chunk with its
    /// slice of the one plan. The per-shard scatter still runs for mapped
    /// fleets, for a shard whose [`crate::FaultOp::Search`] rule would fire
    /// (it takes a job of its own, the rest stay fused), for the one batch
    /// after a fused job missed its deadline, and as the fallback of a
    /// chunk whose fused job declines (stamps differ), errors or panics:
    /// every shard it covered then scans that chunk's queries in a job of
    /// its own, so a faulty shard still costs only its own coverage and the
    /// chunks that answered stand. A fused job that misses the deadline
    /// leaves its shards `TimedOut` but charges none of their breakers — it
    /// cannot say whose segment held it up — and the next batch scans each
    /// shard on its own, where a shard that really stalls is charged
    /// alone.
    ///
    /// # Errors
    ///
    /// Never fails per-shard; see [`FleetReader::search_deadline`].
    pub fn search_batch_deadline(
        &self,
        queries: &VectorSet,
        k: usize,
        budget: Duration,
    ) -> Result<DegradedBatch> {
        let total = self.states.len();
        let deadline = Instant::now() + budget;
        // Admission first: `Some(generation)` for every shard whose breaker
        // lets this request through. Every outcome (including the straggler
        // sweep) reports with its generation stamp so the breaker can ignore
        // outcomes that pre-date a state flip.
        let admitted: Vec<Option<u64>> =
            (0..total).map(|s| self.health.breaker(s).admit()).collect();
        // Plan once, on the calling thread alone, on the first admitted
        // shard's engine — nothing to plan for when every breaker is open.
        // The time this takes comes out of the budget, as the shards' own
        // planning used to. One thread, because a plan costs ≈ 13 µs a
        // query and a served batch holds one or two (`server.batch_size_mean`
        // ≈ 1.6): spawning and joining a scoped worker to share that cost
        // costs more than it shares. On a 2-vCPU host the ledger's online
        // workload (4 shards, two closed-loop clients) read `qps` 4,071 →
        // 4,508 and the mixed one 2,492 → 2,710 with this rule (medians of
        // five alternated pairs); a 16-query batch, where planning could
        // share, read 2.3 → 2.8 ms online and 2.7 → 2.6 ms mixed (three
        // traced pairs, within the host's spread).
        let plan = admitted
            .iter()
            .position(Option::is_some)
            .and_then(|s| plan_once(&self.states[s], queries, 1));
        // The fused group: every admitted shard whose `Search` op would not
        // fire, counted now as its scan's injection would count it. Empty
        // for the one batch after a fused job missed its deadline: each
        // shard then answers on its own, so a shard that really stalls
        // times out alone and is charged for it.
        let fused: Vec<usize> = if self.fusable(plan.as_ref()) && !self.health.take_fused_missed() {
            (0..total)
                .filter(|&s| admitted[s].is_some())
                .filter(|&s| {
                    self.fault
                        .as_ref()
                        .is_none_or(|f| f.pass(s, FaultOp::Search))
                })
                .collect()
        } else {
            Vec::new()
        };

        // One copy of the batch, shared by every job of its own.
        let nq = queries.len();
        let queries = Arc::new(queries.clone());
        // The fused scan runs as one job per chunk of the batch's queries,
        // at most one chunk per fused shard — the pool parks a worker per
        // shard, so the chunks start without a thread start — and each with
        // its slice of the one plan. A lone query is one job; a 16-query
        // batch on the ledger's online fleet took a median of 1.66 ms as
        // one job and 1.0 ms as four (2 vCPUs, five and four traced runs).
        let chunks: Vec<Chunk> = match &plan {
            Some(plan) if !fused.is_empty() => fused_chunks(nq, fused.len())
                .map(|range| {
                    let queries = if range.len() == nq {
                        Arc::clone(&queries)
                    } else {
                        Arc::new(queries.select(&range.clone().collect::<Vec<_>>())?)
                    };
                    let plan = plan.slice(range.clone());
                    Ok(Chunk {
                        range,
                        queries,
                        plan,
                    })
                })
                .collect::<Result<_>>()?,
            _ => Vec::new(),
        };
        // The sender stays here: a fused chunk that fails submits its
        // shards' own scans late.
        let (tx, rx) = mpsc::channel::<Reply>();
        // Shard `s`'s own scan: of the whole batch, or of fused chunk
        // `chunk`'s queries (whose `Search` op the fused group counted).
        let submit_shard = |s: usize, chunk: Option<usize>| {
            let state = self.states[s].clone();
            let (queries, plan) = match chunk {
                Some(c) => (Arc::clone(&chunks[c].queries), Some(chunks[c].plan.clone())),
                None => (Arc::clone(&queries), plan.clone()),
            };
            let fault = self.fault.clone();
            let retry = self.health.retry();
            // A send after the deadline hits a disconnected receiver; the
            // straggler's work is simply discarded.
            self.workers.submit(tx.clone(), move || {
                let out = scan_shard_guarded(
                    &state,
                    s,
                    &queries,
                    k,
                    plan.as_ref(),
                    deadline,
                    fault.as_deref(),
                    retry,
                    chunk.is_some(),
                );
                Reply::Shard {
                    shard: s,
                    chunk,
                    out,
                }
            });
        };
        let mut statuses: Vec<ShardStatus> = Vec::with_capacity(total);
        let mut outstanding = 0usize;
        for (s, admit) in admitted.iter().enumerate() {
            if admit.is_none() {
                statuses.push(ShardStatus::SkippedOpen);
                continue;
            }
            // Provisional: overwritten when (if) a worker reports in.
            statuses.push(ShardStatus::TimedOut);
            if !fused.contains(&s) {
                outstanding += 1;
                submit_shard(s, None);
            }
        }
        for (c, chunk) in chunks.iter().enumerate() {
            outstanding += 1;
            let states: Vec<Arc<ShardState<I>>> =
                fused.iter().map(|&s| self.states[s].clone()).collect();
            let (queries, plan) = (Arc::clone(&chunk.queries), chunk.plan.clone());
            self.workers.submit(tx.clone(), move || {
                let states: Vec<&ShardState<I>> = states.iter().map(|s| &**s).collect();
                // Inner thread budget 1, as for a shard's own scan.
                let out = catch_unwind(AssertUnwindSafe(|| {
                    scan_fused(&states, &queries, k, 1, &plan)
                }));
                Reply::Fused(c, out.ok().and_then(Result::ok).flatten())
            });
        }
        let admit_gen = |s: usize| admitted[s].expect("only admitted shards report");

        // Per shard: the fused chunks that still lack its candidates, the
        // first error its own scan of a failed chunk reported, and whether
        // any of its answers planned for itself.
        let mut missing = vec![chunks.len(); total];
        let mut errors: Vec<Option<Error>> = vec![None; total];
        let mut replanned = vec![false; total];
        let mut parts: Vec<Part> = Vec::with_capacity(total + chunks.len());
        while outstanding > 0 {
            let wait = deadline.saturating_duration_since(Instant::now());
            let reply = match rx.recv_timeout(wait) {
                Ok(reply) => reply,
                // Deadline reached: whatever has not answered stays
                // `TimedOut`.
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("the sender lives until the gather")
                }
            };
            outstanding -= 1;
            match reply {
                Reply::Shard {
                    shard: s,
                    chunk,
                    out: Ok(batch),
                } => {
                    replanned[s] |= batch.1 == PlanUse::Replanned;
                    let range = match chunk {
                        Some(c) => {
                            missing[s] -= 1;
                            chunks[c].range.clone()
                        }
                        None => {
                            self.health.breaker(s).record_success(admit_gen(s));
                            statuses[s] = ShardStatus::Ok;
                            0..nq
                        }
                    };
                    parts.push(Part::shard(s, range, batch));
                }
                Reply::Shard {
                    shard: s,
                    chunk: Some(_),
                    out: Err(err),
                } => {
                    errors[s].get_or_insert(err);
                }
                Reply::Shard {
                    shard: s,
                    chunk: None,
                    out: Err(err),
                } => {
                    self.health.breaker(s).record_failure(admit_gen(s));
                    statuses[s] = ShardStatus::Failed(err);
                }
                Reply::Fused(c, Some(results)) => {
                    for &s in &fused {
                        missing[s] -= 1;
                    }
                    let range = chunks[c].range.clone();
                    parts.push(Part::shard(fused[0], range, (results, PlanUse::Shared)));
                }
                Reply::Fused(c, None) => {
                    // Each shard the chunk covered scans the chunk's
                    // queries alone, so a faulty shard costs only its own
                    // coverage; the chunks that answered stand.
                    outstanding += fused.len();
                    for &s in &fused {
                        submit_shard(s, Some(c));
                    }
                }
            }
        }
        // A fused shard is `Failed` when its own scan of a chunk failed
        // (charged like any shard's failure), `Ok` when every chunk holds
        // its candidates, and otherwise `TimedOut` — though the queries of
        // the chunks that answered keep its candidates. A fused job that
        // missed the deadline cannot say whose segment held it up, so that
        // charges no breaker; the next batch scatters per shard instead.
        let mut fused_missed = false;
        for &s in &fused {
            if let Some(err) = errors[s].take() {
                self.health.breaker(s).record_failure(admit_gen(s));
                statuses[s] = ShardStatus::Failed(err);
            } else if missing[s] == 0 {
                self.health.breaker(s).record_success(admit_gen(s));
                statuses[s] = ShardStatus::Ok;
            } else {
                fused_missed = true;
            }
        }
        if fused_missed {
            self.health.record_fused_missed();
        }
        // Stragglers of their own jobs (still provisional after the
        // deadline) count against their breakers just like explicit
        // failures.
        for (s, status) in statuses.iter().enumerate() {
            if matches!(status, ShardStatus::TimedOut) && !fused.contains(&s) {
                self.health.breaker(s).record_failure(admit_gen(s));
            }
        }

        let ok = statuses.iter().filter(|s| s.is_ok()).count();
        let coverage = ok as f64 / total.max(1) as f64;
        let ok_with = |r: bool| {
            (0..total)
                .filter(|&s| statuses[s].is_ok() && replanned[s] == r)
                .count()
        };
        Ok(DegradedBatch {
            results: self.gather_batch(parts, plan.as_ref(), nq, k),
            plan_shared_shards: ok_with(false),
            plan_replanned_shards: ok_with(true),
            shards: statuses,
            coverage,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultRule};
    use crate::health::BreakerConfig;
    use crate::router::ShardRouter;
    use crate::shard::ShardedIndex;
    use juno_common::metric::Metric;
    use juno_common::topk::TopK;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// How a [`Rows`] replica misbehaves.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Poison {
        None,
        /// Every scan of this replica fails, its own or a fused one.
        Fail,
        /// A fused scan covering this replica panics; its own scan works.
        PanicFused,
        /// A scan covering this replica whose queries hold one with first
        /// coordinate `on` stalls for [`STALL`]: a fused one, or — with
        /// `fused_fails` — this replica's own one, the fused one failing.
        Stall {
            on: f32,
            fused_fails: bool,
        },
    }

    /// How long a [`Poison::Stall`] scan stalls: far past [`SHORT`].
    const STALL: Duration = Duration::from_millis(1500);

    /// An exhaustive engine with a shareable plan and a fused scan that
    /// searches its replicas one after the other and merges: enough to
    /// drive the fleet's choice between the fused scan and the per-shard
    /// scatter, and the fallback between them.
    #[derive(Debug, Clone)]
    struct Rows {
        rows: Vec<(u64, Vec<f32>)>,
        next_id: u64,
        poison: Poison,
        fused_calls: Arc<AtomicUsize>,
    }

    impl AnnIndex for Rows {
        fn metric(&self) -> Metric {
            Metric::L2
        }
        fn dim(&self) -> usize {
            2
        }
        fn len(&self) -> usize {
            self.rows.len()
        }
        fn search(&self, query: &[f32], k: usize) -> Result<SearchResult> {
            match self.poison {
                Poison::Fail => return Err(Error::corrupted("a poisoned replica")),
                Poison::Stall {
                    on,
                    fused_fails: true,
                } if query[0] == on => std::thread::sleep(STALL),
                _ => {}
            }
            let mut topk = TopK::new(k, Metric::L2);
            for (id, row) in &self.rows {
                topk.push(*id, Metric::L2.distance(query, row));
            }
            Ok(SearchResult {
                neighbors: topk.into_sorted_vec(),
                stats: SearchStats {
                    candidates: self.rows.len(),
                    ..SearchStats::default()
                },
                ..SearchResult::default()
            })
        }
        fn supports_mutation(&self) -> bool {
            true
        }
        fn remove(&mut self, id: u64) -> Result<bool> {
            let before = self.rows.len();
            self.rows.retain(|(row_id, _)| *row_id != id);
            Ok(self.rows.len() < before)
        }
        fn ids(&self) -> Vec<u64> {
            self.rows.iter().map(|(id, _)| *id).collect()
        }
        fn plan_batch(&self, queries: &VectorSet, _: usize) -> Result<Option<BatchPlan>> {
            let front = vec![SearchStats::default(); queries.len()];
            Ok(Some(BatchPlan::new(
                self.next_id,
                front,
                vec![(); queries.len()],
            )))
        }
        fn search_batch_planned(
            &self,
            queries: &VectorSet,
            k: usize,
            num_threads: usize,
            _: &BatchPlan,
        ) -> Result<(Vec<SearchResult>, PlanUse)> {
            let results = self.search_batch_threads(queries, k, num_threads)?;
            Ok((results, PlanUse::Shared))
        }
        fn search_batch_fused(
            replicas: &[&Self],
            queries: &VectorSet,
            k: usize,
            _: usize,
            _: &BatchPlan,
        ) -> Result<Option<Vec<SearchResult>>> {
            replicas[0].fused_calls.fetch_add(1, Ordering::Relaxed);
            for replica in replicas {
                match replica.poison {
                    Poison::PanicFused => panic!("[injected-fault] a fused scan panicked"),
                    Poison::Stall { on, fused_fails } if queries.iter().any(|q| q[0] == on) => {
                        if fused_fails {
                            return Err(Error::corrupted("a stalling replica"));
                        }
                        std::thread::sleep(STALL);
                    }
                    _ => {}
                }
            }
            let mut per_replica = Vec::new();
            for replica in replicas {
                per_replica.push(replica.search_batch_threads(queries, k, 1)?);
            }
            Ok(Some(merged(&per_replica, queries.len(), k)))
        }
    }

    /// Per query, the merge of `per_shard`'s lists (neighbours only).
    fn merged(per_shard: &[Vec<SearchResult>], nq: usize, k: usize) -> Vec<SearchResult> {
        (0..nq)
            .map(|q| {
                let lists: Vec<_> = per_shard.iter().map(|r| r[q].neighbors.clone()).collect();
                SearchResult {
                    neighbors: merge_neighbors(&lists, k, ScoreOrder::Ascending),
                    ..SearchResult::default()
                }
            })
            .collect()
    }

    fn fleet(fused_calls: &Arc<AtomicUsize>) -> ShardedIndex<Rows> {
        let rows = (0..400u64)
            .map(|i| (i, vec![(i % 20) as f32, (i / 20) as f32 * 0.5]))
            .collect();
        let monolith = Rows {
            rows,
            next_id: 400,
            poison: Poison::None,
            fused_calls: fused_calls.clone(),
        };
        ShardedIndex::from_monolith(monolith, 4, ShardRouter::Hash { seed: 5 }).expect("fleet")
    }

    fn queries() -> VectorSet {
        VectorSet::from_rows(
            (0..5)
                .map(|i| vec![i as f32 * 3.3, i as f32 * 1.7])
                .collect(),
        )
        .expect("queries")
    }

    /// What `shards` answer on their own, merged.
    fn healthy_merge(reader: &FleetReader<Rows>, shards: &[usize], k: usize) -> Vec<SearchResult> {
        let per_shard: Vec<Vec<SearchResult>> = shards
            .iter()
            .map(|&s| {
                let mut own = reader.states[s].clone();
                Arc::make_mut(&mut own).index.poison = Poison::None;
                own.index
                    .search_batch_threads(&queries(), k, 1)
                    .expect("own")
            })
            .collect();
        merged(&per_shard, queries().len(), k)
    }

    fn neighbours(results: &[SearchResult]) -> Vec<Vec<(u64, u32)>> {
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

    fn poison(reader: &mut FleetReader<Rows>, s: usize, poison: Poison) {
        let state = Arc::make_mut(&mut reader.states[s]);
        state.index.poison = poison;
    }

    const K: usize = 7;
    const BUDGET: Duration = Duration::from_secs(30);
    /// A budget the healthy scans meet and a [`Poison::Stall`] misses.
    const SHORT: Duration = Duration::from_millis(300);

    #[test]
    fn fused_chunks_cut_a_batch_into_contiguous_non_empty_runs() {
        let cut = |n, max| {
            fused_chunks(n, max)
                .map(|r| (r.start, r.end))
                .collect::<Vec<_>>()
        };
        assert_eq!(cut(0, 4), [(0, 0)]);
        assert_eq!(cut(1, 4), [(0, 1)]);
        assert_eq!(cut(5, 1), [(0, 5)]);
        assert_eq!(cut(5, 4), [(0, 1), (1, 2), (2, 3), (3, 5)]);
        assert_eq!(cut(16, 4), [(0, 4), (4, 8), (8, 12), (12, 16)]);
        assert_eq!(cut(3, 7), [(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn a_global_id_fleet_scans_its_shards_as_one_index() {
        let calls = Arc::new(AtomicUsize::new(0));
        let reader = fleet(&calls).reader();
        let want = neighbours(&healthy_merge(&reader, &[0, 1, 2, 3], K));
        let got = reader
            .search_batch_deadline(&queries(), K, BUDGET)
            .expect("batch");
        assert!(got.is_complete());
        assert_eq!((got.plan_shared_shards, got.plan_replanned_shards), (4, 0));
        assert_eq!(neighbours(&got.results), want);
        // One fused job per chunk: five queries over four shards' workers.
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        // The exact paths take it too, in one call on the caller's budget.
        let batch = reader
            .search_batch_threads(&queries(), K, 2)
            .expect("exact");
        assert_eq!(neighbours(&batch), want);
        assert_eq!(calls.load(Ordering::Relaxed), 5);
        let one = reader.search(queries().row(0), K).expect("search");
        assert_eq!(neighbours(&[one]), want[..1]);
        assert_eq!(calls.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn a_fused_batch_with_a_failing_shard_ends_with_that_shard_failed() {
        juno_common::testing::silence_panics();
        let calls = Arc::new(AtomicUsize::new(0));
        let mut reader = fleet(&calls).reader();
        poison(&mut reader, 2, Poison::Fail);
        let got = reader
            .search_batch_deadline(&queries(), K, BUDGET)
            .expect("batch");
        assert!(
            matches!(got.shards[2], ShardStatus::Failed(Error::Corrupted(_))),
            "{:?}",
            got.shards
        );
        for s in [0, 1, 3] {
            assert!(got.shards[s].is_ok(), "shard {s}: {:?}", got.shards[s]);
        }
        assert_eq!(got.coverage, 0.75);
        assert_eq!(got.plan_shared_shards, 3);
        let want = neighbours(&healthy_merge(&reader, &[0, 1, 3], K));
        assert_eq!(
            neighbours(&got.results),
            want,
            "the healthy shards' exact merge"
        );
        assert_eq!(
            calls.load(Ordering::Relaxed),
            4,
            "each chunk's fused job fails once, then each shard scans alone"
        );
        // The exact paths fail the request with the shard's own error.
        assert!(matches!(
            reader.search_batch_threads(&queries(), K, 2),
            Err(Error::Corrupted(_))
        ));

        // On the degraded path a fused scan that panics costs nothing but
        // the detour; an exact path reports it.
        let mut reader = fleet(&calls).reader();
        poison(&mut reader, 1, Poison::PanicFused);
        let got = reader
            .search_batch_deadline(&queries(), K, BUDGET)
            .expect("batch");
        assert!(got.is_complete(), "{:?}", got.shards);
        let want = neighbours(&healthy_merge(&reader, &[0, 1, 2, 3], K));
        assert_eq!(neighbours(&got.results), want);
        assert!(matches!(
            reader.search_batch_threads(&queries(), K, 2),
            Err(Error::WorkerPanicked(_))
        ));
    }

    /// A fleet whose breakers open on the first failure charged to them.
    fn touchy_fleet(calls: &Arc<AtomicUsize>) -> ShardedIndex<Rows> {
        let fleet = fleet(calls);
        fleet.configure_health(
            BreakerConfig {
                failure_threshold: 1,
                ..BreakerConfig::default()
            },
            RetryPolicy::default(),
        );
        fleet
    }

    #[test]
    fn a_fused_chunk_that_misses_the_deadline_charges_no_breaker() {
        let calls = Arc::new(AtomicUsize::new(0));
        let fleet = touchy_fleet(&calls);
        let mut reader = fleet.reader();
        let want = neighbours(&healthy_merge(&reader, &[0, 1, 2, 3], K));
        // The last chunk of four ([3, 5)) holds query 4 and stalls.
        let on = queries().row(4)[0];
        poison(
            &mut reader,
            2,
            Poison::Stall {
                on,
                fused_fails: false,
            },
        );
        let got = reader
            .search_batch_deadline(&queries(), K, SHORT)
            .expect("batch");
        assert_eq!(got.shards, vec![ShardStatus::TimedOut; 4]);
        assert_eq!(got.coverage, 0.0);
        // The three chunks that answered keep every shard's candidates.
        let results = neighbours(&got.results);
        assert_eq!(results[..3], want[..3]);
        assert!(results[3..].iter().all(Vec::is_empty), "{results:?}");
        assert_eq!(
            reader.breaker_states(),
            vec![BreakerState::Closed; 4],
            "nobody's breaker is charged for the stalled chunk"
        );
        // The next batch scans each shard on its own, where the stall is
        // shard 2's own scan's (its own scans stall nowhere): complete.
        let next = reader
            .search_batch_deadline(&queries(), K, SHORT)
            .expect("batch");
        assert!(next.is_complete(), "{:?}", next.shards);
        assert_eq!(neighbours(&next.results), want);
        // And the one after that fuses again.
        let before = calls.load(Ordering::Relaxed);
        reader
            .search_batch_deadline(&queries(), K, SHORT)
            .expect("batch");
        assert_eq!(calls.load(Ordering::Relaxed), before + 4);
        assert_eq!(reader.breaker_states(), vec![BreakerState::Closed; 4]);
    }

    #[test]
    fn a_failed_chunk_whose_own_scans_are_late_charges_only_the_stalled_shard() {
        let calls = Arc::new(AtomicUsize::new(0));
        let fleet = touchy_fleet(&calls);
        let mut reader = fleet.reader();
        let on = queries().row(4)[0];
        poison(
            &mut reader,
            2,
            Poison::Stall {
                on,
                fused_fails: true,
            },
        );
        // The last chunk's fused scan fails; each shard then scans that
        // chunk alone, and shard 2's own scan stalls past the deadline.
        let got = reader
            .search_batch_deadline(&queries(), K, SHORT)
            .expect("batch");
        let mut want_status = vec![ShardStatus::Ok; 4];
        want_status[2] = ShardStatus::TimedOut;
        assert_eq!(got.shards, want_status);
        assert_eq!(got.coverage, 0.75);
        let all = neighbours(&healthy_merge(&reader, &[0, 1, 2, 3], K));
        let healthy = neighbours(&healthy_merge(&reader, &[0, 1, 3], K));
        let results = neighbours(&got.results);
        assert_eq!(results[..3], all[..3], "the fused chunks that answered");
        assert_eq!(results[3..], healthy[3..], "the healthy shards' merge");
        assert_eq!(
            reader.breaker_states(),
            vec![BreakerState::Closed; 4],
            "a late fallback charges no breaker"
        );
        // The next batch scans each shard on its own: shard 2's own stall
        // is its own, and only its breaker opens.
        let next = reader
            .search_batch_deadline(&queries(), K, SHORT)
            .expect("batch");
        assert_eq!(next.shards, want_status);
        assert_eq!(neighbours(&next.results), healthy);
        let mut want_breakers = vec![BreakerState::Closed; 4];
        want_breakers[2] = BreakerState::Open;
        assert_eq!(reader.breaker_states(), want_breakers);
    }

    #[test]
    fn a_shard_whose_fault_would_fire_leaves_the_fused_job_and_counts_once() {
        let calls = Arc::new(AtomicUsize::new(0));
        let fleet = fleet(&calls);
        let plan = Arc::new(FaultPlan::new(4).with_rule(FaultRule {
            shard: 1,
            op: FaultOp::Search,
            from_op: 1,
            until_op: Some(2),
            kind: FaultKind::Fail,
        }));
        fleet.set_fault_plan(Some(plan.clone()));
        let reader = fleet.reader();
        // Op 0 fires nowhere: the fused jobs (four chunks) count every
        // shard once.
        let got = reader
            .search_batch_deadline(&queries(), K, BUDGET)
            .expect("batch");
        assert!(got.is_complete());
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        // Op 1 fires on shard 1: it scans alone and fails (retried once,
        // and counted again); the other three stay fused.
        let got = reader
            .search_batch_deadline(&queries(), K, BUDGET)
            .expect("batch");
        assert_eq!(
            calls.load(Ordering::Relaxed),
            4 + 3,
            "three shards, three chunks"
        );
        let want = neighbours(&healthy_merge(&reader, &[0, 1, 2, 3], K));
        assert_eq!(
            got.coverage, 1.0,
            "the transient-class fault clears on retry"
        );
        assert_eq!(neighbours(&got.results), want);
        let counts: Vec<u64> = (0..4).map(|s| plan.op_count(s, FaultOp::Search)).collect();
        assert_eq!(
            counts,
            [2, 3, 2, 2],
            "one count per attempt, as inject counts"
        );
    }
}
