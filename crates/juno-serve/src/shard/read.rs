//! The read side of the fleet: pinned readers, plan-once scatter-gather, and
//! the deadline-aware degraded path (see the [`shard`](super) module docs).

use super::workers::ScanWorkers;
use super::ShardState;
use crate::fault::{FaultOp, FaultPlan};
use crate::health::{BreakerState, HealthTracker, RetryPolicy};
use juno_common::error::{Error, Result};
use juno_common::index::{AnnIndex, BatchPlan, PlanUse, SearchResult, SearchStats};
use juno_common::parallel;
use juno_common::topk::{merge_neighbors, ScoreOrder};
use juno_common::vector::VectorSet;
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
/// shares one scatter: each shard scans the full batch on its worker, so the
/// per-shard statuses and coverage apply to every query in the batch.
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

/// One shard's scan on the degraded path: fault injection, panic isolation,
/// and bounded retry for transient errors — everything that runs *on the
/// worker thread*, so a stall or panic here never touches the caller.
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
) -> Result<ShardBatch> {
    let mut attempt = 0u32;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<ShardBatch> {
            if let Some(faults) = fault {
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

    /// Gathers per-shard results for one query into the global top-k. Each
    /// entry carries its true shard index so a degraded gather (a subset of
    /// shards) still translates mapped ids correctly; the merge itself is
    /// order-independent (deterministic tie by id), so merging a subset is
    /// bit-identical to a fleet that only contained those shards.
    /// `shared_front` is the front-half work of the query's shared plan,
    /// when some shard scanned from it: those shards reported none of their
    /// own, so it is merged once on their behalf.
    fn gather_indexed(
        &self,
        per_shard: Vec<(usize, SearchResult)>,
        shared_front: Option<&SearchStats>,
        k: usize,
        order: ScoreOrder,
    ) -> SearchResult {
        let mut stats = SearchStats::default();
        let mut simulated_us = 0.0f64;
        let mut lists = Vec::with_capacity(per_shard.len());
        for (s, mut result) in per_shard {
            self.globalise(s, &mut result, order);
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

    /// Gathers a scattered batch — `shard_batches[s]` is shard `s`'s answer,
    /// `None` for a shard that did not contribute — into per-query results,
    /// plus how many contributing shards shared the plan and how many
    /// re-planned.
    fn gather_batch(
        &self,
        mut shard_batches: Vec<Option<ShardBatch>>,
        plan: Option<&BatchPlan>,
        num_queries: usize,
        k: usize,
    ) -> (Vec<SearchResult>, usize, usize) {
        let order = self.states[0].index.merge_order();
        let (mut shared, mut replanned) = (0usize, 0usize);
        for (_, used) in shard_batches.iter().flatten() {
            match used {
                PlanUse::Shared => shared += 1,
                PlanUse::Replanned => replanned += 1,
            }
        }
        let plan = plan.filter(|_| shared > 0);
        let results = (0..num_queries)
            .map(|qi| {
                let per_shard = shard_batches
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(s, slot)| {
                        slot.as_mut()
                            .map(|(batch, _)| (s, std::mem::take(&mut batch[qi])))
                    })
                    .collect();
                self.gather_indexed(per_shard, plan.map(|p| p.front_stats(qi)), k, order)
            })
            .collect();
        (results, shared, replanned)
    }

    /// The exact scatter-gather behind [`FleetReader::search`] and
    /// [`FleetReader::search_batch_threads`]: plan the batch once, scan
    /// every shard from that plan on up to `outer` workers (each scan with
    /// an `inner` thread budget), gather. Any shard error fails the batch.
    fn scatter(
        &self,
        queries: &VectorSet,
        k: usize,
        outer: usize,
        inner: usize,
    ) -> Result<Vec<SearchResult>> {
        let plan = plan_once(&self.states[0], queries, outer * inner);
        let shard_batches = parallel::map(self.states.len(), outer, |s| {
            scan_shard(&self.states[s], queries, k, inner, plan.as_ref())
        })?
        .into_iter()
        .map(|batch| batch.map(Some))
        .collect::<Result<Vec<_>>>()?;
        Ok(self
            .gather_batch(shard_batches, plan.as_ref(), queries.len(), k)
            .0)
    }

    /// Scatter-gather search of one query: the query's front half is
    /// planned once ([`AnnIndex::plan_batch`]), the shard scans fan out
    /// across the work-stealing pool (one task per shard, up to the default
    /// thread budget) and the per-shard top-k lists merge deterministically
    /// (tie by id) into the global top-k. Results are identical to a
    /// sequential shard loop of [`AnnIndex::search`] — neither the shared
    /// plan nor the scheduling changes anything but latency.
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

    /// Scatter-gather batch search with an explicit worker-thread budget:
    /// the batch is planned once with the whole budget, then the budget is
    /// split across the shards — up to `S` outer workers scan shards
    /// concurrently, each fanning its shard's batch through the engine's
    /// own batched path with the remaining budget. For JUNO shards that
    /// path is the **cluster-major grouped executor** entered at its second
    /// step: each shard takes the shared plans, routes them into a
    /// cluster→query-group schedule over its own lists and streams every
    /// probed cluster's code blocks once per query group (a shard whose
    /// plan stamp differs from the planner's plans locally first, as every
    /// IVFPQ shard does). Per-query results then merge across shards under
    /// the usual deterministic order. `num_threads = 1` recovers the
    /// sequential shard-by-shard loop; results are identical — ids and
    /// distance bits — for every budget and execution strategy.
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

        // One copy of the batch, shared by every shard's job.
        let queries = Arc::new(queries.clone());
        let (tx, rx) = mpsc::channel::<(usize, Result<ShardBatch>)>();
        let mut statuses: Vec<ShardStatus> = Vec::with_capacity(total);
        let mut outstanding = 0usize;
        for (s, admit) in admitted.iter().enumerate() {
            if admit.is_none() {
                statuses.push(ShardStatus::SkippedOpen);
                continue;
            }
            // Provisional: overwritten when (if) the worker reports in.
            statuses.push(ShardStatus::TimedOut);
            outstanding += 1;
            let state = self.states[s].clone();
            let queries = Arc::clone(&queries);
            let plan = plan.clone();
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
                );
                (s, out)
            });
        }
        drop(tx);
        let admit_gen = |s: usize| admitted[s].expect("only admitted shards report");

        let mut shard_batches: Vec<Option<ShardBatch>> = (0..total).map(|_| None).collect();
        while outstanding > 0 {
            let wait = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(wait) {
                Ok((s, Ok(batch))) => {
                    self.health.breaker(s).record_success(admit_gen(s));
                    shard_batches[s] = Some(batch);
                    statuses[s] = ShardStatus::Ok;
                    outstanding -= 1;
                }
                Ok((s, Err(err))) => {
                    self.health.breaker(s).record_failure(admit_gen(s));
                    statuses[s] = ShardStatus::Failed(err);
                    outstanding -= 1;
                }
                // Deadline reached (or, with nothing submitted, channel closed):
                // whatever has not answered stays `TimedOut`.
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        // Stragglers (still provisional after the deadline) count against
        // their breakers just like explicit failures.
        for (s, status) in statuses.iter().enumerate() {
            if matches!(status, ShardStatus::TimedOut) {
                self.health.breaker(s).record_failure(admit_gen(s));
            }
        }

        let ok = statuses.iter().filter(|s| s.is_ok()).count();
        let coverage = ok as f64 / total.max(1) as f64;
        let (results, plan_shared_shards, plan_replanned_shards) =
            self.gather_batch(shard_batches, plan.as_ref(), queries.len(), k);
        Ok(DegradedBatch {
            results,
            shards: statuses,
            coverage,
            plan_shared_shards,
            plan_replanned_shards,
        })
    }
}
