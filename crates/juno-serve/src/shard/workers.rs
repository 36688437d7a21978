//! The fleet's scan workers: the threads the degraded read path
//! ([`FleetReader::search_batch_deadline`](super::FleetReader::search_batch_deadline))
//! runs its per-shard scans on.
//!
//! A scan may stall for as long as its shard does, and the caller abandons
//! it at the deadline — so a scan can never be queued behind another one.
//! [`ScanWorkers::submit`] therefore hands the scan to a *free* worker when
//! there is one and starts a new worker otherwise; it never waits for a
//! scanning worker. A worker is free from the moment its scan returns — it
//! is counted *before* it sends the result, so the caller that result wakes
//! already finds it — and then parks on the pool's condvar, unless one
//! worker per shard of the fleet is free already, in which case it exits: a
//! healthy fleet serving one batch at a time runs on exactly `S` threads for
//! its whole life, while a burst (overlapping batches, workers held by a
//! stalled shard) grows past that and shrinks back afterwards.
//!
//! The fleet owns the pool behind an `Arc` and every pinned reader clones
//! it. Dropping the last clone closes the pool: parked workers exit, and a
//! straggler still scanning finishes into its (disconnected) reply channel
//! and exits too. Workers are detached on purpose — nothing may wait for a
//! stalled shard, shutdown included.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A scan plus the send of its result; see [`ScanWorkers::submit`].
type Job = Box<dyn FnOnce(&Shared) + Send + 'static>;

struct State {
    /// Jobs handed to free workers that have not picked them up yet; never
    /// longer than `free`.
    jobs: VecDeque<Job>,
    /// Workers not scanning: waiting on `wake`, or past their scan and on
    /// their way there (the send of a result cannot block).
    free: usize,
    /// One per shard of the fleet.
    max_free: usize,
    closed: bool,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    /// Statistics only: neither publishes other data.
    started: AtomicU64,
    live: Arc<AtomicUsize>,
}

/// Point-in-time counts of a fleet's scan workers
/// ([`ShardedIndex::scan_worker_stats`](super::ShardedIndex::scan_worker_stats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanWorkerStats {
    /// Worker threads started since the fleet was built. On a healthy fleet
    /// behind one dispatcher this stays at the shard count; growth means
    /// scans overlap (several dispatchers or callers) or workers are held
    /// by a stalled shard.
    pub started: u64,
    /// Workers free right now: parked, waiting for a scan (at most one per
    /// shard).
    pub parked: usize,
    /// Worker threads alive right now: parked, scanning, or stalled.
    pub live: usize,
}

/// The pool itself; see the [module docs](self).
pub(super) struct ScanWorkers {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ScanWorkers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanWorkers")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Shared {
    /// Jobs run outside the lock, so only a bug in this file can poison it.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("scan worker pool lock poisoned")
    }

    fn start_worker(self: &Arc<Self>, first: Job) {
        /// Counts the worker out however its thread ends.
        struct Live(Arc<AtomicUsize>);
        impl Drop for Live {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.started.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_add(1, Ordering::SeqCst);
        let live = Live(self.live.clone());
        let shared = Arc::clone(self);
        std::thread::Builder::new()
            .name("juno-scan-worker".into())
            .spawn(move || {
                let _live = live;
                let mut job = first;
                loop {
                    job(&shared);
                    match shared.park() {
                        Some(next) => job = next,
                        None => return,
                    }
                }
            })
            .expect("spawn scan worker");
    }

    /// Called by a free worker: the next job, or `None` when the worker
    /// should exit (pool closed, or enough workers free without it).
    fn park(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                state.free -= 1;
                return Some(job);
            }
            if state.closed || state.free > state.max_free {
                state.free -= 1;
                return None;
            }
            state = self
                .wake
                .wait(state)
                .expect("scan worker pool lock poisoned");
        }
    }
}

impl ScanWorkers {
    /// An empty pool for a fleet of `num_shards` shards. Threads start on
    /// demand.
    pub(super) fn new(num_shards: usize) -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    jobs: VecDeque::new(),
                    free: 0,
                    max_free: num_shards,
                    closed: false,
                }),
                wake: Condvar::new(),
                started: AtomicU64::new(0),
                live: Arc::new(AtomicUsize::new(0)),
            }),
        }
    }

    /// Runs `scan` on a worker of its own, now — a free worker when there
    /// is one, a new thread otherwise — and sends what it returns down
    /// `done` (nothing, if it panics; a receiver that has gone away is
    /// fine). The send is the pool's business because the worker counts as
    /// free before it: whoever the result wakes can reuse that worker.
    pub(super) fn submit<R: Send + 'static>(
        &self,
        done: mpsc::Sender<R>,
        scan: impl FnOnce() -> R + Send + 'static,
    ) {
        let job: Job = Box::new(move |shared| {
            // The scan closures catch their own panics; one that escapes
            // anyway (already reported by the panic hook) must not cost the
            // fleet a worker.
            let out = catch_unwind(AssertUnwindSafe(scan));
            shared.lock().free += 1;
            if let Ok(out) = out {
                let _ = done.send(out);
            }
        });
        let mut state = self.shared.lock();
        if state.free > state.jobs.len() {
            state.jobs.push_back(job);
            drop(state);
            self.shared.wake.notify_one();
        } else {
            drop(state);
            self.shared.start_worker(job);
        }
    }

    /// Follows a change of the fleet's shard count; surplus parked workers
    /// exit.
    pub(super) fn set_num_shards(&self, num_shards: usize) {
        self.shared.lock().max_free = num_shards;
        self.shared.wake.notify_all();
    }

    pub(super) fn stats(&self) -> ScanWorkerStats {
        // A free worker over the cap is on its way out, not parked.
        let parked = {
            let state = self.shared.lock();
            state.free.min(state.max_free)
        };
        ScanWorkerStats {
            started: self.shared.started.load(Ordering::Relaxed),
            parked,
            live: self.shared.live.load(Ordering::SeqCst),
        }
    }

    /// The live-worker count, readable after the pool itself is gone.
    #[cfg(test)]
    pub(super) fn live_counter(&self) -> Arc<AtomicUsize> {
        self.shared.live.clone()
    }
}

impl Drop for ScanWorkers {
    fn drop(&mut self) {
        // Never panic in drop; `closed` is valid whatever poisoned the lock.
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        drop(state);
        self.shared.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::wait_for;
    use std::time::Duration;

    const SOON: Duration = Duration::from_secs(5);

    /// A scan that reports it has started and then blocks until `gate`'s
    /// sender is dropped.
    fn held(pool: &ScanWorkers, gate: &Arc<Mutex<mpsc::Receiver<()>>>, done: &mpsc::Sender<u32>) {
        let (started_tx, started_rx) = mpsc::channel();
        let gate = gate.clone();
        pool.submit(done.clone(), move || {
            started_tx.send(()).unwrap();
            let _ = gate.lock().unwrap().recv();
            7
        });
        started_rx.recv_timeout(SOON).expect("held scan started");
    }

    fn gate() -> (mpsc::Sender<()>, Arc<Mutex<mpsc::Receiver<()>>>) {
        let (tx, rx) = mpsc::channel();
        (tx, Arc::new(Mutex::new(rx)))
    }

    #[test]
    fn a_free_worker_is_reused_and_a_scanning_one_is_never_waited_for() {
        let pool = ScanWorkers::new(4);
        let (tx, rx) = mpsc::channel();
        for round in 0..3u32 {
            pool.submit(tx.clone(), move || round);
            assert_eq!(rx.recv_timeout(SOON), Ok(round));
            // Counted free before the result was sent: no race to lose.
            assert_eq!(pool.stats().parked, 1);
        }
        assert_eq!(pool.stats().started, 1, "the free worker was not reused");

        // Hold that worker inside a scan: the next one must start at once
        // on a second worker rather than queue behind it.
        let (open, gate) = gate();
        held(&pool, &gate, &tx);
        assert_eq!(pool.stats().parked, 0);
        pool.submit(tx.clone(), || 1);
        assert_eq!(rx.recv_timeout(SOON), Ok(1), "queued behind a running scan");
        assert_eq!(pool.stats().started, 2);
        drop(open);
        assert_eq!(rx.recv_timeout(SOON), Ok(7));
        assert_eq!(pool.stats().parked, 2);
        assert_eq!(pool.stats().live, 2);
    }

    #[test]
    fn at_most_one_worker_per_shard_stays_parked() {
        let pool = ScanWorkers::new(2);
        let (tx, rx) = mpsc::channel();
        // Five scans held at once need five workers.
        let (open, gate) = gate();
        for _ in 0..5 {
            held(&pool, &gate, &tx);
        }
        assert_eq!(pool.stats().started, 5);
        assert_eq!(pool.stats().live, 5);
        drop(open);
        for _ in 0..5 {
            assert_eq!(rx.recv_timeout(SOON), Ok(7));
        }
        wait_for("the surplus workers to exit", || pool.stats().live == 2);
        assert_eq!(pool.stats().parked, 2);

        // A shrinking fleet takes its parked workers down with it.
        pool.set_num_shards(1);
        wait_for("the resize to take", || pool.stats().live == 1);
        assert_eq!(pool.stats().parked, 1);
    }

    #[test]
    fn a_panicking_scan_sends_nothing_and_does_not_kill_its_worker() {
        juno_common::testing::silence_panics();
        let pool = ScanWorkers::new(4);
        let (tx, rx) = mpsc::channel::<u32>();
        pool.submit(tx.clone(), || {
            panic!("[injected-fault] scan panicked outside any catch_unwind")
        });
        wait_for("the worker to survive", || pool.stats().parked == 1);
        pool.submit(tx, || 2);
        assert_eq!(rx.recv_timeout(SOON), Ok(2), "only the second scan replies");
        assert_eq!(pool.stats().started, 1);
        assert_eq!(pool.stats().live, 1);
    }

    #[test]
    fn closing_the_pool_lets_parked_workers_exit_and_stragglers_finish() {
        let pool = ScanWorkers::new(4);
        let live = pool.live_counter();
        let (tx, rx) = mpsc::channel();
        let (open, gate) = gate();
        held(&pool, &gate, &tx);
        pool.submit(tx, || 1);
        assert_eq!(rx.recv_timeout(SOON), Ok(1));
        assert_eq!(live.load(Ordering::SeqCst), 2);

        // The caller gives up on the straggler and the fleet goes away.
        drop(rx);
        drop(pool);
        wait_for("the parked worker to exit", || {
            live.load(Ordering::SeqCst) == 1
        });
        // The straggler is still inside its scan; it finishes into the
        // disconnected channel, then exits.
        drop(open);
        wait_for("the straggler to exit", || live.load(Ordering::SeqCst) == 0);
    }
}
