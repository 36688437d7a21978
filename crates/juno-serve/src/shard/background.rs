//! The fleet's background threads: the periodic compactor and the
//! drift-watching rebuilder — one loop ([`Periodic`]), two ticks.

use super::ShardedIndex;
use juno_common::error::Result;
use juno_common::index::{AnnIndex, DriftReport};
use juno_common::metrics::{Registry, RegistrySnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A thread that runs `tick` every `interval` until dropped. A failing tick
/// is counted, logged and retried under a capped exponential backoff (up to
/// 32× the interval); `Drop` wakes the thread through the condvar and joins
/// it, so shutdown never waits out the interval.
#[derive(Debug)]
struct Periodic {
    stop: Arc<(Mutex<bool>, Condvar)>,
    errors: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Periodic {
    /// Spawns the thread; `what` names the job in the failure log. The
    /// interval is clamped to at least 100µs so a zero interval cannot
    /// busy-spin on the fleet writer lock.
    fn spawn(
        what: &'static str,
        interval: Duration,
        mut tick: impl FnMut() -> Result<()> + Send + 'static,
    ) -> Self {
        let interval = interval.max(Duration::from_micros(100));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let errors = Arc::new(AtomicU64::new(0));
        let (stop_pair, error_counter) = (stop.clone(), errors.clone());
        let handle = std::thread::spawn(move || {
            let (stop_flag, stop_signal) = &*stop_pair;
            let mut consecutive_failures: u32 = 0;
            loop {
                let factor = 1u32 << consecutive_failures.min(5);
                // Deadline-based, so a spurious wakeup neither skips the
                // stop check nor stretches the cadence.
                let deadline = Instant::now() + interval.saturating_mul(factor);
                let mut stopped = stop_flag.lock().expect("periodic stop lock");
                loop {
                    if *stopped {
                        return;
                    }
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        break;
                    }
                    let (guard, _timeout) = stop_signal
                        .wait_timeout(stopped, remaining)
                        .expect("periodic stop lock");
                    stopped = guard;
                }
                drop(stopped);
                match tick() {
                    Ok(()) => consecutive_failures = 0,
                    Err(err) => {
                        consecutive_failures = consecutive_failures.saturating_add(1);
                        error_counter.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "[juno-serve] background {what} failed \
                             ({consecutive_failures} consecutive), backing off: {err}"
                        );
                    }
                }
            }
        });
        Self {
            stop,
            errors,
            handle: Some(handle),
        }
    }

    /// Ticks that failed so far.
    fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

impl Drop for Periodic {
    fn drop(&mut self) {
        let (stop_flag, stop_signal) = &*self.stop;
        // The flag is a plain bool: a poisoned lock still holds a valid one.
        *stop_flag.lock().unwrap_or_else(PoisonError::into_inner) = true;
        stop_signal.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A background thread that periodically compacts every shard of a fleet
/// (stage-and-publish, so readers are never blocked). The thread stops and
/// joins when the guard is dropped.
///
/// Compaction failures do not kill the thread: each failure is counted
/// ([`BackgroundCompactor::errors`]), logged to stderr, and retried on the
/// next tick with a capped exponential backoff (up to 32× the interval), so
/// a persistently failing shard cannot turn the compactor into a hot loop —
/// and a shard that recovers is swept again at the normal cadence.
///
/// Shutdown is condvar-driven: dropping the guard notifies the sleeping
/// thread directly, so shutdown latency is one lock handoff (plus at most
/// one in-flight sweep), independent of the configured interval — a 10 s
/// cadence does not cost 10 s (or even 1 ms of slicing) to tear down.
#[derive(Debug)]
pub struct BackgroundCompactor {
    periodic: Periodic,
    runs: Arc<AtomicU64>,
}

impl BackgroundCompactor {
    /// Spawns the compaction thread, waking every `interval` (clamped to at
    /// least 100µs so a zero interval cannot busy-spin on the writer lock).
    pub fn spawn<I>(fleet: Arc<ShardedIndex<I>>, interval: Duration) -> Self
    where
        I: AnnIndex + Clone + 'static,
    {
        let runs = Arc::new(AtomicU64::new(0));
        let run_counter = runs.clone();
        let periodic = Periodic::spawn("compaction", interval, move || {
            fleet.compact_all_shared()?;
            run_counter.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        Self { periodic, runs }
    }

    /// Number of completed compaction sweeps so far.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Number of failed compaction sweeps so far (the thread survives them).
    pub fn errors(&self) -> u64 {
        self.periodic.errors()
    }
}

/// When a [`Rebuilder`] pulls the trigger on a background re-train.
///
/// A rebuild fires when the fleet has absorbed at least `min_inserts`
/// post-build inserts **and** either drift signal trips: the EWMA residual
/// ratio (inserts landing far from the trained centroids) or the structural
/// tail-fill ratio (clusters dominated by append-tail rows the trained
/// layout never saw). Both signals come from
/// [`ShardedIndex::drift_report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildPolicy {
    /// Trigger when `drift_ratio` (EWMA insert residual energy over the
    /// training baseline) reaches this. Default 2.0 — inserts land twice as
    /// far from their centroids as the training distribution did.
    pub drift_ratio_threshold: f64,
    /// Trigger when any cluster's tail-fill fraction reaches this.
    /// Default 0.5 — half the cluster's rows postdate the trained layout.
    pub tail_fill_threshold: f64,
    /// Suppress rebuilds until this many inserts were tracked since the
    /// last (re)build, so a handful of outliers cannot churn the fleet.
    /// Default 512.
    pub min_inserts: u64,
    /// How often the drift report is polled. Default 5 s.
    pub interval: Duration,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        Self {
            drift_ratio_threshold: 2.0,
            tail_fill_threshold: 0.5,
            min_inserts: 512,
            interval: Duration::from_secs(5),
        }
    }
}

impl RebuildPolicy {
    /// Whether `report` trips this policy.
    pub fn should_rebuild(&self, report: &DriftReport) -> bool {
        report.inserts_tracked >= self.min_inserts
            && (report.drift_ratio >= self.drift_ratio_threshold
                || report.max_tail_fill >= self.tail_fill_threshold)
    }
}

/// A background thread that watches the fleet's drift report and runs
/// [`ShardedIndex::rebuild_shared`] when a [`RebuildPolicy`] trips —
/// closing the self-healing loop: distribution shift degrades recall, the
/// drift signal crosses the policy threshold, and a fresh lineage trained
/// on the *current* distribution swaps in under live traffic.
///
/// Failures do not kill the thread: each one is counted, logged to stderr,
/// and retried with a capped exponential backoff (up to 32× the poll
/// interval), exactly like [`BackgroundCompactor`]. Shutdown is
/// condvar-driven via `Drop` — one lock handoff plus at most one in-flight
/// rebuild.
#[derive(Debug)]
pub struct Rebuilder {
    periodic: Periodic,
    checks: Arc<AtomicU64>,
    rebuilds: Arc<AtomicU64>,
    registry: Arc<Registry>,
}

impl Rebuilder {
    /// Spawns the watcher thread, polling every `policy.interval` (clamped
    /// to at least 100µs).
    pub fn spawn<I>(fleet: Arc<ShardedIndex<I>>, policy: RebuildPolicy) -> Self
    where
        I: AnnIndex + Clone + 'static,
    {
        let checks = Arc::new(AtomicU64::new(0));
        let rebuilds = Arc::new(AtomicU64::new(0));
        let registry = Arc::new(Registry::new());
        let (check_counter, rebuild_counter, metrics) =
            (checks.clone(), rebuilds.clone(), registry.clone());
        let periodic = Periodic::spawn("rebuild", policy.interval, move || {
            check_counter.fetch_add(1, Ordering::Relaxed);
            // An engine without drift tracking has nothing to watch, but the
            // thread stays alive in case a restore changes that.
            let Some(report) = fleet.drift_report() else {
                return Ok(());
            };
            // Gauges hold integers; export the ratios in milli-units.
            metrics
                .gauge("lifecycle.drift_ratio_milli")
                .set((report.drift_ratio * 1000.0) as i64);
            metrics
                .gauge("lifecycle.max_tail_fill_milli")
                .set((report.max_tail_fill * 1000.0) as i64);
            metrics
                .gauge("lifecycle.inserts_tracked")
                .set(report.inserts_tracked.min(i64::MAX as u64) as i64);
            if !policy.should_rebuild(&report) {
                return Ok(());
            }
            let outcome = fleet
                .rebuild_shared()
                .inspect_err(|_| metrics.counter("lifecycle.rebuild_errors").inc())?;
            rebuild_counter.fetch_add(1, Ordering::Relaxed);
            metrics.counter("lifecycle.rebuilds").inc();
            metrics
                .counter("lifecycle.replayed_ops")
                .add(outcome.replayed_ops);
            metrics
                .counter("lifecycle.trained_points")
                .add(outcome.trained_points as u64);
            Ok(())
        });
        Self {
            periodic,
            checks,
            rebuilds,
            registry,
        }
    }

    /// Number of drift checks performed so far.
    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    /// Number of completed background rebuilds so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Number of failed rebuild attempts so far (the thread survives them).
    pub fn errors(&self) -> u64 {
        self.periodic.errors()
    }

    /// Point-in-time snapshot of the `lifecycle.*` metrics (drift gauges,
    /// rebuild/replay counters).
    pub fn metrics(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }
}
