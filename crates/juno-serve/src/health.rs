//! Shard health tracking: per-shard circuit breakers and bounded retry.
//!
//! The degraded read path ([`crate::FleetReader::search_deadline`]) treats a
//! slow or failing shard as *absent*, not fatal — but re-discovering the same
//! dead shard on every query would spend the whole deadline budget timing it
//! out again. A [`CircuitBreaker`] per shard remembers recent outcomes:
//!
//! ```text
//!            consecutive failures ≥ threshold
//!   Closed ──────────────────────────────────▶ Open
//!     ▲                                         │ backoff elapses
//!     │ probe succeeds                          ▼
//!     └───────────────────────────────────── HalfOpen
//!                 probe fails: reopen with a longer (jittered) backoff
//! ```
//!
//! * **Closed** — requests flow; consecutive failures are counted and any
//!   success resets the count.
//! * **Open** — requests are skipped outright (status `SkippedOpen`) until
//!   the backoff deadline passes. The backoff is *decorrelated jitter*
//!   (`sleep = uniform(base, prev_sleep * 3)`, capped), which spreads probe
//!   storms across shards while still backing off exponentially in
//!   expectation; the jitter RNG is seeded per shard so runs replay.
//! * **HalfOpen** — exactly one probe request is let through; success closes
//!   the breaker, failure re-opens it with the next backoff. A probe that
//!   never reports (the deadline path abandons stalled workers) would leave
//!   the breaker half-open forever, so each probe also carries a *probe
//!   deadline* ([`BreakerConfig::probe_timeout`]): once it passes, the
//!   breaker assumes the probe was lost and admits a fresh one.
//!
//! Because the degraded read path abandons stragglers rather than joining
//! them, an outcome can arrive long after the request was admitted — even
//! after the breaker has since tripped. Every admission is therefore stamped
//! with the breaker's current *generation* ([`CircuitBreaker::admit`]); the
//! generation bumps on every state flip, and outcomes reported with an older
//! generation are ignored. A success from before the trip can no longer
//! close a breaker guarding a currently-failing shard, and a failure from an
//! abandoned probe can no longer re-open a breaker that a newer probe has
//! legitimately closed.
//!
//! Transient errors (`Error::is_retryable`) additionally get a bounded
//! in-request retry loop ([`RetryPolicy`]) before they count as a failure —
//! a shard that hiccups once should not surface in `DegradedResult` at all.

use juno_common::metrics::Counter;
use juno_common::rng::{derive_seed, seeded, Rng, StdRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Tuning for a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures (while closed) that trip the breaker open.
    pub failure_threshold: u32,
    /// Smallest open-state backoff (and the floor of every jitter draw).
    pub base_backoff: Duration,
    /// Largest open-state backoff the jitter can reach.
    pub max_backoff: Duration,
    /// How long a half-open probe may stay unreported before the breaker
    /// assumes it was abandoned (e.g. its worker is stalled past the request
    /// deadline) and admits a replacement probe. Without this, a single lost
    /// probe would pin the shard `SkippedOpen` forever.
    pub probe_timeout: Duration,
    /// Seed for the decorrelated-jitter RNG (derived per shard), so chaos
    /// tests replay bit-identically.
    pub seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            probe_timeout: Duration::from_secs(1),
            seed: 0x6A75_6E6F_6272_6B72, // "junobrkr"
        }
    }
}

/// Observable state of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are skipped until the backoff deadline.
    Open,
    /// Probing: one request is in flight to test recovery.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    /// When the open state expires (meaningful while `Open`).
    open_until: Instant,
    /// When the in-flight probe is considered lost (meaningful while
    /// `HalfOpen`); past it, [`CircuitBreaker::admit`] issues a new probe.
    probe_deadline: Instant,
    /// The most recent backoff, feeding the next decorrelated-jitter draw.
    backoff: Duration,
    /// Bumps on every state flip and probe re-issue; outcomes reported with
    /// an older generation are stale and ignored.
    generation: u64,
    rng: StdRng,
}

/// A per-shard circuit breaker. See the module docs for the state
/// machine. All methods take `&self`; the breaker is internally locked and
/// shared freely between readers.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
    /// Counts every state flip (Closed→Open, Open→HalfOpen,
    /// HalfOpen→Closed/Open); shared by all of a fleet's breakers, past and
    /// present, so the count survives retuning and resizing.
    transitions: Arc<Counter>,
}

impl CircuitBreaker {
    /// A closed breaker for shard `shard` (the shard id only seeds the
    /// jitter RNG stream) that counts its state flips into `transitions`.
    pub fn new(config: BreakerConfig, shard: usize, transitions: Arc<Counter>) -> Self {
        Self {
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                open_until: Instant::now(),
                probe_deadline: Instant::now(),
                backoff: config.base_backoff,
                generation: 0,
                rng: seeded(derive_seed(config.seed, shard as u64)),
            }),
            config,
            transitions,
        }
    }

    /// Whether a request may proceed right now, and under which generation.
    ///
    /// `Some(generation)` admits the request: the caller must pass the
    /// generation back to [`CircuitBreaker::record_success`] /
    /// [`CircuitBreaker::record_failure`] so late outcomes can be aged out.
    /// `None` means the shard should be reported `SkippedOpen` without being
    /// touched. An expired open state transitions to half-open and admits
    /// exactly one probe; a half-open probe unreported past
    /// [`BreakerConfig::probe_timeout`] is presumed lost and replaced (its
    /// eventual outcome, carrying the older generation, is ignored).
    pub(crate) fn admit(&self) -> Option<u64> {
        let now = Instant::now();
        let mut inner = self.inner.lock().expect("breaker lock");
        match inner.state {
            BreakerState::Closed => Some(inner.generation),
            BreakerState::Open => {
                if now >= inner.open_until {
                    inner.state = BreakerState::HalfOpen;
                    inner.generation += 1;
                    self.transitions.inc();
                    inner.probe_deadline = now + self.config.probe_timeout;
                    Some(inner.generation)
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                if now >= inner.probe_deadline {
                    // The in-flight probe was abandoned (stalled worker,
                    // dropped channel): issue a replacement under a fresh
                    // generation so the lost probe's late outcome is stale.
                    inner.generation += 1;
                    inner.probe_deadline = now + self.config.probe_timeout;
                    Some(inner.generation)
                } else {
                    None // a live probe is already in flight
                }
            }
        }
    }

    /// Records a successful request admitted under `generation`: closes the
    /// breaker and resets the failure count and backoff. Outcomes from an
    /// older generation (admitted before the last state flip) are ignored —
    /// a pre-trip straggler must not close a breaker guarding a shard that
    /// is currently failing.
    pub(crate) fn record_success(&self, generation: u64) {
        let mut inner = self.inner.lock().expect("breaker lock");
        if generation < inner.generation {
            return; // stale outcome from before the last state flip
        }
        if inner.state != BreakerState::Closed {
            inner.state = BreakerState::Closed;
            inner.generation += 1;
            self.transitions.inc();
        }
        inner.consecutive_failures = 0;
        inner.backoff = self.config.base_backoff;
    }

    /// Records a failed (or timed-out) request admitted under `generation`.
    /// While closed, trips the breaker once the consecutive-failure
    /// threshold is reached; a failed half-open probe re-opens immediately
    /// with the next jittered backoff. Stale outcomes (older generation) are
    /// ignored, mirroring [`CircuitBreaker::record_success`].
    pub(crate) fn record_failure(&self, generation: u64) {
        let mut inner = self.inner.lock().expect("breaker lock");
        if generation < inner.generation {
            return; // stale outcome from before the last state flip
        }
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let trip = match inner.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => inner.consecutive_failures >= self.config.failure_threshold,
            BreakerState::Open => false,
        };
        if trip {
            // Decorrelated jitter: sleep = uniform(base, prev * 3), capped.
            let base = self.config.base_backoff.as_secs_f64();
            let hi = (inner.backoff.as_secs_f64() * 3.0).max(base * (1.0 + 1e-9));
            let drawn = inner.rng.gen_range(base..hi);
            inner.backoff = Duration::from_secs_f64(drawn).min(self.config.max_backoff);
            inner.open_until = Instant::now() + inner.backoff;
            inner.state = BreakerState::Open;
            inner.generation += 1;
            self.transitions.inc();
        }
    }

    /// The breaker's current state (transitions lazily: an expired `Open`
    /// still reads `Open` until the next `CircuitBreaker::admit`).
    pub fn state(&self) -> BreakerState {
        self.inner.lock().expect("breaker lock").state
    }

    /// The current generation. Monotone non-decreasing; bumps on every state
    /// flip and probe re-issue.
    pub fn generation(&self) -> u64 {
        self.inner.lock().expect("breaker lock").generation
    }
}

/// Bounded retry-with-backoff for transient shard errors, applied inside a
/// single degraded-path request before the failure is reported to the
/// breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retry).
    pub max_retries: u32,
    /// Sleep before the first retry; doubles each retry.
    pub base_backoff: Duration,
    /// Cap on the per-retry sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (1-based): exponential
    /// doubling from the base, capped.
    pub(crate) fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// Per-shard health state shared between a fleet and its pinned readers.
///
/// Interior-mutable: the breaker set and policies live behind a `RwLock`
/// so `HealthTracker::reconfigure` can retune a **live** shared fleet
/// (`Arc<ShardedIndex>`) in place — pinned readers observe the new tuning
/// on their next breaker lookup without re-pinning. The shard *count* is
/// fixed for the tracker's lifetime; topology changes swap in a whole new
/// tracker so a reader pinned on the old topology never indexes a breaker
/// out of range.
#[derive(Debug)]
pub struct HealthTracker {
    inner: RwLock<HealthInner>,
    /// Every breaker's state-flip counter (`serve.breaker_transitions`).
    transitions: Arc<Counter>,
    /// A fused scan (several shards' segments in one job) missed its
    /// deadline since the last degraded batch formed a fused group.
    fused_missed: AtomicBool,
}

#[derive(Debug)]
struct HealthInner {
    breakers: Vec<Arc<CircuitBreaker>>,
    breaker_config: BreakerConfig,
    retry: RetryPolicy,
}

impl HealthInner {
    fn fresh(
        num_shards: usize,
        breaker: BreakerConfig,
        retry: RetryPolicy,
        transitions: &Arc<Counter>,
    ) -> Self {
        Self {
            breakers: (0..num_shards)
                .map(|s| Arc::new(CircuitBreaker::new(breaker, s, transitions.clone())))
                .collect(),
            breaker_config: breaker,
            retry,
        }
    }
}

impl HealthTracker {
    /// Fresh (all-closed) health state for `num_shards` shards whose
    /// breakers count their state flips into `transitions`.
    pub fn new(
        num_shards: usize,
        breaker: BreakerConfig,
        retry: RetryPolicy,
        transitions: Arc<Counter>,
    ) -> Self {
        Self {
            inner: RwLock::new(HealthInner::fresh(num_shards, breaker, retry, &transitions)),
            transitions,
            fused_missed: AtomicBool::new(false),
        }
    }

    /// Fresh (all-closed) health state for `num_shards` shards with this
    /// tracker's tuning, counting into the same transition counter.
    pub(crate) fn resized(&self, num_shards: usize) -> Self {
        Self::new(
            num_shards,
            self.breaker_config(),
            self.retry(),
            self.transitions.clone(),
        )
    }

    /// The breaker guarding shard `shard`. The `Arc` pins the breaker
    /// across a request even if a concurrent `HealthTracker::reconfigure`
    /// swaps the set mid-flight — generation stamping makes a stale
    /// record_success/record_failure on the old breaker harmless.
    pub fn breaker(&self, shard: usize) -> Arc<CircuitBreaker> {
        self.inner.read().expect("health lock poisoned").breakers[shard].clone()
    }

    /// Notes that a fused scan missed its deadline. It cannot say whose
    /// segment held it up, so it charges no breaker; instead the next
    /// degraded batch ([`HealthTracker::take_fused_missed`]) scans each
    /// shard on its own, where a shard that really stalls is timed out —
    /// and charged — alone.
    pub(crate) fn record_fused_missed(&self) {
        self.fused_missed.store(true, Ordering::Relaxed);
    }

    /// Whether a fused scan missed its deadline since the last call;
    /// clears the note.
    pub(crate) fn take_fused_missed(&self) -> bool {
        self.fused_missed.swap(false, Ordering::Relaxed)
    }

    /// Number of shards tracked.
    pub fn num_shards(&self) -> usize {
        self.inner
            .read()
            .expect("health lock poisoned")
            .breakers
            .len()
    }

    /// The in-request retry policy for transient errors.
    pub fn retry(&self) -> RetryPolicy {
        self.inner.read().expect("health lock poisoned").retry
    }

    /// The breaker configuration every tracked breaker was built with.
    pub(crate) fn breaker_config(&self) -> BreakerConfig {
        self.inner
            .read()
            .expect("health lock poisoned")
            .breaker_config
    }

    /// Replaces the tuning **in place** on a shared tracker: every breaker
    /// is rebuilt fresh (all-closed, failure counts zeroed; the transition
    /// count carries on) with the new config and the retry policy is
    /// swapped. Works through `&self`, so a live `Arc<ShardedIndex>` (and
    /// every pinned reader sharing this tracker) picks up the new tuning
    /// without re-pinning or a topology swap.
    pub(crate) fn reconfigure(&self, breaker: BreakerConfig, retry: RetryPolicy) {
        let mut inner = self.inner.write().expect("health lock poisoned");
        let num_shards = inner.breakers.len();
        *inner = HealthInner::fresh(num_shards, breaker, retry, &self.transitions);
    }

    /// Snapshot of every shard's breaker state, indexed by shard.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.inner
            .read()
            .expect("health lock poisoned")
            .breakers
            .iter()
            .map(|b| b.state())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The breaker's current open-state backoff (its most recent jitter draw).
    fn current_backoff(b: &CircuitBreaker) -> Duration {
        b.inner.lock().unwrap().backoff
    }

    fn fast_config() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            probe_timeout: Duration::from_secs(60),
            seed: 7,
        }
    }

    /// Drives `n` current-generation failures through the breaker.
    fn fail_n(b: &CircuitBreaker, n: usize) {
        for _ in 0..n {
            b.record_failure(b.generation());
        }
    }

    #[test]
    fn breaker_opens_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(fast_config(), 0, Arc::default());
        assert_eq!(b.state(), BreakerState::Closed);
        fail_n(&b, 2);
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        assert!(b.admit().is_some());
        fail_n(&b, 1);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.admit().is_none(), "open breaker skips requests");
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let b = CircuitBreaker::new(fast_config(), 0, Arc::default());
        for _ in 0..10 {
            fail_n(&b, 2);
            b.record_success(b.generation()); // never three in a row
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_closes_on_success_and_reopens_on_failure() {
        let b = CircuitBreaker::new(fast_config(), 0, Arc::default());
        fail_n(&b, 3);
        assert_eq!(b.state(), BreakerState::Open);
        // Wait out the (jittered, ≤ 50ms) backoff.
        std::thread::sleep(current_backoff(&b) + Duration::from_millis(1));
        let probe = b.admit().expect("expired open state admits a probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.admit().is_none(), "only one probe at a time");
        // Probe fails → straight back to open.
        b.record_failure(probe);
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(current_backoff(&b) + Duration::from_millis(1));
        let probe = b.admit().expect("second probe");
        b.record_success(probe);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit().is_some());
    }

    #[test]
    fn backoff_is_jittered_within_bounds_and_replayable() {
        let trip = |seed: u64| -> Vec<Duration> {
            let b = CircuitBreaker::new(
                BreakerConfig {
                    seed,
                    ..fast_config()
                },
                3,
                Arc::default(),
            );
            let mut out = Vec::new();
            for _ in 0..6 {
                fail_n(&b, 3);
                out.push(current_backoff(&b));
                // Re-arm without waiting: success closes the breaker.
                b.record_success(b.generation());
            }
            out
        };
        let cfg = fast_config();
        let a = trip(7);
        assert_eq!(a, trip(7), "same seed, same jitter sequence");
        for d in &a {
            assert!(*d >= cfg.base_backoff, "below base: {d:?}");
            assert!(*d <= cfg.max_backoff, "above cap: {d:?}");
        }
    }

    /// Regression (liveness bug): a probe whose worker is abandoned never
    /// reports, and the old breaker stayed `HalfOpen` — rejecting every
    /// request — forever. With a probe deadline, a replacement probe is
    /// admitted once `probe_timeout` passes, and the shard can recover.
    #[test]
    fn abandoned_probe_is_replaced_after_the_probe_deadline() {
        let b = CircuitBreaker::new(
            BreakerConfig {
                probe_timeout: Duration::from_millis(20),
                ..fast_config()
            },
            0,
            Arc::default(),
        );
        fail_n(&b, 3);
        std::thread::sleep(current_backoff(&b) + Duration::from_millis(1));
        let lost_probe = b.admit().expect("probe admitted");
        // The probe worker stalls forever and never reports. Before the fix,
        // every subsequent admit() returned false with no escape.
        assert!(b.admit().is_none(), "probe still considered live");
        std::thread::sleep(Duration::from_millis(21));
        let replacement = b.admit().expect("replacement probe after deadline");
        assert!(
            replacement > lost_probe,
            "replacement gets a new generation"
        );
        b.record_success(replacement);
        assert_eq!(b.state(), BreakerState::Closed, "shard recovered");
        // The lost probe's outcome finally straggles in: stale, ignored.
        b.record_failure(lost_probe);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.inner.lock().unwrap().consecutive_failures, 0);
    }

    /// Regression (reordering bug): a success from a request admitted
    /// *before* the trip used to unconditionally close the breaker, masking
    /// a shard that is failing right now. Generation stamps age it out.
    #[test]
    fn late_success_from_before_the_trip_does_not_close_the_breaker() {
        let b = CircuitBreaker::new(fast_config(), 0, Arc::default());
        // A slow request is admitted while the breaker is closed...
        let stale = b.admit().expect("closed breaker admits");
        // ...then the shard starts failing and the breaker trips.
        fail_n(&b, 3);
        assert_eq!(b.state(), BreakerState::Open);
        // The slow request finally succeeds. Before the fix this closed the
        // breaker and the next query hit the failing shard head-on.
        b.record_success(stale);
        assert_eq!(b.state(), BreakerState::Open, "stale success ignored");
        // Current-generation outcomes still work: recovery path intact.
        std::thread::sleep(current_backoff(&b) + Duration::from_millis(1));
        let probe = b.admit().expect("probe");
        b.record_success(probe);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    /// Property test: drive the state machine through seeded random
    /// operation interleavings (admissions, success/failure reports — both
    /// fresh and deliberately stale, probe abandonment, waits) and check the
    /// invariants after every step:
    /// * at most one live probe — while `HalfOpen` and before the probe
    ///   deadline, nothing is admitted;
    /// * `Open` never admits before `open_until` (checked with a timing
    ///   margin: a trip at `t` with backoff `d` admits nothing before
    ///   `t + d`);
    /// * the generation is monotone non-decreasing, and stale outcomes never
    ///   change the state.
    #[test]
    fn property_randomized_interleavings_preserve_breaker_invariants() {
        use juno_common::rng::{seeded, Rng};
        for seed in 0..8u64 {
            let mut rng = seeded(0xB0B0 + seed);
            let cfg = BreakerConfig {
                failure_threshold: 2,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(8),
                probe_timeout: Duration::from_millis(6),
                seed,
            };
            let b = CircuitBreaker::new(cfg, seed as usize, Arc::default());
            // Outcomes admitted but not yet reported: (generation, stamp).
            let mut in_flight: Vec<u64> = Vec::new();
            let mut last_generation = 0u64;
            let mut tripped_at: Option<(Instant, Duration)> = None;
            for step in 0..400 {
                let op = rng.gen_range(0..100u32);
                let pre_state = b.state();
                if op < 40 {
                    let now = Instant::now();
                    if let Some(generation) = b.admit() {
                        if let (BreakerState::Open, Some((at, backoff))) = (pre_state, tripped_at) {
                            assert!(
                                now >= at + backoff,
                                "seed {seed} step {step}: Open admitted a request early"
                            );
                        }
                        if pre_state == BreakerState::HalfOpen {
                            // This admission replaced an expired probe: it
                            // must carry a strictly newer generation than
                            // every earlier admission, so the lost probe's
                            // outcome can never override it.
                            for &older in &in_flight {
                                assert!(
                                    generation > older,
                                    "seed {seed} step {step}: two live probes"
                                );
                            }
                        }
                        in_flight.push(generation);
                    }
                } else if op < 60 {
                    // Report a success for a random in-flight admission
                    // (possibly stale).
                    if !in_flight.is_empty() {
                        let pick = rng.gen_range(0..in_flight.len() as u32) as usize;
                        let generation = in_flight.swap_remove(pick);
                        let current = b.generation();
                        let state_before = b.state();
                        b.record_success(generation);
                        if generation < current {
                            assert_eq!(
                                b.state(),
                                state_before,
                                "seed {seed} step {step}: stale success changed state"
                            );
                        }
                    }
                } else if op < 85 {
                    // Report a failure for a random in-flight admission.
                    if !in_flight.is_empty() {
                        let pick = rng.gen_range(0..in_flight.len() as u32) as usize;
                        let generation = in_flight.swap_remove(pick);
                        let current = b.generation();
                        let state_before = b.state();
                        b.record_failure(generation);
                        if generation < current {
                            assert_eq!(
                                b.state(),
                                state_before,
                                "seed {seed} step {step}: stale failure changed state"
                            );
                        }
                        if state_before != BreakerState::Open && b.state() == BreakerState::Open {
                            tripped_at = Some((Instant::now(), current_backoff(&b)));
                        }
                    }
                } else if op < 95 {
                    // Abandon everything in flight (the deadline path walks
                    // away from stalled workers without reporting).
                    in_flight.clear();
                } else {
                    // Let time pass so open states expire and probes age out.
                    std::thread::sleep(Duration::from_millis(rng.gen_range(1..4u32) as u64));
                }
                let generation = b.generation();
                assert!(
                    generation >= last_generation,
                    "seed {seed} step {step}: generation went backwards"
                );
                last_generation = generation;
            }
        }
    }

    /// Concurrent smoke: many threads admit and report against one breaker;
    /// the generation stays monotone under real contention, nothing
    /// deadlocks, and the breaker still recovers afterwards.
    #[test]
    fn concurrent_admit_and_report_keep_the_generation_monotone() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let b = std::sync::Arc::new(CircuitBreaker::new(
            BreakerConfig {
                failure_threshold: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
                probe_timeout: Duration::from_millis(2),
                seed: 99,
            },
            0,
            Arc::default(),
        ));
        let high_water = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let b = b.clone();
                let high_water = high_water.clone();
                scope.spawn(move || {
                    use juno_common::rng::{seeded, Rng};
                    let mut rng = seeded(t);
                    let mut last_seen = 0u64;
                    for _ in 0..300 {
                        if let Some(generation) = b.admit() {
                            if rng.gen_range(0..2u32) == 0 {
                                b.record_failure(generation);
                            } else {
                                b.record_success(generation);
                            }
                        }
                        let observed = b.generation();
                        assert!(observed >= last_seen, "generation went backwards");
                        last_seen = observed;
                        high_water.fetch_max(observed, Ordering::Relaxed);
                    }
                });
            }
        });
        // The breaker is still functional: drive it to Closed.
        for _ in 0..200 {
            if let Some(generation) = b.admit() {
                b.record_success(generation);
            }
            if b.state() == BreakerState::Closed {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.generation() >= high_water.load(Ordering::Relaxed));
    }

    #[test]
    fn retry_backoff_doubles_then_caps() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(6),
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(1));
        assert_eq!(p.backoff_for(2), Duration::from_millis(2));
        assert_eq!(p.backoff_for(3), Duration::from_millis(4));
        assert_eq!(p.backoff_for(4), Duration::from_millis(6), "capped");
        assert_eq!(p.backoff_for(40), Duration::from_millis(6), "shift clamped");
    }

    #[test]
    fn tracker_exposes_per_shard_breakers() {
        let transitions = Arc::new(Counter::default());
        let t = HealthTracker::new(
            3,
            fast_config(),
            RetryPolicy::default(),
            transitions.clone(),
        );
        assert_eq!(t.num_shards(), 3);
        for _ in 0..3 {
            let b = t.breaker(1);
            b.record_failure(b.generation());
        }
        assert_eq!(
            t.breaker_states(),
            vec![
                BreakerState::Closed,
                BreakerState::Open,
                BreakerState::Closed
            ]
        );
        assert_eq!(t.retry().max_retries, RetryPolicy::default().max_retries);
        assert_eq!(transitions.get(), 1);
        // Retuned and resized breakers start closed and keep counting.
        t.reconfigure(fast_config(), RetryPolicy::default());
        let resized = t.resized(2);
        assert_eq!(resized.breaker_states(), vec![BreakerState::Closed; 2]);
        let b = resized.breaker(0);
        fail_n(&b, 3);
        assert_eq!(transitions.get(), 2);
    }
}
