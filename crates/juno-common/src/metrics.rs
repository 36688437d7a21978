//! Serving-side QoS metrics: a lock-cheap log-bucketed histogram and a
//! named counter/gauge registry.
//!
//! The online serving front-end (`juno-serve`) is judged on *tail* latency
//! — p99/p999 under bursty arrivals — so the recording path must be cheap
//! enough to sit on every request without perturbing what it measures:
//!
//! * [`LogHistogram`] — HDR-style log-bucketed histogram over `u64` values
//!   (nanoseconds, batch sizes, queue depths …). Recording is one atomic
//!   increment plus three atomic min/max/sum updates — no locks, no
//!   allocation, safe to share across every client thread. Quantiles are
//!   extracted from a [`HistogramSnapshot`]: values below 2^6 are exact and
//!   larger buckets are `1/64` (≈ 1.6 %) wide, so a reported p999 is the
//!   true p999 up to that bucket resolution (min/max/mean are exact).
//! * [`Counter`] / [`Gauge`] — plain atomic counters, handed out as `Arc`s
//!   by a [`Registry`] keyed by static names so subsystems can register
//!   metrics without threading struct fields through every layer.
//!
//! Everything snapshots into plain owned structs ([`HistogramSnapshot`],
//! [`RegistrySnapshot`]) that are `Clone + PartialEq` and safe to ship
//! across threads, diff in tests, or serialise into bench JSON.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Sub-bucket resolution: 2^6 = 64 sub-buckets per power of two, giving a
/// worst-case relative bucket width of 1/64 ≈ 1.6 %.
const SUB_BITS: u32 = 6;
/// Number of buckets needed to cover the full `u64` range at [`SUB_BITS`]
/// resolution (index of `u64::MAX` is `(63 - 6 + 1) << 6 | 63 = 3775`).
const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + (1 << SUB_BITS);

/// Maps a value to its bucket index: exact below `2^SUB_BITS`, log-bucketed
/// with `2^SUB_BITS` sub-buckets per octave above.
fn bucket_index(value: u64) -> usize {
    let v = value.max(1);
    let msb = 63 - v.leading_zeros();
    if msb < SUB_BITS {
        v as usize
    } else {
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) as usize) & ((1 << SUB_BITS) - 1);
        (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + sub
    }
}

/// The largest value mapping to bucket `index` — what quantile extraction
/// reports, so a quantile never under-states the true value.
fn bucket_upper_bound(index: usize) -> u64 {
    if index < (1 << SUB_BITS) {
        index as u64
    } else {
        let octave = (index >> SUB_BITS) as u32 - 1;
        let sub = (index & ((1 << SUB_BITS) - 1)) as u64;
        let start = (1u64 << (octave + SUB_BITS)) + (sub << octave);
        start + ((1u64 << octave) - 1)
    }
}

/// A concurrent log-bucketed histogram over `u64` values.
///
/// See the [module docs](self) for the resolution contract. All methods take
/// `&self`; share it behind an `Arc` and record from any thread.
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (lock-free: one increment + min/max/sum updates).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy (concurrent recorders may land
    /// between the bucket reads; each individual value is never torn).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned point-in-time copy of a [`LogHistogram`], with quantile
/// extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum of all recorded values.
    pub sum: u64,
    /// Exact smallest recorded value (0 when empty).
    pub min: u64,
    /// Exact largest recorded value (0 when empty).
    pub max: u64,
    buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q · count)`-th smallest recorded value (clamped to
    /// the exact observed max, so `value_at_quantile(1.0) == max`). Returns
    /// 0 when empty.
    pub(crate) fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median: the upper bound of the bucket holding the middle recorded
    /// value, clamped to the exact observed max (0 when empty).
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }
}

/// A monotone atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic signed gauge (instantaneous level, e.g. queue depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the gauge to `value`.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named metric registry: subsystems look counters/gauges/histograms up by
/// a static name and get a shared `Arc` handle; [`Registry::snapshot`]
/// renders everything into plain maps.
///
/// Lookup takes a short-lived `RwLock` (registration is rare); the returned
/// handles are lock-free, so hot paths hold their `Arc`s and never touch the
/// registry again.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<LogHistogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().expect("registry lock").get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .expect("registry lock")
            .entry(name)
            .or_default()
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().expect("registry lock").get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .expect("registry lock")
            .entry(name)
            .or_default()
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<LogHistogram> {
        if let Some(h) = self.histograms.read().expect("registry lock").get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .expect("registry lock")
            .entry(name)
            .or_insert_with(|| Arc::new(LogHistogram::new()))
            .clone()
    }

    /// Renders every registered metric into owned maps.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .read()
                .expect("registry lock")
                .iter()
                .map(|(name, c)| (name.to_string(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry lock")
                .iter()
                .map(|(name, g)| (name.to_string(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry lock")
                .iter()
                .map(|(name, h)| (name.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

/// Owned point-in-time copy of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// The counter named `name`, 0 when never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge named `name`, 0 when never registered.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_below_64_and_within_resolution_above() {
        // Exact region: every value is its own bucket.
        for v in 0..64u64 {
            assert_eq!(bucket_upper_bound(bucket_index(v)), v.max(1));
        }
        // Log region: the upper bound over-states by at most 1/64.
        for &v in &[64u64, 100, 1_000, 123_456, 10_000_000, u64::MAX / 3] {
            let ub = bucket_upper_bound(bucket_index(v));
            assert!(ub >= v, "upper bound {ub} below value {v}");
            assert!(
                (ub - v) as f64 <= v as f64 / 64.0 + 1.0,
                "bucket too wide at {v}: {ub}"
            );
        }
        // Indexing is monotone in the value.
        let mut prev = 0;
        for shift in 0..64 {
            let idx = bucket_index(1u64 << shift);
            assert!(idx >= prev);
            prev = idx;
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn quantiles_match_an_exact_reference_within_bucket_resolution() {
        let h = LogHistogram::new();
        let mut values: Vec<u64> = (0..10_000u64).map(|i| (i * i) % 777_777).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count, 10_000);
        assert_eq!(snap.min, values[0]);
        assert_eq!(snap.max, *values.last().unwrap());
        let exact_sum: u64 = values.iter().sum();
        assert_eq!(snap.sum, exact_sum);
        for &(q, _) in &[(0.5, "p50"), (0.99, "p99"), (0.999, "p999")] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
            let exact = values[rank];
            let got = snap.value_at_quantile(q);
            assert!(got >= exact, "q{q}: {got} < exact {exact}");
            assert!(
                (got - exact) as f64 <= exact as f64 / 64.0 + 1.0,
                "q{q}: {got} overshoots exact {exact}"
            );
        }
        assert_eq!(snap.value_at_quantile(1.0), snap.max);
        assert_eq!(snap.value_at_quantile(0.0), snap.value_at_quantile(1e-9));
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let snap = LogHistogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p999(), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(LogHistogram::new());
        let threads = 8;
        let per_thread = 5_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, threads * per_thread);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, threads * per_thread - 1);
    }

    #[test]
    fn registry_hands_out_shared_handles_and_snapshots() {
        let r = Registry::new();
        let c1 = r.counter("requests");
        let c2 = r.counter("requests");
        c1.inc();
        c2.add(4);
        let g = r.gauge("queue_depth");
        g.add(3);
        g.add(-1);
        r.histogram("latency_ns").record(1_234);
        let snap = r.snapshot();
        assert_eq!(snap.counter("requests"), 5);
        assert_eq!(snap.gauge("queue_depth"), 2);
        assert_eq!(snap.histograms["latency_ns"].count, 1);
        assert_eq!(snap.counter("never_registered"), 0);
        assert_eq!(snap.gauge("never_registered"), 0);
    }

    #[test]
    fn gauge_set_overwrites() {
        let g = Gauge::default();
        g.add(10);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn duration_recording_saturates() {
        let h = LogHistogram::new();
        h.record_duration(std::time::Duration::from_nanos(250));
        h.record_duration(std::time::Duration::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.min, 250);
        assert_eq!(snap.max, u64::MAX);
    }
}
