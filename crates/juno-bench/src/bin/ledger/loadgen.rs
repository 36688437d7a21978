//! The ledger's own load generator: a closed loop and a seeded-Poisson open
//! loop, both on [`SUBMITTERS`] submitting threads, plus the seeded
//! read/write plan of the mixed workload.
//!
//! Everything a seed influences is generated here ahead of the timed
//! section (arrival offsets, query targets, the op sequence); the program
//! under test only ever sees the generated vectors.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Submitting threads. A constant — `nproc` of the reference host — and
/// never read from the machine at run time.
pub const SUBMITTERS: usize = 2;

/// splitmix64: small, seedable, and good enough for schedules and plans.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n.max(1))) as u32
    }
}

/// `count` Poisson arrivals at `rate_per_s`: ascending offsets from the
/// start of the open-loop section, in nanoseconds.
pub fn poisson_schedule(rate_per_s: f64, count: usize, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x6F70_656E);
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += -rng.next_f64().ln() / rate_per_s;
            (at * 1e9) as u64
        })
        .collect()
}

/// `count` uniform draws from `0..pool` — which pool query each open-loop
/// request carries.
pub fn uniform_targets(count: usize, pool: u32, seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed ^ 0x7461_7267);
    (0..count).map(|_| rng.below(pool)).collect()
}

/// A seeded permutation of `0..n`. The fixture draws its query pool and
/// its insert order from one; the mixed workload removes build-time ids in
/// the order of another, so every remove targets a live id exactly once.
pub fn permutation(n: u32, seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed ^ 0x7065_726D);
    let mut ids: Vec<u32> = (0..n).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u32 + 1) as usize);
    }
    ids
}

/// One operation of the mixed plan. `Insert(j)` / `Remove(j)` carry the
/// ordinal of that client's j-th insert / remove; the workload maps them to
/// an insert vector and a slot of its removal [`permutation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Query(u32),
    Insert(u32),
    Remove(u32),
}

/// One client's seeded op sequence: `read_pct` % queries over the pool, the
/// remainder split 2:1 between inserts and removes.
#[derive(Debug, Clone)]
pub struct MixedPlan {
    rng: Rng,
    pool: u32,
    read_pct: u32,
    inserts: u32,
    removes: u32,
}

impl MixedPlan {
    pub fn new(seed: u64, client: usize, pool: u32, read_pct: u32) -> Self {
        Self {
            rng: Rng::new(seed ^ (0x706C_616E + client as u64)),
            pool,
            read_pct,
            inserts: 0,
            removes: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100);
        let write_pct = 100 - self.read_pct;
        if roll < self.read_pct {
            Op::Query(self.rng.below(self.pool))
        } else if roll < self.read_pct + write_pct * 2 / 3 {
            self.inserts += 1;
            Op::Insert(self.inserts - 1)
        } else {
            self.removes += 1;
            Op::Remove(self.removes - 1)
        }
    }
}

/// Which latency family a closed-loop sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
    /// Timed but kept out of both families (a checkpoint).
    Other,
}

#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub kind: Kind,
    pub ok: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub latency_ns: u64,
    pub kind: Kind,
    pub ok: bool,
}

#[derive(Debug)]
pub struct ClosedRun {
    /// Start of the section to the last client's last reply.
    pub elapsed: Duration,
    pub samples: Vec<Sample>,
}

impl ClosedRun {
    pub fn latencies_ns(&self, kind: Kind) -> impl Iterator<Item = u64> + '_ {
        self.samples
            .iter()
            .filter(move |s| s.kind == kind)
            .map(|s| s.latency_ns)
    }

    pub fn ok_count(&self, kind: Kind) -> usize {
        self.samples
            .iter()
            .filter(|s| s.kind == kind && s.ok)
            .count()
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }
}

/// Closed loop: one thread per element of `states`, each issuing its next
/// request only after the previous reply. A client stops at `limit` or when
/// `op` returns `None`.
pub fn run_closed<S: Send>(
    limit: Duration,
    states: &mut [S],
    op: impl Fn(&mut S) -> Option<Outcome> + Sync,
) -> ClosedRun {
    let start = Instant::now();
    let op = &op;
    let per_client: Vec<(Vec<Sample>, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(1 << 14);
                    let mut last = Instant::now();
                    while start.elapsed() < limit {
                        let sent = Instant::now();
                        let Some(outcome) = op(state) else { break };
                        last = Instant::now();
                        samples.push(Sample {
                            latency_ns: (last - sent).as_nanos() as u64,
                            kind: outcome.kind,
                            ok: outcome.ok,
                        });
                    }
                    (samples, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let end = per_client.iter().map(|(_, t)| *t).max().unwrap_or(start);
    ClosedRun {
        elapsed: end - start,
        samples: per_client.into_iter().flat_map(|(s, _)| s).collect(),
    }
}

#[derive(Debug, Clone, Copy)]
pub struct OpenSample {
    /// Reply time minus the *scheduled* send time, so a stall charges the
    /// requests queued behind it.
    pub latency_ns: u64,
    /// How late the generator actually sent the request.
    pub lag_ns: u64,
    pub ok: bool,
}

/// Open loop: request `i` is due `schedule_ns[i]` after the start whatever
/// happened to earlier requests. [`SUBMITTERS`] threads take requests in
/// schedule order; results come back in schedule order.
pub fn run_open(schedule_ns: &[u64], op: impl Fn(usize) -> bool + Sync) -> Vec<OpenSample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let (next, op) = (&next, &op);
    let mut indexed: Vec<(usize, OpenSample)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(schedule_ns.len() / SUBMITTERS + 16);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&offset) = schedule_ns.get(i) else {
                            break;
                        };
                        let due = start + Duration::from_nanos(offset);
                        let wait = due.saturating_duration_since(Instant::now());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let ok = op(i);
                        let done = Instant::now();
                        out.push((
                            i,
                            OpenSample {
                                latency_ns: done.saturating_duration_since(due).as_nanos() as u64,
                                lag_ns: sent.saturating_duration_since(due).as_nanos() as u64,
                                ok,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop submitter panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, s)| s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_prefix(seed: u64, client: usize) -> Vec<Op> {
        let mut plan = MixedPlan::new(seed, client, 1000, 70);
        (0..2000).map(|_| plan.next_op()).collect()
    }

    #[test]
    fn a_seed_replays_its_schedule_and_plan_bit_for_bit() {
        assert_eq!(
            poisson_schedule(120.0, 500, 7),
            poisson_schedule(120.0, 500, 7)
        );
        assert_eq!(uniform_targets(500, 1000, 7), uniform_targets(500, 1000, 7));
        assert_eq!(permutation(5000, 7), permutation(5000, 7));
        assert_eq!(plan_prefix(7, 0), plan_prefix(7, 0));
    }

    #[test]
    fn a_second_seed_differs() {
        assert_ne!(
            poisson_schedule(120.0, 500, 7),
            poisson_schedule(120.0, 500, 8)
        );
        assert_ne!(uniform_targets(500, 1000, 7), uniform_targets(500, 1000, 8));
        assert_ne!(permutation(5000, 7), permutation(5000, 8));
        assert_ne!(plan_prefix(7, 0), plan_prefix(8, 0));
        assert_ne!(plan_prefix(7, 0), plan_prefix(7, 1));
    }

    #[test]
    fn schedule_is_ascending_at_the_asked_rate() {
        let s = poisson_schedule(120.0, 6000, 3);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let seconds = *s.last().unwrap() as f64 / 1e9;
        let rate = s.len() as f64 / seconds;
        assert!((rate - 120.0).abs() < 6.0, "rate {rate}");
    }

    #[test]
    fn plan_keeps_its_mix_and_numbers_writes_densely() {
        let ops = plan_prefix(11, 0);
        let reads = ops.iter().filter(|o| matches!(o, Op::Query(_))).count();
        let inserts: Vec<u32> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Insert(j) => Some(*j),
                _ => None,
            })
            .collect();
        let removes = ops.iter().filter(|o| matches!(o, Op::Remove(_))).count();
        assert!((1300..1500).contains(&reads), "reads {reads}");
        assert!((340..460).contains(&inserts.len()), "{}", inserts.len());
        assert!((150..250).contains(&removes), "removes {removes}");
        assert!(inserts.iter().copied().eq(0..inserts.len() as u32));
        assert!(ops.iter().all(|o| !matches!(o, Op::Query(q) if *q >= 1000)));
    }

    #[test]
    fn permutation_holds_every_index_once() {
        let mut ids = permutation(1000, 5);
        ids.sort_unstable();
        assert!(ids.iter().copied().eq(0..1000));
    }

    #[test]
    fn closed_loop_runs_every_client_until_it_is_done() {
        let mut states = [0u32, 0u32];
        let run = run_closed(Duration::from_secs(5), &mut states, |n| {
            *n += 1;
            (*n <= 50).then_some(Outcome {
                kind: if *n % 5 == 0 { Kind::Write } else { Kind::Read },
                ok: *n != 7,
            })
        });
        assert_eq!(run.samples.len(), 100);
        assert_eq!(run.latencies_ns(Kind::Write).count(), 20);
        assert_eq!(run.ok_count(Kind::Read), 78);
        assert_eq!(run.failed(), 2);
        assert!(run.elapsed < Duration::from_secs(5));
    }

    #[test]
    fn open_loop_times_from_the_scheduled_send() {
        // Ten requests all due at t=0 on two submitters, 2 ms of service
        // each: the last ones finish ≈10 ms after they were due and their
        // send lag shows the generator fell behind.
        let schedule = vec![0u64; 10];
        let samples = run_open(&schedule, |_| {
            std::thread::sleep(Duration::from_millis(2));
            true
        });
        assert_eq!(samples.len(), 10);
        assert!(samples.iter().all(|s| s.ok));
        let worst = samples.iter().map(|s| s.latency_ns).max().unwrap();
        assert!(worst >= 9_000_000, "worst {worst}");
        let worst_lag = samples.iter().map(|s| s.lag_ns).max().unwrap();
        assert!(worst_lag >= 7_000_000, "lag {worst_lag}");
        assert!(samples.iter().all(|s| s.latency_ns >= s.lag_ns));
    }
}
