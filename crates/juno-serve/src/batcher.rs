//! Bounded ingress queue with admission control and work-conserving batch
//! formation.
//!
//! The online front-end ([`crate::server::Server`]) accepts one query per
//! client call but executes whole batches — the fast-scan engine amortises
//! LUT builds and cache traffic across queries, so a batch of 32 costs far
//! less than 32 singles. The [`Batcher`] sits between the two:
//!
//! * **Admission control** — the queue is bounded
//!   ([`BatcherConfig::queue_depth`]); a push beyond the bound is rejected
//!   with [`Error::Overloaded`] immediately instead of building an unbounded
//!   backlog whose every entry would miss its deadline anyway. Rejecting at
//!   ingress keeps the latency of *admitted* requests predictable.
//! * **Work-conserving trigger** — a batch is handed out as soon as
//!   [`BatcherConfig::max_batch`] requests are pending (size trigger), *or*
//!   something is pending and no batch is out executing on any dispatcher
//!   (idle trigger), *or* the oldest pending request has waited
//!   [`BatcherConfig::max_delay`] (deadline trigger). Holding a request only
//!   pays while another batch is executing: the requests that arrive in the
//!   meantime ride together in the next one. With nothing executing there is
//!   no traffic to wait for that would not also be served by the batch after,
//!   so a lone request on an idle server is dispatched at once.
//!
//! The batcher knows what is executing because a [`Batch`] is a guard: it
//! counts as *out* from [`Batcher::next_batch`] until it is dropped, and the
//! drop that brings the count to zero releases held requests immediately.
//!
//! The queue itself is a `Mutex<VecDeque>` plus one condvar: pushes, returned
//! batches and `close` wake a dispatcher, and the deadline trigger is a timed
//! wait until the oldest request's dispatch deadline. Every handoff is O(1)
//! per request; there is no per-item allocation beyond the queue slot.

use juno_common::error::{Error, Result};
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Tuning for a [`Batcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// Dispatch as soon as this many requests are pending (size trigger).
    pub max_batch: usize,
    /// The longest a request is held back *while another batch is
    /// executing* (deadline trigger). With no batch out, pending requests
    /// are never held.
    pub max_delay: Duration,
    /// Admission bound: a push while this many requests are already queued
    /// is rejected with [`Error::Overloaded`].
    pub queue_depth: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay: Duration::from_millis(1),
            queue_depth: 1024,
        }
    }
}

impl BatcherConfig {
    fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(Error::invalid_config("batcher max_batch must be ≥ 1"));
        }
        if self.queue_depth == 0 {
            return Err(Error::invalid_config("batcher queue_depth must be ≥ 1"));
        }
        Ok(())
    }
}

/// A queued item plus its admission timestamp (the batch former's deadline
/// trigger keys off the *oldest* stamp; the server derives queue-wait from
/// it too).
#[derive(Debug)]
pub struct Pending<T> {
    /// When the item was admitted.
    pub enqueued: Instant,
    /// The item itself.
    pub item: T,
}

#[derive(Debug)]
struct QueueInner<T> {
    queue: VecDeque<Pending<T>>,
    closed: bool,
    /// Batches handed out by [`Batcher::next_batch`] and not yet dropped.
    out: usize,
}

/// The bounded, batch-forming ingress queue. See the [module docs](self).
///
/// All methods take `&self`; producers ([`Batcher::push`]) and consumers
/// ([`Batcher::next_batch`]) run from any number of threads.
#[derive(Debug)]
pub struct Batcher<T> {
    config: BatcherConfig,
    inner: Mutex<QueueInner<T>>,
    /// Wakes dispatchers blocked in [`Batcher::next_batch`] (new work, a
    /// returned batch, or close).
    available: Condvar,
}

/// A batch handed out by [`Batcher::next_batch`]: the requests, oldest
/// first, and the batcher's record that they are executing. Keep it alive
/// until the last reply is sent — dropping it is what tells the batcher the
/// dispatcher is free again.
#[derive(Debug)]
pub struct Batch<'a, T> {
    items: Vec<Pending<T>>,
    batcher: &'a Batcher<T>,
}

impl<T> Deref for Batch<'_, T> {
    type Target = [Pending<T>];

    fn deref(&self) -> &[Pending<T>] {
        &self.items
    }
}

impl<T> DerefMut for Batch<'_, T> {
    fn deref_mut(&mut self) -> &mut [Pending<T>] {
        &mut self.items
    }
}

impl<T> Drop for Batch<'_, T> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned lock still holds a valid count.
        let mut inner = self
            .batcher
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        inner.out -= 1;
        let release = inner.out == 0 && !inner.queue.is_empty();
        drop(inner);
        if release {
            // Every waiter waits on the same condition, so one is enough:
            // it takes what is held and counts as out again.
            self.batcher.available.notify_one();
        }
    }
}

impl<T> Batcher<T> {
    /// An empty open queue.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `max_batch` or `queue_depth` is zero.
    pub fn new(config: BatcherConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            inner: Mutex::new(QueueInner {
                queue: VecDeque::with_capacity(config.queue_depth.min(4096)),
                closed: false,
                out: 0,
            }),
            available: Condvar::new(),
        })
    }

    /// The batcher's configuration.
    pub fn config(&self) -> BatcherConfig {
        self.config
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner<T>> {
        self.inner.lock().expect("batcher lock")
    }

    /// Admits `item` and returns the queue depth including it.
    ///
    /// # Errors
    ///
    /// * [`Error::Overloaded`] — the queue is at `queue_depth`; the caller
    ///   should shed the request (retrying immediately only deepens the
    ///   overload).
    /// * [`Error::Unavailable`] — the queue was closed (server shutting
    ///   down).
    pub fn push(&self, item: T) -> Result<usize> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(Error::unavailable("ingress queue closed"));
        }
        if inner.queue.len() >= self.config.queue_depth {
            return Err(Error::overloaded(format!(
                "ingress queue full ({} pending)",
                inner.queue.len()
            )));
        }
        inner.queue.push_back(Pending {
            enqueued: Instant::now(),
            item,
        });
        let depth = inner.queue.len();
        drop(inner);
        self.available.notify_one();
        Ok(depth)
    }

    /// Blocks until a batch is ready and returns it (oldest first, at most
    /// `max_batch` items), or `None` once the queue is closed *and* drained.
    ///
    /// A batch is ready when `max_batch` items are pending, when anything is
    /// pending and no [`Batch`] is out, when the oldest item has waited
    /// `max_delay`, or when the queue is closing (pending items are flushed
    /// promptly rather than waiting out their delay). The returned batch
    /// counts as out until it is dropped.
    pub fn next_batch(&self) -> Option<Batch<'_, T>> {
        let mut inner = self.lock();
        loop {
            if inner.queue.len() >= self.config.max_batch || inner.closed {
                break;
            }
            match inner.queue.front() {
                None => {
                    inner = self.available.wait(inner).expect("batcher lock");
                }
                Some(_) if inner.out == 0 => break,
                Some(oldest) => {
                    let deadline = oldest.enqueued + self.config.max_delay;
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _timeout) = self
                        .available
                        .wait_timeout(inner, deadline - now)
                        .expect("batcher lock");
                    inner = guard;
                }
            }
        }
        if inner.queue.is_empty() {
            debug_assert!(inner.closed);
            return None;
        }
        let take = inner.queue.len().min(self.config.max_batch);
        let items: Vec<Pending<T>> = inner.queue.drain(..take).collect();
        inner.out += 1;
        let more = !inner.queue.is_empty();
        drop(inner);
        if more {
            // Leftovers (len > max_batch) may already satisfy a trigger:
            // hand them to another dispatcher instead of letting it sleep
            // a full max_delay.
            self.available.notify_one();
        }
        Some(Batch {
            items,
            batcher: self,
        })
    }

    /// Current queue depth (pending, not yet dispatched).
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: future pushes fail with [`Error::Unavailable`],
    /// blocked dispatchers flush what is pending and then receive `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cfg(max_batch: usize, max_delay: Duration, queue_depth: usize) -> BatcherConfig {
        BatcherConfig {
            max_batch,
            max_delay,
            queue_depth,
        }
    }

    #[test]
    fn zero_sizes_are_rejected_at_construction() {
        assert!(matches!(
            Batcher::<u32>::new(cfg(0, Duration::from_millis(1), 8)),
            Err(Error::InvalidConfig(_))
        ));
        assert!(matches!(
            Batcher::<u32>::new(cfg(4, Duration::from_millis(1), 0)),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn size_trigger_dispatches_a_full_batch_without_waiting() {
        // Huge delay: only the size trigger can fire.
        let b = Batcher::new(cfg(4, Duration::from_secs(60), 64)).unwrap();
        for i in 0..4u32 {
            b.push(i).unwrap();
        }
        let started = Instant::now();
        let batch = b.next_batch().expect("batch");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "waited on delay"
        );
        assert_eq!(
            batch.iter().map(|p| p.item).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "oldest first"
        );
        assert!(b.is_empty());
    }

    /// A `max_delay` no test waits out: only the rule under test can fire.
    const NEVER: Duration = Duration::from_secs(60);

    fn items(batch: &Batch<'_, u32>) -> Vec<u32> {
        batch.iter().map(|p| p.item).collect()
    }

    /// Spawns a dispatcher blocked in `next_batch` that reports what it got.
    fn waiter(b: &Arc<Batcher<u32>>) -> std::sync::mpsc::Receiver<Option<Vec<u32>>> {
        let (tx, rx) = std::sync::mpsc::channel();
        let b = b.clone();
        std::thread::spawn(move || {
            let got = b.next_batch().map(|batch| items(&batch));
            let _ = tx.send(got);
        });
        rx
    }

    #[test]
    fn deadline_trigger_dispatches_a_partial_batch() {
        let b = Batcher::new(cfg(64, Duration::from_millis(5), 64)).unwrap();
        // The delay only applies while another batch is executing.
        b.push(1u32).unwrap();
        let executing = b.next_batch().expect("plug");
        b.push(7u32).unwrap();
        let started = Instant::now();
        let batch = b.next_batch().expect("batch");
        let waited = started.elapsed();
        assert_eq!(items(&batch), vec![7]);
        assert!(
            waited >= Duration::from_millis(4),
            "fired early: {waited:?}"
        );
        assert!(
            waited < Duration::from_secs(5),
            "deadline trigger stalled: {waited:?}"
        );
        drop(executing);
    }

    #[test]
    fn a_lone_request_on_an_idle_batcher_is_handed_out_without_waiting() {
        let b = Batcher::new(cfg(64, NEVER, 64)).unwrap();
        b.push(7u32).unwrap();
        let started = Instant::now();
        let batch = b.next_batch().expect("batch");
        assert_eq!(items(&batch), vec![7]);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "an idle batcher held a request"
        );
    }

    #[test]
    fn a_request_behind_an_executing_batch_is_held_until_the_size_trigger() {
        let b = Arc::new(Batcher::new(cfg(3, NEVER, 64)).unwrap());
        b.push(0u32).unwrap();
        let executing = b.next_batch().expect("first batch");
        b.push(1).unwrap();
        let held = waiter(&b);
        // Held: neither the lone request nor a second one is a batch of 3.
        assert!(held.recv_timeout(Duration::from_millis(50)).is_err());
        b.push(2).unwrap();
        assert!(held.recv_timeout(Duration::from_millis(50)).is_err());
        b.push(3).unwrap();
        let got = held.recv_timeout(Duration::from_secs(5)).expect("size");
        assert_eq!(got, Some(vec![1, 2, 3]));
        drop(executing);
    }

    #[test]
    fn returning_the_outstanding_batch_releases_held_requests_to_one_waiter() {
        let b = Arc::new(Batcher::new(cfg(64, NEVER, 64)).unwrap());
        b.push(0u32).unwrap();
        let executing = b.next_batch().expect("first batch");
        // Pushed while a batch is out: they ride together, oldest first.
        for i in 1..=3u32 {
            assert_eq!(b.push(i).unwrap(), i as usize, "depth seen by push");
        }
        let (first, second) = (waiter(&b), waiter(&b));
        assert!(first.recv_timeout(Duration::from_millis(50)).is_err());
        assert!(second.recv_timeout(Duration::from_millis(50)).is_err());

        let started = Instant::now();
        drop(executing);
        // Exactly one waiter takes the held requests, at once; for the
        // other nothing changed (its batch would be empty), so it stays
        // blocked until close.
        let (taker, other) = loop {
            if let Ok(got) = first.try_recv() {
                break (got, &second);
            }
            if let Ok(got) = second.try_recv() {
                break (got, &first);
            }
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "the returned batch released nothing"
            );
            std::thread::yield_now();
        };
        assert_eq!(taker, Some(vec![1, 2, 3]));
        assert!(other.recv_timeout(Duration::from_millis(50)).is_err());
        b.close();
        assert_eq!(other.recv_timeout(Duration::from_secs(5)), Ok(None));
    }

    #[test]
    fn admission_control_rejects_beyond_queue_depth() {
        // max_batch == queue_depth so the drain below hits the size trigger
        // instead of waiting out the (long) deadline trigger.
        let b = Batcher::new(cfg(3, Duration::from_secs(60), 3)).unwrap();
        for i in 0..3u32 {
            b.push(i).unwrap();
        }
        assert!(matches!(b.push(99), Err(Error::Overloaded(_))));
        // Draining makes room again.
        let batch = b.next_batch().expect("batch");
        assert_eq!(batch.len(), 3);
        b.push(100).unwrap();
    }

    #[test]
    fn close_flushes_pending_then_signals_exhaustion() {
        let b = Batcher::new(cfg(64, Duration::from_secs(60), 64)).unwrap();
        b.push(1u32).unwrap();
        b.push(2u32).unwrap();
        b.close();
        assert!(matches!(b.push(3), Err(Error::Unavailable(_))));
        // Pending items flush immediately (not after the 60s delay).
        let started = Instant::now();
        let batch = b.next_batch().expect("flush");
        assert_eq!(batch.len(), 2);
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(b.next_batch().is_none(), "drained + closed → None");
    }

    #[test]
    fn close_flushes_requests_held_behind_an_executing_batch() {
        let b = Arc::new(Batcher::new(cfg(64, NEVER, 64)).unwrap());
        b.push(0u32).unwrap();
        let executing = b.next_batch().expect("first batch");
        b.push(1).unwrap();
        b.push(2).unwrap();
        let held = waiter(&b);
        assert!(held.recv_timeout(Duration::from_millis(50)).is_err());
        b.close();
        let flushed = held.recv_timeout(Duration::from_secs(5)).expect("flush");
        assert_eq!(flushed, Some(vec![1, 2]));
        assert!(b.next_batch().is_none(), "drained + closed → None");
        drop(executing);
    }

    #[test]
    fn close_wakes_a_blocked_dispatcher() {
        let b = Arc::new(Batcher::<u32>::new(cfg(4, Duration::from_secs(60), 8)).unwrap());
        let waiter = {
            let b = b.clone();
            std::thread::spawn(move || b.next_batch().map(|batch| batch.len()))
        };
        std::thread::sleep(Duration::from_millis(20));
        b.close();
        assert!(waiter.join().unwrap().is_none());
    }

    #[test]
    fn oversized_backlog_is_split_into_max_batch_chunks() {
        let b = Batcher::new(cfg(4, Duration::ZERO, 64)).unwrap();
        for i in 0..10u32 {
            b.push(i).unwrap();
        }
        let sizes: Vec<usize> = (0..3).map(|_| b.next_batch().unwrap().len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert!(b.is_empty());
    }
}
