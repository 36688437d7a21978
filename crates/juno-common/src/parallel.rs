//! Work-stealing data parallelism over index ranges.
//!
//! The workspace builds without external crates, so this module provides the
//! small slice of `rayon` the hot paths need: map a function over `0..n` from
//! a pool of scoped threads, with dynamic (work-stealing) load balancing and
//! optional per-thread mutable state for scratch buffers.
//!
//! Scheduling is a single shared atomic cursor: each worker claims the next
//! chunk of indices with `fetch_add`, so fast workers automatically steal the
//! work a slow worker never reached. Results are returned in index order
//! regardless of which worker computed them, which keeps parallel output
//! deterministic and bit-identical to a sequential run of the same closure.
//! The calling thread is one of the workers, so a map on `t` workers spawns
//! `t − 1` scoped threads.
//!
//! # Panic isolation
//!
//! Workers run under [`std::panic::catch_unwind`]: a panicking closure does
//! **not** poison the pool or unwind into the caller — [`map`] / [`map_with`]
//! return [`Error::WorkerPanicked`] carrying the panic payload's message, the
//! remaining workers drain the cursor and join normally, and the process
//! survives. This is the foundation the fault-tolerant serving layer builds
//! on: an injected (or real) panic in one shard's scan surfaces as an error
//! the scatter-gather can degrade around instead of aborting the batch.

use crate::error::{Error, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of worker threads to use by default: the machine's available
/// parallelism, overridable (mostly for benchmarks and CI) with the
/// `JUNO_NUM_THREADS` environment variable.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("JUNO_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1)
}

/// Picks a steal-chunk size that keeps scheduling overhead low while leaving
/// enough chunks for load balancing (~4 per worker).
fn auto_chunk(n: usize, threads: usize) -> usize {
    (n / (threads * 4).max(1)).clamp(1, 64)
}

/// Renders a caught panic payload as a human-readable message (`&str` and
/// `String` payloads verbatim — the overwhelmingly common cases — anything
/// else as an opaque marker).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps `f` over `0..n` on up to `num_threads` workers with per-thread state.
///
/// `init` runs once per worker to create its state (e.g. a scratch buffer);
/// `f` receives the state and the item index. `chunk_size = 0` selects an
/// automatic chunk size. The output is ordered by index.
///
/// Falls back to a plain sequential loop when `n` or the thread budget is
/// too small to be worth spawning for.
///
/// # Errors
///
/// Returns [`Error::WorkerPanicked`] when `init` or `f` panicked on any
/// worker (or on the caller in the sequential fallback). The panic is caught
/// at the pool boundary — no worker thread unwinds into the caller, and the
/// other workers finish their claimed chunks normally.
pub fn map_with<S, T, FI, F>(
    n: usize,
    num_threads: usize,
    chunk_size: usize,
    init: FI,
    f: F,
) -> Result<Vec<T>>
where
    T: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = num_threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return catch_unwind(AssertUnwindSafe(|| {
            let mut state = init();
            (0..n).map(|i| f(&mut state, i)).collect()
        }))
        .map_err(|payload| worker_panicked(&*payload));
    }
    let chunk = if chunk_size == 0 {
        auto_chunk(n, threads)
    } else {
        chunk_size
    };

    let cursor = AtomicUsize::new(0);
    // One worker's whole life under the catch (state init included). On a
    // panic the worker's claimed-but-unfinished chunk is simply abandoned;
    // the cursor has already moved past it, so no other worker re-runs
    // those indices — the caller discards everything and reports the panic
    // instead.
    let worker = || {
        catch_unwind(AssertUnwindSafe(|| {
            let mut state = init();
            let mut local: Vec<(usize, T)> = Vec::new();
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for i in start..end {
                    local.push((i, f(&mut state, i)));
                }
            }
            local
        }))
    };
    let mut buckets: Vec<Vec<(usize, T)>> = Vec::with_capacity(threads);
    let mut panic: Option<Error> = None;
    std::thread::scope(|scope| {
        // The calling thread is the last worker: `threads − 1` spawns.
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        let joined = handles
            .into_iter()
            .map(|h| h.join().expect("worker catch_unwind cannot itself panic"));
        for result in std::iter::once(worker()).chain(joined) {
            match result {
                Ok(bucket) => buckets.push(bucket),
                Err(payload) => {
                    // Record the first panic; keep joining so the scope
                    // exits cleanly and no thread is leaked mid-scan.
                    panic.get_or_insert_with(|| worker_panicked(&*payload));
                }
            }
        }
    });
    if let Some(err) = panic {
        return Err(err);
    }

    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for bucket in buckets {
        for (i, v) in bucket {
            out[i] = Some(v);
        }
    }
    Ok(out
        .into_iter()
        .map(|v| v.expect("every index is claimed exactly once"))
        .collect())
}

fn worker_panicked(payload: &(dyn std::any::Any + Send)) -> Error {
    Error::worker_panicked(format!("parallel map worker: {}", panic_message(payload)))
}

/// Stateless variant of [`map_with`].
///
/// # Errors
///
/// Returns [`Error::WorkerPanicked`] when `f` panicked on any worker.
pub fn map<T, F>(n: usize, num_threads: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_with(n, num_threads, 0, || (), |(), i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn output_is_in_index_order() {
        for threads in [1, 2, 4, 7] {
            let out = map(1000, threads, |i| i * 3).unwrap();
            assert_eq!(out.len(), 1000);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * 3, "threads = {threads}");
            }
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = map(257, 4, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn per_thread_state_is_reused_not_shared() {
        // Each worker's state counts its own items; the sum over all workers
        // must equal n even though the split is nondeterministic.
        let totals = map_with(
            500,
            4,
            7,
            || 0usize,
            |count, _i| {
                *count += 1;
                *count
            },
        )
        .unwrap();
        // Per-item results are each worker's running count: all ≥ 1 and ≤ n.
        assert!(totals.iter().all(|&c| (1..=500).contains(&c)));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(map(0, 8, |i| i).unwrap(), Vec::<usize>::new());
        assert_eq!(map(1, 8, |i| i + 1).unwrap(), vec![1]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn explicit_chunk_sizes_work() {
        for chunk in [1usize, 3, 64, 1000] {
            let out = map_with(100, 3, chunk, || (), |(), i| i).unwrap();
            assert_eq!(out, (0..100).collect::<Vec<_>>(), "chunk = {chunk}");
        }
    }

    #[test]
    fn worker_panic_is_caught_and_reported() {
        crate::testing::silence_panics();
        for threads in [1usize, 2, 4] {
            let result = map(100, threads, |i| {
                if i == 57 {
                    panic!("[injected-fault] injected panic at {i}");
                }
                i
            });
            match result {
                Err(Error::WorkerPanicked(msg)) => {
                    assert!(
                        msg.contains("injected panic at 57"),
                        "threads {threads}: {msg}"
                    );
                }
                other => panic!("threads {threads}: expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn panic_in_one_worker_does_not_stop_the_others() {
        crate::testing::silence_panics();
        // Every index except the panicking one must still run: the surviving
        // workers drain the cursor to completion even after a peer died.
        let ran = AtomicUsize::new(0);
        let result = map_with(
            400,
            4,
            1,
            || (),
            |(), i| {
                if i == 3 {
                    panic!("[injected-fault] die early");
                }
                ran.fetch_add(1, Ordering::Relaxed);
                i
            },
        );
        assert!(matches!(result, Err(Error::WorkerPanicked(_))));
        assert!(
            ran.load(Ordering::Relaxed) >= 396,
            "surviving workers abandoned the range: only {} of 399 ran",
            ran.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn a_panic_on_the_calling_threads_worker_lets_the_others_drain() {
        crate::testing::silence_panics();
        // The calling thread runs one of the workers. Spawned workers hold
        // their first item until it has panicked, so it is sure to claim one.
        let caller = std::thread::current().id();
        for threads in [2usize, 4] {
            let (died, ran) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let result = map_with(
                200,
                threads,
                1,
                || (),
                |(), i| {
                    if std::thread::current().id() == caller {
                        died.store(1, Ordering::Release);
                        panic!("[injected-fault] caller worker dies at {i}");
                    }
                    while died.load(Ordering::Acquire) == 0 && std::time::Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    i
                },
            );
            match result {
                Err(Error::WorkerPanicked(msg)) => {
                    assert!(msg.contains("caller worker dies"), "{msg}")
                }
                other => panic!("threads {threads}: expected WorkerPanicked, got {other:?}"),
            }
            assert_eq!(
                ran.load(Ordering::Relaxed),
                199,
                "threads {threads}: the spawned workers must drain every other index"
            );
        }
    }

    #[test]
    fn panic_in_init_is_caught() {
        crate::testing::silence_panics();
        let result: Result<Vec<usize>> = map_with(
            64,
            4,
            0,
            || -> usize { panic!("[injected-fault] state allocation failed") },
            |_, i| i,
        );
        assert!(matches!(result, Err(Error::WorkerPanicked(_))));
    }

    #[test]
    fn non_string_panic_payloads_are_survivable() {
        crate::testing::silence_panics();
        let result = map(16, 2, |i| {
            if i == 0 {
                std::panic::panic_any(42u32);
            }
            i
        });
        match result {
            Err(Error::WorkerPanicked(msg)) => assert!(msg.contains("non-string")),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }
}
