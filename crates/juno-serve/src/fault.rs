//! The deterministic fault-injection plane.
//!
//! Fleet-scale serving treats component failure as the steady state; testing
//! that posture needs faults that are **reproducible**. A [`FaultPlan`] is a
//! set of [`FaultRule`]s keyed by *(shard id, operation, per-shard op
//! counter)*: every instrumented code path calls
//! [`FaultPlan::inject`] at its injection point, which bumps that shard's
//! counter for the operation and fires the first matching rule — stalling
//! the caller, returning an injected error, or panicking the worker. Because
//! matching depends only on the counters (never on wall-clock or a shared
//! RNG drawn at injection time), a faulted run replays **bit-identically**
//! given the same plan and the same per-shard operation sequence. The fleet
//! oracle (`tests/fleet_oracle.rs`) draws its rules from a printed seed, at
//! sites and counters earlier steps were seen to reach.
//!
//! Every [`FaultOp`] variant names one instrumented point; its docs say
//! where it fires and on which shard's counter.
//!
//! Injected panics carry [`juno_common::testing::INJECTED_PANIC_MARKER`] so
//! fault suites can silence their print-out while real panics stay loud.
//! [`FaultKind::Crash`] aborts the whole process at the injection point —
//! it exists for subprocess crash harnesses (the parent spawns a child with
//! a Crash rule, waits for the abort, then recovers from the child's WAL
//! directory).

use juno_common::error::{Error, Result};
use juno_common::testing::INJECTED_PANIC_MARKER;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// The operations instrumented with fault-injection points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Each admitted shard's scan of a batch on the deadline-aware read
    /// path ([`crate::FleetReader::search_deadline`] and the batch
    /// variant), once per attempt. A global-id fleet scans the shards whose
    /// op would not fire as one fused scan and counts them when it submits
    /// it, through the non-firing check (`FaultPlan::pass`); a shard whose
    /// rule would fire leaves the fused scan and takes its own, where the
    /// op is counted and fires at the scan's start, as on a mapped fleet.
    /// Retries count again; a shard's own scan of a fused chunk that failed
    /// counts only its retries (its first attempt was counted with the
    /// fused scan). The exact path ([`crate::FleetReader::search`])
    /// is not instrumented: it is the bit-identity reference the
    /// differential suites compare against.
    Search,
    /// Per shard, before a writer mutation (insert batch or remove) takes
    /// that shard's staging engine: its retired epoch caught up, or a clone.
    Insert,
    /// Per shard, just before a staged state's pointer swap: a crash
    /// *between* per-shard publishes, which the writer must roll back.
    Publish,
    /// Per shard, before a compaction sweep takes that shard's staging
    /// engine (as for `Insert`) to compact and publish.
    Compact,
    /// Per restored shard, after validation, before any state is swapped in.
    Restore,
    /// A mutation's WAL records were appended but not yet fsync'd
    /// (post-append/pre-sync). Fleet-level: counted on shard 0.
    WalAppend,
    /// A checkpoint snapshot was durably published but its Checkpoint record
    /// not yet logged (mid-checkpoint). Fleet-level: counted on shard 0.
    Checkpoint,
    /// The WAL rotated to a fresh segment during a checkpoint but sealed
    /// segments were not yet pruned (mid-rotation). Fleet-level: shard 0.
    Rotate,
    /// A rebuild entered its training phase (reader pinned, start LSN
    /// captured). Fleet-level: counted on shard 0.
    RebuildTrain,
    /// A rebuild is about to replay the WAL suffix that landed during
    /// training into its shadow fleet. Fleet-level: counted on shard 0.
    RebuildReplay,
    /// Per shard, just before a rebuilt shadow state's epoch-pointer swap:
    /// the mid-publish crash window of the rebuild protocol.
    RebuildSwap,
    /// Per **new** shard of a resize, before its live set is derived.
    Split,
}

/// Number of distinct [`FaultOp`] values (sizing the counter table).
const NUM_OPS: usize = FaultOp::ALL.len();

impl FaultOp {
    /// All instrumented operations, in declaration order — the only list of
    /// them: an op's slot in the counter table is its discriminant.
    pub const ALL: [FaultOp; 12] = [
        FaultOp::Search,
        FaultOp::Insert,
        FaultOp::Publish,
        FaultOp::Compact,
        FaultOp::Restore,
        FaultOp::WalAppend,
        FaultOp::Checkpoint,
        FaultOp::Rotate,
        FaultOp::RebuildTrain,
        FaultOp::RebuildReplay,
        FaultOp::RebuildSwap,
        FaultOp::Split,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// What a matching rule does to the instrumented operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Sleep for the given duration, then let the operation proceed —
    /// models a slow or wedged shard (GC pause, IO stall, overload).
    Stall(Duration),
    /// Fail with [`Error::Unavailable`] (retryable). Pair with a short
    /// counter window to model transient errors that clear on retry.
    Transient,
    /// Fail with [`Error::Unavailable`] (retryable). Semantically identical
    /// to [`FaultKind::Transient`] at the injection point; pair with an
    /// unbounded window to model a persistently failing shard, which is what
    /// trips the circuit breaker.
    Fail,
    /// Panic the calling worker (the message carries the injected-fault
    /// marker). Exercises the `catch_unwind` isolation boundaries.
    Panic,
    /// Abort the whole process at the injection point (`std::process::abort`
    /// — no unwinding, no destructors, no flushing). This is the kill
    /// switch of subprocess crash harnesses: the child dies mid-protocol
    /// and the parent asserts that recovery from the surviving on-disk
    /// state is exact.
    Crash,
}

/// One fault rule: fires for the window `from_op..until_op` (exclusive end;
/// `None` = forever) of the per-shard counter of `op` on `shard`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// The shard whose operations this rule targets.
    pub shard: usize,
    /// The instrumented operation this rule targets.
    pub op: FaultOp,
    /// First per-shard op counter value (0-based) the rule fires at.
    pub from_op: u64,
    /// Counter value the rule stops firing at (exclusive); `None` keeps the
    /// rule firing forever (a persistent fault).
    pub until_op: Option<u64>,
    /// What happens when the rule fires.
    pub kind: FaultKind,
}

impl FaultRule {
    fn matches(&self, shard: usize, op: FaultOp, counter: u64) -> bool {
        self.shard == shard
            && self.op == op
            && counter >= self.from_op
            && self.until_op.is_none_or(|until| counter < until)
    }
}

/// A deterministic, replayable fault plan. See the module docs.
///
/// The plan is shared (`Arc`) between the fleet, its pinned readers and the
/// test driver; [`FaultPlan::disarm`] lets a test stop all injection without
/// touching the counters, modelling "the fault condition cleared".
#[derive(Debug)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    /// Per-(shard, op) injection-point counters: `shard * NUM_OPS + op`.
    counters: Vec<AtomicU64>,
    armed: AtomicBool,
}

impl FaultPlan {
    /// An empty (never-firing) plan for `num_shards` shards.
    pub fn new(num_shards: usize) -> Self {
        Self {
            rules: Vec::new(),
            counters: (0..num_shards * NUM_OPS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            armed: AtomicBool::new(true),
        }
    }

    /// Adds a rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Stops all injection (counters keep advancing, so windows keep
    /// sliding); models faults clearing.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Returns `true` while the plan injects faults.
    pub(crate) fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// The number of times the `(shard, op)` injection point has been hit.
    pub fn op_count(&self, shard: usize, op: FaultOp) -> u64 {
        self.counters[shard * NUM_OPS + op.index()].load(Ordering::Relaxed)
    }

    /// The injection point's count without its fault: when no rule would
    /// fire at the `(shard, op)` counter's current value, counts the op
    /// exactly as [`FaultPlan::inject`] would and returns `true`; when one
    /// would, counts nothing and returns `false`, leaving that count to the
    /// `inject` that fires it. So a caller can take a faster path for an op
    /// that would not fault without moving any count or rule window.
    pub(crate) fn pass(&self, shard: usize, op: FaultOp) -> bool {
        let Some(counter) = self.counters.get(shard * NUM_OPS + op.index()) else {
            return true;
        };
        let mut at = counter.load(Ordering::Relaxed);
        loop {
            if self.is_armed() && self.rules.iter().any(|r| r.matches(shard, op, at)) {
                return false;
            }
            match counter.compare_exchange_weak(at, at + 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(now) => at = now,
            }
        }
    }

    /// The injection point. Bumps the `(shard, op)` counter, then fires the
    /// first matching rule (rule order is match priority): sleeping for a
    /// stall, returning the injected error, or panicking the caller.
    /// Out-of-range shards (a plan built for a smaller fleet) never fire.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unavailable`] for [`FaultKind::Transient`] /
    /// [`FaultKind::Fail`] rules.
    ///
    /// # Panics
    ///
    /// Panics (deliberately — the caller's `catch_unwind` boundary is the
    /// thing under test) for [`FaultKind::Panic`] rules, and **aborts the
    /// process** for [`FaultKind::Crash`] rules.
    pub(crate) fn inject(&self, shard: usize, op: FaultOp) -> Result<()> {
        let Some(counter) = self.counters.get(shard * NUM_OPS + op.index()) else {
            return Ok(());
        };
        let at = counter.fetch_add(1, Ordering::Relaxed);
        if !self.is_armed() {
            return Ok(());
        }
        let Some(rule) = self.rules.iter().find(|r| r.matches(shard, op, at)) else {
            return Ok(());
        };
        match rule.kind {
            FaultKind::Stall(dur) => {
                std::thread::sleep(dur);
                Ok(())
            }
            FaultKind::Transient => Err(Error::unavailable(format!(
                "[injected-fault] transient fault: shard {shard} {op:?} op {at}"
            ))),
            FaultKind::Fail => Err(Error::unavailable(format!(
                "[injected-fault] persistent fault: shard {shard} {op:?} op {at}"
            ))),
            FaultKind::Panic => {
                panic!("{INJECTED_PANIC_MARKER} injected panic: shard {shard} {op:?} op {at}")
            }
            FaultKind::Crash => {
                // Flush nothing, unwind nothing: die exactly like a SIGKILL
                // mid-protocol would. The line below is the only trace.
                eprintln!("[injected-fault] crash: shard {shard} {op:?} op {at}");
                std::process::abort();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_op_at_its_counter_slot() {
        for (i, op) in FaultOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i, "{op:?} is out of declaration order in ALL");
        }
    }

    #[test]
    fn rules_fire_only_inside_their_counter_window() {
        let plan = FaultPlan::new(2).with_rule(FaultRule {
            shard: 1,
            op: FaultOp::Search,
            from_op: 2,
            until_op: Some(4),
            kind: FaultKind::Transient,
        });
        // Shard 0 is never touched.
        for _ in 0..8 {
            plan.inject(0, FaultOp::Search).unwrap();
        }
        // Shard 1: ops 0, 1 pass; 2, 3 fail; 4+ pass again.
        assert!(plan.inject(1, FaultOp::Search).is_ok());
        assert!(plan.inject(1, FaultOp::Search).is_ok());
        assert!(matches!(
            plan.inject(1, FaultOp::Search),
            Err(Error::Unavailable(_))
        ));
        assert!(matches!(
            plan.inject(1, FaultOp::Search),
            Err(Error::Unavailable(_))
        ));
        assert!(plan.inject(1, FaultOp::Search).is_ok());
        assert_eq!(plan.op_count(1, FaultOp::Search), 5);
        // A different op on the same shard has its own counter.
        assert_eq!(plan.op_count(1, FaultOp::Insert), 0);
        assert!(plan.inject(1, FaultOp::Insert).is_ok());
    }

    #[test]
    fn the_non_firing_check_counts_exactly_as_inject_counts() {
        let rules = [
            FaultRule {
                shard: 1,
                op: FaultOp::Search,
                from_op: 2,
                until_op: Some(4),
                kind: FaultKind::Transient,
            },
            FaultRule {
                shard: 1,
                op: FaultOp::Search,
                from_op: 6,
                until_op: Some(7),
                kind: FaultKind::Stall(Duration::ZERO),
            },
        ];
        let plan = |shards| {
            rules
                .iter()
                .fold(FaultPlan::new(shards), |plan, &rule| plan.with_rule(rule))
        };
        // The reference: every op through `inject`. The check: `pass`
        // first, `inject` only for the ops it refuses — a faster path for
        // the rest, a fault for those.
        let (injected, checked) = (plan(2), plan(2));
        let mut fired = Vec::new();
        for op in 0..10u64 {
            for shard in 0..2 {
                let reference = injected.inject(shard, FaultOp::Search);
                let before = checked.op_count(shard, FaultOp::Search);
                if checked.pass(shard, FaultOp::Search) {
                    assert_eq!(checked.op_count(shard, FaultOp::Search), before + 1);
                    assert!(
                        reference.is_ok(),
                        "shard {shard} op {op}: passed a faulted op"
                    );
                } else {
                    assert_eq!(checked.op_count(shard, FaultOp::Search), before);
                    fired.push(op);
                    let faulted = checked.inject(shard, FaultOp::Search);
                    assert_eq!(faulted.is_ok(), reference.is_ok(), "op {op}");
                }
                assert_eq!(
                    checked.op_count(shard, FaultOp::Search),
                    injected.op_count(shard, FaultOp::Search),
                    "shard {shard} op {op}: counts diverged"
                );
            }
        }
        // Both windows' ops — a stall fires too — and nothing else.
        assert_eq!(fired, [2, 3, 6]);
        // Another op's counter is its own; a disarmed plan passes and
        // counts; an out-of-range shard passes and counts nothing.
        assert!(checked.pass(1, FaultOp::Insert));
        assert_eq!(checked.op_count(1, FaultOp::Insert), 1);
        let disarmed = plan(2);
        disarmed.disarm();
        for _ in 0..8 {
            assert!(disarmed.pass(1, FaultOp::Search));
        }
        assert_eq!(disarmed.op_count(1, FaultOp::Search), 8);
        assert!(plan(1).pass(7, FaultOp::Search));
    }

    #[test]
    fn unbounded_windows_are_persistent_until_disarmed() {
        let plan = FaultPlan::new(1).with_rule(FaultRule {
            shard: 0,
            op: FaultOp::Compact,
            from_op: 0,
            until_op: None,
            kind: FaultKind::Fail,
        });
        for _ in 0..10 {
            assert!(plan.inject(0, FaultOp::Compact).is_err());
        }
        plan.disarm();
        assert!(plan.inject(0, FaultOp::Compact).is_ok());
    }

    #[test]
    fn injected_panics_carry_the_marker_and_are_catchable() {
        juno_common::testing::silence_panics();
        let plan = FaultPlan::new(1).with_rule(FaultRule {
            shard: 0,
            op: FaultOp::Publish,
            from_op: 0,
            until_op: None,
            kind: FaultKind::Panic,
        });
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.inject(0, FaultOp::Publish)
        }));
        let payload = caught.expect_err("must panic");
        let msg = juno_common::parallel::panic_message(&*payload);
        assert!(msg.contains(INJECTED_PANIC_MARKER), "unmarked panic: {msg}");
    }

    #[test]
    fn out_of_range_shards_never_fire() {
        let plan = FaultPlan::new(1).with_rule(FaultRule {
            shard: 0,
            op: FaultOp::Search,
            from_op: 0,
            until_op: None,
            kind: FaultKind::Fail,
        });
        // A fleet grown past the plan's counter table silently no-ops.
        assert!(plan.inject(7, FaultOp::Search).is_ok());
    }
}
