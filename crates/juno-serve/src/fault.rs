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
//! RNG drawn at injection time), a chaos test replays **bit-identically**
//! given the same plan and the same per-shard operation sequence; the
//! seeded [`FaultPlan::chaos`] generator derives a whole rule set from one
//! `u64` so CI can fuzz with a printed, replayable seed.
//!
//! # Instrumented points
//!
//! * [`FaultOp::Search`] — the start of each shard scan **on the
//!   deadline-aware degraded read path**
//!   ([`crate::FleetReader::search_deadline`] and the batch variant). The
//!   legacy exact path ([`crate::FleetReader::search`]) is deliberately not
//!   instrumented: it is the bit-identity reference the differential suites
//!   compare against.
//! * [`FaultOp::Insert`] — per shard, before a writer mutation (insert
//!   batch or remove) takes that shard's staging engine: its retired epoch
//!   caught up, or a clone of its current state.
//! * [`FaultOp::Publish`] — per shard, immediately before the staged state's
//!   pointer swap; a fault here simulates a crash *between* per-shard
//!   publishes, which the writer must roll back.
//! * [`FaultOp::Compact`] — per shard, before a compaction sweep takes that
//!   shard's staging engine (as for `Insert`) to compact and publish.
//! * [`FaultOp::Restore`] — per restored shard, after validation but before
//!   the fleet swaps any state in.
//! * [`FaultOp::WalAppend`] — on the durability plane (shard 0 counters),
//!   after a mutation's WAL records are appended but **before** they are
//!   fsync'd: the post-append/pre-sync crash window.
//! * [`FaultOp::Checkpoint`] — after the checkpoint snapshot file is
//!   durably published but before the Checkpoint record is stamped into
//!   the log: the mid-checkpoint crash window.
//! * [`FaultOp::Rotate`] — after the WAL rotates to a fresh segment during
//!   a checkpoint but before sealed segments are pruned: the mid-rotation
//!   crash window.
//! * [`FaultOp::RebuildTrain`] — at the start of a background rebuild's
//!   training phase, after the reader pin and start-LSN capture (shard 0).
//! * [`FaultOp::RebuildReplay`] — before the rebuild replays the WAL suffix
//!   that landed during training into the shadow fleet (shard 0).
//! * [`FaultOp::RebuildSwap`] — per shard, immediately before the shadow
//!   state's epoch-pointer swap: the mid-publish crash window of the
//!   rebuild protocol.
//! * [`FaultOp::Split`] — per **new** shard during a split/merge resize,
//!   before its live-set surgery is derived.
//!
//! Injected panics carry [`juno_common::testing::INJECTED_PANIC_MARKER`] so
//! chaos suites can silence their print-out while real panics stay loud.
//! [`FaultKind::Crash`] aborts the whole process at the injection point —
//! it exists for subprocess crash harnesses (the parent spawns a child with
//! a Crash rule, waits for the abort, then recovers from the child's WAL
//! directory) and is therefore never drawn by [`FaultPlan::chaos`].

use juno_common::error::{Error, Result};
use juno_common::rng::{derive_seed, seeded, Rng};
use juno_common::testing::INJECTED_PANIC_MARKER;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// The operations instrumented with fault-injection points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// A shard scan on the deadline-aware read path.
    Search,
    /// Staging a writer mutation (insert / remove) on one shard's staging
    /// engine (its retired epoch caught up, or a clone).
    Insert,
    /// The per-shard pointer swap publishing a staged writer state.
    Publish,
    /// A shard compaction sweep.
    Compact,
    /// Restoring one shard from snapshot bytes.
    Restore,
    /// A mutation's WAL records were appended but not yet fsync'd
    /// (post-append/pre-sync). Fleet-level: counted on shard 0.
    WalAppend,
    /// A checkpoint snapshot was published but its Checkpoint record not
    /// yet logged (mid-checkpoint). Fleet-level: counted on shard 0.
    Checkpoint,
    /// The WAL rotated to a fresh segment but sealed segments were not yet
    /// pruned (mid-rotation). Fleet-level: counted on shard 0.
    Rotate,
    /// A background rebuild entered its training phase (reader pinned,
    /// start LSN captured). Fleet-level: counted on shard 0.
    RebuildTrain,
    /// A background rebuild is about to replay the WAL suffix that landed
    /// during training into its shadow fleet. Fleet-level: shard 0.
    RebuildReplay,
    /// The per-shard epoch-pointer swap publishing a rebuilt shadow state.
    RebuildSwap,
    /// Deriving one new shard's live set during a split/merge resize
    /// (counted on the **new** shard index).
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

    /// The operations [`FaultPlan::chaos`] draws rules over. The durability
    /// kill-points are excluded on purpose: chaos plans run against fleets
    /// with or without a WAL attached, and keeping the draw space fixed
    /// preserves seed-for-seed replayability of existing chaos suites.
    const CHAOS_OPS: [FaultOp; 5] = [
        FaultOp::Search,
        FaultOp::Insert,
        FaultOp::Publish,
        FaultOp::Compact,
        FaultOp::Restore,
    ];

    /// The operations [`FaultPlan::chaos_lifecycle`] draws rules over — the
    /// lifecycle plane's injection points. Kept separate from
    /// [`FaultOp::CHAOS_OPS`] so existing chaos suites replay seed-for-seed.
    const LIFECYCLE_OPS: [FaultOp; 4] = [
        FaultOp::RebuildTrain,
        FaultOp::RebuildReplay,
        FaultOp::RebuildSwap,
        FaultOp::Split,
    ];
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
    /// state is exact. Never drawn by [`FaultPlan::chaos`].
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

/// A deterministic, replayable chaos plan. See the [module docs](self).
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

    /// Derives a randomized-but-replayable plan from `seed`: each shard
    /// draws up to two rules with random op, kind, and counter window. The
    /// same seed always produces the same rule set — print the seed on
    /// failure and the run replays exactly.
    ///
    /// `max_stall` bounds injected stall durations (rules draw from
    /// `max_stall / 4 ..= max_stall`).
    pub fn chaos(seed: u64, num_shards: usize, max_stall: Duration) -> Self {
        // Persistent (unbounded) faults are rare draws; most chaos rules are
        // windowed so the fleet can recover.
        Self::draw(seed, num_shards, max_stall, &FaultOp::CHAOS_OPS, 6, 4, true)
    }

    /// [`FaultPlan::chaos`]'s sibling for the lifecycle plane: derives a
    /// replayable rule set over the rebuild/split injection points
    /// ([`FaultOp::RebuildTrain`] / [`FaultOp::RebuildReplay`] /
    /// [`FaultOp::RebuildSwap`] / [`FaultOp::Split`]). Every rule is
    /// windowed, so a retried lifecycle operation eventually clears its
    /// faults, and [`FaultKind::Crash`] is never drawn — kill-point
    /// coverage belongs to the subprocess crash harness.
    pub fn chaos_lifecycle(seed: u64, num_shards: usize, max_stall: Duration) -> Self {
        let ops = &FaultOp::LIFECYCLE_OPS;
        Self::draw(seed ^ 0x4C49_4645, num_shards, max_stall, ops, 3, 3, false)
    }

    /// The seeded rule draw behind both chaos generators: per shard, up to
    /// two rules over `ops`, starting at a counter below `from_below` and
    /// lasting fewer than `width_below` ops — or, one draw in eight when
    /// `may_persist`, forever. The draw order is part of every recorded
    /// seed's meaning.
    fn draw(
        seed: u64,
        num_shards: usize,
        max_stall: Duration,
        ops: &[FaultOp],
        from_below: u64,
        width_below: u64,
        may_persist: bool,
    ) -> Self {
        let mut plan = Self::new(num_shards);
        for shard in 0..num_shards {
            let mut rng = seeded(derive_seed(seed, shard as u64));
            let num_rules = rng.gen_range(0..=2usize);
            for _ in 0..num_rules {
                let op = ops[rng.gen_range(0..ops.len())];
                let from_op = rng.gen_range(0..from_below);
                let width = rng.gen_range(1..width_below);
                let until_op = if may_persist && rng.gen_range(0..8u32) == 0 {
                    None
                } else {
                    Some(from_op + width)
                };
                let kind = match rng.gen_range(0..4u32) {
                    0 => {
                        let lo = (max_stall / 4).max(Duration::from_micros(1));
                        let span = max_stall.saturating_sub(lo);
                        let extra = span.mul_f64(rng.gen::<f64>());
                        FaultKind::Stall(lo + extra)
                    }
                    1 => FaultKind::Transient,
                    2 => FaultKind::Fail,
                    _ => FaultKind::Panic,
                };
                plan.rules.push(FaultRule {
                    shard,
                    op,
                    from_op,
                    until_op,
                    kind,
                });
            }
        }
        plan
    }

    /// Number of shards the plan's counter table covers.
    pub fn num_shards(&self) -> usize {
        self.counters.len() / NUM_OPS
    }

    /// The rules of this plan.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Stops all injection (counters keep advancing, so windows keep
    /// sliding); models faults clearing.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Re-enables injection after [`FaultPlan::disarm`].
    pub fn rearm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Returns `true` while the plan injects faults.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// The number of times the `(shard, op)` injection point has been hit.
    pub fn op_count(&self, shard: usize, op: FaultOp) -> u64 {
        self.counters[shard * NUM_OPS + op.index()].load(Ordering::Relaxed)
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
    pub fn inject(&self, shard: usize, op: FaultOp) -> Result<()> {
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
        plan.rearm();
        assert!(plan.inject(0, FaultOp::Compact).is_err());
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
    fn chaos_plans_replay_identically_for_the_same_seed() {
        let a = FaultPlan::chaos(0xC0FFEE, 5, Duration::from_millis(10));
        let b = FaultPlan::chaos(0xC0FFEE, 5, Duration::from_millis(10));
        assert_eq!(a.rules(), b.rules());
        let c = FaultPlan::chaos(0xC0FFEF, 5, Duration::from_millis(10));
        assert_ne!(a.rules(), c.rules(), "different seeds draw different plans");
        // All generated rules stay inside the fleet.
        assert!(a.rules().iter().all(|r| r.shard < 5));
    }

    #[test]
    fn chaos_never_draws_crash_or_durability_kill_points() {
        for seed in 0..64u64 {
            let plan = FaultPlan::chaos(seed, 6, Duration::from_millis(5));
            for rule in plan.rules() {
                assert_ne!(rule.kind, FaultKind::Crash, "seed {seed}");
                assert!(
                    FaultOp::CHAOS_OPS.contains(&rule.op),
                    "seed {seed}: chaos drew durability op {:?}",
                    rule.op
                );
            }
        }
    }

    #[test]
    fn lifecycle_chaos_is_replayable_windowed_and_stays_on_lifecycle_ops() {
        let a = FaultPlan::chaos_lifecycle(0xBEEF, 4, Duration::from_millis(5));
        let b = FaultPlan::chaos_lifecycle(0xBEEF, 4, Duration::from_millis(5));
        assert_eq!(a.rules(), b.rules());
        for seed in 0..64u64 {
            let plan = FaultPlan::chaos_lifecycle(seed, 4, Duration::from_millis(5));
            for rule in plan.rules() {
                assert_ne!(rule.kind, FaultKind::Crash, "seed {seed}");
                assert!(
                    FaultOp::LIFECYCLE_OPS.contains(&rule.op),
                    "seed {seed}: lifecycle chaos drew {:?}",
                    rule.op
                );
                assert!(
                    rule.until_op.is_some(),
                    "seed {seed}: lifecycle rules must be windowed so retries clear"
                );
            }
        }
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
