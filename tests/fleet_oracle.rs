//! The fleet oracle: seeded histories over everything a fleet does, each
//! held to a monolith after every step (see `oracle/mod.rs`).
//!
//! Fixed seeds always run, plus `JUNO_SIM_SEED` when set (printed, so a
//! randomized CI run replays exactly). Across the fixed seeds every
//! [`FaultOp`] × in-process [`FaultKind`] pair must fire at least once: the
//! pairs come from [`FaultOp::ALL`], so a site that loses its injection
//! point fails here. A failing seed prints its history as a literal; paste
//! it into `replay` below to debug it as a plain test.

mod common;
mod oracle;

use juno::common::rng::seeded;
use juno::prelude::*;
use oracle::{Kind, Op, Sim, Step, World, IN_PROCESS, NEVER_ALLOCATED};
use std::collections::BTreeSet;
use std::sync::OnceLock;

const FIXED_SEEDS: [u64; 3] = [0x0A11_5EED, 0x5EED_0002, 0x5EED_0003];
const STEPS: usize = 200;

/// 2400 points behind four shards: 600 a shard, so one missed record is
/// caught up and a batch's two or three are cloned.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::new(2400, 4))
}

fn root(label: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("juno_oracle_{label}_{}", std::process::id()))
}

/// What one seed's history did: the `(site, kind)` pairs that fired, its
/// ops, and its recoveries past a rotted checkpoint `(refused, fell back)`.
struct Run {
    fired: BTreeSet<(usize, Kind)>,
    ops: Vec<Op>,
    rotted: (usize, usize),
}

fn run_seed(seed: u64) -> Run {
    let label = format!("seed {seed:#x} (JUNO_SIM_SEED={seed})");
    let mut sim = Sim::new(world(), &label, root(&format!("{seed:x}")), true, true);
    sim.run(&mut seeded(seed), STEPS);
    let (reused, cloned) = sim.stages();
    assert!(
        reused > 0 && cloned > 0,
        "{label}: {reused} reused, {cloned} cloned"
    );
    let ops = sim.history.iter().map(|step| step.0).collect();
    Run {
        fired: std::mem::take(&mut sim.fired),
        ops,
        rotted: sim.rotted,
    }
}

#[test]
fn seeded_histories_match_the_monolith_after_every_step() {
    juno::common::testing::silence_panics();
    let mut seeds = FIXED_SEEDS.to_vec();
    if let Ok(raw) = std::env::var("JUNO_SIM_SEED") {
        let seed = raw.parse().expect("JUNO_SIM_SEED must be a u64");
        println!("JUNO_SIM_SEED={seed}");
        seeds.push(seed);
    }
    world();
    let runs: Vec<Run> = std::thread::scope(|scope| {
        let runs: Vec<_> = (seeds.iter())
            .map(|&seed| scope.spawn(move || run_seed(seed)))
            .collect();
        let runs = runs
            .into_iter()
            .map(|run| run.join().expect("a seed failed"));
        runs.collect()
    });

    let fixed = &runs[..FIXED_SEEDS.len()];
    let fired: BTreeSet<(usize, Kind)> = fixed.iter().flat_map(|run| run.fired.clone()).collect();
    let missing: Vec<(FaultOp, Kind)> = (FaultOp::ALL.iter().enumerate())
        .flat_map(|(site, &op)| IN_PROCESS.map(|kind| (site, op, kind)))
        .filter(|&(site, _, kind)| !fired.contains(&(site, kind)))
        .map(|(_, op, kind)| (op, kind))
        .collect();
    assert!(
        missing.is_empty(),
        "no fixed seed fired {missing:?}: an injection site is gone, or no op reaches it"
    );
    // The histories are not degenerate: every op ran, rebuilds ran with
    // writes landing while they trained, and a rotted newest checkpoint was
    // both fallen back past and (its predecessor's records pruned) refused.
    let ops: Vec<Op> = fixed.iter().flat_map(|run| run.ops.clone()).collect();
    let ran = |pred: &dyn Fn(&Op) -> bool| ops.iter().filter(|op| pred(op)).count();
    let rotted = |side: fn((usize, usize)) -> usize| fixed.iter().map(|r| side(r.rotted)).sum();
    for (what, n) in [
        ("insert", ran(&|op| matches!(op, Op::Insert(_)))),
        ("batch", ran(&|op| matches!(op, Op::Batch(..)))),
        (
            "never-allocated remove",
            ran(&|op| *op == Op::Remove(NEVER_ALLOCATED)),
        ),
        ("compact", ran(&|op| *op == Op::Compact)),
        ("checkpoint", ran(&|op| *op == Op::Checkpoint)),
        (
            "quiescent rebuild",
            ran(&|op| matches!(op, Op::Rebuild(_, 0))),
        ),
        (
            "concurrent rebuild",
            ran(&|op| matches!(op, Op::Rebuild(_, 1..))),
        ),
        ("resize", ran(&|op| matches!(op, Op::Resize(_)))),
        ("restore", ran(&|op| *op == Op::Restore)),
        ("mapped restore", ran(&|op| *op == Op::RestoreMapped)),
        ("pin", ran(&|op| *op == Op::Pin)),
        ("unpin", ran(&|op| *op == Op::Unpin)),
        ("search", ran(&|op| matches!(op, Op::Search(_)))),
        ("recovery", ran(&|op| *op == Op::Recover(false))),
        ("refused recovery past a rotted checkpoint", rotted(|r| r.0)),
        ("fallback past a rotted checkpoint", rotted(|r| r.1)),
    ] {
        assert!(n > 0, "the fixed seeds never ran a {what}");
    }
}

/// A pasted history: a batch whose publish fails on shard 2 after its
/// records were logged, then a recovery, which must skip them (the
/// rollback's `Abort`) and leave the allocator where the monolith's is.
#[test]
fn replay() {
    juno::common::testing::silence_panics();
    let history = vec![
        Step(Op::Insert(0), None),
        Step(Op::Insert(1), None),
        Step(Op::Pin, None),
        Step(Op::Batch(2, 3), Some((FaultOp::Publish, 2, 0, Kind::Fail))),
        Step(Op::Remove(7), None),
        Step(Op::Remove(7), None),
        Step(Op::Recover(false), None),
        Step(Op::Insert(5), None),
        Step(Op::Unpin, None),
    ];
    let mut sim = Sim::new(world(), "replay", root("replay"), true, true);
    sim.replay(&history);
}
