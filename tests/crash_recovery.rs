//! Kill-point crash harness for the durability plane.
//!
//! The only honest way to test crash consistency is to crash. Each kill
//! point re-runs **this test binary as a child** (the `crash_child_entry`
//! test, armed through the `JUNO_CRASH_CHILD` env var), which drives a
//! seeded oracle history (`oracle/mod.rs`, without in-process faults)
//! against a WAL-attached fleet and dies by `std::process::abort()` at one
//! [`FaultKind::Crash`] rule. Where it dies is not a constant: the parent
//! first runs the same history in process (the dry run), records the
//! `(site, shard, count)` every step reached, and draws the kill point from
//! those. The child prints `acked <i>` after each step, so the parent knows
//! the surviving prefix; it recovers the child's directory and holds the
//! recovered fleet to the monolith of that prefix — plus the step in flight
//! when its effect was durable before the kill point (`durable_at`: a
//! write's records are logged before its publish, a rebuild's or resize's
//! sealing snapshot is on disk before its Checkpoint record) — by ids,
//! per-shard ids, distance bits, topology and the id allocator. The
//! recovered fleet then checkpoints, completing the protocol its
//! predecessor died in.
//!
//! The named tests own one protocol step each;
//! `every_other_kill_point_recovers_bit_identically` owns the rest of
//! [`FaultOp::ALL`]. A site that loses its injection point leaves its test
//! without a kill point to draw, and fails it.
//!
//! A fixed seed always runs, plus `JUNO_SIM_SEED` when set (printed, so a
//! CI failure replays exactly). Below them: torn tails sheared at every byte
//! of an unsynced batch. (Falling back past a rotted checkpoint, and
//! refusing to across pruned records, is the fleet oracle's.)

mod common;
mod oracle;

use common::{assert_bit_identical, Stats};
use juno::common::rng::{seeded, Rng};
use juno::common::wal;
use juno::prelude::*;
use oracle::{durability, durable_at, owned_by, Kind, Op, Sim, Step, World};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex, OnceLock};

const FIXED_SEED: u64 = 0xC0A5;
const STEPS: usize = 40;

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::new(600, 3))
}

fn seeds() -> Vec<u64> {
    let mut seeds = vec![FIXED_SEED];
    if let Ok(raw) = std::env::var("JUNO_SIM_SEED") {
        seeds.push(raw.parse().expect("JUNO_SIM_SEED must be a u64"));
    }
    seeds
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("juno_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Ten acknowledged inserts, a checkpoint (so the next records open a
/// fresh segment), then a batch of three for a torn tail.
fn torn_history() -> Vec<Step> {
    let mut steps: Vec<Step> = (0..10).map(|row| Step(Op::Insert(row), None)).collect();
    steps.push(Step(Op::Checkpoint, None));
    steps.push(Step(Op::Batch(10, 3), None));
    steps
}

// ---------------------------------------------------------------------------
// The child: re-entered via `current_exe()` with JUNO_CRASH_CHILD set.
// ---------------------------------------------------------------------------

/// No-op in a normal test run. As a child, `JUNO_CRASH_CHILD` reads
/// `<seed|torn>:<step>:<site>:<shard>:<counter>:<root>`: it runs that
/// history with a WAL under `root` and a crash rule on the given step.
#[test]
fn crash_child_entry() {
    let Ok(spec) = std::env::var("JUNO_CRASH_CHILD") else {
        return;
    };
    let parts: Vec<&str> = spec.splitn(6, ':').collect();
    let number = |i: usize| -> u64 { parts[i].parse().expect("a number") };
    let (at, site) = (number(1) as usize, FaultOp::ALL[number(2) as usize]);
    let crash = (site, number(3) as usize, number(4), Kind::Crash);
    let torn = (parts[0] == "torn").then(torn_history);
    let mut rng = seeded(if torn.is_some() { 0 } else { number(0) });

    let mut sim = Sim::new(
        world(),
        "crash child",
        PathBuf::from(parts[5]),
        false,
        false,
    );
    for i in 0..=at {
        let mut step = match &torn {
            Some(history) => history[i],
            None => sim.draw(&mut rng),
        };
        if i == at {
            step.1 = Some(crash);
        }
        sim.step(step);
        println!("acked {i}");
    }
    panic!("the crash rule never fired — the harness is not testing anything");
}

/// Runs the child to its death; returns its last acknowledged step.
fn spawn_child_to_death(spec: &str) -> Option<usize> {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .args(["crash_child_entry", "--exact", "--nocapture"])
        .env("JUNO_CRASH_CHILD", spec)
        .output()
        .expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success() && stderr.contains("[injected-fault] crash"),
        "{spec}: the child did not die at its kill point\n\
         --- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
    );
    // Not `strip_prefix`: under `--nocapture` libtest prints the
    // "test crash_child_entry ... " banner without a newline, so the
    // child's first ack arrives glued to it mid-line.
    stdout
        .lines()
        .filter_map(|l| l.split("acked ").nth(1))
        .filter_map(|s| s.trim().parse::<usize>().ok())
        .max()
}

// ---------------------------------------------------------------------------
// The parent: dry run, kill point, recovery.
// ---------------------------------------------------------------------------

/// A seed's history run in process: its steps, the `(site, shard, count)`
/// each reached, and the monolith and shard count before each step (and
/// after the last).
struct DryRun {
    steps: Vec<Step>,
    hits: Vec<Vec<(FaultOp, usize, u64)>>,
    monos: Vec<JunoIndex>,
    shards: Vec<usize>,
}

fn dry_run(seed: u64) -> Arc<DryRun> {
    static RUNS: Mutex<BTreeMap<u64, Arc<DryRun>>> = Mutex::new(BTreeMap::new());
    let mut runs = RUNS.lock().expect("dry runs");
    let run = runs.entry(seed).or_insert_with(|| {
        let label = format!("crash dry run, seed {seed:#x} (JUNO_SIM_SEED={seed})");
        let root = scratch_dir(&format!("dry_{seed:x}"));
        let mut sim = Sim::new(world(), &label, root, false, true);
        let mut rng = seeded(seed);
        let mut run = DryRun {
            steps: Vec::new(),
            hits: Vec::new(),
            monos: vec![sim.mono().clone()],
            shards: vec![sim.num_shards()],
        };
        for _ in 0..STEPS {
            let step = sim.draw(&mut rng);
            run.hits.push(sim.step(step));
            run.steps.push(step);
            run.monos.push(sim.mono().clone());
            run.shards.push(sim.num_shards());
        }
        Arc::new(run)
    });
    run.clone()
}

/// Recovered vs the monolith it must equal: ids, each shard's ids, search
/// bits on every query, and the id allocator (probed on a copy).
fn assert_recovered(recovered: &ShardedIndex<JunoIndex>, want: &JunoIndex, label: &str) {
    let ids = want.ids();
    assert_eq!(recovered.ids(), ids, "{label}: ids");
    let reader = recovered.reader();
    let shards = reader.num_shards();
    for s in 0..shards {
        let owned = owned_by(&ids, shards, s);
        assert_eq!(
            reader.shard(s).index().ids(),
            owned,
            "{label}: shard {s}'s ids"
        );
    }
    let queries = world().queries.iter();
    let (got, wanted): (Vec<_>, Vec<_>) = queries
        .map(|q| {
            (
                recovered.search(q, 10).unwrap(),
                want.search(q, 10).unwrap(),
            )
        })
        .unzip();
    assert_bit_identical(&got, &wanted, Stats::Any, label);
    let probe: Vec<f32> = (0..want.dim()).map(|d| 0.25 + d as f32 * 0.125).collect();
    assert_eq!(
        recovered.insert_shared(&probe).expect("recovered probe"),
        want.clone().insert(&probe).expect("monolith probe"),
        "{label}: id allocator diverged"
    );
}

/// Kills a child at a `site` hit inside a step whose op `within` accepts,
/// drawn from the dry run of every seed, and recovers it.
fn kill(site: FaultOp, within: fn(Op) -> bool) {
    for seed in seeds() {
        let dry = dry_run(seed);
        let points: Vec<(usize, usize, u64)> = (dry.hits.iter().enumerate())
            .filter(|&(i, _)| within(dry.steps[i].0))
            .flat_map(|(i, hits)| hits.iter().map(move |&hit| (i, hit)))
            .filter(|&(_, (hit, _, _))| hit == site)
            .flat_map(|(i, (_, shard, n))| (0..n).map(move |counter| (i, shard, counter)))
            .collect();
        if points.is_empty() {
            // The fixed seed must reach every kill point; a random one may
            // not draw the op that does.
            assert_ne!(
                seed, FIXED_SEED,
                "no step of the dry run reached a {site:?} kill point"
            );
            eprintln!("crash-recovery: seed {seed:#x} reached no {site:?} kill point");
            continue;
        }
        let site_index = FaultOp::ALL.iter().position(|&op| op == site).unwrap();
        let mut rng = seeded(seed ^ site_index as u64);
        let (at, shard, counter) = points[rng.gen_range(0..points.len())];
        let op = dry.steps[at].0;
        let label = format!("seed {seed:#x} (JUNO_SIM_SEED={seed}), {site:?} in step {at} {op:?}");
        eprintln!("crash-recovery: {label}");

        let root = scratch_dir(&format!("{seed:x}_{site:?}_{at}"));
        let spec = format!(
            "{seed}:{at}:{site_index}:{shard}:{counter}:{}",
            root.display()
        );
        assert_eq!(spawn_child_to_death(&spec), at.checked_sub(1), "{label}");
        let after = at + usize::from(durable_at(op, site));
        let (recovered, report) =
            ShardedIndex::recover_from_dir(world().engine.clone(), &root.join("wal"), durability())
                .expect("recovery");
        assert_eq!(
            report.checkpoints_tried, 1,
            "{label}: newest generation restores"
        );
        assert_eq!(
            recovered.num_shards(),
            dry.shards[after],
            "{label}: topology"
        );
        assert_recovered(&recovered, &dry.monos[after], &label);
        recovered.checkpoint().expect("post-recovery checkpoint");
        let _ = std::fs::remove_dir_all(&root);
    }
}

fn any(_: Op) -> bool {
    true
}

#[test]
fn crash_post_append_pre_sync_recovers_bit_identically() {
    kill(FaultOp::WalAppend, any);
}

#[test]
fn crash_post_sync_pre_publish_recovers_bit_identically() {
    kill(FaultOp::Publish, any);
}

#[test]
fn crash_mid_checkpoint_recovers_bit_identically() {
    kill(FaultOp::Checkpoint, |op| op == Op::Checkpoint);
}

#[test]
fn crash_mid_rotation_recovers_bit_identically() {
    kill(FaultOp::Rotate, any);
}

/// Some shards already serve the fresh lineage; recovery lands on the old
/// one plus the full suffix, never a hybrid.
#[test]
fn crash_mid_rebuild_swap_recovers_the_old_lineage_never_hybrid() {
    kill(FaultOp::RebuildSwap, any);
}

#[test]
fn crash_in_rebuild_sealing_checkpoint_recovers_the_new_lineage() {
    kill(FaultOp::Checkpoint, |op| matches!(op, Op::Rebuild(..)));
}

#[test]
fn crash_mid_split_keeps_the_old_topology() {
    kill(FaultOp::Split, any);
}

#[test]
fn crash_in_split_sealing_checkpoint_recovers_the_new_topology() {
    kill(FaultOp::Checkpoint, |op| matches!(op, Op::Resize(_)));
}

/// The sites the tests above do not own.
#[test]
fn every_other_kill_point_recovers_bit_identically() {
    let owned = [
        FaultOp::WalAppend,
        FaultOp::Publish,
        FaultOp::Checkpoint,
        FaultOp::Rotate,
        FaultOp::RebuildSwap,
        FaultOp::Split,
    ];
    for site in FaultOp::ALL.into_iter().filter(|op| !owned.contains(op)) {
        kill(site, any);
    }
}

// ---------------------------------------------------------------------------
// Torn tails: crash, then shear the unsynced suffix at every byte offset.
// ---------------------------------------------------------------------------

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("copy target");
    for entry in std::fs::read_dir(from).expect("read dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
    }
}

/// After a post-append/pre-sync crash the final batch's three records are
/// exactly the unsynced tail. A power loss may persist any byte-prefix of
/// them; recovery must keep precisely the whole records and never panic.
///
/// Cut offsets cover every byte inside the final record plus both sides of
/// every record boundary (the per-byte exhaustive sweep over *arbitrary*
/// logs lives in the WAL unit tests; this one proves the property through
/// the full fleet recovery stack on a real crash artifact).
#[test]
fn torn_tail_after_crash_recovers_an_exact_record_prefix() {
    let root = scratch_dir("torn");
    let wal_site = FaultOp::ALL.iter().position(|&op| op == FaultOp::WalAppend);
    let spec = format!("torn:11:{}:0:0:{}", wal_site.unwrap(), root.display());
    assert_eq!(
        spawn_child_to_death(&spec),
        Some(10),
        "ten acked singles and a checkpoint"
    );
    let dir = root.join("wal");

    let pool = &world().pool;
    let dim = pool.row(0).len();
    // One insert record on disk: header + tag + dim + the f32 payload.
    let record = wal::RECORD_HEADER + 1 + 4 + 4 * dim;
    let tail = 3 * record;
    let (_, seg_path) = wal::list_segments(&dir)
        .expect("segments")
        .into_iter()
        .next_back()
        .expect("a segment exists");
    let full_len = std::fs::metadata(&seg_path).expect("segment meta").len() as usize;
    assert!(full_len > tail, "segment must hold more than the torn tail");

    let mut cuts: Vec<usize> = (1..=record).collect();
    cuts.extend([
        record + 1,
        2 * record - 1,
        2 * record,
        2 * record + 1,
        3 * record - 1,
        3 * record,
    ]);
    for cut in cuts {
        let survived = (tail - cut) / record;
        let mut want = world().engine.clone();
        for row in 0..10 + survived {
            want.insert(pool.row(row)).expect("reference insert");
        }
        let work = scratch_dir(&format!("torn_cut_{cut}"));
        copy_dir(&dir, &work);
        let torn_seg = work.join(seg_path.file_name().expect("segment name"));
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&torn_seg)
            .expect("open torn segment");
        file.set_len((full_len - cut) as u64).expect("truncate");
        drop(file);

        let (recovered, report) =
            ShardedIndex::recover_from_dir(world().engine.clone(), &work, durability())
                .expect("torn recovery");
        let torn = ((tail - cut) % record) as u64;
        assert_eq!(report.torn_bytes, torn, "cut {cut}: garbage truncated");
        assert_recovered(&recovered, &want, &format!("torn cut {cut}"));
        let _ = std::fs::remove_dir_all(&work);
    }
    let _ = std::fs::remove_dir_all(&root);
}
