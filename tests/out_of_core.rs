//! Out-of-core serving parity suite.
//!
//! PR 9 makes snapshots mmap-servable: the hot `CODE`/`LAYT` sections are
//! written in their exact in-memory layout (v3) and served zero-copy from
//! the mapped file, with per-cluster lazy residency under a configurable
//! budget. The contract this suite pins down:
//!
//! * **Bit-identical serving** — cold-start (every cluster faulted on its
//!   first probe), warm, and RAM-resident searches return the same ids and
//!   the same distance *bits*, across all three quality modes, after
//!   mutation, and through 1- and 4-shard fleets.
//! * **Out-of-core for real** — an index several times larger than the
//!   residency budget still serves bit-identical results, evicting and
//!   re-faulting clusters as the probe pattern moves.
//! * **Robustness** — corrupting any byte of a snapshot never panics either
//!   restore path, the two paths agree on which corruptions they accept, and
//!   a failed restore never leaves a live fleet partially mutated.
//!
//! (Snapshots older builds wrote are `tests/snapshot_upgrade.rs`' subject.)

use juno::prelude::*;
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("juno_ooc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A small engine with non-trivial layout state: append tails in several
/// clusters and tombstones in both the CSR base and the tails.
fn build_engine(seed: u64) -> (Dataset, JunoIndex) {
    let ds = DatasetProfile::DeepLike
        .generate(1_500, 8, seed)
        .expect("dataset");
    let config = JunoConfig {
        n_clusters: 16,
        nprobs: 5,
        pq_entries: 32,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let mut index = JunoIndex::build(&ds.points, &config).expect("build");
    for i in 0..40 {
        index.insert(ds.points.row(i * 7)).expect("insert");
    }
    for id in (0..400u64).step_by(9) {
        assert!(index.remove(id).expect("remove"));
    }
    (ds, index)
}

fn results_bits(index: &JunoIndex, ds: &Dataset) -> Vec<(u64, u32)> {
    ds.queries
        .iter()
        .flat_map(|q| {
            index
                .search(q, 15)
                .expect("search")
                .neighbors
                .into_iter()
                .map(|n| (n.id, n.distance.to_bits()))
        })
        .collect()
}

fn fleet_bits(fleet: &ShardedIndex<JunoIndex>, ds: &Dataset) -> Vec<(u64, u32)> {
    ds.queries
        .iter()
        .flat_map(|q| {
            fleet
                .search(q, 15)
                .expect("fleet search")
                .neighbors
                .into_iter()
                .map(|n| (n.id, n.distance.to_bits()))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Bit-identical serving: cold, warm, RAM-resident, across quality modes.
// ---------------------------------------------------------------------------

#[test]
fn mapped_serving_is_bit_identical_cold_and_warm_across_quality_modes() {
    let dir = scratch_dir("parity");
    let (ds, mut engine) = build_engine(31);
    let path = dir.join("engine.snap");
    engine.save_snapshot(&path).expect("save");

    let mut ram = JunoIndex::load_snapshot(&path).expect("copy restore");
    assert!(!ram.is_mapped());
    for quality in [QualityMode::High, QualityMode::Medium, QualityMode::Low] {
        engine.set_quality(quality);
        ram.set_quality(quality);
        // A fresh mapped restore per mode, so the *cold* pass (every
        // cluster faulted + verified on its first probe) is exercised for
        // each quality mode's probe pattern.
        let mut mapped =
            JunoIndex::load_snapshot_mapped(&path, &ResidencyConfig::default()).expect("map");
        mapped.set_quality(quality);
        assert!(mapped.is_mapped());

        let want = results_bits(&engine, &ds);
        assert_eq!(results_bits(&ram, &ds), want, "{quality:?}: RAM parity");
        let cold = results_bits(&mapped, &ds);
        assert_eq!(cold, want, "{quality:?}: cold mapped parity");
        let stats = mapped.residency_stats().expect("stats");
        assert!(stats.cold_faults > 0, "{quality:?}: cold pass faulted");
        let warm = results_bits(&mapped, &ds);
        assert_eq!(warm, want, "{quality:?}: warm mapped parity");
        let stats = mapped.residency_stats().expect("stats");
        assert!(stats.hits > 0, "{quality:?}: warm pass hit residency");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_search_parity_on_mapped_engine() {
    let dir = scratch_dir("batch");
    let (ds, engine) = build_engine(32);
    let path = dir.join("engine.snap");
    engine.save_snapshot(&path).expect("save");
    let mapped = JunoIndex::load_snapshot_mapped(&path, &ResidencyConfig::default()).expect("map");

    // The grouped batch executor takes its residency faults up front and
    // then scans from infallible parallel workers; results must still be
    // bit-identical to sequential RAM-resident searches.
    let batch = mapped.search_batch(&ds.queries, 15).expect("batch");
    for (qi, got) in batch.iter().enumerate() {
        let want = engine.search(ds.queries.row(qi), 15).expect("search");
        assert_eq!(got.ids(), want.ids(), "query {qi} ids");
        for (g, w) in got.neighbors.iter().zip(&want.neighbors) {
            assert_eq!(g.distance.to_bits(), w.distance.to_bits(), "query {qi}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Genuinely out of core: index ≥ 4x the residency budget.
// ---------------------------------------------------------------------------

#[test]
fn index_four_times_the_residency_budget_serves_identical_results() {
    let dir = scratch_dir("budget");
    let (ds, engine) = build_engine(33);
    let path = dir.join("engine.snap");
    engine.save_snapshot(&path).expect("save");

    // Measure the full cluster footprint with an unlimited budget, then
    // reload capped at a quarter of it.
    let probe =
        JunoIndex::load_snapshot_mapped(&path, &ResidencyConfig::default()).expect("map probe");
    let _ = results_bits(&probe, &ds);
    let full_bytes = probe.residency_stats().expect("stats").resident_bytes;
    assert!(full_bytes > 0);
    drop(probe);

    let tight = ResidencyConfig {
        budget_bytes: full_bytes / 4,
        pin_bytes: 0,
    };
    let mapped = JunoIndex::load_snapshot_mapped(&path, &tight).expect("map tight");
    let want = results_bits(&engine, &ds);
    for pass in 0..3 {
        assert_eq!(results_bits(&mapped, &ds), want, "pass {pass}");
    }
    let stats = mapped.residency_stats().expect("stats");
    assert!(
        stats.evictions > 0,
        "a 4x-oversized index must evict under the budget: {stats:?}"
    );
    assert!(stats.cold_faults > stats.evictions);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grouped_batch_faults_each_probed_cluster_once_at_any_thread_budget() {
    let dir = scratch_dir("touch_once");
    let (ds, engine) = build_engine(34);
    let path = dir.join("engine.snap");
    engine.save_snapshot(&path).expect("save");
    let probe =
        JunoIndex::load_snapshot_mapped(&path, &ResidencyConfig::default()).expect("map probe");
    let _ = results_bits(&probe, &ds);
    let full_bytes = probe.residency_stats().expect("stats").resident_bytes;
    drop(probe);
    let tight = ResidencyConfig {
        budget_bytes: full_bytes / 4,
        pin_bytes: 0,
    };

    // The batch pipeline takes its residency faults on the calling thread,
    // one touch per probed cluster, before any worker starts — so under a
    // budget that forces evictions the counters cannot depend on how many
    // workers there are or how they interleave.
    let batches = 3u64;
    let nprobs = engine.config().nprobs;
    let mut probed: Vec<usize> = ds
        .queries
        .iter()
        .flat_map(|q| engine.ivf().filter(q, nprobs).expect("filter").clusters)
        .collect();
    probed.sort_unstable();
    probed.dedup();
    let mut first = None;
    for threads in [1, 2, 4] {
        let mapped = JunoIndex::load_snapshot_mapped(&path, &tight).expect("map tight");
        for _ in 0..batches {
            mapped
                .search_batch_threads(&ds.queries, 15, threads)
                .expect("batch");
        }
        let stats = mapped.residency_stats().expect("stats");
        assert!(stats.evictions > 0, "{threads} threads: {stats:?}");
        assert_eq!(
            stats.hits + stats.cold_faults,
            batches * probed.len() as u64,
            "{threads} threads: one touch per probed cluster and batch: {stats:?}"
        );
        assert_eq!(*first.get_or_insert(stats), stats, "{threads} threads");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Mutation on a mapped engine.
// ---------------------------------------------------------------------------

#[test]
fn mutation_on_mapped_engine_matches_copy_restored_engine() {
    let dir = scratch_dir("mutate");
    let (ds, engine) = build_engine(34);
    let path = dir.join("engine.snap");
    engine.save_snapshot(&path).expect("save");

    let mut ram = JunoIndex::load_snapshot(&path).expect("copy restore");
    let mut mapped =
        JunoIndex::load_snapshot_mapped(&path, &ResidencyConfig::default()).expect("map");

    // Appends go to owned tails, removals to the owned bitmap; ids must
    // allocate identically and searches must stay bit-identical.
    for i in 0..25 {
        let a = ram.insert(ds.points.row(i * 13)).expect("ram insert");
        let b = mapped.insert(ds.points.row(i * 13)).expect("mapped insert");
        assert_eq!(a, b, "insert {i} id");
    }
    for id in (3..300u64).step_by(17) {
        assert_eq!(
            ram.remove(id).expect("ram remove"),
            mapped.remove(id).expect("mapped remove"),
            "remove {id}"
        );
    }
    assert_eq!(results_bits(&ram, &ds), results_bits(&mapped, &ds));

    // Compaction pulls every mapped cluster into owned storage (verifying
    // it) and drops the mapping; results are unchanged.
    mapped.compact().expect("compact");
    ram.compact().expect("compact");
    assert!(!mapped.list_codes().is_mapped());
    assert_eq!(results_bits(&ram, &ds), results_bits(&mapped, &ds));

    // Re-snapshotting the (previously) mapped engine round-trips.
    let path2 = dir.join("engine2.snap");
    mapped.save_snapshot(&path2).expect("re-save");
    let back = JunoIndex::load_snapshot(&path2).expect("reload");
    assert_eq!(results_bits(&back, &ds), results_bits(&ram, &ds));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Fleets: S ∈ {1, 4}, copy vs mapped restore, unsharded engine files.
// ---------------------------------------------------------------------------

#[test]
fn fleet_snapshots_serve_identically_mapped_and_copied() {
    for shards in [1usize, 4] {
        let dir = scratch_dir(&format!("fleet{shards}"));
        let (ds, engine) = build_engine(35 + shards as u64);
        let prototype = engine.clone();
        let fleet = ShardedIndex::from_monolith(engine, shards, ShardRouter::Hash { seed: 13 })
            .expect("fleet");
        let path = dir.join("fleet.snap");
        fleet.save_to_path(&path).expect("save fleet");
        let want = fleet_bits(&fleet, &ds);

        let copied =
            ShardedIndex::from_snapshot_path(prototype.clone(), &path).expect("copy restore");
        assert_eq!(fleet_bits(&copied, &ds), want, "S={shards}: copy parity");

        let mapped =
            ShardedIndex::from_snapshot_path_mapped(prototype, &path, &ResidencyConfig::default())
                .expect("mapped restore");
        // Cold, then warm.
        assert_eq!(fleet_bits(&mapped, &ds), want, "S={shards}: cold parity");
        assert_eq!(fleet_bits(&mapped, &ds), want, "S={shards}: warm parity");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn unsharded_engine_file_maps_into_single_shard_fleet() {
    let dir = scratch_dir("unsharded_engine");
    let (ds, engine) = build_engine(40);
    let path = dir.join("engine.snap");
    engine.save_snapshot(&path).expect("save");
    let want = results_bits(&engine, &ds);

    let fleet =
        ShardedIndex::from_snapshot_path_mapped(engine.clone(), &path, &ResidencyConfig::default())
            .expect("mapped unsharded restore");
    assert_eq!(fleet.num_shards(), 1);
    let got: Vec<(u64, u32)> = fleet_bits(&fleet, &ds);
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Corruption: never panic, never partially mutate.
// ---------------------------------------------------------------------------

#[test]
fn corrupted_v3_snapshots_never_panic_either_restore_path() {
    let dir = scratch_dir("fuzz");
    let (ds, engine) = build_engine(37);
    let bytes = engine.to_snapshot_bytes();
    let path = dir.join("engine.snap");

    // Truncations through the copy path.
    for len in (0..bytes.len()).step_by(499) {
        assert!(JunoIndex::from_snapshot_bytes(&bytes[..len]).is_err());
    }
    // Byte flips through both paths, on a prime stride so every container
    // region (headers, directories, hot arrays, checksums) gets hit. The
    // flip may land in cold padding (a successful load is fine); what is
    // forbidden is a panic — in restore *or* in the lazily-verified
    // searches afterwards.
    for at in (0..bytes.len()).step_by(509) {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x40;
        let _ = JunoIndex::from_snapshot_bytes(&corrupt);

        std::fs::write(&path, &corrupt).expect("write corrupt");
        let _ = std::fs::remove_file(juno::common::atomic_file::prev_path(&path));
        if let Ok(mapped) = JunoIndex::load_snapshot_mapped(&path, &ResidencyConfig::default()) {
            for qi in 0..ds.queries.len().min(3) {
                let _ = mapped.search(ds.queries.row(qi), 10);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One walk, two ways to open it: over a seeded sample of single-byte flips
/// and prefix truncations, the copy loader and the mapped loader (followed
/// by full content verification) never panic and never disagree in the
/// dangerous direction. Whatever the copy loader accepts the mapped loader
/// accepts too; the mapped loader may additionally accept a flip in a byte
/// *no* decoder reads — alignment padding of a hot section, or the
/// container checksum word it skips for one — and then the index it serves
/// is, byte for byte, the pristine one.
#[test]
fn copy_and_mapped_loaders_agree_on_flips_and_truncations() {
    use juno::common::rng::{seeded, Rng};
    let (_, engine) = build_engine(39);
    let engine_bytes = engine.to_snapshot_bytes();
    let fleet = ShardedIndex::from_monolith(engine.clone(), 3, ShardRouter::Hash { seed: 5 })
        .expect("fleet");
    let fleet_bytes = fleet.to_snapshot_bytes().expect("fleet bytes");
    let residency = ResidencyConfig::default();

    // Each loader's verdict: the canonical re-serialisation of what it
    // restored, or the refusal.
    let engine_copy =
        |bytes: &[u8]| JunoIndex::from_snapshot_bytes(bytes).map(|i| i.to_snapshot_bytes());
    let engine_mapped = |bytes: &[u8]| {
        let map = Mmap::from_bytes(bytes.to_vec());
        let index = JunoIndex::from_mapped(&map, 0, map.len(), &residency)?;
        index.codes().ensure_verified()?;
        index.list_codes().ensure_resident_all()?;
        Ok(index.to_snapshot_bytes())
    };
    let fleet_copy = |bytes: &[u8]| {
        ShardedIndex::from_snapshot_bytes(engine.clone(), bytes)?.to_snapshot_bytes()
    };
    let fleet_mapped = |bytes: &[u8]| {
        let mut restored = ShardedIndex::from_monolith(engine.clone(), 1, ShardRouter::Modulo)?;
        restored.restore_from_mapped(&Mmap::from_bytes(bytes.to_vec()), &residency)?;
        // `snapshot()` verifies every shard's mapped content first.
        restored.to_snapshot_bytes()
    };

    type Verdict = juno::common::Result<Vec<u8>>;
    let check = |pristine: &[u8],
                 copy: &dyn Fn(&[u8]) -> Verdict,
                 mapped: &dyn Fn(&[u8]) -> Verdict,
                 flips: usize,
                 label: &str| {
        let mut rng = seeded(0xD1FF ^ pristine.len() as u64);
        for i in 0..flips {
            let at = rng.gen_range(0..pristine.len());
            let mut corrupt = pristine.to_vec();
            corrupt[at] ^= 1 << rng.gen_range(0..8usize);
            match (copy(&corrupt), mapped(&corrupt)) {
                (Err(_), Err(_)) => {}
                (Ok(a), Ok(b)) => assert!(a == b, "{label}: flip {i} at byte {at}"),
                (Ok(_), Err(err)) => {
                    panic!("{label}: flip at {at} restores by copy but not mapped: {err}")
                }
                (Err(_), Ok(served)) => assert!(
                    served == pristine,
                    "{label}: flip at byte {at} passed the mapped loader and changed content"
                ),
            }
        }
        for i in 0..24 {
            let len = rng.gen_range(0..pristine.len());
            assert!(copy(&pristine[..len]).is_err(), "{label}: cut {i} to {len}");
            assert!(
                mapped(&pristine[..len]).is_err(),
                "{label}: cut {i} to {len}"
            );
        }
    };
    check(&engine_bytes, &engine_copy, &engine_mapped, 120, "engine");
    check(&fleet_bytes, &fleet_copy, &fleet_mapped, 60, "fleet");
}

#[test]
fn failed_restores_leave_the_live_fleet_untouched() {
    let dir = scratch_dir("no_partial");
    let (ds, engine) = build_engine(38);
    let mut fleet =
        ShardedIndex::from_monolith(engine, 3, ShardRouter::Hash { seed: 7 }).expect("fleet");
    let before_ids = fleet.ids();
    let before_bits = fleet_bits(&fleet, &ds);
    let good = fleet.to_snapshot_bytes().expect("fleet bytes");

    for at in (24..good.len()).step_by(1021) {
        let mut corrupt = good.clone();
        corrupt[at] ^= 0xFF;
        // Corruption may land in cold padding and restore successfully;
        // roll back via the good bytes so the next iteration starts from
        // the same state. What must never happen is a *failed* restore
        // that changed anything.
        match fleet.restore_from_bytes(&corrupt) {
            Ok(()) => fleet.restore_from_bytes(&good).expect("roll back"),
            Err(_) => {
                assert_eq!(fleet.ids(), before_ids, "byte {at}: ids after failure");
            }
        }
        let map = Mmap::from_bytes(corrupt);
        match fleet.restore_from_mapped(&map, &ResidencyConfig::default()) {
            Ok(()) => fleet.restore_from_bytes(&good).expect("roll back"),
            Err(_) => {
                assert_eq!(
                    fleet.ids(),
                    before_ids,
                    "byte {at}: ids after mapped failure"
                );
            }
        }
    }
    assert_eq!(fleet_bits(&fleet, &ds), before_bits);
    let _ = std::fs::remove_dir_all(&dir);
}
