//! Snapshot persistence contract: save → load yields **bit-identical**
//! `SearchResult`s (ids and distance bit patterns) for the JUNO engine and
//! the IVF-PQ baseline, across seeds, metrics, quality modes, and after a
//! mix of inserts / deletions / compaction. Corrupted snapshot bytes must be
//! rejected with an `Err`, never a panic.

mod common;

use common::{assert_bit_identical, search_all, Stats};
use juno::baseline::ivf_flat::{IvfFlatConfig, IvfFlatIndex};
use juno::common::rng::{seeded, Rng};
use juno::prelude::*;
use juno::serve::{ShardRouter, ShardedIndex};

#[test]
fn juno_save_load_is_bit_identical_across_seeds_and_mutations() {
    for seed in [5u64, 77, 2_024] {
        let ds = DatasetProfile::DeepLike
            .generate(1_500, 8, seed)
            .expect("dataset");
        let extra = DatasetProfile::DeepLike
            .generate(120, 1, seed ^ 0xFFFF)
            .expect("extra");
        let mut index = JunoIndex::build(
            &ds.points,
            &JunoConfig {
                n_clusters: 16,
                nprobs: 6,
                pq_entries: 32,
                ..JunoConfig::small_test(ds.dim(), ds.metric())
            },
        )
        .expect("build");

        // Fresh index round-trip.
        let before = search_all(&index, &ds.queries, 25);
        let restored = JunoIndex::from_snapshot_bytes(&index.snapshot().expect("snapshot"))
            .expect("restore fresh");
        assert_bit_identical(
            &before,
            &search_all(&restored, &ds.queries, 25),
            Stats::Any,
            &format!("seed {seed} fresh"),
        );

        // Property-style mutation loop: random interleaving of inserts and
        // deletes, snapshotting after every round.
        let mut rng = seeded(seed.wrapping_mul(31));
        let mut inserted = 0usize;
        for round in 0..3 {
            for _ in 0..25 {
                if rng.gen_range(0..2usize) == 0 && inserted < extra.points.len() {
                    index.insert(extra.points.row(inserted)).expect("insert");
                    inserted += 1;
                } else {
                    let id = rng.gen_range(0..index.ivf().labels().len());
                    let _ = index.remove(id as u64).expect("remove");
                }
            }
            if round == 2 {
                index.compact().expect("compact");
            }
            let label = format!("seed {seed} round {round}");
            let before = search_all(&index, &ds.queries, 25);
            let bytes = index.snapshot().expect("snapshot");
            let restored = JunoIndex::from_snapshot_bytes(&bytes).expect("restore mutated");
            assert_bit_identical(
                &before,
                &search_all(&restored, &ds.queries, 25),
                Stats::Any,
                &label,
            );
            assert_eq!(restored.len(), index.len(), "{label}: live count");
        }
    }
}

#[test]
fn juno_save_load_is_bit_identical_under_mips_and_quality_modes() {
    let ds = DatasetProfile::TtiLike.generate(1_200, 8, 44).expect("ds");
    let mut index = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 16,
            nprobs: 8,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("build");
    for quality in [QualityMode::High, QualityMode::Medium, QualityMode::Low] {
        index.set_quality(quality);
        let before = search_all(&index, &ds.queries, 20);
        let restored =
            JunoIndex::from_snapshot_bytes(&index.snapshot().expect("snapshot")).expect("restore");
        // The quality mode travels inside the snapshot's config section.
        assert_bit_identical(
            &before,
            &search_all(&restored, &ds.queries, 20),
            Stats::Any,
            &format!("MIPS {quality:?}"),
        );
    }
}

#[test]
fn ivfpq_save_load_is_bit_identical_including_mutations() {
    for seed in [3u64, 91] {
        let ds = DatasetProfile::DeepLike
            .generate(1_500, 8, seed)
            .expect("dataset");
        let mut index = IvfPqIndex::build(
            &ds.points,
            &IvfPqConfig {
                n_clusters: 32,
                nprobs: 8,
                pq_subspaces: ds.dim() / 2,
                pq_entries: 32,
                metric: ds.metric(),
                seed,
            },
        )
        .expect("build");

        let before = search_all(&index, &ds.queries, 25);
        let restored =
            IvfPqIndex::from_snapshot_bytes(&index.snapshot().expect("snap")).expect("restore");
        assert_bit_identical(
            &before,
            &search_all(&restored, &ds.queries, 25),
            Stats::Any,
            &format!("ivfpq seed {seed} fresh"),
        );

        let mut rng = seeded(seed);
        for _ in 0..60 {
            if rng.gen_range(0..2usize) == 0 {
                let row = rng.gen_range(0..ds.points.len());
                index.insert(ds.points.row(row)).expect("insert");
            } else {
                let id = rng.gen_range(0..ds.points.len());
                let _ = index.remove(id as u64).expect("remove");
            }
        }
        let before = search_all(&index, &ds.queries, 25);
        let restored =
            IvfPqIndex::from_snapshot_bytes(&index.snapshot().expect("snap")).expect("restore");
        assert_bit_identical(
            &before,
            &search_all(&restored, &ds.queries, 25),
            Stats::Any,
            &format!("ivfpq seed {seed} mutated"),
        );
    }
}

#[test]
fn ivf_flat_save_load_round_trips_through_files() {
    let ds = DatasetProfile::DeepLike.generate(1_000, 6, 7).expect("ds");
    let index = IvfFlatIndex::build(
        ds.points.clone(),
        &IvfFlatConfig {
            n_clusters: 16,
            nprobs: 4,
            metric: ds.metric(),
            seed: 2,
        },
    )
    .expect("build");
    let dir = std::env::temp_dir().join("juno_roundtrip_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("ivf_flat.snap");
    index.save_snapshot(&path).expect("save");
    let restored = IvfFlatIndex::load_snapshot(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_bit_identical(
        &search_all(&index, &ds.queries, 15),
        &search_all(&restored, &ds.queries, 15),
        Stats::Any,
        "ivf_flat file",
    );
}

#[test]
fn corrupted_or_cross_engine_snapshots_error_never_panic() {
    let ds = DatasetProfile::DeepLike.generate(800, 2, 13).expect("ds");
    let juno = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 8,
            nprobs: 4,
            pq_entries: 16,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("juno");
    let ivfpq = IvfPqIndex::build(
        &ds.points,
        &IvfPqConfig {
            n_clusters: 8,
            nprobs: 4,
            pq_subspaces: ds.dim() / 2,
            pq_entries: 16,
            metric: ds.metric(),
            seed: 1,
        },
    )
    .expect("ivfpq");
    let juno_bytes = juno.snapshot().expect("snap");
    let ivfpq_bytes = ivfpq.snapshot().expect("snap");

    // Engines must reject each other's snapshots by kind.
    assert!(JunoIndex::from_snapshot_bytes(&ivfpq_bytes).is_err());
    assert!(IvfPqIndex::from_snapshot_bytes(&juno_bytes).is_err());
    assert!(IvfFlatIndex::from_snapshot_bytes(&juno_bytes).is_err());

    // Truncations and random byte flips: always Err (or a successful parse
    // of semantically identical bytes), never a panic.
    let mut rng = seeded(555);
    for len in (0..juno_bytes.len()).step_by(47) {
        assert!(JunoIndex::from_snapshot_bytes(&juno_bytes[..len]).is_err());
    }
    for _ in 0..150 {
        let mut corrupt = juno_bytes.clone();
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..corrupt.len());
            corrupt[at] ^= 1 << rng.gen_range(0..8usize);
        }
        let _ = JunoIndex::from_snapshot_bytes(&corrupt);
    }
    for _ in 0..150 {
        let mut corrupt = ivfpq_bytes.clone();
        let at = rng.gen_range(0..corrupt.len());
        corrupt[at] ^= 0xFF;
        let _ = IvfPqIndex::from_snapshot_bytes(&corrupt);
    }

    // A structurally valid IVFPQ snapshot (every checksum intact) whose CONF
    // point count disagrees with its stored lists: `len()` is derived from
    // the lists, so the lie must be rejected, not served.
    {
        use juno::data::snapshot::{SectionWriter, Snapshot, SnapshotWriter};
        let snap = Snapshot::parse(&ivfpq_bytes).expect("parse");
        let mut conf = snap.section(*b"CONF").expect("CONF");
        let (metric, nprobs, count) = (
            conf.get_u8().expect("metric"),
            conf.get_u64().expect("nprobs"),
            conf.get_u64().expect("count"),
        );
        assert_eq!(count as usize, ivfpq.len());
        for wrong in [count - 1, count + 1, 0] {
            let mut writer = SnapshotWriter::new(juno::baseline::ivfpq::KIND_IVFPQ);
            for tag in [*b"CONF", *b"IVFC", *b"PQCB", *b"CODE"] {
                let mut section = SectionWriter::new();
                if tag == *b"CONF" {
                    section.put_u8(metric);
                    section.put_u64(nprobs);
                    section.put_u64(wrong);
                } else {
                    section.put_raw(snap.section(tag).expect("section").take_rest());
                }
                writer.add_section(tag, section);
            }
            let err = IvfPqIndex::from_snapshot_bytes(&writer.finish())
                .expect_err("a wrong stored count must not restore");
            assert!(
                matches!(err, juno::common::Error::Corrupted(_)),
                "count {wrong}: {err}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Sharded (`SHRD`) fleet snapshots.
// ---------------------------------------------------------------------------

fn build_mutated_fleet(seed: u64) -> (ShardedIndex<JunoIndex>, Dataset) {
    let ds = DatasetProfile::DeepLike
        .generate(1_200, 8, seed)
        .expect("ds");
    let monolith = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 16,
            nprobs: 6,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("build");
    let fleet =
        ShardedIndex::from_monolith(monolith, 3, ShardRouter::Hash { seed: 17 }).expect("fleet");
    // Leave the fleet mid-lifecycle: tails, tombstones, uneven shards.
    let mut rng = seeded(seed ^ 0xF1EE7);
    for _ in 0..40 {
        if rng.gen_range(0..2usize) == 0 {
            let row = rng.gen_range(0..ds.points.len());
            fleet.insert_shared(ds.points.row(row)).expect("insert");
        } else {
            let id = rng.gen_range(0..ds.points.len()) as u64;
            let _ = fleet.remove_shared(id).expect("remove");
        }
    }
    (fleet, ds)
}

#[test]
fn sharded_fleet_snapshot_round_trips_bit_identically() {
    let (fleet, ds) = build_mutated_fleet(606);
    let before = search_all(&fleet, &ds.queries, 25);
    let bytes = fleet.to_snapshot_bytes().expect("fleet snapshot");

    // Restore into a prototype built over unrelated data: the snapshot is
    // the single source of truth for shard count, router and contents.
    let other = DatasetProfile::DeepLike
        .generate(700, 1, 1)
        .expect("proto ds");
    let prototype = JunoIndex::build(
        &other.points,
        &JunoConfig {
            n_clusters: 8,
            nprobs: 4,
            pq_entries: 16,
            ..JunoConfig::small_test(other.dim(), other.metric())
        },
    )
    .expect("proto");
    let restored = ShardedIndex::from_snapshot_bytes(prototype, &bytes).expect("restore");
    assert_eq!(restored.num_shards(), 3);
    assert_eq!(restored.router(), ShardRouter::Hash { seed: 17 });
    assert_eq!(restored.len(), fleet.len());
    assert_eq!(restored.ids(), fleet.ids());
    assert_bit_identical(
        &before,
        &search_all(&restored, &ds.queries, 25),
        Stats::Any,
        "sharded roundtrip",
    );

    // And the restored fleet keeps serving writes consistently: the same
    // insert lands on the same id on both fleets.
    assert_eq!(
        restored.insert_shared(ds.points.row(0)).expect("insert"),
        fleet.insert_shared(ds.points.row(0)).expect("insert"),
    );
}

#[test]
fn sharded_snapshot_corruption_errors_cleanly_and_leaves_the_fleet_intact() {
    let (fleet, ds) = build_mutated_fleet(909);
    let mut fleet = fleet;
    let bytes = fleet.to_snapshot_bytes().expect("fleet snapshot");
    let reference = search_all(&fleet, &ds.queries, 20);

    // Truncations: always Err, never a panic. The container is multiple
    // megabytes, so sample a spread of cut points (every header/framing
    // boundary lives in the first few hundred bytes, the rest exercises
    // mid-payload cuts) rather than sweeping every offset.
    let cuts = (0..24)
        .map(|i| i * 13)
        .chain((1..=24).map(|i| i * (bytes.len() / 25)));
    for len in cuts {
        let err = fleet
            .restore_from_bytes(&bytes[..len])
            .expect_err("truncated");
        assert!(
            matches!(err, juno::common::Error::Corrupted(_)),
            "truncation to {len} produced {err:?}, expected Corrupted"
        );
    }

    // Per-shard corruption fuzzing: random byte flips all across the
    // container (headers, manifest, shard payloads). Every flip must either
    // be rejected as Corrupted or — when it lands on an uninterpreted byte —
    // restore a semantically identical fleet; a failed restore must leave
    // the serving fleet untouched (spot-checked with a full search sweep,
    // which is the expensive part of the loop).
    let mut rng = seeded(0xBAD5EED);
    for round in 0..120 {
        let mut corrupt = bytes.clone();
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..corrupt.len());
            corrupt[at] ^= 1 << rng.gen_range(0..8usize);
        }
        match fleet.restore_from_bytes(&corrupt) {
            Err(err) => {
                assert!(
                    matches!(err, juno::common::Error::Corrupted(_)),
                    "corrupted fleet snapshot produced {err:?}, expected Corrupted"
                );
                if round % 20 == 0 {
                    assert_bit_identical(
                        &reference,
                        &search_all(&fleet, &ds.queries, 20),
                        Stats::Any,
                        "failed restore must not disturb the fleet",
                    );
                }
            }
            Ok(()) => {
                assert_bit_identical(
                    &reference,
                    &search_all(&fleet, &ds.queries, 20),
                    Stats::Any,
                    "surviving flip must be semantically identical",
                );
            }
        }
    }

    // Flips concentrated inside one shard's sub-snapshot payload are caught
    // by the container checksum before the engine decoder ever runs.
    let shard_payload_at = bytes.len() - 64;
    let mut corrupt = bytes.clone();
    corrupt[shard_payload_at] ^= 0xFF;
    assert!(matches!(
        fleet.restore_from_bytes(&corrupt),
        Err(juno::common::Error::Corrupted(_))
    ));
}

#[test]
fn unsharded_engine_snapshot_restores_into_a_single_shard_fleet() {
    let ds = DatasetProfile::DeepLike
        .generate(1_000, 8, 321)
        .expect("ds");
    let mut monolith = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 16,
            nprobs: 6,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("build");
    for id in (0..120u64).step_by(7) {
        assert!(monolith.remove(id).expect("remove"));
    }
    // A single-index deployment's snapshot: plain engine bytes with the
    // JUNO kind word, no SHRD framing.
    let unsharded = monolith.snapshot().expect("engine snapshot");

    let (fleet, _) = build_mutated_fleet(11);
    let mut fleet = fleet;
    assert_eq!(fleet.num_shards(), 3);
    fleet
        .restore_from_bytes(&unsharded)
        .expect("unsharded restore");
    assert_eq!(
        fleet.num_shards(),
        1,
        "engine snapshots restore to one shard"
    );
    assert_eq!(fleet.len(), monolith.len());
    assert_bit_identical(
        &search_all(&monolith, &ds.queries, 25),
        &search_all(&fleet, &ds.queries, 25),
        Stats::Any,
        "unsharded restore",
    );
    // The single-shard fleet remains fully serviceable (mutation + snapshot).
    let id = fleet.insert_shared(ds.points.row(5)).expect("insert");
    assert_eq!(id, monolith.insert(ds.points.row(5)).expect("insert"));
    let resharded = fleet.to_snapshot_bytes().expect("resnapshot");
    let restored =
        ShardedIndex::from_snapshot_bytes(monolith.clone(), &resharded).expect("re-restore");
    assert_eq!(restored.len(), fleet.len());
}

// ---------------------------------------------------------------------------
// The newest→`.prev` walk every path loader shares.
// ---------------------------------------------------------------------------

/// "Could not read" is `Io` — never "nothing persisted", never "corrupt" —
/// and a torn newest generation beside a good `.prev` still restores, from
/// all four path entry points.
#[test]
fn path_loaders_report_unreadable_as_io_and_fall_back_past_a_torn_newest() {
    use juno::common::Error;
    let dir = std::env::temp_dir().join(format!("juno_loaders_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ds = DatasetProfile::DeepLike.generate(800, 4, 17).expect("ds");
    let engine = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 8,
            nprobs: 4,
            pq_entries: 16,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("build");
    let residency = ResidencyConfig::default();
    let all_four = |path: &std::path::Path| {
        let mut target = engine.clone();
        [
            ("load_from_path", target.load_from_path(path)),
            ("load_snapshot", JunoIndex::load_snapshot(path).map(|_| ())),
            (
                "load_snapshot_mapped",
                JunoIndex::load_snapshot_mapped(path, &residency).map(|_| ()),
            ),
            (
                "from_snapshot_path_mapped",
                ShardedIndex::from_snapshot_path_mapped(engine.clone(), path, &residency)
                    .map(|_| ()),
            ),
        ]
    };

    // A directory squatting on the snapshot path (unreadable even as root,
    // unlike `chmod 000`), with a perfectly good `.prev` beside it.
    let squatted = dir.join("squatted.snap");
    engine
        .save_snapshot(juno::common::atomic_file::prev_path(&squatted))
        .expect("save prev");
    std::fs::create_dir(&squatted).expect("mkdir");
    for (entry, result) in all_four(&squatted) {
        assert!(
            matches!(result, Err(Error::Io(_))),
            "{entry}: a directory at the path must be Io, got {result:?}"
        );
    }

    // Nothing persisted at all is Io too.
    for (entry, result) in all_four(&dir.join("never-written.snap")) {
        assert!(matches!(result, Err(Error::Io(_))), "{entry}: {result:?}");
    }

    // A torn newest file beside a good previous generation restores.
    let torn = dir.join("torn.snap");
    engine.save_snapshot(&torn).expect("first save");
    engine.save_snapshot(&torn).expect("second save rotates");
    let bytes = std::fs::read(&torn).expect("read newest");
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).expect("tear newest");
    for (entry, result) in all_four(&torn) {
        assert!(
            result.is_ok(),
            "{entry}: must fall back to .prev: {result:?}"
        );
    }
    // With the previous generation gone, the tear is reported as corruption
    // of the named candidate, not as an I/O failure.
    std::fs::remove_file(juno::common::atomic_file::prev_path(&torn)).expect("drop prev");
    for (entry, result) in all_four(&torn) {
        match result {
            Err(Error::Corrupted(msg)) => assert!(msg.contains("torn.snap"), "{entry}: {msg}"),
            other => panic!("{entry}: expected Corrupted, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
