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

/// Re-encodes a parsed snapshot with `CODE` (and, for JUNO, `LAYT`) written
/// in the **legacy pre-fast-scan layout** (`u16` codes, no version
/// sentinel), leaving every other section byte-identical. This synthesises
/// the snapshots old builds produced so the back-compat readers stay
/// covered by an executable test.
fn reencode_with_legacy_code_sections(
    bytes: &[u8],
    kind_word: u32,
    tags: &[[u8; 4]],
    legacy_code: &[u8],
    legacy_layout: Option<&[u8]>,
) -> Vec<u8> {
    use juno::data::snapshot::{SectionWriter, Snapshot, SnapshotWriter};
    let snap = Snapshot::parse(bytes).expect("parse v2 snapshot");
    let mut writer = SnapshotWriter::new(kind_word);
    for &tag in tags {
        let mut section = SectionWriter::new();
        match (&tag, legacy_layout) {
            (b"CODE", _) => section.put_raw(legacy_code),
            (b"LAYT", Some(layt)) => section.put_raw(layt),
            _ => section.put_raw(snap.section(tag).expect("section").take_rest()),
        }
        writer.add_section(tag, section);
    }
    writer.finish()
}

/// Legacy CODE payload: subspace count, then `u16` codes.
fn legacy_code_section(codes: &juno::quant::EncodedPoints) -> Vec<u8> {
    let mut w = juno::data::snapshot::SectionWriter::new();
    w.put_u64(codes.num_subspaces() as u64);
    let wide: Vec<u16> = codes.as_flat().iter().map(|&c| c as u16).collect();
    w.put_u16s(&wide);
    w.finish()
}

#[test]
fn legacy_u16_snapshots_are_still_readable_bit_identically() {
    let ds = DatasetProfile::DeepLike
        .generate(1_200, 8, 404)
        .expect("ds");
    let mut juno = JunoIndex::build(
        &ds.points,
        &JunoConfig {
            n_clusters: 16,
            nprobs: 6,
            pq_entries: 32,
            ..JunoConfig::small_test(ds.dim(), ds.metric())
        },
    )
    .expect("juno");
    // Mutation state (tails + tombstones) must survive the legacy framing
    // too — old builds persisted it the same way, just with u16 codes.
    for id in (0..200u64).step_by(11) {
        assert!(juno.remove(id).expect("remove"));
    }
    for i in 0..15 {
        juno.insert(ds.points.row(i * 17)).expect("insert");
    }

    // Legacy LAYT payload from the live layout parts.
    let parts = juno.list_codes().to_parts();
    let mut layt = juno::data::snapshot::SectionWriter::new();
    layt.put_u32s(&parts.offsets);
    layt.put_u32s(&parts.point_ids);
    layt.put_u16s(&parts.codes.iter().map(|&c| c as u16).collect::<Vec<u16>>());
    layt.put_u64(parts.num_subspaces as u64);
    layt.put_u64(parts.extra_ids.len() as u64);
    for (ids, codes) in parts.extra_ids.iter().zip(&parts.extra_codes) {
        layt.put_u32s(ids);
        layt.put_u16s(&codes.iter().map(|&c| c as u16).collect::<Vec<u16>>());
    }
    layt.put_bools(&parts.deleted);
    layt.put_u32(parts.next_id);

    let v2 = juno.snapshot().expect("snapshot");
    let legacy = reencode_with_legacy_code_sections(
        &v2,
        juno::core::persist::KIND_JUNO,
        &[
            *b"CONF", *b"IVFC", *b"PQCB", *b"CODE", *b"LAYT", *b"THRM", *b"SCNB",
        ],
        &legacy_code_section(juno.codes()),
        Some(&layt.finish()),
    );
    assert_ne!(legacy, v2, "legacy bytes must differ from the v2 framing");
    let restored = JunoIndex::from_snapshot_bytes(&legacy).expect("legacy restore");
    assert_bit_identical(
        &search_all(&juno, &ds.queries, 25),
        &search_all(&restored, &ds.queries, 25),
        Stats::Any,
        "juno legacy snapshot",
    );

    // IVFPQ: same legacy CODE framing.
    let ivfpq = IvfPqIndex::build(
        &ds.points,
        &IvfPqConfig {
            n_clusters: 16,
            nprobs: 6,
            pq_subspaces: ds.dim() / 2,
            pq_entries: 32,
            metric: ds.metric(),
            seed: 2,
        },
    )
    .expect("ivfpq");
    let v2 = ivfpq.snapshot().expect("snapshot");
    let legacy = reencode_with_legacy_code_sections(
        &v2,
        juno::baseline::ivfpq::KIND_IVFPQ,
        &[*b"CONF", *b"IVFC", *b"PQCB", *b"CODE"],
        &legacy_code_section(ivfpq.codes()),
        None,
    );
    let restored = IvfPqIndex::from_snapshot_bytes(&legacy).expect("legacy ivfpq restore");
    assert_bit_identical(
        &search_all(&ivfpq, &ds.queries, 25),
        &search_all(&restored, &ds.queries, 25),
        Stats::Any,
        "ivfpq legacy snapshot",
    );

    // A legacy snapshot whose codes exceed the u8 range (entries > 256 —
    // never a shipped configuration) is rejected cleanly, not truncated.
    let mut bad = juno::data::snapshot::SectionWriter::new();
    bad.put_u64(juno.codes().num_subspaces() as u64);
    let mut wide: Vec<u16> = juno.codes().as_flat().iter().map(|&c| c as u16).collect();
    wide[0] = 300;
    bad.put_u16s(&wide);
    let poisoned = reencode_with_legacy_code_sections(
        &juno.snapshot().expect("snapshot"),
        juno::core::persist::KIND_JUNO,
        &[
            *b"CONF", *b"IVFC", *b"PQCB", *b"CODE", *b"LAYT", *b"THRM", *b"SCNB",
        ],
        &bad.finish(),
        None,
    );
    assert!(JunoIndex::from_snapshot_bytes(&poisoned).is_err());
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
fn legacy_unsharded_snapshot_restores_into_a_single_shard_fleet() {
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
    // A pre-serving-layer deployment's snapshot: plain engine bytes with the
    // JUNO kind word, no SHRD framing.
    let legacy = monolith.snapshot().expect("legacy snapshot");

    let (fleet, _) = build_mutated_fleet(11);
    let mut fleet = fleet;
    assert_eq!(fleet.num_shards(), 3);
    fleet.restore_from_bytes(&legacy).expect("legacy restore");
    assert_eq!(
        fleet.num_shards(),
        1,
        "legacy snapshots restore to one shard"
    );
    assert_eq!(fleet.len(), monolith.len());
    assert_bit_identical(
        &search_all(&monolith, &ds.queries, 25),
        &search_all(&fleet, &ds.queries, 25),
        Stats::Any,
        "legacy unsharded restore",
    );
    // The single-shard fleet remains fully serviceable (mutation + snapshot).
    let id = fleet.insert_shared(ds.points.row(5)).expect("insert");
    assert_eq!(id, monolith.insert(ds.points.row(5)).expect("insert"));
    let resharded = fleet.to_snapshot_bytes().expect("resnapshot");
    let restored =
        ShardedIndex::from_snapshot_bytes(monolith.clone(), &resharded).expect("re-restore");
    assert_eq!(restored.len(), fleet.len());
}
