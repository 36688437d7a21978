//! Old snapshot encodings: refused by every serving loader, converted by the
//! offline `snapshot-upgrade` tool.
//!
//! The library crates read one format. The encodings older builds wrote —
//! unversioned `u16` codes (before fast-scan), version-2 length-prefixed
//! `CODE`/`LAYT` with unframed `IVFC`/`THRM` (before out-of-core), and the
//! length-prefixed `Snnn` fleet framing — are **written here**, by the
//! fixture writers below, because no crate writes them any more. Each
//! fixture must be
//!
//! * rejected as `Corrupted`, naming the tool, by the copy and the mapped
//!   restore of the engine and of the fleet, leaving a live fleet untouched;
//! * converted by the `snapshot-upgrade` binary;
//! * restored from the converted file by both loaders with the source
//!   index's ids and distance bits, served zero-copy by the mapped one, and
//!   byte-equal to what the restored index itself writes.

mod common;

use common::{assert_bit_identical, search_all, Stats};
use juno::baseline::ivfpq::KIND_IVFPQ;
use juno::common::error::Error;
use juno::core::persist::{put_codes, KIND_JUNO};
use juno::data::snapshot::{SectionWriter, Snapshot, SnapshotWriter};
use juno::prelude::*;
use juno::quant::{EncodedPoints, IvfListCodes};
use juno::serve::persist::KIND_SHARD;
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("juno_upgrade_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `snapshot-upgrade <input> <output>`; `(exit ok, stdout + stderr)`.
fn run_tool(input: &Path, output: &Path) -> (bool, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_snapshot-upgrade"))
        .args([input, output])
        .output()
        .expect("spawn snapshot-upgrade");
    let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

// ---------------------------------------------------------------------------
// The old-format writers.
// ---------------------------------------------------------------------------

/// How an old build stored PQ codes.
#[derive(Clone, Copy)]
enum Codes {
    /// Before fast-scan: no version heading, `u16` codes.
    LegacyU16,
    /// Section version 2: sentinel heading, `u8` codes, length-prefixed.
    V2,
}

fn put_code_bytes(w: &mut SectionWriter, codes: &[u8], how: Codes) {
    match how {
        Codes::V2 => w.put_u8s(codes),
        Codes::LegacyU16 => {
            w.put_u64(codes.len() as u64);
            for &c in codes {
                w.put_raw(&u16::from(c).to_le_bytes());
            }
        }
    }
}

fn old_code_section(codes: &EncodedPoints, how: Codes) -> SectionWriter {
    let mut w = SectionWriter::new();
    match how {
        // Version 2 of `CODE` is what `put_codes` still writes for IVFPQ.
        Codes::V2 => put_codes(&mut w, codes),
        Codes::LegacyU16 => {
            w.put_u64(codes.num_subspaces() as u64);
            put_code_bytes(&mut w, codes.as_flat(), how);
        }
    }
    w
}

fn old_layout_section(layout: &IvfListCodes, how: Codes) -> SectionWriter {
    let parts = layout.to_parts();
    let mut w = SectionWriter::new();
    if let Codes::V2 = how {
        w.put_version(2);
    }
    w.put_u32s(&parts.offsets);
    w.put_u32s(&parts.point_ids);
    put_code_bytes(&mut w, &parts.codes, how);
    w.put_u64(parts.num_subspaces as u64);
    w.put_u64(parts.extra_ids.len() as u64);
    for (ids, codes) in parts.extra_ids.iter().zip(&parts.extra_codes) {
        w.put_u32s(ids);
        put_code_bytes(&mut w, codes, how);
    }
    w.put_bools(&parts.deleted);
    w.put_u32(parts.next_id);
    w
}

fn raw(bytes: &[u8]) -> SectionWriter {
    let mut w = SectionWriter::new();
    w.put_raw(bytes);
    w
}

/// A JUNO engine snapshot as a pre-out-of-core build wrote it: seven
/// sections, `IVFC`/`THRM` unframed, `CODE`/`LAYT` length-prefixed, no
/// `RAWV`/`DRFT`.
fn old_juno_bytes(index: &JunoIndex, how: Codes) -> Vec<u8> {
    let current = index.to_snapshot_bytes();
    let snap = Snapshot::parse(&current).expect("current snapshot");
    let section = |tag: &[u8; 4]| snap.section(*tag).expect("section").take_rest();
    // The frame is 16 bytes: sentinel, version, body checksum.
    let unframed = |tag: &[u8; 4]| raw(&section(tag)[16..]);
    let mut w = SnapshotWriter::new(KIND_JUNO);
    w.add_section(*b"CONF", raw(section(b"CONF")));
    w.add_section(*b"IVFC", unframed(b"IVFC"));
    w.add_section(*b"PQCB", raw(section(b"PQCB")));
    w.add_section(*b"CODE", old_code_section(index.codes(), how));
    w.add_section(*b"LAYT", old_layout_section(index.list_codes(), how));
    w.add_section(*b"THRM", unframed(b"THRM"));
    w.add_section(*b"SCNB", raw(section(b"SCNB")));
    w.finish()
}

/// An IVFPQ snapshot with the pre-fast-scan `u16` `CODE` section.
fn old_ivfpq_bytes(index: &IvfPqIndex) -> Vec<u8> {
    let current = index.snapshot().expect("snapshot");
    let snap = Snapshot::parse(&current).expect("current snapshot");
    let mut w = SnapshotWriter::new(KIND_IVFPQ);
    for tag in [*b"CONF", *b"IVFC", *b"PQCB"] {
        w.add_section(tag, raw(snap.section(tag).expect("section").take_rest()));
    }
    w.add_section(*b"CODE", old_code_section(index.codes(), Codes::LegacyU16));
    w.finish()
}

/// A fleet snapshot as a pre-out-of-core build wrote it: every `Snnn`
/// section a `u64` length prefix and a version-2 engine snapshot.
fn old_fleet_bytes(fleet: &ShardedIndex<JunoIndex>) -> Vec<u8> {
    let current = fleet.to_snapshot_bytes().expect("fleet snapshot");
    let snap = Snapshot::parse(&current).expect("current fleet snapshot");
    let reader = fleet.reader();
    let mut w = SnapshotWriter::new(KIND_SHARD);
    w.add_section(
        *b"MANI",
        raw(snap.section(*b"MANI").expect("MANI").take_rest()),
    );
    for s in 0..fleet.num_shards() {
        let mut section = SectionWriter::new();
        section.put_u8s(&old_juno_bytes(reader.shard(s).index(), Codes::V2));
        w.add_section([b'S', b'0', b'0', b'0' + s as u8], section);
    }
    w.finish()
}

/// `bytes` with one section's payload patched (sections re-emitted in tag
/// order, checksums recomputed).
fn with_patched_section(bytes: &[u8], tag: [u8; 4], patch: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    let snap = Snapshot::parse(bytes).expect("parse");
    let mut w = SnapshotWriter::new(snap.kind());
    for t in snap.tags() {
        let mut payload = snap.section(t).expect("section").take_rest().to_vec();
        if t == tag {
            patch(&mut payload);
        }
        w.add_section(t, raw(&payload));
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// Fixtures and the shared assertions.
// ---------------------------------------------------------------------------

fn dataset(seed: u64) -> Dataset {
    DatasetProfile::DeepLike
        .generate(1_200, 6, seed)
        .expect("dataset")
}

/// A small engine with append tails in several clusters and tombstones in
/// both the CSR base and the tails.
fn mutated_engine(ds: &Dataset) -> JunoIndex {
    let config = JunoConfig {
        n_clusters: 16,
        nprobs: 5,
        pq_entries: 32,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let mut index = JunoIndex::build(&ds.points, &config).expect("build");
    for i in 0..30 {
        index.insert(ds.points.row(i * 7)).expect("insert");
    }
    for id in (0..300u64).step_by(9).chain([1_203, 1_210]) {
        assert!(index.remove(id).expect("remove"));
    }
    index
}

/// Both restores of a live 2-shard fleet (over unrelated data) refuse `old`,
/// naming the tool, and change nothing.
fn live_fleet_refuses(old: &[u8], label: &str) {
    let ds = DatasetProfile::DeepLike
        .generate(600, 4, 99)
        .expect("dataset");
    let config = JunoConfig {
        n_clusters: 8,
        nprobs: 4,
        pq_entries: 16,
        ..JunoConfig::small_test(ds.dim(), ds.metric())
    };
    let engine = JunoIndex::build(&ds.points, &config).expect("build");
    let mut fleet =
        ShardedIndex::from_monolith(engine, 2, ShardRouter::Hash { seed: 3 }).expect("fleet");
    let (ids, results) = (fleet.ids(), search_all(&fleet, &ds.queries, 10));

    let copy = fleet.restore_from_bytes(old);
    assert_names_the_tool(copy, &format!("{label}: fleet copy restore"));
    let map = Mmap::from_bytes(old.to_vec());
    let mapped = fleet.restore_from_mapped(&map, &ResidencyConfig::default());
    assert_names_the_tool(mapped, &format!("{label}: fleet mapped restore"));
    assert_eq!(fleet.ids(), ids, "{label}: live fleet ids");
    assert_bit_identical(
        &results,
        &search_all(&fleet, &ds.queries, 10),
        Stats::Any,
        &format!("{label}: live fleet results"),
    );
}

fn assert_names_the_tool<T>(result: Result<T, Error>, label: &str) {
    match result {
        Err(Error::Corrupted(msg)) => assert!(
            msg.contains("snapshot-upgrade") && msg.contains("found"),
            "{label}: the refusal must say what it found and name the tool: {msg}"
        ),
        Err(other) => panic!("{label}: expected Corrupted, got {other:?}"),
        Ok(_) => panic!("{label}: an old encoding must not restore"),
    }
}

/// The whole contract for one old JUNO engine file.
fn check_juno_fixture(label: &str, how: Codes, seed: u64) {
    let dir = scratch_dir(label);
    let ds = dataset(seed);
    let source = mutated_engine(&ds);
    let want = search_all(&source, &ds.queries, 15);
    let old = old_juno_bytes(&source, how);
    let old_path = dir.join("old.snap");
    std::fs::write(&old_path, &old).expect("write old");

    // (a) Refused everywhere.
    let residency = ResidencyConfig::default();
    assert_names_the_tool(JunoIndex::from_snapshot_bytes(&old), "engine bytes");
    assert_names_the_tool(JunoIndex::load_snapshot(&old_path), "engine file");
    assert_names_the_tool(
        JunoIndex::load_snapshot_mapped(&old_path, &residency),
        "engine mapped file",
    );
    live_fleet_refuses(&old, label);

    // (b) Converted by the tool.
    let new_path = dir.join("new.snap");
    let (ok, text) = run_tool(&old_path, &new_path);
    assert!(ok, "{label}: tool failed: {text}");

    // (c) Restored by both loaders, zero-copy by the mapped one.
    let copied = JunoIndex::load_snapshot(&new_path).expect("copy restore");
    let mapped = JunoIndex::load_snapshot_mapped(&new_path, &residency).expect("mapped restore");
    assert!(!copied.is_mapped());
    assert!(
        mapped.is_mapped(),
        "{label}: upgraded files serve zero-copy"
    );
    for (restored, which) in [(&copied, "copy"), (&mapped, "mapped")] {
        assert_eq!(restored.ids(), source.ids(), "{label}: {which} ids");
        assert_bit_identical(
            &want,
            &search_all(restored, &ds.queries, 15),
            Stats::Any,
            &format!("{label}: {which} restore"),
        );
    }
    assert!(
        std::fs::read(&new_path).expect("read upgraded") == copied.to_snapshot_bytes(),
        "{label}: the upgraded file is what the restored index writes"
    );

    // The converted file is current: a second run leaves it alone.
    let again = dir.join("again.snap");
    let (ok, text) = run_tool(&new_path, &again);
    assert!(ok && text.contains("already current"), "{label}: {text}");
    assert!(
        !again.exists(),
        "{label}: nothing to write for a current file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_u16_juno_snapshot_is_refused_then_upgraded() {
    check_juno_fixture("legacy_u16", Codes::LegacyU16, 404);
}

#[test]
fn v2_juno_snapshot_is_refused_then_upgraded() {
    check_juno_fixture("v2", Codes::V2, 36);
}

#[test]
fn u16_codes_above_255_fail_the_tool_which_writes_nothing() {
    let dir = scratch_dir("poisoned");
    let ds = dataset(405);
    let old = old_juno_bytes(&mutated_engine(&ds), Codes::LegacyU16);
    // The legacy CODE payload is subspace count, code count, then the codes.
    let poisoned = with_patched_section(&old, *b"CODE", |payload| {
        payload[16..18].copy_from_slice(&300u16.to_le_bytes());
    });
    let (old_path, new_path) = (dir.join("old.snap"), dir.join("new.snap"));
    std::fs::write(&old_path, &poisoned).expect("write poisoned");
    let (ok, text) = run_tool(&old_path, &new_path);
    assert!(!ok, "codes above 255 must fail the run: {text}");
    assert!(text.contains("above 255"), "{text}");
    assert!(
        std::fs::read_dir(&dir).expect("dir").count() == 1,
        "a failed run writes nothing, not even a temp file"
    );

    // Anything that is not a snapshot fails too, and also writes nothing.
    std::fs::write(&old_path, b"definitely not a snapshot").expect("write garbage");
    let (ok, text) = run_tool(&old_path, &new_path);
    assert!(!ok && !new_path.exists(), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_u16_ivfpq_snapshot_is_refused_then_upgraded() {
    let dir = scratch_dir("ivfpq");
    let ds = dataset(91);
    let mut source = IvfPqIndex::build(
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
    for id in (0..200u64).step_by(11) {
        assert!(source.remove(id).expect("remove"));
    }
    let want = search_all(&source, &ds.queries, 15);
    let old = old_ivfpq_bytes(&source);
    assert_ne!(old, source.snapshot().expect("snapshot"));

    assert_names_the_tool(IvfPqIndex::from_snapshot_bytes(&old), "ivfpq bytes");
    let mut live = source.clone();
    let map = Mmap::from_bytes(old.clone());
    assert_names_the_tool(
        live.restore_mapped(&map, 0, old.len(), &ResidencyConfig::default()),
        "ivfpq mapped restore",
    );

    let (old_path, new_path) = (dir.join("old.snap"), dir.join("new.snap"));
    std::fs::write(&old_path, &old).expect("write old");
    let (ok, text) = run_tool(&old_path, &new_path);
    assert!(ok, "tool failed: {text}");

    let restored = IvfPqIndex::load_snapshot(&new_path).expect("restore");
    assert_eq!(restored.ids(), source.ids());
    assert_bit_identical(
        &want,
        &search_all(&restored, &ds.queries, 15),
        Stats::Any,
        "ivfpq upgraded",
    );
    assert!(
        std::fs::read(&new_path).expect("read upgraded") == restored.snapshot().expect("snapshot")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn length_prefixed_fleet_snapshot_is_refused_then_upgraded() {
    let dir = scratch_dir("fleet");
    let ds = dataset(606);
    let engine = mutated_engine(&ds);
    let prototype = engine.clone();
    let source =
        ShardedIndex::from_monolith(engine, 3, ShardRouter::Hash { seed: 17 }).expect("fleet");
    for i in 0..12 {
        source.insert_shared(ds.points.row(i * 31)).expect("insert");
    }
    assert!(source.remove_shared(400).expect("remove"));
    let want = search_all(&source, &ds.queries, 15);
    let old = old_fleet_bytes(&source);
    let old_path = dir.join("old.snap");
    std::fs::write(&old_path, &old).expect("write old");

    // (a) Refused by both fleet restores, from bytes and from files.
    let residency = ResidencyConfig::default();
    live_fleet_refuses(&old, "fleet");
    assert_names_the_tool(
        ShardedIndex::from_snapshot_path(prototype.clone(), &old_path),
        "fleet file",
    );
    assert_names_the_tool(
        ShardedIndex::from_snapshot_path_mapped(prototype.clone(), &old_path, &residency),
        "fleet mapped file",
    );

    // (b) Converted by the tool: the framing and the engines inside it.
    let new_path = dir.join("new.snap");
    let (ok, text) = run_tool(&old_path, &new_path);
    assert!(ok, "tool failed: {text}");

    // (c) Restored by both loaders.
    let copied =
        ShardedIndex::from_snapshot_path(prototype.clone(), &new_path).expect("copy restore");
    let mapped = ShardedIndex::from_snapshot_path_mapped(prototype, &new_path, &residency)
        .expect("mapped restore");
    for (restored, which) in [(&copied, "copy"), (&mapped, "mapped")] {
        assert_eq!(restored.num_shards(), 3, "{which}");
        assert_eq!(restored.router(), ShardRouter::Hash { seed: 17 }, "{which}");
        assert_eq!(restored.ids(), source.ids(), "{which} ids");
        assert_bit_identical(
            &want,
            &search_all(restored, &ds.queries, 15),
            Stats::Any,
            &format!("fleet {which} restore"),
        );
    }
    let reader = mapped.reader();
    assert!(
        (0..3).all(|s| reader.shard(s).index().is_mapped()),
        "every shard of an upgraded fleet file serves zero-copy"
    );
    assert!(
        std::fs::read(&new_path).expect("read upgraded")
            == copied.to_snapshot_bytes().expect("fleet snapshot"),
        "the upgraded file is what the restored fleet writes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
