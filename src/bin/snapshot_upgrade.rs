//! `snapshot-upgrade <in> <out>` — rewrites a snapshot file an older build
//! wrote in the one encoding the serving crates read.
//!
//! The library crates read and write a single format; every decoder of an
//! older one lives here and nowhere else:
//!
//! | what older builds wrote                          | what comes out          |
//! |--------------------------------------------------|-------------------------|
//! | JUNO `CODE`/`LAYT`: unversioned, `u16` codes     | mapped layout (v3)      |
//! | JUNO `CODE`/`LAYT`: version 2, length-prefixed   | mapped layout (v3)      |
//! | JUNO `IVFC`/`THRM`: unframed                     | framed (`frame_v3`)     |
//! | JUNO without a `DRFT` section                    | the untracked default   |
//! | IVFPQ `CODE`: unversioned, `u16` codes           | version 2, `u8` codes   |
//! | fleet `Snnn`: `u64` length prefix + engine bytes | aligned framing         |
//!
//! Every file is transcoded section by section and then **restored with the
//! serving loader**; only bytes that loader accepted are published, through
//! `write_atomic`. An input that already is what the current writer would
//! write is reported "already current" and nothing is written. `u16` codes
//! above 255 (a codebook size no build has shipped since) fail the run.
//!
//! Exit status: 0 on success or "already current", 1 on any failure (nothing
//! written), 2 on a usage error.

use juno::baseline::ivf_flat::{IvfFlatIndex, KIND_IVF_FLAT};
use juno::baseline::ivfpq::{IvfPqIndex, KIND_IVFPQ};
use juno::common::atomic_file::write_atomic;
use juno::common::error::{Error, Result};
use juno::common::index::AnnIndex;
use juno::core::drift::DriftTracker;
use juno::core::persist::{frame_v3, get_codes, put_codes, KIND_JUNO};
use juno::core::JunoIndex;
use juno::data::snapshot::{
    peek_kind, SectionReader, SectionWriter, Snapshot, SnapshotWriter, VERSION_SENTINEL,
};
use juno::quant::layout::{IvfListCodes, IvfListCodesParts};
use juno::quant::mapped::{decode_codes_v3, decode_layout_v3, encode_codes_v3, encode_layout_v3};
use juno::quant::EncodedPoints;
use juno::serve::persist::{frame_shard_section, KIND_SHARD};
use juno::serve::ShardedIndex;
use std::path::Path;
use std::process::ExitCode;

/// The version a payload's in-band heading declares; `None` for the
/// unversioned encodings, which open with a count or a discriminant.
fn heading(payload: &[u8]) -> Option<u32> {
    (payload.len() >= 12 && payload[..8] == VERSION_SENTINEL.to_le_bytes())
        .then(|| u32::from_le_bytes(payload[8..12].try_into().expect("4-byte slice")))
}

fn unknown_version(section: &str, version: u32) -> Error {
    Error::corrupted(format!(
        "{section}: version {version} is not one any build wrote"
    ))
}

/// A section carried over byte for byte.
fn verbatim(snap: &Snapshot<'_>, tag: [u8; 4]) -> Result<SectionWriter> {
    let mut section = SectionWriter::new();
    section.put_raw(snap.section(tag)?.take_rest());
    Ok(section)
}

/// `IVFC` / `THRM`: framed as is, unframed wrapped by the one framer.
fn framed(snap: &Snapshot<'_>, tag: [u8; 4]) -> Result<SectionWriter> {
    let payload = snap.section(tag)?.take_rest();
    match heading(payload) {
        Some(3) => verbatim(snap, tag),
        Some(v) => Err(unknown_version(&String::from_utf8_lossy(&tag), v)),
        None => {
            let mut body = SectionWriter::new();
            body.put_raw(payload);
            Ok(frame_v3(body))
        }
    }
}

/// A length-prefixed vector of `u16` codes — the width before fast-scan —
/// narrowed to `u8`. Codes above 255 come from configurations (entries per
/// subspace > 256) that are no longer buildable, and fail the run.
fn get_u16_codes(r: &mut SectionReader<'_>) -> Result<Vec<u8>> {
    let n = r.get_usize()?;
    if n.checked_mul(2).is_none_or(|bytes| bytes > r.remaining()) {
        return Err(Error::corrupted("truncated u16 code vector"));
    }
    (0..n)
        .map(|_| {
            let wide = u16::from_le_bytes([r.get_u8()?, r.get_u8()?]);
            u8::try_from(wide).map_err(|_| {
                Error::corrupted(
                    "snapshot stores codes above 255 \
                     (entries_per_subspace > 256 is no longer supported)",
                )
            })
        })
        .collect()
}

/// `CODE` in any encoding a build has written.
fn decode_codes(mut r: SectionReader<'_>) -> Result<EncodedPoints> {
    let payload = r.clone().take_rest();
    let codes = match heading(payload) {
        Some(3) => return decode_codes_v3(payload),
        Some(2) => get_codes(&mut r)?,
        Some(v) => return Err(unknown_version("CODE", v)),
        None => {
            let subspaces = r.get_usize()?;
            EncodedPoints::from_parts(get_u16_codes(&mut r)?, subspaces)?
        }
    };
    r.expect_end()?;
    Ok(codes)
}

/// `LAYT` in any encoding a build has written. Versions 2 and "none" are
/// the same stream of length-prefixed vectors, with `u8` and `u16` codes.
fn decode_layout(mut r: SectionReader<'_>) -> Result<IvfListCodes> {
    let payload = r.clone().take_rest();
    let wide = match heading(payload) {
        Some(3) => return decode_layout_v3(payload),
        Some(2) => {
            r.expect_version("LAYT", 2)?;
            false
        }
        Some(v) => return Err(unknown_version("LAYT", v)),
        None => true,
    };
    let get_code_bytes =
        |r: &mut SectionReader<'_>| if wide { get_u16_codes(r) } else { r.get_u8s() };
    let offsets = r.get_u32s()?;
    let point_ids = r.get_u32s()?;
    let codes = get_code_bytes(&mut r)?;
    let num_subspaces = r.get_usize()?;
    let clusters = r.get_usize()?;
    let mut extra_ids = Vec::with_capacity(clusters.min(1 << 20));
    let mut extra_codes = Vec::with_capacity(clusters.min(1 << 20));
    for _ in 0..clusters {
        extra_ids.push(r.get_u32s()?);
        extra_codes.push(get_code_bytes(&mut r)?);
    }
    let deleted = r.get_bools()?;
    let next_id = r.get_u32()?;
    r.expect_end()?;
    IvfListCodes::from_parts(IvfListCodesParts {
        offsets,
        point_ids,
        codes,
        num_subspaces,
        extra_ids,
        extra_codes,
        deleted,
        next_id,
    })
}

/// A JUNO engine snapshot, section by section, in the order and encoding
/// `JunoIndex::to_snapshot_bytes` writes.
fn transcode_juno(snap: &Snapshot<'_>) -> Result<Vec<u8>> {
    let mut writer = SnapshotWriter::new(KIND_JUNO);
    writer.add_section(*b"CONF", verbatim(snap, *b"CONF")?);
    writer.add_section(*b"IVFC", framed(snap, *b"IVFC")?);
    writer.add_section(*b"PQCB", verbatim(snap, *b"PQCB")?);

    let codes = decode_codes(snap.section(*b"CODE")?)?;
    let mut code = SectionWriter::new();
    code.put_raw(&encode_codes_v3(&codes, writer.next_payload_offset()));
    writer.add_section(*b"CODE", code);

    let layout = decode_layout(snap.section(*b"LAYT")?)?;
    let mut layt = SectionWriter::new();
    layt.put_raw(&encode_layout_v3(&layout, writer.next_payload_offset()));
    writer.add_section(*b"LAYT", layt);

    writer.add_section(*b"THRM", framed(snap, *b"THRM")?);
    writer.add_section(*b"SCNB", verbatim(snap, *b"SCNB")?);
    if snap.has_section(*b"RAWV") {
        writer.add_section(*b"RAWV", verbatim(snap, *b"RAWV")?);
    }
    let drft = if snap.has_section(*b"DRFT") {
        verbatim(snap, *b"DRFT")?
    } else {
        // What the loader assumes for a file without the section, and what
        // the writer then writes back.
        let untracked = DriftTracker::from_baseline(0.0);
        let mut drft = SectionWriter::new();
        drft.put_f64(untracked.baseline_mean_sq());
        drft.put_f64(untracked.ewma_sq());
        drft.put_u64(untracked.inserts());
        drft
    };
    writer.add_section(*b"DRFT", drft);
    Ok(writer.finish())
}

/// An IVFPQ snapshot: only `CODE` ever changed encoding.
fn transcode_ivfpq(snap: &Snapshot<'_>) -> Result<Vec<u8>> {
    let mut writer = SnapshotWriter::new(KIND_IVFPQ);
    for tag in [*b"CONF", *b"IVFC", *b"PQCB"] {
        writer.add_section(tag, verbatim(snap, tag)?);
    }
    let mut code = SectionWriter::new();
    put_codes(&mut code, &decode_codes(snap.section(*b"CODE")?)?);
    writer.add_section(*b"CODE", code);
    Ok(writer.finish())
}

/// Upgrades one engine snapshot and restores the result with its loader.
fn upgrade_engine(bytes: &[u8]) -> Result<Vec<u8>> {
    let snap = Snapshot::parse(bytes)?;
    match snap.kind() {
        KIND_JUNO => {
            let out = transcode_juno(&snap)?;
            JunoIndex::from_snapshot_bytes(&out)?;
            Ok(out)
        }
        KIND_IVFPQ => {
            let out = transcode_ivfpq(&snap)?;
            IvfPqIndex::from_snapshot_bytes(&out)?;
            Ok(out)
        }
        // IVF-Flat has only ever had one encoding.
        KIND_IVF_FLAT => {
            IvfFlatIndex::from_snapshot_bytes(bytes)?;
            Ok(bytes.to_vec())
        }
        other => Err(Error::unsupported(format!(
            "snapshot kind {other:#010x} is not an engine this tool knows"
        ))),
    }
}

/// The engine snapshot embedded in one `Snnn` payload, in either framing.
fn shard_engine_bytes(payload: &[u8]) -> Result<&[u8]> {
    let mut r = SectionReader::over(payload);
    match heading(payload) {
        Some(2) => {
            r.expect_version("shard section", 2)?;
            let pad = r.get_u32()? as usize;
            (r.take_rest().get(pad..))
                .ok_or_else(|| Error::corrupted("shard section padding overruns the payload"))
        }
        Some(v) => Err(unknown_version("shard section", v)),
        None => {
            let n = r.get_usize()?;
            let engine = r.take_rest();
            if n != engine.len() {
                return Err(Error::corrupted(
                    "shard section length prefix does not match the payload",
                ));
            }
            Ok(engine)
        }
    }
}

fn fleet_restores<I: AnnIndex + Clone>(prototype: I, bytes: &[u8]) -> Result<()> {
    ShardedIndex::from_snapshot_bytes(prototype, bytes).map(|_| ())
}

/// A `SHRD` fleet snapshot: every embedded engine snapshot upgraded, every
/// shard section in the aligned framing.
fn upgrade_fleet(bytes: &[u8]) -> Result<Vec<u8>> {
    let snap = Snapshot::parse(bytes)?;
    let mut writer = SnapshotWriter::new(KIND_SHARD);
    writer.add_section(*b"MANI", verbatim(&snap, *b"MANI")?);
    if snap.has_section(*b"IMAP") {
        writer.add_section(*b"IMAP", verbatim(&snap, *b"IMAP")?);
    }
    // Tags come back sorted, and "S000" < "S001" < … is shard order.
    let mut shard0 = None;
    for tag in snap.tags().filter(|tag| tag[0] == b'S') {
        let engine_bytes = upgrade_engine(shard_engine_bytes(snap.section(tag)?.take_rest())?)?;
        let section = frame_shard_section(&engine_bytes, writer.next_payload_offset());
        writer.add_section(tag, section);
        shard0.get_or_insert(engine_bytes);
    }
    let out = writer.finish();
    // The fleet loader restores into a prototype of the shards' engine type.
    let shard0 = shard0.ok_or_else(|| Error::corrupted("fleet snapshot holds no shard section"))?;
    match peek_kind(&shard0) {
        Some(KIND_JUNO) => fleet_restores(JunoIndex::from_snapshot_bytes(&shard0)?, &out)?,
        Some(KIND_IVFPQ) => fleet_restores(IvfPqIndex::from_snapshot_bytes(&shard0)?, &out)?,
        _ => fleet_restores(IvfFlatIndex::from_snapshot_bytes(&shard0)?, &out)?,
    }
    Ok(out)
}

/// The bytes the current writer would have written for the index `bytes`
/// holds, accepted by the serving loader.
fn upgrade(bytes: &[u8]) -> Result<Vec<u8>> {
    if peek_kind(bytes) == Some(KIND_SHARD) {
        upgrade_fleet(bytes)
    } else {
        upgrade_engine(bytes)
    }
}

fn run(input: &Path, output: &Path) -> Result<()> {
    let bytes =
        std::fs::read(input).map_err(|e| Error::Io(format!("read {}: {e}", input.display())))?;
    let upgraded = upgrade(&bytes).map_err(|e| match e {
        Error::Corrupted(msg) => Error::Corrupted(format!("{}: {msg}", input.display())),
        other => other,
    })?;
    if upgraded == bytes {
        println!("{}: already current, nothing written", input.display());
        return Ok(());
    }
    write_atomic(output, &upgraded)?;
    println!(
        "{} ({} bytes) -> {} ({} bytes): upgraded and restored",
        input.display(),
        bytes.len(),
        output.display(),
        upgraded.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<_> = std::env::args_os().skip(1).collect();
    let [input, output] = args.as_slice() else {
        eprintln!("usage: snapshot-upgrade <in> <out>");
        return ExitCode::from(2);
    };
    match run(Path::new(input), Path::new(output)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("snapshot-upgrade: {err}");
            ExitCode::FAILURE
        }
    }
}
