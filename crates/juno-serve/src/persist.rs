//! Whole-fleet persistence: the `SHRD` snapshot container.
//!
//! A fleet snapshot reuses the PR 2 container format (`juno-data`'s
//! `snapshot` module) with engine kind [`KIND_SHARD`]:
//!
//! * a `MANI` manifest section — format version, ownership mode (global-id
//!   vs mapped), the [`ShardRouter`], the shard count and the per-shard live
//!   counts (validated on restore);
//! * for mapped fleets, an `IMAP` section with the per-shard local→global
//!   id maps;
//! * one `S000`, `S001`, … section per shard, each holding that shard
//!   engine's **own** snapshot bytes verbatim (so every engine keeps its
//!   own format and checksums — the fleet layer only frames them).
//!
//! Shard sections are framed as a `u64::MAX` sentinel, a `u32` framing
//! version and a `u32` pad length followed by that many zero bytes, placing
//! the engine bytes at a 64-byte-aligned absolute file offset — the
//! alignment the engines' own mapped hot sections assume, so one
//! `decode_fleet` restores a fleet either by copy or zero-copy from an
//! mmap'd file. (Builds before the out-of-core PR length-prefixed the engine
//! bytes instead; such a file is answered with [`Error::outdated`], which
//! names the offline `snapshot-upgrade` tool.)
//!
//! Restore accepts a second shape: bytes whose container kind is *not*
//! `SHRD` are handed to the engine whole, as an unsharded engine snapshot,
//! and restore into a single-shard fleet — a single-index deployment moves
//! onto the serving layer without a migration step.

use crate::router::{ShardRouter, MAX_SHARDS};
use crate::shard::{shard_state, state_id_map, FleetReader, ShardState};
use juno_common::error::{Error, Result};
use juno_common::index::AnnIndex;
use juno_common::mmap::{Mmap, ResidencyConfig};
use juno_data::snapshot::{
    kind, peek_kind, SectionReader, SectionWriter, Snapshot, SnapshotWriter,
};
use std::sync::Arc;

/// The engine-kind word of fleet snapshots.
pub const KIND_SHARD: u32 = kind(*b"SHRD");

/// The manifest layout version written inside `MANI`.
const MANIFEST_VERSION: u32 = 1;

/// Version of the aligned shard-section framing.
const SHARD_SECTION_VERSION: u32 = 2;

/// Bytes of the framing header (sentinel + version + pad length).
const SHARD_FRAME_HEADER: usize = 16;

/// Alignment of the embedded engine bytes within the fleet file — matches
/// the alignment the engines' mapped hot sections are encoded against.
const SHARD_ALIGN: usize = 64;

/// The per-shard section tag: `S` followed by three decimal digits.
fn shard_tag(s: usize) -> [u8; 4] {
    debug_assert!(s < MAX_SHARDS);
    [
        b'S',
        b'0' + (s / 100) as u8,
        b'0' + ((s / 10) % 10) as u8,
        b'0' + (s % 10) as u8,
    ]
}

/// Frames one shard engine's snapshot bytes as an `Snnn` section payload
/// that [`SnapshotWriter::finish`] will place at absolute file offset
/// `payload_abs` ([`SnapshotWriter::next_payload_offset`]): padded so the
/// engine bytes land 64-byte-aligned in the fleet file, preserving the
/// alignment their own mapped sections were encoded against (an engine
/// snapshot always starts at offset 0 of its own file, which is aligned by
/// definition).
pub fn frame_shard_section(engine_bytes: &[u8], payload_abs: usize) -> SectionWriter {
    let pad = (SHARD_ALIGN - (payload_abs + SHARD_FRAME_HEADER) % SHARD_ALIGN) % SHARD_ALIGN;
    let mut section = SectionWriter::new();
    section.put_version(SHARD_SECTION_VERSION);
    section.put_u32(pad as u32);
    section.put_raw(&vec![0u8; pad]);
    section.put_raw(engine_bytes);
    section
}

/// Serialises a pinned fleet view into `SHRD` container bytes.
pub(crate) fn encode_fleet<I: AnnIndex>(
    reader: &FleetReader<I>,
    router: ShardRouter,
) -> Result<Vec<u8>> {
    let num_shards = reader.num_shards();
    let mapped = state_id_map(reader.shard(0)).is_some();
    let mut writer = SnapshotWriter::new(KIND_SHARD);

    let mut mani = SectionWriter::new();
    mani.put_u32(MANIFEST_VERSION);
    mani.put_u8(mapped as u8);
    router.encode(&mut mani);
    mani.put_u64(num_shards as u64);
    let lens: Vec<u64> = (0..num_shards)
        .map(|s| reader.shard(s).index().len() as u64)
        .collect();
    mani.put_u64s(&lens);
    writer.add_section(*b"MANI", mani);

    if mapped {
        let mut imap = SectionWriter::new();
        imap.put_u64(num_shards as u64);
        for s in 0..num_shards {
            let map = state_id_map(reader.shard(s))
                .ok_or_else(|| Error::invalid_config("fleet mixes mapped and global-id shards"))?;
            imap.put_u64s(map);
        }
        writer.add_section(*b"IMAP", imap);
    }

    for s in 0..num_shards {
        let sub = reader.shard(s).index().snapshot()?;
        let section = frame_shard_section(&sub, writer.next_payload_offset());
        writer.add_section(shard_tag(s), section);
    }
    Ok(writer.finish())
}

/// The range, within one shard section's `payload`, of the embedded engine
/// snapshot bytes.
fn shard_engine_range(s: usize, payload: &[u8]) -> Result<std::ops::Range<usize>> {
    let mut r = SectionReader::over(payload);
    r.expect_version(&format!("shard {s} section"), SHARD_SECTION_VERSION)?;
    let pad = r.get_u32()? as usize;
    if pad > r.remaining() {
        return Err(corrupted(format!(
            "shard {s} section padding overruns the payload"
        )));
    }
    Ok(SHARD_FRAME_HEADER + pad..payload.len())
}

/// The outcome of decoding fleet bytes: the shard states to publish and the
/// router recorded in the manifest (`None` for an unsharded engine snapshot,
/// where the caller keeps its current router).
pub(crate) struct DecodedFleet<I> {
    pub states: Vec<ShardState<I>>,
    pub router: Option<ShardRouter>,
}

fn corrupted(msg: impl std::fmt::Display) -> Error {
    Error::corrupted(format!("sharded snapshot: {msg}"))
}

/// Decodes `SHRD` container bytes (or an unsharded engine snapshot) into
/// shard states, restoring each shard into a clone of `prototype` — the one
/// walk behind both fleet restores. With `mapped = Some((map, residency))`,
/// `bytes` is the whole of `map` and the restore differs in two ways: the
/// shard sections skip the container checksum (each embedded engine
/// snapshot verifies itself), and each shard engine restores **zero-copy**
/// from its aligned region of the map via [`AnnIndex::restore_mapped`]
/// (engines without mapped support transparently copy) instead of from a
/// slice via [`AnnIndex::restore`].
///
/// Fully validates before returning, so a caller can swap its state
/// atomically: on error nothing has been published.
pub(crate) fn decode_fleet<I: AnnIndex + Clone>(
    bytes: &[u8],
    mapped: Option<(&Arc<Mmap>, &ResidencyConfig)>,
    prototype: &I,
    base_epoch: u64,
) -> Result<DecodedFleet<I>> {
    let restore_engine = |range: std::ops::Range<usize>| -> Result<I> {
        let mut engine = prototype.clone();
        match mapped {
            Some((map, residency)) => {
                engine.restore_mapped(map, range.start, range.len(), residency)?
            }
            None => engine.restore(&bytes[range])?,
        }
        Ok(engine)
    };

    // Peek the container kind before parsing: an unsharded engine snapshot
    // is handed to the engine whole, with the engine's own notion of which
    // sections stay lazy (and which error a non-snapshot deserves).
    if peek_kind(bytes) != Some(KIND_SHARD) {
        let engine = restore_engine(0..bytes.len())?;
        return Ok(DecodedFleet {
            states: vec![shard_state(engine, base_epoch, None)],
            router: None,
        });
    }

    let is_shard_section =
        |tag: &[u8; 4]| tag[0] == b'S' && tag[1..].iter().all(u8::is_ascii_digit);
    let snap = Snapshot::parse_lazy(bytes, |tag| mapped.is_some() && is_shard_section(tag))?;
    let manifest = parse_manifest(&mut snap.section(*b"MANI")?)?;
    let id_maps: Option<Vec<Arc<Vec<u64>>>> = if manifest.mapped {
        let mut imap = snap.section(*b"IMAP")?;
        Some(parse_id_maps(&mut imap, manifest.num_shards)?)
    } else {
        None
    };

    let mut states = Vec::with_capacity(manifest.num_shards);
    for s in 0..manifest.num_shards {
        let (off, len) = snap.section_range(shard_tag(s))?;
        let within = shard_engine_range(s, &bytes[off..off + len])?;
        let engine = restore_engine(off + within.start..off + within.end)?;
        let id_map = id_maps.as_ref().map(|maps| maps[s].clone());
        validate_shard(s, &engine, &manifest, id_map.as_deref())?;
        states.push(shard_state(engine, base_epoch, id_map));
    }
    Ok(DecodedFleet {
        states,
        router: Some(manifest.router),
    })
}

/// The decoded `MANI` section.
struct Manifest {
    mapped: bool,
    router: ShardRouter,
    num_shards: usize,
    lens: Vec<u64>,
}

fn parse_manifest(mani: &mut SectionReader<'_>) -> Result<Manifest> {
    let version = mani.get_u32()?;
    if version != MANIFEST_VERSION {
        return Err(corrupted(format!(
            "unknown manifest version {version} (reader supports {MANIFEST_VERSION})"
        )));
    }
    let mapped = match mani.get_u8()? {
        0 => false,
        1 => true,
        other => return Err(corrupted(format!("invalid ownership-mode byte {other}"))),
    };
    let router = ShardRouter::decode(mani)?;
    let num_shards = mani.get_usize()?;
    if num_shards == 0 || num_shards > MAX_SHARDS {
        return Err(corrupted(format!("invalid shard count {num_shards}")));
    }
    let lens = mani.get_u64s()?;
    if lens.len() != num_shards {
        return Err(corrupted(
            "per-shard length table does not match shard count",
        ));
    }
    mani.expect_end()?;
    Ok(Manifest {
        mapped,
        router,
        num_shards,
        lens,
    })
}

fn parse_id_maps(imap: &mut SectionReader<'_>, num_shards: usize) -> Result<Vec<Arc<Vec<u64>>>> {
    let count = imap.get_usize()?;
    if count != num_shards {
        return Err(corrupted("id-map table does not match shard count"));
    }
    let maps = (0..num_shards)
        .map(|_| imap.get_u64s().map(Arc::new))
        .collect::<Result<Vec<_>>>()?;
    imap.expect_end()?;
    // The same invariant `from_prebuilt` enforces: a global id may be
    // owned by at most one shard, or merged result sets would contain
    // duplicates.
    let mut all_ids: Vec<u64> = maps.iter().flat_map(|m| m.iter().copied()).collect();
    all_ids.sort_unstable();
    if all_ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(corrupted("global ids collide across shard id maps"));
    }
    Ok(maps)
}

/// Cross-checks one restored shard engine against the manifest.
fn validate_shard<I: AnnIndex>(
    s: usize,
    engine: &I,
    manifest: &Manifest,
    id_map: Option<&Vec<u64>>,
) -> Result<()> {
    if engine.len() as u64 != manifest.lens[s] {
        return Err(corrupted(format!(
            "shard {s} restored {} live vectors, manifest recorded {}",
            engine.len(),
            manifest.lens[s]
        )));
    }
    if let Some(map) = id_map {
        if map.len() != engine.len() {
            return Err(corrupted(format!(
                "shard {s} id map covers {} ids for {} vectors",
                map.len(),
                engine.len()
            )));
        }
    } else {
        // Global-id fleets maintain the invariant that every live id is
        // owned by the shard the router assigns it to (construction and
        // every insert/remove preserve it). A checksum-valid snapshot
        // violating it — e.g. one shard's payload duplicated into
        // another's section — would serve duplicate results and ids
        // that `remove` can never reach, so reject it here. This also
        // guarantees cross-shard live-id disjointness.
        for id in engine.ids() {
            let owner = manifest.router.route(id, manifest.num_shards);
            if owner != s {
                return Err(corrupted(format!(
                    "shard {s} holds live id {id}, which the router assigns to \
                     shard {owner}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_tags_are_unique_three_digit_ascii() {
        assert_eq!(&shard_tag(0), b"S000");
        assert_eq!(&shard_tag(7), b"S007");
        assert_eq!(&shard_tag(42), b"S042");
        assert_eq!(&shard_tag(998), b"S998");
        let mut seen = std::collections::HashSet::new();
        for s in 0..MAX_SHARDS {
            assert!(seen.insert(shard_tag(s)), "duplicate tag for shard {s}");
        }
    }
}
