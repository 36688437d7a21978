//! The binary layout of the hot snapshot sections (`CODE`, `LAYT`), and its
//! encoders/decoders.
//!
//! The hot arrays (base point ids, point-major codes, the block-interleaved
//! fast-scan view) are stored **in their exact in-memory representation**,
//! padded so each array starts 64-byte aligned *in the file*, with explicit
//! offsets in a fixed header. A reader can then serve the arrays zero-copy
//! straight out of an `mmap` of the snapshot ([`map_layout_v3`]) — restore
//! cost is O(clusters) header/directory validation, not O(index bytes) — or
//! copy them out for the portable RAM-resident path ([`decode_layout_v3`]).
//! Both read the same bytes; there is no other encoding of these sections.
//!
//! Integrity is split in two tiers so an out-of-core restore does not
//! fault the whole file in:
//!
//! * a **meta checksum** over the header, CSR offsets, cluster directory,
//!   mutation tails and tombstone bitmap — verified eagerly at map time
//!   (these regions are small and needed immediately anyway);
//! * a **per-cluster checksum** over each cluster's ids + codes (+ the
//!   directory's `nibble`/`max_code` bytes, so a flipped directory byte
//!   cannot silently change block geometry) — verified lazily on the
//!   cluster's first probe by
//!   [`ResidencySet`](crate::residency::ResidencySet), which also rebuilds
//!   the block view from the codes and requires bit-identity.
//!
//! Alignment is an optimisation, never a correctness requirement: if the
//! container places a payload at an unexpected base offset the `u32` views
//! silently fall back to owned decoded copies
//! ([`U32Store::from_le_bytes`]), and the byte arrays need no alignment.
//!
//! Both payloads open with the `u64::MAX` sentinel + a `u32` version (3).
//! The encodings older builds wrote — a stream of length-prefixed vectors,
//! versioned 2 or not at all — are answered with [`Error::outdated`], which
//! names the offline `snapshot-upgrade` tool that still decodes them.

use crate::layout::{BlockCodes, IvfListCodes};
use crate::pq::{EncodedPoints, LazyCodeMeta};
use crate::residency::{ClusterMeta, ResidencySet};
use juno_common::error::{Error, Result};
use juno_common::mmap::{ByteStore, MappedBytes, Mmap, ResidencyConfig, U32Store};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// In-band sentinel opening a versioned section payload.
pub const MAPPED_SENTINEL: u64 = u64::MAX;
/// The mapped layout version this module writes for the LAYT section.
pub const LAYOUT_MAPPED_VERSION: u32 = 3;
/// The mapped layout version this module writes for the CODE section.
pub const CODES_MAPPED_VERSION: u32 = 3;

/// File alignment of every hot array (cache line; also divides the page
/// size, so per-cluster `madvise` ranges behave).
const ALIGN: usize = 64;
/// Fixed LAYT v3 header length (see [`encode_layout_v3`] for the fields).
const LAYT_HEADER_LEN: usize = 136;
/// One cluster-directory record: block offset/length, checksum, flags.
const DIR_RECORD_LEN: usize = 24;
/// Fixed CODE v3 header length.
const CODE_HEADER_LEN: usize = 56;

/// FNV-1a over a concatenation of byte slices — bit-identical to hashing
/// the concatenated bytes. Constants match `juno_data::snapshot::fnv1a`
/// (the container checksum), kept in-tree here because `juno-quant` sits
/// below `juno-data` in the dependency order.
pub(crate) fn fnv1a_chain(parts: &[&[u8]]) -> u32 {
    let mut hash = 0x811C_9DC5u32;
    for part in parts {
        for &b in *part {
            hash ^= b as u32;
            hash = hash.wrapping_mul(0x0100_0193);
        }
    }
    hash
}

fn rd_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn rd_u64(b: &[u8], at: usize) -> u64 {
    let mut v = [0u8; 8];
    v.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(v)
}

fn wr_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn wr_u64(b: &mut [u8], at: usize, v: u64) {
    b[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn to_usize(v: u64, what: &str) -> Result<usize> {
    usize::try_from(v).map_err(|_| Error::corrupted(format!("{what} {v} exceeds address space")))
}

/// Checks the sentinel + version heading of `section`'s payload — what
/// `juno_data::snapshot::SectionReader::expect_version` does over a cursor
/// (`juno-quant` sits below `juno-data`, as for [`fnv1a_chain`]).
fn expect_version(section: &str, b: &[u8], version: u32) -> Result<()> {
    if b.len() < 12 {
        return Err(Error::corrupted(format!(
            "{section}: payload shorter than its version heading"
        )));
    }
    if rd_u64(b, 0) != MAPPED_SENTINEL {
        return Err(Error::outdated(section, "an unversioned payload", version));
    }
    match rd_u32(b, 8) {
        found if found == version => Ok(()),
        found => Err(Error::outdated(
            section,
            format_args!("version {found}"),
            version,
        )),
    }
}

/// `a + b` with corruption (not panic/wrap) on overflow.
fn add(a: usize, b: usize) -> Result<usize> {
    a.checked_add(b)
        .ok_or_else(|| Error::corrupted("mapped-layout offset arithmetic overflows"))
}

/// `a * b` with corruption on overflow.
fn mul(a: usize, b: usize) -> Result<usize> {
    a.checked_mul(b)
        .ok_or_else(|| Error::corrupted("mapped-layout size arithmetic overflows"))
}

/// Pads `out` with zeros until `abs_off + out.len()` is `ALIGN`-aligned.
fn pad_to_align(out: &mut Vec<u8>, abs_off: usize) {
    let abs = abs_off + out.len();
    out.resize(out.len() + (abs.next_multiple_of(ALIGN) - abs), 0);
}

/// Checks that `off..off+len` lies within `total`, returning the end.
fn region(off: usize, len: usize, total: usize, what: &str) -> Result<usize> {
    let end = add(off, len)?;
    if end > total {
        return Err(Error::corrupted(format!(
            "mapped-layout {what} region {off}+{len} exceeds payload of {total} bytes"
        )));
    }
    Ok(end)
}

// ---------------------------------------------------------------------------
// LAYT v3
// ---------------------------------------------------------------------------
//
// Payload layout (all offsets relative to the payload start; the writer is
// told the payload's absolute file offset `abs_off` so the hot arrays land
// 64-byte aligned *in the file*):
//
//   0    u64  sentinel (u64::MAX)
//   8    u32  version (3)
//   12   u32  flags (0)
//   16   u64  S   — subspaces per code
//   24   u64  C   — clusters
//   32   u64  n   — base points
//   40   u64  next_id
//   48   u64  live
//   56   u64  stored_tombstones
//   64   u64  offsets_off   — (C+1) LE u32 CSR offsets
//   72   u64  dir_off       — C directory records of 24 B
//   80   u64  tail_off      — per-cluster tail stream, then tombstone bitmap
//   88   u64  tail_len
//   96   u64  ids_off       — n LE u32 base ids        (64-aligned)
//   104  u64  codes_off     — n*S base code bytes      (64-aligned)
//   112  u64  blocks_off    — per-cluster block views  (each 64-aligned)
//   120  u64  total_len
//   128  u32  meta_checksum — FNV over header[0..128] ‖ offsets ‖ dir ‖ tail
//   132  u32  pad (0)
//
// Directory record (per cluster):
//   0    u64  block_rel_off — relative to blocks_off
//   8    u64  block_len
//   16   u32  checksum      — FNV over ids ‖ codes ‖ [nibble, max_code]
//   20   u8   nibble (0/1)
//   21   u8   max_code
//   22   u16  pad (0)
//
// Tail stream: per cluster `u64 count`, `count` LE u32 ids, `count*S` code
// bytes; then `next_id` tombstone bytes (0/1).

/// Serialises the layout in the v3 mapped format. `abs_off` is the
/// absolute file offset at which this payload will be placed (the engine's
/// snapshot assembler computes it), used purely to align the hot arrays.
pub fn encode_layout_v3(list: &IvfListCodes, abs_off: usize) -> Vec<u8> {
    let s = list.num_subspaces;
    let c = list.num_clusters();
    let n = list.point_ids.len();
    let ids = list.point_ids.as_slice();

    let mut out = vec![0u8; LAYT_HEADER_LEN];
    let offsets_off = out.len();
    for &o in &list.offsets {
        out.extend_from_slice(&o.to_le_bytes());
    }
    let dir_off = out.len();
    out.resize(out.len() + c * DIR_RECORD_LEN, 0);
    let tail_off = out.len();
    for cl in 0..c {
        out.extend_from_slice(&(list.extra_ids[cl].len() as u64).to_le_bytes());
        for &id in &list.extra_ids[cl] {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.extend_from_slice(&list.extra_codes[cl]);
    }
    out.extend(list.deleted.iter().map(|&d| d as u8));
    let tail_len = out.len() - tail_off;

    pad_to_align(&mut out, abs_off);
    let ids_off = out.len();
    for &id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    pad_to_align(&mut out, abs_off);
    let codes_off = out.len();
    out.extend_from_slice(&list.codes);
    pad_to_align(&mut out, abs_off);
    let blocks_off = out.len();
    for cl in 0..c {
        pad_to_align(&mut out, abs_off);
        let rel = out.len() - blocks_off;
        let blocks = list.cluster_blocks(cl);
        out.extend_from_slice(blocks.data());
        // Per-cluster integrity record.
        let (a, b) = (list.offsets[cl] as usize, list.offsets[cl + 1] as usize);
        let id_bytes: Vec<u8> = ids[a..b].iter().flat_map(|i| i.to_le_bytes()).collect();
        let code_bytes = &list.codes[a * s..b * s];
        let max_code = code_bytes.iter().copied().max().unwrap_or(0);
        let nibble = blocks.nibble_packed();
        let checksum = fnv1a_chain(&[&id_bytes, code_bytes, &[nibble as u8, max_code]]);
        let rec = dir_off + cl * DIR_RECORD_LEN;
        wr_u64(&mut out, rec, rel as u64);
        wr_u64(&mut out, rec + 8, blocks.data().len() as u64);
        wr_u32(&mut out, rec + 16, checksum);
        out[rec + 20] = nibble as u8;
        out[rec + 21] = max_code;
    }

    wr_u64(&mut out, 0, MAPPED_SENTINEL);
    wr_u32(&mut out, 8, LAYOUT_MAPPED_VERSION);
    wr_u32(&mut out, 12, 0);
    for (at, v) in [
        (16, s as u64),
        (24, c as u64),
        (32, n as u64),
        (40, list.next_id as u64),
        (48, list.live as u64),
        (56, list.stored_tombstones as u64),
        (64, offsets_off as u64),
        (72, dir_off as u64),
        (80, tail_off as u64),
        (88, tail_len as u64),
        (96, ids_off as u64),
        (104, codes_off as u64),
        (112, blocks_off as u64),
        (120, out.len() as u64),
    ] {
        wr_u64(&mut out, at, v);
    }
    let meta = fnv1a_chain(&[
        &out[..128],
        &out[offsets_off..offsets_off + (c + 1) * 4],
        &out[dir_off..dir_off + c * DIR_RECORD_LEN],
        &out[tail_off..tail_off + tail_len],
    ]);
    wr_u32(&mut out, 128, meta);
    out
}

/// The parsed, validated skeleton of a v3 layout payload — everything
/// except the lazily-verified hot arrays.
struct LayoutV3 {
    s: usize,
    n: usize,
    next_id: u32,
    live: usize,
    stored_tombstones: usize,
    offsets: Vec<u32>,
    /// Per cluster: `(block_rel_off, block_len, checksum, nibble, max_code)`.
    dir: Vec<(usize, usize, u32, bool, u8)>,
    extra_ids: Vec<Vec<u32>>,
    extra_codes: Vec<Vec<u8>>,
    deleted: Vec<bool>,
    ids_off: usize,
    codes_off: usize,
    blocks_off: usize,
}

fn parse_layout_v3(b: &[u8]) -> Result<LayoutV3> {
    let bad = |msg: &str| Error::corrupted(format!("mapped layout: {msg}"));
    expect_version("LAYT", b, LAYOUT_MAPPED_VERSION)?;
    if b.len() < LAYT_HEADER_LEN {
        return Err(bad("payload shorter than the v3 header"));
    }
    if rd_u32(b, 12) != 0 {
        return Err(bad("unknown flags"));
    }
    let s = to_usize(rd_u64(b, 16), "subspace count")?;
    let c = to_usize(rd_u64(b, 24), "cluster count")?;
    let n = to_usize(rd_u64(b, 32), "point count")?;
    let next_id64 = rd_u64(b, 40);
    let live = to_usize(rd_u64(b, 48), "live count")?;
    let stored_tombstones = to_usize(rd_u64(b, 56), "tombstone count")?;
    let offsets_off = to_usize(rd_u64(b, 64), "offsets offset")?;
    let dir_off = to_usize(rd_u64(b, 72), "directory offset")?;
    let tail_off = to_usize(rd_u64(b, 80), "tail offset")?;
    let tail_len = to_usize(rd_u64(b, 88), "tail length")?;
    let ids_off = to_usize(rd_u64(b, 96), "ids offset")?;
    let codes_off = to_usize(rd_u64(b, 104), "codes offset")?;
    let blocks_off = to_usize(rd_u64(b, 112), "blocks offset")?;
    let total_len = to_usize(rd_u64(b, 120), "total length")?;
    if total_len != b.len() {
        return Err(bad("recorded length does not match the payload"));
    }
    if s == 0 {
        return Err(bad("subspace count must be positive"));
    }
    if c == 0 {
        return Err(bad("cluster count must be positive"));
    }
    let next_id = u32::try_from(next_id64).map_err(|_| bad("next id exceeds the u32 id space"))?;
    if n > u32::MAX as usize {
        return Err(bad("point count exceeds the u32 id space"));
    }

    // Eager (meta-checksummed) regions.
    let offsets_end = region(offsets_off, mul(add(c, 1)?, 4)?, total_len, "offsets")?;
    let dir_end = region(dir_off, mul(c, DIR_RECORD_LEN)?, total_len, "directory")?;
    let tail_end = region(tail_off, tail_len, total_len, "tail")?;
    let meta = fnv1a_chain(&[
        &b[..128],
        &b[offsets_off..offsets_end],
        &b[dir_off..dir_end],
        &b[tail_off..tail_end],
    ]);
    if meta != rd_u32(b, 128) {
        return Err(bad("meta checksum mismatch"));
    }

    // CSR offsets.
    let offsets: Vec<u32> = b[offsets_off..offsets_end]
        .chunks_exact(4)
        .map(|ch| u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]))
        .collect();
    if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(bad("offsets are not monotonically non-decreasing from 0"));
    }
    if *offsets.last().expect("c + 1 >= 2 entries") as usize != n {
        return Err(bad("final offset does not match the point count"));
    }

    // Hot-array regions (content verified lazily, bounds verified now).
    region(ids_off, mul(n, 4)?, total_len, "ids")?;
    region(codes_off, mul(n, s)?, total_len, "codes")?;

    // Cluster directory.
    let mut dir = Vec::with_capacity(c);
    for cl in 0..c {
        let rec = dir_off + cl * DIR_RECORD_LEN;
        let rel = to_usize(rd_u64(b, rec), "block offset")?;
        let len = to_usize(rd_u64(b, rec + 8), "block length")?;
        let checksum = rd_u32(b, rec + 16);
        let nibble = match b[rec + 20] {
            0 => false,
            1 => true,
            _ => return Err(bad("directory nibble flag is not boolean")),
        };
        let max_code = b[rec + 21];
        let n_c = (offsets[cl + 1] - offsets[cl]) as usize;
        if len != BlockCodes::expected_data_len(n_c, s, nibble) {
            return Err(bad("block view length does not match the cluster shape"));
        }
        region(add(blocks_off, rel)?, len, total_len, "block view")?;
        dir.push((rel, len, checksum, nibble, max_code));
    }

    // Tail stream + tombstone bitmap.
    let tail = &b[tail_off..tail_end];
    let mut at = 0usize;
    let mut extra_ids = Vec::with_capacity(c);
    let mut extra_codes = Vec::with_capacity(c);
    let mut total_tail = 0usize;
    for _ in 0..c {
        if at + 8 > tail.len() {
            return Err(bad("tail stream truncated"));
        }
        let count = to_usize(rd_u64(tail, at), "tail count")?;
        at += 8;
        let ids_len = mul(count, 4)?;
        let codes_len = mul(count, s)?;
        if add(at, add(ids_len, codes_len)?)? > tail.len() {
            return Err(bad("tail stream truncated"));
        }
        let ids: Vec<u32> = tail[at..at + ids_len]
            .chunks_exact(4)
            .map(|ch| u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]))
            .collect();
        at += ids_len;
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(bad("tail ids are not strictly increasing"));
        }
        if ids.iter().any(|&id| id >= next_id) {
            return Err(bad("tail id exceeds the id space"));
        }
        total_tail += count;
        extra_ids.push(ids);
        extra_codes.push(tail[at..at + codes_len].to_vec());
        at += codes_len;
    }
    if tail.len() - at != next_id as usize {
        return Err(bad("tombstone bitmap does not match the id space"));
    }
    let mut deleted = Vec::with_capacity(next_id as usize);
    for &byte in &tail[at..] {
        match byte {
            0 => deleted.push(false),
            1 => deleted.push(true),
            _ => return Err(bad("tombstone bitmap byte is not boolean")),
        }
    }

    // The stored-record ledger must balance: every stored record (base +
    // tail) is either live or a stored tombstone.
    if add(live, stored_tombstones)? != add(n, total_tail)? {
        return Err(bad("live/tombstone counts do not match the stored records"));
    }
    if stored_tombstones > deleted.iter().filter(|&&d| d).count() {
        return Err(bad("more stored tombstones than tombstone bits"));
    }

    Ok(LayoutV3 {
        s,
        n,
        next_id,
        live,
        stored_tombstones,
        offsets,
        dir,
        extra_ids,
        extra_codes,
        deleted,
        ids_off,
        codes_off,
        blocks_off,
    })
}

/// Opens a v3 layout payload **zero-copy** over its mapped bytes: eager
/// regions are validated now (meta checksum, shapes, bounds), the hot
/// arrays become views into the mapping, and a
/// [`ResidencySet`](crate::residency::ResidencySet) built from `config`
/// verifies each cluster on first probe.
///
/// # Errors
///
/// Returns [`Error::Corrupted`] for any framing, bounds, checksum or
/// consistency violation — a payload that maps successfully can be probed
/// without panicking, whatever its provenance.
pub fn map_layout_v3(bytes: MappedBytes, config: &ResidencyConfig) -> Result<IvfListCodes> {
    let parsed = parse_layout_v3(bytes.as_slice())?;
    let map: Arc<Mmap> = bytes.map().clone();
    let base = bytes.offset();
    let LayoutV3 {
        s,
        n,
        next_id,
        live,
        stored_tombstones,
        offsets,
        dir,
        extra_ids,
        extra_codes,
        deleted,
        ids_off,
        codes_off,
        blocks_off,
    } = parsed;

    let point_ids = U32Store::from_le_bytes(MappedBytes::new(map.clone(), base + ids_off, n * 4)?)?;
    let codes = ByteStore::Mapped(MappedBytes::new(map.clone(), base + codes_off, n * s)?);
    let mut blocks = Vec::with_capacity(dir.len());
    let mut metas = Vec::with_capacity(dir.len());
    let mut mapped_max = 0u8;
    for (cl, &(rel, len, checksum, nibble, max_code)) in dir.iter().enumerate() {
        let (a, b) = (offsets[cl] as usize, offsets[cl + 1] as usize);
        let view = MappedBytes::new(map.clone(), base + blocks_off + rel, len)?;
        blocks.push(BlockCodes::from_mapped(view, b - a, s, nibble)?);
        metas.push(ClusterMeta {
            ids: (base + ids_off + a * 4, (b - a) * 4),
            codes: (base + codes_off + a * s, (b - a) * s),
            blocks: (base + blocks_off + rel, len),
            checksum,
            nibble,
            max_code,
        });
        mapped_max = mapped_max.max(max_code);
    }
    let residency = ResidencySet::new(map, s, next_id, metas, config);
    Ok(IvfListCodes {
        offsets,
        point_ids,
        codes,
        num_subspaces: s,
        blocks,
        extra_ids,
        extra_codes,
        deleted,
        next_id,
        live,
        stored_tombstones,
        residency: Some(Arc::new(residency)),
        mapped_max_code: Some(mapped_max),
    })
}

/// Decodes a v3 layout payload into a fully **owned** RAM-resident layout —
/// the copy path, chosen when mapping is unavailable or the caller passed
/// plain bytes. Every cluster is verified eagerly and the result passes the
/// full [`IvfListCodes::from_parts`] invariant validation (including global
/// id uniqueness, which the lazy mapped path deliberately trusts to the
/// per-cluster checksums).
///
/// # Errors
///
/// Returns [`Error::Corrupted`] for any validation failure.
pub fn decode_layout_v3(payload: &[u8]) -> Result<IvfListCodes> {
    let map = Mmap::from_bytes(payload.to_vec());
    let len = map.len();
    let mapped = map_layout_v3(MappedBytes::new(map, 0, len)?, &ResidencyConfig::default())?;
    mapped.ensure_resident_all()?;
    IvfListCodes::from_parts(mapped.to_parts())
}

// ---------------------------------------------------------------------------
// CODE v3
// ---------------------------------------------------------------------------
//
// Payload layout:
//
//   0    u64  sentinel (u64::MAX)
//   8    u32  version (3)
//   12   u32  flags (0)
//   16   u64  S
//   24   u64  n
//   32   u64  data_off   — n*S dataset-order code bytes (64-aligned)
//   40   u64  total_len
//   48   u32  checksum   — FNV over the data bytes (verified lazily)
//   52   u8   max_code
//   53   u8×3 pad (0)

/// Serialises dataset-order codes in the v3 mapped format (`abs_off` as in
/// [`encode_layout_v3`]).
pub fn encode_codes_v3(codes: &EncodedPoints, abs_off: usize) -> Vec<u8> {
    let flat = codes.as_flat();
    let mut out = vec![0u8; CODE_HEADER_LEN];
    pad_to_align(&mut out, abs_off);
    let data_off = out.len();
    out.extend_from_slice(flat);
    wr_u64(&mut out, 0, MAPPED_SENTINEL);
    wr_u32(&mut out, 8, CODES_MAPPED_VERSION);
    wr_u32(&mut out, 12, 0);
    wr_u64(&mut out, 16, codes.num_subspaces() as u64);
    wr_u64(&mut out, 24, codes.len() as u64);
    wr_u64(&mut out, 32, data_off as u64);
    let total_len = out.len() as u64;
    wr_u64(&mut out, 40, total_len);
    wr_u32(&mut out, 48, fnv1a_chain(&[flat]));
    out[52] = flat.iter().copied().max().unwrap_or(0);
    out
}

/// Parses a CODE v3 header: `(S, n, data_off, checksum, max_code)`.
fn parse_codes_v3(b: &[u8]) -> Result<(usize, usize, usize, u32, u8)> {
    let bad = |msg: &str| Error::corrupted(format!("mapped codes: {msg}"));
    expect_version("CODE", b, CODES_MAPPED_VERSION)?;
    if b.len() < CODE_HEADER_LEN {
        return Err(bad("payload shorter than the v3 header"));
    }
    if rd_u32(b, 12) != 0 {
        return Err(bad("unknown flags"));
    }
    let s = to_usize(rd_u64(b, 16), "subspace count")?;
    let n = to_usize(rd_u64(b, 24), "point count")?;
    let data_off = to_usize(rd_u64(b, 32), "data offset")?;
    let total_len = to_usize(rd_u64(b, 40), "total length")?;
    if total_len != b.len() {
        return Err(bad("recorded length does not match the payload"));
    }
    if s == 0 {
        return Err(bad("subspace count must be positive"));
    }
    region(data_off, mul(n, s)?, total_len, "data")?;
    Ok((s, n, data_off, rd_u32(b, 48), b[52]))
}

/// Opens a CODE v3 payload zero-copy: the code bytes stay in the mapping,
/// checksum-verified lazily on first mutating/diagnostic use
/// ([`EncodedPoints::ensure_verified`]) — the search path never reads them.
///
/// # Errors
///
/// Returns [`Error::Corrupted`] for framing/bounds violations.
pub fn map_codes_v3(bytes: MappedBytes) -> Result<EncodedPoints> {
    let (s, n, data_off, checksum, max_code) = parse_codes_v3(bytes.as_slice())?;
    let data = MappedBytes::new(bytes.map().clone(), bytes.offset() + data_off, n * s)?;
    Ok(EncodedPoints {
        codes: ByteStore::Mapped(data),
        num_subspaces: s,
        lazy: Some(LazyCodeMeta {
            checksum,
            max_code,
            verified: AtomicBool::new(false),
        }),
    })
}

/// Decodes a CODE v3 payload into owned, eagerly-verified codes (the copy
/// path).
///
/// # Errors
///
/// Returns [`Error::Corrupted`] for any validation failure.
pub fn decode_codes_v3(payload: &[u8]) -> Result<EncodedPoints> {
    let (s, n, data_off, checksum, max_code) = parse_codes_v3(payload)?;
    let data = &payload[data_off..data_off + n * s];
    if fnv1a_chain(&[data]) != checksum {
        return Err(Error::corrupted("mapped codes: checksum mismatch"));
    }
    if data.iter().any(|&c| c > max_code) {
        return Err(Error::corrupted(
            "mapped codes: code exceeds recorded maximum",
        ));
    }
    EncodedPoints::from_parts(data.to_vec(), s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::IvfListCodes;

    /// A layout with mixed nibble/byte clusters, mutation tails and
    /// tombstones — every v3 region populated.
    fn sample_layout() -> IvfListCodes {
        let n = 150usize;
        let s = 4usize;
        let labels: Vec<usize> = (0..n).map(|i| i % 5).collect();
        let bytes: Vec<u8> = (0..n * s)
            .map(|at| {
                let (i, j) = (at / s, at % s);
                if i % 5 == 0 {
                    ((i * 7 + j) % 16) as u8 // cluster 0 nibble-packs
                } else {
                    16 + ((i * 3 + j) % 100) as u8
                }
            })
            .collect();
        let enc = EncodedPoints::from_parts(bytes, s).unwrap();
        let mut g = IvfListCodes::build(&labels, &enc, 5).unwrap();
        for k in 0..7u8 {
            g.append((k as usize) % 5, &[k, 1, 2, 3]).unwrap();
        }
        assert!(g.remove(3));
        assert!(g.remove(60));
        assert!(g.remove(150)); // a tail record
        g
    }

    fn file_with(payload: &[u8], abs_off: usize) -> (Arc<Mmap>, usize, usize) {
        let mut file = vec![0u8; abs_off];
        file.extend_from_slice(payload);
        let len = payload.len();
        (Mmap::from_bytes(file), abs_off, len)
    }

    fn map_at(payload: &[u8], abs_off: usize, config: &ResidencyConfig) -> Result<IvfListCodes> {
        let (map, off, len) = file_with(payload, abs_off);
        map_layout_v3(MappedBytes::new(map, off, len)?, config)
    }

    #[test]
    fn layout_round_trips_through_map_and_copy_paths() {
        let g = sample_layout();
        // An awkward (non-aligned) payload base exercises the writer's
        // absolute-alignment padding.
        let payload = encode_layout_v3(&g, 24);
        let mapped = map_at(&payload, 24, &ResidencyConfig::default()).unwrap();
        assert!(mapped.is_mapped());
        mapped.ensure_resident_all().unwrap();
        assert_eq!(mapped, g);
        for c in 0..g.num_clusters() {
            assert_eq!(mapped.cluster_ids(c), g.cluster_ids(c));
            assert_eq!(mapped.cluster_codes(c), g.cluster_codes(c));
            assert_eq!(mapped.cluster_tail(c), g.cluster_tail(c));
            assert_eq!(
                mapped.cluster_blocks(c).data(),
                g.cluster_blocks(c).data(),
                "cluster {c} block view"
            );
        }
        assert_eq!(mapped.max_code(), g.max_code());

        let copied = decode_layout_v3(&payload).unwrap();
        assert!(!copied.is_mapped());
        assert_eq!(copied, g);
    }

    #[test]
    fn hot_arrays_are_file_aligned_for_any_payload_base() {
        let g = sample_layout();
        for abs_off in [0usize, 24, 63, 64, 100] {
            let payload = encode_layout_v3(&g, abs_off);
            let ids_off = rd_u64(&payload, 96) as usize;
            let codes_off = rd_u64(&payload, 104) as usize;
            let blocks_off = rd_u64(&payload, 112) as usize;
            assert_eq!((abs_off + ids_off) % ALIGN, 0);
            assert_eq!((abs_off + codes_off) % ALIGN, 0);
            assert_eq!((abs_off + blocks_off) % ALIGN, 0);
            map_at(&payload, abs_off, &ResidencyConfig::default())
                .unwrap()
                .ensure_resident_all()
                .unwrap();
        }
    }

    #[test]
    fn tight_budget_evicts_but_serves_identical_content() {
        let g = sample_layout();
        let payload = encode_layout_v3(&g, 0);
        let total: usize = (0..g.num_clusters())
            .map(|c| g.cluster_blocks(c).data_bytes() + g.cluster_ids(c).len() * 8)
            .sum();
        let config = ResidencyConfig {
            budget_bytes: total / 3,
            pin_bytes: 0,
        };
        let mapped = map_at(&payload, 0, &config).unwrap();
        for _round in 0..3 {
            for c in 0..g.num_clusters() {
                mapped.touch_cluster(c).unwrap();
                assert_eq!(mapped.cluster_ids(c), g.cluster_ids(c));
                assert_eq!(mapped.cluster_blocks(c).data(), g.cluster_blocks(c).data());
            }
        }
        let stats = mapped.residency_stats().unwrap();
        assert!(stats.evictions > 0, "a third-of-index budget must evict");
        assert!(stats.cold_faults >= g.num_clusters() as u64);
        assert_eq!(stats.budget_bytes, total / 3);
    }

    #[test]
    fn pinned_clusters_never_evict() {
        let g = sample_layout();
        let payload = encode_layout_v3(&g, 0);
        let config = ResidencyConfig {
            budget_bytes: 1,       // evict everything evictable immediately
            pin_bytes: usize::MAX, // ...but pin every cluster
        };
        let mapped = map_at(&payload, 0, &config).unwrap();
        for c in 0..g.num_clusters() {
            mapped.touch_cluster(c).unwrap();
        }
        let stats = mapped.residency_stats().unwrap();
        assert_eq!(stats.evictions, 0);
        assert!(stats.pinned_bytes > 0);
    }

    /// Every single-byte corruption either fails at map time, fails the
    /// first touch of some cluster, or (padding) leaves the served content
    /// bit-identical. Nothing panics.
    #[test]
    fn every_byte_flip_is_caught_or_harmless() {
        let g = sample_layout();
        let payload = encode_layout_v3(&g, 0);
        for at in 0..payload.len() {
            let mut bad = payload.clone();
            bad[at] ^= 0x40;
            let Ok(mapped) = map_at(&bad, 0, &ResidencyConfig::default()) else {
                continue; // rejected eagerly
            };
            match mapped.ensure_resident_all() {
                Err(_) => continue, // rejected on first touch
                Ok(()) => assert_eq!(
                    mapped, g,
                    "undetected flip at byte {at} changed served content"
                ),
            }
        }
    }

    #[test]
    fn corrupt_cluster_keeps_failing_and_never_serves() {
        let g = sample_layout();
        let payload = encode_layout_v3(&g, 0);
        let ids_off = rd_u64(&payload, 96) as usize;
        let mut bad = payload.clone();
        bad[ids_off] ^= 0xFF; // cluster 0's first base id
        let mapped = map_at(&bad, 0, &ResidencyConfig::default()).unwrap();
        assert!(mapped.touch_cluster(0).is_err());
        assert!(mapped.touch_cluster(0).is_err(), "corruption is sticky");
        // Other clusters are unaffected.
        for c in 1..g.num_clusters() {
            mapped.touch_cluster(c).unwrap();
            assert_eq!(mapped.cluster_ids(c), g.cluster_ids(c));
        }
        let stats = mapped.residency_stats().unwrap();
        assert!(stats.hits + stats.cold_faults >= 4);
    }

    #[test]
    fn truncations_and_garbage_never_panic() {
        let g = sample_layout();
        let payload = encode_layout_v3(&g, 0);
        for len in (0..payload.len()).step_by(7).chain([payload.len() - 1]) {
            let r = map_at(&payload[..len], 0, &ResidencyConfig::default());
            assert!(r.is_err(), "truncation to {len} bytes must be rejected");
        }
        assert!(map_at(&[0xAB; 300], 0, &ResidencyConfig::default()).is_err());
        assert!(decode_layout_v3(&[0xAB; 300]).is_err());
        assert!(decode_codes_v3(&[0xAB; 300]).is_err());
    }

    #[test]
    fn codes_round_trip_mapped_and_copied() {
        let flat: Vec<u8> = (0..600).map(|i| (i % 23) as u8).collect();
        let enc = EncodedPoints::from_parts(flat, 4).unwrap();
        for abs_off in [0usize, 24] {
            let payload = encode_codes_v3(&enc, abs_off);
            let data_off = rd_u64(&payload, 32) as usize;
            assert_eq!((abs_off + data_off) % ALIGN, 0);
            let (map, off, len) = file_with(&payload, abs_off);
            let mapped = map_codes_v3(MappedBytes::new(map, off, len).unwrap()).unwrap();
            assert!(mapped.is_mapped());
            assert_eq!(mapped, enc);
            assert_eq!(mapped.claimed_max_code(), Some(22));
            mapped.ensure_verified().unwrap();
            let copied = decode_codes_v3(&payload).unwrap();
            assert!(!copied.is_mapped());
            assert_eq!(copied, enc);
        }
    }

    #[test]
    fn mapped_codes_verify_on_first_use_and_copy_on_write() {
        let flat: Vec<u8> = (0..200).map(|i| (i % 11) as u8).collect();
        let enc = EncodedPoints::from_parts(flat, 4).unwrap();
        let payload = encode_codes_v3(&enc, 0);

        // Flip a data byte: mapping still succeeds (lazy), verification and
        // the eager copy path both reject.
        let data_off = rd_u64(&payload, 32) as usize;
        let mut bad = payload.clone();
        bad[data_off + 5] ^= 0x01;
        let (map, off, len) = file_with(&bad, 0);
        let mapped = map_codes_v3(MappedBytes::new(map, off, len).unwrap()).unwrap();
        assert!(mapped.ensure_verified().is_err());
        let mut writable = mapped.clone();
        assert!(
            writable.push(&[1, 2, 3, 4]).is_err(),
            "no mutation of corrupt codes"
        );
        assert!(decode_codes_v3(&bad).is_err());

        // An intact mapping verifies, then copies on first write.
        let (map, off, len) = file_with(&payload, 0);
        let mut ok = map_codes_v3(MappedBytes::new(map, off, len).unwrap()).unwrap();
        ok.push(&[9, 9, 9, 9]).unwrap();
        assert!(!ok.is_mapped());
        assert_eq!(ok.len(), enc.len() + 1);
        assert_eq!(ok.code(enc.len()), &[9, 9, 9, 9]);
    }
}
