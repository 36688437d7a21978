//! The versioned JUNO snapshot container format.
//!
//! Engines persist their full state (coarse quantiser, codebooks, code
//! layout, calibration models, ...) so that a process restart loads an index
//! instead of rebuilding it. This module owns the *container*: a small,
//! strictly little-endian, checksummed section format. What goes inside each
//! section is decided by the engine crates (`juno-core::persist`,
//! `juno-baseline`), which keeps the dependency direction data → engines.
//!
//! # Layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"JUNOSNAP"
//! 8       4     container format version (u32, currently 1)
//! 12      4     engine kind (u32, e.g. b"JUNO" as a little-endian word)
//! 16      4     section count (u32)
//! then, per section:
//!         4     tag (four ASCII bytes, e.g. b"CONF")
//!         8     payload length in bytes (u64)
//!         4     FNV-1a checksum of the payload (u32)
//!         n     payload
//! ```
//!
//! All integers and floats are little-endian. Floats are stored via their
//! IEEE-754 bit patterns, so values (including NaN payloads) round-trip
//! bit-exactly — the basis of the "search results are bit-identical after
//! reload" guarantee.
//!
//! # Versioning / compatibility policy
//!
//! * The container version is bumped only when this framing changes; readers
//!   reject any version they do not know (no silent best-effort parsing).
//! * Sections are looked up by tag, so engines may *add* sections without a
//!   container bump; an engine bumps its own kind-specific layout by writing
//!   a version field inside its `CONF` section.
//! * Every read is bounds- and checksum-checked and returns
//!   [`Error::Corrupted`] on any mismatch — malformed snapshots must never
//!   panic, however they were truncated or bit-flipped.

use juno_common::error::{Error, Result};

/// The 8-byte magic prefix of every snapshot.
pub const MAGIC: [u8; 8] = *b"JUNOSNAP";

/// The container format version this module writes and accepts.
pub const FORMAT_VERSION: u32 = 1;

/// Byte length of the container header (magic + version + kind + count).
pub const CONTAINER_HEADER_LEN: usize = 20;

/// Byte length of the per-section prefix (tag + payload length + checksum).
pub const SECTION_PREFIX_LEN: usize = 16;

/// Opens every versioned section payload, ahead of its `u32` version. The
/// unversioned encodings of the same sections began with a count or a
/// discriminant byte, which can never read as `u64::MAX`, so a loader can
/// tell a payload it does not read from a damaged one.
pub const VERSION_SENTINEL: u64 = u64::MAX;

/// Builds the `u32` engine-kind word from four ASCII bytes.
pub const fn kind(tag: [u8; 4]) -> u32 {
    u32::from_le_bytes(tag)
}

/// FNV-1a 32-bit checksum (in-tree; snapshots need tamper *detection*, not
/// cryptographic integrity).
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash = 0x811C_9DC5u32;
    for &b in bytes {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Word-wise FNV-1a: 64-bit state fed 8 input bytes per multiply, folded to
/// 32 bits. About an order of magnitude faster than the byte-serial
/// [`fnv1a`], at the same tamper-detection (not cryptographic) strength.
/// **Not interchangeable** with `fnv1a` — it exists for payloads whose
/// verification sits on the mapped-restore fast path, where the byte-serial
/// dependency chain would dominate an otherwise O(1) restore.
pub fn fnv1a_w64(bytes: &[u8]) -> u32 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        hash ^= u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        hash = hash.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    (hash ^ (hash >> 32)) as u32
}

fn corrupted(msg: impl std::fmt::Display) -> Error {
    Error::corrupted(format!("snapshot: {msg}"))
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Accumulates one section's payload with typed little-endian appends.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// Creates an empty section payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_string(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `bool` slice (one byte per flag).
    pub fn put_bools(&mut self, vs: &[bool]) {
        self.put_u64(vs.len() as u64);
        self.buf.extend(vs.iter().map(|&b| b as u8));
    }

    /// Appends a length-prefixed `u8` slice.
    pub fn put_u8s(&mut self, vs: &[u8]) {
        self.put_u64(vs.len() as u64);
        self.buf.extend_from_slice(vs);
    }

    /// Appends the in-band heading of a versioned payload: the
    /// [`VERSION_SENTINEL`], then `version` (read back by
    /// [`SectionReader::expect_version`]).
    pub fn put_version(&mut self, version: u32) {
        self.put_u64(VERSION_SENTINEL);
        self.put_u32(version);
    }

    /// Appends raw bytes verbatim (no length prefix) — container surgery
    /// such as re-encoding one section of an existing snapshot.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Appends a length-prefixed `f32` slice (bit patterns).
    pub fn put_f32s(&mut self, vs: &[f32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f32(v);
        }
    }

    /// Appends a length-prefixed `f64` slice (bit patterns).
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Appends a [`VectorSet`](juno_common::vector::VectorSet) as dimension +
    /// flat data.
    pub fn put_vector_set(&mut self, vs: &juno_common::vector::VectorSet) {
        self.put_u64(vs.dim() as u64);
        self.put_f32s(vs.as_flat());
    }

    /// Consumes the writer, yielding the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Assembles a full snapshot from tagged sections.
#[derive(Debug)]
pub struct SnapshotWriter {
    kind: u32,
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts a snapshot for the given engine kind (see [`kind`]).
    pub fn new(kind: u32) -> Self {
        Self {
            kind,
            sections: Vec::new(),
        }
    }

    /// Adds one tagged section. Tags must be unique within a snapshot.
    pub fn add_section(&mut self, tag: [u8; 4], payload: SectionWriter) -> &mut Self {
        debug_assert!(
            self.sections.iter().all(|(t, _)| *t != tag),
            "duplicate snapshot section tag"
        );
        self.sections.push((tag, payload.finish()));
        self
    }

    /// The absolute offset at which [`SnapshotWriter::finish`] will place
    /// the payload of the *next* section added — what a writer of an
    /// alignment-sensitive payload (the mapped `CODE`/`LAYT` layouts, a
    /// fleet's embedded engine snapshots) pads against.
    pub fn next_payload_offset(&self) -> usize {
        let written: usize = self
            .sections
            .iter()
            .map(|(_, p)| SECTION_PREFIX_LEN + p.len())
            .sum();
        CONTAINER_HEADER_LEN + written + SECTION_PREFIX_LEN
    }

    /// Serialises header + sections into the final byte buffer.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.next_payload_offset() - SECTION_PREFIX_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, payload) in &self.sections {
            out.extend_from_slice(tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// The engine kind of the container `bytes` opens with, read off the header
/// alone — for a caller that must pick a decoder before anything is parsed
/// or checksummed. `None` when `bytes` does not start with a container
/// header.
pub fn peek_kind(bytes: &[u8]) -> Option<u32> {
    (bytes.len() >= CONTAINER_HEADER_LEN && bytes[..8] == MAGIC)
        .then(|| u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte slice")))
}

/// A parsed snapshot: validated header and section table over the input
/// bytes, which may be an owned buffer or a region of an mmap'd file — the
/// container does not care.
///
/// [`Snapshot::parse`] checksums every payload. That touches every byte, so
/// over a mapping it would fault the whole file into memory — the opposite
/// of what an out-of-core restore wants. [`Snapshot::parse_lazy`] walks the
/// same framing with the same header, bounds and tag-uniqueness checks but
/// skips the container checksum of the sections its predicate claims; those
/// are payloads that carry their own finer-grained checksums (the v3 frame
/// of `IVFC`/`THRM`, the per-cluster checksums of `CODE`/`LAYT`, a fleet's
/// embedded engine snapshots), which their decoders verify instead.
#[derive(Debug)]
pub struct Snapshot<'a> {
    bytes: &'a [u8],
    kind: u32,
    /// `(tag, payload offset within `bytes`, payload length)`, sorted by tag.
    sections: Vec<([u8; 4], usize, usize)>,
}

impl<'a> Snapshot<'a> {
    /// Parses and fully validates a snapshot: magic, version, section
    /// framing, checksums and tag uniqueness.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for any malformed input; never panics.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        Self::parse_lazy(bytes, |_| false)
    }

    /// [`Snapshot::parse`], except that the sections `is_lazy` claims keep
    /// their container checksum unverified (see the type docs for who
    /// verifies them instead).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for any malformed framing, out-of-range
    /// section, duplicate tag or eager-section checksum mismatch.
    pub fn parse_lazy(bytes: &'a [u8], is_lazy: impl Fn(&[u8; 4]) -> bool) -> Result<Self> {
        let mut cur = SectionReader { bytes };
        if cur.take(8)? != MAGIC {
            return Err(corrupted("bad magic"));
        }
        let version = cur.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(corrupted(format!(
                "unknown container version {version} (reader supports {FORMAT_VERSION})"
            )));
        }
        let kind = cur.get_u32()?;
        let count = cur.get_u32()? as usize;
        let mut sections: Vec<([u8; 4], usize, usize)> = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let tag: [u8; 4] = cur.take(4)?.try_into().expect("take(4) yields 4 bytes");
            let len = usize::try_from(cur.get_u64()?)
                .map_err(|_| corrupted("section length exceeds address space"))?;
            let checksum = cur.get_u32()?;
            // The payload's offset is how much of `bytes` the cursor has
            // consumed so far.
            let offset = bytes.len() - cur.bytes.len();
            let payload = cur.take(len)?;
            if !is_lazy(&tag) && fnv1a(payload) != checksum {
                return Err(corrupted(format!(
                    "checksum mismatch in section {:?}",
                    String::from_utf8_lossy(&tag)
                )));
            }
            sections.push((tag, offset, len));
        }
        if !cur.bytes.is_empty() {
            return Err(corrupted("trailing bytes after final section"));
        }
        // Sort the table once so lookups are O(log n) and duplicates become
        // adjacent — with per-cluster section tables (out-of-core layout) a
        // linear `any()` per insert is O(n²) in the section count.
        sections.sort_unstable_by_key(|&(tag, ..)| tag);
        if sections.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(corrupted("duplicate section tag"));
        }
        Ok(Self {
            bytes,
            kind,
            sections,
        })
    }

    /// The engine kind stored in the header.
    pub fn kind(&self) -> u32 {
        self.kind
    }

    /// Tags of all sections, sorted.
    pub fn tags(&self) -> impl Iterator<Item = [u8; 4]> + '_ {
        self.sections.iter().map(|&(tag, ..)| tag)
    }

    fn find(&self, tag: [u8; 4]) -> Option<(usize, usize)> {
        self.sections
            .binary_search_by_key(&tag, |&(t, ..)| t)
            .ok()
            .map(|i| (self.sections[i].1, self.sections[i].2))
    }

    /// The `(offset, length)` of a section's payload within the parsed
    /// bytes (binary search over the tag-sorted table) — what a zero-copy
    /// decoder slices its view of a mapping from.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when the section is absent.
    pub fn section_range(&self, tag: [u8; 4]) -> Result<(usize, usize)> {
        self.find(tag).ok_or_else(|| {
            corrupted(format!(
                "missing section {:?}",
                String::from_utf8_lossy(&tag)
            ))
        })
    }

    /// Opens the section with the given tag for cursor-based reading.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when the section is absent.
    pub fn section(&self, tag: [u8; 4]) -> Result<SectionReader<'a>> {
        let (offset, len) = self.section_range(tag)?;
        Ok(SectionReader {
            bytes: &self.bytes[offset..offset + len],
        })
    }

    /// Whether a section with the given tag is present — lets decoders
    /// branch on optional sections without treating absence as corruption.
    pub fn has_section(&self, tag: [u8; 4]) -> bool {
        self.find(tag).is_some()
    }
}

/// A bounds-checked little-endian cursor over one section's payload. Every
/// accessor returns [`Error::Corrupted`] instead of panicking when the
/// payload is too short.
#[derive(Debug, Clone)]
pub struct SectionReader<'a> {
    bytes: &'a [u8],
}

impl<'a> SectionReader<'a> {
    /// Opens a cursor over raw payload bytes the caller already framed and
    /// verified — e.g. the body of a sentinel-versioned section after its
    /// own header and checksum have been peeled off.
    pub fn over(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() < n {
            return Err(corrupted(format!(
                "truncated: wanted {n} bytes, {} remain",
                self.bytes.len()
            )));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    /// Consumes the heading [`SectionWriter::put_version`] wrote.
    ///
    /// # Errors
    ///
    /// [`Error::outdated`] — naming `section`, what was found and the
    /// `snapshot-upgrade` tool — when the payload is unversioned or carries
    /// another version; [`Error::Corrupted`] on truncation.
    pub fn expect_version(&mut self, section: &str, version: u32) -> Result<()> {
        if self.get_u64()? != VERSION_SENTINEL {
            return Err(Error::outdated(section, "an unversioned payload", version));
        }
        match self.get_u32()? {
            found if found == version => Ok(()),
            found => Err(Error::outdated(
                section,
                format_args!("version {found}"),
                version,
            )),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// Fails unless the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when bytes remain.
    pub fn expect_end(&self) -> Result<()> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(corrupted(format!(
                "{} unread trailing bytes in section",
                self.bytes.len()
            )))
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] on truncation (same for all getters).
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`SectionReader::get_u8`].
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("take(4) yields 4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`SectionReader::get_u8`].
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("take(8) yields 8 bytes"),
        ))
    }

    /// Reads a `u64` and converts it to `usize`.
    ///
    /// # Errors
    ///
    /// See [`SectionReader::get_u8`]; also fails when the value exceeds the
    /// address space.
    pub fn get_usize(&mut self) -> Result<usize> {
        usize::try_from(self.get_u64()?).map_err(|_| corrupted("count exceeds address space"))
    }

    /// Reads an `f32` bit pattern.
    ///
    /// # Errors
    ///
    /// See [`SectionReader::get_u8`].
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// See [`SectionReader::get_u8`].
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// The length prefix of a slice, validated against the element size and
    /// the remaining payload so huge corrupt counts cannot trigger massive
    /// allocations.
    fn slice_len(&mut self, elem_size: usize) -> Result<usize> {
        let n = self.get_usize()?;
        let total = n
            .checked_mul(elem_size)
            .ok_or_else(|| corrupted("slice length overflows"))?;
        if total > self.bytes.len() {
            return Err(corrupted(format!(
                "truncated slice: {total} bytes declared, {} remain",
                self.bytes.len()
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Fails on truncation or invalid UTF-8.
    pub fn get_string(&mut self) -> Result<String> {
        let n = self.slice_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupted("invalid UTF-8 string"))
    }

    /// Reads a length-prefixed `bool` slice.
    ///
    /// # Errors
    ///
    /// Fails on truncation or a flag byte other than 0/1.
    pub fn get_bools(&mut self) -> Result<Vec<bool>> {
        let n = self.slice_len(1)?;
        let bytes = self.take(n)?;
        bytes
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(corrupted("invalid boolean byte")),
            })
            .collect()
    }

    /// Reads a length-prefixed `u8` slice.
    ///
    /// # Errors
    ///
    /// See [`SectionReader::get_u8`].
    pub fn get_u8s(&mut self) -> Result<Vec<u8>> {
        let n = self.slice_len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Takes every byte not yet consumed (container surgery — copying a
    /// section payload verbatim).
    pub fn take_rest(&mut self) -> &'a [u8] {
        self.take(self.bytes.len()).expect("length is exact")
    }

    /// Reads a length-prefixed `u32` slice.
    ///
    /// # Errors
    ///
    /// See [`SectionReader::get_u8`].
    pub fn get_u32s(&mut self) -> Result<Vec<u32>> {
        let n = self.slice_len(4)?;
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
            .collect())
    }

    /// Reads a length-prefixed `u64` slice.
    ///
    /// # Errors
    ///
    /// See [`SectionReader::get_u8`].
    pub fn get_u64s(&mut self) -> Result<Vec<u64>> {
        let n = self.slice_len(8)?;
        let bytes = self.take(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect())
    }

    /// Reads a length-prefixed `f32` slice (bit patterns).
    ///
    /// # Errors
    ///
    /// See [`SectionReader::get_u8`].
    pub fn get_f32s(&mut self) -> Result<Vec<f32>> {
        Ok(self.get_u32s()?.into_iter().map(f32::from_bits).collect())
    }

    /// Reads a length-prefixed `f64` slice (bit patterns).
    ///
    /// # Errors
    ///
    /// See [`SectionReader::get_u8`].
    pub fn get_f64s(&mut self) -> Result<Vec<f64>> {
        Ok(self.get_u64s()?.into_iter().map(f64::from_bits).collect())
    }

    /// Reads a [`VectorSet`](juno_common::vector::VectorSet) written by
    /// [`SectionWriter::put_vector_set`].
    ///
    /// # Errors
    ///
    /// Fails on truncation or an invalid dimension / buffer shape.
    pub fn get_vector_set(&mut self) -> Result<juno_common::vector::VectorSet> {
        let dim = self.get_usize()?;
        let data = self.get_f32s()?;
        juno_common::vector::VectorSet::from_flat(data, dim)
            .map_err(|e| corrupted(format!("invalid vector set: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::rng::{seeded, Rng};
    use juno_common::vector::VectorSet;

    const K: u32 = kind(*b"TEST");

    fn sample_snapshot() -> Vec<u8> {
        let mut a = SectionWriter::new();
        a.put_u8(7);
        a.put_u32(0xDEAD_BEEF);
        a.put_u64(1 << 40);
        a.put_f32(-1.5);
        a.put_f64(std::f64::consts::PI);
        a.put_string("hello snapshot");
        let mut b = SectionWriter::new();
        b.put_bools(&[true, false, true]);
        b.put_u8s(&[9, 0, 255]);
        b.put_u32s(&[10, 20]);
        b.put_u64s(&[u64::MAX]);
        b.put_f32s(&[0.25, f32::NAN]);
        b.put_f64s(&[-0.125]);
        b.put_vector_set(&VectorSet::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap());
        let mut w = SnapshotWriter::new(K);
        w.add_section(*b"AAAA", a);
        w.add_section(*b"BBBB", b);
        w.finish()
    }

    #[test]
    fn section_ranges_are_offsets_into_the_parsed_bytes() {
        // An engine snapshot embedded inside a larger file (a fleet
        // S-section) parses from its sub-slice; the caller adds the base.
        let inner = sample_snapshot();
        let mut file = vec![0xABu8; 100];
        file.extend_from_slice(&inner);
        file.extend_from_slice(&[0xCD; 7]);
        let snap = Snapshot::parse_lazy(&file[100..100 + inner.len()], |_| true).unwrap();
        assert_eq!(snap.kind(), K);
        assert_eq!(snap.tags().collect::<Vec<_>>(), [*b"AAAA", *b"BBBB"]);
        let (off, len) = snap.section_range(*b"AAAA").unwrap();
        assert_eq!(off, CONTAINER_HEADER_LEN + SECTION_PREFIX_LEN);
        assert_eq!(&file[100 + off..100 + off + len][..1], &[7]);
        assert!(snap.section_range(*b"ZZZZ").is_err());
        // A slice that spills past the container is corruption, not a panic.
        assert!(Snapshot::parse_lazy(&file[100..], |_| true).is_err());
        assert_eq!(peek_kind(&file[100..]), Some(K));
        assert_eq!(peek_kind(&file), None);
        assert_eq!(peek_kind(&inner[..CONTAINER_HEADER_LEN - 1]), None);
    }

    #[test]
    fn next_payload_offset_is_where_finish_places_the_next_payload() {
        let mut w = SnapshotWriter::new(K);
        let mut expected = Vec::new();
        for (i, len) in [0usize, 1, 63, 64, 1000, 7].into_iter().enumerate() {
            expected.push((w.next_payload_offset(), len));
            let mut s = SectionWriter::new();
            s.put_raw(&vec![i as u8 + 1; len]);
            w.add_section([b'T', b'0', b'0', b'0' + i as u8], s);
        }
        let end = w.next_payload_offset() - SECTION_PREFIX_LEN;
        let bytes = w.finish();
        assert_eq!(bytes.len(), end);
        let snap = Snapshot::parse(&bytes).unwrap();
        for (i, want) in expected.into_iter().enumerate() {
            let tag = [b'T', b'0', b'0', b'0' + i as u8];
            assert_eq!(snap.section_range(tag).unwrap(), want, "section {i}");
        }
    }

    #[test]
    fn lazy_sections_skip_the_container_checksum() {
        let mut bytes = sample_snapshot();
        // Flip one byte inside BBBB's payload (last byte of the file is
        // payload data of the final section).
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        // Eager parse rejects it…
        assert!(Snapshot::parse(&bytes).is_err());
        // …a parse with BBBB lazy leaves the check to BBBB's decoder…
        let snap = Snapshot::parse_lazy(&bytes, |tag| tag == b"BBBB").unwrap();
        assert!(snap.has_section(*b"BBBB"));
        // …and a lazy AAAA does not excuse BBBB.
        assert!(Snapshot::parse_lazy(&bytes, |tag| tag == b"AAAA").is_err());
    }

    #[test]
    fn round_trip_preserves_every_type() {
        let bytes = sample_snapshot();
        let snap = Snapshot::parse(&bytes).unwrap();
        assert_eq!(snap.kind(), K);

        let mut a = snap.section(*b"AAAA").unwrap();
        assert_eq!(a.get_u8().unwrap(), 7);
        assert_eq!(a.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(a.get_u64().unwrap(), 1 << 40);
        assert_eq!(a.get_f32().unwrap().to_bits(), (-1.5f32).to_bits());
        assert_eq!(
            a.get_f64().unwrap().to_bits(),
            std::f64::consts::PI.to_bits()
        );
        assert_eq!(a.get_string().unwrap(), "hello snapshot");
        a.expect_end().unwrap();

        let mut b = snap.section(*b"BBBB").unwrap();
        assert_eq!(b.get_bools().unwrap(), vec![true, false, true]);
        assert_eq!(b.get_u8s().unwrap(), vec![9, 0, 255]);
        assert_eq!(b.get_u32s().unwrap(), vec![10, 20]);
        assert_eq!(b.get_u64s().unwrap(), vec![u64::MAX]);
        let f32s = b.get_f32s().unwrap();
        assert_eq!(f32s[0], 0.25);
        assert!(f32s[1].is_nan(), "NaN bit patterns round-trip");
        assert_eq!(b.get_f64s().unwrap(), vec![-0.125]);
        let vs = b.get_vector_set().unwrap();
        assert_eq!(vs.row(1), &[3.0, 4.0]);
        b.expect_end().unwrap();

        assert!(snap.section(*b"ZZZZ").is_err());
    }

    #[test]
    fn raw_bytes_and_take_rest_support_container_surgery() {
        // Copy one section of an existing snapshot verbatim into a new
        // container (how `tests/snapshot_upgrade.rs` synthesises the
        // snapshots older builds wrote, and how `snapshot-upgrade` carries
        // over the sections it does not transcode).
        let bytes = sample_snapshot();
        let snap = Snapshot::parse(&bytes).unwrap();
        let payload = snap.section(*b"AAAA").unwrap().take_rest().to_vec();
        let mut copied = SectionWriter::new();
        copied.put_raw(&payload);
        let mut w = SnapshotWriter::new(K);
        w.add_section(*b"AAAA", copied);
        let rebuilt = w.finish();
        let snap2 = Snapshot::parse(&rebuilt).unwrap();
        let mut a = snap2.section(*b"AAAA").unwrap();
        assert_eq!(a.get_u8().unwrap(), 7);
        assert_eq!(a.get_u32().unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn every_truncation_errors_not_panics() {
        let bytes = sample_snapshot();
        for len in 0..bytes.len() {
            let r = Snapshot::parse(&bytes[..len]);
            assert!(r.is_err(), "truncation to {len} bytes must be rejected");
            // The framing alone catches it, with every checksum skipped.
            assert!(Snapshot::parse_lazy(&bytes[..len], |_| true).is_err());
        }
    }

    #[test]
    fn every_single_byte_flip_errors_or_fails_section_reads() {
        let bytes = sample_snapshot();
        // Flipping any byte must surface as Err somewhere on the read path —
        // never as a panic. (Header/framing flips fail parse(); payload flips
        // fail the checksum.)
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let Ok(snap) = Snapshot::parse(&corrupt) else {
                continue;
            };
            // Parsing may survive flips only in uninterpreted identity bytes
            // (the engine kind word, a section tag); payloads are checksummed.
            // Any surviving flip must still be *detectable* by the caller.
            let detectable = snap.kind() != K
                || snap.section(*b"AAAA").is_err()
                || snap.section(*b"BBBB").is_err();
            assert!(detectable, "flip at {i} was undetectable");
        }
    }

    #[test]
    fn random_garbage_never_panics() {
        let mut rng = seeded(99);
        for _ in 0..200 {
            let len = rng.gen_range(0..300usize);
            let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256usize) as u8).collect();
            let _ = Snapshot::parse(&garbage); // must not panic
            let _ = Snapshot::parse_lazy(&garbage, |_| true);
        }
        // Garbage with a valid prefix but absurd section lengths.
        let mut w = Vec::new();
        w.extend_from_slice(&MAGIC);
        w.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        w.extend_from_slice(&K.to_le_bytes());
        w.extend_from_slice(&1u32.to_le_bytes());
        w.extend_from_slice(b"HUGE");
        w.extend_from_slice(&u64::MAX.to_le_bytes());
        w.extend_from_slice(&0u32.to_le_bytes());
        assert!(Snapshot::parse(&w).is_err());
    }

    #[test]
    fn corrupt_counts_inside_sections_are_bounded() {
        // A section claiming a huge slice count must fail cleanly instead of
        // attempting a massive allocation.
        let mut w = SnapshotWriter::new(K);
        let mut s = SectionWriter::new();
        s.put_u64(u64::MAX); // an absurd element count
        w.add_section(*b"EVIL", s);
        let bytes = w.finish();
        let snap = Snapshot::parse(&bytes).unwrap();
        let mut r = snap.section(*b"EVIL").unwrap();
        assert!(r.get_u32s().is_err());
        let mut r2 = snap.section(*b"EVIL").unwrap();
        assert!(r2.get_string().is_err());
        let mut r3 = snap.section(*b"EVIL").unwrap();
        assert!(r3.get_vector_set().is_err());
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let bytes = sample_snapshot();
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 99;
        assert!(matches!(
            Snapshot::parse(&wrong_version),
            Err(juno_common::error::Error::Corrupted(_))
        ));
        let mut wrong_magic = bytes;
        wrong_magic[0] = b'X';
        assert!(Snapshot::parse(&wrong_magic).is_err());
        assert_eq!(fnv1a(b""), 0x811C_9DC5);
    }
}
