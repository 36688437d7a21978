//! Memory-mapped snapshot files: zero-copy byte access with an owned
//! fallback, plus the small typed views the out-of-core index layout is
//! built from.
//!
//! # Design
//!
//! [`Mmap`] maps a whole file read-only ([`Mmap::open`]). On 64-bit unix
//! hosts it uses the platform `mmap(2)`/`madvise(2)`/`munmap(2)` calls
//! directly (declared in-tree — the workspace builds without external
//! crates, and std already links libc on unix). Everywhere else — and when
//! `JUNO_DISABLE_MMAP` is set in the environment — it falls back to reading
//! the file into an owned buffer behind the same API, so every consumer is
//! written once against [`Mmap`] and gets portability for free.
//!
//! Mapped memory is **read-only** and the file is expected to be immutable
//! while mapped: JUNO snapshots are published by atomic rename
//! ([`crate::atomic_file`]), never modified in place, so a mapped snapshot
//! generation can only disappear by being *unlinked* (which keeps the
//! mapping alive on unix). Truncating a snapshot file while a process is
//! serving from it is outside the durability contract and may fault the
//! process (`SIGBUS`), exactly as it would any mmap-based database.
//!
//! [`ByteStore`] / [`U32Store`] are the copy-on-write views the layout
//! structures store: either an owned vector (RAM-resident path, mutation
//! tails) or a range of a shared [`Mmap`]. Equality compares *content*, so
//! a mapped index and its RAM-resident twin compare equal — the parity
//! tests rely on that.
//!
//! [`ResidencyConfig`] is carried here (rather than in the quantization
//! crate) so both the engine and the serving layer can name it without new
//! dependency edges.

use crate::error::{Error, Result};
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// True when this build can map files (64-bit unix) and the
/// `JUNO_DISABLE_MMAP` escape hatch is not set.
pub fn mmap_supported() -> bool {
    cfg!(all(unix, target_pointer_width = "64")) && std::env::var_os("JUNO_DISABLE_MMAP").is_none()
}

/// Residency advice for a mapped range, forwarded to `madvise(2)` where
/// available and ignored by the owned fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// The range will be needed soon — prefault it.
    WillNeed,
    /// The range is cold — the kernel may drop its pages (they fault back
    /// in transparently on the next access; this is advisory eviction, not
    /// unmapping).
    DontNeed,
}

/// Residency budget for a mapped index: how many bytes of cold cluster data
/// may be resident at once, and how many bytes of the hottest clusters are
/// pinned (never evicted).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResidencyConfig {
    /// Advisory cap, in bytes, on resident *unpinned* cluster data; `0`
    /// means unlimited (no eviction). The cap is enforced with clock
    /// eviction via [`Advice::DontNeed`], so it bounds steady-state RSS
    /// rather than hard-failing accesses.
    pub budget_bytes: usize,
    /// Bytes of cluster data to pin at restore time, largest clusters
    /// first. Pinned clusters are prefaulted and never evicted.
    pub pin_bytes: usize,
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::c_void;

    // Declared in-tree: std links libc on every unix target, so these
    // resolve without adding a dependency. Constant values below are
    // identical on Linux and macOS for the subset we use.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
        fn getpagesize() -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_SHARED: i32 = 1;
    const MADV_WILLNEED: i32 = 3;
    const MADV_DONTNEED: i32 = 4;

    pub fn page_size() -> usize {
        // SAFETY: no preconditions; returns the VM page size.
        (unsafe { getpagesize() }).max(1) as usize
    }

    /// Maps `len` bytes of `fd` read-only. Returns the mapping address or
    /// `None` on failure (caller falls back to an owned read).
    pub fn map_readonly(fd: i32, len: usize) -> Option<*mut u8> {
        // SAFETY: requesting a fresh read-only shared mapping of a file we
        // hold open; the kernel validates fd/len and reports MAP_FAILED.
        let ptr = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_SHARED, fd, 0) };
        if ptr == usize::MAX as *mut c_void {
            None
        } else {
            Some(ptr.cast())
        }
    }

    /// # Safety
    /// `ptr..ptr+len` must be a live mapping created by [`map_readonly`].
    pub unsafe fn unmap(ptr: *mut u8, len: usize) {
        let _ = munmap(ptr.cast(), len);
    }

    /// # Safety
    /// `ptr..ptr+len` must lie within a live mapping.
    pub unsafe fn advise(ptr: *mut u8, len: usize, advice: super::Advice) {
        let flag = match advice {
            super::Advice::WillNeed => MADV_WILLNEED,
            super::Advice::DontNeed => MADV_DONTNEED,
        };
        let _ = madvise(ptr.cast(), len, flag);
    }
}

#[derive(Debug)]
enum Backing {
    /// A live `mmap(2)` region of `mapped_len` bytes (page-rounded).
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped { ptr: *mut u8, mapped_len: usize },
    /// Portable fallback: the whole file read into memory.
    Owned(Vec<u8>),
}

/// A read-only byte region backed by either a real memory mapping or an
/// owned buffer (portable fallback). Shared via `Arc` by every view cut
/// from it; the mapping is released when the last view drops.
#[derive(Debug)]
pub struct Mmap {
    backing: Backing,
    len: usize,
}

// SAFETY: the mapping is read-only for its entire lifetime and the backing
// pointer is never exposed mutably; concurrent reads of immutable memory
// are safe.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Backing::Mapped { ptr, mapped_len } = self.backing {
            // SAFETY: we created this mapping in `open` and nothing else
            // unmaps it; after Drop no view can exist (they hold the Arc).
            unsafe { sys::unmap(ptr, mapped_len) };
        }
    }
}

impl Mmap {
    /// Maps `path` read-only, falling back to an owned read of the whole
    /// file when mapping is unsupported or disabled via `JUNO_DISABLE_MMAP`.
    ///
    /// # Errors
    ///
    /// The I/O error of the failing open / stat / read, kind intact — so a
    /// caller walking snapshot generations
    /// ([`crate::atomic_file::load_newest`]) can tell a missing file from an
    /// unreadable one.
    pub fn open(path: &Path) -> std::io::Result<Arc<Self>> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if mmap_supported() {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if len > usize::MAX as u64 / 2 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("file of {len} bytes exceeds the address space"),
                ));
            }
            let len = len as usize;
            if len > 0 {
                if let Some(ptr) = sys::map_readonly(file.as_raw_fd(), len) {
                    // The fd can be closed now; the mapping keeps the file
                    // contents reachable on its own.
                    return Ok(Arc::new(Self {
                        backing: Backing::Mapped {
                            ptr,
                            mapped_len: len,
                        },
                        len,
                    }));
                }
            }
            // Zero-length files and exotic filesystems that refuse MAP_SHARED
            // fall through to the owned read below.
        }
        Ok(Arc::new(Self::from_vec(std::fs::read(path)?)))
    }

    /// Wraps an owned buffer behind the [`Mmap`] API (used by the portable
    /// fallback and by tests that build snapshots in memory).
    pub fn from_bytes(bytes: Vec<u8>) -> Arc<Self> {
        Arc::new(Self::from_vec(bytes))
    }

    fn from_vec(bytes: Vec<u8>) -> Self {
        let len = bytes.len();
        Self {
            backing: Backing::Owned(bytes),
            len,
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when backed by a real kernel mapping (false for the owned
    /// fallback — residency advice is then a no-op).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped { .. } => true,
            Backing::Owned(_) => false,
        }
    }

    /// The full region as a byte slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped { ptr, .. } => {
                // SAFETY: `ptr` is a live read-only mapping of `self.len`
                // bytes, valid for the lifetime of `self`.
                unsafe { std::slice::from_raw_parts(*ptr, self.len) }
            }
            Backing::Owned(v) => v,
        }
    }

    /// Forwards residency advice for `off..off+len` to the kernel.
    /// [`Advice::WillNeed`] rounds the range *outward* to page boundaries
    /// (prefault everything touched), [`Advice::DontNeed`] rounds *inward*
    /// (never discard a page shared with a neighbouring range). Out-of-range
    /// or degenerate ranges and the owned fallback are silent no-ops —
    /// advice is best-effort by definition.
    pub fn advise(&self, off: usize, len: usize, advice: Advice) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Backing::Mapped { ptr, mapped_len } = &self.backing {
            let Some(end) = off.checked_add(len) else {
                return;
            };
            if len == 0 || end > *mapped_len {
                return;
            }
            let page = sys::page_size();
            let (start, stop) = match advice {
                Advice::WillNeed => (off - off % page, end.div_ceil(page) * page),
                Advice::DontNeed => (off.div_ceil(page) * page, end - end % page),
            };
            let stop = stop.min(*mapped_len);
            if start < stop {
                // SAFETY: start..stop is page-aligned and within the mapping.
                unsafe { sys::advise(ptr.add(start), stop - start, advice) };
            }
        }
        let _ = (off, len, advice);
    }
}

/// A byte range of a shared [`Mmap`], checked once at construction.
#[derive(Debug, Clone)]
pub struct MappedBytes {
    map: Arc<Mmap>,
    off: usize,
    len: usize,
}

impl MappedBytes {
    /// Cuts `off..off+len` out of `map`.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupted`] when the range falls outside the mapping — the
    /// offsets came from a snapshot header, so out-of-range means a
    /// corrupted or truncated file, never a caller bug.
    pub fn new(map: Arc<Mmap>, off: usize, len: usize) -> Result<Self> {
        let end = off
            .checked_add(len)
            .filter(|&e| e <= map.len())
            .ok_or_else(|| {
                Error::corrupted(format!(
                    "mapped range {off}+{len} exceeds snapshot of {} bytes",
                    map.len()
                ))
            })?;
        let _ = end;
        Ok(Self { map, off, len })
    }

    /// The underlying shared mapping.
    pub fn map(&self) -> &Arc<Mmap> {
        &self.map
    }

    /// Absolute byte offset of this range within the mapping.
    pub fn offset(&self) -> usize {
        self.off
    }

    /// Length of the range in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The range as a byte slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.map.as_slice()[self.off..self.off + self.len]
    }

    /// Forwards residency advice for `rel..rel+len` (relative to this
    /// range) to the underlying mapping.
    pub fn advise(&self, rel: usize, len: usize, advice: Advice) {
        if rel.checked_add(len).is_some_and(|e| e <= self.len) {
            self.map.advise(self.off + rel, len, advice);
        }
    }
}

/// Copy-on-write byte storage: owned for the RAM-resident/mutation path,
/// mapped for zero-copy out-of-core serving. Dereferences to `[u8]`;
/// equality compares content, so mapped and owned twins compare equal.
#[derive(Debug, Clone)]
pub enum ByteStore {
    /// Heap-owned bytes (RAM-resident path; always writable).
    Owned(Vec<u8>),
    /// A read-only range of a shared mapping.
    Mapped(MappedBytes),
}

impl Default for ByteStore {
    fn default() -> Self {
        ByteStore::Owned(Vec::new())
    }
}

impl Deref for ByteStore {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            ByteStore::Owned(v) => v,
            ByteStore::Mapped(m) => m.as_slice(),
        }
    }
}

impl PartialEq for ByteStore {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for ByteStore {}

impl From<Vec<u8>> for ByteStore {
    fn from(v: Vec<u8>) -> Self {
        ByteStore::Owned(v)
    }
}

impl ByteStore {
    /// Mutable access, copying a mapped range into an owned buffer first
    /// (copy-on-write: mutation never touches the snapshot file).
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        if let ByteStore::Mapped(m) = self {
            *self = ByteStore::Owned(m.as_slice().to_vec());
        }
        match self {
            ByteStore::Owned(v) => v,
            ByteStore::Mapped(_) => unreachable!("converted to Owned above"),
        }
    }

    /// True when backed by a mapping (zero-copy path).
    pub fn is_mapped(&self) -> bool {
        matches!(self, ByteStore::Mapped(_))
    }
}

/// `u32` array storage mirroring [`ByteStore`]: zero-copy over the mapped
/// little-endian bytes when they are 4-aligned on a little-endian host,
/// otherwise an owned decoded copy (correct on any host — alignment is an
/// optimisation, never a requirement).
#[derive(Debug, Clone)]
pub enum U32Store {
    /// Heap-owned values.
    Owned(Vec<u32>),
    /// 4-aligned little-endian mapped bytes on a little-endian host,
    /// reinterpreted in place.
    Mapped(MappedBytes),
}

impl Default for U32Store {
    fn default() -> Self {
        U32Store::Owned(Vec::new())
    }
}

impl U32Store {
    /// Builds from mapped little-endian bytes (`len` must be a multiple of
    /// 4). Falls back to an owned decoded copy when the range is misaligned
    /// or the host is big-endian.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupted`] when `bytes.len()` is not a multiple of 4.
    pub fn from_le_bytes(bytes: MappedBytes) -> Result<Self> {
        if !bytes.len().is_multiple_of(4) {
            return Err(Error::corrupted(format!(
                "u32 array of {} bytes is not a multiple of 4",
                bytes.len()
            )));
        }
        let aligned =
            (bytes.as_slice().as_ptr() as usize).is_multiple_of(std::mem::align_of::<u32>());
        if aligned && cfg!(target_endian = "little") {
            Ok(U32Store::Mapped(bytes))
        } else {
            Ok(U32Store::Owned(
                bytes
                    .as_slice()
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            ))
        }
    }

    /// The values as a slice.
    pub fn as_slice(&self) -> &[u32] {
        match self {
            U32Store::Owned(v) => v,
            U32Store::Mapped(m) => {
                let bytes = m.as_slice();
                // SAFETY: construction guaranteed 4-alignment, a length
                // that is a multiple of 4, and a little-endian host; any
                // bit pattern is a valid u32.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast(), bytes.len() / 4) }
            }
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            U32Store::Owned(v) => v.len(),
            U32Store::Mapped(m) => m.len() / 4,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutable access, copying a mapped range into an owned vector first.
    pub fn make_mut(&mut self) -> &mut Vec<u32> {
        if let U32Store::Mapped(_) = self {
            *self = U32Store::Owned(self.as_slice().to_vec());
        }
        match self {
            U32Store::Owned(v) => v,
            U32Store::Mapped(_) => unreachable!("converted to Owned above"),
        }
    }
}

impl PartialEq for U32Store {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for U32Store {}

impl From<Vec<u32>> for U32Store {
    fn from(v: Vec<u32>) -> Self {
        U32Store::Owned(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("juno_mmap_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn open_round_trips_file_contents() {
        let dir = scratch("roundtrip");
        let path = dir.join("blob.bin");
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = Mmap::open(&path).unwrap();
        assert_eq!(map.as_slice(), &payload[..]);
        assert_eq!(map.len(), payload.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_length_file_maps_as_empty() {
        let dir = scratch("empty");
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_slice(), b"");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = scratch("missing");
        let err = Mmap::open(&dir.join("nope.bin")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn advise_is_safe_on_any_range() {
        let dir = scratch("advise");
        let path = dir.join("blob.bin");
        std::fs::write(&path, vec![7u8; 64 * 1024]).unwrap();
        let map = Mmap::open(&path).unwrap();
        map.advise(0, map.len(), Advice::WillNeed);
        map.advise(1000, 9000, Advice::DontNeed);
        map.advise(0, 0, Advice::DontNeed);
        map.advise(map.len(), 10, Advice::WillNeed); // out of range: no-op
        map.advise(usize::MAX, 10, Advice::WillNeed); // overflow: no-op
        assert_eq!(map.as_slice()[12345], 7, "pages fault back after advice");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_bytes_bounds_are_checked() {
        let map = Mmap::from_bytes(vec![1, 2, 3, 4, 5]);
        assert_eq!(
            MappedBytes::new(map.clone(), 1, 3).unwrap().as_slice(),
            &[2, 3, 4]
        );
        assert!(MappedBytes::new(map.clone(), 4, 2).is_err());
        assert!(MappedBytes::new(map, usize::MAX, 2).is_err());
    }

    #[test]
    fn byte_store_equality_is_by_content() {
        let map = Mmap::from_bytes(vec![9, 8, 7]);
        let mapped = ByteStore::Mapped(MappedBytes::new(map, 0, 3).unwrap());
        let owned = ByteStore::Owned(vec![9, 8, 7]);
        assert_eq!(mapped, owned);
        assert_eq!(&mapped[..], &[9, 8, 7]);
        assert_ne!(mapped, ByteStore::Owned(vec![9, 8, 6]));
    }

    #[test]
    fn byte_store_make_mut_copies_out_of_the_map() {
        let map = Mmap::from_bytes(vec![1, 2, 3]);
        let mut store = ByteStore::Mapped(MappedBytes::new(map, 0, 3).unwrap());
        store.make_mut().push(4);
        assert!(!store.is_mapped());
        assert_eq!(&store[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn u32_store_decodes_le_and_compares_by_content() {
        let values = [0u32, 1, 0xDEAD_BEEF, u32::MAX];
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let map = Mmap::from_bytes(bytes);
        let len = map.len();
        let store =
            U32Store::from_le_bytes(MappedBytes::new(map.clone(), 0, len).unwrap()).unwrap();
        assert_eq!(store.as_slice(), &values);
        assert_eq!(store, U32Store::Owned(values.to_vec()));
        // A misaligned cut must still decode correctly (owned fallback).
        let misaligned = MappedBytes::new(map, 4, len - 4).unwrap();
        let store = U32Store::from_le_bytes(misaligned).unwrap();
        assert_eq!(store.as_slice(), &values[1..]);
        // Non-multiple-of-4 is corruption.
        let map = Mmap::from_bytes(vec![0; 7]);
        assert!(U32Store::from_le_bytes(MappedBytes::new(map, 0, 7).unwrap()).is_err());
    }

    #[test]
    fn u32_store_make_mut_round_trips() {
        let bytes: Vec<u8> = [5u32, 6].iter().flat_map(|v| v.to_le_bytes()).collect();
        let map = Mmap::from_bytes(bytes);
        let mut store = U32Store::from_le_bytes(MappedBytes::new(map, 0, 8).unwrap()).unwrap();
        store.make_mut().push(7);
        assert_eq!(store.as_slice(), &[5, 6, 7]);
    }

    #[test]
    fn disable_env_falls_back_to_owned() {
        // The env var is read per-open; spawning a child would be overkill
        // here, so just assert the owned constructor reports unmapped and
        // that `mmap_supported` honours the variable being absent or not.
        let map = Mmap::from_bytes(vec![1, 2, 3]);
        assert!(!map.is_mapped());
        let _ = mmap_supported();
    }
}
