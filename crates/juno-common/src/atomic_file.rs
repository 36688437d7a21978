//! Crash-safe snapshot files: write-temp + fsync + atomic rename, with a
//! rotated previous generation for torn-write recovery.
//!
//! # File contract
//!
//! [`write_atomic`] publishes `bytes` at `path` such that a crash at any
//! point leaves a readable snapshot on disk:
//!
//! 1. the bytes are written to `path.tmp` and **fsync**'d — the new
//!    generation is durable before it becomes visible;
//! 2. the current `path` (if any) is renamed to `path.prev` — the previous
//!    generation survives as the fallback;
//! 3. `path.tmp` is renamed to `path` — on POSIX filesystems a rename is
//!    atomic, so `path` always refers to either the old or the new complete
//!    file, never a mixture;
//! 4. the parent directory is fsync'd so both renames are durable.
//!
//! A reader ([`read_candidates`]) therefore tries `path` first and falls
//! back to `path.prev`: if the machine died mid-step-1 (torn temp file) the
//! live `path` is untouched; if it died between steps 2 and 3, `path` is
//! missing but `path.prev` holds the last good generation; if the *newest*
//! file is later corrupted in place (bit rot, operator accident), the caller
//! validates it — every JUNO snapshot is checksummed — rejects it, and
//! restores from `path.prev` instead. Validation is deliberately left to the
//! caller: this module moves bytes, the snapshot layer knows what "valid"
//! means.

use crate::error::{Error, Result};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Suffix of the in-flight temp file (step 1 of the protocol).
const TMP_SUFFIX: &str = "tmp";
/// Suffix of the rotated previous generation (step 2 of the protocol).
const PREV_SUFFIX: &str = "prev";

/// Per-process sequence number making concurrent writers' temp files
/// distinct; combined with the pid so writers in different processes never
/// collide either.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".");
    name.push(suffix);
    path.with_file_name(name)
}

/// The path of the rotated previous snapshot generation next to `path`
/// (`<path>.prev`).
pub fn prev_path(path: &Path) -> PathBuf {
    with_suffix(path, PREV_SUFFIX)
}

/// A fresh in-flight temp path next to `path`
/// (`<path>.<pid>.<seq>.tmp`). Every call returns a distinct name: the pid
/// separates concurrent processes and the per-process sequence number
/// separates concurrent threads, so two writers racing on the same `path`
/// can never clobber each other's half-written temp file. Stale temp files
/// left behind by crashed writers are inert — readers only ever look at
/// `path` and `path.prev`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    with_suffix(path, &format!("{pid}.{seq}.{TMP_SUFFIX}"))
}

fn io_err(what: &str, path: &Path, err: std::io::Error) -> Error {
    Error::Io(format!("{what} {}: {err}", path.display()))
}

/// Durably publishes `bytes` at `path` under the crash-safe protocol
/// described in the [module docs](self). The previous contents of `path`
/// (if any) are preserved at [`prev_path`].
///
/// # Errors
///
/// Returns [`Error::Io`] when any filesystem step fails; a failed write
/// never leaves `path` truncated or half-written (the worst case is a stale
/// `.tmp` file, which the next successful write simply overwrites).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = tmp_path(path);
    {
        let mut file = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        file.write_all(bytes)
            .map_err(|e| io_err("write", &tmp, e))?;
        file.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
    }
    // Rotate unconditionally and tolerate a missing source: either nothing
    // was ever published at `path`, or a concurrent writer rotated it
    // between our rename and theirs. (A `path.exists()` check would be a
    // TOCTOU race under concurrent writers.)
    let prev = prev_path(path);
    match fs::rename(path, &prev) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err("rotate to", &prev, e)),
    }
    fs::rename(&tmp, path).map_err(|e| io_err("publish", path, e))?;
    // Make the renames durable. Directory fsync is best-effort on platforms
    // where opening a directory for sync is not supported.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The recovery candidates for `path`, newest first: the live file, then the
/// rotated previous generation. Only existing files are returned; an empty
/// vector means nothing has ever been persisted (or everything was deleted).
///
/// Callers validate candidates in order and keep the first one that parses —
/// that is what turns the `.prev` rotation into torn-write recovery.
///
/// # Errors
///
/// A missing candidate is normal and simply skipped, but any *other* read
/// failure (permissions, I/O error, `path` is a directory, …) is surfaced
/// as [`Error::Io`]: treating "could not read" as "nothing persisted" would
/// make a transient fault indistinguishable from data loss.
pub fn read_candidates(path: &Path) -> Result<Vec<(PathBuf, Vec<u8>)>> {
    let mut out = Vec::new();
    for candidate in [path.to_path_buf(), prev_path(path)] {
        match fs::read(&candidate) {
            Ok(bytes) => out.push((candidate, bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            // `fs::read` on a directory reports IsADirectory on most
            // platforms at `read()` time, but some report it at `open()`
            // time with other kinds; either way it is not NotFound and
            // lands here.
            Err(e) => return Err(io_err("read candidate", &candidate, e)),
        }
    }
    Ok(out)
}

/// Restores from the newest generation at `path` that validates — the one
/// walk behind every snapshot loader. Each candidate of
/// [`read_candidates`]' order (the live file, then `<path>.prev`) is opened
/// with `open` ([`std::fs::read`] for a copy restore,
/// [`Mmap::open`](crate::mmap::Mmap::open) for a mapped one) and handed to
/// `restore`; the first success wins.
///
/// # Errors
///
/// The contract of [`read_candidates`], for any way of opening a file: a
/// missing candidate is skipped, any other open failure is [`Error::Io`] at
/// once ("could not read" is neither "nothing persisted" nor "corrupt").
/// [`Error::Unsupported`] from `restore` passes through — an engine without
/// persistence fails every candidate the same way. Any other `restore`
/// failure moves on to the next generation; when none is left, the last
/// one is reported as [`Error::Corrupted`] labelled with its candidate
/// path, or [`Error::Io`] when no candidate existed at all.
pub fn load_newest<S, T>(
    path: &Path,
    open: impl Fn(&Path) -> std::io::Result<S>,
    mut restore: impl FnMut(S) -> Result<T>,
) -> Result<T> {
    let mut last_err = None;
    for candidate in [path.to_path_buf(), prev_path(path)] {
        let source = match open(&candidate) {
            Ok(source) => source,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(io_err("read candidate", &candidate, e)),
        };
        match restore(source) {
            Ok(restored) => return Ok(restored),
            Err(err @ Error::Unsupported(_)) => return Err(err),
            Err(err) => {
                last_err = Some(Error::corrupted(format!("{}: {err}", candidate.display())));
            }
        }
    }
    Err(last_err.unwrap_or_else(|| {
        Error::Io(format!(
            "no snapshot found at {} (nor a .prev generation)",
            path.display()
        ))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("juno_atomic_file_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn tmp_files_in(dir: &Path) -> Vec<PathBuf> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".tmp"))
            })
            .collect()
    }

    #[test]
    fn write_then_read_round_trips() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("snap.bin");
        write_atomic(&path, b"generation-1").unwrap();
        let got = read_candidates(&path).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, b"generation-1");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_rotates_the_previous_generation() {
        let dir = scratch_dir("rotate");
        let path = dir.join("snap.bin");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        let got = read_candidates(&path).unwrap();
        assert_eq!(got.len(), 2, "live + prev");
        assert_eq!(got[0].1, b"new", "newest first");
        assert_eq!(got[1].1, b"old", "previous generation preserved");
        assert!(
            tmp_files_in(&dir).is_empty(),
            "temp files consumed by rename"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_live_file_falls_back_to_prev() {
        // Simulates a crash between the rotate and publish renames.
        let dir = scratch_dir("fallback");
        let path = dir.join("snap.bin");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        fs::remove_file(&path).unwrap();
        let got = read_candidates(&path).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, b"old");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nothing_persisted_yields_no_candidates() {
        let dir = scratch_dir("empty");
        assert!(read_candidates(&dir.join("never-written.bin"))
            .unwrap()
            .is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_ignored_not_served() {
        let dir = scratch_dir("staletmp");
        let path = dir.join("snap.bin");
        // A torn write died after creating its unique temp file…
        fs::write(tmp_path(&path), b"torn half-writ").unwrap();
        // …the live file is untouched, the next write succeeds, and the
        // stale temp is never served to readers.
        write_atomic(&path, b"good").unwrap();
        let got = read_candidates(&path).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, b"good");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_candidate_is_an_error_not_nothing_persisted() {
        let dir = scratch_dir("unreadable");
        let path = dir.join("snap.bin");
        // A directory squatting on the snapshot path cannot be `fs::read`;
        // that must surface as an error, not as "nothing persisted".
        fs::create_dir(&path).unwrap();
        let err = read_candidates(&path).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "want Error::Io, got {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_clobber_each_other() {
        let dir = scratch_dir("concurrent");
        let path = dir.join("snap.bin");
        let payloads: Vec<Vec<u8>> = (0..8u8)
            .map(|i| vec![i; 4096]) // big enough that a torn mix would show
            .collect();
        std::thread::scope(|scope| {
            for payload in &payloads {
                let path = path.clone();
                scope.spawn(move || {
                    for _ in 0..16 {
                        write_atomic(&path, payload).unwrap();
                    }
                });
            }
        });
        // Every candidate (live and rotated) must be exactly one writer's
        // payload — never an interleaving of two.
        let got = read_candidates(&path).unwrap();
        assert!(!got.is_empty());
        for (who, bytes) in &got {
            assert!(
                payloads.iter().any(|p| p == bytes),
                "{} holds a torn mix of payloads",
                who.display()
            );
        }
        assert!(
            tmp_files_in(&dir).is_empty(),
            "all temp files consumed despite the race"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
