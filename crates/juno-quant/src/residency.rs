//! Per-cluster residency tracking for mapped (out-of-core) indexes.
//!
//! A mapped [`IvfListCodes`](crate::layout::IvfListCodes) serves its CSR
//! base zero-copy from a snapshot file. `ResidencySet` tracks, per
//! cluster, whether that cluster's bytes have been **verified** (checksum +
//! structural invariants, once per mapping) and whether they are **resident**
//! (recently touched / prefaulted). A configurable budget bounds how many
//! unpinned cluster bytes stay resident: when exceeded, a clock (second
//! chance) sweep advises the kernel to drop the pages of cold clusters.
//!
//! Eviction is *advisory* (`madvise(MADV_DONTNEED)` through
//! [`Mmap::advise`]): an evicted cluster's bytes remain readable and simply
//! fault back in from the file on the next access. That makes the
//! following idiom correct even with concurrent workers: the scheduler
//! touches every cluster of a batch up front (verification + accounting,
//! the only fallible part), then hands the scan to parallel workers that
//! read mapped slices infallibly — a worker can never observe unmapped
//! memory, at worst a page fault.
//!
//! Verification is sticky: once a cluster's checksum has been verified it
//! is never re-verified, even across eviction. The snapshot file is
//! immutable while mapped (atomic-rename publication never rewrites in
//! place), so the bytes a page fault re-reads are the bytes that were
//! verified. Truncating a snapshot file that is being served is outside
//! the durability contract.

use crate::layout::BlockCodes;
use juno_common::error::{Error, Result};
use juno_common::mmap::{Advice, Mmap, ResidencyConfig};
use juno_common::snapshot::fnv1a_concat;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Cluster flag bits (one `AtomicU8` per cluster).
const RESIDENT: u8 = 1;
/// Second-chance bit: set on every touch, cleared by the clock hand.
const REFERENCED: u8 = 2;
/// Checksum + invariants verified (sticky for the mapping's lifetime).
const VERIFIED: u8 = 4;
/// Pinned at restore time: prefaulted, never evicted, outside the budget.
const PINNED: u8 = 8;

/// Everything the verifier needs to know about one cluster's mapped bytes.
#[derive(Debug, Clone)]
pub(crate) struct ClusterMeta {
    /// Absolute `(offset, length)` of the cluster's base ids (LE u32s).
    pub ids: (usize, usize),
    /// Absolute `(offset, length)` of the cluster's point-major base codes.
    pub codes: (usize, usize),
    /// Absolute `(offset, length)` of the cluster's block-interleaved view.
    pub blocks: (usize, usize),
    /// Writer checksum over `ids ‖ codes ‖ [nibble, max_code]`.
    pub checksum: u32,
    /// Whether the block view is nibble-packed.
    pub nibble: bool,
    /// Writer-recorded maximum base code of this cluster.
    pub max_code: u8,
}

impl ClusterMeta {
    fn bytes(&self) -> usize {
        self.ids.1 + self.codes.1 + self.blocks.1
    }
}

#[derive(Debug)]
struct Clock {
    hand: usize,
    resident_bytes: usize,
}

/// A point-in-time copy of the residency counters (diagnostics / benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResidencyStats {
    /// Touches that found the cluster already resident (lock-free path).
    pub hits: u64,
    /// Touches that had to fault the cluster in (first touch or re-fault
    /// after eviction).
    pub cold_faults: u64,
    /// Clusters evicted by the clock sweep.
    pub evictions: u64,
    /// Unpinned cluster bytes currently accounted resident.
    pub resident_bytes: usize,
    /// Bytes pinned at restore time (never evicted).
    pub pinned_bytes: usize,
    /// The configured budget (`0` = unlimited).
    pub budget_bytes: usize,
}

/// Shared residency state of one mapped index (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct ResidencySet {
    map: Arc<Mmap>,
    budget_bytes: usize,
    pinned_bytes: usize,
    num_subspaces: usize,
    next_id: u32,
    clusters: Vec<ClusterMeta>,
    flags: Vec<AtomicU8>,
    clock: Mutex<Clock>,
    hits: AtomicU64,
    cold_faults: AtomicU64,
    evictions: AtomicU64,
}

impl ResidencySet {
    /// Builds the residency state for `clusters` of a mapped layout and
    /// applies the pinning policy: largest clusters first until
    /// `config.pin_bytes` is covered, prefaulted via [`Advice::WillNeed`].
    pub(crate) fn new(
        map: Arc<Mmap>,
        num_subspaces: usize,
        next_id: u32,
        clusters: Vec<ClusterMeta>,
        config: &ResidencyConfig,
    ) -> Self {
        let flags: Vec<AtomicU8> = (0..clusters.len()).map(|_| AtomicU8::new(0)).collect();
        let mut pinned_bytes = 0usize;
        if config.pin_bytes > 0 {
            let mut by_size: Vec<usize> = (0..clusters.len()).collect();
            by_size.sort_by_key(|&c| std::cmp::Reverse(clusters[c].bytes()));
            for c in by_size {
                let bytes = clusters[c].bytes();
                if bytes == 0 {
                    break; // sorted descending: everything after is empty too
                }
                if pinned_bytes + bytes > config.pin_bytes && pinned_bytes > 0 {
                    continue; // try to fill the pin budget with smaller ones
                }
                flags[c].fetch_or(PINNED, Ordering::Relaxed);
                for (off, len) in [clusters[c].ids, clusters[c].codes, clusters[c].blocks] {
                    map.advise(off, len, Advice::WillNeed);
                }
                pinned_bytes += bytes;
                if pinned_bytes >= config.pin_bytes {
                    break;
                }
            }
        }
        Self {
            map,
            budget_bytes: config.budget_bytes,
            pinned_bytes,
            num_subspaces,
            next_id,
            clusters,
            flags,
            clock: Mutex::new(Clock {
                hand: 0,
                resident_bytes: 0,
            }),
            hits: AtomicU64::new(0),
            cold_faults: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Ensures `cluster` is verified and resident. Lock-free when it
    /// already is; otherwise verifies on first touch, prefaults, and
    /// evicts cold clusters while the budget is exceeded.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when the cluster's mapped bytes fail
    /// checksum or structural verification. A failed cluster is **not**
    /// marked resident — every subsequent touch fails the same way, so a
    /// corrupt snapshot can never serve partial garbage.
    pub(crate) fn touch(&self, cluster: usize) -> Result<()> {
        let flags = &self.flags[cluster];
        let f = flags.load(Ordering::Acquire);
        if f & VERIFIED != 0 && f & (RESIDENT | PINNED) != 0 {
            if f & REFERENCED == 0 {
                flags.fetch_or(REFERENCED, Ordering::Relaxed);
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        self.fault(cluster)
    }

    /// The slow path: verify (once), account, prefault, evict to budget.
    fn fault(&self, cluster: usize) -> Result<()> {
        let mut clock = self.clock.lock().unwrap_or_else(|e| e.into_inner());
        let flags = &self.flags[cluster];
        let f = flags.load(Ordering::Acquire);
        if f & VERIFIED != 0 && f & (RESIDENT | PINNED) != 0 {
            // Raced with another faulting thread that brought it in.
            flags.fetch_or(REFERENCED, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        if f & VERIFIED == 0 {
            self.verify(cluster)?;
        }
        let meta = &self.clusters[cluster];
        for (off, len) in [meta.ids, meta.codes, meta.blocks] {
            self.map.advise(off, len, Advice::WillNeed);
        }
        self.cold_faults.fetch_add(1, Ordering::Relaxed);
        if f & PINNED != 0 {
            flags.fetch_or(VERIFIED, Ordering::Release);
            return Ok(());
        }
        flags.fetch_or(VERIFIED | RESIDENT | REFERENCED, Ordering::Release);
        clock.resident_bytes += meta.bytes();
        self.evict_to_budget(&mut clock, cluster);
        Ok(())
    }

    /// Clock (second chance) sweep: clears reference bits, evicts resident
    /// unreferenced unpinned clusters until the budget is met. `keep` (the
    /// cluster just faulted in) is never evicted, so a single cluster
    /// larger than the whole budget still gets served.
    fn evict_to_budget(&self, clock: &mut Clock, keep: usize) {
        if self.budget_bytes == 0 {
            return;
        }
        let n = self.clusters.len();
        // Two full revolutions bound the sweep: the first clears reference
        // bits, the second finds victims.
        let mut steps = 2 * n;
        while clock.resident_bytes > self.budget_bytes && steps > 0 {
            steps -= 1;
            let c = clock.hand;
            clock.hand = (clock.hand + 1) % n;
            if c == keep {
                continue;
            }
            let flags = &self.flags[c];
            let f = flags.load(Ordering::Acquire);
            if f & RESIDENT == 0 || f & PINNED != 0 {
                continue;
            }
            if f & REFERENCED != 0 {
                flags.fetch_and(!REFERENCED, Ordering::Relaxed);
                continue;
            }
            flags.fetch_and(!RESIDENT, Ordering::Release);
            let meta = &self.clusters[c];
            for (off, len) in [meta.ids, meta.codes, meta.blocks] {
                self.map.advise(off, len, Advice::DontNeed);
            }
            clock.resident_bytes = clock.resident_bytes.saturating_sub(meta.bytes());
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// First-touch verification of one cluster's mapped bytes: the writer
    /// checksum over `ids ‖ codes ‖ [nibble, max_code]`, ids strictly
    /// increasing and inside the id space, codes bounded by the recorded
    /// maximum (what the restore-time LUT range check relied on), and the
    /// block view bit-identical to rebuilding it from the codes — so the
    /// fast-scan kernel only ever consumes writer-derived rows.
    fn verify(&self, cluster: usize) -> Result<()> {
        let meta = &self.clusters[cluster];
        let file = self.map.as_slice();
        let ids_bytes = &file[meta.ids.0..meta.ids.0 + meta.ids.1];
        let codes = &file[meta.codes.0..meta.codes.0 + meta.codes.1];
        let blocks = &file[meta.blocks.0..meta.blocks.0 + meta.blocks.1];
        let bad = |msg: String| Error::corrupted(format!("mapped cluster {cluster}: {msg}"));
        let sum = fnv1a_concat(&[ids_bytes, codes, &[meta.nibble as u8, meta.max_code]]);
        if sum != meta.checksum {
            return Err(bad(format!(
                "checksum mismatch (stored {:#010x}, computed {sum:#010x})",
                meta.checksum
            )));
        }
        let mut prev: Option<u32> = None;
        for chunk in ids_bytes.chunks_exact(4) {
            let id = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            if prev.is_some_and(|p| p >= id) {
                return Err(bad("base ids are not strictly increasing".into()));
            }
            if id >= self.next_id {
                return Err(bad(format!(
                    "base id {id} exceeds id space {}",
                    self.next_id
                )));
            }
            prev = Some(id);
        }
        if let Some(&worst) = codes.iter().max() {
            if worst > meta.max_code {
                return Err(bad(format!(
                    "code {worst} exceeds recorded maximum {}",
                    meta.max_code
                )));
            }
        }
        let rebuilt = BlockCodes::build(codes, meta.ids.1 / 4, self.num_subspaces);
        if rebuilt.nibble_packed() != meta.nibble || rebuilt.data() != blocks {
            return Err(bad("block-interleaved view does not match its codes".into()));
        }
        Ok(())
    }

    /// A point-in-time copy of the counters.
    pub(crate) fn stats(&self) -> ResidencyStats {
        let clock = self.clock.lock().unwrap_or_else(|e| e.into_inner());
        ResidencyStats {
            hits: self.hits.load(Ordering::Relaxed),
            cold_faults: self.cold_faults.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: clock.resident_bytes,
            pinned_bytes: self.pinned_bytes,
            budget_bytes: self.budget_bytes,
        }
    }
}
