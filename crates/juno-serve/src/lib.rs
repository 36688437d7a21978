//! The JUNO serving layer: a sharded, concurrently readable index fleet.
//!
//! The single-index engines ([`juno_common::AnnIndex`] implementors) answer
//! one process's queries from one monolithic structure with exclusive write
//! access. This crate scales that to a serving tier:
//!
//! * [`ShardedIndex`] — `S` shards behind per-shard epoch pointers.
//!   Readers pin a [`FleetReader`] (snapshot isolation, no locks held while
//!   searching); writers stage-and-publish per shard, so reads never block
//!   on insert / remove / compaction.
//! * [`ShardRouter`] — deterministic id → shard ownership (hash or modulo).
//! * Scatter-gather search — per-shard top-k lists merge through the
//!   deterministic tie-by-id merge in [`juno_common::topk::merge_neighbors`];
//!   in global-id mode the merged ids and distance bits are identical to
//!   the monolithic index (the `tests/shard_parity.rs` contract).
//! * [`BackgroundCompactor`] — periodic per-shard compaction off the read
//!   path, surviving (counting, logging, backing off from) sweep failures.
//! * `SHRD` snapshots ([`KIND_SHARD`]) — whole-fleet persistence framing
//!   each shard engine's own snapshot, with unsharded engine snapshots
//!   restoring into a single-shard fleet; `save_to_path` /
//!   [`ShardedIndex::from_snapshot_path`] add the crash-safe on-disk
//!   protocol (write-temp + fsync + atomic rename, with a rotated `.prev`
//!   generation for torn-write recovery).
//! * **Fault tolerance** — [`FleetReader::search_deadline`] degrades around
//!   stalled, failing, or panicking shards inside a latency budget
//!   ([`DegradedResult`]), guided by per-shard circuit breakers
//!   ([`CircuitBreaker`], [`HealthTracker`]); [`FaultPlan`] injects deterministic, replayable
//!   faults at every search / insert / publish / compact / restore point for
//!   chaos testing.
//! * **Durability** ([`DurabilityConfig`]) — an attachable write-ahead log
//!   ([`juno_common::wal`]): every acknowledged mutation is appended (and
//!   fsync'd per policy) *before* its epoch publish, checkpoints snapshot
//!   the fleet and prune covered segments, and
//!   [`ShardedIndex::recover_from_dir`] rebuilds a crashed fleet
//!   bit-identically from snapshot + WAL suffix.
//! * [`Server`] — the online front-end: many client threads submit single
//!   queries through a bounded ingress queue with admission control
//!   ([`juno_common::error::Error::Overloaded`]), a work-conserving trigger
//!   coalesces what queued while the previous batch ran ([`Batcher`]),
//!   batches execute through the degraded read path on the fleet's parked
//!   scan workers, and every reply carries per-request QoS stats
//!   ([`ServeStats`]) with aggregate histograms via
//!   [`Server::metrics_snapshot`].
//! * **One metrics registry per fleet** — the fleet owns it, and the
//!   server, the WAL, the write path, the scan workers, the breakers and
//!   the background threads count into it through handles resolved once;
//!   [`ShardedIndex::metrics`] reads the `serve.*`, `wal.*` and
//!   `lifecycle.*` families in one snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod batcher;
mod durability;
mod fault;
mod health;
pub mod persist;
mod router;
mod server;
mod shard;

pub use batcher::{Batch, Batcher, BatcherConfig, Pending};
pub use durability::{CheckpointReport, DurabilityConfig, RecoveryReport};
pub use fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
pub use health::{BreakerConfig, BreakerState, CircuitBreaker, HealthTracker, RetryPolicy};
pub use persist::KIND_SHARD;
pub use router::{ShardRouter, MAX_SHARDS};
pub use server::{ServeResponse, ServeStats, Server, ServerConfig};
pub use shard::{
    BackgroundCompactor, DegradedBatch, DegradedResult, FleetReader, RebuildPolicy, RebuildReport,
    Rebuilder, ShardState, ShardStatus, ShardedIndex,
};

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::error::{Error, Result};
    use juno_common::index::{AnnIndex, SearchResult, SearchStats};
    use juno_common::metric::Metric;
    use juno_common::snapshot::{kind, SectionWriter, Snapshot, SnapshotWriter};
    use juno_common::topk::TopK;
    use juno_common::vector::VectorSet;
    use std::sync::Arc;
    use std::time::Duration;

    const KIND_MINI: u32 = kind(*b"MINI");

    /// A minimal exhaustive engine with tombstone mutation and snapshot
    /// support, used to exercise the generic fleet machinery without pulling
    /// the real engines into this crate.
    #[derive(Debug, Clone)]
    struct MiniIndex {
        dim: usize,
        rows: Vec<Vec<f32>>,
        dead: Vec<bool>,
    }

    impl MiniIndex {
        fn new(rows: Vec<Vec<f32>>) -> Self {
            let dim = rows.first().map(|r| r.len()).unwrap_or(1);
            let dead = vec![false; rows.len()];
            Self { dim, rows, dead }
        }
    }

    impl AnnIndex for MiniIndex {
        fn metric(&self) -> Metric {
            Metric::L2
        }
        fn dim(&self) -> usize {
            self.dim
        }
        fn len(&self) -> usize {
            self.dead.iter().filter(|&&d| !d).count()
        }
        fn search(&self, query: &[f32], k: usize) -> Result<SearchResult> {
            if query.len() != self.dim {
                return Err(Error::DimensionMismatch {
                    expected: self.dim,
                    actual: query.len(),
                });
            }
            let mut topk = TopK::new(k, Metric::L2);
            for (id, row) in self.rows.iter().enumerate() {
                if !self.dead[id] {
                    topk.push(id as u64, Metric::L2.distance(query, row));
                }
            }
            Ok(SearchResult {
                neighbors: topk.into_sorted_vec(),
                simulated_us: 1.5,
                stats: SearchStats {
                    candidates: self.len(),
                    filter_us: 2.0,
                    ..SearchStats::default()
                },
            })
        }
        fn supports_mutation(&self) -> bool {
            true
        }
        fn supports_snapshot(&self) -> bool {
            true
        }
        fn insert(&mut self, vector: &[f32]) -> Result<u64> {
            if vector.len() != self.dim {
                return Err(Error::DimensionMismatch {
                    expected: self.dim,
                    actual: vector.len(),
                });
            }
            self.rows.push(vector.to_vec());
            self.dead.push(false);
            Ok((self.rows.len() - 1) as u64)
        }
        fn remove(&mut self, id: u64) -> Result<bool> {
            match self.dead.get_mut(id as usize) {
                Some(slot) if !*slot => {
                    *slot = true;
                    Ok(true)
                }
                _ => Ok(false),
            }
        }
        fn snapshot(&self) -> Result<Vec<u8>> {
            let mut w = SnapshotWriter::new(KIND_MINI);
            let mut s = SectionWriter::new();
            s.put_u64(self.dim as u64);
            s.put_u64(self.rows.len() as u64);
            for row in &self.rows {
                s.put_f32s(row);
            }
            s.put_bools(&self.dead);
            w.add_section(*b"MINI", s);
            Ok(w.finish())
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<()> {
            let snap = Snapshot::parse(bytes)?;
            if snap.kind() != KIND_MINI {
                return Err(Error::corrupted("not a MiniIndex snapshot"));
            }
            let mut r = snap.section(*b"MINI")?;
            let dim = r.get_usize()?;
            let n = r.get_usize()?;
            let rows = (0..n).map(|_| r.get_f32s()).collect::<Result<Vec<_>>>()?;
            let dead = r.get_bools()?;
            if dead.len() != n || rows.iter().any(|row| row.len() != dim) {
                return Err(Error::corrupted("inconsistent MiniIndex snapshot"));
            }
            r.expect_end()?;
            *self = Self { dim, rows, dead };
            Ok(())
        }
        fn ids(&self) -> Vec<u64> {
            (0..self.rows.len() as u64)
                .filter(|&id| !self.dead[id as usize])
                .collect()
        }
    }

    fn grid_rows(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| vec![(i % 17) as f32, (i / 17) as f32])
            .collect()
    }

    fn assert_bit_identical(a: &SearchResult, b: &SearchResult, label: &str) {
        assert_eq!(a.neighbors.len(), b.neighbors.len(), "{label}: lengths");
        for (ra, rb) in a.neighbors.iter().zip(&b.neighbors) {
            assert_eq!(ra.id, rb.id, "{label}: ids");
            assert_eq!(
                ra.distance.to_bits(),
                rb.distance.to_bits(),
                "{label}: distance bits"
            );
        }
    }

    #[test]
    fn fleet_matches_monolith_and_survives_mutation() {
        let monolith = MiniIndex::new(grid_rows(120));
        for shards in [1usize, 2, 4, 7] {
            for router in [ShardRouter::Hash { seed: 3 }, ShardRouter::Modulo] {
                let mut mono = monolith.clone();
                let fleet = ShardedIndex::from_monolith(monolith.clone(), shards, router).unwrap();
                assert_eq!(fleet.len(), mono.len());
                assert_eq!(fleet.ids(), mono.ids());
                for q in [[0.0f32, 0.0], [3.5, 2.0], [16.0, 6.0]] {
                    assert_bit_identical(
                        &fleet.search(&q, 9).unwrap(),
                        &mono.search(&q, 9).unwrap(),
                        &format!("S={shards} {router:?} fresh"),
                    );
                }
                // Identical mutation sequence on both sides.
                for i in 0..20 {
                    let v = [(i as f32) * 0.37, 1.0 + (i % 5) as f32];
                    assert_eq!(fleet.insert_shared(&v).unwrap(), mono.insert(&v).unwrap());
                }
                for id in [0u64, 7, 121, 125, 9_999] {
                    assert_eq!(
                        fleet.remove_shared(id).unwrap(),
                        mono.remove(id).unwrap(),
                        "remove {id}"
                    );
                }
                fleet.compact_all_shared().unwrap();
                mono.compact().unwrap();
                assert_eq!(fleet.len(), mono.len());
                assert_eq!(fleet.ids(), mono.ids());
                for q in [[0.2f32, 0.9], [5.0, 5.0]] {
                    assert_bit_identical(
                        &fleet.search(&q, 13).unwrap(),
                        &mono.search(&q, 13).unwrap(),
                        &format!("S={shards} {router:?} mutated"),
                    );
                }
            }
        }
    }

    #[test]
    fn batch_search_gathers_stats_without_time_double_count() {
        let fleet =
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(90)), 3, ShardRouter::Modulo)
                .unwrap();
        let queries = VectorSet::from_rows(vec![vec![1.0, 1.0], vec![8.0, 3.0]]).unwrap();
        let results = fleet.search_batch_threads(&queries, 5, 2).unwrap();
        assert_eq!(results.len(), 2);
        for r in &results {
            // Counters sum across the three shards (90 live points total)…
            assert_eq!(r.stats.candidates, 90);
            // …but per-stage wall clock takes the max, not 3 × 2.0.
            assert_eq!(r.stats.filter_us, 2.0);
            assert_eq!(r.simulated_us, 1.5);
            assert_eq!(r.neighbors.len(), 5);
        }
    }

    #[test]
    fn pinned_reader_is_isolated_from_writers_and_epochs_advance() {
        let fleet = Arc::new(
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(60)), 2, ShardRouter::Modulo)
                .unwrap(),
        );
        let reader = fleet.reader();
        let before = reader.search(&[4.0, 1.0], 6).unwrap();
        let epochs0 = reader.epochs();

        let id = fleet.insert_shared(&[4.0, 1.0]).unwrap();
        fleet.remove_shared(0).unwrap();
        fleet.compact_all_shared().unwrap();

        // The pinned reader still answers from its epoch, bit-identically.
        let after = reader.search(&[4.0, 1.0], 6).unwrap();
        assert_bit_identical(&before, &after, "pinned reader");
        assert_eq!(reader.epochs(), epochs0, "pinned epochs are immutable");

        // A fresh reader observes the new epochs and the new point.
        let fresh = fleet.reader();
        for (old, new) in epochs0.iter().zip(fresh.epochs()) {
            assert!(*old < new, "epochs advance monotonically");
        }
        assert!(fresh.search(&[4.0, 1.0], 6).unwrap().ids().contains(&id));
        assert!(!fresh.search(&[0.0, 0.0], 60).unwrap().ids().contains(&0));
    }

    #[test]
    fn fleet_snapshot_round_trips_and_unsharded_restores_to_one_shard() {
        let fleet = ShardedIndex::from_monolith(
            MiniIndex::new(grid_rows(80)),
            4,
            ShardRouter::Hash { seed: 9 },
        )
        .unwrap();
        fleet.insert_shared(&[2.5, 2.5]).unwrap();
        fleet.remove_shared(3).unwrap();
        let bytes = fleet.to_snapshot_bytes().unwrap();

        let restored =
            ShardedIndex::from_snapshot_bytes(MiniIndex::new(vec![vec![0.0, 0.0]]), &bytes)
                .unwrap();
        assert_eq!(restored.num_shards(), 4);
        assert_eq!(restored.router(), ShardRouter::Hash { seed: 9 });
        assert_eq!(restored.ids(), fleet.ids());
        assert_bit_identical(
            &restored.search(&[2.5, 2.5], 10).unwrap(),
            &fleet.search(&[2.5, 2.5], 10).unwrap(),
            "fleet snapshot",
        );

        // Unsharded engine snapshot → single-shard fleet.
        let mono = MiniIndex::new(grid_rows(40));
        let unsharded = mono.snapshot().unwrap();
        let mut fleet2 = fleet;
        fleet2.restore_from_bytes(&unsharded).unwrap();
        assert_eq!(fleet2.num_shards(), 1);
        assert_bit_identical(
            &fleet2.search(&[1.0, 0.0], 5).unwrap(),
            &mono.search(&[1.0, 0.0], 5).unwrap(),
            "unsharded restore",
        );
    }

    #[test]
    fn corrupt_fleet_snapshots_error_and_leave_the_fleet_intact() {
        let mut fleet =
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(50)), 2, ShardRouter::Modulo)
                .unwrap();
        let good = fleet.to_snapshot_bytes().unwrap();
        let reference = fleet.search(&[3.0, 1.0], 7).unwrap();
        for at in (0..good.len()).step_by(11) {
            let mut corrupt = good.clone();
            corrupt[at] ^= 0x20;
            if fleet.restore_from_bytes(&corrupt).is_err() {
                assert_bit_identical(
                    &fleet.search(&[3.0, 1.0], 7).unwrap(),
                    &reference,
                    "failed restore must not disturb the fleet",
                );
            }
            // Either rejected, or the flip hit an uninterpreted byte — in
            // which case the restore is semantically identical. Re-restore
            // the good bytes to keep the loop's reference valid.
            fleet.restore_from_bytes(&good).unwrap();
        }
        for len in (0..good.len()).step_by(13) {
            assert!(fleet.restore_from_bytes(&good[..len]).is_err());
        }
    }

    #[test]
    fn mapped_fleets_translate_ids_and_reject_mutation() {
        let rows = grid_rows(30);
        // Shard by parity of the global id; each shard's rows ascend in
        // global id, as the parity contract requires.
        let mut parts: Vec<(Vec<Vec<f32>>, Vec<u64>)> = vec![(vec![], vec![]); 2];
        for (id, row) in rows.iter().enumerate() {
            let s = id % 2;
            parts[s].0.push(row.clone());
            parts[s].1.push(id as u64);
        }
        let fleet = ShardedIndex::from_prebuilt(
            parts
                .into_iter()
                .map(|(rows, map)| (MiniIndex::new(rows), map))
                .collect(),
            ShardRouter::Modulo,
        )
        .unwrap();
        let mono = MiniIndex::new(rows);
        assert_bit_identical(
            &fleet.search(&[2.0, 1.0], 8).unwrap(),
            &mono.search(&[2.0, 1.0], 8).unwrap(),
            "mapped parity",
        );
        assert_eq!(fleet.ids(), mono.ids());
        assert!(!fleet.supports_mutation());
        assert!(matches!(
            fleet.insert_shared(&[0.0, 0.0]),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(fleet.remove_shared(1), Err(Error::Unsupported(_))));
        // Mapped fleets snapshot and restore with their id maps.
        let bytes = fleet.to_snapshot_bytes().unwrap();
        let restored =
            ShardedIndex::from_snapshot_bytes(MiniIndex::new(vec![vec![0.0, 0.0]]), &bytes)
                .unwrap();
        assert_eq!(restored.ids(), mono.ids());
        assert!(!restored.supports_mutation());
    }

    #[test]
    fn construction_errors_are_reported() {
        let mono = MiniIndex::new(grid_rows(10));
        assert!(matches!(
            ShardedIndex::from_monolith(mono.clone(), 0, ShardRouter::Modulo),
            Err(Error::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedIndex::from_monolith(mono.clone(), MAX_SHARDS + 1, ShardRouter::Modulo),
            Err(Error::InvalidConfig(_))
        ));
        // Colliding global ids across prebuilt shards.
        assert!(matches!(
            ShardedIndex::from_prebuilt(
                vec![
                    (MiniIndex::new(grid_rows(3)), vec![0, 1, 2]),
                    (MiniIndex::new(grid_rows(3)), vec![2, 3, 4]),
                ],
                ShardRouter::Modulo,
            ),
            Err(Error::InvalidConfig(_))
        ));
        // Map length mismatch.
        assert!(matches!(
            ShardedIndex::from_prebuilt(
                vec![(MiniIndex::new(grid_rows(3)), vec![0, 1])],
                ShardRouter::Modulo,
            ),
            Err(Error::InvalidConfig(_))
        ));
        assert!(ShardedIndex::<MiniIndex>::from_prebuilt(vec![], ShardRouter::Modulo).is_err());
    }

    #[test]
    fn background_compactor_sweeps_dirty_shards_only_and_stops() {
        let fleet = Arc::new(
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(40)), 2, ShardRouter::Modulo)
                .unwrap(),
        );
        let compactor = BackgroundCompactor::spawn(fleet.clone(), Duration::from_millis(2));
        let runs = || fleet.metrics().counter("lifecycle.compactions");
        let wait_for_runs = |target: u64| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while runs() < target && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(runs() >= target, "compactor stalled");
        };

        // Fresh replicas start dirty, so the first sweep publishes each
        // shard exactly once; later sweeps skip the now-clean shards
        // without cloning or bumping epochs.
        wait_for_runs(3);
        assert_eq!(fleet.shard_epochs(), vec![1, 1], "clean shards republished");

        // A mutation re-dirties its owner (id 0 → shard 0 under Modulo):
        // the write publishes epoch 2 and the next sweep compacts to 3,
        // while the untouched shard stays at its first-sweep epoch.
        assert!(fleet.remove_shared(0).unwrap());
        let after_remove = runs() + 2;
        wait_for_runs(after_remove);
        let epochs = fleet.shard_epochs();
        assert_eq!(epochs[0], 3, "dirty shard swept once after the remove");
        assert_eq!(epochs[1], 1, "clean shard untouched by the sweep");

        drop(compactor);
        assert_eq!(fleet.search(&[1.0, 1.0], 3).unwrap().neighbors.len(), 3);
    }

    /// Shutdown latency must be bounded by the condvar handoff (plus at most
    /// one in-flight sweep), *not* by the configured interval: a compactor
    /// on a 10-second cadence tears down in well under a second.
    #[test]
    fn background_compactor_shutdown_is_prompt_despite_a_long_interval() {
        let fleet = Arc::new(
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(40)), 2, ShardRouter::Modulo)
                .unwrap(),
        );
        let compactor = BackgroundCompactor::spawn(fleet, Duration::from_secs(10));
        // Give the thread time to enter its (10 s) wait.
        std::thread::sleep(Duration::from_millis(20));
        let started = std::time::Instant::now();
        drop(compactor); // joins the thread
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}, bounded by the interval instead of the \
             stop signal",
            started.elapsed()
        );
    }

    /// A zero interval is clamped (to 100µs) rather than busy-spinning on
    /// the writer lock: the compactor still ticks, but the sweep count over
    /// a fixed window stays far below what a hot loop would produce.
    #[test]
    fn background_compactor_zero_interval_does_not_busy_spin() {
        let fleet = Arc::new(
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(40)), 2, ShardRouter::Modulo)
                .unwrap(),
        );
        let compactor = BackgroundCompactor::spawn(fleet.clone(), Duration::ZERO);
        let window = Duration::from_millis(50);
        std::thread::sleep(window);
        let runs = fleet.metrics().counter("lifecycle.compactions");
        assert!(runs >= 1, "clamped interval still ticks");
        // 50ms / 100µs = 500 wakeups maximum; a busy spin would manage
        // orders of magnitude more sweeps of an all-clean fleet.
        let ceiling = (window.as_micros() / 100) as u64 + 50;
        assert!(runs <= ceiling, "{runs} sweeps in {window:?}: busy spin");
        drop(compactor);
    }

    #[test]
    fn mapped_snapshots_with_colliding_id_maps_are_rejected() {
        // A valid two-shard mapped fleet snapshot…
        let fleet = ShardedIndex::from_prebuilt(
            vec![
                (MiniIndex::new(grid_rows(3)), vec![0, 1, 2]),
                (MiniIndex::new(grid_rows(3)), vec![3, 4, 5]),
            ],
            ShardRouter::Modulo,
        )
        .unwrap();
        let good = fleet.to_snapshot_bytes().unwrap();
        // …re-framed with shard 1's id map overlapping shard 0's (checksums
        // recomputed, so only the new cross-shard validation can catch it).
        let snap = Snapshot::parse(&good).unwrap();
        let mut writer = SnapshotWriter::new(KIND_SHARD);
        let mut mani = SectionWriter::new();
        mani.put_raw(snap.section(*b"MANI").unwrap().take_rest());
        writer.add_section(*b"MANI", mani);
        let mut imap = SectionWriter::new();
        imap.put_u64(2);
        imap.put_u64s(&[0, 1, 2]);
        imap.put_u64s(&[2, 3, 4]); // id 2 owned twice
        writer.add_section(*b"IMAP", imap);
        for tag in [*b"S000", *b"S001"] {
            let mut section = SectionWriter::new();
            section.put_raw(snap.section(tag).unwrap().take_rest());
            writer.add_section(tag, section);
        }
        let poisoned = writer.finish();

        let mut target = fleet;
        assert!(matches!(
            target.restore_from_bytes(&poisoned),
            Err(Error::Corrupted(_))
        ));
        // The good bytes still restore.
        target.restore_from_bytes(&good).unwrap();
        assert_eq!(target.ids(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn global_snapshots_with_misrouted_ids_are_rejected() {
        // Container surgery: duplicate shard 0's engine payload into shard
        // 1's section with a consistent manifest. Checksums are all valid,
        // per-shard lengths match — only the live-id routing validation can
        // catch that every id would now be live in two shards.
        let fleet =
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(20)), 2, ShardRouter::Modulo)
                .unwrap();
        let good = fleet.to_snapshot_bytes().unwrap();
        let snap = Snapshot::parse(&good).unwrap();
        let shard0_payload = snap.section(*b"S000").unwrap().take_rest().to_vec();
        let n0 = fleet.reader().shard(0).index().len() as u64;

        let mut writer = SnapshotWriter::new(KIND_SHARD);
        let mut mani = SectionWriter::new();
        mani.put_u32(1); // manifest version
        mani.put_u8(0); // global-id mode
        ShardRouter::Modulo.encode(&mut mani);
        mani.put_u64(2);
        mani.put_u64s(&[n0, n0]);
        writer.add_section(*b"MANI", mani);
        for tag in [*b"S000", *b"S001"] {
            let mut section = SectionWriter::new();
            section.put_raw(&shard0_payload);
            writer.add_section(tag, section);
        }
        let poisoned = writer.finish();

        let mut target =
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(4)), 1, ShardRouter::Modulo)
                .unwrap();
        assert!(matches!(
            target.restore_from_bytes(&poisoned),
            Err(Error::Corrupted(_))
        ));
        target.restore_from_bytes(&good).unwrap();
        assert_eq!(target.ids(), fleet.ids());
    }

    #[test]
    fn fleet_name_and_capabilities_reflect_the_inner_engine() {
        let fleet =
            ShardedIndex::from_monolith(MiniIndex::new(grid_rows(12)), 3, ShardRouter::Modulo)
                .unwrap();
        assert!(fleet.name().starts_with("Sharded3x["));
        assert!(fleet.supports_mutation());
        assert!(fleet.supports_snapshot());
        assert_eq!(fleet.metric(), Metric::L2);
        assert_eq!(fleet.dim(), 2);
        assert_eq!(
            fleet.merge_order(),
            juno_common::topk::ScoreOrder::Ascending
        );
    }

    // ---- fault tolerance -------------------------------------------------

    use crate::fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
    use crate::health::{BreakerConfig, BreakerState, RetryPolicy};
    use crate::shard::ShardStatus;
    use std::time::Instant;

    fn four_shard_fleet(n: usize) -> ShardedIndex<MiniIndex> {
        ShardedIndex::from_monolith(
            MiniIndex::new(grid_rows(n)),
            4,
            ShardRouter::Hash { seed: 5 },
        )
        .unwrap()
    }

    /// A rule firing forever on `(shard, op)` starting at op counter 0.
    fn always(shard: usize, op: FaultOp, kind: FaultKind) -> FaultRule {
        FaultRule {
            shard,
            op,
            from_op: 0,
            until_op: None,
            kind,
        }
    }

    /// A rule firing only for the first `n` hits of `(shard, op)`.
    fn first_n(shard: usize, op: FaultOp, n: u64, kind: FaultKind) -> FaultRule {
        FaultRule {
            shard,
            op,
            from_op: 0,
            until_op: Some(n),
            kind,
        }
    }

    #[test]
    fn zero_fault_deadline_search_is_bit_identical_to_plain_search() {
        let fleet = four_shard_fleet(130);
        let reader = fleet.reader();
        for q in [[0.0f32, 0.0], [4.5, 2.5], [16.0, 7.0]] {
            let exact = reader.search(&q, 11).unwrap();
            let degraded = reader
                .search_deadline(&q, 11, Duration::from_secs(10))
                .unwrap();
            assert!(degraded.is_complete());
            assert_eq!(degraded.coverage, 1.0);
            assert!(degraded.shards.iter().all(ShardStatus::is_ok));
            assert_bit_identical(&exact, &degraded.result, "zero-fault deadline");
        }
        // Batch variant against the plain batch path.
        let queries =
            VectorSet::from_rows(vec![vec![1.0, 1.0], vec![9.0, 4.0], vec![0.5, 6.0]]).unwrap();
        let exact = reader.search_batch(&queries, 7).unwrap();
        let degraded = reader
            .search_batch_deadline(&queries, 7, Duration::from_secs(10))
            .unwrap();
        assert_eq!(degraded.coverage, 1.0);
        for (e, d) in exact.iter().zip(&degraded.results) {
            assert_bit_identical(e, d, "zero-fault deadline batch");
        }
    }

    #[test]
    fn stalled_shard_degrades_coverage_and_merges_healthy_shards_exactly() {
        // Coverage steps down by one shard's share per stalled shard.
        for (stalled, coverage) in [(&[1usize][..], 0.75), (&[1, 3][..], 0.5)] {
            let fleet = four_shard_fleet(130);
            let plan = stalled.iter().fold(FaultPlan::new(4), |plan, &s| {
                plan.with_rule(always(
                    s,
                    FaultOp::Search,
                    FaultKind::Stall(Duration::from_secs(30)),
                ))
            });
            fleet.set_fault_plan(Some(Arc::new(plan)));
            let reader = fleet.reader();
            let budget = Duration::from_millis(300);
            let q = [3.0f32, 2.0];

            let started = Instant::now();
            let degraded = reader.search_deadline(&q, 9, budget).unwrap();
            let elapsed = started.elapsed();
            assert!(
                elapsed < budget * 2,
                "degraded search took {elapsed:?} for a {budget:?} budget"
            );
            assert_eq!(degraded.coverage, coverage, "stalled shards {stalled:?}");
            for (s, status) in degraded.shards.iter().enumerate() {
                if stalled.contains(&s) {
                    assert_eq!(*status, ShardStatus::TimedOut, "stalled shard {s}");
                } else {
                    assert!(status.is_ok(), "healthy shard {s}: {status:?}");
                }
            }
            // The merged result is bit-identical to querying the healthy
            // shards alone and merging their lists.
            let lists: Vec<Vec<juno_common::index::Neighbor>> = (0..4)
                .filter(|s| !stalled.contains(s))
                .map(|s| reader.shard(s).index().search(&q, 9).unwrap().neighbors)
                .collect();
            let expect = juno_common::topk::merge_neighbors(
                &lists,
                9,
                juno_common::topk::ScoreOrder::Ascending,
            );
            assert_eq!(degraded.result.neighbors.len(), expect.len());
            for (got, want) in degraded.result.neighbors.iter().zip(&expect) {
                assert_eq!(got.id, want.id, "healthy-shard merge ids");
                assert_eq!(
                    got.distance.to_bits(),
                    want.distance.to_bits(),
                    "healthy-shard merge distance bits"
                );
            }
        }
    }

    #[test]
    fn transient_search_errors_are_retried_to_full_coverage() {
        let fleet = four_shard_fleet(80);
        // Shard 2's first search attempt fails; the in-request retry's
        // second attempt (op counter 1) passes.
        let plan = Arc::new(FaultPlan::new(4).with_rule(first_n(
            2,
            FaultOp::Search,
            1,
            FaultKind::Transient,
        )));
        fleet.set_fault_plan(Some(plan.clone()));
        let reader = fleet.reader();
        let degraded = reader
            .search_deadline(&[2.0, 2.0], 8, Duration::from_secs(10))
            .unwrap();
        assert_eq!(degraded.coverage, 1.0, "retry hid the transient fault");
        assert!(degraded.is_complete());
        assert!(
            plan.op_count(2, FaultOp::Search) >= 2,
            "the shard really was attempted twice"
        );
        assert_bit_identical(
            &reader.search(&[2.0, 2.0], 8).unwrap(),
            &degraded.result,
            "post-retry result",
        );
    }

    #[test]
    fn panicking_search_worker_is_isolated_and_reported() {
        juno_common::testing::silence_panics();
        let fleet = four_shard_fleet(80);
        let plan =
            Arc::new(FaultPlan::new(4).with_rule(always(3, FaultOp::Search, FaultKind::Panic)));
        fleet.set_fault_plan(Some(plan));
        let reader = fleet.reader();
        let degraded = reader
            .search_deadline(&[1.0, 1.0], 6, Duration::from_secs(10))
            .unwrap();
        assert_eq!(degraded.coverage, 0.75);
        match &degraded.shards[3] {
            ShardStatus::Failed(Error::WorkerPanicked(msg)) => {
                assert!(msg.contains("injected panic"), "panic message: {msg}")
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The process (and the fleet) survive: clearing the plan restores
        // exact service.
        fleet.set_fault_plan(None);
        let clean = fleet.reader();
        let after = clean
            .search_deadline(&[1.0, 1.0], 6, Duration::from_secs(10))
            .unwrap();
        assert_eq!(after.coverage, 1.0);
    }

    #[test]
    fn plain_search_surfaces_engine_panics_as_worker_panicked() {
        juno_common::testing::silence_panics();
        /// A MiniIndex whose searches always panic — exercises panic
        /// isolation on the *plain* (non-deadline) scatter path, where the
        /// panic unwinds inside a `parallel::map` worker mid-batch.
        #[derive(Debug, Clone)]
        struct PanicMini(MiniIndex);
        impl AnnIndex for PanicMini {
            fn metric(&self) -> Metric {
                self.0.metric()
            }
            fn dim(&self) -> usize {
                self.0.dim()
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn search(&self, _query: &[f32], _k: usize) -> Result<SearchResult> {
                panic!("[injected-fault] engine panic mid-batch");
            }
            fn supports_mutation(&self) -> bool {
                true
            }
            fn insert(&mut self, vector: &[f32]) -> Result<u64> {
                self.0.insert(vector)
            }
            fn remove(&mut self, id: u64) -> Result<bool> {
                self.0.remove(id)
            }
            fn ids(&self) -> Vec<u64> {
                self.0.ids()
            }
        }
        let fleet = ShardedIndex::from_monolith(
            PanicMini(MiniIndex::new(grid_rows(40))),
            2,
            ShardRouter::Modulo,
        )
        .unwrap();
        match fleet.search(&[1.0, 1.0], 4) {
            Err(Error::WorkerPanicked(msg)) => {
                assert!(msg.contains("engine panic mid-batch"), "{msg}")
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The fleet object is still usable for non-search operations: the
        // panic never poisoned a lock.
        assert_eq!(fleet.num_shards(), 2);
        assert!(fleet.insert_shared(&[0.5, 0.5]).is_ok());
    }

    /// The satellite contract for live health retuning: `configure_health`
    /// works through `&self` on a shared `Arc<ShardedIndex>`, reconfigures
    /// the *same* tracker in place (no new `Arc`), resets every breaker to
    /// closed, and the new tuning is visible to readers pinned **before**
    /// the retune (they share the tracker).
    #[test]
    fn configure_health_retunes_a_live_shared_fleet_in_place() {
        let fleet = Arc::new(four_shard_fleet(40));
        let reader = fleet.reader();
        let tracker = fleet.health();
        // Trip shard 1's breaker under the default tuning.
        let breaker = tracker.breaker(1);
        for _ in 0..tracker.breaker_config().failure_threshold {
            let generation = breaker.admit().expect("closed breaker admits");
            breaker.record_failure(generation);
        }
        assert_eq!(tracker.breaker_states()[1], BreakerState::Open);
        // Retune through &self on the shared fleet: no &mut, no swap.
        fleet.configure_health(
            BreakerConfig {
                failure_threshold: 9,
                ..BreakerConfig::default()
            },
            RetryPolicy {
                max_retries: 7,
                ..RetryPolicy::default()
            },
        );
        assert!(Arc::ptr_eq(&tracker, &fleet.health()));
        assert_eq!(fleet.health().breaker_config().failure_threshold, 9);
        assert_eq!(fleet.health().retry().max_retries, 7);
        // The retune resets every breaker, and the previously pinned reader
        // observes it immediately.
        assert!(reader
            .breaker_states()
            .iter()
            .all(|s| *s == BreakerState::Closed));
    }

    #[test]
    fn persistent_failures_trip_the_breaker_and_recovery_closes_it() {
        let fleet = four_shard_fleet(80);
        fleet.configure_health(
            BreakerConfig {
                failure_threshold: 3,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(20),
                seed: 11,
                ..BreakerConfig::default()
            },
            RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
        );
        let plan =
            Arc::new(FaultPlan::new(4).with_rule(always(2, FaultOp::Search, FaultKind::Fail)));
        fleet.set_fault_plan(Some(plan.clone()));
        let reader = fleet.reader();
        let budget = Duration::from_secs(5);

        // Three consecutive failures trip shard 2's breaker…
        for i in 0..3 {
            let d = reader.search_deadline(&[1.0, 1.0], 5, budget).unwrap();
            assert!(
                matches!(d.shards[2], ShardStatus::Failed(_)),
                "attempt {i}: {:?}",
                d.shards[2]
            );
        }
        assert_eq!(fleet.breaker_states()[2], BreakerState::Open);
        // …after which the shard is skipped without being touched.
        let hits_before = plan.op_count(2, FaultOp::Search);
        let d = reader.search_deadline(&[1.0, 1.0], 5, budget).unwrap();
        assert_eq!(d.shards[2], ShardStatus::SkippedOpen);
        assert_eq!(d.coverage, 0.75);
        assert_eq!(
            plan.op_count(2, FaultOp::Search),
            hits_before,
            "open breaker spends nothing on the dead shard"
        );

        // The fault clears; the half-open probe closes the breaker and
        // coverage returns to 1.0.
        plan.disarm();
        let recovered = Instant::now() + Duration::from_secs(10);
        loop {
            let d = reader.search_deadline(&[1.0, 1.0], 5, budget).unwrap();
            if d.coverage == 1.0 {
                break;
            }
            assert!(Instant::now() < recovered, "breaker never closed");
            std::thread::sleep(Duration::from_millis(3));
        }
        assert_eq!(fleet.breaker_states()[2], BreakerState::Closed);
    }

    #[test]
    fn background_compactor_survives_faults_and_counts_errors() {
        let fleet = Arc::new(four_shard_fleet(40));
        // Every shard starts dirty; shard 0's first two sweeps fail.
        let plan =
            Arc::new(FaultPlan::new(4).with_rule(first_n(0, FaultOp::Compact, 2, FaultKind::Fail)));
        fleet.set_fault_plan(Some(plan));
        let compactor = BackgroundCompactor::spawn(fleet.clone(), Duration::from_millis(2));
        let errors = || fleet.metrics().counter("lifecycle.compaction_errors");
        let runs = || fleet.metrics().counter("lifecycle.compactions");
        let deadline = Instant::now() + Duration::from_secs(20);
        while (errors() < 2 || runs() < 1) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(errors() >= 2, "compactor saw {} errors", errors());
        assert!(runs() >= 1, "compactor never recovered: {} runs", runs());
        drop(compactor);
        // All shards eventually swept clean despite the faults.
        assert_eq!(fleet.shard_epochs(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn snapshot_files_round_trip_and_recover_from_torn_writes() {
        let dir = std::env::temp_dir().join(format!("juno_serve_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.snap");

        // Generation 1: the fresh fleet.
        let fleet = four_shard_fleet(70);
        fleet.save_to_path(&path).unwrap();
        let gen1_ids = fleet.ids();
        // Generation 2: after a mutation.
        let id = fleet.insert_shared(&[6.5, 6.5]).unwrap();
        fleet.save_to_path(&path).unwrap();

        // Clean load restores generation 2.
        let restored =
            ShardedIndex::from_snapshot_path(MiniIndex::new(vec![vec![0.0, 0.0]]), &path).unwrap();
        assert_eq!(restored.ids(), fleet.ids());
        assert!(restored.ids().contains(&id));

        // Corrupt the newest generation in place: load falls back to the
        // rotated previous generation without panicking.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        bytes[mid + 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let recovered =
            ShardedIndex::from_snapshot_path(MiniIndex::new(vec![vec![0.0, 0.0]]), &path).unwrap();
        assert_eq!(recovered.ids(), gen1_ids, "fell back to generation 1");

        // Truncate the newest generation: same recovery.
        let full = std::fs::read(&path).unwrap();
        for frac in [0, full.len() / 3, full.len() - 1] {
            std::fs::write(&path, &full[..frac]).unwrap();
            let recovered =
                ShardedIndex::from_snapshot_path(MiniIndex::new(vec![vec![0.0, 0.0]]), &path)
                    .unwrap();
            assert_eq!(recovered.ids(), gen1_ids, "truncated to {frac} bytes");
        }

        // Both generations gone → a clean Io error, never a panic.
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(juno_common::atomic_file::prev_path(&path)).unwrap();
        assert!(matches!(
            ShardedIndex::from_snapshot_path(MiniIndex::new(vec![vec![0.0, 0.0]]), &path),
            Err(Error::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_level_path_persistence_round_trips() {
        let dir = std::env::temp_dir().join(format!("juno_mini_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mini.snap");
        let mini = MiniIndex::new(grid_rows(25));
        mini.save_to_path(&path).unwrap();
        let mut loaded = MiniIndex::new(vec![vec![0.0, 0.0]]);
        loaded.load_from_path(&path).unwrap();
        assert_eq!(loaded.ids(), mini.ids());
        assert_bit_identical(
            &loaded.search(&[1.5, 0.5], 5).unwrap(),
            &mini.search(&[1.5, 0.5], 5).unwrap(),
            "engine path round-trip",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- online serving front-end ----------------------------------------

    use crate::server::{ServeResponse, Server, ServerConfig};

    /// Holds a one-dispatcher server's dispatcher for `hold`: stalls shard
    /// 0's first search, sends a plug request into it and returns once the
    /// dispatcher has picked the plug up. Requests admitted before the plug
    /// comes back stay queued behind it (tests give them `max_delay` = 60 s),
    /// so a test can form the next batch deterministically — as long as it
    /// finishes queueing within `hold`.
    fn plug_dispatcher(
        server: &Arc<Server<MiniIndex>>,
        hold: Duration,
    ) -> std::thread::JoinHandle<Result<ServeResponse>> {
        let plan =
            FaultPlan::new(4).with_rule(first_n(0, FaultOp::Search, 1, FaultKind::Stall(hold)));
        server.fleet().set_fault_plan(Some(Arc::new(plan)));
        let plug = {
            let server = server.clone();
            std::thread::spawn(move || server.query(&[0.5, 0.5], 1))
        };
        wait_for("the dispatcher to pick the plug up", || {
            server.metrics_snapshot().counter("serve.admitted") == 1 && server.queue_depth() == 0
        });
        plug
    }

    /// Spins (yielding) until `done()` or five seconds pass.
    pub(crate) fn wait_for(what: &str, done: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < give_up, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn server_serves_concurrent_clients_with_correct_results_and_stats() {
        let fleet = Arc::new(four_shard_fleet(60));
        let server = Arc::new(
            Server::spawn(
                fleet.clone(),
                ServerConfig {
                    max_batch: 4,
                    max_delay: Duration::from_millis(2),
                    queue_depth: 64,
                    search_budget: Duration::from_secs(5),
                    dispatchers: 2,
                },
            )
            .unwrap(),
        );
        let clients = 16;
        std::thread::scope(|scope| {
            for c in 0..clients {
                let server = server.clone();
                let fleet = fleet.clone();
                scope.spawn(move || {
                    let q = [c as f32 * 0.37, (c % 5) as f32 * 0.61];
                    let served = server.query(&q, 5).unwrap();
                    let direct = fleet.search(&q, 5).unwrap();
                    assert_eq!(
                        served.result.neighbors, direct.neighbors,
                        "client {c}: batched result differs from direct search"
                    );
                    assert!(served.stats.batch_size >= 1);
                    assert_eq!(served.stats.coverage, 1.0);
                    assert_eq!(served.stats.shards.len(), 4);
                    assert!(served.stats.shards.iter().all(ShardStatus::is_ok));
                });
            }
        });
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.admitted"), clients);
        assert_eq!(snap.counter("serve.rejected"), 0);
        assert_eq!(snap.histograms["serve.latency_ns"].count, clients);
        assert_eq!(snap.histograms["serve.queue_wait_ns"].count, clients);
        let sizes = &snap.histograms["serve.batch_size"];
        assert_eq!(sizes.sum, clients, "every request rode exactly one batch");
        assert!(sizes.max <= 4, "batch exceeded max_batch");
        assert!(snap.counter("serve.dispatched_batches") >= clients / 4);
        assert_eq!(snap.gauge("serve.queue_depth"), 0);
    }

    #[test]
    fn server_rejects_beyond_queue_depth_and_flushes_admitted_work_on_drop() {
        let fleet = Arc::new(four_shard_fleet(40));
        // max_batch is far above what we enqueue, max_delay is huge and the
        // dispatcher is held on a plug, so the next admitted request sits in
        // the queue's only slot until the plug comes back.
        let server = Arc::new(
            Server::spawn(
                fleet,
                ServerConfig {
                    max_batch: 64,
                    max_delay: Duration::from_secs(60),
                    queue_depth: 1,
                    search_budget: Duration::from_secs(5),
                    dispatchers: 1,
                },
            )
            .unwrap(),
        );
        let plug = plug_dispatcher(&server, Duration::from_millis(300));
        let first = {
            let server = server.clone();
            std::thread::spawn(move || server.query(&[1.0, 1.0], 3))
        };
        // Wait until the first request occupies the queue's only slot. The
        // admitted counter is bumped after the enqueue becomes visible, so
        // polling it (not queue_depth) also orders this thread after the
        // client's metric update — the snapshot asserts below would otherwise
        // race it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics_snapshot().counter("serve.admitted") < 2 {
            assert!(Instant::now() < deadline, "first request never enqueued");
            std::thread::yield_now();
        }
        assert_eq!(server.queue_depth(), 1);
        let rejected = server.query(&[2.0, 2.0], 3);
        assert!(
            matches!(rejected, Err(juno_common::Error::Overloaded(_))),
            "expected Overloaded, got {rejected:?}"
        );
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.rejected"), 1);
        assert_eq!(snap.counter("serve.admitted"), 2, "the plug and `first`");
        // Shutdown flushes the admitted request rather than dropping it.
        // (The blocked client thread holds an Arc clone, so Drop alone
        // would wait for it — close ingress explicitly first.)
        server.shutdown();
        plug.join().unwrap().unwrap();
        let response = first.join().unwrap().unwrap();
        assert_eq!(response.result.neighbors.len(), 3);
        assert_eq!(response.stats.batch_size, 1);
        assert!(matches!(
            server.query(&[3.0, 3.0], 3),
            Err(juno_common::Error::Unavailable(_))
        ));
        drop(server);
    }

    #[test]
    fn server_validates_requests_before_admission() {
        let fleet = Arc::new(four_shard_fleet(20));
        let server = Server::spawn(fleet, ServerConfig::default()).unwrap();
        assert!(matches!(
            server.query(&[1.0, 2.0, 3.0], 5),
            Err(juno_common::Error::DimensionMismatch {
                expected: 2,
                actual: 3
            })
        ));
        assert!(matches!(
            server.query(&[1.0, 2.0], 0),
            Err(juno_common::Error::InvalidConfig(_))
        ));
        let snap = server.metrics_snapshot();
        assert_eq!(
            snap.counter("serve.admitted"),
            0,
            "bad requests never queue"
        );
    }

    #[test]
    fn server_mixed_k_batch_truncates_each_request_exactly() {
        let fleet = Arc::new(four_shard_fleet(60));
        let server = Arc::new(
            Server::spawn(
                fleet.clone(),
                ServerConfig {
                    max_batch: 3,
                    // Size trigger only, once the dispatcher is held.
                    max_delay: Duration::from_secs(60),
                    queue_depth: 16,
                    search_budget: Duration::from_secs(5),
                    dispatchers: 1,
                },
            )
            .unwrap(),
        );
        let plug = plug_dispatcher(&server, Duration::from_millis(300));
        let ks = [2usize, 5, 9];
        std::thread::scope(|scope| {
            for (i, k) in ks.into_iter().enumerate() {
                let server = server.clone();
                let fleet = fleet.clone();
                scope.spawn(move || {
                    let q = [i as f32, 1.0 - i as f32];
                    let served = server.query(&q, k).unwrap();
                    assert_eq!(served.stats.batch_size, 3, "size trigger formed the batch");
                    let direct = fleet.search(&q, k).unwrap();
                    assert_eq!(
                        served.result.neighbors, direct.neighbors,
                        "k={k}: truncation from k_max broke the prefix property"
                    );
                });
            }
        });
        plug.join().unwrap().unwrap();
    }

    #[test]
    fn server_snapshot_reports_execution_time_and_scan_workers() {
        let fleet = Arc::new(four_shard_fleet(60));
        let server = Server::spawn(fleet.clone(), ServerConfig::default()).unwrap();
        for i in 0..40 {
            server.query(&[i as f32 * 0.1, 0.5], 5).unwrap();
        }
        // A batch's execution time is recorded after its last reply, so the
        // client can get here first.
        wait_for("the last batch's execution time", || {
            let snap = server.metrics_snapshot();
            snap.histograms["serve.exec_ns"].count == snap.counter("serve.dispatched_batches")
        });
        let snap = server.metrics_snapshot();
        // One client, one dispatcher: a request never waits out a timer, and
        // its whole latency is its batch's execution plus plumbing.
        assert!(
            snap.histograms["serve.queue_wait_ns"].p50() < 500_000,
            "a lone request waited in the queue"
        );
        let started = snap.counter("serve.scan_workers_started");
        assert!(
            (1..=4).contains(&started),
            "40 sequential batches on 4 shards started {started} scan workers"
        );
        assert_eq!(
            started,
            fleet.metrics().counter("serve.scan_workers_started")
        );
        assert!((0..=4).contains(&snap.gauge("serve.scan_workers_parked")));
    }

    #[test]
    fn dropping_the_fleet_and_its_readers_lets_every_parked_scan_worker_exit() {
        let budget = Duration::from_secs(5);
        let fleet = four_shard_fleet(60);
        // A handle on the live-worker gauge outlives the fleet.
        let live = fleet.registry().gauge("serve.scan_workers_live");
        let reader = fleet.reader();
        assert!(reader
            .search_deadline(&[1.0, 1.0], 5, budget)
            .unwrap()
            .is_complete());
        let parked = fleet.metrics().gauge("serve.scan_workers_parked");
        assert!((1..=4).contains(&parked), "{parked} workers parked");
        assert_eq!(live.get(), parked);
        // A pinned reader keeps the pool open after the fleet is gone…
        drop(fleet);
        assert!(reader
            .search_deadline(&[2.0, 2.0], 5, budget)
            .unwrap()
            .is_complete());
        assert!(live.get() >= parked);
        // …and the last handle to go closes it.
        drop(reader);
        wait_for("the parked workers to exit", || live.get() == 0);
    }

    /// End-to-end QoS under a seeded stall: a stalled shard costs coverage,
    /// never the deadline — p999 stays inside the configured budget — and
    /// after `disarm()` the probe deadline lets the breaker recover to full
    /// coverage even though the abandoned probes never reported.
    #[test]
    fn server_p999_holds_under_stall_and_coverage_recovers_after_disarm() {
        let raw = four_shard_fleet(60);
        raw.configure_health(
            BreakerConfig {
                failure_threshold: 2,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(10),
                probe_timeout: Duration::from_millis(30),
                seed: 13,
            },
            RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
        );
        let fleet = Arc::new(raw);
        let budget = Duration::from_millis(40);
        let server = Server::spawn(
            fleet.clone(),
            ServerConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                queue_depth: 64,
                search_budget: budget,
                dispatchers: 1,
            },
        )
        .unwrap();
        // Shard 2 stalls on every search, well past the batch budget.
        let plan = Arc::new(FaultPlan::new(4).with_rule(always(
            2,
            FaultOp::Search,
            FaultKind::Stall(Duration::from_millis(400)),
        )));
        fleet.set_fault_plan(Some(plan.clone()));
        let mut saw_degraded = false;
        for i in 0..30 {
            let served = server.query(&[i as f32 * 0.1, 0.5], 5).unwrap();
            if served.stats.coverage < 1.0 {
                saw_degraded = true;
            }
        }
        assert!(saw_degraded, "the stall never surfaced as lost coverage");
        let p999 = server.metrics_snapshot().histograms["serve.latency_ns"].p999();
        // End-to-end tail ≤ queueing (max_delay) + batch budget + slack for
        // merge and reply plumbing; far below the 400ms stall.
        let ceiling = (budget + Duration::from_millis(1) + Duration::from_millis(60)).as_nanos();
        assert!(
            u128::from(p999) <= ceiling,
            "p999 {p999}ns exceeds deadline ceiling {ceiling}ns"
        );
        // Disarm and keep querying: the probe deadline re-admits probes that
        // the stall swallowed, so the breaker closes and coverage returns.
        plan.disarm();
        let recovered_by = Instant::now() + Duration::from_secs(10);
        loop {
            let served = server.query(&[0.3, 0.3], 5).unwrap();
            if served.stats.coverage == 1.0 {
                break;
            }
            assert!(
                Instant::now() < recovered_by,
                "coverage never recovered after disarm: {:?}",
                server.breaker_states()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = server.metrics_snapshot();
        assert!(snap.counter("serve.degraded_batches") >= 1);
        assert!(snap.counter("serve.breaker_transitions") >= 2);
    }

    // ---- durability plane -------------------------------------------------

    use crate::durability::DurabilityConfig;
    use juno_common::wal::{FsyncPolicy, WalOptions};

    fn wal_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("juno_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The recovered fleet and the original must agree on ids, search bits,
    /// and — via a probe insert applied to both — id-allocator state.
    fn assert_fleet_equivalent(
        recovered: &ShardedIndex<MiniIndex>,
        reference: &ShardedIndex<MiniIndex>,
        label: &str,
    ) {
        assert_eq!(recovered.ids(), reference.ids(), "{label}: ids");
        for q in [[0.0f32, 0.0], [3.7, 1.1], [16.0, 6.0]] {
            assert_bit_identical(
                &recovered.search(&q, 12).unwrap(),
                &reference.search(&q, 12).unwrap(),
                &format!("{label}: search"),
            );
        }
        let probe = [123.0f32, -45.0];
        assert_eq!(
            recovered.insert_shared(&probe).unwrap(),
            reference.insert_shared(&probe).unwrap(),
            "{label}: id allocator diverged"
        );
    }

    /// A batch whose third WAL append fails (the next segment file cannot be
    /// created) leaves its first two records in the log, and the same disk
    /// refuses the rollback's Abort. The range must stay owed — writes are
    /// refused, not acknowledged behind records that would replay — and be
    /// logged by the first write that can, so recovery skips exactly the
    /// two orphans and every later id lines up with the acknowledged history.
    #[test]
    fn a_batch_failing_mid_append_leaves_no_orphans_even_when_the_abort_must_wait() {
        let dir = wal_dir("orphans");
        let mut mono = MiniIndex::new(grid_rows(30));
        let fleet = ShardedIndex::from_monolith(mono.clone(), 2, ShardRouter::Modulo).unwrap();
        // One-byte segments: every record opens the segment named after its
        // own LSN.
        let config = DurabilityConfig {
            wal: WalOptions {
                policy: FsyncPolicy::Always,
                segment_bytes: 1,
            },
            keep_checkpoints: 2,
        };
        fleet.enable_wal(&dir, config).unwrap();
        let mut insert_both = |fleet: &ShardedIndex<MiniIndex>, v: [f32; 2]| {
            assert_eq!(fleet.insert_shared(&v).unwrap(), mono.insert(&v).unwrap());
        };
        for i in 0..3 {
            insert_both(&fleet, [i as f32 * 0.7, 2.5]);
        }

        let last = fleet.wal_last_lsn().unwrap();
        let squatter = dir.join(format!("wal-{:020}.seg", last + 3));
        std::fs::write(&squatter, b"").unwrap();
        let epochs = fleet.shard_epochs();
        let batch =
            VectorSet::from_rows((0..5).map(|i| vec![70.0 + i as f32, 7.0]).collect()).unwrap();
        assert!(matches!(
            fleet.insert_batch_shared(&batch),
            Err(Error::Io(_))
        ));
        assert_eq!(
            fleet.shard_epochs(),
            epochs,
            "a failed batch publishes nothing"
        );
        assert_eq!(fleet.wal_last_lsn(), Some(last + 2), "two records made it");
        // Still squatting: the Abort cannot be logged, so neither can a write.
        assert!(fleet.insert_shared(&[1.0, 1.0]).is_err());
        assert_eq!(fleet.shard_epochs(), epochs);

        std::fs::remove_file(&squatter).unwrap();
        for i in 0..3 {
            insert_both(&fleet, [40.0 + i as f32, 4.5]);
        }
        drop(fleet);
        let (recovered, report) =
            ShardedIndex::recover_from_dir(MiniIndex::new(vec![vec![0.0, 0.0]]), &dir, config)
                .unwrap();
        assert_eq!(report.skipped_aborted, 2, "the two orphaned inserts");
        assert_eq!(report.replayed_ops, 6);
        assert_eq!(recovered.ids(), mono.ids());
        for q in [[0.0f32, 0.0], [41.0, 4.5], [71.0, 7.0]] {
            assert_bit_identical(
                &recovered.search(&q, 12).unwrap(),
                &mono.search(&q, 12).unwrap(),
                "acknowledged history only",
            );
        }
        let probe = [123.0f32, -45.0];
        assert_eq!(
            recovered.insert_shared(&probe).unwrap(),
            mono.insert(&probe).unwrap(),
            "id allocator diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_misuse_is_rejected_cleanly() {
        let dir = wal_dir("misuse");
        let fleet = four_shard_fleet(20);
        // Checkpoint without a WAL.
        assert!(matches!(fleet.checkpoint(), Err(Error::InvalidConfig(_))));
        fleet.enable_wal(&dir, DurabilityConfig::default()).unwrap();
        // Double attach.
        assert!(matches!(
            fleet.enable_wal(&dir, DurabilityConfig::default()),
            Err(Error::InvalidConfig(_))
        ));
        // Recovering from a directory that is not a durability dir.
        let empty = wal_dir("misuse_empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(matches!(
            ShardedIndex::recover_from_dir(
                MiniIndex::new(vec![vec![0.0, 0.0]]),
                &empty,
                DurabilityConfig::default(),
            ),
            Err(Error::Io(_))
        ));
        // restore_from_bytes detaches the WAL (the log no longer describes
        // the fleet's history).
        let mut fleet = fleet;
        let bytes = fleet.to_snapshot_bytes().unwrap();
        fleet.restore_from_bytes(&bytes).unwrap();
        assert!(!fleet.wal_enabled(), "restore must detach the WAL");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn server_passthroughs_log_durably_and_merge_wal_metrics() {
        let dir = wal_dir("server");
        let fleet = Arc::new(four_shard_fleet(30));
        fleet.enable_wal(&dir, DurabilityConfig::default()).unwrap();
        let server = Server::spawn(fleet.clone(), ServerConfig::default()).unwrap();
        let id = server.insert(&[7.5, 7.5]).unwrap();
        assert!(server.remove(id).unwrap());
        server.query(&[1.0, 1.0], 3).unwrap();
        let report = server.checkpoint().unwrap();
        // Baseline Checkpoint record + insert + remove.
        assert_eq!(report.covered_lsn, 3, "insert + remove were logged");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("wal.records"), 4, "2 ckpts + 2 mutations");
        assert!(snap.histograms.contains_key("wal.append_ns"));
        assert!(snap.histograms.contains_key("serve.latency_ns"));
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- what a write stages on -------------------------------------------

    /// A fleet whose every shard holds more points than one missed record is
    /// worth in copies (`n / 4` ≥ 450 × `run`, with `run` the longest run of
    /// records one publish applies), so the write after it catches the
    /// retired epoch up instead of cloning.
    fn staging_fleet(run: usize) -> ShardedIndex<MiniIndex> {
        four_shard_fleet(2400 * run)
    }

    /// The fleet's `serve.stage_reused` and `serve.stage_cloned` counts.
    fn stage_counts<I: AnnIndex>(fleet: &ShardedIndex<I>) -> (u64, u64) {
        let snap = fleet.metrics();
        (
            snap.counter("serve.stage_reused"),
            snap.counter("serve.stage_cloned"),
        )
    }

    #[test]
    fn a_wrong_dimension_insert_is_rejected_by_the_engine_before_anything_is_logged() {
        let dir = wal_dir("wrong_dim");
        let fleet = four_shard_fleet(40);
        fleet.enable_wal(&dir, DurabilityConfig::default()).unwrap();
        let (lsn, epochs) = (fleet.wal_last_lsn(), fleet.shard_epochs());
        for bad in [&[1.0f32, 2.0, 3.0][..], &[1.0]] {
            assert!(matches!(
                fleet.insert_shared(bad),
                Err(Error::DimensionMismatch { expected: 2, .. })
            ));
        }
        assert_eq!(fleet.wal_last_lsn(), lsn, "nothing reached the log");
        assert_eq!(fleet.shard_epochs(), epochs, "nothing was published");
        assert_eq!(fleet.insert_shared(&[1.0, 2.0]).unwrap(), 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn staging_in_recovery_replay_clones_for_the_first_write_and_after_each_sweep_only() {
        let dir = wal_dir("staged_replay");
        // Recovery stages a run of logged inserts as one batch; the longest
        // run below is four (a dead remove logs nothing to end a run with).
        let (durable, reference) = (staging_fleet(4), staging_fleet(4));
        durable
            .enable_wal(&dir, DurabilityConfig::default())
            .unwrap();
        let mut next = 0u32;
        for round in 0..8u64 {
            for _ in 0..=round % 3 {
                let v = [next as f32 * 0.31, (next % 7) as f32];
                next += 1;
                assert_eq!(
                    durable.insert_shared(&v).unwrap(),
                    reference.insert_shared(&v).unwrap()
                );
            }
            // Rounds 2 and 5 remove what round 1 and 4 did: dead ids.
            let id = (round - u64::from(round % 3 == 2)) * 11;
            assert_eq!(
                durable.remove_shared(id).unwrap(),
                reference.remove_shared(id).unwrap()
            );
            if round == 3 {
                durable.compact_all_shared().unwrap();
                reference.compact_all_shared().unwrap();
            }
        }
        drop(durable);
        let (recovered, report) = ShardedIndex::recover_from_dir(
            MiniIndex::new(vec![vec![0.0, 0.0]]),
            &dir,
            DurabilityConfig::default(),
        )
        .unwrap();
        assert_eq!(
            report.replayed_ops,
            15 + 6 + 1,
            "inserts, live removes, sweep"
        );
        // Four clones for the first batch and four for the batch after the
        // sweep; every other batch (4 each), remove (1) and the sweep itself
        // (4) staged on retired epochs.
        assert_eq!(stage_counts(&recovered), (4 * 4 + 6 + 4, 4 * (1 + 1)));
        assert_fleet_equivalent(&recovered, &reference, "replay on retired epochs");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
