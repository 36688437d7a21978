//! Deterministic id → shard routing.
//!
//! The router decides which shard *owns* each point id. Ownership is a pure
//! function of the id (never of the vector's position in a scan), so the
//! same router always reproduces the same partition — the property the
//! shard-parity differential suite and snapshot restore both rely on.

use juno_common::error::{Error, Result};
use juno_common::snapshot::{SectionReader, SectionWriter};

/// The largest shard count the serving layer supports (bounded by the
/// three-digit per-shard snapshot section tags `S000`..`S998`).
pub const MAX_SHARDS: usize = 999;

/// Deterministic assignment of point ids to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRouter {
    /// Mixes the id through splitmix64 before reducing modulo the shard
    /// count — spreads adjacent ids (the common allocation pattern) evenly.
    Hash {
        /// Salt XOR-ed into the id before mixing, so two fleets over the
        /// same data can be partitioned differently.
        seed: u64,
    },
    /// Plain `id % shards` — interleaves consecutive ids round-robin.
    Modulo,
}

/// Finalizer of splitmix64: a full-avalanche 64-bit mix.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ShardRouter {
    /// The shard owning `id` in a fleet of `num_shards`.
    #[inline]
    pub fn route(&self, id: u64, num_shards: usize) -> usize {
        if num_shards <= 1 {
            return 0;
        }
        match self {
            ShardRouter::Hash { seed } => (splitmix64(id ^ seed) % num_shards as u64) as usize,
            ShardRouter::Modulo => (id % num_shards as u64) as usize,
        }
    }

    /// Serialises the router into a snapshot section (tag byte + seed).
    pub fn encode(&self, w: &mut SectionWriter) {
        match self {
            ShardRouter::Hash { seed } => {
                w.put_u8(0);
                w.put_u64(*seed);
            }
            ShardRouter::Modulo => {
                w.put_u8(1);
                w.put_u64(0);
            }
        }
    }

    /// Inverse of [`ShardRouter::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for an unknown router tag.
    pub fn decode(r: &mut SectionReader<'_>) -> Result<Self> {
        let tag = r.get_u8()?;
        let seed = r.get_u64()?;
        match tag {
            0 => Ok(ShardRouter::Hash { seed }),
            1 => Ok(ShardRouter::Modulo),
            other => Err(Error::corrupted(format!(
                "sharded snapshot: unknown router tag {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for router in [ShardRouter::Hash { seed: 42 }, ShardRouter::Modulo] {
            for shards in [1usize, 2, 4, 7] {
                for id in 0..500u64 {
                    let s = router.route(id, shards);
                    assert!(s < shards);
                    assert_eq!(s, router.route(id, shards), "stable");
                }
            }
        }
    }

    #[test]
    fn hash_routing_is_roughly_balanced() {
        let router = ShardRouter::Hash { seed: 7 };
        let shards = 4;
        let mut counts = [0usize; 4];
        for id in 0..4_000u64 {
            counts[router.route(id, shards)] += 1;
        }
        for &c in &counts {
            assert!((700..=1_300).contains(&c), "skewed partition: {counts:?}");
        }
    }

    #[test]
    fn modulo_routing_interleaves() {
        let router = ShardRouter::Modulo;
        assert_eq!(router.route(0, 3), 0);
        assert_eq!(router.route(1, 3), 1);
        assert_eq!(router.route(5, 3), 2);
        assert_eq!(router.route(5, 1), 0);
    }

    #[test]
    fn encode_decode_round_trips() {
        for router in [ShardRouter::Hash { seed: 0xDEAD }, ShardRouter::Modulo] {
            let mut w = SectionWriter::new();
            router.encode(&mut w);
            let bytes = w.finish();
            let mut snap = juno_common::snapshot::SnapshotWriter::new(0);
            let mut s = SectionWriter::new();
            s.put_raw(&bytes);
            snap.add_section(*b"RTST", s);
            let all = snap.finish();
            let parsed = juno_common::snapshot::Snapshot::parse(&all).unwrap();
            let mut r = parsed.section(*b"RTST").unwrap();
            assert_eq!(ShardRouter::decode(&mut r).unwrap(), router);
        }
        // Unknown tags are rejected, not misparsed.
        let mut w = SectionWriter::new();
        w.put_u8(9);
        w.put_u64(0);
        let mut snap = juno_common::snapshot::SnapshotWriter::new(0);
        snap.add_section(*b"RTST", w);
        let all = snap.finish();
        let parsed = juno_common::snapshot::Snapshot::parse(&all).unwrap();
        let mut r = parsed.section(*b"RTST").unwrap();
        assert!(ShardRouter::decode(&mut r).is_err());
    }
}
