//! The plan stamp's hash: a word-wise FNV-1a over the state planning reads.
//!
//! [`JunoIndex`](crate::engine::JunoIndex) fingerprints everything
//! planning a query depends on, so that a plan computed on one engine
//! is only ever scanned by an engine that would have computed the same plan
//! (see [`juno_common::index::BatchPlan`]). The hash needs to be fast — it
//! covers the density maps, ≈2 MB at 48 subspaces — and to separate states
//! that differ, not to resist an adversary: replicas either share their
//! trained state bit for bit or differ in some word, and a single differing
//! word always changes an FNV-1a state (xor and an odd multiply are both
//! bijections on `u64`).

/// Running fingerprint: 64-bit FNV-1a fed one `u64` word per multiply.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fingerprint(u64);

impl Fingerprint {
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    pub(crate) fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    /// Continues from a finished fingerprint — how the stamp rolls forward
    /// over an insert without re-reading the trained state.
    pub(crate) fn resume(stamp: u64) -> Self {
        Self(stamp)
    }

    pub(crate) fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(Self::PRIME);
    }

    /// Feeds a slice length-prefixed, two `f32` bit patterns per word.
    pub(crate) fn f32s(&mut self, xs: &[f32]) {
        self.word(xs.len() as u64);
        let mut pairs = xs.chunks_exact(2);
        for p in &mut pairs {
            self.word(u64::from(p[0].to_bits()) << 32 | u64::from(p[1].to_bits()));
        }
        if let [last] = pairs.remainder() {
            self.word(u64::from(last.to_bits()));
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(xs: &[f32]) -> u64 {
        let mut h = Fingerprint::new();
        h.f32s(xs);
        h.finish()
    }

    #[test]
    fn separates_values_lengths_and_order() {
        assert_eq!(of(&[1.0, 2.0, 3.0]), of(&[1.0, 2.0, 3.0]));
        assert_ne!(of(&[1.0, 2.0, 3.0]), of(&[1.0, 2.0, 3.5]));
        assert_ne!(of(&[1.0, 2.0]), of(&[2.0, 1.0]));
        assert_ne!(of(&[0.0]), of(&[0.0, 0.0]), "length is part of the hash");
        assert_ne!(of(&[0.0]), of(&[-0.0]), "bit patterns, not values");
    }

    #[test]
    fn resuming_chains_deterministically() {
        let base = of(&[1.0, 2.0]);
        let roll = |from: u64, xs: &[f32]| {
            let mut h = Fingerprint::resume(from);
            h.f32s(xs);
            h.finish()
        };
        assert_eq!(roll(base, &[3.0]), roll(base, &[3.0]));
        assert_ne!(roll(base, &[3.0]), base);
        assert_ne!(roll(base, &[3.0]), roll(base, &[4.0]));
    }
}
