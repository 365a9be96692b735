//! A high-quality utility generator for baselines and workloads.

use crate::lcg::Prng32;

/// SplitMix64-based 32-bit generator.
///
/// This is **not** a malware PRNG: it exists so that the *uniform
/// baseline* worm (the paper's null model) scans with a generator whose
/// output really is statistically uniform, rather than inheriting LCG
/// artifacts that would contaminate the baseline. Workload construction
/// (population placement, seeds) uses the `rand` crate; this type is for
/// inner-loop target generation where we want `Prng32` compatibility and
/// speed.
///
/// # Examples
///
/// ```
/// use hotspots_prng::{Prng32, SplitMix};
///
/// let mut a = SplitMix::new(42);
/// let mut b = SplitMix::new(42);
/// assert_eq!(a.next_u32(), b.next_u32());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix {
    state: u64,
}

/// The Weyl-sequence increment: the state walks `seed + k·GAMMA`, so any
/// output in the stream is a pure function of its index — which is what
/// makes the batch kernel below a dependency-free counter loop.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
const fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SplitMix {
    /// Creates a generator from a 64-bit seed.
    pub const fn new(seed: u64) -> SplitMix {
        SplitMix { state: seed }
    }

    /// Produces the next 64-bit word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }
}

impl Prng32 for SplitMix {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Counter-mode kernel: output k is `mix(base + (k+1)·GAMMA)`, so the
    /// loop has no carried dependency and autovectorizes. Bit-identical to
    /// the scalar stream by construction.
    fn fill_u32(&mut self, out: &mut [u32]) {
        let base = self.state;
        for (i, slot) in out.iter_mut().enumerate() {
            let s = base.wrapping_add(GAMMA.wrapping_mul(i as u64 + 1));
            *slot = (mix(s) >> 32) as u32;
        }
        self.state = base.wrapping_add(GAMMA.wrapping_mul(out.len() as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(8);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_u32_matches_scalar_stream() {
        for len in [0usize, 1, 3, 8, 31, 64, 100] {
            let mut scalar = SplitMix::new(0xdead_beef ^ len as u64);
            let mut batch = scalar;
            let expect: Vec<u32> = (0..len).map(|_| scalar.next_u32()).collect();
            let mut got = vec![0u32; len];
            batch.fill_u32(&mut got);
            assert_eq!(got, expect, "len {len}");
            assert_eq!(batch, scalar, "state after len {len}");
        }
    }

    #[test]
    fn output_spreads_over_octet_buckets() {
        // sanity: 25600 draws into 256 first-octet bins, none empty
        let mut g = SplitMix::new(123);
        let mut bins = [0u32; 256];
        for _ in 0..25_600 {
            bins[(g.next_u32() >> 24) as usize] += 1;
        }
        assert!(bins.iter().all(|&c| c > 40), "suspiciously uneven");
    }
}
