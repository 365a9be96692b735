//! The Microsoft C runtime `rand()`, as used by the Blaster worm.

use crate::lcg::{Lcg32, Prng32};

/// msvcrt's `rand()` multiplier.
pub(crate) const MSVCRT_MUL: u32 = 214013;
/// msvcrt's `rand()` increment.
pub(crate) const MSVCRT_INC: u32 = 2531011;

/// The Microsoft C runtime pseudo-random generator:
/// `state ← state·214013 + 2531011 (mod 2^32)`, output
/// `(state >> 16) & 0x7fff`.
///
/// Blaster calls `srand(GetTickCount())` at startup and then uses `rand()`
/// to pick its scanning start address. Because `GetTickCount()` restarts at
/// zero on every reboot and Blaster launches from the Run registry key
/// about 30 seconds after boot, the seed — and therefore the entire
/// scanning trajectory — is drawn from a tiny, predictable set. See
/// [`crate::entropy`].
///
/// # Examples
///
/// ```
/// use hotspots_prng::MsvcrtRand;
///
/// let mut r = MsvcrtRand::with_seed(1);
/// let first: Vec<u16> = (0..5).map(|_| r.rand15()).collect();
/// assert_eq!(first, [41, 18467, 6334, 26500, 19169]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsvcrtRand {
    lcg: Lcg32,
}

impl MsvcrtRand {
    /// Equivalent of `srand(seed)`.
    pub const fn with_seed(seed: u32) -> MsvcrtRand {
        MsvcrtRand {
            lcg: Lcg32::new(MSVCRT_MUL, MSVCRT_INC, seed),
        }
    }

    /// Equivalent of `rand()`: a 15-bit value in `0..=32767`.
    #[inline]
    pub fn rand15(&mut self) -> u16 {
        ((self.lcg.step() >> 16) & 0x7fff) as u16
    }

    /// `rand() % modulus`, the idiom Blaster's scanning code uses
    /// (e.g. `rand() % 20` when perturbing the third octet).
    ///
    /// # Panics
    ///
    /// Panics if `modulus == 0`.
    #[inline]
    pub fn rand_mod(&mut self, modulus: u16) -> u16 {
        assert!(modulus > 0, "modulus must be non-zero");
        self.rand15() % modulus
    }

    /// The raw 32-bit LCG state (useful for forensics/tests).
    pub const fn state(&self) -> u32 {
        self.lcg.state()
    }
}

/// Recovers the `srand` seeds consistent with an observed `rand()`
/// output sequence — the forensic inverse behind the paper's
/// seed↔hotspot correlation.
///
/// `rand()` discards the state's low 16 bits and its top bit, so a
/// single output matches 2^17 seeds; each further output cuts the
/// candidate set by ~2^15. Two to three observed outputs typically pin
/// the seed band uniquely within `seed_range`.
///
/// The search is exact and costs `O(|seed_range|)` LCG steps.
///
/// # Examples
///
/// ```
/// use hotspots_prng::{recover_seeds, MsvcrtRand};
///
/// let mut r = MsvcrtRand::with_seed(138_000);
/// let observed: Vec<u16> = (0..3).map(|_| r.rand15()).collect();
/// let candidates = recover_seeds(&observed, 0..1_000_000);
/// assert!(candidates.contains(&138_000));
/// assert!(candidates.len() < 40, "3 outputs nearly pin the seed");
/// ```
pub fn recover_seeds(observed: &[u16], seed_range: std::ops::Range<u32>) -> Vec<u32> {
    if observed.is_empty() {
        return seed_range.collect();
    }
    seed_range
        .filter(|&seed| {
            let mut r = MsvcrtRand::with_seed(seed);
            observed.iter().all(|&o| r.rand15() == o)
        })
        .collect()
}

impl Prng32 for MsvcrtRand {
    /// Produces a full 32-bit word the way C programs typically do from
    /// 15-bit `rand()` outputs: three calls glued together
    /// (`r0 | r1<<15 | r2<<30`).
    fn next_u32(&mut self) -> u32 {
        let r0 = u32::from(self.rand15());
        let r1 = u32::from(self.rand15());
        let r2 = u32::from(self.rand15());
        r0 | (r1 << 15) | (r2 << 30)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classic_srand1_sequence() {
        // Reference values produced by MSVC's CRT for srand(1).
        let mut r = MsvcrtRand::with_seed(1);
        let seq: Vec<u16> = (0..10).map(|_| r.rand15()).collect();
        assert_eq!(
            seq,
            [41, 18467, 6334, 26500, 19169, 15724, 11478, 29358, 26962, 24464]
        );
    }

    #[test]
    fn srand0_sequence_starts_with_38() {
        let mut r = MsvcrtRand::with_seed(0);
        assert_eq!(r.rand15(), 38);
    }

    #[test]
    fn rand_mod_bounds() {
        let mut r = MsvcrtRand::with_seed(12345);
        for _ in 0..100 {
            assert!(r.rand_mod(20) < 20);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rand_mod_zero_panics() {
        MsvcrtRand::with_seed(1).rand_mod(0);
    }

    #[test]
    fn nearby_seeds_give_different_streams() {
        // The whole Blaster story: close tick counts give different but
        // *predictable* streams.
        let mut a = MsvcrtRand::with_seed(30_000);
        let mut b = MsvcrtRand::with_seed(30_001);
        assert_ne!(a.rand15(), b.rand15());
    }

    #[test]
    fn recover_seeds_handles_edges() {
        // empty observation: everything in range is a candidate
        assert_eq!(recover_seeds(&[], 5..8), vec![5, 6, 7]);
        // impossible observation: nothing survives
        let mut r = MsvcrtRand::with_seed(10);
        let first = r.rand15();
        let wrong = first.wrapping_add(1) & 0x7fff;
        assert!(recover_seeds(&[wrong, 0, 0], 10..11).is_empty());
    }

    proptest! {
        #[test]
        fn recovered_seeds_reproduce_observations(seed in 0u32..500_000) {
            let mut r = MsvcrtRand::with_seed(seed);
            let observed: Vec<u16> = (0..4).map(|_| r.rand15()).collect();
            let lo = seed.saturating_sub(10_000);
            let candidates = recover_seeds(&observed, lo..seed + 10_000);
            prop_assert!(candidates.contains(&seed));
            for c in candidates {
                let mut check = MsvcrtRand::with_seed(c);
                for &o in &observed {
                    prop_assert_eq!(check.rand15(), o);
                }
            }
        }

        #[test]
        fn rand15_is_15_bits(seed in any::<u32>()) {
            let mut r = MsvcrtRand::with_seed(seed);
            for _ in 0..16 {
                prop_assert!(r.rand15() <= 0x7fff);
            }
        }

        #[test]
        fn deterministic_for_equal_seeds(seed in any::<u32>()) {
            let mut a = MsvcrtRand::with_seed(seed);
            let mut b = MsvcrtRand::with_seed(seed);
            for _ in 0..8 {
                prop_assert_eq!(a.rand15(), b.rand15());
            }
        }
    }
}
