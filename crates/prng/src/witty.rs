//! The Witty worm's target generator (Kumar, Paxson & Weaver's analysis,
//! cited by the paper as a further PRNG-structure case).
//!
//! Witty reused the msvcrt LCG but took only the **top 16 bits** of each
//! new state as its `rand()` output, building a target address from two
//! consecutive outputs. Because the underlying LCG is a single full
//! 2^32-period orbit, every Witty instance walks the *same* global output
//! sequence (merely phase-shifted by its seed), the target sequence has
//! period 2^31 (two states per target), and the reachable target set is a
//! fixed proper subset of the address space — addresses outside it can
//! never be probed by any instance. All three properties are tested.

use hotspots_ipspace::Ip;

use crate::lcg::{Lcg32, Prng32};
use crate::msvcrt::{MSVCRT_INC, MSVCRT_MUL};

/// A Witty instance's generator:
/// `state ← 214013·state + 2531011 (mod 2^32)`, `rand() = state >> 16`,
/// `target = rand()·2^16 | rand()`.
///
/// # Examples
///
/// ```
/// use hotspots_prng::WittyPrng;
///
/// let mut a = WittyPrng::new(0);
/// let mut b = WittyPrng::new(0);
/// assert_eq!(a.next_target(), b.next_target());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WittyPrng {
    lcg: Lcg32,
}

impl WittyPrng {
    /// Creates an instance seeded with `seed` (in the wild: a
    /// time-derived value).
    pub const fn new(seed: u32) -> WittyPrng {
        WittyPrng {
            lcg: Lcg32::new(MSVCRT_MUL, MSVCRT_INC, seed),
        }
    }

    /// The raw LCG state.
    pub const fn state(&self) -> u32 {
        self.lcg.state()
    }

    /// Witty's 16-bit `rand()`: the high half of the next state.
    #[inline]
    pub fn rand16(&mut self) -> u16 {
        (self.lcg.step() >> 16) as u16
    }

    /// Generates the next target address from two `rand()` calls.
    #[inline]
    pub fn next_target(&mut self) -> Ip {
        let hi = u32::from(self.rand16());
        let lo = u32::from(self.rand16());
        Ip::new((hi << 16) | lo)
    }

    /// Whether *any* Witty instance can ever generate `target`: the
    /// address is reachable iff some state `s` has `s >> 16 == hi` and
    /// `step(s) >> 16 == lo`. Checked exactly by scanning the 2^16
    /// states sharing the high half (fast: one multiply per candidate).
    pub fn can_generate(target: Ip) -> bool {
        let v = target.value();
        let hi = v >> 16;
        let lo = v & 0xffff;
        (0u32..=0xffff).any(|low_bits| {
            let s = (hi << 16) | low_bits;
            (s.wrapping_mul(MSVCRT_MUL).wrapping_add(MSVCRT_INC)) >> 16 == lo
        })
    }
}

impl Prng32 for WittyPrng {
    fn next_u32(&mut self) -> u32 {
        self.next_target().value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles::AffineMap;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<Ip> = {
            let mut w = WittyPrng::new(7);
            (0..32).map(|_| w.next_target()).collect()
        };
        let b: Vec<Ip> = {
            let mut w = WittyPrng::new(7);
            (0..32).map(|_| w.next_target()).collect()
        };
        let c: Vec<Ip> = {
            let mut w = WittyPrng::new(8);
            (0..32).map(|_| w.next_target()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn all_instances_share_one_orbit() {
        // advance instance A by k steps and it becomes instance B: the
        // LCG is a single 2^32 cycle, so every seed is a phase shift.
        let map = AffineMap::new(MSVCRT_MUL, MSVCRT_INC, 32).unwrap();
        let seed_a = 123u32;
        let shifted_seed = map.jump(seed_a, 2_468); // even shift: stays target-aligned
        let mut a = WittyPrng::new(seed_a);
        for _ in 0..(2_468 / 2) {
            a.next_target();
        }
        let mut b = WittyPrng::new(shifted_seed);
        for _ in 0..16 {
            assert_eq!(a.next_target(), b.next_target());
        }
    }

    #[test]
    fn target_sequence_period_is_2_to_31() {
        // two states per target over a 2^32-period orbit: jumping the
        // state 2^32 steps (= 2^31 targets) returns it exactly.
        let map = AffineMap::new(MSVCRT_MUL, MSVCRT_INC, 32).unwrap();
        for seed in [0u32, 1, 0xdead_beef] {
            assert_eq!(map.jump(seed, 1u64 << 32), seed);
        }
        // and the msvcrt LCG really is full-period (Hull–Dobell): no
        // shorter power-of-two period
        assert_ne!(map.jump(5, 1u64 << 31), 5);
    }

    #[test]
    fn some_addresses_are_unreachable() {
        // Kumar et al.'s headline: Witty can never probe certain
        // addresses. Verify both directions of `can_generate` and count
        // the deficiency on a sample.
        let mut w = WittyPrng::new(99);
        for _ in 0..100 {
            let t = w.next_target();
            assert!(
                WittyPrng::can_generate(t),
                "{t} was generated but deemed unreachable"
            );
        }
        let mut unreachable = 0u32;
        let sample = 2_000u32;
        for i in 0..sample {
            let probe = Ip::new(i.wrapping_mul(0x9e37_79b9));
            if !WittyPrng::can_generate(probe) {
                unreachable += 1;
            }
        }
        let frac = f64::from(unreachable) / f64::from(sample);
        // Kumar et al. found roughly 10% of the address space is never
        // probed by any Witty instance; the exact reachability check
        // lands right there.
        assert!(
            (0.05..0.2).contains(&frac),
            "expected ~10% unreachable, got {frac}"
        );
    }

    #[test]
    fn rand16_is_high_half_of_state() {
        let mut w = WittyPrng::new(3);
        let expected = (3u32.wrapping_mul(MSVCRT_MUL).wrapping_add(MSVCRT_INC)) >> 16;
        assert_eq!(u32::from(w.rand16()), expected);
    }
}
