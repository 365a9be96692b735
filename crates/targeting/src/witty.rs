//! The Witty worm as a [`TargetGenerator`].

use hotspots_ipspace::Ip;
use hotspots_prng::WittyPrng;

use crate::TargetGenerator;

/// A Witty instance: the 16-bit-output LCG walk
/// ([`WittyPrng`]).
///
/// Witty's hotspot structure differs from Slammer's: instead of trapping
/// each host on a private cycle, it makes *every* host walk the same
/// global sequence — and leaves a fixed ~10% of the address space
/// unreachable by any instance, ever.
///
/// # Examples
///
/// ```
/// use hotspots_targeting::{TargetGenerator, WittyScanner};
///
/// let mut worm = WittyScanner::new(0x1234);
/// let t = worm.next_target();
/// assert!(hotspots_prng::WittyPrng::can_generate(t));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WittyScanner {
    prng: WittyPrng,
}

impl WittyScanner {
    /// Creates an instance with the given seed.
    pub const fn new(seed: u32) -> WittyScanner {
        WittyScanner {
            prng: WittyPrng::new(seed),
        }
    }

    /// The raw LCG state.
    pub const fn state(&self) -> u32 {
        self.prng.state()
    }
}

impl TargetGenerator for WittyScanner {
    #[inline]
    fn next_target(&mut self) -> Ip {
        self.prng.next_target()
    }

    fn strategy(&self) -> &'static str {
        "witty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets;
    use hotspots_prng::WittyPrng;

    #[test]
    fn all_targets_are_reachable_set_members() {
        let mut worm = WittyScanner::new(42);
        for t in targets(&mut worm, 500) {
            assert!(WittyPrng::can_generate(t));
        }
    }

    #[test]
    fn unreachable_addresses_are_never_emitted() {
        // find an unreachable address, then confirm a long scan misses it
        let hole = (0u32..)
            .map(|i| Ip::new(i.wrapping_mul(0x9e37_79b9)))
            .find(|&ip| !WittyPrng::can_generate(ip))
            .expect("~10% of the space is unreachable");
        let mut worm = WittyScanner::new(7);
        assert!(targets(&mut worm, 200_000).iter().all(|&t| t != hole));
    }
}
