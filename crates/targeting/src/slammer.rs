//! The Slammer worm as a [`TargetGenerator`].

use hotspots_ipspace::Ip;
use hotspots_prng::{SlammerPrng, SqlsortDll};

use crate::TargetGenerator;

/// A Slammer instance: a thin [`TargetGenerator`] wrapper around
/// [`SlammerPrng`].
///
/// All the interesting structure lives in the PRNG itself — the flawed
/// increments decompose the state space into 64 cycles (see
/// [`hotspots_prng::cycles`]), so whole trajectories are determined by
/// which cycle the seed lands on.
///
/// # Examples
///
/// ```
/// use hotspots_prng::SqlsortDll;
/// use hotspots_targeting::{SlammerScanner, TargetGenerator};
///
/// let mut worm = SlammerScanner::new(SqlsortDll::Gold, 0xbeef);
/// let t = worm.next_target();
/// # let _ = t;
/// assert_eq!(worm.strategy(), "slammer");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlammerScanner {
    prng: SlammerPrng,
}

impl SlammerScanner {
    /// Creates an instance on a host running the given `sqlsort.dll`
    /// version, seeded with `seed`.
    pub const fn new(dll: SqlsortDll, seed: u32) -> SlammerScanner {
        SlammerScanner {
            prng: SlammerPrng::new(dll, seed),
        }
    }

    /// The DLL version driving the flawed increment.
    pub const fn dll(&self) -> SqlsortDll {
        self.prng.dll()
    }

    /// The current LCG state.
    pub const fn state(&self) -> u32 {
        self.prng.state()
    }
}

impl TargetGenerator for SlammerScanner {
    #[inline]
    fn next_target(&mut self) -> Ip {
        self.prng.next_target()
    }

    fn fill_targets(&mut self, n: usize, out: &mut Vec<Ip>) {
        self.prng.fill_targets(n, out);
    }

    fn strategy(&self) -> &'static str {
        "slammer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets;
    use hotspots_prng::cycles::AffineMap;

    #[test]
    fn wraps_slammer_prng_exactly() {
        let mut scanner = SlammerScanner::new(SqlsortDll::Sp2, 7);
        let mut raw = SlammerPrng::new(SqlsortDll::Sp2, 7);
        for _ in 0..64 {
            assert_eq!(scanner.next_target(), raw.next_target());
        }
    }

    #[test]
    fn trajectory_stays_on_one_cycle() {
        let map = AffineMap::slammer(SqlsortDll::Gold);
        let seed = 0x0abc_def1;
        let id = map.cycle_id(map.apply(seed)).unwrap();
        let mut worm = SlammerScanner::new(SqlsortDll::Gold, seed);
        for t in targets(&mut worm, 1000) {
            assert_eq!(map.cycle_id(t.to_le_state()).unwrap(), id);
        }
    }

    #[test]
    fn short_cycle_seed_behaves_like_targeted_dos() {
        // Find a seed on a tiny cycle (valuation 28 → length 4) and verify
        // the instance cycles over exactly 4 addresses.
        let map = AffineMap::slammer(SqlsortDll::Sp3);
        let c = map.fixed_point().unwrap();
        let seed = c.wrapping_add(1 << 28);
        assert_eq!(map.cycle_length(seed).unwrap(), 4);
        let mut worm = SlammerScanner::new(SqlsortDll::Sp3, seed);
        let seen: std::collections::HashSet<Ip> = targets(&mut worm, 400).into_iter().collect();
        assert_eq!(seen.len(), 4);
    }
}
