//! The Blaster worm's sequential scanner.

use hotspots_ipspace::Ip;
use hotspots_prng::MsvcrtRand;

use crate::TargetGenerator;

/// Blaster's scanner, reconstructed from the decompiled worm: pick a
/// starting /24 once, then scan **sequentially upward forever**.
///
/// The start is chosen with msvcrt's `rand()` seeded by
/// `GetTickCount()`:
///
/// * with probability 0.4 the worm starts near its own address — it takes
///   the local `a.b.c.d`, and if `c > 20` subtracts `rand() % 20` from
///   `c`, starting at `a.b.c'.0`;
/// * otherwise it starts at a random `a.b.c.0` with
///   `a = 1 + rand() % 254`, `b = rand() % 254`, `c = rand() % 254`.
///
/// Because the tick-count seed is nearly constant on rebooted machines
/// (see [`hotspots_prng::entropy`]), the *random* branch is not random at
/// all across the infected population: hosts that rebooted at similar
/// uptimes choose the same starting /24s, producing the clustered spikes
/// of the paper's Figure 1. Sequential scanning then smears each spike
/// upward through the address space.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Ip;
/// use hotspots_targeting::{BlasterScanner, TargetGenerator};
///
/// let mut worm = BlasterScanner::from_tick_count(Ip::from_octets(10, 0, 0, 5), 30_000);
/// let first = worm.next_target();
/// let second = worm.next_target();
/// assert_eq!(second, first.wrapping_add(1)); // strictly sequential
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlasterScanner {
    start: Ip,
    cursor: Ip,
}

impl BlasterScanner {
    /// Creates a Blaster instance on host `source` whose
    /// `GetTickCount()` returned `tick_count` at launch.
    pub fn from_tick_count(source: Ip, tick_count: u32) -> BlasterScanner {
        let start = Self::start_for_seed(source, tick_count);
        BlasterScanner {
            start,
            cursor: start,
        }
    }

    /// The start address Blaster derives from a given seed — the forward
    /// direction of the paper's seed↔hotspot correlation (its inverse
    /// lives in `hotspots::seed_inference`).
    pub fn start_for_seed(source: Ip, tick_count: u32) -> Ip {
        let mut rng = MsvcrtRand::with_seed(tick_count);
        let local = rng.rand_mod(10) >= 6; // 40% local, 60% random
        let [a, b, c] = if local {
            let [a, b, mut c, _] = source.octets();
            if c > 20 {
                c -= rng.rand_mod(20) as u8;
            }
            [a, b, c]
        } else {
            [
                (1 + rng.rand_mod(254)) as u8,
                rng.rand_mod(254) as u8,
                rng.rand_mod(254) as u8,
            ]
        };
        Ip::from_octets(a, b, c, 0)
    }

    /// The chosen starting address.
    pub fn start(&self) -> Ip {
        self.start
    }

    /// The next address that will be probed.
    pub fn cursor(&self) -> Ip {
        self.cursor
    }
}

impl TargetGenerator for BlasterScanner {
    #[inline]
    fn next_target(&mut self) -> Ip {
        let t = self.cursor;
        self.cursor = self.cursor.wrapping_add(1);
        t
    }

    fn strategy(&self) -> &'static str {
        "blaster-sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const SRC: Ip = Ip::from_octets(141, 20, 99, 7);

    #[test]
    fn scan_is_strictly_sequential_and_wraps() {
        let mut worm = BlasterScanner {
            start: Ip::MAX,
            cursor: Ip::MAX,
        };
        assert_eq!(worm.next_target(), Ip::MAX);
        assert_eq!(worm.next_target(), Ip::MIN);
        assert_eq!(worm.next_target(), Ip::new(1));
    }

    #[test]
    fn start_is_on_a_slash24_boundary() {
        for tick in [1_000u32, 30_000, 31_000, 150_000, 9_999_999] {
            let s = BlasterScanner::start_for_seed(SRC, tick);
            assert_eq!(s.octets()[3], 0, "tick {tick} start {s}");
        }
    }

    #[test]
    fn local_branch_stays_near_source() {
        // Scan many seeds; the ~40% local picks must share a.b with SRC
        // and have c within 20 below the source's c.
        let mut local = 0u32;
        let total = 10_000u32;
        for tick in 0..total {
            let s = BlasterScanner::start_for_seed(SRC, tick);
            let o = s.octets();
            if o[0] == 141 && o[1] == 20 {
                local += 1;
                assert!(o[2] <= 99 && o[2] > 99 - 20, "c={} out of band", o[2]);
            }
        }
        let frac = f64::from(local) / f64::from(total);
        assert!((0.35..0.45).contains(&frac), "local fraction {frac}");
    }

    #[test]
    fn narrow_seed_band_restricts_start_set() {
        // The Figure-1 mechanism: hosts rebooting with tick counts in a
        // ±1s band around 30s can only ever choose from a tiny,
        // *predictable* set of starting /24s — at most one per tick value,
        // i.e. a few thousand out of the ~16.6M possible /24s.
        let band = 28_000..32_000u32;
        let mut starts: HashMap<Ip, u32> = HashMap::new();
        for tick in band.clone() {
            *starts
                .entry(BlasterScanner::start_for_seed(SRC, tick))
                .or_insert(0) += 1;
        }
        assert!(starts.len() as u32 <= band.end - band.start);
        let fraction_of_slash24s = starts.len() as f64 / f64::from(1u32 << 24);
        assert!(
            fraction_of_slash24s < 3e-4,
            "start set covers {fraction_of_slash24s} of /24 space"
        );
        // Two hosts with the same tick count collide on the same start —
        // the collision that builds Figure 1's spikes.
        for tick in band.step_by(997) {
            assert_eq!(
                BlasterScanner::start_for_seed(SRC, tick),
                BlasterScanner::start_for_seed(SRC, tick)
            );
        }
    }

    #[test]
    fn seed_to_start_is_deterministic() {
        let a = BlasterScanner::from_tick_count(SRC, 138_000);
        let b = BlasterScanner::from_tick_count(SRC, 138_000);
        assert_eq!(a.start(), b.start());
    }

    proptest! {
        #[test]
        fn start_octets_in_valid_ranges(tick in any::<u32>(), src in any::<u32>()) {
            let s = BlasterScanner::start_for_seed(Ip::new(src), tick);
            let o = s.octets();
            prop_assert!(o[3] == 0);
            // random branch: a in 1..=254; local branch: a = source's a
            prop_assert!(o[0] == Ip::new(src).octets()[0] || (1..=254).contains(&o[0]));
        }

        #[test]
        fn sequence_is_dense(tick in any::<u32>()) {
            let mut worm = BlasterScanner::from_tick_count(SRC, tick);
            let t0 = worm.next_target();
            for i in 1..50u32 {
                prop_assert_eq!(worm.next_target(), t0.wrapping_add(i));
            }
        }
    }
}
