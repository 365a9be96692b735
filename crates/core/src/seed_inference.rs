//! Blaster seed forensics: from observed hotspots back to boot times.
//!
//! Section 4.2.2 of the paper inverts the Blaster pipeline: take the /24
//! ranges that observed the most Blaster sources, enumerate
//! `GetTickCount()` seeds from 1,000 to 10,000,000 (boot times of 1 s to
//! 2.8 h), and map each seed to its scanning start address. Seeds whose
//! start lands just below a hot sensor are the *probable* seeds; the
//! paper found they imply boot times of about 1–20 minutes, centered on
//! 4–5 minutes, while cold /24s map back to implausible boot times of
//! hours to days.

use hotspots_ipspace::{Ip, Prefix};
use hotspots_prng::entropy::TickCount;
use hotspots_targeting::BlasterScanner;

/// The tick range the paper searched: 1,000 ms to 10,000,000 ms
/// (1 second to ≈ 2.8 hours of uptime).
pub const PAPER_TICK_RANGE: std::ops::Range<u32> = 1_000..10_000_000;

/// Whether a sequential scan starting at `start` and covering `len`
/// addresses (with wraparound) intersects `block`.
///
/// # Examples
///
/// ```
/// use hotspots::seed_inference::scan_covers;
/// use hotspots_ipspace::Ip;
///
/// let block = "10.0.1.0/24".parse().unwrap();
/// assert!(scan_covers(Ip::from_octets(10, 0, 0, 200), 200, block));
/// assert!(!scan_covers(Ip::from_octets(10, 0, 0, 200), 10, block));
/// ```
pub fn scan_covers(start: Ip, len: u64, block: Prefix) -> bool {
    if len == 0 {
        return false;
    }
    if len >= 1 << 32 {
        return true;
    }
    let s = u64::from(start.value());
    let e = s + len - 1; // inclusive end, may exceed 2^32 (wraparound)
    let b0 = u64::from(block.base().value());
    let b1 = u64::from(block.last_ip().value());
    // unwrapped overlap, or overlap after wrapping the scan tail
    let overlaps = |lo: u64, hi: u64| lo <= b1 && b0 <= hi;
    if e < 1 << 32 {
        overlaps(s, e)
    } else {
        overlaps(s, (1 << 32) - 1) || overlaps(0, e - (1 << 32))
    }
}

/// One inferred seed: the tick count, the start address it implies, and
/// the boot time it corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferredSeed {
    /// The candidate `GetTickCount()` value.
    pub tick: u32,
    /// The scanning start address Blaster derives from it.
    pub start: Ip,
}

impl InferredSeed {
    /// The boot/uptime duration the tick count corresponds to.
    pub fn boot_time(&self) -> TickCount {
        TickCount::from_millis(self.tick)
    }

    /// The paper's plausibility judgment: launch delays between 30 s
    /// (a fast reboot) and 30 min are consistent with real machine
    /// behavior; hours-to-days uptimes make the seed an unlikely
    /// explanation.
    pub fn is_plausible_boot(&self) -> bool {
        let secs = self.boot_time().as_secs_f64();
        (25.0..=1_800.0).contains(&secs)
    }
}

/// Searches `ticks` for seeds whose Blaster scan, starting from the seed's
/// derived start address and covering `scan_len` addresses, would reach
/// `block`. This is the paper's seed↔hotspot correlation, forward-checked
/// exactly (no sampling): the result is every tick in the range that
/// explains traffic at `block`.
///
/// `source` is the infected host's own address (it matters only for the
/// 40% local branch).
///
/// # Examples
///
/// ```
/// use hotspots::seed_inference::{candidate_seeds, scan_covers};
/// use hotspots_ipspace::Ip;
///
/// let block = "100.0.0.0/24".parse().unwrap();
/// let src = Ip::from_octets(9, 9, 9, 9);
/// let seeds = candidate_seeds(30_000..40_000, src, 1 << 16, block);
/// for s in &seeds {
///     assert!(scan_covers(s.start, 1 << 16, block));
/// }
/// ```
pub fn candidate_seeds(
    ticks: std::ops::Range<u32>,
    source: Ip,
    scan_len: u64,
    block: Prefix,
) -> Vec<InferredSeed> {
    ticks
        .filter_map(|tick| {
            let start = BlasterScanner::start_for_seed(source, tick);
            scan_covers(start, scan_len, block).then_some(InferredSeed { tick, start })
        })
        .collect()
}

/// Summary of a seed-inference run over one hot block: how many candidate
/// seeds exist and what boot times they imply.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedInferenceSummary {
    /// The block whose observations are being explained.
    pub block: Prefix,
    /// Number of candidate seeds found.
    pub candidates: usize,
    /// Median implied boot time (seconds), if any candidates exist.
    pub median_boot_secs: Option<f64>,
    /// Fraction of candidates with plausible boot times.
    pub plausible_fraction: f64,
}

/// Runs [`candidate_seeds`] and summarizes the implied boot times.
pub fn summarize_block(
    ticks: std::ops::Range<u32>,
    source: Ip,
    scan_len: u64,
    block: Prefix,
) -> SeedInferenceSummary {
    let seeds = candidate_seeds(ticks, source, scan_len, block);
    let mut boots: Vec<f64> = seeds.iter().map(|s| s.boot_time().as_secs_f64()).collect();
    boots.sort_by(f64::total_cmp);
    let plausible = seeds.iter().filter(|s| s.is_plausible_boot()).count();
    SeedInferenceSummary {
        block,
        candidates: seeds.len(),
        median_boot_secs: (!boots.is_empty()).then(|| boots[boots.len() / 2]),
        plausible_fraction: if seeds.is_empty() {
            0.0
        } else {
            plausible as f64 / seeds.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SRC: Ip = Ip::from_octets(7, 7, 7, 7);

    #[test]
    fn scan_covers_basic_cases() {
        let block: Prefix = "10.0.1.0/24".parse().unwrap();
        // starts inside the block
        assert!(scan_covers(Ip::from_octets(10, 0, 1, 50), 1, block));
        // ends exactly at the block's first address
        assert!(scan_covers(Ip::from_octets(10, 0, 0, 0), 257, block));
        assert!(!scan_covers(Ip::from_octets(10, 0, 0, 0), 256, block));
        // starts past the block
        assert!(!scan_covers(Ip::from_octets(10, 0, 2, 0), 1000, block));
        // zero-length scans cover nothing
        assert!(!scan_covers(Ip::from_octets(10, 0, 1, 0), 0, block));
    }

    #[test]
    fn scan_covers_wraparound() {
        let low_block: Prefix = "0.0.0.0/24".parse().unwrap();
        let near_top = Ip::new(u32::MAX - 10);
        assert!(scan_covers(near_top, 20, low_block));
        assert!(!scan_covers(near_top, 5, low_block));
        // full-space scans cover everything
        assert!(scan_covers(
            Ip::from_octets(50, 0, 0, 0),
            1 << 32,
            low_block
        ));
    }

    #[test]
    fn candidate_seeds_forward_consistency() {
        // every returned seed must actually produce a covering scan
        let block: Prefix = "61.0.0.0/16".parse().unwrap();
        let seeds = candidate_seeds(1_000..200_000, SRC, 1 << 20, block);
        for s in &seeds {
            assert_eq!(BlasterScanner::start_for_seed(SRC, s.tick), s.start);
            assert!(scan_covers(s.start, 1 << 20, block));
        }
    }

    #[test]
    fn hot_block_has_seeds_cold_block_fewer() {
        // Build ground truth: collect where seeds in the plausible boot
        // band actually start, pick a hot /16 from them, and a /16 no
        // seed reaches. The hot block must yield strictly more
        // candidates.
        let scan_len = 1u64 << 16;
        let mut per16: std::collections::HashMap<u16, u32> = std::collections::HashMap::new();
        for tick in (30_000..90_000u32).step_by(7) {
            let start = BlasterScanner::start_for_seed(SRC, tick);
            let key = (start.value() >> 16) as u16;
            *per16.entry(key).or_insert(0) += 1;
        }
        let (&hot16, _) = per16.iter().max_by_key(|(_, &c)| c).unwrap();
        let hot_block = Prefix::containing(Ip::new(u32::from(hot16) << 16), 16);
        // a /16 just outside any observed start neighborhood
        let cold16 = (0u16..u16::MAX)
            .find(|k| {
                !per16.contains_key(k)
                    && !per16.contains_key(&k.wrapping_sub(1))
                    && !per16.contains_key(&k.wrapping_add(1))
            })
            .unwrap();
        let cold_block = Prefix::containing(Ip::new(u32::from(cold16) << 16), 16);

        let hot = candidate_seeds(30_000..90_000, SRC, scan_len, hot_block);
        let cold = candidate_seeds(30_000..90_000, SRC, scan_len, cold_block);
        assert!(
            hot.len() > cold.len(),
            "hot {} vs cold {}",
            hot.len(),
            cold.len()
        );
        assert!(!hot.is_empty());
    }

    #[test]
    fn plausibility_band_matches_paper() {
        let half_minute = InferredSeed {
            tick: 30_000,
            start: Ip::MIN,
        };
        let five_minutes = InferredSeed {
            tick: 300_000,
            start: Ip::MIN,
        };
        let two_days = InferredSeed {
            tick: 172_800_000,
            start: Ip::MIN,
        };
        assert!(half_minute.is_plausible_boot());
        assert!(five_minutes.is_plausible_boot());
        assert!(!two_days.is_plausible_boot());
    }

    #[test]
    fn summarize_block_aggregates() {
        let block: Prefix = "61.0.0.0/8".parse().unwrap();
        let summary = summarize_block(30_000..60_000, SRC, 1 << 24, block);
        assert_eq!(summary.block, block);
        if summary.candidates > 0 {
            let median = summary.median_boot_secs.unwrap();
            assert!((30.0..=60.0).contains(&median));
            assert!(summary.plausible_fraction > 0.99);
        }
    }

    proptest! {
        #[test]
        fn scan_covers_agrees_with_naive_small(start in any::<u32>(), len in 1u64..512) {
            let block: Prefix = "128.10.4.0/24".parse().unwrap();
            let fast = scan_covers(Ip::new(start), len, block);
            let naive = (0..len).any(|i| block.contains(Ip::new(start.wrapping_add(i as u32))));
            prop_assert_eq!(fast, naive);
        }
    }
}
