//! Generic mask/weight local-preference targeting.

use hotspots_ipspace::Ip;
use hotspots_prng::Prng32;

use crate::TargetGenerator;

/// One row of a local-preference table: with relative `weight`, keep the
/// bits of the source address selected by `mask` and randomize the rest.
///
/// `mask = 0` means "completely random"; `mask = 0xffff_0000` means "stay
/// in my /16".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreferenceEntry {
    /// Bits of the source address to preserve.
    pub mask: u32,
    /// Relative selection weight (must be > 0).
    pub weight: u32,
}

/// A worm whose targeting keeps a weighted mixture of source-address
/// prefixes — the general form of "local preference" the paper describes
/// as a deliberate algorithmic factor (CodeRedII and Nimda both use
/// instances of this scheme).
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Ip;
/// use hotspots_prng::SplitMix;
/// use hotspots_targeting::{LocalPreference, PreferenceEntry, TargetGenerator};
///
/// // 50% same /16, 50% anywhere
/// let worm = LocalPreference::new(
///     Ip::from_octets(192, 168, 1, 5),
///     vec![
///         PreferenceEntry { mask: 0xffff_0000, weight: 1 },
///         PreferenceEntry { mask: 0, weight: 1 },
///     ],
///     SplitMix::new(11),
/// );
/// # let mut worm = worm;
/// let t = worm.next_target();
/// # let _ = t;
/// ```
#[derive(Debug, Clone)]
pub struct LocalPreference<P> {
    source: Ip,
    entries: Vec<PreferenceEntry>,
    total_weight: u64,
    prng: P,
}

impl<P: Prng32> LocalPreference<P> {
    /// Creates a local-preference scanner for an infected host at
    /// `source`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or any weight is zero.
    pub fn new(source: Ip, entries: Vec<PreferenceEntry>, prng: P) -> LocalPreference<P> {
        assert!(!entries.is_empty(), "preference table must be non-empty");
        assert!(
            entries.iter().all(|e| e.weight > 0),
            "preference weights must be positive"
        );
        let total_weight = entries.iter().map(|e| u64::from(e.weight)).sum();
        LocalPreference {
            source,
            entries,
            total_weight,
            prng,
        }
    }

    /// The infected host's own address.
    pub fn source(&self) -> Ip {
        self.source
    }

    /// The preference table.
    pub fn entries(&self) -> &[PreferenceEntry] {
        &self.entries
    }

    fn pick_mask(&mut self) -> u32 {
        let r = (u64::from(self.prng.next_u32()) * self.total_weight) >> 32;
        let mut acc = 0u64;
        for e in &self.entries {
            acc += u64::from(e.weight);
            if r < acc {
                return e.mask;
            }
        }
        self.entries.last().expect("non-empty table").mask // hotspots-lint: allow(panic-path) reason="routing table is a non-empty static literal"
    }
}

impl<P: Prng32> TargetGenerator for LocalPreference<P> {
    fn next_target(&mut self) -> Ip {
        let mask = self.pick_mask();
        let random = self.prng.next_u32();
        Ip::new((self.source.value() & mask) | (random & !mask))
    }

    fn fill_targets(&mut self, n: usize, out: &mut Vec<Ip>) {
        out.reserve(n);
        for _ in 0..n {
            let mask = self.pick_mask();
            let random = self.prng.next_u32();
            out.push(Ip::new((self.source.value() & mask) | (random & !mask)));
        }
    }

    fn strategy(&self) -> &'static str {
        "local-preference"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspots_prng::SplitMix;

    fn entry(mask: u32, weight: u32) -> PreferenceEntry {
        PreferenceEntry { mask, weight }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_table_panics() {
        let _ = LocalPreference::new(Ip::MIN, vec![], SplitMix::new(0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_panics() {
        let _ = LocalPreference::new(Ip::MIN, vec![entry(0, 0)], SplitMix::new(0));
    }

    #[test]
    fn full_mask_always_targets_source() {
        let src = Ip::from_octets(1, 2, 3, 4);
        let mut worm = LocalPreference::new(src, vec![entry(u32::MAX, 1)], SplitMix::new(9));
        for _ in 0..20 {
            assert_eq!(worm.next_target(), src);
        }
    }

    #[test]
    fn slash16_mask_preserves_top_octets() {
        let src = Ip::from_octets(172, 30, 9, 9);
        let mut worm = LocalPreference::new(src, vec![entry(0xffff_0000, 1)], SplitMix::new(2));
        for _ in 0..200 {
            let t = worm.next_target();
            assert_eq!(&t.octets()[..2], &[172, 30]);
        }
    }

    #[test]
    fn weights_control_mixture() {
        // 3:1 in favor of staying in the /8
        let src = Ip::from_octets(10, 0, 0, 1);
        let mut worm = LocalPreference::new(
            src,
            vec![entry(0xff00_0000, 3), entry(0, 1)],
            SplitMix::new(31),
        );
        let n = 40_000;
        let local = (0..n)
            .filter(|_| worm.next_target().octets()[0] == 10)
            .count();
        let frac = local as f64 / n as f64;
        // 3/4 stay local plus 1/4 * 1/256 random accidents
        assert!((0.72..0.79).contains(&frac), "local fraction {frac}");
    }

    #[test]
    fn deterministic_per_seed() {
        let src = Ip::from_octets(10, 0, 0, 1);
        let table = vec![entry(0xff00_0000, 1), entry(0, 1)];
        let mut a = LocalPreference::new(src, table.clone(), SplitMix::new(6));
        let mut b = LocalPreference::new(src, table, SplitMix::new(6));
        for _ in 0..64 {
            assert_eq!(a.next_target(), b.next_target());
        }
    }
}
