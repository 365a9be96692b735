//! Fast destination→block lookup over disjoint prefixes.

use hotspots_ipspace::{Ip, Prefix};

/// An immutable index over disjoint prefixes answering "which block
/// contains this address" — the per-probe hot path of every telescope.
///
/// A bitmap of every /16 some block touches sits in front of the search,
/// so an address outside those /16s — most probes, for a telescope — is
/// answered by one bit test. An address inside one is answered by a
/// popcount rank, which names the run of spans that reach into its /16,
/// and a search of that run alone: one comparison when the /16 holds a
/// single block, as it does for a sensor /24 per occupied /16.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Ip;
/// use hotspots_telescope::BlockIndex;
///
/// let idx = BlockIndex::new(vec![
///     "10.0.0.0/24".parse().unwrap(),
///     "10.0.2.0/24".parse().unwrap(),
/// ]);
/// assert_eq!(idx.find(Ip::from_octets(10, 0, 2, 9)), Some(1));
/// assert_eq!(idx.find(Ip::from_octets(10, 0, 1, 0)), None);
/// ```
#[derive(Debug, Clone)]
pub struct BlockIndex {
    /// (start, end-inclusive, original position), sorted by start.
    spans: Vec<(u32, u32, u32)>,
    /// One bit per /16 (8 KiB): bit `i % 64` of word `i / 64` is set
    /// when a block touches the /16 whose number is `i`.
    slash16s: Box<[u64]>,
    /// Touched-/16 count in all bitmap words before word `w`.
    slash16_rank: Box<[u32]>,
    /// Per touched /16, ascending: the spans that reach into it, as a
    /// range of `spans`.
    reach: Vec<(u32, u32)>,
}

impl BlockIndex {
    /// Builds an index. Block order is preserved: `find` returns positions
    /// into the original `blocks` vector.
    ///
    /// # Panics
    ///
    /// Panics if any two blocks overlap.
    pub fn new(blocks: Vec<Prefix>) -> BlockIndex {
        let mut spans: Vec<(u32, u32, u32)> = blocks
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    p.base().value(),
                    p.last_ip().value(),
                    u32::try_from(i).expect("fewer than 2^32 blocks"), // hotspots-lint: allow(panic-path) reason="deployments are bounded far below 2^32 blocks"
                )
            })
            .collect();
        spans.sort_unstable_by_key(|s| s.0);
        for w in spans.windows(2) {
            assert!(
                w[0].1 < w[1].0,
                "blocks {} and {} overlap",
                blocks[w[0].2 as usize],
                blocks[w[1].2 as usize]
            );
        }
        let mut slash16s = vec![0u64; 1 << 10].into_boxed_slice();
        let mut slash16_rank = vec![0u32; 1 << 10].into_boxed_slice();
        let mut reach: Vec<(u32, u32)> = Vec::new();
        let mut last = None;
        // Spans are sorted and disjoint, so the /16s they touch come in
        // ascending order; a /16 shared with the previous span extends
        // that /16's range, and every /16 already touched lies in a
        // bitmap word at or before a new one's.
        let mut ranked = 0;
        for (k, &(start, end, _)) in (0u32..).zip(&spans) {
            for i in (start >> 16)..=(end >> 16) {
                match reach.last_mut() {
                    Some(range) if last == Some(i) => range.1 = k + 1,
                    _ => {
                        let w = (i >> 6) as usize;
                        slash16_rank[ranked..=w].fill(reach.len() as u32);
                        ranked = w + 1;
                        slash16s[w] |= 1 << (i & 63);
                        reach.push((k, k + 1));
                    }
                }
                last = Some(i);
            }
        }
        slash16_rank[ranked..].fill(reach.len() as u32);
        BlockIndex {
            spans,
            slash16s,
            slash16_rank,
            reach,
        }
    }

    /// Returns the original position of the block containing `ip`, if any.
    #[inline]
    pub fn find(&self, ip: Ip) -> Option<usize> {
        let v = ip.value();
        let slash16 = (v >> 16) as usize;
        let word = self.slash16s[slash16 >> 6];
        let bit = 1u64 << (slash16 & 63);
        if word & bit == 0 {
            return None;
        }
        let rank = self.slash16_rank[slash16 >> 6] + (word & (bit - 1)).count_ones();
        let (lo, hi) = self.reach[rank as usize];
        let spans = &self.spans[lo as usize..hi as usize];
        let i = spans.partition_point(|s| s.0 <= v);
        if i == 0 {
            return None;
        }
        let (_, end, pos) = spans[i - 1];
        (v <= end).then_some(pos as usize)
    }

    /// Number of indexed blocks.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn find_hits_and_misses() {
        let idx = BlockIndex::new(vec![p("192.0.2.0/24"), p("10.0.0.0/8"), p("198.18.0.0/15")]);
        assert_eq!(idx.find(Ip::from_octets(10, 200, 0, 1)), Some(1));
        assert_eq!(idx.find(Ip::from_octets(192, 0, 2, 255)), Some(0));
        assert_eq!(idx.find(Ip::from_octets(198, 19, 255, 255)), Some(2));
        assert_eq!(idx.find(Ip::from_octets(198, 20, 0, 0)), None);
        assert_eq!(idx.find(Ip::MIN), None);
        assert_eq!(idx.find(Ip::MAX), None);
    }

    #[test]
    fn empty_index_finds_nothing() {
        let idx = BlockIndex::new(vec![]);
        assert!(idx.is_empty());
        assert_eq!(idx.find(Ip::from_octets(1, 2, 3, 4)), None);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_blocks_rejected() {
        let _ = BlockIndex::new(vec![p("10.0.0.0/8"), p("10.255.0.0/16")]);
    }

    #[test]
    fn boundaries_are_inclusive() {
        let idx = BlockIndex::new(vec![p("10.0.0.0/24")]);
        assert_eq!(idx.find(Ip::from_octets(10, 0, 0, 0)), Some(0));
        assert_eq!(idx.find(Ip::from_octets(10, 0, 0, 255)), Some(0));
        assert_eq!(idx.find(Ip::from_octets(10, 0, 1, 0)), None);
        assert_eq!(idx.find(Ip::from_octets(9, 255, 255, 255)), None);
    }

    proptest! {
        #[test]
        fn agrees_with_linear_scan(v in any::<u32>(), near in any::<u32>()) {
            // A /15 and a /14 spanning several /16s (the /14 between
            // /24s in the /16s just before and after it), many /24s in
            // one /16, and blocks smaller than a /16 sharing /16s with
            // each other and with unmonitored space.
            let mut blocks = vec![
                p("10.0.0.0/8"),
                p("131.107.0.0/20"),
                p("192.40.16.0/22"),
                p("96.0.0.0/8"),
                p("198.18.0.0/15"),
                p("131.107.64.0/24"),
                p("66.66.0.0/24"),
                p("66.66.255.252/30"),
                p("203.0.113.7/32"),
                p("44.4.0.0/14"),
                p("44.8.0.0/24"),
                p("44.3.255.0/24"),
            ];
            let slash24 = |c: u8| Prefix::containing(Ip::from_octets(77, 7, c, 0), 24);
            blocks.extend((0..=255u8).step_by(3).map(slash24));
            let idx = BlockIndex::new(blocks.clone());
            // Uniform addresses rarely land in the small blocks' /16s,
            // so every block's /16 gets an address too.
            let sixteens = blocks.iter().map(|b| (b.base().value() & 0xffff_0000) | (near & 0xffff));
            for ip in std::iter::once(v).chain(sixteens).map(Ip::new) {
                let linear = blocks.iter().position(|b| b.contains(ip));
                prop_assert_eq!(idx.find(ip), linear, "{}", ip);
            }
        }
    }
}
