//! Arbitrary (non-aligned) address ranges and their CIDR decomposition.
//!
//! Bot hit-lists and filter configurations are often expressed as
//! `start–end` ranges rather than aligned prefixes; routing machinery
//! (and this workspace's [`Prefix`]-based types) wants CIDR. This module
//! provides the classical minimal decomposition.

use std::fmt;

use crate::ip::Ip;
use crate::prefix::Prefix;

/// An inclusive, possibly unaligned address range `[start, end]`.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::{Ip, IpRange};
///
/// let r = IpRange::new(Ip::from_octets(10, 0, 0, 3), Ip::from_octets(10, 0, 0, 10)).unwrap();
/// assert_eq!(r.len(), 8);
/// assert!(r.contains(Ip::from_octets(10, 0, 0, 7)));
/// // minimal CIDR cover: 10.0.0.3/32 10.0.0.4/30 10.0.0.8/31 10.0.0.10/32
/// assert_eq!(r.to_prefixes().len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IpRange {
    start: Ip,
    end: Ip,
}

impl IpRange {
    /// Creates the inclusive range `[start, end]`; `None` if
    /// `start > end`.
    pub fn new(start: Ip, end: Ip) -> Option<IpRange> {
        (start <= end).then_some(IpRange { start, end })
    }

    /// The whole IPv4 space as a range.
    pub const ALL: IpRange = IpRange {
        start: Ip::MIN,
        end: Ip::MAX,
    };

    /// First address.
    pub fn start(&self) -> Ip {
        self.start
    }

    /// Last address.
    pub fn end(&self) -> Ip {
        self.end
    }

    /// Number of addresses (≥ 1).
    pub fn len(&self) -> u64 {
        u64::from(self.end.value()) - u64::from(self.start.value()) + 1
    }

    /// Ranges are never empty (construction forbids it); provided for
    /// API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if `ip` lies inside the range.
    pub fn contains(&self, ip: Ip) -> bool {
        self.start <= ip && ip <= self.end
    }

    /// The minimal list of disjoint CIDR prefixes exactly covering the
    /// range, in address order (the classical greedy: repeatedly take
    /// the largest aligned block that fits).
    pub fn to_prefixes(&self) -> Vec<Prefix> {
        let mut out = Vec::new();
        let mut cur = u64::from(self.start.value());
        let end = u64::from(self.end.value());
        while cur <= end {
            // largest power-of-two block aligned at `cur`…
            let align = if cur == 0 { 64 } else { cur.trailing_zeros() };
            // …that also fits in the remaining span
            let remaining = end - cur + 1;
            let fit = 63 - remaining.leading_zeros();
            let bits = align.min(fit).min(32);
            let len = (32 - bits) as u8;
            out.push(
                Prefix::new(Ip::new(cur as u32), len).expect("alignment guarantees no host bits"), // hotspots-lint: allow(panic-path) reason="alignment guarantees no host bits"
            );
            cur += 1u64 << bits;
        }
        out
    }
}

impl fmt::Display for IpRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.start, self.end)
    }
}

impl From<Prefix> for IpRange {
    fn from(p: Prefix) -> IpRange {
        IpRange {
            start: p.base(),
            end: p.last_ip(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ip(s: &str) -> Ip {
        s.parse().unwrap()
    }

    #[test]
    fn construction_rules() {
        assert!(IpRange::new(ip("2.0.0.0"), ip("1.0.0.0")).is_none());
        let single = IpRange::new(ip("1.2.3.4"), ip("1.2.3.4")).unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(IpRange::ALL.len(), 1 << 32);
    }

    #[test]
    fn aligned_range_is_one_prefix() {
        let r: IpRange = "10.0.0.0/8".parse::<Prefix>().unwrap().into();
        assert_eq!(r.to_prefixes(), vec!["10.0.0.0/8".parse().unwrap()]);
        assert_eq!(IpRange::ALL.to_prefixes(), vec![Prefix::ALL]);
    }

    #[test]
    fn classic_decomposition() {
        let r = IpRange::new(ip("10.0.0.3"), ip("10.0.0.10")).unwrap();
        let cover: Vec<String> = r.to_prefixes().iter().map(|p| p.to_string()).collect();
        assert_eq!(
            cover,
            ["10.0.0.3/32", "10.0.0.4/30", "10.0.0.8/31", "10.0.0.10/32"]
        );
    }

    #[test]
    fn decomposition_at_space_edges() {
        let top = IpRange::new(ip("255.255.255.254"), Ip::MAX).unwrap();
        assert_eq!(
            top.to_prefixes(),
            vec!["255.255.255.254/31".parse().unwrap()]
        );
        let bottom = IpRange::new(Ip::MIN, ip("0.0.0.2")).unwrap();
        let cover: Vec<String> = bottom.to_prefixes().iter().map(|p| p.to_string()).collect();
        assert_eq!(cover, ["0.0.0.0/31", "0.0.0.2/32"]);
    }

    proptest! {
        #[test]
        fn decomposition_covers_exactly(a in any::<u32>(), b in any::<u32>()) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let r = IpRange::new(Ip::new(lo), Ip::new(hi)).unwrap();
            let cover = r.to_prefixes();
            // disjoint, ordered, total size matches
            let total: u64 = cover.iter().map(|p| p.size()).sum();
            prop_assert_eq!(total, r.len());
            for w in cover.windows(2) {
                prop_assert!(w[0].last_ip() < w[1].base());
            }
            prop_assert_eq!(cover.first().unwrap().base(), r.start());
            prop_assert_eq!(cover.last().unwrap().last_ip(), r.end());
        }

        #[test]
        fn decomposition_is_minimal_enough(a in any::<u32>(), span in 0u32..100_000) {
            // a cover of an N-address range never needs more than
            // 2·log2(N)+2 prefixes
            let lo = a;
            let hi = a.saturating_add(span);
            let r = IpRange::new(Ip::new(lo), Ip::new(hi)).unwrap();
            let bound = 2 * (64 - r.len().leading_zeros()) as usize + 2;
            prop_assert!(r.to_prefixes().len() <= bound);
        }

        #[test]
        fn membership_agrees_with_cover(a in any::<u32>(), b in any::<u32>(), probe in any::<u32>()) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let r = IpRange::new(Ip::new(lo), Ip::new(hi)).unwrap();
            let ip = Ip::new(probe);
            let in_cover = r.to_prefixes().iter().any(|p| p.contains(ip));
            prop_assert_eq!(r.contains(ip), in_cover);
        }
    }
}
