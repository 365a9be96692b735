//! CIDR prefixes and iteration over their addresses and subnets.

use std::fmt;
use std::str::FromStr;

use crate::error::{ParsePrefixError, PrefixError};
use crate::ip::Ip;

/// A CIDR prefix: a power-of-two-aligned block of IPv4 addresses such as
/// `192.168.0.0/16`.
///
/// The base address is always canonical (host bits are zero); constructors
/// enforce this. The whole space is `0.0.0.0/0`.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::{Ip, Prefix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p: Prefix = "10.0.0.0/8".parse()?;
/// assert_eq!(p.size(), 1 << 24);
/// assert!(p.contains("10.255.0.1".parse()?));
/// assert!(!p.contains("11.0.0.0".parse()?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    base: Ip,
    len: u8,
}

impl Prefix {
    /// The entire IPv4 space, `0.0.0.0/0`.
    pub const ALL: Prefix = Prefix {
        base: Ip::MIN,
        len: 0,
    };

    /// Creates a prefix from a canonical base address and length.
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError::LengthOutOfRange`] if `len > 32` and
    /// [`PrefixError::HostBitsSet`] if `base` has bits set below the prefix
    /// boundary.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::{Ip, Prefix};
    ///
    /// assert!(Prefix::new(Ip::from_octets(10, 0, 0, 0), 8).is_ok());
    /// assert!(Prefix::new(Ip::from_octets(10, 0, 0, 1), 8).is_err());
    /// ```
    pub const fn new(base: Ip, len: u8) -> Result<Prefix, PrefixError> {
        if len > 32 {
            return Err(PrefixError::LengthOutOfRange { len });
        }
        let mask = Self::mask_for(len);
        if base.value() & !mask != 0 {
            return Err(PrefixError::HostBitsSet {
                base: base.value(),
                len,
            });
        }
        Ok(Prefix { base, len })
    }

    /// Creates the prefix of length `len` that contains `ip`, truncating
    /// host bits as needed.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::{Ip, Prefix};
    ///
    /// let p = Prefix::containing(Ip::from_octets(10, 1, 2, 3), 16);
    /// assert_eq!(p.to_string(), "10.1.0.0/16");
    /// ```
    pub fn containing(ip: Ip, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length {len} out of range");
        let mask = Self::mask_for(len);
        Prefix {
            base: Ip::new(ip.value() & mask),
            len,
        }
    }

    #[inline]
    const fn mask_for(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The canonical base (network) address.
    #[inline]
    pub const fn base(self) -> Ip {
        self.base
    }

    /// The prefix length in bits (`0..=32`).
    #[inline]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// Returns `true` only for the degenerate impossible case — a prefix
    /// always contains at least one address, so this is always `false`.
    /// Provided for clippy-friendly symmetry with [`Prefix::size`].
    #[inline]
    pub const fn is_empty(self) -> bool {
        false
    }

    /// The network mask as a 32-bit value.
    #[inline]
    pub const fn mask(self) -> u32 {
        Self::mask_for(self.len)
    }

    /// Number of addresses covered (`2^(32-len)`), as a `u64` because /0
    /// covers 2^32.
    #[inline]
    pub const fn size(self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// The last (highest) address in the prefix.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::Prefix;
    /// let p: Prefix = "10.0.0.0/30".parse().unwrap();
    /// assert_eq!(p.last_ip().to_string(), "10.0.0.3");
    /// ```
    #[inline]
    pub const fn last_ip(self) -> Ip {
        Ip::new(self.base.value() | !self.mask())
    }

    /// Returns `true` if `ip` falls inside the prefix.
    #[inline]
    pub const fn contains(self, ip: Ip) -> bool {
        ip.value() & self.mask() == self.base.value()
    }

    /// Returns `true` if `other` is fully contained in `self`
    /// (every prefix contains itself).
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::Prefix;
    /// let net: Prefix = "10.0.0.0/8".parse().unwrap();
    /// let sub: Prefix = "10.3.0.0/16".parse().unwrap();
    /// assert!(net.contains_prefix(sub));
    /// assert!(!sub.contains_prefix(net));
    /// ```
    #[inline]
    pub fn contains_prefix(self, other: Prefix) -> bool {
        other.len >= self.len && self.contains(other.base)
    }

    /// Returns `true` if the two prefixes share any address.
    #[inline]
    pub fn overlaps(self, other: Prefix) -> bool {
        self.contains_prefix(other) || other.contains_prefix(self)
    }

    /// The `index`-th address of the prefix (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.size()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::Prefix;
    /// let p: Prefix = "192.0.2.0/24".parse().unwrap();
    /// assert_eq!(p.nth(255).to_string(), "192.0.2.255");
    /// ```
    #[inline]
    pub fn nth(self, index: u64) -> Ip {
        assert!(
            index < self.size(),
            "address index {index} out of range for {self}"
        );
        Ip::new(self.base.value().wrapping_add(index as u32))
    }

    /// Iterates over every address in the prefix in ascending order.
    ///
    /// For a /0 this yields 2^32 items; use with care.
    pub fn iter(self) -> IpIter {
        IpIter {
            next: Some(self.base),
            last: self.last_ip(),
        }
    }

    /// Iterates over the sub-prefixes of length `sub_len` that tile this
    /// prefix, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `sub_len < self.len()` or `sub_len > 32`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::Prefix;
    /// let p: Prefix = "10.0.0.0/23".parse().unwrap();
    /// let subs: Vec<String> = p.subnets(24).map(|s| s.to_string()).collect();
    /// assert_eq!(subs, ["10.0.0.0/24", "10.0.1.0/24"]);
    /// ```
    pub fn subnets(self, sub_len: u8) -> SubnetIter {
        assert!(
            sub_len >= self.len && sub_len <= 32,
            "subnet length {sub_len} invalid for {self}"
        );
        SubnetIter {
            next_base: Some(self.base),
            last_base: Ip::new(self.last_ip().value() & Self::mask_for(sub_len)),
            sub_len,
        }
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base, self.len)
    }
}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Prefix, ParsePrefixError> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| ParsePrefixError::Length(s.to_owned()))?;
        let base: Ip = addr.parse()?;
        if len.is_empty() || len.len() > 2 || !len.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParsePrefixError::Length(len.to_owned()));
        }
        let len: u8 = len
            .parse()
            .map_err(|_| ParsePrefixError::Length(len.to_owned()))?;
        Ok(Prefix::new(base, len)?)
    }
}

impl From<Ip> for Prefix {
    /// A single address is the /32 prefix containing only itself.
    fn from(ip: Ip) -> Prefix {
        Prefix { base: ip, len: 32 }
    }
}

/// Iterator over the addresses of a [`Prefix`], produced by [`Prefix::iter`].
#[derive(Debug, Clone)]
pub struct IpIter {
    next: Option<Ip>,
    last: Ip,
}

impl Iterator for IpIter {
    type Item = Ip;

    fn next(&mut self) -> Option<Ip> {
        let cur = self.next?;
        self.next = if cur == self.last {
            None
        } else {
            Some(cur.wrapping_add(1))
        };
        Some(cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.next {
            None => (0, Some(0)),
            Some(next) => {
                let remaining = u64::from(self.last.value() - next.value()) + 1;
                let r = usize::try_from(remaining).unwrap_or(usize::MAX);
                (r, Some(r))
            }
        }
    }
}

impl ExactSizeIterator for IpIter {}

/// Iterator over sub-prefixes, produced by [`Prefix::subnets`].
#[derive(Debug, Clone)]
pub struct SubnetIter {
    next_base: Option<Ip>,
    last_base: Ip,
    sub_len: u8,
}

impl Iterator for SubnetIter {
    type Item = Prefix;

    fn next(&mut self) -> Option<Prefix> {
        let base = self.next_base?;
        let step = 1u64 << (32 - self.sub_len);
        self.next_base = if base == self.last_base {
            None
        } else {
            Some(base.wrapping_add(step as u32))
        };
        Some(Prefix {
            base,
            len: self.sub_len,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.next_base {
            None => (0, Some(0)),
            Some(next) => {
                let step = 1u64 << (32 - self.sub_len);
                let remaining = (u64::from(self.last_base.value() - next.value()) / step) + 1;
                let r = usize::try_from(remaining).unwrap_or(usize::MAX);
                (r, Some(r))
            }
        }
    }
}

impl ExactSizeIterator for SubnetIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_rejects_host_bits() {
        let err = Prefix::new(Ip::from_octets(10, 0, 0, 1), 8).unwrap_err();
        assert!(matches!(err, PrefixError::HostBitsSet { .. }));
    }

    #[test]
    fn new_rejects_long_lengths() {
        let err = Prefix::new(Ip::MIN, 33).unwrap_err();
        assert!(matches!(err, PrefixError::LengthOutOfRange { len: 33 }));
    }

    #[test]
    fn containing_truncates() {
        let p = Prefix::containing(Ip::from_octets(192, 168, 77, 3), 24);
        assert_eq!(p.to_string(), "192.168.77.0/24");
    }

    #[test]
    fn slash_zero_covers_everything() {
        assert_eq!(Prefix::ALL.size(), 1 << 32);
        assert!(Prefix::ALL.contains(Ip::MIN));
        assert!(Prefix::ALL.contains(Ip::MAX));
        assert_eq!(Prefix::ALL.last_ip(), Ip::MAX);
    }

    #[test]
    fn slash_32_is_single_address() {
        let ip = Ip::from_octets(8, 8, 8, 8);
        let p = Prefix::from(ip);
        assert_eq!(p.size(), 1);
        assert!(p.contains(ip));
        assert!(!p.contains(ip.wrapping_add(1)));
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![ip]);
    }

    #[test]
    fn parse_round_trip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.0.0/16", "1.2.3.4/32"] {
            let p: Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "10.0.0.0",
            "10.0.0.0/",
            "10.0.0.0/33",
            "10.0.0.0/ 8",
            "10.0.0.1/8",
            "/8",
            "10.0.0.0/-1",
            "10.0.0.0/008",
        ] {
            assert!(bad.parse::<Prefix>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn iter_yields_every_address_once() {
        let p: Prefix = "10.0.0.0/29".parse().unwrap();
        let ips: Vec<Ip> = p.iter().collect();
        assert_eq!(ips.len(), 8);
        assert_eq!(ips[0].to_string(), "10.0.0.0");
        assert_eq!(ips[7].to_string(), "10.0.0.7");
    }

    #[test]
    fn iter_size_hint_is_exact() {
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        let mut it = p.iter();
        assert_eq!(it.len(), 256);
        it.next();
        assert_eq!(it.len(), 255);
    }

    #[test]
    fn iter_handles_top_of_space() {
        let p: Prefix = "255.255.255.252/30".parse().unwrap();
        assert_eq!(p.iter().count(), 4);
    }

    #[test]
    fn subnets_tile_parent() {
        let p: Prefix = "172.16.0.0/14".parse().unwrap();
        let subs: Vec<Prefix> = p.subnets(16).collect();
        assert_eq!(subs.len(), 4);
        assert!(subs.iter().all(|s| p.contains_prefix(*s)));
        assert_eq!(subs[0].to_string(), "172.16.0.0/16");
        assert_eq!(subs[3].to_string(), "172.19.0.0/16");
    }

    #[test]
    fn subnets_of_same_length_is_self() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let subs: Vec<Prefix> = p.subnets(8).collect();
        assert_eq!(subs, vec![p]);
    }

    #[test]
    fn subnets_size_hint_is_exact() {
        let p = Prefix::ALL;
        assert_eq!(p.subnets(8).len(), 256);
        assert_eq!(p.subnets(16).len(), 65536);
    }

    #[test]
    fn nth_indexes_in_order() {
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        assert_eq!(p.nth(0), p.base());
        assert_eq!(p.nth(255), p.last_ip());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nth_panics_past_end() {
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        let _ = p.nth(256);
    }

    #[test]
    fn overlap_is_symmetric_containment() {
        let a: Prefix = "10.0.0.0/8".parse().unwrap();
        let b: Prefix = "10.5.0.0/16".parse().unwrap();
        let c: Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(a.overlaps(b) && b.overlaps(a));
        assert!(!a.overlaps(c) && !c.overlaps(a));
    }

    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 0u8..=32).prop_map(|(v, len)| Prefix::containing(Ip::new(v), len))
    }

    proptest! {
        #[test]
        fn prefix_contains_its_base_and_last(p in arb_prefix()) {
            prop_assert!(p.contains(p.base()));
            prop_assert!(p.contains(p.last_ip()));
        }

        #[test]
        fn containment_is_transitive(v in any::<u32>(), a in 0u8..=32, b in 0u8..=32, c in 0u8..=32) {
            let mut lens = [a, b, c];
            lens.sort_unstable();
            let outer = Prefix::containing(Ip::new(v), lens[0]);
            let mid = Prefix::containing(Ip::new(v), lens[1]);
            let inner = Prefix::containing(Ip::new(v), lens[2]);
            prop_assert!(outer.contains_prefix(mid));
            prop_assert!(mid.contains_prefix(inner));
            prop_assert!(outer.contains_prefix(inner));
        }

        #[test]
        fn display_parse_round_trip(p in arb_prefix()) {
            let back: Prefix = p.to_string().parse().unwrap();
            prop_assert_eq!(p, back);
        }

        #[test]
        fn nth_stays_inside(p in arb_prefix(), idx in any::<u64>()) {
            let idx = idx % p.size();
            prop_assert!(p.contains(p.nth(idx)));
        }

        #[test]
        fn subnets_partition(v in any::<u32>(), len in 8u8..=24) {
            // take a smallish parent so iteration stays cheap
            let parent = Prefix::containing(Ip::new(v), len);
            let sub_len = (len + 4).min(32);
            let subs: Vec<Prefix> = parent.subnets(sub_len).collect();
            prop_assert_eq!(subs.len() as u64, parent.size() / subs[0].size());
            // disjoint and covering: total size matches, all inside parent
            let total: u64 = subs.iter().map(|s| s.size()).sum();
            prop_assert_eq!(total, parent.size());
            for w in subs.windows(2) {
                prop_assert!(!w[0].overlaps(w[1]));
            }
        }
    }
}
