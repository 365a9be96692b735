//! Special-purpose address ranges.
//!
//! Two of the paper's root causes live here:
//!
//! * **RFC 1918 private space** — the CodeRedII/NAT case study hinges on the
//!   fact that `192.168.0.0/16` is the *only* private /16 inside `192.0.0.0/8`,
//!   so a NATed CodeRedII host preferring its local /8 leaks probes into the
//!   public parts of `192/8`.
//! * **Worm avoid-lists** — CodeRedII explicitly skips `127/8` (loopback) and
//!   `224/8` (multicast) when generating targets.

use crate::ip::Ip;
use crate::prefix::Prefix;

/// `10.0.0.0/8` (RFC 1918).
pub const PRIVATE_10: Prefix = match Prefix::new(Ip::from_octets(10, 0, 0, 0), 8) {
    Ok(p) => p,
    Err(_) => unreachable!(),
};

/// `172.16.0.0/12` (RFC 1918).
pub const PRIVATE_172: Prefix = match Prefix::new(Ip::from_octets(172, 16, 0, 0), 12) {
    Ok(p) => p,
    Err(_) => unreachable!(),
};

/// `192.168.0.0/16` (RFC 1918) — the star of the CodeRedII case study.
pub const PRIVATE_192: Prefix = match Prefix::new(Ip::from_octets(192, 168, 0, 0), 16) {
    Ok(p) => p,
    Err(_) => unreachable!(),
};

/// `127.0.0.0/8` loopback.
pub const LOOPBACK: Prefix = match Prefix::new(Ip::from_octets(127, 0, 0, 0), 8) {
    Ok(p) => p,
    Err(_) => unreachable!(),
};

/// `224.0.0.0/4` multicast (class D).
pub const MULTICAST: Prefix = match Prefix::new(Ip::from_octets(224, 0, 0, 0), 4) {
    Ok(p) => p,
    Err(_) => unreachable!(),
};

/// `240.0.0.0/4` reserved (class E).
pub const RESERVED_E: Prefix = match Prefix::new(Ip::from_octets(240, 0, 0, 0), 4) {
    Ok(p) => p,
    Err(_) => unreachable!(),
};

/// `0.0.0.0/8` "this network".
pub const THIS_NET: Prefix = match Prefix::new(Ip::MIN, 8) {
    Ok(p) => p,
    Err(_) => unreachable!(),
};

/// The three RFC 1918 private ranges, in address order.
pub const PRIVATE_RANGES: [Prefix; 3] = [PRIVATE_10, PRIVATE_172, PRIVATE_192];

/// Returns `true` if `ip` lies in any RFC 1918 private range.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::{special, Ip};
///
/// assert!(special::is_private(Ip::from_octets(10, 1, 2, 3)));
/// assert!(special::is_private(Ip::from_octets(172, 31, 0, 1)));
/// assert!(special::is_private(Ip::from_octets(192, 168, 0, 1)));
/// assert!(!special::is_private(Ip::from_octets(192, 169, 0, 1)));
/// assert!(!special::is_private(Ip::from_octets(172, 32, 0, 1)));
/// ```
#[inline]
pub fn is_private(ip: Ip) -> bool {
    slash16_bit(&PRIVATE_16, ip)
}

/// Returns `true` if `ip` is loopback (`127/8`).
#[inline]
pub fn is_loopback(ip: Ip) -> bool {
    LOOPBACK.contains(ip)
}

/// Returns `true` if `ip` is multicast (`224/4`).
#[inline]
pub fn is_multicast(ip: Ip) -> bool {
    MULTICAST.contains(ip)
}

/// Returns `true` if `ip` is in class-E reserved space (`240/4`).
#[inline]
pub fn is_reserved(ip: Ip) -> bool {
    RESERVED_E.contains(ip)
}

/// Returns `true` for addresses that can appear as a *globally routed*
/// source or destination: not private, loopback, multicast, class-E, or
/// `0/8`.
///
/// This is the routability predicate the environment model uses when
/// deciding whether a probe can traverse the public Internet at all.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::{special, Ip};
///
/// assert!(special::is_globally_routable(Ip::from_octets(198, 51, 100, 1)));
/// assert!(!special::is_globally_routable(Ip::from_octets(192, 168, 1, 1)));
/// assert!(!special::is_globally_routable(Ip::from_octets(127, 0, 0, 1)));
/// assert!(!special::is_globally_routable(Ip::from_octets(0, 1, 2, 3)));
/// ```
#[inline]
pub fn is_globally_routable(ip: Ip) -> bool {
    slash16_bit(&ROUTABLE_16, ip)
}

/// Every range that is never globally routed, the private ranges among
/// them: [`is_globally_routable`] is `false` exactly inside these. All
/// are /16 or coarser, so a table with one entry per /16 answers
/// membership exactly.
pub const UNROUTABLE_RANGES: [Prefix; 7] = [
    THIS_NET,
    PRIVATE_10,
    LOOPBACK,
    PRIVATE_172,
    PRIVATE_192,
    MULTICAST,
    RESERVED_E,
];

/// A per-/16 bitmap of 1,024 words (8 KiB): bit `i % 64` of word
/// `i / 64` is the flag of /16 number `i`, an address's top 16 bits.
type Slash16Bitmap = [u64; 1024];

/// Bit set for every /16 that `ranges` cover. Each range sets its /16
/// span a word at a time, so the whole space costs a few dozen steps of
/// constant evaluation rather than 65,536.
const fn slash16_bitmap(ranges: &[Prefix]) -> Slash16Bitmap {
    let mut words = [0u64; 1024];
    let mut r = 0;
    while r < ranges.len() {
        let range = ranges[r];
        assert!(
            range.len() <= 16,
            "a per-/16 table is exact only for /16 or coarser"
        );
        let first = (range.base().value() >> 16) as usize;
        let last = (range.last_ip().value() >> 16) as usize;
        let mut w = first / 64;
        while w <= last / 64 {
            let lo = if w == first / 64 { first % 64 } else { 0 };
            let hi = if w == last / 64 { last % 64 } else { 63 };
            words[w] |= (u64::MAX << lo) & (u64::MAX >> (63 - hi));
            w += 1;
        }
        r += 1;
    }
    words
}

/// One bit per RFC 1918 /16.
static PRIVATE_16: Slash16Bitmap = slash16_bitmap(&PRIVATE_RANGES);

/// One bit per globally routable /16: the complement of every
/// unroutable range.
static ROUTABLE_16: Slash16Bitmap = {
    let mut words = slash16_bitmap(&UNROUTABLE_RANGES);
    let mut w = 0;
    while w < words.len() {
        words[w] = !words[w];
        w += 1;
    }
    words
};

/// Number of globally routable /16s (the popcount of the routability
/// table), so `routable_slash16s() * 256` is the number of routable /24s.
pub fn routable_slash16s() -> usize {
    ROUTABLE_16.iter().map(|w| w.count_ones() as usize).sum()
}

/// The table bit of `ip`'s /16.
#[inline]
fn slash16_bit(table: &Slash16Bitmap, ip: Ip) -> bool {
    let i = (ip.value() >> 16) as usize;
    (table[i >> 6] >> (i & 63)) & 1 != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn private_range_boundaries() {
        assert!(is_private(Ip::from_octets(10, 0, 0, 0)));
        assert!(is_private(Ip::from_octets(10, 255, 255, 255)));
        assert!(!is_private(Ip::from_octets(9, 255, 255, 255)));
        assert!(!is_private(Ip::from_octets(11, 0, 0, 0)));
        assert!(is_private(Ip::from_octets(172, 16, 0, 0)));
        assert!(is_private(Ip::from_octets(172, 31, 255, 255)));
        assert!(!is_private(Ip::from_octets(172, 15, 255, 255)));
        assert!(!is_private(Ip::from_octets(172, 32, 0, 0)));
        assert!(is_private(Ip::from_octets(192, 168, 0, 0)));
        assert!(is_private(Ip::from_octets(192, 168, 255, 255)));
        assert!(!is_private(Ip::from_octets(192, 167, 255, 255)));
        assert!(!is_private(Ip::from_octets(192, 169, 0, 0)));
    }

    #[test]
    fn private_192_is_only_private_16_inside_192_slash_8() {
        // The pivotal topological fact behind the CodeRedII hotspot.
        let slash8 = Prefix::containing(Ip::from_octets(192, 0, 0, 0), 8);
        let private_16s: Vec<Prefix> = slash8
            .subnets(16)
            .filter(|s| is_private(s.base()))
            .collect();
        assert_eq!(private_16s, vec![PRIVATE_192]);
    }

    #[test]
    fn multicast_and_reserved_split_top_of_space() {
        assert!(is_multicast(Ip::from_octets(224, 0, 0, 1)));
        assert!(is_multicast(Ip::from_octets(239, 255, 255, 255)));
        assert!(!is_multicast(Ip::from_octets(240, 0, 0, 0)));
        assert!(is_reserved(Ip::from_octets(255, 255, 255, 255)));
    }

    /// The range-by-range predicates the /16 tables replaced, kept as the
    /// oracle for them.
    fn private_oracle(ip: Ip) -> bool {
        PRIVATE_RANGES.iter().any(|p| p.contains(ip))
    }

    fn routable_oracle(ip: Ip) -> bool {
        !(private_oracle(ip)
            || is_loopback(ip)
            || is_multicast(ip)
            || is_reserved(ip)
            || THIS_NET.contains(ip))
    }

    #[test]
    fn slash16_tables_match_the_range_predicates_everywhere() {
        let mut routable = 0;
        for slash16 in 0..=u32::from(u16::MAX) {
            let first = Ip::new(slash16 << 16);
            let last = Ip::new(slash16 << 16 | 0xffff);
            for ip in [first, last] {
                assert_eq!(is_globally_routable(ip), routable_oracle(ip), "{ip}");
                assert_eq!(is_private(ip), private_oracle(ip), "{ip}");
            }
            routable += usize::from(routable_oracle(first));
        }
        // 65,536 minus 0/8, 10/8, 127/8 (256 each), 172.16/12 (16),
        // 192.168/16 (1), 224/4 and 240/4 (4,096 each)
        assert_eq!(routable, 56_559);
        assert_eq!(routable_slash16s(), routable);
    }

    proptest! {
        #[test]
        fn routable_excludes_all_special(v in any::<u32>()) {
            let ip = Ip::new(v);
            if is_globally_routable(ip) {
                prop_assert!(!is_private(ip));
                prop_assert!(!is_loopback(ip));
                prop_assert!(!is_multicast(ip));
                prop_assert!(!is_reserved(ip));
            }
        }

        #[test]
        fn private_ranges_are_disjoint(v in any::<u32>()) {
            let ip = Ip::new(v);
            let hits = PRIVATE_RANGES.iter().filter(|p| p.contains(ip)).count();
            prop_assert!(hits <= 1);
        }
    }
}
