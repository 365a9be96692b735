//! The [`Ip`] address type.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::bucket::{Bucket16, Bucket24, Bucket8};
use crate::error::ParseIpError;

/// An IPv4 address, stored as its 32-bit numeric value
/// (`a.b.c.d == a<<24 | b<<16 | c<<8 | d`).
///
/// `Ip` is `Copy`, ordered, and hashable, so it can be used directly as a
/// key in the dense per-address data structures the simulator relies on.
/// Unlike [`std::net::Ipv4Addr`] it exposes its numeric value, which the
/// worm targeting algorithms manipulate arithmetically.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Ip;
///
/// let ip = Ip::from_octets(10, 0, 0, 1);
/// assert_eq!(ip.value(), 0x0a00_0001);
/// assert_eq!(ip.to_string(), "10.0.0.1");
/// assert_eq!(ip.octets(), [10, 0, 0, 1]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ip(u32);

impl Ip {
    /// The lowest address, `0.0.0.0`.
    pub const MIN: Ip = Ip(0);
    /// The highest address, `255.255.255.255`.
    pub const MAX: Ip = Ip(u32::MAX);

    /// Creates an address from its 32-bit numeric value.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::Ip;
    /// assert_eq!(Ip::new(0xc0a80001).to_string(), "192.168.0.1");
    /// ```
    #[inline]
    pub const fn new(value: u32) -> Ip {
        Ip(value)
    }

    /// Creates an address from four dotted-quad octets.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::Ip;
    /// assert_eq!(Ip::from_octets(192, 168, 0, 1).value(), 0xc0a8_0001);
    /// ```
    #[inline]
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Ip {
        Ip(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Creates an address from a 32-bit value laid out in x86 little-endian
    /// memory order, i.e. the *low* byte of `state` becomes the *first*
    /// octet of the address.
    ///
    /// This is how the Slammer worm turns its raw LCG state into an
    /// `in_addr`: the 32-bit register is stored to memory little-endian and
    /// the four bytes are then read in network order. The distinction
    /// matters enormously for hotspot structure — it means a sensor block
    /// that fixes the *leading* octets of the address fixes the *low* bits
    /// of the PRNG state. See `hotspots-prng`'s cycle analysis.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::Ip;
    /// // state 0x0102_0304 in memory is [04, 03, 02, 01] → 4.3.2.1
    /// assert_eq!(Ip::from_le_state(0x0102_0304).to_string(), "4.3.2.1");
    /// ```
    #[inline]
    pub const fn from_le_state(state: u32) -> Ip {
        Ip(state.swap_bytes())
    }

    /// The inverse of [`Ip::from_le_state`]: recovers the 32-bit
    /// little-endian machine word whose in-memory bytes spell this address.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::Ip;
    /// let ip = Ip::from_octets(4, 3, 2, 1);
    /// assert_eq!(ip.to_le_state(), 0x0102_0304);
    /// ```
    #[inline]
    pub const fn to_le_state(self) -> u32 {
        self.0.swap_bytes()
    }

    /// Returns the 32-bit numeric value (`a.b.c.d == a<<24|b<<16|c<<8|d`).
    #[inline]
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Returns the four dotted-quad octets, most significant first.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::Ip;
    /// assert_eq!(Ip::from_octets(1, 2, 3, 4).octets(), [1, 2, 3, 4]);
    /// ```
    #[inline]
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Returns the address `count` positions above `self`, wrapping around
    /// the top of the address space (as sequential scanners like Blaster
    /// effectively do).
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::Ip;
    /// assert_eq!(Ip::MAX.wrapping_add(1), Ip::MIN);
    /// ```
    #[inline]
    pub const fn wrapping_add(self, count: u32) -> Ip {
        Ip(self.0.wrapping_add(count))
    }

    /// Returns the /24 histogram bucket containing this address.
    #[inline]
    pub const fn bucket24(self) -> Bucket24 {
        Bucket24::of_value(self.0)
    }

    /// Returns the /16 histogram bucket containing this address.
    #[inline]
    pub const fn bucket16(self) -> Bucket16 {
        Bucket16::of_value(self.0)
    }

    /// Returns the /8 histogram bucket containing this address.
    #[inline]
    pub const fn bucket8(self) -> Bucket8 {
        Bucket8::of_value(self.0)
    }
}

impl fmt::Display for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl From<u32> for Ip {
    fn from(value: u32) -> Ip {
        Ip(value)
    }
}

impl From<Ip> for u32 {
    fn from(ip: Ip) -> u32 {
        ip.0
    }
}

impl From<Ipv4Addr> for Ip {
    fn from(addr: Ipv4Addr) -> Ip {
        Ip(u32::from(addr))
    }
}

impl From<Ip> for Ipv4Addr {
    fn from(ip: Ip) -> Ipv4Addr {
        Ipv4Addr::from(ip.0)
    }
}

impl From<[u8; 4]> for Ip {
    fn from(o: [u8; 4]) -> Ip {
        Ip::from_octets(o[0], o[1], o[2], o[3])
    }
}

impl FromStr for Ip {
    type Err = ParseIpError;

    fn from_str(s: &str) -> Result<Ip, ParseIpError> {
        let err = || ParseIpError {
            input: s.to_owned(),
        };
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts.next().ok_or_else(err)?;
            // Reject empty parts, leading '+', and anything non-decimal.
            if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err());
            }
            *slot = part.parse::<u8>().map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(Ip::from(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn octet_round_trip() {
        let ip = Ip::from_octets(192, 168, 7, 9);
        assert_eq!(ip.octets(), [192, 168, 7, 9]);
        assert_eq!(ip.value(), 0xc0a8_0709);
    }

    #[test]
    fn display_formats_dotted_quad() {
        assert_eq!(Ip::new(0).to_string(), "0.0.0.0");
        assert_eq!(Ip::MAX.to_string(), "255.255.255.255");
        assert_eq!(Ip::from_octets(10, 20, 30, 40).to_string(), "10.20.30.40");
    }

    #[test]
    fn parse_valid_addresses() {
        assert_eq!("0.0.0.0".parse::<Ip>().unwrap(), Ip::MIN);
        assert_eq!("255.255.255.255".parse::<Ip>().unwrap(), Ip::MAX);
        assert_eq!(
            "172.16.254.1".parse::<Ip>().unwrap(),
            Ip::from_octets(172, 16, 254, 1)
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "1",
            "1.2",
            "1.2.3",
            "1.2.3.4.5",
            "256.0.0.1",
            "-1.0.0.0",
            "a.b.c.d",
            "1..2.3",
            "1.2.3.4 ",
            " 1.2.3.4",
            "01234.1.1.1",
            "+1.2.3.4",
        ] {
            assert!(bad.parse::<Ip>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_accepts_leading_zero_octets() {
        // "010" is three ASCII digits parsing to 10; we accept it as decimal.
        assert_eq!(
            "010.0.0.1".parse::<Ip>().unwrap(),
            Ip::from_octets(10, 0, 0, 1)
        );
    }

    #[test]
    fn le_state_round_trip_known_value() {
        let ip = Ip::from_le_state(0xdead_beef);
        // memory bytes of 0xdeadbeef (LE): ef be ad de → 239.190.173.222
        assert_eq!(ip.to_string(), "239.190.173.222");
        assert_eq!(ip.to_le_state(), 0xdead_beef);
    }

    #[test]
    fn std_net_conversions() {
        let std_ip: Ipv4Addr = "198.51.100.7".parse().unwrap();
        let ours = Ip::from(std_ip);
        assert_eq!(ours.to_string(), "198.51.100.7");
        assert_eq!(Ipv4Addr::from(ours), std_ip);
    }

    #[test]
    fn wrapping_add_wraps() {
        assert_eq!(Ip::MAX.wrapping_add(2), Ip::new(1));
        assert_eq!(Ip::new(5).wrapping_add(0), Ip::new(5));
    }

    #[test]
    fn ordering_matches_numeric_order() {
        assert!(Ip::from_octets(9, 255, 255, 255) < Ip::from_octets(10, 0, 0, 0));
    }

    #[test]
    fn buckets_truncate_correctly() {
        let ip = Ip::from_octets(1, 2, 3, 4);
        assert_eq!(ip.bucket24().to_string(), "1.2.3.0/24");
        assert_eq!(ip.bucket16().to_string(), "1.2.0.0/16");
        assert_eq!(ip.bucket8().to_string(), "1.0.0.0/8");
    }

    proptest! {
        #[test]
        fn display_parse_round_trip(v in any::<u32>()) {
            let ip = Ip::new(v);
            let back: Ip = ip.to_string().parse().unwrap();
            prop_assert_eq!(ip, back);
        }

        #[test]
        fn le_state_round_trip(v in any::<u32>()) {
            prop_assert_eq!(Ip::from_le_state(v).to_le_state(), v);
            prop_assert_eq!(Ip::from_le_state(v).value(), v.swap_bytes());
        }

        #[test]
        fn octets_round_trip(a in any::<u8>(), b in any::<u8>(), c in any::<u8>(), d in any::<u8>()) {
            let ip = Ip::from_octets(a, b, c, d);
            prop_assert_eq!(ip.octets(), [a, b, c, d]);
            prop_assert_eq!(Ip::from(ip.octets()), ip);
        }
    }
}
