//! Histogram bucket keys for aggregating observations by /24, /16, or /8.
//!
//! The paper's measurement figures plot "observed unique source IPs by
//! destination /24". These light-weight keys make those aggregations cheap:
//! a [`Bucket24`] is just the top 24 bits of an address, and buckets sort in
//! address order, so a sorted map over buckets *is* the figure's x-axis.

use std::fmt;

use crate::ip::Ip;
use crate::prefix::Prefix;

macro_rules! bucket_type {
    ($(#[$doc:meta])* $name:ident, bits = $bits:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Number of network bits in this bucket granularity.
            pub const BITS: u8 = $bits;

            /// Returns the bucket containing `ip`.
            #[inline]
            pub const fn of(ip: Ip) -> $name {
                Self::of_value(ip.value())
            }

            /// Returns the bucket containing the address with numeric value
            /// `value`.
            #[inline]
            pub const fn of_value(value: u32) -> $name {
                $name(value >> (32 - $bits))
            }

            /// Returns the bucket's dense index: buckets of one granularity
            /// tile the address space, so indices run from `0` to
            /// `2^BITS - 1` in address order.
            #[inline]
            pub const fn index(self) -> u32 {
                self.0
            }

            /// Reconstructs a bucket from a dense [`index`](Self::index).
            ///
            /// # Panics
            ///
            /// Panics if `index >= 2^BITS`.
            #[inline]
            pub fn from_index(index: u32) -> $name {
                assert!(
                    u64::from(index) < (1u64 << $bits),
                    "bucket index {index} out of range for /{}",
                    $bits
                );
                $name(index)
            }

            /// The first (lowest) address in the bucket.
            #[inline]
            pub const fn first_ip(self) -> Ip {
                Ip::new(self.0 << (32 - $bits))
            }

            /// The CIDR prefix this bucket corresponds to.
            #[inline]
            pub fn prefix(self) -> Prefix {
                Prefix::new(self.first_ip(), $bits)
                    .expect("bucket base has no host bits by construction") // hotspots-lint: allow(panic-path) reason="bucket base has no host bits by construction"
            }

            /// Returns `true` if `ip` falls inside the bucket.
            #[inline]
            pub const fn contains(self, ip: Ip) -> bool {
                Self::of(ip).0 == self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}/{}", self.first_ip(), $bits)
            }
        }

        impl From<Ip> for $name {
            fn from(ip: Ip) -> $name {
                $name::of(ip)
            }
        }
    };
}

bucket_type! {
    /// A /24 aggregation bucket (256 addresses), the granularity of the
    /// paper's "observed unique source IPs by destination /24" figures.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::{Bucket24, Ip};
    ///
    /// let b = Bucket24::of(Ip::from_octets(10, 1, 2, 200));
    /// assert!(b.contains(Ip::from_octets(10, 1, 2, 3)));
    /// assert!(!b.contains(Ip::from_octets(10, 1, 3, 3)));
    /// assert_eq!(b.to_string(), "10.1.2.0/24");
    /// ```
    Bucket24, bits = 24
}

bucket_type! {
    /// A /16 aggregation bucket (65,536 addresses). Hit-lists in the paper's
    /// simulations are lists of /16 networks.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::{Bucket16, Ip};
    ///
    /// let b = Bucket16::of(Ip::from_octets(192, 168, 3, 4));
    /// assert_eq!(b.to_string(), "192.168.0.0/16");
    /// ```
    Bucket16, bits = 16
}

bucket_type! {
    /// A /8 aggregation bucket (16,777,216 addresses). The CodeRedII
    /// vulnerable population clusters in 47 /8 networks.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::{Bucket8, Ip};
    ///
    /// let b = Bucket8::of(Ip::from_octets(192, 0, 2, 1));
    /// assert_eq!(b.index(), 192);
    /// ```
    Bucket8, bits = 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket24_index_round_trip() {
        let b = Bucket24::of(Ip::from_octets(1, 2, 3, 99));
        assert_eq!(Bucket24::from_index(b.index()), b);
        assert_eq!(b.first_ip(), Ip::from_octets(1, 2, 3, 0));
    }

    #[test]
    fn bucket16_prefix() {
        let b = Bucket16::of(Ip::from_octets(172, 16, 9, 9));
        let p = b.prefix();
        assert_eq!(p.to_string(), "172.16.0.0/16");
        assert_eq!(p.len(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bucket8_from_index_panics_out_of_range() {
        let _ = Bucket8::from_index(256);
    }

    #[test]
    fn buckets_order_by_address() {
        let lo = Bucket24::of(Ip::from_octets(9, 0, 0, 0));
        let hi = Bucket24::of(Ip::from_octets(10, 0, 0, 0));
        assert!(lo < hi);
    }

    proptest! {
        #[test]
        fn bucket_contains_its_members(v in any::<u32>()) {
            let ip = Ip::new(v);
            prop_assert!(Bucket24::of(ip).contains(ip));
            prop_assert!(Bucket16::of(ip).contains(ip));
            prop_assert!(Bucket8::of(ip).contains(ip));
        }

        #[test]
        fn bucket_prefix_agrees_with_contains(v in any::<u32>(), w in any::<u32>()) {
            let a = Ip::new(v);
            let b = Ip::new(w);
            prop_assert_eq!(Bucket24::of(a).contains(b), Bucket24::of(a).prefix().contains(b));
        }

        #[test]
        fn nested_bucket_consistency(v in any::<u32>()) {
            let ip = Ip::new(v);
            // the /24's first address lies inside the /16 and /8 buckets
            prop_assert!(Bucket16::of(ip).contains(Bucket24::of(ip).first_ip()));
            prop_assert!(Bucket8::of(ip).contains(Bucket16::of(ip).first_ip()));
        }
    }
}
