//! Compressed, rank-indexed sets of host addresses.
//!
//! A [`HostSet`] stores a sorted set of public IPv4 addresses in a
//! three-level /8 → /16 → /24 occupancy hierarchy instead of a flat
//! `Vec<Ip>` plus hash index. Membership tests walk the hierarchy
//! (bitmap probe, then two small binary searches); every member has a
//! *rank* — its position in sorted address order — and ranks are the
//! host ids the compressed population store hands to the simulation
//! engine. The structure costs roughly one byte per host plus a few
//! bytes per occupied /16 and /24, so a million-host Internet-scale
//! population fits in ~1.2 MB where the dense per-host representation
//! needs tens of megabytes.
//!
//! Layout (all arrays immutable after construction):
//!
//! * `slash8_bits` / `slash16_bits` — occupancy bitmaps over the 256
//!   /8s and 65,536 /16s. A random probe into unoccupied space is
//!   rejected by one or two bit tests, exactly like the flat /16
//!   pre-filter this hierarchy extends.
//! * `slash16_rank` — cumulative popcounts over `slash16_bits`, so an
//!   occupied /16 maps to its dense index in O(1).
//! * per-/16 arrays (`slash16_prefix`, `hosts_before_16`,
//!   `slash24_before_16`) and per-/24 arrays (`slash24_octet`,
//!   `hosts_before_24`) — cumulative counts that turn a hierarchy walk
//!   into a rank and back.
//! * `last_octets` — the final address octet of every host, grouped by
//!   /24 and sorted within each group: the only per-host storage.
//!
//! # Examples
//!
//! ```
//! use hotspots_ipspace::{HostSet, Ip};
//!
//! let addrs = [
//!     Ip::from_octets(11, 0, 0, 7),
//!     Ip::from_octets(11, 0, 0, 9),
//!     Ip::from_octets(130, 4, 20, 1),
//! ];
//! let set = HostSet::from_sorted_unique(&addrs).unwrap();
//! assert_eq!(set.len(), 3);
//! assert_eq!(set.find(Ip::from_octets(11, 0, 0, 9)), Some(1));
//! assert_eq!(set.select(2), Some(Ip::from_octets(130, 4, 20, 1)));
//! assert_eq!(set.find(Ip::from_octets(11, 0, 0, 8)), None);
//! ```

use std::error::Error;
use std::fmt;

use crate::ip::Ip;

/// Error returned when constructing a [`HostSet`] from an address list
/// that is not strictly ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostSetError {
    /// Two equal addresses appeared in the input.
    Duplicate {
        /// Index of the second copy in the input slice.
        index: usize,
        /// The duplicated address.
        ip: Ip,
    },
    /// An address was smaller than its predecessor.
    Unsorted {
        /// Index of the out-of-order address in the input slice.
        index: usize,
        /// The out-of-order address.
        ip: Ip,
    },
}

impl fmt::Display for HostSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostSetError::Duplicate { index, ip } => {
                write!(f, "duplicate host address {ip} at index {index}")
            }
            HostSetError::Unsorted { index, ip } => {
                write!(f, "host address {ip} at index {index} is out of order")
            }
        }
    }
}

impl Error for HostSetError {}

/// A compressed set of sorted host addresses with rank lookup in both
/// directions: [`HostSet::find`] maps an address to its rank and
/// [`HostSet::select`] maps a rank back to its address. It stores a
/// /8 → /16 → /24 occupancy hierarchy plus one byte per host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSet {
    len: u32,
    /// Occupancy bitmap over the 256 /8s.
    slash8_bits: [u64; 4],
    /// Occupancy bitmap over the 65,536 /16s.
    slash16_bits: Box<[u64; 1024]>,
    /// Occupied-/16 count in all bitmap words before word `w`.
    slash16_rank: Box<[u32; 1024]>,
    /// The occupied /16s, ascending (each entry is the top 16 address
    /// bits).
    slash16_prefix: Vec<u16>,
    /// Host count before each occupied /16; one trailing entry equal to
    /// `len`.
    hosts_before_16: Vec<u32>,
    /// Occupied-/24 count before each occupied /16; one trailing entry.
    slash24_before_16: Vec<u32>,
    /// Third address octet of each occupied /24, grouped by /16.
    slash24_octet: Vec<u8>,
    /// Host count before each occupied /24; one trailing entry equal to
    /// `len`.
    hosts_before_24: Vec<u32>,
    /// Final address octet of every host, grouped by /24, ascending
    /// within each group.
    last_octets: Vec<u8>,
}

impl HostSet {
    /// Builds a set from strictly ascending addresses.
    ///
    /// # Errors
    ///
    /// Returns [`HostSetError`] naming the first duplicate or
    /// out-of-order entry.
    pub fn from_sorted_unique(addrs: &[Ip]) -> Result<HostSet, HostSetError> {
        let mut set = HostSet {
            len: 0,
            slash8_bits: [0; 4],
            slash16_bits: Box::new([0; 1024]),
            slash16_rank: Box::new([0; 1024]),
            slash16_prefix: Vec::new(),
            hosts_before_16: Vec::new(),
            slash24_before_16: Vec::new(),
            slash24_octet: Vec::new(),
            hosts_before_24: Vec::new(),
            last_octets: Vec::with_capacity(addrs.len()),
        };
        for (index, &ip) in addrs.iter().enumerate() {
            if index > 0 {
                let prev = addrs[index - 1];
                if ip == prev {
                    return Err(HostSetError::Duplicate { index, ip });
                }
                if ip < prev {
                    return Err(HostSetError::Unsorted { index, ip });
                }
            }
            let v = ip.value();
            let s16 = (v >> 16) as usize;
            let s24_octet = (v >> 8) as u8;
            if set.slash16_prefix.last() != Some(&(s16 as u16)) {
                set.slash8_bits[s16 >> 14] |= 1 << ((s16 >> 8) & 63);
                set.slash16_bits[s16 >> 6] |= 1 << (s16 & 63);
                set.slash16_prefix.push(s16 as u16);
                set.hosts_before_16.push(set.len);
                set.slash24_before_16.push(set.slash24_octet.len() as u32);
                set.slash24_octet.push(s24_octet);
                set.hosts_before_24.push(set.len);
            } else if set.slash24_octet.last() != Some(&s24_octet) {
                set.slash24_octet.push(s24_octet);
                set.hosts_before_24.push(set.len);
            }
            set.last_octets.push(v as u8);
            set.len += 1;
        }
        // The per-group cumulative arrays hold the count *before* each
        // group; close them with the totals.
        set.hosts_before_16.push(set.len);
        set.slash24_before_16.push(set.slash24_octet.len() as u32);
        set.hosts_before_24.push(set.len);
        let mut running = 0u32;
        for w in 0..1024 {
            set.slash16_rank[w] = running;
            running += set.slash16_bits[w].count_ones();
        }
        Ok(set)
    }

    /// Number of hosts in the set.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the set contains `ip`.
    #[inline]
    pub fn contains(&self, ip: Ip) -> bool {
        self.find(ip).is_some()
    }

    /// Rank of `ip` in sorted order, or `None` when absent.
    ///
    /// The walk is one /8 bit test, one /16 bit test + popcount rank,
    /// then binary searches over the /16's occupied-/24 octets and the
    /// /24's host octets — no hashing, no per-host structs.
    #[inline]
    pub fn find(&self, ip: Ip) -> Option<u32> {
        let v = ip.value();
        let s8 = (v >> 24) as usize;
        if self.slash8_bits[s8 >> 6] & (1u64 << (s8 & 63)) == 0 {
            return None;
        }
        let s16 = (v >> 16) as usize;
        let word = self.slash16_bits[s16 >> 6];
        let bit = 1u64 << (s16 & 63);
        if word & bit == 0 {
            return None;
        }
        let r16 = (self.slash16_rank[s16 >> 6] + (word & (bit - 1)).count_ones()) as usize;
        let lo24 = self.slash24_before_16[r16] as usize;
        let hi24 = self.slash24_before_16[r16 + 1] as usize;
        let r24 = match self.slash24_octet[lo24..hi24].binary_search(&((v >> 8) as u8)) {
            Ok(pos) => lo24 + pos,
            Err(_) => return None,
        };
        let lo = self.hosts_before_24[r24] as usize;
        let hi = self.hosts_before_24[r24 + 1] as usize;
        match self.last_octets[lo..hi].binary_search(&(v as u8)) {
            Ok(pos) => Some((lo + pos) as u32),
            Err(_) => None,
        }
    }

    /// Address of the host with rank `rank`, or `None` when out of
    /// range. Inverse of [`HostSet::find`].
    #[inline]
    pub fn select(&self, rank: u32) -> Option<Ip> {
        if rank >= self.len {
            return None;
        }
        // Last /24 whose cumulative start is <= rank.
        let r24 = self.hosts_before_24.partition_point(|&h| h <= rank) - 1;
        let r16 = self
            .slash24_before_16
            .partition_point(|&c| c as usize <= r24)
            - 1;
        let prefix = (self.slash16_prefix[r16] as u32) << 16;
        let octet3 = (self.slash24_octet[r24] as u32) << 8;
        let octet4 = self.last_octets[rank as usize] as u32;
        Some(Ip::new(prefix | octet3 | octet4))
    }

    /// Iterates the addresses in ascending (= rank) order without
    /// materialising a `Vec`.
    pub fn iter(&self) -> HostSetIter<'_> {
        HostSetIter {
            set: self,
            rank: 0,
            r16: 0,
            r24: 0,
        }
    }

    /// Number of occupied /16 blocks.
    pub fn occupied_slash16s(&self) -> usize {
        self.slash16_prefix.len()
    }

    /// The /16 occupancy bitmap (bit `s` set when /16 `s` holds at
    /// least one host) — the same shape as the flat pre-filter the
    /// dense store keeps, shareable with probe fast paths.
    pub fn slash16_bitmap(&self) -> &[u64; 1024] {
        &self.slash16_bits
    }

    /// Heap bytes held by the structure (bitmaps, cumulative arrays,
    /// and the one-byte-per-host octet column). Deterministic — used
    /// for the memory accounting in `BENCH_engine.json`.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<[u64; 1024]>()
            + size_of::<[u32; 1024]>()
            + self.slash16_prefix.capacity() * size_of::<u16>()
            + self.hosts_before_16.capacity() * size_of::<u32>()
            + self.slash24_before_16.capacity() * size_of::<u32>()
            + self.slash24_octet.capacity()
            + self.hosts_before_24.capacity() * size_of::<u32>()
            + self.last_octets.capacity()
    }
}

impl<'a> IntoIterator for &'a HostSet {
    type Item = Ip;
    type IntoIter = HostSetIter<'a>;

    fn into_iter(self) -> HostSetIter<'a> {
        self.iter()
    }
}

/// Ascending-order iterator over a [`HostSet`], created by
/// [`HostSet::iter`]. Walks the cumulative arrays incrementally, so
/// the whole traversal is O(n).
#[derive(Debug, Clone)]
pub struct HostSetIter<'a> {
    set: &'a HostSet,
    rank: u32,
    r16: usize,
    r24: usize,
}

impl Iterator for HostSetIter<'_> {
    type Item = Ip;

    #[inline]
    fn next(&mut self) -> Option<Ip> {
        let set = self.set;
        if self.rank >= set.len {
            return None;
        }
        while set.hosts_before_24[self.r24 + 1] <= self.rank {
            self.r24 += 1;
        }
        while set.slash24_before_16[self.r16 + 1] as usize <= self.r24 {
            self.r16 += 1;
        }
        let prefix = (set.slash16_prefix[self.r16] as u32) << 16;
        let octet3 = (set.slash24_octet[self.r24] as u32) << 8;
        let octet4 = set.last_octets[self.rank as usize] as u32;
        self.rank += 1;
        Some(Ip::new(prefix | octet3 | octet4))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.set.len - self.rank) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for HostSetIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Vec<Ip> {
        vec![
            Ip::from_octets(11, 0, 0, 1),
            Ip::from_octets(11, 0, 0, 200),
            Ip::from_octets(11, 0, 3, 4),
            Ip::from_octets(11, 9, 0, 0),
            Ip::from_octets(130, 4, 20, 1),
            Ip::from_octets(130, 4, 20, 255),
            Ip::from_octets(211, 255, 255, 255),
        ]
    }

    #[test]
    fn find_and_select_are_inverse_on_sample() {
        let addrs = sample();
        let set = HostSet::from_sorted_unique(&addrs).unwrap();
        assert_eq!(set.len(), addrs.len() as u32);
        for (rank, &ip) in addrs.iter().enumerate() {
            assert_eq!(set.find(ip), Some(rank as u32), "find {ip}");
            assert_eq!(set.select(rank as u32), Some(ip), "select {rank}");
        }
        assert_eq!(set.select(addrs.len() as u32), None);
    }

    #[test]
    fn misses_at_every_level() {
        let set = HostSet::from_sorted_unique(&sample()).unwrap();
        // /8 empty, /16 empty, /24 empty, last octet absent.
        assert_eq!(set.find(Ip::from_octets(12, 0, 0, 1)), None);
        assert_eq!(set.find(Ip::from_octets(11, 1, 0, 1)), None);
        assert_eq!(set.find(Ip::from_octets(11, 0, 9, 1)), None);
        assert_eq!(set.find(Ip::from_octets(11, 0, 0, 2)), None);
    }

    #[test]
    fn occupancy_counts() {
        let set = HostSet::from_sorted_unique(&sample()).unwrap();
        assert_eq!(set.occupied_slash16s(), 4);
        let bitmap = set.slash16_bitmap();
        let s16 = 0x0b00usize;
        assert_ne!(bitmap[s16 >> 6] & (1 << (s16 & 63)), 0);
    }

    #[test]
    fn iter_matches_input_and_is_exact_size() {
        let addrs = sample();
        let set = HostSet::from_sorted_unique(&addrs).unwrap();
        assert_eq!(set.iter().len(), addrs.len());
        let collected: Vec<Ip> = set.iter().collect();
        assert_eq!(collected, addrs);
    }

    #[test]
    fn empty_set() {
        let set = HostSet::from_sorted_unique(&[]).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.find(Ip::from_octets(11, 0, 0, 1)), None);
        assert_eq!(set.select(0), None);
        assert_eq!(set.iter().count(), 0);
    }

    #[test]
    fn duplicate_and_unsorted_inputs_are_typed_errors() {
        let dup = [Ip::new(5), Ip::new(5)];
        assert_eq!(
            HostSet::from_sorted_unique(&dup),
            Err(HostSetError::Duplicate {
                index: 1,
                ip: Ip::new(5)
            })
        );
        let unsorted = [Ip::new(9), Ip::new(3)];
        assert_eq!(
            HostSet::from_sorted_unique(&unsorted),
            Err(HostSetError::Unsorted {
                index: 1,
                ip: Ip::new(3)
            })
        );
        let err = HostSet::from_sorted_unique(&dup).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn heap_bytes_is_near_one_byte_per_host_at_scale() {
        // A dense /16: 65,536 hosts in 256 /24s.
        let addrs: Vec<Ip> = (0..65_536u32).map(|i| Ip::new(0x0b0b_0000 + i)).collect();
        let set = HostSet::from_sorted_unique(&addrs).unwrap();
        assert_eq!(set.len(), 65_536);
        // Fixed overhead (bitmaps + ranks) is ~12.3 KB; per-host cost
        // should stay under 2 bytes here.
        assert!(
            set.heap_bytes() < 13_000 + 2 * 65_536,
            "{}",
            set.heap_bytes()
        );
    }

    proptest! {
        #[test]
        fn find_select_round_trip(
            raw in proptest::collection::vec(any::<u32>(), 0..400)
        ) {
            let values: std::collections::BTreeSet<u32> = raw.into_iter().collect();
            let addrs: Vec<Ip> = values.iter().map(|&v| Ip::new(v)).collect();
            let set = HostSet::from_sorted_unique(&addrs).unwrap();
            prop_assert_eq!(set.len() as usize, addrs.len());
            for (rank, &ip) in addrs.iter().enumerate() {
                prop_assert_eq!(set.find(ip), Some(rank as u32));
                prop_assert_eq!(set.select(rank as u32), Some(ip));
            }
            let collected: Vec<Ip> = set.iter().collect();
            prop_assert_eq!(collected, addrs);
            // Probe near-misses: neighbours of members that are not
            // themselves members must be absent.
            for &v in values.iter().take(64) {
                let probe = v.wrapping_add(1);
                if !values.contains(&probe) {
                    prop_assert_eq!(set.find(Ip::new(probe)), None);
                }
            }
        }
    }
}
