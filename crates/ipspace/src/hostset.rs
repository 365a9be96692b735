//! Compressed, rank-indexed sets of host addresses.
//!
//! A [`HostSet`] stores a set of IPv4 addresses as a four-level
//! /8 → /16 → /24 → host occupancy radix instead of a flat `Vec<Ip>`
//! plus hash index. Every member has a *rank* — its position in sorted
//! address order — and ranks are the ids a population gives its public
//! hosts.
//!
//! A lookup has no search and no hash: it is a /8 bit test, a /16 bit
//! test plus popcount rank, a /24 bit test plus popcount rank, and a
//! host bit test plus popcount rank. A probe into unoccupied space is
//! rejected at the first level whose bit is clear.
//!
//! Layout (all arrays immutable after construction):
//!
//! * `slash8_bits` / `slash16_bits` — occupancy bitmaps over the 256
//!   /8s and 65,536 /16s, with `slash16_rank` holding cumulative
//!   popcounts over `slash16_bits` so an occupied /16 maps to its dense
//!   index in O(1).
//! * `slash24s` — one 256-bit map per occupied /16 over the third
//!   octets of its occupied /24s, with the dense index of its first /24.
//! * `hosts` — one 256-bit map per occupied /24 over the last octets of
//!   its hosts, with the rank of its first host.
//!
//! Each 256-bit map is 40 bytes (four `u64` words, a `u32` rank base
//! and the member count before each word), so the set costs 40 bytes
//! per occupied /24 and /16 plus about 12 KiB of fixed bitmaps. Per
//! host that follows the hosts per occupied /24: about 1.6 bytes for a
//! million Zipf-clustered hosts (25 per /24), about 26 for the paper's
//! 134,586 CodeRedII hosts (1.6 per /24), and 0.16 for a full /24.
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
//! let set = HostSet::from_sorted_unique(addrs).unwrap();
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
        /// Index of the second copy in the input sequence.
        index: usize,
        /// The duplicated address.
        ip: Ip,
    },
    /// An address was smaller than its predecessor.
    Unsorted {
        /// Index of the out-of-order address in the input sequence.
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

/// A 256-bit occupancy map over one address octet, with the rank of
/// its first member: the radix node of the /24 and host levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Octets {
    bits: [u64; 4],
    /// Rank of the first member (the members of every earlier map).
    base: u32,
    /// Members in `bits[..w]`, for each word `w` (at most 192).
    before: [u8; 4],
}

impl Octets {
    #[inline]
    fn new(base: u32) -> Octets {
        Octets {
            bits: [0; 4],
            base,
            before: [0; 4],
        }
    }

    /// Adds `octet`; [`Octets::sealed`] then counts the members.
    #[inline]
    fn insert(&mut self, octet: u8) {
        self.bits[usize::from(octet >> 6)] |= 1 << (octet & 63);
    }

    /// The map with `before` counted from `bits`.
    fn sealed(mut self) -> Octets {
        for w in 1..4 {
            self.before[w] = self.before[w - 1] + self.bits[w - 1].count_ones() as u8;
        }
        self
    }

    /// Rank of `octet`, or `None` when absent.
    #[inline]
    fn rank(&self, octet: u8) -> Option<u32> {
        let w = usize::from(octet >> 6);
        let word = self.bits[w];
        let bit = 1u64 << (octet & 63);
        if word & bit == 0 {
            return None;
        }
        Some(self.base + u32::from(self.before[w]) + (word & (bit - 1)).count_ones())
    }

    /// The `k`-th member in ascending order (`k` below the member
    /// count).
    fn select(&self, k: u32) -> u8 {
        let w = self.before.partition_point(|&c| u32::from(c) <= k) - 1;
        let mut word = self.bits[w];
        for _ in 0..k - u32::from(self.before[w]) {
            word &= word - 1;
        }
        (((w as u32) << 6) | word.trailing_zeros()) as u8
    }
}

/// Ascending walk over the members of one `Octets` map.
#[derive(Debug, Clone, Copy, Default)]
struct Members([u64; 4]);

impl Iterator for Members {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        for (w, word) in self.0.iter_mut().enumerate() {
            if *word != 0 {
                let bit = word.trailing_zeros();
                *word &= *word - 1;
                return Some(((w as u32) << 6) | bit);
            }
        }
        None
    }
}

/// A compressed set of host addresses with rank lookup in both
/// directions: [`HostSet::find`] maps an address to its rank and
/// [`HostSet::select`] maps a rank back to its address. It stores a
/// /8 → /16 → /24 → host occupancy radix of 256-bit maps, so a lookup
/// is a bit test and a popcount per level, with no search and no hash.
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
    /// Per occupied /16: its occupied /24s' third octets, ranked from
    /// the dense index of its first /24.
    slash24s: Vec<Octets>,
    /// Per occupied /24: its hosts' last octets, ranked from its first
    /// host's rank.
    hosts: Vec<Octets>,
}

impl HostSet {
    /// Builds a set from strictly ascending addresses.
    ///
    /// # Errors
    ///
    /// Returns [`HostSetError`] naming the first duplicate or
    /// out-of-order entry.
    pub fn from_sorted_unique<I: IntoIterator<Item = Ip>>(
        addrs: I,
    ) -> Result<HostSet, HostSetError> {
        let mut set = HostSet {
            len: 0,
            slash8_bits: [0; 4],
            slash16_bits: Box::new([0; 1024]),
            slash16_rank: Box::new([0; 1024]),
            slash16_prefix: Vec::new(),
            slash24s: Vec::new(),
            hosts: Vec::new(),
        };
        let mut prev: Option<Ip> = None;
        // `slash16_rank` words before this one hold their final counts.
        let mut ranked = 0;
        // The open /24: its top 24 address bits and its hosts so far,
        // pushed as one map when the next /24 opens.
        let mut open: Option<u32> = None;
        let mut hosts = Octets::new(0);
        for (index, ip) in addrs.into_iter().enumerate() {
            match prev {
                Some(p) if ip == p => return Err(HostSetError::Duplicate { index, ip }),
                Some(p) if ip < p => return Err(HostSetError::Unsorted { index, ip }),
                _ => {}
            }
            let v = ip.value();
            let [_, _, octet3, octet4] = v.to_be_bytes();
            if open != Some(v >> 8) {
                if open.is_some() {
                    set.hosts.push(hosts.sealed());
                }
                if open.map(|s24| s24 >> 8) != Some(v >> 16) {
                    let s16 = (v >> 16) as usize;
                    // Every /16 already added lies in a word before this
                    // one's.
                    let occupied = set.slash16_prefix.len() as u32;
                    set.slash16_rank[ranked..=s16 >> 6].fill(occupied);
                    ranked = (s16 >> 6) + 1;
                    set.slash8_bits[s16 >> 14] |= 1 << ((s16 >> 8) & 63);
                    set.slash16_bits[s16 >> 6] |= 1 << (s16 & 63);
                    set.slash16_prefix.push(s16 as u16);
                    set.slash24s.push(Octets::new(set.hosts.len() as u32));
                }
                if let Some(slash24s) = set.slash24s.last_mut() {
                    slash24s.insert(octet3);
                }
                open = Some(v >> 8);
                hosts = Octets::new(set.len);
            }
            hosts.insert(octet4);
            set.len += 1;
            prev = Some(ip);
        }
        if open.is_some() {
            set.hosts.push(hosts.sealed());
        }
        for slash24s in &mut set.slash24s {
            *slash24s = slash24s.sealed();
        }
        set.slash16_rank[ranked..].fill(set.slash16_prefix.len() as u32);
        set.slash16_prefix.shrink_to_fit();
        set.slash24s.shrink_to_fit();
        set.hosts.shrink_to_fit();
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
    /// The walk is a /8 bit test, then a bit test plus popcount rank at
    /// each of the /16, /24 and host levels — no search, no hashing.
    #[inline]
    pub fn find(&self, ip: Ip) -> Option<u32> {
        let v = ip.value();
        let [octet1, _, octet3, octet4] = v.to_be_bytes();
        if self.slash8_bits[usize::from(octet1 >> 6)] & (1u64 << (octet1 & 63)) == 0 {
            return None;
        }
        let s16 = (v >> 16) as usize;
        let word = self.slash16_bits[s16 >> 6];
        let bit = 1u64 << (s16 & 63);
        if word & bit == 0 {
            return None;
        }
        let r16 = (self.slash16_rank[s16 >> 6] + (word & (bit - 1)).count_ones()) as usize;
        let r24 = self.slash24s[r16].rank(octet3)?;
        self.hosts[r24 as usize].rank(octet4)
    }

    /// Address of the host with rank `rank`, or `None` when out of
    /// range. Inverse of [`HostSet::find`]: two searches over the
    /// per-/24 and per-/16 rank bases, then the k-th set bit of each
    /// level's 256-bit map.
    pub fn select(&self, rank: u32) -> Option<Ip> {
        if rank >= self.len {
            return None;
        }
        // Last /24 (and /16) whose first rank is <= the wanted one.
        let r24 = self.hosts.partition_point(|h| h.base <= rank) - 1;
        let r16 = self.slash24s.partition_point(|s| s.base as usize <= r24) - 1;
        let slash24s = &self.slash24s[r16];
        let hosts = &self.hosts[r24];
        let prefix = u32::from(self.slash16_prefix[r16]) << 16;
        let octet3 = u32::from(slash24s.select(r24 as u32 - slash24s.base));
        let octet4 = u32::from(hosts.select(rank - hosts.base));
        Some(Ip::new(prefix | (octet3 << 8) | octet4))
    }

    /// Iterates the addresses in ascending (= rank) order without
    /// materialising a `Vec`.
    pub fn iter(&self) -> HostSetIter<'_> {
        HostSetIter {
            set: self,
            next16: 0,
            next24: 0,
            slash24s: Members::default(),
            hosts: Members::default(),
            prefix16: 0,
            prefix24: 0,
            left: self.len,
        }
    }

    /// Number of occupied /16 blocks.
    pub fn occupied_slash16s(&self) -> usize {
        self.slash16_prefix.len()
    }

    /// Heap bytes held by the structure (the /16 bitmap and its ranks,
    /// the /16 prefixes, and the 40-byte maps of every occupied /16 and
    /// /24). Deterministic — used for the memory accounting in
    /// `BENCH_engine.json`.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<[u64; 1024]>()
            + size_of::<[u32; 1024]>()
            + self.slash16_prefix.capacity() * size_of::<u16>()
            + (self.slash24s.capacity() + self.hosts.capacity()) * size_of::<Octets>()
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
/// [`HostSet::iter`]. Walks the set bits of each level in turn, so the
/// whole traversal is O(n).
#[derive(Debug, Clone)]
pub struct HostSetIter<'a> {
    set: &'a HostSet,
    /// Dense index of the next /16 and /24 to enter.
    next16: usize,
    next24: usize,
    /// The current /16's unvisited /24s and the current /24's unvisited
    /// hosts.
    slash24s: Members,
    hosts: Members,
    /// Top 16 and 24 address bits of the current /16 and /24.
    prefix16: u32,
    prefix24: u32,
    left: u32,
}

impl Iterator for HostSetIter<'_> {
    type Item = Ip;

    #[inline]
    fn next(&mut self) -> Option<Ip> {
        loop {
            if let Some(octet4) = self.hosts.next() {
                self.left -= 1;
                return Some(Ip::new((self.prefix24 << 8) | octet4));
            }
            if let Some(octet3) = self.slash24s.next() {
                self.prefix24 = (self.prefix16 << 8) | octet3;
                self.hosts = Members(self.set.hosts[self.next24].bits);
                self.next24 += 1;
                continue;
            }
            self.prefix16 = u32::from(*self.set.slash16_prefix.get(self.next16)?);
            self.slash24s = Members(self.set.slash24s[self.next16].bits);
            self.next16 += 1;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.left as usize;
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
        let set = HostSet::from_sorted_unique(addrs.clone()).unwrap();
        assert_eq!(set.len(), addrs.len() as u32);
        for (rank, &ip) in addrs.iter().enumerate() {
            assert_eq!(set.find(ip), Some(rank as u32), "find {ip}");
            assert_eq!(set.select(rank as u32), Some(ip), "select {rank}");
        }
        assert_eq!(set.select(addrs.len() as u32), None);
    }

    #[test]
    fn misses_at_every_level() {
        let set = HostSet::from_sorted_unique(sample()).unwrap();
        // /8 empty, /16 empty, /24 empty, last octet absent.
        assert_eq!(set.find(Ip::from_octets(12, 0, 0, 1)), None);
        assert_eq!(set.find(Ip::from_octets(11, 1, 0, 1)), None);
        assert_eq!(set.find(Ip::from_octets(11, 0, 9, 1)), None);
        assert_eq!(set.find(Ip::from_octets(11, 0, 0, 2)), None);
    }

    #[test]
    fn occupancy_counts() {
        let set = HostSet::from_sorted_unique(sample()).unwrap();
        assert_eq!(set.occupied_slash16s(), 4);
        let s16 = 0x0b00usize;
        assert_ne!(set.slash16_bits[s16 >> 6] & (1 << (s16 & 63)), 0);
    }

    #[test]
    fn iter_matches_input_and_is_exact_size() {
        let addrs = sample();
        let set = HostSet::from_sorted_unique(addrs.clone()).unwrap();
        assert_eq!(set.iter().len(), addrs.len());
        let collected: Vec<Ip> = set.iter().collect();
        assert_eq!(collected, addrs);
    }

    #[test]
    fn empty_set() {
        let set = HostSet::from_sorted_unique([]).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.find(Ip::from_octets(11, 0, 0, 1)), None);
        assert_eq!(set.select(0), None);
        assert_eq!(set.iter().count(), 0);
    }

    #[test]
    fn duplicate_and_unsorted_inputs_are_typed_errors() {
        let dup = [Ip::new(5), Ip::new(5)];
        assert_eq!(
            HostSet::from_sorted_unique(dup),
            Err(HostSetError::Duplicate {
                index: 1,
                ip: Ip::new(5)
            })
        );
        let unsorted = [Ip::new(9), Ip::new(3)];
        assert_eq!(
            HostSet::from_sorted_unique(unsorted),
            Err(HostSetError::Unsorted {
                index: 1,
                ip: Ip::new(3)
            })
        );
        let err = HostSet::from_sorted_unique(dup).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn heap_bytes_is_near_one_byte_per_host_at_scale() {
        // A full /16: 65,536 hosts in 256 /24s.
        let addrs = (0..65_536u32).map(|i| Ip::new(0x0b0b_0000 + i));
        let set = HostSet::from_sorted_unique(addrs).unwrap();
        assert_eq!(set.len(), 65_536);
        // Fixed overhead (bitmap + ranks) is 12 KiB, and each of the 257
        // maps is 40 bytes: well under one byte per host here.
        assert_eq!(set.heap_bytes(), 12_288 + 2 + 257 * 40);
        assert!(set.heap_bytes() < 65_536 / 2);
    }

    /// A sorted member list plus addresses to probe: a mix of uniform
    /// addresses, full /24s, single-host /24s and the two ends of the
    /// address space.
    fn members() -> impl Strategy<Value = Vec<u32>> {
        let uniform = proptest::collection::vec(any::<u32>(), 0..300);
        let full = proptest::collection::vec(any::<u32>().prop_map(|v| v & !0xff), 0..3);
        let single = proptest::collection::vec(any::<u32>(), 0..40);
        (uniform, full, single, any::<bool>(), any::<bool>()).prop_map(
            |(uniform, full, single, low, high)| {
                let mut values: std::collections::BTreeSet<u32> = uniform.into_iter().collect();
                for base in full {
                    values.extend(base..=base | 0xff);
                }
                for v in single {
                    // Hosts in a /24 no other member shares.
                    if !values.iter().any(|&m| m >> 8 == v >> 8) {
                        values.insert(v);
                    }
                }
                if low {
                    values.insert(0);
                }
                if high {
                    values.insert(u32::MAX);
                }
                values.into_iter().collect()
            },
        )
    }

    proptest! {
        /// `find`, `select` and `iter` agree with a sorted `Vec` on
        /// full /24s, single-host /24s and both ends of the address
        /// space, for every rank and for probes at every radix level.
        #[test]
        fn find_select_round_trip(
            values in members(),
            probes in proptest::collection::vec(any::<u32>(), 32),
        ) {
            let addrs: Vec<Ip> = values.iter().map(|&v| Ip::new(v)).collect();
            let set = HostSet::from_sorted_unique(addrs.iter().copied()).unwrap();
            prop_assert_eq!(set.len() as usize, addrs.len());
            prop_assert_eq!(set.iter().len(), addrs.len());
            prop_assert!(set.iter().eq(addrs.iter().copied()));
            for (rank, &ip) in addrs.iter().enumerate() {
                let rank = rank as u32;
                prop_assert_eq!(set.select(rank), Some(ip));
                prop_assert_eq!(set.select(rank).and_then(|ip| set.find(ip)), Some(rank));
            }
            prop_assert_eq!(set.select(addrs.len() as u32), None);
            // Each probe, a member's successor, and the probe's low
            // octets in the member's /24, /16 and /8 must answer as a
            // search of the Vec does.
            let near = values.iter().zip(probes.iter().cycle()).flat_map(|(&m, &p)| {
                [
                    m.wrapping_add(1),
                    (m & !0xff) | (p & 0xff),
                    (m & !0xffff) | (p & 0xffff),
                    (m & !0xff_ffff) | (p & 0xff_ffff),
                ]
            });
            for v in probes.iter().copied().chain(near) {
                let ip = Ip::new(v);
                let want = addrs.binary_search(&ip).ok().map(|r| r as u32);
                prop_assert_eq!(set.find(ip), want, "{}", ip);
            }
        }
    }
}
