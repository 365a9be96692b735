//! Packed per-host state bits for the engine's streaming phases.
//!
//! The step loop tracks one boolean fact per host: whether it is
//! claimed (seeded, infected, removed or awaiting activation), i.e.
//! whether a probe can still infect it. As populations grow to millions
//! of hosts, `Vec<bool>` burns a cache line per 64 hosts; a packed
//! [`HostBits`] keeps that state of a 1M-host run in ~125 KB — small
//! enough that the batched lookup/merge phases stream it from L2
//! instead of main memory. Bits are only ever set: a claimed host stays
//! claimed for the rest of the run.

/// A fixed-length packed bitset indexed by host id.
///
/// # Examples
///
/// ```
/// use hotspots_sim::HostBits;
///
/// let mut bits = HostBits::new(100);
/// assert!(!bits.get(7));
/// bits.set(7);
/// assert!(bits.get(7));
/// assert!(!bits.get(8));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostBits {
    words: Vec<u64>,
    len: usize,
}

impl HostBits {
    /// Creates a bitset of `len` zero bits.
    pub fn new(len: usize) -> HostBits {
        HostBits {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` (same bounds discipline as slice indexing).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range");
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Sets bit `i` to 1.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range");
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Heap bytes held by the bitset.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_across_word_boundaries() {
        let mut bits = HostBits::new(200);
        assert_eq!(bits.len(), 200);
        assert!(!bits.is_empty());
        for i in [0, 1, 63, 65, 127, 128, 199] {
            assert!(!bits.get(i));
            bits.set(i);
            assert!(bits.get(i));
        }
        assert_eq!(bits.count_ones(), 7);
        assert!(!bits.get(64), "neighbours untouched");
        bits.set(64);
        assert!(bits.get(63) && bits.get(64) && bits.get(65));
        assert_eq!(bits.count_ones(), 8);
        bits.set(64);
        assert_eq!(bits.count_ones(), 8, "setting a set bit is a no-op");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_bounds_checked() {
        let bits = HostBits::new(64);
        let _ = bits.get(64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_bounds_checked() {
        let mut bits = HostBits::new(0);
        bits.set(0);
    }

    #[test]
    fn heap_bytes_packs_64_per_word() {
        assert_eq!(HostBits::new(64).heap_bytes(), 8);
        assert_eq!(HostBits::new(65).heap_bytes(), 16);
        assert_eq!(HostBits::new(1_000_000).heap_bytes(), 125_000);
    }
}
