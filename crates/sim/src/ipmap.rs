//! A fast open-addressed map from 32-bit addresses to host indices: the
//! per-realm index of NATed hosts' private addresses.
//!
//! `std`'s SipHash-based `HashMap` spends more time hashing one `u32`
//! than a probe's routing; this map uses a SplitMix-style
//! multiplicative hash and linear probing over a power-of-two table.

/// An open-addressed `u32 → u32` map specialized for address lookup.
///
/// Insert-only (populations don't shrink mid-outbreak). Keys are
/// arbitrary 32-bit values; values are host indices.
#[derive(Debug, Clone)]
pub(crate) struct IpMap {
    /// slot = (key, value); EMPTY key sentinel handled via `occupied` mask
    /// packed into value (u64: high 32 = key, low 32 = value, EMPTY = u64::MAX).
    slots: Vec<u64>,
    mask: usize,
    len: usize,
}

const EMPTY: u64 = u64::MAX;

impl IpMap {
    /// Creates a map sized for at least `capacity` entries at ≤ 50% load.
    pub fn with_capacity(capacity: usize) -> IpMap {
        let table = (capacity.max(8) * 2).next_power_of_two();
        IpMap {
            slots: vec![EMPTY; table],
            mask: table - 1,
            len: 0,
        }
    }

    #[inline]
    fn slot_of(&self, key: u32) -> usize {
        // SplitMix-style avalanche of the key
        let mut h = u64::from(key).wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (h ^ (h >> 31)) as usize & self.mask
    }

    /// Inserts `key → value`, returning the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: u32, value: u32) -> Option<u32> {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let packed = (u64::from(key) << 32) | u64::from(value);
        assert_ne!(
            packed, EMPTY,
            "(u32::MAX, u32::MAX) is reserved as the empty sentinel"
        );
        let mut i = self.slot_of(key);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                self.slots[i] = packed;
                self.len += 1;
                return None;
            }
            if (slot >> 32) as u32 == key {
                let old = slot as u32;
                self.slots[i] = packed;
                return Some(old);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Looks up `key`.
    #[inline]
    pub fn get(&self, key: u32) -> Option<u32> {
        let mut i = self.slot_of(key);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            if (slot >> 32) as u32 == key {
                return Some(slot as u32);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Heap bytes held by the slot table.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>()
    }

    fn grow(&mut self) {
        let bigger = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; bigger]);
        self.mask = bigger - 1;
        self.len = 0;
        for slot in old {
            if slot != EMPTY {
                self.insert((slot >> 32) as u32, slot as u32);
            }
        }
    }
}

impl Default for IpMap {
    fn default() -> IpMap {
        IpMap::with_capacity(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_roundtrip() {
        let mut m = IpMap::with_capacity(4);
        assert_eq!(m.len, 0);
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(2, 20), None);
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.get(2), Some(20));
        assert_eq!(m.get(3), None);
        assert_eq!(m.len, 2);
    }

    #[test]
    fn insert_overwrites_and_returns_old() {
        let mut m = IpMap::default();
        m.insert(5, 1);
        assert_eq!(m.insert(5, 2), Some(1));
        assert_eq!(m.get(5), Some(2));
        assert_eq!(m.len, 1);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut m = IpMap::with_capacity(4);
        for i in 0..10_000u32 {
            m.insert(i.wrapping_mul(2_654_435_761), i);
        }
        assert_eq!(m.len, 10_000);
        for i in 0..10_000u32 {
            assert_eq!(m.get(i.wrapping_mul(2_654_435_761)), Some(i));
        }
    }

    #[test]
    fn extreme_keys_work() {
        let mut m = IpMap::default();
        m.insert(0, 0);
        m.insert(u32::MAX, u32::MAX - 1);
        assert_eq!(m.get(0), Some(0));
        assert_eq!(m.get(u32::MAX), Some(u32::MAX - 1));
    }

    proptest! {
        #[test]
        fn behaves_like_std_hashmap(ops in proptest::collection::vec((any::<u16>(), any::<u32>()), 0..500)) {
            // u16 keys force collisions
            let mut ours = IpMap::default();
            let mut reference: HashMap<u32, u32> = HashMap::new();
            for (k, v) in ops {
                let k = u32::from(k);
                prop_assert_eq!(ours.insert(k, v), reference.insert(k, v));
            }
            for (&k, &v) in &reference {
                prop_assert_eq!(ours.get(k), Some(v));
            }
            prop_assert_eq!(ours.len, reference.len());
        }
    }
}
