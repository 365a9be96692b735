//! Keyed counting histograms.

use std::collections::BTreeMap;
use std::fmt;

/// A counting histogram over an ordered key type.
///
/// Keys are kept sorted (BTreeMap) so iterating a histogram over
/// [`Bucket24`](https://docs.rs/hotspots-ipspace) keys walks the address
/// space in order — exactly the x-axis of the paper's figures.
///
/// # Examples
///
/// ```
/// use hotspots_stats::CountHistogram;
///
/// let mut h = CountHistogram::new();
/// h.record(3u32);
/// h.record_n(5u32, 10);
/// assert_eq!(h.count(&5), 10);
/// assert_eq!(h.total(), 11);
/// assert_eq!(h.distinct(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountHistogram<K: Ord> {
    counts: BTreeMap<K, u64>,
    total: u64,
}

impl<K: Ord> CountHistogram<K> {
    /// Creates an empty histogram.
    pub fn new() -> CountHistogram<K> {
        CountHistogram {
            counts: BTreeMap::new(),
            total: 0,
        }
    }

    /// Adds one observation of `key`.
    pub fn record(&mut self, key: K) {
        self.record_n(key, 1);
    }

    /// Adds `n` observations of `key`.
    pub fn record_n(&mut self, key: K, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(key).or_insert(0) += n;
        self.total += n;
    }

    /// The count for `key` (0 if never recorded).
    pub fn count(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Total observations across all keys.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys observed at least once.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Iterates `(key, count)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, &v)| (k, v))
    }

    /// The counts in key order (the vector the uniformity metrics eat).
    ///
    /// Note this only includes keys that were observed; when testing
    /// uniformity over a *known* support (e.g. all 256 /24s of a /16), use
    /// [`CountHistogram::counts_over`] so zero cells count against
    /// uniformity.
    pub fn counts(&self) -> Vec<u64> {
        self.counts.values().copied().collect()
    }

    /// The counts over an explicit key universe, including zeros.
    pub fn counts_over<'a, I>(&self, universe: I) -> Vec<u64>
    where
        I: IntoIterator<Item = &'a K>,
        K: 'a,
    {
        universe.into_iter().map(|k| self.count(k)).collect()
    }

    /// The key with the largest count, if any (ties broken by key order).
    pub fn mode(&self) -> Option<(&K, u64)> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(k, &v)| (k, v))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: CountHistogram<K>) {
        for (k, v) in other.counts {
            self.record_n(k, v);
        }
    }
}

impl<K: Ord> Default for CountHistogram<K> {
    fn default() -> CountHistogram<K> {
        CountHistogram::new()
    }
}

impl<K: Ord> FromIterator<K> for CountHistogram<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> CountHistogram<K> {
        let mut h = CountHistogram::new();
        for k in iter {
            h.record(k);
        }
        h
    }
}

impl<K: Ord> Extend<K> for CountHistogram<K> {
    fn extend<I: IntoIterator<Item = K>>(&mut self, iter: I) {
        for k in iter {
            self.record(k);
        }
    }
}

impl<K: Ord + fmt::Display> fmt::Display for CountHistogram<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "histogram ({} keys, {} total)",
            self.distinct(),
            self.total
        )?;
        for (k, v) in self.iter() {
            writeln!(f, "  {k}: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_and_count() {
        let mut h = CountHistogram::new();
        assert!(h.is_empty());
        h.record("x");
        h.record("x");
        h.record("y");
        assert_eq!(h.count(&"x"), 2);
        assert_eq!(h.count(&"y"), 1);
        assert_eq!(h.count(&"z"), 0);
        assert_eq!(h.total(), 3);
        assert!(!h.is_empty());
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = CountHistogram::new();
        h.record_n("x", 0);
        assert!(h.is_empty());
        assert_eq!(h.distinct(), 0);
    }

    #[test]
    fn iter_is_key_ordered() {
        let h: CountHistogram<u32> = [5u32, 1, 3, 1].into_iter().collect();
        let keys: Vec<u32> = h.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [1, 3, 5]);
    }

    #[test]
    fn counts_over_includes_zeros() {
        let h: CountHistogram<u32> = [2u32, 2].into_iter().collect();
        let universe = [1u32, 2, 3];
        assert_eq!(h.counts_over(universe.iter()), vec![0, 2, 0]);
    }

    #[test]
    fn mode_picks_largest() {
        let h: CountHistogram<&str> = ["a", "b", "b", "c"].into_iter().collect();
        assert_eq!(h.mode(), Some((&"b", 2)));
        let empty: CountHistogram<&str> = CountHistogram::new();
        assert_eq!(empty.mode(), None);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a: CountHistogram<u8> = [1u8, 2].into_iter().collect();
        let b: CountHistogram<u8> = [2u8, 3].into_iter().collect();
        a.merge(b);
        assert_eq!(a.count(&1), 1);
        assert_eq!(a.count(&2), 2);
        assert_eq!(a.count(&3), 1);
        assert_eq!(a.total(), 4);
    }

    proptest! {
        #[test]
        fn total_equals_sum_of_counts(keys in proptest::collection::vec(0u8..16, 0..200)) {
            let h: CountHistogram<u8> = keys.iter().copied().collect();
            prop_assert_eq!(h.total(), h.counts().iter().sum::<u64>());
            prop_assert_eq!(h.total(), keys.len() as u64);
        }

        #[test]
        fn merge_conserves_mass(
            a in proptest::collection::vec(0u8..16, 0..100),
            b in proptest::collection::vec(0u8..16, 0..100),
        ) {
            let mut ha: CountHistogram<u8> = a.iter().copied().collect();
            let hb: CountHistogram<u8> = b.iter().copied().collect();
            let expected = ha.total() + hb.total();
            ha.merge(hb);
            prop_assert_eq!(ha.total(), expected);
        }
    }
}
