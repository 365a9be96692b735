//! Hit-list scanning: pre-programmed target ranges.

use std::fmt;

use hotspots_ipspace::{Bucket16, Ip, Prefix};
use hotspots_prng::Prng32;

use crate::TargetGenerator;

/// Errors constructing a [`HitList`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HitListError {
    /// A hit-list needs at least one prefix.
    Empty,
    /// Two prefixes overlap, which would double-weight their intersection.
    Overlap {
        /// The first of the overlapping pair.
        a: Prefix,
        /// The second of the overlapping pair.
        b: Prefix,
    },
}

impl fmt::Display for HitListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HitListError::Empty => write!(f, "hit-list must contain at least one prefix"),
            HitListError::Overlap { a, b } => {
                write!(f, "hit-list prefixes overlap: {a} and {b}")
            }
        }
    }
}

impl std::error::Error for HitListError {}

/// An ordered set of disjoint CIDR prefixes with uniform sampling over
/// the union of their addresses: O(1) when every prefix has one size
/// (every [`HitList::top_k_slash16`] list), O(log n) otherwise.
///
/// Bots in the paper's Table 1 carry hit-lists like `192.s.s.s` (one /8)
/// or `advscan … 194.x.x` ranges; the Fig 5 simulations use lists of /16
/// networks chosen to cover the vulnerable population.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Prefix;
/// use hotspots_targeting::HitList;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let list = HitList::new(vec![
///     "10.1.0.0/16".parse::<Prefix>()?,
///     "192.168.0.0/16".parse::<Prefix>()?,
/// ])?;
/// assert_eq!(list.address_count(), 2 * 65536);
/// assert!(list.contains("10.1.200.7".parse()?));
/// assert!(!list.contains("10.2.0.0".parse()?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HitList {
    prefixes: Vec<Prefix>,
    /// cumulative[i] = number of addresses in prefixes[..i]
    cumulative: Vec<u64>,
    /// (start, inclusive end) spans sorted by start, for O(log n) lookup
    sorted_spans: Vec<(u32, u32)>,
    total: u64,
    /// log2 of the prefix size when every prefix has the same size:
    /// [`HitList::nth`] then finds the prefix with a shift, not a search.
    uniform_shift: Option<u32>,
}

impl HitList {
    /// Builds a hit-list from disjoint prefixes (order is preserved for
    /// display; sampling weights each prefix by its size).
    ///
    /// # Errors
    ///
    /// [`HitListError::Empty`] if `prefixes` is empty;
    /// [`HitListError::Overlap`] if any two prefixes overlap.
    pub fn new(prefixes: Vec<Prefix>) -> Result<HitList, HitListError> {
        if prefixes.is_empty() {
            return Err(HitListError::Empty);
        }
        let mut sorted = prefixes.clone();
        sorted.sort_by_key(|p| p.base());
        for w in sorted.windows(2) {
            if w[0].overlaps(w[1]) {
                return Err(HitListError::Overlap { a: w[0], b: w[1] });
            }
        }
        let mut cumulative = Vec::with_capacity(prefixes.len());
        let mut total = 0u64;
        for p in &prefixes {
            cumulative.push(total);
            total += p.size();
        }
        let sorted_spans = sorted
            .iter()
            .map(|p| (p.base().value(), p.last_ip().value()))
            .collect();
        let len = prefixes[0].len();
        let uniform_shift = prefixes
            .iter()
            .all(|p| p.len() == len)
            .then(|| 32 - u32::from(len));
        Ok(HitList {
            prefixes,
            cumulative,
            sorted_spans,
            total,
            uniform_shift,
        })
    }

    /// Builds the greedy /16 hit-list of size `k` covering as many of
    /// `population` as possible — the construction the paper uses for its
    /// Fig 5a/5b simulations ("each /16 was chosen to cover as many
    /// remaining vulnerable hosts as possible").
    ///
    /// If the population occupies fewer than `k` distinct /16s, the list
    /// contains one entry per occupied /16.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `population` is empty.
    pub fn top_k_slash16(population: &[Ip], k: usize) -> HitList {
        assert!(k > 0, "k must be positive");
        assert!(!population.is_empty(), "population must be non-empty");
        let mut per16: std::collections::HashMap<Bucket16, u64> = std::collections::HashMap::new();
        for &ip in population {
            *per16.entry(ip.bucket16()).or_insert(0) += 1;
        }
        let mut buckets: Vec<(Bucket16, u64)> = per16.into_iter().collect();
        // most-covering first; ties broken by address order for determinism
        buckets.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let prefixes: Vec<Prefix> = buckets
            .into_iter()
            .take(k)
            .map(|(b, _)| b.prefix())
            .collect();
        // hotspots-lint: allow(panic-path) reason="distinct /16 buckets are disjoint and non-empty"
        HitList::new(prefixes).expect("distinct /16 buckets are disjoint and non-empty")
    }

    /// The prefixes, in construction order.
    pub fn prefixes(&self) -> &[Prefix] {
        &self.prefixes
    }

    /// Total number of addresses covered.
    pub fn address_count(&self) -> u64 {
        self.total
    }

    /// Returns `true` if `ip` is covered by any prefix (O(log n)).
    pub fn contains(&self, ip: Ip) -> bool {
        let v = ip.value();
        let i = self.sorted_spans.partition_point(|s| s.0 <= v);
        i > 0 && v <= self.sorted_spans[i - 1].1
    }

    /// Fraction of `population` covered by the list.
    pub fn coverage(&self, population: &[Ip]) -> f64 {
        if population.is_empty() {
            return 0.0;
        }
        let hit = population.iter().filter(|&&ip| self.contains(ip)).count();
        hit as f64 / population.len() as f64
    }

    /// The `index`-th address of the union, in prefix order
    /// (`0 <= index < address_count()`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.address_count()`.
    #[inline]
    pub fn nth(&self, index: u64) -> Ip {
        assert!(index < self.total, "hit-list index {index} out of range");
        match self.uniform_shift {
            Some(shift) => {
                self.prefixes[(index >> shift) as usize].nth(index & ((1u64 << shift) - 1))
            }
            None => self.nth_searched(index),
        }
    }

    /// [`HitList::nth`] by a binary search of the cumulative offsets:
    /// the draw for lists whose prefixes differ in size.
    fn nth_searched(&self, index: u64) -> Ip {
        let i = match self.cumulative.binary_search(&index) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        self.prefixes[i].nth(index - self.cumulative[i])
    }
}

impl fmt::Display for HitList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hitlist[{} prefixes, {} addrs]",
            self.prefixes.len(),
            self.total
        )
    }
}

/// A worm that scans uniformly *within* a hit-list: every probe targets a
/// uniformly random covered address.
///
/// # Examples
///
/// ```
/// use hotspots_prng::SplitMix;
/// use hotspots_targeting::{HitList, HitListScanner, TargetGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let list = HitList::new(vec!["172.16.0.0/16".parse()?])?;
/// let mut worm = HitListScanner::new(list, SplitMix::new(4));
/// for _ in 0..100 {
///     assert!(worm.next_target().octets()[0] == 172);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HitListScanner<P> {
    list: std::sync::Arc<HitList>,
    prng: P,
}

impl<P: Prng32> HitListScanner<P> {
    /// Creates a scanner over `list` driven by `prng`.
    ///
    /// The list is reference-counted internally: pass an
    /// `Arc<HitList>` (or share one scanner's [`HitListScanner::shared_list`])
    /// when instantiating thousands of scanners over the same large list,
    /// so the prefix table is stored once instead of per instance.
    pub fn new(list: impl Into<std::sync::Arc<HitList>>, prng: P) -> HitListScanner<P> {
        HitListScanner {
            list: list.into(),
            prng,
        }
    }

    /// The hit-list being scanned.
    pub fn list(&self) -> &HitList {
        &self.list
    }

    /// A shareable handle to the hit-list (cheap to clone).
    pub fn shared_list(&self) -> std::sync::Arc<HitList> {
        std::sync::Arc::clone(&self.list)
    }
}

impl<P: Prng32> TargetGenerator for HitListScanner<P> {
    #[inline]
    fn next_target(&mut self) -> Ip {
        let total = self.list.address_count();
        // 64-bit reduction to cover lists up to the full address space
        let r = u64::from(self.prng.next_u32());
        let idx = (r * total) >> 32;
        self.list.nth(idx)
    }

    fn fill_targets(&mut self, n: usize, out: &mut Vec<Ip>) {
        out.reserve(n);
        let total = self.list.address_count();
        for _ in 0..n {
            let r = u64::from(self.prng.next_u32());
            out.push(self.list.nth((r * total) >> 32));
        }
    }

    fn strategy(&self) -> &'static str {
        "hit-list"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspots_prng::SplitMix;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn new_rejects_empty_and_overlap() {
        assert_eq!(HitList::new(vec![]), Err(HitListError::Empty));
        let err = HitList::new(vec![p("10.0.0.0/8"), p("10.1.0.0/16")]).unwrap_err();
        assert!(matches!(err, HitListError::Overlap { .. }));
    }

    #[test]
    fn nth_walks_union_in_order() {
        let list = HitList::new(vec![p("10.0.0.0/30"), p("192.168.0.0/31")]).unwrap();
        assert_eq!(list.address_count(), 6);
        let all: Vec<String> = (0..6).map(|i| list.nth(i).to_string()).collect();
        assert_eq!(
            all,
            [
                "10.0.0.0",
                "10.0.0.1",
                "10.0.0.2",
                "10.0.0.3",
                "192.168.0.0",
                "192.168.0.1"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nth_panics_past_end() {
        let list = HitList::new(vec![p("10.0.0.0/30")]).unwrap();
        let _ = list.nth(4);
    }

    #[test]
    fn scanner_stays_inside_list() {
        let list = HitList::new(vec![p("10.20.0.0/16"), p("10.99.0.0/16")]).unwrap();
        let mut worm = HitListScanner::new(list.clone(), SplitMix::new(77));
        for _ in 0..10_000 {
            let t = worm.next_target();
            assert!(list.contains(t), "{t} outside list");
        }
    }

    #[test]
    fn scanner_weights_prefixes_by_size() {
        // a /16 should receive ~256x the probes of a /24
        let list = HitList::new(vec![p("10.0.0.0/16"), p("20.0.0.0/24")]).unwrap();
        let mut worm = HitListScanner::new(list, SplitMix::new(5));
        let mut big = 0u32;
        let mut small = 0u32;
        for _ in 0..100_000 {
            if worm.next_target().octets()[0] == 10 {
                big += 1;
            } else {
                small += 1;
            }
        }
        let ratio = f64::from(big) / f64::from(small.max(1));
        assert!((100.0..700.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn top_k_slash16_greedy_coverage() {
        // population: 50 hosts in 10.1/16, 30 in 10.2/16, 5 in 10.3/16
        let mut pop = Vec::new();
        for i in 0..50u32 {
            pop.push(Ip::from_octets(10, 1, 0, i as u8));
        }
        for i in 0..30u32 {
            pop.push(Ip::from_octets(10, 2, 0, i as u8));
        }
        for i in 0..5u32 {
            pop.push(Ip::from_octets(10, 3, 0, i as u8));
        }
        let top1 = HitList::top_k_slash16(&pop, 1);
        assert_eq!(top1.prefixes()[0].to_string(), "10.1.0.0/16");
        assert!((top1.coverage(&pop) - 50.0 / 85.0).abs() < 1e-9);
        let top2 = HitList::top_k_slash16(&pop, 2);
        assert!((top2.coverage(&pop) - 80.0 / 85.0).abs() < 1e-9);
        let top99 = HitList::top_k_slash16(&pop, 99);
        assert_eq!(top99.prefixes().len(), 3, "only occupied /16s included");
        assert_eq!(top99.coverage(&pop), 1.0);
    }

    #[test]
    fn coverage_of_empty_population_is_zero() {
        let list = HitList::new(vec![p("10.0.0.0/16")]).unwrap();
        assert_eq!(list.coverage(&[]), 0.0);
    }

    proptest! {
        #[test]
        fn contains_agrees_with_linear_scan(v in proptest::prelude::any::<u32>()) {
            let list = HitList::new(vec![
                p("10.0.0.0/24"), p("10.0.2.0/24"), p("200.1.0.0/16"), p("9.9.9.9/32"),
            ]).unwrap();
            let ip = Ip::new(v);
            let linear = list.prefixes().iter().any(|q| q.contains(ip));
            proptest::prop_assert_eq!(list.contains(ip), linear);
        }

        #[test]
        fn nth_is_a_bijection_into_union(indices in proptest::collection::vec(0u64..512, 1..64)) {
            let list = HitList::new(vec![p("10.0.0.0/24"), p("10.0.2.0/24")]).unwrap();
            for &i in &indices {
                let ip = list.nth(i % list.address_count());
                prop_assert!(list.contains(ip));
            }
        }

        /// The shift draw picks the address the binary search picks, on
        /// lists of equal-size prefixes (the shift applies) and of mixed
        /// sizes (it does not).
        #[test]
        fn nth_agrees_with_the_binary_search(
            slash16s in proptest::collection::vec(any::<u16>(), 1..40),
            lens in proptest::collection::vec(16u8..=32, 40),
            uniform in any::<bool>(),
            draws in proptest::collection::vec(any::<u64>(), 64),
        ) {
            let mut seen = std::collections::BTreeSet::new();
            let prefixes: Vec<Prefix> = slash16s
                .iter()
                .filter(|&&s| seen.insert(s))
                .zip(&lens)
                .map(|(&s, &len)| {
                    let len = if uniform { lens[0] } else { len };
                    Prefix::new(Ip::new(u32::from(s) << 16), len).unwrap()
                })
                .collect();
            let list = HitList::new(prefixes).unwrap();
            let equal = list.prefixes().iter().all(|q| q.len() == list.prefixes()[0].len());
            prop_assert_eq!(list.uniform_shift.is_some(), equal);
            let total = list.address_count();
            let edges = list.cumulative.iter().flat_map(|&c| [c, c.saturating_sub(1)]);
            for i in draws.iter().map(|&d| d % total).chain(edges).chain([total - 1]) {
                prop_assert_eq!(list.nth(i), list.nth_searched(i), "index {}", i);
            }
        }

        #[test]
        fn scanner_distribution_covers_all_prefixes(seed in any::<u64>()) {
            let list = HitList::new(vec![p("10.0.0.0/28"), p("11.0.0.0/28")]).unwrap();
            let mut worm = HitListScanner::new(list, SplitMix::new(seed));
            let mut seen10 = false;
            let mut seen11 = false;
            for _ in 0..256 {
                match worm.next_target().octets()[0] {
                    10 => seen10 = true,
                    11 => seen11 = true,
                    other => prop_assert!(false, "octet {other} escaped the list"),
                }
            }
            prop_assert!(seen10 && seen11);
        }
    }
}
