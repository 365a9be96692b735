//! Streaming statistics: single-pass accumulators for per-probe data.
//!
//! The engine produces billions of probe events; these accumulators keep
//! O(1) state per metric so observers can compute statistics without
//! buffering the stream.

use std::fmt;

/// Welford's online algorithm for count/mean/variance/extremes.
///
/// Numerically stable in one pass; merging two accumulators is exact
/// (parallel-friendly).
///
/// # Examples
///
/// ```
/// use hotspots_stats::Welford;
///
/// let mut w = Welford::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(v);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_std(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Welford {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn push(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN observation");
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 before two observations).
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Minimum (`None` before any observation).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum (`None` before any observation).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (exact).
    pub fn merge(&mut self, other: Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Welford {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} std={:.4} min={} max={}",
            self.count,
            self.mean,
            self.population_std(),
            self.min().map_or_else(|| "-".into(), |v| format!("{v:.4}")),
            self.max().map_or_else(|| "-".into(), |v| format!("{v:.4}")),
        )
    }
}

/// An empirical CDF over a collected sample.
///
/// # Examples
///
/// ```
/// use hotspots_stats::Ecdf;
///
/// let e = Ecdf::new(vec![1.0, 2.0, 2.0, 10.0]).unwrap();
/// assert_eq!(e.fraction_at_or_below(2.0), 0.75);
/// assert_eq!(e.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF; `None` for empty or NaN-containing samples.
    pub fn new(mut sample: Vec<f64>) -> Option<Ecdf> {
        if sample.is_empty() || sample.iter().any(|v| v.is_nan()) {
            return None;
        }
        sample.sort_by(f64::total_cmp);
        Some(Ecdf { sorted: sample })
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// ECDFs are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `F(x)`: fraction of the sample ≤ `x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        let k = self.sorted.partition_point(|&v| v <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// Nearest-rank quantile, `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0, 1]");
        let idx = ((self.sorted.len() as f64) * q).ceil() as usize;
        self.sorted[idx.saturating_sub(1).min(self.sorted.len() - 1)]
    }

    /// The two-sample Kolmogorov–Smirnov statistic
    /// `sup |F_a − F_b|` — a distribution-shape distance used by the
    /// ablation comparisons.
    pub fn ks_statistic(&self, other: &Ecdf) -> f64 {
        let mut points: Vec<f64> = self
            .sorted
            .iter()
            .chain(other.sorted.iter())
            .copied()
            .collect();
        points.sort_by(f64::total_cmp);
        points
            .into_iter()
            .map(|x| (self.fraction_at_or_below(x) - other.fraction_at_or_below(x)).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn welford_matches_batch_summary() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut w = Welford::new();
        for v in data {
            w.push(v);
        }
        let batch = crate::Summary::of(&data).unwrap();
        assert!((w.mean() - batch.mean()).abs() < 1e-12);
        assert!((w.population_std() - batch.std()).abs() < 1e-12);
        assert_eq!(w.min(), Some(1.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.min(), None);
        let mut one = Welford::new();
        one.push(5.0);
        assert_eq!(one.mean(), 5.0);
        assert_eq!(one.population_variance(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn welford_rejects_nan() {
        Welford::new().push(f64::NAN);
    }

    #[test]
    fn ecdf_basics() {
        assert!(Ecdf::new(vec![]).is_none());
        assert!(Ecdf::new(vec![1.0, f64::NAN]).is_none());
        let e = Ecdf::new(vec![5.0, 1.0, 3.0]).unwrap();
        assert_eq!(e.fraction_at_or_below(0.0), 0.0);
        assert_eq!(e.fraction_at_or_below(3.0), 2.0 / 3.0);
        assert_eq!(e.fraction_at_or_below(100.0), 1.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 5.0);
    }

    #[test]
    fn ks_statistic_extremes() {
        let a = Ecdf::new(vec![1.0, 2.0, 3.0]).unwrap();
        let same = Ecdf::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.ks_statistic(&same), 0.0);
        let far = Ecdf::new(vec![100.0, 200.0]).unwrap();
        assert_eq!(a.ks_statistic(&far), 1.0);
    }

    proptest! {
        #[test]
        fn welford_merge_equals_sequential(
            a in proptest::collection::vec(-1e6f64..1e6, 0..50),
            b in proptest::collection::vec(-1e6f64..1e6, 0..50),
        ) {
            let mut merged = Welford::new();
            let mut left = Welford::new();
            let mut right = Welford::new();
            for &v in &a { merged.push(v); left.push(v); }
            for &v in &b { merged.push(v); right.push(v); }
            left.merge(right);
            prop_assert_eq!(left.count(), merged.count());
            let mean_scale = merged.mean().abs().max(1.0);
            prop_assert!((left.mean() - merged.mean()).abs() / mean_scale < 1e-9);
            let var_scale = merged.population_variance().abs().max(1.0);
            prop_assert!(
                (left.population_variance() - merged.population_variance()).abs() / var_scale
                    < 1e-9
            );
        }

        #[test]
        fn ecdf_is_monotone(sample in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let e = Ecdf::new(sample).unwrap();
            let mut prev = 0.0;
            for i in -10..=10 {
                let x = f64::from(i) * 100.0;
                let f = e.fraction_at_or_below(x);
                prop_assert!(f >= prev);
                prop_assert!((0.0..=1.0).contains(&f));
                prev = f;
            }
        }
    }
}
