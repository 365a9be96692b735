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
    }
}
