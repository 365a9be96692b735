//! Descriptive statistics.

use std::fmt;

/// Descriptive statistics of a sample: moments, extremes, and quantiles.
///
/// # Examples
///
/// ```
/// use hotspots_stats::Summary;
///
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.quantile(0.5), 2.0); // nearest-rank median of even-length sample
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    n: usize,
    mean: f64,
    std: f64,
    sorted: Vec<f64>,
}

impl Summary {
    /// Computes a summary of `values`. Returns `None` if `values` is empty
    /// or contains NaN.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| v.is_nan()) {
            return None;
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n,
            mean,
            std: var.sqrt(),
            sorted,
        })
    }

    /// Sample size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Minimum.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction") // hotspots-lint: allow(panic-path) reason="constructor rejects empty samples"
    }

    /// Median (nearest-rank: the lower median for even n).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The `q`-quantile by the nearest-rank definition: the smallest
    /// sorted value whose rank is at least `ceil(n * q)` (rank 1 for
    /// `q = 0`).
    ///
    /// The naive `(n * q) as usize` truncates instead of taking the
    /// ceiling, which shifts every non-boundary quantile one rank high
    /// — e.g. it reported the *upper* median of an even-length sample.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0, 1]");
        let rank = ((self.n as f64) * q).ceil() as usize;
        self.sorted[rank.max(1).min(self.n) - 1]
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} std={:.3} min={:.3} p50={:.3} p90={:.3} max={:.3}",
            self.n,
            self.mean,
            self.std,
            self.min(),
            self.median(),
            self.quantile(0.9),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_and_nan_rejected() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn quantiles_monotone() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert!(s.quantile(0.25) <= s.quantile(0.75));
    }

    #[test]
    fn quantile_hits_exact_nearest_ranks() {
        // n = 4: ceil(4q) ranks — q=0.5 is rank 2 (the LOWER median),
        // which the old truncating index got wrong (it returned 3.0)
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.quantile(0.5), 2.0);
        assert_eq!(s.median(), 2.0);
        assert_eq!(s.quantile(0.25), 1.0);
        assert_eq!(s.quantile(0.75), 3.0);
        assert_eq!(s.quantile(0.76), 4.0);

        // n = 5: odd length, the median is unambiguous
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!(s.median(), 30.0);
        assert_eq!(s.quantile(0.2), 10.0);
        assert_eq!(s.quantile(0.21), 20.0);
        assert_eq!(s.quantile(0.4), 20.0);
        assert_eq!(s.quantile(0.8), 40.0);
        assert_eq!(s.quantile(0.81), 50.0);

        // n = 1: every quantile is the single value
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.quantile(0.0), 7.0);
        assert_eq!(s.quantile(0.5), 7.0);
        assert_eq!(s.quantile(1.0), 7.0);
    }

    /// The textbook nearest-rank definition, written independently of
    /// the implementation: the smallest value with at least `n * q` of
    /// the sample at or below it.
    fn reference_nearest_rank(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len();
        let target = (n as f64) * q;
        for (i, &v) in sorted.iter().enumerate() {
            if (i + 1) as f64 >= target {
                return v;
            }
        }
        sorted[n - 1]
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn quantile_rejects_out_of_range() {
        Summary::of(&[1.0]).unwrap().quantile(1.5);
    }

    proptest! {
        #[test]
        fn mean_between_min_and_max(v in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let s = Summary::of(&v).unwrap();
            prop_assert!(s.min() <= s.mean() + 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
        }

        #[test]
        fn std_nonnegative(v in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            prop_assert!(Summary::of(&v).unwrap().std() >= 0.0);
        }

        #[test]
        fn quantile_matches_reference_nearest_rank(
            v in proptest::collection::vec(-1e6f64..1e6, 1..100),
            q in 0.0f64..1.0,
        ) {
            let s = Summary::of(&v).unwrap();
            let mut sorted = v.clone();
            sorted.sort_by(f64::total_cmp);
            prop_assert_eq!(s.quantile(q), reference_nearest_rank(&sorted, q));
            // q = 1.0 sits outside the generated range; pin it here
            prop_assert_eq!(s.quantile(1.0), *sorted.last().unwrap());
        }
    }
}
