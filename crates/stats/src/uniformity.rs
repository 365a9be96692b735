//! Deviation-from-uniformity metrics.
//!
//! The paper defines hotspots as "deviations from uniform propagation".
//! These functions quantify that deviation for a vector of per-cell counts
//! (typically per-/24 unique-source counts across a sensor's address
//! range).
//!
//! * [`gini`] — 0 for perfectly even counts, → 1 as mass concentrates;
//! * [`normalized_entropy`] — 1 for uniform, → 0 as mass concentrates;
//! * [`chi_square_uniform`] — the classical χ² goodness-of-fit statistic
//!   against the uniform null, with an approximate p-value;
//! * [`kl_divergence_uniform`] — information gain over the uniform model;
//! * [`max_median_ratio`] — the "orders of magnitude between sensors"
//!   headline number from the darknet measurement papers.

/// The Gini coefficient of a count vector (0 = perfectly uniform,
/// approaching 1 = all mass in one cell).
///
/// Returns 0 for empty or all-zero inputs.
///
/// # Examples
///
/// ```
/// use hotspots_stats::uniformity::gini;
///
/// assert_eq!(gini(&[5, 5, 5, 5]), 0.0);
/// assert!(gini(&[0, 0, 0, 20]) > 0.7);
/// ```
pub fn gini(counts: &[u64]) -> f64 {
    let n = counts.len();
    if n == 0 {
        return 0.0;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = counts.to_vec();
    sorted.sort_unstable();
    // G = (2 Σ_i i·x_(i) / (n Σ x)) − (n+1)/n, with 1-based i
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    let nf = n as f64;
    (2.0 * weighted) / (nf * total as f64) - (nf + 1.0) / nf
}

/// Shannon entropy (in bits) of the empirical distribution defined by
/// `counts`. Zero cells contribute nothing; returns 0 for empty/all-zero
/// input.
pub fn shannon_entropy(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / t;
            -p * p.log2()
        })
        .sum()
}

/// Entropy normalized by `log2(n)`: 1.0 means perfectly uniform over the
/// `n` cells, lower values mean concentration. Returns 0 for fewer than
/// two cells.
///
/// # Examples
///
/// ```
/// use hotspots_stats::uniformity::normalized_entropy;
///
/// assert!((normalized_entropy(&[3, 3, 3, 3]) - 1.0).abs() < 1e-12);
/// assert!(normalized_entropy(&[100, 0, 0, 0]) < 0.01);
/// ```
pub fn normalized_entropy(counts: &[u64]) -> f64 {
    if counts.len() < 2 {
        return 0.0;
    }
    shannon_entropy(counts) / (counts.len() as f64).log2()
}

/// Result of a χ² goodness-of-fit test against the uniform distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquare {
    /// The χ² statistic.
    pub statistic: f64,
    /// Degrees of freedom (`cells − 1`).
    pub degrees_of_freedom: u64,
    /// Approximate p-value under the null (uniform), via the
    /// Wilson–Hilferty cube-root normal approximation. Accurate to a few
    /// decimal places for df ≥ 3, which is ample for "reject/don't
    /// reject at 0.01" judgments.
    pub p_value: f64,
}

impl ChiSquare {
    /// Convenience: is the deviation significant at the given level?
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// χ² test of `counts` against the uniform null.
///
/// Returns `None` for fewer than 2 cells or zero total (no test possible).
///
/// # Examples
///
/// ```
/// use hotspots_stats::uniformity::chi_square_uniform;
///
/// let even = chi_square_uniform(&[10, 11, 9, 10]).unwrap();
/// assert!(!even.is_significant(0.01));
/// let spiked = chi_square_uniform(&[1, 1, 1, 97]).unwrap();
/// assert!(spiked.is_significant(0.001));
/// ```
pub fn chi_square_uniform(counts: &[u64]) -> Option<ChiSquare> {
    let k = counts.len();
    if k < 2 {
        return None;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let expected = total as f64 / k as f64;
    let statistic: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    let df = (k - 1) as u64;
    Some(ChiSquare {
        statistic,
        degrees_of_freedom: df,
        p_value: chi_square_sf(statistic, df as f64),
    })
}

/// Kullback–Leibler divergence (bits) of the empirical distribution from
/// the uniform distribution over the same cells. 0 iff exactly uniform.
pub fn kl_divergence_uniform(counts: &[u64]) -> f64 {
    if counts.len() < 2 {
        return 0.0;
    }
    let n = counts.len() as f64;
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / t;
            p * (p * n).log2()
        })
        .sum()
}

/// Ratio of the maximum cell to the median cell (∞ if the median is 0 but
/// the max is not). The darknet measurement literature reports
/// "orders-of-magnitude" differences between sensors with this flavor of
/// statistic.
///
/// Returns 1.0 for empty input.
pub fn max_median_ratio(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let mut sorted: Vec<u64> = counts.to_vec();
    sorted.sort_unstable();
    let max = *sorted.last().expect("non-empty"); // hotspots-lint: allow(panic-path) reason="guarded by the is_empty check above"
    let median = sorted[sorted.len() / 2];
    if median == 0 {
        if max == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        max as f64 / median as f64
    }
}

/// χ² test of `counts` against a null in which cell `i` expects mass
/// proportional to `weights[i]` — the right test when cells cover
/// different amounts of address space (e.g. a /16 row next to /24 rows).
///
/// Returns `None` when no test is possible (fewer than 2 cells, zero
/// total, or non-positive weights).
///
/// # Panics
///
/// Panics if `counts` and `weights` have different lengths.
///
/// # Examples
///
/// ```
/// use hotspots_stats::uniformity::chi_square_weighted;
///
/// // cell 0 is 4× the size of cell 1: 80/20 is perfectly proportional
/// let t = chi_square_weighted(&[80, 20], &[4.0, 1.0]).unwrap();
/// assert!(!t.is_significant(0.05));
/// let t = chi_square_weighted(&[20, 80], &[4.0, 1.0]).unwrap();
/// assert!(t.is_significant(0.001));
/// ```
pub fn chi_square_weighted(counts: &[u64], weights: &[f64]) -> Option<ChiSquare> {
    assert_eq!(
        counts.len(),
        weights.len(),
        "counts/weights length mismatch"
    );
    let k = counts.len();
    if k < 2 {
        return None;
    }
    let total: u64 = counts.iter().sum();
    let weight_sum: f64 = weights.iter().sum();
    if total == 0 || weight_sum <= 0.0 || weights.iter().any(|&w| w <= 0.0 || w.is_nan()) {
        return None;
    }
    let statistic: f64 = counts
        .iter()
        .zip(weights)
        .map(|(&c, &w)| {
            let expected = total as f64 * w / weight_sum;
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    let df = (k - 1) as u64;
    Some(ChiSquare {
        statistic,
        degrees_of_freedom: df,
        p_value: chi_square_sf(statistic, df as f64),
    })
}

/// Weighted Gini coefficient of per-cell `rates`, where cell `i` carries
/// population share `weights[i]` (address-space size). 0 means every
/// address sees the same rate; → 1 means the mass piles onto a sliver of
/// the space.
///
/// Returns 0 for degenerate input (empty, zero weights, zero rates).
///
/// # Panics
///
/// Panics if the slices have different lengths or contain NaN.
pub fn gini_weighted(rates: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(rates.len(), weights.len(), "rates/weights length mismatch");
    assert!(
        rates.iter().chain(weights).all(|v| !v.is_nan()),
        "NaN in gini input"
    );
    let total_w: f64 = weights.iter().sum();
    let mean: f64 = rates.iter().zip(weights).map(|(r, w)| r * w).sum::<f64>() / total_w;
    if total_w <= 0.0 || total_w.is_nan() || mean <= 0.0 || mean.is_nan() {
        return 0.0;
    }
    let mut cells: Vec<(f64, f64)> = rates.iter().copied().zip(weights.iter().copied()).collect();
    cells.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Lorenz-curve integration over the sorted cells.
    let mut cum_w = 0.0; // population fraction before this cell
    let mut cum_m = 0.0; // mass fraction before this cell
    let total_m: f64 = mean * total_w;
    let mut area = 0.0; // area under the Lorenz curve
    for (rate, w) in cells {
        let dw = w / total_w;
        let dm = rate * w / total_m;
        // trapezoid from (cum_w, cum_m) to (cum_w+dw, cum_m+dm)
        area += dw * (cum_m + dm / 2.0);
        cum_w += dw;
        cum_m += dm;
    }
    let _ = cum_w;
    (1.0 - 2.0 * area).clamp(0.0, 1.0)
}

/// Survival function (1 − CDF) of the χ² distribution with `df` degrees of
/// freedom, via the Wilson–Hilferty approximation.
fn chi_square_sf(x: f64, df: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    // (X/df)^(1/3) ~ Normal(1 - 2/(9df), 2/(9df))
    let t = (x / df).powf(1.0 / 3.0);
    let mu = 1.0 - 2.0 / (9.0 * df);
    let sigma = (2.0 / (9.0 * df)).sqrt();
    normal_sf((t - mu) / sigma)
}

/// Standard normal survival function via the Abramowitz–Stegun erf
/// approximation (max abs error ≈ 1.5e-7).
fn normal_sf(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn gini_uniform_is_zero() {
        assert_eq!(gini(&[7, 7, 7]), 0.0);
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
    }

    #[test]
    fn gini_concentration_extremes() {
        // all mass in 1 of n cells → G = (n-1)/n
        let mut v = vec![0u64; 100];
        v[31] = 1000;
        assert!((gini(&v) - 0.99).abs() < 1e-9);
    }

    #[test]
    fn entropy_bounds() {
        assert_eq!(shannon_entropy(&[]), 0.0);
        assert_eq!(shannon_entropy(&[5]), 0.0);
        assert!((shannon_entropy(&[1, 1, 1, 1]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_entropy_degenerate_cases() {
        assert_eq!(normalized_entropy(&[]), 0.0);
        assert_eq!(normalized_entropy(&[9]), 0.0);
    }

    #[test]
    fn chi_square_no_test_cases() {
        assert!(chi_square_uniform(&[]).is_none());
        assert!(chi_square_uniform(&[5]).is_none());
        assert!(chi_square_uniform(&[0, 0, 0]).is_none());
    }

    #[test]
    fn chi_square_detects_blaster_style_spike() {
        // 256 cells, uniform background 10 each, one cell at 500
        let mut v = vec![10u64; 256];
        v[100] = 500;
        let t = chi_square_uniform(&v).unwrap();
        assert!(
            t.is_significant(1e-6),
            "p={} stat={}",
            t.p_value,
            t.statistic
        );
    }

    #[test]
    fn chi_square_accepts_binomial_noise() {
        // counts drawn uniformly: should usually NOT be significant
        let mut rng = StdRng::seed_from_u64(5);
        let mut v = vec![0u64; 64];
        for _ in 0..6400 {
            v[rng.gen_range(0..64)] += 1;
        }
        let t = chi_square_uniform(&v).unwrap();
        assert!(!t.is_significant(0.001), "p={}", t.p_value);
    }

    #[test]
    fn chi_square_p_value_reference_points() {
        // χ²(df=10) upper tail: P(X > 18.307) = 0.05
        let sf = super::chi_square_sf(18.307, 10.0);
        assert!((sf - 0.05).abs() < 0.004, "sf={sf}");
        // χ²(df=1)... Wilson-Hilferty is weakest at df=1; allow slack
        let sf1 = super::chi_square_sf(3.841, 1.0);
        assert!((sf1 - 0.05).abs() < 0.02, "sf={sf1}");
    }

    #[test]
    fn kl_divergence_zero_iff_uniform() {
        assert!(kl_divergence_uniform(&[4, 4, 4, 4]).abs() < 1e-12);
        assert!(kl_divergence_uniform(&[8, 0, 0, 0]) > 1.9);
    }

    #[test]
    fn max_median_ratio_cases() {
        assert_eq!(max_median_ratio(&[]), 1.0);
        assert_eq!(max_median_ratio(&[3, 3, 3]), 1.0);
        assert_eq!(max_median_ratio(&[1, 2, 100]), 50.0);
        assert_eq!(max_median_ratio(&[0, 0, 9]), f64::INFINITY);
        assert_eq!(max_median_ratio(&[0, 0, 0]), 1.0);
    }

    #[test]
    fn normal_sf_reference() {
        assert!((super::normal_sf(0.0) - 0.5).abs() < 1e-7);
        assert!((super::normal_sf(1.6449) - 0.05).abs() < 1e-4);
        assert!((super::normal_sf(-1.6449) - 0.95).abs() < 1e-4);
    }

    #[test]
    fn weighted_chi_square_handles_proportional_mass() {
        // equal weights must agree with the unweighted test
        let counts = [5u64, 9, 7, 100];
        let uw = chi_square_uniform(&counts).unwrap();
        let w = chi_square_weighted(&counts, &[1.0; 4]).unwrap();
        assert!((uw.statistic - w.statistic).abs() < 1e-9);
        // non-positive weights are untestable
        assert!(chi_square_weighted(&counts, &[1.0, 1.0, 0.0, 1.0]).is_none());
    }

    #[test]
    fn weighted_gini_uniform_rates_zero() {
        assert_eq!(gini_weighted(&[3.0, 3.0, 3.0], &[1.0, 10.0, 256.0]), 0.0);
        assert_eq!(gini_weighted(&[], &[]), 0.0);
        assert_eq!(gini_weighted(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn weighted_gini_matches_unweighted_on_equal_weights() {
        let counts = [0u64, 0, 5, 10, 100];
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let weights = vec![1.0; counts.len()];
        let unweighted = gini(&counts);
        let weighted = gini_weighted(&rates, &weights);
        assert!(
            (unweighted - weighted).abs() < 0.01,
            "unweighted {unweighted} vs weighted {weighted}"
        );
    }

    #[test]
    fn weighted_gini_splitting_a_cell_is_invariant() {
        // splitting one cell into two halves with the same rate must not
        // change the coefficient
        let a = gini_weighted(&[1.0, 5.0], &[2.0, 2.0]);
        let b = gini_weighted(&[1.0, 1.0, 5.0], &[1.0, 1.0, 2.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn weighted_gini_concentration_approaches_one() {
        // all mass on a sliver of the population
        let g = gini_weighted(&[0.0, 1000.0], &[999.0, 1.0]);
        assert!(g > 0.99, "g={g}");
    }

    proptest! {
        #[test]
        fn weighted_gini_in_unit_interval(
            rates in proptest::collection::vec(0.0f64..1e4, 1..100),
            seed in any::<u64>(),
        ) {
            // weights derived deterministically from the seed
            let mut w = seed;
            let weights: Vec<f64> = rates.iter().map(|_| {
                w = w.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((w >> 33) % 1000 + 1) as f64
            }).collect();
            let g = gini_weighted(&rates, &weights);
            prop_assert!((0.0..=1.0).contains(&g), "g={g}");
        }

        #[test]
        fn gini_in_unit_interval(v in proptest::collection::vec(0u64..10_000, 1..200)) {
            let g = gini(&v);
            prop_assert!((0.0..=1.0).contains(&g), "g={g}");
        }

        #[test]
        fn entropy_at_most_log_n(v in proptest::collection::vec(0u64..10_000, 1..200)) {
            let h = shannon_entropy(&v);
            prop_assert!(h <= (v.len() as f64).log2() + 1e-9);
            prop_assert!(h >= 0.0);
        }

        #[test]
        fn kl_nonnegative(v in proptest::collection::vec(0u64..10_000, 2..200)) {
            prop_assert!(kl_divergence_uniform(&v) >= -1e-9);
        }

        #[test]
        fn scaling_counts_preserves_gini(v in proptest::collection::vec(1u64..100, 2..50), k in 2u64..10) {
            let scaled: Vec<u64> = v.iter().map(|x| x * k).collect();
            prop_assert!((gini(&v) - gini(&scaled)).abs() < 1e-9);
        }

        #[test]
        fn p_value_in_unit_interval(v in proptest::collection::vec(0u64..1000, 2..100)) {
            if let Some(t) = chi_square_uniform(&v) {
                prop_assert!((0.0..=1.0).contains(&t.p_value));
            }
        }
    }
}
