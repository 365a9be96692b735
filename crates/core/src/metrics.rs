//! Hotspot quantification over observed count vectors.

use std::fmt;

use hotspots_stats::uniformity::{
    self, chi_square_uniform, gini, kl_divergence_uniform, max_median_ratio, normalized_entropy,
};

/// A bundle of deviation-from-uniform metrics over per-cell observation
/// counts (per destination /24, per sensor block, per organization, …).
///
/// The individual metrics answer different questions:
///
/// * `chi_square_p` — *is* this distribution plausibly uniform? (test)
/// * `gini`, `normalized_entropy` — *how concentrated* is it? (effect size)
/// * `max_median_ratio` — the "orders of magnitude between sensors"
///   headline number.
///
/// # Examples
///
/// ```
/// use hotspots::HotspotReport;
///
/// let report = HotspotReport::from_counts(&[0, 0, 1, 950, 2, 0, 1, 0]);
/// assert!(report.is_hotspot());
/// assert!(report.gini > 0.8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotReport {
    /// Number of cells.
    pub cells: usize,
    /// Total observations.
    pub total: u64,
    /// Gini coefficient (0 uniform → 1 concentrated).
    pub gini: f64,
    /// Shannon entropy normalized by `log2(cells)` (1 uniform → 0
    /// concentrated).
    pub normalized_entropy: f64,
    /// KL divergence from uniform, in bits.
    pub kl_bits: f64,
    /// Max cell / median cell.
    pub max_median_ratio: f64,
    /// χ² p-value against the uniform null (`None` if untestable —
    /// fewer than 2 cells or zero mass).
    pub chi_square_p: Option<f64>,
}

impl HotspotReport {
    /// Significance level for the default [`HotspotReport::is_hotspot`]
    /// verdict.
    pub const DEFAULT_ALPHA: f64 = 1e-3;

    /// Computes all metrics for a count vector.
    pub fn from_counts(counts: &[u64]) -> HotspotReport {
        HotspotReport {
            cells: counts.len(),
            total: counts.iter().sum(),
            gini: gini(counts),
            normalized_entropy: normalized_entropy(counts),
            kl_bits: kl_divergence_uniform(counts),
            max_median_ratio: max_median_ratio(counts),
            chi_square_p: chi_square_uniform(counts).map(|t| t.p_value),
        }
    }

    /// Computes the metrics for cells of *unequal size*: cell `i` covers
    /// `weights[i]` addresses, and the uniform null expects mass
    /// proportional to the weight. Use this when mixing /16 rows with /24
    /// rows (the Z/8 block next to the small IMS blocks).
    ///
    /// `normalized_entropy` is reported as `H(p)/H(q)` where `q` is the
    /// weight-proportional reference (1.0 at perfect proportionality),
    /// and `gini`/`max_median_ratio` operate on per-address *rates*.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or any weight is non-positive.
    pub fn from_weighted_counts(counts: &[u64], weights: &[f64]) -> HotspotReport {
        assert_eq!(
            counts.len(),
            weights.len(),
            "counts/weights length mismatch"
        );
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let total: u64 = counts.iter().sum();
        let weight_sum: f64 = weights.iter().sum();
        let rates: Vec<f64> = counts
            .iter()
            .zip(weights)
            .map(|(&c, &w)| c as f64 / w)
            .collect();
        // entropies of observed vs reference distribution
        let h_p: f64 = counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total.max(1) as f64;
                -p * p.log2()
            })
            .sum();
        let h_q: f64 = weights
            .iter()
            .map(|&w| {
                let q = w / weight_sum;
                -q * q.log2()
            })
            .sum();
        let kl_bits: f64 = counts
            .iter()
            .zip(weights)
            .filter(|(&c, _)| c > 0)
            .map(|(&c, &w)| {
                let p = c as f64 / total.max(1) as f64;
                let q = w / weight_sum;
                p * (p / q).log2()
            })
            .sum();
        let mut sorted_rates = rates.clone();
        sorted_rates.sort_by(f64::total_cmp);
        let median_rate = sorted_rates[sorted_rates.len() / 2];
        let max_rate = *sorted_rates.last().expect("non-empty by weight assert"); // hotspots-lint: allow(panic-path) reason="the weight assert above guarantees rates is non-empty"
        HotspotReport {
            cells: counts.len(),
            total,
            gini: uniformity::gini_weighted(&rates, weights),
            normalized_entropy: if h_q > 0.0 { (h_p / h_q).min(1.0) } else { 0.0 },
            kl_bits,
            max_median_ratio: if median_rate > 0.0 {
                max_rate / median_rate
            } else if max_rate > 0.0 {
                f64::INFINITY
            } else {
                1.0
            },
            chi_square_p: uniformity::chi_square_weighted(counts, weights).map(|t| t.p_value),
        }
    }

    /// The default verdict: the χ² test rejects uniformity at
    /// [`Self::DEFAULT_ALPHA`].
    pub fn is_hotspot(&self) -> bool {
        self.is_hotspot_at(Self::DEFAULT_ALPHA)
    }

    /// Verdict at a chosen significance level.
    pub fn is_hotspot_at(&self, alpha: f64) -> bool {
        self.chi_square_p.is_some_and(|p| p < alpha)
    }
}

impl fmt::Display for HotspotReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cells={} total={} gini={:.3} H/Hmax={:.3} KL={:.3}b max/med={:.1} p={}",
            self.cells,
            self.total,
            self.gini,
            self.normalized_entropy,
            self.kl_bits,
            self.max_median_ratio,
            self.chi_square_p
                .map_or_else(|| "n/a".to_owned(), |p| format!("{p:.2e}")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_counts_are_not_hotspots() {
        let r = HotspotReport::from_counts(&[100; 64]);
        assert!(!r.is_hotspot());
        assert_eq!(r.gini, 0.0);
        assert!((r.normalized_entropy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_spike_is_a_hotspot() {
        let mut v = vec![10u64; 64];
        v[7] = 2000;
        let r = HotspotReport::from_counts(&v);
        assert!(r.is_hotspot());
        assert!(r.max_median_ratio == 200.0);
    }

    #[test]
    fn untestable_inputs_are_not_hotspots() {
        assert!(!HotspotReport::from_counts(&[]).is_hotspot());
        assert!(!HotspotReport::from_counts(&[5]).is_hotspot());
        assert!(!HotspotReport::from_counts(&[0, 0, 0]).is_hotspot());
    }

    #[test]
    fn weighted_report_proportional_is_not_hotspot() {
        // a /16 cell next to 4 /24 cells, mass proportional to size
        let weights = [65536.0, 256.0, 256.0, 256.0, 256.0];
        let counts = [6554u64, 26, 25, 26, 25];
        let r = HotspotReport::from_weighted_counts(&counts, &weights);
        assert!(!r.is_hotspot(), "{r}");
        assert!(r.gini < 0.1, "{r}");
    }

    #[test]
    fn weighted_report_rate_spike_is_hotspot() {
        let weights = [65536.0, 256.0, 256.0, 256.0, 256.0];
        let counts = [655u64, 26, 2500, 26, 25]; // tiny cell, huge rate
        let r = HotspotReport::from_weighted_counts(&counts, &weights);
        assert!(r.is_hotspot(), "{r}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_report_rejects_zero_weight() {
        let _ = HotspotReport::from_weighted_counts(&[1, 2], &[1.0, 0.0]);
    }

    #[test]
    fn display_mentions_every_metric() {
        let s = HotspotReport::from_counts(&[1, 2, 3]).to_string();
        for key in ["gini", "KL", "max/med", "p="] {
            assert!(s.contains(key), "{s} missing {key}");
        }
    }

    proptest! {
        #[test]
        fn metrics_are_finite_or_expected_infinity(v in proptest::collection::vec(0u64..10_000, 0..100)) {
            let r = HotspotReport::from_counts(&v);
            prop_assert!(r.gini.is_finite());
            prop_assert!(r.normalized_entropy.is_finite());
            prop_assert!(r.kl_bits.is_finite());
            // max/median may legitimately be +inf when the median is 0
            prop_assert!(!r.max_median_ratio.is_nan());
        }
    }
}
