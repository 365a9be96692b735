//! Correlation between paired samples.

/// Pearson correlation coefficient of two equal-length samples; the
/// kernel of [`spearman`].
///
/// Returns `None` for fewer than 2 points, mismatched lengths, NaN
/// values, or zero variance on either side.
fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    if x.iter().chain(y).any(|v| v.is_nan()) {
        return None;
    }
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        cov += (a - mean_x) * (b - mean_y);
        var_x += (a - mean_x) * (a - mean_x);
        var_y += (b - mean_y) * (b - mean_y);
    }
    if var_x <= 0.0 || var_y <= 0.0 {
        return None;
    }
    Some(cov / (var_x.sqrt() * var_y.sqrt()))
}

/// Spearman rank correlation: Pearson over the rank-transformed samples
/// (average ranks for ties). Robust to monotone-but-nonlinear relations,
/// which is how "the prediction matches the measurement" claims should
/// be scored.
///
/// Returns `None` for fewer than 2 points, mismatched lengths, NaN
/// values, or zero variance on either side.
///
/// # Examples
///
/// ```
/// use hotspots_stats::spearman;
///
/// // monotone but nonlinear: rank correlation is exactly 1
/// let r = spearman(&[1.0, 2.0, 3.0, 4.0], &[1.0, 10.0, 100.0, 1000.0]).unwrap();
/// assert!((r - 1.0).abs() < 1e-12);
/// ```
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    pearson(&ranks(x)?, &ranks(y)?)
}

fn ranks(v: &[f64]) -> Option<Vec<f64>> {
    if v.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    let mut out = vec![0.0; v.len()];
    let mut i = 0;
    while i < idx.len() {
        // tie group [i, j)
        let mut j = i + 1;
        while j < idx.len() && v[idx[j]] == v[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j - 1) as f64 / 2.0 + 1.0;
        for &k in &idx[i..j] {
            out[k] = avg_rank;
        }
        i = j;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn degenerate_inputs() {
        assert!(pearson(&[], &[]).is_none());
        assert!(pearson(&[1.0], &[1.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_none());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_none(), "zero variance");
        assert!(pearson(&[1.0, f64::NAN], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn pearson_perfect_correlations() {
        let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
        let r = pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]).unwrap();
        assert!((r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_known_value() {
        // r for a noisy positive relation
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        let r = pearson(&x, &y).unwrap();
        assert!((r - 0.8).abs() < 1e-12, "r={r}");
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [10.0, 20.0, 20.0, 30.0];
        let r = spearman(&x, &y).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_average_ties() {
        let r = ranks(&[5.0, 1.0, 5.0]).unwrap();
        assert_eq!(r, vec![2.5, 1.0, 2.5]);
    }

    proptest! {
        #[test]
        fn pearson_in_unit_interval(
            pairs in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 2..100)
        ) {
            let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            if let Some(r) = pearson(&x, &y) {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r={r}");
            }
        }

        #[test]
        fn correlation_is_symmetric(
            pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..50)
        ) {
            let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            prop_assert_eq!(pearson(&x, &y).is_some(), pearson(&y, &x).is_some());
            if let (Some(a), Some(b)) = (pearson(&x, &y), pearson(&y, &x)) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
