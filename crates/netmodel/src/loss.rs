//! Packet loss: network failures and misconfiguration as a probability.

use rand::Rng;

/// A Bernoulli packet-loss model.
///
/// The paper's "network failures and misconfigurations" factor reduces the
/// probability that an infection packet reaches its destination; the
/// aggregate effect over many independent paths is well modelled by an
/// i.i.d. drop probability (congestion-coupled loss, such as Slammer
/// melting its own links, can be modelled by raising the rate during an
/// outbreak — see the simulator's failure-injection hooks).
///
/// # Examples
///
/// ```
/// use hotspots_netmodel::LossModel;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// assert!(!LossModel::NONE.drops(&mut rng));
/// let lossy = LossModel::new(1.0).unwrap();
/// assert!(lossy.drops(&mut rng));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossModel {
    rate: f64,
}

impl LossModel {
    /// A perfectly reliable network.
    pub const NONE: LossModel = LossModel { rate: 0.0 };

    /// Creates a model dropping each probe independently with probability
    /// `rate`.
    ///
    /// Returns `None` unless `0.0 <= rate <= 1.0` and `rate` is finite.
    pub fn new(rate: f64) -> Option<LossModel> {
        if rate.is_finite() && (0.0..=1.0).contains(&rate) {
            Some(LossModel { rate })
        } else {
            None
        }
    }

    /// The drop probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Samples whether one probe is dropped.
    pub fn drops<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        if self.rate <= 0.0 {
            false
        } else if self.rate >= 1.0 {
            true
        } else {
            rng.gen::<f64>() < self.rate
        }
    }
}

impl Default for LossModel {
    fn default() -> LossModel {
        LossModel::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_invalid_rates() {
        assert!(LossModel::new(-0.1).is_none());
        assert!(LossModel::new(1.1).is_none());
        assert!(LossModel::new(f64::NAN).is_none());
        assert!(LossModel::new(f64::INFINITY).is_none());
    }

    #[test]
    fn extremes_are_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(!LossModel::NONE.drops(&mut rng));
            assert!(LossModel::new(1.0).unwrap().drops(&mut rng));
        }
    }

    #[test]
    fn empirical_rate_matches() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = LossModel::new(0.3).unwrap();
        let n = 100_000;
        let drops = (0..n).filter(|_| model.drops(&mut rng)).count();
        let observed = drops as f64 / f64::from(n);
        assert!((observed - 0.3).abs() < 0.01, "observed {observed}");
    }
}
