//! Path latency: topology's effect on infection *timing*.
//!
//! The paper lists message latency among the environmental factors that
//! "determine … the rate at which an infection can progress". This model
//! delays the moment a delivered probe takes effect: a victim hit at
//! time `t` becomes infectious at `t + latency`.

use rand::Rng;

/// A base-plus-uniform-jitter latency model (seconds).
///
/// # Examples
///
/// ```
/// use hotspots_netmodel::LatencyModel;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let l = LatencyModel::new(0.2, 0.1).unwrap();
/// let d = l.sample(&mut rng);
/// assert!((0.2..=0.3).contains(&d));
/// assert_eq!(LatencyModel::NONE.sample(&mut rng), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    base_secs: f64,
    jitter_secs: f64,
}

impl LatencyModel {
    /// Zero latency (the idealized instantaneous-infection Internet).
    pub const NONE: LatencyModel = LatencyModel {
        base_secs: 0.0,
        jitter_secs: 0.0,
    };

    /// Creates a model: every delivery takes `base_secs` plus a uniform
    /// draw from `[0, jitter_secs)`.
    ///
    /// Returns `None` for negative or non-finite parameters.
    pub fn new(base_secs: f64, jitter_secs: f64) -> Option<LatencyModel> {
        let ok = base_secs.is_finite()
            && jitter_secs.is_finite()
            && base_secs >= 0.0
            && jitter_secs >= 0.0;
        ok.then_some(LatencyModel {
            base_secs,
            jitter_secs,
        })
    }

    /// The fixed component in seconds.
    pub fn base_secs(&self) -> f64 {
        self.base_secs
    }

    /// The jitter width in seconds.
    pub fn jitter_secs(&self) -> f64 {
        self.jitter_secs
    }

    /// Returns `true` if this model never delays anything.
    pub fn is_zero(&self) -> bool {
        self.base_secs == 0.0 && self.jitter_secs == 0.0
    }

    /// Samples one delivery latency in seconds.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.is_zero() {
            0.0
        } else if self.jitter_secs == 0.0 {
            self.base_secs
        } else {
            self.base_secs + rng.gen::<f64>() * self.jitter_secs
        }
    }
}

impl Default for LatencyModel {
    fn default() -> LatencyModel {
        LatencyModel::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(LatencyModel::new(-1.0, 0.0).is_none());
        assert!(LatencyModel::new(0.0, -1.0).is_none());
        assert!(LatencyModel::new(f64::NAN, 0.0).is_none());
        assert!(LatencyModel::new(f64::INFINITY, 0.0).is_none());
    }

    #[test]
    fn zero_model_is_free() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(LatencyModel::NONE.is_zero());
        for _ in 0..10 {
            assert_eq!(LatencyModel::NONE.sample(&mut rng), 0.0);
        }
    }

    #[test]
    fn samples_stay_in_band() {
        let mut rng = StdRng::seed_from_u64(2);
        let l = LatencyModel::new(1.5, 2.0).unwrap();
        for _ in 0..1000 {
            let d = l.sample(&mut rng);
            assert!((1.5..3.5).contains(&d), "d={d}");
        }
    }

    #[test]
    fn fixed_latency_without_jitter() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = LatencyModel::new(0.75, 0.0).unwrap();
        assert_eq!(l.sample(&mut rng), 0.75);
    }
}
