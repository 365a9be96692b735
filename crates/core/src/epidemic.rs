//! The analytic epidemic baseline (validation of the probe-level engine).
//!
//! The paper builds on the classical "simple epidemic model" in which a
//! uniform-scanning worm's infected count follows the logistic equation
//! `dI/dt = β·I·(N − I)` with contact rate `β = scan_rate / Ω` over a
//! scanned space of `Ω` addresses. Our simulator works at per-probe
//! fidelity instead — so, as an engine-validation ablation, this module
//! provides the closed-form solution and the comparison harness: on a
//! uniform worm the two must agree (see the integration tests and the
//! `ablations` bench).
//!
//! # Examples
//!
//! ```
//! use hotspots::epidemic::SiModel;
//!
//! let model = SiModel::new(10_000.0, 10.0, (1u64 << 16) as f64, 25.0).unwrap();
//! let half = model.time_to_fraction(0.5).unwrap();
//! assert!((model.infected_at(half) / 10_000.0 - 0.5).abs() < 1e-9);
//! ```

/// The susceptible–infected logistic model of a uniform-scanning worm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiModel {
    population: f64,
    scan_rate: f64,
    address_space: f64,
    seeds: f64,
}

impl SiModel {
    /// Creates a model of `population` vulnerable hosts inside a scanned
    /// space of `address_space` addresses, with `seeds` initially
    /// infected hosts each probing `scan_rate` addresses per second.
    ///
    /// Returns `None` unless all parameters are positive, finite, and
    /// `seeds <= population <= address_space`.
    pub fn new(population: f64, scan_rate: f64, address_space: f64, seeds: f64) -> Option<SiModel> {
        let ok = [population, scan_rate, address_space, seeds]
            .iter()
            .all(|v| v.is_finite() && *v > 0.0)
            && seeds <= population
            && population <= address_space;
        ok.then_some(SiModel {
            population,
            scan_rate,
            address_space,
            seeds,
        })
    }

    /// The per-pair contact rate `β = scan_rate / Ω`.
    pub fn beta(&self) -> f64 {
        self.scan_rate / self.address_space
    }

    /// Expected infected count at time `t` (seconds):
    /// `I(t) = N / (1 + (N/I₀ − 1)·e^(−βNt))`.
    pub fn infected_at(&self, t: f64) -> f64 {
        let n = self.population;
        let ratio = n / self.seeds - 1.0;
        n / (1.0 + ratio * (-self.beta() * n * t).exp())
    }

    /// Expected infected fraction at time `t`.
    pub fn fraction_at(&self, t: f64) -> f64 {
        self.infected_at(t) / self.population
    }

    /// Time until the infected fraction reaches `f`
    /// (`seeds/N < f < 1`); `None` outside that range.
    pub fn time_to_fraction(&self, f: f64) -> Option<f64> {
        let n = self.population;
        if !(self.seeds / n..1.0).contains(&f) || f <= 0.0 {
            return None;
        }
        // invert the logistic
        let ratio = n / self.seeds - 1.0;
        let inner = (1.0 / f - 1.0) / ratio;
        Some(-inner.ln() / (self.beta() * n))
    }

    /// The classic epidemic doubling time in the early (exponential)
    /// phase, `ln 2 / (βN)`.
    pub fn early_doubling_time(&self) -> f64 {
        std::f64::consts::LN_2 / (self.beta() * self.population)
    }
}

/// Maximum relative error between a simulated infection curve and the
/// analytic model, evaluated at the model's 10%..90% fraction times.
///
/// Returns `None` if the simulation never reaches 10%.
pub fn relative_error(model: &SiModel, curve: &hotspots_stats::TimeSeries) -> Option<f64> {
    let mut worst: f64 = 0.0;
    for pct in [0.1, 0.25, 0.5, 0.75, 0.9] {
        let t = model.time_to_fraction(pct)?;
        let simulated = curve.value_at(t);
        if simulated <= 0.0 {
            return None;
        }
        worst = worst.max((simulated - pct).abs() / pct);
    }
    Some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SiModel {
        SiModel::new(134_586.0, 10.0, 2f64.powi(32), 25.0).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(SiModel::new(0.0, 1.0, 10.0, 1.0).is_none());
        assert!(SiModel::new(10.0, 1.0, 5.0, 1.0).is_none(), "N > Ω");
        assert!(SiModel::new(10.0, 1.0, 20.0, 11.0).is_none(), "I0 > N");
        assert!(SiModel::new(f64::NAN, 1.0, 10.0, 1.0).is_none());
    }

    #[test]
    fn starts_at_seeds_and_saturates() {
        let m = model();
        assert!((m.infected_at(0.0) - 25.0).abs() < 1e-9);
        assert!((m.fraction_at(1e9) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monotone_increasing() {
        let m = model();
        let mut prev = 0.0;
        for i in 0..100 {
            let v = m.infected_at(f64::from(i) * 500.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn time_to_fraction_inverts_fraction_at() {
        let m = model();
        for f in [0.01, 0.1, 0.5, 0.9, 0.99] {
            let t = m.time_to_fraction(f).unwrap();
            assert!((m.fraction_at(t) - f).abs() < 1e-9, "f={f}");
        }
        assert!(m.time_to_fraction(1.0).is_none());
        assert!(m.time_to_fraction(1e-9).is_none(), "below seed fraction");
    }

    #[test]
    fn paper_scale_uniform_worm_is_slow() {
        // sanity: a 2^32-space uniform worm with the paper's parameters
        // needs hours to take off — which is why the paper's simulated
        // threats (hit-lists, local preference) matter.
        let m = model();
        let t50 = m.time_to_fraction(0.5).unwrap();
        assert!(t50 > 3600.0, "t50={t50}");
    }

    #[test]
    fn doubling_time_matches_early_growth() {
        let m = model();
        let d = m.early_doubling_time();
        let early = m.infected_at(3.0 * d) / m.infected_at(2.0 * d);
        assert!((early - 2.0).abs() < 0.01, "growth factor {early}");
    }

    #[test]
    fn relative_error_of_the_model_itself_is_zero() {
        let m = SiModel::new(1000.0, 10.0, 65536.0, 10.0).unwrap();
        let mut curve = hotspots_stats::TimeSeries::new("analytic");
        for i in 0..=2000 {
            let t = f64::from(i) * 0.1;
            curve.push(t, m.fraction_at(t));
        }
        let err = relative_error(&m, &curve).unwrap();
        assert!(err < 0.02, "err={err}");
    }
}
