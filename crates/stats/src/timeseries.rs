//! Time series for infection and alert curves.

use std::fmt;

/// A monotone-time series of `(time, value)` points, e.g.
/// "% of vulnerable hosts infected vs seconds" (Fig 5a) or
/// "% of sensors alerting vs seconds" (Fig 5b/5c).
///
/// # Examples
///
/// ```
/// use hotspots_stats::TimeSeries;
///
/// let mut ts = TimeSeries::new("infected");
/// ts.push(0.0, 0.0);
/// ts.push(10.0, 0.4);
/// ts.push(20.0, 0.9);
/// assert_eq!(ts.time_to_reach(0.5), Some(20.0));
/// assert_eq!(ts.value_at(15.0), 0.4); // step interpolation
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty, named series.
    pub fn new(name: impl Into<String>) -> TimeSeries {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The series name (used as the column header in experiment output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not ≥ the last time pushed (series are
    /// monotone in time) or if either coordinate is NaN.
    pub fn push(&mut self, time: f64, value: f64) {
        assert!(!time.is_nan() && !value.is_nan(), "NaN point");
        if let Some(&last) = self.times.last() {
            assert!(time >= last, "time must be monotone: {time} < {last}");
        }
        self.times.push(time);
        self.values.push(value);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterates `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// The earliest time at which the series value is ≥ `threshold`, if
    /// ever.
    pub fn time_to_reach(&self, threshold: f64) -> Option<f64> {
        self.iter().find(|&(_, v)| v >= threshold).map(|(t, _)| t)
    }

    /// The last value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Step-interpolated value at `time` (value of the latest point at or
    /// before `time`; 0.0 before the first point).
    pub fn value_at(&self, time: f64) -> f64 {
        match self.times.partition_point(|&t| t <= time) {
            0 => 0.0,
            i => self.values[i - 1],
        }
    }

    /// Resamples onto a uniform grid of `n` points from the first to last
    /// time (step interpolation). Returns an empty series if this one is.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` while the series is non-empty.
    pub fn resample(&self, n: usize) -> TimeSeries {
        let mut out = TimeSeries::new(self.name.clone());
        if self.is_empty() {
            return out;
        }
        assert!(n >= 2, "need at least 2 grid points");
        let t0 = self.times[0];
        let t1 = *self.times.last().expect("non-empty"); // hotspots-lint: allow(panic-path) reason="guarded by the is_empty check above"
        for i in 0..n {
            let t = t0 + (t1 - t0) * (i as f64) / ((n - 1) as f64);
            out.push(t, self.value_at(t));
        }
        out
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.name)?;
        for (t, v) in self.iter() {
            writeln!(f, "{t:.3}\t{v:.6}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make() -> TimeSeries {
        let mut ts = TimeSeries::new("t");
        ts.push(0.0, 0.0);
        ts.push(5.0, 0.2);
        ts.push(10.0, 0.8);
        ts.push(20.0, 1.0);
        ts
    }

    #[test]
    fn push_and_len() {
        let ts = make();
        assert_eq!(ts.len(), 4);
        assert!(!ts.is_empty());
        assert_eq!(ts.last_value(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn push_rejects_time_regression() {
        let mut ts = make();
        ts.push(3.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn push_rejects_nan() {
        let mut ts = TimeSeries::new("t");
        ts.push(f64::NAN, 0.0);
    }

    #[test]
    fn time_to_reach_finds_crossing() {
        let ts = make();
        assert_eq!(ts.time_to_reach(0.0), Some(0.0));
        assert_eq!(ts.time_to_reach(0.5), Some(10.0));
        assert_eq!(ts.time_to_reach(1.0), Some(20.0));
        assert_eq!(ts.time_to_reach(1.5), None);
    }

    #[test]
    fn value_at_steps() {
        let ts = make();
        assert_eq!(ts.value_at(-1.0), 0.0);
        assert_eq!(ts.value_at(0.0), 0.0);
        assert_eq!(ts.value_at(7.5), 0.2);
        assert_eq!(ts.value_at(10.0), 0.8);
        assert_eq!(ts.value_at(100.0), 1.0);
    }

    #[test]
    fn resample_preserves_endpoints() {
        let ts = make();
        let r = ts.resample(5);
        assert_eq!(r.len(), 5);
        assert_eq!(r.iter().next(), Some((0.0, 0.0)));
        assert_eq!(r.last_value(), Some(1.0));
    }

    #[test]
    fn resample_empty_is_empty() {
        let ts = TimeSeries::new("e");
        assert!(ts.resample(10).is_empty());
    }

    #[test]
    fn equal_times_allowed() {
        let mut ts = TimeSeries::new("t");
        ts.push(1.0, 0.1);
        ts.push(1.0, 0.2);
        assert_eq!(ts.value_at(1.0), 0.2);
    }
}
