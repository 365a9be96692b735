//! Counters, histograms, and wall-clock phase timers.

use std::fmt;
use std::time::{Duration, Instant};

/// A monotonic event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A log₂-bucketed histogram of `u64` samples (probe latencies in µs,
/// per-host fan-out, step sizes, …).
///
/// Bucket `i` holds values whose highest set bit is `i` — i.e. value 0
/// goes to bucket 0, values `[2^i, 2^(i+1))` go to bucket `i+1` — so
/// 65 counters cover the whole `u64` domain with ≤ 2× relative error
/// on the upper-bound read-out.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The inclusive upper bound of values landing in `bucket`.
    fn bucket_upper(bucket: usize) -> u64 {
        match bucket {
            0 => 0,
            64 => u64::MAX,
            b => (1u64 << b) - 1,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// An upper bound for the `q`-quantile (0 ≤ q ≤ 1): the top of the
    /// bucket the quantile falls in, clamped to the observed max.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "q={q} out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, low to
    /// high.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_upper(i).min(self.max), n))
            .collect()
    }
}

/// A running span: measures wall-clock time from construction to
/// [`Timer::stop`] (or drop-free manual reads via [`Timer::elapsed`]).
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    started: Instant,
}

impl Timer {
    /// Starts the span now.
    #[inline]
    pub fn start() -> Timer {
        Timer {
            started: Instant::now(),
        }
    }

    /// Wall-clock time since start.
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Ends the span, folding its duration into `phases` under `name`.
    pub fn stop(self, phases: &mut PhaseTimes, name: &'static str) -> Duration {
        let elapsed = self.elapsed();
        phases.record(name, elapsed);
        elapsed
    }
}

/// Per-phase wall-clock totals, in first-recorded order (stable for
/// report output).
#[derive(Debug, Clone, Default)]
pub struct PhaseTimes {
    phases: Vec<(&'static str, Duration, u64)>,
}

impl PhaseTimes {
    /// No phases yet.
    pub fn new() -> PhaseTimes {
        PhaseTimes::default()
    }

    /// Folds one span of `name` into the totals.
    pub fn record(&mut self, name: &'static str, elapsed: Duration) {
        match self.phases.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, total, spans)) => {
                *total += elapsed;
                *spans += 1;
            }
            None => self.phases.push((name, elapsed, 1)),
        }
    }

    /// Total wall-clock time spent in `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.phases
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(Duration::ZERO, |(_, total, _)| *total)
    }

    /// Number of spans recorded for `name`.
    pub fn spans(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0, |(_, _, n)| *n)
    }

    /// All phases as `(name, total, span count)`, in first-recorded
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Duration, u64)> + '_ {
        self.phases.iter().copied()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(c.to_string(), "42");
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        // 0 | 1 | 2,3 | 4,7 | 8 | 1024 | MAX
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 7);
        assert_eq!(buckets[0], (0, 1));
        assert_eq!(buckets[1], (1, 1));
        assert_eq!(buckets[2], (3, 2));
        assert_eq!(buckets[3], (7, 2));
    }

    #[test]
    fn histogram_quantiles_bound_truth() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let median_bound = h.quantile_upper_bound(0.5);
        assert!((500..=1023).contains(&median_bound), "{median_bound}");
        assert_eq!(h.quantile_upper_bound(1.0), 999);
        assert_eq!(h.quantile_upper_bound(0.0), 0);
        assert!(h.mean().unwrap() > 400.0);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile_upper_bound(0.5), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn phase_times_accumulate_in_order() {
        let mut phases = PhaseTimes::new();
        phases.record("route", Duration::from_millis(2));
        phases.record("observe", Duration::from_millis(1));
        phases.record("route", Duration::from_millis(3));
        assert_eq!(phases.total("route"), Duration::from_millis(5));
        assert_eq!(phases.spans("route"), 2);
        assert_eq!(phases.total("observe"), Duration::from_millis(1));
        assert_eq!(phases.total("missing"), Duration::ZERO);
        let names: Vec<_> = phases.iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, ["route", "observe"]);
    }

    #[test]
    fn timer_records_into_phases() {
        let mut phases = PhaseTimes::new();
        let t = Timer::start();
        std::hint::black_box((0..1000u64).sum::<u64>());
        let d = t.stop(&mut phases, "work");
        assert_eq!(phases.total("work"), d);
        assert_eq!(phases.spans("work"), 1);
    }
}
