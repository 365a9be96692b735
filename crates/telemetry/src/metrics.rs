//! Wall-clock phase timers.

use std::time::{Duration, Instant};

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
