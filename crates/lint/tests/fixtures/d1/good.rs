// lint-as: crates/sim/src/engine.rs
// Hot-path timing goes through `hotspots_telemetry::Timer`; clock reads
// in test modules or in strings are fine, and bare `Instant` type
// mentions are not calls.

use hotspots_telemetry::Timer;

pub fn step() -> std::time::Duration {
    let timer = Timer::start();
    let _first = timer.elapsed();
    let _msg = "Instant::now and SystemTime in a string are data";
    timer.elapsed()
}

pub fn deadline(_at: std::time::Instant) {}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    #[test]
    fn timing_in_tests_is_fine() {
        let _t = Instant::now();
    }
}
