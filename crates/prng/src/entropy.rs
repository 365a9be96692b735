//! Boot-time entropy models: why `GetTickCount()` is a terrible seed.
//!
//! Blaster seeds msvcrt's `rand()` with `GetTickCount()`, the number of
//! milliseconds since boot. Because the worm is started from the Run
//! registry key, on a rebooted machine the call happens a near-constant
//! ~30 seconds after power-on — the paper instrumented Pentium II/III/IV
//! machines and measured a mean boot time of about 30 s with a 1 s
//! standard deviation. Correlating observed Blaster hotspots back through
//! the seed→trajectory mapping, the paper found implied launch delays of
//! roughly 1–20 minutes, centered on 4–5 minutes (boot plus the time until
//! the box was actually infected/restarted the service).
//!
//! This module reproduces those distributions so the Fig 1 experiment can
//! draw worm seeds the way the real population did.
//!
//! # Examples
//!
//! ```
//! use hotspots_prng::entropy::{HardwareGeneration, SeedModel};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let model = SeedModel::blaster_reboot(HardwareGeneration::PentiumIii);
//! let seed = model.sample_seed(&mut rng);
//! // a fresh-boot seed is a few tens of thousands of milliseconds
//! assert!(seed > 20_000 && seed < 45_000);
//! ```

use std::fmt;

use rand::Rng;

/// A `GetTickCount()` value: milliseconds since boot, truncated to 32 bits
/// exactly like the Windows API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TickCount(u32);

impl TickCount {
    /// Creates a tick count from milliseconds.
    pub const fn from_millis(ms: u32) -> TickCount {
        TickCount(ms)
    }

    /// Creates a tick count from (non-negative) seconds, saturating at the
    /// 32-bit boundary (≈ 49.7 days) like the real counter wraps.
    pub fn from_secs_f64(secs: f64) -> TickCount {
        let ms = (secs.max(0.0) * 1000.0).round();
        TickCount(if ms >= u32::MAX as f64 {
            u32::MAX
        } else {
            ms as u32
        })
    }

    /// Milliseconds since boot.
    pub const fn as_millis(self) -> u32 {
        self.0
    }

    /// Seconds since boot.
    pub fn as_secs_f64(self) -> f64 {
        f64::from(self.0) / 1000.0
    }
}

impl fmt::Display for TickCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1000;
        let (h, m, s, ms) = (
            total_secs / 3600,
            (total_secs / 60) % 60,
            total_secs % 60,
            self.0 % 1000,
        );
        if h > 0 {
            write!(f, "{h}h{m:02}m{s:02}.{ms:03}s")
        } else if m > 0 {
            write!(f, "{m}m{s:02}.{ms:03}s")
        } else {
            write!(f, "{s}.{ms:03}s")
        }
    }
}

impl From<TickCount> for u32 {
    fn from(t: TickCount) -> u32 {
        t.0
    }
}

/// The hardware generations the paper instrumented with its reboot-loop
/// tick-count logger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HardwareGeneration {
    /// Intel Pentium II era machines (slowest boots).
    PentiumIi,
    /// Intel Pentium III era machines.
    PentiumIii,
    /// Intel Pentium 4 era machines (fastest boots).
    PentiumIv,
}

impl HardwareGeneration {
    /// All three generations.
    pub const ALL: [HardwareGeneration; 3] = [
        HardwareGeneration::PentiumIi,
        HardwareGeneration::PentiumIii,
        HardwareGeneration::PentiumIv,
    ];

    /// The boot-time distribution measured for this generation:
    /// mean ≈ 30 s, σ ≈ 1 s, with slightly faster boots on newer hardware.
    pub fn boot_time(self) -> BootTimeModel {
        match self {
            HardwareGeneration::PentiumIi => BootTimeModel::new(31.5, 1.0),
            HardwareGeneration::PentiumIii => BootTimeModel::new(30.0, 1.0),
            HardwareGeneration::PentiumIv => BootTimeModel::new(28.5, 1.0),
        }
    }
}

impl fmt::Display for HardwareGeneration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HardwareGeneration::PentiumIi => "Pentium II",
            HardwareGeneration::PentiumIii => "Pentium III",
            HardwareGeneration::PentiumIv => "Pentium IV",
        })
    }
}

/// A truncated-normal model of the time from power-on to the worm's
/// `srand(GetTickCount())` call on a freshly rebooted machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootTimeModel {
    mean_secs: f64,
    std_secs: f64,
}

impl BootTimeModel {
    /// Creates a model with the given mean and standard deviation in
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics if `mean_secs <= 0` or `std_secs < 0`.
    pub fn new(mean_secs: f64, std_secs: f64) -> BootTimeModel {
        assert!(mean_secs > 0.0, "mean boot time must be positive");
        assert!(std_secs >= 0.0, "std must be non-negative");
        BootTimeModel {
            mean_secs,
            std_secs,
        }
    }

    /// Mean boot time in seconds.
    pub fn mean_secs(&self) -> f64 {
        self.mean_secs
    }

    /// Standard deviation in seconds.
    pub fn std_secs(&self) -> f64 {
        self.std_secs
    }

    /// Samples a boot-to-launch tick count (truncated below at 1 s).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> TickCount {
        let z = standard_normal(rng);
        TickCount::from_secs_f64((self.mean_secs + z * self.std_secs).max(1.0))
    }
}

/// A log-normal model of the *additional* delay between boot and the
/// moment a running machine actually launches the worm (restart of an
/// infected service, infection of an already-up host, …).
///
/// The paper's seed-inference found delays from ~1 to ~20 minutes centered
/// on 4–5 minutes, which a log-normal with median ≈ 4.5 min and
/// σ(log) ≈ 0.75 matches well.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchDelayModel {
    median_secs: f64,
    log_sigma: f64,
}

impl LaunchDelayModel {
    /// Creates a model with median delay `median_secs` and log-space
    /// standard deviation `log_sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `median_secs <= 0` or `log_sigma < 0`.
    pub fn new(median_secs: f64, log_sigma: f64) -> LaunchDelayModel {
        assert!(median_secs > 0.0, "median must be positive");
        assert!(log_sigma >= 0.0, "log sigma must be non-negative");
        LaunchDelayModel {
            median_secs,
            log_sigma,
        }
    }

    /// The paper-matched Blaster population delay: median 4.5 minutes,
    /// log-σ 0.75 (≈ 1–20 minute bulk).
    pub fn blaster_population() -> LaunchDelayModel {
        LaunchDelayModel::new(4.5 * 60.0, 0.75)
    }

    /// Median delay in seconds.
    pub fn median_secs(&self) -> f64 {
        self.median_secs
    }

    /// Samples a delay tick count.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> TickCount {
        let z = standard_normal(rng);
        TickCount::from_secs_f64(self.median_secs * (z * self.log_sigma).exp())
    }
}

/// A full seed model: tick count at the worm's `srand` call.
///
/// # Examples
///
/// ```
/// use hotspots_prng::entropy::{HardwareGeneration, SeedModel};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let pop = SeedModel::blaster_population(HardwareGeneration::PentiumIv);
/// let seeds: Vec<u32> = (0..100).map(|_| pop.sample_seed(&mut rng)).collect();
/// // delays are minutes-scale: all within ~2.8 hours (paper's search bound)
/// assert!(seeds.iter().all(|&s| s < 10_000_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedModel {
    boot: BootTimeModel,
    delay: Option<LaunchDelayModel>,
    resolution_ms: u32,
}

impl SeedModel {
    /// The Windows system timer granularity: `GetTickCount()` does not
    /// advance every millisecond — it jumps in ~15.6 ms increments, so
    /// the *entire* seed space is quantized onto multiples of this value.
    /// This quantization is a large part of why independent machines
    /// collide on identical seeds.
    pub const TICK_RESOLUTION_MS: u32 = 16;

    /// Seed model for a worm launched immediately at boot (registry Run
    /// key on a rebooted machine): boot time only. Blaster's RPC exploit
    /// frequently crashed the service and forced reboots, making this the
    /// dominant launch mode.
    pub fn blaster_reboot(generation: HardwareGeneration) -> SeedModel {
        SeedModel {
            boot: generation.boot_time(),
            delay: None,
            resolution_ms: Self::TICK_RESOLUTION_MS,
        }
    }

    /// Seed model for the broader infected population: boot time plus a
    /// minutes-scale launch delay.
    pub fn blaster_population(generation: HardwareGeneration) -> SeedModel {
        SeedModel {
            boot: generation.boot_time(),
            delay: Some(LaunchDelayModel::blaster_population()),
            resolution_ms: Self::TICK_RESOLUTION_MS,
        }
    }

    /// Overrides the timer granularity (1 = ideal millisecond timer).
    ///
    /// # Panics
    ///
    /// Panics if `resolution_ms == 0`.
    pub fn with_resolution_ms(mut self, resolution_ms: u32) -> SeedModel {
        assert!(resolution_ms > 0, "timer resolution must be positive");
        self.resolution_ms = resolution_ms;
        self
    }

    /// Samples the `GetTickCount()` value passed to `srand`, quantized to
    /// the timer resolution exactly like the real counter.
    pub fn sample_seed<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let boot = self.boot.sample(rng).as_millis();
        let delay = self.delay.map_or(0, |d| d.sample(rng).as_millis());
        let raw = boot.wrapping_add(delay);
        raw - raw % self.resolution_ms
    }
}

/// Standard normal via Box–Muller (keeps us inside the approved `rand`
/// crate without `rand_distr`).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tick_count_conversions() {
        assert_eq!(TickCount::from_secs_f64(2.5).as_millis(), 2500);
        assert_eq!(TickCount::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(TickCount::from_secs_f64(-5.0).as_millis(), 0);
        assert_eq!(TickCount::from_secs_f64(1e12).as_millis(), u32::MAX);
    }

    #[test]
    fn tick_count_display() {
        assert_eq!(TickCount::from_millis(2_300).to_string(), "2.300s");
        assert_eq!(TickCount::from_millis(138_000).to_string(), "2m18.000s");
        assert_eq!(
            TickCount::from_millis(7_380_000).to_string(),
            "2h03m00.000s"
        );
    }

    #[test]
    fn boot_times_cluster_near_30_seconds() {
        let mut rng = StdRng::seed_from_u64(42);
        for generation in HardwareGeneration::ALL {
            let model = generation.boot_time();
            let n = 2000;
            let mean: f64 = (0..n)
                .map(|_| model.sample(&mut rng).as_secs_f64())
                .sum::<f64>()
                / f64::from(n);
            assert!(
                (mean - model.mean_secs()).abs() < 0.2,
                "{generation}: sample mean {mean} far from {}",
                model.mean_secs()
            );
        }
    }

    #[test]
    fn newer_hardware_boots_faster() {
        assert!(
            HardwareGeneration::PentiumIv.boot_time().mean_secs()
                < HardwareGeneration::PentiumIi.boot_time().mean_secs()
        );
    }

    #[test]
    fn reboot_seeds_are_narrow_band() {
        // The crux of the Blaster story: seeds from rebooted machines span
        // only a few thousand of the 2^32 possible values.
        let mut rng = StdRng::seed_from_u64(7);
        let model = SeedModel::blaster_reboot(HardwareGeneration::PentiumIii);
        let seeds: Vec<u32> = (0..1000).map(|_| model.sample_seed(&mut rng)).collect();
        let min = *seeds.iter().min().unwrap();
        let max = *seeds.iter().max().unwrap();
        assert!(max - min < 10_000, "band {min}..{max} too wide");
        assert!(f64::from(max - min) / (u32::MAX as f64) < 1e-5);
    }

    #[test]
    fn population_delays_center_on_minutes() {
        let mut rng = StdRng::seed_from_u64(9);
        let model = LaunchDelayModel::blaster_population();
        let mut delays: Vec<f64> = (0..4000)
            .map(|_| model.sample(&mut rng).as_secs_f64() / 60.0)
            .collect();
        delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = delays[delays.len() / 2];
        assert!((3.5..6.0).contains(&median), "median {median} min");
        // bulk within 1..=20 minutes, matching the paper's inferred range
        let in_bulk = delays.iter().filter(|d| (1.0..=20.0).contains(*d)).count();
        assert!(in_bulk as f64 / delays.len() as f64 > 0.8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn boot_model_rejects_nonpositive_mean() {
        let _ = BootTimeModel::new(0.0, 1.0);
    }

    #[test]
    fn seeds_are_quantized_to_timer_resolution() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = SeedModel::blaster_population(HardwareGeneration::PentiumIii);
        for _ in 0..200 {
            assert_eq!(
                model.sample_seed(&mut rng) % SeedModel::TICK_RESOLUTION_MS,
                0
            );
        }
        // an ideal 1ms timer produces non-multiples too
        let ideal = model.with_resolution_ms(1);
        let any_offset = (0..200).any(|_| !ideal.sample_seed(&mut rng).is_multiple_of(16));
        assert!(any_offset);
    }

    #[test]
    fn timer_quantization_collapses_reboot_seeds() {
        // The timer ablation: 10,000 Blaster reboots draw 388 distinct
        // seeds through the 16 ms GetTickCount() timer, against 3,745
        // through an ideal 1 ms timer.
        let distinct = |model: &SeedModel| {
            let mut rng = StdRng::seed_from_u64(11);
            (0..10_000)
                .map(|_| model.sample_seed(&mut rng))
                .collect::<std::collections::BTreeSet<u32>>()
                .len()
        };
        let quantized = SeedModel::blaster_reboot(HardwareGeneration::PentiumIii);
        assert_eq!(distinct(&quantized), 388);
        assert_eq!(distinct(&quantized.with_resolution_ms(1)), 3_745);
    }

    #[test]
    fn reboot_seeds_collide_across_machines() {
        // the entropy failure in one assertion: hundreds of independent
        // machines share a handful of possible seeds
        let mut rng = StdRng::seed_from_u64(6);
        let model = SeedModel::blaster_reboot(HardwareGeneration::PentiumIii);
        let seeds: std::collections::HashSet<u32> =
            (0..1000).map(|_| model.sample_seed(&mut rng)).collect();
        assert!(
            seeds.len() < 500,
            "{} distinct seeds from 1000 reboots — too much entropy",
            seeds.len()
        );
    }

    #[test]
    fn seed_model_is_deterministic_given_rng_seed() {
        let model = SeedModel::blaster_population(HardwareGeneration::PentiumIi);
        let a: Vec<u32> = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..10).map(|_| model.sample_seed(&mut rng)).collect()
        };
        let b: Vec<u32> = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..10).map(|_| model.sample_seed(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
