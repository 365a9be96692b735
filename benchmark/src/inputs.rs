//! Generated inputs. Every spec the benchmark hands the program is
//! registry-preset text with its seeds derived from `--seed`; the
//! program under test receives nothing but that text.

use hotspots_scenario::spec::LatencySpec;
use hotspots_scenario::{find_preset, PopSpec, Scale, ScenarioSpec};
use hotspots_telemetry::hash::fnv1a_64;

use crate::{BenchError, Workload};

/// SplitMix64, kept local so a change to the repository's generators
/// cannot silently change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An input seed derived from the run seed and a per-input salt. 48
/// bits, because spec integers must fit TOML's signed 64-bit range.
fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix::new(seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64() >> 16
}

fn preset(name: &str, scale: Scale) -> Result<ScenarioSpec, BenchError> {
    find_preset(name)
        .map(|p| p.spec(scale))
        .ok_or_else(|| BenchError::Setup(format!("preset {name} is not registered")))
}

/// The spec text one engine workload runs at `seed`.
///
/// # Errors
///
/// A preset is missing or no longer has the shape the workload needs.
pub fn engine_spec(workload: Workload, seed: u64) -> Result<String, BenchError> {
    let mut spec = match workload {
        Workload::SlammerPipeline => {
            // Propagation delay past the horizon: hosts the seeds infect
            // never activate, so every seed's run sends the same
            // seeds × rate × time probes and only their targets differ.
            let mut spec = preset("bench-slammer", Scale::Paper)?;
            spec.environment.latency = Some(LatencySpec {
                base_secs: 2.0 * spec.sim.max_time,
                jitter_secs: 0.0,
            });
            spec
        }
        Workload::MillionHosts => {
            let mut spec = preset("bench-million", Scale::Quick)?;
            let Some(PopSpec::Zipf { seed: pop_seed, .. }) = &mut spec.population else {
                return Err(BenchError::Setup(
                    "bench-million no longer has a Zipf population".to_owned(),
                ));
            };
            *pop_seed = derive(seed, 2);
            spec
        }
        Workload::OutageDetect => preset("fig5-outage", Scale::Paper)?,
        Workload::ServeMix => {
            return Err(BenchError::Setup(
                "serve-mix has no single engine spec".to_owned(),
            ))
        }
    };
    spec.sim.rng_seed = derive(seed, 1);
    Ok(spec.to_toml())
}

/// The preset families behind the serve-mix specs, 10–40 ms runs each:
/// rank `r` is family `r % 4`, so every popularity band holds the same
/// family mix.
const SERVE_FAMILIES: [(&str, Scale); 4] = [
    ("xmode-hitlist", Scale::Quick),
    ("bench-hitlist", Scale::Paper),
    ("fig5-outage", Scale::Quick),
    ("xmode-hitlist-latency", Scale::Quick),
];

/// Distinct specs in the serve-mix stream: twelve times the cache.
pub const SERVE_DISTINCT: usize = 192;

/// The serve-mix spec texts, most popular first. `seed` picks every
/// spec's `sim.rng_seed`.
///
/// # Errors
///
/// A family preset is missing.
pub fn serve_specs(seed: u64, count: usize) -> Result<Vec<String>, BenchError> {
    (0..count)
        .map(|rank| {
            let (name, scale) = SERVE_FAMILIES[rank % SERVE_FAMILIES.len()];
            let mut spec = preset(name, scale)?;
            spec.sim.rng_seed = derive(seed, 0x5e7e_0000 + rank as u64);
            Ok(spec.to_toml())
        })
        .collect()
}

/// The serve-mix popularity sequence: Zipf (s = 1) over spec ranks,
/// drawn from a fixed generator. `--seed` chooses the spec at each rank
/// but not the sequence, so every seed sees the same hit/miss pattern
/// and the same family mix in each class.
#[derive(Debug, Clone)]
pub struct ZipfStream {
    cdf: Vec<f64>,
    rng: SplitMix,
}

impl ZipfStream {
    const SEED: u64 = 0x2006_0d5e;

    /// A stream over ranks `0..n`.
    #[must_use]
    pub fn new(n: usize) -> ZipfStream {
        let cdf = (1..=n)
            .scan(0.0, |acc, r| {
                *acc += 1.0 / r as f64;
                Some(*acc)
            })
            .collect();
        ZipfStream {
            cdf,
            rng: SplitMix::new(ZipfStream::SEED),
        }
    }

    /// The next requested rank.
    pub fn next_rank(&mut self) -> usize {
        let total = self.cdf.last().copied().unwrap_or(0.0);
        let u = self.rng.next_f64() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len().saturating_sub(1))
    }
}

/// FNV-1a over the inputs, each followed by a NUL separator.
#[must_use]
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut bytes = Vec::new();
    for part in parts {
        bytes.extend_from_slice(part.as_bytes());
        bytes.push(0);
    }
    fnv1a_64(&bytes)
}

/// The digest of every input `workload` generates at `seed`.
///
/// # Errors
///
/// As [`engine_spec`] and [`serve_specs`].
pub fn workload_digest(workload: Workload, seed: u64) -> Result<u64, BenchError> {
    match workload {
        Workload::ServeMix => {
            let specs = serve_specs(seed, SERVE_DISTINCT)?;
            Ok(digest(specs.iter().map(String::as_str)))
        }
        engine => Ok(digest([engine_spec(engine, seed)?.as_str()])),
    }
}
