//! Serialization round-trip properties for [`ScenarioSpec`].
//!
//! Specs are plain data; the contract is that `to_toml`/`from_toml` and
//! `to_json`/`from_json` are inverses over every *valid* spec. The
//! generator below samples the whole schema — both the engine path and
//! all ten study kinds, with random environments, telescopes, and
//! sweeps — keeping each draw inside the validated ranges so the
//! property quantifies over specs a user could actually run.

use hotspots::scenarios::blaster::BlasterStudy;
use hotspots::scenarios::codered::CodeRedStudy;
use hotspots::scenarios::detection::DetectionStudy;
use hotspots::scenarios::filtering::FilteringStudy;
use hotspots::scenarios::slammer::SlammerStudy;
use hotspots_scenario::spec::{
    EnvSpec, FaultsSpec, LatencySpec, NatSpec, PlacementSpec, PopSpec, SimSpec, StudySpec,
    SweepSpec, TelescopeSpec, WormSpec,
};
use hotspots_scenario::{presets, Scale, ScenarioSpec, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pick<'a, T>(rng: &mut StdRng, choices: &'a [T]) -> &'a T {
    &choices[rng.gen_range(0..choices.len())]
}

/// Seeds in specs serialize through `Value::Int` (i64), so stay inside it.
fn arb_seed(rng: &mut StdRng) -> u64 {
    rng.gen::<u64>() >> 1
}

fn arb_ip(rng: &mut StdRng) -> String {
    // public-ish dotted quads: keep the first octet clear of 0/127/224+
    format!(
        "{}.{}.{}.{}",
        rng.gen_range(1u32..=200),
        rng.gen_range(0u32..=255),
        rng.gen_range(0u32..=255),
        rng.gen_range(0u32..=255)
    )
}

fn arb_prefix(rng: &mut StdRng) -> String {
    let len = rng.gen_range(8u32..=24);
    let base = (rng.gen::<u32>() >> (32 - len)) << (32 - len);
    let [a, b, c, d] = base.to_be_bytes();
    format!("{a}.{b}.{c}.{d}/{len}")
}

fn arb_worm(rng: &mut StdRng) -> WormSpec {
    let service = |rng: &mut StdRng| match rng.gen_range(0u32..3) {
        0 => None,
        1 => Some("tcp/80".to_owned()),
        _ => Some("udp/1434".to_owned()),
    };
    match rng.gen_range(0u32..7) {
        0 => WormSpec::Uniform,
        1 => WormSpec::Slammer,
        2 => WormSpec::CodeRed2,
        3 => WormSpec::Blaster {
            hardware: pick(rng, &["pentium-ii", "pentium-iii", "pentium-iv"]).to_string(),
            model: pick(rng, &["reboot", "population"]).to_string(),
        },
        4 => {
            let n = rng.gen_range(1usize..=4);
            WormSpec::HitList {
                prefixes: (0..n).map(|_| arb_prefix(rng)).collect(),
                service: service(rng),
            }
        }
        5 => {
            let n = rng.gen_range(1usize..=3);
            let masks = ["255.0.0.0", "255.255.0.0", "0.0.0.0"];
            WormSpec::LocalPreference {
                entries: (0..n)
                    .map(|i| format!("{}*{}", masks[i % masks.len()], rng.gen_range(1u32..=8)))
                    .collect(),
                service: service(rng),
            }
        }
        _ => WormSpec::Bot {
            command: pick(
                rng,
                &["advscan dcom2 150 3 0 -r -s", "ipscan 20.40.x.x dcom2 -s"],
            )
            .to_string(),
        },
    }
}

fn arb_pop(rng: &mut StdRng) -> PopSpec {
    match rng.gen_range(0u32..4) {
        0 => PopSpec::Range {
            base: arb_ip(rng),
            count: rng.gen_range(1u64..=100_000),
            stride: rng.gen_range(1u64..=1_000),
        },
        1 => PopSpec::Synthetic {
            size: rng.gen_range(1u64..=100_000),
            slash8s: rng.gen_range(1u64..=64),
            seed: arb_seed(rng),
        },
        2 => PopSpec::Paper {
            seed: arb_seed(rng),
        },
        _ => {
            let n = rng.gen_range(1usize..=8);
            PopSpec::Hosts {
                addrs: (0..n).map(|_| arb_ip(rng)).collect(),
            }
        }
    }
}

fn arb_env(rng: &mut StdRng) -> EnvSpec {
    let filters = match rng.gen_range(0u32..3) {
        0 => vec![],
        1 => vec![format!("egress {} udp/1434", arb_prefix(rng))],
        _ => vec![
            format!("egress {} tcp/80", arb_prefix(rng)),
            format!("ingress {} *", arb_prefix(rng)),
        ],
    };
    EnvSpec {
        loss: rng.gen_bool(0.5).then(|| rng.gen_range(0.0..1.0)),
        filters,
        latency: rng.gen_bool(0.3).then(|| LatencySpec {
            base_secs: rng.gen_range(0.0..2.0),
            jitter_secs: rng.gen_range(0.0..1.0),
        }),
        nat: rng.gen_bool(0.3).then(|| NatSpec {
            fraction: rng.gen_range(0.0..1.0),
            topology: pick(rng, &["isolated", "shared"]).to_string(),
            seed: arb_seed(rng),
        }),
    }
}

fn arb_faults(rng: &mut StdRng) -> FaultsSpec {
    let n = rng.gen_range(0usize..=4);
    let schedule = (0..n)
        .map(|_| {
            let t0 = rng.gen_range(0u64..1_000);
            let t1 = t0 + rng.gen_range(1u64..=1_000);
            match rng.gen_range(0u32..4) {
                0 => format!("outage {} {t0} {t1}", arb_prefix(rng)),
                1 => format!("blackhole {} {t0} {t1}", arb_prefix(rng)),
                2 => format!(
                    "flap {} {} {} {t0} {t1} {} 0.{}",
                    pick(rng, &["egress", "ingress"]),
                    arb_prefix(rng),
                    pick(rng, &["tcp/80", "udp/1434", "*"]),
                    rng.gen_range(1u64..=60),
                    rng.gen_range(1u32..=9),
                ),
                _ => format!(
                    "degraded {} {t0} {t1} 0.{}",
                    arb_prefix(rng),
                    rng.gen_range(1u32..=9)
                ),
            }
        })
        .collect();
    FaultsSpec { schedule }
}

fn arb_telescope(rng: &mut StdRng) -> TelescopeSpec {
    match rng.gen_range(0u32..3) {
        0 => TelescopeSpec::None,
        1 => {
            let n = rng.gen_range(1usize..=6);
            TelescopeSpec::Field {
                placement: PlacementSpec::Prefixes {
                    prefixes: (0..n).map(|_| arb_prefix(rng)).collect(),
                },
                alert_threshold: rng.gen_range(1u64..=50),
                mode: pick(rng, &["active", "passive"]).to_string(),
            }
        }
        _ => TelescopeSpec::Field {
            placement: PlacementSpec::Random {
                sensors: rng.gen_range(1u64..=2_000),
                seed: arb_seed(rng),
            },
            alert_threshold: rng.gen_range(1u64..=50),
            mode: pick(rng, &["active", "passive"]).to_string(),
        },
    }
}

/// The fewest hosts `pop` can hold (duplicate `Hosts` addresses
/// collapse into one), so a seed count up to it validates.
fn min_hosts(pop: &PopSpec) -> u64 {
    match pop {
        PopSpec::Range { count, .. } => *count,
        PopSpec::Synthetic { size, .. } | PopSpec::Zipf { size, .. } => *size,
        PopSpec::Paper { .. } => u64::MAX,
        PopSpec::Hosts { .. } => 1,
    }
}

fn arb_sim(rng: &mut StdRng, max_seeds: u64) -> SimSpec {
    let dt = *pick(rng, &[0.1, 0.5, 1.0]);
    SimSpec {
        scan_rate: rng.gen_range(0.5..4_000.0),
        scan_rate_sigma: rng.gen_range(0.0..2.0),
        seeds: rng.gen_range(1u64..=max_seeds.min(100)),
        dt,
        max_time: rng.gen_range(dt..10_000.0),
        stop_at_fraction: rng.gen_bool(0.5).then(|| rng.gen_range(0.05..1.0)),
        removal_rate: rng.gen_range(0.0..0.1),
        rng_seed: arb_seed(rng),
    }
}

fn arb_detection(rng: &mut StdRng) -> DetectionStudy {
    DetectionStudy {
        population: rng.gen_range(100usize..=200_000),
        slash8s: rng.gen_range(1usize..=64),
        paper_profile: rng.gen_bool(0.3),
        seeds: rng.gen_range(1usize..=50),
        scan_rate: rng.gen_range(0.5..100.0),
        alert_threshold: rng.gen_range(1u64..=20),
        max_time: rng.gen_range(10.0..10_000.0),
        stop_at_fraction: rng.gen_range(0.05..1.0),
        rng_seed: arb_seed(rng),
    }
}

fn arb_sizes(rng: &mut StdRng) -> Vec<Option<u64>> {
    let n = rng.gen_range(1usize..=4);
    (0..n)
        .map(|_| rng.gen_bool(0.8).then(|| rng.gen_range(1u64..=500)))
        .collect()
}

fn arb_study(rng: &mut StdRng) -> StudySpec {
    match rng.gen_range(0u32..10) {
        0 => StudySpec::BlasterCoverage(BlasterStudy {
            hosts: rng.gen_range(10usize..=100_000),
            window_secs: rng.gen_range(60.0..7_200.0),
            scan_rate: rng.gen_range(0.5..100.0),
            reboot_fraction: rng.gen_range(0.0..1.0),
            rng_seed: arb_seed(rng),
        }),
        1 => StudySpec::SlammerCoverage(SlammerStudy {
            hosts: rng.gen_range(10usize..=100_000),
            m_block_filter: rng.gen_bool(0.5),
            rng_seed: arb_seed(rng),
        }),
        2 => StudySpec::SlammerHosts {
            probes_per_host: rng.gen_range(1_000u64..=1_000_000),
        },
        3 => StudySpec::CodeRedNat {
            study: CodeRedStudy {
                hosts: rng.gen_range(10usize..=10_000),
                probes_per_host: rng.gen_range(100u64..=100_000),
                nat_fraction: rng.gen_range(0.0..1.0),
                rng_seed: arb_seed(rng),
            },
            quarantine_probes_public: rng.gen_range(1_000u64..=2_000_000),
            quarantine_probes_natted: rng.gen_range(1_000u64..=2_000_000),
            quarantine_seed: arb_seed(rng),
        },
        4 => StudySpec::HitList {
            detection: arb_detection(rng),
            sizes: arb_sizes(rng),
        },
        5 => StudySpec::NatDetection {
            detection: arb_detection(rng),
            nat_fraction: rng.gen_range(0.0..1.0),
            sensors: rng.gen_range(1u64..=2_000),
            top_k_slash8s: rng.gen_range(1u64..=64),
        },
        6 => StudySpec::BotCommands {
            synthetic_commands: rng.gen_range(1u64..=10_000),
            corpus_seed: arb_seed(rng),
            drone: arb_ip(rng),
        },
        7 => StudySpec::Filtering(FilteringStudy {
            infected_per_enterprise: rng.gen_range(1usize..=10_000),
            infected_per_isp: rng.gen_range(1usize..=10_000),
            probes_per_host: rng.gen_range(100u64..=100_000),
            blaster_scan_len: rng.gen_range(100u64..=100_000),
            rng_seed: arb_seed(rng),
        }),
        8 => StudySpec::Ablations {
            nat_population: rng.gen_range(10u64..=50_000),
            nat_max_time: rng.gen_range(10.0..10_000.0),
            sensor_hosts: rng.gen_range(10u64..=50_000),
            sensor_max_time: rng.gen_range(10.0..10_000.0),
            reboot_hosts: rng.gen_range(10u64..=100_000),
        },
        _ => StudySpec::Sensitivity {
            trials: rng.gen_range(1u64..=50),
            codered_hosts: rng.gen_range(10u64..=10_000),
            codered_probes_per_host: rng.gen_range(100u64..=100_000),
            slammer_hosts: rng.gen_range(10u64..=100_000),
            rng_seed: arb_seed(rng),
        },
    }
}

/// A sweep over a path the spec emits: `[sim]` on the engine path, and
/// `meta.name` on either (a study spec has no `[sim]`).
fn arb_sweep(rng: &mut StdRng, engine: bool) -> SweepSpec {
    let n = rng.gen_range(1usize..=4);
    let axis = if engine { rng.gen_range(0u32..3) } else { 2 };
    let (param, values): (&str, Vec<Value>) = match axis {
        0 => (
            "sim.scan_rate",
            (0..n)
                .map(|_| Value::Float(rng.gen_range(0.5..100.0)))
                .collect(),
        ),
        1 => (
            "sim.seeds",
            (0..n)
                .map(|_| Value::Int(rng.gen_range(1i64..=100)))
                .collect(),
        ),
        _ => (
            "meta.name",
            (0..n).map(|i| Value::Str(format!("point-{i}"))).collect(),
        ),
    };
    SweepSpec {
        param: param.to_owned(),
        values,
    }
}

/// One valid spec, sampled across the whole schema.
fn arb_spec(seed: u64) -> ScenarioSpec {
    let rng = &mut StdRng::seed_from_u64(seed);
    let mut spec = ScenarioSpec::named(format!("prop-{}", rng.gen_range(0u32..1_000_000)));
    if rng.gen_bool(0.5) {
        spec.meta.scenario = Some("a property-test scenario".to_owned());
    }
    if rng.gen_bool(0.3) {
        spec.meta.artifact = Some("FIGURE X".to_owned());
        spec.meta.title = Some("generated".to_owned());
    }
    if rng.gen_bool(0.3) {
        spec.meta.scale = Some(pick(rng, &["quick", "paper"]).to_string());
    }
    if rng.gen_bool(0.5) {
        // engine path
        spec.worm = Some(arb_worm(rng));
        let population = arb_pop(rng);
        spec.environment = arb_env(rng);
        spec.faults = arb_faults(rng);
        spec.telescope = arb_telescope(rng);
        spec.sim = arb_sim(rng, min_hosts(&population));
        spec.population = Some(population);
    } else {
        spec.study = Some(arb_study(rng));
    }
    if rng.gen_bool(0.3) {
        spec.sweep = Some(arb_sweep(rng, spec.study.is_none()));
    }
    spec
}

/// An arbitrary Unicode string biased toward the corners the escapers
/// must handle: C0 controls, quotes/backslashes, BMP scalars, and
/// non-BMP scalars (which the writers emit as surrogate pairs).
fn arb_unicode(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..40);
    (0..len)
        .map(|_| match rng.gen_range(0u32..6) {
            0 => char::from(rng.gen_range(0x20u8..0x7f)), // printable ASCII
            1 => char::from_u32(rng.gen_range(0u32..0x20)).expect("C0 is scalar"),
            2 => *pick(rng, &['"', '\\', '/', '\n', '\t', '\r', '#', '[', ']', '=']),
            3 => {
                // BMP, re-rolling the surrogate gap
                loop {
                    if let Some(c) = char::from_u32(rng.gen_range(0x80u32..0x1_0000)) {
                        break c;
                    }
                }
            }
            _ => char::from_u32(rng.gen_range(0x1_0000u32..0x11_0000).min(0x10_FFFF))
                .unwrap_or('\u{10000}'),
        })
        .collect()
}

proptest! {
    /// Satellite pin (PR 10): arbitrary Unicode — including control
    /// characters, non-BMP scalars, and every quoting hazard — survives
    /// the hand-rolled writer/parser pair on both the TOML and JSON
    /// paths, at the raw Value layer.
    #[test]
    fn arbitrary_unicode_strings_round_trip_both_formats(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = Value::table();
        for key in ["a", "b", "c"] {
            v.set(key, Value::Str(arb_unicode(&mut rng)));
        }
        v.set(
            "arr",
            Value::Array((0..3).map(|_| Value::Str(arb_unicode(&mut rng))).collect()),
        );
        let toml = hotspots_scenario::value::to_toml(&v);
        let back = hotspots_scenario::value::from_toml(&toml)
            .map_err(|e| TestCaseError::fail(format!("toml re-parse: {e}\n{toml:?}")))?;
        prop_assert_eq!(&v, &back);
        let json = hotspots_scenario::value::to_json(&v);
        let back = hotspots_scenario::value::from_json(&json)
            .map_err(|e| TestCaseError::fail(format!("json re-parse: {e}\n{json:?}")))?;
        prop_assert_eq!(&v, &back);
    }

    /// The same property one level up: a spec whose free-form meta
    /// strings are arbitrary Unicode still round-trips as a spec.
    #[test]
    fn specs_with_arbitrary_meta_strings_round_trip(seed in any::<u64>()) {
        let mut spec = arb_spec(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        spec.meta.title = Some(arb_unicode(&mut rng));
        spec.meta.artifact = Some(arb_unicode(&mut rng));
        let toml = spec.to_toml();
        let back = ScenarioSpec::from_toml(&toml)
            .map_err(|e| TestCaseError::fail(format!("toml re-parse: {e}\n{toml:?}")))?;
        prop_assert_eq!(&spec, &back);
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json)
            .map_err(|e| TestCaseError::fail(format!("json re-parse: {e}\n{json:?}")))?;
        prop_assert_eq!(&spec, &back);
    }

    #[test]
    fn generated_specs_validate(seed in any::<u64>()) {
        let spec = arb_spec(seed);
        if let Err(e) = spec.validate() {
            return Err(TestCaseError::fail(format!("generator produced invalid spec: {e}")));
        }
    }

    #[test]
    fn toml_round_trip_is_identity(seed in any::<u64>()) {
        let spec = arb_spec(seed);
        let toml = spec.to_toml();
        let back = ScenarioSpec::from_toml(&toml)
            .map_err(|e| TestCaseError::fail(format!("re-parse failed: {e}\n{toml}")))?;
        prop_assert_eq!(&spec, &back);
        // and the emitted text itself is a fixed point
        prop_assert_eq!(toml, back.to_toml());
    }

    #[test]
    fn json_round_trip_is_identity(seed in any::<u64>()) {
        let spec = arb_spec(seed);
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json)
            .map_err(|e| TestCaseError::fail(format!("re-parse failed: {e}\n{json}")))?;
        prop_assert_eq!(&spec, &back);
    }

    #[test]
    fn toml_and_json_agree(seed in any::<u64>()) {
        let spec = arb_spec(seed);
        let via_toml = ScenarioSpec::from_toml(&spec.to_toml())
            .map_err(|e| TestCaseError::fail(format!("toml: {e}")))?;
        let via_json = ScenarioSpec::from_json(&spec.to_json())
            .map_err(|e| TestCaseError::fail(format!("json: {e}")))?;
        prop_assert_eq!(via_toml, via_json);
    }
}

/// The registry is covered exhaustively (not statistically): every
/// preset at both scales validates and survives both formats.
#[test]
fn every_preset_round_trips_at_both_scales() {
    for preset in presets() {
        for scale in [Scale::Quick, Scale::Paper] {
            let spec = preset.spec(scale);
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: invalid at {scale:?}: {e}", preset.name));
            let toml = ScenarioSpec::from_toml(&spec.to_toml())
                .unwrap_or_else(|e| panic!("{}: toml re-parse: {e}", preset.name));
            assert_eq!(spec, toml, "{}: toml round-trip drifted", preset.name);
            let json = ScenarioSpec::from_json(&spec.to_json())
                .unwrap_or_else(|e| panic!("{}: json re-parse: {e}", preset.name));
            assert_eq!(spec, json, "{}: json round-trip drifted", preset.name);
        }
    }
}

/// `content_hash()` of every preset at (quick, paper) scale. The hash
/// is the serve cache's content address, so a codec change that moves
/// one byte of canonical TOML orphans every stored entry; these values
/// pin the address across such changes.
const PRESET_CONTENT_HASHES: &[(&str, u64, u64)] = &[
    ("fig1", 0xf024c355c86420f9, 0x2593a63225cb2655),
    ("fig2", 0xe4853685880076b9, 0x1bfdd7ac7edd4860),
    ("fig3", 0xb6ca68974781f375, 0x71c82dac14314f92),
    ("fig4", 0x4d7b2765b8943794, 0x1b238ac337fb8c9f),
    ("fig5ab", 0x8f2b4deab9b18632, 0x2df20e710f6156ce),
    ("fig5c", 0xdba17d3f9225b680, 0x47d88ae233fd205e),
    ("table1", 0x9b2c7c7c85976b98, 0xfbbe95fd9e4de15f),
    ("table2", 0x2ec54a83a9e27f85, 0x0b4c8054663233af),
    ("ablations", 0x7d61ca64f6b4de91, 0x484001eb1ff5d03b),
    ("sensitivity", 0xa01e29b4e269a8c4, 0x220ce26e75ddca7a),
    ("fig5-outage", 0x30989230ef872b43, 0xbb05e3e2ce150f3f),
    ("xmode-uniform", 0x67faba3425fa01cf, 0x9e3f6c7e3768bb3e),
    ("xmode-blaster", 0xf3fe127cbd1ff159, 0x04547ab98c4ea242),
    ("xmode-slammer", 0x54d123e2f3bf9e23, 0xa01da7351ce1ff08),
    ("xmode-codered2-nat", 0x38330cc9f5369f1f, 0x801801dfe01cf6ac),
    ("xmode-hitlist", 0x0490fcbaf1b76678, 0x1aa1c95c143fac65),
    (
        "xmode-hitlist-latency",
        0x25094c92a6d3a9ef,
        0x8c77c4b58f948a2c,
    ),
    ("xmode-outage", 0x44d69a4bc14f4060, 0x06bf1d4adabd9073),
    ("xmode-blackhole", 0x384c47b9cc8d0dc7, 0x4a7748089932934e),
    ("fig2-million", 0x62a4a44688d7b839, 0xfd83a417a84f6ab5),
    ("bench-hitlist", 0x37200ef1ec9f53da, 0xff2dc5d3d46e145d),
    ("bench-slammer", 0x4a9b48b7c75cba67, 0x017ce515650df21b),
    ("bench-million", 0x3edb0573e62bcb67, 0x3a77f9d0e7d7342c),
];

#[test]
fn preset_content_hashes_are_pinned() {
    let names: Vec<_> = presets().iter().map(|p| p.name).collect();
    let pinned: Vec<_> = PRESET_CONTENT_HASHES.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(
        names, pinned,
        "the table must list every preset, in registry order"
    );
    for &(name, quick, paper) in PRESET_CONTENT_HASHES {
        let preset = presets()
            .iter()
            .find(|p| p.name == name)
            .expect("listed above");
        for (scale, want) in [(Scale::Quick, quick), (Scale::Paper, paper)] {
            let got = preset.spec(scale).content_hash();
            assert_eq!(got, want, "{name} at {scale:?}: {got:#018x}");
        }
    }
}
