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

/// A spec built through the API can hold integers that `Value::Int`
/// cannot: each row sets one integer of a valid preset above `i64::MAX`
/// and must fail `validate` naming it (text input cannot get there, as
/// every parsed integer is an `i64`).
#[test]
fn integers_above_i64_fail_validation() {
    type Edit = fn(&mut ScenarioSpec, u64);
    let rows: [(&str, Edit, &str); 5] = [
        ("bench-slammer", |s, n| s.sim.rng_seed = n, "sim.rng_seed"),
        (
            "bench-million",
            |s, n| {
                if let Some(PopSpec::Zipf { seed, .. }) = &mut s.population {
                    *seed = n;
                }
            },
            "population.seed",
        ),
        (
            "fig2",
            |s, n| {
                if let Some(StudySpec::SlammerCoverage(study)) = &mut s.study {
                    study.rng_seed = n;
                }
            },
            "study.rng_seed",
        ),
        (
            "fig5ab",
            |s, n| {
                if let Some(StudySpec::HitList { detection, .. }) = &mut s.study {
                    detection.rng_seed = n;
                }
            },
            "study.detection.rng_seed",
        ),
        (
            "fig5ab",
            |s, n| {
                if let Some(StudySpec::HitList { sizes, .. }) = &mut s.study {
                    sizes.push(Some(n));
                }
            },
            "study.sizes",
        ),
    ];
    for (preset, edit, field) in rows {
        let base = hotspots_scenario::find_preset(preset)
            .expect("a registry preset")
            .spec(Scale::Quick);
        let mut at_bound = base.clone();
        edit(&mut at_bound, i64::MAX as u64);
        at_bound
            .validate()
            .unwrap_or_else(|e| panic!("{preset}: i64::MAX is a valid {field}: {e}"));
        let mut above = base;
        edit(&mut above, u64::MAX);
        assert_eq!(
            above.validate().unwrap_err().to_string(),
            format!("{field}: {} exceeds 2^63 - 1", u64::MAX),
            "{preset}"
        );
    }
}

/// One defect in an otherwise valid preset: the preset whose quick-scale
/// tree is the base, the dotted path set, the value set there (as JSON,
/// so a row can replace a whole table), and the exact `field: message`
/// both `from_toml` and `from_json` must reject it with.
const MESSAGE_PINS: &[(&str, &str, &str, &str)] = &[
    // the root table
    ("xmode-uniform", "simulation", "1", "simulation: unknown field"),
    ("xmode-uniform", "sim", "5", "sim: expected a table, found integer"),
    ("xmode-uniform", "study", r#"{"kind":"slammer-hosts","probes_per_host":9}"#, "study: study scenarios define their own worm; remove [worm]"),
    ("fig1", "sim.seeds", "7", "sim: a study scenario reads only [study]; remove [sim]"),
    ("fig1", "environment.loss", "0.5", "environment: a study scenario reads only [study]; remove [environment]"),
    // meta
    ("xmode-uniform", "meta.name", r#""""#, "meta.name: must be non-empty"),
    ("xmode-uniform", "meta.nmae", r#""x""#, "meta.nmae: unknown field"),
    ("xmode-uniform", "meta", r#"{"scenario":"x"}"#, "meta.name: missing required field"),
    ("xmode-uniform", "meta.title", "5", "meta.title: expected a string, found integer"),
    // worm, each kind
    ("xmode-uniform", "worm.kind", r#""wormy""#, "worm.kind: unknown worm kind \"wormy\" (expected uniform, slammer, codered2, blaster, hit-list, local-preference, or bot)"),
    ("xmode-uniform", "worm.kind", "3", "worm.kind: expected a string, found integer"),
    ("xmode-uniform", "worm.hardware", r#""pentium-iv""#, "worm.hardware: unknown field"),
    ("xmode-blaster", "worm.hardware", r#""pentium-v""#, "worm.hardware: unknown generation \"pentium-v\" (expected pentium-ii, pentium-iii, or pentium-iv)"),
    ("xmode-blaster", "worm.model", r#""uptime""#, "worm.model: unknown seed model \"uptime\" (expected reboot or population)"),
    ("xmode-blaster", "worm", r#"{"kind":"blaster","model":"reboot"}"#, "worm.hardware: missing required field"),
    ("xmode-hitlist", "worm.prefixes", "[]", "worm.prefixes: must be non-empty"),
    ("xmode-hitlist", "worm.prefixes", r#"["11.0.0.0/33"]"#, "worm.prefixes[0]: bad prefix \"11.0.0.0/33\": prefix length 33 out of range (expected 0..=32)"),
    ("xmode-hitlist", "worm.prefixes", r#""11.0.0.0/8""#, "worm.prefixes: expected an array, found string"),
    ("xmode-hitlist", "worm.prefixes", r#"["11.0.0.0/8", 3]"#, "worm.prefixes[1]: expected a string, found integer"),
    ("xmode-hitlist", "worm.service", r#""icmp/1""#, "worm.service: unknown protocol \"icmp\" (expected tcp or udp)"),
    ("xmode-hitlist", "worm.service", r#""tcp/http""#, "worm.service: bad port \"http\""),
    ("xmode-hitlist", "worm.service", r#""tcp80""#, "worm.service: expected \"proto/port\", got \"tcp80\""),
    ("xmode-uniform", "worm", r#"{"kind":"local-preference","entries":[]}"#, "worm.entries: must be non-empty"),
    ("xmode-uniform", "worm", r#"{"kind":"local-preference","entries":["255.0.0.0*0"]}"#, "worm.entries[0]: weight must be positive"),
    ("xmode-uniform", "worm", r#"{"kind":"local-preference","entries":["255.0.0.0"]}"#, "worm.entries[0]: expected \"<mask>*<weight>\", got \"255.0.0.0\""),
    ("xmode-uniform", "worm", r#"{"kind":"local-preference","entries":["255.0.0*2"]}"#, "worm.entries[0]: bad address \"255.0.0\": invalid IPv4 address syntax: \"255.0.0\""),
    ("xmode-uniform", "worm", r#"{"kind":"bot","command":"bogus 1 2"}"#, "worm.command: unknown command verb: \"bogus\""),
    ("xmode-uniform", "worm", r#"{"kind":"bot"}"#, "worm.command: missing required field"),
    // environment, with its latency and nat sub-tables
    ("xmode-blaster", "environment.loss", "1.5", "environment.loss: must be in [0, 1], got 1.5"),
    ("xmode-blaster", "environment.loss", "-0.1", "environment.loss: must be in [0, 1], got -0.1"),
    ("xmode-blaster", "environment.loss", r#""x""#, "environment.loss: expected a number, found string"),
    ("xmode-blaster", "environment.los", "0.1", "environment.los: unknown field"),
    ("xmode-blaster", "environment.filters", r#"["sideways 10.0.0.0/8 *"]"#, "environment.filters[0]: unknown direction \"sideways\" (expected egress or ingress)"),
    ("xmode-blaster", "environment.filters", r#"["egress 10.0.0.0/8"]"#, "environment.filters[0]: expected \"<direction> <prefix> <service>\", got \"egress 10.0.0.0/8\""),
    ("xmode-blaster", "environment.filters", r#"["egress 10.0.0.0/8 tcp/99999"]"#, "environment.filters[0]: bad port \"99999\""),
    ("xmode-blaster", "environment.filters", r#""egress 10.0.0.0/8 *""#, "environment.filters: expected an array, found string"),
    ("xmode-hitlist-latency", "environment.latency.base_secs", "-1.0", "environment.latency: delays must be non-negative"),
    ("xmode-hitlist-latency", "environment.latency.jitter_secs", "-1.0", "environment.latency: delays must be non-negative"),
    ("xmode-hitlist-latency", "environment.latency.jitter", "1.0", "environment.latency.jitter: unknown field"),
    ("xmode-hitlist-latency", "environment.latency", r#"{"jitter_secs":1.0}"#, "environment.latency.base_secs: missing required field"),
    ("xmode-hitlist-latency", "environment.latency", "1.0", "environment.latency: expected a table, found float"),
    ("xmode-codered2-nat", "environment.nat.fraction", "1.5", "environment.nat.fraction: must be in [0, 1], got 1.5"),
    ("xmode-codered2-nat", "environment.nat.topology", r#""mesh""#, "environment.nat.topology: unknown topology \"mesh\" (expected isolated or shared)"),
    ("xmode-codered2-nat", "environment.nat.topology", "1", "environment.nat.topology: expected a string, found integer"),
    ("xmode-codered2-nat", "environment.nat.seed", "-1", "environment.nat.seed: must be non-negative, got -1"),
    ("xmode-codered2-nat", "environment.nat.sead", "1", "environment.nat.sead: unknown field"),
    ("xmode-codered2-nat", "environment.nat", r#"{"fraction":0.5,"topology":"isolated"}"#, "environment.nat.seed: missing required field"),
    // faults
    ("xmode-outage", "faults.schedule", r#"["flap sideways 10.0.0.0/8 * 0 100 5 0.5"]"#, "faults.schedule[0]: unknown direction \"sideways\" (expected egress or ingress)"),
    ("xmode-outage", "faults.schedule", r#"["flap egress 10.0.0.0/33 * 0 100 5 0.5"]"#, "faults.schedule[0]: bad prefix \"10.0.0.0/33\": prefix length 33 out of range (expected 0..=32)"),
    ("xmode-outage", "faults.schedule", r#"["flap egress 10.0.0.0/8 udp/x 0 100 5 0.5"]"#, "faults.schedule[0]: bad port \"x\""),
    ("xmode-outage", "faults.schedule", r#"["flap egress 10.0.0.0/8 * 0 100 0 0.5"]"#, "faults.schedule[0]: period must be positive, got 0"),
    ("xmode-outage", "faults.schedule", r#"["flap egress 10.0.0.0/8 * 0 100 5 1.5"]"#, "faults.schedule[0]: duty must be in (0, 1], got 1.5"),
    ("xmode-outage", "faults.schedule", r#"["outage 66.66.0.0/16 300 100"]"#, "faults.schedule[0]: window must be non-empty: t1 (100) must exceed t0 (300)"),
    ("xmode-outage", "faults.schedule", r#"["outage 66.66.0.0/16 -5 100"]"#, "faults.schedule[0]: t0 must be non-negative, got -5"),
    ("xmode-outage", "faults.schedule", r#"["outage 66.66.0.0/16 x 100"]"#, "faults.schedule[0]: t0 \"x\" is not a number"),
    ("xmode-outage", "faults.schedule", r#"["degraded 88.0.0.0/8 10 20 1.5"]"#, "faults.schedule[0]: must be in [0, 1], got 1.5"),
    ("xmode-outage", "faults.schedule", r#"["meteor 88.0.0.0/8 10 20"]"#, "faults.schedule[0]: expected \"outage <prefix> <t0> <t1>\", \"blackhole <prefix> <t0> <t1>\", \"flap <direction> <prefix> <service> <t0> <t1> <period> <duty>\", or \"degraded <prefix> <t0> <t1> <rate>\", got \"meteor 88.0.0.0/8 10 20\""),
    ("xmode-outage", "faults.schedule", r#""outage 66.66.0.0/16 0 9""#, "faults.schedule: expected an array, found string"),
    ("xmode-outage", "faults.scheduel", "[]", "faults.scheduel: unknown field"),
    // population, each kind
    ("xmode-uniform", "population.kind", r#""grid""#, "population.kind: unknown population kind \"grid\" (expected range, synthetic, paper, hosts, or zipf)"),
    ("xmode-uniform", "population.base", r#""300.0.0.0""#, "population.base: bad address \"300.0.0.0\": invalid IPv4 address syntax: \"300.0.0.0\""),
    ("xmode-uniform", "population.count", "0", "population.count: must be positive"),
    ("xmode-uniform", "population.count", "4294967296", "population.count: 4294967296 exceeds 2^32 - 1"),
    ("xmode-uniform", "population.count", "1.5", "population.count: expected an integer, found float"),
    ("xmode-uniform", "population.count", "4", "sim.seeds: 8 seed hosts exceed the population of 4"),
    ("xmode-uniform", "population.stride", "0", "population.stride: must be positive"),
    ("xmode-uniform", "population.stride", "4294967296", "population.stride: 4294967296 exceeds 2^32 - 1"),
    ("xmode-uniform", "population.cnt", "4", "population.cnt: unknown field"),
    ("xmode-uniform", "population", r#"{"kind":"range","base":"11.11.0.0"}"#, "population.count: missing required field"),
    ("xmode-uniform", "population", r#"{"kind":"synthetic","size":0,"slash8s":4,"seed":1}"#, "population.size: must be positive"),
    ("xmode-uniform", "population", r#"{"kind":"synthetic","size":100,"slash8s":0,"seed":1}"#, "population.slash8s: must be in [1, 200], got 0"),
    ("xmode-uniform", "population", r#"{"kind":"synthetic","size":100,"slash8s":201,"seed":1}"#, "population.slash8s: must be in [1, 200], got 201"),
    ("xmode-uniform", "population", r#"{"kind":"paper"}"#, "population.seed: missing required field"),
    ("xmode-uniform", "population", r#"{"kind":"hosts","addrs":[]}"#, "population.addrs: must be non-empty"),
    ("xmode-uniform", "population", r#"{"kind":"hosts","addrs":["1.2.3"]}"#, "population.addrs: bad address \"1.2.3\": invalid IPv4 address syntax: \"1.2.3\""),
    ("xmode-uniform", "population", r#"{"kind":"hosts","addrs":["11.0.0.1","11.0.0.1"]}"#, "sim.seeds: 8 seed hosts exceed the population of 1"),
    ("bench-million", "population.size", "0", "population.size: must be positive"),
    ("bench-million", "population.slash8s", "0", "population.slash8s: must be in [1, 200], got 0"),
    ("bench-million", "population.slash8s", "300", "population.slash8s: must be in [1, 200], got 300"),
    ("bench-million", "population.store", r#""sparse""#, "population.store: unknown store \"sparse\" (expected dense or compressed)"),
    ("bench-million", "population", r#"{"kind":"zipf","size":16777217,"slash8s":1,"seed":1}"#, "population.size: 16777217 hosts exceed the capacity of 1 /8s"),
    // telescope and its placement
    ("xmode-uniform", "telescope.kind", r#""array""#, "telescope.kind: unknown telescope kind \"array\" (expected none or field)"),
    ("fig5-outage", "telescope.alert_threshold", "0", "telescope.alert_threshold: must be positive"),
    ("fig5-outage", "telescope.alert_threshold", r#""5""#, "telescope.alert_threshold: expected an integer, found string"),
    ("fig5-outage", "telescope.mode", r#""loud""#, "telescope.mode: unknown mode \"loud\" (expected active or passive)"),
    ("fig5-outage", "telescope.modes", r#""active""#, "telescope.modes: unknown field"),
    ("fig5-outage", "telescope", r#"{"kind":"field"}"#, "telescope.placement: missing required field"),
    ("fig5-outage", "telescope.placement", r#""x""#, "telescope.placement: expected a table, found string"),
    ("fig5-outage", "telescope.placement.kind", r#""grid""#, "telescope.placement.kind: unknown placement kind \"grid\" (expected prefixes or random)"),
    ("fig5-outage", "telescope.placement.prefixes", "[]", "telescope.placement.prefixes: must be non-empty"),
    ("fig5-outage", "telescope.placement.prefixes", r#"["66.66.0.0/24", "bad"]"#, "telescope.placement.prefixes[1]: bad prefix \"bad\": invalid prefix length (expected 0..=32): \"bad\""),
    ("fig5-outage", "telescope.placement", r#"{"kind":"random","sensors":0,"seed":1}"#, "telescope.placement.sensors: must be positive"),
    ("fig5-outage", "telescope.placement", r#"{"kind":"random","sensors":5}"#, "telescope.placement.seed: missing required field"),
    ("fig5-outage", "telescope.placement", r#"{"kind":"random","sensors":5,"seed":1,"seeds":2}"#, "telescope.placement.seeds: unknown field"),
    // sim
    ("xmode-uniform", "sim.scan_rate", "0.0", "sim.scan_rate: must be positive, got 0"),
    ("xmode-uniform", "sim.scan_rate", "-3.0", "sim.scan_rate: must be positive, got -3"),
    ("xmode-uniform", "sim.scan_rate_sigma", "-1.0", "sim.scan_rate_sigma: must be non-negative"),
    ("xmode-uniform", "sim.seeds", "0", "sim.seeds: must be positive"),
    ("xmode-uniform", "sim.seeds", "2.5", "sim.seeds: expected an integer, found float"),
    ("xmode-uniform", "sim.dt", "0.0", "sim.dt: must be positive, got 0"),
    ("xmode-uniform", "sim.max_time", "0.5", "sim.max_time: shorter than one step"),
    ("xmode-uniform", "sim.stop_at_fraction", "1.5", "sim.stop_at_fraction: must be in [0, 1], got 1.5"),
    ("xmode-uniform", "sim.removal_rate", "-0.1", "sim.removal_rate: must be non-negative"),
    ("xmode-uniform", "sim.rng_seed", "-1", "sim.rng_seed: must be non-negative, got -1"),
    ("xmode-uniform", "sim.rng_seed", r#""x""#, "sim.rng_seed: expected an integer, found string"),
    ("xmode-uniform", "sim.threads", "2", "sim.threads: unknown field"),
    // study.detection
    ("fig5ab", "study.detection.population", "0", "study.detection.population: must be positive"),
    ("fig5ab", "study.detection.population", "3", "study.detection.seeds: 25 seed hosts exceed the population of 3"),
    ("fig5ab", "study.detection.slash8s", "0", "study.detection.slash8s: must be in [1, 200], got 0"),
    ("fig5ab", "study.detection.slash8s", "201", "study.detection.slash8s: must be in [1, 200], got 201"),
    ("fig5ab", "study.detection.paper_profile", "1", "study.detection.paper_profile: expected a bool, found integer"),
    ("fig5ab", "study.detection.seeds", "0", "study.detection.seeds: must be positive"),
    ("fig5ab", "study.detection.scan_rate", "0.0", "study.detection.scan_rate: must be positive, got 0"),
    ("fig5ab", "study.detection.alert_threshold", "0", "study.detection.alert_threshold: must be positive"),
    ("fig5ab", "study.detection.max_time", "0.0", "study.detection.max_time: must be positive, got 0"),
    ("fig5ab", "study.detection.stop_at_fraction", "1.5", "study.detection.stop_at_fraction: must be in [0, 1], got 1.5"),
    ("fig5ab", "study.detection.rng_seed", "-2", "study.detection.rng_seed: must be non-negative, got -2"),
    ("fig5ab", "study.detection.popluation", "5", "study.detection.popluation: unknown field"),
    ("fig5ab", "study.detection", r#"{"max_time":60.0}"#, "study.detection.population: missing required field"),
    ("fig5ab", "study.detection", "[1]", "study.detection: expected a table, found array"),
    // each study kind
    ("fig1", "study.kind", r#""fig9""#, "study.kind: unknown study kind \"fig9\""),
    ("fig1", "study.kind", "9", "study.kind: expected a string, found integer"),
    ("fig1", "study", r#"{"hosts":7}"#, "study.kind: missing required field"),
    ("fig1", "study.hosts", "0", "study.hosts: must be positive"),
    ("fig1", "study.hosts", r#""x""#, "study.hosts: expected an integer, found string"),
    ("fig1", "study.hots", "7", "study.hots: unknown field"),
    ("fig1", "study.window_secs", "0.0", "study.window_secs: must be positive, got 0"),
    ("fig1", "study.scan_rate", "0.0", "study.scan_rate: must be positive, got 0"),
    ("fig1", "study.reboot_fraction", "1.5", "study.reboot_fraction: must be in [0, 1], got 1.5"),
    ("fig1", "study", r#"{"kind":"blaster-coverage","hosts":7}"#, "study.window_secs: missing required field"),
    ("fig2", "study.hosts", "0", "study.hosts: must be positive"),
    ("fig2", "study.m_block_filter", r#""yes""#, "study.m_block_filter: expected a bool, found string"),
    ("fig2", "study.rng_seed", "-1", "study.rng_seed: must be non-negative, got -1"),
    ("fig3", "study.probes_per_host", "0", "study.probes_per_host: must be positive"),
    ("fig3", "study", r#"{"kind":"slammer-hosts"}"#, "study.probes_per_host: missing required field"),
    ("fig4", "study.hosts", "0", "study.hosts: must be positive"),
    ("fig4", "study.probes_per_host", "0", "study.probes_per_host: must be positive"),
    ("fig4", "study.nat_fraction", "1.5", "study.nat_fraction: must be in [0, 1], got 1.5"),
    ("fig4", "study.quarantine_probes_public", "1.5", "study.quarantine_probes_public: expected an integer, found float"),
    ("fig4", "study", r#"{"kind":"codered-nat","hosts":7,"probes_per_host":9,"quarantine_probes_public":1}"#, "study.quarantine_probes_natted: missing required field"),
    ("fig5ab", "study.sizes", "[]", "study.sizes: must be non-empty"),
    ("fig5ab", "study.sizes", r#"[10, 0]"#, "study.sizes[1]: must be positive"),
    ("fig5ab", "study.sizes", r#"["half"]"#, "study.sizes[0]: expected an integer or \"full\", got \"half\""),
    ("fig5ab", "study.sizes", "[-1]", "study.sizes[0]: must be non-negative, got -1"),
    ("fig5ab", "study.sizes", "10", "study.sizes: expected an array, found integer"),
    ("fig5c", "study.nat_fraction", "1.5", "study.nat_fraction: must be in [0, 1], got 1.5"),
    ("fig5c", "study.sensors", "0", "study.sensors: must be positive"),
    ("fig5c", "study.sensors", "100000000", "study.sensors: 100000000 exceeds the 1310720 disjoint /24s of the top 20 /8s"),
    ("fig5c", "study.top_k_slash8s", "0", "study.top_k_slash8s: must be positive"),
    ("fig5c", "study.top_k_slash8s", "1.0", "study.top_k_slash8s: expected an integer, found float"),
    ("table1", "study.drone", r#""1.2.3""#, "study.drone: bad address \"1.2.3\": invalid IPv4 address syntax: \"1.2.3\""),
    ("table1", "study.synthetic_commands", "-4", "study.synthetic_commands: must be non-negative, got -4"),
    ("table1", "study", r#"{"kind":"bot-commands","synthetic_commands":4}"#, "study.drone: missing required field"),
    ("table2", "study.infected_per_enterprise", "0", "study.infected_per_enterprise: must be positive"),
    ("table2", "study.infected_per_isp", "0", "study.infected_per_isp: must be positive"),
    ("table2", "study.probes_per_host", "0", "study.probes_per_host: must be positive"),
    ("table2", "study.blaster_scan_len", "1.5", "study.blaster_scan_len: expected an integer, found float"),
    ("ablations", "study.nat_population", "0", "study.nat_population: must be positive"),
    ("ablations", "study.nat_population", "5", "study.nat_population: 25 seed hosts exceed the population of 5"),
    ("ablations", "study.nat_max_time", "0.0", "study.nat_max_time: must be positive, got 0"),
    ("ablations", "study.sensor_hosts", "0", "study.sensor_hosts: must be positive"),
    ("ablations", "study.sensor_hosts", "5", "study.sensor_hosts: 10 seed hosts exceed the population of 5"),
    ("ablations", "study.sensor_hosts", "70000", "study.sensor_hosts: 70000 exceeds the 65536 addresses of one /16"),
    ("ablations", "study.sensor_max_time", "0.0", "study.sensor_max_time: must be positive, got 0"),
    ("ablations", "study.reboot_hosts", "0", "study.reboot_hosts: must be positive"),
    ("ablations", "study.reboot_host", "5", "study.reboot_host: unknown field"),
    ("sensitivity", "study.trials", "0", "study.trials: must be positive"),
    ("sensitivity", "study.codered_hosts", "0", "study.codered_hosts: must be positive"),
    ("sensitivity", "study.codered_probes_per_host", "0", "study.codered_probes_per_host: must be positive"),
    ("sensitivity", "study.slammer_hosts", "0", "study.slammer_hosts: must be positive"),
    ("sensitivity", "study.rng_seed", "0.5", "study.rng_seed: expected an integer, found float"),
    // sweep
    ("xmode-uniform", "sweep", r#"{"param":"sim.scan_rate","values":[]}"#, "sweep.values: must be non-empty"),
    ("xmode-uniform", "sweep", r#"{"param":"sim.scan_rte","values":[1.0]}"#, "sweep.param: path \"sim.scan_rte\" not present in this spec"),
    ("xmode-uniform", "sweep", r#"{"param":"sim.scan_rate","values":1.0}"#, "sweep.values: expected an array"),
    ("xmode-uniform", "sweep", r#"{"param":"sim.scan_rate"}"#, "sweep.values: missing required field"),
    ("xmode-uniform", "sweep", r#"{"param":3,"values":[1.0]}"#, "sweep.param: expected a string, found integer"),
    ("xmode-uniform", "sweep", r#"{"param":"sim.scan_rate","values":[1.0],"valeus":[]}"#, "sweep.valeus: unknown field"),
];

/// Every bound, enumeration and table-shape rule of the spec schema,
/// pinned to its exact message: each row breaks one key of a valid
/// preset and must fail the same way through TOML and through JSON.
#[test]
fn every_validation_message_is_pinned() {
    let mut wrong = Vec::new();
    for &(preset, path, json, want) in MESSAGE_PINS {
        let mut tree = hotspots_scenario::find_preset(preset)
            .unwrap_or_else(|| panic!("{preset}: no such preset"))
            .spec(Scale::Quick)
            .to_value();
        let value = hotspots_scenario::value::from_json(&format!("{{\"v\": {json}}}"))
            .unwrap_or_else(|e| panic!("{path} = {json}: {e}"))
            .get("v")
            .cloned()
            .expect("the wrapper holds v");
        tree.set_path(path, value)
            .unwrap_or_else(|e| panic!("{preset}: {e}"));
        let toml = ScenarioSpec::from_toml(&hotspots_scenario::value::to_toml(&tree));
        let json_err = ScenarioSpec::from_json(&hotspots_scenario::value::to_json(&tree));
        for (format, got) in [("toml", toml), ("json", json_err)] {
            let got = match got {
                Ok(_) => "accepted".to_owned(),
                Err(e) => e.to_string(),
            };
            if got != want {
                wrong.push(format!(
                    "({preset:?}, {path:?}, {json:?}) via {format}: {got:?}"
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{} rows differ:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}
