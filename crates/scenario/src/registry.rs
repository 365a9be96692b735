//! Named scenario presets: every paper artifact the repository
//! regenerates, plus the cross-mode determinism scenarios and the bench
//! workloads, each as a [`ScenarioSpec`] factory.
//!
//! A preset is parameterized only by [`Scale`]: `quick` picks the smoke
//! sizes `hotspots run <name> --quick` uses, `paper` the full-scale
//! parameters. `hotspots run <name>` is the one way to regenerate an
//! artifact; the golden reports under `results/golden/` pin each
//! preset's run report at `--quick`.

use hotspots::scenarios::blaster::BlasterStudy;
use hotspots::scenarios::codered::CodeRedStudy;
use hotspots::scenarios::detection::DetectionStudy;
use hotspots::scenarios::filtering::FilteringStudy;
use hotspots::scenarios::slammer::SlammerStudy;
use hotspots_sim::PAPER_CODERED_HOSTS;

use crate::cli::Scale;
use crate::spec::{
    EnvSpec, FaultsSpec, LatencySpec, NatSpec, PlacementSpec, PopSpec, ScenarioSpec, SimSpec,
    StudySpec, TelescopeSpec, WormSpec, CORPUS_SEED, NAT_DETECTION_FRACTION, QUARANTINE_SEED,
    SENSITIVITY_SEED, TOP_K_SLASH8S,
};

/// A named, registered scenario.
pub struct Preset {
    /// Registry name (`"fig2"`).
    pub name: &'static str,
    /// Banner artifact label (`"FIGURE 2"`).
    pub artifact: &'static str,
    /// Scenario label echoed in run reports (`"Figure 2"`).
    pub scenario: &'static str,
    /// One-line banner title.
    pub title: &'static str,
    /// What in the source paper this maps to (`list --verbose`).
    pub paper: &'static str,
    /// Grouping: `"figure"`, `"table"`, `"analysis"`, `"cross-mode"`,
    /// `"bench"`.
    pub family: &'static str,
    spec_fn: fn(Scale) -> ScenarioSpec,
}

impl Preset {
    /// Instantiates the preset's spec at `scale`, with `meta` filled
    /// from the registry entry.
    pub fn spec(&self, scale: Scale) -> ScenarioSpec {
        let mut spec = (self.spec_fn)(scale);
        spec.meta.name = self.name.to_owned();
        spec.meta.scenario = Some(self.scenario.to_owned());
        spec.meta.artifact = Some(self.artifact.to_owned());
        spec.meta.title = Some(self.title.to_owned());
        spec.meta.scale = Some(scale.label().to_owned());
        spec
    }
}

impl std::fmt::Debug for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Preset")
            .field("name", &self.name)
            .field("family", &self.family)
            .finish()
    }
}

/// All registered presets, in display order.
pub fn presets() -> &'static [Preset] {
    &PRESETS
}

/// Looks up a preset by registry name.
pub fn find_preset(name: &str) -> Option<&'static Preset> {
    PRESETS.iter().find(|p| p.name == name)
}

fn named_study(study: StudySpec) -> ScenarioSpec {
    let mut spec = ScenarioSpec::named("");
    spec.study = Some(study);
    spec
}

fn dense_engine(worm: WormSpec, count: u64, sim: SimSpec) -> ScenarioSpec {
    engine_spec(
        worm,
        PopSpec::Range {
            base: "11.11.0.0".to_owned(),
            count,
            stride: 1,
        },
        EnvSpec::default(),
        sim,
    )
}

fn engine_spec(
    worm: WormSpec,
    population: PopSpec,
    environment: EnvSpec,
    sim: SimSpec,
) -> ScenarioSpec {
    let mut spec = ScenarioSpec::named("");
    spec.worm = Some(worm);
    spec.population = Some(population);
    spec.environment = environment;
    spec.sim = sim;
    spec
}

fn xmode_hitlist_worm() -> WormSpec {
    WormSpec::HitList {
        prefixes: vec!["11.11.0.0/16".to_owned()],
        service: None,
    }
}

fn fig5_detection(scale: Scale, max_time_quick: f64, max_time_paper: f64) -> DetectionStudy {
    DetectionStudy {
        population: scale.pick(10_000, PAPER_CODERED_HOSTS),
        paper_profile: scale.pick(false, true),
        max_time: scale.pick(max_time_quick, max_time_paper),
        ..DetectionStudy::default()
    }
}

fn fig5_sizes() -> Vec<Option<u64>> {
    vec![Some(10), Some(100), Some(1000), None]
}

static PRESETS: [Preset; 23] = [
    Preset {
        name: "fig1",
        artifact: "FIGURE 1",
        scenario: "Figure 1",
        title: "Blaster unique sources by destination /24 (boot-time seeding)",
        paper: "Figure 1: Blaster hotspots from boot-time PRNG seeding (§3.1)",
        family: "figure",
        spec_fn: |scale| {
            named_study(StudySpec::BlasterCoverage(BlasterStudy {
                hosts: scale.pick(5_000, 60_000),
                window_secs: scale.pick(7.0, 30.0) * 24.0 * 3600.0,
                ..BlasterStudy::default()
            }))
        },
    },
    Preset {
        name: "fig2",
        artifact: "FIGURE 2",
        scenario: "Figure 2",
        title: "Slammer unique sources by destination /24 (flawed LCG cycles)",
        paper: "Figure 2: Slammer per-/24 bias from the broken LCG (§3.2)",
        family: "figure",
        spec_fn: |scale| {
            named_study(StudySpec::SlammerCoverage(SlammerStudy {
                hosts: scale.pick(20_000, 75_000),
                m_block_filter: true,
                ..SlammerStudy::default()
            }))
        },
    },
    Preset {
        name: "fig3",
        artifact: "FIGURE 3",
        scenario: "Figure 3",
        title: "per-host Slammer scanning bias and the LCG cycle periods",
        paper: "Figure 3: two Slammer hosts' footprints + cycle periods (§3.2)",
        family: "figure",
        spec_fn: |scale| {
            named_study(StudySpec::SlammerHosts {
                probes_per_host: scale.pick(200_000, 20_000_000),
            })
        },
    },
    Preset {
        name: "fig4",
        artifact: "FIGURE 4",
        scenario: "Figure 4",
        title: "CodeRedII × NAT topology: the 192/8 hotspot",
        paper: "Figure 4: CodeRedII 192/8 spike from NATted local preference (§3.3)",
        family: "figure",
        spec_fn: |scale| {
            named_study(StudySpec::CodeRedNat {
                study: CodeRedStudy {
                    hosts: scale.pick(3_000, 12_000),
                    probes_per_host: scale.pick(8_000, 20_000),
                    ..CodeRedStudy::default()
                },
                quarantine_probes_public: scale.pick(500_000, 7_567_093),
                quarantine_probes_natted: scale.pick(500_000, 7_567_361),
                quarantine_seed: QUARANTINE_SEED,
            })
        },
    },
    Preset {
        name: "fig5ab",
        artifact: "FIGURE 5(a,b)",
        scenario: "Figure 5(a,b)",
        title: "infection and sensor detection rate vs time for 4 hit-list sizes",
        paper: "Figure 5(a,b): hit-list size vs infection speed and sensor alert rate (§4)",
        family: "figure",
        spec_fn: |scale| {
            named_study(StudySpec::HitList {
                detection: fig5_detection(scale, 4_000.0, 20_000.0),
                sizes: fig5_sizes(),
            })
        },
    },
    Preset {
        name: "fig5c",
        artifact: "FIGURE 5(c)",
        scenario: "Figure 5(c)",
        title: "sensor placement vs the NAT-driven 192/8 hotspot",
        paper: "Figure 5(c): sensor placement vs the NAT hotspot (§4)",
        family: "figure",
        spec_fn: |scale| {
            named_study(StudySpec::NatDetection {
                detection: fig5_detection(scale, 3_000.0, 12_000.0),
                nat_fraction: NAT_DETECTION_FRACTION,
                sensors: scale.pick(1_000, 10_000),
                top_k_slash8s: TOP_K_SLASH8S,
            })
        },
    },
    Preset {
        name: "table1",
        artifact: "TABLE 1",
        scenario: "Table 1",
        title: "botnet scan commands and their hit-lists",
        paper: "Table 1: captured bot propagation commands and hit-lists (§3.4)",
        family: "table",
        spec_fn: |scale| {
            named_study(StudySpec::BotCommands {
                synthetic_commands: scale.pick(40, 400),
                corpus_seed: CORPUS_SEED,
                drone: "141.20.33.7".to_owned(),
            })
        },
    },
    Preset {
        name: "table2",
        artifact: "TABLE 2",
        scenario: "Table 2",
        title: "enterprise egress filtering hides infections from the telescope",
        paper: "Table 2: enterprise vs ISP filtering and observed sources (§3.5)",
        family: "table",
        spec_fn: |scale| {
            named_study(StudySpec::Filtering(FilteringStudy {
                infected_per_enterprise: scale.pick(100, 800),
                infected_per_isp: scale.pick(1_000, 20_000),
                probes_per_host: scale.pick(4_000, 12_000),
                ..FilteringStudy::default()
            }))
        },
    },
    Preset {
        name: "ablations",
        artifact: "ABLATIONS",
        scenario: "design-decision ablations",
        title: "design-decision ablations",
        paper: "beyond the paper: NAT topology, sensor mode, reboot fraction (DESIGN.md §5)",
        family: "analysis",
        spec_fn: |scale| {
            named_study(StudySpec::Ablations {
                nat_population: scale.pick(5_000, 40_000),
                nat_max_time: scale.pick(2_500.0, 6_000.0),
                sensor_hosts: scale.pick(800, 3_000),
                sensor_max_time: scale.pick(1_500.0, 3_000.0),
                reboot_hosts: scale.pick(3_000, 20_000),
            })
        },
    },
    Preset {
        name: "sensitivity",
        artifact: "SENSITIVITY",
        scenario: "placement sensitivity",
        title: "case studies over randomized sensor placements",
        paper: "beyond the paper: conclusions under randomized telescope placement (DESIGN.md §2)",
        family: "analysis",
        spec_fn: |scale| {
            named_study(StudySpec::Sensitivity {
                trials: scale.pick(3, 8),
                codered_hosts: scale.pick(1_200, 6_000),
                codered_probes_per_host: scale.pick(8_000, 15_000),
                slammer_hosts: scale.pick(10_000, 40_000),
                rng_seed: SENSITIVITY_SEED,
            })
        },
    },
    Preset {
        name: "fig5-outage",
        artifact: "FIGURE 5 + OUTAGE",
        scenario: "fig5-outage",
        title: "quorum detection misses the outbreak during a sensor outage",
        paper: "beyond the paper: Figure 5(b) detection under sensor failure (DESIGN.md §5e)",
        family: "analysis",
        spec_fn: |scale| {
            // the worm scans both the populated /16 and the dark sensor
            // /16, so the field would normally alert early in the run
            let mut spec = engine_spec(
                WormSpec::HitList {
                    prefixes: vec!["11.11.0.0/16".to_owned(), "66.66.0.0/16".to_owned()],
                    service: None,
                },
                PopSpec::Range {
                    base: "11.11.0.0".to_owned(),
                    count: scale.pick(400, 2_000),
                    stride: 1,
                },
                EnvSpec::default(),
                SimSpec {
                    scan_rate: 20.0,
                    seeds: 5,
                    max_time: scale.pick(120.0, 600.0),
                    stop_at_fraction: Some(0.95),
                    rng_seed: 0xfa17,
                    ..SimSpec::default()
                },
            );
            spec.telescope = TelescopeSpec::Field {
                placement: PlacementSpec::Prefixes {
                    prefixes: (0..16u32)
                        .map(|i| format!("66.66.{}.0/24", i * 16))
                        .collect(),
                },
                alert_threshold: 5,
                mode: "active".to_owned(),
            };
            // the sensor block fails for the growth phase: probes that
            // would have tripped the quorum are consumed by the outage
            spec.faults = FaultsSpec {
                schedule: vec![format!("outage 66.66.0.0/16 0 {}", scale.pick(90, 450))],
            };
            spec
        },
    },
    Preset {
        name: "xmode-uniform",
        artifact: "CROSS-MODE",
        scenario: "xmode-uniform",
        title: "uniform worm, dense /16 population",
        paper: "determinism harness: uniform scanning (no paper artifact)",
        family: "cross-mode",
        spec_fn: |_| {
            dense_engine(
                WormSpec::Uniform,
                200,
                SimSpec {
                    scan_rate: 40.0,
                    seeds: 8,
                    max_time: 40.0,
                    rng_seed: 11,
                    ..SimSpec::default()
                },
            )
        },
    },
    Preset {
        name: "xmode-blaster",
        artifact: "CROSS-MODE",
        scenario: "xmode-blaster",
        title: "Blaster reboot seeding under 20% loss",
        paper: "determinism harness: sequential scanning + loss (no paper artifact)",
        family: "cross-mode",
        spec_fn: |_| {
            let mut spec = dense_engine(
                WormSpec::Blaster {
                    hardware: "pentium-iv".to_owned(),
                    model: "reboot".to_owned(),
                },
                150,
                SimSpec {
                    scan_rate: 25.0,
                    seeds: 6,
                    max_time: 60.0,
                    rng_seed: 12,
                    ..SimSpec::default()
                },
            );
            spec.environment.loss = Some(0.2);
            spec
        },
    },
    Preset {
        name: "xmode-slammer",
        artifact: "CROSS-MODE",
        scenario: "xmode-slammer",
        title: "Slammer LCG walk with rate dispersion under 10% loss",
        paper: "determinism harness: LCG scanning + rate dispersion (no paper artifact)",
        family: "cross-mode",
        spec_fn: |_| {
            let mut spec = dense_engine(
                WormSpec::Slammer,
                300,
                SimSpec {
                    scan_rate: 30.0,
                    scan_rate_sigma: 1.0,
                    seeds: 10,
                    max_time: 50.0,
                    rng_seed: 13,
                    ..SimSpec::default()
                },
            );
            spec.environment.loss = Some(0.1);
            spec
        },
    },
    Preset {
        name: "xmode-codered2-nat",
        artifact: "CROSS-MODE",
        scenario: "xmode-codered2-nat",
        title: "CodeRedII local preference over a half-NATted population",
        paper: "determinism harness: local preference + NAT realms (no paper artifact)",
        family: "cross-mode",
        spec_fn: |_| {
            let mut spec = engine_spec(
                WormSpec::CodeRed2,
                PopSpec::Range {
                    base: "11.11.0.0".to_owned(),
                    count: 250,
                    stride: 3,
                },
                EnvSpec::default(),
                SimSpec {
                    scan_rate: 60.0,
                    seeds: 6,
                    max_time: 120.0,
                    stop_at_fraction: Some(0.9),
                    rng_seed: 14,
                    ..SimSpec::default()
                },
            );
            spec.environment.nat = Some(NatSpec {
                fraction: 0.5,
                topology: "isolated".to_owned(),
                seed: 7,
            });
            spec
        },
    },
    Preset {
        name: "xmode-hitlist",
        artifact: "CROSS-MODE",
        scenario: "xmode-hitlist",
        title: "hit-list worm over a dense /16",
        paper: "determinism harness: hit-list targeting + early stop (no paper artifact)",
        family: "cross-mode",
        spec_fn: |_| {
            dense_engine(
                xmode_hitlist_worm(),
                400,
                SimSpec {
                    scan_rate: 10.0,
                    seeds: 5,
                    max_time: 600.0,
                    stop_at_fraction: Some(0.95),
                    rng_seed: 15,
                    ..SimSpec::default()
                },
            )
        },
    },
    Preset {
        name: "xmode-hitlist-latency",
        artifact: "CROSS-MODE",
        scenario: "xmode-hitlist-latency",
        title: "hit-list worm under latency, loss, dispersion, and removal",
        paper: "determinism harness: the heaviest engine configuration (no paper artifact)",
        family: "cross-mode",
        spec_fn: |_| {
            let mut spec = dense_engine(
                xmode_hitlist_worm(),
                300,
                SimSpec {
                    scan_rate: 12.0,
                    scan_rate_sigma: 0.6,
                    seeds: 6,
                    max_time: 500.0,
                    removal_rate: 0.004,
                    rng_seed: 16,
                    ..SimSpec::default()
                },
            );
            spec.environment.latency = Some(LatencySpec {
                base_secs: 0.5,
                jitter_secs: 2.0,
            });
            spec.environment.loss = Some(0.1);
            spec
        },
    },
    Preset {
        name: "xmode-outage",
        artifact: "CROSS-MODE",
        scenario: "xmode-outage",
        title: "hit-list worm through a sensor outage and a flapping filter",
        paper: "determinism harness: fault schedule — outage + flap (no paper artifact)",
        family: "cross-mode",
        spec_fn: |_| {
            let mut spec = dense_engine(
                xmode_hitlist_worm(),
                300,
                SimSpec {
                    scan_rate: 15.0,
                    seeds: 6,
                    max_time: 80.0,
                    rng_seed: 17,
                    ..SimSpec::default()
                },
            );
            spec.faults = FaultsSpec {
                schedule: vec![
                    "outage 11.11.64.0/18 10 40".to_owned(),
                    "flap ingress 11.11.128.0/18 * 0 80 8 0.5".to_owned(),
                ],
            };
            spec
        },
    },
    Preset {
        name: "xmode-blackhole",
        artifact: "CROSS-MODE",
        scenario: "xmode-blackhole",
        title: "hit-list worm through an upstream blackhole and degraded loss",
        paper:
            "determinism harness: fault schedule — blackhole + degraded loss (no paper artifact)",
        family: "cross-mode",
        spec_fn: |_| {
            let mut spec = dense_engine(
                xmode_hitlist_worm(),
                300,
                SimSpec {
                    scan_rate: 15.0,
                    seeds: 6,
                    max_time: 80.0,
                    rng_seed: 18,
                    ..SimSpec::default()
                },
            );
            spec.faults = FaultsSpec {
                schedule: vec![
                    // the blackhole matches source hosts too, so the
                    // outbreak stalls completely inside [5, 30)
                    "blackhole 11.11.0.0/18 5 30".to_owned(),
                    "degraded 11.11.192.0/18 0 60 0.3".to_owned(),
                ],
            };
            spec
        },
    },
    Preset {
        name: "fig2-million",
        artifact: "FIGURE 2 AT SCALE",
        scenario: "fig2-million",
        title: "Slammer LCG bias over a 1M-host Internet-scale population",
        paper: "Figure 2 extended: per-/24 bias with 1M+ Zipf-placed vulnerable hosts (§3.2)",
        family: "figure",
        spec_fn: |scale| {
            engine_spec(
                WormSpec::Slammer,
                PopSpec::Zipf {
                    size: scale.pick(1_100_000, 2_200_000),
                    slash8s: 47,
                    seed: 0x51a3_2006,
                    store: "compressed".to_owned(),
                },
                EnvSpec::default(),
                // Paper scale stays pre-saturation: at 2.2M hosts a
                // scan rate past ~300/s saturates the population and
                // the per-step probe batch (held in memory for the
                // observer) grows toward hosts × rate entries.
                SimSpec {
                    scan_rate: scale.pick(50.0, 300.0),
                    seeds: 25,
                    max_time: scale.pick(20.0, 50.0),
                    rng_seed: 20,
                    ..SimSpec::default()
                },
            )
        },
    },
    Preset {
        name: "bench-hitlist",
        artifact: "BENCH",
        scenario: "bench-hitlist",
        title: "hit-list outbreak, 5k hosts / 100 s",
        paper: "engine throughput workload (BENCH_engine.json; no paper artifact)",
        family: "bench",
        spec_fn: |scale| {
            engine_spec(
                WormSpec::HitList {
                    prefixes: vec!["11.0.0.0/12".to_owned()],
                    service: None,
                },
                PopSpec::Range {
                    base: "11.0.0.0".to_owned(),
                    count: 5_000,
                    stride: 37,
                },
                EnvSpec::default(),
                SimSpec {
                    scan_rate: 10.0,
                    seeds: 25,
                    max_time: scale.pick(25.0, 100.0),
                    rng_seed: 1,
                    ..SimSpec::default()
                },
            )
        },
    },
    Preset {
        name: "bench-slammer",
        artifact: "BENCH",
        scenario: "bench-slammer",
        title: "Slammer probe-pipeline throughput, 5k hosts (timed run)",
        paper: "engine throughput workload (BENCH_engine.json; no paper artifact)",
        family: "bench",
        spec_fn: |scale| {
            engine_spec(
                WormSpec::Slammer,
                PopSpec::Range {
                    base: "11.0.0.0".to_owned(),
                    count: 5_000,
                    stride: 37,
                },
                EnvSpec::default(),
                SimSpec {
                    scan_rate: scale.pick(200.0, 2_000.0),
                    seeds: 25,
                    max_time: scale.pick(60.0, 300.0),
                    rng_seed: 7,
                    ..SimSpec::default()
                },
            )
        },
    },
    Preset {
        name: "bench-million",
        artifact: "BENCH",
        scenario: "bench-million",
        title: "Slammer over 1M+ Zipf-placed hosts (compressed store)",
        paper:
            "Internet-scale engine workload: memory + throughput at 1M hosts (BENCH_engine.json)",
        family: "bench",
        spec_fn: |scale| {
            engine_spec(
                WormSpec::Slammer,
                PopSpec::Zipf {
                    size: scale.pick(1_050_000, 4_200_000),
                    slash8s: 47,
                    seed: 0x2006_2006,
                    store: "compressed".to_owned(),
                },
                EnvSpec::default(),
                // Pre-saturation parameters (see fig2-million): the
                // bench measures the probe pipeline at 1M+ hosts, not
                // a fully saturated population's per-step batch.
                SimSpec {
                    scan_rate: scale.pick(100.0, 200.0),
                    seeds: 25,
                    max_time: scale.pick(30.0, 40.0),
                    rng_seed: 21,
                    ..SimSpec::default()
                },
            )
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = presets().iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), presets().len());
    }

    #[test]
    fn every_preset_validates_at_both_scales() {
        for preset in presets() {
            for scale in [Scale::Quick, Scale::Paper] {
                let spec = preset.spec(scale);
                spec.validate()
                    .unwrap_or_else(|e| panic!("{} @ {:?}: {e}", preset.name, scale));
            }
        }
    }

    #[test]
    fn every_preset_round_trips_through_toml() {
        for preset in presets() {
            let spec = preset.spec(Scale::Quick);
            let toml = spec.to_toml();
            let back = ScenarioSpec::from_toml(&toml)
                .unwrap_or_else(|e| panic!("{}: {e}\n{toml}", preset.name));
            assert_eq!(spec, back, "{} TOML round-trip", preset.name);
        }
    }

    #[test]
    fn engine_presets_build() {
        for preset in presets() {
            let spec = preset.spec(Scale::Quick);
            if spec.study.is_none() {
                spec.build()
                    .unwrap_or_else(|e| panic!("{}: {e}", preset.name));
            }
        }
    }

    #[test]
    fn find_preset_resolves_names() {
        assert!(find_preset("fig2").is_some());
        assert!(find_preset("xmode-slammer").is_some());
        assert!(find_preset("nope").is_none());
    }
}
