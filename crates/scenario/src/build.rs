//! Building a validated engine-path [`ScenarioSpec`] into the concrete
//! simulation types.

use hotspots_ipspace::{Ip, Prefix};
use hotspots_netmodel::{Environment, FaultPlan, LatencyModel, LossModel};
use hotspots_prng::entropy::{HardwareGeneration, SeedModel};
use hotspots_sim::{
    apply_nat, apply_nat_shared, canonical_parts, paper_codered_population,
    synthetic_codered_population, zipf_slash8_population, BlasterWorm, BotWorm, CodeRed2Worm,
    HitListWorm, LocalPreferenceWorm, Outbreak, Population, SimConfig, SlammerWorm, UniformWorm,
    WormModel,
};
use hotspots_targeting::HitList;
use hotspots_telescope::{placement, DetectorField, SensorMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spec::{
    parse_bot_command, parse_fault, parse_filter_entry, parse_hosts, parse_ip,
    parse_preference_entry, parse_prefix, parse_service, unknown, PlacementSpec, PopSpec,
    ScenarioSpec, SpecError, TelescopeSpec, WormSpec,
};

/// Converts a spec-supplied integer to `usize`, surfacing a dotted-path
/// error instead of silently truncating on narrow platforms.
pub(crate) fn spec_usize(field: &str, v: u64) -> Result<usize, SpecError> {
    usize::try_from(v).map_err(|_| SpecError::new(field, format!("{v} is too large")))
}

/// Converts a spec-supplied integer to `u32`, surfacing a dotted-path
/// error instead of silently wrapping.
pub(crate) fn spec_u32(field: &str, v: u64) -> Result<u32, SpecError> {
    u32::try_from(v).map_err(|_| SpecError::new(field, format!("{v} exceeds 2^32 - 1")))
}

/// Building reuses the spec-validation error type: every failure names
/// the spec field that caused it.
pub type BuildError = SpecError;

impl ScenarioSpec {
    /// Builds an engine-path spec into the [`Outbreak`] that runs it.
    /// Validates first; study-path specs are rejected (run those through
    /// [`run_spec`](crate::run::run_spec)).
    pub fn build(&self) -> Result<Outbreak, BuildError> {
        self.validate()?;
        let (Some(worm_spec), Some(pop_spec)) = (&self.worm, &self.population) else {
            return Err(SpecError::new(
                "worm",
                "study specs have no engine build; use run_spec",
            ));
        };

        let mut environment = Environment::new();
        if let Some(loss) = self.environment.loss {
            if let Some(model) = LossModel::new(loss) {
                environment.set_loss(model);
            }
        }
        if let Some(lat) = &self.environment.latency {
            if let Some(model) = LatencyModel::new(lat.base_secs, lat.jitter_secs) {
                environment.set_latency(model);
            }
        }
        for (i, rule) in self.environment.filters.iter().enumerate() {
            let rule = parse_filter_entry(&format!("environment.filters[{i}]"), rule)?;
            environment.filters_mut().push(rule);
        }
        if !self.faults.schedule.is_empty() {
            let plan: FaultPlan = self
                .faults
                .schedule
                .iter()
                .enumerate()
                .map(|(i, entry)| parse_fault(&format!("faults.schedule[{i}]"), entry))
                .collect::<Result<_, _>>()?;
            environment.set_faults(plan);
        }

        let addrs = build_addresses(pop_spec)?;
        let compressed = match pop_spec {
            PopSpec::Zipf { store, .. } => compressed_store(store)?,
            _ => false,
        };
        // Population construction surfaces duplicate addresses (and any
        // other store-build failure) as a typed spec error naming the
        // population field, instead of panicking mid-build.
        let population = match &self.environment.nat {
            Some(nat) => {
                let mut rng = StdRng::seed_from_u64(nat.seed);
                let loci = match shared_nat(&nat.topology)? {
                    true => apply_nat_shared(&mut environment, &addrs, nat.fraction, &mut rng),
                    false => apply_nat(&mut environment, &addrs, nat.fraction, &mut rng),
                }
                .map_err(|e| SpecError::new("environment.nat", e.to_string()))?;
                if compressed {
                    let (public, private) = canonical_parts(&loci);
                    Population::try_compressed_from_parts(&public, private)
                } else {
                    Population::try_from_loci(loci)
                }
            }
            None if compressed => Population::try_compressed_from_public(&addrs),
            None => Population::try_from_public(addrs),
        }
        .map_err(|e| SpecError::new("population", e.to_string()))?;

        let worm = build_worm(worm_spec)?;
        let detector = build_detector(&self.telescope)?;

        let config = SimConfig {
            scan_rate: self.sim.scan_rate,
            scan_rate_sigma: self.sim.scan_rate_sigma,
            seeds: spec_usize("sim.seeds", self.sim.seeds)?,
            dt: self.sim.dt,
            max_time: self.sim.max_time,
            stop_at_fraction: self.sim.stop_at_fraction,
            removal_rate: self.sim.removal_rate,
            rng_seed: self.sim.rng_seed,
            // run options, not spec fields: `run_spec` sets both from
            // its RunContext
            threads: 1,
            trace: false,
        };

        Ok(Outbreak {
            config,
            population,
            environment,
            worm,
            detector,
        })
    }
}

fn build_addresses(pop: &PopSpec) -> Result<Vec<Ip>, SpecError> {
    match pop {
        PopSpec::Range {
            base,
            count,
            stride,
        } => {
            let base = parse_ip("population.base", base)?;
            let count = spec_u32("population.count", *count)?;
            let stride = spec_u32("population.stride", *stride)?;
            Ok((0..count)
                .map(|i| Ip::new(base.value().wrapping_add(i.wrapping_mul(stride))))
                .collect())
        }
        PopSpec::Synthetic {
            size,
            slash8s,
            seed,
        } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            synthetic_codered_population(
                spec_usize("population.size", *size)?,
                spec_usize("population.slash8s", *slash8s)?,
                &mut rng,
            )
            .map_err(|e| SpecError::new("population.size", e.to_string()))
        }
        PopSpec::Paper { seed } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            Ok(paper_codered_population(&mut rng))
        }
        PopSpec::Hosts { addrs } => parse_hosts(addrs),
        PopSpec::Zipf {
            size,
            slash8s,
            seed,
            ..
        } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            Ok(zipf_slash8_population(
                spec_usize("population.size", *size)?,
                spec_usize("population.slash8s", *slash8s)?,
                &mut rng,
            ))
        }
    }
}

fn build_worm(worm: &WormSpec) -> Result<Box<dyn WormModel>, SpecError> {
    Ok(match worm {
        WormSpec::Uniform => Box::new(UniformWorm),
        WormSpec::Slammer => Box::new(SlammerWorm),
        WormSpec::CodeRed2 => Box::new(CodeRed2Worm),
        WormSpec::Blaster { hardware, model } => Box::new(BlasterWorm::new(seed_model(
            model,
            hardware_generation(hardware)?,
        )?)),
        WormSpec::HitList { prefixes, service } => {
            let prefixes: Vec<Prefix> = prefixes
                .iter()
                .enumerate()
                .map(|(i, p)| parse_prefix(&format!("worm.prefixes[{i}]"), p))
                .collect::<Result<_, _>>()?;
            let list = HitList::new(prefixes).map_err(|e| SpecError {
                field: "worm.prefixes".into(),
                message: format!("{e:?}"),
            })?;
            let mut w = HitListWorm::new(list);
            if let Some(s) = service {
                w = w.with_service(parse_service("worm.service", s)?);
            }
            Box::new(w)
        }
        WormSpec::LocalPreference { entries, service } => {
            let entries = entries
                .iter()
                .enumerate()
                .map(|(i, e)| parse_preference_entry(&format!("worm.entries[{i}]"), e))
                .collect::<Result<Vec<_>, _>>()?;
            let mut w = LocalPreferenceWorm::new(entries);
            if let Some(s) = service {
                w = w.with_service(parse_service("worm.service", s)?);
            }
            Box::new(w)
        }
        WormSpec::Bot { command } => {
            Box::new(BotWorm::new(parse_bot_command("worm.command", command)?))
        }
    })
}

fn build_detector(telescope: &TelescopeSpec) -> Result<Option<DetectorField>, SpecError> {
    match telescope {
        TelescopeSpec::None => Ok(None),
        TelescopeSpec::Field {
            placement: place,
            alert_threshold,
            mode,
        } => {
            let blocks = match place {
                PlacementSpec::Prefixes { prefixes } => prefixes
                    .iter()
                    .enumerate()
                    .map(|(i, p)| parse_prefix(&format!("telescope.placement.prefixes[{i}]"), p))
                    .collect::<Result<Vec<_>, _>>()?,
                PlacementSpec::Random { sensors, seed } => {
                    let mut rng = StdRng::seed_from_u64(*seed);
                    placement::random_slash24s(
                        spec_usize("telescope.placement.sensors", *sensors)?,
                        &[],
                        &mut rng,
                    )
                    .map_err(|e| SpecError::new("telescope.placement.sensors", e.to_string()))?
                }
            };
            Ok(Some(DetectorField::with_mode(
                blocks,
                *alert_threshold,
                sensor_mode(mode)?,
            )))
        }
    }
}

// The enumerated strings below are the `one_of` lists of the walks in
// spec.rs. Validation rejects any other value first; a value added to
// a list there and not mapped here fails the build naming its field
// instead of building as some other value.

/// The error for a value `validate` accepted but the build cannot map.
fn unmapped(field: &str, what: &str, value: &str) -> SpecError {
    SpecError::new(field, unknown(what, value, None))
}

fn hardware_generation(hardware: &str) -> Result<HardwareGeneration, SpecError> {
    match hardware {
        "pentium-ii" => Ok(HardwareGeneration::PentiumIi),
        "pentium-iii" => Ok(HardwareGeneration::PentiumIii),
        "pentium-iv" => Ok(HardwareGeneration::PentiumIv),
        other => Err(unmapped("worm.hardware", "generation", other)),
    }
}

fn seed_model(model: &str, generation: HardwareGeneration) -> Result<SeedModel, SpecError> {
    match model {
        "reboot" => Ok(SeedModel::blaster_reboot(generation)),
        "population" => Ok(SeedModel::blaster_population(generation)),
        other => Err(unmapped("worm.model", "seed model", other)),
    }
}

fn sensor_mode(mode: &str) -> Result<SensorMode, SpecError> {
    match mode {
        "active" => Ok(SensorMode::Active),
        "passive" => Ok(SensorMode::Passive),
        other => Err(unmapped("telescope.mode", "mode", other)),
    }
}

/// Whether a NAT topology pools its hosts into one shared realm.
fn shared_nat(topology: &str) -> Result<bool, SpecError> {
    match topology {
        "shared" => Ok(true),
        "isolated" => Ok(false),
        other => Err(unmapped("environment.nat.topology", "topology", other)),
    }
}

/// Whether a Zipf population's `store` picks the canonical build
/// (sorted publics, then NATed hosts) over input-order ids.
fn compressed_store(store: &str) -> Result<bool, SpecError> {
    match store {
        "compressed" => Ok(true),
        "dense" => Ok(false),
        other => Err(unmapped("population.store", "store", other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EnvSpec, LatencySpec, NatSpec, SimSpec};
    use hotspots_netmodel::Locus;

    fn base_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::named("build-test");
        spec.worm = Some(WormSpec::Uniform);
        spec.population = Some(PopSpec::Range {
            base: "11.11.0.0".into(),
            count: 100,
            stride: 1,
        });
        spec.sim = SimSpec {
            max_time: 10.0,
            seeds: 5,
            ..SimSpec::default()
        };
        spec
    }

    #[test]
    fn range_population_builds() {
        let built = base_spec().build().unwrap();
        assert_eq!(built.population.len(), 100);
        assert_eq!(
            built.population.locus(1),
            Locus::Public(Ip::from_octets(11, 11, 0, 1))
        );
        assert!(built.detector.is_none());
        assert_eq!(built.config.seeds, 5);
    }

    #[test]
    fn nat_moves_hosts_into_realms() {
        let mut spec = base_spec();
        spec.environment = EnvSpec {
            nat: Some(NatSpec {
                fraction: 1.0,
                topology: "isolated".into(),
                seed: 7,
            }),
            ..EnvSpec::default()
        };
        let built = spec.build().unwrap();
        assert!((0..built.population.len())
            .all(|i| matches!(built.population.locus(i), Locus::Private { .. })));
        assert_eq!(built.environment.realm_count(), 100);
    }

    #[test]
    fn environment_knobs_apply() {
        let mut spec = base_spec();
        spec.environment = EnvSpec {
            loss: Some(0.25),
            latency: Some(LatencySpec {
                base_secs: 0.5,
                jitter_secs: 1.0,
            }),
            filters: vec!["egress 11.11.0.0/24 *".into()],
            nat: None,
        };
        let built = spec.build().unwrap();
        assert_eq!(built.environment.loss().rate(), 0.25);
        assert_eq!(built.environment.latency().base_secs(), 0.5);
        assert_eq!(built.environment.filters().rules().len(), 1);
    }

    #[test]
    fn every_worm_kind_builds() {
        let worms = [
            WormSpec::Uniform,
            WormSpec::Slammer,
            WormSpec::CodeRed2,
            WormSpec::Blaster {
                hardware: "pentium-iv".into(),
                model: "reboot".into(),
            },
            WormSpec::HitList {
                prefixes: vec!["11.11.0.0/16".into()],
                service: Some("udp/1434".into()),
            },
            WormSpec::LocalPreference {
                entries: vec!["255.0.0.0*4".into(), "0.0.0.0*1".into()],
                service: None,
            },
        ];
        for worm in worms {
            let mut spec = base_spec();
            spec.worm = Some(worm.clone());
            let built = spec.build().unwrap_or_else(|e| panic!("{worm:?}: {e}"));
            // The generator must be constructible for an arbitrary host.
            let _ = built.worm.generator(built.population.locus(0), 0x1234_5678);
        }
    }

    #[test]
    fn detector_placements_build() {
        let mut spec = base_spec();
        spec.telescope = TelescopeSpec::Field {
            placement: PlacementSpec::Prefixes {
                prefixes: vec!["66.66.0.0/24".into(), "66.66.16.0/24".into()],
            },
            alert_threshold: 3,
            mode: "passive".into(),
        };
        let built = spec.build().unwrap();
        let det = built.detector.unwrap();
        assert_eq!(det.len(), 2);
        assert_eq!(det.threshold(), 3);
        assert_eq!(det.mode(), SensorMode::Passive);

        let mut spec = base_spec();
        spec.telescope = TelescopeSpec::Field {
            placement: PlacementSpec::Random {
                sensors: 10,
                seed: 9,
            },
            alert_threshold: 5,
            mode: "active".into(),
        };
        let det = spec.build().unwrap().detector.unwrap();
        assert_eq!(det.len(), 10);
    }

    /// The field `validate` names for an unlisted value, which the
    /// build's own error for it must name too.
    fn validate_field(edit: impl FnOnce(&mut ScenarioSpec)) -> String {
        let mut spec = base_spec();
        edit(&mut spec);
        spec.validate().unwrap_err().field
    }

    fn blaster(hardware: &str, model: &str) -> Option<WormSpec> {
        Some(WormSpec::Blaster {
            hardware: hardware.into(),
            model: model.into(),
        })
    }

    #[test]
    fn hardware_generations_map_or_name_the_field() {
        assert_eq!(
            hardware_generation("pentium-ii"),
            Ok(HardwareGeneration::PentiumIi)
        );
        assert_eq!(
            hardware_generation("pentium-iii"),
            Ok(HardwareGeneration::PentiumIii)
        );
        assert_eq!(
            hardware_generation("pentium-iv"),
            Ok(HardwareGeneration::PentiumIv)
        );
        let err = hardware_generation("pentium-v").unwrap_err();
        assert_eq!(err.message, "unknown generation \"pentium-v\"");
        let field = validate_field(|s| s.worm = blaster("pentium-v", "reboot"));
        assert_eq!(err.field, field);
    }

    #[test]
    fn seed_models_map_or_name_the_field() {
        let gen = HardwareGeneration::PentiumIii;
        assert_eq!(
            seed_model("reboot", gen),
            Ok(SeedModel::blaster_reboot(gen))
        );
        assert_eq!(
            seed_model("population", gen),
            Ok(SeedModel::blaster_population(gen))
        );
        let err = seed_model("cold-boot", gen).unwrap_err();
        assert_eq!(err.message, "unknown seed model \"cold-boot\"");
        let field = validate_field(|s| s.worm = blaster("pentium-iv", "cold-boot"));
        assert_eq!(err.field, field);
    }

    #[test]
    fn sensor_modes_map_or_name_the_field() {
        assert_eq!(sensor_mode("active"), Ok(SensorMode::Active));
        assert_eq!(sensor_mode("passive"), Ok(SensorMode::Passive));
        let err = sensor_mode("stealth").unwrap_err();
        assert_eq!(err.message, "unknown mode \"stealth\"");
        let field = validate_field(|s| {
            s.telescope = TelescopeSpec::Field {
                placement: PlacementSpec::Random {
                    sensors: 1,
                    seed: 1,
                },
                alert_threshold: 5,
                mode: "stealth".into(),
            }
        });
        assert_eq!(err.field, field);
    }

    #[test]
    fn nat_topologies_map_or_name_the_field() {
        assert_eq!(shared_nat("shared"), Ok(true));
        assert_eq!(shared_nat("isolated"), Ok(false));
        let err = shared_nat("carrier-grade").unwrap_err();
        assert_eq!(err.message, "unknown topology \"carrier-grade\"");
        let field = validate_field(|s| {
            s.environment.nat = Some(NatSpec {
                fraction: 0.5,
                topology: "carrier-grade".into(),
                seed: 1,
            })
        });
        assert_eq!(err.field, field);
    }

    #[test]
    fn population_stores_map_or_name_the_field() {
        assert_eq!(compressed_store("compressed"), Ok(true));
        assert_eq!(compressed_store("dense"), Ok(false));
        let err = compressed_store("sparse").unwrap_err();
        assert_eq!(err.message, "unknown store \"sparse\"");
        let field = validate_field(|s| {
            s.population = Some(PopSpec::Zipf {
                size: 1_000,
                slash8s: 4,
                seed: 1,
                store: "sparse".into(),
            })
        });
        assert_eq!(err.field, field);
    }

    #[test]
    fn build_errors_name_fields() {
        let mut spec = base_spec();
        spec.study = None;
        spec.worm = None;
        let err = match spec.build() {
            Ok(_) => panic!("wormless engine spec must not build"),
            Err(e) => e,
        };
        assert_eq!(err.field, "worm");

        // more random sensors than routable /24s: refused before any draw
        let mut spec = base_spec();
        spec.telescope = TelescopeSpec::Field {
            placement: PlacementSpec::Random {
                sensors: 1 << 32,
                seed: 9,
            },
            alert_threshold: 5,
            mode: "active".into(),
        };
        let err = match spec.build() {
            Ok(_) => panic!("2^32 sensors cannot fit routable space"),
            Err(e) => e,
        };
        assert_eq!(err.field, "telescope.placement.sensors");
        assert!(err.message.contains("disjoint /24s"), "{err}");
    }
}
