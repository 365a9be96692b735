//! Figure 5: how hotspots blind distributed detection.

use std::fmt;

use hotspots_ipspace::Prefix;
use hotspots_netmodel::Environment;
use hotspots_sim::{
    apply_nat, apply_nat_shared, occupied_slash16s, paper_codered_population,
    synthetic_codered_population, CodeRed2Worm, HitListWorm, Outbreak, Population, PopulationError,
    SimConfig, SimResult, PAPER_CODERED_HOSTS,
};
use hotspots_stats::TimeSeries;
use hotspots_targeting::HitList;
use hotspots_telescope::placement::{self, PlacementError};
use hotspots_telescope::DetectorField;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration shared by the Figure 5 experiments. Paper values:
/// 134,586 vulnerable hosts in 47 /8s, 25 seeds, 10 probes/s, alert
/// threshold 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionStudy {
    /// Vulnerable population size (ignored when `paper_profile` is set).
    pub population: usize,
    /// Number of /8s the population clusters into (ignored when
    /// `paper_profile` is set).
    pub slash8s: usize,
    /// Use the coverage-calibrated paper population (134,586 hosts,
    /// 4,481 /16s, published top-k coverages) instead of the tunable
    /// synthetic one.
    pub paper_profile: bool,
    /// Seed (initially infected) hosts.
    pub seeds: usize,
    /// Probes per second per infected host.
    pub scan_rate: f64,
    /// Per-sensor alert threshold (worm payloads).
    pub alert_threshold: u64,
    /// Simulation cut-off in seconds.
    pub max_time: f64,
    /// Stop once this infected fraction is reached.
    pub stop_at_fraction: f64,
    /// Master seed.
    pub rng_seed: u64,
}

impl Default for DetectionStudy {
    fn default() -> DetectionStudy {
        DetectionStudy {
            population: PAPER_CODERED_HOSTS,
            slash8s: 47,
            paper_profile: false,
            seeds: 25,
            scan_rate: 10.0,
            alert_threshold: 5,
            max_time: 20_000.0,
            stop_at_fraction: 0.95,
            rng_seed: 0xf15_2006,
        }
    }
}

impl DetectionStudy {
    fn sim_config(&self) -> SimConfig {
        SimConfig {
            scan_rate: self.scan_rate,
            seeds: self.seeds,
            dt: 1.0,
            max_time: self.max_time,
            stop_at_fraction: Some(self.stop_at_fraction),
            rng_seed: self.rng_seed,
            ..SimConfig::default()
        }
    }

    /// The study's vulnerable population (deterministic).
    ///
    /// # Errors
    ///
    /// [`PopulationError::Slash8Overfull`] when `population` does not
    /// fit the synthetic generator's /16s (see
    /// [`synthetic_codered_population`]).
    pub fn draw_population(&self) -> Result<Vec<hotspots_ipspace::Ip>, PopulationError> {
        let mut rng = StdRng::seed_from_u64(self.rng_seed ^ 0x9090);
        if self.paper_profile {
            Ok(paper_codered_population(&mut rng))
        } else {
            synthetic_codered_population(self.population, self.slash8s, &mut rng)
        }
    }

    /// Effective population size (accounts for the paper profile).
    pub fn population_size(&self) -> usize {
        if self.paper_profile {
            PAPER_CODERED_HOSTS
        } else {
            self.population
        }
    }
}

/// One hit-list experiment run (Figures 5a and 5b share it: 5a reads the
/// infection curve, 5b the alert curve).
#[derive(Debug)]
pub struct HitListRun {
    /// Number of /16 prefixes in the hit-list.
    pub list_size: usize,
    /// Fraction of the vulnerable population the list covers.
    pub coverage: f64,
    /// Fraction of sensors alerting vs time (Fig 5b).
    pub alert_curve: TimeSeries,
    /// Sensors deployed.
    pub sensors: usize,
    /// Sensors that had alerted by the end.
    pub sensors_alerted: usize,
    /// The engine's result: the infection curve (Fig 5a), the probe
    /// ledger, infections and simulated seconds.
    pub result: SimResult,
}

/// Runs the hit-list experiment for one list size (`None` means "every
/// occupied /16" — the paper's 4481 case).
///
/// Sensors: one /24 detector placed randomly inside each occupied /16,
/// alerting after `alert_threshold` payloads.
///
/// # Errors
///
/// Returns [`PopulationError::FewerHostsThanSeeds`] when the population
/// cannot hold the study's seed hosts.
pub fn hitlist_run(
    study: &DetectionStudy,
    size: Option<usize>,
) -> Result<HitListRun, PopulationError> {
    let population_addrs = study.draw_population()?;
    let occupied = occupied_slash16s(&population_addrs);
    let mut rng = StdRng::seed_from_u64(study.rng_seed ^ 0x5e50);
    let sensors: Vec<Prefix> = placement::one_per_prefix(&occupied, &mut rng);
    let k = size.unwrap_or(occupied.len()).min(occupied.len());
    let list = HitList::top_k_slash16(&population_addrs, k);
    let coverage = list.coverage(&population_addrs);
    // a sub-coverage list can never infect the whole population: stop
    // relative to what the list can reach (plus seed slack)
    let seed_slack = study.seeds as f64 / study.population_size() as f64;
    let mut config = study.sim_config();
    config.stop_at_fraction = Some((study.stop_at_fraction * coverage + seed_slack).min(1.0));
    let outbreak = Outbreak {
        config,
        population: Population::from_public(population_addrs.iter().copied()),
        environment: Environment::new(),
        worm: Box::new(HitListWorm::new(list)),
        detector: None,
    };
    let field = DetectorField::new(sensors, study.alert_threshold);
    let (result, field) = observed_run(outbreak, field)?;
    Ok(HitListRun {
        list_size: k,
        coverage,
        alert_curve: field.alert_curve(format!("{k}-prefix hit-list alerts")),
        sensors: field.len(),
        sensors_alerted: field.alerted(),
        result,
    })
}

/// Runs a study outbreak observed by `field`, returning the engine's
/// result and the field after the run.
fn observed_run(
    mut outbreak: Outbreak,
    field: DetectorField,
) -> Result<(SimResult, DetectorField), PopulationError> {
    outbreak.detector = Some(field);
    let (result, field) = outbreak.run()?;
    let field = field.expect("the outbreak carried a field"); // hotspots-lint: allow(panic-path) reason="the detector is set above, and Outbreak::run returns the detector it ran with"
    Ok((result, field))
}

/// Sensor placement strategies compared in Figure 5(c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// `n` /24 sensors uniformly random in routable space.
    Random {
        /// Number of sensors.
        sensors: usize,
    },
    /// `n` /24 sensors random inside the top-`k` /8s by vulnerable hosts.
    TopSlash8s {
        /// Number of sensors.
        sensors: usize,
        /// Number of /8s considered.
        k: usize,
    },
    /// One /24 per public /16 of `192.0.0.0/8` (255 sensors), exploiting
    /// the NAT hotspot.
    Inside192,
}

impl Placement {
    fn build(
        self,
        population: &[hotspots_ipspace::Ip],
        rng: &mut StdRng,
    ) -> Result<Vec<Prefix>, PlacementError> {
        match self {
            Placement::Random { sensors } => placement::random_slash24s(sensors, &[], rng),
            Placement::TopSlash8s { sensors, k } => {
                placement::inside_top_slash8s(population, k, sensors, rng)
            }
            Placement::Inside192 => Ok(placement::inside_192_per_slash16(rng)),
        }
    }
}

/// Why a Figure 5(c) run could not be assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NatRunError {
    /// The NAT deployment or the seed hosts do not fit the population.
    Population(PopulationError),
    /// The sensors do not fit their placement's address space.
    Placement(PlacementError),
}

impl fmt::Display for NatRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NatRunError::Population(e) => e.fmt(f),
            NatRunError::Placement(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for NatRunError {}

impl From<PopulationError> for NatRunError {
    fn from(e: PopulationError) -> NatRunError {
        NatRunError::Population(e)
    }
}

impl From<PlacementError> for NatRunError {
    fn from(e: PlacementError) -> NatRunError {
        NatRunError::Placement(e)
    }
}

/// One NAT/placement experiment run (Figure 5c).
#[derive(Debug)]
pub struct NatRun {
    /// The placement strategy used.
    pub placement: Placement,
    /// Fraction of sensors alerting vs time.
    pub alert_curve: TimeSeries,
    /// Sensors deployed.
    pub sensors: usize,
    /// Sensors alerted by the end.
    pub sensors_alerted: usize,
    /// Alerted sensor fraction at the moment 20% of the population was
    /// infected (the paper's comparison point).
    pub alerted_at_20pct_infected: f64,
    /// The engine's result: the infection curve, the probe ledger,
    /// infections and simulated seconds.
    pub result: SimResult,
}

/// How NATed hosts are wired into the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NatTopology {
    /// All NATed hosts share one `192.168/16` private space (the paper's
    /// Figure 5(c) semantics: the private cluster can ignite).
    Shared,
    /// Each NATed host sits alone behind its own home NAT (stricter
    /// isolation: private hosts are unreachable even by each other — the
    /// ablation contrast).
    Isolated,
}

/// Runs the Figure 5(c) experiment: a CodeRedII-type worm over a
/// population with `nat_fraction` of hosts NATed into `192.168/16`
/// (wired per `topology`), detected by a field placed per `placement`.
///
/// # Errors
///
/// [`NatRunError::Population`] carries the [`PopulationError`] of the
/// NAT deployment (more NATed hosts than the shared `192.168/16` realm
/// holds, or an isolated-NAT host whose address cannot be a gateway), or
/// [`PopulationError::FewerHostsThanSeeds`];
/// [`NatRunError::Placement`] reports more sensors than the placement's
/// space holds.
pub fn nat_run(
    study: &DetectionStudy,
    nat_fraction: f64,
    placement_kind: Placement,
    topology: NatTopology,
) -> Result<NatRun, NatRunError> {
    let population_addrs = study.draw_population()?;
    let mut rng = StdRng::seed_from_u64(study.rng_seed ^ 0xa117);
    let mut environment = Environment::new();
    let loci = match topology {
        NatTopology::Shared => {
            apply_nat_shared(&mut environment, &population_addrs, nat_fraction, &mut rng)
        }
        NatTopology::Isolated => {
            apply_nat(&mut environment, &population_addrs, nat_fraction, &mut rng)
        }
    }?;
    let sensors = placement_kind.build(&population_addrs, &mut rng)?;
    let outbreak = Outbreak {
        config: study.sim_config(),
        population: Population::from_loci(loci),
        environment,
        worm: Box::new(CodeRed2Worm),
        detector: None,
    };
    let field = DetectorField::new(sensors, study.alert_threshold);
    let (result, field) = observed_run(outbreak, field)?;
    let alert_curve = field.alert_curve(format!("{placement_kind:?} alerts"));
    let t20 = result.infection_curve.time_to_reach(0.2);
    let alerted_at_20pct_infected = t20.map_or(0.0, |t| alert_curve.value_at(t));
    Ok(NatRun {
        placement: placement_kind,
        sensors: field.len(),
        sensors_alerted: field.alerted(),
        alert_curve,
        alerted_at_20pct_infected,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small but structurally faithful study for test speed.
    fn small_study() -> DetectionStudy {
        DetectionStudy {
            population: 2_500,
            slash8s: 12,
            paper_profile: false,
            seeds: 10,
            scan_rate: 25.0,
            alert_threshold: 5,
            max_time: 2_500.0,
            stop_at_fraction: 0.9,
            rng_seed: 77,
        }
    }

    #[test]
    fn smaller_hitlists_infect_faster_but_cover_less() {
        let study = small_study();
        let small = hitlist_run(&study, Some(3)).expect("fits");
        let full = hitlist_run(&study, None).expect("fits");
        assert!(small.coverage < full.coverage);
        assert!((full.coverage - 1.0).abs() < 1e-9);
        // the denser (smaller) list reaches ITS saturation sooner than
        // the full list reaches its own
        let small_sat = small
            .result
            .infection_curve
            .time_to_reach(0.9 * small.coverage)
            .expect("small list saturates");
        let full_sat = full.result.infection_curve.time_to_reach(0.8);
        if let Some(full_sat) = full_sat {
            assert!(
                small_sat < full_sat,
                "small list ({small_sat}s) not faster than full ({full_sat}s)"
            );
        }
        // Fig 5a's other claim: the small list never infects (much) more
        // than its coverage — only out-of-list seed hosts can exceed it.
        let seed_slack = study.seeds as f64 / study.population_size() as f64;
        assert!(small.result.infected_fraction() <= small.coverage + seed_slack + 1e-9);
    }

    #[test]
    fn hitlist_detection_leaves_most_sensors_silent() {
        // Figure 5b: even at high infection, only a minority of sensors
        // alert — quorum detection fails.
        let study = small_study();
        let run = hitlist_run(&study, Some(3)).expect("fits");
        assert!(run.result.infected_fraction() >= 0.9 * run.coverage);
        let alerted_fraction = run.sensors_alerted as f64 / run.sensors as f64;
        assert!(
            alerted_fraction < 0.5,
            "hit-list outbreak alerted {alerted_fraction} of sensors"
        );
    }

    #[test]
    fn inside_192_placement_beats_random() {
        // Figure 5c: 255 sensors inside the hotspot /8 alert faster than
        // 10k (here: fewer) random sensors.
        let study = small_study();
        let random = nat_run(
            &study,
            0.25,
            Placement::Random { sensors: 300 },
            NatTopology::Shared,
        )
        .unwrap();
        let hotspot = nat_run(&study, 0.25, Placement::Inside192, NatTopology::Shared).unwrap();
        assert!(
            hotspot.alerted_at_20pct_infected > random.alerted_at_20pct_infected,
            "hotspot placement {} not better than random {}",
            hotspot.alerted_at_20pct_infected,
            random.alerted_at_20pct_infected
        );
        assert_eq!(hotspot.sensors, 255);
    }

    #[test]
    fn isolated_nat_topology_suppresses_the_private_ignition() {
        // the ablation: with per-home NATs the 192.168 cluster can never
        // ignite, so the Inside192 placement loses its magic
        let study = small_study();
        let shared = nat_run(&study, 0.25, Placement::Inside192, NatTopology::Shared).unwrap();
        let isolated = nat_run(&study, 0.25, Placement::Inside192, NatTopology::Isolated).unwrap();
        assert!(
            shared.sensors_alerted > 4 * (isolated.sensors_alerted + 1),
            "shared {} vs isolated {}",
            shared.sensors_alerted,
            isolated.sensors_alerted
        );
    }

    #[test]
    fn run_ledgers_balance() {
        let study = small_study();
        let hit = hitlist_run(&study, Some(3)).expect("fits").result;
        assert!(hit.ledger.probes() > 0);
        assert_eq!(
            hit.ledger.delivered() + hit.ledger.dropped_total(),
            hit.ledger.probes()
        );
        assert!(hit.elapsed > 0.0);
        assert!(hit.infected >= study.seeds);

        let nat = nat_run(&study, 0.25, Placement::Inside192, NatTopology::Shared)
            .unwrap()
            .result;
        assert_eq!(
            nat.ledger.delivered() + nat.ledger.dropped_total(),
            nat.ledger.probes()
        );
        // NATed CodeRedII probes leak into private space → local
        // deliveries and unroutable drops both occur
        assert!(nat.ledger.delivered_local() > 0);
        assert!(nat.ledger.dropped_total() > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let study = small_study();
        let random = Placement::Random { sensors: 100 };
        let a = nat_run(&study, 0.15, random, NatTopology::Shared).unwrap();
        let b = nat_run(&study, 0.15, random, NatTopology::Shared).unwrap();
        assert_eq!(a.sensors_alerted, b.sensors_alerted);
        assert_eq!(
            a.result.infection_curve.last_value(),
            b.result.infection_curve.last_value()
        );
    }
}
