//! Reproducibility: every pipeline in the stack replays bit-for-bit from
//! its seed, and distinct seeds genuinely change outcomes.

use hotspots::scenarios::{blaster, codered, detection, slammer};
use hotspots_ipspace::{ims_deployment, Ip};
use hotspots_netmodel::Environment;
use hotspots_sim::{
    synthetic_codered_population, Engine, NullObserver, Population, SimConfig, SlammerWorm,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn population_synthesis_replays() {
    let a = synthetic_codered_population(5_000, 20, &mut StdRng::seed_from_u64(1))
        .expect("population fits");
    let b = synthetic_codered_population(5_000, 20, &mut StdRng::seed_from_u64(1))
        .expect("population fits");
    let c = synthetic_codered_population(5_000, 20, &mut StdRng::seed_from_u64(2))
        .expect("population fits");
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn engine_runs_replay_across_constructions() {
    let run = |seed: u64| {
        let pop = synthetic_codered_population(1_000, 8, &mut StdRng::seed_from_u64(3))
            .expect("population fits");
        let config = SimConfig {
            scan_rate: 10.0,
            seeds: 5,
            dt: 1.0,
            max_time: 300.0,
            stop_at_fraction: None,
            rng_seed: seed,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(
            config,
            Population::from_public(pop),
            Environment::new(),
            Box::new(SlammerWorm),
        );
        let result = engine.run(&mut NullObserver);
        (result.probes_sent, result.infected, result.infection_times)
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7).2, run(8).2);
}

#[test]
fn scenario_outputs_replay() {
    let blaster_study = blaster::BlasterStudy {
        hosts: 1_000,
        window_secs: 86_400.0,
        scan_rate: 11.0,
        reboot_fraction: 0.5,
        rng_seed: 5,
    };
    assert_eq!(
        blaster::sources_by_block(&blaster_study, &ims_deployment()),
        blaster::sources_by_block(&blaster_study, &ims_deployment())
    );

    let slammer_study = slammer::SlammerStudy {
        hosts: 2_000,
        rng_seed: 5,
        ..slammer::SlammerStudy::default()
    };
    assert_eq!(
        slammer::sources_by_block(&slammer_study, &ims_deployment()),
        slammer::sources_by_block(&slammer_study, &ims_deployment())
    );

    let codered_study = codered::CodeRedStudy {
        hosts: 300,
        nat_fraction: 0.2,
        probes_per_host: 2_000,
        rng_seed: 5,
    };
    let (rows_a, scan_a) =
        codered::sources_by_block(&codered_study, &ims_deployment()).expect("public hosts");
    let (rows_b, scan_b) =
        codered::sources_by_block(&codered_study, &ims_deployment()).expect("public hosts");
    assert_eq!(rows_a, rows_b);
    assert_eq!(scan_a.ledger, scan_b.ledger);
}

#[test]
fn detection_runs_replay() {
    let study = detection::DetectionStudy {
        population: 1_000,
        slash8s: 8,
        paper_profile: false,
        seeds: 5,
        scan_rate: 20.0,
        alert_threshold: 3,
        max_time: 800.0,
        stop_at_fraction: 0.8,
        rng_seed: 13,
    };
    let run = || {
        detection::nat_run(
            &study,
            0.2,
            detection::Placement::Inside192,
            detection::NatTopology::Shared,
        )
        .expect("fits")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.sensors_alerted, b.sensors_alerted);
    assert_eq!(
        a.alert_curve.iter().collect::<Vec<_>>(),
        b.alert_curve.iter().collect::<Vec<_>>()
    );
}

#[test]
fn engine_invariants_hold_across_configurations() {
    // ever-infected monotone; removed ≤ infected; infection times sorted
    // consistently with the curve; holds with removal, latency, and
    // dispersion all enabled at once.
    let pop = synthetic_codered_population(800, 6, &mut StdRng::seed_from_u64(44))
        .expect("population fits");
    let mut env = Environment::new();
    env.set_latency(hotspots_netmodel::LatencyModel::new(0.5, 2.0).unwrap());
    env.set_loss(hotspots_netmodel::LossModel::new(0.1).unwrap());
    let config = SimConfig {
        scan_rate: 30.0,
        scan_rate_sigma: 0.8,
        seeds: 8,
        dt: 1.0,
        max_time: 1_500.0,
        stop_at_fraction: None,
        removal_rate: 0.002,
        rng_seed: 45,
        threads: 1,
        trace: false,
    };
    let list = hotspots_targeting::HitList::top_k_slash16(&pop, 3);
    let mut engine = Engine::new(
        config,
        Population::from_public(pop),
        env,
        Box::new(hotspots_sim::HitListWorm::new(list)),
    );
    let result = engine.run(&mut NullObserver);
    assert!(result.removed <= result.infected);
    let pts: Vec<(f64, f64)> = result.infection_curve.iter().collect();
    for w in pts.windows(2) {
        assert!(w[1].1 >= w[0].1, "ever-infected must be monotone");
        assert!(w[1].0 >= w[0].0);
    }
    let times: Vec<f64> = result.infection_times.iter().flatten().copied().collect();
    assert_eq!(times.len(), result.infected);
    assert!(times
        .iter()
        .all(|&t| t >= 0.0 && t <= result.elapsed + 1e-9));
}

#[test]
fn quarantine_runs_replay() {
    let blocks = ims_deployment();
    let (a, _) = codered::quarantine_run(Ip::from_octets(192, 168, 0, 100), 100_000, &blocks, 6);
    let (b, _) = codered::quarantine_run(Ip::from_octets(192, 168, 0, 100), 100_000, &blocks, 6);
    assert_eq!(a, b);
}
