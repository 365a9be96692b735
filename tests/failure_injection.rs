//! Failure injection: the environment's degradations behave sanely
//! end-to-end (loss slows outbreaks, misconfigured filters create or
//! destroy visibility, sensor gaps degrade gracefully).

use hotspots_ipspace::{Ip, Prefix};
use hotspots_netmodel::{DropReason, Environment, FilterRule, LossModel, Service};
use hotspots_sim::{Engine, HitListWorm, NullObserver, Outbreak, Population, SimConfig};
use hotspots_targeting::HitList;
use hotspots_telescope::DetectorField;

fn dense_population(n: u32) -> Population {
    Population::from_public((0..n).map(|i| Ip::new(0x2121_0000 + i)))
}

fn config() -> SimConfig {
    SimConfig {
        scan_rate: 20.0,
        seeds: 5,
        dt: 1.0,
        max_time: 3_000.0,
        stop_at_fraction: Some(0.9),
        rng_seed: 4,
        ..SimConfig::default()
    }
}

fn hitlist() -> HitList {
    HitList::new(vec!["33.33.0.0/16".parse().unwrap()]).unwrap()
}

#[test]
fn packet_loss_slows_but_does_not_stop_an_outbreak() {
    let time_to_half = |loss: f64| -> f64 {
        let mut env = Environment::new();
        env.set_loss(LossModel::new(loss).unwrap());
        let mut engine = Engine::new(
            config(),
            dense_population(400),
            env,
            Box::new(HitListWorm::new(hitlist())),
        );
        let result = engine.run(&mut NullObserver);
        result.time_to_fraction(0.5).unwrap_or(f64::INFINITY)
    };
    let clean = time_to_half(0.0);
    let mild = time_to_half(0.3);
    let severe = time_to_half(0.9);
    assert!(clean.is_finite());
    assert!(mild >= clean, "mild loss sped the worm up?");
    assert!(severe > mild, "severe loss not worse than mild");
    assert!(severe.is_finite(), "90% loss should delay, not stop");
}

#[test]
fn total_loss_stops_everything_but_seeds() {
    let mut env = Environment::new();
    env.set_loss(LossModel::new(1.0).unwrap());
    let mut engine = Engine::new(
        SimConfig {
            max_time: 200.0,
            ..config()
        },
        dense_population(100),
        env,
        Box::new(HitListWorm::new(hitlist())),
    );
    let result = engine.run(&mut NullObserver);
    assert_eq!(result.infected, 5, "only the seeds stay infected");
    assert_eq!(result.ledger.delivered(), 0);
    assert_eq!(
        result.ledger.dropped(DropReason::PacketLoss),
        result.probes_sent
    );
}

#[test]
fn misconfigured_egress_filter_quarantines_the_population() {
    // A (mis)configured deny-everything egress rule at the population's
    // network: the worm cannot spread beyond hosts reachable... in this
    // in-prefix topology nothing is deliverable at all.
    let mut env = Environment::new();
    env.filters_mut()
        .push(FilterRule::egress("33.33.0.0/16".parse().unwrap(), None));
    let mut engine = Engine::new(
        SimConfig {
            max_time: 300.0,
            ..config()
        },
        dense_population(200),
        env,
        Box::new(HitListWorm::new(hitlist())),
    );
    let result = engine.run(&mut NullObserver);
    assert_eq!(result.infected, 5);
    assert!(result.ledger.dropped(DropReason::EgressFiltered) > 0);
}

#[test]
fn service_scoped_filter_spares_other_worms() {
    // An upstream block for the wrong service must not affect this worm.
    let mut env = Environment::new();
    env.filters_mut().push(FilterRule::ingress(
        "33.33.0.0/16".parse().unwrap(),
        Some(Service::SLAMMER_SQL), // hit-list worm probes CODERED_HTTP
    ));
    let mut engine = Engine::new(
        config(),
        dense_population(300),
        env,
        Box::new(HitListWorm::new(hitlist())),
    );
    let result = engine.run(&mut NullObserver);
    assert!(
        result.infected_fraction() >= 0.9,
        "service-scoped filter wrongly blocked the outbreak"
    );
}

#[test]
fn sensor_gaps_degrade_detection_gracefully() {
    // Remove sensors one /24 at a time: alert counts can only go down,
    // and the remaining field still works.
    let run_with_sensors = |sensors: Vec<Prefix>| -> (usize, usize) {
        let outbreak = Outbreak {
            config: config(),
            population: dense_population(300),
            environment: Environment::new(),
            worm: Box::new(HitListWorm::new(hitlist())),
            detector: Some(DetectorField::new(sensors, 3)),
        };
        let (_, field) = outbreak.run().expect("seeds fit");
        let field = field.expect("the outbreak carried a field");
        (field.alerted(), field.len())
    };
    let full: Vec<Prefix> = (0..8u32)
        .map(|i| format!("33.33.{}.0/24", 40 + i * 3).parse().unwrap())
        .collect();
    let (alerted_full, n_full) = run_with_sensors(full.clone());
    let (alerted_half, n_half) = run_with_sensors(full[..4].to_vec());
    assert_eq!(n_full, 8);
    assert_eq!(n_half, 4);
    assert!(alerted_full >= alerted_half);
    assert!(alerted_half > 0, "remaining sensors must still alert");
}

#[test]
fn self_induced_congestion_ablation() {
    // The paper notes Slammer's outbreak congested its own links. Model:
    // re-run with loss rates standing in for congestion levels and check
    // the monotone response of time-to-half-infection.
    let mut previous = 0.0;
    for loss in [0.0, 0.5, 0.95] {
        let mut env = Environment::new();
        env.set_loss(LossModel::new(loss).unwrap());
        let mut engine = Engine::new(
            SimConfig {
                max_time: 20_000.0,
                ..config()
            },
            dense_population(300),
            env,
            Box::new(HitListWorm::new(hitlist())),
        );
        let result = engine.run(&mut NullObserver);
        let t = result.time_to_fraction(0.5).expect("still spreads");
        assert!(
            t >= previous,
            "loss {loss} gave time {t} < previous {previous}"
        );
        previous = t;
    }
}
