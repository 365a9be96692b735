//! Cross-crate telemetry integration: the engine's own ledger accounts
//! for every probe verdict and folds into a balanced run report, and
//! observers and span tracing leave the outbreak unchanged.

use hotspots_ipspace::Ip;
use hotspots_netmodel::{Environment, Locus, LossModel, Service};
use hotspots_scenario::{fold_sim_result, ReportBuilder};
use hotspots_sim::{
    apply_nat_shared, Engine, FieldObserver, NullObserver, Population, SimConfig, SimResult,
};
use hotspots_telescope::DetectorField;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fixture's initially infected hosts.
const SEEDS: usize = 8;

/// A small deterministic outbreak: half the hosts NATed into one
/// shared realm (local deliveries + unroutable private scans), 20%
/// packet loss, CodeRedII locality so both public and private
/// infections occur. Returns the engine and each host's locus, by host
/// id.
fn lossy_nat_engine_with(trace: bool) -> (Engine, Vec<Locus>) {
    let mut env = Environment::new();
    env.set_loss(LossModel::new(0.2).unwrap());
    let mut nat_rng = StdRng::seed_from_u64(11);
    let publics: Vec<Ip> = (0..200u32).map(|i| Ip::new(0x0d0d_0000 + i)).collect();
    let loci = apply_nat_shared(&mut env, &publics, 0.5, &mut nat_rng).expect("realm capacity");
    let population = Population::from_loci(loci);
    let loci = (0..population.len())
        .map(|id| population.locus(id))
        .collect();
    let config = SimConfig {
        scan_rate: 20.0,
        seeds: SEEDS,
        dt: 1.0,
        max_time: 150.0,
        stop_at_fraction: None,
        rng_seed: 17,
        trace,
        ..SimConfig::default()
    };
    let engine = Engine::new(
        config,
        population,
        env,
        Box::new(hotspots_sim::CodeRed2Worm),
    );
    (engine, loci)
}

/// [`lossy_nat_engine_with`], untraced, without the loci.
fn lossy_nat_engine() -> Engine {
    lossy_nat_engine_with(false).0
}

#[test]
fn sim_result_ledger_accounts_every_verdict() {
    let (mut engine, loci) = lossy_nat_engine_with(false);
    let result = engine.run(&mut NullObserver);
    let ledger = &result.ledger;

    assert_eq!(ledger.probes(), result.probes_sent);
    assert_eq!(
        ledger.delivered() + ledger.dropped_total(),
        result.probes_sent,
        "delivered + dropped covers every probe"
    );
    // the scenario exercises both delivery kinds and real drops
    assert!(ledger.delivered_local() > 0, "NAT-local deliveries");
    assert!(ledger.dropped_total() > 0, "loss + unroutable drops");

    // every infection is in the log, once, including those hidden
    // behind NATs; the log opens with the seeds
    let infected: std::collections::BTreeSet<usize> =
        result.infections.iter().map(|&(id, _)| id).collect();
    assert_eq!(infected.len(), result.infected);
    assert_eq!(result.infections.len(), result.infected);
    assert!(
        result.infections[SEEDS..]
            .iter()
            .any(|&(id, _)| matches!(loci[id], Locus::Private { .. })),
        "CodeRedII spreads inside NATs"
    );

    // and the folded run report balances
    let mut builder = ReportBuilder::new("integration", "telemetry");
    fold_sim_result(&mut builder, &result);
    let report = builder.build();
    assert_eq!(report.accounting_error(), None);
    assert_eq!(report.probes_sent, result.probes_sent);
}

#[test]
fn telemetry_runs_are_reproducible() {
    let outcome = |r: SimResult| (r.probes_sent, r.ledger, r.infected, r.infection_curve);
    let plain = outcome(lossy_nat_engine().run(&mut NullObserver));
    assert_eq!(
        outcome(lossy_nat_engine().run(&mut NullObserver)),
        plain,
        "fixed seeds replay bit-identically"
    );

    // Neither an observer nor the span trace may perturb the outbreak:
    // trace-off, trace-on and sensor-field runs of one engine agree.
    let traced = outcome(lossy_nat_engine_with(true).0.run(&mut NullObserver));
    let field = DetectorField::new(vec!["13.13.0.0/24".parse().unwrap()], 1);
    let mut sensors = FieldObserver::with_service(field, Service::CODERED_HTTP);
    let observed = outcome(lossy_nat_engine().run(&mut sensors));
    assert_eq!(traced, plain, "the trace flag must not change results");
    assert_eq!(observed, plain, "observers must not change results");
    assert!(
        sensors.field().alerted() > 0,
        "the field saw the outbreak it did not change"
    );
}
