//! Cross-mode determinism: the staged probe pipeline must produce
//! bit-identical results whether it runs serially (`threads = 1`) or
//! sharded across worker threads — same infection log (hosts, times
//! and order), same ledger, same observer-visible stream of delivered
//! probes.
//!
//! Each mode is an `xmode-*` registry preset, so the exact scenarios the
//! suite pins are runnable by hand (`hotspots run xmode-slammer`) and
//! serialize to TOML like any other spec. One more input is
//! `bench-million`'s Zipf population, shrunk to a size the debug-mode
//! suite can run at every thread count.

use hotspots_ipspace::Ip;
use hotspots_netmodel::Delivery;
use hotspots_scenario::{find_preset, PopSpec, Scale, ScenarioSpec};
use hotspots_sim::{Engine, SimObserver, SimResult};

/// Everything the engine hands an observer, aggregated, so cross-mode
/// equality covers the observer-visible stream and not just `SimResult`.
/// The stream holds delivered probes only: a dropped record fails the
/// run.
#[derive(Default)]
struct EventTally {
    probes: u64,
    publics: u64,
    locals: u64,
    batch_calls: u64,
}

impl SimObserver for EventTally {
    fn on_probe_batch(&mut self, _time: f64, probes: &[(Ip, Delivery)]) {
        self.batch_calls += 1;
        self.probes += probes.len() as u64;
        for &(_, delivery) in probes {
            match delivery {
                Delivery::Public(_) => self.publics += 1,
                Delivery::Local { .. } => self.locals += 1,
                Delivery::Dropped(reason) => panic!("observer handed a {reason} drop"),
            }
        }
    }
}

fn run_with_threads(preset: &str, threads: usize) -> (SimResult, EventTally) {
    let preset = find_preset(preset).expect("registered preset");
    run_spec_with_threads(&preset.spec(Scale::Quick), threads)
}

fn run_spec_with_threads(spec: &ScenarioSpec, threads: usize) -> (SimResult, EventTally) {
    let mut built = spec.build().expect("cross-mode specs build");
    built.config.threads = threads;
    let mut engine = Engine::new(
        built.config,
        built.population,
        built.environment,
        built.worm,
    );
    let mut tally = EventTally::default();
    let result = engine.run(&mut tally);
    (result, tally)
}

/// Builds `preset` fresh per thread count, runs it serially and at 2 and
/// 4 worker threads (plus a more-threads-than-hosts configuration), and
/// asserts every deterministic output is identical.
fn assert_cross_mode_identical(name: &str) {
    let spec = find_preset(name)
        .expect("registered preset")
        .spec(Scale::Quick);
    assert_spec_cross_mode_identical(&spec, name);
}

fn assert_spec_cross_mode_identical(spec: &ScenarioSpec, name: &str) {
    let (base, base_tally) = run_spec_with_threads(spec, 1);
    assert!(base.probes_sent > 0, "{name}: run emitted no probes");
    assert!(
        base_tally.batch_calls > 0,
        "{name}: observer saw no batches"
    );
    assert_tally_matches_ledger(name, 1, &base, &base_tally);
    let base_curve: Vec<(f64, f64)> = base.infection_curve.iter().collect();

    for threads in [2, 4, 64] {
        let (other, tally) = run_spec_with_threads(spec, threads);
        assert_eq!(
            base.infections, other.infections,
            "{name}: infection logs diverge at {threads} threads"
        );
        assert_eq!(
            base.probes_sent, other.probes_sent,
            "{name}: probe count diverges at {threads} threads"
        );
        assert_eq!(
            base.ledger, other.ledger,
            "{name}: ledger diverges at {threads} threads"
        );
        assert_eq!(base.infected, other.infected, "{name} @ {threads} threads");
        assert_eq!(base.removed, other.removed, "{name} @ {threads} threads");
        assert_eq!(base.elapsed, other.elapsed, "{name} @ {threads} threads");
        let curve: Vec<(f64, f64)> = other.infection_curve.iter().collect();
        assert_eq!(
            base_curve, curve,
            "{name}: infection curve diverges at {threads} threads"
        );
        // The ledgers agree (above), so the observer streams do too.
        assert_tally_matches_ledger(name, threads, &other, &tally);
    }
}

/// The observer saw exactly the deliveries the engine's ledger counted:
/// the ledger is the one tally, drops included, and the observer stream
/// agrees with its delivered part.
fn assert_tally_matches_ledger(name: &str, threads: usize, result: &SimResult, tally: &EventTally) {
    let ledger = &result.ledger;
    assert_eq!(
        tally.probes,
        ledger.delivered(),
        "{name} @ {threads} threads"
    );
    assert_eq!(
        tally.publics,
        ledger.delivered_public(),
        "{name} @ {threads} threads"
    );
    assert_eq!(
        tally.locals,
        ledger.delivered_local(),
        "{name} @ {threads} threads"
    );
}

#[test]
fn uniform_worm_is_thread_invariant() {
    assert_cross_mode_identical("xmode-uniform");
}

#[test]
fn blaster_worm_is_thread_invariant() {
    assert_cross_mode_identical("xmode-blaster");
}

#[test]
fn slammer_worm_is_thread_invariant() {
    assert_cross_mode_identical("xmode-slammer");
}

#[test]
fn codered2_worm_with_nat_is_thread_invariant() {
    assert_cross_mode_identical("xmode-codered2-nat");
}

#[test]
fn hitlist_worm_is_thread_invariant() {
    assert_cross_mode_identical("xmode-hitlist");
}

#[test]
fn latency_and_removal_are_thread_invariant() {
    // The heaviest configuration: latency with jitter (pending-activation
    // heap and the dedicated latency stream), removal (per-host streams),
    // rate dispersion, and loss, all at once.
    assert_cross_mode_identical("xmode-hitlist-latency");
}

#[test]
fn outage_faults_are_thread_invariant() {
    // Sensor outage + flapping filter: fault activity must be a pure
    // function of simulation time, so the faulted verdicts land on the
    // same probes at any shard count.
    assert_cross_mode_identical("xmode-outage");
}

#[test]
fn blackhole_faults_are_thread_invariant() {
    // Upstream blackhole + degraded loss: the degraded window draws an
    // extra Bernoulli from each probe's RNG stream, the alignment most
    // at risk of diverging between the scalar and batch paths.
    assert_cross_mode_identical("xmode-blackhole");
}

#[test]
fn zipf_population_is_thread_invariant() {
    let mut spec = find_preset("bench-million")
        .expect("registered preset")
        .spec(Scale::Quick);
    let Some(PopSpec::Zipf { size, .. }) = &mut spec.population else {
        panic!("bench-million must carry a zipf population");
    };
    *size = 30_000;
    spec.sim.max_time = 10.0;
    assert_spec_cross_mode_identical(&spec, "bench-million@30k");
}

#[test]
fn faulted_runs_conserve_ledger_accounting() {
    use hotspots_netmodel::DropReason;

    // Across both faulted presets: every fault verdict class that the
    // schedule can produce actually fires, and every probe is accounted
    // for — delivered + dropped == probes, with the fault classes
    // carrying their own counts rather than leaking into base loss.
    let cases = [
        (
            "xmode-outage",
            vec![DropReason::SensorOutage, DropReason::FilterFlap],
        ),
        (
            "xmode-blackhole",
            vec![DropReason::UpstreamBlackhole, DropReason::DegradedLoss],
        ),
    ];
    for (name, expected) in cases {
        for threads in [1, 4] {
            let (result, _) = run_with_threads(name, threads);
            let ledger = &result.ledger;
            assert_eq!(
                ledger.delivered() + ledger.dropped_total(),
                ledger.probes(),
                "{name} @ {threads} threads: ledger does not conserve probes"
            );
            for reason in &expected {
                assert!(
                    ledger.dropped(*reason) > 0,
                    "{name} @ {threads} threads: no {reason} drops recorded"
                );
            }
            // fault drops are attributed, not folded into random loss
            assert_eq!(
                ledger.dropped(DropReason::PacketLoss),
                0,
                "{name} @ {threads} threads: fault drops leaked into base loss"
            );
        }
    }
}
