//! Cross-crate telemetry integration: observer composition ordering,
//! `TelemetryObserver` accounting against the engine's own ledger,
//! observers and span tracing leaving the outbreak unchanged, and the
//! JSONL event path end to end.

use std::cell::RefCell;
use std::rc::Rc;

use hotspots_ipspace::Ip;
use hotspots_netmodel::{Delivery, Environment, Locus, LossModel};
use hotspots_sim::{
    apply_nat, Engine, NullObserver, Population, SimConfig, SimObserver, SimResult,
    TelemetryObserver,
};
use hotspots_telemetry::{json, JsonlSink, ReportBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Appends `(label, event)` rows to a shared log — for asserting the
/// order in which composed observers see the stream.
struct LogObserver {
    label: &'static str,
    log: Rc<RefCell<Vec<(&'static str, &'static str)>>>,
}

impl SimObserver for LogObserver {
    fn on_probe(&mut self, _time: f64, _public_src: Ip, _delivery: Delivery) {
        self.log.borrow_mut().push((self.label, "probe"));
    }

    fn on_infection(&mut self, _time: f64, _host: usize, _locus: Locus) {
        self.log.borrow_mut().push((self.label, "infection"));
    }
}

/// A small deterministic outbreak: half the hosts NATed (local
/// deliveries + unroutable private scans), 20% packet loss, CodeRedII
/// locality so both public and private infections occur.
fn lossy_nat_engine() -> Engine {
    lossy_nat_engine_with(false)
}

/// [`lossy_nat_engine`] with `SimConfig::trace` set as given.
fn lossy_nat_engine_with(trace: bool) -> Engine {
    let mut env = Environment::new();
    env.set_loss(LossModel::new(0.2).unwrap());
    let mut nat_rng = StdRng::seed_from_u64(11);
    let publics: Vec<Ip> = (0..200u32).map(|i| Ip::new(0x0d0d_0000 + i)).collect();
    let loci = apply_nat(&mut env, &publics, 0.5, &mut nat_rng).expect("public addresses");
    let config = SimConfig {
        scan_rate: 20.0,
        seeds: 4,
        dt: 1.0,
        max_time: 150.0,
        stop_at_fraction: None,
        rng_seed: 17,
        trace,
        ..SimConfig::default()
    };
    Engine::new(
        config,
        Population::from_loci(loci),
        env,
        Box::new(hotspots_sim::CodeRed2Worm),
    )
}

#[test]
fn tuple_observers_see_every_event_in_declaration_order() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let first = LogObserver {
        label: "first",
        log: Rc::clone(&log),
    };
    let second = LogObserver {
        label: "second",
        log: Rc::clone(&log),
    };

    let pop = Population::from_public((0..60u32).map(|i| Ip::new(0x0a0a_0000 + i)));
    let config = SimConfig {
        scan_rate: 5.0,
        seeds: 2,
        dt: 1.0,
        max_time: 20.0,
        stop_at_fraction: None,
        rng_seed: 9,
        ..SimConfig::default()
    };
    let mut engine = Engine::new(
        config,
        pop,
        Environment::new(),
        Box::new(hotspots_sim::UniformWorm),
    );
    let mut pair = (first, second);
    let result = engine.run(&mut pair);

    let log = log.borrow();
    let events = result.probes_sent as usize + result.infected;
    assert_eq!(log.len(), 2 * events, "both observers see every event");
    // strict interleaving: first always immediately precedes second
    for window in log.chunks(2) {
        assert_eq!(window[0].0, "first");
        assert_eq!(window[1].0, "second");
        assert_eq!(window[0].1, window[1].1, "same event reaches both");
    }
}

#[test]
fn telemetry_observer_matches_engine_verdicts_exactly() {
    let mut engine = lossy_nat_engine();
    let mut telemetry = TelemetryObserver::disabled();
    let result = engine.run(&mut telemetry);

    // the observer's ledger is byte-for-byte the engine's own accounting
    assert_eq!(*telemetry.ledger(), result.ledger);
    assert_eq!(telemetry.ledger().probes(), result.probes_sent);
    assert_eq!(
        telemetry.ledger().delivered() + telemetry.ledger().dropped_total(),
        result.probes_sent,
        "delivered + dropped covers every probe"
    );
    // the scenario exercises both delivery kinds and real drops
    assert!(
        telemetry.ledger().delivered_local() > 0,
        "NAT-local deliveries"
    );
    assert!(
        telemetry.ledger().dropped_total() > 0,
        "loss + unroutable drops"
    );
    // per-/8 hotspot surface sums to exactly the delivered probes
    assert_eq!(
        telemetry.slash8_counts().iter().sum::<u64>(),
        telemetry.ledger().delivered()
    );
    // every infection the engine recorded reached the observer
    assert_eq!(telemetry.infections(), result.infected as u64);
    assert!(
        telemetry.infections_private() > 0,
        "CodeRedII spreads inside NATs"
    );

    // and the folded run report balances
    let mut builder = ReportBuilder::new("integration", "telemetry");
    telemetry.fold_into(&mut builder);
    let report = builder.build();
    assert_eq!(report.accounting_error(), None);
    assert_eq!(report.probes_sent, result.probes_sent);
}

#[test]
fn telemetry_runs_are_reproducible() {
    let run = || {
        let mut engine = lossy_nat_engine();
        let mut telemetry = TelemetryObserver::disabled();
        engine.run(&mut telemetry);
        (
            *telemetry.ledger(),
            telemetry.infections(),
            telemetry.top_slash8s(3),
        )
    };
    assert_eq!(run(), run(), "fixed seeds replay bit-identically");

    // Neither the observer nor the span trace may perturb the outbreak:
    // trace-off, trace-on and TelemetryObserver runs of one engine agree.
    let outcome = |r: SimResult| (r.probes_sent, r.ledger, r.infected, r.infection_curve);
    let plain = outcome(lossy_nat_engine().run(&mut NullObserver));
    let traced = outcome(lossy_nat_engine_with(true).run(&mut NullObserver));
    let mut telemetry = TelemetryObserver::disabled();
    let observed = outcome(lossy_nat_engine().run(&mut telemetry));
    assert_eq!(traced, plain, "the trace flag must not change results");
    assert_eq!(observed, plain, "observers must not change results");
    assert_eq!(telemetry.ledger().probes(), plain.0);
    assert_eq!(*telemetry.ledger(), plain.1);
}

#[test]
fn jsonl_sink_round_trips_infection_events() {
    let mut engine = lossy_nat_engine();
    let mut telemetry = TelemetryObserver::new(JsonlSink::new(Vec::new()));
    let result = engine.run(&mut telemetry);
    assert!(result.infected > 0);

    let infections = telemetry.infections();
    let sink = telemetry.into_sink();
    assert_eq!(sink.lines(), infections);
    assert_eq!(sink.errors(), 0);

    let bytes = sink.into_inner().expect("flush");
    let text = String::from_utf8(bytes).expect("utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), infections as usize, "one line per infection");

    let mut public = 0u64;
    let mut private = 0u64;
    for line in lines {
        let doc = json::parse(line).expect("each line parses as JSON");
        assert_eq!(
            doc.get("kind").and_then(json::Json::as_str),
            Some("infection")
        );
        assert!(doc.get("t").and_then(json::Json::as_f64).is_some());
        assert!(doc.get("host").and_then(json::Json::as_u64).is_some());
        match doc.get("locus").and_then(json::Json::as_str) {
            Some("public") => public += 1,
            Some("private") => private += 1,
            other => panic!("bad locus field: {other:?} in {line}"),
        }
    }
    assert_eq!(public + private, result.infected as u64);
    assert!(private > 0, "NATed infections appear in the event stream");
}
