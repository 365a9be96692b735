//! The telemetry observer: full probe-stream accounting as a
//! [`SimObserver`].
//!
//! Verdict counts merge from the engine's per-batch ledger in O(1);
//! only the per-/8 landing counts aggregate per probe (one array
//! increment). [`Sink`] events fire only on infections, which are
//! bounded by the population, not the probe count. Parameterized over
//! [`NullSink`] the event path compiles to nothing, so what the
//! observer adds over [`crate::NullObserver`] is that one increment
//! per delivered probe.

use hotspots_ipspace::Ip;
use hotspots_netmodel::{Delivery, DeliveryLedger, Locus};
use hotspots_telemetry::{Event, NullSink, ReportBuilder, Sink};

use crate::observers::SimObserver;

/// Accounts every [`Delivery`] verdict by reason, every delivered
/// probe by destination /8 (the hotspot surface itself), and every
/// infection by [`Locus`] — and emits one sink event per infection.
///
/// Composes with the existing observers via the tuple impl:
/// `(TelemetryObserver::new(...), FieldObserver::with_service(...))`.
///
/// # Examples
///
/// ```
/// use hotspots_sim::{Engine, Population, SimConfig, TelemetryObserver, UniformWorm};
///
/// let pop = Population::from_public(
///     (0..300u32).map(|i| hotspots_ipspace::Ip::new(0x0a00_0000 + i * 7)),
/// );
/// let config = SimConfig { max_time: 30.0, seeds: 3, ..SimConfig::default() };
/// let mut engine = Engine::new(config, pop, Default::default(), Box::new(UniformWorm));
/// let mut telemetry = TelemetryObserver::disabled();
/// let result = engine.run(&mut telemetry);
/// assert_eq!(telemetry.ledger().probes(), result.probes_sent);
/// ```
#[derive(Debug)]
pub struct TelemetryObserver<S: Sink = NullSink> {
    ledger: DeliveryLedger,
    slash8: Box<[u64; 256]>,
    infections_public: u64,
    infections_private: u64,
    sink: S,
}

impl TelemetryObserver<NullSink> {
    /// An observer that keeps all counters but emits no events —
    /// the cheapest full-accounting configuration.
    pub fn disabled() -> TelemetryObserver<NullSink> {
        TelemetryObserver::new(NullSink)
    }
}

impl<S: Sink> TelemetryObserver<S> {
    /// An observer emitting infection events into `sink`.
    pub fn new(sink: S) -> TelemetryObserver<S> {
        TelemetryObserver {
            ledger: DeliveryLedger::new(),
            slash8: Box::new([0; 256]),
            infections_public: 0,
            infections_private: 0,
            sink,
        }
    }

    /// The verdict ledger (`delivered + dropped == probes` by
    /// construction).
    pub fn ledger(&self) -> &DeliveryLedger {
        &self.ledger
    }

    /// Delivered-probe counts per destination /8: index `i` counts
    /// probes that landed (publicly or locally) in `i.0.0.0/8`.
    pub fn slash8_counts(&self) -> &[u64; 256] {
        &self.slash8
    }

    /// The `k` most-probed destination /8s as `(first octet, count)`,
    /// busiest first (ties broken low octet first), zero rows omitted.
    pub fn top_slash8s(&self, k: usize) -> Vec<(u8, u64)> {
        let mut rows: Vec<(u8, u64)> = self
            .slash8
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u8, n))
            .collect();
        rows.sort_by_key(|&(octet, n)| (std::cmp::Reverse(n), octet));
        rows.truncate(k);
        rows
    }

    /// Infections of publicly addressed hosts.
    pub fn infections_public(&self) -> u64 {
        self.infections_public
    }

    /// Infections of NATed (private) hosts.
    pub fn infections_private(&self) -> u64 {
        self.infections_private
    }

    /// Total infections observed.
    pub fn infections(&self) -> u64 {
        self.infections_public + self.infections_private
    }

    /// The sink, for reading buffered events back.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Flushes the sink and returns it, dropping the counters.
    pub fn into_sink(mut self) -> S {
        self.sink.flush();
        self.sink
    }

    /// Folds the accounting into a run report: probes, delivered,
    /// per-reason drops (stable `snake_case` labels), infections.
    pub fn fold_into(&self, report: &mut ReportBuilder) {
        fold_ledger(report, &self.ledger);
        report.add_infections(self.infections());
    }
}

/// Folds a verdict ledger into a run report: probes, deliveries, and
/// the per-reason drop breakdown under stable `snake_case` labels
/// (zero-count reasons omitted).
pub fn fold_ledger(report: &mut ReportBuilder, ledger: &DeliveryLedger) {
    report
        .add_probes(ledger.probes())
        .add_delivered(ledger.delivered());
    for (reason, count) in ledger.drops() {
        if count > 0 {
            report.add_dropped(reason.snake_label(), count);
        }
    }
}

impl<S: Sink> SimObserver for TelemetryObserver<S> {
    #[inline]
    fn on_probe(&mut self, _time: f64, _public_src: Ip, delivery: Delivery) {
        self.ledger.record(delivery);
        match delivery {
            Delivery::Public(dst) => self.slash8[dst.octets()[0] as usize] += 1,
            Delivery::Local { ip, .. } => self.slash8[ip.octets()[0] as usize] += 1,
            Delivery::Dropped(_) => {}
        }
    }

    /// Batch accounting: the verdict breakdown merges from the
    /// engine-aggregated batch ledger in O(1); only the per-/8 landing
    /// counts still walk the probes.
    fn on_probe_batch(&mut self, _time: f64, probes: &[(Ip, Delivery)], ledger: &DeliveryLedger) {
        self.ledger.merge(ledger);
        for &(_, delivery) in probes {
            match delivery {
                Delivery::Public(dst) => self.slash8[dst.octets()[0] as usize] += 1,
                Delivery::Local { ip, .. } => self.slash8[ip.octets()[0] as usize] += 1,
                Delivery::Dropped(_) => {}
            }
        }
    }

    fn on_infection(&mut self, time: f64, host: usize, locus: Locus) {
        let locus_label = match locus {
            Locus::Public(_) => {
                self.infections_public += 1;
                "public"
            }
            Locus::Private { .. } => {
                self.infections_private += 1;
                "private"
            }
        };
        self.sink.emit(
            &Event::new("infection", time)
                .field("host", host as u64)
                .field("locus", locus_label)
                .field("slash8", locus.local_address().octets()[0] as u64),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspots_netmodel::{DropReason, RealmId};
    use hotspots_telemetry::MemorySink;

    fn public(a: u8) -> Delivery {
        Delivery::Public(Ip::from_octets(a, 1, 2, 3))
    }

    #[test]
    fn ledger_and_slash8_counts_agree() {
        let mut obs = TelemetryObserver::disabled();
        obs.on_probe(0.0, Ip::MIN, public(11));
        obs.on_probe(0.0, Ip::MIN, public(11));
        obs.on_probe(0.0, Ip::MIN, public(192));
        obs.on_probe(
            0.0,
            Ip::MIN,
            Delivery::Local {
                realm: RealmId(0),
                ip: Ip::from_octets(192, 168, 0, 9),
            },
        );
        obs.on_probe(0.0, Ip::MIN, Delivery::Dropped(DropReason::PacketLoss));
        assert_eq!(obs.ledger().probes(), 5);
        assert_eq!(obs.ledger().delivered(), 4);
        assert_eq!(obs.slash8_counts()[11], 2);
        assert_eq!(obs.slash8_counts()[192], 2, "local landings count too");
        assert_eq!(
            obs.slash8_counts().iter().sum::<u64>(),
            obs.ledger().delivered()
        );
        assert_eq!(obs.top_slash8s(1), [(11, 2)]);
    }

    #[test]
    fn infections_split_by_locus_and_emit_events() {
        let mut obs = TelemetryObserver::new(MemorySink::new());
        obs.on_infection(1.0, 7, Locus::Public(Ip::from_octets(9, 9, 9, 9)));
        obs.on_infection(
            2.0,
            8,
            Locus::Private {
                realm: RealmId(0),
                ip: Ip::from_octets(10, 0, 0, 5),
            },
        );
        assert_eq!(obs.infections_public(), 1);
        assert_eq!(obs.infections_private(), 1);
        assert_eq!(obs.infections(), 2);
        let sink = obs.into_sink();
        let events: Vec<_> = sink.of_kind("infection").collect();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].to_jsonl(),
            r#"{"kind":"infection","t":2,"host":8,"locus":"private","slash8":10}"#
        );
    }

    #[test]
    fn fold_into_balances_the_report() {
        let mut obs = TelemetryObserver::disabled();
        obs.on_probe(0.0, Ip::MIN, public(4));
        obs.on_probe(0.0, Ip::MIN, Delivery::Dropped(DropReason::EgressFiltered));
        obs.on_probe(0.0, Ip::MIN, Delivery::Dropped(DropReason::EgressFiltered));
        let mut builder = ReportBuilder::new("test", "unit");
        obs.fold_into(&mut builder);
        let report = builder.build();
        assert_eq!(report.accounting_error(), None);
        assert_eq!(report.probes_sent, 3);
        assert_eq!(report.dropped, [("egress_filtered".to_owned(), 2)]);
    }
}
