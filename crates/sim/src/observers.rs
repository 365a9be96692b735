//! Observer hooks: what watches the probe stream.

use std::collections::BTreeMap;

use hotspots_ipspace::Ip;
use hotspots_netmodel::{Delivery, DeliveryLedger, DropReason, Locus, Proto, Service};
use hotspots_telescope::{DetectorField, Observatory};

/// A passive observer of the outbreak's probe and infection stream.
///
/// The engine is generic over its observer, so observation costs nothing
/// when unused ([`NullObserver`]) and composes by nesting (tuples of
/// observers are observers).
pub trait SimObserver {
    /// Called for every probe after routing: the source as seen on the
    /// wire and the delivery verdict.
    fn on_probe(&mut self, time: f64, public_src: Ip, delivery: Delivery);

    /// Called once per engine pipeline batch with every probe routed in
    /// it, in emission order. All probes in a batch share one simulation
    /// step, hence one `time`. `ledger` holds the verdict counts for
    /// exactly these probes, already aggregated by the routing stage —
    /// accounting observers can merge it instead of re-tallying the
    /// slice.
    ///
    /// The default delegates to [`SimObserver::on_probe`] per probe, so
    /// per-probe observers keep exact accounting without changes;
    /// observers with per-probe overhead can override the batch hook
    /// instead.
    fn on_probe_batch(&mut self, time: f64, probes: &[(Ip, Delivery)], ledger: &DeliveryLedger) {
        let _ = ledger;
        for &(public_src, delivery) in probes {
            self.on_probe(time, public_src, delivery);
        }
    }

    /// Called when a host becomes infected.
    fn on_infection(&mut self, time: f64, host: usize, locus: Locus) {
        let _ = (time, host, locus);
    }
}

/// An observer that ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SimObserver for NullObserver {
    #[inline]
    fn on_probe(&mut self, _time: f64, _public_src: Ip, _delivery: Delivery) {}

    #[inline]
    fn on_probe_batch(&mut self, _time: f64, _probes: &[(Ip, Delivery)], _ledger: &DeliveryLedger) {
    }
}

/// Observers can be borrowed across runs instead of moved into each one.
impl<T: SimObserver + ?Sized> SimObserver for &mut T {
    #[inline]
    fn on_probe(&mut self, time: f64, public_src: Ip, delivery: Delivery) {
        (**self).on_probe(time, public_src, delivery);
    }

    #[inline]
    fn on_probe_batch(&mut self, time: f64, probes: &[(Ip, Delivery)], ledger: &DeliveryLedger) {
        (**self).on_probe_batch(time, probes, ledger);
    }

    #[inline]
    fn on_infection(&mut self, time: f64, host: usize, locus: Locus) {
        (**self).on_infection(time, host, locus);
    }
}

/// Boxed (dynamically chosen) observers are observers.
impl<T: SimObserver + ?Sized> SimObserver for Box<T> {
    #[inline]
    fn on_probe(&mut self, time: f64, public_src: Ip, delivery: Delivery) {
        (**self).on_probe(time, public_src, delivery);
    }

    #[inline]
    fn on_probe_batch(&mut self, time: f64, probes: &[(Ip, Delivery)], ledger: &DeliveryLedger) {
        (**self).on_probe_batch(time, probes, ledger);
    }

    #[inline]
    fn on_infection(&mut self, time: f64, host: usize, locus: Locus) {
        (**self).on_infection(time, host, locus);
    }
}

impl<A: SimObserver, B: SimObserver> SimObserver for (A, B) {
    fn on_probe(&mut self, time: f64, public_src: Ip, delivery: Delivery) {
        self.0.on_probe(time, public_src, delivery);
        self.1.on_probe(time, public_src, delivery);
    }

    fn on_infection(&mut self, time: f64, host: usize, locus: Locus) {
        self.0.on_infection(time, host, locus);
        self.1.on_infection(time, host, locus);
    }
}

/// Feeds publicly delivered probes into a [`DetectorField`]
/// (the Figure 5 sensor fields).
#[derive(Debug)]
pub struct FieldObserver {
    field: DetectorField,
    /// Whether the worm's first packet carries its payload (UDP yes,
    /// TCP no) — what passive sensors can identify.
    first_packet_payload: bool,
}

impl FieldObserver {
    /// Wraps a detector field for a worm probing `service`: payload
    /// visibility at passive sensors follows the transport (UDP worms
    /// carry their payload in the first packet; TCP worms do not).
    pub fn with_service(field: DetectorField, service: Service) -> FieldObserver {
        FieldObserver {
            field,
            first_packet_payload: service.proto() == Proto::Udp,
        }
    }

    /// The wrapped field (for reading alert state after a run).
    pub fn field(&self) -> &DetectorField {
        &self.field
    }

    /// Consumes the observer, returning the field.
    pub fn into_field(self) -> DetectorField {
        self.field
    }
}

impl SimObserver for FieldObserver {
    #[inline]
    fn on_probe(&mut self, time: f64, _public_src: Ip, delivery: Delivery) {
        if let Delivery::Public(dst) = delivery {
            self.field
                .observe_packet(time, dst, self.first_packet_payload);
        }
    }
}

/// Feeds publicly delivered probes into an [`Observatory`]
/// (the IMS-style measurement figures).
#[derive(Debug)]
pub struct TelescopeObserver {
    observatory: Observatory,
}

impl TelescopeObserver {
    /// Wraps an observatory.
    pub fn new(observatory: Observatory) -> TelescopeObserver {
        TelescopeObserver { observatory }
    }

    /// The wrapped observatory.
    pub fn observatory(&self) -> &Observatory {
        &self.observatory
    }
}

impl SimObserver for TelescopeObserver {
    #[inline]
    fn on_probe(&mut self, time: f64, public_src: Ip, delivery: Delivery) {
        if let Delivery::Public(dst) = delivery {
            self.observatory.observe(time, public_src, dst);
        }
    }
}

/// Counts drops by reason (failure-injection analysis).
#[derive(Debug, Clone, Default)]
pub struct DropTally {
    counts: BTreeMap<DropReason, u64>,
    delivered: u64,
}

impl DropTally {
    /// Creates an empty tally.
    pub fn new() -> DropTally {
        DropTally::default()
    }

    /// Count of drops with the given reason.
    pub fn dropped(&self, reason: DropReason) -> u64 {
        self.counts.get(&reason).copied().unwrap_or(0)
    }

    /// Count of probes that were delivered (publicly or locally).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

impl SimObserver for DropTally {
    fn on_probe(&mut self, _time: f64, _public_src: Ip, delivery: Delivery) {
        match delivery {
            Delivery::Dropped(reason) => *self.counts.entry(reason).or_insert(0) += 1,
            Delivery::Public(_) | Delivery::Local { .. } => self.delivered += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspots_ipspace::AddressBlock;

    #[test]
    fn null_observer_is_inert() {
        let mut o = NullObserver;
        o.on_probe(0.0, Ip::MIN, Delivery::Public(Ip::MAX));
        o.on_infection(0.0, 3, Locus::Public(Ip::MIN));
    }

    #[test]
    fn tuple_observer_fans_out() {
        let mut pair = (DropTally::new(), DropTally::new());
        pair.on_probe(0.0, Ip::MIN, Delivery::Dropped(DropReason::PacketLoss));
        assert_eq!(pair.0.dropped(DropReason::PacketLoss), 1);
        assert_eq!(pair.1.dropped(DropReason::PacketLoss), 1);
    }

    #[test]
    fn borrowed_and_boxed_observers_delegate() {
        let mut tally = DropTally::new();
        {
            let borrowed: &mut DropTally = &mut tally;
            borrowed.on_probe(0.0, Ip::MIN, Delivery::Public(Ip::MAX));
        }
        // same observer, reused after the borrow ended (the engine can
        // take `&mut tally` once per run instead of consuming it)
        {
            let borrowed: &mut DropTally = &mut tally;
            borrowed.on_probe(1.0, Ip::MIN, Delivery::Dropped(DropReason::PacketLoss));
        }
        assert_eq!(tally.delivered(), 1);
        assert_eq!(tally.dropped(DropReason::PacketLoss), 1);

        let mut boxed: Box<dyn SimObserver> = Box::new(DropTally::new());
        boxed.on_probe(0.0, Ip::MIN, Delivery::Public(Ip::MAX));
        boxed.on_infection(0.0, 1, Locus::Public(Ip::MIN));
    }

    #[test]
    fn field_observer_counts_public_only() {
        let field = DetectorField::new(vec!["10.0.0.0/24".parse().unwrap()], 1);
        let mut obs = FieldObserver::with_service(field, Service::SLAMMER_SQL);
        let dst = Ip::from_octets(10, 0, 0, 5);
        obs.on_probe(1.0, Ip::MIN, Delivery::Dropped(DropReason::EgressFiltered));
        assert_eq!(obs.field().alerted(), 0);
        obs.on_probe(2.0, Ip::MIN, Delivery::Public(dst));
        assert_eq!(obs.field().alerted(), 1);
    }

    #[test]
    fn passive_field_blind_to_tcp_worms_via_with_service() {
        use hotspots_telescope::SensorMode;
        let blocks: Vec<hotspots_ipspace::Prefix> = vec!["10.0.0.0/24".parse().unwrap()];
        let dst = Ip::from_octets(10, 0, 0, 5);
        // TCP worm against a passive field: never alerts
        let passive = DetectorField::with_mode(blocks.clone(), 1, SensorMode::Passive);
        let mut obs = FieldObserver::with_service(passive, Service::BLASTER_RPC);
        obs.on_probe(1.0, Ip::MIN, Delivery::Public(dst));
        assert_eq!(obs.field().alerted(), 0);
        // UDP worm against the same passive field: alerts
        let passive = DetectorField::with_mode(blocks.clone(), 1, SensorMode::Passive);
        let mut obs = FieldObserver::with_service(passive, Service::SLAMMER_SQL);
        obs.on_probe(1.0, Ip::MIN, Delivery::Public(dst));
        assert_eq!(obs.field().alerted(), 1);
        // TCP worm against an active field: alerts (the IMS design)
        let active = DetectorField::with_mode(blocks, 1, SensorMode::Active);
        let mut obs = FieldObserver::with_service(active, Service::BLASTER_RPC);
        obs.on_probe(1.0, Ip::MIN, Delivery::Public(dst));
        assert_eq!(obs.field().alerted(), 1);
    }

    #[test]
    fn telescope_observer_records() {
        let obs_inner = Observatory::new(vec![AddressBlock::new(
            "T",
            "198.51.100.0/24".parse().unwrap(),
        )]);
        let mut obs = TelescopeObserver::new(obs_inner);
        obs.on_probe(
            0.5,
            Ip::from_octets(4, 4, 4, 4),
            Delivery::Public(Ip::from_octets(198, 51, 100, 9)),
        );
        assert_eq!(
            obs.observatory()
                .log_by_label("T")
                .unwrap()
                .unique_source_count(),
            1
        );
    }

    #[test]
    fn drop_tally_separates_outcomes() {
        let mut tally = DropTally::new();
        tally.on_probe(0.0, Ip::MIN, Delivery::Public(Ip::MAX));
        tally.on_probe(
            0.0,
            Ip::MIN,
            Delivery::Local {
                realm: hotspots_netmodel::RealmId(0),
                ip: Ip::MIN,
            },
        );
        tally.on_probe(0.0, Ip::MIN, Delivery::Dropped(DropReason::IngressFiltered));
        assert_eq!(tally.delivered(), 2);
        assert_eq!(tally.dropped(DropReason::IngressFiltered), 1);
        assert_eq!(tally.dropped(DropReason::PacketLoss), 0);
    }
}
