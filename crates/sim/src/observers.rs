//! Observer hooks: what watches the probe stream.
//!
//! Probe accounting is not an observer's job: every verdict is counted
//! once, in the ledger the routing stage fills and
//! [`crate::SimResult::ledger`] returns, and every infection is in
//! [`crate::SimResult::infections`]. Observers exist for what the
//! result cannot hold — sensors that react to where probes land. So
//! they see delivered probes only; a dropped probe lands nowhere, and
//! lives in the ledger alone.

use hotspots_ipspace::{AddressBlock, Bucket24, Ip};
use hotspots_netmodel::{Delivery, Proto, Service};
use hotspots_stats::CountHistogram;
use hotspots_telescope::{BlockIndex, DetectorField, Observatory};

/// A passive observer of the outbreak's probe stream.
///
/// The engine is generic over its observer, so observation costs nothing
/// when unused ([`NullObserver`]).
pub trait SimObserver {
    /// Called once per engine pipeline batch with every probe delivered
    /// in it, public or local, in emission order: the source as seen on
    /// the wire and the delivery verdict. Dropped probes are not in the
    /// batch (no record is ever [`Delivery::Dropped`]); they are counted
    /// in the run's ledger only. All probes in a batch share one
    /// simulation step, hence one `time`.
    fn on_probe_batch(&mut self, time: f64, probes: &[(Ip, Delivery)]);
}

/// An observer that ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SimObserver for NullObserver {
    #[inline]
    fn on_probe_batch(&mut self, _time: f64, _probes: &[(Ip, Delivery)]) {}
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
    fn on_probe_batch(&mut self, time: f64, probes: &[(Ip, Delivery)]) {
        for &(_, delivery) in probes {
            if let Delivery::Public(dst) = delivery {
                self.field
                    .observe_packet(time, dst, self.first_packet_payload);
            }
        }
    }
}

/// A telescope logs every probe delivered into one of its blocks,
/// under the source the public path shows (a NATed host's gateway).
impl SimObserver for Observatory {
    fn on_probe_batch(&mut self, time: f64, probes: &[(Ip, Delivery)]) {
        for &(src, delivery) in probes {
            if let Delivery::Public(dst) = delivery {
                self.observe(time, src, dst);
            }
        }
    }
}

/// Counts the probes delivered into a set of monitored blocks, per
/// destination /24: one host's footprint at the telescope (Figures 3
/// and 4(b)/(c)). It counts packets; an [`Observatory`] counts unique
/// sources.
#[derive(Debug)]
pub struct BucketHits {
    index: BlockIndex,
    hits: CountHistogram<Bucket24>,
}

impl BucketHits {
    /// A counter over `blocks`.
    ///
    /// # Panics
    ///
    /// Panics if blocks overlap.
    pub fn new(blocks: &[AddressBlock]) -> BucketHits {
        BucketHits {
            index: BlockIndex::new(blocks.iter().map(AddressBlock::prefix).collect()),
            hits: CountHistogram::new(),
        }
    }

    /// The hit counts per monitored /24 (only /24s that were hit).
    pub fn into_histogram(self) -> CountHistogram<Bucket24> {
        self.hits
    }
}

impl SimObserver for BucketHits {
    fn on_probe_batch(&mut self, _time: f64, probes: &[(Ip, Delivery)]) {
        for &(_, delivery) in probes {
            if let Delivery::Public(dst) = delivery {
                if self.index.find(dst).is_some() {
                    self.hits.record(dst.bucket24());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_inert() {
        NullObserver.on_probe_batch(0.0, &[(Ip::MIN, Delivery::Public(Ip::MAX))]);
    }

    #[test]
    fn field_observer_counts_public_only() {
        let field = DetectorField::new(vec!["10.0.0.0/24".parse().unwrap()], 1);
        let mut obs = FieldObserver::with_service(field, Service::SLAMMER_SQL);
        let dst = Ip::from_octets(10, 0, 0, 5);
        let realm = hotspots_netmodel::RealmId(0);
        obs.on_probe_batch(1.0, &[(Ip::MIN, Delivery::Local { realm, ip: dst })]);
        assert_eq!(obs.field().alerted(), 0);
        obs.on_probe_batch(2.0, &[(Ip::MIN, Delivery::Public(dst))]);
        assert_eq!(obs.field().alerted(), 1);
    }

    #[test]
    fn passive_field_blind_to_tcp_worms_via_with_service() {
        use hotspots_telescope::SensorMode;
        let blocks: Vec<hotspots_ipspace::Prefix> = vec!["10.0.0.0/24".parse().unwrap()];
        let probe = [(Ip::MIN, Delivery::Public(Ip::from_octets(10, 0, 0, 5)))];
        // TCP worm against a passive field: never alerts
        let passive = DetectorField::with_mode(blocks.clone(), 1, SensorMode::Passive);
        let mut obs = FieldObserver::with_service(passive, Service::BLASTER_RPC);
        obs.on_probe_batch(1.0, &probe);
        assert_eq!(obs.field().alerted(), 0);
        // UDP worm against the same passive field: alerts
        let passive = DetectorField::with_mode(blocks.clone(), 1, SensorMode::Passive);
        let mut obs = FieldObserver::with_service(passive, Service::SLAMMER_SQL);
        obs.on_probe_batch(1.0, &probe);
        assert_eq!(obs.field().alerted(), 1);
        // TCP worm against an active field: alerts (the IMS design)
        let active = DetectorField::with_mode(blocks, 1, SensorMode::Active);
        let mut obs = FieldObserver::with_service(active, Service::BLASTER_RPC);
        obs.on_probe_batch(1.0, &probe);
        assert_eq!(obs.field().alerted(), 1);
    }
}
