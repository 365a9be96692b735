//! Per-verdict probe accounting.

use crate::environment::{Delivery, DropReason};

/// Counts every [`Delivery`] verdict a probe stream produced: one
/// increment per probe, split into public/local deliveries and a
/// per-[`DropReason`] breakdown.
///
/// This is the accounting substrate of the run reports: the invariant
/// `delivered() + dropped_total() == probes()` holds by construction,
/// because [`DeliveryLedger::record`] files every verdict exactly once
/// and [`DeliveryLedger::record_tally`] files a count of verdicts per
/// class. A dropped probe is counted here and nowhere else: the batch
/// router keeps no record of it.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Ip;
/// use hotspots_netmodel::{Delivery, DeliveryLedger, DropReason};
///
/// let mut ledger = DeliveryLedger::new();
/// ledger.record(Delivery::Public(Ip::from_octets(203, 0, 113, 7)));
/// ledger.record(Delivery::Dropped(DropReason::PacketLoss));
/// assert_eq!(ledger.probes(), 2);
/// assert_eq!(ledger.delivered(), 1);
/// assert_eq!(ledger.dropped(DropReason::PacketLoss), 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryLedger {
    probes: u64,
    delivered_public: u64,
    delivered_local: u64,
    drops: [u64; DropReason::ALL.len()],
}

impl DeliveryLedger {
    /// An empty ledger.
    pub fn new() -> DeliveryLedger {
        DeliveryLedger::default()
    }

    /// Files one verdict.
    #[inline]
    pub fn record(&mut self, delivery: Delivery) {
        self.probes += 1;
        match delivery {
            Delivery::Public(_) => self.delivered_public += 1,
            Delivery::Local { .. } => self.delivered_local += 1,
            Delivery::Dropped(reason) => self.drops[reason.index()] += 1,
        }
    }

    /// Slots of a per-class verdict tally ([`DeliveryLedger::record_tally`]):
    /// one per [`DropReason`], in [`DropReason::ALL`] order, then
    /// [`DeliveryLedger::PUBLIC_SLOT`].
    pub const TALLY_SLOTS: usize = DropReason::ALL.len() + 1;

    /// The tally slot that counts public deliveries.
    pub const PUBLIC_SLOT: usize = DropReason::ALL.len();

    /// Files a per-class tally in bulk: `tally[r.index()]` drops under
    /// each reason `r` and `tally[PUBLIC_SLOT]` public deliveries,
    /// exactly as that many calls to [`DeliveryLedger::record`] would.
    /// The batch router counts the probes it never records this way.
    #[inline]
    pub fn record_tally(&mut self, tally: &[u64; DeliveryLedger::TALLY_SLOTS]) {
        self.probes += tally.iter().sum::<u64>();
        self.delivered_public += tally[DeliveryLedger::PUBLIC_SLOT];
        for (mine, count) in self.drops.iter_mut().zip(tally) {
            *mine += count;
        }
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &DeliveryLedger) {
        self.probes += other.probes;
        self.delivered_public += other.delivered_public;
        self.delivered_local += other.delivered_local;
        for (mine, theirs) in self.drops.iter_mut().zip(other.drops) {
            *mine += theirs;
        }
    }

    /// Total probes filed.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Probes delivered to public destinations.
    pub fn delivered_public(&self) -> u64 {
        self.delivered_public
    }

    /// Probes delivered locally within a NAT realm.
    pub fn delivered_local(&self) -> u64 {
        self.delivered_local
    }

    /// Probes delivered anywhere (publicly or locally).
    pub fn delivered(&self) -> u64 {
        self.delivered_public + self.delivered_local
    }

    /// Drops filed under `reason`.
    pub fn dropped(&self, reason: DropReason) -> u64 {
        self.drops[reason.index()]
    }

    /// All drops, regardless of reason.
    pub fn dropped_total(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// The drop breakdown in [`DropReason::ALL`] order, zero counts
    /// included.
    pub fn drops(&self) -> impl Iterator<Item = (DropReason, u64)> + '_ {
        DropReason::ALL.into_iter().zip(self.drops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat::RealmId;
    use hotspots_ipspace::Ip;

    #[test]
    fn every_verdict_is_filed_once() {
        let mut ledger = DeliveryLedger::new();
        ledger.record(Delivery::Public(Ip::from_octets(1, 2, 3, 4)));
        ledger.record(Delivery::Local {
            realm: RealmId(0),
            ip: Ip::from_octets(192, 168, 0, 1),
        });
        for reason in DropReason::ALL {
            ledger.record(Delivery::Dropped(reason));
        }
        assert_eq!(ledger.probes(), 2 + DropReason::ALL.len() as u64);
        assert_eq!(ledger.delivered_public(), 1);
        assert_eq!(ledger.delivered_local(), 1);
        assert_eq!(ledger.delivered(), 2);
        assert_eq!(ledger.dropped_total(), DropReason::ALL.len() as u64);
        assert_eq!(ledger.delivered() + ledger.dropped_total(), ledger.probes());
        for reason in DropReason::ALL {
            assert_eq!(ledger.dropped(reason), 1, "{reason}");
        }
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = DeliveryLedger::new();
        a.record(Delivery::Public(Ip::MIN));
        a.record(Delivery::Dropped(DropReason::PacketLoss));
        let mut b = DeliveryLedger::new();
        b.record(Delivery::Dropped(DropReason::PacketLoss));
        a.merge(&b);
        assert_eq!(a.probes(), 3);
        assert_eq!(a.dropped(DropReason::PacketLoss), 2);
        assert_eq!(a.delivered(), 1);
    }

    #[test]
    fn drops_iterates_in_all_order() {
        let mut ledger = DeliveryLedger::new();
        ledger.record(Delivery::Dropped(DropReason::IngressFiltered));
        let breakdown: Vec<(DropReason, u64)> = ledger.drops().collect();
        assert_eq!(breakdown.len(), DropReason::ALL.len());
        assert_eq!(
            breakdown[DropReason::IngressFiltered.index()],
            (DropReason::IngressFiltered, 1)
        );
        assert_eq!(breakdown[DropReason::PacketLoss.index()].1, 0);
    }

    proptest::proptest! {
        #[test]
        fn tally_fold_matches_per_verdict_records(
            counts in proptest::collection::vec(0u64..40, DeliveryLedger::TALLY_SLOTS),
            start in proptest::collection::vec(0u64..40, DeliveryLedger::TALLY_SLOTS),
        ) {
            // A ledger that already holds verdicts, so the fold must add
            // to every field rather than overwrite it.
            let verdict = |slot: usize| match DropReason::ALL.get(slot) {
                Some(&reason) => Delivery::Dropped(reason),
                None => Delivery::Public(Ip::from_octets(198, 51, 100, 1)),
            };
            let mut folded = DeliveryLedger::new();
            folded.record(Delivery::Local {
                realm: RealmId(0),
                ip: Ip::from_octets(192, 168, 0, 1),
            });
            for (slot, &n) in start.iter().enumerate() {
                (0..n).for_each(|_| folded.record(verdict(slot)));
            }
            let mut recorded = folded;
            let tally: [u64; DeliveryLedger::TALLY_SLOTS] = counts.clone().try_into().unwrap();
            folded.record_tally(&tally);
            for (slot, &n) in counts.iter().enumerate() {
                (0..n).for_each(|_| recorded.record(verdict(slot)));
            }
            proptest::prop_assert_eq!(folded, recorded);
            proptest::prop_assert_eq!(
                folded.delivered() + folded.dropped_total(),
                folded.probes()
            );
        }
    }

    #[test]
    fn snake_labels_are_stable() {
        let labels: Vec<&str> = DropReason::ALL.iter().map(|r| r.snake_label()).collect();
        assert_eq!(
            labels,
            [
                "unroutable_destination",
                "egress_filtered",
                "ingress_filtered",
                "packet_loss",
                "sensor_outage",
                "upstream_blackhole",
                "filter_flap",
                "degraded_loss"
            ]
        );
    }
}
