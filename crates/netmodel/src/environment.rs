//! The composed network environment: one verdict per probe.

use std::fmt;

use hotspots_ipspace::{special, Ip};
use rand::Rng;

use crate::fault::{FaultPlan, FaultView};
use crate::filtering::FilterTable;
use crate::latency::LatencyModel;
use crate::ledger::DeliveryLedger;
use crate::loss::LossModel;
use crate::nat::{NatRealm, RealmId};
use crate::route_table::{self, RouteTables};
use crate::service::Service;

/// Where a host sits in the topology: directly on the public Internet, or
/// inside a NAT realm with a private address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Locus {
    /// A host with a globally routable address.
    Public(Ip),
    /// A host with a private address inside a NAT realm.
    Private {
        /// The realm the host lives in.
        realm: RealmId,
        /// The host's RFC 1918 address within the realm.
        ip: Ip,
    },
}

impl Locus {
    /// The address this host's *outbound* packets carry on the public
    /// Internet (its own address, or its realm gateway).
    pub fn public_source(&self, env: &Environment) -> Ip {
        match *self {
            Locus::Public(ip) => ip,
            Locus::Private { realm, .. } => env.realm(realm).gateway(),
        }
    }

    /// The address local peers see (private address inside a realm).
    pub fn local_address(&self) -> Ip {
        match *self {
            Locus::Public(ip) | Locus::Private { ip, .. } => ip,
        }
    }
}

impl fmt::Display for Locus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Locus::Public(ip) => write!(f, "{ip}"),
            Locus::Private { realm, ip } => write!(f, "{ip}@{realm}"),
        }
    }
}

/// Why a probe was dropped.
///
/// `Ord` so drop tallies can live in ordered maps (report output must
/// iterate deterministically — lint rule D2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// Destination not routable from the source (private space from
    /// outside its realm, loopback, multicast, reserved, 0/8).
    UnroutableDestination,
    /// Dropped by a source-keyed (enterprise egress) filter rule.
    EgressFiltered,
    /// Dropped by a destination-keyed (upstream/ingress) filter rule.
    IngressFiltered,
    /// Lost to network failure.
    PacketLoss,
    /// Consumed by a scheduled sensor/telescope outage
    /// ([`FaultKind::SensorOutage`](crate::FaultKind::SensorOutage)):
    /// the destination block is dark.
    SensorOutage,
    /// Discarded by a scheduled upstream blackhole event
    /// ([`FaultKind::Blackhole`](crate::FaultKind::Blackhole)).
    UpstreamBlackhole,
    /// Dropped by a flapping filter rule in its on-phase
    /// ([`FaultKind::FilterFlap`](crate::FaultKind::FilterFlap)).
    FilterFlap,
    /// Lost to a scheduled degraded-path window
    /// ([`FaultKind::DegradedLoss`](crate::FaultKind::DegradedLoss)),
    /// over and above base packet loss.
    DegradedLoss,
}

impl DropReason {
    /// Every reason, in a fixed order (ledger/report column order).
    /// Fault verdict classes are appended so pre-fault indices — and the
    /// reports keyed on them — stay stable.
    pub const ALL: [DropReason; 8] = [
        DropReason::UnroutableDestination,
        DropReason::EgressFiltered,
        DropReason::IngressFiltered,
        DropReason::PacketLoss,
        DropReason::SensorOutage,
        DropReason::UpstreamBlackhole,
        DropReason::FilterFlap,
        DropReason::DegradedLoss,
    ];

    /// A stable `snake_case` label for machine-readable output (JSONL
    /// run reports); [`fmt::Display`] stays human-oriented.
    pub fn snake_label(self) -> &'static str {
        match self {
            DropReason::UnroutableDestination => "unroutable_destination",
            DropReason::EgressFiltered => "egress_filtered",
            DropReason::IngressFiltered => "ingress_filtered",
            DropReason::PacketLoss => "packet_loss",
            DropReason::SensorOutage => "sensor_outage",
            DropReason::UpstreamBlackhole => "upstream_blackhole",
            DropReason::FilterFlap => "filter_flap",
            DropReason::DegradedLoss => "degraded_loss",
        }
    }

    /// The reason's index into [`DropReason::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DropReason::UnroutableDestination => "unroutable destination",
            DropReason::EgressFiltered => "egress filtered",
            DropReason::IngressFiltered => "ingress filtered",
            DropReason::PacketLoss => "packet loss",
            DropReason::SensorOutage => "sensor outage",
            DropReason::UpstreamBlackhole => "upstream blackhole",
            DropReason::FilterFlap => "filter flap",
            DropReason::DegradedLoss => "degraded loss",
        })
    }
}

/// The outcome of routing one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Delivery {
    /// Delivered to a public destination address.
    Public(Ip),
    /// Delivered locally inside a NAT realm (source and destination share
    /// the realm).
    Local {
        /// The shared realm.
        realm: RealmId,
        /// The private destination address.
        ip: Ip,
    },
    /// Dropped en route.
    Dropped(DropReason),
}

/// The network environment: NAT realms + filter policy + loss + faults.
///
/// This is the single interface the simulator uses: every probe goes
/// through [`Environment::route_batch`], which composes all three
/// environmental factor classes into a [`Delivery`] verdict per probe.
/// [`Environment::route`] is its one-probe reference: tests pin the
/// batch form to it, verdicts and RNG draws alike.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Ip;
/// use hotspots_netmodel::{Delivery, DropReason, Environment, Locus, NatRealm, Service};
/// use rand::SeedableRng;
///
/// let mut env = Environment::new();
/// let realm = env.add_realm(NatRealm::home_192_168(Ip::from_octets(203, 0, 113, 1)).unwrap());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
///
/// // Inside the realm: a NATed host reaches a private neighbor.
/// let inside = Locus::Private { realm, ip: Ip::from_octets(192, 168, 0, 2) };
/// let v = env.route(inside, Ip::from_octets(192, 168, 9, 9), Service::CODERED_HTTP, 0.0, &mut rng);
/// assert_eq!(v, Delivery::Local { realm, ip: Ip::from_octets(192, 168, 9, 9) });
///
/// // From the public Internet, private space is unreachable.
/// let outside = Locus::Public(Ip::from_octets(8, 8, 8, 8));
/// let v = env.route(outside, Ip::from_octets(192, 168, 9, 9), Service::CODERED_HTTP, 0.0, &mut rng);
/// assert_eq!(v, Delivery::Dropped(DropReason::UnroutableDestination));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Environment {
    realms: Vec<NatRealm>,
    filters: FilterTable,
    loss: LossModel,
    latency: LatencyModel,
    faults: FaultPlan,
}

impl Environment {
    /// An environment with no realms, no filters, and no loss — the
    /// idealized Internet of the simple epidemic model.
    pub fn new() -> Environment {
        Environment::default()
    }

    /// Registers a NAT realm, returning its id.
    pub fn add_realm(&mut self, realm: NatRealm) -> RealmId {
        let id = RealmId(u32::try_from(self.realms.len()).expect("fewer than 2^32 realms")); // hotspots-lint: allow(panic-path) reason="realm count is bounded far below 2^32"
        self.realms.push(realm);
        id
    }

    /// Looks up a realm.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this environment's
    /// [`Environment::add_realm`].
    pub fn realm(&self, id: RealmId) -> &NatRealm {
        &self.realms[id.0 as usize]
    }

    /// Number of registered realms.
    pub fn realm_count(&self) -> usize {
        self.realms.len()
    }

    /// Mutable access to the filter table.
    pub fn filters_mut(&mut self) -> &mut FilterTable {
        &mut self.filters
    }

    /// The filter table.
    pub fn filters(&self) -> &FilterTable {
        &self.filters
    }

    /// Sets the packet-loss model.
    pub fn set_loss(&mut self, loss: LossModel) {
        self.loss = loss;
    }

    /// The packet-loss model.
    pub fn loss(&self) -> LossModel {
        self.loss
    }

    /// Sets the path-latency model (how long a delivered probe takes to
    /// reach — and infect — its destination).
    pub fn set_latency(&mut self, latency: LatencyModel) {
        self.latency = latency;
    }

    /// The path-latency model.
    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    /// Installs a fault schedule (replacing any previous one).
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The fault schedule.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Routes one probe from `from` toward destination address `to` on
    /// `service` at simulation time `time`, returning where (whether) it
    /// lands.
    ///
    /// Evaluation order models a real path: local/NAT short-circuit →
    /// routability → upstream faults (blackhole, sensor outage) →
    /// egress policy → ingress policy → flapping filters → degraded-path
    /// loss → base loss.
    pub fn route<R: Rng + ?Sized>(
        &self,
        from: Locus,
        to: Ip,
        service: Service,
        time: f64,
        rng: &mut R,
    ) -> Delivery {
        // 1. Private destinations resolve only within the sender's realm.
        if special::is_private(to) {
            if let Locus::Private { realm, .. } = from {
                if self.realm(realm).contains(to) {
                    return Delivery::Local { realm, ip: to };
                }
            }
            return Delivery::Dropped(DropReason::UnroutableDestination);
        }
        // 2. Other non-routable space never leaves the first router.
        if !special::is_globally_routable(to) {
            return Delivery::Dropped(DropReason::UnroutableDestination);
        }
        let faults = self.faults.view_at(time);
        self.route_routable(from.public_source(self), to, service, &faults, rng)
    }

    /// Steps 3–8 of [`Environment::route`], for a globally routable
    /// destination `to` from a sender whose packets leave as
    /// `public_src`, under the faults in effect `faults`.
    fn route_routable<R: Rng + ?Sized>(
        &self,
        public_src: Ip,
        to: Ip,
        service: Service,
        faults: &FaultView<'_>,
        rng: &mut R,
    ) -> Delivery {
        // 3. Scheduled upstream faults swallow traffic before any border
        // policy sees it.
        if !faults.is_inert() {
            if faults.blackholed(public_src, to) {
                return Delivery::Dropped(DropReason::UpstreamBlackhole);
            }
            if faults.outage(to) {
                return Delivery::Dropped(DropReason::SensorOutage);
            }
        }
        // 4./5. Policy, applied to the packet as seen on the public path
        // (NATed sources appear as their gateway).
        if let Some(reason) = self.filters.check(public_src, to, service) {
            return Delivery::Dropped(reason);
        }
        if !faults.is_inert() {
            // 6. Flapping rules act as policy while in their on-phase.
            if faults.flapped(public_src, to, service) {
                return Delivery::Dropped(DropReason::FilterFlap);
            }
            // 7. Degraded paths stack an extra loss draw.
            if let Some(rate) = faults.degraded(public_src, to) {
                if rng.gen::<f64>() < rate {
                    return Delivery::Dropped(DropReason::DegradedLoss);
                }
            }
        }
        // 8. Steady-state failures.
        if self.loss.drops(rng) {
            return Delivery::Dropped(DropReason::PacketLoss);
        }
        Delivery::Public(to)
    }

    /// Routes a batch of probes sharing one source, appending one probe
    /// record `(public source, verdict)` to `out` per *delivered* probe,
    /// public or local (the records
    /// `hotspots_sim::SimObserver::on_probe_batch` reads), and filing
    /// every verdict, drops included, into `ledger`. A dropped probe
    /// leaves no record: it is counted in the ledger and nowhere else.
    ///
    /// The verdicts — and the RNG draws (one loss draw per probe that
    /// survives routability and policy) — are exactly those of calling
    /// [`Environment::route`] once per target in order: the records are
    /// its non-dropped verdicts in target order, so batch size never
    /// changes a simulation's outcome. Two lanes:
    ///
    /// - **Clean**: a public sender with no fault in effect, no filter
    ///   rule and no loss. Each probe is one routability bit test, the
    ///   routable ones stream into `out`, the ledger is updated in bulk,
    ///   and no RNG is drawn.
    /// - **Table**: everything else. `tables` resolves each destination
    ///   /16 once into a class for this sender, service and set of
    ///   faults in effect (see [`RouteTables`]). A fixed drop, or a
    ///   delivery when there is no base loss, costs one table load, one
    ///   tally increment and one record write that only a delivery
    ///   keeps, with no branch on the verdict. Private space takes the
    ///   realm check and a lossy delivery the base-loss draw. A /16 that
    ///   a narrower prefix cuts, or that a degraded path touches, is
    ///   mixed: its probes go through [`Environment::route`]'s own chain
    ///   from step 3 on, with the faults in effect resolved once per
    ///   batch.
    #[allow(clippy::too_many_arguments)] // a routing verdict needs the full probe context
    pub fn route_batch<R: Rng + ?Sized>(
        &self,
        from: Locus,
        targets: &[Ip],
        service: Service,
        time: f64,
        rng: &mut R,
        out: &mut Vec<(Ip, Delivery)>,
        ledger: &mut DeliveryLedger,
        tables: &mut RouteTables,
    ) {
        let public_src = from.public_source(self);
        let faults = self.faults.view_at(time);
        let mut tally = [0u64; DeliveryLedger::TALLY_SLOTS];
        if matches!(from, Locus::Public(_))
            && faults.is_inert()
            && self.filters.rules().is_empty()
            && self.loss.rate() <= 0.0
        {
            let start = out.len();
            append_delivered(out, public_src, targets, |to| {
                (Delivery::Public(to), special::is_globally_routable(to))
            });
            let delivered = (out.len() - start) as u64;
            tally[DeliveryLedger::PUBLIC_SLOT] = delivered;
            tally[DropReason::UnroutableDestination.index()] = targets.len() as u64 - delivered;
            ledger.record_tally(&tally);
            return;
        }

        let realm = match from {
            Locus::Private { realm, .. } => Some((realm, self.realm(realm))),
            Locus::Public(_) => None,
        };
        let classes = tables.classes(self, public_src, service, time);
        // Classes below `tallied` are a fixed verdict: the fixed drops,
        // and delivery when no loss draw can drop it.
        let tallied = if self.loss.rate() <= 0.0 {
            route_table::DELIVER + 1
        } else {
            route_table::DELIVER
        };
        append_delivered(out, public_src, targets, |to| {
            let class = classes[(to.value() >> 16) as usize];
            if class < tallied {
                tally[usize::from(class)] += 1;
                return (Delivery::Public(to), class == route_table::DELIVER);
            }
            let verdict = match class {
                route_table::DELIVER => {
                    if self.loss.drops(rng) {
                        Delivery::Dropped(DropReason::PacketLoss)
                    } else {
                        Delivery::Public(to)
                    }
                }
                route_table::PRIVATE => match realm {
                    Some((realm, nat)) if nat.contains(to) => Delivery::Local { realm, ip: to },
                    _ => Delivery::Dropped(DropReason::UnroutableDestination),
                },
                // MIXED: steps 1–2 paint over every other class, so a
                // mixed /16 is routable.
                _ => self.route_routable(public_src, to, service, &faults, rng),
            };
            ledger.record(verdict);
            (verdict, !matches!(verdict, Delivery::Dropped(_)))
        });
        ledger.record_tally(&tally);
    }
}

/// Appends to `out`, in target order, a record `(src, verdict)` for each
/// target that `route` says is delivered. `route` answers each target
/// with its verdict and whether it was delivered; it is called once per
/// target, in order.
///
/// Each block of targets is written to a stack buffer with no branch on
/// that answer (only a delivered record moves the cursor past its
/// slot), and the block's kept records are copied out in one slice. A
/// branch per record mispredicts on every unpredictable drop, and
/// sizing `out` for every target first costs a second write per record.
#[inline(always)]
fn append_delivered(
    out: &mut Vec<(Ip, Delivery)>,
    src: Ip,
    targets: &[Ip],
    mut route: impl FnMut(Ip) -> (Delivery, bool),
) {
    const BLOCK: usize = 32;
    out.reserve(targets.len());
    let mut block = [(src, Delivery::Public(Ip::MIN)); BLOCK];
    for chunk in targets.chunks(BLOCK) {
        let mut kept = 0;
        for &to in chunk {
            let (verdict, delivered) = route(to);
            block[kept] = (src, verdict);
            kept += usize::from(delivered);
        }
        out.extend_from_slice(&block[..kept]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filtering::FilterRule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ip(s: &str) -> Ip {
        s.parse().unwrap()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn public_to_public_delivers() {
        let env = Environment::new();
        let v = env.route(
            Locus::Public(ip("1.2.3.4")),
            ip("5.6.7.8"),
            Service::CODERED_HTTP,
            0.0,
            &mut rng(),
        );
        assert_eq!(v, Delivery::Public(ip("5.6.7.8")));
    }

    #[test]
    fn loopback_multicast_reserved_unroutable() {
        let env = Environment::new();
        for dst in ["127.0.0.1", "224.0.0.5", "240.0.0.1", "0.1.2.3"] {
            let v = env.route(
                Locus::Public(ip("1.2.3.4")),
                ip(dst),
                Service::BLASTER_RPC,
                0.0,
                &mut rng(),
            );
            assert_eq!(
                v,
                Delivery::Dropped(DropReason::UnroutableDestination),
                "{dst}"
            );
        }
    }

    #[test]
    fn nat_asymmetry() {
        let mut env = Environment::new();
        let realm = env.add_realm(NatRealm::home_192_168(ip("203.0.113.1")).unwrap());
        let inside = Locus::Private {
            realm,
            ip: ip("192.168.0.5"),
        };
        let mut r = rng();
        // inside → inside: local delivery
        assert_eq!(
            env.route(
                inside,
                ip("192.168.200.1"),
                Service::CODERED_HTTP,
                0.0,
                &mut r
            ),
            Delivery::Local {
                realm,
                ip: ip("192.168.200.1")
            }
        );
        // inside → public: delivered (sourced from gateway)
        assert_eq!(
            env.route(inside, ip("8.8.8.8"), Service::CODERED_HTTP, 0.0, &mut r),
            Delivery::Public(ip("8.8.8.8"))
        );
        // outside → private: unroutable
        assert_eq!(
            env.route(
                Locus::Public(ip("8.8.8.8")),
                ip("192.168.0.5"),
                Service::CODERED_HTTP,
                0.0,
                &mut r
            ),
            Delivery::Dropped(DropReason::UnroutableDestination)
        );
    }

    #[test]
    fn natted_host_cannot_reach_other_realms_private_space() {
        let mut env = Environment::new();
        let realm_a = env
            .add_realm(NatRealm::new("10.0.0.0/16".parse().unwrap(), ip("198.51.100.1")).unwrap());
        let _realm_b = env
            .add_realm(NatRealm::new("10.1.0.0/16".parse().unwrap(), ip("198.51.100.2")).unwrap());
        let inside_a = Locus::Private {
            realm: realm_a,
            ip: ip("10.0.0.9"),
        };
        // 10.1.x.x is private but not in realm A → unroutable from A
        assert_eq!(
            env.route(inside_a, ip("10.1.0.9"), Service::BOT_SMB, 0.0, &mut rng()),
            Delivery::Dropped(DropReason::UnroutableDestination)
        );
    }

    #[test]
    fn egress_filter_applies_to_gateway_source() {
        let mut env = Environment::new();
        let realm = env
            .add_realm(NatRealm::new("192.168.0.0/16".parse().unwrap(), ip("131.5.0.1")).unwrap());
        env.filters_mut()
            .push(FilterRule::egress("131.5.0.0/16".parse().unwrap(), None));
        // NATed host's outbound probes carry the gateway source → filtered
        let inside = Locus::Private {
            realm,
            ip: ip("192.168.1.1"),
        };
        assert_eq!(
            env.route(inside, ip("9.9.9.9"), Service::BLASTER_RPC, 0.0, &mut rng()),
            Delivery::Dropped(DropReason::EgressFiltered)
        );
    }

    #[test]
    fn ingress_filter_is_service_specific() {
        let mut env = Environment::new();
        env.filters_mut().push(FilterRule::ingress(
            "192.40.16.0/22".parse().unwrap(),
            Some(Service::SLAMMER_SQL),
        ));
        let src = Locus::Public(ip("7.7.7.7"));
        let mut r = rng();
        assert_eq!(
            env.route(src, ip("192.40.17.1"), Service::SLAMMER_SQL, 0.0, &mut r),
            Delivery::Dropped(DropReason::IngressFiltered)
        );
        assert_eq!(
            env.route(src, ip("192.40.17.1"), Service::CODERED_HTTP, 0.0, &mut r),
            Delivery::Public(ip("192.40.17.1"))
        );
    }

    #[test]
    fn faults_produce_their_own_verdict_classes() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultWindow};
        let mut env = Environment::new();
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent::new(
            FaultKind::Blackhole {
                prefix: "12.0.0.0/8".parse().unwrap(),
            },
            FaultWindow::new(10.0, 20.0),
        ));
        plan.push(FaultEvent::new(
            FaultKind::SensorOutage {
                block: "66.66.0.0/16".parse().unwrap(),
            },
            FaultWindow::new(10.0, 20.0),
        ));
        plan.push(FaultEvent::new(
            FaultKind::FilterFlap {
                rule: FilterRule::ingress("77.0.0.0/8".parse().unwrap(), None),
                period: 10.0,
                duty: 0.5,
            },
            FaultWindow::new(10.0, 20.0),
        ));
        plan.push(FaultEvent::new(
            FaultKind::DegradedLoss {
                prefix: "88.0.0.0/8".parse().unwrap(),
                rate: 1.0,
            },
            FaultWindow::new(10.0, 20.0),
        ));
        env.set_faults(plan);
        let src = Locus::Public(ip("1.2.3.4"));
        let mut r = rng();
        // inside the window, each fault files under its own class
        assert_eq!(
            env.route(src, ip("12.5.5.5"), Service::BOT_SMB, 15.0, &mut r),
            Delivery::Dropped(DropReason::UpstreamBlackhole)
        );
        assert_eq!(
            env.route(src, ip("66.66.5.5"), Service::BOT_SMB, 15.0, &mut r),
            Delivery::Dropped(DropReason::SensorOutage)
        );
        assert_eq!(
            env.route(src, ip("77.5.5.5"), Service::BOT_SMB, 12.0, &mut r),
            Delivery::Dropped(DropReason::FilterFlap)
        );
        assert_eq!(
            env.route(src, ip("88.5.5.5"), Service::BOT_SMB, 15.0, &mut r),
            Delivery::Dropped(DropReason::DegradedLoss)
        );
        // blackholed sources are swallowed too
        assert_eq!(
            env.route(
                Locus::Public(ip("12.5.5.5")),
                ip("8.8.8.8"),
                Service::BOT_SMB,
                15.0,
                &mut r
            ),
            Delivery::Dropped(DropReason::UpstreamBlackhole)
        );
        // outside the window, the same probes deliver
        for dst in ["12.5.5.5", "66.66.5.5", "77.5.5.5", "88.5.5.5"] {
            assert_eq!(
                env.route(src, ip(dst), Service::BOT_SMB, 25.0, &mut r),
                Delivery::Public(ip(dst)),
                "{dst}"
            );
        }
        // flap off-phase: second half of the period passes
        assert_eq!(
            env.route(src, ip("77.5.5.5"), Service::BOT_SMB, 17.0, &mut r),
            Delivery::Public(ip("77.5.5.5"))
        );
    }

    #[test]
    fn loss_drops_with_reason() {
        let mut env = Environment::new();
        env.set_loss(LossModel::new(1.0).unwrap());
        assert_eq!(
            env.route(
                Locus::Public(ip("1.1.1.1")),
                ip("2.2.2.2"),
                Service::BOT_SMB,
                0.0,
                &mut rng()
            ),
            Delivery::Dropped(DropReason::PacketLoss)
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Prefixes the route-class test aims its probes into, so split
        /// /16s see probes on both sides of the prefix that cuts them.
        const AIMS: [&str; 10] = [
            "20.20.0.0/16",
            "21.21.0.0/16",
            "22.22.0.0/16",
            "23.23.0.0/16",
            "24.24.0.0/16",
            "192.168.0.0/16",
            "96.0.0.0/5",
            "128.0.0.0/3",
            "32.0.0.0/6",
            "192.0.0.0/4",
        ];

        /// The address `offset` lands on in `AIMS[aim]`, or `offset`
        /// itself when `aim` is past the end.
        fn aimed(aim: usize, offset: u32) -> Ip {
            match AIMS.get(aim) {
                Some(p) => {
                    let p: hotspots_ipspace::Prefix = p.parse().unwrap();
                    Ip::new(p.base().value() | (offset & !p.mask()))
                }
                None => Ip::new(offset),
            }
        }

        /// Routes `targets` from `from` one probe at a time, filing every
        /// verdict in a ledger, and returns the records of the delivered
        /// probes in target order: what a batch must append.
        fn scalar_records<R: Rng>(
            env: &Environment,
            from: Locus,
            targets: &[Ip],
            service: Service,
            time: f64,
            rng: &mut R,
            ledger: &mut DeliveryLedger,
        ) -> Vec<(Ip, Delivery)> {
            targets
                .iter()
                .map(|&to| env.route(from, to, service, time, rng))
                .inspect(|&v| ledger.record(v))
                .filter(|v| !matches!(v, Delivery::Dropped(_)))
                .map(|v| (from.public_source(env), v))
                .collect()
        }

        /// Routes `targets` from `from` in one batch and one probe at a
        /// time, and requires equal delivered records, ledgers and RNG
        /// use.
        fn assert_batch_matches_scalar(
            env: &Environment,
            from: Locus,
            targets: &[Ip],
            time: f64,
            tables: &mut RouteTables,
        ) -> Result<(), TestCaseError> {
            let mut scalar_rng = StdRng::seed_from_u64(9);
            let mut batch_rng = StdRng::seed_from_u64(9);
            let mut scalar_ledger = DeliveryLedger::new();
            let scalar = scalar_records(
                env,
                from,
                targets,
                Service::BOT_SMB,
                time,
                &mut scalar_rng,
                &mut scalar_ledger,
            );
            // Records already in the buffer stay ahead of the batch's.
            let lead = (Ip::MAX, Delivery::Public(Ip::MIN));
            let mut batch = vec![lead];
            let mut batch_ledger = DeliveryLedger::new();
            env.route_batch(
                from,
                targets,
                Service::BOT_SMB,
                time,
                &mut batch_rng,
                &mut batch,
                &mut batch_ledger,
                tables,
            );
            prop_assert_eq!(batch[0], lead);
            prop_assert_eq!(&batch[1..], &scalar[..], "from {} at {}", from, time);
            prop_assert_eq!(batch_ledger, scalar_ledger);
            // identical rng consumption: both streams are at the same
            // point afterwards
            prop_assert_eq!(
                rand::Rng::gen::<u64>(&mut scalar_rng),
                rand::Rng::gen::<u64>(&mut batch_rng)
            );
            Ok(())
        }

        proptest! {
            #[test]
            fn route_verdicts_are_internally_consistent(src in any::<u32>(), dst in any::<u32>()) {
                let mut env = Environment::new();
                let realm = env.add_realm(
                    NatRealm::home_192_168(Ip::from_octets(203, 0, 113, 1)).unwrap(),
                );
                let mut rng = StdRng::seed_from_u64(0);
                let dst = Ip::new(dst);
                for from in [
                    Locus::Public(Ip::new(src)),
                    Locus::Private { realm, ip: Ip::from_octets(192, 168, 0, 7) },
                ] {
                    match env.route(from, dst, Service::BOT_SMB, 0.0, &mut rng) {
                        Delivery::Public(ip) => {
                            prop_assert_eq!(ip, dst);
                            prop_assert!(hotspots_ipspace::special::is_globally_routable(ip));
                        }
                        Delivery::Local { realm: r, ip } => {
                            let from_is_private = matches!(from, Locus::Private { .. });
                            prop_assert_eq!(ip, dst);
                            prop_assert!(hotspots_ipspace::special::is_private(ip));
                            prop_assert!(env.realm(r).contains(ip));
                            prop_assert!(from_is_private);
                        }
                        Delivery::Dropped(_) => {}
                    }
                }
            }

            #[test]
            fn route_batch_matches_scalar_route(
                src in any::<u32>(),
                picks in proptest::collection::vec((0usize..=AIMS.len(), any::<u32>()), 0..96),
                loss_pct in 0u32..=100,
                times in proptest::collection::vec(0.0f64..40.0, 1..6),
            ) {
                use crate::fault::{FaultEvent, FaultKind, FaultWindow};
                let loss = f64::from(loss_pct) / 100.0;
                // A lossy, filtered, NATed, faulted environment: every
                // verdict arm and every route class is reachable, and the
                // loss draws must line up exactly. The sender-keyed
                // conditions are placed around fixed senders, so each
                // sender below gets its own table.
                let mut env = Environment::new();
                let realm = env.add_realm(
                    NatRealm::home_192_168(Ip::from_octets(203, 0, 113, 1)).unwrap(),
                );
                env.filters_mut().push(FilterRule::ingress(
                    "64.0.0.0/4".parse().unwrap(),
                    Some(Service::BOT_SMB),
                ));
                // Narrower than /16: their /16s are mixed.
                env.filters_mut().push(FilterRule::ingress(
                    "20.20.16.0/20".parse().unwrap(),
                    None,
                ));
                env.filters_mut().push(FilterRule::egress(
                    "150.0.0.0/8".parse().unwrap(),
                    Some(Service::BOT_SMB),
                ));
                env.filters_mut().push(FilterRule::egress(
                    "151.0.0.0/8".parse().unwrap(),
                    Some(Service::SLAMMER_SQL),
                ));
                env.set_loss(LossModel::new(loss).unwrap());
                let mut faults = crate::fault::FaultPlan::new();
                faults.push(FaultEvent::new(
                    FaultKind::Blackhole { prefix: "32.0.0.0/6".parse().unwrap() },
                    FaultWindow::new(10.0, 20.0),
                ));
                faults.push(FaultEvent::new(
                    FaultKind::Blackhole { prefix: "21.21.21.0/24".parse().unwrap() },
                    FaultWindow::new(0.0, 30.0),
                ));
                faults.push(FaultEvent::new(
                    FaultKind::Blackhole { prefix: "160.0.0.0/8".parse().unwrap() },
                    FaultWindow::new(5.0, 25.0),
                ));
                faults.push(FaultEvent::new(
                    FaultKind::SensorOutage { block: "128.0.0.0/3".parse().unwrap() },
                    FaultWindow::new(15.0, 30.0),
                ));
                faults.push(FaultEvent::new(
                    FaultKind::SensorOutage { block: "22.22.128.0/18".parse().unwrap() },
                    FaultWindow::new(0.0, 40.0),
                ));
                faults.push(FaultEvent::new(
                    FaultKind::FilterFlap {
                        rule: FilterRule::ingress("96.0.0.0/5".parse().unwrap(), None),
                        period: 4.0,
                        duty: 0.5,
                    },
                    FaultWindow::new(0.0, 40.0),
                ));
                faults.push(FaultEvent::new(
                    FaultKind::FilterFlap {
                        rule: FilterRule {
                            src: Some("170.0.0.0/8".parse().unwrap()),
                            dst: Some("23.23.0.0/17".parse().unwrap()),
                            service: None,
                            reason: DropReason::IngressFiltered,
                        },
                        period: 6.0,
                        duty: 0.5,
                    },
                    FaultWindow::new(0.0, 40.0),
                ));
                faults.push(FaultEvent::new(
                    FaultKind::FilterFlap {
                        rule: FilterRule {
                            src: Some("170.0.0.0/8".parse().unwrap()),
                            dst: None,
                            service: Some(Service::BOT_SMB),
                            reason: DropReason::IngressFiltered,
                        },
                        period: 10.0,
                        duty: 0.3,
                    },
                    FaultWindow::new(0.0, 40.0),
                ));
                faults.push(FaultEvent::new(
                    FaultKind::DegradedLoss {
                        prefix: "192.0.0.0/4".parse().unwrap(),
                        rate: 0.5,
                    },
                    FaultWindow::new(5.0, 35.0),
                ));
                faults.push(FaultEvent::new(
                    FaultKind::DegradedLoss {
                        prefix: "24.24.24.0/22".parse().unwrap(),
                        rate: 0.25,
                    },
                    FaultWindow::new(0.0, 40.0),
                ));
                faults.push(FaultEvent::new(
                    FaultKind::DegradedLoss {
                        prefix: "180.0.0.0/8".parse().unwrap(),
                        rate: 0.75,
                    },
                    FaultWindow::new(0.0, 20.0),
                ));
                env.set_faults(faults);
                let targets: Vec<Ip> = picks.iter().map(|&(aim, offset)| aimed(aim, offset)).collect();
                let senders = [
                    Locus::Public(Ip::new(src)),
                    Locus::Private { realm, ip: Ip::from_octets(192, 168, 0, 7) },
                    // an egress rule on the worm's service matches it;
                    // the one on another service does not
                    Locus::Public(Ip::from_octets(150, 1, 2, 3)),
                    Locus::Public(Ip::from_octets(151, 1, 2, 3)),
                    // matched by the flap rules' source selector
                    Locus::Public(Ip::from_octets(170, 1, 2, 3)),
                    // inside a blackhole, and inside a degraded path
                    Locus::Public(Ip::from_octets(160, 1, 2, 3)),
                    Locus::Public(Ip::from_octets(180, 1, 2, 3)),
                ];
                // One cache across every time and sender: it is rebuilt
                // whenever the in-effect set changes, mid-sequence. The
                // second pass is lossless, where a delivery is a fixed
                // verdict like the drops.
                let mut tables = RouteTables::new();
                for pass_loss in [loss, 0.0] {
                    env.set_loss(LossModel::new(pass_loss).unwrap());
                    for &time in &times {
                        for from in senders {
                            assert_batch_matches_scalar(&env, from, &targets, time, &mut tables)?;
                        }
                    }
                }
                // A NATed sender in an otherwise clean environment.
                let mut clean = Environment::new();
                let realm = clean.add_realm(
                    NatRealm::home_192_168(Ip::from_octets(203, 0, 113, 1)).unwrap(),
                );
                let natted = Locus::Private { realm, ip: Ip::from_octets(192, 168, 3, 3) };
                assert_batch_matches_scalar(&clean, natted, &targets, times[0], &mut RouteTables::new())?;
            }

            #[test]
            fn route_batch_fast_lane_matches_scalar_route(
                src in any::<u32>(),
                dsts in proptest::collection::vec(any::<u32>(), 0..128),
            ) {
                // The clean-environment fast lane (public sender, no
                // faults/filters/loss) must record exactly the scalar
                // router's delivered verdicts, in order, agree with it in
                // the ledger, and like the
                // scalar path it must consume no RNG. Random addresses
                // almost never sit on a range edge, so every special
                // range's first and last address, ±1, lead the batch.
                use hotspots_ipspace::special::*;
                let env = Environment::new();
                let from = Locus::Public(Ip::new(src));
                let edges = [
                    THIS_NET, PRIVATE_10, LOOPBACK, PRIVATE_172, PRIVATE_192, MULTICAST, RESERVED_E,
                ]
                .into_iter()
                .flat_map(|p| [p.base(), p.last_ip()])
                .flat_map(|ip| [ip.wrapping_add(u32::MAX), ip, ip.wrapping_add(1)]);
                let targets: Vec<Ip> = edges.chain(dsts.iter().copied().map(Ip::new)).collect();
                let mut scalar_rng = StdRng::seed_from_u64(4);
                let mut batch_rng = StdRng::seed_from_u64(4);
                let mut scalar_ledger = DeliveryLedger::new();
                let scalar = scalar_records(
                    &env,
                    from,
                    &targets,
                    Service::SLAMMER_SQL,
                    0.0,
                    &mut scalar_rng,
                    &mut scalar_ledger,
                );
                let mut batch = Vec::new();
                let mut batch_ledger = DeliveryLedger::new();
                env.route_batch(
                    from,
                    &targets,
                    Service::SLAMMER_SQL,
                    0.0,
                    &mut batch_rng,
                    &mut batch,
                    &mut batch_ledger,
                    &mut RouteTables::new(),
                );
                prop_assert_eq!(&batch, &scalar);
                prop_assert_eq!(batch_ledger, scalar_ledger);
                prop_assert_eq!(
                    rand::Rng::gen::<u64>(&mut scalar_rng),
                    rand::Rng::gen::<u64>(&mut batch_rng)
                );
            }

            #[test]
            fn lossless_unfiltered_routing_is_deterministic(src in any::<u32>(), dst in any::<u32>()) {
                let env = Environment::new();
                let mut r1 = StdRng::seed_from_u64(1);
                let mut r2 = StdRng::seed_from_u64(2);
                let from = Locus::Public(Ip::new(src));
                let a = env.route(from, Ip::new(dst), Service::CODERED_HTTP, 0.0, &mut r1);
                let b = env.route(from, Ip::new(dst), Service::CODERED_HTTP, 0.0, &mut r2);
                prop_assert_eq!(a, b, "no stochastic element should remain");
            }
        }
    }

    #[test]
    fn locus_public_source_resolves_gateway() {
        let mut env = Environment::new();
        let realm = env.add_realm(NatRealm::home_192_168(ip("203.0.113.1")).unwrap());
        let l = Locus::Private {
            realm,
            ip: ip("192.168.0.2"),
        };
        assert_eq!(l.public_source(&env), ip("203.0.113.1"));
        assert_eq!(l.local_address(), ip("192.168.0.2"));
        let p = Locus::Public(ip("5.5.5.5"));
        assert_eq!(p.public_source(&env), ip("5.5.5.5"));
    }
}
