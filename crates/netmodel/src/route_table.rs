//! Per-/16 route classes: the batch router's lane for faulted, filtered,
//! lossy and NATed traffic.
//!
//! Every condition [`Environment::route`](crate::Environment::route)
//! checks is keyed by a prefix, and all but a few are /16 or coarser. So
//! for one sender, one service and one set of fault events in effect,
//! most destination /16s get the same verdict for every address in them.
//! A [`RouteTables`] cache resolves that verdict once per /16 into a
//! class byte; the batch router then spends one table load per probe
//! instead of the eight-step chain.

use std::fmt;

use hotspots_ipspace::{special, Ip, Prefix};

use crate::environment::{DropReason, Environment};
use crate::fault::{FaultEvent, FaultKind};
use crate::filtering::FilterRule;
use crate::ledger::DeliveryLedger;
use crate::service::Service;

/// Class bytes below this are a fixed drop: `DropReason::ALL[class]`.
const DROPS: u8 = DropReason::ALL.len() as u8;
/// Routable, and no condition touches the /16: the base-loss draw, then
/// delivery. Every class up to this one is also its slot in a ledger
/// tally ([`DeliveryLedger::record_tally`]).
pub(crate) const DELIVER: u8 = DROPS;
const _: () = assert!(DELIVER as usize == DeliveryLedger::PUBLIC_SLOT);
/// RFC 1918 space: delivered locally inside the sender's realm,
/// unroutable from anywhere else.
pub(crate) const PRIVATE: u8 = DROPS + 1;
/// Some condition splits the /16 (a prefix narrower than /16 cuts it) or
/// draws per probe (a degraded path touches it): the scalar router
/// decides each probe.
pub(crate) const MIXED: u8 = DROPS + 2;

/// One class byte per destination /16, for one sender signature and one
/// service.
struct ClassTable {
    service: Service,
    /// Which source-keyed conditions admit the sender, one flag per
    /// filter rule and then one per fault event.
    signature: Vec<bool>,
    classes: Box<[u8]>,
}

/// The batch router's cache of per-/16 class tables.
///
/// A table is a pure function of its key: the environment's filter
/// rules and fault events, which events are in effect, the service, and
/// the sender's *signature* — which source-keyed conditions (egress
/// rules, flap rules with a source selector, blackhole and degraded
/// prefixes) match the sender's public source. Senders with equal
/// signatures share a table, so every host of an egress-filtered
/// enterprise uses one. Tables are kept per (service, signature) and
/// dropped together when the rules, the events or the in-effect set
/// change; their buffers are reused.
///
/// A new cache holds no memory: nothing is allocated until the first
/// batch the router's clean lane cannot take.
#[derive(Default)]
pub struct RouteTables {
    rules: Vec<FilterRule>,
    events: Vec<FaultEvent>,
    in_effect: Vec<bool>,
    tables: Vec<ClassTable>,
    /// Class buffers of dropped tables, reused by the next builds.
    spare: Vec<Box<[u8]>>,
    /// The current sender's signature (scratch).
    signature: Vec<bool>,
}

impl fmt::Debug for RouteTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouteTables")
            .field("tables", &self.tables.len())
            .field("in_effect", &self.in_effect)
            .finish()
    }
}

impl RouteTables {
    /// An empty cache.
    pub fn new() -> RouteTables {
        RouteTables::default()
    }

    /// The class table for a sender whose packets leave as `src`,
    /// probing `service` at `time`; built on first use.
    pub(crate) fn classes(
        &mut self,
        env: &Environment,
        src: Ip,
        service: Service,
        time: f64,
    ) -> &[u8] {
        let (rules, events) = (env.filters().rules(), env.faults().events());
        let current = self.rules == rules
            && self.events == events
            && self
                .in_effect
                .iter()
                .zip(events)
                .all(|(&on, e)| e.applies_at(time) == on);
        if !current {
            self.rules.clear();
            self.rules.extend_from_slice(rules);
            self.events.clear();
            self.events.extend_from_slice(events);
            self.in_effect.clear();
            self.in_effect
                .extend(events.iter().map(|e| e.applies_at(time)));
            self.spare
                .extend(self.tables.drain(..).map(|table| table.classes));
        }
        self.signature.clear();
        self.signature
            .extend(rules.iter().map(|r| admits(r.src, src)));
        self.signature.extend(events.iter().map(|e| match e.kind {
            FaultKind::Blackhole { prefix } | FaultKind::DegradedLoss { prefix, .. } => {
                prefix.contains(src)
            }
            FaultKind::FilterFlap { rule, .. } => admits(rule.src, src),
            FaultKind::SensorOutage { .. } => false,
        }));
        let found = self
            .tables
            .iter()
            .position(|t| t.service == service && t.signature == self.signature);
        let at = match found {
            Some(at) => at,
            None => {
                let mut classes = self
                    .spare
                    .pop()
                    .unwrap_or_else(|| vec![0; 1 << 16].into_boxed_slice());
                self.paint(&mut classes, src, service);
                self.tables.push(ClassTable {
                    service,
                    signature: self.signature.clone(),
                    classes,
                });
                self.tables.len() - 1
            }
        };
        &self.tables[at].classes
    }

    /// Fills `classes` for the sender `src` under the cached key.
    ///
    /// The scalar chain returns at the first step that matches, so the
    /// steps paint from last to first and each overwrites the ones after
    /// it. A step that matches all of a /16 paints its verdict there; a
    /// step that matches part of one paints [`MIXED`].
    fn paint(&self, classes: &mut [u8], src: Ip, service: Service) {
        classes.fill(DELIVER);
        let active = || {
            self.events
                .iter()
                .zip(&self.in_effect)
                .filter_map(|(e, &on)| on.then_some(e.kind))
        };
        // 7. Degraded paths draw per probe.
        for kind in active() {
            if let FaultKind::DegradedLoss { prefix, .. } = kind {
                if prefix.contains(src) {
                    classes.fill(MIXED);
                } else {
                    paint_prefix(classes, prefix, MIXED);
                }
            }
        }
        // 6. Flapping rules in their on-phase. Any match drops, so whole
        // /16s paint after split ones.
        let flaps = active().filter_map(|kind| match kind {
            FaultKind::FilterFlap { rule, .. } if rule_applies(&rule, src, service) => Some(rule),
            _ => None,
        });
        paint_any(classes, flaps.map(|r| r.dst), DropReason::FilterFlap);
        // 4./5. Policy: the first matching rule names the reason, so
        // earlier rules paint over later ones.
        for rule in self.rules.iter().rev() {
            if rule_applies(rule, src, service) {
                match rule.dst {
                    None => classes.fill(rule.reason as u8),
                    Some(dst) => paint_prefix(classes, dst, rule.reason as u8),
                }
            }
        }
        // 3. Outages, then blackholes, which precede them.
        let outages = active().filter_map(|kind| match kind {
            FaultKind::SensorOutage { block } => Some(Some(block)),
            _ => None,
        });
        paint_any(classes, outages, DropReason::SensorOutage);
        // A blackhole holding the sender swallows every destination.
        let blackholes = active().filter_map(|kind| match kind {
            FaultKind::Blackhole { prefix } if prefix.contains(src) => Some(None),
            FaultKind::Blackhole { prefix } => Some(Some(prefix)),
            _ => None,
        });
        paint_any(classes, blackholes, DropReason::UpstreamBlackhole);
        // 1./2. Unroutable space ends the chain first; private space, a
        // part of it, goes on to the realm check. Both are /16 or
        // coarser, so no /16 they cover stays mixed.
        for range in special::UNROUTABLE_RANGES {
            paint_prefix(classes, range, DropReason::UnroutableDestination as u8);
        }
        for range in special::PRIVATE_RANGES {
            paint_prefix(classes, range, PRIVATE);
        }
    }
}

/// Whether a source selector admits `src` (`None` admits every source).
fn admits(selector: Option<Prefix>, src: Ip) -> bool {
    selector.is_none_or(|p| p.contains(src))
}

/// Whether `rule` can match any probe from `src` on `service`.
fn rule_applies(rule: &FilterRule, src: Ip, service: Service) -> bool {
    admits(rule.src, src) && rule.service.is_none_or(|s| s == service)
}

/// Paints the /16s `prefix` covers with `class`, or marks the one /16 a
/// narrower prefix cuts [`MIXED`].
fn paint_prefix(classes: &mut [u8], prefix: Prefix, class: u8) {
    let first = (prefix.base().value() >> 16) as usize;
    if prefix.len() <= 16 {
        let last = (prefix.last_ip().value() >> 16) as usize;
        classes[first..=last].fill(class);
    } else {
        classes[first] = MIXED;
    }
}

/// Paints one step whose conditions all drop with `reason` (`None` is a
/// condition matching every destination). Split /16s paint first, so a
/// condition covering a whole /16 wins over one cutting it.
fn paint_any(
    classes: &mut [u8],
    dsts: impl Iterator<Item = Option<Prefix>> + Clone,
    reason: DropReason,
) {
    for prefix in dsts.clone().flatten().filter(|p| p.len() > 16) {
        paint_prefix(classes, prefix, MIXED);
    }
    for dst in dsts {
        match dst {
            None => classes.fill(reason as u8),
            Some(prefix) if prefix.len() <= 16 => paint_prefix(classes, prefix, reason as u8),
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultWindow};

    fn ip(s: &str) -> Ip {
        s.parse().unwrap()
    }

    fn class(classes: &[u8], dst: &str) -> u8 {
        classes[(ip(dst).value() >> 16) as usize]
    }

    /// One condition per class: an ingress /8, an egress /8, an outage
    /// /16, a blackhole /12, a flap /16 and a degraded /16, plus
    /// prefixes narrower than /16.
    fn env() -> Environment {
        let mut env = Environment::new();
        env.filters_mut()
            .push(FilterRule::ingress("77.0.0.0/8".parse().unwrap(), None));
        env.filters_mut()
            .push(FilterRule::ingress("78.1.2.0/24".parse().unwrap(), None));
        env.filters_mut()
            .push(FilterRule::egress("150.0.0.0/8".parse().unwrap(), None));
        let window = FaultWindow::new(0.0, 10.0);
        let plan: FaultPlan = [
            FaultKind::SensorOutage {
                block: "66.66.0.0/16".parse().unwrap(),
            },
            FaultKind::Blackhole {
                prefix: "12.0.0.0/12".parse().unwrap(),
            },
            FaultKind::FilterFlap {
                rule: FilterRule::ingress("99.9.0.0/16".parse().unwrap(), None),
                period: 10.0,
                duty: 1.0,
            },
            FaultKind::DegradedLoss {
                prefix: "88.8.0.0/16".parse().unwrap(),
                rate: 0.5,
            },
            // a whole-/16 outage under a narrower blackhole: mixed
            FaultKind::SensorOutage {
                block: "66.67.0.0/16".parse().unwrap(),
            },
            FaultKind::Blackhole {
                prefix: "66.67.1.0/24".parse().unwrap(),
            },
        ]
        .into_iter()
        .map(|kind| FaultEvent::new(kind, window))
        .collect();
        env.set_faults(plan);
        env
    }

    #[test]
    fn every_class_is_painted_where_the_chain_puts_it() {
        let env = env();
        let mut tables = RouteTables::new();
        let classes = tables.classes(&env, ip("8.8.8.8"), Service::BOT_SMB, 5.0);
        let drop = |reason: DropReason| reason as u8;
        assert_eq!(class(classes, "9.9.9.9"), DELIVER);
        assert_eq!(class(classes, "192.168.1.1"), PRIVATE);
        assert_eq!(class(classes, "10.1.1.1"), PRIVATE);
        assert_eq!(
            class(classes, "127.0.0.1"),
            drop(DropReason::UnroutableDestination)
        );
        assert_eq!(
            class(classes, "224.0.0.1"),
            drop(DropReason::UnroutableDestination)
        );
        assert_eq!(
            class(classes, "77.3.3.3"),
            drop(DropReason::IngressFiltered)
        );
        assert_eq!(class(classes, "66.66.1.1"), drop(DropReason::SensorOutage));
        assert_eq!(
            class(classes, "12.15.1.1"),
            drop(DropReason::UpstreamBlackhole)
        );
        assert_eq!(class(classes, "12.16.1.1"), DELIVER);
        assert_eq!(class(classes, "99.9.1.1"), drop(DropReason::FilterFlap));
        assert_eq!(class(classes, "88.8.1.1"), MIXED);
        assert_eq!(class(classes, "78.1.9.9"), MIXED);
        assert_eq!(class(classes, "66.67.9.9"), MIXED);
        // the egress rule does not hold this sender
        assert_eq!(class(classes, "150.1.1.1"), DELIVER);
    }

    #[test]
    fn unroutable_and_private_classes_follow_the_routability_tables() {
        let mut tables = RouteTables::new();
        let mut env = Environment::new();
        // a rule over all of space: every routable /16 is filtered
        env.filters_mut().push(FilterRule {
            src: None,
            dst: None,
            service: None,
            reason: DropReason::IngressFiltered,
        });
        let classes = tables.classes(&env, ip("8.8.8.8"), Service::BOT_SMB, 0.0);
        for (slash16, &class) in classes.iter().enumerate() {
            let base = Ip::new((slash16 as u32) << 16);
            let want = if special::is_private(base) {
                PRIVATE
            } else if !special::is_globally_routable(base) {
                DropReason::UnroutableDestination as u8
            } else {
                DropReason::IngressFiltered as u8
            };
            assert_eq!(class, want, "{base}");
        }
    }

    #[test]
    fn source_keyed_conditions_fold_into_the_senders_table() {
        let env = env();
        let mut tables = RouteTables::new();
        // inside the egress rule: every routable /16 is egress-filtered,
        // except where an earlier step or rule decides first
        let classes = tables.classes(&env, ip("150.2.3.4"), Service::BOT_SMB, 5.0);
        assert_eq!(class(classes, "9.9.9.9"), DropReason::EgressFiltered as u8);
        assert_eq!(
            class(classes, "77.3.3.3"),
            DropReason::IngressFiltered as u8
        );
        assert_eq!(class(classes, "66.66.1.1"), DropReason::SensorOutage as u8);
        assert_eq!(class(classes, "192.168.1.1"), PRIVATE);
        // inside a blackhole: every routable /16 is swallowed
        let classes = tables.classes(&env, ip("12.1.2.3"), Service::BOT_SMB, 5.0);
        assert_eq!(
            class(classes, "9.9.9.9"),
            DropReason::UpstreamBlackhole as u8
        );
        assert_eq!(class(classes, "10.1.1.1"), PRIVATE);
        // inside a degraded path: every probe past policy draws
        let classes = tables.classes(&env, ip("88.8.2.3"), Service::BOT_SMB, 5.0);
        assert_eq!(class(classes, "9.9.9.9"), MIXED);
        assert_eq!(
            class(classes, "77.3.3.3"),
            DropReason::IngressFiltered as u8
        );
        assert_eq!(tables.tables.len(), 3);
    }

    #[test]
    fn senders_share_tables_until_the_faults_in_effect_change() {
        let env = env();
        let mut tables = RouteTables::new();
        tables.classes(&env, ip("8.8.8.8"), Service::BOT_SMB, 5.0);
        tables.classes(&env, ip("9.9.9.9"), Service::BOT_SMB, 6.0);
        assert_eq!(tables.tables.len(), 1, "one signature, one table");
        tables.classes(&env, ip("9.9.9.9"), Service::SLAMMER_SQL, 6.0);
        assert_eq!(tables.tables.len(), 2, "a table per service");
        // the window closes: the cache starts over, reusing its buffers
        let classes = tables.classes(&env, ip("8.8.8.8"), Service::BOT_SMB, 10.0);
        assert_eq!(class(classes, "66.66.1.1"), DELIVER);
        assert_eq!(tables.tables.len(), 1);
        assert_eq!(tables.spare.len(), 1);
        // a different environment under the same cache is a new key
        let mut other = env.clone();
        other
            .filters_mut()
            .push(FilterRule::ingress("9.0.0.0/8".parse().unwrap(), None));
        let classes = tables.classes(&other, ip("8.8.8.8"), Service::BOT_SMB, 10.0);
        assert_eq!(class(classes, "9.9.9.9"), DropReason::IngressFiltered as u8);
    }
}
