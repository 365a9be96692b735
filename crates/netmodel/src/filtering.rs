//! Routing and filtering policy.
//!
//! The paper's two filtering case studies:
//!
//! * the **M block** saw zero Slammer traffic "due to policy blocking the
//!   worm deployed at its upstream provider" — an *ingress* rule keyed on
//!   destination and service;
//! * **Fortune-100 enterprises** showed almost no outward sign of internal
//!   infections — *egress* rules keyed on source.

use std::fmt;

use hotspots_ipspace::{Ip, Prefix};

use crate::environment::DropReason;
use crate::service::Service;

/// One deny rule. A rule matches a probe when *all* of its populated
/// selectors match (`None` = wildcard). The table is deny-only with a
/// default-allow policy, like a typical border ACL distilled to the parts
/// that matter for worm traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterRule {
    /// Match on source prefix (`None` = any source).
    pub src: Option<Prefix>,
    /// Match on destination prefix (`None` = any destination).
    pub dst: Option<Prefix>,
    /// Match on service (`None` = any service).
    pub service: Option<Service>,
    /// The reason reported when this rule drops a probe
    /// ([`DropReason::EgressFiltered`] or [`DropReason::IngressFiltered`]).
    pub reason: DropReason,
}

impl FilterRule {
    /// An enterprise egress filter: drop worm probes *leaving* `org`
    /// toward anywhere, for the given service (or all services).
    pub fn egress(org: Prefix, service: Option<Service>) -> FilterRule {
        FilterRule {
            src: Some(org),
            dst: None,
            service,
            reason: DropReason::EgressFiltered,
        }
    }

    /// An upstream-provider ingress block: drop probes *toward* `dst` for
    /// the given service (the M-block Slammer block is
    /// `FilterRule::ingress(m_prefix, Some(Service::SLAMMER_SQL))`).
    pub fn ingress(dst: Prefix, service: Option<Service>) -> FilterRule {
        FilterRule {
            src: None,
            dst: Some(dst),
            service,
            reason: DropReason::IngressFiltered,
        }
    }

    /// Returns `true` if this rule matches the probe.
    pub fn matches(&self, src: Ip, dst: Ip, service: Service) -> bool {
        self.src.is_none_or(|p| p.contains(src))
            && self.dst.is_none_or(|p| p.contains(dst))
            && self.service.is_none_or(|s| s == service)
    }
}

impl fmt::Display for FilterRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deny src={} dst={} svc={} ({:?})",
            self.src.map_or_else(|| "any".to_owned(), |p| p.to_string()),
            self.dst.map_or_else(|| "any".to_owned(), |p| p.to_string()),
            self.service
                .map_or_else(|| "any".to_owned(), |s| s.to_string()),
            self.reason,
        )
    }
}

/// An ordered list of deny rules with default allow.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Ip;
/// use hotspots_netmodel::{DropReason, FilterRule, FilterTable, Service};
///
/// let mut table = FilterTable::new();
/// table.push(FilterRule::ingress(
///     "192.40.16.0/22".parse().unwrap(),
///     Some(Service::SLAMMER_SQL),
/// ));
/// // Slammer toward the M block: dropped
/// let verdict = table.check(
///     Ip::from_octets(1, 2, 3, 4),
///     Ip::from_octets(192, 40, 17, 9),
///     Service::SLAMMER_SQL,
/// );
/// assert_eq!(verdict, Some(DropReason::IngressFiltered));
/// // CodeRedII toward the same block: allowed
/// let verdict = table.check(
///     Ip::from_octets(1, 2, 3, 4),
///     Ip::from_octets(192, 40, 17, 9),
///     Service::CODERED_HTTP,
/// );
/// assert_eq!(verdict, None);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FilterTable {
    rules: Vec<FilterRule>,
}

impl FilterTable {
    /// Creates an empty (allow-everything) table.
    pub fn new() -> FilterTable {
        FilterTable { rules: Vec::new() }
    }

    /// Appends a deny rule (evaluated in insertion order, first match
    /// wins).
    pub fn push(&mut self, rule: FilterRule) {
        self.rules.push(rule);
    }

    /// The rules in evaluation order.
    pub fn rules(&self) -> &[FilterRule] {
        &self.rules
    }

    /// Checks a probe; returns the first matching rule's drop reason, or
    /// `None` if the probe passes.
    pub fn check(&self, src: Ip, dst: Ip, service: Service) -> Option<DropReason> {
        self.rules
            .iter()
            .find(|r| r.matches(src, dst, service))
            .map(|r| r.reason)
    }
}

impl FromIterator<FilterRule> for FilterTable {
    fn from_iter<I: IntoIterator<Item = FilterRule>>(iter: I) -> FilterTable {
        FilterTable {
            rules: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ip {
        s.parse().unwrap()
    }

    #[test]
    fn empty_table_allows_everything() {
        let t = FilterTable::new();
        assert_eq!(
            t.check(ip("1.1.1.1"), ip("2.2.2.2"), Service::SLAMMER_SQL),
            None
        );
    }

    #[test]
    fn egress_rule_keys_on_source() {
        let mut t = FilterTable::new();
        t.push(FilterRule::egress("131.0.0.0/8".parse().unwrap(), None));
        assert_eq!(
            t.check(ip("131.5.5.5"), ip("8.8.8.8"), Service::BLASTER_RPC),
            Some(DropReason::EgressFiltered)
        );
        assert_eq!(
            t.check(ip("132.5.5.5"), ip("8.8.8.8"), Service::BLASTER_RPC),
            None
        );
    }

    #[test]
    fn service_selector_restricts_match() {
        let mut t = FilterTable::new();
        t.push(FilterRule::ingress(
            "192.40.16.0/22".parse().unwrap(),
            Some(Service::SLAMMER_SQL),
        ));
        assert!(t
            .check(ip("9.9.9.9"), ip("192.40.19.255"), Service::SLAMMER_SQL)
            .is_some());
        assert!(t
            .check(ip("9.9.9.9"), ip("192.40.19.255"), Service::CODERED_HTTP)
            .is_none());
        assert!(t
            .check(ip("9.9.9.9"), ip("192.40.20.0"), Service::SLAMMER_SQL)
            .is_none());
    }

    #[test]
    fn first_match_wins() {
        let mut t = FilterTable::new();
        t.push(FilterRule::ingress("10.0.0.0/8".parse().unwrap(), None));
        t.push(FilterRule::egress("0.0.0.0/0".parse().unwrap(), None));
        assert_eq!(
            t.check(ip("1.1.1.1"), ip("10.2.3.4"), Service::BOT_SMB),
            Some(DropReason::IngressFiltered)
        );
        assert_eq!(
            t.check(ip("1.1.1.1"), ip("11.2.3.4"), Service::BOT_SMB),
            Some(DropReason::EgressFiltered)
        );
    }

    #[test]
    fn from_iterator_builds_table() {
        let t: FilterTable = [FilterRule::egress("10.0.0.0/8".parse().unwrap(), None)]
            .into_iter()
            .collect();
        assert_eq!(t.rules().len(), 1);
    }
}
