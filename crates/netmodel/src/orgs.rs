//! Organization registry: who owns which address space, and who filters.
//!
//! Table 2 of the paper compares worm infections visible from Fortune-100
//! enterprise allocations (≈ zero, despite huge networks) against top
//! broadband providers (tens of thousands). The explanation is egress
//! filtering at the enterprise border. The real ARIN allocations are
//! proprietary inputs; [`OrgRegistry::synthetic_table2`] builds a
//! structurally equivalent registry.

use std::fmt;

use hotspots_ipspace::{Ip, Prefix};

use crate::filtering::{FilterRule, FilterTable};

/// The kind of organization, which determines its default filtering
/// posture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrgKind {
    /// A large enterprise (Fortune-100 style): egress-filtered border.
    Enterprise,
    /// A broadband/consumer ISP: no outgoing filtering.
    Broadband,
    /// An academic network: mostly open (the paper's bot-capture /15).
    Academic,
}

impl fmt::Display for OrgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OrgKind::Enterprise => "enterprise",
            OrgKind::Broadband => "broadband",
            OrgKind::Academic => "academic",
        })
    }
}

/// An organization and its address allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Organization {
    name: String,
    kind: OrgKind,
    prefixes: Vec<Prefix>,
    egress_filtered: bool,
}

impl Organization {
    /// Creates an organization; enterprises default to egress-filtered,
    /// everyone else to open.
    ///
    /// # Panics
    ///
    /// Panics if `prefixes` is empty.
    pub fn new(name: impl Into<String>, kind: OrgKind, prefixes: Vec<Prefix>) -> Organization {
        assert!(
            !prefixes.is_empty(),
            "organization needs at least one prefix"
        );
        Organization {
            name: name.into(),
            kind,
            prefixes,
            egress_filtered: matches!(kind, OrgKind::Enterprise),
        }
    }

    /// Overrides the egress-filtering posture.
    pub fn with_egress_filtered(mut self, filtered: bool) -> Organization {
        self.egress_filtered = filtered;
        self
    }

    /// The organization's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The organization kind.
    pub fn kind(&self) -> OrgKind {
        self.kind
    }

    /// The allocated prefixes.
    pub fn prefixes(&self) -> &[Prefix] {
        &self.prefixes
    }

    /// Whether outgoing worm probes are filtered at the border.
    pub fn egress_filtered(&self) -> bool {
        self.egress_filtered
    }

    /// Total allocated addresses.
    pub fn address_count(&self) -> u64 {
        self.prefixes.iter().map(|p| p.size()).sum()
    }

    /// Returns `true` if `ip` belongs to this organization.
    pub fn owns(&self, ip: Ip) -> bool {
        self.prefixes.iter().any(|p| p.contains(ip))
    }
}

impl fmt::Display for Organization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} addrs{})",
            self.name,
            self.kind,
            self.address_count(),
            if self.egress_filtered {
                ", egress-filtered"
            } else {
                ""
            }
        )
    }
}

/// A registry of organizations with address→owner lookup.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Ip;
/// use hotspots_netmodel::OrgRegistry;
///
/// let reg = OrgRegistry::synthetic_table2();
/// let owner = reg.owner(Ip::from_octets(24, 10, 0, 1)).unwrap();
/// assert_eq!(owner.name(), "ISP-A");
/// ```
#[derive(Debug, Clone, Default)]
pub struct OrgRegistry {
    orgs: Vec<Organization>,
}

impl OrgRegistry {
    /// Creates an empty registry.
    pub fn new() -> OrgRegistry {
        OrgRegistry::default()
    }

    /// Adds an organization.
    ///
    /// # Panics
    ///
    /// Panics if any of its prefixes overlaps an existing organization's
    /// allocation.
    pub fn add(&mut self, org: Organization) {
        for existing in &self.orgs {
            for a in existing.prefixes() {
                for b in org.prefixes() {
                    assert!(
                        !a.overlaps(*b),
                        "allocation {b} of {} overlaps {a} of {}",
                        org.name(),
                        existing.name()
                    );
                }
            }
        }
        self.orgs.push(org);
    }

    /// The organizations, in insertion order.
    pub fn orgs(&self) -> &[Organization] {
        &self.orgs
    }

    /// Finds the owner of `ip`, if any.
    pub fn owner(&self, ip: Ip) -> Option<&Organization> {
        self.orgs.iter().find(|o| o.owns(ip))
    }

    /// Builds the egress deny rules implied by the registry's filtered
    /// organizations (ready to push into an
    /// [`Environment`](crate::Environment)).
    pub fn egress_rules(&self) -> FilterTable {
        self.orgs
            .iter()
            .filter(|o| o.egress_filtered())
            .flat_map(|o| o.prefixes().iter().map(|p| FilterRule::egress(*p, None)))
            .collect()
    }

    /// The synthetic Table 2 registry: three Fortune-100-style enterprises
    /// (egress-filtered) and three broadband ISPs (open), with allocation
    /// sizes echoing the paper's structure (enterprises hold hundreds of
    /// thousands of addresses; broadband ISPs hold millions).
    pub fn synthetic_table2() -> OrgRegistry {
        fn p(s: &str) -> Prefix {
            s.parse().expect("static prefixes are valid") // hotspots-lint: allow(panic-path) reason="static prefixes are valid"
        }
        let mut reg = OrgRegistry::new();
        reg.add(Organization::new(
            "Corp-Banking",
            OrgKind::Enterprise,
            vec![p("55.0.0.0/14"), p("137.200.0.0/16")],
        ));
        reg.add(Organization::new(
            "Corp-Media",
            OrgKind::Enterprise,
            vec![p("56.64.0.0/14"), p("146.90.0.0/16")],
        ));
        reg.add(Organization::new(
            "Corp-Logistics",
            OrgKind::Enterprise,
            vec![p("57.128.0.0/14"), p("155.44.0.0/16")],
        ));
        reg.add(Organization::new(
            "ISP-A",
            OrgKind::Broadband,
            vec![p("24.0.0.0/12"), p("68.32.0.0/11")],
        ));
        reg.add(Organization::new(
            "ISP-B",
            OrgKind::Broadband,
            vec![p("65.96.0.0/11"), p("71.128.0.0/12")],
        ));
        reg.add(Organization::new(
            "ISP-C",
            OrgKind::Broadband,
            vec![p("82.64.0.0/11"), p("90.192.0.0/12")],
        ));
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn owner_lookup() {
        let mut reg = OrgRegistry::new();
        reg.add(Organization::new(
            "X",
            OrgKind::Academic,
            vec![p("141.0.0.0/15")],
        ));
        assert_eq!(
            reg.owner(Ip::from_octets(141, 1, 2, 3)).unwrap().name(),
            "X"
        );
        assert!(reg.owner(Ip::from_octets(142, 0, 0, 0)).is_none());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn add_rejects_overlapping_allocations() {
        let mut reg = OrgRegistry::new();
        reg.add(Organization::new(
            "A",
            OrgKind::Broadband,
            vec![p("10.0.0.0/8")],
        ));
        reg.add(Organization::new(
            "B",
            OrgKind::Broadband,
            vec![p("10.1.0.0/16")],
        ));
    }

    #[test]
    #[should_panic(expected = "at least one prefix")]
    fn org_needs_prefixes() {
        let _ = Organization::new("empty", OrgKind::Enterprise, vec![]);
    }

    #[test]
    fn enterprise_defaults_filtered_broadband_open() {
        let e = Organization::new("E", OrgKind::Enterprise, vec![p("55.0.0.0/14")]);
        let b = Organization::new("B", OrgKind::Broadband, vec![p("24.0.0.0/12")]);
        assert!(e.egress_filtered());
        assert!(!b.egress_filtered());
        let exceptional = e.clone().with_egress_filtered(false);
        assert!(!exceptional.egress_filtered());
    }

    #[test]
    fn synthetic_table2_structure() {
        let reg = OrgRegistry::synthetic_table2();
        assert_eq!(reg.orgs().len(), 6);
        let enterprises: Vec<&Organization> = reg
            .orgs()
            .iter()
            .filter(|o| o.kind() == OrgKind::Enterprise)
            .collect();
        let isps: Vec<&Organization> = reg
            .orgs()
            .iter()
            .filter(|o| o.kind() == OrgKind::Broadband)
            .collect();
        assert_eq!(enterprises.len(), 3);
        assert_eq!(isps.len(), 3);
        assert!(enterprises.iter().all(|o| o.egress_filtered()));
        assert!(isps.iter().all(|o| !o.egress_filtered()));
        // ISPs hold much more space than enterprises, like the paper's
        // broadband providers
        let ent_total: u64 = enterprises.iter().map(|o| o.address_count()).sum();
        let isp_total: u64 = isps.iter().map(|o| o.address_count()).sum();
        assert!(isp_total > 5 * ent_total);
    }

    #[test]
    fn egress_rules_cover_filtered_orgs_only() {
        let reg = OrgRegistry::synthetic_table2();
        let rules = reg.egress_rules();
        // 3 enterprises × 2 prefixes
        assert_eq!(rules.rules().len(), 6);
        let banking = Ip::from_octets(55, 1, 2, 3);
        let isp = Ip::from_octets(24, 1, 2, 3);
        let dst = Ip::from_octets(198, 51, 100, 1);
        assert!(rules
            .check(banking, dst, crate::Service::CODERED_HTTP)
            .is_some());
        assert!(rules
            .check(isp, dst, crate::Service::CODERED_HTTP)
            .is_none());
    }
}
