//! Table 2: enterprise egress filtering hides infections.

use hotspots_ipspace::{ims_deployment, Ip};
use hotspots_netmodel::{Environment, Locus, OrgKind, OrgRegistry, Service};
use hotspots_prng::entropy::{HardwareGeneration, SeedModel};
use hotspots_prng::{SplitMix, SqlsortDll};
use hotspots_sim::{Scan, ScanResult};
use hotspots_targeting::{BlasterScanner, CodeRed2Scanner, SlammerScanner};
use hotspots_telescope::Observatory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::seed_inference::scan_covers;

/// Configuration for the Table 2 study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilteringStudy {
    /// Internally infected hosts per enterprise (the paper's premise:
    /// large networks inevitably harbor infections).
    pub infected_per_enterprise: usize,
    /// Infected hosts per broadband ISP.
    pub infected_per_isp: usize,
    /// Probes per host for the random-scanning worms (CRII, Slammer).
    pub probes_per_host: u64,
    /// Observation window for the sequential worm (Blaster), in covered
    /// addresses.
    pub blaster_scan_len: u64,
    /// Master seed.
    pub rng_seed: u64,
}

impl Default for FilteringStudy {
    fn default() -> FilteringStudy {
        FilteringStudy {
            infected_per_enterprise: 800,
            infected_per_isp: 20_000,
            probes_per_host: 12_000,
            // a month at Blaster's ~11 probes/s
            blaster_scan_len: (30.0 * 24.0 * 3600.0 * 11.0) as u64,
            rng_seed: 0x7ab1e2,
        }
    }
}

/// One Table 2 row: an organization and how many of its infected hosts
/// each worm *exposed* to the telescope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Organization name.
    pub org: String,
    /// Organization kind.
    pub kind: OrgKind,
    /// Addresses allocated to the organization.
    pub total_ips: u64,
    /// Infected hosts planted inside the organization.
    pub infected_inside: u64,
    /// Unique CodeRedII sources observed at the IMS from this org.
    pub crii_observed: u64,
    /// Unique Slammer sources observed.
    pub slammer_observed: u64,
    /// Unique Blaster sources observed.
    pub blaster_observed: u64,
}

/// Runs the study over the synthetic Table 2 registry: plants infected
/// hosts inside each organization, lets each worm scan through the
/// environment (enterprise egress filters active), and counts the unique
/// sources the IMS observatory attributes to each organization.
///
/// Also returns the [`Scan`] accounting over every routed probe (the
/// CRII and Slammer probe streams; Blaster coverage is closed-form and
/// routes nothing).
pub fn table2(study: &FilteringStudy) -> (Vec<Table2Row>, ScanResult) {
    let mut scan = Scan::new();
    let registry = OrgRegistry::synthetic_table2();
    let mut env = Environment::new();
    for rule in registry.egress_rules().rules() {
        env.filters_mut().push(*rule);
    }
    let blocks = ims_deployment();
    let mut rng = StdRng::seed_from_u64(study.rng_seed);
    let mut mix = SplitMix::new(study.rng_seed ^ 0x0b5e);

    let mut rows = Vec::new();
    for org in registry.orgs() {
        let infected = match org.kind() {
            OrgKind::Enterprise => study.infected_per_enterprise,
            _ => study.infected_per_isp,
        };
        // plant infected hosts uniformly inside the allocation
        let mut hosts: Vec<Ip> = Vec::with_capacity(infected);
        let prefixes = org.prefixes();
        let total: u64 = prefixes.iter().map(|p| p.size()).sum();
        for _ in 0..infected {
            let mut slot = rng.gen_range(0..total);
            let ip = prefixes
                .iter()
                .find_map(|p| {
                    if slot < p.size() {
                        Some(p.nth(slot))
                    } else {
                        slot -= p.size();
                        None
                    }
                })
                .expect("slot within total"); // hotspots-lint: allow(panic-path) reason="slot within total"
            hosts.push(ip);
        }

        // CodeRedII and Slammer: probe-driven observation. The egress
        // filters configure no loss, so routing draws nothing from `rng`.
        let mut crii_obs = Observatory::new(blocks.clone());
        let mut slam_obs = Observatory::new(blocks.clone());
        for &src in &hosts {
            let locus = Locus::Public(src);
            let mut crii = CodeRed2Scanner::new(src, SplitMix::new(mix.next_u64()));
            let mut slam = SlammerScanner::new(
                SqlsortDll::ALL[(mix.next_u64() % 3) as usize],
                mix.next_u64() as u32,
            );
            scan.run(
                &env,
                locus,
                &mut crii,
                Service::CODERED_HTTP,
                study.probes_per_host,
                &mut rng,
                &mut crii_obs,
            );
            scan.run(
                &env,
                locus,
                &mut slam,
                Service::SLAMMER_SQL,
                study.probes_per_host,
                &mut rng,
                &mut slam_obs,
            );
        }

        // Blaster: closed-form interval coverage (month-long window),
        // gated on the same egress policy.
        let model = SeedModel::blaster_population(HardwareGeneration::PentiumIii);
        let blaster_observed = hosts
            .iter()
            .filter(|&&src| {
                let egress_ok = env
                    .filters()
                    .check(src, Ip::from_octets(198, 51, 100, 1), Service::BLASTER_RPC)
                    .is_none();
                if !egress_ok {
                    return false;
                }
                let tick = model.sample_seed(&mut rng);
                let start = BlasterScanner::start_for_seed(src, tick);
                blocks
                    .iter()
                    .any(|b| scan_covers(start, study.blaster_scan_len, b.prefix()))
            })
            .count() as u64;

        let count_org_sources = |obs: &Observatory| -> u64 {
            let mut seen = std::collections::HashSet::new();
            for &src in &hosts {
                if obs.iter().any(|(_, log)| log.saw_source(src)) {
                    seen.insert(src);
                }
            }
            seen.len() as u64
        };

        rows.push(Table2Row {
            org: org.name().to_owned(),
            kind: org.kind(),
            total_ips: org.address_count(),
            infected_inside: infected as u64,
            crii_observed: count_org_sources(&crii_obs),
            slammer_observed: count_org_sources(&slam_obs),
            blaster_observed,
        });
    }
    (rows, scan.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_study() -> FilteringStudy {
        FilteringStudy {
            infected_per_enterprise: 60,
            infected_per_isp: 300,
            probes_per_host: 3_000,
            blaster_scan_len: (30.0 * 24.0 * 3600.0 * 11.0) as u64,
            rng_seed: 3,
        }
    }

    #[test]
    fn enterprises_invisible_isps_expose_thousands() {
        let (rows, _) = table2(&small_study());
        assert_eq!(rows.len(), 6);
        for row in &rows {
            match row.kind {
                OrgKind::Enterprise => {
                    assert_eq!(
                        (
                            row.crii_observed,
                            row.slammer_observed,
                            row.blaster_observed
                        ),
                        (0, 0, 0),
                        "egress-filtered {} leaked observations",
                        row.org
                    );
                    assert!(row.infected_inside > 0, "premise: infections exist inside");
                }
                _ => {
                    assert!(
                        row.crii_observed > row.infected_inside / 2,
                        "{}: CRII observed {} of {}",
                        row.org,
                        row.crii_observed,
                        row.infected_inside
                    );
                    assert!(row.slammer_observed > 0, "{}", row.org);
                    assert!(row.blaster_observed > 0, "{}", row.org);
                }
            }
        }
    }

    #[test]
    fn rows_are_deterministic() {
        let (rows_a, scan_a) = table2(&small_study());
        let (rows_b, scan_b) = table2(&small_study());
        assert_eq!(rows_a, rows_b);
        assert_eq!(scan_a.ledger, scan_b.ledger);
    }

    #[test]
    fn accounting_covers_every_routed_probe() {
        let study = small_study();
        let (rows, scan) = table2(&study);
        let ledger = scan.ledger;
        let hosts: u64 = rows.iter().map(|r| r.infected_inside).sum();
        // two probe streams (CRII + Slammer) per planted host
        assert_eq!(ledger.probes(), hosts * study.probes_per_host * 2);
        assert_eq!(ledger.delivered() + ledger.dropped_total(), ledger.probes());
        // the enterprise egress filters must show up as drops
        assert!(ledger.dropped(hotspots_netmodel::DropReason::EgressFiltered) > 0);
    }
}
