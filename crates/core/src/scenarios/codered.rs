//! Figure 4: CodeRedII, NATs, and the 192/8 hotspot.

use hotspots_ipspace::{special, AddressBlock, Bucket24, Ip};
use hotspots_netmodel::{Environment, Locus, Service};
use hotspots_prng::SplitMix;
use hotspots_sim::{apply_nat, BucketHits, PopulationError, Scan, ScanResult};
use hotspots_stats::CountHistogram;
use hotspots_targeting::CodeRed2Scanner;
use hotspots_telescope::Observatory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scenarios::{figure_buckets, CoverageRow};

/// Configuration for the CodeRedII measurement study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeRedStudy {
    /// Number of persistently infected hosts.
    pub hosts: usize,
    /// Fraction of hosts behind home NATs at `192.168.x.y`
    /// (the paper's estimate: 15%).
    pub nat_fraction: f64,
    /// Probes each host sends during the observation window.
    pub probes_per_host: u64,
    /// Master seed.
    pub rng_seed: u64,
}

impl Default for CodeRedStudy {
    fn default() -> CodeRedStudy {
        CodeRedStudy {
            hosts: 12_000,
            nat_fraction: 0.15,
            probes_per_host: 20_000,
            rng_seed: 0xc0de_4ed2,
        }
    }
}

/// Runs the study: a mixed public/NATed CodeRedII population scans
/// through the environment into an observatory over `blocks`; returns
/// the Figure 4(a) rows (unique sources per monitored /24, /16 for Z;
/// pass [`hotspots_ipspace::ims_deployment`] for the paper's setup)
/// and the [`Scan`] accounting over every probe the population routed
/// (NAT-leaked local deliveries and unroutable private-space drops
/// included).
///
/// # Errors
///
/// The NAT deployment's [`PopulationError`] (see [`apply_nat`]).
pub fn sources_by_block(
    study: &CodeRedStudy,
    blocks: &[AddressBlock],
) -> Result<(Vec<CoverageRow>, ScanResult), PopulationError> {
    assert!(
        (0.0..=1.0).contains(&study.nat_fraction),
        "NAT fraction out of range"
    );
    let mut rng = StdRng::seed_from_u64(study.rng_seed);
    let mut addrs = Vec::with_capacity(study.hosts);
    while addrs.len() < study.hosts {
        let ip = Ip::new(rng.gen());
        if special::is_globally_routable(ip) {
            addrs.push(ip);
        }
    }
    // Every drawn address is globally routable, so the NAT deployment's
    // gateway check cannot fail here; its error is passed on, not
    // assumed away.
    let mut env = Environment::new();
    let loci = apply_nat(&mut env, &addrs, study.nat_fraction, &mut rng)?;

    // The NAT realms configure no loss, so routing draws nothing from
    // `rng`.
    let mut observatory = Observatory::new(blocks.to_vec());
    let mut scan = Scan::new();
    let mut mix = SplitMix::new(study.rng_seed ^ 0xfeed);
    for &locus in &loci {
        let mut worm = CodeRed2Scanner::new(locus.local_address(), SplitMix::new(mix.next_u64()));
        scan.run(
            &env,
            locus,
            &mut worm,
            Service::CODERED_HTTP,
            study.probes_per_host,
            &mut rng,
            &mut observatory,
        );
    }

    // Read the per-bucket unique-source counts out of the observatory.
    let per_block: std::collections::HashMap<&str, CountHistogram<Bucket24>> = observatory
        .iter()
        .map(|(b, log)| (b.label(), log.sources_by_bucket24()))
        .collect();
    let rows = figure_buckets(blocks)
        .into_iter()
        .map(|(block, prefix)| {
            let hist = &per_block[block.as_str()];
            // /16 rows aggregate their /24 buckets; /24 rows are direct
            let unique_sources = if prefix.len() >= 24 {
                hist.count(&Bucket24::of(prefix.base()))
            } else {
                hist.iter()
                    .filter(|(bucket, _)| prefix.contains(bucket.first_ip()))
                    .map(|(_, c)| c)
                    .sum()
            };
            CoverageRow {
                block,
                prefix,
                unique_sources,
            }
        })
        .collect();
    Ok((rows, scan.finish()))
}

/// Figure 4(b)/(c): the quarantine experiment — one captured CodeRedII
/// instance in a honeypot with the given source address, run for
/// `probes` infection attempts; returns probe counts per monitored /24
/// and the [`Scan`] accounting. The probes route through an empty
/// [`Environment`], which delivers every probe aimed at globally
/// routable space.
///
/// The paper ran 7,567,093 attempts from a non-192/8 host (4b) and
/// 7,567,361 from `192.168.0.100` (4c).
pub fn quarantine_run(
    source: Ip,
    probes: u64,
    blocks: &[AddressBlock],
    rng_seed: u64,
) -> (CountHistogram<Bucket24>, ScanResult) {
    let mut worm = CodeRed2Scanner::new(source, SplitMix::new(rng_seed));
    let mut hits = BucketHits::new(blocks);
    let mut scan = Scan::new();
    // An empty environment draws nothing from the routing stream.
    let mut rng = StdRng::seed_from_u64(rng_seed);
    scan.run(
        &Environment::new(),
        Locus::Public(source),
        &mut worm,
        Service::CODERED_HTTP,
        probes,
        &mut rng,
        &mut hits,
    );
    (hits.into_histogram(), scan.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::totals_by_block;
    use hotspots_ipspace::ims_deployment;

    fn small_study() -> CodeRedStudy {
        CodeRedStudy {
            hosts: 1_500,
            nat_fraction: 0.15,
            probes_per_host: 6_000,
            rng_seed: 11,
        }
    }

    #[test]
    fn accounted_ledger_balances_and_sees_nat_leakage() {
        let study = small_study();
        let (_, scan) = sources_by_block(&study, &ims_deployment()).unwrap();
        let ledger = scan.ledger;
        assert_eq!(ledger.probes(), study.hosts as u64 * study.probes_per_host);
        assert_eq!(ledger.delivered() + ledger.dropped_total(), ledger.probes());
        // NATed hosts' /8-preferring probes hit their own private realm
        // (local deliveries) and foreign private space (unroutable)
        assert!(ledger.delivered_local() > 0);
        assert!(ledger.dropped(hotspots_netmodel::DropReason::UnroutableDestination) > 0);
    }

    #[test]
    fn m_block_is_the_hotspot() {
        // Figure 4a: the M block (inside 192/8) sees far more unique
        // sources per monitored /24 than comparable blocks, because
        // NATed hosts' /8-preference probes leak into public 192/8.
        let (rows, _) = sources_by_block(&small_study(), &ims_deployment()).unwrap();
        let totals: std::collections::HashMap<String, u64> =
            totals_by_block(&rows).into_iter().collect();
        // per-/24 normalization (M is a /22 = 4 /24s)
        let m = totals["M"] as f64 / 4.0;
        for (label, slash24s) in [("D", 16.0), ("E", 8.0), ("F", 4.0), ("H", 64.0)] {
            let other = totals[label] as f64 / slash24s;
            assert!(
                m > 3.0 * other.max(0.1),
                "M per-/24 rate {m} not clearly above {label} rate {other}"
            );
        }
    }

    #[test]
    fn without_nat_no_m_hotspot() {
        let study = CodeRedStudy {
            nat_fraction: 0.0,
            ..small_study()
        };
        let (rows, _) = sources_by_block(&study, &ims_deployment()).unwrap();
        let totals: std::collections::HashMap<String, u64> =
            totals_by_block(&rows).into_iter().collect();
        let m = totals["M"] as f64 / 4.0;
        let d = totals["D"] as f64 / 16.0;
        // with no NATed hosts, M behaves like any other block
        assert!(
            m < 3.0 * (d + 1.0),
            "M rate {m} suspiciously hot without NAT (D rate {d})"
        );
    }

    #[test]
    fn quarantine_192_168_source_spikes_m() {
        // Figure 4b vs 4c at reduced probe count.
        let blocks = ims_deployment();
        let (outside, _) = quarantine_run(Ip::from_octets(57, 20, 3, 9), 400_000, &blocks, 5);
        let (natted, _) = quarantine_run(Ip::from_octets(192, 168, 0, 100), 400_000, &blocks, 5);
        let m_prefix: hotspots_ipspace::Prefix = "192.40.16.0/22".parse().unwrap();
        let m_hits = |h: &CountHistogram<Bucket24>| -> u64 {
            h.iter()
                .filter(|(b, _)| m_prefix.contains(b.first_ip()))
                .map(|(_, c)| c)
                .sum()
        };
        let outside_m = m_hits(&outside);
        let natted_m = m_hits(&natted);
        assert!(
            natted_m > 10 * (outside_m + 1),
            "192.168 quarantine M hits {natted_m} vs outside {outside_m}"
        );
    }

    #[test]
    fn quarantine_outside_source_rarely_reaches_sensors() {
        // Figure 4b's text: 7.5M attempts, yet "only a small number of
        // attempts reach the monitored blocks" (local preference).
        let blocks = ims_deployment();
        let (hist, _) = quarantine_run(Ip::from_octets(57, 20, 3, 9), 200_000, &blocks, 9);
        let rate = hist.total() as f64 / 200_000.0;
        // 1/8 random probes × ~0.4% monitored space ≈ 5e-4, far below 1%
        assert!(rate < 0.01, "sensor hit rate {rate} too high");
    }

    #[test]
    fn study_is_deterministic() {
        let (rows_a, scan_a) = sources_by_block(&small_study(), &ims_deployment()).unwrap();
        let (rows_b, scan_b) = sources_by_block(&small_study(), &ims_deployment()).unwrap();
        assert_eq!(rows_a, rows_b);
        assert_eq!(scan_a.ledger, scan_b.ledger);
    }
}
